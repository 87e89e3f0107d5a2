// Package sched implements the daemon (scheduler) models under which the
// sequential self-stabilizing MIS rule of [28, 20] (mis.Sequential) and the
// paper's randomized processes are analyzed. Each step a daemon selects
// which privileged (inconsistent) vertices move: one at a time
// (central-adversarial, central-random, round-robin, and the k-fair
// daemons, adversarial within a fairness window), all of them
// (synchronous), or a random subset (distributed-random). A daemon sees
// only the sorted privileged list and a selection stream, so one
// implementation serves every rule engine.Core.DaemonStep runs; the
// stateful daemons (round-robin, k-fair) serialize their schedule history
// for checkpoints.
package sched

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"ssmis/internal/xrand"
)

// Daemon selects which inconsistent ("privileged") vertices move in a step.
type Daemon interface {
	// Name identifies the daemon for reports.
	Name() string
	// Select returns the subset of privileged that moves this step.
	// privileged is sorted and non-empty; the returned slice must be a
	// non-empty subset of it.
	Select(privileged []int, rng *xrand.Rand) []int
}

// CentralAdversarial moves one vertex per step, always the lowest-index
// privileged vertex (a fixed adversarial choice).
type CentralAdversarial struct{}

// Name implements Daemon.
func (CentralAdversarial) Name() string { return "central-adversarial" }

// Select implements Daemon.
func (CentralAdversarial) Select(privileged []int, _ *xrand.Rand) []int {
	return privileged[:1]
}

// CentralRandom moves one uniformly random privileged vertex per step.
type CentralRandom struct{}

// Name implements Daemon.
func (CentralRandom) Name() string { return "central-random" }

// Select implements Daemon.
func (CentralRandom) Select(privileged []int, rng *xrand.Rand) []int {
	i := rng.Intn(len(privileged))
	return privileged[i : i+1]
}

// Synchronous moves every privileged vertex simultaneously — the daemon
// under which the deterministic rule livelocks and the randomized rule is
// the paper's 2-state MIS process.
type Synchronous struct{}

// Name implements Daemon.
func (Synchronous) Name() string { return "synchronous" }

// Select implements Daemon.
func (Synchronous) Select(privileged []int, _ *xrand.Rand) []int {
	return privileged
}

// RoundRobin is a central daemon that cycles through vertex ids, each step
// moving the first privileged vertex at or after the cursor — a fair
// (non-adversarial, non-random) schedule.
type RoundRobin struct {
	cursor int
}

// Name implements Daemon.
func (*RoundRobin) Name() string { return "round-robin" }

// Select implements Daemon.
func (d *RoundRobin) Select(privileged []int, _ *xrand.Rand) []int {
	for i, u := range privileged {
		if u >= d.cursor {
			d.cursor = u + 1
			return privileged[i : i+1]
		}
	}
	// Wrap around.
	d.cursor = privileged[0] + 1
	return privileged[:1]
}

// DistributedRandom moves each privileged vertex independently with
// probability half (a random distributed daemon).
type DistributedRandom struct{}

// Name implements Daemon.
func (DistributedRandom) Name() string { return "distributed-random" }

// Select implements Daemon.
func (DistributedRandom) Select(privileged []int, rng *xrand.Rand) []int {
	out := privileged[:0:0]
	for _, u := range privileged {
		if rng.Bit() {
			out = append(out, u)
		}
	}
	if len(out) == 0 {
		out = append(out, privileged[rng.Intn(len(privileged))])
	}
	return out
}

// KFair is a central daemon that is adversarial within a fairness window:
// each step it moves the lowest-index privileged vertex — the
// CentralAdversarial choice — unless some vertex has stayed privileged,
// unselected, for at least k consecutive steps, in which case the
// longest-starved such vertex (ties to the lowest index) moves instead.
// Since the longest-starved vertex is always served first, no continuously
// privileged vertex starves forever, and when a single vertex is starved it
// is served within k steps of becoming privileged.
//
// k is the classical knob between the adversarial central daemon (k = ∞)
// and a fully fair one (k = 1 serves the longest-privileged vertex every
// step). The 3-state process's livelock under CentralAdversarial —
// experiment E18, pinned by the daemon tests in internal/mis — exists only
// at k = ∞: every finite window lets the starved demotion fire.
type KFair struct {
	k    int
	step int
	seen []int // last step at which u was privileged
	run  []int // consecutive privileged steps since u last moved
}

// NewKFair returns a k-fair central daemon; k < 1 panics.
func NewKFair(k int) *KFair {
	if k < 1 {
		panic(fmt.Sprintf("sched: k-fair window %d < 1", k))
	}
	return &KFair{k: k}
}

// Name implements Daemon.
func (d *KFair) Name() string { return fmt.Sprintf("k-fair:%d", d.k) }

// Select implements Daemon.
func (d *KFair) Select(privileged []int, _ *xrand.Rand) []int {
	d.step++
	if top := privileged[len(privileged)-1]; top >= len(d.seen) {
		seen := make([]int, top+1)
		run := make([]int, top+1)
		copy(seen, d.seen)
		copy(run, d.run)
		d.seen, d.run = seen, run
	}
	pick, best := 0, 0
	for i, u := range privileged {
		if d.seen[u] == d.step-1 {
			d.run[u]++
		} else {
			d.run[u] = 1
		}
		d.seen[u] = d.step
		if d.run[u] >= d.k && d.run[u] > best {
			best, pick = d.run[u], i
		}
	}
	d.run[privileged[pick]] = 0
	return privileged[pick : pick+1]
}

// Stateful is implemented by daemons whose selection depends on schedule
// history (the round-robin cursor, k-fair's starvation counters).
// Checkpointing callers persist this state next to the selection stream so
// a resumed schedule continues exactly where it stopped; stateless daemons
// need only the stream.
type Stateful interface {
	Daemon
	// MarshalState serializes the daemon's schedule-history state.
	MarshalState() ([]byte, error)
	// UnmarshalState restores state produced by MarshalState on a daemon of
	// the same name.
	UnmarshalState(data []byte) error
}

var (
	_ Stateful = (*RoundRobin)(nil)
	_ Stateful = (*KFair)(nil)
)

// roundRobinState is the round-robin daemon's serialized form.
type roundRobinState struct {
	Cursor int `json:"cursor"`
}

// MarshalState implements Stateful.
func (d *RoundRobin) MarshalState() ([]byte, error) {
	return json.Marshal(roundRobinState{Cursor: d.cursor})
}

// UnmarshalState implements Stateful.
func (d *RoundRobin) UnmarshalState(data []byte) error {
	var st roundRobinState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("sched: round-robin state: %w", err)
	}
	d.cursor = st.Cursor
	return nil
}

// kFairState is the k-fair daemon's serialized form. K is stored for
// validation: restoring into a daemon with a different window would
// silently change the fairness boundary.
type kFairState struct {
	K    int   `json:"k"`
	Step int   `json:"step"`
	Seen []int `json:"seen,omitempty"`
	Run  []int `json:"run,omitempty"`
}

// MarshalState implements Stateful.
func (d *KFair) MarshalState() ([]byte, error) {
	return json.Marshal(kFairState{K: d.k, Step: d.step, Seen: d.seen, Run: d.run})
}

// UnmarshalState implements Stateful.
func (d *KFair) UnmarshalState(data []byte) error {
	var st kFairState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("sched: k-fair state: %w", err)
	}
	if st.K != d.k {
		return fmt.Errorf("sched: k-fair state has window %d, daemon has %d", st.K, d.k)
	}
	if len(st.Seen) != len(st.Run) {
		return fmt.Errorf("sched: k-fair state tracks %d seen vs %d run entries", len(st.Seen), len(st.Run))
	}
	d.step = st.Step
	d.seen = st.Seen
	d.run = st.Run
	return nil
}

// DaemonNames lists the selectable daemon models in presentation order.
func DaemonNames() []string {
	return []string{
		"synchronous", "central-adversarial", "central-random",
		"distributed-random", "round-robin", "k-fair:4",
	}
}

// defaultKFairWindow is the window the bare "k-fair" name selects.
const defaultKFairWindow = 4

// DaemonByName returns a fresh daemon instance for the given name (stateful
// daemons like round-robin and k-fair must not be shared across runs).
// "k-fair" takes an optional window suffix: "k-fair:8" is the 8-fair
// central daemon, bare "k-fair" defaults to k = 4.
func DaemonByName(name string) (Daemon, error) {
	if name == "k-fair" {
		return NewKFair(defaultKFairWindow), nil
	}
	if rest, ok := strings.CutPrefix(name, "k-fair:"); ok {
		k, err := strconv.Atoi(rest)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("sched: bad k-fair window %q (want a positive integer)", rest)
		}
		return NewKFair(k), nil
	}
	switch name {
	case "synchronous":
		return Synchronous{}, nil
	case "central-adversarial":
		return CentralAdversarial{}, nil
	case "central-random":
		return CentralRandom{}, nil
	case "distributed-random":
		return DistributedRandom{}, nil
	case "round-robin":
		return &RoundRobin{}, nil
	default:
		return nil, fmt.Errorf("sched: unknown daemon %q", name)
	}
}
