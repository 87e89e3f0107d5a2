// Package sched implements the sequential self-stabilizing MIS algorithm of
// Shukla et al. and Hedetniemi et al. ([28, 20] in the paper) together with
// the daemon (scheduler) models it is analyzed under. The paper presents the
// 2-state MIS process as the randomized synchronous parallelization of this
// algorithm, so the package exists to reproduce the surrounding claims:
//
//   - under a central daemon the deterministic rule stabilizes after every
//     vertex moves at most twice (≤ 2n moves);
//   - under the synchronous daemon the deterministic rule can livelock
//     (two adjacent white vertices flip to black and back forever) — the
//     reason the parallel process must randomize. That rule under that
//     daemon is a map on the black mask whose fixed points are the MISes,
//     and a symmetric threshold network updated in parallel ends in a fixed
//     point or a 2-cycle (Goles and Olivos, 1980), so Sequential.Run ends
//     such a run at its first repeated mask instead of at the step cap;
//   - randomizing the moves restores stabilization with probability 1 under
//     any daemon ([28], [31]), and under the synchronous daemon the result
//     is exactly the paper's 2-state process.
package sched

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"ssmis/internal/graph"
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
	for _, u := range privileged {
		if u >= d.cursor {
			d.cursor = u + 1
			return []int{u}
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
	pick, best := privileged[0], 0
	for _, u := range privileged {
		if d.seen[u] == d.step-1 {
			d.run[u]++
		} else {
			d.run[u] = 1
		}
		d.seen[u] = d.step
		if d.run[u] >= d.k && d.run[u] > best {
			best, pick = d.run[u], u
		}
	}
	d.run[pick] = 0
	return []int{pick}
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

// Sequential is the two-state self-stabilizing MIS algorithm under a daemon.
// A vertex is privileged when its state is inconsistent — black with a black
// neighbor, or white with no black neighbor. A selected privileged vertex
// moves: deterministically to the consistent state (black→white,
// white→black), or, when randomized, to a uniformly random state.
type Sequential struct {
	g          *graph.Graph
	daemon     Daemon
	randomized bool
	black      []bool
	nbrBlack   []int32
	rng        *xrand.Rand
	moves      int
	steps      int
}

// Option configures a Sequential run.
type Option func(*Sequential)

// Randomized makes selected vertices move to a uniformly random state
// instead of the deterministic repair — the transformation of [28, 31].
func Randomized() Option {
	return func(s *Sequential) { s.randomized = true }
}

// WithInitialBlack sets the (adversarial) initial configuration; the slice
// is copied. Default: uniformly random.
func WithInitialBlack(black []bool) Option {
	return func(s *Sequential) { s.black = append([]bool(nil), black...) }
}

// NewSequential creates a sequential algorithm instance under the given
// daemon with master seed seed.
func NewSequential(g *graph.Graph, daemon Daemon, seed uint64, opts ...Option) *Sequential {
	s := &Sequential{
		g:        g,
		daemon:   daemon,
		nbrBlack: make([]int32, g.N()),
		rng:      xrand.New(seed),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.black == nil {
		s.black = make([]bool, g.N())
		for u := range s.black {
			s.black[u] = s.rng.Bit()
		}
	} else if len(s.black) != g.N() {
		panic(fmt.Sprintf("sched: initial mask length %d != n %d", len(s.black), g.N()))
	}
	s.recount()
	return s
}

func (s *Sequential) recount() {
	for u := range s.nbrBlack {
		s.nbrBlack[u] = 0
	}
	for u, b := range s.black {
		if b {
			for _, v := range s.g.Neighbors(u) {
				s.nbrBlack[v]++
			}
		}
	}
}

// privileged returns the sorted list of inconsistent vertices.
func (s *Sequential) privileged() []int {
	var out []int
	for u, b := range s.black {
		if b == (s.nbrBlack[u] > 0) {
			out = append(out, u)
		}
	}
	return out
}

// Privileged returns the current number of inconsistent vertices.
func (s *Sequential) Privileged() int { return len(s.privileged()) }

// Stabilized reports whether no vertex is privileged (the black set is then
// an MIS).
func (s *Sequential) Stabilized() bool { return len(s.privileged()) == 0 }

// Black reports the color of u.
func (s *Sequential) Black(u int) bool { return s.black[u] }

// Moves returns the total number of vertex moves executed.
func (s *Sequential) Moves() int { return s.moves }

// Steps returns the number of daemon steps executed.
func (s *Sequential) Steps() int { return s.steps }

// Step lets the daemon select and move privileged vertices once. It returns
// false when no vertex is privileged (stabilized).
func (s *Sequential) Step() bool {
	priv := s.privileged()
	if len(priv) == 0 {
		return false
	}
	selected := s.daemon.Select(priv, s.rng)
	// All selected vertices read the current configuration, then move
	// simultaneously (matters only for non-central daemons).
	flips := make([]int, 0, len(selected))
	for _, u := range selected {
		var wantBlack bool
		if s.randomized {
			wantBlack = s.rng.Bit()
		} else {
			wantBlack = !s.black[u] // deterministic repair: flip
		}
		s.moves++
		if wantBlack != s.black[u] {
			flips = append(flips, u)
		}
	}
	for _, u := range flips {
		nowBlack := !s.black[u]
		s.black[u] = nowBlack
		delta := int32(1)
		if !nowBlack {
			delta = -1
		}
		for _, v := range s.g.Neighbors(u) {
			s.nbrBlack[v] += delta
		}
	}
	s.steps++
	return true
}

// Run executes daemon steps until stabilization or maxSteps; it reports the
// steps taken and whether the algorithm stabilized.
//
// Run may return false before maxSteps: with the deterministic rule under
// the Synchronous daemon it stops at the first repeated black mask. There
// the next mask is a function of the current one alone (x′(u) = [no
// neighbor of u is black]), and every mask the run stepped from had a
// privileged vertex, so a repeat proves a cycle that never stabilizes.
// Brent's cycle check (Brent, 1980) finds it with one saved mask: each step
// compares the mask with the saved copy, which is replaced whenever the
// steps since the last save reach the current power of two, and the power
// doubles. No other run needs or admits the proof: central daemons
// stabilize the deterministic rule within 2n moves, and every other daemon
// or the randomized rule draws coins or depends on schedule history, so
// those runs go to stabilization or maxSteps as before.
func (s *Sequential) Run(maxSteps int) (steps int, stabilized bool) {
	var saved []bool
	if _, sync := s.daemon.(Synchronous); sync && !s.randomized {
		saved = slices.Clone(s.black)
	}
	power, lam := 1, 0
	for s.steps < maxSteps {
		if !s.Step() {
			return s.steps, true
		}
		if saved == nil {
			continue
		}
		if slices.Equal(saved, s.black) {
			return s.steps, false
		}
		if lam++; lam == power {
			copy(saved, s.black)
			power, lam = 2*power, 0
		}
	}
	return s.steps, s.Stabilized()
}
