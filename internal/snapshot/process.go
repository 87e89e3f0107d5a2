package snapshot

// Process-execution snapshots: the payload behind internal/mis's
// Checkpoint/Restore API, carrying everything the shared engine owns for
// one run — state vector, per-vertex RNG streams, round/bit accounting,
// coverage stamps (the local-times instrument), the daemon scheduler
// stream, and the 3-color switch state. The graph itself is not embedded
// (graphs are large and reconstructible from their own seeds or
// interchange files); restore takes the graph and verifies its order.

import (
	"fmt"

	"ssmis/internal/engine"
	"ssmis/internal/xrand"
)

// Process is a serialized process execution state.
type Process struct {
	// Process identifies the family: "2-state", "3-state", "3-color".
	Process string `json:"process"`
	// N is the graph order the snapshot was taken on.
	N     int   `json:"n"`
	Round int   `json:"round"`
	Bits  int64 `json:"bits"`
	// States holds the per-vertex state: for 2-state 0=white/1=black; for
	// 3-state the TriState values; for 3-color the Color values.
	States []uint8 `json:"states"`
	// Levels holds the 3-color switch levels (empty otherwise).
	Levels []uint8 `json:"levels,omitempty"`
	// ClockBits is the 3-color switch's separate bit accounting.
	ClockBits int64 `json:"clockBits,omitempty"`
	// Rngs holds each vertex's marshaled random stream.
	Rngs [][]byte `json:"rngs"`
	// BlackBias and ZetaLog2 reproduce the options that shape randomness.
	BlackBias float64 `json:"blackBias"`
	ZetaLog2  uint    `json:"zetaLog2,omitempty"`
	// Seed is the master seed the execution was created with. Auxiliary
	// streams derived lazily AFTER a restore (the daemon selection stream
	// of a process that had not yet taken a daemon step) split from it, so
	// they equal the streams the uninterrupted run would have derived.
	// Always serialized: seed 0 is a legal master seed, so there is no
	// "absent" sentinel.
	Seed uint64 `json:"seed"`
	// SchedRng is the daemon scheduler's selection stream, present once the
	// process has taken a daemon step; restoring it resumes a
	// daemon-scheduled execution coin-for-coin (the schedule after restore
	// equals the schedule an uninterrupted run would have drawn). Steps and
	// Moves carry the matching daemon accounting.
	SchedRng []byte `json:"schedRng,omitempty"`
	Steps    int    `json:"steps,omitempty"`
	Moves    int    `json:"moves,omitempty"`
	// CoveredAt carries the engine's per-vertex first-cover stamps (-1 =
	// not yet covered) — the local stabilization times — so a resumed run's
	// local-times instrument matches an uninterrupted one exactly.
	CoveredAt []int32 `json:"coveredAt,omitempty"`
	// DaemonName and DaemonState preserve a stateful daemon's
	// schedule-history (sched.Stateful: the round-robin cursor, k-fair's
	// starvation counters). The process does not own the daemon, so these
	// are filled by the checkpointing caller (cmd/misrun's -checkpoint);
	// stateless daemons leave them empty.
	DaemonName  string `json:"daemonName,omitempty"`
	DaemonState []byte `json:"daemonState,omitempty"`
}

// Encode renders the snapshot in the versioned envelope.
func (p *Process) Encode() ([]byte, error) { return Encode(KindProcess, p) }

// DecodeProcess parses an encoded process snapshot, rejecting damaged or
// version-skewed data.
func DecodeProcess(data []byte) (*Process, error) {
	var p Process
	if err := Decode(data, KindProcess, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// CaptureEngine fills the engine-owned fields of the snapshot from a live
// core: round/bit accounting, daemon step/move accounting, coverage stamps,
// the per-vertex streams, and (when non-nil) the daemon selection stream.
// The caller fills the process-specific fields (name, state encoding,
// switch levels, options).
func (p *Process) CaptureEngine(core *engine.Core, schedRng *xrand.Rand) error {
	p.N = core.Graph().N()
	p.Round = core.Round()
	p.Bits = core.Bits()
	p.Steps = core.Steps()
	p.Moves = core.Moves()
	p.CoveredAt = append([]int32(nil), core.CoveredAt()...)
	rngs, err := MarshalRngs(core.Rngs())
	if err != nil {
		return err
	}
	p.Rngs = rngs
	if schedRng != nil {
		b, err := schedRng.MarshalBinary()
		if err != nil {
			return fmt.Errorf("snapshot: marshal scheduler rng: %w", err)
		}
		p.SchedRng = b
	}
	return nil
}

// RestoreEngine replays the engine-owned accounting into a freshly
// constructed core (round/bits, daemon steps/moves, coverage stamps) and
// rebuilds the daemon selection stream. The returned stream is nil when the
// snapshot carries none, in which case a later daemon step derives a fresh
// stream as usual.
func (p *Process) RestoreEngine(core *engine.Core) (*xrand.Rand, error) {
	core.SetAccounting(p.Round, p.Bits)
	core.SetDaemonAccounting(p.Steps, p.Moves)
	if p.CoveredAt != nil {
		if err := core.SetCoverageStamps(p.CoveredAt); err != nil {
			return nil, err
		}
	}
	if p.SchedRng == nil {
		return nil, nil
	}
	r := xrand.New(0)
	if err := r.UnmarshalBinary(p.SchedRng); err != nil {
		return nil, fmt.Errorf("snapshot: scheduler rng: %w", err)
	}
	return r, nil
}

// MarshalRngs serializes a per-vertex stream array.
func MarshalRngs(rngs []*xrand.Rand) ([][]byte, error) {
	out := make([][]byte, len(rngs))
	for i, r := range rngs {
		b, err := r.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("snapshot: marshal rng %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}

// UnmarshalRngs rebuilds a per-vertex stream array of the expected length.
func UnmarshalRngs(blobs [][]byte, n int) ([]*xrand.Rand, error) {
	if len(blobs) != n {
		return nil, fmt.Errorf("snapshot: %d rng states, want %d", len(blobs), n)
	}
	out := make([]*xrand.Rand, n)
	for i, b := range blobs {
		r := xrand.New(0)
		if err := r.UnmarshalBinary(b); err != nil {
			return nil, fmt.Errorf("snapshot: rng %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}
