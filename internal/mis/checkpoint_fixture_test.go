package mis

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/sched"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// The checkpoints under testdata were written, at master seed 11 on
// fixtureGraph, by an engine that ran each process over a degree-bucketed
// relabeling of the graph; on this graph that relabeling moves 142 of the
// 200 ids. Checkpoints store every per-vertex field in the caller's ids, so
// each file must still decode as format version 1, restore with default
// options, and replay an uninterrupted default run of the same seed:
//
//   - twostate-degree-order.ckpt: a 2-state run saved after 5 rounds;
//   - threestate-central-random-degree-order.ckpt: a 3-state run saved
//     after 120 central-random daemon steps, so it carries the scheduler
//     stream;
//   - threecolor-degree-order.ckpt: a 3-color run saved after 200 rounds,
//     so it carries switch levels.

func fixtureGraph() *graph.Graph { return graph.ChungLu(200, 2.0, 8, xrand.New(5)) }

// readFixture reads a checkpoint file from testdata, checks that its
// envelope is format version 1 and decodes it.
func readFixture(t *testing.T, name string) *Checkpoint {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	// The envelope is the 8-byte magic, then the little-endian version.
	if len(data) < 12 || binary.LittleEndian.Uint32(data[8:12]) != 1 {
		t.Fatalf("%s: not a version-1 snapshot", name)
	}
	c, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c
}

// fixtureProc is what the lockstep comparison reads from a process.
type fixtureProc interface {
	Process
	coreOf() *engine.Core
}

func (p *TwoState) coreOf() *engine.Core   { return p.core }
func (p *ThreeState) coreOf() *engine.Core { return p.core }
func (p *ThreeColor) coreOf() *engine.Core { return p.core }

// lockstepFixture steps ref (a fresh default run of the checkpoint's seed)
// to the checkpoint's position, then steps got (the restored run) and ref
// together until both stabilize, comparing after every step the
// per-vertex state, RandomBits, Round, the coverage stamps and the daemon
// accounting.
func lockstepFixture(t *testing.T, c *Checkpoint, got, ref fixtureProc,
	step func(fixtureProc), stateOf func(p fixtureProc, u int) int) {
	t.Helper()
	if got.Round() != c.Round {
		t.Fatalf("restored at round %d, checkpoint says %d", got.Round(), c.Round)
	}
	for ref.Round() < c.Round {
		step(ref)
	}
	n := got.N()
	compare := func() {
		t.Helper()
		if got.Round() != ref.Round() || got.RandomBits() != ref.RandomBits() {
			t.Fatalf("round/bits (%d, %d), uninterrupted (%d, %d)",
				got.Round(), got.RandomBits(), ref.Round(), ref.RandomBits())
		}
		gc, rc := got.coreOf(), ref.coreOf()
		if gc.Steps() != rc.Steps() || gc.Moves() != rc.Moves() {
			t.Fatalf("round %d: steps/moves (%d, %d), uninterrupted (%d, %d)",
				got.Round(), gc.Steps(), gc.Moves(), rc.Steps(), rc.Moves())
		}
		for u := 0; u < n; u++ {
			if stateOf(got, u) != stateOf(ref, u) {
				t.Fatalf("round %d: state of %d is %d, uninterrupted %d",
					got.Round(), u, stateOf(got, u), stateOf(ref, u))
			}
			if gc.CoveredAt()[u] != rc.CoveredAt()[u] {
				t.Fatalf("round %d: coverage stamp of %d is %d, uninterrupted %d",
					got.Round(), u, gc.CoveredAt()[u], rc.CoveredAt()[u])
			}
		}
	}
	compare()
	if got.Stabilized() {
		t.Fatal("the checkpoint was saved after stabilization")
	}
	for limit := 0; !got.Stabilized() || !ref.Stabilized(); limit++ {
		if limit == 100000 {
			t.Fatalf("no stabilization by round %d", got.Round())
		}
		step(got)
		step(ref)
		compare()
	}
	if err := verify.MIS(fixtureGraph(), got.Black); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointFixturesRestore(t *testing.T) {
	g := fixtureGraph()
	syncStep := func(p fixtureProc) { p.Step() }

	t.Run("2-state", func(t *testing.T) {
		c := readFixture(t, "twostate-degree-order.ckpt")
		got, err := RestoreTwoState(g, c)
		if err != nil {
			t.Fatal(err)
		}
		lockstepFixture(t, c, got, NewTwoState(g, WithSeed(c.Seed)), syncStep,
			func(p fixtureProc, u int) int {
				if p.Black(u) {
					return 1
				}
				return 0
			})
	})

	t.Run("3-state/central-random", func(t *testing.T) {
		c := readFixture(t, "threestate-central-random-degree-order.ckpt")
		if c.SchedRng == nil || c.Steps != c.Round {
			t.Fatalf("not a daemon checkpoint: steps %d, round %d", c.Steps, c.Round)
		}
		got, err := RestoreThreeState(g, c)
		if err != nil {
			t.Fatal(err)
		}
		lockstepFixture(t, c, got, NewThreeState(g, WithSeed(c.Seed)),
			func(p fixtureProc) {
				if !p.(*ThreeState).DaemonStep(sched.CentralRandom{}) {
					t.Fatal("daemon step with no privileged vertex before stabilization")
				}
			},
			func(p fixtureProc, u int) int { return int(p.(*ThreeState).State(u)) })
	})

	t.Run("3-color", func(t *testing.T) {
		c := readFixture(t, "threecolor-degree-order.ckpt")
		if len(c.Levels) != g.N() {
			t.Fatalf("checkpoint carries %d switch levels", len(c.Levels))
		}
		got, err := RestoreThreeColor(g, c)
		if err != nil {
			t.Fatal(err)
		}
		lockstepFixture(t, c, got, NewThreeColor(g, WithSeed(c.Seed)), syncStep,
			func(p fixtureProc, u int) int {
				tc := p.(*ThreeColor)
				return int(tc.ColorOf(u))<<8 | int(tc.SwitchLevel(u))
			})
	})
}
