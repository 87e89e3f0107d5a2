package mis

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ssmis/internal/batch"
	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/sched"
	"ssmis/internal/xrand"
)

// The checkpoint contract: pausing at any round and restoring must continue
// the EXACT execution an uninterrupted run produces — same colors every
// subsequent round, same stabilization round, same bit counts.
func TestCheckpointRoundTripTwoState(t *testing.T) {
	g := graph.Gnp(100, 0.05, xrand.New(111))
	full := NewTwoState(g, WithSeed(7))
	paused := NewTwoState(g, WithSeed(7))
	const pauseAt = 5
	for i := 0; i < pauseAt; i++ {
		full.Step()
		paused.Step()
	}
	cp, err := paused.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTwoState(g, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Round() != pauseAt {
		t.Fatalf("restored round %d, want %d", restored.Round(), pauseAt)
	}
	for i := 0; i < 5000 && !full.Stabilized(); i++ {
		full.Step()
		restored.Step()
		for u := 0; u < g.N(); u++ {
			if full.Black(u) != restored.Black(u) {
				t.Fatalf("round %d: restored run diverged at %d", full.Round(), u)
			}
		}
	}
	if !restored.Stabilized() || full.Round() != restored.Round() {
		t.Fatal("restored run stabilized differently")
	}
	if full.RandomBits() != restored.RandomBits() {
		t.Fatalf("bit accounting differs: %d vs %d", full.RandomBits(), restored.RandomBits())
	}
}

func TestCheckpointRoundTripThreeState(t *testing.T) {
	g := graph.Gnp(80, 0.08, xrand.New(112))
	full := NewThreeState(g, WithSeed(9))
	paused := NewThreeState(g, WithSeed(9))
	for i := 0; i < 4; i++ {
		full.Step()
		paused.Step()
	}
	cp, err := paused.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreThreeState(g, cp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		full.Step()
		restored.Step()
		for u := 0; u < g.N(); u++ {
			if full.State(u) != restored.State(u) {
				t.Fatalf("round %d: diverged at %d", full.Round(), u)
			}
		}
	}
}

func TestCheckpointRoundTripThreeColor(t *testing.T) {
	g := graph.Gnp(60, 0.15, xrand.New(113))
	full := NewThreeColor(g, WithSeed(11), WithSwitchZetaLog2(5))
	paused := NewThreeColor(g, WithSeed(11), WithSwitchZetaLog2(5))
	for i := 0; i < 7; i++ {
		full.Step()
		paused.Step()
	}
	cp, err := paused.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreThreeColor(g, decoded)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		full.Step()
		restored.Step()
		for u := 0; u < g.N(); u++ {
			if full.ColorOf(u) != restored.ColorOf(u) {
				t.Fatalf("round %d: colors diverged at %d", full.Round(), u)
			}
			if full.SwitchLevel(u) != restored.SwitchLevel(u) {
				t.Fatalf("round %d: levels diverged at %d", full.Round(), u)
			}
		}
	}
	if full.RandomBits() != restored.RandomBits() {
		t.Fatalf("bits differ: %d vs %d", full.RandomBits(), restored.RandomBits())
	}
}

func TestCheckpointValidation(t *testing.T) {
	g := graph.Path(5)
	p := NewTwoState(g, WithSeed(1))
	cp, _ := p.Checkpoint()

	if _, err := RestoreTwoState(graph.Path(6), cp); err == nil {
		t.Fatal("order mismatch accepted")
	}
	if _, err := RestoreThreeState(g, cp); err == nil {
		t.Fatal("wrong process kind accepted")
	}
	if _, err := DecodeCheckpoint([]byte("{")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	bad := *cp
	bad.Rngs = bad.Rngs[:2]
	if _, err := RestoreTwoState(g, &bad); err == nil {
		t.Fatal("truncated rng list accepted")
	}
	p3 := NewThreeState(g, WithSeed(1))
	cp3, _ := p3.Checkpoint()
	cp3.States[0] = 99
	if _, err := RestoreThreeState(g, cp3); !errors.Is(err, ErrStateValue) {
		t.Fatalf("invalid state value: %v, want ErrStateValue", err)
	}
}

// A 3-color checkpoint whose color or switch level lies outside the
// process's state space is rejected with the typed error, not a panic in
// the switch (misrun -resume reads such files).
func TestThreeColorCheckpointRejectsOutOfRange(t *testing.T) {
	g := graph.Path(6)
	p := NewThreeColor(g, WithSeed(3))
	p.Step()
	for _, tc := range []struct {
		name   string
		damage func(cp *Checkpoint)
	}{
		{"color", func(cp *Checkpoint) { cp.States[2] = 7 }},
		{"switch level", func(cp *Checkpoint) { cp.Levels[4] = 9 }},
	} {
		cp, err := p.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		tc.damage(cp)
		if _, err := RestoreThreeColor(g, cp); !errors.Is(err, ErrStateValue) {
			t.Fatalf("%s: restore returned %v, want ErrStateValue", tc.name, err)
		}
	}
}

func TestCheckpointRestoredOptionsPreserved(t *testing.T) {
	// Black bias travels with the checkpoint (it shapes the coin stream).
	g := graph.Complete(24)
	full := NewTwoState(g, WithSeed(3), WithBlackBias(0.3))
	paused := NewTwoState(g, WithSeed(3), WithBlackBias(0.3))
	full.Step()
	paused.Step()
	cp, _ := paused.Checkpoint()
	restored, err := RestoreTwoState(g, cp)
	if err != nil {
		t.Fatal(err)
	}
	rFull := Run(full, 100000)
	rRest := Run(restored, 100000)
	if rFull != rRest {
		t.Fatalf("biased runs diverged after restore: %+v vs %+v", rFull, rRest)
	}
}

// A biased 3-state run must survive a checkpoint round-trip: the bias shapes
// every coin, so dropping it silently diverges the restored execution.
func TestCheckpointThreeStatePreservesBias(t *testing.T) {
	g := graph.Gnp(80, 0.08, xrand.New(41))
	full := NewThreeState(g, WithSeed(5), WithBlackBias(0.9))
	paused := NewThreeState(g, WithSeed(5), WithBlackBias(0.9))
	for i := 0; i < 4; i++ {
		full.Step()
		paused.Step()
	}
	cp, err := paused.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreThreeState(g, cp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		full.Step()
		restored.Step()
		for u := 0; u < g.N(); u++ {
			if full.State(u) != restored.State(u) {
				t.Fatalf("round %d: restored biased run diverged at %d", full.Round(), u)
			}
		}
	}
	if full.RandomBits() != restored.RandomBits() {
		t.Fatalf("bit accounting diverged: %d vs %d", full.RandomBits(), restored.RandomBits())
	}
}

// Malformed checkpoints must fail with errors, not construction panics, and
// a legacy zero bias means the default fair coin.
func TestCheckpointBiasValidation(t *testing.T) {
	g := graph.Path(4)
	p := NewTwoState(g, WithSeed(1))
	cp, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp.BlackBias = 0 // legacy checkpoints predate the field
	q, err := RestoreTwoState(g, cp)
	if err != nil {
		t.Fatalf("legacy zero bias rejected: %v", err)
	}
	Run(q, 1000)
	for _, bad := range []float64{-0.5, 1, 1.5} {
		cp.BlackBias = bad
		if _, err := RestoreTwoState(g, cp); err == nil {
			t.Fatalf("bias %v accepted", bad)
		}
	}
}

func TestCheckpointBiasRejectsNaN(t *testing.T) {
	g := graph.Path(4)
	p := NewTwoState(g, WithSeed(1))
	cp, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp.BlackBias = math.NaN()
	if _, err := RestoreTwoState(g, cp); err == nil {
		t.Fatal("NaN bias accepted")
	}
}

// A checkpoint taken mid-daemon-run must resume the SCHEDULE coin-for-coin:
// the restored process's subsequent daemon selections (and therefore steps,
// moves, and final states) equal the uninterrupted run's.
func TestCheckpointDaemonResume(t *testing.T) {
	for _, procKind := range []string{"2state", "3state"} {
		for _, dname := range []string{"central-random", "distributed-random"} {
			g := graph.Gnp(60, 0.08, xrand.New(313))
			mk := func() DaemonRunner {
				if procKind == "2state" {
					return NewTwoState(g, WithSeed(5))
				}
				return NewThreeState(g, WithSeed(5))
			}
			newDaemon := func() sched.Daemon {
				d, err := sched.DaemonByName(dname)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			full, paused := mk(), mk()
			fullD, pausedD := newDaemon(), newDaemon()
			const pauseAt = 5
			for i := 0; i < pauseAt; i++ {
				full.DaemonStep(fullD)
				paused.DaemonStep(pausedD)
			}
			if paused.Stabilized() {
				t.Fatalf("%s/%s: stabilized before the pause; deepen the test graph", procKind, dname)
			}
			cp, err := paused.(interface{ Checkpoint() (*Checkpoint, error) }).Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if cp.SchedRng == nil || cp.Steps != pauseAt {
				t.Fatalf("%s/%s: checkpoint sched stream missing (steps=%d)", procKind, dname, cp.Steps)
			}
			blob, err := cp.Encode()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeCheckpoint(blob)
			if err != nil {
				t.Fatal(err)
			}
			var restored DaemonRunner
			if procKind == "2state" {
				restored, err = RestoreTwoState(g, decoded)
			} else {
				restored, err = RestoreThreeState(g, decoded)
			}
			if err != nil {
				t.Fatal(err)
			}
			if restored.Steps() != pauseAt {
				t.Fatalf("%s/%s: restored steps %d", procKind, dname, restored.Steps())
			}
			// The daemon object itself is stateless across steps for the
			// random daemons used here; the selection stream carries the
			// schedule. Continue both runs in lockstep.
			restoredD := newDaemon()
			cap := DefaultDaemonStepCap(g.N())
			fullSteps, fullOK := full.DaemonRun(fullD, cap)
			restSteps, restOK := restored.DaemonRun(restoredD, cap)
			if fullOK != restOK || fullSteps != restSteps {
				t.Fatalf("%s/%s: resumed run took %d steps (ok=%v), uninterrupted %d (ok=%v)",
					procKind, dname, restSteps, restOK, fullSteps, fullOK)
			}
			if full.Moves() != restored.Moves() || full.RandomBits() != restored.RandomBits() {
				t.Fatalf("%s/%s: accounting diverged: moves %d vs %d, bits %d vs %d",
					procKind, dname, full.Moves(), restored.Moves(),
					full.RandomBits(), restored.RandomBits())
			}
			for u := 0; u < g.N(); u++ {
				if full.Black(u) != restored.Black(u) {
					t.Fatalf("%s/%s: final states diverged at %d", procKind, dname, u)
				}
			}
		}
	}
}

// A batch sweep whose every run is checkpointed mid-flight, serialized,
// restored and finished on the batch pool must reproduce the uninterrupted
// sweep exactly — per-seed rounds, bit totals and final colors, for all
// three processes — and identically at workers=1 and workers=8. This is
// the batch-sweep face of the checkpoint contract: resume composes with
// the scheduler, not just with a single synchronous run.
func TestCheckpointBatchSweepResume(t *testing.T) {
	g := graph.Gnp(80, 0.06, xrand.New(77))
	limit := 8 * DefaultRoundCap(g.N())

	type outcome struct {
		rounds int
		bits   int64
		black  string
	}
	finish := func(p Process) outcome {
		res := Run(p, limit)
		if !res.Stabilized {
			return outcome{rounds: -1}
		}
		var b strings.Builder
		for u := 0; u < g.N(); u++ {
			if p.Black(u) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return outcome{rounds: res.Rounds, bits: res.RandomBits, black: b.String()}
	}

	kinds := []struct {
		name    string
		mk      func(seed uint64) Process
		restore func(cp *Checkpoint) (Process, error)
	}{
		{"2state",
			func(seed uint64) Process { return NewTwoState(g, WithSeed(seed)) },
			func(cp *Checkpoint) (Process, error) { return RestoreTwoState(g, cp) }},
		{"3state",
			func(seed uint64) Process { return NewThreeState(g, WithSeed(seed)) },
			func(cp *Checkpoint) (Process, error) { return RestoreThreeState(g, cp) }},
		{"3color",
			func(seed uint64) Process { return NewThreeColor(g, WithSeed(seed)) },
			func(cp *Checkpoint) (Process, error) { return RestoreThreeColor(g, cp) }},
	}

	seeds := make([]uint64, 10)
	for i := range seeds {
		seeds[i] = uint64(100 + i)
	}
	for _, kind := range kinds {
		want := make([]outcome, len(seeds))
		for i, s := range seeds {
			want[i] = finish(kind.mk(s))
			if want[i].rounds < 0 {
				t.Fatalf("%s seed %d: uninterrupted run hit the cap", kind.name, s)
			}
		}
		for _, workers := range []int{1, 8} {
			pool := batch.NewPool(workers)
			got := make([]outcome, 0, len(seeds))
			pool.Submit([]batch.Shard{{
				Seeds: seeds,
				Run: func(_ *engine.RunContext, _ *graph.Graph, _ int, seed uint64) batch.Outcome {
					p := kind.mk(seed)
					const pauseAt = 3
					for i := 0; i < pauseAt; i++ {
						p.Step()
					}
					cp, err := p.(interface{ Checkpoint() (*Checkpoint, error) }).Checkpoint()
					if err != nil {
						return batch.Outcome{Failed: true}
					}
					blob, err := cp.Encode()
					if err != nil {
						return batch.Outcome{Failed: true}
					}
					decoded, err := DecodeCheckpoint(blob)
					if err != nil {
						return batch.Outcome{Failed: true}
					}
					restored, err := kind.restore(decoded)
					if err != nil {
						return batch.Outcome{Failed: true}
					}
					return batch.Outcome{Extra: finish(restored)}
				},
			}}, func(o batch.Outcome) {
				if o.Failed {
					got = append(got, outcome{rounds: -2})
					return
				}
				got = append(got, o.Extra.(outcome))
			}).Wait()
			pool.Close()
			for i := range seeds {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d seed %d: resumed outcome %+v != uninterrupted %+v",
						kind.name, workers, seeds[i], got[i], want[i])
				}
			}
		}
	}
}

// Legacy checkpoints (no schedRng) restore with a nil stream: a subsequent
// daemon run derives a fresh stream instead of failing.
func TestCheckpointWithoutSchedStream(t *testing.T) {
	g := graph.Gnp(40, 0.1, xrand.New(99))
	p := NewTwoState(g, WithSeed(3))
	p.Step()
	cp, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.SchedRng != nil {
		t.Fatal("synchronous-only run serialized a scheduler stream")
	}
	restored, err := RestoreTwoState(g, cp)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sched.DaemonByName("central-random")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := restored.DaemonRun(d, 0); !ok {
		t.Fatal("restored run did not stabilize under daemon")
	}
}

// A checkpoint taken BEFORE the first daemon step carries no scheduler
// stream; the stream is derived lazily after restore — from the
// checkpointed master seed, so the resumed schedule equals the schedule
// the uninterrupted run would have drawn.
func TestCheckpointSeedPreservedForLazyStreams(t *testing.T) {
	g := graph.Gnp(80, 0.05, xrand.New(21))
	full := NewTwoState(g, WithSeed(42))
	paused := NewTwoState(g, WithSeed(42))
	for i := 0; i < 3; i++ { // synchronous prefix only: no daemon stream yet
		full.Step()
		paused.Step()
	}
	cp, err := paused.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.SchedRng != nil {
		t.Fatal("checkpoint before the first daemon step carries a stream")
	}
	restored, err := RestoreTwoState(g, cp)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := sched.CentralRandom{}, sched.CentralRandom{}
	for steps := 0; steps < 100000 && !full.Stabilized(); steps++ {
		if !full.DaemonStep(d1) {
			break
		}
		restored.DaemonStep(d2)
		for u := 0; u < g.N(); u++ {
			if full.Black(u) != restored.Black(u) {
				t.Fatalf("step %d: lazily derived schedule diverged at vertex %d", full.Steps(), u)
			}
		}
	}
	if full.Moves() != restored.Moves() || full.Steps() != restored.Steps() {
		t.Fatalf("accounting diverged: moves %d/%d steps %d/%d",
			full.Moves(), restored.Moves(), full.Steps(), restored.Steps())
	}
}
