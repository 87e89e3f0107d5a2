package engine

import (
	"fmt"
	"testing"

	"ssmis/internal/engine/kernel"
	"ssmis/internal/graph"
	"ssmis/internal/sched"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// testProg is the 2-state MIS rule (Definition 4) as a lane program,
// restated locally so the engine package tests do not depend on
// internal/mis: codes {white, black}, activity ¬(black ⊕ hasBlackNbr), and
// the coin as the next color.
var testProg = kernel.MustCompile(kernel.Spec{
	StateOf: [4]uint8{tWhite, tBlack, 0, 0},
	Active:  kernel.TruthTable(func(code int, a, _ bool) bool { return (code&1 == 1) == a }),
	Touched: kernel.TruthTable(func(code int, a, _ bool) bool { return (code&1 == 1) == a }),
	CoinHi:  [4]uint8{1, 1, 0, 0},
	CoinLo:  [4]uint8{0, 0, 0, 0},
})

const (
	tWhite uint8 = 1
	tBlack uint8 = 2
)

// testInit returns the initial colors and per-vertex streams of a test
// execution: colors from the seed's init stream, vertex u's stream
// master.Split(u). With a context both are leased from it.
func testInit(n int, seed uint64, ctx *RunContext) ([]uint8, []*xrand.Rand) {
	master := xrand.New(seed)
	var state []uint8
	var rngs []*xrand.Rand
	if ctx != nil {
		state, rngs = ctx.Uint8Buf(n), ctx.VertexStreams(n, master)
	} else {
		state, rngs = make([]uint8, n), make([]*xrand.Rand, n)
		for u := range rngs {
			rngs[u] = master.Split(uint64(u))
		}
	}
	init := master.Split(uint64(n) + 1)
	for u := range state {
		state[u] = tWhite
		if init.Bit() {
			state[u] = tBlack
		}
	}
	return state, rngs
}

// newTestCore builds a 2-state core on g (scratch leased from opts.Ctx when
// set); the default bias is 1/2.
func newTestCore(g *graph.Graph, seed uint64, opts Options) *Core {
	if opts.Bias == 0 {
		opts.Bias = 0.5
	}
	state, rngs := testInit(g.N(), seed, opts.Ctx)
	return New(g, testProg, nil, state, rngs, opts)
}

func statesEqual(a, b *Core) bool {
	for u, s := range a.States() {
		if b.States()[u] != s {
			return false
		}
	}
	return true
}

// refCore is Definition 4 transcribed directly — the engine-package twin of
// internal/mis's RefTwoState oracle: no counters, no lanes, no frontier.
// Every round each vertex recounts its black neighbors from the state
// vector and an active vertex redraws its color from its own stream; after
// construction and every round the stable core I_t and the first-cover
// stamps of N+(I_t) are recomputed from scratch.
type refCore struct {
	g       *graph.Graph
	state   []uint8
	rngs    []*xrand.Rand
	bias    float64
	round   int
	bits    int64
	covered []int32
}

// newRefCore mirrors newTestCore: same seed, same initial colors, its own
// copies of the same per-vertex streams.
func newRefCore(g *graph.Graph, seed uint64, bias float64) *refCore {
	if bias == 0 {
		bias = 0.5
	}
	state, rngs := testInit(g.N(), seed, nil)
	r := &refCore{g: g, state: state, rngs: rngs, bias: bias, covered: make([]int32, g.N())}
	r.restamp()
	return r
}

func (r *refCore) blackNbr(u int) bool {
	for _, v := range r.g.Neighbors(u) {
		if r.state[v] == tBlack {
			return true
		}
	}
	return false
}

func (r *refCore) active(u int) bool { return (r.state[u] == tBlack) == r.blackNbr(u) }

func (r *refCore) activeCount() int {
	c := 0
	for u := range r.state {
		if r.active(u) {
			c++
		}
	}
	return c
}

// Step is the verbatim Definition 4 round. Like Options.NoopWhenIdle, a
// round with no active vertex is a no-op.
func (r *refCore) Step() {
	if r.activeCount() == 0 {
		return
	}
	next := append([]uint8(nil), r.state...)
	for u := range r.state {
		if !r.active(u) {
			continue
		}
		var black bool
		if r.bias == 0.5 {
			black = r.rngs[u].Bit()
			r.bits++
		} else {
			black = r.rngs[u].Bernoulli(r.bias)
			r.bits += 64
		}
		next[u] = tWhite
		if black {
			next[u] = tBlack
		}
	}
	r.state = next
	r.round++
	r.stamp()
}

// stamp marks every uncovered vertex of N+(I_t) with the current round.
func (r *refCore) stamp() {
	for u := range r.state {
		if r.state[u] != tBlack || r.blackNbr(u) {
			continue
		}
		if r.covered[u] < 0 {
			r.covered[u] = int32(r.round)
		}
		for _, v := range r.g.Neighbors(u) {
			if r.covered[v] < 0 {
				r.covered[v] = int32(r.round)
			}
		}
	}
}

// restamp forgets all coverage and re-stamps at the current round — the
// semantics of Core.Rebuild after external corruption.
func (r *refCore) restamp() {
	for i := range r.covered {
		r.covered[i] = -1
	}
	r.stamp()
}

// lockstep drives an engine core and the reference together for up to
// maxRounds, requiring identical states, bits and active counts after every
// single round plus a clean integrity probe on the core, and identical
// stabilization and coverage stamps at the end.
func lockstep(t *testing.T, name string, e *Core, ref *refCore, maxRounds int) {
	t.Helper()
	for r := 0; r < maxRounds && !e.Stabilized(); r++ {
		e.Step()
		ref.Step()
		for u, s := range ref.state {
			if e.State(u) != s {
				t.Fatalf("%s: state of %d diverged at round %d", name, u, ref.round)
			}
		}
		if e.Bits() != ref.bits {
			t.Fatalf("%s: round %d bits %d vs reference %d", name, ref.round, e.Bits(), ref.bits)
		}
		if e.ActiveCount() != ref.activeCount() {
			t.Fatalf("%s: round %d active %d vs reference %d", name, ref.round, e.ActiveCount(), ref.activeCount())
		}
		if err := e.CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if !e.Stabilized() || ref.activeCount() != 0 || e.Round() != ref.round {
		t.Fatalf("%s: stabilized=%v at round %d, reference active %d at round %d",
			name, e.Stabilized(), e.Round(), ref.activeCount(), ref.round)
	}
	for u, st := range ref.covered {
		if got := e.CoveredAt()[u]; got != st {
			t.Fatalf("%s: coveredAt stamp of %d is %d, reference %d", name, u, got, st)
		}
	}
}

// The frontier engine, which re-evaluates only the dirty neighborhood of
// each commit, must replay the reference, which rescans every vertex every
// round: states, active counts and bits each round, coverage stamps at the
// end.
func TestFrontierMatchesFullRescan(t *testing.T) {
	master := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		r := master.Split(uint64(trial))
		n := 2 + r.Intn(120)
		g := graph.Gnp(n, r.Float64()*0.2, r)
		e := newTestCore(g, uint64(trial), Options{NoopWhenIdle: true})
		lockstep(t, fmt.Sprintf("trial %d", trial), e, newRefCore(g, uint64(trial), 0), 4*n+200)
	}
}

// Under the synchronous daemon the daemon-scheduled execution coincides with
// the synchronous Step loop, coin for coin.
func TestDaemonSynchronousMatchesStep(t *testing.T) {
	g := graph.Gnp(80, 0.06, xrand.New(9))
	sync := newTestCore(g, 3, Options{NoopWhenIdle: true})
	daem := newTestCore(g, 3, Options{NoopWhenIdle: true})
	rng := xrand.New(99)
	for i := 0; i < 4000 && !sync.Stabilized(); i++ {
		sync.Step()
		daem.DaemonStep(sched.Synchronous{}, rng)
		if !statesEqual(sync, daem) {
			t.Fatalf("round %d: synchronous daemon diverged from Step", sync.Round())
		}
	}
	if !daem.Stabilized() || sync.Bits() != daem.Bits() {
		t.Fatalf("stabilized=%v bits %d vs %d", daem.Stabilized(), sync.Bits(), daem.Bits())
	}
}

// Central daemons move one vertex per step and must still stabilize, with
// exact move/step accounting and intact incremental structures.
func TestDaemonCentralStabilizes(t *testing.T) {
	daemons := []sched.Daemon{
		sched.CentralAdversarial{},
		sched.CentralRandom{},
		sched.DistributedRandom{},
		&sched.RoundRobin{},
	}
	for _, d := range daemons {
		g := graph.Gnp(60, 0.08, xrand.New(10))
		e := newTestCore(g, 4, Options{NoopWhenIdle: true})
		rng := xrand.New(5)
		steps, ok := e.DaemonRun(d, rng, 200000)
		if !ok {
			t.Fatalf("%s: did not stabilize in %d steps", d.Name(), steps)
		}
		if e.Steps() != steps || e.Moves() == 0 {
			t.Fatalf("%s: accounting steps=%d/%d moves=%d", d.Name(), e.Steps(), steps, e.Moves())
		}
		if err := e.CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
	}
}

func TestNoopWhenIdle(t *testing.T) {
	// Path(2), both vertices black: stabilizes to a single black. After
	// stabilization Step must not advance the round counter.
	g := graph.Gnp(30, 0.2, xrand.New(11))
	e := newTestCore(g, 5, Options{NoopWhenIdle: true})
	for i := 0; i < 4000 && !e.Stabilized(); i++ {
		e.Step()
	}
	if !e.Stabilized() {
		t.Fatal("did not stabilize")
	}
	round, bits := e.Round(), e.Bits()
	e.Step()
	if e.Round() != round || e.Bits() != bits {
		t.Fatal("Step on quiescent engine advanced the execution")
	}
}

func TestCompleteFastPathMatchesGeneric(t *testing.T) {
	g := graph.Complete(48)
	fast := newTestCore(g, 6, Options{NoopWhenIdle: true})
	slow := newTestCore(g, 6, Options{NoopWhenIdle: true})
	slow.DisableCompleteFastPath()
	if !fast.Complete() || slow.Complete() {
		t.Fatal("fast-path flags wrong")
	}
	for i := 0; i < 100000 && !fast.Stabilized(); i++ {
		fast.Step()
		slow.Step()
		if !statesEqual(fast, slow) {
			t.Fatalf("round %d: fast path diverged", fast.Round())
		}
	}
	if !slow.Stabilized() || fast.Round() != slow.Round() || fast.Bits() != slow.Bits() {
		t.Fatal("fast/generic accounting mismatch")
	}
}

// Rebinding from a clique to a non-clique must switch off the
// complete-graph fast path (and counters must stay exact).
func TestRebindCliqueFastPathToggles(t *testing.T) {
	g := graph.Complete(10)
	e := newTestCore(g, 5, Options{NoopWhenIdle: true})
	for i := 0; i < 10000 && !e.Stabilized(); i++ {
		e.Step()
	}
	g2 := g.WithEdgeToggled(0, 1)
	e.Rebind(g2)
	if e.Complete() {
		t.Fatal("fast path still enabled after losing an edge")
	}
	if err := e.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000 && !e.Stabilized(); i++ {
		e.Step()
	}
	if err := verify.MIS(g2, func(u int) bool { return e.States()[u] == tBlack }); err != nil {
		t.Fatal(err)
	}
}

func TestOptionValidation(t *testing.T) {
	g := graph.Path(3)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero bias", func() { newTestCore(g, 1, Options{Bias: -1}) })
	mustPanic("bias 1", func() { newTestCore(g, 1, Options{Bias: 1}) })
	mustPanic("short state", func() {
		New(graph.Path(3), testProg, nil, make([]uint8, 2),
			make([]*xrand.Rand, 3), Options{Bias: 0.5})
	})
	mustPanic("gate lane without sub-process", func() {
		gated := testProg.Spec()
		gated.UseGate = true
		state, rngs := testInit(3, 1, nil)
		New(graph.Path(3), kernel.MustCompile(gated), nil, state, rngs, Options{Bias: 0.5})
	})
}

// DaemonRun's budget is relative to the current position: a second call
// after a capped run must execute further steps, not return immediately.
func TestDaemonRunBudgetIsRelative(t *testing.T) {
	g := graph.Gnp(80, 0.06, xrand.New(12))
	e := newTestCore(g, 7, Options{NoopWhenIdle: true})
	rng := xrand.New(3)
	steps, ok := e.DaemonRun(sched.CentralAdversarial{}, rng, 5)
	if ok || steps != 5 {
		t.Fatalf("first capped run: steps=%d ok=%v", steps, ok)
	}
	for !ok {
		before := e.Steps()
		steps, ok = e.DaemonRun(sched.CentralAdversarial{}, rng, 50)
		if !ok && e.Steps() != before+50 {
			t.Fatalf("retry did not extend the run: %d -> %d", before, e.Steps())
		}
		if e.Steps() > 100000 {
			t.Fatal("no stabilization")
		}
	}
	if err := e.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
