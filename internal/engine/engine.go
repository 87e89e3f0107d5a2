// Package engine is the shared frontier-driven round engine behind the
// paper's three MIS processes. A process is expressed as a compiled
// kernel.Program — a 2-bit state code plus truth tables over the code and
// the zero/nonzero projections of at most two neighbor counters — plus, for
// the 3-color process, a synchronous SubProcess that drives the program's
// gate lane. The engine owns everything the three hand-rolled simulators
// used to duplicate:
//
//   - bitset-packed vertex sets (worklist, active set, stable core I_t and
//     its closed neighborhood) over internal/bitset words;
//   - a frontier worklist: a round evaluates only vertices whose transition
//     can fire, and after the commit re-derives membership only for vertices
//     whose own state or neighborhood changed. The per-round cost is
//     O(|worklist| + Σ deg(changed)) instead of O(n) — in the long tail of a
//     run, where almost nothing flips, rounds become near-free;
//   - incremental neighbor counters with a complete-graph fast path (class
//     totals instead of per-vertex counts, generalizing the seed's 2-state
//     clique shortcut to every rule);
//   - monotone-coverage stabilization: the stable core I_t (black vertices
//     with no black neighbor) only grows, so N+(I_t) is tracked by
//     first-cover stamps, which doubles as the per-vertex local
//     stabilization-time instrument;
//   - daemon-scheduled execution (daemon.go) shared by every rule.
//
// One goroutine owns a run: a Core is single-writer by design, and
// parallelism lives in the batch pool (internal/batch), which runs
// independent runs side by side, each on its own worker's RunContext.
//
// Determinism contract: every vertex draws coins from its own stream, so an
// execution is a pure function of (graph, program, initial state, streams) —
// the worklist order and the commit order never change which coins a vertex
// sees, and neither does the pool worker a run lands on. This is what keeps
// the engine coin-for-coin equivalent to the node-program runtimes in
// internal/beeping and internal/stoneage, to the O(n·Δ) reference
// transcriptions in internal/mis/reference.go, and to the golden seed
// lineage of the pre-engine simulators.
package engine

import (
	"fmt"

	"ssmis/internal/bitset"
	"ssmis/internal/engine/kernel"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// Class bits: which engine counters a state value feeds, derived from its
// lane code. Counter A is the black projection — the code's lo bit — for all
// three processes; counter B is rule-specific: a program that engages the B
// lane feeds it from code 3 exactly (the 3-state process counts black1
// neighbors there). Counter A counts each neighbor's current class; counter B
// counts each neighbor's last scattered class: a vertex in I_t stops
// scattering its class-B flips (commitT), so only the white vertices around
// I_t, which never read counter B, can see it lag.
const (
	classA uint8 = 1 << iota
	classB
)

// SubProcess is a synchronous sub-process run inside every round (the
// 3-color process's logarithmic switch). MidRound is invoked exactly once
// per synchronous round, after every touched vertex has drawn its coins
// against the pre-round state and before the commit. ExportGate packs the
// per-vertex gate bits (the 3-color switch values σ_t) into dst, one bit per
// vertex, 64 per word, leaving bits beyond the universe zero; the engine
// calls it after every MidRound and at Rebuild, so evaluation always reads
// the previous round's values through the program's gate lane. The gate
// only selects forced-transition outcomes — never membership — so the
// frontier logic is untouched.
type SubProcess interface {
	MidRound()
	ExportGate(dst []uint64)
}

// Options configures an engine instance.
type Options struct {
	// Bias is the probability a process coin comes up "first outcome"
	// (black). 0.5 draws one bit per coin; any other value draws a 64-bit
	// Bernoulli sample, matching the paper's bit accounting.
	Bias float64
	// NoopWhenIdle makes Step return without advancing the round counter
	// when the worklist is empty (the 2-state process's quiescence
	// semantics: stabilization and empty worklist coincide).
	NoopWhenIdle bool
	// Ctx, when non-nil, supplies reusable per-worker scratch (bitsets,
	// counters, coverage stamps) in place of fresh allocations — see
	// RunContext. Constructing another engine on the same context invalidates
	// this one. Results are bit-identical with or without a context.
	Ctx *RunContext
}

// change is one committed transition: vertex U moves to state S — the
// kernel's change record, so the bit-sliced evaluator appends directly into
// the engine's pending list.
type change = kernel.Change

// Core is the engine state for one process execution.
type Core struct {
	g    *graph.Graph
	prog *kernel.Program
	sub  SubProcess // nil unless the program engages the gate lane
	opts Options

	state []uint8
	rngs  []*xrand.Rand
	round int
	bits  int64

	complete bool          // complete-graph fast path: counters from class totals
	useB     bool          // the program engages counter B
	classTab []uint8       // class bits per state byte (hot-loop dispatch)
	plane    *counterPlane // neighbor counters (counters.go); idle when complete
	totalA   int
	totalB   int
	stateCnt []int // population per state value

	kern *kernel.Lanes // bit-sliced state, neighbor and gate lanes

	work      *bitset.Set // touched vertices (this round's worklist)
	workCnt   int
	active    *bitset.Set
	activeCnt int

	inI        *bitset.Set // the monotone stable core I_t
	frozenB    *bitset.Set // I_t members that entered in class B (see commitT)
	coveredAt  []int32     // round a vertex first entered N+(I_t); -1 = never
	coveredCnt int

	// per-round scratch
	changes      []change
	dirtyW       *bitset.Set // dirty lane words (universe = kern.Words())
	dirtyAll     bool
	forceGeneric bool        // set by the tests' DisableCompleteFastPath
	ctx          *RunContext // non-nil when scratch is leased, not owned

	// daemon accounting (daemon.go)
	steps int
	moves int
	priv  []int
}

// New builds an engine over g running the compiled rule prog, taking
// ownership of the initial state vector and the per-vertex random streams.
// sub is the rule's synchronous sub-process; it must be non-nil exactly when
// the program engages the gate lane.
func New(g *graph.Graph, prog *kernel.Program, sub SubProcess, initial []uint8, rngs []*xrand.Rand, opts Options) *Core {
	n := g.N()
	if len(initial) != n || len(rngs) != n {
		panic(fmt.Sprintf("engine: initial state %d / streams %d for graph order %d",
			len(initial), len(rngs), n))
	}
	// Negated conjunction so NaN fails too.
	if !(opts.Bias > 0 && opts.Bias < 1) {
		panic(fmt.Sprintf("engine: coin bias %v outside (0,1)", opts.Bias))
	}
	if prog.UseGate() != (sub != nil) {
		panic(fmt.Sprintf("engine: program gate lane %v but sub-process given %v", prog.UseGate(), sub != nil))
	}
	e := &Core{
		g:     g,
		prog:  prog,
		sub:   sub,
		opts:  opts,
		state: initial,
		rngs:  rngs,
		useB:  prog.UseB(),
		ctx:   opts.Ctx,
	}
	numStates := prog.NumStates()
	if e.ctx != nil {
		e.ctx.lease(e, prog, n, numStates)
	} else {
		e.stateCnt = make([]int, numStates+1)
		e.classTab = make([]uint8, numStates+1)
		e.work = bitset.New(n)
		e.active = bitset.New(n)
		e.inI = bitset.New(n)
		e.frozenB = bitset.New(n)
		e.coveredAt = make([]int32, n)
		e.plane = new(counterPlane)
		e.kern = kernel.New(prog, n)
		// The refresh only ever consumes whole lane words, so the dirty
		// frontier is tracked at word granularity: a set over the ⌈n/64⌉
		// word indices (n=10^6 → 2KB, L1-resident) instead of a 128KB
		// per-vertex set — the commit's random marking stays in cache.
		e.dirtyW = bitset.New(e.kern.Words())
	}
	for code, s := range prog.Spec().StateOf {
		if s == 0 {
			continue
		}
		if code&1 != 0 {
			e.classTab[s] |= classA
		}
		if e.useB && code == 3 {
			e.classTab[s] |= classB
		}
	}
	e.Rebuild()
	return e
}

// Graph returns the underlying graph.
func (e *Core) Graph() *graph.Graph { return e.g }

// Round returns the number of completed rounds.
func (e *Core) Round() int { return e.round }

// Bits returns the total process random bits drawn so far (sub-process bits,
// e.g. the 3-color switch, are accounted by the sub-process).
func (e *Core) Bits() int64 { return e.bits }

// SetAccounting overwrites the round and bit counters (checkpoint restore)
// and re-stamps the already-covered vertices with the restored round,
// matching the local-times semantics of an execution resumed mid-run.
func (e *Core) SetAccounting(round int, bits int64) {
	e.round = round
	e.bits = bits
	for i, r := range e.coveredAt {
		if r >= 0 {
			e.coveredAt[i] = int32(round)
		}
	}
}

// SetCoverageStamps overwrites the per-vertex first-cover stamps with a
// checkpointed vector (snapshot restore), preserving the local-times
// instrument across a resume. The stamp support must equal the coverage the
// engine derives from the restored state — I_t is monotone under every
// rule's dynamics, so a live core's stamps always satisfy this; a vector
// that marks a covered vertex uncovered (which would wedge the monotone
// tracking) or vice versa is a damaged checkpoint and reported as an error.
func (e *Core) SetCoverageStamps(stamps []int32) error {
	if len(stamps) != e.g.N() {
		return fmt.Errorf("engine: %d coverage stamps for graph order %d", len(stamps), e.g.N())
	}
	cnt := 0
	for v, r := range stamps {
		if (r >= 0) != (e.coveredAt[v] >= 0) {
			return fmt.Errorf("engine: restored coverage stamp of vertex %d (%d) disagrees with the restored configuration", v, r)
		}
		if r > int32(e.round) {
			return fmt.Errorf("engine: coverage stamp of vertex %d (%d) is later than the restored round %d", v, r, e.round)
		}
		if r >= 0 {
			cnt++
		}
	}
	copy(e.coveredAt, stamps)
	e.coveredCnt = cnt
	return nil
}

// State returns the current state of vertex u.
func (e *Core) State(u int) uint8 { return e.state[u] }

// States returns the full state vector (not a copy).
func (e *Core) States() []uint8 { return e.state }

// Rngs returns the per-vertex random streams (checkpointing).
func (e *Core) Rngs() []*xrand.Rand { return e.rngs }

// ActiveCount returns |A_t| at the end of the last completed round.
func (e *Core) ActiveCount() int { return e.activeCnt }

// StateCount returns the number of vertices currently in state s.
func (e *Core) StateCount(s uint8) int { return e.stateCnt[s] }

// ClassACount returns the number of vertices in a black (counter-A) state.
func (e *Core) ClassACount() int { return e.totalA }

// StableCoreCount returns |I_t|: black vertices with no black neighbor.
func (e *Core) StableCoreCount() int { return e.inI.Count() }

// Stabilized reports N+(I_t) = V. I_t is monotone non-decreasing under every
// rule's dynamics (a stable black vertex keeps re-randomizing between its
// black states, and its neighbors are frozen), so coverage is tracked by
// first-cover stamps and the condition is permanent once reached; a vertex
// leaves I_t only through Rebuild. Because the neighbors are frozen whites,
// which read only counter A, an I_t vertex stops scattering its
// black0/black1 flips into their counter B (commitT). For the 2-state
// process this coincides with quiescence: no vertex active.
func (e *Core) Stabilized() bool { return e.coveredCnt == e.g.N() }

// CoveredAt returns the per-vertex first-cover rounds (-1 = not yet covered)
// — the execution's local stabilization times.
func (e *Core) CoveredAt() []int32 { return e.coveredAt }

// countA returns counter A of u (black neighbors).
func (e *Core) countA(u int) int32 {
	if e.complete {
		c := int32(e.totalA)
		if e.classTab[e.state[u]]&classA != 0 {
			c--
		}
		return c
	}
	return e.plane.a(u)
}

// countB returns counter B of u (rule-specific; 0 when unused).
func (e *Core) countB(u int) int32 {
	if !e.useB {
		return 0
	}
	if e.complete {
		c := int32(e.totalB)
		if e.classTab[e.state[u]]&classB != 0 {
			c--
		}
		return c
	}
	return e.plane.b(u)
}

// Step advances one synchronous round: every touched vertex evaluates the
// program against the frozen pre-round state (drawing coins from its own
// stream), the sub-process runs, and the changes commit.
func (e *Core) Step() {
	if e.opts.NoopWhenIdle && e.workCnt == 0 {
		return
	}
	// Bit-sliced evaluation: whole touched words, coins from the per-vertex
	// streams in ascending vertex order.
	var drawn int64
	e.changes, drawn = e.kern.EvalWords(e.rngs, e.opts.Bias, e.changes[:0])
	e.bits += drawn
	e.midRound()
	e.commit(e.changes)
	e.round++
	e.refresh()
	e.syncScratch()
}

// midRound runs the sub-process's round, if any, and re-exports its gate.
func (e *Core) midRound() {
	if e.sub != nil {
		e.sub.MidRound()
		e.exportGate()
	}
}

// exportGate re-fills the gate lane from the sub-process; called after every
// MidRound and during Rebuild so EvalWords always reads σ of the last
// completed round.
func (e *Core) exportGate() {
	if e.sub != nil {
		e.sub.ExportGate(e.kern.GateWords())
	}
}

// Rebuild re-derives every counter and membership set from the state vector:
// used at construction and after external mutation (corruption, rebind).
// Coverage stamps reset to the current round, matching the semantics of the
// local-times instrument after a fault.
func (e *Core) Rebuild() {
	n := e.g.N()
	e.complete = !e.forceGeneric && n >= 2 && e.g.M() == n*(n-1)/2
	if !e.complete {
		// Re-resolve the counter lane width (the graph may have changed
		// under Rebind) and reshape its arrays, zeroed.
		e.plane.configure(e.g, e.useB)
	}
	for i := range e.stateCnt {
		e.stateCnt[i] = 0
	}
	e.totalA, e.totalB = 0, 0
	for u := 0; u < n; u++ {
		s := e.state[u]
		e.stateCnt[s]++
		cl := e.classTab[s]
		if cl&classA != 0 {
			e.totalA++
		}
		if cl&classB != 0 {
			e.totalB++
		}
	}
	if !e.complete {
		switch e.plane.width {
		case 1:
			rebuildCountsT(e, e.plane.t8a, e.plane.t8b)
		case 2:
			rebuildCountsT(e, e.plane.t16a, e.plane.t16b)
		default:
			rebuildCountsT(e, e.plane.t32a, e.plane.t32b)
		}
	}
	e.work.Clear()
	e.active.Clear()
	e.inI.Clear()
	e.frozenB.Clear()
	e.workCnt, e.activeCnt = 0, 0
	e.coveredCnt = 0
	for i := range e.coveredAt {
		e.coveredAt[i] = -1
	}
	// Bulk-load the lanes from the rebuilt state and counters (and the gate
	// from the sub-process), then derive every membership a word at a time.
	e.kern.LoadState(e.state)
	if e.complete {
		e.kern.FillHBNComplete(e.totalA, e.totalB)
	} else {
		e.settleHBN()
	}
	e.exportGate()
	for wi := 0; wi < e.kern.Words(); wi++ {
		e.refreshWord(wi)
	}
	e.dirtyW.Clear()
	e.dirtyAll = false
}

// rebuildCountsT recounts every neighbor counter into the freshly zeroed
// plane. No overflow guard: the width selection proves counter <= degree <=
// max degree fits the lane.
func rebuildCountsT[T cell](e *Core, cntA, cntB []T) {
	n := e.g.N()
	for u := 0; u < n; u++ {
		cl := e.classTab[e.state[u]]
		if cl == 0 {
			continue
		}
		if cl&classA != 0 {
			for _, v := range e.g.Neighbors(u) {
				cntA[v]++
			}
		}
		if cl&classB != 0 {
			for _, v := range e.g.Neighbors(u) {
				cntB[v]++
			}
		}
	}
}

// Rebind switches the engine to a new graph on the same vertex set, keeping
// all vertex states (topology churn). It panics on order mismatch.
func (e *Core) Rebind(g *graph.Graph) {
	if g.N() != e.g.N() {
		panic(fmt.Sprintf("engine: Rebind to order %d != %d", g.N(), e.g.N()))
	}
	e.g = g
	e.Rebuild()
}

// CheckIntegrity recomputes every incremental structure from scratch and
// returns a descriptive error on the first divergence — the invariant probe
// used by property tests. Memberships are re-derived from the program's
// truth tables one vertex at a time, independently of the lane words.
// Counter B is recounted from each neighbor's last scattered class (an I_t
// member's is its frozenB bit; off the complete-graph path), and a counter
// whose zero projection differs from the current classes' is an error when
// it would change the vertex's touched or active bit.
func (e *Core) CheckIntegrity() error {
	n := e.g.N()
	if !e.complete {
		if err := e.plane.checkLayout(e.g); err != nil {
			return fmt.Errorf("round %d: %w", e.round, err)
		}
	}
	workCnt, activeCnt := 0, 0
	totalA, totalB := 0, 0
	for u := 0; u < n; u++ {
		s := e.state[u]
		code := e.prog.CodeOf(s)
		if code > 3 {
			return fmt.Errorf("round %d: state %d of vertex %d is not in the lane encoding", e.round, s, u)
		}
		var a, b, lastB int32
		for _, v := range e.g.Neighbors(u) {
			cl := e.classTab[e.state[v]]
			if cl&classA != 0 {
				a++
			}
			if cl&classB != 0 {
				b++
			}
			scattered := cl&classB != 0
			if !e.complete && e.inI.Contains(int(v)) {
				scattered = e.frozenB.Contains(int(v))
			}
			if scattered {
				lastB++
			}
		}
		if got := e.countA(u); got != a {
			return fmt.Errorf("round %d: counter A of %d = %d, recomputed %d", e.round, u, got, a)
		}
		if got := e.countB(u); got != lastB {
			return fmt.Errorf("round %d: counter B of %d = %d, recounted %d from the neighbors' last scattered classes",
				e.round, u, got, lastB)
		}
		if e.prog.TouchedBit(int(code), a > 0, lastB > 0) != e.prog.TouchedBit(int(code), a > 0, b > 0) ||
			e.prog.ActiveBit(int(code), a > 0, lastB > 0) != e.prog.ActiveBit(int(code), a > 0, b > 0) {
			return fmt.Errorf("round %d: stale counter B of %d (%d, current classes give %d) changes its touched or active bit",
				e.round, u, lastB, b)
		}
		if e.frozenB.Contains(u) && !e.inI.Contains(u) {
			return fmt.Errorf("round %d: vertex %d has a frozen counter-B class outside I_t", e.round, u)
		}
		cl := e.classTab[s]
		if cl&classA != 0 {
			totalA++
		}
		if cl&classB != 0 {
			totalB++
		}
		if want := e.prog.TouchedBit(int(code), a > 0, b > 0); want != e.work.Contains(u) {
			return fmt.Errorf("round %d: worklist membership of %d = %v, recomputed %v",
				e.round, u, e.work.Contains(u), want)
		} else if want {
			workCnt++
		}
		if want := e.prog.ActiveBit(int(code), a > 0, b > 0); want != e.active.Contains(u) {
			return fmt.Errorf("round %d: active membership of %d = %v, recomputed %v",
				e.round, u, e.active.Contains(u), want)
		} else if want {
			activeCnt++
		}
		if want := code&1 == 1 && a == 0; want != e.inI.Contains(u) {
			return fmt.Errorf("round %d: stable-core membership of %d = %v, recomputed %v",
				e.round, u, e.inI.Contains(u), want)
		}
		if e.kern.StateAt(u) != s {
			return fmt.Errorf("round %d: kernel lane code of %d decodes to state %d, state says %d",
				e.round, u, e.kern.StateAt(u), s)
		}
		if e.kern.HasANbr(u) != (a > 0) {
			return fmt.Errorf("round %d: kernel hasANbr bit of %d = %v, recomputed counter %d",
				e.round, u, e.kern.HasANbr(u), a)
		}
		if e.useB && e.kern.HasBNbr(u) != (lastB > 0) {
			return fmt.Errorf("round %d: kernel hasBNbr bit of %d = %v, recounted counter %d",
				e.round, u, e.kern.HasBNbr(u), lastB)
		}
	}
	if workCnt != e.workCnt {
		return fmt.Errorf("round %d: workCnt = %d, recomputed %d", e.round, e.workCnt, workCnt)
	}
	if activeCnt != e.activeCnt {
		return fmt.Errorf("round %d: activeCnt = %d, recomputed %d", e.round, e.activeCnt, activeCnt)
	}
	if totalA != e.totalA || totalB != e.totalB {
		return fmt.Errorf("round %d: class totals (%d,%d), recomputed (%d,%d)",
			e.round, e.totalA, e.totalB, totalA, totalB)
	}
	covered := 0
	for u := 0; u < n; u++ {
		if e.coveredAt[u] >= 0 {
			covered++
		}
	}
	if covered != e.coveredCnt {
		return fmt.Errorf("round %d: coveredCnt = %d, stamps say %d", e.round, e.coveredCnt, covered)
	}
	return nil
}
