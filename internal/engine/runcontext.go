package engine

// Per-worker run contexts. A sweep-scale workload executes thousands of
// independent runs back to back on each worker; constructing a fresh Core
// per run used to allocate every bitset, counter array, coverage stamp
// vector, and per-vertex random stream anew — O(n) allocations per run that
// the garbage collector pays for at sweep scale. A RunContext owns one
// reusable copy of all of that scratch. Leasing is destructive by design:
// constructing a new engine (or process) on a context invalidates whatever
// previously leased from it, which is exactly the lifecycle of a batch
// worker — run to completion, fold the result into a streaming aggregate,
// reuse the scratch for the next run.

import (
	"ssmis/internal/bitset"
	"ssmis/internal/engine/kernel"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// RunContext is reusable per-worker scratch for engine (and process)
// construction. It is not safe for concurrent use: one context belongs to
// one worker. The zero value is not usable; call NewRunContext.
//
// Lease discipline: every buffer handed out remains owned by the context.
// The next New/lease on the same context recycles the same memory, so a
// Core (or a process wrapping one) built on a context must not be used
// after the context's next lease. Checkpoints taken from context-backed
// processes copy what they need and stay valid.
type RunContext struct {
	work, active, inI bitset.Set
	coveredAt         []int32
	plane             counterPlane
	stateCnt          []int
	classTab          []uint8
	changes           []change
	priv              []int
	refreshScr        []refreshScratch
	hubDeltas         []hubDelta
	lanes             kernel.Lanes
	dirtyW            bitset.Set

	state []uint8
	mask  []bool
	rands []xrand.Rand
	rngs  []*xrand.Rand

	// clockA/clockB back a rule's phase-clock level arrays (the 3-color
	// switch), clockTop its top-neighbour counts and clockFlips its
	// per-round scratch, all leased through ClockBufs.
	clockA, clockB       []uint8
	clockTop, clockFlips []int32

	// Locality-ordering memo: batch shards run thousands of seeds over one
	// shared graph, and both the degree-bucketed ordering and the auto
	// policy's verdict on it are pure functions of the graph, so each is
	// computed once per (context, graph) pair. ordG is the key.
	ordG *graph.Graph
	ord  OrderingMemo
}

// OrderingMemo is a RunContext's per-graph locality-ordering memo. The
// ordering and the auto policy's verdict are kept apart: a forced
// relabeling must not inherit an identity verdict, and an auto construction
// must not inherit an ordering its policy rejects.
type OrderingMemo struct {
	// Ordering is the graph's degree-bucketed relabeling; nil until
	// computed.
	Ordering *graph.Ordering
	// Judged reports that Relabel holds the auto policy's verdict.
	Judged, Relabel bool
}

// OrderingMemo returns the memo for g, emptied first when the previous call
// was for a different graph.
func (c *RunContext) OrderingMemo(g *graph.Graph) *OrderingMemo {
	if c.ordG != g {
		c.ordG, c.ord = g, OrderingMemo{}
	}
	return &c.ord
}

// CachedOrdering returns the ordering the auto policy chose for g and
// whether the policy has judged g; (nil, true) means it chose the identity.
func (c *RunContext) CachedOrdering(g *graph.Graph) (*graph.Ordering, bool) {
	if c.ordG != g || !c.ord.Judged {
		return nil, false
	}
	if !c.ord.Relabel {
		return nil, true
	}
	return c.ord.Ordering, true
}

// NewRunContext returns an empty context; buffers grow on first lease and
// are reused afterwards.
func NewRunContext() *RunContext { return &RunContext{} }

// growI32 reshapes buf to length n, zeroed, reusing capacity when possible.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// growU64 mirrors growI32 for uint64 slices (the counter plane's tail
// backing).
func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// growInts mirrors growI32 for int slices.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Uint8Buf leases the context's per-vertex state buffer, zeroed, length n.
// Process constructors use it for the initial state vector they hand to New.
func (c *RunContext) Uint8Buf(n int) []uint8 {
	c.state = growU8(c.state, n)
	return c.state
}

// growU8 reshapes buf to length n, zeroed, reusing capacity when possible.
func growU8(buf []uint8, n int) []uint8 {
	if cap(buf) < n {
		return make([]uint8, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// ClockBufs leases the context's phase-clock arrays — current and next
// levels and the top-neighbour counts, zeroed, length n, plus the
// per-round flip scratch, empty with capacity n. The 3-color process hands
// them to its switch via phaseclock.WithBuffers, closing that rule's last
// per-run O(n) allocation.
func (c *RunContext) ClockBufs(n int) (levels, next []uint8, topNbrs, flips []int32) {
	c.clockA = growU8(c.clockA, n)
	c.clockB = growU8(c.clockB, n)
	c.clockTop = growI32(c.clockTop, n)
	if cap(c.clockFlips) < n {
		c.clockFlips = make([]int32, 0, n)
	}
	return c.clockA, c.clockB, c.clockTop, c.clockFlips[:0]
}

// BoolBuf leases the context's per-vertex mask buffer, zeroed, length n
// (initialization adversaries materialize their black mask here).
func (c *RunContext) BoolBuf(n int) []bool {
	if cap(c.mask) < n {
		c.mask = make([]bool, n)
	} else {
		c.mask = c.mask[:n]
		for i := range c.mask {
			c.mask[i] = false
		}
	}
	return c.mask
}

// VertexStreams leases the context's per-vertex generator array, reseeded to
// master.Split(u) for each vertex u — the allocation-free counterpart of
// splitting n fresh streams per run.
func (c *RunContext) VertexStreams(n int, master *xrand.Rand) []*xrand.Rand {
	return c.VertexStreamsPerm(n, master, nil)
}

// VertexStreamsPerm is VertexStreams under a locality relabeling: the stream
// of original vertex u (always master.Split(u) — stream identity is keyed by
// original ids) lands at slot ord.NewID(u), where the relabeled engine looks
// it up. A nil ordering is the identity.
func (c *RunContext) VertexStreamsPerm(n int, master *xrand.Rand, ord *graph.Ordering) []*xrand.Rand {
	if cap(c.rands) < n {
		c.rands = make([]xrand.Rand, n)
		c.rngs = make([]*xrand.Rand, n)
	}
	c.rands = c.rands[:n]
	c.rngs = c.rngs[:n]
	for u := 0; u < n; u++ {
		i := ord.NewID(u)
		master.SplitInto(&c.rands[i], uint64(u))
		c.rngs[i] = &c.rands[i]
	}
	return c.rngs
}

// lease wires the context's scratch into e in place of fresh allocations,
// including the bit-sliced lanes configured for prog and the word-granular
// dirty set the commit marks. Called from New before Rebuild derives every
// structure. Configure fully zeroes every lane the program engages, so a
// context switching between rules (2-state → 3-state → back) never leaks
// stale lane words. The context holds no reference back to e (that would
// pin the previous run's graph for the worker's whole lifetime); instead the
// engine returns append-grown scratch through syncScratch after every round.
func (c *RunContext) lease(e *Core, prog *kernel.Program, n, numStates int) {
	c.work.Reset(n)
	c.active.Reset(n)
	c.inI.Reset(n)
	e.work = &c.work
	e.active = &c.active
	e.inI = &c.inI
	c.coveredAt = growI32(c.coveredAt, n)
	e.coveredAt = c.coveredAt
	c.stateCnt = growInts(c.stateCnt, numStates+1)
	e.stateCnt = c.stateCnt
	c.classTab = growU8(c.classTab, numStates+1)
	e.classTab = c.classTab
	e.changes = c.changes[:0]
	e.priv = c.priv[:0]
	e.refreshScr = c.refreshScr[:0]
	e.hubDeltas = c.hubDeltas[:0]
	// The counter plane (Rebuild configures it per graph) and the parallel
	// commit's hub delta buffers reuse the context's backing across runs.
	e.plane = &c.plane
	c.lanes.Configure(prog, n)
	c.dirtyW.Reset(c.lanes.Words())
	e.kern = &c.lanes
	e.dirtyW = &c.dirtyW
}

// syncScratch hands the engine's append-grown per-round scratch back to the
// owning context so the next lease reuses its capacity. Called at the end
// of every round; a no-op without a context.
func (e *Core) syncScratch() {
	if e.ctx != nil {
		e.ctx.changes = e.changes
		e.ctx.priv = e.priv
		e.ctx.refreshScr = e.refreshScr
		e.ctx.hubDeltas = e.hubDeltas
	}
}
