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
	frozenB           bitset.Set
	coveredAt         []int32
	plane             counterPlane
	stateCnt          []int
	classTab          []uint8
	changes           []change
	priv              []int
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
}

// CachedOrdering reports (nil, true) for every graph: processes always run
// in the caller's vertex ids, so a context never holds a relabeling. Only
// the benchmark's relabeled= stamp (misbench) still reads it.
func (c *RunContext) CachedOrdering(*graph.Graph) (*graph.Ordering, bool) { return nil, true }

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

// growU16 mirrors growI32 for uint16 slices (the counter plane's 16-bit
// lanes).
func growU16(buf []uint16, n int) []uint16 {
	if cap(buf) < n {
		return make([]uint16, n)
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

// VertexStreams leases the context's per-vertex generator array — the
// allocation-free counterpart of splitting n fresh streams per run: slot u
// holds master.Split(u).
func (c *RunContext) VertexStreams(n int, master *xrand.Rand) []*xrand.Rand {
	if cap(c.rands) < n {
		c.rands = make([]xrand.Rand, n)
		c.rngs = make([]*xrand.Rand, n)
	}
	c.rands = c.rands[:n]
	c.rngs = c.rngs[:n]
	for u := 0; u < n; u++ {
		master.SplitInto(&c.rands[u], uint64(u))
		c.rngs[u] = &c.rands[u]
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
	c.frozenB.Reset(n)
	e.work = &c.work
	e.active = &c.active
	e.inI = &c.inI
	e.frozenB = &c.frozenB
	c.coveredAt = growI32(c.coveredAt, n)
	e.coveredAt = c.coveredAt
	c.stateCnt = growInts(c.stateCnt, numStates+1)
	e.stateCnt = c.stateCnt
	c.classTab = growU8(c.classTab, numStates+1)
	e.classTab = c.classTab
	e.changes = c.changes[:0]
	e.priv = c.priv[:0]
	// The counter plane (Rebuild configures it per graph) reuses the
	// context's lanes across runs.
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
	}
}
