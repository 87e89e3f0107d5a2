// Package async is the message-level asynchronous beeping medium: each node
// owns a logical clock advanced by a drift model (Drift), executes its
// protocol in local slots whose real-time lengths vary within the drift
// bound ρ, beeps occupy the emitting node's whole slot interval, and a node
// hears a beep on a channel iff some neighbor's beep interval on that
// channel overlaps the node's own listening slot.
//
// The medium runs the SAME per-node programs as the synchronous lockstep
// runtime (noderun.Program, built by beeping.NewPrograms /
// stoneage.NewThreeStatePrograms): a node still sees only Emit and Deliver,
// so the locality discipline of the paper's weak-communication claim is
// preserved — what changes is purely when slots happen and which beep
// intervals overlap.
//
// Semantics of one local slot of node u:
//
//  1. at slot start, u's program Emits a channel mask; the beeps occupy the
//     whole slot interval [start, end);
//  2. at slot end, u hears channel c iff some neighbor's beep interval on c
//     overlaps [start, end) (intervals are half-open, so back-to-back slots
//     do not overlap), the model's masking applies (a no-CD radio cannot
//     hear a channel while it beeps on it), and the program's Deliver runs;
//  3. the next slot begins immediately, with a length chosen by the drift
//     model from the node's dedicated clock stream.
//
// At ρ = 1 every slot has the base length, slot k of every node is the
// interval [k·SlotTicks, (k+1)·SlotTicks), two slots overlap iff they have
// the same index, and the medium collapses to the synchronous noderun
// execution coin-for-coin — pinned by the cross-runtime equivalence matrix
// in equivalence_test.go.
//
// The implementation is a single-goroutine discrete-event simulation over
// integer ticks (no floats, no map iteration, no goroutine scheduling), so
// an execution is a pure function of (graph, seed, drift model): replays
// are byte-identical, which the deterministic-replay CI smoke asserts
// end-to-end through misrun.
package async

import (
	"fmt"
	"math"
	"math/bits"

	"ssmis/internal/graph"
	"ssmis/internal/noderun"
	"ssmis/internal/xrand"
)

// slotRec is one completed slot of a node: its interval and the beep mask
// it carried (captured at emit time, so later state changes cannot corrupt
// what was on the air).
type slotRec struct {
	start, end int64
	mask       uint32
}

// event is a pending slot end in the event queue.
type event struct {
	t  int64
	id int32
}

// eventLess orders events by time, ties by node id — the deterministic
// total order the whole simulation advances in.
func eventLess(a, b event) bool {
	return a.t < b.t || (a.t == b.t && a.id < b.id)
}

// Engine drives node programs over a graph under a communication model and
// a drift model.
type Engine struct {
	g     *graph.Graph
	model noderun.Model
	progs []noderun.Program
	drift Drift

	minLen, maxLen int64 // legal slot-length bounds for the drift ρ

	clocks []*xrand.Rand // per-node clock streams (disjoint from coin streams)
	slot   []int         // current slot index per node
	start  []int64       // current slot start tick
	end    []int64       // current slot end tick
	emit   []uint32      // current slot beep mask

	hist [][]slotRec // completed slots per node, pruned past the horizon

	pq []event // binary min-heap under eventLess

	now       int64 // latest processed event time
	completed int64 // total completed slots
	rounds    int   // completed virtual rounds (slowest node's slots)
	doneAt    []int // doneAt[k] = nodes that have completed slot k
	topSlot   int   // highest current slot index over all nodes

	maxSkew        int   // max observed slot-index spread between nodes
	obsMin, obsMax int64 // observed slot-length extremes
}

// NewEngine creates an asynchronous medium for the given programs.
// progs[u] is vertex u's program; len(progs) must equal g.N(). Node u's
// clock stream is Split(n+3+u) of the master seed — above the protocol's
// per-vertex coin streams (u < n), the init stream (n+1) and the scheduler
// stream (n+2) — so clock noise and protocol coins never interleave.
func NewEngine(g *graph.Graph, model noderun.Model, progs []noderun.Program, drift Drift, seed uint64) *Engine {
	n := g.N()
	if len(progs) != n {
		panic(fmt.Sprintf("async: %d programs for %d vertices", len(progs), n))
	}
	if model.Channels < 1 || model.Channels > 32 {
		panic(fmt.Sprintf("async: channels %d out of [1,32]", model.Channels))
	}
	if drift == nil {
		panic("async: nil drift model")
	}
	e := &Engine{
		g:      g,
		model:  model,
		progs:  progs,
		drift:  drift,
		minLen: SlotTicks,
		maxLen: MaxSlotTicks(checkRho(drift.Rho())),
		clocks: make([]*xrand.Rand, n),
		slot:   make([]int, n),
		start:  make([]int64, n),
		end:    make([]int64, n),
		emit:   make([]uint32, n),
		hist:   make([][]slotRec, n),
		pq:     make([]event, 0, n),
		obsMin: math.MaxInt64,
	}
	master := xrand.New(seed)
	for u := 0; u < n; u++ {
		e.clocks[u] = master.Split(uint64(n) + 3 + uint64(u))
	}
	for u := 0; u < n; u++ {
		e.beginSlot(u, 0, 0)
	}
	return e
}

// beginSlot starts node u's slot k at the given tick: draws the slot
// length, validates it against the drift bound, and puts the program's emit
// decision on the air for the whole interval.
func (e *Engine) beginSlot(u, k int, start int64) {
	l := e.drift.SlotLen(u, k, start, e.clocks[u])
	if l < e.minLen || l > e.maxLen {
		panic(fmt.Sprintf("async: drift %s produced slot length %d outside [%d, %d] (ρ=%g)",
			e.drift.Name(), l, e.minLen, e.maxLen, e.drift.Rho()))
	}
	if l < e.obsMin {
		e.obsMin = l
	}
	if l > e.obsMax {
		e.obsMax = l
	}
	m := e.progs[u].Emit()
	chanMask := uint32(1)<<uint(e.model.Channels) - 1
	if m&^chanMask != 0 {
		panic(fmt.Sprintf("async: node %d beeped outside the %d-channel alphabet (%s model)",
			u, e.model.Channels, e.model.Name))
	}
	if e.model.MaxBeepsPerNode > 0 && bits.OnesCount32(m) > e.model.MaxBeepsPerNode {
		panic(fmt.Sprintf("async: node %d beeped on %d channels, max %d (%s model)",
			u, bits.OnesCount32(m), e.model.MaxBeepsPerNode, e.model.Name))
	}
	e.slot[u] = k
	e.start[u] = start
	e.end[u] = start + l
	e.emit[u] = m
	e.pushEvent(event{t: e.end[u], id: int32(u)})
}

// hear computes the feedback mask for node u's current slot: the OR of
// every neighbor beep interval overlapping [start, end). A neighbor's
// current (still open) slot overlaps iff it started before end — its end
// lies at or beyond the event being processed; completed slots are scanned
// newest-first until they fall entirely before the listening interval.
func (e *Engine) hear(u int) uint32 {
	s, end := e.start[u], e.end[u]
	var h uint32
	for _, v32 := range e.g.Neighbors(u) {
		v := int(v32)
		if e.start[v] < end {
			h |= e.emit[v]
		}
		recs := e.hist[v]
		for i := len(recs) - 1; i >= 0; i-- {
			if recs[i].end <= s {
				break
			}
			if recs[i].start < end {
				h |= recs[i].mask
			}
		}
	}
	return h
}

// processNext delivers the earliest pending slot end and starts that node's
// next slot. It returns true when the completion finished a whole virtual
// round — every node has now completed the round's slot.
func (e *Engine) processNext() bool {
	ev := e.popEvent()
	e.now = ev.t
	u := int(ev.id)
	h := e.hear(u)
	if !e.model.SenderCollisionDetection {
		// A beeping radio cannot listen on the channel it transmits on.
		h &^= e.emit[u]
	}
	e.progs[u].Deliver(h)
	k := e.slot[u]
	e.hist[u] = append(e.hist[u], slotRec{start: e.start[u], end: e.end[u], mask: e.emit[u]})
	e.completed++
	for len(e.doneAt) <= k {
		e.doneAt = append(e.doneAt, 0)
	}
	e.doneAt[k]++
	e.beginSlot(u, k+1, e.end[u])
	if e.completed%int64(e.g.N()) == 0 {
		e.prune()
	}
	boundary := false
	if e.rounds < len(e.doneAt) && e.doneAt[e.rounds] == e.g.N() {
		e.rounds++
		boundary = true
	}
	// Exact skew tracking: the slowest node's current slot index is always
	// e.rounds (it is the one holding the round boundary back), so the
	// spread is topSlot - rounds — evaluated only once the current instant
	// has fully settled (no further events at time now), because nodes
	// whose slots end at exactly this tick are mid-advance and a half-open
	// interval touching the tick is not an overlap (at ρ=1 every round is
	// one big tie and the settled spread is 0).
	if k+1 > e.topSlot {
		e.topSlot = k + 1
	}
	if len(e.pq) > 0 && e.pq[0].t > e.now {
		if sk := e.topSlot - e.rounds; sk > e.maxSkew {
			e.maxSkew = sk
		}
	}
	return boundary
}

// prune drops history that can no longer overlap any live listening slot.
// Every node's current slot ends at or after now and is at most maxLen
// long, so it started at or after now-maxLen; future slots start later
// still. Records ending at or before that horizon are dead.
func (e *Engine) prune() {
	horizon := e.now - e.maxLen
	for u := range e.hist {
		recs := e.hist[u]
		i := 0
		for i < len(recs) && recs[i].end <= horizon {
			i++
		}
		if i > 0 {
			e.hist[u] = append(recs[:0], recs[i:]...)
		}
	}
}

// influenceHorizonRounds bounds, in virtual rounds, how long any beep
// interval already on the air can keep overlapping listening slots: an
// interval emitted before time T ends by T+maxLen and can influence
// deliveries only up to T+2·maxLen, and consecutive round boundaries are at
// least SlotTicks apart, so ceil(2ρ) rounds (+1 for margin) flush it. At
// ρ=1 slots align exactly — slot k only ever overlaps slot k — so observed
// stability is absorbing just as in the synchronous engine and the horizon
// is zero.
func (e *Engine) influenceHorizonRounds() int {
	if e.drift.Rho() == 1 {
		return 0
	}
	return int(2*math.Ceil(e.drift.Rho())) + 1
}

// RunConfirmed advances the medium until stable() holds AND persists: under
// drift (ρ > 1) an observer-stable configuration is not automatically
// absorbing — a stale beep interval emitted by a since-changed state can
// still overlap a covered vertex's listening slot and reactivate it — so
// stabilization is reported only once the stable configuration's black
// projection has survived, unchanged at every round boundary, for a full
// influence horizon (influenceHorizonRounds). The returned round count is
// the round at which the confirmed configuration was FIRST observed. At
// ρ = 1 (horizon zero) it is the first round boundary at which stable()
// holds — the pinned synchronous-equivalence semantics.
//
// A run that reaches maxRounds with no candidate under observation returns
// the round count and false. A candidate still under observation at the cap
// may confirm up to one horizon past it; after that the run returns the
// round count and stable() as observed then.
func (e *Engine) RunConfirmed(maxRounds int, stable func() bool, black func(int) bool) (rounds int, stabilized bool) {
	n := e.g.N()
	if n == 0 {
		return e.rounds, stable()
	}
	flush := e.influenceHorizonRounds()
	snap := make([]bool, n)
	candidate := -1
	note := func() {
		candidate = e.rounds
		for u := 0; u < n; u++ {
			snap[u] = black(u)
		}
	}
	boundary := func() (confirmed bool) {
		if !stable() {
			candidate = -1
			return false
		}
		if candidate < 0 {
			note()
			return flush == 0
		}
		for u := 0; u < n; u++ {
			if snap[u] != black(u) {
				// The projection moved while under observation: restart the
				// horizon from the configuration now on the air.
				note()
				return false
			}
		}
		return e.rounds >= candidate+flush
	}
	if boundary() {
		return candidate, true
	}
	for {
		if !e.processNext() {
			continue
		}
		if boundary() {
			return candidate, true
		}
		if candidate < 0 && e.rounds >= maxRounds {
			return e.rounds, false
		}
		if e.rounds >= maxRounds+flush {
			return e.rounds, stable()
		}
	}
}

// Rounds returns the number of completed virtual rounds: the slot count of
// the slowest node, the asynchronous analogue of the synchronous round
// counter.
func (e *Engine) Rounds() int { return e.rounds }

// Now returns the latest processed event time in ticks.
func (e *Engine) Now() int64 { return e.now }

// MaxSkew returns the maximum observed slot-index spread between the
// fastest and the slowest node clock, tracked exactly at every event — 0 in
// a lockstep (ρ=1) execution, growing with virtual time under sustained
// drift.
func (e *Engine) MaxSkew() int { return e.maxSkew }

// ObservedSlotLens returns the extreme slot lengths the drift model has
// produced so far; both are 0 before any slot began. Property tests assert
// they lie within [SlotTicks, MaxSlotTicks(ρ)] — the engine itself panics
// if a drift model ever leaves that window.
func (e *Engine) ObservedSlotLens() (min, max int64) {
	if e.obsMax == 0 {
		return 0, 0
	}
	return e.obsMin, e.obsMax
}

// pushEvent inserts ev into the min-heap.
func (e *Engine) pushEvent(ev event) {
	e.pq = append(e.pq, ev)
	i := len(e.pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(e.pq[i], e.pq[parent]) {
			break
		}
		e.pq[i], e.pq[parent] = e.pq[parent], e.pq[i]
		i = parent
	}
}

// popEvent removes and returns the earliest event.
func (e *Engine) popEvent() event {
	top := e.pq[0]
	last := len(e.pq) - 1
	e.pq[0] = e.pq[last]
	e.pq = e.pq[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && eventLess(e.pq[l], e.pq[smallest]) {
			smallest = l
		}
		if r < last && eventLess(e.pq[r], e.pq[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		e.pq[i], e.pq[smallest] = e.pq[smallest], e.pq[i]
		i = smallest
	}
	return top
}
