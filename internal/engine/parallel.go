package engine

// Intra-round parallelism, shared by every rule. A synchronous round is
// embarrassingly parallel across vertices: coins come from per-vertex
// streams, so the execution is bit-identical to the sequential path
// regardless of goroutine scheduling. The universe is partitioned into
// word-aligned vertex ranges (partitionRange); workers evaluate their
// ranges of the worklist against the frozen pre-round state, then commit
// their change lists with atomic counter updates and atomic dirty-word
// insertion (the refresh re-derives whole lane words anyway, and the
// word-index set stays cache-resident under the commit's random marking).
// The membership refresh that follows the commit uses the same partition
// (refresh.go): its cost is O(|dirty words|) only on frontier rounds — on
// the complete-graph fast path and on high-churn rounds it is O(n/64),
// which is why it is partitioned and parallel too rather than left
// sequential.

import (
	"sync"
	"sync/atomic"
)

// partitionRange returns the word-aligned vertex range [lo, hi) that worker
// w of workers owns over the universe [0, n). The universe's 64-bit words
// are dealt as evenly as possible — a ceil-divide in word units, replacing
// the old (n/workers + 64) &^ 63 chunk formula, whose over-rounding could
// hand early workers a whole extra word each and starve the tail (n=192,
// workers=3 gave chunks 128/64/0, idling one worker in three). Every worker
// owns at least one word whenever n > 64·(workers-1) — in particular
// whenever n ≥ 64·workers — and ranges always tile [0, n) exactly.
func partitionRange(n, workers, w int) (lo, hi int) {
	words := (n + 63) / 64
	base, rem := words/workers, words%workers
	loWord := w*base + min(w, rem)
	hiWord := loWord + base
	if w < rem {
		hiWord++
	}
	lo, hi = loWord*64, hiWord*64
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// stepParallel executes one synchronous round with opts.Workers goroutines.
// Semantics are identical to the sequential Step.
func (e *Core) stepParallel() {
	n := e.g.N()
	workers := e.opts.Workers

	changesPer := make([][]change, workers)
	var wg sync.WaitGroup
	var bits int64
	for w := 0; w < workers; w++ {
		// Word-aligned ranges so concurrent worklist iteration touches
		// disjoint bitset words.
		lo, hi := partitionRange(n, workers, w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			// Word-aligned partitions are disjoint word ranges, so workers
			// evaluate whole touched words independently.
			changes, drawn := e.kern.EvalWords(lo/64, (hi+63)/64, e.rngs, e.opts.Bias, nil)
			changesPer[w] = changes
			atomic.AddInt64(&bits, drawn)
		}(w, lo, hi)
	}
	wg.Wait()
	e.bits += bits

	e.midRound()

	if e.complete {
		// Counter updates are class-total bumps; committing sequentially is
		// cheap and avoids racing on dirtyAll.
		for _, changes := range changesPer {
			e.commit(changes)
		}
	} else {
		e.commitParallel(changesPer)
	}
	e.round++
	e.refresh()
	e.syncScratch()
}

// commitParallel applies the per-worker change lists concurrently. State
// writes are disjoint (one change per vertex per round), lane codes land
// with atomic word operations, and the dirty frontier uses atomic bit
// insertion. Counter updates split by the plane's hub prefix: hub-row
// updates — the contended ones, every worker hits the same few hubs —
// accumulate into per-worker dense delta arrays merged sequentially in
// worker order after the join (mergeHubDeltas, which also flips the hub
// words' zero-crossing bits); tail updates stay concurrent via native
// atomic adds at full width or CAS loops on the aligned word backing for
// the narrow widths. Counter sums are commutative, so the
// settled values — and with them every membership, coin, and stamp — are
// bit-identical to the sequential commit's.
func (e *Core) commitParallel(changesPer [][]change) {
	switch e.plane.width {
	case 1:
		commitParallelT(e, changesPer, e.plane.t8a, e.plane.t8b)
	case 2:
		commitParallelT(e, changesPer, e.plane.t16a, e.plane.t16b)
	default:
		commitParallelT(e, changesPer, e.plane.t32a, e.plane.t32b)
	}
}

// commitParallelT is the parallel commit body stenciled per tail width.
type commitTotals struct {
	stateCnt []int32
	a, b     int
}

func commitParallelT[T cell](e *Core, changesPer [][]change, tailA, tailB []T) {
	p := e.plane
	hubLen := p.hubLen
	deltas := e.hubDeltaBufsFor(len(changesPer), hubLen)
	var wg sync.WaitGroup
	perWorker := make([]commitTotals, len(changesPer))
	for w, changes := range changesPer {
		if len(changes) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, changes []change) {
			defer wg.Done()
			d := &deltas[w]
			t := commitTotals{stateCnt: make([]int32, len(e.stateCnt))}
			for _, c := range changes {
				u := int(c.U)
				s, ns := e.state[u], c.S
				t.stateCnt[s]--
				t.stateCnt[ns]++
				e.state[u] = ns
				// Only the state code lands here; the tail neighbor-lane
				// flips cannot be ordered race-free against the atomic
				// counter adds below, so the partitioned refresh re-derives
				// them for the dirty words from the settled plane (hub
				// flips happen in the sequential merge).
				e.kern.SetStateAtomic(u, ns)
				e.dirtyW.AddAtomic(u >> 6)
				oldCl, newCl := e.classTab[s], e.classTab[ns]
				if oldCl == newCl {
					continue
				}
				da := int32(newCl&classA) - int32(oldCl&classA)
				db := (int32(newCl&classB) - int32(oldCl&classB)) >> 1
				t.a += int(da)
				t.b += int(db)
				if db != 0 {
					for _, v := range e.g.Neighbors(u) {
						vi := int(v)
						if vi < hubLen {
							if d.dA[vi] == 0 && d.dB[vi] == 0 {
								d.touched = append(d.touched, int32(vi))
							}
							d.dA[vi] += da
							d.dB[vi] += db
							continue
						}
						atomicTailAdd(p.backA, tailA, vi, da)
						atomicTailAdd(p.backB, tailB, vi, db)
						e.dirtyW.AddAtomic(vi >> 6)
					}
				} else if da != 0 {
					for _, v := range e.g.Neighbors(u) {
						vi := int(v)
						if vi < hubLen {
							if d.dA[vi] == 0 {
								d.touched = append(d.touched, int32(vi))
							}
							d.dA[vi] += da
							continue
						}
						atomicTailAdd(p.backA, tailA, vi, da)
						e.dirtyW.AddAtomic(vi >> 6)
					}
				}
			}
			perWorker[w] = t
		}(w, changes)
	}
	wg.Wait()
	for _, t := range perWorker {
		if t.stateCnt == nil {
			continue
		}
		for s, d := range t.stateCnt {
			e.stateCnt[s] += int(d)
		}
		e.totalA += t.a
		e.totalB += t.b
	}
	e.mergeHubDeltas(deltas)
}
