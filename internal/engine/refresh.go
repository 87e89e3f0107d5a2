package engine

// Membership refresh. After a commit, the engine re-derives the cached
// work/active memberships and advances the monotone coverage tracking for
// every lane word whose vertices' state or neighborhood changed (the dirty
// frontier) — or for every word on the complete-graph fast path, where
// counters are class totals and a class change can touch every vertex.
// Those full rounds are O(n/64) words, and on high-churn rounds even the
// dirty frontier approaches the whole graph, so with Workers > 1 the
// refresh is partitioned and parallel in two phases:
//
//  1. Word-local re-derive. The lane words are cut into the same
//     word-aligned partitions the parallel step uses (partitionRange), and
//     each worker first settles the neighbor bits of its dirty words that
//     the parallel commit could not flip, then re-derives their work/active
//     words. The words are disjoint across workers; the workCnt/activeCnt
//     movements accumulate in per-worker deltas, merged in worker order
//     after the join. Everything this phase reads — lanes, counters, the
//     dirty set, I_t — is frozen outside the worker's own words.
//
//  2. Ordered coverage stamping. A vertex newly entering the stable core
//     I_t stamps coveredAt on itself AND its neighbors — a cross-partition
//     write — so phase 1 only collects the new entrants per worker and
//     phase 2 stamps them sequentially in ascending vertex order
//     (concatenating the per-worker lists preserves it). The entrant set
//     is bounded by this round's changes, not by n: the scan is the part
//     worth parallelizing, the stamping is not.
//
// Determinism: phase 1's membership words and count deltas are
// order-independent, and phase 2 stamps every covered vertex with the same
// current round the sequential path would, so the refresh is bit-identical
// at every worker count — including the coveredAt stamps that back the
// local-times instrument.

import (
	"math/bits"
	"sync"
)

// refresh re-derives worklist/active/coverage membership for the dirty
// frontier (or every word on a complete-graph round that moved a class
// total).
func (e *Core) refresh() {
	if e.opts.Workers > 1 {
		e.refreshPartitioned()
		return
	}
	e.refreshSeq()
}

// refreshSeq is the sequential refresh. The incremental neighbor-lane
// maintenance in commit keeps the lanes exact here except on the
// complete-graph path, which re-derives them from the class totals in
// O(n/64) words. DaemonStep calls it directly whatever the worker count: a
// daemon step moves a handful of vertices, so spawning the worker pool per
// step would be pure coordination overhead (both paths are bit-identical,
// so this is a scheduling choice, never a semantic one).
func (e *Core) refreshSeq() {
	if e.dirtyAll {
		e.kern.FillHBNComplete(e.totalA, e.totalB)
		for wi := 0; wi < e.kern.Words(); wi++ {
			e.refreshWord(wi)
		}
	} else {
		e.dirtyW.ForEachWord(func(base int, w uint64) {
			for ; w != 0; w &= w - 1 {
				e.refreshWord(base + bits.TrailingZeros64(w))
			}
		})
	}
	e.dirtyAll = false
	e.dirtyW.Clear()
}

// refreshWord re-derives the memberships of word wi's 64 vertices from the
// lanes: one store per bitset word, popcount deltas, and the new stable-core
// entrants stamped in ascending order. When the rule's touched and active
// tables coincide (2-state) the second predicate evaluation is skipped.
func (e *Core) refreshWord(wi int) {
	tw := e.kern.TouchedWord(wi)
	if old := e.work.Word(wi); tw != old {
		e.work.SetWord(wi, tw)
		e.workCnt += bits.OnesCount64(tw) - bits.OnesCount64(old)
	}
	aw := tw
	if !e.prog.TouchedIsActive() {
		aw = e.kern.ActiveWord(wi)
	}
	if old := e.active.Word(wi); aw != old {
		e.active.SetWord(wi, aw)
		e.activeCnt += bits.OnesCount64(aw) - bits.OnesCount64(old)
	}
	if ent := e.kern.CoreWord(wi) &^ e.inI.Word(wi); ent != 0 {
		base := wi * 64
		for w := ent; w != 0; w &= w - 1 {
			e.enterCore(base + bits.TrailingZeros64(w))
		}
	}
}

// enterCore records v's entry into the stable core: v joins I_t and its
// whole closed neighborhood is stamped covered (phase 2 — writes neighbor
// stamps, so the parallel refresh serializes calls in vertex order).
func (e *Core) enterCore(v int) {
	e.inI.Add(v)
	e.cover(v)
	for _, w := range e.g.Neighbors(v) {
		e.cover(int(w))
	}
}

// cover stamps v's first entry into N+(I_t) with the current round.
func (e *Core) cover(v int) {
	if e.coveredAt[v] < 0 {
		e.coveredAt[v] = int32(e.round)
		e.coveredCnt++
	}
}

// refreshScratch is one worker's phase-1 accumulator: membership-count
// deltas plus the partition's new stable-core entrants in vertex order.
type refreshScratch struct {
	dWork, dActive int
	entrants       []int32
}

// refreshBufsFor returns the per-worker phase-1 accumulators, growing the
// engine's scratch (context-leased or owned) to the worker count and
// keeping already-grown entrant buffers across the reshape.
func (e *Core) refreshBufsFor(workers int) []refreshScratch {
	if cap(e.refreshScr) < workers {
		grown := make([]refreshScratch, workers)
		copy(grown, e.refreshScr[:cap(e.refreshScr)])
		e.refreshScr = grown
	}
	e.refreshScr = e.refreshScr[:workers]
	return e.refreshScr
}

// refreshPartitioned is the two-phase partitioned refresh with
// opts.Workers goroutines. Phase 1 first settles the neighbor bits the
// parallel commit could not flip — re-deriving each partition's dirty words
// from the post-commit counter plane, or on a complete-graph full round
// refilling its words from the class totals — then derives memberships per
// word; entrants are collected per worker and stamped sequentially in
// phase 2. Words fully inside the hub prefix need no settling: the
// sequential delta merge already flipped their zero-crossing bits exactly.
func (e *Core) refreshPartitioned() {
	n := e.g.N()
	workers := e.opts.Workers
	bufs := e.refreshBufsFor(workers)
	sameTA := e.prog.TouchedIsActive()
	full := e.dirtyAll // set only on the complete-graph path
	hubSkip := 0
	if !e.complete {
		hubSkip = e.plane.hubWords
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		bufs[w].dWork, bufs[w].dActive = 0, 0
		bufs[w].entrants = bufs[w].entrants[:0]
		lo, hi := partitionRange(n, workers, w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			loWord, hiWord := lo/64, (hi+63)/64
			dw, da := 0, 0
			entrants := bufs[w].entrants
			scanWord := func(wi int) {
				tw := e.kern.TouchedWord(wi)
				if old := e.work.Word(wi); tw != old {
					e.work.SetWord(wi, tw)
					dw += bits.OnesCount64(tw) - bits.OnesCount64(old)
				}
				aw := tw
				if !sameTA {
					aw = e.kern.ActiveWord(wi)
				}
				if old := e.active.Word(wi); aw != old {
					e.active.SetWord(wi, aw)
					da += bits.OnesCount64(aw) - bits.OnesCount64(old)
				}
				if ent := e.kern.CoreWord(wi) &^ e.inI.Word(wi); ent != 0 {
					base := wi * 64
					for x := ent; x != 0; x &= x - 1 {
						entrants = append(entrants, int32(base+bits.TrailingZeros64(x)))
					}
				}
			}
			if full {
				e.kern.FillHBNCompleteWords(e.totalA, e.totalB, loWord, hiWord)
				for wi := loWord; wi < hiWord; wi++ {
					scanWord(wi)
				}
			} else {
				e.dirtyW.ForEachWordInRange(loWord, hiWord, func(base int, w uint64) {
					for ; w != 0; w &= w - 1 {
						wi := base + bits.TrailingZeros64(w)
						if !e.complete && wi >= hubSkip {
							e.settleHBNWords(wi, wi+1)
						}
						// Complete graph: only class-preserving changes reach
						// here (anything else sets dirtyAll), so the lanes are
						// already exact and only memberships need re-deriving.
						// Pure-hub words: exact since the delta merge.
						scanWord(wi)
					}
				})
			}
			bufs[w].dWork, bufs[w].dActive, bufs[w].entrants = dw, da, entrants
		}(w, lo, hi)
	}
	wg.Wait()
	for w := range bufs {
		e.workCnt += bufs[w].dWork
		e.activeCnt += bufs[w].dActive
	}
	// Phase 2: per-worker entrant lists are ascending and the partition is
	// ordered, so concatenation stamps in ascending vertex order.
	for w := range bufs {
		for _, v := range bufs[w].entrants {
			e.enterCore(int(v))
		}
	}
	e.dirtyAll = false
	e.dirtyW.Clear()
}
