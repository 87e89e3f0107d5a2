package engine

// Membership refresh. After a commit, the engine re-derives the cached
// work/active memberships and advances the monotone coverage tracking for
// every lane word whose vertices' state or neighborhood changed (the dirty
// frontier) — or for every word on the complete-graph fast path, where
// counters are class totals and a class change can touch every vertex.
// Each word's memberships come from the compiled predicates in one store,
// and the new stable-core entrants are stamped in ascending vertex order.
// The refresh runs on the goroutine that owns the run, like the rest of the
// round; parallelism lives in the batch pool, across runs.

import "math/bits"

// refresh re-derives worklist/active/coverage membership for the dirty
// frontier (or every word on a complete-graph round that moved a class
// total). The incremental neighbor-lane maintenance in commit keeps the
// lanes exact here except on the complete-graph path, which re-derives them
// from the class totals in O(n/64) words.
func (e *Core) refresh() {
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
// whole closed neighborhood is stamped covered. Its neighbors' counter B
// keeps the class v enters with, since commitT stops scattering v's class-B
// flips from here on; frozenB records that class.
func (e *Core) enterCore(v int) {
	e.inI.Add(v)
	if e.classTab[e.state[v]]&classB != 0 {
		e.frozenB.Add(v)
	}
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
