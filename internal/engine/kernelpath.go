package engine

// The bit-sliced execution path — the engine's only one. For all three of
// the paper's rules the engine's per-vertex bookkeeping — worklist bit,
// active bit, stable-core bit — is a pure boolean function of at most four
// bits per vertex (the 2-bit state code plus the zero/nonzero projections of
// the two neighbor counters), so the whole evaluate/commit/refresh cycle
// runs 64 vertices per machine word over kernel.Lanes:
//
//   - Step evaluates whole touched words (kernel.EvalWords) against the
//     rule's compiled program, drawing each coin from that vertex's own
//     stream in ascending order;
//   - the commit (this file) maintains the neighbor lanes incrementally: a
//     bit flips exactly when the vertex's counter crosses zero (for the
//     3-state rule that includes the black1→black0 demotion's counter-B
//     decrement). Counter B counts each neighbor's last scattered class: a
//     vertex in the stable core I_t stops scattering its black0↔black1
//     flips, because every neighbor of I_t is a frozen white that reads only
//     counter A;
//   - refresh (refresh.go) re-derives memberships a word at a time: the
//     touched and active words come from the compiled predicates, stored
//     wholesale into the work/active bitsets with popcount deltas, and the
//     new stable-core entrants fall out of CoreWord &^ inI — refreshing a
//     whole dirty word is idempotent for its non-dirty vertices, whose
//     derived bits cannot have changed;
//   - a rule with a mid-round sub-process (the 3-color switch) participates
//     through SubProcess: MidRound updates the gate lane in place, and
//     Rebuild exports it whole, so evaluation reads σ_{t-1} exactly as
//     Definition 28 does.
//
// Daemon steps (daemon.go) move a handful of vertices through the same
// commit and refresh; only their evaluation is per vertex, through the
// program's per-vertex transition (kernel.Program.Next).
//
// The whole cycle runs on the goroutine that owns the run, so the commit
// writes counters, lanes and the dirty set in place with no atomics;
// parallelism lives in the batch pool, across runs.

import "fmt"

// commit applies a batch of transitions: it lands every change's state and
// lane code, keeps the class totals, maintains the neighbor lanes
// incrementally — a hasANbr/hasBNbr bit flips exactly when the neighbor's
// counter crosses zero (the crossing tests nv == da / nv == 0 fire only on
// the matching delta sign, since counters never go negative) — and records
// the dirty frontier. Dirty tracking is per lane word (dirtyW), not per
// vertex: the refresh re-derives whole words anyway, and the word-index set
// is small enough to stay cache-resident under the random neighbor writes.
// The lane flips write the raw hbn words directly (kernel.HBNWords) and the
// loops are split per (da, db) shape: this is the dominant flat cost of the
// whole engine, and a call or a loop-invariant branch per neighbor is
// measurable at n = 10^6. Off the complete-graph fast path the neighbor
// scatter dispatches once per batch on the counter plane's lane width.
func (e *Core) commit(changes []change) {
	if e.complete {
		e.commitComplete(changes)
		return
	}
	switch e.plane.width {
	case 1:
		commitT(e, changes, e.plane.t8a, e.plane.t8b)
	case 2:
		commitT(e, changes, e.plane.t16a, e.plane.t16b)
	default:
		commitT(e, changes, e.plane.t32a, e.plane.t32b)
	}
}

// commitComplete is the commit on the complete-graph fast path: lane codes land, class changes dirty the whole universe, and the
// refresh refills the neighbor lanes from the class totals.
func (e *Core) commitComplete(changes []change) {
	loL, hiL := e.kern.StateWords()
	prog := e.prog
	useHi := prog.UseHi()
	for _, c := range changes {
		u := int(c.U)
		s, ns := e.state[u], c.S
		e.stateCnt[s]--
		e.stateCnt[ns]++
		e.state[u] = ns
		e.dirtyW.Add(u >> 6)
		code := prog.CodeOf(ns)
		if code > 3 {
			panic(fmt.Sprintf("kernel: state %d not in the lane encoding", ns))
		}
		ubit := uint64(1) << (uint(u) & 63)
		if code&1 != 0 {
			loL[u>>6] |= ubit
		} else {
			loL[u>>6] &^= ubit
		}
		if useHi {
			if code&2 != 0 {
				hiL[u>>6] |= ubit
			} else {
				hiL[u>>6] &^= ubit
			}
		}
		oldCl, newCl := e.classTab[s], e.classTab[ns]
		if oldCl == newCl {
			continue
		}
		e.totalA += int(newCl&classA) - int(oldCl&classA)
		e.totalB += (int(newCl&classB) - int(oldCl&classB)) >> 1
		e.dirtyAll = true
	}
}

// commitT is the commit over a counter plane with cell type T — the
// engine's hottest loop, stenciled per width so the neighbor scatter
// carries no width dispatch. The deltas are single steps (da, db in
// {-1,0,1}; db is 0 unless the program engages counter B), so a counter
// crosses zero exactly when its new value is da (rising) or 0 (falling);
// lane writes round-trip through int32 so a narrow lane can never wrap
// silently (the check folds away at full width).
//
// A change whose only class delta is counter B (a 3-state black0↔black1
// flip) skips its neighbor loop when u is in I_t. Every neighbor of u is
// then white with a black neighbor, frozen while u stays in I_t, and its
// touched and active bits do not read counter B — so counter B counts each
// neighbor's last scattered class, and for an I_t vertex that is the class
// it entered with (frozenB). Skipping them removes 60–62% of a 3-state
// run's neighbor-counter writes on G(10^6, avg 10). A vertex leaves I_t
// only through Rebuild, which recounts every counter; CheckIntegrity
// recounts under the same invariant and fails if the lag could change any
// touched or active bit.
func commitT[T cell](e *Core, changes []change, cntA, cntB []T) {
	hbnA, hbnB := e.kern.HBNWords()
	loL, hiL := e.kern.StateWords()
	prog := e.prog
	useHi := prog.UseHi()
	for _, c := range changes {
		u := int(c.U)
		s, ns := e.state[u], c.S
		e.stateCnt[s]--
		e.stateCnt[ns]++
		e.state[u] = ns
		e.dirtyW.Add(u >> 6)
		code := prog.CodeOf(ns)
		if code > 3 {
			panic(fmt.Sprintf("kernel: state %d not in the lane encoding", ns))
		}
		ubit := uint64(1) << (uint(u) & 63)
		if code&1 != 0 {
			loL[u>>6] |= ubit
		} else {
			loL[u>>6] &^= ubit
		}
		if useHi {
			if code&2 != 0 {
				hiL[u>>6] |= ubit
			} else {
				hiL[u>>6] &^= ubit
			}
		}
		oldCl, newCl := e.classTab[s], e.classTab[ns]
		if oldCl == newCl {
			continue
		}
		da := int32(newCl&classA) - int32(oldCl&classA)
		db := (int32(newCl&classB) - int32(oldCl&classB)) >> 1
		e.totalA += int(da)
		e.totalB += int(db)
		switch {
		case da != 0 && db != 0:
			for _, v := range e.g.Neighbors(u) {
				vi := int(v)
				bit := uint64(1) << (uint(vi) & 63)
				na := int32(cntA[vi]) + da
				if int32(T(na)) != na {
					panicCounterOverflow(vi, na)
				}
				cntA[vi] = T(na)
				nb := int32(cntB[vi]) + db
				if int32(T(nb)) != nb {
					panicCounterOverflow(vi, nb)
				}
				cntB[vi] = T(nb)
				if na == da {
					hbnA[vi>>6] |= bit
				} else if na == 0 {
					hbnA[vi>>6] &^= bit
				}
				if nb == db {
					hbnB[vi>>6] |= bit
				} else if nb == 0 {
					hbnB[vi>>6] &^= bit
				}
				e.dirtyW.Add(vi >> 6)
			}
		case db != 0:
			if e.inI.Contains(u) {
				continue
			}
			for _, v := range e.g.Neighbors(u) {
				vi := int(v)
				nb := int32(cntB[vi]) + db
				if int32(T(nb)) != nb {
					panicCounterOverflow(vi, nb)
				}
				cntB[vi] = T(nb)
				if nb == db {
					hbnB[vi>>6] |= 1 << (uint(vi) & 63)
				} else if nb == 0 {
					hbnB[vi>>6] &^= 1 << (uint(vi) & 63)
				}
				e.dirtyW.Add(vi >> 6)
			}
		case da != 0:
			for _, v := range e.g.Neighbors(u) {
				vi := int(v)
				na := int32(cntA[vi]) + da
				if int32(T(na)) != na {
					panicCounterOverflow(vi, na)
				}
				cntA[vi] = T(na)
				if na == da {
					hbnA[vi>>6] |= 1 << (uint(vi) & 63)
				} else if na == 0 {
					hbnA[vi>>6] &^= 1 << (uint(vi) & 63)
				}
				e.dirtyW.Add(vi >> 6)
			}
		}
	}
}
