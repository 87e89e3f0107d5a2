package engine

// Counter planes: where the engine's incremental neighbor counters live.
// The commit's neighbor scatter is a random-access read-modify-write stream
// into one counter cell per touched neighbor, so the cell size sets its
// traffic. A counter never exceeds its vertex's degree, so the plane stores
// every counter in the narrowest lane that holds the graph's maximum degree:
// uint8 up to degree 255, uint16 up to 65535, int32 above — 4x (2x) less
// scatter traffic than full-width cells, for the same values. The width is
// chosen at Rebuild from g.MaxDegree() alone, and the scatter loops guard
// the bound with a panic rather than wrap.
//
// One goroutine owns a run (parallelism lives in the batch pool, across
// runs), so every lane is a plain typed slice that the commit writes in
// place. Each width keeps its own A/B slices, reused across RunContext
// leases, so a context alternating between graphs of different widths
// reallocates nothing once warm.
//
// Determinism: the plane changes only where counters are stored, never what
// any read returns, so membership refresh, coin draws, and coverage stamps —
// pure functions of those values — replay coin-for-coin bit-identical
// executions at every width. CheckIntegrity verifies the width against the
// maximum degree and every counter against a recount.

import (
	"fmt"

	"ssmis/internal/graph"
)

// CounterLayout names the resolved counter-plane layout (CounterPlaneInfo).
type CounterLayout uint8

const (
	// LayoutFlat is the full-width []int32 pair: graphs whose maximum
	// degree needs more than 16 bits.
	LayoutFlat CounterLayout = iota
	// LayoutNarrow is the uint8 or uint16 lanes of every other graph.
	LayoutNarrow
)

// String names the layout for test output and bench rows.
func (l CounterLayout) String() string {
	switch l {
	case LayoutFlat:
		return "flat"
	case LayoutNarrow:
		return "narrow"
	}
	return fmt.Sprintf("layout(%d)", uint8(l))
}

// cell constrains the lane element types. The commit scatters are generic
// over it, so each width gets its own stenciled loop body — no per-neighbor
// width dispatch in the hottest loop of the engine.
type cell interface{ uint8 | uint16 | int32 }

// counterPlane is the storage behind countA/countB off the complete-graph
// fast path. Only the lane pair of the resolved width (t8/t16/t32) has
// length n; the other widths are truncated to zero length, keeping their
// capacity for a later lease.
type counterPlane struct {
	flat  bool  // int32 lanes at every degree (the tests' ForceFlatCounters)
	width uint8 // cell size in bytes: 1, 2, or 4
	n     int
	useB  bool

	t8a, t8b   []uint8
	t16a, t16b []uint16
	t32a, t32b []int32
}

// laneWidth returns the cell size in bytes for g: the smallest that holds
// its maximum degree, or 4 when flat.
func laneWidth(g *graph.Graph, flat bool) uint8 {
	switch d := g.MaxDegree(); {
	case flat || d > 0xFFFF:
		return 4
	case d > 0xFF:
		return 2
	}
	return 1
}

// configure resolves the width for g and (re)shapes the plane's arrays,
// zeroed, reusing capacity — Rebuild recounts into it afterwards. The plane
// value itself is owned by the engine or leased from a RunContext; either
// way configure is the only entry point.
func (p *counterPlane) configure(g *graph.Graph, useB bool) {
	n := g.N()
	p.width, p.n, p.useB = laneWidth(g, p.flat), n, useB
	nb := 0 // counter B length: zero unless the program engages it
	if useB {
		nb = n
	}
	p.t8a, p.t8b = p.t8a[:0], p.t8b[:0]
	p.t16a, p.t16b = p.t16a[:0], p.t16b[:0]
	p.t32a, p.t32b = p.t32a[:0], p.t32b[:0]
	switch p.width {
	case 1:
		p.t8a, p.t8b = growU8(p.t8a, n), growU8(p.t8b, nb)
	case 2:
		p.t16a, p.t16b = growU16(p.t16a, n), growU16(p.t16b, nb)
	default:
		p.t32a, p.t32b = growI32(p.t32a, n), growI32(p.t32b, nb)
	}
}

// a returns counter A of u.
func (p *counterPlane) a(u int) int32 {
	switch p.width {
	case 1:
		return int32(p.t8a[u])
	case 2:
		return int32(p.t16a[u])
	}
	return p.t32a[u]
}

// b returns counter B of u.
func (p *counterPlane) b(u int) int32 {
	switch p.width {
	case 1:
		return int32(p.t8b[u])
	case 2:
		return int32(p.t16b[u])
	}
	return p.t32b[u]
}

// checkLayout verifies the plane's width against g's maximum degree — the
// plane half of CheckIntegrity (the value half is the per-vertex recount
// against countA/countB).
func (p *counterPlane) checkLayout(g *graph.Graph) error {
	if want := laneWidth(g, p.flat); p.width != want {
		return fmt.Errorf("counter lanes %d bits wide, maximum degree %d (flat %v) needs %d",
			8*int(p.width), g.MaxDegree(), p.flat, 8*int(want))
	}
	if p.n != g.N() {
		return fmt.Errorf("counter plane sized for n=%d, graph has %d", p.n, g.N())
	}
	return nil
}

// CounterPlaneInfo reports the resolved counter-plane geometry.
type CounterPlaneInfo struct {
	Layout    CounterLayout // flat (32-bit lanes) or narrow (8 or 16)
	WidthBits int           // lane width: 8, 16, or 32
	HubLen    int           // always 0: the plane has no hub prefix
	Active    bool          // false on the complete-graph fast path
}

// CounterPlane reports the engine's resolved counter-plane geometry; the
// zero Info on the complete-graph fast path, which has no counters.
func (e *Core) CounterPlane() CounterPlaneInfo {
	if e.complete || e.plane == nil || e.plane.n != e.g.N() {
		return CounterPlaneInfo{}
	}
	layout := LayoutNarrow
	if e.plane.width == 4 {
		layout = LayoutFlat
	}
	return CounterPlaneInfo{Layout: layout, WidthBits: int(e.plane.width) * 8, Active: true}
}

// panicCounterOverflow is the loud guard behind the narrow widths: the
// width selection proves a counter fits its lane (counter <= degree <= max
// degree), so reaching this is a selection bug, never a wrap.
func panicCounterOverflow(v int, val int32) {
	panic(fmt.Sprintf("engine: neighbor counter of vertex %d overflows its lane width (value %d)", v, val))
}

// settleHBN derives the lanes' hasANbr/hasBNbr bits of every lane word
// from the freshly recounted plane (Rebuild); between rebuilds the commit
// flips them incrementally at each counter's zero crossing.
func (e *Core) settleHBN() {
	p := e.plane
	hbnA, hbnB := e.kern.HBNWords()
	switch p.width {
	case 1:
		settleHBNT(p, p.t8a, p.t8b, hbnA, hbnB)
	case 2:
		settleHBNT(p, p.t16a, p.t16b, hbnA, hbnB)
	default:
		settleHBNT(p, p.t32a, p.t32b, hbnA, hbnB)
	}
}

// settleHBNT is the settle stenciled per lane width.
func settleHBNT[T cell](p *counterPlane, cntA, cntB []T, hbnA, hbnB []uint64) {
	for wi := range hbnA {
		base := wi * 64
		end := min(base+64, p.n)
		var ma, mb uint64
		for vi := base; vi < end; vi++ {
			if cntA[vi] != 0 {
				ma |= 1 << uint(vi-base)
			}
		}
		hbnA[wi] = ma
		if p.useB {
			for vi := base; vi < end; vi++ {
				if cntB[vi] != 0 {
					mb |= 1 << uint(vi-base)
				}
			}
			hbnB[wi] = mb
		}
	}
}
