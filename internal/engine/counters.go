package engine

// Counter planes: where the engine's incremental neighbor counters live.
// The flat layout — two full-width []int32 arrays indexed by vertex — pays
// for its generality on every commit: the neighbor scatter is a
// random-access read-modify-write stream into 4 bytes per touched neighbor.
// A counterPlane restructures that storage without changing a single value
// anyone reads:
//
//   - Width-adaptive tail lanes. A counter never exceeds its vertex's
//     degree, so when the maximum degree outside the hub prefix fits in a
//     byte (or a halfword) the tail counters live in uint8 (uint16) lanes —
//     4x (2x) less scatter traffic for the same values. The width is chosen
//     once, at configure time, from the degree profile; a graph whose tail
//     cannot fit falls back to int32 loudly (CounterPlaneInfo.FellBack, and
//     the scatter loops guard the bound with a panic rather than wrap).
//
//   - Hub/tail split. When the hub prefix [0, h) is populated — natural
//     weight-sorted generator order, or graph.DegreeBucketOrder packing
//     hubs first — the hubs keep a dense full-width int32 plane of their
//     own, small enough to stay cache-resident across a round, while the
//     tail (degree < graph.HubDegreeMin, so always narrow) shrinks to its
//     own width. The tail lanes still span [0, n) so a cell index is a
//     vertex id; the unused [0, h) prefix stays zero.
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
// executions under every layout. CheckIntegrity verifies each plane against
// a flat recount plus the layout-selection invariants.

import (
	"fmt"

	"ssmis/internal/graph"
)

// CounterLayout selects the neighbor-counter plane layout (Options).
type CounterLayout uint8

const (
	// LayoutAuto resolves from the degree profile: the hub/tail split when
	// the hub prefix is populated and the tail fits a narrow width, narrow
	// lanes when there is no hub prefix but the graph fits, and flat when
	// only full-width cells would do.
	LayoutAuto CounterLayout = iota
	// LayoutFlat forces the classic full-width []int32 pair — the baseline
	// the differential tests and the BENCH_kernel.json rows compare against.
	LayoutFlat
	// LayoutNarrow forces width-adaptive lanes with no hub split. A graph
	// whose maximum degree needs more than 16 bits falls back to int32
	// loudly (CounterPlaneInfo.FellBack).
	LayoutNarrow
	// LayoutSplit forces the hub/tail split (degenerating to narrow
	// geometry when the graph has no hub prefix).
	LayoutSplit
)

// String names the layout for test output and bench rows.
func (l CounterLayout) String() string {
	switch l {
	case LayoutAuto:
		return "auto"
	case LayoutFlat:
		return "flat"
	case LayoutNarrow:
		return "narrow"
	case LayoutSplit:
		return "split"
	}
	return fmt.Sprintf("layout(%d)", uint8(l))
}

// cell constrains the tail-lane element types. The commit scatters are
// generic over it, so each width gets its own stenciled loop body — no
// per-neighbor width dispatch in the hottest loop of the engine.
type cell interface{ uint8 | uint16 | int32 }

// counterPlane is the storage behind countA/countB off the complete-graph
// fast path. Only the tail pair of the resolved width (t8/t16/t32) has
// length n; the other widths are truncated to zero length, keeping their
// capacity for a later lease.
type counterPlane struct {
	req      CounterLayout // the layout Options asked for
	layout   CounterLayout // resolved: flat, narrow, or split
	width    uint8         // tail cell size in bytes: 1, 2, or 4
	hubLen   int           // hub prefix length h; tail is [h, n)
	fellBack bool          // a narrow/split request needed the int32 fallback
	n        int
	useB     bool

	hubA, hubB []int32 // dense full-width plane for [0, hubLen)

	t8a, t8b   []uint8
	t16a, t16b []uint16
	t32a, t32b []int32
}

// resolveCounterLayout picks the plane geometry for g under the requested
// layout: the hub prefix h is the maximal prefix of vertices with degree >=
// graph.HubDegreeMin (so it is populated exactly when hubs are packed
// first — by the generators' weight-sorted ids or by DegreeBucketOrder),
// and the tail width is the smallest cell holding the maximum degree
// outside it (a counter never exceeds its vertex's degree).
func resolveCounterLayout(g *graph.Graph, req CounterLayout) (layout CounterLayout, width uint8, hubLen int, fellBack bool) {
	if req == LayoutFlat {
		return LayoutFlat, 4, 0, false
	}
	n := g.N()
	h := 0
	if req != LayoutNarrow {
		for h < n && g.Degree(h) >= graph.HubDegreeMin {
			h++
		}
	}
	maxTail := 0
	if h == 0 {
		maxTail = g.MaxDegree()
	} else {
		for u := h; u < n; u++ {
			if d := g.Degree(u); d > maxTail {
				maxTail = d
			}
		}
	}
	switch {
	case maxTail <= 0xFF:
		width = 1
	case maxTail <= 0xFFFF:
		width = 2
	default:
		width = 4
	}
	switch req {
	case LayoutNarrow:
		return LayoutNarrow, width, 0, width == 4
	case LayoutSplit:
		return LayoutSplit, width, h, width == 4
	}
	// Auto: a full-width tail means the split buys nothing the flat array's
	// contiguous prefix doesn't already have.
	if width == 4 {
		return LayoutFlat, 4, 0, false
	}
	if h > 0 {
		return LayoutSplit, width, h, false
	}
	return LayoutNarrow, width, 0, false
}

// configure resolves the layout for g and (re)shapes the plane's arrays,
// zeroed, reusing capacity — Rebuild recounts into it afterwards. The plane
// value itself is owned by the engine or leased from a RunContext; either
// way configure is the only entry point.
func (p *counterPlane) configure(g *graph.Graph, req CounterLayout, useB bool) {
	layout, width, hubLen, fellBack := resolveCounterLayout(g, req)
	n := g.N()
	p.req, p.layout, p.width, p.hubLen, p.fellBack = req, layout, width, hubLen, fellBack
	p.n, p.useB = n, useB
	hubB, tailB := 0, 0 // counter B lengths: zero unless the program engages it
	if useB {
		hubB, tailB = hubLen, n
	}
	p.hubA = growI32(p.hubA, hubLen)
	p.hubB = growI32(p.hubB, hubB)
	p.t8a, p.t8b = p.t8a[:0], p.t8b[:0]
	p.t16a, p.t16b = p.t16a[:0], p.t16b[:0]
	p.t32a, p.t32b = p.t32a[:0], p.t32b[:0]
	switch width {
	case 1:
		p.t8a, p.t8b = growU8(p.t8a, n), growU8(p.t8b, tailB)
	case 2:
		p.t16a, p.t16b = growU16(p.t16a, n), growU16(p.t16b, tailB)
	default:
		p.t32a, p.t32b = growI32(p.t32a, n), growI32(p.t32b, tailB)
	}
}

// a returns counter A of u.
func (p *counterPlane) a(u int) int32 {
	if u < p.hubLen {
		return p.hubA[u]
	}
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
	if u < p.hubLen {
		return p.hubB[u]
	}
	switch p.width {
	case 1:
		return int32(p.t8b[u])
	case 2:
		return int32(p.t16b[u])
	}
	return p.t32b[u]
}

// checkLayout re-resolves the layout from the graph and verifies every
// selection invariant plus the unused-tail-prefix zeros — the plane half of
// CheckIntegrity (the value half is the per-vertex flat recount against
// countA/countB).
func (p *counterPlane) checkLayout(g *graph.Graph, req CounterLayout) error {
	layout, width, hubLen, fellBack := resolveCounterLayout(g, req)
	if p.req != req || p.layout != layout || p.width != width || p.hubLen != hubLen || p.fellBack != fellBack {
		return fmt.Errorf("counter plane (%v w%d h=%d fb=%v) for request %v, resolution says (%v w%d h=%d fb=%v)",
			p.layout, p.width, p.hubLen, p.fellBack, req, layout, width, hubLen, fellBack)
	}
	if p.n != g.N() {
		return fmt.Errorf("counter plane sized for n=%d, graph has %d", p.n, g.N())
	}
	if len(p.hubA) != hubLen || (p.useB && len(p.hubB) != hubLen) {
		return fmt.Errorf("hub plane sized %d/%d for hub prefix %d", len(p.hubA), len(p.hubB), hubLen)
	}
	for u := 0; u < hubLen; u++ {
		if p.tailCell(p.width, false, u) != 0 || (p.useB && p.tailCell(p.width, true, u) != 0) {
			return fmt.Errorf("tail cell %d inside the hub prefix is nonzero", u)
		}
	}
	return nil
}

// tailCell reads tail cell u of the given width (b selects the B lane) —
// slow-path helper for checkLayout only.
func (p *counterPlane) tailCell(width uint8, b bool, u int) int32 {
	switch width {
	case 1:
		if b {
			return int32(p.t8b[u])
		}
		return int32(p.t8a[u])
	case 2:
		if b {
			return int32(p.t16b[u])
		}
		return int32(p.t16a[u])
	}
	if b {
		return p.t32b[u]
	}
	return p.t32a[u]
}

// CounterPlaneInfo reports the resolved counter-plane geometry — the
// observable half of the "loud fallback" contract (tests assert FellBack
// when a forced-narrow graph cannot fit a sub-32-bit width).
type CounterPlaneInfo struct {
	Layout    CounterLayout // resolved layout (flat, narrow, or split)
	WidthBits int           // tail cell width: 8, 16, or 32
	HubLen    int           // hub prefix length (0 without a split)
	FellBack  bool          // narrow/split request fell back to int32
	Active    bool          // false on the complete-graph fast path
}

// CounterPlane reports the engine's resolved counter-plane geometry; the
// zero Info on the complete-graph fast path, which has no counters.
func (e *Core) CounterPlane() CounterPlaneInfo {
	if e.complete || e.plane == nil || e.plane.n != e.g.N() {
		return CounterPlaneInfo{}
	}
	p := e.plane
	return CounterPlaneInfo{
		Layout:    p.layout,
		WidthBits: int(p.width) * 8,
		HubLen:    p.hubLen,
		FellBack:  p.fellBack,
		Active:    true,
	}
}

// panicCounterOverflow is the loud guard behind the narrow widths: the
// width selection proves a counter fits its lane (counter <= degree <= max
// tail degree), so reaching this is a selection bug, never a wrap.
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

// settleHBNT is the settle stenciled per tail width; words fully past the
// hub prefix read the tail lane directly.
func settleHBNT[T cell](p *counterPlane, tailA, tailB []T, hbnA, hbnB []uint64) {
	for wi := range hbnA {
		base := wi * 64
		end := min(base+64, p.n)
		var ma, mb uint64
		if base >= p.hubLen {
			for vi := base; vi < end; vi++ {
				if tailA[vi] != 0 {
					ma |= 1 << uint(vi-base)
				}
			}
			if p.useB {
				for vi := base; vi < end; vi++ {
					if tailB[vi] != 0 {
						mb |= 1 << uint(vi-base)
					}
				}
			}
		} else {
			for vi := base; vi < end; vi++ {
				if p.a(vi) != 0 {
					ma |= 1 << uint(vi-base)
				}
			}
			if p.useB {
				for vi := base; vi < end; vi++ {
					if p.b(vi) != 0 {
						mb |= 1 << uint(vi-base)
					}
				}
			}
		}
		hbnA[wi] = ma
		if p.useB {
			hbnB[wi] = mb
		}
	}
}
