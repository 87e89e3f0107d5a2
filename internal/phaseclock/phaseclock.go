// Package phaseclock implements the randomized phase-clock machinery the
// paper builds its logarithmic switch on.
//
// The generalized clock (RandPhase of Emek and Keren, PODC 2021 [12]) has
// per-vertex levels {0, 1, ..., D+2} updated in synchronous rounds:
//
//	if level(u) = D+2: draw a bit that is 0 with probability ζ
//	if (level(u) = D+2 and the bit is 1) or level(u) = 0: level'(u) = D+2
//	else:                                 level'(u) = max over N+(u) of level − 1
//
// The paper's randomized logarithmic switch (Definition 26) is exactly the
// D = 3 instance (6 states, levels 0..5) with the on/off mapping
// σ(u) = on iff level(u) ≤ 2, and parameter ζ = 2^-7 (so a = 4/ζ = 512).
// Unlike RandPhase, the switch is used as a local, non-synchronized counter:
// the paper only needs properties (S1)–(S3) of Definition 25.
//
// Clock evaluates the rule on a dirty frontier. A vertex strictly between
// level 0 and the top is a function of its closed neighbourhood alone, so
// it keeps its level when nothing there changed last round. Each round
// therefore evaluates only the top vertices, which draw their ζ-coins, and
// the frontier the previous round left behind. The clock keeps, per vertex,
// the number of neighbours at the top. A vertex below the top with a top
// neighbour moves to D+1 without reading its neighbours, a vertex that
// leaves the top moves to D+1 too, and every other frontier vertex gathers
// the maximum over its neighbours, stopping at the first one at D+1, the
// largest level it can find there. Once the round's moves land, the
// frontier holds the vertices that moved (those now at the top are in the
// top set), each neighbour whose top-neighbour count crossed zero, and,
// around every other move, each neighbour left with no top neighbour whose
// maximum the move can change. A neighbour that keeps a top neighbour stays
// at D+1. When those other moves would mark more neighbour entries than
// fullPassSpread allows, the next round evaluates every vertex instead.
//
// Levels, coins and bit accounting are exactly the rule's. Over 1,000
// rounds from random levels, a round on sparse G(10^5, avg 10) evaluates
// 6.5% of the vertices, two thirds of them top vertices drawing coins, and
// 0.55% move. The dense, diameter-2 G(512, 0.5) evaluates 18%, nearly all
// at the top, and takes a full pass in 12 rounds, its synchronized
// descents. BenchmarkClockSparse fell from 3.1 s to 0.26–0.29 s per 1,000
// rounds and BenchmarkClockDense from 1.9 ms to 1.2 ms (2-vCPU Intel Xeon,
// Go 1.24). On a complete graph the clock takes the global maximum
// instead and keeps no counts or sets.
package phaseclock

import (
	"fmt"
	"math/bits"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// DefaultZetaLog2 is the paper's switch parameter: ζ = 2^-7, giving
// a = 4/ζ = 512 in Definition 28.
const DefaultZetaLog2 = 7

// SwitchA is the paper's a parameter of the (a,3)-logarithmic switch.
const SwitchA = 512

// fullPassSpread bounds, as a multiple of n, the neighbour entries one
// round's moves between levels (neither into nor out of the top) may mark
// before the next round evaluates every vertex instead. Marking costs a
// count read per entry; a full pass costs a visit per vertex plus the
// gathers the frontier would have skipped. BenchmarkClockSparse never
// reaches the bound after its first round. BenchmarkClockDense, whose
// descents spread over 256 entries per vertex, takes 1.0–1.1 ms at bounds
// from 1/8 to 8 and 2.2 ms with no full pass. The bound matters between
// the two: a D=3 clock on G(4096, avg 40) took 7.0–7.5 ms per 1,000 rounds
// at bounds 1 to 4, 11.2 ms at 1/4 and 8.0 ms with no full pass (2-vCPU
// Intel Xeon, Go 1.24).
const fullPassSpread = 1

// Clock is a randomized phase clock over a graph. It is driven externally:
// the owner supplies per-vertex random streams to Step, which lets the
// 3-color MIS process interleave its color coins and switch coins
// deterministically on a single per-vertex stream.
type Clock struct {
	g        *graph.Graph
	d        int // RandPhase parameter D; levels are 0..d+2
	zetaLog2 uint
	onMax    uint8 // σ(u) = on iff level(u) <= onMax
	levels   []uint8
	// topNbrs[u] counts u's neighbours at the top level. top is the set
	// of vertices at the top level, 64 per word, and topCnt its size;
	// front is the set of other vertices the next round evaluates. All
	// four are derived from levels (never stored in snapshots) and unused
	// on complete graphs.
	topNbrs    []int32
	top, front []uint64
	topCnt     int
	// moves is per-round scratch: the level changes of the last Step,
	// each packed as vertex<<16 | from<<8 | to.
	moves     []uint64
	bits      int64
	completeG bool // fast path: global max level suffices
}

// Option configures a Clock.
type Option func(*Clock)

// WithD sets the RandPhase parameter D (default 3, the paper's switch).
func WithD(d int) Option {
	return func(c *Clock) { c.d = d }
}

// WithZetaLog2 sets ζ = 2^-k (default k = 7).
func WithZetaLog2(k uint) Option {
	return func(c *Clock) { c.zetaLog2 = k }
}

// WithBuffers builds the clock on caller-owned arrays instead of fresh
// allocations — the engine.RunContext lease that keeps a context-backed
// 3-color run free of per-vertex allocations. levels and topNbrs must have
// length g.N(), top and front ⌈g.N()/64⌉ words; New overwrites all four,
// so they may hold anything. moves is the per-round scratch; with capacity
// g.N() it never grows. The caller owns the memory: a clock built on
// leased buffers must not be used after the context's next lease.
func WithBuffers(levels []uint8, topNbrs []int32, top, front, moves []uint64) Option {
	return func(c *Clock) {
		c.levels = levels
		c.topNbrs = topNbrs
		c.top = top
		c.front = front
		c.moves = moves[:0]
	}
}

// New creates a clock with all levels zero (they jump to top on the first
// step). Use RandomizeLevels or SetLevel for arbitrary (adversarial)
// initialization — the process is self-stabilizing, so any initial levels
// are legal.
func New(g *graph.Graph, opts ...Option) *Clock {
	c := &Clock{
		g:        g,
		d:        3,
		zetaLog2: DefaultZetaLog2,
		onMax:    2,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.d < 1 {
		panic(fmt.Sprintf("phaseclock: D must be >= 1, got %d", c.d))
	}
	n := g.N()
	words := (n + 63) / 64
	if c.levels == nil {
		c.levels = make([]uint8, n)
		c.topNbrs = make([]int32, n)
		c.top = make([]uint64, words)
		c.front = make([]uint64, words)
		c.moves = make([]uint64, 0, n)
	} else {
		if len(c.levels) != n || len(c.topNbrs) != n || len(c.top) != words || len(c.front) != words {
			panic(fmt.Sprintf("phaseclock: leased buffers of length %d/%d/%d/%d for graph order %d",
				len(c.levels), len(c.topNbrs), len(c.top), len(c.front), n))
		}
		clear(c.levels)
		clear(c.topNbrs)
		clear(c.top)
	}
	// All levels are zero, so no vertex is or has a neighbour at the top:
	// the zeroed counts and top set are already exact, and every vertex
	// moves on the first step.
	c.completeG = isComplete(g)
	c.markAll()
	return c
}

// isComplete reports whether g is a complete graph on at least two
// vertices, where the global maximum level replaces every gather.
func isComplete(g *graph.Graph) bool {
	n := g.N()
	return n >= 2 && g.M() == n*(n-1)/2
}

// mark puts u on the next round's frontier.
func (c *Clock) mark(u int32) { c.front[u>>6] |= 1 << (uint32(u) & 63) }

// markAll puts every vertex on the next round's frontier: the next round
// is a full pass.
func (c *Clock) markAll() {
	for i := range c.front {
		c.front[i] = ^uint64(0)
	}
	if rem := len(c.levels) % 64; rem != 0 {
		c.front[len(c.front)-1] = 1<<uint(rem) - 1
	}
}

// recount rebuilds the top-neighbour counts and the top set from the
// levels in O(n+m), and makes the next round a full pass. Complete graphs
// keep neither.
func (c *Clock) recount() {
	if c.completeG {
		return
	}
	clear(c.topNbrs)
	clear(c.top)
	c.topCnt = 0
	top := c.Top()
	for u, l := range c.levels {
		if l == top {
			c.top[u>>6] |= 1 << (uint(u) & 63)
			c.topCnt++
			for _, v := range c.g.Neighbors(u) {
				c.topNbrs[v]++
			}
		}
	}
	c.markAll()
}

// Rebind switches the clock to a new graph on the same vertex set, keeping
// all levels (topology churn) and recounting top neighbours on the new
// graph. It panics on order mismatch.
func (c *Clock) Rebind(g *graph.Graph) {
	if g.N() != c.g.N() {
		panic(fmt.Sprintf("phaseclock: Rebind to order %d != %d", g.N(), c.g.N()))
	}
	c.g = g
	c.completeG = isComplete(g)
	c.recount()
}

// Top returns the highest level, D+2.
func (c *Clock) Top() uint8 { return uint8(c.d + 2) }

// States returns the number of per-vertex states, D+3.
func (c *Clock) States() int { return c.d + 3 }

// RandomBits returns the total random bits consumed so far (a ζ = 2^-k coin
// costs k bits).
func (c *Clock) RandomBits() int64 { return c.bits }

// SetRandomBits overwrites the bit accounting; used when restoring a clock
// from a checkpoint.
func (c *Clock) SetRandomBits(bits int64) { c.bits = bits }

// Level returns the current level of u.
func (c *Clock) Level(u int) uint8 { return c.levels[u] }

// SetLevel overwrites the level of u (adversarial initialization,
// corruption, checkpoint restore), adjusts the top set and its neighbours'
// top counts, and puts u and its neighbours on the frontier, in O(deg u).
// It panics if the level exceeds Top.
func (c *Clock) SetLevel(u int, level uint8) {
	top := c.Top()
	if level > top {
		panic(fmt.Sprintf("phaseclock: level %d > top %d", level, top))
	}
	wasTop := c.levels[u] == top
	c.levels[u] = level
	if c.completeG {
		return
	}
	var d int32
	if wasTop != (level == top) {
		c.top[u>>6] ^= 1 << (uint(u) & 63)
		d = 1
		if wasTop {
			d = -1
		}
		c.topCnt += int(d)
	}
	c.mark(int32(u))
	for _, v := range c.g.Neighbors(u) {
		c.topNbrs[v] += d
		c.mark(v)
	}
}

// RandomizeLevels sets every level to an independent uniform value in
// [0, Top], the "arbitrary initial state" of a self-stabilization adversary.
func (c *Clock) RandomizeLevels(rng *xrand.Rand) {
	top := int(c.Top()) + 1
	for u := range c.levels {
		c.levels[u] = uint8(rng.Intn(top))
	}
	c.recount()
}

// On reports the switch value of u: on iff level(u) <= onMax.
func (c *Clock) On(u int) bool { return c.levels[u] <= c.onMax }

// ExportOn packs the switch values into dst, bit u set iff On(u), 64
// vertices per word in vertex order; bits beyond the universe are left
// zero. It is the full export behind the engine's gate lane at Rebuild
// (RepackOn keeps the lane current between rebuilds), so the levels are
// compared eight at a time: a borrow-free SWAR byte-less-than over each
// uint64 of levels (per byte b ≤ 127 and threshold t ≤ 128, (b|0x80) − t
// never borrows across bytes and its high bit is clear exactly when
// b < t), then a multiply-movemask gathers the eight flag bits in vertex
// order. A clock deep enough to break the ≤ 127 domain (D ≥ 126; the
// paper's switch has D = 3) takes the byte loop. dst must have ⌈n/64⌉
// words.
func (c *Clock) ExportOn(dst []uint64) {
	n := len(c.levels)
	if len(dst) != (n+63)/64 {
		panic(fmt.Sprintf("phaseclock: ExportOn into %d words for %d vertices", len(dst), n))
	}
	if c.Top() > 127 || c.onMax >= 127 {
		c.exportOnBytes(dst, 0)
		return
	}
	const (
		ones = 0x0101010101010101
		high = 0x8080808080808080
		mov  = 0x0102040810204080 // gathers the eight >>7 flag bits, in order
	)
	thr := uint64(c.onMax+1) * ones
	full := n / 64 // words whose 64 levels all exist
	for wi := 0; wi < full; wi++ {
		var w uint64
		for k := 0; k < 8; k++ {
			b := c.levels[wi*64+k*8:]
			x := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
			lt := ^((x | high) - thr) & high
			w |= (lt >> 7 * mov >> 56) << (k * 8)
		}
		dst[wi] = w
	}
	if full < len(dst) {
		dst[full] = 0
		c.exportOnBytes(dst, full)
	}
}

// exportOnBytes is the byte-at-a-time ExportOn over words [fromWord, ...) —
// the SWAR path's tail, and the whole export for out-of-domain clocks.
func (c *Clock) exportOnBytes(dst []uint64, fromWord int) {
	n := len(c.levels)
	for wi := fromWord; wi < len(dst); wi++ {
		base := wi * 64
		hi := base + 64
		if hi > n {
			hi = n
		}
		var w uint64
		for u := base; u < hi; u++ {
			if c.levels[u] <= c.onMax {
				w |= 1 << uint(u-base)
			}
		}
		dst[wi] = w
	}
}

// RepackOn brings dst from ExportOn's words for the levels before the last
// Step to ExportOn's words for the levels after it, re-packing only the
// bits of the vertices that Step moved. On a complete graph, where every
// vertex moves together, it is a full ExportOn.
func (c *Clock) RepackOn(dst []uint64) {
	if c.completeG {
		c.ExportOn(dst)
		return
	}
	for _, mv := range c.moves {
		if u, from, to := unpack(mv); (to <= c.onMax) != (from <= c.onMax) {
			dst[u>>6] ^= 1 << (uint32(u) & 63)
		}
	}
}

// unpack splits a packed move into its vertex and its levels before and
// after the round.
func unpack(mv uint64) (u int32, from, to uint8) {
	return int32(mv >> 16), uint8(mv >> 8), uint8(mv)
}

// Step advances the clock one synchronous round. rngs[u] is the random
// stream of vertex u; it is drawn from only for vertices at the top level,
// one ζ-coin each.
func (c *Clock) Step(rngs []*xrand.Rand) {
	if len(rngs) != len(c.levels) {
		panic(fmt.Sprintf("phaseclock: Step with %d streams for %d vertices", len(rngs), len(c.levels)))
	}
	if c.completeG {
		c.stepComplete(rngs)
	} else {
		c.stepFrontier(rngs)
	}
}

// stepFrontier is one round on a general graph (see the package doc). It
// evaluates the top set and the frontier against this round's levels and
// counts, collecting the moves, and only then lands them: levels, the top
// set and the counts, and the next round's frontier.
func (c *Clock) stepFrontier(rngs []*xrand.Rand) {
	top := c.Top()
	levels, topNbrs := c.levels, c.topNbrs
	c.bits += int64(c.topCnt) * int64(c.zetaLog2)
	moves := c.moves[:0]
	for wi, w := range c.front {
		w |= c.top[wi]
		c.front[wi] = 0
		for ; w != 0; w &= w - 1 {
			u := wi<<6 | bits.TrailingZeros64(w)
			l := levels[u]
			var to uint8
			switch {
			case l == top:
				// The bit is 0 with probability ζ; on 1 the vertex stays at top.
				if !rngs[u].BernoulliPow2(c.zetaLog2) {
					continue
				}
				to = top - 1
			case l == 0:
				to = top
			case topNbrs[u] > 0:
				to = top - 1
			default:
				m := l
				if m < top-1 {
					for _, v := range c.g.Neighbors(u) {
						if lv := levels[v]; lv > m {
							m = lv
							if m == top-1 {
								break
							}
						}
					}
				}
				to = m - 1
			}
			if to != l {
				moves = append(moves, uint64(u)<<16|uint64(l)<<8|uint64(to))
			}
		}
	}
	spread := 0 // neighbour entries the moves between levels would mark
	for _, mv := range moves {
		u, from, to := unpack(mv)
		levels[u] = to
		switch {
		case to == top:
			c.top[u>>6] |= 1 << (uint32(u) & 63)
			c.topCnt++
			for _, v := range c.g.Neighbors(int(u)) {
				if topNbrs[v] == 0 {
					c.mark(v)
				}
				topNbrs[v]++
			}
		case from == top:
			c.top[u>>6] &^= 1 << (uint32(u) & 63)
			c.topCnt--
			c.mark(u)
			for _, v := range c.g.Neighbors(int(u)) {
				if topNbrs[v]--; topNbrs[v] == 0 {
					c.mark(v)
				}
			}
		default:
			c.mark(u)
			spread += c.g.Degree(int(u))
		}
	}
	if spread > fullPassSpread*len(levels) {
		c.markAll()
	} else if spread > 0 {
		// Once every count has landed, a neighbour v of a move between
		// levels needs evaluating only if it has no top neighbour left. If
		// v neither moved nor crossed zero (both are marked already), its
		// level l is the rule's value for the levels before the round, so
		// the maximum of N+(v) was l+1; the move changes that maximum only
		// if it rose above l+1 or left l+1.
		for _, mv := range moves {
			if u, from, to := unpack(mv); to != top && from != top {
				for _, v := range c.g.Neighbors(int(u)) {
					if l := levels[v]; topNbrs[v] == 0 && (to > l+1 || from == l+1) {
						c.mark(v)
					}
				}
			}
		}
	}
	c.moves = moves
}

// stepComplete is one round on a complete graph: every closed neighbourhood
// is the whole vertex set, so one global maximum serves every vertex, and
// the levels update in place once it is known.
func (c *Clock) stepComplete(rngs []*xrand.Rand) {
	top := c.Top()
	var globalMax uint8
	for _, l := range c.levels {
		if l > globalMax {
			globalMax = l
		}
	}
	for u, l := range c.levels {
		switch {
		case l == top:
			c.bits += int64(c.zetaLog2)
			if rngs[u].BernoulliPow2(c.zetaLog2) {
				c.levels[u] = top - 1
			}
		case l == 0:
			c.levels[u] = top
		default:
			c.levels[u] = globalMax - 1 // globalMax >= l
		}
	}
}

// Standalone is a clock that owns its per-vertex random streams, split
// from one master generator (stream u = master.Split(u)).
type Standalone struct {
	*Clock
	rngs []*xrand.Rand
}

// NewStandalone wraps a clock with its own per-vertex streams derived from
// seed, for experiments that run the switch in isolation (E8).
func NewStandalone(g *graph.Graph, seed uint64, opts ...Option) *Standalone {
	c := New(g, opts...)
	master := xrand.New(seed)
	rngs := make([]*xrand.Rand, g.N())
	for u := range rngs {
		rngs[u] = master.Split(uint64(u))
	}
	c.RandomizeLevels(master.Split(uint64(g.N()) + 1))
	return &Standalone{Clock: c, rngs: rngs}
}

// Step advances the standalone clock one round.
func (s *Standalone) Step() { s.Clock.Step(s.rngs) }
