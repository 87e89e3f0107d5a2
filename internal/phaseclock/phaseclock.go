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
// Clock evaluates the rule incrementally. It keeps, per vertex, the number
// of neighbours at the top level, and updates those counts after each
// round from the few vertices that entered the top (from level 0) or left
// it (on the ζ-coin). A vertex below the top with a top neighbour moves to
// D+1 without reading its neighbours; a vertex that leaves the top moves to
// D+1 too; every other vertex gathers the maximum over its neighbours and
// stops at the first one at D+1, the largest level it can find there.
// Levels, coin order and bit accounting are exactly the rule's. On a
// complete graph the clock takes the global maximum instead and keeps no
// counts.
package phaseclock

import (
	"fmt"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// DefaultZetaLog2 is the paper's switch parameter: ζ = 2^-7, giving
// a = 4/ζ = 512 in Definition 28.
const DefaultZetaLog2 = 7

// SwitchA is the paper's a parameter of the (a,3)-logarithmic switch.
const SwitchA = 512

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
	next     []uint8
	// topNbrs[u] counts u's neighbours at the top level. It is derived
	// from levels (never stored in snapshots) and unused on complete
	// graphs.
	topNbrs []int32
	// flips is per-round scratch: the vertices that entered the top (u)
	// or left it (^u) this round, whose neighbours' counts change.
	flips     []int32
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
// allocations — the engine.RunContext lease that closes the last per-run
// O(n) allocation of the 18-state process. levels, next and topNbrs must
// have length g.N(); New zeroes them. flips is the per-round scratch; with
// capacity g.N() it never grows. The caller owns the memory: a clock built
// on leased buffers must not be used after the context's next lease.
func WithBuffers(levels, next []uint8, topNbrs, flips []int32) Option {
	return func(c *Clock) {
		c.levels = levels
		c.next = next
		c.topNbrs = topNbrs
		c.flips = flips[:0]
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
	if c.levels == nil && c.next == nil {
		c.levels = make([]uint8, n)
		c.next = make([]uint8, n)
		c.topNbrs = make([]int32, n)
		c.flips = make([]int32, 0, n)
	} else {
		if len(c.levels) != n || len(c.next) != n || len(c.topNbrs) != n {
			panic(fmt.Sprintf("phaseclock: leased buffers of length %d/%d/%d for graph order %d",
				len(c.levels), len(c.next), len(c.topNbrs), n))
		}
		clear(c.levels)
		clear(c.next)
		clear(c.topNbrs)
	}
	// All levels are zero, so no vertex has a top neighbour: the zeroed
	// counts are already exact.
	c.completeG = isComplete(g)
	return c
}

// isComplete reports whether g is a complete graph on at least two
// vertices, where the global maximum level replaces every gather.
func isComplete(g *graph.Graph) bool {
	n := g.N()
	return n >= 2 && g.M() == n*(n-1)/2
}

// recount rebuilds the top-neighbour counts from the levels in O(n+m).
// Complete graphs keep no counts.
func (c *Clock) recount() {
	if c.completeG {
		return
	}
	clear(c.topNbrs)
	top := c.Top()
	for u, l := range c.levels {
		if l == top {
			for _, v := range c.g.Neighbors(u) {
				c.topNbrs[v]++
			}
		}
	}
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
// corruption, checkpoint restore) and adjusts its neighbours' top counts in
// O(deg u). It panics if the level exceeds Top.
func (c *Clock) SetLevel(u int, level uint8) {
	top := c.Top()
	if level > top {
		panic(fmt.Sprintf("phaseclock: level %d > top %d", level, top))
	}
	wasTop := c.levels[u] == top
	c.levels[u] = level
	if c.completeG || wasTop == (level == top) {
		return
	}
	d := int32(1)
	if wasTop {
		d = -1
	}
	for _, v := range c.g.Neighbors(u) {
		c.topNbrs[v] += d
	}
}

// RandomizeLevels sets every level to an independent uniform value in
// [0, Top], the "arbitrary initial state" of a self-stabilization adversary.
func (c *Clock) RandomizeLevels(rng *xrand.Rand) {
	c.RandomizeLevelsPerm(rng, nil)
}

// RandomizeLevelsPerm is RandomizeLevels under a vertex relabeling: draws
// stay in ORIGINAL vertex order (the u-th draw belongs to original vertex
// u, keeping the rng sequence identical to an unrelabeled clock) but land
// at slot perm[u] of a clock built on the relabeled graph. A nil perm is
// the identity.
func (c *Clock) RandomizeLevelsPerm(rng *xrand.Rand, perm []int32) {
	top := int(c.Top()) + 1
	for u := range c.levels {
		i := u
		if perm != nil {
			i = int(perm[u])
		}
		c.levels[i] = uint8(rng.Intn(top))
	}
	c.recount()
}

// On reports the switch value of u: on iff level(u) <= onMax.
func (c *Clock) On(u int) bool { return c.levels[u] <= c.onMax }

// ExportOn packs the switch values into dst, bit u set iff On(u), 64
// vertices per word in vertex order; bits beyond the universe are left
// zero. This is the word-granular export the engine's bit-sliced kernel
// reads as its gate lane — it runs every round of a kernel-path 3-color
// execution, so the levels are compared eight at a time: a borrow-free
// SWAR byte-less-than over each uint64 of levels (per byte b ≤ 127 and
// threshold t ≤ 128, (b|0x80) − t never borrows across bytes and its high
// bit is clear exactly when b < t), then a multiply-movemask gathers the
// eight flag bits in vertex order. A clock deep enough to break the ≤ 127
// domain (D ≥ 126; the paper's switch has D = 3) takes the byte loop.
// dst must have ⌈n/64⌉ words.
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

// Step advances the clock one synchronous round. rngs[u] is the random
// stream of vertex u; it is drawn from only for vertices at the top level,
// in increasing vertex order.
func (c *Clock) Step(rngs []*xrand.Rand) {
	if len(rngs) != len(c.levels) {
		panic(fmt.Sprintf("phaseclock: Step with %d streams for %d vertices", len(rngs), len(c.levels)))
	}
	if c.completeG {
		c.stepComplete(rngs)
	} else {
		c.stepCounted(rngs)
	}
	c.levels, c.next = c.next, c.levels
}

// stepCounted is one round on a general graph, driven by the top-neighbour
// counts (see the package doc). A gather runs only when the count is zero,
// so top−1 is the largest level it can meet. Count updates wait until every
// vertex has read the counts of this round's levels.
func (c *Clock) stepCounted(rngs []*xrand.Rand) {
	top := c.Top()
	levels, next, topNbrs := c.levels, c.next, c.topNbrs
	flips := c.flips[:0]
	var atTop int64
	for u, l := range levels {
		switch {
		case l == top:
			// The bit is 0 with probability ζ; on 1 the vertex stays at top.
			atTop++
			if rngs[u].BernoulliPow2(c.zetaLog2) {
				next[u] = top - 1
				flips = append(flips, ^int32(u))
			} else {
				next[u] = top
			}
		case l == 0:
			next[u] = top
			flips = append(flips, int32(u))
		case topNbrs[u] > 0:
			next[u] = top - 1
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
			next[u] = m - 1
		}
	}
	for _, f := range flips {
		d := int32(1)
		if f < 0 {
			f, d = ^f, -1
		}
		for _, v := range c.g.Neighbors(int(f)) {
			topNbrs[v] += d
		}
	}
	c.flips = flips
	c.bits += atTop * int64(c.zetaLog2)
}

// stepComplete is one round on a complete graph: every closed neighbourhood
// is the whole vertex set, so one global maximum serves every vertex.
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
				c.next[u] = top - 1
			} else {
				c.next[u] = top
			}
		case l == 0:
			c.next[u] = top
		default:
			c.next[u] = globalMax - 1 // globalMax >= l
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
