package phaseclock

import (
	"fmt"
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// refClock is the package-doc rule read literally: every vertex below the
// top gathers the maximum over its whole closed neighbourhood, O(n·Δ) per
// round, with no counts and no early exits. It is the oracle Clock is
// checked against.
type refClock struct {
	g        *graph.Graph
	top      uint8
	zetaLog2 uint
	levels   []uint8
	bits     int64
}

func (r *refClock) step(rngs []*xrand.Rand) {
	next := make([]uint8, len(r.levels))
	for u, l := range r.levels {
		stayTop := false
		if l == r.top {
			leave := rngs[u].BernoulliPow2(r.zetaLog2)
			r.bits += int64(r.zetaLog2)
			stayTop = !leave
		}
		if stayTop || l == 0 {
			next[u] = r.top
			continue
		}
		m := l
		for _, v := range r.g.Neighbors(u) {
			if r.levels[v] > m {
				m = r.levels[v]
			}
		}
		next[u] = m - 1
	}
	r.levels = next
}

// streams returns n per-vertex streams split from seed.
func streams(n int, seed uint64) []*xrand.Rand {
	master := xrand.New(seed)
	rngs := make([]*xrand.Rand, n)
	for u := range rngs {
		rngs[u] = master.Split(uint64(u))
	}
	return rngs
}

// checkCounts compares the clock's top-neighbour counts with a recount
// from its levels; complete graphs keep no counts.
func checkCounts(c *Clock) error {
	if c.completeG {
		return nil
	}
	top := c.Top()
	for u := range c.levels {
		var want int32
		for _, v := range c.g.Neighbors(u) {
			if c.levels[v] == top {
				want++
			}
		}
		if c.topNbrs[u] != want {
			return fmt.Errorf("vertex %d has %d top neighbours, counted %d", u, want, c.topNbrs[u])
		}
	}
	return nil
}

// Clock in lockstep with the literal rule: every round, levels, random-bit
// accounting and the derived top-neighbour counts must agree, across graph
// shapes that exercise every branch of the counted step (and the
// complete-graph path), clock depths, coin rates, both initial
// conditions, dirty leased buffers, SetLevel corruptions, and Rebinds that
// switch between complete and non-complete graphs.
func TestClockMatchesReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
		alt  *graph.Graph // Rebind target: complete iff g is not
	}{
		{"path", graph.Path(40), graph.Complete(40)},
		{"star", graph.Star(40), graph.Complete(40)},
		{"gnp-sparse", graph.Gnp(200, 0.02, xrand.New(1)), graph.Complete(200)},
		{"gnp-dense", graph.Gnp(120, 0.5, xrand.New(2)), graph.Complete(120)},
		{"complete", graph.Complete(30), graph.Gnp(30, 0.3, xrand.New(3))},
	}
	const rounds = 900
	for _, gc := range graphs {
		for _, d := range []int{1, 3, 5} {
			for _, k := range []uint{1, 7} {
				for variant := 0; variant < 2; variant++ {
					name := fmt.Sprintf("%s/D=%d/zeta=2^-%d/variant=%d", gc.name, d, k, variant)
					if err := lockstep(gc.g, gc.alt, d, k, variant, rounds); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// lockstep runs Clock and refClock side by side. Variant 0 starts from
// random levels on fresh arrays; variant 1 starts from New's zero levels on
// leased buffers left dirty by a previous user.
func lockstep(g, alt *graph.Graph, d int, k uint, variant, rounds int) error {
	n := g.N()
	seed := uint64(100*d) + uint64(k) + uint64(variant)
	opts := []Option{WithD(d), WithZetaLog2(k)}
	if variant == 1 {
		levels, next := make([]uint8, n), make([]uint8, n)
		topNbrs, flips := make([]int32, n), make([]int32, n/2, n)
		for u := 0; u < n; u++ {
			levels[u], next[u], topNbrs[u] = 3, 4, 7
		}
		opts = append(opts, WithBuffers(levels, next, topNbrs, flips))
	}
	c := New(g, opts...)
	if variant == 0 {
		c.RandomizeLevels(xrand.New(seed))
	}
	ref := &refClock{g: g, top: c.Top(), zetaLog2: k, levels: append([]uint8(nil), c.levels...)}
	if err := checkCounts(c); err != nil {
		return fmt.Errorf("after construction: %v", err)
	}
	rngs, refRngs := streams(n, seed), streams(n, seed)
	adv := xrand.New(seed + 1)
	for r := 0; r < rounds; r++ {
		switch r {
		case rounds / 3:
			c.Rebind(alt)
			ref.g = alt
		case 2 * rounds / 3:
			c.Rebind(g)
			ref.g = g
		}
		if r%23 == 11 {
			u, l := adv.Intn(n), uint8(adv.Intn(int(c.Top())+1))
			c.SetLevel(u, l)
			ref.levels[u] = l
			if err := checkCounts(c); err != nil {
				return fmt.Errorf("round %d, after SetLevel(%d, %d): %v", r, u, l, err)
			}
		}
		c.Step(rngs)
		ref.step(refRngs)
		for u := range ref.levels {
			if c.Level(u) != ref.levels[u] {
				return fmt.Errorf("round %d: level(%d) = %d, reference %d", r, u, c.Level(u), ref.levels[u])
			}
		}
		if c.RandomBits() != ref.bits {
			return fmt.Errorf("round %d: %d random bits, reference %d", r, c.RandomBits(), ref.bits)
		}
		if err := checkCounts(c); err != nil {
			return fmt.Errorf("round %d: %v", r, err)
		}
	}
	return nil
}
