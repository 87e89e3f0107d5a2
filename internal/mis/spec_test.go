package mis

// Each rule is defined once, as a kernel.Spec; the tests here check every
// Spec entry a vertex can reach against the paper, exhaustively. For every
// used state × every neighbourhood of up to two neighbours (which realizes
// every reachable "has a black neighbour" / "has a black1 neighbour"
// combination) × both coin outcomes × both switch values (3-color only),
// vertex 0 of that star is stepped once by the rule's literal transcription
// in reference.go, with a seed whose first vertex-0 coin is the wanted one.
// Its next state, and whether it drew a coin, must equal the program's
// per-vertex transition (kernel.Program.Next — the one daemon steps use, and
// the one the kernel word evaluator is pinned to); its Active entry must say
// whether the reference drew a coin, and its Touched entry whether the
// reference can move it at all (the worklist, and a daemon's privileged
// set).

import (
	"fmt"
	"testing"

	"ssmis/internal/engine/kernel"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// specRule is one rule under the exhaustive Spec check.
type specRule struct {
	name   string
	prog   *kernel.Program
	states []uint8
	// black and black1 are the paper's neighbour predicates on a state:
	// "is black" (counter A) and, for the 3-state rule, "is black1"
	// (counter B).
	black, black1 func(s uint8) bool
	gated         bool // the rule reads the 3-color switch value
	// refNext steps the reference transcription once on g from the given
	// states — vertex 0's switch on iff gate — and returns vertex 0's next
	// state and whether it drew a coin from its stream.
	refNext func(g *graph.Graph, states []uint8, gate bool, seed uint64) (uint8, bool)
}

func specRules() []specRule {
	never := func(uint8) bool { return false }
	return []specRule{
		{
			name:   "2-state",
			prog:   twoStateProg,
			states: []uint8{twoWhite, twoBlack},
			black:  func(s uint8) bool { return s == twoBlack },
			black1: never,
			refNext: func(g *graph.Graph, states []uint8, _ bool, seed uint64) (uint8, bool) {
				black := make([]bool, len(states))
				for u, s := range states {
					black[u] = s == twoBlack
				}
				ref := NewRefTwoState(g, seed, black)
				ref.Step()
				if ref.Black(0) {
					return twoBlack, drew(ref.rngs[0], seed)
				}
				return twoWhite, drew(ref.rngs[0], seed)
			},
		},
		{
			name:   "3-state",
			prog:   threeStateProg,
			states: []uint8{uint8(TriWhite), uint8(TriBlack0), uint8(TriBlack1)},
			black:  func(s uint8) bool { return TriState(s).Black() },
			black1: func(s uint8) bool { return TriState(s) == TriBlack1 },
			refNext: func(g *graph.Graph, states []uint8, _ bool, seed uint64) (uint8, bool) {
				initial := make([]TriState, len(states))
				for u, s := range states {
					initial[u] = TriState(s)
				}
				ref := NewRefThreeState(g, seed, initial)
				ref.Step()
				return uint8(ref.State(0)), drew(ref.rngs[0], seed)
			},
		},
		{
			name:   "3-color",
			prog:   threeColorProg,
			states: []uint8{uint8(ColorWhite), uint8(ColorBlack), uint8(ColorGray)},
			black:  func(s uint8) bool { return Color(s) == ColorBlack },
			black1: never,
			gated:  true,
			refNext: func(g *graph.Graph, states []uint8, gate bool, seed uint64) (uint8, bool) {
				colors := make([]Color, len(states))
				levels := make([]uint8, len(states))
				for u, s := range states {
					colors[u] = Color(s)
				}
				// The switch is on iff the level is at most 2 (Definition
				// 26 with D = 3); neither level is the top, so vertex 0
				// draws no switch coin.
				levels[0] = 4
				if gate {
					levels[0] = 1
				}
				ref := NewRefThreeColor(g, seed, colors, levels)
				ref.Step()
				return uint8(ref.ColorOf(0)), drew(ref.rngs[0], seed)
			},
		},
	}
}

// drew reports whether a reference run moved vertex 0's stream off its
// initial position, i.e. drew a coin from it.
func drew(r *xrand.Rand, seed uint64) bool { return *r != *xrand.New(seed).Split(0) }

// coinSeeds returns, for each coin outcome, a seed whose vertex-0 stream
// (master.Split(0), as every simulator and reference derives it) opens with
// that outcome.
func coinSeeds() [2]uint64 {
	var seeds [2]uint64
	found := [2]bool{}
	for seed := uint64(1); !found[0] || !found[1]; seed++ {
		c := 0
		if xrand.New(seed).Split(0).Bit() {
			c = 1
		}
		if !found[c] {
			seeds[c], found[c] = seed, true
		}
	}
	return seeds
}

// specCase is one point of the checked domain: vertex 0's lane code, its
// counter bits, its coin and its gate bit.
type specCase struct {
	code       uint8
	a, b       bool
	coin, gate bool
}

// specMismatch checks prog against the rule's reference transcription over
// the whole domain and returns the first disagreement, or nil. covered
// collects the domain points visited.
func specMismatch(r specRule, prog *kernel.Program, covered map[specCase]bool) error {
	seeds := coinSeeds()
	gates := []bool{false}
	if r.gated {
		gates = append(gates, true)
	}
	// Every neighbourhood of up to two neighbours, as a multiset of states.
	nbrSets := [][]uint8{nil}
	for i, s := range r.states {
		nbrSets = append(nbrSets, []uint8{s})
		for _, t := range r.states[i:] {
			nbrSets = append(nbrSets, []uint8{s, t})
		}
	}
	for _, s := range r.states {
		for _, nbrs := range nbrSets {
			states := append([]uint8{s}, nbrs...)
			var edges [][2]int
			var a, b bool
			for i, t := range nbrs {
				edges = append(edges, [2]int{0, i + 1})
				a = a || r.black(t)
				b = b || r.black1(t)
			}
			g := graph.FromEdges(len(states), edges)
			code := int(prog.CodeOf(s))
			moves, draws := false, false
			for coin, seed := range seeds {
				for _, gate := range gates {
					want, wantDraw := r.refNext(g, states, gate, seed)
					got, drawn := prog.Next(s, a, b, gate, xrand.New(seed).Split(0), 0.5)
					if got != want || (drawn > 0) != wantDraw {
						return fmt.Errorf("%s: state %d with neighbours %v (a=%v b=%v) coin=%d gate=%v: program moves to %d drawing %d bits, reference to %d drawing a coin %v",
							r.name, s, nbrs, a, b, coin, gate, got, drawn, want, wantDraw)
					}
					moves = moves || want != s
					draws = draws || wantDraw
					if covered != nil {
						covered[specCase{uint8(code), a, b, coin == 1, gate}] = true
					}
				}
			}
			if prog.ActiveBit(code, a, b) != draws || prog.TouchedBit(code, a, b) != (draws || moves) {
				return fmt.Errorf("%s: state %d with neighbours %v (a=%v b=%v): active/touched entries %v/%v, reference draws %v and moves %v",
					r.name, s, nbrs, a, b, prog.ActiveBit(code, a, b), prog.TouchedBit(code, a, b), draws, moves)
			}
		}
	}
	return nil
}

func TestSpecMatchesReferenceExhaustively(t *testing.T) {
	for _, r := range specRules() {
		covered := map[specCase]bool{}
		if err := specMismatch(r, r.prog, covered); err != nil {
			t.Fatal(err)
		}
		// The neighbourhoods must have realized every reachable input: each
		// used code × (a, b) ∈ {00, 10} plus 11 when the rule reads counter
		// B (black1 ⊂ black, so a=0 b=1 is unreachable) × coin × gate.
		ab := [][2]bool{{false, false}, {true, false}}
		if r.prog.UseB() {
			ab = append(ab, [2]bool{true, true})
		}
		gates := []bool{false}
		if r.gated {
			gates = append(gates, true)
		}
		want := 0
		for _, s := range r.states {
			for _, x := range ab {
				for _, coin := range []bool{false, true} {
					for _, gate := range gates {
						want++
						if c := (specCase{r.prog.CodeOf(s), x[0], x[1], coin, gate}); !covered[c] {
							t.Fatalf("%s: domain point %+v never exercised", r.name, c)
						}
					}
				}
			}
		}
		if len(covered) != want {
			t.Fatalf("%s: exercised %d domain points, want exactly %d", r.name, len(covered), want)
		}
	}
}
