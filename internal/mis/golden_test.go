package mis

// Golden seed-lineage tests: the engine-based simulators must reproduce the
// exact executions of the pre-engine (seed) simulators. The expected values
// below — rounds to stabilization, total random bits, black-set size and an
// FNV-1a hash of the black mask — were captured from the seed implementations
// for a matrix of (graph, process, seed, init, option-variant) cases. Any
// divergence means the refactor changed coins or transition semantics.

import (
	"hash/fnv"
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

func goldenGraph(name string) *graph.Graph {
	switch name {
	case "gnp80":
		return graph.Gnp(80, 0.08, xrand.New(5))
	case "chunglu90":
		return graph.ChungLu(90, 2.5, 6, xrand.New(6))
	case "grid8x8":
		return graph.Grid(8, 8)
	case "cliques5x6":
		return graph.DisjointCliques(5, 6)
	case "clique32":
		return graph.Complete(32)
	case "path17":
		return graph.Path(17)
	case "star33":
		return graph.Star(33)
	default:
		panic(name)
	}
}

func goldenProcess(kind string, g *graph.Graph, opts ...Option) Process {
	switch kind {
	case "2state":
		return NewTwoState(g, opts...)
	case "3state":
		return NewThreeState(g, opts...)
	case "3color":
		return NewThreeColor(g, opts...)
	default:
		panic(kind)
	}
}

func goldenBlackHash(p Process) uint64 {
	h := fnv.New64a()
	for u := 0; u < p.N(); u++ {
		b := byte(0)
		if p.Black(u) {
			b = 1
		}
		h.Write([]byte{b})
	}
	return h.Sum64()
}

type goldenCase struct {
	graph   string
	kind    string
	seed    uint64
	init    Init
	variant string
	rounds  int
	bits    int64
	blacks  int
	hash    uint64
}

var goldenCases = []goldenCase{
	{"gnp80", "2state", 1, Init(1), "", 9, 111, 28, 0x2c3449d6f5698909},
	{"gnp80", "2state", 1, Init(3), "", 5, 146, 24, 0x3e134be4e13aaffd},
	{"gnp80", "2state", 7, Init(1), "", 7, 102, 25, 0x1d6016f26945db42},
	{"gnp80", "2state", 7, Init(3), "", 7, 146, 25, 0x9524d25e440e46b8},
	{"gnp80", "3state", 1, Init(1), "", 4, 108, 27, 0xb4653c7c5452a3f6},
	{"gnp80", "3state", 1, Init(3), "", 6, 214, 24, 0x3e134be4e13aaffd},
	{"gnp80", "3state", 7, Init(1), "", 7, 176, 25, 0x9803b70800f556ae},
	{"gnp80", "3state", 7, Init(3), "", 7, 240, 25, 0x9524d25e440e46b8},
	{"gnp80", "3color", 1, Init(1), "", 382, 21127, 27, 0x6f93175a651f4452},
	{"gnp80", "3color", 1, Init(3), "", 784, 93514, 24, 0xef176c743866a841},
	{"gnp80", "3color", 7, Init(1), "", 439, 17450, 26, 0xec85b53a3bb0b637},
	{"gnp80", "3color", 7, Init(3), "", 545, 18961, 26, 0xfd0b44b575ea8ef9},
	{"chunglu90", "2state", 1, Init(1), "", 12, 161, 39, 0x504483a3a124a068},
	{"chunglu90", "2state", 1, Init(3), "", 13, 260, 41, 0x554cb9b4a0d2be46},
	{"chunglu90", "2state", 7, Init(1), "", 8, 127, 40, 0xa04d12dcf908298b},
	{"chunglu90", "2state", 7, Init(3), "", 10, 205, 43, 0x71598cdb5f26d57e},
	{"chunglu90", "3state", 1, Init(1), "", 4, 135, 37, 0xbbe44ab3eaa73c72},
	{"chunglu90", "3state", 1, Init(3), "", 9, 429, 42, 0xcf090a9851d195ff},
	{"chunglu90", "3state", 7, Init(1), "", 5, 194, 38, 0xfc63b5bc7e68185d},
	{"chunglu90", "3state", 7, Init(3), "", 6, 298, 40, 0x55f0436f58de3e75},
	{"chunglu90", "3color", 1, Init(1), "", 562, 34220, 41, 0x45e473f5ab019eb0},
	{"chunglu90", "3color", 1, Init(3), "", 703, 44876, 41, 0x854738186369d9ec},
	{"chunglu90", "3color", 7, Init(1), "", 559, 30553, 41, 0xfbdfb9fb270d2c2c},
	{"chunglu90", "3color", 7, Init(3), "", 356, 22478, 41, 0x9dc45f0d59fdc5fc},
	{"grid8x8", "2state", 1, Init(1), "", 5, 68, 24, 0xda88b28e6567d311},
	{"grid8x8", "2state", 1, Init(3), "", 8, 138, 23, 0x78b8be56b475b1c2},
	{"grid8x8", "2state", 7, Init(1), "", 6, 96, 23, 0xcd9d7e0807cd244e},
	{"grid8x8", "2state", 7, Init(3), "", 8, 125, 24, 0xee43acff0ed67baf},
	{"grid8x8", "3state", 1, Init(1), "", 3, 78, 28, 0x637684eb5b38962f},
	{"grid8x8", "3state", 1, Init(3), "", 8, 234, 23, 0x3d68bf0953266052},
	{"grid8x8", "3state", 7, Init(1), "", 5, 118, 24, 0xa3fc1bf4b59cce1},
	{"grid8x8", "3state", 7, Init(3), "", 7, 216, 24, 0xebcb3777eae1ed2f},
	{"grid8x8", "3color", 1, Init(1), "", 369, 18599, 28, 0xd2ddec239ba824f1},
	{"grid8x8", "3color", 1, Init(3), "", 240, 19233, 23, 0xb4b1941312e40f48},
	{"grid8x8", "3color", 7, Init(1), "", 546, 36931, 27, 0x688b466524400d3a},
	{"grid8x8", "3color", 7, Init(3), "", 561, 43206, 25, 0x4107cf44d8d2d3ee},
	{"cliques5x6", "2state", 1, Init(1), "", 4, 30, 5, 0x5095d07e2c13d06c},
	{"cliques5x6", "2state", 1, Init(3), "", 4, 55, 5, 0x1b1959afec2defb4},
	{"cliques5x6", "2state", 7, Init(1), "", 6, 75, 5, 0x24fc5d57d367e784},
	{"cliques5x6", "2state", 7, Init(3), "", 7, 70, 5, 0xf314372b162f0abc},
	{"cliques5x6", "3state", 1, Init(1), "", 6, 43, 5, 0x8e792d6951f2f2d2},
	{"cliques5x6", "3state", 1, Init(3), "", 4, 56, 5, 0x1b1959afec2defb4},
	{"cliques5x6", "3state", 7, Init(1), "", 6, 50, 5, 0xf9623cb78be05802},
	{"cliques5x6", "3state", 7, Init(3), "", 6, 65, 5, 0x342e4dacf5c1290c},
	{"cliques5x6", "3color", 1, Init(1), "", 2, 154, 5, 0x33c96b96d65896ec},
	{"cliques5x6", "3color", 1, Init(3), "", 146, 10780, 5, 0x3e7af71314afd94c},
	{"cliques5x6", "3color", 7, Init(1), "", 2, 138, 5, 0x67f9996377d4cd1c},
	{"cliques5x6", "3color", 7, Init(3), "", 173, 8796, 5, 0x9a638d934439dd0e},
	{"clique32", "2state", 1, Init(1), "", 14, 173, 1, 0xffd32d4dd03b8b42},
	{"clique32", "2state", 1, Init(3), "", 10, 141, 1, 0xffd32d4dd03b8b42},
	{"clique32", "2state", 7, Init(1), "", 3, 25, 1, 0x159d2407c35dc00c},
	{"clique32", "2state", 7, Init(3), "", 10, 113, 1, 0xea9cd64b1dd4796a},
	{"clique32", "3state", 1, Init(1), "", 4, 21, 1, 0xb108fa874dcee4c},
	{"clique32", "3state", 1, Init(3), "", 8, 64, 1, 0x6c87646ff7553914},
	{"clique32", "3state", 7, Init(1), "", 4, 20, 1, 0x159d2407c35dc00c},
	{"clique32", "3state", 7, Init(3), "", 7, 58, 1, 0x2febac455f992f6c},
	{"clique32", "3color", 1, Init(1), "", 3, 214, 1, 0x6c87646ff7553914},
	{"clique32", "3color", 1, Init(3), "", 249, 7934, 1, 0x2a55549625537cd4},
	{"clique32", "3color", 7, Init(1), "", 10, 904, 1, 0xea9cd64b1dd4796a},
	{"clique32", "3color", 7, Init(3), "", 566, 10390, 1, 0xea9cd64b1dd4796a},
	{"path17", "2state", 1, Init(1), "", 7, 26, 8, 0xf95c03c19b72461f},
	{"path17", "2state", 1, Init(3), "", 7, 43, 8, 0xf95c03c19b72461f},
	{"path17", "2state", 7, Init(1), "", 5, 15, 8, 0xdf74a1d3f6656d5f},
	{"path17", "2state", 7, Init(3), "", 5, 24, 8, 0x53c12ad6d09bce0f},
	{"path17", "3state", 1, Init(1), "", 5, 45, 8, 0x900c95bd3c77567},
	{"path17", "3state", 1, Init(3), "", 8, 78, 8, 0xf95c03c19b72461f},
	{"path17", "3state", 7, Init(1), "", 7, 54, 8, 0x620e37b94a2769af},
	{"path17", "3state", 7, Init(3), "", 3, 34, 8, 0x53c12ad6d09bce0f},
	{"path17", "3color", 1, Init(1), "", 9, 478, 8, 0xc76060df588b4d9d},
	{"path17", "3color", 1, Init(3), "", 176, 7032, 8, 0xd8c178949e2cef6f},
	{"path17", "3color", 7, Init(1), "", 3, 134, 7, 0xf1150b5df7345f4c},
	{"path17", "3color", 7, Init(3), "", 24, 1075, 8, 0x53c12ad6d09bce0f},
	{"star33", "2state", 1, Init(1), "", 9, 65, 32, 0xf85529476a84237f},
	{"star33", "2state", 1, Init(3), "", 9, 65, 32, 0xf85529476a84237f},
	{"star33", "2state", 7, Init(1), "", 6, 69, 32, 0xf85529476a84237f},
	{"star33", "2state", 7, Init(3), "", 5, 69, 32, 0xf85529476a84237f},
	{"star33", "3state", 1, Init(1), "", 2, 59, 32, 0xf85529476a84237f},
	{"star33", "3state", 1, Init(3), "", 2, 65, 32, 0xf85529476a84237f},
	{"star33", "3state", 7, Init(1), "", 3, 49, 32, 0xf85529476a84237f},
	{"star33", "3state", 7, Init(3), "", 2, 65, 32, 0xf85529476a84237f},
	{"star33", "3color", 1, Init(1), "", 386, 11787, 32, 0xf85529476a84237f},
	{"star33", "3color", 1, Init(3), "", 243, 6803, 32, 0xf85529476a84237f},
	{"star33", "3color", 7, Init(1), "", 319, 7518, 32, 0xf85529476a84237f},
	{"star33", "3color", 7, Init(3), "", 232, 7864, 32, 0xf85529476a84237f},
	{"gnp80", "2state", 3, Init(1), "bias", 15, 10176, 28, 0x2436ea59d88c2c81},
	{"gnp80", "3color", 3, Init(1), "bias", 304, 26055, 22, 0x85edf10681308b05},
	{"gnp80", "3color", 3, Init(1), "zeta5", 101, 3265, 27, 0xbe43883ff2d31326},
	{"clique32", "2state", 3, Init(2), "bias", 10, 6784, 1, 0x159d2407c35dc00c},
}

func goldenOptions(c goldenCase) []Option {
	opts := []Option{WithSeed(c.seed), WithInit(c.init)}
	switch c.variant {
	case "":
	case "bias":
		p := 0.25
		if c.graph == "clique32" {
			p = 0.75
		}
		opts = append(opts, WithBlackBias(p))
	case "zeta5":
		opts = append(opts, WithSwitchZetaLog2(5))
	default:
		panic(c.variant)
	}
	return opts
}

func TestGoldenSeedLineage(t *testing.T) {
	for _, c := range goldenCases {
		g := goldenGraph(c.graph)
		p := goldenProcess(c.kind, g, goldenOptions(c)...)
		res := Run(p, 4*DefaultRoundCap(g.N()))
		if !res.Stabilized {
			t.Errorf("%s/%s seed %d init %v %s: did not stabilize", c.graph, c.kind, c.seed, c.init, c.variant)
			continue
		}
		blacks := 0
		for u := 0; u < p.N(); u++ {
			if p.Black(u) {
				blacks++
			}
		}
		if res.Rounds != c.rounds || res.RandomBits != c.bits || blacks != c.blacks || goldenBlackHash(p) != c.hash {
			t.Errorf("%s/%s seed %d init %v %s: got (rounds=%d bits=%d blacks=%d hash=%#x), want (%d %d %d %#x)",
				c.graph, c.kind, c.seed, c.init, c.variant,
				res.Rounds, res.RandomBits, blacks, goldenBlackHash(p),
				c.rounds, c.bits, c.blacks, c.hash)
		}
	}
}

// Golden per-vertex stabilization-time checksums, captured from the seed
// simulators with WithLocalTimes on gnp80, seed 11.
func TestGoldenLocalTimes(t *testing.T) {
	want := map[string]int{
		"2state": 201,
		"3state": 176,
		"3color": 2028,
	}
	for kind, wantSum := range want {
		g := goldenGraph("gnp80")
		p := goldenProcess(kind, g, WithSeed(11), WithLocalTimes())
		Run(p, 4*DefaultRoundCap(g.N()))
		sum := 0
		for _, r := range p.(interface{ StabilizationTimes() []int }).StabilizationTimes() {
			sum += r
		}
		if sum != wantSum {
			t.Errorf("%s local times checksum = %d, want %d", kind, sum, wantSum)
		}
	}
}
