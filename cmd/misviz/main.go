// Command misviz renders a small MIS-process run as ASCII, one line per
// round and one glyph per vertex ('#' black, '.' white, 'o' gray, 'b'
// black0). On a path or cycle the spatial structure of symmetry breaking is
// directly visible; with -grid the final state is rendered two-dimensionally.
//
// Usage:
//
//	misviz -graph cycle -n 60 -proc 2state -seed 3
//	misviz -graph grid -n 400 -proc 3color -grid
package main

import (
	"flag"
	"fmt"
	"os"

	"ssmis/internal/experiment"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/trace"
	"ssmis/internal/xrand"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		graphKind = flag.String("graph", "cycle", "graph family: path|cycle|grid|tree|gnp|clique")
		n         = flag.Int("n", 64, "number of vertices")
		p         = flag.Float64("p", 0.05, "edge probability (gnp)")
		procKind  = flag.String("proc", "2state", "process: 2state|3state|3color")
		seed      = flag.Uint64("seed", 1, "master seed")
		gridOut   = flag.Bool("grid", false, "render the final state as a 2-D grid (grid graphs)")
		maxWidth  = flag.Int("width", 120, "truncate rows to this many glyphs (0 = no limit)")
	)
	flag.Parse()

	if *maxWidth < 0 {
		fmt.Fprintf(os.Stderr, "misviz: -width must be >= 0 (0 = no limit), got %d\n", *maxWidth)
		return 2
	}
	k, err := experiment.ParseKind(*procKind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "misviz:", err)
		return 2
	}
	g, err := buildGraph(*graphKind, *n, *p, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "misviz:", err)
		return 2
	}
	proc := experiment.NewProcess(k, g, mis.WithSeed(*seed))

	tr := trace.Record(proc, 8*mis.DefaultRoundCap(g.N()))
	if *gridOut && *graphKind == "grid" {
		side := graph.ISqrt(*n)
		fmt.Printf("%s on %dx%d grid, %d rounds; final state:\n", proc.Name(), side, side, proc.Round())
		fmt.Print(tr.RenderGrid(side, side))
	} else {
		fmt.Print(tr.Render(*maxWidth))
	}
	if !proc.Stabilized() {
		fmt.Println("WARNING: run hit the round cap without stabilizing")
		return 1
	}
	return 0
}

// buildGraph builds the -graph family from the flags. Out-of-range flags
// are errors, not generator panics: -n below 1 (below 3 for a cycle) and -p
// outside [0, 1] for gnp.
func buildGraph(kind string, n int, p float64, seed uint64) (*graph.Graph, error) {
	switch {
	case n < 1:
		return nil, fmt.Errorf("-n must be >= 1, got %d", n)
	case kind == "cycle" && n < 3:
		return nil, fmt.Errorf("-graph cycle needs -n >= 3, got %d", n)
	case kind == "gnp" && !(p >= 0 && p <= 1):
		return nil, fmt.Errorf("-p must be in [0, 1], got %v", p)
	}
	rng := xrand.New(seed ^ 0xabcdef)
	switch kind {
	case "path":
		return graph.Path(n), nil
	case "cycle":
		return graph.Cycle(n), nil
	case "grid":
		side := graph.ISqrt(n)
		return graph.Grid(side, side), nil
	case "tree":
		return graph.RandomTree(n, rng), nil
	case "gnp":
		return graph.Gnp(n, p, rng), nil
	case "clique":
		return graph.Complete(n), nil
	default:
		return nil, fmt.Errorf("unknown graph %q", kind)
	}
}
