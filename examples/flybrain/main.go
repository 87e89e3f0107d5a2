// Flybrain: the sensory-organ-precursor (SOP) selection scenario. During
// the development of the fly's nervous system, cells on an epithelium
// self-select into a sparse set of SOPs such that every cell either becomes
// an SOP or touches one — Afek et al. (Science 2011) showed this is exactly
// distributed MIS, solved by cells that can only emit or sense a Delta
// signal (a beep). The paper's 3-state process fits the biological
// constraints even better than the original model: constant memory per
// cell, one coin per round, and no collision detection.
//
// We model the epithelium as a torus-like patch with local neighborhoods
// and run the 3-state process in the stone-age runtime (one node program
// per cell, two signalling channels).
//
// Run with: go run ./examples/flybrain
package main

import (
	"fmt"
	"log"
	"strings"

	"ssmis"
)

func main() {
	const side = 30 // 30×30 cell patch
	// Each cell touches its 8 surrounding cells (Moore neighborhood, torus
	// wraparound) — a denser contact graph than the 4-neighbor grid.
	var edges [][2]int
	id := func(r, c int) int { return ((r+side)%side)*side + (c+side)%side }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			u := id(r, c)
			for _, d := range [][2]int{{0, 1}, {1, 0}, {1, 1}, {1, -1}} {
				v := id(r+d[0], c+d[1])
				if u < v {
					edges = append(edges, [2]int{u, v})
				} else {
					edges = append(edges, [2]int{v, u})
				}
			}
		}
	}
	g := ssmis.FromEdges(side*side, edges)
	fmt.Printf("epithelium: %d cells, %d contacts (8-neighbor torus)\n", g.N(), g.M())

	cells := ssmis.NewStoneAgeThreeState(g, 11)
	rounds, ok := cells.Run(100000)
	if !ok {
		log.Fatal("development did not converge")
	}

	sops := 0
	for u := 0; u < g.N(); u++ {
		if cells.Black(u) {
			sops++
		}
	}
	if err := ssmis.VerifyMIS(g, blackSet(cells.Black, g.N())); err != nil {
		log.Fatalf("SOP pattern invalid: %v", err)
	}
	fmt.Printf("SOP selection converged in %d rounds: %d SOPs among %d cells (%.1f%%)\n",
		rounds, sops, g.N(), 100*float64(sops)/float64(g.N()))

	// Render the patch: '*' SOP, '.' epithelial cell.
	var b strings.Builder
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if cells.Black(id(r, c)) {
				b.WriteByte('*')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	fmt.Print(b.String())
	fmt.Println("every '.' touches a '*', no two '*' touch: a maximal independent set")
}

func blackSet(pred func(int) bool, n int) []int {
	var out []int
	for u := 0; u < n; u++ {
		if pred(u) {
			out = append(out, u)
		}
	}
	return out
}
