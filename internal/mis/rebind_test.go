package mis

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

func TestRebindReconvergesAllProcesses(t *testing.T) {
	rng := xrand.New(91)
	g := graph.Gnp(120, 0.06, rng)
	type rebinder interface {
		Process
		Rebind(*graph.Graph)
	}
	procs := []rebinder{
		NewTwoState(g, WithSeed(3)),
		NewThreeState(g, WithSeed(3)),
		NewThreeColor(g, WithSeed(3)),
	}
	for _, p := range procs {
		Run(p, 8*DefaultRoundCap(g.N()))
		if !p.Stabilized() {
			t.Fatalf("%s: no initial stabilization", p.Name())
		}
		g2, _ := g.WithRandomChurn(20, rng)
		p.Rebind(g2)
		Run(p, 8*DefaultRoundCap(g.N()))
		if !p.Stabilized() {
			t.Fatalf("%s: no re-stabilization after churn", p.Name())
		}
		if err := verify.MIS(g2, p.Black); err != nil {
			t.Fatalf("%s: post-churn result invalid on NEW graph: %v", p.Name(), err)
		}
	}
}

func TestRebindOrderMismatchPanics(t *testing.T) {
	p := NewTwoState(graph.Path(4))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.Rebind(graph.Path(5))
}

func TestRebindKeepsStates(t *testing.T) {
	g := graph.Path(4)
	p := NewTwoState(g, WithInitialBlack([]bool{true, false, true, false}))
	// Adding edge {0,2} makes the two blacks adjacent: states kept, process
	// now unstable.
	g2 := g.WithEdgeToggled(0, 2)
	p.Rebind(g2)
	if !p.Black(0) || !p.Black(2) {
		t.Fatal("Rebind changed vertex states")
	}
	if p.Stabilized() {
		t.Fatal("conflicting MIS on new topology reported stable")
	}
	Run(p, 10000)
	if err := verify.MIS(g2, p.Black); err != nil {
		t.Fatal(err)
	}
}

func TestRebindEdgeRemovalBreaksMaximality(t *testing.T) {
	// MIS {1} on the star K_{1,3}; removing the edge {0,1}... use a path:
	// 0-1-2 with MIS {1}. Removing {1,2} leaves vertex 2 undominated.
	g := graph.Path(3)
	p := NewTwoState(g, WithInitialBlack([]bool{false, true, false}))
	if !p.Stabilized() {
		t.Fatal("precondition: {1} is an MIS of the path")
	}
	g2 := g.WithEdgeToggled(1, 2)
	p.Rebind(g2)
	if p.Stabilized() {
		t.Fatal("undominated vertex after edge removal reported stable")
	}
	Run(p, 10000)
	if !p.Black(2) {
		t.Fatal("isolated-side vertex did not join the MIS")
	}
}
