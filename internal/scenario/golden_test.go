package scenario

// The tentpole invariant: a scenario re-expressing a hand-coded experiment
// produces byte-identical tables. E1 (scaling + tail), E4 (six families) and
// E18 (daemon matrix + sequential baseline) are loaded from their example
// files and diffed against experiment.ByID output at workers 1 and 8 — the
// same invariance the hand-coded suite already guarantees, now extended
// across the declarative layer.

import (
	"strings"
	"testing"

	"ssmis/internal/batch"
	"ssmis/internal/experiment"
)

func renderAll(tables []experiment.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.Render())
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestGoldenReproductions(t *testing.T) {
	repros := []struct {
		id   string
		path string
	}{
		{"E1", "../../examples/scenarios/e1.json"},
		{"E4", "../../examples/scenarios/e4.json"},
		{"E18", "../../examples/scenarios/e18.json"},
	}
	for _, workers := range []int{1, 8} {
		pool := batch.NewPool(workers)
		cfg := experiment.Config{Scale: 0.05, Seed: 2023, Pool: pool}
		for _, r := range repros {
			hand, ok := experiment.ByID(r.id)
			if !ok {
				t.Fatalf("experiment %s not registered", r.id)
			}
			s, err := Load(r.path)
			if err != nil {
				t.Fatalf("%s: %v", r.id, err)
			}
			exp, err := s.Compile()
			if err != nil {
				t.Fatalf("%s: compile: %v", r.id, err)
			}
			if exp.ID != r.id {
				t.Errorf("%s: compiled ID = %q", r.id, exp.ID)
			}
			want := renderAll(hand.Run(cfg))
			got := renderAll(exp.Run(cfg))
			if got != want {
				t.Errorf("%s at %d workers: scenario tables differ from hand-coded\n--- hand-coded ---\n%s\n--- scenario ---\n%s",
					r.id, workers, want, got)
			}
		}
		pool.Close()
	}
}
