package experiment

import (
	"reflect"
	"strings"
	"testing"

	"ssmis/internal/batch"
)

func TestRegistryCompleteAndOrdered(t *testing.T) {
	exps := Registry()
	if len(exps) != 19 {
		t.Fatalf("registry has %d experiments, want 19", len(exps))
	}
	for i, e := range exps {
		wantID := "E" + itoa(i+1)
		if e.ID != wantID {
			t.Fatalf("experiment %d has ID %s, want %s", i, e.ID, wantID)
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("%s is missing metadata", e.ID)
		}
	}
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E7"); !ok {
		t.Fatal("E7 not found")
	}
	if _, ok := ByID("e12"); !ok {
		t.Fatal("lookup not case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("unknown ID found")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := Table{Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("x,y", 10000.0)
	tab.Notes = append(tab.Notes, "a note")
	out := tab.Render()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "note: a note") {
		t.Fatalf("render malformed:\n%s", out)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, "a,bb\n") || !strings.Contains(csv, `"x,y"`) {
		t.Fatalf("csv malformed:\n%s", csv)
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	if c.Scale != 1 || c.Seed == 0 {
		t.Fatalf("zero config normalized to %+v", c)
	}
	c = Config{Scale: 100, Seed: 5}.normalized()
	if c.Scale != 4 {
		t.Fatal("scale not clamped")
	}
	if got := (Config{Scale: 1}).trials(10); got != 10 {
		t.Fatalf("trials at scale 1 = %d", got)
	}
	if got := (Config{Scale: 0.05}).trials(10); got != 3 {
		t.Fatalf("trials floor = %d, want 3", got)
	}
	sizes := Config{Scale: 0.25}.sizes([]int{1, 2, 3, 4})
	if len(sizes) != 2 {
		t.Fatalf("scaled sizes = %v", sizes)
	}
}

func TestKindString(t *testing.T) {
	if KindTwoState.String() != "2-state" || KindThreeColor.String() != "3-color" ||
		Kind(9).String() == "" {
		t.Fatal("Kind.String wrong")
	}
}

// Smoke-run every experiment at the minimum scale: each must produce at
// least one table with at least one row and no experiment may panic. This is
// the integration test of the whole harness; the full-scale numbers come
// from `missweep -run all`.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke suite skipped in -short mode")
	}
	cfg := Config{Scale: 0.05, Seed: 7}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables := e.Run(cfg)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tables {
				if tab.Title == "" || len(tab.Columns) == 0 {
					t.Fatalf("%s produced a malformed table", e.ID)
				}
				if len(tab.Rows) == 0 {
					t.Fatalf("%s table %q has no rows", e.ID, tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("%s table %q row width %d != %d columns",
							e.ID, tab.Title, len(row), len(tab.Columns))
					}
				}
				_ = tab.Render()
				_ = tab.CSV()
			}
		})
	}
}

// The tables an experiment produces must be bit-identical whatever the
// shared pool's worker count: outcomes are delivered in trial order, so the
// streamed aggregates see the same sequence. Three representatives cover
// the three submission shapes (fixed-graph shard, per-seed shard, custom
// per-trial jobs).
func TestExperimentsDeterministicAcrossPools(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep skipped in -short mode")
	}
	for _, id := range []string{"E2", "E9", "E15", "E19"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		run := func(workers int) []Table {
			pool := batch.NewPool(workers)
			defer pool.Close()
			return e.Run(Config{Scale: 0.05, Seed: 7, Pool: pool})
		}
		one := run(1)
		eight := run(8)
		if !reflect.DeepEqual(one, eight) {
			t.Fatalf("%s: tables differ between workers=1 and workers=8:\n%+v\nvs\n%+v", id, one, eight)
		}
	}
}

func TestCellLogRecords(t *testing.T) {
	e, ok := ByID("E2")
	if !ok {
		t.Fatal("E2 missing")
	}
	log := &CellLog{}
	e.Run(Config{Scale: 0.05, Seed: 7, Cells: log})
	cells := log.Cells()
	if len(cells) == 0 {
		t.Fatal("no cells recorded")
	}
	for _, c := range cells {
		if c.Label == "" || c.Jobs <= 0 || c.Elapsed < 0 {
			t.Fatalf("malformed cell %+v", c)
		}
	}
}
