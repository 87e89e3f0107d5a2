package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tinySizes shrink every workload to a smoke run of well under a second.
var tinySizes = sizes{
	gnpN: 3000, gnpSeeds: 3, gnpSetups: 2,
	clN: 4000, trials: 6, clSetups: 2,
	sweepScale: 0.05, sweepIDs: []string{"E2", "E15"}, sweepSetups: 3,
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, trace: trace, scratch: t.TempDir(), size: tinySizes}
}

// resultLine runs report and decodes its last line, the contract's result.
func resultLine(t *testing.T, cfg config, out *outcome, ck *checker) map[string]json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := report(&buf, cfg, out, ck); err != nil {
		t.Fatalf("report: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, buf.String())
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	return res
}

func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, name, trace)
			ck := newChecker(nil)
			out, err := lookup(name)(cfg, ck)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if ck.attempted == 0 || ck.failed != 0 {
				t.Fatalf("%s trace=%t: %d of %d failed: %v", name, trace, ck.failed, ck.attempted, ck.msgs)
			}
			for _, m := range endToEnd {
				if v := out.e2e[m.name]; !(v > 0) {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.name, v)
				}
			}
			res := resultLine(t, cfg, out, ck)
			var metrics map[string]struct {
				Value float64
				Unit  string
			}
			if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(metrics), len(want))
			}
			for _, d := range want {
				if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
			if trace && len(out.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}

// recordTiny runs a tiny workload once and returns what it produced, as a
// record would store it.
func recordTiny(t *testing.T, name string) *record {
	t.Helper()
	ck := newChecker(nil)
	if _, err := lookup(name)(tinyConfig(t, name, false), ck); err != nil {
		t.Fatal(err)
	}
	return &record{Runs: ck.seen, Tables: ck.tables}
}

// checkAgainst runs a tiny workload against want and returns its checker.
func checkAgainst(t *testing.T, name string, want *record) *checker {
	t.Helper()
	cfg := tinyConfig(t, name, false)
	cfg.want = want
	ck := newChecker(want)
	if _, err := lookup(name)(cfg, ck); err != nil {
		t.Fatal(err)
	}
	return ck
}

func TestRecordedValuesPass(t *testing.T) {
	for _, name := range workloadNames() {
		if ck := checkAgainst(t, name, recordTiny(t, name)); ck.failed != 0 {
			t.Errorf("%s: %d of %d failed against its own record: %v", name, ck.failed, ck.attempted, ck.msgs)
		}
	}
}

func TestPlantedWrongRoundsFails(t *testing.T) {
	for _, name := range []string{"gnp1m-2state", "edgelist-3state-trials"} {
		want := recordTiny(t, name)
		v := want.Runs[2]
		want.Runs[2] = [2]int64{v[0] + 1, v[1]}
		ck := checkAgainst(t, name, want)
		if ck.failRatio() == 0 {
			t.Errorf("%s: a wrong recorded rounds value left fail_ratio at 0", name)
		}
	}
}

func TestPlantedWrongDigestFails(t *testing.T) {
	want := recordTiny(t, "sweep-quick")
	want.Tables[1] = strings.Repeat("0", len(want.Tables[1]))
	ck := checkAgainst(t, "sweep-quick", want)
	if ck.failed != 1 || ck.failRatio() == 0 {
		t.Errorf("a wrong table digest gave %d failures of %d, want 1", ck.failed, ck.attempted)
	}
}

func TestRepeatMismatchFails(t *testing.T) {
	ck := newChecker(nil)
	ck.run(7, true, nil, 10, 100)
	ck.run(7, true, nil, 10, 100)
	ck.run(7, true, nil, 11, 100)
	ck.sweep([]string{"a", "b"})
	ck.sweep([]string{"a", "c"})
	if ck.attempted != 7 || ck.failed != 2 {
		t.Errorf("attempted %d failed %d, want 7 and 2", ck.attempted, ck.failed)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mis.New", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "engine.Step", Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 3, Name: "engine.Inner", Start: 25, End: 35},
		{ID: 5, Parent: 1, Name: "verify.MIS", Start: 90, End: 120}, // runs past its parent
		{ID: 6, Name: "other", Start: 200, End: 210},
	}
	// run: 100 - |[10,50) ∪ [90,100)| = 100 - 50; engine.Step: 30 - 10.
	want := []int64{50, 20, 20, 10, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	bySelf := layerSelf(spans)
	if math.Abs(bySelf["engine"]-30e-9) > 1e-15 || math.Abs(bySelf["run"]-50e-9) > 1e-15 {
		t.Errorf("layer self times %v, want engine 30ns and run 50ns", bySelf)
	}
}

// TestBenchmarkJSON pins the metric and workload lists to BENCHMARK.json,
// which the benchmark's runner reads to know what to expect.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestEmbeddedExpectedParses(t *testing.T) {
	ef, err := parseExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	for wl := range ef {
		if lookup(wl) == nil {
			t.Errorf("expected.json has unknown workload %q", wl)
		}
	}
}
