package scenario

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ssmis/internal/async"
	"ssmis/internal/batch"
	"ssmis/internal/experiment"
)

// mustBuild finalizes a static test builder; an invalid one is a bug in the
// test, not an input error.
func mustBuild(b *Builder) *Scenario {
	s, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("scenario: static test scenario invalid: %v", err))
	}
	return s
}

// validScenario is a minimal well-formed scenario used as the mutation base.
func validScenario() *Scenario {
	b := New("smoke")
	b.Scaling("smoke: 2-state on cycles").
		Process("2-state").
		Graph("cycle", nil).
		Sizes(64, 128).
		Trials(6)
	return mustBuild(b)
}

func wantIssue(t *testing.T, err error, substr string) {
	t.Helper()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("want *ValidationError containing %q, got %v", substr, err)
	}
	for _, is := range ve.Issues {
		if strings.Contains(is, substr) {
			return
		}
	}
	t.Errorf("no issue contains %q; issues:\n  %s", substr, strings.Join(ve.Issues, "\n  "))
}

func TestValidateCrossAxis(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *Scenario)
		want   string
	}{
		{"empty name", func(s *Scenario) { s.Name = "" }, "name"},
		{"bad name chars", func(s *Scenario) { s.Name = "has space" }, "name"},
		{"no units", func(s *Scenario) { s.Units = nil }, "at least one unit"},
		{"unknown family", func(s *Scenario) { s.Units[0].Scaling.Graph.Family = "petersen" }, "unknown graph family"},
		{"unknown param", func(s *Scenario) { s.Units[0].Scaling.Graph.Params = Params{"q": 1} }, "unknown parameter"},
		{"missing required param", func(s *Scenario) { s.Units[0].Scaling.Graph.Family = "gnp" }, `parameter "p" is required`},
		{"unknown process", func(s *Scenario) { s.Units[0].Scaling.Process = "4-state" }, "process"},
		{"no sizes", func(s *Scenario) { s.Units[0].Scaling.Sizes = nil }, "size"},
		{"bad size", func(s *Scenario) { s.Units[0].Scaling.Sizes = []int{0} }, "size"},
		{"no trials", func(s *Scenario) { s.Units[0].Scaling.Trials = 0 }, "trials"},
		{"negative round cap", func(s *Scenario) { s.Units[0].Scaling.RoundCap = -1 }, "round-cap"},
		{"unknown runtime", func(s *Scenario) { s.Units[0].Scaling.Runtime = &RuntimeSpec{Kind: "quantum"} }, "unknown runtime"},
		{"beeping 3-state", func(s *Scenario) {
			s.Units[0].Scaling.Process = "3-state"
			s.Units[0].Scaling.Runtime = &RuntimeSpec{Kind: "beeping"}
		}, "beeping"},
		{"stone-age 2-state", func(s *Scenario) {
			s.Units[0].Scaling.Runtime = &RuntimeSpec{Kind: "stone-age"}
		}, "stone-age"},
		{"async without drift", func(s *Scenario) {
			s.Units[0].Scaling.Runtime = &RuntimeSpec{Kind: "async"}
		}, "drift"},
		{"drift without async", func(s *Scenario) {
			s.Units[0].Scaling.Runtime = &RuntimeSpec{Kind: "beeping", Drift: &DriftSpec{Model: "bounded", Rho: 2}}
		}, "async"},
		{"unknown drift model", func(s *Scenario) {
			s.Units[0].Scaling.Runtime = &RuntimeSpec{Kind: "async", Drift: &DriftSpec{Model: "chaotic", Rho: 2}}
		}, "drift model"},
		{"rho below 1", func(s *Scenario) {
			s.Units[0].Scaling.Runtime = &RuntimeSpec{Kind: "async", Drift: &DriftSpec{Model: "bounded", Rho: 0.5}}
		}, "rho"},
		{"rho above max", func(s *Scenario) {
			s.Units[0].Scaling.Runtime = &RuntimeSpec{Kind: "async", Drift: &DriftSpec{Model: "bounded", Rho: float64(async.MaxRho) * 2}}
		}, "rho"},
		{"gst on bounded", func(s *Scenario) {
			s.Units[0].Scaling.Runtime = &RuntimeSpec{Kind: "async", Drift: &DriftSpec{Model: "bounded", Rho: 2, GST: 8}}
		}, "gst"},
		{"tail off sync", func(s *Scenario) {
			s.Units[0].Scaling.Runtime = &RuntimeSpec{Kind: "beeping"}
			s.Units[0].Scaling.Tail = &TailSpec{Title: "t", KMax: 4}
		}, "tail"},
		{"unknown metric", func(s *Scenario) { s.Units[0].Scaling.Metrics = []string{"rounds", "latency"} }, "metric"},
		{"metrics without rounds", func(s *Scenario) { s.Units[0].Scaling.Metrics = []string{"local-times"} }, "rounds"},
		{"local-times off sync", func(s *Scenario) {
			s.Units[0].Scaling.Runtime = &RuntimeSpec{Kind: "beeping"}
			s.Units[0].Scaling.Metrics = []string{"rounds", "local-times"}
		}, "local-times"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validScenario()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("mutation accepted")
			}
			wantIssue(t, err, tc.want)
		})
	}
}

func TestValidateMatrixUnits(t *testing.T) {
	dm := func(mutate func(u *DaemonMatrixUnit)) error {
		b := New("m")
		db := b.DaemonMatrix("m: n={n}, {trials} trials").
			Processes("2-state").
			Graph("gnp-avg", Params{"avgdeg": 8}).
			N(256, 64).
			Trials(5)
		mutate(db.u)
		_, err := b.Build()
		return err
	}
	if err := dm(func(u *DaemonMatrixUnit) {}); err != nil {
		t.Fatalf("valid daemon matrix rejected: %v", err)
	}
	wantIssue(t, dm(func(u *DaemonMatrixUnit) { u.Processes = []string{"3-color"} }), "3-color")
	wantIssue(t, dm(func(u *DaemonMatrixUnit) { u.Daemons = []string{"lazy"} }), "daemon")
	wantIssue(t, dm(func(u *DaemonMatrixUnit) { u.N = SizeSpec{Base: 0, Min: 0} }), "n")

	fu := func(mutate func(u *FaultUnit)) error {
		b := New("f")
		fb := b.Fault("f: n={n}, k={k}").
			Processes("2-state", "3-state").
			Graph("gnp-avg", Params{"avgdeg": 8}).
			N(256, 64).
			CorruptFraction(0.1).
			Trials(5)
		mutate(fb.u)
		_, err := b.Build()
		return err
	}
	if err := fu(func(u *FaultUnit) {}); err != nil {
		t.Fatalf("valid fault unit rejected: %v", err)
	}
	wantIssue(t, fu(func(u *FaultUnit) { u.CorruptFraction = 0 }), "corrupt-fraction")
	wantIssue(t, fu(func(u *FaultUnit) { u.CorruptFraction = 1.5 }), "corrupt-fraction")
	wantIssue(t, fu(func(u *FaultUnit) { u.Adversaries = []string{"gremlin"} }), "adversar")
}

// Every construction error and every validation issue surfaces in the one
// Build error — the error-accumulating contract.
func TestBuilderAccumulatesErrors(t *testing.T) {
	b := New("bad name!")
	b.Scaling("broken").
		Process("5-state").
		Graph("petersen", nil).
		Runtime("async") // construction-time rejection
	_, err := b.Build()
	if err == nil {
		t.Fatal("broken scenario built")
	}
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("want *ValidationError, got %T", err)
	}
	for _, want := range []string{"AsyncBounded", "name", "process", "graph family"} {
		wantIssue(t, err, want)
	}
	if errs := b.errs; len(errs) != 1 || !strings.Contains(errs[0], "AsyncBounded") {
		t.Errorf("construction errors = %v, want the one construction error", errs)
	}
}

func TestCodecRejections(t *testing.T) {
	valid, err := Encode(validScenario())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("round trip: %v", err)
	}

	check := func(name, doc string, wantErr error) {
		t.Helper()
		_, err := Decode([]byte(doc))
		if !errors.Is(err, wantErr) {
			t.Errorf("%s: got %v, want %v", name, err, wantErr)
		}
	}
	check("bad syntax", `{`, ErrSyntax)
	check("unknown top-level field", `{"scenario":1,"name":"x","flavor":"spicy","units":[]}`, ErrSyntax)
	check("trailing data", string(valid)+`{}`, ErrSyntax)
	check("missing version", `{"name":"x","units":[]}`, ErrVersion)
	check("future version", `{"scenario":99,"name":"x","units":[]}`, ErrVersion)
	check("unknown unit type", `{"scenario":1,"name":"x","units":[{"type":"bake-off"}]}`, ErrSyntax)
	check("cross-type field", `{"scenario":1,"name":"x","units":[{"type":"scaling","title":"t","process":"2-state","graph":{"family":"cycle"},"sizes":[64],"trials":5,"daemons":["synchronous"]}]}`, ErrSyntax)
	check("wrong value type", `{"scenario":1,"name":"x","units":[{"type":"scaling","title":"t","process":"2-state","graph":{"family":"cycle"},"sizes":"big","trials":5}]}`, ErrSyntax)

	// Well-formed JSON naming a bad axis is a validation error, not syntax.
	var ve *ValidationError
	_, err = Decode([]byte(`{"scenario":1,"name":"x","units":[{"type":"scaling","title":"t","process":"2-state","graph":{"family":"petersen"},"sizes":[64],"trials":5}]}`))
	if !errors.As(err, &ve) {
		t.Errorf("bad axis: got %v, want *ValidationError", err)
	}
}

// Encode→Decode→Plan equality across all three unit types and the async
// runtime — the fuzzer's round-trip property, pinned deterministically.
func TestRoundTripPlanEquality(t *testing.T) {
	b := New("kitchen-sink").Title("everything at once")
	b.Scaling("sync scaling with tail").
		Process("2-state").Graph("gnp", Params{"p": 0.02}).
		Sizes(128, 256).Trials(8).SeedOffset(7).
		Metrics("rounds", "local-times").
		ClaimNotes("note one", "note two").PolylogFit().
		MaxFit("max ln^%.2f(n)").
		Tail("tail table", 4)
	b.Scaling("async scaling").
		Process("3-state").Graph("random-regular", Params{"degree": 4}).
		Sizes(128).Trials(6).
		AsyncEventualSync(4, 16)
	b.DaemonMatrix("daemons n={n} trials={trials}").
		Processes("2-state", "3-state").Graph("gnp-avg", Params{"avgdeg": 8}).
		N(256, 64).Trials(5).Daemons("synchronous", "k-fair:4").Sequential(81)
	b.Fault("faults n={n} k={k}").
		Processes("2-state").Graph("complete", nil).
		N(128, 32).CorruptFraction(0.25).Trials(4).
		Adversaries("flip-random", "target-mis").SeedOffset(3)
	s, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	s.Claim = "round trip"
	wantPlan, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	gotPlan, err := back.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(gotPlan, "\n") != strings.Join(wantPlan, "\n") {
		t.Errorf("plan changed across encode/decode\nbefore: %v\nafter:  %v", wantPlan, gotPlan)
	}
	// Canonical form is a fixed point.
	data2, err := Encode(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data2) != string(data) {
		t.Errorf("Encode(Decode(Encode(s))) != Encode(s)")
	}
}

func TestTitleFormat(t *testing.T) {
	cases := []struct {
		title string
		want  string
	}{
		{"n={n}, {trials} trials", "n=%[1]d, %[2]d trials"},
		{"{trials} trials at n={n}", "%[2]d trials at n=%[1]d"},
		{"100% plain", "100%% plain"},
		{"no placeholders", "no placeholders"},
	}
	for _, tc := range cases {
		if got := titleFormat(tc.title, "n", "trials"); got != tc.want {
			t.Errorf("titleFormat(%q) = %q, want %q", tc.title, got, tc.want)
		}
	}
}

// A compiled non-sync unit must actually run: smoke the beeping runtime
// through the shared pool path at tiny scale.
func TestCompiledRuntimeScalingRuns(t *testing.T) {
	b := New("beep-smoke")
	b.Scaling("beeping 2-state on cycles").
		Process("2-state").
		Graph("cycle", nil).
		Sizes(48, 96).
		Trials(4).
		Runtime("beeping")
	s := mustBuild(b)
	exp, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pool := batch.NewPool(2)
	defer pool.Close()
	tables := exp.Run(experiment.Config{Scale: 0.05, Seed: 2023, Pool: pool})
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	out := tables[0].Render()
	if !strings.Contains(out, "beeping 2-state on cycles") {
		t.Errorf("missing title in:\n%s", out)
	}
}

func TestVocabularyMentionsEveryAxis(t *testing.T) {
	v := Vocabulary()
	for _, want := range []string{
		"scaling", "daemon-matrix", "fault",
		"complete", "gnp-avg", "watts-strogatz",
		"2-state", "3-color",
		"sync", "beeping", "stone-age", "async",
		"bounded", "eventual-sync", "adversarial",
		"synchronous", "k-fair",
		"flip-random", "target-mis",
		"rounds", "local-times",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("vocabulary missing %q", want)
		}
	}
}
