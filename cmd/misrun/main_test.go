package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/graphio"
	"ssmis/internal/mis"
)

// TestNegativeWorkersRejected drives the real flag path: the test binary
// re-executes itself with MISRUN_ARGS set, and the child runs run() on
// those arguments. Each pool flag misrun cannot honour must fail loudly at
// flag parsing (exit 2): a negative -workers or -batch instead of being
// silently coerced to GOMAXPROCS or automatic chunks by the pool, a
// -trials below 1 instead of running one seed, and -workers or -batch
// without -trials, where there is no pool for them to size. So must a
// negative -checkpoint-every, instead of writing only the exit snapshot,
// and each graph flag out of its generator's range, with one line instead
// of a panic's goroutine trace (which also exits 2).
func TestNegativeWorkersRejected(t *testing.T) {
	if args := os.Getenv("MISRUN_ARGS"); args != "" {
		os.Args = append([]string{"misrun"}, strings.Fields(args)...)
		os.Exit(run())
	}
	ckpt := filepath.Join(t.TempDir(), "f")
	cases := []struct{ args, diag string }{
		{"-graph clique -n 8 -workers -3", "-workers must be >= 0"},
		{"-graph clique -n 8 -trials 4 -batch -3", "-batch must be >= 0"},
		{"-graph clique -n 8 -trials 0", "-trials must be >= 1"},
		{"-graph clique -n 8 -trials -2", "-trials must be >= 1"},
		{"-graph clique -n 8 -checkpoint-every -5 -checkpoint " + ckpt, "-checkpoint-every must be >= 0"},
		{"-graph gnp -n 500 -p 0.02 -proc 2state -seed 1 -workers 4", "need -trials > 1"},
		{"-graph clique -n 8 -batch 2", "need -trials > 1"},
		{"-graph clique -n 8 -trials 1 -workers 2", "need -trials > 1"},
		{"-n -5", "-n must be >= 1"},
		{"-n 0", "-n must be >= 1"},
		{"-graph path -n 0", "-n must be >= 1"},
		{"-p 1.5", "-p must be in [0, 1]"},
		{"-p -0.1", "-p must be in [0, 1]"},
		{"-p NaN", "-p must be in [0, 1]"},
		{"-graph regular -n 10 -d -1", "-d must be in [0, n)"},
		{"-graph regular -n 10 -d 10", "-d must be in [0, n)"},
		{"-graph cycle -n 2", "-graph cycle needs -n >= 3"},
	}
	for _, c := range cases {
		cmd := exec.Command(os.Args[0], "-test.run", "TestNegativeWorkersRejected")
		cmd.Env = append(os.Environ(), "MISRUN_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s: want exit error, got err=%v output=%q", c.args, err, out)
		}
		if code := ee.ExitCode(); code != 2 {
			t.Fatalf("%s: exit code = %d, want 2; output: %q", c.args, code, out)
		}
		if !strings.Contains(string(out), c.diag) || strings.Count(string(out), "\n") != 1 {
			t.Fatalf("%s: want the one-line diagnostic %q, output: %q", c.args, c.diag, out)
		}
	}
}

func TestBuildGraphFamilies(t *testing.T) {
	cases := []struct {
		kind string
		n    int
	}{
		{"gnp", 100}, {"clique", 50}, {"path", 30}, {"cycle", 30},
		{"star", 30}, {"tree", 100}, {"grid", 100}, {"cliques", 100},
		{"regular", 100},
	}
	for _, c := range cases {
		g, err := buildGraph(c.kind, "", c.n, 0.05, 4, 1)
		if err != nil {
			t.Errorf("%s: %v", c.kind, err)
			continue
		}
		if g.N() == 0 {
			t.Errorf("%s: empty graph", c.kind)
		}
	}
	if _, err := buildGraph("nope", "", 10, 0.1, 2, 1); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := buildGraph("file", "", 10, 0.1, 2, 1); err == nil {
		t.Error("file family without -in accepted")
	}
	if _, err := buildGraph("file", "/nonexistent/x", 10, 0.1, 2, 1); err == nil {
		t.Error("missing file accepted")
	}

	// The file case: a WriteEdgeList file loads back as the generator's graph.
	want, err := buildGraph("gnp", "", 500, 0.02, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteEdgeList(f, want); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := buildGraph("file", path, 0, 0, 0, 1)
	if err != nil {
		t.Fatalf("file: %v", err)
	}
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("file: loaded %v, want %v", got, want)
	}
	for u := 0; u < want.N(); u++ {
		if !slices.Equal(got.Neighbors(u), want.Neighbors(u)) {
			t.Fatalf("file: neighbours of %d = %v, want %v", u, got.Neighbors(u), want.Neighbors(u))
		}
	}
}

func TestBuildGraphRegularOddProduct(t *testing.T) {
	// n*d odd gets n bumped to keep the configuration model valid.
	g, err := buildGraph("regular", "", 101, 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N()%2 != 0 && 3%2 != 0 && g.N()*3%2 != 0 {
		t.Fatal("odd n*d not fixed")
	}
}

func TestParseInit(t *testing.T) {
	for _, init := range mis.AllInits() {
		got, err := parseInit(init.String())
		if err != nil || got != init {
			t.Errorf("parseInit(%q) = %v, %v", init.String(), got, err)
		}
	}
	if _, err := parseInit("bogus"); err == nil {
		t.Error("bogus init accepted")
	}
}

func TestIsqrt(t *testing.T) {
	cases := map[int]int{1: 1, 3: 1, 4: 2, 99: 9, 100: 10, 101: 10}
	for n, want := range cases {
		if got := graph.ISqrt(n); got != want {
			t.Errorf("ISqrt(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRunTrialsSmoke(t *testing.T) {
	g, err := buildGraph("clique", "", 64, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rc := runTrials(g, "2state", mis.InitRandom, 1, 5, 100000, 2, 1); rc != 0 {
		t.Fatalf("runTrials returned %d", rc)
	}
	if rc := runTrials(g, "bogus", mis.InitRandom, 1, 5, 1000, 0, 0); rc != 2 {
		t.Fatalf("bogus process returned %d, want 2", rc)
	}
}

func TestRunDaemonSmoke(t *testing.T) {
	g, err := buildGraph("gnp", "", 200, 0.03, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, proc := range []string{"2state", "3state"} {
		if rc := runDaemon(g, proc, "central-random", mis.InitRandom, 1, 0, nil, "", 0); rc != 0 {
			t.Fatalf("%s under central-random returned %d", proc, rc)
		}
	}
	if rc := runDaemon(g, "3color", "central-random", mis.InitRandom, 1, 0, nil, "", 0); rc != 2 {
		t.Fatalf("3color daemon run returned %d, want 2", rc)
	}
	if rc := runDaemon(g, "2state", "bogus", mis.InitRandom, 1, 0, nil, "", 0); rc != 2 {
		t.Fatalf("bogus daemon returned %d, want 2", rc)
	}
}
