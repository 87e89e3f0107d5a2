package sched

import (
	"fmt"
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

func TestCentralDaemonStabilizesInTwoMovesPerVertex(t *testing.T) {
	// The classic result for the sequential deterministic algorithm: under a
	// central daemon it stabilizes after at most 2n moves, regardless of
	// scheduling order.
	rng := xrand.New(1)
	for trial := 0; trial < 30; trial++ {
		g := graph.Gnp(60, 0.1, rng.Split(uint64(trial)))
		for _, d := range []Daemon{CentralAdversarial{}, CentralRandom{}, &RoundRobin{}} {
			s := NewSequential(g, d, uint64(trial))
			steps, ok := s.Run(10 * g.N())
			if !ok {
				t.Fatalf("trial %d %s: not stabilized after %d steps", trial, d.Name(), steps)
			}
			if s.Moves() > 2*g.N() {
				t.Fatalf("trial %d %s: %d moves > 2n = %d", trial, d.Name(), s.Moves(), 2*g.N())
			}
			if err := verify.MIS(g, s.Black); err != nil {
				t.Fatalf("trial %d %s: %v", trial, d.Name(), err)
			}
		}
	}
}

func TestSynchronousDeterministicLivelocks(t *testing.T) {
	// Two adjacent white vertices (with no other neighbors) flip to black
	// together, then back to white together, forever: the deterministic
	// rule is not self-stabilizing under the synchronous daemon. This is
	// the paper's motivation for randomizing the parallel process.
	g := graph.Path(2)
	white := []bool{false, false}
	s := NewSequential(g, Synchronous{}, 1, WithInitialBlack(white))
	steps, ok := s.Run(1000)
	if ok {
		t.Fatalf("deterministic synchronous run stabilized after %d steps; expected livelock", steps)
	}
	// The masks run white, black, white, black: Brent's check saves the
	// mask after step 1 and meets it again after step 3, which proves the
	// livelock long before the cap.
	if steps != 3 || s.Steps() != 3 {
		t.Fatalf("livelock proven after %d steps (Steps() = %d), want 3", steps, s.Steps())
	}
	once := NewSequential(g, Synchronous{}, 1, WithInitialBlack(white))
	once.Step()
	for u := 0; u < g.N(); u++ {
		if s.Black(u) != once.Black(u) {
			t.Fatalf("vertex %d: final mask %v differs from the mask after step 1", u, s.Black(u))
		}
	}
}

// cappedRun is the reference for Run: it steps until stabilization or the
// cap and proves nothing.
func cappedRun(s *Sequential, maxSteps int) (int, bool) {
	for s.steps < maxSteps {
		if !s.Step() {
			return s.steps, true
		}
	}
	return s.steps, s.Stabilized()
}

// Run must agree with the capped Step loop on every run: on whether it
// stabilizes, and when it does on steps, moves and the mask. The cycle
// check engages only for the deterministic rule under the synchronous
// daemon; every other run must match the reference exactly, down to the
// next draw of its stream.
//
// No synchronous deterministic run stabilizes after step 1. Let X1 and X2
// be the black sets one and two steps after X0, with X2 an MIS. A vertex of
// X1 outside X2 has a neighbour in X2, which has no neighbour in X1. A
// vertex of X2 outside X1 has a neighbour a in X0; a is outside X2, so a
// has a neighbour b in X1, yet b has no neighbour in X0. So X1 = X2, and
// the synchronous cases that stabilize do so at step 0 or 1; the runs that
// stabilize after several steps are the central and randomized ones.
func TestRunMatchesCappedStepLoop(t *testing.T) {
	type runCase struct {
		name       string
		g          *graph.Graph
		daemon     string
		randomized bool
		init       []bool // nil: uniformly random from the seed
		seed       uint64
		cap        int
	}
	cases := []runCase{
		{name: "path2 livelock", g: graph.Path(2), daemon: "synchronous", init: []bool{false, false}, cap: 100},
		{name: "path2 cap below the proof", g: graph.Path(2), daemon: "synchronous", init: []bool{false, false}, cap: 2},
		{name: "path3 stabilizes at step 1", g: graph.Path(3), daemon: "synchronous", init: []bool{true, false, false}, cap: 100},
		{name: "path3 starts stable", g: graph.Path(3), daemon: "synchronous", init: []bool{true, false, true}, cap: 100},
		{name: "star livelock", g: graph.Star(6), daemon: "synchronous", init: []bool{true, true, false, false, false, false}, cap: 100},
	}
	rng := xrand.New(8)
	daemons := []string{"synchronous", "central-adversarial", "central-random", "distributed-random", "round-robin", "k-fair:4"}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		p := rng.Float64() * 0.5
		g := graph.Gnp(n, p, rng.Split(uint64(trial)))
		for _, d := range daemons {
			for _, randomized := range []bool{false, true} {
				cases = append(cases, runCase{
					name:       fmt.Sprintf("gnp(%d,%.2f) %s randomized=%v", n, p, d, randomized),
					g:          g,
					daemon:     d,
					randomized: randomized,
					seed:       uint64(trial),
					cap:        20 * n,
				})
			}
		}
	}

	var proofs, syncStable, longStable int
	for _, tc := range cases {
		var opts []Option
		if tc.randomized {
			opts = append(opts, Randomized())
		}
		if tc.init != nil {
			opts = append(opts, WithInitialBlack(tc.init))
		}
		da, _ := DaemonByName(tc.daemon)
		db, _ := DaemonByName(tc.daemon)
		a := NewSequential(tc.g, da, tc.seed, opts...)
		b := NewSequential(tc.g, db, tc.seed, opts...)
		steps, ok := a.Run(tc.cap)
		refSteps, refOK := cappedRun(b, tc.cap)
		if ok != refOK {
			t.Fatalf("%s: Run stabilized=%v after %d steps, capped loop %v after %d",
				tc.name, ok, steps, refOK, refSteps)
		}
		engaged := tc.daemon == "synchronous" && !tc.randomized
		if ok || !engaged {
			if steps != refSteps || a.Steps() != b.Steps() || a.Moves() != b.Moves() {
				t.Fatalf("%s: Run took %d steps/%d moves, capped loop %d/%d",
					tc.name, a.Steps(), a.Moves(), b.Steps(), b.Moves())
			}
			for u := 0; u < tc.g.N(); u++ {
				if a.Black(u) != b.Black(u) {
					t.Fatalf("%s: vertex %d differs from the capped loop", tc.name, u)
				}
			}
		}
		if !engaged && a.rng.Uint64() != b.rng.Uint64() {
			t.Fatalf("%s: the next draw of the stream differs from the capped loop", tc.name)
		}
		switch {
		case engaged && !ok && steps < tc.cap:
			proofs++
		case engaged && ok:
			syncStable++
		case ok && steps > 1:
			longStable++
		}
	}
	if proofs == 0 || syncStable == 0 || longStable == 0 {
		t.Fatalf("cases too narrow: %d proofs, %d stabilizing synchronous runs, %d runs stabilizing after several steps",
			proofs, syncStable, longStable)
	}
}

func TestSynchronousRandomizedStabilizes(t *testing.T) {
	// Randomized moves break the livelock: this is exactly the 2-state MIS
	// process and must stabilize with probability 1.
	g := graph.Path(2)
	s := NewSequential(g, Synchronous{}, 2, Randomized(), WithInitialBlack([]bool{false, false}))
	_, ok := s.Run(10000)
	if !ok {
		t.Fatal("randomized synchronous run did not stabilize")
	}
	if err := verify.MIS(g, s.Black); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedStabilizesUnderAllDaemons(t *testing.T) {
	rng := xrand.New(3)
	daemons := []Daemon{CentralAdversarial{}, CentralRandom{}, Synchronous{}, DistributedRandom{}}
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(50, 0.1, rng.Split(uint64(trial)))
		for _, d := range daemons {
			s := NewSequential(g, d, uint64(trial), Randomized())
			if _, ok := s.Run(200 * g.N()); !ok {
				t.Fatalf("trial %d %s: randomized run did not stabilize", trial, d.Name())
			}
			if err := verify.MIS(g, s.Black); err != nil {
				t.Fatalf("trial %d %s: %v", trial, d.Name(), err)
			}
		}
	}
}

func TestDeterministicDistributedRandomStabilizes(t *testing.T) {
	// With a *random* distributed daemon even the deterministic rule
	// stabilizes with probability 1 (singleton selections break symmetry).
	g := graph.Cycle(9)
	s := NewSequential(g, DistributedRandom{}, 4)
	if _, ok := s.Run(100000); !ok {
		t.Fatal("deterministic rule under random distributed daemon did not stabilize")
	}
	if err := verify.MIS(g, s.Black); err != nil {
		t.Fatal(err)
	}
}

func TestPrivilegedCountsAndAccessors(t *testing.T) {
	g := graph.Path(3)
	// all black: 0 and 1 and 2... vertex 1 black with black nbrs, 0 and 2
	// black with black nbr -> all privileged.
	s := NewSequential(g, CentralAdversarial{}, 5, WithInitialBlack([]bool{true, true, true}))
	if s.Privileged() != 3 {
		t.Fatalf("Privileged = %d, want 3", s.Privileged())
	}
	if s.Stabilized() {
		t.Fatal("all-black path reported stabilized")
	}
	if !s.Black(0) {
		t.Fatal("Black accessor wrong")
	}
	s.Step()
	if s.Steps() != 1 || s.Moves() != 1 {
		t.Fatalf("Steps=%d Moves=%d after one central step", s.Steps(), s.Moves())
	}
}

func TestStepOnStabilizedReturnsFalse(t *testing.T) {
	g := graph.Path(2)
	s := NewSequential(g, CentralAdversarial{}, 6, WithInitialBlack([]bool{true, false}))
	if !s.Stabilized() {
		t.Fatal("MIS configuration not stabilized")
	}
	if s.Step() {
		t.Fatal("Step on stabilized instance reported a move")
	}
}

func TestInitialMaskValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong mask length")
		}
	}()
	NewSequential(graph.Path(3), Synchronous{}, 1, WithInitialBlack([]bool{true}))
}

func TestDaemonNames(t *testing.T) {
	for _, d := range []Daemon{CentralAdversarial{}, CentralRandom{}, Synchronous{}, DistributedRandom{}, &RoundRobin{}} {
		if d.Name() == "" {
			t.Fatal("empty daemon name")
		}
	}
}

// KFair behaves adversarially (lowest privileged index) while nobody is
// starved, and must serve a continuously privileged vertex once its window
// expires — driven here on raw privileged lists, independent of any rule.
func TestKFairServesStarvedVertex(t *testing.T) {
	d := NewKFair(3)
	priv := []int{2, 7}
	// Steps 1 and 2: nobody has been starved for 3 steps yet, so the
	// adversarial choice (vertex 2) moves and vertex 7's starvation grows.
	for step := 1; step <= 2; step++ {
		if got := d.Select(priv, nil); got[0] != 2 {
			t.Fatalf("step %d: selected %d, want adversarial 2", step, got[0])
		}
	}
	// Step 3: vertex 7 has been privileged, unselected, for 3 consecutive
	// steps — the fairness window forces it to move.
	if got := d.Select(priv, nil); got[0] != 7 {
		t.Fatalf("step 3: selected %d, want starved 7", got[0])
	}
	// Its starvation counter reset, so the daemon is adversarial again.
	if got := d.Select(priv, nil); got[0] != 2 {
		t.Fatalf("step 4: selected %d, want adversarial 2", got[0])
	}
}

// A vertex that stops being privileged loses its accumulated starvation:
// the window counts CONSECUTIVE privileged steps.
func TestKFairStarvationResetsWhenUnprivileged(t *testing.T) {
	d := NewKFair(2)
	if got := d.Select([]int{0, 5}, nil); got[0] != 0 {
		t.Fatalf("step 1: selected %d, want 0", got[0])
	}
	// Vertex 5 drops out for a step, then returns: its run restarts at 1.
	if got := d.Select([]int{0}, nil); got[0] != 0 {
		t.Fatalf("step 2: selected %d, want 0", got[0])
	}
	if got := d.Select([]int{0, 5}, nil); got[0] != 0 {
		t.Fatalf("step 3: selected %d, want 0 (5's run restarted)", got[0])
	}
	if got := d.Select([]int{0, 5}, nil); got[0] != 5 {
		t.Fatalf("step 4: selected %d, want starved 5", got[0])
	}
}

// Among several starved vertices the longest-starved moves first, ties to
// the lowest index.
func TestKFairLongestStarvedFirst(t *testing.T) {
	d := NewKFair(1)
	// k=1: every privileged vertex is immediately starved; the daemon serves
	// the longest-privileged one each step, ties to the lowest index.
	if got := d.Select([]int{3, 8}, nil); got[0] != 3 {
		t.Fatalf("step 1: selected %d, want 3 (tie to lowest)", got[0])
	}
	// Vertex 8 has run 2, vertex 3 restarted at 1 after moving.
	if got := d.Select([]int{3, 8}, nil); got[0] != 8 {
		t.Fatalf("step 2: selected %d, want 8 (longest starved)", got[0])
	}
}

func TestKFairByName(t *testing.T) {
	d, err := DaemonByName("k-fair")
	if err != nil || d.Name() != "k-fair:4" {
		t.Fatalf("bare k-fair: %v, %v", d, err)
	}
	d, err = DaemonByName("k-fair:8")
	if err != nil || d.Name() != "k-fair:8" {
		t.Fatalf("k-fair:8: %v, %v", d, err)
	}
	for _, bad := range []string{"k-fair:0", "k-fair:-2", "k-fair:x", "k-fair:"} {
		if _, err := DaemonByName(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
	// Every advertised daemon name must resolve.
	for _, name := range DaemonNames() {
		if _, err := DaemonByName(name); err != nil {
			t.Fatalf("DaemonNames entry %q does not resolve: %v", name, err)
		}
	}
}

func TestKFairValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on k < 1")
		}
	}()
	NewKFair(0)
}

// The randomized sequential rule stabilizes under k-fair daemons too (the
// [28, 31] claim holds for any daemon; k-fair sits between adversarial and
// fully fair).
func TestRandomizedStabilizesUnderKFair(t *testing.T) {
	g := graph.Gnp(40, 0.15, xrand.New(5))
	for _, k := range []int{1, 4, 16} {
		s := NewSequential(g, NewKFair(k), 11, Randomized())
		if _, ok := s.Run(100 * g.N()); !ok {
			t.Fatalf("randomized rule did not stabilize under %d-fair", k)
		}
	}
}

func TestRoundRobinCyclesFairly(t *testing.T) {
	// On an all-black clique every vertex is privileged; round robin must
	// visit them in cyclic id order.
	g := graph.Complete(5)
	s := NewSequential(g, &RoundRobin{}, 1,
		WithInitialBlack([]bool{true, true, true, true, true}))
	var visited []int
	for i := 0; i < 4 && !s.Stabilized(); i++ {
		before := make([]bool, 5)
		for u := 0; u < 5; u++ {
			before[u] = s.Black(u)
		}
		s.Step()
		for u := 0; u < 5; u++ {
			if s.Black(u) != before[u] {
				visited = append(visited, u)
			}
		}
	}
	for i := 1; i < len(visited); i++ {
		if visited[i] <= visited[i-1] {
			t.Fatalf("round robin out of order: %v", visited)
		}
	}
}

// A stateful daemon restored from MarshalState must continue the schedule
// exactly: running a sequence, snapshotting mid-way, and resuming into a
// fresh instance selects the same vertices as the uninterrupted daemon.
func TestStatefulDaemonStateRoundTrip(t *testing.T) {
	g := graph.Gnp(60, 0.1, xrand.New(3))
	for _, name := range []string{"round-robin", "k-fair:3"} {
		full, _ := DaemonByName(name)
		half, _ := DaemonByName(name)
		a := NewSequential(g, full, 7, Randomized())
		b := NewSequential(g, half, 7, Randomized())
		for i := 0; i < 40; i++ {
			a.Step()
			b.Step()
		}
		blob, err := half.(Stateful).MarshalState()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resumed, _ := DaemonByName(name)
		if err := resumed.(Stateful).UnmarshalState(blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Swap the restored daemon under b's continuation.
		b.daemon = resumed
		for i := 0; i < 200; i++ {
			am, bm := a.Step(), b.Step()
			if am != bm {
				t.Fatalf("%s: step %d: progress flags diverged", name, i)
			}
			for u := 0; u < g.N(); u++ {
				if a.Black(u) != b.Black(u) {
					t.Fatalf("%s: step %d vertex %d diverged", name, i, u)
				}
			}
			if !am {
				break
			}
		}
		if a.Moves() != b.Moves() || a.Steps() != b.Steps() {
			t.Fatalf("%s: accounting diverged (%d/%d moves, %d/%d steps)",
				name, a.Moves(), b.Moves(), a.Steps(), b.Steps())
		}
	}
	// Window mismatch is rejected.
	k4, _ := DaemonByName("k-fair:4")
	blob, _ := k4.(Stateful).MarshalState()
	k8, _ := DaemonByName("k-fair:8")
	if err := k8.(Stateful).UnmarshalState(blob); err == nil {
		t.Fatal("k-fair window mismatch accepted")
	}
}
