package sched

import "testing"

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

// The central daemons move one vertex per step and return it as a
// sub-slice of privileged, allocating nothing. testing.AllocsPerRun floors
// the per-call mean, and a round-robin wrap returns privileged[:1] without
// allocating, so privileged is long enough that the cursor never wraps.
func TestCentralDaemonsSelectWithoutAllocating(t *testing.T) {
	const runs = 100
	priv := make([]int, 4*runs)
	for i := range priv {
		priv[i] = i
	}
	for _, name := range []string{"round-robin", "k-fair:4"} {
		d, err := DaemonByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var sel []int
		allocs := testing.AllocsPerRun(runs, func() { sel = d.Select(priv, nil) })
		if allocs != 0 {
			t.Errorf("%s: %v allocations per Select, want 0", name, allocs)
		}
		if len(sel) != 1 {
			t.Errorf("%s: selected %v, want one vertex", name, sel)
		}
	}
}
