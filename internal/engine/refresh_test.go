package engine

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// The complete-graph fast path sets dirtyAll every changing round, forcing
// the refresh-heavy full scan — the worst case the partitioned refresh
// targets. Workers ∈ {2, 8} must stay byte-identical to sequential,
// coverage stamps included.
func TestParallelRefreshCompleteGraph(t *testing.T) {
	g := graph.Complete(320)
	seq := newTestCore(g, 33, Options{NoopWhenIdle: true})
	pars := []*Core{
		newTestCore(g, 33, Options{NoopWhenIdle: true, Workers: 2}),
		newTestCore(g, 33, Options{NoopWhenIdle: true, Workers: 8}),
	}
	for i := 0; i < 100000 && !seq.Stabilized(); i++ {
		seq.Step()
		for _, par := range pars {
			par.Step()
			if !statesEqual(seq, par) {
				t.Fatalf("round %d: complete-graph refresh diverged", seq.Round())
			}
		}
	}
	for _, par := range pars {
		if !par.Stabilized() || seq.Bits() != par.Bits() {
			t.Fatal("complete-graph accounting mismatch")
		}
		sc, pc := seq.CoveredAt(), par.CoveredAt()
		for u := range sc {
			if sc[u] != pc[u] {
				t.Fatalf("coverage stamp of %d differs: %d vs %d", u, sc[u], pc[u])
			}
		}
		if err := par.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	}
}

// A context-backed parallel engine leases its refresh accumulators from the
// RunContext and must stay bit-identical to a fresh-allocation parallel
// engine across back-to-back runs of different sizes (stale entrant buffers
// from a larger previous run must not leak).
func TestParallelRefreshRunContextBitIdentical(t *testing.T) {
	ctx := NewRunContext()
	sizes := []int{300, 100, 300}
	for trial, n := range sizes {
		g := graph.Gnp(n, 0.03, xrand.New(uint64(40+trial)))
		fresh := newTestCore(g, uint64(trial), Options{NoopWhenIdle: true, Workers: 4})
		leased := newTestCore(g, uint64(trial), Options{NoopWhenIdle: true, Workers: 4, Ctx: ctx})
		for i := 0; i < 5000 && !fresh.Stabilized(); i++ {
			fresh.Step()
			leased.Step()
			if !statesEqual(fresh, leased) {
				t.Fatalf("trial %d round %d: leased parallel refresh diverged", trial, fresh.Round())
			}
		}
		if !leased.Stabilized() || fresh.Bits() != leased.Bits() {
			t.Fatalf("trial %d: accounting differs", trial)
		}
	}
}
