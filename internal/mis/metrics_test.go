package mis

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

func TestSnapshotCountsAddUp(t *testing.T) {
	g := graph.Gnp(80, 0.08, xrand.New(41))
	p := NewTwoState(g, WithSeed(1))
	for i := 0; i < 10; i++ {
		m := Snapshot(p)
		if m.Round != p.Round() {
			t.Fatal("round mismatch")
		}
		if m.Black < 0 || m.Black > g.N() {
			t.Fatal("black count out of range")
		}
		if m.Active != p.ActiveCount() {
			t.Fatalf("active mismatch: %d vs %d", m.Active, p.ActiveCount())
		}
		if m.StableBlack > m.Black {
			t.Fatal("stable black exceeds black")
		}
		if m.Gray != 0 {
			t.Fatal("2-state process reported gray vertices")
		}
		p.Step()
	}
}

func TestSnapshotUnstableZeroAtStabilization(t *testing.T) {
	g := graph.Gnp(60, 0.1, xrand.New(42))
	p := NewTwoState(g, WithSeed(2))
	Run(p, 10000)
	m := Snapshot(p)
	if m.Unstable != 0 || m.Active != 0 {
		t.Fatalf("stabilized snapshot: unstable=%d active=%d", m.Unstable, m.Active)
	}
	// The other end: an all-white K_n has no stable black vertex, so at
	// round 0 every vertex is unstable.
	k := NewTwoState(graph.Complete(32), WithSeed(4), WithInit(InitAllWhite))
	if m := Snapshot(k); m.Round != 0 || m.Unstable != 32 {
		t.Fatalf("all-white K_32 at round 0: round=%d unstable=%d, want 0, 32", m.Round, m.Unstable)
	}
}

func TestSnapshotGrayForThreeColor(t *testing.T) {
	g := graph.Path(4)
	p := NewThreeColor(g, WithSeed(3))
	p.Corrupt(0, ColorGray, p.SwitchLevel(0))
	p.Corrupt(1, ColorGray, p.SwitchLevel(1))
	p.Corrupt(2, ColorWhite, p.SwitchLevel(2))
	p.Corrupt(3, ColorBlack, p.SwitchLevel(3))
	m := Snapshot(p)
	if m.Gray != 2 || m.Black != 1 {
		t.Fatalf("snapshot gray=%d black=%d, want 2, 1", m.Gray, m.Black)
	}
}

func TestDefaultRoundCap(t *testing.T) {
	if DefaultRoundCap(0) != 64 || DefaultRoundCap(1) != 64 {
		t.Fatal("tiny caps wrong")
	}
	if DefaultRoundCap(1<<10) <= 0 || DefaultRoundCap(1<<20) <= DefaultRoundCap(1<<10) {
		t.Fatal("cap not growing")
	}
}

func TestInitString(t *testing.T) {
	for _, init := range AllInits() {
		if init.String() == "" {
			t.Fatal("empty init name")
		}
	}
	if Init(99).String() != "Init(99)" {
		t.Fatal("unknown init string wrong")
	}
}
