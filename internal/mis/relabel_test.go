package mis

import (
	"fmt"
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/sched"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// relabelEngaged reports whether the process runs its engine over a
// non-identity locality relabeling.
func relabelEngaged(p Process) bool {
	switch q := p.(type) {
	case *TwoState:
		return q.ord != nil
	case *ThreeState:
		return q.ord != nil
	case *ThreeColor:
		return q.ord != nil
	default:
		return false
	}
}

type relabelProc struct {
	name string
	mk   func(g *graph.Graph, opts ...Option) Process
	// stateOf exposes the full per-vertex state (in ORIGINAL vertex ids —
	// the only id space the public accessors speak).
	stateOf func(p Process, u int) int
}

func relabelProcs() []relabelProc {
	return []relabelProc{
		{
			"2-state",
			func(g *graph.Graph, opts ...Option) Process { return NewTwoState(g, opts...) },
			func(p Process, u int) int {
				if p.(*TwoState).Black(u) {
					return 1
				}
				return 0
			},
		},
		{
			"3-state",
			func(g *graph.Graph, opts ...Option) Process { return NewThreeState(g, opts...) },
			func(p Process, u int) int { return int(p.(*ThreeState).State(u)) },
		},
		{
			"3-color",
			func(g *graph.Graph, opts ...Option) Process {
				return NewThreeColor(g, opts...)
			},
			func(p Process, u int) int {
				tc := p.(*ThreeColor)
				return int(tc.ColorOf(u))<<8 | int(tc.SwitchLevel(u))
			},
		},
	}
}

// The relabeled execution is a graph isomorphism of the identity-ordered
// one, and every public surface is keyed by original ids — so a relabeled
// process and an identity process on the same seed must agree EXACTLY,
// round by round: summaries, per-vertex states/colors/levels, random-bit
// accounting, and the coveredAt stamps. 3 rules × workers {1, 8}, forced
// via WithDegreeOrder on graphs small enough that the auto policy would
// stay identity.
func TestRelabelEquivalenceMatrix(t *testing.T) {
	// graph.Star itself keeps the identity order (hub already at id 0), so
	// the star here puts its hub at the HIGHEST id to force a real move.
	starB := graph.NewBuilder(500)
	for u := 0; u < 499; u++ {
		starB.AddEdge(u, 499)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"chunglu", graph.ChungLu(600, 2.5, 8, xrand.New(21))},
		{"star", starB.Build()},
		{"gnp", graph.Gnp(300, 0.03, xrand.New(22))},
	}
	type timed interface{ StabilizationTimes() []int }
	for _, pr := range relabelProcs() {
		for _, gc := range graphs {
			cap := 4 * DefaultRoundCap(gc.g.N())
			ident := pr.mk(gc.g, WithSeed(42), WithLocalTimes(), WithIdentityOrder())
			if relabelEngaged(ident) {
				t.Fatalf("%s/%s: identity process engaged relabeling", pr.name, gc.name)
			}
			identRes := Run(ident, cap)
			if !identRes.Stabilized {
				t.Fatalf("%s/%s: identity run did not stabilize", pr.name, gc.name)
			}
			if err := verify.MIS(gc.g, ident.Black); err != nil {
				t.Fatalf("%s/%s: %v", pr.name, gc.name, err)
			}
			identTimes := ident.(timed).StabilizationTimes()
			for _, workers := range []int{1, 8} {
				name := fmt.Sprintf("%s/%s/workers=%d", pr.name, gc.name, workers)
				rel := pr.mk(gc.g, WithSeed(42), WithLocalTimes(), WithWorkers(workers), WithDegreeOrder())
				if !relabelEngaged(rel) {
					t.Fatalf("%s: relabeling did not engage", name)
				}
				// Round-by-round against a fresh identity twin so a
				// divergence is pinned to the round it appears.
				twin := pr.mk(gc.g, WithSeed(42), WithLocalTimes(), WithIdentityOrder())
				for !rel.Stabilized() && rel.Round() < cap {
					rel.Step()
					twin.Step()
					if rel.ActiveCount() != twin.ActiveCount() || rel.RandomBits() != twin.RandomBits() {
						t.Fatalf("%s: round %d active/bits diverged (%d,%d) vs (%d,%d)",
							name, rel.Round(), rel.ActiveCount(), rel.RandomBits(),
							twin.ActiveCount(), twin.RandomBits())
					}
					for u := 0; u < gc.g.N(); u++ {
						if pr.stateOf(rel, u) != pr.stateOf(twin, u) {
							t.Fatalf("%s: state of %d diverged at round %d", name, u, rel.Round())
						}
					}
				}
				if res := (Result{rel.Round(), rel.Stabilized(), rel.RandomBits()}); res != identRes {
					t.Fatalf("%s: summary %+v, identity %+v", name, res, identRes)
				}
				rt := rel.(timed).StabilizationTimes()
				for u, st := range identTimes {
					if rt[u] != st {
						t.Fatalf("%s: coveredAt stamp of %d is %d, identity %d", name, u, rt[u], st)
					}
				}
			}
		}
	}
}

// recordingDaemon wraps a daemon and journals every privileged set and
// selection it sees. Daemon selections happen in ORIGINAL vertex ids
// regardless of the engine's internal order, so the histories of a
// relabeled and an identity execution must be identical element-for-element.
type recordingDaemon struct {
	inner   sched.Daemon
	history [][]int
	priv    [][]int
}

func (d *recordingDaemon) Name() string { return d.inner.Name() }

func (d *recordingDaemon) Select(privileged []int, rng *xrand.Rand) []int {
	d.priv = append(d.priv, append([]int(nil), privileged...))
	sel := d.inner.Select(privileged, rng)
	d.history = append(d.history, append([]int(nil), sel...))
	return sel
}

func TestRelabelDaemonHistoryEquivalence(t *testing.T) {
	// Fair daemons only: the 3-state rule can livelock under
	// central-adversarial (see daemon.go), which would hit the step cap.
	// Daemons can be stateful (round-robin's cursor), so each side gets its
	// own instance.
	g := graph.ChungLu(150, 2.5, 6, xrand.New(9))
	daemons := []func() sched.Daemon{
		func() sched.Daemon { return sched.Synchronous{} },
		func() sched.Daemon { return sched.CentralRandom{} },
		func() sched.Daemon { return &sched.RoundRobin{} },
	}
	type stepper interface {
		Process
		DaemonStep(sched.Daemon) bool
		Moves() int
		State(int) TriState
	}
	for _, mkd := range daemons {
		rd := &recordingDaemon{inner: mkd()}
		id := &recordingDaemon{inner: mkd()}
		rel := NewThreeState(g, WithSeed(13), WithDegreeOrder())
		ident := NewThreeState(g, WithSeed(13), WithIdentityOrder())
		if !relabelEngaged(rel) {
			t.Fatal("relabeling did not engage")
		}
		cap := DefaultDaemonStepCap(g.N())
		var rp, ip stepper = rel, ident
		for i := 0; i < cap && !rp.Stabilized(); i++ {
			rp.DaemonStep(rd)
			ip.DaemonStep(id)
			if rp.Moves() != ip.Moves() || rp.RandomBits() != ip.RandomBits() {
				t.Fatalf("%s: step %d moves/bits diverged", rd.Name(), i)
			}
		}
		if !rp.Stabilized() || !ip.Stabilized() {
			t.Fatalf("%s: did not stabilize", rd.Name())
		}
		if len(rd.history) != len(id.history) {
			t.Fatalf("%s: history length %d vs %d", rd.Name(), len(rd.history), len(id.history))
		}
		for i := range rd.history {
			if fmt.Sprint(rd.priv[i]) != fmt.Sprint(id.priv[i]) {
				t.Fatalf("%s: privileged set at step %d: %v vs %v", rd.Name(), i, rd.priv[i], id.priv[i])
			}
			if fmt.Sprint(rd.history[i]) != fmt.Sprint(id.history[i]) {
				t.Fatalf("%s: selection at step %d: %v vs %v", rd.Name(), i, rd.history[i], id.history[i])
			}
		}
		for u := 0; u < g.N(); u++ {
			if rp.State(u) != ip.State(u) {
				t.Fatalf("%s: state of %d diverged", rd.Name(), u)
			}
		}
	}
}

// Fault injection must address original ids under relabeling: corrupting
// the same vertices in both executions keeps them in lockstep through the
// recovery.
func TestRelabelCorruptionEquivalence(t *testing.T) {
	g := graph.ChungLu(400, 2.5, 8, xrand.New(31))
	mut := xrand.New(4)
	rel := NewThreeState(g, WithSeed(8), WithDegreeOrder())
	ident := NewThreeState(g, WithSeed(8), WithIdentityOrder())
	for i := 0; i < 5; i++ {
		rel.Step()
		ident.Step()
	}
	for i := 0; i < 20; i++ {
		u := mut.Intn(g.N())
		s := TriState(1 + mut.Intn(3))
		rel.Corrupt(u, s)
		ident.Corrupt(u, s)
	}
	cap := 4 * DefaultRoundCap(g.N())
	r1, r2 := Run(rel, cap), Run(ident, cap)
	if r1 != r2 {
		t.Fatalf("post-corruption: relabeled %+v vs identity %+v", r1, r2)
	}
	for u := 0; u < g.N(); u++ {
		if rel.State(u) != ident.State(u) {
			t.Fatalf("state of %d diverged after recovery", u)
		}
	}
}

// Checkpoints serialize in original vertex ids, so they are portable across
// orderings: a run saved under the relabeling must resume identically
// without it, and vice versa — against an uninterrupted identity run as the
// golden reference.
func TestRelabelCheckpointCrossOrdering(t *testing.T) {
	g := graph.ChungLu(350, 2.5, 7, xrand.New(12))
	cap := 4 * DefaultRoundCap(g.N())
	type ckpt interface {
		Process
		Checkpoint() (*Checkpoint, error)
	}
	cases := []struct {
		name    string
		mk      func(opts ...Option) ckpt
		restore func(c *Checkpoint, opts ...Option) (Process, error)
		stateOf func(p Process, u int) int
	}{
		{
			"2-state",
			func(opts ...Option) ckpt { return NewTwoState(g, opts...) },
			func(c *Checkpoint, opts ...Option) (Process, error) { return RestoreTwoState(g, c, opts...) },
			func(p Process, u int) int {
				if p.(*TwoState).Black(u) {
					return 1
				}
				return 0
			},
		},
		{
			"3-state",
			func(opts ...Option) ckpt { return NewThreeState(g, opts...) },
			func(c *Checkpoint, opts ...Option) (Process, error) { return RestoreThreeState(g, c, opts...) },
			func(p Process, u int) int { return int(p.(*ThreeState).State(u)) },
		},
		{
			"3-color",
			func(opts ...Option) ckpt { return NewThreeColor(g, opts...) },
			func(c *Checkpoint, opts ...Option) (Process, error) { return RestoreThreeColor(g, c, opts...) },
			func(p Process, u int) int {
				tc := p.(*ThreeColor)
				return int(tc.ColorOf(u))<<8 | int(tc.SwitchLevel(u))
			},
		},
	}
	dirs := []struct {
		name          string
		save, restore Option
	}{
		{"relabel-to-identity", WithDegreeOrder(), WithIdentityOrder()},
		{"identity-to-relabel", WithIdentityOrder(), WithDegreeOrder()},
	}
	for _, c := range cases {
		// Uninterrupted identity-order run: the golden execution.
		golden := c.mk(WithSeed(3), WithIdentityOrder())
		goldenRes := Run(golden, cap)
		if !goldenRes.Stabilized {
			t.Fatalf("%s: golden run did not stabilize", c.name)
		}
		for _, dir := range dirs {
			name := c.name + "/" + dir.name
			p := c.mk(WithSeed(3), dir.save)
			for i := 0; i < 4; i++ {
				p.Step()
			}
			snap, err := p.Checkpoint()
			if err != nil {
				t.Fatalf("%s: checkpoint: %v", name, err)
			}
			data, err := snap.Encode()
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			dec, err := DecodeCheckpoint(data)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			q, err := c.restore(dec, dir.restore)
			if err != nil {
				t.Fatalf("%s: restore: %v", name, err)
			}
			if res := Run(q, cap); res != goldenRes {
				t.Fatalf("%s: resumed summary %+v, golden %+v", name, res, goldenRes)
			}
			for u := 0; u < g.N(); u++ {
				if c.stateOf(q, u) != c.stateOf(golden, u) {
					t.Fatalf("%s: state of %d diverged after resume", name, u)
				}
			}
		}
	}
}

// Rebind must carry the SAME permutation onto the churned topology: after a
// toggle, a relabeled and an identity process stay in lockstep through the
// re-stabilization.
func TestRelabelRebindEquivalence(t *testing.T) {
	g := graph.ChungLu(400, 2.5, 8, xrand.New(14))
	cap := 4 * DefaultRoundCap(g.N())
	rel := NewThreeState(g, WithSeed(6), WithDegreeOrder())
	ident := NewThreeState(g, WithSeed(6), WithIdentityOrder())
	if r1, r2 := Run(rel, cap), Run(ident, cap); r1 != r2 {
		t.Fatalf("pre-churn: %+v vs %+v", r1, r2)
	}
	g2 := g.WithEdgeToggled(1, 2)
	rel.Rebind(g2)
	ident.Rebind(g2)
	if !relabelEngaged(rel) {
		t.Fatal("relabeling lost across Rebind")
	}
	if r1, r2 := Run(rel, cap), Run(ident, cap); r1 != r2 {
		t.Fatalf("post-churn: %+v vs %+v", r1, r2)
	}
	for u := 0; u < g.N(); u++ {
		if rel.State(u) != ident.State(u) {
			t.Fatalf("state of %d diverged after rebind", u)
		}
	}
	if err := verify.MIS(g2, rel.Black); err != nil {
		t.Fatal(err)
	}
}

// The auto policy: relabeling engages only with a run context and only
// at relabelAutoThreshold vertices and beyond; WithIdentityOrder opts out.
// randPermI32 returns a deterministic pseudo-random permutation of [0, n).
func randPermI32(n int, rng *xrand.Rand) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func TestRelabelAutoPolicy(t *testing.T) {
	ctx := engine.NewRunContext()
	small := graph.Gnp(200, 0.05, xrand.New(2))
	if relabelEngaged(NewTwoState(small, WithSeed(1), WithRunContext(ctx))) {
		t.Fatal("auto relabeling engaged below the size threshold")
	}
	// The generators emit weight-sorted ids (hubs already front-packed), so
	// auto only has something to win on a scrambled id space — the arrival
	// order of real-world graphs.
	sorted := graph.ChungLu(relabelAutoThreshold, 2.5, 6, xrand.New(2))
	if sorted.MaxDegree() < graph.HubDegreeMin {
		t.Fatalf("test premise broken: no hubs (max degree %d)", sorted.MaxDegree())
	}
	big := graph.Relabel(sorted, randPermI32(sorted.N(), xrand.New(77)))
	if !relabelEngaged(NewTwoState(big, WithSeed(1), WithRunContext(ctx))) {
		t.Fatal("auto relabeling did not engage on the scrambled graph at the threshold")
	}
	if relabelEngaged(NewTwoState(sorted, WithSeed(1), WithRunContext(engine.NewRunContext()))) {
		t.Fatal("auto relabeling engaged on an already degree-sorted graph")
	}
	// Without a run context the ordering cannot be memoized, so one-shot
	// constructions would pay the full reorder per run: auto stays off.
	if relabelEngaged(NewTwoState(big, WithSeed(1))) {
		t.Fatal("auto relabeling engaged without a run context to memoize the ordering")
	}
	// Flat-degree family at threshold size: no hubs to pack, auto stays
	// identity (the pure BFS reorder measures as a slight loss there).
	flat := graph.Gnp(relabelAutoThreshold, 8.0/float64(relabelAutoThreshold), xrand.New(3))
	if flat.MaxDegree() >= graph.HubDegreeMin {
		t.Fatalf("test premise broken: Gnp draw has a hub (max degree %d)", flat.MaxDegree())
	}
	if relabelEngaged(NewTwoState(flat, WithSeed(1), WithRunContext(engine.NewRunContext()))) {
		t.Fatal("auto relabeling engaged on a hubless graph")
	}
	if relabelEngaged(NewTwoState(big, WithSeed(1), WithRunContext(ctx), WithIdentityOrder())) {
		t.Fatal("WithIdentityOrder did not opt out")
	}
	// And the auto-relabeled execution equals the identity one there too.
	cap := 4 * DefaultRoundCap(big.N())
	auto := NewTwoState(big, WithSeed(1), WithRunContext(ctx))
	ident := NewTwoState(big, WithSeed(1), WithIdentityOrder())
	if r1, r2 := Run(auto, cap), Run(ident, cap); r1 != r2 {
		t.Fatalf("auto %+v vs identity %+v", r1, r2)
	}
}

// The run-context ordering memo keeps the degree-bucketed ordering and the
// auto policy's verdict apart. On a hubless graph at the size threshold the
// policy says identity, yet WithDegreeOrder must still relabel on a context
// that memoized that verdict — and, in the other order, an auto
// construction must stay identity on a context that already holds the
// forced ordering.
func TestRelabelMemoSeparatesVerdictFromOrdering(t *testing.T) {
	g := graph.GnpAvgDegree(relabelAutoThreshold, 10, xrand.New(4))
	if autoRelabelWorthwhile(g) {
		t.Fatal("test premise broken: the auto policy would relabel this graph")
	}
	forced := func(ctx *engine.RunContext) *TwoState {
		return NewTwoState(g, WithSeed(1), WithRunContext(ctx), WithDegreeOrder())
	}
	auto := func(ctx *engine.RunContext) *TwoState {
		return NewTwoState(g, WithSeed(1), WithRunContext(ctx))
	}

	ctx := engine.NewRunContext()
	if relabelEngaged(auto(ctx)) {
		t.Fatal("auto relabeled a graph its policy rejects")
	}
	if ord, judged := ctx.CachedOrdering(g); !judged || ord != nil {
		t.Fatalf("auto verdict not memoized as identity: (%v, %v)", ord, judged)
	}
	if !relabelEngaged(forced(ctx)) {
		t.Fatal("WithDegreeOrder returned the memoized identity verdict instead of relabeling")
	}

	ctx = engine.NewRunContext()
	first := forced(ctx)
	if !relabelEngaged(first) {
		t.Fatal("WithDegreeOrder did not relabel")
	}
	if relabelEngaged(auto(ctx)) {
		t.Fatal("auto reused the forced ordering its policy rejects")
	}
	if ord, judged := ctx.CachedOrdering(g); !judged || ord != nil {
		t.Fatalf("auto verdict after a forced construction: (%v, %v), want identity", ord, judged)
	}
	if again := forced(ctx); again.ord != first.ord {
		t.Fatal("forced constructions on one context recomputed the ordering")
	}
}
