package mis

// Option validation: configuration errors must fail loudly at option
// construction, and every option must act on every process (WithWorkers was
// historically a 2-state-only silent no-op).

import (
	"math"
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}

func TestOptionValidationPanics(t *testing.T) {
	mustPanic(t, "bias 0", func() { WithBlackBias(0) })
	mustPanic(t, "bias 1", func() { WithBlackBias(1) })
	mustPanic(t, "bias negative", func() { WithBlackBias(-0.2) })
	mustPanic(t, "bias above 1", func() { WithBlackBias(1.5) })
	mustPanic(t, "bias NaN", func() { WithBlackBias(math.NaN()) })
	mustPanic(t, "negative workers", func() { WithWorkers(-1) })
	mustPanic(t, "zeta 0", func() { WithSwitchZetaLog2(0) })
	mustPanic(t, "zeta 65", func() { WithSwitchZetaLog2(65) })
}

func TestOptionBoundaryValuesAccepted(t *testing.T) {
	g := graph.Path(4)
	// Workers 0 and 1 select the sequential engine; extreme-but-legal biases
	// and zeta values construct fine.
	for _, opt := range [][]Option{
		{WithWorkers(0)}, {WithWorkers(1)},
		{WithBlackBias(0.001)}, {WithBlackBias(0.999)},
		{WithSwitchZetaLog2(1)}, {WithSwitchZetaLog2(64)},
	} {
		Run(NewTwoState(g, opt...), 1000)
		Run(NewThreeColor(g, opt...), 1000)
	}
}

// WithWorkers must act on all three processes and stay bit-identical to the
// sequential engine for each.
func TestWorkersActOnAllProcesses(t *testing.T) {
	g := graph.Gnp(400, 0.01, xrand.New(55))
	type mk func(opts ...Option) Process
	cases := map[string]mk{
		"2-state": func(opts ...Option) Process { return NewTwoState(g, opts...) },
		"3-state": func(opts ...Option) Process { return NewThreeState(g, opts...) },
		"3-color": func(opts ...Option) Process { return NewThreeColor(g, opts...) },
	}
	for name, newProc := range cases {
		seq := newProc(WithSeed(6))
		par := newProc(WithSeed(6), WithWorkers(6))
		for i := 0; i < 3000 && !seq.Stabilized(); i++ {
			seq.Step()
			par.Step()
			for u := 0; u < g.N(); u++ {
				if seq.Black(u) != par.Black(u) {
					t.Fatalf("%s round %d: workers diverged at %d", name, seq.Round(), u)
				}
			}
		}
		if !par.Stabilized() || seq.RandomBits() != par.RandomBits() || seq.Round() != par.Round() {
			t.Fatalf("%s: parallel accounting diverged (stab=%v bits %d/%d rounds %d/%d)",
				name, par.Stabilized(), seq.RandomBits(), par.RandomBits(), seq.Round(), par.Round())
		}
	}
}

// WithBlackBias must act on all three processes (historically the 3-state
// process silently ignored it).
func TestBlackBiasActsOnAllProcesses(t *testing.T) {
	g := graph.Gnp(300, 0.02, xrand.New(56))
	for name, newProc := range map[string]func(opts ...Option) Process{
		"2-state": func(opts ...Option) Process { return NewTwoState(g, opts...) },
		"3-state": func(opts ...Option) Process { return NewThreeState(g, opts...) },
		"3-color": func(opts ...Option) Process { return NewThreeColor(g, opts...) },
	} {
		fair := newProc(WithSeed(8))
		biased := newProc(WithSeed(8), WithBlackBias(0.9))
		Run(fair, 20000)
		Run(biased, 20000)
		// A biased coin costs 64 bits per draw instead of 1; if the bias were
		// ignored the totals would match the fair run's accounting model.
		if biased.RandomBits() <= fair.RandomBits() {
			t.Fatalf("%s: bias seems ignored (bits %d vs fair %d)",
				name, biased.RandomBits(), fair.RandomBits())
		}
	}
}
