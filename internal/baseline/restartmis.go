package baseline

// RestartMIS is a didactic reconstruction of the restart mechanism behind
// the self-stabilizing MIS of Emek and Keren (PODC 2021, [12] in the
// paper): a RandPhase(D) phase clock synchronizes periodic restarts of a
// simple NON-self-stabilizing one-bit MIS computation (each phase: Luby-
// style beeping from a clean slate; a corrupted "decided" flag survives
// only until the next restart). On graphs of diameter at most D the clock
// synchronizes, every phase is a clean global start, and an MIS appears
// within O(D + log n) rounds of a phase boundary; on graphs of larger
// diameter the restart waves desynchronize and vertices restart while
// their neighbors are mid-computation.
//
// This is NOT the algorithm of [12] (which maintains its output across
// phases); it exists to reproduce the paper's comparative claim that
// restart-based self-stabilization is "fast only on graphs whose diameter
// is bounded by a known constant D", in contrast to the paper's processes,
// which need no synchronization at all.

import (
	"ssmis/internal/graph"
	"ssmis/internal/phaseclock"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// misPhase is the per-vertex state of the within-phase computation.
type misPhase uint8

const (
	phaseUndecided misPhase = iota + 1
	phaseInMIS
	phaseOut
)

// RestartMIS runs the phase-clock-synchronized restart scheme.
type RestartMIS struct {
	g        *graph.Graph
	clock    *phaseclock.Clock
	state    []misPhase
	rngs     []*xrand.Rand
	beepProb float64
	round    int

	prevLevel []uint8
	beeped    []bool
}

// NewRestartMIS creates the scheme with clock parameter D and ζ = 2^-zetaK.
// The within-phase beep probability is 1/(Δ+1) (Luby-style degree
// awareness — with a constant probability, dense graphs make joins
// exponentially unlikely; this is one of the extra resources restart
// schemes consume that the paper's processes do not). Initial MIS states
// and clock levels are adversarial (uniformly random) — the point of the
// construction is to absorb them at the next restart.
func NewRestartMIS(g *graph.Graph, d int, zetaK uint, seed uint64) *RestartMIS {
	n := g.N()
	master := xrand.New(seed)
	r := &RestartMIS{
		g:         g,
		clock:     phaseclock.New(g, phaseclock.WithD(d), phaseclock.WithZetaLog2(zetaK)),
		state:     make([]misPhase, n),
		rngs:      make([]*xrand.Rand, n),
		beepProb:  1.0 / float64(g.MaxDegree()+1),
		prevLevel: make([]uint8, n),
		beeped:    make([]bool, n),
	}
	for u := 0; u < n; u++ {
		r.rngs[u] = master.Split(uint64(u))
	}
	init := master.Split(uint64(n) + 1)
	for u := 0; u < n; u++ {
		r.state[u] = misPhase(1 + init.Intn(3))
	}
	r.clock.RandomizeLevels(init)
	for u := 0; u < n; u++ {
		r.prevLevel[u] = r.clock.Level(u)
	}
	return r
}

// InMIS reports whether u currently claims MIS membership.
func (r *RestartMIS) InMIS(u int) bool { return r.state[u] == phaseInMIS }

// Valid reports whether the current claimed set is an MIS of the graph.
func (r *RestartMIS) Valid() bool {
	return verify.MIS(r.g, r.InMIS) == nil
}

// Step advances one synchronous round: the one-bit Luby-style computation
// (beep coin first on each vertex's stream), then the phase clock (clock
// coin second), then restarts for vertices whose clock wrapped 0→top.
func (r *RestartMIS) Step() {
	n := r.g.N()
	// Beep phase: undecided vertices beep with probability 1/(Δ+1).
	for u := 0; u < n; u++ {
		r.beeped[u] = r.state[u] == phaseUndecided && r.rngs[u].Bernoulli(r.beepProb)
	}
	// Decision phase against the snapshot.
	next := make([]misPhase, n)
	for u := 0; u < n; u++ {
		next[u] = r.state[u]
		switch r.state[u] {
		case phaseUndecided:
			inMISNbr := false
			beepNbr := false
			for _, v := range r.g.Neighbors(u) {
				if r.state[v] == phaseInMIS {
					inMISNbr = true
				}
				if r.beeped[v] {
					beepNbr = true
				}
			}
			switch {
			case inMISNbr:
				next[u] = phaseOut
			case r.beeped[u] && !beepNbr:
				next[u] = phaseInMIS
			}
		case phaseOut, phaseInMIS:
			// Decided vertices are inert until the next restart — the
			// non-self-stabilizing part the clock compensates for.
		}
	}
	copy(r.state, next)

	// Clock advances; a 0→top wrap restarts the vertex's computation.
	r.clock.Step(r.rngs)
	for u := 0; u < n; u++ {
		lvl := r.clock.Level(u)
		if r.prevLevel[u] == 0 && lvl == r.clock.Top() {
			r.state[u] = phaseUndecided
		}
		r.prevLevel[u] = lvl
	}
	r.round++
}

// RunUntilValid steps until the claimed set is an MIS or maxRounds elapse,
// returning the rounds executed and success.
func (r *RestartMIS) RunUntilValid(maxRounds int) (int, bool) {
	for r.round < maxRounds {
		if r.Valid() {
			return r.round, true
		}
		r.Step()
	}
	return r.round, r.Valid()
}
