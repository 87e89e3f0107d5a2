package ssmis

import (
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/sched"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// Graph is a simple undirected graph in compressed sparse row form.
// Construct one with the generator functions below or with NewGraphBuilder.
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces an immutable Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// FromEdges builds a graph on n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]int) *Graph { return graph.FromEdges(n, edges) }

// Complete returns the complete graph K_n.
func Complete(n int) *Graph { return graph.Complete(n) }

// Path returns the path graph on n vertices.
func Path(n int) *Graph { return graph.Path(n) }

// Cycle returns the cycle graph on n >= 3 vertices.
func Cycle(n int) *Graph { return graph.Cycle(n) }

// Star returns the star graph K_{1,n-1}.
func Star(n int) *Graph { return graph.Star(n) }

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// Gnp returns an Erdős–Rényi random graph G(n,p) drawn with the given seed.
func Gnp(n int, p float64, seed uint64) *Graph {
	return graph.Gnp(n, p, xrand.New(seed))
}

// GnpAvgDegree returns G(n, p) with p chosen so the expected average degree
// is d.
func GnpAvgDegree(n int, d float64, seed uint64) *Graph {
	return graph.GnpAvgDegree(n, d, xrand.New(seed))
}

// RandomTree returns a random recursive tree on n vertices.
func RandomTree(n int, seed uint64) *Graph {
	return graph.RandomTree(n, xrand.New(seed))
}

// DisjointCliques returns the disjoint union of count cliques of the given
// size.
func DisjointCliques(count, size int) *Graph { return graph.DisjointCliques(count, size) }

// RandomRegular returns a d-regular random simple graph (n·d must be even).
func RandomRegular(n, d int, seed uint64) *Graph {
	return graph.RandomRegular(n, d, xrand.New(seed))
}

// ChungLu returns a random graph with a power-law expected degree sequence
// (exponent beta, typically in (2,3)) and average degree approximately d —
// the skewed-degree counterpart to Gnp.
func ChungLu(n int, beta, d float64, seed uint64) *Graph {
	return graph.ChungLu(n, beta, d, xrand.New(seed))
}

// Process is a self-stabilizing MIS process: it advances in synchronous
// rounds from arbitrary initial states and, once Stabilized reports true,
// its black vertices form a maximal independent set.
type Process = mis.Process

// Option configures a process constructor.
type Option = mis.Option

// Result summarizes a completed run.
type Result = mis.Result

// Init selects an initial-state adversary.
type Init = mis.Init

// Initialization adversaries (the processes are self-stabilizing, so the
// initial state is an adversarial choice).
const (
	InitRandom       = mis.InitRandom
	InitAllWhite     = mis.InitAllWhite
	InitAllBlack     = mis.InitAllBlack
	InitCheckerboard = mis.InitCheckerboard
	InitNearMIS      = mis.InitNearMIS
)

// WithSeed sets the master seed of a process (default 1).
func WithSeed(seed uint64) Option { return mis.WithSeed(seed) }

// WithInit selects the initialization adversary (default InitRandom).
func WithInit(init Init) Option { return mis.WithInit(init) }

// WithInitialBlack supplies an explicit initial black mask (copied).
func WithInitialBlack(black []bool) Option { return mis.WithInitialBlack(black) }

// WithBlackBias sets the probability an active vertex randomizes to black
// (default 0.5; see the E13 ablation).
func WithBlackBias(p float64) Option { return mis.WithBlackBias(p) }

// WithLocalTimes enables per-vertex stabilization-time recording, exposed
// through each process's StabilizationTimes method (see experiment E14).
func WithLocalTimes() Option { return mis.WithLocalTimes() }

// WithIdentityOrder opts a process out of the locality relabeling the
// engine auto-selects on large graphs, keeping engine storage in original
// vertex ids. Relabeled executions are graph isomorphisms of
// identity-ordered ones — outcomes, coins, and histories are identical —
// so this is a diagnostic/benchmark knob.
func WithIdentityOrder() Option { return mis.WithIdentityOrder() }

// WithDegreeOrder forces the degree-bucketed locality relabeling on
// regardless of graph size or run context. Primarily for tests and
// benchmarks; the auto policy already selects it where it pays off.
func WithDegreeOrder() Option { return mis.WithDegreeOrder() }

// ToggleEdge returns a copy of g with edge {u,v} added if absent, removed
// if present. Combine with a process's Rebind method to model topology
// churn (experiment E15).
func ToggleEdge(g *Graph, u, v int) *Graph { return g.WithEdgeToggled(u, v) }

// Churn returns a copy of g with k random edge toggles plus the toggled
// pairs, drawn deterministically from seed.
func Churn(g *Graph, k int, seed uint64) (*Graph, [][2]int) {
	return g.WithRandomChurn(k, xrand.New(seed))
}

// NewTwoState creates the paper's 2-state MIS process (Definition 4) on g.
func NewTwoState(g *Graph, opts ...Option) *mis.TwoState {
	return mis.NewTwoState(g, opts...)
}

// NewThreeState creates the paper's 3-state MIS process (Definition 5) on g.
func NewThreeState(g *Graph, opts ...Option) *mis.ThreeState {
	return mis.NewThreeState(g, opts...)
}

// NewThreeColor creates the paper's 18-state 3-color MIS process with
// randomized logarithmic switch (Definitions 26 and 28) on g.
func NewThreeColor(g *Graph, opts ...Option) *mis.ThreeColor {
	return mis.NewThreeColor(g, opts...)
}

// Daemon selects which privileged (inconsistent) vertices move in a
// daemon-scheduled step; see NewTwoState/NewThreeState's DaemonRun methods.
type Daemon = sched.Daemon

// DaemonNames lists the selectable daemon schedules: synchronous,
// central-adversarial, central-random, distributed-random, round-robin.
func DaemonNames() []string { return sched.DaemonNames() }

// DaemonByName returns a fresh daemon instance for one of DaemonNames. The
// 2-state process stabilizes with probability 1 under every daemon (the
// transformation of [28, 31] the paper cites); the 3-state process needs a
// fair daemon — its reactive demotion livelocks under central-adversarial.
func DaemonByName(name string) (Daemon, error) { return sched.DaemonByName(name) }

// Run advances p until stabilization or maxRounds rounds (0 selects a
// generous default cap that no healthy run should hit).
func Run(p Process, maxRounds int) Result {
	if maxRounds <= 0 {
		maxRounds = 8 * mis.DefaultRoundCap(p.N())
	}
	return mis.Run(p, maxRounds)
}

// BlackSet returns the current black vertices of p as a sorted slice. After
// stabilization this is a maximal independent set.
func BlackSet(p Process) []int {
	var out []int
	for u := 0; u < p.N(); u++ {
		if p.Black(u) {
			out = append(out, u)
		}
	}
	return out
}

// Checkpoint is a serialized process execution state; restoring it resumes
// the exact execution (same coins, same rounds). See the Restore functions.
type Checkpoint = mis.Checkpoint

// DecodeCheckpoint parses an encoded checkpoint produced by a process's
// Checkpoint method (the versioned internal/snapshot envelope); truncated,
// corrupted, or version-skewed data is rejected with an error.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	return mis.DecodeCheckpoint(data)
}

// RestoreTwoState resumes a checkpointed 2-state process on g.
func RestoreTwoState(g *Graph, c *Checkpoint, opts ...Option) (*mis.TwoState, error) {
	return mis.RestoreTwoState(g, c, opts...)
}

// RestoreThreeState resumes a checkpointed 3-state process on g.
func RestoreThreeState(g *Graph, c *Checkpoint, opts ...Option) (*mis.ThreeState, error) {
	return mis.RestoreThreeState(g, c, opts...)
}

// RestoreThreeColor resumes a checkpointed 3-color process on g.
func RestoreThreeColor(g *Graph, c *Checkpoint, opts ...Option) (*mis.ThreeColor, error) {
	return mis.RestoreThreeColor(g, c, opts...)
}

// VerifyMIS checks that the given vertex set is a maximal independent set of
// g; it returns nil on success and a descriptive error identifying the first
// violation otherwise.
func VerifyMIS(g *Graph, set []int) error {
	in := make(map[int]bool, len(set))
	for _, u := range set {
		in[u] = true
	}
	return verify.MIS(g, func(u int) bool { return in[u] })
}
