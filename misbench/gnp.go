package main

import (
	"fmt"
	"time"

	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// gnpAvgDegree is the expected average degree of the G(n, p) input.
const gnpAvgDegree = 10

// graphRNG derives the generator stream from the workload seed the way
// misrun derives it from -seed.
func graphRNG(seed uint64) *xrand.Rand { return xrand.New(seed ^ 0x9e3779b97f4a7c15) }

// processSeeds is the fixed list of process seeds a workload runs.
func processSeeds(k int) []uint64 {
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// runGnp is gnp1m-2state: misrun's single-run path on G(n=10^6, avg degree
// 10). Set-up generates the graph; each unit builds a fresh 2-state process
// with no run context, steps it to stabilization and verifies the MIS, the
// process seeds taken in turn from a fixed list.
func runGnp(cfg config, ck *checker) (*outcome, error) {
	sz := cfg.size
	out := &outcome{stamp: newStamp(cfg)}
	seeds := processSeeds(sz.gnpSeeds)
	var g *graph.Graph
	var tr *tracer
	setup := func() float64 {
		t0 := time.Now()
		id := tr.begin("setup", "setup", 0)
		sub := tr.begin("graph.GnpAvgDegree", "setup", id)
		g = graph.GnpAvgDegree(sz.gnpN, gnpAvgDegree, graphRNG(cfg.seed))
		tr.end(sub)
		tr.end(id)
		secs := time.Since(t0).Seconds()
		if tr != nil {
			rebuild(tr, g)
		}
		return secs
	}
	var stats []runStat
	unit := func(i int) (float64, int) {
		s := seeds[i%len(seeds)]
		secs, p := gnpRun(g, s, 8*mis.DefaultRoundCap(g.N()), tr, ck)
		if tr != nil {
			stats = append(stats, runStat{s, p.Round(), p.RandomBits()})
		}
		if i == 0 {
			setPlane(&out.stamp, p.CounterPlane())
			out.stamp.Relabeled = "false (no run context)"
		}
		return secs, 1
	}

	budget := cfg.budget
	if cfg.trace {
		budget /= 2
	}
	untraced := measure(budget, sz.gnpSetups, len(seeds), setup, unit)
	out.e2e = untraced.e2e
	out.notes = append(out.notes,
		fmt.Sprintf("set-up: G(n=%d, avg degree %d), n=%d m=%d maxdeg=%d, median of %d builds",
			sz.gnpN, gnpAvgDegree, g.N(), g.M(), g.MaxDegree(), len(untraced.setup)),
		percentileNote("wall_s, one run from the constructor call to a verified MIS", untraced.units))
	if !cfg.trace {
		return out, nil
	}

	tr = newTracer()
	traced := measure(budget, sz.gnpSetups, len(seeds), setup, unit)
	out.spans = tr.snapshot()
	out.layers = phaseLayers(untraced, traced)
	buildLayers(out.layers, out.spans, g.M())
	runLayers(out.layers, out.spans, g.N(), stats)
	out.notes = append(out.notes, coverageNote(out.spans, "run"))
	out.notes = append(out.notes, selfNotes(out.spans)...)
	return out, nil
}

// gnpRun is one misrun run: construct, step to stabilization or the cap,
// verify. It returns the seconds from the constructor call to the verified
// MIS.
func gnpRun(g *graph.Graph, s uint64, limit int, tr *tracer, ck *checker) (float64, *mis.TwoState) {
	group := ""
	if tr != nil {
		group = fmt.Sprintf("seed:%d", s)
	}
	t0 := time.Now()
	root := tr.begin("run", group, 0)
	id := tr.begin("mis.NewTwoState", group, root)
	p := mis.NewTwoState(g, mis.WithSeed(s), mis.WithInit(mis.InitRandom))
	tr.end(id)
	for !p.Stabilized() && p.Round() < limit {
		id = tr.begin("engine.Step", group, root)
		p.Step()
		tr.end(id)
	}
	id = tr.begin("verify.MIS", group, root)
	verr := verify.MIS(g, p.Black)
	tr.end(id)
	tr.end(root)
	secs := time.Since(t0).Seconds()
	ck.run(s, p.Stabilized(), verr, p.Round(), p.RandomBits())
	return secs, p
}

// rebuild times graph.Builder.Build on g's edges, added in the order the
// generators and the edge-list reader add them (ascending pairs), outside
// any set-up span: Build is the CSR step inside both set-ups, which the
// benchmark cannot wrap there.
func rebuild(tr *tracer, g *graph.Graph) {
	b := graph.NewBuilder(g.N())
	g.Edges(b.AddEdge)
	id := tr.begin("graph.Builder.Build", "setup", 0)
	b.Build()
	tr.end(id)
}
