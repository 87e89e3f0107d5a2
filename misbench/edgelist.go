package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ssmis/internal/batch"
	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/graphio"
	"ssmis/internal/mis"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// The edge-list input: a Chung-Lu power-law graph with its ids permuted by
// the workload seed. The generator emits hubs at the front of the id
// space; the permutation scatters them, as in real edge lists, which is
// what makes the locality relabeling engage.
const (
	clBeta      = 2.5
	clAvgDegree = 10
)

// runEdgeList is edgelist-3state-trials: misrun -graph file -proc 3state
// -trials K. Before timing it writes the edge list; set-up is
// graphio.ReadEdgeList; each unit is one K-seed trial batch on a fresh
// batch.Pool, as one shard with per-worker run contexts.
func runEdgeList(cfg config, ck *checker) (*outcome, error) {
	sz := cfg.size
	out := &outcome{stamp: newStamp(cfg)}
	out.stamp.Workers = runtime.GOMAXPROCS(0)
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, fmt.Errorf("create scratch dir: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.scratch, "edgelist-")
	if err != nil {
		return nil, fmt.Errorf("create input dir: %w", err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "graph.txt")
	if err := writeEdgeList(path, sz.clN, cfg.seed); err != nil {
		return nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("stat input: %w", err)
	}
	fileMB := float64(info.Size()) / (1 << 20)
	g, err := readEdgeList(path)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	var setupErr error
	setup := func() float64 {
		t0 := time.Now()
		id := tr.begin("setup", "setup", 0)
		sub := tr.begin("graphio.ReadEdgeList", "setup", id)
		parsed, err := readEdgeList(path)
		tr.end(sub)
		tr.end(id)
		secs := time.Since(t0).Seconds()
		if err != nil {
			setupErr = err
			return secs
		}
		g = parsed
		if tr != nil {
			rebuild(tr, g)
			id := tr.begin("graph.DegreeBucketOrder", "setup", 0)
			graph.DegreeBucketOrder(g)
			tr.end(id)
		}
		return secs
	}
	seeds := processSeeds(sz.trials)
	var bs *batchStats
	unit := func(int) (float64, int) {
		secs := trialBatch(g, seeds, 0, tr, ck, bs)
		return secs, len(seeds)
	}

	budget := cfg.budget
	if cfg.trace {
		budget /= 2
	}
	bs = &batchStats{}
	untraced := measure(budget, sz.clSetups, 1, setup, unit)
	if setupErr != nil {
		return nil, setupErr
	}
	out.e2e = untraced.e2e
	setPlane(&out.stamp, bs.plane)
	out.stamp.Relabeled = fmt.Sprint(bs.relabeled)
	out.notes = append(out.notes,
		fmt.Sprintf("set-up: edge list of Chung-Lu(n=%d, beta=%g, avg degree %d), m=%d maxdeg=%d, %.2f MB, median of %d parses",
			sz.clN, clBeta, clAvgDegree, g.M(), g.MaxDegree(), fileMB, len(untraced.setup)),
		percentileNote(fmt.Sprintf("wall_s, one %d-seed batch from Submit to Wait", len(seeds)), untraced.units))
	if !cfg.trace {
		return out, nil
	}

	tr = newTracer()
	bs = &batchStats{}
	traced := measure(budget, sz.clSetups, 1, setup, unit)
	if setupErr != nil {
		return nil, setupErr
	}
	out.spans = tr.snapshot()
	tr = nil
	one := trialBatch(g, seeds, 1, nil, ck, &batchStats{})

	parse := median(durs(out.spans, "graphio.ReadEdgeList"))
	out.layers = phaseLayers(untraced, traced)
	out.layers["graph.order_s"] = median(durs(out.spans, "graph.DegreeBucketOrder"))
	out.layers["graphio.parse_s"] = parse
	out.layers["graphio.mb_per_s"] = fileMB / parse
	out.layers["batch.scaling_eff"] = one / untraced.e2e["wall_s"] / float64(out.stamp.Workers)
	buildLayers(out.layers, out.spans, g.M())
	runLayers(out.layers, out.spans, g.N(), bs.runs)
	bs.layers(out.layers)
	out.notes = append(out.notes, fmt.Sprintf("single-worker batch: %.4g s", one))
	out.notes = append(out.notes, coverageNote(out.spans, "batch.job"))
	out.notes = append(out.notes, selfNotes(out.spans)...)
	return out, nil
}

// writeEdgeList writes the seed's input graph to path.
func writeEdgeList(path string, n int, seed uint64) error {
	g := graph.ChungLu(n, clBeta, clAvgDegree, graphRNG(seed))
	perm := xrand.New(seed ^ 0x5851f42d4c957f2d).Perm(n)
	p32 := make([]int32, n)
	for i, v := range perm {
		p32[i] = int32(v)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create input: %w", err)
	}
	if err := graphio.WriteEdgeList(f, graph.Relabel(g, p32)); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close input: %w", err)
	}
	return nil
}

// readEdgeList is misrun's file loader.
func readEdgeList(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open input: %w", err)
	}
	defer f.Close()
	return graphio.ReadEdgeList(f)
}

// jobInfo is what a trial job reports besides its rounds and bits.
type jobInfo struct {
	rc        *engine.RunContext // identifies the worker
	start     time.Time
	secs      float64
	verr      error
	plane     engine.CounterPlaneInfo
	relabeled bool
}

// batchStats collects the pool's figures over a phase's trial batches.
type batchStats struct {
	stamped   bool // plane and relabeled hold job 0 of the first batch
	plane     engine.CounterPlaneInfo
	relabeled bool

	jobs, firstJobs, idle, sink, steals, util []float64

	runs []runStat // traced runs only
}

// layers fills the batch metrics.
func (b *batchStats) layers(layers map[string]float64) {
	layers["batch.job_s_p50"] = median(b.jobs)
	layers["batch.job_s_p90"] = quantile(b.jobs, 0.9)
	layers["batch.first_job_s"] = median(b.firstJobs)
	layers["batch.idle_frac"] = median(b.idle)
	layers["batch.sink_s"] = median(b.sink)
	layers["batch.steals"] = median(b.steals)
	layers["batch.util"] = median(b.util)
}

// trialBatch is misrun's -trials path: the seeds as one shard on a fresh
// pool of the given size (0: GOMAXPROCS), every run verified and checked in
// the sink. It returns the seconds from Submit to Wait.
func trialBatch(g *graph.Graph, seeds []uint64, workers int, tr *tracer, ck *checker, bs *batchStats) float64 {
	limit := 8 * mis.DefaultRoundCap(g.N())
	pool := batch.NewPool(workers)
	defer pool.Close()
	var infos []jobInfo
	var sinkSecs float64
	cpu0 := cpuSeconds()
	t0 := time.Now()
	root := tr.begin("batch.SubmitWait", "trials", 0)
	pool.SubmitOpts([]batch.Shard{{
		Build: func() *graph.Graph { return g },
		Seeds: seeds,
		Run: func(rc *engine.RunContext, g *graph.Graph, _ int, s uint64) batch.Outcome {
			group := ""
			if tr != nil {
				group = fmt.Sprintf("seed:%d", s)
			}
			js := time.Now()
			job := tr.begin("batch.job", group, root)
			id := tr.begin("mis.NewThreeState", group, job)
			p := mis.NewThreeState(g, mis.WithRunContext(rc), mis.WithSeed(s), mis.WithInit(mis.InitRandom))
			tr.end(id)
			ord, cached := rc.CachedOrdering(g)
			for !p.Stabilized() && p.Round() < limit {
				id = tr.begin("engine.Step", group, job)
				p.Step()
				tr.end(id)
			}
			id = tr.begin("verify.MIS", group, job)
			verr := verify.MIS(g, p.Black)
			tr.end(id)
			tr.end(job)
			return batch.Outcome{
				Rounds: p.Round(), Bits: p.RandomBits(), Failed: !p.Stabilized(), Broken: verr != nil,
				Extra: jobInfo{rc: rc, start: js, secs: time.Since(js).Seconds(), verr: verr,
					plane: p.CounterPlane(), relabeled: cached && ord != nil},
			}
		},
	}}, batch.SubmitOptions{}, func(o batch.Outcome) {
		t := time.Now()
		id := tr.begin("batch.sink", "trials", root)
		info := o.Extra.(jobInfo)
		ck.run(o.Seed, !o.Failed, info.verr, o.Rounds, o.Bits)
		infos = append(infos, info)
		if tr != nil {
			bs.runs = append(bs.runs, runStat{o.Seed, o.Rounds, o.Bits})
		}
		tr.end(id)
		sinkSecs += time.Since(t).Seconds()
	}).Wait()
	wall := time.Since(t0).Seconds()
	tr.end(root)
	cpu := cpuSeconds() - cpu0

	if !bs.stamped && len(infos) > 0 {
		bs.stamped, bs.plane, bs.relabeled = true, infos[0].plane, infos[0].relabeled
	}
	firstByWorker := map[*engine.RunContext]jobInfo{}
	busy := 0.0
	for _, in := range infos {
		bs.jobs = append(bs.jobs, in.secs)
		busy += in.secs
		if f, ok := firstByWorker[in.rc]; !ok || in.start.Before(f.start) {
			firstByWorker[in.rc] = in
		}
	}
	for _, f := range firstByWorker {
		bs.firstJobs = append(bs.firstJobs, f.secs)
	}
	capacity := wall * float64(pool.Workers())
	bs.idle = append(bs.idle, 1-busy/capacity)
	bs.util = append(bs.util, cpu/capacity)
	bs.sink = append(bs.sink, sinkSecs)
	bs.steals = append(bs.steals, float64(pool.Steals()))
	return wall
}
