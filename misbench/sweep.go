package main

import (
	"fmt"
	"runtime"
	"time"

	"ssmis/internal/batch"
	"ssmis/internal/experiment"
)

// runSweep is sweep-quick: missweep -run all -scale 0.25 with the workload
// seed as the sweep's master seed. Set-up is the registry plus the pool
// start; each unit is one whole sweep, driven the way missweep drives it.
func runSweep(cfg config, ck *checker) (*outcome, error) {
	sz := cfg.size
	out := &outcome{stamp: newStamp(cfg)}
	out.stamp.Workers = runtime.GOMAXPROCS(0)
	out.stamp.Layout = "n/a (processes are built inside experiment code)"
	out.stamp.Relabeled = out.stamp.Layout
	var tr *tracer
	var selected []experiment.Experiment
	setup := func() float64 {
		t0 := time.Now()
		id := tr.begin("setup", "setup", 0)
		sub := tr.begin("experiment.Registry", "setup", id)
		reg := experiment.Registry()
		tr.end(sub)
		sub = tr.begin("batch.NewPool", "setup", id)
		pool := batch.NewPool(0)
		tr.end(sub)
		tr.end(id)
		secs := time.Since(t0).Seconds()
		pool.Close()
		selected = pick(reg, sz.sweepIDs)
		return secs
	}
	var st *sweepStats
	unit := func(int) (float64, int) {
		secs, jobs := sweepOnce(selected, sz.sweepScale, cfg.seed, 0, tr, ck, st)
		return secs, jobs
	}

	budget := cfg.budget
	if cfg.trace {
		budget /= 2
	}
	st = &sweepStats{}
	untraced := measure(budget, sz.sweepSetups, 1, setup, unit)
	out.e2e = untraced.e2e
	out.notes = append(out.notes,
		fmt.Sprintf("set-up: registry of %d experiments plus pool start, median of %d", len(selected), len(untraced.setup)),
		fmt.Sprintf("sweep: %d experiments at scale %g, %d tables, %d cells, %d scheduled jobs per sweep",
			len(selected), sz.sweepScale, st.tables, st.cells, st.jobs),
		percentileNote("wall_s, one whole sweep", untraced.units))
	if !cfg.trace {
		return out, nil
	}

	tr = newTracer()
	st = &sweepStats{secs: map[string][]float64{}}
	traced := measure(budget, sz.sweepSetups, 1, setup, unit)
	out.spans = tr.snapshot()
	tr = nil
	one, _ := sweepOnce(selected, sz.sweepScale, cfg.seed, 1, nil, ck, &sweepStats{})

	out.layers = phaseLayers(untraced, traced)
	out.layers["batch.scaling_eff"] = one / untraced.e2e["wall_s"] / float64(out.stamp.Workers)
	out.layers["batch.steals"] = median(st.steals)
	out.layers["batch.util"] = median(st.util)
	out.layers["experiment.cell_s_max"] = st.cellMax
	out.layers["experiment.jobs"] = float64(st.jobs)
	out.layers["experiment.cells"] = float64(st.cells)
	for id, secs := range st.secs {
		out.layers["experiment."+id+"_s"] = median(secs)
	}
	out.notes = append(out.notes, fmt.Sprintf("single-worker sweep: %.4g s", one))
	out.notes = append(out.notes, selfNotes(out.spans)...)
	return out, nil
}

// pick returns the registry's experiments with the given ids, or all of
// them for nil.
func pick(reg []experiment.Experiment, ids []string) []experiment.Experiment {
	if ids == nil {
		return reg
	}
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var out []experiment.Experiment
	for _, e := range reg {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out
}

// sweepStats collects a phase's sweep figures.
type sweepStats struct {
	secs                map[string][]float64 // experiment id -> seconds per sweep
	steals, util        []float64
	cellMax             float64
	tables, cells, jobs int // of the last sweep
}

// sweepOnce runs the experiments the way missweep does: one shared pool of
// the given size (0: GOMAXPROCS), every experiment launched at once behind
// a semaphore of pool.Workers() slots, tables collected in registry order
// and checked by digest. It returns the sweep's seconds and its scheduled
// jobs.
func sweepOnce(selected []experiment.Experiment, scale float64, seed uint64, workers int, tr *tracer, ck *checker, st *sweepStats) (float64, int) {
	pool := batch.NewPool(workers)
	defer pool.Close()
	type result struct {
		tables []experiment.Table
		cells  []experiment.Cell
		secs   float64
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	root := tr.begin("sweep", "sweep", 0)
	sem := make(chan struct{}, pool.Workers())
	results := make([]chan result, len(selected))
	for i, e := range selected {
		results[i] = make(chan result, 1)
		go func(e experiment.Experiment, out chan<- result) {
			cells := &experiment.CellLog{}
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			id := tr.begin("experiment."+e.ID, e.ID, root)
			tables := e.Run(experiment.Config{Scale: scale, Seed: seed, Pool: pool, Cells: cells})
			tr.end(id)
			out <- result{tables, cells.Cells(), time.Since(start).Seconds()}
		}(e, results[i])
	}
	var digests []string
	jobs, ncells := 0, 0
	for i, e := range selected {
		r := <-results[i]
		for _, t := range r.tables {
			digests = append(digests, digest(t.Render()))
		}
		for _, c := range r.cells {
			jobs += c.Jobs
			st.cellMax = max(st.cellMax, c.Elapsed.Seconds())
		}
		ncells += len(r.cells)
		if st.secs != nil {
			st.secs[e.ID] = append(st.secs[e.ID], r.secs)
		}
	}
	wall := time.Since(t0).Seconds()
	tr.end(root)
	ck.sweep(digests)
	st.tables, st.cells, st.jobs = len(digests), ncells, jobs
	st.steals = append(st.steals, float64(pool.Steals()))
	st.util = append(st.util, (cpuSeconds()-cpu0)/(wall*float64(pool.Workers())))
	return wall, jobs
}
