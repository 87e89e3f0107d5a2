package main

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"ssmis/internal/engine"
)

// runStat is one traced process run's exact counts.
type runStat struct {
	seed   uint64
	rounds int
	bits   int64
}

// durs returns the seconds of every span named name.
func durs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e9)
		}
	}
	return out
}

// buildLayers fills the graph-build metrics from the Builder.Build spans of
// a graph with m edges.
func buildLayers(layers map[string]float64, spans []span, m int) {
	if d := median(durs(spans, "graph.Builder.Build")); d > 0 {
		layers["graph.build_s"] = d
		layers["graph.edges_per_s"] = float64(m) / d
	}
}

// runLayers fills the mis, engine and verify metrics from the spans of
// traced process runs on n vertices, whose counts are in stats.
func runLayers(layers map[string]float64, spans []span, n int, stats []runStat) {
	var construct, verify []float64
	stepByRun := map[int]float64{}
	var stepNs float64
	for _, s := range spans {
		d := float64(s.dur())
		switch {
		case strings.HasPrefix(s.Name, "mis.New"):
			construct = append(construct, d/1e9)
		case s.Name == "engine.Step":
			stepByRun[s.Parent] += d / 1e9
			stepNs += d
		case s.Name == "verify.MIS":
			verify = append(verify, d/1e9)
		}
	}
	var perRun []float64
	for _, v := range stepByRun {
		perRun = append(perRun, v)
	}
	// The means run over the distinct seeds, so they are exact counts that
	// do not depend on how many repeats fit in the measuring time.
	var bits, vertexRounds, seedRounds, seedBits float64
	seen := map[uint64]bool{}
	for _, st := range stats {
		bits += float64(st.bits)
		vertexRounds += float64(n) * float64(st.rounds)
		if !seen[st.seed] {
			seen[st.seed] = true
			seedRounds += float64(st.rounds)
			seedBits += float64(st.bits)
		}
	}
	layers["mis.construct_s_p50"] = median(construct)
	layers["engine.step_s_p50"] = median(perRun)
	layers["verify.mis_s_p50"] = median(verify)
	if bits > 0 {
		layers["engine.ns_per_bit"] = stepNs / bits
	}
	if vertexRounds > 0 {
		layers["engine.ns_per_vertex_round"] = stepNs / vertexRounds
	}
	if len(seen) > 0 {
		layers["engine.rounds_mean"] = seedRounds / float64(len(seen))
		layers["engine.bits_mean"] = seedBits / float64(len(seen))
	}
}

// coverageNote states how much of the traced runs (root spans named root)
// the construct, step and verify spans cover.
func coverageNote(spans []span, root string) string {
	self := selfTimes(spans)
	var tot, own float64
	for i, s := range spans {
		if s.Name == root {
			tot += float64(s.dur())
			own += float64(self[i])
		}
	}
	if tot == 0 {
		return "coverage: no " + root + " spans"
	}
	return fmt.Sprintf("coverage: construct, step and verify self time is %.2f%% of the %s spans", 100*(tot-own)/tot, root)
}

// setPlane stamps the resolved counter-plane geometry.
func setPlane(st *stamp, info engine.CounterPlaneInfo) {
	st.Layout = info.Layout.String()
	st.WidthBits = info.WidthBits
	st.HubLen = info.HubLen
	if !info.Active {
		st.Layout = "none"
	}
}

// selfNotes renders the self-time table, one line per span name, and the
// self time summed by layer.
func selfNotes(spans []span) []string {
	out := []string{fmt.Sprintf("%-28s %8s %12s %12s", "span", "count", "total_s", "self_s")}
	for _, r := range selfTable(spans) {
		out = append(out, fmt.Sprintf("%-28s %8d %12.4f %12.4f", r.Name, r.Count, r.TotS, r.SelfS))
	}
	bySelf := layerSelf(spans)
	line := "self_s by layer:"
	for _, l := range slices.Sorted(maps.Keys(bySelf)) {
		line += fmt.Sprintf(" %s=%.4f", l, bySelf[l])
	}
	return append(out, line)
}
