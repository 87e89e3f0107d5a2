package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the exported function it calls. Spans of one run share its group:
// the run's seed ("seed:17") or the experiment id ("E7").
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`   // layer, a dot, then the call: "mis.NewTwoState"
	Group  string `json:"group"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module the span's call went into: the name up to its first
// dot ("engine" for "engine.Step"); a root span without a dot is its own.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name, group string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Group: group, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time, indexed like spans: its duration
// minus the part of its interval that the union of its children covers.
// Children may overlap each other (jobs on several pool workers, experiments
// running side by side); overlapping time is subtracted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns how much of [lo, hi) the union of the intervals covers;
// it sorts iv in place.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	TotS  float64 `json:"total_s"`
	SelfS float64 `json:"self_s"`
}

// selfTable sums span and self time by span name, largest self time first.
func selfTable(spans []span) []selfRow {
	self := selfTimes(spans)
	byName := map[string]*selfRow{}
	var rows []*selfRow
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			byName[s.Name] = r
			rows = append(rows, r)
		}
		r.Count++
		r.TotS += float64(s.dur()) / 1e9
		r.SelfS += float64(self[i]) / 1e9
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].SelfS > rows[b].SelfS })
	out := make([]selfRow, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	return out
}

// layerSelf sums self time by layer.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for i, s := range spans {
		out[s.layer()] += float64(self[i]) / 1e9
	}
	return out
}

// writeTrace writes the stamp, the spans and the self-time table to path as
// one JSON document. It is called once, when the run ends.
func writeTrace(path string, st stamp, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create trace dir: %w", err)
	}
	data, err := json.Marshal(struct {
		Stamp stamp     `json:"stamp"`
		Self  []selfRow `json:"self"`
		Spans []span    `json:"spans"`
	}{st, selfTable(spans), spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
