// Command misbench is the repository's end-to-end benchmark. It runs one of
// three workloads in-process, the way the command-line tools run them,
// measures it for a fixed time, checks every output, and prints each metric
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root with
//
//	bash misbench/run.sh --workload gnp1m-2state --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is measured untraced and then traced, and the metrics are the
// per-layer ones, timed by spans around the calls the benchmark makes into
// the repository's layers. README.md lists the workloads and what each
// metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the command sees, in BENCHMARK.json
// order. wall_s is the median time of one execution of the workload's
// command with set-up excluded: one verified run, one trial batch, one
// sweep. Each unit does the same work, so a throughput would only restate
// it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
}

// perLayer are the traced run's metrics, in BENCHMARK.json order. A metric
// reads 0 on a workload that does not call its layer, or whose calls into
// it the benchmark cannot wrap.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"graph.build_s", "s"},
		{"graph.edges_per_s", "1/s"},
		{"graph.order_s", "s"},
		{"graphio.parse_s", "s"},
		{"graphio.mb_per_s", "MB/s"},
		{"mis.construct_s_p50", "s"},
		{"mis.alloc_mb_per_run", "MB"},
		{"engine.step_s_p50", "s"},
		{"engine.ns_per_bit", "ns"},
		{"engine.ns_per_vertex_round", "ns"},
		{"engine.rounds_mean", "count"},
		{"engine.bits_mean", "count"},
		{"verify.mis_s_p50", "s"},
		{"batch.job_s_p50", "s"},
		{"batch.job_s_p90", "s"},
		{"batch.first_job_s", "s"},
		{"batch.idle_frac", "ratio"},
		{"batch.sink_s", "s"},
		{"batch.steals", "count"},
		{"batch.util", "ratio"},
		{"batch.scaling_eff", "ratio"},
	}
	for _, id := range experimentIDs {
		defs = append(defs, metricDef{"experiment." + id + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"experiment.cell_s_max", "s"},
		metricDef{"experiment.jobs", "count"},
		metricDef{"experiment.cells", "count"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.peak_rss_mb", "MB"},
	)
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"overhead." + m.name, m.unit})
	}
	return defs
}()

// experimentIDs are the sweep's experiments, each with its own metric.
var experimentIDs = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
	"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
}

// sizes are the workloads' input sizes. Tests shrink them; the benchmark
// runs fullSizes.
type sizes struct {
	gnpN      int // vertices of G(n, p)
	gnpSeeds  int // process seeds, run in cycles
	gnpSetups int // graph builds whose median is setup_s

	clN      int // vertices of the Chung-Lu edge list
	trials   int // seeds per trial batch
	clSetups int // edge-list parses whose median is setup_s

	sweepScale  float64
	sweepIDs    []string // experiments of the sweep; nil runs the registry
	sweepSetups int      // registry and pool starts whose median is setup_s
}

var fullSizes = sizes{
	gnpN: 1_000_000, gnpSeeds: 16, gnpSetups: 5,
	clN: 1 << 17, trials: 64, clSetups: 9,
	sweepScale: 0.25, sweepSetups: 201,
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	scratch  string // directory for generated input files
	size     sizes
	want     *record // recorded outcomes for (workload, seed); nil if none
}

// workload runs one workload under cfg, checking outputs with ck.
type workload func(cfg config, ck *checker) (*outcome, error)

// workloads in BENCHMARK.json order.
var workloads = []struct {
	name string
	run  workload
}{
	{"gnp1m-2state", runGnp},
	{"edgelist-3state-trials", runEdgeList},
	{"sweep-quick", runSweep},
}

// lookup returns the named workload, or nil.
func lookup(name string) workload {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// outcome is what a workload measured.
type outcome struct {
	e2e    map[string]float64 // untraced end-to-end metrics
	layers map[string]float64 // traced per-layer metrics (trace mode only)
	stamp  stamp
	notes  []string // printed before the metrics
	spans  []span
}

// stamp records the environment and the engine path a result came from.
type stamp struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Workers    int    `json:"pool_workers"` // 0: no pool
	Layout     string `json:"counter_layout"`
	WidthBits  int    `json:"tail_width_bits"`
	HubLen     int    `json:"hub_len"`
	Relabeled  string `json:"relabeled"`
	Recorded   bool   `json:"recorded"` // outcomes compared with recorded values
}

func (s stamp) String() string {
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d cpu=%q workload=%s seed=%d pool_workers=%d counter_layout=%s tail_width_bits=%d hub_len=%d relabeled=%s recorded=%t",
		s.Go, s.GOMAXPROCS, s.NumCPU, s.CPU, s.Workload, s.Seed, s.Workers, s.Layout, s.WidthBits, s.HubLen, s.Relabeled, s.Recorded)
}

func newStamp(cfg config) stamp {
	return stamp{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), Workload: cfg.workload, Seed: cfg.seed, Recorded: cfg.want != nil,
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("misbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "gnp1m-2state|edgelist-3state-trials|sweep-quick")
		seed    = fs.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds = fs.Float64("seconds", 35, "measuring time")
		trace   = fs.Int("trace", 0, "1: measure untraced, then traced, and print the per-layer metrics")
		scratch = fs.String("scratch", ".bench_build", "directory for generated inputs and span traces")
		rec     = fs.String("record", "", "run the checked outputs once and merge them into this expected-values file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := lookup(*name)
	if wl == nil || *trace < 0 || *trace > 1 || *seconds < 0 || math.IsNaN(*seconds) {
		fmt.Fprintf(stderr, "misbench: need --workload %s, --seconds >= 0 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg := config{
		workload: *name, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, scratch: *scratch, size: fullSizes,
	}
	if *rec != "" {
		if err := recordSeed(cfg, wl, *rec); err != nil {
			fmt.Fprintln(stderr, "misbench:", err)
			return 1
		}
		return 0
	}
	want, err := recorded(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintln(stderr, "misbench:", err)
		return 1
	}
	cfg.want = want

	ck := newChecker(want)
	out, err := wl(cfg, ck)
	if err != nil {
		fmt.Fprintln(stderr, "misbench:", err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(cfg.scratch, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeTrace(path, out.stamp, out.spans); err != nil {
			fmt.Fprintln(stderr, "misbench:", err)
			return 1
		}
		out.notes = append(out.notes, "spans: "+path)
	}
	if err := report(stdout, cfg, out, ck); err != nil {
		fmt.Fprintln(stderr, "misbench:", err)
		return 1
	}
	return 0
}

// report prints the stamp, the notes, the metrics with their units, the
// mismatches, and last the JSON result line.
func report(w io.Writer, cfg config, out *outcome, ck *checker) error {
	fmt.Fprintf(w, "misbench %s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.budget.Seconds(), cfg.trace)
	fmt.Fprintln(w, "stamp:", out.stamp)
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	defs, vals := endToEnd, out.e2e
	if cfg.trace {
		defs, vals = perLayer, out.layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, m := range ck.msgs {
		fmt.Fprintln(w, "MISMATCH:", m)
	}
	fmt.Fprintf(w, "fail_ratio %d/%d = %g\n", ck.failed, ck.attempted, ck.failRatio())
	if ck.attempted == 0 {
		return errors.New("no output was checked")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ck.failed == 0, ck.attempted, ck.failed, metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// phaseLayers returns the per-layer metrics every workload takes from its
// untraced and traced phases, with the traced-minus-untraced difference of
// each end-to-end metric as the tracing overhead.
func phaseLayers(untraced, traced *phase) map[string]float64 {
	layers := map[string]float64{
		"mis.alloc_mb_per_run": traced.allocMB / float64(traced.runs),
		"runtime.gc_cpu_frac":  traced.gcFrac,
		"runtime.peak_rss_mb":  untraced.peakMB,
	}
	for _, m := range endToEnd {
		layers["overhead."+m.name] = traced.e2e[m.name] - untraced.e2e[m.name]
	}
	return layers
}

// percentileNote states a timing's median, the highest standard percentile
// with at least ten samples beyond it, and the sample count.
func percentileNote(name string, xs []float64) string {
	s := fmt.Sprintf("%s: p50 %.4g s", name, median(xs))
	for _, q := range []float64{0.99, 0.9, 0.75} {
		if (1-q)*float64(len(xs)) >= 10 {
			s += fmt.Sprintf(", p%g %.4g s", q*100, quantile(xs, q))
			break
		}
	}
	return s + fmt.Sprintf(" (n=%d)", len(xs))
}
