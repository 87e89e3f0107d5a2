// Package experiment is the reproduction harness: it maps every
// quantitative claim of the paper (theorems, lemmas, remarks — the paper has
// no numbered tables or figures, so the claims play that role) to a runnable
// experiment that regenerates the corresponding numbers as a formatted
// table. The registry is consumed by cmd/missweep (whose -list prints it)
// and by the module-level benchmarks in bench_test.go.
package experiment

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"ssmis/internal/batch"
)

// Config controls the cost of a run.
type Config struct {
	// Scale multiplies problem sizes and trial counts. 1.0 is the full
	// configuration (missweep's default); 0.25 is the quick configuration
	// used by benchmarks and smoke tests. 0 (or any value <= 0) selects 1;
	// other values are clamped to [0.05, 4].
	Scale float64
	// Seed is the master seed; every trial derives from it.
	Seed uint64
	// Pool, when non-nil, is the batch pool every cell submits its runs
	// to. cmd/missweep creates one per invocation and shares it across all
	// selected experiments, so the pool's workers stay busy across
	// experiment boundaries (cross-experiment parallelism). Nil falls back
	// to a lazily created process-wide pool sized to GOMAXPROCS.
	Pool *batch.Pool
	// Cells, when non-nil, collects per-cell wall times (one entry per
	// scheduler submission) for the sweep commands' timing reports.
	Cells *CellLog
	// Checkpoint, when non-nil, journals this experiment's measurement
	// cells into a sweep checkpoint and replays any journaled prefix on
	// resume (the missweep -checkpoint/-resume flags); see checkpoint.go.
	Checkpoint *ExperimentCheckpoint
}

// CellLog accumulates per-cell wall-time measurements; safe for concurrent
// use (cells from concurrently running experiments interleave).
type CellLog struct {
	mu    sync.Mutex
	cells []Cell
}

// Cell is one timed scheduler submission.
type Cell struct {
	Label   string
	Jobs    int
	Elapsed time.Duration
}

func (l *CellLog) add(c Cell) {
	l.mu.Lock()
	l.cells = append(l.cells, c)
	l.mu.Unlock()
}

// Cells returns a copy of the log.
func (l *CellLog) Cells() []Cell {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Cell(nil), l.cells...)
}

// defaultPool is the fallback scheduler for configurations without an
// explicit pool (library users, tests, benchmarks).
var defaultPool struct {
	once sync.Once
	p    *batch.Pool
}

// pool returns the scheduler this configuration submits to.
func (c Config) pool() *batch.Pool {
	if c.Pool != nil {
		return c.Pool
	}
	defaultPool.once.Do(func() { defaultPool.p = batch.NewPool(0) })
	return defaultPool.p
}

// logCell records one timed cell when a log is attached.
func (c Config) logCell(label string, jobs int, elapsed time.Duration) {
	if c.Cells != nil {
		c.Cells.add(Cell{Label: label, Jobs: jobs, Elapsed: elapsed})
	}
}

// DefaultConfig is the full-scale configuration.
func DefaultConfig() Config { return Config{Scale: 1, Seed: 2023} }

// QuickConfig is the reduced configuration for benchmarks and CI.
func QuickConfig() Config { return Config{Scale: 0.25, Seed: 2023} }

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Scale < 0.05 {
		c.Scale = 0.05
	}
	if c.Scale > 4 {
		c.Scale = 4
	}
	if c.Seed == 0 {
		c.Seed = 2023
	}
	return c
}

// trials scales a base trial count, keeping at least 3.
func (c Config) trials(base int) int {
	t := int(float64(base) * c.Scale)
	if t < 3 {
		t = 3
	}
	return t
}

// sizes drops the largest entries of a size ladder at reduced scale: at
// scale >= 1 all sizes run; at scale s only the first ceil(s*len) + 1
// entries (at least 2) run.
func (c Config) sizes(ladder []int) []int {
	if c.Scale >= 1 {
		return ladder
	}
	keep := int(c.Scale*float64(len(ladder))) + 1
	if keep < 2 {
		keep = 2
	}
	if keep > len(ladder) {
		keep = len(ladder)
	}
	return ladder[:keep]
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1000 || x <= -1000:
		return fmt.Sprintf("%.0f", x)
	case x >= 10 || x <= -10:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.2f", x)
	}
}

// Render returns a fixed-width text rendering.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV returns a comma-separated rendering (values containing commas are not
// expected and are quoted defensively).
func (t *Table) CSV() string {
	var b strings.Builder
	writeCells := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeCells(t.Columns)
	for _, row := range t.Rows {
		writeCells(row)
	}
	return b.String()
}

// Experiment binds a paper claim to a runnable reproduction.
type Experiment struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string
	// Title is a short description.
	Title string
	// Claim quotes the paper result being reproduced.
	Claim string
	// Run executes the experiment and returns its tables.
	Run func(cfg Config) []Table
}

// Registry returns all experiments in ID order, the order of the literal
// below.
func Registry() []Experiment {
	exps := []Experiment{
		e01CliqueTwoState(),
		e02DisjointCliques(),
		e03CliqueThreeState(),
		e04BoundedArboricity(),
		e05MaxDegree(),
		e06GnpTwoState(),
		e07GnpThreeColor(),
		e08LogSwitch(),
		e09GoodGraph(),
		e10Baselines(),
		e11SelfStabilization(),
		e12Runtimes(),
		e13Ablations(),
		e14LocalTimes(),
		e15TopologyChurn(),
		e16MISQuality(),
		e17RestartScheme(),
		e18DaemonSchedules(),
		e19AsyncDrift(),
	}
	return exps
}

// ByID looks an experiment up; ok is false for unknown ids.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
