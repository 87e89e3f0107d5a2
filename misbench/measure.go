package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// repeat runs cycles of cycle calls to unit until budget has passed, at
// least one cycle, and returns each call's seconds. Stopping only between
// cycles gives every input of a cycle the same weight in the median. It
// starts no cycle that the previous cycle's duration predicts would end
// past the budget, so a run with long units (a whole sweep) does not
// overshoot its measuring time by a unit.
func repeat(budget time.Duration, cycle int, unit func(i int) float64) []float64 {
	start := time.Now()
	var secs []float64
	var last time.Duration
	for i := 0; ; i += cycle {
		if i > 0 && time.Since(start)+last > budget {
			return secs
		}
		t := time.Now()
		for j := i; j < i+cycle; j++ {
			secs = append(secs, unit(j))
		}
		last = time.Since(t)
	}
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rtSample holds the runtime's cumulative allocation and CPU-class
// counters; deltas between two samples give the allocation and the GC's CPU
// share of a unit without stopping the world.
type rtSample struct {
	allocBytes           uint64
	gcCPU, totCPU, idleS float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totCPU:     s[2].Value.Float64(),
		idleS:      s[3].Value.Float64(),
	}
}

// phase is one measured pass of a workload: its set-up repetitions and its
// units of work.
type phase struct {
	setup, units []float64 // seconds
	runs         int       // process runs the units completed
	allocMB      float64   // heap allocated during the units
	gcFrac       float64   // GC share of the CPU used while the units ran
	peakMB       float64   // peak resident set at the end of the phase
	e2e          map[string]float64
}

// measure runs setup setups times, then unit in cycles of cycle calls for
// budget. It collects garbage before each call, so each starts from the
// heap a fresh invocation of the command would have, not from the previous
// call's garbage. unit returns its seconds and the process runs it
// completed.
//
// The runtime updates its CPU-class counters only when a collection ends,
// so gcFrac is read between the collection before the first unit and one
// after the last: it includes the collections forced between units, each a
// mark of the live heap.
func measure(budget time.Duration, setups, cycle int, setup func() float64, unit func(i int) (float64, int)) *phase {
	p := &phase{}
	for i := 0; i < setups; i++ {
		runtime.GC()
		p.setup = append(p.setup, setup())
	}
	var first rtSample
	p.units = repeat(budget, cycle, func(i int) float64 {
		runtime.GC()
		a := readRuntime()
		if i == 0 {
			first = a
		}
		secs, runs := unit(i)
		p.allocMB += float64(readRuntime().allocBytes-a.allocBytes) / (1 << 20)
		p.runs += runs
		return secs
	})
	runtime.GC()
	if last := readRuntime(); last.totCPU-last.idleS > first.totCPU-first.idleS {
		p.gcFrac = (last.gcCPU - first.gcCPU) / ((last.totCPU - last.idleS) - (first.totCPU - first.idleS))
	}
	p.peakMB = peakRSSMB()
	p.e2e = map[string]float64{"setup_s": median(p.setup), "wall_s": median(p.units)}
	return p
}
