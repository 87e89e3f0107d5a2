// Package batch is the execution substrate for every multi-run workload in
// the module: the public RunSeeds API, the E1–E19 experiment cells, and the
// sweep commands all submit their (graph, seed) jobs to one shared Pool
// instead of spinning up ad-hoc per-cell worker pools.
//
// Scheduling model. A Pool owns a fixed set of workers, each with its own
// engine.RunContext (reusable bitsets, counters, frontier scratch, and
// per-vertex generator arrays — so a worker amortizes its allocations
// across thousands of runs), and one FIFO job queue: the batches that still
// have unclaimed jobs, in submission order. An idle worker claims the next
// job of the oldest such batch, one job at a time, so no job waits while a
// worker is idle. Submitted work arrives as Shards: a shard is one graph
// plus the list of seeds to run on it. The shard's graph is built lazily,
// exactly once, by whichever worker first claims one of its jobs, and is
// shared read-only by every other worker running that shard's seeds.
//
// Determinism. Every run is a pure function of (graph, seed): which worker
// executes it, and in what order, cannot change its outcome. What COULD
// change under rescheduling is floating-point aggregation order, so the
// Pool delivers outcomes to each batch's sink strictly in job order
// (shard submission order, then seed order) through a small reorder buffer.
// A streaming aggregate fed by the sink is therefore bit-identical at any
// worker count and under any completion order — asserted by the package
// tests.
package batch

import (
	"fmt"
	"runtime"
	"sync"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
)

// Outcome is one completed run. Runners fill the measurement fields; the
// pool overwrites Index and Seed before delivery.
type Outcome struct {
	// Index is the job's position in its batch (shard submission order, then
	// seed order); sinks observe indices 0, 1, 2, ... in order.
	Index int
	// Seed is the seed the run was given.
	Seed uint64
	// Rounds and Bits are the standard stabilization measurements.
	Rounds int
	Bits   int64
	// Failed marks a run that hit its round cap; Broken marks a stabilized
	// run whose black set failed MIS verification.
	Failed bool
	Broken bool
	// Extra carries workload-specific payloads (local times, churn
	// recoveries, ...) for cells that measure more than rounds and bits.
	Extra any
}

// Runner executes the i-th seed of a shard. g is the shard's shared
// read-only graph (nil when the shard has no Build — such runners construct
// their own per-seed graph). rc is the executing worker's reusable engine
// scratch; pass it to the process constructor via mis.WithRunContext.
type Runner func(rc *engine.RunContext, g *graph.Graph, i int, seed uint64) Outcome

// Shard is a group of runs sharing one graph: the unit of submission.
type Shard struct {
	// Build constructs the shard's graph; it is called at most once, by the
	// first worker to claim one of the shard's jobs, and the result is
	// shared read-only across all the shard's seeds. May be nil when Run
	// builds per-seed graphs itself.
	Build func() *graph.Graph
	// Seeds lists the runs; one job per seed.
	Seeds []uint64
	// Run executes one seed.
	Run Runner
}

// SubmitOptions carries a batch's checkpoint hooks.
type SubmitOptions struct {
	// Replay is a recorded prefix of the batch's outcomes (job indices
	// 0..len-1, in order), the resume half of sweep checkpointing: the
	// replayed outcomes are delivered to the sink synchronously at submit
	// time — before any live outcome — and their jobs are never scheduled.
	// Scheduling starts at job index len(Replay). Every run is a pure
	// function of (graph, seed), so a sink fed a recorded prefix plus live
	// remainder aggregates exactly what an uninterrupted batch would have
	// fed it. Submit panics when the prefix is longer than the batch.
	Replay []Outcome
	// Record, when non-nil, observes every delivery in order (replayed and
	// live), after the sink, under the batch lock — the journal half of
	// sweep checkpointing. Like the sink it must be fast and may not block.
	Record func(Outcome)
}

// shardState is a submitted shard plus its lazily-built graph.
type shardState struct {
	Shard
	b    *Batch
	base int // global index of Seeds[0] within the batch
	once sync.Once
	g    *graph.Graph
}

func (st *shardState) graph() *graph.Graph {
	st.once.Do(func() {
		if st.Build != nil {
			st.g = st.Build()
		}
	})
	return st.g
}

// Pool is a fixed set of workers executing batch runs from one job queue.
// Create one with NewPool, submit with Submit/SubmitOpts, and Close it when
// done. All methods are safe for concurrent use.
type Pool struct {
	workers int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Batch // batches with unclaimed jobs, oldest first
	closed  bool
	paused  bool // Quiesce: workers claim nothing
	running int  // jobs claimed and not yet delivered
	wg      sync.WaitGroup
}

// NewPool starts a pool with the given number of workers (0 selects
// GOMAXPROCS). The pool is the module's only parallelism: each worker runs
// one single-goroutine execution at a time on its own RunContext. A
// negative count panics — it used to be silently coerced to GOMAXPROCS,
// which let CLI typos like `-workers -3` pass unnoticed.
func NewPool(workers int) *Pool {
	if workers < 0 {
		panic(fmt.Sprintf("batch: negative worker count %d", workers))
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.workerLoop()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Steals always returns 0: workers share one job queue, so there is no
// other worker's work to steal. It remains for the benchmark's
// batch.steals metric (misbench), which still reads it.
func (p *Pool) Steals() uint64 { return 0 }

// Close drains every queued job, stops the workers, and waits for them to
// exit. Submitting after Close panics; batches submitted before Close
// complete normally. Closing a quiesced pool resumes execution (the drain
// guarantee wins over the pause).
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Quiesce pauses the pool at a run boundary: no worker claims another job,
// and Quiesce returns once every claimed job has been delivered — from then
// until Resume, no outcome is delivered and every batch's journal is
// frozen, which is the consistent cut the sweep checkpointer serializes.
// Unclaimed jobs stay queued. Quiesce on an idle or already-quiesced pool
// returns immediately; Submit during a pause only queues work.
func (p *Pool) Quiesce() {
	p.mu.Lock()
	p.paused = true
	for p.running > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Resume reawakens a quiesced pool.
func (p *Pool) Resume() {
	p.mu.Lock()
	p.paused = false
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Submit enqueues shards as one batch. Each outcome is delivered exactly
// once, in job order, to sink (which must be fast and may not block — it
// runs on worker goroutines under the batch lock). sink may be nil. The
// returned Batch's Wait blocks until every job has been delivered.
func (p *Pool) Submit(shards []Shard, sink func(Outcome)) *Batch {
	return p.SubmitOpts(shards, SubmitOptions{}, sink)
}

// SubmitOpts is Submit with checkpoint hooks.
func (p *Pool) SubmitOpts(shards []Shard, opt SubmitOptions, sink func(Outcome)) *Batch {
	b := &Batch{sink: sink, record: opt.Record, pending: make(map[int]Outcome), done: make(chan struct{})}
	for _, sh := range shards {
		if len(sh.Seeds) > 0 {
			b.shards = append(b.shards, &shardState{Shard: sh, b: b, base: b.total})
			b.total += len(sh.Seeds)
		}
	}
	if len(opt.Replay) > b.total {
		panic(fmt.Sprintf("batch: replay prefix of %d outcomes for a batch of %d jobs", len(opt.Replay), b.total))
	}
	// Replay the recorded prefix before publishing the batch: the sink sees
	// indices 0..len(Replay)-1 from the journal, then live outcomes, and
	// the replayed jobs are never claimed.
	for i, o := range opt.Replay {
		o.Index = i
		b.emit(o)
	}
	b.claimed = len(opt.Replay)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		panic("batch: Submit on a closed pool")
	}
	if b.claimed == b.total {
		b.completed = true
		close(b.done)
		return b
	}
	p.queue = append(p.queue, b)
	p.cond.Broadcast()
	return b
}

// workerLoop runs jobs until the pool is closed and the queue is empty.
func (p *Pool) workerLoop() {
	defer p.wg.Done()
	// The run context is local to the worker's goroutine: every run it
	// executes leases from this one context, and no other goroutine can
	// reach it.
	rc := engine.NewRunContext()
	for {
		st, i, ok := p.claim()
		if !ok {
			return
		}
		o := st.Run(rc, st.graph(), i, st.Seeds[i])
		o.Index = st.base + i
		o.Seed = st.Seeds[i]
		st.b.deliver(o)
		p.release()
	}
}

// claim takes the next job of the oldest batch in the queue and counts it
// as running, waiting while the queue is empty or the pool is quiesced. It
// returns false only once the pool is closed and the queue is empty: every
// job queued before Close runs, paused or not.
func (p *Pool) claim() (*shardState, int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && (p.paused || len(p.queue) == 0) {
		p.cond.Wait()
	}
	if len(p.queue) == 0 {
		return nil, 0, false
	}
	b := p.queue[0]
	for b.claimed >= b.shards[b.si].base+len(b.shards[b.si].Seeds) {
		b.si++
	}
	st := b.shards[b.si]
	i := b.claimed - st.base
	b.claimed++
	if b.claimed == b.total {
		p.queue[0] = nil // the queue no longer holds its graphs alive
		p.queue = p.queue[1:]
	}
	p.running++
	return st, i, true
}

// release marks a claimed job as delivered; the last one to finish wakes a
// Quiesce waiting for the pool to fall idle.
func (p *Pool) release() {
	p.mu.Lock()
	p.running--
	if p.running == 0 && p.paused {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Batch tracks one Submit call: a reorder buffer feeding the sink in job
// order, and a completion signal.
type Batch struct {
	// Guarded by the pool's lock: the claim cursor. Jobs are claimed in
	// index order; shards[si] holds job index claimed.
	shards  []*shardState
	si      int
	claimed int

	mu        sync.Mutex
	sink      func(Outcome)
	record    func(Outcome) // checkpoint journal; observes every emit
	pending   map[int]Outcome
	cursor    int
	total     int // set at submit, read-only afterwards
	completed bool
	done      chan struct{}
}

// deliver hands o to the sink if it is the next job in order, buffering it
// otherwise; it closes done after the last in-order delivery.
func (b *Batch) deliver(o Outcome) {
	b.mu.Lock()
	if o.Index != b.cursor {
		b.pending[o.Index] = o
		b.mu.Unlock()
		return
	}
	b.emit(o)
	for {
		next, ok := b.pending[b.cursor]
		if !ok {
			break
		}
		delete(b.pending, b.cursor)
		b.emit(next)
	}
	finished := b.cursor == b.total && !b.completed
	if finished {
		b.completed = true
	}
	b.mu.Unlock()
	if finished {
		close(b.done)
	}
}

func (b *Batch) emit(o Outcome) {
	if b.sink != nil {
		b.sink(o)
	}
	if b.record != nil {
		b.record(o)
	}
	b.cursor++
}

// Wait blocks until every job of the batch has been delivered to the sink.
func (b *Batch) Wait() { <-b.done }
