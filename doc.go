// Package ssmis is a Go implementation of the distributed self-stabilizing
// maximal-independent-set (MIS) processes of Giakkoupis and Ziccardi,
// "Distributed Self-Stabilizing MIS with Few States and Weak Communication"
// (PODC 2023, arXiv:2301.05059), together with the substrates needed to
// reproduce every quantitative claim of the paper: graph generators, a
// shared frontier-driven round engine, node-program beeping and stone-age
// runtimes, classical baselines, a good-graph checker, fault injection, and
// an experiment harness.
//
// # Architecture
//
// Execution is layered: engine → batch → trials/experiments → commands,
// with three interchangeable runtimes under the engine layer:
//
//	                 ┌ internal/mis ──────── array simulator (frontier engine)
//	one process,     ├ internal/noderun ──── program/node, lockstep rounds
//	one (graph,seed) │    └ beeping / stoneage program sets (Emit/Deliver)
//	                 └ internal/async ────── per-node clocks, drifting slots,
//	                       interval-overlap hearing (same program sets)
//	          ↓ all three draw identical coins; async at ρ=1 ≡ noderun ≡ mis
//	internal/batch ── work-stealing pool over (graph, seed) jobs
//	internal/experiment (E1–E19), RunSeeds ── sweeps as batch submissions
//	internal/scenario ── declarative registries + builder + JSON codec,
//	      compiled onto the experiment layer's spec runners
//	cmd/misrun · missweep · misfuzz · misviz
//
// Which runtime to use:
//
//	internal/mis      fastest; experiments, sweeps, daemon schedules (E18),
//	                  checkpoints — the default for measurement; also the
//	                  sequential [28, 20] baseline (mis.Sequential), both of
//	                  its rules on the engine's daemon path
//	internal/noderun  model-faithfulness: one program per node that sees
//	                  only its own state, its own coins and what it heard,
//	                  and a broadcast medium enforcing the beeping/stone-age
//	                  constraints; use to certify the simulator's rules
//	internal/async    asynchrony: per-node clocks under a drift bound ρ
//	                  (bounded / eventual-sync / adversarial models); use to
//	                  probe the weak-communication claim beyond lockstep
//	                  rounds (E19, misrun -async)
//	internal/sched    the daemon models a daemon-scheduled run selects
//	                  its moves with, including the k-fair
//	                  fairness-boundary daemons (not a runtime)
//
// The three runtimes agree wherever their models overlap: the cross-runtime
// equivalence matrix (internal/async) pins simulator ≡ synchronous runtime
// ≡ async-at-ρ=1 round-for-round over 20 seeds × 4 graph families.
//
// Layer 0 — internal/graph, the input. Every CSR graph is built by
// graph.Builder.Build: the generators, graphio's edge-list and JSON
// readers, FromEdges and the edits in edit.go all append edges to a
// Builder (graph.Relabel, which permutes an existing CSR, is the one other
// constructor). Build sorts and deduplicates the edge list unless
// it is already strictly increasing, as every row-major generator (G(n,p),
// complete graphs, ...) and every WriteEdgeList file emit it; the scatter
// then fills every neighbour list in increasing order through one int32
// cursor per vertex. Vertex ids are int32, so a graph has at most
// math.MaxInt32 vertices and math.MaxInt32 adjacency entries (2m):
// NewBuilder and Build panic beyond them, and graphio rejects a larger
// vertex count at its header. Sparse G(n,p) walks the rows of the upper
// triangle with geometric skips, O(n + m) with one logarithm per edge. The
// certificate every run ends on, verify.MIS, costs O(n + Σ_{u∈I} deg u):
// independence reads only the set's lists, and maximality marks coverage
// from the set's side.
//
// Layer 1 — internal/engine, one run. All three processes are thin rule
// definitions — one kernel.Spec each (Layer 1a), plus the 3-color switch as
// a synchronous sub-process — running on one shared engine with one
// synchronous execution path. The engine
// owns bitset-packed vertex sets, incremental neighbor counters with a
// complete-graph fast path, and a frontier worklist: a round evaluates only
// the vertices whose transition can fire and re-derives memberships only
// where the neighborhood changed, so the long tail of a run — where almost
// nothing flips — costs O(Σ deg(flipped)) per round instead of O(n).
// Stabilization is detected through the monotone stable core I_t (black
// vertices with no black neighbor) covering the graph, whose first-cover
// stamps double as the per-vertex local stabilization times
// (WithLocalTimes). One goroutine owns a run: evaluation, commit and
// refresh all run on it, so the engine's counters, lanes and bitsets are
// plain single-writer slices with no atomics. Parallelism lives one layer
// up, in the batch pool (Layer 2), which runs independent runs side by
// side — a vertex's update reads only its own colour, its neighbours'
// colours and its own coin, and the workloads that need throughput (sweeps,
// misrun -trials) are many runs, not one huge one. The engine further
// provides daemon-scheduled execution bridging
// internal/sched into the randomized processes and the sequential rule (the
// DaemonRun methods, mis.Sequential, the misrun -daemon flag and experiment
// E18), and reusable per-worker run
// contexts (engine.RunContext): all per-run scratch — bitsets, counters,
// coverage stamps, per-vertex generator arrays — leases from the worker's
// context, so a worker amortizes its allocations across thousands of runs.
// The processes are anonymous, so every run works in the caller's vertex
// ids: no engine, daemon, checkpoint or clock maps ids.
//
// Layer 1a — the bit-sliced kernel (internal/engine/kernel). Each rule is
// defined exactly once, as a compact kernel.Spec — a two-bit state encoding
// plus 16-entry truth tables for the activity and worklist predicates over
// (lo, hi, hasANbr, hasBNbr), plus per-code transition maps for coin and
// forced moves — and the engine runs nothing else, 64 vertices per uint64.
// kernel.Compile turns each table into a minimized branch-free word
// expression by Shannon expansion (the 2-state activity table provably
// minimizes to the two-gate ^(lo XOR hbnA) identity); the number of states
// and each state's black and counter classes are derived from the code
// bits. The two-bit encoding is shared by every rule: the lo lane IS the
// black (counter-A) projection, code 0 is the white-like state, code 1 the
// black state, and code 3 (lo AND hi) the counter-B state when one exists:
//
//	rule     code 0  code 1  code 2  code 3   extra lanes
//	2-state  white   black   —       —        —
//	3-state  white   black0  —       black1   hasBNbr (black1 neighbors)
//	3-color  white   black   gray    —        gate (switch values)
//
// so core = lo AND NOT hbnA and the class totals are rule-generic word
// loops. The hasANbr/hasBNbr lanes are maintained incrementally by the
// commit: a vertex's bit flips exactly when the corresponding neighbor
// counter crosses zero, so the lanes cost nothing on the (overwhelmingly
// common) counter updates that do not cross; Rebuild settles them once from
// the recounted counters, and on complete graphs both lanes fill from the
// class totals in O(n/64) words. Counter B counts each neighbor's last
// scattered class, not its current one: a 3-state vertex in I_t keeps
// flipping between black0 and black1 but stops scattering the flips, since
// each of its neighbors is a white with a black neighbor whose transitions
// read only counter A; skipping them removes 60–62% of a 3-state run's
// neighbor writes at n=10^6. A vertex leaves I_t only through Rebuild,
// which recounts, and CheckIntegrity recounts under the same invariant. The
// dirty frontier itself is tracked per lane word, not per vertex — the refresh re-derives
// whole words anyway, and the word-index set is 64x smaller (2KB at
// n=10^6), so the commit's random neighbor marking stays cache-resident. The 3-color switch participates
// through the gate lane (engine.SubProcess): after every MidRound — and at
// Rebuild — the engine asks it to re-export one bit per vertex (its
// phase-clock switch values, σ_{t-1} by construction), and evaluation
// routes non-active worklist vertices through the spec's
// ForcedOn/ForcedOff transition selected by their gate bit. The gate
// affects only forced outcomes, never membership, so the frontier logic is
// untouched. Daemon steps move one selected vertex at a time through
// kernel.Program.Next, the per-vertex reading of the same tables.
// Determinism: evaluation walks set bits of each worklist word in ascending
// vertex order and draws a coin — one bit at bias 1/2, a 64-bit Bernoulli
// sample otherwise — from the vertex's own stream only when the vertex is
// active (forced transitions draw nothing), so an execution is a pure
// function of (graph, seed, initializer) and coin-for-coin identical to
// every runtime above. The references it is pinned against are the
// simplest code in the repo: internal/mis/reference.go, the literal O(n·Δ)
// transcriptions of Definitions 4, 5 and 28 (the lockstep matrix and the
// misfuzz kernel target compare states every round, and an exhaustive test
// checks every Spec entry a vertex can reach — used code × counter bits ×
// coin × gate — against one reference step), and the golden seed lineage
// captured from the pre-engine simulators (rounds, bits and MIS hashes).
//
// Layer 1a' — counter planes (engine/counters.go). The engine's neighbor
// counters are behind every commit's hottest loop — a random-access
// read-modify-write scatter into one cell per touched neighbor — and the
// counter plane sizes that storage without changing a single value anyone
// reads. The paper's rules read a counter only through its zero test, and a
// counter never exceeds its vertex's degree, so one rule picks the lanes at
// Rebuild from the graph's maximum degree alone: uint8 lanes up to degree
// 255, uint16 up to 65535, int32 above — 4x (2x) less scatter traffic than
// int32 cells for identical values. Each width keeps its own typed slices,
// written in place by the single-writer commit (panic-guarded against a
// wrap) and reused across RunContext leases. A width changes only where
// counters are stored, never what a read returns: CheckIntegrity verifies
// the width against the maximum degree and every counter against a
// recount, the lockstep matrix pins a graph of each width to the reference
// transcriptions, and the BENCH_kernel.json counter row pairs gate the
// lanes against int32 counters forced by a test-only hook, at >= 1.1x on
// Chung-Lu n=10^6 (16-bit lanes) and >= 1.0x on Gnp n=10^6 (byte lanes,
// must never lose).
//
// Layer 1c — the phase clock (internal/phaseclock). The 3-color rule's
// logarithmic switch runs as its mid-round sub-process on a
// phaseclock.Clock, as do the standalone switch (E8) and the restart
// baseline (E10, E17). Read literally, the RandPhase rule gathers the
// maximum level over every neighbour of every vertex below the top level
// D+2, every round: O(n·Δ) per round. On the dense G(n,p) of E7 and E13 that
// was two thirds of the CPU time of a one-worker quick sweep (missweep -run
// all -scale 0.25). The clock instead keeps, per vertex, the number of
// neighbours at the top. Only two moves change who is at the top, 0 → top
// and the ζ-coin's top → top−1, so each round records those vertices and,
// once every vertex has read the round's counts, adjusts the counts of their
// neighbours. A vertex that leaves the top, or sits below it with a top
// neighbour, moves to top−1 without reading anything; a vertex at top−1 with
// no top neighbour moves to top−2; any other vertex gathers and stops at the
// first neighbour at top−1, the largest level it can find there. A round
// therefore costs one pass over the levels with a ζ-coin per top vertex,
// plus Σ deg over the round's entering and leaving vertices, plus the
// remaining gathers, which are long only in the few descent rounds of each
// cycle. On G(1024, 0.25) that is about 1.7 neighbour reads and 0.5 count
// updates per vertex-round instead of 224 reads, and the one-worker quick
// sweep fell from 23.7 s to 8.6 s, the clock's share from 66% to 19% (2-vCPU
// Intel Xeon, Go 1.24). Sparse graphs gain little (G(10^5) at average degree
// 10: 8.3 reads instead of 9.9), because most of their vertex-rounds still
// gather. The counts are derived state: New, RandomizeLevels and Rebind
// rebuild them in O(n+m), SetLevel (corruption, checkpoint restore) adjusts
// them in O(deg), a RunContext leases them with the level arrays, and
// snapshots store levels only. On a complete graph one global maximum per
// round serves every vertex and no counts are kept. Levels, coin order and
// bit accounting are those of the literal rule; the package's oracle test
// checks that every round.
//
// Layer 2 — internal/batch, many runs, and the module's only parallelism:
// each pool worker owns one run at a time. Every multi-run workload
// executes on a work-stealing batch scheduler: work is submitted as shards
// (one graph, many seeds — the graph builds once, lazily, and is shared
// read-only across all its seeds), shards are cut into chunks dealt onto
// per-worker deques, and an idle worker steals from the top of another's
// deque, so a few huge cells spread across the pool while small cells stay
// local. Runs are pure functions of (graph, seed); outcomes are delivered
// to each batch's sink in job order through a reorder buffer and folded
// into streaming aggregates (Welford mean/CI and counting-map quantiles in
// internal/stats), so summaries never materialize per-run slices and are
// bit-identical at any worker count, under any steal schedule.
//
// Layer 1b — internal/async, one asynchronous run. The same per-node
// programs the synchronous runtime executes (beeping.NewPrograms,
// stoneage.NewThreeStatePrograms) run on a discrete-event medium where
// every node owns a clock advanced by a drift model: slots have real-tick
// lengths within the drift bound ρ, beeps occupy the emitting node's whole
// slot interval, and a node hears a channel iff a neighbor's beep interval
// overlaps its listening slot. At ρ=1 the medium provably collapses to the
// synchronous execution coin-for-coin; at ρ>1 it opens the paper's
// weak-communication claim to asynchrony (experiment E19, misrun -async,
// examples/asyncnet). Executions are pure functions of (graph, seed,
// drift) — replays are byte-identical.
//
// Layer 3 — trials and experiments. The public RunSeeds/RunSeedsOn APIs are
// thin adapters over a batch pool (TrialSummary reports failed seeds
// explicitly), and the experiment harness (internal/experiment, E1–E19)
// submits every cell — stabilization grids, fault attacks, churn chains,
// runtime-equivalence replays, daemon schedules, async drift sweeps — as
// batch jobs.
//
// Layer 4 — commands. cmd/missweep creates ONE pool per invocation, shared
// by all selected experiments running concurrently (-workers sizes the
// pool, -batch sets the chunk size, -times reports per-cell wall times), so
// a straggler cell in one experiment no longer serializes the sweep:
//
//	missweep -run all -scale 0.25 -workers 8 -times
//
// cmd/misrun's -trials mode runs its seeds on the same substrate (also
// -workers/-batch) and reports cell wall time plus the exact seeds of any
// failed runs. BENCH_batch.json records the scheduler against the old
// per-cell pools.
//
// # Declarative scenarios
//
// internal/scenario makes the experiment vocabulary declarative: a scenario
// names its axes — graph family (with validated parameters), process,
// runtime (sync, beeping, stone-age, or async with a drift model), daemon
// schedules, fault adversaries, metrics — and compiles to an
// experiment.Experiment running the exact cell structure the hand-coded
// suite submits, because both sides share one set of spec runners
// (ScalingSpec, RuntimeScalingSpec, DaemonMatrixSpec, FaultMatrixSpec,
// LocalTimesSpec in internal/experiment). Checkpointing, cell timing, and
// worker-count invariance therefore extend to scenarios by
// construction: E1, E4 and E18 re-expressed as scenarios are pinned
// byte-identical to their hand-coded originals at workers 1 and 8.
//
// Three equivalent entry points feed the layer: the fluent Go builder
// (scenario.New("x").Scaling("...").Process("2-state").Graph("gnp-avg",
// scenario.Params{"avgdeg": 8})...), which accumulates construction errors
// and reports them all at Build() alongside the full cross-axis validation
// (drift requires the async runtime, beeping is 2-state-only, tail tables
// and local-times are sync-only, ...); JSON files through the versioned
// codec (missweep -scenario file.json), which rejects unknown fields,
// unknown unit types, version skew and trailing data loudly in the
// internal/snapshot style — a file that decodes is a file that compiles;
// and scenario literals validated by Validate(). missweep -list prints the
// whole vocabulary; examples/scenarios/ holds runnable samples, and the
// misfuzz scenario target pins round-trip Plan equality plus typed-error
// rejection of arbitrarily mutated documents.
//
// # Checkpoint and resume
//
// Every layer serializes durable execution state through ONE versioned
// snapshot codec (internal/snapshot). The envelope is self-describing —
// magic, format version (currently 1), payload kind, JSON payload, CRC-32
// over the whole record — and every file is written atomically (staged in
// a temporary file, renamed into place), so a process killed mid-write
// leaves the previous intact checkpoint behind and a reader never sees a
// torn file. Decoding validates everything before trusting anything:
// foreign files, truncation, bit corruption, version skew, and payload-kind
// confusion are all rejected loudly (typed errors; fuzzed by cmd/misfuzz)
// instead of resuming silently wrong.
//
// What each layer captures:
//
//	process (kind "process")  one execution: state vector, per-vertex RNG
//	                          streams, round/bit accounting, the engine's
//	                          first-cover stamps (so the local-times
//	                          instrument survives a resume), the 3-color
//	                          switch levels and bit accounting, the daemon
//	                          scheduler stream with step/move accounting,
//	                          and a stateful daemon's schedule history
//	                          (round-robin cursor, k-fair starvation
//	                          counters). Checkpoint/Restore* and the misrun
//	                          -checkpoint/-checkpoint-every/-resume flags.
//	sweep (kind "sweep")      a whole missweep grid in one file: finished
//	                          experiments' rendered tables plus the
//	                          in-order outcome journal of every in-flight
//	                          measurement cell, saved periodically under a
//	                          scheduler quiesce (batch.Pool.Quiesce drains
//	                          in-flight chunks so the cut is consistent).
//	                          missweep -checkpoint/-checkpoint-every/-resume.
//
// Resume guarantees: a restored process draws exactly the coins the
// uninterrupted run would have drawn (same rounds, same bits, same daemon
// selections), and a sweep killed mid-grid and resumed replays journaled
// outcomes through the scheduler's reorder buffer — completed jobs never
// re-run — producing byte-identical experiment tables at any worker count.
// Cells whose outcomes carry workload-specific in-memory payloads re-run
// on resume (purity makes that identical); completed experiments never
// re-run at all. The graph is not embedded in process snapshots: restore
// takes the graph (reconstructible from its own seed or interchange file)
// and verifies its order.
//
// Because every vertex draws coins from its own stream split off the master
// seed, an execution is a pure function of (graph, seed, initializer) — and
// the engine, its batch-scheduled runs at any pool width, the node-program
// runtimes in internal/beeping and internal/stoneage (which step their
// programs in vertex order on the caller's goroutine, so the call order
// cannot reach a coin), and the asynchronous medium in internal/async
// (whose clock streams are disjoint from the coin streams) all draw exactly
// the same coins.
//
// The three processes:
//
//   - TwoState (Definition 4): binary states; an active vertex — black with
//     a black neighbor, or white with no black neighbor — resets to a
//     uniformly random color each round. One random bit per active vertex
//     per round; runs in the beeping model with sender collision detection.
//
//   - ThreeState (Definition 5): adds a second black state so no collision
//     detection is needed; runs in the synchronous stone age model.
//
//   - ThreeColor (Definition 28): adds a gray color gated by a randomized
//     logarithmic switch (Definition 26, 18 states total); proven to
//     stabilize in poly(log n) rounds on G(n,p) for every density p
//     (Theorem 3).
//
// Quickstart:
//
//	g := ssmis.Gnp(1000, 0.01, 7)           // an Erdős–Rényi graph
//	p := ssmis.NewTwoState(g, ssmis.WithSeed(42))
//	res := ssmis.Run(p, 0)                   // 0 = default round cap
//	if res.Stabilized {
//	    blackSet := ssmis.BlackSet(p)        // a verified MIS of g
//	    _ = blackSet
//	}
//
// All randomness derives from explicit seeds; a run is a pure function of
// (graph, seed, initializer). `missweep -list` indexes the experiments
// E1–E19 and the paper claims they reproduce; `missweep -run all`
// regenerates their tables.
package ssmis
