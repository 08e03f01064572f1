//! # netsched
//!
//! A Rust implementation of **"Distributed Algorithms for Scheduling on Line
//! and Tree Networks"** (Chakaravarthy, Roy, Sabharwal; arXiv:1205.1924,
//! IPPS 2013 version "… with Non-uniform Bandwidths"): distributed
//! constant-factor approximation algorithms for throughput maximization when
//! processors compete for exclusive routes on shared tree networks and for
//! time windows on line networks.
//!
//! ## The Solver / Scheduler API
//!
//! Everything runs through two abstractions from [`core`]:
//!
//! * [`Solver`](prelude::Solver) — a named algorithm with an optional
//!   worst-case guarantee. The paper's six algorithms
//!   (`netsched_core::registry`) and every baseline
//!   (`netsched_baseline::registry`) implement it; [`registry`] chains both.
//! * [`Scheduler`](prelude::Scheduler) — a *session* around one problem
//!   ([`TreeProblem`](prelude::TreeProblem) or
//!   [`LineProblem`](prelude::LineProblem)). It builds the demand-instance
//!   universe, the layered decompositions and the wide/narrow split **once**
//!   and reuses them across every solve, sweep and portfolio on that
//!   instance.
//!
//! [`Scheduler::solve`](prelude::Scheduler::solve) auto-selects the paper
//! algorithm by instance shape (line vs tree; all-wide vs all-narrow vs
//! mixed heights — the Theorem 5.3 / 6.3 / 7.1 / 7.2 dispatch table, see
//! `netsched_core::solver`), and
//! [`Scheduler::portfolio`](prelude::Scheduler::portfolio) runs any set of
//! registered solvers on the shared caches and keeps the best certified
//! schedule.
//!
//! ## Quickstart
//!
//! ```
//! use netsched::prelude::*;
//!
//! // Two racks exchanging data over one shared spanning tree.
//! let mut problem = TreeProblem::new(6);
//! let t = problem
//!     .add_network(vec![
//!         (VertexId(0), VertexId(1)),
//!         (VertexId(1), VertexId(2)),
//!         (VertexId(2), VertexId(3)),
//!         (VertexId(2), VertexId(4)),
//!         (VertexId(4), VertexId(5)),
//!     ])
//!     .unwrap();
//! problem.add_unit_demand(VertexId(0), VertexId(3), 5.0, vec![t]).unwrap();
//! problem.add_unit_demand(VertexId(1), VertexId(5), 4.0, vec![t]).unwrap();
//! problem.add_unit_demand(VertexId(3), VertexId(5), 2.0, vec![t]).unwrap();
//!
//! // One session; the universe and decomposition are built exactly once
//! // even across repeated solves with different ε.
//! let session = Scheduler::for_tree(&problem);
//! assert_eq!(session.auto_solver().name(), "tree-unit"); // Theorem 5.3
//! let solution = session.solve(&AlgorithmConfig::deterministic(0.1));
//! solution.verify(session.universe()).unwrap();
//! assert!(solution.profit > 0.0);
//! // Every run carries a machine-checked optimum upper bound.
//! assert!(solution.diagnostics.optimum_upper_bound >= solution.profit);
//!
//! // A portfolio over every registered solver keeps the best verified run.
//! let portfolio = session.portfolio(&netsched::registry(), &AlgorithmConfig::deterministic(0.1));
//! assert!(portfolio.best_solution().profit + 1e-9 >= solution.profit);
//! assert_eq!(session.build_counts().universe, 1);
//! ```
//!
//! The pre-redesign free functions (`solve_unit_tree`,
//! `solve_line_arbitrary`, …) remain available as thin wrappers that create
//! a single-call session.
//!
//! ## Representation: implicit interval paths
//!
//! Demand paths are stored as **interval runs**, not edge lists: a windowed
//! line instance is one inline `[start, end]` interval and a tree path is at
//! most `2⌈log₂ n⌉` contiguous runs under the canonical heavy-light edge
//! order of [`TreeNetwork`](prelude::TreeNetwork). All congestion accounting
//! (edge loads, feasibility, solution verification) uses difference arrays
//! over run endpoints, and the conflict graph is built by a deterministic
//! sort-based interval sweep into a flat CSR. The runs answer every path
//! query exactly as an explicit edge list would
//! (`crates/netsched-graph/tests/path_equivalence.rs` checks them against
//! one); the complexity table lives in the [`graph`] crate docs.
//!
//! ## Sharded conflict engine
//!
//! Overlap conflicts never cross networks, so the conflict work is
//! **sharded by network**: a demand delta re-sweeps only the networks it
//! touches, keyed by the universe's own per-network index. The engine
//! stores no conflict edges: each MIS
//! call sweeps the conflicts among its own candidates, as the paper's
//! induced-subgraph MIS prescribes, and
//! [`ShardedConflictGraph`](prelude::ShardedConflictGraph) keeps only each
//! instance's conflict degree for the message counters. The engine runs
//! single-threaded; the paper's parallelism is the simulated rounds and
//! messages it counts. The degrees and induced adjacency equal the flat
//! CSR's, and schedules match the sequential reference engine exactly
//! (`tests/shard_equivalence.rs`); the repo benchmark (`perfbench`) times
//! the full degree build as `conflict.full_build_ms`. Sessions cache the
//! degrees, so repeated solves never re-sweep.
//!
//! ## Dynamic serving
//!
//! A [`Scheduler`](prelude::Scheduler) session is one-shot: its caches are
//! immutable. The serving layer ([`service`], `netsched-service`) turns it
//! into a long-lived system for continuous traffic: a
//! [`ServiceSession`](prelude::ServiceSession) owns a **mutable** solving
//! state and admits batches of
//! [`DemandEvent`](prelude::DemandEvent)s in *epochs* — each epoch splices
//! the universe (ids are stable: an expiry leaves a tombstone slot),
//! updates **only the dirty shards'** conflict degrees, splices the
//! layerings, re-solves and emits a
//! [`ScheduleDelta`](prelude::ScheduleDelta) (admitted / evicted /
//! reassigned demands plus the updated dual certificate). The differential
//! invariant — incremental state byte-identical, up to a dense relabel of
//! the ids, to a from-scratch `Scheduler` over the surviving demand set at
//! every thread count — is pinned by `tests/dynamic_equivalence.rs`; the
//! repo benchmark's `line-1e5` workload reports the warm serving epoch at
//! 10⁵ live demands (`epoch_p50_ms`, `epoch_p90_ms`, `epochs_per_s`).
//! [`Service`](prelude::Service) adds the frontend, with
//! no thread of its own: `submit` returns a handle, and the first `wait`
//! whose submission is unresolved folds everything queued into a single
//! epoch.
//!
//! ## Read consistency
//!
//! Epoch steps mutate the session, but serving reads must never wait for
//! a solve. [`ServiceSession::schedule_view`](prelude::ServiceSession::schedule_view)
//! attaches a wait-free **publication point**: every successful epoch
//! publishes an immutable [`ScheduleSnapshot`](prelude::ScheduleSnapshot)
//! (schedule + certificate + profit + quality behind one `Arc`), and any
//! number of [`ScheduleReader`](prelude::ScheduleReader)s observe it with
//! one atomic load per read — no lock, no allocation, no torn or
//! uncertified state (each snapshot carries a fingerprint the stress
//! suite verifies under concurrent churn). Readers lag the in-flight
//! epoch by **at most one**; a quarantined epoch never publishes, so the
//! rollback path composes with wait-free reads for free.
//! [`Service::reader`](prelude::Service::reader) hands out the same
//! readers from the frontend. Results are bit-identical with a view
//! attached or not, and stepping through the frontend matches direct
//! `step` calls (`tests/concurrent_serving.rs`); the repo benchmark's
//! `mixed-tree-durable` workload runs a reader beside the epochs, reports
//! its latency (`view.read_p50_ns`, `view.read_p99_ns`) and fails the run
//! if it ever lags by more than one epoch (`view.staleness_max_epochs`).
//!
//! ## Warm vs Cold re-solve
//!
//! Incremental rebuilds left the engine solve itself — re-run from zero
//! duals each epoch — as the dominant epoch cost.
//! [`ResolveMode`](prelude::ResolveMode) makes the re-solve strategy a
//! session choice:
//!
//! * **Cold** (default): from-zero solves; the session stays
//!   **byte-equivalent** to a fresh `Scheduler` (the anchor above, still
//!   pinned for warm-capable sessions by `tests/warm_equivalence.rs`).
//! * **Warm**: each epoch resumes a persisted
//!   [`WarmState`](core::WarmState) — expired demands' dual contributions
//!   are point-cleared out of the Fenwick trees, clean shards keep their
//!   `β`/`α` values untouched, and the MIS/raise loop repairs only the
//!   dirty shards until the certificate verifies again. The contract is
//!   deliberately relaxed to **certificate-equivalence**: the schedule
//!   may differ from a cold solve, but every epoch's dual certificate
//!   must verify (`λ ≥ 1 − ε`, feasible schedule) with a certified ratio
//!   within the auto-selected solver's worst-case guarantee — asserted
//!   per epoch by `tests/warm_equivalence.rs` and checked in-engine
//!   (debug builds assert; release builds fall back to a from-zero
//!   re-solve on a failed repair).
//!
//! Choose Warm for serving tiers (the certificate is the product, not the
//! exact schedule bytes); every workload of the repo benchmark serves
//! warm. Choose Cold when consumers diff schedules against a
//! reference solver. `NETSCHED_RESOLVE_MODE=warm|cold` flips the
//! environment default;
//! [`with_resolve_mode`](prelude::ServiceSession::with_resolve_mode) pins
//! a session explicitly.
//!
//! ## Durability & recovery
//!
//! Serving sessions are in-memory; the **durable serving tier**
//! ([`persist`], `netsched-persist`) makes their epochs survive crashes.
//! A [`DurableSession`](prelude::DurableSession) wraps a `ServiceSession`
//! and a directory: every accepted batch is appended to a **write-ahead
//! event log** (framed, CRC-checksummed records — see
//! `netsched_workloads::framing`) through the session's
//! [`EpochJournal`](prelude::EpochJournal) hook *before* the epoch
//! executes, with fsync policies from never
//! ([`Durability::None`](prelude::Durability)) through once-per-epoch
//! (`Epoch`, the default) to before-every-batch (`Batch`, the classic
//! write-ahead guarantee). **Snapshots** of the full session state
//! (versioned JSON documents, written atomically) land on a configurable
//! epoch cadence, after
//! [`compact`](prelude::ServiceSession::compact) runs the lifecycle
//! policy — stale wide/narrow split cores are dropped and oversized warm
//! replay stacks shed, so snapshots never grow without bound.
//!
//! **Restore = newest valid snapshot + log replay** through the normal
//! `step` path ([`netsched_persist::restore`] /
//! [`DurableSession::recover`](prelude::DurableSession::recover)): the
//! recovered session inherits the serving tier's own equivalence
//! contract — **Cold** restores are byte-identical to the uninterrupted
//! run (schedule, certificate, merged conflict CSR), **Warm** restores
//! are certificate-equivalent — pinned by `tests/durability_recovery.rs`
//! at several thread counts, including against truncated, bit-flipped
//! and empty logs (recovery degrades to the longest valid prefix, with
//! the losses counted in a
//! [`RestoreReport`](prelude::RestoreReport), never a panic).
//! `BENCH_durability.json` (from the `durability` bench) records the
//! append-throughput cost of each fsync policy and the restore-time
//! scaling that makes snapshot cadence a tunable trade-off.
//!
//! ## Degraded modes & fault model
//!
//! A serving tier that is only correct when every solve finishes and
//! every fsync succeeds is not a serving tier. Three mechanisms keep
//! epochs flowing when those assumptions break:
//!
//! * **Anytime admission.**
//!   [`step_with_deadline`](prelude::ServiceSession::step_with_deadline)
//!   runs the epoch under a cooperative [`Budget`](prelude::Budget)
//!   (wall-clock deadline, MIS-round cap, or both).
//!   A cut epoch still returns a *feasible* schedule with a valid —
//!   merely weaker — dual certificate, tagged
//!   [`CertificateQuality::Truncated`](prelude::CertificateQuality) in
//!   its stats; the unfinished certification work is carried in the
//!   warm state and any later undeadlined step finishes it (`λ` back
//!   above `1 − ε`). Under the deterministic strategy, cut + resume
//!   reproduces the uninterrupted solve bit for bit. The contract is
//!   pinned by `tests/anytime_contract.rs` and the latency/quality
//!   frontier recorded in `BENCH_anytime.json` (the `anytime` bench).
//!   The frontend layers admission classes on top
//!   ([`AdmissionClass`](prelude::AdmissionClass) /
//!   [`ServicePolicy`](prelude::ServicePolicy)): latency-sensitive
//!   batches run under the policy budget, and a bounded submit queue
//!   rejects overflow with
//!   [`ServiceError::Overloaded`](prelude::ServiceError) (backpressure,
//!   not unbounded buffering).
//! * **Quarantine.** A panic inside the solve is caught at the epoch
//!   boundary: the session inverts the batch on its live set and
//!   rebuilds its cores, tombstones the batch's write-ahead record (so
//!   crash recovery skips it instead of replaying the poisoned batch)
//!   and reports [`ServiceError::Quarantined`](prelude::ServiceError) —
//!   one poisoned batch cannot take the session (or the queued batches
//!   behind it) down, live or across a crash. Panic isolation costs
//!   O(batch) per epoch on the happy path and an O(live) rebuild only
//!   when a quarantine happens. The frontend runs every epoch through
//!   it. A panic that escapes the quarantine itself reaches the caller
//!   driving the epoch; the frontend then answers every later call with
//!   [`ServiceError::SessionLost`](prelude::ServiceError) instead of
//!   panicking.
//! * **The durability ladder.** Persistent fsync failures in the
//!   write-ahead log *degrade* the effective durability one rung at a
//!   time (`Batch → Epoch → None`) instead of failing epochs, after
//!   bounded in-place retries with backoff; appends that keep failing
//!   still fail the step (the write-ahead contract is never silently
//!   dropped). Every downgrade is recorded as a
//!   [`DegradeEvent`](prelude::DegradeEvent) in the operator-visible
//!   [`WalHealth`](prelude::WalHealth)
//!   ([`DurableSession::health`](prelude::DurableSession::health)).
//!   Faults are injected deterministically via
//!   [`FaultPlan`](prelude::FaultPlan) /
//!   [`DurableSession::inject_faults`](prelude::DurableSession::inject_faults);
//!   `tests/fault_injection.rs` drives torn writes, fsync outages,
//!   solve panics and composed crash-recover scenarios through it.
//!
//! ## Scale & memory layout
//!
//! The serving path is sized for **10⁵–10⁶ live demands across 10²–10³
//! networks**. Every hot structure — universe columns and interval
//! paths, per-network run arrays, the conflict-degree column, Fenwick
//! duals, raise records and the warm replay stack — lives in
//! arena-backed struct-of-arrays layouts keyed by stable `u32` ids. An
//! expiry leaves a tombstone in its id slot; the slots are reclaimed by an
//! order-preserving compaction once tombstones exceed 1/16 of the live
//! instances, and every per-id column reserves exactly that much headroom
//! at open and after each compaction, so tombstones cost at most about 6%
//! of a column's capacity and never trigger an amortized doubling. Each
//! layer reports its heap commitment through a `committed_bytes()`
//! audit ([`ServiceSession::memory_footprint`](prelude::ServiceSession::memory_footprint)
//! sums them per session). Measured on the `mega-churn-line` scenario
//! (99,886 live demands / 271,867 instances over 256 networks) when this
//! layout landed; the `line-1e5` workload of the repo benchmark
//! (`python3 perfbench/run.py --workload line-1e5 --seed 20260 --seconds
//! 36 --trace 1`) replays the same scenario and reports the current
//! figures (`bytes_per_demand`, `universe.bytes`, `conflict.bytes`,
//! `warm.bytes`). The conflict row was re-measured by that traced run
//! (2-vCPU x86-64 VM) when the conflict degrees moved onto the
//! universe's own per-network index:
//!
//! | layer | committed | bytes/demand |
//! |---|---|---|
//! | universe (demand/instance columns, inline interval paths, indexes) | 49.8 MiB | ≈ 523 |
//! | conflict (per-network run arrays, degree column, sweep buffers) | 7.3 MiB | ≈ 76 |
//! | warm state (Fenwick duals, raise-record arena, replay stack) | 33.4 MiB | ≈ 351 |
//! | **total** | **90.5 MiB** | **≈ 950** |
//!
//! Stable ids with tombstone headroom did not add to it: the `line-1e5`
//! checkpoint (epoch 40, seed 20260) reads 939 bytes/demand with them
//! against 958 before, and the traced run's final `universe.bytes` fell
//! from 55.6 to 47.9 MB: the columns grow by exact reservations, not by
//! amortized doubling.
//!
//! Two properties keep epochs cheap at that scale, both pinned by tests
//! rather than promised:
//!
//! * **Steady-state splices are allocation-free.** Every layer splices
//!   through persistent reusable scratch (tombstone lists, merge buffers,
//!   freelists); on a clean-shard epoch the whole
//!   `apply_demand_delta → conflict splice → warm splice` chain performs
//!   **zero heap allocations** once capacities reach steady state —
//!   enforced by a counting global allocator in
//!   `tests/alloc_regression.rs`.
//! * **No wholesale rebuilds.** Dirty networks maintain their run order
//!   incrementally (survivor compaction + one merge pass, not a full
//!   re-sort, unit-tested against a fresh build), and their conflict
//!   degrees change only by the departures' and arrivals' overlaps
//!   (proptested against the flat build under churn). No surviving id
//!   changes between compactions, so clean networks, the warm state's
//!   columns and the layering are not walked at all; `tests/stable_ids.rs`
//!   pins that when a compaction runs changes no output.
//!
//! Sustained serving throughput (`epochs_per_s`, `epoch_p50_ms`,
//! `epoch_p90_ms`) and peak RSS at the 10⁵ live-demand point come from
//! the same `line-1e5` harness run; every committed bench JSON header
//! carries `physical_cores` / `rayon_workers` / `peak_rss_kb` provenance
//! so single-core and multicore artifacts are distinguishable.
//!
//! ## Observability
//!
//! Every hot layer self-reports through [`obs`] (`netsched-obs`), a
//! hand-rolled metrics + tracing layer with no external dependencies: an
//! [`ObsRegistry`](prelude::ObsRegistry) of lock-cheap atomic counters,
//! gauges and log₂-bucketed latency histograms (p50/p95/p99/max within
//! ≤ 12.5% relative error, exact below 16 ns), plus RAII spans
//! ([`netsched_obs::span!`]) that cost one relaxed atomic load when
//! tracing is off (`NETSCHED_OBS=on` or
//! [`set_tracing`](prelude::set_tracing) enables the in-memory span
//! ring).
//!
//! Each [`ServiceSession`](prelude::ServiceSession) owns a registry
//! ([`obs_registry`](prelude::ServiceSession::obs_registry)) whose
//! metric catalogue — `epoch.*` step-phase histograms tiling each epoch,
//! `engine.*` MIS-round/raise counters, `service.*` frontend latency
//! histograms and queue gauge, `wal.*` / `restore.*` durability timings
//! mirroring [`WalHealth`](prelude::WalHealth) — is documented in the
//! [`service`] crate docs. A snapshot
//! ([`ObsRegistry::snapshot`](prelude::ObsRegistry::snapshot)) exports
//! as JSON or Prometheus text
//! ([`MetricsReport`](prelude::MetricsReport));
//! [`DurableSession`](prelude::DurableSession) can dump reports on an
//! epoch cadence and writes a `quarantine/epoch-<N>/` forensics bundle
//! (poisoned batch, panic payload, metrics report) whenever a batch is
//! quarantined. The phase histograms must *agree* with the session's
//! delta telemetry (same clock reads — pinned by `tests/obs_metrics.rs`
//! along with the < 5% enabled-overhead and disabled-mode
//! zero-allocation contracts); the `perfbench` harness reports
//! `epoch_p50_ms` / `epoch_p90_ms` from raw per-epoch samples.
//! The per-session
//! [`RoundCalibration`](prelude::RoundCalibration) EWMA learns
//! rounds/second online and compiles wall-clock deadlines
//! ([`BudgetSpec::Millis`](prelude::BudgetSpec)) into engine round caps
//! ([`calibrated_budget`](prelude::ServiceSession::calibrated_budget)).
//!
//! ## Workspace layout
//!
//! * [`graph`] (`netsched-graph`) — networks, demands, problem instances and
//!   the demand-instance universe;
//! * [`decomp`] (`netsched-decomp`) — tree decompositions (root-fixing,
//!   balancing, ideal) and layered decompositions;
//! * [`distrib`] (`netsched-distrib`) — the synchronous message-passing
//!   simulator, conflict graphs and Luby's distributed MIS;
//! * [`core`] (`netsched-core`) — the two-phase primal-dual framework, the
//!   paper's algorithms (Theorems 5.3, 6.3, 7.1, 7.2, Appendix A) and the
//!   Solver/Scheduler session API;
//! * [`baseline`] (`netsched-baseline`) — Panconesi–Sozio reconstruction,
//!   greedy heuristics, exact solvers and optimum upper bounds, all behind
//!   the same `Solver` trait;
//! * [`obs`] (`netsched-obs`) — the observability layer: atomic
//!   counters/gauges, log-bucketed latency histograms, JSON/Prometheus
//!   exporters and the near-zero-cost span tracer;
//! * [`service`] (`netsched-service`) — the dynamic serving subsystem:
//!   incremental per-shard rebuild epochs and the batch-admission
//!   scheduler service;
//! * [`persist`] (`netsched-persist`) — the durable serving tier:
//!   write-ahead event log, periodic snapshots and crash recovery;
//! * [`workloads`] (`netsched-workloads`) — seeded workload generators,
//!   named scenarios, dynamic churn traces and JSON instance serialization.

#![warn(missing_docs)]

/// Re-export of `netsched-graph`.
pub use netsched_graph as graph;

/// Re-export of `netsched-decomp`.
pub use netsched_decomp as decomp;

/// Re-export of `netsched-distrib`.
pub use netsched_distrib as distrib;

/// Re-export of `netsched-core`.
pub use netsched_core as core;

/// Re-export of `netsched-baseline`.
pub use netsched_baseline as baseline;

/// Re-export of `netsched-obs`.
pub use netsched_obs as obs;

/// Re-export of `netsched-service`.
pub use netsched_service as service;

/// Re-export of `netsched-persist`.
pub use netsched_persist as persist;

/// Re-export of `netsched-workloads`.
pub use netsched_workloads as workloads;

/// Every registered solver: the paper's algorithms
/// ([`netsched_core::registry`]) followed by the baselines
/// ([`netsched_baseline::registry`]). Feed this to
/// [`Scheduler::portfolio`](netsched_core::Scheduler::portfolio) or iterate
/// it for conformance sweeps.
pub fn registry() -> Vec<Box<dyn netsched_core::Solver>> {
    let mut solvers = netsched_core::registry();
    solvers.extend(netsched_baseline::registry());
    solvers
}

/// The most commonly used types and entry points.
pub mod prelude {
    // The unified Solver / Scheduler session API.
    pub use netsched_core::{
        approximation_bound, AlgorithmConfig, Budget, BuildCounts, CertificateQuality, Portfolio,
        PortfolioRun, Problem, ProblemKind, RaiseRule, RoundCalibration, Scheduler, Solution,
        SolveContext, Solver, WarmState,
    };
    // The paper's algorithms: solver types and the historical free-function
    // wrappers.
    pub use netsched_core::{
        solve_arbitrary_tree, solve_line_arbitrary, solve_line_unit, solve_narrow_tree,
        solve_sequential_tree, solve_unit_tree, ArbitraryTreeSolver, LineArbitrarySolver,
        LineNarrowSolver, LineUnitSolver, NarrowTreeSolver, SequentialTreeSolver, UnitTreeSolver,
    };
    // Baselines.
    pub use netsched_baseline::{
        best_greedy, exact_optimum, solve_ps_line_narrow, solve_ps_line_unit,
        weighted_interval_optimum, ExactSolver, GreedySolver, IntervalDpSolver, PsLineNarrowSolver,
        PsLineUnitSolver,
    };
    // Decompositions and the distributed substrate.
    pub use netsched_decomp::{
        balancing_decomposition, ideal_decomposition, root_fixing_decomposition, InstanceLayering,
        TreeDecomposition, TreeDecompositionKind,
    };
    pub use netsched_distrib::{
        CommGraph, ConflictGraph, MisStrategy, RoundStats, ShardedConflictGraph,
    };
    // The data model.
    pub use netsched_graph::{
        CapacityIndex, Demand, DemandId, DemandInstanceUniverse, EdgeId, GlobalEdge, InstanceId,
        LineProblem, NetworkId, Processor, ProcessorId, TreeNetwork, TreeProblem, VertexId,
    };
    // The observability layer.
    pub use netsched_obs::{
        set_tracing, tracing_enabled, Counter, Gauge, Histogram, HistogramSnapshot, MetricsReport,
        ObsRegistry, SpanRecord,
    };
    // The dynamic serving subsystem.
    pub use netsched_service::{
        replay_trace, AdmissionClass, BudgetSpec, CompactionReport, DemandEvent, DemandRequest,
        DemandTicket, EpochJournal, ResolveMode, ScheduleDelta, ScheduleReader, ScheduleSnapshot,
        ScheduleView, Service, ServiceError, ServicePolicy, ServiceSession, SubmitHandle,
    };
    // The durable serving tier.
    pub use netsched_persist::{
        restore, DegradeEvent, Durability, DurableSession, PersistConfig, PersistError,
        RecoveredSession, RestoreReport, WalHealth,
    };
    // Workloads and scenarios.
    pub use netsched_workloads::{
        many_networks_line, many_networks_tree, named_scenarios, poisson_arrivals_line,
        poisson_arrivals_tree, skewed_networks_line, ChurnSpec, EventTrace, FaultPlan,
        HeightDistribution, LineWorkload, ProfitDistribution, Scenario, TraceEvent, TreeTopology,
        TreeWorkload,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_a_working_pipeline() {
        let workload = TreeWorkload {
            vertices: 24,
            networks: 2,
            demands: 20,
            seed: 1,
            ..TreeWorkload::default()
        };
        let problem = workload.build().unwrap();
        let session = Scheduler::for_tree(&problem);
        let solution = session.solve(&AlgorithmConfig::deterministic(0.1));
        solution.verify(session.universe()).unwrap();
        let exact = exact_optimum(session.universe());
        assert!(exact.profit + 1e-9 >= solution.profit);
        assert!(solution.diagnostics.optimum_upper_bound + 1e-6 >= exact.profit);
        assert_eq!(session.build_counts().universe, 1);
    }

    #[test]
    fn combined_registry_covers_paper_algorithms_and_baselines() {
        let names: Vec<&str> = crate::registry().iter().map(|s| s.name()).collect();
        assert!(names.contains(&"tree-unit"));
        assert!(names.contains(&"line-arbitrary"));
        assert!(names.contains(&"exact"));
        assert!(names.contains(&"ps-line-unit"));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "solver names must be unique");
    }
}
