//! Dynamic serving subsystem for `netsched`: incremental per-shard rebuild
//! plus a batch-admission scheduler service.
//!
//! The paper's framework assumes a static demand set; production traffic
//! does not. This crate turns the cached one-shot
//! [`Scheduler`](netsched_core::Scheduler) session into a **long-lived
//! service**: demands arrive and expire over time, and every *epoch* pays
//! only for the shards the batch actually touched.
//!
//! # Epoch model
//!
//! A [`ServiceSession`] owns a mutable solving state — the live demand set,
//! the demand-instance universe, its conflict degrees, the layerings
//! and (lazily) the wide/narrow split. [`ServiceSession::step`] admits one
//! batch of [`DemandEvent`]s:
//!
//! 1. **Validate** the batch (all-or-nothing; a failed batch leaves the
//!    session untouched).
//! 2. **Splice** the universe: expired instances leave tombstones in their
//!    id slots and arriving instances append new slots, so no surviving id
//!    changes and the splice costs `O(batch + dirty lists)`. Once
//!    tombstones exceed `1/16` of the live instances
//!    ([`TOMBSTONE_DIVISOR`](netsched_graph::TOMBSTONE_DIVISOR)), an epoch
//!    first **compacts**: every structure relabels its survivors `0, 1, …`
//!    in id order — exactly as a from-scratch build over the surviving set
//!    would number them — in the serving path's one `O(|D|)` pass.
//! 3. **Update only the dirty shards' conflict degrees**: the departures
//!    and arrivals of each network that gained or lost instances are swept
//!    against its runs; clean shards are not touched. No conflict edge is
//!    stored: each MIS call sweeps the edges among its own candidates.
//! 4. **Re-layer** incrementally: tree assignments are per-instance and
//!    position-independent (only arrivals pay the `O(path)` cost); line
//!    length classes are assigned per arrival against a length histogram
//!    and re-derive in `O(|D|)` arithmetic only when the minimum length
//!    moves.
//! 5. **Re-solve** with the existing two-phase engine and
//!    emit a [`ScheduleDelta`] — admissions, evictions, reassignments and
//!    the updated dual certificate — instead of a full schedule. Every
//!    core solves through one dispatch (a warm resume or a cold solve, by
//!    [`ResolveMode`]). A single-class live set solves on the full core; a
//!    mixed-height one solves the wide half under the unit rule and the
//!    narrow half under the narrow rule, and
//!    [`combine_wide_narrow`](netsched_core::combine_wide_narrow) keeps the
//!    better schedule per network (Theorems 6.3 and 7.2).
//!
//! # Delta semantics
//!
//! Deltas speak **tickets** ([`DemandTicket`]), the stable external
//! identity of a demand; `DemandId`s are relabelled by every compaction
//! and never leak. `admitted` lists demands newly scheduled, `evicted` lists live
//! demands that lost their slot (expired demands are not re-reported), and
//! `reassigned` lists demands whose network/start moved. Every delta
//! carries the dual certificate of the *current* live set: the scaled dual
//! objective remains a machine-checked optimum upper bound epoch after
//! epoch.
//!
//! # Warm vs Cold re-solve
//!
//! Rebuilding the caches incrementally left one from-scratch cost on the
//! epoch path: the engine solve itself, re-run from zero duals every
//! epoch. [`ResolveMode`] makes that a choice:
//!
//! * **[`ResolveMode::Cold`]** (the default) re-solves from zero. The
//!   session is **byte-equivalent** to a fresh
//!   [`Scheduler`](netsched_core::Scheduler): schedule, certificate and
//!   conflict degrees match bit for bit (`tests/dynamic_equivalence.rs`
//!   pins this, including for warm-capable sessions pinned to Cold).
//! * **[`ResolveMode::Warm`]** resumes from a persisted
//!   [`WarmState`](netsched_core::WarmState): expired demands' dual
//!   contributions are point-cleared out of the Fenwick trees, clean
//!   shards keep their `β`/`α` values and are not re-scanned, and the
//!   MIS/raise loop repairs only the dirty shards until the certificate
//!   verifies again. The contract deliberately relaxes to
//!   **certificate-equivalence**: the schedule may differ from a cold
//!   solve, but every epoch must carry a verifying dual certificate
//!   (`λ ≥ 1 − ε`, feasible schedule) with a certified ratio within the
//!   solver's worst-case guarantee — checked in-engine (debug builds
//!   assert; release builds fall back to a from-zero re-solve when the
//!   repaired certificate fails to verify). `tests/warm_equivalence.rs`
//!   replays every churn trace through both paths and enforces the
//!   relaxed contract epoch by epoch.
//!
//! Pick **Warm** for serving tiers (every workload of the repo benchmark,
//! `perfbench`, serves warm) and **Cold** whenever downstream consumers
//! diff schedules against a
//! reference solver. Sessions start Cold;
//! [`ServiceSession::with_resolve_mode`] is the one way to choose the
//! mode.
//!
//! # Correctness anchor
//!
//! After **any** event sequence, a **Cold** session's conflict graph
//! is byte-identical to — and its schedule and certificate equal to — a
//! from-scratch [`Scheduler`](netsched_core::Scheduler) built over the same
//! surviving demand set (`tests/dynamic_equivalence.rs`), once the
//! session's ids are relabelled densely: instance and demand ids are
//! stable slots that leave tombstones on expiry, so the suite compares
//! through that relabel (`tests/common::dense_universe` /
//! `dense_solution`). Warm sessions keep the incremental structures
//! byte-identical (the splices are mode-independent) and relax only the
//! solve, as above.
//!
//! # Amortized epoch cost
//!
//! With `|D|` live instances, `r` shards, `k` dirty shards and `B` the
//! batch's instances:
//!
//! | stage | from-scratch rebuild | incremental epoch |
//! |---|---|---|
//! | universe | `O(|D| log n)` path construction | `O(B log |D| + dirty lists)` splice; tombstones, no renumbering |
//! | conflict degrees | every shard sweeps | only `k` dirty shards sweep their departures and arrivals |
//! | tree layering | `O(|D| log n)` assignment + decompositions | decompositions cached; `O(B log n)` new assignments |
//! | line layering | `O(|D|)` | `O(B)`; `O(|D|)` when the minimum length moves |
//! | warm state | — | `O(B)` dual point-clears and column appends |
//! | id compaction | — | `O(|D|)` once tombstones exceed `|D|/16` (about once per `|D|/(16·B)` epochs) |
//! | solve | two-phase engine | identical engine |
//! | warm safety-valve `verify` | — | one pass over the selection + `O(Σ E_t)` over touched networks |
//! | ticket lookup | — | `O(log live)` binary search on the ticket-sorted live list |
//! | schedule delta | — | one merge walk of the old and new ticket-sorted schedules |
//!
//! The repo benchmark's `line-1e5` workload (`perfbench`) reports the
//! resulting warm epoch at 10⁵ live demands, phase by phase in traced runs.
//!
//! # Durability & recovery
//!
//! Sessions are in-memory; the durable serving tier lives in
//! `netsched-persist` and hooks in through three session surfaces:
//!
//! * **Write-ahead journal** — an attached [`EpochJournal`] receives every
//!   validated batch (with the epoch it advances the session to) *before*
//!   any state mutates; a journal error aborts the step with the session
//!   unchanged. The persistence crate records batches as framed,
//!   CRC-checksummed JSON records and offers fsync policies from "never"
//!   to "every batch".
//! * **Snapshots** — [`ServiceSession::snapshot`] serializes what of the
//!   session cannot be recomputed (base topology, live ticket table,
//!   counters, pending-anytime flag, schedule, certificate, per-core
//!   [`WarmState`](netsched_core::WarmState)s without their derived
//!   columns) behind a versioned header; [`ServiceSession::compact`] runs first, dropping stale split
//!   cores and oversized warm replay stacks so snapshots don't grow
//!   without bound. The snapshot is the union of the
//!   [`SessionTopology`] ([`ServiceSession::topology`]), which never
//!   changes, and the session state
//!   ([`ServiceSession::state_snapshot`]); the durable tier writes the
//!   topology once per directory and only the state on its cadence. Snapshot cadence trades write amplification against
//!   recovery time: frequent snapshots shorten the log suffix a restore
//!   must replay, sparse snapshots make epochs cheaper but recovery
//!   longer.
//! * **Restore** — [`ServiceSession::from_snapshot`] (or
//!   [`ServiceSession::from_state`], given the topology apart) rebuilds
//!   every core from the base topology and the live requests, through the same
//!   request-to-core builder that creates the split cores, and re-applies
//!   the logged suffix through the normal [`step`](ServiceSession::step)
//!   path.
//!   The recovered session therefore inherits the session's own
//!   equivalence contract: **Cold** restores are byte-identical to the
//!   uninterrupted run (schedule, certificate, conflict degrees);
//!   **Warm** restores are certificate-equivalent (every replayed epoch
//!   re-certifies `λ ≥ 1 − ε` within the worst-case ratio). The
//!   kill-and-recover suite (`tests/durability_recovery.rs`) pins both.
//!
//! # Degraded modes & fault model
//!
//! The serving tier is built to degrade, not to fall over. Three
//! mechanisms cover the three ways an epoch can go wrong:
//!
//! * **Deadlines (anytime admission)** — λ-certification is *monotone*
//!   over the engine's raise loop, so a solve can stop at a latency
//!   budget and still emit a feasible schedule with a **valid** (weaker)
//!   optimum bound. [`ServiceSession::step_with_deadline`] threads a
//!   cooperative [`Budget`](netsched_core::Budget) (round cap, wall-clock
//!   deadline or both) into the engine; a cut epoch's
//!   `stats.quality` is
//!   [`Truncated`](netsched_core::CertificateQuality::Truncated) and the
//!   unfinished certification work stays pending in the session — the
//!   next un-budgeted epoch (even an empty batch) finishes it. Tune the
//!   budget to the epoch latency you can afford: round caps are
//!   deterministic and testable, millisecond deadlines track wall-clock
//!   SLOs. Under [`AdmissionClass`], latency-sensitive submissions get
//!   the budgeted path while bulk submissions batch into full epochs.
//! * **Backpressure** — a [`ServicePolicy`] with `max_queued > 0` bounds
//!   the frontend's submission queue exactly; a full queue rejects with
//!   [`ServiceError::Overloaded`]`{ retry_after_epochs: 1 }` instead of
//!   growing without bound (one epoch drains the whole queue).
//! * **Quarantine** — [`ServiceSession::step_with_deadline`] runs the
//!   epoch under `catch_unwind`; a panicking solve restores the session's
//!   pre-step live set by inverting the batch and rebuilds its cores,
//!   appends a rollback tombstone to any attached journal (so crash
//!   recovery never resurrects the poisoned batch) and returns
//!   [`ServiceError::Quarantined`] naming the panic. The session stays
//!   fully operational; only the offending batch is lost. Isolation
//!   costs O(batch) per epoch on the happy path (the ticket counter and
//!   the batch's expiring demands are kept aside) and O(live) for the
//!   rebuild when a quarantine happens. The frontend runs every epoch
//!   through it. A panic that escapes the quarantine itself propagates
//!   to the caller driving the epoch, and the frontend answers every
//!   later call with [`ServiceError::SessionLost`] — never a panic, and
//!   never the `Quarantined` promise of a restored session.
//!
//! Durability degrades independently in `netsched-persist`: injected or
//! real fsync failures retry with backoff and then **downgrade** the
//! effective durability (`Batch → Epoch → None`) rather than failing the
//! epoch, with the downgrade visible in the operator-facing health state.
//! See the `netsched-persist` crate docs for the degrade ladder.
//!
//! # Observability
//!
//! Every session records into a per-session
//! [`ObsRegistry`](netsched_obs::ObsRegistry) (share one across sessions
//! with [`ServiceSession::with_obs`]; read it with
//! [`ServiceSession::obs_registry`]). Recording is a few relaxed atomics —
//! no locks, no allocations on the epoch path (pinned by the root
//! `alloc_regression` suite). Snapshot the registry for a
//! [`MetricsReport`](netsched_obs::MetricsReport) with exact counts and
//! p50/p95/p99/max latencies, exportable as JSON or Prometheus text.
//!
//! The metric catalogue:
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `epoch.step_ns` | histogram | whole `step` call (admission latency) |
//! | `epoch.validate_ns` | histogram | batch validation + partitioning |
//! | `epoch.journal_ns` | histogram | write-ahead journal record |
//! | `epoch.splice_ns` | histogram | universe/layering/warm/split splices |
//! | `epoch.conflict_rebuild_ns` | histogram | dirty conflict-shard rebuilds |
//! | `epoch.compact_ns` | histogram | id compaction, on the epochs that run one (inside `epoch.splice_ns`) |
//! | `epoch.compactions` | counter | id compactions (by epochs and by `compact`) |
//! | `epoch.solve_ns` | histogram | two-phase engine solve |
//! | `epoch.delta_emit_ns` | histogram | schedule diff + delta assembly |
//! | `engine.setup_ns` | histogram | solve setup: active list, group buckets, stage schedule |
//! | `engine.repair_ns` | histogram | first-phase repair passes (MIS + raises) |
//! | `engine.refresh_ns` | histogram | LHS cache refresh + per-network λ minima |
//! | `engine.replay_ns` | histogram | second phase: re-decide the marked networks' stack items, read off the selection |
//! | `engine.raised_set_ns` | histogram | raised-instance set, read off the newest-layer column |
//! | `engine.replayed_items` | histogram | stack items the second phase re-decided (all on a fresh state) |
//! | `engine.certify_ns` | histogram | verification, certificate checks, safety valve |
//! | `epoch.count` | counter | epochs stepped |
//! | `epoch.quarantined` | counter | batches rolled back by quarantine |
//! | `engine.mis_rounds` | counter | first-phase MIS/raise rounds |
//! | `engine.raises` | counter | dual raises performed |
//! | `engine.truncated_epochs` | counter | budget-cut epochs |
//! | `engine.capped_stages` | counter | first-phase stages cut by the Claim 5.2 step cap |
//! | `service.queue_depth` | gauge | submissions waiting in the frontend |
//! | `service.overloaded` | counter | submissions rejected by backpressure |
//! | `service.latency_bulk_ns` | histogram | submit→delta, bulk class |
//! | `service.latency_sensitive_ns` | histogram | submit→delta, latency-sensitive |
//! | `read.count` | counter | wait-free snapshot reads served |
//! | `read.staleness_epochs` | histogram | per-read lag behind the in-flight epoch (≤ 1) |
//! | `read.refresh_wait_ns` | histogram | reader refresh contention (slot lock + `Arc` clone) |
//!
//! A snapshot exports in the Prometheus text exposition format, names
//! prefixed `netsched_` and sanitized to the exposition charset
//! (`epoch.step_ns` → `netsched_epoch_step_ns`, values in nanoseconds):
//!
//! ```text
//! # TYPE netsched_epoch_count counter
//! netsched_epoch_count 64
//! # TYPE netsched_epoch_step_ns summary
//! netsched_epoch_step_ns{quantile="0.5"} 268435455
//! netsched_epoch_step_ns{quantile="0.95"} 402653183
//! netsched_epoch_step_ns{quantile="0.99"} 421700980
//! netsched_epoch_step_ns_sum 17044316156
//! netsched_epoch_step_ns_count 64
//! netsched_epoch_step_ns_max 421700980
//! ```
//!
//! The phase histograms tile the step: `splice + conflict_rebuild` equals
//! the delta's `stats.rebuild_seconds` and `solve_ns` equals
//! `stats.solve_seconds` (same clock reads).
//!
//! Epoch solves also feed an online
//! [`RoundCalibration`](netsched_core::RoundCalibration) (EWMA of engine
//! seconds-per-round), which
//! [`ServiceSession::calibrated_budget`] uses to compile wall-clock
//! deadlines ([`BudgetSpec::Millis`]) into deterministic round caps.
//!
//! # Read consistency
//!
//! Epoch steps mutate the session; serving reads must not wait for them.
//!
//! * **Publication point** — [`ServiceSession::schedule_view`] attaches a
//!   [`ScheduleView`]: every successful epoch ends by publishing an
//!   immutable [`ScheduleSnapshot`] (schedule + certificate + profit +
//!   quality, one `Arc`), and [`ScheduleReader`]s observe it with **one
//!   atomic load** on the steady path — no lock, no allocation, no
//!   waiting on the write side. Readers can never see a torn or
//!   uncertified schedule: a snapshot is fully built before the view's
//!   epoch stamp advances, and carries a fingerprint over every field
//!   ([`ScheduleSnapshot::verify_fingerprint`]) so the stress suite
//!   proves it rather than assumes it.
//! * **Staleness contract** — a reader lags the in-flight epoch by **at
//!   most one**: while a step is between its journal write and its
//!   publication the last *certified* snapshot stays readable (staleness
//!   exactly 1); outside that window staleness is 0. A quarantined epoch
//!   never publishes — the rollback clears the in-flight bit and readers
//!   continue on the last certified snapshot, so panic isolation and the
//!   read path compose without coordination. `read.staleness_epochs`
//!   records the observed distribution; its max is pinned ≤ 1.
//!
//! Sessions that never call [`ServiceSession::schedule_view`] pay nothing:
//! the view is lazy and the step path is unchanged bit for bit
//! (`tests/concurrent_serving.rs` pins both properties). The repo
//! benchmark's `mixed-tree-durable` workload (`perfbench`) measures read
//! latency beside a durable session and checks the staleness bound.
//!
//! # Frontend
//!
//! [`Service`] wraps a session behind a submission queue, with no thread
//! of its own: [`Service::submit`] returns a [`SubmitHandle`], and the
//! first [`SubmitHandle::wait`] whose submission is still unresolved
//! folds **everything queued** into one epoch — batch admission for free.
//! Each submission is validated when its fold runs; an invalid one gets
//! its own error and the rest of the fold steps without it.
//! [`Service::reader`] hands out wait-free readers of the published
//! schedule.
//!
//! ```
//! use netsched_core::AlgorithmConfig;
//! use netsched_graph::{TreeProblem, VertexId};
//! use netsched_service::{DemandEvent, DemandRequest, ResolveMode, Service, ServiceSession};
//!
//! let mut problem = TreeProblem::new(4);
//! let t = problem.add_network(vec![
//!     (VertexId(0), VertexId(1)),
//!     (VertexId(1), VertexId(2)),
//!     (VertexId(2), VertexId(3)),
//! ]).unwrap();
//! problem.add_unit_demand(VertexId(0), VertexId(2), 3.0, vec![t]).unwrap();
//!
//! // Folding is the frontend's, not the solver's: both modes behave alike.
//! for mode in [ResolveMode::Cold, ResolveMode::Warm] {
//!     let service = Service::new(
//!         ServiceSession::for_tree(&problem, AlgorithmConfig::deterministic(0.1))
//!             .with_resolve_mode(mode),
//!     );
//!     let mut reader = service.reader().unwrap();
//!     // Two submissions queued before anyone waits fold into a single epoch.
//!     let a = service.submit(vec![DemandEvent::Arrive(DemandRequest::Tree {
//!         u: VertexId(1), v: VertexId(3), profit: 2.0, height: 1.0, access: vec![t],
//!     })]).unwrap();
//!     let b = service.submit(vec![]).unwrap();
//!     let delta = a.wait().unwrap();
//!     assert_eq!(delta.epoch, 1);
//!     assert!(std::sync::Arc::ptr_eq(&delta, &b.wait().unwrap())); // one shared delta
//!     assert!(!delta.admitted.is_empty());
//!     assert_eq!(reader.read().epoch(), 1); // published for readers
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod core;
pub mod event;
pub mod replay;
pub mod service;
pub mod session;
pub mod snapshot;
pub mod view;

pub use event::{DemandEvent, DemandRequest, DemandTicket, ServiceError};
pub use replay::replay_trace;
pub use service::{AdmissionClass, BudgetSpec, Service, ServicePolicy, SubmitHandle};
pub use session::{
    Certificate, CompactionReport, EpochJournal, EpochStats, MemoryFootprint, Placement,
    ResolveMode, ScheduleDelta, ScheduledDemand, ServiceSession, SessionTopology,
};
pub use snapshot::{
    parse_wal_record, wal_record, wal_rollback_record, WalRecord, SNAPSHOT_FORMAT_VERSION,
};
pub use view::{ScheduleReader, ScheduleSnapshot, ScheduleView};
