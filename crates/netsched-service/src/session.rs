//! The synchronous epoch engine: [`ServiceSession`] and its
//! [`ScheduleDelta`] output.
//!
//! # Epoch model
//!
//! A session owns a **mutable** solving state — live demand set, universe,
//! sharded conflict graph, layerings, (lazily) the wide/narrow split — and
//! advances it one *epoch* at a time: [`ServiceSession::step`] takes a
//! batch of [`DemandEvent`]s, splices them through every cached structure,
//! re-solves with the two-phase engine, and returns a
//! [`ScheduleDelta`] describing only what changed. The invariant
//! maintained by every epoch (and pinned by `tests/dynamic_equivalence.rs`)
//! is:
//!
//! > after any event sequence, the session's conflict graph is
//! > byte-identical to, and its schedule and certificate equal to, a
//! > from-scratch [`Scheduler`](netsched_core::Scheduler) built over the
//! > surviving demand set.

use netsched_core::{
    combine_wide_narrow, subproblem, AlgorithmConfig, Budget, CertificateQuality, HalfOutcome,
    RaiseRule, RoundCalibration, Solution, WarmState,
};
use netsched_decomp::TreeLayerer;
use netsched_distrib::ShardedConflictGraph;
use netsched_graph::{
    ArrivingDemand, DemandId, DemandInstanceUniverse, EdgePath, GraphError, LineProblem, NetworkId,
    TreeProblem,
};
use netsched_obs::{Counter, Histogram, ObsRegistry};
use netsched_workloads::json::{FromJson, JsonValue, ToJson};

use crate::core::{LiveCore, TreeAssignments, TREE_LAYERING};
use crate::event::{DemandEvent, DemandRequest, DemandTicket, ServiceError};
use crate::snapshot::SNAPSHOT_FORMAT_VERSION;
use crate::view::{ScheduleSnapshot, ScheduleView};

/// How a session re-solves the standing schedule each epoch.
///
/// # Warm vs Cold
///
/// * [`Cold`](ResolveMode::Cold) re-runs the two-phase engine from zero
///   duals every epoch. This preserves the PR-4 **byte-equivalence
///   anchor** exactly: schedule, certificate and conflict CSR match a
///   from-scratch [`Scheduler`](netsched_core::Scheduler) over the
///   surviving demand set bit for bit.
/// * [`Warm`](ResolveMode::Warm) resumes from the previous epoch's
///   persisted [`WarmState`]: expired demands'
///   dual contributions are point-cleared, clean shards keep their `β`/`α`
///   values, and the MIS/raise loop re-runs only over the dirty shards
///   until the repaired certificate verifies. This deliberately relaxes
///   the anchor to **certificate-equivalence** — the schedule may differ
///   from a cold solve, but every epoch's dual certificate must verify
///   (`λ ≥ 1 − ε`, feasible schedule) and the certified ratio must stay
///   within the solver's worst-case guarantee (checked in-engine; debug
///   builds assert, release builds fall back to a from-zero re-solve).
///
/// Choose `Warm` for serving tiers where the engine solve dominates the
/// epoch (the regime `BENCH_warm_resolve.json` measures); choose `Cold`
/// when downstream consumers diff schedules against a reference solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResolveMode {
    /// From-zero re-solve every epoch (byte-equivalent to a fresh
    /// `Scheduler`; the default).
    #[default]
    Cold,
    /// Warm-started resume with certificate repair
    /// (certificate-equivalent, not byte-equivalent).
    Warm,
}

impl ResolveMode {
    /// Parses a mode name (`"cold"` / `"warm"`, case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "cold" => Some(ResolveMode::Cold),
            "warm" => Some(ResolveMode::Warm),
            _ => None,
        }
    }

    /// The mode named by the `NETSCHED_RESOLVE_MODE` environment variable.
    /// Used by the session constructors as the default, so a deployment
    /// (or the CI matrix) can flip every default-constructed session to
    /// warm re-solving without code changes; sessions built with
    /// [`ServiceSession::with_resolve_mode`] are unaffected.
    ///
    /// Returns `Ok(None)` when the variable is unset and a descriptive
    /// error when it is set to something other than `cold`/`warm` — a
    /// typo'd deployment variable must not silently run the wrong mode.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var("NETSCHED_RESOLVE_MODE") {
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(raw)) => Err(format!(
                "NETSCHED_RESOLVE_MODE is set to non-unicode value {raw:?} \
                 (expected `cold` or `warm`)"
            )),
            Ok(raw) => match Self::parse(&raw) {
                Some(mode) => Ok(Some(mode)),
                None => Err(format!(
                    "NETSCHED_RESOLVE_MODE is set to unrecognized value `{raw}` \
                     (expected `cold` or `warm`)"
                )),
            },
        }
    }

    /// [`ResolveMode::from_env`], falling back to [`ResolveMode::Cold`]
    /// when the variable is unset **or** invalid. An invalid value is
    /// reported once to stderr instead of being swallowed, so a typo'd
    /// deployment shows up in operator logs.
    pub fn env_default() -> Self {
        match Self::from_env() {
            Ok(mode) => mode.unwrap_or_default(),
            Err(why) => {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!("netsched-service: {why}; falling back to cold re-solves");
                });
                ResolveMode::Cold
            }
        }
    }
}

/// A write-ahead hook for epoch batches: the durable serving tier
/// (`netsched-persist`) attaches one so every validated batch is recorded
/// **before** the epoch executes.
///
/// [`ServiceSession::step`] calls [`record`](EpochJournal::record) after
/// the batch validated and before any session state mutates, with the
/// epoch number the batch is about to advance the session to. A journal
/// error aborts the step ([`ServiceError::Journal`]) with the session
/// unchanged, so a batch is never executed unless its record is down —
/// the write-ahead contract crash recovery replays against. How durable
/// "down" is (buffered, fsynced per batch, fsynced per epoch) is the
/// journal implementation's policy.
pub trait EpochJournal: Send {
    /// Records the validated batch of the epoch about to execute.
    fn record(&mut self, epoch: u64, batch: &[DemandEvent]) -> Result<(), String>;

    /// Records that the batch journaled for `epoch` was **quarantined**
    /// and never executed, so replay must skip its record. Called by
    /// [`ServiceSession::step_with_deadline`] after a quarantine restores
    /// the session; the default implementation is a no-op for journals
    /// without rollback semantics.
    fn record_rollback(&mut self, epoch: u64) -> Result<(), String> {
        let _ = epoch;
        Ok(())
    }
}

/// What [`ServiceSession::compact`] dropped; see its docs for the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionReport {
    /// The wide/narrow split cores were dropped because the live height
    /// mix is no longer mixed.
    pub split_dropped: bool,
    /// Warm states reset because their replay stack had grown past
    /// [`ServiceSession::STACK_MASS_FACTOR`] × live instances.
    pub warm_states_shed: usize,
}

/// Where a scheduled demand runs: its network and, for windowed line
/// demands, the start timeslot of the chosen placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The network the demand was scheduled on.
    pub network: NetworkId,
    /// Start timeslot of the chosen placement (line sessions only).
    pub start: Option<u32>,
}

/// One scheduled demand in a delta or schedule listing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledDemand {
    /// The demand's stable ticket.
    pub ticket: DemandTicket,
    /// Where it runs.
    pub placement: Placement,
}

/// The dual certificate carried by every epoch (weak duality: the scaled
/// dual objective upper-bounds the optimum of the **current** live set).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Certificate {
    /// Machine-checked upper bound on the optimum profit.
    pub optimum_upper_bound: f64,
    /// The slackness λ reached by the first phase.
    pub lambda: f64,
    /// The raw dual objective `Σ α + Σ β`.
    pub dual_objective: f64,
}

/// Bookkeeping of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochStats {
    /// Arrivals applied this epoch.
    pub arrivals: usize,
    /// Expiries applied this epoch.
    pub expiries: usize,
    /// Shards whose local CSR was rebuilt (dirty networks of the splice).
    pub dirty_shards: usize,
    /// Total shards (== networks) of the session.
    pub num_shards: usize,
    /// Live demands after the epoch.
    pub live_demands: usize,
    /// Demand instances after the epoch.
    pub instances: usize,
    /// `false` for the empty-batch fast path, which returns the standing
    /// schedule without re-running the engine.
    pub resolved: bool,
    /// `true` when the epoch's solve resumed a persisted warm state
    /// ([`ResolveMode::Warm`]); `false` for cold solves and for the
    /// empty-batch fast path.
    pub warm_resolve: bool,
    /// Wall-clock seconds spent splicing and rebuilding structures
    /// (universe, dirty shards, layerings, split cores).
    pub rebuild_seconds: f64,
    /// Wall-clock seconds spent in the two-phase engine solve.
    pub solve_seconds: f64,
    /// Wall-clock seconds spent recording the batch in the attached
    /// [`EpochJournal`] (0 when none is attached).
    pub journal_seconds: f64,
    /// Whether the epoch's certificate is full or budget-truncated (a
    /// deadline cut the solve early; see
    /// [`ServiceSession::step_with_deadline`]). The empty-batch fast path
    /// reports [`CertificateQuality::Full`] — it is only taken while no
    /// truncated work is pending.
    pub quality: CertificateQuality,
}

/// What one epoch changed, instead of a full schedule: the paper solver's
/// output re-expressed against the previous epoch.
///
/// Semantics:
/// * `admitted` — demands scheduled now that were not scheduled before
///   (including arrivals of this very batch that got in);
/// * `evicted` — demands still live but no longer scheduled (a demand that
///   left because it *expired* is not listed — its departure is implied by
///   the expiry event itself);
/// * `reassigned` — demands scheduled before and after, but on a different
///   network or start slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleDelta {
    /// The epoch this delta advanced the session to (1-based; a fresh
    /// session is at epoch 0).
    pub epoch: u64,
    /// Tickets assigned to this batch's arrivals, in batch order.
    pub tickets: Vec<DemandTicket>,
    /// Newly scheduled demands, ascending by ticket.
    pub admitted: Vec<ScheduledDemand>,
    /// Live demands that lost their slot, ascending by ticket.
    pub evicted: Vec<DemandTicket>,
    /// Demands whose placement moved, ascending by ticket.
    pub reassigned: Vec<ScheduledDemand>,
    /// Total profit of the standing schedule after the epoch.
    pub profit: f64,
    /// The dual certificate of the standing schedule.
    pub certificate: Certificate,
    /// Epoch bookkeeping.
    pub stats: EpochStats,
}

impl ScheduleDelta {
    /// `true` when the epoch changed nothing in the standing schedule.
    pub fn is_quiet(&self) -> bool {
        self.admitted.is_empty() && self.evicted.is_empty() && self.reassigned.is_empty()
    }
}

/// The demand-free topology a session was opened on. A tree base carries
/// the per-network decompositions every tree core layers with: networks
/// never change, so they are built once per session.
enum BaseProblem {
    Tree(TreeProblem, TreeLayerer),
    Line(LineProblem),
}

impl BaseProblem {
    /// A core over this topology holding `requests` as its demands, in
    /// order — the one place live requests become problem demands. Fails
    /// on a request of the other shape or one the topology rejects.
    fn core<'a>(
        &self,
        requests: impl IntoIterator<Item = &'a DemandRequest>,
    ) -> Result<LiveCore, String> {
        let rejected = |e: GraphError| format!("live demand rejected: {e}");
        match self {
            BaseProblem::Tree(base, layerer) => {
                let mut problem = base.clone();
                for request in requests {
                    let DemandRequest::Tree {
                        u,
                        v,
                        profit,
                        height,
                        access,
                    } = request
                    else {
                        return Err("line request in a tree session".into());
                    };
                    problem
                        .add_demand(*u, *v, *profit, *height, access.clone())
                        .map_err(rejected)?;
                }
                Ok(LiveCore::new_tree(&problem, layerer))
            }
            BaseProblem::Line(base) => {
                let mut problem = base.clone();
                for request in requests {
                    let DemandRequest::Line {
                        release,
                        deadline,
                        processing,
                        profit,
                        height,
                        access,
                    } = request
                    else {
                        return Err("tree request in a line session".into());
                    };
                    problem
                        .add_demand(
                            *release,
                            *deadline,
                            *processing,
                            *profit,
                            *height,
                            access.clone(),
                        )
                        .map_err(rejected)?;
                }
                Ok(LiveCore::new_line(&problem))
            }
        }
    }

    /// Computes the universe splice inputs of a validated arrival batch:
    /// one [`ArrivingDemand`] per request (instances in the canonical
    /// `problem.universe()` enumeration order) and, for tree sessions, the
    /// per-instance layering assignments.
    fn materialize(
        &self,
        arrivals: &[DemandRequest],
    ) -> (Vec<ArrivingDemand>, Vec<TreeAssignments>) {
        let mut arrivings = Vec::with_capacity(arrivals.len());
        let mut assignments = Vec::with_capacity(arrivals.len());
        for request in arrivals {
            let mut instances = Vec::new();
            let mut assigns: TreeAssignments = Vec::new();
            match (self, request) {
                (BaseProblem::Tree(base, layerer), DemandRequest::Tree { u, v, access, .. }) => {
                    for &t in access {
                        let tree = base.network(t);
                        let path = tree.path_edges(*u, *v);
                        assigns.push(layerer.assign(tree, t, *u, *v, &path));
                        instances.push((t, path, None));
                    }
                }
                (
                    BaseProblem::Line(_),
                    DemandRequest::Line {
                        release,
                        deadline,
                        processing,
                        ..
                    },
                ) => {
                    let last_start = deadline + 1 - processing;
                    for &t in request.access() {
                        for start in *release..=last_start {
                            let end = start + processing - 1;
                            instances.push((
                                t,
                                EdgePath::interval(start as usize, end as usize),
                                Some(start),
                            ));
                        }
                    }
                }
                _ => unreachable!("validated requests match the session shape"),
            }
            arrivings.push(ArrivingDemand {
                profit: request.profit(),
                height: request.height(),
                instances,
            });
            assignments.push(assigns);
        }
        (arrivings, assignments)
    }
}

/// One live demand: its stable ticket plus the validated request.
struct LiveDemand {
    ticket: u64,
    request: DemandRequest,
}

/// The lazily created wide/narrow split cores (see
/// [`ServiceSession::step`]): each half mirrors the sub-problem a cached
/// `Scheduler` split would build, maintained incrementally after creation.
struct SplitState {
    wide: LiveCore,
    narrow: LiveCore,
    /// Half demand index → full (current dense) demand id.
    wide_map: Vec<DemandId>,
    narrow_map: Vec<DemandId>,
}

/// Per-layer heap commitment of a session's hot serving structures; see
/// [`ServiceSession::memory_footprint`].
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryFootprint {
    /// Demand/instance columns, paths and the secondary indexes of every
    /// live universe.
    pub universe_bytes: usize,
    /// Sharding index, per-shard CSRs, cross-group arena and splice
    /// scratch of every live sharded conflict graph.
    pub conflict_bytes: usize,
    /// Warm-resolve state: Fenwick duals, the raise-record arena and the
    /// replay stack (0 for cold sessions).
    pub warm_bytes: usize,
}

impl MemoryFootprint {
    /// Total committed bytes across all layers.
    pub fn total_bytes(&self) -> usize {
        self.universe_bytes + self.conflict_bytes + self.warm_bytes
    }
}

/// Pre-resolved handles of the session's hot-path metrics, looked up once
/// per registry so the epoch step records through bare `Arc`'d atomics
/// (no registry lock on the hot path). See the crate docs' metric
/// catalogue for the names.
#[derive(Clone)]
struct SessionMetrics {
    /// `epoch.step_ns` — whole [`ServiceSession::step`] call, the
    /// submit-to-delta admission latency the benches report.
    step_ns: Histogram,
    /// `epoch.validate_ns` — batch validation and partitioning.
    validate_ns: Histogram,
    /// `epoch.journal_ns` — write-ahead journal record (0 when detached).
    journal_ns: Histogram,
    /// `epoch.splice_ns` — universe/layering/warm/split splicing (the
    /// rebuild window minus the conflict shard rebuilds).
    splice_ns: Histogram,
    /// `epoch.conflict_rebuild_ns` — dirty conflict-shard CSR rebuilds.
    conflict_rebuild_ns: Histogram,
    /// `epoch.solve_ns` — the two-phase engine solve.
    solve_ns: Histogram,
    /// `epoch.delta_emit_ns` — schedule diffing and delta assembly.
    delta_emit_ns: Histogram,
    /// `epoch.count` — epochs stepped (including empty fast-path epochs).
    epochs: Counter,
    /// `epoch.quarantined` — batches rolled back by panic quarantine.
    quarantined: Counter,
    /// `engine.mis_rounds` — first-phase MIS/raise rounds executed.
    mis_rounds: Counter,
    /// `engine.raises` — dual raises performed.
    raises: Counter,
    /// `engine.truncated_epochs` — epochs cut by a budget before full
    /// certification.
    truncated_epochs: Counter,
}

impl SessionMetrics {
    fn resolve(obs: &ObsRegistry) -> Self {
        Self {
            step_ns: obs.histogram("epoch.step_ns"),
            validate_ns: obs.histogram("epoch.validate_ns"),
            journal_ns: obs.histogram("epoch.journal_ns"),
            splice_ns: obs.histogram("epoch.splice_ns"),
            conflict_rebuild_ns: obs.histogram("epoch.conflict_rebuild_ns"),
            solve_ns: obs.histogram("epoch.solve_ns"),
            delta_emit_ns: obs.histogram("epoch.delta_emit_ns"),
            epochs: obs.counter("epoch.count"),
            quarantined: obs.counter("epoch.quarantined"),
            mis_rounds: obs.counter("engine.mis_rounds"),
            raises: obs.counter("engine.raises"),
            truncated_epochs: obs.counter("engine.truncated_epochs"),
        }
    }
}

/// A long-lived dynamic scheduling session; see the
/// [module docs](self) for the epoch model and [`crate`] docs for the
/// amortized cost table.
pub struct ServiceSession {
    base: BaseProblem,
    config: AlgorithmConfig,
    resolve: ResolveMode,
    /// The live demands in dense-id order, which is also strictly
    /// ascending ticket order: survivors keep their relative order and
    /// arrivals take fresh, increasing tickets. A ticket's dense id is its
    /// binary-search position.
    live: Vec<LiveDemand>,
    /// Exceeds every ticket ever issued.
    next_ticket: u64,
    full: LiveCore,
    split: Option<SplitState>,
    /// The standing schedule as `(ticket, placement)`, strictly ascending
    /// by ticket.
    schedule: Vec<(u64, Placement)>,
    epoch: u64,
    solved: bool,
    certificate: Certificate,
    profit: f64,
    last: Option<Solution>,
    /// Write-ahead hook called with every validated batch before it
    /// executes; `None` for purely in-memory sessions.
    journal: Option<Box<dyn EpochJournal>>,
    /// `true` when the most recent solve was budget-truncated: unfinished
    /// certification work is pending, so the next epoch must re-solve
    /// even on an empty batch.
    pending_anytime: bool,
    /// Fault-injection hook: epochs whose solve panics deterministically
    /// (see [`ServiceSession::inject_solve_panics`]). Never serialized.
    panic_epochs: Vec<u64>,
    /// The metrics registry every epoch records into (private per session
    /// by default; share one via [`ServiceSession::with_obs`]).
    obs: ObsRegistry,
    /// Hot-path handles resolved from `obs` once.
    metrics: SessionMetrics,
    /// Online EWMA of engine seconds-per-round, fed by **full** solved
    /// epochs only (truncated epochs over-weight fixed per-epoch overhead
    /// and would ratchet the compiled round caps downward — see
    /// `RoundCalibration::observe`); compiles wall-clock deadlines into
    /// deterministic round caps (see
    /// [`ServiceSession::calibrated_budget`]).
    calibration: RoundCalibration,
    /// The wait-free publication point, created lazily by
    /// [`ServiceSession::schedule_view`]. `None` until a reader asks:
    /// sessions that never hand out readers pay nothing on the step path.
    /// Never serialized; carried across a quarantine restore.
    view: Option<ScheduleView>,
}

impl ServiceSession {
    /// Opens a session over a tree problem, adopting its demands as the
    /// initial live set (tickets `0..m` in problem order). The schedule is
    /// computed by the first [`step`](ServiceSession::step).
    pub fn for_tree(problem: &TreeProblem, config: AlgorithmConfig) -> Self {
        let (base, _) = subproblem(problem, |_| false);
        let layerer = TreeLayerer::new(&base, TREE_LAYERING);
        let full = LiveCore::new_tree(problem, &layerer);
        let live: Vec<LiveDemand> = problem
            .demands()
            .iter()
            .map(|d| LiveDemand {
                ticket: d.id.index() as u64,
                request: DemandRequest::Tree {
                    u: d.u,
                    v: d.v,
                    profit: d.profit,
                    height: d.height,
                    access: problem.access(d.id).to_vec(),
                },
            })
            .collect();
        Self::assemble(BaseProblem::Tree(base, layerer), config, live, full)
    }

    /// Opens a session over a line problem; see
    /// [`for_tree`](ServiceSession::for_tree).
    pub fn for_line(problem: &LineProblem, config: AlgorithmConfig) -> Self {
        let full = LiveCore::new_line(problem);
        let live: Vec<LiveDemand> = problem
            .demands()
            .iter()
            .map(|d| LiveDemand {
                ticket: d.id.index() as u64,
                request: DemandRequest::Line {
                    release: d.release,
                    deadline: d.deadline,
                    processing: d.processing,
                    profit: d.profit,
                    height: d.height,
                    access: problem.access(d.id).to_vec(),
                },
            })
            .collect();
        let base = LineProblem::new(problem.timeslots(), problem.num_resources());
        Self::assemble(BaseProblem::Line(base), config, live, full)
    }

    fn assemble(
        base: BaseProblem,
        config: AlgorithmConfig,
        live: Vec<LiveDemand>,
        full: LiveCore,
    ) -> Self {
        let next_ticket = live.len() as u64;
        let obs = ObsRegistry::default();
        let metrics = SessionMetrics::resolve(&obs);
        Self {
            base,
            config,
            resolve: ResolveMode::env_default(),
            live,
            next_ticket,
            full,
            split: None,
            schedule: Vec::new(),
            epoch: 0,
            solved: false,
            certificate: Certificate::default(),
            profit: 0.0,
            last: None,
            journal: None,
            pending_anytime: false,
            panic_epochs: Vec::new(),
            obs,
            metrics,
            calibration: RoundCalibration::new(),
            view: None,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The epochs stepped so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Heap bytes committed by the session's hot serving structures,
    /// broken down by layer and summed over every live core (the full core
    /// plus, when the height mix forced it, the wide/narrow split halves).
    /// Divide by [`live_demands`](ServiceSession::live_demands) for the
    /// bytes/demand figure the scale benchmarks report.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let mut fp = MemoryFootprint::default();
        let mut add = |core: &LiveCore| {
            fp.universe_bytes += core.universe.committed_bytes();
            fp.conflict_bytes += core.conflict.committed_bytes();
            fp.warm_bytes += core.warm_state().map_or(0, WarmState::committed_bytes);
        };
        add(&self.full);
        if let Some(split) = &self.split {
            add(&split.wide);
            add(&split.narrow);
        }
        fp
    }

    /// Pins the session's [`ResolveMode`] explicitly, overriding the
    /// `NETSCHED_RESOLVE_MODE` environment default. Call before the first
    /// [`step`](ServiceSession::step): switching an already-stepped
    /// session is supported (a warm state is simply created — or ignored —
    /// from the next epoch on) but the mode is part of the session's
    /// contract and should not flip mid-stream.
    pub fn with_resolve_mode(mut self, mode: ResolveMode) -> Self {
        self.resolve = mode;
        self
    }

    /// The session's re-solve mode.
    pub fn resolve_mode(&self) -> ResolveMode {
        self.resolve
    }

    /// Records every subsequent epoch's metrics into `obs` instead of the
    /// session's private registry — so a process can aggregate several
    /// sessions (or a session plus its durable wrapper) into one
    /// [`MetricsReport`](netsched_obs::MetricsReport).
    pub fn with_obs(mut self, obs: ObsRegistry) -> Self {
        self.metrics = SessionMetrics::resolve(&obs);
        self.obs = obs;
        self
    }

    /// The metrics registry the session records into. Snapshot it for the
    /// epoch phase breakdown, engine counters and admission-latency
    /// percentiles (see the crate docs' metric catalogue).
    pub fn obs_registry(&self) -> &ObsRegistry {
        &self.obs
    }

    /// The session's online rounds-per-second calibration (primed after
    /// [`RoundCalibration::PRIME_OBSERVATIONS`] solved epochs).
    pub fn calibration(&self) -> &RoundCalibration {
        &self.calibration
    }

    /// Compiles a wall-clock deadline into a [`Budget`] using the online
    /// calibration: once primed, the budget carries a deterministic round
    /// cap (`deadline / EWMA seconds-per-round`) **and** the wall-clock
    /// deadline — whichever binds first cuts the solve, so a mispredicted
    /// rate can overshoot the deadline by at most the engine's
    /// between-checks granularity, while a well-predicted one cuts
    /// deterministically. Before priming this is a plain
    /// [`Budget::deadline`].
    pub fn calibrated_budget(&self, deadline: std::time::Duration) -> Budget {
        match self.calibration.rounds_for(deadline) {
            Some(cap) => Budget::rounds(cap).with_deadline(deadline),
            None => Budget::deadline(deadline),
        }
    }

    /// The run configuration every epoch solves with.
    pub fn config(&self) -> &AlgorithmConfig {
        &self.config
    }

    /// Number of live demands.
    pub fn live_demands(&self) -> usize {
        self.live.len()
    }

    /// The tickets of all live demands, in current dense-id order — which
    /// is strictly ascending ticket order (survivors keep their order,
    /// arrivals take fresh increasing tickets). Allocates `O(live)`.
    pub fn live_tickets(&self) -> Vec<DemandTicket> {
        self.live.iter().map(|d| DemandTicket(d.ticket)).collect()
    }

    /// `true` when the ticket names a live demand (`O(log live)`).
    pub fn is_live(&self, ticket: DemandTicket) -> bool {
        self.dense_id(ticket).is_some()
    }

    /// The current dense demand id of a live ticket: its position in the
    /// ticket-sorted live list.
    fn dense_id(&self, ticket: DemandTicket) -> Option<DemandId> {
        self.live
            .binary_search_by_key(&ticket.0, |d| d.ticket)
            .ok()
            .map(DemandId::new)
    }

    /// The session's current demand-instance universe.
    pub fn universe(&self) -> &DemandInstanceUniverse {
        &self.full.universe
    }

    /// The session's incrementally maintained sharded conflict graph.
    pub fn conflict(&self) -> &ShardedConflictGraph {
        &self.full.conflict
    }

    /// The standing schedule, ascending by ticket.
    pub fn schedule(&self) -> Vec<ScheduledDemand> {
        self.schedule
            .iter()
            .map(|&(t, placement)| ScheduledDemand {
                ticket: DemandTicket(t),
                placement,
            })
            .collect()
    }

    /// Total profit of the standing schedule.
    pub fn profit(&self) -> f64 {
        self.profit
    }

    /// The dual certificate of the standing schedule (zeroed before the
    /// first solved epoch).
    pub fn certificate(&self) -> Certificate {
        self.certificate
    }

    /// The full engine [`Solution`] of the most recent solved epoch (`None`
    /// before the first solve **and** right after
    /// [`from_snapshot`](ServiceSession::from_snapshot), until the next
    /// solved epoch). Instance ids refer to the **current** universe only
    /// as long as no further mutating epoch runs.
    pub fn last_solution(&self) -> Option<&Solution> {
        self.last.as_ref()
    }

    /// The session's wait-free publication point (created on first call):
    /// a [`ScheduleView`] whose [readers](ScheduleView::reader) observe
    /// the last certified schedule with one atomic load per read,
    /// regardless of what the write side is doing. Every subsequent
    /// successful epoch publishes a fresh [`ScheduleSnapshot`] — the
    /// in-flight window between a step starting and publishing is the
    /// only time readers lag, by exactly one epoch (see the
    /// [`view`](crate::view) module docs for the staleness contract).
    ///
    /// The view is shared: cloning the returned handle (or calling this
    /// again) addresses the same slot. Publication costs, per epoch on the
    /// step path, one copy of the ticket-sorted schedule vector plus one
    /// fingerprint pass over it — `O(scheduled)`, no tree rebuild, since
    /// the session already keeps the schedule in ascending ticket order.
    /// Sessions that never call this pay nothing.
    pub fn schedule_view(&mut self) -> ScheduleView {
        if self.view.is_none() {
            let quality = self
                .last
                .as_ref()
                .map(|s| s.diagnostics.quality)
                .unwrap_or(CertificateQuality::Full);
            let snapshot = ScheduleSnapshot::capture(
                self.epoch,
                &self.schedule,
                self.certificate,
                self.profit,
                quality,
            );
            self.view = Some(ScheduleView::new(snapshot, &self.obs));
        }
        self.view.clone().expect("view just ensured")
    }

    /// Attaches a write-ahead [`EpochJournal`]; every subsequent
    /// [`step`](ServiceSession::step) records its validated batch through
    /// it before executing. Replaces any previously attached journal.
    pub fn attach_journal(&mut self, journal: Box<dyn EpochJournal>) {
        self.journal = Some(journal);
    }

    /// Detaches the journal, returning it. Crash recovery replays logged
    /// batches through [`step`](ServiceSession::step) with the journal
    /// detached, so replayed epochs are not re-recorded.
    pub fn detach_journal(&mut self) -> Option<Box<dyn EpochJournal>> {
        self.journal.take()
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Validates an arriving request against the session topology — by
    /// delegating to the **same** `validate_demand` the problem types'
    /// `add_demand` runs, so the admission surface and the constructors
    /// cannot drift apart — without mutating anything.
    pub fn validate_request(&self, request: &DemandRequest) -> Result<(), ServiceError> {
        match (&self.base, request) {
            (
                BaseProblem::Tree(base, _),
                DemandRequest::Tree {
                    u,
                    v,
                    profit,
                    height,
                    access,
                },
            ) => base
                .validate_demand(*u, *v, *profit, *height, access)
                .map_err(|e| ServiceError::InvalidDemand(e.to_string())),
            (
                BaseProblem::Line(base),
                DemandRequest::Line {
                    release,
                    deadline,
                    processing,
                    profit,
                    height,
                    access,
                },
            ) => base
                .validate_demand(*release, *deadline, *processing, *profit, *height, access)
                .map_err(|e| ServiceError::InvalidDemand(e.to_string())),
            (BaseProblem::Tree(..), DemandRequest::Line { .. }) => {
                Err(ServiceError::ShapeMismatch { expected: "tree" })
            }
            (BaseProblem::Line(_), DemandRequest::Tree { .. }) => {
                Err(ServiceError::ShapeMismatch { expected: "line" })
            }
        }
    }

    // ------------------------------------------------------------------
    // The epoch step
    // ------------------------------------------------------------------

    /// Advances the session by one epoch: validates and applies the batch,
    /// rebuilds only the touched shards, re-solves, and returns the delta.
    ///
    /// Validation is all-or-nothing: on `Err` the session is unchanged. An
    /// empty batch on an already-solved session is a true no-op (no
    /// rebuild, no solve — `stats.resolved` is `false`), **unless** a
    /// previous deadline-bounded epoch left truncated work pending — then
    /// the empty step re-solves and finishes the certification.
    pub fn step(&mut self, batch: &[DemandEvent]) -> Result<ScheduleDelta, ServiceError> {
        self.step_inner(batch, &Budget::unlimited())
    }

    /// [`step`](ServiceSession::step) under a cooperative [`Budget`] and
    /// with **per-batch panic isolation**.
    ///
    /// *Deadline-bounded (anytime) admission*: the engine checks the
    /// budget between MIS/raise rounds and cuts when it is exhausted. A
    /// cut epoch still returns a feasible schedule with a valid — merely
    /// weaker — certificate, tagged
    /// [`CertificateQuality::Truncated`] in `stats.quality`; the
    /// unfinished certification work is carried into the session (warm
    /// modes keep the repaired shards pending-dirty) and an un-budgeted
    /// follow-up epoch — even an empty one — reconverges to full
    /// certification.
    ///
    /// *Quarantine*: the step runs under `catch_unwind`. If the solve
    /// panics, the batch is **quarantined** — the session is restored
    /// from its pre-step snapshot (journal re-attached), the call returns
    /// [`ServiceError::Quarantined`], and the session remains fully
    /// operational. The pre-step snapshot costs one serialization of the
    /// session per call; latency-sensitive tiers pay it in exchange for
    /// not losing the session to a poisoned batch. The write-ahead
    /// journal records the batch *before* the solve, so a quarantined
    /// batch leaves a dead record in the log; after the restore a
    /// **rollback tombstone** ([`EpochJournal::record_rollback`]) is
    /// appended so replay skips it. The tombstone is best-effort: if the
    /// append itself fails, the next accepted batch re-uses the same
    /// epoch number and replay lets the *last* record of a duplicated
    /// epoch supersede the dead one (engine panics are not reachable from
    /// validated batches — the hook exists for fault injection).
    pub fn step_with_deadline(
        &mut self,
        batch: &[DemandEvent],
        budget: &Budget,
    ) -> Result<ScheduleDelta, ServiceError> {
        let doc = self.snapshot();
        let pending_anytime = self.pending_anytime;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.step_inner(batch, budget)
        }));
        match outcome {
            Ok(result) => result,
            Err(payload) => {
                let reason = panic_reason(payload.as_ref());
                // The panic may have left the live structures mid-splice:
                // rebuild everything from the pre-step snapshot and carry
                // over what the snapshot does not serialize.
                let journal = self.journal.take();
                let panic_epochs = std::mem::take(&mut self.panic_epochs);
                let view = self.view.take();
                let mut restored =
                    Self::from_snapshot(&doc).expect("pre-step snapshot must round-trip");
                restored.journal = journal;
                restored.panic_epochs = panic_epochs;
                restored.pending_anytime = pending_anytime;
                restored.metrics = self.metrics.clone();
                restored.obs = self.obs.clone();
                restored.calibration = self.calibration;
                restored.view = view;
                *self = restored;
                // The poisoned epoch never published: clear its in-flight
                // bit so readers' staleness returns to zero on the last
                // certified snapshot.
                if let Some(view) = &self.view {
                    view.abort_epoch();
                }
                self.metrics.quarantined.inc();
                // The journal recorded the batch for epoch + 1 before the
                // solve; tombstone it so replay does not resurrect the
                // quarantined batch. Best-effort: a failed tombstone is
                // covered by replay's duplicate-epoch supersede rule.
                let dead_epoch = self.epoch + 1;
                if let Some(journal) = &mut self.journal {
                    let _ = journal.record_rollback(dead_epoch);
                }
                Err(ServiceError::Quarantined { reason })
            }
        }
    }

    /// `true` when the most recent solve was budget-truncated and the
    /// session carries unfinished certification work; the next epoch
    /// re-solves even on an empty batch.
    pub fn anytime_pending(&self) -> bool {
        self.pending_anytime
    }

    /// Arms the fault-injection hook: the solve of each listed epoch (the
    /// 1-based epoch the step would advance the session to) panics with
    /// `"injected solve fault"` before the engine runs. Harness plumbing
    /// for exercising the quarantine path of
    /// [`step_with_deadline`](ServiceSession::step_with_deadline) —
    /// production solves have no panic sites reachable from a validated
    /// batch. Never serialized; survives a quarantine restore.
    pub fn inject_solve_panics(&mut self, epochs: Vec<u64>) {
        self.panic_epochs = epochs;
    }

    fn step_inner(
        &mut self,
        batch: &[DemandEvent],
        budget: &Budget,
    ) -> Result<ScheduleDelta, ServiceError> {
        let step_start = std::time::Instant::now();
        let _step_span = netsched_obs::span!("epoch.step");

        // ---- validate & partition (no mutation before this block ends) --
        let validate_start = std::time::Instant::now();
        let mut arrivals: Vec<DemandRequest> = Vec::new();
        let mut expired: Vec<DemandId> = Vec::new();
        // Per-live-demand expiry marks (sized at the first expiry): an O(1)
        // duplicate check here, and the survivor filter of the live-set
        // bookkeeping below.
        let mut removed: Vec<bool> = Vec::new();
        for event in batch {
            match event {
                DemandEvent::Arrive(request) => {
                    self.validate_request(request)?;
                    arrivals.push(normalize(request.clone()));
                }
                DemandEvent::Expire(ticket) => {
                    let id = self
                        .dense_id(*ticket)
                        .ok_or(ServiceError::UnknownTicket(*ticket))?;
                    removed.resize(self.live.len(), false);
                    if std::mem::replace(&mut removed[id.index()], true) {
                        return Err(ServiceError::DuplicateExpiry(*ticket));
                    }
                    expired.push(id);
                }
            }
        }
        expired.sort_unstable();
        self.metrics
            .validate_ns
            .record_duration(validate_start.elapsed());

        // ---- write-ahead journal (still no mutation) -------------------
        // Every batch — including empty keep-alive ones — is recorded with
        // the epoch it advances the session to, so a log replay reproduces
        // the epoch counter exactly.
        let journal_start = std::time::Instant::now();
        if let Some(journal) = &mut self.journal {
            journal
                .record(self.epoch + 1, batch)
                .map_err(ServiceError::Journal)?;
        }
        let journal_elapsed = journal_start.elapsed();
        let journal_seconds = journal_elapsed.as_secs_f64();
        self.metrics.journal_ns.record_duration(journal_elapsed);

        // ---- mark the epoch in flight ---------------------------------
        // Every early return above leaves the view untouched; from here
        // the step either publishes (success, fast path) or the
        // quarantine wrapper aborts the epoch on the restored session.
        if let Some(view) = &self.view {
            view.begin_epoch(self.epoch + 1);
        }

        // ---- empty-batch fast path ------------------------------------
        // Skipped while truncated work is pending: an empty step is then
        // exactly the "finish the certification" epoch.
        if batch.is_empty() && self.solved && !self.pending_anytime {
            self.epoch += 1;
            if let Some(view) = &self.view {
                view.publish(ScheduleSnapshot::capture(
                    self.epoch,
                    &self.schedule,
                    self.certificate,
                    self.profit,
                    CertificateQuality::Full,
                ));
            }
            self.metrics.epochs.inc();
            self.metrics.step_ns.record_duration(step_start.elapsed());
            return Ok(ScheduleDelta {
                epoch: self.epoch,
                tickets: Vec::new(),
                admitted: Vec::new(),
                evicted: Vec::new(),
                reassigned: Vec::new(),
                profit: self.profit,
                certificate: self.certificate,
                stats: EpochStats {
                    arrivals: 0,
                    expiries: 0,
                    dirty_shards: 0,
                    num_shards: self.full.conflict.num_shards(),
                    live_demands: self.live.len(),
                    instances: self.full.universe.num_instances(),
                    resolved: false,
                    warm_resolve: false,
                    rebuild_seconds: 0.0,
                    solve_seconds: 0.0,
                    journal_seconds,
                    quality: CertificateQuality::Full,
                },
            });
        }

        // ---- splice the full core -------------------------------------
        let rebuild_start = std::time::Instant::now();
        let rebuild_span = netsched_obs::span!("epoch.rebuild");
        let (arrivings, assignments) = self.base.materialize(&arrivals);
        let dirty_shards = self.full.apply(&expired, &arrivings, assignments.concat());

        // ---- live-set bookkeeping -------------------------------------
        // Survivors keep their order and arrivals take fresh, increasing
        // tickets, so `live` stays strictly ascending by ticket.
        removed.resize(self.live.len(), false);
        let mut marks = removed.iter();
        self.live.retain(|_| marks.next() == Some(&false));
        let mut new_tickets: Vec<DemandTicket> = Vec::with_capacity(arrivals.len());
        for request in &arrivals {
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            new_tickets.push(DemandTicket(ticket));
            self.live.push(LiveDemand {
                ticket,
                request: request.clone(),
            });
        }

        // ---- wide/narrow split maintenance ----------------------------
        let rule = self.uniform_rule();
        let mut conflict_ns = self.full.conflict_rebuild_ns;
        if self.split.is_some() {
            self.update_split(&removed, &arrivals, &arrivings, &assignments);
            let split = self.split.as_ref().expect("split just updated");
            conflict_ns += split.wide.conflict_rebuild_ns + split.narrow.conflict_rebuild_ns;
        } else if rule.is_none() {
            self.split = Some(self.build_split());
        }

        // ---- solve -----------------------------------------------------
        let rebuild_elapsed = rebuild_start.elapsed();
        drop(rebuild_span);
        let rebuild_seconds = rebuild_elapsed.as_secs_f64();
        let rebuild_ns = rebuild_elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.metrics.conflict_rebuild_ns.record(conflict_ns);
        self.metrics
            .splice_ns
            .record(rebuild_ns.saturating_sub(conflict_ns));
        let solve_start = std::time::Instant::now();
        let solve_span = netsched_obs::span!("epoch.solve");
        if self.panic_epochs.contains(&(self.epoch + 1)) {
            panic!("injected solve fault at epoch {}", self.epoch + 1);
        }
        // One dispatch for every core: a warm resume or a cold solve.
        let warm = self.resolve == ResolveMode::Warm;
        let config = &self.config;
        let solve = |core: &mut LiveCore, rule: RaiseRule| {
            if warm {
                core.solve_warm(rule, config, budget)
            } else {
                core.solve(rule, config, budget)
            }
        };
        let solution = if self.live.is_empty() {
            Solution::empty()
        } else if let Some(rule) = rule {
            solve(&mut self.full, rule)
        } else {
            // Theorems 6.3 / 7.2: the unit rule on the wide half, then the
            // narrow rule on the narrow half, both charged to the same
            // budget; the better schedule per network is kept.
            let split = self.split.as_mut().expect("split exists when mixed");
            let wide_solution = solve(&mut split.wide, RaiseRule::Unit);
            let narrow_solution = solve(&mut split.narrow, RaiseRule::Narrow);
            combine_wide_narrow(
                &self.full.universe,
                HalfOutcome {
                    universe: &split.wide.universe,
                    demand_map: &split.wide_map,
                    solution: wide_solution,
                },
                HalfOutcome {
                    universe: &split.narrow.universe,
                    demand_map: &split.narrow_map,
                    solution: narrow_solution,
                },
            )
        };
        let solve_elapsed = solve_start.elapsed();
        drop(solve_span);
        let solve_seconds = solve_elapsed.as_secs_f64();
        self.metrics.solve_ns.record_duration(solve_elapsed);

        // ---- delta extraction -----------------------------------------
        let delta_start = std::time::Instant::now();
        // The new schedule in dense-demand order, which is ticket order.
        let mut placed: Vec<Option<Placement>> = vec![None; self.live.len()];
        for &d in &solution.selected {
            let inst = self.full.universe.instance(d);
            placed[inst.demand.index()] = Some(Placement {
                network: inst.network,
                start: inst.start,
            });
        }
        let new_schedule: Vec<(u64, Placement)> = self
            .live
            .iter()
            .zip(placed)
            .filter_map(|(d, placement)| Some((d.ticket, placement?)))
            .collect();
        // One merge walk of the old and new ticket-sorted schedules.
        let mut admitted = Vec::new();
        let mut reassigned = Vec::new();
        let mut unscheduled = Vec::new();
        let mut old = self.schedule.iter().peekable();
        for &(ticket, placement) in &new_schedule {
            while let Some(&(gone, _)) = old.next_if(|&&(t, _)| t < ticket) {
                unscheduled.push(DemandTicket(gone));
            }
            let scheduled = ScheduledDemand {
                ticket: DemandTicket(ticket),
                placement,
            };
            match old.next_if(|&&(t, _)| t == ticket) {
                None => admitted.push(scheduled),
                Some(&(_, before)) if before != placement => reassigned.push(scheduled),
                Some(_) => {}
            }
        }
        unscheduled.extend(old.map(|&(t, _)| DemandTicket(t)));
        // A demand that left because it expired is not evicted.
        let evicted: Vec<DemandTicket> = unscheduled
            .into_iter()
            .filter(|&t| self.is_live(t))
            .collect();

        self.schedule = new_schedule;
        self.profit = solution.profit;
        self.certificate = Certificate {
            optimum_upper_bound: solution.diagnostics.optimum_upper_bound,
            lambda: solution.diagnostics.lambda,
            dual_objective: solution.diagnostics.dual_objective,
        };
        self.solved = true;
        self.pending_anytime = solution.diagnostics.quality.is_truncated();
        self.epoch += 1;
        let quality = solution.diagnostics.quality;
        self.metrics.epochs.inc();
        self.metrics.mis_rounds.add(solution.diagnostics.steps);
        self.metrics.raises.add(solution.diagnostics.raised);
        if quality.is_truncated() {
            self.metrics.truncated_epochs.inc();
        }
        // Only full solves are rate samples. A truncated epoch's few
        // rounds carry the epoch's whole fixed overhead, so its
        // seconds-per-round reads high; feeding it would shrink the next
        // compiled cap, truncate earlier, and ratchet the caps toward the
        // floor (reproduced by `budget::tests::
        // truncated_samples_ratchet_compiled_caps_downward`).
        if quality.is_full() {
            self.calibration
                .observe(solution.diagnostics.steps, solve_seconds);
        }
        if let Some(view) = &self.view {
            view.publish(ScheduleSnapshot::capture(
                self.epoch,
                &self.schedule,
                self.certificate,
                self.profit,
                quality,
            ));
        }
        self.last = Some(solution);
        self.metrics
            .delta_emit_ns
            .record_duration(delta_start.elapsed());
        self.metrics.step_ns.record_duration(step_start.elapsed());

        Ok(ScheduleDelta {
            epoch: self.epoch,
            tickets: new_tickets,
            admitted,
            evicted,
            reassigned,
            profit: self.profit,
            certificate: self.certificate,
            stats: EpochStats {
                arrivals: arrivals.len(),
                expiries: expired.len(),
                dirty_shards,
                num_shards: self.full.conflict.num_shards(),
                live_demands: self.live.len(),
                instances: self.full.universe.num_instances(),
                resolved: true,
                warm_resolve: warm && !self.live.is_empty(),
                rebuild_seconds,
                solve_seconds,
                journal_seconds,
                quality,
            },
        })
    }

    /// Splices the epoch's (already full-core-applied) delta through the
    /// existing split cores: each half receives the expiries (`removed`,
    /// indexed by pre-epoch dense id) and arrivals of its height class,
    /// and the half→full demand maps are renumbered through the full
    /// core's demand remap.
    fn update_split(
        &mut self,
        removed: &[bool],
        arrivals: &[DemandRequest],
        arrivings: &[ArrivingDemand],
        assignments: &[TreeAssignments],
    ) {
        let split = self.split.as_mut().expect("caller checked");
        // Old dense id → new dense id for survivors (u32::MAX = expired);
        // mirrors the universe's demand renumbering.
        let mut demand_remap = vec![u32::MAX; removed.len()];
        let mut survivors = 0u32;
        for (remap, &gone) in demand_remap.iter_mut().zip(removed) {
            if !gone {
                *remap = survivors;
                survivors += 1;
            }
        }

        for wide_half in [true, false] {
            let (core, map) = if wide_half {
                (&mut split.wide, &mut split.wide_map)
            } else {
                (&mut split.narrow, &mut split.narrow_map)
            };
            // Expired positions within this half, in half order.
            let half_expired: Vec<DemandId> = map
                .iter()
                .enumerate()
                .filter(|&(_, full_id)| removed[full_id.index()])
                .map(|(i, _)| DemandId::new(i))
                .collect();
            // This half's arrivals, in batch order.
            let mut half_arrivings: Vec<ArrivingDemand> = Vec::new();
            let mut half_assignments: TreeAssignments = Vec::new();
            let mut half_new_full: Vec<DemandId> = Vec::new();
            for (i, ((request, arriving), assigns)) in
                arrivals.iter().zip(arrivings).zip(assignments).enumerate()
            {
                if request.is_wide() == wide_half {
                    half_arrivings.push(arriving.clone());
                    half_assignments.extend(assigns.iter().cloned());
                    half_new_full.push(DemandId(survivors + i as u32));
                }
            }
            core.apply(&half_expired, &half_arrivings, half_assignments);
            // Renumber the half → full map and append the new arrivals.
            let old_map = std::mem::take(map);
            *map = old_map
                .into_iter()
                .filter_map(|full_id| match demand_remap[full_id.index()] {
                    u32::MAX => None,
                    new => Some(DemandId(new)),
                })
                .collect();
            map.extend(half_new_full);
        }
    }

    /// The raise rule the whole live set solves under — [`RaiseRule::Unit`]
    /// when no demand is narrow, [`RaiseRule::Narrow`] when none is wide —
    /// or `None` when the height mix is mixed and the wide/narrow split
    /// solves the epoch.
    fn uniform_rule(&self) -> Option<RaiseRule> {
        let any_wide = self.live.iter().any(|d| d.request.is_wide());
        let any_narrow = self.live.iter().any(|d| !d.request.is_wide());
        match (any_wide, any_narrow) {
            (true, true) => None,
            (false, true) => Some(RaiseRule::Narrow),
            _ => Some(RaiseRule::Unit),
        }
    }

    /// Builds the split cores from scratch over the current live set — the
    /// one-time cost paid on the first epoch whose height mix is mixed
    /// (identical to what a fresh `Scheduler`'s split caches would hold).
    fn build_split(&self) -> SplitState {
        let half = |wide: bool| {
            let (map, requests): (Vec<DemandId>, Vec<&DemandRequest>) = self
                .live
                .iter()
                .enumerate()
                .filter(|(_, d)| d.request.is_wide() == wide)
                .map(|(i, d)| (DemandId::new(i), &d.request))
                .unzip();
            let core = self.base.core(requests).expect("live demands are valid");
            (core, map)
        };
        let (wide, wide_map) = half(true);
        let (narrow, narrow_map) = half(false);
        SplitState {
            wide,
            narrow,
            wide_map,
            narrow_map,
        }
    }

    // ------------------------------------------------------------------
    // Durability: compaction, snapshot, restore
    // ------------------------------------------------------------------

    /// Warm replay stacks larger than this factor × live instances are
    /// shed by [`compact`](ServiceSession::compact).
    pub const STACK_MASS_FACTOR: usize = 8;

    /// The lifecycle/compaction policy of the durable serving tier, run
    /// before every snapshot (and callable on its own):
    ///
    /// * the wide/narrow **split cores are dropped** once the live height
    ///   mix is no longer mixed — they are stale caches at that point, and
    ///   [`step`](ServiceSession::step) rebuilds byte-identical ones if
    ///   the mix turns mixed again;
    /// * a **warm state is reset** when its replay stack mass exceeds
    ///   [`STACK_MASS_FACTOR`](Self::STACK_MASS_FACTOR) × live instances —
    ///   long-lived sessions otherwise accumulate stack entries from
    ///   churned-away epochs without bound. Resetting is certificate-safe:
    ///   the next warm solve re-primes from zero duals (a cold re-epoch)
    ///   and certifies like any fresh state.
    pub fn compact(&mut self) -> CompactionReport {
        let mut report = CompactionReport::default();
        if self.split.is_some() && self.uniform_rule().is_some() {
            self.split = None;
            report.split_dropped = true;
        }
        let mut shed = |core: &mut LiveCore| {
            let cap = Self::STACK_MASS_FACTOR * core.universe.num_instances().max(1);
            if core.warm_state().is_some_and(|w| w.stack_mass() > cap) {
                core.set_warm_state(None);
                report.warm_states_shed += 1;
            }
        };
        shed(&mut self.full);
        if let Some(split) = &mut self.split {
            shed(&mut split.wide);
            shed(&mut split.narrow);
        }
        report
    }

    /// Serializes the session as a versioned snapshot document: base
    /// topology, live ticket table (dense order), resolve mode, epoch
    /// counter, standing schedule + certificate, and every core's
    /// persisted [`WarmState`]. The split cores themselves are **not**
    /// serialized — [`from_snapshot`](ServiceSession::from_snapshot)
    /// rebuilds them from the live set (byte-identical by the session's
    /// differential invariant) — only their warm states travel. The
    /// `last` engine solution is transient telemetry and is not captured.
    pub fn snapshot(&self) -> JsonValue {
        let (shape, base) = match &self.base {
            BaseProblem::Tree(p, _) => ("tree", p.to_json()),
            BaseProblem::Line(p) => ("line", p.to_json()),
        };
        let live = JsonValue::Array(
            self.live
                .iter()
                .map(|d| {
                    JsonValue::Array(vec![JsonValue::u64_value(d.ticket), d.request.to_json()])
                })
                .collect(),
        );
        let schedule = JsonValue::Array(
            self.schedule
                .iter()
                .map(|&(t, p)| JsonValue::Array(vec![JsonValue::u64_value(t), p.to_json()]))
                .collect(),
        );
        let warm_or_null = |core: &LiveCore| {
            core.warm_state()
                .map(ToJson::to_json)
                .unwrap_or(JsonValue::Null)
        };
        JsonValue::object(vec![
            ("format", JsonValue::int(SNAPSHOT_FORMAT_VERSION as usize)),
            ("shape", JsonValue::String(shape.into())),
            ("base", base),
            ("config", self.config.to_json()),
            ("resolve", self.resolve.to_json()),
            ("live", live),
            ("next_ticket", JsonValue::u64_value(self.next_ticket)),
            ("epoch", JsonValue::u64_value(self.epoch)),
            ("solved", JsonValue::Bool(self.solved)),
            ("schedule", schedule),
            ("profit", JsonValue::num(self.profit)),
            ("certificate", self.certificate.to_json()),
            ("full_warm", warm_or_null(&self.full)),
            (
                "split",
                match &self.split {
                    None => JsonValue::Null,
                    Some(s) => JsonValue::object(vec![
                        ("wide_warm", warm_or_null(&s.wide)),
                        ("narrow_warm", warm_or_null(&s.narrow)),
                    ]),
                },
            ),
        ])
    }

    /// Reconstructs a session from a [`snapshot`](ServiceSession::snapshot)
    /// document: the base topology plus the live requests (in recorded
    /// dense order) rebuild every core through the same request-to-core
    /// builder the split uses — so the restored universe, conflict CSRs and
    /// layerings are byte-identical to the uninterrupted session's — and
    /// the recorded tickets, counters, schedule, certificate and warm
    /// states are installed on top. Warm states are validated against the
    /// rebuilt universes before installation. The cores' conflict-graph
    /// generations are advanced past the recovered epoch so a cache keyed
    /// by [`ShardedConflictGraph::generation`] can never alias a pre-crash
    /// graph.
    pub fn from_snapshot(doc: &JsonValue) -> Result<Self, String> {
        let format = doc.field("format")?.as_u32()?;
        if format != SNAPSHOT_FORMAT_VERSION {
            return Err(format!(
                "unsupported snapshot format {format} (this build reads {SNAPSHOT_FORMAT_VERSION})"
            ));
        }
        let config = AlgorithmConfig::from_json(doc.field("config")?)?;
        let resolve = ResolveMode::from_json(doc.field("resolve")?)?;
        let live: Vec<LiveDemand> = doc
            .field("live")?
            .as_array()?
            .iter()
            .map(|entry| {
                let entry = entry.as_array()?;
                if entry.len() != 2 {
                    return Err("live entries are [ticket, request] pairs".to_string());
                }
                Ok(LiveDemand {
                    ticket: entry[0].as_u64()?,
                    request: normalize(DemandRequest::from_json(&entry[1])?),
                })
            })
            .collect::<Result<_, String>>()?;
        // Ticket lookups binary-search the live list, so its dense order
        // must be strictly ascending ticket order.
        if live.windows(2).any(|pair| pair[0].ticket >= pair[1].ticket) {
            return Err("snapshot live tickets are not strictly ascending".into());
        }
        let base = match doc.field("shape")?.as_str()? {
            "tree" => {
                let base = TreeProblem::from_json(doc.field("base")?)?;
                let layerer = TreeLayerer::new(&base, TREE_LAYERING);
                BaseProblem::Tree(base, layerer)
            }
            "line" => BaseProblem::Line(LineProblem::from_json(doc.field("base")?)?),
            other => return Err(format!("unknown session shape `{other}`")),
        };
        let full = base
            .core(live.iter().map(|d| &d.request))
            .map_err(|e| format!("snapshot {e}"))?;
        let mut session = Self::assemble(base, config, live, full);
        session.resolve = resolve;
        session.next_ticket = doc.field("next_ticket")?.as_u64()?;
        if session
            .live
            .last()
            .is_some_and(|d| d.ticket >= session.next_ticket)
        {
            return Err("snapshot next_ticket does not exceed every live ticket".into());
        }
        session.epoch = doc.field("epoch")?.as_u64()?;
        session.solved = match doc.field("solved")? {
            JsonValue::Bool(b) => *b,
            other => return Err(format!("expected boolean `solved`, got {}", other.render())),
        };
        session.schedule = doc
            .field("schedule")?
            .as_array()?
            .iter()
            .map(|entry| {
                let entry = entry.as_array()?;
                if entry.len() != 2 {
                    return Err("schedule entries are [ticket, placement] pairs".to_string());
                }
                Ok((entry[0].as_u64()?, Placement::from_json(&entry[1])?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if session
            .schedule
            .windows(2)
            .any(|pair| pair[0].0 >= pair[1].0)
        {
            return Err("snapshot schedule tickets are not strictly ascending".into());
        }
        for &(ticket, _) in &session.schedule {
            if !session.is_live(DemandTicket(ticket)) {
                return Err(format!("scheduled ticket t{ticket} is not live"));
            }
        }
        session.profit = doc.field("profit")?.as_f64()?;
        session.certificate = Certificate::from_json(doc.field("certificate")?)?;
        match doc.field("full_warm")? {
            JsonValue::Null => {}
            warm_doc => {
                let warm = WarmState::from_json(warm_doc)?;
                warm.validate_shape(&session.full.universe)?;
                session.full.set_warm_state(Some(warm));
            }
        }
        if session.uniform_rule().is_none() {
            let mut split = session.build_split();
            let split_doc = doc.field("split")?;
            if !matches!(split_doc, JsonValue::Null) {
                for (key, core) in [
                    ("wide_warm", &mut split.wide),
                    ("narrow_warm", &mut split.narrow),
                ] {
                    match split_doc.field(key)? {
                        JsonValue::Null => {}
                        warm_doc => {
                            let warm = WarmState::from_json(warm_doc)?;
                            warm.validate_shape(&core.universe)?;
                            core.set_warm_state(Some(warm));
                        }
                    }
                }
            }
            session.split = Some(split);
        }
        session.full.conflict.advance_generation(session.epoch);
        if let Some(split) = &mut session.split {
            split.wide.conflict.advance_generation(session.epoch);
            split.narrow.conflict.advance_generation(session.epoch);
        }
        Ok(session)
    }
}

/// A panic payload as text (the message of `panic!` with a literal or a
/// format string).
pub(crate) fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Sorts and deduplicates the access set, mirroring `add_demand`.
fn normalize(mut request: DemandRequest) -> DemandRequest {
    match &mut request {
        DemandRequest::Tree { access, .. } | DemandRequest::Line { access, .. } => {
            access.sort_unstable();
            access.dedup();
        }
    }
    request
}

impl std::fmt::Debug for ServiceSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceSession")
            .field("epoch", &self.epoch)
            .field("live_demands", &self.live.len())
            .field("instances", &self.full.universe.num_instances())
            .field("scheduled", &self.schedule.len())
            .field("profit", &self.profit)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DemandEvent;
    use netsched_graph::VertexId;

    fn line_problem() -> LineProblem {
        let mut p = LineProblem::new(24, 2);
        let acc = vec![NetworkId::new(0), NetworkId::new(1)];
        for (release, len, profit) in [(0u32, 4u32, 3.0), (2, 5, 2.0), (8, 3, 4.0), (14, 6, 1.5)] {
            p.add_demand(release, release + len + 2, len, profit, 1.0, acc.clone())
                .unwrap();
        }
        p
    }

    #[test]
    fn resolve_mode_parses_and_defaults_cold() {
        assert_eq!(ResolveMode::parse("warm"), Some(ResolveMode::Warm));
        assert_eq!(ResolveMode::parse("WARM"), Some(ResolveMode::Warm));
        assert_eq!(ResolveMode::parse("cold"), Some(ResolveMode::Cold));
        assert_eq!(ResolveMode::parse("tepid"), None);
        assert_eq!(ResolveMode::default(), ResolveMode::Cold);
    }

    #[test]
    fn first_warm_epoch_matches_the_cold_engine_exactly() {
        // A fresh warm state replays the cold engine's step sequence, so
        // epoch 1 of a Warm session is bit-identical to a Cold session's.
        let problem = line_problem();
        let config = AlgorithmConfig::deterministic(0.1);
        let mut cold =
            ServiceSession::for_line(&problem, config).with_resolve_mode(ResolveMode::Cold);
        let mut warm =
            ServiceSession::for_line(&problem, config).with_resolve_mode(ResolveMode::Warm);
        assert_eq!(warm.resolve_mode(), ResolveMode::Warm);
        let dc = cold.step(&[]).unwrap();
        let dw = warm.step(&[]).unwrap();
        assert!(dw.stats.warm_resolve);
        assert!(!dc.stats.warm_resolve);
        assert_eq!(dc.profit, dw.profit);
        assert_eq!(dc.admitted, dw.admitted);
        assert_eq!(dc.certificate, dw.certificate);
    }

    #[test]
    fn warm_sessions_recover_after_expiring_everything() {
        let problem = line_problem();
        let config = AlgorithmConfig::deterministic(0.1);
        let mut session =
            ServiceSession::for_line(&problem, config).with_resolve_mode(ResolveMode::Warm);
        session.step(&[]).unwrap();
        let everyone: Vec<DemandEvent> = session
            .live_tickets()
            .into_iter()
            .map(DemandEvent::Expire)
            .collect();
        let delta = session.step(&everyone).unwrap();
        assert_eq!(delta.profit, 0.0);
        let delta = session
            .step(&[DemandEvent::Arrive(DemandRequest::Line {
                release: 0,
                deadline: 10,
                processing: 4,
                profit: 5.0,
                height: 1.0,
                access: vec![NetworkId::new(0)],
            })])
            .unwrap();
        assert_eq!(delta.admitted.len(), 1);
        assert!(delta.certificate.optimum_upper_bound + 1e-9 >= delta.profit);
        assert!(delta.certificate.lambda >= 0.9 - 1e-6);
    }

    #[test]
    fn warm_sessions_survive_height_mix_transitions() {
        // All-wide -> mixed (split cores, per-half warm states) -> back to
        // a single class: every transition resets or re-primes the warm
        // states without losing the certificate.
        let mut p = TreeProblem::new(6);
        let t = p
            .add_network(vec![
                (VertexId(0), VertexId(1)),
                (VertexId(1), VertexId(2)),
                (VertexId(2), VertexId(3)),
                (VertexId(2), VertexId(4)),
                (VertexId(4), VertexId(5)),
            ])
            .unwrap();
        p.add_unit_demand(VertexId(0), VertexId(3), 3.0, vec![t])
            .unwrap();
        p.add_unit_demand(VertexId(1), VertexId(5), 2.0, vec![t])
            .unwrap();
        let config = AlgorithmConfig::deterministic(0.1);
        let mut session = ServiceSession::for_tree(&p, config).with_resolve_mode(ResolveMode::Warm);
        session.step(&[]).unwrap();

        // A narrow arrival forces the wide/narrow split path.
        let delta = session
            .step(&[DemandEvent::Arrive(DemandRequest::Tree {
                u: VertexId(3),
                v: VertexId(5),
                profit: 1.0,
                height: 0.3,
                access: vec![t],
            })])
            .unwrap();
        assert!(delta.certificate.optimum_upper_bound + 1e-9 >= delta.profit);
        let narrow_ticket = delta.tickets[0];

        // Expiring the narrow demand returns to the all-wide full-core path.
        let delta = session.step(&[DemandEvent::Expire(narrow_ticket)]).unwrap();
        assert!(delta.certificate.lambda >= 0.9 - 1e-6);
        assert!(delta.certificate.optimum_upper_bound + 1e-9 >= delta.profit);
        assert!(session.profit() > 0.0);
    }
}
