//! The synchronous epoch engine: [`ServiceSession`] and its
//! [`ScheduleDelta`] output.
//!
//! # Epoch model
//!
//! A session owns a **mutable** solving state — live demand set, universe,
//! conflict degrees, layerings, (lazily) the wide/narrow split — and
//! advances it one *epoch* at a time: [`ServiceSession::step`] takes a
//! batch of [`DemandEvent`]s, splices them through every cached structure,
//! re-solves with the two-phase engine, and returns a
//! [`ScheduleDelta`] describing only what changed. The invariant
//! maintained by every epoch (and pinned by `tests/dynamic_equivalence.rs`)
//! is:
//!
//! > after any event sequence, the session's conflict degrees and the
//! > conflicts among its instances equal, and its schedule and certificate
//! > equal, those of a from-scratch
//! > [`Scheduler`](netsched_core::Scheduler) built over the surviving
//! > demand set,
//!
//! compared through a dense relabel of the session's ids (they are
//! stable slots with tombstones; see `tests/common::dense_universe`).

use std::sync::Arc;

use netsched_core::{
    combine_wide_narrow, subproblem, AlgorithmConfig, Budget, CertificateQuality, HalfOutcome,
    RaiseRule, RoundCalibration, Solution, WarmState,
};
use netsched_decomp::TreeLayerer;
use netsched_distrib::ShardedConflictGraph;
use netsched_graph::{
    reserve_slots, ArrivingDemand, DemandId, DemandInstanceUniverse, EdgePath, GraphError,
    InstanceId, LineProblem, NetworkId, TreeProblem,
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
///   anchor** exactly: schedule, certificate and conflict degrees match a
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
/// epoch; choose `Cold` when downstream consumers diff schedules against a
/// reference solver.
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
    /// Tombstoned instance slots of the full universe reclaimed by the
    /// id compaction (0 when it held none).
    pub tombstones_reclaimed: usize,
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
    /// Shards whose conflict degrees were updated (dirty networks of the
    /// splice).
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

/// The topology a session serves: its demand-free networks (and, for
/// trees, their cached decompositions). It never changes during a
/// session, so the snapshot splits into this part and the session state
/// ([`ServiceSession::state_snapshot`]). The durable tier writes it once
/// per directory and restores every state document against one parsed
/// copy through [`ServiceSession::from_state`]. Cloning is cheap: clones
/// share one topology.
///
/// Its JSON document is the `format`, `shape` and `base` members of a
/// [`snapshot`](ServiceSession::snapshot), so [`FromJson`] also reads the
/// topology out of a whole snapshot.
#[derive(Clone)]
pub struct SessionTopology(Arc<BaseProblem>);

impl ToJson for SessionTopology {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("format", JsonValue::int(SNAPSHOT_FORMAT_VERSION as usize)),
            ("shape", JsonValue::String(self.0.shape().into())),
            ("base", self.0.problem_json()),
        ])
    }
}

impl FromJson for SessionTopology {
    fn from_json(doc: &JsonValue) -> Result<Self, String> {
        check_format(doc)?;
        let base = match doc.field("shape")?.as_str()? {
            "tree" => {
                let base = TreeProblem::from_json(doc.field("base")?)?;
                let layerer = TreeLayerer::new(&base, TREE_LAYERING);
                BaseProblem::Tree(base, layerer)
            }
            "line" => BaseProblem::Line(LineProblem::from_json(doc.field("base")?)?),
            other => return Err(format!("unknown session shape `{other}`")),
        };
        Ok(Self(Arc::new(base)))
    }
}

/// Rejects a snapshot or topology document of another format version.
fn check_format(doc: &JsonValue) -> Result<(), String> {
    let format = doc.field("format")?.as_u32()?;
    if format != SNAPSHOT_FORMAT_VERSION {
        return Err(format!(
            "unsupported snapshot format {format} (this build reads {SNAPSHOT_FORMAT_VERSION})"
        ));
    }
    Ok(())
}

impl BaseProblem {
    fn shape(&self) -> &'static str {
        match self {
            BaseProblem::Tree(..) => "tree",
            BaseProblem::Line(_) => "line",
        }
    }

    fn problem_json(&self) -> JsonValue {
        match self {
            BaseProblem::Tree(p, _) => p.to_json(),
            BaseProblem::Line(p) => p.to_json(),
        }
    }

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

    /// Builds the split cores from scratch over `live` — the one-time
    /// cost paid on the first epoch whose height mix is mixed (identical
    /// to what a fresh `Scheduler`'s split caches would hold).
    fn split(&self, live: &[LiveDemand]) -> SplitState {
        let (wide_map, narrow_map) = SplitState::maps(live);
        let half = |map: &[DemandId]| {
            let requests = map.iter().map(|&a| live[a.index()].request());
            self.core(requests).expect("live demands are valid")
        };
        SplitState {
            wide: half(&wide_map),
            narrow: half(&narrow_map),
            wide_map,
            narrow_map,
        }
    }

    /// Every core over `live` (which must hold no tombstones), built from
    /// scratch without warm states: the full core and, when the height mix
    /// is mixed, the split. By the session's differential invariant these
    /// are byte-identical to the incrementally maintained cores of a
    /// session over the same live set, relabelled.
    fn cores(&self, live: &[LiveDemand]) -> Result<(LiveCore, Option<SplitState>), String> {
        let full = self.core(live.iter().map(LiveDemand::request))?;
        let split = HeightMix::of(live)
            .rule()
            .is_none()
            .then(|| self.split(live));
        Ok((full, split))
    }
}

/// Live wide and narrow demands, kept current per arrival and expiry (the
/// session checks them against a recount in debug builds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct HeightMix {
    wide: usize,
    narrow: usize,
}

impl HeightMix {
    /// Counts the live entries of `live` (`O(live)`).
    fn of(live: &[LiveDemand]) -> Self {
        let mut mix = Self::default();
        for request in live.iter().filter_map(|d| d.request.as_ref()) {
            mix.count(request, true);
        }
        mix
    }

    /// Counts one request in (`arrives`) or out.
    fn count(&mut self, request: &DemandRequest, arrives: bool) {
        let side = if request.is_wide() {
            &mut self.wide
        } else {
            &mut self.narrow
        };
        if arrives {
            *side += 1;
        } else {
            *side -= 1;
        }
    }

    /// The raise rule a live set with this mix solves under —
    /// [`RaiseRule::Unit`] when no demand is narrow, [`RaiseRule::Narrow`]
    /// when none is wide — or `None` when the mix is mixed and the
    /// wide/narrow split solves the epoch.
    fn rule(self) -> Option<RaiseRule> {
        match (self.wide > 0, self.narrow > 0) {
            (true, true) => None,
            (false, true) => Some(RaiseRule::Narrow),
            _ => Some(RaiseRule::Unit),
        }
    }

    fn live(self) -> usize {
        self.wide + self.narrow
    }
}

/// An instance named so that it survives a rebuild of the cores: its
/// demand's ticket, its network and its start.
type InstanceKey = (u64, NetworkId, Option<u32>);

/// A solution's selected and raised instances as [`InstanceKey`]s.
type SolutionKeys = (Vec<InstanceKey>, Vec<InstanceKey>);

/// One entry of the live list: a demand's stable ticket plus its validated
/// request, or `None` once it expired (a tombstone kept until the next
/// id compaction, so positions stay the full universe's demand ids).
#[derive(Clone)]
struct LiveDemand {
    ticket: u64,
    request: Option<DemandRequest>,
}

impl LiveDemand {
    /// The request of a live entry.
    fn request(&self) -> &DemandRequest {
        self.request.as_ref().expect("a live entry has a request")
    }
}

/// The lazily created wide/narrow split cores (see
/// [`ServiceSession::step`]): each half mirrors the sub-problem a cached
/// `Scheduler` split would build, maintained incrementally after creation.
/// A half's demand ids ascend with their full ids, so each map is sorted
/// (a full id's half id is its position), and after a joint id compaction
/// the maps are the live list's wide and narrow entries in order.
struct SplitState {
    wide: LiveCore,
    narrow: LiveCore,
    /// Half demand id → full demand id (a half's tombstones keep their
    /// entries), ascending.
    wide_map: Vec<DemandId>,
    narrow_map: Vec<DemandId>,
}

impl SplitState {
    /// The half → full maps of a live list: its wide and its narrow live
    /// entries' positions, in order.
    fn maps(live: &[LiveDemand]) -> (Vec<DemandId>, Vec<DemandId>) {
        let (mut wide, mut narrow) = (Vec::new(), Vec::new());
        for (i, d) in live.iter().enumerate() {
            match &d.request {
                Some(request) if request.is_wide() => wide.push(DemandId::new(i)),
                Some(_) => narrow.push(DemandId::new(i)),
                None => {}
            }
        }
        (wide, narrow)
    }
}

/// Per-layer heap commitment of a session's hot serving structures; see
/// [`ServiceSession::memory_footprint`].
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryFootprint {
    /// Demand/instance columns, paths and the secondary indexes of every
    /// live universe.
    pub universe_bytes: usize,
    /// Sharding index, per-shard conflict-degree columns and sweep
    /// buffers of every live core.
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
    /// rebuild window minus the conflict-degree upkeep).
    splice_ns: Histogram,
    /// `epoch.conflict_rebuild_ns` — dirty shards' conflict-degree upkeep.
    conflict_rebuild_ns: Histogram,
    /// `epoch.compact_ns` — an epoch's id compaction (inside the splice
    /// window; recorded only on the epochs that compact).
    compact_ns: Histogram,
    /// `epoch.compactions` — id compactions run (by epochs and by
    /// [`ServiceSession::compact`]).
    compactions: Counter,
    /// `epoch.solve_ns` — the two-phase engine solve.
    solve_ns: Histogram,
    /// `engine.setup_ns` … `engine.certify_ns` — the solve's engine
    /// phases, in [`EngineTimings::phases`](netsched_core::EngineTimings::phases)
    /// order, summed over both halves of a mixed solve.
    engine_phases: [Histogram; 6],
    /// `engine.replayed_items` — stack items the second phase re-decided.
    replayed_items: Histogram,
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
    /// `engine.capped_stages` — first-phase stages cut by the Claim 5.2
    /// step cap.
    capped_stages: Counter,
}

impl SessionMetrics {
    fn resolve(obs: &ObsRegistry) -> Self {
        Self {
            step_ns: obs.histogram("epoch.step_ns"),
            validate_ns: obs.histogram("epoch.validate_ns"),
            journal_ns: obs.histogram("epoch.journal_ns"),
            splice_ns: obs.histogram("epoch.splice_ns"),
            conflict_rebuild_ns: obs.histogram("epoch.conflict_rebuild_ns"),
            compact_ns: obs.histogram("epoch.compact_ns"),
            compactions: obs.counter("epoch.compactions"),
            solve_ns: obs.histogram("epoch.solve_ns"),
            engine_phases: [
                obs.histogram("engine.setup_ns"),
                obs.histogram("engine.repair_ns"),
                obs.histogram("engine.refresh_ns"),
                obs.histogram("engine.replay_ns"),
                obs.histogram("engine.raised_set_ns"),
                obs.histogram("engine.certify_ns"),
            ],
            replayed_items: obs.histogram("engine.replayed_items"),
            delta_emit_ns: obs.histogram("epoch.delta_emit_ns"),
            epochs: obs.counter("epoch.count"),
            quarantined: obs.counter("epoch.quarantined"),
            mis_rounds: obs.counter("engine.mis_rounds"),
            raises: obs.counter("engine.raises"),
            truncated_epochs: obs.counter("engine.truncated_epochs"),
            capped_stages: obs.counter("engine.capped_stages"),
        }
    }
}

/// A long-lived dynamic scheduling session; see the
/// [module docs](self) for the epoch model and [`crate`] docs for the
/// amortized cost table.
pub struct ServiceSession {
    base: SessionTopology,
    config: AlgorithmConfig,
    resolve: ResolveMode,
    /// One entry per demand id of the full universe, tombstones included,
    /// in id order, which is also strictly ascending ticket order: ids and
    /// tickets only grow, and an id compaction drops the tombstones from
    /// both. A ticket's demand id is its binary-search position.
    live: Vec<LiveDemand>,
    /// Live wide and narrow demands: the height mix without a scan.
    mix: HeightMix,
    /// Exceeds every ticket ever issued.
    next_ticket: u64,
    full: LiveCore,
    split: Option<SplitState>,
    /// The standing schedule as `(ticket, placement)`, strictly ascending
    /// by ticket.
    schedule: Vec<(u64, Placement)>,
    epoch: u64,
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
    /// Never serialized; a quarantine leaves it alone.
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
                request: Some(DemandRequest::Tree {
                    u: d.u,
                    v: d.v,
                    profit: d.profit,
                    height: d.height,
                    access: problem.access(d.id).to_vec(),
                }),
            })
            .collect();
        let base = SessionTopology(Arc::new(BaseProblem::Tree(base, layerer)));
        Self::assemble(base, config, live, full)
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
                request: Some(DemandRequest::Line {
                    release: d.release,
                    deadline: d.deadline,
                    processing: d.processing,
                    profit: d.profit,
                    height: d.height,
                    access: problem.access(d.id).to_vec(),
                }),
            })
            .collect();
        let base = LineProblem::new(problem.timeslots(), problem.num_resources());
        let base = SessionTopology(Arc::new(BaseProblem::Line(base)));
        Self::assemble(base, config, live, full)
    }

    fn assemble(
        base: SessionTopology,
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
            resolve: ResolveMode::default(),
            mix: HeightMix::of(&live),
            live,
            next_ticket,
            full,
            split: None,
            schedule: Vec::new(),
            epoch: 0,
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

    /// Pins the session's [`ResolveMode`] (sessions start
    /// [`Cold`](ResolveMode::Cold)). Call before the first
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
        self.mix.live()
    }

    /// The tickets of all live demands, in demand-id order — which is
    /// strictly ascending ticket order (ids and tickets only grow).
    /// Allocates `O(live)`.
    pub fn live_tickets(&self) -> Vec<DemandTicket> {
        self.live
            .iter()
            .filter(|d| d.request.is_some())
            .map(|d| DemandTicket(d.ticket))
            .collect()
    }

    /// `true` when the ticket names a live demand (`O(log live)`).
    pub fn is_live(&self, ticket: DemandTicket) -> bool {
        self.dense_id(ticket).is_some()
    }

    /// The full universe's demand id of a live ticket: its position in the
    /// ticket-sorted live list.
    fn dense_id(&self, ticket: DemandTicket) -> Option<DemandId> {
        self.live
            .binary_search_by_key(&ticket.0, |d| d.ticket)
            .ok()
            .filter(|&i| self.live[i].request.is_some())
            .map(DemandId::new)
    }

    /// The session's current demand-instance universe.
    pub fn universe(&self) -> &DemandInstanceUniverse {
        &self.full.universe
    }

    /// The session's incrementally maintained conflict degrees.
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
    /// as long as no further mutating epoch runs; an id compaction
    /// ([`compact`](ServiceSession::compact)) relabels them with it.
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
        match (&*self.base.0, request) {
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
    /// panics, the batch is **quarantined** — the call returns
    /// [`ServiceError::Quarantined`] and the session remains fully
    /// operational on its pre-step live set. The happy path costs
    /// O(batch): the call keeps only the ticket counter and clones of the
    /// batch's expiring demands. A quarantine inverts the batch on the
    /// live list and rebuilds every core from it in O(live). The standing
    /// schedule, profit, certificate, epoch and pending anytime work are
    /// untouched: the step commits them only after its last panic site.
    /// Warm states restart from zero duals, so a Warm session is
    /// certificate-equivalent after a quarantine (the contract of a warm
    /// durable recovery) and a Cold one byte-identical. The write-ahead
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
        // What a panic could destroy and the batch alone cannot give back:
        // the ticket counter and the expiring demands. O(batch).
        let next_ticket = self.next_ticket;
        let expiring: Vec<LiveDemand> = batch
            .iter()
            .filter_map(|event| match event {
                DemandEvent::Expire(ticket) => self.dense_id(*ticket),
                DemandEvent::Arrive(_) => None,
            })
            .map(|id| self.live[id.index()].clone())
            .collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.step_inner(batch, budget)
        }));
        match outcome {
            Ok(result) => result,
            Err(payload) => {
                let reason = panic_reason(payload.as_ref());
                // The panic may have left the live list and the cores
                // mid-splice. Invert the batch on the live list — drop its
                // arrivals (tickets from `next_ticket` on) and every
                // tombstone, put back the expiries it already removed —
                // and rebuild the cores over it, which also restores the
                // height mix. The step commits nothing else before its
                // last panic site.
                self.next_ticket = next_ticket;
                let last = self.last_solution_keys();
                self.live
                    .retain(|d| d.ticket < next_ticket && d.request.is_some());
                self.live.extend(expiring);
                // An ascending run plus a batch-sized tail: the stable sort
                // merges them in O(live + batch log batch).
                self.live.sort_by_key(|d| d.ticket);
                self.live.dedup_by_key(|d| d.ticket);
                self.rebuild_cores(last);
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

    /// Puts the session in the state a quarantine leaves it in: every
    /// core rebuilt over the live list, warm states from zero duals (a
    /// Cold session's solves do not change). Log replay calls this where
    /// a quarantine cancelled a record, so a recovered session runs the
    /// solves the live session ran.
    pub fn replay_after_quarantine(&mut self) {
        let last = self.last_solution_keys();
        self.live.retain(|d| d.request.is_some());
        self.rebuild_cores(last);
    }

    /// Rebuilds every core from scratch over the live list (which must
    /// hold no tombstones), in O(live): what a quarantine does once it has
    /// put the live list back. Recounts the height mix, and moves the
    /// last solution's ids (`last`, from
    /// [`last_solution_keys`](Self::last_solution_keys)) into the rebuilt
    /// universe.
    fn rebuild_cores(&mut self, last: Option<SolutionKeys>) {
        self.mix = HeightMix::of(&self.live);
        (self.full, self.split) = self
            .base
            .0
            .cores(&self.live)
            .expect("live demands are valid");
        let universe = &self.full.universe;
        let find = |&(ticket, network, start): &InstanceKey| {
            let a = self.dense_id(DemandTicket(ticket))?;
            universe.instances_of_demand(a).iter().copied().find(|&d| {
                let inst = universe.instance(d);
                (inst.network, inst.start) == (network, start)
            })
        };
        let moved = last.and_then(|(selected, raised)| {
            Some((
                selected.iter().map(find).collect::<Option<Vec<_>>>()?,
                raised.iter().map(find).collect::<Option<Vec<_>>>()?,
            ))
        });
        match (&mut self.last, moved) {
            (Some(solution), Some((selected, raised))) => {
                solution.selected = selected;
                solution.raised_instances = raised;
            }
            (last, _) => *last = None,
        }
    }

    /// The last solution's selected and raised instances as `(ticket,
    /// network, start)` keys, which survive a rebuild of the cores
    /// (instance ids do not). `None` when there is no last solution or the
    /// universe no longer holds one of its instances.
    fn last_solution_keys(&self) -> Option<SolutionKeys> {
        let last = self.last.as_ref()?;
        let universe = &self.full.universe;
        let key = |d: &InstanceId| {
            let inst = (d.index() < universe.instance_slots()).then(|| universe.instance(*d))?;
            Some((
                self.live.get(inst.demand.index())?.ticket,
                inst.network,
                inst.start,
            ))
        };
        Some((
            last.selected.iter().map(key).collect::<Option<_>>()?,
            last.raised_instances
                .iter()
                .map(key)
                .collect::<Option<_>>()?,
        ))
    }

    /// Reclaims the tombstones of every core, of the live list and of the
    /// split maps at once — the serving path's one `O(live)` pass — and
    /// relabels `ids` (full demand ids) and the last solution's instance
    /// ids with them. Order-preserving, so no later solve changes. Returns
    /// the full universe's reclaimed instance slots.
    fn compact_ids(&mut self, ids: &mut [DemandId]) -> usize {
        let reclaimed = self.full.universe.tombstones();
        let compaction = self.full.compact();
        for a in ids.iter_mut() {
            *a = compaction
                .map_demand(*a)
                .expect("a live demand survives a compaction");
        }
        if let Some(last) = &mut self.last {
            for column in [&mut last.selected, &mut last.raised_instances] {
                column.retain_mut(|d| match compaction.map_instance(*d) {
                    Some(new) => {
                        *d = new;
                        true
                    }
                    None => false,
                });
            }
        }
        self.live.retain(|d| d.request.is_some());
        reserve_slots(&mut self.live, self.full.universe.demand_slot_target());
        if let Some(split) = &mut self.split {
            split.wide.compact();
            split.narrow.compact();
            (split.wide_map, split.narrow_map) = SplitState::maps(&self.live);
        }
        self.metrics.compactions.inc();
        reclaimed
    }

    /// Arms the fault-injection hook: the solve of each listed epoch (the
    /// 1-based epoch the step would advance the session to) panics with
    /// `"injected solve fault"` before the engine runs. Harness plumbing
    /// for exercising the quarantine path of
    /// [`step_with_deadline`](ServiceSession::step_with_deadline) —
    /// production solves have no panic sites reachable from a validated
    /// batch. Never serialized; a quarantine leaves it armed.
    pub fn inject_solve_panics(&mut self, epochs: Vec<u64>) {
        self.panic_epochs = epochs;
    }

    fn step_inner(
        &mut self,
        batch: &[DemandEvent],
        budget: &Budget,
    ) -> Result<ScheduleDelta, ServiceError> {
        let step_start = std::time::Instant::now();

        // ---- validate & partition (no mutation before this block ends) --
        let validate_start = std::time::Instant::now();
        let mut arrivals: Vec<DemandRequest> = Vec::new();
        let mut expired: Vec<DemandId> = Vec::new();
        // The batch's expiries so far: an O(1) duplicate check.
        let mut expiring = std::collections::HashSet::new();
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
                    if !expiring.insert(id) {
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
        // Only a session that has solved has a schedule to keep; `epoch >
        // 0` says so, since the first epoch to complete always solves.
        // Skipped while truncated work is pending: an empty step is then
        // exactly the "finish the certification" epoch.
        if batch.is_empty() && self.epoch > 0 && !self.pending_anytime {
            if let Some(view) = &self.view {
                view.publish(ScheduleSnapshot::capture(
                    self.epoch + 1,
                    &self.schedule,
                    self.certificate,
                    self.profit,
                    CertificateQuality::Full,
                ));
            }
            self.epoch += 1;
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
                    live_demands: self.live_demands(),
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

        // ---- reclaim tombstones (the rare O(live) epoch) --------------
        let rebuild_start = std::time::Instant::now();
        let (arrivings, assignments) = self.base.0.materialize(&arrivals);
        let outgoing = expired
            .iter()
            .map(|&a| self.full.universe.instances_of_demand(a).len())
            .sum();
        let incoming = arrivings.iter().map(|a| a.instances.len()).sum();
        if self.full.universe.needs_compaction(outgoing, incoming)
            || self.split.as_ref().is_some_and(|split| {
                split.wide.universe.needs_compaction(0, 0)
                    || split.narrow.universe.needs_compaction(0, 0)
            })
        {
            let compact_start = std::time::Instant::now();
            self.compact_ids(&mut expired);
            self.metrics
                .compact_ns
                .record_duration(compact_start.elapsed());
        }

        // ---- splice the full core and the split -----------------------
        let dirty_shards = self.full.apply(&expired, &arrivings, assignments.concat());
        let mut conflict_ns = self.full.conflict_rebuild_ns;
        if self.split.is_some() {
            self.update_split(&expired, &arrivals, &arrivings, &assignments);
            let split = self.split.as_ref().expect("split just updated");
            conflict_ns += split.wide.conflict_rebuild_ns + split.narrow.conflict_rebuild_ns;
        }

        // ---- live-set bookkeeping -------------------------------------
        // Expiries leave tombstones and arrivals take fresh, increasing
        // tickets at the tail, so `live` stays in lockstep with the full
        // universe's demand ids and strictly ascending by ticket.
        for &a in &expired {
            let request = self.live[a.index()]
                .request
                .take()
                .expect("an expired demand was live");
            self.mix.count(&request, false);
        }
        reserve_slots(&mut self.live, self.full.universe.demand_slot_target());
        let mut new_tickets: Vec<DemandTicket> = Vec::with_capacity(arrivals.len());
        for request in &arrivals {
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            new_tickets.push(DemandTicket(ticket));
            self.mix.count(request, true);
            self.live.push(LiveDemand {
                ticket,
                request: Some(request.clone()),
            });
        }
        debug_assert_eq!(self.live.len(), self.full.universe.demand_slots());
        debug_assert_eq!(self.mix, HeightMix::of(&self.live), "height mix counters");

        // ---- wide/narrow split creation -------------------------------
        let rule = self.mix.rule();
        if self.split.is_none() && rule.is_none() {
            self.split = Some(self.base.0.split(&self.live));
        }

        // ---- solve -----------------------------------------------------
        let rebuild_elapsed = rebuild_start.elapsed();
        let rebuild_seconds = rebuild_elapsed.as_secs_f64();
        let rebuild_ns = rebuild_elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.metrics.conflict_rebuild_ns.record(conflict_ns);
        self.metrics
            .splice_ns
            .record(rebuild_ns.saturating_sub(conflict_ns));
        let solve_start = std::time::Instant::now();
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
        let solution = if self.live_demands() == 0 {
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
        let solve_seconds = solve_elapsed.as_secs_f64();
        self.metrics.solve_ns.record_duration(solve_elapsed);
        let phases = solution.timings.phases();
        for (histogram, phase) in self.metrics.engine_phases.iter().zip(phases) {
            histogram.record_duration(phase);
        }
        self.metrics
            .replayed_items
            .record(solution.timings.replayed_items);

        // ---- delta extraction -----------------------------------------
        let delta_start = std::time::Instant::now();
        // The new schedule in ticket order, read off the selection alone:
        // each demand's instances take one block of consecutive ids, in
        // demand-id order, so the (id-sorted) selection — at most one
        // instance per demand — lists demand ids ascending, which is
        // ticket order.
        let new_schedule: Vec<(u64, Placement)> = solution
            .selected
            .iter()
            .map(|&d| {
                let inst = self.full.universe.instance(d);
                let placement = Placement {
                    network: inst.network,
                    start: inst.start,
                };
                (self.live[inst.demand.index()].ticket, placement)
            })
            .collect();
        debug_assert!(
            new_schedule.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "the selection lists demands in ticket order"
        );
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
        let certificate = Certificate {
            optimum_upper_bound: solution.diagnostics.optimum_upper_bound,
            lambda: solution.diagnostics.lambda,
            dual_objective: solution.diagnostics.dual_objective,
        };
        let quality = solution.diagnostics.quality;
        if let Some(view) = &self.view {
            view.publish(ScheduleSnapshot::capture(
                self.epoch + 1,
                &new_schedule,
                certificate,
                solution.profit,
                quality,
            ));
        }

        // ---- commit ----------------------------------------------------
        // Nothing below can panic, so a quarantined step never reaches
        // these fields and `step_with_deadline` need not restore them.
        self.schedule = new_schedule;
        self.profit = solution.profit;
        self.certificate = certificate;
        self.pending_anytime = quality.is_truncated();
        self.epoch += 1;
        self.metrics.epochs.inc();
        self.metrics.mis_rounds.add(solution.diagnostics.steps);
        self.metrics.raises.add(solution.diagnostics.raised);
        self.metrics
            .capped_stages
            .add(solution.diagnostics.capped_stages);
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
                live_demands: self.live_demands(),
                instances: self.full.universe.num_instances(),
                resolved: true,
                warm_resolve: warm && self.live_demands() > 0,
                rebuild_seconds,
                solve_seconds,
                journal_seconds,
                quality,
            },
        })
    }

    /// Splices the epoch's delta (`expired`, as full demand ids, and the
    /// arrivals) through the existing split cores in `O(batch log live)`:
    /// each half receives the expiries and arrivals of its height class,
    /// an expiry's half id found by binary search in the sorted half →
    /// full map, and each map appends its half's arrivals.
    /// Runs after the full core's splice and before the live list's
    /// bookkeeping, which still holds the expiring requests.
    fn update_split(
        &mut self,
        expired: &[DemandId],
        arrivals: &[DemandRequest],
        arrivings: &[ArrivingDemand],
        assignments: &[TreeAssignments],
    ) {
        let SplitState {
            wide,
            narrow,
            wide_map,
            narrow_map,
        } = self.split.as_mut().expect("caller checked");
        // The arrivals' full ids follow the live list's last entry.
        let first_new = self.live.len();
        for (core, map, wide_half) in [(wide, wide_map, true), (narrow, narrow_map, false)] {
            // Expired ids within this half, ascending like the full ids.
            let half_expired: Vec<DemandId> = expired
                .iter()
                .filter(|a| self.live[a.index()].request().is_wide() == wide_half)
                .map(|a| {
                    let half = map.binary_search(a).expect("a live demand is in its half");
                    DemandId::new(half)
                })
                .collect();
            // This half's arrivals, in batch order.
            let mut half_arrivings: Vec<ArrivingDemand> = Vec::new();
            let mut half_assignments: TreeAssignments = Vec::new();
            for (i, ((request, arriving), assigns)) in
                arrivals.iter().zip(arrivings).zip(assignments).enumerate()
            {
                if request.is_wide() == wide_half {
                    half_arrivings.push(arriving.clone());
                    half_assignments.extend(assigns.iter().cloned());
                    map.push(DemandId::new(first_new + i));
                }
            }
            core.apply(&half_expired, &half_arrivings, half_assignments);
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
    /// * every core's **tombstones are reclaimed**: the universes, the
    ///   live list and the split maps relabel their live entries `0, 1, …`
    ///   in id order (the epochs do this on their own once tombstones pile
    ///   up; order-preserving, so no later solve changes), and the
    ///   [last solution](ServiceSession::last_solution)'s ids with them;
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
        let tombstones = self.full.has_tombstones()
            || self
                .split
                .as_ref()
                .is_some_and(|split| split.wide.has_tombstones() || split.narrow.has_tombstones());
        if tombstones {
            report.tombstones_reclaimed = self.compact_ids(&mut []);
        }
        if self.split.is_some() && self.mix.rule().is_some() {
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

    /// Serializes the session as a versioned snapshot document holding
    /// only what cannot be recomputed: the [topology](Self::topology)
    /// (`base`) plus the [session state](Self::state_snapshot). The
    /// document is their union; [`from_snapshot`](Self::from_snapshot)
    /// reads it back.
    pub fn snapshot(&self) -> JsonValue {
        let mut members = self.state_members();
        members.push(("base", self.base.0.problem_json()));
        JsonValue::object(members)
    }

    /// The topology the session serves, shared with the session (no
    /// copy). Its document is the part of a
    /// [`snapshot`](Self::snapshot) that never changes.
    pub fn topology(&self) -> SessionTopology {
        self.base.clone()
    }

    /// The [`snapshot`](Self::snapshot) without its topology (`base`): the
    /// format version and shape, algorithm config, resolve mode, live
    /// ticket table (id order, tombstones left out), ticket and epoch
    /// counters, whether truncated certification work is pending
    /// (`anytime_pending`), the standing schedule, its profit and
    /// certificate, and every core's persisted [`WarmState`] (see
    /// [`WarmState::restore`] for what that keeps). The schedule is stored,
    /// not replayed: a Cold session has no stack to replay, and a
    /// mixed-height schedule combines two halves. The cores themselves are
    /// **not** serialized — [`from_state`](Self::from_state) rebuilds them
    /// from the live set (byte-identical by the session's differential
    /// invariant) — only their warm states travel. The `last` engine
    /// solution is transient telemetry and is not captured.
    pub fn state_snapshot(&self) -> JsonValue {
        JsonValue::object(self.state_members())
    }

    fn state_members(&self) -> Vec<(&'static str, JsonValue)> {
        let live = JsonValue::Array(
            self.live
                .iter()
                .filter_map(|d| {
                    let request = d.request.as_ref()?;
                    Some(JsonValue::Array(vec![
                        JsonValue::u64_value(d.ticket),
                        request.to_json(),
                    ]))
                })
                .collect(),
        );
        let schedule = JsonValue::Array(
            self.schedule
                .iter()
                .map(|&(t, p)| JsonValue::Array(vec![JsonValue::u64_value(t), p.to_json()]))
                .collect(),
        );
        // Warm states write their ids through the universe's
        // order-preserving relabel, so the document does not depend on
        // when the tombstones were last reclaimed.
        let warm_or_null = |core: &LiveCore| {
            core.warm_state()
                .map(|warm| warm.to_json(&core.universe))
                .unwrap_or(JsonValue::Null)
        };
        vec![
            ("format", JsonValue::int(SNAPSHOT_FORMAT_VERSION as usize)),
            ("shape", JsonValue::String(self.base.0.shape().into())),
            ("config", self.config.to_json()),
            ("resolve", self.resolve.to_json()),
            ("live", live),
            ("next_ticket", JsonValue::u64_value(self.next_ticket)),
            ("epoch", JsonValue::u64_value(self.epoch)),
            ("anytime_pending", JsonValue::Bool(self.pending_anytime)),
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
        ]
    }

    /// Reconstructs a session from a [`snapshot`](ServiceSession::snapshot)
    /// document: [`from_state`](Self::from_state) with the topology the
    /// document carries.
    pub fn from_snapshot(doc: &JsonValue) -> Result<Self, String> {
        Self::from_state(&SessionTopology::from_json(doc)?, doc)
    }

    /// Reconstructs a session from its topology and a
    /// [state document](Self::state_snapshot) (a whole snapshot also
    /// works; its `base` is ignored). The topology plus the live requests
    /// (in recorded dense order) rebuild every core through the same
    /// request-to-core builder the split uses — so the restored universe,
    /// conflict degrees and layerings are byte-identical to the
    /// uninterrupted session's — and the recorded tickets, counters,
    /// pending-anytime flag, schedule, profit, certificate and warm states
    /// are installed on top. Each warm state is rebuilt by
    /// [`WarmState::restore`] against its rebuilt universe, which checks
    /// its shape and recomputes what the snapshot leaves out. The session
    /// shares `topology`; nothing of it is copied.
    pub fn from_state(topology: &SessionTopology, doc: &JsonValue) -> Result<Self, String> {
        check_format(doc)?;
        let shape = doc.field("shape")?.as_str()?;
        if shape != topology.0.shape() {
            return Err(format!(
                "snapshot shape `{shape}` does not match the topology's `{}`",
                topology.0.shape()
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
                    request: Some(normalize(DemandRequest::from_json(&entry[1])?)),
                })
            })
            .collect::<Result<_, String>>()?;
        // Ticket lookups binary-search the live list, so its dense order
        // must be strictly ascending ticket order.
        if live.windows(2).any(|pair| pair[0].ticket >= pair[1].ticket) {
            return Err("snapshot live tickets are not strictly ascending".into());
        }
        let epoch = doc.field("epoch")?.as_u64()?;
        let (full, split) = topology
            .0
            .cores(&live)
            .map_err(|e| format!("snapshot {e}"))?;
        let mut session = Self::assemble(topology.clone(), config, live, full);
        session.split = split;
        session.resolve = resolve;
        session.epoch = epoch;
        session.next_ticket = doc.field("next_ticket")?.as_u64()?;
        if session
            .live
            .last()
            .is_some_and(|d| d.ticket >= session.next_ticket)
        {
            return Err("snapshot next_ticket does not exceed every live ticket".into());
        }
        session.pending_anytime = match doc.field("anytime_pending")? {
            JsonValue::Bool(b) => *b,
            other => {
                return Err(format!(
                    "expected boolean `anytime_pending`, got {}",
                    other.render()
                ))
            }
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
                let warm = WarmState::restore(warm_doc, &session.full.universe)?;
                session.full.set_warm_state(Some(warm));
            }
        }
        if let Some(split) = &mut session.split {
            let split_doc = doc.field("split")?;
            if !matches!(split_doc, JsonValue::Null) {
                for (key, core) in [
                    ("wide_warm", &mut split.wide),
                    ("narrow_warm", &mut split.narrow),
                ] {
                    match split_doc.field(key)? {
                        JsonValue::Null => {}
                        warm_doc => {
                            let warm = WarmState::restore(warm_doc, &core.universe)?;
                            core.set_warm_state(Some(warm));
                        }
                    }
                }
            }
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
            .field("live_demands", &self.live_demands())
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
