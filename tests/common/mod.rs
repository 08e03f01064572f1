//! Shared machinery of the root differential suites
//! (`tests/dynamic_equivalence.rs`, `tests/warm_equivalence.rs`):
//!
//! * [`Mirror`] / [`RebuiltProblem`] — a from-scratch mirror of a serving
//!   session's live demand set, rebuilt and re-solved after every epoch;
//! * [`check_trace`] — the **byte-equivalence** driver (Cold sessions must
//!   match a fresh `Scheduler` bit for bit);
//! * [`TraceOracle`] — the **certificate-equivalence** driver (Warm
//!   sessions must verify their dual certificate within the solver's
//!   guarantee every epoch, against a cold reference solve);
//! * [`ChurnCases`] — a proptest [`Strategy`] whose value is the
//!   [`EventTrace`] itself (plus the fixed base problem), so failing
//!   churn traces **shrink to minimal event sequences** instead of
//!   regenerating wholesale from a seed.

#![allow(dead_code)]

use netsched_core::{AlgorithmConfig, Scheduler, Solution};
use netsched_distrib::{ConflictGraph, InducedConflicts, ShardedConflictGraph};
use netsched_graph::{
    Compaction, DemandInstanceUniverse, InstanceId, LineProblem, NetworkId, TreeProblem, VertexId,
};
use netsched_service::{DemandEvent, DemandRequest, DemandTicket, ScheduleDelta, ServiceSession};
use netsched_workloads::{
    many_networks_line, many_networks_tree, poisson_arrivals_line, poisson_arrivals_tree,
    ChurnSpec, EventTrace, HeightDistribution, TraceEvent,
};
use proptest::{Strategy, TestRng};

// ---------------------------------------------------------------------
// Byte-level equality helpers
// ---------------------------------------------------------------------
//
// A serving universe keeps stable ids with tombstones; a from-scratch
// build numbers the same survivors densely. Structural comparisons go
// through the order-preserving relabel a compaction applies (of a clone),
// which maps the one onto the other exactly.

/// `universe` relabelled to dense ids, plus the relabelling.
pub fn dense_universe(universe: &DemandInstanceUniverse) -> (DemandInstanceUniverse, Compaction) {
    let mut dense = universe.clone();
    let mut compaction = Compaction::new();
    dense.compact(&mut compaction);
    (dense, compaction)
}

/// A solution's instance ids mapped through a relabelling.
pub fn relabel_solution(solution: &Solution, compaction: &Compaction) -> Solution {
    let map = |ids: &[InstanceId]| -> Vec<InstanceId> {
        ids.iter()
            .map(|&d| {
                compaction
                    .map_instance(d)
                    .expect("a solution names live instances")
            })
            .collect()
    };
    let mut out = solution.clone();
    out.selected = map(&solution.selected);
    out.raised_instances = map(&solution.raised_instances);
    out
}

/// A session's last solution under its universe's dense relabel.
pub fn dense_solution(session: &ServiceSession) -> Option<Solution> {
    let (_, compaction) = dense_universe(session.universe());
    session
        .last_solution()
        .map(|solution| relabel_solution(solution, &compaction))
}

/// Maintained conflict structures against the flat build of a
/// from-scratch universe: every incrementally maintained degree, and the
/// adjacency the engine induces over **all** of `universe`'s instances,
/// compared under `universe`'s dense relabel.
pub fn assert_graph_matches(
    flat: &ConflictGraph,
    universe: &DemandInstanceUniverse,
    conflict: &ShardedConflictGraph,
    label: &str,
) {
    let (universe, compaction) = dense_universe(universe);
    let mut conflict = conflict.clone();
    conflict.compact(&universe, &compaction);
    assert_eq!(
        conflict.num_vertices(),
        flat.num_vertices(),
        "{label}: vertex count"
    );
    let all: Vec<InstanceId> = universe.instance_ids().collect();
    let induced = InducedConflicts::build(&universe, &all);
    for &d in &all {
        assert_eq!(conflict.degree(d), flat.degree(d), "{label}: degree of {d}");
        let row: Vec<InstanceId> = induced
            .neighbors(d.index())
            .iter()
            .map(|&p| InstanceId::new(p as usize))
            .collect();
        assert_eq!(row, flat.neighbors(d), "{label}: adjacency of {d}");
    }
}

/// [`assert_graph_matches`] on a session's universe and conflict degrees.
pub fn assert_conflicts_match(flat: &ConflictGraph, session: &ServiceSession, label: &str) {
    assert_graph_matches(flat, session.universe(), session.conflict(), label);
}

/// Two sessions over the same live set (an uninterrupted reference and a
/// recovered or restored one) both match the flat build of the
/// reference's universe, relabelled.
pub fn assert_same_conflicts(reference: &ServiceSession, other: &ServiceSession, label: &str) {
    let flat = ConflictGraph::build(&dense_universe(reference.universe()).0);
    assert_conflicts_match(&flat, reference, &format!("{label} (reference)"));
    assert_conflicts_match(&flat, other, label);
}

/// Exact equality of everything the solution certifies.
pub fn assert_same_solution(a: &Solution, b: &Solution, label: &str) {
    assert_eq!(a.selected, b.selected, "{label}: schedule");
    assert_eq!(a.raised_instances, b.raised_instances, "{label}: raised");
    assert_eq!(a.profit, b.profit, "{label}: profit");
    let (da, db) = (a.diagnostics, b.diagnostics);
    assert_eq!(da.lambda, db.lambda, "{label}: lambda");
    assert_eq!(da.dual_objective, db.dual_objective, "{label}: dual");
    assert_eq!(da.steps, db.steps, "{label}: steps");
    assert_eq!(
        da.optimum_upper_bound, db.optimum_upper_bound,
        "{label}: upper bound"
    );
}

// ---------------------------------------------------------------------
// From-scratch mirror of a session's live demand set
// ---------------------------------------------------------------------

/// A from-scratch mirror of the live demand set, driven by the same trace
/// events the session consumes. Tracks demands by global arrival index.
pub enum Mirror {
    /// Mirror of a tree-shaped session.
    Tree {
        /// The demand-free base topology.
        base: TreeProblem,
        /// Live demands: `(global arrival index, arrival event)`.
        live: Vec<(usize, TraceEvent)>,
    },
    /// Mirror of a line-shaped session.
    Line {
        /// The demand-free base topology.
        base: LineProblem,
        /// Live demands: `(global arrival index, arrival event)`.
        live: Vec<(usize, TraceEvent)>,
    },
}

impl Mirror {
    pub fn for_tree(problem: &TreeProblem) -> Self {
        let mut base = TreeProblem::new(problem.num_vertices());
        for t in 0..problem.num_networks() {
            let network = NetworkId::new(t);
            let edges = problem.network(network).edges().map(|(_, uv)| uv).collect();
            let id = base.add_network(edges).unwrap();
            for (e, &cap) in problem.capacities(network).iter().enumerate() {
                if (cap - 1.0).abs() > f64::EPSILON {
                    base.set_capacity(id, e, cap).unwrap();
                }
            }
        }
        let live = problem
            .demands()
            .iter()
            .map(|d| {
                (
                    d.id.index(),
                    TraceEvent::ArriveTree {
                        u: d.u,
                        v: d.v,
                        profit: d.profit,
                        height: d.height,
                        access: problem.access(d.id).to_vec(),
                    },
                )
            })
            .collect();
        Mirror::Tree { base, live }
    }

    pub fn for_line(problem: &LineProblem) -> Self {
        let base = LineProblem::new(problem.timeslots(), problem.num_resources());
        let live = problem
            .demands()
            .iter()
            .map(|d| {
                (
                    d.id.index(),
                    TraceEvent::ArriveLine {
                        release: d.release,
                        deadline: d.deadline,
                        processing: d.processing,
                        profit: d.profit,
                        height: d.height,
                        access: problem.access(d.id).to_vec(),
                    },
                )
            })
            .collect();
        Mirror::Line { base, live }
    }

    pub fn apply(&mut self, batch: &[TraceEvent], next_arrival: &mut usize) {
        let live = match self {
            Mirror::Tree { live, .. } | Mirror::Line { live, .. } => live,
        };
        for event in batch {
            match event {
                TraceEvent::Expire { arrival } => {
                    let pos = live
                        .iter()
                        .position(|(a, _)| a == arrival)
                        .expect("mirror expires a live arrival");
                    live.remove(pos);
                }
                arrive => {
                    live.push((*next_arrival, arrive.clone()));
                    *next_arrival += 1;
                }
            }
        }
    }

    /// The surviving demand set as a fresh problem, demands in arrival
    /// order — exactly the from-scratch rebuild the invariant names.
    pub fn rebuild(&self) -> RebuiltProblem {
        match self {
            Mirror::Tree { base, live } => {
                let mut p = base.clone();
                for (_, event) in live {
                    if let TraceEvent::ArriveTree {
                        u,
                        v,
                        profit,
                        height,
                        access,
                    } = event
                    {
                        p.add_demand(*u, *v, *profit, *height, access.clone())
                            .unwrap();
                    }
                }
                RebuiltProblem::Tree(p)
            }
            Mirror::Line { base, live } => {
                let mut p = base.clone();
                for (_, event) in live {
                    if let TraceEvent::ArriveLine {
                        release,
                        deadline,
                        processing,
                        profit,
                        height,
                        access,
                    } = event
                    {
                        p.add_demand(
                            *release,
                            *deadline,
                            *processing,
                            *profit,
                            *height,
                            access.clone(),
                        )
                        .unwrap();
                    }
                }
                RebuiltProblem::Line(p)
            }
        }
    }
}

/// The surviving demand set, rebuilt from scratch after one epoch.
pub enum RebuiltProblem {
    Tree(TreeProblem),
    Line(LineProblem),
}

impl RebuiltProblem {
    /// From-scratch reference solve + flat conflict build.
    pub fn solve(&self, config: &AlgorithmConfig) -> (Solution, ConflictGraph) {
        match self {
            RebuiltProblem::Tree(p) => {
                let flat = ConflictGraph::build(&p.universe());
                (Scheduler::for_tree(p).solve(config), flat)
            }
            RebuiltProblem::Line(p) => {
                let flat = ConflictGraph::build(&p.universe());
                (Scheduler::for_line(p).solve(config), flat)
            }
        }
    }

    /// The worst-case guarantee of the paper solver the dispatch table
    /// selects for the current (surviving) instance shape.
    pub fn guarantee(&self, epsilon: f64) -> Option<f64> {
        match self {
            RebuiltProblem::Tree(p) => Scheduler::for_tree(p).auto_solver().guarantee(epsilon),
            RebuiltProblem::Line(p) => Scheduler::for_line(p).auto_solver().guarantee(epsilon),
        }
    }
}

/// Converts one trace batch into session events through the
/// arrival-index → ticket table.
pub fn to_events(batch: &[TraceEvent], tickets: &[DemandTicket]) -> Vec<DemandEvent> {
    batch
        .iter()
        .map(|event| match event {
            TraceEvent::ArriveTree {
                u,
                v,
                profit,
                height,
                access,
            } => DemandEvent::Arrive(DemandRequest::Tree {
                u: *u,
                v: *v,
                profit: *profit,
                height: *height,
                access: access.clone(),
            }),
            TraceEvent::ArriveLine {
                release,
                deadline,
                processing,
                profit,
                height,
                access,
            } => DemandEvent::Arrive(DemandRequest::Line {
                release: *release,
                deadline: *deadline,
                processing: *processing,
                profit: *profit,
                height: *height,
                access: access.clone(),
            }),
            TraceEvent::Expire { arrival } => DemandEvent::Expire(tickets[*arrival]),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Byte-equivalence driver (Cold sessions)
// ---------------------------------------------------------------------

/// Replays a trace epoch by epoch, asserting the **byte-equivalence**
/// invariant after every epoch: conflict degrees and induced adjacency
/// equal to the flat build of the rebuilt universe, schedule and certificate equal to a
/// from-scratch `Scheduler` solve. Sessions passed here must be in
/// `ResolveMode::Cold` (warm sessions deliberately relax this contract —
/// use [`TraceOracle`] for those).
pub fn check_trace(
    mut session: ServiceSession,
    mut mirror: Mirror,
    trace: &EventTrace,
    config: &AlgorithmConfig,
    label: &str,
) {
    let mut tickets: Vec<DemandTicket> = session.live_tickets();
    let mut next_arrival = tickets.len();
    for (epoch, batch) in trace.batches.iter().enumerate() {
        let events = to_events(batch, &tickets);
        let delta = session
            .step(&events)
            .unwrap_or_else(|e| panic!("{label} epoch {epoch}: {e}"));
        tickets.extend(delta.tickets.iter().copied());
        mirror.apply(batch, &mut next_arrival);

        let label = format!("{label} epoch {epoch}");
        let rebuilt = mirror.rebuild();
        let (reference, flat) = rebuilt.solve(config);
        assert_conflicts_match(&flat, &session, &label);
        let ours = dense_solution(&session).expect("stepped sessions solved");
        assert_same_solution(&reference, &ours, &label);
        assert_eq!(delta.profit, reference.profit, "{label}: delta profit");
        assert_eq!(
            delta.stats.live_demands,
            session.live_demands(),
            "{label}: live count"
        );
        // The standing schedule and the solution agree.
        assert_eq!(session.schedule().len(), ours.selected.len(), "{label}");
    }
}

// ---------------------------------------------------------------------
// Certificate-equivalence oracle (Warm sessions)
// ---------------------------------------------------------------------

/// The differential solve-equivalence oracle of the warm harness: replays
/// a trace through a (Warm) session while maintaining the from-scratch
/// mirror, and asserts the **relaxed equivalence contract** per epoch:
///
/// 1. the session's schedule passes feasibility verification against its
///    own universe (capacities + one instance per demand + profit),
/// 2. the dual certificate verifies: `λ ≥ 1 − ε`,
/// 3. the certified ratio stays within the auto-selected paper solver's
///    worst-case guarantee for the surviving instance shape,
/// 4. the achieved `λ` is within a fixed factor (0.5) of the cold
///    reference's `λ`,
/// 5. the warm optimum upper bound really upper-bounds the cold reference
///    profit (both bound the same OPT from opposite sides), and
/// 6. the delta's bookkeeping is consistent with the standing schedule.
pub struct TraceOracle {
    mirror: Mirror,
    config: AlgorithmConfig,
    tickets: Vec<DemandTicket>,
    next_arrival: usize,
}

impl TraceOracle {
    /// An oracle over a session's initial problem (the mirror must be
    /// built from the same problem the session was seeded with).
    pub fn new(mirror: Mirror, config: AlgorithmConfig) -> Self {
        let initial = match &mirror {
            Mirror::Tree { live, .. } | Mirror::Line { live, .. } => live.len(),
        };
        Self {
            mirror,
            config,
            tickets: (0..initial as u64).map(DemandTicket).collect(),
            next_arrival: initial,
        }
    }

    /// Replays the whole trace, checking the contract after every epoch.
    pub fn replay(&mut self, session: &mut ServiceSession, trace: &EventTrace, label: &str) {
        for (epoch, batch) in trace.batches.iter().enumerate() {
            let events = to_events(batch, &self.tickets);
            let delta = session
                .step(&events)
                .unwrap_or_else(|e| panic!("{label} epoch {epoch}: {e}"));
            self.check_epoch(session, batch, &delta, &format!("{label} epoch {epoch}"));
        }
    }

    /// Advances the mirror past `batch` and asserts the relaxed contract
    /// for the session state `delta` left behind.
    pub fn check_epoch(
        &mut self,
        session: &ServiceSession,
        batch: &[TraceEvent],
        delta: &ScheduleDelta,
        label: &str,
    ) {
        self.tickets.extend(delta.tickets.iter().copied());
        self.mirror.apply(batch, &mut self.next_arrival);
        let rebuilt = self.mirror.rebuild();
        let (reference, _) = rebuilt.solve(&self.config);
        let guarantee = rebuilt.guarantee(self.config.epsilon);

        let ours = session.last_solution().expect("stepped sessions solved");
        // 1. Admitted-set feasibility (+ reported profit).
        ours.verify(session.universe())
            .unwrap_or_else(|e| panic!("{label}: warm schedule failed verification: {e}"));
        if session.live_demands() > 0 {
            // 2. The certificate verifies: λ reached 1 − ε.
            assert!(
                ours.diagnostics.lambda >= 1.0 - self.config.epsilon - 1e-6,
                "{label}: warm λ = {} below 1 − ε",
                ours.diagnostics.lambda
            );
            // 4. λ within a fixed factor of the cold λ.
            assert!(
                ours.diagnostics.lambda >= 0.5 * reference.diagnostics.lambda,
                "{label}: warm λ = {} not within factor 2 of cold λ = {}",
                ours.diagnostics.lambda,
                reference.diagnostics.lambda
            );
        }
        // 3. Certified ratio within the solver's worst-case guarantee.
        if let (Some(ratio), Some(guarantee)) = (ours.certified_ratio(), guarantee) {
            assert!(
                ratio <= guarantee + 1e-6,
                "{label}: warm certified ratio {ratio} exceeds the {guarantee} guarantee"
            );
        }
        // 5. The warm upper bound really bounds OPT: it must dominate the
        //    cold reference profit (a feasible solution's profit ≤ OPT).
        assert!(
            ours.diagnostics.optimum_upper_bound + 1e-6 >= reference.profit,
            "{label}: warm upper bound {} below the cold profit {}",
            ours.diagnostics.optimum_upper_bound,
            reference.profit
        );
        // 6. Delta bookkeeping consistency.
        assert_eq!(delta.profit, ours.profit, "{label}: delta profit");
        assert_eq!(
            session.schedule().len(),
            ours.selected.len(),
            "{label}: standing schedule size"
        );
        assert_eq!(
            delta.stats.live_demands,
            session.live_demands(),
            "{label}: live count"
        );
    }
}

// ---------------------------------------------------------------------
// Trace generators shared by both suites
// ---------------------------------------------------------------------

pub fn line_trace(
    networks: usize,
    demands: usize,
    seed: u64,
    churn: f64,
) -> (LineProblem, EventTrace) {
    line_trace_with_heights(networks, demands, seed, churn, HeightDistribution::Unit)
}

pub fn line_trace_with_heights(
    networks: usize,
    demands: usize,
    seed: u64,
    churn: f64,
    heights: HeightDistribution,
) -> (LineProblem, EventTrace) {
    let mut base = many_networks_line(networks, demands, seed);
    base.heights = heights;
    let trace = poisson_arrivals_line(
        &base,
        &ChurnSpec {
            epochs: 8,
            churn,
            focus: 2,
            seed: seed ^ 0xD15EA5E,
        },
    );
    (base.build().unwrap(), trace)
}

pub fn tree_trace(
    networks: usize,
    demands: usize,
    seed: u64,
    churn: f64,
    heights: HeightDistribution,
) -> (TreeProblem, EventTrace) {
    let mut base = many_networks_tree(networks, demands, seed);
    base.heights = heights;
    let trace = poisson_arrivals_tree(
        &base,
        &ChurnSpec {
            epochs: 8,
            churn,
            focus: 2,
            seed: seed ^ 0xFEED,
        },
    );
    (base.build().unwrap(), trace)
}

// ---------------------------------------------------------------------
// Shrinkable churn-case strategy
// ---------------------------------------------------------------------

/// The network shape of a generated churn case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnShape {
    Line,
    Tree,
}

/// The base problem of a churn case.
#[derive(Clone)]
pub enum CaseProblem {
    Line(LineProblem),
    Tree(TreeProblem),
}

/// One generated churn case: a fixed base problem plus the [`EventTrace`]
/// the proptest strategy shrinks. The trace — not a regeneration seed —
/// **is** the strategy value, so failures minimize to short event
/// sequences: shrink candidates truncate the trace, drop whole batches,
/// and drop single events (renumbering the arrival indices later expiries
/// reference so every candidate stays valid).
#[derive(Clone)]
pub struct ChurnCase {
    pub shape: ChurnShape,
    pub networks: usize,
    pub demands: usize,
    pub seed: u64,
    /// Percentage of wide (`h > 1/2`) arrivals; 100 = unit heights.
    pub wide_pct: u32,
    pub problem: CaseProblem,
    pub trace: EventTrace,
}

impl ChurnCase {
    pub fn line_problem(&self) -> &LineProblem {
        match &self.problem {
            CaseProblem::Line(p) => p,
            CaseProblem::Tree(_) => panic!("tree case in a line test"),
        }
    }

    pub fn tree_problem(&self) -> &TreeProblem {
        match &self.problem {
            CaseProblem::Tree(p) => p,
            CaseProblem::Line(_) => panic!("line case in a tree test"),
        }
    }
}

impl std::fmt::Debug for ChurnCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChurnCase")
            .field("shape", &self.shape)
            .field("networks", &self.networks)
            .field("demands", &self.demands)
            .field("seed", &self.seed)
            .field("wide_pct", &self.wide_pct)
            .field("trace", &self.trace.batches)
            .finish()
    }
}

/// Uniform draw from `lo..=hi`.
fn draw(rng: &mut TestRng, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo <= hi);
    lo + rng.next_u64() % (hi - lo + 1)
}

/// Proptest strategy generating [`ChurnCase`]s of one shape; the value's
/// trace shrinks event-wise (see [`ChurnCase`]).
#[derive(Debug, Clone, Copy)]
pub struct ChurnCases {
    pub shape: ChurnShape,
}

impl ChurnCases {
    fn sample_height(&self, rng: &mut TestRng, wide_pct: u32) -> f64 {
        if draw(rng, 0, 99) < wide_pct as u64 {
            1.0
        } else {
            0.1 + 0.05 * draw(rng, 0, 8) as f64
        }
    }

    fn sample_access(&self, rng: &mut TestRng, networks: usize) -> Vec<NetworkId> {
        let mut access: Vec<NetworkId> = (0..networks)
            .filter(|_| rng.next_u64().is_multiple_of(2))
            .map(NetworkId::new)
            .collect();
        if access.is_empty() {
            access.push(NetworkId::new(draw(rng, 0, networks as u64 - 1) as usize));
        }
        access
    }
}

impl Strategy for ChurnCases {
    type Value = ChurnCase;

    fn sample(&self, rng: &mut TestRng) -> ChurnCase {
        let networks = draw(rng, 2, 4) as usize;
        let demands = draw(rng, 10, 20) as usize;
        let seed = rng.next_u64();
        let wide_pct = if draw(rng, 0, 2) == 0 {
            100
        } else {
            draw(rng, 0, 100) as u32
        };
        let (problem, timeslots, vertices) = match self.shape {
            ChurnShape::Line => {
                let mut base = many_networks_line(networks, demands, seed);
                if wide_pct < 100 {
                    base.heights = HeightDistribution::Mixed {
                        wide_fraction: wide_pct as f64 / 100.0,
                        min_narrow: 0.1,
                    };
                }
                let timeslots = base.timeslots;
                (CaseProblem::Line(base.build().unwrap()), timeslots, 0)
            }
            ChurnShape::Tree => {
                let mut base = many_networks_tree(networks, demands, seed);
                if wide_pct < 100 {
                    base.heights = HeightDistribution::Mixed {
                        wide_fraction: wide_pct as f64 / 100.0,
                        min_narrow: 0.1,
                    };
                }
                let vertices = base.vertices;
                (CaseProblem::Tree(base.build().unwrap()), 0, vertices)
            }
        };

        // Arbitrary-derived events with validity filtering: expiries only
        // name live arrivals from *earlier* batches (a same-batch arrival
        // has no ticket yet), windows fit the timeline, routes are proper.
        let mut live: Vec<usize> = (0..demands).collect();
        let mut next_arrival = demands;
        let epochs = draw(rng, 3, 7) as usize;
        let mut batches = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let events = draw(rng, 0, 5) as usize;
            let mut batch = Vec::with_capacity(events);
            let mut batch_arrivals: Vec<usize> = Vec::new();
            for _ in 0..events {
                if !live.is_empty() && draw(rng, 0, 99) < 45 {
                    let pos = draw(rng, 0, live.len() as u64 - 1) as usize;
                    batch.push(TraceEvent::Expire {
                        arrival: live.remove(pos),
                    });
                    continue;
                }
                let profit = 1.0 + draw(rng, 0, 80) as f64 / 10.0;
                let height = self.sample_height(rng, wide_pct);
                let access = self.sample_access(rng, networks);
                match self.shape {
                    ChurnShape::Line => {
                        let len = draw(rng, 1, 8.min(timeslots as u64));
                        let release = draw(rng, 0, timeslots as u64 - len);
                        let slack = draw(rng, 0, (timeslots as u64 - release - len).min(4));
                        batch.push(TraceEvent::ArriveLine {
                            release: release as u32,
                            deadline: (release + len - 1 + slack) as u32,
                            processing: len as u32,
                            profit,
                            height,
                            access,
                        });
                    }
                    ChurnShape::Tree => {
                        let u = draw(rng, 0, vertices as u64 - 1) as usize;
                        let mut v = draw(rng, 0, vertices as u64 - 1) as usize;
                        if v == u {
                            v = (v + 1) % vertices;
                        }
                        batch.push(TraceEvent::ArriveTree {
                            u: VertexId::new(u),
                            v: VertexId::new(v),
                            profit,
                            height,
                            access,
                        });
                    }
                }
                batch_arrivals.push(next_arrival);
                next_arrival += 1;
            }
            live.extend(batch_arrivals);
            batches.push(batch);
        }
        ChurnCase {
            shape: self.shape,
            networks,
            demands,
            seed,
            wide_pct,
            problem,
            trace: EventTrace { batches },
        }
    }

    fn shrink(&self, value: &ChurnCase) -> Vec<ChurnCase> {
        let batches = &value.trace.batches;
        let n = batches.len();
        let mut candidates: Vec<EventTrace> = Vec::new();
        // Most aggressive first: prefix truncations (always valid).
        if n > 1 {
            candidates.push(EventTrace {
                batches: batches[..n / 2].to_vec(),
            });
            candidates.push(EventTrace {
                batches: batches[..n - 1].to_vec(),
            });
        } else if n == 1 && !batches[0].is_empty() {
            candidates.push(EventTrace {
                batches: Vec::new(),
            });
        }
        // Drop whole batches, then single events (renumbered).
        for (b, batch) in batches.iter().enumerate() {
            if !batch.is_empty() {
                candidates.push(drop_events(&value.trace, value.demands, |bi, _| bi == b));
            }
        }
        for (b, batch) in batches.iter().enumerate() {
            if batch.len() > 1 {
                for e in 0..batch.len() {
                    candidates.push(drop_events(&value.trace, value.demands, |bi, ei| {
                        bi == b && ei == e
                    }));
                }
            }
        }
        candidates
            .into_iter()
            .filter(|trace| trace != &value.trace)
            .map(|trace| ChurnCase {
                trace,
                ..value.clone()
            })
            .collect()
    }
}

/// Removes every event `remove(batch, event)` selects from a trace,
/// keeping the result valid: expiries of removed arrivals are dropped and
/// the arrival indices later expiries reference are renumbered past the
/// holes (initial demands `0..initial` keep their indices).
pub fn drop_events(
    trace: &EventTrace,
    initial: usize,
    remove: impl Fn(usize, usize) -> bool,
) -> EventTrace {
    // First pass: the global arrival index of every removed arrival.
    let mut removed_arrivals: Vec<usize> = Vec::new();
    let mut arrival = initial;
    for (bi, batch) in trace.batches.iter().enumerate() {
        for (ei, event) in batch.iter().enumerate() {
            if event.is_arrival() {
                if remove(bi, ei) {
                    removed_arrivals.push(arrival);
                }
                arrival += 1;
            }
        }
    }
    // Old arrival index → new (None = removed).
    let renumber = |old: usize| -> Option<usize> {
        if removed_arrivals.binary_search(&old).is_ok() {
            return None;
        }
        Some(old - removed_arrivals.partition_point(|&r| r < old))
    };
    // Second pass: rebuild the surviving batches.
    let batches = trace
        .batches
        .iter()
        .enumerate()
        .map(|(bi, batch)| {
            batch
                .iter()
                .enumerate()
                .filter(|&(ei, _)| !remove(bi, ei))
                .filter_map(|(_, event)| match event {
                    TraceEvent::Expire { arrival } => {
                        renumber(*arrival).map(|arrival| TraceEvent::Expire { arrival })
                    }
                    arrive => Some(arrive.clone()),
                })
                .collect()
        })
        .collect();
    EventTrace { batches }
}
