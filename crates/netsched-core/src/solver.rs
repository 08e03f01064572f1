//! The unified `Solver` trait and the cached `Scheduler` session API.
//!
//! The paper's six algorithms are all instantiations of one two-phase
//! primal-dual engine; this module exposes them (and any baseline) behind a
//! single polymorphic interface:
//!
//! * [`Problem`] — a borrowed tree-network or line-network instance, the one
//!   entry path for every solver;
//! * [`Solver`] — a named algorithm with an optional worst-case guarantee
//!   and a `solve` method over a [`SolveContext`];
//! * [`Scheduler`] — a *session* around one problem that builds the
//!   [`DemandInstanceUniverse`], the [`InstanceLayering`]s and the
//!   wide/narrow split **once** and reuses them across repeated solves with
//!   different `ε`, [`RaiseRule`] or seeds — the hot-path
//!   win for parameter sweeps, portfolios and the bench harness;
//! * [`registry`] — the paper's algorithms as boxed solvers (baselines
//!   register through the same trait in `netsched-baseline`);
//! * [`Scheduler::portfolio`] — run several solvers on the shared session
//!   caches and keep the best verified schedule.
//!
//! # Auto-selection (the dispatch table)
//!
//! [`Scheduler::solve`] picks the paper algorithm from the instance shape:
//!
//! | shape | heights | solver | paper result | guarantee |
//! |---|---|---|---|---|
//! | tree | all wide (`h > 1/2`) | [`UnitTreeSolver`] | Theorem 5.3 | `7/(1−ε)` |
//! | tree | all narrow (`h ≤ 1/2`) | [`NarrowTreeSolver`] | Lemma 6.2 | `73/(1−ε)` |
//! | tree | mixed | [`ArbitraryTreeSolver`] | Theorem 6.3 | `80/(1−ε)` |
//! | line | all wide | [`LineUnitSolver`] | Theorem 7.1 | `4/(1−ε)` |
//! | line | all narrow | [`LineNarrowSolver`] | Section 7 (narrow) | `19/(1−ε)` |
//! | line | mixed | [`LineArbitrarySolver`] | Theorem 7.2 | `23/(1−ε)` |
//!
//! Unit heights are a special case of "all wide": two overlapping wide
//! instances can never be scheduled together, so unit-height reasoning
//! applies verbatim (Section 6).
//!
//! # Representation
//!
//! Every cached structure is built on the implicit interval-path
//! representation of `netsched-graph`: universes store `O(log n)` interval
//! runs per tree instance (one run per line instance), universe
//! construction is `O(|D| log n)` rather than `O(Σ path length)`, and
//! conflicts are found by a deterministic interval sweep: once per shard
//! for the cached conflict degrees, and per MIS call among its candidates.
//! Sessions therefore stay cheap to open even for deep trees and
//! wide windows; see the `netsched-graph` crate docs for the complexity
//! table.
//!
//! # Example
//!
//! ```
//! use netsched_core::{AlgorithmConfig, Scheduler};
//! use netsched_graph::{TreeProblem, VertexId};
//!
//! let mut problem = TreeProblem::new(4);
//! let t = problem.add_network(vec![
//!     (VertexId(0), VertexId(1)),
//!     (VertexId(1), VertexId(2)),
//!     (VertexId(2), VertexId(3)),
//! ]).unwrap();
//! problem.add_unit_demand(VertexId(0), VertexId(2), 3.0, vec![t]).unwrap();
//! problem.add_unit_demand(VertexId(1), VertexId(3), 2.0, vec![t]).unwrap();
//!
//! // One session: the universe and decomposition are built once and shared
//! // by both solves and the portfolio.
//! let session = Scheduler::for_tree(&problem);
//! let coarse = session.solve(&AlgorithmConfig::deterministic(0.2));
//! let fine = session.solve(&AlgorithmConfig::deterministic(0.05));
//! coarse.verify(session.universe()).unwrap();
//! fine.verify(session.universe()).unwrap();
//! assert_eq!(session.build_counts().universe, 1);
//! ```

use crate::budget::Budget;
use crate::config::{AlgorithmConfig, RaiseRule};
use crate::framework::run_two_phase_on;
use crate::sequential::run_sequential;
use crate::solution::{RunDiagnostics, Solution};
use netsched_decomp::{InstanceLayering, TreeDecompositionKind};
use netsched_distrib::{RoundStats, ShardedConflictGraph};
use netsched_graph::{
    DemandId, DemandInstanceUniverse, InstanceId, LineProblem, NetworkId, TreeProblem,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The two network shapes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemKind {
    /// Tree networks (Sections 5 and 6).
    Tree,
    /// Line networks with windows (Section 7).
    Line,
}

/// A borrowed problem instance: the single entry path unifying
/// [`TreeProblem`] and [`LineProblem`] behind every [`Solver`].
#[derive(Clone, Copy)]
pub enum Problem<'p> {
    /// A tree-network problem.
    Tree(&'p TreeProblem),
    /// A line-network problem with windows.
    Line(&'p LineProblem),
}

impl<'p> Problem<'p> {
    /// The network shape.
    pub fn kind(&self) -> ProblemKind {
        match self {
            Problem::Tree(_) => ProblemKind::Tree,
            Problem::Line(_) => ProblemKind::Line,
        }
    }

    /// Number of demands.
    pub fn num_demands(&self) -> usize {
        match self {
            Problem::Tree(p) => p.num_demands(),
            Problem::Line(p) => p.num_demands(),
        }
    }

    /// `true` when every demand has height exactly 1.
    pub fn is_unit_height(&self) -> bool {
        match self {
            Problem::Tree(p) => p.is_unit_height(),
            Problem::Line(p) => p.is_unit_height(),
        }
    }

    /// `true` when every demand is wide (`h > 1/2`); vacuously true for an
    /// empty problem. Unit heights are the canonical wide case.
    pub fn all_wide(&self) -> bool {
        match self {
            Problem::Tree(p) => p.demands().iter().all(|d| d.is_wide()),
            Problem::Line(p) => p.demands().iter().all(|d| d.height > 0.5),
        }
    }

    /// `true` when every demand is narrow (`h ≤ 1/2`); vacuously true for an
    /// empty problem.
    pub fn all_narrow(&self) -> bool {
        match self {
            Problem::Tree(p) => p.demands().iter().all(|d| d.is_narrow()),
            Problem::Line(p) => p.demands().iter().all(|d| d.height <= 0.5),
        }
    }

    /// The borrowed tree problem, if this is one.
    pub fn as_tree(&self) -> Option<&'p TreeProblem> {
        match self {
            Problem::Tree(p) => Some(p),
            Problem::Line(_) => None,
        }
    }

    /// The borrowed line problem, if this is one.
    pub fn as_line(&self) -> Option<&'p LineProblem> {
        match self {
            Problem::Tree(_) => None,
            Problem::Line(p) => Some(p),
        }
    }

    /// Builds the demand-instance universe (prefer
    /// [`Scheduler::universe`], which caches it).
    pub fn build_universe(&self) -> DemandInstanceUniverse {
        match self {
            Problem::Tree(p) => p.universe(),
            Problem::Line(p) => p.universe(),
        }
    }

    /// The primary layered decomposition for this shape: the ideal tree
    /// layering (Lemma 4.3, `∆ ≤ 6`) or the line length-class layering
    /// (Section 7, `∆ ≤ 3`).
    fn build_layering(&self, universe: &DemandInstanceUniverse) -> InstanceLayering {
        match self {
            Problem::Tree(p) => {
                InstanceLayering::for_tree_problem(p, universe, TreeDecompositionKind::Ideal)
            }
            Problem::Line(_) => InstanceLayering::line_length_classes(universe),
        }
    }
}

impl std::fmt::Debug for Problem<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Problem::Tree(p) => f
                .debug_struct("Problem::Tree")
                .field("networks", &p.num_networks())
                .field("demands", &p.num_demands())
                .finish(),
            Problem::Line(p) => f
                .debug_struct("Problem::Line")
                .field("resources", &p.num_resources())
                .field("demands", &p.num_demands())
                .finish(),
        }
    }
}

/// A scheduling algorithm behind the unified interface.
///
/// `solve` receives a [`SolveContext`] giving access to the session's cached
/// universe, layerings and wide/narrow split, plus the run configuration.
/// Implementations must return instance ids of `ctx.universe()`.
pub trait Solver: Sync {
    /// Stable identifier used in registries, tables and portfolios.
    fn name(&self) -> &'static str;

    /// The worst-case approximation guarantee certified by the dual
    /// certificate at accuracy `eps`, or `None` when the solver makes no
    /// worst-case claim (heuristics). When `Some(g)`, every returned
    /// solution with positive profit satisfies
    /// `solution.certified_ratio() ≤ g` on supported instances.
    fn guarantee(&self, eps: f64) -> Option<f64>;

    /// Runs the algorithm on the session caches.
    fn solve(&self, ctx: &SolveContext<'_>) -> Solution;

    /// `true` when the solver's guarantee applies to this instance shape.
    /// Solvers still run on unsupported shapes (the schedule stays feasible)
    /// but the certificate may be meaningless; [`Scheduler::portfolio`] and
    /// the conformance suite filter by this predicate.
    fn supports(&self, _problem: &Problem<'_>) -> bool {
        true
    }
}

/// One cached half of the wide/narrow split used by the arbitrary-height
/// solvers (Theorems 6.3 and 7.2).
pub struct SplitPart {
    problem: OwnedProblem,
    map: Vec<DemandId>,
    universe: DemandInstanceUniverse,
    layering: InstanceLayering,
    conflict: OnceLock<ShardedConflictGraph>,
}

enum OwnedProblem {
    Tree(TreeProblem),
    Line(LineProblem),
}

impl SplitPart {
    /// The sub-universe of this half.
    pub fn universe(&self) -> &DemandInstanceUniverse {
        &self.universe
    }

    /// The layering of this half.
    pub fn layering(&self) -> &InstanceLayering {
        &self.layering
    }

    /// The conflict degrees of this half, built on first use and cached
    /// for the lifetime of the session.
    pub fn conflict(&self) -> &ShardedConflictGraph {
        self.conflict
            .get_or_init(|| ShardedConflictGraph::build(&self.universe))
    }

    /// Mapping from sub-problem demand indices to original demand ids.
    pub fn demand_map(&self) -> &[DemandId] {
        &self.map
    }

    /// The sub-problem as a [`Problem`] view.
    pub fn problem(&self) -> Problem<'_> {
        match &self.problem {
            OwnedProblem::Tree(p) => Problem::Tree(p),
            OwnedProblem::Line(p) => Problem::Line(p),
        }
    }
}

struct SplitCaches {
    wide: SplitPart,
    narrow: SplitPart,
}

/// How many times each expensive structure was constructed by a session;
/// after any number of solves on one [`Scheduler`] every count is at most 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildCounts {
    /// Demand-instance universe constructions.
    pub universe: usize,
    /// Primary layered-decomposition constructions.
    pub layering: usize,
    /// Appendix A layering constructions.
    pub sequential_layering: usize,
    /// Sharded conflict-graph constructions.
    pub conflict: usize,
    /// Wide/narrow split constructions (sub-problems, sub-universes and
    /// their layerings count as one build).
    pub split: usize,
}

/// A scheduling session around one problem.
///
/// The session lazily builds and caches everything the solvers need — the
/// [`DemandInstanceUniverse`], the primary [`InstanceLayering`], the
/// Appendix A layering and the wide/narrow split — and shares those caches
/// across every subsequent [`solve`](Scheduler::solve),
/// [`solve_with`](Scheduler::solve_with) and
/// [`portfolio`](Scheduler::portfolio) call, no matter how `ε`, the MIS
/// strategy or the seed vary between calls.
pub struct Scheduler<'p> {
    problem: Problem<'p>,
    universe: OnceLock<DemandInstanceUniverse>,
    layering: OnceLock<InstanceLayering>,
    sequential_layering: OnceLock<InstanceLayering>,
    split: OnceLock<SplitCaches>,
    conflict: OnceLock<ShardedConflictGraph>,
    universe_builds: AtomicUsize,
    layering_builds: AtomicUsize,
    sequential_layering_builds: AtomicUsize,
    split_builds: AtomicUsize,
    conflict_builds: AtomicUsize,
}

impl<'p> Scheduler<'p> {
    /// A session over any [`Problem`].
    pub fn new(problem: Problem<'p>) -> Self {
        Self {
            problem,
            universe: OnceLock::new(),
            layering: OnceLock::new(),
            sequential_layering: OnceLock::new(),
            split: OnceLock::new(),
            conflict: OnceLock::new(),
            universe_builds: AtomicUsize::new(0),
            layering_builds: AtomicUsize::new(0),
            sequential_layering_builds: AtomicUsize::new(0),
            split_builds: AtomicUsize::new(0),
            conflict_builds: AtomicUsize::new(0),
        }
    }

    /// A session over a tree problem.
    pub fn for_tree(problem: &'p TreeProblem) -> Self {
        Self::new(Problem::Tree(problem))
    }

    /// A session over a line problem.
    pub fn for_line(problem: &'p LineProblem) -> Self {
        Self::new(Problem::Line(problem))
    }

    /// The problem this session schedules.
    pub fn problem(&self) -> Problem<'p> {
        self.problem
    }

    /// The demand-instance universe, built on first use and cached for the
    /// lifetime of the session.
    pub fn universe(&self) -> &DemandInstanceUniverse {
        self.universe.get_or_init(|| {
            self.universe_builds.fetch_add(1, Ordering::Relaxed);
            self.problem.build_universe()
        })
    }

    /// The primary layered decomposition (ideal tree layering or line
    /// length classes), cached.
    pub fn layering(&self) -> &InstanceLayering {
        self.layering.get_or_init(|| {
            self.layering_builds.fetch_add(1, Ordering::Relaxed);
            self.problem.build_layering(self.universe())
        })
    }

    /// The Appendix A wings-only layering (tree problems only), cached.
    ///
    /// # Panics
    ///
    /// Panics for line problems — the Appendix A ordering is defined on
    /// rooted tree decompositions.
    pub fn sequential_layering(&self) -> &InstanceLayering {
        self.sequential_layering.get_or_init(|| {
            let problem = self
                .problem
                .as_tree()
                .expect("the Appendix A layering requires a tree problem");
            self.sequential_layering_builds
                .fetch_add(1, Ordering::Relaxed);
            InstanceLayering::appendix_a(problem, self.universe())
        })
    }

    /// The conflict degrees over the session universe, built on first use
    /// and cached; every subsequent solve reuses them instead of
    /// re-sweeping the universe.
    pub fn conflict(&self) -> &ShardedConflictGraph {
        self.conflict.get_or_init(|| {
            self.conflict_builds.fetch_add(1, Ordering::Relaxed);
            ShardedConflictGraph::build(self.universe())
        })
    }

    fn split(&self) -> &SplitCaches {
        self.split.get_or_init(|| {
            self.split_builds.fetch_add(1, Ordering::Relaxed);
            build_split(self.problem)
        })
    }

    /// The wide half (`h > 1/2`) of the cached wide/narrow split.
    pub fn wide(&self) -> &SplitPart {
        &self.split().wide
    }

    /// The narrow half (`h ≤ 1/2`) of the cached wide/narrow split.
    pub fn narrow(&self) -> &SplitPart {
        &self.split().narrow
    }

    /// How many times each cached structure has been constructed so far.
    pub fn build_counts(&self) -> BuildCounts {
        BuildCounts {
            universe: self.universe_builds.load(Ordering::Relaxed),
            layering: self.layering_builds.load(Ordering::Relaxed),
            sequential_layering: self.sequential_layering_builds.load(Ordering::Relaxed),
            conflict: self.conflict_builds.load(Ordering::Relaxed),
            split: self.split_builds.load(Ordering::Relaxed),
        }
    }

    /// The paper algorithm the dispatch table selects for this instance
    /// shape (see the module docs).
    pub fn auto_solver(&self) -> &'static dyn Solver {
        match (
            self.problem.kind(),
            self.problem.all_wide(),
            self.problem.all_narrow(),
        ) {
            (ProblemKind::Tree, true, _) => &UnitTreeSolver,
            (ProblemKind::Tree, _, true) => &NarrowTreeSolver,
            (ProblemKind::Tree, _, _) => &ArbitraryTreeSolver,
            (ProblemKind::Line, true, _) => &LineUnitSolver,
            (ProblemKind::Line, _, true) => &LineNarrowSolver,
            (ProblemKind::Line, _, _) => &LineArbitrarySolver,
        }
    }

    /// Solves with the auto-selected paper algorithm.
    pub fn solve(&self, config: &AlgorithmConfig) -> Solution {
        self.solve_with(self.auto_solver(), config)
    }

    /// Solves with an explicit solver, sharing the session caches.
    ///
    /// The solver runs even on shapes it does not
    /// [`support`](Solver::supports) (the schedule stays feasible; only the
    /// worst-case certificate interpretation is shape-dependent) — with one
    /// exception: a solver whose required cache exists for a single shape
    /// only, such as [`SequentialTreeSolver`] on a line problem, panics (see
    /// [`Scheduler::sequential_layering`]). [`Scheduler::portfolio`] filters
    /// by `supports` and never hits that case.
    pub fn solve_with(&self, solver: &dyn Solver, config: &AlgorithmConfig) -> Solution {
        let ctx = SolveContext {
            session: self,
            config,
        };
        solver.solve(&ctx)
    }

    /// Runs every solver in `solvers` that supports the instance shape and
    /// returns all verified runs; [`Portfolio::best`] is the most profitable
    /// verified schedule (ties broken by registry order).
    pub fn portfolio(&self, solvers: &[Box<dyn Solver>], config: &AlgorithmConfig) -> Portfolio {
        let universe = self.universe();
        let mut runs = Vec::new();
        for solver in solvers {
            if !solver.supports(&self.problem) {
                continue;
            }
            let solution = self.solve_with(solver.as_ref(), config);
            let verified = solution.verify(universe).is_ok();
            runs.push(PortfolioRun {
                name: solver.name(),
                guarantee: solver.guarantee(config.epsilon),
                verified,
                solution,
            });
        }
        Portfolio { runs }
    }
}

impl std::fmt::Debug for Scheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("problem", &self.problem)
            .field("build_counts", &self.build_counts())
            .finish()
    }
}

/// Everything a [`Solver`] may use during one solve: the borrowed session
/// (cached universe, layerings, split) and the run configuration.
pub struct SolveContext<'a> {
    session: &'a Scheduler<'a>,
    config: &'a AlgorithmConfig,
}

impl<'a> SolveContext<'a> {
    /// The problem under solution.
    pub fn problem(&self) -> Problem<'a> {
        self.session.problem()
    }

    /// The run configuration (`ε`, MIS strategy, seed).
    pub fn config(&self) -> &'a AlgorithmConfig {
        self.config
    }

    /// The cached demand-instance universe.
    pub fn universe(&self) -> &'a DemandInstanceUniverse {
        self.session.universe()
    }

    /// The cached primary layering.
    pub fn layering(&self) -> &'a InstanceLayering {
        self.session.layering()
    }

    /// The cached conflict degrees.
    pub fn conflict(&self) -> &'a ShardedConflictGraph {
        self.session.conflict()
    }

    /// The cached Appendix A layering (tree problems only).
    pub fn sequential_layering(&self) -> &'a InstanceLayering {
        self.session.sequential_layering()
    }

    /// The cached wide half of the split.
    pub fn wide(&self) -> &'a SplitPart {
        self.session.wide()
    }

    /// The cached narrow half of the split.
    pub fn narrow(&self) -> &'a SplitPart {
        self.session.narrow()
    }
}

/// One run inside a [`Portfolio`].
pub struct PortfolioRun {
    /// The solver that produced the run.
    pub name: &'static str,
    /// The solver's worst-case guarantee at the configured `ε`.
    pub guarantee: Option<f64>,
    /// Whether the solution passed `verify` against the session universe.
    pub verified: bool,
    /// The produced schedule.
    pub solution: Solution,
}

/// The outcome of [`Scheduler::portfolio`]: every supported solver's run and
/// the best verified schedule.
pub struct Portfolio {
    /// All runs, in solver order.
    pub runs: Vec<PortfolioRun>,
}

impl Portfolio {
    /// The most profitable verified run, if any solver produced one; ties
    /// go to the earliest solver in the list.
    pub fn best(&self) -> Option<&PortfolioRun> {
        let mut best: Option<&PortfolioRun> = None;
        for run in self.runs.iter().filter(|r| r.verified) {
            if best.is_none_or(|b| run.solution.profit > b.solution.profit) {
                best = Some(run);
            }
        }
        best
    }

    /// The best verified solution (panics when every run failed
    /// verification or no solver supported the shape).
    pub fn best_solution(&self) -> &Solution {
        &self
            .best()
            .expect("portfolio produced no verified solution")
            .solution
    }
}

fn build_split(problem: Problem<'_>) -> SplitCaches {
    match problem {
        Problem::Tree(p) => {
            let (wide, wide_map) = crate::tree::subproblem(p, |d| d.is_wide());
            let (narrow, narrow_map) = crate::tree::subproblem(p, |d| d.is_narrow());
            SplitCaches {
                wide: tree_split_part(wide, wide_map),
                narrow: tree_split_part(narrow, narrow_map),
            }
        }
        Problem::Line(p) => {
            let (wide, wide_map) = crate::line::line_subproblem(p, |d| d.height > 0.5);
            let (narrow, narrow_map) = crate::line::line_subproblem(p, |d| d.height <= 0.5);
            SplitCaches {
                wide: line_split_part(wide, wide_map),
                narrow: line_split_part(narrow, narrow_map),
            }
        }
    }
}

fn tree_split_part(problem: TreeProblem, map: Vec<DemandId>) -> SplitPart {
    let universe = problem.universe();
    let layering =
        InstanceLayering::for_tree_problem(&problem, &universe, TreeDecompositionKind::Ideal);
    SplitPart {
        problem: OwnedProblem::Tree(problem),
        map,
        universe,
        layering,
        conflict: OnceLock::new(),
    }
}

fn line_split_part(problem: LineProblem, map: Vec<DemandId>) -> SplitPart {
    let universe = problem.universe();
    let layering = InstanceLayering::line_length_classes(&universe);
    SplitPart {
        problem: OwnedProblem::Line(problem),
        map,
        universe,
        layering,
        conflict: OnceLock::new(),
    }
}

/// Translates instance ids of a split sub-universe back into instance ids of
/// the session universe, matching on (original demand, network, start slot).
fn translate_split_selection(
    sub_universe: &DemandInstanceUniverse,
    selection: &[InstanceId],
    demand_map: &[DemandId],
    original: &DemandInstanceUniverse,
) -> Vec<InstanceId> {
    selection
        .iter()
        .map(|&d| {
            let inst = sub_universe.instance(d);
            let orig_demand = demand_map[inst.demand.index()];
            *original
                .instances_of_demand(orig_demand)
                .iter()
                .find(|&&o| {
                    let oi = original.instance(o);
                    oi.network == inst.network && oi.start == inst.start
                })
                .expect("original universe must contain the matching instance")
        })
        .collect()
}

/// One solved half of a wide/narrow split, ready for
/// [`combine_wide_narrow`]: the half's sub-universe, the map from its
/// demand indices back to the original demand ids, and the half's engine
/// solution. The combination does not care how the half was solved:
/// [`Scheduler`] feeds cold runs over its cached [`SplitPart`]s, and the
/// serving layer (`netsched-service`) feeds cold or warm-resumed runs over
/// its incrementally maintained split cores.
pub struct HalfOutcome<'a> {
    /// The half's sub-universe.
    pub universe: &'a DemandInstanceUniverse,
    /// Sub-problem demand index → original demand id.
    pub demand_map: &'a [DemandId],
    /// The half's engine solution.
    pub solution: Solution,
}

/// Combines two already-solved wide/narrow halves (Theorems 6.3 and 7.2):
/// translate both schedules into `universe`'s instance ids, keep the more
/// profitable schedule per network, and add the dual certificates
/// (`OPT ≤ ub_w + ub_n`).
///
/// This is the one combination step of every mixed-height solve. The
/// caller runs the unit rule on the wide half and the narrow rule on the
/// narrow half, in that order; an empty half is an empty [`Solution`]
/// (the engine returns one for an empty universe). When both halves are
/// charged against one [`Budget`], a round cap bounds their total
/// first-phase work, and the combined certificate carries the merge of
/// the two halves' qualities. The combined timings are the halves' phase
/// sums, with the combination's own time added to the `certify` phase.
pub fn combine_wide_narrow(
    universe: &DemandInstanceUniverse,
    wide: HalfOutcome<'_>,
    narrow: HalfOutcome<'_>,
) -> Solution {
    let started = Instant::now();
    let wide_solution = wide.solution;
    let narrow_solution = narrow.solution;
    let wide_selected = translate_split_selection(
        wide.universe,
        &wide_solution.selected,
        wide.demand_map,
        universe,
    );
    let narrow_selected = translate_split_selection(
        narrow.universe,
        &narrow_solution.selected,
        narrow.demand_map,
        universe,
    );

    // Per network, keep the more profitable of the two schedules.
    let mut selected: Vec<InstanceId> = Vec::new();
    for t in 0..universe.num_networks() {
        let network = NetworkId::new(t);
        let w = universe.restrict_to_network(&wide_selected, network);
        let n = universe.restrict_to_network(&narrow_selected, network);
        if universe.total_profit(&w) >= universe.total_profit(&n) {
            selected.extend(w);
        } else {
            selected.extend(n);
        }
    }
    selected.sort_unstable();

    let mut stats = RoundStats::new();
    stats.merge(&wide_solution.stats);
    stats.merge(&narrow_solution.stats);

    let mut raised_instances = translate_split_selection(
        wide.universe,
        &wide_solution.raised_instances,
        wide.demand_map,
        universe,
    );
    raised_instances.extend(translate_split_selection(
        narrow.universe,
        &narrow_solution.raised_instances,
        narrow.demand_map,
        universe,
    ));
    raised_instances.sort_unstable();

    let wd = wide_solution.diagnostics;
    let nd = narrow_solution.diagnostics;
    let profit = universe.total_profit(&selected);
    let mut timings = wide_solution.timings.merged(narrow_solution.timings);
    timings.certify += started.elapsed();
    Solution {
        selected,
        raised_instances,
        profit,
        stats,
        diagnostics: RunDiagnostics {
            epochs: wd.epochs.max(nd.epochs),
            stages_per_epoch: wd.stages_per_epoch.max(nd.stages_per_epoch),
            steps: wd.steps + nd.steps,
            max_steps_per_stage: wd.max_steps_per_stage.max(nd.max_steps_per_stage),
            raised: wd.raised + nd.raised,
            capped_stages: wd.capped_stages + nd.capped_stages,
            delta: wd.delta.max(nd.delta),
            // Two genuinely empty (fully certified) halves mean an empty
            // universe: λ = 1 by convention. A budget-truncated half that
            // selected nothing must instead report its honest (tiny) λ,
            // or an anytime cut would masquerade as a perfect certificate.
            lambda: if wide_solution.is_empty()
                && narrow_solution.is_empty()
                && wd.quality.is_full()
                && nd.quality.is_full()
            {
                1.0
            } else {
                wd.lambda.min(nd.lambda).max(f64::MIN_POSITIVE)
            },
            dual_objective: wd.dual_objective + nd.dual_objective,
            // OPT ≤ OPT_wide + OPT_narrow ≤ ub_wide + ub_narrow.
            optimum_upper_bound: wd.optimum_upper_bound + nd.optimum_upper_bound,
            quality: wd.quality.merge(nd.quality),
        },
        timings,
    }
}

/// The wide/narrow combination over the session's cached split: the unit
/// rule on the wide half, then the narrow rule on the narrow half, each a
/// cold [`run_two_phase_on`], combined by [`combine_wide_narrow`].
fn solve_wide_narrow(ctx: &SolveContext<'_>) -> Solution {
    let half = |part: &SplitPart, rule: RaiseRule| {
        run_two_phase_on(
            &part.universe,
            part.conflict(),
            &part.layering,
            rule,
            ctx.config(),
            &Budget::unlimited(),
        )
    };
    let (wide, narrow) = (ctx.wide(), ctx.narrow());
    let wide_solution = half(wide, RaiseRule::Unit);
    let narrow_solution = half(narrow, RaiseRule::Narrow);
    combine_wide_narrow(
        ctx.universe(),
        HalfOutcome {
            universe: &wide.universe,
            demand_map: &wide.map,
            solution: wide_solution,
        },
        HalfOutcome {
            universe: &narrow.universe,
            demand_map: &narrow.map,
            solution: narrow_solution,
        },
    )
}

/// The two-phase engine over the session's cached full-universe
/// structures.
fn solve_engine(ctx: &SolveContext<'_>, rule: RaiseRule) -> Solution {
    run_two_phase_on(
        ctx.universe(),
        ctx.conflict(),
        ctx.layering(),
        rule,
        ctx.config(),
        &Budget::unlimited(),
    )
}

/// Theorem 5.3: the distributed `(7 + ε)`-approximation for unit-height /
/// all-wide tree instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitTreeSolver;

impl Solver for UnitTreeSolver {
    fn name(&self) -> &'static str {
        "tree-unit"
    }

    fn guarantee(&self, eps: f64) -> Option<f64> {
        // (∆ + 1)/λ with ∆ = 6 and λ = 1 − ε (Lemma 3.1 + Lemma 4.3).
        Some(7.0 / (1.0 - eps))
    }

    fn supports(&self, problem: &Problem<'_>) -> bool {
        problem.kind() == ProblemKind::Tree && problem.all_wide()
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Solution {
        solve_engine(ctx, RaiseRule::Unit)
    }
}

/// Lemma 6.2: the distributed `(73 + ε)`-approximation for all-narrow tree
/// instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct NarrowTreeSolver;

impl Solver for NarrowTreeSolver {
    fn name(&self) -> &'static str {
        "tree-narrow"
    }

    fn guarantee(&self, eps: f64) -> Option<f64> {
        // (2∆² + 1)/λ with ∆ = 6 (Lemma 6.1).
        Some(73.0 / (1.0 - eps))
    }

    fn supports(&self, problem: &Problem<'_>) -> bool {
        problem.kind() == ProblemKind::Tree && problem.all_narrow()
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Solution {
        solve_engine(ctx, RaiseRule::Narrow)
    }
}

/// Theorem 6.3: the distributed `(80 + ε)`-approximation for tree networks
/// with arbitrary heights (wide/narrow split + per-network best).
#[derive(Debug, Clone, Copy, Default)]
pub struct ArbitraryTreeSolver;

impl Solver for ArbitraryTreeSolver {
    fn name(&self) -> &'static str {
        "tree-arbitrary"
    }

    fn guarantee(&self, eps: f64) -> Option<f64> {
        // p(S) ≥ max(p_w, p_n) and OPT ≤ ub_w + ub_n with ub_w ≤ 7 p_w/(1−ε)
        // and ub_n ≤ 73 p_n/(1−ε), so the certified ratio is ≤ 80/(1−ε).
        Some(80.0 / (1.0 - eps))
    }

    fn supports(&self, problem: &Problem<'_>) -> bool {
        problem.kind() == ProblemKind::Tree
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Solution {
        solve_wide_narrow(ctx)
    }
}

/// Appendix A: the sequential 3-approximation for tree networks (singleton
/// raises in capture order, `∆ = 2`, `λ = 1`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialTreeSolver;

impl Solver for SequentialTreeSolver {
    fn name(&self) -> &'static str {
        "tree-sequential"
    }

    fn guarantee(&self, _eps: f64) -> Option<f64> {
        Some(3.0)
    }

    fn supports(&self, problem: &Problem<'_>) -> bool {
        problem.kind() == ProblemKind::Tree && problem.all_wide()
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Solution {
        run_sequential(ctx.universe(), ctx.sequential_layering())
    }
}

/// Theorem 7.1: the distributed `(4 + ε)`-approximation for unit-height /
/// all-wide line instances with windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineUnitSolver;

impl Solver for LineUnitSolver {
    fn name(&self) -> &'static str {
        "line-unit"
    }

    fn guarantee(&self, eps: f64) -> Option<f64> {
        // (∆ + 1)/λ with ∆ = 3 (Section 7 length classes).
        Some(4.0 / (1.0 - eps))
    }

    fn supports(&self, problem: &Problem<'_>) -> bool {
        problem.kind() == ProblemKind::Line && problem.all_wide()
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Solution {
        solve_engine(ctx, RaiseRule::Unit)
    }
}

/// Section 7 (narrow part): the distributed `(19 + ε)`-approximation for
/// all-narrow line instances with windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineNarrowSolver;

impl Solver for LineNarrowSolver {
    fn name(&self) -> &'static str {
        "line-narrow"
    }

    fn guarantee(&self, eps: f64) -> Option<f64> {
        // (2∆² + 1)/λ with ∆ = 3.
        Some(19.0 / (1.0 - eps))
    }

    fn supports(&self, problem: &Problem<'_>) -> bool {
        problem.kind() == ProblemKind::Line && problem.all_narrow()
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Solution {
        solve_engine(ctx, RaiseRule::Narrow)
    }
}

/// Theorem 7.2: the distributed `(23 + ε)`-approximation for line networks
/// with windows and arbitrary heights.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineArbitrarySolver;

impl Solver for LineArbitrarySolver {
    fn name(&self) -> &'static str {
        "line-arbitrary"
    }

    fn guarantee(&self, eps: f64) -> Option<f64> {
        // 4/(1−ε) on the wide half plus 19/(1−ε) on the narrow half.
        Some(23.0 / (1.0 - eps))
    }

    fn supports(&self, problem: &Problem<'_>) -> bool {
        problem.kind() == ProblemKind::Line
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Solution {
        solve_wide_narrow(ctx)
    }
}

/// The paper's algorithms as boxed solvers, in dispatch-table order. The
/// baselines of `netsched-baseline` register through the same trait; the
/// `netsched` facade chains both registries.
pub fn registry() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(UnitTreeSolver),
        Box::new(NarrowTreeSolver),
        Box::new(ArbitraryTreeSolver),
        Box::new(SequentialTreeSolver),
        Box::new(LineUnitSolver),
        Box::new(LineNarrowSolver),
        Box::new(LineArbitrarySolver),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsched_graph::fixtures::{figure1_line_problem, figure6_problem};
    use netsched_graph::VertexId;

    #[test]
    fn session_builds_every_structure_once() {
        let problem = figure6_problem();
        let session = Scheduler::for_tree(&problem);
        let a = session.solve(&AlgorithmConfig::deterministic(0.1));
        let b = session.solve(&AlgorithmConfig::deterministic(0.02));
        a.verify(session.universe()).unwrap();
        b.verify(session.universe()).unwrap();
        let counts = session.build_counts();
        assert_eq!(counts.universe, 1);
        assert_eq!(counts.layering, 1);
        // Finer ε means more stages per epoch.
        assert!(b.diagnostics.stages_per_epoch >= a.diagnostics.stages_per_epoch);
    }

    #[test]
    fn auto_selection_follows_the_dispatch_table() {
        let tree = figure6_problem(); // unit heights → all wide
        assert_eq!(Scheduler::for_tree(&tree).auto_solver().name(), "tree-unit");

        let line = figure1_line_problem(); // heights 0.5/0.7/0.4 → mixed
        assert_eq!(
            Scheduler::for_line(&line).auto_solver().name(),
            "line-arbitrary"
        );

        let mut narrow = TreeProblem::new(3);
        let t = narrow
            .add_network(vec![(VertexId(0), VertexId(1)), (VertexId(1), VertexId(2))])
            .unwrap();
        narrow
            .add_demand(VertexId(0), VertexId(2), 1.0, 0.25, vec![t])
            .unwrap();
        assert_eq!(
            Scheduler::for_tree(&narrow).auto_solver().name(),
            "tree-narrow"
        );
        narrow
            .add_demand(VertexId(0), VertexId(1), 1.0, 0.9, vec![t])
            .unwrap();
        assert_eq!(
            Scheduler::for_tree(&narrow).auto_solver().name(),
            "tree-arbitrary"
        );
    }

    #[test]
    fn portfolio_keeps_the_best_verified_run() {
        let problem = figure6_problem();
        let session = Scheduler::for_tree(&problem);
        let config = AlgorithmConfig::deterministic(0.1);
        let portfolio = session.portfolio(&registry(), &config);
        assert!(!portfolio.runs.is_empty());
        let best = portfolio.best().expect("at least one verified run");
        for run in &portfolio.runs {
            assert!(run.verified, "{} failed verification", run.name);
            assert!(best.solution.profit + 1e-12 >= run.solution.profit);
        }
        best.solution.verify(session.universe()).unwrap();
        // The split and both layerings were each built at most once.
        assert!(session.build_counts().split <= 1);
        assert_eq!(session.build_counts().universe, 1);
    }

    #[test]
    fn the_combination_counts_as_certify_time() {
        // Two empty halves carry zero timings, so every nanosecond of the
        // combined timings is the combination's own.
        let universe = figure1_line_problem().universe();
        let half = || HalfOutcome {
            universe: &universe,
            demand_map: &[],
            solution: Solution::empty(),
        };
        let timings = combine_wide_narrow(&universe, half(), half()).timings;
        let [setup, repair, refresh, replay, raised_set, certify] = timings.phases();
        assert!(certify > std::time::Duration::ZERO);
        assert_eq!(
            setup + repair + refresh + replay + raised_set,
            Default::default()
        );
    }

    #[test]
    fn guarantees_match_the_paper_table() {
        let eps = 0.1;
        assert!((UnitTreeSolver.guarantee(eps).unwrap() - 7.0 / 0.9).abs() < 1e-12);
        assert!((NarrowTreeSolver.guarantee(eps).unwrap() - 73.0 / 0.9).abs() < 1e-12);
        assert!((ArbitraryTreeSolver.guarantee(eps).unwrap() - 80.0 / 0.9).abs() < 1e-12);
        assert_eq!(SequentialTreeSolver.guarantee(eps), Some(3.0));
        assert!((LineUnitSolver.guarantee(eps).unwrap() - 4.0 / 0.9).abs() < 1e-12);
        assert!((LineNarrowSolver.guarantee(eps).unwrap() - 19.0 / 0.9).abs() < 1e-12);
        assert!((LineArbitrarySolver.guarantee(eps).unwrap() - 23.0 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn portfolio_ties_go_to_the_earliest_solver() {
        let run = |name: &'static str, profit: f64, verified: bool| PortfolioRun {
            name,
            guarantee: None,
            verified,
            solution: {
                let mut s = Solution::empty();
                s.profit = profit;
                s
            },
        };
        let portfolio = Portfolio {
            runs: vec![
                run("unverified-top", 9.0, false),
                run("first", 5.0, true),
                run("second", 5.0, true),
                run("worse", 4.0, true),
            ],
        };
        assert_eq!(portfolio.best().unwrap().name, "first");
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
