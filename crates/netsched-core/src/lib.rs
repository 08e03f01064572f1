//! The scheduling algorithms of "Distributed Algorithms for Scheduling on
//! Line and Tree Networks" (Chakaravarthy, Roy, Sabharwal; arXiv:1205.1924,
//! IPPS 2013), behind a unified [`Solver`] trait and a cached [`Scheduler`]
//! session API.
//!
//! # Architecture
//!
//! All six of the paper's algorithms are instantiations of one two-phase
//! primal-dual engine, [`framework::run_two_phase`], over a demand-instance
//! universe (`netsched-graph`), a layered decomposition (`netsched-decomp`)
//! and the distributed MIS substrate (`netsched-distrib`); they differ only
//! in the layering and the raise rule. The [`solver`] module lifts each of
//! them into a [`Solver`] implementation, and [`Scheduler`] provides the
//! session: it builds the universe, the layerings and the wide/narrow split
//! **once** and reuses them across repeated solves with different `ε`,
//! [`RaiseRule`] or seeds.
//!
//! # The dispatch table
//!
//! [`Scheduler::solve`] auto-selects the paper algorithm from the instance
//! shape (see [`Scheduler::auto_solver`]):
//!
//! | shape | heights | solver | paper result | guarantee |
//! |---|---|---|---|---|
//! | tree | all wide (`h > 1/2`, incl. unit) | [`UnitTreeSolver`] | Theorem 5.3 | `7/(1−ε)` |
//! | tree | all narrow (`h ≤ 1/2`) | [`NarrowTreeSolver`] | Lemma 6.2 | `73/(1−ε)` |
//! | tree | mixed | [`ArbitraryTreeSolver`] | Theorem 6.3 | `80/(1−ε)` |
//! | line | all wide | [`LineUnitSolver`] | Theorem 7.1 | `4/(1−ε)` |
//! | line | all narrow | [`LineNarrowSolver`] | Section 7 (narrow) | `19/(1−ε)` |
//! | line | mixed | [`LineArbitrarySolver`] | Theorem 7.2 | `23/(1−ε)` |
//!
//! The two mixed rows run the unit rule on the wide half of the demands and
//! the narrow rule on the narrow half, each a cold [`run_two_phase_on`],
//! and keep the better schedule per network through
//! [`combine_wide_narrow`]. That combination step is the only one: the
//! serving layer (`netsched-service`) feeds its own cold or warm-resumed
//! halves through it too.
//!
//! [`SequentialTreeSolver`] (Appendix A, sequential `3`-approximation) is in
//! the [`registry`] but never auto-selected: it trades polylogarithmic round
//! complexity for the better constant.
//!
//! The historical free functions ([`solve_unit_tree`],
//! [`solve_line_arbitrary`], …) remain as thin wrappers that create a
//! single-call session and delegate to the corresponding solver.
//!
//! Every solution carries a dual certificate: `diagnostics.optimum_upper_bound`
//! is a valid upper bound on the optimum (weak duality), so
//! [`solution::Solution::certified_ratio`] is an instance-specific,
//! machine-checked approximation ratio.
//!
//! The capacitated ("non-uniform bandwidths") extension of the IPPS version
//! is supported throughout: per-edge capacities of the
//! [`netsched_graph::TreeProblem`] are honoured by feasibility checks and by
//! the dual constraints via relative heights `h(d)/c(e)`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod budget;
pub mod config;
pub mod duals;
pub mod framework;
pub mod line;
pub mod sequential;
pub mod solution;
pub mod solver;
pub mod tree;
pub mod warm;

pub use analysis::{run_two_phase_traced, StepRecord, Trace};
pub use budget::{Budget, CertificateQuality, RoundCalibration};
pub use config::{approximation_bound, stage_xi, stages_per_epoch, AlgorithmConfig, RaiseRule};
pub use duals::DualState;
pub use framework::{run_two_phase, run_two_phase_on, run_two_phase_reference};
pub use line::{solve_line_arbitrary, solve_line_narrow, solve_line_unit};
pub use sequential::{run_sequential, solve_sequential_tree};
pub use solution::{EngineTimings, RunDiagnostics, Solution};
pub use solver::{
    combine_wide_narrow, registry, ArbitraryTreeSolver, BuildCounts, HalfOutcome,
    LineArbitrarySolver, LineNarrowSolver, LineUnitSolver, NarrowTreeSolver, Portfolio,
    PortfolioRun, Problem, ProblemKind, Scheduler, SequentialTreeSolver, SolveContext, Solver,
    SplitPart, UnitTreeSolver,
};
pub use tree::{solve_arbitrary_tree, solve_narrow_tree, solve_unit_tree, subproblem};
pub use warm::{run_two_phase_warm_on, WarmState};
