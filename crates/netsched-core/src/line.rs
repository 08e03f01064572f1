//! The distributed algorithms for line networks with windows (Section 7).
//!
//! The timeline of `n` timeslots is a path graph, so the tree machinery
//! applies; the improvement of Section 7 is a better layered decomposition:
//! length classes with critical edges `{s(d), mid(d), e(d)}`, giving `∆ = 3`
//! and therefore a `(4 + ε)`-approximation for unit heights
//! (Theorem 7.1) and `(23 + ε)` for arbitrary heights (Theorem 7.2).
//!
//! The entry points are thin wrappers over the [`crate::Scheduler`] session
//! API (the algorithm bodies live in [`crate::LineUnitSolver`],
//! [`crate::LineNarrowSolver`] and [`crate::LineArbitrarySolver`]). All
//! returned instance ids refer to `problem.universe()`.

use crate::config::AlgorithmConfig;
use crate::solution::Solution;
use crate::solver::{LineArbitrarySolver, LineNarrowSolver, LineUnitSolver, Scheduler};
use netsched_graph::{DemandId, LineDemand, LineProblem};

/// Theorem 7.1: the distributed `(4 + ε)`-approximation for the unit-height
/// case of line networks with windows. Also used for the wide instances of
/// the arbitrary-height case.
///
/// ```
/// use netsched_core::{solve_line_unit, AlgorithmConfig};
/// use netsched_graph::{LineProblem, NetworkId};
///
/// // Two jobs of length 3 with enough window slack to run back to back on
/// // a single machine.
/// let mut problem = LineProblem::new(6, 1);
/// problem.add_demand(0, 5, 3, 1.0, 1.0, vec![NetworkId::new(0)]).unwrap();
/// problem.add_demand(0, 5, 3, 1.0, 1.0, vec![NetworkId::new(0)]).unwrap();
///
/// let solution = solve_line_unit(&problem, &AlgorithmConfig::deterministic(0.05));
/// solution.verify(&problem.universe()).unwrap();
/// assert_eq!(solution.len(), 2, "the windows let both jobs run");
/// ```
pub fn solve_line_unit(problem: &LineProblem, config: &AlgorithmConfig) -> Solution {
    Scheduler::for_line(problem).solve_with(&LineUnitSolver, config)
}

/// The `(19 + ε)`-approximation for line networks whose demands are all
/// narrow (Section 7, arbitrary-height case, narrow part).
pub fn solve_line_narrow(problem: &LineProblem, config: &AlgorithmConfig) -> Solution {
    Scheduler::for_line(problem).solve_with(&LineNarrowSolver, config)
}

/// Theorem 7.2: the distributed `(23 + ε)`-approximation for line networks
/// with windows and arbitrary heights, combining the wide (unit-height
/// algorithm) and narrow schedules per resource.
pub fn solve_line_arbitrary(problem: &LineProblem, config: &AlgorithmConfig) -> Solution {
    Scheduler::for_line(problem).solve_with(&LineArbitrarySolver, config)
}

/// Builds the line sub-problem containing only the demands selected by
/// `keep`, preserving timeslots and resources. Returns the sub-problem and
/// the mapping from its demand indices to the original demand ids.
pub fn line_subproblem<F: Fn(&LineDemand) -> bool>(
    problem: &LineProblem,
    keep: F,
) -> (LineProblem, Vec<DemandId>) {
    let mut sub = LineProblem::new(problem.timeslots(), problem.num_resources());
    let mut map = Vec::new();
    for demand in problem.demands() {
        if keep(demand) {
            sub.add_demand(
                demand.release,
                demand.deadline,
                demand.processing,
                demand.profit,
                demand.height,
                problem.access(demand.id).to_vec(),
            )
            .expect("copied demand must be valid");
            map.push(demand.id);
        }
    }
    (sub, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{approximation_bound, RaiseRule};
    use netsched_graph::fixtures::figure1_line_problem;
    use netsched_graph::NetworkId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_line_problem(seed: u64, n: u32, r: usize, m: usize, unit: bool) -> LineProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = LineProblem::new(n as usize, r);
        let acc_all: Vec<NetworkId> = (0..r).map(NetworkId::new).collect();
        for _ in 0..m {
            let len = rng.gen_range(1..=(n / 4).max(1));
            let release = rng.gen_range(0..=(n - len));
            let slack = rng.gen_range(0..=(n - release - len).min(6));
            let access: Vec<NetworkId> = acc_all
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.7))
                .collect();
            let access = if access.is_empty() {
                vec![acc_all[0]]
            } else {
                access
            };
            let height = if unit { 1.0 } else { rng.gen_range(0.05..=1.0) };
            p.add_demand(
                release,
                release + len - 1 + slack,
                len,
                rng.gen_range(1.0..=32.0),
                height,
                access,
            )
            .unwrap();
        }
        p
    }

    #[test]
    fn theorem_7_1_unit_line_certificate() {
        for seed in 0..3u64 {
            let p = random_line_problem(seed, 40, 2, 18, true);
            let u = p.universe();
            let sol = solve_line_unit(&p, &AlgorithmConfig::deterministic(0.1));
            sol.verify(&u).unwrap();
            assert!(sol.diagnostics.delta <= 3, "Section 7: ∆ ≤ 3");
            let bound = approximation_bound(RaiseRule::Unit, 3, 0.9);
            assert!(sol.certified_ratio().unwrap_or(1.0) <= bound + 1e-6);
        }
    }

    #[test]
    fn theorem_7_2_arbitrary_line_certificate() {
        for seed in 0..3u64 {
            let p = random_line_problem(seed, 40, 2, 20, false);
            let u = p.universe();
            let sol = solve_line_arbitrary(&p, &AlgorithmConfig::deterministic(0.1));
            sol.verify(&u).unwrap();
            assert!(sol.profit > 0.0);
            // p(S) ≥ max(p(S1), p(S2)) and OPT ≤ ub1 + ub2, so the certified
            // ratio is at most (4 + 19)/(1 − ε) + slack = (23 + ε').
            let ratio = sol.certified_ratio().unwrap();
            assert!(
                ratio <= 23.0 / 0.9 + 1e-6,
                "certified ratio {ratio} exceeds the Theorem 7.2 bound"
            );
        }
    }

    #[test]
    fn figure1_unit_semantics_schedules_the_best_pair() {
        // Treat Figure 1's demands as unit height: only one of them fits on
        // the resource at a time... actually A and C do not overlap, so the
        // unit-height optimum is {A, C} or {B, C} with 2 demands.
        let p = figure1_line_problem();
        let u = p.universe();
        let sol = solve_line_unit(&p, &AlgorithmConfig::deterministic(0.05));
        sol.verify(&u).unwrap();
        assert_eq!(sol.len(), 2, "two non-overlapping demands fit");
    }

    #[test]
    fn windows_let_the_algorithm_spread_jobs() {
        // Three identical unit-height jobs of length 2 with a window wide
        // enough for all three to fit sequentially on a single resource.
        let mut p = LineProblem::new(6, 1);
        let acc = vec![NetworkId::new(0)];
        for _ in 0..3 {
            p.add_demand(0, 5, 2, 1.0, 1.0, acc.clone()).unwrap();
        }
        let u = p.universe();
        let sol = solve_line_unit(&p, &AlgorithmConfig::deterministic(0.05));
        sol.verify(&u).unwrap();
        assert_eq!(sol.len(), 3, "all three jobs fit thanks to their windows");
    }

    #[test]
    fn narrow_jobs_share_a_resource() {
        // Four identical jobs of height 0.25 over the same timeslots; the
        // optimum schedules all four (total load 1.0). The primal-dual
        // algorithm stops raising once every constraint is (1 − ε)-satisfied,
        // so it may schedule fewer — but at least two, and the dual
        // certificate must still be within the (19 + ε) narrow-line bound.
        let mut p = LineProblem::new(8, 1);
        let acc = vec![NetworkId::new(0)];
        for _ in 0..4 {
            p.add_interval_demand(2, 4, 1.0, 0.25, acc.clone()).unwrap();
        }
        let u = p.universe();
        let sol = solve_line_arbitrary(&p, &AlgorithmConfig::deterministic(0.1));
        sol.verify(&u).unwrap();
        assert!(sol.len() >= 2, "at least two narrow jobs must be scheduled");
        // The certificate upper bound must cover the true optimum of 4.0.
        assert!(sol.diagnostics.optimum_upper_bound >= 4.0 - 1e-9);
        assert!(sol.certified_ratio().unwrap() <= 19.0 / 0.9 + 1e-6);
    }

    #[test]
    fn line_subproblem_partition() {
        let p = random_line_problem(4, 30, 2, 15, false);
        let (wide, wide_map) = line_subproblem(&p, |d| d.height > 0.5);
        let (narrow, narrow_map) = line_subproblem(&p, |d| d.height <= 0.5);
        assert_eq!(wide.num_demands() + narrow.num_demands(), p.num_demands());
        for &old in &wide_map {
            assert!(p.demand(old).height > 0.5);
        }
        for &old in &narrow_map {
            assert!(p.demand(old).height <= 0.5);
        }
        assert_eq!(wide.timeslots(), p.timeslots());
        assert_eq!(narrow.num_resources(), p.num_resources());
    }

    #[test]
    fn varying_resource_counts_all_verify_and_certify() {
        for r in [1usize, 2, 3] {
            let mut p = LineProblem::new(20, r);
            let acc: Vec<NetworkId> = (0..r).map(NetworkId::new).collect();
            let mut rng = StdRng::seed_from_u64(77);
            for _ in 0..10 {
                let len = rng.gen_range(2..=6u32);
                let release = rng.gen_range(0..=(20 - len));
                p.add_demand(
                    release,
                    release + len - 1,
                    len,
                    rng.gen_range(1.0..5.0),
                    1.0,
                    acc.clone(),
                )
                .unwrap();
            }
            let u = p.universe();
            let sol = solve_line_unit(&p, &AlgorithmConfig::deterministic(0.1));
            sol.verify(&u).unwrap();
            assert!(sol.profit > 0.0);
            assert!(sol.certified_ratio().unwrap() <= 4.0 / 0.9 + 1e-6);
        }
    }
}
