//! The distributed algorithms for tree networks (Sections 5 and 6).
//!
//! * [`solve_unit_tree`] — the main result (Theorem 5.3): a `(7 + ε)`-
//!   approximation for the unit-height case, using the ideal tree
//!   decomposition (∆ = 6) and slackness `λ = 1 − ε`.
//! * [`solve_narrow_tree`] — the `(73 + ε)`-approximation for inputs whose
//!   demands are all narrow (Lemma 6.2).
//! * [`solve_arbitrary_tree`] — the `(80 + ε)`-approximation for arbitrary
//!   heights (Theorem 6.3): wide demands are handled by the unit-height
//!   algorithm, narrow demands by the narrow algorithm, and per network the
//!   more profitable of the two schedules is kept.
//!
//! Every function here is a thin wrapper over the [`crate::Scheduler`]
//! session API: the algorithm bodies live in the [`crate::Solver`]
//! implementations ([`crate::UnitTreeSolver`], [`crate::NarrowTreeSolver`],
//! [`crate::ArbitraryTreeSolver`]), and the session guarantees that the
//! universe, the layered decomposition and the wide/narrow split are each
//! built exactly once per call. All returned instance ids refer to
//! `problem.universe()`.

use crate::config::AlgorithmConfig;
use crate::solution::Solution;
use crate::solver::{ArbitraryTreeSolver, NarrowTreeSolver, Scheduler, UnitTreeSolver};
use netsched_graph::{Demand, DemandId, NetworkId, TreeProblem};

/// Theorem 5.3: the distributed `(7 + ε)`-approximation for the unit-height
/// case of tree networks. Also used for the *wide* instances of the
/// arbitrary-height case (two overlapping wide instances can never be
/// scheduled together, so unit-height reasoning applies).
///
/// ```
/// use netsched_core::{solve_unit_tree, AlgorithmConfig};
/// use netsched_graph::{TreeProblem, VertexId};
///
/// // A 4-vertex path shared by two conflicting transfers.
/// let mut problem = TreeProblem::new(4);
/// let t = problem.add_network(vec![
///     (VertexId(0), VertexId(1)),
///     (VertexId(1), VertexId(2)),
///     (VertexId(2), VertexId(3)),
/// ]).unwrap();
/// problem.add_unit_demand(VertexId(0), VertexId(2), 3.0, vec![t]).unwrap();
/// problem.add_unit_demand(VertexId(1), VertexId(3), 2.0, vec![t]).unwrap();
///
/// let solution = solve_unit_tree(&problem, &AlgorithmConfig::deterministic(0.1));
/// let universe = problem.universe();
/// solution.verify(&universe).unwrap();
/// // Only one of the two overlapping demands fits; the certificate bounds OPT.
/// assert_eq!(solution.len(), 1);
/// assert!(solution.diagnostics.optimum_upper_bound >= 3.0);
/// ```
pub fn solve_unit_tree(problem: &TreeProblem, config: &AlgorithmConfig) -> Solution {
    Scheduler::for_tree(problem).solve_with(&UnitTreeSolver, config)
}

/// Lemma 6.2: the distributed `(73 + ε)`-approximation for tree networks
/// whose demands are all narrow (`h(a) ≤ 1/2`).
pub fn solve_narrow_tree(problem: &TreeProblem, config: &AlgorithmConfig) -> Solution {
    Scheduler::for_tree(problem).solve_with(&NarrowTreeSolver, config)
}

/// Theorem 6.3: the distributed `(80 + ε)`-approximation for tree networks
/// with arbitrary heights.
///
/// The demands are partitioned into wide (`h > 1/2`) and narrow
/// (`h ≤ 1/2`); the unit-height algorithm schedules the wide ones, the
/// narrow algorithm the narrow ones, and for every network the more
/// profitable of the two per-network schedules is kept.
pub fn solve_arbitrary_tree(problem: &TreeProblem, config: &AlgorithmConfig) -> Solution {
    Scheduler::for_tree(problem).solve_with(&ArbitraryTreeSolver, config)
}

/// Builds the sub-problem containing only the demands selected by `keep`
/// (networks and capacities are copied verbatim). Returns the sub-problem
/// and the mapping from its demand indices to the original demand ids.
pub fn subproblem<F: Fn(&Demand) -> bool>(
    problem: &TreeProblem,
    keep: F,
) -> (TreeProblem, Vec<DemandId>) {
    let mut sub = TreeProblem::new(problem.num_vertices());
    for t in 0..problem.num_networks() {
        let network = problem.network(NetworkId::new(t));
        let edges = network.edges().map(|(_, uv)| uv).collect();
        let id = sub
            .add_network(edges)
            .expect("copied network must be valid");
        for (e, &cap) in problem.capacities(NetworkId::new(t)).iter().enumerate() {
            if (cap - 1.0).abs() > f64::EPSILON {
                sub.set_capacity(id, e, cap)
                    .expect("copied capacity must be valid");
            }
        }
    }
    let mut map = Vec::new();
    for demand in problem.demands() {
        if keep(demand) {
            sub.add_demand(
                demand.u,
                demand.v,
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
    use netsched_graph::fixtures::figure6_problem;
    use netsched_graph::VertexId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_problem(seed: u64, n: usize, r: usize, m: usize, unit: bool) -> TreeProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = TreeProblem::new(n);
        let mut nets = Vec::new();
        for _ in 0..r {
            let edges = (1..n)
                .map(|i| (VertexId::new(rng.gen_range(0..i)), VertexId::new(i)))
                .collect();
            nets.push(p.add_network(edges).unwrap());
        }
        for _ in 0..m {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            while v == u {
                v = rng.gen_range(0..n);
            }
            let access: Vec<NetworkId> =
                nets.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
            let access = if access.is_empty() {
                vec![nets[0]]
            } else {
                access
            };
            let height = if unit { 1.0 } else { rng.gen_range(0.05..=1.0) };
            p.add_demand(
                VertexId::new(u),
                VertexId::new(v),
                rng.gen_range(1.0..32.0),
                height,
                access,
            )
            .unwrap();
        }
        p
    }

    #[test]
    fn unit_tree_theorem_5_3_certificate() {
        for seed in 0..3u64 {
            let p = random_problem(seed, 30, 3, 25, true);
            let u = p.universe();
            let cfg = AlgorithmConfig::deterministic(0.1);
            let sol = solve_unit_tree(&p, &cfg);
            sol.verify(&u).unwrap();
            assert!(sol.diagnostics.delta <= 6, "Lemma 4.3: ∆ ≤ 6");
            // The certified ratio must respect the (7 + ε) bound.
            let bound = approximation_bound(RaiseRule::Unit, 6, 1.0 - 0.1);
            assert!(
                sol.certified_ratio().unwrap_or(1.0) <= bound + 1e-6,
                "certified ratio exceeds 7/(1−ε)"
            );
        }
    }

    #[test]
    fn narrow_tree_lemma_6_2_certificate() {
        for seed in 0..3u64 {
            let mut p = random_problem(seed, 25, 2, 20, true);
            // Rebuild with narrow heights.
            let mut narrow = TreeProblem::new(p.num_vertices());
            for t in 0..p.num_networks() {
                let edges = p
                    .network(NetworkId::new(t))
                    .edges()
                    .map(|(_, uv)| uv)
                    .collect();
                narrow.add_network(edges).unwrap();
            }
            let mut rng = StdRng::seed_from_u64(seed + 100);
            for d in p.demands() {
                narrow
                    .add_demand(
                        d.u,
                        d.v,
                        d.profit,
                        rng.gen_range(0.05..=0.5),
                        p.access(d.id).to_vec(),
                    )
                    .unwrap();
            }
            p = narrow;
            let u = p.universe();
            let sol = solve_narrow_tree(&p, &AlgorithmConfig::deterministic(0.1));
            sol.verify(&u).unwrap();
            let bound = approximation_bound(RaiseRule::Narrow, sol.diagnostics.delta, 0.9);
            assert!(sol.certified_ratio().unwrap_or(1.0) <= bound + 1e-6);
        }
    }

    #[test]
    fn arbitrary_tree_theorem_6_3() {
        for seed in 0..3u64 {
            let p = random_problem(seed, 25, 3, 30, false);
            let u = p.universe();
            let sol = solve_arbitrary_tree(&p, &AlgorithmConfig::deterministic(0.1));
            sol.verify(&u).unwrap();
            assert!(sol.profit > 0.0);
            // The combined certificate (ub_wide + ub_narrow) must be within
            // the (80 + ε) guarantee of the combined profit... in fact the
            // paper's analysis gives p(S) ≥ max(p(S1), p(S2)) ≥
            // (OPT1 + OPT2)/(80 + 2ε) ≥ OPT/(80 + 2ε).
            let ratio = sol.certified_ratio().unwrap();
            assert!(
                ratio <= (80.0 + 2.0) / 0.9 + 1e-6,
                "certified ratio {ratio} exceeds the Theorem 6.3 bound"
            );
        }
    }

    #[test]
    fn arbitrary_tree_on_unit_heights_degenerates_to_unit_algorithm() {
        let p = figure6_problem();
        let u = p.universe();
        let arb = solve_arbitrary_tree(&p, &AlgorithmConfig::deterministic(0.1));
        let unit = solve_unit_tree(&p, &AlgorithmConfig::deterministic(0.1));
        arb.verify(&u).unwrap();
        unit.verify(&u).unwrap();
        // All demands are wide (height 1), so the narrow half is empty and
        // the combined solution equals the wide one.
        assert_eq!(arb.selected, unit.selected);
    }

    #[test]
    fn subproblem_splits_and_maps_back() {
        let p = random_problem(5, 20, 2, 15, false);
        let (wide, wide_map) = subproblem(&p, |d| d.is_wide());
        let (narrow, narrow_map) = subproblem(&p, |d| d.is_narrow());
        assert_eq!(wide.num_demands() + narrow.num_demands(), p.num_demands());
        assert_eq!(wide.num_networks(), p.num_networks());
        for (new_idx, &old) in wide_map.iter().enumerate() {
            assert!(p.demand(old).is_wide());
            assert_eq!(
                wide.demand(DemandId::new(new_idx)).profit,
                p.demand(old).profit
            );
        }
        for &old in &narrow_map {
            assert!(p.demand(old).is_narrow());
        }
    }

    #[test]
    fn wide_and_narrow_never_mix_on_a_network_in_the_combined_solution() {
        let p = random_problem(9, 20, 3, 30, false);
        let u = p.universe();
        let sol = solve_arbitrary_tree(&p, &AlgorithmConfig::deterministic(0.15));
        for t in 0..u.num_networks() {
            let on_t = sol.on_network(&u, NetworkId::new(t));
            let wide = on_t.iter().filter(|&&d| u.instance(d).is_wide()).count();
            let narrow = on_t.len() - wide;
            assert!(
                wide == 0 || narrow == 0,
                "network {t} mixes wide and narrow instances"
            );
        }
    }
}
