//! The sequential algorithm of Appendix A.
//!
//! Root every tree network arbitrarily, order the demand instances of each
//! network by decreasing depth of their capture node `µ(d)`, and raise them
//! one at a time (singleton independent sets) with `π(d)` = the wings of
//! `µ(d)` — so `∆ = 2` and `λ = 1`, giving a 3-approximation by Lemma 3.1.
//! With a single tree network (one instance per demand) the `α` variables
//! can be dropped, improving the ratio to 2 (the algorithm of Lewin-Eytan,
//! Naor and Orda).

use crate::config::RaiseRule;
use crate::duals::DualState;
use crate::solution::{EngineTimings, RunDiagnostics, Solution};
use netsched_decomp::InstanceLayering;
use netsched_distrib::RoundStats;
use netsched_graph::{
    DemandInstanceUniverse, InstanceId, LoadTracker, NetworkId, TreeProblem, EPS,
};

/// Runs the Appendix A sequential algorithm on a tree problem (unit-height
/// semantics: selected paths on a network must be edge-disjoint; with the
/// capacitated extension, per-edge capacities are still respected in the
/// second phase).
///
/// The returned instance ids refer to `problem.universe()`. Delegates
/// through a [`crate::Scheduler`] session, so the universe and the
/// Appendix A layering are built exactly once.
pub fn solve_sequential_tree(problem: &TreeProblem) -> Solution {
    crate::Scheduler::for_tree(problem).solve_with(
        &crate::SequentialTreeSolver,
        &crate::AlgorithmConfig::default(),
    )
}

/// As [`solve_sequential_tree`] but reusing an already-built universe
/// (which must be `problem.universe()`).
pub fn solve_sequential_on(problem: &TreeProblem, universe: &DemandInstanceUniverse) -> Solution {
    if universe.num_instances() == 0 {
        return Solution::empty();
    }
    let layering = InstanceLayering::appendix_a(problem, universe);
    run_sequential(universe, &layering)
}

/// The Appendix A engine over a prebuilt wings-only layering — the single
/// code path behind [`solve_sequential_tree`], [`solve_sequential_on`] and
/// [`crate::SequentialTreeSolver`].
pub fn run_sequential(universe: &DemandInstanceUniverse, layering: &InstanceLayering) -> Solution {
    if universe.num_instances() == 0 {
        return Solution::empty();
    }
    // Single-tree optimization: when every demand has exactly one instance,
    // the α variables are unnecessary (Appendix A, last paragraph).
    let single_instance_per_demand = (0..universe.num_demands()).all(|a| {
        universe
            .instances_of_demand(netsched_graph::DemandId::new(a))
            .len()
            <= 1
    });

    let mut duals = DualState::new(universe, RaiseRule::Unit);
    let mut stats = RoundStats::new();
    let mut stack: Vec<InstanceId> = Vec::new();

    // First phase: process the networks one after the other; within a
    // network, process instances by increasing group index (deepest capture
    // node first). Raising an instance only increases the LHS of later
    // constraints, so a single pass in σ order suffices.
    for q in 0..universe.num_networks() {
        let network = NetworkId::new(q);
        let mut order: Vec<InstanceId> = universe.instances_on_network(network).to_vec();
        order.sort_by_key(|&d| (layering.group(d), d));
        for d in order {
            if duals.is_xi_satisfied(universe, d, 1.0) {
                continue;
            }
            duals.raise_with_options(
                universe,
                d,
                layering.critical(d),
                !single_instance_per_demand,
            );
            stack.push(d);
            stats.record_round();
            stats.record_messages(1, layering.critical(d).len() as u64 + 1);
        }
    }

    // Second phase: reverse order, greedy feasibility with incremental
    // congestion tracking (O(path(d)) per candidate).
    let mut tracker = LoadTracker::new(universe);
    let mut selected: Vec<InstanceId> = Vec::new();
    for &d in stack.iter().rev() {
        if tracker.try_commit(universe, d) {
            selected.push(d);
        }
        stats.record_round();
    }
    selected.sort_unstable();

    let lambda = universe
        .instance_ids()
        .map(|d| duals.lhs(universe, d) / universe.profit(d))
        .fold(1.0_f64, f64::min)
        .max(EPS);
    let dual_objective = duals.objective();
    let profit = universe.total_profit(&selected);
    let raised = stack.len() as u64;
    let mut raised_instances = stack;
    raised_instances.sort_unstable();

    Solution {
        selected,
        raised_instances,
        profit,
        stats,
        diagnostics: RunDiagnostics {
            epochs: universe.num_networks(),
            stages_per_epoch: 1,
            steps: raised,
            max_steps_per_stage: raised,
            raised,
            capped_stages: 0,
            delta: layering.max_critical(),
            lambda,
            dual_objective,
            optimum_upper_bound: dual_objective / lambda,
            quality: crate::budget::CertificateQuality::Full,
        },
        timings: EngineTimings::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsched_graph::fixtures::{figure6_problem, paper_vertex, two_tree_problem};
    use netsched_graph::VertexId;

    #[test]
    fn figure6_sequential_solution_is_feasible_and_good() {
        let p = figure6_problem();
        let u = p.universe();
        let sol = solve_sequential_tree(&p);
        sol.verify(&u).unwrap();
        // Demands: ⟨4,13⟩ (profit 3), ⟨2,3⟩ (profit 2), ⟨12,13⟩ (profit 1).
        // ⟨4,13⟩ and ⟨12,13⟩ overlap (edge (8,13)); ⟨2,3⟩ overlaps ⟨4,13⟩ on
        // edge (1,2)? The path of ⟨2,3⟩ is 2-1-3 and of ⟨4,13⟩ is 4-2-5-8-13:
        // they share only vertex 2, no edge, so they are compatible. The
        // optimum is {⟨4,13⟩, ⟨2,3⟩} with profit 5.
        assert!(sol.profit >= 4.0, "profit {} too low", sol.profit);
        assert!(sol.diagnostics.delta <= 2);
        assert!((sol.diagnostics.lambda - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_tree_runs_without_alpha_and_reaches_optimum_here() {
        // A path graph with three demands: two short disjoint ones and one
        // long overlapping both. Profits make the two short ones optimal.
        let mut p = TreeProblem::new(7);
        let t = p
            .add_network(
                (0..6)
                    .map(|i| (VertexId::new(i), VertexId::new(i + 1)))
                    .collect(),
            )
            .unwrap();
        p.add_unit_demand(VertexId(0), VertexId(3), 3.0, vec![t])
            .unwrap();
        p.add_unit_demand(VertexId(3), VertexId(6), 3.0, vec![t])
            .unwrap();
        p.add_unit_demand(VertexId(0), VertexId(6), 4.0, vec![t])
            .unwrap();
        let u = p.universe();
        let sol = solve_sequential_tree(&p);
        sol.verify(&u).unwrap();
        assert!(
            (sol.profit - 6.0).abs() < 1e-9,
            "expected the two short demands"
        );
    }

    #[test]
    fn multi_tree_sequential_matches_lemma_3_1() {
        let p = two_tree_problem();
        let u = p.universe();
        let sol = solve_sequential_tree(&p);
        sol.verify(&u).unwrap();
        let d = sol.diagnostics;
        assert!(
            sol.profit * (d.delta as f64 + 1.0) + 1e-6 >= d.dual_objective,
            "Lemma 3.1 inequality violated"
        );
        // 3-approximation certificate.
        assert!(sol.certified_ratio().unwrap() <= 3.0 + 1e-6);
    }

    #[test]
    fn sequential_respects_captured_order() {
        // Two nested demands on a path: the inner (deeper capture) one is
        // raised first, so with equal profits the second phase prefers it.
        let mut p = TreeProblem::new(9);
        let t = p
            .add_network(
                (0..8)
                    .map(|i| (VertexId::new(i), VertexId::new(i + 1)))
                    .collect(),
            )
            .unwrap();
        p.add_unit_demand(VertexId(3), VertexId(5), 1.0, vec![t])
            .unwrap(); // inner
        p.add_unit_demand(VertexId(1), VertexId(8), 1.0, vec![t])
            .unwrap(); // outer
        let u = p.universe();
        let sol = solve_sequential_tree(&p);
        sol.verify(&u).unwrap();
        assert_eq!(sol.len(), 1);
        // With λ = 1 and equal profits the inner demand is tight first and
        // survives the stack-based second phase.
        let chosen = u.instance(sol.selected[0]).demand;
        assert_eq!(chosen.index(), 0, "the inner demand should win");
    }

    #[test]
    fn figure6_capture_points_drive_grouping() {
        // Sanity: the demand ⟨4, 13⟩ is captured at vertex 2 in the
        // root-fixing decomposition rooted at vertex 1 (Appendix A example),
        // so it is processed after demands captured deeper in the tree.
        let p = figure6_problem();
        let u = p.universe();
        let layering = InstanceLayering::appendix_a(&p, &u);
        // Instance 0 is ⟨4,13⟩ (captured at 2, depth 2); instance 2 is
        // ⟨12,13⟩ (captured at 8, depth 4). Deeper capture ⇒ smaller group.
        assert!(layering.group(InstanceId::new(2)) < layering.group(InstanceId::new(0)));
        let _ = paper_vertex(2); // documentation anchor
    }
}
