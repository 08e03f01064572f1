//! Execution tracing and analysis of two-phase runs.
//!
//! The proofs of Lemma 3.1 and Lemma 5.1 reason about *which* instances were
//! raised, in which step, by how much, and who "killed" whom (Claim 5.2).
//! [`run_two_phase_traced`] is a [`crate::framework::run_two_phase`] whose
//! engine records a [`Trace`] of every step as it runs, which the
//! experiment harness and the tests use to inspect kill chains, per-stage
//! step counts and the per-instance raise amounts δ(d).

use crate::budget::Budget;
use crate::config::{AlgorithmConfig, RaiseRule};
use crate::solution::Solution;
use crate::warm::{warm_impl, WarmState};
use netsched_decomp::InstanceLayering;
use netsched_distrib::{ConflictGraph, ShardedConflictGraph};
use netsched_graph::{DemandInstanceUniverse, InstanceId};

/// One first-phase step (one MIS computation plus the simultaneous raises).
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Epoch index (group of the layered decomposition).
    pub epoch: usize,
    /// Stage index within the epoch (1-based, as in the pseudocode).
    pub stage: usize,
    /// Step index within the stage (0-based).
    pub step: usize,
    /// Number of instances that were still unsatisfied at this step.
    pub unsatisfied: usize,
    /// The instances raised in this step (the MIS), with their raise
    /// amounts δ(d).
    pub raised: Vec<(InstanceId, f64)>,
}

/// A full trace of the first phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Every step in execution order.
    pub steps: Vec<StepRecord>,
}

impl Trace {
    /// Total number of steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// The raise amount δ(d) of an instance (0 if it was never raised).
    pub fn delta_of(&self, d: InstanceId) -> f64 {
        self.steps
            .iter()
            .flat_map(|s| s.raised.iter())
            .find(|(i, _)| *i == d)
            .map(|(_, delta)| *delta)
            .unwrap_or(0.0)
    }

    /// All raised instances in raise order.
    pub fn raised_in_order(&self) -> Vec<InstanceId> {
        self.steps
            .iter()
            .flat_map(|s| s.raised.iter().map(|(d, _)| *d))
            .collect()
    }

    /// The maximum number of steps observed in any single (epoch, stage)
    /// pair — the quantity bounded by Lemma 5.1.
    pub fn max_steps_per_stage(&self) -> usize {
        use std::collections::HashMap;
        let mut counts: HashMap<(usize, usize), usize> = HashMap::new();
        for s in &self.steps {
            *counts.entry((s.epoch, s.stage)).or_default() += 1;
        }
        counts.values().copied().max().unwrap_or(0)
    }

    /// Extracts the *kill chains* of Lemma 5.1: within one (epoch, stage),
    /// if `d1` is raised in step `i` and a conflicting `d2` is raised in a
    /// later step of the same stage, then `d1` "killed" `d2` at step `i`.
    /// Returns, per stage, the longest chain `d_1 → d_2 → …` found; Claim
    /// 5.2 predicts that profits double along each chain.
    pub fn longest_kill_chain(&self, conflict: &ConflictGraph) -> Vec<InstanceId> {
        use std::collections::HashMap;
        // Group raised instances by (epoch, stage) with their step index.
        let mut by_stage: HashMap<(usize, usize), Vec<(usize, InstanceId)>> = HashMap::new();
        for s in &self.steps {
            for (d, _) in &s.raised {
                by_stage
                    .entry((s.epoch, s.stage))
                    .or_default()
                    .push((s.step, *d));
            }
        }
        let mut best: Vec<InstanceId> = Vec::new();
        for entries in by_stage.values() {
            // Longest path in the "killed by" DAG (edges from step i to a
            // conflicting raise at step > i). Dynamic programming over steps.
            let mut chain_to: HashMap<InstanceId, Vec<InstanceId>> = HashMap::new();
            let mut sorted = entries.clone();
            sorted.sort_unstable();
            for &(step, d) in &sorted {
                let mut best_prev: Vec<InstanceId> = Vec::new();
                for &(prev_step, p) in &sorted {
                    if prev_step < step && conflict.are_conflicting(p, d) {
                        if let Some(chain) = chain_to.get(&p) {
                            if chain.len() > best_prev.len() {
                                best_prev = chain.clone();
                            }
                        }
                    }
                }
                best_prev.push(d);
                if best_prev.len() > best.len() {
                    best = best_prev.clone();
                }
                chain_to.insert(d, best_prev);
            }
        }
        best
    }
}

/// Runs the two-phase engine while recording a [`Trace`]. The run is a
/// fresh-state solve of the one engine with a step observer attached, so
/// the returned [`Solution`] is exactly what
/// [`run_two_phase`](crate::run_two_phase) returns and the trace describes
/// that very run.
pub fn run_two_phase_traced(
    universe: &DemandInstanceUniverse,
    layering: &InstanceLayering,
    rule: RaiseRule,
    config: &AlgorithmConfig,
) -> (Solution, Trace) {
    let mut trace = Trace::default();
    let conflict = ShardedConflictGraph::build(universe);
    let solution = warm_impl(
        universe,
        &conflict,
        layering,
        rule,
        config,
        &mut WarmState::new(universe, rule),
        &Budget::unlimited(),
        Some(&mut trace),
    );
    (solution, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::run_two_phase;
    use netsched_decomp::TreeDecompositionKind;
    use netsched_distrib::MisStrategy;
    use netsched_graph::fixtures::figure6_problem;
    use netsched_graph::{NetworkId, TreeProblem, VertexId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_problem(seed: u64, n: usize, m: usize) -> TreeProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = TreeProblem::new(n);
        let edges = (1..n)
            .map(|i| (VertexId::new(rng.gen_range(0..i)), VertexId::new(i)))
            .collect();
        let t = p.add_network(edges).unwrap();
        for _ in 0..m {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            while v == u {
                v = rng.gen_range(0..n);
            }
            p.add_unit_demand(
                VertexId::new(u),
                VertexId::new(v),
                rng.gen_range(1.0..=16.0),
                vec![t],
            )
            .unwrap();
        }
        p
    }

    #[test]
    fn trace_matches_untraced_run_for_deterministic_mis() {
        let p = random_problem(1, 20, 15);
        let u = p.universe();
        let layering = InstanceLayering::for_tree_problem(&p, &u, TreeDecompositionKind::Ideal);
        let cfg = AlgorithmConfig::deterministic(0.1);
        let (sol, trace) = run_two_phase_traced(&u, &layering, RaiseRule::Unit, &cfg);
        let plain = run_two_phase(&u, &layering, RaiseRule::Unit, &cfg);
        assert_eq!(sol.selected, plain.selected);
        assert_eq!(sol.profit, plain.profit);
        // Same raised set, same step count.
        let mut traced_raised = trace.raised_in_order();
        traced_raised.sort_unstable();
        assert_eq!(traced_raised, plain.raised_instances);
        assert_eq!(trace.num_steps() as u64, plain.diagnostics.steps);
        assert_eq!(
            trace.max_steps_per_stage() as u64,
            plain.diagnostics.max_steps_per_stage
        );
    }

    #[test]
    fn trace_describes_the_returned_run_under_luby() {
        for seed in 0..8u64 {
            let p = random_problem(100 + seed, 24, 30);
            let u = p.universe();
            let layering = InstanceLayering::for_tree_problem(&p, &u, TreeDecompositionKind::Ideal);
            let cfg = AlgorithmConfig {
                epsilon: 0.1,
                mis: MisStrategy::Luby { seed: 31 + seed },
                seed,
            };
            let (sol, trace) = run_two_phase_traced(&u, &layering, RaiseRule::Unit, &cfg);
            let mut traced_raised = trace.raised_in_order();
            traced_raised.sort_unstable();
            assert_eq!(traced_raised, sol.raised_instances, "seed {seed}");
            assert_eq!(
                trace.num_steps() as u64,
                sol.diagnostics.steps,
                "seed {seed}"
            );
            assert_eq!(
                trace.max_steps_per_stage() as u64,
                sol.diagnostics.max_steps_per_stage,
                "seed {seed}"
            );
            assert_eq!(
                sol.selected,
                run_two_phase(&u, &layering, RaiseRule::Unit, &cfg).selected,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn deltas_are_positive_and_sum_below_dual_objective() {
        let p = figure6_problem();
        let u = p.universe();
        let layering = InstanceLayering::for_tree_problem(&p, &u, TreeDecompositionKind::Ideal);
        let (sol, trace) = run_two_phase_traced(
            &u,
            &layering,
            RaiseRule::Unit,
            &AlgorithmConfig::deterministic(0.1),
        );
        let delta_sum: f64 = trace
            .steps
            .iter()
            .flat_map(|s| s.raised.iter().map(|(_, d)| *d))
            .sum();
        assert!(delta_sum > 0.0);
        // Each raise increases the dual objective by at most (∆ + 1)·δ.
        assert!(
            sol.diagnostics.dual_objective
                <= (sol.diagnostics.delta as f64 + 1.0) * delta_sum + 1e-9
        );
        // δ(d) is recorded for every raised instance.
        for d in &sol.raised_instances {
            assert!(trace.delta_of(*d) > 0.0);
        }
        assert_eq!(
            trace.delta_of(InstanceId::new(9999.min(u.num_instances() as u32 as usize))),
            0.0
        );
    }

    #[test]
    fn kill_chain_profits_double_along_the_chain() {
        // Claim 5.2: when d1 kills d2 in a stage, p(d2) ≥ 2·p(d1), so along
        // any kill chain the profits at least double.
        let p = random_problem(7, 24, 30);
        let u = p.universe();
        let layering = InstanceLayering::for_tree_problem(&p, &u, TreeDecompositionKind::Ideal);
        let (_, trace) = run_two_phase_traced(
            &u,
            &layering,
            RaiseRule::Unit,
            &AlgorithmConfig::deterministic(0.1),
        );
        let conflict = ConflictGraph::build(&u);
        let chain = trace.longest_kill_chain(&conflict);
        assert!(!chain.is_empty());
        for w in chain.windows(2) {
            assert!(
                u.profit(w[1]) >= 2.0 * u.profit(w[0]) - 1e-9,
                "profits must double along a kill chain: {} then {}",
                u.profit(w[0]),
                u.profit(w[1])
            );
        }
        // The chain length is therefore at most 1 + log2(pmax/pmin).
        let bound = 1.0 + (u.max_profit() / u.min_profit()).log2();
        assert!(chain.len() as f64 <= bound + 1e-9);
    }

    #[test]
    fn empty_universe_gives_empty_trace() {
        let p = TreeProblem::new(3);
        let mut p = p;
        p.add_network(vec![(VertexId(0), VertexId(1)), (VertexId(1), VertexId(2))])
            .unwrap();
        let u = p.universe();
        let layering = InstanceLayering::for_tree_problem(&p, &u, TreeDecompositionKind::Ideal);
        let (sol, trace) =
            run_two_phase_traced(&u, &layering, RaiseRule::Unit, &AlgorithmConfig::default());
        assert!(sol.is_empty());
        assert_eq!(trace.num_steps(), 0);
        let _ = NetworkId::new(0);
    }
}
