//! Reconstruction of the Panconesi–Sozio distributed algorithm for line
//! networks [15, 16], the baseline the paper improves upon.
//!
//! In the language of the two-phase framework (Section 3.2 and the Remark
//! after Theorem 5.3): the demand instances are classified into length
//! groups (the same ∆ = 3 layered decomposition as Section 7), the groups
//! are processed in epochs, but **each epoch consists of a single stage**
//! whose unsatisfied-set uses the fixed threshold `1/(5 + ε)` — an instance
//! that is `1/(5 + ε)`-satisfied is ignored for the rest of the first phase.
//! The resulting slackness is only `λ = 1/(5 + ε)`, which by Lemma 3.1
//! yields a `(∆ + 1)(5 + ε) = (20 + ε)`-approximation for unit heights
//! (versus the paper's `(4 + ε)`), and by Lemma 6.1 a
//! `(2∆² + 1)(5 + ε)`-style guarantee for narrow instances (the original
//! paper's sharper analysis gives `55 + ε`).

use netsched_core::{AlgorithmConfig, DualState, RaiseRule, RunDiagnostics, Solution};
use netsched_decomp::InstanceLayering;
use netsched_distrib::{maximal_independent_set, ConflictGraph, MisStrategy, RoundStats};
use netsched_graph::{DemandInstanceUniverse, InstanceId, LineProblem, EPS};

/// Runs the Panconesi–Sozio-style first phase (single stage per epoch,
/// threshold `1/(5 + ε)`) followed by the standard second phase.
pub fn run_ps_style(
    universe: &DemandInstanceUniverse,
    layering: &InstanceLayering,
    rule: RaiseRule,
    config: &AlgorithmConfig,
) -> Solution {
    config.validate().expect("invalid algorithm configuration");
    if universe.num_instances() == 0 {
        return Solution::empty();
    }
    let threshold = 1.0 / (5.0 + config.epsilon);
    let conflict = ConflictGraph::build(universe);
    let mut duals = DualState::new(universe, rule);
    let mut stats = RoundStats::new();

    let eligible: Vec<bool> = universe
        .instance_ids()
        .map(|d| DualState::max_relative_height(universe, d) <= 1.0 + EPS)
        .collect();

    // Steps per epoch are bounded by log_{(4+ε)/4}(p_max/p_min) plus slack;
    // use a generous cap as a safety net.
    let profit_ratio = (universe.max_profit() / universe.min_profit()).max(1.0);
    let base: f64 = 1.0 + config.epsilon / 4.0;
    let step_cap = (profit_ratio.ln() / base.ln()).ceil() as u64 + 64;

    let groups = layering.groups();
    let mut stack: Vec<Vec<InstanceId>> = Vec::new();
    let mut steps = 0u64;
    let mut max_steps_per_stage = 0u64;
    let mut raised = 0u64;
    let mut capped_stages = 0u64;

    for (epoch, group) in groups.iter().enumerate() {
        let mut epoch_steps = 0u64;
        loop {
            let unsatisfied: Vec<InstanceId> = group
                .iter()
                .copied()
                .filter(|&d| eligible[d.index()] && !duals.is_xi_satisfied(universe, d, threshold))
                .collect();
            if unsatisfied.is_empty() {
                break;
            }
            if epoch_steps >= step_cap {
                capped_stages += 1;
                break;
            }
            let strategy = match config.mis {
                MisStrategy::SequentialGreedy => MisStrategy::SequentialGreedy,
                MisStrategy::Luby { seed } => MisStrategy::Luby {
                    seed: seed
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(epoch as u64)
                        .wrapping_add(epoch_steps << 17),
                },
            };
            let mis = maximal_independent_set(&conflict, &unsatisfied, strategy, &mut stats);
            let mut messages = 0u64;
            for &d in &mis {
                duals.raise(universe, d, layering.critical(d));
                messages += conflict.degree(d) as u64;
            }
            raised += mis.len() as u64;
            stats.record_messages(messages, layering.max_critical() as u64 + 1);
            stats.record_round();
            stack.push(mis);
            epoch_steps += 1;
        }
        steps += epoch_steps;
        max_steps_per_stage = max_steps_per_stage.max(epoch_steps);
    }

    let mut selected: Vec<InstanceId> = Vec::new();
    for mis in stack.iter().rev() {
        for &d in mis {
            if universe.can_add(&selected, d) {
                selected.push(d);
            }
        }
        stats.record_round();
    }
    selected.sort_unstable();

    let lambda = universe
        .instance_ids()
        .filter(|d| eligible[d.index()])
        .map(|d| duals.lhs(universe, d) / universe.profit(d))
        .fold(1.0_f64, f64::min)
        .max(EPS);
    let dual_objective = duals.objective();
    let profit = universe.total_profit(&selected);
    let mut raised_instances: Vec<InstanceId> = stack.iter().flatten().copied().collect();
    raised_instances.sort_unstable();

    Solution {
        selected,
        raised_instances,
        profit,
        stats,
        diagnostics: RunDiagnostics {
            epochs: groups.len(),
            stages_per_epoch: 1,
            steps,
            max_steps_per_stage,
            raised,
            capped_stages,
            delta: layering.max_critical(),
            lambda,
            dual_objective,
            optimum_upper_bound: dual_objective / lambda,
            quality: netsched_core::CertificateQuality::Full,
        },
        timings: netsched_core::EngineTimings::default(),
    }
}

/// The Panconesi–Sozio baseline for the unit-height case of line networks
/// with windows (the `(20 + ε)`-approximation of \[16\]). Instance ids refer
/// to `problem.universe()`.
pub fn solve_ps_line_unit(problem: &LineProblem, config: &AlgorithmConfig) -> Solution {
    let universe = problem.universe();
    let layering = InstanceLayering::line_length_classes(&universe);
    run_ps_style(&universe, &layering, RaiseRule::Unit, config)
}

/// The Panconesi–Sozio-style baseline for the narrow (arbitrary-height)
/// case of line networks with windows. Instance ids refer to
/// `problem.universe()`.
pub fn solve_ps_line_narrow(problem: &LineProblem, config: &AlgorithmConfig) -> Solution {
    let universe = problem.universe();
    let layering = InstanceLayering::line_length_classes(&universe);
    run_ps_style(&universe, &layering, RaiseRule::Narrow, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsched_core::solve_line_unit;
    use netsched_graph::NetworkId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_line_problem(seed: u64, n: u32, r: usize, m: usize) -> LineProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = LineProblem::new(n as usize, r);
        let acc_all: Vec<NetworkId> = (0..r).map(NetworkId::new).collect();
        for _ in 0..m {
            let len = rng.gen_range(1..=(n / 4).max(1));
            let release = rng.gen_range(0..=(n - len));
            let slack = rng.gen_range(0..=(n - release - len).min(5));
            p.add_demand(
                release,
                release + len - 1 + slack,
                len,
                rng.gen_range(1.0..=16.0),
                1.0,
                acc_all.clone(),
            )
            .unwrap();
        }
        p
    }

    #[test]
    fn ps_baseline_is_feasible_and_has_weaker_certificate() {
        for seed in 0..3u64 {
            let p = random_line_problem(seed, 40, 2, 16);
            let u = p.universe();
            let cfg = AlgorithmConfig::deterministic(0.2);
            let ps = solve_ps_line_unit(&p, &cfg);
            let ours = solve_line_unit(&p, &cfg);
            ps.verify(&u).unwrap();
            ours.verify(&u).unwrap();
            // The PS slackness is at most 1/(5 + ε) by construction — it
            // stops raising as soon as that threshold is met — so its
            // certified ratio bound is (∆+1)(5+ε) = 20+ε, much weaker than
            // ours.
            assert!(ps.diagnostics.lambda <= 1.0);
            assert!(ours.diagnostics.lambda >= 1.0 - 0.2 - 1e-9);
            // Both respect their own Lemma 3.1 certificate.
            assert!(ps.certified_ratio().unwrap() <= 4.0 * (5.0 + 0.2) + 1e-6);
            assert!(ours.certified_ratio().unwrap() <= 4.0 / (1.0 - 0.2) + 1e-6);
        }
    }

    #[test]
    fn ps_achieves_its_threshold_slackness() {
        // At the end of the PS first phase every instance is at least
        // 1/(5 + ε)-satisfied; the improved algorithm reaches 1 − ε.
        let p = random_line_problem(7, 30, 1, 12);
        let cfg = AlgorithmConfig::deterministic(0.2);
        let ps = solve_ps_line_unit(&p, &cfg);
        let ours = solve_line_unit(&p, &cfg);
        assert!(ps.diagnostics.lambda >= 1.0 / (5.0 + 0.2) - 1e-9);
        assert!(ours.diagnostics.lambda >= 1.0 - 0.2 - 1e-9);
        // The improved slackness yields a tighter optimum upper bound for
        // the same dual-objective scale: report both so the experiment
        // harness can tabulate the factor-5 improvement of the guarantee.
        assert!(ps.certified_ratio().unwrap() >= 1.0 - 1e-9);
        assert!(ours.certified_ratio().unwrap() >= 1.0 - 1e-9);
    }

    #[test]
    fn ps_narrow_variant_is_feasible() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut p = LineProblem::new(30, 2);
        let acc = vec![NetworkId::new(0), NetworkId::new(1)];
        for _ in 0..15 {
            let len = rng.gen_range(1..=6u32);
            let release = rng.gen_range(0..=(30 - len));
            p.add_demand(
                release,
                release + len - 1,
                len,
                rng.gen_range(1.0..8.0),
                rng.gen_range(0.1..=0.5),
                acc.clone(),
            )
            .unwrap();
        }
        let u = p.universe();
        let sol = solve_ps_line_narrow(&p, &AlgorithmConfig::deterministic(0.2));
        sol.verify(&u).unwrap();
        assert!(sol.profit > 0.0);
    }

    #[test]
    fn empty_problem_yields_empty_solution() {
        let p = LineProblem::new(10, 1);
        let sol = solve_ps_line_unit(&p, &AlgorithmConfig::default());
        assert!(sol.is_empty());
    }
}
