//! Differential solve-equivalence suite of the warm re-solve engine.
//!
//! `ResolveMode::Warm` deliberately relaxes the byte-equivalence anchor of
//! `tests/dynamic_equivalence.rs` to **certificate-equivalence**: a warm
//! epoch's schedule may differ from a cold solve, but every epoch must
//! carry a verifying dual certificate within the auto-selected solver's
//! worst-case guarantee. The [`common::TraceOracle`] replays every trace
//! twice — once through a Warm `ServiceSession`, once through from-scratch
//! `Scheduler` rebuilds — and asserts per epoch:
//!
//! 1. the warm schedule is feasible against the session universe,
//! 2. the warm certificate verifies (`λ ≥ 1 − ε`),
//! 3. the warm certified ratio stays ≤ the solver's guarantee,
//! 4. the warm `λ` is within a fixed factor of the cold `λ`,
//! 5. the warm optimum upper bound dominates the cold profit (both bound
//!    the same OPT), and
//! 6. the delta bookkeeping matches the standing schedule.
//!
//! The matrix covers both MIS strategies and
//! line / tree / mixed-height (split-core) / capacitated instances, via
//! generated Poisson churn traces AND proptest-randomized shrinkable
//! traces. A final section pins the **Cold regression**: a warm-capable
//! session pinned to `ResolveMode::Cold` stays byte-identical to the PR-4
//! behavior (conflict structures, schedule, certificate), so the new mode
//! cannot silently perturb the existing anchor.

mod common;

use common::{
    check_trace, line_trace, line_trace_with_heights, tree_trace, ChurnCase, ChurnCases,
    ChurnShape, Mirror, TraceOracle,
};
use netsched_core::AlgorithmConfig;
use netsched_distrib::MisStrategy;
use netsched_graph::{LineProblem, NetworkId, TreeProblem};
use netsched_service::{ResolveMode, ServiceSession};
use netsched_workloads::{EventTrace, HeightDistribution};
use proptest::prelude::*;

fn warm_line(problem: &LineProblem, config: AlgorithmConfig) -> ServiceSession {
    ServiceSession::for_line(problem, config).with_resolve_mode(ResolveMode::Warm)
}

fn warm_tree(problem: &TreeProblem, config: AlgorithmConfig) -> ServiceSession {
    ServiceSession::for_tree(problem, config).with_resolve_mode(ResolveMode::Warm)
}

fn check_warm_line(
    problem: &LineProblem,
    trace: &EventTrace,
    config: AlgorithmConfig,
    label: &str,
) {
    let mut session = warm_line(problem, config);
    let mut oracle = TraceOracle::new(Mirror::for_line(problem), config);
    oracle.replay(&mut session, trace, label);
}

fn check_warm_tree(
    problem: &TreeProblem,
    trace: &EventTrace,
    config: AlgorithmConfig,
    label: &str,
) {
    let mut session = warm_tree(problem, config);
    let mut oracle = TraceOracle::new(Mirror::for_tree(problem), config);
    oracle.replay(&mut session, trace, label);
}

#[test]
fn warm_line_sessions_certify_at_every_thread_count_and_strategy() {
    let (problem, trace) = line_trace(4, 30, 11, 0.2);
    for config in [
        AlgorithmConfig::deterministic(0.1),
        AlgorithmConfig {
            epsilon: 0.1,
            mis: MisStrategy::Luby { seed: 77 },
            seed: 77,
        },
    ] {
        check_warm_line(
            &problem,
            &trace,
            config,
            &format!("warm-line / {:?}", config.mis),
        );
    }
}

#[test]
fn warm_tree_sessions_certify_at_every_thread_count_and_strategy() {
    let (problem, trace) = tree_trace(4, 28, 5, 0.2, HeightDistribution::Unit);
    for config in [
        AlgorithmConfig::deterministic(0.1),
        AlgorithmConfig {
            epsilon: 0.1,
            mis: MisStrategy::Luby { seed: 31 },
            seed: 31,
        },
    ] {
        check_warm_tree(
            &problem,
            &trace,
            config,
            &format!("warm-tree / {:?}", config.mis),
        );
    }
}

#[test]
fn warm_mixed_height_sessions_certify_through_the_split_cores() {
    // Mixed heights route warm sessions through per-half warm states
    // (wide under the unit rule, narrow under the narrow rule) and the
    // Theorem 6.3 / 7.2 combination.
    let (tree, tree_events) = tree_trace(
        3,
        24,
        17,
        0.25,
        HeightDistribution::Mixed {
            wide_fraction: 0.5,
            min_narrow: 0.1,
        },
    );
    check_warm_tree(
        &tree,
        &tree_events,
        AlgorithmConfig::deterministic(0.1),
        "warm-mixed-tree",
    );

    let (line, line_events) = line_trace_with_heights(
        3,
        22,
        29,
        0.25,
        HeightDistribution::Mixed {
            wide_fraction: 0.5,
            min_narrow: 0.1,
        },
    );
    check_warm_line(
        &line,
        &line_events,
        AlgorithmConfig::deterministic(0.1),
        "warm-mixed-line",
    );
}

#[test]
fn warm_capacitated_sessions_certify() {
    // Non-uniform capacities exercise the weighted β/c Fenwick mirror
    // through the warm point-clear path.
    let (mut problem, trace) = tree_trace(3, 20, 23, 0.2, HeightDistribution::Narrow { min: 0.2 });
    for t in 0..problem.num_networks() {
        for e in (0..60).step_by(7) {
            problem
                .set_capacity(NetworkId::new(t), e, 1.5 + (e % 3) as f64 * 0.5)
                .unwrap();
        }
    }
    assert!(!problem.universe().is_uniform_capacity());
    check_warm_tree(
        &problem,
        &trace,
        AlgorithmConfig::deterministic(0.1),
        "warm-capacitated",
    );
}

#[test]
fn warm_epochs_report_their_mode_and_repair_locally() {
    // Sanity on the telemetry: warm epochs flag themselves, and churn
    // focused on few networks keeps most epochs' dirty-shard counts low
    // (the repair locality the engine exploits).
    let (problem, trace) = line_trace(6, 40, 3, 0.1);
    let config = AlgorithmConfig::deterministic(0.15);
    let mut session = warm_line(&problem, config);
    let first = session.step(&[]).unwrap();
    assert!(first.stats.warm_resolve);
    let mut all = session.live_tickets();
    for batch in &trace.batches {
        let events = common::to_events(batch, &all);
        let delta = session.step(&events).unwrap();
        all.extend(delta.tickets.iter().copied());
        assert!(delta.stats.warm_resolve || delta.stats.live_demands == 0);
        assert!(delta.stats.dirty_shards <= delta.stats.num_shards);
        assert!(delta.certificate.optimum_upper_bound + 1e-9 >= delta.profit);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_line_traces_stay_certificate_equivalent(
        case in ChurnCases { shape: ChurnShape::Line },
    ) {
        let case: ChurnCase = case;
        check_warm_line(
            case.line_problem(),
            &case.trace,
            AlgorithmConfig::deterministic(0.12),
            "warm-proptest-line",
        );
    }

    #[test]
    fn random_tree_traces_stay_certificate_equivalent(
        case in ChurnCases { shape: ChurnShape::Tree },
    ) {
        let case: ChurnCase = case;
        check_warm_tree(
            case.tree_problem(),
            &case.trace,
            AlgorithmConfig::deterministic(0.12),
            "warm-proptest-tree",
        );
    }
}

// ---------------------------------------------------------------------
// Cold-mode regression pin
// ---------------------------------------------------------------------

#[test]
fn cold_mode_sessions_stay_byte_identical_to_the_pr4_anchor() {
    // A warm-capable session pinned to Cold must not perturb the existing
    // byte-equivalence anchor in any way: conflict structures, schedule and
    // certificate all equal a from-scratch Scheduler, exactly as before
    // the warm engine existed — regardless of the environment default.
    let (line, line_events) = line_trace(4, 26, 47, 0.25);
    let config = AlgorithmConfig::deterministic(0.1);
    let session = ServiceSession::for_line(&line, config).with_resolve_mode(ResolveMode::Cold);
    assert_eq!(session.resolve_mode(), ResolveMode::Cold);
    check_trace(
        session,
        Mirror::for_line(&line),
        &line_events,
        &config,
        "cold-pin-line",
    );

    let (tree, tree_events) = tree_trace(
        3,
        20,
        53,
        0.25,
        HeightDistribution::Mixed {
            wide_fraction: 0.6,
            min_narrow: 0.15,
        },
    );
    let session = ServiceSession::for_tree(&tree, config).with_resolve_mode(ResolveMode::Cold);
    check_trace(
        session,
        Mirror::for_tree(&tree),
        &tree_events,
        &config,
        "cold-pin-tree",
    );
}

#[test]
fn warm_and_cold_first_epochs_agree_exactly() {
    // A fresh warm state executes the cold engine's step sequence, so the
    // two modes only diverge once a second epoch resumes persisted duals.
    let (problem, _) = line_trace(4, 24, 61, 0.2);
    let config = AlgorithmConfig::deterministic(0.1);
    let mut cold = ServiceSession::for_line(&problem, config).with_resolve_mode(ResolveMode::Cold);
    let mut warm = warm_line(&problem, config);
    let dc = cold.step(&[]).unwrap();
    let dw = warm.step(&[]).unwrap();
    assert_eq!(dc.profit, dw.profit);
    assert_eq!(dc.admitted, dw.admitted);
    assert_eq!(dc.certificate, dw.certificate);
    common::assert_same_solution(
        cold.last_solution().unwrap(),
        warm.last_solution().unwrap(),
        "first epoch",
    );
}
