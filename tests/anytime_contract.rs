//! The anytime-admission contract of deadline-bounded epochs.
//!
//! [`ServiceSession::step_with_deadline`] cuts the two-phase engine at a
//! cooperative [`Budget`] and must still hand back a *servable* epoch.
//! This suite pins the contract:
//!
//! 1. **Feasibility is unconditional** — however early the cut, the
//!    epoch's schedule verifies against the session universe and its
//!    optimum upper bound dominates its own profit (weak duality holds
//!    for any dual assignment, so a truncated certificate is weaker,
//!    never wrong).
//! 2. **Truncation is visible and carried** — a cut epoch reports
//!    [`CertificateQuality::Truncated`] in its stats, the session flags
//!    `anytime_pending`, and the unfinished certification work survives
//!    in the warm state.
//! 3. **Reconvergence** — a follow-up *un*deadlined step (even with an
//!    empty batch) finishes the carried work: the certificate returns to
//!    `Full`, `λ ≥ 1 − ε`, the certified ratio is within the
//!    auto-selected solver's guarantee, and the converged `λ` dominates
//!    the last truncated `λ` (duals only grow between the cut and the
//!    resume).
//! 4. **Exactness under the deterministic strategy** — cutting the very
//!    first solve at *any* round budget and then resuming without a
//!    deadline reproduces the uninterrupted cold solve bit for bit
//!    (schedule, profit, `λ`, dual objective, upper bound): the resumed
//!    greedy MIS/raise rounds are the exact rounds the cold run would
//!    have executed.
//!
//! 5. **Cold cuts** — the engine entry point itself, cut at `k` rounds
//!    below the full run's step count, runs exactly `k` steps, reports
//!    `Truncated` with work left, verifies and certifies a `λ` no larger
//!    than the full run's; at or above the step count it is bit-identical
//!    to the unlimited run.
//!
//! The randomized sweep replays each trace twice: once with every epoch
//! cut hard after 1 MIS round, once at a sampled round budget.

mod common;

use std::time::Duration;

use common::{to_events, ChurnCase, ChurnCases, ChurnShape, Mirror};
use netsched_core::{
    run_two_phase_on, AlgorithmConfig, Budget, CertificateQuality, RaiseRule, Scheduler, Solution,
};
use netsched_decomp::{InstanceLayering, TreeDecompositionKind};
use netsched_distrib::{MisStrategy, ShardedConflictGraph};
use netsched_graph::{DemandInstanceUniverse, NetworkId, TreeProblem, VertexId};
use netsched_service::{
    AdmissionClass, BudgetSpec, DemandTicket, ResolveMode, Service, ServiceError, ServicePolicy,
    ServiceSession,
};
use netsched_workloads::{many_networks_line, many_networks_tree};
use proptest::prelude::*;

fn warm_session(case: &ChurnCase, config: AlgorithmConfig) -> ServiceSession {
    match case.shape {
        ChurnShape::Line => ServiceSession::for_line(case.line_problem(), config),
        ChurnShape::Tree => ServiceSession::for_tree(case.tree_problem(), config),
    }
    .with_resolve_mode(ResolveMode::Warm)
}

/// Replays a churn case with every epoch cut at `rounds` MIS rounds,
/// asserting the anytime contract per epoch, then reconverges with one
/// undeadlined empty step.
fn check_anytime(case: &ChurnCase, rounds: u64) {
    let config = AlgorithmConfig::deterministic(0.1);
    let mut session = warm_session(case, config);
    let mut mirror = match case.shape {
        ChurnShape::Line => Mirror::for_line(case.line_problem()),
        ChurnShape::Tree => Mirror::for_tree(case.tree_problem()),
    };
    let mut tickets: Vec<DemandTicket> = session.live_tickets();
    let mut next_arrival = tickets.len();
    let mut last_truncated_lambda: Option<f64> = None;

    for (epoch, batch) in case.trace.batches.iter().enumerate() {
        let events = to_events(batch, &tickets);
        let delta = session
            .step_with_deadline(&events, &Budget::rounds(rounds))
            .unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
        tickets.extend(delta.tickets.iter().copied());
        mirror.apply(batch, &mut next_arrival);

        let ours = session.last_solution().expect("stepped sessions solved");
        // 1. Feasibility and a valid (possibly weaker) bound, cut or not.
        ours.verify(session.universe())
            .unwrap_or_else(|e| panic!("epoch {epoch}: cut schedule failed verification: {e}"));
        assert!(
            ours.diagnostics.optimum_upper_bound + 1e-9 >= ours.profit,
            "epoch {epoch}: upper bound {} below own profit {}",
            ours.diagnostics.optimum_upper_bound,
            ours.profit
        );
        // 2. Truncation is visible and consistent with the carried flag.
        assert_eq!(
            delta.stats.quality.is_truncated(),
            session.anytime_pending(),
            "epoch {epoch}: stats/pending disagree"
        );
        last_truncated_lambda = delta
            .stats
            .quality
            .is_truncated()
            .then_some(ours.diagnostics.lambda);
    }

    // 3. One undeadlined (empty) step finishes the carried work.
    let delta = session.step(&[]).expect("reconvergence step");
    assert!(
        !session.anytime_pending(),
        "work still pending after resume"
    );
    assert_eq!(delta.stats.quality, CertificateQuality::Full);
    let ours = session.last_solution().expect("solved");
    ours.verify(session.universe())
        .expect("converged schedule feasible");
    if session.live_demands() > 0 {
        assert!(
            ours.diagnostics.lambda >= 1.0 - config.epsilon - 1e-6,
            "converged λ = {} below 1 − ε",
            ours.diagnostics.lambda
        );
    }
    if let Some(truncated) = last_truncated_lambda {
        // λ is monotone between the cut and the resume (no churn between).
        assert!(
            truncated <= ours.diagnostics.lambda + 1e-9,
            "truncated λ = {truncated} exceeds converged λ = {}",
            ours.diagnostics.lambda
        );
    }
    let rebuilt = mirror.rebuild();
    if let (Some(ratio), Some(guarantee)) =
        (ours.certified_ratio(), rebuilt.guarantee(config.epsilon))
    {
        assert!(
            ratio <= guarantee + 1e-6,
            "converged certified ratio {ratio} exceeds the {guarantee} guarantee"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn random_line_traces_satisfy_the_anytime_contract(
        case in ChurnCases { shape: ChurnShape::Line },
        rounds in 0u64..6,
    ) {
        check_anytime(&case, 1);
        check_anytime(&case, rounds);
    }

    #[test]
    fn random_tree_traces_satisfy_the_anytime_contract(
        case in ChurnCases { shape: ChurnShape::Tree },
        rounds in 0u64..6,
    ) {
        check_anytime(&case, 1);
        check_anytime(&case, rounds);
    }
}

#[test]
fn deadline_cut_epochs_resume_to_the_exact_cold_solve() {
    // 4. Deterministic exactness: for any round budget, cut + undeadlined
    //    resume equals the uninterrupted cold solve bit for bit.
    let (problem, _) = common::line_trace(3, 24, 7, 0.2);
    let config = AlgorithmConfig::deterministic(0.1);
    let reference = Scheduler::for_line(&problem).solve(&config);
    let mut saw_truncated = false;
    for k in [0u64, 1, 2, 4, 8, 64] {
        let mut session =
            ServiceSession::for_line(&problem, config).with_resolve_mode(ResolveMode::Warm);
        let cut = session
            .step_with_deadline(&[], &Budget::rounds(k))
            .unwrap_or_else(|e| panic!("budget {k}: {e}"));
        if cut.stats.quality.is_truncated() {
            saw_truncated = true;
            assert!(session.anytime_pending());
            let partial = session.last_solution().unwrap();
            partial.verify(session.universe()).unwrap();
            assert!(partial.diagnostics.lambda <= reference.diagnostics.lambda + 1e-9);
        }
        let resumed = session
            .step(&[])
            .unwrap_or_else(|e| panic!("resume {k}: {e}"));
        assert_eq!(resumed.stats.quality, CertificateQuality::Full);
        let ours = session.last_solution().unwrap();
        assert_eq!(ours.selected, reference.selected, "budget {k}: schedule");
        assert_eq!(ours.profit, reference.profit, "budget {k}: profit");
        assert_eq!(
            ours.diagnostics.lambda, reference.diagnostics.lambda,
            "budget {k}: λ"
        );
        assert_eq!(
            ours.diagnostics.dual_objective, reference.diagnostics.dual_objective,
            "budget {k}: dual objective"
        );
        assert_eq!(
            ours.diagnostics.optimum_upper_bound, reference.diagnostics.optimum_upper_bound,
            "budget {k}: upper bound"
        );
    }
    assert!(
        saw_truncated,
        "no budget in the sweep actually cut the solve"
    );
}

#[test]
fn an_expired_wall_clock_deadline_still_yields_a_feasible_epoch() {
    let (problem, _) = common::line_trace(2, 16, 3, 0.2);
    let config = AlgorithmConfig::deterministic(0.1);
    let mut session =
        ServiceSession::for_line(&problem, config).with_resolve_mode(ResolveMode::Warm);
    // A zero-duration deadline has elapsed before the first round.
    let delta = session
        .step_with_deadline(&[], &Budget::deadline(Duration::ZERO))
        .unwrap();
    assert!(delta.stats.quality.is_truncated());
    let ours = session.last_solution().unwrap();
    ours.verify(session.universe()).unwrap();
    assert!(ours.diagnostics.optimum_upper_bound + 1e-9 >= ours.profit);
    // The certificate converges once the deadline is lifted.
    let resumed = session.step(&[]).unwrap();
    assert_eq!(resumed.stats.quality, CertificateQuality::Full);
    assert!(session.last_solution().unwrap().diagnostics.lambda >= 1.0 - config.epsilon - 1e-6);
}

#[test]
fn bounded_submit_queues_reject_with_overloaded_backpressure() {
    let (problem, _) = common::line_trace(2, 12, 5, 0.2);
    let config = AlgorithmConfig::deterministic(0.1);
    let session = ServiceSession::for_line(&problem, config).with_resolve_mode(ResolveMode::Warm);
    let service = Service::with_policy(
        session,
        ServicePolicy {
            max_queued: 1,
            latency_budget: BudgetSpec::Rounds(2),
        },
    );
    // First submission occupies the queue's single slot (nothing waits
    // on it yet, so it stays queued).
    let first = service
        .submit_with_class(vec![], AdmissionClass::LatencySensitive)
        .expect("first submission fits");
    // The second bounces with a drain hint instead of growing the queue.
    match service.submit(vec![]) {
        Err(ServiceError::Overloaded { retry_after_epochs }) => {
            assert!(retry_after_epochs >= 1);
        }
        Err(other) => panic!("expected Overloaded, got {other:?}"),
        Ok(_) => panic!("expected Overloaded, got an accepted submission"),
    }
    // Draining the queue frees the slot; the latency-sensitive epoch ran
    // under the policy budget and the service stays usable.
    let delta = first.wait().expect("queued epoch serves");
    assert_eq!(delta.epoch, 1);
    let second = service.submit(vec![]).expect("slot freed after drain");
    assert_eq!(second.wait().unwrap().epoch, 2);
}

/// Line networks as path trees with non-uniform capacities and narrow
/// heights, layered by the line length classes.
fn capacitated_narrow_line() -> (DemandInstanceUniverse, InstanceLayering) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let slots = 40usize;
    let mut rng = StdRng::seed_from_u64(2013);
    let mut problem = TreeProblem::new(slots + 1);
    let path: Vec<(VertexId, VertexId)> = (0..slots)
        .map(|i| (VertexId::new(i), VertexId::new(i + 1)))
        .collect();
    let nets: Vec<NetworkId> = (0..3)
        .map(|_| problem.add_network(path.clone()).unwrap())
        .collect();
    for &t in &nets {
        for e in 0..slots {
            problem
                .set_capacity(t, e, 1.0 + (e % 4) as f64 * 0.5)
                .unwrap();
        }
    }
    for _ in 0..60 {
        let len = rng.gen_range(1..=8usize);
        let start = rng.gen_range(0..=slots - len);
        let access: Vec<NetworkId> = nets.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
        let access = if access.is_empty() {
            vec![nets[0]]
        } else {
            access
        };
        problem
            .add_demand(
                VertexId::new(start),
                VertexId::new(start + len),
                rng.gen_range(1.0..16.0),
                rng.gen_range(0.1..=0.5),
                access,
            )
            .unwrap();
    }
    let universe = problem.universe();
    assert!(!universe.is_uniform_capacity());
    let layering = InstanceLayering::line_length_classes(&universe);
    layering.check_layered_property(&universe).unwrap();
    (universe, layering)
}

fn assert_bit_identical(a: &Solution, b: &Solution, label: &str) {
    assert_eq!(a.selected, b.selected, "{label}: schedule");
    assert_eq!(a.raised_instances, b.raised_instances, "{label}: raised");
    assert_eq!(a.profit.to_bits(), b.profit.to_bits(), "{label}: profit");
    let (da, db) = (a.diagnostics, b.diagnostics);
    assert_eq!(da.steps, db.steps, "{label}: steps");
    assert_eq!(da.lambda.to_bits(), db.lambda.to_bits(), "{label}: λ");
    assert_eq!(
        da.dual_objective.to_bits(),
        db.dual_objective.to_bits(),
        "{label}: dual"
    );
    assert_eq!(da.quality, db.quality, "{label}: quality");
}

#[test]
fn cold_round_cuts_are_truncated_feasible_and_exact_once_the_budget_covers_the_run() {
    let line = many_networks_line(4, 60, 9).build().unwrap();
    let line_universe = line.universe();
    let line_layering = InstanceLayering::line_length_classes(&line_universe);
    let tree = many_networks_tree(6, 70, 3).build().unwrap();
    let tree_universe = tree.universe();
    let tree_layering =
        InstanceLayering::for_tree_problem(&tree, &tree_universe, TreeDecompositionKind::Ideal);
    let (cap_universe, cap_layering) = capacitated_narrow_line();
    let cases = [
        ("line-unit", &line_universe, &line_layering, RaiseRule::Unit),
        (
            "capacitated-line-narrow",
            &cap_universe,
            &cap_layering,
            RaiseRule::Narrow,
        ),
        ("tree-unit", &tree_universe, &tree_layering, RaiseRule::Unit),
    ];
    let configs = [
        AlgorithmConfig::deterministic(0.1),
        AlgorithmConfig {
            epsilon: 0.1,
            mis: MisStrategy::Luby { seed: 5 },
            seed: 5,
        },
    ];
    for (name, universe, layering, rule) in cases {
        let conflict = ShardedConflictGraph::build(universe);
        for config in &configs {
            let solve = |budget: &Budget| {
                run_two_phase_on(universe, &conflict, layering, rule, config, budget)
            };
            let full = solve(&Budget::unlimited());
            assert_eq!(full.diagnostics.quality, CertificateQuality::Full);
            let steps = full.diagnostics.steps;
            assert!(steps > 2, "{name}: need a multi-step run");
            for k in [0, 1, steps / 2, steps - 1, steps, steps + 3] {
                let label = format!("{name} / {:?} / k = {k}", config.mis);
                let cut = solve(&Budget::rounds(k));
                if k < steps {
                    assert_eq!(cut.diagnostics.steps, k, "{label}: steps");
                    assert!(
                        matches!(
                            cut.diagnostics.quality,
                            CertificateQuality::Truncated { rounds_left } if rounds_left > 0
                        ),
                        "{label}: quality {:?}",
                        cut.diagnostics.quality
                    );
                    cut.verify(universe)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert!(
                        cut.diagnostics.lambda <= full.diagnostics.lambda,
                        "{label}: λ {} above the full run's {}",
                        cut.diagnostics.lambda,
                        full.diagnostics.lambda
                    );
                } else {
                    assert_bit_identical(&cut, &full, &label);
                }
            }
        }
    }
}

#[test]
fn a_restored_session_keeps_its_pending_anytime_work() {
    let problem = many_networks_line(3, 150, 7).build().unwrap();
    let config = AlgorithmConfig::deterministic(0.1);
    for mode in [ResolveMode::Cold, ResolveMode::Warm] {
        let mut session = ServiceSession::for_line(&problem, config).with_resolve_mode(mode);
        let cut = session.step_with_deadline(&[], &Budget::rounds(1)).unwrap();
        assert!(
            cut.stats.quality.is_truncated(),
            "{mode:?}: the first epoch must be cut"
        );
        let text = session.snapshot().render();
        for key in ["eligible", "rel_height", "shard_min", "primed", "solved"] {
            assert!(
                !text.contains(&format!("\"{key}\"")),
                "{mode:?}: the snapshot stores the recomputable `{key}`"
            );
        }
        let doc = netsched_workloads::json::JsonValue::parse(&text).unwrap();
        assert_eq!(
            doc.field("anytime_pending").unwrap(),
            &netsched_workloads::json::JsonValue::Bool(true),
            "{mode:?}"
        );
        let mut restored = ServiceSession::from_snapshot(&doc).unwrap();
        assert!(
            restored.anytime_pending(),
            "{mode:?}: the restored session lost its pending anytime work"
        );
        let resumed = session.step(&[]).unwrap();
        let resumed_restored = restored.step(&[]).unwrap();
        for (side, delta) in [("original", &resumed), ("restored", &resumed_restored)] {
            assert!(delta.stats.resolved, "{mode:?} {side}: no re-solve");
            assert_eq!(
                delta.stats.quality,
                CertificateQuality::Full,
                "{mode:?} {side}"
            );
            assert!(
                delta.certificate.lambda >= 0.9 - 1e-6,
                "{mode:?} {side}: λ = {} below 1 − ε",
                delta.certificate.lambda
            );
        }
        assert_eq!(
            resumed.certificate, resumed_restored.certificate,
            "{mode:?}"
        );
        assert_eq!(resumed.profit.to_bits(), resumed_restored.profit.to_bits());
        assert_eq!(session.schedule(), restored.schedule(), "{mode:?}");
    }
}
