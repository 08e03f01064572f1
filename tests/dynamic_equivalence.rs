//! Differential invariant suite of the dynamic serving subsystem.
//!
//! The contract of `netsched-service` in [`ResolveMode::Cold`] is that
//! incrementality is purely a cost optimization: after **any** sequence of
//! arrive/expire batches, the session's incrementally maintained conflict
//! graph must be byte-identical to — and its schedule and dual certificate
//! equal to — a from-scratch `Scheduler` built over the same surviving
//! demand set. These tests replay generated and randomized traces,
//! rebuilding the reference from scratch after every epoch. Sessions are
//! pinned to `Cold` explicitly, the mode this contract is about; the
//! relaxed warm contract has its own suite in `tests/warm_equivalence.rs`.
//!
//! The randomized traces bind a [`common::ChurnCase`] — the event trace
//! itself is the proptest strategy value, so a failing trace shrinks to a
//! minimal event sequence instead of regenerating from a seed.

mod common;

use common::{
    assert_conflicts_match, check_trace, dense_universe, line_trace, line_trace_with_heights,
    tree_trace, ChurnCase, ChurnCases, ChurnShape, Mirror,
};
use netsched_core::AlgorithmConfig;
use netsched_distrib::{ConflictGraph, MisStrategy};
use netsched_graph::{NetworkId, VertexId};
use netsched_service::{DemandEvent, DemandRequest, DemandTicket, ResolveMode, ServiceSession};
use netsched_workloads::HeightDistribution;
use proptest::prelude::*;

/// A session pinned to the byte-equivalence contract.
fn cold_line(problem: &netsched_graph::LineProblem, config: AlgorithmConfig) -> ServiceSession {
    ServiceSession::for_line(problem, config).with_resolve_mode(ResolveMode::Cold)
}

fn cold_tree(problem: &netsched_graph::TreeProblem, config: AlgorithmConfig) -> ServiceSession {
    ServiceSession::for_tree(problem, config).with_resolve_mode(ResolveMode::Cold)
}

#[test]
fn line_sessions_match_from_scratch_rebuilds_at_every_thread_count() {
    let (problem, trace) = line_trace(4, 30, 11, 0.2);
    for config in [
        AlgorithmConfig::deterministic(0.1),
        AlgorithmConfig {
            epsilon: 0.1,
            mis: MisStrategy::Luby { seed: 77 },
            seed: 77,
        },
    ] {
        let session = cold_line(&problem, config);
        let mirror = Mirror::for_line(&problem);
        check_trace(
            session,
            mirror,
            &trace,
            &config,
            &format!("line / {:?}", config.mis),
        );
    }
}

#[test]
fn tree_sessions_match_from_scratch_rebuilds_at_every_thread_count() {
    let (problem, trace) = tree_trace(4, 28, 5, 0.2, HeightDistribution::Unit);
    let config = AlgorithmConfig::deterministic(0.1);
    let session = cold_tree(&problem, config);
    let mirror = Mirror::for_tree(&problem);
    check_trace(session, mirror, &trace, &config, "tree");
}

#[test]
fn mixed_height_line_sessions_exercise_the_incremental_split() {
    // The line counterpart of the tree split test: mixed heights route
    // line sessions through `line_subproblem`-shaped split cores (each
    // with its own L_min length-histogram maintenance) and the
    // Theorem 7.2 combination; the reference path must agree epoch for
    // epoch.
    let (problem, trace) = line_trace_with_heights(
        3,
        22,
        29,
        0.25,
        HeightDistribution::Mixed {
            wide_fraction: 0.5,
            min_narrow: 0.1,
        },
    );
    let config = AlgorithmConfig::deterministic(0.1);
    let session = cold_line(&problem, config);
    check_trace(
        session,
        Mirror::for_line(&problem),
        &trace,
        &config,
        "mixed-line",
    );
}

#[test]
fn near_overflow_line_windows_are_rejected_not_admitted() {
    // `release + processing` is evaluated in u64 by the shared
    // validate_demand: a crafted request whose u32 sum wraps must come
    // back as a ServiceError at admission, leaving the session untouched
    // (previously it validated in wrapped u32 arithmetic, which would
    // have spliced a bogus instance before panicking).
    let (problem, _) = line_trace(3, 10, 41, 0.2);
    let config = AlgorithmConfig::deterministic(0.1);
    let mut session = cold_line(&problem, config);
    session.step(&[]).unwrap();
    let epoch = session.epoch();
    let result = session.step(&[DemandEvent::Arrive(DemandRequest::Line {
        release: 1,
        deadline: 5,
        processing: u32::MAX,
        profit: 1.0,
        height: 1.0,
        access: vec![NetworkId::new(0)],
    })]);
    assert!(result.is_err(), "wrapping window must be rejected");
    assert_eq!(session.epoch(), epoch);
}

#[test]
fn mixed_height_sessions_exercise_the_incremental_split() {
    // Mixed heights force the wide/narrow split cores: their universes,
    // conflict degrees and layerings are maintained incrementally too, and the
    // reference path (Scheduler's cached split + solve_wide_narrow) must
    // agree epoch for epoch.
    let (problem, trace) = tree_trace(
        3,
        24,
        17,
        0.25,
        HeightDistribution::Mixed {
            wide_fraction: 0.5,
            min_narrow: 0.1,
        },
    );
    let config = AlgorithmConfig::deterministic(0.1);
    let session = cold_tree(&problem, config);
    check_trace(
        session,
        Mirror::for_tree(&problem),
        &trace,
        &config,
        "mixed",
    );
}

#[test]
fn capacitated_sessions_stay_equivalent() {
    let (mut problem, trace) = tree_trace(3, 20, 23, 0.2, HeightDistribution::Narrow { min: 0.2 });
    for t in 0..problem.num_networks() {
        for e in (0..60).step_by(7) {
            problem
                .set_capacity(NetworkId::new(t), e, 1.5 + (e % 3) as f64 * 0.5)
                .unwrap();
        }
    }
    assert!(!problem.universe().is_uniform_capacity());
    let config = AlgorithmConfig::deterministic(0.1);
    let session = cold_tree(&problem, config);
    check_trace(
        session,
        Mirror::for_tree(&problem),
        &trace,
        &config,
        "capacitated",
    );
}

#[test]
fn empty_batch_epochs_are_true_no_ops() {
    let (problem, _) = line_trace(3, 15, 3, 0.2);
    let config = AlgorithmConfig::deterministic(0.1);
    let mut session = cold_line(&problem, config);

    // First step solves even with an empty batch.
    let first = session.step(&[]).unwrap();
    assert!(first.stats.resolved);
    assert!(!first.stats.warm_resolve);
    assert!(!first.admitted.is_empty(), "initial demands get scheduled");
    let profit = session.profit();

    // Subsequent empty batches: no rebuild, no solve, nothing changes.
    let quiet = session.step(&[]).unwrap();
    assert!(!quiet.stats.resolved);
    assert!(quiet.is_quiet());
    assert_eq!(quiet.profit, profit);
    assert_eq!(quiet.stats.dirty_shards, 0);
    assert_eq!(quiet.epoch, 2);
}

#[test]
fn expiring_everything_empties_the_schedule_and_recovers() {
    let (problem, _) = line_trace(3, 12, 9, 0.2);
    let config = AlgorithmConfig::deterministic(0.1);
    let mut session = cold_line(&problem, config);
    session.step(&[]).unwrap();
    assert!(session.profit() > 0.0);

    let everyone: Vec<DemandEvent> = session
        .live_tickets()
        .into_iter()
        .map(DemandEvent::Expire)
        .collect();
    let delta = session.step(&everyone).unwrap();
    assert_eq!(session.live_demands(), 0);
    assert_eq!(session.universe().num_instances(), 0);
    assert_eq!(delta.profit, 0.0);
    assert!(session.schedule().is_empty());
    // Expired demands are not re-reported as evictions.
    assert!(delta.evicted.is_empty());
    // Every slot is a tombstone: nothing is left once they are reclaimed.
    let (dense, compaction) = dense_universe(session.universe());
    let mut conflict = session.conflict().clone();
    conflict.compact(&dense, &compaction);
    assert_eq!(conflict.num_vertices(), 0);
    assert_conflicts_match(
        &ConflictGraph::build(&dense),
        &session,
        "everything expired",
    );

    // The session keeps serving: a fresh arrival gets scheduled.
    let delta = session
        .step(&[DemandEvent::Arrive(DemandRequest::Line {
            release: 0,
            deadline: 10,
            processing: 4,
            profit: 5.0,
            height: 1.0,
            access: vec![NetworkId::new(0)],
        })])
        .unwrap();
    assert_eq!(delta.admitted.len(), 1);
    assert_eq!(session.profit(), 5.0);
}

#[test]
fn invalid_batches_leave_the_session_untouched() {
    let (problem, _) = line_trace(3, 10, 13, 0.2);
    let config = AlgorithmConfig::deterministic(0.1);
    let mut session = cold_line(&problem, config);
    session.step(&[]).unwrap();
    let profit = session.profit();
    let epoch = session.epoch();

    // Unknown ticket, invalid window, duplicate expiry: all rejected with
    // no state change — even when valid events precede them in the batch.
    let valid_arrival = DemandEvent::Arrive(DemandRequest::Line {
        release: 0,
        deadline: 8,
        processing: 2,
        profit: 1.0,
        height: 1.0,
        access: vec![NetworkId::new(0)],
    });
    let t0 = session.live_tickets()[0];
    for bad in [
        DemandEvent::Expire(DemandTicket(u64::MAX)),
        DemandEvent::Arrive(DemandRequest::Line {
            release: 5,
            deadline: 3,
            processing: 2,
            profit: 1.0,
            height: 1.0,
            access: vec![NetworkId::new(0)],
        }),
        DemandEvent::Arrive(DemandRequest::Tree {
            u: VertexId(0),
            v: VertexId(1),
            profit: 1.0,
            height: 1.0,
            access: vec![NetworkId::new(0)],
        }),
    ] {
        let batch = vec![valid_arrival.clone(), bad];
        assert!(session.step(&batch).is_err());
        assert_eq!(session.profit(), profit);
        assert_eq!(session.epoch(), epoch);
    }
    assert!(session
        .step(&[DemandEvent::Expire(t0), DemandEvent::Expire(t0)])
        .is_err());
    assert_eq!(session.epoch(), epoch);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_line_traces_preserve_the_invariant(
        case in ChurnCases { shape: ChurnShape::Line },
    ) {
        let case: ChurnCase = case;
        let config = AlgorithmConfig::deterministic(0.12);
        let problem = case.line_problem();
        let session = cold_line(problem, config);
        check_trace(
            session,
            Mirror::for_line(problem),
            &case.trace,
            &config,
            "proptest-line",
        );
    }

    #[test]
    fn random_tree_traces_preserve_the_invariant(
        case in ChurnCases { shape: ChurnShape::Tree },
    ) {
        let case: ChurnCase = case;
        let config = AlgorithmConfig::deterministic(0.12);
        let problem = case.tree_problem();
        let session = cold_tree(problem, config);
        check_trace(
            session,
            Mirror::for_tree(problem),
            &case.trace,
            &config,
            "proptest-tree",
        );
    }
}

#[test]
fn shrinking_churn_cases_keeps_traces_valid() {
    // Every shrink candidate of a sampled case must itself replay
    // cleanly: expiries name live arrivals only, windows stay in range.
    let strategy = ChurnCases {
        shape: ChurnShape::Line,
    };
    let mut rng = proptest::TestRng::for_case("shrink-validity", 0);
    for _ in 0..4 {
        let case = proptest::Strategy::sample(&strategy, &mut rng);
        for candidate in proptest::Strategy::shrink(&strategy, &case) {
            let config = AlgorithmConfig::deterministic(0.2);
            let mut session = cold_line(candidate.line_problem(), config);
            let mut tickets: Vec<DemandTicket> = session.live_tickets();
            for batch in &candidate.trace.batches {
                let events = common::to_events(batch, &tickets);
                let delta = session.step(&events).expect("shrunk trace stays valid");
                tickets.extend(delta.tickets.iter().copied());
            }
        }
    }
}
