//! Compaction invariance of the serving tier's stable ids.
//!
//! Instance and demand ids only grow: an epoch leaves tombstones in the
//! slots it expires, and a compaction relabels the survivors in order
//! once tombstones pile up. The relabelling preserves every survivor's
//! relative order, so *when* it runs must not change anything a session
//! reports. Each case drives two sessions through the same churn trace:
//! one calls [`ServiceSession::compact`] after every epoch, the other
//! compacts only when an epoch crosses the tombstone threshold. Their
//! deltas, certificates, engine round and message counts, last solutions
//! (under the dense relabel) and snapshot bytes must be bit-identical,
//! through an epoch that crosses the threshold, a quarantined batch and
//! a `from_snapshot` round trip of the threshold-only session.

mod common;

use common::{dense_solution, to_events};
use netsched_core::{AlgorithmConfig, Budget};
use netsched_service::{DemandTicket, ResolveMode, ScheduleDelta, ServiceError, ServiceSession};
use netsched_workloads::{
    many_networks_line, many_networks_tree, poisson_arrivals_line, poisson_arrivals_tree,
    ChurnSpec, EventTrace, HeightDistribution,
};

/// Slow enough churn that tombstones pile up over several epochs before
/// each threshold crossing (at 30% per epoch every epoch would cross it),
/// and long enough for warm stack layers to lose every item in between.
fn churn(seed: u64) -> ChurnSpec {
    ChurnSpec {
        epochs: 40,
        churn: 0.03,
        focus: 2,
        seed,
    }
}

/// The delta without its wall-clock fields.
fn untimed(mut delta: ScheduleDelta) -> ScheduleDelta {
    delta.stats.rebuild_seconds = 0.0;
    delta.stats.solve_seconds = 0.0;
    delta.stats.journal_seconds = 0.0;
    delta
}

/// Everything both sessions must agree on after an epoch.
fn assert_same_state(every: &ServiceSession, threshold: &ServiceSession, label: &str) {
    let (a, b) = (dense_solution(every), dense_solution(threshold));
    match (&a, &b) {
        (Some(a), Some(b)) => {
            assert_eq!(a.selected, b.selected, "{label}: schedule");
            assert_eq!(a.raised_instances, b.raised_instances, "{label}: raised");
            assert_eq!(a.profit.to_bits(), b.profit.to_bits(), "{label}: profit");
            assert_eq!(a.stats, b.stats, "{label}: rounds and messages");
            let (da, db) = (a.diagnostics, b.diagnostics);
            assert_eq!(da.lambda.to_bits(), db.lambda.to_bits(), "{label}: λ");
            assert_eq!(
                da.dual_objective.to_bits(),
                db.dual_objective.to_bits(),
                "{label}: dual objective"
            );
            assert_eq!(da.steps, db.steps, "{label}: steps");
            assert_eq!(da.raised, db.raised, "{label}: raises");
            assert_eq!(da.quality, db.quality, "{label}: quality");
        }
        (None, None) => {}
        _ => panic!("{label}: one session has a last solution, the other not"),
    }
    assert_eq!(
        every.snapshot().render(),
        threshold.snapshot().render(),
        "{label}: snapshot bytes"
    );
}

/// Replays `trace` through both sessions (built by `open`), quarantining
/// the batch of epoch `quarantine_at` once and round-tripping the
/// threshold-only session through a snapshot after epoch `restore_at`.
fn assert_compaction_invariant(
    open: impl Fn() -> ServiceSession,
    trace: &EventTrace,
    quarantine_at: usize,
    restore_at: usize,
    label: &str,
) {
    let mut every = open();
    let mut threshold = open();
    let mut tickets: Vec<DemandTicket> = every.live_tickets();
    let mut threshold_compactions = 0;
    for (epoch, batch) in trace.batches.iter().enumerate() {
        let label = format!("{label} epoch {epoch}");
        let events = to_events(batch, &tickets);
        if epoch == quarantine_at {
            for session in [&mut every, &mut threshold] {
                session.inject_solve_panics(vec![session.epoch() + 1]);
                let outcome = session.step_with_deadline(&events, &Budget::unlimited());
                assert!(
                    matches!(outcome, Err(ServiceError::Quarantined { .. })),
                    "{label}: expected a quarantine, got {outcome:?}"
                );
                session.inject_solve_panics(Vec::new());
            }
            assert_same_state(&every, &threshold, &format!("{label} (quarantined)"));
        }
        let a = every
            .step(&events)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let b = threshold
            .step(&events)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        tickets.extend(a.tickets.iter().copied());
        assert_eq!(untimed(a), untimed(b), "{label}: delta");
        assert_same_state(&every, &threshold, &label);

        let report = every.compact();
        // The other arms of the lifecycle policy would change the solves
        // themselves; this trace must exercise the id compaction alone.
        assert!(
            !report.split_dropped,
            "{label}: the height mix turned uniform"
        );
        assert_eq!(report.warm_states_shed, 0, "{label}: a warm state was shed");
        assert_eq!(every.universe().tombstones(), 0, "{label}: tombstones left");
        assert_same_state(&every, &threshold, &format!("{label} (compacted)"));

        let compactions = threshold.obs_registry().counter("epoch.compactions").get();
        threshold_compactions = threshold_compactions.max(compactions);
        if epoch == restore_at {
            // A restored session has no last solution until it steps; the
            // next epoch compares it in full.
            threshold = ServiceSession::from_snapshot(&threshold.snapshot())
                .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
            assert_eq!(
                every.snapshot().render(),
                threshold.snapshot().render(),
                "{label}: snapshot bytes after the restore"
            );
        }
    }
    assert!(
        threshold_compactions > 0,
        "{label}: no epoch crossed the compaction threshold"
    );
}

fn config() -> AlgorithmConfig {
    AlgorithmConfig::deterministic(0.1)
}

#[test]
fn line_sessions_do_not_depend_on_when_ids_are_compacted() {
    let base = many_networks_line(4, 60, 31);
    let trace = poisson_arrivals_line(&base, &churn(0x5ab1e));
    let problem = base.build().unwrap();
    for mode in [ResolveMode::Cold, ResolveMode::Warm] {
        assert_compaction_invariant(
            || ServiceSession::for_line(&problem, config()).with_resolve_mode(mode),
            &trace,
            3,
            5,
            &format!("line {mode:?}"),
        );
    }
}

#[test]
fn mixed_height_tree_sessions_do_not_depend_on_when_ids_are_compacted() {
    let mut base = many_networks_tree(3, 50, 37);
    base.heights = HeightDistribution::Mixed {
        wide_fraction: 0.4,
        min_narrow: 0.1,
    };
    let trace = poisson_arrivals_tree(&base, &churn(0x1d5));
    let problem = base.build().unwrap();
    for mode in [ResolveMode::Cold, ResolveMode::Warm] {
        assert_compaction_invariant(
            || ServiceSession::for_tree(&problem, config()).with_resolve_mode(mode),
            &trace,
            2,
            4,
            &format!("mixed tree {mode:?}"),
        );
    }
}
