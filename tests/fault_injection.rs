//! Fault-injection harness: scripted I/O and solve faults against the
//! durable serving tier, pinning **graceful degradation** end to end.
//!
//! Every fault is a deterministic [`FaultPlan`] schedule installed
//! through [`DurableSession::inject_faults`]:
//!
//! * **Transient append failures** retry with backoff and succeed — the
//!   epoch is served, the retries are counted in [`WalHealth`].
//! * **Torn appends** are rolled back to the pre-append length before
//!   the retry, so the log replays with zero dropped records afterwards.
//! * **Persistent append failures** fail the step with the session
//!   *unchanged* (the write-ahead contract never silently drops a
//!   record).
//! * **Persistent fsync failures** never fail the step: they walk the
//!   durability ladder (`Batch → Epoch → None`) one rung per exhausted
//!   retry loop, each downgrade operator-visible as a [`DegradeEvent`].
//! * **Injected solve panics** are quarantined by
//!   [`step_with_deadline`](netsched_service::ServiceSession::step_with_deadline):
//!   the session inverts the batch on its live set and rebuilds its
//!   cores, tombstones the dead write-ahead record (replay skips it — or,
//!   if the tombstone append fails too, the retried epoch supersedes it)
//!   and keeps serving. A Cold session then serves bit-identically to a
//!   twin that never saw the batch; a Warm one re-primes to a full
//!   certificate.
//!
//! A final scenario combines injected faults with deadline-bounded
//! epochs and a crash, asserting recovery replays the survivors.

use netsched_core::{AlgorithmConfig, Budget, CertificateQuality};
use netsched_graph::{LineProblem, NetworkId, TreeProblem, VertexId};
use netsched_persist::{Durability, DurableSession, PersistConfig};
use netsched_service::{
    DemandEvent, DemandRequest, ResolveMode, ScheduleDelta, ServiceError, ServiceSession,
};
use netsched_workloads::{many_networks_tree, FaultPlan, HeightDistribution};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "netsched-faults-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn line_problem() -> LineProblem {
    let mut p = LineProblem::new(24, 2);
    let acc = vec![NetworkId::new(0), NetworkId::new(1)];
    for (release, len, profit) in [(0u32, 4u32, 3.0), (2, 5, 2.0), (8, 3, 4.0)] {
        p.add_demand(release, release + len + 2, len, profit, 1.0, acc.clone())
            .unwrap();
    }
    p
}

fn arrival(start: u32) -> DemandEvent {
    DemandEvent::Arrive(DemandRequest::Line {
        release: start,
        deadline: start + 6,
        processing: 3,
        profit: 2.5,
        height: 1.0,
        access: vec![NetworkId::new(0)],
    })
}

/// Both re-solve modes, for the scenarios whose solves or recovery
/// replays depend on the mode.
const MODES: [ResolveMode; 2] = [ResolveMode::Cold, ResolveMode::Warm];

/// The mode of the scenarios whose faults hit only the log: an append or
/// fsync fault acts before or after the solve, never through it.
const LOG_ONLY_MODE: ResolveMode = ResolveMode::Cold;

fn durable(dir: &PathBuf, durability: Durability, mode: ResolveMode) -> DurableSession {
    DurableSession::create(
        dir,
        ServiceSession::for_line(&line_problem(), AlgorithmConfig::deterministic(0.1))
            .with_resolve_mode(mode),
        PersistConfig {
            durability,
            snapshot_every: 0,
        },
    )
    .unwrap()
}

#[test]
fn transient_append_failures_retry_and_serve_the_epoch() {
    let dir = temp_dir();
    let mut session = durable(&dir, Durability::Batch, LOG_ONLY_MODE);
    // Ops 0 and 1 fail, the op-2 retry lands: one logical append survives
    // two injected faults.
    session.inject_faults(FaultPlan::none().fail_appends([0, 1]));
    session
        .step(&[arrival(1)])
        .expect("retries absorb the fault");
    let health = session.health();
    assert_eq!(health.append_retries, 2);
    assert!(!health.degraded());
    assert_eq!(session.session().epoch(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_appends_roll_back_and_leave_a_clean_log() {
    for mode in MODES {
        let dir = temp_dir();
        let mut session = durable(&dir, Durability::Epoch, mode);
        session.inject_faults(FaultPlan::none().short_appends([0, 2]));
        for start in [1u32, 5, 9] {
            session
                .step(&[arrival(start)])
                .expect("torn writes retried");
        }
        let profit = session.session().profit();
        drop(session); // the crash
        let (recovered, report) = DurableSession::recover(&dir, PersistConfig::default()).unwrap();
        // The rollbacks kept every frame boundary clean: nothing dropped.
        assert_eq!(report.dropped_records, 0);
        assert_eq!(report.replayed_epochs, 3);
        assert_eq!(recovered.session().epoch(), 3);
        assert_eq!(recovered.session().profit(), profit);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn persistent_append_failures_fail_the_step_with_the_session_unchanged() {
    let dir = temp_dir();
    let mut session = durable(&dir, Durability::Batch, LOG_ONLY_MODE);
    session.step(&[arrival(1)]).unwrap();
    let epoch = session.session().epoch();
    let schedule = session.session().schedule();
    // Four consecutive failures exhaust the initial attempt + 3 retries.
    session.inject_faults(FaultPlan::none().fail_appends([0, 1, 2, 3]));
    match session.step(&[arrival(5)]) {
        Err(ServiceError::Journal(why)) => {
            assert!(why.contains("injected append failure"), "{why}");
        }
        other => panic!("expected a journal failure, got {other:?}"),
    }
    // Write-ahead contract: the failed step left no trace.
    assert_eq!(session.session().epoch(), epoch);
    assert_eq!(session.session().schedule(), schedule);
    assert!(!session.health().degraded());
    // The injected ops are spent; the tier serves again.
    session
        .step(&[arrival(5)])
        .expect("fault schedule exhausted");
    assert_eq!(session.session().epoch(), epoch + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_fsync_failures_walk_the_durability_ladder() {
    let dir = temp_dir();
    let mut session = durable(&dir, Durability::Batch, LOG_ONLY_MODE);
    // Six sync failures: 3 exhaust the batch-append sync (Batch → Epoch),
    // the epoch-cadence sync of the same step then exhausts its own
    // retries (Epoch → None). The step itself still succeeds.
    session.inject_faults(FaultPlan::none().fail_syncs([0, 1, 2, 3, 4, 5]));
    session.step(&[arrival(1)]).expect("degrade, not crash");
    let health = session.health();
    assert_eq!(health.configured_durability, Durability::Batch);
    assert_eq!(health.effective_durability, Durability::None);
    assert!(health.degraded());
    assert_eq!(health.sync_failures, 6);
    assert_eq!(health.degrade_events.len(), 2);
    assert_eq!(health.degrade_events[0].from, Durability::Batch);
    assert_eq!(health.degrade_events[0].to, Durability::Epoch);
    assert_eq!(health.degrade_events[1].from, Durability::Epoch);
    assert_eq!(health.degrade_events[1].to, Durability::None);
    assert!(health.degrade_events[0].cause.contains("injected fsync"));
    // Records were still appended: a crash now recovers every epoch.
    session.step(&[arrival(5)]).unwrap();
    let profit = session.session().profit();
    drop(session);
    let (recovered, report) = DurableSession::recover(&dir, PersistConfig::default()).unwrap();
    assert_eq!(report.dropped_records, 0);
    assert_eq!(recovered.session().epoch(), 2);
    assert_eq!(recovered.session().profit(), profit);
    assert!(!recovered.health().degraded());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn epoch_mode_degrades_to_none_and_stops_syncing() {
    let dir = temp_dir();
    let mut session = durable(&dir, Durability::Epoch, LOG_ONLY_MODE);
    session.inject_faults(FaultPlan::none().fail_syncs([0, 1, 2]));
    session.step(&[arrival(1)]).expect("degrade, not crash");
    let health = session.health();
    assert_eq!(health.effective_durability, Durability::None);
    assert_eq!(health.degrade_events.len(), 1);
    assert_eq!(health.degrade_events[0].epoch, 1);
    // Later steps skip the sync entirely — the spent plan would let a
    // sync succeed, but `None` means none are attempted.
    let failures = health.sync_failures;
    session.step(&[arrival(5)]).unwrap();
    assert_eq!(session.health().sync_failures, failures);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_appends_only_add_latency() {
    let dir = temp_dir();
    let mut session = durable(&dir, Durability::Batch, LOG_ONLY_MODE);
    session.inject_faults(FaultPlan::none().slow_appends(200));
    session.step(&[arrival(1)]).expect("slow disk still serves");
    let health = session.health();
    assert_eq!(health.append_retries, 0);
    assert!(!health.degraded());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_solve_panics_quarantine_the_batch_and_restore_the_session() {
    for mode in MODES {
        let problem = line_problem();
        let mut session = ServiceSession::for_line(&problem, AlgorithmConfig::deterministic(0.1))
            .with_resolve_mode(mode);
        session.step(&[arrival(1)]).unwrap();
        let epoch = session.epoch();
        let schedule = session.schedule();
        let profit = session.profit();

        session.inject_solve_panics(vec![epoch + 1]);
        match session.step_with_deadline(&[arrival(5)], &Budget::unlimited()) {
            Err(ServiceError::Quarantined { reason }) => {
                assert!(reason.contains("injected solve fault"), "{reason}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The poisoned batch left nothing behind.
        assert_eq!(session.epoch(), epoch);
        assert_eq!(session.schedule(), schedule);
        assert_eq!(session.profit(), profit);

        // Disarmed, the same batch serves — the session was not poisoned.
        session.inject_solve_panics(Vec::new());
        let delta = session
            .step_with_deadline(&[arrival(5)], &Budget::unlimited())
            .expect("restored session serves");
        assert_eq!(delta.stats.quality, CertificateQuality::Full);
        assert_eq!(session.epoch(), epoch + 1);
        session
            .last_solution()
            .expect("solved")
            .verify(session.universe())
            .expect("post-quarantine schedule feasible");
    }
}

/// A tree problem whose demands mix wide and narrow heights, so every
/// epoch solves through the wide/narrow split.
fn mixed_tree_problem() -> TreeProblem {
    let mut base = many_networks_tree(3, 40, 17);
    base.heights = HeightDistribution::Mixed {
        wide_fraction: 0.4,
        min_narrow: 0.1,
    };
    base.build().unwrap()
}

fn tree_arrival(u: u32, v: u32, profit: f64, height: f64) -> DemandEvent {
    DemandEvent::Arrive(DemandRequest::Tree {
        u: VertexId(u),
        v: VertexId(v),
        profit,
        height,
        access: vec![NetworkId::new(0), NetworkId::new(1)],
    })
}

/// The delta with its wall-clock fields zeroed, so two runs compare.
fn untimed(mut delta: ScheduleDelta) -> ScheduleDelta {
    delta.stats.rebuild_seconds = 0.0;
    delta.stats.solve_seconds = 0.0;
    delta.stats.journal_seconds = 0.0;
    delta
}

/// Quarantines a batch with arrivals and expiries on a mixed-height tree
/// session whose previous epoch was deadline-cut, checks that nothing the
/// step commits moved, then re-submits the batch disarmed on the session
/// and on a twin that never saw the poisoned attempt. Returns both deltas.
fn quarantine_and_resubmit(mode: ResolveMode) -> (ServiceSession, ScheduleDelta, ScheduleDelta) {
    let problem = mixed_tree_problem();
    let open = || {
        ServiceSession::for_tree(&problem, AlgorithmConfig::deterministic(0.1))
            .with_resolve_mode(mode)
    };
    let mut session = open();
    let mut twin = open();
    let warmup = [tree_arrival(3, 40, 6.0, 0.8), tree_arrival(7, 22, 4.0, 0.3)];
    for s in [&mut session, &mut twin] {
        // A first solve cut after one round leaves certification work
        // pending.
        s.step_with_deadline(&warmup, &Budget::rounds(1)).unwrap();
    }

    let live = session.live_tickets();
    let epoch = session.epoch();
    let schedule = session.schedule();
    let profit = session.profit();
    let certificate = session.certificate();
    let pending = session.anytime_pending();
    assert!(pending, "the one-round epoch was expected to truncate");
    let scheduled = schedule[0].ticket;
    let unscheduled = *live
        .iter()
        .find(|t| schedule.iter().all(|s| s.ticket != **t))
        .expect("some live demand is unscheduled");
    let batch = vec![
        tree_arrival(2, 50, 9.0, 0.9),
        DemandEvent::Expire(scheduled),
        tree_arrival(5, 31, 3.0, 0.25),
        DemandEvent::Expire(unscheduled),
    ];

    session.inject_solve_panics(vec![epoch + 1]);
    match session.step_with_deadline(&batch, &Budget::unlimited()) {
        Err(ServiceError::Quarantined { reason }) => {
            assert!(reason.contains("injected solve fault"), "{reason}");
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    assert_eq!(session.live_tickets(), live, "live set not restored");
    assert_eq!(session.epoch(), epoch);
    assert_eq!(session.schedule(), schedule);
    assert_eq!(session.profit(), profit);
    assert_eq!(session.certificate(), certificate);
    assert_eq!(session.anytime_pending(), pending);

    session.inject_solve_panics(Vec::new());
    let ours = session
        .step_with_deadline(&batch, &Budget::unlimited())
        .expect("restored session serves");
    let theirs = twin
        .step_with_deadline(&batch, &Budget::unlimited())
        .expect("twin serves");
    assert_eq!(
        ours.tickets, theirs.tickets,
        "the ticket counter was not restored"
    );
    (session, ours, theirs)
}

#[test]
fn cold_quarantine_leaves_the_next_delta_bit_identical() {
    let (_, ours, theirs) = quarantine_and_resubmit(ResolveMode::Cold);
    assert_eq!(untimed(ours), untimed(theirs));
}

#[test]
fn warm_quarantine_reprimes_to_a_full_certificate() {
    let (session, ours, _) = quarantine_and_resubmit(ResolveMode::Warm);
    assert_eq!(ours.stats.quality, CertificateQuality::Full);
    assert!(
        ours.certificate.lambda >= 1.0 - 0.1 - 1e-6,
        "λ = {} after a quarantine",
        ours.certificate.lambda
    );
    assert!(ours.certificate.optimum_upper_bound + 1e-9 >= ours.profit);
    session
        .last_solution()
        .expect("solved")
        .verify(session.universe())
        .expect("post-quarantine schedule feasible");
}

#[test]
fn quarantine_through_the_durable_tier_keeps_serving() {
    for mode in MODES {
        let dir = temp_dir();
        let mut session = durable(&dir, Durability::Epoch, mode);
        session.step(&[arrival(1)]).unwrap();
        // Arm the solve fault through the same plan surface as the I/O faults.
        session.inject_faults(FaultPlan::none().panic_at_epochs([2]));
        let budget = Budget::unlimited();
        match session
            .session_mut()
            .step_with_deadline(&[arrival(5)], &budget)
        {
            Err(ServiceError::Quarantined { .. }) => {}
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(session.session().epoch(), 1);
        session.inject_faults(FaultPlan::none());
        session
            .step(&[arrival(9)])
            .expect("tier serves after quarantine");
        assert_eq!(session.session().epoch(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn quarantined_batches_never_resurrect_across_a_crash() {
    for mode in MODES {
        // The write-ahead journal records a batch before its solve, so a
        // quarantine leaves a dead record in the log. The rollback tombstone
        // appended after the restore must make replay skip it — and keep
        // every acknowledged record after the retried epoch.
        let dir = temp_dir();
        let mut session = durable(&dir, Durability::Batch, mode);
        session.step(&[arrival(1)]).unwrap();
        session.inject_faults(FaultPlan::none().panic_at_epochs([2]));
        match session
            .session_mut()
            .step_with_deadline(&[arrival(5)], &Budget::unlimited())
        {
            Err(ServiceError::Quarantined { .. }) => {}
            other => panic!("expected quarantine, got {other:?}"),
        }
        session.inject_faults(FaultPlan::none());
        // The retry re-uses epoch 2 with a *different* batch, then a further
        // acknowledged epoch lands on top.
        session.step(&[arrival(9)]).expect("retry serves");
        session.step(&[arrival(13)]).expect("later epoch serves");
        let epoch = session.session().epoch();
        let profit = session.session().profit();
        let schedule = session.session().schedule();
        drop(session); // the crash

        let (recovered, report) = DurableSession::recover(&dir, PersistConfig::default()).unwrap();
        assert_eq!(report.rolled_back_records, 1, "dead record not cancelled");
        assert_eq!(report.dropped_records, 0, "acknowledged records dropped");
        assert_eq!(report.final_epoch, epoch);
        assert_eq!(recovered.session().epoch(), epoch);
        assert_eq!(recovered.session().profit(), profit);
        assert_eq!(recovered.session().schedule(), schedule);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn failed_tombstone_appends_fall_back_to_supersede_on_replay() {
    for mode in MODES {
        // Worst case: the quarantine's own tombstone append fails too (the
        // disk is misbehaving). The retried batch re-uses the dead record's
        // epoch, and replay must let the last record of a duplicated epoch
        // supersede the dead one.
        let dir = temp_dir();
        let mut session = durable(&dir, Durability::Epoch, mode);
        session.step(&[arrival(1)]).unwrap();
        // Counters reset at installation: op 0 is the quarantined batch's
        // (successful) record append, ops 1..=4 exhaust the tombstone's
        // initial attempt + 3 retries.
        session.inject_faults(
            FaultPlan::none()
                .panic_at_epochs([2])
                .fail_appends([1, 2, 3, 4]),
        );
        match session
            .session_mut()
            .step_with_deadline(&[arrival(5)], &Budget::unlimited())
        {
            Err(ServiceError::Quarantined { .. }) => {}
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(
            session.health().append_retries >= 4,
            "tombstone append was expected to fail"
        );
        session.inject_faults(FaultPlan::none());
        session.step(&[arrival(9)]).expect("retry serves");
        session.step(&[arrival(13)]).expect("later epoch serves");
        let epoch = session.session().epoch();
        let profit = session.session().profit();
        drop(session); // the crash

        let (recovered, report) = DurableSession::recover(&dir, PersistConfig::default()).unwrap();
        assert_eq!(report.rolled_back_records, 1, "dead record not superseded");
        assert_eq!(report.dropped_records, 0);
        assert_eq!(recovered.session().epoch(), epoch);
        assert_eq!(recovered.session().profit(), profit);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn faults_deadlines_and_recovery_compose() {
    for mode in MODES {
        // The end-to-end scenario: torn and failed appends,
        // exhausted fsyncs and deadline-cut epochs all at once, then a crash.
        let dir = temp_dir();
        let mut session = durable(&dir, Durability::Batch, mode);
        session.inject_faults(
            FaultPlan::none()
                .fail_appends([1])
                .short_appends([3])
                .fail_syncs([0, 1, 2])
                .slow_appends(50),
        );
        let mut truncated = 0;
        for start in [1u32, 5, 9, 13] {
            // A fresh budget per epoch: round accounting is per-`Budget`.
            let delta = session
                .session_mut()
                .step_with_deadline(&[arrival(start)], &Budget::rounds(1))
                .expect("faulted, budgeted epoch still serves");
            if delta.stats.quality.is_truncated() {
                truncated += 1;
            }
        }
        assert!(truncated > 0, "round budget 1 never cut a solve");
        // Lift the deadline: the carried work converges.
        let delta = session.step(&[]).unwrap();
        assert_eq!(delta.stats.quality, CertificateQuality::Full);
        assert!(session.health().degraded());
        let epoch = session.session().epoch();
        let profit = session.session().profit();
        drop(session); // the crash

        let (recovered, report) = DurableSession::recover(&dir, PersistConfig::default()).unwrap();
        assert_eq!(report.dropped_records, 0);
        assert_eq!(recovered.session().epoch(), epoch);
        assert_eq!(recovered.session().profit(), profit);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
