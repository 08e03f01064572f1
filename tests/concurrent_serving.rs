//! Contract suite of the serving tier: the wait-free publication point
//! (`ScheduleView`) and the `Service` frontend.
//!
//! Four properties, none of them assumed:
//!
//! 1. **No torn or uncertified reads.** Readers spinning on a
//!    [`ScheduleReader`] while the writer churns epochs only ever see
//!    whole published snapshots: every observation passes its publish-time
//!    fingerprint check, epochs are monotone, and the recorded staleness
//!    never exceeds one epoch.
//! 2. **Publication is invisible to results.** A session with a view
//!    attached produces bit-identical deltas, schedules and certificates
//!    to a plain session over the same trace.
//! 3. **The frontend is just a seating arrangement.** Submitting and
//!    waiting on each trace batch through [`Service`] matches direct
//!    [`ServiceSession::step`] calls exactly, and a fold of several
//!    queued submissions is one `step` over their valid batches,
//!    concatenated in queue order.
//! 4. **The frontend holds under real concurrency.** Threads racing a
//!    bounded queue never get more submissions accepted than the bound,
//!    and every waiter of one fold receives the same shared delta.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use common::{line_trace, to_events};
use netsched_core::AlgorithmConfig;
use netsched_graph::LineProblem;
use netsched_service::{
    replay_trace, DemandEvent, DemandRequest, DemandTicket, ResolveMode, ScheduleDelta, Service,
    ServiceError, ServicePolicy, ServiceSession,
};
use netsched_workloads::EventTrace;

/// Zeroes the wall-clock timing fields so deltas compare on structure:
/// everything else — tickets, admissions, evictions, reassignments,
/// profit, certificate, shard/instance counts, quality — must match bit
/// for bit.
fn scrub(mut deltas: Vec<ScheduleDelta>) -> Vec<ScheduleDelta> {
    for delta in &mut deltas {
        delta.stats.rebuild_seconds = 0.0;
        delta.stats.solve_seconds = 0.0;
        delta.stats.journal_seconds = 0.0;
    }
    deltas
}

/// The trace's batches as `DemandEvent` batches, resolving expiries
/// through the session's ticket numbering (tickets are assigned in
/// admission order, so the table can be computed without stepping).
fn event_batches(trace: &EventTrace, initial: Vec<DemandTicket>) -> Vec<Vec<DemandEvent>> {
    let mut tickets = initial;
    let mut next = tickets.len() as u64;
    let mut batches = Vec::with_capacity(trace.batches.len());
    for batch in &trace.batches {
        let events = to_events(batch, &tickets);
        for event in &events {
            if matches!(event, DemandEvent::Arrive(_)) {
                tickets.push(DemandTicket(next));
                next += 1;
            }
        }
        batches.push(events);
    }
    batches
}

fn session(problem: &LineProblem, mode: ResolveMode) -> ServiceSession {
    ServiceSession::for_line(problem, AlgorithmConfig::deterministic(0.1)).with_resolve_mode(mode)
}

/// An arrival no line session accepts (its window closes before it opens).
fn invalid_arrival() -> DemandEvent {
    DemandEvent::Arrive(DemandRequest::Line {
        release: 9,
        deadline: 3,
        processing: 2,
        profit: 1.0,
        height: 1.0,
        access: vec![netsched_graph::NetworkId::new(0)],
    })
}

#[test]
fn concurrent_readers_see_only_whole_certified_snapshots() {
    let (problem, trace) = line_trace(4, 30, 97, 0.3);
    let mut session = ServiceSession::for_line(&problem, AlgorithmConfig::deterministic(0.1))
        .with_resolve_mode(ResolveMode::Warm);
    let view = session.schedule_view();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let mut reader = view.reader();
            let stop = &stop;
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut reads = 0u64;
                while !stop.load(Ordering::Acquire) || reads == 0 {
                    let snap = reader.read();
                    assert!(
                        snap.verify_fingerprint(),
                        "torn snapshot at epoch {}",
                        snap.epoch()
                    );
                    assert!(
                        snap.epoch() >= last_epoch,
                        "published epochs must be monotone ({} after {})",
                        snap.epoch(),
                        last_epoch
                    );
                    // Internal consistency: the certificate published with
                    // a schedule must dominate its profit (weak duality) —
                    // a reader pairing fields from different epochs would
                    // trip this.
                    assert!(
                        snap.certificate().optimum_upper_bound + 1e-6 >= snap.profit(),
                        "certificate/profit mismatch at epoch {}",
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    reads += 1;
                }
            });
        }
        // The writer churns through the trace while the readers spin.
        replay_trace(&mut session, &trace).expect("trace replays");
        stop.store(true, Ordering::Release);
    });

    let report = session.obs_registry().snapshot();
    let staleness = report
        .histogram("read.staleness_epochs")
        .expect("readers recorded staleness");
    assert!(staleness.count >= 3, "every reader flushed its tallies");
    assert!(
        staleness.max <= 1,
        "staleness is bounded by one epoch, saw {}",
        staleness.max
    );
    assert_eq!(report.counter("read.count"), Some(staleness.count));
    let final_epoch = view.published_epoch();
    assert_eq!(final_epoch, session.epoch(), "last epoch was published");
    assert!(!view.epoch_in_flight());
}

#[test]
fn views_never_change_results() {
    let (problem, trace) = line_trace(4, 28, 41, 0.25);

    for mode in [ResolveMode::Cold, ResolveMode::Warm] {
        // Baseline: plain session.
        let mut plain = session(&problem, mode);
        let plain_deltas = replay_trace(&mut plain, &trace).expect("plain replay");

        // A view attached before the first epoch.
        let mut viewed = session(&problem, mode);
        let view = viewed.schedule_view();
        let viewed_deltas = replay_trace(&mut viewed, &trace).expect("viewed replay");
        assert_eq!(
            scrub(plain_deltas),
            scrub(viewed_deltas),
            "{mode:?}: view changed results"
        );
        let mut reader = view.reader();
        let snap = reader.read();
        assert_eq!(snap.schedule(), viewed.schedule());
        assert_eq!(snap.certificate(), plain.certificate());
        assert!((snap.profit() - plain.profit()).abs() < 1e-12);
    }
}

#[test]
fn submit_then_wait_matches_direct_stepping() {
    let (problem, trace) = line_trace(3, 24, 7, 0.3);

    for mode in [ResolveMode::Cold, ResolveMode::Warm] {
        let mut direct = session(&problem, mode);
        let direct_deltas = replay_trace(&mut direct, &trace).expect("direct replay");

        let served = session(&problem, mode);
        let batches = event_batches(&trace, served.live_tickets());
        let service = Service::new(served);
        let served_deltas: Vec<ScheduleDelta> = batches
            .into_iter()
            .map(|events| {
                let handle = service.submit(events).expect("unbounded queue accepts");
                (*handle.wait().expect("epoch ran")).clone()
            })
            .collect();
        assert_eq!(scrub(direct_deltas), scrub(served_deltas), "{mode:?}");

        service
            .with_session(|served| {
                assert_eq!(served.epoch(), direct.epoch());
                assert_eq!(served.schedule(), direct.schedule());
                assert_eq!(served.certificate(), direct.certificate());
            })
            .expect("session is live");
    }
}

#[test]
fn a_fold_is_one_step_over_its_batches_in_queue_order() {
    let (problem, trace) = line_trace(4, 28, 41, 0.25);
    let mut direct = session(&problem, ResolveMode::Cold);
    let served = session(&problem, ResolveMode::Cold);
    let batches = event_batches(&trace, served.live_tickets());
    let service = Service::new(served);

    for events in batches {
        // Three submissions queued before anyone waits: one fold, one
        // epoch over their concatenation.
        let third = events.len().div_ceil(3).max(1);
        let handles: Vec<_> = events
            .chunks(third)
            .map(|chunk| service.submit(chunk.to_vec()).expect("accepted"))
            .collect();
        let deltas: Vec<_> = handles
            .into_iter()
            .map(|h| h.wait().expect("fold ran"))
            .collect();
        let expected = direct.step(&events).expect("direct step");
        for delta in &deltas {
            assert_eq!(
                scrub(vec![(**delta).clone()]),
                scrub(vec![expected.clone()])
            );
        }
    }
    service
        .with_session(|served| {
            assert_eq!(served.epoch(), direct.epoch());
            assert_eq!(served.schedule(), direct.schedule());
            assert_eq!(served.certificate(), direct.certificate());
        })
        .expect("session is live");
}

#[test]
fn an_invalid_submission_never_poisons_its_fold() {
    let (problem, trace) = line_trace(4, 28, 41, 0.25);
    let mut direct = session(&problem, ResolveMode::Cold);
    let served = session(&problem, ResolveMode::Cold);
    let batches = event_batches(&trace, served.live_tickets());
    let service = Service::new(served);

    for events in batches {
        let invalid = service.submit(vec![invalid_arrival()]).expect("accepted");
        let valid = service.submit(events.clone()).expect("accepted");
        assert!(matches!(
            invalid.wait(),
            Err(ServiceError::InvalidDemand(_))
        ));
        let delta = valid.wait().expect("the valid submission steps");
        let expected = direct.step(&events).expect("direct step");
        assert_eq!(scrub(vec![(*delta).clone()]), scrub(vec![expected]));
    }
    service
        .with_session(|served| {
            assert_eq!(served.epoch(), direct.epoch());
            assert_eq!(served.schedule(), direct.schedule());
            assert_eq!(served.certificate(), direct.certificate());
        })
        .expect("session is live");
}

#[test]
fn racing_submitters_never_exceed_the_queue_bound() {
    const THREADS: usize = 8;
    const BOUND: usize = 3;
    let (problem, _) = line_trace(2, 12, 5, 0.2);
    let service = Service::with_policy(
        session(&problem, ResolveMode::Warm),
        ServicePolicy {
            max_queued: BOUND,
            ..ServicePolicy::default()
        },
    );

    for round in 0..4 {
        // Nobody waits while the threads race, so nothing drains: exactly
        // `BOUND` submissions fit and every other one bounces.
        let start = Barrier::new(THREADS);
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        service.submit(vec![])
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("submitter"))
                .collect()
        });
        let mut accepted = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(handle) => accepted.push(handle),
                Err(ServiceError::Overloaded { retry_after_epochs }) => {
                    assert_eq!(retry_after_epochs, 1)
                }
                Err(other) => panic!("expected Overloaded, got {other:?}"),
            }
        }
        assert_eq!(accepted.len(), BOUND, "round {round}");
        assert_eq!(service.queued(), BOUND);
        for handle in accepted {
            assert_eq!(handle.wait().expect("fold ran").epoch, round + 1);
        }
        assert_eq!(service.queued(), 0);
    }

    // Submitters that also wait, racing each other: the queue never holds
    // more than the bound.
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..16 {
                    if let Ok(handle) = service.submit(vec![]) {
                        assert!(service.queued() <= BOUND);
                        handle.wait().expect("fold ran");
                    }
                }
            });
        }
    });
    assert_eq!(service.queued(), 0);
}

#[test]
fn every_waiter_of_one_fold_receives_the_same_delta() {
    const THREADS: usize = 6;
    let (problem, trace) = line_trace(4, 28, 41, 0.25);
    let served = session(&problem, ResolveMode::Warm);
    let first = event_batches(&trace, served.live_tickets()).swap_remove(0);
    let service = Service::new(served);
    let submitted = Barrier::new(THREADS);

    let deltas: Vec<Arc<ScheduleDelta>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|i| {
                // One thread carries the trace batch; the others submit
                // empty batches into the same fold.
                let events = if i == 0 { first.clone() } else { Vec::new() };
                let service = &service;
                let submitted = &submitted;
                scope.spawn(move || {
                    let handle = service.submit(events).expect("accepted");
                    // Everyone is queued before anyone waits.
                    submitted.wait();
                    handle.wait().expect("fold ran")
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("waiter"))
            .collect()
    });
    assert_eq!(deltas[0].epoch, 1);
    assert_eq!(
        deltas[0].stats.arrivals + deltas[0].stats.expiries,
        first.len()
    );
    for delta in &deltas {
        assert!(Arc::ptr_eq(delta, &deltas[0]), "one fold, one shared delta");
    }
    assert_eq!(service.with_session(|s| s.epoch()).unwrap(), 1);
}
