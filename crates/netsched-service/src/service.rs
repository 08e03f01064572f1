//! The serving frontend.
//!
//! [`Service`] wraps a [`ServiceSession`] behind a submission queue.
//! [`Service::submit`] enqueues a batch of events and returns a
//! [`SubmitHandle`]; [`SubmitHandle::wait`] blocks until the epoch that
//! admits the batch has run and returns its [`ScheduleDelta`].
//!
//! The frontend has no thread of its own. The first waiter whose
//! submission is still unresolved **drives** one epoch: it takes the
//! session lock, drains the whole queue, validates each submission against
//! the live set (and against the expiries claimed by submissions earlier
//! in the same fold), and steps one epoch over the valid ones. Every
//! submission of that fold resolves with the same shared delta; an invalid
//! one resolves with its own validation error and never poisons the fold.
//! Concurrent submitters therefore get batch admission — many
//! submissions, one epoch — and a closed-loop caller that submits and
//! waits gets one epoch per submission.
//!
//! Submitting touches only the queue lock, so it never waits for a
//! running epoch. Readers hold [`ScheduleReader`]s from
//! [`Service::reader`] and observe the published schedule wait-free,
//! touching neither lock.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use fxhash::FxHashSet;
use netsched_core::Budget;
use netsched_obs::ObsRegistry;

use crate::event::{DemandEvent, DemandTicket, ServiceError};
use crate::session::{panic_reason, ScheduleDelta, ServiceSession};
use crate::view::{ScheduleReader, ScheduleView};

/// How urgently a submission needs its epoch — the tiered admission
/// classes of the degraded-operation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionClass {
    /// Batched into full epochs: the solve runs to full λ-certification
    /// no matter how long it takes. The default, and the right class for
    /// background churn.
    #[default]
    Bulk,
    /// Needs its schedule within the policy's latency budget: any epoch
    /// admitting at least one latency-sensitive submission runs under
    /// [`ServicePolicy::latency_budget`] (via
    /// [`ServiceSession::step_with_deadline`]) and may return a
    /// [`Truncated`](netsched_core::CertificateQuality::Truncated)
    /// certificate; the unfinished work completes in a later bulk epoch.
    LatencySensitive,
}

/// A declarative latency budget, compiled to a [`Budget`] per epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetSpec {
    /// No limit — every epoch certifies fully.
    #[default]
    Unlimited,
    /// At most this many first-phase MIS/raise rounds per epoch
    /// (deterministic; what the anytime test suite uses).
    Rounds(u64),
    /// A wall-clock deadline this many milliseconds after the solve
    /// starts.
    Millis(u64),
}

impl BudgetSpec {
    /// Compiles the spec into a fresh [`Budget`] (deadlines start now).
    pub fn to_budget(&self) -> Budget {
        match *self {
            BudgetSpec::Unlimited => Budget::unlimited(),
            BudgetSpec::Rounds(cap) => Budget::rounds(cap),
            BudgetSpec::Millis(ms) => Budget::deadline(Duration::from_millis(ms)),
        }
    }
}

/// Tuning of the frontend: queue bound, latency budget and panic
/// isolation. The default policy is an unbounded queue, an unlimited
/// budget and no isolation of unbudgeted epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServicePolicy {
    /// Maximum submissions waiting in the queue (`0` = unbounded). When
    /// the queue is full, [`Service::submit`] returns
    /// [`ServiceError::Overloaded`] instead of queueing — bounded
    /// backpressure instead of unbounded memory. The bound is checked
    /// under the queue lock, so it is exact under any concurrency.
    pub max_queued: usize,
    /// The budget epochs admitting latency-sensitive submissions run
    /// under; bulk-only epochs always run unlimited.
    pub latency_budget: BudgetSpec,
    /// Run **every** epoch — including unlimited bulk-only ones — through
    /// [`ServiceSession::step_with_deadline`] so a panicking solve is
    /// quarantined instead of poisoning the session. Costs one pre-step
    /// serialization of the session per epoch, so it is opt-in; with the
    /// default `false`, only budgeted epochs (which pay that cost anyway)
    /// get panic isolation and bulk-only epochs take the plain
    /// [`step`](ServiceSession::step) path.
    pub quarantine: bool,
}

/// Outcome delivered to every submission folded into an epoch.
type EpochResult = Result<Arc<ScheduleDelta>, ServiceError>;

/// One submission's result, set once by the fold that drains it.
type Slot = Arc<OnceLock<EpochResult>>;

struct Pending {
    events: Vec<DemandEvent>,
    class: AdmissionClass,
    slot: Slot,
    /// When the submission entered the queue; the fold records the
    /// submit-to-delta latency per admission class from it.
    submitted_at: Instant,
}

/// The session behind the session lock.
struct SessionState {
    session: ServiceSession,
    /// Set when a solve panicked outside quarantine: the session may be
    /// half-mutated, so every later call fails with
    /// [`ServiceError::SessionLost`] carrying this panic message.
    lost: Option<String>,
}

/// The state a [`Service`] shares with its [`SubmitHandle`]s.
struct Shared {
    policy: ServicePolicy,
    /// The session's registry, reachable without the session lock.
    obs: ObsRegistry,
    queue: Mutex<Vec<Pending>>,
    session: Mutex<SessionState>,
    /// The session's publication point, attached on first use.
    view: OnceLock<ScheduleView>,
}

impl Shared {
    /// Takes the session lock, or fails once the session is lost. A
    /// poisoned lock is not a lost session: only a [`Service::with_session`]
    /// closure can panic under it outside a fold, and it cannot mutate
    /// the session.
    fn session(&self) -> Result<MutexGuard<'_, SessionState>, ServiceError> {
        let state = self.session.lock().unwrap_or_else(PoisonError::into_inner);
        match &state.lost {
            Some(reason) => Err(ServiceError::SessionLost {
                reason: reason.clone(),
            }),
            None => Ok(state),
        }
    }

    /// Drains the queue and steps one epoch over its valid submissions,
    /// resolving every drained slot. Returns the epoch's outcome, or `None`
    /// when every drained submission was rejected and `force` is off (no
    /// epoch runs then, so a rejected submission leaves the session
    /// untouched).
    ///
    /// The epoch runs under the policy's latency budget when any admitted
    /// submission is latency-sensitive (bulk-only epochs certify fully).
    /// Budgeted epochs — and every epoch under a `quarantine: true`
    /// policy — go through [`ServiceSession::step_with_deadline`], so a
    /// panicking solve quarantines the folded batch; unbudgeted epochs
    /// under the default policy take the plain
    /// [`step`](ServiceSession::step) path and skip its pre-step
    /// serialization. A panic there loses the session: the panic
    /// propagates to the driving caller and every co-folded submission
    /// resolves with [`ServiceError::SessionLost`].
    fn fold(&self, state: &mut SessionState, force: bool) -> Option<EpochResult> {
        let pending = std::mem::take(&mut *self.queue.lock().expect("queue lock poisoned"));
        // Decrement-by-delta rather than `set(0)`: the registry may be
        // shared across services (`with_obs`).
        self.obs
            .gauge("service.queue_depth")
            .add(-(pending.len() as i64));
        let mut claimed: FxHashSet<u64> = FxHashSet::default();
        let mut batch: Vec<DemandEvent> = Vec::new();
        let mut admitted: Vec<Pending> = Vec::with_capacity(pending.len());
        for mut p in pending {
            match validate(&state.session, &p.events, &mut claimed) {
                Ok(()) => {
                    batch.append(&mut p.events);
                    admitted.push(p);
                }
                Err(error) => {
                    let _ = p.slot.set(Err(error));
                }
            }
        }
        if admitted.is_empty() && !force {
            return None;
        }
        let budget = if admitted
            .iter()
            .any(|p| p.class == AdmissionClass::LatencySensitive)
        {
            match self.policy.latency_budget {
                // A wall-clock budget goes through the session's online
                // calibration: once primed, the deadline is compiled into
                // a deterministic round cap as well (tightest limit wins).
                BudgetSpec::Millis(ms) => {
                    state.session.calibrated_budget(Duration::from_millis(ms))
                }
                spec => spec.to_budget(),
            }
        } else {
            Budget::unlimited()
        };
        let isolated = budget.is_limited() || self.policy.quarantine;
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            if isolated {
                state.session.step_with_deadline(&batch, &budget)
            } else {
                state.session.step(&batch)
            }
        }));
        let outcome: EpochResult = match stepped {
            Ok(outcome) => outcome.map(Arc::new),
            Err(payload) => {
                let reason = panic_reason(payload.as_ref());
                for p in &admitted {
                    let _ = p.slot.set(Err(ServiceError::SessionLost {
                        reason: reason.clone(),
                    }));
                }
                state.lost = Some(reason);
                resume_unwind(payload);
            }
        };
        let bulk = self.obs.histogram("service.latency_bulk_ns");
        let sensitive = self.obs.histogram("service.latency_sensitive_ns");
        for p in &admitted {
            match p.class {
                AdmissionClass::Bulk => bulk.record_duration(p.submitted_at.elapsed()),
                AdmissionClass::LatencySensitive => {
                    sensitive.record_duration(p.submitted_at.elapsed())
                }
            }
            let _ = p.slot.set(outcome.clone());
        }
        Some(outcome)
    }
}

/// Validates one submission against the live set and the expiries
/// `claimed` by submissions earlier in the same fold; on success its own
/// expiries join `claimed`.
///
/// The **whole** submission is checked before rejecting: when several
/// events are invalid, the error is [`ServiceError::InvalidBatch`] listing
/// every failure with its event index (a single invalid event comes back
/// as its bare error), so callers can resubmit precisely the valid
/// remainder instead of discovering failures one at a time.
fn validate(
    session: &ServiceSession,
    events: &[DemandEvent],
    claimed: &mut FxHashSet<u64>,
) -> Result<(), ServiceError> {
    // This submission's claims, released again if it is rejected.
    let mut expiries: Vec<u64> = Vec::new();
    let mut failures: Vec<(usize, ServiceError)> = Vec::new();
    for (index, event) in events.iter().enumerate() {
        match event {
            DemandEvent::Arrive(request) => {
                if let Err(error) = session.validate_request(request) {
                    failures.push((index, error));
                }
            }
            DemandEvent::Expire(ticket) => {
                if !session.is_live(*ticket) {
                    failures.push((index, ServiceError::UnknownTicket(*ticket)));
                } else if !claimed.insert(ticket.0) {
                    failures.push((index, ServiceError::DuplicateExpiry(*ticket)));
                } else {
                    expiries.push(ticket.0);
                }
            }
        }
    }
    if !failures.is_empty() {
        for ticket in &expiries {
            claimed.remove(ticket);
        }
    }
    match failures.len() {
        0 => Ok(()),
        1 => Err(failures.pop().expect("one failure").1),
        _ => Err(ServiceError::InvalidBatch { failures }),
    }
}

/// A batch-admission scheduler service over a [`ServiceSession`]; see the
/// [module docs](self).
pub struct Service {
    shared: Arc<Shared>,
}

impl Service {
    /// Wraps a session under the default (unbounded, unlimited)
    /// [`ServicePolicy`].
    pub fn new(session: ServiceSession) -> Self {
        Self::with_policy(session, ServicePolicy::default())
    }

    /// Wraps a session under an explicit [`ServicePolicy`] — queue bound
    /// (backpressure via [`ServiceError::Overloaded`]) and latency budget
    /// for epochs admitting latency-sensitive submissions.
    pub fn with_policy(session: ServiceSession, policy: ServicePolicy) -> Self {
        Self {
            shared: Arc::new(Shared {
                policy,
                obs: session.obs_registry().clone(),
                queue: Mutex::new(Vec::new()),
                session: Mutex::new(SessionState {
                    session,
                    lost: None,
                }),
                view: OnceLock::new(),
            }),
        }
    }

    /// The frontend's policy.
    pub fn policy(&self) -> ServicePolicy {
        self.shared.policy
    }

    /// Enqueues a batch of events ([`AdmissionClass::Bulk`]; see
    /// [`submit_with_class`](Service::submit_with_class)) and returns the
    /// handle of the epoch that will admit it. Validation happens when the
    /// batch is folded into an epoch: invalid arrivals, unknown tickets
    /// and expiries already claimed earlier in the fold surface through
    /// [`SubmitHandle::wait`].
    ///
    /// When the policy bounds the queue and it is full, the submission is
    /// rejected with [`ServiceError::Overloaded`] and nothing is queued.
    pub fn submit(&self, events: Vec<DemandEvent>) -> Result<SubmitHandle, ServiceError> {
        self.submit_with_class(events, AdmissionClass::Bulk)
    }

    /// [`submit`](Service::submit) with an explicit [`AdmissionClass`]:
    /// an epoch that admits at least one latency-sensitive submission
    /// runs under the policy's latency budget and may return a truncated
    /// (but valid) certificate in its delta's `stats.quality`.
    pub fn submit_with_class(
        &self,
        events: Vec<DemandEvent>,
        class: AdmissionClass,
    ) -> Result<SubmitHandle, ServiceError> {
        let mut queue = self.shared.queue.lock().expect("queue lock poisoned");
        let max_queued = self.shared.policy.max_queued;
        if max_queued > 0 && queue.len() >= max_queued {
            self.shared.obs.counter("service.overloaded").inc();
            // Every fold drains the whole queue into one epoch, so one
            // epoch empties it however full it is.
            return Err(ServiceError::Overloaded {
                retry_after_epochs: 1,
            });
        }
        let slot = Slot::default();
        queue.push(Pending {
            events,
            class,
            slot: slot.clone(),
            submitted_at: Instant::now(),
        });
        self.shared.obs.gauge("service.queue_depth").add(1);
        Ok(SubmitHandle {
            shared: self.shared.clone(),
            slot,
        })
    }

    /// Expires a demand; sugar for a one-event submission.
    pub fn expire(&self, ticket: DemandTicket) -> Result<SubmitHandle, ServiceError> {
        self.submit(vec![DemandEvent::Expire(ticket)])
    }

    /// Drives one epoch over everything queued (an empty batch if nothing
    /// valid is queued) and returns its delta. Useful for forcing a
    /// quiescent re-solve.
    pub fn flush(&self) -> EpochResult {
        let mut state = self.shared.session()?;
        self.shared
            .fold(&mut state, true)
            .expect("a forced fold steps an epoch")
    }

    /// Reads the wrapped session under the session lock (waiting for a
    /// running epoch).
    pub fn with_session<R>(&self, f: impl FnOnce(&ServiceSession) -> R) -> Result<R, ServiceError> {
        Ok(f(&self.shared.session()?.session))
    }

    /// Number of submissions waiting to be folded into the next epoch.
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().expect("queue lock poisoned").len()
    }

    /// The session's publication point
    /// ([`ServiceSession::schedule_view`]), attached on the first call;
    /// clone readers off it freely.
    pub fn view(&self) -> Result<ScheduleView, ServiceError> {
        if let Some(view) = self.shared.view.get() {
            return Ok(view.clone());
        }
        let mut state = self.shared.session()?;
        Ok(self
            .shared
            .view
            .get_or_init(|| state.session.schedule_view())
            .clone())
    }

    /// A new wait-free reader of the published schedule.
    pub fn reader(&self) -> Result<ScheduleReader, ServiceError> {
        Ok(self.view()?.reader())
    }
}

/// The pending result of one submission; resolve it with
/// [`wait`](SubmitHandle::wait).
pub struct SubmitHandle {
    shared: Arc<Shared>,
    slot: Slot,
}

impl SubmitHandle {
    /// Blocks until the submission's epoch has run and returns its delta,
    /// shared with every submission of the same fold — or the
    /// submission's own validation error. When no other waiter has folded
    /// the submission yet, this call drives the epoch itself.
    pub fn wait(self) -> EpochResult {
        if let Some(result) = self.slot.get() {
            return result.clone();
        }
        let mut state = self.shared.session()?;
        // Another waiter may have folded this submission while this one
        // waited for the lock.
        if self.slot.get().is_none() {
            self.shared.fold(&mut state, false);
        }
        self.slot
            .get()
            .expect("a fold resolves every submission it drains")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DemandRequest;
    use crate::session::ServiceSession;
    use netsched_core::AlgorithmConfig;
    use netsched_graph::{LineProblem, NetworkId};

    fn session() -> ServiceSession {
        let mut problem = LineProblem::new(20, 2);
        problem
            .add_demand(0, 9, 4, 3.0, 1.0, vec![NetworkId::new(0)])
            .unwrap();
        ServiceSession::for_line(&problem, AlgorithmConfig::deterministic(0.1))
    }

    fn service() -> Service {
        Service::new(session())
    }

    fn valid_arrival() -> DemandEvent {
        arrival(2)
    }

    fn arrival(release: u32) -> DemandEvent {
        DemandEvent::Arrive(DemandRequest::Line {
            release,
            deadline: release + 10,
            processing: 3,
            profit: 1.0,
            height: 1.0,
            access: vec![NetworkId::new(0)],
        })
    }

    fn invalid_arrival() -> DemandEvent {
        DemandEvent::Arrive(DemandRequest::Line {
            release: 9,
            deadline: 3,
            processing: 2,
            profit: 1.0,
            height: 1.0,
            access: vec![NetworkId::new(0)],
        })
    }

    fn epoch(service: &Service) -> u64 {
        service.with_session(|s| s.epoch()).unwrap()
    }

    #[test]
    fn wait_reports_every_invalid_event_of_a_batch() {
        let service = service();
        // Three failures of three different kinds, interleaved with valid
        // events: all of them must come back, each with its batch index.
        let batch = vec![
            valid_arrival(),
            invalid_arrival(),
            DemandEvent::Expire(DemandTicket(u64::MAX)),
            valid_arrival(),
            DemandEvent::Expire(DemandTicket(0)),
            DemandEvent::Expire(DemandTicket(0)),
        ];
        let err = match service.submit(batch).unwrap().wait() {
            Err(err) => err,
            Ok(_) => panic!("invalid batch accepted"),
        };
        match &err {
            ServiceError::InvalidBatch { failures } => {
                let indices: Vec<usize> = failures.iter().map(|(i, _)| *i).collect();
                assert_eq!(indices, vec![1, 2, 5]);
                assert!(matches!(failures[0].1, ServiceError::InvalidDemand(_)));
                assert!(matches!(
                    failures[1].1,
                    ServiceError::UnknownTicket(DemandTicket(u64::MAX))
                ));
                assert!(matches!(
                    failures[2].1,
                    ServiceError::DuplicateExpiry(DemandTicket(0))
                ));
            }
            other => panic!("expected InvalidBatch, got {other}"),
        }
        let message = err.to_string();
        assert!(message.contains("#1:"), "{message}");
        assert!(message.contains("#2:"), "{message}");
        assert!(message.contains("#5:"), "{message}");
        // Nothing stayed queued and no epoch ran: the valid remainder
        // resubmits cleanly.
        assert_eq!(service.queued(), 0);
        assert_eq!(epoch(&service), 0);
        assert!(service
            .submit(vec![valid_arrival(), DemandEvent::Expire(DemandTicket(0))])
            .unwrap()
            .wait()
            .is_ok());
    }

    #[test]
    fn expiries_claimed_earlier_in_a_fold_reject_later_duplicates() {
        let service = service();
        let first = service.expire(DemandTicket(0)).unwrap();
        let second = service.expire(DemandTicket(0)).unwrap();
        let delta = first.wait().unwrap();
        assert_eq!(delta.stats.expiries, 1);
        assert!(matches!(
            second.wait(),
            Err(ServiceError::DuplicateExpiry(DemandTicket(0)))
        ));

        // A rejected submission claims nothing: a later submission of the
        // same fold may still expire the ticket it named.
        let fresh = Service::new(session());
        let rejected = fresh
            .submit(vec![
                DemandEvent::Expire(DemandTicket(0)),
                invalid_arrival(),
            ])
            .unwrap();
        let accepted = fresh.expire(DemandTicket(0)).unwrap();
        assert!(matches!(
            rejected.wait(),
            Err(ServiceError::InvalidDemand(_))
        ));
        assert_eq!(accepted.wait().unwrap().stats.expiries, 1);
    }

    #[test]
    fn quarantine_policy_isolates_a_panicking_solve() {
        let mut session = session();
        session.inject_solve_panics(vec![1]);
        let service = Service::with_policy(
            session,
            ServicePolicy {
                quarantine: true,
                ..ServicePolicy::default()
            },
        );
        service.submit(vec![valid_arrival()]).unwrap();
        match service.flush() {
            Err(ServiceError::Quarantined { .. }) => {}
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The session survived the poisoned batch: it still answers
        // queries and accepts new submissions (the armed fault stays
        // armed, so the next epoch would quarantine again — the point is
        // the service is degraded, not down).
        assert_eq!(epoch(&service), 0);
        assert!(service.submit(vec![valid_arrival()]).is_ok());
    }

    #[test]
    fn default_policy_drives_unbudgeted_epochs_without_isolation() {
        // The default policy takes the plain `step` path for bulk-only
        // epochs — no pre-step snapshot, so an armed panic propagates
        // instead of being quarantined.
        let mut session = session();
        session.inject_solve_panics(vec![1]);
        let service = Service::new(session);
        service.submit(vec![valid_arrival()]).unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.flush()));
        assert!(outcome.is_err(), "plain step must not swallow the panic");
    }

    #[test]
    fn an_unisolated_panic_loses_the_session_without_later_panics() {
        let mut session = session();
        session.inject_solve_panics(vec![1]);
        let service = Service::new(session);
        let leader = service.submit(vec![valid_arrival()]).unwrap();
        let co_folded = service.submit(vec![arrival(5)]).unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| leader.wait()));
        assert!(outcome.is_err(), "the driving wait propagates the panic");

        let lost = |result: Result<(), ServiceError>| match result {
            Err(ServiceError::SessionLost { reason }) => {
                assert!(reason.contains("injected"), "{reason}")
            }
            other => panic!("expected SessionLost, got {other:?}"),
        };
        lost(co_folded.wait().map(drop));
        lost(service.flush().map(drop));
        lost(service.with_session(|_| ()));
        lost(service.reader().map(drop));
        let later = service.submit(vec![valid_arrival()]).unwrap();
        lost(later.wait().map(drop));
        // Dropping the service is quiet too.
        drop(service);
    }

    #[test]
    fn overloaded_hints_one_epoch_because_folds_drain_the_whole_queue() {
        let service = Service::with_policy(
            session(),
            ServicePolicy {
                max_queued: 2,
                ..ServicePolicy::default()
            },
        );
        let _a = service.submit(vec![valid_arrival()]).unwrap();
        let _b = service.submit(vec![valid_arrival()]).unwrap();
        match service.submit(vec![valid_arrival()]) {
            Err(ServiceError::Overloaded { retry_after_epochs }) => {
                // One fold drains every queued submission into one epoch,
                // so the queue empties in exactly one epoch no matter how
                // full it is.
                assert_eq!(retry_after_epochs, 1);
            }
            Err(other) => panic!("expected Overloaded, got {other:?}"),
            Ok(_) => panic!("full queue accepted a submission"),
        }
        // And indeed a single flush drains the whole queue.
        service.flush().unwrap();
        assert_eq!(service.queued(), 0);
        assert!(service.submit(vec![valid_arrival()]).is_ok());
    }

    #[test]
    fn queue_depth_gauge_returns_to_zero_on_every_dequeue_path() {
        let depth = |service: &Service| {
            service
                .with_session(|s| {
                    s.obs_registry()
                        .snapshot()
                        .gauge("service.queue_depth")
                        .unwrap_or(0)
                })
                .unwrap()
        };

        // Success path.
        let service = service();
        service.submit(vec![valid_arrival()]).unwrap();
        service.submit(vec![valid_arrival()]).unwrap();
        assert_eq!(depth(&service), 2);
        service.flush().unwrap();
        assert_eq!(depth(&service), 0);

        // Rejected submissions (InvalidBatch and bare errors) dequeue too.
        assert!(service
            .submit(vec![invalid_arrival(), invalid_arrival()])
            .unwrap()
            .wait()
            .is_err());
        assert!(service
            .submit(vec![invalid_arrival()])
            .unwrap()
            .wait()
            .is_err());
        assert_eq!(depth(&service), 0);

        // Journal-abort path: the step fails with the session unchanged,
        // but the drained submissions are still dequeued.
        struct RefusingJournal;
        impl crate::session::EpochJournal for RefusingJournal {
            fn record(&mut self, _epoch: u64, _batch: &[DemandEvent]) -> Result<(), String> {
                Err("disk on fire".into())
            }
        }
        let mut journaled = session();
        journaled.attach_journal(Box::new(RefusingJournal));
        let service = Service::new(journaled);
        service.submit(vec![valid_arrival()]).unwrap();
        assert_eq!(depth(&service), 1);
        assert!(matches!(service.flush(), Err(ServiceError::Journal(_))));
        assert_eq!(depth(&service), 0);

        // Quarantine path: the epoch rolls back, the dequeue still counts.
        let mut faulty = session();
        faulty.inject_solve_panics(vec![1]);
        let service = Service::with_policy(
            faulty,
            ServicePolicy {
                quarantine: true,
                ..ServicePolicy::default()
            },
        );
        service.submit(vec![valid_arrival()]).unwrap();
        assert_eq!(depth(&service), 1);
        assert!(matches!(
            service.flush(),
            Err(ServiceError::Quarantined { .. })
        ));
        assert_eq!(depth(&service), 0);
    }

    #[test]
    fn single_failures_keep_their_bare_error() {
        let service = service();
        let err = match service
            .submit(vec![valid_arrival(), invalid_arrival()])
            .unwrap()
            .wait()
        {
            Err(err) => err,
            Ok(_) => panic!("invalid batch accepted"),
        };
        assert!(
            matches!(err, ServiceError::InvalidDemand(_)),
            "a lone failure is not wrapped: {err}"
        );
    }

    #[test]
    fn submit_then_wait_steps_in_order_and_publishes() {
        let service = service();
        let mut reader = service.reader().unwrap();
        for i in 0..4 {
            let delta = service
                .submit(vec![arrival(2 * i)])
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(delta.epoch, u64::from(i) + 1);
        }
        let snap = reader.read();
        assert_eq!(snap.epoch(), 4, "the last epoch was published");
        assert!(snap.verify_fingerprint());
        service
            .with_session(|session| {
                assert_eq!(session.epoch(), 4);
                assert!((snap.profit() - session.profit()).abs() < 1e-12);
                assert_eq!(snap.schedule(), session.schedule());
            })
            .unwrap();
    }

    #[test]
    fn invalid_submissions_fail_through_the_handle_without_poisoning_the_fold() {
        let service = service();
        let bad = service.submit(vec![invalid_arrival()]).unwrap();
        let good = service.submit(vec![arrival(0)]).unwrap();
        assert!(matches!(bad.wait(), Err(ServiceError::InvalidDemand(_))));
        assert_eq!(good.wait().unwrap().epoch, 1);
    }

    #[test]
    fn bounded_queue_fails_fast_at_the_exact_bound() {
        let service = Service::with_policy(
            session(),
            ServicePolicy {
                max_queued: 1,
                ..ServicePolicy::default()
            },
        );
        let first = service.submit(vec![arrival(0)]).unwrap();
        match service.submit(vec![arrival(1)]) {
            Err(ServiceError::Overloaded { retry_after_epochs }) => {
                assert_eq!(retry_after_epochs, 1);
            }
            Err(other) => panic!("expected Overloaded, got {other:?}"),
            Ok(_) => panic!("a queue bounded at 1 accepted a second submission"),
        }
        assert_eq!(first.wait().unwrap().epoch, 1);
        assert!(service.submit(vec![arrival(1)]).is_ok());
    }
}
