//! Replaying generated event traces (`netsched-workloads::dynamic`)
//! against a [`ServiceSession`].
//!
//! Traces speak *arrival indices*; sessions speak [`DemandTicket`]s. The
//! two align by construction — a session seeded with the trace's base
//! problem assigns tickets `0..m₀` to the initial demands and subsequent
//! tickets in admission order, exactly the trace's arrival numbering — but
//! the replay keeps an explicit arrival→ticket table anyway, so it also
//! works for sessions that interleave other submissions.

use netsched_workloads::{EventTrace, TraceEvent};

use crate::event::{DemandEvent, DemandRequest, DemandTicket, ServiceError};
use crate::session::{ScheduleDelta, ServiceSession};

/// Converts one trace event into a service event, resolving expiries
/// through the arrival→ticket table.
fn to_event(event: &TraceEvent, tickets: &[DemandTicket]) -> DemandEvent {
    match event {
        TraceEvent::ArriveTree {
            u,
            v,
            profit,
            height,
            access,
        } => DemandEvent::Arrive(DemandRequest::Tree {
            u: *u,
            v: *v,
            profit: *profit,
            height: *height,
            access: access.clone(),
        }),
        TraceEvent::ArriveLine {
            release,
            deadline,
            processing,
            profit,
            height,
            access,
        } => DemandEvent::Arrive(DemandRequest::Line {
            release: *release,
            deadline: *deadline,
            processing: *processing,
            profit: *profit,
            height: *height,
            access: access.clone(),
        }),
        TraceEvent::Expire { arrival } => DemandEvent::Expire(
            *tickets
                .get(*arrival)
                .expect("trace expires an arrival it never made"),
        ),
    }
}

/// Steps the session through every batch of the trace, returning one
/// [`ScheduleDelta`] per epoch. The session must have been seeded with the
/// trace's base problem (the initial demands are the trace's arrivals
/// `0..m₀`).
pub fn replay_trace(
    session: &mut ServiceSession,
    trace: &EventTrace,
) -> Result<Vec<ScheduleDelta>, ServiceError> {
    let mut tickets: Vec<DemandTicket> = session.live_tickets();
    let mut deltas = Vec::with_capacity(trace.batches.len());
    for batch in &trace.batches {
        let events: Vec<DemandEvent> = batch.iter().map(|e| to_event(e, &tickets)).collect();
        let delta = session.step(&events)?;
        tickets.extend(delta.tickets.iter().copied());
        deltas.push(delta);
    }
    Ok(deltas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ResolveMode;
    use netsched_core::AlgorithmConfig;
    use netsched_workloads::{many_networks_line, poisson_arrivals_line, ChurnSpec};

    #[test]
    fn replay_keeps_the_pool_near_its_target() {
        let base = many_networks_line(4, 40, 5);
        let problem = base.build().unwrap();
        let trace = poisson_arrivals_line(
            &base,
            &ChurnSpec {
                epochs: 20,
                churn: 0.15,
                focus: 2,
                seed: 9,
            },
        );
        for mode in [ResolveMode::Cold, ResolveMode::Warm] {
            let mut session =
                ServiceSession::for_line(&problem, AlgorithmConfig::deterministic(0.1))
                    .with_resolve_mode(mode);
            let deltas = replay_trace(&mut session, &trace).unwrap();
            assert_eq!(deltas.len(), 20);
            assert_eq!(session.epoch(), 20);
            let live = session.live_demands();
            assert!(
                live > 10 && live < 100,
                "{mode:?}: steady-state pool stays near target, got {live}"
            );
            // Every epoch carried a valid certificate for its standing schedule.
            for delta in &deltas {
                assert!(delta.certificate.optimum_upper_bound + 1e-9 >= delta.profit);
            }
        }
    }
}
