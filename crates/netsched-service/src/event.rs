//! The demand-event model of the dynamic scheduling service.
//!
//! A [`ServiceSession`](crate::ServiceSession) admits **batches** of
//! [`DemandEvent`]s: arrivals carry a full [`DemandRequest`] (the dynamic
//! counterpart of `TreeProblem::add_demand` / `LineProblem::add_demand`),
//! expiries name a previously issued [`DemandTicket`]. Tickets are the
//! *stable* external identity of a demand — the dense `DemandId`s of the
//! underlying universe are renumbered whenever an earlier demand expires,
//! exactly as a from-scratch rebuild over the surviving set would number
//! them, so callers never see them.

use std::fmt;

use netsched_graph::{NetworkId, VertexId};

/// The stable identity of a demand across the lifetime of a service
/// session. Assigned sequentially at admission (the demands a session is
/// seeded with receive tickets `0..m` in problem order) and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DemandTicket(pub u64);

impl fmt::Display for DemandTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An arriving demand: everything `add_demand` would take, for either
/// network shape. The request's shape must match the session's shape.
#[derive(Debug, Clone, PartialEq)]
pub enum DemandRequest {
    /// A tree-network demand `⟨u, v⟩` with an access set.
    Tree {
        /// One end-point of the route.
        u: VertexId,
        /// The other end-point of the route.
        v: VertexId,
        /// Profit `p(a) > 0`.
        profit: f64,
        /// Height `h(a) ∈ (0, 1]`.
        height: f64,
        /// Accessible networks (non-empty; duplicates are removed).
        access: Vec<NetworkId>,
    },
    /// A windowed line-network demand (Section 7).
    Line {
        /// Release time (first admissible timeslot, inclusive).
        release: u32,
        /// Deadline (last admissible timeslot, inclusive).
        deadline: u32,
        /// Processing time (consecutive timeslots required).
        processing: u32,
        /// Profit `p(a) > 0`.
        profit: f64,
        /// Height `h(a) ∈ (0, 1]`.
        height: f64,
        /// Accessible resources (non-empty; duplicates are removed).
        access: Vec<NetworkId>,
    },
}

impl DemandRequest {
    /// The demand's height.
    pub fn height(&self) -> f64 {
        match self {
            DemandRequest::Tree { height, .. } | DemandRequest::Line { height, .. } => *height,
        }
    }

    /// The demand's profit.
    pub fn profit(&self) -> f64 {
        match self {
            DemandRequest::Tree { profit, .. } | DemandRequest::Line { profit, .. } => *profit,
        }
    }

    /// The demand's access set.
    pub fn access(&self) -> &[NetworkId] {
        match self {
            DemandRequest::Tree { access, .. } | DemandRequest::Line { access, .. } => access,
        }
    }

    /// `true` when the demand is wide (`h > 1/2`) — the split the
    /// arbitrary-height solvers are built on.
    pub fn is_wide(&self) -> bool {
        self.height() > 0.5
    }
}

/// One element of an epoch batch.
#[derive(Debug, Clone, PartialEq)]
pub enum DemandEvent {
    /// A demand joins the live set; the epoch's
    /// [`ScheduleDelta`](crate::ScheduleDelta) reports the ticket it was
    /// assigned.
    Arrive(DemandRequest),
    /// A previously admitted demand leaves the live set.
    Expire(DemandTicket),
}

/// Errors of the dynamic service. Batches are validated **before** any
/// state is mutated, so a failed [`step`](crate::ServiceSession::step)
/// leaves the session unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// An arriving demand failed the same validation `add_demand` performs
    /// (degenerate route, invalid window, non-positive profit, height
    /// outside `(0, 1]`, empty or unknown access set).
    InvalidDemand(String),
    /// An arrival's shape (tree vs line) does not match the session's.
    ShapeMismatch {
        /// The shape the session serves.
        expected: &'static str,
    },
    /// An expiry named a ticket that is not live.
    UnknownTicket(DemandTicket),
    /// The same ticket was expired twice within one batch.
    DuplicateExpiry(DemandTicket),
    /// An attached [`EpochJournal`](crate::EpochJournal) refused to record
    /// the batch. The write-ahead contract requires the batch to be
    /// durable before the epoch executes, so the step is abandoned with
    /// the session unchanged.
    Journal(String),
    /// Two or more events of one submission failed validation. Every
    /// failure is reported with the index of the offending event, so
    /// callers can drop or fix exactly the invalid tickets and resubmit
    /// the rest (a single invalid event is returned as its bare error
    /// instead).
    InvalidBatch {
        /// `(event index, error)` for every invalid event, in batch order.
        failures: Vec<(usize, ServiceError)>,
    },
    /// The frontend's submit queue is full
    /// ([`ServicePolicy::max_queued`](crate::ServicePolicy::max_queued)):
    /// backpressure, not failure. Nothing was enqueued; resubmit after
    /// `retry_after_epochs` epochs have run.
    Overloaded {
        /// How many epochs must run before the queue has drained; a
        /// polite client backs off at least this long. Always `1`:
        /// [`Service`](crate::Service) folds every queued submission into
        /// the next epoch.
        retry_after_epochs: u64,
    },
    /// The solve of this batch panicked. The batch is quarantined — the
    /// session was restored from its pre-step structures and is fully
    /// operational; the offending batch must not be resubmitted verbatim.
    Quarantined {
        /// The panic payload (downcast to a string when possible).
        reason: String,
    },
    /// An earlier epoch's solve panicked outside quarantine (a plain
    /// [`step`](crate::ServiceSession::step) under the default
    /// [`ServicePolicy`](crate::ServicePolicy)), so the session may be
    /// half-mutated. [`Service`](crate::Service) refuses every later call
    /// with this error; open a new session (a durable one restores from
    /// its log).
    SessionLost {
        /// The panic payload of the lost epoch.
        reason: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::InvalidDemand(why) => write!(f, "invalid demand: {why}"),
            ServiceError::ShapeMismatch { expected } => {
                write!(f, "request shape does not match the session ({expected})")
            }
            ServiceError::UnknownTicket(t) => write!(f, "ticket {t} is not live"),
            ServiceError::DuplicateExpiry(t) => write!(f, "ticket {t} expired twice in one batch"),
            ServiceError::Journal(why) => write!(f, "journal refused the batch: {why}"),
            ServiceError::InvalidBatch { failures } => {
                write!(f, "{} events of the batch are invalid:", failures.len())?;
                for (index, error) in failures {
                    write!(f, " [#{index}: {error}]")?;
                }
                Ok(())
            }
            ServiceError::Overloaded { retry_after_epochs } => write!(
                f,
                "submit queue is full; retry after ~{retry_after_epochs} epoch(s)"
            ),
            ServiceError::Quarantined { reason } => write!(
                f,
                "solve panicked and the batch was quarantined (session restored): {reason}"
            ),
            ServiceError::SessionLost { reason } => {
                write!(f, "session lost to an unisolated solve panic: {reason}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_accessors_and_display() {
        let req = DemandRequest::Tree {
            u: VertexId(0),
            v: VertexId(3),
            profit: 2.0,
            height: 0.75,
            access: vec![NetworkId(0), NetworkId(2)],
        };
        assert_eq!(req.profit(), 2.0);
        assert_eq!(req.height(), 0.75);
        assert!(req.is_wide());
        assert_eq!(req.access().len(), 2);
        assert_eq!(DemandTicket(7).to_string(), "t7");
        let err = ServiceError::UnknownTicket(DemandTicket(7));
        assert!(err.to_string().contains("t7"));
    }
}
