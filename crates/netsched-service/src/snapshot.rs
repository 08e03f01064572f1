//! JSON serialization of the service-layer types — the vocabulary of the
//! durable serving tier (`netsched-persist`).
//!
//! Two kinds of documents are built from these pieces:
//!
//! * **write-ahead log records** — one
//!   [`wal_record`] per accepted epoch batch, serializing the epoch number
//!   and its [`DemandEvent`]s; framed and checksummed by
//!   [`netsched_workloads::framing`];
//! * **session snapshots** —
//!   [`ServiceSession::snapshot`](crate::ServiceSession::snapshot)
//!   documents carrying the session state that cannot be recomputed (base
//!   problem, config, resolve mode, live ticket table, ticket and epoch
//!   counters, the pending-anytime flag, standing schedule, profit,
//!   certificate, per-core warm states without their derived relative
//!   heights and `λ` minima) behind a versioned header
//!   ([`SNAPSHOT_FORMAT_VERSION`]). A reader accepts exactly its own
//!   version and rejects every other one. A snapshot splits into the
//!   topology document
//!   ([`SessionTopology`](crate::SessionTopology): `format`, `shape`,
//!   `base`) and the state document
//!   ([`state_snapshot`](crate::ServiceSession::state_snapshot):
//!   everything but `base`), both under the same version.

use netsched_graph::{NetworkId, VertexId};
use netsched_workloads::json::{FromJson, JsonValue, ToJson};

use crate::event::{DemandEvent, DemandRequest, DemandTicket};
use crate::session::{Certificate, Placement, ResolveMode};

/// The snapshot document format written by
/// [`ServiceSession::snapshot`](crate::ServiceSession::snapshot). Bump on
/// any incompatible change;
/// [`from_snapshot`](crate::ServiceSession::from_snapshot) rejects
/// unknown versions instead of mis-parsing them. Version 2 dropped the
/// recomputable warm-state columns and added `anytime_pending`.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 2;

fn access_to_json(access: &[NetworkId]) -> JsonValue {
    JsonValue::Array(access.iter().map(|t| JsonValue::int(t.index())).collect())
}

fn access_from_json(value: &JsonValue) -> Result<Vec<NetworkId>, String> {
    value
        .as_array()?
        .iter()
        .map(|t| Ok(NetworkId::new(t.as_usize()?)))
        .collect()
}

impl ToJson for DemandRequest {
    fn to_json(&self) -> JsonValue {
        match self {
            DemandRequest::Tree {
                u,
                v,
                profit,
                height,
                access,
            } => JsonValue::object(vec![
                ("shape", JsonValue::String("tree".into())),
                ("u", JsonValue::int(u.index())),
                ("v", JsonValue::int(v.index())),
                ("profit", JsonValue::num(*profit)),
                ("height", JsonValue::num(*height)),
                ("access", access_to_json(access)),
            ]),
            DemandRequest::Line {
                release,
                deadline,
                processing,
                profit,
                height,
                access,
            } => JsonValue::object(vec![
                ("shape", JsonValue::String("line".into())),
                ("release", JsonValue::int(*release as usize)),
                ("deadline", JsonValue::int(*deadline as usize)),
                ("processing", JsonValue::int(*processing as usize)),
                ("profit", JsonValue::num(*profit)),
                ("height", JsonValue::num(*height)),
                ("access", access_to_json(access)),
            ]),
        }
    }
}

impl FromJson for DemandRequest {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        match value.field("shape")?.as_str()? {
            "tree" => Ok(DemandRequest::Tree {
                u: VertexId::new(value.field("u")?.as_usize()?),
                v: VertexId::new(value.field("v")?.as_usize()?),
                profit: value.field("profit")?.as_f64()?,
                height: value.field("height")?.as_f64()?,
                access: access_from_json(value.field("access")?)?,
            }),
            "line" => Ok(DemandRequest::Line {
                release: value.field("release")?.as_u32()?,
                deadline: value.field("deadline")?.as_u32()?,
                processing: value.field("processing")?.as_u32()?,
                profit: value.field("profit")?.as_f64()?,
                height: value.field("height")?.as_f64()?,
                access: access_from_json(value.field("access")?)?,
            }),
            other => Err(format!("unknown demand shape `{other}`")),
        }
    }
}

impl ToJson for DemandEvent {
    fn to_json(&self) -> JsonValue {
        match self {
            DemandEvent::Arrive(request) => JsonValue::object(vec![
                ("event", JsonValue::String("arrive".into())),
                ("request", request.to_json()),
            ]),
            DemandEvent::Expire(ticket) => JsonValue::object(vec![
                ("event", JsonValue::String("expire".into())),
                ("ticket", JsonValue::u64_value(ticket.0)),
            ]),
        }
    }
}

impl FromJson for DemandEvent {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        match value.field("event")?.as_str()? {
            "arrive" => Ok(DemandEvent::Arrive(DemandRequest::from_json(
                value.field("request")?,
            )?)),
            "expire" => Ok(DemandEvent::Expire(DemandTicket(
                value.field("ticket")?.as_u64()?,
            ))),
            other => Err(format!("unknown event kind `{other}`")),
        }
    }
}

impl ToJson for Placement {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("network", JsonValue::int(self.network.index())),
            (
                "start",
                match self.start {
                    Some(start) => JsonValue::int(start as usize),
                    None => JsonValue::Null,
                },
            ),
        ])
    }
}

impl FromJson for Placement {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        Ok(Placement {
            network: NetworkId::new(value.field("network")?.as_usize()?),
            start: match value.field("start")? {
                JsonValue::Null => None,
                doc => Some(doc.as_u32()?),
            },
        })
    }
}

impl ToJson for Certificate {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            (
                "optimum_upper_bound",
                JsonValue::num(self.optimum_upper_bound),
            ),
            ("lambda", JsonValue::num(self.lambda)),
            ("dual_objective", JsonValue::num(self.dual_objective)),
        ])
    }
}

impl FromJson for Certificate {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        Ok(Certificate {
            optimum_upper_bound: value.field("optimum_upper_bound")?.as_f64()?,
            lambda: value.field("lambda")?.as_f64()?,
            dual_objective: value.field("dual_objective")?.as_f64()?,
        })
    }
}

impl ToJson for ResolveMode {
    fn to_json(&self) -> JsonValue {
        JsonValue::String(
            match self {
                ResolveMode::Cold => "cold",
                ResolveMode::Warm => "warm",
            }
            .into(),
        )
    }
}

impl FromJson for ResolveMode {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        ResolveMode::parse(value.as_str()?)
            .ok_or_else(|| format!("unknown resolve mode `{}`", value.render()))
    }
}

/// One decoded write-ahead log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A batch record: the epoch the batch advances the session to, plus
    /// the batch's events in order.
    Batch {
        /// The epoch the batch advances the session to.
        epoch: u64,
        /// The batch's events, in order.
        batch: Vec<DemandEvent>,
    },
    /// A rollback tombstone: the batch journaled for `epoch` was
    /// quarantined and never executed. Replay must skip the preceding
    /// batch record(s) carrying this epoch.
    Rollback {
        /// The epoch whose journaled batch was rolled back.
        epoch: u64,
    },
}

impl WalRecord {
    /// The epoch the record refers to, for either variant.
    pub fn epoch(&self) -> u64 {
        match self {
            WalRecord::Batch { epoch, .. } | WalRecord::Rollback { epoch } => *epoch,
        }
    }
}

/// Builds one write-ahead log record: the epoch the batch advances the
/// session to, plus the batch's events in order.
pub fn wal_record(epoch: u64, batch: &[DemandEvent]) -> JsonValue {
    JsonValue::object(vec![
        ("epoch", JsonValue::u64_value(epoch)),
        (
            "batch",
            JsonValue::Array(batch.iter().map(ToJson::to_json).collect()),
        ),
    ])
}

/// Builds one rollback tombstone: the batch journaled for `epoch` was
/// quarantined and its record must not replay.
pub fn wal_rollback_record(epoch: u64) -> JsonValue {
    JsonValue::object(vec![("rollback", JsonValue::u64_value(epoch))])
}

/// Parses one write-ahead log record (batch or rollback tombstone).
pub fn parse_wal_record(value: &JsonValue) -> Result<WalRecord, String> {
    if let Ok(rollback) = value.field("rollback") {
        return Ok(WalRecord::Rollback {
            epoch: rollback.as_u64()?,
        });
    }
    let epoch = value.field("epoch")?.as_u64()?;
    let batch = value
        .field("batch")?
        .as_array()?
        .iter()
        .map(DemandEvent::from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(WalRecord::Batch { epoch, batch })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_and_records_roundtrip() {
        let batch = vec![
            DemandEvent::Arrive(DemandRequest::Line {
                release: 2,
                deadline: 9,
                processing: 3,
                profit: 4.5,
                height: 0.25,
                access: vec![NetworkId::new(0), NetworkId::new(2)],
            }),
            DemandEvent::Arrive(DemandRequest::Tree {
                u: VertexId::new(1),
                v: VertexId::new(5),
                profit: 2.0,
                height: 1.0,
                access: vec![NetworkId::new(1)],
            }),
            DemandEvent::Expire(DemandTicket(u64::MAX)),
        ];
        let text = wal_record(17, &batch).render();
        match parse_wal_record(&JsonValue::parse(&text).unwrap()).unwrap() {
            WalRecord::Batch { epoch, batch: back } => {
                assert_eq!(epoch, 17);
                assert_eq!(back, batch);
            }
            other => panic!("expected a batch record, got {other:?}"),
        }
        let text = wal_rollback_record(17).render();
        assert_eq!(
            parse_wal_record(&JsonValue::parse(&text).unwrap()).unwrap(),
            WalRecord::Rollback { epoch: 17 }
        );
    }

    #[test]
    fn placements_and_certificates_roundtrip() {
        for placement in [
            Placement {
                network: NetworkId::new(3),
                start: Some(11),
            },
            Placement {
                network: NetworkId::new(0),
                start: None,
            },
        ] {
            let back =
                Placement::from_json(&JsonValue::parse(&placement.to_json().render()).unwrap())
                    .unwrap();
            assert_eq!(back, placement);
        }
        let cert = Certificate {
            optimum_upper_bound: 12.5,
            lambda: 0.9,
            dual_objective: 11.25,
        };
        let back =
            Certificate::from_json(&JsonValue::parse(&cert.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, cert);
        for mode in [ResolveMode::Cold, ResolveMode::Warm] {
            assert_eq!(ResolveMode::from_json(&mode.to_json()).unwrap(), mode);
        }
    }
}
