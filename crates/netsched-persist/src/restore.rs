//! Crash recovery: newest valid snapshot + write-ahead log replay.

use std::path::{Path, PathBuf};

use netsched_service::{parse_wal_record, DemandEvent, ServiceSession, SessionTopology, WalRecord};
use netsched_workloads::framing::{scan_frames, FRAME_HEADER_LEN};
use netsched_workloads::json::{FromJson, JsonValue};

use crate::durable::{snapshot_epoch, TOPOLOGY_FILE};
use crate::wal::WAL_FILE;

/// What a [`restore`] recovered and what it had to discard. Every count
/// is surfaced so operators can distinguish a clean restart (everything
/// zero except `replayed_epochs`) from one that lost data to corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreReport {
    /// The epoch of the snapshot the session was rebuilt from.
    pub snapshot_epoch: u64,
    /// Newer snapshot files that failed to read, parse or validate and
    /// were skipped in favor of an older one.
    pub dropped_snapshots: usize,
    /// Log records replayed through the normal `step` path.
    pub replayed_epochs: u64,
    /// Valid log records skipped because their epoch was already covered
    /// by the snapshot.
    pub skipped_records: usize,
    /// Log records lost to the corrupt suffix (truncated tail, flipped
    /// checksum, undecodable payload or an epoch discontinuity): the
    /// offending record plus the structurally plausible ones after it.
    pub dropped_records: usize,
    /// Batch records skipped because a later record cancelled them: a
    /// rollback tombstone (the batch was quarantined and never executed)
    /// or a subsequent record re-using the same epoch (the quarantine's
    /// tombstone append itself failed, so the retried batch supersedes
    /// the dead record).
    pub rolled_back_records: usize,
    /// The recovered session's epoch (`snapshot_epoch + replayed_epochs`).
    pub final_epoch: u64,
}

/// A recovered session plus the restore's accounting.
#[derive(Debug)]
pub struct RecoveredSession {
    /// The recovered session. No journal is attached — callers resuming
    /// durable serving should use
    /// [`DurableSession::recover`](crate::DurableSession::recover)
    /// instead, which re-attaches the log.
    pub session: ServiceSession,
    /// What was recovered and what was discarded.
    pub report: RestoreReport,
}

/// Rebuilds the session a crash interrupted, **read-only** (log and
/// snapshot files are left untouched):
///
/// 1. the topology is read from [`TOPOLOGY_FILE`] once; then the
///    snapshot files (the session state) are tried newest-first against
///    it, and the first one that reads, parses and shape-validates wins
///    (failures are counted, not fatal);
/// 2. the log is cut to its longest valid frame prefix
///    ([`scan_frames`] — a truncated tail, a flipped checksum byte and a
///    zero-length file all land here, never in a panic);
/// 3. the decoded records are resolved against quarantines: a rollback
///    tombstone cancels the dead batch record it names, and a record
///    re-using an earlier record's epoch supersedes it (the tombstone
///    append itself failed mid-quarantine) — cancelled records are
///    counted in [`RestoreReport::rolled_back_records`], never replayed;
/// 4. resolved records at or before the snapshot's epoch are skipped,
///    the rest replay in order through the normal
///    [`step`](ServiceSession::step) path — so the recovered session
///    inherits the session's own equivalence contract (cold:
///    byte-identical; warm: certificate-equivalent). Where a quarantine
///    cancelled a record, replay calls
///    [`replay_after_quarantine`](ServiceSession::replay_after_quarantine)
///    so the session continues as the quarantine left it.
///
/// Fails only when no snapshot in the directory is valid — a missing or
/// corrupt [`TOPOLOGY_FILE`] makes every snapshot invalid, and the error
/// names that file — or a valid record fails to replay (which indicates
/// a log/snapshot mismatch, not ordinary corruption).
pub fn restore(dir: impl AsRef<Path>) -> Result<RecoveredSession, String> {
    let (session, report, _) = restore_inner(dir.as_ref())?;
    Ok(RecoveredSession { session, report })
}

/// [`restore`] plus the byte length of the log's **replayable** prefix —
/// the offset of the first dropped record (corrupt frame, undecodable
/// payload or epoch discontinuity), or the full valid frame length when
/// nothing was dropped — which
/// [`DurableSession::recover`](crate::DurableSession::recover) truncates
/// to before appending new records, so the next recovery does not trip
/// over the same dead suffix.
pub(crate) fn restore_inner(dir: &Path) -> Result<(ServiceSession, RestoreReport, u64), String> {
    let load_start = std::time::Instant::now();
    let topology = load_topology(&dir.join(TOPOLOGY_FILE))
        .map_err(|e| format!("no valid snapshot under {}: {e}", dir.display()))?;
    let mut snapshots = list_snapshots(dir)?;
    snapshots.sort_by_key(|s| std::cmp::Reverse(s.0));
    let mut dropped_snapshots = 0usize;
    let mut restored = None;
    for (_, path) in &snapshots {
        match load_snapshot(&topology, path) {
            Ok(session) => {
                restored = Some(session);
                break;
            }
            Err(_) => dropped_snapshots += 1,
        }
    }
    let mut session =
        restored.ok_or_else(|| format!("no valid snapshot under {}", dir.display()))?;
    let snapshot_epoch = session.epoch();
    session
        .obs_registry()
        .histogram("restore.snapshot_load_ns")
        .record_duration(load_start.elapsed());

    // A missing log is a valid empty log (the session crashed before its
    // first append).
    let scan_start = std::time::Instant::now();
    let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap_or_default();
    let scan = scan_frames(&bytes);
    let mut dropped_records = scan.dropped_frames;
    let mut rolled_back_records = 0usize;
    // Byte offset at which the replayable prefix ends; `None` while no
    // record has been dropped.
    let mut truncate_at: Option<usize> = None;

    // Resolve quarantines before replaying anything: the stack holds the
    // records that survive, strictly increasing in epoch. A rollback
    // tombstone for epoch `e` pops the dead record(s) with epoch ≥ `e`;
    // so does a batch record re-using an earlier epoch (the tombstone
    // append itself failed mid-quarantine, and the retried batch
    // supersedes the dead record).
    struct Resolved {
        offset: usize,
        epoch: u64,
        batch: Vec<DemandEvent>,
        /// A quarantine cancelled a record since the previous survivor.
        after_quarantine: bool,
    }
    let mut resolved: Vec<Resolved> = Vec::new();
    let mut quarantined = false;
    let mut offset = 0usize;
    for (i, frame) in scan.frames.iter().enumerate() {
        let frame_offset = offset;
        offset += FRAME_HEADER_LEN + frame.len();
        let decoded = std::str::from_utf8(frame)
            .map_err(|e| e.to_string())
            .and_then(JsonValue::parse)
            .and_then(|doc| parse_wal_record(&doc));
        match decoded {
            Ok(WalRecord::Batch { epoch, batch }) => {
                while resolved.last().is_some_and(|r| r.epoch >= epoch) {
                    resolved.pop();
                    rolled_back_records += 1;
                    quarantined = true;
                }
                resolved.push(Resolved {
                    offset: frame_offset,
                    epoch,
                    batch,
                    after_quarantine: std::mem::take(&mut quarantined),
                });
            }
            Ok(WalRecord::Rollback { epoch }) => {
                while resolved.last().is_some_and(|r| r.epoch >= epoch) {
                    resolved.pop();
                    rolled_back_records += 1;
                }
                quarantined = true;
            }
            Err(_) => {
                // A CRC-valid frame that does not decode as a record:
                // treat it — and everything after it — as the corrupt
                // suffix.
                dropped_records += scan.frames.len() - i;
                truncate_at = Some(frame_offset);
                break;
            }
        }
    }

    session
        .obs_registry()
        .histogram("restore.scan_ns")
        .record_duration(scan_start.elapsed());

    let replay_start = std::time::Instant::now();
    let mut skipped_records = 0usize;
    let mut replayed_epochs = 0u64;
    for (i, record) in resolved.iter().enumerate() {
        if record.epoch <= snapshot_epoch {
            skipped_records += 1;
            continue;
        }
        if record.epoch != session.epoch() + 1 {
            // An epoch gap means the log and the snapshot disagree about
            // history; nothing after the gap can be applied soundly. The
            // gapped record precedes any already-recorded cut, so it
            // becomes the truncation point.
            dropped_records += resolved.len() - i;
            truncate_at = Some(record.offset);
            break;
        }
        if record.after_quarantine {
            session.replay_after_quarantine();
        }
        session
            .step(&record.batch)
            .map_err(|e| format!("replaying logged epoch {} failed: {e}", record.epoch))?;
        replayed_epochs += 1;
    }
    // A quarantine after the last surviving record.
    if quarantined {
        session.replay_after_quarantine();
    }

    session
        .obs_registry()
        .histogram("restore.replay_ns")
        .record_duration(replay_start.elapsed());

    let report = RestoreReport {
        snapshot_epoch,
        dropped_snapshots,
        replayed_epochs,
        skipped_records,
        dropped_records,
        rolled_back_records,
        final_epoch: session.epoch(),
    };
    let replayable_len = truncate_at.unwrap_or(scan.valid_len) as u64;
    Ok((session, report, replayable_len))
}

/// Every `snapshot-<epoch>.json` in the directory, unordered.
fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut snapshots = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        if let Some(epoch) = entry.file_name().to_str().and_then(snapshot_epoch) {
            snapshots.push((epoch, entry.path()));
        }
    }
    Ok(snapshots)
}

fn load_topology(path: &Path) -> Result<SessionTopology, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    JsonValue::parse(&text)
        .and_then(|doc| SessionTopology::from_json(&doc))
        .map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn load_snapshot(topology: &SessionTopology, path: &Path) -> Result<ServiceSession, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = JsonValue::parse(&text)?;
    ServiceSession::from_state(topology, &doc)
}
