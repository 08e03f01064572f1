//! Durable serving tier for `netsched-service`: a **write-ahead event
//! log** plus **periodic snapshots**, with restore defined as *latest
//! valid snapshot + log replay* through the session's normal
//! [`step`](netsched_service::ServiceSession::step) path.
//!
//! # The recovery contract
//!
//! A [`DurableSession`] wraps a
//! [`ServiceSession`](netsched_service::ServiceSession) and owns a
//! directory:
//!
//! * `wal.log` ([`WAL_FILE`]) — an append-only concatenation of framed,
//!   CRC-checksummed records ([`netsched_workloads::framing`]), one per
//!   accepted epoch batch. The record is appended through the session's
//!   [`EpochJournal`](netsched_service::EpochJournal) hook **before** the
//!   epoch executes (write-ahead: a journal failure aborts the step with
//!   the session unchanged).
//! * `topology.json` ([`TOPOLOGY_FILE`]) — the session's networks
//!   ([`SessionTopology`](netsched_service::SessionTopology)), written
//!   once by [`DurableSession::create`]. The networks never change during
//!   a session, so no snapshot repeats them and nothing rewrites or
//!   prunes this file.
//! * `snapshot-<epoch>.json` ([`snapshot_path`]) — versioned session
//!   state documents
//!   ([`ServiceSession::state_snapshot`](netsched_service::ServiceSession::state_snapshot):
//!   a snapshot without its topology), written atomically (temp file +
//!   rename) on a configurable epoch cadence;
//!   [`compact`](netsched_service::ServiceSession::compact) runs first,
//!   so stale split cores and oversized warm replay stacks never reach
//!   disk.
//!
//! [`restore`] reads the topology once and restores the newest snapshot
//! that parses and validates against it (corrupt ones are skipped,
//! counted in [`RestoreReport::dropped_snapshots`]; without a readable
//! topology nothing restores, and the error names the file), scans the
//! log to its longest
//! valid frame prefix (truncated tails, flipped checksum bytes and
//! zero-length files all degrade to a shorter prefix, never a panic) and
//! replays the records past the snapshot's epoch through the normal
//! `step` path. Because replay *is* the serving path, the recovered
//! session inherits the session's own equivalence contract: **Cold**
//! restores are byte-identical to the uninterrupted run, **Warm**
//! restores are certificate-equivalent (the root
//! `tests/durability_recovery.rs` suite pins both, at several thread
//! counts).
//!
//! Quarantined batches never resurrect on replay: the journal records a
//! batch *before* its solve, so a solve that panicked leaves a dead
//! record in the log — the quarantine appends a **rollback tombstone**
//! after restoring the session, and replay cancels the dead record
//! against it. Should the tombstone append itself fail, the next
//! accepted batch re-uses the dead record's epoch and replay lets the
//! **last record of a duplicated epoch supersede** the earlier ones;
//! either way the cancelled records are counted in
//! [`RestoreReport::rolled_back_records`]. Where a record was
//! cancelled, replay calls
//! [`replay_after_quarantine`](netsched_service::ServiceSession::replay_after_quarantine),
//! so a warm recovery runs the solves the live session ran. [`DurableSession::recover`]
//! additionally truncates the log at the first record that could *not*
//! replay (corrupt frame, undecodable payload or epoch discontinuity),
//! so records acknowledged after a recovery are never stranded behind a
//! dead suffix.
//!
//! On-disk history stays bounded: each successful cadence snapshot drops
//! log records at or before the *previous* snapshot's epoch and deletes
//! snapshot files older than the previous one (see
//! [`DurableSession::snapshot_now`]), keeping roughly two cadences of
//! replayable history — enough for a restore to fall back one snapshot
//! when the newest is corrupt.
//!
//! # Choosing a [`Durability`]
//!
//! | mode | fsync | loses on power cut |
//! |---|---|---|
//! | [`Durability::None`] | never | everything since the OS last flushed |
//! | [`Durability::Epoch`] | once per successful epoch | at most the in-flight epoch |
//! | [`Durability::Batch`] | inside the journal append, before the epoch executes | nothing acknowledged |
//!
//! `Batch` is the classic write-ahead guarantee (the record is on disk
//! before any state mutates); `Epoch` is the usual serving trade-off
//! (group commit at epoch granularity); `None` is for tests and bulk
//! loads. The `durability` bench records the append-throughput cost of
//! each mode.
//!
//! # Graceful degradation: the durability ladder
//!
//! The configured [`Durability`] is a *promise*, and the tier treats a
//! disk that stops honoring it as an operational event, not a crash.
//! Every log append and fsync runs through a retrying shim (short
//! exponential backoff; failed or torn appends are rolled back to the
//! pre-append length before the retry). When an **fsync keeps failing**
//! after the retries, the session **downgrades its effective durability
//! one rung and keeps serving**:
//!
//! ```text
//! Batch ──fsync fails──▶ Epoch ──fsync fails──▶ None
//! ```
//!
//! * `Batch → Epoch`: the record is in the log but could not be forced
//!   to stable storage inside the append; subsequent appends stop
//!   syncing and the epoch-cadence sync takes over.
//! * `Epoch → None`: the epoch-cadence sync itself keeps failing; the
//!   log degrades to page-cache-only durability.
//!
//! Appends that keep failing outright (not just their fsync) still fail
//! the step — the write-ahead contract never silently drops a record.
//! Every downgrade is **operator-visible**: [`DurableSession::health`]
//! reports the effective vs. configured durability, retry and
//! sync-failure counters and the full list of [`DegradeEvent`]s (epoch +
//! cause). Fault campaigns are scripted with
//! [`FaultPlan`](netsched_workloads::FaultPlan) via
//! [`DurableSession::inject_faults`]; the root `tests/fault_injection.rs`
//! suite pins the ladder end to end.
//!
//! # Observability
//!
//! The WAL records into the wrapped session's
//! [`ObsRegistry`](netsched_obs::ObsRegistry), so one snapshot covers
//! epochs and durability alike: `wal.append_ns` / `wal.fsync_ns` latency
//! histograms plus counters that mirror [`WalHealth`] field-for-field —
//! `wal.append_retries` ↔ [`WalHealth::append_retries`],
//! `wal.sync_failures` ↔ [`WalHealth::sync_failures`],
//! `wal.degrade_events` ↔ `WalHealth::degrade_events.len()`. Every
//! snapshot (`create`'s included) records `durable.snapshot_ns`, the
//! whole [`DurableSession::snapshot_now`] from the compaction through the
//! pruning, and `durable.snapshot_bytes`, the state file's size. Recovery
//! records its phase timings (`restore.snapshot_load_ns`,
//! `restore.scan_ns`, `restore.replay_ns`) into the recovered session's
//! registry. [`DurableSession::step_with_deadline`] persists a
//! quarantined batch's forensics bundle (batch + panic payload + metrics)
//! under `<dir>/quarantine/epoch-<N>/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod durable;
mod restore;
mod wal;

use std::path::PathBuf;

pub use durable::{snapshot_path, DurableSession, SNAPSHOT_PREFIX, TOPOLOGY_FILE};
pub use restore::{restore, RecoveredSession, RestoreReport};
pub use wal::WAL_FILE;

/// When the write-ahead log is forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Never fsync: appends reach the OS page cache only. Fastest; a
    /// crash of the *process* loses nothing (the kernel still holds the
    /// writes), a power cut loses whatever the OS had not flushed.
    None,
    /// One fsync per successful epoch, after the step completes. A power
    /// cut loses at most the epoch that was in flight.
    #[default]
    Epoch,
    /// Fsync inside every journal append, **before** the epoch executes —
    /// the classic write-ahead guarantee: no acknowledged batch can be
    /// lost, at one `fdatasync` of latency per batch.
    Batch,
}

/// Configuration of a [`DurableSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistConfig {
    /// The fsync policy of the write-ahead log (snapshots are synced
    /// whenever this is not [`Durability::None`]).
    pub durability: Durability,
    /// Write a snapshot every this many epochs (`0` disables automatic
    /// snapshots; [`DurableSession::snapshot_now`] is always available).
    /// The cadence trades write amplification against recovery time: the
    /// log suffix a restore must replay is at most this many records.
    pub snapshot_every: u64,
}

impl Default for PersistConfig {
    fn default() -> Self {
        Self {
            durability: Durability::Epoch,
            snapshot_every: 64,
        }
    }
}

/// An error of the durable tier's own I/O paths (session creation,
/// crash recovery, snapshot writes). Wraps the underlying [`io::Error`]
/// together with the operation and the file it targeted, so a failed
/// recovery names the exact path that broke instead of a bare OS string.
///
/// [`io::Error`]: std::io::Error
#[derive(Debug)]
pub enum PersistError {
    /// A filesystem operation failed.
    Io {
        /// What the tier was doing (e.g. `"creating"`, `"truncating the
        /// corrupt suffix of"`).
        op: &'static str,
        /// The file or directory the operation targeted.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The write-ahead log shim failed (an append that kept failing
    /// after its retries, or a poisoned lock).
    Wal(String),
    /// Restoring from snapshots plus log replay failed.
    Restore(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { op, path, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            PersistError::Wal(why) => write!(f, "write-ahead log: {why}"),
            PersistError::Restore(why) => write!(f, "restore failed: {why}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One rung-down move of the durability ladder, kept in [`WalHealth`]
/// for the operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradeEvent {
    /// The epoch whose persistence triggered the downgrade.
    pub epoch: u64,
    /// The effective durability before the event.
    pub from: Durability,
    /// The effective durability after the event.
    pub to: Durability,
    /// Why (the exhausted retry's final error).
    pub cause: String,
}

/// Operator-visible health of the write-ahead log: what durability the
/// session is *actually* delivering, and how it got there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalHealth {
    /// The durability the session was configured with.
    pub configured_durability: Durability,
    /// The durability currently in effect — equal to the configured one
    /// until fsync failures force a downgrade (`Batch → Epoch → None`).
    pub effective_durability: Durability,
    /// Total append attempts that failed and were retried (or gave up).
    pub append_retries: u64,
    /// Total fsync attempts that failed.
    pub sync_failures: u64,
    /// Every downgrade, oldest first.
    pub degrade_events: Vec<DegradeEvent>,
}

impl WalHealth {
    pub(crate) fn new(configured: Durability) -> Self {
        Self {
            configured_durability: configured,
            effective_durability: configured,
            append_retries: 0,
            sync_failures: 0,
            degrade_events: Vec::new(),
        }
    }

    /// `true` when the session is delivering less durability than it was
    /// configured for.
    pub fn degraded(&self) -> bool {
        self.effective_durability != self.configured_durability
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsched_core::AlgorithmConfig;
    use netsched_graph::{LineProblem, NetworkId};
    use netsched_service::{DemandEvent, DemandRequest, ServiceSession};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "netsched-persist-{}-{}",
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

    #[test]
    fn kill_and_recover_resumes_the_exact_state() {
        let dir = temp_dir();
        let problem = line_problem();
        let config = AlgorithmConfig::deterministic(0.1);
        let mut durable = DurableSession::create(
            &dir,
            ServiceSession::for_line(&problem, config),
            PersistConfig {
                durability: Durability::Batch,
                snapshot_every: 0,
            },
        )
        .unwrap();
        for start in [1u32, 5, 9, 13] {
            durable.step(&[arrival(start)]).unwrap();
        }
        let profit = durable.session().profit();
        let epoch = durable.session().epoch();
        let schedule = durable.session().schedule();
        drop(durable); // the crash

        let (recovered, report) = DurableSession::recover(&dir, PersistConfig::default()).unwrap();
        assert_eq!(report.snapshot_epoch, 0);
        assert_eq!(report.replayed_epochs, 4);
        assert_eq!(report.dropped_records, 0);
        assert_eq!(report.dropped_snapshots, 0);
        assert_eq!(report.final_epoch, epoch);
        assert_eq!(recovered.session().epoch(), epoch);
        assert_eq!(recovered.session().profit(), profit);
        assert_eq!(recovered.session().schedule(), schedule);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_cadence_short_circuits_replay() {
        let dir = temp_dir();
        let problem = line_problem();
        let config = AlgorithmConfig::deterministic(0.1);
        let mut durable = DurableSession::create(
            &dir,
            ServiceSession::for_line(&problem, config),
            PersistConfig {
                durability: Durability::None,
                snapshot_every: 2,
            },
        )
        .unwrap();
        for start in [1u32, 4, 7, 10, 13] {
            durable.step(&[arrival(start)]).unwrap();
        }
        assert_eq!(durable.last_snapshot_epoch(), 4);
        let profit = durable.session().profit();
        drop(durable);

        let recovered = restore(&dir).unwrap();
        // The epoch-4 snapshot covers records 1..=4; only epoch 5 replays.
        // Records 1 and 2 were compacted away when the epoch-4 snapshot
        // landed (they are at or before the previous snapshot's epoch),
        // so just 3 and 4 remain to skip.
        assert_eq!(recovered.report.snapshot_epoch, 4);
        assert_eq!(recovered.report.replayed_epochs, 1);
        assert_eq!(recovered.report.skipped_records, 2);
        assert_eq!(recovered.report.final_epoch, 5);
        assert_eq!(recovered.session.profit(), profit);
        // The same snapshot pruned the files its predecessor made
        // redundant: only the epoch-2 and epoch-4 snapshots remain.
        assert!(!snapshot_path(&dir, 0).exists());
        assert!(snapshot_path(&dir, 2).exists());
        assert!(snapshot_path(&dir, 4).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_an_older_one() {
        let dir = temp_dir();
        let problem = line_problem();
        let config = AlgorithmConfig::deterministic(0.1);
        let mut durable = DurableSession::create(
            &dir,
            ServiceSession::for_line(&problem, config),
            PersistConfig {
                durability: Durability::None,
                snapshot_every: 2,
            },
        )
        .unwrap();
        for start in [1u32, 4, 7, 10, 13] {
            durable.step(&[arrival(start)]).unwrap();
        }
        let profit = durable.session().profit();
        drop(durable);
        std::fs::write(snapshot_path(&dir, 4), b"{ not json").unwrap();

        let recovered = restore(&dir).unwrap();
        assert_eq!(recovered.report.dropped_snapshots, 1);
        assert_eq!(recovered.report.snapshot_epoch, 2);
        assert_eq!(recovered.report.replayed_epochs, 3);
        assert_eq!(recovered.report.final_epoch, 5);
        assert_eq!(recovered.session.profit(), profit);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
