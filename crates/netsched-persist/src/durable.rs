//! [`DurableSession`]: a serving session whose epochs survive crashes.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use netsched_core::Budget;
use netsched_service::{
    wal_record, CompactionReport, DemandEvent, ScheduleDelta, ServiceError, ServiceSession,
};
use netsched_workloads::json::ToJson;
use netsched_workloads::FaultPlan;

use crate::restore::restore_inner;
use crate::wal::{
    compact_wal, install_faults, install_obs, open_wal, sync_wal, wal_health, WalHandle,
    WalJournal, WAL_FILE,
};
use crate::{Durability, PersistConfig, PersistError, RestoreReport, WalHealth};

/// Snapshot files are named `snapshot-<epoch>.json`, epoch zero-padded so
/// lexicographic directory order equals epoch order.
pub const SNAPSHOT_PREFIX: &str = "snapshot-";

/// The file holding the session's topology
/// ([`SessionTopology`](netsched_service::SessionTopology)), written once
/// by [`DurableSession::create`]; every snapshot file is restored against
/// it.
pub const TOPOLOGY_FILE: &str = "topology.json";

/// The snapshot file path for `epoch` inside `dir`.
pub fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("{SNAPSHOT_PREFIX}{epoch:020}.json"))
}

/// The epoch a snapshot file name carries, or `None` when `name` is not a
/// snapshot file.
pub(crate) fn snapshot_epoch(name: &str) -> Option<u64> {
    name.strip_prefix(SNAPSHOT_PREFIX)?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// A [`ServiceSession`] wrapped in the durable serving tier: every
/// accepted batch is journaled to the directory's write-ahead log before
/// it executes, snapshots are written on an epoch cadence, and
/// [`DurableSession::recover`] resumes after a crash from the newest
/// valid snapshot plus log replay. See the [crate docs](crate) for the
/// recovery contract and the fsync policies.
pub struct DurableSession {
    session: ServiceSession,
    dir: PathBuf,
    wal: WalHandle,
    config: PersistConfig,
    last_snapshot_epoch: u64,
}

impl DurableSession {
    /// Starts a durable session in `dir` (created if absent): writes the
    /// session's topology to [`TOPOLOGY_FILE`] (once: it never changes,
    /// so no later snapshot repeats it), opens the write-ahead log for
    /// appending, attaches the journal and writes the initial snapshot
    /// (so a restore is possible before the first cadence snapshot). Both
    /// files are written atomically (temp file + rename), fsynced unless
    /// running [`Durability::None`]. The directory should be empty or
    /// belong to this session's own history — recovering someone else's
    /// log into a fresh session is what [`DurableSession::recover`] is
    /// for.
    pub fn create(
        dir: impl AsRef<Path>,
        mut session: ServiceSession,
        config: PersistConfig,
    ) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| PersistError::Io {
            op: "creating",
            path: dir.clone(),
            source: e,
        })?;
        write_atomically(
            &dir,
            &dir.join(TOPOLOGY_FILE),
            &session.topology().to_json().render(),
            config.durability != Durability::None,
        )?;
        let wal = open_wal(&dir, config.durability).map_err(PersistError::Wal)?;
        install_obs(&wal, session.obs_registry());
        session.attach_journal(Box::new(WalJournal::new(wal.clone())));
        let mut this = Self {
            last_snapshot_epoch: session.epoch(),
            session,
            dir,
            wal,
            config,
        };
        this.snapshot_now()?;
        Ok(this)
    }

    /// Resumes a durable session from `dir` after a crash: restores
    /// (newest valid snapshot + log replay, see [`crate::restore`]),
    /// truncates the log's non-replayable suffix — a corrupt tail, an
    /// undecodable record or an epoch discontinuity — so new records
    /// append after the last record that actually replayed (and the next
    /// recovery cannot trip over the same dead suffix), re-attaches the
    /// journal and returns the session together with the restore's
    /// accounting.
    pub fn recover(
        dir: impl AsRef<Path>,
        config: PersistConfig,
    ) -> Result<(Self, RestoreReport), PersistError> {
        let dir = dir.as_ref().to_path_buf();
        let (mut session, report, valid_len) =
            restore_inner(&dir).map_err(PersistError::Restore)?;
        let wal_path = dir.join(WAL_FILE);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(|e| PersistError::Io {
                op: "opening",
                path: wal_path.clone(),
                source: e,
            })?;
        let current = file
            .metadata()
            .map_err(|e| PersistError::Io {
                op: "inspecting",
                path: wal_path.clone(),
                source: e,
            })?
            .len();
        if current > valid_len {
            file.set_len(valid_len).map_err(|e| PersistError::Io {
                op: "truncating the corrupt suffix of",
                path: wal_path.clone(),
                source: e,
            })?;
            file.sync_data().map_err(|e| PersistError::Io {
                op: "syncing the truncated",
                path: wal_path.clone(),
                source: e,
            })?;
        }
        drop(file);
        let wal = open_wal(&dir, config.durability).map_err(PersistError::Wal)?;
        install_obs(&wal, session.obs_registry());
        session.attach_journal(Box::new(WalJournal::new(wal.clone())));
        Ok((
            Self {
                last_snapshot_epoch: report.snapshot_epoch,
                session,
                dir,
                wal,
                config,
            },
            report,
        ))
    }

    /// Admits one epoch batch durably: the attached journal appends the
    /// record before the session mutates (a journal failure — an append
    /// that kept failing after its retries — aborts with the session
    /// unchanged); when the **effective** durability is
    /// [`Durability::Epoch`] the log is fsynced after the step succeeds;
    /// on the snapshot cadence a snapshot is written. Post-step
    /// persistence failures are reported as [`ServiceError::Journal`] —
    /// the in-memory session has already advanced, but its durability
    /// guarantee could not be met. Persistent fsync failures never reach
    /// this error: they downgrade the effective durability instead (see
    /// the [crate docs](crate) and [`DurableSession::health`]).
    pub fn step(&mut self, batch: &[DemandEvent]) -> Result<ScheduleDelta, ServiceError> {
        let delta = self.session.step(batch)?;
        self.after_step()?;
        Ok(delta)
    }

    /// [`step`](DurableSession::step) under a cooperative
    /// [`Budget`] with panic quarantine, plus **quarantine forensics**: a
    /// quarantined batch is persisted to
    /// `<dir>/quarantine/epoch-<N>/` — `batch.json` (the poisoned batch
    /// as a replayable [`wal_record`] document), `panic.txt` (the panic
    /// payload) and `metrics.json` (the epoch's
    /// [`MetricsReport`](netsched_obs::MetricsReport)) — before the error
    /// returns, so the offending input survives for offline triage even
    /// though the log's record was tombstoned. Forensics writes are
    /// best-effort: a full disk must not turn a survived quarantine into
    /// a failed epoch.
    pub fn step_with_deadline(
        &mut self,
        batch: &[DemandEvent],
        budget: &Budget,
    ) -> Result<ScheduleDelta, ServiceError> {
        // The epoch the batch would have advanced the session to — read
        // before the step, because a quarantine restores the counter.
        let dead_epoch = self.session.epoch() + 1;
        match self.session.step_with_deadline(batch, budget) {
            Ok(delta) => {
                self.after_step()?;
                Ok(delta)
            }
            Err(ServiceError::Quarantined { reason }) => {
                self.dump_quarantine(dead_epoch, batch, &reason);
                Err(ServiceError::Quarantined { reason })
            }
            Err(other) => Err(other),
        }
    }

    /// The post-step durability work shared by every stepping surface:
    /// the epoch-cadence fsync and the snapshot cadence.
    fn after_step(&mut self) -> Result<(), ServiceError> {
        if self.health().effective_durability == Durability::Epoch {
            sync_wal(&self.wal, self.session.epoch()).map_err(ServiceError::Journal)?;
        }
        if self.config.snapshot_every > 0
            && self.session.epoch() - self.last_snapshot_epoch >= self.config.snapshot_every
        {
            self.snapshot_now()
                .map_err(|e| ServiceError::Journal(e.to_string()))?;
        }
        Ok(())
    }

    /// Persists a quarantined batch's forensics bundle, best-effort.
    fn dump_quarantine(&self, dead_epoch: u64, batch: &[DemandEvent], reason: &str) {
        let dir = self
            .dir
            .join("quarantine")
            .join(format!("epoch-{dead_epoch}"));
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let _ = std::fs::write(
            dir.join("batch.json"),
            wal_record(dead_epoch, batch).render(),
        );
        let _ = std::fs::write(dir.join("panic.txt"), reason);
        let _ = std::fs::write(
            dir.join("metrics.json"),
            self.session.obs_registry().snapshot().to_json(),
        );
    }

    /// Writes a snapshot now (outside the cadence): compacts the session
    /// ([`ServiceSession::compact`] — the lifecycle policy dropping stale
    /// split cores and oversized warm replay stacks), renders the session
    /// state ([`ServiceSession::state_snapshot`]: the snapshot without the
    /// topology, which [`create`](DurableSession::create) wrote to
    /// [`TOPOLOGY_FILE`] once) and writes it to `snapshot-<epoch>.json`
    /// atomically (temp file + rename, fsynced unless running
    /// [`Durability::None`]). Returns what the compaction shed.
    ///
    /// A successful snapshot also **compacts the on-disk history**,
    /// mirroring the in-memory policy: log records at or before the
    /// *previous* snapshot's epoch are dropped from the write-ahead log
    /// (every retained restore path — this snapshot, or a fallback to the
    /// previous one — replays only records after that epoch), and
    /// snapshot files older than the previous one are deleted
    /// ([`TOPOLOGY_FILE`] is never touched). The log and the snapshot
    /// directory therefore stay bounded at roughly two cadences of
    /// history instead of growing without bound.
    ///
    /// The session registry records the whole call, compaction through
    /// pruning, in the `durable.snapshot_ns` histogram and the state
    /// file's size in `durable.snapshot_bytes`.
    pub fn snapshot_now(&mut self) -> Result<CompactionReport, PersistError> {
        let start = Instant::now();
        let compaction = self.session.compact();
        let state = self.session.state_snapshot().render();
        let epoch = self.session.epoch();
        let sync = self.config.durability != Durability::None;
        write_atomically(&self.dir, &snapshot_path(&self.dir, epoch), &state, sync)?;
        // The snapshot is durable: shed the history no retained restore
        // path can need. Records at or before the *previous* snapshot's
        // epoch are unreachable (restoring from this snapshot skips them;
        // falling back to the previous one starts after them), as are
        // snapshot files older than the previous one.
        let retain_after = self.last_snapshot_epoch.min(epoch);
        compact_wal(&self.wal, &self.dir.join(WAL_FILE), retain_after, sync)
            .map_err(PersistError::Wal)?;
        prune_snapshots(&self.dir, retain_after);
        self.last_snapshot_epoch = epoch;
        let obs = self.session.obs_registry();
        obs.histogram("durable.snapshot_bytes")
            .record(state.len() as u64);
        obs.histogram("durable.snapshot_ns")
            .record_duration(start.elapsed());
        Ok(compaction)
    }

    /// Installs a scripted [`FaultPlan`] into the session's I/O shim and
    /// solve path: append/sync faults are counted and fired by the
    /// write-ahead log (operation counters reset to 0 at installation),
    /// and the plan's `panic_epochs` arm the session's injected solve
    /// panics (exercised through
    /// [`ServiceSession::step_with_deadline`](netsched_service::ServiceSession::step_with_deadline)'s
    /// quarantine). Robustness-harness surface; installing
    /// [`FaultPlan::none`] disarms everything.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.session.inject_solve_panics(plan.panic_epochs.clone());
        install_faults(&self.wal, plan);
    }

    /// The operator-visible health of the write-ahead log: effective vs.
    /// configured durability, retry/sync-failure counters and every
    /// [`DegradeEvent`](crate::DegradeEvent) so far.
    pub fn health(&self) -> WalHealth {
        wal_health(&self.wal)
    }

    /// The wrapped session (the journal stays attached — stepping through
    /// [`session_mut`](DurableSession::session_mut) still journals, it
    /// just skips the epoch-cadence fsync and snapshot checks).
    pub fn session(&self) -> &ServiceSession {
        &self.session
    }

    /// Mutable access to the wrapped session.
    pub fn session_mut(&mut self) -> &mut ServiceSession {
        &mut self.session
    }

    /// Unwraps the session, detaching the journal.
    pub fn into_session(mut self) -> ServiceSession {
        self.session.detach_journal();
        self.session
    }

    /// The directory holding the log and snapshots.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The epoch of the most recently written snapshot.
    pub fn last_snapshot_epoch(&self) -> u64 {
        self.last_snapshot_epoch
    }

    /// The persistence configuration.
    pub fn config(&self) -> &PersistConfig {
        &self.config
    }
}

/// Writes `text` to `path` inside `dir` atomically: a temp file beside
/// it, fsynced when `sync`, renamed over `path`, then (when `sync`) the
/// directory fsynced so the rename itself is durable.
fn write_atomically(dir: &Path, path: &Path, text: &str, sync: bool) -> Result<(), PersistError> {
    let tmp = path.with_extension("json.tmp");
    let io = |op, path: &Path| {
        let path = path.to_path_buf();
        move |source| PersistError::Io { op, path, source }
    };
    let mut file = File::create(&tmp).map_err(io("creating", &tmp))?;
    file.write_all(text.as_bytes())
        .map_err(io("writing", &tmp))?;
    if sync {
        file.sync_all().map_err(io("syncing", &tmp))?;
    }
    drop(file);
    std::fs::rename(&tmp, path).map_err(io("publishing", path))?;
    if sync {
        // Best-effort on filesystems that refuse directory fsyncs.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Deletes snapshot files with an epoch below `keep_from` (best-effort:
/// an undeletable file only delays its removal to the next cadence).
fn prune_snapshots(dir: &Path, keep_from: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let Some(epoch) = entry.file_name().to_str().and_then(snapshot_epoch) else {
            continue;
        };
        if epoch < keep_from {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

impl std::fmt::Debug for DurableSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableSession")
            .field("dir", &self.dir)
            .field("epoch", &self.session.epoch())
            .field("last_snapshot_epoch", &self.last_snapshot_epoch)
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_file_names_round_trip_through_their_epoch() {
        for epoch in [0, 7, u64::MAX] {
            let path = snapshot_path(Path::new("dir"), epoch);
            let name = path.file_name().unwrap().to_str().unwrap();
            assert_eq!(snapshot_epoch(name), Some(epoch), "{name}");
        }
        let tmp = snapshot_path(Path::new("dir"), 7).with_extension("json.tmp");
        assert_eq!(
            snapshot_epoch(tmp.file_name().unwrap().to_str().unwrap()),
            None
        );
        assert_eq!(snapshot_epoch(TOPOLOGY_FILE), None);
        assert_eq!(snapshot_epoch(WAL_FILE), None);
    }
}
