//! Wait-free, epoch-stamped read access to the last certified schedule.
//!
//! [`ScheduleView`] is the **publication point** of the serving tier:
//! after every successful epoch the session publishes an immutable
//! [`ScheduleSnapshot`] (schedule, certificate, profit, quality — all
//! behind one `Arc`), and any number of [`ScheduleReader`]s observe it
//! without ever waiting on the write side.
//!
//! # Read-path cost model
//!
//! The view packs its coordination state into a **single `AtomicU64`
//! stamp**: `published_epoch << 1 | in_flight_bit`. A steady-state read
//! ([`ScheduleReader::read`]) is one atomic load and a comparison against
//! the reader's cached `Arc` — no lock, no allocation, no reference-count
//! traffic. Only when the stamp's epoch differs from the cached snapshot
//! does the reader take a brief mutex to clone the new `Arc` (once per
//! epoch per reader — the `read.refresh_wait_ns` contention histogram
//! records exactly this). Torn reads are impossible by construction:
//! every field a reader can see lives inside one immutable snapshot that
//! was fully built before the stamp advanced, and the snapshot carries a
//! [fingerprint](ScheduleSnapshot::verify_fingerprint) over all of its
//! fields so the stress suite can prove it.
//!
//! # Staleness contract
//!
//! A reader always observes the **latest published** snapshot, which is
//! the last *certified* schedule; while the writer is mid-epoch (the
//! stamp's in-flight bit is set) that snapshot lags the in-flight epoch
//! by exactly one. Staleness is therefore bounded by **one epoch** at all
//! times, including across quarantine rollbacks (an aborted epoch clears
//! the in-flight bit without publishing — readers simply keep the last
//! certified snapshot and staleness returns to zero). The
//! `read.staleness_epochs` histogram records the observed distribution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use netsched_core::CertificateQuality;
use netsched_obs::{Counter, Histogram, ObsRegistry};

use crate::event::DemandTicket;
use crate::session::{Certificate, Placement, ScheduledDemand};

/// FNV-1a-style fold of one `u64` into a running fingerprint.
fn mix(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(0x0000_0100_0000_01b3)
}

/// One published epoch's complete read state: the standing schedule with
/// its certificate, profit and quality, frozen behind an `Arc` so every
/// observation is internally consistent by construction.
#[derive(Debug, Clone)]
pub struct ScheduleSnapshot {
    epoch: u64,
    /// `(ticket, placement)`, strictly ascending by ticket.
    schedule: Vec<(u64, Placement)>,
    certificate: Certificate,
    profit: f64,
    quality: CertificateQuality,
    fingerprint: u64,
}

impl ScheduleSnapshot {
    pub(crate) fn capture(
        epoch: u64,
        schedule: &[(u64, Placement)],
        certificate: Certificate,
        profit: f64,
        quality: CertificateQuality,
    ) -> Self {
        let mut snapshot = Self {
            epoch,
            schedule: schedule.to_vec(),
            certificate,
            profit,
            quality,
            fingerprint: 0,
        };
        snapshot.fingerprint = snapshot.compute_fingerprint();
        snapshot
    }

    /// Folds every field of the snapshot into one order-sensitive hash.
    fn compute_fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        hash = mix(hash, self.epoch);
        hash = mix(hash, self.profit.to_bits());
        hash = mix(hash, self.certificate.optimum_upper_bound.to_bits());
        hash = mix(hash, self.certificate.lambda.to_bits());
        hash = mix(hash, self.certificate.dual_objective.to_bits());
        hash = mix(
            hash,
            match self.quality {
                CertificateQuality::Full => 0,
                CertificateQuality::Truncated { rounds_left } => 1 + rounds_left,
            },
        );
        hash = mix(hash, self.schedule.len() as u64);
        for &(ticket, placement) in &self.schedule {
            hash = mix(hash, ticket);
            hash = mix(hash, placement.network.index() as u64);
            hash = mix(hash, placement.start.map_or(0, |s| u64::from(s) + 1));
        }
        hash
    }

    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The placement of `ticket`, if it is scheduled (`O(log scheduled)`).
    pub fn placement(&self, ticket: DemandTicket) -> Option<Placement> {
        self.schedule
            .binary_search_by_key(&ticket.0, |&(t, _)| t)
            .ok()
            .map(|i| self.schedule[i].1)
    }

    /// The standing schedule, ascending by ticket (allocates; prefer
    /// [`placement`](ScheduleSnapshot::placement) for point reads).
    pub fn schedule(&self) -> Vec<ScheduledDemand> {
        self.schedule
            .iter()
            .map(|&(t, placement)| ScheduledDemand {
                ticket: DemandTicket(t),
                placement,
            })
            .collect()
    }

    /// Number of scheduled demands.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// The dual certificate of the standing schedule.
    pub fn certificate(&self) -> Certificate {
        self.certificate
    }

    /// Total profit of the standing schedule.
    pub fn profit(&self) -> f64 {
        self.profit
    }

    /// The certificate quality the publishing epoch solved to.
    pub fn quality(&self) -> CertificateQuality {
        self.quality
    }

    /// Recomputes the publish-time fingerprint over every field and checks
    /// it — the torn-read detector the multi-threaded stress suite spins
    /// on. Immutability behind the `Arc` makes a mismatch impossible; this
    /// proves it rather than assuming it.
    pub fn verify_fingerprint(&self) -> bool {
        self.fingerprint == self.compute_fingerprint()
    }
}

/// The single-`AtomicU64` coordination stamp; see the [module docs](self).
const IN_FLIGHT: u64 = 1;

struct Shared {
    /// `published_epoch << 1 | in_flight_bit`. Stored with `Release` after
    /// the slot below holds the published snapshot; loaded with `Acquire`
    /// on every read.
    stamp: AtomicU64,
    /// The latest published snapshot. Locked only to swap (writer, once
    /// per epoch) or to clone on a stamp change (reader, once per epoch).
    slot: Mutex<Arc<ScheduleSnapshot>>,
    /// `read.count`: total snapshot reads across all readers.
    reads: Counter,
    /// `read.staleness_epochs`: per-read distance to the in-flight epoch.
    staleness: Histogram,
    /// `read.refresh_wait_ns`: the contention histogram — wall time a
    /// reader spent acquiring the slot lock and cloning on an epoch
    /// change.
    refresh_wait: Histogram,
}

/// The writer-side handle and reader factory of one session's published
/// schedule; cloning shares the underlying slot. Created by
/// [`ServiceSession::schedule_view`](crate::session::ServiceSession::schedule_view).
#[derive(Clone)]
pub struct ScheduleView {
    shared: Arc<Shared>,
}

impl ScheduleView {
    pub(crate) fn new(initial: ScheduleSnapshot, obs: &ObsRegistry) -> Self {
        let epoch = initial.epoch;
        Self {
            shared: Arc::new(Shared {
                stamp: AtomicU64::new(epoch << 1),
                slot: Mutex::new(Arc::new(initial)),
                reads: obs.counter("read.count"),
                staleness: obs.histogram("read.staleness_epochs"),
                refresh_wait: obs.histogram("read.refresh_wait_ns"),
            }),
        }
    }

    /// Marks `epoch` in flight: readers of the (still published) previous
    /// snapshot now observe staleness 1.
    pub(crate) fn begin_epoch(&self, epoch: u64) {
        debug_assert!(epoch > self.published_epoch());
        self.shared
            .stamp
            .store((epoch - 1) << 1 | IN_FLIGHT, Ordering::Release);
    }

    /// Publishes a fully built snapshot and clears the in-flight bit. The
    /// slot is swapped **before** the stamp advances, so a reader that
    /// observes the new stamp always finds at least this snapshot.
    pub(crate) fn publish(&self, snapshot: ScheduleSnapshot) {
        let epoch = snapshot.epoch;
        *self.shared.slot.lock().expect("schedule slot poisoned") = Arc::new(snapshot);
        self.shared.stamp.store(epoch << 1, Ordering::Release);
    }

    /// Clears the in-flight bit without publishing — the quarantine
    /// rollback path. Readers keep the last certified snapshot and its
    /// staleness returns to zero.
    pub(crate) fn abort_epoch(&self) {
        let published = self.published_epoch();
        self.shared.stamp.store(published << 1, Ordering::Release);
    }

    /// The epoch of the currently published snapshot.
    pub fn published_epoch(&self) -> u64 {
        self.shared.stamp.load(Ordering::Acquire) >> 1
    }

    /// `true` while the write side is computing the next epoch.
    pub fn epoch_in_flight(&self) -> bool {
        self.shared.stamp.load(Ordering::Acquire) & IN_FLIGHT != 0
    }

    /// A new independent reader, primed with the current snapshot.
    pub fn reader(&self) -> ScheduleReader {
        let cached = self
            .shared
            .slot
            .lock()
            .expect("schedule slot poisoned")
            .clone();
        ScheduleReader {
            shared: self.shared.clone(),
            cached,
            fresh_reads: 0,
            stale_reads: 0,
        }
    }
}

/// One reader's wait-free handle; see the [module docs](self) for the
/// cost model. Each reader tallies its reads locally and flushes them to
/// the shared `read.*` metrics on refresh, on [`flush`](Self::flush) and
/// on drop, so the hot read loop never touches a shared cache line beyond
/// the stamp.
pub struct ScheduleReader {
    shared: Arc<Shared>,
    cached: Arc<ScheduleSnapshot>,
    /// Reads that observed the published epoch with nothing in flight.
    fresh_reads: u64,
    /// Reads that observed the published epoch while the next was in
    /// flight (staleness exactly 1 — the contract's upper bound).
    stale_reads: u64,
}

impl ScheduleReader {
    /// The current snapshot: one `Acquire` load of the stamp, plus — only
    /// when the published epoch moved — a brief slot lock to clone the new
    /// `Arc`. Never blocks on the write side's solve.
    pub fn read(&mut self) -> &ScheduleSnapshot {
        let stamp = self.shared.stamp.load(Ordering::Acquire);
        if stamp >> 1 != self.cached.epoch {
            let refresh_start = Instant::now();
            let latest = self
                .shared
                .slot
                .lock()
                .expect("schedule slot poisoned")
                .clone();
            self.shared
                .refresh_wait
                .record_duration(refresh_start.elapsed());
            // The slot may already hold an even newer epoch than the
            // stamp we compared — snapshots are whole either way.
            self.cached = latest;
            self.flush();
        }
        if stamp & IN_FLIGHT != 0 {
            self.stale_reads += 1;
        } else {
            self.fresh_reads += 1;
        }
        &self.cached
    }

    /// The epoch of the snapshot the last [`read`](Self::read) returned.
    pub fn observed_epoch(&self) -> u64 {
        self.cached.epoch
    }

    /// Flushes the local read tallies into the shared `read.count` /
    /// `read.staleness_epochs` metrics (also runs on refresh and drop).
    pub fn flush(&mut self) {
        let total = self.fresh_reads + self.stale_reads;
        if total == 0 {
            return;
        }
        self.shared.reads.add(total);
        self.shared.staleness.record_many(0, self.fresh_reads);
        self.shared.staleness.record_many(1, self.stale_reads);
        self.fresh_reads = 0;
        self.stale_reads = 0;
    }
}

impl Drop for ScheduleReader {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsched_graph::NetworkId;

    fn snapshot(epoch: u64, tickets: &[u64]) -> ScheduleSnapshot {
        let schedule: Vec<(u64, Placement)> = tickets
            .iter()
            .map(|&t| {
                (
                    t,
                    Placement {
                        network: NetworkId::new((t % 3) as usize),
                        start: Some(t as u32),
                    },
                )
            })
            .collect();
        ScheduleSnapshot::capture(
            epoch,
            &schedule,
            Certificate {
                optimum_upper_bound: 10.0 + epoch as f64,
                lambda: 0.9,
                dual_objective: 9.0,
            },
            epoch as f64,
            CertificateQuality::Full,
        )
    }

    #[test]
    fn readers_observe_publications_and_staleness_bits() {
        let obs = ObsRegistry::new();
        let view = ScheduleView::new(snapshot(0, &[]), &obs);
        let mut reader = view.reader();
        assert_eq!(reader.read().epoch(), 0);
        assert!(reader.read().verify_fingerprint());

        view.begin_epoch(1);
        assert!(view.epoch_in_flight());
        assert_eq!(reader.read().epoch(), 0, "mid-epoch reads keep the last");
        view.publish(snapshot(1, &[3, 7]));
        assert!(!view.epoch_in_flight());
        let snap = reader.read();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.len(), 2);
        assert_eq!(
            snap.placement(DemandTicket(7)).unwrap().network,
            NetworkId::new(1)
        );
        assert!(snap.verify_fingerprint());

        // An aborted epoch leaves the published snapshot in place.
        view.begin_epoch(2);
        assert_eq!(reader.read().epoch(), 1);
        view.abort_epoch();
        assert!(!view.epoch_in_flight());
        assert_eq!(reader.read().epoch(), 1);

        reader.flush();
        let report = obs.snapshot();
        assert_eq!(report.counter("read.count"), Some(6));
        let staleness = report.histogram("read.staleness_epochs").unwrap();
        assert_eq!(staleness.count, 6);
        assert_eq!(staleness.max, 1, "staleness is bounded by one epoch");
    }

    #[test]
    fn fingerprints_distinguish_field_level_differences() {
        let a = snapshot(4, &[1, 2, 3]);
        let b = snapshot(4, &[1, 2, 4]);
        let c = snapshot(5, &[1, 2, 3]);
        assert!(a.verify_fingerprint());
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
    }
}
