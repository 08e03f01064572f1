//! Kill-and-recover equivalence suite of the durable serving tier
//! (`netsched-persist`).
//!
//! The contract: a session killed at an **arbitrary epoch** and recovered
//! from its directory (newest valid snapshot + write-ahead log replay
//! through the normal `step` path), then driven through the rest of the
//! trace, must be indistinguishable from the uninterrupted session —
//! **byte-identical** in [`ResolveMode::Cold`] (schedule, certificate,
//! conflict degrees and adjacency), **certificate-equivalent** in
//! [`ResolveMode::Warm`] (feasible schedule, `λ ≥ 1 − ε`, upper bound
//! dominating the uninterrupted profit).
//!
//! The corruption arm pins the longest-valid-prefix recovery semantics:
//! a truncated tail record, a flipped checksum byte and a zero-length log
//! all recover to the last valid prefix without panicking, with the
//! dropped suffix counted in the [`RestoreReport`].

mod common;

use common::{
    assert_conflicts_match, assert_same_conflicts, assert_same_solution, dense_solution,
    dense_universe, line_trace, to_events, tree_trace, ChurnCase, ChurnCases, ChurnShape,
};
use netsched_core::AlgorithmConfig;
use netsched_distrib::ConflictGraph;
use netsched_graph::{LineProblem, TreeProblem};
use netsched_persist::{
    restore, snapshot_path, Durability, DurableSession, PersistConfig, RestoreReport,
    TOPOLOGY_FILE, WAL_FILE,
};
use netsched_service::{wal_record, DemandTicket, ResolveMode, ServiceSession};
use netsched_workloads::framing::{encode_frame, scan_frames, FRAME_HEADER_LEN};
use netsched_workloads::json::{JsonValue, ToJson};
use netsched_workloads::{EventTrace, HeightDistribution};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "netsched-durability-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

enum Base {
    Line(LineProblem),
    Tree(TreeProblem),
}

impl Base {
    fn session(&self, config: AlgorithmConfig, mode: ResolveMode) -> ServiceSession {
        match self {
            Base::Line(p) => ServiceSession::for_line(p, config),
            Base::Tree(p) => ServiceSession::for_tree(p, config),
        }
        .with_resolve_mode(mode)
    }

    fn initial_demands(&self) -> usize {
        match self {
            Base::Line(p) => p.demands().len(),
            Base::Tree(p) => p.demands().len(),
        }
    }
}

/// Tickets are assigned sequentially from the initial demand set onward,
/// so the global-arrival-index → ticket table is the identity.
fn ticket_table(base: &Base, trace: &EventTrace) -> Vec<DemandTicket> {
    let arrivals: usize = trace
        .batches
        .iter()
        .flat_map(|b| b.iter())
        .filter(|e| e.is_arrival())
        .count();
    (0..(base.initial_demands() + arrivals) as u64)
        .map(DemandTicket)
        .collect()
}

/// Replays `trace.batches[range]` through a plain session.
fn drive(
    session: &mut ServiceSession,
    trace: &EventTrace,
    range: std::ops::Range<usize>,
    tickets: &[DemandTicket],
) {
    for batch in &trace.batches[range] {
        let events = to_events(batch, tickets);
        session.step(&events).expect("trace replays");
    }
}

/// The kill-and-recover driver: runs the uninterrupted reference, runs a
/// durable twin killed after `kill_at` epochs, recovers it, drives it
/// through the rest of the trace and asserts the mode's equivalence
/// contract. Returns the recovery's accounting for extra assertions.
fn check_kill_and_recover(
    base: &Base,
    trace: &EventTrace,
    config: AlgorithmConfig,
    mode: ResolveMode,
    kill_at: usize,
    persist: PersistConfig,
    label: &str,
) -> RestoreReport {
    let tickets = ticket_table(base, trace);

    // The uninterrupted run.
    let mut reference = base.session(config, mode);
    drive(&mut reference, trace, 0..trace.batches.len(), &tickets);

    // The durable twin, killed after `kill_at` epochs.
    let dir = temp_dir();
    let mut durable =
        DurableSession::create(&dir, base.session(config, mode), persist).expect("create");
    for batch in &trace.batches[..kill_at] {
        let events = to_events(batch, &tickets);
        durable
            .step(&events)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
    drop(durable); // the kill

    let (mut recovered, report) =
        DurableSession::recover(&dir, persist).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(
        report.final_epoch, kill_at as u64,
        "{label}: recovered epoch"
    );
    assert_eq!(
        report.dropped_records, 0,
        "{label}: clean log drops nothing"
    );
    assert_eq!(report.dropped_snapshots, 0, "{label}: snapshots all valid");
    assert_eq!(
        report.snapshot_epoch + report.replayed_epochs,
        kill_at as u64,
        "{label}: snapshot + replay covers the killed history"
    );

    // Resume through the rest of the trace, then compare.
    for batch in &trace.batches[kill_at..] {
        let events = to_events(batch, &tickets);
        recovered
            .step(&events)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
    let recovered = recovered.into_session();

    // The incremental structures are mode-independent: live set, epoch
    // counter and conflict structures must match exactly in both modes.
    assert_eq!(recovered.epoch(), reference.epoch(), "{label}: epoch");
    assert_eq!(
        recovered.live_tickets(),
        reference.live_tickets(),
        "{label}: live tickets"
    );
    assert_same_conflicts(&reference, &recovered, label);
    match mode {
        ResolveMode::Cold => {
            // Byte-identical: schedule, certificate, standing state.
            let (ours, theirs) = (dense_solution(&recovered), dense_solution(&reference));
            match (ours, theirs) {
                (Some(ours), Some(theirs)) => assert_same_solution(&theirs, &ours, label),
                (None, None) => {}
                _ => panic!("{label}: one side solved, the other did not"),
            }
            assert_eq!(
                recovered.schedule(),
                reference.schedule(),
                "{label}: schedule"
            );
            assert_eq!(recovered.profit(), reference.profit(), "{label}: profit");
        }
        ResolveMode::Warm => {
            // Certificate-equivalent: the recovered schedule is feasible
            // and carries a verifying certificate; both sessions' upper
            // bounds dominate each other's (feasible) profit.
            if let Some(ours) = recovered.last_solution() {
                ours.verify(recovered.universe())
                    .unwrap_or_else(|e| panic!("{label}: recovered schedule infeasible: {e}"));
                if recovered.live_demands() > 0 {
                    assert!(
                        ours.diagnostics.lambda >= 1.0 - config.epsilon - 1e-6,
                        "{label}: recovered λ = {} below 1 − ε",
                        ours.diagnostics.lambda
                    );
                }
                assert!(
                    ours.diagnostics.optimum_upper_bound + 1e-6 >= reference.profit(),
                    "{label}: recovered upper bound {} below the uninterrupted profit {}",
                    ours.diagnostics.optimum_upper_bound,
                    reference.profit()
                );
            }
            if let Some(theirs) = reference.last_solution() {
                assert!(
                    theirs.diagnostics.optimum_upper_bound + 1e-6 >= recovered.profit(),
                    "{label}: uninterrupted upper bound {} below the recovered profit {}",
                    theirs.diagnostics.optimum_upper_bound,
                    recovered.profit()
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

// ---------------------------------------------------------------------
// Kill-and-recover equivalence: generated traces
// ---------------------------------------------------------------------

#[test]
fn cold_line_recovery_is_byte_identical_at_every_thread_count() {
    let (problem, trace) = line_trace(4, 24, 11, 0.2);
    let base = Base::Line(problem);
    let config = AlgorithmConfig::deterministic(0.1);
    let epochs = trace.batches.len();
    for kill_at in [1, epochs / 2, epochs] {
        check_kill_and_recover(
            &base,
            &trace,
            config,
            ResolveMode::Cold,
            kill_at,
            PersistConfig::default(),
            &format!("cold-line killed at {kill_at}"),
        );
    }
}

#[test]
fn cold_tree_recovery_is_byte_identical_including_the_split() {
    // Mixed heights force the wide/narrow split cores through the
    // snapshot (only their warm states travel; the cores themselves are
    // rebuilt) — the restore must still be byte-identical.
    let (problem, trace) = tree_trace(
        3,
        22,
        17,
        0.25,
        HeightDistribution::Mixed {
            wide_fraction: 0.5,
            min_narrow: 0.1,
        },
    );
    let base = Base::Tree(problem);
    let config = AlgorithmConfig::deterministic(0.1);
    let epochs = trace.batches.len();
    for kill_at in [1, epochs / 2, epochs] {
        check_kill_and_recover(
            &base,
            &trace,
            config,
            ResolveMode::Cold,
            kill_at,
            PersistConfig {
                durability: Durability::Batch,
                snapshot_every: 3,
            },
            &format!("cold-tree-mixed killed at {kill_at}"),
        );
    }
}

#[test]
fn warm_recovery_is_certificate_equivalent_at_every_thread_count() {
    let (problem, trace) = line_trace(4, 24, 7, 0.2);
    let base = Base::Line(problem);
    let config = AlgorithmConfig::deterministic(0.1);
    let epochs = trace.batches.len();
    for kill_at in [2, epochs] {
        check_kill_and_recover(
            &base,
            &trace,
            config,
            ResolveMode::Warm,
            kill_at,
            PersistConfig {
                durability: Durability::Epoch,
                snapshot_every: 3,
            },
            &format!("warm-line killed at {kill_at}"),
        );
    }
}

#[test]
fn warm_tree_recovery_with_mixed_heights_restores_split_warm_states() {
    let (problem, trace) = tree_trace(
        3,
        20,
        29,
        0.25,
        HeightDistribution::Mixed {
            wide_fraction: 0.5,
            min_narrow: 0.1,
        },
    );
    let base = Base::Tree(problem);
    let config = AlgorithmConfig::deterministic(0.1);
    let epochs = trace.batches.len();
    for kill_at in [3, epochs] {
        check_kill_and_recover(
            &base,
            &trace,
            config,
            ResolveMode::Warm,
            kill_at,
            PersistConfig {
                durability: Durability::Epoch,
                snapshot_every: 4,
            },
            &format!("warm-tree-mixed killed at {kill_at}"),
        );
    }
}

#[test]
fn snapshot_cadence_bounds_the_replayed_suffix() {
    let (problem, trace) = line_trace(3, 18, 13, 0.2);
    let base = Base::Line(problem);
    let config = AlgorithmConfig::deterministic(0.1);
    let epochs = trace.batches.len();
    let report = check_kill_and_recover(
        &base,
        &trace,
        config,
        ResolveMode::Cold,
        epochs,
        PersistConfig {
            durability: Durability::None,
            snapshot_every: 3,
        },
        "cadence",
    );
    assert!(
        report.replayed_epochs <= 3,
        "replay suffix {} exceeds the snapshot cadence",
        report.replayed_epochs
    );
    assert!(report.snapshot_epoch >= (epochs as u64).saturating_sub(3));
    // Each cadence snapshot compacts away the records its predecessor
    // covered, so at most one cadence's worth of records remains to skip.
    assert!(
        report.skipped_records <= 3,
        "compaction left {} skipped records behind",
        report.skipped_records
    );
}

// ---------------------------------------------------------------------
// S2 regression: a restored session's conflict structures match the
// original's, before and after one more splice
// ---------------------------------------------------------------------

#[test]
fn restored_sessions_keep_the_original_conflict_structures() {
    let (problem, trace) = line_trace(4, 20, 3, 0.25);
    let base = Base::Line(problem);
    let config = AlgorithmConfig::deterministic(0.1);
    let tickets = ticket_table(&base, &trace);

    let mut original = base.session(config, ResolveMode::Cold);
    drive(&mut original, &trace, 0..4, &tickets);
    // Build the flat graph of the original before snapshotting.
    let pre_crash = ConflictGraph::build(&dense_universe(original.universe()).0);

    let mut restored = ServiceSession::from_snapshot(&original.snapshot()).expect("restores");
    assert_conflicts_match(&pre_crash, &restored, "post-restore");

    // Splice both one more epoch: degrees and induced adjacency must stay
    // identical, and so must the solves.
    drive(&mut original, &trace, 4..5, &tickets);
    drive(&mut restored, &trace, 4..5, &tickets);
    assert_same_conflicts(&original, &restored, "post-restore splice");
    match (dense_solution(&original), dense_solution(&restored)) {
        (Some(a), Some(b)) => assert_same_solution(&a, &b, "post-restore splice"),
        (None, None) => {}
        _ => panic!("post-restore splice: one side solved, the other did not"),
    }
}

/// Sessions start Cold, so the snapshot's `resolve` member is the only
/// way a restored session runs Warm: every restore path must keep it.
#[test]
fn restores_keep_the_recorded_resolve_mode() {
    let (base, trace) = mixed_tree();
    let tickets = ticket_table(&base, &trace);
    let config = AlgorithmConfig::deterministic(0.1);
    for mode in [ResolveMode::Cold, ResolveMode::Warm] {
        let mut session = base.session(config, mode);
        drive(&mut session, &trace, 0..3, &tickets);
        let restored = ServiceSession::from_snapshot(&session.snapshot()).expect("from_snapshot");
        assert_eq!(restored.resolve_mode(), mode, "from_snapshot");
        let restored = ServiceSession::from_state(&session.topology(), &session.state_snapshot())
            .expect("from_state");
        assert_eq!(restored.resolve_mode(), mode, "from_state");

        let dir = temp_dir();
        let persist = PersistConfig {
            durability: Durability::None,
            snapshot_every: 2,
        };
        let mut durable =
            DurableSession::create(&dir, base.session(config, mode), persist).expect("create");
        for batch in &trace.batches[..3] {
            durable.step(&to_events(batch, &tickets)).unwrap();
        }
        drop(durable);
        let (recovered, report) = DurableSession::recover(&dir, persist).expect("recover");
        assert_eq!(
            report.snapshot_epoch, 2,
            "{mode:?}: restored from a cadence snapshot"
        );
        assert_eq!(recovered.session().resolve_mode(), mode, "recover");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// S3: log-corruption recovery (longest valid prefix, counted losses)
// ---------------------------------------------------------------------

/// Runs a durable session through the whole trace with only the initial
/// snapshot (so every epoch lives in the log), returning its directory.
fn logged_run(base: &Base, trace: &EventTrace, config: AlgorithmConfig) -> PathBuf {
    let dir = temp_dir();
    let mut durable = DurableSession::create(
        &dir,
        base.session(config, ResolveMode::Cold),
        PersistConfig {
            durability: Durability::None,
            snapshot_every: 0,
        },
    )
    .expect("create");
    let tickets = ticket_table(base, trace);
    for batch in &trace.batches {
        let events = to_events(batch, &tickets);
        durable.step(&events).expect("trace replays");
    }
    dir
}

/// The uninterrupted reference session driven through `epochs` batches.
fn reference_at(
    base: &Base,
    trace: &EventTrace,
    config: AlgorithmConfig,
    epochs: usize,
) -> ServiceSession {
    let tickets = ticket_table(base, trace);
    let mut session = base.session(config, ResolveMode::Cold);
    drive(&mut session, trace, 0..epochs, &tickets);
    session
}

#[test]
fn truncated_tail_record_recovers_to_the_last_valid_prefix() {
    let (problem, trace) = line_trace(3, 16, 19, 0.2);
    let base = Base::Line(problem);
    let config = AlgorithmConfig::deterministic(0.1);
    let epochs = trace.batches.len();
    let dir = logged_run(&base, &trace, config);

    // Cut the final record mid-payload.
    let wal = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();

    let recovered = restore(&dir).expect("truncated tail still restores");
    assert_eq!(recovered.report.dropped_records, 1);
    assert_eq!(recovered.report.replayed_epochs, epochs as u64 - 1);
    assert_eq!(recovered.report.final_epoch, epochs as u64 - 1);

    let reference = reference_at(&base, &trace, config, epochs - 1);
    assert_eq!(recovered.session.profit(), reference.profit());
    assert_eq!(recovered.session.schedule(), reference.schedule());
    assert_same_conflicts(&reference, &recovered.session, "truncated tail");

    // Recovering through DurableSession truncates the torn suffix, so
    // the next append starts at a clean frame boundary.
    let (_, report) = DurableSession::recover(&dir, PersistConfig::default()).expect("recover");
    assert_eq!(report.dropped_records, 1);
    let rescan = scan_frames(&std::fs::read(&wal).unwrap());
    assert!(rescan.error.is_none(), "suffix not truncated cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_checksum_byte_drops_the_suffix_and_counts_it() {
    let (problem, trace) = line_trace(3, 16, 23, 0.2);
    let base = Base::Line(problem);
    let config = AlgorithmConfig::deterministic(0.1);
    let epochs = trace.batches.len();
    let dir = logged_run(&base, &trace, config);

    // Flip one payload byte of the record in the middle of the log.
    let wal = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).unwrap();
    let scan = scan_frames(&bytes);
    assert_eq!(scan.frames.len(), epochs);
    let target = epochs / 2;
    let offset: usize = scan.frames[..target]
        .iter()
        .map(|f| FRAME_HEADER_LEN + f.len())
        .sum();
    bytes[offset + FRAME_HEADER_LEN] ^= 0xFF;
    std::fs::write(&wal, &bytes).unwrap();

    let recovered = restore(&dir).expect("flipped byte still restores");
    assert_eq!(recovered.report.replayed_epochs, target as u64);
    assert_eq!(recovered.report.final_epoch, target as u64);
    // The corrupt record plus every (structurally plausible, untrusted)
    // record after it.
    assert_eq!(recovered.report.dropped_records, epochs - target);

    let reference = reference_at(&base, &trace, config, target);
    assert_eq!(recovered.session.profit(), reference.profit());
    assert_eq!(recovered.session.schedule(), reference.schedule());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_length_log_recovers_the_snapshot_alone() {
    let (problem, trace) = line_trace(3, 16, 31, 0.2);
    let base = Base::Line(problem);
    let config = AlgorithmConfig::deterministic(0.1);

    // Snapshots every 3 epochs, then the log vanishes entirely.
    let dir = temp_dir();
    let mut durable = DurableSession::create(
        &dir,
        base.session(config, ResolveMode::Cold),
        PersistConfig {
            durability: Durability::None,
            snapshot_every: 3,
        },
    )
    .expect("create");
    let tickets = ticket_table(&base, &trace);
    for batch in &trace.batches {
        let events = to_events(batch, &tickets);
        durable.step(&events).expect("trace replays");
    }
    let snapshot_epoch = durable.last_snapshot_epoch();
    drop(durable);
    std::fs::write(dir.join(WAL_FILE), b"").unwrap();

    let recovered = restore(&dir).expect("empty log still restores");
    assert_eq!(recovered.report.snapshot_epoch, snapshot_epoch);
    assert_eq!(recovered.report.replayed_epochs, 0);
    assert_eq!(recovered.report.skipped_records, 0);
    assert_eq!(recovered.report.dropped_records, 0);
    assert_eq!(recovered.report.final_epoch, snapshot_epoch);

    let reference = reference_at(&base, &trace, config, snapshot_epoch as usize);
    assert_eq!(recovered.session.profit(), reference.profit());
    assert_eq!(recovered.session.schedule(), reference.schedule());
    assert_same_conflicts(&reference, &recovered.session, "zero-length log");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn undecodable_record_is_cut_from_the_log_by_recovery() {
    // A CRC-valid frame that does not decode as a record drops itself
    // and everything after it — and recover() must truncate the log at
    // that frame, not merely at the last *structurally* valid one.
    // Otherwise the bad frame survives, new records append behind it,
    // and the next recovery drops the acknowledged records too.
    let (problem, trace) = line_trace(3, 16, 37, 0.2);
    let base = Base::Line(problem);
    let config = AlgorithmConfig::deterministic(0.1);
    let epochs = trace.batches.len();
    let dir = logged_run(&base, &trace, config);

    // Splice a CRC-valid non-record frame, then a decodable record that
    // becomes unreachable behind it.
    let wal = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&encode_frame(b"\"not a wal record\""));
    bytes.extend_from_slice(&encode_frame(
        wal_record(epochs as u64 + 1, &[]).render().as_bytes(),
    ));
    std::fs::write(&wal, &bytes).unwrap();

    let (mut recovered, report) =
        DurableSession::recover(&dir, PersistConfig::default()).expect("recover");
    // The garbage frame plus the record stranded behind it.
    assert_eq!(report.dropped_records, 2);
    assert_eq!(report.final_epoch, epochs as u64);
    // The cut landed at the garbage frame: every replayable record
    // survived the truncation.
    let rescan = scan_frames(&std::fs::read(&wal).unwrap());
    assert!(rescan.error.is_none());
    assert_eq!(rescan.frames.len(), epochs);

    // Records acknowledged after the recovery stay recoverable — the
    // regression was this second recovery rediscovering the bad frame
    // and dropping them.
    recovered.step(&[]).expect("keep-alive epoch");
    let epoch = recovered.session().epoch();
    drop(recovered);
    let (recovered, report) =
        DurableSession::recover(&dir, PersistConfig::default()).expect("second recover");
    assert_eq!(report.dropped_records, 0);
    assert_eq!(recovered.session().epoch(), epoch);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn epoch_gap_truncates_at_the_last_replayed_record() {
    // Remove a record from the middle of the log: replay stops at the
    // discontinuity and recover() must cut the log there, so the gapped
    // suffix does not strand records acknowledged afterwards.
    let (problem, trace) = line_trace(3, 16, 41, 0.2);
    let base = Base::Line(problem);
    let config = AlgorithmConfig::deterministic(0.1);
    let epochs = trace.batches.len();
    assert!(epochs >= 3, "trace too short to gap");
    let dir = logged_run(&base, &trace, config);

    let wal = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal).unwrap();
    let scan = scan_frames(&bytes);
    let first_len = FRAME_HEADER_LEN + scan.frames[0].len();
    let second_len = FRAME_HEADER_LEN + scan.frames[1].len();
    let mut gapped = bytes[..first_len].to_vec();
    gapped.extend_from_slice(&bytes[first_len + second_len..]);
    std::fs::write(&wal, &gapped).unwrap();

    let (recovered, report) =
        DurableSession::recover(&dir, PersistConfig::default()).expect("recover");
    assert_eq!(report.replayed_epochs, 1);
    assert_eq!(report.dropped_records, epochs - 2);
    assert_eq!(recovered.session().epoch(), 1);
    // The log was cut right after the last replayed record.
    let rescan = scan_frames(&std::fs::read(&wal).unwrap());
    assert!(rescan.error.is_none());
    assert_eq!(rescan.frames.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_snapshot_files_fail_cleanly() {
    let dir = temp_dir();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(WAL_FILE), b"").unwrap();
    let err = restore(&dir).expect_err("no snapshot must be an error, not a panic");
    assert!(err.contains("no valid snapshot"), "unexpected error: {err}");

    // A directory whose only snapshot is corrupt fails the same way.
    std::fs::write(snapshot_path(&dir, 0), b"garbage").unwrap();
    let err = restore(&dir).expect_err("corrupt-only snapshots must error");
    assert!(err.contains("no valid snapshot"), "unexpected error: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// S4: directory layout — the topology written once, state-only snapshots
// ---------------------------------------------------------------------

fn mixed_tree() -> (Base, EventTrace) {
    let (problem, trace) = tree_trace(
        3,
        20,
        41,
        0.25,
        HeightDistribution::Mixed {
            wide_fraction: 0.5,
            min_narrow: 0.1,
        },
    );
    (Base::Tree(problem), trace)
}

#[test]
fn the_topology_is_written_once_and_snapshots_carry_only_the_state() {
    let (base, trace) = mixed_tree();
    let tickets = ticket_table(&base, &trace);
    let config = AlgorithmConfig::deterministic(0.1);
    let persist = PersistConfig {
        durability: Durability::Epoch,
        snapshot_every: 2,
    };
    let dir = temp_dir();
    let topology_path = dir.join(TOPOLOGY_FILE);
    let mut durable =
        DurableSession::create(&dir, base.session(config, ResolveMode::Warm), persist)
            .expect("create");
    let topology = std::fs::read(&topology_path).expect("create writes the topology");
    assert_eq!(
        topology,
        durable.session().topology().to_json().render().into_bytes()
    );
    let half = trace.batches.len() / 2;
    for (i, batch) in trace.batches[..half].iter().enumerate() {
        durable.step(&to_events(batch, &tickets)).unwrap();
        let epoch = durable.session().epoch();
        assert_eq!(
            std::fs::read(&topology_path).unwrap(),
            topology,
            "epoch {}: a snapshot rewrote the topology",
            i + 1
        );
        if epoch == durable.last_snapshot_epoch() {
            // A cadence snapshot just landed: the file is the session
            // state, the live snapshot without its topology.
            let text = std::fs::read_to_string(snapshot_path(&dir, epoch)).unwrap();
            let doc = JsonValue::parse(&text).unwrap();
            assert!(doc.field("base").is_err(), "epoch {epoch}: `base` on disk");
            assert_eq!(doc, durable.session().state_snapshot());
        }
    }
    drop(durable);

    // A recovered session that keeps stepping (and snapshotting) leaves
    // the topology alone too.
    let (mut recovered, _) = DurableSession::recover(&dir, persist).expect("recover");
    for batch in &trace.batches[half..] {
        recovered.step(&to_events(batch, &tickets)).unwrap();
    }
    assert!(recovered.last_snapshot_epoch() > half as u64);
    assert_eq!(std::fs::read(&topology_path).unwrap(), topology);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_at_a_cadence_epoch_reproduces_the_live_snapshot_bytes() {
    let (base, trace) = mixed_tree();
    let tickets = ticket_table(&base, &trace);
    let config = AlgorithmConfig::deterministic(0.1);
    for mode in [ResolveMode::Cold, ResolveMode::Warm] {
        let dir = temp_dir();
        let mut durable = DurableSession::create(
            &dir,
            base.session(config, mode),
            PersistConfig {
                durability: Durability::None,
                snapshot_every: 3,
            },
        )
        .expect("create");
        for batch in &trace.batches[..6] {
            durable.step(&to_events(batch, &tickets)).unwrap();
        }
        assert_eq!(durable.last_snapshot_epoch(), 6);
        let live = durable.session().snapshot().render();
        drop(durable);
        let recovered = restore(&dir).expect("restores");
        assert_eq!(recovered.report.snapshot_epoch, 6);
        assert_eq!(recovered.report.replayed_epochs, 0);
        assert_eq!(recovered.session.snapshot().render(), live, "{mode:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_missing_or_corrupt_topology_fails_restore_by_name() {
    let (problem, trace) = line_trace(3, 16, 37, 0.2);
    let base = Base::Line(problem);
    let config = AlgorithmConfig::deterministic(0.1);
    let dir = logged_run(&base, &trace, config);
    let topology_path = dir.join(TOPOLOGY_FILE);
    let topology = std::fs::read(&topology_path).unwrap();
    assert!(restore(&dir).is_ok());

    std::fs::remove_file(&topology_path).unwrap();
    let err = restore(&dir).expect_err("no topology, no restore");
    assert!(err.contains(TOPOLOGY_FILE), "unexpected error: {err}");
    let err = DurableSession::recover(&dir, PersistConfig::default())
        .expect_err("recover needs the topology too")
        .to_string();
    assert!(err.contains(TOPOLOGY_FILE), "unexpected error: {err}");

    for corrupt in [&b"{ not json"[..], &topology[..topology.len() / 2], b"{}"] {
        std::fs::write(&topology_path, corrupt).unwrap();
        let err = restore(&dir).expect_err("a corrupt topology must not restore");
        assert!(err.contains(TOPOLOGY_FILE), "unexpected error: {err}");
    }

    // A topology of the other shape makes every snapshot invalid.
    let (tree, _) = tree_trace(2, 4, 1, 0.2, HeightDistribution::Unit);
    let tree_topology = ServiceSession::for_tree(&tree, config).topology();
    std::fs::write(&topology_path, tree_topology.to_json().render()).unwrap();
    let err = restore(&dir).expect_err("a tree topology cannot hold line snapshots");
    assert!(err.contains("no valid snapshot"), "unexpected error: {err}");

    std::fs::write(&topology_path, &topology).unwrap();
    assert!(restore(&dir).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stray_snapshot_temp_file_is_ignored() {
    let (problem, trace) = line_trace(3, 16, 43, 0.2);
    let base = Base::Line(problem);
    let config = AlgorithmConfig::deterministic(0.1);
    let dir = logged_run(&base, &trace, config);
    let epochs = trace.batches.len() as u64;
    let clean = restore(&dir).expect("restores").report;

    // A crash between creating and renaming a snapshot leaves its temp
    // file behind, newer than every published snapshot; it holds a
    // whole, valid state document, which restore must still not read.
    let state = reference_at(&base, &trace, config, trace.batches.len())
        .state_snapshot()
        .render();
    let stray = snapshot_path(&dir, epochs + 100).with_extension("json.tmp");
    std::fs::write(&stray, state).unwrap();
    let recovered = restore(&dir).expect("restores");
    assert_eq!(recovered.report, clean);
    assert_eq!(recovered.report.snapshot_epoch, 0);
    assert_eq!(recovered.report.dropped_snapshots, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Randomized churn traces, killed at an arbitrary epoch
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_line_traces_survive_a_kill_at_an_arbitrary_epoch(
        case in ChurnCases { shape: ChurnShape::Line },
    ) {
        let case: ChurnCase = case;
        let config = AlgorithmConfig::deterministic(0.12);
        let base = Base::Line(case.line_problem().clone());
        let epochs = case.trace.batches.len();
        let kill_at = (case.seed as usize) % (epochs + 1);
        check_kill_and_recover(
            &base,
            &case.trace,
            config,
            ResolveMode::Cold,
            kill_at,
            PersistConfig {
                durability: Durability::Epoch,
                snapshot_every: 2,
            },
            &format!("proptest-line killed at {kill_at}/{epochs}"),
        );
    }

    #[test]
    fn random_tree_traces_survive_a_kill_at_an_arbitrary_epoch(
        case in ChurnCases { shape: ChurnShape::Tree },
    ) {
        let case: ChurnCase = case;
        let config = AlgorithmConfig::deterministic(0.12);
        let base = Base::Tree(case.tree_problem().clone());
        let epochs = case.trace.batches.len();
        let kill_at = (case.seed as usize) % (epochs + 1);
        check_kill_and_recover(
            &base,
            &case.trace,
            config,
            ResolveMode::Warm,
            kill_at,
            PersistConfig {
                durability: Durability::Epoch,
                snapshot_every: 2,
            },
            &format!("proptest-tree-warm killed at {kill_at}/{epochs}"),
        );
    }
}
