//! One closed-loop run: set-up, timed replay, output checks, recovery and
//! (traced runs only) the out-of-band layer probes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use netsched_core::{AlgorithmConfig, Budget, CertificateQuality};
use netsched_decomp::{InstanceLayering, TreeDecompositionKind, TreeLayerer};
use netsched_distrib::ShardedConflictGraph;
use netsched_obs::MetricsReport;
use netsched_persist::{Durability, DurableSession, PersistConfig};
use netsched_service::{
    DemandEvent, ResolveMode, ScheduleDelta, ScheduleReader, ServiceError, ServiceSession,
};
use netsched_workloads::json::JsonValue;

use crate::spans::Spans;
use crate::workload::{Inputs, Network, Workload};

/// Serving accuracy of every workload (the ε the serving benches use).
const EPSILON: f64 = 0.25;
/// Set-up and recovery are repeated this many times during the replay,
/// at evenly spaced points of its clock once the checkpoint is taken, and
/// paused out of it. The host's speed drifts over seconds to minutes, so
/// repeats spread over the whole run give a steadier median than repeats
/// bunched before or after it.
const SIDE_REPS: usize = 6;
/// Recoveries per side repeat: a recovery is short next to the host's
/// speed swings, so it is sampled twice as often as set-up.
const RECOVERIES_PER_REP: usize = 2;
/// Every run times at least this many epochs, so at least ten samples
/// lie above the 90th percentile.
const MIN_TIMED_EPOCHS: usize = 100;
/// Every fourth durable epoch is latency-sensitive: it runs under this
/// MIS-round cap, so its truncation does not depend on the clock.
const SENSITIVE_EVERY: usize = 4;
const SENSITIVE_ROUNDS: u64 = 2;
/// Snapshot cadence of the durable workload. One epoch in eight writes a
/// snapshot, so more than a tenth of the epochs do and the 90th percentile
/// lies among them rather than on the edge between two kinds of epoch.
const SNAPSHOT_EVERY: u64 = 8;
/// The durable workload copies its directory after this epoch and times
/// recovery from the copy: the newest snapshot (epoch 104) plus a 4-record
/// log suffix, the same work whatever the run length.
const RECOVERY_EPOCH: u64 = 108;
/// Pause between the durable workload's reader polls.
const READ_PAUSE: Duration = Duration::from_millis(1);

/// The served session: plain, or wrapped in the durable tier.
enum Server {
    Plain(ServiceSession),
    Durable(DurableSession),
}

impl Server {
    fn session(&self) -> &ServiceSession {
        match self {
            Server::Plain(s) => s,
            Server::Durable(d) => d.session(),
        }
    }

    fn session_mut(&mut self) -> &mut ServiceSession {
        match self {
            Server::Plain(s) => s,
            Server::Durable(d) => d.session_mut(),
        }
    }
}

/// Counts operations and failures; every failure is also reported on
/// standard error.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}: {e}");
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one run measured. Times in seconds unless named otherwise.
#[derive(Default)]
pub struct Measured {
    pub generate_s: f64,
    pub open_s: f64,
    pub first_solve_s: f64,
    pub setup_s: f64,
    /// Caller-side time of each timed step, in ns.
    pub step_ns: Vec<u64>,
    pub replay_s: f64,
    pub peak_rss_kib: u64,
    pub recovery_s: f64,
    // Seed-deterministic figures over the workload's first `det_epochs()`
    // timed epochs.
    pub certified_ratio: f64,
    pub full_share: f64,
    pub bytes_per_demand: f64,
    pub mis_rounds_per_epoch: f64,
    pub raises_per_epoch: f64,
    // Per-layer figures.
    pub phase_ms: Vec<(&'static str, f64)>,
    pub quarantine_ms: f64,
    pub dirty_shards: f64,
    pub events: f64,
    pub verify_ms: f64,
    pub warm_bytes: f64,
    pub conflict_bytes: f64,
    pub universe_bytes: f64,
    pub universe_instances: f64,
    pub conflict_build_ms: f64,
    pub layerer_ms: f64,
    pub read_ns: Vec<u64>,
    pub reads: f64,
    pub staleness_max: f64,
    pub wal_append_ms: f64,
    pub wal_fsync_ms: f64,
    pub snapshot_build_ms: f64,
    pub snapshot_render_ms: f64,
    pub snapshot_bytes: f64,
    pub snapshot_from_doc_ms: f64,
    pub json_parse_ms: f64,
    pub restore_ms: [f64; 3],
    pub trace_overhead_pct: f64,
}

/// The phase histograms that tile `epoch.step_ns`, with the per-layer
/// metric each one feeds.
const PHASES: [(&str, &str); 6] = [
    ("epoch.validate_ns", "session.validate_ms"),
    ("epoch.journal_ns", "session.journal_ms"),
    ("epoch.splice_ns", "session.splice_ms"),
    ("epoch.conflict_rebuild_ns", "session.conflict_rebuild_ms"),
    ("epoch.solve_ns", "session.solve_ms"),
    ("epoch.delta_emit_ns", "session.delta_emit_ms"),
];

fn hist_sum(report: &MetricsReport, name: &str) -> (u64, u64) {
    report.histogram(name).map_or((0, 0), |h| (h.sum, h.count))
}

fn counter(report: &MetricsReport, name: &str) -> u64 {
    report.counter(name).unwrap_or(0)
}

/// Mean per call of a histogram between two reports, in ms.
fn mean_ms_per_call(before: &MetricsReport, after: &MetricsReport, name: &str) -> f64 {
    let (s0, c0) = hist_sum(before, name);
    let (s1, c1) = hist_sum(after, name);
    if c1 > c0 {
        (s1 - s0) as f64 / (c1 - c0) as f64 / 1e6
    } else {
        0.0
    }
}

fn median(values: &[f64]) -> f64 {
    let mut values = values.to_vec();
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

/// Process peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The per-epoch output checks: weak duality always, and λ ≥ 1 − ε on
/// every fully certified epoch.
fn check_delta(delta: &ScheduleDelta, expected_epoch: u64) -> Result<(), String> {
    let ub = delta.certificate.optimum_upper_bound;
    if !(delta.profit.is_finite() && ub.is_finite()) {
        return Err(format!("non-finite profit {} or bound {ub}", delta.profit));
    }
    if ub + 1e-6 * (1.0 + delta.profit.abs()) < delta.profit {
        return Err(format!(
            "weak duality broken: bound {ub} < profit {}",
            delta.profit
        ));
    }
    if delta.stats.quality.is_full() && delta.certificate.lambda < 1.0 - EPSILON - 1e-9 {
        return Err(format!(
            "full epoch certified λ = {} < 1 − ε",
            delta.certificate.lambda
        ));
    }
    if delta.epoch != expected_epoch {
        return Err(format!(
            "epoch {} != expected {expected_epoch}",
            delta.epoch
        ));
    }
    Ok(())
}

fn open(network: &Network) -> ServiceSession {
    let config = AlgorithmConfig::deterministic(EPSILON);
    let session = match network {
        Network::Line(p) => ServiceSession::for_line(p, config),
        Network::Tree(p) => ServiceSession::for_tree(p, config),
    };
    session.with_resolve_mode(ResolveMode::Warm)
}

fn persist_config() -> PersistConfig {
    PersistConfig {
        durability: Durability::Epoch,
        snapshot_every: SNAPSHOT_EVERY,
    }
}

/// Opens the session (and the durable tier) and runs the initial cold
/// solve. Returns the server and its open / create / first-solve times.
fn setup_once(
    network: &Network,
    dir: Option<&Path>,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(Server, f64, f64, f64), String> {
    let (session, open_s) = spans.span("open", "setup", 0, || open(network));
    let (mut server, create_s) = match dir {
        None => (Server::Plain(session), 0.0),
        Some(dir) => {
            let (durable, create_s) = spans.span("create", "setup", 0, || {
                DurableSession::create(dir, session, persist_config())
            });
            (
                Server::Durable(durable.map_err(|e| e.to_string())?),
                create_s,
            )
        }
    };
    let (first, solve_s) = spans.span("first_solve", "setup", 0, || match &mut server {
        Server::Plain(s) => s.step(&[]),
        Server::Durable(d) => d.step(&[]),
    });
    tally.attempted += 1;
    let delta = first.map_err(|e| format!("initial solve: {e}"))?;
    tally.check("initial solve", check_delta(&delta, 1));
    Ok((server, open_s, create_s, solve_s))
}

fn reader_loop(
    mut reader: ScheduleReader,
    stop: &AtomicBool,
    mut spans: Spans,
) -> (Vec<u64>, Tally, Spans) {
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    let mut seen = u64::MAX;
    while !stop.load(Ordering::Acquire) {
        let id = reader.observed_epoch();
        let (snapshot, read_s) = spans.span("read", "replay", id, || reader.read());
        samples.push((read_s * 1e9).round() as u64);
        let epoch = snapshot.epoch();
        if epoch != seen {
            let outcome = if seen != u64::MAX && epoch < seen {
                Err(format!("reader went back from epoch {seen} to {epoch}"))
            } else if !snapshot.verify_fingerprint() {
                Err(format!("torn snapshot at epoch {epoch}"))
            } else if snapshot.certificate().optimum_upper_bound + 1e-6 < snapshot.profit() {
                Err(format!("weak duality broken in snapshot {epoch}"))
            } else {
                Ok(())
            };
            tally.check("reader snapshot", outcome);
            seen = epoch;
        }
        std::thread::sleep(READ_PAUSE);
    }
    (samples, tally, spans)
}

/// Figures captured right after the workload's `det_epochs()`-th timed
/// epoch.
struct Checkpoint {
    peak_rss_kib: u64,
    bytes_per_demand: f64,
    mis_rounds: u64,
    raises: u64,
}

struct ReplayOut {
    wall_s: f64,
    ratio_sum: f64,
    full_epochs: usize,
    dirty_sum: usize,
    events_sum: usize,
    checkpoint: Option<Checkpoint>,
}

/// The repeated set-ups and recoveries, and what they measured.
struct Side<'a> {
    workload: Workload,
    network: &'a Network,
    data_dir: &'a Path,
    /// Where the durable workload copies its directory at
    /// `RECOVERY_EPOCH`, and the state a restore of it must reproduce.
    recovery_dir: PathBuf,
    recovery_point: Option<LiveSet>,
    opens: Vec<f64>,
    solves: Vec<f64>,
    setups: Vec<f64>,
    recoveries: Vec<f64>,
    snapshot_builds_ms: Vec<f64>,
    from_docs_ms: Vec<f64>,
}

impl<'a> Side<'a> {
    fn new(workload: Workload, network: &'a Network, data_dir: &'a Path) -> Self {
        Self {
            workload,
            network,
            data_dir,
            recovery_dir: data_dir.join("recovery"),
            recovery_point: None,
            opens: Vec::new(),
            solves: Vec::new(),
            setups: Vec::new(),
            recoveries: Vec::new(),
            snapshot_builds_ms: Vec::new(),
            from_docs_ms: Vec::new(),
        }
    }

    /// Opens a server (and its durable directory) and records its set-up.
    fn setup(&mut self, spans: &mut Spans, tally: &mut Tally) -> Result<(Server, PathBuf), String> {
        let dir = self.data_dir.join(format!("setup-{}", self.setups.len()));
        let durable_dir = self.workload.is_durable().then_some(dir.as_path());
        let (server, open_s, create_s, solve_s) =
            setup_once(self.network, durable_dir, spans, tally)?;
        self.opens.push(open_s);
        self.solves.push(solve_s);
        self.setups.push(open_s + create_s + solve_s);
        Ok((server, dir))
    }

    /// Whether the recovery repeats can start: the durable workload needs
    /// its recovery copy.
    fn ready(&self) -> bool {
        !self.workload.is_durable() || self.recovery_point.is_some()
    }

    /// Repeats that are still to run.
    fn remaining(&self) -> usize {
        SIDE_REPS.saturating_sub(self.recoveries.len() / RECOVERIES_PER_REP)
    }

    /// One repeat: a throw-away set-up, then `RECOVERIES_PER_REP`
    /// recoveries.
    fn repeat(
        &mut self,
        server: &Server,
        spans: &mut Spans,
        tally: &mut Tally,
        m: &mut Measured,
    ) -> Result<(), String> {
        let (thrown, dir) = self.setup(spans, tally)?;
        drop(thrown);
        let _ = std::fs::remove_dir_all(dir);
        for _ in 0..RECOVERIES_PER_REP {
            self.recover(server, spans, tally, m)?;
        }
        Ok(())
    }

    /// One timed recovery. The durable workload restores its recovery
    /// copy. Nothing is on disk at 10⁵ demands (restore cannot parse the
    /// snapshot in time), so the plain workloads recover the served
    /// session the way a quarantined epoch does: `snapshot()` then
    /// `ServiceSession::from_snapshot`.
    fn recover(
        &mut self,
        server: &Server,
        spans: &mut Spans,
        tally: &mut Tally,
        m: &mut Measured,
    ) -> Result<(), String> {
        match server {
            Server::Plain(session) => {
                let expected = LiveSet::of(session);
                let (doc, build_s) = spans.span("snapshot", "recovery", 0, || session.snapshot());
                let (recovered, from_s) = spans.span("from_snapshot", "recovery", 0, || {
                    ServiceSession::from_snapshot(&doc)
                });
                tally.check(
                    "recovered session",
                    recovered.and_then(|r| expected.check(&r)),
                );
                self.recoveries.push(build_s + from_s);
                self.snapshot_builds_ms.push(build_s * 1e3);
                self.from_docs_ms.push(from_s * 1e3);
            }
            Server::Durable(_) => {
                let expected = self
                    .recovery_point
                    .as_ref()
                    .ok_or("the recovery epoch was never reached")?;
                let restore_s = restore_once(&self.recovery_dir, expected, spans, tally, m);
                self.recoveries.push(restore_s);
            }
        }
        Ok(())
    }
}

/// The timed closed loop: one step per batch, until the time is up, at
/// least `MIN_TIMED_EPOCHS` epochs ran and every side repeat ran.
fn replay(
    server: &mut Server,
    batches: &[Vec<DemandEvent>],
    seconds: f64,
    side: &mut Side,
    spans: &mut Spans,
    tally: &mut Tally,
    m: &mut Measured,
) -> Result<ReplayOut, String> {
    let base = server.session().obs_registry().snapshot();
    let det_epochs = side.workload.det_epochs();
    let mut out = ReplayOut {
        wall_s: 0.0,
        ratio_sum: 0.0,
        full_epochs: 0,
        dirty_sum: 0,
        events_sum: 0,
        checkpoint: None,
    };
    // Time spent on the recovery copy and the side repeats, kept out of
    // the replay.
    let mut excluded = Duration::ZERO;
    // Replay-clock time of the first side repeat, and the gap between two.
    let mut plan: Option<(f64, f64)> = None;
    let start = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let elapsed = (start.elapsed() - excluded).as_secs_f64();
        if i >= MIN_TIMED_EPOCHS && elapsed >= seconds && side.remaining() == 0 {
            break;
        }
        let expected = server.session().epoch() + 1;
        let (result, step_s): (Result<ScheduleDelta, ServiceError>, f64) =
            spans.span("step", "replay", expected, || match server {
                Server::Plain(s) => s.step(batch),
                Server::Durable(d) => {
                    let budget = if i % SENSITIVE_EVERY == SENSITIVE_EVERY - 1 {
                        Budget::rounds(SENSITIVE_ROUNDS)
                    } else {
                        Budget::unlimited()
                    };
                    d.step_with_deadline(batch, &budget)
                }
            });
        m.step_ns.push((step_s * 1e9).round() as u64);
        tally.attempted += 1;
        let delta = match result {
            Ok(delta) => delta,
            Err(e) => {
                tally.failed += 1;
                eprintln!("perfbench: step {expected} failed: {e}");
                break;
            }
        };
        tally.check("epoch certificate", check_delta(&delta, expected));
        out.dirty_sum += delta.stats.dirty_shards;
        out.events_sum += batch.len();
        if i < det_epochs {
            if delta.certificate.optimum_upper_bound > 0.0 {
                out.ratio_sum += delta.profit / delta.certificate.optimum_upper_bound;
            }
            if delta.stats.quality == CertificateQuality::Full {
                out.full_epochs += 1;
            }
        }
        if i + 1 == det_epochs {
            let session = server.session();
            let report = session.obs_registry().snapshot();
            let grew = |name| counter(&report, name) - counter(&base, name);
            out.checkpoint = Some(Checkpoint {
                peak_rss_kib: peak_rss_kib(),
                bytes_per_demand: session.memory_footprint().total_bytes() as f64
                    / session.live_demands().max(1) as f64,
                mis_rounds: grew("engine.mis_rounds"),
                raises: grew("engine.raises"),
            });
        }
        let t = Instant::now();
        if let (Server::Durable(d), RECOVERY_EPOCH) = (&*server, delta.epoch) {
            copy_files(d.dir(), &side.recovery_dir)?;
            side.recovery_point = Some(LiveSet::of(d.session()));
        }
        // Once the checkpoint is taken (so the peak RSS covers the served
        // session alone), spread the side repeats evenly over the rest of
        // the run.
        if out.checkpoint.is_some() && side.ready() && side.remaining() > 0 {
            let now = (start.elapsed() - excluded).as_secs_f64();
            let (first, gap) = *plan.get_or_insert_with(|| {
                let gap = (seconds - now).max(0.0) / SIDE_REPS as f64;
                (now + gap / 2.0, gap)
            });
            let done = SIDE_REPS - side.remaining();
            if now >= first + done as f64 * gap {
                side.repeat(server, spans, tally, m)?;
            }
        }
        excluded += t.elapsed();
    }
    out.wall_s = (start.elapsed() - excluded).as_secs_f64();
    Ok(out)
}

/// Copies the regular files of `from` (snapshots and the log) into `to`.
fn copy_files(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copying {} to {}: {e}", from.display(), to.display());
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let path = entry.map_err(io)?.path();
        if path.is_file() {
            let name = path.file_name().expect("a file has a name");
            std::fs::copy(&path, to.join(name)).map_err(io)?;
        }
    }
    Ok(())
}

/// The epoch and live tickets a recovered session must reproduce.
#[derive(Debug, PartialEq)]
struct LiveSet {
    epoch: u64,
    tickets: Vec<u64>,
}

impl LiveSet {
    fn of(session: &ServiceSession) -> Self {
        let mut tickets: Vec<u64> = session.live_tickets().iter().map(|t| t.0).collect();
        tickets.sort_unstable();
        Self {
            epoch: session.epoch(),
            tickets,
        }
    }

    fn check(&self, recovered: &ServiceSession) -> Result<(), String> {
        let got = Self::of(recovered);
        if got == *self {
            return Ok(());
        }
        Err(format!(
            "recovered epoch {} with {} live demands, expected epoch {} with {}",
            got.epoch,
            got.tickets.len(),
            self.epoch,
            self.tickets.len()
        ))
    }
}

/// Runs one workload end to end and returns what it measured.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    data_dir: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let mut m = Measured {
        generate_s: inputs.generate_s,
        ..Measured::default()
    };

    // ---- set-up of the served session; the side repeats add more ------
    let mut side = Side::new(workload, &inputs.network, data_dir);
    let (mut server, _) = side.setup(spans, tally)?;

    // ---- timed replay (plus the polling reader when durable) -----------
    let before = server.session().obs_registry().snapshot();
    let stop = AtomicBool::new(false);
    let reader = workload
        .is_durable()
        .then(|| server.session_mut().schedule_view().reader());
    let origin = spans.origin();
    let enabled = spans.enabled();
    let det_epochs = workload.det_epochs();
    let out = std::thread::scope(|scope| {
        let handle = reader.map(|reader| {
            let stop = &stop;
            scope.spawn(move || reader_loop(reader, stop, Spans::new(enabled, origin, 2)))
        });
        let out = replay(
            &mut server,
            &inputs.batches,
            seconds,
            &mut side,
            spans,
            tally,
            &mut m,
        );
        stop.store(true, Ordering::Release);
        if let Some(handle) = handle {
            let (samples, reader_tally, reader_spans) =
                handle.join().expect("reader thread panicked");
            m.read_ns = samples;
            tally.absorb(reader_tally);
            spans.absorb(reader_spans);
        }
        out
    })?;
    let after = server.session().obs_registry().snapshot();
    let timed_epochs = m.step_ns.len().max(1) as f64;
    m.replay_s = out.wall_s;
    if let Some(cp) = &out.checkpoint {
        let det = det_epochs as f64;
        m.peak_rss_kib = cp.peak_rss_kib;
        m.certified_ratio = out.ratio_sum / det;
        m.full_share = out.full_epochs as f64 / det;
        m.bytes_per_demand = cp.bytes_per_demand;
        m.mis_rounds_per_epoch = cp.mis_rounds as f64 / det;
        m.raises_per_epoch = cp.raises as f64 / det;
    } else {
        tally.check(
            "run length",
            Err(format!("fewer than {det_epochs} epochs ran")),
        );
    }
    m.dirty_shards = out.dirty_sum as f64 / timed_epochs;
    m.events = out.events_sum as f64 / timed_epochs;
    for (hist, metric) in PHASES {
        let (s0, _) = hist_sum(&before, hist);
        let (s1, _) = hist_sum(&after, hist);
        m.phase_ms
            .push((metric, (s1 - s0) as f64 / timed_epochs / 1e6));
    }
    let (s0, _) = hist_sum(&before, "epoch.step_ns");
    let (s1, _) = hist_sum(&after, "epoch.step_ns");
    let caller_ns: u64 = m.step_ns.iter().sum();
    m.quarantine_ms = (caller_ns as f64 - (s1 - s0) as f64) / timed_epochs / 1e6;
    m.wal_append_ms = mean_ms_per_call(&before, &after, "wal.append_ns");
    m.wal_fsync_ms = mean_ms_per_call(&before, &after, "wal.fsync_ns");
    m.reads = m.read_ns.len() as f64;
    m.staleness_max = after
        .histogram("read.staleness_epochs")
        .map_or(0.0, |h| h.max as f64);
    if workload.is_durable() {
        tally.check(
            "reader staleness",
            if m.staleness_max <= 1.0 && m.reads > 0.0 {
                Ok(())
            } else {
                Err(format!(
                    "staleness {} over {} reads",
                    m.staleness_max, m.reads
                ))
            },
        );
    }
    let step_overhead = spans.overhead_of("step") as f64;
    m.trace_overhead_pct = 100.0 * step_overhead / caller_ns.max(1) as f64;

    // ---- final schedule check ------------------------------------------
    let session = server.session();
    let (verified, verify_s) =
        spans.span("verify", "checks", 0, || match session.last_solution() {
            Some(solution) => solution.verify(session.universe()),
            None => Err("no solution to verify".to_string()),
        });
    m.verify_ms = verify_s * 1e3;
    tally.check("final Solution::verify", verified);
    let footprint = session.memory_footprint();
    m.warm_bytes = footprint.warm_bytes as f64;
    m.conflict_bytes = footprint.conflict_bytes as f64;
    m.universe_bytes = footprint.universe_bytes as f64;
    m.universe_instances = session.universe().num_instances() as f64;

    if spans.enabled() {
        probe_layers(workload, inputs, session, &mut m, spans);
    }

    // ---- set-up and recovery medians ------------------------------------
    // Repeats the replay had no time for (its trace ran out) run now.
    while side.remaining() > 0 {
        side.repeat(&server, spans, tally, &mut m)?;
    }
    drop(server);
    m.open_s = median(&side.opens);
    m.first_solve_s = median(&side.solves);
    m.setup_s = median(&side.setups);
    m.recovery_s = median(&side.recoveries);
    if !workload.is_durable() {
        m.snapshot_build_ms = median(&side.snapshot_builds_ms);
        m.snapshot_from_doc_ms = median(&side.from_docs_ms);
    }
    Ok(m)
}

/// Restores the recovery copy once, checks the recovered session and
/// records its restore phases; returns the restore's wall time. Restore
/// only reads the copy, so every call does the same work.
fn restore_once(
    dir: &Path,
    expected: &LiveSet,
    spans: &mut Spans,
    tally: &mut Tally,
    m: &mut Measured,
) -> f64 {
    let (recovered, restore_s) =
        spans.span("restore", "recovery", 0, || netsched_persist::restore(dir));
    let outcome = recovered.and_then(|r| {
        let report = r.session.obs_registry().snapshot();
        let phases = [
            "restore.snapshot_load_ns",
            "restore.scan_ns",
            "restore.replay_ns",
        ];
        for (slot, name) in phases.iter().enumerate() {
            m.restore_ms[slot] = hist_sum(&report, name).0 as f64 / 1e6;
        }
        if r.report.replayed_epochs == 0 {
            return Err("restore replayed no log suffix".to_string());
        }
        expected.check(&r.session)
    });
    tally.check("restored session", outcome);
    restore_s
}

/// The traced run's out-of-band probes: each calls one layer's public
/// function on the final state, outside every timed window.
fn probe_layers(
    workload: Workload,
    inputs: &Inputs,
    session: &ServiceSession,
    m: &mut Measured,
    spans: &mut Spans,
) {
    let (_, build_s) = spans.span("conflict_build", "probes", 0, || {
        ShardedConflictGraph::build(session.universe())
    });
    m.conflict_build_ms = build_s * 1e3;
    let (_, layer_s) = match &inputs.network {
        Network::Tree(problem) => spans.span("tree_layerer", "probes", 0, || {
            drop(TreeLayerer::new(problem, TreeDecompositionKind::Ideal))
        }),
        Network::Line(_) => spans.span("line_layering", "probes", 0, || {
            drop(InstanceLayering::line_length_classes(session.universe()))
        }),
    };
    m.layerer_ms = layer_s * 1e3;
    let (doc, build_s) = spans.span("snapshot", "probes", 0, || session.snapshot());
    let (rendered, render_s) = spans.span("render", "probes", 0, || doc.render());
    m.snapshot_render_ms = render_s * 1e3;
    m.snapshot_bytes = rendered.len() as f64;
    // The plain workloads take the build and rebuild times from their
    // recovery repeats; the JSON parse does not finish at 10⁵ demands.
    if workload.is_durable() {
        let (_, from_s) = spans.span("from_snapshot", "probes", 0, || {
            ServiceSession::from_snapshot(&doc)
        });
        let (_, parse_s) = spans.span("json_parse", "probes", 0, || JsonValue::parse(&rendered));
        m.snapshot_build_ms = build_s * 1e3;
        m.snapshot_from_doc_ms = from_s * 1e3;
        m.json_parse_ms = parse_s * 1e3;
    }
}
