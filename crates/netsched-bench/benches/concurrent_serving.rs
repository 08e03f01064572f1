//! Benchmark: wait-free schedule reads while the frontend steps epochs.
//!
//! Replays the `mega-churn-line` serving trace (10⁵ live demands) twice
//! with concurrent reader threads polling the current schedule, and
//! compares two serving arrangements:
//!
//! * **baseline_locked** — the synchronous read-after-step design: one
//!   `Mutex<ServiceSession>` shared by the writer and the readers. Every
//!   read waits for the lock, so a reader that lands while an epoch is
//!   stepping blocks for the whole splice/rebuild/solve.
//! * **service** — the `Service` frontend, driven submit-then-wait per
//!   batch (one epoch per submission), while readers observe the
//!   published schedule through wait-free `ScheduleReader`s from
//!   `Service::reader`: one atomic load per read, a mutex + `Arc` clone
//!   only on epoch change.
//!
//! Both arms run the identical reader loop (read one consistent
//! profit/certificate pair, then pause 200µs), so the reported
//! `read_throughput` and reader latency percentiles differ only by the
//! read path. The full-mode run asserts the service reader p99 is at
//! least 10× lower than the locked baseline and that recorded staleness
//! never exceeds one epoch.
//!
//! Results are written to `BENCH_concurrent_serving.json`. Run with
//! `--quick` for the reduced CI configuration (scaled-down live set; the
//! committed artifact must come from a full-mode run) and `--threads N`
//! to pin the rayon shim's worker count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use netsched_core::AlgorithmConfig;
use netsched_obs::ObsRegistry;
use netsched_service::{
    DemandEvent, DemandRequest, DemandTicket, ResolveMode, Service, ServiceSession,
};
use netsched_workloads::json::JsonValue;
use netsched_workloads::{
    poisson_arrivals_line, scenario_by_name, ChurnSpec, EventTrace, Scenario, TraceEvent,
};

/// Concurrent reader threads per arm. The harness host is small; the
/// latency contrast comes from the read path, not reader fan-out.
const READERS: usize = 2;

/// Pause between reads — a polling server tier, not a spin loop, so the
/// writer is never starved and both arms sample identically.
const READ_PAUSE: Duration = Duration::from_micros(200);

/// Parses `--threads N` (0 = the shim's default worker count).
fn thread_arg() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            return args
                .next()
                .and_then(|n| n.parse().ok())
                .expect("--threads takes a worker count");
        }
    }
    0
}

fn to_events(batch: &[TraceEvent], tickets: &[DemandTicket]) -> Vec<DemandEvent> {
    batch
        .iter()
        .map(|event| match event {
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
            TraceEvent::Expire { arrival } => DemandEvent::Expire(tickets[*arrival]),
            TraceEvent::ArriveTree { .. } => unreachable!("line trace only"),
        })
        .collect()
}

/// The trace's batches as `DemandEvent` batches, resolving expiries
/// through the session's ticket numbering (tickets are assigned in
/// admission order, so the table is computable without stepping).
fn event_batches(trace: &EventTrace, initial: Vec<DemandTicket>) -> Vec<Vec<DemandEvent>> {
    let mut tickets = initial;
    let mut next = tickets.len() as u64;
    let mut batches = Vec::with_capacity(trace.batches.len());
    for batch in &trace.batches {
        let events = to_events(batch, &tickets);
        for event in &events {
            if matches!(event, DemandEvent::Arrive(_)) {
                tickets.push(DemandTicket(next));
                next += 1;
            }
        }
        batches.push(events);
    }
    batches
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct ArmResult {
    label: &'static str,
    epochs: usize,
    replay_s: f64,
    reads: u64,
    /// Per-read latency samples (ns), merged across readers and sorted.
    latencies_ns: Vec<u64>,
    /// Per-epoch admission latency (`epoch.step_ns`) over the replayed
    /// churn epochs.
    admission: netsched_obs::HistogramSnapshot,
}

impl ArmResult {
    fn read_throughput(&self) -> f64 {
        self.reads as f64 / self.replay_s
    }

    fn read_p99_ms(&self) -> f64 {
        percentile(&self.latencies_ns, 0.99) as f64 / 1e6
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("epochs", JsonValue::int(self.epochs)),
            ("replay_seconds", JsonValue::num(self.replay_s)),
            (
                "epochs_per_sec",
                JsonValue::num(self.epochs as f64 / self.replay_s),
            ),
            ("reads", JsonValue::int(self.reads as usize)),
            ("read_throughput", JsonValue::num(self.read_throughput())),
            (
                "latency_p50_ms",
                JsonValue::num(percentile(&self.latencies_ns, 0.50) as f64 / 1e6),
            ),
            (
                "latency_p95_ms",
                JsonValue::num(percentile(&self.latencies_ns, 0.95) as f64 / 1e6),
            ),
            ("latency_p99_ms", JsonValue::num(self.read_p99_ms())),
            (
                "latency_max_ms",
                JsonValue::num(self.latencies_ns.last().copied().unwrap_or(0) as f64 / 1e6),
            ),
            (
                "admission_p50_ms",
                JsonValue::num(self.admission.p50 as f64 / 1e6),
            ),
            (
                "admission_p99_ms",
                JsonValue::num(self.admission.p99 as f64 / 1e6),
            ),
        ])
    }

    fn print(&self) {
        println!(
            "  {:<16} {:>7.2} epochs/sec   {:>9.0} reads/sec   read p50 {:>10.4}ms  p99 {:>10.4}ms  max {:>10.4}ms",
            self.label,
            self.epochs as f64 / self.replay_s,
            self.read_throughput(),
            percentile(&self.latencies_ns, 0.50) as f64 / 1e6,
            self.read_p99_ms(),
            self.latencies_ns.last().copied().unwrap_or(0) as f64 / 1e6,
        );
    }
}

/// A fresh warm session over `problem` with its initial solve done and a
/// clean obs registry, so both arms start from the same state and their
/// `epoch.step_ns` covers only the replayed churn epochs.
fn prepared_session(
    problem: &netsched_graph::LineProblem,
    config: AlgorithmConfig,
) -> ServiceSession {
    let mut session =
        ServiceSession::for_line(problem, config).with_resolve_mode(ResolveMode::Warm);
    session.step(&[]).expect("initial solve");
    session.with_obs(ObsRegistry::default())
}

/// The synchronous read-after-step baseline: writer and readers contend
/// on one mutex around the whole session.
fn run_baseline(session: ServiceSession, batches: &[Vec<DemandEvent>]) -> ArmResult {
    let locked = Mutex::new(session);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (reads, mut latencies, replay_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let locked = &locked;
                let stop = &stop;
                scope.spawn(move || {
                    let mut reads = 0u64;
                    let mut lat = Vec::new();
                    while !stop.load(Ordering::Acquire) || reads == 0 {
                        let t = Instant::now();
                        let (profit, bound) = {
                            let session = locked.lock().expect("session lock");
                            (session.profit(), session.certificate().optimum_upper_bound)
                        };
                        lat.push(t.elapsed().as_nanos() as u64);
                        assert!(bound + 1e-6 >= profit, "weak duality under the lock");
                        reads += 1;
                        std::thread::sleep(READ_PAUSE);
                    }
                    (reads, lat)
                })
            })
            .collect();
        for events in batches {
            locked
                .lock()
                .expect("session lock")
                .step(events)
                .expect("baseline step");
        }
        let replay_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        let mut reads = 0u64;
        let mut latencies = Vec::new();
        for handle in handles {
            let (r, mut l) = handle.join().expect("reader thread");
            reads += r;
            latencies.append(&mut l);
        }
        (reads, latencies, replay_s)
    });
    latencies.sort_unstable();
    let session = locked.into_inner().expect("unpoisoned session");
    ArmResult {
        label: "baseline_locked",
        epochs: batches.len(),
        replay_s,
        reads,
        latencies_ns: latencies,
        admission: session.obs_registry().histogram("epoch.step_ns").snapshot(),
    }
}

/// The frontend arm: submit-then-wait per batch through `Service`;
/// readers poll wait-free `ScheduleReader`s. Returns the arm result
/// plus the maximum staleness from the session's registry.
fn run_service(session: ServiceSession, batches: Vec<Vec<DemandEvent>>) -> (ArmResult, u64) {
    let epochs = batches.len();
    let service = Service::new(session);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (reads, mut latencies, replay_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let mut reader = service.reader().expect("session is live");
                let stop = &stop;
                scope.spawn(move || {
                    let mut reads = 0u64;
                    let mut lat = Vec::new();
                    while !stop.load(Ordering::Acquire) || reads == 0 {
                        let t = Instant::now();
                        let snap = reader.read();
                        let (profit, bound) =
                            (snap.profit(), snap.certificate().optimum_upper_bound);
                        lat.push(t.elapsed().as_nanos() as u64);
                        assert!(bound + 1e-6 >= profit, "weak duality in the snapshot");
                        reads += 1;
                        std::thread::sleep(READ_PAUSE);
                    }
                    (reads, lat)
                })
            })
            .collect();
        for events in batches {
            service
                .submit(events)
                .expect("unbounded queue accepts")
                .wait()
                .expect("epoch ran");
        }
        let replay_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        let mut reads = 0u64;
        let mut latencies = Vec::new();
        for handle in handles {
            let (r, mut l) = handle.join().expect("reader thread");
            reads += r;
            latencies.append(&mut l);
        }
        (reads, latencies, replay_s)
    });
    latencies.sort_unstable();
    let obs = service
        .with_session(|s| s.obs_registry().clone())
        .expect("session is live");
    let report = obs.snapshot();
    let staleness_max = report
        .histogram("read.staleness_epochs")
        .map(|h| h.max)
        .unwrap_or(0);
    let arm = ArmResult {
        label: "service",
        epochs,
        replay_s,
        reads,
        latencies_ns: latencies,
        admission: obs.histogram("epoch.step_ns").snapshot(),
    };
    (arm, staleness_max)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    rayon::ThreadPoolBuilder::new()
        .num_threads(thread_arg())
        .build_global()
        .ok();
    let workers = rayon::current_num_threads();

    // Serving accuracy as in the other serving benches; the certificate
    // suite pins correctness elsewhere.
    let config = AlgorithmConfig::deterministic(0.25);
    let mut scenario = scenario_by_name("mega-churn-line").expect("mega scenario registered");
    let spec = {
        let base = scenario.churn().expect("mega scenario has churn").clone();
        ChurnSpec {
            epochs: if quick { 6 } else { base.epochs },
            ..base
        }
    };
    let Scenario::Line { workload, .. } = &mut scenario else {
        unreachable!("mega-churn-line is a line scenario")
    };
    if quick {
        workload.demands = 4_000;
    }
    let problem = workload.build().expect("mega line workload builds");
    let trace = poisson_arrivals_line(workload, &spec);

    println!("\nbenchmark group: concurrent_serving/mega-churn-line");
    let baseline_session = prepared_session(&problem, config);
    let live_demands = baseline_session.live_demands();
    let batches = event_batches(&trace, baseline_session.live_tickets());
    println!(
        "  live demands: {}   epochs: {}   readers: {}",
        live_demands,
        batches.len(),
        READERS
    );

    let baseline = run_baseline(baseline_session, &batches);
    baseline.print();

    let (served, staleness_max) = run_service(prepared_session(&problem, config), batches);
    served.print();

    let speedup_p99 = baseline.read_p99_ms() / served.read_p99_ms().max(1e-9);
    println!("  reader p99 speedup: {speedup_p99:>6.1}x   staleness max: {staleness_max} epoch(s)");
    assert!(
        staleness_max <= 1,
        "published reads must never lag more than one epoch"
    );
    if !quick {
        assert!(
            speedup_p99 >= 10.0,
            "wait-free reads must beat the locked baseline by >=10x at p99 \
             (got {speedup_p99:.1}x)"
        );
    }

    let mut entries = netsched_bench::host::meta("concurrent_serving", mode, workers);
    entries.push(("scenario", JsonValue::String("mega-churn-line".to_string())));
    entries.push(("live_demands", JsonValue::int(live_demands)));
    entries.push(("readers", JsonValue::int(READERS)));
    entries.push((
        "arms",
        JsonValue::Object(
            vec![
                ("baseline_locked".to_string(), baseline.to_json()),
                ("service".to_string(), served.to_json()),
            ]
            .into_iter()
            .collect(),
        ),
    ));
    entries.push(("read_throughput", JsonValue::num(served.read_throughput())));
    entries.push(("latency_p99_ms", JsonValue::num(served.read_p99_ms())));
    entries.push(("speedup_p99", JsonValue::num(speedup_p99)));
    entries.push((
        "staleness_max_epochs",
        JsonValue::int(staleness_max as usize),
    ));
    let json = JsonValue::object(entries);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_concurrent_serving.json"
    );
    std::fs::write(path, json.render())
        .expect("writing BENCH_concurrent_serving.json must succeed");
    println!(
        "\nwrote BENCH_concurrent_serving.json ({mode} mode, rayon workers: {workers}, peak RSS {} kB)",
        netsched_bench::host::peak_rss_kb()
    );
}
