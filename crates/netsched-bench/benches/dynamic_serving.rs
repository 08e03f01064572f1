//! Benchmark: incremental serving epochs versus from-scratch rebuilds.
//!
//! Replays the `churn-line` / `churn-tree` serving traces at several churn
//! rates through two implementations of the same contract ("after this
//! batch, give me the schedule of the surviving demand set"):
//!
//! * **incremental** — one long-lived `ServiceSession`: per epoch, splice
//!   the universe, rebuild only the dirty shards' CSRs, splice the
//!   layering, re-solve with the two-phase engine;
//! * **from-scratch** — what a naive server does per batch: open a fresh
//!   `Scheduler` over the surviving demand set (universe + sharding +
//!   conflict sweep + decompositions + layering) and solve. Problem
//!   assembly itself is kept *outside* the timer, so the comparison is
//!   cache rebuild + solve on both sides.
//!
//! Both paths produce identical schedules (asserted on the final epoch;
//! the full differential suite lives in `tests/dynamic_equivalence.rs`).
//! Results are written to `BENCH_dynamic_serving.json`; run with `--quick`
//! for the reduced CI configuration.
//!
//! A second arm compares **warm vs cold re-solving** on the same traces:
//! two identical incremental sessions, one in `ResolveMode::Cold` (the
//! PR-4 path: splice + dirty-shard rebuild + from-zero solve) and one in
//! `ResolveMode::Warm` (splice + dirty-shard rebuild + certificate
//! repair). Every warm epoch's certificate is checked against the
//! auto-selected solver's guarantee while timing; results are written to
//! `BENCH_warm_resolve.json`.

use netsched_core::{AlgorithmConfig, Scheduler};
use netsched_graph::{LineProblem, TreeProblem};
use netsched_service::{replay_trace, ResolveMode, ServiceSession};
use netsched_workloads::json::JsonValue;
use netsched_workloads::{
    poisson_arrivals_line, poisson_arrivals_tree, scenario_by_name, ChurnSpec, EventTrace,
    Scenario, TraceEvent,
};
use std::time::Instant;

const CHURN_RATES: [f64; 3] = [0.02, 0.05, 0.10];

enum Problem {
    Tree(TreeProblem),
    Line(LineProblem),
}

/// The from-scratch mirror: the surviving demand set as trace events.
struct Mirror {
    problem: Problem,
    live: Vec<(usize, TraceEvent)>,
    next_arrival: usize,
}

impl Mirror {
    fn new(problem: Problem, initial: usize) -> Self {
        let live = match &problem {
            Problem::Tree(p) => p
                .demands()
                .iter()
                .map(|d| {
                    (
                        d.id.index(),
                        TraceEvent::ArriveTree {
                            u: d.u,
                            v: d.v,
                            profit: d.profit,
                            height: d.height,
                            access: p.access(d.id).to_vec(),
                        },
                    )
                })
                .collect(),
            Problem::Line(p) => p
                .demands()
                .iter()
                .map(|d| {
                    (
                        d.id.index(),
                        TraceEvent::ArriveLine {
                            release: d.release,
                            deadline: d.deadline,
                            processing: d.processing,
                            profit: d.profit,
                            height: d.height,
                            access: p.access(d.id).to_vec(),
                        },
                    )
                })
                .collect(),
        };
        Self {
            problem,
            live,
            next_arrival: initial,
        }
    }

    fn apply(&mut self, batch: &[TraceEvent]) {
        for event in batch {
            match event {
                TraceEvent::Expire { arrival } => {
                    let pos = self
                        .live
                        .iter()
                        .position(|(a, _)| a == arrival)
                        .expect("expiry of a live arrival");
                    self.live.remove(pos);
                }
                arrive => {
                    self.live.push((self.next_arrival, arrive.clone()));
                    self.next_arrival += 1;
                }
            }
        }
    }

    /// The surviving set as a fresh problem (not timed).
    fn rebuild(&self) -> Problem {
        match &self.problem {
            Problem::Tree(base) => {
                let mut p = TreeProblem::new(base.num_vertices());
                for t in 0..base.num_networks() {
                    let network = netsched_graph::NetworkId::new(t);
                    let edges = base.network(network).edges().map(|(_, uv)| uv).collect();
                    let id = p.add_network(edges).unwrap();
                    for (e, &cap) in base.capacities(network).iter().enumerate() {
                        if (cap - 1.0).abs() > f64::EPSILON {
                            p.set_capacity(id, e, cap).unwrap();
                        }
                    }
                }
                for (_, event) in &self.live {
                    if let TraceEvent::ArriveTree {
                        u,
                        v,
                        profit,
                        height,
                        access,
                    } = event
                    {
                        p.add_demand(*u, *v, *profit, *height, access.clone())
                            .unwrap();
                    }
                }
                Problem::Tree(p)
            }
            Problem::Line(base) => {
                let mut p = LineProblem::new(base.timeslots(), base.num_resources());
                for (_, event) in &self.live {
                    if let TraceEvent::ArriveLine {
                        release,
                        deadline,
                        processing,
                        profit,
                        height,
                        access,
                    } = event
                    {
                        p.add_demand(
                            *release,
                            *deadline,
                            *processing,
                            *profit,
                            *height,
                            access.clone(),
                        )
                        .unwrap();
                    }
                }
                Problem::Line(p)
            }
        }
    }
}

struct ChurnResult {
    epochs: usize,
    events: usize,
    incremental_s: f64,
    /// Splice + dirty-shard rebuild + layering portion of the incremental
    /// epochs (from the session's own telemetry).
    incremental_rebuild_s: f64,
    /// Engine-solve portion of the incremental epochs.
    incremental_solve_s: f64,
    scratch_s: f64,
    mean_dirty_shards: f64,
    final_live: usize,
    /// Per-epoch admission latency (`epoch.step_ns`) from the session's
    /// obs registry.
    latency: netsched_obs::HistogramSnapshot,
}

impl ChurnResult {
    fn speedup(&self) -> f64 {
        self.scratch_s / self.incremental_s
    }

    /// Cache-rebuild speedup: from-scratch rebuild time (everything but
    /// the solve, which is identical on both sides) over the incremental
    /// rebuild time.
    fn rebuild_speedup(&self) -> f64 {
        (self.scratch_s - self.incremental_solve_s) / self.incremental_rebuild_s
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("epochs", JsonValue::int(self.epochs)),
            ("events", JsonValue::int(self.events)),
            ("final_live_demands", JsonValue::int(self.final_live)),
            (
                "mean_incremental_epoch_ms",
                JsonValue::num(1e3 * self.incremental_s / self.epochs as f64),
            ),
            (
                "mean_incremental_rebuild_ms",
                JsonValue::num(1e3 * self.incremental_rebuild_s / self.epochs as f64),
            ),
            (
                "mean_incremental_solve_ms",
                JsonValue::num(1e3 * self.incremental_solve_s / self.epochs as f64),
            ),
            (
                "mean_scratch_epoch_ms",
                JsonValue::num(1e3 * self.scratch_s / self.epochs as f64),
            ),
            ("mean_dirty_shards", JsonValue::num(self.mean_dirty_shards)),
            ("epoch_speedup", JsonValue::num(self.speedup())),
            ("rebuild_speedup", JsonValue::num(self.rebuild_speedup())),
            (
                "latency_p50_ms",
                JsonValue::num(self.latency.p50 as f64 / 1e6),
            ),
            (
                "latency_p95_ms",
                JsonValue::num(self.latency.p95 as f64 / 1e6),
            ),
            (
                "latency_p99_ms",
                JsonValue::num(self.latency.p99 as f64 / 1e6),
            ),
            (
                "latency_max_ms",
                JsonValue::num(self.latency.max as f64 / 1e6),
            ),
        ])
    }
}

fn run_churn(scenario: &Scenario, churn: f64, epochs: usize) -> ChurnResult {
    // Serving accuracy: ε = 0.25 (certified 4/(1−ε) ≈ 5.3 for the
    // unit-height scenarios) — the latency/accuracy point a serving tier
    // would run at; both paths solve with the same configuration.
    let config = AlgorithmConfig::deterministic(0.25);
    let spec = ChurnSpec {
        epochs,
        churn,
        ..scenario.churn().expect("churn scenario").clone()
    };
    let (problem, trace, initial): (Problem, EventTrace, usize) = match scenario {
        Scenario::Tree { workload, .. } => (
            Problem::Tree(workload.build().unwrap()),
            poisson_arrivals_tree(workload, &spec),
            workload.demands,
        ),
        Scenario::Line { workload, .. } => (
            Problem::Line(workload.build().unwrap()),
            poisson_arrivals_line(workload, &spec),
            workload.demands,
        ),
    };

    // ---- incremental: one session, timed per epoch ----
    let mut session = match &problem {
        Problem::Tree(p) => ServiceSession::for_tree(p, config),
        Problem::Line(p) => ServiceSession::for_line(p, config),
    };
    session.step(&[]).expect("initial solve"); // session warm-up, untimed

    // Fresh registry post warm-up so the latency percentiles cover the
    // measured churn epochs only, not the initial from-scratch solve.
    let mut session = session.with_obs(netsched_obs::ObsRegistry::default());
    let start = Instant::now();
    let deltas = replay_trace(&mut session, &trace).expect("trace replays");
    let incremental_s = start.elapsed().as_secs_f64();
    let mean_dirty_shards =
        deltas.iter().map(|d| d.stats.dirty_shards).sum::<usize>() as f64 / deltas.len() as f64;
    let incremental_rebuild_s: f64 = deltas.iter().map(|d| d.stats.rebuild_seconds).sum();
    let incremental_solve_s: f64 = deltas.iter().map(|d| d.stats.solve_seconds).sum();

    // ---- from-scratch: rebuild + solve per epoch (assembly untimed) ----
    let mut mirror = Mirror::new(problem, initial);
    let mut scratch_s = 0.0;
    let mut scratch_profit = 0.0;
    for batch in &trace.batches {
        mirror.apply(batch);
        let rebuilt = mirror.rebuild();
        let start = Instant::now();
        let solution = match &rebuilt {
            Problem::Tree(p) => Scheduler::for_tree(p).solve(&config),
            Problem::Line(p) => Scheduler::for_line(p).solve(&config),
        };
        scratch_s += start.elapsed().as_secs_f64();
        scratch_profit = solution.profit;
    }

    // Same contract, same answer: the final standing schedules agree.
    assert_eq!(
        session.profit(),
        scratch_profit,
        "incremental and from-scratch schedules diverged"
    );

    let latency = session.obs_registry().histogram("epoch.step_ns").snapshot();
    assert_eq!(
        latency.count,
        trace.batches.len() as u64,
        "epoch.step_ns must have one sample per churn epoch"
    );

    ChurnResult {
        epochs: trace.batches.len(),
        events: trace.num_events(),
        incremental_s,
        incremental_rebuild_s,
        incremental_solve_s,
        scratch_s,
        mean_dirty_shards,
        final_live: session.live_demands(),
        latency,
    }
}

struct WarmResult {
    epochs: usize,
    events: usize,
    cold_s: f64,
    cold_solve_s: f64,
    warm_s: f64,
    warm_solve_s: f64,
    min_lambda: f64,
    max_certified_ratio: f64,
    guarantee: f64,
    final_live: usize,
}

impl WarmResult {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("epochs", JsonValue::int(self.epochs)),
            ("events", JsonValue::int(self.events)),
            ("final_live_demands", JsonValue::int(self.final_live)),
            (
                "mean_cold_epoch_ms",
                JsonValue::num(1e3 * self.cold_s / self.epochs as f64),
            ),
            (
                "mean_cold_solve_ms",
                JsonValue::num(1e3 * self.cold_solve_s / self.epochs as f64),
            ),
            (
                "mean_warm_epoch_ms",
                JsonValue::num(1e3 * self.warm_s / self.epochs as f64),
            ),
            (
                "mean_warm_solve_ms",
                JsonValue::num(1e3 * self.warm_solve_s / self.epochs as f64),
            ),
            ("epoch_speedup", JsonValue::num(self.cold_s / self.warm_s)),
            (
                "solve_speedup",
                JsonValue::num(self.cold_solve_s / self.warm_solve_s),
            ),
            ("min_lambda", JsonValue::num(self.min_lambda)),
            (
                "max_certified_ratio",
                JsonValue::num(self.max_certified_ratio),
            ),
            ("guarantee", JsonValue::num(self.guarantee)),
        ])
    }
}

/// Warm vs cold: two identical incremental sessions replay the same trace;
/// only the re-solve strategy differs. The warm side's certificate is
/// validated (λ ≥ 1 − ε, certified ratio ≤ the solver's guarantee) on
/// every epoch — inside the contract, outside the comparison's honesty:
/// both sides run exactly what a serving tier would.
fn run_warm(scenario: &Scenario, churn: f64, epochs: usize) -> WarmResult {
    let config = AlgorithmConfig::deterministic(0.25);
    let spec = ChurnSpec {
        epochs,
        churn,
        ..scenario.churn().expect("churn scenario").clone()
    };
    let (problem, trace): (Problem, EventTrace) = match scenario {
        Scenario::Tree { workload, .. } => (
            Problem::Tree(workload.build().unwrap()),
            poisson_arrivals_tree(workload, &spec),
        ),
        Scenario::Line { workload, .. } => (
            Problem::Line(workload.build().unwrap()),
            poisson_arrivals_line(workload, &spec),
        ),
    };
    // Both scenarios are unit-height, so the dispatch table selects the
    // unit solvers: 7/(1 − ε) on trees (∆ = 6), 4/(1 − ε) on lines (∆ = 3).
    let guarantee = match &problem {
        Problem::Tree(p) => Scheduler::for_tree(p)
            .auto_solver()
            .guarantee(config.epsilon),
        Problem::Line(p) => Scheduler::for_line(p)
            .auto_solver()
            .guarantee(config.epsilon),
    }
    .expect("paper solvers carry a guarantee");

    let run = |mode: ResolveMode| {
        let mut session = match &problem {
            Problem::Tree(p) => ServiceSession::for_tree(p, config),
            Problem::Line(p) => ServiceSession::for_line(p, config),
        }
        .with_resolve_mode(mode);
        session.step(&[]).expect("initial solve"); // warm-up, untimed
        let start = Instant::now();
        let deltas = replay_trace(&mut session, &trace).expect("trace replays");
        let total_s = start.elapsed().as_secs_f64();
        let solve_s: f64 = deltas.iter().map(|d| d.stats.solve_seconds).sum();
        (session, deltas, total_s, solve_s)
    };

    let (_, _, cold_s, cold_solve_s) = run(ResolveMode::Cold);
    let (warm_session, warm_deltas, warm_s, warm_solve_s) = run(ResolveMode::Warm);

    let mut min_lambda = f64::INFINITY;
    let mut max_certified_ratio: f64 = 1.0;
    for delta in &warm_deltas {
        // Empty batches take the resolved=false fast path (no solve at
        // all); an empty live set solves trivially. Neither certifies.
        if !delta.stats.resolved || delta.stats.live_demands == 0 {
            continue;
        }
        assert!(
            delta.stats.warm_resolve,
            "resolved warm epoch not flagged as a warm resume"
        );
        min_lambda = min_lambda.min(delta.certificate.lambda);
        if delta.profit > 0.0 {
            let ratio = delta.certificate.optimum_upper_bound / delta.profit;
            max_certified_ratio = max_certified_ratio.max(ratio);
            assert!(
                ratio <= guarantee + 1e-6,
                "warm certified ratio {ratio} exceeds the {guarantee} guarantee"
            );
        }
        assert!(
            delta.certificate.lambda >= 1.0 - config.epsilon - 1e-6,
            "warm λ {} below 1 − ε",
            delta.certificate.lambda
        );
    }

    WarmResult {
        epochs: trace.batches.len(),
        events: trace.num_events(),
        cold_s,
        cold_solve_s,
        warm_s,
        warm_solve_s,
        min_lambda,
        max_certified_ratio,
        guarantee,
        final_live: warm_session.live_demands(),
    }
}

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

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let epochs = if quick { 12 } else { 40 };
    let mode = if quick { "quick" } else { "full" };
    rayon::ThreadPoolBuilder::new()
        .num_threads(thread_arg())
        .build_global()
        .ok();
    let workers = rayon::current_num_threads();

    let mut scenarios_json: Vec<(String, JsonValue)> = Vec::new();
    for name in ["churn-line", "churn-tree"] {
        let scenario = scenario_by_name(name).expect("churn scenario registered");
        println!("\nbenchmark group: dynamic_serving/{name}");
        println!(
            "  networks: {}   epochs per churn rate: {epochs}",
            match &scenario {
                Scenario::Tree { workload, .. } => workload.networks,
                Scenario::Line { workload, .. } => workload.resources,
            }
        );
        let mut churn_json: Vec<(String, JsonValue)> = Vec::new();
        for churn in CHURN_RATES {
            let result = run_churn(&scenario, churn, epochs);
            println!(
                "  churn {:>4.0}%   incremental {:>8.3}ms/epoch (rebuild {:>6.3} + solve {:>6.3})   \
                 from-scratch {:>8.3}ms/epoch   dirty shards {:>4.1}   epoch speedup {:.2}x   \
                 rebuild speedup {:.2}x",
                100.0 * churn,
                1e3 * result.incremental_s / result.epochs as f64,
                1e3 * result.incremental_rebuild_s / result.epochs as f64,
                1e3 * result.incremental_solve_s / result.epochs as f64,
                1e3 * result.scratch_s / result.epochs as f64,
                result.mean_dirty_shards,
                result.speedup(),
                result.rebuild_speedup()
            );
            churn_json.push((format!("{churn}"), result.to_json()));
        }
        scenarios_json.push((
            name.to_string(),
            JsonValue::object(vec![(
                "churn",
                JsonValue::Object(churn_json.into_iter().collect()),
            )]),
        ));
    }

    let mut entries = netsched_bench::host::meta("dynamic_serving", mode, workers);
    entries.push((
        "scenarios",
        JsonValue::Object(scenarios_json.into_iter().collect()),
    ));
    let json = JsonValue::object(entries);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_dynamic_serving.json"
    );
    std::fs::write(path, json.render()).expect("writing BENCH_dynamic_serving.json must succeed");
    println!("\nwrote BENCH_dynamic_serving.json ({mode} mode, rayon workers: {workers})");

    // ---- warm vs cold re-solve arm ----
    let mut warm_json: Vec<(String, JsonValue)> = Vec::new();
    for name in ["churn-line", "churn-tree"] {
        let scenario = scenario_by_name(name).expect("churn scenario registered");
        println!("\nbenchmark group: warm_resolve/{name}");
        let mut churn_json: Vec<(String, JsonValue)> = Vec::new();
        for churn in CHURN_RATES {
            let result = run_warm(&scenario, churn, epochs);
            println!(
                "  churn {:>4.0}%   cold {:>8.3}ms/epoch (solve {:>6.3})   warm {:>8.3}ms/epoch \
                 (solve {:>6.3})   epoch speedup {:.2}x   solve speedup {:.2}x   min λ {:.4}   \
                 max ratio {:.2} (≤ {:.2})",
                100.0 * churn,
                1e3 * result.cold_s / result.epochs as f64,
                1e3 * result.cold_solve_s / result.epochs as f64,
                1e3 * result.warm_s / result.epochs as f64,
                1e3 * result.warm_solve_s / result.epochs as f64,
                result.cold_s / result.warm_s,
                result.cold_solve_s / result.warm_solve_s,
                result.min_lambda,
                result.max_certified_ratio,
                result.guarantee,
            );
            churn_json.push((format!("{churn}"), result.to_json()));
        }
        warm_json.push((
            name.to_string(),
            JsonValue::object(vec![(
                "churn",
                JsonValue::Object(churn_json.into_iter().collect()),
            )]),
        ));
    }
    let mut entries = netsched_bench::host::meta("warm_resolve", mode, workers);
    entries.push((
        "scenarios",
        JsonValue::Object(warm_json.into_iter().collect()),
    ));
    let json = JsonValue::object(entries);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_warm_resolve.json");
    std::fs::write(path, json.render()).expect("writing BENCH_warm_resolve.json must succeed");
    println!("\nwrote BENCH_warm_resolve.json ({mode} mode, rayon workers: {workers})");
}
