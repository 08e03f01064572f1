//! Benchmark: the sharded conflict engine versus the pre-shard reference
//! path, across shard counts and worker-thread counts.
//!
//! Scenarios come from the `netsched-workloads` multi-network generators:
//! balanced line workloads at 1/2/4/8 shards, a skewed-shard workload (one
//! hot network) and an 8-network tree workload. For each we measure
//!
//! * **conflict build** — [`ConflictGraph::build`] (single flat CSR, the
//!   pre-shard path) versus [`ShardedConflictGraph::build`] (per-shard
//!   sweeps driven through rayon) at 1/2/4/8 workers, and
//! * **MIS epochs + engine** — [`run_two_phase_reference`] (simulator-driven
//!   Luby, sequential filters and raises) versus [`run_two_phase_on`]
//!   (shard-parallel MIS and filters, sequential raises) at the same
//!   worker counts —
//!   both engines produce identical schedules, so this is a pure
//!   representation comparison.
//!
//! Results are written to `BENCH_shard_scaling.json`. Run with `--quick`
//! for the reduced CI configuration. Worker counts beyond the machine's
//! cores measure oversubscription, not speedup; the JSON records
//! `host_threads` so readers can judge.

use criterion::black_box;
use netsched_core::framework::{run_two_phase_on, run_two_phase_reference};
use netsched_core::{AlgorithmConfig, Budget, RaiseRule};
use netsched_decomp::InstanceLayering;
use netsched_distrib::{ConflictGraph, MisStrategy, ShardedConflictGraph};
use netsched_graph::DemandInstanceUniverse;
use netsched_workloads::json::JsonValue;
use netsched_workloads::{many_networks_line, many_networks_tree, skewed_networks_line};
use rayon::ThreadPoolBuilder;
use std::time::{Duration, Instant};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Median wall-clock time of `samples` runs of `f`.
fn measure<O>(samples: usize, mut f: impl FnMut() -> O) -> Duration {
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn with_threads<O>(n: usize, f: impl FnOnce() -> O) -> O {
    ThreadPoolBuilder::new().num_threads(n).build_global().ok();
    let out = f();
    ThreadPoolBuilder::new().num_threads(0).build_global().ok();
    out
}

struct Scenario {
    name: String,
    universe: DemandInstanceUniverse,
    layering: InstanceLayering,
}

fn scenarios(quick: bool) -> Vec<Scenario> {
    let demands = if quick { 70 } else { 170 };
    let tree_demands = if quick { 60 } else { 140 };
    let mut out = Vec::new();
    for networks in [1usize, 2, 4, 8] {
        let u = many_networks_line(networks, demands, 20130 + networks as u64)
            .build()
            .expect("valid workload")
            .universe();
        let layering = InstanceLayering::line_length_classes(&u);
        out.push(Scenario {
            name: format!("line-{networks}shard"),
            universe: u,
            layering,
        });
    }
    {
        let u = skewed_networks_line(8, demands, 1.5, 77)
            .build()
            .expect("valid workload")
            .universe();
        let layering = InstanceLayering::line_length_classes(&u);
        out.push(Scenario {
            name: "line-8shard-skewed".to_string(),
            universe: u,
            layering,
        });
    }
    {
        let p = many_networks_tree(8, tree_demands, 4242)
            .build()
            .expect("valid workload");
        let u = p.universe();
        let layering = InstanceLayering::for_tree_problem(
            &p,
            &u,
            netsched_decomp::TreeDecompositionKind::Ideal,
        );
        out.push(Scenario {
            name: "tree-8shard".to_string(),
            universe: u,
            layering,
        });
    }
    out
}

struct ThreadResult {
    threads: usize,
    conflict_s: f64,
    engine_s: f64,
}

struct ScenarioResult {
    name: String,
    networks: usize,
    instances: usize,
    conflict_edges: usize,
    conflict_reference_s: f64,
    engine_reference_s: f64,
    per_thread: Vec<ThreadResult>,
}

impl ScenarioResult {
    fn combined_speedup(&self, tr: &ThreadResult) -> f64 {
        (self.conflict_reference_s + self.engine_reference_s) / (tr.conflict_s + tr.engine_s)
    }

    fn best_speedup(&self) -> f64 {
        self.per_thread
            .iter()
            .map(|tr| self.combined_speedup(tr))
            .fold(0.0, f64::max)
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("networks", JsonValue::int(self.networks)),
            ("instances", JsonValue::int(self.instances)),
            ("conflict_edges", JsonValue::int(self.conflict_edges)),
            (
                "conflict_reference_s",
                JsonValue::num(self.conflict_reference_s),
            ),
            (
                "engine_reference_s",
                JsonValue::num(self.engine_reference_s),
            ),
            (
                "threads",
                JsonValue::Object(
                    self.per_thread
                        .iter()
                        .map(|tr| {
                            (
                                format!("{}", tr.threads),
                                JsonValue::object(vec![
                                    ("conflict_sharded_s", JsonValue::num(tr.conflict_s)),
                                    ("engine_sharded_s", JsonValue::num(tr.engine_s)),
                                    (
                                        "combined_speedup",
                                        JsonValue::num(self.combined_speedup(tr)),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("best_combined_speedup", JsonValue::num(self.best_speedup())),
        ])
    }

    fn print(&self) {
        println!("\nbenchmark group: shard_scaling/{}", self.name);
        println!(
            "  networks: {}   instances: {}   conflict edges: {}",
            self.networks, self.instances, self.conflict_edges
        );
        println!(
            "  reference     conflict {:>11.6}s   engine {:>11.6}s",
            self.conflict_reference_s, self.engine_reference_s
        );
        for tr in &self.per_thread {
            println!(
                "  sharded x{}    conflict {:>11.6}s   engine {:>11.6}s   combined speedup {:.2}x",
                tr.threads,
                tr.conflict_s,
                tr.engine_s,
                self.combined_speedup(tr)
            );
        }
    }
}

fn run_scenario(s: &Scenario, samples: usize) -> ScenarioResult {
    let config = AlgorithmConfig {
        epsilon: 0.1,
        mis: MisStrategy::Luby { seed: 1205 },
        seed: 1205,
    };
    let flat = ConflictGraph::build(&s.universe);
    let conflict_reference_s = secs(measure(samples, || ConflictGraph::build(&s.universe)));
    let engine_reference_s = secs(measure(samples, || {
        run_two_phase_reference(&s.universe, &s.layering, RaiseRule::Unit, &config)
    }));
    let per_thread = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            with_threads(threads, || {
                let conflict_s = secs(measure(samples, || {
                    ShardedConflictGraph::build(&s.universe)
                }));
                let conflict = ShardedConflictGraph::build(&s.universe);
                let engine_s = secs(measure(samples, || {
                    run_two_phase_on(
                        &s.universe,
                        &conflict,
                        &s.layering,
                        RaiseRule::Unit,
                        &config,
                        &Budget::unlimited(),
                    )
                }));
                ThreadResult {
                    threads,
                    conflict_s,
                    engine_s,
                }
            })
        })
        .collect();
    ScenarioResult {
        name: s.name.clone(),
        networks: s.universe.num_networks(),
        instances: s.universe.num_instances(),
        conflict_edges: flat.num_edges(),
        conflict_reference_s,
        engine_reference_s,
        per_thread,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes = if quick { 3 } else { 5 };
    let mode = if quick { "quick" } else { "full" };
    // The sweep exercises every worker count in THREAD_COUNTS; the header
    // records the widest one (per-thread timings carry the rest).
    let workers = *THREAD_COUNTS.iter().max().unwrap();

    let results: Vec<ScenarioResult> = scenarios(quick)
        .iter()
        .map(|s| run_scenario(s, sizes))
        .collect();
    for r in &results {
        r.print();
    }

    let mut entries = netsched_bench::host::meta("shard_scaling", mode, workers);
    entries.push((
        "scenarios",
        JsonValue::Object(
            results
                .iter()
                .map(|r| (r.name.clone(), r.to_json()))
                .collect(),
        ),
    ));
    let json = JsonValue::object(entries);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_shard_scaling.json"
    );
    std::fs::write(path, json.render()).expect("writing BENCH_shard_scaling.json must succeed");
    println!("\nwrote BENCH_shard_scaling.json ({mode} mode, rayon workers: {workers})");
}
