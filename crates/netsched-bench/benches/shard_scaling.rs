//! Benchmark: the serving engine's conflict structures versus the
//! reference path, across shard counts.
//!
//! Scenarios come from the `netsched-workloads` multi-network generators:
//! balanced line workloads at 1/2/4/8 shards, a skewed-shard workload (one
//! hot network) and an 8-network tree workload. For each we measure
//!
//! * **conflict build** — [`ConflictGraph::build`] (the whole graph as one
//!   flat CSR, what the reference engine reads) versus
//!   [`ShardedConflictGraph::build`] (per-instance conflict degrees, one
//!   sweep per shard, all the serving engine keeps), and
//! * **MIS epochs + engine** — [`run_two_phase_reference`] (simulator-driven
//!   Luby on the flat CSR) versus [`run_two_phase_on`] (array-based Luby on
//!   the adjacency each MIS call induces among its candidates) —
//!   both engines produce identical schedules, so this is a pure
//!   representation comparison.
//!
//! Both paths run on the calling thread, so the worker count of the
//! default pool (recorded in the JSON header) does not affect them.
//! Results are written to `BENCH_shard_scaling.json`. Run with `--quick`
//! for the reduced CI configuration.

use criterion::black_box;
use netsched_core::framework::{run_two_phase_on, run_two_phase_reference};
use netsched_core::{AlgorithmConfig, Budget, RaiseRule};
use netsched_decomp::InstanceLayering;
use netsched_distrib::{ConflictGraph, MisStrategy, ShardedConflictGraph};
use netsched_graph::DemandInstanceUniverse;
use netsched_workloads::json::JsonValue;
use netsched_workloads::{many_networks_line, many_networks_tree, skewed_networks_line};
use std::time::{Duration, Instant};

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

struct ScenarioResult {
    name: String,
    networks: usize,
    instances: usize,
    conflict_edges: usize,
    conflict_reference_s: f64,
    engine_reference_s: f64,
    conflict_sharded_s: f64,
    engine_sharded_s: f64,
}

impl ScenarioResult {
    fn combined_speedup(&self) -> f64 {
        (self.conflict_reference_s + self.engine_reference_s)
            / (self.conflict_sharded_s + self.engine_sharded_s)
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
                "conflict_sharded_s",
                JsonValue::num(self.conflict_sharded_s),
            ),
            ("engine_sharded_s", JsonValue::num(self.engine_sharded_s)),
            ("combined_speedup", JsonValue::num(self.combined_speedup())),
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
        println!(
            "  sharded       conflict {:>11.6}s   engine {:>11.6}s   combined speedup {:.2}x",
            self.conflict_sharded_s,
            self.engine_sharded_s,
            self.combined_speedup()
        );
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
    let conflict_sharded_s = secs(measure(samples, || {
        ShardedConflictGraph::build(&s.universe)
    }));
    let conflict = ShardedConflictGraph::build(&s.universe);
    let engine_sharded_s = secs(measure(samples, || {
        run_two_phase_on(
            &s.universe,
            &conflict,
            &s.layering,
            RaiseRule::Unit,
            &config,
            &Budget::unlimited(),
        )
    }));
    ScenarioResult {
        name: s.name.clone(),
        networks: s.universe.num_networks(),
        instances: s.universe.num_instances(),
        conflict_edges: flat.num_edges(),
        conflict_reference_s,
        engine_reference_s,
        conflict_sharded_s,
        engine_sharded_s,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes = if quick { 3 } else { 5 };
    let mode = if quick { "quick" } else { "full" };
    let workers = rayon::current_num_threads();

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
