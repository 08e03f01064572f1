//! The netsched serving benchmark: one closed-loop workload per run.
//!
//! ```text
//! netsched-perfbench --workload <line-1e5|tree-1e5|mixed-tree-durable>
//!     [--seed N] [--scenario-seed M] [--seconds S] [--trace 0|1]
//!     [--out-dir DIR] [--revision REV]
//! ```
//!
//! `--seed` is the churn seed (the traffic), `--scenario-seed` the seed of
//! the base instance (networks and initial demands); each defaults to the
//! scenario's own.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it (`meta: {...}`) records the host, worker count, revision,
//! seeds and run length; the same record, with the metrics, is written
//! to `<out-dir>/result-<workload>-<seeds>-trace<t>.json`, and a traced run
//! also writes its spans as Chrome trace-event JSON next to it. See
//! `perfbench/README.md` for the metric definitions.

mod run;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use run::{Measured, Tally};
use spans::Spans;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: Option<u64>,
    scenario_seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut scenario_seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out_dir = PathBuf::from("perfbench-out");
    let mut revision = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--scenario-seed" => {
                scenario_seed = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--scenario-seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--revision" => revision = value()?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        scenario_seed,
        seconds,
        trace,
        out_dir,
        revision,
    })
}

/// Nearest-rank percentile of raw samples.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let mut sorted = m.step_ns.clone();
    sorted.sort_unstable();
    vec![
        metric(
            "epochs_per_s",
            m.step_ns.len() as f64 / m.replay_s,
            "epochs/s",
        ),
        metric("epoch_p50_ms", percentile(&sorted, 0.5) / 1e6, "ms"),
        metric("epoch_p90_ms", percentile(&sorted, 0.9) / 1e6, "ms"),
        metric("setup_s", m.setup_s, "s"),
        metric("peak_rss_mib", m.peak_rss_kib as f64 / 1024.0, "MiB"),
        metric("bytes_per_demand", m.bytes_per_demand, "B"),
        metric("certified_ratio", m.certified_ratio, "ratio"),
        metric("full_share", m.full_share, "fraction"),
        metric("recovery_s", m.recovery_s, "s"),
    ]
}

fn per_layer(m: &Measured, tally: &Tally) -> Vec<Metric> {
    let timed = m.step_ns.len().max(1) as f64;
    let caller_ms = m.step_ns.iter().sum::<u64>() as f64 / timed / 1e6;
    let phases: f64 = m.phase_ms.iter().map(|(_, v)| v).sum();
    let mut reads = m.read_ns.clone();
    reads.sort_unstable();
    let read_pct = |q| {
        if reads.is_empty() {
            0.0
        } else {
            percentile(&reads, q)
        }
    };
    let mut out: Vec<Metric> = m
        .phase_ms
        .iter()
        .map(|&(name, v)| metric(name, v, "ms"))
        .collect();
    out.extend([
        metric("session.untiled_ms", caller_ms - phases, "ms"),
        metric("session.caller_step_ms", caller_ms, "ms"),
        metric("session.quarantine_ms", m.quarantine_ms, "ms"),
        metric("session.dirty_shards", m.dirty_shards, "count"),
        metric("session.events", m.events, "count"),
        metric("engine.mis_rounds", m.mis_rounds_per_epoch, "count"),
        metric("engine.raises", m.raises_per_epoch, "count"),
        metric("core.verify_ms", m.verify_ms, "ms"),
        metric("warm.bytes", m.warm_bytes, "B"),
        metric("setup.first_solve_s", m.first_solve_s, "s"),
        metric("setup.open_s", m.open_s, "s"),
        metric("conflict.full_build_ms", m.conflict_build_ms, "ms"),
        metric("conflict.bytes", m.conflict_bytes, "B"),
        metric("universe.bytes", m.universe_bytes, "B"),
        metric("universe.instances", m.universe_instances, "count"),
        metric("decomp.layerer_ms", m.layerer_ms, "ms"),
        metric("view.read_p50_ns", read_pct(0.5), "ns"),
        metric("view.read_p99_ns", read_pct(0.99), "ns"),
        metric("view.reads", m.reads, "count"),
        metric("view.staleness_max_epochs", m.staleness_max, "epochs"),
        metric("wal.append_ms", m.wal_append_ms, "ms"),
        metric("wal.fsync_ms", m.wal_fsync_ms, "ms"),
        metric("snapshot.build_ms", m.snapshot_build_ms, "ms"),
        metric("snapshot.render_ms", m.snapshot_render_ms, "ms"),
        metric("snapshot.bytes", m.snapshot_bytes, "B"),
        metric("snapshot.from_doc_ms", m.snapshot_from_doc_ms, "ms"),
        metric("json.parse_ms", m.json_parse_ms, "ms"),
        metric("restore.load_ms", m.restore_ms[0], "ms"),
        metric("restore.scan_ms", m.restore_ms[1], "ms"),
        metric("restore.replay_ms", m.restore_ms[2], "ms"),
        metric("truncated_share", 1.0 - m.full_share, "fraction"),
        metric(
            "failed_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "fraction",
        ),
        metric("workloads.generate_s", m.generate_s, "s"),
        metric("trace.overhead_pct", m.trace_overhead_pct, "%"),
    ]);
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if workload.load_threads() > nproc {
        eprintln!(
            "perfbench: {} needs {} load-generating threads but this host has {nproc} cores",
            workload.name(),
            workload.load_threads()
        );
        return ExitCode::from(2);
    }
    let workers = workload.rayon_workers(nproc);
    rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build_global()
        .expect("the rayon shim accepts any worker count");
    let workers = rayon::current_num_threads();

    let inputs = workload::generate(workload, args.scenario_seed, args.seed);
    let seeds = format!("{}.{}", inputs.scenario_seed, inputs.churn_seed);
    let data_dir = args.out_dir.join(format!(
        "data-{}-{seeds}-{}",
        workload.name(),
        std::process::id()
    ));
    let mut spans = Spans::new(args.trace, Instant::now(), 1);
    let mut tally = Tally::default();
    let measured = run::run(
        workload,
        &inputs,
        args.seconds,
        &data_dir,
        &mut spans,
        &mut tally,
    );
    let _ = std::fs::remove_dir_all(&data_dir);
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let metrics = if args.trace {
        per_layer(&m, &tally)
    } else {
        end_to_end(&m)
    };
    let correct = tally.failed == 0;
    let meta = format!(
        "{{\"workload\":\"{}\",\"trace\":{},\"scenario_seed\":{},\"churn_seed\":{},\
         \"seconds\":{},\"timed_epochs\":{},\"replay_s\":{},\"nproc\":{nproc},\
         \"rayon_workers\":{workers},\"load_threads\":{},\"revision\":\"{}\"}}",
        workload.name(),
        args.trace as u8,
        inputs.scenario_seed,
        inputs.churn_seed,
        num(args.seconds),
        m.step_ns.len(),
        num(m.replay_s),
        workload.load_threads(),
        args.revision.replace(['"', '\\'], "")
    );
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
    let stem = format!("{}-{seeds}-trace{}", workload.name(), args.trace as u8);
    let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
        std::fs::write(
            args.out_dir.join(format!("result-{stem}.json")),
            format!(
                "{{\"meta\":{meta},\"result\":{result},\"step_ns\":{:?}}}\n",
                m.step_ns
            ),
        )?;
        if args.trace {
            std::fs::write(
                args.out_dir.join(format!("spans-{stem}.json")),
                spans.to_chrome_json(),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "perfbench: writing results under {}: {e}",
            args.out_dir.display()
        );
    }
    println!("meta: {meta}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
