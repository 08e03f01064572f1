//! Experiment harness for `netsched`.
//!
//! The paper is theoretical and contains no experimental tables or figures;
//! every quantitative claim (approximation ratios, decomposition parameters,
//! round complexities) is reproduced here as a measurable experiment
//! (E1–E13; `experiments list` prints the index).
//!
//! Run all experiments with
//!
//! ```text
//! cargo run -p netsched-bench --release --bin experiments -- all
//! ```
//!
//! or an individual one with its id (`e1` … `e13`). Pass `--quick` for a
//! reduced sweep.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod table;

pub use table::Table;

/// Common measurement helpers shared by experiments and benches.
pub mod measure {
    use netsched_core::Solution;
    use std::time::Instant;

    /// Wall-clock time of a closure in milliseconds together with its
    /// result.
    pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64() * 1e3)
    }

    /// Percentage of `part` relative to `whole` (0 when `whole` is 0).
    pub fn pct(part: f64, whole: f64) -> f64 {
        if whole.abs() < 1e-12 {
            0.0
        } else {
            100.0 * part / whole
        }
    }

    /// The empirical approximation ratio `reference / achieved` (1.0 when
    /// the achieved profit is zero and the reference is zero too).
    pub fn ratio(reference: f64, sol: &Solution) -> f64 {
        if sol.profit <= 1e-12 {
            if reference <= 1e-12 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            reference / sol.profit
        }
    }
}

/// Host metadata recorded in every bench JSON header, so committed artifacts
/// are interpretable without knowing the machine they ran on.
pub mod host {
    use netsched_workloads::json::JsonValue;

    /// Logical CPUs visible to the process.
    pub fn logical_cpus() -> usize {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    }

    /// Physical cores: unique `(physical id, core id)` pairs from
    /// `/proc/cpuinfo`, falling back to the logical count when the fields
    /// are absent (VMs often omit them) or the file is unreadable.
    pub fn physical_cores() -> usize {
        let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") else {
            return logical_cpus();
        };
        let mut pairs = std::collections::BTreeSet::new();
        let (mut package, mut core) = (None::<u64>, None::<u64>);
        for line in info.lines() {
            let mut parts = line.splitn(2, ':');
            let key = parts.next().unwrap_or("").trim();
            let value = parts.next().unwrap_or("").trim();
            match key {
                "physical id" => package = value.parse().ok(),
                "core id" => core = value.parse().ok(),
                "" => {
                    if let (Some(p), Some(c)) = (package, core) {
                        pairs.insert((p, c));
                    }
                    package = None;
                    core = None;
                }
                _ => {}
            }
        }
        if let (Some(p), Some(c)) = (package, core) {
            pairs.insert((p, c));
        }
        if pairs.is_empty() {
            logical_cpus()
        } else {
            pairs.len()
        }
    }

    /// Peak resident set size of this process in KiB (`VmHWM` from
    /// `/proc/self/status`); 0 when unavailable (non-Linux hosts).
    pub fn peak_rss_kb() -> usize {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    }

    /// The standard bench JSON header entries: bench name, mode, the rayon
    /// worker count the run actually used (`host_threads` keeps its
    /// historical key; workers beyond `physical_cores` measure shim
    /// oversubscription, not hardware parallelism), the physical/logical
    /// core counts and the process's peak RSS. Call this *after* the
    /// measured work so the RSS high-water mark covers it, and splice the
    /// entries at the front of the bench's top-level object so every
    /// committed artifact carries the same provenance fields.
    pub fn meta(bench: &str, mode: &str, rayon_workers: usize) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("bench", JsonValue::String(bench.to_string())),
            ("mode", JsonValue::String(mode.to_string())),
            ("host_threads", JsonValue::int(rayon_workers)),
            ("rayon_workers", JsonValue::int(rayon_workers)),
            ("physical_cores", JsonValue::int(physical_cores())),
            ("logical_cpus", JsonValue::int(logical_cpus())),
            ("peak_rss_kb", JsonValue::int(peak_rss_kb())),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::measure;

    #[test]
    fn pct_and_timed_behave() {
        assert_eq!(measure::pct(1.0, 4.0), 25.0);
        assert_eq!(measure::pct(1.0, 0.0), 0.0);
        let (v, ms) = measure::timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }
}
