//! Criterion bench: the generic two-phase engine and its building blocks
//! (dual raises, feasibility checks, exact solver), plus an ablation of the
//! layering choice (ideal vs balancing vs root-fixing; experiment E12
//! tabulates the same choice).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsched_baseline::exact_optimum;
use netsched_core::{run_two_phase, AlgorithmConfig, RaiseRule};
use netsched_decomp::{InstanceLayering, TreeDecompositionKind};
use netsched_workloads::TreeWorkload;

fn bench_engine_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("two_phase_engine_layering_ablation");
    group.sample_size(10);
    let workload = TreeWorkload {
        vertices: 64,
        networks: 3,
        demands: 96,
        seed: 0xF0,
        ..TreeWorkload::default()
    };
    let problem = workload.build().unwrap();
    let universe = problem.universe();
    for kind in [
        TreeDecompositionKind::Ideal,
        TreeDecompositionKind::Balancing,
        TreeDecompositionKind::RootFixing,
    ] {
        let layering = InstanceLayering::for_tree_problem(&problem, &universe, kind);
        group.bench_with_input(
            BenchmarkId::new("unit_rule", format!("{kind:?}")),
            &layering,
            |b, l| {
                b.iter(|| {
                    run_two_phase(
                        &universe,
                        l,
                        RaiseRule::Unit,
                        &AlgorithmConfig::deterministic(0.1),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_exact_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_branch_and_bound");
    group.sample_size(10);
    for &m in &[6usize, 9, 12] {
        let workload = TreeWorkload {
            vertices: 16,
            networks: 2,
            demands: m,
            seed: 0xEE,
            ..TreeWorkload::default()
        };
        let problem = workload.build().unwrap();
        let universe = problem.universe();
        group.bench_with_input(BenchmarkId::new("exact", m), &universe, |b, u| {
            b.iter(|| exact_optimum(u))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_ablation, bench_exact_solver);
criterion_main!(benches);
