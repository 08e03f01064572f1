//! Determinism and equivalence suite for the sharded conflict engine.
//!
//! The sharding refactor is a pure representation change: on every input,
//! at every thread count, the sharded build must produce a merged adjacency
//! byte-identical to the pre-shard single-CSR path, and the shard-parallel
//! two-phase engine must reproduce the reference engine's schedules and
//! certificates exactly. These tests pin that contract on random
//! multi-network tree and line instances, under both MIS strategies,
//! sweeping the worker count through the rayon shim's global configuration.
//! The reference anchors both engine entry points: the cold one and the
//! warm one on a fresh state.

use netsched_core::framework::{run_two_phase, run_two_phase_on, run_two_phase_reference};
use netsched_core::{
    run_two_phase_warm_on, AlgorithmConfig, Budget, RaiseRule, Scheduler, Solution, WarmState,
};
use netsched_decomp::{InstanceLayering, TreeDecompositionKind};
use netsched_distrib::{
    maximal_independent_set, sharded_mis, ConflictGraph, MisScratch, MisStrategy, RoundStats,
    ShardedConflictGraph,
};
use netsched_graph::{
    ArrivingDemand, DemandId, DemandInstanceUniverse, EdgePath, InstanceId, NetworkId,
    UniverseDelta,
};
use netsched_workloads::{many_networks_line, many_networks_tree, skewed_networks_line};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::ThreadPoolBuilder;

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new().num_threads(n).build_global().ok();
    let out = f();
    ThreadPoolBuilder::new().num_threads(0).build_global().ok();
    out
}

/// Byte-level equality of two conflict graphs: identical per-vertex
/// neighbor slices (which pins the CSR `offsets`/`neighbors` arrays) and
/// edge counts.
fn assert_same_graph(a: &ConflictGraph, b: &ConflictGraph, label: &str) {
    assert_eq!(a.num_vertices(), b.num_vertices(), "{label}: vertex count");
    assert_eq!(a.num_edges(), b.num_edges(), "{label}: edge count");
    for v in 0..a.num_vertices() {
        let d = InstanceId::new(v);
        assert_eq!(a.neighbors(d), b.neighbors(d), "{label}: adjacency of {d}");
    }
}

/// Exact equality of everything the solution certifies (stats are allowed
/// to differ between the simulator-driven and array-driven Luby by
/// accounting constants, so they are excluded).
fn assert_same_solution(a: &Solution, b: &Solution, label: &str) {
    assert_eq!(a.selected, b.selected, "{label}: schedule");
    assert_eq!(a.raised_instances, b.raised_instances, "{label}: raised");
    assert_eq!(a.profit, b.profit, "{label}: profit");
    let (da, db) = (a.diagnostics, b.diagnostics);
    assert_eq!(da.lambda, db.lambda, "{label}: lambda");
    assert_eq!(da.dual_objective, db.dual_objective, "{label}: dual");
    assert_eq!(da.steps, db.steps, "{label}: steps");
    assert_eq!(
        da.optimum_upper_bound, db.optimum_upper_bound,
        "{label}: upper bound"
    );
    assert_eq!(a.certified_ratio(), b.certified_ratio(), "{label}: ratio");
}

fn universes() -> Vec<(String, DemandInstanceUniverse, InstanceLayering)> {
    let mut out = Vec::new();
    for (i, seed) in [3u64, 41].into_iter().enumerate() {
        let p = many_networks_tree(6 + 2 * i, 70, seed).build().unwrap();
        let u = p.universe();
        let l = InstanceLayering::for_tree_problem(&p, &u, TreeDecompositionKind::Ideal);
        out.push((format!("tree-{seed}"), u, l));
    }
    for (i, seed) in [9u64, 77].into_iter().enumerate() {
        let p = many_networks_line(4 + 4 * i, 60, seed).build().unwrap();
        let u = p.universe();
        let l = InstanceLayering::line_length_classes(&u);
        out.push((format!("line-{seed}"), u, l));
    }
    let p = skewed_networks_line(8, 80, 1.5, 2013).build().unwrap();
    let u = p.universe();
    let l = InstanceLayering::line_length_classes(&u);
    out.push(("skewed-line".to_string(), u, l));
    out
}

#[test]
fn merged_adjacency_is_byte_identical_across_paths_and_thread_counts() {
    for (name, universe, _) in universes() {
        let flat = ConflictGraph::build(&universe);
        for threads in [1usize, 2, 4] {
            let merged = with_threads(threads, || {
                let sharded = ShardedConflictGraph::build(&universe);
                assert_eq!(sharded.num_edges(), flat.num_edges());
                sharded.merged()
            });
            assert_same_graph(&flat, &merged, &format!("{name} @ {threads} threads"));
        }
    }
}

#[test]
fn sharded_mis_equals_flat_mis_at_every_thread_count() {
    // A windowed line instance large enough to clear the engine's parallel
    // gates, so the shard-parallel code paths really execute.
    let universe = many_networks_line(8, 150, 5).build().unwrap().universe();
    assert!(universe.num_instances() >= 1024, "need a large active set");
    let flat = ConflictGraph::build(&universe);
    let sharded = ShardedConflictGraph::build(&universe);
    let active: Vec<InstanceId> = universe.instance_ids().collect();
    for strategy in [
        MisStrategy::SequentialGreedy,
        MisStrategy::Luby { seed: 17 },
        MisStrategy::Luby { seed: 0xC0FFEE },
    ] {
        let mut stats = RoundStats::new();
        let reference = maximal_independent_set(&flat, &active, strategy, &mut stats);
        for threads in [1usize, 2, 4] {
            let ours = with_threads(threads, || {
                let mut scratch = MisScratch::new(universe.num_instances());
                let mut stats = RoundStats::new();
                sharded_mis(&sharded, &active, strategy, &mut stats, &mut scratch)
            });
            assert_eq!(reference, ours, "{strategy:?} @ {threads} threads");
        }
    }
}

#[test]
fn engine_schedules_match_the_reference_engine_exactly() {
    let configs = [
        AlgorithmConfig::deterministic(0.1),
        AlgorithmConfig {
            epsilon: 0.1,
            mis: MisStrategy::Luby { seed: 99 },
            seed: 99,
        },
    ];
    for (name, universe, layering) in universes() {
        for config in &configs {
            let reference = run_two_phase_reference(&universe, &layering, RaiseRule::Unit, config);
            for threads in [1usize, 4] {
                let ours = with_threads(threads, || {
                    let conflict = ShardedConflictGraph::build(&universe);
                    run_two_phase_on(
                        &universe,
                        &conflict,
                        &layering,
                        RaiseRule::Unit,
                        config,
                        &Budget::unlimited(),
                    )
                });
                ours.verify(&universe).unwrap();
                assert_same_solution(
                    &reference,
                    &ours,
                    &format!("{name} / {:?} @ {threads} threads", config.mis),
                );
            }
        }
    }
}

#[test]
fn tree_sessions_match_the_reference_engine_through_the_scheduler() {
    let problem = many_networks_tree(8, 90, 23).build().unwrap();
    let universe = problem.universe();
    let layering =
        InstanceLayering::for_tree_problem(&problem, &universe, TreeDecompositionKind::Ideal);
    for config in [
        AlgorithmConfig::deterministic(0.15),
        AlgorithmConfig {
            epsilon: 0.15,
            mis: MisStrategy::Luby { seed: 7 },
            seed: 7,
        },
    ] {
        let reference = run_two_phase_reference(&universe, &layering, RaiseRule::Unit, &config);
        let session = Scheduler::for_tree(&problem);
        let a = session.solve(&config);
        let b = session.solve(&config);
        assert_same_solution(&reference, &a, "session vs reference");
        assert_same_solution(&a, &b, "repeat solve");
        // The sharded conflict graph is a session cache: one build for any
        // number of solves.
        assert_eq!(session.build_counts().conflict, 1);
    }
}

/// A narrow-height tree instance under non-uniform capacities: exercises
/// the weighted-beta mirror tree and the range-minimum eligibility/can_add
/// paths.
fn capacitated_narrow_tree() -> (DemandInstanceUniverse, InstanceLayering) {
    use netsched_workloads::HeightDistribution;
    let mut workload = many_networks_tree(5, 60, 31);
    workload.heights = HeightDistribution::Mixed {
        wide_fraction: 0.0,
        min_narrow: 0.1,
    };
    let mut problem = workload.build().unwrap();
    for t in 0..problem.num_networks() {
        for e in (0..71).step_by(5) {
            problem
                .set_capacity(NetworkId::new(t), e, 1.5 + (e % 5) as f64 * 0.5)
                .unwrap();
        }
    }
    let universe = problem.universe();
    assert!(!universe.is_uniform_capacity());
    let layering =
        InstanceLayering::for_tree_problem(&problem, &universe, TreeDecompositionKind::Ideal);
    (universe, layering)
}

#[test]
fn narrow_rule_matches_reference_on_capacitated_instances() {
    let (universe, layering) = capacitated_narrow_tree();
    for rule in [RaiseRule::Unit, RaiseRule::Narrow] {
        let config = AlgorithmConfig::deterministic(0.1);
        let reference = run_two_phase_reference(&universe, &layering, rule, &config);
        let ours = run_two_phase(&universe, &layering, rule, &config);
        assert_same_solution(&reference, &ours, &format!("capacitated {rule:?}"));
    }
}

#[test]
fn fresh_warm_states_match_the_reference_engine_exactly() {
    let configs = [
        AlgorithmConfig::deterministic(0.1),
        AlgorithmConfig {
            epsilon: 0.1,
            mis: MisStrategy::Luby { seed: 99 },
            seed: 99,
        },
    ];
    let mut cases: Vec<_> = universes()
        .into_iter()
        .map(|(name, u, l)| (name, u, l, RaiseRule::Unit))
        .collect();
    let (u, l) = capacitated_narrow_tree();
    cases.push(("capacitated".to_string(), u, l, RaiseRule::Narrow));
    for (name, universe, layering, rule) in &cases {
        for config in &configs {
            let reference = run_two_phase_reference(universe, layering, *rule, config);
            for threads in [1usize, 2, 4] {
                let ours = with_threads(threads, || {
                    let conflict = ShardedConflictGraph::build(universe);
                    let mut warm = WarmState::new(universe, *rule);
                    run_two_phase_warm_on(
                        universe,
                        &conflict,
                        layering,
                        *rule,
                        config,
                        &mut warm,
                        &Budget::unlimited(),
                    )
                });
                let label = format!("{name} / {rule:?} / {:?} @ {threads} threads", config.mis);
                assert_same_solution(&reference, &ours, &label);
                let (a, b) = (reference.diagnostics, ours.diagnostics);
                assert_eq!(reference.profit.to_bits(), ours.profit.to_bits(), "{label}");
                assert_eq!(a.lambda.to_bits(), b.lambda.to_bits(), "{label}: λ bits");
                assert_eq!(
                    a.dual_objective.to_bits(),
                    b.dual_objective.to_bits(),
                    "{label}: dual bits"
                );
                assert_eq!(a.max_steps_per_stage, b.max_steps_per_stage, "{label}");
            }
        }
    }
}

/// One randomized hot-shard churn trace: several epochs whose expiries and
/// arrivals concentrate on two "hot" networks, so the same shards are
/// spliced over and over. After every epoch the incrementally maintained
/// sharding (per-shard run arrays and global-id columns, kept up to date by
/// the sub-shard run-order maintenance in `ShardedUniverse::apply_delta`)
/// must match a from-scratch rebuild exactly, and the merged adjacency must
/// stay byte-identical.
fn hot_shard_churn_case(seed: u64) {
    let base = many_networks_line(6, 90, seed ^ 0x9e37_79b9);
    let timeslots = base.timeslots as usize;
    let problem = base.build().unwrap();
    let mut universe = problem.universe();
    let mut conflict = ShardedConflictGraph::build(&universe);
    let mut delta = UniverseDelta::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..5 {
        let nets = universe.num_networks();
        let hot = [
            NetworkId::new(rng.gen_range(0..nets)),
            NetworkId::new(rng.gen_range(0..nets)),
        ];

        // Expire a few demands whose instances touch the hot networks.
        let mut expired: Vec<DemandId> = Vec::new();
        for &t in &hot {
            for &d in universe.instances_on_network(t).iter().take(3) {
                expired.push(universe.demand_of(d));
            }
        }
        expired.sort_unstable();
        expired.dedup();
        expired.truncate(4);

        // Arrivals land on the same hot networks.
        let mut arrivals = Vec::new();
        for k in 0..3 {
            let t = hot[k % 2];
            let len: usize = rng.gen_range(2..6);
            let start: usize = rng.gen_range(0..timeslots - len);
            arrivals.push(ArrivingDemand {
                profit: rng.gen_range(1.0..8.0),
                height: 1.0,
                instances: vec![(
                    t,
                    EdgePath::interval(start, start + len - 1),
                    Some(start as u32),
                )],
            });
        }

        universe.apply_demand_delta(&expired, &arrivals, &mut delta);
        conflict.apply_delta(&universe, &delta);

        let fresh = ShardedConflictGraph::build(&universe);
        for t in (0..universe.num_networks()).map(NetworkId::new) {
            let inc = conflict.sharding().shard(t);
            let full = fresh.sharding().shard(t);
            assert_eq!(
                inc.globals(),
                full.globals(),
                "round {round}: shard {t} global ids"
            );
            assert_eq!(inc.runs(), full.runs(), "round {round}: shard {t} runs");
        }
        assert_same_graph(
            &fresh.merged(),
            &conflict.merged(),
            &format!("round {round}: merged adjacency"),
        );
    }
}

/// Active subsets of one universe for the MIS property: a random subset
/// (about `percent`% of the instances) in shuffled order, since the engine
/// hands MIS calls group order, not id order; then a singleton and the
/// empty set.
fn active_subsets(
    universe: &DemandInstanceUniverse,
    rng: &mut StdRng,
    percent: u32,
) -> Vec<Vec<InstanceId>> {
    let n = universe.num_instances();
    let mut random: Vec<InstanceId> = universe
        .instance_ids()
        .filter(|_| rng.gen_range(0..100u32) < percent)
        .collect();
    for i in (1..random.len()).rev() {
        random.swap(i, rng.gen_range(0..=i));
    }
    vec![
        random,
        vec![InstanceId::new(rng.gen_range(0..n))],
        Vec::new(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sharded MIS equals the flat-graph MIS on random active subsets
    /// (empty and singleton included) of multi-network tree and line
    /// universes, whose multi-network demands form cross-shard cliques,
    /// under both strategies. One scratch serves every call, so a call
    /// that left a stale position behind would corrupt the next one.
    #[test]
    fn sharded_mis_equals_flat_mis_on_random_active_subsets(
        seed in any::<u64>(),
        percent in 0u32..=100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, universe, _) in universes() {
            let flat = ConflictGraph::build(&universe);
            let sharded = ShardedConflictGraph::build(&universe);
            let mut scratch = MisScratch::new(universe.num_instances());
            let subsets = active_subsets(&universe, &mut rng, percent);
            for strategy in [
                MisStrategy::SequentialGreedy,
                MisStrategy::Luby { seed: rng.gen() },
            ] {
                for active in &subsets {
                    let reference =
                        maximal_independent_set(&flat, active, strategy, &mut RoundStats::new());
                    let ours = sharded_mis(
                        &sharded,
                        active,
                        strategy,
                        &mut RoundStats::new(),
                        &mut scratch,
                    );
                    prop_assert_eq!(
                        reference,
                        ours,
                        "{} / {:?} / {} active",
                        name,
                        strategy,
                        active.len()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Incremental run-order maintenance is equivalent to a full re-sweep
    /// on randomized hot-shard churn traces, at every worker count.
    #[test]
    fn incremental_run_order_matches_full_resweep_on_hot_shard_churn(seed in any::<u64>()) {
        for threads in [1usize, 2, 4] {
            with_threads(threads, || hot_shard_churn_case(seed));
        }
    }
}
