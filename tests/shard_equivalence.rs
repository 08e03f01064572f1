//! Determinism and equivalence suite for the serving path's conflict
//! structures.
//!
//! The serving path keeps no conflict edges: it keeps per-instance
//! conflict degrees, and each MIS call induces the adjacency among its own
//! candidates. On every input the degrees and the induced adjacency must
//! equal the flat single-CSR build, the MIS over the induced adjacency
//! must return the flat MIS, and the two-phase engine must reproduce the
//! reference engine's schedules and certificates exactly. These tests pin that contract on random
//! multi-network tree and line instances, under both MIS strategies.
//! The reference anchors both engine entry points: the cold one and the
//! warm one on a fresh state.

use netsched_core::framework::{run_two_phase, run_two_phase_on, run_two_phase_reference};
use netsched_core::{
    run_two_phase_warm_on, AlgorithmConfig, Budget, RaiseRule, Scheduler, Solution, WarmState,
};
use netsched_decomp::{InstanceLayering, TreeDecompositionKind};
use netsched_distrib::{
    maximal_independent_set, sharded_mis, ConflictGraph, InducedConflicts, MisStrategy, RoundStats,
    ShardedConflictGraph,
};
use netsched_graph::{
    ArrivingDemand, DemandId, DemandInstanceUniverse, EdgePath, InstanceId, NetworkId, TreeProblem,
    UniverseDelta, VertexId,
};
use netsched_workloads::{many_networks_line, many_networks_tree, skewed_networks_line};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

use common::{assert_graph_matches, dense_universe};

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
fn degrees_and_induced_adjacency_match_the_flat_build_across_thread_counts() {
    for (name, universe, _) in universes() {
        let flat = ConflictGraph::build(&universe);
        let sharded = ShardedConflictGraph::build(&universe);
        assert_graph_matches(&flat, &universe, &sharded, &name);
    }
}

#[test]
fn sharded_mis_equals_flat_mis_at_every_thread_count() {
    // A windowed line instance with over a thousand instances on eight
    // networks, so the MIS walks both the per-shard neighbors and the
    // cross-shard same-demand cliques.
    let universe = many_networks_line(8, 150, 5).build().unwrap().universe();
    assert!(universe.num_instances() >= 1024, "need a large active set");
    let flat = ConflictGraph::build(&universe);
    let active: Vec<InstanceId> = universe.instance_ids().collect();
    for strategy in [
        MisStrategy::SequentialGreedy,
        MisStrategy::Luby { seed: 17 },
        MisStrategy::Luby { seed: 0xC0FFEE },
    ] {
        let mut stats = RoundStats::new();
        let reference = maximal_independent_set(&flat, &active, strategy, &mut stats);
        let ours = sharded_mis(&universe, &active, strategy, &mut RoundStats::new());
        assert_eq!(reference, ours, "{strategy:?}");
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
            let conflict = ShardedConflictGraph::build(&universe);
            let ours = run_two_phase_on(
                &universe,
                &conflict,
                &layering,
                RaiseRule::Unit,
                config,
                &Budget::unlimited(),
            );
            ours.verify(&universe).unwrap();
            assert_same_solution(&reference, &ours, &format!("{name} / {:?}", config.mis));
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
        // The conflict degrees are a session cache: one build for any
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
            let conflict = ShardedConflictGraph::build(universe);
            let mut warm = WarmState::new(universe, *rule);
            let ours = run_two_phase_warm_on(
                universe,
                &conflict,
                layering,
                *rule,
                config,
                &mut warm,
                &Budget::unlimited(),
            );
            let label = format!("{name} / {rule:?} / {:?}", config.mis);
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

/// One randomized hot-shard churn trace: several epochs whose expiries and
/// arrivals concentrate on two "hot" networks, so the same networks are
/// spliced over and over. After every epoch the incrementally maintained
/// degrees and the induced adjacency must equal the flat build. (That the
/// spliced run arrays equal a fresh build's is pinned by the unit tests
/// of `netsched_distrib::conflict`, which can see them.)
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

        assert_graph_matches(
            &ConflictGraph::build(&dense_universe(&universe).0),
            &universe,
            &conflict,
            &format!("round {round}"),
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
    /// under both strategies.
    #[test]
    fn sharded_mis_equals_flat_mis_on_random_active_subsets(
        seed in any::<u64>(),
        percent in 0u32..=100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, universe, _) in universes() {
            let flat = ConflictGraph::build(&universe);
            let subsets = active_subsets(&universe, &mut rng, percent);
            for strategy in [
                MisStrategy::SequentialGreedy,
                MisStrategy::Luby { seed: rng.gen() },
            ] {
                for active in &subsets {
                    let reference =
                        maximal_independent_set(&flat, active, strategy, &mut RoundStats::new());
                    let ours = sharded_mis(&universe, active, strategy, &mut RoundStats::new());
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

    /// Spliced conflict degrees, and the adjacency induced over every
    /// instance, match a fresh flat build on randomized hot-shard churn
    /// traces. Run order is not checked here: the
    /// run arrays are private, so the `conflict.rs` unit tests in
    /// `netsched-distrib` compare them with a fresh build.
    #[test]
    fn incremental_run_order_matches_full_resweep_on_hot_shard_churn(seed in any::<u64>()) {
        hot_shard_churn_case(seed);
    }
}

/// The base problem of one churn universe: a line base arrives windowed
/// placements, a tree base multi-run paths.
enum ChurnBase {
    Line { timeslots: usize },
    Tree(TreeProblem),
}

impl ChurnBase {
    /// A demand with one to three instances on random networks. Line
    /// demands may place several overlapping windows on one network, so
    /// same-demand and overlap conflicts coincide.
    fn arrival(&self, networks: usize, rng: &mut StdRng) -> ArrivingDemand {
        let instances = (0..rng.gen_range(1..=3))
            .map(|_| {
                let t = NetworkId::new(rng.gen_range(0..networks));
                match self {
                    ChurnBase::Line { timeslots } => {
                        let len: usize = rng.gen_range(1..8);
                        let start: usize = rng.gen_range(0..timeslots - len);
                        let path = EdgePath::interval(start, start + len - 1);
                        (t, path, Some(start as u32))
                    }
                    ChurnBase::Tree(problem) => {
                        let n = problem.num_vertices();
                        let u = rng.gen_range(0..n);
                        let v = (u + rng.gen_range(1..n)) % n;
                        let path = problem
                            .network(t)
                            .path_edges(VertexId::new(u), VertexId::new(v));
                        (t, path, None)
                    }
                }
            })
            .collect();
        ArrivingDemand {
            profit: rng.gen_range(1.0..8.0),
            height: 1.0,
            instances,
        }
    }
}

/// After every splice of a random churn trace: each maintained degree
/// equals the flat build's; the induced adjacency of a random candidate
/// subset, listed sorted and shuffled, equals the flat neighbors filtered
/// to the subset; and the MIS over it equals the flat MIS under both
/// strategies.
fn churned_conflicts_case(base: ChurnBase, mut universe: DemandInstanceUniverse, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conflict = ShardedConflictGraph::build(&universe);
    let mut delta = UniverseDelta::new();
    for round in 0..4 {
        let networks = universe.num_networks();
        let mut expired: Vec<DemandId> = (0..rng.gen_range(0..4))
            .map(|_| {
                let k = rng.gen_range(0..universe.num_demands());
                universe.demand_ids().nth(k).expect("k < live demands")
            })
            .collect();
        expired.sort_unstable();
        expired.dedup();
        let arrivals: Vec<ArrivingDemand> = (0..rng.gen_range(0..4))
            .map(|_| base.arrival(networks, &mut rng))
            .collect();
        universe.apply_demand_delta(&expired, &arrivals, &mut delta);
        conflict.apply_delta(&universe, &delta);

        let flat = ConflictGraph::build(&universe);
        for d in universe.instance_ids() {
            assert_eq!(
                conflict.degree(d),
                flat.degree(d),
                "round {round}: degree of {d}"
            );
        }
        let percent = rng.gen_range(10..90u32);
        let sorted: Vec<InstanceId> = universe
            .instance_ids()
            .filter(|_| rng.gen_range(0..100u32) < percent)
            .collect();
        let mut shuffled = sorted.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let mut member = vec![false; universe.instance_slots()];
        for &d in &sorted {
            member[d.index()] = true;
        }
        for active in [&sorted, &shuffled] {
            let induced = InducedConflicts::build(&universe, active);
            for (p, &d) in active.iter().enumerate() {
                let mut ours: Vec<InstanceId> = induced
                    .neighbors(p)
                    .iter()
                    .map(|&q| active[q as usize])
                    .collect();
                ours.sort_unstable();
                let expected: Vec<InstanceId> = flat
                    .neighbors(d)
                    .iter()
                    .copied()
                    .filter(|n| member[n.index()])
                    .collect();
                assert_eq!(ours, expected, "round {round}: induced adjacency of {d}");
            }
            for strategy in [
                MisStrategy::SequentialGreedy,
                MisStrategy::Luby { seed: rng.gen() },
            ] {
                let reference =
                    maximal_independent_set(&flat, active, strategy, &mut RoundStats::new());
                let ours = sharded_mis(&universe, active, strategy, &mut RoundStats::new());
                assert_eq!(reference, ours, "round {round}: {strategy:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Degrees, induced adjacency and MIS stay equal to the flat graph's
    /// through random churn on line and tree universes.
    #[test]
    fn degrees_induced_adjacency_and_mis_match_the_flat_graph_under_churn(seed in any::<u64>()) {
        let line = many_networks_line(5, 70, seed ^ 0x5eed);
        let timeslots = line.timeslots as usize;
        let universe = line.build().unwrap().universe();
        churned_conflicts_case(ChurnBase::Line { timeslots }, universe, seed);

        let tree = many_networks_tree(4, 60, seed ^ 0x7ee).build().unwrap();
        let universe = tree.universe();
        churned_conflicts_case(ChurnBase::Tree(tree), universe, seed);
    }
}
