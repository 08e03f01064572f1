//! E9, E10, E11 and E13: worked examples, the capacitated extension, the
//! distributed substrate measurements and the Scheduler session-reuse
//! experiment.

use crate::measure;
use crate::table::{f2, f3, int, Table};
use netsched_baseline::exact_optimum;
use netsched_core::{AlgorithmConfig, Scheduler, Solver, UnitTreeSolver};
use netsched_distrib::{
    maximal_independent_set, CommGraph, ConflictGraph, MisStrategy, RoundStats,
};
use netsched_graph::{fixtures, DemandId, NetworkId, Processor, ProcessorId, TreeProblem};
use netsched_workloads::{HeightDistribution, ProfitDistribution, TreeTopology, TreeWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper algorithms followed by the baselines — the same chaining the
/// `netsched` facade exposes as `netsched::registry()` (this crate sits
/// below the facade, so it assembles the list itself).
fn full_registry() -> Vec<Box<dyn Solver>> {
    let mut solvers = netsched_core::registry();
    solvers.extend(netsched_baseline::registry());
    solvers
}

fn luby(epsilon: f64, seed: u64) -> AlgorithmConfig {
    AlgorithmConfig {
        epsilon,
        mis: MisStrategy::Luby { seed },
        seed,
    }
}

/// E9 — the paper's worked examples (Figures 1, 2 and 6) as concrete runs
/// of the full solver registry through one `Scheduler` session each.
pub fn e9_worked_examples(_quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E9 — worked examples of the paper (full registry per session)",
        &[
            "instance",
            "exact OPT",
            "solver",
            "profit",
            "certified ratio",
            "feasible",
        ],
    )
    .caption(
        "Figures 1 and 6 of the paper plus the two-tree routing example; every \
         registered solver that supports the shape runs on one shared session.",
    );

    let registry = full_registry();
    let config = luby(0.1, 9);

    let mut run_on = |label: &str, session: &Scheduler<'_>| {
        let exact = exact_optimum(session.universe());
        let portfolio = session.portfolio(&registry, &config);
        for run in &portfolio.runs {
            table.add_row(vec![
                label.into(),
                f2(exact.profit),
                run.name.into(),
                f2(run.solution.profit),
                run.solution.certified_ratio().map_or("-".into(), f3),
                if run.verified {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
    };

    let figure1 = fixtures::figure1_line_problem();
    run_on("Figure 1 (line, heights)", &Scheduler::for_line(&figure1));
    let figure6 = fixtures::figure6_problem();
    run_on("Figure 6 (tree, unit)", &Scheduler::for_tree(&figure6));
    let two_tree = fixtures::two_tree_problem();
    run_on("Two spanning trees", &Scheduler::for_tree(&two_tree));

    vec![table]
}

/// E10 — the capacitated ("non-uniform bandwidths") extension: random edge
/// capacities in {0.5, 1, 2}.
pub fn e10_capacitated(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E10 — non-uniform edge capacities (IPPS capacitated extension)",
        &[
            "n",
            "m",
            "capacity set",
            "profit",
            "reference",
            "%ref",
            "certified ratio",
            "max edge load/capacity",
        ],
    )
    .caption(
        "Feasibility and certificates under per-edge capacities; loads never exceed capacities.",
    );
    let sizes: &[(usize, usize)] = if quick {
        &[(12, 10)]
    } else {
        &[(12, 10), (24, 24), (48, 48)]
    };
    for &(n, m) in sizes {
        for (label, caps) in [
            ("uniform 1.0", vec![1.0]),
            ("{0.5, 1, 2}", vec![0.5, 1.0, 2.0]),
        ] {
            let workload = TreeWorkload {
                vertices: n,
                networks: 2,
                demands: m,
                topology: TreeTopology::RandomAttachment,
                heights: HeightDistribution::Uniform { min: 0.1, max: 1.0 },
                profits: ProfitDistribution::Uniform {
                    min: 1.0,
                    max: 16.0,
                },
                seed: 0xE10 + n as u64,
                ..TreeWorkload::default()
            };
            let mut problem = workload.build().expect("valid workload");
            let mut rng = StdRng::seed_from_u64(0xCAFE + n as u64);
            for t in 0..problem.num_networks() {
                let edges = problem.capacities(NetworkId::new(t)).len();
                for e in 0..edges {
                    let c = caps[rng.gen_range(0..caps.len())];
                    problem.set_capacity(NetworkId::new(t), e, c).unwrap();
                }
            }
            let session = Scheduler::for_tree(&problem);
            let universe = session.universe();
            let sol = session.solve(&luby(0.1, 10));
            sol.verify(universe).expect("feasible under capacities");
            let reference = if universe.num_instances() <= 20 {
                exact_optimum(universe).profit
            } else {
                sol.diagnostics.optimum_upper_bound
            };
            // Max relative edge load.
            let mut max_rel: f64 = 0.0;
            for t in 0..universe.num_networks() {
                let network = NetworkId::new(t);
                let loads = universe.edge_loads(network, &sol.selected);
                for (e, &load) in loads.iter().enumerate() {
                    let cap = universe.capacity(netsched_graph::GlobalEdge::new(
                        network,
                        netsched_graph::EdgeId::new(e),
                    ));
                    max_rel = max_rel.max(load / cap);
                }
            }
            table.add_row(vec![
                int(n as u64),
                int(m as u64),
                label.into(),
                f2(sol.profit),
                f2(reference),
                f2(crate::measure::pct(sol.profit, reference)),
                f3(sol.certified_ratio().unwrap_or(1.0)),
                f3(max_rel),
            ]);
        }
    }
    vec![table]
}

/// E11 — the distributed substrate: Luby MIS round/message scaling on the
/// conflict graph and communication-graph diameters.
pub fn e11_distributed_substrate(quick: bool) -> Vec<Table> {
    let mut mis_table = Table::new(
        "E11 — Luby MIS on the conflict graph",
        &[
            "N (instances)",
            "conflict edges",
            "max degree",
            "MIS size",
            "MIS rounds",
            "messages",
            "3·log2 N",
        ],
    )
    .caption(
        "Luby's algorithm needs O(log N) phases of 3 rounds each, independent of the diameter.",
    );
    let sizes: &[usize] = if quick {
        &[50, 200]
    } else {
        &[50, 200, 800, 2000]
    };
    for &m in sizes {
        let workload = TreeWorkload {
            vertices: (m / 2).max(8),
            networks: 2,
            demands: m / 2,
            seed: 0xE11 + m as u64,
            ..TreeWorkload::default()
        };
        let problem = workload.build().expect("valid workload");
        let universe = problem.universe();
        let graph = ConflictGraph::build(&universe);
        let active: Vec<_> = universe.instance_ids().collect();
        let mut stats = RoundStats::new();
        let mis =
            maximal_independent_set(&graph, &active, MisStrategy::Luby { seed: 11 }, &mut stats);
        mis_table.add_row(vec![
            int(graph.num_vertices() as u64),
            int(graph.num_edges() as u64),
            int(graph.max_degree() as u64),
            int(mis.len() as u64),
            int(stats.mis_rounds),
            int(stats.messages),
            f2(3.0 * (graph.num_vertices().max(2) as f64).log2()),
        ]);
    }

    // Communication graph diameters: the chain-of-resources construction
    // shows the diameter can be m − 1, which is why flooding-based
    // algorithms cannot be polylogarithmic.
    let mut comm_table = Table::new(
        "E11b — communication-graph diameter",
        &[
            "construction",
            "processors",
            "resources",
            "edges",
            "diameter",
        ],
    )
    .caption("Two processors communicate iff they share a resource (Section 1).");
    let m = if quick { 64 } else { 256 };
    // Chain: processor i accesses {i, i+1}.
    let chain: Vec<Processor> = (0..m)
        .map(|i| {
            Processor::new(
                ProcessorId::new(i),
                DemandId::new(i),
                vec![NetworkId::new(i), NetworkId::new(i + 1)],
            )
        })
        .collect();
    let chain_graph = CommGraph::build(&chain, m + 1);
    comm_table.add_row(vec![
        "resource chain".into(),
        int(m as u64),
        int((m + 1) as u64),
        int(chain_graph.num_edges() as u64),
        chain_graph.diameter().map_or("∞".into(), |d| int(d as u64)),
    ]);
    // Shared pool: everyone accesses resource 0.
    let pool: Vec<Processor> = (0..m)
        .map(|i| {
            Processor::new(
                ProcessorId::new(i),
                DemandId::new(i),
                vec![NetworkId::new(0)],
            )
        })
        .collect();
    let pool_graph = CommGraph::build(&pool, 1);
    comm_table.add_row(vec![
        "single shared resource".into(),
        int(m as u64),
        "1".into(),
        int(pool_graph.num_edges() as u64),
        pool_graph.diameter().map_or("∞".into(), |d| int(d as u64)),
    ]);
    // A realistic scenario communication graph.
    let workload = TreeWorkload {
        vertices: 48,
        networks: 4,
        demands: if quick { 60 } else { 120 },
        access_probability: 0.4,
        seed: 0xE11B,
        ..TreeWorkload::default()
    };
    let problem: TreeProblem = workload.build().expect("valid workload");
    let processors = problem.processors();
    let graph = CommGraph::build(&processors, problem.num_networks());
    comm_table.add_row(vec![
        "random access sets (p=0.4, r=4)".into(),
        int(processors.len() as u64),
        int(problem.num_networks() as u64),
        int(graph.num_edges() as u64),
        graph.diameter().map_or("∞".into(), |d| int(d as u64)),
    ]);

    // Message-size accounting: the largest message carries at most ∆ + 1
    // demand records (Section 5, "the message size is bounded by M_max").
    let mut msg_table = Table::new(
        "E11c — message sizes during a full run (Theorem 5.3)",
        &[
            "n",
            "m",
            "rounds",
            "messages",
            "max records per message",
            "∆ + 1",
        ],
    )
    .caption("Each message carries O(1) demand records, matching the paper's O(M_max) bound.");
    for &(n, m) in if quick {
        &[(24usize, 30usize)][..]
    } else {
        &[(24, 30), (64, 80)][..]
    } {
        let workload = TreeWorkload {
            vertices: n,
            networks: 2,
            demands: m,
            seed: 0xE11C,
            ..TreeWorkload::default()
        };
        let problem = workload.build().expect("valid workload");
        let sol = Scheduler::for_tree(&problem).solve_with(&UnitTreeSolver, &luby(0.1, 11));
        msg_table.add_row(vec![
            int(n as u64),
            int(m as u64),
            int(sol.stats.rounds),
            int(sol.stats.messages),
            int(sol.stats.max_message_records),
            int(sol.diagnostics.delta as u64 + 1),
        ]);
    }

    vec![mis_table, comm_table, msg_table]
}

/// E13 — the Scheduler session: cold solve (universe + decomposition built)
/// vs cached solves across an ε sweep, and the total cost of the old
/// one-call-one-rebuild pattern vs one session.
pub fn e13_session_reuse(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E13 — Scheduler session reuse across an ε sweep",
        &[
            "n",
            "m",
            "sweep size",
            "per-call rebuild (ms)",
            "one session (ms)",
            "speedup",
            "universe builds",
            "decomp builds",
        ],
    )
    .caption(
        "The sweep solves the same instance at several accuracies; the session builds the \
         universe and layered decomposition once, the old free-function path rebuilt them \
         on every call.",
    );
    let sizes: &[(usize, usize)] = if quick {
        &[(48, 64)]
    } else {
        &[(48, 64), (96, 128), (192, 256)]
    };
    let epsilons: &[f64] = if quick {
        &[0.5, 0.2, 0.1]
    } else {
        &[0.5, 0.3, 0.2, 0.1, 0.05]
    };
    for &(n, m) in sizes {
        let workload = TreeWorkload {
            vertices: n,
            networks: 3,
            demands: m,
            seed: 0xE13 + n as u64,
            ..TreeWorkload::default()
        };
        let problem = workload.build().expect("valid workload");

        let (naive_profits, naive_ms) = measure::timed(|| {
            epsilons
                .iter()
                .map(|&eps| {
                    // The historical pattern: every call opens its own
                    // session, so universe + decomposition are rebuilt.
                    netsched_core::solve_unit_tree(&problem, &luby(eps, 13)).profit
                })
                .collect::<Vec<f64>>()
        });

        let session = Scheduler::for_tree(&problem);
        let (session_profits, session_ms) = measure::timed(|| {
            epsilons
                .iter()
                .map(|&eps| session.solve_with(&UnitTreeSolver, &luby(eps, 13)).profit)
                .collect::<Vec<f64>>()
        });
        assert_eq!(
            naive_profits, session_profits,
            "session must not change results"
        );
        let counts = session.build_counts();
        assert_eq!(counts.universe, 1);
        assert_eq!(counts.layering, 1);

        table.add_row(vec![
            int(n as u64),
            int(m as u64),
            int(epsilons.len() as u64),
            f2(naive_ms),
            f2(session_ms),
            f2(naive_ms / session_ms.max(1e-9)),
            int(counts.universe as u64),
            int(counts.layering as u64),
        ]);
    }

    // A second table: the portfolio over the full registry on one session.
    let mut portfolio_table = Table::new(
        "E13b — portfolio over the full registry on one session",
        &[
            "instance",
            "solvers run",
            "best solver",
            "best profit",
            "universe builds",
        ],
    )
    .caption("All supporting solvers share one set of caches; the best verified run wins.");
    let workload = TreeWorkload {
        vertices: 14,
        networks: 2,
        demands: 10,
        seed: 0xE13B,
        ..TreeWorkload::default()
    };
    let problem = workload.build().expect("valid workload");
    let session = Scheduler::for_tree(&problem);
    let registry = full_registry();
    let portfolio = session.portfolio(&registry, &luby(0.1, 13));
    let best = portfolio.best().expect("verified best run");
    portfolio_table.add_row(vec![
        "tree n=14 m=10".into(),
        int(portfolio.runs.len() as u64),
        best.name.into(),
        f2(best.solution.profit),
        int(session.build_counts().universe as u64),
    ]);

    vec![table, portfolio_table]
}
