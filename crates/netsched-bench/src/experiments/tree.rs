//! E3, E4, E7, E8: tree-network algorithm experiments (Sections 5, 6 and
//! Appendix A).

use crate::measure;
use crate::table::{f2, f3, int, Table};
use netsched_baseline::{best_greedy, exact_optimum};
use netsched_core::{AlgorithmConfig, Scheduler, SequentialTreeSolver, UnitTreeSolver};
use netsched_distrib::MisStrategy;
use netsched_workloads::{HeightDistribution, ProfitDistribution, TreeTopology, TreeWorkload};
use rayon::prelude::*;

fn luby(epsilon: f64, seed: u64) -> AlgorithmConfig {
    AlgorithmConfig {
        epsilon,
        mis: MisStrategy::Luby { seed },
        seed,
    }
}

/// E3 — Theorem 5.3: schedule quality, certificates and round complexity of
/// the unit-height tree-network algorithm.
pub fn e3_unit_tree(quick: bool) -> Vec<Table> {
    // Table 1: quality vs exact / dual bound across instance sizes.
    let sizes: &[(usize, usize, usize)] = if quick {
        &[(12, 2, 10), (32, 3, 40)]
    } else {
        &[(12, 2, 10), (32, 3, 40), (64, 3, 80), (128, 4, 160)]
    };
    let mut quality = Table::new(
        "E3 — unit-height tree networks (Theorem 5.3): quality",
        &[
            "n",
            "r",
            "m",
            "ours profit",
            "seq profit",
            "greedy profit",
            "reference",
            "ours %ref",
            "certified ratio",
            "paper bound",
        ],
    )
    .caption(
        "reference = exact optimum when n ≤ 12, otherwise the dual upper bound; \
         the certified ratio must stay below 7/(1−ε) ≈ 7.78.",
    );

    let rows: Vec<Vec<String>> = sizes
        .par_iter()
        .map(|&(n, r, m)| {
            let workload = TreeWorkload {
                vertices: n,
                networks: r,
                demands: m,
                topology: TreeTopology::RandomAttachment,
                access_probability: 0.6,
                access_skew: 0.0,
                profits: ProfitDistribution::Uniform {
                    min: 1.0,
                    max: 32.0,
                },
                heights: HeightDistribution::Unit,
                seed: 0xE3 + n as u64,
            };
            let problem = workload.build().expect("valid workload");
            // One session per instance: the universe and decomposition are
            // shared by the distributed, sequential and greedy runs.
            let session = Scheduler::for_tree(&problem);
            let universe = session.universe();
            let ours = session.solve_with(&UnitTreeSolver, &luby(0.1, 1));
            ours.verify(universe).expect("feasible");
            let seq = session.solve_with(&SequentialTreeSolver, &luby(0.1, 1));
            let greedy = best_greedy(universe);
            let (reference, ref_label) = if n <= 12 {
                (exact_optimum(universe).profit, "exact")
            } else {
                (ours.diagnostics.optimum_upper_bound, "dual UB")
            };
            vec![
                int(n as u64),
                int(r as u64),
                int(m as u64),
                f2(ours.profit),
                f2(seq.profit),
                f2(greedy.profit),
                format!("{} ({})", f2(reference), ref_label),
                f2(measure::pct(ours.profit, reference)),
                f3(ours.certified_ratio().unwrap_or(1.0)),
                f2(7.0 / 0.9),
            ]
        })
        .collect();
    for row in rows {
        quality.add_row(row);
    }

    // Table 2: round complexity scaling with n and ε
    // (Theorem 5.3: O(Time(MIS) · log n · log(1/ε) · log(pmax/pmin))).
    let mut rounds = Table::new(
        "E3b — round complexity scaling (Theorem 5.3)",
        &[
            "n",
            "ε",
            "epochs",
            "stages/epoch",
            "steps",
            "MIS rounds",
            "total rounds",
            "messages",
        ],
    )
    .caption("Rounds grow with log n (epochs) and log(1/ε) (stages), not with m.");
    let ns: &[usize] = if quick {
        &[32, 64]
    } else {
        &[32, 64, 128, 256]
    };
    for &n in ns {
        for &eps in if quick {
            &[0.2, 0.05][..]
        } else {
            &[0.5, 0.2, 0.1, 0.05][..]
        } {
            let workload = TreeWorkload {
                vertices: n,
                networks: 3,
                demands: n,
                seed: 0xE3B + n as u64,
                profits: ProfitDistribution::Uniform {
                    min: 1.0,
                    max: 16.0,
                },
                ..TreeWorkload::default()
            };
            let problem = workload.build().expect("valid workload");
            let sol = Scheduler::for_tree(&problem).solve_with(&UnitTreeSolver, &luby(eps, 3));
            rounds.add_row(vec![
                int(n as u64),
                f2(eps),
                int(sol.diagnostics.epochs as u64),
                int(sol.diagnostics.stages_per_epoch as u64),
                int(sol.diagnostics.steps),
                int(sol.stats.mis_rounds),
                int(sol.stats.rounds),
                int(sol.stats.messages),
            ]);
        }
    }

    vec![quality, rounds]
}

/// E4 — Theorem 6.3 / Lemma 6.2: arbitrary heights; quality and the
/// `1/h_min` factor in the number of stages.
pub fn e4_arbitrary_tree(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E4 — arbitrary heights on tree networks (Theorem 6.3)",
        &[
            "h_min",
            "profit",
            "reference",
            "%ref",
            "certified ratio",
            "stages/epoch",
            "rounds",
            "paper bound",
        ],
    )
    .caption(
        "Stages per epoch grow like 1/h_min (Lemma 6.2); the certified ratio stays far \
         below the 80+ε worst case.",
    );
    let hmins: &[f64] = if quick {
        &[0.5, 0.1]
    } else {
        &[0.5, 0.25, 0.1, 0.05]
    };
    for &hmin in hmins {
        let workload = TreeWorkload {
            vertices: if quick { 20 } else { 32 },
            networks: 2,
            demands: if quick { 16 } else { 40 },
            heights: HeightDistribution::Uniform {
                min: hmin,
                max: 1.0,
            },
            profits: ProfitDistribution::Uniform {
                min: 1.0,
                max: 16.0,
            },
            seed: 0xE4,
            ..TreeWorkload::default()
        };
        let problem = workload.build().expect("valid workload");
        // Mixed heights: the dispatch table auto-selects Theorem 6.3.
        let session = Scheduler::for_tree(&problem);
        let universe = session.universe();
        let sol = session.solve(&luby(0.1, 4));
        sol.verify(universe).expect("feasible");
        let (reference, label) = if universe.num_instances() <= 24 {
            (exact_optimum(universe).profit, "exact")
        } else {
            (sol.diagnostics.optimum_upper_bound, "dual UB")
        };
        table.add_row(vec![
            f2(hmin),
            f2(sol.profit),
            format!("{} ({})", f2(reference), label),
            f2(measure::pct(sol.profit, reference)),
            f3(sol.certified_ratio().unwrap_or(1.0)),
            int(sol.diagnostics.stages_per_epoch as u64),
            int(sol.stats.rounds),
            f2(82.0 / 0.9),
        ]);
    }
    vec![table]
}

/// E7 — Lemma 5.1 / Claim 5.2: the number of steps per stage is bounded by
/// `1 + log2(p_max/p_min)`.
pub fn e7_steps_per_stage(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E7 — steps per stage vs profit spread (Lemma 5.1, Claim 5.2)",
        &[
            "p_max/p_min",
            "max steps/stage",
            "bound 1+log2(spread)",
            "total steps",
            "rounds",
        ],
    )
    .caption(
        "Claim 5.2: within a stage, surviving unsatisfied instances double in profit, so \
              steps per stage ≤ 1 + log2(p_max/p_min).",
    );
    let exponents: &[u32] = if quick { &[0, 4, 8] } else { &[0, 2, 4, 8, 12] };
    for &k in exponents {
        let workload = TreeWorkload {
            vertices: if quick { 24 } else { 48 },
            networks: 2,
            demands: if quick { 30 } else { 72 },
            profits: ProfitDistribution::PowerOfTwo { exponents: k },
            seed: 0xE7 + k as u64,
            ..TreeWorkload::default()
        };
        let problem = workload.build().expect("valid workload");
        let sol = Scheduler::for_tree(&problem).solve_with(&UnitTreeSolver, &luby(0.1, 7));
        let bound = 1.0 + k as f64;
        assert!(
            sol.diagnostics.max_steps_per_stage as f64 <= bound + 1.0,
            "Claim 5.2 bound violated: {} > {}",
            sol.diagnostics.max_steps_per_stage,
            bound
        );
        table.add_row(vec![
            f2((2.0f64).powi(k as i32)),
            int(sol.diagnostics.max_steps_per_stage),
            f2(bound),
            int(sol.diagnostics.steps),
            int(sol.stats.rounds),
        ]);
    }
    vec![table]
}

/// E8 — Appendix A: the sequential 3-approximation vs the distributed
/// (7 + ε)-approximation on the same instances.
pub fn e8_sequential_vs_distributed(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E8 — sequential (Appendix A) vs distributed (Theorem 5.3)",
        &[
            "seed",
            "exact",
            "seq profit",
            "seq ratio",
            "seq rounds",
            "dist profit",
            "dist ratio",
            "dist rounds",
        ],
    )
    .caption(
        "The sequential algorithm has the better guarantee (3 vs 7+ε) but its round \
         complexity equals the number of raised instances; the distributed one needs only \
         polylogarithmically many rounds.",
    );
    let seeds: &[u64] = if quick { &[0, 1] } else { &[0, 1, 2, 3, 4] };
    let rows: Vec<Vec<String>> = seeds
        .par_iter()
        .map(|&seed| {
            let workload = TreeWorkload {
                vertices: 14,
                networks: 2,
                demands: 11,
                seed,
                ..TreeWorkload::default()
            };
            let problem = workload.build().expect("valid workload");
            let session = Scheduler::for_tree(&problem);
            let exact = exact_optimum(session.universe());
            let seq = session.solve_with(&SequentialTreeSolver, &luby(0.1, seed));
            let dist = session.solve_with(&UnitTreeSolver, &luby(0.1, seed));
            vec![
                int(seed),
                f2(exact.profit),
                f2(seq.profit),
                f3(measure::ratio(exact.profit, &seq)),
                int(seq.stats.rounds),
                f2(dist.profit),
                f3(measure::ratio(exact.profit, &dist)),
                int(dist.stats.rounds),
            ]
        })
        .collect();
    for row in rows {
        table.add_row(row);
    }
    vec![table]
}

/// E12 — ablation: which layered decomposition feeds the engine.
///
/// The layered decomposition fixes `∆`, which bounds the engine's
/// certified ratio by `(∆ + 1)/λ` (Lemma 3.1; the `netsched-decomp` crate
/// docs list each layering's `∆`). This experiment runs the same
/// unit-rule engine with the ideal, balancing and root-fixing layerings
/// (Lemma 4.2 applied to each tree decomposition) and the Appendix A
/// wings-only layering, and reports the resulting ∆, number of epochs,
/// certificates and rounds.
pub fn e12_layering_ablation(quick: bool) -> Vec<Table> {
    use netsched_core::{run_two_phase, RaiseRule};
    use netsched_decomp::{InstanceLayering, TreeDecompositionKind};

    let mut table = Table::new(
        "E12 — ablation: layered-decomposition choice (unit rule)",
        &[
            "layering",
            "∆",
            "epochs",
            "profit",
            "certified ratio",
            "worst-case bound",
            "rounds",
        ],
    )
    .caption(
        "The ideal layering keeps both ∆ (approximation) and the number of epochs (rounds) \
         small; root-fixing minimizes ∆ but needs up to n epochs; balancing keeps epochs small \
         but lets ∆ grow with the pivot size.",
    );
    let workload = TreeWorkload {
        vertices: if quick { 48 } else { 96 },
        networks: 3,
        demands: if quick { 64 } else { 128 },
        topology: TreeTopology::Caterpillar,
        seed: 0xE12,
        ..TreeWorkload::default()
    };
    let problem = workload.build().expect("valid workload");
    let universe = problem.universe();
    let cfg = AlgorithmConfig::deterministic(0.1);

    let mut run = |label: &str, layering: InstanceLayering| {
        let sol = run_two_phase(&universe, &layering, RaiseRule::Unit, &cfg);
        sol.verify(&universe).expect("feasible");
        table.add_row(vec![
            label.to_string(),
            int(layering.max_critical() as u64),
            int(layering.num_groups() as u64),
            f2(sol.profit),
            f3(sol.certified_ratio().unwrap_or(1.0)),
            f2((layering.max_critical() as f64 + 1.0) / (1.0 - 0.1)),
            int(sol.stats.rounds),
        ]);
    };
    run(
        "ideal (Thm 5.3)",
        InstanceLayering::for_tree_problem(&problem, &universe, TreeDecompositionKind::Ideal),
    );
    run(
        "balancing (Sec 4.2)",
        InstanceLayering::for_tree_problem(&problem, &universe, TreeDecompositionKind::Balancing),
    );
    run(
        "root-fixing (Sec 4.2)",
        InstanceLayering::for_tree_problem(&problem, &universe, TreeDecompositionKind::RootFixing),
    );
    run(
        "Appendix A wings-only",
        InstanceLayering::appendix_a(&problem, &universe),
    );
    vec![table]
}
