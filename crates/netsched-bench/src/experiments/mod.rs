//! The experiment registry (E1–E13).
//!
//! Each experiment regenerates one quantitative claim of the paper as one or
//! more tables; `experiments list` prints the index.

pub mod decomp;
pub mod line;
pub mod misc;
pub mod tree;

use crate::Table;

/// An experiment: identifier, description and a runner.
pub struct Experiment {
    /// Identifier (`e1` … `e11`).
    pub id: &'static str,
    /// One-line description (which claim of the paper it reproduces).
    pub description: &'static str,
    /// Runs the experiment; `quick` selects a reduced sweep.
    pub run: fn(quick: bool) -> Vec<Table>,
}

/// All experiments in index order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            description: "Lemma 4.1: tree-decomposition depth and pivot size across topologies",
            run: decomp::e1_decomposition_parameters,
        },
        Experiment {
            id: "e2",
            description: "Lemmas 4.2/4.3: layered decompositions (∆, length, interference property)",
            run: decomp::e2_layered_parameters,
        },
        Experiment {
            id: "e3",
            description: "Theorem 5.3: unit-height tree networks — quality, certificates and round complexity",
            run: tree::e3_unit_tree,
        },
        Experiment {
            id: "e4",
            description: "Theorem 6.3 / Lemma 6.2: arbitrary heights on trees — quality and 1/h_min round scaling",
            run: tree::e4_arbitrary_tree,
        },
        Experiment {
            id: "e5",
            description: "Theorem 7.1 vs Panconesi–Sozio: unit-height line networks with windows",
            run: line::e5_line_unit_vs_ps,
        },
        Experiment {
            id: "e6",
            description: "Theorem 7.2 vs Panconesi–Sozio: arbitrary-height line networks with windows",
            run: line::e6_line_arbitrary_vs_ps,
        },
        Experiment {
            id: "e7",
            description: "Lemma 5.1 / Claim 5.2: steps per stage vs the profit spread",
            run: tree::e7_steps_per_stage,
        },
        Experiment {
            id: "e8",
            description: "Appendix A: sequential 3-approximation vs the distributed algorithm",
            run: tree::e8_sequential_vs_distributed,
        },
        Experiment {
            id: "e9",
            description: "Figures 1, 2 and 6: the paper's worked examples",
            run: misc::e9_worked_examples,
        },
        Experiment {
            id: "e10",
            description: "IPPS extension: non-uniform edge capacities (capacitated scenario)",
            run: misc::e10_capacitated,
        },
        Experiment {
            id: "e11",
            description: "Distributed implementation: Luby MIS rounds, message counts, communication graph",
            run: misc::e11_distributed_substrate,
        },
        Experiment {
            id: "e12",
            description: "Ablation: ideal vs balancing vs root-fixing vs Appendix-A layerings in the engine",
            run: tree::e12_layering_ablation,
        },
        Experiment {
            id: "e13",
            description: "Scheduler session reuse: cold vs cached solves across an eps sweep, plus a registry portfolio",
            run: misc::e13_session_reuse,
        },
    ]
}

/// Looks up an experiment by id.
pub fn find(id: &str) -> Option<Experiment> {
    all_experiments().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_thirteen_unique_experiments() {
        let all = all_experiments();
        assert_eq!(all.len(), 13);
        let mut ids: Vec<&str> = all.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 13);
        assert!(find("e3").is_some());
        assert!(find("e13").is_some());
        assert!(find("e42").is_none());
    }

    #[test]
    fn quick_mode_of_every_experiment_produces_tables() {
        // This is the harness's own integration test: every experiment must
        // run in quick mode and produce at least one non-empty table.
        for e in all_experiments() {
            let tables = (e.run)(true);
            assert!(!tables.is_empty(), "{} produced no tables", e.id);
            for t in &tables {
                assert!(t.num_rows() > 0, "{} produced an empty table", e.id);
                assert!(!t.render().is_empty());
            }
        }
    }
}
