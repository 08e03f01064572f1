//! Named scenarios: concrete, motivated instances used by the examples and
//! the experiment harness.
//!
//! The paper's introduction motivates the problem with processors/agents
//! competing for exclusive routes on shared communication networks; these
//! scenarios instantiate that story at a small, inspectable scale and also
//! re-export the worked figures of the paper.

use crate::demand_gen::{HeightDistribution, ProfitDistribution};
use crate::dynamic::ChurnSpec;
use crate::line_gen::LineWorkload;
use crate::multi_net::{many_networks_line, many_networks_tree, skewed_networks_line};
use crate::tree_gen::{TreeTopology, TreeWorkload};
use fxhash::FxHashMap;
use netsched_graph::fixtures;
use netsched_graph::{LineProblem, TreeProblem};

/// A named scenario: either a tree-network or a line-network instance,
/// optionally with a dynamic churn profile (the serving-subsystem
/// scenarios; `None` for the static ones).
#[derive(Debug, Clone)]
pub enum Scenario {
    /// A tree-network scheduling scenario.
    Tree {
        /// Name used in tables and examples.
        name: String,
        /// Description of the story behind the instance.
        description: String,
        /// The generated workload.
        workload: TreeWorkload,
        /// Dynamic churn profile, when the scenario is a serving trace
        /// (see [`crate::dynamic::poisson_arrivals_tree`]).
        churn: Option<ChurnSpec>,
    },
    /// A windowed line-network scheduling scenario.
    Line {
        /// Name used in tables and examples.
        name: String,
        /// Description of the story behind the instance.
        description: String,
        /// The generated workload.
        workload: LineWorkload,
        /// Dynamic churn profile, when the scenario is a serving trace
        /// (see [`crate::dynamic::poisson_arrivals_line`]).
        churn: Option<ChurnSpec>,
    },
}

impl Scenario {
    /// The scenario name.
    pub fn name(&self) -> &str {
        match self {
            Scenario::Tree { name, .. } | Scenario::Line { name, .. } => name,
        }
    }

    /// The scenario description.
    pub fn description(&self) -> &str {
        match self {
            Scenario::Tree { description, .. } | Scenario::Line { description, .. } => description,
        }
    }

    /// The scenario's churn profile, when it is a dynamic serving trace.
    pub fn churn(&self) -> Option<&ChurnSpec> {
        match self {
            Scenario::Tree { churn, .. } | Scenario::Line { churn, .. } => churn.as_ref(),
        }
    }
}

/// The standard set of named scenarios used by examples and experiments.
pub fn named_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::Tree {
            name: "datacenter-spanning-trees".to_string(),
            description: "Pairs of racks exchange bulk data over one of several \
                          spanning trees of the datacenter fabric; each transfer \
                          needs an exclusive lightpath (unit height)."
                .to_string(),
            workload: TreeWorkload {
                vertices: 96,
                networks: 4,
                demands: 120,
                topology: TreeTopology::RandomAttachment,
                access_probability: 0.5,
                access_skew: 0.0,
                profits: ProfitDistribution::Uniform {
                    min: 1.0,
                    max: 64.0,
                },
                heights: HeightDistribution::Unit,
                seed: 2013,
            },
            churn: None,
        },
        Scenario::Tree {
            name: "sensor-aggregation-trees".to_string(),
            description: "Sensor clusters stream readings to analysis nodes over \
                          aggregation trees with limited per-link bandwidth; \
                          flows request fractional bandwidth (arbitrary heights)."
                .to_string(),
            workload: TreeWorkload {
                vertices: 64,
                networks: 3,
                demands: 90,
                topology: TreeTopology::Caterpillar,
                access_probability: 0.7,
                access_skew: 0.0,
                profits: ProfitDistribution::PowerOfTwo { exponents: 6 },
                heights: HeightDistribution::Mixed {
                    wide_fraction: 0.3,
                    min_narrow: 0.1,
                },
                seed: 99,
            },
            churn: None,
        },
        Scenario::Line {
            name: "batch-jobs-with-deadlines".to_string(),
            description: "Batch jobs with release times, deadlines and processing \
                          times compete for a small pool of identical machines; \
                          each machine is a timeline resource (Section 7 with \
                          windows, unit height)."
                .to_string(),
            workload: LineWorkload {
                timeslots: 96,
                resources: 3,
                demands: 80,
                min_length: 1,
                max_length: 24,
                max_slack: 12,
                access_probability: 0.8,
                access_skew: 0.0,
                profits: ProfitDistribution::Uniform {
                    min: 1.0,
                    max: 32.0,
                },
                heights: HeightDistribution::Unit,
                seed: 7,
            },
            churn: None,
        },
        Scenario::Line {
            name: "bandwidth-reservations".to_string(),
            description: "Advance bandwidth reservations on parallel links: each \
                          request needs a fraction of a link's capacity for a \
                          contiguous time window (arbitrary heights)."
                .to_string(),
            workload: LineWorkload {
                timeslots: 72,
                resources: 2,
                demands: 70,
                min_length: 2,
                max_length: 18,
                max_slack: 6,
                access_probability: 0.9,
                access_skew: 0.0,
                profits: ProfitDistribution::Uniform {
                    min: 1.0,
                    max: 16.0,
                },
                heights: HeightDistribution::Mixed {
                    wide_fraction: 0.25,
                    min_narrow: 0.05,
                },
                seed: 31,
            },
            churn: None,
        },
        Scenario::Line {
            name: "many-networks-line".to_string(),
            description: "A fleet of 16 identical machine timelines with jobs \
                          spread evenly across them: one shard per machine, \
                          balanced shard sizes (the sharded conflict engine's \
                          happy path)."
                .to_string(),
            workload: many_networks_line(16, 140, 1601),
            churn: None,
        },
        Scenario::Tree {
            name: "many-networks-tree".to_string(),
            description: "Twelve spanning trees of one shared fabric with \
                          transfers routed over a few trees each: many \
                          medium shards for the sharded sweeps and MIS \
                          epochs."
                .to_string(),
            workload: many_networks_tree(12, 110, 1202),
            churn: None,
        },
        Scenario::Line {
            name: "skewed-shards-line".to_string(),
            description: "Eight machine timelines with power-law popularity: \
                          the first machine owns most reservations, the last \
                          almost none — the skewed shard sizes that stress \
                          the sharded conflict engine."
                .to_string(),
            workload: skewed_networks_line(8, 130, 1.5, 813),
            churn: None,
        },
        Scenario::Line {
            name: "churn-line".to_string(),
            description: "A serving pool of 8 machine timelines under \
                          continuous traffic: jobs arrive in per-epoch \
                          tenant bursts focused on two machines, run for \
                          ~1/churn epochs and expire — the dynamic-service \
                          regime where each epoch dirties only the focused \
                          shards."
                .to_string(),
            workload: LineWorkload {
                timeslots: 128,
                resources: 8,
                demands: 360,
                min_length: 2,
                max_length: 24,
                max_slack: 20,
                access_probability: 0.02,
                access_skew: 0.0,
                profits: ProfitDistribution::Constant(8.0),
                heights: HeightDistribution::Unit,
                seed: 2024,
            },
            churn: Some(ChurnSpec {
                epochs: 40,
                churn: 0.05,
                focus: 1,
                seed: 20240,
            }),
        },
        Scenario::Tree {
            name: "churn-tree".to_string(),
            description: "Eight spanning trees of a shared fabric serving \
                          transfer requests that arrive in bursts against \
                          two trees per epoch and expire after ~1/churn \
                          epochs: the tree-shaped dynamic-service \
                          counterpart of churn-line."
                .to_string(),
            workload: TreeWorkload {
                vertices: 128,
                networks: 8,
                demands: 180,
                topology: TreeTopology::RandomAttachment,
                access_probability: 0.02,
                access_skew: 0.0,
                profits: ProfitDistribution::Uniform {
                    min: 1.0,
                    max: 32.0,
                },
                heights: HeightDistribution::Unit,
                seed: 2025,
            },
            churn: Some(ChurnSpec {
                epochs: 40,
                churn: 0.05,
                focus: 2,
                seed: 20250,
            }),
        },
        Scenario::Line {
            name: "mega-churn-line".to_string(),
            description: "The serving tier at fleet scale: 100k short jobs \
                          live across 256 machine timelines of 4096 slots, \
                          with per-epoch tenant bursts focused on two \
                          machines. Sized so the live set is ~10⁵ demands \
                          while per-shard conflict density stays bounded — \
                          the regime the arena layouts and allocation-free \
                          splice path target."
                .to_string(),
            workload: LineWorkload {
                timeslots: 4096,
                resources: 256,
                demands: 100_000,
                min_length: 2,
                max_length: 6,
                max_slack: 2,
                access_probability: 0.004,
                access_skew: 0.0,
                profits: ProfitDistribution::Uniform { min: 1.0, max: 8.0 },
                heights: HeightDistribution::Unit,
                seed: 2026,
            },
            churn: Some(ChurnSpec {
                epochs: 64,
                churn: 0.0005,
                focus: 2,
                seed: 20260,
            }),
        },
        Scenario::Tree {
            name: "mega-churn-tree".to_string(),
            description: "Fleet-scale transfer serving on trees: 100k \
                          routes across 256 spanning trees of a 1024-vertex \
                          fabric, arriving in two-tree tenant bursts and \
                          expiring after ~1/churn epochs — the tree-shaped \
                          counterpart of mega-churn-line."
                .to_string(),
            workload: TreeWorkload {
                vertices: 1024,
                networks: 256,
                demands: 100_000,
                topology: TreeTopology::RandomAttachment,
                access_probability: 0.005,
                access_skew: 0.0,
                profits: ProfitDistribution::Uniform { min: 1.0, max: 8.0 },
                heights: HeightDistribution::Unit,
                seed: 2027,
            },
            churn: Some(ChurnSpec {
                epochs: 64,
                churn: 0.0005,
                focus: 2,
                seed: 20270,
            }),
        },
    ]
}

/// The named scenarios indexed by name (deterministic Fx-hashed map, so
/// iteration order is reproducible across runs).
pub fn scenario_index() -> FxHashMap<String, Scenario> {
    named_scenarios()
        .into_iter()
        .map(|s| (s.name().to_string(), s))
        .collect()
}

/// Looks up a named scenario (a linear scan of [`named_scenarios`], the
/// same single source [`scenario_index`] is built from, so the two lookup
/// paths cannot drift apart).
pub fn scenario_by_name(name: &str) -> Option<Scenario> {
    named_scenarios().into_iter().find(|s| s.name() == name)
}

/// The worked example of Figure 1 (three jobs of heights 0.5, 0.7, 0.4 on a
/// single resource), re-exported for convenience.
pub fn figure1_problem() -> LineProblem {
    fixtures::figure1_line_problem()
}

/// The worked example of Figure 6 / Section 4 (the 14-vertex tree with the
/// demand ⟨4, 13⟩), re-exported for convenience.
pub fn figure6_problem() -> TreeProblem {
    fixtures::figure6_problem()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_build_valid_problems() {
        for scenario in named_scenarios() {
            // The mega scenarios carry 10⁵ demands; build a same-shaped
            // miniature here so the debug-mode test stays fast (full-size
            // builds are exercised by the perfbench `line-1e5` and
            // `tree-1e5` workloads).
            match &scenario {
                Scenario::Tree { workload, .. } => {
                    let mut workload = workload.clone();
                    workload.demands = workload.demands.min(2000);
                    let p = workload.build().unwrap();
                    p.validate().unwrap();
                    assert_eq!(p.num_demands(), workload.demands);
                }
                Scenario::Line { workload, .. } => {
                    let mut workload = workload.clone();
                    workload.demands = workload.demands.min(2000);
                    let p = workload.build().unwrap();
                    assert_eq!(p.num_demands(), workload.demands);
                }
            }
            assert!(!scenario.name().is_empty());
            assert!(!scenario.description().is_empty());
        }
    }

    #[test]
    fn scenario_names_are_unique() {
        let scenarios = named_scenarios();
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len());
    }

    #[test]
    fn figure_reexports_work() {
        assert_eq!(figure1_problem().num_demands(), 3);
        assert_eq!(figure6_problem().num_networks(), 1);
    }

    #[test]
    fn index_and_lookup_agree() {
        let index = scenario_index();
        assert_eq!(index.len(), named_scenarios().len());
        for scenario in named_scenarios() {
            assert!(index.contains_key(scenario.name()));
            assert_eq!(
                scenario_by_name(scenario.name()).map(|s| s.name().to_string()),
                Some(scenario.name().to_string())
            );
        }
        assert!(scenario_by_name("no-such-scenario").is_none());
    }
}
