//! Workload generators, named scenarios and instance serialization for
//! `netsched`.
//!
//! The paper has no public benchmark suite, so the experiment harness
//! generates synthetic instances: random tree topologies of several shapes,
//! windowed line workloads with controllable length/profit spreads, and
//! height distributions for the narrow/wide split. All generators are
//! seeded and therefore reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod demand_gen;
pub mod dynamic;
pub mod fault;
pub mod framing;
pub mod io;
pub mod json;
pub mod line_gen;
pub mod multi_net;
pub mod scenarios;
pub mod tree_gen;

pub use demand_gen::{DemandSpec, HeightDistribution, ProfitDistribution};
pub use dynamic::{
    poisson_arrivals_line, poisson_arrivals_tree, ChurnSpec, EventTrace, TraceEvent,
};
pub use fault::FaultPlan;
pub use framing::{append_frame, crc32, encode_frame, scan_frames, FrameError, FrameScan};
pub use line_gen::{LineWorkload, LineWorkloadBuilder};
pub use multi_net::{many_networks_line, many_networks_tree, skewed_networks_line};
pub use scenarios::{named_scenarios, scenario_by_name, scenario_index, Scenario};
pub use tree_gen::{random_tree_edges, tree_problem, TreeTopology, TreeWorkload};
