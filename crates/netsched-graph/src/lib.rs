//! Network substrate for `netsched`.
//!
//! This crate provides the data model shared by every other crate in the
//! workspace:
//!
//! * identifier newtypes ([`VertexId`], [`EdgeId`], [`NetworkId`],
//!   [`DemandId`], [`InstanceId`], [`ProcessorId`]),
//! * [`TreeNetwork`] — a connected tree (in the paper, a spanning tree of the
//!   global vertex set `V`) with unique-path, LCA and heavy-light
//!   decomposition queries,
//! * [`LineNetwork`] / [`LineProblem`] — the timeline view of line networks
//!   with release-time/deadline windows (Section 7 of the paper),
//! * [`Demand`], [`Processor`], [`TreeProblem`] — the throughput-maximization
//!   problem of Section 2,
//! * [`DemandInstanceUniverse`] — the flattened set of *demand instances*
//!   (demand × accessible network × placement) that all algorithms operate
//!   on, together with conflict/overlap predicates and per-edge load
//!   accounting, and [`LoadTracker`] for incremental greedy selection,
//! * [`ShardedUniverse`] — the universe partitioned by [`NetworkId`]: one
//!   shard per network with a global↔local id table and pre-sorted
//!   per-shard run arrays, the unit of incremental splicing for the
//!   sharded conflict engine in `netsched-distrib` and the dirty-network
//!   repair in `netsched-core`,
//! * [`CapacityIndex`] — per-network sparse tables answering
//!   range-minimum capacity queries in `O(1)`, which keep the capacitated
//!   `can_add`/eligibility paths at the uniform path's `O(runs log E)`
//!   instead of falling back to per-edge loops.
//!
//! # Implicit interval paths
//!
//! Paths are never materialized edge-by-edge. An [`EdgePath`] is a short
//! sorted list of interval *runs* ([`EdgeRun`], `[start, end]` inclusive):
//! line/windowed instances are a single inline interval (no heap
//! allocation), and tree paths are at most `2⌈log₂ n⌉` runs because
//! [`TreeNetwork`] canonicalizes its edge ids to heavy-light order
//! ([`HldIndex`]) at construction. Congestion accounting rides on the same
//! structure: loads accumulate `+h` / `−h` at run endpoints and resolve
//! with one prefix-sum pass (a difference array).
//!
//! With `n` vertices per network, `|D|` instances, `E` total edges and `S`
//! the sum of all path lengths, the costs are:
//!
//! | operation | materialized (pre-interval) | implicit intervals |
//! |---|---|---|
//! | build one tree path | `O(path len)` walk + sort | `O(log n)` [`HldIndex::path_runs`] |
//! | build one line instance | `O(len)` alloc per start | `O(1)` inline interval |
//! | universe construction | `O(S)` | `O(|D| log n)` |
//! | `len` / bounds | `O(1)` / `O(1)` | `O(runs)` / `O(1)` |
//! | `contains(e)` | `O(log len)` | `O(log runs)` |
//! | overlap test | `O(len_a + len_b)` merge | `O(runs_a + runs_b)` merge |
//! | `edge_loads` / verify | `O(S)` | `O(selected runs + E)` difference array, one pass over the selection |
//! | conflict-graph build | `O(Σ bucket²)` HashMap buckets | sort-based interval sweep, CSR output |
//! | capacitated `can_add` | `O(path len · selection)` | event sweep + `O(1)` range-min per segment |
//! | universe sharding | — | `O(|D| log n)` [`ShardedUniverse::build`] |
//! | demand splice | `O(|D| log n)` rebuild | `O(expired + new)` [`DemandInstanceUniverse::apply_demand_delta`] |
//! | shard run-order upkeep | `O(R log R)` re-sweep per shard | survivor compaction + `O(new log new)` merge [`ShardedUniverse::apply_delta`] |
//!
//! # Scale & memory layout
//!
//! All hot structures are struct-of-arrays over dense `u32` ids: demand
//! and instance attributes live in parallel column vectors, interval
//! paths are inline (single run) or arena-packed, and every shard keeps
//! flat run arrays plus a global↔local id table. Each layer exposes a
//! `committed_bytes()` audit; at the 10⁵-live-demand operating point
//! (full-mode `mega-churn-line`, 99,886 demands / 271,867 instances)
//! the universe commits **49.8 MiB ≈ 523 bytes/demand**. Splices reuse
//! persistent scratch (id remaps, merge buffers), so steady-state
//! clean-shard epochs allocate nothing — pinned by the
//! `alloc_regression` suite at the workspace root, with incremental
//! run-order maintenance proptested against a full re-sweep at 1/2/4
//! workers in `shard_equivalence`.
//!
//! The paper being reproduced is "Distributed Algorithms for Scheduling on
//! Line and Tree Networks" (Chakaravarthy, Roy, Sabharwal; arXiv:1205.1924,
//! IPPS 2013). Section references in doc comments refer to that text.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod capacity;
pub mod demand;
pub mod error;
pub mod fixtures;
pub mod hld;
pub mod ids;
pub mod lca;
pub mod line;
pub mod path;
pub mod problem;
pub mod shard;
pub mod tree;
pub mod universe;

pub use capacity::CapacityIndex;
pub use demand::{Demand, Processor};
pub use error::GraphError;
pub use hld::HldIndex;
pub use ids::{DemandId, EdgeId, GlobalEdge, InstanceId, NetworkId, ProcessorId, VertexId};
pub use lca::LcaIndex;
pub use line::{LineDemand, LineNetwork, LineProblem};
pub use path::{EdgePath, EdgeRun};
pub use problem::TreeProblem;
pub use shard::{ShardRun, ShardSplice, ShardedUniverse, UniverseShard};
pub use tree::TreeNetwork;
pub use universe::{
    ArrivingDemand, DemandInstance, DemandInstanceUniverse, LoadTracker, UniverseDelta,
};

/// Tolerance used throughout the workspace when comparing floating-point
/// profits, heights and dual values.
pub const EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` are equal up to [`EPS`] (absolute).
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// Returns `true` when `a <= b` up to [`EPS`].
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + EPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_helpers_behave() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-3));
        assert!(approx_le(1.0, 1.0));
        assert!(approx_le(1.0 + 1e-12, 1.0));
        assert!(!approx_le(1.1, 1.0));
    }
}
