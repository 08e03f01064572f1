//! Distributed-computation substrate for `netsched`.
//!
//! The paper's algorithms run in the synchronous message-passing model:
//! processors that share a resource can exchange messages, the cost measure
//! is the number of communication rounds, and the key primitive is a
//! distributed maximal-independent-set computation on the conflict graph of
//! demand instances. This crate provides:
//!
//! * [`simulator`] — a generic synchronous round-based simulator with
//!   message accounting ([`simulator::SyncSimulator`], [`simulator::Agent`]);
//! * [`conflict::ConflictGraph`] — the conflict graph over demand
//!   instances, as one flat CSR;
//! * [`conflict::InducedConflicts`] — the subgraph induced by one MIS
//!   call's candidates, swept from their own runs and demand ids;
//! * [`conflict::ShardedConflictGraph`] — per-instance conflict degrees,
//!   updated under universe splices by re-sweeping only the networks the
//!   splice touched;
//! * [`comm::CommGraph`] — the communication graph over processors;
//! * [`mis`] — Luby's randomized MIS run as a real message-passing protocol
//!   on the simulator, a sequential greedy baseline, and
//!   [`mis::sharded_mis`] — both strategies evaluated on the induced
//!   adjacency, reproducing the flat results exactly;
//! * [`stats::RoundStats`] — round/message accounting used to reproduce the
//!   round-complexity claims of Theorems 5.3, 6.3, 7.1 and 7.2.
//!
//! # The serving path keeps degrees, not edges
//!
//! The paper runs every MIS on an induced subgraph, and the two-phase
//! engine reads nothing else of the graph's edges. So the serving path
//! stores none: each MIS call sweeps the conflicts among its candidates,
//! and the only per-instance conflict state kept across epochs is the
//! degree, which the engine's message counters read. To re-sweep a
//! network it also keeps the network's runs sorted, tagged with the
//! instances' positions in the universe's own per-network index. With
//! `k` candidate runs, `R` runs in a dirty network and `E_c` conflict
//! edges in the whole graph:
//!
//! | operation | flat CSR | serving path |
//! |---|---|---|
//! | build | `O(R log R + E_c)` sweep, sort and CSR assembly | the same sweep, counted into degrees |
//! | memory | `O(E_c)` | `O(|D|)`: one degree per instance, one sorted run array per network |
//! | demand splice | full rebuild | `O(|D|)` degree compaction; dirty networks only: departures swept against the old runs, arrivals against the new; clean networks untouched |
//! | MIS adjacency | read from the CSR | `O(k log k + induced pairs)` sweep per call |
//! | Luby phase | simulator messages | flat array scans |
//!
//! Everything runs on the caller's thread. The paper's parallelism is the
//! simulated rounds and messages [`stats::RoundStats`] counts, not OS
//! threads. Determinism is a hard contract: the degrees and every induced
//! adjacency equal [`conflict::ConflictGraph::build`]'s, and both MIS
//! strategies return the exact flat-path sets (see the `shard_equivalence`
//! suite at the workspace root).
//!
//! # Memory
//!
//! [`ShardedConflictGraph::committed_bytes`](conflict::ShardedConflictGraph::committed_bytes)
//! audits the run arrays, one `u32` degree per instance and the sweep
//! buffers; it grows with the instances, not with the conflict edges, so
//! dense tree networks cost no more per instance than line networks.
//! [`ShardedConflictGraph::apply_delta`](conflict::ShardedConflictGraph::apply_delta)
//! sweeps dirty networks only, and clean-network epochs allocate nothing
//! (pinned by `alloc_regression`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod comm;
pub mod conflict;
pub mod mis;
pub mod simulator;
pub mod stats;

pub use comm::CommGraph;
pub use conflict::{ConflictGraph, InducedConflicts, ShardedConflictGraph};
pub use mis::{
    greedy_mis, is_maximal_independent, maximal_independent_set, sharded_mis, MisStrategy,
};
pub use simulator::{Agent, Outbox, SimOutcome, SyncSimulator, Topology};
pub use stats::RoundStats;
