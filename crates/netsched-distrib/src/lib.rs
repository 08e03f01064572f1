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
//! * [`conflict::ConflictGraph`] — the conflict graph over demand instances;
//! * [`conflict::ShardedConflictGraph`] — the same graph sharded by
//!   network: one local CSR per shard built by a per-shard interval
//!   sweep, plus a compact cross-shard adjacency holding the same-demand
//!   cliques that span networks (the only edges crossing shard
//!   boundaries);
//! * [`comm::CommGraph`] — the communication graph over processors;
//! * [`mis`] — Luby's randomized MIS run as a real message-passing protocol
//!   on the simulator, a sequential greedy baseline, and
//!   [`mis::sharded_mis`] — both strategies evaluated directly on the
//!   sharded graph, reproducing the flat results exactly;
//! * [`stats::RoundStats`] — round/message accounting used to reproduce the
//!   round-complexity claims of Theorems 5.3, 6.3, 7.1 and 7.2.
//!
//! # Sharded architecture
//!
//! The conflict structure is a union of per-network interval graphs joined
//! only by same-demand cliques, so everything overlap-driven decomposes by
//! [`NetworkId`](netsched_graph::NetworkId). The serving path keeps the
//! graph sharded so that a universe splice touches only what changed.
//! With `R` interval runs, `E_c` conflict edges (`E_x` of them
//! cross-shard):
//!
//! | operation | flat (pre-shard) | sharded |
//! |---|---|---|
//! | interval sweep + CSR assembly | `O(R log R + E_c)` | the same, one shard at a time |
//! | cross-shard clique split | — | `O(E_x)` |
//! | merge back to flat CSR | — | `O(E_c log E_c)`, byte-identical |
//! | greedy MIS | `O(E_c)` sweep | the same sweep over local + cross rows |
//! | Luby phase | simulator messages | flat array scans |
//! | demand splice | `O(R log R + E_c)` rebuild | dirty shards only, clean shards untouched |
//! | cross-shard rows | rebuilt wholesale | stable-id group arena, spliced locally |
//!
//! Everything runs on the caller's thread. The paper's parallelism is the
//! simulated rounds and messages [`stats::RoundStats`] counts, not OS
//! threads. Determinism is a hard contract: the merged CSR is
//! byte-identical to [`conflict::ConflictGraph::build`] and both MIS
//! strategies return the exact flat-path sets (see the
//! `shard_equivalence` suite at the workspace root).
//!
//! # Scale & memory layout
//!
//! Per-shard CSRs (offset/neighbor arrays over local `u32` ids) and the
//! cross-shard group arena are the dominant conflict-side structures;
//! [`ShardedConflictGraph::committed_bytes`](conflict::ShardedConflictGraph::committed_bytes)
//! audits them. At the 10⁵-live-demand point the line scenario commits
//! **28.5 MiB ≈ 299 bytes/demand** of conflict state, while the tree
//! scenario's denser per-shard interval overlap commits 741 MiB
//! (≈ 8.2 KiB/demand) — the current scaling cliff (see `ROADMAP.md`).
//! [`ShardedConflictGraph::apply_delta`](conflict::ShardedConflictGraph::apply_delta)
//! re-sweeps dirty shards only and splices cross-shard rows through
//! stable group ids, so clean-shard epochs neither allocate (pinned by
//! `alloc_regression`) nor re-assemble the cross CSR (pinned by an
//! assembly-counter test on
//! [`cross_assembly_count`](conflict::ShardedConflictGraph::cross_assembly_count)).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod comm;
pub mod conflict;
pub mod mis;
pub mod simulator;
pub mod stats;

pub use comm::CommGraph;
pub use conflict::{ConflictGraph, ShardConflict, ShardedConflictGraph};
pub use mis::{
    greedy_mis, is_maximal_independent, maximal_independent_set, sharded_greedy_mis, sharded_mis,
    MisScratch, MisStrategy,
};
pub use simulator::{Agent, Outbox, SimOutcome, SyncSimulator, Topology};
pub use stats::RoundStats;
