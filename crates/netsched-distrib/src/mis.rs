//! Maximal independent set computation on the conflict graph.
//!
//! The first phase of the distributed algorithm repeatedly computes a
//! maximal independent set among the still-unsatisfied demand instances
//! (Section 5). The paper plugs in either Luby's randomized algorithm \[14\]
//! (`O(log N)` rounds in expectation) or the deterministic
//! network-decomposition algorithm \[17\]; we implement Luby's algorithm as a
//! genuine message-passing protocol on the [`SyncSimulator`], plus a
//! sequential greedy MIS used as a deterministic baseline and for testing.

use crate::conflict::{ConflictGraph, ShardedConflictGraph};
use crate::simulator::{Agent, Outbox, SyncSimulator, Topology};
use crate::stats::RoundStats;
use fxhash::{FxHashMap, FxHashSet};
use netsched_graph::InstanceId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How to compute maximal independent sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisStrategy {
    /// Luby's randomized distributed algorithm, run on the synchronous
    /// simulator; the seed makes runs reproducible.
    Luby {
        /// Seed for the per-vertex random values.
        seed: u64,
    },
    /// A sequential greedy MIS (lowest identifier first). Counted as a
    /// single communication round; useful as a deterministic stand-in and
    /// for differential testing.
    SequentialGreedy,
}

/// State of a vertex during Luby's algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LubyState {
    Active,
    InMis,
    Out,
}

/// Messages exchanged by the Luby protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LubyMsg {
    /// The random value drawn this phase.
    Value(u64),
    /// The sender joined the MIS.
    Joined,
    /// The sender dropped out (a neighbour joined).
    Dropped,
}

struct LubyAgent {
    state: LubyState,
    rng: SmallRng,
    /// Number of neighbours still active (including those whose status
    /// updates are still in flight).
    active_neighbors: FxHashSet<usize>,
    /// Value drawn in the current phase.
    my_value: u64,
    /// Values received from neighbours this phase.
    best_neighbor: Option<(u64, usize)>,
    my_index: usize,
}

impl Agent for LubyAgent {
    type Msg = LubyMsg;

    fn step(&mut self, round: usize, inbox: &[(usize, LubyMsg)]) -> Outbox<LubyMsg> {
        // Process status updates first (they can arrive in any sub-round).
        for &(from, msg) in inbox {
            match msg {
                LubyMsg::Joined => {
                    self.active_neighbors.remove(&from);
                    if self.state == LubyState::Active {
                        self.state = LubyState::Out;
                    }
                }
                LubyMsg::Dropped => {
                    self.active_neighbors.remove(&from);
                }
                LubyMsg::Value(v) => {
                    if self.active_neighbors.contains(&from) {
                        let cand = (v, from);
                        if self.best_neighbor.is_none_or(|b| cand > b) {
                            self.best_neighbor = Some(cand);
                        }
                    }
                }
            }
        }

        match round % 3 {
            0 => {
                // Sub-round A: draw and broadcast a random value.
                if self.state == LubyState::Active {
                    self.my_value = self.rng.gen();
                    self.best_neighbor = None;
                    Outbox::Broadcast(LubyMsg::Value(self.my_value))
                } else {
                    Outbox::Silent
                }
            }
            1 => {
                // Sub-round B: join the MIS if the local value is the
                // largest among active neighbours (ties broken by index).
                if self.state == LubyState::Active {
                    let me = (self.my_value, self.my_index);
                    let wins = self.best_neighbor.is_none_or(|b| me > b);
                    if wins {
                        self.state = LubyState::InMis;
                        return Outbox::Broadcast(LubyMsg::Joined);
                    }
                }
                Outbox::Silent
            }
            _ => {
                // Sub-round C: vertices knocked out this phase tell their
                // neighbours to stop waiting for them.
                if self.state == LubyState::Out && !self.active_neighbors.is_empty() {
                    let out = Outbox::Broadcast(LubyMsg::Dropped);
                    self.active_neighbors.clear();
                    return out;
                }
                Outbox::Silent
            }
        }
    }

    fn is_done(&self) -> bool {
        self.state != LubyState::Active
    }
}

/// Computes a maximal independent set of the subgraph of the conflict graph
/// induced by `active`, recording its communication cost into `stats`.
///
/// The returned set is sorted by instance id.
pub fn maximal_independent_set(
    graph: &ConflictGraph,
    active: &[InstanceId],
    strategy: MisStrategy,
    stats: &mut RoundStats,
) -> Vec<InstanceId> {
    if active.is_empty() {
        return Vec::new();
    }
    match strategy {
        MisStrategy::SequentialGreedy => {
            let set = greedy_mis(graph, active);
            stats.record_mis(1);
            set
        }
        MisStrategy::Luby { seed } => {
            // Induced subgraph: map instance ids to local indices. The
            // deterministic Fx hasher keeps the whole protocol reproducible
            // independent of the process hash seed.
            let mut local_of =
                FxHashMap::with_capacity_and_hasher(active.len(), Default::default());
            for (i, &d) in active.iter().enumerate() {
                local_of.insert(d, i);
            }
            let adjacency: Vec<Vec<usize>> = active
                .iter()
                .map(|&d| {
                    graph
                        .neighbors(d)
                        .iter()
                        .filter_map(|n| local_of.get(n).copied())
                        .collect()
                })
                .collect();
            let mut agents: Vec<LubyAgent> = (0..active.len())
                .map(|i| LubyAgent {
                    state: LubyState::Active,
                    rng: SmallRng::seed_from_u64(
                        seed ^ ((i as u64).wrapping_mul(0x9E3779B97F4A7C15)),
                    ),
                    active_neighbors: adjacency[i].iter().copied().collect(),
                    my_value: 0,
                    best_neighbor: None,
                    my_index: i,
                })
                .collect();
            let sim = SyncSimulator::new(Topology::new(adjacency));
            // 3 rounds per phase, O(log N) phases in expectation; allow a
            // generous deterministic cap.
            let max_rounds = 3 * (4 * (usize::BITS - active.len().leading_zeros()) as usize + 16);
            let outcome = sim.run(&mut agents, max_rounds);
            assert!(
                outcome.converged,
                "Luby MIS did not converge within {max_rounds} rounds"
            );
            stats.record_mis(outcome.stats.rounds);
            stats.record_messages(outcome.stats.messages, 1);
            let mut set: Vec<InstanceId> = agents
                .iter()
                .enumerate()
                .filter(|(_, a)| a.state == LubyState::InMis)
                .map(|(i, _)| active[i])
                .collect();
            set.sort_unstable();
            debug_assert!(is_maximal_independent(graph, active, &set));
            set
        }
    }
}

/// Sequential greedy MIS over the induced subgraph (lowest id first).
pub fn greedy_mis(graph: &ConflictGraph, active: &[InstanceId]) -> Vec<InstanceId> {
    let mut sorted: Vec<InstanceId> = active.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut chosen: Vec<InstanceId> = Vec::new();
    let mut blocked: FxHashSet<InstanceId> = FxHashSet::default();
    for &d in &sorted {
        if blocked.contains(&d) {
            continue;
        }
        chosen.push(d);
        for &n in graph.neighbors(d) {
            blocked.insert(n);
        }
    }
    chosen
}

// ---------------------------------------------------------------------------
// MIS over a ShardedConflictGraph.
// ---------------------------------------------------------------------------

/// Reusable buffers for [`sharded_mis`]: a global instance → active-position
/// table, allocated once per engine run instead of once per MIS call.
#[derive(Debug, Clone)]
pub struct MisScratch {
    /// Instance id → position in the current active list (`u32::MAX` when
    /// absent). Always reset to the sentinel between calls.
    pos: Vec<u32>,
}

impl MisScratch {
    /// Creates scratch space for a universe of `num_instances` instances.
    pub fn new(num_instances: usize) -> Self {
        Self {
            pos: vec![u32::MAX; num_instances],
        }
    }

    /// Records each instance's position in `active`.
    fn index(&mut self, active: &[InstanceId]) {
        for (i, &d) in active.iter().enumerate() {
            self.pos[d.index()] = i as u32;
        }
    }

    /// Restores the sentinel for every instance of `active`.
    fn clear(&mut self, active: &[InstanceId]) {
        for &d in active {
            self.pos[d.index()] = u32::MAX;
        }
    }
}

/// The active positions of `d`'s neighbors (local CSR neighbors first,
/// then cross-shard ones) that are in the active list `scratch` indexes.
fn active_neighbors<'a>(
    graph: &'a ShardedConflictGraph,
    scratch: &'a MisScratch,
    d: InstanceId,
) -> impl Iterator<Item = u32> + 'a {
    let sharding = graph.sharding();
    let network = sharding.shard_of(d);
    let part = sharding.shard(network);
    graph
        .shard(network)
        .neighbors(sharding.local_of(d))
        .iter()
        .map(|&ln| part.global_of(ln))
        .chain(graph.cross_neighbors(d))
        .map(|g| scratch.pos[g.index()])
        .filter(|&q| q != u32::MAX)
}

/// Computes a maximal independent set of the subgraph induced by `active`
/// on a sharded conflict graph.
///
/// Produces **exactly** the same set as [`maximal_independent_set`] on the
/// merged graph for either strategy: the greedy path is the same
/// lowest-id-first sweep as [`greedy_mis`], and the Luby path executes the
/// same phase protocol as the message-passing simulator with identical
/// per-vertex random streams. Communication accounting follows the same
/// model (3 rounds per Luby phase; broadcasts along conflict edges).
pub fn sharded_mis(
    graph: &ShardedConflictGraph,
    active: &[InstanceId],
    strategy: MisStrategy,
    stats: &mut RoundStats,
    scratch: &mut MisScratch,
) -> Vec<InstanceId> {
    if active.is_empty() {
        return Vec::new();
    }
    match strategy {
        MisStrategy::SequentialGreedy => {
            let set = sharded_greedy_mis(graph, active, scratch);
            stats.record_mis(1);
            set
        }
        MisStrategy::Luby { seed } => sharded_luby(graph, active, seed, stats, scratch),
    }
}

/// The lowest-id-first greedy MIS of [`greedy_mis`] on a sharded conflict
/// graph: one sweep over the sorted candidates, each chosen vertex
/// blocking its local and cross-shard neighbors.
pub fn sharded_greedy_mis(
    graph: &ShardedConflictGraph,
    active: &[InstanceId],
    scratch: &mut MisScratch,
) -> Vec<InstanceId> {
    let mut sorted: Vec<InstanceId> = active.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    scratch.index(&sorted);
    let mut blocked = vec![false; sorted.len()];
    let mut chosen = Vec::new();
    for (p, &d) in sorted.iter().enumerate() {
        if blocked[p] {
            continue;
        }
        chosen.push(d);
        for q in active_neighbors(graph, scratch, d) {
            blocked[q as usize] = true;
        }
    }
    scratch.clear(&sorted);
    chosen
}

/// Luby's algorithm, phase-synchronous over flat arrays instead of the
/// message-passing simulator. Per-vertex random streams, tie-breaking and
/// knockout timing replicate the [`LubyAgent`] protocol exactly, so the
/// chosen set is identical to the simulator's for every seed.
fn sharded_luby(
    graph: &ShardedConflictGraph,
    active: &[InstanceId],
    seed: u64,
    stats: &mut RoundStats,
    scratch: &mut MisScratch,
) -> Vec<InstanceId> {
    const ACTIVE: u8 = 0;
    const IN_MIS: u8 = 1;
    const OUT: u8 = 2;

    let n = active.len();
    scratch.index(active);
    // Induced adjacency in active-position space.
    let adj: Vec<Vec<u32>> = active
        .iter()
        .map(|&d| active_neighbors(graph, scratch, d).collect())
        .collect();
    scratch.clear(active);
    let deg: Vec<u32> = adj.iter().map(|a| a.len() as u32).collect();

    let mut state = vec![ACTIVE; n];
    let mut values = vec![0u64; n];
    let mut rngs: Vec<SmallRng> = (0..n)
        .map(|i| SmallRng::seed_from_u64(seed ^ ((i as u64).wrapping_mul(0x9E3779B97F4A7C15))))
        .collect();
    // Remaining active-neighbor counts, mirroring the simulator's
    // `active_neighbors` sets for the Dropped-broadcast condition.
    let mut anbrs: Vec<i64> = deg.iter().map(|&d| d as i64).collect();
    let mut pending_drops: Vec<u32> = Vec::new();
    let mut active_list: Vec<u32> = (0..n as u32).collect();
    let mut joined: Vec<u32> = Vec::new();

    // Same phase budget as the simulator's round cap (3 rounds per phase).
    let max_phases = 4 * (usize::BITS - n.leading_zeros()) as usize + 16;
    let mut remaining = n;
    let mut phases = 0usize;
    let mut messages = 0u64;

    while remaining > 0 {
        assert!(
            phases < max_phases,
            "Luby MIS did not converge within {max_phases} phases"
        );
        // Dropped notifications from the previous phase arrive first.
        for &p in &pending_drops {
            for &q in &adj[p as usize] {
                anbrs[q as usize] -= 1;
            }
        }
        pending_drops.clear();

        // Sub-round A: every active vertex draws and broadcasts a value.
        active_list.retain(|&p| state[p as usize] == ACTIVE);
        for &p in &active_list {
            values[p as usize] = rngs[p as usize].gen();
            messages += deg[p as usize] as u64;
        }

        // Sub-round B: join when the local (value, index) beats every
        // active neighbor. All decisions read the phase-start states, so
        // the joiners are collected before any is applied.
        joined.clear();
        joined.extend(active_list.iter().copied().filter(|&p| {
            let me = (values[p as usize], p as usize);
            adj[p as usize]
                .iter()
                .all(|&q| state[q as usize] != ACTIVE || me > (values[q as usize], q as usize))
        }));
        for &p in &joined {
            state[p as usize] = IN_MIS;
            remaining -= 1;
            messages += deg[p as usize] as u64;
            for &q in &adj[p as usize] {
                anbrs[q as usize] -= 1;
            }
        }

        // Sub-round C: active vertices adjacent to a joiner drop out and
        // (if they still have undecided neighbors) announce it.
        for &p in &active_list {
            if state[p as usize] == ACTIVE
                && adj[p as usize].iter().any(|&q| state[q as usize] == IN_MIS)
            {
                state[p as usize] = OUT;
                remaining -= 1;
                if anbrs[p as usize] > 0 {
                    messages += deg[p as usize] as u64;
                    pending_drops.push(p);
                }
            }
        }
        phases += 1;
    }

    stats.record_mis(3 * phases as u64 + 1);
    stats.record_messages(messages, 1);

    let mut set: Vec<InstanceId> = (0..n)
        .filter(|&i| state[i] == IN_MIS)
        .map(|i| active[i])
        .collect();
    set.sort_unstable();
    set
}

/// Checks that `set ⊆ active` is an independent set that is maximal within
/// the subgraph induced by `active`.
pub fn is_maximal_independent(
    graph: &ConflictGraph,
    active: &[InstanceId],
    set: &[InstanceId],
) -> bool {
    let set_lookup: FxHashSet<InstanceId> = set.iter().copied().collect();
    if !graph.is_independent(set) {
        return false;
    }
    for &d in set {
        if !active.contains(&d) {
            return false;
        }
    }
    // Maximality: every active vertex not in the set has a neighbour in it.
    for &d in active {
        if set_lookup.contains(&d) {
            continue;
        }
        let dominated = graph.neighbors(d).iter().any(|n| set_lookup.contains(n));
        if !dominated {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsched_graph::fixtures::two_tree_problem;
    use netsched_graph::{DemandInstanceUniverse, NetworkId, TreeProblem, VertexId};
    use rand::rngs::StdRng;

    fn random_universe(seed: u64, n: usize, r: usize, m: usize) -> DemandInstanceUniverse {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = TreeProblem::new(n);
        let mut nets = Vec::new();
        for _ in 0..r {
            let edges = (1..n)
                .map(|i| (VertexId::new(rng.gen_range(0..i)), VertexId::new(i)))
                .collect();
            nets.push(p.add_network(edges).unwrap());
        }
        for _ in 0..m {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            while v == u {
                v = rng.gen_range(0..n);
            }
            let access: Vec<NetworkId> =
                nets.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
            let access = if access.is_empty() {
                vec![nets[0]]
            } else {
                access
            };
            p.add_unit_demand(VertexId::new(u), VertexId::new(v), 1.0, access)
                .unwrap();
        }
        p.universe()
    }

    #[test]
    fn luby_produces_maximal_independent_sets() {
        for seed in 0..4u64 {
            let u = random_universe(seed, 30, 3, 40);
            let g = ConflictGraph::build(&u);
            let active: Vec<InstanceId> = u.instance_ids().collect();
            let mut stats = RoundStats::new();
            let set = maximal_independent_set(
                &g,
                &active,
                MisStrategy::Luby { seed: 42 + seed },
                &mut stats,
            );
            assert!(is_maximal_independent(&g, &active, &set), "seed {seed}");
            assert!(stats.rounds > 0);
            assert!(stats.mis_invocations == 1);
        }
    }

    #[test]
    fn luby_on_induced_subgraph() {
        let u = random_universe(9, 25, 2, 30);
        let g = ConflictGraph::build(&u);
        // Restrict to every third instance.
        let active: Vec<InstanceId> = u.instance_ids().filter(|d| d.index() % 3 == 0).collect();
        let mut stats = RoundStats::new();
        let set = maximal_independent_set(&g, &active, MisStrategy::Luby { seed: 7 }, &mut stats);
        assert!(is_maximal_independent(&g, &active, &set));
        for d in &set {
            assert!(active.contains(d));
        }
    }

    #[test]
    fn greedy_is_maximal_and_deterministic() {
        let u = random_universe(3, 20, 2, 25);
        let g = ConflictGraph::build(&u);
        let active: Vec<InstanceId> = u.instance_ids().collect();
        let a = greedy_mis(&g, &active);
        let b = greedy_mis(&g, &active);
        assert_eq!(a, b);
        assert!(is_maximal_independent(&g, &active, &a));
    }

    #[test]
    fn luby_rounds_are_logarithmic_in_practice() {
        let u = random_universe(11, 60, 3, 120);
        let g = ConflictGraph::build(&u);
        let active: Vec<InstanceId> = u.instance_ids().collect();
        let mut stats = RoundStats::new();
        let set = maximal_independent_set(&g, &active, MisStrategy::Luby { seed: 5 }, &mut stats);
        assert!(is_maximal_independent(&g, &active, &set));
        let n = active.len() as f64;
        // 3 rounds per phase, expected O(log n) phases; the assertion uses a
        // very generous constant so it is robust to unlucky seeds.
        assert!(
            (stats.rounds as f64) <= 3.0 * (12.0 * n.log2() + 20.0),
            "rounds {} too large for N = {}",
            stats.rounds,
            n
        );
    }

    #[test]
    fn sharded_luby_matches_the_simulator_exactly() {
        for seed in 0..6u64 {
            let u = random_universe(seed, 28, 4, 45);
            let flat = ConflictGraph::build(&u);
            let sharded = ShardedConflictGraph::build(&u);
            let mut scratch = MisScratch::new(u.num_instances());
            // Full active set and an induced subset, several Luby seeds.
            let full: Vec<InstanceId> = u.instance_ids().collect();
            let subset: Vec<InstanceId> = u.instance_ids().filter(|d| d.index() % 3 != 1).collect();
            for active in [&full, &subset] {
                for luby_seed in [1u64, 42, 0xDEAD] {
                    let mut s1 = RoundStats::new();
                    let mut s2 = RoundStats::new();
                    let reference = maximal_independent_set(
                        &flat,
                        active,
                        MisStrategy::Luby { seed: luby_seed },
                        &mut s1,
                    );
                    let ours = sharded_mis(
                        &sharded,
                        active,
                        MisStrategy::Luby { seed: luby_seed },
                        &mut s2,
                        &mut scratch,
                    );
                    assert_eq!(reference, ours, "seed {seed}, luby seed {luby_seed}");
                    assert!(s2.rounds > 0 && s2.messages > 0 && s2.mis_invocations == 1);
                }
            }
        }
    }

    #[test]
    fn sharded_greedy_matches_global_greedy() {
        for seed in 0..8u64 {
            let u = random_universe(100 + seed, 24, 5, 40);
            let flat = ConflictGraph::build(&u);
            let sharded = ShardedConflictGraph::build(&u);
            let mut scratch = MisScratch::new(u.num_instances());
            let full: Vec<InstanceId> = u.instance_ids().collect();
            let subset: Vec<InstanceId> = u.instance_ids().filter(|d| d.index() % 2 == 0).collect();
            for active in [&full, &subset] {
                let reference = greedy_mis(&flat, active);
                let ours = sharded_greedy_mis(&sharded, active, &mut scratch);
                assert_eq!(reference, ours, "seed {seed}");
                assert!(is_maximal_independent(&flat, active, &ours));
            }
        }
    }

    #[test]
    fn sharded_mis_handles_empty_and_singleton_inputs() {
        let u = two_tree_problem().universe();
        let sharded = ShardedConflictGraph::build(&u);
        let mut scratch = MisScratch::new(u.num_instances());
        let mut stats = RoundStats::new();
        assert!(sharded_mis(
            &sharded,
            &[],
            MisStrategy::Luby { seed: 3 },
            &mut stats,
            &mut scratch
        )
        .is_empty());
        let single = vec![InstanceId::new(0)];
        let set = sharded_mis(
            &sharded,
            &single,
            MisStrategy::Luby { seed: 3 },
            &mut stats,
            &mut scratch,
        );
        assert_eq!(set, single);
        // The scratch sentinel is restored after every call.
        assert!(scratch.pos.iter().all(|&p| p == u32::MAX));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let u = two_tree_problem().universe();
        let g = ConflictGraph::build(&u);
        let mut stats = RoundStats::new();
        assert!(
            maximal_independent_set(&g, &[], MisStrategy::Luby { seed: 1 }, &mut stats).is_empty()
        );
        let single = vec![InstanceId::new(0)];
        let set = maximal_independent_set(&g, &single, MisStrategy::Luby { seed: 1 }, &mut stats);
        assert_eq!(set, single);
    }

    #[test]
    fn sequential_strategy_counts_one_round() {
        let u = two_tree_problem().universe();
        let g = ConflictGraph::build(&u);
        let active: Vec<InstanceId> = u.instance_ids().collect();
        let mut stats = RoundStats::new();
        let set = maximal_independent_set(&g, &active, MisStrategy::SequentialGreedy, &mut stats);
        assert!(is_maximal_independent(&g, &active, &set));
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.mis_invocations, 1);
    }
}
