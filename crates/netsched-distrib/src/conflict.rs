//! The conflict graph over demand instances.
//!
//! Two demand instances conflict when they belong to the same demand or
//! when they overlap on the same network (Section 2). The MIS computations
//! of the distributed algorithm (Section 5) are performed on (induced
//! subgraphs of) this graph: "the demand instances participating in the MIS
//! computation form the vertices and an edge is drawn between a pair of
//! vertices, if they are conflicting".
//!
//! Construction is a sort-based **interval sweep** over the implicit
//! interval runs of every path (no hash maps, no per-edge buckets): runs on
//! the same network are sorted by start and swept left to right, emitting
//! one candidate pair per *overlapping run pair* — for line instances
//! exactly once per conflicting pair, for tree paths at most once per pair
//! of intersecting runs (`O(log² n)`), versus once per shared edge in the
//! old bucket construction. The adjacency is stored as a CSR (flat
//! `offsets` / `neighbors`) with each neighbor list sorted ascending, so
//! the graph is byte-for-byte deterministic across runs and platforms.
//!
//! # Sharded construction
//!
//! Overlap edges never cross networks, so the sweep decomposes perfectly
//! along the shards of a [`ShardedUniverse`]: [`ShardedConflictGraph`]
//! builds one local CSR per shard (sweep, sort and CSR assembly per shard)
//! and keeps the only cross-shard edges — same-demand cliques spanning
//! networks — in a compact cross-group arena. The split is what makes the
//! graph cheap to keep current: a universe splice touches only the dirty
//! shards' CSRs ([`ShardedConflictGraph::apply_delta`]).
//! [`ShardedConflictGraph::merged`] folds the per-shard CSRs and the cross
//! adjacency back into a single [`ConflictGraph`] that is
//! **byte-identical** to what [`ConflictGraph::build`] produces (the
//! per-shard pair sets are disjoint and deterministic, so the merge is a
//! permutation-free set union).

use netsched_graph::{
    DemandInstanceUniverse, InstanceId, NetworkId, ShardedUniverse, UniverseDelta, UniverseShard,
};

/// The conflict graph of a demand-instance universe, in CSR form.
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    /// `neighbors[offsets[v] .. offsets[v + 1]]` are the conflicts of `v`,
    /// sorted ascending.
    offsets: Vec<u32>,
    neighbors: Vec<InstanceId>,
    num_edges: usize,
}

impl ConflictGraph {
    /// Builds the conflict graph of the whole universe.
    pub fn build(universe: &DemandInstanceUniverse) -> Self {
        let n = universe.num_instances();
        // Candidate conflicting pairs, normalized to (low, high). Duplicates
        // (tree paths intersecting on several runs, overlap + same demand)
        // are removed by the sort/dedup below.
        let mut pairs: Vec<(u32, u32)> = Vec::new();

        // Same-demand cliques.
        for a in 0..universe.num_demands() {
            let group = universe.instances_of_demand(netsched_graph::DemandId::new(a));
            for (i, &d1) in group.iter().enumerate() {
                for &d2 in &group[i + 1..] {
                    pairs.push(ordered(d1, d2));
                }
            }
        }

        // Shared-edge conflicts via a per-network interval sweep. Runs are
        // sorted by start; every run still active when a later run begins
        // overlaps it.
        for t in 0..universe.num_networks() {
            let network = netsched_graph::NetworkId::new(t);
            let mut runs: Vec<(u32, u32, u32)> = Vec::new(); // (start, end, instance)
            for &d in universe.instances_on_network(network) {
                for run in universe.instance(d).path.runs() {
                    runs.push((run.start, run.end, d.index() as u32));
                }
            }
            runs.sort_unstable();
            let mut active: Vec<(u32, u32)> = Vec::new(); // (end, instance)
            for &(start, end, inst) in &runs {
                active.retain(|&(e, _)| e >= start);
                for &(_, other) in &active {
                    if other != inst {
                        pairs.push(if other < inst {
                            (other, inst)
                        } else {
                            (inst, other)
                        });
                    }
                }
                active.push((end, inst));
            }
        }

        pairs.sort_unstable();
        pairs.dedup();
        assemble_csr(n, &pairs)
    }

    /// Number of vertices (demand instances).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of conflict edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The instances conflicting with `d`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, d: InstanceId) -> &[InstanceId] {
        &self.neighbors[self.offsets[d.index()] as usize..self.offsets[d.index() + 1] as usize]
    }

    /// Degree of `d` in the conflict graph.
    #[inline]
    pub fn degree(&self, d: InstanceId) -> usize {
        (self.offsets[d.index() + 1] - self.offsets[d.index()]) as usize
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(InstanceId::new(v)))
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if `a` and `b` conflict.
    pub fn are_conflicting(&self, a: InstanceId, b: InstanceId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Checks that a vertex subset is independent in the conflict graph.
    pub fn is_independent(&self, set: &[InstanceId]) -> bool {
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                if a == b || self.are_conflicting(a, b) {
                    return false;
                }
            }
        }
        true
    }
}

#[inline]
fn ordered(a: InstanceId, b: InstanceId) -> (u32, u32) {
    if a.0 < b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// Assembles a CSR **into** caller-provided buffers from sorted,
/// deduplicated `(low, high)` pairs — the allocation-reusing core shared
/// by every CSR assembly in this module. The output is fully determined by
/// the pair *set*, which is what makes the sharded merge and the
/// incremental splice byte-identical to the single-threaded build.
/// `cursor` is scratch (cleared and refilled); `offsets`/`neighbors` are
/// cleared and rebuilt in place, so steady-state callers allocate nothing
/// once capacities have warmed up.
fn assemble_csr_into(
    n: usize,
    pairs: &[(u32, u32)],
    offsets: &mut Vec<u32>,
    neighbors: &mut Vec<u32>,
    cursor: &mut Vec<u32>,
) {
    offsets.clear();
    offsets.resize(n + 1, 0);
    for &(a, b) in pairs {
        offsets[a as usize + 1] += 1;
        offsets[b as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    cursor.clear();
    cursor.extend_from_slice(&offsets[..n]);
    neighbors.clear();
    neighbors.resize(2 * pairs.len(), 0);
    for &(a, b) in pairs {
        neighbors[cursor[a as usize] as usize] = b;
        cursor[a as usize] += 1;
        neighbors[cursor[b as usize] as usize] = a;
        cursor[b as usize] += 1;
    }
    for v in 0..n {
        neighbors[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
    }
}

/// [`assemble_csr_into`] with fresh buffers, for the from-scratch builds.
fn assemble_csr_arrays(n: usize, pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = Vec::new();
    let mut neighbors = Vec::new();
    let mut cursor = Vec::new();
    assemble_csr_into(n, pairs, &mut offsets, &mut neighbors, &mut cursor);
    (offsets, neighbors)
}

/// [`assemble_csr_arrays`] wrapped into a [`ConflictGraph`].
fn assemble_csr(n: usize, pairs: &[(u32, u32)]) -> ConflictGraph {
    let (offsets, neighbors) = assemble_csr_arrays(n, pairs);
    ConflictGraph {
        offsets,
        neighbors: neighbors.into_iter().map(InstanceId).collect(),
        num_edges: pairs.len(),
    }
}

/// The conflict edges local to one shard (overlaps plus same-demand pairs
/// on the shard's network), as a CSR over the shard's *local* instance ids.
#[derive(Debug, Clone)]
pub struct ShardConflict {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    num_edges: usize,
}

impl ShardConflict {
    /// Builds the local CSR from sorted, deduplicated local pairs.
    fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        let (offsets, neighbors) = assemble_csr_arrays(n, pairs);
        Self {
            offsets,
            neighbors,
            num_edges: pairs.len(),
        }
    }

    /// Rebuilds the CSR in place from sorted, deduplicated local pairs,
    /// reusing the existing buffers (and `cursor` as scratch).
    fn rebuild(&mut self, n: usize, pairs: &[(u32, u32)], cursor: &mut Vec<u32>) {
        assemble_csr_into(n, pairs, &mut self.offsets, &mut self.neighbors, cursor);
        self.num_edges = pairs.len();
    }

    /// Number of local vertices (instances of the shard).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of conflict edges local to the shard.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The local ids conflicting with local vertex `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Degree of local vertex `v` within the shard.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }
}

/// Routes every **same-network** same-demand clique pair of the universe
/// to its owning shard's local list (as ascending local ids — locals
/// follow global order within a shard). Pairs spanning networks live in
/// the stable-id [`CrossGroups`] arena instead. Used by the from-scratch
/// construction only; the incremental splice derives a dirty shard's new
/// same-demand pairs from its arrival suffix.
fn route_demand_cliques(
    universe: &DemandInstanceUniverse,
    sharding: &ShardedUniverse,
) -> Vec<Vec<(u32, u32)>> {
    let mut demand_pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); sharding.num_shards()];
    for a in 0..universe.num_demands() {
        let group = universe.instances_of_demand(netsched_graph::DemandId::new(a));
        for (i, &d1) in group.iter().enumerate() {
            for &d2 in &group[i + 1..] {
                let (t1, t2) = (sharding.shard_of(d1), sharding.shard_of(d2));
                if t1 == t2 {
                    demand_pairs[t1.index()].push((sharding.local_of(d1), sharding.local_of(d2)));
                }
            }
        }
    }
    demand_pairs
}

/// Reusable scratch of the incremental local-CSR splice, shared by every
/// shard; each buffer is cleared and refilled in place, so steady-state
/// dirty epochs allocate nothing once capacities have warmed up.
#[derive(Debug, Clone, Default)]
struct SpliceScratch {
    /// Surviving old pairs, renumbered through the local remap (sorted by
    /// construction: the remap is monotone).
    spliced: Vec<(u32, u32)>,
    /// Pairs with at least one arrival endpoint (sorted + deduped here).
    fresh: Vec<(u32, u32)>,
    /// Interval-sweep active lists: `(end, local)` of still-open survivor
    /// and arrival runs.
    active_old: Vec<(u32, u32)>,
    active_new: Vec<(u32, u32)>,
    /// The merged pair list the CSR is assembled from.
    merged: Vec<(u32, u32)>,
    /// CSR assembly cursor scratch.
    cursor: Vec<u32>,
}

/// Splices one dirty shard's local CSR through a [`ShardSplice`] instead
/// of re-sweeping the shard from scratch:
///
/// 1. surviving pairs are carried over from the old CSR, renumbered
///    through the (monotone) local remap — already sorted, no sort paid;
/// 2. pairs involving an arrival are found by one interval sweep over the
///    shard's (already merged) run array that only ever emits
///    survivor×arrival and arrival×arrival overlaps, plus the same-demand
///    cliques among the arrival suffix — only these `O(batch)`-driven
///    pairs are sorted;
/// 3. the two disjoint sorted lists merge into the rebuilt CSR.
///
/// The resulting pair set equals the full re-sweep's exactly (survivor
/// pairs persist if and only if both endpoints survive, and every other
/// pair has at least one arrival endpoint), and the CSR assembly is a pure
/// function of the sorted pair set — so the output is byte-identical to
/// [`sweep_shard`].
fn splice_shard(
    universe: &DemandInstanceUniverse,
    shard: &UniverseShard,
    splice: &netsched_graph::ShardSplice,
    csr: &mut ShardConflict,
    scratch: &mut SpliceScratch,
) {
    let remap = splice.local_remap();
    let first_new = splice.first_new_local();

    // 1. Carry the surviving old pairs through the local remap.
    scratch.spliced.clear();
    for v in 0..csr.num_vertices() as u32 {
        let v_new = remap[v as usize];
        if v_new == u32::MAX {
            continue;
        }
        for &u in csr.neighbors(v) {
            if u <= v {
                continue;
            }
            let u_new = remap[u as usize];
            if u_new != u32::MAX {
                scratch.spliced.push((v_new, u_new));
            }
        }
    }
    debug_assert!(scratch.spliced.windows(2).all(|w| w[0] < w[1]));

    // 2a. Overlap pairs with at least one arrival endpoint: one sweep over
    // the merged run array, pairing arrival runs against everything active
    // and survivor runs against active arrivals only.
    scratch.fresh.clear();
    scratch.active_old.clear();
    scratch.active_new.clear();
    for run in shard.runs() {
        scratch.active_old.retain(|&(e, _)| e >= run.start);
        scratch.active_new.retain(|&(e, _)| e >= run.start);
        if run.local >= first_new {
            for &(_, other) in &scratch.active_old {
                scratch.fresh.push((other, run.local));
            }
            for &(_, other) in &scratch.active_new {
                if other != run.local {
                    scratch.fresh.push(if other < run.local {
                        (other, run.local)
                    } else {
                        (run.local, other)
                    });
                }
            }
            scratch.active_new.push((run.end, run.local));
        } else {
            for &(_, other) in &scratch.active_new {
                scratch.fresh.push((run.local, other));
            }
            scratch.active_old.push((run.end, run.local));
        }
    }

    // 2b. Same-demand cliques among the arrival suffix (demands arrive
    // whole, so a survivor never shares a demand with an arrival; and the
    // suffix is grouped by demand because instance ids are demand-dense).
    let globals = shard.globals();
    let mut i = first_new as usize;
    while i < globals.len() {
        let demand = universe.demand_of(globals[i]);
        let mut j = i + 1;
        while j < globals.len() && universe.demand_of(globals[j]) == demand {
            j += 1;
        }
        for x in i..j {
            for y in x + 1..j {
                scratch.fresh.push((x as u32, y as u32));
            }
        }
        i = j;
    }
    scratch.fresh.sort_unstable();
    scratch.fresh.dedup();

    // 3. Merge the two disjoint sorted pair lists and assemble.
    scratch.merged.clear();
    scratch
        .merged
        .reserve(scratch.spliced.len() + scratch.fresh.len());
    let (mut a, mut b) = (0, 0);
    while a < scratch.spliced.len() && b < scratch.fresh.len() {
        if scratch.spliced[a] <= scratch.fresh[b] {
            scratch.merged.push(scratch.spliced[a]);
            a += 1;
        } else {
            scratch.merged.push(scratch.fresh[b]);
            b += 1;
        }
    }
    scratch.merged.extend_from_slice(&scratch.spliced[a..]);
    scratch.merged.extend_from_slice(&scratch.fresh[b..]);
    csr.rebuild(shard.len(), &scratch.merged, &mut scratch.cursor);
}

/// One shard's local CSR from its (pre-sorted) run array plus the local
/// same-demand pairs routed to it. This is the complete per-shard build —
/// interval sweep, sort, dedup, CSR assembly — shared verbatim by the
/// from-scratch construction ([`ShardedConflictGraph::build_with`]) and the
/// dirty-shard rebuild ([`ShardedConflictGraph::apply_delta`]), so the two
/// paths cannot drift apart.
fn sweep_shard(shard: &UniverseShard, mut pairs: Vec<(u32, u32)>) -> ShardConflict {
    let mut active: Vec<(u32, u32)> = Vec::new(); // (end, local)
    for run in shard.runs() {
        active.retain(|&(e, _)| e >= run.start);
        for &(_, other) in &active {
            if other != run.local {
                pairs.push(if other < run.local {
                    (other, run.local)
                } else {
                    (run.local, other)
                });
            }
        }
        active.push((run.end, run.local));
    }
    pairs.sort_unstable();
    pairs.dedup();
    ShardConflict::from_pairs(shard.len(), &pairs)
}

/// The cross-shard same-demand cliques under **stable group indirection**:
/// one "group" per demand whose instances span more than one network,
/// holding the demand's full (ascending) instance-id member list in a flat
/// SoA arena. A splice renumbers the member columns **in place** through
/// the delta's instance remap (monotone on survivors, so member lists stay
/// ascending), drops the groups of expired demands by forward compaction,
/// and appends groups for the arrivals — `O(members + arrivals)` with no
/// sort and no CSR assembly, where the former representation re-assembled
/// a global CSR over every live demand each epoch.
#[derive(Debug, Clone, Default)]
struct CrossGroups {
    /// Group → `[start, end)` range into the member columns
    /// (`len == num_groups + 1`, `offsets[0] == 0`).
    offsets: Vec<u32>,
    /// Member instance ids, ascending within each group.
    members: Vec<InstanceId>,
    /// Per member slot: how many of its group's members live on a
    /// *different* network (its cross degree; static over the demand's
    /// lifetime, computed once at group creation).
    member_degree: Vec<u32>,
    /// Instance → owning group (`u32::MAX` = no cross edges).
    group_of: Vec<u32>,
    /// Instance → cross degree (dense mirror of `member_degree`).
    cross_degree: Vec<u32>,
    /// Total cross pairs (Σ member_degree / 2).
    num_edges: usize,
}

impl CrossGroups {
    /// Rebuilds the arena from scratch over a universe (the wholesale
    /// assembly the splice path avoids; counted by `cross_assemblies`).
    fn rebuild(&mut self, universe: &DemandInstanceUniverse) {
        self.offsets.clear();
        self.offsets.push(0);
        self.members.clear();
        self.member_degree.clear();
        for a in 0..universe.num_demands() {
            let group = universe.instances_of_demand(netsched_graph::DemandId::new(a));
            self.push_group(universe, group);
        }
        self.rebuild_index(universe.num_instances());
    }

    /// Appends one demand's group (if it spans networks) and its member
    /// degrees; returns without touching the arena otherwise.
    fn push_group(&mut self, universe: &DemandInstanceUniverse, group: &[InstanceId]) {
        if group.len() < 2 {
            return;
        }
        let first_net = universe.instance(group[0]).network;
        if group
            .iter()
            .all(|&d| universe.instance(d).network == first_net)
        {
            return;
        }
        debug_assert!(group.windows(2).all(|w| w[0] < w[1]));
        self.members.extend_from_slice(group);
        for &d in group {
            let net = universe.instance(d).network;
            let same = group
                .iter()
                .filter(|&&m| universe.instance(m).network == net)
                .count() as u32;
            self.member_degree.push(group.len() as u32 - same);
        }
        self.offsets.push(self.members.len() as u32);
    }

    /// Refills the dense per-instance index columns from the group arena
    /// (`O(n + members)`, allocation-free at steady capacity).
    fn rebuild_index(&mut self, n: usize) {
        self.group_of.clear();
        self.group_of.resize(n, u32::MAX);
        self.cross_degree.clear();
        self.cross_degree.resize(n, 0);
        let mut edges = 0usize;
        for g in 0..self.offsets.len() - 1 {
            let (s, e) = (self.offsets[g] as usize, self.offsets[g + 1] as usize);
            for i in s..e {
                let d = self.members[i];
                self.group_of[d.index()] = g as u32;
                self.cross_degree[d.index()] = self.member_degree[i];
                edges += self.member_degree[i] as usize;
            }
        }
        self.num_edges = edges / 2;
    }

    /// Splices a universe delta through the arena: dead groups (expired
    /// demands) compact away, surviving member ids renumber in place, and
    /// the arrivals' groups append — no sort, no wholesale re-assembly.
    fn splice(&mut self, universe: &DemandInstanceUniverse, delta: &UniverseDelta) {
        let remap = delta.instance_remap();
        let groups = self.offsets.len() - 1;
        let (mut gw, mut mw) = (0usize, 0usize);
        for g in 0..groups {
            let (s, e) = (self.offsets[g] as usize, self.offsets[g + 1] as usize);
            if remap[self.members[s].index()] == u32::MAX {
                // Demands expire whole: the first member's fate is the
                // group's.
                debug_assert!(self.members[s..e]
                    .iter()
                    .all(|m| remap[m.index()] == u32::MAX));
                continue;
            }
            self.offsets[gw] = mw as u32;
            for i in s..e {
                self.members[mw] = InstanceId(remap[self.members[i].index()]);
                self.member_degree[mw] = self.member_degree[i];
                mw += 1;
            }
            gw += 1;
        }
        self.offsets[gw] = mw as u32;
        self.offsets.truncate(gw + 1);
        self.members.truncate(mw);
        self.member_degree.truncate(mw);

        // Arrivals: the new-instance suffix, grouped by (dense) demand id.
        let n = universe.num_instances();
        let mut i = delta.first_added();
        while i < n {
            let demand = universe.demand_of(InstanceId::new(i));
            let group = universe.instances_of_demand(demand);
            debug_assert_eq!(group.first(), Some(&InstanceId::new(i)));
            self.push_group(universe, group);
            i += group.len();
        }
        self.rebuild_index(n);
    }

    /// The cross-group member row of an instance (its own id included),
    /// empty when the instance has no cross edges.
    #[inline]
    fn row(&self, d: InstanceId) -> &[InstanceId] {
        match self.group_of[d.index()] {
            u32::MAX => &[],
            g => {
                &self.members
                    [self.offsets[g as usize] as usize..self.offsets[g as usize + 1] as usize]
            }
        }
    }

    /// Heap bytes committed by the arena and its index columns.
    fn committed_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.members.capacity() * std::mem::size_of::<InstanceId>()
            + (self.member_degree.capacity()
                + self.group_of.capacity()
                + self.cross_degree.capacity())
                * std::mem::size_of::<u32>()
    }
}

/// Iterator over the cross-shard same-demand neighbors of one instance:
/// its group's members on *other* networks, in ascending global id order.
pub struct CrossNeighbors<'a> {
    members: std::slice::Iter<'a, InstanceId>,
    sharding: &'a ShardedUniverse,
    network: NetworkId,
}

impl Iterator for CrossNeighbors<'_> {
    type Item = InstanceId;

    #[inline]
    fn next(&mut self) -> Option<InstanceId> {
        self.members
            .by_ref()
            .find(|&&m| self.sharding.shard_of(m) != self.network)
            .copied()
    }
}

/// The conflict graph in sharded form: one local CSR per network plus the
/// stable-id `CrossGroups` arena holding the same-demand cliques that
/// span networks (the only conflict edges that ever cross a shard
/// boundary).
///
/// The graph is *mutable over time*: [`ShardedConflictGraph::apply_delta`]
/// re-synchronizes it with a universe splice by splicing only the dirty
/// shards' local CSRs (through the sharding's
/// [`ShardSplice`](netsched_graph::ShardSplice) records —
/// no re-sweep) and renumbering the cross-group arena in place, bumping a
/// generation counter.
#[derive(Debug, Clone)]
pub struct ShardedConflictGraph {
    sharding: ShardedUniverse,
    shards: Vec<ShardConflict>,
    /// Cross-shard same-demand cliques under stable group indirection.
    cross: CrossGroups,
    /// Reusable splice scratch, shared by every shard's splice.
    splice_scratch: SpliceScratch,
    /// Bumped by every [`ShardedConflictGraph::apply_delta`].
    generation: u64,
    /// How many times the cross-group arena was assembled wholesale from
    /// the universe (tests pin that splices never do this).
    cross_assemblies: u64,
}

impl ShardedConflictGraph {
    /// Builds the sharded conflict graph of a universe, partitioning it by
    /// network first.
    pub fn build(universe: &DemandInstanceUniverse) -> Self {
        Self::build_with(universe, ShardedUniverse::build(universe))
    }

    /// Builds the sharded conflict graph on an existing partition.
    ///
    /// The same-demand cliques are first split into per-shard and
    /// cross-shard pair lists (`O(Σ |Inst(a)|²)`, the size of the cliques
    /// themselves); then each shard runs its own interval sweep, sort and
    /// CSR assembly.
    pub fn build_with(universe: &DemandInstanceUniverse, sharding: ShardedUniverse) -> Self {
        // Same-demand cliques on a single network, routed to the owning
        // shard; spanning cliques live in the cross-group arena.
        let demand_pairs = route_demand_cliques(universe, &sharding);

        // Per shard: interval sweep + same-demand pairs → local CSR.
        let shards: Vec<ShardConflict> = demand_pairs
            .into_iter()
            .zip(sharding.shards())
            .map(|(pairs, shard)| sweep_shard(shard, pairs))
            .collect();

        let mut cross = CrossGroups::default();
        cross.rebuild(universe);

        Self {
            sharding,
            shards,
            cross,
            splice_scratch: SpliceScratch::default(),
            generation: 0,
            cross_assemblies: 1,
        }
    }

    /// Re-synchronizes the graph with a universe splice
    /// ([`DemandInstanceUniverse::apply_demand_delta`]): the owned
    /// [`ShardedUniverse`] is spliced in place, the local CSRs of the
    /// delta's **dirty** shards are spliced through the sharding's
    /// [`ShardSplice`](netsched_graph::ShardSplice) records (surviving
    /// pairs carry over renumbered, only arrival-driven pairs are swept
    /// and sorted — see `splice_shard`), clean shards are kept untouched,
    /// and the cross-group arena renumbers its member columns in place —
    /// **no wholesale cross re-assembly and no `O(|D|)` demand iteration**.
    ///
    /// Cost: `O(cross members + Σ_dirty (runs + pairs))`, with sort work
    /// proportional to the arrival batch only. The result is byte-identical
    /// to `ShardedConflictGraph::build(universe)`.
    ///
    /// Bumps the [`generation`](ShardedConflictGraph::generation) counter.
    pub fn apply_delta(&mut self, universe: &DemandInstanceUniverse, delta: &UniverseDelta) {
        self.sharding.apply_delta(universe, delta);
        for network in delta.dirty_networks() {
            splice_shard(
                universe,
                self.sharding.shard(network),
                self.sharding.shard_splice(network),
                &mut self.shards[network.index()],
                &mut self.splice_scratch,
            );
        }
        self.cross.splice(universe, delta);
        self.generation += 1;
    }

    /// The current generation: 0 after a from-scratch build, bumped by
    /// every [`ShardedConflictGraph::apply_delta`].
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Advances the generation counter to at least `to`.
    ///
    /// A graph rebuilt from a **restored** session snapshot starts over at
    /// generation 0, so any external cache keyed by
    /// [`generation`](ShardedConflictGraph::generation) could serve a
    /// pre-crash entry for a post-restore graph. The restore path calls
    /// this with the recovered epoch counter, re-establishing the
    /// invariant that generations never repeat across the lifetime of a
    /// logical session.
    pub fn advance_generation(&mut self, to: u64) {
        self.generation = self.generation.max(to);
    }

    /// The universe partition the graph was built on.
    #[inline]
    pub fn sharding(&self) -> &ShardedUniverse {
        &self.sharding
    }

    /// Number of shards (== networks).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of vertices (demand instances).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.sharding.num_instances()
    }

    /// Total number of conflict edges (local plus cross-shard).
    pub fn num_edges(&self) -> usize {
        self.shards
            .iter()
            .map(ShardConflict::num_edges)
            .sum::<usize>()
            + self.cross.num_edges
    }

    /// The local CSR of one shard.
    #[inline]
    pub fn shard(&self, t: NetworkId) -> &ShardConflict {
        &self.shards[t.index()]
    }

    /// All per-shard CSRs, indexed by network.
    #[inline]
    pub fn shards(&self) -> &[ShardConflict] {
        &self.shards
    }

    /// The cross-shard same-demand neighbors of a global instance, in
    /// ascending id order (an iterator over the instance's stable cross
    /// group, skipping same-network members).
    #[inline]
    pub fn cross_neighbors(&self, d: InstanceId) -> CrossNeighbors<'_> {
        CrossNeighbors {
            members: self.cross.row(d).iter(),
            sharding: &self.sharding,
            network: self.sharding.shard_of(d),
        }
    }

    /// Degree of a global instance in the full conflict graph.
    #[inline]
    pub fn degree(&self, d: InstanceId) -> usize {
        self.shards[self.sharding.shard_of(d).index()].degree(self.sharding.local_of(d))
            + self.cross.cross_degree[d.index()] as usize
    }

    /// How many times the cross-group arena was assembled wholesale from
    /// the universe (1 after a build; splices must never bump this — the
    /// arena renumbers in place).
    #[inline]
    pub fn cross_assembly_count(&self) -> u64 {
        self.cross_assemblies
    }

    /// Heap bytes committed by the sharded graph: the sharding index, the
    /// per-shard CSRs, the cross-group arena and the splice scratch.
    pub fn committed_bytes(&self) -> usize {
        let mut bytes = self.sharding.committed_bytes() + self.cross.committed_bytes();
        for shard in &self.shards {
            bytes += shard.offsets.capacity() * std::mem::size_of::<u32>();
            bytes += shard.neighbors.capacity() * std::mem::size_of::<u32>();
        }
        bytes += self.shards.capacity() * std::mem::size_of::<ShardConflict>();
        let scratch = &self.splice_scratch;
        bytes += (scratch.spliced.capacity()
            + scratch.fresh.capacity()
            + scratch.active_old.capacity()
            + scratch.active_new.capacity()
            + scratch.merged.capacity())
            * std::mem::size_of::<(u32, u32)>();
        bytes + scratch.cursor.capacity() * std::mem::size_of::<u32>()
    }

    /// Folds the per-shard CSRs and the cross-shard adjacency into a single
    /// global [`ConflictGraph`].
    ///
    /// The result is byte-identical to [`ConflictGraph::build`] on the same
    /// universe: local pair sets are per-shard
    /// deterministic and disjoint across shards, cross pairs are disjoint
    /// from both, and `assemble_csr` is a pure function of the sorted
    /// pair set. Every call folds afresh: the solve path never calls it,
    /// it exists so tests can compare the sharded graph with the flat
    /// build.
    pub fn merged(&self) -> ConflictGraph {
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(self.num_edges());
        for (shard, part) in self.shards.iter().zip(self.sharding.shards()) {
            let globals = part.globals();
            for v in 0..shard.num_vertices() as u32 {
                let g = globals[v as usize].0;
                for &u in shard.neighbors(v) {
                    if u > v {
                        pairs.push((g, globals[u as usize].0));
                    }
                }
            }
        }
        for g in 0..self.cross.offsets.len() - 1 {
            let (s, e) = (
                self.cross.offsets[g] as usize,
                self.cross.offsets[g + 1] as usize,
            );
            let members = &self.cross.members[s..e];
            for (i, &d1) in members.iter().enumerate() {
                for &d2 in &members[i + 1..] {
                    if self.sharding.shard_of(d1) != self.sharding.shard_of(d2) {
                        pairs.push((d1.0, d2.0));
                    }
                }
            }
        }
        pairs.sort_unstable();
        assemble_csr(self.num_vertices(), &pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsched_graph::fixtures::{figure1_line_problem, figure6_problem, two_tree_problem};

    #[test]
    fn conflict_graph_matches_universe_predicate() {
        for universe in [
            figure1_line_problem().universe(),
            two_tree_problem().universe(),
            figure6_problem().universe(),
        ] {
            let g = ConflictGraph::build(&universe);
            assert_eq!(g.num_vertices(), universe.num_instances());
            for a in universe.instance_ids() {
                for b in universe.instance_ids() {
                    if a == b {
                        continue;
                    }
                    assert_eq!(
                        g.are_conflicting(a, b),
                        universe.conflicting(a, b),
                        "mismatch for {a}, {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn figure1_conflict_counts() {
        let u = figure1_line_problem().universe();
        let g = ConflictGraph::build(&u);
        // A–B overlap; B–C and A–C do not.
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(InstanceId::new(0)), 1);
        assert_eq!(g.degree(InstanceId::new(2)), 0);
        assert!(g.is_independent(&[InstanceId::new(0), InstanceId::new(2)]));
        assert!(!g.is_independent(&[InstanceId::new(0), InstanceId::new(1)]));
    }

    #[test]
    fn same_demand_instances_are_adjacent() {
        let u = two_tree_problem().universe();
        let g = ConflictGraph::build(&u);
        let insts = u.instances_of_demand(netsched_graph::DemandId::new(0));
        assert_eq!(insts.len(), 2);
        assert!(g.are_conflicting(insts[0], insts[1]));
    }

    #[test]
    fn degrees_and_max_degree_are_consistent() {
        let u = two_tree_problem().universe();
        let g = ConflictGraph::build(&u);
        let sum: usize = (0..g.num_vertices())
            .map(|i| g.degree(InstanceId::new(i)))
            .sum();
        assert_eq!(sum, 2 * g.num_edges());
        assert!(g.max_degree() < g.num_vertices());
    }

    #[test]
    fn sharded_merge_is_byte_identical_to_the_flat_build() {
        for universe in [
            figure1_line_problem().universe(),
            two_tree_problem().universe(),
            figure6_problem().universe(),
        ] {
            let flat = ConflictGraph::build(&universe);
            let sharded = ShardedConflictGraph::build(&universe);
            let merged = sharded.merged();
            assert_eq!(flat.offsets, merged.offsets);
            assert_eq!(flat.neighbors, merged.neighbors);
            assert_eq!(flat.num_edges(), merged.num_edges());
            assert_eq!(flat.num_edges(), sharded.num_edges());
            for d in universe.instance_ids() {
                assert_eq!(sharded.degree(d), flat.degree(d), "degree of {d}");
            }
        }
    }

    #[test]
    fn cross_adjacency_holds_exactly_the_spanning_same_demand_cliques() {
        let u = two_tree_problem().universe();
        let sharded = ShardedConflictGraph::build(&u);
        for a in u.instance_ids() {
            for b in sharded.cross_neighbors(a) {
                assert_eq!(u.demand_of(a), u.demand_of(b));
                assert_ne!(u.instance(a).network, u.instance(b).network);
            }
            // Rows are ascending (MIS tie-breaking relies on it).
            let row: Vec<InstanceId> = sharded.cross_neighbors(a).collect();
            assert!(row.windows(2).all(|w| w[0] < w[1]));
        }
        // Every cross-network same-demand pair appears.
        for a in u.instance_ids() {
            for b in u.instance_ids() {
                if a != b
                    && u.demand_of(a) == u.demand_of(b)
                    && u.instance(a).network != u.instance(b).network
                {
                    assert!(sharded.cross_neighbors(a).any(|x| x == b));
                }
            }
        }
    }

    #[test]
    fn shard_csr_matches_the_universe_predicate_locally() {
        let u = figure6_problem().universe();
        let sharded = ShardedConflictGraph::build(&u);
        for (t, shard) in sharded.shards().iter().enumerate() {
            let network = netsched_graph::NetworkId::new(t);
            let part = sharded.sharding().shard(network);
            for v in 0..shard.num_vertices() as u32 {
                let dv = part.global_of(v);
                for &w in shard.neighbors(v) {
                    assert!(u.conflicting(dv, part.global_of(w)));
                }
            }
        }
    }

    #[test]
    fn apply_delta_is_byte_identical_to_a_from_scratch_build() {
        use netsched_graph::{ArrivingDemand, DemandId, TreeProblem, UniverseDelta, VertexId};

        let mut p = TreeProblem::new(8);
        let line: Vec<(VertexId, VertexId)> = (0..7)
            .map(|i| (VertexId::new(i), VertexId::new(i + 1)))
            .collect();
        let t0 = p.add_network(line.clone()).unwrap();
        let t1 = p.add_network(line.clone()).unwrap();
        let t2 = p.add_network(line).unwrap();
        p.add_unit_demand(VertexId(0), VertexId(4), 1.0, vec![t0, t1])
            .unwrap();
        p.add_unit_demand(VertexId(2), VertexId(6), 2.0, vec![t0])
            .unwrap();
        p.add_unit_demand(VertexId(1), VertexId(3), 3.0, vec![t1, t2])
            .unwrap();
        p.add_unit_demand(VertexId(5), VertexId(7), 4.0, vec![t2])
            .unwrap();
        let mut universe = p.universe();
        let mut incremental = ShardedConflictGraph::build(&universe);
        let mut delta = UniverseDelta::new();

        // Epoch 1: expire demand 1 (network 0), add a demand on networks
        // 0 and 2. Epoch 2: expire demand 0, empty arrivals.
        let batches: Vec<(Vec<DemandId>, Vec<ArrivingDemand>)> = vec![
            (
                vec![DemandId(1)],
                vec![ArrivingDemand {
                    profit: 9.0,
                    height: 1.0,
                    instances: vec![
                        (t0, p.network(t0).path_edges(VertexId(3), VertexId(6)), None),
                        (t2, p.network(t2).path_edges(VertexId(3), VertexId(6)), None),
                    ],
                }],
            ),
            (vec![DemandId(0)], vec![]),
        ];
        for (expired, arrivals) in batches {
            universe.apply_demand_delta(&expired, &arrivals, &mut delta);
            incremental.apply_delta(&universe, &delta);

            let fresh = ShardedConflictGraph::build(&universe);
            let flat = ConflictGraph::build(&universe);
            let merged = incremental.merged();
            assert_eq!(flat.offsets, merged.offsets);
            assert_eq!(flat.neighbors, merged.neighbors);
            assert_eq!(incremental.num_edges(), fresh.num_edges());
            for t in 0..incremental.num_shards() {
                let network = NetworkId::new(t);
                let (a, b) = (incremental.shard(network), fresh.shard(network));
                assert_eq!(a.num_vertices(), b.num_vertices(), "shard {t}");
                assert_eq!(a.num_edges(), b.num_edges(), "shard {t}");
                for v in 0..a.num_vertices() as u32 {
                    assert_eq!(a.neighbors(v), b.neighbors(v), "shard {t} vertex {v}");
                }
            }
            for d in universe.instance_ids() {
                assert_eq!(
                    incremental.cross_neighbors(d).collect::<Vec<_>>(),
                    fresh.cross_neighbors(d).collect::<Vec<_>>(),
                    "cross row of {d}"
                );
                assert_eq!(incremental.degree(d), flat.degree(d), "degree of {d}");
            }
        }
        assert_eq!(incremental.generation(), 2);
        assert_eq!(
            incremental.cross_assembly_count(),
            1,
            "splices must renumber the cross-group arena in place, never \
             re-assemble it from the universe"
        );
    }

    #[test]
    fn clean_shard_epochs_leave_local_csrs_and_cross_arena_untouched() {
        use netsched_graph::{ArrivingDemand, DemandId, TreeProblem, UniverseDelta, VertexId};

        // Networks 0 and 1; a spanning demand (cross group) plus a local
        // demand per network. Churn only network 0: shard 1 must keep its
        // CSR bytes, and the cross arena must splice without re-assembly.
        let mut p = TreeProblem::new(8);
        let line: Vec<(VertexId, VertexId)> = (0..7)
            .map(|i| (VertexId::new(i), VertexId::new(i + 1)))
            .collect();
        let t0 = p.add_network(line.clone()).unwrap();
        let t1 = p.add_network(line).unwrap();
        p.add_unit_demand(VertexId(0), VertexId(4), 1.0, vec![t0, t1])
            .unwrap();
        p.add_unit_demand(VertexId(2), VertexId(6), 2.0, vec![t0])
            .unwrap();
        p.add_unit_demand(VertexId(1), VertexId(3), 3.0, vec![t1])
            .unwrap();
        let mut universe = p.universe();
        let mut graph = ShardedConflictGraph::build(&universe);
        assert_eq!(graph.cross_assembly_count(), 1);
        let mut delta = UniverseDelta::new();

        // Epoch 1: expire the network-0 local demand, arrive a replacement
        // on network 0 only. Shard 1 is clean.
        universe.apply_demand_delta(
            &[DemandId(1)],
            &[ArrivingDemand {
                profit: 4.0,
                height: 1.0,
                instances: vec![(t0, p.network(t0).path_edges(VertexId(3), VertexId(6)), None)],
            }],
            &mut delta,
        );
        assert_eq!(delta.dirty(), &[true, false]);
        let shard1_before = graph.shard(NetworkId::new(1)).clone();
        graph.apply_delta(&universe, &delta);

        // The clean shard's CSR is bit-for-bit untouched, and the cross
        // arena was spliced, not rebuilt.
        let shard1_after = graph.shard(NetworkId::new(1));
        assert_eq!(shard1_before.offsets, shard1_after.offsets);
        assert_eq!(shard1_before.neighbors, shard1_after.neighbors);
        assert_eq!(graph.cross_assembly_count(), 1);

        // And the result still matches a from-scratch build exactly.
        let fresh = ShardedConflictGraph::build(&universe);
        for d in universe.instance_ids() {
            assert_eq!(
                graph.cross_neighbors(d).collect::<Vec<_>>(),
                fresh.cross_neighbors(d).collect::<Vec<_>>()
            );
            assert_eq!(graph.degree(d), fresh.degree(d));
        }
    }

    #[test]
    fn merged_fold_is_cached_behind_the_generation_counter() {
        use netsched_graph::{DemandId, UniverseDelta};

        let mut universe = two_tree_problem().universe();
        let mut sharded = ShardedConflictGraph::build(&universe);
        let a = sharded.merged();
        let b = sharded.merged();
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.neighbors, b.neighbors);

        // A delta bumps the generation.
        let mut delta = UniverseDelta::new();
        universe.apply_demand_delta(&[DemandId(0)], &[], &mut delta);
        sharded.apply_delta(&universe, &delta);
        assert_eq!(sharded.generation(), 1);
        let c = sharded.merged();
        let _ = sharded.merged();
        assert_eq!(c.offsets, ConflictGraph::build(&universe).offsets);
    }

    #[test]
    fn advance_generation_invalidates_the_merged_cache() {
        let universe = two_tree_problem().universe();
        let mut sharded = ShardedConflictGraph::build(&universe);
        let _ = sharded.merged();

        // A restore-style advance must raise the counter.
        sharded.advance_generation(17);
        assert_eq!(sharded.generation(), 17);
        let refolded = sharded.merged();
        assert_eq!(refolded.offsets, ConflictGraph::build(&universe).offsets);

        // Advancing backwards never regresses the counter.
        sharded.advance_generation(3);
        assert_eq!(sharded.generation(), 17);
    }

    #[test]
    fn adjacency_is_sorted_and_deterministic() {
        // The interval sweep must produce identical, sorted adjacency on
        // every build — downstream MIS tie-breaking depends on it. (The old
        // bucket construction iterated a SipHash-seeded HashMap here.)
        for universe in [
            figure1_line_problem().universe(),
            two_tree_problem().universe(),
            figure6_problem().universe(),
        ] {
            let g1 = ConflictGraph::build(&universe);
            let g2 = ConflictGraph::build(&universe);
            assert_eq!(g1.offsets, g2.offsets);
            assert_eq!(g1.neighbors, g2.neighbors);
            for v in universe.instance_ids() {
                assert!(
                    g1.neighbors(v).windows(2).all(|w| w[0] < w[1]),
                    "adjacency of {v} must be strictly sorted"
                );
            }
        }
    }
}
