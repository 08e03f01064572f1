//! The conflict graph over demand instances.
//!
//! Two demand instances conflict when they belong to the same demand or
//! when they overlap on the same network (Section 2). The MIS computations
//! of the distributed algorithm (Section 5) are performed on (induced
//! subgraphs of) this graph: "the demand instances participating in the MIS
//! computation form the vertices and an edge is drawn between a pair of
//! vertices, if they are conflicting".
//!
//! Overlaps are found by a sort-based **interval sweep** over the implicit
//! interval runs of every path (no hash maps, no per-edge buckets): runs on
//! the same network are sorted by start and swept left to right, emitting
//! one candidate pair per *overlapping run pair*. A line instance is one
//! run; a tree path is at most `O(log n)` runs, and two paths can meet on
//! several run pairs, so the pairs are sorted and deduplicated.
//!
//! The module offers the graph at three sizes:
//!
//! * [`ConflictGraph`] — the whole graph as a CSR (flat `offsets` /
//!   `neighbors`, each neighbor list sorted ascending). The reference
//!   engine, the message-passing simulator, the Panconesi–Sozio baseline
//!   and the kill-chain analysis read it; tests compare everything else
//!   against it.
//! * [`InducedConflicts`] — the subgraph induced by one MIS call's
//!   candidates, swept from the candidates' own runs and demand ids. This
//!   is all the two-phase engine reads of the graph's edges.
//! * [`ShardedConflictGraph`] — the serving path's per-instance conflict
//!   **degrees** (they feed the engine's message counters), kept current
//!   across universe splices by sweeping only the dirty networks. It
//!   stores no edge, only each network's sorted runs, keyed by the
//!   instances' positions in the universe's own per-network index.

use netsched_graph::{
    reserve_slots, Compaction, DemandInstanceUniverse, InstanceId, NetworkId, UniverseDelta,
};

/// One interval run of one instance, ready for sweeping; runs sort by
/// `(start, end, local)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ShardRun {
    /// First edge index of the run (inclusive).
    start: u32,
    /// Last edge index of the run (inclusive).
    end: u32,
    /// The instance the run belongs to, as an index into whatever list
    /// the sweep covers.
    local: u32,
}

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
        let mut sweep = Sweep::default();
        // Same-demand cliques.
        for a in universe.demand_ids() {
            let group = universe.instances_of_demand(a);
            for (i, &d1) in group.iter().enumerate() {
                for &d2 in &group[i + 1..] {
                    sweep.pairs.push(ordered(d1.0, d2.0));
                }
            }
        }
        // Shared-edge conflicts, one sweep per network.
        for t in 0..universe.num_networks() {
            let mut runs: Vec<ShardRun> = Vec::new();
            for &d in universe.instances_on_network(NetworkId::new(t)) {
                runs.extend(universe.instance(d).path.runs().iter().map(|run| ShardRun {
                    start: run.start,
                    end: run.end,
                    local: d.0,
                }));
            }
            runs.sort_unstable();
            sweep.overlaps(runs, |_| true);
        }
        sweep.pairs.sort_unstable();
        sweep.pairs.dedup();
        let (offsets, neighbors) = assemble_csr(universe.instance_slots(), &sweep.pairs);
        Self {
            offsets,
            neighbors: neighbors.into_iter().map(InstanceId).collect(),
            num_edges: sweep.pairs.len(),
        }
    }

    /// Number of vertices: instance slots, tombstones included (their
    /// degree is 0).
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

/// The subgraph of the conflict graph induced by a list of candidate
/// instances, in CSR form over their **positions** in the list: vertex `p`
/// stands for `active[p]`.
#[derive(Debug, Clone)]
pub struct InducedConflicts {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl InducedConflicts {
    /// Builds the subgraph induced by `active` (no instance twice) from the
    /// candidates alone: overlap pairs come from one interval sweep per
    /// network over the candidates' runs, same-demand pairs from the
    /// candidates grouped by demand. `O(k log k + pairs)` for `k`
    /// candidate runs, whatever the size of the rest of the universe.
    pub fn build(universe: &DemandInstanceUniverse, active: &[InstanceId]) -> Self {
        let mut sweep = Sweep::default();
        let mut runs: Vec<(NetworkId, ShardRun)> = Vec::with_capacity(active.len());
        for (p, &d) in active.iter().enumerate() {
            let instance = universe.instance(d);
            runs.extend(instance.path.runs().iter().map(|run| {
                let local = p as u32;
                (
                    instance.network,
                    ShardRun {
                        start: run.start,
                        end: run.end,
                        local,
                    },
                )
            }));
        }
        runs.sort_unstable();
        for network in runs.chunk_by(|a, b| a.0 == b.0) {
            sweep.overlaps(network.iter().map(|&(_, run)| run), |_| true);
        }
        let mut by_demand: Vec<(netsched_graph::DemandId, u32)> = active
            .iter()
            .enumerate()
            .map(|(p, &d)| (universe.demand_of(d), p as u32))
            .collect();
        by_demand.sort_unstable();
        for group in by_demand.chunk_by(|a, b| a.0 == b.0) {
            for (i, &(_, p)) in group.iter().enumerate() {
                sweep
                    .pairs
                    .extend(group[i + 1..].iter().map(|&(_, q)| (p, q)));
            }
        }
        sweep.pairs.sort_unstable();
        sweep.pairs.dedup();
        let (offsets, neighbors) = assemble_csr(active.len(), &sweep.pairs);
        Self { offsets, neighbors }
    }

    /// Number of vertices (candidates).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The positions conflicting with position `p`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, p: usize) -> &[u32] {
        &self.neighbors[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// Degree of position `p` within the induced subgraph.
    #[inline]
    pub fn degree(&self, p: usize) -> usize {
        (self.offsets[p + 1] - self.offsets[p]) as usize
    }
}

#[inline]
fn ordered(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Assembles a CSR from sorted, deduplicated `(low, high)` pairs, each
/// neighbor list sorted ascending. The output is a pure function of the
/// pair set.
fn assemble_csr(n: usize, pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; n + 1];
    for &(a, b) in pairs {
        offsets[a as usize + 1] += 1;
        offsets[b as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut cursor = offsets[..n].to_vec();
    let mut neighbors = vec![0u32; 2 * pairs.len()];
    for &(a, b) in pairs {
        neighbors[cursor[a as usize] as usize] = b;
        cursor[a as usize] += 1;
        neighbors[cursor[b as usize] as usize] = a;
        cursor[b as usize] += 1;
    }
    for v in 0..n {
        neighbors[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
    }
    (offsets, neighbors)
}

/// The buffers of the interval sweep, reused across sweeps so that the
/// splice path allocates nothing once their capacities have warmed up.
#[derive(Debug, Clone, Default)]
struct Sweep {
    /// `(end, id)` of the still-open marked runs.
    open_marked: Vec<(u32, u32)>,
    /// `(end, id)` of the still-open unmarked runs.
    open_plain: Vec<(u32, u32)>,
    /// The emitted `(low, high)` pairs.
    pairs: Vec<(u32, u32)>,
    /// Per low end: where its bucket of high ends starts in `highs`.
    bucket: Vec<u32>,
    /// The high ends of `pairs`, bucketed by low end.
    highs: Vec<u32>,
    /// Per local: the low end of the last pair visited with it as high end.
    stamp: Vec<u32>,
    /// The arrivals' runs, sorted before they are merged in.
    fresh: Vec<ShardRun>,
    /// The merged run array, swapped with the network's.
    merged: Vec<ShardRun>,
}

impl Sweep {
    /// Sweeps one network's runs, sorted by start, and appends to `pairs`
    /// every pair of ids whose runs share an edge and of which at least
    /// one is `marked` (unmarked pairs are skipped unseen). A pair meeting
    /// on several runs is appended once per meeting.
    ///
    /// Closed unmarked runs are only dropped when a marked run needs the
    /// open ones, so a sweep with few marked runs costs `O(runs)` plus
    /// the overlap depth per marked run, not the depth per run.
    fn overlaps(&mut self, runs: impl IntoIterator<Item = ShardRun>, marked: impl Fn(u32) -> bool) {
        self.open_marked.clear();
        self.open_plain.clear();
        for run in runs {
            self.open_marked.retain(|&(e, _)| e >= run.start);
            for &(_, other) in &self.open_marked {
                if other != run.local {
                    self.pairs.push(ordered(other, run.local));
                }
            }
            if marked(run.local) {
                self.open_plain.retain(|&(e, _)| e >= run.start);
                for &(_, other) in &self.open_plain {
                    self.pairs.push(ordered(other, run.local));
                }
                self.open_marked.push((run.end, run.local));
            } else {
                self.open_plain.push((run.end, run.local));
            }
        }
    }

    /// Calls `visit(low, high)` once for every distinct overlap pair of
    /// one network's `runs`, over locals `0..n`, with at least one
    /// `marked` local. The pairs are bucketed by low end (a counting sort)
    /// and repeats dropped by stamping each high end with the bucket it
    /// was last seen in: linear in the pairs, where a comparison sort
    /// would dominate a dense network's sweep.
    fn distinct_overlaps(
        &mut self,
        runs: &[ShardRun],
        n: usize,
        marked: impl Fn(u32) -> bool,
        mut visit: impl FnMut(u32, u32),
    ) {
        self.pairs.clear();
        self.overlaps(runs.iter().copied(), marked);
        self.bucket.clear();
        self.bucket.resize(n + 1, 0);
        for &(a, _) in &self.pairs {
            self.bucket[a as usize] += 1;
        }
        let mut end = 0;
        for slot in &mut self.bucket {
            end += *slot;
            *slot = end;
        }
        self.highs.clear();
        self.highs.resize(self.pairs.len(), 0);
        for &(a, b) in &self.pairs {
            self.bucket[a as usize] -= 1;
            self.highs[self.bucket[a as usize] as usize] = b;
        }
        self.stamp.clear();
        self.stamp.resize(n, u32::MAX);
        for a in 0..n {
            let bucket = self.bucket[a] as usize..self.bucket[a + 1] as usize;
            for &b in &self.highs[bucket] {
                if std::mem::replace(&mut self.stamp[b as usize], a as u32) != a as u32 {
                    visit(a as u32, b);
                }
            }
        }
    }

    /// Heap bytes committed by the buffers.
    fn committed_bytes(&self) -> usize {
        (self.open_marked.capacity() + self.open_plain.capacity() + self.pairs.capacity())
            * std::mem::size_of::<(u32, u32)>()
            + (self.bucket.capacity() + self.highs.capacity() + self.stamp.capacity())
                * std::mem::size_of::<u32>()
            + (self.fresh.capacity() + self.merged.capacity()) * std::mem::size_of::<ShardRun>()
    }

    /// Merges the runs of a network's arrivals — the instances at
    /// positions `first_new..` of its list `list` — into its sorted
    /// `runs`, then adds their conflicts to `degree` (indexed by instance
    /// id): one per distinct overlap pair with an arrival endpoint,
    /// unless both ends belong to one demand, plus each arrival's
    /// same-demand clique. Demands arrive whole, so a survivor never
    /// shares a demand with an arrival, and the clique is final. Only the
    /// arrivals' runs are sorted.
    fn add_arrivals(
        &mut self,
        universe: &DemandInstanceUniverse,
        list: &[InstanceId],
        first_new: usize,
        runs: &mut Vec<ShardRun>,
        degree: &mut [u32],
    ) {
        self.fresh.clear();
        for (local, &d) in list.iter().enumerate().skip(first_new) {
            self.fresh
                .extend(universe.instance(d).path.runs().iter().map(|run| ShardRun {
                    start: run.start,
                    end: run.end,
                    local: local as u32,
                }));
        }
        self.fresh.sort_unstable();
        self.merged.clear();
        self.merged.reserve(runs.len() + self.fresh.len());
        let (mut i, mut j) = (0, 0);
        while i < runs.len() && j < self.fresh.len() {
            if runs[i] <= self.fresh[j] {
                self.merged.push(runs[i]);
                i += 1;
            } else {
                self.merged.push(self.fresh[j]);
                j += 1;
            }
        }
        self.merged.extend_from_slice(&runs[i..]);
        self.merged.extend_from_slice(&self.fresh[j..]);
        std::mem::swap(runs, &mut self.merged);

        let demand = |local: u32| universe.demand_of(list[local as usize]);
        self.distinct_overlaps(
            runs,
            list.len(),
            |local| local as usize >= first_new,
            |a, b| {
                if demand(a) != demand(b) {
                    degree[list[a as usize].index()] += 1;
                    degree[list[b as usize].index()] += 1;
                }
            },
        );
        for &d in &list[first_new..] {
            let clique = universe.instances_of_demand(universe.demand_of(d)).len();
            degree[d.index()] += clique as u32 - 1;
        }
    }
}

/// The conflict degree of every instance, current across universe splices
/// — all the serving path keeps of the conflict graph. The two-phase
/// engine builds each MIS call's adjacency with
/// [`InducedConflicts::build`] and reads only degrees from here.
///
/// Beside the degrees it keeps, per network, the runs of the network's
/// instances sorted for sweeping, each tagged with the instance's
/// position in [`DemandInstanceUniverse::instances_on_network`]. A splice
/// leaves a clean network's list unchanged and keeps a dirty network's
/// survivors as a prefix, and a compaction relabels ids without moving
/// anyone in a list, so positions change only where the batch landed.
#[derive(Debug, Clone)]
pub struct ShardedConflictGraph {
    /// Per network: the runs of its instances, sorted by
    /// `(start, end, local)`, `local` being the instance's position in
    /// the network's instance list.
    runs: Vec<Vec<ShardRun>>,
    /// Per instance id: its degree in the full conflict graph (0 for a
    /// tombstone).
    degree: Vec<u32>,
    /// Sweep buffers reused by every splice.
    sweep: Sweep,
}

impl ShardedConflictGraph {
    /// Sorts every network's runs and counts every instance's conflicts:
    /// one sweep per network, as if every instance arrived into an empty
    /// network.
    pub fn build(universe: &DemandInstanceUniverse) -> Self {
        let mut sweep = Sweep::default();
        let mut degree = vec![0; universe.instance_slots()];
        reserve_slots(&mut degree, universe.instance_slot_target());
        let runs = (0..universe.num_networks())
            .map(|t| {
                let list = universe.instances_on_network(NetworkId::new(t));
                let mut runs = Vec::new();
                sweep.add_arrivals(universe, list, 0, &mut runs, &mut degree);
                runs
            })
            .collect();
        // The build's buffers are sized for whole networks; splices grow
        // their own.
        Self {
            runs,
            degree,
            sweep: Sweep::default(),
        }
    }

    /// Re-synchronizes the degrees with a universe that was just spliced
    /// by [`DemandInstanceUniverse::apply_demand_delta`]:
    ///
    /// 1. the removed instances' degrees are zeroed and the column extends
    ///    over the arrivals' ids (no survivor changes id);
    /// 2. on each **dirty** network, the departures (the delta's
    ///    [`removed_positions`](UniverseDelta::removed_positions)) are
    ///    swept against the old runs, and each survivor they overlapped
    ///    loses one degree;
    /// 3. the departures' runs are dropped and the survivors' positions
    ///    shifted down past the gaps in place — the shift is monotone, so
    ///    the run order holds;
    /// 4. the arrivals' runs (the list's suffix from the delta's
    ///    [`first_added`](UniverseDelta::first_added) on) are merged in
    ///    and swept.
    ///
    /// Clean networks keep their positions, so they are not touched, and
    /// a clean-network epoch allocates nothing. Demands expire whole, so
    /// no survivor loses a same-demand neighbor.
    ///
    /// Cost: `O(batch + Σ_dirty (runs + arrival- and departure-driven
    /// pairs))`. The result equals `ShardedConflictGraph::build(universe)`.
    pub fn apply_delta(&mut self, universe: &DemandInstanceUniverse, delta: &UniverseDelta) {
        for &d in delta.removed_instances() {
            self.degree[d.index()] = 0;
        }
        reserve_slots(&mut self.degree, universe.instance_slot_target());
        self.degree.resize(universe.instance_slots(), 0);

        let mut removed = delta.removed_positions();
        for network in delta.dirty_networks() {
            let (gone, rest) = removed.split_at(removed.partition_point(|&(t, _)| t == network));
            removed = rest;
            let list = universe.instances_on_network(network);
            let survivors = list.partition_point(|d| d.index() < delta.first_added());
            // Old position → new position; `None` for a departure.
            let moved = |local: u32| match gone.binary_search_by_key(&local, |&(_, p)| p) {
                Ok(_) => None,
                Err(before) => Some(local as usize - before),
            };
            let runs = &mut self.runs[network.index()];
            let degree = &mut self.degree;
            self.sweep.distinct_overlaps(
                runs,
                survivors + gone.len(),
                |local| moved(local).is_none(),
                |a, b| match (moved(a), moved(b)) {
                    (Some(a), None) | (None, Some(a)) => degree[list[a].index()] -= 1,
                    _ => {}
                },
            );
            runs.retain_mut(|run| match moved(run.local) {
                Some(new) => {
                    run.local = new as u32;
                    true
                }
                None => false,
            });
            self.sweep
                .add_arrivals(universe, list, survivors, runs, &mut self.degree);
        }
    }

    /// Follows a [`DemandInstanceUniverse::compact`]: the degree column
    /// drops the tombstones' slots through the relabelling. The run arrays
    /// are keyed by list position, which a compaction leaves alone.
    pub fn compact(&mut self, universe: &DemandInstanceUniverse, compaction: &Compaction) {
        let mut remap = compaction.instance_remap().iter();
        self.degree.retain(|_| remap.next() != Some(&u32::MAX));
        reserve_slots(&mut self.degree, universe.instance_slot_target());
    }

    /// Number of shards (== networks).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.runs.len()
    }

    /// Number of vertices: instance slots, tombstones included (their
    /// degree is 0).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.degree.len()
    }

    /// Degree of an instance in the full conflict graph.
    #[inline]
    pub fn degree(&self, d: InstanceId) -> usize {
        self.degree[d.index()] as usize
    }

    /// Heap bytes committed by the run arrays, the degree column and the
    /// sweep buffers.
    pub fn committed_bytes(&self) -> usize {
        let runs: usize = self.runs.iter().map(Vec::capacity).sum();
        runs * std::mem::size_of::<ShardRun>()
            + self.runs.capacity() * std::mem::size_of::<Vec<ShardRun>>()
            + self.degree.capacity() * std::mem::size_of::<u32>()
            + self.sweep.committed_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsched_graph::fixtures::{figure1_line_problem, figure6_problem, two_tree_problem};

    /// The sharded degrees and the induced adjacency over every instance
    /// equal the flat build's.
    fn assert_matches_flat(universe: &DemandInstanceUniverse, graph: &ShardedConflictGraph) {
        let flat = ConflictGraph::build(universe);
        assert_eq!(graph.num_vertices(), flat.num_vertices());
        let all: Vec<InstanceId> = universe.instance_ids().collect();
        let induced = InducedConflicts::build(universe, &all);
        for (p, &d) in all.iter().enumerate() {
            assert_eq!(graph.degree(d), flat.degree(d), "degree of {d}");
            let row: Vec<InstanceId> = induced
                .neighbors(p)
                .iter()
                .map(|&q| all[q as usize])
                .collect();
            assert_eq!(row, flat.neighbors(d), "adjacency of {d}");
        }
    }

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
    fn sharded_degrees_and_induced_adjacency_match_the_flat_build() {
        for universe in [
            figure1_line_problem().universe(),
            two_tree_problem().universe(),
            figure6_problem().universe(),
        ] {
            assert_matches_flat(&universe, &ShardedConflictGraph::build(&universe));
        }
    }

    #[test]
    fn induced_adjacency_of_a_shuffled_subset_is_the_filtered_flat_adjacency() {
        let u = figure6_problem().universe();
        let flat = ConflictGraph::build(&u);
        // Every other instance, newest first: positions, not ids, index
        // the induced graph.
        let mut active: Vec<InstanceId> = u.instance_ids().filter(|d| d.index() % 2 == 0).collect();
        active.reverse();
        let induced = InducedConflicts::build(&u, &active);
        assert_eq!(induced.num_vertices(), active.len());
        for (p, &d) in active.iter().enumerate() {
            let mut ours: Vec<InstanceId> = induced
                .neighbors(p)
                .iter()
                .map(|&q| active[q as usize])
                .collect();
            ours.sort_unstable();
            let expected: Vec<InstanceId> = flat
                .neighbors(d)
                .iter()
                .copied()
                .filter(|n| active.contains(n))
                .collect();
            assert_eq!(ours, expected, "adjacency of {d}");
            assert_eq!(induced.degree(p), expected.len());
        }
    }

    /// A spliced graph holds exactly a fresh build's run arrays and
    /// degrees.
    fn assert_matches_fresh_build(universe: &DemandInstanceUniverse, graph: &ShardedConflictGraph) {
        let fresh = ShardedConflictGraph::build(universe);
        assert_eq!(graph.runs.len(), fresh.runs.len());
        for (t, (ours, theirs)) in graph.runs.iter().zip(&fresh.runs).enumerate() {
            assert_eq!(ours, theirs, "runs of network {t}");
        }
        assert_eq!(graph.degree, fresh.degree);
    }

    #[test]
    fn build_keys_each_networks_sorted_runs_by_list_position() {
        for universe in [
            figure1_line_problem().universe(),
            two_tree_problem().universe(),
            figure6_problem().universe(),
        ] {
            let graph = ShardedConflictGraph::build(&universe);
            assert_eq!(graph.num_shards(), universe.num_networks());
            let mut total = 0;
            for (t, runs) in graph.runs.iter().enumerate() {
                let list = universe.instances_on_network(NetworkId::new(t));
                assert!(runs.windows(2).all(|w| w[0] < w[1]), "network {t}");
                for run in runs {
                    let path = &universe.instance(list[run.local as usize]).path;
                    assert!(path
                        .runs()
                        .iter()
                        .any(|r| (r.start, r.end) == (run.start, run.end)));
                }
                total += runs.len();
            }
            let expected: usize = universe.instances().map(|d| d.path.num_runs()).sum();
            assert_eq!(total, expected);
        }
    }

    #[test]
    fn apply_delta_keeps_runs_and_degrees_equal_to_a_from_scratch_build() {
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
        let arrival = |networks: &[NetworkId], from: u32, to: u32| ArrivingDemand {
            profit: 9.0,
            height: 1.0,
            instances: networks
                .iter()
                .map(|&t| {
                    (
                        t,
                        p.network(t).path_edges(VertexId(from), VertexId(to)),
                        None,
                    )
                })
                .collect(),
        };

        // Epoch 1: expire demand 1 (network 0), add a demand on networks
        // 0 and 2. Epoch 2: expire demand 0, no arrivals. Epoch 3: expire
        // demand 2, which empties network 1. Epoch 4: a demand arrives on
        // the empty network 1. Then the tombstones are reclaimed.
        let batches: Vec<(Vec<DemandId>, Vec<ArrivingDemand>)> = vec![
            (vec![DemandId(1)], vec![arrival(&[t0, t2], 3, 6)]),
            (vec![DemandId(0)], vec![]),
            (vec![DemandId(2)], vec![]),
            (vec![], vec![arrival(&[t1], 0, 5)]),
        ];
        for (epoch, (expired, arrivals)) in batches.into_iter().enumerate() {
            universe.apply_demand_delta(&expired, &arrivals, &mut delta);
            incremental.apply_delta(&universe, &delta);
            assert_eq!(
                universe.instances_on_network(t1).is_empty(),
                epoch == 2,
                "epoch {epoch}"
            );
            assert_matches_fresh_build(&universe, &incremental);
            assert_matches_flat(&universe, &incremental);
        }
        let mut compaction = Compaction::new();
        universe.compact(&mut compaction);
        incremental.compact(&universe, &compaction);
        assert_eq!(incremental.num_vertices(), universe.num_instances());
        assert_matches_fresh_build(&universe, &incremental);
        assert_matches_flat(&universe, &incremental);
    }

    #[test]
    fn clean_network_run_arrays_are_untouched_by_a_splice() {
        use netsched_graph::{ArrivingDemand, DemandId, TreeProblem, UniverseDelta, VertexId};

        // Networks 0 and 1; a demand spanning both plus a local demand per
        // network. Churn only network 0: network 1's runs must keep their
        // buffer and their values.
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
        let mut delta = UniverseDelta::new();

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
        let before = graph.runs[1].clone();
        let buffer = graph.runs[1].as_ptr();
        graph.apply_delta(&universe, &delta);
        assert_eq!(graph.runs[1], before);
        assert_eq!(graph.runs[1].as_ptr(), buffer);
        assert_matches_fresh_build(&universe, &graph);
        assert_matches_flat(&universe, &graph);
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
