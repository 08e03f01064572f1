//! The demand-instance universe.
//!
//! Section 2 of the paper reformulates the problem in terms of *demand
//! instances*: one copy of a demand per accessible network (and, for
//! windowed line networks, per admissible start time). Every algorithm in
//! this workspace operates on a [`DemandInstanceUniverse`]: a flat list of
//! instances, each with an owner demand, a network, a profit, a height and
//! the set of edges its routing occupies, plus the per-edge capacities.
//!
//! A *feasible solution* is a subset of instances containing at most one
//! instance per demand such that on every edge the heights of the selected
//! instances through it sum to at most the edge capacity.
//!
//! Congestion accounting is run-based (see [`crate::path`]): instead of
//! touching every edge of every selected path, [`edge_loads`] and
//! [`is_feasible`] accumulate `+h` / `−h` at the interval endpoints of each
//! run and take a single prefix-sum pass — `O(selected runs + E)` instead
//! of `O(Σ path length)`, with one pass over the selection however many
//! networks it spans. [`LoadTracker`] offers the same accounting
//! incrementally for greedy selection loops (the framework's second phase).
//!
//! [`edge_loads`]: DemandInstanceUniverse::edge_loads
//! [`is_feasible`]: DemandInstanceUniverse::is_feasible

use crate::capacity::CapacityIndex;
use crate::ids::{DemandId, EdgeId, GlobalEdge, InstanceId, NetworkId};
use crate::path::EdgePath;
use crate::EPS;

/// A single demand instance `d ∈ D`.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandInstance {
    /// Identifier (dense index into the universe).
    pub id: InstanceId,
    /// The demand this instance belongs to (`a_d` in the paper).
    pub demand: DemandId,
    /// The network this instance is scheduled on.
    pub network: NetworkId,
    /// Profit `p(d)` (equal to the owning demand's profit).
    pub profit: f64,
    /// Height `h(d)` (equal to the owning demand's height).
    pub height: f64,
    /// The edges of `path(d)` within `network`.
    pub path: EdgePath,
    /// For windowed line instances: the start timeslot of the execution
    /// segment. `None` for tree instances.
    pub start: Option<u32>,
}

impl DemandInstance {
    /// Returns `true` if this instance uses edge `e` of its own network
    /// (`d ∼ e` in the paper).
    #[inline]
    pub fn active_on(&self, e: EdgeId) -> bool {
        self.path.contains(e)
    }

    /// Returns `true` if the instance is wide (`h(d) > 1/2`, Section 6).
    #[inline]
    pub fn is_wide(&self) -> bool {
        self.height > 0.5
    }

    /// Returns `true` if the instance is narrow (`h(d) ≤ 1/2`, Section 6).
    #[inline]
    pub fn is_narrow(&self) -> bool {
        !self.is_wide()
    }

    /// Length of the instance (number of edges of its path); for line
    /// instances this is the paper's `len(d) = e(d) − s(d) + 1`.
    #[inline]
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// Returns `true` if the path is empty (never the case for valid
    /// demands, whose end-points differ).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }

    /// Returns `true` if this instance fits on top of `loads` without
    /// exceeding `capacities` on any edge of its path; both are indexed by
    /// the edges of the instance's own network.
    #[inline]
    pub fn fits_under(&self, loads: &[f64], capacities: &[f64]) -> bool {
        self.path.runs().iter().all(|run| {
            (run.start as usize..=run.end as usize)
                .all(|e| loads[e] + self.height <= capacities[e] + EPS)
        })
    }

    /// Adds this instance's height to `loads` on every edge of its path.
    #[inline]
    pub fn add_load(&self, loads: &mut [f64]) {
        for run in self.path.runs() {
            for load in &mut loads[run.start as usize..=run.end as usize] {
                *load += self.height;
            }
        }
    }
}

/// The full set of demand instances of a problem, plus edge capacities.
#[derive(Debug, Clone)]
pub struct DemandInstanceUniverse {
    instances: Vec<DemandInstance>,
    num_demands: usize,
    num_networks: usize,
    /// Number of edges of each network.
    edges_per_network: Vec<usize>,
    /// Capacity of each edge of each network (1.0 in the uniform-bandwidth
    /// setting of the arXiv text; arbitrary positive values in the
    /// capacitated/IPPS setting).
    capacities: Vec<Vec<f64>>,
    /// Instances of each demand (`Inst(a)`).
    by_demand: Vec<Vec<InstanceId>>,
    /// Instances on each network (`D(T)`).
    by_network: Vec<Vec<InstanceId>>,
    /// Cached: `true` when every capacity is exactly 1.0 (the
    /// uniform-bandwidth setting), enabling `O(runs)` feasibility checks.
    uniform_capacity: bool,
    /// Range-minimum index over the capacities; built only in the
    /// non-uniform setting (the uniform one never consults it).
    capacity_index: Option<CapacityIndex>,
    /// Cached `(p_min, p_max)` over all instances, refreshed by every
    /// splice; see [`DemandInstanceUniverse::min_profit`].
    profit_range: (f64, f64),
}

/// Empty-universe convention for the cached profit range.
const NO_PROFITS: (f64, f64) = (1.0, 1.0);

impl DemandInstanceUniverse {
    /// Assembles a universe from its parts.
    ///
    /// `edges_per_network[t]` is the number of edges of network `t`;
    /// `capacities` may be empty, in which case every capacity defaults
    /// to 1.0.
    pub fn new(
        instances: Vec<DemandInstance>,
        num_demands: usize,
        edges_per_network: Vec<usize>,
        capacities: Option<Vec<Vec<f64>>>,
    ) -> Self {
        let num_networks = edges_per_network.len();
        let capacities =
            capacities.unwrap_or_else(|| edges_per_network.iter().map(|&m| vec![1.0; m]).collect());
        assert_eq!(
            capacities.len(),
            num_networks,
            "capacities must cover every network"
        );
        for (t, caps) in capacities.iter().enumerate() {
            assert_eq!(
                caps.len(),
                edges_per_network[t],
                "capacities must cover every edge of network {t}"
            );
        }
        let mut by_demand = vec![Vec::new(); num_demands];
        let mut by_network = vec![Vec::new(); num_networks];
        let mut profit_range = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, inst) in instances.iter().enumerate() {
            assert_eq!(inst.id.index(), i, "instance ids must be dense");
            by_demand[inst.demand.index()].push(inst.id);
            by_network[inst.network.index()].push(inst.id);
            profit_range = (
                profit_range.0.min(inst.profit),
                profit_range.1.max(inst.profit),
            );
        }
        if instances.is_empty() {
            profit_range = NO_PROFITS;
        }
        let uniform_capacity = capacities
            .iter()
            .flat_map(|c| c.iter())
            .all(|&c| (c - 1.0).abs() <= EPS);
        let capacity_index = if uniform_capacity {
            None
        } else {
            Some(CapacityIndex::build(&capacities))
        };
        Self {
            instances,
            num_demands,
            num_networks,
            edges_per_network,
            capacities,
            by_demand,
            by_network,
            uniform_capacity,
            capacity_index,
            profit_range,
        }
    }

    /// Number of demand instances `|D|`.
    #[inline]
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Number of demands `m`.
    #[inline]
    pub fn num_demands(&self) -> usize {
        self.num_demands
    }

    /// Number of networks `r`.
    #[inline]
    pub fn num_networks(&self) -> usize {
        self.num_networks
    }

    /// Heap bytes committed by the universe's own buffers (instance table,
    /// path run arenas, secondary indices, capacities) — the memory-audit
    /// input the `perfbench` harness reports as `universe.bytes` and
    /// folds into `bytes_per_demand`. Counts
    /// capacities, not lengths, so it reflects what the allocator holds.
    pub fn committed_bytes(&self) -> usize {
        let mut bytes = self.instances.capacity() * std::mem::size_of::<DemandInstance>();
        for inst in &self.instances {
            bytes += inst.path.heap_bytes();
        }
        bytes += self.edges_per_network.capacity() * std::mem::size_of::<usize>();
        for caps in &self.capacities {
            bytes += caps.capacity() * std::mem::size_of::<f64>();
        }
        bytes += self.capacities.capacity() * std::mem::size_of::<Vec<f64>>();
        for group in self.by_demand.iter().chain(&self.by_network) {
            bytes += group.capacity() * std::mem::size_of::<InstanceId>();
        }
        bytes += self.by_demand.capacity() * std::mem::size_of::<Vec<InstanceId>>();
        bytes += self.by_network.capacity() * std::mem::size_of::<Vec<InstanceId>>();
        bytes
    }

    /// Number of edges of network `t`.
    #[inline]
    pub fn num_edges(&self, t: NetworkId) -> usize {
        self.edges_per_network[t.index()]
    }

    /// Total number of edges over all networks (`|E|`).
    pub fn total_edges(&self) -> usize {
        self.edges_per_network.iter().sum()
    }

    /// The instance with identifier `d`.
    #[inline]
    pub fn instance(&self, d: InstanceId) -> &DemandInstance {
        &self.instances[d.index()]
    }

    /// Iterates over all instances.
    pub fn instances(&self) -> impl Iterator<Item = &DemandInstance> {
        self.instances.iter()
    }

    /// Iterates over all instance identifiers.
    pub fn instance_ids(&self) -> impl Iterator<Item = InstanceId> {
        (0..self.instances.len()).map(InstanceId::new)
    }

    /// The instances of demand `a` (`Inst(a)`).
    #[inline]
    pub fn instances_of_demand(&self, a: DemandId) -> &[InstanceId] {
        &self.by_demand[a.index()]
    }

    /// The instances on network `t` (`D(T)`).
    #[inline]
    pub fn instances_on_network(&self, t: NetworkId) -> &[InstanceId] {
        &self.by_network[t.index()]
    }

    /// Capacity of a global edge.
    #[inline]
    pub fn capacity(&self, e: GlobalEdge) -> f64 {
        self.capacities[e.network.index()][e.edge.index()]
    }

    /// The per-edge capacities of network `t`.
    #[inline]
    pub fn capacities(&self, t: NetworkId) -> &[f64] {
        &self.capacities[t.index()]
    }

    /// Profit `p(d)`.
    #[inline]
    pub fn profit(&self, d: InstanceId) -> f64 {
        self.instances[d.index()].profit
    }

    /// Height `h(d)`.
    #[inline]
    pub fn height(&self, d: InstanceId) -> f64 {
        self.instances[d.index()].height
    }

    /// The owning demand `a_d`.
    #[inline]
    pub fn demand_of(&self, d: InstanceId) -> DemandId {
        self.instances[d.index()].demand
    }

    /// Maximum profit over all instances (`p_max`); 1.0 for an empty
    /// universe. `O(1)`: cached at construction and on every splice.
    #[inline]
    pub fn max_profit(&self) -> f64 {
        self.profit_range.1
    }

    /// Minimum profit over all instances (`p_min`); 1.0 for an empty
    /// universe. `O(1)`: cached at construction and on every splice.
    #[inline]
    pub fn min_profit(&self) -> f64 {
        self.profit_range.0
    }

    /// Minimum height over all instances (`h_min`); 1.0 for an empty
    /// universe.
    pub fn min_height(&self) -> f64 {
        self.instances
            .iter()
            .map(|d| d.height)
            .fold(1.0_f64, f64::min)
    }

    /// Returns `true` if every instance has height exactly 1 (the
    /// unit-height case).
    pub fn is_unit_height(&self) -> bool {
        self.instances.iter().all(|d| (d.height - 1.0).abs() <= EPS)
    }

    /// Returns `true` if every capacity is exactly 1 (the uniform-bandwidth
    /// setting of the arXiv text). Cached at construction, `O(1)`.
    #[inline]
    pub fn is_uniform_capacity(&self) -> bool {
        self.uniform_capacity
    }

    /// The range-minimum index over the capacities; present exactly when
    /// the universe is non-uniform (the uniform setting never needs it).
    #[inline]
    pub fn capacity_index(&self) -> Option<&CapacityIndex> {
        self.capacity_index.as_ref()
    }

    /// Minimum capacity over every edge of a path of `network` —
    /// `O(runs)` via the range-minimum index (constant 1.0 in the uniform
    /// setting); `f64::INFINITY` for an empty path.
    pub fn min_capacity_on_path(&self, network: NetworkId, path: &EdgePath) -> f64 {
        match &self.capacity_index {
            Some(index) => index.min_on_path(network, path),
            None if path.is_empty() => f64::INFINITY,
            None => 1.0,
        }
    }

    /// Two instances *overlap* if they belong to the same network and their
    /// paths share an edge (Section 2).
    pub fn overlapping(&self, a: InstanceId, b: InstanceId) -> bool {
        let (da, db) = (&self.instances[a.index()], &self.instances[b.index()]);
        da.network == db.network && da.path.intersects(&db.path)
    }

    /// Two instances *conflict* if they belong to the same demand or they
    /// overlap (Section 2).
    pub fn conflicting(&self, a: InstanceId, b: InstanceId) -> bool {
        if a == b {
            return false;
        }
        let (da, db) = (&self.instances[a.index()], &self.instances[b.index()]);
        da.demand == db.demand || (da.network == db.network && da.path.intersects(&db.path))
    }

    /// Returns `true` if the given set of instances is an *independent set*:
    /// pairwise non-conflicting (Section 2). This is the feasibility notion
    /// of the unit-height case.
    pub fn is_independent_set(&self, selection: &[InstanceId]) -> bool {
        for (i, &a) in selection.iter().enumerate() {
            for &b in &selection[i + 1..] {
                if a == b || self.conflicting(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// Per-edge load of a selection on a given network: `load[e]` = sum of
    /// heights of selected instances through edge `e`.
    ///
    /// One scan of the selection plus one prefix-sum pass over the
    /// network's edges: `O(|selection| + E_t)`.
    pub fn edge_loads(&self, network: NetworkId, selection: &[InstanceId]) -> Vec<f64> {
        let mut load = Vec::new();
        let on_network = selection
            .iter()
            .copied()
            .filter(|&d| self.instances[d.index()].network == network);
        self.loads_into(network, on_network, &mut load);
        load
    }

    /// Difference-array accounting shared by [`edge_loads`] and
    /// [`is_feasible`]: refills `load` with the per-edge load of
    /// `instances` (all on `network`). Each interval run adds `+h` at its
    /// start and `−h` past its end in iteration order, then one prefix-sum
    /// pass turns the differences into loads — `O(k + E_t)` for `k`
    /// instances, with no per-edge work per path.
    ///
    /// [`edge_loads`]: DemandInstanceUniverse::edge_loads
    /// [`is_feasible`]: DemandInstanceUniverse::is_feasible
    fn loads_into(
        &self,
        network: NetworkId,
        instances: impl Iterator<Item = InstanceId>,
        load: &mut Vec<f64>,
    ) {
        let m = self.num_edges(network);
        load.clear();
        load.resize(m + 1, 0.0);
        for d in instances {
            let inst = &self.instances[d.index()];
            debug_assert_eq!(inst.network, network);
            for run in inst.path.runs() {
                load[run.start as usize] += inst.height;
                load[run.end as usize + 1] -= inst.height;
            }
        }
        load.truncate(m);
        let mut acc = 0.0;
        for l in load.iter_mut() {
            acc += *l;
            *l = acc;
        }
    }

    /// Returns `true` if the selection respects capacities on every edge and
    /// selects at most one instance per demand (the feasibility notion of
    /// the arbitrary-height / capacitated case, Section 6).
    ///
    /// A single pass buckets the selection by network with a stable
    /// counting sort, then each touched network's loads are accumulated
    /// from its own bucket: `O(|selection| + r + Σ E_t over touched
    /// networks)` for `r` networks. Buckets keep selection order, so the
    /// loads compared against the capacities are bit-identical to
    /// [`edge_loads`](DemandInstanceUniverse::edge_loads).
    pub fn is_feasible(&self, selection: &[InstanceId]) -> bool {
        // At most one instance per demand (which also rules out a repeated
        // instance); count the selection per network on the way.
        let mut used = vec![false; self.num_demands];
        let mut bucket_start = vec![0usize; self.num_networks + 1];
        for &d in selection {
            let inst = &self.instances[d.index()];
            if std::mem::replace(&mut used[inst.demand.index()], true) {
                return false;
            }
            bucket_start[inst.network.index() + 1] += 1;
        }
        for t in 0..self.num_networks {
            bucket_start[t + 1] += bucket_start[t];
        }
        let mut fill = bucket_start.clone();
        let mut bucketed = vec![InstanceId(0); selection.len()];
        for &d in selection {
            let t = self.instances[d.index()].network.index();
            bucketed[fill[t]] = d;
            fill[t] += 1;
        }
        // Capacity constraints per touched network.
        let mut load = Vec::new();
        for (t, caps) in self.capacities.iter().enumerate() {
            let bucket = &bucketed[bucket_start[t]..bucket_start[t + 1]];
            if bucket.is_empty() {
                continue;
            }
            self.loads_into(NetworkId::new(t), bucket.iter().copied(), &mut load);
            if load.iter().zip(caps).any(|(&l, &cap)| l > cap + EPS) {
                return false;
            }
        }
        true
    }

    /// Returns `true` if `candidate` can be added to `selection` without
    /// violating feasibility. `selection` is assumed feasible.
    ///
    /// The check is an endpoint sweep over the run intersections of the
    /// candidate with the selection — `O(k log k)` where `k` is the number
    /// of intersecting runs, with no per-edge work. Under uniform
    /// capacities each constant-load segment compares against 1.0; under
    /// arbitrary capacities it compares against an `O(1)` range-minimum
    /// query on the [`CapacityIndex`]. (Greedy loops that add many
    /// candidates should prefer a [`LoadTracker`].)
    pub fn can_add(&self, selection: &[InstanceId], candidate: InstanceId) -> bool {
        let cand = &self.instances[candidate.index()];
        for &d in selection {
            if d == candidate || self.demand_of(d) == cand.demand {
                return false;
            }
        }
        if self.uniform_capacity {
            // Event sweep: +h at the start of every run intersection with
            // the candidate's path, −h past its end; the load within the
            // candidate's path changes only at those endpoints.
            let mut events: Vec<(u32, f64)> = Vec::new();
            for &d in selection {
                let inst = &self.instances[d.index()];
                if inst.network != cand.network {
                    continue;
                }
                let shared = cand.path.intersection(&inst.path);
                for run in shared.runs() {
                    events.push((run.start, inst.height));
                    events.push((run.end + 1, -inst.height));
                }
            }
            if events.is_empty() {
                return cand.height <= 1.0 + EPS;
            }
            events.sort_unstable_by_key(|e| e.0);
            let mut load = cand.height;
            let mut i = 0;
            while i < events.len() {
                let at = events[i].0;
                while i < events.len() && events[i].0 == at {
                    load += events[i].1;
                    i += 1;
                }
                if load > 1.0 + EPS {
                    return false;
                }
            }
            true
        } else {
            // Arbitrary capacities: the same event sweep, but instead of a
            // constant capacity every maximal constant-load segment is
            // checked against a range-minimum query on the capacity index —
            // `O(k log k + runs)` with no per-edge work.
            let index = self
                .capacity_index
                .as_ref()
                .expect("non-uniform universes build a capacity index");
            let t = cand.network;
            let mut events: Vec<(u32, f64)> = Vec::new();
            for &d in selection {
                let inst = &self.instances[d.index()];
                if inst.network != t {
                    continue;
                }
                let shared = cand.path.intersection(&inst.path);
                for run in shared.runs() {
                    events.push((run.start, inst.height));
                    events.push((run.end + 1, -inst.height));
                }
            }
            events.sort_unstable_by_key(|e| e.0);
            let mut load = cand.height;
            let mut ei = 0;
            for run in cand.path.runs() {
                while ei < events.len() && events[ei].0 <= run.start {
                    load += events[ei].1;
                    ei += 1;
                }
                let mut seg_start = run.start;
                loop {
                    let next = if ei < events.len() {
                        events[ei].0
                    } else {
                        u32::MAX
                    };
                    let seg_end = if next <= run.end { next - 1 } else { run.end };
                    if seg_start <= seg_end
                        && load > index.min_in(t, seg_start as usize, seg_end as usize) + EPS
                    {
                        return false;
                    }
                    if next > run.end {
                        break;
                    }
                    while ei < events.len() && events[ei].0 == next {
                        load += events[ei].1;
                        ei += 1;
                    }
                    seg_start = next;
                }
            }
            true
        }
    }

    /// Total profit of a selection.
    pub fn total_profit(&self, selection: &[InstanceId]) -> f64 {
        selection.iter().map(|&d| self.profit(d)).sum()
    }

    /// Restricts a selection to the instances scheduled on network `t`.
    pub fn restrict_to_network(&self, selection: &[InstanceId], t: NetworkId) -> Vec<InstanceId> {
        selection
            .iter()
            .copied()
            .filter(|&d| self.instances[d.index()].network == t)
            .collect()
    }
}

/// A demand joining a universe through
/// [`DemandInstanceUniverse::apply_demand_delta`]: its profit and height
/// plus the pre-computed instances in canonical enumeration order (per
/// accessible network ascending, then per admissible start time ascending —
/// exactly the order `TreeProblem::universe` / `LineProblem::universe`
/// would enumerate them).
#[derive(Debug, Clone)]
pub struct ArrivingDemand {
    /// Profit of the demand (shared by all its instances).
    pub profit: f64,
    /// Height of the demand (shared by all its instances).
    pub height: f64,
    /// The instances to create: `(network, path, start)` triples in
    /// canonical order.
    pub instances: Vec<(NetworkId, EdgePath, Option<u32>)>,
}

/// The renumbering produced by one
/// [`DemandInstanceUniverse::apply_demand_delta`] splice, reusable across
/// epochs (every buffer is cleared and refilled in place).
///
/// A splice removes the instances of the expired demands and appends the
/// instances of the arriving demands at the tail, renumbering both demand
/// and instance ids so the result is **byte-identical** to a from-scratch
/// universe over the surviving demand set (survivors keep their relative
/// order; arrivals follow). The delta records the old→new id maps, which
/// instances are new, the *dirty networks* — the networks that gained or
/// lost at least one instance — and where each removed instance stood in
/// its network's [`instances_on_network`](DemandInstanceUniverse::instances_on_network)
/// list. A clean network's list changes only by the renumbering, and a
/// dirty one keeps its survivors as a prefix, so per-network state keyed
/// by list position (the conflict-degree upkeep in `netsched-distrib`)
/// is updated where the batch actually landed and nowhere else.
#[derive(Debug, Clone, Default)]
pub struct UniverseDelta {
    /// Old instance id → new instance id; `u32::MAX` for removed instances.
    instance_remap: Vec<u32>,
    /// Old demand id → new demand id; `u32::MAX` for expired demands.
    demand_remap: Vec<u32>,
    /// Instances with new id `>= first_added` were appended by the splice.
    first_added: u32,
    /// Per-network flag: `true` when the network gained or lost instances.
    dirty: Vec<bool>,
    /// `(network, position)` of every removed instance, its position
    /// being its index in the network's pre-splice instance list; sorted.
    removed_positions: Vec<(NetworkId, u32)>,
    /// Splice scratch: per-old-demand expiry marks, reused across epochs so
    /// a steady-state splice allocates nothing.
    expired_mark: Vec<bool>,
    /// Splice scratch: per network, the pre-splice instances visited so
    /// far (the next one's position in the network's list).
    network_seen: Vec<u32>,
}

impl UniverseDelta {
    /// An empty delta, ready to be filled by a splice.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, old_instances: usize, old_demands: usize, networks: usize) {
        self.instance_remap.clear();
        self.instance_remap.reserve(old_instances);
        self.demand_remap.clear();
        self.demand_remap.reserve(old_demands);
        self.dirty.clear();
        self.dirty.resize(networks, false);
        self.removed_positions.clear();
        self.expired_mark.clear();
        self.expired_mark.resize(old_demands, false);
        self.network_seen.clear();
        self.network_seen.resize(networks, 0);
        self.first_added = 0;
    }

    /// Old instance id → new instance id map (`u32::MAX` = removed).
    #[inline]
    pub fn instance_remap(&self) -> &[u32] {
        &self.instance_remap
    }

    /// The new id of a pre-splice instance, or `None` if it was removed.
    #[inline]
    pub fn map_instance(&self, old: InstanceId) -> Option<InstanceId> {
        match self.instance_remap[old.index()] {
            u32::MAX => None,
            new => Some(InstanceId(new)),
        }
    }

    /// Old demand id → new demand id map (`u32::MAX` = expired).
    #[inline]
    pub fn demand_remap(&self) -> &[u32] {
        &self.demand_remap
    }

    /// The new id of a pre-splice demand, or `None` if it expired.
    #[inline]
    pub fn map_demand(&self, old: DemandId) -> Option<DemandId> {
        match self.demand_remap[old.index()] {
            u32::MAX => None,
            new => Some(DemandId(new)),
        }
    }

    /// First instance id that belongs to an arriving demand (all appended
    /// instances form a suffix of the new id space).
    #[inline]
    pub fn first_added(&self) -> usize {
        self.first_added as usize
    }

    /// The per-network dirty bitmap: `dirty()[t]` is `true` when network
    /// `t` gained or lost at least one instance in the splice.
    #[inline]
    pub fn dirty(&self) -> &[bool] {
        &self.dirty
    }

    /// Iterates over the dirty networks.
    pub fn dirty_networks(&self) -> impl Iterator<Item = NetworkId> + '_ {
        self.dirty
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d)
            .map(|(t, _)| NetworkId::new(t))
    }

    /// Number of dirty networks.
    pub fn num_dirty(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// Number of instances the universe held **before** the splice (the
    /// domain of [`instance_remap`](UniverseDelta::instance_remap)).
    #[inline]
    pub fn old_num_instances(&self) -> usize {
        self.instance_remap.len()
    }

    /// Number of demands the universe held **before** the splice (the
    /// domain of [`demand_remap`](UniverseDelta::demand_remap)).
    #[inline]
    pub fn old_num_demands(&self) -> usize {
        self.demand_remap.len()
    }

    /// `(network, position)` of every instance the splice removed, where
    /// `position` is its index in the network's **pre-splice**
    /// [`instances_on_network`](DemandInstanceUniverse::instances_on_network)
    /// list; sorted by network, then position. Each named network is
    /// dirty.
    #[inline]
    pub fn removed_positions(&self) -> &[(NetworkId, u32)] {
        &self.removed_positions
    }

    /// Iterates over the **old** ids of the instances the splice removed —
    /// the stable id-map query the warm re-solve engine uses to clear the
    /// expired instances' dual contributions.
    pub fn removed_instances(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.instance_remap
            .iter()
            .enumerate()
            .filter(|&(_, &new)| new == u32::MAX)
            .map(|(old, _)| InstanceId::new(old))
    }
}

impl DemandInstanceUniverse {
    /// Splices a demand batch into the universe in place: removes every
    /// instance of the demands in `expired` (current dense ids) and appends
    /// the instances of `arrivals` at the tail, renumbering demand and
    /// instance ids densely.
    ///
    /// The result is byte-identical to building a fresh universe over the
    /// surviving demands (in their current relative order) followed by the
    /// arrivals: survivors keep their relative order, so the compaction is
    /// a stable shift, and all appended instances form a suffix. Paths of
    /// surviving instances are moved, not recomputed — the splice costs
    /// `O(|D| + Σ new instances)` with no per-edge or per-path work.
    ///
    /// `delta` is cleared and refilled with the old→new id maps, the
    /// dirty-network bitmap and the removed instances' list positions
    /// (reuse one [`UniverseDelta`] across epochs to avoid reallocation).
    ///
    /// # Panics
    ///
    /// Panics when an expired id is out of range or listed twice, or when
    /// an arriving instance names an unknown network.
    pub fn apply_demand_delta(
        &mut self,
        expired: &[DemandId],
        arrivals: &[ArrivingDemand],
        delta: &mut UniverseDelta,
    ) {
        delta.reset(self.instances.len(), self.num_demands, self.num_networks);

        // Demand renumbering: survivors compact stably, arrivals append.
        for &a in expired {
            assert!(a.index() < self.num_demands, "expired demand {a} unknown");
            assert!(!delta.expired_mark[a.index()], "demand {a} expired twice");
            delta.expired_mark[a.index()] = true;
        }
        let mut next_demand = 0u32;
        for r in &delta.expired_mark {
            delta
                .demand_remap
                .push(if *r { u32::MAX } else { next_demand });
            if !*r {
                next_demand += 1;
            }
        }

        // Compact the instance list in place (moves within the existing
        // buffer — no path clones and no reallocation of the instance
        // vector, so a clean steady-state epoch is allocation-free).
        let mut next_instance = 0u32;
        {
            let UniverseDelta {
                instance_remap,
                demand_remap,
                dirty,
                removed_positions,
                expired_mark,
                network_seen,
                ..
            } = delta;
            self.instances.retain_mut(|inst| {
                let t = inst.network.index();
                let position = network_seen[t];
                network_seen[t] += 1;
                if expired_mark[inst.demand.index()] {
                    instance_remap.push(u32::MAX);
                    dirty[t] = true;
                    removed_positions.push((inst.network, position));
                    false
                } else {
                    instance_remap.push(next_instance);
                    inst.id = InstanceId(next_instance);
                    inst.demand = DemandId(demand_remap[inst.demand.index()]);
                    next_instance += 1;
                    true
                }
            });
        }
        delta.first_added = next_instance;
        // Positions were recorded in instance order; each network's are
        // already ascending.
        delta.removed_positions.sort_unstable();

        // Append the arrivals.
        for arrival in arrivals {
            let demand = DemandId(next_demand);
            next_demand += 1;
            for (network, path, start) in &arrival.instances {
                assert!(
                    network.index() < self.num_networks,
                    "arriving instance names unknown network {network}"
                );
                delta.dirty[network.index()] = true;
                self.instances.push(DemandInstance {
                    id: InstanceId(next_instance),
                    demand,
                    network: *network,
                    profit: arrival.profit,
                    height: arrival.height,
                    path: path.clone(),
                    start: *start,
                });
                next_instance += 1;
            }
        }
        self.num_demands = next_demand as usize;

        // Rebuild the secondary indices (O(|D|), allocation-reusing).
        for group in &mut self.by_demand {
            group.clear();
        }
        self.by_demand.resize(self.num_demands, Vec::new());
        for group in &mut self.by_network {
            group.clear();
        }
        let mut profit_range = (f64::INFINITY, f64::NEG_INFINITY);
        for inst in &self.instances {
            self.by_demand[inst.demand.index()].push(inst.id);
            self.by_network[inst.network.index()].push(inst.id);
            profit_range = (
                profit_range.0.min(inst.profit),
                profit_range.1.max(inst.profit),
            );
        }
        self.profit_range = if self.instances.is_empty() {
            NO_PROFITS
        } else {
            profit_range
        };
    }
}

/// Incremental congestion accounting for greedy selection loops.
///
/// The second phase of the two-phase framework repeatedly asks "does
/// instance `d` still fit next to everything selected so far?". Answering
/// that with [`DemandInstanceUniverse::can_add`] costs `O(|selection|)` per
/// query; a `LoadTracker` instead maintains the per-edge loads of the
/// running selection, so each query and each commit costs `O(path(d))`
/// regardless of how much is already selected — the whole phase is
/// `O(Σ path length of the raised instances)`.
#[derive(Debug, Clone)]
pub struct LoadTracker {
    /// Per-network, per-edge load of the committed selection.
    loads: Vec<Vec<f64>>,
    /// Demands already covered by a committed instance.
    used_demand: Vec<bool>,
    /// Instances already committed.
    selected: Vec<bool>,
}

impl LoadTracker {
    /// Creates an empty tracker for a universe.
    pub fn new(universe: &DemandInstanceUniverse) -> Self {
        Self {
            loads: (0..universe.num_networks())
                .map(|t| vec![0.0; universe.num_edges(NetworkId::new(t))])
                .collect(),
            used_demand: vec![false; universe.num_demands()],
            selected: vec![false; universe.num_instances()],
        }
    }

    /// Returns `true` if `d` can join the committed selection without
    /// violating demand-uniqueness or any edge capacity.
    pub fn fits(&self, universe: &DemandInstanceUniverse, d: InstanceId) -> bool {
        let inst = universe.instance(d);
        if self.selected[d.index()] || self.used_demand[inst.demand.index()] {
            return false;
        }
        inst.fits_under(
            &self.loads[inst.network.index()],
            universe.capacities(inst.network),
        )
    }

    /// Commits `d` to the selection (the caller must have checked
    /// [`LoadTracker::fits`]).
    pub fn commit(&mut self, universe: &DemandInstanceUniverse, d: InstanceId) {
        let inst = universe.instance(d);
        debug_assert!(!self.selected[d.index()]);
        debug_assert!(!self.used_demand[inst.demand.index()]);
        self.selected[d.index()] = true;
        self.used_demand[inst.demand.index()] = true;
        inst.add_load(&mut self.loads[inst.network.index()]);
    }

    /// Commits `d` if it fits; returns whether it was committed.
    pub fn try_commit(&mut self, universe: &DemandInstanceUniverse, d: InstanceId) -> bool {
        if self.fits(universe, d) {
            self.commit(universe, d);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Universe mirroring Figure 1 of the paper: a single line resource of 10
    /// timeslots with demands A, B, C of heights 0.5, 0.7, 0.4.
    ///
    /// A occupies timeslots 0..=4, B occupies 3..=5, C occupies 6..=9, so
    /// {A, C} and {B, C} fit but {A, B} does not (0.5 + 0.7 > 1 on slots
    /// 3 and 4).
    fn figure1_universe() -> DemandInstanceUniverse {
        let mk = |i: usize, a: usize, s: usize, e: usize, h: f64| DemandInstance {
            id: InstanceId::new(i),
            demand: DemandId::new(a),
            network: NetworkId::new(0),
            profit: 1.0,
            height: h,
            path: EdgePath::interval(s, e),
            start: Some(s as u32),
        };
        DemandInstanceUniverse::new(
            vec![
                mk(0, 0, 0, 4, 0.5),
                mk(1, 1, 3, 5, 0.7),
                mk(2, 2, 6, 9, 0.4),
            ],
            3,
            vec![10],
            None,
        )
    }

    #[test]
    fn figure1_feasibility_matches_paper() {
        let u = figure1_universe();
        let a = InstanceId(0);
        let b = InstanceId(1);
        let c = InstanceId(2);
        // {A, C} and {B, C} can be scheduled, {A, B} cannot (0.5 + 0.7 > 1 on
        // shared timeslots 3, 4).
        assert!(u.is_feasible(&[a, c]));
        assert!(u.is_feasible(&[b, c]));
        assert!(!u.is_feasible(&[a, b]));
        assert!(!u.is_feasible(&[a, b, c]));
    }

    #[test]
    fn overlap_and_conflict() {
        let u = figure1_universe();
        assert!(u.overlapping(InstanceId(0), InstanceId(1)));
        assert!(!u.overlapping(InstanceId(1), InstanceId(2)));
        assert!(!u.overlapping(InstanceId(0), InstanceId(2)));
        assert!(u.conflicting(InstanceId(0), InstanceId(1)));
        assert!(!u.conflicting(InstanceId(0), InstanceId(2)));
        assert!(!u.conflicting(InstanceId(0), InstanceId(0)));
    }

    #[test]
    fn independent_set_check_unit_height_semantics() {
        let u = figure1_universe();
        assert!(u.is_independent_set(&[InstanceId(0), InstanceId(2)]));
        assert!(!u.is_independent_set(&[InstanceId(0), InstanceId(1)]));
        assert!(u.is_independent_set(&[]));
        // A repeated instance is not an independent set.
        assert!(!u.is_independent_set(&[InstanceId(0), InstanceId(0)]));
    }

    #[test]
    fn can_add_respects_capacity_and_demand_uniqueness() {
        let u = figure1_universe();
        assert!(u.can_add(&[InstanceId(0)], InstanceId(2)));
        assert!(!u.can_add(&[InstanceId(0)], InstanceId(1)));
        assert!(!u.can_add(&[InstanceId(0)], InstanceId(0)));
    }

    #[test]
    fn loads_and_profit() {
        let u = figure1_universe();
        let loads = u.edge_loads(NetworkId(0), &[InstanceId(0), InstanceId(2)]);
        assert!((loads[0] - 0.5).abs() < 1e-12);
        assert!((loads[6] - 0.4).abs() < 1e-12);
        assert!((loads[5] - 0.0).abs() < 1e-12);
        assert!((u.total_profit(&[InstanceId(0), InstanceId(2)]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn same_demand_instances_conflict() {
        // Two copies of the same demand on different networks conflict even
        // though their paths live on different networks.
        let mk = |i: usize, t: usize| DemandInstance {
            id: InstanceId::new(i),
            demand: DemandId::new(0),
            network: NetworkId::new(t),
            profit: 2.0,
            height: 1.0,
            path: EdgePath::interval(0, 1),
            start: None,
        };
        let u = DemandInstanceUniverse::new(vec![mk(0, 0), mk(1, 1)], 1, vec![3, 3], None);
        assert!(u.conflicting(InstanceId(0), InstanceId(1)));
        assert!(!u.overlapping(InstanceId(0), InstanceId(1)));
        assert!(!u.is_feasible(&[InstanceId(0), InstanceId(1)]));
        assert!(u.is_feasible(&[InstanceId(0)]));
    }

    #[test]
    fn capacitated_universe() {
        // One edge with capacity 2.0 admits two unit-height instances of
        // different demands.
        let mk = |i: usize, a: usize| DemandInstance {
            id: InstanceId::new(i),
            demand: DemandId::new(a),
            network: NetworkId::new(0),
            profit: 1.0,
            height: 1.0,
            path: EdgePath::interval(0, 0),
            start: None,
        };
        let u = DemandInstanceUniverse::new(
            vec![mk(0, 0), mk(1, 1), mk(2, 2)],
            3,
            vec![1],
            Some(vec![vec![2.0]]),
        );
        assert!(!u.is_uniform_capacity());
        assert!(u.is_feasible(&[InstanceId(0), InstanceId(1)]));
        assert!(!u.is_feasible(&[InstanceId(0), InstanceId(1), InstanceId(2)]));
    }

    /// Splice vs from-scratch: removing demands 0 and 2 of the Figure 1
    /// universe and appending a new one must reproduce the fresh build
    /// exactly, field by field.
    #[test]
    fn splice_matches_from_scratch_rebuild() {
        let mut u = figure1_universe();
        let arrival = ArrivingDemand {
            profit: 4.0,
            height: 0.9,
            instances: vec![
                (NetworkId(0), EdgePath::interval(1, 2), Some(1)),
                (NetworkId(0), EdgePath::interval(2, 3), Some(2)),
            ],
        };
        let mut delta = UniverseDelta::new();
        u.apply_demand_delta(
            &[DemandId(0), DemandId(2)],
            std::slice::from_ref(&arrival),
            &mut delta,
        );

        // From scratch: survivor (old demand 1) then the arrival.
        let fresh = DemandInstanceUniverse::new(
            vec![
                DemandInstance {
                    id: InstanceId(0),
                    demand: DemandId(0),
                    network: NetworkId(0),
                    profit: 1.0,
                    height: 0.7,
                    path: EdgePath::interval(3, 5),
                    start: Some(3),
                },
                DemandInstance {
                    id: InstanceId(1),
                    demand: DemandId(1),
                    network: NetworkId(0),
                    profit: 4.0,
                    height: 0.9,
                    path: EdgePath::interval(1, 2),
                    start: Some(1),
                },
                DemandInstance {
                    id: InstanceId(2),
                    demand: DemandId(1),
                    network: NetworkId(0),
                    profit: 4.0,
                    height: 0.9,
                    path: EdgePath::interval(2, 3),
                    start: Some(2),
                },
            ],
            2,
            vec![10],
            None,
        );
        assert_eq!(u.num_instances(), fresh.num_instances());
        assert_eq!(u.num_demands(), fresh.num_demands());
        for d in u.instance_ids() {
            assert_eq!(u.instance(d), fresh.instance(d), "instance {d}");
        }
        for a in 0..u.num_demands() {
            assert_eq!(
                u.instances_of_demand(DemandId::new(a)),
                fresh.instances_of_demand(DemandId::new(a))
            );
        }
        assert_eq!(
            u.instances_on_network(NetworkId(0)),
            fresh.instances_on_network(NetworkId(0))
        );
        assert_eq!((u.min_profit(), u.max_profit()), (1.0, 4.0));
        assert_eq!((fresh.min_profit(), fresh.max_profit()), (1.0, 4.0));
        // Delta bookkeeping: old instance 1 survived as 0, the rest removed,
        // the two new instances form the tail.
        assert_eq!(delta.instance_remap(), &[u32::MAX, 0, u32::MAX]);
        assert_eq!(delta.demand_remap(), &[u32::MAX, 0, u32::MAX]);
        assert_eq!(delta.first_added(), 1);
        assert_eq!(delta.map_instance(InstanceId(1)), Some(InstanceId(0)));
        assert_eq!(delta.map_instance(InstanceId(0)), None);
        assert_eq!(delta.map_demand(DemandId(1)), Some(DemandId(0)));
        assert_eq!(delta.num_dirty(), 1);
        assert_eq!(
            delta.dirty_networks().collect::<Vec<_>>(),
            vec![NetworkId(0)]
        );

        // The cached profit range shrinks when its maximum expires.
        u.apply_demand_delta(&[DemandId(1)], &[], &mut delta);
        assert_eq!((u.min_profit(), u.max_profit()), (1.0, 1.0));
    }

    #[test]
    fn splice_marks_only_touched_networks_dirty() {
        // Two networks; expire a demand living only on network 1.
        let mk = |i: usize, a: usize, t: usize| DemandInstance {
            id: InstanceId::new(i),
            demand: DemandId::new(a),
            network: NetworkId::new(t),
            profit: 1.0,
            height: 1.0,
            path: EdgePath::interval(0, 1),
            start: None,
        };
        let mut u = DemandInstanceUniverse::new(
            vec![mk(0, 0, 0), mk(1, 1, 1), mk(2, 2, 0)],
            3,
            vec![3, 3],
            None,
        );
        let mut delta = UniverseDelta::new();
        u.apply_demand_delta(&[DemandId(1)], &[], &mut delta);
        assert_eq!(delta.dirty(), &[false, true]);
        assert_eq!(u.num_instances(), 2);
        assert_eq!(u.num_demands(), 2);
        // Survivors keep relative order under renumbered ids.
        assert_eq!(u.instance(InstanceId(1)).demand, DemandId(1));
        assert_eq!(u.instances_on_network(NetworkId(1)), &[] as &[InstanceId]);
    }

    /// The recorded positions are the removed instances' indices in the
    /// pre-splice per-network lists, sorted by network although the
    /// splice visits them in instance order; network 2 loses every
    /// instance. A batch that expires nothing records nothing.
    #[test]
    fn splice_records_removed_list_positions() {
        // (demand, network) of instances 0..8.
        let layout = [
            (0, 0),
            (0, 1),
            (1, 0),
            (2, 2),
            (3, 0),
            (3, 1),
            (4, 2),
            (5, 1),
        ];
        let instances = layout
            .iter()
            .enumerate()
            .map(|(i, &(a, t))| DemandInstance {
                id: InstanceId::new(i),
                demand: DemandId::new(a),
                network: NetworkId::new(t),
                profit: 1.0,
                height: 1.0,
                path: EdgePath::interval(0, 1),
                start: None,
            })
            .collect();
        let mut u = DemandInstanceUniverse::new(instances, 6, vec![3, 3, 3], None);
        let before: Vec<Vec<InstanceId>> = (0..3)
            .map(|t| u.instances_on_network(NetworkId::new(t)).to_vec())
            .collect();
        let mut delta = UniverseDelta::new();
        u.apply_demand_delta(&[DemandId(2), DemandId(3), DemandId(4)], &[], &mut delta);

        let mut expected = Vec::new();
        for (t, list) in before.iter().enumerate() {
            for (position, &d) in list.iter().enumerate() {
                if delta.map_instance(d).is_none() {
                    expected.push((NetworkId::new(t), position as u32));
                }
            }
        }
        assert_eq!(delta.removed_positions(), &expected[..]);
        assert_eq!(
            expected,
            vec![
                (NetworkId(0), 2),
                (NetworkId(1), 1),
                (NetworkId(2), 0),
                (NetworkId(2), 1)
            ]
        );
        assert!(u.instances_on_network(NetworkId(2)).is_empty());

        // Arrivals alone dirty a network but remove nothing; so does an
        // empty batch.
        let arrival = ArrivingDemand {
            profit: 2.0,
            height: 1.0,
            instances: vec![(NetworkId(2), EdgePath::interval(0, 2), None)],
        };
        u.apply_demand_delta(&[], std::slice::from_ref(&arrival), &mut delta);
        assert_eq!(delta.dirty(), &[false, false, true]);
        assert!(delta.removed_positions().is_empty());
        u.apply_demand_delta(&[], &[], &mut delta);
        assert_eq!(delta.num_dirty(), 0);
        assert!(delta.removed_positions().is_empty());
    }

    #[test]
    #[should_panic(expected = "expired twice")]
    fn splice_rejects_duplicate_expiry() {
        let mut u = figure1_universe();
        let mut delta = UniverseDelta::new();
        u.apply_demand_delta(&[DemandId(0), DemandId(0)], &[], &mut delta);
    }

    #[test]
    fn stats_accessors() {
        let u = figure1_universe();
        assert_eq!(u.num_instances(), 3);
        assert_eq!(u.num_demands(), 3);
        assert_eq!(u.num_networks(), 1);
        assert_eq!(u.total_edges(), 10);
        assert!(!u.is_unit_height());
        assert!(u.is_uniform_capacity());
        assert!((u.min_height() - 0.4).abs() < 1e-12);
        assert_eq!(u.instances_of_demand(DemandId(1)), &[InstanceId(1)]);
        assert_eq!(u.instances_on_network(NetworkId(0)).len(), 3);
        assert_eq!(
            u.restrict_to_network(&[InstanceId(0), InstanceId(2)], NetworkId(0))
                .len(),
            2
        );
    }
}
