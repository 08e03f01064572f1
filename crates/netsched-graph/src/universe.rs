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
///
/// # Stable ids
///
/// Instance and demand ids are slots that only grow: a splice
/// ([`apply_demand_delta`](DemandInstanceUniverse::apply_demand_delta))
/// appends arrivals behind the last slot and leaves a **tombstone** in
/// every slot it expires, so the ids of survivors never change and a
/// splice costs `O(churn + dirty lists)`. [`num_instances`] and
/// [`num_demands`] count live entries; per-id columns are sized by
/// [`instance_slots`] and [`demand_slots`]. The iterators and the
/// per-demand and per-network lists skip tombstones. A [compaction]
/// reclaims the tombstones by relabelling the survivors `0, 1, …` in id
/// order, which is the universe a from-scratch build over the survivors
/// would hold; it runs once tombstones pile up (see
/// [`TOMBSTONE_DIVISOR`]).
///
/// [`num_instances`]: DemandInstanceUniverse::num_instances
/// [`num_demands`]: DemandInstanceUniverse::num_demands
/// [`instance_slots`]: DemandInstanceUniverse::instance_slots
/// [`demand_slots`]: DemandInstanceUniverse::demand_slots
/// [compaction]: DemandInstanceUniverse::compact
#[derive(Debug, Clone)]
pub struct DemandInstanceUniverse {
    /// One slot per instance id; a tombstone keeps the fields it had.
    instances: Vec<DemandInstance>,
    /// Per demand id: `false` once the demand expired (a tombstone).
    demand_live: Vec<bool>,
    live_instances: usize,
    live_demands: usize,
    num_networks: usize,
    /// Number of edges of each network.
    edges_per_network: Vec<usize>,
    /// Capacity of each edge of each network (1.0 in the uniform-bandwidth
    /// setting of the arXiv text; arbitrary positive values in the
    /// capacitated/IPPS setting).
    capacities: Vec<Vec<f64>>,
    /// Instances of each demand (`Inst(a)`); empty for a tombstone.
    by_demand: Vec<Vec<InstanceId>>,
    /// Live instances on each network (`D(T)`), ascending by id.
    by_network: Vec<Vec<InstanceId>>,
    /// Cached: `true` when every capacity is exactly 1.0 (the
    /// uniform-bandwidth setting), enabling `O(runs)` feasibility checks.
    uniform_capacity: bool,
    /// Range-minimum index over the capacities; built only in the
    /// non-uniform setting (the uniform one never consults it).
    capacity_index: Option<CapacityIndex>,
    /// Cached `(p_min, p_max)` over the live instances, kept current by
    /// every splice; see [`DemandInstanceUniverse::min_profit`].
    profit_range: (f64, f64),
    /// Live instances whose profit is `p_min`, and those whose profit is
    /// `p_max`: a splice rescans only when one of them drops to zero.
    profit_range_counts: (usize, usize),
    /// `(instance, demand)` slot counts the per-id columns were reserved
    /// for at open or at the last compaction; `None` for a universe that
    /// never reserved (a one-shot solve's).
    slot_budget: Option<(usize, usize)>,
}

/// Empty-universe convention for the cached profit range.
const NO_PROFITS: (f64, f64) = (1.0, 1.0);

/// The compaction policy's one constant: a universe is due for
/// [compaction](DemandInstanceUniverse::compact) once its tombstoned
/// instance (or demand) slots exceed `1 / TOMBSTONE_DIVISOR` of its live
/// ones, and the per-id columns reserve that much headroom at open and
/// after each compaction, so tombstones cost at most about 6% of capacity
/// and the columns never grow by amortized doubling between compactions.
pub const TOMBSTONE_DIVISOR: usize = 16;

/// Grows `column`'s capacity to exactly `target` elements when it holds
/// less (no amortized doubling); a no-op otherwise.
pub fn reserve_slots<T>(column: &mut Vec<T>, target: usize) {
    if target > column.capacity() {
        column.reserve_exact(target - column.len());
    }
}

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
        for (i, inst) in instances.iter().enumerate() {
            assert_eq!(inst.id.index(), i, "instance ids must be dense");
            by_demand[inst.demand.index()].push(inst.id);
            by_network[inst.network.index()].push(inst.id);
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
        let mut universe = Self {
            live_instances: instances.len(),
            live_demands: num_demands,
            instances,
            demand_live: vec![true; num_demands],
            num_networks,
            edges_per_network,
            capacities,
            by_demand,
            by_network,
            uniform_capacity,
            capacity_index,
            profit_range: NO_PROFITS,
            profit_range_counts: (0, 0),
            slot_budget: None,
        };
        universe.rescan_profit_range();
        universe
    }

    /// Number of live demand instances `|D|`.
    #[inline]
    pub fn num_instances(&self) -> usize {
        self.live_instances
    }

    /// Number of live demands `m`.
    #[inline]
    pub fn num_demands(&self) -> usize {
        self.live_demands
    }

    /// One past the largest instance id: live instances plus tombstones.
    /// Per-instance columns are sized by this.
    #[inline]
    pub fn instance_slots(&self) -> usize {
        self.instances.len()
    }

    /// One past the largest demand id: live demands plus tombstones.
    /// Per-demand columns are sized by this.
    #[inline]
    pub fn demand_slots(&self) -> usize {
        self.demand_live.len()
    }

    /// `true` when instance `d` is live (not a tombstone).
    #[inline]
    pub fn is_live(&self, d: InstanceId) -> bool {
        self.demand_live[self.instances[d.index()].demand.index()]
    }

    /// `true` when demand `a` is live (not a tombstone).
    #[inline]
    pub fn is_live_demand(&self, a: DemandId) -> bool {
        self.demand_live[a.index()]
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
        bytes += self.demand_live.capacity();
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

    /// Iterates over the live instances, ascending by id.
    pub fn instances(&self) -> impl Iterator<Item = &DemandInstance> {
        self.instances
            .iter()
            .filter(|inst| self.demand_live[inst.demand.index()])
    }

    /// Iterates over the live instance identifiers, ascending.
    pub fn instance_ids(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.instances().map(|inst| inst.id)
    }

    /// Iterates over the live demand identifiers, ascending.
    pub fn demand_ids(&self) -> impl Iterator<Item = DemandId> + '_ {
        self.demand_live
            .iter()
            .enumerate()
            .filter(|&(_, &live)| live)
            .map(|(a, _)| DemandId::new(a))
    }

    /// The instances of demand `a` (`Inst(a)`); empty for a tombstone.
    #[inline]
    pub fn instances_of_demand(&self, a: DemandId) -> &[InstanceId] {
        &self.by_demand[a.index()]
    }

    /// The live instances on network `t` (`D(T)`), ascending by id.
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

    /// Maximum profit over the live instances (`p_max`); 1.0 for an empty
    /// universe. `O(1)`: cached at construction and on every splice.
    #[inline]
    pub fn max_profit(&self) -> f64 {
        self.profit_range.1
    }

    /// Minimum profit over the live instances (`p_min`); 1.0 for an empty
    /// universe. `O(1)`: cached at construction and on every splice.
    #[inline]
    pub fn min_profit(&self) -> f64 {
        self.profit_range.0
    }

    /// Minimum height over the live instances (`h_min`); 1.0 for an empty
    /// universe.
    pub fn min_height(&self) -> f64 {
        self.instances().map(|d| d.height).fold(1.0_f64, f64::min)
    }

    /// Returns `true` if every live instance has height exactly 1 (the
    /// unit-height case).
    pub fn is_unit_height(&self) -> bool {
        self.instances().all(|d| (d.height - 1.0).abs() <= EPS)
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
        let mut used = vec![false; self.demand_slots()];
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

/// What one [`DemandInstanceUniverse::apply_demand_delta`] splice changed,
/// reusable across epochs (every buffer is cleared and refilled in place).
///
/// A splice leaves a tombstone in every slot of an expired demand and of
/// its instances and appends the arrivals behind the last slot, so no
/// surviving id changes and the delta carries no id map: it names the
/// tombstoned instances and demands, where the arrivals start, the *dirty
/// networks* — the networks that gained or lost at least one instance —
/// and where each removed instance stood in its network's
/// [`instances_on_network`](DemandInstanceUniverse::instances_on_network)
/// list. A clean network's list does not change at all, and a dirty one
/// keeps its survivors as a prefix in their order, so per-network state
/// keyed by list position (the conflict-degree upkeep in
/// `netsched-distrib`) is updated where the batch actually landed and
/// nowhere else. Every field is `O(batch)`.
#[derive(Debug, Clone, Default)]
pub struct UniverseDelta {
    /// Instances the splice tombstoned, ascending.
    removed: Vec<InstanceId>,
    /// Demands the splice tombstoned, ascending.
    expired: Vec<DemandId>,
    /// Instances with id `>= first_added` were appended by the splice.
    first_added: u32,
    /// Per-network flag: `true` when the network gained or lost instances.
    dirty: Vec<bool>,
    /// `(network, position)` of every removed instance, its position
    /// being its index in the network's pre-splice instance list; sorted.
    removed_positions: Vec<(NetworkId, u32)>,
}

impl UniverseDelta {
    /// An empty delta, ready to be filled by a splice.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, instance_slots: usize, networks: usize) {
        self.removed.clear();
        self.expired.clear();
        self.dirty.clear();
        self.dirty.resize(networks, false);
        self.removed_positions.clear();
        self.first_added = instance_slots as u32;
    }

    /// The instances the splice tombstoned, ascending — the query the warm
    /// re-solve engine uses to clear their dual contributions.
    #[inline]
    pub fn removed_instances(&self) -> &[InstanceId] {
        &self.removed
    }

    /// The demands the splice tombstoned, ascending.
    #[inline]
    pub fn expired_demands(&self) -> &[DemandId] {
        &self.expired
    }

    /// First instance id that belongs to an arriving demand (all appended
    /// instances form a suffix of the id space): the instance slot count
    /// before the splice.
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

    /// `(network, position)` of every instance the splice removed, where
    /// `position` is its index in the network's **pre-splice**
    /// [`instances_on_network`](DemandInstanceUniverse::instances_on_network)
    /// list; sorted by network, then position. Each named network is
    /// dirty.
    #[inline]
    pub fn removed_positions(&self) -> &[(NetworkId, u32)] {
        &self.removed_positions
    }
}

/// The relabelling of one [`DemandInstanceUniverse::compact`]: old → new
/// instance and demand ids, `u32::MAX` for a reclaimed tombstone. Both
/// maps are monotone on survivors (a stable compaction), so every
/// consumer keeps its per-id state in the same relative order. Reusable
/// across compactions.
#[derive(Debug, Clone, Default)]
pub struct Compaction {
    instance_remap: Vec<u32>,
    demand_remap: Vec<u32>,
}

impl Compaction {
    /// An empty relabelling, ready to be filled by a compaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Old instance id → new instance id (`u32::MAX` = tombstone).
    #[inline]
    pub fn instance_remap(&self) -> &[u32] {
        &self.instance_remap
    }

    /// Old demand id → new demand id (`u32::MAX` = tombstone).
    #[inline]
    pub fn demand_remap(&self) -> &[u32] {
        &self.demand_remap
    }

    /// The new id of an instance, or `None` for a tombstone.
    #[inline]
    pub fn map_instance(&self, old: InstanceId) -> Option<InstanceId> {
        match self.instance_remap[old.index()] {
            u32::MAX => None,
            new => Some(InstanceId(new)),
        }
    }

    /// The new id of a demand, or `None` for a tombstone.
    #[inline]
    pub fn map_demand(&self, old: DemandId) -> Option<DemandId> {
        match self.demand_remap[old.index()] {
            u32::MAX => None,
            new => Some(DemandId(new)),
        }
    }
}

impl DemandInstanceUniverse {
    /// Splices a demand batch into the universe in place: tombstones every
    /// demand in `expired` (live ids) and its instances, and appends the
    /// instances of `arrivals` as new slots at the tail (one new demand id
    /// each, its instances in their given order).
    ///
    /// No surviving id changes, so the splice costs `O(batch log |D| +
    /// Σ dirty-list tails + Σ new instances)`: each expired instance is
    /// found in its network's sorted list by binary search, each dirty
    /// list closes its gaps once, and no path is recomputed. Survivors
    /// keep their relative order and arrivals follow, so the universe
    /// relabelled by [`compact`](DemandInstanceUniverse::compact) equals a
    /// fresh build over the surviving demands (in their current order)
    /// followed by the arrivals.
    ///
    /// `delta` is cleared and refilled with the tombstoned ids, the
    /// dirty-network bitmap and the removed instances' list positions
    /// (reuse one [`UniverseDelta`] across epochs to avoid reallocation).
    ///
    /// # Panics
    ///
    /// Panics when an expired id is out of range, a tombstone or listed
    /// twice, or when an arriving instance names an unknown network.
    pub fn apply_demand_delta(
        &mut self,
        expired: &[DemandId],
        arrivals: &[ArrivingDemand],
        delta: &mut UniverseDelta,
    ) {
        delta.reset(self.instances.len(), self.num_networks);
        let mut rescan = false;

        // Tombstone the expired demands and find their instances' list
        // positions.
        for &a in expired {
            assert!(
                a.index() < self.demand_live.len(),
                "expired demand {a} unknown"
            );
            assert!(self.demand_live[a.index()], "demand {a} expired twice");
            self.demand_live[a.index()] = false;
            self.live_demands -= 1;
            delta.expired.push(a);
            let list = std::mem::take(&mut self.by_demand[a.index()]);
            for &d in &list {
                let inst = &self.instances[d.index()];
                let t = inst.network;
                let position = self.by_network[t.index()]
                    .binary_search(&d)
                    .expect("a live instance is on its network's list");
                delta.removed.push(d);
                delta.removed_positions.push((t, position as u32));
                delta.dirty[t.index()] = true;
            }
            if let Some(&d) = list.first() {
                rescan |= self.drop_profit(self.instances[d.index()].profit, list.len());
            }
            self.live_instances -= list.len();
        }
        delta.expired.sort_unstable();
        delta.removed.sort_unstable();
        delta.removed_positions.sort_unstable();

        // Close each dirty list's gaps, from its first removed position on.
        for gone in delta.removed_positions.chunk_by(|a, b| a.0 == b.0) {
            let list = &mut self.by_network[gone[0].0.index()];
            let first = gone[0].1 as usize;
            let mut write = first;
            let mut next = 0;
            for read in first..list.len() {
                if next < gone.len() && gone[next].1 as usize == read {
                    next += 1;
                } else {
                    list[write] = list[read];
                    write += 1;
                }
            }
            list.truncate(write);
        }

        // Append the arrivals.
        for arrival in arrivals {
            let demand = DemandId::new(self.demand_live.len());
            self.demand_live.push(true);
            self.live_demands += 1;
            let mut ids = Vec::with_capacity(arrival.instances.len());
            for (network, path, start) in &arrival.instances {
                assert!(
                    network.index() < self.num_networks,
                    "arriving instance names unknown network {network}"
                );
                delta.dirty[network.index()] = true;
                let id = InstanceId::new(self.instances.len());
                self.instances.push(DemandInstance {
                    id,
                    demand,
                    network: *network,
                    profit: arrival.profit,
                    height: arrival.height,
                    path: path.clone(),
                    start: *start,
                });
                self.by_network[network.index()].push(id);
                ids.push(id);
            }
            self.add_profit(arrival.profit, ids.len());
            self.live_instances += ids.len();
            self.by_demand.push(ids);
        }
        if rescan {
            self.rescan_profit_range();
        }
    }

    /// Counts `k` live instances of profit `p` into the cached range.
    fn add_profit(&mut self, p: f64, k: usize) {
        if k == 0 {
            return;
        }
        if self.live_instances == 0 {
            self.profit_range = (p, p);
            self.profit_range_counts = (k, k);
            return;
        }
        let (range, counts) = (&mut self.profit_range, &mut self.profit_range_counts);
        if p < range.0 {
            *range = (p, range.1);
            counts.0 = k;
        } else if p == range.0 {
            counts.0 += k;
        }
        if p > range.1 {
            *range = (range.0, p);
            counts.1 = k;
        } else if p == range.1 {
            counts.1 += k;
        }
    }

    /// Counts `k` expiring instances of profit `p` out of the cached
    /// range; returns `true` when an end of the range lost its last
    /// instance and must be rescanned.
    fn drop_profit(&mut self, p: f64, k: usize) -> bool {
        let counts = &mut self.profit_range_counts;
        let mut stale = false;
        if p == self.profit_range.0 {
            counts.0 -= k;
            stale |= counts.0 == 0;
        }
        if p == self.profit_range.1 {
            counts.1 -= k;
            stale |= counts.1 == 0;
        }
        stale
    }

    /// Recomputes the cached profit range over the live instances.
    fn rescan_profit_range(&mut self) {
        let mut range = (f64::INFINITY, f64::NEG_INFINITY);
        let mut counts = (0, 0);
        for inst in self.instances() {
            let p = inst.profit;
            if p < range.0 {
                (range.0, counts.0) = (p, 0);
            }
            if p == range.0 {
                counts.0 += 1;
            }
            if p > range.1 {
                (range.1, counts.1) = (p, 0);
            }
            if p == range.1 {
                counts.1 += 1;
            }
        }
        (self.profit_range, self.profit_range_counts) = if self.live_instances == 0 {
            (NO_PROFITS, (0, 0))
        } else {
            (range, counts)
        };
    }

    /// Tombstoned instance slots.
    #[inline]
    pub fn tombstones(&self) -> usize {
        self.instances.len() - self.live_instances
    }

    /// `true` when the next splice, which removes `outgoing` live
    /// instances and appends `incoming` new ones, should be preceded by a
    /// [`compact`](DemandInstanceUniverse::compact): the tombstones would
    /// then exceed `1 / TOMBSTONE_DIVISOR` of the live instances (or
    /// demands), or the instance slots would outgrow the headroom reserved
    /// at open or at the last compaction.
    pub fn needs_compaction(&self, outgoing: usize, incoming: usize) -> bool {
        let tombstones = self.tombstones() + outgoing;
        let live = (self.live_instances + incoming).saturating_sub(outgoing);
        let dead_demands = self.demand_live.len() - self.live_demands;
        tombstones * TOMBSTONE_DIVISOR > live
            || dead_demands * TOMBSTONE_DIVISOR > self.live_demands
            || self
                .slot_budget
                .is_some_and(|(slots, _)| self.instances.len() + incoming > slots)
    }

    /// The instance slot count per-instance columns should reserve: the
    /// slots plus the headroom reserved at open or at the last compaction
    /// (0 for a universe that never reserved, whose columns grow as `Vec`s
    /// do).
    #[inline]
    pub fn instance_slot_target(&self) -> usize {
        self.slot_budget
            .map_or(0, |(slots, _)| slots.max(self.instances.len()))
    }

    /// The demand slot count per-demand columns should reserve; see
    /// [`instance_slot_target`](DemandInstanceUniverse::instance_slot_target).
    #[inline]
    pub fn demand_slot_target(&self) -> usize {
        self.slot_budget
            .map_or(0, |(_, slots)| slots.max(self.demand_live.len()))
    }

    /// Reserves headroom of `1 / TOMBSTONE_DIVISOR` of the live instances
    /// (and demands) in the universe's per-id columns, and records the
    /// budget the other per-id columns reserve up to
    /// ([`instance_slot_target`](DemandInstanceUniverse::instance_slot_target)).
    /// Serving cores call it at open; every compaction renews it.
    pub fn reserve_headroom(&mut self) {
        let budget = (
            self.instances.len() + self.live_instances / TOMBSTONE_DIVISOR + 1,
            self.demand_live.len() + self.live_demands / TOMBSTONE_DIVISOR + 1,
        );
        self.slot_budget = Some(budget);
        reserve_slots(&mut self.instances, budget.0);
        reserve_slots(&mut self.demand_live, budget.1);
        reserve_slots(&mut self.by_demand, budget.1);
    }

    /// Reclaims every tombstone: the live instances and demands are
    /// relabelled `0, 1, …` in id order, and `out` is refilled with the
    /// old → new maps every per-id consumer follows. The result equals a
    /// fresh build over the live demands in their current order. The only
    /// `O(|D|)` pass of the splice path; a no-op relabelling (identity
    /// maps) when there are no tombstones.
    pub fn compact(&mut self, out: &mut Compaction) {
        out.demand_remap.clear();
        let mut next = 0u32;
        out.demand_remap
            .extend(self.demand_live.iter().map(|&live| {
                if live {
                    next += 1;
                    next - 1
                } else {
                    u32::MAX
                }
            }));
        out.instance_remap.clear();
        let mut next_instance = 0u32;
        {
            let Compaction {
                instance_remap,
                demand_remap,
            } = out;
            self.instances
                .retain_mut(|inst| match demand_remap[inst.demand.index()] {
                    u32::MAX => {
                        instance_remap.push(u32::MAX);
                        false
                    }
                    demand => {
                        instance_remap.push(next_instance);
                        inst.id = InstanceId(next_instance);
                        inst.demand = DemandId(demand);
                        next_instance += 1;
                        true
                    }
                });
        }
        let mut slot = 0;
        self.by_demand.retain(|_| {
            slot += 1;
            self.demand_live[slot - 1]
        });
        for id in self
            .by_demand
            .iter_mut()
            .chain(&mut self.by_network)
            .flatten()
        {
            *id = InstanceId(out.instance_remap[id.index()]);
        }
        self.demand_live.clear();
        self.demand_live.resize(self.live_demands, true);
        self.rescan_profit_range();
        if self.slot_budget.is_some() {
            self.reserve_headroom();
        }
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
            used_demand: vec![false; universe.demand_slots()],
            selected: vec![false; universe.instance_slots()],
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

    /// Every field of `u` relabelled to dense ids (a compaction of a
    /// clone) against a from-scratch build.
    fn assert_relabels_to(u: &DemandInstanceUniverse, fresh: &DemandInstanceUniverse) {
        let mut dense = u.clone();
        dense.compact(&mut Compaction::new());
        assert_eq!(dense.instance_slots(), fresh.instance_slots());
        assert_eq!(dense.num_instances(), fresh.num_instances());
        assert_eq!(dense.num_demands(), fresh.num_demands());
        assert_eq!(dense.demand_slots(), fresh.demand_slots());
        for d in fresh.instance_ids() {
            assert_eq!(dense.instance(d), fresh.instance(d), "instance {d}");
        }
        for a in fresh.demand_ids() {
            assert_eq!(
                dense.instances_of_demand(a),
                fresh.instances_of_demand(a),
                "demand {a}"
            );
        }
        for t in 0..fresh.num_networks() {
            let t = NetworkId::new(t);
            assert_eq!(dense.instances_on_network(t), fresh.instances_on_network(t));
        }
        assert_eq!(
            (dense.min_profit(), dense.max_profit()),
            (fresh.min_profit(), fresh.max_profit())
        );
        assert_eq!(
            (u.min_profit(), u.max_profit()),
            (fresh.min_profit(), fresh.max_profit())
        );
    }

    /// Splice vs from-scratch: removing demands 0 and 2 of the Figure 1
    /// universe and appending a new one keeps every surviving id, and the
    /// relabelled universe reproduces the fresh build field by field.
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
        assert_relabels_to(&u, &fresh);
        // Stable ids: the survivor keeps id 1, the arrivals take 3 and 4.
        assert_eq!(u.instance_slots(), 5);
        assert_eq!(u.num_instances(), 3);
        assert_eq!(u.demand_slots(), 4);
        assert!(!u.is_live(InstanceId(0)) && u.is_live(InstanceId(1)));
        assert_eq!(
            u.instance_ids().collect::<Vec<_>>(),
            vec![InstanceId(1), InstanceId(3), InstanceId(4)]
        );
        assert_eq!(
            u.instances_of_demand(DemandId(3)),
            &[InstanceId(3), InstanceId(4)]
        );
        assert!(u.instances_of_demand(DemandId(0)).is_empty());
        // Delta bookkeeping: the tombstones, where the arrivals start.
        assert_eq!(delta.removed_instances(), &[InstanceId(0), InstanceId(2)]);
        assert_eq!(delta.expired_demands(), &[DemandId(0), DemandId(2)]);
        assert_eq!(delta.first_added(), 3);
        assert_eq!(delta.num_dirty(), 1);
        assert_eq!(
            delta.dirty_networks().collect::<Vec<_>>(),
            vec![NetworkId(0)]
        );

        // The compaction relabels in order and says so.
        let mut compaction = Compaction::new();
        u.compact(&mut compaction);
        assert_eq!(compaction.instance_remap(), &[u32::MAX, 0, u32::MAX, 1, 2]);
        assert_eq!(compaction.demand_remap(), &[u32::MAX, 0, u32::MAX, 1]);
        assert_eq!(compaction.map_instance(InstanceId(3)), Some(InstanceId(1)));
        assert_eq!(compaction.map_demand(DemandId(2)), None);

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
        // Survivors keep their ids.
        assert_eq!(u.instance(InstanceId(2)).demand, DemandId(2));
        assert_eq!(u.instances_on_network(NetworkId(1)), &[] as &[InstanceId]);
        assert_eq!(
            u.instances_on_network(NetworkId(0)),
            &[InstanceId(0), InstanceId(2)]
        );
    }

    /// The recorded positions are the removed instances' indices in the
    /// pre-splice per-network lists, sorted by network although the
    /// splice visits them demand by demand; network 2 loses every
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
        u.apply_demand_delta(&[DemandId(4), DemandId(2), DemandId(3)], &[], &mut delta);

        let mut expected = Vec::new();
        for (t, list) in before.iter().enumerate() {
            for (position, &d) in list.iter().enumerate() {
                if !u.is_live(d) {
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

    /// A random multi-network universe: `demands` demands, each with one
    /// or two instances on random networks and random profits from a
    /// small set (so profit-range ends tie and expire).
    fn random_arrival(rng: &mut u64, networks: usize) -> ArrivingDemand {
        let mut next = |bound: u64| {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            *rng % bound
        };
        let count = 1 + next(2) as usize;
        let instances = (0..count)
            .map(|_| {
                let start = next(8) as usize;
                (
                    NetworkId::new(next(networks as u64) as usize),
                    EdgePath::interval(start, start + next(4) as usize),
                    Some(start as u32),
                )
            })
            .collect();
        ArrivingDemand {
            profit: 1.0 + next(4) as f64,
            height: 1.0,
            instances,
        }
    }

    /// The survivors plus arrivals, built from scratch in order.
    fn rebuild(kept: &[ArrivingDemand], networks: usize) -> DemandInstanceUniverse {
        let mut instances = Vec::new();
        for (a, arrival) in kept.iter().enumerate() {
            for (network, path, start) in &arrival.instances {
                instances.push(DemandInstance {
                    id: InstanceId::new(instances.len()),
                    demand: DemandId::new(a),
                    network: *network,
                    profit: arrival.profit,
                    height: arrival.height,
                    path: path.clone(),
                    start: *start,
                });
            }
        }
        DemandInstanceUniverse::new(instances, kept.len(), vec![12; networks], None)
    }

    /// After random splices (and a compaction now and then), the universe
    /// relabelled to dense ids equals a from-scratch build over the
    /// survivors plus arrivals; each dirty network list drops exactly its
    /// expired members, in order; and every recorded position names the
    /// removed instance in the pre-splice list (what the conflict upkeep
    /// relies on).
    #[test]
    fn random_splices_relabel_to_the_from_scratch_universe() {
        let networks = 4;
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut kept: Vec<ArrivingDemand> = (0..12)
            .map(|_| random_arrival(&mut rng, networks))
            .collect();
        let mut u = rebuild(&kept, networks);
        // Live demand ids in the order `kept` lists them.
        let mut ids: Vec<DemandId> = u.demand_ids().collect();
        let mut delta = UniverseDelta::new();
        let mut compaction = Compaction::new();
        for round in 0..60u64 {
            let mut pick = |bound: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % bound.max(1) as u64) as usize
            };
            let mut doomed: Vec<usize> = (0..pick(4)).map(|_| pick(kept.len())).collect();
            doomed.sort_unstable();
            doomed.dedup();
            doomed.retain(|&k| k < kept.len());
            let expired: Vec<DemandId> = doomed.iter().map(|&k| ids[k]).collect();
            let arrivals: Vec<ArrivingDemand> = (0..pick(4))
                .map(|_| random_arrival(&mut rng, networks))
                .collect();
            let before: Vec<Vec<InstanceId>> = (0..networks)
                .map(|t| u.instances_on_network(NetworkId::new(t)).to_vec())
                .collect();
            u.apply_demand_delta(&expired, &arrivals, &mut delta);

            let removed: Vec<InstanceId> = delta.removed_instances().to_vec();
            for &(t, position) in delta.removed_positions() {
                let d = before[t.index()][position as usize];
                assert!(removed.binary_search(&d).is_ok(), "round {round}");
                assert!(delta.dirty()[t.index()]);
            }
            assert_eq!(delta.removed_positions().len(), removed.len());
            for (t, list) in before.iter().enumerate() {
                let survivors: Vec<InstanceId> =
                    list.iter().copied().filter(|d| u.is_live(*d)).collect();
                let now = u.instances_on_network(NetworkId::new(t));
                assert_eq!(&now[..survivors.len()], &survivors[..], "round {round}");
                assert!(now[survivors.len()..]
                    .iter()
                    .all(|d| d.index() >= delta.first_added()));
                if !delta.dirty()[t] {
                    assert_eq!(now, &list[..]);
                }
            }

            for &k in doomed.iter().rev() {
                kept.remove(k);
                ids.remove(k);
            }
            let first = u.demand_slots() - arrivals.len();
            ids.extend((first..u.demand_slots()).map(DemandId::new));
            kept.extend(arrivals);
            assert_relabels_to(&u, &rebuild(&kept, networks));
            if round % 17 == 16 {
                u.compact(&mut compaction);
                for id in &mut ids {
                    *id = compaction.map_demand(*id).expect("live demands survive");
                }
                assert_eq!(u.tombstones(), 0);
            }
        }
    }

    #[test]
    fn compaction_is_due_once_tombstones_pass_the_divisor() {
        let mut rng = 7u64;
        let kept: Vec<ArrivingDemand> = (0..64).map(|_| random_arrival(&mut rng, 2)).collect();
        let mut u = rebuild(&kept, 2);
        u.reserve_headroom();
        let live = u.num_instances();
        assert!(!u.needs_compaction(0, 0));
        assert!(u.instances.capacity() >= live + live / TOMBSTONE_DIVISOR);
        // Outgrowing the reserved slots is due too.
        assert!(u.needs_compaction(0, live / TOMBSTONE_DIVISOR + 2));
        let mut delta = UniverseDelta::new();
        let mut a = 0;
        while !u.needs_compaction(0, 0) {
            u.apply_demand_delta(&[DemandId::new(a)], &[], &mut delta);
            a += 1;
        }
        assert!(u.tombstones() * TOMBSTONE_DIVISOR > u.num_instances());
        u.compact(&mut Compaction::new());
        assert!(!u.needs_compaction(0, 0));
        assert_eq!(u.instance_slots(), u.num_instances());
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
