//! Warm-started incremental re-solve with certificate repair.
//!
//! The paper's approximation guarantee is carried by the **dual
//! certificate** (Lemma 3.1 / 6.1), not by any particular execution order
//! of the first phase: weak duality holds for *any* non-negative dual
//! assignment, scaled by the worst satisfaction slackness `λ` over the
//! eligible instances. That freedom is what this module exploits. Instead
//! of re-running the two-phase engine from zero duals after every demand
//! splice, a [`WarmState`] persists
//!
//! * the [`DualState`] of the previous solve,
//! * per-instance **raise records** (the exact `β` amounts each instance's
//!   raises added, so an expiring demand's contributions can be cleared
//!   out point by point — the "Fenwick point-clears"),
//! * the surviving first-phase **stack** (the selection seed the second
//!   phase replays), its layers numbered in replay order, with each
//!   stack item's commit decision from the last solve, and
//! * cached constraint-LHS lower bounds (and, recomputed from the universe
//!   on [restore](WarmState::restore), relative heights and per-network
//!   `λ` minima).
//!
//! [`WarmState::splice`] follows a universe splice in `O(batch)`: expired
//! instances' `β` contributions are subtracted, expired demands' `α`
//! variables drop to zero, and the per-instance columns keep tombstones
//! in the expired instances' slots (ids never change between
//! compactions); [`WarmState::compact`] follows a universe compaction.
//! [`run_two_phase_warm_on`] then **repairs**
//! the certificate: only the instances of *dirty* networks (the networks
//! the splices touched since the last solve) can have lost satisfaction —
//! a clean network's `β` range sums are untouched and `α` variables only
//! ever grow — so the MIS/raise loop re-runs over the dirty shards alone,
//! until every eligible instance is `(1 − ε)`-satisfied again. The second
//! phase then re-decides only the stack items whose decision can have
//! moved (see below).
//!
//! # What a repair pass touches
//!
//! A solve gathers its **active list** once — the instances of the dirty
//! networks (every instance on a fresh state), in ascending id order — and
//! buckets it by layering group; the repair passes and the LHS refresh
//! walk only that list. The narrow rule's `ξ` folds one minimum relative
//! height per network, and only the dirty networks' minima are recomputed.
//!
//! Within one pass the duals only grow, so an instance that is satisfied
//! stays satisfied. Each group therefore selects once the instances still
//! below the *final* stage's threshold `1 − ξ^stages`; each stage filters
//! that list at its own threshold, and each MIS step re-checks only the
//! previous step's unsatisfied list. The lists keep group order, so every
//! MIS sees exactly the input a full rescan of the group would give it
//! (debug builds assert this at every step).
//!
//! # The second phase, incremental
//!
//! The paper's second phase pops the stack newest layer first and commits
//! every instance that still fits its edge capacities and whose demand no
//! newer commit already serves. The instances of one layer form an
//! independent set: they share no demand and no edge. So a decision
//! depends only on the decisions of newer layers: on its own network
//! through the edge loads, and on other networks only through the other
//! instances of its demand.
//!
//! A solve therefore re-decides, from zero loads and in replay order, only
//! the stack items of the networks whose own inputs moved: where a splice
//! removed a committed instance, or where the repair pushed an item (every
//! network, on a fresh or restored state). Every other network keeps its
//! decisions from the previous solve. When a re-decided commit moves, the
//! networks holding an older-layer instance of the same demand whose
//! decision can move with it are replayed in a further round, re-deciding
//! from that instance's layer down, until nothing moves. By induction over
//! replay order that fixpoint is the full replay's unique assignment;
//! debug builds assert it against the full replay after every solve. The
//! selection and the raised set are read off the per-instance commit and
//! newest-layer columns, which are already in id order.
//!
//! # The one engine
//!
//! This module holds the crate's only optimized first phase. A **fresh**
//! [`WarmState`] has zero duals, an empty stack and every shard pending, so
//! its repair pass is the paper's full group × stage × MIS/raise loop: the
//! cold entry points ([`run_two_phase`](crate::run_two_phase),
//! [`run_two_phase_on`](crate::run_two_phase_on)) are solves on a fresh
//! state, and [`run_two_phase_traced`](crate::run_two_phase_traced) is one
//! that records every step into a [`Trace`] as it goes. A fresh-state solve
//! reproduces the independent sequential
//! [`run_two_phase_reference`](crate::run_two_phase_reference) step for
//! step — same MISes, raises, schedule, `λ` bits and step counts — which
//! the unit tests below and `tests/shard_equivalence.rs` pin.
//!
//! # The relaxed equivalence contract
//!
//! A warm re-solve on a resumed state is **certificate-equivalent**, not
//! byte-equivalent, to a cold solve: the schedule may differ, but every
//! epoch's certificate must verify (`λ ≥ 1 − ε`, feasible schedule) and the
//! certified ratio must stay within the solver's worst-case guarantee. Both
//! are checked in-engine: in debug builds they are asserted outright; in
//! all builds a failed check triggers the safety valve — the state is
//! reset and the solve re-runs on a fresh state, which *is* the cold
//! solve.

use crate::analysis::{StepRecord, Trace};
use crate::budget::{Budget, CertificateQuality};
use crate::config::{approximation_bound, stage_xi, stages_per_epoch, AlgorithmConfig, RaiseRule};
use crate::duals::DualState;
use crate::framework::derive_strategy;
use crate::solution::{EngineTimings, RunDiagnostics, Solution};
use netsched_decomp::InstanceLayering;
use netsched_distrib::{sharded_mis, RoundStats, ShardedConflictGraph};
use netsched_graph::{
    reserve_slots, Compaction, DemandInstanceUniverse, EdgeId, InstanceId, NetworkId,
    UniverseDelta, EPS,
};
use netsched_workloads::json::{FromJson, JsonValue, ToJson};
use std::time::Instant;

/// Linked-arena sentinel: "no entry".
const NIL: u32 = u32::MAX;

/// The persisted solver state a warm re-solve resumes from; see the
/// [module docs](self).
///
/// # Memory layout
///
/// The raise records and the replay stack — the two structures that used
/// to be vectors-of-vectors — live in flat SoA arenas keyed by `u32`
/// indices:
///
/// * **Raise records**: per-instance columns `rec_network` / `rec_head` /
///   `rec_tail` point into a shared `(beta_edge, beta_amount, beta_next)`
///   linked arena. Appending a raise entry reuses a freelist slot, so
///   steady-state repair epochs never allocate; an expiring instance's
///   chain is point-cleared and returned to the freelist.
/// * **Replay stack**: `stack_items` + `stack_offsets` (one `[start, end)`
///   range per MIS, oldest first) + `layer_seq`. An item is *current*
///   while its instance is live and the item sits in the instance's
///   newest layer; splices only count items out, and compactions drop the
///   others in place.
///
/// Per-instance and per-demand columns are indexed by the universe's
/// stable ids, tombstones included: a splice costs `O(batch)`, and only a
/// [compaction](WarmState::compact) walks every column.
#[derive(Debug, Clone)]
pub struct WarmState {
    rule: RaiseRule,
    duals: DualState,
    /// Per instance: its network, where its recorded raises live.
    rec_network: Vec<NetworkId>,
    /// Per instance: head of its `β` entry chain in the arena (`NIL` =
    /// no recorded raises).
    rec_head: Vec<u32>,
    /// Per instance: tail of its chain (appends preserve insertion order,
    /// so point-clears subtract in exactly the order raises accumulated).
    rec_tail: Vec<u32>,
    /// Arena column: the edge of each `β` entry.
    beta_edge: Vec<EdgeId>,
    /// Arena column: the accumulated amount of each `β` entry.
    beta_amount: Vec<f64>,
    /// Arena column: next entry of the owning chain (`NIL` = end); doubles
    /// as the freelist link for dead slots.
    beta_next: Vec<u32>,
    /// Head of the arena freelist (`NIL` = arena is dense).
    free_head: u32,
    /// The surviving first-phase stack, flattened (oldest MIS first) — the
    /// selection seed the second phase replays.
    stack_items: Vec<InstanceId>,
    /// MIS `m` of the stack is `stack_items[stack_offsets[m] ..
    /// stack_offsets[m + 1]]`.
    stack_offsets: Vec<u32>,
    /// MIS `m` of the stack has sequence number `layer_seq[m]`. Numbers
    /// grow from 1, oldest to newest, and compactions drop empty layers
    /// without renumbering the rest, so two numbers order their layers in
    /// replay order across networks and across epochs.
    layer_seq: Vec<u32>,
    /// MIS `m` of the stack holds `layer_live[m]` current items.
    layer_live: Vec<u32>,
    /// Current items over the whole stack.
    current_items: usize,
    /// Layers holding at least one current item.
    live_layers: usize,
    /// Items and layers that stopped being current through a re-raise
    /// since the last splice. The stack as the engine reports it — round
    /// counts and [`stack_mass`](WarmState::stack_mass) — drops stale
    /// items and empty layers at every splice, so these still count until
    /// the next one, whether or not a compaction dropped them already.
    held_stale: usize,
    held_dead_layers: usize,
    /// Per instance: the sequence number of the newest layer holding it
    /// (0 = not on the stack). Only that occurrence can commit: an older
    /// duplicate would see loads and served demands that only grew.
    newest_layer: Vec<u32>,
    /// Per instance: the sequence number of the layer the second phase
    /// committed it in (its newest layer when it was decided), 0 when it is
    /// not selected. A commit in layer `s` serves its demand for every
    /// older layer.
    committed_in: Vec<u32>,
    /// Per demand: the largest `committed_in` over its instances, the
    /// newest layer its demand is committed in (0 = none). An item in
    /// layer `s` finds its demand served when this exceeds `s`.
    demand_commit: Vec<u32>,
    /// Networks whose commit decisions the next replay must re-derive: a
    /// splice removed a committed instance there, or a repair pushed a
    /// stack item there. Every network on a fresh or restored state, whose
    /// decisions are not derived yet.
    replay_pending: Vec<bool>,
    /// Per-instance lower bound on the constraint LHS, exact as of the
    /// instance's last visit by a repair pass (later raises only grow the
    /// true LHS, so the cache never over-estimates).
    lhs: Vec<f64>,
    /// Cached maximum relative height `ĥ(d)` (static per instance: heights
    /// and capacities never change after admission). An instance is
    /// eligible when `ĥ(d) ≤ 1`.
    rel_height: Vec<f64>,
    /// Networks whose duals were perturbed by splices since the last
    /// completed warm solve.
    pending_dirty: Vec<bool>,
    /// Per-network minimum of `LHS(d)/p(d)` over eligible instances
    /// (`+∞` for a network with none), mirroring the cached LHS values.
    /// Folding these `num_networks` entries yields the certificate's `λ`
    /// bit-for-bit equal to the full `O(|D|)` scan (`f64::min` is exact,
    /// associative and commutative), so certification after a repair is
    /// `O(dirty shards + num_networks)`: clean networks' entries stay valid
    /// across splices because a clean network's instance membership and
    /// cached LHS entries are untouched.
    shard_min: Vec<f64>,
    /// Per-network minimum relative height over eligible instances (`+∞`
    /// for a network with none). Heights are static, so only a network
    /// whose membership a splice changed needs a recompute; the fold over
    /// networks is the narrow rule's `h_min`, bit for bit. Only narrow-rule
    /// solves read it, so only they keep it current.
    shard_h_min: Vec<f64>,
    /// Warm solves completed on this state. A state with none is fresh: it
    /// repairs every shard, so its first solve is the cold solve.
    epochs_resumed: u64,
}

impl WarmState {
    /// A fresh state over a universe: zero duals, empty stack, every shard
    /// pending. The first [`run_two_phase_warm_on`] on a fresh state is
    /// the cold solve.
    pub fn new(universe: &DemandInstanceUniverse, rule: RaiseRule) -> Self {
        let n = universe.instance_slots();
        Self {
            rule,
            duals: DualState::new(universe, rule),
            rec_network: Vec::new(),
            rec_head: vec![NIL; n],
            rec_tail: vec![NIL; n],
            beta_edge: Vec::new(),
            beta_amount: Vec::new(),
            beta_next: Vec::new(),
            free_head: NIL,
            stack_items: Vec::new(),
            stack_offsets: vec![0],
            layer_seq: Vec::new(),
            layer_live: Vec::new(),
            current_items: 0,
            live_layers: 0,
            held_stale: 0,
            held_dead_layers: 0,
            newest_layer: Vec::new(),
            committed_in: Vec::new(),
            demand_commit: Vec::new(),
            replay_pending: Vec::new(),
            lhs: vec![0.0; n],
            rel_height: Vec::new(),
            pending_dirty: vec![false; universe.num_networks()],
            shard_min: Vec::new(),
            shard_h_min: Vec::new(),
            epochs_resumed: 0,
        }
        .derive(universe)
    }

    /// Fills in what the state derives from the universe, its stored LHS
    /// cache and its stack: every instance's network and relative height
    /// (`+∞` for a tombstone, so it is never eligible), every network's `λ`
    /// and height minima, each instance's newest stack layer and the
    /// stack's current-item counts. The commit decisions start undecided,
    /// so the next solve replays every network.
    fn derive(mut self, universe: &DemandInstanceUniverse) -> Self {
        let (n, networks) = (universe.instance_slots(), universe.num_networks());
        let ids = (0..n).map(InstanceId::new);
        self.rec_network = ids.clone().map(|d| universe.instance(d).network).collect();
        self.rel_height = ids
            .map(|d| {
                if universe.is_live(d) {
                    DualState::max_relative_height(universe, d)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        self.shard_min = vec![f64::INFINITY; networks];
        self.shard_h_min = vec![f64::INFINITY; networks];
        for t in 0..networks {
            self.recompute_shard_min(universe, NetworkId::new(t));
            self.recompute_shard_h_min(universe, NetworkId::new(t));
        }
        self.newest_layer = vec![0; n];
        for m in 0..self.num_mises() {
            let seq = self.layer_seq[m];
            let (s, e) = (self.stack_offsets[m], self.stack_offsets[m + 1]);
            for &d in &self.stack_items[s as usize..e as usize] {
                self.newest_layer[d.index()] = seq;
            }
        }
        self.recount_layers();
        // A stored stack may hold items a splice would drop; they count
        // until the next one.
        self.held_stale = self.stack_items.len() - self.current_items;
        self.held_dead_layers = self.num_mises() - self.live_layers;
        self.committed_in = vec![0; n];
        self.demand_commit = vec![0; universe.demand_slots()];
        self.replay_pending = vec![true; networks];
        self.reserve(universe);
        self
    }

    /// Recounts every layer's current items from `newest_layer`.
    fn recount_layers(&mut self) {
        self.layer_live.clear();
        for m in 0..self.num_mises() {
            let seq = self.layer_seq[m];
            let live = self
                .mis(m)
                .iter()
                .filter(|d| self.newest_layer[d.index()] == seq)
                .count();
            self.layer_live.push(live as u32);
        }
        self.current_items = self.layer_live.iter().map(|&c| c as usize).sum();
        self.live_layers = self.layer_live.iter().filter(|&&c| c > 0).count();
    }

    /// Grows the per-id columns' capacity to the universe's slot budget.
    fn reserve(&mut self, universe: &DemandInstanceUniverse) {
        let target = universe.instance_slot_target();
        reserve_slots(&mut self.rec_network, target);
        reserve_slots(&mut self.rec_head, target);
        reserve_slots(&mut self.rec_tail, target);
        reserve_slots(&mut self.lhs, target);
        reserve_slots(&mut self.rel_height, target);
        reserve_slots(&mut self.newest_layer, target);
        reserve_slots(&mut self.committed_in, target);
        reserve_slots(&mut self.demand_commit, universe.demand_slot_target());
    }

    /// Counts instance `d`'s newest stack item out of its layer (when it
    /// has one). `re_raised`: it stops being current because `d` is pushed
    /// again, so the reported stack holds it until the next splice.
    fn uncount(&mut self, d: InstanceId, re_raised: bool) {
        let seq = self.newest_layer[d.index()];
        if seq == 0 {
            return;
        }
        let m = self
            .layer_seq
            .binary_search(&seq)
            .expect("a newest layer is on the stack");
        self.layer_live[m] -= 1;
        self.current_items -= 1;
        self.held_stale += usize::from(re_raised);
        if self.layer_live[m] == 0 {
            self.live_layers -= 1;
            self.held_dead_layers += usize::from(re_raised);
        }
    }

    /// The raise rule this state resumes.
    #[inline]
    pub fn rule(&self) -> RaiseRule {
        self.rule
    }

    /// Warm solves completed on this state so far.
    #[inline]
    pub fn epochs_resumed(&self) -> u64 {
        self.epochs_resumed
    }

    /// The persisted dual assignment (read-only; certification telemetry).
    #[inline]
    pub fn duals(&self) -> &DualState {
        &self.duals
    }

    /// Total instance entries across the persisted first-phase stack, as
    /// of the last splice plus the items pushed since: what a fresh or
    /// restored state's first solve replays (later solves re-decide only
    /// the marked networks' items). Lifecycle policies reset states whose
    /// stack mass has grown far beyond the live instance count (a cold
    /// re-epoch is certificate-safe by construction).
    #[inline]
    pub fn stack_mass(&self) -> usize {
        self.current_items + self.held_stale
    }

    /// Stack layers as of the last splice plus the layers pushed since:
    /// the second phase's rounds.
    #[inline]
    fn num_layers(&self) -> usize {
        self.live_layers + self.held_dead_layers
    }

    /// The number of instance slots this state tracks (one record per
    /// slot of the spliced universe, tombstones included).
    #[inline]
    fn instance_count(&self) -> usize {
        self.rec_head.len()
    }

    /// MIS sets on the persisted replay stack.
    #[inline]
    fn num_mises(&self) -> usize {
        self.stack_offsets.len() - 1
    }

    /// MIS `m` of the replay stack (oldest first).
    #[inline]
    fn mis(&self, m: usize) -> &[InstanceId] {
        &self.stack_items[self.stack_offsets[m] as usize..self.stack_offsets[m + 1] as usize]
    }

    /// Appends one MIS to the replay stack as its newest layer (no
    /// per-MIS allocation once the flat arena has warmed up).
    #[inline]
    fn push_mis(&mut self, mis: &[InstanceId]) {
        let seq = self.layer_seq.last().map_or(1, |&last| last + 1);
        for &d in mis {
            self.uncount(d, true);
            self.newest_layer[d.index()] = seq;
            self.replay_pending[self.rec_network[d.index()].index()] = true;
        }
        self.stack_items.extend_from_slice(mis);
        self.stack_offsets.push(self.stack_items.len() as u32);
        self.layer_seq.push(seq);
        self.layer_live.push(mis.len() as u32);
        self.current_items += mis.len();
        if mis.is_empty() {
            self.held_dead_layers += 1;
        } else {
            self.live_layers += 1;
        }
    }

    /// Renumbers the stack layers 1, 2, … oldest first, keeping their
    /// order, and every per-instance layer number with them. Splices call
    /// it before the numbers run out.
    fn relabel_layers(&mut self) {
        let layers = &self.layer_seq;
        let columns = self
            .newest_layer
            .iter_mut()
            .chain(&mut self.committed_in)
            .chain(&mut self.demand_commit);
        for seq in columns {
            if *seq != 0 {
                let m = layers
                    .binary_search(seq)
                    .expect("a per-instance layer number names a live layer");
                *seq = m as u32 + 1;
            }
        }
        for (m, seq) in self.layer_seq.iter_mut().enumerate() {
            *seq = m as u32 + 1;
        }
    }

    /// Allocates one `β` arena slot (freelist first, then growth).
    fn alloc_beta(&mut self, edge: EdgeId, amount: f64) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            self.free_head = self.beta_next[slot as usize];
            self.beta_edge[slot as usize] = edge;
            self.beta_amount[slot as usize] = amount;
            self.beta_next[slot as usize] = NIL;
            slot
        } else {
            let slot = self.beta_edge.len() as u32;
            self.beta_edge.push(edge);
            self.beta_amount.push(amount);
            self.beta_next.push(NIL);
            slot
        }
    }

    /// Accumulates a raise of `per_edge` on every edge of `pi` into
    /// instance `d`'s record chain, so a long-lived instance's record
    /// stays `O(|π|)` no matter how many repair epochs re-raise it; the
    /// point-clear subtracts the running totals.
    fn record_raise(&mut self, d: InstanceId, pi: &[EdgeId], per_edge: f64) {
        'edges: for &e in pi {
            let mut cur = self.rec_head[d.index()];
            while cur != NIL {
                if self.beta_edge[cur as usize] == e {
                    self.beta_amount[cur as usize] += per_edge;
                    continue 'edges;
                }
                cur = self.beta_next[cur as usize];
            }
            let slot = self.alloc_beta(e, per_edge);
            match self.rec_tail[d.index()] {
                NIL => self.rec_head[d.index()] = slot,
                tail => self.beta_next[tail as usize] = slot,
            }
            self.rec_tail[d.index()] = slot;
        }
    }

    /// Heap bytes currently committed by this state's arenas and caches
    /// (capacities, not lengths) — the serving tier's bytes/demand audit.
    pub fn committed_bytes(&self) -> usize {
        use std::mem::size_of;
        self.duals.committed_bytes()
            + self.rec_network.capacity() * size_of::<NetworkId>()
            + (self.rec_head.capacity() + self.rec_tail.capacity()) * size_of::<u32>()
            + self.beta_edge.capacity() * size_of::<EdgeId>()
            + self.beta_amount.capacity() * size_of::<f64>()
            + self.beta_next.capacity() * size_of::<u32>()
            + self.stack_items.capacity() * size_of::<InstanceId>()
            + (self.stack_offsets.capacity()
                + self.layer_seq.capacity()
                + self.layer_live.capacity()
                + self.newest_layer.capacity()
                + self.committed_in.capacity()
                + self.demand_commit.capacity())
                * size_of::<u32>()
            + (self.lhs.capacity()
                + self.rel_height.capacity()
                + self.shard_min.capacity()
                + self.shard_h_min.capacity())
                * size_of::<f64>()
            + self.pending_dirty.capacity()
    }

    /// Recomputes one network's λ minimum from the cached LHS values.
    fn recompute_shard_min(&mut self, universe: &DemandInstanceUniverse, network: NetworkId) {
        self.shard_min[network.index()] = universe
            .instances_on_network(network)
            .iter()
            .copied()
            .filter(|d| self.rel_height[d.index()] <= 1.0 + EPS)
            .map(|d| self.lhs[d.index()] / universe.profit(d))
            .fold(f64::INFINITY, f64::min);
    }

    /// Recomputes one network's minimum eligible relative height.
    fn recompute_shard_h_min(&mut self, universe: &DemandInstanceUniverse, network: NetworkId) {
        self.shard_h_min[network.index()] = universe
            .instances_on_network(network)
            .iter()
            .map(|d| self.rel_height[d.index()])
            .filter(|&h| h <= 1.0 + EPS)
            .fold(f64::INFINITY, f64::min);
    }

    /// The certificate's `λ` from the per-network minima: bit-for-bit equal
    /// to the full cached-LHS scan ([`cached_lambda`]), in
    /// `O(num_networks)`.
    fn shard_lambda(&self) -> f64 {
        self.shard_min
            .iter()
            .copied()
            .fold(1.0_f64, f64::min)
            .max(EPS)
    }

    /// Splices one universe delta through the persisted state in
    /// `O(batch)`. Must be called **after** the universe splice, with the
    /// same [`UniverseDelta`], exactly once per splice:
    ///
    /// 1. every removed instance's recorded `β` contributions are
    ///    subtracted from the Fenwick trees (point-clears), its chain goes
    ///    back to the freelist, its stack item is counted out, and its
    ///    slot becomes a tombstone (no layer, no commit, never eligible);
    /// 2. expired demands' `α` variables and commit layers drop to zero;
    /// 3. the per-instance and per-demand columns extend over the
    ///    arrivals' ids with fresh entries;
    /// 4. the stale stack items and empty layers stop counting — the stack
    ///    the engine reports drops them here, while the arena keeps them
    ///    until the next [compaction](WarmState::compact) (only the newest
    ///    occurrence of a re-raised instance can commit in the second
    ///    phase, since loads and served demands only grow); and
    /// 5. the delta's dirty networks accumulate into the pending set the
    ///    next repair and replay consume.
    pub fn splice(&mut self, universe: &DemandInstanceUniverse, delta: &UniverseDelta) {
        assert_eq!(
            delta.first_added(),
            self.instance_count(),
            "warm state spliced against a delta of a different universe"
        );
        // 1. Point-clear the removed instances' β contributions and return
        //    their chains to the freelist. The chain walks from head to
        //    tail, so the subtracts happen in exactly the order the raises
        //    accumulated, and the removed ids ascend, as they always did.
        for &d in delta.removed_instances() {
            let network = self.rec_network[d.index()];
            // A committed instance loaded its network's edges.
            if self.committed_in[d.index()] != 0 {
                self.replay_pending[network.index()] = true;
            }
            let mut cur = self.rec_head[d.index()];
            while cur != NIL {
                let next = self.beta_next[cur as usize];
                self.duals.subtract_beta(
                    universe,
                    network,
                    self.beta_edge[cur as usize],
                    self.beta_amount[cur as usize],
                );
                self.beta_next[cur as usize] = self.free_head;
                self.free_head = cur;
                cur = next;
            }
            self.rec_head[d.index()] = NIL;
            self.rec_tail[d.index()] = NIL;
            self.uncount(d, false);
            self.newest_layer[d.index()] = 0;
            self.committed_in[d.index()] = 0;
            self.rel_height[d.index()] = f64::INFINITY;
        }

        // 2. The expired demands' α and commit layers.
        self.duals.expire_alpha(universe, delta.expired_demands());
        for &a in delta.expired_demands() {
            self.demand_commit[a.index()] = 0;
        }
        self.reserve(universe);
        self.demand_commit.resize(universe.demand_slots(), 0);

        // 3. The arrivals' columns.
        let (first_added, n_new) = (delta.first_added(), universe.instance_slots());
        self.rec_network
            .extend((first_added..n_new).map(|d| universe.instance(InstanceId::new(d)).network));
        self.rec_head.resize(n_new, NIL);
        self.rec_tail.resize(n_new, NIL);
        self.lhs.resize(n_new, 0.0);
        self.rel_height.extend(
            (first_added..n_new)
                .map(|d| DualState::max_relative_height(universe, InstanceId::new(d))),
        );
        self.newest_layer.resize(n_new, 0);
        self.committed_in.resize(n_new, 0);

        // 4. The reported stack drops what is no longer current.
        self.held_stale = 0;
        self.held_dead_layers = 0;
        if self.layer_seq.last().is_some_and(|&seq| seq > u32::MAX / 2) {
            self.relabel_layers();
        }

        // 5. Accumulate the dirt for the next repair.
        for (pending, &dirty) in self.pending_dirty.iter_mut().zip(delta.dirty()) {
            *pending |= dirty;
        }
    }

    /// Follows a universe [compaction](DemandInstanceUniverse::compact) —
    /// the one `O(|D|)` pass. Must be called **after** the universe
    /// compaction, with its [`Compaction`]:
    ///
    /// 1. `α` and the demands' commit layers drop the tombstoned demands'
    ///    slots through the demand relabelling (monotone on survivors);
    /// 2. the per-instance columns (records, LHS cache, relative heights,
    ///    newest layers, commit decisions) drop the tombstones' slots
    ///    through the instance relabelling;
    /// 3. the stack keeps only its current items, relabelled, and drops
    ///    its empty layers; the rest keep their numbers.
    ///
    /// Survivors keep their relative order, so nothing the engine decides
    /// by id order changes.
    pub fn compact(&mut self, universe: &DemandInstanceUniverse, compaction: &Compaction) {
        let remap = compaction.instance_remap();
        assert_eq!(
            remap.len(),
            self.instance_count(),
            "warm state compacted against a different universe"
        );
        // 1. α and the demands' commit layers.
        self.duals
            .compact_alpha(compaction.demand_remap(), universe.demand_slots());
        let mut survivors = 0;
        for (old, &new) in compaction.demand_remap().iter().enumerate() {
            if new != u32::MAX {
                self.demand_commit[new as usize] = self.demand_commit[old];
                survivors += 1;
            }
        }
        self.demand_commit.truncate(survivors);

        // 2. The per-instance columns, in place: the map is monotone on
        //    survivors (new ≤ old), so one forward pass compacts every
        //    column without scratch.
        for (old, &new) in remap.iter().enumerate() {
            if new == u32::MAX {
                continue;
            }
            let new = new as usize;
            self.rec_network[new] = self.rec_network[old];
            self.rec_head[new] = self.rec_head[old];
            self.rec_tail[new] = self.rec_tail[old];
            self.lhs[new] = self.lhs[old];
            self.rel_height[new] = self.rel_height[old];
            self.newest_layer[new] = self.newest_layer[old];
            self.committed_in[new] = self.committed_in[old];
        }
        let n = universe.instance_slots();
        self.rec_network.truncate(n);
        self.rec_head.truncate(n);
        self.rec_tail.truncate(n);
        self.lhs.truncate(n);
        self.rel_height.truncate(n);
        self.newest_layer.truncate(n);
        self.committed_in.truncate(n);

        // 3. The stack: an item stays when its instance survives and the
        //    item's layer is the instance's newest. One forward pass
        //    compacts in place (the write cursor never passes the read
        //    cursor); empty layers drop out, the rest keep their numbers.
        let mut iw = 0usize;
        let mut ow = 0usize;
        for m in 0..self.num_mises() {
            let (s, e) = (
                self.stack_offsets[m] as usize,
                self.stack_offsets[m + 1] as usize,
            );
            let seq = self.layer_seq[m];
            let start_iw = iw;
            for i in s..e {
                let new = remap[self.stack_items[i].index()];
                if new != u32::MAX && self.newest_layer[new as usize] == seq {
                    self.stack_items[iw] = InstanceId::new(new as usize);
                    iw += 1;
                }
            }
            if iw > start_iw {
                self.stack_offsets[ow] = start_iw as u32;
                self.layer_seq[ow] = seq;
                self.layer_live[ow] = (iw - start_iw) as u32;
                ow += 1;
            }
        }
        self.stack_offsets[ow] = iw as u32;
        self.stack_offsets.truncate(ow + 1);
        self.stack_items.truncate(iw);
        self.layer_seq.truncate(ow);
        self.layer_live.truncate(ow);
        debug_assert_eq!((iw, ow), (self.current_items, self.live_layers));
        self.reserve(universe);
    }
}

impl WarmState {
    /// The state's snapshot document, written through `universe`'s
    /// order-preserving relabel (the universe the state was last spliced
    /// or compacted with): the records and LHS entries of the live
    /// instances in id order, the stack's current items under their
    /// relabelled ids with empty layers left out, and the duals' live `α`
    /// — the document a compacted state renders, so tombstones never
    /// reach a snapshot. [`restore`](WarmState::restore) reads it back.
    pub fn to_json(&self, universe: &DemandInstanceUniverse) -> JsonValue {
        let mut dense = vec![u32::MAX; self.instance_count()];
        for (rank, d) in universe.instance_ids().enumerate() {
            dense[d.index()] = rank as u32;
        }
        let records = universe
            .instance_ids()
            .map(|d| {
                let mut beta = Vec::new();
                let mut cur = self.rec_head[d.index()];
                while cur != NIL {
                    beta.extend([
                        JsonValue::int(self.beta_edge[cur as usize].index()),
                        JsonValue::num(self.beta_amount[cur as usize]),
                    ]);
                    cur = self.beta_next[cur as usize];
                }
                JsonValue::Array(beta)
            })
            .collect();
        let stack = (0..self.num_mises())
            .filter_map(|m| {
                let seq = self.layer_seq[m];
                let items: Vec<JsonValue> = self
                    .mis(m)
                    .iter()
                    .filter(|d| self.newest_layer[d.index()] == seq)
                    .map(|d| JsonValue::int(dense[d.index()] as usize))
                    .collect();
                (!items.is_empty()).then_some(JsonValue::Array(items))
            })
            .collect();
        JsonValue::object(vec![
            ("rule", self.rule.to_json()),
            ("duals", self.duals.to_json_relabelled(universe)),
            ("records", JsonValue::Array(records)),
            ("stack", JsonValue::Array(stack)),
            (
                "lhs",
                JsonValue::Array(
                    universe
                        .instance_ids()
                        .map(|d| JsonValue::num(self.lhs[d.index()]))
                        .collect(),
                ),
            ),
            (
                "pending_dirty",
                JsonValue::Array(
                    self.pending_dirty
                        .iter()
                        .map(|&b| JsonValue::Bool(b))
                        .collect(),
                ),
            ),
            ("epochs_resumed", JsonValue::u64_value(self.epochs_resumed)),
        ])
    }
}

impl WarmState {
    /// Rebuilds a state from its [`to_json`](WarmState::to_json) document
    /// over the universe it was rendered against, relabelled: the universe
    /// must hold no tombstones. The document holds only what
    /// cannot be recomputed: the duals (with the Fenwick prefix nodes their
    /// range sums need to come back bit for bit), each instance's raise
    /// amounts per edge, the stack, the LHS cache, the pending-dirty
    /// networks and the solve count. Its shape is checked against
    /// `universe` first ([`DualState::validate_shape`] for the dual side);
    /// then the rest is recomputed from the universe: each raise record's
    /// network (the instance's own), every relative height (as
    /// [`new`](WarmState::new) and [`splice`](WarmState::splice) compute
    /// them), every network's `λ` and height minima and each instance's
    /// newest stack layer (the layers are numbered afresh, in order). A
    /// recomputed minimum equals the one the rendered state held on every
    /// network that is not pending dirty, and the engine recomputes every
    /// pending-dirty one before it reads it. The commit decisions are not
    /// stored: the first solve after a restore replays every network. So a
    /// restored state solves bit-identically to the original.
    pub fn restore(doc: &JsonValue, universe: &DemandInstanceUniverse) -> Result<Self, String> {
        if universe.tombstones() > 0 || universe.demand_slots() > universe.num_demands() {
            return Err("warm states restore onto a universe without tombstones".into());
        }
        let (n, networks) = (universe.num_instances(), universe.num_networks());
        let record_rows = doc.field("records")?.as_array()?;
        if record_rows.len() != n {
            return Err(format!(
                "warm state has {} instance records, universe has {n} instances",
                record_rows.len()
            ));
        }
        let mut rec_head = Vec::with_capacity(n);
        let mut rec_tail = Vec::with_capacity(n);
        let mut beta_edge = Vec::new();
        let mut beta_amount = Vec::new();
        let mut beta_next = Vec::new();
        for (d, row) in universe.instance_ids().zip(record_rows) {
            // An instance's raises all live on its own network.
            let network = universe.instance(d).network;
            let row = row.as_array()?;
            if row.len() % 2 != 0 {
                return Err("raise records are flat lists of edge, amount pairs".into());
            }
            let mut head = NIL;
            let mut tail = NIL;
            for pair in row.chunks_exact(2) {
                let edge = pair[0].as_usize()?;
                if edge >= universe.num_edges(network) {
                    return Err(format!(
                        "raise record names edge {edge} of a {}-edge network",
                        universe.num_edges(network)
                    ));
                }
                let slot = beta_edge.len() as u32;
                beta_edge.push(EdgeId::new(edge));
                beta_amount.push(pair[1].as_f64()?);
                beta_next.push(NIL);
                match tail {
                    NIL => head = slot,
                    t => beta_next[t as usize] = slot,
                }
                tail = slot;
            }
            rec_head.push(head);
            rec_tail.push(tail);
        }
        let mut stack_items = Vec::new();
        let mut stack_offsets = vec![0u32];
        let mut layer_seq = Vec::new();
        for (m, mis) in doc.field("stack")?.as_array()?.iter().enumerate() {
            for d in mis.as_array()? {
                let d = d.as_usize()?;
                if d >= n {
                    return Err(format!(
                        "stack names instance {d} of a {n}-instance universe"
                    ));
                }
                stack_items.push(InstanceId::new(d));
            }
            stack_offsets.push(stack_items.len() as u32);
            layer_seq.push(m as u32 + 1);
        }
        let lhs = doc
            .field("lhs")?
            .as_array()?
            .iter()
            .map(JsonValue::as_f64)
            .collect::<Result<Vec<_>, String>>()?;
        if lhs.len() != n {
            return Err(format!(
                "warm state has {} LHS entries, universe has {n} instances",
                lhs.len()
            ));
        }
        let pending_dirty = doc
            .field("pending_dirty")?
            .as_array()?
            .iter()
            .map(|b| match b {
                JsonValue::Bool(b) => Ok(*b),
                other => Err(format!("expected a boolean, got {}", other.render())),
            })
            .collect::<Result<Vec<_>, String>>()?;
        if pending_dirty.len() != networks {
            return Err(format!(
                "warm state has {} networks, universe has {networks}",
                pending_dirty.len()
            ));
        }
        let duals = DualState::from_json(doc.field("duals")?)?;
        duals.validate_shape(universe)?;
        let state = Self {
            rule: RaiseRule::from_json(doc.field("rule")?)?,
            duals,
            rec_network: Vec::new(),
            rec_head,
            rec_tail,
            beta_edge,
            beta_amount,
            beta_next,
            free_head: NIL,
            stack_items,
            stack_offsets,
            layer_seq,
            layer_live: Vec::new(),
            current_items: 0,
            live_layers: 0,
            held_stale: 0,
            held_dead_layers: 0,
            newest_layer: Vec::new(),
            committed_in: Vec::new(),
            demand_commit: Vec::new(),
            replay_pending: Vec::new(),
            lhs,
            rel_height: Vec::new(),
            pending_dirty,
            shard_min: Vec::new(),
            shard_h_min: Vec::new(),
            epochs_resumed: doc.field("epochs_resumed")?.as_u64()?,
        };
        Ok(state.derive(universe))
    }
}

/// The instances of `list` that are eligible (relative height at most 1)
/// and still below `threshold`, in list order.
fn unsatisfied_of_group(
    universe: &DemandInstanceUniverse,
    duals: &DualState,
    rel_height: &[f64],
    list: &[InstanceId],
    threshold: f64,
) -> Vec<InstanceId> {
    list.iter()
        .copied()
        .filter(|&d| {
            rel_height[d.index()] <= 1.0 + EPS && !duals.is_xi_satisfied(universe, d, threshold)
        })
        .collect()
}

/// The instances on the marked networks, in ascending id order.
fn instances_on(universe: &DemandInstanceUniverse, networks: &[bool]) -> Vec<InstanceId> {
    if networks.iter().all(|&on| on) {
        return universe.instance_ids().collect();
    }
    let mut list: Vec<InstanceId> = networks
        .iter()
        .enumerate()
        .filter(|&(_, &on)| on)
        .flat_map(|(t, _)| universe.instances_on_network(NetworkId::new(t)))
        .copied()
        .collect();
    list.sort_unstable();
    list
}

/// `active` (ascending) split by layering group, each bucket ascending —
/// what the group lists of [`InstanceLayering::groups`] filtered to
/// `active` would be.
fn group_buckets(layering: &InstanceLayering, active: &[InstanceId]) -> Vec<Vec<InstanceId>> {
    let mut buckets = vec![Vec::new(); layering.num_groups()];
    for &d in active {
        buckets[layering.group(d)].push(d);
    }
    buckets
}

/// The engine's second phase, incremental (see the [module docs](self)):
/// replays the stack items of the `marked` networks from zero loads, all
/// of them merged in replay order (newest layer first), re-deciding each
/// one, and holds the other networks' decisions fixed. When a decision
/// moves, every network holding an older-layer instance of the same
/// demand whose decision can move with it joins the next round, replayed
/// from zero loads but re-deciding only from that instance's layer down;
/// rounds repeat until none is left. Updates `warm`'s commit decisions and
/// returns the number of stack items it re-decided.
fn replay_networks(
    universe: &DemandInstanceUniverse,
    warm: &mut WarmState,
    marked: Vec<bool>,
) -> u64 {
    // Per network: re-decide the items in layers up to this number (0 =
    // not in the round); the items above keep their decisions.
    let mut from: Vec<u32> = marked
        .iter()
        .map(|&on| if on { u32::MAX } else { 0 })
        .collect();
    let mut next = vec![0u32; from.len()];
    // Per-round scratch: the round's networks' loads, laid end to end.
    let mut load_start = vec![0usize; from.len()];
    let mut loads: Vec<f64> = Vec::new();
    // One key per item: the layer number inverted into the high half, so
    // an ascending sort is replay order (ties are one layer, which never
    // shares a demand or an edge, so their order does not matter).
    let mut order: Vec<u64> = Vec::new();
    let mut replayed = 0u64;
    while from.iter().any(|&f| f != 0) {
        loads.clear();
        order.clear();
        for t in (0..from.len()).filter(|&t| from[t] != 0) {
            let network = NetworkId::new(t);
            load_start[t] = loads.len();
            loads.resize(loads.len() + universe.num_edges(network), 0.0);
            order.extend(
                universe
                    .instances_on_network(network)
                    .iter()
                    .filter(|d| warm.newest_layer[d.index()] != 0)
                    .map(|d| u64::from(!warm.newest_layer[d.index()]) << 32 | d.index() as u64),
            );
        }
        order.sort_unstable();
        for &key in &order {
            let seq = !((key >> 32) as u32);
            let d = InstanceId::new((key & u64::from(u32::MAX)) as usize);
            let inst = universe.instance(d);
            let t = inst.network.index();
            let a = inst.demand.index();
            let net_loads =
                &mut loads[load_start[t]..load_start[t] + universe.num_edges(inst.network)];
            if seq > from[t] {
                // Above every layer that changed: the decision stands.
                if warm.committed_in[d.index()] != 0 {
                    inst.add_load(net_loads);
                }
                continue;
            }
            replayed += 1;
            // A newer commit of the demand serves it. `d`'s own commit never
            // counts: it is at most `seq`.
            let commit = if inst.fits_under(net_loads, universe.capacities(inst.network))
                && warm.demand_commit[a] <= seq
            {
                inst.add_load(net_loads);
                seq
            } else {
                0
            };
            let old = std::mem::replace(&mut warm.committed_in[d.index()], commit);
            if old != commit {
                let siblings = universe.instances_of_demand(inst.demand);
                if commit > warm.demand_commit[a] {
                    warm.demand_commit[a] = commit;
                } else if old == warm.demand_commit[a] {
                    warm.demand_commit[a] = siblings
                        .iter()
                        .map(|e| warm.committed_in[e.index()])
                        .max()
                        .unwrap_or(0);
                }
                // A sibling in layer `s` reads "served" as `committed_in > s`.
                // Its decision can move only if its demand became served
                // while it is committed, or stopped being served while it
                // is not. Siblings this round re-decides come later in it.
                for &e in siblings {
                    let s = warm.newest_layer[e.index()];
                    let (was, now) = (old > s, commit > s);
                    let te = universe.instance(e).network.index();
                    if s != 0
                        && was != now
                        && now == (warm.committed_in[e.index()] != 0)
                        && s > from[te]
                    {
                        next[te] = next[te].max(s);
                    }
                }
            }
        }
        std::mem::swap(&mut from, &mut next);
        next.fill(0);
        #[cfg(test)]
        if from.iter().any(|&f| f != 0) {
            tests::CASCADE_ROUNDS.with(|rounds| rounds.set(rounds.get() + 1));
        }
    }
    replayed
}

/// The instances whose entry in a per-instance `column` is non-zero,
/// ascending. The fill is branch-free: at scale the filter's outcome is
/// too irregular to predict.
fn nonzero_ids(column: &[u32]) -> Vec<InstanceId> {
    let count = column.iter().filter(|&&x| x != 0).count();
    // One spare slot takes the writes after the last non-zero entry.
    let mut ids = vec![InstanceId::new(0); count + 1];
    let mut len = 0;
    for (d, &x) in column.iter().enumerate() {
        ids[len] = InstanceId::new(d);
        len += usize::from(x != 0);
    }
    ids.truncate(count);
    ids
}

/// The full second phase, the reference the incremental
/// [`replay_networks`] is checked against: pops the MIS layers
/// newest-first into a fresh [`LoadTracker`](netsched_graph::LoadTracker)
/// and greedily commits every instance that still fits. Returns the
/// sorted selection.
#[cfg(any(test, debug_assertions))]
fn replay_stack(universe: &DemandInstanceUniverse, warm: &WarmState) -> Vec<InstanceId> {
    let mut tracker = netsched_graph::LoadTracker::new(universe);
    let mut selected: Vec<InstanceId> = Vec::new();
    for m in (0..warm.num_mises()).rev() {
        let seq = warm.layer_seq[m];
        // Only current items can commit (see `WarmState::splice`).
        for &d in warm
            .mis(m)
            .iter()
            .filter(|d| warm.newest_layer[d.index()] == seq)
        {
            if tracker.try_commit(universe, d) {
                selected.push(d);
            }
        }
    }
    selected.sort_unstable();
    selected
}

/// What one repair pass did, and where a [`Budget`] cut it (if it did).
struct PassOutcome {
    steps: u64,
    max_steps_per_stage: u64,
    raised: u64,
    /// Stages cut by the Claim 5.2 step cap with instances still
    /// unsatisfied.
    capped_stages: u64,
    /// `true` when the budget cut the pass before it drained every stage.
    cut: bool,
    /// First-phase (group × stage) slots not yet drained at the cut.
    rounds_left: u64,
}

/// One repair pass: the paper's group × stage × step loop over `groups`
/// (the active instances bucketed by group), checked against `budget`
/// before every MIS/raise round. Appends the new MIS sets directly to
/// `warm`'s replay stack, and every step to `trace` if one is given.
///
/// Duals only grow during the pass, so the instances of a group that can
/// still need a raise are those below the final threshold `1 − ξ^stages`
/// when the group opens. Each stage filters that list at its own
/// threshold, and each step re-checks only the previous step's
/// unsatisfied list. Debug builds assert at every step that the shrunk
/// list equals a full rescan of the group.
#[allow(clippy::too_many_arguments)]
fn repair_pass(
    universe: &DemandInstanceUniverse,
    conflict: &ShardedConflictGraph,
    layering: &InstanceLayering,
    config: &AlgorithmConfig,
    warm: &mut WarmState,
    groups: &[Vec<InstanceId>],
    stages: usize,
    xi: f64,
    step_cap: u64,
    budget: &Budget,
    stats: &mut RoundStats,
    mut trace: Option<&mut Trace>,
) -> PassOutcome {
    let mut steps: u64 = 0;
    let mut max_steps_per_stage: u64 = 0;
    let mut raised: u64 = 0;
    let mut capped_stages: u64 = 0;
    let total_slots = (groups.len() * stages) as u64;
    let mut completed_slots: u64 = 0;
    let mut cut = false;
    'groups: for (epoch, group) in groups.iter().enumerate() {
        if group.is_empty() {
            // Nothing to repair in this group: its slots count as drained.
            completed_slots += stages as u64;
            continue;
        }
        let final_threshold = 1.0 - xi.powi(stages as i32);
        let candidates = unsatisfied_of_group(
            universe,
            &warm.duals,
            &warm.rel_height,
            group,
            final_threshold,
        );
        for stage in 1..=stages {
            let threshold = 1.0 - xi.powi(stage as i32);
            let mut unsatisfied = unsatisfied_of_group(
                universe,
                &warm.duals,
                &warm.rel_height,
                &candidates,
                threshold,
            );
            let mut stage_steps: u64 = 0;
            loop {
                debug_assert_eq!(
                    unsatisfied,
                    unsatisfied_of_group(universe, &warm.duals, &warm.rel_height, group, threshold),
                    "group {epoch}, stage {stage}, step {stage_steps}: the shrunk \
                     unsatisfied list diverged from a full rescan of the group"
                );
                if unsatisfied.is_empty() {
                    break;
                }
                if stage_steps >= step_cap {
                    capped_stages += 1;
                    break;
                }
                if !budget.consume_round() {
                    cut = true;
                    steps += stage_steps;
                    max_steps_per_stage = max_steps_per_stage.max(stage_steps);
                    break 'groups;
                }
                let strategy = derive_strategy(config, epoch, stage, stage_steps);
                let mis = sharded_mis(universe, &unsatisfied, strategy, stats);
                let mut record = trace.as_ref().map(|_| StepRecord {
                    epoch,
                    stage,
                    step: stage_steps as usize,
                    unsatisfied: unsatisfied.len(),
                    raised: Vec::with_capacity(mis.len()),
                });
                let mut outgoing_messages = 0u64;
                for &d in &mis {
                    let pi = layering.critical(d);
                    let delta = warm.duals.raise(universe, d, pi);
                    if delta > 0.0 {
                        let per_edge = match warm.rule {
                            RaiseRule::Unit => delta,
                            RaiseRule::Narrow => 2.0 * pi.len() as f64 * delta,
                        };
                        warm.record_raise(d, pi, per_edge);
                    }
                    if let Some(record) = &mut record {
                        record.raised.push((d, delta));
                    }
                    outgoing_messages += conflict.degree(d) as u64;
                }
                if let (Some(trace), Some(record)) = (trace.as_deref_mut(), record) {
                    trace.steps.push(record);
                }
                raised += mis.len() as u64;
                stats.record_messages(outgoing_messages, layering.max_critical() as u64 + 1);
                stats.record_round();
                warm.push_mis(&mis);
                stage_steps += 1;
                unsatisfied.retain(|&d| !warm.duals.is_xi_satisfied(universe, d, threshold));
            }
            steps += stage_steps;
            max_steps_per_stage = max_steps_per_stage.max(stage_steps);
            completed_slots += 1;
        }
    }
    PassOutcome {
        steps,
        max_steps_per_stage,
        raised,
        capped_stages,
        cut,
        rounds_left: total_slots - completed_slots,
    }
}

/// Resumes the two-phase engine from a persisted [`WarmState`] after a
/// universe splice (see the [module docs](self)), under a cooperative
/// [`Budget`] (pass [`Budget::unlimited`] for a full run).
///
/// `rule` must match the state's rule; callers switching rules (the
/// serving layer when the live height mix changes class) must reset the
/// state with [`WarmState::new`] first. The state must have been
/// [spliced](WarmState::splice) through every universe delta since the
/// previous solve.
///
/// On a fresh (never-solved) state this is the cold solve
/// ([`run_two_phase_on`](crate::run_two_phase_on)); on a resumed state it
/// repairs only the pending dirty shards and re-certifies.
///
/// The repair loop checks the budget before every MIS/raise round and cuts
/// when it is exhausted. On a cut the certificate is re-derived from the
/// per-network λ minima cache over everything the pass scanned — a valid
/// (if weaker) bound by weak duality — the solution is tagged
/// [`CertificateQuality::Truncated`], and the **unfinished repair work is
/// carried forward**: the scanned networks stay pending-dirty in `warm`,
/// so an un-budgeted follow-up solve resumes the repair and reconverges
/// to full certification. The in-engine certificate check and safety
/// valve only apply to full (uncut) runs.
///
/// The returned [`Solution::timings`] split the call into the engine's
/// phases.
pub fn run_two_phase_warm_on(
    universe: &DemandInstanceUniverse,
    conflict: &ShardedConflictGraph,
    layering: &InstanceLayering,
    rule: RaiseRule,
    config: &AlgorithmConfig,
    warm: &mut WarmState,
    budget: &Budget,
) -> Solution {
    warm_impl(
        universe, conflict, layering, rule, config, warm, budget, None,
    )
}

/// The engine behind every entry point: repair (or, on a fresh state, run)
/// the first phase, replay the stack, certify. `trace` observes every
/// first-phase step.
#[allow(clippy::too_many_arguments)]
pub(crate) fn warm_impl(
    universe: &DemandInstanceUniverse,
    conflict: &ShardedConflictGraph,
    layering: &InstanceLayering,
    rule: RaiseRule,
    config: &AlgorithmConfig,
    warm: &mut WarmState,
    budget: &Budget,
    mut trace: Option<&mut Trace>,
) -> Solution {
    // Each lap is the time since the previous one, so the phases add up
    // to the whole call.
    let mut mark = Instant::now();
    let mut lap = move || {
        let now = Instant::now();
        now - std::mem::replace(&mut mark, now)
    };
    let mut timings = EngineTimings::default();
    config.validate().expect("invalid algorithm configuration");
    assert_eq!(
        rule, warm.rule,
        "warm state carries a different raise rule; reset it with WarmState::new"
    );
    assert_eq!(
        warm.instance_count(),
        universe.instance_slots(),
        "warm state missed a universe splice"
    );
    if universe.num_instances() == 0 {
        *warm = WarmState::new(universe, rule);
        let mut empty = Solution::empty();
        empty.timings.setup = lap();
        return empty;
    }

    let fresh = warm.epochs_resumed == 0;
    let mut active_networks: Vec<bool> = if fresh {
        vec![true; universe.num_networks()]
    } else {
        warm.pending_dirty.clone()
    };
    let mut active = instances_on(universe, &active_networks);
    let mut groups = group_buckets(layering, &active);

    // Only the narrow rule's ξ depends on the smallest relative height;
    // only the networks the splices touched changed their minima.
    let h_min = match rule {
        RaiseRule::Unit => 1.0,
        RaiseRule::Narrow => {
            for t in 0..universe.num_networks() {
                if warm.pending_dirty[t] {
                    warm.recompute_shard_h_min(universe, NetworkId::new(t));
                }
            }
            warm.shard_h_min.iter().copied().fold(1.0_f64, f64::min)
        }
    };
    debug_assert!(
        rule == RaiseRule::Unit
            || h_min.to_bits()
                == warm
                    .rel_height
                    .iter()
                    .copied()
                    .filter(|&h| h <= 1.0 + EPS)
                    .fold(1.0_f64, f64::min)
                    .to_bits(),
        "per-network height minima diverged from the full fold"
    );
    let xi = stage_xi(rule, layering.max_critical().max(1), h_min);
    let stages = stages_per_epoch(xi, config.epsilon);
    let profit_ratio = (universe.max_profit() / universe.min_profit()).max(1.0);
    let step_cap = 4 * (profit_ratio.log2().ceil() as u64 + 4) + 32;
    let mut stats = RoundStats::new();
    timings.setup = lap();

    // ---------------- First phase: certificate repair ----------------
    let mut steps = 0u64;
    let mut max_steps_per_stage = 0u64;
    let mut raised = 0u64;
    let mut capped_stages = 0u64;
    let lambda_target = 1.0 - config.epsilon - 1e-6;
    let mut truncated: Option<u64> = None;
    for attempt in 0..2 {
        let pass = repair_pass(
            universe,
            conflict,
            layering,
            config,
            warm,
            &groups,
            stages,
            xi,
            step_cap,
            budget,
            &mut stats,
            trace.as_deref_mut(),
        );
        steps += pass.steps;
        max_steps_per_stage = max_steps_per_stage.max(pass.max_steps_per_stage);
        raised += pass.raised;
        capped_stages += pass.capped_stages;
        debug_assert_eq!(
            pass.capped_stages, 0,
            "a stage exceeded the Claim 5.2 step bound ({step_cap})"
        );
        timings.repair += lap();

        // Refresh the LHS cache exactly for everything this pass scanned,
        // then fold the scanned networks' λ minima from it.
        for &d in &active {
            warm.lhs[d.index()] = warm.duals.lhs(universe, d);
        }
        for (t, &scanned) in active_networks.iter().enumerate() {
            if scanned {
                warm.recompute_shard_min(universe, NetworkId::new(t));
            }
        }
        let lambda = warm.shard_lambda();
        debug_assert_eq!(
            lambda.to_bits(),
            cached_lambda(universe, warm).to_bits(),
            "per-network λ minima diverged from the full cached-LHS scan"
        );
        timings.refresh += lap();
        if pass.cut {
            // Budget exhausted mid-repair: certify from the (just
            // refreshed) per-network minima cache and stop here — the
            // schedule is feasible and the bound valid either way.
            truncated = Some(pass.rounds_left);
            break;
        }
        let all_active = active.len() == universe.num_instances();
        if lambda >= lambda_target || all_active || attempt == 1 {
            break;
        }
        // A clean shard's satisfaction regressed beyond what the dirty
        // bookkeeping predicted (should not happen — clean duals only
        // grow); repair everything before certifying.
        active_networks = vec![true; universe.num_networks()];
        active = instances_on(universe, &active_networks);
        groups = group_buckets(layering, &active);
        timings.setup += lap();
    }

    // In debug builds, prove the LHS cache is a true lower bound.
    #[cfg(debug_assertions)]
    for d in universe.instance_ids() {
        let exact = warm.duals.lhs(universe, d);
        debug_assert!(
            warm.lhs[d.index()] <= exact + 1e-9 * (1.0 + exact.abs()),
            "LHS cache over-estimates instance {d}: cached {} > exact {exact}",
            warm.lhs[d.index()]
        );
    }

    let lambda = warm.shard_lambda();
    debug_assert_eq!(
        lambda.to_bits(),
        cached_lambda(universe, warm).to_bits(),
        "per-network λ minima diverged from the full cached-LHS scan"
    );
    let dual_objective = warm.duals.objective();
    timings.refresh += lap();

    // ---------------- Second phase: replay what changed ----------------
    // The repair passes appended their MISes onto warm's stack as its
    // newest layers. The networks they pushed onto, and those where a
    // splice removed a commit (every network, on a fresh or restored
    // state), are re-decided; the rest keep their commits. Each layer is
    // one round.
    let marked = std::mem::replace(
        &mut warm.replay_pending,
        vec![false; universe.num_networks()],
    );
    timings.replayed_items = replay_networks(universe, warm, marked);
    let selected = nonzero_ids(&warm.committed_in);
    #[cfg(any(test, debug_assertions))]
    assert_eq!(
        selected,
        replay_stack(universe, warm),
        "incremental replay diverged from the full replay"
    );
    // Every commit announces itself to its conflicting instances.
    let layers = warm.num_layers() as u64;
    if layers > 0 {
        let messages = selected.iter().map(|&d| conflict.degree(d) as u64).sum();
        stats.record_messages(messages, 1);
    }
    stats.rounds += layers;
    timings.replay = lap();

    let raised_instances = nonzero_ids(&warm.newest_layer);
    timings.raised_set = lap();

    if truncated.is_some() {
        // Dirty-work carry: the networks this (cut) repair was scanning
        // are still under repair — keep them pending so the next solve
        // resumes where the budget stopped.
        for (pending, &scanned) in warm.pending_dirty.iter_mut().zip(&active_networks) {
            *pending = scanned;
        }
    } else {
        warm.pending_dirty.iter_mut().for_each(|d| *d = false);
    }
    warm.epochs_resumed += 1;

    let profit = universe.total_profit(&selected);
    let mut solution = Solution {
        selected,
        raised_instances,
        profit,
        stats,
        diagnostics: RunDiagnostics {
            epochs: groups.len(),
            stages_per_epoch: stages,
            steps,
            max_steps_per_stage,
            raised,
            capped_stages,
            delta: layering.max_critical(),
            lambda,
            dual_objective,
            optimum_upper_bound: dual_objective / lambda,
            quality: match truncated {
                Some(rounds_left) => CertificateQuality::Truncated { rounds_left },
                None => CertificateQuality::Full,
            },
        },
        timings,
    };

    // A truncated run is only held to the anytime contract: a feasible
    // schedule and a valid (weaker) bound. λ may legitimately sit below
    // the target — the safety valve and the guarantee asserts are for
    // full runs only.
    if truncated.is_some() {
        debug_assert!(
            solution.verify(universe).is_ok(),
            "truncated warm schedule failed feasibility verification"
        );
        solution.timings.certify = lap();
        return solution;
    }

    // ---------------- Certificate check + safety valve ----------------
    let bound = approximation_bound(rule, layering.max_critical(), 1.0 - config.epsilon);
    let ratio = solution.certified_ratio().unwrap_or(1.0);
    let certified = solution.verify(universe).is_ok()
        && lambda >= lambda_target
        && ratio <= bound * (1.0 + 1e-9) + 1e-9;
    if !certified && !fresh {
        // The repaired certificate did not re-verify: fall back to a
        // fresh-state run, which is the cold solve.
        *warm = WarmState::new(universe, rule);
        solution.timings.certify = lap();
        let mut cold = run_two_phase_warm_on(
            universe,
            conflict,
            layering,
            rule,
            config,
            warm,
            &Budget::unlimited(),
        );
        cold.timings = cold.timings.merged(solution.timings);
        return cold;
    }
    debug_assert!(
        solution.verify(universe).is_ok(),
        "warm schedule failed feasibility verification"
    );
    debug_assert!(
        lambda >= lambda_target,
        "warm certificate slackness λ = {lambda} below 1 − ε"
    );
    debug_assert!(
        ratio <= bound * (1.0 + 1e-9) + 1e-9,
        "warm certified ratio {ratio} exceeds the {bound} guarantee"
    );
    solution.timings.certify = lap();
    solution
}

/// `λ` from the cached LHS lower bounds: `min` over eligible instances of
/// `LHS(d)/p(d)` (clamped exactly like the reference engine's certificate).
/// The full `O(|D|)` scan — superseded by [`WarmState::shard_lambda`] and
/// kept as the debug/test reference the shard minima are checked against.
#[cfg_attr(not(any(debug_assertions, test)), allow(dead_code))]
fn cached_lambda(universe: &DemandInstanceUniverse, warm: &WarmState) -> f64 {
    universe
        .instance_ids()
        .filter(|d| warm.rel_height[d.index()] <= 1.0 + EPS)
        .map(|d| warm.lhs[d.index()] / universe.profit(d))
        .fold(1.0_f64, f64::min)
        .max(EPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::run_two_phase_reference;
    use netsched_decomp::{TreeDecompositionKind, TreeLayerer};
    use netsched_distrib::MisStrategy;
    use netsched_graph::{
        ArrivingDemand, DemandId, EdgePath, LineProblem, NetworkId, TreeProblem, VertexId,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The `k`-th live demand of `u`: ids are stable, so after a splice
    /// the live ones are not `0..m`.
    fn live_demand(u: &DemandInstanceUniverse, k: usize) -> DemandId {
        u.demand_ids()
            .nth(k)
            .expect("k is below the live demand count")
    }

    fn line_universe(seed: u64, demands: usize) -> DemandInstanceUniverse {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = LineProblem::new(40, 3);
        let nets: Vec<NetworkId> = (0..3).map(NetworkId::new).collect();
        for _ in 0..demands {
            let len = rng.gen_range(2..=8u32);
            let release = rng.gen_range(0..=(40 - len));
            let slack = rng.gen_range(0..=(40 - release - len).min(3));
            let access: Vec<NetworkId> =
                nets.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            let access = if access.is_empty() {
                vec![nets[0]]
            } else {
                access
            };
            p.add_demand(
                release,
                release + len - 1 + slack,
                len,
                rng.gen_range(1.0..10.0),
                1.0,
                access,
            )
            .unwrap();
        }
        p.universe()
    }

    fn solve_fresh(
        universe: &DemandInstanceUniverse,
        warm: &mut WarmState,
        config: &AlgorithmConfig,
    ) -> Solution {
        let conflict = ShardedConflictGraph::build(universe);
        let layering = InstanceLayering::line_length_classes(universe);
        run_two_phase_warm_on(
            universe,
            &conflict,
            &layering,
            RaiseRule::Unit,
            config,
            warm,
            &Budget::unlimited(),
        )
    }

    #[test]
    fn fresh_state_reproduces_the_reference_engine_step_for_step() {
        let u = line_universe(3, 24);
        let layering = InstanceLayering::line_length_classes(&u);
        for config in [
            AlgorithmConfig::deterministic(0.1),
            AlgorithmConfig {
                epsilon: 0.1,
                mis: MisStrategy::Luby { seed: 17 },
                seed: 17,
            },
        ] {
            let mut warm = WarmState::new(&u, RaiseRule::Unit);
            let ours = solve_fresh(&u, &mut warm, &config);
            let reference = run_two_phase_reference(&u, &layering, RaiseRule::Unit, &config);
            assert_eq!(ours.selected, reference.selected);
            assert_eq!(ours.raised_instances, reference.raised_instances);
            assert_eq!(ours.profit.to_bits(), reference.profit.to_bits());
            let (a, b) = (ours.diagnostics, reference.diagnostics);
            assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
            assert_eq!(a.dual_objective.to_bits(), b.dual_objective.to_bits());
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.max_steps_per_stage, b.max_steps_per_stage);
            assert_eq!(a.raised, b.raised);
            assert_eq!(warm.epochs_resumed(), 1);
        }
    }

    #[test]
    fn spliced_state_repairs_the_certificate_after_churn() {
        let mut u = line_universe(7, 26);
        let config = AlgorithmConfig::deterministic(0.1);
        let mut warm = WarmState::new(&u, RaiseRule::Unit);
        solve_fresh(&u, &mut warm, &config);

        let mut delta = UniverseDelta::new();
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..6 {
            // Expire two random demands, admit one fresh arrival.
            let m = u.num_demands();
            let mut expired = vec![
                live_demand(&u, rng.gen_range(0..m)),
                live_demand(&u, rng.gen_range(0..m)),
            ];
            expired.sort_unstable();
            expired.dedup();
            let start = rng.gen_range(0..34u32);
            let arrival = ArrivingDemand {
                profit: rng.gen_range(1.0..10.0),
                height: 1.0,
                instances: vec![(
                    NetworkId::new(rng.gen_range(0..3)),
                    EdgePath::interval(start as usize, start as usize + 4),
                    Some(start),
                )],
            };
            u.apply_demand_delta(&expired, &[arrival], &mut delta);
            warm.splice(&u, &delta);

            let conflict = ShardedConflictGraph::build(&u);
            let layering = InstanceLayering::line_length_classes(&u);
            let sol = run_two_phase_warm_on(
                &u,
                &conflict,
                &layering,
                RaiseRule::Unit,
                &config,
                &mut warm,
                &Budget::unlimited(),
            );
            sol.verify(&u).unwrap();
            assert!(
                sol.diagnostics.lambda >= 0.9 - 1e-6,
                "round {round}: λ = {} below 1 − ε",
                sol.diagnostics.lambda
            );
            let bound = approximation_bound(RaiseRule::Unit, layering.max_critical(), 0.9);
            assert!(
                sol.certified_ratio().unwrap_or(1.0) <= bound + 1e-6,
                "round {round}: certified ratio exceeds the guarantee"
            );
        }
        assert_eq!(warm.epochs_resumed(), 7);
    }

    #[test]
    fn expiring_everything_clears_the_dual_objective() {
        let mut u = line_universe(13, 15);
        let config = AlgorithmConfig::deterministic(0.1);
        let mut warm = WarmState::new(&u, RaiseRule::Unit);
        solve_fresh(&u, &mut warm, &config);
        assert!(warm.duals().objective() > 0.0);

        let everyone: Vec<DemandId> = u.demand_ids().collect();
        let mut delta = UniverseDelta::new();
        u.apply_demand_delta(&everyone, &[], &mut delta);
        warm.splice(&u, &delta);
        // All α dropped, all recorded β point-cleared: the objective is
        // (numerically) zero again.
        assert!(
            warm.duals().objective().abs() < 1e-9,
            "stale dual mass survived the splice: {}",
            warm.duals().objective()
        );
    }

    fn churn_round(u: &mut DemandInstanceUniverse, rng: &mut StdRng, delta: &mut UniverseDelta) {
        let m = u.num_demands();
        let mut expired = vec![
            live_demand(u, rng.gen_range(0..m)),
            live_demand(u, rng.gen_range(0..m)),
        ];
        expired.sort_unstable();
        expired.dedup();
        let start = rng.gen_range(0..34u32);
        let arrival = ArrivingDemand {
            profit: rng.gen_range(1.0..10.0),
            height: 1.0,
            instances: vec![(
                NetworkId::new(rng.gen_range(0..3)),
                EdgePath::interval(start as usize, start as usize + 4),
                Some(start),
            )],
        };
        u.apply_demand_delta(&expired, &[arrival], delta);
    }

    /// Primes a state on `u`, then runs traced warm solves through churn
    /// rounds (`churn` splices the universe and the layering) and checks
    /// the repair's shrinking unsatisfied lists: within a stage the
    /// `unsatisfied` count never grows, some stage takes two or more
    /// steps (so the per-step re-check and its debug cross-check against a
    /// full group rescan both run), and every solve certifies.
    fn assert_repairs_shrink(
        mut u: DemandInstanceUniverse,
        mut layering: InstanceLayering,
        mut churn: impl FnMut(&mut DemandInstanceUniverse, &mut UniverseDelta, &mut InstanceLayering),
    ) {
        let config = AlgorithmConfig::deterministic(0.1);
        let mut warm = WarmState::new(&u, RaiseRule::Unit);
        run_two_phase_warm_on(
            &u,
            &ShardedConflictGraph::build(&u),
            &layering,
            RaiseRule::Unit,
            &config,
            &mut warm,
            &Budget::unlimited(),
        );
        let mut delta = UniverseDelta::new();
        let mut longest_stage = 0;
        for round in 0..8 {
            churn(&mut u, &mut delta, &mut layering);
            warm.splice(&u, &delta);
            let conflict = ShardedConflictGraph::build(&u);
            let mut trace = Trace::default();
            let sol = warm_impl(
                &u,
                &conflict,
                &layering,
                RaiseRule::Unit,
                &config,
                &mut warm,
                &Budget::unlimited(),
                Some(&mut trace),
            );
            for pair in trace.steps.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                if (a.epoch, a.stage) == (b.epoch, b.stage) {
                    assert_eq!(b.step, a.step + 1, "round {round}: steps out of order");
                    assert!(
                        b.unsatisfied <= a.unsatisfied,
                        "round {round}: group {} stage {} grew from {} to {} unsatisfied",
                        a.epoch,
                        a.stage,
                        a.unsatisfied,
                        b.unsatisfied
                    );
                }
            }
            longest_stage = longest_stage.max(trace.max_steps_per_stage());
            sol.verify(&u).unwrap();
            assert!(
                sol.diagnostics.lambda >= 0.9 - 1e-6,
                "round {round}: λ = {} below 1 − ε",
                sol.diagnostics.lambda
            );
        }
        assert!(
            longest_stage >= 2,
            "no repair stage took a second step (longest: {longest_stage})"
        );
    }

    #[test]
    fn repair_lists_shrink_on_a_line_universe() {
        let u = line_universe(29, 40);
        let layering = InstanceLayering::line_length_classes(&u);
        let mut rng = StdRng::seed_from_u64(31);
        assert_repairs_shrink(u, layering, |u, delta, layering| {
            let m = u.num_demands();
            let mut expired: Vec<DemandId> = (0..4)
                .map(|_| live_demand(u, rng.gen_range(0..m)))
                .collect();
            expired.sort_unstable();
            expired.dedup();
            let arrivals: Vec<ArrivingDemand> = (0..6)
                .map(|_| {
                    let start = rng.gen_range(10..16u32);
                    ArrivingDemand {
                        profit: 2f64.powi(rng.gen_range(0..12)),
                        height: 1.0,
                        instances: vec![(
                            NetworkId::new(rng.gen_range(0..3)),
                            EdgePath::interval(start as usize, start as usize + 4),
                            Some(start),
                        )],
                    }
                })
                .collect();
            u.apply_demand_delta(&expired, &arrivals, delta);
            *layering = InstanceLayering::line_length_classes(u);
        });
    }

    #[test]
    fn repair_lists_shrink_on_a_tree_universe() {
        let mut rng = StdRng::seed_from_u64(41);
        let n = 24;
        let mut problem = TreeProblem::new(n);
        for _ in 0..3 {
            let edges = (1..n)
                .map(|v| (VertexId::new(rng.gen_range(0..v)), VertexId::new(v)))
                .collect();
            problem.add_network(edges).unwrap();
        }
        let random_pair = |rng: &mut StdRng| loop {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                return (VertexId::new(a), VertexId::new(b));
            }
        };
        for _ in 0..40 {
            let (a, b) = random_pair(&mut rng);
            let access = (0..3)
                .map(NetworkId::new)
                .filter(|_| rng.gen_bool(0.6))
                .collect::<Vec<_>>();
            let access = if access.is_empty() {
                vec![NetworkId::new(0)]
            } else {
                access
            };
            problem
                .add_unit_demand(a, b, rng.gen_range(1.0..10.0), access)
                .unwrap();
        }
        let u = problem.universe();
        let layerer = TreeLayerer::new(&problem, TreeDecompositionKind::Ideal);
        let layering = layerer.layering(&problem, &u);
        assert_repairs_shrink(u, layering, |u, delta, layering| {
            let m = u.num_demands();
            let mut expired: Vec<DemandId> = (0..4)
                .map(|_| live_demand(u, rng.gen_range(0..m)))
                .collect();
            expired.sort_unstable();
            expired.dedup();
            let mut arrivals = Vec::new();
            let mut assignments = Vec::new();
            for _ in 0..6 {
                let (a, b) = random_pair(&mut rng);
                let t = NetworkId::new(rng.gen_range(0..3));
                let tree = problem.network(t);
                let path = tree.path_edges(a, b);
                assignments.push(layerer.assign(tree, t, a, b, &path));
                arrivals.push(ArrivingDemand {
                    profit: 2f64.powi(rng.gen_range(0..12)),
                    height: 1.0,
                    instances: vec![(t, path, None)],
                });
            }
            u.apply_demand_delta(&expired, &arrivals, delta);
            layering.splice(delta.removed_instances(), assignments);
        });
    }

    #[test]
    fn shard_minima_match_the_full_scan_bit_for_bit() {
        let mut u = line_universe(21, 24);
        let config = AlgorithmConfig::deterministic(0.1);
        let mut warm = WarmState::new(&u, RaiseRule::Unit);
        solve_fresh(&u, &mut warm, &config);
        assert_eq!(
            warm.shard_lambda().to_bits(),
            cached_lambda(&u, &warm).to_bits()
        );

        let mut delta = UniverseDelta::new();
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..5 {
            churn_round(&mut u, &mut rng, &mut delta);
            warm.splice(&u, &delta);
            let conflict = ShardedConflictGraph::build(&u);
            let layering = InstanceLayering::line_length_classes(&u);
            let sol = run_two_phase_warm_on(
                &u,
                &conflict,
                &layering,
                RaiseRule::Unit,
                &config,
                &mut warm,
                &Budget::unlimited(),
            );
            assert_eq!(
                warm.shard_lambda().to_bits(),
                cached_lambda(&u, &warm).to_bits(),
                "round {round}: shard minima diverged from the full scan"
            );
            assert_eq!(
                sol.diagnostics.lambda.to_bits(),
                warm.shard_lambda().to_bits(),
                "round {round}: reported λ is not the shard fold"
            );
            for t in 0..u.num_networks() {
                let kept = warm.shard_min[t];
                warm.recompute_shard_min(&u, NetworkId::new(t));
                assert_eq!(
                    kept.to_bits(),
                    warm.shard_min[t].to_bits(),
                    "round {round}: network {t}'s λ minimum diverged from a recompute"
                );
            }
        }
    }

    /// Renders `warm` and restores it over `u`. A restore needs a universe
    /// without tombstones, so `u` and `warm` are compacted first; the
    /// document must not change with it, since snapshots are written
    /// through the same relabel.
    fn render_and_restore(warm: &mut WarmState, u: &mut DemandInstanceUniverse) -> WarmState {
        let before = warm.to_json(u).render();
        let mut compaction = Compaction::new();
        u.compact(&mut compaction);
        warm.compact(u, &compaction);
        let text = warm.to_json(u).render();
        assert_eq!(before, text, "a compaction changed the rendered state");
        WarmState::restore(&JsonValue::parse(&text).unwrap(), u).unwrap()
    }

    /// Solves `u` from both states and asserts the solutions match bit for
    /// bit: selection, raised set, `λ`, dual objective and round stats.
    fn assert_same_next_solve(u: &DemandInstanceUniverse, a: &mut WarmState, b: &mut WarmState) {
        let config = AlgorithmConfig::deterministic(0.1);
        let conflict = ShardedConflictGraph::build(u);
        let layering = InstanceLayering::line_length_classes(u);
        let solve = |warm: &mut WarmState| {
            run_two_phase_warm_on(
                u,
                &conflict,
                &layering,
                RaiseRule::Unit,
                &config,
                warm,
                &Budget::unlimited(),
            )
        };
        let (x, y) = (solve(a), solve(b));
        assert_eq!(x.selected, y.selected);
        assert_eq!(x.raised_instances, y.raised_instances);
        assert_eq!(
            x.diagnostics.lambda.to_bits(),
            y.diagnostics.lambda.to_bits()
        );
        assert_eq!(
            x.diagnostics.dual_objective.to_bits(),
            y.diagnostics.dual_objective.to_bits()
        );
        assert_eq!(x.stats, y.stats);
        assert_eq!(x.diagnostics.quality, y.diagnostics.quality);
        assert_eq!(a.epochs_resumed(), b.epochs_resumed());
    }

    #[test]
    fn warm_state_roundtrips_through_json() {
        let mut u = line_universe(17, 22);
        let config = AlgorithmConfig::deterministic(0.1);
        let mut warm = WarmState::new(&u, RaiseRule::Unit);
        solve_fresh(&u, &mut warm, &config);
        let mut delta = UniverseDelta::new();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..3 {
            churn_round(&mut u, &mut rng, &mut delta);
            warm.splice(&u, &delta);
            solve_fresh(&u, &mut warm, &config);
        }

        let text = warm.to_json(&u).render();
        for key in ["eligible", "rel_height", "shard_min", "primed"] {
            assert!(
                !text.contains(&format!("\"{key}\"")),
                "rendered warm state carries the derived `{key}`"
            );
        }
        let mut restored = render_and_restore(&mut warm, &mut u);
        assert_eq!(restored.rule(), warm.rule());
        assert_eq!(restored.epochs_resumed(), warm.epochs_resumed());
        // The document leaves out stack items the next splice drops.
        assert_eq!(restored.stack_mass(), warm.current_items);
        assert_eq!(
            restored
                .rel_height
                .iter()
                .map(|h| h.to_bits())
                .collect::<Vec<_>>(),
            warm.rel_height
                .iter()
                .map(|h| h.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            restored
                .shard_min
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            warm.shard_min
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        );
        assert_same_next_solve(&u, &mut warm, &mut restored);

        // Expiries point-clear the restored raise records exactly as the
        // original's.
        for _ in 0..3 {
            churn_round(&mut u, &mut rng, &mut delta);
            warm.splice(&u, &delta);
            restored.splice(&u, &delta);
            assert_eq!(restored.stack_mass(), warm.stack_mass());
            assert_same_next_solve(&u, &mut warm, &mut restored);
        }
    }

    #[test]
    fn restore_with_pending_dirt_solves_like_the_original() {
        let mut u = line_universe(23, 30);
        let config = AlgorithmConfig::deterministic(0.1);
        let mut warm = WarmState::new(&u, RaiseRule::Unit);
        solve_fresh(&u, &mut warm, &config);
        let mut delta = UniverseDelta::new();
        let mut rng = StdRng::seed_from_u64(13);

        // (a) Spliced but not yet solved: the dirty networks are pending.
        churn_round(&mut u, &mut rng, &mut delta);
        warm.splice(&u, &delta);
        assert!(warm.pending_dirty.iter().any(|&d| d));
        let mut restored = render_and_restore(&mut warm, &mut u);
        assert_same_next_solve(&u, &mut warm, &mut restored);

        // (b) After a budget-cut solve: the scanned networks stay pending.
        for _ in 0..4 {
            churn_round(&mut u, &mut rng, &mut delta);
            warm.splice(&u, &delta);
        }
        let cut = run_two_phase_warm_on(
            &u,
            &ShardedConflictGraph::build(&u),
            &InstanceLayering::line_length_classes(&u),
            RaiseRule::Unit,
            &config,
            &mut warm,
            &Budget::rounds(1),
        );
        assert!(cut.diagnostics.quality.is_truncated());
        assert!(warm.pending_dirty.iter().any(|&d| d));
        let mut restored = render_and_restore(&mut warm, &mut u);
        assert_same_next_solve(&u, &mut warm, &mut restored);

        // The restored state's first solve re-derived every commit
        // decision; its later solves replay only what churn touches, and
        // still match the original's.
        for _ in 0..2 {
            churn_round(&mut u, &mut rng, &mut delta);
            warm.splice(&u, &delta);
            restored.splice(&u, &delta);
            assert_same_next_solve(&u, &mut warm, &mut restored);
        }

        // (c) A fresh state restores fresh: its next solve is the cold one.
        let mut fresh = WarmState::new(&u, RaiseRule::Unit);
        let mut restored = render_and_restore(&mut fresh, &mut u);
        assert_eq!(restored.epochs_resumed(), 0);
        assert_same_next_solve(&u, &mut fresh.clone(), &mut restored);
    }

    #[test]
    fn restored_state_rejects_the_wrong_universe() {
        let u = line_universe(3, 12);
        let config = AlgorithmConfig::deterministic(0.1);
        let mut warm = WarmState::new(&u, RaiseRule::Unit);
        solve_fresh(&u, &mut warm, &config);
        let doc = JsonValue::parse(&warm.to_json(&u).render()).unwrap();
        assert!(WarmState::restore(&doc, &u).is_ok());
        let other = line_universe(4, 15);
        assert!(WarmState::restore(&doc, &other).is_err());
    }

    #[test]
    fn rule_mismatch_panics() {
        let u = line_universe(1, 5);
        let conflict = ShardedConflictGraph::build(&u);
        let layering = InstanceLayering::line_length_classes(&u);
        let mut warm = WarmState::new(&u, RaiseRule::Narrow);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_two_phase_warm_on(
                &u,
                &conflict,
                &layering,
                RaiseRule::Unit,
                &AlgorithmConfig::deterministic(0.1),
                &mut warm,
                &Budget::unlimited(),
            )
        }));
        assert!(result.is_err());
    }

    thread_local! {
        /// Cascade rounds the second phase ran on this thread: rounds after
        /// the first of a solve, for networks a moved commit re-marked.
        pub(super) static CASCADE_ROUNDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn repair_pass_counts_stages_cut_by_the_step_cap() {
        // One slot window shared by demands of doubling profit: each raise
        // leaves the next, twice as profitable, still unsatisfied.
        let mut p = LineProblem::new(12, 1);
        for k in 0..10 {
            p.add_demand(0, 5, 6, 2f64.powi(k), 1.0, vec![NetworkId::new(0)])
                .unwrap();
        }
        let u = p.universe();
        let layering = InstanceLayering::line_length_classes(&u);
        let config = AlgorithmConfig::deterministic(0.1);
        let conflict = ShardedConflictGraph::build(&u);
        let all: Vec<InstanceId> = u.instance_ids().collect();
        let groups = group_buckets(&layering, &all);
        let xi = stage_xi(RaiseRule::Unit, layering.max_critical().max(1), 1.0);
        let stages = stages_per_epoch(xi, config.epsilon);
        let pass = |step_cap| {
            let mut warm = WarmState::new(&u, RaiseRule::Unit);
            repair_pass(
                &u,
                &conflict,
                &layering,
                &config,
                &mut warm,
                &groups,
                stages,
                xi,
                step_cap,
                &Budget::unlimited(),
                &mut RoundStats::new(),
                None,
            )
        };
        let uncapped = pass(u64::MAX);
        assert_eq!(uncapped.capped_stages, 0);
        assert!(
            uncapped.max_steps_per_stage >= 2,
            "no stage took a second step, so a cap of 1 cuts nothing"
        );
        let capped = pass(1);
        assert!(capped.capped_stages >= 1);
        assert_eq!(capped.max_steps_per_stage, 1);
    }

    #[test]
    fn replay_counts_only_the_items_it_re_decides() {
        let mut u = line_universe(19, 40);
        let config = AlgorithmConfig::deterministic(0.1);
        let mut warm = WarmState::new(&u, RaiseRule::Unit);
        let fresh = solve_fresh(&u, &mut warm, &config);
        // A fresh solve decides every instance on the stack.
        assert!(fresh.timings.replayed_items > 0);
        assert_eq!(
            fresh.timings.replayed_items,
            fresh.raised_instances.len() as u64
        );

        // An epoch no splice touched re-decides nothing.
        let mut delta = UniverseDelta::new();
        u.apply_demand_delta(&[], &[], &mut delta);
        warm.splice(&u, &delta);
        let clean = solve_fresh(&u, &mut warm, &config);
        assert_eq!(clean.timings.replayed_items, 0);
        assert_eq!(clean.selected, fresh.selected);

        // An arrival on one network re-decides that network's stack items,
        // plus whatever a moved commit cascades to.
        let network = NetworkId::new(1);
        let arrival = ArrivingDemand {
            profit: 9.5,
            height: 1.0,
            instances: vec![(network, EdgePath::interval(10, 14), Some(10))],
        };
        u.apply_demand_delta(&[], &[arrival], &mut delta);
        warm.splice(&u, &delta);
        CASCADE_ROUNDS.with(|rounds| rounds.set(0));
        let churned = solve_fresh(&u, &mut warm, &config);
        let on_network = u
            .instances_on_network(network)
            .iter()
            .filter(|d| warm.newest_layer[d.index()] != 0)
            .count() as u64;
        assert!(on_network > 0);
        if CASCADE_ROUNDS.with(|rounds| rounds.get()) == 0 {
            assert_eq!(churned.timings.replayed_items, on_network);
        } else {
            assert!(churned.timings.replayed_items > on_network);
        }
        assert!(churned.timings.replayed_items < churned.raised_instances.len() as u64);
    }

    /// The universes the replay-equivalence runs churn: demands reach 2–3
    /// of [`SPREAD_NETWORKS`] networks, with two start slots apiece on a
    /// line, so one demand's instances sit in several networks' replays,
    /// and an epoch's churn leaves some of those networks clean.
    #[derive(Clone, Copy, Debug)]
    enum Churned {
        Line,
        NarrowLine,
        Tree,
    }

    const SPREAD_NETWORKS: usize = 8;

    /// 2–3 distinct random networks, ascending.
    fn spread_access(rng: &mut StdRng) -> Vec<NetworkId> {
        let mut access: Vec<NetworkId> = Vec::new();
        let reach = rng.gen_range(2..=3usize);
        while access.len() < reach {
            let t = NetworkId::new(rng.gen_range(0..SPREAD_NETWORKS));
            if !access.contains(&t) {
                access.push(t);
            }
        }
        access.sort_unstable();
        access
    }

    /// Line windows of `len` slots starting at `start` or `start + 1` on
    /// each network of `access`.
    fn line_instances(
        access: &[NetworkId],
        start: u32,
        len: u32,
    ) -> Vec<(NetworkId, EdgePath, Option<u32>)> {
        access
            .iter()
            .flat_map(|&t| {
                (start..start + 2).map(move |s| {
                    let path = EdgePath::interval(s as usize, (s + len - 1) as usize);
                    (t, path, Some(s))
                })
            })
            .collect()
    }

    /// Churns a universe of `kind` through `epochs` warm solves and checks
    /// each one's incremental second phase against the full replay: the
    /// solve equals, bit for bit, a solve on a copy of the state that
    /// re-decides every network, and its selection equals a
    /// [`replay_stack`] of the whole stack. Every fourth epoch runs under a
    /// round budget; the middle epoch inflates a dual so the certificate
    /// fails and the safety valve resets the state.
    fn assert_replay_matches_full(seed: u64, kind: Churned, epochs: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rule, heights) = match kind {
            Churned::NarrowLine => (RaiseRule::Narrow, (0.1, 0.5)),
            Churned::Line | Churned::Tree => (RaiseRule::Unit, (1.0, 1.0)),
        };
        let height = |rng: &mut StdRng| {
            if heights.0 == heights.1 {
                heights.0
            } else {
                rng.gen_range(heights.0..heights.1)
            }
        };
        let n = 16;
        let mut tree = TreeProblem::new(n);
        let (mut u, mut layering, layerer) = match kind {
            Churned::Line | Churned::NarrowLine => {
                let mut p = LineProblem::new(40, SPREAD_NETWORKS);
                for _ in 0..40 {
                    let len = rng.gen_range(2..=6u32);
                    let release = rng.gen_range(0..=(39 - len));
                    let access = spread_access(&mut rng);
                    let h = height(&mut rng);
                    p.add_demand(
                        release,
                        release + len,
                        len,
                        rng.gen_range(1.0..10.0),
                        h,
                        access,
                    )
                    .unwrap();
                }
                let u = p.universe();
                let layering = InstanceLayering::line_length_classes(&u);
                (u, layering, None)
            }
            Churned::Tree => {
                for _ in 0..SPREAD_NETWORKS {
                    let edges = (1..n)
                        .map(|v| (VertexId::new(rng.gen_range(0..v)), VertexId::new(v)))
                        .collect();
                    tree.add_network(edges).unwrap();
                }
                for _ in 0..40 {
                    let a = rng.gen_range(0..n - 1);
                    let b = rng.gen_range(a + 1..n);
                    let access = spread_access(&mut rng);
                    tree.add_unit_demand(
                        VertexId::new(a),
                        VertexId::new(b),
                        rng.gen_range(1.0..10.0),
                        access,
                    )
                    .unwrap();
                }
                let u = tree.universe();
                let layerer = TreeLayerer::new(&tree, TreeDecompositionKind::Ideal);
                let layering = layerer.layering(&tree, &u);
                (u, layering, Some(layerer))
            }
        };
        let config = AlgorithmConfig::deterministic(0.1);
        let mut warm = WarmState::new(&u, rule);
        let mut delta = UniverseDelta::new();
        let valve_epoch = epochs / 2;
        for epoch in 0..epochs {
            if epoch > 0 {
                let m = u.num_demands();
                let mut expired: Vec<DemandId> = (0..rng.gen_range(0..3))
                    .map(|_| live_demand(&u, rng.gen_range(0..m)))
                    .collect();
                expired.sort_unstable();
                expired.dedup();
                let mut arrivals = Vec::new();
                let mut assignments = Vec::new();
                for _ in 0..rng.gen_range(1..3) {
                    let access = spread_access(&mut rng);
                    let profit = 2f64.powi(rng.gen_range(0..8));
                    let instances = match &layerer {
                        None => {
                            let len = rng.gen_range(2..=6u32);
                            line_instances(&access, rng.gen_range(0..=(38 - len)), len)
                        }
                        Some(layerer) => {
                            let a = VertexId::new(rng.gen_range(0..n - 1));
                            let b = VertexId::new(rng.gen_range(a.index() + 1..n));
                            access
                                .iter()
                                .map(|&t| {
                                    let path = tree.network(t).path_edges(a, b);
                                    assignments.push(layerer.assign(
                                        tree.network(t),
                                        t,
                                        a,
                                        b,
                                        &path,
                                    ));
                                    (t, path, None)
                                })
                                .collect()
                        }
                    };
                    arrivals.push(ArrivingDemand {
                        profit,
                        height: height(&mut rng),
                        instances,
                    });
                }
                u.apply_demand_delta(&expired, &arrivals, &mut delta);
                match layerer {
                    None => layering = InstanceLayering::line_length_classes(&u),
                    Some(_) => layering.splice(delta.removed_instances(), assignments),
                }
                warm.splice(&u, &delta);
            }
            if epoch == valve_epoch {
                // A β no raise record explains; marking its network dirty
                // keeps that network's cached LHS exact.
                let network = NetworkId::new(0);
                warm.duals.subtract_beta(&u, network, EdgeId::new(0), -1e6);
                warm.pending_dirty[network.index()] = true;
            }
            let conflict = ShardedConflictGraph::build(&u);
            let rounds = (epoch % 4 == 2).then(|| rng.gen_range(1..4u64));
            let budget = || rounds.map_or_else(Budget::unlimited, Budget::rounds);
            let mut everything = warm.clone();
            everything.replay_pending.fill(true);
            let ours = run_two_phase_warm_on(
                &u,
                &conflict,
                &layering,
                rule,
                &config,
                &mut warm,
                &budget(),
            );
            let full = run_two_phase_warm_on(
                &u,
                &conflict,
                &layering,
                rule,
                &config,
                &mut everything,
                &budget(),
            );
            let at = format!("{kind:?}, seed {seed}, epoch {epoch}");
            assert_eq!(ours, full, "{at}");
            assert_eq!(ours.profit.to_bits(), full.profit.to_bits(), "{at}");
            assert_eq!(
                ours.diagnostics.lambda.to_bits(),
                full.diagnostics.lambda.to_bits(),
                "{at}"
            );
            assert_eq!(warm.committed_in, everything.committed_in, "{at}");
            assert_eq!(warm.demand_commit, everything.demand_commit, "{at}");
            assert_eq!(ours.selected, replay_stack(&u, &warm), "{at}");
            // The arena keeps tombstoned items until a compaction.
            let mut raised = warm.stack_items.clone();
            raised.retain(|d| u.is_live(*d));
            raised.sort_unstable();
            raised.dedup();
            assert_eq!(ours.raised_instances, raised, "{at}");
            if epoch == valve_epoch {
                assert_eq!(
                    warm.epochs_resumed(),
                    1,
                    "{at}: the safety valve did not fire"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// Over churn on line (unit and narrow) and tree universes, with
        /// budget cuts and a safety-valve reset, the incremental second
        /// phase equals the full replay.
        #[test]
        fn incremental_replay_matches_the_full_replay(seed in proptest::prelude::any::<u64>()) {
            for kind in [Churned::Line, Churned::NarrowLine, Churned::Tree] {
                assert_replay_matches_full(seed, kind, 10);
            }
        }
    }

    #[test]
    fn moved_commits_cascade_to_other_networks() {
        CASCADE_ROUNDS.with(|rounds| rounds.set(0));
        for seed in 0..3 {
            assert_replay_matches_full(seed, Churned::Line, 10);
            assert_replay_matches_full(seed, Churned::Tree, 10);
        }
        assert!(
            CASCADE_ROUNDS.with(|rounds| rounds.get()) > 0,
            "no moved commit re-marked another network"
        );
    }

    #[test]
    fn layer_numbers_relabel_before_they_run_out() {
        let mut u = line_universe(5, 30);
        let config = AlgorithmConfig::deterministic(0.1);
        let mut warm = WarmState::new(&u, RaiseRule::Unit);
        solve_fresh(&u, &mut warm, &config);
        let mut high = warm.clone();
        let columns = high
            .layer_seq
            .iter_mut()
            .chain(&mut high.newest_layer)
            .chain(&mut high.committed_in)
            .chain(&mut high.demand_commit);
        for seq in columns.filter(|seq| **seq != 0) {
            *seq += u32::MAX / 2;
        }
        let mut delta = UniverseDelta::new();
        let mut rng = StdRng::seed_from_u64(3);
        for round in 0..4 {
            churn_round(&mut u, &mut rng, &mut delta);
            warm.splice(&u, &delta);
            high.splice(&u, &delta);
            if round == 0 {
                let relabelled: Vec<u32> = (1..=high.num_mises() as u32).collect();
                assert_eq!(high.layer_seq, relabelled);
            }
            assert_same_next_solve(&u, &mut warm, &mut high);
        }
    }
}
