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
//!   phase replays), and
//! * cached eligibility / relative heights / constraint-LHS lower bounds.
//!
//! [`WarmState::splice`] follows a universe splice: expired instances'
//! `β` contributions are subtracted, expired demands' `α` variables are
//! dropped, and every per-instance vector is renumbered through the
//! [`UniverseDelta`] id maps. [`run_two_phase_warm_on`] then **repairs**
//! the certificate: only the instances of *dirty* networks (the networks
//! the splices touched since the last solve) can have lost satisfaction —
//! a clean network's `β` range sums are untouched and `α` variables only
//! ever grow — so the MIS/raise loop re-runs over the dirty shards alone,
//! until every eligible instance is `(1 − ε)`-satisfied again. The second
//! phase replays the whole stack (surviving seed + repair MISes, newest
//! first), exactly like a cold run's stack pop.
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
//! A warm re-solve on a **primed** state is **certificate-equivalent**, not
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
use crate::solution::{RunDiagnostics, Solution};
use netsched_decomp::InstanceLayering;
use netsched_distrib::{sharded_mis, MisScratch, RoundStats, ShardedConflictGraph};
use netsched_graph::{
    DemandInstanceUniverse, EdgeId, InstanceId, LoadTracker, NetworkId, UniverseDelta, EPS,
};
use netsched_workloads::json::{FromJson, JsonValue, ToJson};

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
///   range per MIS, oldest first). Splices compact both in place.
#[derive(Debug, Clone)]
pub struct WarmState {
    rule: RaiseRule,
    duals: DualState,
    /// Per instance: the network its recorded raises live on.
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
    /// Splice scratch: newest-occurrence marks (per new instance id).
    seen: Vec<bool>,
    /// Splice scratch: per stack item, survives-the-splice flag.
    keep: Vec<bool>,
    /// Per-instance lower bound on the constraint LHS, exact as of the
    /// instance's last visit by a repair pass (later raises only grow the
    /// true LHS, so the cache never over-estimates).
    lhs: Vec<f64>,
    /// Cached eligibility (static per instance: heights and capacities
    /// never change after admission).
    eligible: Vec<bool>,
    /// Cached maximum relative height `ĥ(d)` (static per instance).
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
    /// `false` until a warm solve has completed on this state; a fresh
    /// state repairs every shard: its first solve is the cold solve.
    primed: bool,
    /// Warm solves completed on this state (telemetry).
    epochs_resumed: u64,
}

impl WarmState {
    /// A fresh state over a universe: zero duals, empty stack, every shard
    /// pending. The first [`run_two_phase_warm_on`] on a fresh state is
    /// the cold solve.
    pub fn new(universe: &DemandInstanceUniverse, rule: RaiseRule) -> Self {
        let n = universe.num_instances();
        let rel_height: Vec<f64> = universe
            .instance_ids()
            .map(|d| DualState::max_relative_height(universe, d))
            .collect();
        let eligible = rel_height.iter().map(|&h| h <= 1.0 + EPS).collect();
        let mut state = Self {
            rule,
            duals: DualState::new(universe, rule),
            rec_network: vec![NetworkId::new(0); n],
            rec_head: vec![NIL; n],
            rec_tail: vec![NIL; n],
            beta_edge: Vec::new(),
            beta_amount: Vec::new(),
            beta_next: Vec::new(),
            free_head: NIL,
            stack_items: Vec::new(),
            stack_offsets: vec![0],
            seen: Vec::new(),
            keep: Vec::new(),
            lhs: vec![0.0; n],
            eligible,
            rel_height,
            pending_dirty: vec![false; universe.num_networks()],
            shard_min: vec![f64::INFINITY; universe.num_networks()],
            primed: false,
            epochs_resumed: 0,
        };
        for t in 0..universe.num_networks() {
            state.recompute_shard_min(universe, NetworkId::new(t));
        }
        state
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

    /// Total instance entries across the persisted first-phase stack — the
    /// replay cost the second phase pays every epoch. Lifecycle policies
    /// reset states whose stack mass has grown far beyond the live
    /// instance count (a cold re-epoch is certificate-safe by
    /// construction).
    #[inline]
    pub fn stack_mass(&self) -> usize {
        self.stack_items.len()
    }

    /// The number of instances this state tracks (one record per
    /// instance of the spliced universe).
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

    /// Appends one MIS to the replay stack (no per-MIS allocation once
    /// the flat arena has warmed up).
    #[inline]
    fn push_mis(&mut self, mis: &[InstanceId]) {
        self.stack_items.extend_from_slice(mis);
        self.stack_offsets.push(self.stack_items.len() as u32);
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
    fn record_raise(&mut self, d: InstanceId, network: NetworkId, pi: &[EdgeId], per_edge: f64) {
        self.rec_network[d.index()] = network;
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
            + self.stack_offsets.capacity() * size_of::<u32>()
            + self.seen.capacity()
            + self.keep.capacity()
            + (self.lhs.capacity() + self.rel_height.capacity() + self.shard_min.capacity())
                * size_of::<f64>()
            + self.eligible.capacity()
            + self.pending_dirty.capacity()
    }

    /// Recomputes one network's λ minimum from the cached LHS values.
    fn recompute_shard_min(&mut self, universe: &DemandInstanceUniverse, network: NetworkId) {
        self.shard_min[network.index()] = universe
            .instances_on_network(network)
            .iter()
            .copied()
            .filter(|d| self.eligible[d.index()])
            .map(|d| self.lhs[d.index()] / universe.profit(d))
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

    /// Checks a deserialized state's dimensions against a universe; see
    /// [`DualState::validate_shape`] for the dual-side checks.
    pub fn validate_shape(&self, universe: &DemandInstanceUniverse) -> Result<(), String> {
        let n = universe.num_instances();
        if self.instance_count() != n {
            return Err(format!(
                "warm state has {} instance records, universe has {n} instances",
                self.instance_count()
            ));
        }
        if self.pending_dirty.len() != universe.num_networks() {
            return Err(format!(
                "warm state has {} networks, universe has {}",
                self.pending_dirty.len(),
                universe.num_networks()
            ));
        }
        for network in &self.rec_network {
            if network.index() >= universe.num_networks() {
                return Err(format!(
                    "raise record names network {} of a {}-network universe",
                    network.index(),
                    universe.num_networks()
                ));
            }
        }
        for &d in &self.stack_items {
            if d.index() >= n {
                return Err(format!(
                    "stack names instance {} of a {n}-instance universe",
                    d.index()
                ));
            }
        }
        self.duals.validate_shape(universe)
    }

    /// Splices one universe delta through the persisted state. Must be
    /// called **after** the universe splice, with the same
    /// [`UniverseDelta`], exactly once per splice:
    ///
    /// 1. every removed instance's recorded `β` contributions are
    ///    subtracted from the Fenwick trees (point-clears),
    /// 2. expired demands' `α` variables are dropped and survivors
    ///    compacted through the demand id map,
    /// 3. the per-instance vectors (records, LHS cache, eligibility,
    ///    relative heights) renumber through the instance id map, with the
    ///    arrivals' entries freshly computed,
    /// 4. the stack renumbers likewise (expired members drop out; only the
    ///    newest occurrence of a re-raised instance is kept — an older
    ///    duplicate below a newer one can never commit in the second
    ///    phase, since tracker loads only grow), and
    /// 5. the delta's dirty networks accumulate into the pending set the
    ///    next repair consumes.
    pub fn splice(&mut self, universe: &DemandInstanceUniverse, delta: &UniverseDelta) {
        assert_eq!(
            delta.old_num_instances(),
            self.instance_count(),
            "warm state spliced against a delta of a different universe"
        );
        let n_new = universe.num_instances();
        let first_added = delta.first_added();
        let remap = delta.instance_remap();
        // Survivors form a prefix of the new id space; no removals means
        // the remap is the identity on everything that existed before.
        let has_removals = first_added < delta.old_num_instances();

        if has_removals {
            // 1. Point-clear the removed instances' β contributions and
            //    return their chains to the freelist. The chain walks from
            //    head to tail, so the subtracts happen in exactly the order
            //    the raises accumulated — the float behavior of the old
            //    per-record vector is preserved bit for bit.
            for old in delta.removed_instances() {
                let network = self.rec_network[old.index()];
                let mut cur = self.rec_head[old.index()];
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
            }
        }

        // 2. Compact α through the demand renumbering.
        self.duals
            .compact_alpha(delta.demand_remap(), universe.num_demands());

        // 3. Renumber the per-instance columns in place. The remap is
        //    monotone on survivors (new ≤ old), so a single forward pass
        //    compacts every column without scratch; arrivals then extend
        //    the columns with fresh entries.
        if has_removals {
            for (old, &new) in remap.iter().enumerate() {
                if new == u32::MAX {
                    continue;
                }
                let new = new as usize;
                self.rec_network[new] = self.rec_network[old];
                self.rec_head[new] = self.rec_head[old];
                self.rec_tail[new] = self.rec_tail[old];
                self.lhs[new] = self.lhs[old];
                self.eligible[new] = self.eligible[old];
                self.rel_height[new] = self.rel_height[old];
            }
        }
        self.rec_network.truncate(first_added);
        self.rec_network.resize(n_new, NetworkId::new(0));
        self.rec_head.truncate(first_added);
        self.rec_head.resize(n_new, NIL);
        self.rec_tail.truncate(first_added);
        self.rec_tail.resize(n_new, NIL);
        self.lhs.truncate(first_added);
        self.lhs.resize(n_new, 0.0);
        self.eligible.truncate(first_added);
        self.eligible.resize(n_new, false);
        self.rel_height.truncate(first_added);
        self.rel_height.resize(n_new, 0.0);
        for d in first_added..n_new {
            let rel = DualState::max_relative_height(universe, InstanceId::new(d));
            self.rel_height[d] = rel;
            self.eligible[d] = rel <= 1.0 + EPS;
        }

        // 4. Renumber the stack, keeping only the newest occurrence (an
        //    older duplicate below a newer one can never commit in the
        //    second phase, since tracker loads only grow). Pass one walks
        //    newest → oldest marking keepers; pass two compacts forward in
        //    place (the write cursor never passes the read cursor).
        self.seen.clear();
        self.seen.resize(n_new, false);
        self.keep.clear();
        self.keep.resize(self.stack_items.len(), false);
        let num_mises = self.num_mises();
        for m in (0..num_mises).rev() {
            for i in self.stack_offsets[m] as usize..self.stack_offsets[m + 1] as usize {
                let new = remap[self.stack_items[i].index()];
                if new != u32::MAX && !self.seen[new as usize] {
                    self.seen[new as usize] = true;
                    self.keep[i] = true;
                }
            }
        }
        let mut iw = 0usize;
        let mut ow = 0usize;
        for m in 0..num_mises {
            let (s, e) = (
                self.stack_offsets[m] as usize,
                self.stack_offsets[m + 1] as usize,
            );
            let start_iw = iw;
            for i in s..e {
                if self.keep[i] {
                    self.stack_items[iw] =
                        InstanceId::new(remap[self.stack_items[i].index()] as usize);
                    iw += 1;
                }
            }
            if iw > start_iw {
                self.stack_offsets[ow] = start_iw as u32;
                ow += 1;
            }
        }
        self.stack_offsets[ow] = iw as u32;
        self.stack_offsets.truncate(ow + 1);
        self.stack_items.truncate(iw);

        // 5. Accumulate the dirt for the next repair.
        for (pending, &dirty) in self.pending_dirty.iter_mut().zip(delta.dirty()) {
            *pending |= dirty;
        }
    }
}

impl ToJson for WarmState {
    fn to_json(&self) -> JsonValue {
        let records = (0..self.instance_count())
            .map(|d| {
                let mut beta = Vec::new();
                let mut cur = self.rec_head[d];
                while cur != NIL {
                    beta.push(JsonValue::Array(vec![
                        JsonValue::int(self.beta_edge[cur as usize].index()),
                        JsonValue::num(self.beta_amount[cur as usize]),
                    ]));
                    cur = self.beta_next[cur as usize];
                }
                JsonValue::object(vec![
                    ("network", JsonValue::int(self.rec_network[d].index())),
                    ("beta", JsonValue::Array(beta)),
                ])
            })
            .collect();
        let stack = (0..self.num_mises())
            .map(|m| {
                JsonValue::Array(
                    self.mis(m)
                        .iter()
                        .map(|d| JsonValue::int(d.index()))
                        .collect(),
                )
            })
            .collect();
        // `+∞` (a network with no eligible instances) is not a JSON number;
        // it travels as `null`.
        let shard_min = self
            .shard_min
            .iter()
            .map(|&x| {
                if x.is_finite() {
                    JsonValue::num(x)
                } else {
                    JsonValue::Null
                }
            })
            .collect();
        JsonValue::object(vec![
            ("rule", self.rule.to_json()),
            ("duals", self.duals.to_json()),
            ("records", JsonValue::Array(records)),
            ("stack", JsonValue::Array(stack)),
            (
                "lhs",
                JsonValue::Array(self.lhs.iter().map(|&x| JsonValue::num(x)).collect()),
            ),
            (
                "eligible",
                JsonValue::Array(self.eligible.iter().map(|&b| JsonValue::Bool(b)).collect()),
            ),
            (
                "rel_height",
                JsonValue::Array(self.rel_height.iter().map(|&x| JsonValue::num(x)).collect()),
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
            ("shard_min", JsonValue::Array(shard_min)),
            ("primed", JsonValue::Bool(self.primed)),
            ("epochs_resumed", JsonValue::u64_value(self.epochs_resumed)),
        ])
    }
}

fn bool_from_json(value: &JsonValue) -> Result<bool, String> {
    match value {
        JsonValue::Bool(b) => Ok(*b),
        other => Err(format!("expected a boolean, got {}", other.render())),
    }
}

impl FromJson for WarmState {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let record_rows = value.field("records")?.as_array()?;
        let mut rec_network = Vec::with_capacity(record_rows.len());
        let mut rec_head = Vec::with_capacity(record_rows.len());
        let mut rec_tail = Vec::with_capacity(record_rows.len());
        let mut beta_edge = Vec::new();
        let mut beta_amount = Vec::new();
        let mut beta_next = Vec::new();
        for r in record_rows {
            rec_network.push(NetworkId::new(r.field("network")?.as_usize()?));
            let mut head = NIL;
            let mut tail = NIL;
            for pair in r.field("beta")?.as_array()? {
                let pair = pair.as_array()?;
                if pair.len() != 2 {
                    return Err("raise record entries are [edge, amount] pairs".into());
                }
                let slot = beta_edge.len() as u32;
                beta_edge.push(EdgeId::new(pair[0].as_usize()?));
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
        for mis in value.field("stack")?.as_array()? {
            for d in mis.as_array()? {
                stack_items.push(InstanceId::new(d.as_usize()?));
            }
            stack_offsets.push(stack_items.len() as u32);
        }
        let floats = |name: &str| -> Result<Vec<f64>, String> {
            value
                .field(name)?
                .as_array()?
                .iter()
                .map(JsonValue::as_f64)
                .collect()
        };
        let bools = |name: &str| -> Result<Vec<bool>, String> {
            value
                .field(name)?
                .as_array()?
                .iter()
                .map(bool_from_json)
                .collect()
        };
        let shard_min = value
            .field("shard_min")?
            .as_array()?
            .iter()
            .map(|x| match x {
                JsonValue::Null => Ok(f64::INFINITY),
                other => other.as_f64(),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let state = Self {
            rule: RaiseRule::from_json(value.field("rule")?)?,
            duals: DualState::from_json(value.field("duals")?)?,
            rec_network,
            rec_head,
            rec_tail,
            beta_edge,
            beta_amount,
            beta_next,
            free_head: NIL,
            stack_items,
            stack_offsets,
            seen: Vec::new(),
            keep: Vec::new(),
            lhs: floats("lhs")?,
            eligible: bools("eligible")?,
            rel_height: floats("rel_height")?,
            pending_dirty: bools("pending_dirty")?,
            shard_min,
            primed: bool_from_json(value.field("primed")?)?,
            epochs_resumed: value.field("epochs_resumed")?.as_u64()?,
        };
        let n = state.instance_count();
        if state.lhs.len() != n || state.eligible.len() != n || state.rel_height.len() != n {
            return Err("per-instance vectors disagree on the instance count".into());
        }
        if state.shard_min.len() != state.pending_dirty.len() {
            return Err("per-network vectors disagree on the network count".into());
        }
        Ok(state)
    }
}

/// Positions within one layering group that are eligible and still below
/// the stage threshold, in group order.
fn unsatisfied_of_group(
    universe: &DemandInstanceUniverse,
    duals: &DualState,
    eligible: &[bool],
    group: &[InstanceId],
    threshold: f64,
) -> Vec<InstanceId> {
    group
        .iter()
        .copied()
        .filter(|&d| eligible[d.index()] && !duals.is_xi_satisfied(universe, d, threshold))
        .collect()
}

/// The engine's second phase: pops the MIS layers newest-first and
/// greedily commits every instance that still fits its edge capacities.
/// It reads only the frozen first-phase output (the MIS stack) plus the
/// immutable universe/conflict structures.
fn replay_stack<'a>(
    universe: &DemandInstanceUniverse,
    conflict: &ShardedConflictGraph,
    mises: impl Iterator<Item = &'a [InstanceId]>,
    stats: &mut RoundStats,
) -> Vec<InstanceId> {
    let mut tracker = LoadTracker::new(universe);
    let mut selected: Vec<InstanceId> = Vec::new();
    for mis in mises {
        let mut announced = 0u64;
        for &d in mis {
            if tracker.try_commit(universe, d) {
                selected.push(d);
                announced += conflict.degree(d) as u64;
            }
        }
        stats.record_messages(announced, 1);
        stats.record_round();
    }
    selected.sort_unstable();
    selected
}

/// What one repair pass did, and where a [`Budget`] cut it (if it did).
struct PassOutcome {
    steps: u64,
    max_steps_per_stage: u64,
    raised: u64,
    /// `true` when the budget cut the pass before it drained every stage.
    cut: bool,
    /// First-phase (group × stage) slots not yet drained at the cut.
    rounds_left: u64,
}

/// One repair pass over the active instances: the paper's
/// group × stage × step loop, restricted to `active` and checked against
/// `budget` before every MIS/raise round. Appends the new MIS sets
/// directly to `warm`'s replay stack, and every step to `trace` if one is
/// given.
#[allow(clippy::too_many_arguments)]
fn repair_pass(
    universe: &DemandInstanceUniverse,
    conflict: &ShardedConflictGraph,
    layering: &InstanceLayering,
    config: &AlgorithmConfig,
    warm: &mut WarmState,
    active: &[bool],
    groups: &[Vec<InstanceId>],
    stages: usize,
    xi: f64,
    step_cap: u64,
    budget: &Budget,
    stats: &mut RoundStats,
    scratch: &mut MisScratch,
    mut trace: Option<&mut Trace>,
) -> PassOutcome {
    let mut steps: u64 = 0;
    let mut max_steps_per_stage: u64 = 0;
    let mut raised: u64 = 0;
    let total_slots = (groups.len() * stages) as u64;
    let mut completed_slots: u64 = 0;
    let mut cut = false;
    'groups: for (epoch, group) in groups.iter().enumerate() {
        let filtered: Vec<InstanceId> = group
            .iter()
            .copied()
            .filter(|d| active[d.index()])
            .collect();
        if filtered.is_empty() {
            // Nothing to repair in this group: its slots count as drained.
            completed_slots += stages as u64;
            continue;
        }
        for stage in 1..=stages {
            let threshold = 1.0 - xi.powi(stage as i32);
            let mut stage_steps: u64 = 0;
            loop {
                let unsatisfied = unsatisfied_of_group(
                    universe,
                    &warm.duals,
                    &warm.eligible,
                    &filtered,
                    threshold,
                );
                if unsatisfied.is_empty() {
                    break;
                }
                debug_assert!(
                    stage_steps < step_cap,
                    "stage exceeded the Claim 5.2 step bound ({step_cap})"
                );
                if stage_steps >= step_cap {
                    break;
                }
                if !budget.consume_round() {
                    cut = true;
                    steps += stage_steps;
                    max_steps_per_stage = max_steps_per_stage.max(stage_steps);
                    break 'groups;
                }
                let strategy = derive_strategy(config, epoch, stage, stage_steps);
                let mis = sharded_mis(conflict, &unsatisfied, strategy, stats, scratch);
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
                        warm.record_raise(d, universe.instance(d).network, pi, per_edge);
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
/// ([`run_two_phase_on`](crate::run_two_phase_on)); on a primed state it
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
    config.validate().expect("invalid algorithm configuration");
    assert_eq!(
        rule, warm.rule,
        "warm state carries a different raise rule; reset it with WarmState::new"
    );
    assert_eq!(
        warm.instance_count(),
        universe.num_instances(),
        "warm state missed a universe splice"
    );
    if universe.num_instances() == 0 {
        *warm = WarmState::new(universe, rule);
        return Solution::empty();
    }

    let fresh = !warm.primed;
    let mut active_networks: Vec<bool> = if fresh {
        vec![true; universe.num_networks()]
    } else {
        warm.pending_dirty.clone()
    };
    let mut active: Vec<bool> = if fresh {
        vec![true; universe.num_instances()]
    } else {
        let mut mask = vec![false; universe.num_instances()];
        for (t, &dirty) in warm.pending_dirty.iter().enumerate() {
            if dirty {
                for &d in universe.instances_on_network(NetworkId::new(t)) {
                    mask[d.index()] = true;
                }
            }
        }
        mask
    };

    let h_min = warm
        .rel_height
        .iter()
        .zip(&warm.eligible)
        .filter(|&(_, &e)| e)
        .map(|(&h, _)| h)
        .fold(1.0_f64, f64::min);
    let xi = stage_xi(rule, layering.max_critical().max(1), h_min);
    let stages = stages_per_epoch(xi, config.epsilon);
    let profit_ratio = (universe.max_profit() / universe.min_profit()).max(1.0);
    let step_cap = 4 * (profit_ratio.log2().ceil() as u64 + 4) + 32;

    let groups = layering.groups();
    let mut stats = RoundStats::new();
    let mut scratch = MisScratch::new(universe.num_instances());

    // ---------------- First phase: certificate repair ----------------
    let mut steps = 0u64;
    let mut max_steps_per_stage = 0u64;
    let mut raised = 0u64;
    let lambda_target = 1.0 - config.epsilon - 1e-6;
    let mut truncated: Option<u64> = None;
    for attempt in 0..2 {
        let pass = repair_pass(
            universe,
            conflict,
            layering,
            config,
            warm,
            &active,
            &groups,
            stages,
            xi,
            step_cap,
            budget,
            &mut stats,
            &mut scratch,
            trace.as_deref_mut(),
        );
        steps += pass.steps;
        max_steps_per_stage = max_steps_per_stage.max(pass.max_steps_per_stage);
        raised += pass.raised;

        // Refresh the LHS cache exactly for everything this pass scanned,
        // then fold the scanned networks' λ minima from it.
        for d in universe.instance_ids().filter(|d| active[d.index()]) {
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
        if pass.cut {
            // Budget exhausted mid-repair: certify from the (just
            // refreshed) per-network minima cache and stop here — the
            // schedule is feasible and the bound valid either way.
            truncated = Some(pass.rounds_left);
            break;
        }
        let all_active = active.iter().all(|&a| a);
        if lambda >= lambda_target || all_active || attempt == 1 {
            break;
        }
        // A clean shard's satisfaction regressed beyond what the dirty
        // bookkeeping predicted (should not happen — clean duals only
        // grow); repair everything before certifying.
        active = vec![true; universe.num_instances()];
        active_networks = vec![true; universe.num_networks()];
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

    // ---------------- Second phase: replay the full stack ----------------
    // The repair passes appended their MISes directly onto warm's stack
    // arena, so the surviving seed + repair MISes are already in order;
    // replay newest first, exactly like a cold run's stack pop.
    let selected = replay_stack(
        universe,
        conflict,
        (0..warm.num_mises()).rev().map(|m| warm.mis(m)),
        &mut stats,
    );

    let mut raised_instances: Vec<InstanceId> = warm.stack_items.clone();
    raised_instances.sort_unstable();
    raised_instances.dedup();

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
    warm.primed = true;
    warm.epochs_resumed += 1;

    let profit = universe.total_profit(&selected);
    let solution = Solution {
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
            delta: layering.max_critical(),
            lambda,
            dual_objective,
            optimum_upper_bound: dual_objective / lambda,
            quality: match truncated {
                Some(rounds_left) => CertificateQuality::Truncated { rounds_left },
                None => CertificateQuality::Full,
            },
        },
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
        return run_two_phase_warm_on(
            universe,
            conflict,
            layering,
            rule,
            config,
            warm,
            &Budget::unlimited(),
        );
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
        .filter(|d| warm.eligible[d.index()])
        .map(|d| warm.lhs[d.index()] / universe.profit(d))
        .fold(1.0_f64, f64::min)
        .max(EPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::run_two_phase_reference;
    use netsched_distrib::MisStrategy;
    use netsched_graph::{ArrivingDemand, DemandId, EdgePath, LineProblem, NetworkId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
                DemandId::new(rng.gen_range(0..m)),
                DemandId::new(rng.gen_range(0..m)),
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

        let everyone: Vec<DemandId> = (0..u.num_demands()).map(DemandId::new).collect();
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
            DemandId::new(rng.gen_range(0..m)),
            DemandId::new(rng.gen_range(0..m)),
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
        }
    }

    #[test]
    fn warm_state_roundtrips_through_json() {
        let mut u = line_universe(17, 22);
        let config = AlgorithmConfig::deterministic(0.1);
        let mut warm = WarmState::new(&u, RaiseRule::Unit);
        solve_fresh(&u, &mut warm, &config);
        let mut delta = UniverseDelta::new();
        let mut rng = StdRng::seed_from_u64(9);
        let conflict_layering = |u: &DemandInstanceUniverse| {
            (
                ShardedConflictGraph::build(u),
                InstanceLayering::line_length_classes(u),
            )
        };
        for _ in 0..3 {
            churn_round(&mut u, &mut rng, &mut delta);
            warm.splice(&u, &delta);
            let (conflict, layering) = conflict_layering(&u);
            run_two_phase_warm_on(
                &u,
                &conflict,
                &layering,
                RaiseRule::Unit,
                &config,
                &mut warm,
                &Budget::unlimited(),
            );
        }

        let text = warm.to_json().render();
        let mut restored = WarmState::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        restored.validate_shape(&u).unwrap();
        assert_eq!(restored.rule(), warm.rule());
        assert_eq!(restored.epochs_resumed(), warm.epochs_resumed());
        assert_eq!(restored.stack_mass(), warm.stack_mass());
        assert_eq!(
            restored.shard_lambda().to_bits(),
            warm.shard_lambda().to_bits()
        );

        // Re-solving from the restored state must match re-solving from the
        // original: the stack replay and the cached-LHS certificate are
        // exact copies (only Fenwick-internal prefix nodes are
        // re-accumulated, which no quiescent solve reads).
        let (conflict, layering) = conflict_layering(&u);
        let from_original = run_two_phase_warm_on(
            &u,
            &conflict,
            &layering,
            RaiseRule::Unit,
            &config,
            &mut warm,
            &Budget::unlimited(),
        );
        let from_restored = run_two_phase_warm_on(
            &u,
            &conflict,
            &layering,
            RaiseRule::Unit,
            &config,
            &mut restored,
            &Budget::unlimited(),
        );
        assert_eq!(from_original.selected, from_restored.selected);
        assert_eq!(from_original.profit, from_restored.profit);
        assert_eq!(
            from_original.diagnostics.lambda.to_bits(),
            from_restored.diagnostics.lambda.to_bits()
        );
        assert!(
            (from_original.diagnostics.dual_objective - from_restored.diagnostics.dual_objective)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn restored_state_rejects_the_wrong_universe() {
        let u = line_universe(3, 12);
        let config = AlgorithmConfig::deterministic(0.1);
        let mut warm = WarmState::new(&u, RaiseRule::Unit);
        solve_fresh(&u, &mut warm, &config);
        let restored =
            WarmState::from_json(&JsonValue::parse(&warm.to_json().render()).unwrap()).unwrap();
        let other = line_universe(4, 15);
        assert!(restored.validate_shape(&other).is_err());
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
}
