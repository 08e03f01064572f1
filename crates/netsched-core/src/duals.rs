//! The dual variables `α(a)`, `β(e)` and their bookkeeping (Section 3.1 and
//! Section 6.1).
//!
//! The primal LP selects demand instances subject to per-edge capacity and
//! one-instance-per-demand constraints; its dual has a variable `α(a)` per
//! demand and `β(e)` per (network, edge) pair, and one covering constraint
//! per demand instance. The two-phase framework manipulates an (infeasible)
//! dual assignment whose scaled version certifies the approximation bound
//! via weak duality.
//!
//! The `β` variables are stored in per-network **Fenwick trees**: a raise
//! performs `|π(d)| ≤ ∆` point updates, and the constraint LHS
//! `Σ_{e ∼ d} β(e)` is evaluated as one range sum per interval run of
//! `path(d)` — `O(runs · log E)` instead of `O(path length)`, which is what
//! makes the first phase sublinear in the instance lengths. In the
//! capacitated narrow setting a second Fenwick tree mirrors `β(e)/c(e)`,
//! so the weighted constraint LHS is the same `O(runs · log E)` range sum
//! instead of a per-edge loop; `ĥ(d)` queries ride on the universe's
//! range-minimum [`CapacityIndex`](netsched_graph::CapacityIndex).

use crate::config::RaiseRule;
use netsched_graph::{DemandInstanceUniverse, InstanceId, NetworkId};
use netsched_workloads::json::{FromJson, JsonValue, ToJson};

/// A Fenwick (binary indexed) tree over `f64` with point updates and
/// prefix/range sums, plus a dense mirror so single-point reads stay `O(1)`
/// (the capacitated narrow path reads `β(e)` edge by edge).
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<f64>,
    dense: Vec<f64>,
}

impl Fenwick {
    fn new(len: usize) -> Self {
        Self {
            tree: vec![0.0; len + 1],
            dense: vec![0.0; len],
        }
    }

    /// Adds `delta` at index `i`.
    fn add(&mut self, i: usize, delta: f64) {
        self.dense[i] += delta;
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of the first `i` entries (`[0, i)`).
    fn prefix(&self, i: usize) -> f64 {
        let mut i = i.min(self.tree.len() - 1);
        let mut sum = 0.0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Sum over the inclusive index range `[lo, hi]`.
    #[inline]
    fn range(&self, lo: usize, hi: usize) -> f64 {
        self.prefix(hi + 1) - self.prefix(lo)
    }

    /// Value at a single index (`O(1)` via the dense mirror).
    #[inline]
    fn point(&self, i: usize) -> f64 {
        self.dense[i]
    }

    /// Sum of all entries.
    #[inline]
    fn total(&self) -> f64 {
        self.prefix(self.tree.len() - 1)
    }

    /// The prefix nodes the point values give when summed bottom-up in
    /// index order (`O(len)`).
    fn bottom_up(points: &[f64]) -> Vec<f64> {
        let mut tree = vec![0.0; points.len() + 1];
        for j in 1..tree.len() {
            tree[j] += points[j - 1];
            let parent = j + (j & j.wrapping_neg());
            if parent < tree.len() {
                tree[parent] += tree[j];
            }
        }
        tree
    }

    /// Serializes the tree as its dense point values plus the prefix nodes
    /// [`Fenwick::bottom_up`] does not reproduce bit for bit: a node sums
    /// its range in the order the updates came, so it can differ from the
    /// bottom-up sum in the last bits. Only those nodes are stored, as a
    /// flat `[node, value, node, value, …]` list, and restore is exact.
    fn to_json(&self) -> JsonValue {
        let rebuilt = Self::bottom_up(&self.dense);
        let mut drift = Vec::new();
        for (j, (&x, &y)) in self.tree.iter().zip(&rebuilt).enumerate() {
            if x.to_bits() != y.to_bits() {
                drift.extend([JsonValue::int(j), JsonValue::num(x)]);
            }
        }
        JsonValue::object(vec![
            (
                "points",
                JsonValue::Array(self.dense.iter().map(|&x| JsonValue::num(x)).collect()),
            ),
            ("drift", JsonValue::Array(drift)),
        ])
    }

    /// Rebuilds a tree bit for bit from its [`to_json`](Fenwick::to_json)
    /// document.
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let points = value
            .field("points")?
            .as_array()?
            .iter()
            .map(JsonValue::as_f64)
            .collect::<Result<Vec<_>, _>>()?;
        let mut fen = Self {
            tree: Self::bottom_up(&points),
            dense: points,
        };
        let drift = value.field("drift")?.as_array()?;
        if drift.len() % 2 != 0 {
            return Err("Fenwick drift is a flat list of node, value pairs".into());
        }
        for pair in drift.chunks_exact(2) {
            let node = pair[0].as_usize()?;
            if !(1..fen.tree.len()).contains(&node) {
                return Err(format!(
                    "Fenwick drift names node {node} of {}",
                    fen.tree.len()
                ));
            }
            fen.tree[node] = pair[1].as_f64()?;
        }
        Ok(fen)
    }
}

/// The per-network slice of the `β` assignment: the Fenwick tree over
/// `β(e)` plus, in the capacitated narrow setting, a mirror tree over
/// `β(e)/c(e)` so the weighted constraint LHS stays a range sum.
#[derive(Debug, Clone)]
struct NetworkDuals {
    beta: Fenwick,
    weighted: Option<Fenwick>,
}

/// The dual assignment `⟨α, β⟩`.
#[derive(Debug, Clone)]
pub struct DualState {
    /// `α(a)` per demand.
    alpha: Vec<f64>,
    /// `β(e)` per network, as Fenwick trees over the edge indices.
    beta: Vec<NetworkDuals>,
    /// Which constraint form / raise rule is in effect.
    rule: RaiseRule,
}

impl DualState {
    /// Creates the all-zero dual assignment for a universe.
    pub fn new(universe: &DemandInstanceUniverse, rule: RaiseRule) -> Self {
        let mirror = rule == RaiseRule::Narrow && !universe.is_uniform_capacity();
        let beta = (0..universe.num_networks())
            .map(|t| {
                let edges = universe.num_edges(NetworkId::new(t));
                NetworkDuals {
                    beta: Fenwick::new(edges),
                    weighted: mirror.then(|| Fenwick::new(edges)),
                }
            })
            .collect();
        let mut alpha = Vec::with_capacity(universe.demand_slot_target());
        alpha.resize(universe.demand_slots(), 0.0);
        Self { alpha, beta, rule }
    }

    /// The raise rule this state was created with.
    #[inline]
    pub fn rule(&self) -> RaiseRule {
        self.rule
    }

    /// `α(a)`.
    #[inline]
    pub fn alpha(&self, demand: netsched_graph::DemandId) -> f64 {
        self.alpha[demand.index()]
    }

    /// `β(e)` for edge `e` of network `t`.
    #[inline]
    pub fn beta(&self, network: NetworkId, edge: netsched_graph::EdgeId) -> f64 {
        self.beta[network.index()].beta.point(edge.index())
    }

    /// The *relative height* of instance `d` on edge `e`: `h(d) / c(e)`.
    /// Equal to `h(d)` in the uniform-capacity setting of the arXiv text.
    fn relative_height(
        universe: &DemandInstanceUniverse,
        d: InstanceId,
        edge: netsched_graph::EdgeId,
    ) -> f64 {
        let inst = universe.instance(d);
        inst.height / universe.capacity(netsched_graph::GlobalEdge::new(inst.network, edge))
    }

    /// The maximum relative height of `d` over its path (`ĥ(d)`); equals
    /// `h(d)` under uniform capacities (`O(1)`) and
    /// `h(d) / min_{e ∼ d} c(e)` otherwise — one range-minimum query per
    /// interval run on the universe's capacity index (`O(runs)`).
    pub fn max_relative_height(universe: &DemandInstanceUniverse, d: InstanceId) -> f64 {
        let inst = universe.instance(d);
        if universe.is_uniform_capacity() {
            return inst.height;
        }
        if inst.path.is_empty() {
            return 0.0;
        }
        inst.height / universe.min_capacity_on_path(inst.network, &inst.path)
    }

    /// The left-hand side of the dual constraint of `d`:
    /// `α(a_d) + Σ_{e ∼ d} β(e)` under [`RaiseRule::Unit`], and
    /// `α(a_d) + Σ_{e ∼ d} (h(d)/c(e)) · β(e)` under [`RaiseRule::Narrow`].
    ///
    /// Evaluated as one Fenwick range sum per interval run of `path(d)`
    /// (`O(runs · log E)`) in every setting: the capacitated narrow case
    /// reads the `β(e)/c(e)` mirror tree, so the per-edge weights are
    /// already folded into the range sum.
    pub fn lhs(&self, universe: &DemandInstanceUniverse, d: InstanceId) -> f64 {
        let inst = universe.instance(d);
        self.alpha[inst.demand.index()]
            + Self::lhs_in_network(&self.beta[inst.network.index()], self.rule, universe, d)
    }

    /// The `β` contribution to the constraint LHS of `d`, within its own
    /// network's trees.
    fn lhs_in_network(
        nd: &NetworkDuals,
        rule: RaiseRule,
        universe: &DemandInstanceUniverse,
        d: InstanceId,
    ) -> f64 {
        let inst = universe.instance(d);
        match rule {
            RaiseRule::Unit => {
                let mut sum = 0.0;
                for run in inst.path.runs() {
                    sum += nd.beta.range(run.start as usize, run.end as usize);
                }
                sum
            }
            RaiseRule::Narrow => {
                // Uniform: h(d)/c(e) = h(d), factor it out of the β sum.
                // Capacitated: the mirror tree already carries β(e)/c(e).
                let tree = nd.weighted.as_ref().unwrap_or(&nd.beta);
                let mut sum = 0.0;
                for run in inst.path.runs() {
                    sum += tree.range(run.start as usize, run.end as usize);
                }
                inst.height * sum
            }
        }
    }

    /// The slack `s = p(d) − LHS` of the dual constraint of `d` (clamped to
    /// zero from below).
    pub fn slack(&self, universe: &DemandInstanceUniverse, d: InstanceId) -> f64 {
        (universe.profit(d) - self.lhs(universe, d)).max(0.0)
    }

    /// Returns `true` if `d` is ξ-satisfied: `LHS ≥ ξ · p(d)` (Section 3.2).
    pub fn is_xi_satisfied(
        &self,
        universe: &DemandInstanceUniverse,
        d: InstanceId,
        xi: f64,
    ) -> bool {
        self.lhs(universe, d) + netsched_graph::EPS >= xi * universe.profit(d)
    }

    /// The largest `λ` for which every instance is λ-satisfied; this is the
    /// slackness parameter reported at the end of the first phase.
    pub fn achieved_lambda(&self, universe: &DemandInstanceUniverse) -> f64 {
        universe
            .instance_ids()
            .map(|d| self.lhs(universe, d) / universe.profit(d))
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Raises instance `d` so that its dual constraint becomes tight, using
    /// the critical edges `pi` and the state's raise rule. Returns the raise
    /// amount `δ(d)`.
    pub fn raise(
        &mut self,
        universe: &DemandInstanceUniverse,
        d: InstanceId,
        pi: &[netsched_graph::EdgeId],
    ) -> f64 {
        self.raise_with_options(universe, d, pi, true)
    }

    /// Like [`DualState::raise`] but optionally skipping the `α` variable.
    ///
    /// Appendix A notes that with a single tree-network (one instance per
    /// demand) the `α` variables are unnecessary and dropping them improves
    /// the sequential ratio from 3 to 2; in that mode
    /// `δ = s / |π(d)|` and only the `β` variables are raised.
    pub fn raise_with_options(
        &mut self,
        universe: &DemandInstanceUniverse,
        d: InstanceId,
        pi: &[netsched_graph::EdgeId],
        include_alpha: bool,
    ) -> f64 {
        let inst = universe.instance(d);
        let rule = self.rule;
        let nd = &mut self.beta[inst.network.index()];
        let lhs = self.alpha[inst.demand.index()] + Self::lhs_in_network(nd, rule, universe, d);
        let s = (universe.profit(d) - lhs).max(0.0);
        if s <= 0.0 {
            return 0.0;
        }
        let k = pi.len() as f64;
        let delta = match rule {
            RaiseRule::Unit => {
                let denom = if include_alpha { k + 1.0 } else { k.max(1.0) };
                let delta = s / denom;
                for &e in pi {
                    debug_assert!(inst.path.contains(e), "critical edges must lie on the path");
                    nd.beta.add(e.index(), delta);
                }
                delta
            }
            RaiseRule::Narrow => {
                // δ is chosen so that the constraint becomes exactly tight:
                // the LHS gains δ from α plus Σ_{e∈π} (h/c(e)) · 2kδ from the
                // β variables. Under uniform capacities this is the paper's
                // δ = s / (1 + 2·h(d)·|π(d)|²).
                let rel_sum: f64 = pi
                    .iter()
                    .map(|&e| Self::relative_height(universe, d, e))
                    .sum();
                let delta = s / (1.0 + 2.0 * k * rel_sum);
                for &e in pi {
                    debug_assert!(inst.path.contains(e), "critical edges must lie on the path");
                    nd.beta.add(e.index(), 2.0 * k * delta);
                    if let Some(weighted) = &mut nd.weighted {
                        let c = universe.capacity(netsched_graph::GlobalEdge::new(inst.network, e));
                        weighted.add(e.index(), 2.0 * k * delta / c);
                    }
                }
                delta
            }
        };
        if (include_alpha || rule == RaiseRule::Narrow) && delta > 0.0 {
            self.alpha[inst.demand.index()] += delta;
        }
        delta
    }

    /// Subtracts a previously raised `β` contribution of `amount` from edge
    /// `edge` of network `network` (and the mirrored `amount / c(e)` from
    /// the weighted tree, when present).
    ///
    /// This is the splice primitive of the warm re-solve engine: when a
    /// demand expires, the exact amounts its instances' raises added are
    /// cleared out point by point, returning the `β` assignment to "as if
    /// those raises never happened". Tiny negative residue left by
    /// floating-point cancellation is clamped back to zero so the dual
    /// assignment stays non-negative.
    pub fn subtract_beta(
        &mut self,
        universe: &DemandInstanceUniverse,
        network: NetworkId,
        edge: netsched_graph::EdgeId,
        amount: f64,
    ) {
        let nd = &mut self.beta[network.index()];
        nd.beta.add(edge.index(), -amount);
        let residue = nd.beta.point(edge.index());
        if residue < 0.0 {
            nd.beta.add(edge.index(), -residue);
        }
        if let Some(weighted) = &mut nd.weighted {
            let c = universe.capacity(netsched_graph::GlobalEdge::new(network, edge));
            weighted.add(edge.index(), -amount / c);
            let residue = weighted.point(edge.index());
            if residue < 0.0 {
                weighted.add(edge.index(), -residue);
            }
        }
    }

    /// Follows a universe splice: the expired demands' `α` variables drop
    /// to zero — no surviving constraint references them, since expiry
    /// removes whole demands, and a zero adds nothing to the objective —
    /// and the vector extends with zeros over the arrivals' ids, up to
    /// `universe`'s demand slots. `O(batch)`.
    pub fn expire_alpha(
        &mut self,
        universe: &DemandInstanceUniverse,
        expired: &[netsched_graph::DemandId],
    ) {
        for &a in expired {
            self.alpha[a.index()] = 0.0;
        }
        netsched_graph::reserve_slots(&mut self.alpha, universe.demand_slot_target());
        self.alpha.resize(universe.demand_slots(), 0.0);
    }

    /// Follows a universe compaction: the `α` vector drops the tombstoned
    /// demands' slots through the demand relabelling (old id → new id,
    /// `u32::MAX` = tombstone) and is cut to `new_len`.
    pub fn compact_alpha(&mut self, demand_remap: &[u32], new_len: usize) {
        debug_assert_eq!(demand_remap.len(), self.alpha.len());
        let mut next = 0usize;
        for (old, &new) in demand_remap.iter().enumerate() {
            if new != u32::MAX {
                debug_assert_eq!(new as usize, next);
                self.alpha[next] = self.alpha[old];
                next += 1;
            }
        }
        self.alpha.truncate(next);
        self.alpha.resize(new_len, 0.0);
    }

    /// Heap bytes currently committed by the dual assignment (capacities,
    /// not lengths) — the serving tier's bytes/demand audit.
    pub fn committed_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.alpha.capacity() * size_of::<f64>()
            + self.beta.capacity() * size_of::<NetworkDuals>();
        for nd in &self.beta {
            bytes += (nd.beta.tree.capacity() + nd.beta.dense.capacity()) * size_of::<f64>();
            if let Some(w) = &nd.weighted {
                bytes += (w.tree.capacity() + w.dense.capacity()) * size_of::<f64>();
            }
        }
        bytes
    }

    /// The dual objective `Σ_a α(a) + Σ_e β(e)` of the current assignment.
    pub fn objective(&self) -> f64 {
        self.alpha.iter().sum::<f64>() + self.beta.iter().map(|nd| nd.beta.total()).sum::<f64>()
    }

    /// An upper bound on the optimal profit obtained by scaling the dual
    /// assignment by `1/λ` (weak duality, proof of Lemma 3.1). Only valid
    /// when every instance is λ-satisfied — pass
    /// [`DualState::achieved_lambda`] or a lower value.
    pub fn scaled_upper_bound(&self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "lambda must be positive");
        self.objective() / lambda
    }

    /// Checks a deserialized assignment's dimensions against a universe:
    /// the `α` vector, the per-network tree count and every tree's edge
    /// count must match, and the capacitated-narrow mirror tree must be
    /// present exactly when the universe and rule call for one.
    pub fn validate_shape(&self, universe: &DemandInstanceUniverse) -> Result<(), String> {
        if self.alpha.len() != universe.demand_slots() {
            return Err(format!(
                "dual state has {} alpha entries, universe has {} demand slots",
                self.alpha.len(),
                universe.demand_slots()
            ));
        }
        if self.beta.len() != universe.num_networks() {
            return Err(format!(
                "dual state has {} networks, universe has {}",
                self.beta.len(),
                universe.num_networks()
            ));
        }
        let mirror = self.rule == RaiseRule::Narrow && !universe.is_uniform_capacity();
        for (t, nd) in self.beta.iter().enumerate() {
            let edges = universe.num_edges(NetworkId::new(t));
            if nd.beta.dense.len() != edges {
                return Err(format!(
                    "network {t}: dual state has {} beta entries, universe has {edges} edges",
                    nd.beta.dense.len()
                ));
            }
            if nd.weighted.is_some() != mirror {
                return Err(format!(
                    "network {t}: weighted mirror tree {} but the rule/capacity \
                     setting requires it to be {}",
                    if nd.weighted.is_some() {
                        "present"
                    } else {
                        "absent"
                    },
                    if mirror { "present" } else { "absent" },
                ));
            }
            if let Some(w) = &nd.weighted {
                if w.dense.len() != edges {
                    return Err(format!(
                        "network {t}: dual state has {} weighted entries, \
                         universe has {edges} edges",
                        w.dense.len()
                    ));
                }
            }
        }
        Ok(())
    }
}

impl ToJson for DualState {
    fn to_json(&self) -> JsonValue {
        self.render(self.alpha.iter().copied())
    }
}

impl DualState {
    /// [`to_json`](ToJson::to_json) through `universe`'s order-preserving
    /// relabel: the `α` of the live demands only, in id order — the
    /// document the state would render after a compaction.
    pub fn to_json_relabelled(&self, universe: &DemandInstanceUniverse) -> JsonValue {
        self.render(
            self.alpha
                .iter()
                .enumerate()
                .filter(|&(a, _)| universe.is_live_demand(netsched_graph::DemandId::new(a)))
                .map(|(_, &x)| x),
        )
    }

    fn render(&self, alpha: impl Iterator<Item = f64>) -> JsonValue {
        let networks = self
            .beta
            .iter()
            .map(|nd| {
                JsonValue::object(vec![
                    ("beta", nd.beta.to_json()),
                    (
                        "weighted",
                        nd.weighted
                            .as_ref()
                            .map(Fenwick::to_json)
                            .unwrap_or(JsonValue::Null),
                    ),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("rule", self.rule.to_json()),
            (
                "alpha",
                JsonValue::Array(alpha.map(JsonValue::num).collect()),
            ),
            ("networks", JsonValue::Array(networks)),
        ])
    }
}

impl FromJson for DualState {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let rule = RaiseRule::from_json(value.field("rule")?)?;
        let alpha = value
            .field("alpha")?
            .as_array()?
            .iter()
            .map(JsonValue::as_f64)
            .collect::<Result<Vec<_>, _>>()?;
        let beta = value
            .field("networks")?
            .as_array()?
            .iter()
            .map(|nd| {
                Ok(NetworkDuals {
                    beta: Fenwick::from_json(nd.field("beta")?)?,
                    weighted: match nd.field("weighted")? {
                        JsonValue::Null => None,
                        doc => Some(Fenwick::from_json(doc)?),
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self { alpha, beta, rule })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsched_graph::fixtures::{figure1_line_problem, two_tree_problem};
    use netsched_graph::EdgeId;

    #[test]
    fn unit_raise_makes_constraint_tight() {
        let u = two_tree_problem().universe();
        let mut duals = DualState::new(&u, RaiseRule::Unit);
        let d = InstanceId::new(0);
        assert_eq!(duals.lhs(&u, d), 0.0);
        assert!(!duals.is_xi_satisfied(&u, d, 0.5));
        let path: Vec<EdgeId> = u.instance(d).path.iter().collect();
        let pi = &path[..path.len().min(2)];
        let delta = duals.raise(&u, d, pi);
        assert!(delta > 0.0);
        let lhs = duals.lhs(&u, d);
        assert!((lhs - u.profit(d)).abs() < 1e-9, "constraint must be tight");
        assert!(duals.is_xi_satisfied(&u, d, 1.0));
        // Raising again does nothing.
        assert_eq!(duals.raise(&u, d, pi), 0.0);
    }

    #[test]
    fn narrow_raise_makes_constraint_tight() {
        let u = figure1_line_problem().universe();
        let mut duals = DualState::new(&u, RaiseRule::Narrow);
        for d in u.instance_ids() {
            let path: Vec<EdgeId> = u.instance(d).path.iter().collect();
            let pi: Vec<EdgeId> = vec![path[0], path[path.len() / 2], path[path.len() - 1]];
            let mut pi = pi;
            pi.sort_unstable();
            pi.dedup();
            duals.raise(&u, d, &pi);
            assert!(
                (duals.lhs(&u, d) - u.profit(d)).abs() < 1e-9,
                "narrow raise must tighten the constraint"
            );
        }
        assert!((duals.achieved_lambda(&u) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn raising_one_instance_helps_overlapping_ones() {
        let u = figure1_line_problem().universe();
        // A (instance 0) and B (instance 1) overlap on timeslots 3, 4.
        let mut duals = DualState::new(&u, RaiseRule::Unit);
        let shared = EdgeId::new(3);
        duals.raise(&u, InstanceId::new(0), &[shared]);
        assert!(duals.lhs(&u, InstanceId::new(1)) > 0.0);
        // C (instance 2) is disjoint from A and its demand differs, so its
        // LHS is untouched.
        assert_eq!(duals.lhs(&u, InstanceId::new(2)), 0.0);
    }

    #[test]
    fn objective_counts_alpha_and_beta() {
        let u = two_tree_problem().universe();
        let mut duals = DualState::new(&u, RaiseRule::Unit);
        let d = InstanceId::new(0);
        let path: Vec<EdgeId> = u.instance(d).path.iter().collect();
        let delta = duals.raise(&u, d, &path[..1]);
        // One alpha and one beta raised by delta each.
        assert!((duals.objective() - 2.0 * delta).abs() < 1e-12);
        assert!(duals.scaled_upper_bound(0.5) >= duals.objective());
    }

    #[test]
    fn same_demand_instances_share_alpha() {
        let u = two_tree_problem().universe();
        let insts = u.instances_of_demand(netsched_graph::DemandId::new(0));
        assert_eq!(insts.len(), 2);
        let mut duals = DualState::new(&u, RaiseRule::Unit);
        duals.raise(&u, insts[0], &[]);
        // Raising with an empty critical set dumps the whole slack into
        // alpha, which also appears in the sibling instance's constraint.
        assert!(duals.lhs(&u, insts[1]) > 0.0);
        assert!((duals.lhs(&u, insts[1]) - u.profit(insts[0])).abs() < 1e-9);
    }

    #[test]
    fn dual_state_roundtrips_through_json() {
        let u = figure1_line_problem().universe();
        let mut duals = DualState::new(&u, RaiseRule::Narrow);
        for d in u.instance_ids() {
            let path: Vec<EdgeId> = u.instance(d).path.iter().collect();
            duals.raise(&u, d, &path[..path.len().min(2)]);
        }
        let text = duals.to_json().render();
        let back = DualState::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        back.validate_shape(&u).unwrap();
        assert_eq!(back.rule(), duals.rule());
        // Point values and range sums both roundtrip bit-exactly.
        for d in u.instance_ids() {
            let demand = u.instance(d).demand;
            assert_eq!(back.alpha(demand).to_bits(), duals.alpha(demand).to_bits());
            for e in u.instance(d).path.iter() {
                let net = u.instance(d).network;
                assert_eq!(back.beta(net, e).to_bits(), duals.beta(net, e).to_bits());
            }
            assert_eq!(back.lhs(&u, d).to_bits(), duals.lhs(&u, d).to_bits());
        }
        assert_eq!(back.objective().to_bits(), duals.objective().to_bits());
    }

    #[test]
    fn dual_state_shape_validation_rejects_mismatches() {
        let u = figure1_line_problem().universe();
        let duals = DualState::new(&u, RaiseRule::Unit);
        duals.validate_shape(&u).unwrap();
        let other = two_tree_problem().universe();
        assert!(duals.validate_shape(&other).is_err());
    }

    #[test]
    fn relative_heights_under_capacities() {
        use netsched_graph::{TreeProblem, VertexId};
        let mut p = TreeProblem::new(3);
        let t = p
            .add_network(vec![(VertexId(0), VertexId(1)), (VertexId(1), VertexId(2))])
            .unwrap();
        p.add_demand(VertexId(0), VertexId(2), 1.0, 0.6, vec![t])
            .unwrap();
        p.set_capacity(t, 0, 2.0).unwrap();
        let u = p.universe();
        let d = InstanceId::new(0);
        // Edge 0 has capacity 2 ⇒ relative height 0.3; edge 1 capacity 1 ⇒ 0.6.
        assert!((DualState::max_relative_height(&u, d) - 0.6).abs() < 1e-12);
        let mut duals = DualState::new(&u, RaiseRule::Narrow);
        duals.raise(&u, d, &[EdgeId::new(0), EdgeId::new(1)]);
        assert!((duals.lhs(&u, d) - 1.0).abs() < 1e-9);
    }
}
