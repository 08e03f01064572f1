//! Layered decompositions (Section 4.4 and Section 7).
//!
//! A layered decomposition of the demand instances of a network is a pair
//! `⟨σ, π⟩`: an assignment of every instance to a group `G_1, …, G_ℓ` plus a
//! set of *critical edges* `π(d) ⊆ path(d)` per instance, such that for any
//! overlapping instances `d1 ∈ G_i`, `d2 ∈ G_j` with `i ≤ j`, `path(d2)`
//! contains a critical edge of `d1`. The two quality parameters are the
//! critical-set size `∆ = max |π(d)|` and the length `ℓ`.
//!
//! [`InstanceLayering`] stores a layered decomposition for an entire
//! [`DemandInstanceUniverse`] (all networks merged, exactly as the
//! distributed algorithm of Section 5 merges the per-network groups
//! `G_k = ∪_q G_k^{(q)}`).

use crate::balancing::balancing_decomposition;
use crate::decomposition::TreeDecomposition;
use crate::ideal::ideal_decomposition;
use crate::root_fixing::root_fixing_decomposition;
use netsched_graph::{
    DemandInstanceUniverse, EdgeId, EdgePath, InstanceId, NetworkId, TreeNetwork, TreeProblem,
    VertexId,
};

/// Which tree decomposition to use when layering a tree problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeDecompositionKind {
    /// Root-fixing decomposition (θ = 1, depth up to n), Section 4.2.
    RootFixing,
    /// Balancing/centroid decomposition (depth ≈ log n, θ up to log n),
    /// Section 4.2.
    Balancing,
    /// The ideal decomposition (θ = 2, depth ≤ 2⌈log n⌉), Section 4.3.
    Ideal,
}

/// A layered decomposition over all instances of a universe.
///
/// Indexed by instance id, tombstones included: a tombstone's slot holds
/// no group and no critical edges and counts towards neither maximum.
#[derive(Debug, Clone)]
pub struct InstanceLayering {
    /// Per instance id: its group ([`TOMBSTONE`] for a tombstone).
    group: Vec<usize>,
    critical: Vec<Vec<EdgeId>>,
    /// Live instances per group, without trailing zeros: its length is
    /// the number of groups.
    group_count: Vec<u32>,
    /// Live instances per critical-set size, without trailing zeros.
    critical_count: Vec<u32>,
}

/// The group of a tombstoned instance slot.
const TOMBSTONE: usize = usize::MAX;

/// Counts one entry into (`add`) or out of `counts[at]`, keeping the
/// vector free of trailing zeros.
fn count(counts: &mut Vec<u32>, at: usize, add: bool) {
    if add {
        if counts.len() <= at {
            counts.resize(at + 1, 0);
        }
        counts[at] += 1;
    } else {
        counts[at] -= 1;
        while counts.last() == Some(&0) {
            counts.pop();
        }
    }
}

impl InstanceLayering {
    /// Builds a layering from explicit per-instance groups and critical
    /// sets.
    pub fn from_parts(group: Vec<usize>, critical: Vec<Vec<EdgeId>>) -> Self {
        assert_eq!(group.len(), critical.len());
        let mut layering = Self {
            group,
            critical,
            group_count: Vec::new(),
            critical_count: Vec::new(),
        };
        for (g, c) in layering.group.iter().zip(&layering.critical) {
            if *g != TOMBSTONE {
                count(&mut layering.group_count, *g, true);
                count(&mut layering.critical_count, c.len(), true);
            }
        }
        layering
    }

    /// Empty columns over `universe`'s instance slots (every slot a
    /// tombstone until assigned), with the universe's slot headroom
    /// reserved.
    fn columns(universe: &DemandInstanceUniverse) -> (Vec<usize>, Vec<Vec<EdgeId>>) {
        let (slots, target) = (universe.instance_slots(), universe.instance_slot_target());
        let mut group = Vec::with_capacity(target);
        group.resize(slots, TOMBSTONE);
        let mut critical = Vec::with_capacity(target);
        critical.resize(slots, Vec::new());
        (group, critical)
    }

    /// Lemma 4.2: transforms per-network tree decompositions into a layered
    /// decomposition with `∆ ≤ 2(θ + 1)`.
    ///
    /// Instances captured at the **deepest** nodes land in the first groups,
    /// instances captured at the roots in the last, and the per-network
    /// groups with the same index are merged (`G_k = ∪_q G_k^{(q)}`,
    /// Section 5).
    pub fn from_tree_decompositions(
        problem: &TreeProblem,
        universe: &DemandInstanceUniverse,
        decompositions: &[TreeDecomposition],
    ) -> Self {
        TreeLayerer::from_decompositions(problem, decompositions.to_vec())
            .layering(problem, universe)
    }

    /// Builds the layering for a tree problem using the chosen tree
    /// decomposition for every network. [`TreeDecompositionKind::Ideal`]
    /// yields the paper's ∆ = 6, length O(log n) decomposition (Lemma 4.3).
    pub fn for_tree_problem(
        problem: &TreeProblem,
        universe: &DemandInstanceUniverse,
        kind: TreeDecompositionKind,
    ) -> Self {
        TreeLayerer::new(problem, kind).layering(problem, universe)
    }

    /// The Appendix A layering: root-fixing decomposition per network with
    /// `π(d)` being only the wings of `µ(d)` (Observation A.1), giving
    /// `∆ = 2` at the price of up to `n` groups.
    pub fn appendix_a(problem: &TreeProblem, universe: &DemandInstanceUniverse) -> Self {
        let decomps: Vec<TreeDecomposition> = problem
            .networks()
            .iter()
            .map(|t| root_fixing_decomposition(t, VertexId::new(0)))
            .collect();
        let (mut group, mut critical) = Self::columns(universe);
        for inst in universe.instances() {
            let tree = problem.network(inst.network);
            let h = &decomps[inst.network.index()];
            let demand = problem.demand(inst.demand);
            let path_vertices = tree.path_vertices(demand.u, demand.v);
            let z = h.captured_at(&path_vertices);
            group[inst.id.index()] = (h.max_depth() - h.depth_of(z)) as usize;
            critical[inst.id.index()] = TreeDecomposition::wings_on_path(tree, &inst.path, z);
        }
        Self::from_parts(group, critical)
    }

    /// The line-network layering of Section 7: length classes with
    /// `π(d) = {s(d), mid(d), e(d)}` and therefore `∆ = 3`,
    /// `ℓ = ⌈log(L_max/L_min)⌉ + 1`.
    ///
    /// The universe must consist of line instances (contiguous paths); this
    /// is the case for every universe produced by
    /// [`netsched_graph::LineProblem::universe`].
    pub fn line_length_classes(universe: &DemandInstanceUniverse) -> Self {
        let l_min = universe
            .instances()
            .map(|d| d.len())
            .min()
            .unwrap_or(1)
            .max(1);
        let (mut group, mut critical) = Self::columns(universe);
        for inst in universe.instances() {
            let (g, c) = line_assignment(l_min, &inst.path);
            group[inst.id.index()] = g;
            critical[inst.id.index()] = c;
        }
        Self::from_parts(group, critical)
    }

    /// Group index (0-based) of instance `d`.
    #[inline]
    pub fn group(&self, d: InstanceId) -> usize {
        self.group[d.index()]
    }

    /// Critical edges `π(d)` of instance `d` (edges of the instance's own
    /// network).
    #[inline]
    pub fn critical(&self, d: InstanceId) -> &[EdgeId] {
        &self.critical[d.index()]
    }

    /// Number of groups (`ℓ_max`).
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.group_count.len()
    }

    /// Maximum critical-set size (`∆`).
    #[inline]
    pub fn max_critical(&self) -> usize {
        self.critical_count.len().saturating_sub(1)
    }

    /// The live instances of each group, in group order.
    pub fn groups(&self) -> Vec<Vec<InstanceId>> {
        let mut out = vec![Vec::new(); self.num_groups()];
        for (i, &g) in self.group.iter().enumerate() {
            if g != TOMBSTONE {
                out[g].push(InstanceId::new(i));
            }
        }
        out
    }

    /// Follows a universe splice
    /// (`DemandInstanceUniverse::apply_demand_delta`): the `removed`
    /// instances become tombstones, and `additions` supplies the
    /// `(group, critical)` assignment of every appended instance in id
    /// order. The group and critical-size maxima follow from per-value
    /// counts, so the splice costs `O(removed + additions)`.
    ///
    /// Per-instance assignments are position-independent (they depend only
    /// on the instance's own path and its network's decomposition), so the
    /// spliced layering relabelled by [`compact`](InstanceLayering::compact)
    /// is byte-identical to a from-scratch build over the new universe.
    pub fn splice(&mut self, removed: &[InstanceId], additions: Vec<(usize, Vec<EdgeId>)>) {
        for &d in removed {
            let g = std::mem::replace(&mut self.group[d.index()], TOMBSTONE);
            assert_ne!(g, TOMBSTONE, "instance {d} removed twice");
            let critical = std::mem::take(&mut self.critical[d.index()]);
            count(&mut self.group_count, g, false);
            count(&mut self.critical_count, critical.len(), false);
        }
        for (group, critical) in additions {
            count(&mut self.group_count, group, true);
            count(&mut self.critical_count, critical.len(), true);
            self.group.push(group);
            self.critical.push(critical);
        }
    }

    /// Follows a universe compaction: the tombstones' slots drop out
    /// through `remap` (old id → new id, `u32::MAX` = tombstone; monotone
    /// on survivors), and the columns reserve up to `slot_target`.
    pub fn compact(&mut self, remap: &[u32], slot_target: usize) {
        assert_eq!(
            remap.len(),
            self.group.len(),
            "remap must cover the layering"
        );
        let mut keep = remap.iter().map(|&m| m != u32::MAX);
        self.group.retain(|_| keep.next() == Some(true));
        let mut keep = remap.iter().map(|&m| m != u32::MAX);
        self.critical.retain(|_| keep.next() == Some(true));
        netsched_graph::reserve_slots(&mut self.group, slot_target);
        netsched_graph::reserve_slots(&mut self.critical, slot_target);
    }

    /// Verifies the defining property of layered decompositions against a
    /// universe: for any overlapping `d1 ∈ G_i`, `d2 ∈ G_j` with `i ≤ j`,
    /// `path(d2)` contains a critical edge of `d1`, and `π(d) ⊆ path(d)` for
    /// every instance. Returns the first violation found.
    pub fn check_layered_property(&self, universe: &DemandInstanceUniverse) -> Result<(), String> {
        for inst in universe.instances() {
            for &e in &self.critical[inst.id.index()] {
                if !inst.path.contains(e) {
                    return Err(format!(
                        "critical edge {e} of instance {} is not on its path",
                        inst.id
                    ));
                }
            }
        }
        let ids: Vec<InstanceId> = universe.instance_ids().collect();
        for &d1 in &ids {
            for &d2 in &ids {
                if d1 == d2 || self.group[d1.index()] > self.group[d2.index()] {
                    continue;
                }
                if !universe.overlapping(d1, d2) {
                    continue;
                }
                let path2 = &universe.instance(d2).path;
                if !path2.intersects_slice(&self.critical[d1.index()]) {
                    return Err(format!(
                        "interference violated: {d1} (group {}) raised before {d2} (group {}) \
                         but path({d2}) misses π({d1})",
                        self.group[d1.index()],
                        self.group[d2.index()],
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The Section 7 per-instance line assignment: the length class of a
/// (contiguous, non-empty) instance path relative to the universe's
/// minimum instance length `l_min`, and its critical edges
/// `π(d) = {s(d), mid(d), e(d)}`.
///
/// This is the single assignment rule behind
/// [`InstanceLayering::line_length_classes`]; the dynamic serving layer
/// calls it per *arriving* instance and splices the result (recomputing the
/// whole layering only when `l_min` itself changes), so incremental and
/// from-scratch line layerings are byte-identical by construction.
pub fn line_assignment(l_min: usize, path: &EdgePath) -> (usize, Vec<EdgeId>) {
    let len = path.len().max(1);
    // Group i (0-based) holds lengths in [2^i · L_min, 2^{i+1} · L_min).
    let ratio = len / l_min;
    let group = (usize::BITS - 1 - ratio.leading_zeros()) as usize;

    // Line instances are single interval runs; the critical edges are the
    // two ends plus the midpoint, read off the bounds in O(1) without
    // touching the per-edge representation.
    let (s, e) = path.bounds().expect("line instances are non-empty");
    let mid = EdgeId::new((s.index() + e.index()) / 2);
    let mut c = vec![s, mid, e];
    c.sort_unstable();
    c.dedup();
    (group, c)
}

/// Cached per-network tree decompositions plus their pivot sets, able to
/// assign instances to layers **one at a time** — the building block of the
/// dynamic-session path, where demands arrive and expire and only the new
/// instances should pay the `O(path)` assignment cost.
///
/// Tree decompositions depend only on the (immutable) network topology, so
/// one `TreeLayerer` serves a whole session: construct it once, then call
/// [`TreeLayerer::assign`] per arriving instance and splice the results
/// into the long-lived [`InstanceLayering`] via
/// [`InstanceLayering::splice`]. The static builders
/// ([`InstanceLayering::for_tree_problem`],
/// [`InstanceLayering::from_tree_decompositions`]) route through the same
/// assignment code, so incremental and from-scratch layerings are
/// byte-identical by construction.
#[derive(Debug, Clone)]
pub struct TreeLayerer {
    decomps: Vec<TreeDecomposition>,
    pivot_sets: Vec<Vec<Vec<VertexId>>>,
}

impl TreeLayerer {
    /// Builds the decompositions of every network of `problem` with the
    /// chosen construction and caches their pivot sets.
    pub fn new(problem: &TreeProblem, kind: TreeDecompositionKind) -> Self {
        let decomps: Vec<TreeDecomposition> = problem
            .networks()
            .iter()
            .map(|t| match kind {
                TreeDecompositionKind::RootFixing => root_fixing_decomposition(t, VertexId::new(0)),
                TreeDecompositionKind::Balancing => balancing_decomposition(t),
                TreeDecompositionKind::Ideal => ideal_decomposition(t),
            })
            .collect();
        Self::from_decompositions(problem, decomps)
    }

    /// Wraps already-built decompositions (one per network of `problem`).
    pub fn from_decompositions(problem: &TreeProblem, decomps: Vec<TreeDecomposition>) -> Self {
        assert_eq!(decomps.len(), problem.num_networks());
        let pivot_sets: Vec<Vec<Vec<VertexId>>> = decomps
            .iter()
            .enumerate()
            .map(|(q, h)| h.pivot_sets(problem.network(NetworkId::new(q))))
            .collect();
        Self {
            decomps,
            pivot_sets,
        }
    }

    /// The cached decomposition of one network.
    #[inline]
    pub fn decomposition(&self, t: NetworkId) -> &TreeDecomposition {
        &self.decomps[t.index()]
    }

    /// Assigns one instance — the demand `⟨u, v⟩` routed along `path` on
    /// `network` (a network of the problem the layerer was built from) — to
    /// its layer: returns `(group, critical edges)` exactly as the
    /// from-scratch builders would (Lemma 4.2: wings of the capture point
    /// plus wings of the bending point of every pivot).
    pub fn assign(
        &self,
        tree: &TreeNetwork,
        network: NetworkId,
        u: VertexId,
        v: VertexId,
        path: &EdgePath,
    ) -> (usize, Vec<EdgeId>) {
        let h = &self.decomps[network.index()];
        let path_vertices = tree.path_vertices(u, v);
        let z = h.captured_at(&path_vertices);

        // Group: instances captured at depth ℓ_q go to group 0, those at
        // the root (depth 1) to group ℓ_q − 1.
        let group = (h.max_depth() - h.depth_of(z)) as usize;

        // Critical edges: wings of z plus wings of the bending point with
        // respect to every pivot of z.
        let mut edges = TreeDecomposition::wings_on_path(tree, path, z);
        for &p in &self.pivot_sets[network.index()][z.index()] {
            let y = TreeDecomposition::bending_point(tree, u, v, p);
            edges.extend(TreeDecomposition::wings_on_path(tree, path, y));
        }
        edges.sort_unstable();
        edges.dedup();
        (group, edges)
    }

    /// Assigns every instance of a universe (Lemma 4.2, merging the
    /// per-network groups as `G_k = ∪_q G_k^{(q)}`).
    pub fn layering(
        &self,
        problem: &TreeProblem,
        universe: &DemandInstanceUniverse,
    ) -> InstanceLayering {
        let (mut group, mut critical) = InstanceLayering::columns(universe);
        for inst in universe.instances() {
            let demand = problem.demand(inst.demand);
            let (g, c) = self.assign(
                problem.network(inst.network),
                inst.network,
                demand.u,
                demand.v,
                &inst.path,
            );
            group[inst.id.index()] = g;
            critical[inst.id.index()] = c;
        }
        InstanceLayering::from_parts(group, critical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsched_graph::fixtures::{figure6_tree, paper_vertex};
    use netsched_graph::{LineProblem, NetworkId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A tree problem over the Figure 6 tree with a mix of long and short
    /// demands.
    fn figure6_many_demands() -> TreeProblem {
        let tree = figure6_tree(NetworkId::new(0));
        let mut p = TreeProblem::new(tree.num_vertices());
        let t = p.add_tree(&tree).unwrap();
        let pairs = [
            (4, 13),
            (2, 3),
            (12, 13),
            (10, 11),
            (7, 14),
            (4, 10),
            (6, 13),
            (1, 12),
            (3, 7),
            (9, 13),
        ];
        for (i, (a, b)) in pairs.iter().enumerate() {
            p.add_unit_demand(paper_vertex(*a), paper_vertex(*b), (i + 1) as f64, vec![t])
                .unwrap();
        }
        p
    }

    fn random_tree_problem(seed: u64, n: usize, r: usize, m: usize) -> TreeProblem {
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
                nets.iter().copied().filter(|_| rng.gen_bool(0.7)).collect();
            let access = if access.is_empty() {
                vec![nets[0]]
            } else {
                access
            };
            p.add_unit_demand(
                VertexId::new(u),
                VertexId::new(v),
                rng.gen_range(1.0..100.0),
                access,
            )
            .unwrap();
        }
        p
    }

    #[test]
    fn ideal_layering_has_delta_at_most_six() {
        let p = figure6_many_demands();
        let u = p.universe();
        let layering = InstanceLayering::for_tree_problem(&p, &u, TreeDecompositionKind::Ideal);
        assert!(layering.max_critical() <= 6, "Lemma 4.3: ∆ ≤ 6");
        layering.check_layered_property(&u).unwrap();
        // Length is at most the ideal decomposition depth bound.
        assert!(layering.num_groups() as u32 <= crate::ideal::ideal_depth_bound(14));
    }

    #[test]
    fn appendix_a_layering_has_delta_at_most_two() {
        let p = figure6_many_demands();
        let u = p.universe();
        let layering = InstanceLayering::appendix_a(&p, &u);
        assert!(layering.max_critical() <= 2, "Observation A.1: ∆ ≤ 2");
        layering.check_layered_property(&u).unwrap();
    }

    #[test]
    fn balancing_and_root_fixing_layerings_are_valid() {
        let p = figure6_many_demands();
        let u = p.universe();
        for kind in [
            TreeDecompositionKind::RootFixing,
            TreeDecompositionKind::Balancing,
        ] {
            let layering = InstanceLayering::for_tree_problem(&p, &u, kind);
            layering.check_layered_property(&u).unwrap();
        }
    }

    #[test]
    fn random_instances_all_layerings_valid() {
        for seed in 0..5u64 {
            let p = random_tree_problem(seed, 40, 3, 25);
            let u = p.universe();
            for kind in [
                TreeDecompositionKind::RootFixing,
                TreeDecompositionKind::Balancing,
                TreeDecompositionKind::Ideal,
            ] {
                let layering = InstanceLayering::for_tree_problem(&p, &u, kind);
                layering
                    .check_layered_property(&u)
                    .unwrap_or_else(|e| panic!("seed {seed}, {kind:?}: {e}"));
                if kind == TreeDecompositionKind::Ideal {
                    assert!(layering.max_critical() <= 6);
                }
            }
            let appendix = InstanceLayering::appendix_a(&p, &u);
            appendix.check_layered_property(&u).unwrap();
            assert!(appendix.max_critical() <= 2);
        }
    }

    #[test]
    fn line_length_classes_have_delta_three_and_log_groups() {
        let mut p = LineProblem::new(64, 2);
        let acc = vec![NetworkId::new(0), NetworkId::new(1)];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let len = rng.gen_range(1..=32u32);
            let release = rng.gen_range(0..=(64 - len));
            let slack = rng.gen_range(0..=(64 - release - len));
            p.add_demand(
                release,
                release + len - 1 + slack,
                len,
                rng.gen_range(1.0..10.0),
                1.0,
                acc.clone(),
            )
            .unwrap();
        }
        let u = p.universe();
        let layering = InstanceLayering::line_length_classes(&u);
        assert!(layering.max_critical() <= 3, "Section 7: ∆ = 3");
        // ℓ ≤ ⌈log(L_max / L_min)⌉ + 1 ≤ log 64 + 1.
        assert!(layering.num_groups() <= 7);
        layering.check_layered_property(&u).unwrap();
    }

    #[test]
    fn line_groups_are_by_doubling_lengths() {
        let mut p = LineProblem::new(32, 1);
        let acc = vec![NetworkId::new(0)];
        for len in [1u32, 2, 3, 4, 7, 8, 16] {
            p.add_interval_demand(0, len, 1.0, 1.0, acc.clone())
                .unwrap();
        }
        let u = p.universe();
        let layering = InstanceLayering::line_length_classes(&u);
        // L_min = 1: lengths 1 → group 0; 2, 3 → group 1; 4..7 → group 2;
        // 8..15 → group 3; 16 → group 4.
        let groups: Vec<usize> = u.instance_ids().map(|d| layering.group(d)).collect();
        assert_eq!(groups, vec![0, 1, 1, 2, 2, 3, 4]);
    }

    #[test]
    fn groups_accessor_partitions_instances() {
        let p = figure6_many_demands();
        let u = p.universe();
        let layering = InstanceLayering::for_tree_problem(&p, &u, TreeDecompositionKind::Ideal);
        let groups = layering.groups();
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, u.num_instances());
        for (gi, g) in groups.iter().enumerate() {
            for &d in g {
                assert_eq!(layering.group(d), gi);
            }
        }
    }

    #[test]
    fn tree_layerer_assign_matches_the_batch_builder() {
        let p = figure6_many_demands();
        let u = p.universe();
        for kind in [
            TreeDecompositionKind::RootFixing,
            TreeDecompositionKind::Balancing,
            TreeDecompositionKind::Ideal,
        ] {
            let reference = InstanceLayering::for_tree_problem(&p, &u, kind);
            let layerer = TreeLayerer::new(&p, kind);
            for inst in u.instances() {
                let demand = p.demand(inst.demand);
                let (g, c) = layerer.assign(
                    p.network(inst.network),
                    inst.network,
                    demand.u,
                    demand.v,
                    &inst.path,
                );
                assert_eq!(g, reference.group(inst.id), "group of {}", inst.id);
                assert_eq!(c, reference.critical(inst.id), "critical of {}", inst.id);
            }
        }
    }

    #[test]
    fn splice_reproduces_a_from_scratch_layering() {
        let p = figure6_many_demands();
        let u = p.universe();
        let full = InstanceLayering::for_tree_problem(&p, &u, TreeDecompositionKind::Ideal);

        // Remove instances 1 and 3, append copies of instances 0 and 2's
        // assignments: the spliced layering, compacted, must equal
        // `from_parts` on the same per-instance data.
        let n = u.num_instances();
        let additions: Vec<(usize, Vec<netsched_graph::EdgeId>)> = [0usize, 2]
            .iter()
            .map(|&i| {
                let d = InstanceId::new(i);
                (full.group(d), full.critical(d).to_vec())
            })
            .collect();

        let mut spliced = full.clone();
        spliced.splice(&[InstanceId(1), InstanceId(3)], additions.clone());
        assert_eq!(spliced.groups().concat().len(), n);

        let mut group = Vec::new();
        let mut critical = Vec::new();
        let mut remap = Vec::new();
        for i in 0..n {
            if i == 1 || i == 3 {
                remap.push(u32::MAX);
            } else {
                remap.push(group.len() as u32);
                let d = InstanceId::new(i);
                group.push(full.group(d));
                critical.push(full.critical(d).to_vec());
            }
        }
        for (g, c) in additions {
            remap.push(group.len() as u32);
            group.push(g);
            critical.push(c);
        }
        let fresh = InstanceLayering::from_parts(group, critical);
        assert_eq!(spliced.num_groups(), fresh.num_groups());
        assert_eq!(spliced.max_critical(), fresh.max_critical());
        spliced.compact(&remap, n);
        assert_eq!(spliced.num_groups(), fresh.num_groups());
        assert_eq!(spliced.max_critical(), fresh.max_critical());
        for i in 0..n {
            let d = InstanceId::new(i);
            assert_eq!(spliced.group(d), fresh.group(d), "group of {d}");
            assert_eq!(spliced.critical(d), fresh.critical(d), "critical of {d}");
        }
        assert_eq!(spliced.groups(), fresh.groups());
    }

    /// Removing every instance of the largest group and the largest
    /// critical sets shrinks both maxima without a rescan.
    #[test]
    fn splice_keeps_the_maxima_from_counts() {
        let layering = InstanceLayering::from_parts(
            vec![0, 2, 1],
            vec![vec![EdgeId(0)], vec![EdgeId(1), EdgeId(2)], vec![EdgeId(3)]],
        );
        assert_eq!((layering.num_groups(), layering.max_critical()), (3, 2));
        let mut spliced = layering.clone();
        spliced.splice(&[InstanceId(1)], Vec::new());
        assert_eq!((spliced.num_groups(), spliced.max_critical()), (2, 1));
        spliced.splice(&[InstanceId(0), InstanceId(2)], vec![(4, Vec::new())]);
        assert_eq!((spliced.num_groups(), spliced.max_critical()), (5, 0));
        assert_eq!(spliced.groups()[4], vec![InstanceId(3)]);
    }

    #[test]
    fn check_detects_bad_layering() {
        let p = figure6_many_demands();
        let u = p.universe();
        // An adversarial layering: everything in one group with empty
        // critical sets must be rejected (the demands overlap).
        let bad = InstanceLayering::from_parts(
            vec![0; u.num_instances()],
            vec![Vec::new(); u.num_instances()],
        );
        assert!(bad.check_layered_property(&u).is_err());
        // Critical edges not on the path are also rejected.
        let mut critical = vec![Vec::new(); u.num_instances()];
        critical[0] = vec![EdgeId::new(9999)];
        let bad = InstanceLayering::from_parts(vec![0; u.num_instances()], critical);
        assert!(bad.check_layered_property(&u).is_err());
    }
}
