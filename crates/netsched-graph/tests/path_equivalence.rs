//! Property-based equivalence suite for the implicit interval-path
//! representation.
//!
//! The interval/run representation of [`EdgePath`] (plus the canonical HLD
//! edge order of [`TreeNetwork`]) must be observationally equivalent to the
//! old materialized `Vec<EdgeId>` representation. Each property rebuilds the
//! naive model — an explicit sorted edge list obtained by walking parent
//! pointers, and per-edge load accumulation — and checks `contains`,
//! `overlaps`, `len`, `edge_loads`, feasibility and `can_add` against it on
//! random trees and random windowed lines.

use netsched_graph::{
    DemandId, DemandInstance, DemandInstanceUniverse, EdgeId, EdgePath, InstanceId, LcaIndex,
    LineProblem, NetworkId, TreeNetwork, TreeProblem, VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random connected tree on `n` vertices: vertex `i` attaches to a random
/// earlier vertex, then the edge list is shuffled so that input order and
/// canonical order genuinely differ.
fn random_tree(rng: &mut StdRng, n: usize) -> TreeNetwork {
    let mut edges: Vec<(VertexId, VertexId)> = (1..n)
        .map(|i| (VertexId::new(rng.gen_range(0..i)), VertexId::new(i)))
        .collect();
    for i in (1..edges.len()).rev() {
        let j = rng.gen_range(0..=i);
        edges.swap(i, j);
    }
    // Also randomly flip endpoint order.
    for e in &mut edges {
        if rng.gen_bool(0.5) {
            *e = (e.1, e.0);
        }
    }
    TreeNetwork::new(NetworkId::new(0), n, edges).expect("random attachment trees are valid")
}

/// The naive model of `path_edges`: walk parent pointers from both
/// endpoints to the LCA, collecting edge ids, then sort.
fn naive_path(tree: &TreeNetwork, u: VertexId, v: VertexId) -> Vec<EdgeId> {
    let l = tree.lca(u, v);
    let mut edges = Vec::new();
    for mut x in [u, v] {
        while x != l {
            let (p, e) = tree.parent(x).expect("non-root vertex has a parent");
            edges.push(e);
            x = p;
        }
    }
    edges.sort_unstable();
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tree_paths_match_naive_walk(seed in any::<u64>(), n in 2usize..48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_tree(&mut rng, n);
        for _ in 0..16 {
            let u = VertexId::new(rng.gen_range(0..n));
            let v = VertexId::new(rng.gen_range(0..n));
            let path = tree.path_edges(u, v);
            let naive = naive_path(&tree, u, v);
            // `iter` / `len` equivalence.
            let collected: Vec<EdgeId> = path.iter().collect();
            prop_assert_eq!(&collected, &naive, "path {} - {}", u, v);
            prop_assert_eq!(path.len(), naive.len());
            prop_assert_eq!(path.len() as u32, tree.distance(u, v));
            // `contains` equivalence over every edge of the network.
            for e in 0..tree.num_edges() {
                let e = EdgeId::new(e);
                prop_assert_eq!(path.contains(e), naive.binary_search(&e).is_ok());
            }
        }
    }

    #[test]
    fn tree_overlap_matches_naive_intersection(seed in any::<u64>(), n in 2usize..40) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        let tree = random_tree(&mut rng, n);
        for _ in 0..12 {
            let pick = |rng: &mut StdRng| {
                let u = VertexId::new(rng.gen_range(0..n));
                let v = VertexId::new(rng.gen_range(0..n));
                (u, v)
            };
            let (u1, v1) = pick(&mut rng);
            let (u2, v2) = pick(&mut rng);
            let p1 = tree.path_edges(u1, v1);
            let p2 = tree.path_edges(u2, v2);
            let n1 = naive_path(&tree, u1, v1);
            let n2 = naive_path(&tree, u2, v2);
            let naive_overlap = n1.iter().any(|e| n2.binary_search(e).is_ok());
            prop_assert_eq!(p1.intersects(&p2), naive_overlap);
            prop_assert_eq!(p2.intersects(&p1), naive_overlap);
            // The materialized intersection agrees as well.
            let shared: Vec<EdgeId> = p1.intersection(&p2).iter().collect();
            let naive_shared: Vec<EdgeId> = n1
                .iter()
                .copied()
                .filter(|e| n2.binary_search(e).is_ok())
                .collect();
            prop_assert_eq!(shared, naive_shared);
        }
    }

    #[test]
    fn line_intervals_match_vec_model(seed in any::<u64>(), slots in 2u32..120) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        let interval = |rng: &mut StdRng| {
            let s = rng.gen_range(0..slots);
            let e = rng.gen_range(s..slots);
            (s, e)
        };
        for _ in 0..16 {
            let (s1, e1) = interval(&mut rng);
            let (s2, e2) = interval(&mut rng);
            let p1 = EdgePath::interval(s1 as usize, e1 as usize);
            let v1: Vec<EdgeId> = (s1..=e1).map(|i| EdgeId::new(i as usize)).collect();
            let p2 = EdgePath::interval(s2 as usize, e2 as usize);
            prop_assert_eq!(p1.len(), v1.len());
            prop_assert_eq!(p1.iter().collect::<Vec<_>>(), v1);
            for e in 0..slots {
                let e = EdgeId::new(e as usize);
                prop_assert_eq!(p1.contains(e), s1 <= e.0 && e.0 <= e1);
            }
            prop_assert_eq!(p1.intersects(&p2), s1 <= e2 && s2 <= e1);
        }
    }

    #[test]
    fn tree_universe_loads_match_naive_accumulation(seed in any::<u64>(), n in 3usize..32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let mut problem = TreeProblem::new(n);
        let tree = random_tree(&mut rng, n);
        let t = problem.add_tree(&tree).unwrap();
        let m = rng.gen_range(2..12);
        for _ in 0..m {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            while v == u {
                v = rng.gen_range(0..n);
            }
            problem
                .add_demand(
                    VertexId::new(u),
                    VertexId::new(v),
                    rng.gen_range(1.0..10.0),
                    rng.gen_range(0.1..=1.0),
                    vec![t],
                )
                .unwrap();
        }
        let universe = problem.universe();
        // A random subset as the selection.
        let selection: Vec<InstanceId> = universe
            .instance_ids()
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        let loads = universe.edge_loads(t, &selection);
        // Naive model: accumulate every edge of every selected path.
        let mut naive = vec![0.0f64; universe.num_edges(t)];
        for &d in &selection {
            let inst = universe.instance(d);
            for e in inst.path.iter() {
                naive[e.index()] += inst.height;
            }
        }
        prop_assert_eq!(loads.len(), naive.len());
        for (a, b) in loads.iter().zip(naive.iter()) {
            prop_assert!((a - b).abs() < 1e-9, "load mismatch: {} vs {}", a, b);
        }
        // `overlapping` agrees with materialized path intersection.
        for a in universe.instance_ids() {
            for b in universe.instance_ids() {
                if a == b {
                    continue;
                }
                let pa: Vec<EdgeId> = universe.instance(a).path.iter().collect();
                let pb: Vec<EdgeId> = universe.instance(b).path.iter().collect();
                let naive_overlap = pa.iter().any(|e| pb.binary_search(e).is_ok());
                prop_assert_eq!(universe.overlapping(a, b), naive_overlap);
            }
        }
    }

    #[test]
    fn line_universe_feasibility_matches_naive(seed in any::<u64>(), slots in 4u32..40) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let mut problem = LineProblem::new(slots as usize, 2);
        let acc = vec![NetworkId::new(0), NetworkId::new(1)];
        for _ in 0..rng.gen_range(2..10) {
            let len = rng.gen_range(1..=slots.min(8));
            let release = rng.gen_range(0..=(slots - len));
            let slack = rng.gen_range(0..=(slots - release - len).min(3));
            problem
                .add_demand(
                    release,
                    release + len - 1 + slack,
                    len,
                    rng.gen_range(1.0..10.0),
                    rng.gen_range(0.1..=1.0),
                    acc.clone(),
                )
                .unwrap();
        }
        let universe = problem.universe();
        let selection: Vec<InstanceId> = universe
            .instance_ids()
            .filter(|_| rng.gen_bool(0.3))
            .collect();
        // Naive feasibility: per-demand uniqueness plus per-edge loads.
        let mut used = vec![false; universe.num_demands()];
        let mut naive_ok = true;
        for &d in &selection {
            let a = universe.demand_of(d).index();
            if used[a] {
                naive_ok = false;
            }
            used[a] = true;
        }
        if naive_ok {
            'outer: for q in 0..universe.num_networks() {
                let t = NetworkId::new(q);
                let mut load = vec![0.0f64; universe.num_edges(t)];
                for &d in &selection {
                    let inst = universe.instance(d);
                    if inst.network == t {
                        for e in inst.path.iter() {
                            load[e.index()] += inst.height;
                        }
                    }
                }
                for l in load {
                    if l > 1.0 + 1e-9 {
                        naive_ok = false;
                        break 'outer;
                    }
                }
            }
        }
        prop_assert_eq!(universe.is_feasible(&selection), naive_ok);
        // `can_add` agrees with "add then re-check" on feasible selections.
        if naive_ok {
            for d in universe.instance_ids() {
                if selection.contains(&d) {
                    continue;
                }
                let mut extended = selection.clone();
                extended.push(d);
                prop_assert_eq!(
                    universe.can_add(&selection, d),
                    universe.is_feasible(&extended),
                    "can_add disagrees for {}",
                    d
                );
            }
        }
    }

    /// The single-pass `is_feasible` against the naive per-edge model on
    /// selections spanning many networks, some of them untouched, with
    /// repeated instances, two instances of one demand, and capacitated or
    /// mixed-height universes. Heights and capacities lie on a 1/16 grid, so
    /// every load sum is exact and the naive loads compare bit for bit.
    #[test]
    fn multi_network_feasibility_matches_naive(
        seed in any::<u64>(),
        networks in 8usize..14,
        capacitated in any::<bool>(),
        mixed_height in any::<bool>(),
        density in 1u32..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
        let edges: Vec<usize> = (0..networks).map(|_| rng.gen_range(4..24)).collect();
        let capacities: Vec<Vec<f64>> = edges
            .iter()
            .map(|&m| {
                (0..m)
                    .map(|_| if capacitated { f64::from(rng.gen_range(4u32..20)) / 8.0 } else { 1.0 })
                    .collect()
            })
            .collect();
        // Demands with one to three instances each, on random networks;
        // paths are multi-run edge sets, as on trees.
        let mut instances = Vec::new();
        let num_demands = rng.gen_range(6..30);
        for a in 0..num_demands {
            let height = if mixed_height { f64::from(rng.gen_range(1u32..=16)) / 16.0 } else { 1.0 };
            for _ in 0..rng.gen_range(1..=3) {
                let t = rng.gen_range(0..networks);
                let path: Vec<EdgeId> = (0..rng.gen_range(1..6))
                    .map(|_| EdgeId::new(rng.gen_range(0..edges[t])))
                    .collect();
                instances.push(DemandInstance {
                    id: InstanceId::new(instances.len()),
                    demand: DemandId::new(a),
                    network: NetworkId::new(t),
                    profit: 1.0,
                    height,
                    path: EdgePath::new(path),
                    start: None,
                });
            }
        }
        let universe = DemandInstanceUniverse::new(instances, num_demands, edges, Some(capacities));

        // Leave at least two networks untouched; select at most one
        // instance per demand elsewhere, in shuffled order.
        let untouched: Vec<bool> = (0..networks).map(|t| t < 2 || rng.gen_bool(0.2)).collect();
        let mut taken = vec![false; num_demands];
        let mut selection: Vec<InstanceId> = Vec::new();
        for d in universe.instance_ids() {
            let inst = universe.instance(d);
            if !untouched[inst.network.index()]
                && !taken[inst.demand.index()]
                && rng.gen_bool(f64::from(density) / 16.0)
            {
                taken[inst.demand.index()] = true;
                selection.push(d);
            }
        }
        for i in (1..selection.len()).rev() {
            selection.swap(i, rng.gen_range(0..=i));
        }
        // Sometimes repeat an instance, sometimes add a second instance
        // of an already selected demand.
        if !selection.is_empty() && rng.gen_bool(0.25) {
            selection.push(selection[rng.gen_range(0..selection.len())]);
        }
        if rng.gen_bool(0.25) {
            let twin = universe.instance_ids().find(|&d| {
                let inst = universe.instance(d);
                !selection.contains(&d)
                    && taken[inst.demand.index()]
                    && !untouched[inst.network.index()]
            });
            if let Some(d) = twin {
                selection.insert(rng.gen_range(0..=selection.len()), d);
            }
        }

        // Naive model: demand uniqueness plus explicit per-edge loads.
        let mut used = vec![false; num_demands];
        let mut naive_ok = true;
        for &d in &selection {
            naive_ok &= !std::mem::replace(&mut used[universe.demand_of(d).index()], true);
        }
        for (q, &untouched) in untouched.iter().enumerate() {
            let t = NetworkId::new(q);
            let mut naive = vec![0.0f64; universe.num_edges(t)];
            for &d in &selection {
                let inst = universe.instance(d);
                if inst.network == t {
                    for e in inst.path.iter() {
                        naive[e.index()] += inst.height;
                    }
                }
            }
            for (e, &l) in naive.iter().enumerate() {
                let cap = universe.capacity(netsched_graph::GlobalEdge { network: t, edge: EdgeId::new(e) });
                naive_ok &= l <= cap + netsched_graph::EPS;
            }
            let loads = universe.edge_loads(t, &selection);
            let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&loads), bits(&naive), "network {}", q);
            if untouched {
                prop_assert!(loads.iter().all(|&l| l == 0.0));
            }
        }
        prop_assert_eq!(universe.is_feasible(&selection), naive_ok);
    }
}

/// A universe assembled from raw instances with multi-run tree-style paths
/// and non-uniform capacities, exercising the capacitated `can_add` path.
#[test]
fn capacitated_can_add_matches_is_feasible() {
    let mk = |i: usize, a: usize, edges: &[u32], h: f64| DemandInstance {
        id: InstanceId::new(i),
        demand: DemandId::new(a),
        network: NetworkId::new(0),
        profit: 1.0,
        height: h,
        path: EdgePath::new(edges.iter().map(|&e| EdgeId(e)).collect()),
        start: None,
    };
    let universe = DemandInstanceUniverse::new(
        vec![
            mk(0, 0, &[0, 1, 2, 5, 6], 0.6),
            mk(1, 1, &[2, 3, 4], 0.8),
            mk(2, 2, &[5, 6, 7], 0.9),
            mk(3, 3, &[0, 7], 0.4),
        ],
        4,
        vec![8],
        Some(vec![vec![1.0, 1.0, 2.0, 1.0, 1.0, 1.5, 1.5, 1.0]]),
    );
    let ids: Vec<InstanceId> = universe.instance_ids().collect();
    // Exhaustive: every subset + candidate pair must agree with is_feasible.
    for mask in 0u32..(1 << ids.len()) {
        let selection: Vec<InstanceId> = ids
            .iter()
            .copied()
            .filter(|d| mask & (1 << d.index()) != 0)
            .collect();
        if !universe.is_feasible(&selection) {
            continue;
        }
        for &d in &ids {
            if selection.contains(&d) {
                continue;
            }
            let mut extended = selection.clone();
            extended.push(d);
            assert_eq!(
                universe.can_add(&selection, d),
                universe.is_feasible(&extended),
                "mask {mask:b}, candidate {d}"
            );
        }
    }
}

/// Regression: `LcaIndex::ancestor` at exactly-power-of-two depths. The
/// binary-lifting table has `⌈log₂(max_depth)⌉ + 1`-ish levels; a chain
/// whose depth is exactly `2^k` exercises the top level and the saturation
/// at the root.
#[test]
fn lca_ancestor_at_power_of_two_depths() {
    for k in 0..7u32 {
        let depth_target = 1u32 << k; // chain of 2^k edges
        let n = depth_target as usize + 1;
        let parent: Vec<Option<VertexId>> = (0..n)
            .map(|v| (v > 0).then(|| VertexId((v - 1) as u32)))
            .collect();
        let depth: Vec<u32> = (0..n as u32).collect();
        let idx = LcaIndex::new(&parent, &depth);
        let leaf = VertexId((n - 1) as u32);
        // Exact power-of-two jumps, including the full depth.
        for j in 0..=k {
            let steps = 1u32 << j;
            assert_eq!(
                idx.ancestor(leaf, steps),
                VertexId((n - 1) as u32 - steps),
                "2^{j}-step ancestor from depth 2^{k}"
            );
        }
        assert_eq!(idx.ancestor(leaf, depth_target), VertexId(0));
        // Walking past the root saturates at the root.
        assert_eq!(idx.ancestor(leaf, depth_target + 1), VertexId(0));
        assert_eq!(idx.ancestor(leaf, u32::MAX), VertexId(0));
        // And the LCA of the leaf with any chain vertex is that vertex.
        for v in 0..n {
            assert_eq!(idx.lca(leaf, VertexId(v as u32)), VertexId(v as u32));
        }
    }
}
