//! Shared fixtures reproducing the worked examples of the paper.
//!
//! These are used by tests, examples and benchmarks across the workspace so
//! that the figures of the paper (Figures 1, 2, 3 and 6) have a single
//! canonical encoding.

use crate::ids::{NetworkId, VertexId};
use crate::line::LineProblem;
use crate::problem::TreeProblem;
use crate::tree::TreeNetwork;

/// The example tree-network of Figure 6 in the paper, with the paper's
/// 1-based vertex labels mapped to 0-based ids (paper vertex `i` ↦ `i - 1`).
///
/// Edges (paper labels): (1,2), (2,5), (5,9), (5,8), (2,4), (8,12), (8,13),
/// (9,11), (9,10), (1,6), (6,14), (1,3), (3,7). This reconstruction is
/// pinned down by the paper's worked examples: the path of ⟨4, 13⟩ is
/// 4-2-5-8-13, χ(2) = {1, 5} in Figure 3, and Appendix A captures ⟨4, 13⟩
/// at node 2 when rooting at node 1.
pub fn figure6_tree(id: NetworkId) -> TreeNetwork {
    let raw = [
        (1, 2),
        (2, 5),
        (5, 9),
        (5, 8),
        (2, 4),
        (8, 12),
        (8, 13),
        (9, 11),
        (9, 10),
        (1, 6),
        (6, 14),
        (1, 3),
        (3, 7),
    ];
    let edges = raw
        .iter()
        .map(|&(u, v)| (VertexId::new(u - 1), VertexId::new(v - 1)))
        .collect();
    TreeNetwork::new(id, 14, edges).expect("figure 6 tree is a valid tree")
}

/// Translates a 1-based paper vertex label into the 0-based [`VertexId`]
/// used by [`figure6_tree`].
pub fn paper_vertex(label: usize) -> VertexId {
    assert!(label >= 1, "paper vertex labels are 1-based");
    VertexId::new(label - 1)
}

/// A [`TreeProblem`] over the Figure 6 tree carrying the demand ⟨4, 13⟩
/// discussed throughout Section 4, plus the two demands of Figure 2
/// (⟨2, 3⟩-style short demand and ⟨12, 13⟩-style leaf demand), all with unit
/// height.
pub fn figure6_problem() -> TreeProblem {
    let tree = figure6_tree(NetworkId::new(0));
    let mut p = TreeProblem::new(tree.num_vertices());
    let t = p.add_tree(&tree).expect("figure 6 tree is valid");
    // Demand ⟨4, 13⟩ — the long demand used in the Section 4 walkthrough.
    p.add_unit_demand(paper_vertex(4), paper_vertex(13), 3.0, vec![t])
        .expect("valid demand");
    // Demand ⟨2, 3⟩ — passes through vertex 1 (paper), i.e. spans two
    // branches of the root.
    p.add_unit_demand(paper_vertex(2), paper_vertex(3), 2.0, vec![t])
        .expect("valid demand");
    // Demand ⟨12, 13⟩ — local to the subtree under paper vertex 8.
    p.add_unit_demand(paper_vertex(12), paper_vertex(13), 1.0, vec![t])
        .expect("valid demand");
    p
}

/// The three-demand single-resource instance of Figure 1: heights 0.5, 0.7
/// and 0.4 on a 10-slot timeline; `{A, C}` and `{B, C}` are feasible but
/// `{A, B}` is not.
pub fn figure1_line_problem() -> LineProblem {
    let mut p = LineProblem::new(10, 1);
    let acc = vec![NetworkId::new(0)];
    p.add_interval_demand(0, 5, 1.0, 0.5, acc.clone())
        .expect("demand A is valid"); // A: slots 0..=4
    p.add_interval_demand(3, 3, 1.0, 0.7, acc.clone())
        .expect("demand B is valid"); // B: slots 3..=5
    p.add_interval_demand(6, 4, 1.0, 0.4, acc)
        .expect("demand C is valid"); // C: slots 6..=9
    p
}

/// A multi-tree unit-height problem mirroring Figure 2's discussion: three
/// demands sharing an edge on one tree, with a second tree offering an
/// alternative route for one of them.
pub fn two_tree_problem() -> TreeProblem {
    // Tree 0: star around vertex 0 with a long spine 0-1-2-3.
    let mut p = TreeProblem::new(6);
    let t0 = p
        .add_network(vec![
            (VertexId(0), VertexId(1)),
            (VertexId(1), VertexId(2)),
            (VertexId(2), VertexId(3)),
            (VertexId(0), VertexId(4)),
            (VertexId(0), VertexId(5)),
        ])
        .expect("tree 0 valid");
    // Tree 1: a different spanning tree where vertices 3 and 4 are adjacent.
    let t1 = p
        .add_network(vec![
            (VertexId(0), VertexId(1)),
            (VertexId(1), VertexId(2)),
            (VertexId(3), VertexId(4)),
            (VertexId(0), VertexId(4)),
            (VertexId(0), VertexId(5)),
        ])
        .expect("tree 1 valid");
    p.add_unit_demand(VertexId(1), VertexId(3), 3.0, vec![t0, t1])
        .expect("demand 0 valid");
    p.add_unit_demand(VertexId(2), VertexId(3), 2.0, vec![t0])
        .expect("demand 1 valid");
    p.add_unit_demand(VertexId(3), VertexId(4), 2.5, vec![t0, t1])
        .expect("demand 2 valid");
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DemandId;

    #[test]
    fn figure6_tree_shape() {
        let t = figure6_tree(NetworkId::new(0));
        assert_eq!(t.num_vertices(), 14);
        assert_eq!(t.num_edges(), 13);
        // Paper: the path of ⟨4, 13⟩ passes through vertices 2, 5 and 8.
        assert!(t.path_passes_through(paper_vertex(4), paper_vertex(13), paper_vertex(2)));
        assert!(t.path_passes_through(paper_vertex(4), paper_vertex(13), paper_vertex(5)));
        assert!(t.path_passes_through(paper_vertex(4), paper_vertex(13), paper_vertex(8)));
        assert!(!t.path_passes_through(paper_vertex(4), paper_vertex(13), paper_vertex(1)));
    }

    #[test]
    fn figure6_problem_is_valid() {
        let p = figure6_problem();
        p.validate().unwrap();
        let u = p.universe();
        assert_eq!(u.num_instances(), 3);
    }

    #[test]
    fn figure1_problem_matches_figure() {
        let p = figure1_line_problem();
        let u = p.universe();
        assert_eq!(u.num_instances(), 3);
        assert!(u.is_feasible(&[crate::InstanceId(0), crate::InstanceId(2)]));
        assert!(!u.is_feasible(&[crate::InstanceId(0), crate::InstanceId(1)]));
    }

    #[test]
    fn two_tree_problem_offers_alternatives() {
        let p = two_tree_problem();
        let u = p.universe();
        // Demand 0 and demand 2 both have two instances; demand 1 has one.
        assert_eq!(u.num_instances(), 5);
        assert_eq!(u.instances_of_demand(DemandId(0)).len(), 2);
        assert_eq!(u.instances_of_demand(DemandId(1)).len(), 1);
        assert_eq!(u.instances_of_demand(DemandId(2)).len(), 2);
    }
}
