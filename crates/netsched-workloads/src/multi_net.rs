//! Multi-network workload generators for the sharded conflict engine.
//!
//! The serving path splits its conflict work by network (overlaps never
//! cross networks, so a splice re-sweeps only the networks it touches),
//! so its interesting workloads have *many* networks — both balanced
//! (every network roughly the same size) and skewed (a few hot networks
//! own most instances, where one splice lands on the same large network
//! over and over). These generators parameterize the existing
//! [`TreeWorkload`]/[`LineWorkload`] descriptions for exactly those shapes;
//! [`crate::scenarios::named_scenarios`] registers instances of each so the
//! scenario index, the end-to-end suite and the `shard_scaling` bench all
//! draw from the same definitions.

use crate::demand_gen::{HeightDistribution, ProfitDistribution};
use crate::line_gen::LineWorkload;
use crate::tree_gen::{TreeTopology, TreeWorkload};

/// A balanced many-network line workload: `networks` identical timeline
/// resources, every demand accessible on a few of them uniformly, so the
/// shards end up roughly equal-sized.
pub fn many_networks_line(networks: usize, demands: usize, seed: u64) -> LineWorkload {
    assert!(networks >= 1);
    LineWorkload {
        timeslots: 96,
        resources: networks,
        demands,
        min_length: 2,
        max_length: 20,
        max_slack: 8,
        // Keep the expected accessible-resource count at ~3 regardless of
        // the shard count, so instance counts scale with `demands`, not
        // with `networks`.
        access_probability: (3.0 / networks as f64).min(1.0),
        access_skew: 0.0,
        profits: ProfitDistribution::Uniform {
            min: 1.0,
            max: 32.0,
        },
        heights: HeightDistribution::Unit,
        seed,
    }
}

/// A balanced many-network tree workload: `networks` random spanning trees
/// over a shared vertex set.
pub fn many_networks_tree(networks: usize, demands: usize, seed: u64) -> TreeWorkload {
    assert!(networks >= 1);
    TreeWorkload {
        vertices: 72,
        networks,
        demands,
        topology: TreeTopology::RandomAttachment,
        access_probability: (3.0 / networks as f64).min(1.0),
        access_skew: 0.0,
        profits: ProfitDistribution::Uniform {
            min: 1.0,
            max: 32.0,
        },
        heights: HeightDistribution::Unit,
        seed,
    }
}

/// A skewed-shard line workload: resource `t` is accessible with
/// probability `∝ 1/(t+1)^skew`, so low-indexed resources own most
/// instances and the shard sizes follow a power law.
pub fn skewed_networks_line(networks: usize, demands: usize, skew: f64, seed: u64) -> LineWorkload {
    let mut w = many_networks_line(networks, demands, seed);
    // Anchor the hottest resource near certainty, then decay.
    w.access_probability = 0.9;
    w.access_skew = skew;
    w
}

/// A skewed-shard tree workload; see [`skewed_networks_line`].
pub fn skewed_networks_tree(networks: usize, demands: usize, skew: f64, seed: u64) -> TreeWorkload {
    let mut w = many_networks_tree(networks, demands, seed);
    w.access_probability = 0.9;
    w.access_skew = skew;
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsched_graph::NetworkId;

    #[test]
    fn many_networks_line_spreads_instances_evenly() {
        let w = many_networks_line(8, 120, 11);
        let p = w.build().unwrap();
        assert_eq!(p.num_resources(), 8);
        let u = p.universe();
        let sizes: Vec<usize> = (0..8)
            .map(|t| u.instances_on_network(NetworkId::new(t)).len())
            .collect();
        assert!(sizes.iter().all(|&s| s > 0), "every shard populated");
        let (min, max) = (
            *sizes.iter().min().unwrap() as f64,
            *sizes.iter().max().unwrap() as f64,
        );
        assert!(max / min < 8.0, "balanced shards: {sizes:?}");
    }

    #[test]
    fn many_networks_tree_builds_valid_problems() {
        let w = many_networks_tree(12, 90, 5);
        let p = w.build().unwrap();
        p.validate().unwrap();
        assert_eq!(p.num_networks(), 12);
        assert_eq!(p.num_demands(), 90);
    }

    #[test]
    fn skewed_workloads_concentrate_on_low_indexed_networks() {
        let w = skewed_networks_line(8, 160, 1.5, 77);
        let u = w.build().unwrap().universe();
        let sizes: Vec<usize> = (0..8)
            .map(|t| u.instances_on_network(NetworkId::new(t)).len())
            .collect();
        // The hottest shard dominates the coldest by a wide margin.
        assert!(
            sizes[0] > 4 * sizes[7].max(1),
            "expected skewed shard sizes: {sizes:?}"
        );
        let tree = skewed_networks_tree(6, 80, 1.5, 3).build().unwrap();
        let tu = tree.universe();
        let first = tu.instances_on_network(NetworkId::new(0)).len();
        let last = tu.instances_on_network(NetworkId::new(5)).len();
        assert!(first > last, "tree skew: {first} vs {last}");
    }

    #[test]
    fn zero_skew_reproduces_the_uniform_stream() {
        // access_skew = 0 must consume the RNG exactly like the pre-skew
        // generator, so problems built from old seeds stay bit-identical.
        // Golden values pinned from the generator at the time the skew knob
        // was introduced: any change to the draw count or order for
        // skew = 0 shifts the stream and trips these.
        let p = many_networks_line(4, 40, 9).build().unwrap();
        let golden = [
            (0usize, 23u32, 36u32, 13u32, 19.569982053003375f64),
            (17, 76, 81, 2, 24.501961805009298),
            (39, 80, 89, 5, 28.962148151020724),
        ];
        for &(i, release, deadline, processing, profit) in &golden {
            let d = &p.demands()[i];
            assert_eq!(d.release, release, "demand {i}");
            assert_eq!(d.deadline, deadline, "demand {i}");
            assert_eq!(d.processing, processing, "demand {i}");
            assert_eq!(d.profit, profit, "demand {i}");
        }
        let access: Vec<usize> = p
            .access(p.demands()[17].id)
            .iter()
            .map(|t| t.index())
            .collect();
        assert_eq!(access, vec![0, 1, 3]);
    }
}
