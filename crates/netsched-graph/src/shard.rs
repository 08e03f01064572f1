//! Sharding the demand-instance universe by network.
//!
//! The conflict structure of the paper is a union of per-network interval
//! graphs joined only by same-demand cliques: two instances overlap only if
//! they live on the same network, so everything driven by overlaps — the
//! interval sweep that builds the conflict graph, the per-epoch MIS rounds,
//! the dual raises — decomposes along [`NetworkId`] boundaries. A
//! [`ShardedUniverse`] materializes that decomposition: one shard per
//! network holding the instances of that network under a dense *local*
//! id space, a global↔local id table, and the shard's interval runs
//! pre-sorted for sweeping.
//!
//! The sharded view is purely a secondary index over a
//! [`DemandInstanceUniverse`]; it stores no profits, heights or paths of its
//! own and is cheap to rebuild (`O(|D| log n)` for the run sort). It exists
//! for incremental splicing: a demand delta dirties only the networks it
//! touches, so consumers (`netsched-distrib::conflict`, the two-phase
//! engine in `netsched-core`) rebuild or repair those shards alone and
//! translate local results back through the id table.

use crate::ids::{InstanceId, NetworkId};
use crate::universe::{DemandInstanceUniverse, UniverseDelta};

/// One interval run of one instance within a shard, in local instance ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardRun {
    /// First edge index of the run (inclusive).
    pub start: u32,
    /// Last edge index of the run (inclusive).
    pub end: u32,
    /// Local id (within the shard) of the instance the run belongs to.
    pub local: u32,
}

/// The slice of a universe living on one network.
#[derive(Debug, Clone)]
pub struct UniverseShard {
    network: NetworkId,
    /// Local id → global instance id; ascending, so local order and global
    /// order agree within a shard.
    globals: Vec<InstanceId>,
    /// Every interval run of every instance of the shard, sorted by
    /// `(start, end, local)` — ready for a left-to-right sweep.
    runs: Vec<ShardRun>,
    /// Number of edges of the shard's network.
    num_edges: usize,
}

impl UniverseShard {
    /// The network this shard covers.
    #[inline]
    pub fn network(&self) -> NetworkId {
        self.network
    }

    /// Number of instances in the shard.
    #[inline]
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// Returns `true` when the shard holds no instances.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// Local id → global instance id table (ascending).
    #[inline]
    pub fn globals(&self) -> &[InstanceId] {
        &self.globals
    }

    /// The global id of a local instance.
    #[inline]
    pub fn global_of(&self, local: u32) -> InstanceId {
        self.globals[local as usize]
    }

    /// The shard's interval runs, sorted by `(start, end, local)`.
    #[inline]
    pub fn runs(&self) -> &[ShardRun] {
        &self.runs
    }

    /// Number of edges of the shard's network.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }
}

/// The per-shard record of what the last [`ShardedUniverse::apply_delta`]
/// did to one **dirty** shard's local id space — the splice contract the
/// conflict-degree upkeep in `netsched-distrib` compacts its per-shard
/// degree columns through.
#[derive(Debug, Clone, Default)]
pub struct ShardSplice {
    /// Old local id → new local id; `u32::MAX` for removed instances.
    /// Monotone on survivors (local order is global order restricted to
    /// the shard, and the global remap is monotone).
    local_remap: Vec<u32>,
    /// Locals `>= first_new_local` were appended by the splice (arrivals
    /// carry larger global ids than every survivor, so they form a suffix
    /// of the shard's local id space too).
    first_new_local: u32,
}

impl ShardSplice {
    /// Old local id → new local id map (`u32::MAX` = removed).
    #[inline]
    pub fn local_remap(&self) -> &[u32] {
        &self.local_remap
    }

    /// First local id appended by the splice.
    #[inline]
    pub fn first_new_local(&self) -> u32 {
        self.first_new_local
    }
}

/// A universe partitioned into one shard per network.
///
/// Construction is deterministic: shard `t` is network `t`, local ids follow
/// ascending global ids, runs are sorted by `(start, end, local)`. Empty
/// networks yield empty shards so shard indices always align with
/// [`NetworkId`]s.
#[derive(Debug, Clone)]
pub struct ShardedUniverse {
    shards: Vec<UniverseShard>,
    /// Global instance id → owning shard (== network index).
    shard_of: Vec<u32>,
    /// Global instance id → local id within its shard.
    local_of: Vec<u32>,
    /// Per-shard splice records of the **last** `apply_delta`; only the
    /// entries of that delta's dirty shards are current.
    splices: Vec<ShardSplice>,
    /// Reusable scratch for the dirty-shard run merge (arrival runs,
    /// sorted).
    run_scratch_new: Vec<ShardRun>,
    /// Reusable scratch the merged run array is assembled into before it
    /// is swapped with the shard's.
    run_scratch_merged: Vec<ShardRun>,
}

impl ShardedUniverse {
    /// Partitions a universe by network.
    pub fn build(universe: &DemandInstanceUniverse) -> Self {
        let n = universe.num_instances();
        let mut shard_of = vec![0u32; n];
        let mut local_of = vec![0u32; n];
        let mut shards = Vec::with_capacity(universe.num_networks());
        for t in 0..universe.num_networks() {
            let network = NetworkId::new(t);
            let globals: Vec<InstanceId> = universe.instances_on_network(network).to_vec();
            debug_assert!(globals.windows(2).all(|w| w[0] < w[1]));
            let mut runs = Vec::new();
            for (local, &d) in globals.iter().enumerate() {
                shard_of[d.index()] = t as u32;
                local_of[d.index()] = local as u32;
                for run in universe.instance(d).path.runs() {
                    runs.push(ShardRun {
                        start: run.start,
                        end: run.end,
                        local: local as u32,
                    });
                }
            }
            runs.sort_unstable();
            shards.push(UniverseShard {
                network,
                globals,
                runs,
                num_edges: universe.num_edges(network),
            });
        }
        let num_shards = shards.len();
        Self {
            shards,
            shard_of,
            local_of,
            splices: vec![ShardSplice::default(); num_shards],
            run_scratch_new: Vec::new(),
            run_scratch_merged: Vec::new(),
        }
    }

    /// Number of shards (== number of networks).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of instances over all shards.
    #[inline]
    pub fn num_instances(&self) -> usize {
        self.shard_of.len()
    }

    /// All shards, indexed by network.
    #[inline]
    pub fn shards(&self) -> &[UniverseShard] {
        &self.shards
    }

    /// The shard of network `t`.
    #[inline]
    pub fn shard(&self, t: NetworkId) -> &UniverseShard {
        &self.shards[t.index()]
    }

    /// The shard (network) owning a global instance.
    #[inline]
    pub fn shard_of(&self, d: InstanceId) -> NetworkId {
        NetworkId(self.shard_of[d.index()])
    }

    /// The local id of a global instance within its shard.
    #[inline]
    pub fn local_of(&self, d: InstanceId) -> u32 {
        self.local_of[d.index()]
    }

    /// Translates a (shard, local id) pair back to the global instance id.
    #[inline]
    pub fn to_global(&self, t: NetworkId, local: u32) -> InstanceId {
        self.shards[t.index()].global_of(local)
    }

    /// The splice record the last [`ShardedUniverse::apply_delta`] wrote
    /// for shard `t`. Only current for that delta's **dirty** shards
    /// (clean shards' records are stale leftovers of older epochs).
    #[inline]
    pub fn shard_splice(&self, t: NetworkId) -> &ShardSplice {
        &self.splices[t.index()]
    }

    /// Heap bytes committed by the sharded index (globals/runs columns,
    /// id tables, splice records and run scratch).
    pub fn committed_bytes(&self) -> usize {
        let mut bytes =
            (self.shard_of.capacity() + self.local_of.capacity()) * std::mem::size_of::<u32>();
        for shard in &self.shards {
            bytes += shard.globals.capacity() * std::mem::size_of::<InstanceId>();
            bytes += shard.runs.capacity() * std::mem::size_of::<ShardRun>();
        }
        bytes += self.shards.capacity() * std::mem::size_of::<UniverseShard>();
        for splice in &self.splices {
            bytes += splice.local_remap.capacity() * std::mem::size_of::<u32>();
        }
        bytes += self.splices.capacity() * std::mem::size_of::<ShardSplice>();
        bytes += (self.run_scratch_new.capacity() + self.run_scratch_merged.capacity())
            * std::mem::size_of::<ShardRun>();
        bytes
    }

    /// Re-synchronizes the partition with a universe that was just spliced
    /// by [`DemandInstanceUniverse::apply_demand_delta`], splicing only
    /// the shards of the delta's **dirty** networks.
    ///
    /// * Clean shards keep their instances and local ids by construction,
    ///   so their run arrays are untouched (no re-sort) and only the
    ///   global-id column is renumbered through the delta's instance remap
    ///   — `O(shard size)` with no path or sort work.
    /// * Dirty shards are **spliced, not rebuilt**: the globals column is
    ///   compacted in place (recording the old→new local remap in the
    ///   shard's [`ShardSplice`]), arrivals are appended from the suffix of
    ///   `instances_on_network`, and the run array keeps its survivors —
    ///   renumbered in place, which preserves the `(start, end, local)`
    ///   order because the local remap is monotone — merged with the
    ///   arrivals' runs, of which only the `O(batch)` new ones are sorted.
    ///   Every buffer is reused in place, so steady-state epochs allocate
    ///   nothing.
    /// * The global `shard_of` / `local_of` tables are refilled in one
    ///   `O(|D|)` pass.
    ///
    /// The result is byte-identical to `ShardedUniverse::build(universe)`:
    /// the instance remap is monotone on survivors, so renumbered globals
    /// stay ascending, surviving runs stay sorted, and the merge produces
    /// exactly the order a full re-sort would.
    pub fn apply_delta(&mut self, universe: &DemandInstanceUniverse, delta: &UniverseDelta) {
        let n = universe.num_instances();
        self.shard_of.clear();
        self.shard_of.resize(n, 0);
        self.local_of.clear();
        self.local_of.resize(n, 0);
        self.splices
            .resize_with(self.shards.len(), ShardSplice::default);
        let remap = delta.instance_remap();
        for (t, shard) in self.shards.iter_mut().enumerate() {
            if delta.dirty()[t] {
                // Compact the globals column in place, recording the
                // old→new local renumbering.
                let splice = &mut self.splices[t];
                splice.local_remap.clear();
                let mut next_local = 0u32;
                shard.globals.retain_mut(|g| {
                    let new = remap[g.index()];
                    if new == u32::MAX {
                        splice.local_remap.push(u32::MAX);
                        false
                    } else {
                        splice.local_remap.push(next_local);
                        *g = InstanceId(new);
                        next_local += 1;
                        true
                    }
                });
                splice.first_new_local = next_local;
                // Arrivals carry larger global ids than every survivor, so
                // the shard's survivors are exactly the prefix of the
                // universe's (ascending) per-network index.
                let all = universe.instances_on_network(shard.network);
                debug_assert_eq!(
                    &shard.globals[..],
                    &all[..next_local as usize],
                    "dirty-shard survivors must form a prefix of the network index"
                );
                shard.globals.extend_from_slice(&all[next_local as usize..]);

                // Splice the run array: drop removed locals' runs and
                // renumber survivors in place (monotone remap keeps the
                // `(start, end, local)` order), then merge the arrivals'
                // runs — the only ones that need sorting.
                shard
                    .runs
                    .retain_mut(|r| match splice.local_remap[r.local as usize] {
                        u32::MAX => false,
                        new => {
                            r.local = new;
                            true
                        }
                    });
                self.run_scratch_new.clear();
                for local in splice.first_new_local..shard.globals.len() as u32 {
                    let d = shard.globals[local as usize];
                    for run in universe.instance(d).path.runs() {
                        self.run_scratch_new.push(ShardRun {
                            start: run.start,
                            end: run.end,
                            local,
                        });
                    }
                }
                self.run_scratch_new.sort_unstable();
                self.run_scratch_merged.clear();
                self.run_scratch_merged
                    .reserve(shard.runs.len() + self.run_scratch_new.len());
                let (mut i, mut j) = (0, 0);
                while i < shard.runs.len() && j < self.run_scratch_new.len() {
                    if shard.runs[i] <= self.run_scratch_new[j] {
                        self.run_scratch_merged.push(shard.runs[i]);
                        i += 1;
                    } else {
                        self.run_scratch_merged.push(self.run_scratch_new[j]);
                        j += 1;
                    }
                }
                self.run_scratch_merged.extend_from_slice(&shard.runs[i..]);
                self.run_scratch_merged
                    .extend_from_slice(&self.run_scratch_new[j..]);
                std::mem::swap(&mut shard.runs, &mut self.run_scratch_merged);
            } else {
                for g in shard.globals.iter_mut() {
                    let new = remap[g.index()];
                    debug_assert_ne!(new, u32::MAX, "clean shard lost an instance");
                    *g = InstanceId(new);
                }
                debug_assert!(shard.globals.windows(2).all(|w| w[0] < w[1]));
            }
            for (local, &d) in shard.globals.iter().enumerate() {
                self.shard_of[d.index()] = t as u32;
                self.local_of[d.index()] = local as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure1_line_problem, figure6_problem, two_tree_problem};

    #[test]
    fn remap_round_trips_every_instance() {
        for universe in [
            figure1_line_problem().universe(),
            two_tree_problem().universe(),
            figure6_problem().universe(),
        ] {
            let sharded = ShardedUniverse::build(&universe);
            assert_eq!(sharded.num_shards(), universe.num_networks());
            assert_eq!(sharded.num_instances(), universe.num_instances());
            for d in universe.instance_ids() {
                let t = sharded.shard_of(d);
                assert_eq!(t, universe.instance(d).network);
                let local = sharded.local_of(d);
                assert_eq!(sharded.to_global(t, local), d);
            }
        }
    }

    #[test]
    fn shard_sizes_match_by_network_index_and_runs_are_sorted() {
        let universe = two_tree_problem().universe();
        let sharded = ShardedUniverse::build(&universe);
        let mut total_runs = 0;
        for (t, shard) in sharded.shards().iter().enumerate() {
            let network = NetworkId::new(t);
            assert_eq!(shard.network(), network);
            assert_eq!(shard.len(), universe.instances_on_network(network).len());
            assert_eq!(shard.num_edges(), universe.num_edges(network));
            assert!(shard.runs().windows(2).all(|w| w[0] <= w[1]));
            assert!(shard.globals().windows(2).all(|w| w[0] < w[1]));
            total_runs += shard.runs().len();
        }
        let expected: usize = universe.instances().map(|d| d.path.num_runs()).sum();
        assert_eq!(total_runs, expected);
    }

    #[test]
    fn apply_delta_matches_from_scratch_build() {
        use crate::universe::ArrivingDemand;
        use crate::{EdgePath, TreeProblem, VertexId};

        // Two path networks; three demands with distinct footprints.
        let mut p = TreeProblem::new(6);
        let line: Vec<(VertexId, VertexId)> = (0..5)
            .map(|i| (VertexId::new(i), VertexId::new(i + 1)))
            .collect();
        let t0 = p.add_network(line.clone()).unwrap();
        let t1 = p.add_network(line).unwrap();
        p.add_unit_demand(VertexId(0), VertexId(3), 1.0, vec![t0, t1])
            .unwrap();
        p.add_unit_demand(VertexId(1), VertexId(5), 2.0, vec![t0])
            .unwrap();
        p.add_unit_demand(VertexId(2), VertexId(4), 3.0, vec![t1])
            .unwrap();
        let mut universe = p.universe();
        let mut sharded = ShardedUniverse::build(&universe);

        // Expire demand 1 (network 0 only) and add a demand on network 0:
        // shard 0 is dirty, shard 1 stays clean.
        let mut delta = crate::universe::UniverseDelta::new();
        universe.apply_demand_delta(
            &[crate::DemandId(1)],
            &[ArrivingDemand {
                profit: 5.0,
                height: 1.0,
                instances: vec![(t0, EdgePath::interval(0, 2), None)],
            }],
            &mut delta,
        );
        assert_eq!(delta.dirty(), &[true, false]);
        sharded.apply_delta(&universe, &delta);

        let fresh = ShardedUniverse::build(&universe);
        assert_eq!(sharded.num_shards(), fresh.num_shards());
        assert_eq!(sharded.num_instances(), fresh.num_instances());
        for t in 0..fresh.num_shards() {
            let network = NetworkId::new(t);
            assert_eq!(
                sharded.shard(network).globals(),
                fresh.shard(network).globals(),
                "globals of shard {t}"
            );
            assert_eq!(
                sharded.shard(network).runs(),
                fresh.shard(network).runs(),
                "runs of shard {t}"
            );
            assert_eq!(
                sharded.shard(network).num_edges(),
                fresh.shard(network).num_edges()
            );
        }
        for d in universe.instance_ids() {
            assert_eq!(sharded.shard_of(d), fresh.shard_of(d), "shard of {d}");
            assert_eq!(sharded.local_of(d), fresh.local_of(d), "local of {d}");
        }
    }

    #[test]
    fn empty_networks_yield_aligned_empty_shards() {
        use crate::{TreeProblem, VertexId};
        let mut p = TreeProblem::new(3);
        let t0 = p
            .add_network(vec![(VertexId(0), VertexId(1)), (VertexId(1), VertexId(2))])
            .unwrap();
        // A second network that no demand can access.
        let _t1 = p
            .add_network(vec![(VertexId(0), VertexId(2)), (VertexId(0), VertexId(1))])
            .unwrap();
        p.add_unit_demand(VertexId(0), VertexId(2), 1.0, vec![t0])
            .unwrap();
        let u = p.universe();
        let sharded = ShardedUniverse::build(&u);
        assert_eq!(sharded.num_shards(), 2);
        assert_eq!(sharded.shard(NetworkId::new(0)).len(), 1);
        assert!(sharded.shard(NetworkId::new(1)).is_empty());
    }
}
