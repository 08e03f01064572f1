//! A live, incrementally maintained solving core.
//!
//! A [`LiveCore`] bundles the three structures the two-phase engine reads —
//! the demand-instance universe, its sharded conflict graph and its
//! layering — and keeps them synchronized with a stream of demand splices.
//! The session owns one core for the full live set and (lazily, once the
//! height mix requires the wide/narrow split) one per split half; all three
//! are driven by the same [`LiveCore::apply`].

use netsched_core::{
    run_two_phase_on, run_two_phase_warm_on, AlgorithmConfig, Budget, RaiseRule, Solution,
    WarmState,
};
use netsched_decomp::{line_assignment, InstanceLayering, TreeDecompositionKind, TreeLayerer};
use netsched_distrib::ShardedConflictGraph;
use netsched_graph::{
    ArrivingDemand, DemandId, DemandInstanceUniverse, EdgeId, LineProblem, TreeProblem,
    UniverseDelta,
};

/// The layering assignments of one arriving demand's instances, in instance
/// order (tree cores only; line cores re-derive length classes globally).
pub(crate) type TreeAssignments = Vec<(usize, Vec<EdgeId>)>;

/// One universe + conflict graph + layering triple, spliced in place per
/// epoch. Byte-identical to the from-scratch structures of a fresh
/// [`Scheduler`](netsched_core::Scheduler) over the same surviving demand
/// set — the differential invariant the dynamic-equivalence suite pins.
pub(crate) struct LiveCore {
    pub universe: DemandInstanceUniverse,
    pub conflict: ShardedConflictGraph,
    pub layering: InstanceLayering,
    /// Reusable splice scratch (id remaps + dirty bitmap).
    delta: UniverseDelta,
    /// For line cores: histogram of instance lengths, maintained across
    /// splices so the global minimum length (which the length-class groups
    /// depend on) is known without a scan. `None` for tree cores.
    line_lengths: Option<Vec<u32>>,
    /// The `L_min` the current line layering was assigned against.
    layering_l_min: usize,
    /// Persisted warm-resolve state ([`ResolveMode::Warm`]
    /// (crate::ResolveMode::Warm) sessions only): duals, raise records and
    /// selection seed carried across epochs. `None` until the first warm
    /// solve; reset whenever the required raise rule changes.
    warm: Option<WarmState>,
    /// Nanoseconds the most recent [`LiveCore::apply`] spent rebuilding
    /// dirty conflict-graph shards — the session reads this after each
    /// splice to split the epoch's rebuild time into its
    /// `epoch.conflict_rebuild_ns` / `epoch.splice_ns` histograms.
    pub(crate) conflict_rebuild_ns: u64,
}

/// The minimum instance length recorded by a length histogram (1 for an
/// empty universe, mirroring `line_length_classes`).
fn histogram_min(counts: &[u32]) -> usize {
    counts.iter().position(|&c| c > 0).unwrap_or(0).max(1)
}

impl LiveCore {
    /// A core over a tree problem's current demand set, layered through the
    /// session's shared [`TreeLayerer`].
    pub(crate) fn new_tree(problem: &TreeProblem, layerer: &TreeLayerer) -> Self {
        let universe = problem.universe();
        let conflict = ShardedConflictGraph::build(&universe);
        let layering = layerer.layering(problem, &universe);
        Self {
            universe,
            conflict,
            layering,
            delta: UniverseDelta::new(),
            line_lengths: None,
            layering_l_min: 1,
            warm: None,
            conflict_rebuild_ns: 0,
        }
    }

    /// A core over a line problem's current demand set.
    pub(crate) fn new_line(problem: &LineProblem) -> Self {
        let universe = problem.universe();
        let conflict = ShardedConflictGraph::build(&universe);
        let layering = InstanceLayering::line_length_classes(&universe);
        let mut counts = vec![0u32; problem.timeslots() + 1];
        for inst in universe.instances() {
            counts[inst.len()] += 1;
        }
        let layering_l_min = histogram_min(&counts);
        Self {
            universe,
            conflict,
            layering,
            delta: UniverseDelta::new(),
            line_lengths: Some(counts),
            layering_l_min,
            warm: None,
            conflict_rebuild_ns: 0,
        }
    }

    /// Splices one epoch's demand delta through every structure:
    ///
    /// 1. the universe compacts expired instances and appends arrivals
    ///    (`O(|D|)`, no path recomputation),
    /// 2. the sharded conflict graph rebuilds **only** the dirty shards'
    ///    local CSRs plus the renumbered cross-shard rows,
    /// 3. the layering splices survivor assignments and appends the
    ///    arrivals' — tree assignments come pre-computed in `assignments`;
    ///    line length classes are assigned on the spot against the
    ///    histogram-tracked minimum length, falling back to a full
    ///    `O(|D|)` re-derivation only on the rare epochs where `L_min`
    ///    itself changes (its groups are global ratios).
    ///
    /// `assignments` must hold one `(group, critical)` entry per arriving
    /// instance, flattened in arrival order (ignored for line cores, which
    /// pass an empty vector). Returns the number of dirty shards.
    pub(crate) fn apply(
        &mut self,
        expired: &[DemandId],
        arrivals: &[ArrivingDemand],
        assignments: TreeAssignments,
    ) -> usize {
        // Expiring instance lengths must be read before the splice
        // renumbers them away.
        if let Some(counts) = &mut self.line_lengths {
            for &a in expired {
                for &d in self.universe.instances_of_demand(a) {
                    counts[self.universe.instance(d).len()] -= 1;
                }
            }
        }
        self.universe
            .apply_demand_delta(expired, arrivals, &mut self.delta);
        let conflict_start = std::time::Instant::now();
        self.conflict.apply_delta(&self.universe, &self.delta);
        self.conflict_rebuild_ns = conflict_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if let Some(warm) = &mut self.warm {
            warm.splice(&self.universe, &self.delta);
        }
        match &mut self.line_lengths {
            Some(counts) => {
                let old_min = self.layering_l_min;
                for arrival in arrivals {
                    for (_, path, _) in &arrival.instances {
                        counts[path.len()] += 1;
                    }
                }
                let new_min = histogram_min(counts);
                if new_min == old_min {
                    let additions: TreeAssignments = arrivals
                        .iter()
                        .flat_map(|a| a.instances.iter())
                        .map(|(_, path, _)| line_assignment(new_min, path))
                        .collect();
                    self.layering.splice(self.delta.instance_remap(), additions);
                } else {
                    self.layering = InstanceLayering::line_length_classes(&self.universe);
                    self.layering_l_min = new_min;
                }
            }
            None => {
                debug_assert_eq!(
                    assignments.len(),
                    arrivals.iter().map(|a| a.instances.len()).sum::<usize>()
                );
                self.layering
                    .splice(self.delta.instance_remap(), assignments);
            }
        }
        self.delta.num_dirty()
    }

    /// Runs the two-phase engine on the core's structures under a
    /// cooperative [`Budget`] (pass [`Budget::unlimited`] for a full run).
    /// A cold solve: the engine runs on a fresh [`WarmState`] that is
    /// dropped afterwards, so the core's persisted warm state (if any) is
    /// neither read nor changed.
    pub(crate) fn solve(
        &self,
        rule: RaiseRule,
        config: &AlgorithmConfig,
        budget: &Budget,
    ) -> Solution {
        run_two_phase_on(
            &self.universe,
            &self.conflict,
            &self.layering,
            rule,
            config,
            budget,
        )
    }

    /// Resumes the warm-started engine from the core's persisted
    /// [`WarmState`]. A fresh state is the cold solve, so the first warm
    /// epoch of a session matches [`LiveCore::solve`] bit-for-bit; later
    /// epochs repair only the shards the splices since the previous solve
    /// dirtied. Under a binding [`Budget`] the repair is cut cooperatively
    /// and the unfinished work stays pending in the warm state (see
    /// [`run_two_phase_warm_on`]).
    pub(crate) fn solve_warm(
        &mut self,
        rule: RaiseRule,
        config: &AlgorithmConfig,
        budget: &Budget,
    ) -> Solution {
        // Create the persisted state on first use, and reset it on a
        // raise-rule switch.
        if self.warm.as_ref().map(WarmState::rule) != Some(rule) {
            self.warm = Some(WarmState::new(&self.universe, rule));
        }
        let warm = self.warm.as_mut().expect("warm state just ensured");
        run_two_phase_warm_on(
            &self.universe,
            &self.conflict,
            &self.layering,
            rule,
            config,
            warm,
            budget,
        )
    }

    /// The persisted warm state, if any (read by snapshot serialization
    /// and the compaction policy).
    pub(crate) fn warm_state(&self) -> Option<&WarmState> {
        self.warm.as_ref()
    }

    /// Installs (or clears) the persisted warm state. Callers must have
    /// validated a restored state's shape against the core's universe;
    /// clearing is always certificate-safe — the next warm solve simply
    /// re-primes from zero duals, reproducing the cold engine.
    pub(crate) fn set_warm_state(&mut self, warm: Option<WarmState>) {
        self.warm = warm;
    }
}

/// The decomposition kind every core layers tree problems with — the
/// paper's ideal decomposition (∆ = 6), matching
/// [`Scheduler`](netsched_core::Scheduler)'s dispatch.
pub(crate) const TREE_LAYERING: TreeDecompositionKind = TreeDecompositionKind::Ideal;
