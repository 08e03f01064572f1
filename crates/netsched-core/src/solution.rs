//! Solutions and run diagnostics.

use crate::budget::CertificateQuality;
use netsched_distrib::RoundStats;
use netsched_graph::{DemandId, DemandInstanceUniverse, InstanceId, NetworkId};
use std::time::Duration;

/// Diagnostics reported by a two-phase run; these are the quantities the
/// paper's theorems bound (∆, λ, epochs, stages, steps) plus the dual
/// objective used as an optimum upper bound.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunDiagnostics {
    /// Number of epochs executed (`ℓ_max`, the layered-decomposition length).
    pub epochs: usize,
    /// Number of stages per epoch (`⌈log_ξ ε⌉`).
    pub stages_per_epoch: usize,
    /// Total number of first-phase steps (iterations) over all stages.
    pub steps: u64,
    /// Largest number of steps observed in a single stage (Lemma 5.1 bounds
    /// this by `O(log(p_max/p_min))`).
    pub max_steps_per_stage: u64,
    /// Number of demand instances raised.
    pub raised: u64,
    /// Stages cut by the Claim 5.2 step cap while instances were still
    /// unsatisfied (0 when the paper's bound holds).
    pub capped_stages: u64,
    /// The critical-set size ∆ of the layering actually used.
    pub delta: usize,
    /// The slackness λ achieved at the end of the first phase.
    pub lambda: f64,
    /// The dual objective `Σ α + Σ β` at the end of the first phase.
    pub dual_objective: f64,
    /// `dual_objective / λ`, an upper bound on the optimum profit.
    pub optimum_upper_bound: f64,
    /// Whether the first phase ran to full λ-certification or was cut by
    /// a [`Budget`](crate::Budget). The bound above is valid either way;
    /// only a [`Full`](CertificateQuality::Full) run carries the solver's
    /// worst-case guarantee.
    pub quality: CertificateQuality,
}

/// Wall-clock time the two-phase engine spent in each of its phases, and
/// how many stack items its second phase re-decided.
///
/// The phases are consecutive laps of one clock, so they add up to the
/// whole engine call. Timings and the item count are measurements of work
/// done, not outputs: [`Solution`]'s equality ignores them. Solvers without
/// the two-phase engine report zeros.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTimings {
    /// Checks, the active list and its group buckets, and the stage
    /// schedule (plus the fresh warm state of a cold solve).
    pub setup: Duration,
    /// The first-phase repair passes (MIS and dual raises).
    pub repair: Duration,
    /// The LHS cache refresh and the per-network λ minima.
    pub refresh: Duration,
    /// The second phase: re-deciding the marked networks' stack items and
    /// reading the selection off the commit decisions.
    pub replay: Duration,
    /// Reading the sorted raised-instance set off the newest-layer column.
    pub raised_set: Duration,
    /// Certification: schedule verification, the λ and ratio checks and
    /// the bookkeeping that closes the solve.
    pub certify: Duration,
    /// Stack items the second phase re-decided: the whole stack on a fresh
    /// or restored state, none on an epoch no splice touched.
    pub replayed_items: u64,
}

impl EngineTimings {
    /// The phases in field order: setup, repair, refresh, replay, raised
    /// set, certify.
    pub fn phases(&self) -> [Duration; 6] {
        [
            self.setup,
            self.repair,
            self.refresh,
            self.replay,
            self.raised_set,
            self.certify,
        ]
    }

    /// Phase-wise sum of two engine calls' timings.
    pub fn merged(self, other: Self) -> Self {
        Self {
            setup: self.setup + other.setup,
            repair: self.repair + other.repair,
            refresh: self.refresh + other.refresh,
            replay: self.replay + other.replay,
            raised_set: self.raised_set + other.raised_set,
            certify: self.certify + other.certify,
            replayed_items: self.replayed_items + other.replayed_items,
        }
    }
}

/// The outcome of one scheduling algorithm run.
///
/// Two solutions are equal when their outputs are: the
/// [`timings`](Solution::timings) do not take part.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The selected demand instances (indices into the universe the
    /// algorithm was run on).
    pub selected: Vec<InstanceId>,
    /// Every instance raised during the first phase (the paper's set `R`);
    /// the second phase guarantees that each of them is either selected or
    /// conflicts with a selected successor.
    pub raised_instances: Vec<InstanceId>,
    /// Total profit of the selection.
    pub profit: f64,
    /// Communication-round and message accounting.
    pub stats: RoundStats,
    /// Framework diagnostics.
    pub diagnostics: RunDiagnostics,
    /// Where the engine's time went, and how much the replay re-decided.
    pub timings: EngineTimings,
}

impl PartialEq for Solution {
    fn eq(&self, other: &Self) -> bool {
        let Solution {
            selected,
            raised_instances,
            profit,
            stats,
            diagnostics,
            timings: _,
        } = self;
        *selected == other.selected
            && *raised_instances == other.raised_instances
            && *profit == other.profit
            && *stats == other.stats
            && *diagnostics == other.diagnostics
    }
}

impl Solution {
    /// An empty solution.
    pub fn empty() -> Self {
        Self {
            selected: Vec::new(),
            raised_instances: Vec::new(),
            profit: 0.0,
            stats: RoundStats::default(),
            diagnostics: RunDiagnostics::default(),
            timings: EngineTimings::default(),
        }
    }

    /// Number of scheduled demands.
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// Returns `true` if nothing was scheduled.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }

    /// Verifies the solution against a universe: feasibility (capacity and
    /// one-instance-per-demand) and the reported profit.
    ///
    /// One pass over the selection plus one prefix sum per network it
    /// touches ([`DemandInstanceUniverse::is_feasible`]):
    /// `O(|selected| runs + r + Σ E_t over touched networks)` for `r`
    /// networks — cheap enough for the warm safety valve to run every
    /// epoch in release builds.
    pub fn verify(&self, universe: &DemandInstanceUniverse) -> Result<(), String> {
        if !universe.is_feasible(&self.selected) {
            return Err("selection violates feasibility".to_string());
        }
        let profit = universe.total_profit(&self.selected);
        if (profit - self.profit).abs() > 1e-6 * (1.0 + profit.abs()) {
            return Err(format!(
                "reported profit {} does not match recomputed profit {}",
                self.profit, profit
            ));
        }
        Ok(())
    }

    /// The demands scheduled by this solution, with the network each one was
    /// scheduled on.
    pub fn assignments(&self, universe: &DemandInstanceUniverse) -> Vec<(DemandId, NetworkId)> {
        self.selected
            .iter()
            .map(|&d| {
                let inst = universe.instance(d);
                (inst.demand, inst.network)
            })
            .collect()
    }

    /// The selected instances scheduled on a given network.
    pub fn on_network(
        &self,
        universe: &DemandInstanceUniverse,
        network: NetworkId,
    ) -> Vec<InstanceId> {
        universe.restrict_to_network(&self.selected, network)
    }

    /// The empirical approximation ratio `upper_bound / profit` implied by
    /// the dual certificate (≥ 1; `None` when the solution is empty or
    /// carries no certificate, e.g. a plain heuristic run).
    pub fn certified_ratio(&self) -> Option<f64> {
        if self.profit <= 0.0 || self.diagnostics.optimum_upper_bound <= 0.0 {
            return None;
        }
        Some(self.diagnostics.optimum_upper_bound / self.profit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsched_graph::fixtures::figure1_line_problem;

    #[test]
    fn verify_catches_infeasible_and_wrong_profit() {
        let u = figure1_line_problem().universe();
        let mut s = Solution::empty();
        s.selected = vec![InstanceId::new(0), InstanceId::new(2)];
        s.profit = u.total_profit(&s.selected);
        assert!(s.verify(&u).is_ok());
        assert_eq!(s.len(), 2);

        let mut bad = s.clone();
        bad.selected = vec![InstanceId::new(0), InstanceId::new(1)];
        bad.profit = u.total_profit(&bad.selected);
        assert!(bad.verify(&u).is_err());

        let mut wrong_profit = s.clone();
        wrong_profit.profit += 1.0;
        assert!(wrong_profit.verify(&u).is_err());
    }

    #[test]
    fn assignments_and_restrictions() {
        let u = figure1_line_problem().universe();
        let mut s = Solution::empty();
        s.selected = vec![InstanceId::new(1), InstanceId::new(2)];
        s.profit = u.total_profit(&s.selected);
        let asg = s.assignments(&u);
        assert_eq!(asg.len(), 2);
        assert!(asg.iter().all(|&(_, t)| t == NetworkId::new(0)));
        assert_eq!(s.on_network(&u, NetworkId::new(0)).len(), 2);
    }

    #[test]
    fn certified_ratio_requires_positive_profit() {
        let mut s = Solution::empty();
        assert!(s.certified_ratio().is_none());
        s.profit = 2.0;
        s.diagnostics.optimum_upper_bound = 5.0;
        assert!((s.certified_ratio().unwrap() - 2.5).abs() < 1e-12);
    }
}
