//! The three benchmark workloads and their deterministic inputs.
//!
//! Every workload is a `netsched-workloads` scenario plus a Poisson churn
//! trace. The churn seed picks the traffic: which demands arrive and
//! expire in each epoch. The scenario seed picks the base instance: the
//! networks and the initial demands. Each defaults to the scenario's own
//! seed. The session only ever sees the generated problem and event
//! batches.

use std::time::Instant;

use netsched_graph::{LineProblem, TreeProblem};
use netsched_service::{DemandEvent, DemandRequest, DemandTicket};
use netsched_workloads::{
    poisson_arrivals_line, poisson_arrivals_tree, scenario_by_name, ChurnSpec, EventTrace,
    HeightDistribution, Scenario, TraceEvent,
};

/// The named workloads; see `perfbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `mega-churn-line`: 10⁵ unit-height windowed demands, plain steps.
    Line1e5,
    /// `mega-churn-tree`: 10⁵ unit-height tree routes, plain steps.
    Tree1e5,
    /// Mixed-height tree demands through the durable tier with a reader.
    MixedTreeDurable,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "line-1e5" => Some(Self::Line1e5),
            "tree-1e5" => Some(Self::Tree1e5),
            "mixed-tree-durable" => Some(Self::MixedTreeDurable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Line1e5 => "line-1e5",
            Self::Tree1e5 => "tree-1e5",
            Self::MixedTreeDurable => "mixed-tree-durable",
        }
    }

    pub fn is_durable(self) -> bool {
        self == Self::MixedTreeDurable
    }

    /// Threads that generate load: the stepping caller, plus the polling
    /// reader on the durable workload.
    pub fn load_threads(self) -> usize {
        if self.is_durable() {
            2
        } else {
            1
        }
    }

    /// Rayon workers: every core on the 10⁵ workloads; one on the durable
    /// workload, whose reader thread takes the second core.
    pub fn rayon_workers(self, nproc: usize) -> usize {
        if self.is_durable() {
            1
        } else {
            nproc
        }
    }

    /// Length of the generated trace. The timed loop stops earlier, when
    /// its time is up; the trace only has to outlast that.
    fn trace_epochs(self) -> usize {
        match self {
            Self::Line1e5 | Self::Tree1e5 => 1_000,
            Self::MixedTreeDurable => 12_000,
        }
    }

    /// The seed-deterministic metrics (certified ratio, certificate
    /// quality, bytes per demand, engine counts) cover exactly this many
    /// first timed epochs, so they repeat bit for bit whatever the run
    /// length. The side repeats start after them, so on the 10⁵ workloads
    /// (a quarter second per epoch) the window is short enough to leave
    /// most of the run to the repeats.
    pub fn det_epochs(self) -> usize {
        match self {
            Self::Line1e5 | Self::Tree1e5 => 40,
            Self::MixedTreeDurable => 200,
        }
    }
}

/// The problem a session is opened on.
pub enum Network {
    Line(LineProblem),
    Tree(TreeProblem),
}

/// Everything a run feeds the program, generated before any timing.
pub struct Inputs {
    pub network: Network,
    /// One event batch per epoch, expiries already resolved to tickets.
    pub batches: Vec<Vec<DemandEvent>>,
    pub scenario_seed: u64,
    pub churn_seed: u64,
    pub generate_s: f64,
}

/// Builds the workload's problem and churn trace. A seed left `None` is
/// the scenario's own.
pub fn generate(workload: Workload, scenario_seed: Option<u64>, churn_seed: Option<u64>) -> Inputs {
    let start = Instant::now();
    let base_name = match workload {
        Workload::Line1e5 => "mega-churn-line",
        Workload::Tree1e5 | Workload::MixedTreeDurable => "mega-churn-tree",
    };
    let mut scenario = scenario_by_name(base_name).expect("mega scenarios are registered");
    let mut churn = scenario.churn().expect("mega scenarios churn").clone();
    churn.seed = churn_seed.unwrap_or(churn.seed);
    churn.epochs = workload.trace_epochs();
    let (network, trace, scenario_seed) = match &mut scenario {
        Scenario::Line { workload: w, .. } => {
            w.seed = scenario_seed.unwrap_or(w.seed);
            let problem = w.build().expect("line workload builds");
            assert_eq!(
                problem.demands().len(),
                w.demands,
                "tickets follow arrivals"
            );
            let trace = poisson_arrivals_line(w, &churn);
            (Network::Line(problem), trace, w.seed)
        }
        Scenario::Tree { workload: w, .. } => {
            w.seed = scenario_seed.unwrap_or(w.seed);
            if workload == Workload::MixedTreeDurable {
                // The mega-churn-tree shape shrunk until today's restore
                // (super-linear in snapshot size) finishes in seconds, with
                // ~30% wide demands so the wide/narrow split is live.
                w.vertices = 256;
                w.networks = 32;
                w.demands = 1_000;
                w.access_probability = 0.04;
                w.heights = HeightDistribution::Mixed {
                    wide_fraction: 0.3,
                    min_narrow: 0.1,
                };
                churn = ChurnSpec {
                    churn: 0.005,
                    ..churn
                };
            }
            let problem = w.build().expect("tree workload builds");
            assert_eq!(
                problem.demands().len(),
                w.demands,
                "tickets follow arrivals"
            );
            let trace = poisson_arrivals_tree(w, &churn);
            (Network::Tree(problem), trace, w.seed)
        }
    };
    Inputs {
        network,
        batches: to_batches(&trace),
        scenario_seed,
        churn_seed: churn.seed,
        generate_s: start.elapsed().as_secs_f64(),
    }
}

/// Converts a trace into session batches. Tickets are handed out in
/// admission order starting at 0 for the initial demands, so a trace's
/// arrival index is exactly the ticket the session will assign.
fn to_batches(trace: &EventTrace) -> Vec<Vec<DemandEvent>> {
    trace
        .batches
        .iter()
        .map(|batch| batch.iter().map(to_event).collect())
        .collect()
}

fn to_event(event: &TraceEvent) -> DemandEvent {
    match event {
        TraceEvent::ArriveLine {
            release,
            deadline,
            processing,
            profit,
            height,
            access,
        } => DemandEvent::Arrive(DemandRequest::Line {
            release: *release,
            deadline: *deadline,
            processing: *processing,
            profit: *profit,
            height: *height,
            access: access.clone(),
        }),
        TraceEvent::ArriveTree {
            u,
            v,
            profit,
            height,
            access,
        } => DemandEvent::Arrive(DemandRequest::Tree {
            u: *u,
            v: *v,
            profit: *profit,
            height: *height,
            access: access.clone(),
        }),
        TraceEvent::Expire { arrival } => DemandEvent::Expire(DemandTicket(*arrival as u64)),
    }
}
