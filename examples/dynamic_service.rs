//! Dynamic serving: drive the batch-admission service over a churn
//! trace and watch the per-epoch schedule deltas.
//!
//! Opens a [`ServiceSession`] on the `churn-line` scenario's initial pool,
//! wraps it in the [`Service`] frontend, and replays the scenario's
//! Poisson tenant-replacement trace — submitting each epoch's events as
//! **two submissions** to show the batch admission: both handles resolve
//! with the *same* epoch delta, because the first `wait` folds everything
//! queued into one incremental epoch. The folding is deterministic: it
//! depends on what is queued when the first waiter arrives, never on
//! timing.
//!
//! Run with: `cargo run --release --example dynamic_service`

use netsched::core::AlgorithmConfig;
use netsched::service::{DemandEvent, DemandRequest, DemandTicket, Service, ServiceSession};
use netsched::workloads::{
    poisson_arrivals_line, scenario_by_name, ChurnSpec, Scenario, TraceEvent,
};

fn main() {
    let scenario = scenario_by_name("churn-line").expect("churn-line is registered");
    let workload = match &scenario {
        Scenario::Line { workload, .. } => workload.clone(),
        _ => unreachable!("churn-line is a line scenario"),
    };
    let spec = ChurnSpec {
        epochs: 12,
        ..scenario
            .churn()
            .expect("churn-line has a churn profile")
            .clone()
    };
    let trace = poisson_arrivals_line(&workload, &spec);
    let problem = workload.build().expect("workload builds");

    println!("== netsched dynamic serving ==");
    println!(
        "initial pool: {} demands on {} machine timelines   churn {:.0}%/epoch, focus {}",
        problem.num_demands(),
        problem.num_resources(),
        100.0 * spec.churn,
        spec.focus
    );

    let service = Service::new(ServiceSession::for_line(
        &problem,
        AlgorithmConfig::deterministic(0.25),
    ));

    // Epoch 0: solve the initial pool (an empty submission).
    let first = service
        .submit(vec![])
        .expect("unbounded queue accepts")
        .wait()
        .expect("initial epoch solves");
    println!(
        "\nepoch {:>2}   scheduled {:>3} demands   profit {:>8.1}   certified OPT ≤ {:>8.1}",
        first.epoch,
        first.admitted.len(),
        first.profit,
        first.certificate.optimum_upper_bound
    );

    // Tickets of every arrival so far, in arrival order (the session seeds
    // tickets 0..m for the initial demands).
    let mut tickets: Vec<DemandTicket> = service
        .with_session(|s| s.live_tickets())
        .expect("session is live");

    for batch in &trace.batches {
        let events: Vec<DemandEvent> = batch
            .iter()
            .map(|event| match event {
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
                TraceEvent::Expire { arrival } => DemandEvent::Expire(tickets[*arrival]),
                TraceEvent::ArriveTree { .. } => unreachable!("line trace"),
            })
            .collect();

        // Two tenants submit before either waits; one epoch admits both.
        let mid = events.len() / 2;
        let (first_half, second_half) = (events[..mid].to_vec(), events[mid..].to_vec());
        let a = service.submit(first_half).expect("unbounded queue accepts");
        let b = service
            .submit(second_half)
            .expect("unbounded queue accepts");
        let delta = a.wait().expect("epoch succeeds");
        let same = b.wait().expect("epoch succeeds");
        assert_eq!(delta.epoch, same.epoch, "both submissions share the epoch");
        tickets.extend(delta.tickets.iter().copied());

        println!(
            "epoch {:>2}   {:>2} arrivals, {:>2} expiries → +{:<2} admitted, -{:<2} evicted, {:>2} moved   \
             {}/{} shards rebuilt   profit {:>8.1}   ratio ≤ {:.2}",
            delta.epoch,
            delta.stats.arrivals,
            delta.stats.expiries,
            delta.admitted.len(),
            delta.evicted.len(),
            delta.reassigned.len(),
            delta.stats.dirty_shards,
            delta.stats.num_shards,
            delta.profit,
            delta.certificate.optimum_upper_bound / delta.profit.max(1e-9),
        );
    }

    let (live, scheduled, epoch) = service
        .with_session(|s| (s.live_demands(), s.schedule().len(), s.epoch()))
        .expect("session is live");
    println!(
        "\nafter {epoch} epochs: {live} live demands, {scheduled} scheduled — every epoch paid \
         only for the shards its batch touched."
    );
}
