//! The session's ticket bookkeeping against a reference model.
//!
//! `ServiceSession` keeps its live list and standing schedule as vectors
//! sorted by ticket and answers ticket lookups by binary search. This suite
//! replays churn traces and checks, every epoch, that `is_live`,
//! `live_tickets`, `schedule()`, the published `ScheduleSnapshot` and the
//! delta's admitted / evicted / reassigned lists agree with a plain
//! `BTreeMap` model rebuilt from the engine's solution. It also pins the
//! validation and restore edges the sorted layout relies on: duplicate
//! expiries in large batches, snapshots whose tickets are out of order or
//! whose requests the base topology cannot hold, and snapshots that must
//! survive a restore unchanged, including snapshots and write-ahead
//! records written with whitespace between tokens.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::{dense_solution, dense_universe, line_trace_with_heights, to_events, tree_trace};
use netsched_core::AlgorithmConfig;
use netsched_graph::{LineProblem, NetworkId};
use netsched_service::{
    parse_wal_record, wal_record, DemandEvent, DemandRequest, DemandTicket, Placement, ResolveMode,
    ScheduledDemand, ServiceError, ServiceSession, WalRecord,
};
use netsched_workloads::json::{JsonValue, ToJson};
use netsched_workloads::{EventTrace, HeightDistribution, TraceEvent};

/// Replays `trace` and compares the session's bookkeeping with the model
/// after every epoch.
fn check_against_model(mut session: ServiceSession, trace: &EventTrace, label: &str) {
    let view = session.schedule_view();
    let mut reader = view.reader();
    let mut tickets: Vec<DemandTicket> = session.live_tickets();
    let mut live: BTreeSet<u64> = tickets.iter().map(|t| t.0).collect();
    let mut expired: Vec<u64> = Vec::new();
    let mut model: BTreeMap<u64, Placement> = BTreeMap::new();

    // Epoch 0 solves the initial set; then one epoch per trace batch.
    let batches = std::iter::once(&[][..]).chain(trace.batches.iter().map(Vec::as_slice));
    for (epoch, batch) in batches.enumerate() {
        let label = format!("{label} epoch {epoch}");
        let events = to_events(batch, &tickets);
        let delta = session
            .step(&events)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        tickets.extend(delta.tickets.iter().copied());
        for event in batch {
            if let TraceEvent::Expire { arrival } = event {
                live.remove(&tickets[*arrival].0);
                expired.push(tickets[*arrival].0);
            }
        }
        live.extend(delta.tickets.iter().map(|t| t.0));

        // The live list: strictly ascending, equal to the model's set.
        let live_tickets: Vec<u64> = session.live_tickets().iter().map(|t| t.0).collect();
        assert_eq!(
            live_tickets,
            live.iter().copied().collect::<Vec<_>>(),
            "{label}: live tickets"
        );
        for &t in &live {
            assert!(session.is_live(DemandTicket(t)), "{label}: t{t} live");
        }
        for &t in &expired {
            assert!(!session.is_live(DemandTicket(t)), "{label}: t{t} expired");
        }
        let unknown = DemandTicket(tickets.iter().map(|t| t.0).max().unwrap_or(0) + 1);
        assert!(!session.is_live(unknown), "{label}: unissued ticket");

        // The new schedule, rebuilt from the engine's solution; demand ids
        // index the live tickets under the universe's dense relabel.
        let solution = dense_solution(&session).expect("stepped sessions solved");
        let (universe, _) = dense_universe(session.universe());
        let by_demand = session.live_tickets();
        let next: BTreeMap<u64, Placement> = solution
            .selected
            .iter()
            .map(|&d| {
                let inst = universe.instance(d);
                let placement = Placement {
                    network: inst.network,
                    start: inst.start,
                };
                (by_demand[inst.demand.index()].0, placement)
            })
            .collect();
        let listed = |entries: Vec<(&u64, &Placement)>| -> Vec<ScheduledDemand> {
            entries
                .into_iter()
                .map(|(&t, &placement)| ScheduledDemand {
                    ticket: DemandTicket(t),
                    placement,
                })
                .collect()
        };
        let admitted = listed(
            next.iter()
                .filter(|(t, _)| !model.contains_key(t))
                .collect(),
        );
        let reassigned = listed(
            next.iter()
                .filter(|(t, p)| model.get(t).is_some_and(|old| old != *p))
                .collect(),
        );
        let evicted: Vec<DemandTicket> = model
            .keys()
            .filter(|t| !next.contains_key(t) && live.contains(t))
            .map(|&t| DemandTicket(t))
            .collect();
        assert_eq!(delta.admitted, admitted, "{label}: admitted");
        assert_eq!(delta.reassigned, reassigned, "{label}: reassigned");
        assert_eq!(delta.evicted, evicted, "{label}: evicted");
        model = next;

        // The standing schedule and the published snapshot.
        let expected = listed(model.iter().collect());
        assert_eq!(session.schedule(), expected, "{label}: schedule()");
        let snapshot = reader.read();
        assert_eq!(snapshot.epoch(), session.epoch(), "{label}: published");
        assert!(snapshot.verify_fingerprint());
        assert_eq!(snapshot.schedule(), expected, "{label}: snapshot schedule");
        assert_eq!(snapshot.len(), model.len(), "{label}: snapshot len");
        for &t in live.iter().chain(&expired).chain([&unknown.0]) {
            assert_eq!(
                snapshot.placement(DemandTicket(t)),
                model.get(&t).copied(),
                "{label}: placement of t{t}"
            );
        }
    }
}

#[test]
fn line_bookkeeping_matches_a_btreemap_model() {
    let config = AlgorithmConfig::deterministic(0.1);
    for mode in [ResolveMode::Cold, ResolveMode::Warm] {
        // Mixed heights route the solve through the wide/narrow split.
        for (heights, churn) in [
            (HeightDistribution::Unit, 0.2),
            (
                HeightDistribution::Mixed {
                    wide_fraction: 0.4,
                    min_narrow: 0.1,
                },
                0.3,
            ),
        ] {
            let (problem, trace) = line_trace_with_heights(3, 40, 11, churn, heights);
            let session = ServiceSession::for_line(&problem, config).with_resolve_mode(mode);
            check_against_model(session, &trace, &format!("line {mode:?} {heights:?}"));
        }
    }
}

#[test]
fn tree_bookkeeping_matches_a_btreemap_model() {
    let config = AlgorithmConfig::deterministic(0.1);
    for mode in [ResolveMode::Cold, ResolveMode::Warm] {
        let (problem, trace) = tree_trace(
            3,
            30,
            23,
            0.3,
            HeightDistribution::Mixed {
                wide_fraction: 0.5,
                min_narrow: 0.1,
            },
        );
        let session = ServiceSession::for_tree(&problem, config).with_resolve_mode(mode);
        check_against_model(session, &trace, &format!("tree {mode:?}"));
    }
}

/// A batch expiring every live demand, with one duplicate late in it, is
/// rejected with the first error in batch order and leaves the session
/// unchanged.
#[test]
fn a_large_batch_with_one_duplicate_expiry_reports_the_first_error() {
    // 1500 disjoint single-instance demands: cheap to build, large batch.
    let mut problem = LineProblem::new(3000, 1);
    for i in 0..1500u32 {
        problem
            .add_demand(2 * i, 2 * i + 1, 2, 1.0, 1.0, vec![NetworkId::new(0)])
            .unwrap();
    }
    // Cold: validation runs before the solve, and the one step that
    // passes it leaves nothing live to solve.
    let mut session = ServiceSession::for_line(&problem, AlgorithmConfig::deterministic(0.1))
        .with_resolve_mode(ResolveMode::Cold);
    let tickets = session.live_tickets();
    assert_eq!(tickets.len(), 1500);
    let unknown = DemandTicket(u64::MAX);
    let duplicate = tickets[700];

    let mut batch: Vec<DemandEvent> = tickets.iter().map(|&t| DemandEvent::Expire(t)).collect();
    batch.insert(1200, DemandEvent::Expire(duplicate));
    batch.push(DemandEvent::Expire(unknown));
    assert_eq!(
        session.step(&batch),
        Err(ServiceError::DuplicateExpiry(duplicate))
    );

    // An unknown ticket ahead of the duplicate is reported instead.
    batch.insert(900, DemandEvent::Expire(unknown));
    assert_eq!(
        session.step(&batch),
        Err(ServiceError::UnknownTicket(unknown))
    );

    assert_eq!(session.epoch(), 0);
    assert_eq!(session.live_tickets(), tickets);
    // Without the duplicate and the unknown ticket the batch applies.
    let clean: Vec<DemandEvent> = tickets.iter().map(|&t| DemandEvent::Expire(t)).collect();
    let delta = session.step(&clean).expect("distinct live expiries");
    assert_eq!(delta.stats.expiries, 1500);
    assert_eq!(session.live_demands(), 0);
}

/// Rewrites the `live` entries of a snapshot document.
fn with_live_tickets(doc: &JsonValue, edit: impl FnOnce(&mut [JsonValue])) -> JsonValue {
    let mut doc = doc.clone();
    let JsonValue::Object(fields) = &mut doc else {
        panic!("snapshots are objects");
    };
    let Some(JsonValue::Array(live)) = fields.get_mut("live") else {
        panic!("snapshots carry a live array");
    };
    edit(live);
    doc
}

fn set_ticket(entry: &mut JsonValue, ticket: u64) {
    let JsonValue::Array(pair) = entry else {
        panic!("live entries are pairs");
    };
    pair[0] = JsonValue::u64_value(ticket);
}

#[test]
fn from_snapshot_rejects_live_tickets_out_of_ascending_order() {
    for mode in [ResolveMode::Cold, ResolveMode::Warm] {
        let (problem, trace) = line_trace_with_heights(2, 12, 3, 0.3, HeightDistribution::Unit);
        let mut session = ServiceSession::for_line(&problem, AlgorithmConfig::deterministic(0.1))
            .with_resolve_mode(mode);
        let mut tickets = session.live_tickets();
        session.step(&[]).unwrap();
        let batch = to_events(&trace.batches[0], &tickets);
        tickets.extend(session.step(&batch).unwrap().tickets);
        let doc = session.snapshot();
        assert!(ServiceSession::from_snapshot(&doc).is_ok());
        let live = session.live_tickets();
        assert!(live.len() >= 3);

        // Two entries swapped: distinct, but descending.
        let swapped = with_live_tickets(&doc, |entries| {
            set_ticket(&mut entries[0], live[1].0);
            set_ticket(&mut entries[1], live[0].0);
        });
        let err = ServiceSession::from_snapshot(&swapped).unwrap_err();
        assert!(err.contains("strictly ascending"), "{err}");

        // A repeated ticket is not strictly ascending either.
        let repeated = with_live_tickets(&doc, |entries| {
            set_ticket(&mut entries[1], live[0].0);
        });
        let err = ServiceSession::from_snapshot(&repeated).unwrap_err();
        assert!(err.contains("strictly ascending"), "{err}");

        // A live ticket at or past `next_ticket` would collide with arrivals.
        let last = live.len() - 1;
        let too_new = with_live_tickets(&doc, |entries| {
            set_ticket(&mut entries[last], u64::from(u32::MAX));
        });
        let err = ServiceSession::from_snapshot(&too_new).unwrap_err();
        assert!(err.contains("next_ticket"), "{err}");
    }
}

fn set_request(entry: &mut JsonValue, request: &DemandRequest) {
    let JsonValue::Array(pair) = entry else {
        panic!("live entries are pairs");
    };
    pair[1] = request.to_json();
}

#[test]
fn from_snapshot_rejects_requests_the_base_cannot_hold() {
    for mode in [ResolveMode::Cold, ResolveMode::Warm] {
        let config = AlgorithmConfig::deterministic(0.1);
        let line_request = |access: Vec<NetworkId>| DemandRequest::Line {
            release: 0,
            deadline: 5,
            processing: 2,
            profit: 1.0,
            height: 1.0,
            access,
        };

        // A line request in a tree snapshot.
        let (tree, _) = tree_trace(2, 12, 5, 0.3, HeightDistribution::Unit);
        let mut session = ServiceSession::for_tree(&tree, config).with_resolve_mode(mode);
        session.step(&[]).unwrap();
        let doc = session.snapshot();
        assert!(ServiceSession::from_snapshot(&doc).is_ok());
        let wrong_shape = with_live_tickets(&doc, |entries| {
            set_request(&mut entries[0], &line_request(vec![NetworkId::new(0)]));
        });
        assert!(ServiceSession::from_snapshot(&wrong_shape).is_err());

        // A request that accesses a network the base does not have.
        let (line, _) = line_trace_with_heights(2, 12, 3, 0.3, HeightDistribution::Unit);
        let mut session = ServiceSession::for_line(&line, config).with_resolve_mode(mode);
        session.step(&[]).unwrap();
        let doc = session.snapshot();
        assert!(ServiceSession::from_snapshot(&doc).is_ok());
        let no_such_network = with_live_tickets(&doc, |entries| {
            set_request(&mut entries[0], &line_request(vec![NetworkId::new(99)]));
        });
        assert!(ServiceSession::from_snapshot(&no_such_network).is_err());
    }
}

/// After every churn epoch, restoring a snapshot and snapshotting the
/// restored session renders the same document — split cores and warm
/// states included.
#[test]
fn snapshots_round_trip_through_from_snapshot_after_every_epoch() {
    let config = AlgorithmConfig::deterministic(0.1);
    let heights = HeightDistribution::Uniform { min: 0.1, max: 1.0 };
    let (line, line_churn) = line_trace_with_heights(3, 40, 17, 0.3, heights);
    let (tree, tree_churn) = tree_trace(3, 30, 29, 0.3, heights);
    for mode in [ResolveMode::Cold, ResolveMode::Warm] {
        for (session, trace, shape) in [
            (ServiceSession::for_line(&line, config), &line_churn, "line"),
            (ServiceSession::for_tree(&tree, config), &tree_churn, "tree"),
        ] {
            let mut session = session.with_resolve_mode(mode);
            let mut tickets = session.live_tickets();
            let mut split_epochs = 0;
            let batches = std::iter::once(&[][..]).chain(trace.batches.iter().map(Vec::as_slice));
            for (epoch, batch) in batches.enumerate() {
                let label = format!("{shape} {mode:?} epoch {epoch}");
                let events = to_events(batch, &tickets);
                tickets.extend(session.step(&events).unwrap().tickets);
                let doc = session.snapshot();
                if !matches!(doc.field("split").unwrap(), JsonValue::Null) {
                    split_epochs += 1;
                }
                let restored =
                    ServiceSession::from_snapshot(&doc).unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(
                    restored.snapshot().render(),
                    doc.render(),
                    "{label}: round trip"
                );
            }
            assert!(
                split_epochs > 0,
                "{shape} {mode:?}: the split was never built"
            );
        }
    }
}

/// `text` with a newline and indentation after every `{`, `[` and `,`,
/// before every `}` and `]`, and a space after every `:` outside string
/// values, close to the layout the indented renderer used to write.
fn with_whitespace(text: &str) -> String {
    let (mut out, mut in_string, mut escaped) = (String::new(), false, false);
    for c in text.chars() {
        if in_string {
            out.push(c);
            (in_string, escaped) = (escaped || c != '"', !escaped && c == '\\');
            continue;
        }
        match c {
            '}' | ']' => out.push('\n'),
            '"' => in_string = true,
            _ => {}
        }
        out.push(c);
        match c {
            '{' | '[' | ',' => out.push_str("\n  "),
            ':' => out.push(' '),
            _ => {}
        }
    }
    out
}

/// Snapshots and write-ahead records rendered with whitespace between
/// tokens (as files written before rendering became compact are) restore
/// to the same session and parse to the same batch.
#[test]
fn snapshots_and_wal_records_written_with_whitespace_still_load() {
    let config = AlgorithmConfig::deterministic(0.1);
    let heights = HeightDistribution::Uniform { min: 0.1, max: 1.0 };
    let (tree, churn) = tree_trace(3, 30, 29, 0.3, heights);
    let mut session = ServiceSession::for_tree(&tree, config).with_resolve_mode(ResolveMode::Warm);
    let mut tickets = session.live_tickets();
    let mut events = Vec::new();
    for batch in churn.batches.iter().take(4) {
        events = to_events(batch, &tickets);
        tickets.extend(session.step(&events).unwrap().tickets);
    }
    assert!(!events.is_empty(), "the last batch carries events");

    let compact = session.snapshot().render();
    assert!(
        !compact.contains('\n'),
        "a rendered snapshot has no newline"
    );
    let spaced = with_whitespace(&compact);
    assert!(spaced.len() > compact.len());
    let restored = ServiceSession::from_snapshot(&JsonValue::parse(&spaced).unwrap()).unwrap();
    assert_eq!(restored.snapshot().render(), compact);

    let record = with_whitespace(&wal_record(5, &events).render());
    assert_eq!(
        parse_wal_record(&JsonValue::parse(&record).unwrap()).unwrap(),
        WalRecord::Batch {
            epoch: 5,
            batch: events
        }
    );
}
