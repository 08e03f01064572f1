//! Cost pin for panic isolation: on the happy path,
//! `ServiceSession::step_with_deadline` keeps only O(batch) data (the
//! ticket counter and clones of the batch's expiring demands), so it must
//! make no more than a small constant more heap allocations than a plain
//! `step` on an identical twin with an identical batch — at 10⁴ live
//! demands, where any per-call serialization of the session would add
//! at least one allocation per live demand.
//!
//! The test lives alone in this binary: the allocator counter is global,
//! and a concurrently running sibling test would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use netsched_core::{AlgorithmConfig, Budget};
use netsched_graph::{LineProblem, NetworkId};
use netsched_service::{DemandEvent, DemandRequest, ResolveMode, ServiceSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts every allocation (fresh, zeroed and growth reallocs) forwarded
/// to the system allocator. Deallocations are free and not counted.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

const LIVE: usize = 10_000;
const NETWORKS: usize = 8;
const TIMESLOTS: usize = 4_000;

/// A line request with a single placement (no slack in its window), so
/// each demand is one instance and the solve stays cheap at 10⁴ demands.
fn request(rng: &mut StdRng) -> DemandRequest {
    let processing = rng.gen_range(1..9u32);
    let release = rng.gen_range(0..(TIMESLOTS as u32 - processing));
    DemandRequest::Line {
        release,
        deadline: release + processing - 1,
        processing,
        profit: rng.gen_range(1.0..16.0),
        height: 1.0,
        access: vec![NetworkId::new(rng.gen_range(0..NETWORKS))],
    }
}

#[test]
fn budgeted_steps_allocate_like_plain_steps() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut problem = LineProblem::new(TIMESLOTS, NETWORKS);
    for _ in 0..LIVE {
        let DemandRequest::Line {
            release,
            deadline,
            processing,
            profit,
            height,
            access,
        } = request(&mut rng)
        else {
            unreachable!("line requests only");
        };
        problem
            .add_demand(release, deadline, processing, profit, height, access)
            .unwrap();
    }
    let config = AlgorithmConfig::deterministic(0.1);
    let open = || ServiceSession::for_line(&problem, config).with_resolve_mode(ResolveMode::Cold);
    let mut plain = open();
    let mut guarded = open();
    plain.step(&[]).unwrap();
    guarded.step(&[]).unwrap();

    let tickets = plain.live_tickets();
    let expiries = 4;
    let mut batch: Vec<DemandEvent> = (0..expiries)
        .map(|i| DemandEvent::Expire(tickets[i * LIVE / expiries]))
        .collect();
    batch.extend((0..4).map(|_| DemandEvent::Arrive(request(&mut rng))));

    let before = allocations();
    let plain_delta = plain.step(&batch).unwrap();
    let plain_allocs = allocations() - before;
    let before = allocations();
    let guarded_delta = guarded
        .step_with_deadline(&batch, &Budget::unlimited())
        .unwrap();
    let guarded_allocs = allocations() - before;

    // Same epoch, so the comparison is like for like.
    assert_eq!(plain_delta.admitted, guarded_delta.admitted);
    assert_eq!(plain_delta.profit, guarded_delta.profit);
    // The expected extra is one vector plus one request clone per expiry.
    let slack = 2 * expiries as u64 + 8;
    assert!(
        guarded_allocs <= plain_allocs + slack,
        "step_with_deadline made {guarded_allocs} allocations against {plain_allocs} \
         for a plain step at {LIVE} live demands (allowed slack {slack})"
    );
}
