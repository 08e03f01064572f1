//! Allocation regression pin for the dynamic serving splice path.
//!
//! The million-demand scale push moved the per-shard hot structures to
//! arena-backed layouts with persistent reusable scratch; the contract is
//! that a **steady-state clean-shard epoch** — a splice whose delta leaves
//! every shard clean — performs **zero heap allocations** across all three
//! layers (`DemandInstanceUniverse::apply_demand_delta`,
//! `ShardedConflictGraph::apply_delta`, `WarmState::splice`) once the
//! session's scratch buffers have reached steady capacity — including
//! the observability hooks the serving path runs every epoch (disabled
//! spans, pre-resolved histogram/counter/gauge handles). This binary
//! installs a counting global allocator and pins that contract; a
//! regression (a stray `Vec::new` + `push`, a `collect`, a `mem::take`
//! realloc) fails the count assertion rather than silently re-introducing
//! allocator traffic at 10⁵–10⁶ live demands.
//!
//! The test lives alone in this binary: the allocator counter is global,
//! and a concurrently running sibling test would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use netsched_core::{run_two_phase_warm_on, AlgorithmConfig, Budget, RaiseRule, WarmState};
use netsched_decomp::InstanceLayering;
use netsched_distrib::ShardedConflictGraph;
use netsched_graph::{ArrivingDemand, DemandId, EdgePath, NetworkId, UniverseDelta};
use netsched_workloads::many_networks_line;
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

#[test]
fn steady_state_clean_shard_splice_epochs_are_allocation_free() {
    let base = many_networks_line(8, 240, 42);
    let timeslots = base.timeslots;
    let problem = base.build().unwrap();
    let mut universe = problem.universe();
    let mut conflict = ShardedConflictGraph::build(&universe);
    let mut warm = WarmState::new(&universe, RaiseRule::Unit);
    let mut delta = UniverseDelta::new();
    let config = AlgorithmConfig::deterministic(0.1);

    // Prime: a solve populates the warm stack and raise records, churn
    // epochs push every layer's scratch to its steady capacity.
    let layering = InstanceLayering::line_length_classes(&universe);
    run_two_phase_warm_on(
        &universe,
        &conflict,
        &layering,
        RaiseRule::Unit,
        &config,
        &mut warm,
        &Budget::unlimited(),
    );
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..4 {
        let m = universe.num_demands();
        let mut expired = vec![
            DemandId::new(rng.gen_range(0..m)),
            DemandId::new(rng.gen_range(0..m)),
        ];
        expired.sort_unstable();
        expired.dedup();
        let start = rng.gen_range(0..timeslots - 6);
        let arrival = ArrivingDemand {
            profit: rng.gen_range(1.0..8.0),
            height: 1.0,
            instances: vec![(
                NetworkId::new(rng.gen_range(0..universe.num_networks())),
                EdgePath::interval(start as usize, start as usize + 4),
                Some(start),
            )],
        };
        universe.apply_demand_delta(&expired, &[arrival], &mut delta);
        conflict.apply_delta(&universe, &delta);
        warm.splice(&universe, &delta);
    }
    // Settle: clean epochs let every clear/resize reach its fixed point
    // before measurement starts.
    for _ in 0..2 {
        universe.apply_demand_delta(&[], &[], &mut delta);
        conflict.apply_delta(&universe, &delta);
        warm.splice(&universe, &delta);
    }

    // The serving path's observability hooks ride inside the same loop:
    // with tracing disabled, a span is one relaxed atomic load and the
    // pre-resolved metric handles are pure atomics — none of it may touch
    // the heap either. Handles are resolved (and the registry's interior
    // maps populated) before measurement starts, mirroring how
    // `ServiceSession` pre-resolves its `SessionMetrics` at assembly.
    netsched_obs::set_tracing(false);
    let obs = netsched_obs::ObsRegistry::default();
    let step_hist = obs.histogram("epoch.step_ns");
    let epoch_counter = obs.counter("epoch.count");
    let depth_gauge = obs.gauge("service.queue_depth");

    let live_before = universe.num_instances();
    let cross_before = conflict.cross_assembly_count();
    let before = allocations();
    for i in 0..8 {
        let _epoch_span = netsched_obs::span!("epoch.step");
        universe.apply_demand_delta(&[], &[], &mut delta);
        conflict.apply_delta(&universe, &delta);
        warm.splice(&universe, &delta);
        step_hist.record(1 + i as u64);
        epoch_counter.inc();
        depth_gauge.set(i);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state clean-shard splice epochs (with disabled-mode obs \
         hooks) must not touch the heap ({} allocations over 8 epochs)",
        after - before
    );
    // The epochs were real splices, not no-ops short-circuited upstream.
    assert_eq!(universe.num_instances(), live_before);
    assert_eq!(
        conflict.cross_assembly_count(),
        cross_before,
        "clean-shard epochs must splice, never re-assemble, the cross CSR"
    );
}
