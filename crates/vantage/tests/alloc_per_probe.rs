//! Counting-allocator guard on the probe loop: once a session is warm, a
//! run allocates per call and per worker — output buffers, threads, the
//! target list — and for the odd base RTT seen for the first time, never
//! per probe. Before records became plain data every probe paid four
//! allocations or more (its identity string twice, the near-equal
//! candidate set twice) and every transfer a formatted serial.
//!
//! Lives in its own test binary so no sibling test thread can allocate
//! concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vantage::{
    EngineSession, MeasurementConfig, MeasurementEngine, Round, Schedule, World, WorldBuildConfig,
};

/// System allocator with an allocation counter (dealloc is free to run:
/// only new/grown blocks indicate per-probe allocation).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_warm_session_allocates_per_call_not_per_probe() {
    let world = World::build(&WorldBuildConfig::tiny());
    let config = MeasurementConfig {
        schedule: Schedule::subsampled(400),
        ..Default::default()
    };
    let rounds: Vec<Round> = config.schedule.rounds().collect();
    // The schedule's tail: AXFR is on, so every probe has its transfer.
    let (warm_up, timed) = rounds[rounds.len() - 6..].split_at(3);
    let engine = MeasurementEngine::new(&world, config);
    let mut session = EngineSession::new();
    let warm = engine.run_rounds_session(&mut session, warm_up, 3);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let sink = engine.run_rounds_session(&mut session, timed, 3);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let probes = sink.probes.len() as u64;
    assert_eq!(probes, warm.probes.len() as u64);
    assert!(probes > 5_000 && sink.transfers.len() as u64 > probes * 9 / 10);
    assert!(
        allocations <= 64 + probes / 100,
        "{allocations} allocations for {probes} probes"
    );
}
