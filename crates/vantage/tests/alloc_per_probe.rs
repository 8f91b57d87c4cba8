//! Counting-allocator guard on the probe loop: once a session is warm, a
//! run allocates per call and per worker — output buffers, threads, the
//! target list — and for the odd redirect seen for the first time, never
//! per probe. Before records became plain data every probe paid four
//! allocations or more (its identity string twice, the near-equal
//! candidate set twice) and every transfer a formatted serial. A *fresh*
//! session on a world measured before allocates the same way: the
//! near-equal sites and path geometry are the world's probe plan, not the
//! session's (before, a fresh session built them again, two allocations a
//! slot).
//!
//! The plan's own build is counted exactly: allocations and requested
//! bytes on a fresh Tiny world at one worker, pinned as literals. A plan
//! holds offsets, sites and paths; the near-equal candidate indices it
//! was built from are scratch, reused slot to slot (when the plan kept
//! them beside a site-and-path leg, the build made 35 allocations of
//! 269 492 bytes). A change that moves either count restates its literal
//! and says why.
//!
//! Lives in its own test binary, its tests one at a time, so no sibling
//! test thread can allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vantage::{
    EngineSession, MeasurementConfig, MeasurementEngine, Round, Schedule, World, WorldBuildConfig,
};

/// System allocator with an allocation counter and the bytes each call
/// asked for (dealloc is free to run: only new/grown blocks indicate
/// per-probe allocation; a grown block counts its new size).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    REQUESTED.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Held for the whole of each test: the counter is process-wide, so the
/// tests of this binary take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A world and an engine config whose schedule tail has AXFR on, so every
/// probe has its transfer; returns the last six rounds.
fn tiny_tail() -> (World, MeasurementConfig, Vec<Round>) {
    let world = World::build(&WorldBuildConfig::tiny());
    let config = MeasurementConfig {
        schedule: Schedule::subsampled(400),
        ..Default::default()
    };
    let rounds: Vec<Round> = config.schedule.rounds().collect();
    let tail = rounds[rounds.len() - 6..].to_vec();
    (world, config, tail)
}

/// Run `timed` through `session`, counting allocations, and check them
/// against the per-call bound.
fn assert_allocates_per_call(
    engine: &MeasurementEngine,
    session: &mut EngineSession,
    timed: &[Round],
    expected_probes: usize,
) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let sink = engine.run_rounds_session(session, timed, 3);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let probes = sink.probes.len() as u64;
    assert_eq!(probes, expected_probes as u64);
    assert!(probes > 5_000 && sink.transfers.len() as u64 > probes * 9 / 10);
    assert!(
        allocations <= 64 + probes / 100,
        "{allocations} allocations for {probes} probes"
    );
}

#[test]
fn a_warm_session_allocates_per_call_not_per_probe() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (world, config, tail) = tiny_tail();
    let (warm_up, timed) = tail.split_at(3);
    let engine = MeasurementEngine::new(&world, config);
    let mut session = EngineSession::new();
    let warm = engine.run_rounds_session(&mut session, warm_up, 3);
    assert_allocates_per_call(&engine, &mut session, timed, warm.probes.len());
}

#[test]
fn a_fresh_session_on_a_measured_world_allocates_per_call_not_per_slot() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (world, config, tail) = tiny_tail();
    let (first, timed) = tail.split_at(3);
    let engine = MeasurementEngine::new(&world, config);
    let measured = engine.run_rounds_parallel(first, 3);
    assert_allocates_per_call(
        &engine,
        &mut EngineSession::new(),
        timed,
        measured.probes.len(),
    );
}

/// Allocations and requested bytes of one measurement through a fresh
/// session over `rounds` on one worker.
fn fresh_session_work(engine: &MeasurementEngine, rounds: &[Round]) -> (u64, u64) {
    let (allocations, requested) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        REQUESTED.load(Ordering::Relaxed),
    );
    let sink = engine.run_rounds_session(&mut EngineSession::new(), rounds, 1);
    let work = (
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        REQUESTED.load(Ordering::Relaxed) - requested,
    );
    assert!(sink.probes.len() > 5_000);
    work
}

/// What building the probe plan of a fresh Tiny world on one worker
/// allocates: every VP, letter and family, at the default slack.
const PLAN_BUILD_ALLOCATIONS: u64 = 36;
const PLAN_BUILD_BYTES: u64 = 171_268;

#[test]
fn a_plan_build_allocates_its_pinned_count_and_bytes() {
    // The first measurement of a world builds its plan; a later fresh
    // session over the same rounds does the same work without it.
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (world, config, tail) = tiny_tail();
    let rounds = &tail[..3];
    let engine = MeasurementEngine::new(&world, config);
    let (first, later) = (
        fresh_session_work(&engine, rounds),
        fresh_session_work(&engine, rounds),
    );
    let build = (first.0 - later.0, first.1 - later.1);
    assert_eq!(build, (PLAN_BUILD_ALLOCATIONS, PLAN_BUILD_BYTES));
}
