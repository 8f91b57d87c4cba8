//! Counting-allocator bound on what one serving epoch holds: the zone
//! index and the zone-only answer cache a push builds
//! (`ZoneIndex::build`, then `SharedState::build`) are a fixed handful of
//! flat allocations whatever the zone's size, and the push that displaces
//! them frees that handful and nothing more. A validated push of the same
//! zone (`SharedState::try_reload`) — which writes the zone in canonical
//! form and builds a root-sized cache in two halves, a worker's image
//! appended to the caller's — leaves exactly the blocks and the bytes the
//! first build held: nothing a worker or the validation made outlives it.
//!
//! Lives in its own test binary with one test, so no sibling test thread
//! can allocate concurrently and pollute the counters.

use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
use dns_zone::signer::ZoneKeys;
use rootd::{SharedState, ZoneIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator counting live blocks, frees and live bytes. A
/// `realloc` is the trait's default: an allocation, a copy and a free.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Blocks allocated and not yet freed.
fn live() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed) - FREES.load(Ordering::Relaxed)
}

/// Bytes allocated and not yet freed.
fn live_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed) - FREED_BYTES.load(Ordering::Relaxed)
}

/// The most allocations one epoch may hold: a few dozen, at any zone size.
const EPOCH_BOUND: u64 = 64;

#[test]
fn an_epoch_holds_and_frees_a_few_dozen_allocations() {
    for tld_count in [8, 1_500] {
        let cfg = RootZoneConfig {
            tld_count,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        };
        let zone = Arc::new(build_root_zone(&cfg, &ZoneKeys::from_seed(7)));

        let (before, bytes_before) = (live(), live_bytes());
        let index = Arc::new(ZoneIndex::build(Arc::clone(&zone)));
        let epoch = SharedState::build(index);
        let held = live() - before;
        assert!(
            held <= EPOCH_BOUND,
            "{tld_count} TLDs: the epoch holds {held} allocations"
        );
        let held_bytes = live_bytes() - bytes_before;

        // The same zone pushed again, validated: the next epoch displaces
        // this one, and the process holds what it held — block for block,
        // byte for byte.
        let generation =
            (epoch.try_reload(Arc::clone(&zone), cfg.inception + 3_600)).expect("a valid zone");
        assert_eq!(generation, 1);
        assert_eq!(
            (live() - before, live_bytes() - bytes_before),
            (held, held_bytes),
            "{tld_count} TLDs: a validated push changed what the epoch holds"
        );

        let frees = FREES.load(Ordering::Relaxed);
        drop(epoch);
        let freed = FREES.load(Ordering::Relaxed) - frees;
        assert!(
            freed <= EPOCH_BOUND,
            "{tld_count} TLDs: dropping the epoch frees {freed} allocations"
        );
        assert_eq!(
            (live(), live_bytes()),
            (before, bytes_before),
            "{tld_count} TLDs: the drop left blocks behind"
        );
    }
}
