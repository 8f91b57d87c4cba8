//! Determinism suite for the discrete-event queue: the same seed must
//! produce the identical event order across runs *and* across the number
//! of worker threads that produced the events, and equal deadlines must
//! break ties stably.

use netsim::rng::SimRng;
use proptest::prelude::*;
use simclock::Scheduler;
use std::sync::mpsc;
use std::thread;

/// The event set one "workload" generates: (time, key) pairs derived
/// from the seed, the same regardless of who computes them. The key
/// doubles as the event's identity.
fn workload(seed: u64, events: u64) -> Vec<(u64, u64)> {
    (0..events)
        .map(|i| {
            let mut rng = SimRng::new(seed).derive_ids(&[0xe7e7, i]);
            // Coarse times force plenty of equal-deadline collisions.
            (rng.next_range(16) as u64 * 100, i)
        })
        .collect()
}

/// Drain the queue: `(time, event)` in firing order.
fn drain<E>(mut s: Scheduler<E>) -> Vec<(u64, E)> {
    std::iter::from_fn(|| s.pop()).collect()
}

/// Register `events` from `workers` threads (arrival order is whatever
/// the OS scheduler makes of it), then drain the queue.
fn run_with_workers(seed: u64, events: u64, workers: usize) -> Vec<(u64, u64)> {
    let (tx, rx) = mpsc::channel();
    thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                for ev in workload(seed, events).into_iter().skip(w).step_by(workers) {
                    tx.send(ev).unwrap();
                }
            });
        }
        drop(tx);
        let mut s = Scheduler::new();
        // Registration order is racy across workers; the explicit key
        // makes the firing order a pure function of the workload.
        for (t, key) in rx {
            s.schedule_keyed(t, key, key);
        }
        drain(s)
    })
}

#[test]
fn same_seed_same_event_order_across_runs() {
    let a = run_with_workers(42, 200, 1);
    let b = run_with_workers(42, 200, 1);
    assert_eq!(a, b);
    assert_ne!(a, run_with_workers(43, 200, 1), "seed must matter");
}

#[test]
fn event_order_is_independent_of_worker_count() {
    let one = run_with_workers(7, 300, 1);
    for workers in [2, 4, 8] {
        assert_eq!(
            one,
            run_with_workers(7, 300, workers),
            "order diverged at {workers} workers"
        );
    }
}

#[test]
fn keyed_ties_fire_in_key_order_not_registration_order() {
    let mut s = Scheduler::new();
    for key in [3u64, 1, 2, 0] {
        s.schedule_keyed(500, key, key);
    }
    let keys: Vec<u64> = drain(s).into_iter().map(|(_, k)| k).collect();
    assert_eq!(keys, [0, 1, 2, 3]);
}

proptest! {
    /// Concurrent timers with equal deadlines and equal keys fire in
    /// stable registered order: however many timers collide on however
    /// few deadlines, the drained order sorts by (time, registration
    /// index) — and replays identically.
    #[test]
    fn equal_deadlines_fire_in_registered_order(
        times in proptest::collection::vec(0u64..8, 1..64),
    ) {
        let run = || {
            let mut s = Scheduler::new();
            for (i, &t) in times.iter().enumerate() {
                s.schedule_keyed(t * 50, 0, i);
            }
            drain(s)
        };
        let fired = run();
        prop_assert_eq!(&fired, &run());
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t * 50, i)).collect();
        expected.sort();
        prop_assert_eq!(fired, expected);
    }
}
