//! A discrete-event virtual clock for the whole workspace.
//!
//! Before this crate, four subsystems each kept a private notion of time:
//! `rootd::FaultyTransport` ticked its own `clock_ms` once per exchange,
//! `localroot` refresh backoff only *counted* milliseconds it never slept,
//! scenario epochs lived on wall-clock seconds, and the load generator
//! used host `Instant`s. None of them could see each other's time passing
//! — a refresh client could not wait out a blackhole window because its
//! waits advanced nothing the fault plan could read.
//!
//! This crate provides the one timeline they now share:
//!
//! * [`ClockHandle`] — a cheaply cloneable handle onto a single monotonic
//!   virtual-millisecond counter. Blocking-style clients (the refresh
//!   loop) advance it by [`sleep`](ClockHandle::sleep)ing through
//!   backoffs and timeouts; fault decisions read it to evaluate time
//!   windows.
//! * [`Scheduler`] — an ordered queue of typed events: they come out in
//!   `(time, key, registration order)` order, so equal deadlines break
//!   ties stably and the same events replay in the same order bit for
//!   bit. The caller owns the loop and the state the events act on
//!   (`rootd::run_control_plane` is one `while let` over it).
//! * [`TimeAxis`] — the mapping between scenario wall-clock seconds and
//!   virtual milliseconds, so `ScenarioEngine` epochs, the scenario's
//!   projected fault, failure and attack windows, and refresh timestamps
//!   all land on the same axis.
//!
//! Ownership rule (DESIGN §12): exactly one component *advances* a clock
//! — the refresh loop, through its backoffs and timeouts; everyone else
//! holds a read-mostly handle. Parallel workers never advance a shared
//! clock — they stamp each unit of work with a precomputed event time
//! instead (see `rootd`'s `ArrivalSchedule`, which the farm's chaos runs
//! and the attack engine stamp every query with), which is what keeps
//! replay bit-identical across thread and shard counts.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// A shared handle onto one monotonic virtual clock (milliseconds).
///
/// Clones observe the same timeline. All operations are monotone: the
/// clock never moves backwards.
#[derive(Debug, Clone, Default)]
pub struct ClockHandle {
    now_ms: Arc<AtomicU64>,
}

impl ClockHandle {
    /// A fresh clock at t = 0 ms.
    pub fn new() -> ClockHandle {
        ClockHandle::default()
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms.load(AtomicOrdering::Acquire)
    }

    /// Advance the clock by `ms` and return the new time.
    pub fn advance(&self, ms: u64) -> u64 {
        self.now_ms.fetch_add(ms, AtomicOrdering::AcqRel) + ms
    }

    /// Advance the clock to at least `t` (no-op if already past) and
    /// return the resulting time.
    pub fn advance_to(&self, t: u64) -> u64 {
        self.now_ms.fetch_max(t, AtomicOrdering::AcqRel).max(t)
    }

    /// A blocking client's wait: virtual time passes, nothing sleeps.
    /// Returns the time after the wait.
    pub fn sleep(&self, ms: u64) -> u64 {
        self.advance(ms)
    }
}

/// The mapping between wall-clock seconds (scenario events, refresh
/// timestamps, SOA ages) and virtual milliseconds (fault windows, delays,
/// backoffs): `wall = base_s + virtual_ms / 1000`.
///
/// Anchor it at a scenario's schedule start so event windows and clock
/// reads agree on what "now" means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeAxis {
    /// The wall-clock second that virtual t = 0 ms corresponds to.
    pub base_s: u32,
}

impl TimeAxis {
    /// An axis whose virtual origin is wall-clock second `base_s`.
    pub fn anchored_at(base_s: u32) -> TimeAxis {
        TimeAxis { base_s }
    }

    /// Project a wall-clock second onto the axis. Seconds before the
    /// anchor saturate to 0 (the axis does not extend into the past).
    pub fn wall_to_ms(&self, s: u32) -> u64 {
        u64::from(s.saturating_sub(self.base_s)) * 1_000
    }

    /// The wall-clock second a virtual time falls in.
    pub fn ms_to_wall(&self, ms: u64) -> u32 {
        self.base_s
            .saturating_add(u32::try_from(ms / 1_000).unwrap_or(u32::MAX))
    }

    /// The wall second the clock currently points at.
    pub fn now_wall(&self, clock: &ClockHandle) -> u32 {
        self.ms_to_wall(clock.now_ms())
    }
}

struct Entry<E> {
    order: (u64, u64, u64),
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    // BinaryHeap pops the maximum; reverse so the earliest (time, key,
    // seq) triple pops first — the stable tie-break the determinism
    // suite pins.
    fn cmp(&self, other: &Self) -> Ordering {
        other.order.cmp(&self.order)
    }
}

/// A discrete-event queue of typed events `E`.
///
/// Events come out in `(time, key, registration order)` order: same-time
/// events in key order no matter which thread produced or registered
/// them — the property that makes event order independent of worker
/// count — and events sharing both time and key in the order they were
/// registered.
pub struct Scheduler<E> {
    queue: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler {
            queue: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<E> Scheduler<E> {
    /// An empty queue.
    pub fn new() -> Scheduler<E> {
        Scheduler::default()
    }

    /// Schedule `event` at virtual time `t` ms with tie-break `key`.
    pub fn schedule_keyed(&mut self, t: u64, key: u64, event: E) {
        let order = (t, key, self.next_seq);
        self.next_seq += 1;
        self.queue.push(Entry { order, event });
    }

    /// Take the earliest event and its time, `None` once the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.queue.pop().map(|e| (e.order.0, e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_and_shared() {
        let a = ClockHandle::new();
        let b = a.clone();
        assert_eq!(a.advance(100), 100);
        assert_eq!(b.now_ms(), 100);
        assert_eq!(b.advance_to(50), 100, "advance_to never rewinds");
        assert_eq!(b.advance_to(250), 250);
        assert_eq!(a.now_ms(), 250);
        assert_eq!(ClockHandle::new().now_ms(), 0, "a new clock is its own");
    }

    #[test]
    fn axis_round_trips_and_saturates() {
        let axis = TimeAxis::anchored_at(1_000);
        assert_eq!(axis.wall_to_ms(1_000), 0);
        assert_eq!(axis.wall_to_ms(1_007), 7_000);
        assert_eq!(axis.wall_to_ms(500), 0, "pre-anchor saturates");
        assert_eq!(axis.ms_to_wall(7_999), 1_007);
        let clock = ClockHandle::new();
        clock.sleep(12_345);
        assert_eq!(axis.now_wall(&clock), 1_012);
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut s = Scheduler::new();
        for (t, name) in [(300u64, "c"), (100, "a"), (200, "b")] {
            s.schedule_keyed(t, 0, name);
        }
        let fired: Vec<(u64, &str)> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(fired, [(100, "a"), (200, "b"), (300, "c")]);
    }

    #[test]
    fn popped_events_can_schedule_more() {
        // A tick that reschedules itself every 100 ms until 500 ms, the
        // shape of the control plane's watchdog.
        let mut s = Scheduler::new();
        s.schedule_keyed(0, 0, ());
        let mut fired = Vec::new();
        while let Some((t, ())) = s.pop() {
            fired.push(t);
            if t < 500 {
                s.schedule_keyed(t + 100, 0, ());
            }
        }
        assert_eq!(fired, [0, 100, 200, 300, 400, 500]);
    }
}
