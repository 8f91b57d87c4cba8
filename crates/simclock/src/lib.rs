//! A seeded discrete-event virtual clock for the whole workspace.
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
//! * [`Scheduler`] — a seeded discrete-event queue over a `ClockHandle`:
//!   events fire in `(time, key, registration order)` order, so equal
//!   deadlines break ties stably, and the same seed replays the same
//!   event order bit for bit. [`run_until_idle`](Scheduler::run_until_idle)
//!   and [`run_until`](Scheduler::run_until) drive it.
//! * [`TimeAxis`] — the mapping between scenario wall-clock seconds and
//!   virtual milliseconds, so `ScenarioEngine` epochs, the scenario's
//!   projected fault, failure and attack windows, and refresh timestamps
//!   all land on the same axis.
//! * [`Deadline`] — a timeout primitive against the shared clock.
//!
//! Ownership rule (DESIGN §12): exactly one component *advances* the
//! clock at a time — either a `Scheduler` run loop or one blocking client
//! executing inside it; everyone else holds a read-mostly handle.
//! Parallel workers never advance a shared clock — they stamp each unit
//! of work with a precomputed event time instead (see `rootd`'s
//! `ArrivalSchedule`, which the farm's chaos runs and the attack engine
//! stamp every query with), which is what keeps replay bit-identical
//! across thread and shard counts.

use netsim::rng::SimRng;
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

    /// A clock already advanced to `ms`.
    pub fn at(ms: u64) -> ClockHandle {
        let c = ClockHandle::new();
        c.advance_to(ms);
        c
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

    /// Whether two handles observe the same underlying clock.
    pub fn same_clock(&self, other: &ClockHandle) -> bool {
        Arc::ptr_eq(&self.now_ms, &other.now_ms)
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

/// A timeout primitive against the shared clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// Absolute virtual time the deadline expires at.
    pub at_ms: u64,
}

impl Deadline {
    /// A deadline `ms` from the clock's current time.
    pub fn after(clock: &ClockHandle, ms: u64) -> Deadline {
        Deadline {
            at_ms: clock.now_ms().saturating_add(ms),
        }
    }

    /// Whether the clock has reached the deadline.
    pub fn expired(&self, clock: &ClockHandle) -> bool {
        clock.now_ms() >= self.at_ms
    }

    /// Milliseconds left before expiry (0 once expired).
    pub fn remaining_ms(&self, clock: &ClockHandle) -> u64 {
        self.at_ms.saturating_sub(clock.now_ms())
    }
}

/// An event closure; it may schedule further events.
pub type EventFn = Box<dyn FnOnce(&mut Scheduler)>;

struct Entry {
    time: u64,
    key: u64,
    seq: u64,
    label: String,
    f: EventFn,
}

impl Entry {
    fn order_key(&self) -> (u64, u64, u64) {
        (self.time, self.key, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.order_key() == other.order_key()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    // BinaryHeap pops the maximum; reverse so the earliest (time, key,
    // seq) triple pops first — the stable tie-break the determinism
    // suite pins.
    fn cmp(&self, other: &Self) -> Ordering {
        other.order_key().cmp(&self.order_key())
    }
}

/// A seeded discrete-event scheduler over one [`ClockHandle`].
///
/// Events fire in `(time, key, registration order)` order. Unkeyed
/// events use their registration sequence number as key, so equal
/// deadlines fire in the order they were registered; explicitly keyed
/// events ([`schedule_keyed`](Scheduler::schedule_keyed)) fire in key
/// order regardless of which thread produced or registered them — the
/// property that makes event order independent of worker count.
pub struct Scheduler {
    seed: u64,
    clock: ClockHandle,
    queue: BinaryHeap<Entry>,
    next_seq: u64,
    trace: Vec<(u64, String)>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("seed", &self.seed)
            .field("now_ms", &self.clock.now_ms())
            .field("pending", &self.queue.len())
            .field("fired", &self.trace.len())
            .finish()
    }
}

impl Scheduler {
    /// A fresh scheduler with its own clock at t = 0.
    pub fn new(seed: u64) -> Scheduler {
        Scheduler::on_clock(seed, ClockHandle::new())
    }

    /// A scheduler driving an existing clock (shared with transports,
    /// refresh clients, fault plans).
    pub fn on_clock(seed: u64, clock: ClockHandle) -> Scheduler {
        Scheduler {
            seed,
            clock,
            queue: BinaryHeap::new(),
            next_seq: 0,
            trace: Vec::new(),
        }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A handle onto the scheduler's clock.
    pub fn clock(&self) -> ClockHandle {
        self.clock.clone()
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Number of events waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// A deterministic RNG stream derived from the scheduler seed and
    /// `ids` (same discipline as every other seeded component).
    pub fn rng(&self, ids: &[u64]) -> SimRng {
        SimRng::new(self.seed).derive_ids(ids)
    }

    /// Schedule `f` at absolute virtual time `t` ms. Events sharing a
    /// deadline fire in registration order.
    pub fn schedule_at(&mut self, t: u64, label: &str, f: impl FnOnce(&mut Scheduler) + 'static) {
        let seq = self.next_seq;
        self.push(t, seq, label, Box::new(f));
    }

    /// Schedule `f` at `t` with an explicit tie-break `key`: same-time
    /// events fire in key order no matter the registration order. Use
    /// this when events are produced concurrently — the key (not thread
    /// scheduling) decides the firing order.
    pub fn schedule_keyed(
        &mut self,
        t: u64,
        key: u64,
        label: &str,
        f: impl FnOnce(&mut Scheduler) + 'static,
    ) {
        self.push(t, key, label, Box::new(f));
    }

    /// Schedule `f` `dt` ms from the clock's current time.
    pub fn schedule_in(&mut self, dt: u64, label: &str, f: impl FnOnce(&mut Scheduler) + 'static) {
        self.schedule_at(self.clock.now_ms().saturating_add(dt), label, f);
    }

    fn push(&mut self, time: u64, key: u64, label: &str, f: EventFn) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Entry {
            time,
            key,
            seq,
            label: label.to_string(),
            f,
        });
    }

    fn fire(&mut self, e: Entry) {
        // An event may fire "late": a blocking client inside an earlier
        // event can have slept the clock past this deadline. Time still
        // only moves forward.
        self.clock.advance_to(e.time);
        self.trace.push((self.clock.now_ms(), e.label));
        (e.f)(self);
    }

    /// Run until the queue is empty. Returns the number of events fired.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut fired = 0;
        while let Some(e) = self.queue.pop() {
            self.fire(e);
            fired += 1;
        }
        fired
    }

    /// Run every event due at or before `t`, then advance the clock to
    /// (at least) `t`. Returns the number of events fired.
    pub fn run_until(&mut self, t: u64) -> u64 {
        let mut fired = 0;
        while self.queue.peek().is_some_and(|e| e.time <= t) {
            let e = self.queue.pop().expect("peeked entry exists");
            self.fire(e);
            fired += 1;
        }
        self.clock.advance_to(t);
        fired
    }

    /// The fired-event log: `(fire time ms, label)` in execution order —
    /// what the determinism suite compares across runs and worker counts.
    pub fn trace(&self) -> &[(u64, String)] {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn clock_is_monotone_and_shared() {
        let a = ClockHandle::new();
        let b = a.clone();
        assert!(a.same_clock(&b));
        assert_eq!(a.advance(100), 100);
        assert_eq!(b.now_ms(), 100);
        assert_eq!(b.advance_to(50), 100, "advance_to never rewinds");
        assert_eq!(b.advance_to(250), 250);
        assert_eq!(a.now_ms(), 250);
        assert!(!a.same_clock(&ClockHandle::new()));
    }

    #[test]
    fn axis_round_trips_and_saturates() {
        let axis = TimeAxis::anchored_at(1_000);
        assert_eq!(axis.wall_to_ms(1_000), 0);
        assert_eq!(axis.wall_to_ms(1_007), 7_000);
        assert_eq!(axis.wall_to_ms(500), 0, "pre-anchor saturates");
        assert_eq!(axis.ms_to_wall(7_999), 1_007);
        let clock = ClockHandle::at(12_345);
        assert_eq!(axis.now_wall(&clock), 1_012);
    }

    #[test]
    fn deadline_expires_with_the_clock() {
        let clock = ClockHandle::new();
        let d = Deadline::after(&clock, 500);
        assert!(!d.expired(&clock));
        assert_eq!(d.remaining_ms(&clock), 500);
        clock.sleep(499);
        assert!(!d.expired(&clock));
        clock.sleep(1);
        assert!(d.expired(&clock));
        assert_eq!(d.remaining_ms(&clock), 0);
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut s = Scheduler::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (t, name) in [(300u64, "c"), (100, "a"), (200, "b")] {
            let log = Rc::clone(&log);
            s.schedule_at(t, name, move |s| log.borrow_mut().push((s.now_ms(), name)));
        }
        assert_eq!(s.run_until_idle(), 3);
        assert_eq!(*log.borrow(), vec![(100, "a"), (200, "b"), (300, "c")]);
        assert_eq!(s.now_ms(), 300);
    }

    #[test]
    fn events_can_reschedule_and_run_until_respects_the_bound() {
        let mut s = Scheduler::new(2);
        let count = Rc::new(RefCell::new(0u32));
        fn tick(s: &mut Scheduler, count: Rc<RefCell<u32>>) {
            *count.borrow_mut() += 1;
            let next = Rc::clone(&count);
            s.schedule_in(100, "tick", move |s| tick(s, next));
        }
        let c0 = Rc::clone(&count);
        s.schedule_at(0, "tick", move |s| tick(s, c0));
        // Events at 0, 100, ..., 500 fire; the one rescheduled for 600
        // stays queued.
        assert_eq!(s.run_until(500), 6);
        assert_eq!(*count.borrow(), 6);
        assert_eq!(s.now_ms(), 500);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn run_until_advances_clock_even_with_no_events() {
        let mut s = Scheduler::new(3);
        assert_eq!(s.run_until(1_234), 0);
        assert_eq!(s.now_ms(), 1_234);
    }

    #[test]
    fn a_blocking_client_inside_an_event_drags_time_forward() {
        // An event whose handler sleeps (a refresh cycle backing off)
        // moves the shared clock; a later event scheduled "earlier" than
        // the sleep's end still fires, at the dragged time.
        let mut s = Scheduler::new(4);
        let clock = s.clock();
        s.schedule_at(100, "sleeper", move |_| {
            clock.sleep(5_000);
        });
        s.schedule_at(200, "after", |_| {});
        s.run_until_idle();
        assert_eq!(
            s.trace(),
            &[(100, "sleeper".into()), (5_100, "after".into())]
        );
    }

    #[test]
    fn rng_streams_derive_from_the_seed() {
        let s = Scheduler::new(0xfeed);
        let a: Vec<u64> = (0..4).map(|i| s.rng(&[7, i]).next_u64()).collect();
        let b: Vec<u64> = (0..4)
            .map(|i| Scheduler::new(0xfeed).rng(&[7, i]).next_u64())
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], s.rng(&[8, 0]).next_u64());
    }
}
