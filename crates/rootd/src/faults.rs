//! Deterministic fault injection between a client and a [`Transport`].
//!
//! The paper's RQ3 (§7) argues that parties ingesting the root zone must
//! "implement appropriate fallback mechanisms such as rescheduling a zone
//! transfer from a different root server" to survive bitflips and stale
//! copies. That fallback logic is only trustworthy if it is exercised
//! against the failures it exists for — so this module grows a seeded
//! chaos layer: [`FaultyTransport`] decorates any [`Transport`] and
//! injects datagram loss, duplication, reordering, fixed+jittered delay,
//! payload bitflips, mid-stream AXFR truncation, blackhole windows, and
//! garbage responses, all scheduled per upstream and per protocol by a
//! [`FaultPlan`].
//!
//! Every decision is derived from [`SimRng`] keyed on
//! `(plan seed, upstream id, protocol, exchange number)`, so a fault mix
//! replays bit-identically across runs. Per-fault counters mirror the
//! answer-cache hit/miss discipline: same plan seed ⇒ same
//! [`FaultCounters`], every run. The transport models one client's seat
//! (the refresh client and its upstreams); a serving site going dark
//! under load is the farm's failure plan ([`crate::FailurePlan`]).
//!
//! A plan whose spec [`is_clean`](FaultSpec::is_clean) short-circuits to
//! the inner transport — byte-identical responses (asserted by
//! `tests/chaos_refresh.rs`) at a branch's worth of overhead (the
//! `rootd/serve_faultfree_wrapped` bench records it; cleanliness is
//! precomputed at construction so the fast path never touches the plan).
//!
//! ## Time
//!
//! Fault windows are defined on the [`simclock`] virtual-ms axis. Each
//! transport holds a [`ClockHandle`]; by default it is private, and
//! [`with_clock`](FaultyTransport::with_clock) shares one clock across
//! the transport and its client so that client waits (retry backoff,
//! timeout waits) move the same timeline the fault windows are declared
//! on. Exchanges bill outcome-based time: a blackholed or dropped
//! exchange costs the client timeout, a delayed response costs
//! `min(delay, timeout)`, a clean exchange costs nothing.

use crate::transport::{Transport, TransportError};
use netsim::rng::SimRng;
use simclock::ClockHandle;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Which wire protocol an exchange uses; fault schedules are per-protocol
/// (loss hits datagrams, truncation hits streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    Udp,
    Tcp,
}

impl Protocol {
    fn id(self) -> u64 {
        match self {
            Protocol::Udp => 0,
            Protocol::Tcp => 1,
        }
    }
}

/// The fault mix applied to one (upstream, protocol) pair.
///
/// Probabilities are per exchange; delays are virtual milliseconds on
/// the transport's shared [`ClockHandle`] (nothing sleeps — determinism
/// over realism).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Probability the request (or its response) is silently lost.
    pub drop_prob: f64,
    /// Probability the delivered datagram is queued again and re-delivered
    /// by a later reorder.
    pub dup_prob: f64,
    /// Probability a previously queued (late/duplicated) datagram is
    /// delivered *instead of* the current response, which arrives later.
    pub reorder_prob: f64,
    /// Fixed injected latency per exchange.
    pub delay_ms: u64,
    /// Upper bound of the uniform jitter added on top of `delay_ms`.
    pub delay_jitter_ms: u64,
    /// Probability one uniformly chosen bit of the response is flipped —
    /// the RQ3 integrity fault, on the wire instead of in server RAM.
    pub bitflip_prob: f64,
    /// Probability a TCP message stream (an AXFR) is cut off mid-record:
    /// a suffix of the frames is lost and the last surviving frame ends
    /// mid-message.
    pub truncate_stream_prob: f64,
    /// Probability the response payload is replaced by seeded random
    /// bytes of the same length.
    pub garbage_prob: f64,
    /// Virtual-clock windows `[start_ms, end_ms)` during which every
    /// exchange vanishes (an upstream that is unreachable for a while).
    pub blackholes: Vec<(u64, u64)>,
}

impl FaultSpec {
    /// No faults at all.
    pub fn clean() -> FaultSpec {
        FaultSpec {
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            delay_ms: 0,
            delay_jitter_ms: 0,
            bitflip_prob: 0.0,
            truncate_stream_prob: 0.0,
            garbage_prob: 0.0,
            blackholes: Vec::new(),
        }
    }

    /// Pure datagram loss at probability `p`.
    pub fn loss(p: f64) -> FaultSpec {
        FaultSpec {
            drop_prob: p,
            ..FaultSpec::clean()
        }
    }

    /// Bit corruption at probability `p`.
    pub fn bitflip(p: f64) -> FaultSpec {
        FaultSpec {
            bitflip_prob: p,
            ..FaultSpec::clean()
        }
    }

    /// An upstream that never answers (one blackhole window covering all
    /// of virtual time).
    pub fn blackhole() -> FaultSpec {
        FaultSpec {
            blackholes: vec![(0, u64::MAX)],
            ..FaultSpec::clean()
        }
    }

    /// Whether this spec can never perturb an exchange — the passthrough
    /// fast path (no RNG derivation, no draws).
    pub fn is_clean(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.reorder_prob == 0.0
            && self.delay_ms == 0
            && self.delay_jitter_ms == 0
            && self.bitflip_prob == 0.0
            && self.truncate_stream_prob == 0.0
            && self.garbage_prob == 0.0
            && self.blackholes.is_empty()
    }

    fn blackholed(&self, t_ms: u64) -> bool {
        self.blackholes.iter().any(|&(s, e)| t_ms >= s && t_ms < e)
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::clean()
    }
}

/// A seeded, per-upstream, per-protocol fault schedule.
///
/// Overrides are *windows* on the virtual-ms axis: [`set`](FaultPlan::set)
/// installs an all-of-time override, [`set_windowed`](FaultPlan::set_windowed)
/// a bounded one (how scenario events project onto the wire). Outside
/// every window the default spec applies.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Master seed every fault decision derives from.
    pub seed: u64,
    /// Injected delay beyond this bound turns into a client-visible
    /// timeout (the response arrives after the client stopped waiting).
    pub client_timeout_ms: u64,
    default_spec: FaultSpec,
    per_upstream: HashMap<(u64, Protocol), Vec<FaultWindow>>,
}

/// One scheduled override: the virtual-ms window `[start, end)` and the
/// spec applied inside it.
type FaultWindow = (u64, u64, FaultSpec);

impl FaultPlan {
    /// A plan that injects nothing (useful as the wrap-overhead baseline).
    pub fn clean(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            client_timeout_ms: 1_000,
            default_spec: FaultSpec::clean(),
            per_upstream: HashMap::new(),
        }
    }

    /// Replace the spec applied where no per-upstream override exists.
    pub fn with_default(mut self, spec: FaultSpec) -> FaultPlan {
        self.default_spec = spec;
        self
    }

    /// Override the client timeout bound.
    pub fn with_timeout_ms(mut self, ms: u64) -> FaultPlan {
        self.client_timeout_ms = ms;
        self
    }

    /// Schedule `spec` for one (upstream, protocol) pair across all of
    /// virtual time, replacing any existing windows.
    pub fn set(&mut self, upstream: u64, proto: Protocol, spec: FaultSpec) {
        self.per_upstream
            .insert((upstream, proto), vec![(0, u64::MAX, spec)]);
    }

    /// Schedule `spec` for one (upstream, protocol) pair during the
    /// virtual-ms window `[start_ms, end_ms)`. Windows are consulted in
    /// insertion order; the first one containing the exchange time wins.
    pub fn set_windowed(
        &mut self,
        upstream: u64,
        proto: Protocol,
        window: (u64, u64),
        spec: FaultSpec,
    ) {
        self.per_upstream
            .entry((upstream, proto))
            .or_default()
            .push((window.0, window.1, spec));
    }

    /// Schedule `spec` for both protocols of `upstream`.
    pub fn set_both(&mut self, upstream: u64, spec: FaultSpec) {
        self.set(upstream, Protocol::Udp, spec.clone());
        self.set(upstream, Protocol::Tcp, spec);
    }

    /// Schedule `spec` for both protocols of `upstream` during one
    /// virtual-ms window.
    pub fn set_both_windowed(&mut self, upstream: u64, window: (u64, u64), spec: FaultSpec) {
        self.set_windowed(upstream, Protocol::Udp, window, spec.clone());
        self.set_windowed(upstream, Protocol::Tcp, window, spec);
    }

    /// The spec in force for one (upstream, protocol) pair at virtual
    /// time zero — the whole story for plans built with [`set`](FaultPlan::set).
    pub fn spec(&self, upstream: u64, proto: Protocol) -> &FaultSpec {
        self.spec_at(upstream, proto, 0)
    }

    /// The spec in force for one (upstream, protocol) pair at virtual
    /// time `t_ms`.
    pub fn spec_at(&self, upstream: u64, proto: Protocol, t_ms: u64) -> &FaultSpec {
        self.per_upstream
            .get(&(upstream, proto))
            .and_then(|windows| {
                windows
                    .iter()
                    .find(|&&(s, e, _)| t_ms >= s && t_ms < e)
                    .map(|(_, _, spec)| spec)
            })
            .unwrap_or(&self.default_spec)
    }

    /// Whether no window or default could ever perturb this (upstream,
    /// protocol) pair — precomputed by [`FaultyTransport::new`] so the
    /// per-exchange fast path is a boolean test, not a plan lookup.
    fn always_clean(&self, upstream: u64, proto: Protocol) -> bool {
        self.default_spec.is_clean()
            && !self
                .per_upstream
                .get(&(upstream, proto))
                .is_some_and(|windows| windows.iter().any(|(_, _, spec)| !spec.is_clean()))
    }
}

/// What the fault layer did, per fault class. Deterministic for a given
/// (plan seed, exchange-key sequence) — the chaos harness asserts two runs
/// produce equal values, like the PR 4 cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Exchanges that reached the fault layer.
    pub exchanges: u64,
    /// Exchanges forwarded without any perturbation.
    pub clean: u64,
    /// Requests swallowed by a blackhole window.
    pub blackholed: u64,
    /// Requests/responses dropped by the loss dice.
    pub drops: u64,
    /// Responses delayed past the client timeout (delivered to nobody).
    pub timeouts_induced: u64,
    /// Exchanges that had nonzero latency injected.
    pub delayed: u64,
    /// Responses with one bit flipped.
    pub bitflips: u64,
    /// TCP streams cut off mid-record.
    pub truncations: u64,
    /// Responses replaced with random bytes.
    pub garbage: u64,
    /// Responses queued for re-delivery.
    pub duplicates: u64,
    /// Stale queued datagrams delivered in place of the fresh response.
    pub reorders: u64,
}

impl FaultCounters {
    /// Sum of all injected faults (everything except `exchanges`/`clean`).
    pub fn total_faults(&self) -> u64 {
        self.blackholed
            + self.drops
            + self.timeouts_induced
            + self.bitflips
            + self.truncations
            + self.garbage
            + self.duplicates
            + self.reorders
    }

    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.exchanges += other.exchanges;
        self.clean += other.clean;
        self.blackholed += other.blackholed;
        self.drops += other.drops;
        self.timeouts_induced += other.timeouts_induced;
        self.delayed += other.delayed;
        self.bitflips += other.bitflips;
        self.truncations += other.truncations;
        self.garbage += other.garbage;
        self.duplicates += other.duplicates;
        self.reorders += other.reorders;
    }

    /// One-line summary in the counter style `Metrics::render` uses.
    pub fn render(&self) -> String {
        format!(
            "exchanges={} clean={} blackholed={} drops={} timeouts={} bitflips={} \
             truncations={} garbage={} dups={} reorders={}",
            self.exchanges,
            self.clean,
            self.blackholed,
            self.drops,
            self.timeouts_induced,
            self.bitflips,
            self.truncations,
            self.garbage,
            self.duplicates,
            self.reorders,
        )
    }
}

/// A [`Transport`] decorator that injects the faults a [`FaultPlan`]
/// schedules for its upstream.
#[derive(Debug, Clone)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: Arc<FaultPlan>,
    upstream: u64,
    /// Exchange counter; the per-exchange derivation key.
    seq: u64,
    /// The virtual clock fault windows are evaluated against. Private by
    /// default; [`with_clock`](FaultyTransport::with_clock) shares the
    /// client's clock so its waits and our windows live on one axis.
    clock: ClockHandle,
    /// Precomputed per-protocol "this plan can never perturb us" flags —
    /// the zero-fault fast path costs a boolean test, not a plan lookup.
    clean_udp: bool,
    clean_tcp: bool,
    /// Datagrams in flight: delayed past the timeout or duplicated, they
    /// linger here until a reorder decision delivers one.
    pending: VecDeque<Vec<u8>>,
    counters: FaultCounters,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner`, applying the faults `plan` schedules for `upstream`,
    /// on a private clock starting at 0 ms.
    pub fn new(inner: T, plan: Arc<FaultPlan>, upstream: u64) -> FaultyTransport<T> {
        let clean_udp = plan.always_clean(upstream, Protocol::Udp);
        let clean_tcp = plan.always_clean(upstream, Protocol::Tcp);
        FaultyTransport {
            inner,
            plan,
            upstream,
            seq: 0,
            clock: ClockHandle::new(),
            clean_udp,
            clean_tcp,
            pending: VecDeque::new(),
            counters: FaultCounters::default(),
        }
    }

    /// Share `clock` with this transport: fault windows are evaluated at
    /// the instant the clock shows when an exchange starts, and exchange
    /// outcomes advance it (a timeout costs the client timeout, a delayed
    /// answer its delay). Anything else holding the handle — retry
    /// backoff, a scheduler — moves the same timeline.
    pub fn with_clock(mut self, clock: ClockHandle) -> FaultyTransport<T> {
        self.clock = clock;
        self
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Current virtual time in milliseconds.
    pub fn virtual_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// The clock this transport evaluates fault windows against.
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The per-exchange decision stream: a fresh RNG per (upstream,
    /// protocol, exchange number) tuple, so one exchange's outcome is a
    /// pure function of its number no matter what happened before it.
    fn dice(&mut self, proto: Protocol) -> SimRng {
        self.seq += 1;
        SimRng::new(self.plan.seed).derive_ids(&[0xfa17, self.upstream, proto.id(), self.seq])
    }

    /// Draw the injected latency for this exchange (fixed + jitter).
    fn draw_delay(&mut self, spec: &FaultSpec, rng: &mut SimRng) -> u64 {
        let jitter = if spec.delay_jitter_ms > 0 {
            rng.next_range(spec.delay_jitter_ms as usize + 1) as u64
        } else {
            0
        };
        let delay = spec.delay_ms + jitter;
        if delay > 0 {
            self.counters.delayed += 1;
        }
        delay
    }
}

/// Flip one uniformly chosen bit of `buf`.
fn flip_random_bit(buf: &mut [u8], rng: &mut SimRng) {
    if buf.is_empty() {
        return;
    }
    let bit = rng.next_range(buf.len() * 8);
    buf[bit / 8] ^= 1 << (bit % 8);
}

/// Replace `buf` with seeded random bytes of the same length.
fn garble(buf: &mut [u8], rng: &mut SimRng) {
    for b in buf.iter_mut() {
        *b = (rng.next_u64() & 0xff) as u8;
    }
}

impl<T: Transport> FaultyTransport<T> {
    /// The perturbing tail of a datagram exchange: dice already owed, spec
    /// known dirty. Split out of [`exchange_udp`] so the two clean fast
    /// paths above it stay branch-cheap and allocation-free.
    ///
    /// [`exchange_udp`]: Transport::exchange_udp
    fn exchange_udp_dirty(
        &mut self,
        request: &[u8],
        t0: u64,
        spec: &FaultSpec,
    ) -> Result<Option<Vec<u8>>, TransportError> {
        let timeout = self.plan.client_timeout_ms;
        let mut rng = self.dice(Protocol::Udp);
        // All dice are rolled up front, in a fixed order, so every counter
        // is a pure function of the exchange key even when an earlier
        // fault preempts a later one.
        let delay = self.draw_delay(spec, &mut rng);
        let dropped = rng.chance(spec.drop_prob);
        let garbage = rng.chance(spec.garbage_prob);
        let bitflip = rng.chance(spec.bitflip_prob);
        let reorder = rng.chance(spec.reorder_prob);
        let duplicate = rng.chance(spec.dup_prob);
        if spec.blackholed(t0) {
            self.counters.blackholed += 1;
            self.clock.advance(timeout);
            return Ok(None);
        }
        if dropped {
            self.counters.drops += 1;
            self.clock.advance(timeout);
            return Ok(None);
        }
        let Some(mut resp) = self.inner.exchange_udp(request)? else {
            self.clock.advance(timeout);
            return Ok(None);
        };
        if delay > timeout {
            // The answer exists but lands after the client gave up; it
            // lingers in flight, and a later reorder may deliver it.
            self.counters.timeouts_induced += 1;
            self.pending.push_back(resp);
            self.clock.advance(timeout);
            return Ok(None);
        }
        self.clock.advance(delay);
        if garbage {
            self.counters.garbage += 1;
            garble(&mut resp, &mut rng);
        } else if bitflip {
            self.counters.bitflips += 1;
            flip_random_bit(&mut resp, &mut rng);
        }
        if reorder {
            self.counters.reorders += 1;
            if let Some(stale) = self.pending.pop_front() {
                let fresh = std::mem::replace(&mut resp, stale);
                self.pending.push_back(fresh);
            }
        }
        if duplicate {
            self.counters.duplicates += 1;
            self.pending.push_back(resp.clone());
        }
        Ok(Some(resp))
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn exchange_udp(&mut self, request: &[u8]) -> Result<Option<Vec<u8>>, TransportError> {
        // The clean fast paths forward straight to the inner transport,
        // keeping this, the benched wrapper path, codegen-identical to the
        // bare transport call (the <5% overhead bound in
        // `bench_faultfree_wrapper` is on exactly this method). The
        // trait's `exchange_udp_into` and `exchange_udp_batch` defaults
        // loop over it, so every datagram rolls its own dice and reads
        // the shared clock.
        self.counters.exchanges += 1;
        if self.clean_udp {
            self.seq += 1;
            self.counters.clean += 1;
            return self.inner.exchange_udp(request);
        }
        let t0 = self.clock.now_ms();
        let spec = self.plan.spec_at(self.upstream, Protocol::Udp, t0).clone();
        if spec.is_clean() {
            // Outside every fault window: forward untouched, cost nothing.
            self.seq += 1;
            self.counters.clean += 1;
            return self.inner.exchange_udp(request);
        }
        self.exchange_udp_dirty(request, t0, &spec)
    }

    fn exchange_tcp(&mut self, request: &[u8]) -> Result<Vec<Vec<u8>>, TransportError> {
        self.counters.exchanges += 1;
        if self.clean_tcp {
            self.seq += 1;
            self.counters.clean += 1;
            return self.inner.exchange_tcp(request);
        }
        let t0 = self.clock.now_ms();
        let spec = self.plan.spec_at(self.upstream, Protocol::Tcp, t0).clone();
        if spec.is_clean() {
            self.seq += 1;
            self.counters.clean += 1;
            return self.inner.exchange_tcp(request);
        }
        let timeout = self.plan.client_timeout_ms;
        let mut rng = self.dice(Protocol::Tcp);
        let delay = self.draw_delay(&spec, &mut rng);
        let dropped = rng.chance(spec.drop_prob);
        let truncate = rng.chance(spec.truncate_stream_prob);
        let garbage = rng.chance(spec.garbage_prob);
        let bitflip = rng.chance(spec.bitflip_prob);
        let duplicate = rng.chance(spec.dup_prob);
        let reorder = rng.chance(spec.reorder_prob);
        if spec.blackholed(t0) {
            self.counters.blackholed += 1;
            self.clock.advance(timeout);
            return Err(TransportError::Timeout);
        }
        if dropped {
            self.counters.drops += 1;
            self.clock.advance(timeout);
            return Err(TransportError::Timeout);
        }
        let mut frames = self.inner.exchange_tcp(request)?;
        if delay > timeout {
            self.counters.timeouts_induced += 1;
            self.clock.advance(timeout);
            return Err(TransportError::Timeout);
        }
        self.clock.advance(delay);
        if frames.is_empty() {
            return Ok(frames);
        }
        if truncate {
            // The connection dies mid-transfer: a suffix of the message
            // stream is lost, and the last message that did arrive ends
            // mid-record (a strict prefix of its bytes).
            self.counters.truncations += 1;
            let keep = 1 + rng.next_range(frames.len());
            frames.truncate(keep);
            if let Some(last) = frames.last_mut() {
                if last.len() > 2 {
                    let cut = 1 + rng.next_range(last.len() - 1);
                    last.truncate(cut);
                }
            }
        }
        if garbage {
            self.counters.garbage += 1;
            let idx = rng.next_range(frames.len());
            garble(&mut frames[idx], &mut rng);
        } else if bitflip {
            self.counters.bitflips += 1;
            let idx = rng.next_range(frames.len());
            flip_random_bit(&mut frames[idx], &mut rng);
        }
        if duplicate {
            // A repeated segment: one message shows up twice in sequence.
            self.counters.duplicates += 1;
            let idx = rng.next_range(frames.len());
            let copy = frames[idx].clone();
            frames.insert(idx, copy);
        }
        if reorder && frames.len() >= 2 {
            self.counters.reorders += 1;
            let idx = rng.next_range(frames.len() - 1);
            frames.swap(idx, idx + 1);
        }
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Rootd, SiteIdentity};
    use crate::index::ZoneIndex;
    use crate::transport::{InprocTransport, UdpBatch};
    use dns_wire::{Message, Name, Question, RrType};
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;

    fn inproc() -> InprocTransport {
        let zone = build_root_zone(
            &RootZoneConfig {
                tld_count: 6,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(5),
        );
        InprocTransport::new(Arc::new(Rootd::new(
            Arc::new(ZoneIndex::build(Arc::new(zone))),
            SiteIdentity::named("faults-test"),
        )))
    }

    fn soa_query(id: u16) -> Vec<u8> {
        Message::query(id, Question::new(Name::root(), RrType::Soa)).to_wire()
    }

    fn axfr_query(id: u16) -> Vec<u8> {
        Message::query(id, Question::new(Name::root(), RrType::Axfr)).to_wire()
    }

    #[test]
    fn clean_plan_is_byte_identical_to_bare_transport() {
        let mut bare = inproc();
        let mut wrapped = FaultyTransport::new(inproc(), Arc::new(FaultPlan::clean(7)), 0);
        for id in 0..50u16 {
            let q = soa_query(id);
            assert_eq!(
                bare.exchange_udp(&q).unwrap(),
                wrapped.exchange_udp(&q).unwrap()
            );
        }
        let axfr = axfr_query(99);
        assert_eq!(
            bare.exchange_tcp(&axfr).unwrap(),
            wrapped.exchange_tcp(&axfr).unwrap()
        );
        let c = wrapped.counters();
        assert_eq!(c.exchanges, 51);
        assert_eq!(c.clean, 51);
        assert_eq!(c.total_faults(), 0);
    }

    #[test]
    fn loss_drops_roughly_the_configured_fraction() {
        let plan = Arc::new(FaultPlan::clean(11).with_default(FaultSpec::loss(0.5)));
        let mut t = FaultyTransport::new(inproc(), plan, 0);
        let mut answered = 0;
        for id in 0..400u16 {
            if t.exchange_udp(&soa_query(id)).unwrap().is_some() {
                answered += 1;
            }
        }
        let c = t.counters();
        assert_eq!(c.drops + answered, 400);
        assert!((120..=280).contains(&answered), "answered = {answered}");
    }

    #[test]
    fn same_seed_same_counters_different_seed_different_stream() {
        let spec = FaultSpec {
            drop_prob: 0.3,
            bitflip_prob: 0.2,
            garbage_prob: 0.1,
            delay_ms: 10,
            delay_jitter_ms: 40,
            ..FaultSpec::clean()
        };
        let run = |seed: u64| {
            let plan = Arc::new(FaultPlan::clean(seed).with_default(spec.clone()));
            let mut t = FaultyTransport::new(inproc(), plan, 3);
            for id in 0..300u16 {
                let _ = t.exchange_udp(&soa_query(id));
            }
            t.counters()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn bitflip_corrupts_exactly_one_bit() {
        let plan = Arc::new(FaultPlan::clean(3).with_default(FaultSpec::bitflip(1.0)));
        let mut wrapped = FaultyTransport::new(inproc(), plan, 0);
        let mut bare = inproc();
        let q = soa_query(1);
        let clean = bare.exchange_udp(&q).unwrap().unwrap();
        let dirty = wrapped.exchange_udp(&q).unwrap().unwrap();
        assert_eq!(clean.len(), dirty.len());
        let flipped: u32 = clean
            .iter()
            .zip(&dirty)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn blackhole_window_swallows_everything_inside_it() {
        let spec = FaultSpec {
            blackholes: vec![(0, u64::MAX)],
            ..FaultSpec::clean()
        };
        let plan = Arc::new(FaultPlan::clean(5).with_default(spec));
        let mut t = FaultyTransport::new(inproc(), plan, 0);
        for id in 0..20u16 {
            assert_eq!(t.exchange_udp(&soa_query(id)).unwrap(), None);
        }
        assert!(matches!(
            t.exchange_tcp(&axfr_query(21)),
            Err(TransportError::Timeout)
        ));
        assert_eq!(t.counters().blackholed, 21);
    }

    #[test]
    fn truncated_axfr_stream_loses_its_tail_mid_message() {
        let spec = FaultSpec {
            truncate_stream_prob: 1.0,
            ..FaultSpec::clean()
        };
        let plan = Arc::new(FaultPlan::clean(17).with_default(spec));
        let mut wrapped = FaultyTransport::new(inproc(), plan, 0);
        let mut bare = inproc();
        let q = axfr_query(2);
        let full = bare.exchange_tcp(&q).unwrap();
        let cut = wrapped.exchange_tcp(&q).unwrap();
        assert_eq!(wrapped.counters().truncations, 1);
        assert!(!cut.is_empty());
        assert!(
            cut.len() < full.len() || cut.last().unwrap().len() < full[cut.len() - 1].len(),
            "stream must lose frames or end mid-message"
        );
        // The surviving tail never parses as a complete message.
        assert!(Message::from_wire(cut.last().unwrap()).is_err());
    }

    #[test]
    fn delay_past_timeout_is_a_client_visible_timeout() {
        let spec = FaultSpec {
            delay_ms: 5_000,
            ..FaultSpec::clean()
        };
        let plan = Arc::new(
            FaultPlan::clean(23)
                .with_timeout_ms(1_000)
                .with_default(spec),
        );
        let mut t = FaultyTransport::new(inproc(), plan, 0);
        assert_eq!(t.exchange_udp(&soa_query(1)).unwrap(), None);
        assert_eq!(t.counters().timeouts_induced, 1);
        // The client waits its timeout — not the full injected delay the
        // response is still in flight for.
        assert_eq!(t.virtual_ms(), 1_000);
    }

    #[test]
    fn a_shared_clock_lets_waits_move_fault_windows() {
        // Blackhole for the first 5 s of virtual time only.
        let spec = FaultSpec {
            blackholes: vec![(0, 5_000)],
            ..FaultSpec::clean()
        };
        let plan = Arc::new(FaultPlan::clean(2).with_default(spec));
        let clock = ClockHandle::new();
        let mut t = FaultyTransport::new(inproc(), plan, 0).with_clock(clock.clone());
        // Inside the window: swallowed, and the timeout it cost moved the
        // shared clock.
        assert_eq!(t.exchange_udp(&soa_query(1)).unwrap(), None);
        assert_eq!(clock.now_ms(), 1_000);
        // The client backs off on the same clock...
        clock.sleep(4_000);
        // ...and the very same upstream answers: the window was time, not
        // an exchange count.
        assert!(t.exchange_udp(&soa_query(2)).unwrap().is_some());
        assert_eq!(t.counters().blackholed, 1);
    }

    #[test]
    fn windowed_specs_apply_only_inside_their_window() {
        let mut plan = FaultPlan::clean(4);
        plan.set_windowed(0, Protocol::Udp, (2_000, 3_000), FaultSpec::loss(1.0));
        let plan = Arc::new(plan);
        let clock = ClockHandle::new();
        let mut t = FaultyTransport::new(inproc(), plan, 0).with_clock(clock.clone());
        // Before the window: clean.
        assert!(t.exchange_udp(&soa_query(1)).unwrap().is_some());
        // Inside: total loss, and the drop bills the 1 s client timeout.
        clock.sleep(2_500);
        assert_eq!(t.exchange_udp(&soa_query(2)).unwrap(), None);
        assert_eq!(clock.now_ms(), 3_500);
        // After: clean again.
        assert!(t.exchange_udp(&soa_query(3)).unwrap().is_some());
        let c = t.counters();
        assert_eq!((c.clean, c.drops), (2, 1));
    }

    #[test]
    fn reorder_delivers_a_stale_datagram_with_the_old_id() {
        // Some responses are delayed past the timeout (stay in flight);
        // later reorders deliver them against newer queries, so the
        // client sees responses whose IDs do not match — exactly the
        // condition the refresh client's ID check exists for.
        let mixed = FaultSpec {
            delay_ms: 0,
            delay_jitter_ms: 3_000,
            reorder_prob: 0.5,
            ..FaultSpec::clean()
        };
        let plan = Arc::new(
            FaultPlan::clean(31)
                .with_timeout_ms(1_000)
                .with_default(mixed),
        );
        let mut t = FaultyTransport::new(inproc(), plan, 0);
        let mut mismatched = 0;
        for id in 0..200u16 {
            if let Some(resp) = t.exchange_udp(&soa_query(id)).unwrap() {
                let got = u16::from_be_bytes([resp[0], resp[1]]);
                if got != id {
                    mismatched += 1;
                }
            }
        }
        let c = t.counters();
        assert!(c.timeouts_induced > 0, "{c:?}");
        assert!(mismatched > 0, "reorders must surface stale IDs: {c:?}");
    }

    #[test]
    fn faulted_batch_is_byte_identical_to_one_shot_faulted_path() {
        let spec = FaultSpec {
            drop_prob: 0.3,
            bitflip_prob: 0.2,
            garbage_prob: 0.1,
            ..FaultSpec::clean()
        };
        let plan = Arc::new(FaultPlan::clean(21).with_default(spec));
        let queries: Vec<Vec<u8>> = (0..200u16).map(soa_query).collect();
        // Reference: one-shot exchanges on a fresh transport.
        let mut one = FaultyTransport::new(inproc(), Arc::clone(&plan), 0);
        let singles: Vec<_> = queries
            .iter()
            .map(|q| one.exchange_udp(q).unwrap())
            .collect();
        // The batch path on another fresh transport must reproduce every
        // byte, every drop, every counter and the time billed.
        let mut batched = FaultyTransport::new(inproc(), Arc::clone(&plan), 0);
        let mut batch = UdpBatch::new();
        for q in &queries {
            batch.push_request(q);
        }
        batched.exchange_udp_batch(&mut batch).unwrap();
        for (i, single) in singles.iter().enumerate() {
            assert_eq!(batch.response(i), single.as_deref(), "datagram {i}");
        }
        assert_eq!(batched.counters(), one.counters());
        assert!(batched.counters().drops > 0, "loss dice must have fired");
        assert_eq!(batched.virtual_ms(), one.virtual_ms());
    }

    /// An in-proc inner transport that counts engine-level drops, so the
    /// reconciliation test below can attribute every empty response span
    /// to exactly one layer (transport dice vs. engine verdict).
    struct CountingInner {
        inner: InprocTransport,
        engine_drops: u64,
    }

    impl Transport for CountingInner {
        fn exchange_udp(&mut self, request: &[u8]) -> Result<Option<Vec<u8>>, TransportError> {
            let resp = self.inner.exchange_udp(request)?;
            if resp.is_none() {
                self.engine_drops += 1;
            }
            Ok(resp)
        }

        fn exchange_tcp(&mut self, request: &[u8]) -> Result<Vec<Vec<u8>>, TransportError> {
            self.inner.exchange_tcp(request)
        }
    }

    #[test]
    fn batch_drop_accounting_reconciles_tally_and_fault_counters_across_shards() {
        use crate::engine::{Rootd, SiteIdentity};
        use crate::index::ZoneIndex;
        let zone = build_root_zone(
            &RootZoneConfig {
                tld_count: 6,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(5),
        );
        let engine = Arc::new(Rootd::new(
            Arc::new(ZoneIndex::build(Arc::new(zone))),
            SiteIdentity::named("recon-test"),
        ));
        let total = 440usize;
        // Sub-header garbage at every 11th-ish slot: the engine drops it.
        let queries: Vec<Vec<u8>> = (0..total)
            .map(|g| {
                if g % 11 == 5 {
                    vec![0xab; 5]
                } else {
                    soa_query(g as u16)
                }
            })
            .collect();
        let malformed = queries.iter().filter(|q| q.len() < 12).count() as u64;

        // Server side, no faults in the way: BatchTally records every
        // engine drop, and the slab span table records them in place.
        let mut server_batch = UdpBatch::new();
        for q in &queries {
            server_batch.push_request(q);
        }
        let tally = engine.serve_udp_batch(&mut server_batch);
        assert_eq!(tally.dropped, malformed);
        assert_eq!(tally.hits + tally.fallbacks + tally.dropped, total as u64);
        for (g, q) in queries.iter().enumerate() {
            assert_eq!(
                server_batch.response(g).is_none(),
                q.len() < 12,
                "span table must record drops exactly in place (slot {g})"
            );
        }

        // Client side: datagram loss in front of the same engine, the
        // stream cut into `shards` consecutive batches through one
        // transport (exchanges keyed by their sequence number). For every
        // cut the counters, the per-slot spans, and the layer attribution
        // must reconcile:
        //   empty spans == transport drops + engine drops of delivered.
        let plan = Arc::new(FaultPlan::clean(29).with_default(FaultSpec::loss(0.25)));
        let run = |shards: usize| {
            let per_shard = total.div_ceil(shards);
            let inner = CountingInner {
                inner: InprocTransport::new(Arc::clone(&engine)),
                engine_drops: 0,
            };
            let mut ft = FaultyTransport::new(inner, Arc::clone(&plan), 0);
            let mut spans: Vec<Option<Vec<u8>>> = Vec::with_capacity(total);
            for chunk in queries.chunks(per_shard) {
                let mut batch = UdpBatch::new();
                for q in chunk {
                    batch.push_request(q);
                }
                ft.exchange_udp_batch(&mut batch).unwrap();
                for i in 0..batch.len() {
                    spans.push(batch.response(i).map(|r| r.to_vec()));
                }
            }
            (ft.counters(), ft.inner().engine_drops, spans)
        };
        let (ref_counters, ref_engine_drops, ref_spans) = run(1);
        let empties = ref_spans.iter().filter(|s| s.is_none()).count() as u64;
        assert!(ref_counters.drops > 0 && ref_engine_drops > 0);
        assert_eq!(empties, ref_counters.drops + ref_engine_drops);
        for shards in 2..=8 {
            let (counters, drops, spans) = run(shards);
            assert_eq!(counters, ref_counters, "{shards} shards");
            assert_eq!(drops, ref_engine_drops, "{shards} shards");
            assert_eq!(spans, ref_spans, "{shards} shards");
        }
    }

    #[test]
    fn per_upstream_specs_are_independent() {
        let mut plan = FaultPlan::clean(1);
        plan.set_both(0, FaultSpec::blackhole());
        let plan = Arc::new(plan);
        let mut dead = FaultyTransport::new(inproc(), Arc::clone(&plan), 0);
        let mut alive = FaultyTransport::new(inproc(), plan, 1);
        assert_eq!(dead.exchange_udp(&soa_query(1)).unwrap(), None);
        assert!(alive.exchange_udp(&soa_query(1)).unwrap().is_some());
    }
}
