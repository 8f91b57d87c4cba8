//! The local root service itself: refresh loop, validation, fallback,
//! query serving.
//!
//! The refresh loop is written as a real network client. It talks to
//! upstreams through the [`Transport`] abstraction only — request bytes
//! out, response bytes in — so the same code path runs against the
//! deterministic in-proc transport, real loopback sockets, or a
//! [`rootd::FaultyTransport`] injecting loss, corruption and blackholes.
//! Robustness features:
//!
//! * per-query retry budget with capped exponential backoff and
//!   deterministic jitter ([`RetryPolicy`]);
//! * response hygiene: ID mismatches, non-responses and unparseable
//!   datagrams are counted as garbage, never trusted;
//! * TCP retry when a UDP response is truncated (TC) or garbage;
//! * per-upstream circuit breaker (dead → probation → healthy) so a
//!   blackholed letter stops consuming the retry budget;
//! * failover across root letters on transport *or* validation failure;
//! * graceful degradation: serve-stale from the last known-good copy,
//!   bounded by the zone's own SOA expire field.
//!
//! Two drivers run the same client loop (an internal `Timeline` enum
//! abstracts the difference): [`LocalRoot::refresh_wire`] is called with
//! a fixed wall
//! `now` (backoffs are accounted but time stands still), while
//! [`LocalRoot::refresh_on_clock`] runs against a shared
//! [`simclock::ClockHandle`] — every retry backoff and timeout *advances*
//! the same virtual clock the fault plans read, so a client really can
//! wait out a blackhole window by backing off.
//!
//! Serving is not a second answer function: every activated copy is put
//! behind its own [`Rootd`] engine, the same one the upstreams (and the
//! serving farm) answer with, and [`LocalRoot::answer`] hands queries to it.

use crate::metrics::Metrics;
use crate::policy::{ValidationPolicy, ZonemdRequirement};
use crate::refresh::{RetryPolicy, UpstreamHealth};
use dns_wire::{Message, Name, Question, Rcode, Rdata, RrType};
use dns_zone::validate::validate_rrsigs;
use dns_zone::zonemd::{verify_zonemd, ZonemdError};
use dns_zone::Zone;
use netsim::rng::SimRng;
use rootd::{InprocTransport, Rootd, SiteIdentity, Transport, TransportError, ZoneIndex};
use rss::RootLetter;
use simclock::{ClockHandle, TimeAxis};
use std::collections::HashMap;
use std::sync::Arc;

/// Which notion of time a refresh cycle runs on.
///
/// The whole client loop is written against this: `Fixed` reproduces the
/// wall-clock API (`now` frozen for the cycle, backoff jitter keyed by
/// the cycle counter), `Clock` maps a shared virtual clock onto wall
/// seconds through a [`TimeAxis`] and *sleeps* every backoff on it, with
/// jitter keyed by the instant the wait starts.
enum Timeline {
    Fixed(u32),
    Clock { clock: ClockHandle, axis: TimeAxis },
}

impl Timeline {
    /// Wall-clock seconds "now" (frozen in `Fixed`, live in `Clock`).
    fn now(&self) -> u32 {
        match self {
            Timeline::Fixed(now) => *now,
            Timeline::Clock { clock, axis } => axis.now_wall(clock),
        }
    }

    /// Wait out the backoff before `attempt`, returning the wait. In
    /// `Clock` mode this advances the shared clock — the wait is real,
    /// visible to every fault window on the same timeline — and records
    /// `(start_ms, wait_ms)` in `log` for replay assertions.
    fn wait_backoff(
        &self,
        retry: &RetryPolicy,
        upstream: u64,
        cycle: u64,
        attempt: u32,
        log: &mut Vec<(u64, u64)>,
    ) -> u64 {
        match self {
            Timeline::Fixed(_) => retry.backoff_ms(upstream, cycle, attempt),
            Timeline::Clock { clock, .. } => {
                let start = clock.now_ms();
                let wait = retry.backoff_ms_at(upstream, start, attempt);
                clock.sleep(wait);
                log.push((start, wait));
                wait
            }
        }
    }
}

/// Refresh-cycle context threaded through the poll/transfer helpers:
/// retry knobs, the timeline driving the cycle, and the sinks they
/// report into.
struct RefreshCtx<'a> {
    retry: &'a RetryPolicy,
    timeline: &'a Timeline,
    metrics: &'a mut Metrics,
    backoff_log: &'a mut Vec<(u64, u64)>,
}

impl RefreshCtx<'_> {
    /// Account (and, on a clock, actually take) the backoff before a
    /// retry attempt.
    fn wait_backoff(&mut self, upstream: u64, cycle: u64, attempt: u32) {
        self.metrics.retries += 1;
        self.metrics.backoff_ms_total +=
            self.timeline
                .wait_backoff(self.retry, upstream, cycle, attempt, self.backoff_log);
    }
}

/// Why a refresh failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefreshError {
    /// Every upstream was tried; none produced an acceptable copy.
    AllUpstreamsFailed { attempts: u32, last_reason: String },
    /// No upstreams configured.
    NoUpstreams,
}

impl std::fmt::Display for RefreshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefreshError::AllUpstreamsFailed {
                attempts,
                last_reason,
            } => write!(f, "all {attempts} upstreams failed; last: {last_reason}"),
            RefreshError::NoUpstreams => write!(f, "no upstreams configured"),
        }
    }
}

impl std::error::Error for RefreshError {}

/// Result of one refresh cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefreshOutcome {
    /// The local copy was already current.
    AlreadyCurrent { serial: u32 },
    /// A new copy was transferred, validated and activated.
    Updated {
        serial: u32,
        /// Which upstream finally served it (index into the set).
        from_upstream: usize,
        /// How many upstreams were tried before success.
        attempts: u32,
    },
}

/// What the service can do with a query at a given instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingState {
    /// A validated copy within the policy's max age.
    Fresh,
    /// The copy outlived `max_age` but refreshes keep failing; policy
    /// allows serving it until the zone's own SOA expire bound.
    Stale,
    /// The copy is older than the SOA expire field (or stale serving is
    /// disabled): answering from it would violate RFC 8806 — refuse.
    Expired,
    /// No copy was ever activated.
    Empty,
}

/// A local root instance.
pub struct LocalRoot {
    /// The engine serving the active, validated zone copy (None until the
    /// first refresh); built anew for every copy activated.
    engine: Option<Rootd>,
    /// When the active copy was activated.
    activated_at: u32,
    pub policy: ValidationPolicy,
    /// Retry/backoff/breaker knobs for the refresh client.
    pub retry: RetryPolicy,
    pub metrics: Metrics,
    /// Rotation cursor so fallback spreads load across letters.
    next_upstream: usize,
    /// Circuit-breaker state per upstream letter.
    health: HashMap<RootLetter, UpstreamHealth>,
    /// Refresh cycles run (keys the deterministic jitter/query-ID streams).
    cycle: u64,
    /// Backoff waits taken on a shared clock, as `(start_ms, wait_ms)` —
    /// empty for wall-clock refreshes. The replay tests assert this
    /// schedule is bit-identical across runs and thread counts.
    pub backoff_log: Vec<(u64, u64)>,
}

impl LocalRoot {
    /// A fresh instance with `policy`.
    pub fn new(policy: ValidationPolicy) -> LocalRoot {
        LocalRoot {
            engine: None,
            activated_at: 0,
            policy,
            retry: RetryPolicy::default(),
            metrics: Metrics::default(),
            next_upstream: 0,
            health: HashMap::new(),
            cycle: 0,
            backoff_log: Vec::new(),
        }
    }

    /// Serial of the active copy, if any.
    pub fn current_serial(&self) -> Option<u32> {
        self.engine
            .as_ref()
            .and_then(|e| e.index().zone().serial().ok())
    }

    /// The active copy, as validated and activated, if any.
    pub fn copy(&self) -> Option<Arc<Zone>> {
        self.engine.as_ref().map(|e| Arc::clone(e.index().zone()))
    }

    /// Pin the upstream tried first on the next refresh (RFC 8806 configs
    /// order their server list; operators often prefer the nearest
    /// instance). Without this, refreshes rotate across upstreams.
    pub fn set_primary(&mut self, index: usize) {
        self.next_upstream = index;
    }

    /// Breaker state for one upstream letter, if it has been scored.
    pub fn upstream_health(&self, letter: RootLetter) -> Option<&UpstreamHealth> {
        self.health.get(&letter)
    }

    /// Whether a *fresh* copy exists at time `now` (validated and not
    /// older than the policy's max age).
    pub fn is_serving(&self, now: u32) -> bool {
        matches!(self.serving_state(now), ServingState::Fresh)
    }

    /// Whether queries get real answers at `now` — fresh or stale.
    pub fn is_usable(&self, now: u32) -> bool {
        matches!(
            self.serving_state(now),
            ServingState::Fresh | ServingState::Stale
        )
    }

    /// Classify the active copy's age against the policy and the zone's
    /// SOA expire bound.
    pub fn serving_state(&self, now: u32) -> ServingState {
        let Some(engine) = self.engine.as_ref() else {
            return ServingState::Empty;
        };
        let age = now.saturating_sub(self.activated_at);
        if age <= self.policy.max_age {
            return ServingState::Fresh;
        }
        let expire = engine.index().zone().soa().map(|s| s.expire).unwrap_or(0);
        if self.policy.serve_stale && age <= expire {
            ServingState::Stale
        } else {
            ServingState::Expired
        }
    }

    /// One refresh cycle at wall-clock `now`, talking to upstreams only
    /// through their transports — the full client loop: health-gated
    /// rotation, SOA poll with retries and TCP fallback, AXFR with a
    /// retry budget for protocol failures, validation, failover.
    pub fn refresh_wire<T: Transport>(
        &mut self,
        upstreams: &mut [(RootLetter, T)],
        now: u32,
    ) -> Result<RefreshOutcome, RefreshError> {
        self.refresh_inner(upstreams, &Timeline::Fixed(now))
    }

    /// One refresh cycle driven by a shared virtual clock: `axis` maps
    /// the clock's virtual milliseconds onto wall seconds, every retry
    /// backoff and timeout advances the clock, and breaker cooldowns are
    /// measured against it. Wrap the upstream transports with
    /// [`rootd::FaultyTransport::with_clock`] on the *same* handle and
    /// fault windows become windows in the client's own time — waiting
    /// (backing off) is then a real strategy against a bounded blackhole.
    pub fn refresh_on_clock<T: Transport>(
        &mut self,
        upstreams: &mut [(RootLetter, T)],
        clock: &ClockHandle,
        axis: TimeAxis,
    ) -> Result<RefreshOutcome, RefreshError> {
        self.refresh_inner(
            upstreams,
            &Timeline::Clock {
                clock: clock.clone(),
                axis,
            },
        )
    }

    fn refresh_inner<T: Transport>(
        &mut self,
        upstreams: &mut [(RootLetter, T)],
        timeline: &Timeline,
    ) -> Result<RefreshOutcome, RefreshError> {
        if upstreams.is_empty() {
            return Err(RefreshError::NoUpstreams);
        }
        self.cycle += 1;
        let cycle = self.cycle;
        let n = upstreams.len();
        let order: Vec<usize> = (0..n).map(|k| (self.next_upstream + k) % n).collect();

        // SOA poll against the first reachable upstream in rotation. A
        // poll that fails everywhere yields u32::MAX, forcing a transfer
        // attempt — the transfer loop then reports the real failure.
        self.metrics.soa_polls += 1;
        let mut upstream_serial = u32::MAX;
        for &idx in &order {
            let letter = upstreams[idx].0;
            if !self
                .health
                .entry(letter)
                .or_default()
                .available(timeline.now())
            {
                continue;
            }
            if let Some(serial) = poll_serial_wire(
                &mut upstreams[idx].1,
                idx as u64,
                cycle,
                &mut RefreshCtx {
                    retry: &self.retry,
                    timeline,
                    metrics: &mut self.metrics,
                    backoff_log: &mut self.backoff_log,
                },
            ) {
                upstream_serial = serial;
                break;
            }
        }
        if let Some(cur) = self.current_serial() {
            if cur >= upstream_serial && self.is_serving(timeline.now()) {
                return Ok(RefreshOutcome::AlreadyCurrent { serial: cur });
            }
        }

        // Transfer with fallback: walk the rotation, skipping upstreams
        // whose breaker is open. Each live upstream gets one logical
        // transfer attempt (with protocol-level retries inside).
        let mut last_reason = String::from("every upstream's circuit breaker is open");
        let mut tried = 0u32;
        for (k, &idx) in order.iter().enumerate() {
            let letter = upstreams[idx].0;
            if !self
                .health
                .entry(letter)
                .or_default()
                .available(timeline.now())
            {
                self.metrics.upstreams_skipped_dead += 1;
                continue;
            }
            tried += 1;
            self.metrics.transfers_attempted += 1;
            match transfer_wire(
                &mut upstreams[idx].1,
                idx as u64,
                cycle,
                &self.policy,
                &mut RefreshCtx {
                    retry: &self.retry,
                    timeline,
                    metrics: &mut self.metrics,
                    backoff_log: &mut self.backoff_log,
                },
            ) {
                Ok(zone) => {
                    let serial = zone.serial().unwrap_or(0);
                    self.metrics.transfers_accepted += 1;
                    self.health.entry(letter).or_default().on_success();
                    self.engine = Some(local_engine(zone));
                    self.activated_at = timeline.now();
                    // Advance rotation past the successful upstream.
                    self.next_upstream = (idx + 1) % n;
                    return Ok(RefreshOutcome::Updated {
                        serial,
                        from_upstream: idx,
                        attempts: tried,
                    });
                }
                Err(reason) => {
                    if reason.protocol_level {
                        self.metrics.transfers_failed += 1;
                    } else {
                        self.metrics.transfers_rejected += 1;
                    }
                    if self
                        .health
                        .entry(letter)
                        .or_default()
                        .on_failure(timeline.now(), &self.retry)
                    {
                        self.metrics.breaker_opened += 1;
                    }
                    if k + 1 < n {
                        self.metrics.fallbacks += 1;
                    }
                    last_reason = reason.message;
                }
            }
        }
        self.next_upstream = (self.next_upstream + 1) % n;
        Err(RefreshError::AllUpstreamsFailed {
            attempts: tried,
            last_reason,
        })
    }

    /// Answer a query from the active copy. Serves fresh, degrades to
    /// stale within the SOA expire bound (when policy allows), and
    /// refuses (fail-closed, RFC 8806) beyond it.
    ///
    /// The copy's engine answers over its UDP path, at the budget the
    /// query's own EDNS record advertises (512 bytes without one): the
    /// datagram an RFC 8806 resolver gets from the root it runs on
    /// loopback — referrals, negative proofs, TC and all, byte for byte
    /// what an upstream serving the same zone sends.
    pub fn answer(&mut self, query: &Message, now: u32) -> Message {
        match self.serving_state(now) {
            ServingState::Fresh => self.metrics.served_fresh += 1,
            ServingState::Stale => self.metrics.served_stale += 1,
            ServingState::Expired => {
                self.metrics.queries_refused += 1;
                self.metrics.refused_expired += 1;
                return Message::response_to(query, Rcode::ServFail, Vec::new());
            }
            ServingState::Empty => {
                self.metrics.queries_refused += 1;
                return Message::response_to(query, Rcode::ServFail, Vec::new());
            }
        }
        self.metrics.queries_served += 1;
        let engine = self.engine.as_ref().expect("a served copy has an engine");
        match engine.serve_udp(&query.to_wire()) {
            Some(wire) => Message::from_wire(&wire).expect("the engine's responses parse"),
            // Only a datagram that is not a query goes unanswered.
            None => Message::response_to(query, Rcode::FormErr, Vec::new()),
        }
    }

    /// Convenience: the NS set a TLD is delegated to, read from the
    /// authority section of the active copy's referral.
    pub fn delegation(&mut self, tld: &str, now: u32) -> Option<Vec<Name>> {
        let name = Name::parse(&format!("{tld}.")).ok()?;
        let resp = self.answer(&Message::query(0, Question::new(name, RrType::Ns)), now);
        let ns: Vec<Name> = resp
            .authorities
            .iter()
            .filter_map(|r| match &r.rdata {
                Rdata::Ns(n) => Some(n.clone()),
                _ => None,
            })
            .collect();
        (resp.header.rcode == Rcode::NoError && !ns.is_empty()).then_some(ns)
    }
}

/// The engine a local copy is served by: no CHAOS identity (identity
/// queries are REFUSED, as at an instance that disables them) and no
/// precompiled answer cache — the uncached path answers the same bytes
/// (`rootd`'s cache tests hold the two equal), so an activation costs one
/// index build.
fn local_engine(zone: Zone) -> Rootd {
    Rootd::new(
        Arc::new(ZoneIndex::build(Arc::new(zone))),
        SiteIdentity::default(),
    )
}

/// A wire-level serving endpoint for one upstream letter: a `rootd`
/// engine over `zone` that answers `hostname.bind` as `hostname`, reached
/// over the deterministic in-proc transport. The refresh loop talks bytes,
/// not structs — the same parse→serve→encode path a network client
/// exercises. A stale upstream is one built over an old zone. Clones of
/// the transport share the engine.
pub fn upstream_transport(
    letter: RootLetter,
    hostname: Option<String>,
    zone: Arc<Zone>,
) -> InprocTransport {
    let identity = SiteIdentity {
        hostname,
        version: format!("rootd 0.1 ({}.root)", letter.ch()),
    };
    InprocTransport::new(Arc::new(Rootd::new(
        Arc::new(ZoneIndex::build(zone)),
        identity,
    )))
}

/// What a UDP response datagram turned out to be.
enum ParsedUdp {
    /// A well-formed response to *our* query.
    Ok(Message),
    /// Well-formed but TC set: retry over TCP.
    Truncated,
    /// Unparseable, wrong ID, or not a response — never trust it.
    Garbage,
}

/// Parse and sanity-check a UDP response against the query ID we sent.
fn parse_checked(raw: &[u8], expected_id: u16) -> ParsedUdp {
    if raw.len() < 12 {
        return ParsedUdp::Garbage;
    }
    let Ok(resp) = Message::from_wire(raw) else {
        return ParsedUdp::Garbage;
    };
    if resp.header.id != expected_id || !resp.header.flags.response {
        return ParsedUdp::Garbage;
    }
    if resp.header.flags.truncated {
        return ParsedUdp::Truncated;
    }
    ParsedUdp::Ok(resp)
}

/// Retry one query over TCP (RFC 7766 fallback after TC or a garbage
/// datagram). Returns the first well-formed response frame.
fn query_over_tcp<T: Transport>(
    transport: &mut T,
    wire: &[u8],
    expected_id: u16,
    metrics: &mut Metrics,
) -> Option<Message> {
    match transport.exchange_tcp(wire) {
        Ok(frames) => frames
            .first()
            .and_then(|f| match parse_checked(f, expected_id) {
                // TC over TCP is nonsense; treat it as garbage too.
                ParsedUdp::Ok(resp) => Some(resp),
                _ => {
                    metrics.garbage_responses += 1;
                    None
                }
            }),
        Err(TransportError::Timeout) => {
            metrics.timeouts += 1;
            None
        }
        Err(_) => None,
    }
}

/// Extract the root SOA serial from a response.
fn soa_serial_of(resp: &Message) -> Option<u32> {
    resp.answers.iter().find_map(|r| match &r.rdata {
        dns_wire::Rdata::Soa(soa) => Some(soa.serial),
        _ => None,
    })
}

/// Poll one upstream's SOA serial with the full client discipline:
/// randomized query IDs, retry budget with deterministic backoff, and a
/// TCP retry on TC or garbage UDP.
fn poll_serial_wire<T: Transport>(
    transport: &mut T,
    upstream: u64,
    cycle: u64,
    ctx: &mut RefreshCtx<'_>,
) -> Option<u32> {
    for attempt in 0..ctx.retry.attempts {
        if attempt > 0 {
            ctx.wait_backoff(upstream, cycle, attempt);
        }
        let mut rng =
            SimRng::new(ctx.retry.seed).derive_ids(&[0x50a0, upstream, cycle, attempt as u64]);
        let id = rng.next_u64() as u16;
        let wire = Message::query(id, Question::new(Name::root(), RrType::Soa)).to_wire();
        let resp = match transport.exchange_udp(&wire) {
            Ok(Some(raw)) => match parse_checked(&raw, id) {
                ParsedUdp::Ok(resp) => Some(resp),
                ParsedUdp::Truncated => {
                    ctx.metrics.tcp_fallbacks += 1;
                    query_over_tcp(transport, &wire, id, ctx.metrics)
                }
                ParsedUdp::Garbage => {
                    // Corruption may live on the UDP path only (a faulty
                    // middlebox): retry over TCP before burning the
                    // attempt.
                    ctx.metrics.garbage_responses += 1;
                    ctx.metrics.tcp_fallbacks += 1;
                    query_over_tcp(transport, &wire, id, ctx.metrics)
                }
            },
            Ok(None) | Err(TransportError::Timeout) => {
                ctx.metrics.timeouts += 1;
                None
            }
            Err(_) => None,
        };
        if let Some(resp) = resp {
            if let Some(serial) = soa_serial_of(&resp) {
                return Some(serial);
            }
        }
    }
    None
}

/// Rejection detail.
struct TransferRejected {
    message: String,
    /// True when the failure was protocol-level (transfer itself), false
    /// when validation rejected the content.
    protocol_level: bool,
}

/// Transfer from one upstream (with a protocol-level retry budget) and
/// validate per policy.
///
/// Protocol failures — timeouts, unparseable frames, a stream truncated
/// mid-AXFR — are retried with backoff: the next attempt may succeed.
/// Validation rejections are *not* retried against the same upstream: the
/// copy it serves will not get better; the caller fails over instead.
fn transfer_wire<T: Transport>(
    transport: &mut T,
    upstream: u64,
    cycle: u64,
    policy: &ValidationPolicy,
    ctx: &mut RefreshCtx<'_>,
) -> Result<Zone, TransferRejected> {
    let mut last = TransferRejected {
        message: String::from("no attempt made"),
        protocol_level: true,
    };
    for attempt in 0..ctx.retry.attempts {
        if attempt > 0 {
            ctx.wait_backoff(upstream, cycle, attempt);
        }
        let mut rng =
            SimRng::new(ctx.retry.seed).derive_ids(&[0xafa5, upstream, cycle, attempt as u64]);
        let id = rng.next_u64() as u16;
        let q = Message::query(id, Question::new(Name::root(), RrType::Axfr));
        let frames = match transport.exchange_tcp(&q.to_wire()) {
            Ok(frames) => frames,
            Err(e) => {
                if matches!(e, TransportError::Timeout) {
                    ctx.metrics.timeouts += 1;
                }
                last = TransferRejected {
                    message: format!("transfer failed: {e}"),
                    protocol_level: true,
                };
                continue;
            }
        };
        let messages: Vec<Message> = match frames
            .iter()
            .map(|f| Message::from_wire(f))
            .collect::<Result<_, _>>()
        {
            Ok(messages) => messages,
            Err(e) => {
                ctx.metrics.garbage_responses += 1;
                last = TransferRejected {
                    message: format!("transfer frame unparseable: {e:?}"),
                    protocol_level: true,
                };
                continue;
            }
        };
        let zone = match dns_zone::axfr::assemble_axfr(&messages, &Name::root()) {
            Ok(zone) => zone,
            Err(e) => {
                last = TransferRejected {
                    message: format!("reassembly failed: {e}"),
                    protocol_level: true,
                };
                continue;
            }
        };
        return validate_copy(&zone, ctx.timeline.now(), policy).map(|()| zone);
    }
    Err(last)
}

/// Validate a transferred copy per policy: ZONEMD, then RRSIGs.
fn validate_copy(zone: &Zone, now: u32, policy: &ValidationPolicy) -> Result<(), TransferRejected> {
    match verify_zonemd(zone) {
        Ok(()) => {}
        Err(ZonemdError::NoZonemd) | Err(ZonemdError::UnsupportedAlgorithm)
            if policy.zonemd == ZonemdRequirement::Opportunistic => {}
        Err(e) => {
            return Err(TransferRejected {
                message: format!("ZONEMD: {e}"),
                protocol_level: false,
            })
        }
    }
    // RRSIGs per policy (catches stale zones and bitflips in signed data).
    // Every ZONEMD verdict `validate_zone` reports was refused above, so
    // the copy is digested once, not twice.
    if policy.require_rrsigs {
        let report = validate_rrsigs(zone, now);
        if !report.is_valid() {
            return Err(TransferRejected {
                message: format!("DNSSEC: {:?}", report.issues.first()),
                protocol_level: false,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refresh::HealthState;
    use dns_zone::corrupt::flip_rrsig_bit;
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;
    use rootd::{FaultPlan, FaultSpec, FaultyTransport};

    const T0: u32 = 1_701_820_800; // 2023-12-06

    fn fresh_zone(serial: u32) -> Zone {
        build_root_zone(
            &RootZoneConfig {
                serial,
                tld_count: 8,
                inception: T0,
                expiration: T0 + 14 * 86400,
                rollout: RolloutPhase::Validating,
            },
            &ZoneKeys::from_seed(1),
        )
    }

    /// Every way a transferred copy can be refused, under both ZONEMD
    /// policies, and the message it is refused with. The copy is digested
    /// once per validation; the oracle is the composition this replaced —
    /// `verify_zonemd`, then the full `validate_zone`, which digests again.
    #[test]
    fn validate_copy_rejection_table() {
        use dns_wire::rdata::Rdata;
        fn digested_twice(zone: &Zone, now: u32, policy: &ValidationPolicy) -> Option<String> {
            match verify_zonemd(zone) {
                Ok(()) => {}
                Err(ZonemdError::NoZonemd) | Err(ZonemdError::UnsupportedAlgorithm)
                    if policy.zonemd == ZonemdRequirement::Opportunistic => {}
                Err(e) => return Some(format!("ZONEMD: {e}")),
            }
            let report = dns_zone::validate_zone(zone, now);
            (policy.require_rrsigs && !report.is_valid())
                .then(|| format!("DNSSEC: {:?}", report.issues.first()))
        }
        let build = |rollout| {
            build_root_zone(
                &RootZoneConfig {
                    serial: 2023120600,
                    tld_count: 8,
                    inception: T0,
                    expiration: T0 + 14 * 86400,
                    rollout,
                },
                &ZoneKeys::from_seed(1),
            )
        };
        let signed = build(RolloutPhase::Validating);
        let undigested = build(RolloutPhase::NoRecord);
        let now = T0 + 3600;
        let edit = |zone: &Zone, f: &dyn Fn(&mut Zone)| {
            let mut z = zone.clone();
            f(&mut z);
            z
        };
        // Glue is unsigned: rewriting it breaks the digest and no RRSIG.
        let reglue = |z: &mut Zone| {
            let glue = z.records_mut().iter_mut().find(|r| r.rr_type == RrType::A);
            glue.unwrap().rdata = Rdata::A("192.0.2.1".parse().unwrap());
        };
        let flip = |z: &mut Zone| {
            flip_rrsig_bit(z, 9).expect("flippable rrsig");
        };
        let soa = |z: &Zone| z.rrset(&Name::root(), RrType::Soa)[0].clone();
        let mismatch = Some("ZONEMD: ZONEMD digest mismatch");

        // (case, copy, clock, refusal when opportunistic, when required)
        let cases = [
            (
                "no ZONEMD",
                undigested.clone(),
                now,
                None,
                Some("ZONEMD: no apex ZONEMD record"),
            ),
            (
                "private algorithm",
                build(RolloutPhase::PrivateAlgorithm),
                now,
                None,
                Some("ZONEMD: no supported ZONEMD digest algorithm"),
            ),
            ("valid", signed.clone(), now, None, None),
            (
                "digest mismatch",
                edit(&signed, &reglue),
                now,
                mismatch,
                mismatch,
            ),
            (
                "serial mismatch",
                edit(&signed, &|z| {
                    for rec in z.records_mut() {
                        if let Rdata::Soa(soa) = &mut rec.rdata {
                            soa.serial += 1;
                        }
                    }
                }),
                now,
                Some("ZONEMD: ZONEMD serial 2023120600 != SOA serial 2023120601"),
                Some("ZONEMD: ZONEMD serial 2023120600 != SOA serial 2023120601"),
            ),
            (
                "missing SOA",
                edit(&signed, &|z| {
                    z.remove_rrset(&Name::root(), RrType::Soa);
                }),
                now,
                Some("ZONEMD: bad zone: zone has no SOA record"),
                Some("ZONEMD: bad zone: zone has no SOA record"),
            ),
            (
                "duplicate SOA",
                edit(&signed, &|z| z.push(soa(z)).unwrap()),
                now,
                Some("ZONEMD: bad zone: zone has multiple SOA records"),
                Some("ZONEMD: bad zone: zone has multiple SOA records"),
            ),
            (
                "RRSIG bit-flip under a digest",
                edit(&signed, &flip),
                now,
                mismatch,
                mismatch,
            ),
            (
                "RRSIG bit-flip, no digest",
                edit(&undigested, &flip),
                now,
                Some("DNSSEC: Some(BogusSignature { owner: \"j.root-servers.net.\", covered: Nsec })"),
                Some("ZONEMD: no apex ZONEMD record"),
            ),
            (
                "expired",
                signed.clone(),
                T0 + 15 * 86400,
                Some("DNSSEC: Some(SignatureExpired { owner: \".\", covered: Ns })"),
                Some("DNSSEC: Some(SignatureExpired { owner: \".\", covered: Ns })"),
            ),
            (
                "not incepted",
                signed.clone(),
                T0 - 1,
                Some("DNSSEC: Some(SignatureNotIncepted { owner: \".\", covered: Ns })"),
                Some("DNSSEC: Some(SignatureNotIncepted { owner: \".\", covered: Ns })"),
            ),
            (
                "digest mismatch and RRSIG bit-flip",
                edit(&edit(&signed, &reglue), &flip),
                now,
                mismatch,
                mismatch,
            ),
        ];
        for (case, copy, clock, opportunistic, required) in cases {
            for (policy, want) in [
                (ValidationPolicy::default(), opportunistic),
                (ValidationPolicy::strict(), required),
            ] {
                let got = validate_copy(&copy, clock, &policy).err();
                assert!(!got.as_ref().is_some_and(|r| r.protocol_level), "{case}");
                let got = got.map(|r| r.message);
                assert_eq!(got, digested_twice(&copy, clock, &policy), "{case}");
                assert_eq!(got.as_deref(), want, "{case} under {:?}", policy.zonemd);
            }
        }
        // With RRSIG checking off, only the digest stands between a
        // flipped signature and activation.
        let lax = ValidationPolicy {
            require_rrsigs: false,
            ..Default::default()
        };
        assert!(validate_copy(&edit(&undigested, &flip), now, &lax).is_ok());
        assert!(validate_copy(&edit(&signed, &flip), now, &lax).is_err());
    }

    fn server(letter: RootLetter, zone: Zone) -> (RootLetter, InprocTransport) {
        let hostname = Some(format!("{}1-test", letter.ch()));
        (letter, upstream_transport(letter, hostname, Arc::new(zone)))
    }

    fn healthy_set() -> Vec<(RootLetter, InprocTransport)> {
        vec![
            server(RootLetter::A, fresh_zone(2023120600)),
            server(RootLetter::B, fresh_zone(2023120600)),
            server(RootLetter::C, fresh_zone(2023120600)),
        ]
    }

    /// Wrap each upstream of a set in a FaultyTransport driven by `plan`.
    fn faulty_upstreams(
        ups: &[(RootLetter, InprocTransport)],
        plan: &Arc<FaultPlan>,
    ) -> Vec<(RootLetter, FaultyTransport<InprocTransport>)> {
        ups.iter()
            .enumerate()
            .map(|(i, (letter, t))| {
                (
                    *letter,
                    FaultyTransport::new(t.clone(), Arc::clone(plan), i as u64),
                )
            })
            .collect()
    }

    #[test]
    fn first_refresh_populates_copy() {
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        let out = lr.refresh_wire(&mut healthy_set(), T0 + 60).unwrap();
        assert!(matches!(
            out,
            RefreshOutcome::Updated {
                serial: 2023120600,
                ..
            }
        ));
        assert!(lr.is_serving(T0 + 60));
        assert_eq!(lr.metrics.transfers_accepted, 1);
    }

    #[test]
    fn second_refresh_is_noop_when_current() {
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        let mut ups = healthy_set();
        lr.refresh_wire(&mut ups, T0 + 60).unwrap();
        let out = lr.refresh_wire(&mut ups, T0 + 120).unwrap();
        assert!(matches!(out, RefreshOutcome::AlreadyCurrent { .. }));
        assert_eq!(lr.metrics.transfers_attempted, 1);
    }

    #[test]
    fn corrupted_upstream_triggers_fallback() {
        // First upstream serves a bit-flipped zone; the service must
        // reject it and succeed against the second (the §7 fallback).
        let mut bad = fresh_zone(2023120600);
        flip_rrsig_bit(&mut bad, 9).unwrap();
        let mut ups = vec![
            server(RootLetter::A, bad),
            server(RootLetter::B, fresh_zone(2023120600)),
        ];
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        let out = lr.refresh_wire(&mut ups, T0 + 60).unwrap();
        match out {
            RefreshOutcome::Updated {
                from_upstream,
                attempts,
                ..
            } => {
                assert_eq!(from_upstream, 1);
                assert_eq!(attempts, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(lr.metrics.transfers_rejected, 1);
        assert_eq!(lr.metrics.fallbacks, 1);
        // A validation rejection is never retried against the same
        // upstream — one attempt each, no protocol retries.
        assert_eq!(lr.metrics.transfers_attempted, 2);
        assert_eq!(lr.metrics.retries, 0);
    }

    #[test]
    fn stale_upstream_rejected() {
        // A server whose zone's signatures expired (the Tokyo/Leeds case).
        let old = build_root_zone(
            &RootZoneConfig {
                serial: 2023110100,
                tld_count: 8,
                inception: T0 - 40 * 86400,
                expiration: T0 - 26 * 86400,
                rollout: RolloutPhase::Validating,
            },
            &ZoneKeys::from_seed(1),
        );
        let mut ups = vec![
            server(RootLetter::D, old),
            server(RootLetter::E, fresh_zone(2023120600)),
        ];
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        let out = lr.refresh_wire(&mut ups, T0 + 60).unwrap();
        assert!(matches!(
            out,
            RefreshOutcome::Updated {
                from_upstream: 1,
                ..
            }
        ));
    }

    #[test]
    fn all_bad_upstreams_error_and_fail_closed() {
        let mut bad1 = fresh_zone(2023120600);
        flip_rrsig_bit(&mut bad1, 1).unwrap();
        let mut bad2 = fresh_zone(2023120600);
        flip_rrsig_bit(&mut bad2, 2).unwrap();
        let mut ups = vec![server(RootLetter::A, bad1), server(RootLetter::B, bad2)];
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        let err = lr.refresh_wire(&mut ups, T0 + 60).unwrap_err();
        assert!(matches!(
            err,
            RefreshError::AllUpstreamsFailed { attempts: 2, .. }
        ));
        // Queries are refused: fail closed.
        let q = Message::query(1, Question::new(Name::root(), RrType::Soa));
        let resp = lr.answer(&q, T0 + 60);
        assert_eq!(resp.header.rcode, Rcode::ServFail);
        assert_eq!(lr.metrics.queries_refused, 1);
    }

    #[test]
    fn strict_policy_rejects_unverifiable_zonemd() {
        // Pre-roll-out zone (no ZONEMD): opportunistic accepts, strict
        // rejects.
        let no_zonemd = build_root_zone(
            &RootZoneConfig {
                serial: 2023080100,
                tld_count: 8,
                inception: T0,
                expiration: T0 + 14 * 86400,
                rollout: RolloutPhase::NoRecord,
            },
            &ZoneKeys::from_seed(1),
        );
        let mut ups = vec![server(RootLetter::A, no_zonemd)];
        let mut opportunistic = LocalRoot::new(ValidationPolicy::default());
        assert!(opportunistic.refresh_wire(&mut ups, T0 + 60).is_ok());
        let mut strict = LocalRoot::new(ValidationPolicy::strict());
        assert!(strict.refresh_wire(&mut ups, T0 + 60).is_err());
    }

    #[test]
    fn serves_delegations_from_copy() {
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        lr.refresh_wire(&mut healthy_set(), T0 + 60).unwrap();
        let ns = lr.delegation("com", T0 + 120).expect("com is delegated");
        assert!(!ns.is_empty());
        assert!(lr.delegation("nonexistent-tld", T0 + 120).is_none());
        assert!(lr.metrics.queries_served >= 2);
    }

    /// What `upstream` sends back for `query`, as bytes.
    fn upstream_bytes(upstream: &mut InprocTransport, query: &Message) -> Vec<u8> {
        upstream
            .exchange_udp(&query.to_wire())
            .unwrap()
            .expect("answered")
    }

    fn dnssec_query(id: u16, name: &str, rr_type: RrType) -> Message {
        let mut q = Message::query(id, Question::new(Name::parse(name).unwrap(), rr_type));
        dns_wire::edns::set_edns(&mut q, &dns_wire::edns::Edns::dnssec());
        q
    }

    fn types(records: &[dns_wire::Record]) -> Vec<RrType> {
        records.iter().map(|r| r.rr_type).collect()
    }

    /// The local copy answers what an upstream engine over the same zone
    /// answers, byte for byte: a referral below a TLD, not a denial; a
    /// TLD's NS set as a referral, not as authoritative data; a signed
    /// denial with its proof; the apex with its signature.
    #[test]
    fn local_answers_are_the_upstream_engines_bytes() {
        let mut ups = healthy_set();
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        lr.refresh_wire(&mut ups, T0 + 60).unwrap();
        let upstream = &mut ups[0].1;
        let www = Message::query(
            1,
            Question::new(Name::parse("www.com.").unwrap(), RrType::A),
        );
        let com = Message::query(2, Question::new(Name::parse("com.").unwrap(), RrType::Ns));
        let nope = dnssec_query(3, "nope-tld.", RrType::A);
        let soa = dnssec_query(4, ".", RrType::Soa);
        for q in [&www, &com, &nope, &soa] {
            let got = lr.answer(q, T0 + 120).to_wire();
            assert_eq!(got, upstream_bytes(upstream, q), "{:?}", q.questions[0]);
        }

        for q in [&www, &com] {
            let referral = lr.answer(q, T0 + 120);
            assert_eq!(referral.header.rcode, Rcode::NoError);
            assert!(!referral.header.flags.authoritative);
            assert!(referral.answers.is_empty());
            assert_eq!(types(&referral.authorities), vec![RrType::Ns; 2]);
        }
        let denial = lr.answer(&nope, T0 + 120);
        assert_eq!(denial.header.rcode, Rcode::NxDomain);
        let proof = types(&denial.authorities);
        for t in [RrType::Soa, RrType::Nsec, RrType::Rrsig] {
            assert!(proof.contains(&t), "{t:?} missing from {proof:?}");
        }
        let apex = lr.answer(&soa, T0 + 120);
        assert_eq!(types(&apex.answers), vec![RrType::Soa, RrType::Rrsig]);
    }

    #[test]
    fn copy_expires_after_max_age() {
        let mut lr = LocalRoot::new(ValidationPolicy {
            max_age: 3600,
            serve_stale: false,
            ..Default::default()
        });
        lr.refresh_wire(&mut healthy_set(), T0).unwrap();
        assert!(lr.is_serving(T0 + 3599));
        assert!(!lr.is_serving(T0 + 3601));
        // And queries refuse once expired (stale serving disabled).
        let q = Message::query(1, Question::new(Name::root(), RrType::Soa));
        assert_eq!(lr.answer(&q, T0 + 4000).header.rcode, Rcode::ServFail);
        assert_eq!(lr.metrics.refused_expired, 1);
    }

    #[test]
    fn serve_stale_bridges_refresh_outages_up_to_soa_expire() {
        // Default policy allows stale serving; the zone's SOA expire is
        // 7 days. With max_age shrunk to an hour, the window between
        // max_age and expire serves stale answers.
        let mut lr = LocalRoot::new(ValidationPolicy {
            max_age: 3600,
            ..Default::default()
        });
        lr.refresh_wire(&mut healthy_set(), T0).unwrap();
        let expire = 604_800; // the built zone's SOA expire field
        let q = Message::query(1, Question::new(Name::root(), RrType::Soa));

        assert_eq!(lr.serving_state(T0 + 3599), ServingState::Fresh);
        assert_eq!(lr.serving_state(T0 + 3601), ServingState::Stale);
        assert!(lr.is_usable(T0 + 3601) && !lr.is_serving(T0 + 3601));
        assert_eq!(lr.answer(&q, T0 + 3601).header.rcode, Rcode::NoError);
        assert_eq!(lr.metrics.served_stale, 1);

        // Staleness is bounded by the zone's own expire field.
        assert_eq!(lr.serving_state(T0 + expire), ServingState::Stale);
        assert_eq!(lr.serving_state(T0 + expire + 1), ServingState::Expired);
        assert_eq!(lr.answer(&q, T0 + expire + 1).header.rcode, Rcode::ServFail);
        assert_eq!(lr.metrics.refused_expired, 1);
        assert_eq!(lr.metrics.served_fresh, 0);
    }

    #[test]
    fn newer_upstream_serial_triggers_update() {
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        lr.refresh_wire(&mut healthy_set(), T0).unwrap();
        let mut new_set = vec![server(RootLetter::A, fresh_zone(2023120700))];
        let out = lr.refresh_wire(&mut new_set, T0 + 600).unwrap();
        assert!(matches!(
            out,
            RefreshOutcome::Updated {
                serial: 2023120700,
                ..
            }
        ));
        // Every activation puts the new copy behind a new engine: the apex
        // answers with the new serial.
        let soa = dnssec_query(1, ".", RrType::Soa);
        let resp = lr.answer(&soa, T0 + 660);
        assert_eq!(soa_serial_of(&resp), Some(2023120700));
        assert_eq!(resp.to_wire(), upstream_bytes(&mut new_set[0].1, &soa));
    }

    #[test]
    fn no_upstreams_is_an_error() {
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        assert_eq!(
            lr.refresh_wire(&mut Vec::<(RootLetter, InprocTransport)>::new(), T0),
            Err(RefreshError::NoUpstreams)
        );
    }

    #[test]
    fn refresh_survives_heavy_loss_with_retries() {
        // 40% datagram loss on every upstream: the retry budget and TCP
        // transfer path must still land a validated copy.
        let ups = healthy_set();
        let plan = Arc::new(FaultPlan::clean(0xdead).with_default(FaultSpec::loss(0.4)));
        let mut wired = faulty_upstreams(&ups, &plan);
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        let out = lr.refresh_wire(&mut wired, T0 + 60).unwrap();
        assert!(matches!(out, RefreshOutcome::Updated { .. }));
        assert_eq!(lr.current_serial(), Some(2023120600));
    }

    #[test]
    fn blackholed_primary_opens_breaker_and_next_cycle_skips_it() {
        let ups = healthy_set();
        let mut plan = FaultPlan::clean(7);
        plan.set_both(0, FaultSpec::blackhole()); // upstream A: dead air
        let plan = Arc::new(plan);
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        lr.retry.failure_threshold = 1; // open the breaker on first failure
        let mut wired = faulty_upstreams(&ups, &plan);
        let out = lr.refresh_wire(&mut wired, T0 + 60).unwrap();
        // A fails (blackhole ⇒ timeouts), B serves the copy.
        assert!(matches!(
            out,
            RefreshOutcome::Updated {
                from_upstream: 1,
                ..
            }
        ));
        assert!(lr.metrics.timeouts > 0);
        assert_eq!(lr.metrics.breaker_opened, 1);
        assert!(matches!(
            lr.upstream_health(RootLetter::A).unwrap().state,
            HealthState::Dead { .. }
        ));

        // Next cycle (within the cooldown) skips A without spending its
        // retry budget on dead air.
        lr.set_primary(0);
        let mut wired = faulty_upstreams(&ups, &plan);
        let timeouts_before = lr.metrics.timeouts;
        lr.refresh_wire(&mut wired, T0 + 120).unwrap();
        assert_eq!(lr.metrics.timeouts, timeouts_before);
    }

    /// Wrap each upstream in a FaultyTransport sharing `clock`.
    fn clock_upstreams(
        ups: &[(RootLetter, InprocTransport)],
        plan: &Arc<FaultPlan>,
        clock: &simclock::ClockHandle,
    ) -> Vec<(RootLetter, FaultyTransport<InprocTransport>)> {
        faulty_upstreams(ups, plan)
            .into_iter()
            .map(|(letter, t)| (letter, t.with_clock(clock.clone())))
            .collect()
    }

    /// The PR's headline regression: a blackhole bounded in *time* is
    /// escaped by backing off on the shared clock. Under the old
    /// private-clock transport (1 ms per exchange, waits invisible) a
    /// client could never wait out a millisecond window.
    #[test]
    fn backoff_alone_escapes_a_bounded_blackhole() {
        let ups = healthy_set();
        let plan = Arc::new(
            FaultPlan::clean(11)
                .with_timeout_ms(200)
                .with_default(FaultSpec {
                    blackholes: vec![(0, 5_000)],
                    ..FaultSpec::clean()
                }),
        );
        let clock = simclock::ClockHandle::new();
        let axis = simclock::TimeAxis::anchored_at(T0);
        let mut wired = clock_upstreams(&ups, &plan, &clock);
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        lr.retry.attempts = 6;
        // Timeout waits alone cannot cross the window: the escape below
        // is purely the exponential backoff advancing the shared clock.
        assert!((lr.retry.attempts as u64) * plan.client_timeout_ms < 5_000);
        let out = lr.refresh_on_clock(&mut wired, &clock, axis).unwrap();
        assert!(matches!(
            out,
            RefreshOutcome::Updated {
                serial: 2023120600,
                from_upstream: 0,
                ..
            }
        ));
        assert!(clock.now_ms() >= 5_000, "clock = {}", clock.now_ms());
        assert!(lr.metrics.timeouts > 0, "the window cost timeouts first");
        assert!(!lr.backoff_log.is_empty());
        // The copy was activated at the post-escape wall time, not T0.
        assert!(lr.is_serving(axis.now_wall(&clock)));
    }

    /// Satellite: backoff jitter keyed on clock time (not per-client
    /// cycle counters) makes the whole schedule a pure function of the
    /// timeline — bit-identical across runs and across however many
    /// threads run other clients concurrently.
    #[test]
    fn clock_backoff_schedule_replays_bit_identically_across_threads() {
        let run = || {
            let ups = healthy_set();
            let plan = Arc::new(FaultPlan::clean(11).with_timeout_ms(200).with_default(
                FaultSpec {
                    blackholes: vec![(0, 5_000)],
                    ..FaultSpec::clean()
                },
            ));
            let clock = simclock::ClockHandle::new();
            let mut wired = clock_upstreams(&ups, &plan, &clock);
            let mut lr = LocalRoot::new(ValidationPolicy::default());
            lr.retry.attempts = 6;
            let out = lr
                .refresh_on_clock(&mut wired, &clock, simclock::TimeAxis::anchored_at(T0))
                .unwrap();
            (out, lr.backoff_log, lr.metrics, clock.now_ms())
        };
        let baseline = run();
        assert!(!baseline.1.is_empty());
        // Re-run on this thread and on several others at once: every
        // client owns its clock, so nothing ambient can skew the waits.
        assert_eq!(baseline, run());
        let concurrent: Vec<_> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| scope.spawn(run))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for got in concurrent {
            assert_eq!(baseline, got);
        }
    }

    #[test]
    fn faulty_refresh_is_deterministic_across_runs() {
        // Same seed, same fault plan ⇒ identical metrics and outcome.
        let run = || {
            let ups = healthy_set();
            let plan = Arc::new(FaultPlan::clean(42).with_default(FaultSpec::loss(0.3)));
            let mut wired = faulty_upstreams(&ups, &plan);
            let mut lr = LocalRoot::new(ValidationPolicy::default());
            let out = lr.refresh_wire(&mut wired, T0 + 60);
            let counters: Vec<_> = wired.iter().map(|(_, t)| t.counters()).collect();
            (out, lr.metrics, counters)
        };
        let (out1, m1, c1) = run();
        let (out2, m2, c2) = run();
        assert_eq!(out1, out2);
        assert_eq!(m1, m2);
        assert_eq!(c1, c2);
    }
}
