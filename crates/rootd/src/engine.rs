//! The answer path: request bytes in, response bytes out.
//!
//! [`Rootd`] is one serving instance — one anycast site's worth of
//! authoritative root service. It parses untrusted request bytes once
//! into a `FastQuery`, resolves the question against the precompiled
//! [`ZoneIndex`], and encodes the response honoring the client's EDNS
//! payload budget with TC-bit truncation at record boundaries
//! (`crate::answer`). AXFR is served as the multi-message stream
//! `dns_zone::axfr` produces; CHAOS identity queries answer from the
//! site's [`SiteIdentity`].
//!
//! Every engine serves through a [`SharedState`]: an uncached one of its
//! own ([`Rootd::new`]), or a letter's, shared by its site engines
//! ([`Rootd::with_shared_state`]). The hot path is the state's precompiled,
//! zone-only [`AnswerCache`] and, after it, the engine's own four CHAOS
//! identity answers: on a cached engine (one over a shared state, or
//! [`Rootd::with_answer_cache`]) `serve_udp_into` first tries a hash
//! lookup that splices the request id, RD bit, and question bytes into a
//! pre-encoded response. What neither holds (uncached qtypes, names below
//! a cut, odd payload sizes, AXFR) is resolved and encoded per query —
//! without allocating, as the hit path. Only the requests
//! `FastQuery::parse` cannot prove canonical (NSID and other options, a
//! compressed qname, several questions, another opcode) take
//! [`Message::from_wire`] first. Zone swaps ([`SharedState::reload`])
//! replace the whole serving state atomically behind an epoch-swapped
//! `Arc`, bumping [`Rootd::generation`].

use crate::answer::{encode_into, Answerer, Plan, SiteAnswers};
use crate::cache::{AnswerCache, ChaosCache};
use crate::index::ZoneIndex;
use crate::query::{FastQuery, NameScratch, MAX_QNAME};
use crate::rrl::{self, ResponseClass, Rrl, RrlConfig, RrlDecision};
use crate::transport::UdpBatch;
use dns_wire::{Message, Rcode};
use dns_zone::axfr::serve_axfr;
use dns_zone::zone::Zone;
use dns_zone::zonemd::ZonemdError;
use parking_lot::RwLock;
use rss::catalog::RootSite;
use rss::RootLetter;
use std::sync::Arc;

pub use crate::query::{MAX_UDP_PAYLOAD, MIN_UDP_PAYLOAD};

/// What an instance reports on the CHAOS identity channel.
#[derive(Debug, Clone)]
pub struct SiteIdentity {
    /// `hostname.bind` / `id.server` answer. `None` models operators that
    /// disable identity queries (REFUSED).
    pub hostname: Option<String>,
    /// `version.bind` / `version.server` banner.
    pub version: String,
}

impl Default for SiteIdentity {
    fn default() -> Self {
        SiteIdentity {
            hostname: None,
            version: "rootd 0.1".to_string(),
        }
    }
}

impl SiteIdentity {
    /// The identity a catalog site exposes: its published instance
    /// identifier when the letter maps one, nothing otherwise.
    pub fn for_site(site: &RootSite) -> SiteIdentity {
        SiteIdentity {
            hostname: site.instance_id.clone(),
            version: format!("rootd 0.1 ({}.root)", site.letter.ch()),
        }
    }

    /// A named instance (tests, single-server setups).
    pub fn named(hostname: &str) -> SiteIdentity {
        SiteIdentity {
            hostname: Some(hostname.to_string()),
            ..Default::default()
        }
    }
}

/// How one UDP datagram was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// Answered from the precompiled cache (id/RD/question splice only).
    CacheHit,
    /// Answered through the full parse/respond/encode path.
    Fallback,
    /// Dropped: unparseable beyond the header, or a stray response.
    Dropped,
}

/// The verdict of the rate-limited UDP path ([`Rootd::serve_udp_from`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeVerdict {
    /// Within budget (or RRL disabled): `out` holds the full response,
    /// byte-identical to what [`Rootd::serve_udp_into`] writes.
    Answered(ServeOutcome),
    /// Rate-limited on the slip cadence: `out` holds a minimal TC=1
    /// reply; a real client retries over TCP.
    Slipped,
    /// Rate-limited: nothing is sent, `out` is garbage.
    Limited,
    /// Unserveable datagram (unparseable, stray response): no response
    /// regardless of RRL.
    Dropped,
}

/// Everything the serve path reads per query, swapped atomically on
/// [`SharedState::reload`]. Readers clone nothing: they hold the lock only
/// for the duration of one datagram. The cache rides behind its own `Arc`
/// so config-only swaps ([`Rootd::set_rrl`]) never rebuild it.
#[derive(Debug, Clone)]
struct ServingState {
    index: Arc<ZoneIndex>,
    cache: Option<Arc<AnswerCache>>,
    generation: u64,
    /// Response-rate limiter, `None` when disabled. Lives in the serving
    /// state so the whole per-query read is one epoch pointer; counters
    /// survive zone reloads (the `Arc` is carried across).
    rrl: Option<Arc<Rrl>>,
}

/// The epoch-swapped serving state every [`Rootd`] serves through: the
/// zone index and the zone-only answer cache, built once and shared by
/// every engine over it — a standalone engine holds one of its own, a
/// farm's site engines share their letter's ([`Rootd::with_shared_state`]).
/// A [`SharedState::reload`] publishes the next zone epoch to all sharing
/// engines atomically (in-flight queries finish against the old state).
#[derive(Debug, Clone)]
pub struct SharedState {
    state: Arc<RwLock<Arc<ServingState>>>,
}

impl SharedState {
    /// Generation 0 of `index`, with `cache` (or none: every datagram is
    /// then parsed and encoded) and no rate limiter. The farm hands every
    /// letter the same zone-only cache: it is letter-independent, so
    /// building it thirteen times would be pure waste.
    pub(crate) fn new(index: Arc<ZoneIndex>, cache: Option<Arc<AnswerCache>>) -> SharedState {
        SharedState {
            state: Arc::new(RwLock::new(Arc::new(ServingState {
                index,
                cache,
                generation: 0,
                rrl: None,
            }))),
        }
    }

    /// Build the shared state for `index`, with the zone-only precompiled
    /// answer cache (CHAOS identity shapes live per-engine instead).
    pub fn build(index: Arc<ZoneIndex>) -> SharedState {
        let cache = Arc::new(AnswerCache::build(&index));
        SharedState::new(index, Some(cache))
    }

    /// Swap in a new zone epoch for every sharing engine: rebuild the
    /// index, and the zone-only cache when the epoch it replaces had one,
    /// then publish atomically (`publish_epoch`). Returns the new
    /// generation.
    pub fn reload(&self, zone: Arc<Zone>) -> u64 {
        publish_epoch(&self.state, zone)
    }

    /// Validated, atomic reload: verify `zone` (ZONEMD, then RRSIG /
    /// structural validation at wall-time `now`) **before** building
    /// anything, and only then publish the next epoch. On any validation
    /// failure the old `ServingState` keeps serving and the generation
    /// does not move — a poisoned zone can never activate, not even
    /// partially. Returns the new generation on success.
    pub fn try_reload(&self, zone: Arc<Zone>, now: u32) -> Result<u64, ReloadError> {
        validate_for_reload(&zone, now)?;
        Ok(self.reload(zone))
    }

    /// Epoch generation: bumped by every [`Self::reload`]. Starts at 0.
    pub fn generation(&self) -> u64 {
        self.state.read().generation
    }

    /// The zone index currently published to sharing engines.
    pub fn index(&self) -> Arc<ZoneIndex> {
        Arc::clone(&self.state.read().index)
    }
}

/// Why a validated reload ([`SharedState::try_reload`]) refused to
/// activate a zone. The serving state is untouched in every case: the old
/// epoch keeps serving and the generation does not move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadError {
    /// The zone's ZONEMD digest does not verify (missing-digest and
    /// unknown-algorithm zones are tolerated, RFC 8976 §3; mismatches and
    /// serial skew are not).
    Zonemd(ZonemdError),
    /// RRSIG/structural validation failed; the carried strings are the
    /// rendered [`dns_zone::ValidationIssue`]s.
    Invalid(Vec<String>),
    /// The farm was asked to reload a letter it does not serve.
    UnknownLetter,
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Zonemd(e) => write!(f, "zonemd verification failed: {e:?}"),
            ReloadError::Invalid(issues) => {
                write!(f, "zone validation failed: {}", issues.join("; "))
            }
            ReloadError::UnknownLetter => write!(f, "letter not served by this farm"),
        }
    }
}

impl std::error::Error for ReloadError {}

/// Validate `zone` the way a root operator's pre-activation check would:
/// ZONEMD first (RFC 8976; zones without a digest or with an unknown
/// algorithm are tolerated, mismatches rejected), then the full
/// RRSIG/structural pass at wall-time `now`.
fn validate_for_reload(zone: &Zone, now: u32) -> Result<(), ReloadError> {
    match dns_zone::verify_zonemd(zone) {
        Ok(()) | Err(ZonemdError::NoZonemd) | Err(ZonemdError::UnsupportedAlgorithm) => {}
        Err(e) => return Err(ReloadError::Zonemd(e)),
    }
    // Every ZONEMD verdict `validate_zone` reports was refused above, so
    // the zone is digested once per push: the RRSIG pass alone remains.
    let report = dns_zone::validate_rrsigs(zone, now);
    if report.is_valid() {
        Ok(())
    } else {
        Err(ReloadError::Invalid(
            report.issues.iter().map(|i| format!("{i:?}")).collect(),
        ))
    }
}

/// The one publish step behind every reload: build the next epoch's index
/// and — when the epoch it replaces has one — its cache outside the lock
/// (readers keep serving the old epoch meanwhile), then take the write
/// lock only to bump the generation and swap the pointer — so concurrent
/// reloads can never mint the same generation — and free the displaced
/// epoch (tens of megabytes on a root-sized zone) after the lock is
/// released, where it stalls no reader. The rate limiter is carried
/// across. Returns the new generation.
fn publish_epoch(state: &RwLock<Arc<ServingState>>, zone: Arc<Zone>) -> u64 {
    let index = Arc::new(ZoneIndex::build(zone));
    let cached = state.read().cache.is_some();
    let cache = cached.then(|| Arc::new(AnswerCache::build(&index)));
    let mut guard = state.write();
    let generation = guard.generation + 1;
    let next = Arc::new(ServingState {
        index,
        cache,
        generation,
        rrl: guard.rrl.clone(),
    });
    let displaced = std::mem::replace(&mut *guard, next);
    drop(guard);
    drop(displaced);
    generation
}

/// Per-batch serve tally from [`Rootd::serve_udp_batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTally {
    /// Answered from the precompiled caches.
    pub hits: u64,
    /// Answered through the full parse/respond/encode path.
    pub fallbacks: u64,
    /// Datagrams with no response.
    pub dropped: u64,
}

/// One authoritative serving instance.
#[derive(Debug)]
pub struct Rootd {
    /// The serving state, this engine's own or shared with others.
    shared: SharedState,
    /// The identity answers (CHAOS TXT records, NSID payload), built once.
    site: SiteAnswers,
    /// Per-engine CHAOS identity shapes, present on every cached engine
    /// (the zone-only answer cache holds no identity).
    chaos: Option<ChaosCache>,
    /// Answer records per AXFR message.
    axfr_batch: usize,
    /// Which letter the instance serves as (CHAOS banner flavour only; the
    /// zone is the same for all letters).
    pub letter: Option<RootLetter>,
}

impl Rootd {
    /// An instance serving `index` with `identity`. No answer cache: the
    /// serve path parses and encodes every datagram. Chain
    /// [`Self::with_answer_cache`] for the precompiled fast path.
    pub fn new(index: Arc<ZoneIndex>, identity: SiteIdentity) -> Rootd {
        Rootd::over(SharedState::new(index, None), identity)
    }

    /// A site engine serving a letter's [`SharedState`]: the zone index
    /// and precompiled answer cache are shared across all of the letter's
    /// sites; only the CHAOS identity answers are per-engine. A
    /// [`SharedState::reload`] (or a [`Rootd::reload`] through any
    /// sharing engine) swaps the epoch for every sharer at once.
    pub fn with_shared_state(shared: &SharedState, identity: SiteIdentity) -> Rootd {
        Rootd::over(shared.clone(), identity).with_chaos_cache()
    }

    /// An engine serving `shared` with `identity`, no CHAOS shapes yet.
    fn over(shared: SharedState, identity: SiteIdentity) -> Rootd {
        Rootd {
            shared,
            site: SiteAnswers::new(&identity),
            chaos: None,
            axfr_batch: dns_zone::axfr::DEFAULT_BATCH,
            letter: None,
        }
    }

    /// Precompile the zone-only answer cache for the current zone — kept
    /// in sync across [`Self::reload`]s — and this engine's CHAOS identity
    /// shapes: what every [`Self::with_shared_state`] engine has. Costs one
    /// pass over every (name, qtype, EDNS-state) shape at build time;
    /// serve-time hits are then a hash lookup plus a header/question
    /// splice.
    pub fn with_answer_cache(self) -> Rootd {
        let mut guard = self.shared.state.write();
        let cache = Some(Arc::new(AnswerCache::build(&guard.index)));
        *guard = Arc::new(ServingState {
            cache,
            ..ServingState::clone(&guard)
        });
        drop(guard);
        self.with_chaos_cache()
    }

    /// This engine with its CHAOS identity shapes built.
    fn with_chaos_cache(mut self) -> Rootd {
        self.chaos = Some(ChaosCache::build(&self.answerer(&self.shared.state.read())));
        self
    }

    /// Enable response-rate limiting with `cfg` (builder form).
    pub fn with_rrl(self, cfg: RrlConfig) -> Rootd {
        self.set_rrl(Some(cfg));
        self
    }

    /// Swap the rate-limiter config without rebuilding the answer cache:
    /// a fresh [`Rrl`] (empty buckets, zeroed counters) for `Some`, the
    /// plain unlimited path for `None`. Epoch-swapped like
    /// [`Self::reload`] — in-flight queries finish under the old config.
    /// The next state is built from the current one under the write lock,
    /// as `publish_epoch` builds its own: a reload landing beside this
    /// call is kept, never overwritten with the epoch it displaced.
    pub fn set_rrl(&self, cfg: Option<RrlConfig>) {
        let rrl = cfg.map(|c| Arc::new(Rrl::new(c)));
        let mut guard = self.shared.state.write();
        *guard = Arc::new(ServingState {
            rrl,
            ..ServingState::clone(&guard)
        });
    }

    /// The active rate limiter (its counters and bucket stats), if any.
    pub fn rrl(&self) -> Option<Arc<Rrl>> {
        self.shared.state.read().rrl.clone()
    }

    /// The zone index being served (the current epoch's).
    pub fn index(&self) -> Arc<ZoneIndex> {
        self.shared.index()
    }

    /// Cache generation: bumped by every [`Self::reload`]. Starts at 0.
    pub fn generation(&self) -> u64 {
        self.shared.generation()
    }

    /// Whether the precompiled answer cache is active.
    pub fn has_answer_cache(&self) -> bool {
        self.shared.state.read().cache.is_some()
    }

    /// Swap in a new zone epoch through this engine's serving state
    /// ([`SharedState::reload`]: every engine sharing it sees the swap).
    /// In-flight queries finish against the old state; the next datagram
    /// sees the new. Returns the new generation.
    pub fn reload(&self, zone: Arc<Zone>) -> u64 {
        self.shared.reload(zone)
    }

    /// Override the AXFR message batch size (framing granularity only).
    pub fn with_axfr_batch(mut self, batch: usize) -> Rootd {
        self.axfr_batch = batch.max(1);
        self
    }

    /// Serve one UDP datagram into a caller-provided scratch buffer.
    /// [`ServeOutcome::Dropped`] means no response (unparseable beyond the
    /// header, or a stray response); `out` is empty then. The
    /// response never exceeds the client's advertised EDNS payload size
    /// (512 without EDNS); when the full response would, records are
    /// dropped at record boundaries and TC is set so the client retries
    /// over TCP.
    pub fn serve_udp_into(&self, request: &[u8], out: &mut Vec<u8>) -> ServeOutcome {
        let state = self.shared.state.read();
        self.serve_alone(&state, request, out)
    }

    /// One datagram on its own: `out` is cleared first, so the appended
    /// response is all it holds, and the name scratch is this call's.
    fn serve_alone(&self, state: &ServingState, request: &[u8], out: &mut Vec<u8>) -> ServeOutcome {
        out.clear();
        self.serve_locked(state, request, &mut [0; MAX_QNAME], &mut Vec::new(), out)
    }

    /// Serve `request`, **appending** the response to `out`: a hit is
    /// copied from the cache straight to where it is sent from and spliced
    /// there. `lc` is room for a mixed-case qname's key, `scratch` for an
    /// uncached answer's encoding when `out` already holds responses
    /// (`answer_udp`). Nothing is appended on [`ServeOutcome::Dropped`].
    fn serve_locked(
        &self,
        state: &ServingState,
        request: &[u8],
        lc: &mut NameScratch,
        scratch: &mut Vec<u8>,
        out: &mut Vec<u8>,
    ) -> ServeOutcome {
        let Some(q) = FastQuery::parse(request, lc) else {
            return self.serve_uncanonical(state, request, lc, scratch, out);
        };
        if let Some(cache) = &state.cache {
            if cache.serve(&state.index, request, &q, out) {
                return ServeOutcome::CacheHit;
            }
        }
        if let Some(chaos) = &self.chaos {
            if chaos.serve(request, &q, out) {
                return ServeOutcome::CacheHit;
            }
        }
        self.answer_udp(state, &q, scratch, out)
    }

    /// The uncached UDP answer: resolve `q`, encode within its budget,
    /// append to `out`. Compression pointers count from the start of a
    /// message, so the encoder needs a buffer the message starts in: `out`
    /// itself while it is empty (the one-shot entry points), `scratch`
    /// behind earlier responses of a batch — one copy into the slab, what a
    /// batched answer has always paid.
    fn answer_udp(
        &self,
        state: &ServingState,
        q: &FastQuery<'_>,
        scratch: &mut Vec<u8>,
        out: &mut Vec<u8>,
    ) -> ServeOutcome {
        let plan = self.answerer(state).answer(q, true);
        if out.is_empty() {
            encode_into(&plan, q, q.limit, out);
        } else {
            encode_into(&plan, q, q.limit, scratch);
            out.extend_from_slice(scratch);
        }
        ServeOutcome::Fallback
    }

    /// The UDP path of a request `FastQuery::parse` refused: the full
    /// parse, adapted onto the same view, answered by the same code.
    fn serve_uncanonical(
        &self,
        state: &ServingState,
        request: &[u8],
        lc: &mut NameScratch,
        scratch: &mut Vec<u8>,
        out: &mut Vec<u8>,
    ) -> ServeOutcome {
        let query = match Message::from_wire(request) {
            Ok(query) => query,
            // Untrusted bytes: answer FORMERR when at least a header is
            // there to echo, drop otherwise (real servers do both).
            Err(_) if formerr_stub(request, out) => return ServeOutcome::Fallback,
            Err(_) => return ServeOutcome::Dropped,
        };
        if query.header.flags.response {
            return ServeOutcome::Dropped;
        }
        self.answer_udp(state, &FastQuery::from_message(&query, lc), scratch, out)
    }

    /// Serve every request in `batch`, appending each answer to the
    /// batch's response slab in place (the farm's recvmmsg-style inner
    /// loop). One state read and one name scratch cover the whole batch —
    /// the per-datagram epoch-pointer load of [`Self::serve_udp_into`] is
    /// amortized across it — and no per-query allocation happens once the
    /// slabs are warm. Answers are byte-identical to per-datagram
    /// [`Self::serve_udp_into`] calls.
    pub fn serve_udp_batch(&self, batch: &mut UdpBatch) -> BatchTally {
        let state = self.shared.state.read();
        let mut tally = BatchTally::default();
        let mut lc = [0; MAX_QNAME];
        for i in 0..batch.len() {
            let outcome = {
                let (req, scratch, resp) = batch.serve_io(i);
                self.serve_locked(&state, req, &mut lc, scratch, resp)
            };
            match outcome {
                ServeOutcome::CacheHit => tally.hits += 1,
                ServeOutcome::Fallback => tally.fallbacks += 1,
                ServeOutcome::Dropped => tally.dropped += 1,
            }
            batch.commit(outcome != ServeOutcome::Dropped);
        }
        tally
    }

    /// Serve one UDP datagram from source `src` at virtual instant
    /// `now_ms`, applying response-rate limiting when configured. With
    /// RRL disabled this is [`Self::serve_udp_into`] plus one `Option`
    /// check: same path, byte-identical output (asserted by tests and
    /// bench-guarded at ≤5% overhead). With RRL enabled the response is
    /// built first, classified from its header bytes, and then the
    /// limiter rules on it — [`ServeVerdict::Slipped`] replaces `out`
    /// with a minimal TC=1 reply, [`ServeVerdict::Limited`] means send
    /// nothing. TCP ([`Self::serve_tcp`]) is never limited: it is the
    /// spoof-victim's escape hatch.
    pub fn serve_udp_from(
        &self,
        src: u64,
        now_ms: u64,
        request: &[u8],
        out: &mut Vec<u8>,
    ) -> ServeVerdict {
        let state = self.shared.state.read();
        let outcome = self.serve_alone(&state, request, out);
        let Some(rrl) = &state.rrl else {
            return ServeVerdict::Answered(outcome);
        };
        if outcome == ServeOutcome::Dropped {
            return ServeVerdict::Dropped;
        }
        match rrl.decide(src, ResponseClass::of(out), now_ms) {
            RrlDecision::Pass => ServeVerdict::Answered(outcome),
            RrlDecision::Slip => {
                if rrl::write_slip(request, out) {
                    ServeVerdict::Slipped
                } else {
                    ServeVerdict::Limited
                }
            }
            RrlDecision::Drop => ServeVerdict::Limited,
        }
    }

    /// Serve one UDP datagram: `None` means drop. Allocating convenience
    /// wrapper over [`Self::serve_udp_into`].
    pub fn serve_udp(&self, request: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        match self.serve_udp_into(request, &mut out) {
            ServeOutcome::Dropped => None,
            _ => Some(out),
        }
    }

    /// Serve one request over a TCP stream: the full, untruncated response
    /// as a sequence of messages (one for everything but AXFR, which
    /// streams the zone in [`Self::with_axfr_batch`]-sized batches).
    pub fn serve_tcp(&self, request: &[u8]) -> Vec<Vec<u8>> {
        let query = match Message::from_wire(request) {
            Ok(q) => q,
            Err(_) => {
                let mut out = Vec::new();
                return if formerr_stub(request, &mut out) {
                    vec![out]
                } else {
                    Vec::new()
                };
            }
        };
        if query.header.flags.response {
            return Vec::new();
        }
        let state = self.shared.state.read();
        let lc = &mut [0; MAX_QNAME];
        let q = FastQuery::from_message(&query, lc);
        let plan = if q.is_axfr() && !q.bad_version() {
            match serve_axfr(state.index.zone(), query.header.id, self.axfr_batch) {
                Ok(msgs) => return msgs.iter().map(|m| m.to_wire()).collect(),
                Err(_) => Plan::bare(Rcode::ServFail),
            }
        } else {
            self.answerer(&state).answer(&q, false)
        };
        let mut out = Vec::new();
        encode_into(&plan, &q, usize::MAX, &mut out);
        vec![out]
    }

    fn answerer<'a>(&'a self, state: &'a ServingState) -> Answerer<'a> {
        Answerer {
            index: &state.index,
            site: Some(&self.site),
        }
    }
}

/// A header-only FORMERR echoing the request id, appended to `out` when a
/// header exists to echo at all.
fn formerr_stub(request: &[u8], out: &mut Vec<u8>) -> bool {
    if request.len() < 12 {
        return false;
    }
    // QR=1, rcode=FORMERR(1), all counts zero.
    out.extend_from_slice(&[request[0], request[1], 0x80, 0x01, 0, 0, 0, 0, 0, 0, 0, 0]);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrl::RrlCounters;
    use dns_wire::edns::{edns_of, set_edns, Edns};
    use dns_wire::message::Opcode;
    use dns_wire::rdata::Rdata;
    use dns_wire::{Name, Question, RrType};
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn engine() -> Rootd {
        let zone = build_root_zone(
            &RootZoneConfig {
                tld_count: 10,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(5),
        );
        Rootd::new(
            Arc::new(ZoneIndex::build(Arc::new(zone))),
            SiteIdentity::named("lax2f"),
        )
    }

    fn ask(e: &Rootd, q: Message) -> Message {
        let wire = e.serve_udp(&q.to_wire()).expect("answered");
        Message::from_wire(&wire).unwrap()
    }

    #[test]
    fn soa_query_answered_authoritatively() {
        let e = engine();
        let resp = ask(
            &e,
            Message::query(7, Question::new(Name::root(), RrType::Soa)),
        );
        assert_eq!(resp.header.id, 7);
        assert!(resp.header.flags.authoritative);
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(resp.answers[0].rr_type, RrType::Soa);
    }

    #[test]
    fn dnssec_answers_carry_rrsigs() {
        let e = engine();
        let mut q = Message::query(1, Question::new(Name::root(), RrType::Dnskey));
        set_edns(&mut q, &Edns::dnssec());
        let resp = ask(&e, q);
        assert!(resp.answers.iter().any(|r| r.rr_type == RrType::Dnskey));
        assert!(resp.answers.iter().any(|r| r.rr_type == RrType::Rrsig));
        // Without DO: no signatures.
        let plain = ask(
            &e,
            Message::query(2, Question::new(Name::root(), RrType::Dnskey)),
        );
        assert!(plain.answers.iter().all(|r| r.rr_type != RrType::Rrsig));
    }

    #[test]
    fn tld_query_returns_referral() {
        let e = engine();
        let mut q = Message::query(
            3,
            Question::new(Name::parse("www.com.").unwrap(), RrType::A),
        );
        set_edns(&mut q, &Edns::dnssec());
        let resp = ask(&e, q);
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert!(!resp.header.flags.authoritative);
        assert!(resp.answers.is_empty());
        assert!(resp.authorities.iter().any(|r| r.rr_type == RrType::Ns));
        assert!(resp.authorities.iter().any(|r| r.rr_type == RrType::Ds));
        assert!(resp.additionals.iter().any(|r| r.rr_type == RrType::A));
    }

    #[test]
    fn nxdomain_has_soa_and_nsec_proof() {
        let e = engine();
        let mut q = Message::query(
            4,
            Question::new(Name::parse("nosuchtld12345.").unwrap(), RrType::A),
        );
        set_edns(&mut q, &Edns::dnssec());
        let resp = ask(&e, q);
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
        assert!(resp.authorities.iter().any(|r| r.rr_type == RrType::Soa));
        assert!(resp.authorities.iter().any(|r| r.rr_type == RrType::Nsec));
        assert!(resp.authorities.iter().any(|r| r.rr_type == RrType::Rrsig));
    }

    #[test]
    fn chaos_identity_answers() {
        let e = engine();
        let resp = ask(
            &e,
            Message::query(5, Question::chaos_txt(Name::parse("id.server.").unwrap())),
        );
        match &resp.answers[0].rdata {
            Rdata::Txt(t) => assert_eq!(t[0], b"lax2f"),
            other => panic!("unexpected {other:?}"),
        }
        let resp = ask(
            &e,
            Message::query(
                6,
                Question::chaos_txt(Name::parse("version.bind.").unwrap()),
            ),
        );
        assert_eq!(resp.header.rcode, Rcode::NoError);
        // Unknown CHAOS name refused.
        let resp = ask(
            &e,
            Message::query(7, Question::chaos_txt(Name::parse("whoami.").unwrap())),
        );
        assert_eq!(resp.header.rcode, Rcode::Refused);
    }

    #[test]
    fn udp_axfr_forces_tcp_retry() {
        let e = engine();
        let resp = ask(
            &e,
            Message::query(8, Question::new(Name::root(), RrType::Axfr)),
        );
        assert!(resp.header.flags.truncated);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn tcp_axfr_streams_whole_zone() {
        let e = engine();
        let q = Message::query(9, Question::new(Name::root(), RrType::Axfr));
        let frames = e.serve_tcp(&q.to_wire());
        assert!(frames.len() > 1 || !frames.is_empty());
        let msgs: Vec<Message> = frames
            .iter()
            .map(|f| Message::from_wire(f).unwrap())
            .collect();
        let zone = dns_zone::axfr::assemble_axfr(&msgs, &Name::root()).unwrap();
        assert_eq!(zone.len(), e.index().zone().len());
    }

    #[test]
    fn priming_response_carries_glue() {
        let e = engine();
        let resp = ask(
            &e,
            Message::query(20, Question::new(Name::root(), RrType::Ns)),
        );
        assert_eq!(resp.answers.len(), 13);
        // RFC 8109: address records for the root servers ride along.
        assert!(resp.additionals.iter().any(|r| r.rr_type == RrType::A));
        assert!(resp.additionals.iter().any(|r| r.rr_type == RrType::Aaaa));
    }

    #[test]
    fn truncation_respects_limit_and_reparses() {
        let e = engine();
        // A signed priming response (~1 kB) overflows a 512-byte budget.
        let mut q = Message::query(10, Question::new(Name::root(), RrType::Ns));
        set_edns(
            &mut q,
            &Edns {
                udp_payload_size: 512,
                dnssec_ok: true,
                ..Default::default()
            },
        );
        let wire = e.serve_udp(&q.to_wire()).unwrap();
        assert!(wire.len() <= 512, "{} bytes", wire.len());
        let resp = Message::from_wire(&wire).unwrap();
        assert!(resp.header.flags.truncated);
        // The full TCP response is bigger and complete.
        let full = Message::from_wire(&e.serve_tcp(&q.to_wire())[0]).unwrap();
        assert!(!full.header.flags.truncated);
        assert!(full.to_wire().len() > 512);
        assert!(
            full.answers.len() + full.authorities.len() + full.additionals.len()
                > resp.answers.len() + resp.authorities.len() + resp.additionals.len()
        );
    }

    #[test]
    fn malformed_bytes_get_formerr_or_drop() {
        let e = engine();
        // Shorter than a header: dropped.
        assert_eq!(e.serve_udp(&[0xab; 5]), None);
        // A header followed by garbage: FORMERR echoing the id.
        let mut junk = vec![0u8; 12];
        junk[0] = 0xde;
        junk[1] = 0xad;
        junk[4] = 0x00;
        junk[5] = 0x01; // claims one question
        junk.extend_from_slice(&[0xff, 0xff, 0xff]);
        let resp = Message::from_wire(&e.serve_udp(&junk).unwrap()).unwrap();
        assert_eq!(resp.header.id, 0xdead);
        assert_eq!(resp.header.rcode, Rcode::FormErr);
        // A stray response is dropped, not reflected (no amplification
        // loops between servers).
        let mut stray = Message::query(1, Question::new(Name::root(), RrType::Soa));
        stray.header.flags.response = true;
        assert_eq!(e.serve_udp(&stray.to_wire()), None);
    }

    #[test]
    fn multi_question_rejected() {
        let e = engine();
        let mut q = Message::query(11, Question::new(Name::root(), RrType::Soa));
        q.questions.push(Question::new(Name::root(), RrType::Ns));
        let resp = ask(&e, q);
        assert_eq!(resp.header.rcode, Rcode::FormErr);
    }

    #[test]
    fn notify_opcode_not_implemented() {
        let e = engine();
        let mut q = Message::query(12, Question::new(Name::root(), RrType::Soa));
        q.header.opcode = Opcode::Notify;
        let resp = ask(&e, q);
        assert_eq!(resp.header.rcode, Rcode::NotImp);
    }

    /// The answer-shape matrix the byte-identity tests sweep.
    fn shape_matrix() -> Vec<Vec<u8>> {
        let mut queries = Vec::new();
        for (name, rr_type) in [
            (".", RrType::Soa),
            (".", RrType::Ns),
            (".", RrType::Dnskey),
            ("com.", RrType::A),
            ("www.com.", RrType::A),
            ("nosuchtld12345.", RrType::A),
            ("deep.under.nosuchtld.", RrType::Aaaa),
        ] {
            for dnssec in [false, true] {
                let mut q = Message::query(77, Question::new(Name::parse(name).unwrap(), rr_type));
                if dnssec {
                    set_edns(&mut q, &Edns::dnssec());
                }
                queries.push(q.to_wire());
            }
        }
        queries.push(
            Message::query(78, Question::chaos_txt(Name::parse("id.server.").unwrap())).to_wire(),
        );
        queries.push(Message::query(79, Question::new(Name::root(), RrType::Axfr)).to_wire());
        queries.push(versioned_query(80, ".", RrType::Soa, 1).to_wire());
        queries
    }

    /// A DO query whose OPT record speaks EDNS version `version`.
    fn versioned_query(id: u16, name: &str, rr_type: RrType, version: u8) -> Message {
        let mut q = Message::query(id, Question::new(Name::parse(name).unwrap(), rr_type));
        let edns = Edns {
            version,
            ..Edns::dnssec()
        };
        set_edns(&mut q, &edns);
        q
    }

    /// RFC 6891 §6.1.3: an OPT record in a version this server does not
    /// speak is answered BADVERS — rcode 16, split between the OPT TTL and
    /// the header — in version 0, whatever the question.
    #[test]
    fn edns_version_above_zero_answers_badvers() {
        let e = engine();
        let cached = engine().with_answer_cache();
        for (name, rr_type) in [
            (".", RrType::Soa),
            ("com.", RrType::Ns),
            ("nosuchtld12345.", RrType::A),
            (".", RrType::Axfr),
        ] {
            let q = versioned_query(40, name, rr_type, 1);
            let wire = q.to_wire();
            let udp = e.serve_udp(&wire).expect("answered");
            let tcp = e.serve_tcp(&wire);
            assert_eq!(tcp.len(), 1, "{name} {rr_type:?}");
            assert_eq!(tcp[0], udp, "{name} {rr_type:?}: the UDP bytes");
            let resp = Message::from_wire(&udp).unwrap();
            assert_eq!(resp.header.id, 40);
            assert!(resp.header.flags.response && !resp.header.flags.truncated);
            assert_eq!(resp.header.rcode, Rcode::NoError, "low four bits of 16");
            assert_eq!(resp.questions, q.questions);
            assert!(resp.answers.is_empty() && resp.authorities.is_empty());
            assert_eq!(resp.additionals.len(), 1, "the OPT and nothing else");
            let edns = edns_of(&resp).unwrap();
            assert_eq!((edns.extended_rcode, edns.version), (1, 0));
            assert!(edns.dnssec_ok && edns.options.is_empty());
            // The cache refuses such an OPT: the twin with a cache takes
            // the same path to the same bytes.
            let mut out = Vec::new();
            assert_eq!(
                cached.serve_udp_into(&wire, &mut out),
                ServeOutcome::Fallback
            );
            assert_eq!(out, udp);
        }
        // Version 0 with the version byte's neighbours set is not BADVERS.
        let resp = ask(&e, versioned_query(41, ".", RrType::Soa, 0));
        assert_eq!(edns_of(&resp).unwrap().extended_rcode, 0);
        assert_eq!(resp.answers.len(), 2);
    }

    #[test]
    fn rrl_disabled_path_is_byte_identical_to_serve_udp_into() {
        let e = engine().with_answer_cache();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for wire in shape_matrix() {
            let outcome = e.serve_udp_into(&wire, &mut a);
            let verdict = e.serve_udp_from(0xdead, 123_456, &wire, &mut b);
            assert_eq!(verdict, ServeVerdict::Answered(outcome));
            if outcome != ServeOutcome::Dropped {
                assert_eq!(a, b, "disabled RRL diverged on {wire:?}");
            }
        }
        assert!(e.rrl().is_none());
    }

    #[test]
    fn rrl_limits_then_slips_and_tcp_stays_open() {
        let e = engine().with_rrl(RrlConfig {
            responses_limit: 2,
            slip: 2,
            ..Default::default()
        });
        let mut q = Message::query(30, Question::new(Name::root(), RrType::Dnskey));
        set_edns(&mut q, &Edns::dnssec());
        let wire = q.to_wire();
        let mut out = Vec::new();
        // Budget of 2, then the slip cadence: slip, drop, slip, …
        assert!(matches!(
            e.serve_udp_from(5, 0, &wire, &mut out),
            ServeVerdict::Answered(_)
        ));
        assert!(matches!(
            e.serve_udp_from(5, 1, &wire, &mut out),
            ServeVerdict::Answered(_)
        ));
        assert_eq!(
            e.serve_udp_from(5, 2, &wire, &mut out),
            ServeVerdict::Slipped
        );
        // The slipped reply: TC set, id echoed, no records.
        let slip = Message::from_wire(&out).unwrap();
        assert!(slip.header.flags.truncated);
        assert_eq!(slip.header.id, 30);
        assert!(slip.answers.is_empty() && slip.authorities.is_empty());
        assert_eq!(
            e.serve_udp_from(5, 3, &wire, &mut out),
            ServeVerdict::Limited
        );
        // A different source is untouched...
        assert!(matches!(
            e.serve_udp_from(6, 3, &wire, &mut out),
            ServeVerdict::Answered(_)
        ));
        // ...and TCP serves the limited source in full, always.
        let frames = e.serve_tcp(&wire);
        let full = Message::from_wire(&frames[0]).unwrap();
        assert!(!full.header.flags.truncated);
        assert!(full.answers.iter().any(|r| r.rr_type == RrType::Dnskey));
        let c = e.rrl().unwrap().counters();
        assert_eq!((c.passed, c.slipped, c.dropped), (3, 1, 1));
    }

    #[test]
    fn set_rrl_swaps_config_without_touching_cache_or_generation() {
        let e = engine().with_answer_cache();
        let gen_before = e.generation();
        e.set_rrl(Some(RrlConfig::default()));
        assert!(e.rrl().is_some());
        assert!(e.has_answer_cache());
        assert_eq!(e.generation(), gen_before);
        // Reload carries the limiter (and its counters) across epochs.
        let mut out = Vec::new();
        let wire = Message::query(1, Question::new(Name::root(), RrType::Soa)).to_wire();
        e.serve_udp_from(9, 0, &wire, &mut out);
        let checked_before = e.rrl().unwrap().counters().checked;
        e.reload(Arc::clone(e.index().zone()));
        assert_eq!(e.generation(), gen_before + 1);
        assert_eq!(e.rrl().unwrap().counters().checked, checked_before);
        // Disabling drops the limiter entirely.
        e.set_rrl(None);
        assert!(e.rrl().is_none());
    }

    #[test]
    fn try_reload_rejects_poisoned_zone_and_keeps_serving() {
        let cfg = RootZoneConfig {
            tld_count: 10,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        };
        let now = cfg.inception + 86_400;
        let zone = build_root_zone(&cfg, &ZoneKeys::from_seed(5));
        let shared = SharedState::build(Arc::new(ZoneIndex::build(Arc::new(zone.clone()))));
        let e = Rootd::with_shared_state(&shared, SiteIdentity::named("lax2f"));
        let wire = {
            let mut q = Message::query(21, Question::new(Name::root(), RrType::Dnskey));
            set_edns(&mut q, &Edns::dnssec());
            q.to_wire()
        };
        let before = e.serve_udp(&wire).unwrap();

        // A single flipped RRSIG bit must be caught before activation: the
        // generation does not move and the old epoch keeps serving,
        // byte-identically.
        let mut poisoned = zone.clone();
        dns_zone::corrupt::flip_rrsig_bit(&mut poisoned, 0xbad).expect("flippable rrsig");
        let err = shared
            .try_reload(Arc::new(poisoned), now)
            .expect_err("poisoned zone must not activate");
        // A Validating-phase zone carries a ZONEMD record, so the digest
        // check trips before RRSIG validation even runs.
        assert_eq!(err, ReloadError::Zonemd(ZonemdError::DigestMismatch));
        assert_eq!(shared.generation(), 0);
        assert_eq!(e.serve_udp(&wire).unwrap(), before);

        // A time-expired zone is also refused (stale copy, RQ3 style).
        let expired = shared
            .try_reload(Arc::new(zone.clone()), cfg.expiration + 1)
            .expect_err("expired signatures must not activate");
        assert!(matches!(expired, ReloadError::Invalid(_)));
        assert_eq!(shared.generation(), 0);

        // The clean zone sails through and bumps the epoch.
        let generation = shared.try_reload(Arc::new(zone), now).expect("valid zone");
        assert_eq!(generation, 1);
        assert_eq!(shared.generation(), 1);
        assert_eq!(e.serve_udp(&wire).unwrap(), before);
    }

    /// Every way a push can be refused, and the exact error it is refused
    /// with. Since the zone is digested once per validation, the oracle is
    /// the composition this replaced: `verify_zonemd`, then the full
    /// `validate_zone` (which digests again).
    #[test]
    fn validate_for_reload_error_table() {
        fn digested_twice(zone: &Zone, now: u32) -> Result<(), ReloadError> {
            match dns_zone::verify_zonemd(zone) {
                Ok(()) | Err(ZonemdError::NoZonemd) | Err(ZonemdError::UnsupportedAlgorithm) => {}
                Err(e) => return Err(ReloadError::Zonemd(e)),
            }
            let report = dns_zone::validate_zone(zone, now);
            if report.is_valid() {
                return Ok(());
            }
            let issues = report.issues.iter().map(|i| format!("{i:?}"));
            Err(ReloadError::Invalid(issues.collect()))
        }
        let build = |rollout| {
            let cfg = RootZoneConfig {
                tld_count: 8,
                rollout,
                ..Default::default()
            };
            (build_root_zone(&cfg, &ZoneKeys::from_seed(5)), cfg)
        };
        let (signed, cfg) = build(RolloutPhase::Validating);
        let (undigested, _) = build(RolloutPhase::NoRecord);
        let (private, _) = build(RolloutPhase::PrivateAlgorithm);
        let now = cfg.inception + 86_400;
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
            dns_zone::corrupt::flip_rrsig_bit(z, 9).expect("flippable rrsig");
        };
        let soa = |z: &Zone| z.rrset(&Name::root(), RrType::Soa)[0].clone();
        let zonemd = |e| Err(ReloadError::Zonemd(e));
        // An RRSIG refusal lists every finding; the table pins the first.
        let invalid = |first: &str| Err(ReloadError::Invalid(vec![first.to_string()]));

        let cases = [
            ("no ZONEMD", undigested.clone(), now, Ok(())),
            ("private algorithm", private, now, Ok(())),
            ("valid", signed.clone(), now, Ok(())),
            (
                "digest mismatch",
                edit(&signed, &reglue),
                now,
                zonemd(ZonemdError::DigestMismatch),
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
                zonemd(ZonemdError::SerialMismatch {
                    soa: cfg.serial + 1,
                    zonemd: cfg.serial,
                }),
            ),
            (
                "missing SOA",
                edit(&signed, &|z| {
                    z.remove_rrset(&Name::root(), RrType::Soa);
                }),
                now,
                zonemd(ZonemdError::BadZone("zone has no SOA record".into())),
            ),
            (
                "duplicate SOA",
                edit(&signed, &|z| z.push(soa(z)).unwrap()),
                now,
                zonemd(ZonemdError::BadZone("zone has multiple SOA records".into())),
            ),
            (
                "RRSIG bit-flip under a digest",
                edit(&signed, &flip),
                now,
                zonemd(ZonemdError::DigestMismatch),
            ),
            (
                "RRSIG bit-flip, no digest",
                edit(&undigested, &flip),
                now,
                invalid("BogusSignature { owner: \"j.root-servers.net.\", covered: Nsec }"),
            ),
            (
                "expired",
                signed.clone(),
                cfg.expiration + 1,
                invalid("SignatureExpired { owner: \".\", covered: Ns }"),
            ),
            (
                "not incepted",
                signed.clone(),
                cfg.inception - 1,
                invalid("SignatureNotIncepted { owner: \".\", covered: Ns }"),
            ),
            (
                "digest mismatch and RRSIG bit-flip",
                edit(&edit(&signed, &reglue), &flip),
                now,
                zonemd(ZonemdError::DigestMismatch),
            ),
        ];
        for (case, zone, clock, want) in cases {
            let got = validate_for_reload(&zone, clock);
            assert_eq!(got, digested_twice(&zone, clock), "{case}");
            let first_only = match got {
                Err(ReloadError::Invalid(mut issues)) => {
                    issues.truncate(1);
                    Err(ReloadError::Invalid(issues))
                }
                other => other,
            };
            assert_eq!(first_only, want, "{case}");
        }
    }

    /// Three entry points, one publish step: every reload, validated or
    /// not, through the shared state or through a sharing engine, mints a
    /// generation of its own.
    #[test]
    fn concurrent_reloads_mint_each_generation_exactly_once() {
        let cfg = RootZoneConfig {
            tld_count: 8,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        };
        let now = cfg.inception + 86_400;
        let zone = Arc::new(build_root_zone(&cfg, &ZoneKeys::from_seed(5)));
        let shared = SharedState::build(Arc::new(ZoneIndex::build(Arc::clone(&zone))));
        let engine = Rootd::with_shared_state(&shared, SiteIdentity::named("lax2f"));
        const THREADS: usize = 8;
        const RELOADS: usize = 4;
        let start = std::sync::Barrier::new(THREADS);
        let mut minted: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (shared, engine, zone, start) = (&shared, &engine, &zone, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..RELOADS)
                            .map(|i| match (t + i) % 3 {
                                0 => shared.reload(Arc::clone(zone)),
                                1 => shared.try_reload(Arc::clone(zone), now).expect("valid"),
                                _ => engine.reload(Arc::clone(zone)),
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reloader panicked"))
                .collect()
        });
        minted.sort_unstable();
        let all: Vec<u64> = (1..=(THREADS * RELOADS) as u64).collect();
        assert_eq!(minted, all);
        assert_eq!(shared.generation(), all.len() as u64);
    }

    /// A config swap racing zone pushes keeps every push: `set_rrl` once
    /// cloned the state under a read guard and wrote the clone back under
    /// a later write guard, so a reload landing between the two was
    /// replaced by the epoch it had displaced — the generation went
    /// backwards and a stale zone served again.
    #[test]
    fn set_rrl_racing_reloads_never_republishes_a_displaced_epoch() {
        const RELOADS: u32 = 12;
        const SETTERS: usize = 3;
        let zone_of = |serial| {
            let cfg = RootZoneConfig {
                serial,
                tld_count: 8,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            };
            Arc::new(build_root_zone(&cfg, &ZoneKeys::from_seed(5)))
        };
        let first_serial = 2_023_112_000;
        let zones: Vec<Arc<Zone>> = (1..=RELOADS).map(|i| zone_of(first_serial + i)).collect();
        let shared = SharedState::build(Arc::new(ZoneIndex::build(zone_of(first_serial))));
        let engine = Rootd::with_shared_state(&shared, SiteIdentity::named("lax2f"));
        let start = std::sync::Barrier::new(SETTERS + 2);
        let done = AtomicBool::new(false);
        // Nothing asserts before `done` is set: a failure must end the
        // spinning threads, not strand them.
        let (minted, observed) = std::thread::scope(|scope| {
            for t in 0..SETTERS {
                let (engine, start, done) = (&engine, &start, &done);
                scope.spawn(move || {
                    start.wait();
                    let mut on = t % 2 == 0;
                    while !done.load(Ordering::SeqCst) {
                        engine.set_rrl(on.then(RrlConfig::default));
                        on = !on;
                    }
                });
            }
            let observer = {
                let (engine, start, done) = (&engine, &start, &done);
                scope.spawn(move || {
                    start.wait();
                    let mut observed = vec![engine.generation()];
                    while !done.load(Ordering::SeqCst) {
                        let generation = engine.generation();
                        if observed.last() != Some(&generation) {
                            observed.push(generation);
                        }
                    }
                    observed
                })
            };
            start.wait();
            let minted: Vec<u64> = (zones.iter())
                .map(|zone| shared.reload(Arc::clone(zone)))
                .collect();
            done.store(true, Ordering::SeqCst);
            (minted, observer.join().expect("observer"))
        });
        assert_eq!(minted, (1..=u64::from(RELOADS)).collect::<Vec<u64>>());
        assert!(observed.windows(2).all(|w| w[0] < w[1]), "{observed:?}");
        assert_eq!(engine.generation(), u64::from(RELOADS));
        assert_eq!(engine.index().serial(), first_serial + RELOADS);
    }

    #[test]
    fn shared_state_engine_is_byte_identical_to_standalone() {
        let zone = build_root_zone(
            &RootZoneConfig {
                tld_count: 10,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(5),
        );
        let index = Arc::new(ZoneIndex::build(Arc::new(zone)));
        let standalone =
            Rootd::new(Arc::clone(&index), SiteIdentity::named("lax2f")).with_answer_cache();
        let shared = SharedState::build(index);
        let sharer = Rootd::with_shared_state(&shared, SiteIdentity::named("lax2f"));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for wire in shape_matrix() {
            let oa = standalone.serve_udp_into(&wire, &mut a);
            let ob = sharer.serve_udp_into(&wire, &mut b);
            assert_eq!(oa, ob, "outcome diverged on {wire:?}");
            if oa != ServeOutcome::Dropped {
                assert_eq!(a, b, "bytes diverged on {wire:?}");
            }
        }
        // The per-engine CHAOS shapes serve identity from the cache path
        // even though the shared answer cache is identity-free.
        let chaos =
            Message::query(80, Question::chaos_txt(Name::parse("id.server.").unwrap())).to_wire();
        assert_eq!(
            sharer.serve_udp_into(&chaos, &mut b),
            ServeOutcome::CacheHit
        );
    }

    #[test]
    fn serve_udp_batch_matches_one_shot_serves() {
        let zone = build_root_zone(
            &RootZoneConfig {
                tld_count: 10,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(5),
        );
        let shared = SharedState::build(Arc::new(ZoneIndex::build(Arc::new(zone))));
        let e = Rootd::with_shared_state(&shared, SiteIdentity::named("lax2f"));
        let queries = shape_matrix();
        let mut batch = crate::transport::UdpBatch::new();
        for wire in &queries {
            batch.push_request(wire);
        }
        let tally = e.serve_udp_batch(&mut batch);
        assert_eq!(
            tally.hits + tally.fallbacks + tally.dropped,
            queries.len() as u64
        );
        assert!(tally.hits > 0);
        let mut one_shot = Vec::new();
        for (i, wire) in queries.iter().enumerate() {
            let outcome = e.serve_udp_into(wire, &mut one_shot);
            match batch.response(i) {
                Some(resp) => {
                    assert_ne!(outcome, ServeOutcome::Dropped);
                    assert_eq!(resp, &one_shot[..], "batch diverged on {wire:?}");
                }
                None => assert_eq!(outcome, ServeOutcome::Dropped),
            }
        }
        // A second fill after clear() reuses the slabs correctly.
        batch.clear();
        assert!(batch.is_empty());
        for wire in &queries {
            batch.push_request(wire);
        }
        let again = e.serve_udp_batch(&mut batch);
        assert_eq!(again, tally);
    }

    #[test]
    fn nsid_echoes_site_identity() {
        let e = engine();
        let mut q = Message::query(13, Question::new(Name::root(), RrType::Soa));
        set_edns(&mut q, &Edns::dnssec().with_nsid_request());
        let resp = ask(&e, q);
        let edns = edns_of(&resp).unwrap();
        assert_eq!(edns.nsid(), Some(b"lax2f".as_slice()));
        assert_eq!(edns.udp_payload_size as usize, MAX_UDP_PAYLOAD);
    }

    /// Strategy: a query the serve path has something to say about — a
    /// zone name, a name below a cut or junk, in either case; any of a few
    /// qtypes and classes; no EDNS, or an OPT of any payload, version and
    /// DO with or without an NSID request.
    fn some_query() -> impl proptest::prelude::Strategy<Value = Message> {
        use proptest::prelude::*;
        let label = proptest::collection::vec(0usize..38, 1..12).prop_map(|picks| {
            let alphabet = b"abcdefghijklmnopqrstuvwxyzABCDEFGH-0";
            picks.iter().map(|&p| alphabet[p % 36]).collect::<Vec<u8>>()
        });
        let known = prop_oneof![
            Just(&b"com"[..]),
            Just(&b"NET"[..]),
            Just(&b"root-servers"[..]),
            Just(&b"ns0"[..]),
            Just(&b"a"[..]),
            Just(&b"bind"[..]),
            Just(&b"hostname"[..]),
        ];
        let label = prop_oneof![label, known.prop_map(<[u8]>::to_vec)];
        let name = proptest::collection::vec(label, 0..5)
            .prop_map(|labels| Name::from_labels(labels).expect("short labels"));
        let qtype = prop_oneof![0u16..70, Just(252), Just(255), any::<u16>()];
        let class = prop_oneof![Just(1u16), Just(1), Just(3), any::<u16>()];
        let edns = (any::<u16>(), 0u8..3, any::<bool>(), any::<bool>());
        (
            any::<u16>(),
            name,
            qtype,
            class,
            0u8..3,
            edns,
            any::<bool>(),
        )
            .prop_map(
                |(id, name, qtype, class, with_edns, (payload, version, dnssec_ok, nsid), rd)| {
                    let question = Question {
                        name,
                        rr_type: RrType::from_u16(qtype),
                        class: dns_wire::Class::from_u16(class),
                    };
                    let mut q = Message::query(id, question);
                    q.header.flags.recursion_desired = rd;
                    if with_edns > 0 {
                        let edns = Edns {
                            udp_payload_size: payload,
                            version: version / 2,
                            dnssec_ok,
                            ..Default::default()
                        };
                        let edns = if nsid && with_edns > 1 {
                            edns.with_nsid_request()
                        } else {
                            edns
                        };
                        set_edns(&mut q, &edns);
                    }
                    q
                },
            )
    }

    /// `bytes` with a plausible query header grafted on when `header` asks
    /// for one and there is room: most random bytes fail the header
    /// checks.
    fn grafted(mut bytes: Vec<u8>, header: bool) -> Vec<u8> {
        if header && bytes.len() >= 12 {
            bytes[2] &= 0x01;
            let arcount = bytes[11] & 1;
            bytes[4..12].copy_from_slice(&[0, 1, 0, 0, 0, 0, 0, arcount]);
        }
        bytes
    }

    /// `q` on the wire as asked (`how` 0), with the byte at `at` flipped
    /// by `flip` (1), or cut to `cut` bytes (2).
    fn mutated(q: &Message, at: usize, flip: u8, cut: usize, how: u8) -> Vec<u8> {
        let mut wire = q.to_wire();
        match how {
            0 => {}
            1 => {
                let at = at % wire.len();
                wire[at] ^= flip;
            }
            _ => wire.truncate(cut % (wire.len() + 1)),
        }
        wire
    }

    /// Strategy: a hostile datagram — arbitrary bytes, a plausible header
    /// grafted on some — or a [`some_query`] as asked, flipped or cut.
    fn hostile_datagram() -> impl proptest::prelude::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        let junk = (proptest::collection::vec(any::<u8>(), 0..80), any::<bool>())
            .prop_map(|(bytes, header)| grafted(bytes, header));
        let query = (some_query(), 0usize..400, 1u8..=255, 0usize..400, 0u8..3)
            .prop_map(|(q, at, flip, cut, how)| mutated(&q, at, flip, cut, how));
        prop_oneof![junk, query]
    }

    /// Whether `reply` reparses with the section counts its header claims.
    fn reparses(reply: &[u8]) -> Result<(), proptest::prelude::TestCaseError> {
        let msg = Message::from_wire(reply)
            .map_err(|e| proptest::prelude::TestCaseError::fail(format!("{e}: {reply:?}")))?;
        let counts =
            [4, 6, 8, 10].map(|at| u16::from_be_bytes([reply[at], reply[at + 1]]) as usize);
        let sections = [
            msg.questions.len(),
            msg.answers.len(),
            msg.authorities.len(),
            msg.additionals.len(),
        ];
        proptest::prop_assert_eq!(counts, sections);
        Ok(())
    }

    /// Whatever `serve_udp_into` answers `request` reparses, and within
    /// the budget the request advertises (512 bytes unless a parseable OPT
    /// says otherwise).
    fn assert_reply_is_sound(
        e: &Rootd,
        request: &[u8],
    ) -> Result<(), proptest::prelude::TestCaseError> {
        use proptest::prelude::TestCaseError;
        let mut out = Vec::new();
        if e.serve_udp_into(request, &mut out) == ServeOutcome::Dropped {
            return Ok(());
        }
        let reply =
            Message::from_wire(&out).map_err(|e| TestCaseError::fail(format!("{e}: {out:?}")))?;
        let asked = Message::from_wire(request).ok();
        let budget = asked.as_ref().and_then(edns_of).map_or(512, |edns| {
            (edns.udp_payload_size as usize).clamp(MIN_UDP_PAYLOAD, MAX_UDP_PAYLOAD)
        });
        if out.len() > budget || !reply.header.flags.response {
            let len = out.len();
            return Err(TestCaseError::fail(format!("{len} bytes, budget {budget}")));
        }
        if out[..2] != request[..2] {
            return Err(TestCaseError::fail("id not echoed"));
        }
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_datagrams_never_panic_and_replies_reparse(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
            // Most random bytes fail the header checks: graft a plausible
            // header on half of them.
            header in proptest::prelude::any::<bool>(),
        ) {
            let bytes = grafted(bytes, header);
            for e in [engine(), engine().with_answer_cache()] {
                assert_reply_is_sound(&e, &bytes)?;
            }
        }

        #[test]
        fn mutated_valid_datagrams_never_panic_and_replies_reparse(
            q in some_query(),
            at in 0usize..400,
            flip in 0u8..=255,
            cut in 0usize..400,
        ) {
            let plain = engine();
            let cached = engine().with_answer_cache();
            let mut wire = q.to_wire();
            for round in 0..3 {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let outcome = plain.serve_udp_into(&wire, &mut a);
                // A cache changes the path, never the verdict or a byte.
                let cached_outcome = cached.serve_udp_into(&wire, &mut b);
                proptest::prop_assert_eq!(
                    outcome == ServeOutcome::Dropped,
                    cached_outcome == ServeOutcome::Dropped
                );
                if outcome != ServeOutcome::Dropped {
                    proptest::prop_assert_eq!(&a, &b);
                }
                assert_reply_is_sound(&plain, &wire)?;
                let _ = plain.serve_tcp(&wire);
                // Then one flipped byte, then a truncation on top.
                match round {
                    0 => {
                        let at = at % wire.len();
                        wire[at] ^= flip;
                    }
                    _ => wire.truncate(cut % (wire.len() + 1)),
                }
            }
        }

        /// The zero-copy parse and the full parse lead to the same view:
        /// whatever `FastQuery::parse` accepts is answered byte for byte
        /// the same when forced through `Message::from_wire` and the
        /// adapter.
        #[test]
        fn canonical_requests_answer_the_same_through_the_adapter(q in some_query()) {
            let e = engine();
            let wire = q.to_wire();
            let state = e.shared.state.read();
            let (mut fast, mut adapted) = (Vec::new(), Vec::new());
            let lc = &mut [0; MAX_QNAME];
            if FastQuery::parse(&wire, lc).is_some() {
                let scratch = &mut Vec::new();
                let outcome = e.serve_locked(&state, &wire, lc, scratch, &mut fast);
                proptest::prop_assert_eq!(outcome, ServeOutcome::Fallback);
                let outcome = e.serve_uncanonical(&state, &wire, lc, scratch, &mut adapted);
                proptest::prop_assert_eq!(outcome, ServeOutcome::Fallback);
                proptest::prop_assert_eq!(fast, adapted);
            }
        }

        /// The batched path on hostile bytes, over generated zones (1–63
        /// TLDs, every roll-out phase, any signing key), for an uncached
        /// engine and a farm-style one: a slab of arbitrary datagrams and
        /// of valid queries flipped or cut is served without a panic,
        /// every reply reparses with the section counts its header claims,
        /// and each is byte for byte the one-shot answer to its request —
        /// drops included.
        #[test]
        fn batched_hostile_datagrams_over_generated_zones(
            tld_count in 1usize..64,
            phase in 0usize..3,
            key_seed in proptest::prelude::any::<u64>(),
            slab in proptest::collection::vec(hostile_datagram(), 1..20),
        ) {
            let phases = [
                RolloutPhase::NoRecord,
                RolloutPhase::PrivateAlgorithm,
                RolloutPhase::Validating,
            ];
            let zone = build_root_zone(
                &RootZoneConfig {
                    tld_count,
                    rollout: phases[phase],
                    ..Default::default()
                },
                &ZoneKeys::from_seed(key_seed),
            );
            let index = Arc::new(ZoneIndex::build(Arc::new(zone)));
            let shared = SharedState::build(Arc::clone(&index));
            let engines = [
                Rootd::new(index, SiteIdentity::named("lax2f")),
                Rootd::with_shared_state(&shared, SiteIdentity::named("lax2f")),
            ];
            for engine in &engines {
                let mut batch = crate::transport::UdpBatch::new();
                for datagram in &slab {
                    batch.push_request(datagram);
                }
                let tally = engine.serve_udp_batch(&mut batch);
                proptest::prop_assert_eq!(
                    tally.hits + tally.fallbacks + tally.dropped,
                    slab.len() as u64
                );
                let mut one_shot = Vec::new();
                for (i, datagram) in slab.iter().enumerate() {
                    let outcome = engine.serve_udp_into(datagram, &mut one_shot);
                    let Some(reply) = batch.response(i) else {
                        proptest::prop_assert_eq!(outcome, ServeOutcome::Dropped);
                        continue;
                    };
                    proptest::prop_assert_ne!(outcome, ServeOutcome::Dropped);
                    proptest::prop_assert_eq!(reply, &one_shot[..]);
                    reparses(reply)?;
                }
            }
        }

        /// `serve_udp_from` with RRL on, on hostile bytes from arbitrary
        /// sources at arbitrary instants, through an uncached and a cached
        /// engine: every verdict is the one the fixed-window rule gives the
        /// response `serve_udp_into` writes — an answer is that response
        /// byte for byte, a slip the minimal TC reply, a drop a drop — the
        /// limiter's counters add up to those verdicts, and its bucket
        /// table holds exactly one counter per (masked source, class,
        /// window) it was asked about: bounded by the responses it checked,
        /// whatever sources a flood claims.
        #[test]
        fn rrl_serves_hostile_datagrams_from_arbitrary_sources(
            arrivals in proptest::collection::vec(
                (
                    hostile_datagram(),
                    proptest::prop_oneof![0u64..4, proptest::prelude::any::<u64>()],
                    0u64..3_000,
                ),
                1..40,
            ),
            limits in (0u32..4, 0u32..4, 0u32..3),
            slip in 0u32..3,
            prefix_shift in 0u32..64,
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let cfg = RrlConfig {
                responses_limit: limits.0,
                nxdomain_limit: limits.1,
                error_limit: limits.2,
                slip,
                prefix_shift,
                ..Default::default()
            };
            let plain = engine();
            let engines = [engine(), engine().with_answer_cache()];
            for limited in engines.map(|e| e.with_rrl(cfg.clone())) {
                let mut buckets = std::collections::HashMap::new();
                let mut verdicts = RrlCounters::default();
                let (mut want, mut out, mut slipped) = (Vec::new(), Vec::new(), Vec::new());
                for (datagram, src, t_ms) in &arrivals {
                    let verdict = limited.serve_udp_from(*src, *t_ms, datagram, &mut out);
                    if plain.serve_udp_into(datagram, &mut want) == ServeOutcome::Dropped {
                        prop_assert_eq!(verdict, ServeVerdict::Dropped);
                        continue;
                    }
                    verdicts.checked += 1;
                    let class = ResponseClass::of(&want);
                    let limit = u64::from(cfg.limit_for(class));
                    // The arrival's number in its bucket; an unlimited
                    // class keeps no bucket.
                    let n = match limit {
                        0 => 0,
                        _ => {
                            let key = (src >> prefix_shift, class, cfg.window_of(*t_ms));
                            let n = buckets.entry(key).or_insert(0u64);
                            *n += 1;
                            *n
                        }
                    };
                    if n <= limit {
                        verdicts.passed += 1;
                        prop_assert!(matches!(verdict, ServeVerdict::Answered(_)), "{verdict:?}");
                        prop_assert_eq!(&out, &want);
                    } else if slip > 0 && (n - limit - 1).is_multiple_of(u64::from(slip)) {
                        verdicts.slipped += 1;
                        if rrl::write_slip(datagram, &mut slipped) {
                            prop_assert_eq!(verdict, ServeVerdict::Slipped);
                            prop_assert_eq!(&out, &slipped);
                            reparses(&out)?;
                        } else {
                            prop_assert_eq!(verdict, ServeVerdict::Limited);
                        }
                    } else {
                        verdicts.dropped += 1;
                        prop_assert_eq!(verdict, ServeVerdict::Limited);
                    }
                }
                let rrl = limited.rrl().expect("RRL on");
                prop_assert_eq!(rrl.counters(), verdicts);
                prop_assert_eq!(rrl.buckets(), buckets.len());
                prop_assert!(buckets.len() as u64 <= verdicts.checked);
            }
        }

        /// `serve_tcp` on hostile bytes, through an uncached and a cached
        /// engine: no panic, the same messages from both, each reparsing
        /// with the section counts its header claims, echoing the request
        /// id and never truncated; one message at most but for a zone
        /// transfer; nothing where UDP drops; and where UDP answers a
        /// request that is no transfer in full (TC clear), TCP sends those
        /// very bytes.
        #[test]
        fn tcp_serves_hostile_datagrams(
            datagrams in proptest::collection::vec(hostile_datagram(), 1..8),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let (plain, cached) = (engine(), engine().with_answer_cache());
            let mut udp = Vec::new();
            for datagram in &datagrams {
                let messages = plain.serve_tcp(datagram);
                prop_assert_eq!(&messages, &cached.serve_tcp(datagram));
                for message in &messages {
                    reparses(message)?;
                    prop_assert_eq!(&message[..2], &datagram[..2]);
                    prop_assert_eq!(message[2] & 0x02, 0, "TC over TCP");
                }
                let transfer = Message::from_wire(datagram)
                    .is_ok_and(|q| q.questions.iter().any(|q| q.rr_type == RrType::Axfr));
                if transfer {
                    continue;
                }
                prop_assert!(messages.len() <= 1, "{} messages", messages.len());
                match plain.serve_udp_into(datagram, &mut udp) {
                    ServeOutcome::Dropped => prop_assert!(messages.is_empty()),
                    _ if udp[2] & 0x02 == 0 => prop_assert_eq!(&messages, &vec![udp.clone()]),
                    _ => {}
                }
            }
        }
    }
}
