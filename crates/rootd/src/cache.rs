//! Precompiled answer cache: the zero-allocation UDP fast path.
//!
//! At build time every reachable answer shape — (qname, qtype) × EDNS
//! state {none, EDNS, EDNS+DO} — is run through the exact same answerer
//! and encoder the fallback path uses (`crate::answer`) and the resulting
//! wire bytes are stored, together with pre-truncated variants at the EDNS
//! budget buckets {512, 1232, 4096}. The qtypes that resolve to one answer at a
//! name share its stored bytes (see `NameEntry`): the splice below
//! rewrites the question anyway. Serving a hit is then a hash lookup plus a
//! splice: **append** the stored bytes to the caller's buffer — the batch's
//! response slab itself on the batched path, so a response is copied once,
//! from the cache to where it is sent from — and patch the message id, the
//! RD bit, and the question region there (which preserves the client's
//! qname casing; compression pointers into the question stay valid because
//! suffix matching is case-insensitive). A serve function that declines
//! leaves the buffer untouched.
//!
//! The lookup key is the lowercased qname with its root byte, borrowed
//! from the request whenever that is lower-case already (`crate::query`,
//! "Key layout"). The exact-name table and each template's excluded
//! suffixes hash through `crate::hash::ZoneHasher`, a word-wise unkeyed
//! hash: sound because both are filled from the zone at build time and
//! queries only ever look up — see that type for the HashDoS argument and
//! for the one map (`crate::rrl`'s buckets) that must keep SipHash.
//!
//! NXDOMAIN cannot be enumerated — junk qnames are unbounded — so it is
//! served from *templates*: one pre-encoded negative response per NSEC
//! chain link, built against a root (".") question, with every
//! compression pointer logged so the tail can be relocated when the real
//! qname is longer than one byte. A template refuses (falls back) when
//! the qname shares a label suffix with any record name in the response,
//! because the fallback encoder would compress against the question there
//! and produce different — equally valid — bytes.
//!
//! Everything else is resolved and encoded per query: AXFR, payload
//! budgets that are neither a bucket nor large enough for the full
//! response, and names below a delegation (referral qnames are unbounded
//! too, and cold) — and what `FastQuery::parse` does not take at all
//! (NSID requests, non-canonical OPT records, malformed requests) never
//! gets here.

use crate::answer::{encode, encode_into, Answerer, CHAOS_NAMES};
use crate::hash::{ZoneMap, ZoneSet};
use crate::index::{Lookup, RrsetEntry, ZoneIndex};
use crate::query::{FastQuery, MAX_QNAME};
use dns_wire::wire::WireWriter;
use dns_wire::{Class, Name, Rcode, RrType};

/// Offset where the question section of a message ends when the qname is
/// the 1-byte root: 12-byte header + 1 + qtype (2) + qclass (2).
const ROOT_QEND: usize = 17;

/// EDNS budget buckets with pre-truncated variants. Clients overwhelmingly
/// advertise one of these (RFC 1035 floor, the flag-day 1232, our own
/// 4096 ceiling); anything else falls back when the full response is over
/// budget.
const BUCKETS: [usize; 3] = [512, 1232, 4096];

/// Qtypes precompiled per zone name. Covers every type the zone can hold
/// plus the common NODATA probes; other types fall back (and answer
/// NODATA/REFUSED identically, just slower).
const CACHED_QTYPES: [RrType; 13] = [
    RrType::A,
    RrType::Ns,
    RrType::Cname,
    RrType::Soa,
    RrType::Mx,
    RrType::Txt,
    RrType::Aaaa,
    RrType::Ds,
    RrType::Rrsig,
    RrType::Nsec,
    RrType::Dnskey,
    RrType::Zonemd,
    RrType::Any,
];

/// Where one pre-encoded response lies in its name's byte arena. A zero
/// length means "not stored": a DNS message is never shorter than its
/// 12-byte header.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// Append `bytes` to `arena` and return where they landed.
    fn push(arena: &mut Vec<u8>, bytes: &[u8]) -> Span {
        let span = Span {
            start: arena.len() as u32,
            len: bytes.len() as u32,
        };
        arena.extend_from_slice(bytes);
        span
    }

    fn of<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        &arena[self.start as usize..][..self.len as usize]
    }
}

/// One fully pre-encoded response, with truncated variants for every
/// budget bucket it overflows.
#[derive(Debug, Clone, Copy, Default)]
struct ResponseSet {
    full: Span,
    /// Indexed like [`BUCKETS`]; stored only where `full` overflows.
    truncated: [Span; BUCKETS.len()],
}

impl ResponseSet {
    /// The stored bytes to serve under `limit`, if any: the full response
    /// when it fits, the exact bucket variant when the budget is a bucket,
    /// fallback otherwise.
    fn select<'a>(&self, limit: usize, arena: &'a [u8]) -> Option<&'a [u8]> {
        if self.full.len as usize <= limit {
            return Some(self.full.of(arena));
        }
        let bucket = BUCKETS.iter().position(|&b| b == limit)?;
        let variant = self.truncated[bucket];
        (variant.len > 0).then(|| variant.of(arena))
    }

    fn spans(&self) -> impl Iterator<Item = Span> {
        std::iter::once(self.full).chain(self.truncated)
    }
}

/// Most shapes one name holds: every cached qtype, plus a CHAOS identity
/// shape should an identity name also be a zone name.
const MAX_SHAPES: usize = CACHED_QTYPES.len() + 1;

/// One (qtype, class) answered at a name, and which of the name's distinct
/// answers it gets.
#[derive(Debug, Clone, Copy, Default)]
struct ShapeRef {
    qtype: u16,
    class: u16,
    set: u16,
}

/// Everything precompiled at one qname. Most qtypes at a name resolve to
/// the same answer — at a delegated TLD eleven of the thirteen cached
/// types get the referral, below a cut all thirteen do, at the apex every
/// absent type gets the same NODATA — and [`splice_request`] overwrites
/// the whole question, qtype included, at serve time. So each *distinct*
/// answer is pre-encoded once and the qtypes resolving to it share it.
///
/// The shape table lies inline (the lookup that found the entry has
/// already loaded it), and all of a name's response bytes share one arena:
/// a hit is still hash lookup → descriptor → bytes, and a displaced epoch
/// frees two allocations per name.
#[derive(Debug)]
struct NameEntry {
    shapes: [ShapeRef; MAX_SHAPES],
    nshapes: u8,
    /// The distinct answers, each indexed by EDNS state: 0 = no EDNS,
    /// 1 = EDNS, 2 = EDNS+DO.
    sets: Box<[[ResponseSet; 3]]>,
    arena: Box<[u8]>,
}

impl NameEntry {
    /// Precompile `shapes` at `name` by running each distinct answer
    /// through `answerer` — the code the fallback path executes.
    fn build(
        answerer: &Answerer<'_>,
        name: &Name,
        shapes: &[(RrType, Class)],
        scratch: &mut Scratch,
    ) -> NameEntry {
        assert!(shapes.len() <= MAX_SHAPES, "{name}: {shapes:?}");
        let mut table = [ShapeRef::default(); MAX_SHAPES];
        // What each set built so far answers, for the IN shapes: two
        // qtypes share a set exactly when `ZoneIndex::lookup` hands both
        // the same thing.
        let mut built: Vec<(Lookup<'_>, u16)> = Vec::new();
        let Scratch { bytes, sets, arena } = scratch;
        sets.clear();
        arena.clear();
        let mut canonical = None;
        for (slot, &(qtype, class)) in table.iter_mut().zip(shapes) {
            let lookup = (class == Class::In).then(|| {
                let key = canonical.get_or_insert_with(|| name.canonical());
                answerer.index.lookup(key.as_wire(), qtype)
            });
            let shared = lookup.as_ref().and_then(|l| {
                let (_, set) = built.iter().find(|(b, _)| same_answer(b, l))?;
                Some(*set)
            });
            let set = shared.unwrap_or_else(|| {
                let set = sets.len() as u16;
                sets.push(build_set(answerer, name, qtype, class, arena, bytes));
                built.extend(lookup.map(|l| (l, set)));
                set
            });
            debug_assert!(
                shared.is_none() || {
                    let mut own = Vec::new();
                    let rebuilt = build_set(answerer, name, qtype, class, &mut own, bytes);
                    differ_in_qtype_only(name, (&sets[set as usize], arena), (&rebuilt, &own))
                },
                "{name} {qtype:?} does not share the answer it resolves to"
            );
            *slot = ShapeRef {
                qtype: qtype.to_u16(),
                class: class.to_u16(),
                set,
            };
        }
        NameEntry {
            shapes: table,
            nshapes: shapes.len() as u8,
            sets: sets.as_slice().into(),
            arena: arena.as_slice().into(),
        }
    }

    /// The stored response for `q`'s (qtype, class, EDNS state, budget).
    fn select(&self, q: &FastQuery<'_>) -> Option<&[u8]> {
        let shape = self.shapes[..self.nshapes as usize]
            .iter()
            .find(|s| s.qtype == q.qtype && s.class == q.class)?;
        self.sets[shape.set as usize][q.state].select(q.limit, &self.arena)
    }

    /// Append this entry's answer to `q` to `out`; false (with `out`
    /// untouched) when the shape or the budget is not stored.
    fn serve(&self, req: &[u8], q: &FastQuery<'_>, out: &mut Vec<u8>) -> bool {
        let Some(bytes) = self.select(q) else {
            return false;
        };
        let base = out.len();
        out.extend_from_slice(bytes);
        splice_request(req, q.lc.len(), &mut out[base..]);
        true
    }
}

/// What one builder reuses from name to name: the encode buffer, and the
/// sets and byte arena a name's responses collect in before they are
/// copied out at their final size.
#[derive(Default)]
struct Scratch {
    bytes: Vec<u8>,
    sets: Vec<[ResponseSet; 3]>,
    arena: Vec<u8>,
}

/// Whether two lookups at one name produce the same response but for the
/// question's qtype: the same RRset, the same referral, or the same
/// negative answer (whose NSEC proof depends on the name alone).
fn same_answer(a: &Lookup<'_>, b: &Lookup<'_>) -> bool {
    match (a, b) {
        (Lookup::Answer(x), Lookup::Answer(y)) => std::ptr::eq(*x, *y),
        (Lookup::Referral(x), Lookup::Referral(y)) => std::ptr::eq(*x, *y),
        (Lookup::NoData, Lookup::NoData) | (Lookup::NxDomain, Lookup::NxDomain) => true,
        _ => false,
    }
}

/// The sharing rule, checked where it is applied: a set built for one
/// qtype and the set built for another that resolves to the same answer
/// must agree in every stored byte except the question's two qtype bytes.
fn differ_in_qtype_only(
    name: &Name,
    (a, a_arena): (&[ResponseSet; 3], &[u8]),
    (b, b_arena): (&[ResponseSet; 3], &[u8]),
) -> bool {
    let qtype_at = 12 + name.wire_len();
    let masked = |bytes: &[u8]| {
        let mut v = bytes.to_vec();
        if let Some(qtype) = v.get_mut(qtype_at..qtype_at + 2) {
            qtype.fill(0);
        }
        v
    };
    a.iter().zip(b).all(|(a, b)| {
        a.spans()
            .zip(b.spans())
            .all(|(x, y)| masked(x.of(a_arena)) == masked(y.of(b_arena)))
    })
}

/// A parametric negative response: pre-encoded against a root question,
/// relocated to the real qname at serve time.
#[derive(Debug)]
struct NegTemplate {
    /// The 12-byte header (id and RD patched per query).
    head: [u8; 12],
    /// Everything after the question section.
    tail: Box<[u8]>,
    /// Compression pointers inside the tail, as (offset from tail start of
    /// the 2-byte pointer, original target). Targets shift by the qname
    /// length delta at serve time.
    fixups: Box<[(u16, u16)]>,
    /// Label-suffix keys (see [`WireWriter::compressed_suffixes`]) the
    /// response's record names registered. A qname with any of these as a
    /// suffix would compress differently — fall back.
    excluded: ZoneSet<Vec<u8>>,
}

impl NegTemplate {
    /// Append the template relocated to `q`'s qname to `out`; false (with
    /// `out` untouched) when it does not fit the budget or the qname would
    /// compress against a record name.
    fn emit(&self, req: &[u8], q: &FastQuery<'_>, out: &mut Vec<u8>) -> bool {
        let qend = 12 + q.lc.len() + 4;
        if qend + self.tail.len() > q.limit {
            return false;
        }
        let name = q.name_lc();
        let mut start = 0;
        while start < name.len() {
            if self.excluded.contains(&name[start..]) {
                return false;
            }
            start += 1 + name[start] as usize;
        }
        let base = out.len();
        let mut head = self.head;
        head[0] = req[0];
        head[1] = req[1];
        head[2] = (head[2] & !0x01) | (req[2] & 0x01);
        out.extend_from_slice(&head);
        out.extend_from_slice(&req[12..qend]);
        out.extend_from_slice(&self.tail);
        let delta = q.lc.len() - 1;
        if delta > 0 {
            for &(pos, target) in self.fixups.iter() {
                let p = base + qend + pos as usize;
                let v = 0xc000u16 | (target as usize + delta) as u16;
                out[p] = (v >> 8) as u8;
                out[p + 1] = v as u8;
            }
        }
        true
    }
}

/// Precompiled wire responses for one zone epoch. Built from (and
/// invalidated with) a [`crate::index::ZoneIndex`]; see the module docs
/// for the serve-time contract.
#[derive(Debug)]
pub struct AnswerCache {
    /// Lowercase canonical qname wire → everything cached at that name.
    exact: ZoneMap<Vec<u8>, NameEntry>,
    /// NXDOMAIN templates: no EDNS, EDNS, and EDNS+DO per link of
    /// `ZoneIndex::nsec_chain`.
    nx_plain: Option<NegTemplate>,
    nx_edns: Option<NegTemplate>,
    nx_do: Vec<Option<NegTemplate>>,
    /// EDNS+DO template for an unsigned zone (empty NSEC chain).
    nx_do_unsigned: Option<NegTemplate>,
}

impl AnswerCache {
    /// Precompile every reachable shape by running it through `answerer` —
    /// the same code the fallback path executes — so cached and uncached
    /// responses are byte-identical by construction.
    pub(crate) fn build(answerer: &Answerer<'_>) -> AnswerCache {
        Self::build_inner(answerer, true)
    }

    /// Identity-free variant for state shared across a letter's sites
    /// ([`crate::engine::SharedState`]): every zone shape is precompiled,
    /// but no CHAOS identity names — those differ per site and live in
    /// each engine's own [`ChaosCache`]. IN-class queries *for* the chaos
    /// names still serve byte-identically: they are not zone names, so
    /// both this cache's NXDOMAIN template and the legacy fallback build
    /// the same negative response.
    pub(crate) fn build_zone(index: &ZoneIndex) -> AnswerCache {
        Self::build_inner(&Answerer { index, site: None }, false)
    }

    /// One [`Scratch`] serves every name and template of the build: a
    /// name's responses are encoded into it and copied out at their final
    /// size, so the stored bytes are what a fresh buffer per name would
    /// hold (`cache::tests::a_reused_scratch_stores_what_a_fresh_one_does`).
    fn build_inner(answerer: &Answerer<'_>, include_chaos: bool) -> AnswerCache {
        let index = answerer.index;
        let zone_shapes = CACHED_QTYPES.map(|qtype| (qtype, Class::In));
        let mut scratch = Scratch::default();
        let mut exact: ZoneMap<Vec<u8>, NameEntry> = index
            .names()
            .map(|name| {
                let entry = NameEntry::build(answerer, name, &zone_shapes, &mut scratch);
                (name.canonical_wire(), entry)
            })
            .collect();
        if include_chaos {
            for chaos in CHAOS_NAMES {
                let name = Name::parse(chaos).expect("static chaos name");
                let key = name.canonical_wire();
                // An identity name that is also a zone name keeps its
                // zone shapes beside the CHAOS one.
                let mut shapes = vec![(RrType::Txt, Class::Ch)];
                if exact.contains_key(&key) {
                    shapes.extend(zone_shapes);
                }
                exact.insert(
                    key,
                    NameEntry::build(answerer, &name, &shapes, &mut scratch),
                );
            }
        }
        let nx_do: Vec<Option<NegTemplate>> = index
            .nsec_chain()
            .iter()
            .map(|(_, entry)| build_negative(answerer, 2, Some(entry), &mut scratch.bytes))
            .collect();
        let nx_do_unsigned = if nx_do.is_empty() {
            build_negative(answerer, 2, None, &mut scratch.bytes)
        } else {
            None
        };
        AnswerCache {
            exact,
            nx_plain: build_negative(answerer, 0, None, &mut scratch.bytes),
            nx_edns: build_negative(answerer, 1, None, &mut scratch.bytes),
            nx_do,
            nx_do_unsigned,
        }
    }

    /// Number of precompiled exact responses (shapes × EDNS states).
    pub fn entries(&self) -> usize {
        self.exact.values().map(|e| e.nshapes as usize * 3).sum()
    }

    /// Try to serve `req` — parsed as `q`, against the epoch's `index` —
    /// from the cache, appending the response to `out`. Returns false —
    /// with `out` untouched — when the request must take the fallback
    /// path.
    pub(crate) fn serve(
        &self,
        index: &ZoneIndex,
        req: &[u8],
        q: &FastQuery<'_>,
        out: &mut Vec<u8>,
    ) -> bool {
        if q.qtype == RrType::Axfr.to_u16() {
            // AXFR-over-UDP answers with an empty TC response regardless
            // of qname; let the fallback build it.
            return false;
        }
        if let Some(entry) = self.exact.get(q.lc) {
            return entry.serve(req, q, out);
        }
        if q.class != Class::In.to_u16() {
            return false;
        }
        // `exact` holds every owner name of the zone, so a name that missed
        // it is no cut itself: only a name of several labels can lie below
        // one, and only for those is the index asked.
        let name = q.name_lc();
        let one_label = name
            .first()
            .is_some_and(|&len| name.len() == 1 + len as usize);
        if !one_label && index.referral_above(name).is_some() {
            // Below a delegation: referral qnames are unbounded, fall back.
            return false;
        }
        // Not a zone name, not under a cut: NXDOMAIN.
        let template = match q.state {
            0 => self.nx_plain.as_ref(),
            1 => self.nx_edns.as_ref(),
            _ => match index.covering_link(name) {
                Some(i) => self.nx_do[i].as_ref(),
                None => self.nx_do_unsigned.as_ref(),
            },
        };
        match template {
            Some(t) => t.emit(req, q, out),
            None => false,
        }
    }
}

/// Splice the live request's id, RD bit, and question bytes into `out`, a
/// pre-encoded response already copied to where it is sent from (the
/// stored bytes were built from an id-0, RD-clear query for the same
/// canonical qname).
fn splice_request(req: &[u8], qlen: usize, out: &mut [u8]) {
    out[0] = req[0];
    out[1] = req[1];
    out[2] = (out[2] & !0x01) | (req[2] & 0x01);
    let qend = 12 + qlen + 4;
    out[12..qend].copy_from_slice(&req[12..qend]);
}

/// Per-engine CHAOS identity shapes, consulted after a shared zone-only
/// [`AnswerCache`] ([`AnswerCache::build_zone`]) declines. All sites of a
/// letter share the zone cache; each engine keeps its own four identity
/// answers here, built through the same [`NameEntry::build`] path the legacy
/// per-engine cache uses — so shared-state and standalone engines stay
/// byte-identical on the CHAOS channel too.
#[derive(Debug)]
pub(crate) struct ChaosCache {
    /// (canonical qname wire, its TXT/CH shape) for each of [`CHAOS_NAMES`].
    names: Vec<(Vec<u8>, NameEntry)>,
}

impl ChaosCache {
    pub(crate) fn build(answerer: &Answerer<'_>) -> ChaosCache {
        let mut scratch = Scratch::default();
        let names = CHAOS_NAMES
            .iter()
            .map(|chaos| {
                let name = Name::parse(chaos).expect("static chaos name");
                let entry =
                    NameEntry::build(answerer, &name, &[(RrType::Txt, Class::Ch)], &mut scratch);
                (name.canonical_wire(), entry)
            })
            .collect();
        ChaosCache { names }
    }

    /// Serve a CHAOS identity query from the per-engine shapes, appending
    /// the response to `out`. Returns false (with `out` untouched) for
    /// anything else — including the shapes the legacy cache also declines
    /// (odd payloads, NSID).
    pub(crate) fn serve(&self, req: &[u8], q: &FastQuery<'_>, out: &mut Vec<u8>) -> bool {
        self.names
            .iter()
            .find(|(n, _)| n.as_slice() == q.lc)
            .is_some_and(|(_, entry)| entry.serve(req, q, out))
    }
}

/// Pre-encode the answer to (`name`, `qtype`, `class`) for each EDNS state
/// into `arena`, through the answerer and encoder the fallback path uses;
/// `bytes` is the encode scratch.
fn build_set(
    answerer: &Answerer<'_>,
    name: &Name,
    qtype: RrType,
    class: Class,
    arena: &mut Vec<u8>,
    bytes: &mut Vec<u8>,
) -> [ResponseSet; 3] {
    [0, 1, 2].map(|state| {
        let lc = &mut [0; MAX_QNAME];
        let q = FastQuery::for_question(name, qtype, class, state, lc);
        let plan = answerer.answer(&q, true);
        encode_into(&plan, &q, usize::MAX, bytes);
        let full = Span::push(arena, bytes);
        ResponseSet {
            full,
            truncated: BUCKETS.map(|bucket| {
                if full.len as usize <= bucket {
                    return Span::default();
                }
                encode_into(&plan, &q, bucket, bytes);
                Span::push(arena, bytes)
            }),
        }
    })
}

/// Pre-encode one NXDOMAIN template against a root question, writing into
/// `scratch`'s allocation. `None` when the encoding cannot be templated (a
/// pointer lands in or targets the question region — impossible for a
/// root question, but checked).
fn build_negative(
    answerer: &Answerer<'_>,
    state: usize,
    nsec: Option<&RrsetEntry>,
    scratch: &mut Vec<u8>,
) -> Option<NegTemplate> {
    let root = Name::root();
    let lc = &mut [0; MAX_QNAME];
    let q = FastQuery::for_question(&root, RrType::A, Class::In, state, lc);
    let mut plan = answerer.negative_with(Rcode::NxDomain, state == 2, nsec);
    answerer.attach_edns(&q, &mut plan);
    let mut w = WireWriter::with_buffer(std::mem::take(scratch));
    encode(&plan, &q, usize::MAX, &mut w);
    let mut fixups = Vec::new();
    for &(pos, target) in w.pointers() {
        let (pos, target) = (pos as usize, target as usize);
        if pos < ROOT_QEND || target < ROOT_QEND {
            return None;
        }
        fixups.push(((pos - ROOT_QEND) as u16, target as u16));
    }
    let excluded = w.compressed_suffixes().collect();
    let bytes = w.take_bytes();
    let mut head = [0u8; 12];
    head.copy_from_slice(&bytes[..12]);
    let tail = bytes[ROOT_QEND..].into();
    *scratch = bytes;
    Some(NegTemplate {
        head,
        tail,
        fixups: fixups.into_boxed_slice(),
        excluded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Rootd, ServeOutcome, SiteIdentity};
    use crate::index::ZoneIndex;
    use dns_wire::edns::{set_edns, Edns};
    use dns_wire::{Message, Question};
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;
    use std::sync::Arc;

    fn engines() -> (Rootd, Rootd) {
        let zone = Arc::new(build_root_zone(
            &RootZoneConfig {
                tld_count: 10,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(5),
        ));
        let index = Arc::new(ZoneIndex::build(zone));
        let plain = Rootd::new(Arc::clone(&index), SiteIdentity::named("lax2f"));
        let cached = Rootd::new(index, SiteIdentity::named("lax2f")).with_answer_cache();
        (plain, cached)
    }

    /// A query in one of the three EDNS states the cache precompiles.
    fn state_query(name: &Name, qtype: RrType, class: Class, state: usize) -> Message {
        let mut q = Message::query(
            0,
            Question {
                name: name.clone(),
                rr_type: qtype,
                class,
            },
        );
        match state {
            0 => {}
            1 => set_edns(&mut q, &Edns::default()),
            _ => set_edns(&mut q, &Edns::dnssec()),
        }
        q
    }

    fn assert_identical(plain: &Rootd, cached: &Rootd, query: &Message) -> ServeOutcome {
        let wire = query.to_wire();
        let mut out = Vec::new();
        let outcome = cached.serve_udp_into(&wire, &mut out);
        assert_eq!(plain.serve_udp(&wire).as_deref(), Some(out.as_slice()));
        outcome
    }

    #[test]
    fn apex_and_junk_hits_are_byte_identical() {
        let (plain, cached) = engines();
        for (name, qtype) in [
            (".", RrType::Soa),
            (".", RrType::Ns),
            (".", RrType::Dnskey),
            ("com.", RrType::A),
            ("nxf00dd00dbeef.", RrType::A),
        ] {
            let name = Name::parse(name).unwrap();
            for state in 0..3 {
                let q = state_query(&name, qtype, Class::In, state);
                let outcome = assert_identical(&plain, &cached, &q);
                assert_eq!(outcome, ServeOutcome::CacheHit, "{name} {qtype:?} {state}");
            }
        }
    }

    #[test]
    fn rd_bit_and_mixed_case_are_echoed() {
        let (plain, cached) = engines();
        let mut q = state_query(&Name::parse("CoM.").unwrap(), RrType::Ns, Class::In, 2);
        q.header.id = 0xbeef;
        q.header.flags.recursion_desired = true;
        assert_eq!(
            assert_identical(&plain, &cached, &q),
            ServeOutcome::CacheHit
        );
    }

    #[test]
    fn odd_payloads_and_nsid_fall_back() {
        let (plain, cached) = engines();
        // Payload 700 is no bucket: the signed priming response overflows
        // it, so the cache must decline rather than serve the 512 variant.
        let mut q = Message::query(1, Question::new(Name::root(), RrType::Ns));
        set_edns(
            &mut q,
            &Edns {
                udp_payload_size: 700,
                dnssec_ok: true,
                ..Default::default()
            },
        );
        assert_eq!(
            assert_identical(&plain, &cached, &q),
            ServeOutcome::Fallback
        );
        let mut q = Message::query(2, Question::new(Name::root(), RrType::Soa));
        set_edns(&mut q, &Edns::dnssec().with_nsid_request());
        assert_eq!(
            assert_identical(&plain, &cached, &q),
            ServeOutcome::Fallback
        );
    }

    #[test]
    fn qnames_sharing_record_suffixes_fall_back_identically() {
        let (plain, cached) = engines();
        // "net." is a label suffix of the root-server names in the SOA
        // mname; the fallback encoder compresses the record name against
        // the question, so the template must decline.
        for name in ["net.", "root-servers.net.", "gtld-servers.net."] {
            let q = state_query(&Name::parse(name).unwrap(), RrType::A, Class::In, 2);
            assert_identical(&plain, &cached, &q);
        }
    }

    proptest::proptest! {
        /// Water-torture hardening: high-entropy random labels — alone,
        /// or grafted under a record-name suffix (`…net`) so the
        /// parametric NXDOMAIN template's collision guard must fire —
        /// are always byte-identical to the uncached engine, and the
        /// grafted ones always take the slow path (a template emit for
        /// them would mis-compress the authority names).
        #[test]
        fn water_torture_qnames_are_byte_identical_and_collisions_fall_back(
            labels in proptest::collection::vec(
                // ≥3 chars so a random label can never collide with a
                // real in-zone name (the single-letter server names).
                (proptest::collection::vec(0u8..36, 3..20), 0usize..4), 1..12),
            state in 0usize..3,
        ) {
            let (plain, cached) = engines();
            const SUFFIXES: [&str; 3] = ["root-servers.net.", "gtld-servers.net.", "net."];
            for (raw, graft) in labels {
                let label: String = raw
                    .iter()
                    .map(|&b| b"abcdefghijklmnopqrstuvwxyz0123456789"[b as usize] as char)
                    .collect();
                let name = match graft {
                    0 => format!("{label}."),
                    g => format!("{label}.{}", SUFFIXES[g - 1]),
                };
                let q = state_query(&Name::parse(&name).unwrap(), RrType::A, Class::In, state);
                // `assert_identical` does the byte compare against the
                // uncached engine.
                let outcome = assert_identical(&plain, &cached, &q);
                if graft > 0 {
                    // Sharing a suffix with record names in the negative
                    // response (or sitting below a delegated cut) must
                    // force the full fallback path.
                    proptest::prop_assert_eq!(
                        outcome,
                        ServeOutcome::Fallback,
                        "grafted qname {} served from the template",
                        name
                    );
                }
            }
        }
    }

    /// Nothing reads the zone-built maps in iteration order: the chain and
    /// the label list are sorted, the cache is a sum. Two builds of one
    /// zone agree on all three.
    #[test]
    fn two_builds_of_one_zone_agree() {
        let zone = Arc::new(build_root_zone(
            &RootZoneConfig {
                tld_count: 10,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(5),
        ));
        let build = || {
            let index = ZoneIndex::build(Arc::clone(&zone));
            let owners: Vec<Name> = (index.nsec_chain().iter())
                .map(|(owner, _)| owner.clone())
                .collect();
            let entries = AnswerCache::build_zone(&index).entries();
            (owners, index.tld_labels(), entries)
        };
        let (first, second) = (build(), build());
        assert_eq!(first, second);
        assert_eq!((first.0.len(), first.1.len()), (1 + 13 + 10 * 3, 10));
        assert_eq!(first.2, first.0.len() * CACHED_QTYPES.len() * 3);
    }

    /// What lets `serve` skip the cut table for a one-label name that
    /// missed `exact`: every owner of the zone — every cut among them — has
    /// an exact entry, with or without the CHAOS names beside them.
    #[test]
    fn every_owner_name_has_an_exact_entry() {
        let (_, cached) = engines();
        let index = cached.index();
        let site = crate::answer::SiteAnswers::new(&SiteIdentity::named("lax2f"));
        let with_chaos = AnswerCache::build(&Answerer {
            index: &index,
            site: Some(&site),
        });
        for cache in [AnswerCache::build_zone(&index), with_chaos] {
            for name in index.names() {
                assert!(cache.exact.contains_key(&name.canonical_wire()), "{name}");
            }
        }
        assert!(index.referral_above(b"\x03com").is_some());
    }

    /// What one name stores: each shape's (qtype, class, set), each set's
    /// spans (start, length) by EDNS state — the full response, then one
    /// per bucket (zero where none is stored) — and the byte arena they
    /// point into.
    type Stored = (Vec<(u16, u16, u16)>, Vec<(u32, u32)>, Vec<u8>);

    fn stored(entry: &NameEntry) -> Stored {
        let shapes = entry.shapes[..entry.nshapes as usize]
            .iter()
            .map(|s| (s.qtype, s.class, s.set))
            .collect();
        let spans = (entry.sets.iter().flatten())
            .flat_map(|set| set.spans())
            .map(|span| (span.start, span.len))
            .collect();
        (shapes, spans, entry.arena.to_vec())
    }

    /// A template's head, tail, fixups and sorted excluded suffixes.
    type Template = ([u8; 12], Vec<u8>, Vec<(u16, u16)>, Vec<Vec<u8>>);

    fn template(t: &Option<NegTemplate>) -> Option<Template> {
        t.as_ref().map(|t| {
            let mut excluded: Vec<Vec<u8>> = t.excluded.iter().cloned().collect();
            excluded.sort();
            (t.head, t.tail.to_vec(), t.fixups.to_vec(), excluded)
        })
    }

    /// `zone` with its NSEC and RRSIG records stripped: owner names but no
    /// NSEC chain, so the build takes the unsigned template.
    fn unsigned(mut zone: dns_zone::Zone) -> dns_zone::Zone {
        (zone.records_mut()).retain(|r| !matches!(r.rr_type, RrType::Nsec | RrType::Rrsig));
        zone
    }

    /// The build reuses one scratch from name to name and template to
    /// template; what it stores must not depend on that. Every name's
    /// shapes, spans and arena, and every NXDOMAIN template, equal what a
    /// fresh scratch builds for that name or link alone — with and without
    /// the CHAOS names, over zones of 1 and 40 TLDs, an unsigned one, and
    /// the 1 500-TLD zone the zone push measures — and each arena holds
    /// its stored spans and nothing else.
    #[test]
    fn a_reused_scratch_stores_what_a_fresh_one_does() {
        let site = crate::answer::SiteAnswers::new(&SiteIdentity::named("lax2f"));
        for (tld_count, signed, sites) in [
            (1, true, &[None, Some(&site)][..]),
            (40, true, &[None, Some(&site)]),
            (40, false, &[None, Some(&site)]),
            (1_500, true, &[None]),
        ] {
            let cfg = RootZoneConfig {
                tld_count,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            };
            let zone = build_root_zone(&cfg, &ZoneKeys::from_seed(11));
            let zone = if signed { zone } else { unsigned(zone) };
            let index = ZoneIndex::build(Arc::new(zone));
            let names = index.names().count();
            assert_eq!(names, 1 + 13 + 3 * tld_count);
            assert_eq!(index.nsec_chain().len(), if signed { names } else { 0 });
            for &site in sites {
                let chaos = site.is_some();
                let what = format!("{tld_count} TLDs, signed {signed}, chaos {chaos}");
                let answerer = Answerer {
                    index: &index,
                    site,
                };
                let cache = AnswerCache::build_inner(&answerer, chaos);
                let mut by_key: ZoneMap<Vec<u8>, Name> = index
                    .names()
                    .map(|n| (n.canonical_wire(), n.clone()))
                    .collect();
                if chaos {
                    for chaos in CHAOS_NAMES {
                        let name = Name::parse(chaos).unwrap();
                        by_key.insert(name.canonical_wire(), name);
                    }
                }
                assert_eq!(cache.exact.len(), by_key.len(), "{what}");
                for (key, entry) in &cache.exact {
                    let name = &by_key[key];
                    let shapes: Vec<(RrType, Class)> = entry.shapes[..entry.nshapes as usize]
                        .iter()
                        .map(|s| (RrType::from_u16(s.qtype), Class::from_u16(s.class)))
                        .collect();
                    let fresh = NameEntry::build(&answerer, name, &shapes, &mut Scratch::default());
                    let (ours, theirs) = (stored(entry), stored(&fresh));
                    assert!(ours == theirs, "{what}: {name}");
                    let spans: u32 = ours.1.iter().map(|&(_, len)| len).sum();
                    assert_eq!(ours.2.len(), spans as usize, "{what}: {name}");
                }
                let fresh = |state, nsec| {
                    template(&build_negative(&answerer, state, nsec, &mut Vec::new()))
                };
                assert!(template(&cache.nx_plain) == fresh(0, None), "{what}");
                assert!(template(&cache.nx_edns) == fresh(1, None), "{what}");
                let unsigned = (!signed).then(|| fresh(2, None)).flatten();
                assert!(template(&cache.nx_do_unsigned) == unsigned, "{what}");
                assert_eq!(cache.nx_do.len(), index.nsec_chain().len(), "{what}");
                for (t, (owner, entry)) in cache.nx_do.iter().zip(index.nsec_chain()) {
                    assert!(template(t) == fresh(2, Some(entry)), "{what}: {owner}");
                }
            }
        }
    }

    #[test]
    fn referrals_below_cuts_fall_back() {
        let (plain, cached) = engines();
        let q = state_query(&Name::parse("www.com.").unwrap(), RrType::A, Class::In, 2);
        assert_eq!(
            assert_identical(&plain, &cached, &q),
            ServeOutcome::Fallback
        );
    }

    #[test]
    fn chaos_identity_hits() {
        let (plain, cached) = engines();
        for name in CHAOS_NAMES {
            let q = Message::query(9, Question::chaos_txt(Name::parse(name).unwrap()));
            assert_eq!(
                assert_identical(&plain, &cached, &q),
                ServeOutcome::CacheHit
            );
        }
        // Unknown CHAOS name: REFUSED via the fallback.
        let q = Message::query(9, Question::chaos_txt(Name::parse("whoami.").unwrap()));
        assert_eq!(
            assert_identical(&plain, &cached, &q),
            ServeOutcome::Fallback
        );
    }
}
