//! Precompiled answer cache: the zero-allocation UDP fast path.
//!
//! At build time every answer shape the zone gives for itself — (qname,
//! qtype) × EDNS state {none, EDNS, EDNS+DO} at every owner at or above a
//! zone cut (`ZoneIndex::answered_names`) — is run through the exact same
//! answerer and encoder the fallback path uses (`crate::answer`) and the
//! resulting wire bytes are stored, together with pre-truncated variants
//! at the EDNS budget buckets {512, 1232, 4096}. The qtypes that resolve
//! to one answer at a name share its stored bytes (see "One image"): the
//! splice below rewrites the question anyway. Serving a hit is then a
//! table probe plus a splice: **append** the stored bytes to the caller's
//! buffer — the batch's response slab itself on the batched path, so a
//! response is copied once, from the cache to where it is sent from — and
//! patch the message id, the RD bit, and the question region there (which
//! preserves the client's qname casing; compression pointers into the
//! question stay valid because suffix matching is case-insensitive). A
//! serve function that declines leaves the buffer untouched.
//!
//! The lookup key is the lowercased qname with its root byte, borrowed
//! from the request whenever that is lower-case already (`crate::query`,
//! "Key layout"). The exact-name table is a `crate::hash::OffsetTable`
//! hashed through `crate::hash::ZoneHasher`, a word-wise unkeyed hash:
//! sound because it is filled from the zone at build time and queries only
//! ever look up — see that type for the HashDoS argument and for the one
//! map (`crate::rrl`'s buckets) that must keep SipHash.
//!
//! # One image
//!
//! Each zone push builds a cache and the push after it frees it, so the
//! whole cache is one byte image, an exact-name table of `u32` offsets
//! into it and one array of template offsets — three allocations however
//! many names the zone holds. The image holds, in build order:
//!
//! * one **name block** per owner at or above a cut: the key behind its
//!   length byte; the shape count and each shape — qtype and class as
//!   little-endian `u16`s and the answer set it gets (most qtypes at a
//!   name resolve to the same answer — at a delegated TLD eleven of the
//!   thirteen cached types get the referral, at the apex every absent type
//!   gets the same NODATA — so each *distinct* answer is encoded once and
//!   its qtypes share it); per answer set and EDNS state the full
//!   response's and each bucket variant's offset from the block's own
//!   start and length as little-endian `u32`s (zero length where none is
//!   stored); then the response bytes they point at. A hit reads one
//!   table slot and then this one contiguous block, which reads the same
//!   wherever in an image it lies.
//! * one **template** per NXDOMAIN shape that a query can reach (below):
//!   the header, the tail's length, the pointer fixups and the excluded
//!   suffixes — a short inline list, two on the root zone — then the
//!   tail.
//!
//! Every offset and length written into the image goes through
//! `u32::try_from`, so an image past 4 GiB fails its build instead of
//! wrapping. The build walks those owners in zone order, then the NSEC
//! chain, encoding each name's answers into one reused scratch and copying
//! them into the image once. On a root-sized zone (`SPLIT_NAMES`) a worker
//! thread builds the last three sevenths of the names and the templates
//! into an image of its own, and the caller appends it to its own in one
//! copy: only the exact-name table's and the template array's offsets into
//! it are rebased, and the image is byte for byte the one the serial walk
//! writes. The image holds the zone alone: `ChaosCache` keeps an engine's
//! four identity answers as name blocks of an image of its own.
//!
//! NXDOMAIN cannot be enumerated — junk qnames are unbounded — so it is
//! served from *templates*: one pre-encoded negative response per NSEC
//! chain link, built against a root (".") question, with every
//! compression pointer logged so the tail can be relocated when the real
//! qname is longer than one byte. A template refuses (falls back) when
//! the qname shares a label suffix with any record name in the response,
//! because the fallback encoder would compress against the question there
//! and produce different — equally valid — bytes. Only a link that covers
//! a name not below a cut gets one (`ZoneIndex::link_reachable`): the
//! apex's link and the last link under each delegation, 1 501 of 4 514
//! on the 1 500-TLD zone. Every other link lies between two owners under
//! one cut, and every name it covers takes the referral fallback before
//! a template is looked up.
//!
//! Everything else is resolved and encoded per query: AXFR, payload
//! budgets that are neither a bucket nor large enough for the full
//! response, and every name below a delegation — referral qnames are
//! unbounded too, and cold. The zone's own glue owners (`ns0.tld0001.`,
//! `a.root-servers.net.` under `net.`) are such names: every qtype there
//! gets the cut's referral, encoded per query with the same `answer` and
//! `encode` a block would have stored, and no query source asks for them.
//! What `FastQuery::parse` does not take at all (NSID requests,
//! non-canonical OPT records, malformed requests) never gets here.

use crate::answer::{encode, encode_into, Answerer, CHAOS_NAMES};
use crate::hash::{zone_hash, OffsetTable};
use crate::index::{Lookup, RrsetEntry, ZoneIndex};
use crate::query::{FastQuery, MAX_QNAME};
use dns_wire::wire::WireWriter;
use dns_wire::{Class, Name, Rcode, RrType};
use std::panic::resume_unwind;

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

/// `n` as a `u32` offset or length into an image.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("an answer cache image under 4 GiB")
}

/// The little-endian `u32` at `at`.
fn u32_at(image: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(image[at..at + 4].try_into().expect("four bytes"))
}

/// The little-endian `u16` at `at`.
fn u16_at(image: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([image[at], image[at + 1]])
}

/// Where one pre-encoded response lies in a name's responses while they
/// are built, before they are copied into the image. A zero length means
/// "not stored": a DNS message is never shorter than its 12-byte header.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// Append `bytes` to `arena` and return where they landed.
    fn push(arena: &mut Vec<u8>, bytes: &[u8]) -> Span {
        let span = Span {
            start: offset(arena.len()),
            len: offset(bytes.len()),
        };
        arena.extend_from_slice(bytes);
        span
    }

    #[cfg(debug_assertions)]
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
    fn spans(&self) -> impl Iterator<Item = Span> {
        std::iter::once(self.full).chain(self.truncated)
    }
}

/// Most shapes one name holds: every cached qtype.
const MAX_SHAPES: usize = CACHED_QTYPES.len();

/// One shape in a name block: qtype and class (little-endian `u16`s),
/// then which of the name's answer sets it gets.
const SHAPE: usize = 5;

/// One answer set's spans for one EDNS state in a name block: the full
/// response, then one per bucket, each an offset from the block's start
/// and a length (little-endian `u32`s, zero length where none is stored).
const STATE: usize = 8 * (1 + BUCKETS.len());

/// One answer set in a name block: its spans for no EDNS, EDNS and
/// EDNS+DO.
const SET: usize = 3 * STATE;

/// A name block of an image (module docs, "One image"): the lookup key
/// behind its length byte, the shape count and the shapes, each answer
/// set's spans, then the bytes those point at.
#[derive(Clone, Copy)]
struct Block<'a> {
    image: &'a [u8],
    at: usize,
}

impl<'a> Block<'a> {
    /// The block at offset `at` of `image`.
    fn at(image: &'a [u8], at: u32) -> Block<'a> {
        Block {
            image,
            at: at as usize,
        }
    }

    /// The lowercase canonical qname with its root byte.
    fn key(&self) -> &'a [u8] {
        let len = self.image[self.at] as usize;
        &self.image[self.at + 1..][..len]
    }

    /// The stored response for `q`'s (qtype, class, EDNS state, budget):
    /// the full response when it fits, the exact bucket variant when the
    /// budget is a bucket, `None` otherwise.
    fn select(&self, q: &FastQuery<'_>) -> Option<&'a [u8]> {
        let image = self.image;
        let shapes_at = self.at + 1 + image[self.at] as usize;
        let count = image[shapes_at] as usize;
        let shapes = &image[shapes_at + 1..][..count * SHAPE];
        let want = u32::from(q.qtype) | u32::from(q.class) << 16;
        let shape = (shapes.chunks_exact(SHAPE)).find(|shape| u32_at(shape, 0) == want)?;
        let spans = shapes_at + 1 + count * SHAPE + shape[4] as usize * SET + q.state * STATE;
        let span = |i: usize| {
            let at = spans + 8 * i;
            (u32_at(image, at) as usize, u32_at(image, at + 4) as usize)
        };
        let (mut start, mut len) = span(0);
        if len > q.limit {
            let bucket = BUCKETS.iter().position(|&b| b == q.limit)?;
            (start, len) = span(1 + bucket);
            if len == 0 {
                return None;
            }
        }
        Some(&image[self.at + start..][..len])
    }

    /// Append this block's answer to `q` to `out`; false (with `out`
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

/// A parametric negative response in an image (module docs, "One
/// image"): the 12-byte header (id and RD patched per query); the tail's
/// length (`u32`), the fixup count and the excluded suffixes' byte length
/// (`u16`s); the excluded suffixes, each behind its length byte; the
/// fixups; then the tail — everything after a root question.
///
/// A fixup is a compression pointer inside the tail: the offset from the
/// tail's start of the 2-byte pointer and its original target (`u16`s).
/// Targets shift by the qname length delta at serve time. The excluded
/// suffixes are the label-suffix keys (see
/// [`WireWriter::compressed_suffixes`]) the response's record names
/// registered: a qname with any of these as a suffix would compress
/// differently — fall back.
#[derive(Clone, Copy)]
struct Template<'a> {
    image: &'a [u8],
    at: usize,
}

/// The fixed header of a template: head, tail length, fixup count,
/// excluded suffixes' length.
const TEMPLATE_HEAD: usize = 12 + 4 + 2 + 2;

impl Template<'_> {
    /// Append the template relocated to `q`'s qname to `out`; false (with
    /// `out` untouched) when it does not fit the budget or the qname would
    /// compress against a record name.
    fn emit(&self, req: &[u8], q: &FastQuery<'_>, out: &mut Vec<u8>) -> bool {
        let (image, at) = (self.image, self.at);
        let tail_len = u32_at(image, at + 12) as usize;
        let qend = 12 + q.lc.len() + 4;
        if qend + tail_len > q.limit {
            return false;
        }
        let fixups = u16_at(image, at + 16) as usize;
        let excluded_at = at + TEMPLATE_HEAD;
        let excluded = &image[excluded_at..][..u16_at(image, at + 18) as usize];
        let name = q.name_lc();
        let mut start = 0;
        while start < name.len() {
            if suffixes(excluded).any(|listed| listed == &name[start..]) {
                return false;
            }
            start += 1 + name[start] as usize;
        }
        let fixups_at = excluded_at + excluded.len();
        let tail = &image[fixups_at + 4 * fixups..][..tail_len];
        let base = out.len();
        out.extend_from_slice(&image[at..at + 12]);
        out[base] = req[0];
        out[base + 1] = req[1];
        out[base + 2] = (out[base + 2] & !0x01) | (req[2] & 0x01);
        out.extend_from_slice(&req[12..qend]);
        out.extend_from_slice(tail);
        let delta = q.lc.len() - 1;
        if delta > 0 {
            for fixup in image[fixups_at..][..4 * fixups].chunks_exact(4) {
                let (pos, target) = (u16_at(fixup, 0), u16_at(fixup, 2));
                let p = base + qend + pos as usize;
                let v = 0xc000u16 | (target as usize + delta) as u16;
                out[p] = (v >> 8) as u8;
                out[p + 1] = v as u8;
            }
        }
        true
    }
}

/// The suffixes of a template's excluded list, each behind its length
/// byte.
fn suffixes(mut list: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (&len, rest) = list.split_first()?;
        let (suffix, rest) = rest.split_at(len as usize);
        list = rest;
        Some(suffix)
    })
}

/// No template at this position (`AnswerCache::templates`).
const NO_TEMPLATE: u32 = u32::MAX;

/// Answered names from which a build runs in two parts, one on a worker
/// thread (`AnswerCache::build_parts`). A spawn and join costs ≈ 50 µs
/// (≈ 150 µs at its 99th percentile) on a two-vCPU guest, and a name block
/// ≈ 4 µs, so the part a worker takes pays for its thread from a few
/// dozen names; at 256 the 8-, 25- and 40-TLD zones stay on one thread,
/// and a root-sized zone's 1 501 names split.
const SPLIT_NAMES: usize = 256;

/// What one build reuses from name to name: the encode buffer, and the
/// sets and bytes a name's responses collect in before they are copied
/// into the image.
#[derive(Default)]
struct Scratch {
    bytes: Vec<u8>,
    sets: Vec<[ResponseSet; 3]>,
    arena: Vec<u8>,
}

/// An image being laid out: name blocks and templates appended in build
/// order, each encoded through one reused [`Scratch`].
#[derive(Default)]
struct ImageBuilder {
    image: Vec<u8>,
    scratch: Scratch,
}

impl ImageBuilder {
    /// Precompile `shapes` at `name` by running each distinct answer
    /// through `answerer` — the code the fallback path executes — and
    /// append them as a name block; returns the block's offset.
    fn name(&mut self, answerer: &Answerer<'_>, name: &Name, shapes: &[(RrType, Class)]) -> u32 {
        assert!(shapes.len() <= MAX_SHAPES, "{name}: {shapes:?}");
        // Which set each shape gets, and what each set built so far
        // answers, for the IN shapes: two qtypes share a set exactly when
        // `ZoneIndex::lookup` hands both the same thing.
        let mut table = [0u8; MAX_SHAPES];
        let mut built: [Option<(Lookup<'_>, u8)>; MAX_SHAPES] = [const { None }; MAX_SHAPES];
        let Scratch { bytes, sets, arena } = &mut self.scratch;
        sets.clear();
        arena.clear();
        let mut canonical = None;
        for (slot, &(qtype, class)) in table.iter_mut().zip(shapes) {
            let lookup = (class == Class::In).then(|| {
                let key = canonical.get_or_insert_with(|| name.canonical());
                answerer.index.lookup(key.as_wire(), qtype)
            });
            let shared = lookup.as_ref().and_then(|l| {
                let found = built.iter().flatten().find(|(b, _)| same_answer(b, l))?;
                Some(found.1)
            });
            let set = shared.unwrap_or_else(|| {
                let set = sets.len() as u8;
                sets.push(build_set(answerer, name, qtype, class, arena, bytes));
                if let Some(lookup) = lookup {
                    built[set as usize] = Some((lookup, set));
                }
                set
            });
            #[cfg(debug_assertions)]
            if shared.is_some() {
                let mut own = Vec::new();
                let rebuilt = build_set(answerer, name, qtype, class, &mut own, bytes);
                assert!(
                    differ_in_qtype_only(name, (&sets[set as usize], arena), (&rebuilt, &own)),
                    "{name} {qtype:?} does not share the answer it resolves to"
                );
            }
            *slot = set;
        }

        let image = &mut self.image;
        let at = image.len();
        image.push(name.wire_len() as u8);
        image.extend(name.as_wire().iter().map(u8::to_ascii_lowercase));
        image.push(0);
        image.push(shapes.len() as u8);
        for (&(qtype, class), &set) in shapes.iter().zip(&table) {
            image.extend_from_slice(&qtype.to_u16().to_le_bytes());
            image.extend_from_slice(&class.to_u16().to_le_bytes());
            image.push(set);
        }
        // Spans count from the block's own start, so a block reads the same
        // wherever its image is copied to.
        let bytes_at = image.len() - at + sets.len() * SET;
        for span in sets.iter().flatten().flat_map(ResponseSet::spans) {
            let start = if span.len > 0 {
                offset(bytes_at + span.start as usize)
            } else {
                0
            };
            image.extend_from_slice(&start.to_le_bytes());
            image.extend_from_slice(&span.len.to_le_bytes());
        }
        image.extend_from_slice(arena);
        offset(at)
    }

    /// Pre-encode one NXDOMAIN template against a root question and append
    /// it; returns its offset. `None` when the encoding cannot be
    /// templated (a pointer lands in or targets the question region —
    /// impossible for a root question, but checked).
    fn template(
        &mut self,
        answerer: &Answerer<'_>,
        state: usize,
        nsec: Option<&RrsetEntry>,
    ) -> Option<u32> {
        let root = Name::root();
        let lc = &mut [0; MAX_QNAME];
        let q = FastQuery::for_question(&root, RrType::A, Class::In, state, lc);
        let mut plan = answerer.negative_with(Rcode::NxDomain, state == 2, nsec);
        answerer.attach_edns(&q, &mut plan);
        let scratch = &mut self.scratch.bytes;
        let mut w = WireWriter::with_buffer(std::mem::take(scratch));
        encode(&plan, &q, usize::MAX, &mut w);
        let pointers = w.pointers();
        let templated = pointers
            .iter()
            .all(|&(pos, target)| pos as usize >= ROOT_QEND && target as usize >= ROOT_QEND);
        let at = templated.then(|| {
            let image = &mut self.image;
            let at = image.len();
            let bytes = w.as_bytes();
            image.extend_from_slice(&bytes[..12]);
            image.extend_from_slice(&offset(bytes.len() - ROOT_QEND).to_le_bytes());
            let fixups = u16::try_from(pointers.len()).expect("fewer than 65 536 pointers");
            image.extend_from_slice(&fixups.to_le_bytes());
            image.extend_from_slice(&[0, 0]);
            let excluded_at = image.len();
            for i in 0..w.compressed_suffix_count() {
                // Written behind a length byte, then kept unless listed.
                let listed_at = image.len();
                image.push(0);
                w.write_compressed_suffix(i, image);
                image[listed_at] = (image.len() - listed_at - 1) as u8;
                let (listed, suffix) = image[excluded_at..].split_at(listed_at - excluded_at);
                if suffixes(listed).any(|listed| listed == &suffix[1..]) {
                    image.truncate(listed_at);
                }
            }
            let excluded = u16::try_from(image.len() - excluded_at).expect("a short list");
            image[at + 18..at + 20].copy_from_slice(&excluded.to_le_bytes());
            for &(pos, target) in pointers {
                let pos = u16::try_from(pos as usize - ROOT_QEND).expect("a pointer in a message");
                image.extend_from_slice(&pos.to_le_bytes());
                image.extend_from_slice(&target.to_le_bytes());
            }
            image.extend_from_slice(&bytes[ROOT_QEND..]);
            offset(at)
        });
        *scratch = w.take_bytes();
        at
    }

    /// Append a name block with the 13 cached IN shapes for each of
    /// `names`; `block` is handed each block's key hash and offset.
    /// Returns how many exact responses the blocks hold.
    fn zone_names<'n>(
        &mut self,
        answerer: &Answerer<'_>,
        names: impl Iterator<Item = &'n Name>,
        mut block: impl FnMut(u64, u32),
    ) -> usize {
        let shapes = CACHED_QTYPES.map(|qtype| (qtype, Class::In));
        let mut entries = 0;
        for name in names {
            let at = self.name(answerer, name, &shapes);
            block(zone_hash(Block::at(&self.image, at).key()), at);
            entries += 3 * shapes.len();
        }
        entries
    }

    /// Append every NXDOMAIN template in `AnswerCache::templates`'s
    /// order — no EDNS, EDNS, EDNS+DO for an unsigned zone, then EDNS+DO
    /// per link of the chain — and return their offsets: a link's only
    /// where an NXDOMAIN can reach it (`ZoneIndex::link_reachable`),
    /// [`NO_TEMPLATE`] elsewhere.
    fn templates(&mut self, answerer: &Answerer<'_>) -> Box<[u32]> {
        let index = answerer.index;
        let unsigned = index.nsec_chain().len() == 0;
        let fixed =
            [(0, true), (1, true), (2, unsigned)].map(|(state, built)| (state, None, built));
        let links = (index.nsec_chain().enumerate())
            .map(|(link, (_, entry))| (2, Some(entry), index.link_reachable(link)));
        (fixed.into_iter().chain(links))
            .map(|(state, nsec, built)| {
                let at = built.then(|| self.template(answerer, state, nsec));
                at.flatten().unwrap_or(NO_TEMPLATE)
            })
            .collect()
    }

    fn finish(self) -> Box<[u8]> {
        self.image.into_boxed_slice()
    }
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
#[cfg(debug_assertions)]
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

/// Precompiled wire responses for one zone epoch. Built from (and
/// invalidated with) a [`crate::index::ZoneIndex`]; see the module docs
/// for the serve-time contract and the layout.
#[derive(Debug)]
pub struct AnswerCache {
    /// Every name block, then every NXDOMAIN template.
    image: Box<[u8]>,
    /// Lowercase canonical qname wire → its name block's offset.
    exact: OffsetTable,
    /// Template offsets ([`NO_TEMPLATE`] where none): no EDNS, EDNS,
    /// EDNS+DO for an unsigned zone, then EDNS+DO per link of
    /// `ZoneIndex::nsec_chain`.
    templates: Box<[u32]>,
    /// Number of precompiled exact responses (shapes × EDNS states).
    entries: usize,
}

impl AnswerCache {
    /// Precompile every shape at every owner at or above a cut by running
    /// it through the answerer the fallback path executes, so cached and
    /// uncached responses are byte-identical by construction. The cache
    /// holds the zone alone, so one build serves every site of every
    /// letter: the CHAOS identity names differ per site and live in each
    /// engine's own [`ChaosCache`]. An IN query at one of them is no zone
    /// name, and takes the NXDOMAIN template the fallback would encode.
    /// The build runs in one part or two (`SPLIT_NAMES`): identical
    /// images, tables and templates either way.
    pub(crate) fn build(index: &ZoneIndex) -> AnswerCache {
        let names = index.answered_names().count();
        let parts = if names < SPLIT_NAMES { 1 } else { 2 };
        Self::build_parts(index, parts)
    }

    /// One walk over `ZoneIndex::answered_names`, then the NSEC chain,
    /// appending each name block and template to one image through one
    /// [`Scratch`]
    /// (`cache::tests::the_epoch_serves_what_the_oracle_build_does` holds
    /// the result to the build it replaced).
    ///
    /// In two parts a worker builds the last names and the templates into
    /// an image of its own, and that image is appended where the serial
    /// walk would have written it: a block's spans count from its own
    /// start, so only the offsets in the exact-name table and the template
    /// array move. A root zone has about one reachable link per answered
    /// name, and a template costs about a seventh of a name block, so the
    /// caller takes four sevenths of the names and the worker the rest.
    fn build_parts(index: &ZoneIndex, parts: usize) -> AnswerCache {
        assert!(matches!(parts, 1 | 2), "one part or two, not {parts}");
        let answerer = &Answerer { index, site: None };
        let names = index.answered_names().count();
        let split = if parts == 1 { names } else { names * 4 / 7 };
        // The image runs 2.45–2.61 times the index's arena on root zones of
        // 8 to 1 500 TLDs (a 1-TLD zone's fits the 64 KiB beside it):
        // reserved once at 2.625 times, it is written where it is allocated
        // instead of copied as it doubles.
        let reserve = index.wire_len() / 8 * 21 + (64 << 10);
        let mut builder = ImageBuilder {
            image: Vec::with_capacity(reserve),
            scratch: Scratch::default(),
        };
        let mut exact = OffsetTable::with_capacity(names);
        let (entries, templates) = std::thread::scope(|s| {
            let worker = (parts == 2).then(|| {
                s.spawn(|| {
                    let mut rest = ImageBuilder {
                        image: Vec::with_capacity(reserve / 2),
                        scratch: Scratch::default(),
                    };
                    let mut keys = Vec::with_capacity(names - split);
                    let names = index.answered_names().skip(split);
                    let entries = rest.zone_names(answerer, names, |hash, at| {
                        keys.push((hash, at));
                    });
                    let templates = rest.templates(answerer);
                    (rest.image, keys, entries, templates)
                })
            });
            let names = index.answered_names().take(split);
            let entries = builder.zone_names(answerer, names, |hash, at| {
                exact.insert(hash, at);
            });
            let Some(worker) = worker else {
                return (entries, builder.templates(answerer));
            };
            let (image, keys, theirs, mut templates) =
                worker.join().unwrap_or_else(|e| resume_unwind(e));
            let base = builder.image.len();
            builder.image.extend_from_slice(&image);
            for (hash, at) in keys {
                exact.insert(hash, offset(base + at as usize));
            }
            for at in templates.iter_mut().filter(|at| **at != NO_TEMPLATE) {
                *at = offset(base + *at as usize);
            }
            (entries + theirs, templates)
        });
        AnswerCache {
            image: builder.finish(),
            exact,
            templates,
            entries,
        }
    }

    /// Number of precompiled exact responses (shapes × EDNS states).
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// The name block keyed `key` (lowercase canonical qname with its root
    /// byte), if the cache holds that name.
    fn block(&self, key: &[u8]) -> Option<Block<'_>> {
        let image = &self.image[..];
        let at = (self.exact).find(zone_hash(key), |at| Block::at(image, at).key() == key)?;
        Some(Block::at(image, at))
    }

    /// The template at `which` of `templates`, if one is stored.
    fn template(&self, which: usize) -> Option<Template<'_>> {
        let at = *self.templates.get(which)?;
        (at != NO_TEMPLATE).then_some(Template {
            image: &self.image,
            at: at as usize,
        })
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
        if let Some(block) = self.block(q.lc) {
            return block.serve(req, q, out);
        }
        if q.class != Class::In.to_u16() {
            return false;
        }
        // `exact` holds every owner at or above a cut, every cut among
        // them, so a name that missed it is no cut itself: only a name of
        // several labels can lie below one — a glue owner as much as a name
        // the zone does not hold — and only for those is the index asked.
        let name = q.name_lc();
        let one_label = name
            .first()
            .is_some_and(|&len| name.len() == 1 + len as usize);
        if !one_label && index.referral_above(name).is_some() {
            // Below a delegation: referral qnames are unbounded, fall back.
            return false;
        }
        // Not a zone name, not under a cut: NXDOMAIN.
        let which = match q.state {
            0 => 0,
            1 => 1,
            _ => index.covering_link(name).map_or(2, |link| 3 + link),
        };
        self.template(which).is_some_and(|t| t.emit(req, q, out))
    }
}

#[cfg(test)]
impl AnswerCache {
    /// Probe the exact-name table for `key`: whether it is found, and how
    /// many slots the probe read.
    pub(crate) fn probe_name(&self, key: &[u8]) -> (bool, usize) {
        let image = &self.image[..];
        let (found, read) =
            (self.exact).probe(zone_hash(key), |at| Block::at(image, at).key() == key);
        (found.is_some(), read)
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

/// Per-engine CHAOS identity shapes, consulted after the zone-only
/// [`AnswerCache`] declines. Every site shares the zone cache; each
/// engine keeps its own four identity answers here, as name blocks of an
/// image of its own, encoded by the answerer the fallback path runs.
#[derive(Debug)]
pub(crate) struct ChaosCache {
    image: Box<[u8]>,
    /// The block of each of [`CHAOS_NAMES`], its TXT/CH shape.
    names: [u32; CHAOS_NAMES.len()],
}

impl ChaosCache {
    pub(crate) fn build(answerer: &Answerer<'_>) -> ChaosCache {
        let mut builder = ImageBuilder::default();
        let names = CHAOS_NAMES.map(|chaos| {
            let name = Name::parse(chaos).expect("static chaos name");
            builder.name(answerer, &name, &[(RrType::Txt, Class::Ch)])
        });
        ChaosCache {
            image: builder.finish(),
            names,
        }
    }

    /// Serve a CHAOS identity query from the per-engine shapes, appending
    /// the response to `out`. Returns false (with `out` untouched) for
    /// anything else — odd payloads included; NSID requests never get
    /// here.
    pub(crate) fn serve(&self, req: &[u8], q: &FastQuery<'_>, out: &mut Vec<u8>) -> bool {
        let mut blocks = self.names.iter().map(|&at| Block::at(&self.image, at));
        (blocks.find(|block| block.key() == q.lc)).is_some_and(|block| block.serve(req, q, out))
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
            let owners: Vec<Name> = (index.nsec_chain())
                .map(|(owner, _)| owner.clone())
                .collect();
            let entries = AnswerCache::build(&index).entries();
            (owners, index.tld_labels(), entries)
        };
        let (first, second) = (build(), build());
        assert_eq!(first, second);
        assert_eq!((first.0.len(), first.1.len()), (1 + 13 + 10 * 3, 10));
        // The apex and the ten cuts are precompiled; the thirteen root
        // servers below `net.` and the twenty TLD name servers are not.
        assert_eq!(first.2, (1 + 10) * CACHED_QTYPES.len() * 3);
    }

    /// Whether `qname` (flat wire form, any case) lies strictly below one
    /// of `tlds` (the delegated labels, lowercase), read off its labels
    /// rather than the index: the root zone cuts at TLDs alone, so a name
    /// of two labels or more whose last label is delegated.
    fn below_a_tld(qname: &[u8], tlds: &[String]) -> bool {
        let (mut rest, mut labels, mut last) = (qname, 0, &[][..]);
        while let Some((&len, tail)) = rest.split_first() {
            (last, rest) = tail.split_at(len as usize);
            labels += 1;
        }
        labels > 1
            && tlds
                .iter()
                .any(|tld| tld.as_bytes().eq_ignore_ascii_case(last))
    }

    /// What lets `serve` skip the cut table for a one-label name that
    /// missed `exact`: every owner at or above a cut — every cut among them
    /// — has an exact entry, and no owner below a cut has one.
    /// `ZoneIndex::below_cut` tells the two apart as the owners' labels do.
    #[test]
    fn only_owners_at_or_above_a_cut_have_an_exact_entry() {
        let (_, cached) = engines();
        let index = cached.index();
        let tlds = index.tld_labels();
        let cache = AnswerCache::build(&index);
        let mut held = [0; 2];
        for name in index.names() {
            let below = below_a_tld(name.as_wire(), &tlds);
            let key = name.as_wire().to_ascii_lowercase();
            assert_eq!(index.below_cut(&key), below, "{name}");
            let found = cache.block(&name.canonical_wire()).is_some();
            assert_eq!(found, !below, "{name}");
            held[usize::from(below)] += 1;
        }
        // The apex and ten TLDs; thirteen root servers and twenty TLD name
        // servers.
        assert_eq!(held, [1 + 10, 13 + 10 * 2]);
        assert!(index.referral_above(b"\x03com").is_some());
    }

    /// `zone` with its NSEC and RRSIG records stripped: owner names but no
    /// NSEC chain, so the build takes the unsigned template.
    fn unsigned(mut zone: dns_zone::Zone) -> dns_zone::Zone {
        (zone.records_mut()).retain(|r| !matches!(r.rr_type, RrType::Nsec | RrType::Rrsig));
        zone
    }

    /// A request for `qname` (flat wire form, no root byte) and `qtype` in
    /// EDNS state `state` at payload `budget`, with an id and RD set.
    fn request(qname: &[u8], qtype: RrType, state: usize, budget: u16) -> Vec<u8> {
        let mut req = vec![
            0x1d,
            0x2c,
            0x01,
            0,
            0,
            1,
            0,
            0,
            0,
            0,
            0,
            u8::from(state > 0),
        ];
        req.extend_from_slice(qname);
        req.push(0);
        req.extend_from_slice(&qtype.to_u16().to_be_bytes());
        req.extend_from_slice(&Class::In.to_u16().to_be_bytes());
        if state > 0 {
            let ttl: u32 = if state == 2 { 0x8000 } else { 0 };
            req.extend_from_slice(&[0, 0, 41]);
            req.extend_from_slice(&budget.to_be_bytes());
            req.extend_from_slice(&ttl.to_be_bytes());
            req.extend_from_slice(&[0, 0]);
        }
        req
    }

    /// Every NXDOMAIN template in the oracle's order: no EDNS, EDNS,
    /// EDNS+DO for an unsigned zone, then EDNS+DO per chain link.
    fn templates(cache: &AnswerCache) -> Vec<Option<Template<'_>>> {
        (0..cache.templates.len())
            .map(|which| cache.template(which))
            .collect()
    }

    /// The epoch — a `ZoneIndex` and its zone-only cache — agrees with the
    /// build it replaced (`crate::oracle`), over signed zones of 1, 40 and
    /// 1 500 TLDs and an unsigned one: the same TLD labels, NSEC chain
    /// (owners and records), priming glue and negative authority; for
    /// every owner in the zone's case (every fourth also upper-cased), and
    /// for junk beside and below the TLDs, at the 13 cached qtypes plus
    /// HTTPS, SRV and PTR, in every EDNS state at every budget class, the
    /// same cached bytes (or the same refusal) at and above the cuts, a
    /// refusal below them whose fallback sends the bytes the oracle stored,
    /// exactly as many hits per name class as each build stores, and the
    /// same uncached bytes;
    /// and every NXDOMAIN template is built exactly where the oracle built
    /// one and its link is reachable (`ZoneIndex::link_reachable`), in
    /// exactly as many per zone, emits the same bytes for a one-byte and a
    /// 40-byte qname, at 512 and 4096, and refuses each suffix it excludes,
    /// alone and under one more label; a name a skipped link covers is
    /// served by neither cache and falls back to the oracle's bytes.
    #[test]
    fn the_epoch_serves_what_the_oracle_build_does() {
        use crate::oracle::{OracleCache, OracleIndex};
        let qtypes = CACHED_QTYPES
            .into_iter()
            .chain([65, 33, 12].map(RrType::Other));
        let qtypes: Vec<RrType> = qtypes.collect();
        let shapes: Vec<(usize, u16)> = [(0, 512)]
            .into_iter()
            .chain(
                [1, 2]
                    .into_iter()
                    .flat_map(|s| [512, 1232, 4096, 65_535].map(|b| (s, b))),
            )
            .collect();
        for (tld_count, signed) in [(1, true), (40, true), (1_500, true), (40, false)] {
            let what = format!("{tld_count} TLDs, signed {signed}");
            let cfg = RootZoneConfig {
                tld_count,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            };
            let zone = build_root_zone(&cfg, &ZoneKeys::from_seed(11));
            let zone = Arc::new(if signed { zone } else { unsigned(zone) });
            let index = ZoneIndex::build(Arc::clone(&zone));
            let cache = AnswerCache::build(&index);
            let oracle = OracleIndex::build(&zone);
            let oracle_cache = OracleCache::build(&oracle);

            assert_eq!(index.tld_labels(), oracle.tld_labels(), "{what}");
            let chain: Vec<(String, &[u8])> = (index.nsec_chain())
                .map(|(owner, entry)| (owner.to_string(), index.wire(entry.section(true))))
                .collect();
            let want: Vec<(String, &[u8])> = (oracle.nsec_chain().into_iter())
                .map(|(owner, wire)| (owner.to_string(), wire))
                .collect();
            assert!(chain == want, "{what}: NSEC chain");
            assert_eq!(chain.len(), if signed { 1 + 13 + 3 * tld_count } else { 0 });
            assert!(index.priming_glue() == oracle.priming_glue(), "{what}");
            for dnssec in [false, true] {
                let (ours, theirs) = (
                    index.negative_authority(dnssec),
                    oracle.negative_authority(dnssec),
                );
                assert!(ours == theirs, "{what}: negative authority, DO {dnssec}");
            }

            let mut qnames: Vec<Vec<u8>> = Vec::new();
            for (i, name) in oracle.names().enumerate() {
                let wire = name.as_wire();
                qnames.push(wire.to_vec());
                if i % 4 == 0 {
                    qnames.push(wire.to_ascii_uppercase());
                }
            }
            let owners = qnames.len();
            for c in b'a'..=b'z' {
                for d in b'0'..=b'9' {
                    qnames.push(vec![3, c, d, b'x']);
                    qnames.push(vec![1, c, 3, c, d, b'x']);
                }
            }
            let answerer = Answerer {
                index: &index,
                site: None,
            };
            let tlds = oracle.tld_labels();
            let (mut ours, mut theirs) = (Vec::new(), Vec::new());
            // Per name class — an owner at or above a cut, an owner below
            // one, junk — how many qnames it holds, and how many shapes the
            // epoch and the oracle each serve from their cache.
            let mut qnames_in = [0; 3];
            let (mut hits, mut oracle_hits) = ([0; 3], [0; 3]);
            for (i, qname) in qnames.iter().enumerate() {
                let class = match (i < owners, below_a_tld(qname, &tlds)) {
                    (true, false) => 0,
                    (true, true) => 1,
                    (false, _) => 2,
                };
                qnames_in[class] += 1;
                for &qtype in &qtypes {
                    for &(state, budget) in &shapes {
                        let req = request(qname, qtype, state, budget);
                        let lc = &mut [0; MAX_QNAME];
                        let q = FastQuery::parse(&req, lc).expect("a canonical request");
                        ours.clear();
                        theirs.clear();
                        let hit = cache.serve(&index, &req, &q, &mut ours);
                        let want = oracle_cache.serve(&oracle, &req, &q, &mut theirs);
                        let shape = || format!("{what}: {qname:?} {qtype:?} {state} {budget}");
                        hits[class] += usize::from(hit);
                        oracle_hits[class] += usize::from(want);
                        if class == 1 {
                            // Below a cut the epoch stores nothing, and
                            // what the fallback sends is what the oracle
                            // precompiled.
                            assert!(!hit && ours.is_empty(), "{}", shape());
                            if want {
                                encode_into(&answerer.answer(&q, true), &q, q.limit, &mut ours);
                            }
                        } else {
                            assert_eq!(hit, want, "{}", shape());
                        }
                        assert!(ours == theirs, "{}: cached bytes", shape());
                        encode_into(&answerer.answer(&q, true), &q, q.limit, &mut ours);
                        encode_into(&oracle.answer(&q), &q, q.limit, &mut theirs);
                        assert!(ours == theirs, "{}: uncached bytes", shape());
                    }
                }
            }

            // At a zone name every cached qtype is stored in every EDNS
            // state at every budget asked (65 535 holds any full response);
            // the epoch stores them at and above the cuts only, the oracle
            // below them too. Junk is served from the same templates.
            let stored = |class: usize| qnames_in[class] * CACHED_QTYPES.len() * shapes.len();
            assert_eq!(hits[..2], [stored(0), 0], "{what}");
            assert_eq!(oracle_hits[..2], [stored(0), stored(1)], "{what}");
            assert_eq!(hits[2], oracle_hits[2], "{what}");
            // The owners below a cut are the zone's glue: the root servers
            // once `net.` is delegated, and two name servers per TLD.
            let glue = oracle
                .names()
                .filter(|name| below_a_tld(name.as_wire(), &tlds));
            let root_servers = if tld_count > 1 { 13 } else { 0 };
            assert_eq!(glue.count(), root_servers + 2 * tld_count, "{what}");

            let long: Vec<u8> = [&[38][..], &[b'w'; 38]].concat();
            let ours_all = templates(&cache);
            let theirs_all: Vec<_> = oracle_cache.templates().collect();
            assert_eq!(ours_all.len(), theirs_all.len(), "{what}");
            let owners: Vec<&Name> = index.nsec_chain().map(|(owner, _)| owner).collect();
            let mut built = 0;
            for (i, (mine, want)) in ours_all.into_iter().zip(theirs_all).enumerate() {
                // The three fixed templates, then one per chain link: a
                // link's is built exactly where the oracle built one and an
                // NXDOMAIN can reach the link.
                let reachable = i < 3 || index.link_reachable(i - 3);
                assert_eq!(
                    mine.is_some(),
                    want.is_some() && reachable,
                    "{what}: template {i}"
                );
                built += usize::from(i >= 3 && mine.is_some());
                if !reachable {
                    // The least name under the link's owner lies between
                    // it and the next owner, below a cut: neither cache
                    // serves it, and the fallback sends the oracle's bytes.
                    let qname = [&[1, 0][..], owners[i - 3].as_wire()].concat();
                    let key = qname.to_ascii_lowercase();
                    assert_eq!(index.covering_link(&key), Some(i - 3), "{what}: {i}");
                    assert!(index.below_cut(&key), "{what}: {qname:?}");
                    for (state, budget) in [(0, 512), (1, 512), (2, 512), (2, 4096)] {
                        let req = request(&qname, RrType::A, state, budget);
                        let lc = &mut [0; MAX_QNAME];
                        let q = FastQuery::parse(&req, lc).expect("a canonical request");
                        ours.clear();
                        theirs.clear();
                        assert!(!cache.serve(&index, &req, &q, &mut ours), "{what}: {i}");
                        assert!(!oracle_cache.serve(&oracle, &req, &q, &mut theirs));
                        assert!(ours.is_empty() && theirs.is_empty(), "{what}: {i}");
                        encode_into(&answerer.answer(&q, true), &q, q.limit, &mut ours);
                        encode_into(&oracle.answer(&q), &q, q.limit, &mut theirs);
                        assert!(ours == theirs, "{what}: link {i}, {state} {budget}");
                    }
                }
                let (Some(mine), Some(want)) = (mine, want) else {
                    continue;
                };
                let state = if i == 0 { 0 } else { 2 };
                // Each suffix the template must refuse, as a qname and
                // under one more label.
                let refused = want
                    .excluded()
                    .flat_map(|suffix| [suffix.to_vec(), [b"\x01x", suffix].concat()]);
                let refused: Vec<Vec<u8>> = refused.collect();
                for qname in [&[][..], &long]
                    .into_iter()
                    .chain(refused.iter().map(Vec::as_slice))
                {
                    for budget in [512, 4096] {
                        let req = request(qname, RrType::A, state, budget);
                        let lc = &mut [0; MAX_QNAME];
                        let q = FastQuery::parse(&req, lc).expect("a canonical request");
                        ours.clear();
                        theirs.clear();
                        let emitted = mine.emit(&req, &q, &mut ours);
                        assert_eq!(emitted, want.emit(&req, &q, &mut theirs), "{what}: {i}");
                        assert!(ours == theirs, "{what}: template {i}, {budget}");
                    }
                }
            }
            // A link template for the apex's link and the last link under
            // each TLD; at 1 TLD `net.` is not delegated, and the thirteen
            // root servers' links are reachable too. (At 1 500 TLDs: 1 501
            // of 4 514 links.)
            let links = 1 + (13 - root_servers) + tld_count;
            assert_eq!(built, if signed { links } else { 0 }, "{what}");
        }
    }

    /// The build in two parts is the build in one: the same image, the
    /// same templates and entry count, and — for every owner, junk beside
    /// and below the TLDs and the identity names, at every cached qtype
    /// and one uncached, in every EDNS state at every budget class — the
    /// same answer or the same refusal, over zones below and above
    /// `SPLIT_NAMES`.
    #[test]
    fn a_build_in_two_parts_serves_what_one_part_does() {
        for tld_count in [8, 1_500] {
            let cfg = RootZoneConfig {
                tld_count,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            };
            let zone = Arc::new(build_root_zone(&cfg, &ZoneKeys::from_seed(3)));
            let index = ZoneIndex::build(zone);
            let mut qnames: Vec<Vec<u8>> = index.names().map(|n| n.as_wire().to_vec()).collect();
            qnames.extend(CHAOS_NAMES.map(|c| Name::parse(c).unwrap().as_wire().to_vec()));
            for c in b'a'..=b'z' {
                qnames.push(vec![3, c, b'0', b'x']);
                qnames.push(vec![1, c, 3, b'c', b'o', b'm']);
            }
            let (one, two) = (
                AnswerCache::build_parts(&index, 1),
                AnswerCache::build_parts(&index, 2),
            );
            let what = format!("{tld_count} TLDs");
            assert!(one.image == two.image, "{what}: image");
            assert_eq!(one.templates, two.templates, "{what}");
            assert_eq!(one.entries(), two.entries(), "{what}");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut hits = 0;
            for qname in &qnames {
                for qtype in CACHED_QTYPES.into_iter().chain([RrType::Other(65)]) {
                    for state in 0..3 {
                        for budget in [512, 1232, 4096, 700] {
                            let req = request(qname, qtype, state, budget);
                            let lc = &mut [0; MAX_QNAME];
                            let q = FastQuery::parse(&req, lc).expect("a canonical request");
                            a.clear();
                            b.clear();
                            let hit = one.serve(&index, &req, &q, &mut a);
                            assert_eq!(hit, two.serve(&index, &req, &q, &mut b), "{what}");
                            assert!(a == b, "{what}: {qname:?} {qtype:?} {state} {budget}");
                            hits += usize::from(hit);
                        }
                    }
                }
            }
            assert!(hits > qnames.len(), "{what}: {hits} hits");
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
