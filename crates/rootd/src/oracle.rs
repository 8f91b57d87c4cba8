//! The zone index and the zone-only answer cache as they were built while
//! a serving epoch was some fifty thousand heap allocations, kept as the
//! oracle the epoch must agree with: the same NSEC chain, TLD labels,
//! priming glue and negative authority, the same stored bytes for every
//! cached shape and NXDOMAIN template, and the same uncached answers.
//!
//! [`OracleIndex::build`] groups records under a boxed owner key per
//! record in a hash map, lays them out walking that map in hash order, and
//! keeps each owner as a node of its own with a `Vec` of RRsets in a second
//! map. [`OracleCache::build`] stores each name's shapes, answer sets and
//! bytes in an entry of two boxes, and each NXDOMAIN template in two boxes
//! and a hash set of excluded suffixes. Only the record encoder
//! (`Record::write_wire`), the response encoder (`crate::answer`) and the
//! request view (`crate::query`) are shared with the code under test.

use crate::answer::{encode, encode_into, Plan};
use crate::query::{FastQuery, MAX_QNAME};
use dns_wire::rdata::Rdata;
use dns_wire::wire::WireWriter;
use dns_wire::{Class, Name, Rcode, Record, RrType};
use dns_zone::Zone;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Where a run of records lies in the arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    start: u32,
    end: u32,
}

/// One RRset, then its covering signatures, in one run of the arena.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RrsetEntry {
    start: u32,
    records_end: u32,
    end: u32,
}

impl RrsetEntry {
    fn records(&self) -> Span {
        Span {
            start: self.start,
            end: self.records_end,
        }
    }

    fn section(&self, dnssec: bool) -> Span {
        Span {
            start: self.start,
            end: if dnssec { self.end } else { self.records_end },
        }
    }
}

/// A delegation: NS, DS and RRSIG(DS) as one entry, then the glue.
#[derive(Debug, Clone, Copy, Default)]
struct Referral {
    authority: RrsetEntry,
    glue: Span,
}

enum Lookup<'a> {
    Answer(&'a RrsetEntry),
    Referral(&'a Referral),
    NoData,
    NxDomain,
}

struct Node {
    name: Name,
    rrsets: Vec<(RrType, RrsetEntry)>,
    referral: Option<Referral>,
}

impl Node {
    fn rrset(&self, rr_type: RrType) -> Option<&RrsetEntry> {
        let found = self.rrsets.iter().find(|(t, _)| *t == rr_type);
        found.map(|(_, entry)| entry)
    }

    fn answer(&self, rr_type: RrType) -> Lookup<'_> {
        match self.rrset(rr_type) {
            Some(entry) if entry.records_end > entry.start => Lookup::Answer(entry),
            _ => Lookup::NoData,
        }
    }
}

struct Grouped<'z> {
    name: &'z Name,
    rrsets: Vec<(RrType, Vec<&'z Record>, Vec<&'z Record>)>,
}

/// Records laid out as `crate::index::WireRecords` reads them.
struct Arena {
    bytes: Vec<u8>,
    w: WireWriter,
}

impl Arena {
    fn len(&self) -> u32 {
        u32::try_from(self.bytes.len()).expect("an arena under 4 GiB")
    }

    fn push(&mut self, rec: &Record) {
        self.w.truncate(0);
        rec.write_wire(&mut self.w);
        let owner = rec.name.as_wire();
        self.bytes.push(owner.len() as u8);
        self.bytes.extend_from_slice(owner);
        self.bytes
            .extend_from_slice(&self.w.as_bytes()[owner.len() + 1..]);
    }

    fn copy(&mut self, spans: impl IntoIterator<Item = Span>) -> Span {
        let start = self.len();
        for span in spans {
            let range = span.start as usize..span.end as usize;
            self.bytes.extend_from_within(range);
        }
        Span {
            start,
            end: self.len(),
        }
    }
}

fn sort_key<'b>(name: &[u8], buf: &'b mut [u8; 254]) -> &'b [u8] {
    let (mut at, mut rest) = (name.len(), name);
    while let Some(&len) = rest.first() {
        let (label, tail) = rest.split_at(1 + len as usize);
        at -= label.len();
        buf[at..at + label.len()].copy_from_slice(label);
        rest = tail;
    }
    buf[..name.len()].make_ascii_lowercase();
    &buf[..name.len()]
}

fn cmp_sort_keys(mut a: &[u8], mut b: &[u8]) -> Ordering {
    loop {
        let (Some(&a_len), Some(&b_len)) = (a.first(), b.first()) else {
            return a.len().cmp(&b.len());
        };
        let (a_label, a_rest) = a[1..].split_at(a_len as usize);
        let (b_label, b_rest) = b[1..].split_at(b_len as usize);
        match a_label.iter().cmp(b_label) {
            Ordering::Equal => (a, b) = (a_rest, b_rest),
            unequal => return unequal,
        }
    }
}

fn key_of(name: &Name) -> Box<[u8]> {
    name.as_wire().to_ascii_lowercase().into()
}

/// The zone index, built as it was.
pub(crate) struct OracleIndex {
    origin: Name,
    arena: Box<[u8]>,
    nodes: HashMap<Box<[u8]>, Node>,
    negative: RrsetEntry,
    priming_glue: Span,
    nsec_chain: Vec<(Name, RrsetEntry)>,
    nsec_keys: Vec<Box<[u8]>>,
}

impl OracleIndex {
    pub(crate) fn build(zone: &Zone) -> OracleIndex {
        let origin = zone.origin().clone();
        let mut grouped: HashMap<Box<[u8]>, Grouped<'_>> = HashMap::new();
        for rec in zone.records() {
            let node = grouped.entry(key_of(&rec.name)).or_insert_with(|| Grouped {
                name: &rec.name,
                rrsets: Vec::new(),
            });
            let covered = match &rec.rdata {
                Rdata::Rrsig(sig) => Some(sig.type_covered),
                _ => None,
            };
            let rr_type = covered.unwrap_or(rec.rr_type);
            let at = match node.rrsets.iter().position(|(t, ..)| *t == rr_type) {
                Some(at) => at,
                None => {
                    node.rrsets.push((rr_type, Vec::new(), Vec::new()));
                    node.rrsets.len() - 1
                }
            };
            let (_, records, sigs) = &mut node.rrsets[at];
            match covered {
                Some(_) => sigs.push(rec),
                None => records.push(rec),
            }
        }

        let mut arena = Arena {
            bytes: Vec::new(),
            w: WireWriter::without_compression(),
        };
        let mut nodes: HashMap<Box<[u8]>, Node> = HashMap::new();
        let mut delegations = Vec::new();
        for (key, group) in grouped {
            let mut rrsets = Vec::with_capacity(group.rrsets.len());
            for (rr_type, records, sigs) in &group.rrsets {
                let start = arena.len();
                records.iter().for_each(|rec| arena.push(rec));
                let records_end = arena.len();
                sigs.iter().for_each(|rec| arena.push(rec));
                let entry = RrsetEntry {
                    start,
                    records_end,
                    end: arena.len(),
                };
                rrsets.push((*rr_type, entry));
                if *rr_type == RrType::Ns && !records.is_empty() {
                    let targets = records.iter().filter_map(|rec| match &rec.rdata {
                        Rdata::Ns(target) => Some(key_of(target)),
                        _ => None,
                    });
                    delegations.push((key.clone(), targets.collect::<Vec<_>>()));
                }
            }
            let node = Node {
                name: group.name.clone(),
                rrsets,
                referral: None,
            };
            nodes.insert(key, node);
        }

        let glue_of = |nodes: &HashMap<Box<[u8]>, Node>, targets: &[Box<[u8]>]| {
            let found = targets.iter().filter_map(|target| nodes.get(target));
            let glue = found.flat_map(|node| {
                let types = [RrType::A, RrType::Aaaa].into_iter();
                types.filter_map(|glue_type| Some(node.rrset(glue_type)?.records()))
            });
            glue.collect::<Vec<Span>>()
        };
        let apex_key = key_of(&origin);
        let mut priming_glue = Span::default();
        for (key, targets) in delegations {
            let glue = glue_of(&nodes, &targets);
            if key == apex_key {
                priming_glue = arena.copy(glue);
                continue;
            }
            let node = &nodes[&key];
            let ns = node.rrset(RrType::Ns).expect("a delegation").records();
            let ds = node.rrset(RrType::Ds).map(|ds| ds.section(true));
            let ns = arena.copy([ns]);
            let ds = arena.copy(ds);
            let referral = Referral {
                authority: RrsetEntry {
                    start: ns.start,
                    records_end: ns.end,
                    end: ds.end,
                },
                glue: arena.copy(glue),
            };
            nodes.get_mut(&key).expect("an owner").referral = Some(referral);
        }

        let apex = nodes.get(&apex_key);
        let negative = apex.and_then(|node| node.rrset(RrType::Soa).copied());
        let mut nsec_chain: Vec<(Name, RrsetEntry)> = nodes
            .values()
            .filter_map(|node| Some((node.name.clone(), *node.rrset(RrType::Nsec)?)))
            .collect();
        nsec_chain.sort_by(|a, b| a.0.canonical_cmp(&b.0));
        let nsec_keys = nsec_chain
            .iter()
            .map(|(owner, _)| sort_key(owner.as_wire(), &mut [0; 254]).into())
            .collect();

        OracleIndex {
            origin,
            arena: arena.bytes.into_boxed_slice(),
            nodes,
            negative: negative.unwrap_or_default(),
            priming_glue,
            nsec_chain,
            nsec_keys,
        }
    }

    fn wire(&self, span: Span) -> &[u8] {
        &self.arena[span.start as usize..span.end as usize]
    }

    pub(crate) fn tld_labels(&self) -> Vec<String> {
        let cuts = self.nodes.values().filter(|node| node.referral.is_some());
        let mut out: Vec<String> = cuts
            .map(|node| {
                let name = node.name.to_string();
                name.trim_end_matches('.').to_ascii_lowercase()
            })
            .collect();
        out.sort();
        out
    }

    /// Every owner name, in the map's order.
    pub(crate) fn names(&self) -> impl Iterator<Item = &Name> {
        self.nodes.values().map(|node| &node.name)
    }

    /// The chain's owners, each with its NSEC and RRSIG records as wire.
    pub(crate) fn nsec_chain(&self) -> Vec<(Name, &[u8])> {
        let links = self.nsec_chain.iter();
        let links = links.map(|(owner, entry)| (owner.clone(), self.wire(entry.section(true))));
        links.collect()
    }

    pub(crate) fn negative_authority(&self, dnssec: bool) -> &[u8] {
        self.wire(self.negative.section(dnssec))
    }

    pub(crate) fn priming_glue(&self) -> &[u8] {
        self.wire(self.priming_glue)
    }

    fn covering_link(&self, name: &[u8]) -> Option<usize> {
        let last = self.nsec_keys.len().checked_sub(1)?;
        let mut buf = [0; 254];
        let name = sort_key(name, &mut buf);
        let found = self
            .nsec_keys
            .binary_search_by(|owner| cmp_sort_keys(owner, name));
        Some(match found {
            Ok(i) => i,
            Err(0) => last,
            Err(i) => i - 1,
        })
    }

    fn cut_of(name: &[u8]) -> &[u8] {
        let mut cut = name;
        while cut.first().is_some_and(|&len| cut.len() > 1 + len as usize) {
            cut = &cut[1 + cut[0] as usize..];
        }
        cut
    }

    fn referral_above(&self, name: &[u8]) -> Option<&Referral> {
        self.nodes.get(Self::cut_of(name))?.referral.as_ref()
    }

    fn lookup(&self, name: &[u8], rr_type: RrType) -> Lookup<'_> {
        let cut = Self::cut_of(name);
        let node = match self.nodes.get(cut) {
            Some(at_cut) => {
                if let Some(referral) = &at_cut.referral {
                    let parent_side = matches!(rr_type, RrType::Ds | RrType::Nsec);
                    if !(cut.len() == name.len() && parent_side) {
                        return Lookup::Referral(referral);
                    }
                }
                (cut.len() == name.len()).then_some(at_cut)
            }
            None => None,
        };
        match node.or_else(|| self.nodes.get(name)) {
            Some(node) => node.answer(rr_type),
            None => Lookup::NxDomain,
        }
    }

    /// What `crate::answer::Answerer` resolves an identity-free IN query
    /// to over this index: authoritative data (with the priming glue for
    /// the apex NS), a referral, or a negative answer.
    pub(crate) fn answer(&self, q: &FastQuery<'_>) -> Plan<'_> {
        assert_eq!(q.class, Class::In.to_u16(), "the oracle answers IN only");
        let dnssec = q.dnssec_ok();
        match self.lookup(q.name_lc(), RrType::from_u16(q.qtype)) {
            Lookup::Answer(entry) => {
                let origin = self.origin.as_wire();
                let priming =
                    q.qtype == RrType::Ns.to_u16() && origin.eq_ignore_ascii_case(q.name_lc());
                let glue = if priming { self.priming_glue() } else { &[] };
                let answers = self.wire(entry.section(dnssec));
                Plan::with_sections(q, Rcode::NoError, true, answers, [&[], &[]], glue)
            }
            Lookup::Referral(referral) => {
                let authority = [self.wire(referral.authority.section(dnssec)), &[]];
                let glue = self.wire(referral.glue);
                Plan::with_sections(q, Rcode::NoError, false, &[], authority, glue)
            }
            Lookup::NoData => self.negative(q, Rcode::NoError),
            Lookup::NxDomain => self.negative(q, Rcode::NxDomain),
        }
    }

    fn negative(&self, q: &FastQuery<'_>, rcode: Rcode) -> Plan<'_> {
        let nsec = if q.dnssec_ok() {
            let link = self.covering_link(q.name_lc());
            link.map(|i| &self.nsec_chain[i].1)
        } else {
            None
        };
        self.negative_with(q, rcode, nsec)
    }

    fn negative_with<'a>(
        &'a self,
        q: &FastQuery<'_>,
        rcode: Rcode,
        nsec: Option<&RrsetEntry>,
    ) -> Plan<'a> {
        let authority = [
            self.negative_authority(q.dnssec_ok()),
            nsec.map_or(&[], |nsec| self.wire(nsec.section(true))),
        ];
        Plan::with_sections(q, rcode, true, &[], authority, &[])
    }
}

const ROOT_QEND: usize = 17;
const BUCKETS: [usize; 3] = [512, 1232, 4096];
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

#[derive(Debug, Clone, Copy, Default)]
struct ArenaSpan {
    start: u32,
    len: u32,
}

impl ArenaSpan {
    fn push(arena: &mut Vec<u8>, bytes: &[u8]) -> ArenaSpan {
        let span = ArenaSpan {
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

#[derive(Debug, Clone, Copy, Default)]
struct ResponseSet {
    full: ArenaSpan,
    truncated: [ArenaSpan; BUCKETS.len()],
}

impl ResponseSet {
    fn select<'a>(&self, limit: usize, arena: &'a [u8]) -> Option<&'a [u8]> {
        if self.full.len as usize <= limit {
            return Some(self.full.of(arena));
        }
        let bucket = BUCKETS.iter().position(|&b| b == limit)?;
        let variant = self.truncated[bucket];
        (variant.len > 0).then(|| variant.of(arena))
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ShapeRef {
    qtype: u16,
    class: u16,
    set: u16,
}

struct NameEntry {
    shapes: [ShapeRef; CACHED_QTYPES.len()],
    sets: Box<[[ResponseSet; 3]]>,
    arena: Box<[u8]>,
}

fn same_answer(a: &Lookup<'_>, b: &Lookup<'_>) -> bool {
    match (a, b) {
        (Lookup::Answer(x), Lookup::Answer(y)) => std::ptr::eq(*x, *y),
        (Lookup::Referral(x), Lookup::Referral(y)) => std::ptr::eq(*x, *y),
        (Lookup::NoData, Lookup::NoData) | (Lookup::NxDomain, Lookup::NxDomain) => true,
        _ => false,
    }
}

impl NameEntry {
    fn build(index: &OracleIndex, name: &Name, scratch: &mut Scratch) -> NameEntry {
        let mut table = [ShapeRef::default(); CACHED_QTYPES.len()];
        let mut built: Vec<(Lookup<'_>, u16)> = Vec::new();
        let Scratch { bytes, sets, arena } = scratch;
        sets.clear();
        arena.clear();
        let key = name.canonical();
        for (slot, qtype) in table.iter_mut().zip(CACHED_QTYPES) {
            let lookup = index.lookup(key.as_wire(), qtype);
            let shared = built.iter().find(|(b, _)| same_answer(b, &lookup));
            let set = match shared {
                Some(&(_, set)) => set,
                None => {
                    let set = sets.len() as u16;
                    sets.push(build_set(index, name, qtype, arena, bytes));
                    built.push((lookup, set));
                    set
                }
            };
            *slot = ShapeRef {
                qtype: qtype.to_u16(),
                class: Class::In.to_u16(),
                set,
            };
        }
        NameEntry {
            shapes: table,
            sets: sets.as_slice().into(),
            arena: arena.as_slice().into(),
        }
    }

    fn serve(&self, req: &[u8], q: &FastQuery<'_>, out: &mut Vec<u8>) -> bool {
        let Some(shape) = (self.shapes.iter()).find(|s| s.qtype == q.qtype && s.class == q.class)
        else {
            return false;
        };
        let Some(bytes) = self.sets[shape.set as usize][q.state].select(q.limit, &self.arena)
        else {
            return false;
        };
        let base = out.len();
        out.extend_from_slice(bytes);
        let out = &mut out[base..];
        out[0] = req[0];
        out[1] = req[1];
        out[2] = (out[2] & !0x01) | (req[2] & 0x01);
        let qend = 12 + q.lc.len() + 4;
        out[12..qend].copy_from_slice(&req[12..qend]);
        true
    }
}

#[derive(Default)]
struct Scratch {
    bytes: Vec<u8>,
    sets: Vec<[ResponseSet; 3]>,
    arena: Vec<u8>,
}

fn build_set(
    index: &OracleIndex,
    name: &Name,
    qtype: RrType,
    arena: &mut Vec<u8>,
    bytes: &mut Vec<u8>,
) -> [ResponseSet; 3] {
    [0, 1, 2].map(|state| {
        let lc = &mut [0; MAX_QNAME];
        let q = FastQuery::for_question(name, qtype, Class::In, state, lc);
        let plan = index.answer(&q);
        encode_into(&plan, &q, usize::MAX, bytes);
        let full = ArenaSpan::push(arena, bytes);
        ResponseSet {
            full,
            truncated: BUCKETS.map(|bucket| {
                if full.len as usize <= bucket {
                    return ArenaSpan::default();
                }
                encode_into(&plan, &q, bucket, bytes);
                ArenaSpan::push(arena, bytes)
            }),
        }
    })
}

/// A parametric negative response, as it was stored.
pub(crate) struct NegTemplate {
    head: [u8; 12],
    tail: Box<[u8]>,
    fixups: Box<[(u16, u16)]>,
    excluded: HashSet<Vec<u8>>,
}

impl NegTemplate {
    /// The label-suffix keys a qname must not end in.
    pub(crate) fn excluded(&self) -> impl Iterator<Item = &[u8]> {
        self.excluded.iter().map(Vec::as_slice)
    }

    pub(crate) fn emit(&self, req: &[u8], q: &FastQuery<'_>, out: &mut Vec<u8>) -> bool {
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

fn build_negative(
    index: &OracleIndex,
    state: usize,
    nsec: Option<&RrsetEntry>,
    scratch: &mut Vec<u8>,
) -> Option<NegTemplate> {
    let root = Name::root();
    let lc = &mut [0; MAX_QNAME];
    let q = FastQuery::for_question(&root, RrType::A, Class::In, state, lc);
    let plan = index.negative_with(&q, Rcode::NxDomain, nsec);
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

/// The zone-only answer cache, built as it was.
pub(crate) struct OracleCache {
    exact: HashMap<Vec<u8>, NameEntry>,
    nx_plain: Option<NegTemplate>,
    nx_edns: Option<NegTemplate>,
    nx_do: Vec<Option<NegTemplate>>,
    nx_do_unsigned: Option<NegTemplate>,
}

impl OracleCache {
    pub(crate) fn build(index: &OracleIndex) -> OracleCache {
        let mut scratch = Scratch::default();
        let exact = index
            .names()
            .map(|name| {
                let entry = NameEntry::build(index, name, &mut scratch);
                (name.canonical_wire(), entry)
            })
            .collect();
        let nx_do: Vec<Option<NegTemplate>> = (index.nsec_chain.iter())
            .map(|(_, entry)| build_negative(index, 2, Some(entry), &mut scratch.bytes))
            .collect();
        let nx_do_unsigned = if nx_do.is_empty() {
            build_negative(index, 2, None, &mut scratch.bytes)
        } else {
            None
        };
        OracleCache {
            exact,
            nx_plain: build_negative(index, 0, None, &mut scratch.bytes),
            nx_edns: build_negative(index, 1, None, &mut scratch.bytes),
            nx_do,
            nx_do_unsigned,
        }
    }

    /// Every NXDOMAIN template: no EDNS, EDNS, EDNS+DO for an unsigned
    /// zone, then EDNS+DO per chain link.
    pub(crate) fn templates(&self) -> impl Iterator<Item = Option<&NegTemplate>> {
        let fixed = [&self.nx_plain, &self.nx_edns, &self.nx_do_unsigned];
        (fixed.into_iter().chain(&self.nx_do)).map(Option::as_ref)
    }

    /// `AnswerCache::serve` as it was.
    pub(crate) fn serve(
        &self,
        index: &OracleIndex,
        req: &[u8],
        q: &FastQuery<'_>,
        out: &mut Vec<u8>,
    ) -> bool {
        if q.qtype == RrType::Axfr.to_u16() {
            return false;
        }
        if let Some(entry) = self.exact.get(q.lc) {
            return entry.serve(req, q, out);
        }
        if q.class != Class::In.to_u16() {
            return false;
        }
        let name = q.name_lc();
        let one_label = name
            .first()
            .is_some_and(|&len| name.len() == 1 + len as usize);
        if !one_label && index.referral_above(name).is_some() {
            return false;
        }
        let template = match q.state {
            0 => self.nx_plain.as_ref(),
            1 => self.nx_edns.as_ref(),
            _ => match index.covering_link(name) {
                Some(i) => self.nx_do[i].as_ref(),
                None => self.nx_do_unsigned.as_ref(),
            },
        };
        template.is_some_and(|t| t.emit(req, q, out))
    }
}
