//! The zone precompiled for serving.
//!
//! An authoritative server cannot afford a linear scan over the zone per
//! query (the root answers every query from the same small zone, so the
//! whole zone is indexed once at load). [`ZoneIndex`] precomputes what the
//! answer path needs:
//!
//! * positive RRsets keyed `(owner, type)` with their covering RRSIGs;
//! * the set of existing owner names (NODATA vs NXDOMAIN);
//! * per-TLD referral bundles: delegation NS in the authority section, DS
//!   (+RRSIG) for signed delegations, in-bailiwick glue as additionals;
//! * the apex SOA (+RRSIG) for negative responses;
//! * the NSEC chain in canonical order, for NXDOMAIN proofs.
//!
//! # The zone as wire
//!
//! The records themselves are encoded once, at build, into one arena per
//! index, end to end as [`WireRecords`] reads them: the owner's flat wire
//! form behind its length byte, then exactly what `Record::write_wire`
//! writes after the owner — TYPE, CLASS, TTL, RDLENGTH and RDATA. Response
//! RDATA is never compressed, so that body means the same at any offset of
//! any message: an answer copies it and compresses only the owner. Every
//! RRset is one run in the arena (its records, then the RRSIGs covering
//! them), and each referral is one run of its own — NS, DS, RRSIG(DS),
//! then the glue — so a delegation is answered from a few consecutive
//! cache lines. Everything the answer path is handed is a [`Span`] into
//! that arena ([`ZoneIndex::wire`]); no `Record` is kept beside it. Zone
//! transfers and ZONEMD still read the [`Zone`] the index was built from.
//!
//! Lookups take the query name as the answer path already has it —
//! lowercased flat wire form — and hand out spans: a query is resolved
//! without cloning a name or a record.
//!
//! # One epoch, a few allocations
//!
//! Each zone push builds an index, and the push after it frees it, so an
//! index is a fixed handful of flat arrays whatever the zone's size: the
//! arena; one key image holding every owner's key end to end and then
//! every NSEC owner's `sort_key`; the owners as nodes, each naming its
//! key in the image and its RRsets as a range of one RRset array; the NSEC
//! chain as one array of links into both; and the owner table, an
//! open-addressed `crate::hash::OffsetTable` of node positions. No key is
//! allocated per owner, no `Vec` per node.
//!
//! The build walks the zone in zone order. The first walk groups records
//! under their owner — a node in the order the zone first names it, found
//! through the table — and under the RRset of their type (a signature
//! under the type it covers), and counts both per RRset. A counting pass
//! then lays the RRsets out owner by owner and places each record's
//! position, records before signatures; the second walk encodes the
//! records into the arena in that order, reading the zone's records
//! nearly in sequence; the third lays out the referrals and the priming
//! glue. Zone order because the records lie in it: a walk in any other
//! order — a hash map's, say — reads the records and their heap RDATA at
//! random places, three times as long on a root-sized zone.

use crate::hash::{zone_hash, OffsetTable};
use dns_wire::rdata::Rdata;
use dns_wire::wire::WireWriter;
use dns_wire::{Name, Record, RrType};
use dns_zone::Zone;
use std::cmp::Ordering;
use std::sync::Arc;

/// Where a run of records lies in a [`ZoneIndex`]'s arena; read it with
/// [`ZoneIndex::wire`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    start: u32,
    end: u32,
}

/// A delegation response bundle for one TLD.
#[derive(Debug, Clone, Copy, Default)]
pub struct Referral {
    /// The NS RRset at the TLD; DS and RRSIG(DS) ride along as its
    /// "signatures" when the query asks for DNSSEC.
    pub authority: RrsetEntry,
    /// In-bailiwick glue (A/AAAA of the delegated name servers).
    pub glue: Span,
}

/// One positive answer: the RRset, then its covering signatures, in one
/// run of the arena.
#[derive(Debug, Clone, Copy, Default)]
pub struct RrsetEntry {
    start: u32,
    /// Where the RRset ends and its signatures begin.
    records_end: u32,
    end: u32,
}

impl RrsetEntry {
    /// The RRset itself.
    pub fn records(&self) -> Span {
        Span {
            start: self.start,
            end: self.records_end,
        }
    }

    /// The section this RRset fills: with its signatures when `dnssec`.
    pub fn section(&self, dnssec: bool) -> Span {
        Span {
            start: self.start,
            end: if dnssec { self.end } else { self.records_end },
        }
    }
}

/// Records laid end to end as the index's arena holds them: each the
/// owner's flat wire form (no root byte) behind its length byte, then
/// TYPE, CLASS, TTL, RDLENGTH and RDATA as a message carries them.
#[derive(Debug, Clone, Copy)]
pub struct WireRecords<'a>(&'a [u8]);

impl<'a> WireRecords<'a> {
    /// The records of `run` (an arena span's bytes, or a run built the
    /// same way).
    pub fn new(run: &'a [u8]) -> WireRecords<'a> {
        WireRecords(run)
    }
}

impl<'a> Iterator for WireRecords<'a> {
    type Item = WireRecord<'a>;

    fn next(&mut self) -> Option<WireRecord<'a>> {
        let &owner_len = self.0.first()?;
        let body = 1 + owner_len as usize;
        let rdlength = u16::from_be_bytes([self.0[body + 8], self.0[body + 9]]) as usize;
        let (record, rest) = self.0.split_at(body + 10 + rdlength);
        self.0 = rest;
        Some(WireRecord(record))
    }
}

/// One record of a [`WireRecords`] run.
#[derive(Debug, Clone, Copy)]
pub struct WireRecord<'a>(&'a [u8]);

impl<'a> WireRecord<'a> {
    /// The whole record as the run holds it.
    pub fn bytes(&self) -> &'a [u8] {
        self.0
    }

    /// The owner: flat wire form, no root byte, in the zone's case.
    pub fn owner(&self) -> &'a [u8] {
        &self.0[1..1 + self.0[0] as usize]
    }

    /// TYPE, CLASS, TTL, RDLENGTH and RDATA: what follows the owner in a
    /// message, never compressed.
    pub fn body(&self) -> &'a [u8] {
        &self.0[1 + self.0[0] as usize..]
    }
}

/// A run of records being laid out in the [`WireRecords`] form.
pub(crate) struct RunBuilder {
    bytes: Vec<u8>,
    /// Each record passes through here: its body is what
    /// `Record::write_wire` writes after the owner, byte for byte.
    w: WireWriter,
}

impl RunBuilder {
    pub(crate) fn new() -> RunBuilder {
        RunBuilder {
            bytes: Vec::new(),
            // The owner of a message's first name is written out in full
            // either way; without compression that is by definition.
            w: WireWriter::without_compression(),
        }
    }

    /// Offset of the next record.
    fn len(&self) -> u32 {
        u32::try_from(self.bytes.len()).expect("an arena under 4 GiB")
    }

    /// Append `rec`.
    pub(crate) fn push(&mut self, rec: &Record) {
        self.w.truncate(0);
        rec.write_wire(&mut self.w);
        let owner = rec.name.as_wire();
        self.bytes.push(owner.len() as u8);
        self.bytes.extend_from_slice(owner);
        self.bytes
            .extend_from_slice(&self.w.as_bytes()[owner.len() + 1..]);
    }

    /// Append copies of runs already laid out here.
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

    pub(crate) fn finish(self) -> Box<[u8]> {
        self.bytes.into_boxed_slice()
    }
}

/// The result of a name/type lookup.
#[derive(Debug)]
pub enum Lookup<'a> {
    /// Authoritative data (apex RRsets, parent-side DS/NSEC at a cut).
    Answer(&'a RrsetEntry),
    /// The name is at or below a zone cut: delegate.
    Referral(&'a Referral),
    /// The name exists but has no data of this type.
    NoData,
    /// The name does not exist.
    NxDomain,
}

/// Everything the zone holds at one owner name.
#[derive(Debug)]
struct Node {
    /// The owner, in the case the zone first spells it.
    name: Name,
    /// Where the owner's key — its flat wire form, lowercased — lies in
    /// the index's key image.
    key: u32,
    key_len: u8,
    /// The owner's RRsets: `rrsets[first..first + count]`, in the order
    /// the zone first names each type there.
    first: u32,
    count: u32,
    /// Set when the owner is a zone cut.
    referral: Option<Referral>,
}

impl Node {
    /// The node's RRsets, from the index's RRset array.
    fn rrsets<'r>(&self, rrsets: &'r [(RrType, RrsetEntry)]) -> &'r [(RrType, RrsetEntry)] {
        &rrsets[self.first as usize..][..self.count as usize]
    }

    /// The node's RRset of `rr_type`, if it holds one.
    fn rrset<'r>(
        &self,
        rrsets: &'r [(RrType, RrsetEntry)],
        rr_type: RrType,
    ) -> Option<&'r RrsetEntry> {
        let found = self.rrsets(rrsets).iter().find(|(t, _)| *t == rr_type);
        found.map(|(_, entry)| entry)
    }
}

/// One link of the NSEC chain.
#[derive(Debug)]
struct NsecLink {
    /// The owner's position in the index's nodes.
    node: u32,
    /// Where the owner's [`sort_key`] lies in the key image; it is as long
    /// as the owner's key.
    sort_key: u32,
    sort_len: u8,
    entry: RrsetEntry,
}

/// The signed root zone, precompiled into a handful of flat arrays (module
/// docs, "One epoch, a few allocations").
#[derive(Debug)]
pub struct ZoneIndex {
    zone: Arc<Zone>,
    origin: Name,
    serial: u32,
    /// Every record the answer path can hand out, as wire (module docs).
    arena: Box<[u8]>,
    /// Every owner's key end to end, then every NSEC owner's sort key.
    keys: Box<[u8]>,
    /// The owners in zone order: the order the zone first names them.
    nodes: Box<[Node]>,
    /// Every RRset, owner by owner, with where its run lies in the arena.
    rrsets: Box<[(RrType, RrsetEntry)]>,
    /// Owner key → position in `nodes`.
    owners: OffsetTable,
    /// Apex SOA, then its RRSIG, for negative-response authority sections.
    negative: RrsetEntry,
    /// A and AAAA of every apex NS target, in NS order: the additional
    /// section of the priming response (RFC 8109).
    priming_glue: Span,
    /// The NSEC chain in canonical order: what the NXDOMAIN path's binary
    /// search walks.
    nsec_chain: Box<[NsecLink]>,
}

/// `name` (flat wire form, any case) as RFC 4034 §6.1 orders it, so that
/// two names compare in one forward walk: labels lowercased, rightmost
/// first, each behind its length byte.
fn sort_key<'b>(name: &[u8], buf: &'b mut [u8; 254]) -> &'b [u8] {
    // Fill from the back: the leftmost label lands last.
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

/// Canonical order of the names two [`sort_key`]s were made of: label by
/// label, each as a byte string; the name that runs out first sorts first.
fn cmp_sort_keys(mut a: &[u8], mut b: &[u8]) -> Ordering {
    loop {
        let (Some(&a_len), Some(&b_len)) = (a.first(), b.first()) else {
            return a.len().cmp(&b.len());
        };
        let (a_label, a_rest) = a[1..].split_at(a_len as usize);
        let (b_label, b_rest) = b[1..].split_at(b_len as usize);
        // Labels are short: a byte loop beats a `memcmp` call.
        match a_label.iter().cmp(b_label) {
            Ordering::Equal => (a, b) = (a_rest, b_rest),
            unequal => return unequal,
        }
    }
}

/// The key `name` (flat wire form, any case) is indexed under: lowercased,
/// into `buf`.
fn key_of<'b>(name: &[u8], buf: &'b mut [u8; 254]) -> &'b [u8] {
    let key = &mut buf[..name.len()];
    key.copy_from_slice(name);
    // Length bytes are at most 63, below `A`: lowercasing the whole name
    // touches label bytes only.
    key.make_ascii_lowercase();
    key
}

/// `n` as a `u32` offset, count or position into one of the index's
/// arrays.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("an index under 4 GiB")
}

/// No RRset: the end of an owner's list while the index is built.
const NO_RRSET: u32 = u32::MAX;

/// One RRset while the index is built: its type, the next RRset of its
/// owner, how many records and signatures it holds, and — once laid out —
/// where its records and then its signatures go in the layout order.
struct Grouped {
    rr_type: RrType,
    next: u32,
    records: u32,
    sigs: u32,
    /// The next free position for a record, then for a signature.
    at: [u32; 2],
}

/// The owners seen so far while the index is built, and their keys.
struct Owners<'z> {
    nodes: Vec<Node>,
    keys: Vec<u8>,
    table: OffsetTable,
    /// The last owner found, as the zone spells it: a zone names one owner
    /// record after record.
    last: Option<(&'z [u8], u32)>,
}

impl<'z> Owners<'z> {
    /// The node of `name`, if the zone names it.
    fn find(&self, name: &Name) -> Option<&Node> {
        let mut buf = [0; 254];
        let key = key_of(name.as_wire(), &mut buf);
        let at = probe(&self.table, &self.keys, &self.nodes, key).0?;
        Some(&self.nodes[at as usize])
    }

    /// The position of `name`'s node, added if the zone names it first.
    fn node_of(&mut self, name: &'z Name) -> u32 {
        let wire = name.as_wire();
        if let Some((last, node)) = self.last {
            if last == wire {
                return node;
            }
        }
        let mut buf = [0; 254];
        let key = key_of(wire, &mut buf);
        let found = probe(&self.table, &self.keys, &self.nodes, key).0;
        let node = found.unwrap_or_else(|| {
            let node = offset(self.nodes.len());
            self.nodes.push(Node {
                name: name.clone(),
                key: offset(self.keys.len()),
                key_len: key.len() as u8,
                first: NO_RRSET,
                count: 0,
                referral: None,
            });
            self.keys.extend_from_slice(key);
            self.table.insert(zone_hash(key), node);
            node
        });
        self.last = Some((wire, node));
        node
    }
}

impl ZoneIndex {
    /// Precompile `zone` for serving: three walks in zone order (module
    /// docs, "One epoch, a few allocations").
    pub fn build(zone: Arc<Zone>) -> ZoneIndex {
        let origin = zone.origin().clone();
        let serial = zone.serial().unwrap_or(0);
        let records = zone.records();

        // First walk: each record's owner — a node, in the order the zone
        // first names it — and its RRset at that owner, the RRset of the
        // type an RRSIG covers for a signature; count both per RRset.
        let mut owners = Owners {
            nodes: Vec::with_capacity(records.len()),
            keys: Vec::new(),
            table: OffsetTable::with_capacity(records.len()),
            last: None,
        };
        let mut groups: Vec<Grouped> = Vec::with_capacity(records.len());
        // Per record: its RRset, and whether it signs that RRset.
        let mut grouped: Vec<(u32, bool)> = Vec::with_capacity(records.len());
        for rec in records {
            let node = owners.node_of(&rec.name);
            let covered = match &rec.rdata {
                Rdata::Rrsig(sig) => Some(sig.type_covered),
                _ => None,
            };
            let rr_type = covered.unwrap_or(rec.rr_type);
            let node = &mut owners.nodes[node as usize];
            let (mut at, mut tail) = (node.first, None);
            while at != NO_RRSET && groups[at as usize].rr_type != rr_type {
                tail = Some(at);
                at = groups[at as usize].next;
            }
            if at == NO_RRSET {
                at = offset(groups.len());
                groups.push(Grouped {
                    rr_type,
                    next: NO_RRSET,
                    records: 0,
                    sigs: 0,
                    at: [0; 2],
                });
                match tail {
                    Some(tail) => groups[tail as usize].next = at,
                    None => node.first = at,
                }
                node.count += 1;
            }
            let group = &mut groups[at as usize];
            match covered {
                Some(_) => group.sigs += 1,
                None => group.records += 1,
            }
            grouped.push((at, covered.is_some()));
        }

        // Lay the RRsets out owner by owner, each owner's in the order the
        // zone first names their types, each RRset's records before its
        // signatures; then place every record, in zone order, at its
        // RRset's next free position.
        let mut layout: Vec<u32> = Vec::with_capacity(groups.len());
        let mut cursor = 0;
        for node in owners.nodes.iter_mut() {
            let mut at = node.first;
            node.first = offset(layout.len());
            while at != NO_RRSET {
                let group = &mut groups[at as usize];
                group.at = [cursor, cursor + group.records];
                cursor += group.records + group.sigs;
                layout.push(at);
                at = group.next;
            }
        }
        let mut order = vec![0u32; records.len()];
        for (i, &(at, sig)) in grouped.iter().enumerate() {
            let next = &mut groups[at as usize].at[usize::from(sig)];
            order[*next as usize] = offset(i);
            *next += 1;
        }
        drop(grouped);
        // Where each RRset's records lie in `order`, by its position in
        // `rrsets`: what a delegation reads its NS targets from.
        let placed = |at: usize| {
            let group = &groups[layout[at] as usize];
            let end = group.at[0] as usize;
            order[end - group.records as usize..end].iter()
        };

        // Second walk: every RRset into the arena, one run each — its
        // records, then its signatures.
        let mut arena = RunBuilder::new();
        let mut rrsets: Vec<(RrType, RrsetEntry)> = Vec::with_capacity(layout.len());
        let mut walk = order.iter().map(|&i| &records[i as usize]);
        for &at in &layout {
            let group = &groups[at as usize];
            let start = arena.len();
            (&mut walk)
                .take(group.records as usize)
                .for_each(|rec| arena.push(rec));
            let records_end = arena.len();
            (&mut walk)
                .take(group.sigs as usize)
                .for_each(|rec| arena.push(rec));
            let entry = RrsetEntry {
                start,
                records_end,
                end: arena.len(),
            };
            rrsets.push((group.rr_type, entry));
        }

        // Third walk: delegation bundles, each one run of its own — NS, DS
        // and RRSIG(DS), then the glue: A, then AAAA, of each NS target in
        // NS order. A delegated TLD is a non-apex owner holding an NS RRset
        // (the root zone has no in-zone cuts deeper than one label); the
        // apex's NS targets give the priming glue.
        let rrset_of = |node: &Node, rr_type: RrType| node.rrset(&rrsets, rr_type).copied();
        let apex = owners.find(&origin);
        let negative = apex.and_then(|apex| rrset_of(apex, RrType::Soa));
        let mut priming_glue = Span::default();
        let mut referrals = Vec::new();
        for (at, node) in owners.nodes.iter().enumerate() {
            let delegates = |(t, entry): &(RrType, RrsetEntry)| {
                *t == RrType::Ns && entry.records_end > entry.start
            };
            let Some(ns) = node.rrsets(&rrsets).iter().position(delegates) else {
                continue;
            };
            let ns = node.first as usize + ns;
            let targets = placed(ns).filter_map(|&i| match &records[i as usize].rdata {
                Rdata::Ns(target) => owners.find(target),
                _ => None,
            });
            let glue = targets.flat_map(|target| {
                let types = [RrType::A, RrType::Aaaa].into_iter();
                types.filter_map(move |glue_type| Some(rrset_of(target, glue_type)?.records()))
            });
            if apex.is_some_and(|apex| std::ptr::eq(apex, node)) {
                priming_glue = arena.copy(glue);
                continue;
            }
            let ds = rrset_of(node, RrType::Ds).map(|ds| ds.section(true));
            let ns = arena.copy([rrsets[ns].1.records()]);
            let ds = arena.copy(ds);
            let referral = Referral {
                authority: RrsetEntry {
                    start: ns.start,
                    records_end: ns.end,
                    end: ds.end,
                },
                glue: arena.copy(glue),
            };
            referrals.push((at, referral));
        }
        let Owners {
            mut nodes,
            mut keys,
            table,
            ..
        } = owners;
        for (at, referral) in referrals {
            nodes[at].referral = Some(referral);
        }
        drop((layout, groups, order));

        // The NSEC chain in canonical order: each owner's sort key behind
        // the owner keys in the key image, the links sorted by them.
        let mut nsec_chain = Vec::new();
        for (at, node) in nodes.iter().enumerate() {
            let Some(&entry) = node.rrset(&rrsets, RrType::Nsec) else {
                continue;
            };
            let mut buf = [0; 254];
            let sort = sort_key(node_key(&keys, node), &mut buf);
            nsec_chain.push(NsecLink {
                node: offset(at),
                sort_key: offset(keys.len()),
                sort_len: node.key_len,
                entry,
            });
            keys.extend_from_slice(sort);
        }
        let sort_key_at =
            |link: &NsecLink| &keys[link.sort_key as usize..][..link.sort_len as usize];
        nsec_chain.sort_unstable_by(|a, b| cmp_sort_keys(sort_key_at(a), sort_key_at(b)));

        // The owner table once more, at the owner count.
        drop(table);
        let mut owners = OffsetTable::with_capacity(nodes.len());
        for (at, node) in nodes.iter().enumerate() {
            owners.insert(zone_hash(node_key(&keys, node)), offset(at));
        }

        ZoneIndex {
            zone,
            origin,
            serial,
            arena: arena.finish(),
            keys: keys.into_boxed_slice(),
            nodes: nodes.into_boxed_slice(),
            rrsets: rrsets.into_boxed_slice(),
            owners,
            negative: negative.unwrap_or_default(),
            priming_glue,
            nsec_chain: nsec_chain.into_boxed_slice(),
        }
    }

    /// The bytes of `span`: records end to end, as [`WireRecords`] reads
    /// them.
    pub fn wire(&self, span: Span) -> &[u8] {
        &self.arena[span.start as usize..span.end as usize]
    }

    /// The arena's size in bytes: every run the answer path reads.
    pub fn wire_len(&self) -> usize {
        self.arena.len()
    }

    /// The indexed zone (AXFR streams straight from it).
    pub fn zone(&self) -> &Arc<Zone> {
        &self.zone
    }

    /// Zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Zone serial.
    pub fn serial(&self) -> u32 {
        self.serial
    }

    /// Delegated TLD labels (lowercase, no trailing dot), sorted — the
    /// load generator draws its in-zone query names from this.
    pub fn tld_labels(&self) -> Vec<String> {
        let cuts = self.nodes.iter().filter(|node| node.referral.is_some());
        let mut out: Vec<String> = cuts
            .map(|node| {
                let name = node.name.to_string();
                name.trim_end_matches('.').to_ascii_lowercase()
            })
            .collect();
        out.sort();
        out
    }

    /// Every owner name the zone holds, in zone order.
    pub fn names(&self) -> impl ExactSizeIterator<Item = &Name> {
        self.nodes.iter().map(|node| &node.name)
    }

    /// The owners the answer cache precompiles, in zone order: every owner
    /// not [`Self::below_cut`] — the apex, every delegation point and any
    /// name with no cut above it.
    pub fn answered_names(&self) -> impl Iterator<Item = &Name> {
        let answered = |node: &&Node| !self.below_cut(node_key(&self.keys, node));
        self.nodes.iter().filter(answered).map(|node| &node.name)
    }

    /// Whether `name` (lowercased flat wire form) lies strictly below a
    /// zone cut, where [`Self::lookup`] hands every type the cut's
    /// referral — a glue owner's as much as a name the zone does not hold.
    pub fn below_cut(&self, name: &[u8]) -> bool {
        let cut = Self::cut_of(name);
        cut.len() < name.len() && self.node(cut).is_some_and(|node| node.referral.is_some())
    }

    /// The NSEC chain in canonical order: owner names with their NSEC
    /// records and signatures. The answer cache precompiles one NXDOMAIN
    /// template per link a query can reach ([`Self::link_reachable`]).
    pub fn nsec_chain(&self) -> impl ExactSizeIterator<Item = (&Name, &RrsetEntry)> {
        let links = self.nsec_chain.iter();
        links.map(|link| (&self.nodes[link.node as usize].name, &link.entry))
    }

    /// Whether the link at `link` of [`Self::nsec_chain`] covers any name
    /// that is not [`Self::below_cut`] — the only names an NXDOMAIN proof
    /// is built for. A link whose next owner lies strictly below a cut,
    /// and whose own owner is that cut or lies under it, covers names
    /// under that cut alone, and [`Self::lookup`] refers every one of them.
    pub fn link_reachable(&self, link: usize) -> bool {
        let owner = |at: usize| {
            let link = &self.nsec_chain[at % self.nsec_chain.len()];
            node_key(&self.keys, &self.nodes[link.node as usize])
        };
        let (owner, next) = (owner(link), owner(link + 1));
        !(self.below_cut(next) && Self::cut_of(owner) == Self::cut_of(next))
    }

    /// SOA (+ RRSIG when `dnssec`) for negative-response authority.
    pub fn negative_authority(&self, dnssec: bool) -> &[u8] {
        self.wire(self.negative.section(dnssec))
    }

    /// The additional section of the priming response.
    pub fn priming_glue(&self) -> &[u8] {
        self.wire(self.priming_glue)
    }

    /// Where in [`Self::nsec_chain`] the link covering `name` (flat wire
    /// form, any case) lies — the link whose owner canonically precedes or
    /// equals it — for NXDOMAIN proofs. `None` in an unsigned zone.
    pub fn covering_link(&self, name: &[u8]) -> Option<usize> {
        let last = self.nsec_chain.len().checked_sub(1)?;
        let mut buf = [0; 254];
        let name = sort_key(name, &mut buf);
        let found = self.nsec_chain.binary_search_by(|link| {
            let owner = &self.keys[link.sort_key as usize..][..link.sort_len as usize];
            cmp_sort_keys(owner, name)
        });
        Some(match found {
            Ok(i) => i,
            // The chain wraps: a name before the first owner is covered by
            // the last link.
            Err(0) => last,
            Err(i) => i - 1,
        })
    }

    /// The NSEC entry covering `name` (see [`Self::covering_link`]).
    pub fn covering_nsec(&self, name: &[u8]) -> Option<&RrsetEntry> {
        Some(&self.nsec_chain[self.covering_link(name)?].entry)
    }

    /// The node keyed `key` (lowercased flat wire form), if the zone holds
    /// that owner.
    fn node(&self, key: &[u8]) -> Option<&Node> {
        let at = probe(&self.owners, &self.keys, &self.nodes, key).0?;
        Some(&self.nodes[at as usize])
    }

    /// What `node` answers for `rr_type` as authoritative data.
    fn answer(&self, node: &Node, rr_type: RrType) -> Lookup<'_> {
        match node.rrset(&self.rrsets, rr_type) {
            Some(entry) if entry.records_end > entry.start => Lookup::Answer(entry),
            _ => Lookup::NoData,
        }
    }

    /// The owner the zone would delegate `name` (flat wire form) at: the
    /// root zone cuts exactly at TLD names, so the name's last label.
    fn cut_of(name: &[u8]) -> &[u8] {
        let mut cut = name;
        while cut.first().is_some_and(|&len| cut.len() > 1 + len as usize) {
            cut = &cut[1 + cut[0] as usize..];
        }
        cut
    }

    /// The delegation `name` (lowercased flat wire form) is at or below,
    /// if any.
    pub fn referral_above(&self, name: &[u8]) -> Option<&Referral> {
        self.node(Self::cut_of(name))?.referral.as_ref()
    }

    /// Resolve a query name (lowercased flat wire form) and type against
    /// the index.
    pub fn lookup(&self, name: &[u8], rr_type: RrType) -> Lookup<'_> {
        let cut = Self::cut_of(name);
        let node = match self.node(cut) {
            Some(at_cut) => {
                if let Some(referral) = &at_cut.referral {
                    // Parent-side types are answered authoritatively at
                    // the cut itself (DS and the NSEC proving the
                    // delegation).
                    let parent_side = matches!(rr_type, RrType::Ds | RrType::Nsec);
                    if !(cut.len() == name.len() && parent_side) {
                        return Lookup::Referral(referral);
                    }
                }
                (cut.len() == name.len()).then_some(at_cut)
            }
            None => None,
        };
        // The apex, glue owners and other non-cut names the zone happens
        // to hold.
        match node.or_else(|| self.node(name)) {
            Some(node) => self.answer(node, rr_type),
            None => Lookup::NxDomain,
        }
    }
}

#[cfg(test)]
impl ZoneIndex {
    /// Probe the owner table for `key`: whether it is found, and how many
    /// slots the probe read.
    pub(crate) fn probe_owner(&self, key: &[u8]) -> (bool, usize) {
        let (found, read) = probe(&self.owners, &self.keys, &self.nodes, key);
        (found.is_some(), read)
    }
}

/// The key `node` is indexed under, from the key image `keys`.
fn node_key<'k>(keys: &'k [u8], node: &Node) -> &'k [u8] {
    &keys[node.key as usize..][..node.key_len as usize]
}

/// Probe `table` for the node keyed `key`: its position in `nodes`, if
/// any, and how many slots the probe read.
fn probe(table: &OffsetTable, keys: &[u8], nodes: &[Node], key: &[u8]) -> (Option<u32>, usize) {
    table.probe(zone_hash(key), |at| {
        node_key(keys, &nodes[at as usize]) == key
    })
}

/// `run`'s records decoded back into `Record`s: what the arena was
/// encoded from.
#[cfg(test)]
pub(crate) fn decode_run(run: &[u8]) -> Vec<Record> {
    let decode = |rec: WireRecord<'_>| {
        let wire = [rec.owner(), &[0], rec.body()].concat();
        let mut r = dns_wire::wire::WireReader::new(&wire);
        let decoded = Record::read_wire(&mut r).expect("a record the arena holds");
        assert!(r.is_empty());
        decoded
    };
    WireRecords::new(run).map(decode).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;

    fn index() -> ZoneIndex {
        let zone = build_root_zone(
            &RootZoneConfig {
                tld_count: 8,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(1),
        );
        ZoneIndex::build(Arc::new(zone))
    }

    /// The types of the records `span` holds, in order.
    fn types(idx: &ZoneIndex, span: Span) -> Vec<RrType> {
        decode_run(idx.wire(span))
            .iter()
            .map(|r| r.rr_type)
            .collect()
    }

    /// Every run decodes to the records the zone holds, in zone order:
    /// each RRset then the RRSIGs covering it, each referral its NS, DS
    /// and RRSIG(DS) then the glue of each NS target, the priming glue
    /// the A and AAAA of the thirteen letters — and no byte of the arena
    /// lies outside the runs the index hands out.
    #[test]
    fn arena_runs_decode_to_the_zone_records() {
        let idx = index();
        let zone = idx.zone();
        let at = |owner: &Name, rr_type: RrType, sigs: bool| -> Vec<Record> {
            let same = |rec: &&Record| {
                let covered = match &rec.rdata {
                    Rdata::Rrsig(sig) => Some(sig.type_covered),
                    _ => None,
                };
                rec.name == *owner
                    && covered.is_some() == sigs
                    && covered.unwrap_or(rec.rr_type) == rr_type
            };
            zone.records().iter().filter(same).cloned().collect()
        };
        let mut covered = vec![false; idx.wire_len()];
        let mut cover = |span: Span| {
            covered[span.start as usize..span.end as usize].fill(true);
        };
        for node in idx.nodes.iter() {
            for (rr_type, entry) in node.rrsets(&idx.rrsets) {
                let want = [
                    at(&node.name, *rr_type, false),
                    at(&node.name, *rr_type, true),
                ];
                assert_eq!(decode_run(idx.wire(entry.records())), want[0]);
                assert_eq!(decode_run(idx.wire(entry.section(true))), want.concat());
                cover(entry.section(true));
            }
            let Some(referral) = &node.referral else {
                continue;
            };
            let ns = at(&node.name, RrType::Ns, false);
            let authority = [ns.clone(), at(&node.name, RrType::Ds, false)];
            let authority = [&authority[..], &[at(&node.name, RrType::Ds, true)]].concat();
            let glue = ns.iter().flat_map(|ns| {
                let Rdata::Ns(target) = &ns.rdata else {
                    unreachable!()
                };
                [
                    at(target, RrType::A, false),
                    at(target, RrType::Aaaa, false),
                ]
                .concat()
            });
            let auth = idx.wire(referral.authority.section(true));
            assert_eq!(decode_run(auth), authority.concat(), "{}", node.name);
            assert_eq!(
                decode_run(idx.wire(referral.glue)),
                glue.collect::<Vec<_>>()
            );
            cover(referral.authority.section(true));
            cover(referral.glue);
        }
        let priming = decode_run(idx.priming_glue());
        assert_eq!(priming.len(), 26);
        assert!(priming
            .iter()
            .all(|r| r.name.to_string().ends_with(".root-servers.net.")));
        cover(idx.priming_glue);
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn apex_rrsets_found_with_rrsigs() {
        let idx = index();
        match idx.lookup(b"", RrType::Soa) {
            Lookup::Answer(e) => {
                assert_eq!(types(&idx, e.records()), [RrType::Soa]);
                assert_eq!(e.section(false), e.records());
                assert_eq!(types(&idx, e.section(true)), [RrType::Soa, RrType::Rrsig]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match idx.lookup(b"", RrType::Ns) {
            Lookup::Answer(e) => assert_eq!(types(&idx, e.records()), [RrType::Ns; 13]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(WireRecords::new(idx.priming_glue()).count(), 26);
    }

    #[test]
    fn tld_names_refer() {
        let idx = index();
        match idx.lookup(b"\x03com", RrType::A) {
            Lookup::Referral(r) => {
                assert_eq!(types(&idx, r.authority.records()), [RrType::Ns; 2]);
                assert_eq!(
                    types(&idx, r.authority.section(true)),
                    [RrType::Ns, RrType::Ns, RrType::Ds, RrType::Rrsig]
                );
                // 2 NS × (A + AAAA), right behind the authority.
                let glue = [RrType::A, RrType::Aaaa, RrType::A, RrType::Aaaa];
                assert_eq!(types(&idx, r.glue), glue);
                assert_eq!(r.glue.start, r.authority.section(true).end);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Below the cut: still a referral, whatever the zone holds there.
        for below in [
            &b"\x03www\x03com"[..],
            b"\x03ns0\x03com",
            b"\x01a\x01b\x03com",
        ] {
            assert!(matches!(idx.lookup(below, RrType::A), Lookup::Referral(_)));
            assert!(matches!(idx.lookup(below, RrType::Ds), Lookup::Referral(_)));
            assert!(idx.referral_above(below).is_some());
        }
        assert!(idx.referral_above(b"").is_none());
        assert!(idx.referral_above(b"\x03www\x07nosuch").is_none());
    }

    #[test]
    fn ds_at_cut_is_authoritative() {
        let idx = index();
        match idx.lookup(b"\x03com", RrType::Ds) {
            Lookup::Answer(e) => {
                assert_eq!(types(&idx, e.records()), [RrType::Ds]);
                assert_eq!(types(&idx, e.section(true)), [RrType::Ds, RrType::Rrsig]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nxdomain_and_nodata_distinguished() {
        let idx = index();
        let junk = Name::parse("zz9999doesnotexist.").unwrap();
        assert!(matches!(
            idx.lookup(junk.as_wire(), RrType::A),
            Lookup::NxDomain
        ));
        // Apex has no TXT: NODATA, not NXDOMAIN.
        assert!(matches!(idx.lookup(b"", RrType::Txt), Lookup::NoData));
        // `net` is delegated: the root servers' own names lie below a cut.
        let a_root = Name::parse("a.root-servers.net.").unwrap();
        assert!(matches!(
            idx.lookup(a_root.as_wire(), RrType::Aaaa),
            Lookup::Referral(_)
        ));
    }

    #[test]
    fn negative_authority_carries_soa_and_optionally_rrsig() {
        let idx = index();
        let types = |run| {
            decode_run(run)
                .iter()
                .map(|r| r.rr_type)
                .collect::<Vec<_>>()
        };
        assert_eq!(types(idx.negative_authority(false)), [RrType::Soa]);
        let signed = types(idx.negative_authority(true));
        assert_eq!(signed, [RrType::Soa, RrType::Rrsig]);
    }

    #[test]
    fn covering_nsec_found_for_missing_name() {
        let idx = index();
        let junk = Name::parse("zz9999doesnotexist.").unwrap();
        let nsec = idx
            .covering_nsec(junk.as_wire())
            .expect("signed zone has a chain");
        assert_eq!(types(&idx, nsec.records()), [RrType::Nsec]);
        assert_eq!(
            types(&idx, nsec.section(true)),
            [RrType::Nsec, RrType::Rrsig]
        );
        // The chain wraps: the root sorts first and owns the first link; a
        // name equal to an owner is covered by its own link, in any case.
        assert_eq!(idx.covering_link(b""), Some(0));
        let (owner, _) = idx.nsec_chain().nth(3).expect("a fourth link");
        let upper = owner.as_wire().to_ascii_uppercase();
        assert_eq!(idx.covering_link(&upper), Some(3));
    }

    /// The NXDOMAIN search's key order is `Name::canonical_cmp`'s: on the
    /// RFC 4034 §6.1 example, and on every pair of owners of a signed zone
    /// against each other and against junk around them.
    #[test]
    fn sort_keys_order_names_canonically() {
        let example = [
            "example.",
            "a.example.",
            "yljkjljk.a.example.",
            "Z.a.example.",
            "zABC.a.EXAMPLE.",
            "z.example.",
            "\\001.z.example.",
            "*.z.example.",
            "\\200.z.example.",
        ];
        let mut names: Vec<Name> = example.iter().map(|s| Name::parse(s).unwrap()).collect();
        let idx = index();
        names.extend(idx.nsec_chain().map(|(owner, _)| owner.clone()));
        for junk in [".", "co.", "COM.", "comm.", "a.b.c.d.com.", "ns0.", "zz."] {
            names.push(Name::parse(junk).unwrap());
        }
        for a in &names {
            for b in &names {
                let (mut abuf, mut bbuf) = ([0; 254], [0; 254]);
                let (ka, kb) = (
                    sort_key(a.as_wire(), &mut abuf),
                    sort_key(b.as_wire(), &mut bbuf),
                );
                assert_eq!(cmp_sort_keys(ka, kb), a.canonical_cmp(b), "{a} vs {b}");
            }
        }
        // So the search lands where a scan of the chain does.
        for name in &names {
            let scan = (idx.nsec_chain().collect::<Vec<_>>().iter())
                .rposition(|(owner, _)| owner.canonical_cmp(name).is_le())
                .unwrap_or(idx.nsec_chain().len() - 1);
            assert_eq!(idx.covering_link(name.as_wire()), Some(scan), "{name}");
        }
    }

    #[test]
    fn tld_labels_enumerated() {
        let idx = index();
        let labels = idx.tld_labels();
        assert_eq!(labels.len(), 8);
        assert!(labels.contains(&"com".to_string()));
    }
}
