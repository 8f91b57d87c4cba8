//! RFC 4034 §6 canonical form and order, each record written once.
//!
//! Signing, ZONEMD and validation read records the same way: each RR's
//! §6.2 canonical wire form (owner and embedded names lowercased, no
//! compression) in §6.3 canonical order — owner, class, type, RDATA — with
//! duplicates dropped. [`Canonical`] writes every record's form once into
//! one buffer and sorts spans of it: a comparison reads bytes already
//! written, where `Record::canonical_cmp` encodes two RDATAs per call.
//!
//! The sort is stable and keeps every record, duplicates included (they
//! may differ in TTL, and signing takes the least TTL of the whole set);
//! readers skip a record equal to the one before it, so of equal records
//! the one that came first is the one read. Records of one owner are
//! adjacent, so an RRset is a filter of its owner's run and an RRSIG finds
//! what it covers without a search.

use dns_wire::rdata::Rrsig;
use dns_wire::wire::WireWriter;
use dns_wire::Record;
use std::cmp::Ordering;
use std::panic::resume_unwind;

/// Bytes from an owner's end to its RDATA: TYPE, CLASS, TTL, RDLENGTH.
const FIXED: usize = 10;
/// Bytes from a TTL to the RDATA after it: the TTL, RDLENGTH.
const TTL_TO_RDATA: usize = 6;

/// Records from which [`Canonical::new`] writes and sorts in two halves,
/// the second on a worker thread, and `ZoneVerdicts` verifies in two. A
/// spawn and join costs ≈ 50 µs (≈ 150 µs at its 99th percentile) on a
/// two-vCPU guest; writing and sorting a record costs ≈ 0.3 µs and
/// merging it back ≈ 0.07 µs, so the worker's half pays for its thread
/// from about two thousand records. At 4 096 the 8-, 25- and 40-TLD
/// zones (≈ 190, 420 and 630 records) stay on one thread, and a
/// root-sized zone (≈ 21 000) splits.
pub(crate) const SPLIT_RECORDS: usize = 4_096;

/// `n` as a `u32` offset, count or position into a [`Canonical`]'s arrays.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("canonical forms fit in 4 GiB")
}

/// Records in canonical order, each with its canonical form.
pub(crate) struct Canonical<'z> {
    /// Every record's form, back to back, in input order.
    bytes: Vec<u8>,
    /// Every owner's sort key ([`push_owner_key`]), back to back.
    keys: Vec<u8>,
    entries: Vec<Entry<'z>>,
}

/// One record and where its form and its owner's key lie.
#[derive(Clone, Copy)]
pub(crate) struct Entry<'z> {
    pub rec: &'z Record,
    /// Position in the input: the least of a set is the first one seen.
    pub index: u32,
    /// The owner starts the form; RDATA starts `FIXED` bytes after it.
    start: u32,
    rdata: u32,
    end: u32,
    key: u32,
    key_end: u32,
}

impl<'z> Canonical<'z> {
    /// Write every record of `records` once, then sort: in one part, or
    /// from [`SPLIT_RECORDS`] on in two.
    pub fn new(records: impl IntoIterator<Item = &'z Record>) -> Self {
        let records: Vec<&'z Record> = records.into_iter().collect();
        let parts = if records.len() < SPLIT_RECORDS { 1 } else { 2 };
        Self::in_parts(&records, parts)
    }

    /// [`Self::new`] over `parts` consecutive runs of `records`, each
    /// written and sorted on a thread of its own (the first on the
    /// caller's), then merged run by run: of two equal records the one
    /// from the earlier run comes first, as in one stable sort of them all.
    pub(crate) fn in_parts(records: &[&'z Record], parts: usize) -> Self {
        let len = records.len().div_ceil(parts.max(1)).max(1);
        let mut runs = records
            .chunks(len)
            .enumerate()
            .map(|(i, run)| (i * len, run));
        let Some((_, first)) = runs.next() else {
            return Self::sorted(&[], 0, 0);
        };
        std::thread::scope(|s| {
            let rest: Vec<_> =
                (runs.map(|(at, run)| s.spawn(move || Self::sorted(run, at, 0)))).collect();
            // The first run's buffers are made for every record: the
            // others are appended to them.
            let mut canon = Self::sorted(first, 0, records.len());
            for run in rest {
                canon.merge(run.join().unwrap_or_else(|e| resume_unwind(e)));
            }
            canon
        })
    }

    /// `records`, the input's from position `at` on, written and sorted
    /// into buffers with room for `room` records (at least these).
    fn sorted(records: &[&'z Record], at: usize, room: usize) -> Self {
        let room = room.max(records.len());
        let mut w = WireWriter::with_buffer(Vec::with_capacity(room * 64));
        let mut keys = Vec::with_capacity(room * 32);
        let mut entries = Vec::with_capacity(room);
        for (index, &rec) in records.iter().enumerate() {
            let (start, key) = (w.len(), keys.len());
            rec.write_canonical(None, &mut w);
            let rdata = start + rec.name.wire_len() + FIXED;
            push_owner_key(&w.as_bytes()[start..rdata - FIXED], &mut keys);
            entries.push(Entry {
                rec,
                index: offset(at + index),
                start: offset(start),
                rdata: offset(rdata),
                end: offset(w.len()),
                key: offset(key),
                key_end: offset(keys.len()),
            });
        }
        let bytes = w.into_bytes();
        entries.sort_by(|a, b| order(&bytes, &keys, a, b));
        Canonical {
            bytes,
            keys,
            entries,
        }
    }

    /// Append `later`'s buffers to these and merge its entries — records
    /// from later in the input — into these, each of two equal records
    /// after the one already here.
    fn merge(&mut self, later: Canonical<'z>) {
        let (bytes, keys) = (offset(self.bytes.len()), offset(self.keys.len()));
        self.bytes.extend_from_slice(&later.bytes);
        self.keys.extend_from_slice(&later.keys);
        let later = later.entries.into_iter().map(|e| Entry {
            start: e.start + bytes,
            rdata: e.rdata + bytes,
            end: e.end + bytes,
            key: e.key + keys,
            key_end: e.key_end + keys,
            ..e
        });
        let earlier = std::mem::take(&mut self.entries);
        let mut merged = Vec::with_capacity(earlier.len() + later.len());
        let (mut earlier, mut later) = (earlier.into_iter().peekable(), later.peekable());
        while let (Some(a), Some(b)) = (earlier.peek(), later.peek()) {
            let next = if order(&self.bytes, &self.keys, b, a).is_lt() {
                later.next()
            } else {
                earlier.next()
            };
            merged.extend(next);
        }
        merged.extend(earlier.chain(later));
        self.entries = merged;
    }

    /// Every record, in canonical order.
    pub fn entries(&self) -> &[Entry<'z>] {
        &self.entries
    }

    /// The records of each owner, owners in canonical order.
    pub fn owners(&self) -> impl Iterator<Item = &[Entry<'z>]> {
        self.owners_of(&self.entries)
    }

    /// The records of each owner in `run`, a run of whole owners of
    /// [`Self::entries`] ([`Self::owner_parts`]).
    pub fn owners_of<'a>(&'a self, run: &'a [Entry<'z>]) -> impl Iterator<Item = &'a [Entry<'z>]> {
        run.chunk_by(|a, b| owner_key(&self.keys, a) == owner_key(&self.keys, b))
    }

    /// [`Self::entries`] cut into at most `parts` runs of about equal
    /// length, each cut moved forward to where an owner starts, so no
    /// owner's records are split between two runs.
    pub fn owner_parts(&self, parts: usize) -> Vec<&[Entry<'z>]> {
        let entries = &self.entries[..];
        let same_owner = |at: usize| {
            owner_key(&self.keys, &entries[at - 1]) == owner_key(&self.keys, &entries[at])
        };
        let mut cuts = vec![0];
        for part in 1..parts {
            let mut cut = (entries.len() * part / parts).max(cuts[cuts.len() - 1]);
            while cut > 0 && cut < entries.len() && same_owner(cut) {
                cut += 1;
            }
            cuts.push(cut);
        }
        cuts.push(entries.len());
        let runs = cuts.windows(2).map(|cut| &entries[cut[0]..cut[1]]);
        runs.filter(|run| !run.is_empty()).collect()
    }

    /// The records in canonical order, each duplicate after the first
    /// dropped.
    pub fn unique(&self) -> impl Iterator<Item = &Entry<'z>> {
        let mut prev: Option<&Entry> = None;
        self.entries
            .iter()
            .filter(move |e| !prev.replace(e).is_some_and(|p| self.same(p, e)))
    }

    /// `e`'s canonical form, at its own TTL.
    pub fn form(&self, e: &Entry) -> &[u8] {
        &self.bytes[e.start as usize..e.end as usize]
    }

    /// RFC 4034 §3.1.8.1 signed data: `rrsig`'s RDATA without its
    /// signature, then `rrset` — entries of one owner's run, in the run's
    /// order — at the RRSIG's original TTL, each duplicate dropped.
    pub fn write_signed_data<'a>(
        &self,
        rrsig: &Rrsig,
        rrset: impl IntoIterator<Item = &'a Entry<'z>>,
        w: &mut WireWriter,
    ) where
        'z: 'a,
    {
        rrsig.write_signed_prefix(w);
        let ttl = rrsig.original_ttl.to_be_bytes();
        let mut prev: Option<&Entry> = None;
        for e in rrset {
            if prev.replace(e).is_some_and(|p| self.same(p, e)) {
                continue;
            }
            let form = self.form(e);
            let at = (e.rdata - e.start) as usize - TTL_TO_RDATA;
            w.put_bytes(&form[..at]);
            w.put_bytes(&ttl);
            w.put_bytes(&form[at + 4..]);
        }
    }

    /// Whether `a` and `b` are one record twice: equal but for the TTL.
    fn same(&self, a: &Entry, b: &Entry) -> bool {
        let ttl = (a.rdata - a.start) as usize - TTL_TO_RDATA;
        let (fa, fb) = (self.form(a), self.form(b));
        fa.len() == fb.len()
            && b.rdata - b.start == a.rdata - a.start
            && fa[..ttl] == fb[..ttl]
            && fa[ttl + 4..] == fb[ttl + 4..]
    }
}

/// §6.3 order: owners by their keys, then class, type and RDATA over the
/// written forms.
fn order(bytes: &[u8], keys: &[u8], a: &Entry, b: &Entry) -> Ordering {
    let fixed = |e: &Entry| &bytes[e.rdata as usize - FIXED..e.rdata as usize - TTL_TO_RDATA];
    let rdata = |e: &Entry| &bytes[e.rdata as usize..e.end as usize];
    (owner_key(keys, a).cmp(owner_key(keys, b)))
        .then_with(|| {
            // TYPE then CLASS on the wire; §6.3 puts CLASS first.
            let (fa, fb) = (fixed(a), fixed(b));
            (fa[2..4].cmp(&fb[2..4])).then_with(|| fa[..2].cmp(&fb[..2]))
        })
        .then_with(|| rdata(a).cmp(rdata(b)))
}

fn owner_key<'k>(keys: &'k [u8], e: &Entry) -> &'k [u8] {
    &keys[e.key as usize..e.key_end as usize]
}

/// Most labels a 255-byte name holds.
const MAX_LABELS: usize = 128;

/// Append `owner`'s sort key: bytes whose order is RFC 4034 §6.1's order
/// of names. `owner` is a lowercase wire name, root byte included, and
/// the key holds its labels from the rightmost, each byte `b` as the
/// big-endian `b + 1` and each label closed by two zero bytes — so of two
/// labels the one that is a prefix of the other sorts first, and of two
/// names the one that runs out of labels first does.
fn push_owner_key(owner: &[u8], keys: &mut Vec<u8>) {
    let mut starts = [0u8; MAX_LABELS];
    let (mut pos, mut labels) = (0, 0);
    while owner[pos] != 0 {
        starts[labels] = pos as u8;
        labels += 1;
        pos += 1 + owner[pos] as usize;
    }
    for &at in starts[..labels].iter().rev() {
        let at = at as usize;
        for &b in &owner[at + 1..at + 1 + owner[at] as usize] {
            keys.extend_from_slice(&(u16::from(b) + 1).to_be_bytes());
        }
        keys.extend_from_slice(&[0, 0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::rdata::Rdata;
    use dns_wire::Name;
    use proptest::prelude::*;

    fn key(name: &Name) -> Vec<u8> {
        let mut keys = Vec::new();
        push_owner_key(&name.canonical_wire(), &mut keys);
        keys
    }

    #[test]
    fn owner_keys_order_rfc4034s_example() {
        let order = [
            ".",
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
        let names: Vec<Name> = order.iter().map(|s| Name::parse(s).unwrap()).collect();
        for w in names.windows(2) {
            assert!(key(&w[0]) < key(&w[1]), "{} < {}", w[0], w[1]);
        }
    }

    /// Labels over the bytes an escape can carry at either end of the
    /// range, a letter in both cases, and a dot.
    fn name() -> impl Strategy<Value = Name> {
        const BYTES: [u8; 8] = [0, 1, b'.', b'A', b'a', b'b', 0xfe, 0xff];
        let byte = (0..BYTES.len()).prop_map(|i| BYTES[i]);
        let label = prop::collection::vec(byte, 1..4);
        prop::collection::vec(label, 0..4).prop_map(|labels| Name::from_labels(labels).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn owner_keys_order_names_as_canonical_cmp_does(a in name(), b in name()) {
            prop_assert_eq!(key(&a).cmp(&key(&b)), a.canonical_cmp(&b));
        }

        #[test]
        fn records_sort_as_canonical_cmp_sorts_them(
            picks in prop::collection::vec((name(), 0u8..4, 0u32..3), 0..24)
        ) {
            // Owners, types (A twice over, NS with a re-cased target), TTLs.
            let records: Vec<Record> = (picks.into_iter())
                .map(|(owner, kind, ttl)| {
                    let rdata = match kind {
                        0 => Rdata::A([10, 0, 0, ttl as u8].into()),
                        1 => Rdata::A([10, 0, 0, 1].into()),
                        2 => Rdata::Ns(Name::parse("NS.example.").unwrap()),
                        _ => Rdata::Ns(Name::parse("ns.Example.").unwrap()),
                    };
                    Record::new(owner, ttl, rdata)
                })
                .collect();
            let mut want: Vec<&Record> = records.iter().collect();
            want.sort_by(|a, b| a.canonical_cmp(b));
            want.dedup_by(|a, b| a.canonical_cmp(b).is_eq());
            let refs: Vec<&Record> = records.iter().collect();
            // In one part and in two (and in as many as there are records):
            // the same records, and of equal ones the same copy (TTLs
            // differ).
            for parts in [1, 2, records.len().max(1)] {
                let canon = Canonical::in_parts(&refs, parts);
                let got: Vec<&Record> = canon.unique().map(|e| e.rec).collect();
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(std::ptr::eq(*g, *w));
                }
                // Every record kept, each at its input position.
                let mut seen: Vec<u32> = canon.entries().iter().map(|e| e.index).collect();
                seen.sort_unstable();
                prop_assert!(seen.iter().copied().eq(0..records.len() as u32));
                for e in canon.entries() {
                    prop_assert!(std::ptr::eq(e.rec, refs[e.index as usize]));
                }
            }
        }
    }
}
