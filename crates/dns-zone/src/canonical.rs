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

/// Bytes from an owner's end to its RDATA: TYPE, CLASS, TTL, RDLENGTH.
const FIXED: usize = 10;
/// Bytes from a TTL to the RDATA after it: the TTL, RDLENGTH.
const TTL_TO_RDATA: usize = 6;

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
    /// Write every record of `records` once, then sort.
    pub fn new(records: impl IntoIterator<Item = &'z Record>) -> Self {
        let records = records.into_iter();
        let mut w = WireWriter::with_buffer(Vec::with_capacity(records.size_hint().0 * 64));
        let mut keys = Vec::with_capacity(records.size_hint().0 * 32);
        let mut entries = Vec::with_capacity(records.size_hint().0);
        let offset = |at: usize| u32::try_from(at).expect("canonical forms fit in 4 GiB");
        for (index, rec) in records.enumerate() {
            let (start, key) = (w.len(), keys.len());
            rec.write_canonical(None, &mut w);
            let rdata = start + rec.name.wire_len() + FIXED;
            push_owner_key(&w.as_bytes()[start..rdata - FIXED], &mut keys);
            entries.push(Entry {
                rec,
                index: offset(index),
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

    /// Every record, in canonical order.
    pub fn entries(&self) -> &[Entry<'z>] {
        &self.entries
    }

    /// The records of each owner, owners in canonical order.
    pub fn owners(&self) -> impl Iterator<Item = &[Entry<'z>]> {
        (self.entries).chunk_by(|a, b| owner_key(&self.keys, a) == owner_key(&self.keys, b))
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
            let canon = Canonical::new(&records);
            let got: Vec<&Record> = canon.unique().map(|e| e.rec).collect();
            // The same records, and of equal ones the same copy (TTLs differ).
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert!(std::ptr::eq(*g, *w));
            }
        }
    }
}
