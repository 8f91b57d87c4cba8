//! Property-based tests for the wire codec.

use dns_wire::rdata::{Rdata, Soa};
use dns_wire::wire::WireError;
use dns_wire::{Message, Name, Question, Record, RrType, WireReader, WireWriter};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Strategy: a DNS label (1-20 bytes of letters/digits/hyphen).
fn label() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            (b'a'..=b'z').prop_map(|b| b),
            (b'0'..=b'9').prop_map(|b| b),
            Just(b'-'),
        ],
        1..20,
    )
}

/// Strategy: a name of 0-5 labels.
fn name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(label(), 0..5)
        .prop_filter_map("valid name", |labels| Name::from_labels(labels).ok())
}

/// Strategy: simple RDATA variants.
fn rdata() -> impl Strategy<Value = Rdata> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| Rdata::A(o.into())),
        any::<[u8; 16]>().prop_map(|o| Rdata::Aaaa(o.into())),
        name().prop_map(Rdata::Ns),
        name().prop_map(Rdata::Cname),
        (name(), name(), any::<u32>()).prop_map(|(m, r, serial)| {
            Rdata::Soa(Soa {
                mname: m,
                rname: r,
                serial,
                refresh: 1800,
                retry: 900,
                expire: 604800,
                minimum: 86400,
            })
        }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..100), 1..4)
            .prop_map(Rdata::Txt),
    ]
}

/// The name representation `Name` replaced: one `Vec` a label. What the
/// flat buffer must still behave as.
#[derive(Debug, Clone)]
struct LabelVecName(Vec<Vec<u8>>);

impl LabelVecName {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && (self.0.iter().zip(&other.0)).all(|(a, b)| a.eq_ignore_ascii_case(b))
    }

    fn hash<H: Hasher>(&self, state: &mut H) {
        for label in &self.0 {
            state.write_usize(label.len());
            for &b in label {
                state.write_u8(b.to_ascii_lowercase());
            }
        }
    }

    fn canonical_cmp(&self, other: &Self) -> Ordering {
        let lower = |l: &Vec<u8>| l.to_ascii_lowercase();
        let (a, b) = (
            self.0.iter().rev().map(lower),
            other.0.iter().rev().map(lower),
        );
        a.cmp(b)
    }

    fn display(&self) -> String {
        let mut out = String::new();
        for label in &self.0 {
            for &b in label {
                match b {
                    b'.' | b'\\' => out.push_str(&format!("\\{}", b as char)),
                    0x21..=0x7e => out.push(b as char),
                    other => out.push_str(&format!("\\{other:03}")),
                }
            }
            out.push('.');
        }
        if out.is_empty() {
            out.push('.');
        }
        out
    }
}

/// The compressor `WireWriter` replaced: a map from each written suffix's
/// lowercased key to the offset it was first written at.
#[derive(Default)]
struct HashMapCompressor {
    buf: Vec<u8>,
    compress: HashMap<Vec<u8>, usize>,
}

impl HashMapCompressor {
    fn put_name_compressed(&mut self, labels: &[Vec<u8>]) {
        for i in 0..labels.len() {
            let mut key = Vec::new();
            for l in &labels[i..] {
                key.push(l.len() as u8);
                key.extend(l.iter().map(|b| b.to_ascii_lowercase()));
            }
            if let Some(&off) = self.compress.get(&key) {
                self.buf
                    .extend_from_slice(&(0xc000 | off as u16).to_be_bytes());
                return;
            }
            let here = self.buf.len();
            if here <= 0x3fff {
                self.compress.insert(key, here);
            }
            self.buf.push(labels[i].len() as u8);
            self.buf.extend_from_slice(&labels[i]);
        }
        self.buf.push(0);
    }
}

/// Strategy: labels of any bytes, in the lengths names are made of.
fn raw_label() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..8),
        proptest::collection::vec(
            prop_oneof![Just(b'a'), Just(b'A'), Just(b'b'), Just(b'.'), Just(b'\\')],
            1..4
        ),
        proptest::collection::vec(any::<u8>(), 60..64),
    ]
}

/// Strategy: label vectors, most of them valid names.
fn raw_labels() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(raw_label(), 0..6)
}

/// Strategy: names drawn from a few labels in either case, so sequences
/// of them share suffixes and differ in case.
fn kin_name() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let label = prop_oneof![
        Just(&b"net"[..]),
        Just(&b"NET"[..]),
        Just(&b"root-servers"[..]),
        Just(&b"Root-Servers"[..]),
        Just(&b"a"[..]),
        Just(&b"A"[..]),
        Just(&b"b"[..]),
        Just(&b"com"[..]),
    ];
    proptest::collection::vec(label.prop_map(<[u8]>::to_vec), 0..5)
}

proptest! {
    /// Flat `Name` against the label-vector model: construction, every
    /// reading of the labels back, equality, ordering and hashing.
    #[test]
    fn flat_name_matches_the_label_vector_model(a in raw_labels(), b in raw_labels()) {
        let wire_len = |l: &[Vec<u8>]| 1 + l.iter().map(|l| l.len() + 1).sum::<usize>();
        let labels_of = |n: &Name| n.labels().map(<[u8]>::to_vec).collect::<Vec<_>>();
        let built = (Name::from_labels(&a), Name::from_labels(&b));
        prop_assert_eq!(built.0.is_ok(), wire_len(&a) <= 255);
        let (Ok(na), Ok(nb)) = built else { return Ok(()) };
        let (ma, mb) = (LabelVecName(a.clone()), LabelVecName(b));
        // Labels, counts and lengths read back as given.
        prop_assert_eq!(&labels_of(&na), &a);
        prop_assert_eq!(na.label_count(), a.len());
        prop_assert_eq!(na.wire_len(), wire_len(&a));
        prop_assert_eq!(na.is_root(), a.is_empty());
        // Display is the model's, and parses back to the same labels.
        prop_assert_eq!(na.to_string(), ma.display());
        prop_assert_eq!(&labels_of(&Name::parse(&na.to_string()).unwrap()), &a);
        // The wire round trip keeps case; canonical forms lowercase it.
        let lower = na.as_wire().to_ascii_lowercase();
        let mut w = WireWriter::new();
        na.write_wire(&mut w, false);
        let bytes = w.into_bytes();
        prop_assert_eq!(&bytes[..bytes.len() - 1], na.as_wire());
        prop_assert_eq!(&labels_of(&Name::read_wire(&mut WireReader::new(&bytes)).unwrap()), &a);
        prop_assert_eq!(na.canonical_wire(), [&lower[..], &[0]].concat());
        prop_assert_eq!(na.canonical().as_wire().to_vec(), lower);
        // Parent and child move one label.
        let parent = na.parent();
        prop_assert_eq!(&labels_of(&parent)[..], &a[a.len().min(1)..]);
        if let Some(first) = a.first() {
            prop_assert_eq!(&labels_of(&parent.child(first).unwrap()), &a);
        }
        // Equality, ordering and hashing agree with the model, for the
        // pair and for a recased copy.
        let recased = Name::from_labels(a.iter().map(|l| l.to_ascii_uppercase())).unwrap();
        for (x, mx) in [(&nb, &mb), (&recased, &ma)] {
            prop_assert_eq!(na == *x, ma.eq(mx));
            prop_assert_eq!(na.canonical_cmp(x), ma.canonical_cmp(mx));
            prop_assert_eq!(na.cmp(x), ma.canonical_cmp(mx));
            prop_assert_eq!(na.canonical_cmp(x) == Ordering::Equal, na == *x);
        }
        let hash_of = |f: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            f(&mut h);
            h.finish()
        };
        prop_assert_eq!(hash_of(&|h| na.hash(h)), hash_of(&|h| ma.hash(h)));
        prop_assert_eq!(hash_of(&|h| na.hash(h)), hash_of(&|h| recased.hash(h)));
        // Subdomain: the model's suffix test.
        let suffix = a.len() >= mb.0.len()
            && LabelVecName(a[a.len() - mb.0.len()..].to_vec()).eq(&mb);
        prop_assert_eq!(na.is_subdomain_of(&nb), suffix);
        prop_assert!(na.is_subdomain_of(&parent) && na.is_subdomain_of(&recased));
    }

    /// The heap-free compressor against the map it replaced: the same
    /// bytes for any sequence of names — mixed case, shared suffixes, past
    /// the last offset a pointer can reach — and the same names back.
    #[test]
    fn compressor_is_byte_identical_to_the_hashmap_compressor(
        names in proptest::collection::vec(prop_oneof![kin_name(), kin_name(), kin_name(), raw_labels()], 1..40),
        // Bytes between names, as records put between theirs: enough, in
        // some cases, to carry the buffer past offset 0x3fff.
        gaps in proptest::collection::vec(prop_oneof![0usize..24, 0usize..24, 0usize..24, 0usize..24, 3000usize..9000],
            40..41,
        ),
    ) {
        let names: Vec<Vec<Vec<u8>>> = names
            .into_iter()
            .filter(|l| Name::from_labels(l).is_ok())
            .collect();
        let mut new = WireWriter::new();
        let mut old = HashMapCompressor::default();
        let mut starts = Vec::new();
        for (labels, gap) in names.iter().zip(&gaps) {
            starts.push(new.len());
            Name::from_labels(labels).unwrap().write_wire_compressed(&mut new);
            old.put_name_compressed(labels);
            // 0xff is neither a label length nor a root byte.
            new.put_bytes(&vec![0xff; *gap]);
            old.buf.extend(std::iter::repeat_n(0xff, *gap));
            prop_assert_eq!(new.as_bytes(), &old.buf[..]);
        }
        // Every registered suffix is one of the map's keys, at its offset.
        let keys: Vec<Vec<u8>> = new.compressed_suffixes().collect();
        prop_assert_eq!(keys.len(), old.compress.len());
        prop_assert!(keys.iter().all(|k| old.compress.contains_key(k)));
        prop_assert!(new.pointers().iter().all(|&(_, target)| old.compress.values().any(|&o| o == target as usize)));
        let bytes = new.into_bytes();
        for (labels, start) in names.iter().zip(starts) {
            let mut r = WireReader::new(&bytes);
            r.read_bytes(start).unwrap();
            // The same name; in the case of the copy it points into.
            prop_assert_eq!(Name::read_wire(&mut r).unwrap(), Name::from_labels(labels).unwrap());
        }
    }

    #[test]
    fn name_wire_round_trip(n in name()) {
        let mut w = WireWriter::new();
        n.write_wire(&mut w, false);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        prop_assert_eq!(Name::read_wire(&mut r).unwrap(), n);
    }

    #[test]
    fn name_display_parse_round_trip(n in name()) {
        prop_assert_eq!(Name::parse(&n.to_string()).unwrap(), n);
    }

    #[test]
    fn name_compression_decodes_identically(names in proptest::collection::vec(name(), 1..8)) {
        let mut compressed = WireWriter::new();
        let mut plain = WireWriter::without_compression();
        for n in &names {
            n.write_wire_compressed(&mut compressed);
            n.write_wire_compressed(&mut plain);
        }
        let cb = compressed.into_bytes();
        let pb = plain.into_bytes();
        prop_assert!(cb.len() <= pb.len());
        let mut cr = WireReader::new(&cb);
        let mut pr = WireReader::new(&pb);
        for n in &names {
            prop_assert_eq!(&Name::read_wire(&mut cr).unwrap(), n);
            prop_assert_eq!(&Name::read_wire(&mut pr).unwrap(), n);
        }
    }

    #[test]
    fn canonical_cmp_is_total_order(a in name(), b in name(), c in name()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.canonical_cmp(&b), b.canonical_cmp(&a).reverse());
        // Transitivity (for the <= relation).
        if a.canonical_cmp(&b) != Ordering::Greater && b.canonical_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.canonical_cmp(&c), Ordering::Greater);
        }
        // Reflexivity via equality.
        prop_assert_eq!(a.canonical_cmp(&a), Ordering::Equal);
    }

    #[test]
    fn record_wire_round_trip(n in name(), ttl in any::<u32>(), rd in rdata()) {
        let rec = Record::new(n, ttl, rd);
        let mut w = WireWriter::new();
        rec.write_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        prop_assert_eq!(Record::read_wire(&mut r).unwrap(), rec);
    }

    #[test]
    fn message_wire_round_trip(
        id in any::<u16>(),
        qname in name(),
        answers in proptest::collection::vec((name(), any::<u32>(), rdata()), 0..6),
    ) {
        let mut msg = Message::query(id, Question::new(qname, RrType::A));
        for (n, ttl, rd) in answers {
            msg.answers.push(Record::new(n, ttl, rd));
        }
        msg.header.flags.response = true;
        let decoded = Message::from_wire(&msg.to_wire()).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Must return Ok or Err, never panic or loop.
        let _ = Message::from_wire(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid_message(
        qname in name(),
        idx in 0usize..64,
        flip in 1u8..=255,
    ) {
        let msg = Message::query(7, Question::new(qname, RrType::Aaaa));
        let mut bytes = msg.to_wire();
        let i = idx % bytes.len();
        bytes[i] ^= flip;
        let _ = Message::from_wire(&bytes);
    }

    #[test]
    fn presentation_round_trip(n in name(), ttl in any::<u32>(), rd in rdata()) {
        let rec = Record::new(n, ttl, rd);
        let line = dns_wire::presentation::record_to_line(&rec);
        let back = dns_wire::presentation::record_from_line(&line).unwrap();
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn malformed_pointer_chains_never_hang_or_panic(
        // A buffer of random compression pointers with arbitrary 14-bit
        // targets, optionally salted with label bytes, read from a random
        // start offset. Chains may loop, point forward, or run off the end;
        // the reader must always terminate with a typed error or a bounded
        // name, never panic or spin.
        pointers in proptest::collection::vec(0u16..0x4000, 1..64),
        fill in proptest::collection::vec(any::<u8>(), 0..32),
        start_frac in 0usize..1000,
    ) {
        let mut bytes = fill;
        for target in &pointers {
            bytes.push(0xc0 | (target >> 8) as u8);
            bytes.push(*target as u8);
        }
        let start = start_frac * bytes.len() / 1000;
        let mut r = WireReader::new(&bytes);
        let mut skipped = WireReader::new(&bytes);
        let _ = skipped.read_bytes(start);
        match skipped.read_name() {
            // A successful decode obeys the RFC 1035 name bound.
            Ok(name) => prop_assert!(name.wire_len() <= 255),
            Err(e) => prop_assert!(matches!(
                e,
                WireError::Truncated
                    | WireError::ForwardPointer
                    | WireError::PointerLoop
                    | WireError::BadLabelType
                    | WireError::NameTooLong
            )),
        }
        let _ = r.read_name();
    }

    #[test]
    fn pure_pointer_chain_from_end_errors_with_typed_error(
        targets in proptest::collection::vec(0u16..0x1000, 2..40),
    ) {
        // Consecutive pointers with arbitrary targets, read from the last
        // one: the chain can only end in a typed pointer/truncation error
        // or a label-type error — never a panic or hang.
        let mut bytes = Vec::new();
        for t in &targets {
            bytes.push(0xc0 | (t >> 8) as u8);
            bytes.push(*t as u8);
        }
        let start = bytes.len() - 2;
        let mut r = WireReader::new(&bytes);
        let _ = r.read_bytes(start);
        let _ = r.read_name();
    }
}
