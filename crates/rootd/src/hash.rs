//! The hash function and the table of the zone-built name lookups.
//!
//! Two tables sit on the serve path — the answer cache's exact names and
//! the zone index's owner names — and a junk query probes both. Each is an
//! [`OffsetTable`]: open addressing over `u32` offsets into an image its
//! owner keeps (the cache's one byte image, the index's node array), so a
//! table is one flat allocation however many names the zone holds, and a
//! hit reads one slot and then the block the offset names. Their keys are
//! names of at most 255 bytes, so the hash function *is* the probe:
//! [`ZoneHasher`] folds a key eight bytes a multiply where the standard
//! library's SipHash spends rounds of a keyed permutation on every eight.

use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// A word-wise multiplicative hash for tables that are **built from a
/// validated zone and only looked up by queries**.
///
/// It is unkeyed, so anyone can compute colliding keys — and it does not
/// matter here: a collision only costs when the colliding keys are *in*
/// the table, and nothing a client sends is ever inserted into the two
/// tables that use it, the answer cache's exact names and the zone index's
/// owners. Their contents come from the zone the operator loads — through
/// a validated push (`SharedState::try_reload`: ZONEMD, then RRSIGs) on
/// the farm — and are fixed when `ZoneIndex::build` and the cache build
/// return; a query, however crafted, walks one probe sequence over keys it
/// did not choose and leaves.
/// HashDoS — the attacker picks the keys and the table degrades to a list
/// — needs attacker-chosen *insertions*.
///
/// `crate::rrl`'s bucket map is the counter-example and must never use
/// this hasher: its keys are source prefixes taken from the wire, every
/// new source inserts, and a flood chooses them. It keeps the standard
/// library's keyed SipHash.
///
/// Layout: the key's length, then its bytes as little-endian `u64` words,
/// a short last word zero-padded, one xor and one widening multiply a word
/// ([`zone_hash`]). The length goes first, so a key and the same key with
/// a trailing zero byte part ways before their bytes are read. A 64-bit
/// multiply only carries differences upward — owner keys such as
/// `\x07tld0465`, one word that varies in its top two bytes, would share
/// their low bits and a slot — so each step keeps the full 128-bit product
/// and xors its high half onto its low half: an [`OffsetTable`] takes its
/// slot from the low bits of a hash and its tag from the high 32, and both
/// depend on every byte of the key.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ZoneHasher(u64);

impl ZoneHasher {
    /// An odd 64-bit constant with no short-period bit pattern (the
    /// golden-ratio multiplier).
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn word(&mut self, word: u64) {
        let wide = u128::from(self.0 ^ word) * u128::from(Self::K);
        self.0 = wide as u64 ^ (wide >> 64) as u64;
    }
}

impl Hasher for ZoneHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.word(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The hash of a name key, as both tables take it.
pub(crate) fn zone_hash(key: &[u8]) -> u64 {
    BuildHasherDefault::<ZoneHasher>::default().hash_one(key)
}

/// One slot of an [`OffsetTable`]: the high half of the key's hash, and
/// the offset of what the key names; [`Slot::EMPTY`] ends a probe.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    at: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        tag: 0,
        at: u32::MAX,
    };
}

/// An open-addressed table of `u32` offsets into an image its owner keeps,
/// filled from the zone at build time and only probed afterwards (see
/// [`ZoneHasher`] for why that makes an unkeyed hash sound). The keys live
/// in the image, not here: a probe hands each offset whose slot carries the
/// key's tag to the caller, which compares the key stored there.
///
/// Linear probing at a load of at most one half: the slot count is the
/// smallest power of two at least twice the number of keys, so a probe
/// reads a few adjacent slots (`hash::tests` bounds the longest).
#[derive(Debug)]
pub(crate) struct OffsetTable {
    slots: Box<[Slot]>,
    mask: usize,
    /// Keys inserted so far.
    len: usize,
}

impl OffsetTable {
    /// A table with room for `keys` keys.
    pub(crate) fn with_capacity(keys: usize) -> OffsetTable {
        let len = (2 * keys).max(8).next_power_of_two();
        OffsetTable {
            slots: vec![Slot::EMPTY; len].into_boxed_slice(),
            mask: len - 1,
            len: 0,
        }
    }

    /// Record `at` under `hash`. The caller inserts each key once (a
    /// [`Self::find`] that missed first), and no more keys than the table
    /// was made for.
    pub(crate) fn insert(&mut self, hash: u64, at: u32) {
        assert!(at != Slot::EMPTY.at, "an offset below u32::MAX");
        self.len += 1;
        assert!(
            2 * self.len <= self.slots.len(),
            "a table at most half full"
        );
        let mut i = hash as usize & self.mask;
        while self.slots[i].at != Slot::EMPTY.at {
            i = (i + 1) & self.mask;
        }
        self.slots[i] = Slot {
            tag: (hash >> 32) as u32,
            at,
        };
    }

    /// The offset stored under `hash` for which `is_key` holds.
    #[inline]
    pub(crate) fn find(&self, hash: u64, is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        self.probe(hash, is_key).0
    }

    /// [`Self::find`], and how many slots it read.
    #[inline]
    pub(crate) fn probe(
        &self,
        hash: u64,
        mut is_key: impl FnMut(u32) -> bool,
    ) -> (Option<u32>, usize) {
        let tag = (hash >> 32) as u32;
        let mut i = hash as usize & self.mask;
        let mut read = 1;
        loop {
            let slot = self.slots[i];
            if slot.at == Slot::EMPTY.at {
                return (None, read);
            }
            if slot.tag == tag && is_key(slot.at) {
                return (Some(slot.at), read);
            }
            i = (i + 1) & self.mask;
            read += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::AnswerCache;
    use crate::index::ZoneIndex;
    use crate::loadgen::{fill_query, QueryClass, QueryMix, QueryTemplates};
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;
    use netsim::rng::SimRng;
    use std::collections::hash_map::RandomState;
    use std::sync::Arc;

    /// The epoch of a root-sized zone: the index and its zone-only cache.
    fn epoch() -> (ZoneIndex, AnswerCache) {
        let cfg = RootZoneConfig {
            tld_count: 1_500,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        };
        let zone = build_root_zone(&cfg, &ZoneKeys::from_seed(7));
        let index = ZoneIndex::build(Arc::new(zone));
        let cache = AnswerCache::build(&index);
        (index, cache)
    }

    /// What the two tables are probed with: every owner of a root-sized
    /// zone as the index keys it (no root byte), the same as the answer
    /// cache keys it (root byte), and 65 536 junk qnames as the farm's
    /// generator draws them, in the cache's form (`nx` + twelve hex
    /// digits, then the root byte).
    fn keys(index: &ZoneIndex) -> [Vec<Vec<u8>>; 3] {
        let owners: Vec<Vec<u8>> = index
            .names()
            .map(|name| name.as_wire().to_ascii_lowercase())
            .collect();
        let names = index.names().map(|name| name.canonical_wire()).collect();
        assert!(owners.len() > 4_500);
        let templates = QueryTemplates::build(&index.tld_labels());
        let mix = QueryMix::broot();
        let mut rng = SimRng::new(0x2025_1005).derive("hash-junk");
        let (mut wire, mut junk) = (Vec::new(), Vec::new());
        while junk.len() < 65_536 {
            if fill_query(&mix, &templates, &mut rng, &mut wire) == QueryClass::Junk {
                junk.push(wire[12..28].to_vec());
            }
        }
        [owners, names, junk]
    }

    /// How `hash` loads `1 << bits` buckets with `keys`, reading the bucket
    /// number at `shift`: the fullest bucket, and the sum of squared loads
    /// (the number of key comparisons a probe of every key costs).
    fn load(keys: &[&[u8]], hash: impl Fn(&[u8]) -> u64, shift: u32, bits: u32) -> (u64, u64) {
        let mut buckets = vec![0u64; 1 << bits];
        for key in keys {
            buckets[((hash(key) >> shift) & ((1 << bits) - 1)) as usize] += 1;
        }
        let fullest = buckets.iter().copied().max().unwrap_or(0);
        (fullest, buckets.iter().map(|n| n * n).sum())
    }

    /// An [`OffsetTable`] reads the slot from the low bits of a hash (14
    /// of them at a root-sized zone's 4 514 owners, 12 at the 1 501 names
    /// its cache holds) and the tag from the high 32: on the keys the
    /// tables hold and are probed with, the low bits and the tag's top
    /// spread within 1.5× of keyed SipHash.
    #[test]
    fn low_and_top_bits_load_buckets_like_siphash() {
        let (index, _) = epoch();
        let [owners, names, junk] = keys(&index);
        let keys: Vec<&[u8]> = (owners.iter().chain(&names).chain(&junk))
            .map(Vec::as_slice)
            .collect();
        let sip = RandomState::new();
        let shapes = [
            ("low 12 bits", 0, 12),
            ("low 14 bits", 0, 14),
            ("top 12 bits", 52, 12),
        ];
        for (what, shift, bits) in shapes {
            let (zone_max, zone_sq) = load(&keys, zone_hash, shift, bits);
            let (sip_max, sip_sq) = load(&keys, |k| sip.hash_one(k), shift, bits);
            assert!(
                2 * zone_max <= 3 * sip_max && 2 * zone_sq <= 3 * sip_sq,
                "{what}: fullest {zone_max} vs {sip_max}, squares {zone_sq} vs {sip_sq}"
            );
        }
    }

    /// The longest probe either table runs on a root-sized zone.
    const PROBE_BOUND: usize = 16;

    /// Probed in the built epoch, every owner key is found in the index's
    /// owner table and the cache key of every owner at or above a cut — the
    /// apex and the 1 500 TLDs — in the cache's exact-name table, the
    /// 3 013 glue owners below the cuts miss there, each form misses in
    /// the other table, the junk misses in both — and no probe reads more
    /// than [`PROBE_BOUND`] slots.
    #[test]
    fn every_probe_ends_within_the_bound() {
        let (index, cache) = epoch();
        let [owners, names, junk] = keys(&index);
        let tlds = index.tld_labels();
        let mut longest = 0;
        let mut probe = |(found, read): (bool, usize), want: bool, key: &[u8]| {
            assert_eq!(found, want, "{key:?}");
            longest = longest.max(read);
        };
        let mut cached = [0; 2];
        for (owner, name) in owners.iter().zip(&names) {
            // Below a cut: two labels or more, the last one a TLD.
            let (mut rest, mut labels, mut last) = (&owner[..], 0, &[][..]);
            while let Some((&len, tail)) = rest.split_first() {
                (last, rest) = tail.split_at(len as usize);
                labels += 1;
            }
            let below = labels > 1 && tlds.iter().any(|tld| tld.as_bytes() == last);
            cached[usize::from(below)] += 1;
            probe(index.probe_owner(owner), true, owner);
            probe(cache.probe_name(name), !below, name);
            probe(index.probe_owner(name), false, name);
            probe(cache.probe_name(owner), false, owner);
        }
        assert_eq!(cached, [1 + 1_500, 13 + 2 * 1_500]);
        for key in &junk {
            probe(cache.probe_name(key), false, key);
            let flat = &key[..key.len() - 1];
            probe(index.probe_owner(flat), false, flat);
        }
        assert!(longest <= PROBE_BOUND, "a probe read {longest} slots");
    }

    /// Keys that differ in one byte at any offset of the first four words,
    /// in length alone, or by a trailing zero byte hash apart — from their
    /// base and from each other.
    #[test]
    fn near_keys_hash_apart() {
        let base: Vec<u8> = (0..32u8).map(|i| b'a' + i % 26).collect();
        let mut near = vec![base.clone()];
        for at in 0..base.len() {
            for byte in 0..=255u8 {
                if byte != base[at] {
                    let mut key = base.clone();
                    key[at] = byte;
                    near.push(key);
                }
            }
        }
        // Every prefix, and every prefix with zero bytes behind it.
        for len in 0..base.len() {
            near.push(base[..len].to_vec());
            for zeros in 1..=9 {
                let mut key = base[..len].to_vec();
                key.resize(len + zeros, 0);
                near.push(key);
            }
        }
        // (The last prefix with one zero behind it is also a one-byte edit.)
        near.sort_unstable();
        near.dedup();
        let mut hashes: Vec<u64> = near.iter().map(|key| zone_hash(key)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), near.len());
    }
}
