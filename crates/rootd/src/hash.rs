//! The hash function of the zone-built lookup tables.
//!
//! Three tables sit on the cached serve path — the answer cache's exact
//! names, an NXDOMAIN template's excluded suffixes, the zone index's owner
//! names — and a junk query probes all three. Their keys are names of at
//! most 255 bytes, so the hash function *is* the probe: [`ZoneHasher`]
//! folds a key eight bytes a multiply where the standard library's SipHash
//! spends rounds of a keyed permutation on every eight.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A word-wise multiplicative hash for tables that are **built from a
/// validated zone and only looked up by queries**.
///
/// It is unkeyed, so anyone can compute colliding keys — and it does not
/// matter here: a collision only costs when the colliding keys are *in*
/// the table, and nothing a client sends is ever inserted into these
/// three. Their contents come from the zone the operator loads — through
/// a validated push (`SharedState::try_reload`: ZONEMD, then RRSIGs) on
/// the farm — and are fixed when `ZoneIndex::build` returns; a query,
/// however crafted, walks one probe sequence over keys it did not choose
/// and leaves.
/// HashDoS — the attacker picks the keys and the table degrades to a list
/// — needs attacker-chosen *insertions*.
///
/// `crate::rrl`'s bucket map is the counter-example and must never use
/// this hasher: its keys are source prefixes taken from the wire, every
/// new source inserts, and a flood chooses them. It keeps the standard
/// library's keyed SipHash.
///
/// Layout: the key's bytes as little-endian `u64` words, a short last word
/// zero-padded, one xor and one widening multiply a word. `[u8]`'s `Hash`
/// feeds the length first, so a key and the same key with a trailing zero
/// byte part ways before their bytes are read. A 64-bit multiply only
/// carries differences upward — owner keys such as `\x07tld0465`, one word
/// that varies in its top two bytes, would share their low bits and a
/// bucket — so each step keeps the full 128-bit product and xors its high
/// half onto its low half: hashbrown takes its bucket index from the low
/// bits of a hash and its control-byte tag from the top seven, and both
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

/// A map filled from the zone and only looked up afterwards.
pub(crate) type ZoneMap<K, V> = HashMap<K, V, BuildHasherDefault<ZoneHasher>>;

/// A set filled from the zone and only looked up afterwards.
pub(crate) type ZoneSet<K> = HashSet<K, BuildHasherDefault<ZoneHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ZoneIndex;
    use crate::loadgen::{fill_query, QueryClass, QueryMix, QueryTemplates};
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;
    use netsim::rng::SimRng;
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;
    use std::sync::Arc;

    fn zone_hash(key: &[u8]) -> u64 {
        BuildHasherDefault::<ZoneHasher>::default().hash_one(key)
    }

    /// What the three tables are probed with: every owner of a root-sized
    /// zone, as the index keys it (no root byte) and as the answer cache
    /// does (root byte), and 65 536 junk qnames as the farm's generator
    /// draws them.
    fn keys() -> Vec<Vec<u8>> {
        let cfg = RootZoneConfig {
            tld_count: 1_500,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        };
        let zone = build_root_zone(&cfg, &ZoneKeys::from_seed(7));
        let index = ZoneIndex::build(Arc::new(zone));
        let mut keys = Vec::new();
        for name in index.names() {
            keys.push(name.as_wire().to_ascii_lowercase());
            keys.push(name.canonical_wire());
        }
        assert!(keys.len() > 2 * 4_500);
        let templates = QueryTemplates::build(&index.tld_labels());
        let mix = QueryMix::broot();
        let mut rng = SimRng::new(0x2025_1005).derive("hash-junk");
        let mut wire = Vec::new();
        let owners = keys.len();
        while keys.len() < owners + 65_536 {
            if fill_query(&mix, &templates, &mut rng, &mut wire) == QueryClass::Junk {
                // `nx` + twelve hex digits and the root byte.
                keys.push(wire[12..28].to_vec());
            }
        }
        keys
    }

    /// How `hash` loads `1 << bits` buckets with `keys`, reading the bucket
    /// number at `shift`: the fullest bucket, and the sum of squared loads
    /// (the number of key comparisons a probe of every key costs).
    fn load(keys: &[Vec<u8>], hash: impl Fn(&[u8]) -> u64, shift: u32, bits: u32) -> (u64, u64) {
        let mut buckets = vec![0u64; 1 << bits];
        for key in keys {
            buckets[((hash(key) >> shift) & ((1 << bits) - 1)) as usize] += 1;
        }
        let fullest = buckets.iter().copied().max().unwrap_or(0);
        (fullest, buckets.iter().map(|n| n * n).sum())
    }

    /// hashbrown reads the bucket index from the low bits of a hash and the
    /// control-byte tag from its top seven: on the keys these tables hold
    /// and are probed with, both spread within 1.5× of keyed SipHash.
    #[test]
    fn low_and_top_bits_load_buckets_like_siphash() {
        let keys = keys();
        let sip = RandomState::new();
        for (what, shift, bits) in [("low 12 bits", 0, 12), ("top 7 bits", 57, 7)] {
            let (zone_max, zone_sq) = load(&keys, zone_hash, shift, bits);
            let (sip_max, sip_sq) = load(&keys, |k| sip.hash_one(k), shift, bits);
            assert!(
                2 * zone_max <= 3 * sip_max && 2 * zone_sq <= 3 * sip_sq,
                "{what}: fullest {zone_max} vs {sip_max}, squares {zone_sq} vs {sip_sq}"
            );
        }
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
