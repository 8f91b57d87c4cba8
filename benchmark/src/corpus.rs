//! The benchmark's own seeded query corpus.
//!
//! `Farm::run` generates its load internally from `FarmConfig.seed`; the
//! latency probe, the byte-identity sample and the traced stage replay
//! need queries the benchmark can hold, steer and classify itself. This
//! generator draws them with the same fractions as the workload's
//! `QueryMix` (qtype weights, junk names, DO bit, CHAOS probes) from
//! `--seed`, encodes them through `dns_wire::Message`, and predicts for
//! each whether the precompiled answer cache can serve it — the run fails
//! if that split and the farm's own `FarmReport` disagree by more than a
//! point.

use dns_wire::edns::{set_edns, Edns};
use dns_wire::{Message, Name, Question, RrType};
use netsim::rng::SimRng;
use netsim::types::Family;
use rootd::QueryMix;
use rss::RootLetter;

/// Stream tag of the corpus draws, distinct from the farm's own tags.
const CORPUS_TAG: u64 = 0xc0_7b05;

/// CHAOS identity names the generator probes (what `loadgen` probes).
const CHAOS_PROBES: [&str; 3] = ["hostname.bind.", "id.server.", "version.bind."];

/// Qtypes the answer cache precompiles per zone name
/// (`rootd::cache::CACHED_QTYPES`, not exported); any other type at an
/// existing name takes the full parse/respond/encode path.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// CHAOS identity probe: answered per site, excluded from
    /// byte-identity checks.
    Chaos,
    /// Apex SOA/DNSKEY.
    Apex,
    /// Random single label destined for NXDOMAIN.
    Junk,
    /// A delegated TLD.
    Tld,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    pub letter: RootLetter,
    pub family: Family,
    /// Client position in the farm's stub-AS pool.
    pub client: usize,
    pub kind: QueryKind,
    /// Whether the cached engine is expected to fall back.
    pub fallback: bool,
    end: usize,
}

pub struct Corpus {
    wire: Vec<u8>,
    entries: Vec<Entry>,
}

fn draw_qtype(mix: &QueryMix, rng: &mut SimRng) -> RrType {
    let total: u32 = mix.qtypes.iter().map(|(_, w)| w).sum();
    let mut roll = rng.next_range(total.max(1) as usize) as u32;
    for (t, w) in &mix.qtypes {
        if roll < *w {
            return *t;
        }
        roll -= w;
    }
    RrType::A
}

impl Corpus {
    /// `n` queries from `seed`: same seed, same bytes.
    pub fn generate(
        seed: u64,
        n: usize,
        mix: &QueryMix,
        tlds: &[String],
        clients: usize,
        v6_fraction: f64,
    ) -> Corpus {
        let mut wire = Vec::with_capacity(n * 48);
        let mut entries = Vec::with_capacity(n);
        let mut scratch = Vec::with_capacity(64);
        for g in 0..n {
            let mut rng = SimRng::new(seed).derive_ids(&[CORPUS_TAG, g as u64]);
            let letter = RootLetter::ALL[rng.next_range(RootLetter::ALL.len())];
            let family = if rng.chance(v6_fraction) {
                Family::V6
            } else {
                Family::V4
            };
            let id = (rng.next_u64() & 0xffff) as u16;
            let (message, kind, fallback) = if rng.chance(mix.chaos_fraction) {
                let probe = CHAOS_PROBES[rng.next_range(CHAOS_PROBES.len())];
                let name = Name::parse(probe).expect("static name");
                (
                    Message::query(id, Question::chaos_txt(name)),
                    QueryKind::Chaos,
                    false,
                )
            } else {
                let qtype = draw_qtype(mix, &mut rng);
                let (name, kind) = if matches!(qtype, RrType::Soa | RrType::Dnskey) {
                    (Name::root(), QueryKind::Apex)
                } else if rng.chance(mix.nxdomain_fraction) || tlds.is_empty() {
                    let label = format!("nx{:012x}.", rng.next_u64() & 0xffff_ffff_ffff);
                    (Name::parse(&label).expect("hex label"), QueryKind::Junk)
                } else {
                    let label = format!("{}.", rng.pick(tlds));
                    (Name::parse(&label).expect("zone label"), QueryKind::Tld)
                };
                let mut q = Message::query(id, Question::new(name, qtype));
                if rng.chance(mix.dnssec_fraction) {
                    set_edns(&mut q, &Edns::dnssec());
                }
                // NXDOMAIN is served from qtype-independent templates;
                // existing names only for the precompiled qtypes.
                let fallback = kind != QueryKind::Junk && !CACHED_QTYPES.contains(&qtype);
                (q, kind, fallback)
            };
            message.encode_into(&mut scratch);
            wire.extend_from_slice(&scratch);
            entries.push(Entry {
                letter,
                family,
                client: g % clients.max(1),
                kind,
                fallback,
                end: wire.len(),
            });
        }
        Corpus { wire, entries }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn entry(&self, i: usize) -> &Entry {
        &self.entries[i]
    }

    /// Wire bytes of query `i`.
    pub fn wire(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.entries[i - 1].end };
        &self.wire[start..self.entries[i].end]
    }

    /// Share of queries predicted to leave the precompiled fast path.
    pub fn fallback_frac(&self) -> f64 {
        let n = self.entries.iter().filter(|e| e.fallback).count();
        n as f64 / self.entries.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlds() -> Vec<String> {
        ["com", "net", "org", "xn--p1ai"].map(String::from).to_vec()
    }

    fn bytes(c: &Corpus) -> Vec<&[u8]> {
        (0..c.len()).map(|i| c.wire(i)).collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let mix = QueryMix::broot();
        let a = Corpus::generate(7, 2_000, &mix, &tlds(), 64, 0.3);
        let b = Corpus::generate(7, 2_000, &mix, &tlds(), 64, 0.3);
        let c = Corpus::generate(8, 2_000, &mix, &tlds(), 64, 0.3);
        assert_eq!(bytes(&a), bytes(&b));
        assert!((0..a.len()).all(|i| a.entry(i) == b.entry(i)));
        assert_ne!(bytes(&a), bytes(&c));
        // A longer corpus extends a shorter one: query g depends on g only.
        let long = Corpus::generate(7, 3_000, &mix, &tlds(), 64, 0.3);
        assert_eq!(bytes(&a)[..], bytes(&long)[..2_000]);
    }

    #[test]
    fn fractions_follow_the_mix() {
        let n = 40_000;
        let mix = QueryMix::broot();
        let c = Corpus::generate(11, n, &mix, &tlds(), 64, 0.3);
        let share = |f: &dyn Fn(&Entry) -> bool| {
            (0..n).filter(|&i| f(c.entry(i))).count() as f64 / n as f64
        };
        assert!((share(&|e| e.kind == QueryKind::Chaos) - mix.chaos_fraction).abs() < 0.005);
        assert!((share(&|e| e.family == Family::V6) - 0.3).abs() < 0.01);
        // Junk = not CHAOS, not an apex qtype (SOA 4 + DNSKEY 2 of 100),
        // then the NXDOMAIN draw.
        let junk = (1.0 - mix.chaos_fraction) * 0.94 * mix.nxdomain_fraction;
        assert!((share(&|e| e.kind == QueryKind::Junk) - junk).abs() < 0.01);
        // Every B-Root qtype is precompiled: nothing falls back.
        assert_eq!(c.fallback_frac(), 0.0);
        // Each query decodes back to one question with the DO share asked for.
        let with_opt = (0..n)
            .filter(|&i| {
                let m = Message::from_wire(c.wire(i)).expect("own query decodes");
                assert_eq!(m.questions.len(), 1);
                !m.additionals.is_empty()
            })
            .count() as f64
            / n as f64;
        assert!((with_opt - (1.0 - mix.chaos_fraction) * mix.dnssec_fraction).abs() < 0.01);
    }

    #[test]
    fn uncached_qtypes_fall_back_unless_the_name_is_junk() {
        let mix = QueryMix {
            qtypes: vec![(RrType::Other(65), 1)],
            nxdomain_fraction: 0.20,
            dnssec_fraction: 0.55,
            chaos_fraction: 0.0,
        };
        let c = Corpus::generate(3, 40_000, &mix, &tlds(), 64, 0.3);
        assert!((c.fallback_frac() - 0.80).abs() < 0.01);
        assert!((0..c.len()).all(|i| {
            let e = c.entry(i);
            e.fallback == (e.kind == QueryKind::Tld)
        }));
    }
}
