//! A multithreaded query load generator.
//!
//! Replays seeded, B-Root-shaped query mixes (after Ginesin & Mirkovic's
//! composition study: junk-heavy names, ~half DNSSEC-requesting, a thin
//! stream of CHAOS identity probes) from many simulated clients against
//! one letter's per-site [`crate::Rootd`] engines — a one-letter [`Farm`]. Each
//! client is a stub AS from the `netsim` topology; which site answers it
//! is decided by the farm's IPv4 steering table (the same Gao-Rexford
//! catchment computation the measurement layer uses), so load
//! distributes across sites the way anycast would distribute it.
//!
//! The generator shares the farm's partition ([`netsim::shard`]) and
//! steering but keeps its own delivery: every query is a single-shot
//! [`crate::Rootd::serve_udp_into`] call on raw bytes (answer cache first,
//! fallback parse → respond → encode otherwise) — the per-datagram path
//! tests hold the farm's batched path against. Sites going dark are the
//! farm's business ([`Farm::run_chaos`]), not the generator's. Query content derives
//! from the global query index alone, so every seeded counter of a
//! [`LoadReport`] is identical for any worker-thread count. Latency is
//! recorded per query into a log-bucketed histogram (16 sub-buckets per
//! octave, so quantile error is bounded at ~6%), and the report carries
//! throughput, p50/p95/p99, and cache hit/miss counters. Queries are
//! filled from precompiled wire templates into a per-worker scratch
//! buffer — byte-identical to the `Message`-built stream (a test asserts
//! it) but allocation-free, so the generator keeps up with the cached
//! serve path.

use crate::engine::ServeOutcome;
use crate::farm::{Farm, Tally};
use crate::rrl::ResponseClass;
use dns_wire::{Message, Name, Question, RrType};
use netsim::rng::SimRng;
use netsim::shard::{self, Merge};
use std::time::{Duration, Instant};

/// The shape of generated traffic.
#[derive(Debug, Clone)]
pub struct QueryMix {
    /// Weighted QTYPE distribution.
    pub qtypes: Vec<(RrType, u32)>,
    /// Fraction of queries for names that do not exist (junk single
    /// labels — the dominant traffic class at the root).
    pub nxdomain_fraction: f64,
    /// Fraction of queries carrying an EDNS OPT with DO set.
    pub dnssec_fraction: f64,
    /// Fraction of CHAOS-class identity probes.
    pub chaos_fraction: f64,
}

impl QueryMix {
    /// The B-Root-shaped default: A-dominated QTYPEs, ~45% junk names,
    /// ~55% DNSSEC OK, a trickle of identity probes.
    pub fn broot() -> QueryMix {
        QueryMix {
            qtypes: vec![
                (RrType::A, 50),
                (RrType::Aaaa, 22),
                (RrType::Ns, 8),
                (RrType::Ds, 7),
                (RrType::Soa, 4),
                (RrType::Txt, 4),
                (RrType::Dnskey, 2),
                (RrType::Mx, 2),
                (RrType::Cname, 1),
            ],
            nxdomain_fraction: 0.45,
            dnssec_fraction: 0.55,
            chaos_fraction: 0.01,
        }
    }

    fn draw_qtype(&self, rng: &mut SimRng) -> RrType {
        let total: u32 = self.qtypes.iter().map(|(_, w)| w).sum();
        let mut roll = rng.next_range(total as usize) as u32;
        for (t, w) in &self.qtypes {
            if roll < *w {
                return *t;
            }
            roll -= w;
        }
        RrType::A
    }
}

impl Default for QueryMix {
    fn default() -> Self {
        QueryMix::broot()
    }
}

/// Deterministic client arrivals on the shared virtual-ms axis: global
/// query `g` arrives at `start_ms + g * interarrival_ms`, and each retry
/// waits one client timeout. Arrival instants are a pure function of the
/// global query index — not of which worker runs it or what any shared
/// clock reads — which is what keeps time-windowed failure totals
/// independent of the worker or shard count.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalSchedule {
    /// Virtual instant of the first query.
    pub start_ms: u64,
    /// Virtual gap between consecutive (global) queries.
    pub interarrival_ms: u64,
}

impl ArrivalSchedule {
    /// The virtual instant attempt `attempt` of global query `global`
    /// is pinned to.
    pub fn attempt_at(&self, global: u64, attempt: u64, timeout_ms: u64) -> u64 {
        self.start_ms + global * self.interarrival_ms + attempt * timeout_ms
    }
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Simulated clients (stub ASes are reused round-robin when fewer
    /// exist in the topology).
    pub clients: usize,
    /// Total queries across all threads.
    pub queries: usize,
    /// Worker threads.
    pub threads: usize,
    /// Master seed; every query derives its own stream from it and its
    /// global index.
    pub seed: u64,
    pub mix: QueryMix,
}

impl LoadgenConfig {
    /// A smoke-test-sized run.
    pub fn tiny(seed: u64) -> LoadgenConfig {
        LoadgenConfig {
            clients: 64,
            queries: 5_000,
            threads: 2,
            seed,
            mix: QueryMix::broot(),
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub queries: usize,
    pub responses: usize,
    pub nxdomain: usize,
    pub referrals: usize,
    pub truncated: usize,
    /// Queries answered from the precompiled answer cache.
    pub cache_hits: usize,
    /// Queries that took the fallback path (or were dropped).
    pub cache_misses: usize,
    pub elapsed: Duration,
    pub qps: f64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// Queries answered per site id.
    pub per_site: Vec<(u32, usize)>,
}

impl LoadReport {
    /// Metric pairs in the flat label→value shape `BENCH_results.json`
    /// uses.
    pub fn metrics(&self, prefix: &str) -> Vec<(String, f64)> {
        vec![
            (format!("{prefix}/qps"), self.qps),
            (format!("{prefix}/p50_ns"), self.p50_ns as f64),
            (format!("{prefix}/p95_ns"), self.p95_ns as f64),
            (format!("{prefix}/p99_ns"), self.p99_ns as f64),
        ]
    }

    /// The deterministic half of the summary: response counters only.
    /// Same input stream ⇒ same text, regardless of machine or timing —
    /// what seeded surfaces (the experiment registry) should print.
    pub fn render_counts(&self) -> String {
        format!(
            "queries        {:>12}\nresponses      {:>12}\nnxdomain       {:>12}\nreferrals      {:>12}\ntruncated      {:>12}\ncache hits     {:>12}\ncache misses   {:>12}\nsites answering {:>11}\n",
            self.queries,
            self.responses,
            self.nxdomain,
            self.referrals,
            self.truncated,
            self.cache_hits,
            self.cache_misses,
            self.per_site.len()
        )
    }

    /// Human-readable summary including wall-clock throughput/latency.
    pub fn render(&self) -> String {
        let mut out = self.render_counts();
        out.push_str(&format!(
            "elapsed        {:>12.3} s\nthroughput     {:>12.0} q/s\nlatency p50    {:>12} ns\nlatency p95    {:>12} ns\nlatency p99    {:>12} ns\n",
            self.elapsed.as_secs_f64(),
            self.qps,
            self.p50_ns,
            self.p95_ns,
            self.p99_ns
        ));
        out
    }
}

/// Log-bucketed latency histogram: 16 sub-buckets per octave bounds the
/// relative quantile error at 1/16.
pub(crate) struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
}

pub(crate) const HISTOGRAM_BUCKETS: usize = 16 + 60 * 16;

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
        }
    }
}

impl Merge for LatencyHistogram {
    fn merge(&mut self, other: LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }
}

impl LatencyHistogram {
    fn bucket_of(v: u64) -> usize {
        if v < 16 {
            return v as usize;
        }
        let top = 63 - v.leading_zeros() as u64;
        let sub = (v >> (top - 4)) & 0xF;
        ((top - 4) * 16 + sub + 16) as usize
    }

    /// Lower bound of bucket `idx` — what quantiles report.
    fn bucket_floor(idx: usize) -> u64 {
        if idx < 16 {
            return idx as u64;
        }
        let group = (idx - 16) / 16;
        let sub = ((idx - 16) % 16) as u64;
        (16 + sub) << group
    }

    pub(crate) fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// `n` samples of the same value `v`.
    pub(crate) fn record_n(&mut self, v: u64, n: u64) {
        let idx = Self::bucket_of(v).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx] += n;
        self.count += n;
    }

    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_floor(idx);
            }
        }
        Self::bucket_floor(HISTOGRAM_BUCKETS - 1)
    }
}

/// Response counters classified from header bytes alone — the client
/// side of every load loop stays cheap so the measured cost is the server
/// path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ResponseMix {
    pub(crate) responses: u64,
    pub(crate) nxdomain: u64,
    pub(crate) referrals: u64,
    pub(crate) truncated: u64,
}

impl ResponseMix {
    /// Count one raw response datagram.
    pub(crate) fn classify(&mut self, resp: &[u8]) {
        self.responses += 1;
        if resp.len() >= 12 && resp[2] & 0x02 != 0 {
            self.truncated += 1;
        }
        match ResponseClass::of(resp) {
            ResponseClass::NxDomain => self.nxdomain += 1,
            // NOERROR with an empty answer section and a non-empty
            // authority section is (at the root) a referral or NODATA.
            ResponseClass::Referral | ResponseClass::NoData => self.referrals += 1,
            ResponseClass::Answer | ResponseClass::Error => {}
        }
    }
}

impl Merge for ResponseMix {
    fn merge(&mut self, other: ResponseMix) {
        self.responses += other.responses;
        self.nxdomain += other.nxdomain;
        self.referrals += other.referrals;
        self.truncated += other.truncated;
    }
}

/// The CHAOS names the generator probes (a strict subset of what sites
/// answer, as in the B-Root composition study).
const CHAOS_PROBES: [&str; 3] = ["hostname.bind.", "id.server.", "version.bind."];

/// Pre-encoded wire fragments for [`fill_query`]: whole CHAOS queries and
/// qname bytes per TLD, so the per-query work is a copy plus patches.
pub(crate) struct QueryTemplates {
    chaos: [Vec<u8>; 3],
    /// Qname wire bytes (`len label 0`) per delegated TLD.
    tld_names: Vec<Vec<u8>>,
}

impl QueryTemplates {
    pub(crate) fn build(tlds: &[String]) -> QueryTemplates {
        let chaos = CHAOS_PROBES
            .map(|n| Message::query(0, Question::chaos_txt(Name::parse(n).unwrap())).to_wire());
        let tld_names = tlds
            .iter()
            .map(|t| {
                let mut wire = Vec::with_capacity(t.len() + 2);
                wire.push(t.len() as u8);
                wire.extend_from_slice(t.as_bytes());
                wire.push(0);
                wire
            })
            .collect();
        QueryTemplates { chaos, tld_names }
    }
}

/// What a generated query asked for — the shed-priority taxonomy the
/// self-healing farm reuses (junk-class sheds first, mirroring the RRL
/// `ResponseClass::NxDomain` bucket; CHAOS answers name the serving site,
/// so byte-identity twins exclude them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// CHAOS identity probe.
    Chaos,
    /// Apex SOA/DNSKEY (priming-style).
    Apex,
    /// Random junk label destined for NXDOMAIN.
    Junk,
    /// A delegated TLD (referral traffic).
    Tld,
}

/// Write one query's wire bytes for `client`'s stream into `out`, and
/// report which traffic class it belongs to. Consumes RNG draws in exactly
/// the order the original `Message`-building path did, and produces
/// byte-identical datagrams (asserted by
/// `templated_queries_match_message_built_ones`), so reports stay
/// comparable across the optimization.
pub(crate) fn fill_query(
    mix: &QueryMix,
    templates: &QueryTemplates,
    rng: &mut SimRng,
    out: &mut Vec<u8>,
) -> QueryClass {
    let id = (rng.next_u64() & 0xffff) as u16;
    if rng.chance(mix.chaos_fraction) {
        // Mirrors `rng.pick` on the 3-element probe array.
        let probe = &templates.chaos[rng.next_range(CHAOS_PROBES.len())];
        out.clear();
        out.extend_from_slice(probe);
        out[0] = (id >> 8) as u8;
        out[1] = id as u8;
        return QueryClass::Chaos;
    }
    let qtype = mix.draw_qtype(rng);
    out.clear();
    out.extend_from_slice(&[(id >> 8) as u8, id as u8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]);
    // Priming-style queries go to the apex; everything else to a TLD or a
    // junk label (the root's NXDOMAIN-heavy reality).
    let class = if matches!(qtype, RrType::Soa | RrType::Dnskey) {
        out.push(0);
        QueryClass::Apex
    } else if rng.chance(mix.nxdomain_fraction) || templates.tld_names.is_empty() {
        // `nx` + 12 lowercase hex digits, one 14-byte label.
        let bits = rng.next_u64() & 0xffff_ffff_ffff;
        out.push(14);
        out.extend_from_slice(b"nx");
        for shift in (0..12u32).rev() {
            out.push(b"0123456789abcdef"[((bits >> (shift * 4)) & 0xf) as usize]);
        }
        out.push(0);
        QueryClass::Junk
    } else {
        out.extend_from_slice(&templates.tld_names[rng.next_range(templates.tld_names.len())]);
        QueryClass::Tld
    };
    out.extend_from_slice(&qtype.to_u16().to_be_bytes());
    out.extend_from_slice(&[0, 1]); // IN
    if rng.chance(mix.dnssec_fraction) {
        // A canonical DO OPT: payload 4096, version 0, no options —
        // byte-for-byte what `set_edns(&Edns::dnssec())` appends.
        out[11] = 1;
        out.extend_from_slice(&[0, 0, 41, 0x10, 0x00, 0, 0, 0x80, 0, 0, 0]);
    }
    class
}

/// Run the generator: `cfg.queries` queries from `cfg.clients` simulated
/// clients spread over `cfg.threads` workers against the first letter of
/// `farm` (the facades build one-letter farms). Query `g` comes from
/// client `g % clients`, is steered by the letter's IPv4 catchment table,
/// and draws its content from `derive_ids(&[0x10ad, g])`.
pub fn run(farm: &Farm, cfg: &LoadgenConfig) -> LoadReport {
    let lf = &farm.letters[0];
    let clients = cfg.clients.max(1);
    let pool = farm.clients.len().max(1);
    let started = Instant::now();
    let tally = shard::fold(shard::run(cfg.queries, cfg.threads, |range| {
        let mut tally = Tally::default();
        tally.site_counts = vec![vec![0; lf.engines.len()]];
        // Per-worker scratch: the whole query/serve loop reuses these
        // two buffers, no per-query allocation.
        let mut wire = Vec::with_capacity(64);
        let mut resp = Vec::with_capacity(4096);
        for global in range {
            let slot = lf.slot(0, (global % clients) % pool);
            let engine = &lf.engines[slot];
            let mut rng = SimRng::new(cfg.seed).derive_ids(&[0x10ad, global as u64]);
            fill_query(&cfg.mix, &farm.templates, &mut rng, &mut wire);
            let t0 = Instant::now();
            let outcome = engine.serve_udp_into(&wire, &mut resp);
            tally.latency.record(t0.elapsed().as_nanos() as u64);
            match outcome {
                ServeOutcome::CacheHit => tally.hits += 1,
                ServeOutcome::Fallback => tally.fallbacks += 1,
                ServeOutcome::Dropped => tally.dropped += 1,
            }
            if outcome != ServeOutcome::Dropped {
                tally.answered((0, slot), &resp);
            }
        }
        tally
    }));
    let elapsed = started.elapsed();
    let per_site = (lf.site_ids.iter().zip(&tally.site_counts[0]))
        .filter(|&(_, &n)| n > 0)
        .map(|(&site, &n)| (site, n as usize))
        .collect();
    LoadReport {
        queries: cfg.queries,
        responses: tally.mix.responses as usize,
        nxdomain: tally.mix.nxdomain as usize,
        referrals: tally.mix.referrals as usize,
        truncated: tally.mix.truncated as usize,
        cache_hits: tally.hits as usize,
        cache_misses: (tally.fallbacks + tally.dropped) as usize,
        elapsed,
        qps: cfg.queries as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_ns: tally.latency.quantile(0.50),
        p95_ns: tally.latency.quantile(0.95),
        p99_ns: tally.latency.quantile(0.99),
        per_site,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;
    use netsim::topology::{Topology, TopologyConfig};
    use rss::catalog::{RootCatalog, WorldConfig};
    use rss::RootLetter;
    use std::sync::Arc;

    fn fleet() -> Farm {
        world().1
    }

    fn world() -> (Topology, Farm) {
        let mut topology = Topology::generate(&TopologyConfig {
            tier2_per_region: 4,
            stubs_per_region: [4, 8, 16, 12, 4, 6],
            ..Default::default()
        });
        let catalog = RootCatalog::build(
            &mut topology,
            &WorldConfig {
                site_scale: 0.05,
                ..Default::default()
            },
        );
        let zone = build_root_zone(
            &RootZoneConfig {
                tld_count: 12,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(3),
        );
        let farm = Farm::build(
            &topology,
            &catalog,
            Arc::new(zone),
            &[RootLetter::B],
            usize::MAX,
        );
        (topology, farm)
    }

    #[test]
    fn histogram_buckets_are_monotone_and_cover() {
        let mut prev = 0;
        for idx in 0..HISTOGRAM_BUCKETS {
            let floor = LatencyHistogram::bucket_floor(idx);
            assert!(idx == 0 || floor > prev || floor == prev + 1 || floor >= prev);
            prev = floor;
        }
        for v in [0u64, 1, 15, 16, 17, 255, 1024, 123_456_789] {
            let idx = LatencyHistogram::bucket_of(v);
            assert!(LatencyHistogram::bucket_floor(idx) <= v);
            if idx + 1 < HISTOGRAM_BUCKETS {
                assert!(LatencyHistogram::bucket_floor(idx + 1) > v);
            }
        }
    }

    #[test]
    fn record_n_is_n_records_of_one_value() {
        for v in [0u64, 7, 15, 16, 17, 1_000, 123_456_789, u64::MAX] {
            for n in [0u64, 1, 2, 32, 1_000] {
                let (mut looped, mut batched) = <(LatencyHistogram, LatencyHistogram)>::default();
                // Samples either side, so the quantiles have something to
                // cross.
                for h in [&mut looped, &mut batched] {
                    h.record(3);
                    h.record(40_000);
                }
                for _ in 0..n {
                    looped.record(v);
                }
                batched.record_n(v, n);
                assert_eq!(batched.buckets, looped.buckets, "v={v} n={n}");
                assert_eq!(batched.count, looped.count, "v={v} n={n}");
                for q in [0.5, 0.99] {
                    assert_eq!(batched.quantile(q), looped.quantile(q), "v={v} n={n}");
                }
            }
        }
    }

    #[test]
    fn merged_quantiles_are_identical_for_one_through_eight_workers() {
        // Deterministic per-query values partitioned exactly the way `run`
        // partitions queries across workers (contiguous blocks of
        // `div_ceil` size): the shard-ordered merge must produce the same
        // quantiles for every worker count as the single histogram.
        let queries = 10_000usize;
        let mut rng = SimRng::new(0x4157_0961);
        let values: Vec<u64> = (0..queries)
            .map(|_| rng.next_range(5_000_000) as u64)
            .collect();
        let mut baseline = LatencyHistogram::default();
        for &v in &values {
            baseline.record(v);
        }
        let expected = (
            baseline.quantile(0.50),
            baseline.quantile(0.95),
            baseline.quantile(0.99),
        );
        for threads in 1..=8usize {
            let per_thread = queries.div_ceil(threads);
            let mut shards: Vec<(usize, LatencyHistogram)> = (0..threads)
                .map(|t| {
                    let mut h = LatencyHistogram::default();
                    let first = t * per_thread;
                    let count = per_thread.min(queries.saturating_sub(first));
                    for &v in &values[first..first + count] {
                        h.record(v);
                    }
                    (t, h)
                })
                .collect();
            // Present shards out of order (reverse spawn order, the way a
            // scheduler might finish them); the merge discipline sorts.
            shards.reverse();
            shards.sort_by_key(|&(shard, _)| shard);
            let mut merged = LatencyHistogram::default();
            for (_, h) in shards {
                merged.merge(h);
            }
            assert_eq!(
                (
                    merged.quantile(0.50),
                    merged.quantile(0.95),
                    merged.quantile(0.99),
                ),
                expected,
                "{threads} workers"
            );
        }
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = LatencyHistogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // Log buckets undershoot by at most one sub-bucket (~6%).
        assert!((450..=500).contains(&p50), "p50 = {p50}");
        assert!((900..=990).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn run_is_deterministic_in_counts() {
        let fleet = fleet();
        let cfg = LoadgenConfig {
            queries: 2_000,
            ..LoadgenConfig::tiny(7)
        };
        let a = run(&fleet, &cfg);
        let b = run(&fleet, &cfg);
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.nxdomain, b.nxdomain);
        assert_eq!(a.referrals, b.referrals);
        assert_eq!(a.per_site, b.per_site);
        // A junk-heavy mix must produce plenty of NXDOMAIN and referrals.
        assert!(a.responses > 0);
        assert!(a.nxdomain > cfg.queries / 4);
        assert!(a.referrals > 0);
        assert!(a.qps > 0.0);
    }

    #[test]
    fn load_spreads_across_sites_when_fleet_has_many() {
        let fleet = fleet();
        if fleet.site_count() < 2 {
            return; // tiny worlds may collapse to one site
        }
        let report = run(&fleet, &LoadgenConfig::tiny(11));
        assert!(!report.per_site.is_empty());
    }

    /// The `Message`-building path `fill_query` replaced, kept verbatim as
    /// the parity oracle.
    fn build_query_via_message(mix: &QueryMix, tlds: &[String], rng: &mut SimRng) -> Vec<u8> {
        use dns_wire::edns::{set_edns, Edns};
        let id = (rng.next_u64() & 0xffff) as u16;
        if rng.chance(mix.chaos_fraction) {
            let name = *rng.pick(&CHAOS_PROBES);
            return Message::query(id, Question::chaos_txt(Name::parse(name).unwrap())).to_wire();
        }
        let qtype = mix.draw_qtype(rng);
        let name = if matches!(qtype, RrType::Soa | RrType::Dnskey) {
            Name::root()
        } else if rng.chance(mix.nxdomain_fraction) || tlds.is_empty() {
            Name::parse(&format!("nx{:012x}.", rng.next_u64() & 0xffff_ffff_ffff)).unwrap()
        } else {
            Name::parse(&format!("{}.", rng.pick(tlds))).unwrap()
        };
        let mut q = Message::query(id, Question::new(name, qtype));
        if rng.chance(mix.dnssec_fraction) {
            set_edns(&mut q, &Edns::dnssec());
        }
        q.to_wire()
    }

    #[test]
    fn templated_queries_match_message_built_ones() {
        let mix = QueryMix::broot();
        let tlds: Vec<String> = ["com", "net", "org", "xn--p1ai"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let templates = QueryTemplates::build(&tlds);
        let mut rng_a = SimRng::new(42).derive_ids(&[0x10ad, 3]);
        let mut rng_b = SimRng::new(42).derive_ids(&[0x10ad, 3]);
        let mut wire = Vec::new();
        for i in 0..5_000 {
            let expected = build_query_via_message(&mix, &tlds, &mut rng_a);
            fill_query(&mix, &templates, &mut rng_b, &mut wire);
            assert_eq!(expected, wire, "query {i} diverged");
        }
    }

    #[test]
    fn cache_counters_cover_every_query_and_ignore_worker_count() {
        let fleet = fleet();
        let cfg = LoadgenConfig {
            queries: 2_000,
            ..LoadgenConfig::tiny(7)
        };
        let a = run(&fleet, &cfg);
        assert_eq!(a.cache_hits + a.cache_misses, cfg.queries);
        // The junk/TLD/apex bulk of the b-root mix is precompiled; only
        // cold shapes (e.g. CHAOS probes against identity-less sites)
        // should miss.
        assert!(a.cache_hits > cfg.queries * 9 / 10, "{} hits", a.cache_hits);
        let b = run(
            &fleet,
            &LoadgenConfig {
                threads: 5,
                ..cfg.clone()
            },
        );
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.cache_misses, b.cache_misses);
    }

    #[test]
    fn arrival_schedule_pins_time_windows_across_worker_counts() {
        use crate::farm::{ChaosOutcome, FarmChaosConfig};
        use crate::recovery::FailureKind;
        let (topology, fleet) = world();
        // Every site goes dark for the first virtual second. With one
        // query arriving per virtual ms, exactly the first 1000 queries
        // start inside the window and no later one does, so exactly they
        // are hedged or go unanswered.
        let mut cfg = FarmChaosConfig::tiny(7, 0);
        cfg.farm.queries = 2_000;
        for &site in &fleet.letters[0].site_ids {
            cfg.plan
                .add(RootLetter::B, site, FailureKind::Blackhole, (0, 1_000));
        }
        let a = fleet.run_chaos(&topology, &cfg);
        let dark = |flag: &u8| {
            let outcome = (flag >> 2) & 0x07;
            outcome == ChaosOutcome::ServedHedged as u8 || outcome == ChaosOutcome::Unanswered as u8
        };
        assert!(a.flags[..1_000].iter().all(dark));
        assert!(!a.flags[1_000..].iter().any(dark));
        assert_eq!(a.served_hedged + a.unanswered, 1_000);
        // Window membership is a pure function of the global query index,
        // so no shard count can shift which queries the outage hits.
        for shards in [1, 5] {
            cfg.farm.shards = shards;
            let b = fleet.run_chaos(&topology, &cfg);
            assert_eq!(a.flags, b.flags, "{shards} shards");
            assert_eq!(a.fingerprint(), b.fingerprint(), "{shards} shards");
        }
    }
}
