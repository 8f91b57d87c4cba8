//! The full-constellation serving farm.
//!
//! The paper measures the root as thirteen independently operated anycast
//! deployments — and its §6 churn analysis only makes sense against the
//! *whole* constellation, not one letter at a time. This module instantiates
//! that deployment surface in one process: every letter from the `rss`
//! catalog becomes a `LetterFarm` whose per-site [`Rootd`] engines share
//! one epoch-swapped [`SharedState`] (the zone index and the identity-free
//! answer cache are built **once** for the whole farm — the root zone is the
//! same bytes behind every letter — while CHAOS identity answers stay
//! per-site). Queries are steered to sites by the same Gao-Rexford
//! catchment computation the measurement layer uses, per address family.
//!
//! The farm serves through the batched datagram path
//! ([`Rootd::serve_udp_batch`] over [`UdpBatch`]): shards fill
//! per-(letter, site) request slabs and flush them through one
//! lock-acquire per batch. Shards partition the global query index
//! contiguously ([`netsim::shard`]), every per-query decision (content,
//! letter, family, client) derives from that global index alone, and
//! shard tallies merge in shard-id order — so every counter, site
//! distribution, and response-size quantile in a [`FarmReport`] is
//! bit-identical for any shard count (a test sweeps 1..=8).
//!
//! There is one data plane (`Farm::data_plane`): partition → per-query
//! stream derivation → route → slab push → flush at the batch cap →
//! drain → ordered merge. [`Farm::run`] and [`Farm::run_chaos`] are its
//! two instantiations; they differ only in two statically dispatched
//! closures — where a query is routed (the steering table, or steering
//! epoch → shed → hedge) and what is kept of a served batch (site / size
//! / rcode tallies, or a digest and an outcome flag per query written in
//! place). The second closure sees a whole flushed batch at a time: what
//! is per response by definition is then done over 32 responses that are
//! still in cache — a chaos run digests each of them eight bytes a
//! multiply ([`digest_response`]).
//!
//! Throughput is reported two ways, deliberately: `wall_qps` is total
//! queries over wall-clock time — on an N-core box the shards genuinely
//! overlap and this is the honest machine rate; `aggregate_qps` is the sum
//! over letters of (queries served / time spent inside that letter's serve
//! batches), i.e. the constellation's serving capacity when each letter's
//! flushes run uncontended, measured rather than extrapolated. DESIGN §15
//! discusses the distinction and the contention between the two.

use crate::cache::AnswerCache;
use crate::engine::{ReloadError, Rootd, SharedState, SiteIdentity};
use crate::health::{HealthConfig, SiteStatus};
use crate::index::ZoneIndex;
use crate::loadgen::{
    fill_query, ArrivalSchedule, LatencyHistogram, QueryClass, QueryMix, QueryTemplates,
    ResponseMix,
};
use crate::recovery::{run_control_plane, ControlPlane, FailurePlan, RecoveryLog, RecoveryPolicy};
use crate::transport::UdpBatch;
use dns_zone::Zone;
use netsim::anycast::Deployment;
use netsim::rng::SimRng;
use netsim::routing::propagate;
use netsim::shard::{self, Merge};
use netsim::topology::Topology;
use netsim::types::{AsId, Family, Tier};
use netsim::Fingerprint;
use rss::catalog::RootCatalog;
use rss::RootLetter;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stream tag for per-query steering draws (letter, family). Separate
/// from `QUERY_TAG` so adding a steering decision never shifts query
/// content, and vice versa.
const STEER_TAG: u64 = 0xfa24;

/// Stream tag for per-query content draws ([`fill_query`]).
const QUERY_TAG: u64 = 0x51e7;

/// Stream tag for per-query overload-shedding draws (chaos runs only).
const SHED_TAG: u64 = 0x5ed0;

/// One letter's slice of the farm: per-site engines over one shared,
/// epoch-swapped serving state, plus the per-family steering tables.
pub(crate) struct LetterFarm {
    letter: RootLetter,
    shared: SharedState,
    /// Per-site engines, catalog order (capped at build time).
    pub(crate) engines: Vec<Arc<Rootd>>,
    /// Site ids, parallel to `engines` (the catalog numbers a letter's
    /// sites in order, so they ascend).
    pub(crate) site_ids: Vec<u32>,
    /// The (possibly capped) deployment steering was computed against.
    deployment: Deployment,
    /// `steer[family][client position] -> engine slot`, from the
    /// Gao-Rexford catchment computation. Position indexes the farm's
    /// stub-AS client pool; slot 0 is the fallback for routeless clients.
    steer: [Vec<u16>; 2],
}

/// The engine slot `table` steers client position `pos` to. Tables are
/// indexed by position in the farm's client pool, so `pos` is already
/// reduced modulo the pool size; a farm without stub clients has empty
/// tables and serves everything from slot 0.
fn steered(table: &[u16], pos: usize) -> usize {
    table.get(pos).map_or(0, |&slot| slot as usize)
}

impl LetterFarm {
    pub(crate) fn slot(&self, family: usize, client_idx: usize) -> usize {
        steered(&self.steer[family], client_idx)
    }
}

/// The whole constellation: one `LetterFarm` per requested letter, a
/// shared client pool (the topology's stub ASes), and the query templates
/// cut from the build-time zone's TLD label set.
pub struct Farm {
    pub(crate) letters: Vec<LetterFarm>,
    /// `RootLetter::index()` → position in `letters`, `usize::MAX` for a
    /// letter the farm does not serve: the public accessors' lookup.
    letter_pos: [usize; 13],
    pub(crate) clients: Vec<AsId>,
    pub(crate) templates: QueryTemplates,
    /// The zone epoch the farm was built from — kept so chaos runs can
    /// derive poisoned copies to push at the validated reload path.
    zone: Arc<Zone>,
}

/// Farm run parameters.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Total queries across the whole constellation.
    pub queries: usize,
    /// Worker shards. Shards own contiguous global-index ranges; every
    /// deterministic output is independent of this.
    pub shards: usize,
    /// Datagrams per [`UdpBatch`] flush.
    pub batch: usize,
    /// Simulated clients (positions into the stub-AS pool).
    pub clients: usize,
    /// Master seed for steering and content streams.
    pub seed: u64,
    pub mix: QueryMix,
    /// Fraction of queries arriving over IPv6 (steered by the v6
    /// catchment table).
    pub v6_fraction: f64,
}

impl FarmConfig {
    /// A smoke-test-sized run.
    pub fn tiny(seed: u64) -> FarmConfig {
        FarmConfig {
            queries: 20_000,
            shards: 2,
            batch: 32,
            clients: 64,
            seed,
            mix: QueryMix::broot(),
            v6_fraction: 0.3,
        }
    }
}

/// One letter's share of a [`FarmReport`].
#[derive(Debug, Clone)]
pub struct LetterLoad {
    pub letter: RootLetter,
    /// Sites serving this letter.
    pub sites: usize,
    /// Queries this letter answered.
    pub queries: u64,
    /// Nanoseconds spent inside this letter's serve batches.
    pub busy_ns: u64,
    /// Busy-time serving rate: `queries / busy_seconds`.
    pub qps: f64,
}

/// What one farm run measured.
#[derive(Debug, Clone)]
pub struct FarmReport {
    pub queries: usize,
    pub elapsed: Duration,
    /// Total queries over wall-clock time (all letters, all shards).
    pub wall_qps: f64,
    /// Sum of per-letter busy-time rates — the constellation's aggregate
    /// serving capacity with each letter's batches uncontended.
    pub aggregate_qps: f64,
    pub letters: Vec<LetterLoad>,
    /// Answer-cache hits / full-path fallbacks / unserveable datagrams.
    pub hits: u64,
    pub fallbacks: u64,
    pub dropped: u64,
    pub responses: u64,
    pub nxdomain: u64,
    pub referrals: u64,
    pub truncated: u64,
    /// Batch-amortised serve latency quantiles (flush time split evenly
    /// across its datagrams). Timing-dependent: excluded from
    /// [`FarmReport::fingerprint`].
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Response-size quantiles (bytes). Deterministic.
    pub size_p50: u64,
    pub size_p99: u64,
    /// Responses per (letter, site id), letter-major, site-sorted.
    pub per_site: Vec<(RootLetter, u32, u64)>,
}

impl FarmReport {
    /// Order-sensitive FNV digest over every deterministic field — equal
    /// fingerprints mean the runs answered the same queries the same way
    /// and distributed them across the same sites. Wall-clock and latency
    /// fields are deliberately excluded.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        h.mix(self.queries as u64);
        h.mix(self.hits);
        h.mix(self.fallbacks);
        h.mix(self.dropped);
        h.mix(self.responses);
        h.mix(self.nxdomain);
        h.mix(self.referrals);
        h.mix(self.truncated);
        h.mix(self.size_p50);
        h.mix(self.size_p99);
        for l in &self.letters {
            h.mix(l.letter.index() as u64);
            h.mix(l.sites as u64);
            h.mix(l.queries);
        }
        for &(letter, site, n) in &self.per_site {
            h.mix(letter.index() as u64);
            h.mix(u64::from(site));
            h.mix(n);
        }
        h.finish()
    }

    /// Internal-consistency checks; a healthy run returns an empty list.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.hits + self.fallbacks + self.dropped != self.queries as u64 {
            v.push(format!(
                "serve outcomes {}+{}+{} != queries {}",
                self.hits, self.fallbacks, self.dropped, self.queries
            ));
        }
        if self.responses != self.queries as u64 - self.dropped {
            v.push(format!(
                "responses {} != queries {} - dropped {}",
                self.responses, self.queries, self.dropped
            ));
        }
        let per_letter: u64 = self.letters.iter().map(|l| l.queries).sum();
        if per_letter != self.queries as u64 {
            v.push(format!(
                "per-letter queries sum {} != queries {}",
                per_letter, self.queries
            ));
        }
        let per_site: u64 = self.per_site.iter().map(|&(_, _, n)| n).sum();
        if per_site != self.responses {
            v.push(format!(
                "per-site responses sum {} != responses {}",
                per_site, self.responses
            ));
        }
        v
    }

    /// Metric pairs in the flat label→value shape `BENCH_results.json`
    /// uses: the two throughput views, latency quantiles, and one
    /// busy-rate per letter.
    pub fn metrics(&self, prefix: &str) -> Vec<(String, f64)> {
        let mut out = vec![
            (format!("{prefix}/aggregate_qps"), self.aggregate_qps),
            (format!("{prefix}/wall_qps"), self.wall_qps),
            (format!("{prefix}/p50_ns"), self.p50_ns as f64),
            (format!("{prefix}/p99_ns"), self.p99_ns as f64),
        ];
        for l in &self.letters {
            out.push((format!("{prefix}/qps_{}", l.letter.ch()), l.qps));
        }
        out
    }

    /// The seeded, machine-independent counters only — byte-identical
    /// across runs and shard counts (timing lives in [`FarmReport::render`]).
    pub fn render_counts(&self) -> String {
        let sites: usize = self.letters.iter().map(|l| l.sites).sum();
        let mut out = format!(
            "letters        {:>12}\nsites          {:>12}\nqueries        {:>12}\nresponses      {:>12}\ncache hits     {:>12}\nfallbacks      {:>12}\ndropped        {:>12}\nnxdomain       {:>12}\nreferrals      {:>12}\ntruncated      {:>12}\nsize p50       {:>12} B\nsize p99       {:>12} B\n",
            self.letters.len(),
            sites,
            self.queries,
            self.responses,
            self.hits,
            self.fallbacks,
            self.dropped,
            self.nxdomain,
            self.referrals,
            self.truncated,
            self.size_p50,
            self.size_p99,
        );
        for l in &self.letters {
            out.push_str(&format!(
                "  {}.root  sites {:>3}  queries {:>10}\n",
                l.letter.ch(),
                l.sites,
                l.queries,
            ));
        }
        out
    }

    /// Human-readable summary: the seeded counters of
    /// [`FarmReport::render_counts`], then both throughput views, the
    /// serve latency quantiles and a per-letter busy-rate table.
    pub fn render(&self) -> String {
        let mut out = self.render_counts();
        out.push_str(&format!(
            "elapsed        {:>12.3} s\nwall clock     {:>12.0} q/s\naggregate      {:>12.0} q/s (sum of per-letter busy rates)\nserve p50      {:>12} ns\nserve p99      {:>12} ns\n",
            self.elapsed.as_secs_f64(),
            self.wall_qps,
            self.aggregate_qps,
            self.p50_ns,
            self.p99_ns,
        ));
        for l in &self.letters {
            out.push_str(&format!(
                "  {}.root  busy {:>9.3} ms  rate {:>12.0} q/s\n",
                l.letter.ch(),
                l.busy_ns as f64 / 1e6,
                l.qps,
            ));
        }
        out
    }
}

/// One shard's serve tallies, merged in shard-id order — the data
/// plane's, and the load generator's per-datagram path's. Every run
/// fills the serve counters and the latency histogram; the response mix,
/// site counts and sizes are what healthy delivery observes, the hedge
/// count the chaos policy's (whose per-query outcomes live in its flags).
#[derive(Default)]
pub(crate) struct Tally {
    letter_queries: Vec<u64>,
    letter_busy_ns: Vec<u64>,
    /// `[letter][slot] -> responses`.
    pub(crate) site_counts: Vec<Vec<u64>>,
    pub(crate) hits: u64,
    pub(crate) fallbacks: u64,
    pub(crate) dropped: u64,
    pub(crate) mix: ResponseMix,
    hedges_attempted: u64,
    pub(crate) latency: LatencyHistogram,
    sizes: LatencyHistogram,
}

impl Tally {
    /// Count one response delivered by `site = (letter, slot)`.
    pub(crate) fn answered(&mut self, site: (usize, usize), resp: &[u8]) {
        self.site_counts[site.0][site.1] += 1;
        self.sizes.record(resp.len() as u64);
        self.mix.classify(resp);
    }
}

fn add_each(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

impl Merge for Tally {
    fn merge(&mut self, other: Tally) {
        add_each(&mut self.letter_queries, &other.letter_queries);
        add_each(&mut self.letter_busy_ns, &other.letter_busy_ns);
        for (a, b) in self.site_counts.iter_mut().zip(&other.site_counts) {
            add_each(a, b);
        }
        self.hits += other.hits;
        self.fallbacks += other.fallbacks;
        self.dropped += other.dropped;
        self.mix.merge(other.mix);
        self.hedges_attempted += other.hedges_attempted;
        self.latency.merge(other.latency);
        self.sizes.merge(other.sizes);
    }
}

/// One query as the data plane derived it from its global index `g`
/// (`local` is its offset inside the shard's range).
struct Query {
    g: u64,
    local: usize,
    letter_idx: usize,
    fam: usize,
    client_idx: usize,
    class: QueryClass,
}

/// Serve one (letter, site) request slab through its site's `engine` —
/// one lock acquire for the whole batch — and hand the served batch,
/// with what the router attached to each of its datagrams, to `observe`:
/// `metas[i]` rides beside request and response `i`.
fn flush<O, M>(
    engine: &Rootd,
    site: (usize, usize),
    (batch, metas): &mut (UdpBatch, Vec<M>),
    tally: &mut Tally,
    out: &mut O,
    observe: &impl Fn((usize, usize), &[M], &UdpBatch, &mut Tally, &mut O),
) {
    if batch.is_empty() {
        return;
    }
    let n = batch.len() as u64;
    let t0 = Instant::now();
    let served = engine.serve_udp_batch(batch);
    let dt = t0.elapsed().as_nanos() as u64;
    tally.letter_queries[site.0] += n;
    tally.letter_busy_ns[site.0] += dt;
    tally.hits += served.hits;
    tally.fallbacks += served.fallbacks;
    tally.dropped += served.dropped;
    // Flush time split evenly across the batch's datagrams.
    tally.latency.record_n(dt / n, n);
    observe(site, metas, batch, tally, out);
    metas.clear();
    batch.clear();
}

/// `deployment` announcing only the sites in `keep`.
fn announcing(deployment: &Deployment, keep: &[u32]) -> Deployment {
    Deployment {
        name: deployment.name.clone(),
        sites: deployment
            .sites
            .iter()
            .filter(|s| keep.contains(&s.id.0))
            .cloned()
            .collect(),
    }
}

/// Both families' catchment tables over `deployment`:
/// `[family][client position] -> slot in site_ids`, from a fresh
/// Gao-Rexford propagation; routeless clients fall to `fallback`.
fn catchment_tables(
    topology: &Topology,
    clients: &[AsId],
    deployment: &Deployment,
    site_ids: &[u32],
    fallback: u16,
) -> [Vec<u16>; 2] {
    [Family::V4, Family::V6].map(|family| {
        let routes = propagate(topology, deployment, family);
        clients
            .iter()
            .map(|&asn| {
                routes
                    .best(asn)
                    .and_then(|c| site_ids.iter().position(|&id| id == c.site.0))
                    .map_or(fallback, |slot| slot as u16)
            })
            .collect()
    })
}

impl Farm {
    /// Build the constellation: one shared zone index and one shared
    /// zone-only answer cache for the whole farm, per-site engines (with
    /// per-site CHAOS identity) for every requested letter, capped at
    /// `max_sites_per_letter` sites per letter (`usize::MAX` for the full
    /// catalog), and both address families' catchment tables computed
    /// against the capped deployments.
    pub fn build(
        topology: &Topology,
        catalog: &RootCatalog,
        zone: Arc<Zone>,
        letters: &[RootLetter],
        max_sites_per_letter: usize,
    ) -> Farm {
        assert!(!letters.is_empty(), "farm needs at least one letter");
        let index = Arc::new(ZoneIndex::build(Arc::clone(&zone)));
        let cache = Arc::new(AnswerCache::build(&index));
        let templates = QueryTemplates::build(&index.tld_labels());
        let clients: Vec<AsId> = topology
            .nodes()
            .iter()
            .filter(|n| n.tier == Tier::Stub)
            .map(|n| n.id)
            .collect();
        let farms = letters
            .iter()
            .map(|&letter| {
                let shared = SharedState::new(Arc::clone(&index), Some(Arc::clone(&cache)));
                let mut engines = Vec::new();
                let mut site_ids = Vec::new();
                for site in catalog.sites_of(letter).take(max_sites_per_letter.max(1)) {
                    let mut engine =
                        Rootd::with_shared_state(&shared, SiteIdentity::for_site(site));
                    engine.letter = Some(letter);
                    engines.push(Arc::new(engine));
                    site_ids.push(site.site_id.0);
                }
                // `engine_at` binary-searches them.
                assert!(site_ids.windows(2).all(|w| w[0] < w[1]), "catalog order");
                // Steering must route over the sites the farm actually
                // serves: announce only the kept sites.
                let deployment = announcing(catalog.deployment(letter), &site_ids);
                let steer = catchment_tables(topology, &clients, &deployment, &site_ids, 0);
                LetterFarm {
                    letter,
                    shared,
                    engines,
                    site_ids,
                    deployment,
                    steer,
                }
            })
            .collect();
        // In reverse, so a repeated letter resolves to its first farm.
        let mut letter_pos = [usize::MAX; 13];
        for (pos, &letter) in letters.iter().enumerate().rev() {
            letter_pos[letter.index()] = pos;
        }
        Farm {
            letters: farms,
            letter_pos,
            clients,
            templates,
            zone,
        }
    }

    /// The letters this farm serves, in build order.
    pub fn letters(&self) -> Vec<RootLetter> {
        self.letters.iter().map(|lf| lf.letter).collect()
    }

    /// Total site engines across all letters.
    pub fn site_count(&self) -> usize {
        self.letters.iter().map(|lf| lf.engines.len()).sum()
    }

    /// Size of the stub-AS client pool steering is computed over.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// The stub-AS client pool, in steering-table order: position `p` in
    /// this slice is the client position [`Farm::site_for`] resolves.
    pub fn clients(&self) -> &[AsId] {
        &self.clients
    }

    /// The (capped) deployment `letter`'s steering was computed against.
    pub fn deployment(&self, letter: RootLetter) -> Option<&Deployment> {
        self.farm_of(letter).map(|lf| &lf.deployment)
    }

    /// The site id client position `client_idx` is steered to for
    /// `letter` over `family`.
    pub fn site_for(&self, letter: RootLetter, family: Family, client_idx: usize) -> Option<u32> {
        let lf = self.farm_of(letter)?;
        let fam = usize::from(family == Family::V6);
        let pos = client_idx % self.clients.len().max(1);
        Some(lf.site_ids[lf.slot(fam, pos)])
    }

    /// The engine serving `letter` at `site_id`.
    pub fn engine_at(&self, letter: RootLetter, site_id: u32) -> Option<&Arc<Rootd>> {
        let lf = self.farm_of(letter)?;
        let slot = lf.site_ids.binary_search(&site_id).ok()?;
        Some(&lf.engines[slot])
    }

    /// One query of `mix` over this farm's zone, drawn from `rng` into
    /// `out` — the datagram generator every run of the farm uses.
    pub fn fill_query(&self, mix: &QueryMix, rng: &mut SimRng, out: &mut Vec<u8>) -> QueryClass {
        fill_query(mix, &self.templates, rng, out)
    }

    /// Current zone-epoch generation of `letter`'s shared state.
    pub fn generation(&self, letter: RootLetter) -> Option<u64> {
        self.farm_of(letter).map(|lf| lf.shared.generation())
    }

    /// Swap a new zone epoch into `letter`'s shared state — every site
    /// engine of that letter sees it atomically; other letters are
    /// untouched. The zone is validated (ZONEMD digest, then RRSIG
    /// validity at `now`) **before** anything is swapped: a poisoned push
    /// rolls back atomically — the generation is unchanged and the old
    /// `ServingState` keeps serving. Returns the new generation on
    /// success.
    pub fn reload_letter(
        &self,
        letter: RootLetter,
        zone: Arc<Zone>,
        now: u32,
    ) -> Result<u64, ReloadError> {
        match self.farm_of(letter) {
            Some(lf) => lf.shared.try_reload(zone, now),
            None => Err(ReloadError::UnknownLetter),
        }
    }

    fn farm_of(&self, letter: RootLetter) -> Option<&LetterFarm> {
        self.letters.get(self.letter_pos[letter.index()])
    }

    /// The one data plane. Shard `t` owns a contiguous range of global
    /// indices; per query `g`, the steering stream (`STEER_TAG`) draws the
    /// letter and family, `g % clients` names the client, the content
    /// stream (`QUERY_TAG`) fills the wire bytes, and `route` names the
    /// engine slot that serves it (or `None`, having resolved the query
    /// without serving it) — all pure functions of `g`. Routed queries
    /// accumulate in one request slab per (letter, site), flushed at
    /// `cfg.batch` datagrams and once more at the end of the range;
    /// `observe` is called once per flush with the served batch. Shard
    /// tallies fold in shard-id order, so every deterministic output is
    /// shard-count-invariant.
    ///
    /// `route` and `observe` are all that distinguishes one kind of run
    /// from another, and the function is monomorphised per pair: a
    /// healthy run executes none of a chaos run's policy and branches on
    /// none of its state. `outs` holds, per shard, the output both write
    /// in place; `M` is what `route` attaches to a batched datagram, and
    /// `observe` gets them as a slice parallel to the batch. Returns the
    /// merged tally and the run's wall time.
    fn data_plane<O: Send, M>(
        &self,
        cfg: &FarmConfig,
        outs: Vec<O>,
        route: impl Fn(&Query, &LetterFarm, &mut Tally, &mut O) -> Option<(usize, M)> + Sync,
        observe: impl Fn((usize, usize), &[M], &UdpBatch, &mut Tally, &mut O) + Sync,
    ) -> (Tally, Duration) {
        let clients = cfg.clients.max(1);
        let batch_cap = cfg.batch.max(1);
        let nletters = self.letters.len();
        let pool = self.clients.len().max(1);
        let started = Instant::now();
        let parts = shard::run_with(cfg.queries, outs, |range, mut out| {
            let mut tally = Tally {
                letter_queries: vec![0; nletters],
                letter_busy_ns: vec![0; nletters],
                site_counts: (self.letters.iter())
                    .map(|lf| vec![0; lf.engines.len()])
                    .collect(),
                ..Tally::default()
            };
            let mut batches: Vec<Vec<(UdpBatch, Vec<M>)>> = (self.letters.iter())
                .map(|lf| {
                    let slab = || (UdpBatch::new(), Vec::new());
                    lf.engines.iter().map(|_| slab()).collect()
                })
                .collect();
            let mut wire = Vec::with_capacity(64);
            for (local, g) in range.enumerate() {
                let g = g as u64;
                let mut steer = SimRng::new(cfg.seed).derive_ids(&[STEER_TAG, g]);
                let letter_idx = steer.next_range(nletters);
                let fam = usize::from(steer.chance(cfg.v6_fraction));
                let client_idx = (g as usize % clients) % pool;
                let mut qrng = SimRng::new(cfg.seed).derive_ids(&[QUERY_TAG, g]);
                let class = fill_query(&cfg.mix, &self.templates, &mut qrng, &mut wire);
                let q = Query {
                    g,
                    local,
                    letter_idx,
                    fam,
                    client_idx,
                    class,
                };
                let lf = &self.letters[letter_idx];
                let Some((slot, meta)) = route(&q, lf, &mut tally, &mut out) else {
                    continue;
                };
                let slab = &mut batches[letter_idx][slot];
                slab.0.push_request(&wire);
                slab.1.push(meta);
                if slab.0.len() >= batch_cap {
                    let (engine, site) = (&lf.engines[slot], (letter_idx, slot));
                    flush(engine, site, slab, &mut tally, &mut out, &observe);
                }
            }
            for (letter_idx, slabs) in batches.iter_mut().enumerate() {
                for (slot, slab) in slabs.iter_mut().enumerate() {
                    let engine = &self.letters[letter_idx].engines[slot];
                    let site = (letter_idx, slot);
                    flush(engine, site, slab, &mut tally, &mut out, &observe);
                }
            }
            tally
        });
        (shard::fold(parts), started.elapsed())
    }

    /// Per-letter load rows from a merged tally.
    fn letter_loads(&self, tally: &Tally) -> Vec<LetterLoad> {
        (self.letters.iter().enumerate())
            .map(|(i, lf)| {
                let queries = tally.letter_queries[i];
                let busy_ns = tally.letter_busy_ns[i];
                LetterLoad {
                    letter: lf.letter,
                    sites: lf.engines.len(),
                    queries,
                    busy_ns,
                    qps: queries as f64 / (busy_ns.max(1) as f64 / 1e9),
                }
            })
            .collect()
    }

    /// Run `cfg.queries` steered queries through the constellation over
    /// `cfg.shards` worker shards: the data plane under the healthy
    /// policy — every query goes where the build-time catchment tables
    /// steer it, and responses are tallied by site, size and rcode.
    pub fn run(&self, cfg: &FarmConfig) -> FarmReport {
        let route = |q: &Query, lf: &LetterFarm, _: &mut Tally, _: &mut ()| {
            Some((lf.slot(q.fam, q.client_idx), ()))
        };
        let observe = |site, _: &[()], batch: &UdpBatch, tally: &mut Tally, _: &mut ()| {
            for i in 0..batch.len() {
                if let Some(resp) = batch.response(i) {
                    tally.answered(site, resp);
                }
            }
        };
        let outs = vec![(); cfg.shards.max(1)];
        let (tally, elapsed) = self.data_plane(cfg, outs, route, observe);
        let letters = self.letter_loads(&tally);
        let mut per_site = Vec::new();
        for (lf, counts) in self.letters.iter().zip(&tally.site_counts) {
            for (slot, &n) in counts.iter().enumerate() {
                if n > 0 {
                    per_site.push((lf.letter, lf.site_ids[slot], n));
                }
            }
        }
        FarmReport {
            queries: cfg.queries,
            elapsed,
            wall_qps: cfg.queries as f64 / elapsed.as_secs_f64().max(1e-9),
            aggregate_qps: letters.iter().map(|l| l.qps).sum(),
            letters,
            hits: tally.hits,
            fallbacks: tally.fallbacks,
            dropped: tally.dropped,
            responses: tally.mix.responses,
            nxdomain: tally.mix.nxdomain,
            referrals: tally.mix.referrals,
            truncated: tally.mix.truncated,
            p50_ns: tally.latency.quantile(0.50),
            p99_ns: tally.latency.quantile(0.99),
            size_p50: tally.sizes.quantile(0.50),
            size_p99: tally.sizes.quantile(0.99),
            per_site,
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos runs: failure injection, health-checked failover, overload shedding.
// ---------------------------------------------------------------------------

/// A junk-amplification flood window: inside `[start_ms, end_ms)` every
/// junk-class query counts as `amplification` offered datagrams when the
/// shedding policy sizes a site's ingress (the water-torture shape: the
/// flood is junk, the infrastructure cost is real).
#[derive(Debug, Clone, Copy)]
pub struct FloodWindow {
    pub start_ms: u64,
    pub end_ms: u64,
    pub amplification: f64,
}

/// Parameters of a chaos run: the healthy-farm config plus the failure
/// schedule and the resilience policies played against it.
#[derive(Debug, Clone)]
pub struct FarmChaosConfig {
    pub farm: FarmConfig,
    /// The deterministic failure schedule (crashes, stalls, blackholes,
    /// poisoned reloads) on the shared virtual clock.
    pub plan: FailurePlan,
    pub health: HealthConfig,
    pub recovery: RecoveryPolicy,
    /// Client arrivals on the virtual-ms axis; failure windows hit
    /// exactly the queries that arrive inside them, on any shard count.
    pub arrivals: ArrivalSchedule,
    /// How long a client waits on a dead site before hedging its one
    /// retry to the next-best catchment.
    pub hedge_timeout_ms: u64,
    /// A site sheds once its offered load exceeds `shed_headroom` times
    /// its healthy-baseline share.
    pub shed_headroom: f64,
    /// Junk-amplification floods overlaid on the failure schedule.
    pub floods: Vec<FloodWindow>,
    /// Wall-clock second reload validation runs at (must fall inside the
    /// zone's RRSIG validity window for clean zones to be accepted).
    pub validate_now_s: u32,
}

impl FarmChaosConfig {
    /// A smoke-test-sized chaos run with an empty failure plan — add
    /// windows to `plan` / `floods` to inject faults.
    pub fn tiny(seed: u64, validate_now_s: u32) -> FarmChaosConfig {
        FarmChaosConfig {
            farm: FarmConfig::tiny(seed),
            plan: FailurePlan::none(seed),
            health: HealthConfig::default(),
            recovery: RecoveryPolicy::default(),
            arrivals: ArrivalSchedule {
                start_ms: 0,
                interarrival_ms: 1,
            },
            hedge_timeout_ms: 300,
            shed_headroom: 2.0,
            floods: Vec::new(),
            validate_now_s,
        }
    }

    /// The fault-free twin of this config: same seed, same traffic, same
    /// steering — no failures, no floods. Every answer a chaos run
    /// delivers must be byte-identical to what the twin serves.
    pub fn twin(&self) -> FarmChaosConfig {
        let mut t = self.clone();
        t.plan = FailurePlan::none(self.plan.seed);
        t.floods.clear();
        t
    }
}

/// Per-query outcome, packed into [`FarmChaosReport::flags`] bits 2..=4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// Answered by the first steered site.
    Served = 0,
    /// First site was dark; the hedged retry landed elsewhere.
    ServedHedged = 1,
    /// Dropped at ingress by the overload-shedding policy.
    Shed = 2,
    /// First site dark and the hedge found no live alternative.
    Unanswered = 3,
    /// Reached an engine but was unserveable (malformed datagram).
    EngineDropped = 4,
}

/// What one chaos run measured. `flags` and `digests` are per global
/// query index: flags pack class (bits 0..=1: 0 benign, 1 junk,
/// 2 chaos), outcome (bits 2..=4) and a late bit (5); digests are
/// [`digest_response`] of the delivered bytes (0 = no response), which is
/// what [`FarmChaosReport::diff_twin`] compares for byte-identity.
#[derive(Debug, Clone)]
pub struct FarmChaosReport {
    pub queries: usize,
    pub elapsed: Duration,
    pub wall_qps: f64,
    /// Sum of per-letter busy-time serving rates, as in [`FarmReport`].
    pub aggregate_qps: f64,
    pub letters: Vec<LetterLoad>,
    pub hits: u64,
    pub fallbacks: u64,
    pub served: u64,
    pub served_hedged: u64,
    pub shed_junk: u64,
    pub shed_benign: u64,
    pub unanswered: u64,
    pub engine_dropped: u64,
    /// Served, but through a stalled shard (late answer).
    pub late: u64,
    pub legit_offered: u64,
    pub legit_served: u64,
    pub junk_offered: u64,
    pub junk_served: u64,
    pub hedges_attempted: u64,
    /// Poisoned pushes the validated reload path refused / let through.
    pub reloads_rejected: u64,
    pub reloads_accepted: u64,
    /// Distinct steering epochs across all letters (>1 means failover
    /// re-steering happened).
    pub steering_epochs: usize,
    /// Watchdog probes the control plane fired.
    pub probes: u64,
    /// Health transitions: `(letter position, slot, at_ms, status)`.
    /// Slots are `u16` like the steering tables (f.root alone has more
    /// than 256 sites at full catalog scale).
    pub transitions: Vec<(u8, u16, u64, SiteStatus)>,
    /// Crash incidents and their restart ladders.
    pub recoveries: Vec<RecoveryLog>,
    /// The failure plan's own fingerprint (mixed into the report's).
    pub plan_fp: u64,
    pub flags: Vec<u8>,
    pub digests: Vec<u64>,
    /// Violations observed while applying the reload schedule (a corrupt
    /// zone activating, a rejected reload moving the generation).
    pub reload_violations: Vec<String>,
}

impl FarmChaosReport {
    /// Fraction of legitimate (non-junk) queries that got an answer —
    /// the degraded-service headline the acceptance gate holds at ≥0.99.
    pub fn legit_served_fraction(&self) -> f64 {
        if self.legit_offered == 0 {
            1.0
        } else {
            self.legit_served as f64 / self.legit_offered as f64
        }
    }

    fn outcome_of(flag: u8) -> u8 {
        (flag >> 2) & 0x07
    }

    fn class_of(flag: u8) -> u8 {
        flag & 0x03
    }

    /// Order-sensitive FNV digest over every deterministic field — the
    /// replay-identity of the whole run: traffic, steering, health
    /// transitions, restart ladders, sheds, and every delivered byte.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        h.mix(self.queries as u64);
        h.mix(self.hits);
        h.mix(self.fallbacks);
        h.mix(self.served);
        h.mix(self.served_hedged);
        h.mix(self.shed_junk);
        h.mix(self.shed_benign);
        h.mix(self.unanswered);
        h.mix(self.engine_dropped);
        h.mix(self.late);
        h.mix(self.legit_offered);
        h.mix(self.legit_served);
        h.mix(self.junk_offered);
        h.mix(self.junk_served);
        h.mix(self.hedges_attempted);
        h.mix(self.reloads_rejected);
        h.mix(self.reloads_accepted);
        h.mix(self.steering_epochs as u64);
        h.mix(self.probes);
        for l in &self.letters {
            h.mix(l.letter.index() as u64);
            h.mix(l.queries);
        }
        for &(li, slot, t, status) in &self.transitions {
            h.mix(u64::from(li));
            h.mix(u64::from(slot));
            h.mix(t);
            h.mix(status.id());
        }
        for r in &self.recoveries {
            h.mix(r.letter.index() as u64);
            h.mix(u64::from(r.site_id));
            h.mix(r.failed_at);
            h.mix(r.detected_at);
            h.mix(u64::from(r.attempts));
            h.mix(r.recovered_at.map_or(u64::MAX, |t| t));
        }
        for &f in &self.flags {
            h.mix(u64::from(f));
        }
        for &d in &self.digests {
            h.mix(d);
        }
        h.finish() ^ self.plan_fp
    }

    /// Internal-consistency checks plus any reload violations; a sound
    /// run returns an empty list.
    pub fn violations(&self) -> Vec<String> {
        let mut v = self.reload_violations.clone();
        let outcomes = self.served
            + self.served_hedged
            + self.shed_junk
            + self.shed_benign
            + self.unanswered
            + self.engine_dropped;
        if outcomes != self.queries as u64 {
            v.push(format!("outcomes {outcomes} != queries {}", self.queries));
        }
        if self.legit_offered + self.junk_offered != self.queries as u64 {
            v.push(format!(
                "offered split {}+{} != queries {}",
                self.legit_offered, self.junk_offered, self.queries
            ));
        }
        if self.legit_served > self.legit_offered {
            v.push(format!(
                "legit served {} > offered {}",
                self.legit_served, self.legit_offered
            ));
        }
        for (g, (&f, &d)) in self.flags.iter().zip(&self.digests).enumerate() {
            let answered = Self::outcome_of(f) <= 1;
            if answered != (d != 0) {
                v.push(format!("query {g}: outcome/digest mismatch (flag {f:#x})"));
                break;
            }
        }
        v
    }

    /// Global indices of answered non-CHAOS queries whose delivered
    /// bytes differ from the fault-free twin's (CHAOS identity answers
    /// legitimately differ when the hedge lands at another site). Empty
    /// means every delivered answer was byte-identical to a healthy farm.
    pub fn diff_twin(&self, twin: &FarmChaosReport) -> Vec<u64> {
        self.flags
            .iter()
            .zip(&self.digests)
            .zip(twin.flags.iter().zip(&twin.digests))
            .enumerate()
            .filter(|&(_, ((&f, &d), (&tf, &td)))| {
                Self::outcome_of(f) <= 1
                    && Self::class_of(f) != 2
                    && Self::outcome_of(tf) <= 1
                    && d != td
            })
            .map(|(g, _)| g as u64)
            .collect()
    }

    /// Metric pairs for `BENCH_results.json` and the bench guard.
    pub fn metrics(&self, prefix: &str) -> Vec<(String, f64)> {
        vec![
            (
                format!("{prefix}/degraded_served_fraction"),
                self.legit_served_fraction(),
            ),
            (format!("{prefix}/aggregate_qps"), self.aggregate_qps),
            (format!("{prefix}/wall_qps"), self.wall_qps),
            (format!("{prefix}/shed_junk"), self.shed_junk as f64),
            (format!("{prefix}/shed_benign"), self.shed_benign as f64),
            (format!("{prefix}/unanswered"), self.unanswered as f64),
        ]
    }

    /// Human-readable summary of the run.
    pub fn render(&self) -> String {
        let mut out = format!(
            "queries          {:>12}\nserved           {:>12}\n  hedged         {:>12}\n  late           {:>12}\nshed junk        {:>12}\nshed benign      {:>12}\nunanswered       {:>12}\nengine dropped   {:>12}\nlegit served     {:>12} / {} ({:.4})\nhedges attempted {:>12}\nreloads rejected {:>12}\nreloads accepted {:>12}\nsteering epochs  {:>12}\nprobes           {:>12}\nrecoveries       {:>12}\nelapsed          {:>12.3} s\nwall clock       {:>12.0} q/s\naggregate        {:>12.0} q/s (sum of per-letter busy rates)\n",
            self.queries,
            self.served + self.served_hedged,
            self.served_hedged,
            self.late,
            self.shed_junk,
            self.shed_benign,
            self.unanswered,
            self.engine_dropped,
            self.legit_served,
            self.legit_offered,
            self.legit_served_fraction(),
            self.hedges_attempted,
            self.reloads_rejected,
            self.reloads_accepted,
            self.steering_epochs,
            self.probes,
            self.recoveries.len(),
            self.elapsed.as_secs_f64(),
            self.wall_qps,
            self.aggregate_qps,
        );
        for r in &self.recoveries {
            out.push_str(&format!(
                "  {}.root site {:>3}  down {:>7} ms  detected {:>7} ms  attempts {}  {}\n",
                r.letter.ch(),
                r.site_id,
                r.failed_at,
                r.detected_at,
                r.attempts,
                match r.recovered_at {
                    Some(t) => format!("recovered {t} ms"),
                    None => "NOT RECOVERED".to_string(),
                },
            ));
        }
        out
    }
}

/// One steering epoch of one letter: the failover tables and offered
/// weights in force from `start_ms` until the next epoch.
struct EpochSteer {
    start_ms: u64,
    /// `steer[family][client position] -> engine slot` over the live
    /// (non-Dead) sites; slot indices stay those of the full roster.
    steer: [Vec<u16>; 2],
    /// Normalized offered-load share per slot under this epoch's tables.
    weights: Vec<f64>,
}

/// The digest of one delivered response, salted with the global query
/// index — the definition of a [`FarmChaosReport::digests`] entry. Never
/// 0, so 0 unambiguously means "no response".
///
/// The response is folded as little-endian `u64` words — eight bytes a
/// multiply — with [`Fingerprint::mix`] as the only step: the length
/// first, then the whole words, then one zero-padded tail word, which is
/// sound only because the length is already in. `h ^ (h >> 32)` brings
/// the high bits down: a word's top bits reach nothing lower through a
/// multiply.
///
/// Every step is a bijection in the state and in the word, which is what
/// an equality oracle between two runs of one program needs: one flipped
/// bit, a swapped pair of words, an added or dropped trailing zero all
/// change the value. It is not a collision-resistant hash — a difference
/// only travels upward through a multiply, so two in the top bit of two
/// words cancel — and must not be used as one.
pub fn digest_response(g: u64, resp: &[u8]) -> u64 {
    let salted = Fingerprint::new().finish() ^ g.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut h = Fingerprint::resume(salted);
    h.mix(resp.len() as u64);
    let mut words = resp.chunks_exact(8);
    for w in &mut words {
        h.mix(u64::from_le_bytes(w.try_into().expect("chunks of eight")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0; 8];
        padded[..tail.len()].copy_from_slice(tail);
        h.mix(u64::from_le_bytes(padded));
    }
    let h = h.finish();
    (h ^ (h >> 32)) | 1
}

/// Shed probabilities `(junk, benign)` for a slot whose offered share is
/// `w` against healthy baseline `wb`: junk is amplified by `amp`, the cap
/// is `headroom` over the larger of the baseline share and an even
/// split, junk sheds first, benign only for what junk cannot absorb.
fn shed_probs(w: f64, wb: f64, nslots: usize, j: f64, amp: f64, headroom: f64) -> (f64, f64) {
    if w <= 0.0 {
        return (0.0, 0.0);
    }
    let offered = w * (1.0 + j * (amp - 1.0));
    let cap = headroom * wb.max(1.0 / nslots as f64);
    let excess = offered - cap;
    if excess <= 0.0 {
        return (0.0, 0.0);
    }
    let junk_offered = w * j * amp;
    let p_junk = if junk_offered > 0.0 {
        (excess / junk_offered).min(1.0)
    } else {
        0.0
    };
    let excess2 = excess - junk_offered;
    let benign_offered = w * (1.0 - j);
    let p_benign = if excess2 > 0.0 && benign_offered > 0.0 {
        (excess2 / benign_offered).min(1.0)
    } else {
        0.0
    };
    (p_junk, p_benign)
}

fn epoch_at(epochs: &[EpochSteer], t: u64) -> &EpochSteer {
    let i = epochs.partition_point(|e| e.start_ms <= t);
    &epochs[i.max(1) - 1]
}

fn flood_amp_at(floods: &[FloodWindow], t: u64) -> f64 {
    floods
        .iter()
        .filter(|f| t >= f.start_ms && t < f.end_ms)
        .map(|f| f.amplification)
        .fold(1.0, f64::max)
}

/// One batched chaos datagram, resolved into a digest and a flag when
/// its batch is flushed.
#[derive(Clone, Copy)]
struct Pending {
    g: u64,
    local: usize,
    /// The flag the query gets if its site answers: class, `Served` or
    /// `ServedHedged`, and the late bit.
    served_flag: u8,
}

impl Farm {
    /// Precompute every letter's steering epochs from the control
    /// plane's health timelines: Dead sites are withdrawn from the
    /// letter's anycast announcement and catchments recomputed through
    /// the same Gao-Rexford propagation as at build time — failover *is*
    /// a BGP withdrawal, not a special path. Identical dead-masks share
    /// one computation.
    fn chaos_steering(
        &self,
        topology: &Topology,
        control: &ControlPlane,
        cfg: &FarmChaosConfig,
    ) -> Vec<Vec<EpochSteer>> {
        (self.letters.iter().zip(&control.letters))
            .map(|(lf, lc)| {
                let mut memo: HashMap<Vec<bool>, [Vec<u16>; 2]> = HashMap::new();
                (lc.timeline.steering_epochs().into_iter())
                    .map(|(start_ms, dead)| {
                        let steer = (memo.entry(dead))
                            .or_insert_with_key(|dead| self.steer_without(topology, lf, dead))
                            .clone();
                        EpochSteer {
                            start_ms,
                            weights: self.offered_weights(&steer, lf.engines.len(), &cfg.farm),
                            steer,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Normalized offered-load share per slot under `steer`, over
    /// `cfg`'s client-position distribution and family split.
    fn offered_weights(&self, steer: &[Vec<u16>; 2], nslots: usize, cfg: &FarmConfig) -> Vec<f64> {
        let clients = cfg.clients.max(1);
        let pool = self.clients.len().max(1);
        let mut w = vec![0.0; nslots];
        for c in 0..clients {
            let pos = c % pool;
            for (fi, famp) in [(0usize, 1.0 - cfg.v6_fraction), (1usize, cfg.v6_fraction)] {
                w[steered(&steer[fi], pos)] += famp / clients as f64;
            }
        }
        w
    }

    /// `lf`'s catchment tables with the `dead` slots withdrawn.
    fn steer_without(&self, topology: &Topology, lf: &LetterFarm, dead: &[bool]) -> [Vec<u16>; 2] {
        let live: Vec<u32> = (lf.site_ids.iter().enumerate())
            .filter(|&(slot, _)| !dead.get(slot).copied().unwrap_or(false))
            .map(|(_, &id)| id)
            .collect();
        if live.len() == lf.site_ids.len() || live.is_empty() {
            // All live (base tables) — or none, in which case steering is
            // moot: every query hedges into the void.
            return lf.steer.clone();
        }
        let first_live = lf.site_ids.iter().position(|id| live.contains(id));
        catchment_tables(
            topology,
            &self.clients,
            &announcing(&lf.deployment, &live),
            &lf.site_ids,
            first_live.unwrap_or(0) as u16,
        )
    }

    /// Apply the plan's poisoned reloads through the validated reload
    /// path. Every push must be refused with the generation unchanged —
    /// anything else is recorded as a violation.
    fn apply_poisoned_reloads(&self, cfg: &FarmChaosConfig) -> (u64, u64, Vec<String>) {
        let mut rejected = 0u64;
        let mut accepted = 0u64;
        let mut violations = Vec::new();
        let mut pushes = cfg.plan.poisoned_reloads.clone();
        pushes.sort_by_key(|p| (p.at_ms, p.letter));
        for p in &pushes {
            let mut poisoned = (*self.zone).clone();
            if dns_zone::corrupt::flip_rrsig_bit(&mut poisoned, p.flip_seed).is_none() {
                violations.push(format!(
                    "poisoned reload at {} ms: zone has no RRSIG to corrupt",
                    p.at_ms
                ));
                continue;
            }
            let before = self.generation(p.letter);
            match self.reload_letter(p.letter, Arc::new(poisoned), cfg.validate_now_s) {
                Err(_) => {
                    rejected += 1;
                    if self.generation(p.letter) != before {
                        violations.push(format!(
                            "{}.root: rejected reload moved generation {:?} -> {:?}",
                            p.letter.ch(),
                            before,
                            self.generation(p.letter)
                        ));
                    }
                }
                Ok(generation) => {
                    accepted += 1;
                    violations.push(format!(
                        "{}.root: CORRUPT ZONE ACTIVATED as generation {generation}",
                        p.letter.ch()
                    ));
                }
            }
        }
        (rejected, accepted, violations)
    }

    /// Run the constellation through the failure schedule: the control
    /// plane (health probes, failover steering, restart ladders) runs
    /// first as a discrete-event program on the virtual clock, producing
    /// piecewise-constant timelines; the data plane then serves every
    /// query against those timelines under the chaos policy — per-query
    /// steering, hedging and shedding are pure functions of the global
    /// query index, so the whole report is bit-identical for any shard
    /// count.
    pub fn run_chaos(&self, topology: &Topology, cfg: &FarmChaosConfig) -> FarmChaosReport {
        let shards = cfg.farm.shards.max(1);

        // Poisoned reloads first: all must bounce off validation, so the
        // serving state the data plane reads is unchanged.
        let (reloads_rejected, reloads_accepted, reload_violations) =
            self.apply_poisoned_reloads(cfg);

        // Control plane: health timelines, ground-truth outage/stall
        // tables, restart ladders.
        let roster: Vec<(RootLetter, Vec<u32>)> = self
            .letters
            .iter()
            .map(|lf| (lf.letter, lf.site_ids.clone()))
            .collect();
        let last_arrival =
            cfg.arrivals
                .attempt_at(cfg.farm.queries as u64, 1, cfg.hedge_timeout_ms);
        let horizon = last_arrival
            .max(
                cfg.plan
                    .max_finite_end()
                    .saturating_add(cfg.recovery.budget_ms()),
            )
            .saturating_add(4 * cfg.health.probe_interval_ms);
        let control = run_control_plane(&roster, &cfg.plan, &cfg.health, &cfg.recovery, horizon);
        let epochs = self.chaos_steering(topology, &control, cfg);
        // Healthy-baseline offered shares anchor the shedding cap, so
        // failover redistribution — not the baseline split — is what
        // gets charged against headroom.
        let base_weights: Vec<Vec<f64>> = (self.letters.iter())
            .map(|lf| self.offered_weights(&lf.steer, lf.engines.len(), &cfg.farm))
            .collect();

        // Expected junk share of the mix (chaos-class templates return
        // before the junk draw; the small apex correction is ignored —
        // the headroom factor dwarfs it).
        let junk_frac = (1.0 - cfg.farm.mix.chaos_fraction) * cfg.farm.mix.nxdomain_fraction;

        // The chaos policy: per-epoch failover steering, junk-first
        // ingress shedding, one hedged retry off a dark site. Every
        // query's outcome is written in place into its shard's slices of
        // `digests` and `flags`.
        let mut digests = vec![0u64; cfg.farm.queries];
        let mut flags = vec![0u8; cfg.farm.queries];
        type Out<'a> = (&'a mut [u64], &'a mut [u8]);
        let route = |q: &Query, lf: &LetterFarm, tally: &mut Tally, (_, flags): &mut Out| {
            let lc = &control.letters[q.letter_idx];
            let epochs = &epochs[q.letter_idx];
            let nslots = lf.engines.len();
            let class = match q.class {
                QueryClass::Chaos => 2u8,
                QueryClass::Junk => 1,
                QueryClass::Apex | QueryClass::Tld => 0,
            };
            let t_arr = cfg.arrivals.attempt_at(q.g, 0, 0);
            let epoch = epoch_at(epochs, t_arr);
            let slot = steered(&epoch.steer[q.fam], q.client_idx);
            // Ingress shedding at the steered site.
            let (p_junk, p_benign) = shed_probs(
                epoch.weights[slot],
                base_weights[q.letter_idx][slot],
                nslots,
                junk_frac,
                flood_amp_at(&cfg.floods, t_arr),
                cfg.shed_headroom,
            );
            let p = if class == 1 { p_junk } else { p_benign };
            let seed = cfg.farm.seed;
            if p > 0.0 && SimRng::new(seed).derive_ids(&[SHED_TAG, q.g]).chance(p) {
                flags[q.local] = class | ((ChaosOutcome::Shed as u8) << 2);
                return None;
            }
            // Ground truth beats belief: a dark site eats the datagram
            // whether or not the watchdog knows yet.
            let (serve_slot, serve_t, hedged) = if lc.down_at(slot, t_arr) {
                tally.hedges_attempted += 1;
                let t2 = t_arr + cfg.hedge_timeout_ms;
                let routed = steered(&epoch_at(epochs, t2).steer[q.fam], q.client_idx);
                // If steering already withdrew the dead site, the retry
                // follows the new catchment; otherwise (watchdog hasn't
                // caught up yet) the client falls back to the next site
                // it still believes is in rotation.
                let slot2 = if routed != slot {
                    Some(routed)
                } else {
                    (1..nslots)
                        .map(|k| (slot + k) % nslots)
                        .find(|&s| lc.timeline.status_at(s, t2).in_rotation())
                };
                match slot2 {
                    Some(s2) if !lc.down_at(s2, t2) => (s2, t2, true),
                    _ => {
                        flags[q.local] = class | ((ChaosOutcome::Unanswered as u8) << 2);
                        return None;
                    }
                }
            } else {
                (slot, t_arr, false)
            };
            let outcome = if hedged {
                ChaosOutcome::ServedHedged
            } else {
                ChaosOutcome::Served
            };
            let late = u8::from(lc.stall_delay_at(serve_slot, serve_t).is_some());
            let pending = Pending {
                g: q.g,
                local: q.local,
                served_flag: class | ((outcome as u8) << 2) | (late << 5),
            };
            Some((serve_slot, pending))
        };
        let observe = |_, pending: &[Pending], batch: &UdpBatch, _: &mut Tally, out: &mut Out| {
            let (digests, flags) = out;
            for (i, p) in pending.iter().enumerate() {
                flags[p.local] = match batch.response(i) {
                    Some(resp) => {
                        digests[p.local] = digest_response(p.g, resp);
                        p.served_flag
                    }
                    None => {
                        FarmChaosReport::class_of(p.served_flag)
                            | ((ChaosOutcome::EngineDropped as u8) << 2)
                    }
                };
            }
        };
        let outs = shard::split_mut(&mut digests, shards)
            .into_iter()
            .zip(shard::split_mut(&mut flags, shards))
            .collect();
        let (tally, elapsed) = self.data_plane(&cfg.farm, outs, route, observe);

        // Every query wrote exactly one flag: the outcome counters are a
        // census of them, `[outcome][class]`.
        let mut census = [[0u64; 4]; 8];
        let mut late = 0;
        for &f in &flags {
            census[usize::from(FarmChaosReport::outcome_of(f))]
                [usize::from(FarmChaosReport::class_of(f))] += 1;
            late += u64::from(f >> 5 & 1);
        }
        let of = |outcome: ChaosOutcome| census[outcome as usize];
        let total = |row: [u64; 4]| row.iter().sum::<u64>();
        let served = total(of(ChaosOutcome::Served));
        let served_hedged = total(of(ChaosOutcome::ServedHedged));
        let junk_offered: u64 = census.iter().map(|row| row[1]).sum();
        let junk_served = of(ChaosOutcome::Served)[1] + of(ChaosOutcome::ServedHedged)[1];
        let shed_junk = of(ChaosOutcome::Shed)[1];

        let letters = self.letter_loads(&tally);
        let transitions: Vec<(u8, u16, u64, SiteStatus)> = control
            .letters
            .iter()
            .enumerate()
            .flat_map(|(li, lc)| {
                lc.timeline
                    .events()
                    .into_iter()
                    .map(move |(slot, t, status)| (li as u8, slot as u16, t, status))
            })
            .collect();
        FarmChaosReport {
            queries: cfg.farm.queries,
            elapsed,
            wall_qps: cfg.farm.queries as f64 / elapsed.as_secs_f64().max(1e-9),
            aggregate_qps: letters.iter().map(|l| l.qps).sum(),
            letters,
            hits: tally.hits,
            fallbacks: tally.fallbacks,
            served,
            served_hedged,
            shed_junk,
            shed_benign: total(of(ChaosOutcome::Shed)) - shed_junk,
            unanswered: total(of(ChaosOutcome::Unanswered)),
            engine_dropped: total(of(ChaosOutcome::EngineDropped)),
            late,
            legit_offered: cfg.farm.queries as u64 - junk_offered,
            legit_served: served + served_hedged - junk_served,
            junk_offered,
            junk_served,
            hedges_attempted: tally.hedges_attempted,
            reloads_rejected,
            reloads_accepted,
            steering_epochs: epochs.iter().map(Vec::len).sum(),
            probes: control.probes,
            transitions,
            recoveries: control.recoveries.clone(),
            plan_fp: cfg.plan.fold_fingerprint(Fingerprint::new().finish()),
            flags,
            digests,
            reload_violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;
    use netsim::topology::TopologyConfig;
    use rss::catalog::WorldConfig;

    fn world() -> (Topology, RootCatalog, Arc<Zone>) {
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
        (topology, catalog, Arc::new(zone))
    }

    fn small_farm() -> (Topology, RootCatalog, Arc<Zone>, Farm) {
        let (topology, catalog, zone) = world();
        let farm = Farm::build(
            &topology,
            &catalog,
            Arc::clone(&zone),
            &[RootLetter::A, RootLetter::B],
            4,
        );
        (topology, catalog, zone, farm)
    }

    #[test]
    fn farm_counters_cover_every_query() {
        let (_, _, _, farm) = small_farm();
        let mut cfg = FarmConfig::tiny(41);
        cfg.queries = 6_000;
        let report = farm.run(&cfg);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert_eq!(
            report.hits + report.fallbacks + report.dropped,
            report.queries as u64
        );
        assert!(report.hits > 0, "cached path must dominate: {report:?}");
        assert!(report.nxdomain > 0 && report.referrals > 0);
        assert!(report.aggregate_qps > 0.0 && report.wall_qps > 0.0);
        // Both letters drew load, and load spread across sites.
        assert!(report.letters.iter().all(|l| l.queries > 0));
        assert!(report.per_site.len() > 2, "{:?}", report.per_site);
    }

    #[test]
    fn farm_report_is_bit_identical_across_shard_counts() {
        let (_, _, _, farm) = small_farm();
        let mut cfg = FarmConfig::tiny(7);
        cfg.queries = 4_000;
        cfg.shards = 1;
        let baseline = farm.run(&cfg);
        let base_fp = baseline.fingerprint();
        for shards in 2..=8 {
            cfg.shards = shards;
            let report = farm.run(&cfg);
            assert_eq!(report.fingerprint(), base_fp, "shards={shards}");
            assert_eq!(report.hits, baseline.hits, "shards={shards}");
            assert_eq!(report.per_site, baseline.per_site, "shards={shards}");
            assert_eq!(
                (report.size_p50, report.size_p99),
                (baseline.size_p50, baseline.size_p99),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn steering_matches_a_fresh_catchment_computation() {
        let (topology, _, _, farm) = small_farm();
        for letter in [RootLetter::A, RootLetter::B] {
            let deployment = farm.deployment(letter).unwrap();
            for family in [Family::V4, Family::V6] {
                let routes = propagate(&topology, deployment, family);
                let mut steered_off_default = 0;
                for (pos, &asn) in farm.clients.iter().enumerate() {
                    let got = farm.site_for(letter, family, pos).unwrap();
                    if let Some(best) = routes.best(asn) {
                        assert_eq!(got, best.site.0, "{letter:?} {family:?} client {pos}");
                        if got != farm.farm_of(letter).unwrap().site_ids[0] {
                            steered_off_default += 1;
                        }
                    }
                }
                assert!(
                    steered_off_default > 0,
                    "{letter:?} {family:?}: catchments must use >1 site"
                );
            }
        }
    }

    /// The public steering accessors over the whole constellation (the
    /// farm rootbench replays against): every letter, family and client
    /// position resolves as a linear scan of the roster does, and what
    /// the farm does not serve resolves to nothing.
    #[test]
    fn steering_accessors_agree_with_a_linear_scan_of_the_full_farm() {
        let mut topology = Topology::generate(&TopologyConfig {
            tier2_per_region: 5,
            stubs_per_region: [8, 12, 40, 25, 8, 10],
            ..Default::default()
        });
        let catalog = RootCatalog::build(
            &mut topology,
            &WorldConfig {
                site_scale: 0.2,
                ..Default::default()
            },
        );
        let (_, _, zone) = world();
        let served = &RootLetter::ALL[..12];
        let farm = Farm::build(&topology, &catalog, zone, served, usize::MAX);
        let unserved = RootLetter::ALL[12];
        assert_eq!(farm.site_count() + catalog.sites_of(unserved).count(), 296);
        for &letter in served {
            let lf = (farm.letters.iter())
                .find(|lf| lf.letter == letter)
                .expect("served letter");
            for (fam, family) in [Family::V4, Family::V6].into_iter().enumerate() {
                // Past the pool too: positions wrap.
                for pos in 0..farm.clients.len() + 3 {
                    let slot = steered(&lf.steer[fam], pos % farm.clients.len());
                    let site = farm.site_for(letter, family, pos);
                    assert_eq!(site, Some(lf.site_ids[slot]), "{letter:?} {family:?} {pos}");
                }
            }
            for &id in &lf.site_ids {
                let scanned = lf.site_ids.iter().position(|&other| other == id);
                let scanned = &lf.engines[scanned.expect("rostered site")];
                let found = farm.engine_at(letter, id).expect("rostered site");
                assert!(Arc::ptr_eq(found, scanned), "{letter:?} site {id}");
            }
            let beyond = lf.site_ids.last().expect("sites") + 1;
            assert!(farm.engine_at(letter, beyond).is_none());
            assert!(farm.engine_at(letter, u32::MAX).is_none());
        }
        assert!(farm.site_for(unserved, Family::V4, 0).is_none());
        assert!(farm.engine_at(unserved, 0).is_none());
        assert!(farm.deployment(unserved).is_none());
    }

    /// A second inside the default zone config's RRSIG validity window.
    fn validate_now() -> u32 {
        RootZoneConfig::default().inception + 86_400
    }

    #[test]
    fn reload_swaps_one_letter_without_touching_the_others() {
        let (_, _, _, farm) = small_farm();
        assert_eq!(farm.generation(RootLetter::A), Some(0));
        assert_eq!(farm.generation(RootLetter::B), Some(0));
        let zone2 = build_root_zone(
            &RootZoneConfig {
                tld_count: 15,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(9),
        );
        assert_eq!(
            farm.reload_letter(RootLetter::B, Arc::new(zone2), validate_now()),
            Ok(1)
        );
        assert_eq!(farm.generation(RootLetter::B), Some(1));
        assert_eq!(farm.generation(RootLetter::A), Some(0));
        assert_eq!(
            farm.reload_letter(
                RootLetter::C,
                {
                    let (_, _, zone) = world();
                    zone
                },
                validate_now()
            ),
            Err(ReloadError::UnknownLetter)
        );
        // The farm still serves after the swap.
        let mut cfg = FarmConfig::tiny(3);
        cfg.queries = 2_000;
        let report = farm.run(&cfg);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert!(report.responses > 0);
    }

    #[test]
    fn poisoned_reload_rolls_back_atomically_and_keeps_serving() {
        let (_, _, zone, farm) = small_farm();
        let before = farm.run(&FarmConfig::tiny(5));
        let mut poisoned = (*zone).clone();
        assert!(dns_zone::corrupt::flip_rrsig_bit(&mut poisoned, 0xbad).is_some());
        let err = farm.reload_letter(RootLetter::B, Arc::new(poisoned), validate_now());
        assert!(err.is_err(), "corrupt zone must be refused: {err:?}");
        // Atomic rollback: generation unchanged, old state keeps serving
        // the exact same bytes.
        assert_eq!(farm.generation(RootLetter::B), Some(0));
        let after = farm.run(&FarmConfig::tiny(5));
        assert_eq!(after.fingerprint(), before.fingerprint());
    }

    fn chaos_cfg(seed: u64, queries: usize) -> FarmChaosConfig {
        let mut cfg = FarmChaosConfig::tiny(seed, validate_now());
        cfg.farm.queries = queries;
        cfg
    }

    #[test]
    fn chaos_with_empty_plan_serves_everything_like_a_healthy_run() {
        let (topology, _, _, farm) = small_farm();
        let cfg = chaos_cfg(11, 4_000);
        let report = farm.run_chaos(&topology, &cfg);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert_eq!(report.served, 4_000);
        assert_eq!(
            report.served_hedged
                + report.shed_junk
                + report.shed_benign
                + report.unanswered
                + report.engine_dropped,
            0
        );
        assert_eq!(report.legit_served_fraction(), 1.0);
        assert_eq!(report.probes, 0, "no faults, no watchdog events");
        assert!(report.recoveries.is_empty());
        // Same serving outcomes as the plain farm path: the chaos layer
        // adds nothing when nothing fails.
        let base = farm.run(&cfg.farm);
        assert_eq!(report.hits, base.hits);
        assert_eq!(report.fallbacks, base.fallbacks);
    }

    #[test]
    fn chaos_report_is_bit_identical_across_shard_counts_and_seed_sensitive() {
        let (topology, _, _, farm) = small_farm();
        let mut cfg = chaos_cfg(7, 3_000);
        let a0 = farm.letters[0].site_ids[0];
        let a1 = farm.letters[0].site_ids[1];
        let b0 = farm.letters[1].site_ids[0];
        cfg.plan.add(
            RootLetter::A,
            a1,
            crate::recovery::FailureKind::Crash,
            (400, 1_500),
        );
        cfg.plan.add(
            RootLetter::B,
            b0,
            crate::recovery::FailureKind::Blackhole,
            (500, 1_200),
        );
        cfg.plan.add(
            RootLetter::A,
            a0,
            crate::recovery::FailureKind::Stall { delay_ms: 300 },
            (200, 2_000),
        );
        cfg.plan.add_poisoned_reload(RootLetter::B, 900);
        cfg.floods.push(FloodWindow {
            start_ms: 800,
            end_ms: 1_600,
            amplification: 8.0,
        });
        cfg.farm.shards = 1;
        let baseline = farm.run_chaos(&topology, &cfg);
        assert_eq!(baseline.violations(), Vec::<String>::new());
        let base_fp = baseline.fingerprint();
        for shards in 2..=8 {
            cfg.farm.shards = shards;
            let report = farm.run_chaos(&topology, &cfg);
            assert_eq!(report.fingerprint(), base_fp, "shards={shards}");
            assert_eq!(report.flags, baseline.flags, "shards={shards}");
            assert_eq!(report.digests, baseline.digests, "shards={shards}");
        }
        let mut other = cfg.clone();
        other.farm.seed = 8;
        other.plan = FailurePlan::none(8);
        assert_ne!(
            farm.run_chaos(&topology, &other).fingerprint(),
            base_fp,
            "different seed and plan must change the replay identity"
        );
    }

    #[test]
    fn failover_hedging_keeps_legit_service_and_answers_byte_identical() {
        let (topology, _, _, farm) = small_farm();
        let mut cfg = chaos_cfg(19, 6_000);
        let a1 = farm.letters[0].site_ids[1];
        let b0 = farm.letters[1].site_ids[0];
        cfg.plan.add(
            RootLetter::A,
            a1,
            crate::recovery::FailureKind::Crash,
            (500, 2_500),
        );
        cfg.plan.add(
            RootLetter::B,
            b0,
            crate::recovery::FailureKind::Blackhole,
            (800, 2_000),
        );
        let report = farm.run_chaos(&topology, &cfg);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert!(report.served_hedged > 0, "{}", report.render());
        assert!(
            report.legit_served_fraction() >= 0.99,
            "legit service under failover: {}",
            report.render()
        );
        assert!(
            report.steering_epochs > farm.letters.len(),
            "dead sites must cut steering epochs"
        );
        assert_eq!(report.recoveries.len(), 1, "one crash incident");
        assert!(report.recoveries[0].converged(), "{:?}", report.recoveries);
        // Every delivered answer matches the fault-free twin byte for
        // byte.
        let twin = farm.run_chaos(&topology, &cfg.twin());
        assert_eq!(report.diff_twin(&twin), Vec::<u64>::new());
    }

    #[test]
    fn overload_shedding_drops_junk_before_benign() {
        let (topology, _, _, farm) = small_farm();
        let mut cfg = chaos_cfg(23, 6_000);
        cfg.floods.push(FloodWindow {
            start_ms: 0,
            end_ms: 4_000,
            amplification: 6.0,
        });
        let report = farm.run_chaos(&topology, &cfg);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert!(report.shed_junk > 0, "flood must trigger shedding");
        assert_eq!(
            report.shed_benign, 0,
            "junk absorbs the whole excess at this amplification"
        );
        assert_eq!(
            report.legit_served_fraction(),
            1.0,
            "benign traffic rides out the flood untouched"
        );
    }

    /// `diff_twin` catching something. Two synthetic reports over real
    /// served bytes: one flipped bit in one benign served answer is named
    /// by its `g`; a CHAOS answer from another site, a shed query and a
    /// query the twin did not serve are not.
    #[test]
    fn diff_twin_names_exactly_the_queries_whose_bytes_differ() {
        let (topology, _, _, farm) = small_farm();
        let shell = farm.run_chaos(&topology, &chaos_cfg(37, 64));
        let mix = QueryMix::broot();
        let mut rng = SimRng::new(37).derive("diff-twin");
        let (mut benign, mut chaos) = (Vec::new(), Vec::new());
        let mut wire = Vec::new();
        while benign.len() < 5 || chaos.is_empty() {
            match farm.fill_query(&mix, &mut rng, &mut wire) {
                QueryClass::Chaos => chaos.push(wire.clone()),
                QueryClass::Junk => {}
                QueryClass::Apex | QueryClass::Tld => benign.push(wire.clone()),
            }
        }
        // b.root: a.root refuses CHAOS identity queries at every site.
        let sites = &farm.letters[1].engines;
        let served = |site: usize, query: &[u8]| {
            let mut out = Vec::new();
            let outcome = sites[site].serve_udp_into(query, &mut out);
            assert_ne!(outcome, crate::engine::ServeOutcome::Dropped);
            out
        };
        let flag = |class: u8, outcome: ChaosOutcome, late: u8| {
            class | ((outcome as u8) << 2) | (late << 5)
        };
        use ChaosOutcome::{Served, ServedHedged, Shed, Unanswered};

        let same = served(0, &benign[0]);
        let intact = served(0, &benign[1]);
        let mut flipped = intact.clone();
        flipped[intact.len() / 2] ^= 0x10;
        let (identity_here, identity_there) = (served(1, &chaos[0]), served(0, &chaos[0]));
        assert_ne!(identity_here, identity_there, "CHAOS answers are per site");
        let only_twin = served(0, &benign[2]);
        let only_ours = served(1, &benign[3]);
        let hedged = served(1, &benign[4]);
        assert_eq!(hedged, served(0, &benign[4]), "zone answers are not");

        // (flag, delivered bytes) per global index, ours and the twin's.
        let ours = [
            (flag(0, Served, 0), Some(&same)),
            (flag(0, Served, 0), Some(&flipped)),
            (flag(2, ServedHedged, 0), Some(&identity_here)),
            (flag(0, Shed, 0), None),
            (flag(0, ServedHedged, 0), Some(&only_ours)),
            (flag(0, ServedHedged, 1), Some(&hedged)),
        ];
        let twins = [
            (flag(0, Served, 0), Some(&same)),
            (flag(0, Served, 0), Some(&intact)),
            (flag(2, Served, 0), Some(&identity_there)),
            (flag(0, Served, 0), Some(&only_twin)),
            (flag(0, Unanswered, 0), None),
            (flag(0, Served, 0), Some(&hedged)),
        ];
        let report_of = |rows: &[(u8, Option<&Vec<u8>>)]| FarmChaosReport {
            flags: rows.iter().map(|&(f, _)| f).collect(),
            digests: (rows.iter().enumerate())
                .map(|(g, &(_, bytes))| bytes.map_or(0, |b| digest_response(g as u64, b)))
                .collect(),
            ..shell.clone()
        };
        let (report, twin) = (report_of(&ours), report_of(&twins));
        assert_eq!(report.diff_twin(&twin), vec![1]);
        assert_eq!(twin.diff_twin(&report), vec![1]);
        assert_eq!(report.diff_twin(&report), Vec::<u64>::new());
    }

    /// [`digest_response`] written independently: words assembled with
    /// shifts a byte at a time, the multiply spelled out.
    fn reference_digest(g: u64, resp: &[u8]) -> u64 {
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325 ^ g.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h = (h ^ resp.len() as u64).wrapping_mul(PRIME);
        for at in (0..resp.len()).step_by(8) {
            let mut word = 0u64;
            for (k, &b) in resp[at..].iter().take(8).enumerate() {
                word |= u64::from(b) << (8 * k);
            }
            h = (h ^ word).wrapping_mul(PRIME);
        }
        (h ^ (h >> 32)) | 1
    }

    /// Seeded bytes, so neighbouring words are never equal by accident.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut fill = SimRng::new(seed);
        (0..len).map(|_| fill.next_u64() as u8).collect()
    }

    fn with_bit_flipped(resp: &[u8], bit: usize) -> Vec<u8> {
        let mut flipped = resp.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    }

    /// `resp` with the eight bytes at `at` and at `at + gap` exchanged.
    fn with_words_swapped(resp: &[u8], at: usize, gap: usize) -> Vec<u8> {
        let mut swapped = resp.to_vec();
        for k in at..at + 8 {
            swapped.swap(k, k + gap);
        }
        swapped
    }

    /// Three `(g, bytes) → digest` values of the word-wise digest, from a
    /// Python transcription made when it replaced the byte-wise chain
    /// (PR 20).
    #[test]
    fn digest_response_matches_its_pinned_values() {
        let header = [0x12, 0x34, 0x84, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        let ramp: Vec<u8> = (0..=255).collect();
        assert_eq!(digest_response(0, &[]), 0xaf63_bd4c_2962_0a93);
        assert_eq!(digest_response(7, &header), 0x475f_02ef_9ed0_f793);
        assert_eq!(digest_response(u64::MAX, &ramp), 0xce76_0fab_c974_94a1);
    }

    /// The lengths around every boundary of the fold — empty, inside the
    /// tail word, whole words, a word short of and past 32 and 64 bytes —
    /// against the reference, with each of the properties the proptest
    /// below draws at random.
    #[test]
    fn digest_response_holds_its_properties_at_every_boundary_length() {
        for len in [0, 1, 7, 8, 9, 31, 32, 33, 63, 64] {
            let resp = noise(len as u64, len);
            for g in [0, 1, 41, u64::MAX] {
                let d = digest_response(g, &resp);
                assert_eq!(d, reference_digest(g, &resp), "len {len} g {g}");
                assert_ne!(d, 0);
                assert_ne!(d, digest_response(g ^ 1, &resp), "len {len} g {g}");
                let mut longer = resp.clone();
                longer.push(0);
                assert_ne!(d, digest_response(g, &longer), "len {len} + a zero");
                for bit in 0..8 * len {
                    let flipped = with_bit_flipped(&resp, bit);
                    assert_ne!(d, digest_response(g, &flipped), "len {len} bit {bit}");
                }
                for gap in [8, 32] {
                    for at in (0..len.saturating_sub(gap + 7)).step_by(8) {
                        let swapped = with_words_swapped(&resp, at, gap);
                        let what = format!("len {len} words at {at} and {}", at + gap);
                        assert_ne!(d, digest_response(g, &swapped), "{what}");
                    }
                }
            }
        }
        // All-zero responses differ by their length alone.
        let zeros = [0u8; 65];
        let by_len: Vec<u64> = (0..=65).map(|n| digest_response(3, &zeros[..n])).collect();
        for (n, d) in by_len.iter().enumerate() {
            assert!(!by_len[..n].contains(d), "{n} zero bytes");
        }
    }

    proptest::proptest! {
        /// What the twin oracle relies on, over whole responses: equal to
        /// the reference and never 0; one flipped bit, a trailing zero
        /// added or removed, two adjacent words swapped, two words 32
        /// bytes apart swapped, or another `g`, and the digest moves.
        #[test]
        fn digest_response_moves_with_any_one_change(
            resp in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4_097),
            (g, other_g) in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            (bit, at) in (proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>()),
        ) {
            let d = digest_response(g, &resp);
            proptest::prop_assert_eq!(d, reference_digest(g, &resp));
            proptest::prop_assert_ne!(d, 0);
            if other_g != g {
                proptest::prop_assert_ne!(d, digest_response(other_g, &resp));
            }
            // Read the other way, `resp` is `longer` with its trailing
            // zero removed.
            let mut longer = resp.clone();
            longer.push(0);
            proptest::prop_assert_ne!(d, digest_response(g, &longer));
            if !resp.is_empty() {
                let flipped = with_bit_flipped(&resp, bit % (8 * resp.len()));
                proptest::prop_assert_ne!(d, digest_response(g, &flipped));
            }
            for gap in [8, 32] {
                let words = resp.len().saturating_sub(gap) / 8;
                if words == 0 {
                    continue;
                }
                let at = at % words * 8;
                if resp[at..at + 8] == resp[at + gap..at + gap + 8] {
                    continue;
                }
                let swapped = with_words_swapped(&resp, at, gap);
                proptest::prop_assert_ne!(d, digest_response(g, &swapped));
            }
        }
    }

    #[test]
    fn chaos_report_leads_with_the_wall_clock_rate() {
        let (topology, _, _, farm) = small_farm();
        let report = farm.run_chaos(&topology, &chaos_cfg(13, 1_000));
        let text = report.render();
        let wall = text.find("\nwall clock ").expect(&text);
        let aggregate = text.find("\naggregate ").expect(&text);
        assert!(wall < aggregate, "{text}");
        assert!(
            text.contains("q/s (sum of per-letter busy rates)\n"),
            "{text}"
        );
        let metrics = report.metrics("p");
        let value_of = |key: &str| metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
        assert_eq!(value_of("p/wall_qps"), Some(report.wall_qps));
        assert_eq!(value_of("p/aggregate_qps"), Some(report.aggregate_qps));
    }

    #[test]
    fn health_transitions_keep_slots_beyond_255() {
        // f.root at full catalog scale has more sites than a `u8` slot
        // can name; a transition at slot 300 must be reported (and
        // fingerprinted) as slot 300.
        let mut topology = Topology::generate(&TopologyConfig::default());
        let catalog = RootCatalog::build(&mut topology, &WorldConfig::default());
        let (_, _, zone) = world();
        let farm = Farm::build(&topology, &catalog, zone, &[RootLetter::F], usize::MAX);
        assert!(farm.site_count() > 300, "{} sites", farm.site_count());
        let mut cfg = chaos_cfg(31, 1_500);
        let site = farm.letters[0].site_ids[300];
        cfg.plan.add(
            RootLetter::F,
            site,
            crate::recovery::FailureKind::Crash,
            (200, 900),
        );
        let report = farm.run_chaos(&topology, &cfg);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert!(!report.transitions.is_empty());
        assert!(
            report
                .transitions
                .iter()
                .all(|&(li, slot, ..)| li == 0 && slot == 300),
            "{:?}",
            report.transitions
        );
        assert_eq!(report.recoveries.len(), 1);
        assert_eq!(report.recoveries[0].site_id, site);
    }

    #[test]
    fn chaos_poisoned_reload_is_rejected_and_generation_holds() {
        let (topology, _, _, farm) = small_farm();
        let mut cfg = chaos_cfg(29, 2_000);
        cfg.plan.add_poisoned_reload(RootLetter::B, 700);
        let report = farm.run_chaos(&topology, &cfg);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert_eq!(report.reloads_rejected, 1);
        assert_eq!(report.reloads_accepted, 0);
        assert_eq!(farm.generation(RootLetter::B), Some(0));
    }
}
