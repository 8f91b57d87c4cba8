//! Adversarial traffic generator: seeded attack workloads interleaved
//! with benign load on the shared virtual-time axis.
//!
//! Four attack shapes, after what root operators actually absorb:
//!
//! * **Water torture** — random-subdomain NXDOMAIN floods from a botnet
//!   of spoofed sources, stressing the parametric NXDOMAIN template
//!   path (a fraction of qnames graft onto record-name suffixes to hit
//!   the template's collision guard);
//! * **Reflection** — amplification-shaped queries (apex ANY/DNSKEY
//!   with DO) carrying one victim's spoofed source address;
//! * **Priming flood** — RFC 8109 priming queries at volume;
//! * **Query storm** — one legitimate client gone hot, flooding its own
//!   catchment site with benign-shaped traffic.
//!
//! # Replay determinism
//!
//! Counters — including every per-query RRL verdict — replay
//! bit-identically across worker counts. Three rules make that true:
//!
//! 1. **Pure generation**: every query's bytes derive from
//!    `SimRng::new(seed).derive_ids(&[tag, tick, k])` — a function of
//!    the virtual arrival tick and intra-tick index, never of which
//!    worker runs it or of any evolving per-client stream.
//! 2. **Window-chunk ownership**: work is partitioned into chunks of
//!    whole RRL windows (chunk `c` covers ticks `[c·W, (c+1)·W)`); the
//!    chunks are the units [`netsim::shard`] partitions, so each worker
//!    owns a contiguous run of them, processed in ascending tick order.
//!    Since RRL windows are globally aligned to the same boundaries,
//!    every (bucket, window) is touched by exactly one worker, in
//!    arrival order — so the limiter's shared counters see a canonical
//!    sequence regardless of thread count.
//! 3. **Pinned virtual time**: tick `k` arrives at virtual ms `k` (one
//!    benign query per ms from 0), so a chunk of `W` ticks is one RRL
//!    window and window membership is a pure function of the tick.
//!
//! Legitimate clients run the full stub behavior: a truncated (TC=1)
//! response — whether from the EDNS budget or an RRL slip — triggers a
//! TCP retry against the same engine, and TCP is never rate-limited.
//! Every passed UDP response is byte-compared against the unlimited
//! serve path ([`crate::Rootd::serve_udp_into`] ignores RRL), and every
//! slip and its TCP recovery is checked for shape, so "no client ever
//! receives a wrong answer under attack" is machine checked, not
//! asserted by construction.
//!
//! Benign queries follow [`QueryMix::broot`]; an [`AttackReport`] holds
//! one [`EpochTraffic`] row per epoch and is the run's only report.

use crate::engine::{Rootd, ServeVerdict};
use crate::farm::{Farm, LetterFarm};
use crate::loadgen::{fill_query, LatencyHistogram, QueryMix};
use crate::rrl::{BucketStat, RrlConfig, RrlCounters};
use netsim::rng::SimRng;
use netsim::shard::{self, Merge};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Derivation tag for attack query streams (benign ticks reuse the
/// loadgen client tag `0x10ad`).
const ATTACK_TAG: u64 = 0x00a7_7ac4;

/// Base of the spoofed-source range water-torture bots draw from (well
/// above any topology AS number, so bot buckets never collide with real
/// clients).
pub const BOT_SRC_BASE: u64 = 0xb07_0000;

/// Default botnet width for scenario-projected floods.
pub const WATER_TORTURE_BOTNET: u32 = 32;

/// One attack workload shape. `intensity` is attack queries per benign
/// tick (so ×10 means tenfold the benign arrival rate while active).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackShape {
    /// Random-subdomain NXDOMAIN flood from `botnet` spoofed sources
    /// spread deterministically across the letter's sites.
    WaterTorture { intensity: u32, botnet: u32 },
    /// Amplification-shaped apex queries spoofing `victim`'s source,
    /// aimed at the victim's own catchment site (where its real
    /// traffic also lands — the bucket collision is the attack).
    Reflection { victim: u32, intensity: u32 },
    /// Priming queries (`. NS` with DO) from a spoofed botnet.
    PrimingFlood { intensity: u32, botnet: u32 },
    /// Client `client` floods its own catchment site with benign-shaped
    /// queries from its real (unspoofed) address.
    QueryStorm { client: u32, intensity: u32 },
}

impl AttackShape {
    pub fn intensity(&self) -> u32 {
        match *self {
            AttackShape::WaterTorture { intensity, .. }
            | AttackShape::Reflection { intensity, .. }
            | AttackShape::PrimingFlood { intensity, .. }
            | AttackShape::QueryStorm { intensity, .. } => intensity,
        }
    }

    pub fn label(&self) -> String {
        match *self {
            AttackShape::WaterTorture { intensity, botnet } => {
                format!("flood×{intensity}(bots={botnet})")
            }
            AttackShape::Reflection { victim, intensity } => {
                format!("reflect×{intensity}(AS{victim})")
            }
            AttackShape::PrimingFlood { intensity, botnet } => {
                format!("priming×{intensity}(bots={botnet})")
            }
            AttackShape::QueryStorm { client, intensity } => {
                format!("storm×{intensity}(AS{client})")
            }
        }
    }
}

/// One attack active over a half-open virtual-time window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackWindow {
    pub start_ms: u64,
    pub end_ms: u64,
    pub shape: AttackShape,
}

/// A schedule of attack windows on the virtual axis, plus the seed their
/// query content derives from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttackPlan {
    pub seed: u64,
    pub windows: Vec<AttackWindow>,
}

impl AttackPlan {
    /// No attacks.
    pub fn quiet() -> AttackPlan {
        AttackPlan::default()
    }

    /// The shape active at virtual instant `t_ms` (first matching
    /// window wins).
    pub fn shape_at(&self, t_ms: u64) -> Option<AttackShape> {
        self.windows
            .iter()
            .find(|w| w.start_ms <= t_ms && t_ms < w.end_ms)
            .map(|w| w.shape)
    }

    /// Epoch boundaries the plan cuts into the run `[run_start,
    /// run_end)`: the run bounds plus every window edge inside them,
    /// sorted and deduplicated.
    pub fn boundaries(&self, run_start: u64, run_end: u64) -> Vec<u64> {
        let mut cuts = vec![run_start, run_end];
        for w in &self.windows {
            for edge in [w.start_ms, w.end_ms] {
                if run_start < edge && edge < run_end {
                    cuts.push(edge);
                }
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    }
}

/// Parameters of one adversarial run.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Virtual length of the run: one benign query per ms for this long.
    pub duration_ms: u64,
    pub threads: usize,
    /// Seed for the benign streams (attack streams mix in `plan.seed`).
    pub seed: u64,
    pub plan: AttackPlan,
    /// Rate-limiter config installed on every site engine for the run
    /// (`None` = undefended).
    pub rrl: Option<RrlConfig>,
}

impl AttackConfig {
    /// A smoke-test-sized run: `duration_ms` virtual ms on two workers,
    /// the default limiter engaged.
    pub fn tiny(seed: u64, duration_ms: u64, plan: AttackPlan) -> AttackConfig {
        AttackConfig {
            duration_ms,
            threads: 2,
            seed,
            plan,
            rrl: Some(RrlConfig::default()),
        }
    }
}

/// Traffic totals for one epoch (a maximal span with a constant active
/// attack shape).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochTraffic {
    pub label: String,
    pub start_ms: u64,
    pub end_ms: u64,
    /// Benign queries sent.
    pub legit_sent: u64,
    /// Benign queries that ended with a full correct answer (over UDP,
    /// or over TCP after any truncation).
    pub legit_served: u64,
    /// Benign queries that hit the slip cadence (got a TC=1 stub).
    pub legit_slipped: u64,
    /// Slipped benign queries recovered in full over TCP.
    pub legit_slip_recovered: u64,
    /// Benign queries that got nothing (rate-limit drop).
    pub legit_dropped: u64,
    /// Benign end-to-end latency quantiles (measured wall ns).
    pub legit_p50_ns: u64,
    pub legit_p99_ns: u64,
    /// Attack queries sent and their rate-limit fates.
    pub attack_sent: u64,
    pub attack_passed: u64,
    pub attack_slipped: u64,
    pub attack_dropped: u64,
}

impl EpochTraffic {
    /// Fraction of benign queries that ended with a full answer (slip
    /// recoveries are already inside `legit_served`). 1.0 when none were
    /// sent.
    pub fn served_fraction(&self) -> f64 {
        if self.legit_sent == 0 {
            1.0
        } else {
            self.legit_served as f64 / self.legit_sent as f64
        }
    }

    /// Fraction of attack queries the limiter refused a full answer
    /// (slipped or dropped). 0.0 when the epoch saw no attack.
    pub fn attack_suppressed_fraction(&self) -> f64 {
        if self.attack_sent == 0 {
            0.0
        } else {
            (self.attack_slipped + self.attack_dropped) as f64 / self.attack_sent as f64
        }
    }
}

/// What one adversarial run produced.
#[derive(Debug, Clone)]
pub struct AttackReport {
    pub duration_ms: u64,
    pub threads: usize,
    pub epochs: Vec<EpochTraffic>,
    /// Limiter totals merged across every site engine.
    pub rrl: RrlCounters,
    /// Per-(source-prefix, class) totals merged across engines, hottest
    /// first.
    pub buckets: Vec<BucketStat>,
    /// Verification failures (byte mismatches vs the unlimited path,
    /// malformed slips, failed TCP recoveries). Zero or the run is
    /// wrong.
    pub verify_mismatches: u64,
    pub elapsed: Duration,
}

impl AttackReport {
    /// The first attack-free epoch — the no-attack baseline the paper's
    /// "legit p99 ≤ 2× baseline" criterion compares against.
    pub fn baseline(&self) -> Option<&EpochTraffic> {
        self.epochs.iter().find(|e| e.attack_sent == 0)
    }

    /// Worst benign p99 across attack epochs, as a ratio over the
    /// baseline epoch's p99. `None` without both a baseline (with a
    /// nonzero p99) and at least one attack epoch.
    pub fn worst_flood_p99_ratio(&self) -> Option<f64> {
        let base = self.baseline()?.legit_p99_ns;
        if base == 0 {
            return None;
        }
        self.epochs
            .iter()
            .filter(|e| e.attack_sent > 0)
            .map(|e| e.legit_p99_ns as f64 / base as f64)
            .max_by(f64::total_cmp)
    }

    /// Lowest benign served fraction across attack epochs (1.0 if the
    /// run had no attack epochs).
    pub fn worst_flood_served_fraction(&self) -> f64 {
        self.epochs
            .iter()
            .filter(|e| e.attack_sent > 0)
            .map(|e| e.served_fraction())
            .min_by(f64::total_cmp)
            .unwrap_or(1.0)
    }

    /// Everything deterministic, one line per epoch plus the limiter
    /// totals — two runs with equal fingerprints replayed identically,
    /// verdict-for-verdict.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for e in &self.epochs {
            let _ = write!(
                out,
                "{}[{},{}) legit={}/{} slip={}/{} drop={} attack={}/{}/{};",
                e.label,
                e.start_ms,
                e.end_ms,
                e.legit_served,
                e.legit_sent,
                e.legit_slip_recovered,
                e.legit_slipped,
                e.legit_dropped,
                e.attack_passed,
                e.attack_slipped,
                e.attack_dropped,
            );
        }
        let bucket_sum: u64 = self
            .buckets
            .iter()
            .map(|b| {
                b.arrivals
                    ^ b.passed.rotate_left(16)
                    ^ b.slipped.rotate_left(32)
                    ^ b.dropped.rotate_left(48)
            })
            .fold(0, u64::wrapping_add);
        let _ = write!(
            out,
            " rrl[{}] buckets={}#{:016x} mismatches={}",
            self.rrl.render(),
            self.buckets.len(),
            bucket_sum,
            self.verify_mismatches,
        );
        out
    }

    /// Human-readable per-epoch table plus limiter and bucket summary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>10} {:>8} {:>7} {:>7} {:>10} {:>10} {:>8} {:>12}",
            "epoch",
            "window(ms)",
            "legit",
            "served%",
            "slip",
            "drop",
            "p50(ns)",
            "p99(ns)",
            "suppr.%",
            "attack p/s/d"
        );
        for e in &self.epochs {
            let _ = writeln!(
                out,
                "{:<24} {:>5}..{:<6} {:>10} {:>7.2}% {:>7} {:>7} {:>10} {:>10} {:>7.2}% {:>4}/{}/{}",
                e.label,
                e.start_ms,
                e.end_ms,
                e.legit_sent,
                e.served_fraction() * 100.0,
                e.legit_slipped,
                e.legit_dropped,
                e.legit_p50_ns,
                e.legit_p99_ns,
                e.attack_suppressed_fraction() * 100.0,
                e.attack_passed,
                e.attack_slipped,
                e.attack_dropped,
            );
        }
        let _ = writeln!(out, "rrl: {}", self.rrl.render());
        for b in self.buckets.iter().take(8) {
            let _ = writeln!(
                out,
                "  bucket src={:#x} class={:<8} arrivals={} passed={} slipped={} dropped={}",
                b.prefix,
                b.class.label(),
                b.arrivals,
                b.passed,
                b.slipped,
                b.dropped,
            );
        }
        if self.buckets.len() > 8 {
            let _ = writeln!(out, "  … {} more buckets", self.buckets.len() - 8);
        }
        out
    }
}

/// What one worker brings back: per-epoch counters (tallied straight
/// into labelled [`EpochTraffic`] rows), per-epoch benign latency, and
/// its count of verification failures.
struct WorkerOutcome {
    epochs: Vec<EpochTraffic>,
    latency: Vec<LatencyHistogram>,
    mismatches: u64,
}

impl Merge for WorkerOutcome {
    fn merge(&mut self, other: WorkerOutcome) {
        for (mine, theirs) in self.epochs.iter_mut().zip(other.epochs) {
            mine.legit_sent += theirs.legit_sent;
            mine.legit_served += theirs.legit_served;
            mine.legit_slipped += theirs.legit_slipped;
            mine.legit_slip_recovered += theirs.legit_slip_recovered;
            mine.legit_dropped += theirs.legit_dropped;
            mine.attack_sent += theirs.attack_sent;
            mine.attack_passed += theirs.attack_passed;
            mine.attack_slipped += theirs.attack_slipped;
            mine.attack_dropped += theirs.attack_dropped;
        }
        for (mine, theirs) in self.latency.iter_mut().zip(other.latency) {
            mine.merge(theirs);
        }
        self.mismatches += other.mismatches;
    }
}

/// Scratch buffers and verification state one worker carries.
struct Worker<'a> {
    farm: &'a Farm,
    lf: &'a LetterFarm,
    cfg: &'a AttackConfig,
    mix: &'a QueryMix,
    /// `client AS -> engine slot` of the IPv4 catchment.
    slot_of_asn: &'a HashMap<u32, usize>,
    wire: Vec<u8>,
    resp: Vec<u8>,
    oracle: Vec<u8>,
    out: WorkerOutcome,
}

impl<'a> Worker<'a> {
    /// The engine `asn`'s traffic lands on (slot 0 when it has no route).
    fn engine_for(&self, asn: u32) -> &'a Rootd {
        &self.lf.engines[self.slot_of_asn.get(&asn).copied().unwrap_or(0)]
    }

    /// The engine bot number `bot` floods: bots spread over the sites in
    /// ascending site-id order, which is the farm's slot order.
    fn engine_of_bot(&self, bot: u64) -> &'a Rootd {
        &self.lf.engines[bot as usize % self.lf.engines.len()]
    }

    /// Serve one benign tick: the round-robin client sends one mixed
    /// query pinned to virtual ms `tick`, with full TC→TCP stub behavior.
    fn benign_tick(&mut self, tick: u64, epoch: usize) {
        let client = self.farm.clients[(tick as usize) % self.farm.clients.len()];
        let engine = self.engine_for(client.0);
        let mut rng = SimRng::new(self.cfg.seed).derive_ids(&[0x10ad, tick]);
        fill_query(self.mix, &self.farm.templates, &mut rng, &mut self.wire);
        let agg = &mut self.out.epochs[epoch];
        agg.legit_sent += 1;
        let t0 = Instant::now();
        let verdict = engine.serve_udp_from(client.0 as u64, tick, &self.wire, &mut self.resp);
        match verdict {
            ServeVerdict::Answered(outcome) => {
                let twin = engine.serve_udp_into(&self.wire, &mut self.oracle);
                if twin != outcome || self.oracle != self.resp {
                    self.out.mismatches += 1;
                }
                let truncated = self.resp.len() >= 12 && self.resp[2] & 0x02 != 0;
                if truncated {
                    // Ordinary EDNS-budget truncation: retry over TCP
                    // like any real stub.
                    let frames = engine.serve_tcp(&self.wire);
                    if frames.is_empty() {
                        self.out.epochs[epoch].legit_dropped += 1;
                    } else {
                        self.out.epochs[epoch].legit_served += 1;
                    }
                } else {
                    self.out.epochs[epoch].legit_served += 1;
                }
            }
            ServeVerdict::Slipped => {
                if !slip_is_wellformed(&self.wire, &self.resp) {
                    self.out.mismatches += 1;
                }
                agg.legit_slipped += 1;
                // The slip's whole purpose: the TC bit drives the client
                // to TCP, which RRL never touches.
                let frames = engine.serve_tcp(&self.wire);
                let agg = &mut self.out.epochs[epoch];
                match frames.first() {
                    Some(full)
                        if full.len() >= 12
                            && full[0..2] == self.wire[0..2]
                            && full[2] & 0x02 == 0 =>
                    {
                        agg.legit_slip_recovered += 1;
                        agg.legit_served += 1;
                    }
                    _ => {
                        agg.legit_dropped += 1;
                        self.out.mismatches += 1;
                    }
                }
            }
            ServeVerdict::Limited | ServeVerdict::Dropped => {
                agg.legit_dropped += 1;
            }
        }
        self.out.latency[epoch].record(t0.elapsed().as_nanos() as u64);
    }

    /// Fire one attack query (`k`-th of its tick) for `shape`.
    fn attack_query(&mut self, shape: AttackShape, tick: u64, k: u64, epoch: usize) {
        let mut rng =
            SimRng::new(self.cfg.seed ^ self.cfg.plan.seed).derive_ids(&[ATTACK_TAG, tick, k]);
        let (src, engine) = match shape {
            AttackShape::WaterTorture { botnet, .. } => {
                let bot = rng.next_range(botnet.max(1) as usize) as u64;
                fill_water_torture(&mut rng, &mut self.wire);
                (BOT_SRC_BASE + bot, self.engine_of_bot(bot))
            }
            AttackShape::Reflection { victim, .. } => {
                fill_reflection(&mut rng, &mut self.wire);
                (victim as u64, self.engine_for(victim))
            }
            AttackShape::PrimingFlood { botnet, .. } => {
                let bot = rng.next_range(botnet.max(1) as usize) as u64;
                fill_priming(&mut rng, &mut self.wire);
                (BOT_SRC_BASE + bot, self.engine_of_bot(bot))
            }
            AttackShape::QueryStorm { client, .. } => {
                fill_query(self.mix, &self.farm.templates, &mut rng, &mut self.wire);
                (client as u64, self.engine_for(client))
            }
        };
        let verdict = engine.serve_udp_from(src, tick, &self.wire, &mut self.resp);
        let agg = &mut self.out.epochs[epoch];
        agg.attack_sent += 1;
        match verdict {
            ServeVerdict::Answered(_) => agg.attack_passed += 1,
            ServeVerdict::Slipped => agg.attack_slipped += 1,
            ServeVerdict::Limited | ServeVerdict::Dropped => agg.attack_dropped += 1,
        }
    }
}

/// A slipped response must be a record-free truncated echo of our query
/// — anything else would hand a validating client unverifiable data.
fn slip_is_wellformed(query: &[u8], slip: &[u8]) -> bool {
    slip.len() >= 12
        && slip[0..2] == query[0..2]
        && slip[2] & 0x80 != 0
        && slip[2] & 0x02 != 0
        && slip[4..6] == [0, 1]
        && slip[6..12] == [0, 0, 0, 0, 0, 0]
}

/// Water-torture qname: `wt` + 12 random hex digits in one label; a
/// quarter of them graft the label under a real record-name suffix
/// (`root-servers.net`), forcing the parametric NXDOMAIN template's
/// collision guard onto the slow path.
fn fill_water_torture(rng: &mut SimRng, out: &mut Vec<u8>) {
    let id = (rng.next_u64() & 0xffff) as u16;
    out.clear();
    out.extend_from_slice(&[(id >> 8) as u8, id as u8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]);
    let bits = rng.next_u64() & 0xffff_ffff_ffff;
    out.push(14);
    out.extend_from_slice(b"wt");
    for shift in (0..12u32).rev() {
        out.push(b"0123456789abcdef"[((bits >> (shift * 4)) & 0xf) as usize]);
    }
    if rng.chance(0.25) {
        out.push(12);
        out.extend_from_slice(b"root-servers");
        out.push(3);
        out.extend_from_slice(b"net");
    }
    out.push(0);
    out.extend_from_slice(&dns_wire::RrType::A.to_u16().to_be_bytes());
    out.extend_from_slice(&[0, 1]);
    if rng.chance(0.5) {
        push_do_opt(out);
    }
}

/// Reflection bait: apex ANY or DNSKEY with DO at 4096 — the largest
/// signed responses the zone can emit per question byte.
fn fill_reflection(rng: &mut SimRng, out: &mut Vec<u8>) {
    let id = (rng.next_u64() & 0xffff) as u16;
    let qtype = if rng.chance(0.5) {
        dns_wire::RrType::Any
    } else {
        dns_wire::RrType::Dnskey
    };
    out.clear();
    out.extend_from_slice(&[(id >> 8) as u8, id as u8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]);
    out.push(0); // apex
    out.extend_from_slice(&qtype.to_u16().to_be_bytes());
    out.extend_from_slice(&[0, 1]);
    push_do_opt(out);
}

/// A priming query: `. NS` with DO.
fn fill_priming(rng: &mut SimRng, out: &mut Vec<u8>) {
    let id = (rng.next_u64() & 0xffff) as u16;
    out.clear();
    out.extend_from_slice(&[(id >> 8) as u8, id as u8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]);
    out.push(0);
    out.extend_from_slice(&dns_wire::RrType::Ns.to_u16().to_be_bytes());
    out.extend_from_slice(&[0, 1]);
    push_do_opt(out);
}

/// The canonical DO OPT the loadgen templates append (payload 4096).
fn push_do_opt(out: &mut Vec<u8>) {
    out[11] = 1;
    out.extend_from_slice(&[0, 0, 41, 0x10, 0x00, 0, 0, 0x80, 0, 0, 0]);
}

/// Run the adversarial generator against the first letter of `farm` (the
/// facades build one-letter farms). Installs `cfg.rrl` on the letter's
/// serving state for the duration and removes it afterwards, so the farm
/// comes back in its pre-run (unlimited) configuration.
pub fn run(farm: &Farm, cfg: &AttackConfig) -> AttackReport {
    let lf = &farm.letters[0];
    let mix = QueryMix::broot();
    // Tick `k` arrives at ms `k`, so a chunk of one window's ticks is one
    // RRL window.
    let ticks_per_chunk = cfg.rrl.as_ref().map_or(1_000, |r| r.window_ms.max(1)) as usize;
    let nticks = cfg.duration_ms as usize;
    let nchunks = nticks.div_ceil(ticks_per_chunk);
    let bounds = cfg.plan.boundaries(0, cfg.duration_ms);
    let nepochs = bounds.len().saturating_sub(1).max(1);
    let slot_of_asn: HashMap<u32, usize> = (farm.clients.iter().enumerate())
        .map(|(pos, asn)| (asn.0, lf.slot(0, pos)))
        .collect();

    // One labelled, zeroed row per epoch: every worker tallies into a
    // copy of these.
    let blank: Vec<EpochTraffic> = (bounds.windows(2))
        .map(|span| EpochTraffic {
            label: (cfg.plan.shape_at(span[0])).map_or_else(|| "baseline".into(), |s| s.label()),
            start_ms: span[0],
            end_ms: span[1],
            ..EpochTraffic::default()
        })
        .collect();

    // The letter's site engines share one serving state, so one call
    // installs one limiter for the whole letter. Every source reaches
    // exactly one site, so at the default `prefix_shift` of 0 its buckets
    // are the ones per-site limiters would keep.
    lf.engines[0].set_rrl(cfg.rrl.clone());
    let rrl = lf.engines[0].rrl();

    let started = Instant::now();
    let merged = shard::fold(shard::run(nchunks, cfg.threads, |chunks| {
        let mut w = Worker {
            farm,
            lf,
            cfg,
            mix: &mix,
            slot_of_asn: &slot_of_asn,
            wire: Vec::with_capacity(64),
            resp: Vec::with_capacity(4096),
            oracle: Vec::with_capacity(4096),
            out: WorkerOutcome {
                epochs: blank.clone(),
                latency: blank.iter().map(|_| LatencyHistogram::default()).collect(),
                mismatches: 0,
            },
        };
        let ticks = chunks.start * ticks_per_chunk..(chunks.end * ticks_per_chunk).min(nticks);
        for tick in ticks.map(|t| t as u64) {
            let epoch = bounds[1..]
                .iter()
                .position(|&b| tick < b)
                .unwrap_or(nepochs - 1);
            w.benign_tick(tick, epoch);
            if let Some(shape) = cfg.plan.shape_at(tick) {
                for k in 0..shape.intensity() as u64 {
                    w.attack_query(shape, tick, k, epoch);
                }
            }
        }
        w.out
    }));
    let elapsed = started.elapsed();

    let mut epochs = merged.epochs;
    for (epoch, latency) in epochs.iter_mut().zip(&merged.latency) {
        epoch.legit_p50_ns = latency.quantile(0.50);
        epoch.legit_p99_ns = latency.quantile(0.99);
    }
    lf.engines[0].set_rrl(None);

    AttackReport {
        duration_ms: cfg.duration_ms,
        threads: cfg.threads.max(1),
        epochs,
        rrl: rrl.as_ref().map(|r| r.counters()).unwrap_or_default(),
        buckets: rrl.map(|r| r.bucket_stats()).unwrap_or_default(),
        verify_mismatches: merged.mismatches,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrl::ResponseClass;
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;
    use netsim::topology::{Topology, TopologyConfig};
    use rss::catalog::{RootCatalog, WorldConfig};
    use rss::RootLetter;
    use std::sync::Arc;

    fn fleet() -> Farm {
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
        Farm::build(
            &topology,
            &catalog,
            Arc::new(zone),
            &[RootLetter::B],
            usize::MAX,
        )
    }

    fn flood_plan() -> AttackPlan {
        AttackPlan {
            seed: 0xf100d,
            windows: vec![AttackWindow {
                start_ms: 1_000,
                end_ms: 3_000,
                shape: AttackShape::WaterTorture {
                    intensity: 10,
                    botnet: WATER_TORTURE_BOTNET,
                },
            }],
        }
    }

    #[test]
    fn plan_slices_the_run_into_epochs() {
        let plan = flood_plan();
        assert_eq!(plan.boundaries(0, 4_000), vec![0, 1_000, 3_000, 4_000]);
        assert_eq!(plan.shape_at(999), None);
        assert!(plan.shape_at(1_000).is_some());
        assert!(plan.shape_at(2_999).is_some());
        assert_eq!(plan.shape_at(3_000), None);
        // Windows outside the run are clipped away.
        assert_eq!(plan.boundaries(3_500, 4_000), vec![3_500, 4_000]);
        assert_eq!(AttackPlan::quiet().boundaries(0, 100), vec![0, 100]);
    }

    fn epoch(label: &str, attack_sent: u64, p99: u64) -> EpochTraffic {
        EpochTraffic {
            label: label.into(),
            start_ms: 0,
            end_ms: 1000,
            legit_sent: 100,
            legit_served: 99,
            legit_slipped: 2,
            legit_slip_recovered: 2,
            legit_dropped: 1,
            legit_p50_ns: 500,
            legit_p99_ns: p99,
            attack_sent,
            attack_passed: attack_sent / 10,
            attack_slipped: attack_sent / 2,
            attack_dropped: attack_sent - attack_sent / 10 - attack_sent / 2,
        }
    }

    fn report_of(epochs: Vec<EpochTraffic>) -> AttackReport {
        AttackReport {
            duration_ms: 4_000,
            threads: 1,
            epochs,
            rrl: RrlCounters::default(),
            buckets: Vec::new(),
            verify_mismatches: 0,
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn epoch_fractions_count_slip_recoveries_as_served() {
        let e = epoch("flood", 1000, 900);
        assert!((e.served_fraction() - 0.99).abs() < 1e-12);
        assert!((e.attack_suppressed_fraction() - 0.9).abs() < 1e-12);
        // An empty epoch is vacuously healthy on both axes.
        let empty = EpochTraffic::default();
        assert_eq!(empty.served_fraction(), 1.0);
        assert_eq!(empty.attack_suppressed_fraction(), 0.0);
    }

    #[test]
    fn attack_epochs_are_judged_against_the_first_quiet_epoch() {
        let report = report_of(vec![
            epoch("flood", 1000, 900),
            epoch("quiet", 0, 600),
            epoch("quiet", 0, 650),
            epoch("storm", 500, 1500),
        ]);
        assert_eq!(report.baseline(), Some(&report.epochs[1]));
        assert!((report.worst_flood_p99_ratio().unwrap() - 2.5).abs() < 1e-12);
        assert!((report.worst_flood_served_fraction() - 0.99).abs() < 1e-12);
        // No ratio without a baseline, or against a zero baseline p99.
        let unbroken = report_of(vec![epoch("flood", 1000, 900)]);
        assert_eq!(unbroken.baseline(), None);
        assert_eq!(unbroken.worst_flood_p99_ratio(), None);
        let instant = report_of(vec![epoch("quiet", 0, 0), epoch("flood", 1000, 900)]);
        assert_eq!(instant.worst_flood_p99_ratio(), None);
        // A quiet run has no ratio but a perfect floor.
        let quiet = report_of(vec![epoch("quiet", 0, 600)]);
        assert_eq!(quiet.worst_flood_p99_ratio(), None);
        assert_eq!(quiet.worst_flood_served_fraction(), 1.0);
    }

    #[test]
    fn render_prints_one_row_per_epoch() {
        let labels = ["quiet", "flood", "quiet", "storm"];
        let report = report_of(
            (labels.iter().enumerate())
                .map(|(i, label)| epoch(label, i as u64 % 2 * 1000, 600))
                .collect(),
        );
        let rendered = report.render();
        let lines: Vec<&str> = rendered.lines().collect();
        // A header, one row per epoch, then the limiter's totals.
        assert_eq!(lines.len(), 1 + labels.len() + 1, "{rendered}");
        assert!(lines[0].starts_with("epoch"));
        for (row, label) in lines[1..=labels.len()].iter().zip(labels) {
            assert!(row.starts_with(label), "{row}");
        }
        assert!(lines[2].contains("90.00%"), "{}", lines[2]);
        assert!(lines[labels.len() + 1].starts_with("rrl: "));
    }

    #[test]
    fn rrl_holds_legit_service_through_a_water_torture_flood() {
        let fleet = fleet();
        let report = run(&fleet, &AttackConfig::tiny(7, 4_000, flood_plan()));
        assert_eq!(report.verify_mismatches, 0);
        assert_eq!(report.epochs.len(), 3);
        let flood = &report.epochs[1];
        assert!(flood.attack_sent >= 10 * flood.legit_sent);
        // The limiter engages hard against the flood (with slip=2 the
        // limited majority splits between slips and drops)...
        assert!(flood.attack_dropped + flood.attack_slipped > flood.attack_sent / 2);
        assert!(flood.attack_dropped > flood.attack_sent / 4);
        assert!(report.rrl.dropped > 0 && report.rrl.slipped > 0);
        // ...while legit clients keep ≥99% full service.
        for e in &report.epochs {
            assert!(
                e.served_fraction() >= 0.99,
                "epoch {} served {:.4}",
                e.label,
                e.served_fraction()
            );
        }
        // Every slipped legit query recovered over TCP.
        for e in &report.epochs {
            assert_eq!(e.legit_slipped, e.legit_slip_recovered);
        }
        // Bot buckets show up hottest.
        assert!(report.buckets[0].prefix >= BOT_SRC_BASE);
        assert_eq!(report.buckets[0].class, ResponseClass::NxDomain);
        // The fleet is back to unlimited serving afterwards.
        assert!(fleet.letters[0].engines.iter().all(|e| e.rrl().is_none()));
    }

    #[test]
    fn fingerprints_are_identical_across_worker_counts() {
        let fleet = fleet();
        let mut plan = flood_plan();
        // Exercise every shape in one run.
        let victim = fleet.clients[0].0;
        plan.windows.push(AttackWindow {
            start_ms: 3_000,
            end_ms: 3_500,
            shape: AttackShape::Reflection {
                victim,
                intensity: 10,
            },
        });
        plan.windows.push(AttackWindow {
            start_ms: 3_500,
            end_ms: 4_000,
            shape: AttackShape::QueryStorm {
                client: victim,
                intensity: 20,
            },
        });
        let cfg = AttackConfig::tiny(7, 4_000, plan);
        let base = run(&fleet, &cfg);
        assert_eq!(base.verify_mismatches, 0);
        for threads in [1usize, 3, 5] {
            let other = run(
                &fleet,
                &AttackConfig {
                    threads,
                    ..cfg.clone()
                },
            );
            assert_eq!(
                base.fingerprint(),
                other.fingerprint(),
                "replay diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn undefended_run_answers_everything() {
        let fleet = fleet();
        let cfg = AttackConfig {
            rrl: None,
            ..AttackConfig::tiny(9, 2_000, flood_plan())
        };
        let report = run(&fleet, &cfg);
        assert_eq!(report.verify_mismatches, 0);
        assert_eq!(report.rrl, RrlCounters::default());
        assert!(report.buckets.is_empty());
        for e in &report.epochs {
            // No limiter: nothing slipped or dropped, everything served
            // (budget-TC retries recover over TCP).
            assert_eq!(e.legit_slipped, 0);
            assert_eq!(e.legit_dropped, 0);
            assert_eq!(e.legit_served, e.legit_sent);
            assert_eq!(e.attack_dropped, 0);
        }
    }

    #[test]
    fn reflection_spoofing_collides_with_the_victims_bucket() {
        let fleet = fleet();
        let victim = fleet.clients[0].0;
        let plan = AttackPlan {
            seed: 0x5afe,
            windows: vec![AttackWindow {
                start_ms: 1_000,
                end_ms: 2_000,
                shape: AttackShape::Reflection {
                    victim,
                    intensity: 20,
                },
            }],
        };
        let report = run(&fleet, &AttackConfig::tiny(11, 3_000, plan));
        assert_eq!(report.verify_mismatches, 0);
        let reflect = &report.epochs[1];
        // The amplification bait is hard-limited...
        assert!(reflect.attack_dropped > reflect.attack_passed);
        // ...and the victim's own answer-class bucket is the hot one.
        let hot = report
            .buckets
            .iter()
            .find(|b| b.prefix == victim as u64 && b.class == ResponseClass::Answer)
            .expect("victim bucket exists");
        assert!(hot.dropped > 0);
        // Overall legit service still holds (slips recover over TCP).
        for e in &report.epochs {
            assert!(e.served_fraction() >= 0.99, "{}", e.served_fraction());
        }
    }
}
