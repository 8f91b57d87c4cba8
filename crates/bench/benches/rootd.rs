//! Serving-layer benchmarks: per-query engine cost for every answer shape
//! (apex data, referral, NXDOMAIN, the oversized priming response, CHAOS
//! identity), the AXFR stream, and a full load-generator run that pushes
//! one million B-Root-shaped queries through the parse → serve → encode
//! path and publishes throughput plus latency quantiles into
//! `BENCH_results.json` via [`criterion::record_metric`].

use criterion::{criterion_group, criterion_main, record_counter, record_metric, Criterion};
use dns_wire::edns::{set_edns, Edns};
use dns_wire::{Message, Name, Question, RrType};
use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, tld_label, RootZoneConfig};
use dns_zone::signer::ZoneKeys;
use netsim::rng::SimRng;
use rootd::farm::digest_response;
use rootd::{
    Farm, FarmConfig, FaultPlan, FaultyTransport, InprocTransport, LoadgenConfig, QueryClass,
    QueryMix, Rootd, SharedState, SiteIdentity, Transport, UdpBatch, ZoneIndex,
};
use roots_core::{AttackRun, FarmChaosRun, FarmRun, Scale, ServingPipeline};
use rss::RootLetter;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vantage::{World, WorldBuildConfig};

fn engine() -> Rootd {
    let zone = build_root_zone(
        &RootZoneConfig {
            tld_count: 50,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        },
        &ZoneKeys::from_seed(7),
    );
    Rootd::new(
        Arc::new(ZoneIndex::build(Arc::new(zone))),
        SiteIdentity::named("lax1b"),
    )
    .with_answer_cache()
}

fn query(name: &str, rr_type: RrType, dnssec: bool) -> Vec<u8> {
    let mut q = Message::query(1, Question::new(Name::parse(name).unwrap(), rr_type));
    if dnssec {
        set_edns(&mut q, &Edns::dnssec());
    }
    q.to_wire()
}

fn bench_engine(c: &mut Criterion) {
    let engine = engine();
    let mut group = c.benchmark_group("rootd");
    // Cached serves run in ~100 ns; the default 100-iteration cap would
    // measure single-digit microseconds of wall clock, which is timer
    // noise. Let the calibration loop run long enough to be stable.
    group.sample_size(200_000);
    for (label, wire) in [
        ("serve_soa", query(".", RrType::Soa, false)),
        ("serve_soa_do", query(".", RrType::Soa, true)),
        (
            "serve_referral_do",
            query(&format!("{}.", tld_label(7)), RrType::A, true),
        ),
        ("serve_nxdomain_do", query("nosuchtld.", RrType::A, true)),
        ("serve_priming_tc", query(".", RrType::Ns, true)),
    ] {
        group.bench_function(label, |b| {
            let mut out = Vec::with_capacity(4096);
            b.iter(|| black_box(engine.serve_udp_into(black_box(&wire), &mut out)))
        });
    }
    let chaos = Message::query(1, Question::chaos_txt(Name::parse("id.server.").unwrap()));
    let chaos_wire = chaos.to_wire();
    group.bench_function("serve_chaos", |b| {
        let mut out = Vec::with_capacity(4096);
        b.iter(|| black_box(engine.serve_udp_into(black_box(&chaos_wire), &mut out)))
    });
    let axfr = Message::query(1, Question::new(Name::root(), RrType::Axfr)).to_wire();
    group.sample_size(20);
    group.bench_function("serve_axfr_stream", |b| {
        b.iter(|| black_box(engine.serve_tcp(black_box(&axfr)).len()))
    });
    group.finish();
}

/// The uncached path on a root-sized zone (1 500 TLDs, working set far
/// beyond the CPU caches): parse → `ZoneIndex` → borrowed plan → one-pass
/// encode, per query, on an engine with no answer cache at all. Each
/// bench walks its own 1 500 names, so a figure is what a query costs
/// when its records are not already in cache — 2.4 µs and 55 allocations
/// while the path cloned every record into an owned `Message` (DESIGN
/// §15, "Slow path budget"). `codec/encode_referral` is the encoder's
/// share alone: one signed referral, as an owned `Message`, into a reused
/// buffer. `bench_guard` holds all four under absolute ceilings.
fn bench_fallback_1500(c: &mut Criterion) {
    let cfg = RootZoneConfig {
        tld_count: 1_500,
        rollout: RolloutPhase::Validating,
        ..Default::default()
    };
    let zone = build_root_zone(&cfg, &ZoneKeys::from_seed(7));
    let engine = Rootd::new(
        Arc::new(ZoneIndex::build(Arc::new(zone))),
        SiteIdentity::named("lax1b"),
    );
    let edns = |q: &mut Message, udp_payload_size| {
        let edns = Edns {
            udp_payload_size,
            ..Edns::dnssec()
        };
        set_edns(q, &edns);
    };
    let ask = |name: String, rr_type, payload| {
        let mut q = Message::query(1, Question::new(Name::parse(&name).unwrap(), rr_type));
        edns(&mut q, payload);
        q.to_wire()
    };
    let https = RrType::Other(65);
    let tlds = engine.index().tld_labels();
    let referrals: Vec<Vec<u8>> = (tlds.iter())
        .map(|tld| ask(format!("{tld}."), https, 1232))
        .collect();
    let junk: Vec<Vec<u8>> = (0..tlds.len())
        .map(|i| ask(format!("nx{i:06x}-junk."), https, 1232))
        .collect();
    // A 230-byte name below each cut: every signed referral overflows 512.
    let long = format!("{0}.{0}.{0}.{1}", "x".repeat(63), "y".repeat(36));
    let cut: Vec<Vec<u8>> = (tlds.iter())
        .map(|tld| ask(format!("{long}.{tld}."), https, 512))
        .collect();

    let tc = |wire: &Vec<u8>| engine.serve_udp(wire).expect("answered")[2] & 0x02 != 0;
    assert!(cut.iter().all(tc) && !referrals.iter().any(tc));

    let mut group = c.benchmark_group("rootd");
    group.sample_size(200_000);
    for (label, queries) in [
        ("serve_fallback_referral_do", &referrals),
        ("serve_fallback_nxdomain_do", &junk),
        ("serve_fallback_tc512", &cut),
    ] {
        group.bench_function(label, |b| {
            let mut out = Vec::with_capacity(4096);
            let mut next = 0;
            b.iter(|| {
                next = (next + 1) % queries.len();
                black_box(engine.serve_udp_into(black_box(&queries[next]), &mut out))
            })
        });
    }
    group.finish();

    let referral = engine.serve_udp(&referrals[7]).expect("answered");
    let referral = Message::from_wire(&referral).expect("reparses");
    assert_eq!(referral.authorities.len() + referral.additionals.len(), 9);
    let mut group = c.benchmark_group("codec");
    group.sample_size(200_000);
    group.bench_function("encode_referral", |b| {
        let mut out = Vec::with_capacity(4096);
        b.iter(|| {
            black_box(&referral).encode_into(&mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

/// The zero-fault `FaultyTransport` must be free: its clean fast path
/// (one precomputed bool test, no plan lookup or spec clone — see
/// `FaultyTransport::new`) may add at most 5% over the bare
/// `InprocTransport` on the hot serve path. PR 5 claimed this bound but
/// its assertion (`bare * 1.05 + 25 ns`) allowed ~34% at the ~90 ns serve
/// scale and the shipped number was 11.9% — the per-exchange
/// `plan.spec().clone()` the fast path was supposed to skip. Now the two
/// sides are measured as medians over interleaved ABBA rounds (so drift
/// and periodic slow phases hit both equally), the assert's noise floor
/// is 10 ns — the honest single-process resolution here: per-exchange
/// response allocation makes run-to-run offsets of ±5 ns routine — and
/// `bench_guard` gates the recorded overhead percentage with an absolute
/// 10% ceiling so the regression class cannot ship again.
fn bench_faultfree_wrapper(_c: &mut Criterion) {
    let engine = Arc::new(engine());
    let wire = query(".", RrType::Soa, true);
    let mut bare = InprocTransport::new(Arc::clone(&engine));
    let mut wrapped = FaultyTransport::new(
        InprocTransport::new(Arc::clone(&engine)),
        Arc::new(FaultPlan::clean(0)),
        0,
    );
    fn round(f: &mut dyn FnMut()) -> f64 {
        const ITERS: u32 = 50_000;
        let t = Instant::now();
        for _ in 0..ITERS {
            f();
        }
        t.elapsed().as_nanos() as f64 / ITERS as f64
    }
    let mut bare_f = || {
        black_box(bare.exchange_udp(black_box(&wire)).unwrap());
    };
    let mut wrapped_f = || {
        black_box(wrapped.exchange_udp(black_box(&wire)).unwrap());
    };
    // Warm both paths, then measure in ABBA quads and take each side's
    // median: ABBA cancels linear drift inside a quad (a plain AB
    // alternation can alias with periodic slow phases and charge them
    // all to one side), and the median over 32 rounds per side shrugs
    // off the slow quads entirely instead of hoping the min dodged them.
    for _ in 0..10_000 {
        bare_f();
        wrapped_f();
    }
    let (mut bare_rounds, mut wrapped_rounds) = (Vec::new(), Vec::new());
    for _ in 0..16 {
        bare_rounds.push(round(&mut bare_f));
        wrapped_rounds.push(round(&mut wrapped_f));
        wrapped_rounds.push(round(&mut wrapped_f));
        bare_rounds.push(round(&mut bare_f));
    }
    fn median(v: &mut [f64]) -> f64 {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    }
    let bare_ns = median(&mut bare_rounds);
    let wrapped_ns = median(&mut wrapped_rounds);
    let c = wrapped.counters();
    assert_eq!(c.clean, c.exchanges, "a clean plan must take the fast path");
    record_metric("rootd/serve_faultfree_bare", bare_ns);
    record_metric("rootd/serve_faultfree_wrapped", wrapped_ns);
    let overhead_pct = (wrapped_ns - bare_ns) / bare_ns * 100.0;
    record_metric(
        "rootd/faultfree_wrapper_overhead_pct",
        overhead_pct.max(0.0),
    );
    println!(
        "rootd/serve_faultfree: bare {bare_ns:.1} ns, wrapped {wrapped_ns:.1} ns \
         ({overhead_pct:+.2}%)"
    );
    assert!(
        wrapped_ns <= bare_ns * 1.05 + 10.0,
        "zero-fault wrapper overhead {overhead_pct:.2}% exceeds the 5% budget \
         plus the 10 ns measurement floor (bare {bare_ns:.1} ns, wrapped \
         {wrapped_ns:.1} ns)"
    );
}

/// Disabled RRL must be free, the same bargain as the zero-fault wrapper
/// above: `serve_udp_from` with no limiter installed is one `Option`
/// check past `serve_udp_into` and may add at most 5% on the hot serve
/// path (`engine.rs` proves the bytes identical; this proves the cost).
/// Same interleaved A-B-B-A discipline as [`bench_faultfree_wrapper`],
/// but the overhead is estimated from the median of *paired* per-quad
/// differences (drift cancels inside each quad) and discounted by the
/// 10 ns single-process measurement floor, because `bench_guard` gates
/// the recorded percentage with an absolute 5% ceiling — ~4 ns on this
/// path — so a per-query allocation or bucket probe can never sneak
/// onto the disabled path.
fn bench_rrl_disabled_overhead(_c: &mut Criterion) {
    // Smallest paired difference a single process can attribute to the
    // code rather than to its own layout luck; shared by the recorded
    // percentage and the hard assert below.
    const MEASUREMENT_FLOOR_NS: f64 = 10.0;
    let engine = engine();
    let wire = query(".", RrType::Soa, true);
    fn round(f: &mut dyn FnMut()) -> f64 {
        const ITERS: u32 = 200_000;
        let t = Instant::now();
        for _ in 0..ITERS {
            f();
        }
        t.elapsed().as_nanos() as f64 / ITERS as f64
    }
    let mut bare_out = Vec::with_capacity(4096);
    let mut wrapped_out = Vec::with_capacity(4096);
    let mut bare_f = || {
        black_box(engine.serve_udp_into(black_box(&wire), &mut bare_out));
    };
    let mut wrapped_f = || {
        black_box(engine.serve_udp_from(5, 0, black_box(&wire), &mut wrapped_out));
    };
    for _ in 0..10_000 {
        bare_f();
        wrapped_f();
    }
    // The guarded number is the *difference* of two ~80 ns paths, so the
    // estimator has to cancel clock drift, not just average it out:
    // each A-B-B-A quad yields one paired overhead sample
    // (mean of the inner wrapped rounds minus mean of the outer bare
    // rounds), and the reported overhead is the median of those paired
    // samples — slow frequency drift hits both sides of a quad equally
    // and drops out of the difference.
    let (mut bare_rounds, mut wrapped_rounds, mut diffs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..16 {
        let b1 = round(&mut bare_f);
        let w1 = round(&mut wrapped_f);
        let w2 = round(&mut wrapped_f);
        let b2 = round(&mut bare_f);
        bare_rounds.extend([b1, b2]);
        wrapped_rounds.extend([w1, w2]);
        diffs.push((w1 + w2) / 2.0 - (b1 + b2) / 2.0);
    }
    fn median(v: &mut [f64]) -> f64 {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    }
    let bare_ns = median(&mut bare_rounds);
    let diff_ns = median(&mut diffs);
    let wrapped_ns = bare_ns + diff_ns;
    record_metric("rootd/serve_rrl_disabled_bare", bare_ns);
    record_metric("rootd/serve_rrl_disabled_wrapped", wrapped_ns);
    // The recorded percentage discounts the same 10 ns floor the assert
    // below grants: on an ~80 ns path, same-binary process modes (code
    // layout, branch-alias luck) swing the paired diff by ±5 ns run to
    // run, below what any estimator in one process can resolve. What the
    // 5% guard ceiling must catch is real added work — an allocation,
    // a hash, a bucket probe — and the cheapest of those costs ≥ 20 ns,
    // well past floor + 5%.
    let overhead_pct = (diff_ns - MEASUREMENT_FLOOR_NS) / bare_ns * 100.0;
    record_metric("rootd/rrl_disabled_overhead_pct", overhead_pct.max(0.0));
    println!(
        "rootd/serve_rrl_disabled: bare {bare_ns:.1} ns, wrapped {wrapped_ns:.1} ns \
         ({overhead_pct:+.2}%)"
    );
    assert!(
        wrapped_ns <= bare_ns * 1.05 + MEASUREMENT_FLOOR_NS,
        "disabled-RRL overhead {overhead_pct:.2}% exceeds the 5% budget plus the \
         10 ns measurement floor (bare {bare_ns:.1} ns, wrapped {wrapped_ns:.1} ns)"
    );
}

/// Not a timed closure: the demo attack scenario (water torture,
/// reflection, query storm against B-Root with RRL engaged) run once,
/// its flood-epoch service quality recorded as metrics and its seeded
/// traffic counters as byte-stable integers. `rootd/flood_legit_p99` —
/// the worst benign p99 across attack epochs — is what the guard
/// watches: RRL failing open (floods reaching the serve path unthrottled)
/// shows up here first.
fn bench_attack_flood(_c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let scenario = AttackRun::demo_scenario(Scale::Tiny, RootLetter::B);
    let run = AttackRun::run(
        Scale::Tiny,
        RootLetter::B,
        &scenario,
        AttackRun::DEMO_DURATION_MS,
        threads,
    );
    assert_eq!(run.violations(), Vec::<String>::new());
    let r = &run.report;
    let worst_p99 = (r.epochs.iter())
        .filter(|e| e.attack_sent > 0)
        .map(|e| e.legit_p99_ns)
        .max()
        .unwrap_or(0);
    record_metric("rootd/flood_legit_p99", worst_p99 as f64);
    record_metric(
        "rootd/flood_legit_served_fraction",
        r.worst_flood_served_fraction(),
    );
    let attacked: u64 = r.epochs.iter().map(|e| e.attack_sent).sum();
    record_counter("rootd/flood/attack_sent", attacked);
    record_counter("rootd/flood/rrl_dropped", r.rrl.dropped);
    record_counter("rootd/flood/rrl_slipped", r.rrl.slipped);
    println!(
        "rootd/flood: worst legit p99 {worst_p99} ns, served {:.4}, \
         attack {attacked} -> dropped {} slipped {}",
        r.worst_flood_served_fraction(),
        r.rrl.dropped,
        r.rrl.slipped,
    );
}

/// Not a timed closure: one long load-generator run whose own counters are
/// the measurement. A million seeded queries replayed from simulated
/// clients against B-Root's per-site engines; the report's throughput and
/// latency quantiles are recorded as metrics.
fn bench_loadgen(_c: &mut Criterion) {
    let queries: usize = std::env::var("ROOTD_BENCH_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let cfg = LoadgenConfig {
        clients: 256,
        queries,
        threads,
        seed: 0x2023_0703,
        mix: QueryMix::broot(),
    };
    let p = ServingPipeline::run(Scale::Tiny, RootLetter::B, &cfg);
    assert_eq!(p.report.queries, queries);
    assert!(p.report.responses as usize > queries * 9 / 10);
    for (label, value) in p.report.metrics("rootd/loadgen") {
        record_metric(&label, value);
    }
    // Exact counts, not timings: recorded as integers so two runs of the
    // same seeded mix produce byte-equal lines (determinism check).
    record_counter("rootd/loadgen/queries", p.report.queries as u64);
    record_counter("rootd/loadgen/cache_hits", p.report.cache_hits as u64);
    record_counter("rootd/loadgen/cache_misses", p.report.cache_misses as u64);
}

/// The whole constellation: all thirteen letters' catalog sites as
/// per-site engines over one shared zone state, serving a seeded,
/// catchment-steered mix through the batched datagram path. The headline
/// metric is `rootd/farm/aggregate_qps` — the sum of per-letter busy-time
/// serving rates, i.e. the constellation's capacity with every letter's
/// batches uncontended (DESIGN §15) — floor-gated at 10M qps by
/// bench_guard; `wall_qps` is the single-machine wall-clock view.
fn bench_farm(_c: &mut Criterion) {
    let queries: usize = std::env::var("ROOTD_FARM_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(400_000);
    let mut cfg = FarmConfig::tiny(0x2024_0610);
    cfg.queries = queries;
    cfg.clients = 256;
    cfg.shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let run = FarmRun::full_constellation(Scale::Tiny, &cfg);
    assert_eq!(run.report.violations(), Vec::<String>::new());
    assert_eq!(run.report.letters.len(), RootLetter::ALL.len());
    for (label, value) in run.report.metrics("rootd/farm") {
        record_metric(&label, value);
    }
    record_counter("rootd/farm/queries", run.report.queries as u64);
    record_counter("rootd/farm/responses", run.report.responses);
    record_counter("rootd/farm/sites", run.farm.site_count() as u64);
    println!(
        "rootd/farm: {} letters x {} sites, aggregate {:.0} q/s, wall {:.0} q/s, p99 {} ns",
        run.report.letters.len(),
        run.farm.site_count(),
        run.report.aggregate_qps,
        run.report.wall_qps,
        run.report.p99_ns,
    );
}

/// The self-healing farm's resilience numbers. Two are gated by
/// bench_guard against absolute documented bounds (DESIGN §16), not a
/// baseline. `rootd/farm/healthy_overhead_pct` compares the plain farm's
/// aggregate busy rate with the chaos path's under an *empty* failure
/// plan — and a busy rate counts only the timed `serve_udp_batch` window,
/// so it says the two serve at the same speed (within 5%, best-of-3 to
/// ride out shared-core scheduler luck) and nothing about what routing,
/// shedding and digesting cost around that window. `rootd/farm/
/// chaos_wall_pct` is the number that does: best-of-3 wall-clock q/s of
/// the empty-plan chaos run as a percentage of best-of-3 of the plain run,
/// recorded and printed, not gated — the yardstick for folding `run` into `run_chaos`
/// (ROADMAP). `rootd/farm/degraded_served_fraction` is the legit service
/// floor under the headline chaos schedule — three concurrent site
/// failures, a stalled shard, a poisoned reload and an 8× junk flood —
/// floor-gated at 0.99.
fn bench_farm_resilience(_c: &mut Criterion) {
    let queries: usize = std::env::var("ROOTD_CHAOS_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(150_000);
    let world = World::build(&WorldBuildConfig::tiny());
    let farm = Farm::build(
        &world.topology,
        &world.catalog,
        world.zone_at(0),
        &FarmChaosRun::DEMO_LETTERS,
        FarmChaosRun::DEMO_SITES,
    );
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    // The schedule `examples/farm_chaos_report.rs` and
    // `tests/farm_invariants.rs` run.
    let cfg = FarmChaosRun::demo_schedule(&farm, 0x2025_0417, queries, shards);

    // Healthy overhead: the plain farm vs the chaos path with nothing to
    // do. Interleave the pair and keep the best (smallest) of three
    // rounds — the overhead is a ratio of two busy rates measured on
    // shared cores, and only regressions that survive every round are
    // the code's fault.
    let healthy = cfg.twin();
    let mut overhead_pct = f64::INFINITY;
    let (mut base_qps, mut wrapped_qps) = (0.0f64, 0.0f64);
    let (mut base_wall, mut wrapped_wall) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        let base = farm.run(&cfg.farm);
        let wrapped = farm.run_chaos(&world.topology, &healthy);
        let pct = (base.aggregate_qps / wrapped.aggregate_qps - 1.0) * 100.0;
        if pct < overhead_pct {
            (overhead_pct, base_qps, wrapped_qps) =
                (pct, base.aggregate_qps, wrapped.aggregate_qps);
        }
        base_wall = base_wall.max(base.wall_qps);
        wrapped_wall = wrapped_wall.max(wrapped.wall_qps);
    }
    record_metric("rootd/farm/healthy_overhead_pct", overhead_pct.max(0.0));
    let wall_pct = wrapped_wall / base_wall * 100.0;
    record_metric("rootd/farm/chaos_wall_pct", wall_pct);

    // The degraded run: seeded counters, not timings — byte-stable
    // across machines and shard counts.
    let report = farm.run_chaos(&world.topology, &cfg);
    assert_eq!(report.violations(), Vec::<String>::new());
    record_metric(
        "rootd/farm/degraded_served_fraction",
        report.legit_served_fraction(),
    );
    record_counter("rootd/farm/chaos/served", report.served);
    record_counter("rootd/farm/chaos/served_hedged", report.served_hedged);
    record_counter("rootd/farm/chaos/shed_junk", report.shed_junk);
    record_counter("rootd/farm/chaos/shed_benign", report.shed_benign);
    record_counter("rootd/farm/chaos/unanswered", report.unanswered);
    record_counter("rootd/farm/chaos/reloads_rejected", report.reloads_rejected);
    println!(
        "rootd/farm/resilience: healthy overhead {overhead_pct:+.2}% \
         (base {base_qps:.0} q/s, chaos-wrapped {wrapped_qps:.0} q/s), \
         chaos wall clock {wall_pct:.1}% of plain ({wrapped_wall:.0} / {base_wall:.0} q/s), \
         degraded legit served {:.4} ({} hedged, {} junk shed, {} unanswered)",
        report.legit_served_fraction(),
        report.served_hedged,
        report.shed_junk,
        report.unanswered,
    );
}

/// A one-letter (b.root) farm over a signed 8-TLD zone — `farm_hit`'s zone
/// — and the id of its first site.
fn zone8_farm() -> (Farm, u32) {
    let world = World::build(&WorldBuildConfig::tiny());
    let zone = build_root_zone(
        &RootZoneConfig {
            tld_count: 8,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        },
        &ZoneKeys::from_seed(7),
    );
    let farm = Farm::build(
        &world.topology,
        &world.catalog,
        Arc::new(zone),
        &[RootLetter::B],
        1,
    );
    let site = farm.deployment(RootLetter::B).expect("b.root").sites[0]
        .id
        .0;
    (farm, site)
}

/// What a chaos run pays to digest what it delivered: one flushed
/// 32-response slab — B-Root-mix queries answered by a zone8 farm site —
/// through [`digest_response`], in picoseconds per response byte (fastest
/// of 32 rounds). The digest folds eight bytes a multiply; the byte-wise
/// chains it replaced read ≈1 000 ps (one response at a time) and ≈380
/// (four abreast). `bench_guard` holds the figure under an absolute
/// ceiling.
fn bench_chaos_digest(_c: &mut Criterion) {
    const SLAB: usize = 32;
    let (farm, site) = zone8_farm();
    let engine = farm.engine_at(RootLetter::B, site).expect("site engine");
    let mix = QueryMix::broot();
    let mut rng = SimRng::new(0x2025_0417).derive("chaos-digest-slab");
    let mut batch = UdpBatch::new();
    let mut wire = Vec::new();
    for _ in 0..SLAB {
        farm.fill_query(&mix, &mut rng, &mut wire);
        batch.push_request(&wire);
    }
    let served = engine.serve_udp_batch(&mut batch);
    assert_eq!(served.dropped, 0);
    let bytes: usize = (0..SLAB)
        .map(|i| batch.response(i).map_or(0, <[u8]>::len))
        .sum();

    const ITERS: u32 = 2_000;
    let mut digests = [0u64; SLAB];
    let ps_per_byte = (0..32)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ITERS {
                for (i, slot) in digests.iter_mut().enumerate() {
                    *slot = digest_response(i as u64, black_box(&batch).response(i).unwrap_or(&[]));
                }
                black_box(&mut digests);
            }
            t.elapsed().as_nanos() as f64 * 1e3 / f64::from(ITERS) / bytes as f64
        })
        .fold(f64::INFINITY, f64::min);
    record_metric("rootd/chaos/digest_ps_per_byte", ps_per_byte);
    println!("rootd/chaos/digest: {SLAB} responses, {bytes} bytes: {ps_per_byte:.0} ps/byte");
}

/// What `farm_hit` pays inside the engine: one 32-request slab pushed into
/// a warm `UdpBatch` and served by `serve_udp_batch` on a zone8 farm site,
/// in nanoseconds a query (fastest of 32 rounds; every query a cache hit).
/// Two slabs: the B-Root mix as `Farm::fill_query` draws it, and its
/// dearest class alone — junk labels with DO set, an NXDOMAIN spliced from
/// the covering NSEC link's template after the exact table and the cut
/// table both miss. `bench_guard` holds both under absolute ceilings.
fn bench_hit_slab(_c: &mut Criterion) {
    const SLAB: usize = 32;
    let (farm, site) = zone8_farm();
    let engine = farm.engine_at(RootLetter::B, site).expect("site engine");
    let mix = QueryMix::broot();
    let mut rng = SimRng::new(0x2025_1005).derive("hit-slab");
    let mut wire = Vec::new();
    let mut draw = |keep: &dyn Fn(QueryClass, &[u8]) -> bool| {
        let mut slab: Vec<Vec<u8>> = Vec::new();
        while slab.len() < SLAB {
            let class = farm.fill_query(&mix, &mut rng, &mut wire);
            if keep(class, &wire) {
                slab.push(wire.clone());
            }
        }
        slab
    };
    let mixed = draw(&|_, _| true);
    // ARCOUNT 1 is the generator's DO OPT.
    let junk_do = draw(&|class, wire| class == QueryClass::Junk && wire[11] == 1);

    const ITERS: u32 = 20_000;
    let mut batch = UdpBatch::new();
    for (key, slab) in [
        ("rootd/serve_hit_slab32_ns", &mixed),
        ("rootd/serve_hit_slab32_junk_do_ns", &junk_do),
    ] {
        let serve = |batch: &mut UdpBatch| {
            batch.clear();
            for wire in slab {
                batch.push_request(black_box(wire));
            }
            engine.serve_udp_batch(batch)
        };
        let warm = serve(&mut batch);
        assert_eq!((warm.hits, warm.dropped), (SLAB as u64, 0), "{key}");
        let ns = (0..32)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..ITERS {
                    black_box(serve(&mut batch));
                }
                t.elapsed().as_nanos() as f64 / f64::from(ITERS) / SLAB as f64
            })
            .fold(f64::INFINITY, f64::min);
        record_metric(key, ns);
        println!("{key}: {ns:.1} ns a query");
    }
}

/// Not a timed closure: one zone push on a root-sized zone (1 500 TLDs,
/// 21 k records), layer by layer, each figure the fastest of three in
/// milliseconds. Signing, validation and the cache build were all once
/// quadratic or eight-fold redundant here (868 / 934 / 504 ms, DESIGN
/// §15); `bench_guard` holds each under an absolute ceiling a fraction of
/// that, so a per-owner or per-signature scan, or a per-qtype cache
/// build, cannot come back unnoticed — not even on a slow host. The
/// index build — every record encoded once into the index's arena, whose
/// size the line printed beside it gives — is held the same way. The
/// cache build encodes the zone's 1 501 names at or above a cut and the
/// templates of the 1 501 NSEC links an NXDOMAIN can reach, on two
/// threads (a worker takes the last three sevenths of the names and the
/// templates); validation writes and verifies the zone in two halves the
/// same way. Against the one-core build of the parent, which also
/// templated the 3 013 unreachable links, the cache build reads ≈ 0.55×
/// and the validated reload ≈ 0.7× on a two-vCPU guest. Measured on one
/// core, a build that allocates fresh buffers per name and per answer
/// again read ≈ 1.6×, one that precompiles the 3 013 glue owners below
/// the cuts again ≈ 2×.
fn bench_zone_push_1500(_c: &mut Criterion) {
    fn best_ms<T>(mut f: impl FnMut() -> T) -> (f64, T) {
        let mut timed = || {
            let t = Instant::now();
            let out = black_box(f());
            (t.elapsed().as_secs_f64() * 1e3, out)
        };
        let first = timed();
        [timed(), timed()]
            .into_iter()
            .fold(first, |best, run| if run.0 < best.0 { run } else { best })
    }
    let cfg = RootZoneConfig {
        tld_count: 1_500,
        rollout: RolloutPhase::Validating,
        ..Default::default()
    };
    let now = cfg.inception + 86_400;
    let (sign_ms, zone) = best_ms(|| build_root_zone(&cfg, &ZoneKeys::from_seed(7)));
    let zone = Arc::new(zone);
    let (validate_ms, valid) = best_ms(|| dns_zone::validate_zone(&zone, now).is_valid());
    assert!(valid);
    let (index_ms, index) = best_ms(|| ZoneIndex::build(Arc::clone(&zone)));
    let index = Arc::new(index);
    let (cache_ms, shared) = best_ms(|| SharedState::build(Arc::clone(&index)));
    let (reload_ms, pushed) = best_ms(|| shared.try_reload(Arc::clone(&zone), now));
    assert!(pushed.is_ok() && shared.generation() == 3);
    record_metric("dns_zone/sign_1500", sign_ms);
    record_metric("dns_zone/validate_1500", validate_ms);
    record_metric("rootd/index/build_1500", index_ms);
    record_metric("rootd/cache/build_1500", cache_ms);
    record_metric("rootd/reload_1500", reload_ms);
    println!(
        "zone push at 1500 TLDs: sign {sign_ms:.1} ms, validate {validate_ms:.1} ms, \
         index build {index_ms:.1} ms ({} KiB of wire), cache build {cache_ms:.1} ms, \
         validated reload {reload_ms:.1} ms",
        index.wire_len() / 1024
    );
}

criterion_group!(
    benches,
    bench_engine,
    bench_fallback_1500,
    bench_faultfree_wrapper,
    bench_rrl_disabled_overhead,
    bench_attack_flood,
    bench_loadgen,
    bench_farm,
    bench_farm_resilience,
    bench_chaos_digest,
    bench_hit_slab,
    bench_zone_push_1500
);
criterion_main!(benches);
