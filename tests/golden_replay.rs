//! Golden replay values: literal fingerprints and counters at tiny scale
//! and fixed seeds. Every comparison elsewhere in the suite is run-vs-run
//! inside one build, which cannot see a refactor that changes what a
//! seed replays to; these literals can. Update one only for a deliberate,
//! documented change of the seeded behaviour it pins.

use netsim::rng::SimRng;
use netsim::types::{AsId, Family, Tier};
use netsim::ChurnModel;
use planner::MoveSetConfig;
use rootd::{Farm, FarmConfig, LoadgenConfig};
use roots_core::{AttackRun, FarmChaosRun, FarmRun, PlannerRun, Scale};
use rss::RootLetter;
use vantage::{MeasurementConfig, MeasurementEngine, World, WorldBuildConfig};

#[test]
fn farm_report_fingerprint() {
    let mut cfg = FarmConfig::tiny(0x2024_0610);
    cfg.queries = 6_000;
    let run = FarmRun::run(Scale::Tiny, &[RootLetter::A, RootLetter::B], 4, &cfg);
    assert_eq!(run.report.fingerprint(), 11455320921200104260);
}

/// `FarmChaosRun::demo`'s schedule at 6 000 arrivals: two crashes, a
/// blackhole, a stall, a poisoned reload and an 8× flood.
#[test]
fn farm_chaos_report_fingerprint() {
    let report = FarmChaosRun::demo(Scale::Tiny, 0x2025_0417, 6_000, 2).report;
    assert_eq!(report.violations(), Vec::<String>::new());
    assert_eq!(
        (report.served_hedged, report.shed_junk, report.late),
        (144, 982, 535)
    );
    // Re-pinned in PR 20: `digests` are word-wise (was 2004476337518850456).
    assert_eq!(report.fingerprint(), 1313993887827905740);
}

/// Everything the same run decided, without the response hash: the
/// report's fingerprint over an emptied `digests`, the outcome flags on
/// their own, and how many queries were delivered an answer. A change of
/// the digest function moves `farm_chaos_report_fingerprint` and nothing
/// here.
#[test]
fn farm_chaos_policy_fingerprint() {
    let mut report = FarmChaosRun::demo(Scale::Tiny, 0x2025_0417, 6_000, 2).report;
    let mut flags = netsim::Fingerprint::new();
    report.flags.iter().for_each(|&f| flags.mix(u64::from(f)));
    assert_eq!(flags.finish(), 7057400647096685390);
    assert_eq!(report.digests.iter().filter(|&&d| d != 0).count(), 5_018);
    report.digests.clear();
    assert_eq!(report.fingerprint(), 11018399587467928190);
}

#[test]
fn attack_report_fingerprint() {
    let scenario = AttackRun::demo_scenario(Scale::Tiny, RootLetter::B);
    let run = AttackRun::run(
        Scale::Tiny,
        RootLetter::B,
        &scenario,
        AttackRun::DEMO_DURATION_MS,
        2,
    );
    assert_eq!(
        run.fingerprint(),
        "baseline[0,2000) legit=2000/2000 slip=0/0 drop=0 attack=0/0/0;\
         flood×10(bots=32)[2000,6000) legit=4000/4000 slip=0/0 drop=0 attack=6400/16864/16736;\
         baseline[6000,8000) legit=2000/2000 slip=0/0 drop=0 attack=0/0/0;\
         reflect×10(AS42)[8000,10000) legit=2000/2000 slip=0/0 drop=0 attack=100/9952/9948;\
         storm×20(AS42)[10000,11000) legit=1000/1000 slip=2/2 drop=0 attack=75/9962/9963;\
         baseline[11000,12000) legit=1000/1000 slip=0/0 drop=0 attack=0/0/0; \
         rrl[checked=92000 passed=18573 slipped(TC)=36780 dropped=36647] \
         buckets=1245#8f278fac488e6760 mismatches=0"
    );
}

#[test]
fn planner_scores_fingerprint() {
    let cfg = MoveSetConfig {
        count: 50,
        ..Default::default()
    };
    assert_eq!(
        PlannerRun::run(Scale::Tiny, &cfg, 3).scores_fingerprint(),
        11467649009208761416
    );
}

#[test]
fn routing_and_churn_fingerprints() {
    let world = World::build(&WorldBuildConfig::tiny());
    let table = world.routes(RootLetter::B, Family::V4);
    assert_eq!(table.fingerprint(), 8143266865953058516);
    assert_eq!(world.routing_hash(RootLetter::B), 3308783317276305826);

    let stubs = world.topology.nodes().iter();
    let ases: Vec<AsId> = stubs
        .filter(|n| n.tier == Tier::Stub)
        .map(|n| n.id)
        .take(16)
        .collect();
    let root = SimRng::new(0xC0FFEE).derive("golden-replay");
    let pool = world.attracting_sites(RootLetter::B, Family::V4);
    let log = ChurnModel::default().round_log(table, &ases, 400, &root, 25.0, pool);
    assert_eq!(
        (log.events.len(), log.fingerprint()),
        (170, 3696746372024553990)
    );
}

/// The measurement engine's record stream over three worker VP ranges:
/// record order is part of what the pipeline's analyses consume.
#[test]
fn measurement_record_stream() {
    let world = World::build(&WorldBuildConfig::tiny());
    let config = MeasurementConfig {
        schedule: Scale::Tiny.schedule(),
        ..Default::default()
    };
    let rounds: Vec<_> = config.schedule.rounds().collect();
    let tail = &rounds[rounds.len() - 3..];
    let sink = MeasurementEngine::new(&world, config).run_rounds_parallel(tail, 3);
    let order: u64 = (sink.probes.iter().zip(1u64..))
        .map(|(p, i)| i.wrapping_mul(u64::from(p.vp.0) + 1 + p.rtt_ms().map_or(0, f64::to_bits)))
        .fold(0, u64::wrapping_add);
    assert_eq!(
        (sink.probes.len(), sink.transfers.len(), order),
        (5292, 5287, 11372384468357060570)
    );
}

/// Every field of every record the Tiny pipeline keeps — probes,
/// transfers and the three flow streams — floats by bit pattern and each
/// `Option` with its discriminant, and the bytes `vantage::dataset` writes
/// for the probe and transfer streams. Probes and transfers are digested
/// in `(vp, time, target, family)` order, a key no two records share: the
/// stream's order across VPs follows the host's worker count. Like the
/// other pins over the measurement (routing and churn, planner scores, the
/// record stream, the paper report), it holds at opt-level 0, the level
/// `cargo test` builds at.
#[test]
fn record_streams_every_field() {
    use roots_core::Pipeline;
    use vantage::dataset::{write_probes, write_transfers};
    use vantage::records::{Target, TransferFault};

    let p = Pipeline::shared(Scale::Tiny);
    let opt = |fp: &mut netsim::Fingerprint, v: Option<u64>| match v {
        None => fp.mix(0),
        Some(v) => {
            fp.mix(1);
            fp.mix(v);
        }
    };
    let target = |fp: &mut netsim::Fingerprint, t: Target, family: Family| {
        fp.mix(t.letter.index() as u64);
        fp.mix(t.b_phase as u64);
        fp.mix(family.index() as u64);
    };
    let bytes = |buf: &[u8]| {
        let mut fp = netsim::Fingerprint::new();
        fp.mix(buf.len() as u64);
        buf.iter().for_each(|&b| fp.mix(u64::from(b)));
        fp.finish()
    };

    let mut probes = p.probes.clone();
    probes.sort_by_key(|r| (r.vp, r.time, r.target, r.family));
    let mut fp = netsim::Fingerprint::new();
    for r in &probes {
        fp.mix(u64::from(r.time));
        fp.mix(u64::from(r.vp.0));
        target(&mut fp, r.target, r.family);
        opt(&mut fp, r.site().map(|s| u64::from(s.0)));
        opt(&mut fp, r.rtt_ms().map(f64::to_bits));
        opt(&mut fp, r.second_to_last_hop());
        opt(&mut fp, r.identity().map(|i| u64::from(i.0)));
    }
    let probe_fields = fp.finish();

    let mut transfers = p.transfers.clone();
    transfers.sort_by_key(|r| (r.vp, r.time, r.target, r.family));
    let mut fp = netsim::Fingerprint::new();
    for r in &transfers {
        fp.mix(u64::from(r.time));
        fp.mix(u64::from(r.vp_clock));
        fp.mix(u64::from(r.vp.0));
        target(&mut fp, r.target, r.family);
        opt(&mut fp, r.serial().map(u64::from));
        match r.fault() {
            None => fp.mix(0),
            Some(TransferFault::Bitflip { seed }) => {
                fp.mix(1);
                fp.mix(seed);
            }
            Some(TransferFault::Stale { serial }) => {
                fp.mix(2);
                fp.mix(u64::from(serial));
            }
        }
    }
    let transfer_fields = fp.finish();

    let mut fp = netsim::Fingerprint::new();
    for flows in [&p.isp_flows, &p.ixp_flows_eu, &p.ixp_flows_na] {
        fp.mix(flows.len() as u64);
        for f in flows {
            fp.mix(u64::from(f.day.0));
            opt(&mut fp, f.hour().map(u64::from));
            fp.mix(u64::from(f.client.0));
            fp.mix(f.family.index() as u64);
            fp.mix(f.target.letter.index() as u64);
            fp.mix(f.target.b_phase as u64);
            fp.mix(u64::from(f.flows));
        }
    }
    let flow_fields = fp.finish();

    let seed = p.world.seed();
    let mut buf = Vec::new();
    write_probes(&mut buf, &probes, seed).unwrap();
    let probe_lines = bytes(&buf);
    buf.clear();
    write_transfers(&mut buf, &transfers, seed).unwrap();
    let transfer_lines = bytes(&buf);

    assert_eq!(
        [probe_fields, transfer_fields, flow_fields],
        [
            8296370736261879139,
            16576553686869306307,
            2107523647120703331
        ]
    );
    assert_eq!(
        [probe_lines, transfer_lines],
        [18116195472807394840, 153871216762731231]
    );
}

/// `LoadReport`'s seeded counters, and their independence of the
/// worker-thread count. `nxdomain` / `referrals` / `truncated` were
/// re-pinned when query content moved from per-client streams (which
/// every worker restarted: 8385 / 8316 / 8278 NXDOMAINs at 1 / 2 / 5
/// threads) to per-global-index derivation; the other values predate it.
#[test]
fn load_report_counters() {
    let world = World::build(&WorldBuildConfig::tiny());
    let letters = [RootLetter::B];
    let farm = Farm::build(
        &world.topology,
        &world.catalog,
        world.zone_at(0),
        &letters,
        usize::MAX,
    );
    let run_at = |threads: usize| {
        let cfg = LoadgenConfig {
            queries: 20_000,
            threads,
            ..LoadgenConfig::tiny(7)
        };
        let r = rootd::loadgen::run(&farm, &cfg);
        let counters = [r.responses, r.nxdomain, r.referrals, r.truncated];
        (counters, [r.cache_hits, r.cache_misses], r.per_site)
    };
    let base = run_at(1);
    assert_eq!(base.0, [20_000, 8_440, 9_467, 0]);
    assert_eq!(base.1, [20_000, 0]);
    assert_eq!(base.2, vec![(0, 3756), (1, 14057), (2, 1248), (3, 939)]);
    for threads in 2..=8 {
        assert_eq!(run_at(threads), base, "threads={threads}");
    }
}

/// `build_root_zone`'s output, record for record in insertion order
/// (owner casing, NSEC type lists and RRSIG bytes included), as a digest
/// of its presentation lines: the signer may be made faster, the zone it
/// produces may not change.
#[test]
fn root_zone_presentation_dump() {
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::{RolloutPhase, ZoneKeys};
    let dump = |tld_count: usize, rollout: RolloutPhase| {
        let cfg = RootZoneConfig {
            tld_count,
            rollout,
            ..Default::default()
        };
        let zone = build_root_zone(&cfg, &ZoneKeys::from_seed(2023));
        let mut fp = netsim::Fingerprint::new();
        for rec in zone.records() {
            let line = dns_wire::presentation::record_to_line(rec);
            line.bytes().for_each(|b| fp.mix(u64::from(b)));
            fp.mix(u64::from(b'\n'));
        }
        (zone.len(), fp.finish())
    };
    assert_eq!(
        dump(40, RolloutPhase::NoRecord),
        (633, 16411941496659071408)
    );
    assert_eq!(
        dump(40, RolloutPhase::Validating),
        (635, 846688851010302308)
    );
    assert_eq!(
        dump(1_500, RolloutPhase::NoRecord),
        (21_073, 12286474575566848644)
    );
    assert_eq!(
        dump(1_500, RolloutPhase::Validating),
        (21_075, 11292208020219933196)
    );
}

/// The paper report at tiny scale, section by section: every table and
/// figure `run_all` renders, digested byte for byte, next to the record
/// counts and Table 2's shape. The measurement and the analyses may be
/// made faster; what they print may not change.
#[test]
fn paper_report_sections() {
    use roots_core::{experiments, Pipeline};
    let p = Pipeline::shared(Scale::Tiny);
    assert_eq!((p.probes.len(), p.transfers.len()), (67032, 61617));
    let table2 = analysis::zonemd_pipeline::validate_transfers(&p.world, &p.transfers);
    let rows: Vec<(&str, usize, u32, usize)> = (table2.rows.iter())
        .map(|r| {
            (
                r.reason.label(),
                r.serials.len(),
                r.observations,
                r.vps.len(),
            )
        })
        .collect();
    assert_eq!(rows, [("Signature expired", 2, 320, 24)]);
    assert_eq!(
        (table2.total_transfers, table2.distinct_failing),
        (61617, 6)
    );

    // One digest per `==== id [..] ====` section, header line included.
    let mut digests: Vec<(&str, netsim::Fingerprint)> = Vec::new();
    let report = experiments::run_all(p);
    for line in report.split_inclusive('\n') {
        if let Some(header) = line.strip_prefix("==== ") {
            let id = header.split(' ').next().expect("section id");
            digests.push((id, netsim::Fingerprint::new()));
        }
        let (_, fp) = digests.last_mut().expect("report starts with a header");
        line.bytes().for_each(|b| fp.mix(u64::from(b)));
    }
    let digests: Vec<(&str, u64)> = (digests.into_iter())
        .map(|(id, fp)| (id, fp.finish()))
        .collect();
    assert_eq!(
        digests,
        [
            ("table1", 15107438098986561113),
            ("table2", 14491670330108206090),
            ("table3", 7724164664387437538),
            ("table4", 18381613859634090334),
            ("fig1", 390794460178422935),
            ("fig2", 18443095925473037381),
            ("fig3", 11078024738552090320),
            ("fig4", 106671317650671443),
            ("fig5", 2324573732871904421),
            ("fig6", 6819180304629623071),
            ("fig7", 13186459547476249467),
            ("fig8", 18225381188665065647),
            ("fig9", 14742650181692715827),
            ("fig10", 18431105312453467008),
            ("fig11", 9214782159216177826),
            ("fig12", 4531277674173382218),
            ("fig13", 16127273217993932509),
            ("sec5", 15404538123122287331),
            ("fig14", 148342256156564169),
            ("sec6_paths", 9745480162630315065),
            ("sec7_channels", 2001185015306463584),
            ("scenario_demo", 4412197540955171403),
            ("rootd_demo", 16845500213565937867),
        ]
    );
}

/// The analysis products behind those sections at full precision — the
/// values the report rounds to `{:.1}` — one digest per product, floats by
/// bit pattern. A product may be computed differently; not one bit of what
/// it computes may change.
#[test]
fn analysis_products_bit_for_bit() {
    use analysis::clients::ClientAnalysis;
    use analysis::distance::DistanceResult;
    use analysis::traffic::{all_roots_series, BRootShift};
    use analysis::zonemd_pipeline::validate_transfers;
    use dns_crypto::validity::timestamp_from_ymd as ts;
    use dns_zone::channels::{snapshots, validate_channel, Channel};
    use netsim::Fingerprint;
    use roots_core::Pipeline;
    use rss::BRootPhase;
    use traces::flows::DayBucket;
    use vantage::records::Target;

    let p = Pipeline::shared(Scale::Tiny);
    let day = |ymd: &str| DayBucket::of(ts(ymd).unwrap());
    let text = |fp: &mut Fingerprint, s: &str| {
        fp.mix(s.len() as u64);
        s.bytes().for_each(|b| fp.mix(u64::from(b)));
    };
    let mut products: Vec<(&str, u64)> = Vec::new();

    let mut fp = Fingerprint::new();
    let rtt = p.rtt_by_region();
    for (ri, per_target) in rtt.summaries.iter().enumerate() {
        for (ti, families) in per_target.iter().enumerate() {
            for (fi, summary) in families.iter().enumerate() {
                let Some(s) = summary else { continue };
                [ri, ti, fi, s.n].into_iter().for_each(|v| fp.mix(v as u64));
                [s.mean, s.std_dev, s.min, s.p25, s.median, s.p75, s.max]
                    .into_iter()
                    .for_each(|v| fp.mix(v.to_bits()));
            }
        }
    }
    products.push(("rtt_by_region", fp.finish()));

    let mut fp = Fingerprint::new();
    let clients =
        ClientAnalysis::compute(&p.isp_flows, day("20240205000000"), day("20240304000000"));
    for c in &clients.curves {
        fp.mix(c.target.letter.index() as u64);
        fp.mix(c.target.b_phase as u64);
        fp.mix(c.family.index() as u64);
        fp.mix(c.mean_clients_per_day.to_bits());
        fp.mix(c.curve.len() as u64);
        for &(flows, frac) in &c.curve {
            fp.mix(u64::from(flows));
            fp.mix(frac.to_bits());
        }
    }
    products.push(("clients", fp.finish()));

    // Every `(bucket, key, share)` of a series, in map order.
    fn series<K: Ord + Clone>(
        s: &analysis::traffic::TrafficSeries<K>,
        key: impl Fn(&K) -> u64,
    ) -> u64 {
        let mut fp = Fingerprint::new();
        for ((day, hour), shares) in &s.buckets {
            fp.mix(u64::from(day.0));
            fp.mix(hour.map_or(u64::MAX, u64::from));
            fp.mix(shares.len() as u64);
            for (k, share) in shares {
                fp.mix(key(k));
                fp.mix(share.to_bits());
            }
        }
        fp.finish()
    }
    let letter = |l: &RootLetter| l.index() as u64;
    products.push((
        "all_roots_isp",
        series(&all_roots_series(&p.isp_flows), letter),
    ));
    let ixp = p.ixp_flows_eu.iter().chain(&p.ixp_flows_na);
    products.push(("all_roots_ixp", series(&all_roots_series(ixp), letter)));
    for (name, flows) in [
        ("b_shift_isp", &p.isp_flows),
        ("b_shift_ixp_na", &p.ixp_flows_na),
        ("b_shift_ixp_eu", &p.ixp_flows_eu),
    ] {
        let shift = BRootShift::compute(flows);
        products.push((name, series(&shift.series, |k| *k as u64)));
    }

    let mut fp = Fingerprint::new();
    for r in &p.colocation().per_vp {
        [
            r.vp.0,
            r.family.index() as u32,
            r.letters_observed,
            r.reduced,
        ]
        .into_iter()
        .for_each(|v| fp.mix(u64::from(v)));
    }
    products.push(("colocation", fp.finish()));

    let mut fp = Fingerprint::new();
    let table2 = validate_transfers(&p.world, &p.transfers);
    fp.mix(table2.total_transfers);
    fp.mix(table2.distinct_failing);
    for row in &table2.rows {
        fp.mix(row.reason as u64);
        fp.mix(row.serials.len() as u64);
        row.serials.iter().for_each(|&s| fp.mix(u64::from(s)));
        [row.first_obs, row.last_obs, row.observations]
            .into_iter()
            .for_each(|v| fp.mix(u64::from(v)));
        fp.mix(row.servers.len() as u64);
        row.servers.iter().for_each(|s| text(&mut fp, s));
        fp.mix(row.vps.len() as u64);
        row.vps.iter().for_each(|&v| fp.mix(u64::from(v)));
    }
    products.push(("table2", fp.finish()));

    // `sec7_channels`' window and zone size.
    let mut fp = Fingerprint::new();
    let (from, until) = (ts("20231201000000").unwrap(), ts("20231210000000").unwrap());
    for channel in [Channel::Czds, Channel::IanaWebsite] {
        let snaps = snapshots(channel, from, until, &p.world.keys, 10);
        let r = validate_channel(&snaps);
        [
            r.total,
            r.no_record,
            r.unverifiable,
            r.validating,
            r.invalid,
        ]
        .into_iter()
        .for_each(|v| fp.mix(u64::from(v)));
        for s in &snaps {
            assert_eq!(s.channel, channel);
            fp.mix(u64::from(s.time));
            fp.mix(u64::from(s.zone.serial().unwrap()));
            fp.mix(s.zone.len() as u64);
        }
    }
    products.push(("channels", fp.finish()));

    // Figure 5's four panels (a VP's mean inflation sums its own requests
    // in stream order, which no worker count changes).
    let mut fp = Fingerprint::new();
    let panels = [
        (RootLetter::B, BRootPhase::New),
        (RootLetter::M, BRootPhase::Old),
    ]
    .map(|(letter, b_phase)| Family::BOTH.map(|f| (Target { letter, b_phase }, f)));
    let (catalog, population) = (&p.world.catalog, &p.world.population);
    for r in DistanceResult::compute_panels(catalog, population, &p.probes, panels.as_flattened()) {
        // Sorted: the points come in stream order, and the stream's order
        // across VPs follows the host's worker count.
        let mut points: Vec<(u64, u64)> = (r.points.iter())
            .map(|pt| (pt.closest_global_km.to_bits(), pt.actual_km.to_bits()))
            .collect();
        points.sort_unstable();
        fp.mix(points.len() as u64);
        for (closest, actual) in points {
            fp.mix(closest);
            fp.mix(actual);
        }
        fp.mix(r.per_vp_inflation_km.len() as u64);
        r.per_vp_inflation_km
            .iter()
            .for_each(|v| fp.mix(v.to_bits()));
    }
    products.push(("distance_panels", fp.finish()));

    assert_eq!(
        products,
        [
            ("rtt_by_region", 15910952962372083627),
            ("clients", 14049397856347475229),
            ("all_roots_isp", 10080478734777123264),
            ("all_roots_ixp", 15398611022925976604),
            ("b_shift_isp", 16818963983924016363),
            ("b_shift_ixp_na", 17733147626636873549),
            ("b_shift_ixp_eu", 16516897616150503937),
            ("colocation", 2631821368050459416),
            ("table2", 7187203246465847962),
            ("channels", 15948302055854163670),
            ("distance_panels", 17723169040135433805),
        ]
    );
}

/// The uncached serve path, pinned byte for byte.
mod fallback {
    use dns_wire::edns::{set_edns, Edns};
    use dns_wire::message::Opcode;
    use dns_wire::{Class, Message, Name, Question, RrType};
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::{RolloutPhase, ZoneKeys};
    use rootd::{Rootd, ServeOutcome, SiteIdentity, ZoneIndex};
    use std::sync::Arc;

    /// An engine without an answer cache over `rootd_serving.rs`'s zone
    /// shape: every datagram it answers takes `ServeOutcome::Fallback`.
    pub fn engine(tld_count: usize) -> Rootd {
        let cfg = RootZoneConfig {
            serial: 2023112000,
            tld_count,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        };
        let zone = build_root_zone(&cfg, &ZoneKeys::from_seed(42));
        Rootd::new(
            Arc::new(ZoneIndex::build(Arc::new(zone))),
            SiteIdentity::named("iad7b"),
        )
    }

    /// One digest per group of datagrams: how many were sent, answered and
    /// answered with TC, and every response byte in order.
    pub struct Digest<'a> {
        engine: &'a Rootd,
        out: Vec<u8>,
        fp: netsim::Fingerprint,
        counts: [usize; 3],
    }

    impl<'a> Digest<'a> {
        pub fn new(engine: &'a Rootd) -> Self {
            Digest {
                engine,
                out: Vec::new(),
                fp: netsim::Fingerprint::new(),
                counts: [0; 3],
            }
        }

        pub fn serve(&mut self, wire: &[u8]) {
            self.counts[0] += 1;
            match self.engine.serve_udp_into(wire, &mut self.out) {
                ServeOutcome::Dropped => self.fp.mix(u64::MAX),
                outcome => {
                    assert_eq!(outcome, ServeOutcome::Fallback);
                    self.counts[1] += 1;
                    self.counts[2] += usize::from(self.out[2] & 0x02 != 0);
                    self.fp.mix(self.out.len() as u64);
                    self.out.iter().for_each(|&b| self.fp.mix(u64::from(b)));
                }
            }
        }

        pub fn ask(&mut self, q: &Message) {
            self.serve(&q.to_wire());
        }

        pub fn finish(self) -> ([usize; 3], u64) {
            (self.counts, self.fp.finish())
        }
    }

    pub fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    pub fn query(qname: &Name, qtype: RrType, edns: Option<(u16, bool)>) -> Message {
        let mut q = Message::query(0xa5a5, Question::new(qname.clone(), qtype));
        if let Some((udp_payload_size, dnssec_ok)) = edns {
            let edns = Edns {
                udp_payload_size,
                dnssec_ok,
                ..Default::default()
            };
            set_edns(&mut q, &edns);
        }
        q
    }

    /// Every other byte of every label uppercased.
    pub fn mixed_case(name: &Name) -> Name {
        let labels = name.labels().map(|l| {
            let flip = |(i, b): (usize, &u8)| match i % 2 {
                0 => b.to_ascii_uppercase(),
                _ => *b,
            };
            l.iter().enumerate().map(flip).collect::<Vec<u8>>()
        });
        Name::from_labels(labels).unwrap()
    }

    pub const QTYPES: [RrType; 16] = [
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
        RrType::Other(65), // HTTPS
        RrType::Other(33), // SRV
        RrType::Other(12), // PTR
    ];

    /// None = no EDNS; otherwise (advertised payload, DO).
    pub fn edns_states() -> Vec<Option<(u16, bool)>> {
        let mut states = vec![None];
        for payload in [512u16, 600, 1232, 4096] {
            states.extend([Some((payload, false)), Some((payload, true))]);
        }
        states
    }

    /// `rootd_serving.rs`'s matrix: every zone name × 16 qtypes × 9 EDNS
    /// states × 2 casings × RD.
    pub fn matrix(engine: &Rootd) -> ([usize; 3], u64) {
        let mut d = Digest::new(engine);
        let names = engine.index().zone().owner_names();
        assert_eq!(names.len(), 1 + 13 + 40 * 3);
        for name in &names {
            for qname in [name.clone(), mixed_case(name)] {
                for qtype in QTYPES {
                    for edns in edns_states() {
                        for rd in [false, true] {
                            let mut q = query(&qname, qtype, edns);
                            q.header.flags.recursion_desired = rd;
                            d.ask(&q);
                        }
                    }
                }
            }
        }
        d.finish()
    }

    /// Names below a cut: referrals whose qname the answer cache never
    /// holds.
    pub fn below_cut(engine: &Rootd) -> ([usize; 3], u64) {
        let mut d = Digest::new(engine);
        for tld in ["com.", "net.", "arpa.", "世界."] {
            for prefix in ["www.", "a.b.c.", "Ns0.Ns0.", "xn--0.WWW."] {
                let qname = name(&format!("{prefix}{tld}"));
                for qtype in [RrType::A, RrType::Ds, RrType::Nsec, RrType::Other(65)] {
                    for edns in edns_states() {
                        d.ask(&query(&qname, qtype, edns));
                    }
                }
            }
        }
        d.finish()
    }

    /// Junk qnames that share labels with the names a response carries
    /// (SOA mname/rname, NSEC owners, glue owners), as a suffix and not.
    /// `engine1` serves a zone whose only TLD is `com`, where
    /// `*.root-servers.net.` is not below a cut: NXDOMAIN with the NSEC
    /// owner compressed against the question.
    pub fn shared_labels(engine: &Rootd, engine1: &Rootd) -> ([usize; 3], u64) {
        let mut d = Digest::new(engine);
        let mut d1 = Digest::new(engine1);
        for junk in [
            "junk.root-servers.net.",
            "JUNK.Root-Servers.NET.",
            "a.a.root-servers.net.",
            "root-servers.net.",
            "nstld.verisign-grs.com.",
            "net.junk.",
            "a.root-servers.net.junk.",
            "root-servers.",
            "ns0.",
            "com.ns0.",
            "zz--nosuchtld.",
        ] {
            for qtype in [RrType::A, RrType::Other(65)] {
                for edns in edns_states() {
                    d.ask(&query(&name(junk), qtype, edns));
                    d1.ask(&query(&name(junk), qtype, edns));
                }
            }
        }
        let ((c, fp), (c1, fp1)) = (d.finish(), d1.finish());
        let mut both = netsim::Fingerprint::resume(fp);
        both.mix(fp1);
        ([c[0] + c1[0], c[1] + c1[1], c[2] + c1[2]], both.finish())
    }

    /// Every budget from the floor past the largest answer: each answer
    /// loses one record, then many, then all of them.
    pub fn budgets(engine: &Rootd) -> ([usize; 3], u64) {
        let mut d = Digest::new(engine);
        for (qname, qtype) in [
            (".", RrType::Ns),
            (".", RrType::Dnskey),
            (".", RrType::Any),
            ("com.", RrType::A),
            ("www.net.", RrType::Other(33)),
            ("nosuchtld.", RrType::A),
            ("a.root-servers.net.", RrType::Aaaa),
        ] {
            for dnssec_ok in [false, true] {
                for payload in (500u16..=1300).chain([4095, 4096, 4097, u16::MAX]) {
                    d.ask(&query(&name(qname), qtype, Some((payload, dnssec_ok))));
                }
            }
        }
        d.finish()
    }

    /// The stream path: every name × qtype ± DO untruncated, the odd
    /// requests' TCP answers, and the whole zone as AXFR frames.
    pub fn tcp(engine: &Rootd) -> ([usize; 3], u64) {
        let mut fp = netsim::Fingerprint::new();
        let mut counts = [0usize; 3];
        let mut serve = |wire: &[u8]| {
            counts[0] += 1;
            let frames = engine.serve_tcp(wire);
            fp.mix(frames.len() as u64);
            for frame in frames {
                counts[1] += 1;
                counts[2] += usize::from(frame[2] & 0x02 != 0);
                fp.mix(frame.len() as u64);
                frame.iter().for_each(|&b| fp.mix(u64::from(b)));
            }
        };
        for qname in engine.index().zone().owner_names() {
            for qtype in QTYPES {
                for edns in [None, Some((512, true))] {
                    serve(&query(&mixed_case(&qname), qtype, edns).to_wire());
                }
            }
        }
        for qname in ["www.com.", "nosuchtld.", "junk.root-servers.net."] {
            serve(&query(&name(qname), RrType::Other(65), Some((512, true))).to_wire());
        }
        let mut q = query(&Name::root(), RrType::Ns, None);
        set_edns(&mut q, &Edns::dnssec().with_nsid_request());
        serve(&q.to_wire());
        q.questions.push(Question::new(name("com."), RrType::Ns));
        serve(&q.to_wire());
        q.header.opcode = Opcode::Notify;
        serve(&q.to_wire());
        q.header.flags.response = true;
        serve(&q.to_wire());
        serve(&Message::query(9, Question::chaos_txt(name("id.server."))).to_wire());
        serve(&[0xab; 11]);
        serve(&[0xde, 0xad, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff]);
        for qname in [".", "com."] {
            serve(&query(&name(qname), RrType::Axfr, None).to_wire());
        }
        (counts, fp.finish())
    }

    /// Requests whose OPT record speaks an EDNS version above 0, over UDP
    /// and TCP: BADVERS, whatever they ask.
    pub fn bad_versions(engine: &Rootd) -> ([usize; 3], u64) {
        let mut d = Digest::new(engine);
        let mut ask = |q: &Message| {
            d.ask(q);
            // Nothing to truncate and nothing to stream: TCP says the same.
            assert_eq!(engine.serve_tcp(&q.to_wire()), [d.out.clone()]);
        };
        let versioned = |q: &mut Message, version: u8, payload: u16, dnssec_ok: bool| {
            let edns = Edns {
                version,
                udp_payload_size: payload,
                dnssec_ok,
                ..Default::default()
            };
            set_edns(q, &edns);
        };
        for version in [1, 2, 255] {
            for (qname, qtype) in [
                (".", RrType::Soa),
                (".", RrType::Ns),
                ("CoM.", RrType::Other(65)),
                ("www.net.", RrType::A),
                ("nosuchtld.", RrType::A),
                (".", RrType::Axfr),
            ] {
                for (payload, dnssec_ok) in [(512, false), (1232, true), (100, true)] {
                    let mut q = query(&name(qname), qtype, None);
                    versioned(&mut q, version, payload, dnssec_ok);
                    q.header.flags.recursion_desired = version == 2;
                    ask(&q);
                }
            }
        }
        // BADVERS outranks what the rest of the request would earn: NSID,
        // CHAOS, another opcode, two questions.
        let mut q = query(&Name::root(), RrType::Soa, None);
        let edns = Edns {
            version: 1,
            ..Edns::dnssec()
        };
        set_edns(&mut q, &edns.with_nsid_request());
        ask(&q);
        let mut q = Message::query(9, Question::chaos_txt(name("id.server.")));
        versioned(&mut q, 1, 1232, false);
        ask(&q);
        q.header.opcode = Opcode::Notify;
        ask(&q);
        q.header.opcode = Opcode::Query;
        q.questions.push(Question::new(name("com."), RrType::Ns));
        ask(&q);
        d.finish()
    }

    fn raw_opt(q: &mut Vec<u8>, payload: u16, ttl: [u8; 4], rdata: &[u8]) {
        q[11] += 1;
        q.extend_from_slice(&[0, 0, 41]);
        q.extend_from_slice(&payload.to_be_bytes());
        q.extend_from_slice(&ttl);
        q.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
        q.extend_from_slice(rdata);
    }

    /// What `FastQuery` cannot prove canonical, and what does not parse.
    pub fn odd_requests(engine: &Rootd) -> ([usize; 3], u64) {
        let mut d = Digest::new(engine);
        // NSID requests: full, truncated, on a referral, on CHAOS.
        for (qname, qtype, payload) in [
            (".", RrType::Soa, 4096u16),
            (".", RrType::Ns, 512),
            ("www.com.", RrType::A, 1232),
            ("nosuchtld.", RrType::Other(65), 1232),
        ] {
            for dnssec_ok in [false, true] {
                let mut q = query(&name(qname), qtype, None);
                let edns = Edns {
                    udp_payload_size: payload,
                    dnssec_ok,
                    ..Default::default()
                };
                set_edns(&mut q, &edns.with_nsid_request());
                d.ask(&q);
            }
        }
        let mut q = Message::query(9, Question::chaos_txt(name("Version.Bind.")));
        set_edns(&mut q, &Edns::default().with_nsid_request());
        d.ask(&q);
        // CHAOS identity, every name, both casings; unknown names and
        // types; other classes.
        for chaos in [
            "hostname.bind.",
            "id.server.",
            "version.bind.",
            "version.server.",
            "whoami.",
            "bind.",
            "a.hostname.bind.",
        ] {
            for qname in [name(chaos), mixed_case(&name(chaos))] {
                for edns in [None, Some((1232, true))] {
                    let mut q = query(&qname, RrType::Txt, edns);
                    q.questions[0].class = Class::Ch;
                    d.ask(&q);
                }
            }
        }
        let mut q = query(&name("id.server."), RrType::A, None);
        q.questions[0].class = Class::Ch;
        d.ask(&q);
        for class in [Class::Other(255), Class::Other(3), Class::Other(0)] {
            let mut q = query(&name("com."), RrType::Ns, Some((1232, false)));
            q.questions[0].class = class;
            d.ask(&q);
        }
        // AXFR over UDP.
        for qname in [".", "com.", "nosuchtld."] {
            for edns in [None, Some((1232, false)), Some((4096, true))] {
                d.ask(&query(&name(qname), RrType::Axfr, edns));
            }
        }
        // Zero, two and three questions (names sharing suffixes).
        for edns in [None, Some((1232, true))] {
            let mut q = query(&name("www.com."), RrType::A, edns);
            q.questions.push(Question::new(name("com."), RrType::Ns));
            d.ask(&q);
            q.questions
                .push(Question::new(name("MAIL.WWW.COM."), RrType::Mx));
            d.ask(&q);
            q.questions.clear();
            d.ask(&q);
        }
        // Other opcodes.
        for opcode in [Opcode::Notify, Opcode::Update, Opcode::Other(2)] {
            for edns in [None, Some((1232, true))] {
                let mut q = query(&Name::root(), RrType::Soa, edns);
                q.header.opcode = opcode;
                d.ask(&q);
            }
        }
        // Request header bits the server ignores (AA, TC, RA, AD, CD, and
        // a non-zero rcode), then a stray response (dropped).
        let mut q = query(&name("com."), RrType::Other(65), Some((1232, true)));
        q.header.flags.authoritative = true;
        q.header.flags.truncated = true;
        q.header.flags.recursion_available = true;
        q.header.flags.authentic_data = true;
        q.header.flags.checking_disabled = true;
        q.header.rcode = dns_wire::Rcode::Refused;
        d.ask(&q);
        q.header.flags.response = true;
        d.ask(&q);
        // OPT records a canonical one is not: an unknown option, Z bits,
        // an extended rcode, a payload below the floor, options that run
        // past RDLENGTH (no EDNS at all, then), two OPTs, an OPT in the
        // answer section's place.
        let bare = query(&name("com."), RrType::Ns, None).to_wire();
        let cookie = [0, 10, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8];
        for (payload, ttl, rdata) in [
            (1232u16, [0, 0, 0x80, 0], &cookie[..]),
            (1232, [0, 0, 0x80, 0x01], &[]),
            (1232, [0, 0, 0x40, 0], &[]),
            (1232, [7, 0, 0x80, 0], &[]),
            (100, [0, 0, 0x80, 0], &[]),
            (1232, [0, 0, 0x80, 0], &[0, 3, 0, 9, 1]),
            (1232, [0, 0, 0, 0], &[0, 3, 0, 0, 0, 3, 0, 0]),
        ] {
            let mut q = bare.clone();
            raw_opt(&mut q, payload, ttl, rdata);
            d.serve(&q);
        }
        let mut q = bare.clone();
        raw_opt(&mut q, 512, [0, 0, 0, 0], &[]);
        raw_opt(&mut q, 4096, [0, 0, 0x80, 0], &[]);
        d.serve(&q);
        // Trailing bytes after a complete query; a qname that ends in a
        // compression pointer into the header (`www` + the root at byte
        // 4, the zero high byte of QDCOUNT).
        let mut q = bare.clone();
        q.extend_from_slice(&[0; 7]);
        d.serve(&q);
        let mut q = vec![0x12, 0x34, 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        q.extend_from_slice(&[3, b'w', b'W', b'w', 0xc0, 4, 0, 1, 0, 1]);
        d.serve(&q);
        // Malformed: shorter than a header (dropped), a header whose
        // question is cut short, a query cut inside its OPT, a count that
        // promises records that are not there, a pointer loop, a label
        // with a reserved type (FORMERR stubs).
        d.serve(&[0xab; 11]);
        d.serve(&[0xde, 0xad, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff]);
        let with_opt = query(&name("com."), RrType::Ns, Some((1232, true))).to_wire();
        d.serve(&with_opt[..with_opt.len() - 3]);
        let mut q = bare.clone();
        q[7] = 2;
        d.serve(&q);
        let mut q = vec![0x56, 0x78, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        q.extend_from_slice(&[0xc0, 12, 0, 1, 0, 1]);
        d.serve(&q);
        let mut q = vec![0x9a, 0xbc, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        q.extend_from_slice(&[0x80, b'x', 0, 0, 1, 0, 1]);
        d.serve(&q);
        d.finish()
    }
}

/// Every response the uncached path gives, byte for byte: the serving
/// matrix of `tests/rootd_serving.rs` and the requests around it that only
/// the fallback answers. The path may be made faster; a served byte, a
/// truncation point or a drop-vs-FORMERR decision may not change.
#[test]
fn fallback_answer_matrix() {
    let engine = fallback::engine(40);
    let one_tld = fallback::engine(1);
    assert_eq!(
        [
            ("matrix", fallback::matrix(&engine)),
            ("below_cut", fallback::below_cut(&engine)),
            ("shared_labels", fallback::shared_labels(&engine, &one_tld)),
            ("budgets", fallback::budgets(&engine)),
            ("odd_requests", fallback::odd_requests(&engine)),
            ("tcp", fallback::tcp(&engine)),
        ],
        [
            ("matrix", ([77184, 77184, 20], 4753916657649686845)),
            ("below_cut", ([576, 576, 0], 1835154823386040797)),
            ("shared_labels", ([396, 396, 0], 10463508180098662744)),
            ("budgets", ([11270, 11270, 1168], 1789950733639156928)),
            ("odd_requests", ([80, 78, 11], 5608061636228957611)),
            ("tcp", ([4300, 4310, 0], 4516930315536125722)),
        ]
    );
}

/// RFC 6891 §6.1.3, pinned the same way: what a request in an EDNS version
/// above 0 is answered, byte for byte, over UDP and TCP.
#[test]
fn fallback_badvers_answers() {
    let engine = fallback::engine(40);
    assert_eq!(
        fallback::bad_versions(&engine),
        ([58, 58, 0], 13604104242460324612)
    );
}
