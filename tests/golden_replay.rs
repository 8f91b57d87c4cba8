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
    assert_eq!(report.fingerprint(), 2004476337518850456);
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
        .map(|(p, i)| i.wrapping_mul(u64::from(p.vp.0) + 1 + p.rtt_ms.map_or(0, f64::to_bits)))
        .fold(0, u64::wrapping_add);
    assert_eq!(
        (sink.probes.len(), sink.transfers.len(), order),
        (5292, 5287, 11372384468357060570)
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
