//! Scenario-engine integration tests: replay determinism, equivalence with
//! the continuous pipeline (the b.root anchor), event composition, and the
//! full event-kind apply/revert lifecycle.

use analysis::BRootShift;
use dns_zone::rollout::RolloutPhase;
use netsim::anycast::SiteId;
use rss::{Renumbering, RootLetter};
use scenario::{
    catalog, epoch_diff, DegradedMode, EventKind, Scenario, ScenarioConfig, ScenarioEngine,
    ScenarioEvent,
};
use traces::gen::{generate_flows, ObservationWindow, TraceConfig};
use vantage::records::{ProbeRecord, TransferRecord};
use vantage::{
    MeasurementConfig, MeasurementEngine, Schedule, World, WorldBuildConfig, MEASUREMENT_START,
};

fn tiny_world() -> World {
    World::build(&WorldBuildConfig::tiny())
}

fn short_config() -> MeasurementConfig {
    MeasurementConfig {
        schedule: Schedule::subsampled(400),
        ..Default::default()
    }
}

/// A two-day, 6-hourly schedule for cheap event-lifecycle tests.
fn two_day_schedule(days: u32) -> Schedule {
    Schedule {
        start: MEASUREMENT_START,
        end: MEASUREMENT_START + days * 86_400,
        base_interval: 21_600,
        burst_interval: 10_800,
        burst_windows: vec![],
        axfr_from: MEASUREMENT_START,
        subsample: 1,
    }
}

fn probe_key(
    p: &ProbeRecord,
) -> (
    vantage::population::VpId,
    u32,
    vantage::records::Target,
    netsim::Family,
) {
    (p.vp, p.time, p.target, p.family)
}

fn transfer_key(
    t: &TransferRecord,
) -> (
    vantage::population::VpId,
    u32,
    vantage::records::Target,
    netsim::Family,
) {
    (t.vp, t.time, t.target, t.family)
}

fn sorted(
    mut probes: Vec<ProbeRecord>,
    mut transfers: Vec<TransferRecord>,
) -> (Vec<ProbeRecord>, Vec<TransferRecord>) {
    probes.sort_by_key(probe_key);
    transfers.sort_by_key(transfer_key);
    (probes, transfers)
}

#[test]
fn event_free_scenario_matches_continuous_run() {
    // Baseline equivalence: a scenario with no events is just the ordinary
    // measurement — one epoch, bit-identical records.
    let mut world = tiny_world();
    let empty = Scenario::new("empty", 1, vec![]).unwrap();
    let engine = ScenarioEngine::new(ScenarioConfig {
        base: short_config(),
        burst_half_width: 43_200,
        workers: 3,
    });
    let run = engine.run(&mut world, &empty);
    assert_eq!(run.epochs.len(), 1);
    assert!(run.epochs[0].active.is_empty());

    // The scenario's session built this world's probe plans; the
    // continuous run's session reads them warm.
    let continuous = MeasurementEngine::new(&world, short_config()).run_parallel(3);
    assert_eq!(
        sorted(run.all_probes(), run.all_transfers()),
        sorted(continuous.probes, continuous.transfers),
    );
}

#[test]
fn replay_is_deterministic() {
    // Same world build + same scenario + same config ⇒ bit-identical runs.
    let engine = ScenarioEngine::new(ScenarioConfig {
        base: short_config(),
        burst_half_width: 21_600,
        workers: 2,
    });
    let scenario = catalog::outage_renumber_flap();
    let mut w1 = tiny_world();
    let a = engine.run(&mut w1, &scenario);
    let mut w2 = tiny_world();
    let b = engine.run(&mut w2, &scenario);
    assert_eq!(a.epochs.len(), b.epochs.len());
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(ea.active, eb.active);
        assert_eq!(ea.probes, eb.probes);
        assert_eq!(ea.transfers, eb.transfers);
        assert_eq!(ea.validation_failures, eb.validation_failures);
    }
}

#[test]
fn broot_scenario_matches_continuous_pipeline() {
    // The equivalence anchor: the built-in b.root renumbering scenario must
    // reproduce the legacy continuous pipeline exactly, on both the active
    // and the passive side — the engine's intensified-probing window around
    // the change falls inside the schedule's existing 2023-11-20..12-06
    // high-resolution window, so the round grid is unchanged, and the
    // session carries churn state across the epoch cut.
    let mut world = tiny_world();
    let scenario = catalog::broot_renumbering();
    let engine = ScenarioEngine::new(ScenarioConfig {
        base: short_config(),
        burst_half_width: 43_200,
        workers: 3,
    });
    let run = engine.run(&mut world, &scenario);
    assert_eq!(run.epochs.len(), 2, "one cut at the change date");
    assert_eq!(run.epochs[1].start, rss::B_ROOT_CHANGE_DATE);
    assert_eq!(run.epochs[1].active, vec!["renumber(b)".to_string()]);

    // Active side: concatenated epochs == one continuous run.
    let continuous = MeasurementEngine::new(&world, short_config()).run_parallel(3);
    assert_eq!(
        sorted(run.all_probes(), run.all_transfers()),
        sorted(continuous.probes, continuous.transfers),
    );

    // Passive side: aligning the trace config to the scenario's change
    // date is the identity for the historical date, so the traffic-shift
    // analysis is reproduced verbatim.
    let seed = world.seed();
    let windows = ObservationWindow::isp_windows();
    let mut legacy_cfg = TraceConfig::isp(seed);
    legacy_cfg.population.clients_per_family = 120;
    let legacy_flows = generate_flows(&legacy_cfg, &windows);
    let mut aligned_cfg = scenario::report::align_trace_config(TraceConfig::isp(seed), &scenario);
    aligned_cfg.population.clients_per_family = 120;
    let scenario_flows = generate_flows(&aligned_cfg, &windows);
    assert_eq!(legacy_flows, scenario_flows);
    let day = traces::DayBucket(Renumbering::B_ROOT.change_date / 86_400);
    let legacy =
        BRootShift::compute(&legacy_flows).render("b.root", traces::DayBucket(day.0 - 7), day);
    let ours =
        BRootShift::compute(&scenario_flows).render("b.root", traces::DayBucket(day.0 - 7), day);
    assert_eq!(legacy, ours);

    // And the per-epoch diff report covers the renumbering scenario.
    let report = epoch_diff(&run, RootLetter::B, &world.population);
    assert_eq!(report.epochs.len(), 2);
    assert_eq!(report.epochs[0].label, "baseline");
    assert_eq!(report.epochs[1].label, "renumber(b)");
    assert!(report.render().contains("renumber(b)"));
}

#[test]
fn outage_epoch_diff_shows_catchment_shift() {
    let mut world = tiny_world();
    // Pick a d.root site that actually serves traffic in this world: the
    // busiest one in a cheap pre-run over the first few rounds.
    let cfg = MeasurementConfig {
        schedule: two_day_schedule(2),
        ..Default::default()
    };
    let pre = MeasurementEngine::new(&world, cfg.clone()).run_parallel(2);
    let mut served: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for p in &pre.probes {
        if p.target.letter == RootLetter::D {
            if let Some(site) = p.site() {
                *served.entry(site.0).or_default() += 1;
            }
        }
    }
    let top_site = *served
        .iter()
        .max_by_key(|(_, n)| **n)
        .expect("d.root serves traffic")
        .0;

    let schedule = two_day_schedule(6);
    let outage_from = schedule.start + 2 * 86_400;
    let outage_until = schedule.start + 4 * 86_400;
    let scenario = Scenario::new(
        "d_outage",
        7,
        vec![ScenarioEvent {
            at: outage_from,
            until: Some(outage_until),
            kind: EventKind::SiteOutage {
                letter: RootLetter::D,
                site: SiteId(top_site),
            },
        }],
    )
    .unwrap();
    let engine = ScenarioEngine::new(ScenarioConfig {
        base: MeasurementConfig {
            schedule,
            ..Default::default()
        },
        burst_half_width: 0,
        workers: 2,
    });
    let run = engine.run(&mut world, &scenario);
    assert_eq!(run.epochs.len(), 3, "baseline / outage / after");

    // No probe in the outage epoch may be served by the withdrawn site.
    for p in &run.epochs[1].probes {
        if p.target.letter == RootLetter::D {
            assert_ne!(p.site(), Some(SiteId(top_site)));
        }
    }

    let report = epoch_diff(&run, RootLetter::D, &world.population);
    assert_eq!(report.epochs.len(), 3);
    assert!(report.epochs[0].catchment.contains_key(&top_site));
    assert!(!report.epochs[1].catchment.contains_key(&top_site));
    // The withdrawn site's share had to move somewhere else.
    assert!(report.epochs[0].catchment_shift(&report.epochs[1]) > 0.0);
    let rendered = report.render();
    assert!(rendered.contains("baseline"));
    assert!(rendered.contains("outage(d/"));
    assert!(rendered.contains("after"));
}

#[test]
fn flap_burst_composes_without_touching_other_letters() {
    // A route-flap burst on g.root must not perturb any other letter's
    // record stream, nor g.root's own records before the burst starts —
    // the override draws no extra randomness and the per-probe rng is
    // derived per (vp, target, family, round).
    let schedule = two_day_schedule(4);
    let burst_at = schedule.start + 86_400;
    let cfg = MeasurementConfig {
        schedule: schedule.clone(),
        ..Default::default()
    };
    let mut world = tiny_world();
    let baseline = MeasurementEngine::new(&world, cfg.clone()).run_parallel(2);
    let scenario = Scenario::new(
        "g_flap",
        9,
        vec![ScenarioEvent {
            at: burst_at,
            until: Some(burst_at + 86_400),
            kind: EventKind::RouteFlapBurst {
                letter: RootLetter::G,
                boost: 8.0,
            },
        }],
    )
    .unwrap();
    let engine = ScenarioEngine::new(ScenarioConfig {
        base: cfg,
        burst_half_width: 0,
        workers: 2,
    });
    let run = engine.run(&mut world, &scenario);

    let split = |probes: Vec<ProbeRecord>| {
        let mut others: Vec<ProbeRecord> = probes
            .iter()
            .filter(|p| p.target.letter != RootLetter::G)
            .cloned()
            .collect();
        let mut g_before: Vec<ProbeRecord> = probes
            .into_iter()
            .filter(|p| p.target.letter == RootLetter::G && p.time < burst_at)
            .collect();
        others.sort_by_key(probe_key);
        g_before.sort_by_key(probe_key);
        (others, g_before)
    };
    assert_eq!(split(run.all_probes()), split(baseline.probes));
}

#[test]
fn all_event_kinds_apply_and_revert_cleanly() {
    let mut world = tiny_world();
    // An adjacent AS pair for the link-failure event.
    let a = world.topology.nodes()[0].id;
    let b = world.topology.links(a)[0].to;
    let start = MEASUREMENT_START;
    let mid = start + 86_400;
    let until = Some(mid);
    // All seven event kinds at once, each in its own scope.
    let events = vec![
        ScenarioEvent {
            at: start,
            until,
            kind: EventKind::SiteOutage {
                letter: RootLetter::D,
                site: SiteId(0),
            },
        },
        ScenarioEvent {
            at: start,
            until,
            kind: EventKind::SiteAddition {
                letter: RootLetter::C,
                site: SiteId(0),
            },
        },
        ScenarioEvent {
            at: start,
            until,
            kind: EventKind::PrefixRenumbering {
                change: Renumbering {
                    letter: RootLetter::B,
                    change_date: start,
                },
            },
        },
        ScenarioEvent {
            at: start,
            until,
            kind: EventKind::RouteFlapBurst {
                letter: RootLetter::G,
                boost: 4.0,
            },
        },
        ScenarioEvent {
            at: start,
            until,
            kind: EventKind::PeeringLinkFailure { a, b },
        },
        ScenarioEvent {
            at: start,
            until,
            kind: EventKind::Degraded {
                letter: RootLetter::K,
                mode: DegradedMode::BitflipZone { prob: 1.0 },
            },
        },
        ScenarioEvent {
            at: start,
            until,
            kind: EventKind::Degraded {
                letter: RootLetter::M,
                mode: DegradedMode::ZonemdPhase {
                    phase: RolloutPhase::Validating,
                },
            },
        },
        ScenarioEvent {
            at: start,
            until,
            kind: EventKind::RttInflation {
                letter: RootLetter::A,
                factor: 3.0,
            },
        },
    ];
    let scenario = Scenario::new("everything", 11, events).unwrap();

    let hashes_before: Vec<u64> = RootLetter::ALL
        .iter()
        .map(|&l| world.routing_hash(l))
        .collect();
    let engine = ScenarioEngine::new(ScenarioConfig {
        base: MeasurementConfig {
            schedule: two_day_schedule(2),
            ..Default::default()
        },
        burst_half_width: 0,
        workers: 2,
    });
    let run = engine.run(&mut world, &scenario);

    assert_eq!(run.epochs.len(), 2);
    assert_eq!(
        run.epochs[0].active.len(),
        8,
        "all events active in epoch 0"
    );
    assert!(run.epochs[1].active.is_empty());
    assert!(!run.epochs[0].probes.is_empty());
    // The letter-wide bitflip degradation must show up as validation
    // failures during — and only during — its window.
    assert!(run.epochs[0].validation_failures > 0);

    // Teardown restored the world exactly: routing, withdrawals, zone state.
    let hashes_after: Vec<u64> = RootLetter::ALL
        .iter()
        .map(|&l| world.routing_hash(l))
        .collect();
    assert_eq!(hashes_before, hashes_after);
    assert!(world.zonemd_override().is_none());
    for &l in RootLetter::ALL.iter() {
        assert!(world.withdrawn_sites(l).is_empty());
    }
}
