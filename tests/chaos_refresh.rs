//! Chaos harness: fault matrices swept against the resilient refresh
//! loop, asserting the invariants the paper's RQ3 fallback argument
//! rests on:
//!
//! 1. an invalid (bitflipped / truncated) zone copy is **never**
//!    activated — every accepted copy holds the fault-free baseline's
//!    records, all of them, in canonical order and form, and answers the
//!    probe set, plain and with DO (RRSIG and NSEC bytes included),
//!    byte-identically to it;
//! 2. refresh converges to the correct serial whenever at least one
//!    upstream is reachable;
//! 3. staleness never exceeds the zone's SOA expire bound;
//! 4. a zero-fault `FaultyTransport` is byte-identical to the bare
//!    transport;
//! 5. the whole chaos run is deterministic: same plan seed ⇒ same fault
//!    counters, same metrics, same outcome;
//! 6. on one virtual clock shared with a serving farm that loses a site to
//!    the same window, the refresh client rides out a bounded blackhole by
//!    backing off, the farm withdraws the dark site and brings it back,
//!    and the run replays bit-identically across shard counts
//!    (`roots_core::ClockChaosRun::violations`;
//!    `examples/clock_chaos_demo.rs` renders the same run).

use dns_wire::{Message, Name, Question, Rcode, RrType};
use localroot::{LocalRoot, RefreshOutcome, ValidationPolicy};
use rootd::{FaultPlan, FaultSpec, FaultyTransport, Protocol, Transport};
use rootd::{HealthConfig, SiteStatus};
use roots_core::chaos::{probes, upstreams, wired, SERIAL, SOA_EXPIRE, T0};
use roots_core::{ChaosSweep, ClockChaosRun, Scale};
use rss::RootLetter;
use scenario::{Scenario, ScenarioEvent};
use std::sync::Arc;

/// Invariants 1 + 2 + 5 over a loss × bitflip × truncation matrix
/// (`roots_core::ChaosSweep`), at the default seed and at the seed
/// `chaos_report` is run at in `ci.sh`: every activated copy is the
/// baseline's, record for record, with the right serial and the same
/// answers; every refusal leaves nothing active; at least half the cells
/// converge; every cell replays bit-identically; and stale serving stops
/// at the SOA expire bound.
#[test]
fn fault_matrix_never_activates_a_corrupt_copy() {
    for base_seed in [0xc0de, 49_374] {
        let sweep = ChaosSweep::run(base_seed);
        assert_eq!(sweep.violations(), Vec::<String>::new(), "seed {base_seed}");
        assert_eq!(sweep.cells.len(), 4 * 3 * 2);
        // The clean cell converges, and some cells are refused.
        assert!(sweep.cells[0].outcome.is_ok(), "seed {base_seed}");
        assert!(sweep.activated() < sweep.cells.len(), "seed {base_seed}");
        assert!(sweep.served_stale > 0 && sweep.refused_expired > 0);
    }
}

/// Each of `ChaosSweep::violations`'s checks fires on a sweep doctored to
/// break it, and on no other.
#[test]
fn each_chaos_sweep_check_fires_on_a_doctored_sweep() {
    let sweep = ChaosSweep::run(0xc0de);
    assert!(sweep.violations().is_empty());
    let activated = (sweep.cells.iter())
        .position(|c| c.outcome.is_ok())
        .expect("a converged cell");
    let refused = (sweep.cells.iter())
        .position(|c| c.outcome.is_err())
        .expect("a refused cell");
    let doctors: [&dyn Fn(&mut ChaosSweep); 8] = [
        &|s| {
            s.cells[activated].outcome = Ok(RefreshOutcome::Updated {
                serial: SERIAL + 1,
                from_upstream: 0,
                attempts: 1,
            })
        },
        &|s| s.cells[activated].outcome = Ok(RefreshOutcome::AlreadyCurrent { serial: SERIAL }),
        &|s| s.cells[activated].copy_differs = true,
        &|s| s.cells[activated].answers_differ = 1,
        &|s| s.cells[refused].left_behind = true,
        &|s| s.cells[refused].replayed = false,
        &|s| {
            for cell in &mut s.cells {
                cell.outcome = Err("doctored".into());
            }
        },
        &|s| s.stale[2].1 = Rcode::NoError,
    ];
    for (i, doctor) in doctors.into_iter().enumerate() {
        let mut doctored = sweep.clone();
        doctor(&mut doctored);
        assert_eq!(doctored.violations().len(), 1, "check {i}");
    }
}

/// Invariant 2: one reachable upstream (behind heavy loss) is enough,
/// even with every other letter blackholed.
#[test]
fn converges_when_a_single_lossy_upstream_survives() {
    let servers = upstreams();
    let mut plan = FaultPlan::clean(99);
    plan.set_both(0, FaultSpec::blackhole());
    plan.set_both(1, FaultSpec::blackhole());
    plan.set_both(2, FaultSpec::loss(0.3));
    let plan = Arc::new(plan);
    let mut lr = LocalRoot::new(ValidationPolicy::default());
    let mut up = wired(&servers, &plan);
    let out = lr.refresh_wire(&mut up, T0 + 60).unwrap();
    assert!(matches!(
        out,
        RefreshOutcome::Updated {
            serial: SERIAL,
            from_upstream: 2,
            ..
        }
    ));
    assert!(lr.metrics.timeouts > 0, "blackholes cost timeouts first");
}

/// A letter whose UDP path is dead but whose TCP path works is still
/// usable: the SOA poll times out, the AXFR (TCP) lands the copy.
#[test]
fn udp_dead_tcp_alive_still_converges() {
    let servers = upstreams();
    let mut plan = FaultPlan::clean(3);
    for u in 0..3 {
        plan.set(u, Protocol::Udp, FaultSpec::loss(1.0));
    }
    let plan = Arc::new(plan);
    let mut lr = LocalRoot::new(ValidationPolicy::default());
    let out = lr
        .refresh_wire(&mut wired(&servers, &plan), T0 + 60)
        .unwrap();
    assert!(matches!(
        out,
        RefreshOutcome::Updated { serial: SERIAL, .. }
    ));
    assert_eq!(lr.metrics.timeouts as u32, lr.retry.attempts * 3);
}

/// Invariant 3: with every upstream dark after the first sync, stale
/// serving is bounded by the zone's own SOA expire field — never beyond.
#[test]
fn staleness_never_exceeds_the_soa_expire_bound() {
    let servers = upstreams();
    let clean = Arc::new(FaultPlan::clean(0));
    let dark = Arc::new(FaultPlan::clean(1).with_default(FaultSpec::blackhole()));
    let mut lr = LocalRoot::new(ValidationPolicy {
        max_age: 3_600,
        ..Default::default()
    });
    lr.refresh_wire(&mut wired(&servers, &clean), T0).unwrap();

    let q = Message::query(9, Question::new(Name::root(), RrType::Soa));
    // Sample the whole degradation window, refreshing (and failing)
    // along the way.
    for age in [1_800u32, 3_600, 3_601, 86_400, SOA_EXPIRE, SOA_EXPIRE + 1] {
        let now = T0 + age;
        if age > 3_600 {
            assert!(
                lr.refresh_wire(&mut wired(&servers, &dark), now).is_err(),
                "dark upstreams cannot refresh"
            );
        }
        let rcode = lr.answer(&q, now).header.rcode;
        if age <= SOA_EXPIRE {
            assert_eq!(rcode, Rcode::NoError, "age={age} must still answer");
        } else {
            assert_eq!(rcode, Rcode::ServFail, "age={age} exceeds SOA expire");
        }
    }
    assert!(lr.metrics.served_stale > 0);
    assert!(lr.metrics.refused_expired > 0);
    // The breaker opened while we hammered dark upstreams.
    assert!(lr.metrics.breaker_opened > 0);
}

/// Invariant 4: a clean-plan FaultyTransport is byte-identical to the
/// bare transport, on both protocols.
#[test]
fn zero_fault_wrapper_is_byte_identical_to_bare() {
    let servers = upstreams();
    let plan = Arc::new(FaultPlan::clean(7));
    let (_, server) = &servers[0];
    let mut bare = server.clone();
    let mut wrapped = FaultyTransport::new(server.clone(), Arc::clone(&plan), 0);
    for q in probes() {
        let wire = q.to_wire();
        assert_eq!(
            bare.exchange_udp(&wire).unwrap(),
            wrapped.exchange_udp(&wire).unwrap()
        );
    }
    let axfr = Message::query(5, Question::new(Name::root(), RrType::Axfr)).to_wire();
    assert_eq!(
        bare.exchange_tcp(&axfr).unwrap(),
        wrapped.exchange_tcp(&axfr).unwrap()
    );
    let c = wrapped.counters();
    assert_eq!(c.clean, c.exchanges, "every exchange took the fast path");
    assert_eq!(c.total_faults(), 0);
}

/// Mid-AXFR truncation alone (the RQ3 scenario): the client retries the
/// stream, and a truncated transfer never yields an activated zone
/// unless a later attempt completes.
#[test]
fn mid_axfr_truncation_is_survived_or_refused() {
    let servers = upstreams();
    for seed in 0..8u64 {
        let plan = Arc::new(FaultPlan::clean(seed).with_default(FaultSpec {
            truncate_stream_prob: 0.6,
            ..FaultSpec::clean()
        }));
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        match lr.refresh_wire(&mut wired(&servers, &plan), T0 + 60) {
            Ok(RefreshOutcome::Updated { serial, .. }) => assert_eq!(serial, SERIAL),
            Ok(RefreshOutcome::AlreadyCurrent { .. }) => unreachable!(),
            Err(_) => assert_eq!(lr.current_serial(), None),
        }
    }
}

/// Invariant 6 on the clock-chaos demo: no violation on the run and its
/// two replays — the same run, and one at another shard count (pinned
/// arrivals make partitioning invisible) — and each of the eight checks
/// fires on a run doctored to break it.
#[test]
fn clock_chaos_interleaves_and_replays_bit_identically() {
    let scenario = ClockChaosRun::demo_scenario(Scale::Tiny, RootLetter::B);
    let run = |shards| ClockChaosRun::run(Scale::Tiny, RootLetter::B, &scenario, 8_000, shards);
    let (a, mut b, c) = (run(2), run(2), run(5));
    assert_eq!(a.violations(&[&b, &c]), Vec::<String>::new());
    // Beyond the checks: the copy was updated, and the fleet answered
    // outside the window.
    assert!(matches!(a.refresh, Ok(RefreshOutcome::Updated { .. })));
    assert!(a.fleet.served > 0);

    let doctors: [fn(&mut ClockChaosRun); 8] = [
        |r| r.refresh = Err("doctored".into()),
        |r| r.clock_ms = ClockChaosRun::DEMO_WINDOW_MS - 1,
        |r| r.refresh_metrics.timeouts = 0,
        |r| r.backoff_log.clear(),
        |r| r.serving = false,
        // No hedged or unanswered query at the dark site: no per-query
        // outcome left at all.
        |r| r.fleet.flags.clear(),
        |r| r.fleet.reload_violations.push("doctored".into()),
        // A second window at the serving letter: hedged queries can no
        // longer be attributed to the dark site.
        |r| r.dark_windows = 2,
    ];
    for (fired, doctor) in doctors.into_iter().enumerate() {
        doctor(&mut b);
        assert_eq!(b.violations(&[]).len(), fired + 1);
    }
    assert_eq!(b.violations(&[&c]).len(), 8 + 1);
}

/// The clock-chaos demo's fleet half: the farm's report replays
/// bit-identically at 1, 2, 5 and 8 shards; the dark site (B's first
/// catalog site) is declared Dead after the window opens at 0 ms —
/// within the watchdog's `dead_after` probes of it — and returns to
/// rotation after it closes at 5 000 ms; and no query that arrives after
/// that return is hedged or unanswered.
#[test]
fn clock_chaos_fleet_withdraws_and_restores_the_dark_site() {
    let scenario = ClockChaosRun::demo_scenario(Scale::Tiny, RootLetter::B);
    let run = |shards| ClockChaosRun::run(Scale::Tiny, RootLetter::B, &scenario, 8_000, shards);
    let a = run(1);
    for shards in [2, 5, 8] {
        assert_eq!(
            run(shards).fleet.fingerprint(),
            a.fleet.fingerprint(),
            "{shards} shards"
        );
    }
    let window = ClockChaosRun::DEMO_WINDOW_MS;
    let slot = a.dark_slot.expect("the demo darkens a site of the fleet");
    let dark: Vec<(u64, SiteStatus)> = (a.fleet.transitions.iter())
        .filter(|t| t.1 == slot)
        .map(|t| (t.2, t.3))
        .collect();
    let dead_at = dark
        .iter()
        .find(|&&(_, status)| status == SiteStatus::Dead)
        .map(|&(t, _)| t)
        .expect("the dark site was declared Dead");
    let health = HealthConfig::default();
    let detect_ms = u64::from(health.dead_after) * health.probe_interval_ms;
    assert!(dead_at > 0 && dead_at <= detect_ms, "Dead at {dead_at} ms");
    let back_at = dark
        .iter()
        .find(|&&(t, status)| t > dead_at && status.in_rotation())
        .map(|&(t, _)| t)
        .expect("the dark site returned to rotation");
    assert!(back_at >= window, "back in rotation at {back_at} ms");
    // Non-vacuous: queries still arrive after the return.
    assert!(back_at < 8_000, "back in rotation at {back_at} ms");
    assert!(a.dark_queries(0..window) > 0);
    assert_eq!(a.dark_queries(back_at..u64::MAX), 0);
}

/// A site outage that ended before the axis's anchor projects to the
/// empty window `(0, 0)` (`TimeAxis::wall_to_ms` clamps to the anchor),
/// and an empty window darkens nothing: the fleet never probes, never
/// withdraws the site, and hedges or drops no query.
#[test]
fn an_outage_ended_before_the_anchor_darkens_no_site() {
    let demo = ClockChaosRun::demo_scenario(Scale::Tiny, RootLetter::B);
    let events = (demo.events().iter())
        .map(|e| ScenarioEvent {
            at: e.at - 10,
            until: Some(e.at - 5),
            ..*e
        })
        .collect();
    let past = Scenario::new("ended-before-anchor", 0x5eed_c10c, events).unwrap();
    let run = ClockChaosRun::run(Scale::Tiny, RootLetter::B, &past, 8_000, 2);
    let plan = scenario::failure_plan_on_clock(&past, run.axis, &[]);
    let windows: Vec<(u64, u64)> = (plan.all_windows())
        .filter(|((letter, _), _)| *letter == RootLetter::B)
        .map(|(_, w)| (w.start_ms, w.end_ms))
        .collect();
    assert_eq!(windows, [(0, 0)]);
    assert_eq!(run.fleet.served_hedged, 0);
    assert_eq!(run.fleet.unanswered, 0);
    assert_eq!(run.fleet.probes, 0);
    assert!(run.fleet.transitions.is_empty());
    assert!(run.fleet.served > 0);
}
