//! Chaos harness: fault matrices swept against the resilient refresh
//! loop, asserting the invariants the paper's RQ3 fallback argument
//! rests on:
//!
//! 1. an invalid (bitflipped / truncated) zone copy is **never**
//!    activated — every accepted copy answers the probe set, plain and
//!    with DO (RRSIG and NSEC bytes included), byte-identically to the
//!    fault-free baseline;
//! 2. refresh converges to the correct serial whenever at least one
//!    upstream is reachable;
//! 3. staleness never exceeds the zone's SOA expire bound;
//! 4. a zero-fault `FaultyTransport` is byte-identical to the bare
//!    transport;
//! 5. the whole chaos run is deterministic: same plan seed ⇒ same fault
//!    counters, same metrics, same outcome;
//! 6. on one virtual clock shared with a serving fleet under load, the
//!    refresh client rides out a bounded blackhole by backing off, and the
//!    run replays bit-identically (`roots_core::ClockChaosRun::violations`;
//!    `examples/clock_chaos_demo.rs` renders the same run).

use dns_wire::edns::{set_edns, Edns};
use dns_wire::{Message, Name, Question, Rcode, RrType};
use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
use dns_zone::signer::ZoneKeys;
use dns_zone::Zone;
use localroot::{upstream_transport, LocalRoot, RefreshOutcome, ServingState, ValidationPolicy};
use rootd::{
    FaultCounters, FaultPlan, FaultSpec, FaultyTransport, InprocTransport, Protocol, Transport,
};
use roots_core::{ClockChaosRun, Scale};
use rss::RootLetter;
use std::sync::Arc;

const T0: u32 = 1_701_820_800; // 2023-12-06: ZONEMD validates
const SERIAL: u32 = 2023120600;
const SOA_EXPIRE: u32 = 604_800; // the built zone's SOA expire field

fn fresh_zone(serial: u32) -> Zone {
    build_root_zone(
        &RootZoneConfig {
            serial,
            tld_count: 10,
            inception: T0,
            expiration: T0 + 14 * 86_400,
            rollout: RolloutPhase::Validating,
        },
        &ZoneKeys::from_seed(1),
    )
}

/// Three upstream letters, each an engine over the same fresh zone.
fn upstream_servers() -> Vec<(RootLetter, InprocTransport)> {
    let zone = Arc::new(fresh_zone(SERIAL));
    [RootLetter::A, RootLetter::B, RootLetter::C]
        .into_iter()
        .map(|letter| {
            let hostname = Some(format!("{}1.chaos", letter.ch()));
            (
                letter,
                upstream_transport(letter, hostname, Arc::clone(&zone)),
            )
        })
        .collect()
}

/// Wrap every upstream in a FaultyTransport driven by `plan`.
fn wired(
    servers: &[(RootLetter, InprocTransport)],
    plan: &Arc<FaultPlan>,
) -> Vec<(RootLetter, FaultyTransport<InprocTransport>)> {
    servers
        .iter()
        .enumerate()
        .map(|(i, (letter, server))| {
            (
                *letter,
                FaultyTransport::new(server.clone(), Arc::clone(plan), i as u64),
            )
        })
        .collect()
}

/// The probe queries used to compare an activated copy against the
/// fault-free baseline: each asked plain and with DO, so the RRSIG and
/// NSEC bytes the copy serves are compared too, not only its bare RRsets.
fn probes() -> Vec<Message> {
    let plain = vec![
        Message::query(1, Question::new(Name::root(), RrType::Soa)),
        Message::query(2, Question::new(Name::root(), RrType::Ns)),
        Message::query(3, Question::new(Name::parse("com.").unwrap(), RrType::Ns)),
        Message::query(
            4,
            Question::new(Name::parse("nxd-tld.").unwrap(), RrType::A),
        ),
    ];
    let signed: Vec<Message> = plain
        .iter()
        .map(|q| {
            let mut q = q.clone();
            q.header.id += 10;
            set_edns(&mut q, &Edns::dnssec());
            q
        })
        .collect();
    plain.into_iter().chain(signed).collect()
}

/// Invariants 1 + 2 + 5 over a loss × bitflip × truncation matrix.
#[test]
fn fault_matrix_never_activates_a_corrupt_copy() {
    let servers = upstream_servers();

    // Fault-free baseline answers to compare activated copies against.
    let mut baseline = LocalRoot::new(ValidationPolicy::default());
    let clean = Arc::new(FaultPlan::clean(0));
    baseline
        .refresh_wire(&mut wired(&servers, &clean), T0 + 60)
        .unwrap();
    let baseline_answers: Vec<Vec<u8>> = probes()
        .iter()
        .map(|q| baseline.answer(q, T0 + 120).to_wire())
        .collect();

    let mut cells = 0u32;
    let mut activated = 0u32;
    for (ci, &loss) in [0.0, 0.1, 0.25, 0.5].iter().enumerate() {
        for (cj, &flip) in [0.0, 0.05, 0.25].iter().enumerate() {
            for (ck, &trunc) in [0.0, 0.3].iter().enumerate() {
                cells += 1;
                let seed = 0xc0de + (ci as u64) * 100 + (cj as u64) * 10 + ck as u64;
                let spec = FaultSpec {
                    drop_prob: loss,
                    bitflip_prob: flip,
                    truncate_stream_prob: trunc,
                    ..FaultSpec::clean()
                };
                let run = || {
                    let plan = Arc::new(FaultPlan::clean(seed).with_default(spec.clone()));
                    let mut up = wired(&servers, &plan);
                    let mut lr = LocalRoot::new(ValidationPolicy::default());
                    let out = lr.refresh_wire(&mut up, T0 + 60);
                    let counters: Vec<FaultCounters> =
                        up.iter().map(|(_, t)| t.counters()).collect();
                    // Snapshot refresh metrics before any probe queries
                    // perturb the serving counters.
                    let metrics = lr.metrics;
                    (out, metrics, lr, counters)
                };
                let (out, metrics, mut lr, counters) = run();
                match out {
                    Ok(RefreshOutcome::Updated { serial, .. }) => {
                        activated += 1;
                        // Invariant 2: bit-correct serial...
                        assert_eq!(serial, SERIAL, "cell loss={loss} flip={flip}");
                        // ...and invariant 1: the activated copy answers
                        // byte-identically to the fault-free baseline —
                        // no corrupt copy survives validation.
                        for (q, want) in probes().iter().zip(&baseline_answers) {
                            assert_eq!(&lr.answer(q, T0 + 120).to_wire(), want);
                        }
                    }
                    Ok(RefreshOutcome::AlreadyCurrent { .. }) => {
                        unreachable!("first refresh cannot be current")
                    }
                    Err(_) => {
                        // Heavy fault mixes may defeat the retry budget —
                        // but then nothing may have been activated.
                        assert_eq!(lr.current_serial(), None);
                        assert_eq!(lr.metrics.transfers_accepted, 0);
                        assert_eq!(lr.serving_state(T0 + 60), ServingState::Empty);
                    }
                }
                // Invariant 5: the cell replays bit-identically.
                let (out2, metrics2, _, counters2) = run();
                assert_eq!(out, out2, "outcome not deterministic");
                assert_eq!(metrics, metrics2, "metrics not deterministic");
                assert_eq!(counters, counters2, "fault counters not deterministic");
            }
        }
    }
    // The clean cells (and most light-fault cells) must converge.
    assert!(activated >= cells / 2, "{activated}/{cells} converged");
}

/// Invariant 2: one reachable upstream (behind heavy loss) is enough,
/// even with every other letter blackholed.
#[test]
fn converges_when_a_single_lossy_upstream_survives() {
    let servers = upstream_servers();
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
    let servers = upstream_servers();
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
    let servers = upstream_servers();
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
    let servers = upstream_servers();
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
    let servers = upstream_servers();
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
/// two replays — the same run, and one at another loadgen worker count
/// (arrival pinning makes partitioning invisible) — and each of the seven
/// checks fires on a run doctored to break it.
#[test]
fn clock_chaos_interleaves_and_replays_bit_identically() {
    let scenario = ClockChaosRun::demo_scenario(Scale::Tiny, RootLetter::B);
    let run = |threads| ClockChaosRun::run(Scale::Tiny, RootLetter::B, &scenario, 8_000, threads);
    let (a, mut b, c) = (run(2), run(2), run(5));
    assert_eq!(a.violations(&[&b, &c]), Vec::<String>::new());
    // Beyond the checks: the copy was updated, and the fleet answered
    // outside the window.
    assert!(matches!(a.refresh, Ok(RefreshOutcome::Updated { .. })));
    assert!(a.load.responses > 0);

    let doctors: [fn(&mut ClockChaosRun); 6] = [
        |r| r.refresh = Err("doctored".into()),
        |r| r.clock_ms = ClockChaosRun::DEMO_WINDOW_MS - 1,
        |r| r.refresh_metrics.timeouts = 0,
        |r| r.backoff_log.clear(),
        |r| r.serving = false,
        |r| r.load.fault_counters.blackholed = 0,
    ];
    for (fired, doctor) in doctors.into_iter().enumerate() {
        doctor(&mut b);
        assert_eq!(b.violations(&[]).len(), fired + 1);
    }
    assert_eq!(b.violations(&[&c]).len(), 6 + 1);
}
