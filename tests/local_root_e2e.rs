//! End-to-end local-root scenario: the RFC 7706/8806 service running
//! against the *simulated world's* own zone store and servers over many
//! days, crossing the ZONEMD roll-out boundary, with injected faults.

use dns_zone::corrupt::flip_rrsig_bit;
use localroot::{
    upstream_transport, LocalRoot, RefreshOutcome, ValidationPolicy, ZonemdRequirement,
};
use rootd::InprocTransport;
use rss::RootLetter;
use std::sync::Arc;
use vantage::{World, WorldBuildConfig};

const DAY: u32 = 86_400;

fn upstreams_for_day(world: &World, day_time: u32) -> Vec<(RootLetter, InprocTransport)> {
    let zone = world.zone_at(day_time);
    [RootLetter::A, RootLetter::B, RootLetter::K]
        .into_iter()
        .map(|letter| {
            let hostname = Some(format!("{}1.sim", letter.ch()));
            (letter, upstream_transport(letter, hostname, zone.clone()))
        })
        .collect()
}

#[test]
fn thirty_days_of_refreshes_against_the_world_zone_store() {
    let world = World::build(&WorldBuildConfig::tiny());
    let mut local = LocalRoot::new(ValidationPolicy::default());
    let start = vantage::schedule::MEASUREMENT_START;
    let mut updates = 0;
    for day in 0..30u32 {
        let now = start + day * DAY + 7200;
        let mut ups = upstreams_for_day(&world, now);
        match local.refresh_wire(&mut ups, now).expect("refresh succeeds") {
            RefreshOutcome::Updated { serial, .. } => {
                updates += 1;
                assert_eq!(serial, vantage::engine::serial_of_day(now - now % DAY));
            }
            RefreshOutcome::AlreadyCurrent { .. } => {}
        }
        assert!(local.is_serving(now));
    }
    // The zone serial changes daily, so every day must update.
    assert_eq!(updates, 30);
    assert_eq!(local.metrics.transfers_rejected, 0);
}

#[test]
fn strict_policy_across_the_rollout_boundary() {
    // Before 2023-09-13 the zone has no ZONEMD: strict policy refuses.
    // After 2023-12-06 it validates: strict policy accepts.
    let world = World::build(&WorldBuildConfig::tiny());
    let mut strict = LocalRoot::new(ValidationPolicy::strict());

    let before = vantage::schedule::MEASUREMENT_START + 7200; // July: no record
    let mut ups = upstreams_for_day(&world, before);
    assert!(strict.refresh_wire(&mut ups, before).is_err());

    let after = dns_crypto::validity::timestamp_from_ymd("20231210000000").unwrap() + 7200;
    let mut ups = upstreams_for_day(&world, after);
    assert!(strict.refresh_wire(&mut ups, after).is_ok());
    assert!(strict.is_serving(after));
}

#[test]
fn opportunistic_policy_serves_through_all_phases() {
    let world = World::build(&WorldBuildConfig::tiny());
    let mut lr = LocalRoot::new(ValidationPolicy {
        zonemd: ZonemdRequirement::Opportunistic,
        require_rrsigs: true,
        max_age: 2 * DAY,
        serve_stale: true,
    });
    for date in ["20230710000000", "20230920000000", "20231210000000"] {
        let now = dns_crypto::validity::timestamp_from_ymd(date).unwrap() + 7200;
        let mut ups = upstreams_for_day(&world, now);
        lr.refresh_wire(&mut ups, now)
            .expect("opportunistic accepts all phases");
        assert!(lr.is_serving(now), "{date}");
    }
}

#[test]
fn corrupted_primary_fallback_with_world_zones() {
    let world = World::build(&WorldBuildConfig::tiny());
    let now = dns_crypto::validity::timestamp_from_ymd("20231210000000").unwrap() + 7200;
    let zone = world.zone_at(now);
    let mut bad = (*zone).clone();
    flip_rrsig_bit(&mut bad, 5).unwrap();
    let mut ups = vec![
        (
            RootLetter::A,
            upstream_transport(RootLetter::A, None, Arc::new(bad)),
        ),
        (
            RootLetter::K,
            upstream_transport(RootLetter::K, None, zone.clone()),
        ),
    ];
    let mut lr = LocalRoot::new(ValidationPolicy::strict());
    lr.set_primary(0);
    let out = lr.refresh_wire(&mut ups, now).expect("fallback succeeds");
    assert!(matches!(
        out,
        RefreshOutcome::Updated {
            from_upstream: 1,
            attempts: 2,
            ..
        }
    ));
    assert_eq!(lr.metrics.fallbacks, 1);
    // Delegations answered from the validated copy.
    assert!(lr.delegation("com", now).is_some());
}
