//! Scenario events projected onto the two failure models: what one
//! client sees of the wire ([`fault_plan_on_clock`], a `rootd`
//! [`FaultPlan`] for a `FaultyTransport`) and what the serving farm
//! suffers ([`failure_plan_on_clock`], a [`FailurePlan`] for
//! `Farm::run_chaos`). Both map every event window onto one shared
//! [`simclock`] axis, so one plan serves an entire clock-driven run.
//!
//! From the client's seat, only events with a wire-visible signature
//! map to faults:
//!
//! * [`DegradedMode::BitflipZone`] — transfers from the letter arrive
//!   bit-flipped: a per-exchange `bitflip_prob` on both protocols;
//! * [`EventKind::RttInflation`] — DDoS-style latency: the base RTT is
//!   scaled by the event's factor (past the client timeout this turns
//!   into timeouts, which is the point);
//! * [`EventKind::SiteOutage`] — anycast routes one client to one site,
//!   so from that client's seat a site outage is an upstream that went
//!   dark: a full blackhole window.
//!
//! Zone-content events (`StaleZone`, `ZonemdPhase`) stay with the
//! scenario engine's zone generation — they corrupt *data*, not the
//! wire, and the refresh client must catch them via validation rather
//! than transport errors.

use crate::event::{DegradedMode, EventKind};
use crate::timeline::{Scenario, ScenarioEvent};
use netsim::rng::SimRng;
use rootd::recovery::FailureKind;
use rootd::{FailurePlan, FaultPlan, FaultSpec};
use rss::RootLetter;
use simclock::TimeAxis;

/// Baseline one-exchange latency (virtual ms) that [`EventKind::RttInflation`]
/// scales. Chosen so factors ≳25 with the default 1 s client timeout start
/// producing client-visible timeouts.
pub const BASE_RTT_MS: u64 = 40;

/// `event`'s window `[start, end)` in virtual ms on `axis`; an open-ended
/// event never ends.
pub(crate) fn window_on(axis: TimeAxis, event: &ScenarioEvent) -> (u64, u64) {
    let end = event.until.map_or(u64::MAX, |until| axis.wall_to_ms(until));
    (axis.wall_to_ms(event.at), end)
}

/// The spec one wire-visible event contributes, independent of timing.
fn event_spec(kind: &EventKind) -> Option<(u64, FaultSpec)> {
    match *kind {
        EventKind::Degraded {
            letter,
            mode: DegradedMode::BitflipZone { prob },
        } => Some((
            letter.index() as u64,
            FaultSpec {
                bitflip_prob: prob,
                ..FaultSpec::clean()
            },
        )),
        EventKind::RttInflation { letter, factor } => {
            let delay = (BASE_RTT_MS as f64 * factor) as u64;
            Some((
                letter.index() as u64,
                FaultSpec {
                    delay_ms: delay,
                    delay_jitter_ms: delay / 4,
                    ..FaultSpec::clean()
                },
            ))
        }
        EventKind::SiteOutage { letter, .. } => {
            Some((letter.index() as u64, FaultSpec::blackhole()))
        }
        _ => None,
    }
}

/// The client-seat projection: every wire-visible event becomes a
/// *windowed* spec on the upstream keyed by its letter's index, on the
/// `axis` that maps the scenario's wall-clock seconds onto virtual
/// milliseconds. Upstreams without an event stay clean. The plan covers
/// the full timeline, so a transport driven by a shared
/// [`simclock::ClockHandle`] moves *through* the event windows as its
/// client spends time, and every fault decision stays a pure function of
/// `(scenario seed, exchange number)`.
pub fn fault_plan_on_clock(scenario: &Scenario, axis: TimeAxis) -> FaultPlan {
    let mut plan = FaultPlan::clean(scenario.seed() ^ 0xc4a0_5000);
    for event in scenario.events() {
        if let Some((upstream, spec)) = event_spec(&event.kind) {
            plan.set_both_windowed(upstream, window_on(axis, event), spec);
        }
    }
    plan
}

/// The *farm*-side projection: scenario events become a site-level
/// [`FailurePlan`] the serving farm's chaos runner executes against its
/// health/recovery control plane, on the same `axis` as the client-seat
/// plan. This is the one model of a serving site going dark: seen from
/// the clients, an outage is a catchment shift (the dark site's
/// announcement is withdrawn and its clients re-steer).
///
/// * [`EventKind::SiteOutage`] — the site goes dark for the window. A
///   seeded coin decides *how*: an engine **crash** (needs the recovery
///   controller's restart ladder) or a network **blackhole** (heals when
///   the window ends) — the paper's measurements can't tell the two
///   apart from outside, but the farm's recovery path differs, so the
///   projection exercises both;
/// * [`EventKind::RttInflation`] — a letter-wide slowdown becomes a
///   **stall** window on every one of the letter's rostered sites
///   (serving continues, late);
/// * [`DegradedMode::BitflipZone`] — corrupt zone data at the letter
///   becomes a **poisoned reload** pushed at the window start, which the
///   validated reload path must refuse.
///
/// `roster` lists each letter's served site ids (what `Farm::letters`
/// exposes) so letter-wide events fan out to the letter's actual sites.
/// The plan seed is derived from the scenario seed with its own tag —
/// distinct from the client-seat fault stream.
pub fn failure_plan_on_clock(
    scenario: &Scenario,
    axis: TimeAxis,
    roster: &[(RootLetter, Vec<u32>)],
) -> FailurePlan {
    let mut plan = FailurePlan::none(scenario.seed() ^ 0xc4a0_5a11);
    let sites_of = |letter: RootLetter| -> &[u32] {
        roster
            .iter()
            .find(|(l, _)| *l == letter)
            .map(|(_, s)| s.as_slice())
            .unwrap_or(&[])
    };
    for event in scenario.events() {
        let (start, end) = window_on(axis, event);
        match event.kind {
            EventKind::SiteOutage { letter, site } => {
                let crash = SimRng::new(plan.seed)
                    .derive_ids(&[0xfa11, letter.index() as u64, u64::from(site.0), start])
                    .chance(0.5);
                let kind = if crash {
                    FailureKind::Crash
                } else {
                    FailureKind::Blackhole
                };
                plan.add(letter, site.0, kind, (start, end));
            }
            EventKind::RttInflation { letter, factor } => {
                let delay_ms = (BASE_RTT_MS as f64 * factor) as u64;
                for &site in sites_of(letter) {
                    plan.add(letter, site, FailureKind::Stall { delay_ms }, (start, end));
                }
            }
            EventKind::Degraded {
                letter,
                mode: DegradedMode::BitflipZone { .. },
            } => {
                plan.add_poisoned_reload(letter, start);
            }
            _ => {}
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::ScenarioEvent;
    use netsim::anycast::SiteId;
    use rootd::Protocol;
    use rss::RootLetter;

    fn scenario() -> Scenario {
        Scenario::new(
            "chaos-map",
            11,
            vec![
                ScenarioEvent {
                    at: 100,
                    until: Some(200),
                    kind: EventKind::Degraded {
                        letter: RootLetter::C,
                        mode: DegradedMode::BitflipZone { prob: 0.25 },
                    },
                },
                ScenarioEvent {
                    at: 150,
                    until: None,
                    kind: EventKind::RttInflation {
                        letter: RootLetter::D,
                        factor: 50.0,
                    },
                },
                ScenarioEvent {
                    at: 100,
                    until: Some(300),
                    kind: EventKind::SiteOutage {
                        letter: RootLetter::A,
                        site: SiteId(0),
                    },
                },
            ],
        )
        .unwrap()
    }

    /// The client-seat plan at wall second `t` of `scenario()`, on an
    /// axis anchored at second 0.
    fn spec_at(letter: RootLetter, proto: Protocol, t: u32) -> FaultSpec {
        let axis = simclock::TimeAxis::anchored_at(0);
        let plan = fault_plan_on_clock(&scenario(), axis);
        plan.spec_at(letter.index() as u64, proto, axis.wall_to_ms(t))
            .clone()
    }

    #[test]
    fn active_events_project_to_specs() {
        assert!(!spec_at(RootLetter::A, Protocol::Udp, 160)
            .blackholes
            .is_empty());
        assert_eq!(
            spec_at(RootLetter::C, Protocol::Tcp, 160).bitflip_prob,
            0.25
        );
        assert_eq!(
            spec_at(RootLetter::D, Protocol::Udp, 160).delay_ms,
            50 * BASE_RTT_MS
        );
        // An uninvolved letter stays clean.
        assert!(spec_at(RootLetter::K, Protocol::Udp, 160).is_clean());
    }

    #[test]
    fn expired_and_future_events_do_not_project() {
        assert!(spec_at(RootLetter::C, Protocol::Udp, 50).is_clean());
        // Bitflip window [100, 200) is over at 250; the outage isn't.
        assert!(spec_at(RootLetter::C, Protocol::Udp, 250).is_clean());
        assert!(!spec_at(RootLetter::A, Protocol::Udp, 250)
            .blackholes
            .is_empty());
        // Permanent RttInflation never expires.
        assert!(!spec_at(RootLetter::D, Protocol::Udp, 250).is_clean());
    }

    #[test]
    fn clock_plan_projects_whole_windows_onto_the_axis() {
        let s = scenario();
        // Anchor the axis 100 s before the first event, so event seconds
        // land at (at - 0) * 1000 virtual ms.
        let axis = simclock::TimeAxis::anchored_at(0);
        let plan = fault_plan_on_clock(&s, axis);
        let a = RootLetter::A.index() as u64;
        let c = RootLetter::C.index() as u64;
        let d = RootLetter::D.index() as u64;
        // Outage window [100 s, 300 s) ⇒ [100_000, 300_000) ms.
        assert!(plan.spec_at(a, Protocol::Udp, 99_999).is_clean());
        assert!(!plan
            .spec_at(a, Protocol::Udp, 100_000)
            .blackholes
            .is_empty());
        assert!(plan.spec_at(a, Protocol::Udp, 300_000).is_clean());
        // Bitflip window [100 s, 200 s).
        assert_eq!(plan.spec_at(c, Protocol::Tcp, 150_000).bitflip_prob, 0.25);
        assert!(plan.spec_at(c, Protocol::Tcp, 200_000).is_clean());
        // The permanent RTT inflation never ends.
        assert_eq!(
            plan.spec_at(d, Protocol::Udp, u64::MAX - 1).delay_ms,
            50 * BASE_RTT_MS
        );
    }

    #[test]
    fn fleet_plan_keys_outages_by_site_id() {
        let s = scenario();
        let axis = simclock::TimeAxis::anchored_at(0);
        // The fleet side is the farm's failure plan: only the outage
        // addresses a site, and only A's site 0 — not A's other sites,
        // nor site 0 of another letter.
        let plan = failure_plan_on_clock(&s, axis, &[]);
        assert_eq!(plan.windows_for(RootLetter::A, 0).len(), 1);
        assert!(plan.windows_for(RootLetter::A, 1).is_empty());
        assert!(plan.windows_for(RootLetter::C, 0).is_empty());
        // With no roster, the letter-wide RTT inflation has no site to
        // stall: the outage is the plan's only window.
        assert_eq!(plan.faulted_sites(), 1);
        // The two projections derive distinct streams.
        assert_ne!(plan.seed, fault_plan_on_clock(&s, axis).seed);
    }

    #[test]
    fn event_spec_coverage_matches_wire_visible() {
        use netsim::AsId;
        use rss::Renumbering;
        let kinds = [
            EventKind::SiteOutage {
                letter: RootLetter::A,
                site: SiteId(0),
            },
            EventKind::SiteAddition {
                letter: RootLetter::A,
                site: SiteId(0),
            },
            EventKind::PrefixRenumbering {
                change: Renumbering::B_ROOT,
            },
            EventKind::RouteFlapBurst {
                letter: RootLetter::A,
                boost: 2.0,
            },
            EventKind::PeeringLinkFailure {
                a: AsId(1),
                b: AsId(2),
            },
            EventKind::Degraded {
                letter: RootLetter::A,
                mode: DegradedMode::BitflipZone { prob: 0.1 },
            },
            EventKind::Degraded {
                letter: RootLetter::A,
                mode: DegradedMode::StaleZone { stuck_day: 0 },
            },
            EventKind::RttInflation {
                letter: RootLetter::A,
                factor: 2.0,
            },
            // Attack traffic is loadgen-side, not a transport fault: it
            // projects through `attack::attack_plan_on_clock` instead.
            EventKind::AttackFlood {
                letter: RootLetter::A,
                intensity: 10,
            },
            EventKind::ReflectionBurst {
                letter: RootLetter::A,
                victim: AsId(1),
                intensity: 10,
            },
            EventKind::QueryStorm {
                letter: RootLetter::A,
                client: AsId(1),
                intensity: 10,
            },
        ];
        for kind in kinds {
            assert_eq!(
                event_spec(&kind).is_some(),
                kind.wire_visible(),
                "projection and predicate disagree on {}",
                kind.label()
            );
        }
    }

    #[test]
    fn failure_plan_projects_outages_stalls_and_poisoned_reloads() {
        let s = scenario();
        let axis = simclock::TimeAxis::anchored_at(0);
        let roster = vec![
            (RootLetter::A, vec![0, 7]),
            (RootLetter::C, vec![3]),
            (RootLetter::D, vec![4, 5]),
        ];
        let plan = failure_plan_on_clock(&s, axis, &roster);
        // The outage projects to exactly one window on A's site 0, as a
        // crash or a blackhole (never a stall).
        let w = plan.windows_for(RootLetter::A, 0);
        assert_eq!(w.len(), 1);
        assert_eq!((w[0].start_ms, w[0].end_ms), (100_000, 300_000));
        assert!(matches!(
            w[0].kind,
            FailureKind::Crash | FailureKind::Blackhole
        ));
        // The uninvolved site of A stays clean.
        assert!(plan.windows_for(RootLetter::A, 7).is_empty());
        // The letter-wide RTT inflation stalls every rostered D site.
        for site in [4, 5] {
            let w = plan.windows_for(RootLetter::D, site);
            assert_eq!(w.len(), 1, "site {site}");
            assert_eq!(w[0].start_ms, 150_000);
            assert_eq!(w[0].end_ms, u64::MAX);
            assert_eq!(
                w[0].kind,
                FailureKind::Stall {
                    delay_ms: 50 * BASE_RTT_MS
                }
            );
        }
        // The zone bitflip becomes a poisoned reload at C.
        assert_eq!(plan.poisoned_reloads.len(), 1);
        assert_eq!(plan.poisoned_reloads[0].letter, RootLetter::C);
        assert_eq!(plan.poisoned_reloads[0].at_ms, 100_000);
        // Replay identity: same scenario, same plan; own seed stream.
        let again = failure_plan_on_clock(&s, axis, &roster);
        assert_eq!(
            plan.windows_for(RootLetter::A, 0),
            again.windows_for(RootLetter::A, 0)
        );
        assert_eq!(plan.poisoned_reloads, again.poisoned_reloads);
        assert_ne!(plan.seed, fault_plan_on_clock(&s, axis).seed);
    }

    #[test]
    fn plan_seed_is_a_pure_function_of_the_scenario_seed() {
        let s = scenario();
        let axis = simclock::TimeAxis::anchored_at(0);
        let seed = |s: &Scenario| fault_plan_on_clock(s, axis).seed;
        assert_eq!(seed(&s), seed(&s));
        assert_ne!(
            seed(&s),
            Scenario::new("other", 12, vec![])
                .map(|o| seed(&o))
                .unwrap()
        );
    }
}
