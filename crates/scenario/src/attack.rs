//! Scenario events projected onto the load generator: a [`Scenario`]'s
//! adversarial-traffic events, viewed from one letter's fleet, become a
//! `rootd` [`AttackPlan`] the attack engine can execute.
//!
//! Only traffic-scoped events map to attack shapes:
//!
//! * [`EventKind::AttackFlood`] — a water-torture NXDOMAIN flood from a
//!   spoofed botnet ([`rootd::attack::WATER_TORTURE_BOTNET`] sources);
//! * [`EventKind::ReflectionBurst`] — amplification-shaped apex queries
//!   spoofing the victim AS's source address;
//! * [`EventKind::QueryStorm`] — one stub client flooding from its real
//!   address.
//!
//! This is the traffic-side sibling of [`crate::chaos`]: wire faults
//! become a `FaultPlan` for the transports, site failures a
//! `FailurePlan` for the farm, attack traffic an `AttackPlan` for the
//! attack engine, and all three ride the same [`simclock`] axis so one
//! projection serves an entire clock-driven run. The `Traffic` scope's
//! overlap validation guarantees at most one attack per letter at any
//! instant.

use crate::chaos::window_on;
use crate::event::EventKind;
use crate::timeline::Scenario;
use rootd::attack::WATER_TORTURE_BOTNET;
use rootd::{AttackPlan, AttackShape, AttackWindow};
use rss::RootLetter;
use simclock::TimeAxis;

/// The shape one traffic-scoped event aimed at `letter` contributes,
/// independent of timing. Events aimed at other letters (and all
/// non-attack kinds) project to `None`.
fn event_shape(kind: &EventKind, letter: RootLetter) -> Option<AttackShape> {
    match *kind {
        EventKind::AttackFlood {
            letter: l,
            intensity,
        } if l == letter => Some(AttackShape::WaterTorture {
            intensity,
            botnet: WATER_TORTURE_BOTNET,
        }),
        EventKind::ReflectionBurst {
            letter: l,
            victim,
            intensity,
        } if l == letter => Some(AttackShape::Reflection {
            victim: victim.0,
            intensity,
        }),
        EventKind::QueryStorm {
            letter: l,
            client,
            intensity,
        } if l == letter => Some(AttackShape::QueryStorm {
            client: client.0,
            intensity,
        }),
        _ => None,
    }
}

/// Seed the projected plan's attack streams derive from. Distinct from
/// both chaos projections' xors so the three fault/failure/attack
/// streams never correlate.
fn plan_seed(scenario: &Scenario) -> u64 {
    scenario.seed() ^ 0xa77a_c400
}

/// The whole scenario's adversarial traffic against `letter` projected
/// onto one virtual clock: every attack event becomes a windowed
/// [`AttackWindow`] on the `axis` that maps the scenario's wall-clock
/// seconds onto virtual milliseconds. The same plan serves the whole
/// run, and every attack query stays a pure function of
/// `(scenario seed, tick, slot)`.
pub fn attack_plan_on_clock(scenario: &Scenario, letter: RootLetter, axis: TimeAxis) -> AttackPlan {
    let mut plan = AttackPlan {
        seed: plan_seed(scenario),
        windows: Vec::new(),
    };
    for event in scenario.events() {
        if let Some(shape) = event_shape(&event.kind, letter) {
            let (start_ms, end_ms) = window_on(axis, event);
            plan.windows.push(AttackWindow {
                start_ms,
                end_ms,
                shape,
            });
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::ScenarioEvent;
    use netsim::AsId;

    fn scenario() -> Scenario {
        Scenario::new(
            "attack-map",
            11,
            vec![
                ScenarioEvent {
                    at: 100,
                    until: Some(200),
                    kind: EventKind::AttackFlood {
                        letter: RootLetter::B,
                        intensity: 10,
                    },
                },
                ScenarioEvent {
                    at: 250,
                    until: Some(300),
                    kind: EventKind::ReflectionBurst {
                        letter: RootLetter::B,
                        victim: AsId(7),
                        intensity: 8,
                    },
                },
                ScenarioEvent {
                    at: 100,
                    until: None,
                    kind: EventKind::QueryStorm {
                        letter: RootLetter::D,
                        client: AsId(3),
                        intensity: 20,
                    },
                },
                // A fault on the same letter, overlapping the flood: the
                // Traffic scope keeps this a valid timeline.
                ScenarioEvent {
                    at: 100,
                    until: Some(200),
                    kind: EventKind::RttInflation {
                        letter: RootLetter::B,
                        factor: 2.0,
                    },
                },
            ],
        )
        .unwrap()
    }

    /// The attack against `letter` at wall second `t` of `scenario()`,
    /// on an axis anchored at second 0.
    fn shape_at(letter: RootLetter, t: u32) -> Option<AttackShape> {
        let axis = simclock::TimeAxis::anchored_at(0);
        attack_plan_on_clock(&scenario(), letter, axis).shape_at(axis.wall_to_ms(t))
    }

    #[test]
    fn active_attacks_project_to_shapes() {
        assert_eq!(
            shape_at(RootLetter::B, 150),
            Some(AttackShape::WaterTorture {
                intensity: 10,
                botnet: WATER_TORTURE_BOTNET,
            })
        );
        assert_eq!(
            shape_at(RootLetter::D, 150),
            Some(AttackShape::QueryStorm {
                client: 3,
                intensity: 20,
            })
        );
        // An uninvolved letter is quiet; faults never project.
        let axis = simclock::TimeAxis::anchored_at(0);
        assert_eq!(
            attack_plan_on_clock(&scenario(), RootLetter::K, axis).windows,
            vec![]
        );
    }

    #[test]
    fn expired_and_future_attacks_do_not_project() {
        assert_eq!(shape_at(RootLetter::B, 50), None);
        // Flood [100, 200) is over at 220, reflection [250, 300) not yet on.
        assert_eq!(shape_at(RootLetter::B, 220), None);
        assert!(matches!(
            shape_at(RootLetter::B, 260),
            Some(AttackShape::Reflection { victim: 7, .. })
        ));
        // The permanent storm on D never expires.
        assert!(shape_at(RootLetter::D, u32::MAX - 1).is_some());
    }

    #[test]
    fn clock_plan_projects_whole_windows_onto_the_axis() {
        let s = scenario();
        let axis = simclock::TimeAxis::anchored_at(0);
        let plan = attack_plan_on_clock(&s, RootLetter::B, axis);
        assert_eq!(plan.windows.len(), 2);
        // Flood window [100 s, 200 s) ⇒ [100_000, 200_000) ms.
        assert_eq!(plan.shape_at(99_999), None);
        assert!(matches!(
            plan.shape_at(100_000),
            Some(AttackShape::WaterTorture { .. })
        ));
        assert_eq!(plan.shape_at(200_000), None);
        assert!(matches!(
            plan.shape_at(250_000),
            Some(AttackShape::Reflection { .. })
        ));
        // The permanent storm on D never ends on the axis either.
        let d = attack_plan_on_clock(&s, RootLetter::D, axis);
        assert!(d.shape_at(u64::MAX - 1).is_some());
    }

    #[test]
    fn plan_seed_is_pure_and_distinct_from_the_fault_streams() {
        let s = scenario();
        let axis = simclock::TimeAxis::anchored_at(0);
        let plan = attack_plan_on_clock(&s, RootLetter::B, axis);
        assert_eq!(
            plan.seed,
            attack_plan_on_clock(&s, RootLetter::B, axis).seed
        );
        // Same scenario, different projection targets: seeds agree (the
        // letter selects windows, not streams) …
        assert_eq!(
            plan.seed,
            attack_plan_on_clock(&s, RootLetter::D, axis).seed
        );
        // … but the attack streams never share a seed with either chaos
        // projection of the same scenario.
        assert_ne!(plan.seed, crate::chaos::fault_plan_on_clock(&s, axis).seed);
        assert_ne!(
            plan.seed,
            crate::chaos::failure_plan_on_clock(&s, axis, &[]).seed
        );
    }
}
