//! Shared event apply/revert machinery.
//!
//! One scenario event mutates world state (withdraw a site, disable a
//! link, force a ZONEMD phase); [`apply_event`] performs the mutation and
//! returns a [`WorldSnapshot`] that [`revert_event`] uses to undo it
//! *exactly* — the apply→revert round trip is proven bit-identical against
//! [`vantage::World::routing_hash`] by this crate's proptests. The
//! machinery lives here (rather than inside the engine) so other
//! subsystems can drive a world through event state without running a
//! measurement: the scenario engine's epoch walk and the planner's
//! timeline-pinned candidate scoring both build on these two functions.

use crate::event::{DegradedMode, EventKind};
use dns_zone::rollout::RolloutPhase;
use netsim::anycast::SiteId;
use rss::RootLetter;
use vantage::World;

/// What [`apply_event`] saved so [`revert_event`] can undo the mutation
/// exactly.
pub enum WorldSnapshot {
    /// Nothing to save (override-only or analysis-only events).
    None,
    /// A withdrawn site; revert restores it.
    Outage { letter: RootLetter, site: SiteId },
    /// A site brought into service; revert withdraws it again.
    Addition { letter: RootLetter, site: SiteId },
    /// A disabled link with its prior carriage flags (`None` when the
    /// link did not exist and nothing was changed).
    Link {
        a: netsim::AsId,
        b: netsim::AsId,
        prior: Option<(bool, bool)>,
    },
    /// The ZONEMD override in force before this event set its own.
    Zonemd { prev: Option<RolloutPhase> },
}

/// Apply one event's world mutation. Returns the snapshot for
/// [`revert_event`] and whether routing ground truth changed.
pub fn apply_event(world: &mut World, kind: EventKind) -> (WorldSnapshot, bool) {
    match kind {
        EventKind::SiteOutage { letter, site } => {
            if world.withdraw_site(letter, site) {
                (WorldSnapshot::Outage { letter, site }, true)
            } else {
                (WorldSnapshot::None, false)
            }
        }
        EventKind::SiteAddition { letter, site } => {
            if world.restore_site(letter, site) {
                (WorldSnapshot::Addition { letter, site }, true)
            } else {
                (WorldSnapshot::None, false)
            }
        }
        EventKind::PeeringLinkFailure { a, b } => {
            let prior = world.topology.disable_link(a, b);
            if prior.is_some() {
                world.recompute_all();
            }
            (WorldSnapshot::Link { a, b, prior }, prior.is_some())
        }
        EventKind::Degraded {
            mode: DegradedMode::ZonemdPhase { phase },
            ..
        } => {
            let prev = world.zonemd_override();
            world.set_zonemd_override(Some(phase));
            (WorldSnapshot::Zonemd { prev }, false)
        }
        // Renumbering is an identity change, not a topology change: the
        // measurement already targets both prefixes and the analysis/trace
        // layers read the change date from the scenario. Attack traffic
        // mutates nothing server-side either — it projects onto the
        // attack engine via `attack_plan_on_clock`, the way wire faults
        // project onto a client's transports via `fault_plan_on_clock`
        // and site failures onto the farm via `failure_plan_on_clock`.
        EventKind::PrefixRenumbering { .. }
        | EventKind::RouteFlapBurst { .. }
        | EventKind::RttInflation { .. }
        | EventKind::Degraded { .. }
        | EventKind::AttackFlood { .. }
        | EventKind::ReflectionBurst { .. }
        | EventKind::QueryStorm { .. } => (WorldSnapshot::None, false),
    }
}

/// Undo one applied event. Returns whether routing ground truth changed.
pub fn revert_event(world: &mut World, snap: WorldSnapshot) -> bool {
    match snap {
        WorldSnapshot::None => false,
        WorldSnapshot::Outage { letter, site } => world.restore_site(letter, site),
        WorldSnapshot::Addition { letter, site } => world.withdraw_site(letter, site),
        WorldSnapshot::Link { a, b, prior } => match prior {
            Some((v4, v6)) => {
                world.topology.set_link_carriage(a, b, v4, v6);
                world.recompute_all();
                true
            }
            None => false,
        },
        WorldSnapshot::Zonemd { prev } => {
            world.set_zonemd_override(prev);
            false
        }
    }
}
