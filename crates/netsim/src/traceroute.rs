//! Traceroute emulation.
//!
//! Expands a selected route into hop records the way the measurement VPs'
//! `mtr` runs did: one or more router hops per AS, ending with the facility
//! edge router (the *second-to-last* hop — shared across co-located sites)
//! and the anycast service address itself (the last hop).
//!
//! Real traceroutes miss hops (ICMP rate limiting, MPLS tunnels); the model
//! drops the edge-router hop with a configurable probability, which makes
//! the co-location analysis a *lower bound* exactly as §5 of the paper
//! notes.

use crate::anycast::FacilityTable;
use crate::rng::SimRng;
use crate::routing::CandidateRoute;
use crate::topology::Topology;
use crate::types::AsId;

/// One traceroute hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hop {
    /// A router inside `asn` (router id distinguishes parallel paths).
    Router { asn: AsId, router: u64 },
    /// The facility edge router just before the destination.
    FacilityEdge { router: u64 },
    /// The anycast destination answered.
    Destination,
    /// No reply at this TTL.
    Missing,
}

/// A completed traceroute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traceroute {
    pub hops: Vec<Hop>,
}

impl Traceroute {
    /// The second-to-last *answering* hop identity, if visible.
    ///
    /// This is the quantity §5's co-location analysis keys on: sites at the
    /// same facility share it. A missing hop yields `None`, which the
    /// analysis must treat as unique (lower-bounding reduced redundancy).
    pub fn second_to_last_hop(&self) -> Option<u64> {
        // Last hop should be Destination; the one before is the candidate.
        let n = self.hops.len();
        if n < 2 {
            return None;
        }
        match &self.hops[n - 2] {
            Hop::FacilityEdge { router } => Some(*router),
            Hop::Router { router, .. } => Some(*router),
            _ => None,
        }
    }
}

/// Traceroute emulation parameters.
#[derive(Debug, Clone)]
pub struct TracerouteConfig {
    /// Probability that any given intermediate hop does not answer.
    pub missing_hop_prob: f64,
    /// Probability that the facility edge hop specifically is missing
    /// (tunnels/filtering right before the service address).
    pub missing_edge_prob: f64,
}

impl Default for TracerouteConfig {
    fn default() -> Self {
        TracerouteConfig {
            missing_hop_prob: 0.05,
            missing_edge_prob: 0.04,
        }
    }
}

/// Produce a traceroute along `route` to the site hosted at `facility`.
pub fn trace(
    topology: &Topology,
    facilities: &FacilityTable,
    route: &CandidateRoute,
    facility: crate::anycast::FacilityId,
    cfg: &TracerouteConfig,
    rng: &mut SimRng,
) -> Traceroute {
    let mut hops = Vec::new();
    // Client-side first: path is origin-first, so we walk it reversed.
    for asn in route.path.iter().rev() {
        // 1-2 routers per AS; router id derived from AS id for stability.
        let n_routers = 1 + (asn.0 as usize % 2);
        for r in 0..n_routers {
            if rng.chance(cfg.missing_hop_prob) {
                hops.push(Hop::Missing);
            } else {
                hops.push(Hop::Router {
                    asn: *asn,
                    router: ((asn.0 as u64) << 16) | r as u64,
                });
            }
        }
    }
    let _ = topology; // geometry handled by the RTT model; kept for parity
    let edge = facilities.get(facility).edge_router();
    if rng.chance(cfg.missing_edge_prob) {
        hops.push(Hop::Missing);
    } else {
        hops.push(Hop::FacilityEdge { router: edge });
    }
    hops.push(Hop::Destination);
    Traceroute { hops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anycast::{FacilityId, FacilityTable};
    use crate::topology::{Topology, TopologyConfig};
    use crate::types::LearnedFrom;
    use netgeo::{CityDb, Region};

    fn setup() -> (Topology, FacilityTable, CandidateRoute) {
        let t = Topology::generate(&TopologyConfig::default());
        let mut f = FacilityTable::new();
        let host = t.stubs_in(Region::Europe)[0];
        f.add(CityDb::by_name("frankfurt").unwrap(), 0, host);
        let route = CandidateRoute {
            site: crate::anycast::SiteId(0),
            via: None,
            learned_from: LearnedFrom::Origin,
            path: vec![t.stubs_in(Region::Europe)[1], host],
            km: 0,
        };
        (t, f, route)
    }

    #[test]
    fn ends_with_destination() {
        let (t, f, route) = setup();
        let mut rng = SimRng::new(1);
        let tr = trace(
            &t,
            &f,
            &route,
            FacilityId(0),
            &TracerouteConfig::default(),
            &mut rng,
        );
        assert_eq!(tr.hops.last(), Some(&Hop::Destination));
    }

    #[test]
    fn second_to_last_is_facility_edge_when_visible() {
        let (t, f, route) = setup();
        let cfg = TracerouteConfig {
            missing_hop_prob: 0.0,
            missing_edge_prob: 0.0,
        };
        let mut rng = SimRng::new(2);
        let tr = trace(&t, &f, &route, FacilityId(0), &cfg, &mut rng);
        assert_eq!(
            tr.second_to_last_hop(),
            Some(f.get(FacilityId(0)).edge_router())
        );
    }

    #[test]
    fn shared_facility_shares_second_to_last() {
        // Two different "deployments" at the same facility yield the same
        // second-to-last hop — the §5 co-location signal.
        let (t, f, route) = setup();
        let cfg = TracerouteConfig {
            missing_hop_prob: 0.0,
            missing_edge_prob: 0.0,
        };
        let mut rng = SimRng::new(3);
        let a = trace(&t, &f, &route, FacilityId(0), &cfg, &mut rng);
        let b = trace(&t, &f, &route, FacilityId(0), &cfg, &mut rng);
        assert_eq!(a.second_to_last_hop(), b.second_to_last_hop());
    }

    #[test]
    fn missing_edge_hides_identity() {
        let (t, f, route) = setup();
        let cfg = TracerouteConfig {
            missing_hop_prob: 0.0,
            missing_edge_prob: 1.0,
        };
        let mut rng = SimRng::new(4);
        let tr = trace(&t, &f, &route, FacilityId(0), &cfg, &mut rng);
        assert_eq!(tr.second_to_last_hop(), None);
    }

    #[test]
    fn missing_hop_rate_roughly_respected() {
        let (t, f, route) = setup();
        let cfg = TracerouteConfig {
            missing_hop_prob: 0.5,
            missing_edge_prob: 0.0,
        };
        let mut rng = SimRng::new(5);
        let mut missing = 0;
        let mut total = 0;
        for _ in 0..2000 {
            let tr = trace(&t, &f, &route, FacilityId(0), &cfg, &mut rng);
            // Exclude edge + destination.
            for h in &tr.hops[..tr.hops.len() - 2] {
                total += 1;
                if matches!(h, Hop::Missing) {
                    missing += 1;
                }
            }
        }
        let rate = missing as f64 / total as f64;
        assert!((rate - 0.5).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn deterministic_under_seed() {
        let (t, f, route) = setup();
        let cfg = TracerouteConfig::default();
        let mut r1 = SimRng::new(9);
        let mut r2 = SimRng::new(9);
        assert_eq!(
            trace(&t, &f, &route, FacilityId(0), &cfg, &mut r1),
            trace(&t, &f, &route, FacilityId(0), &cfg, &mut r2)
        );
    }
}
