//! RTT model: geographic propagation over the AS path, per-hop processing,
//! and round-to-round jitter.
//!
//! The dominant term is fibre propagation over the hop-to-hop great-circle
//! distances (see `netgeo::delay`), which is what makes out-of-continent
//! routing expensive — the mechanism behind the paper's v4/v6 RTT
//! asymmetries (§6).

use crate::anycast::FacilityTable;
use crate::rng::SimRng;
use crate::routing::CandidateRoute;
use crate::topology::Topology;
use netgeo::{fiber_rtt_ms, Coord};

/// RTT model parameters.
#[derive(Debug, Clone)]
pub struct RttModel {
    /// Fixed per-AS-hop processing/queueing cost (ms, round trip).
    pub per_hop_ms: f64,
    /// Multiplicative jitter sigma (lognormal-ish: rtt * exp(sigma * N(0,1))).
    pub jitter_sigma: f64,
    /// Floor for any measured RTT (kernel + local link).
    pub floor_ms: f64,
}

impl Default for RttModel {
    fn default() -> Self {
        RttModel {
            per_hop_ms: 0.6,
            jitter_sigma: 0.08,
            floor_ms: 0.3,
        }
    }
}

/// What a base RTT is made of before any [`RttModel`] parameter applies:
/// the great-circle distance from a client along a route to a site's
/// facility, and the route's AS-path length. A function of the topology
/// alone, so it can be kept while routing stands and priced by any model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathGeometry {
    pub km: f64,
    pub path_len: u32,
}

impl PathGeometry {
    /// Geometry: client → first-hop AS city → ... → origin AS city →
    /// facility city, accumulating great-circle distance leg by leg, client
    /// side first (the sum is not reassociated: a kept geometry prices to
    /// the bits a fresh walk does). Policy detours (e.g. a v6 path through
    /// a remote open-peering backbone) thus cost real kilometres.
    pub fn of(
        topology: &Topology,
        facilities: &FacilityTable,
        client_coord: Coord,
        route: &CandidateRoute,
        site_facility: crate::anycast::FacilityId,
    ) -> PathGeometry {
        let mut km = 0.0;
        let mut prev = client_coord;
        // Path is origin-first; walk it client-side first, so iterate in
        // reverse (self's neighbor ... origin).
        for asn in route.path.iter().rev() {
            let c = topology.node(*asn).coord();
            km += prev.distance_km(&c);
            prev = c;
        }
        let fac = facilities.get(site_facility);
        km += prev.distance_km(&fac.coord());
        PathGeometry {
            km,
            path_len: u32::try_from(route.path.len()).expect("AS path length fits u32"),
        }
    }
}

impl RttModel {
    /// Deterministic base RTT (no jitter) from a client at `client_coord`
    /// over `route` to the site's facility: [`PathGeometry::of`] priced by
    /// [`path_rtt_ms`](Self::path_rtt_ms).
    pub fn base_rtt_ms(
        &self,
        topology: &Topology,
        facilities: &FacilityTable,
        client_coord: Coord,
        route: &CandidateRoute,
        site_facility: crate::anycast::FacilityId,
    ) -> f64 {
        self.path_rtt_ms(PathGeometry::of(
            topology,
            facilities,
            client_coord,
            route,
            site_facility,
        ))
    }

    /// Base RTT over a path of known geometry: fibre propagation over its
    /// kilometres plus the per-hop cost of every AS hop and the last mile,
    /// never under the floor.
    #[inline]
    pub fn path_rtt_ms(&self, path: PathGeometry) -> f64 {
        let hops = path.path_len as f64 + 1.0;
        (fiber_rtt_ms(path.km) + hops * self.per_hop_ms).max(self.floor_ms)
    }

    /// Apply round-specific jitter to a base RTT.
    pub fn jittered(&self, base_ms: f64, rng: &mut SimRng) -> f64 {
        let factor = (self.jitter_sigma * rng.next_gaussian()).exp();
        (base_ms * factor).max(self.floor_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anycast::{Deployment, FacilityTable, Site, SiteId, SiteScope};
    use crate::routing::propagate;
    use crate::topology::{Topology, TopologyConfig};
    use crate::types::Family;
    use netgeo::{CityDb, Region};

    fn world() -> (Topology, FacilityTable) {
        let t = Topology::generate(&TopologyConfig::default());
        let mut f = FacilityTable::new();
        f.add(
            CityDb::by_name("frankfurt").unwrap(),
            0,
            t.stubs_in(Region::Europe)[0],
        );
        (t, f)
    }

    #[test]
    fn nearby_client_sees_low_rtt() {
        let (t, f) = world();
        let origin = t.stubs_in(Region::Europe)[0];
        let d = Deployment {
            name: "x".into(),
            sites: vec![Site {
                id: SiteId(0),
                facility: crate::anycast::FacilityId(0),
                scope: SiteScope::Global,
                origin_as: origin,
                instance_stem: "fra1".into(),
            }],
        };
        let table = propagate(&t, &d, Family::V4);
        let model = RttModel::default();
        // A client in Frankfurt reaching a Frankfurt site via a local path.
        let fra = CityDb::by_name("frankfurt").unwrap().coord;
        let route = table.best(origin).unwrap();
        let rtt = model.base_rtt_ms(&t, &f, fra, route, crate::anycast::FacilityId(0));
        assert!(rtt < 20.0, "got {rtt}");
    }

    #[test]
    fn transoceanic_detour_costs_more() {
        let (t, f) = world();
        let model = RttModel::default();
        let syd = CityDb::by_name("sydney").unwrap().coord;
        let fra = CityDb::by_name("frankfurt").unwrap().coord;
        // Fake routes: direct (empty-ish path) vs detour through Tokyo AS.
        let origin = t.stubs_in(Region::Europe)[0];
        let direct = CandidateRoute {
            site: SiteId(0),
            via: None,
            learned_from: crate::types::LearnedFrom::Origin,
            path: vec![origin],
            km: 0,
        };
        let rtt_from_fra = model.base_rtt_ms(&t, &f, fra, &direct, crate::anycast::FacilityId(0));
        let rtt_from_syd = model.base_rtt_ms(&t, &f, syd, &direct, crate::anycast::FacilityId(0));
        assert!(rtt_from_syd > rtt_from_fra + 100.0);
    }

    #[test]
    fn jitter_centred_on_base() {
        let model = RttModel::default();
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let base = 50.0;
        let mean: f64 = (0..n).map(|_| model.jittered(base, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - base).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn jitter_respects_floor() {
        let model = RttModel {
            floor_ms: 2.0,
            jitter_sigma: 3.0,
            per_hop_ms: 0.0,
        };
        let mut rng = SimRng::new(6);
        for _ in 0..1000 {
            assert!(model.jittered(2.0, &mut rng) >= 2.0);
        }
    }

    #[test]
    fn more_hops_cost_more() {
        let (t, f) = world();
        let model = RttModel {
            jitter_sigma: 0.0,
            ..Default::default()
        };
        let fra = CityDb::by_name("frankfurt").unwrap().coord;
        let origin = t.stubs_in(Region::Europe)[0];
        let short = CandidateRoute {
            site: SiteId(0),
            via: None,
            learned_from: crate::types::LearnedFrom::Origin,
            path: vec![origin],
            km: 0,
        };
        // Same geography, one extra hop through the same AS's city.
        let long = CandidateRoute {
            path: vec![origin, origin],
            km: 0,
            ..short.clone()
        };
        let a = model.base_rtt_ms(&t, &f, fra, &short, crate::anycast::FacilityId(0));
        let b = model.base_rtt_ms(&t, &f, fra, &long, crate::anycast::FacilityId(0));
        assert!(b > a);
    }
}
