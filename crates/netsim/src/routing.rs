//! Gao-Rexford policy routing.
//!
//! For one anycast destination (a deployment's service prefix in one address
//! family), [`propagate`] computes, for every AS, the set of *candidate
//! routes* it would hear and the one it selects. The algorithm is the
//! standard three-stage BGP abstraction:
//!
//! 1. routes travel **up** customer→provider edges from the origins,
//! 2. cross at most one **peer** edge,
//! 3. travel **down** provider→customer edges,
//!
//! with selection order: learned-from class (customer > peer > provider) ▸
//! shorter AS path ▸ deterministic tie-break. Local (NO_EXPORT) sites are
//! only visible to the origin AS itself and its direct neighbors.
//!
//! The per-AS *candidate list* (best route per neighbor) is retained: the
//! churn model flips between near-equal candidates to produce the site
//! changes the paper measures in Figure 3.

use crate::anycast::{Deployment, SiteId, SiteScope};
use crate::fingerprint::Fingerprint;
use crate::topology::Topology;
use crate::types::{AsId, Family, LearnedFrom, Relation};
use std::collections::BinaryHeap;

/// One route an AS heard for the destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateRoute {
    /// Which site the route leads to.
    pub site: SiteId,
    /// The neighbor the route was learned from (`None` when originated).
    pub via: Option<AsId>,
    /// Gao-Rexford class.
    pub learned_from: LearnedFrom,
    /// AS-path as a list of AS hops, destination-first (origin ... self
    /// exclusive — `self` is implicit). `path[0]` is the origin AS.
    pub path: Vec<AsId>,
    /// Accumulated great-circle kilometres along the path's AS home cities
    /// — a stand-in for IGP metrics / hot-potato locality. Used as a
    /// tie-break after class and path length, which is what keeps most
    /// catchments geographically sensible while still letting policy
    /// (e.g. the open v6 peering backbone winning on CLASS) produce the
    /// out-of-continent detours the paper observes.
    pub km: u32,
}

impl CandidateRoute {
    /// AS-path length (hops to the origin).
    pub fn path_len(&self) -> usize {
        self.path.len()
    }

    /// Selection key: smaller is better (class, length, IGP-ish distance
    /// in 200 km buckets, deterministic tie-break over via/site).
    fn rank(&self) -> RouteRank {
        (
            self.learned_from,
            self.path.len(),
            self.km / 200,
            self.via.map(|a| a.0).unwrap_or(0),
            self.site.0,
        )
    }
}

/// [`CandidateRoute::rank`]'s ordering key: (class, path length, distance
/// bucket, via tie-break, site tie-break).
type RouteRank = (LearnedFrom, usize, u32, u32, u32);

/// Routing outcome for one destination in one family.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Candidate routes per AS (index = AsId), best-first.
    candidates: Vec<Vec<CandidateRoute>>,
    pub family: Family,
}

impl RouteTable {
    /// Candidates heard by `asn`, best-first. Empty when unreachable.
    pub fn candidates(&self, asn: AsId) -> &[CandidateRoute] {
        &self.candidates[asn.0 as usize]
    }

    /// The best route of `asn`, if any.
    pub fn best(&self, asn: AsId) -> Option<&CandidateRoute> {
        self.candidates[asn.0 as usize].first()
    }

    /// Whether `asn` can reach the destination at all.
    pub fn reachable(&self, asn: AsId) -> bool {
        !self.candidates[asn.0 as usize].is_empty()
    }

    /// Order-sensitive FNV-style digest over the complete candidate set
    /// (every AS, every candidate, selection-relevant fields). Two tables
    /// with equal fingerprints route identically — the snapshot/restore
    /// round-trip tests and the planner's revert invariant both hinge on
    /// this being sensitive to candidate *order*, not just membership.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        h.mix(self.family.index() as u64);
        for (asn, cands) in self.candidates.iter().enumerate() {
            for c in cands {
                h.mix(asn as u64);
                h.mix(u64::from(c.site.0));
                h.mix(c.via.map(|a| u64::from(a.0) + 1).unwrap_or(0));
                h.mix(c.learned_from as u64);
                h.mix(c.path.len() as u64);
                h.mix(u64::from(c.km));
            }
        }
        h.finish()
    }
}

/// Max-heap entry ordered so the globally best (smallest rank) pops first.
struct QueueEntry {
    asn: AsId,
    route: CandidateRoute,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.route.rank() == other.route.rank()
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want best-rank-first.
        other.route.rank().cmp(&self.route.rank())
    }
}

/// Propagate routes for `deployment` over `topology` in `family`.
///
/// Every AS keeps its best route per neighbor (so up to `degree` candidates),
/// and exports only according to Gao-Rexford rules:
/// * routes learned from customers (or originated) export to everyone;
/// * routes learned from peers/providers export only to customers.
pub fn propagate(topology: &Topology, deployment: &Deployment, family: Family) -> RouteTable {
    let n = topology.len();
    // Best route per (AS, learned-via-neighbor). Keyed by neighbor id in a
    // small per-AS map; we keep the overall sorted list at the end.
    let mut heard: Vec<Vec<CandidateRoute>> = vec![Vec::new(); n];
    // Best rank already exported by each AS; export happens at most once per
    // improvement, which bounds work like Dijkstra.
    let mut best_rank: Vec<Option<RouteRank>> = vec![None; n];
    let mut queue: BinaryHeap<QueueEntry> = BinaryHeap::new();

    // Seed with origins.
    for site in &deployment.sites {
        let origin = site.origin_as;
        if family == Family::V6 && !topology.node(origin).has_v6 {
            continue;
        }
        let route = CandidateRoute {
            site: site.id,
            via: None,
            learned_from: LearnedFrom::Origin,
            path: vec![origin],
            km: 0,
        };
        queue.push(QueueEntry { asn: origin, route });
    }

    while let Some(QueueEntry { asn, route }) = queue.pop() {
        // Keep as candidate if it is the best route via this neighbor.
        let via = route.via;
        let cand_list = &mut heard[asn.0 as usize];
        let existing = cand_list.iter().position(|c| c.via == via);
        match existing {
            Some(i) if cand_list[i].rank() <= route.rank() => continue,
            Some(i) => cand_list[i] = route.clone(),
            None => cand_list.push(route.clone()),
        }
        // Export only if this improves the AS's best route (standard BGP:
        // only the best route is exported).
        let rank = route.rank();
        match best_rank[asn.0 as usize] {
            Some(r) if r <= rank => continue,
            _ => best_rank[asn.0 as usize] = Some(rank),
        }
        // Local sites are announced with limited scope ("local to an AS or
        // a metro area", §2): the origin offers them to its IXP peers and
        // customers, and recipients may pass them only *down* their
        // customer cone — never across peers or up to providers. This
        // keeps locality while customers of the hosting ISP still reach
        // the site (they route through their provider, as with a real
        // NO_EXPORT best path plus default routing).
        let is_local = deployment.site(route.site).scope == SiteScope::Local;
        // Gao-Rexford export rules.
        let exportable_to_all = matches!(
            route.learned_from,
            LearnedFrom::Origin | LearnedFrom::Customer
        );
        for link in topology.links(asn) {
            if !link.carries(family) {
                continue;
            }
            if family == Family::V6 && !topology.node(link.to).has_v6 {
                continue;
            }
            // Never send a route back where it came from.
            if Some(link.to) == route.via {
                continue;
            }
            // Export policy: to customers always; to peers/providers only
            // customer-or-origin routes.
            let to_customer = link.relation == Relation::Customer;
            if !to_customer && !exportable_to_all {
                continue;
            }
            if is_local {
                // Origin: customers + peers (the IXP fabric). Everyone
                // else: customers only.
                let allowed = if route.learned_from == LearnedFrom::Origin {
                    to_customer || link.relation == Relation::Peer
                } else {
                    to_customer
                };
                if !allowed {
                    continue;
                }
            }
            // Loop prevention.
            if route.path.contains(&link.to) {
                continue;
            }
            let learned = match link.relation.reverse() {
                // From the receiver's perspective, what is `asn` to them?
                Relation::Customer => LearnedFrom::Customer,
                Relation::Peer => LearnedFrom::Peer,
                Relation::Provider => LearnedFrom::Provider,
            };
            let mut path = route.path.clone();
            // An originated route already carries the origin (= `asn`) as
            // its first path element; learned routes exclude the holder.
            if route.learned_from != LearnedFrom::Origin {
                path.push(asn);
            }
            let hop_km = topology
                .node(asn)
                .coord()
                .distance_km(&topology.node(link.to).coord()) as u32;
            queue.push(QueueEntry {
                asn: link.to,
                route: CandidateRoute {
                    site: route.site,
                    via: Some(asn),
                    learned_from: learned,
                    path,
                    km: route.km.saturating_add(hop_km),
                },
            });
        }
    }

    for list in &mut heard {
        list.sort_by_key(|c| c.rank());
    }
    RouteTable {
        candidates: heard,
        family,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anycast::{FacilityId, Site};
    use crate::topology::TopologyConfig;
    use netgeo::Region;

    fn topo() -> Topology {
        Topology::generate(&TopologyConfig::default())
    }

    fn single_site_deployment(origin: AsId, scope: SiteScope) -> Deployment {
        Deployment {
            name: "test".into(),
            sites: vec![Site {
                id: SiteId(0),
                facility: FacilityId(0),
                scope,
                origin_as: origin,
                instance_stem: "x1".into(),
            }],
        }
    }

    #[test]
    fn global_site_reachable_from_everywhere_v4() {
        let t = topo();
        let origin = t.stubs_in(Region::Europe)[0];
        let d = single_site_deployment(origin, SiteScope::Global);
        let table = propagate(&t, &d, Family::V4);
        for node in t.nodes() {
            assert!(
                table.reachable(node.id),
                "{} cannot reach global site",
                node.name
            );
        }
    }

    #[test]
    fn origin_selects_itself() {
        let t = topo();
        let origin = t.stubs_in(Region::Asia)[0];
        let d = single_site_deployment(origin, SiteScope::Global);
        let table = propagate(&t, &d, Family::V4);
        let best = table.best(origin).unwrap();
        assert_eq!(best.learned_from, LearnedFrom::Origin);
        assert_eq!(best.path, vec![origin]);
    }

    #[test]
    fn local_site_scoped_to_origin_neighborhood_cone() {
        // Local sites live at colo/IXP ASes (tier-2, with peers and
        // customers), not at stubs.
        let t = topo();
        let origin = t
            .by_tier(crate::types::Tier::Tier2)
            .find(|n| n.region == Region::Europe)
            .unwrap()
            .id;
        let d = single_site_deployment(origin, SiteScope::Local);
        let table = propagate(&t, &d, Family::V4);
        let mut reachable = 0usize;
        for node in t.nodes() {
            if let Some(best) = table.best(node.id) {
                reachable += 1;
                // Local routes reach an AS only as: the origin itself, a
                // direct neighbor of the origin, or down a provider chain
                // (customer-cone propagation).
                let ok = node.id == origin
                    || best.via == Some(origin)
                    || best.learned_from == LearnedFrom::Provider;
                assert!(ok, "{}: {:?}", node.name, best);
            }
        }
        // Locality: a strict subset of the topology hears the route, but
        // more than just the origin — its IXP peers and their customer
        // cones do, which for a well-peered European tier-2 is a sizable
        // regional footprint (cf. Table 4's ~77% local-site coverage in
        // Europe).
        assert!(reachable > 1, "no neighborhood heard the local route");
        assert!(
            reachable < t.len() * 4 / 5,
            "local route spread too far: {reachable}/{}",
            t.len()
        );
    }

    #[test]
    fn v6_unreachable_for_v4_only_stub() {
        let t = topo();
        let origin = t.stubs_in(Region::Europe)[0];
        let d = single_site_deployment(origin, SiteScope::Global);
        let table = propagate(&t, &d, Family::V6);
        let v4_only: Vec<AsId> = t
            .nodes()
            .iter()
            .filter(|n| !n.has_v6)
            .map(|n| n.id)
            .collect();
        assert!(!v4_only.is_empty());
        for asn in v4_only {
            assert!(!table.reachable(asn));
        }
    }

    #[test]
    fn paths_are_loop_free_and_valley_free() {
        let t = topo();
        let origin = t.stubs_in(Region::NorthAmerica)[0];
        let d = single_site_deployment(origin, SiteScope::Global);
        let table = propagate(&t, &d, Family::V4);
        for node in t.nodes() {
            if let Some(best) = table.best(node.id) {
                // Loop-free.
                let mut seen = std::collections::HashSet::new();
                for hop in &best.path {
                    assert!(seen.insert(*hop), "loop via {hop} for {}", node.name);
                }
                // Learned routes never list the holder; originated routes
                // list the holder exactly once (as the origin).
                if best.learned_from != LearnedFrom::Origin {
                    assert!(!best.path.contains(&node.id), "self in path");
                }
            }
        }
    }

    #[test]
    fn customer_routes_preferred() {
        // For any AS, the selected class must be the minimum among its
        // candidates — i.e. selection respects Gao-Rexford preference.
        let t = topo();
        let origin = t.stubs_in(Region::Europe)[1];
        let d = single_site_deployment(origin, SiteScope::Global);
        let table = propagate(&t, &d, Family::V4);
        for node in t.nodes() {
            let cands = table.candidates(node.id);
            if cands.len() > 1 {
                assert!(cands
                    .windows(2)
                    .all(|w| w[0].learned_from <= w[1].learned_from));
            }
        }
    }

    #[test]
    fn multi_site_splits_catchments() {
        let t = topo();
        let eu = t.stubs_in(Region::Europe)[0];
        let na = t.stubs_in(Region::NorthAmerica)[0];
        let d = Deployment {
            name: "two".into(),
            sites: vec![
                Site {
                    id: SiteId(0),
                    facility: FacilityId(0),
                    scope: SiteScope::Global,
                    origin_as: eu,
                    instance_stem: "eu1".into(),
                },
                Site {
                    id: SiteId(1),
                    facility: FacilityId(1),
                    scope: SiteScope::Global,
                    origin_as: na,
                    instance_stem: "na1".into(),
                },
            ],
        };
        let table = propagate(&t, &d, Family::V4);
        let mut catchment = [0usize; 2];
        for node in t.nodes() {
            if let Some(best) = table.best(node.id) {
                catchment[best.site.0 as usize] += 1;
            }
        }
        // Both sites attract some traffic.
        assert!(catchment[0] > 0 && catchment[1] > 0, "{catchment:?}");
    }

    #[test]
    fn deterministic_propagation() {
        let t = topo();
        let origin = t.stubs_in(Region::Oceania)[0];
        let d = single_site_deployment(origin, SiteScope::Global);
        let a = propagate(&t, &d, Family::V4);
        let b = propagate(&t, &d, Family::V4);
        for node in t.nodes() {
            assert_eq!(a.best(node.id), b.best(node.id));
        }
    }

    #[test]
    fn open_v6_backbone_attracts_peer_routes() {
        // An AS with an open v6 peering to the backbone should see the
        // destination via that peer when the destination's origin also
        // peers with or is reachable through the backbone.
        let t = topo();
        let d = single_site_deployment(t.open_peering_backbone, SiteScope::Global);
        let table = propagate(&t, &d, Family::V6);
        let mut via_peer = 0;
        for node in t.nodes() {
            if let Some(best) = table.best(node.id) {
                if best.learned_from == LearnedFrom::Peer {
                    via_peer += 1;
                }
            }
        }
        assert!(via_peer > 30, "only {via_peer} v6 peer-learned routes");
    }
}
