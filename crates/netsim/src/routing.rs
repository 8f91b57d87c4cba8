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
//!
//! # How a route travels
//!
//! A world build propagates 26 tables (13 letters × 2 families) and a
//! serving farm the same 26 again, so [`propagate`] computes each thing
//! once per route. A route in flight is a `Copy` node in an append-only
//! arena — holder, site, via, class, path length, kilometres and the arena
//! index of the route it was exported from — so a push clones no path and
//! a pop no route; loop prevention walks the `parent` links, and
//! `path: Vec<AsId>` is written out once per *retained* candidate at the
//! end. The five-field selection key is packed once per node into a `u128`
//! (class · length · `km / 200` · via-or-0 · site), which is what the heap
//! and the per-neighbor / per-AS "is this better" checks compare. Hop
//! kilometres are read from [`Link::km`](crate::topology::Link::km),
//! measured when the link was made, not recomputed by a haversine per
//! exported route.
//!
//! The push sequence and the comparison results are exactly those of the
//! implementation this replaced (kept under `#[cfg(test)]` as the oracle):
//! `BinaryHeap` pops equal ranks in an order that depends on both, and
//! every table is pinned bit for bit (`tests/golden_replay.rs`).

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
}

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

/// A route in flight: one node of the append-only arena [`propagate`]
/// works in. It is a [`CandidateRoute`] held by `asn` with the path folded
/// into `parent` — the arena index of the route it was exported from —
/// and its length into `len`, so pushing one copies seven words and
/// nothing is cloned until the retained candidates are written out.
#[derive(Clone, Copy)]
struct RouteNode {
    asn: AsId,
    site: SiteId,
    via: Option<AsId>,
    learned_from: LearnedFrom,
    /// `path.len()` of the route this node stands for.
    len: u32,
    km: u32,
    /// The exporter's node; [`NO_PARENT`] for an originated route.
    parent: u32,
}

const NO_PARENT: u32 = u32::MAX;

/// A packed route rank: smaller is better. Class, AS-path length, distance
/// in 200 km buckets, then the deterministic tie-break over via (0 when
/// originated) and site — the five fields compared in that order, as one
/// integer.
type Rank = u128;

/// Bits of a [`Rank`] left for the path length once class (8) and the
/// three 32-bit fields are placed.
const LEN_BITS: u32 = 24;

impl RouteNode {
    fn rank(&self) -> Rank {
        debug_assert!(self.len < 1 << LEN_BITS);
        (self.learned_from as Rank) << 120
            | Rank::from(self.len) << 96
            | Rank::from(self.km / 200) << 64
            | Rank::from(self.via.map_or(0, |a| a.0)) << 32
            | Rank::from(self.site.0)
    }
}

/// Max-heap entry ordered so the globally best (smallest rank) pops first.
/// Only the rank is compared: `BinaryHeap`'s order among equal ranks is a
/// function of the push sequence and of these comparisons, and the tables
/// are pinned bit for bit, so `node` must stay out of it.
struct Queued {
    rank: Rank,
    node: u32,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want best-rank-first.
        other.rank.cmp(&self.rank)
    }
}

/// Append `node` to the arena and queue it under its rank, packed here once.
fn push(arena: &mut Vec<RouteNode>, queue: &mut BinaryHeap<Queued>, node: RouteNode) {
    queue.push(Queued {
        rank: node.rank(),
        node: arena.len() as u32,
    });
    arena.push(node);
}

/// The ASes of `node`'s path, nearest first: the holder itself for an
/// originated route, otherwise every exporter back to the origin.
fn path_rev(arena: &[RouteNode], node: u32) -> impl Iterator<Item = AsId> + '_ {
    let first = match arena[node as usize].learned_from {
        LearnedFrom::Origin => node,
        _ => arena[node as usize].parent,
    };
    std::iter::successors(Some(first), move |&i| {
        Some(arena[i as usize].parent).filter(|&p| p != NO_PARENT)
    })
    .map(move |i| arena[i as usize].asn)
}

/// Propagate routes for `deployment` over `topology` in `family`.
///
/// Every AS keeps its best route per neighbor (so up to `degree` candidates),
/// and exports only according to Gao-Rexford rules:
/// * routes learned from customers (or originated) export to everyone;
/// * routes learned from peers/providers export only to customers.
pub fn propagate(topology: &Topology, deployment: &Deployment, family: Family) -> RouteTable {
    let n = topology.len();
    // A path is loop-free, so no longer than the graph.
    assert!(
        n < 1 << LEN_BITS,
        "path length would not fit its rank field"
    );
    let mut arena: Vec<RouteNode> = Vec::new();
    // Best route per (AS, learned-via-neighbor), as (rank, arena node);
    // sorted and written out as candidates at the end.
    let mut heard: Vec<Vec<(Rank, u32)>> = vec![Vec::new(); n];
    // Best rank already exported by each AS; export happens at most once per
    // improvement, which bounds work like Dijkstra.
    let mut best_rank: Vec<Rank> = vec![Rank::MAX; n];
    let mut queue: BinaryHeap<Queued> = BinaryHeap::new();

    // Seed with origins.
    for site in &deployment.sites {
        let origin = site.origin_as;
        if family == Family::V6 && !topology.node(origin).has_v6 {
            continue;
        }
        let node = RouteNode {
            asn: origin,
            site: site.id,
            via: None,
            learned_from: LearnedFrom::Origin,
            len: 1,
            km: 0,
            parent: NO_PARENT,
        };
        push(&mut arena, &mut queue, node);
    }

    while let Some(Queued { rank, node }) = queue.pop() {
        let route = arena[node as usize];
        let asn = route.asn;
        // Keep as candidate if it is the best route via this neighbor.
        let cand_list = &mut heard[asn.0 as usize];
        let existing = cand_list
            .iter()
            .position(|&(_, c)| arena[c as usize].via == route.via);
        match existing {
            Some(i) if cand_list[i].0 <= rank => continue,
            Some(i) => cand_list[i] = (rank, node),
            None => cand_list.push((rank, node)),
        }
        // Export only if this improves the AS's best route (standard BGP:
        // only the best route is exported).
        if best_rank[asn.0 as usize] <= rank {
            continue;
        }
        best_rank[asn.0 as usize] = rank;
        // Local sites are announced with limited scope ("local to an AS or
        // a metro area", §2): the origin offers them to its IXP peers and
        // customers, and recipients may pass them only *down* their
        // customer cone — never across peers or up to providers. This
        // keeps locality while customers of the hosting ISP still reach
        // the site (they route through their provider, as with a real
        // NO_EXPORT best path plus default routing).
        let is_local = deployment.site(route.site).scope == SiteScope::Local;
        let originated = route.learned_from == LearnedFrom::Origin;
        // Gao-Rexford export rules.
        let exportable_to_all = originated || route.learned_from == LearnedFrom::Customer;
        // An originated route already carries the origin (= `asn`) as its
        // first path element; learned routes exclude the holder.
        let len = if originated { route.len } else { route.len + 1 };
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
                let allowed = if originated {
                    to_customer || link.relation == Relation::Peer
                } else {
                    to_customer
                };
                if !allowed {
                    continue;
                }
            }
            // Loop prevention.
            if path_rev(&arena, node).any(|hop| hop == link.to) {
                continue;
            }
            let learned = match link.relation.reverse() {
                // From the receiver's perspective, what is `asn` to them?
                Relation::Customer => LearnedFrom::Customer,
                Relation::Peer => LearnedFrom::Peer,
                Relation::Provider => LearnedFrom::Provider,
            };
            let next = RouteNode {
                asn: link.to,
                site: route.site,
                via: Some(asn),
                learned_from: learned,
                len,
                km: route.km.saturating_add(link.km),
                parent: node,
            };
            push(&mut arena, &mut queue, next);
        }
    }

    let candidates = heard
        .into_iter()
        .map(|mut list| {
            list.sort_by_key(|&(rank, _)| rank);
            list.into_iter()
                .map(|(_, node)| {
                    let route = &arena[node as usize];
                    let mut path: Vec<AsId> = path_rev(&arena, node).collect();
                    path.reverse();
                    debug_assert_eq!(path.len(), route.len as usize);
                    CandidateRoute {
                        site: route.site,
                        via: route.via,
                        learned_from: route.learned_from,
                        path,
                        km: route.km,
                    }
                })
                .collect()
        })
        .collect();
    RouteTable { candidates, family }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anycast::{FacilityId, Site};
    use crate::topology::TopologyConfig;
    use crate::types::Tier;
    use netgeo::Region;

    fn topo() -> Topology {
        Topology::generate(&TopologyConfig::default())
    }

    /// The implementation [`propagate`] replaced, kept as its oracle: whole
    /// `CandidateRoute`s on the queue (a path clone per push, a route clone
    /// per pop), the rank rebuilt as a tuple at every comparison, and each
    /// hop's kilometres from a haversine instead of [`Link::km`].
    ///
    /// [`Link::km`]: crate::topology::Link::km
    mod reference {
        use super::super::*;

        type RouteRank = (LearnedFrom, usize, u32, u32, u32);

        fn rank(r: &CandidateRoute) -> RouteRank {
            (
                r.learned_from,
                r.path.len(),
                r.km / 200,
                r.via.map(|a| a.0).unwrap_or(0),
                r.site.0,
            )
        }

        struct QueueEntry {
            asn: AsId,
            route: CandidateRoute,
        }

        impl PartialEq for QueueEntry {
            fn eq(&self, other: &Self) -> bool {
                rank(&self.route) == rank(&other.route)
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
                rank(&other.route).cmp(&rank(&self.route))
            }
        }

        pub fn propagate(
            topology: &Topology,
            deployment: &Deployment,
            family: Family,
        ) -> RouteTable {
            let n = topology.len();
            let mut heard: Vec<Vec<CandidateRoute>> = vec![Vec::new(); n];
            let mut best_rank: Vec<Option<RouteRank>> = vec![None; n];
            let mut queue: BinaryHeap<QueueEntry> = BinaryHeap::new();
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
                let via = route.via;
                let cand_list = &mut heard[asn.0 as usize];
                let existing = cand_list.iter().position(|c| c.via == via);
                match existing {
                    Some(i) if rank(&cand_list[i]) <= rank(&route) => continue,
                    Some(i) => cand_list[i] = route.clone(),
                    None => cand_list.push(route.clone()),
                }
                let rank = rank(&route);
                match best_rank[asn.0 as usize] {
                    Some(r) if r <= rank => continue,
                    _ => best_rank[asn.0 as usize] = Some(rank),
                }
                let is_local = deployment.site(route.site).scope == SiteScope::Local;
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
                    if Some(link.to) == route.via {
                        continue;
                    }
                    let to_customer = link.relation == Relation::Customer;
                    if !to_customer && !exportable_to_all {
                        continue;
                    }
                    if is_local {
                        let allowed = if route.learned_from == LearnedFrom::Origin {
                            to_customer || link.relation == Relation::Peer
                        } else {
                            to_customer
                        };
                        if !allowed {
                            continue;
                        }
                    }
                    if route.path.contains(&link.to) {
                        continue;
                    }
                    let learned = match link.relation.reverse() {
                        Relation::Customer => LearnedFrom::Customer,
                        Relation::Peer => LearnedFrom::Peer,
                        Relation::Provider => LearnedFrom::Provider,
                    };
                    let mut path = route.path.clone();
                    if route.learned_from != LearnedFrom::Origin {
                        path.push(asn);
                    }
                    let hop_km = topology
                        .node(asn)
                        .coord()
                        .distance_km(&topology.node(link.to).coord())
                        as u32;
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
                list.sort_by_key(rank);
            }
            RouteTable {
                candidates: heard,
                family,
            }
        }
    }

    /// Thirteen deployments laid out the way `rss::RootCatalog::build` lays
    /// out the letters: every site at a colo AS added after generation
    /// (two regional providers, IXP-style peers), global and local scopes
    /// mixed, several letters sharing a colo.
    fn catalog_like(t: &mut Topology, seed: u64, sites_per_letter: usize) -> Vec<Deployment> {
        let mut rng = crate::SimRng::new(seed).derive("catalog-like");
        let cities = netgeo::CityDb::all();
        let mut colos: Vec<AsId> = Vec::new();
        (0..13)
            .map(|letter| {
                let n_sites = 1 + rng.next_range(sites_per_letter);
                let sites = (0..n_sites)
                    .map(|i| {
                        let host = if !colos.is_empty() && rng.chance(0.3) {
                            *rng.pick(&colos)
                        } else {
                            let city = &cities[rng.next_range(cities.len())];
                            let host =
                                t.add_as(format!("colo-{}", colos.len()), Tier::Tier2, city, true);
                            let regional: Vec<AsId> = t
                                .by_tier(Tier::Tier2)
                                .filter(|n| n.region == city.region && n.id != host)
                                .map(|n| n.id)
                                .collect();
                            for k in 0..6 {
                                let relation = if k < 2 {
                                    Relation::Provider
                                } else {
                                    Relation::Peer
                                };
                                t.add_link(host, *rng.pick(&regional), relation, true, true);
                            }
                            colos.push(host);
                            host
                        };
                        Site {
                            id: SiteId(i as u32),
                            facility: FacilityId(i as u32),
                            scope: if rng.chance(0.4) {
                                SiteScope::Local
                            } else {
                                SiteScope::Global
                            },
                            origin_as: host,
                            instance_stem: format!("l{letter}s{i}"),
                        }
                    })
                    .collect();
                Deployment {
                    name: format!("letter-{letter}"),
                    sites,
                }
            })
            .collect()
    }

    /// `d` with its first `n` sites (at most all but one) withdrawn, ids kept.
    fn withdraw(d: &Deployment, n: usize) -> Deployment {
        Deployment {
            name: d.name.clone(),
            sites: d.sites[n.min(d.sites.len() - 1)..].to_vec(),
        }
    }

    fn assert_matches_reference(t: &Topology, d: &Deployment, what: &str) {
        for family in Family::BOTH {
            let new = propagate(t, d, family);
            let old = reference::propagate(t, d, family);
            for node in t.nodes() {
                assert_eq!(
                    new.candidates(node.id),
                    old.candidates(node.id),
                    "{what} {} {family:?}: {}",
                    d.name,
                    node.name
                );
            }
            assert_eq!(new.fingerprint(), old.fingerprint());
        }
    }

    #[test]
    fn propagate_matches_the_reference_on_catalog_shaped_worlds() {
        let tiny = TopologyConfig {
            tier2_per_region: 5,
            stubs_per_region: [8, 12, 40, 25, 8, 10],
            ..Default::default()
        };
        for (what, cfg, sites_per_letter) in [
            ("tiny", tiny, 8),
            ("default", TopologyConfig::default(), 40),
        ] {
            let mut t = Topology::generate(&cfg);
            let letters = catalog_like(&mut t, 0x2023_0703, sites_per_letter);
            for d in &letters {
                for withdrawn in [0, 1, 3] {
                    assert_matches_reference(&t, &withdraw(d, withdrawn), what);
                }
            }
        }
    }

    #[test]
    fn propagate_matches_the_reference_on_random_topologies() {
        // The parameter ranges of `tests/proptest_netsim.rs`, which cannot
        // see the reference from outside the crate.
        let mut rng = crate::SimRng::new(0x5eed).derive("routing-differential");
        for case in 0..24 {
            let stubs = 2 + rng.next_range(10);
            let cfg = TopologyConfig {
                tier1_count: 3 + rng.next_range(7),
                tier2_per_region: 2 + rng.next_range(4),
                stubs_per_region: [stubs, stubs + 1, stubs * 3, stubs * 2, stubs, stubs + 2],
                v4_only_stub_fraction: rng.next_f64() * 0.5,
                open_v6_peering_fraction: rng.next_f64() * 0.6,
                seed: rng.next_u64(),
            };
            let mut t = Topology::generate(&cfg);
            for d in catalog_like(&mut t, rng.next_u64(), 4).iter().take(3) {
                assert_matches_reference(&t, d, &format!("case {case}"));
            }
        }
    }

    #[test]
    fn link_km_is_the_distance_between_home_cities_from_either_end() {
        let mut t = topo();
        // Links made after generation (`add_link`) as well.
        catalog_like(&mut t, 7, 8);
        for node in t.nodes() {
            for l in t.links(node.id) {
                let far = t.node(l.to);
                assert_eq!(l.km, node.coord().distance_km(&far.coord()) as u32);
                assert_eq!(l.km, far.coord().distance_km(&node.coord()) as u32);
            }
        }
    }

    #[test]
    fn rank_orders_routes_as_the_five_field_tuple_does() {
        // Every field at its ends and one step inside them: nothing
        // carries into a neighbour, and via `None` ties with AS 0.
        let vias = [None, Some(AsId(0)), Some(AsId(1)), Some(AsId(u32::MAX))];
        let classes = [
            LearnedFrom::Origin,
            LearnedFrom::Customer,
            LearnedFrom::Peer,
            LearnedFrom::Provider,
        ];
        let mut nodes = Vec::new();
        for learned_from in classes {
            for len in [1, 2, (1 << LEN_BITS) - 1] {
                for km in [0, 199, 200, u32::MAX] {
                    for via in vias {
                        for site in [0, 1, u32::MAX] {
                            nodes.push(RouteNode {
                                asn: AsId(0),
                                site: SiteId(site),
                                via,
                                learned_from,
                                len,
                                km,
                                parent: NO_PARENT,
                            });
                        }
                    }
                }
            }
        }
        let tuple = |r: &RouteNode| {
            let via = r.via.map_or(0, |a| a.0);
            (r.learned_from, r.len, r.km / 200, via, r.site.0)
        };
        for a in &nodes {
            assert!(a.rank() < Rank::MAX, "Rank::MAX is the no-route sentinel");
            for b in &nodes {
                assert_eq!(a.rank().cmp(&b.rank()), tuple(a).cmp(&tuple(b)));
            }
        }
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
