//! The AS graph and its generator.
//!
//! The generated topology follows the coarse structure of the real Internet:
//!
//! * a small clique of **tier-1** backbones peering with each other, each
//!   homed in a major city;
//! * **tier-2** regional transit providers, customers of 2-3 tier-1s and
//!   peering regionally (at "IXPs" — modelled as dense regional peering);
//! * **stub** edge networks (where vantage points and resolvers live),
//!   customers of 1-2 in-region tier-2s, some multihomed across regions;
//! * per-family link masks: some stubs are v4-only; one designated backbone
//!   (`open_peering_backbone`, the AS6939 stand-in) has an *open v6 peering
//!   policy* — extra v6-only peer links to many networks worldwide. The
//!   paper traces several of its v4/v6 RTT asymmetries (i.root in North
//!   America, l.root in Africa, South America out-of-continent routing) to
//!   exactly this kind of AS;
//! * a second designated backbone (`transit_backbone`, the AS12956 stand-in)
//!   that carries much of South America's v4 transit to Europe/NA.

use crate::rng::SimRng;
use crate::types::{AsId, Family, Relation, Tier};
use netgeo::{City, CityDb, Coord, Region};

/// One AS.
#[derive(Debug, Clone)]
pub struct AsNode {
    pub id: AsId,
    /// Synthetic name, e.g. `t1-03` or `stub-eu-117`.
    pub name: String,
    pub tier: Tier,
    pub region: Region,
    /// Home city (PoP placement and hop geometry use this).
    pub city: &'static City,
    /// Whether this AS has IPv6 connectivity at all.
    pub has_v6: bool,
}

impl AsNode {
    /// Home coordinates.
    pub fn coord(&self) -> Coord {
        self.city.coord
    }
}

/// A directed adjacency entry: `from` considers `to` related by `relation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    pub to: AsId,
    pub relation: Relation,
    /// Whether the link carries IPv4.
    pub v4: bool,
    /// Whether the link carries IPv6.
    pub v6: bool,
    /// Great-circle kilometres between the two ASes' home cities,
    /// truncated — fixed when the link is made (an AS never moves), so
    /// [`crate::routing::propagate`] reads its hop distances instead of
    /// running a haversine per exported route.
    pub km: u32,
}

impl Link {
    /// Does this link carry `family`?
    pub fn carries(&self, family: Family) -> bool {
        match family {
            Family::V4 => self.v4,
            Family::V6 => self.v6,
        }
    }
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Number of tier-1 backbones.
    pub tier1_count: usize,
    /// Tier-2 providers per region.
    pub tier2_per_region: usize,
    /// Stub networks per region (vantage points and resolvers live here).
    pub stubs_per_region: [usize; 6],
    /// Fraction of stubs without IPv6.
    pub v4_only_stub_fraction: f64,
    /// Fraction of (otherwise unrelated) networks the open-peering backbone
    /// gets a v6-only peer link to.
    pub open_v6_peering_fraction: f64,
    /// Seed for the generator.
    pub seed: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            tier1_count: 12,
            tier2_per_region: 8,
            // Order: Africa, Asia, Europe, NorthAmerica, SouthAmerica, Oceania.
            // Shaped like the paper's Table 3 network distribution (Europe-
            // heavy), sized so the VP population can reach the paper's 523
            // distinct networks (386 of them European).
            stubs_per_region: [20, 45, 400, 110, 20, 30],
            v4_only_stub_fraction: 0.25,
            open_v6_peering_fraction: 0.35,
            seed: 0xD0_07,
        }
    }
}

/// A typed snapshot of a topology's mutable state: the node count and the
/// full adjacency structure (including per-entry order, which routing
/// determinism depends on). [`Topology::restore`] brings the graph back
/// bit-identically: ASes added after the snapshot are dropped and every
/// link — carriage flags, relation, *and position* — returns to its
/// snapshotted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologySnapshot {
    node_count: usize,
    adj: Vec<Vec<Link>>,
}

impl TopologySnapshot {
    /// Number of ASes at snapshot time.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Whether `topology`'s mutable state equals this snapshot exactly
    /// (same node count, same adjacency entries in the same order).
    pub fn matches(&self, topology: &Topology) -> bool {
        topology.nodes.len() == self.node_count && topology.adj == self.adj
    }
}

/// The AS graph.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<AsNode>,
    /// Adjacency per node (directed entries; every link appears once in each
    /// direction with reversed relation).
    adj: Vec<Vec<Link>>,
    /// The AS6939 stand-in: open v6 peering backbone.
    pub open_peering_backbone: AsId,
    /// The AS12956 stand-in: South-America-to-Europe v4 transit.
    pub transit_backbone: AsId,
}

impl Topology {
    /// Generate a topology.
    pub fn generate(cfg: &TopologyConfig) -> Self {
        let mut rng = SimRng::new(cfg.seed).derive("topology");
        let mut nodes: Vec<AsNode> = Vec::new();
        let mut adj: Vec<Vec<Link>> = Vec::new();

        let add_node = |nodes: &mut Vec<AsNode>,
                        adj: &mut Vec<Vec<Link>>,
                        name: String,
                        tier: Tier,
                        city: &'static City,
                        has_v6: bool|
         -> AsId {
            let id = AsId(nodes.len() as u32);
            nodes.push(AsNode {
                id,
                name,
                tier,
                region: city.region,
                city,
                has_v6,
            });
            adj.push(Vec::new());
            id
        };

        // --- Tier 1 backbones, homed in major interconnection cities. ---
        let t1_cities = [
            "frankfurt",
            "ashburn",
            "amsterdam",
            "london",
            "newyork",
            "tokyo",
            "singapore",
            "losangeles",
            "paris",
            "saopaulo",
            "sydney",
            "chicago",
            "stockholm",
            "miami",
        ];
        let mut tier1: Vec<AsId> = Vec::new();
        for i in 0..cfg.tier1_count {
            let city = CityDb::by_name(t1_cities[i % t1_cities.len()]).expect("known city");
            let id = add_node(
                &mut nodes,
                &mut adj,
                format!("t1-{i:02}"),
                Tier::Tier1,
                city,
                true,
            );
            tier1.push(id);
        }
        // Full tier-1 peer mesh (both families).
        for i in 0..tier1.len() {
            for j in (i + 1)..tier1.len() {
                link(
                    &nodes,
                    &mut adj,
                    tier1[i],
                    tier1[j],
                    Relation::Peer,
                    true,
                    true,
                );
            }
        }
        let open_peering_backbone = tier1[0];
        let transit_backbone = tier1[1];

        // --- Tier 2 regional transit. ---
        let mut tier2_by_region: [Vec<AsId>; 6] = Default::default();
        for region in Region::ALL {
            let cities: Vec<&'static City> = CityDb::in_region(region).collect();
            for i in 0..cfg.tier2_per_region {
                let city = cities[rng.next_range(cities.len())];
                let id = add_node(
                    &mut nodes,
                    &mut adj,
                    format!("t2-{}-{i:02}", region_tag(region)),
                    Tier::Tier2,
                    city,
                    true,
                );
                tier2_by_region[region.index()].push(id);
                // Customer of 2-3 tier-1s.
                let mut providers = tier1.clone();
                rng.shuffle(&mut providers);
                let n_prov = 2 + rng.next_range(2);
                for &p in providers.iter().take(n_prov) {
                    // South American v4 transit is disproportionately carried
                    // by the transit backbone (the AS12956 analog).
                    link(&nodes, &mut adj, id, p, Relation::Provider, true, true);
                }
                if region == Region::SouthAmerica {
                    ensure_link(
                        &nodes,
                        &mut adj,
                        id,
                        transit_backbone,
                        Relation::Provider,
                        true,
                        false,
                    );
                }
            }
            // Regional tier-2 peering (the "IXP" effect): dense in-region
            // peer links.
            let t2 = &tier2_by_region[region.index()];
            for i in 0..t2.len() {
                for j in (i + 1)..t2.len() {
                    if rng.chance(0.6) {
                        link(&nodes, &mut adj, t2[i], t2[j], Relation::Peer, true, true);
                    }
                }
            }
        }

        // --- Stubs. ---
        for region in Region::ALL {
            let cities: Vec<&'static City> = CityDb::in_region(region).collect();
            let t2 = tier2_by_region[region.index()].clone();
            for i in 0..cfg.stubs_per_region[region.index()] {
                let city = cities[rng.next_range(cities.len())];
                let has_v6 = !rng.chance(cfg.v4_only_stub_fraction);
                let id = add_node(
                    &mut nodes,
                    &mut adj,
                    format!("stub-{}-{i:03}", region_tag(region)),
                    Tier::Stub,
                    city,
                    has_v6,
                );
                // 1-2 in-region providers.
                let n_prov = 1 + rng.next_range(2);
                let mut providers = t2.clone();
                rng.shuffle(&mut providers);
                for &p in providers.iter().take(n_prov) {
                    link(&nodes, &mut adj, id, p, Relation::Provider, true, has_v6);
                }
                // Occasional out-of-region multihoming.
                if rng.chance(0.1) {
                    let other_region = Region::ALL[rng.next_range(6)];
                    let pool = &tier2_by_region[other_region.index()];
                    if !pool.is_empty() {
                        let p = *rng.pick(pool);
                        link(&nodes, &mut adj, id, p, Relation::Provider, true, has_v6);
                    }
                }
            }
        }

        // --- Open v6 peering backbone (the AS6939 analog): v6-only peer
        // links to a large fraction of v6-capable networks. This is what
        // makes v6 paths prefer it (peer > provider) even when the
        // geographically sensible transit path exists — the paper's
        // out-of-continent v6 routing effect. ---
        let candidates: Vec<AsId> = nodes
            .iter()
            .filter(|n| n.has_v6 && n.id != open_peering_backbone && n.tier != Tier::Tier1)
            .map(|n| n.id)
            .collect();
        for id in candidates {
            if rng.chance(cfg.open_v6_peering_fraction) {
                ensure_link(
                    &nodes,
                    &mut adj,
                    id,
                    open_peering_backbone,
                    Relation::Peer,
                    false,
                    true,
                );
            }
        }

        Topology {
            nodes,
            adj,
            open_peering_backbone,
            transit_backbone,
        }
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when empty (never, for generated topologies).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node by id.
    pub fn node(&self, id: AsId) -> &AsNode {
        &self.nodes[id.0 as usize]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[AsNode] {
        &self.nodes
    }

    /// Adjacency of `id`.
    pub fn links(&self, id: AsId) -> &[Link] {
        &self.adj[id.0 as usize]
    }

    /// ASes of a tier.
    pub fn by_tier(&self, tier: Tier) -> impl Iterator<Item = &AsNode> {
        self.nodes.iter().filter(move |n| n.tier == tier)
    }

    /// Stub ASes in `region` (where VPs/resolvers are placed).
    pub fn stubs_in(&self, region: Region) -> Vec<AsId> {
        self.nodes
            .iter()
            .filter(|n| n.tier == Tier::Stub && n.region == region)
            .map(|n| n.id)
            .collect()
    }

    /// Whether `a` and `b` are directly connected for `family`.
    pub fn connected(&self, a: AsId, b: AsId, family: Family) -> bool {
        self.links(a).iter().any(|l| l.to == b && l.carries(family))
    }

    /// Add an AS after generation (used by `rss` to host root sites at
    /// facilities whose operator AS is not part of the base graph).
    pub fn add_as(&mut self, name: String, tier: Tier, city: &'static City, has_v6: bool) -> AsId {
        let id = AsId(self.nodes.len() as u32);
        self.nodes.push(AsNode {
            id,
            name,
            tier,
            region: city.region,
            city,
            has_v6,
        });
        self.adj.push(Vec::new());
        id
    }

    /// Add a (bidirectional) link after generation.
    pub fn add_link(&mut self, from: AsId, to: AsId, relation: Relation, v4: bool, v6: bool) {
        ensure_link(&self.nodes, &mut self.adj, from, to, relation, v4, v6);
    }

    /// Take the direct link between `a` and `b` out of service (both
    /// directions, both families), returning its previous `(v4, v6)`
    /// carriage so the failure can be reverted with
    /// [`Topology::set_link_carriage`]. The entry stays in place — only its
    /// carriage flags change — so adjacency order (and thus downstream
    /// determinism) is untouched. `None` when the ASes are not adjacent.
    pub fn disable_link(&mut self, a: AsId, b: AsId) -> Option<(bool, bool)> {
        let prev = self.adj[a.0 as usize]
            .iter()
            .find(|l| l.to == b)
            .map(|l| (l.v4, l.v6))?;
        self.set_link_carriage(a, b, false, false);
        Some(prev)
    }

    /// Remove the direct link between `a` and `b` entirely (both
    /// directions); returns `false` when the ASes are not adjacent. The
    /// exact inverse of [`Topology::add_link`] on a previously non-adjacent
    /// pair. Unlike [`Topology::disable_link`] this does drop the entries,
    /// so it must only be used to undo links added after a snapshot —
    /// reverting a *pre-existing* link through remove+add would reorder
    /// adjacency and change downstream tie-breaks.
    pub fn remove_link(&mut self, a: AsId, b: AsId) -> bool {
        let before = self.adj[a.0 as usize].len();
        self.adj[a.0 as usize].retain(|l| l.to != b);
        self.adj[b.0 as usize].retain(|l| l.to != a);
        before != self.adj[a.0 as usize].len()
    }

    /// Capture the mutable state (nodes added so far + full adjacency) for
    /// a later bit-identical [`Topology::restore`].
    pub fn snapshot(&self) -> TopologySnapshot {
        TopologySnapshot {
            node_count: self.nodes.len(),
            adj: self.adj.clone(),
        }
    }

    /// Restore the graph to `snap`'s state: nodes added since the snapshot
    /// are dropped and the adjacency structure (entries *and order*) is
    /// brought back exactly. Panics if the snapshot holds more nodes than
    /// the topology — snapshots only travel forward.
    pub fn restore(&mut self, snap: &TopologySnapshot) {
        assert!(
            self.nodes.len() >= snap.node_count,
            "snapshot outlived its topology"
        );
        self.nodes.truncate(snap.node_count);
        self.adj.clone_from(&snap.adj);
    }

    /// Set the `(v4, v6)` carriage of an existing link in both directions;
    /// returns `false` when no such link exists.
    pub fn set_link_carriage(&mut self, a: AsId, b: AsId, v4: bool, v6: bool) -> bool {
        let mut touched = false;
        for (x, y) in [(a, b), (b, a)] {
            for l in self.adj[x.0 as usize].iter_mut().filter(|l| l.to == y) {
                l.v4 = v4;
                l.v6 = v6;
                touched = true;
            }
        }
        touched
    }
}

fn region_tag(r: Region) -> &'static str {
    match r {
        Region::Africa => "af",
        Region::Asia => "as",
        Region::Europe => "eu",
        Region::NorthAmerica => "na",
        Region::SouthAmerica => "sa",
        Region::Oceania => "oc",
    }
}

/// Insert the link both ways (relation reversed on the far side), its
/// length measured once between the two home cities.
fn link(
    nodes: &[AsNode],
    adj: &mut [Vec<Link>],
    from: AsId,
    to: AsId,
    relation: Relation,
    v4: bool,
    v6: bool,
) {
    let km = nodes[from.0 as usize]
        .coord()
        .distance_km(&nodes[to.0 as usize].coord()) as u32;
    adj[from.0 as usize].push(Link {
        to,
        relation,
        v4,
        v6,
        km,
    });
    adj[to.0 as usize].push(Link {
        to: from,
        relation: relation.reverse(),
        v4,
        v6,
        km,
    });
}

/// Like [`link`], but first removes any existing link between the pair so
/// post-generation adjustments replace rather than duplicate, then merges
/// family coverage.
fn ensure_link(
    nodes: &[AsNode],
    adj: &mut [Vec<Link>],
    from: AsId,
    to: AsId,
    relation: Relation,
    v4: bool,
    v6: bool,
) {
    let existing = adj[from.0 as usize].iter().find(|l| l.to == to).copied();
    let (v4, v6) = match existing {
        Some(l) => (l.v4 || v4, l.v6 || v6),
        None => (v4, v6),
    };
    adj[from.0 as usize].retain(|l| l.to != to);
    adj[to.0 as usize].retain(|l| l.to != from);
    link(nodes, adj, from, to, relation, v4, v6);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::generate(&TopologyConfig::default())
    }

    #[test]
    fn generation_is_deterministic() {
        let a = topo();
        let b = topo();
        assert_eq!(a.len(), b.len());
        for (na, nb) in a.nodes().iter().zip(b.nodes()) {
            assert_eq!(na.name, nb.name);
            assert_eq!(na.city.name, nb.city.name);
        }
        for id in 0..a.len() {
            let la = a.links(AsId(id as u32));
            let lb = b.links(AsId(id as u32));
            assert_eq!(la.len(), lb.len());
        }
    }

    #[test]
    fn expected_node_counts() {
        let cfg = TopologyConfig::default();
        let t = Topology::generate(&cfg);
        let expected =
            cfg.tier1_count + 6 * cfg.tier2_per_region + cfg.stubs_per_region.iter().sum::<usize>();
        assert_eq!(t.len(), expected);
    }

    #[test]
    fn disable_link_round_trips() {
        let mut t = topo();
        let a = AsId(0);
        let b = t.links(a)[0].to;
        let order_before: Vec<AsId> = t.links(a).iter().map(|l| l.to).collect();
        assert!(t.connected(a, b, Family::V4));
        let prev = t.disable_link(a, b).expect("adjacent");
        assert!(!t.connected(a, b, Family::V4));
        assert!(!t.connected(b, a, Family::V6));
        assert!(t.set_link_carriage(a, b, prev.0, prev.1));
        assert!(t.connected(a, b, Family::V4));
        // Adjacency order survives the failure/restore cycle.
        let order_after: Vec<AsId> = t.links(a).iter().map(|l| l.to).collect();
        assert_eq!(order_before, order_after);
        // Unrelated pairs are rejected.
        let far = t
            .nodes()
            .iter()
            .find(|n| !t.connected(a, n.id, Family::V4) && n.id != a);
        if let Some(n) = far {
            assert_eq!(t.disable_link(a, n.id), None);
        }
    }

    #[test]
    fn snapshot_restore_round_trips_all_mutations() {
        let mut t = topo();
        let snap = t.snapshot();
        assert!(snap.matches(&t));
        // Mutate in every public way: disable, recarriage, add AS + link.
        let a = AsId(0);
        let b = t.links(a)[0].to;
        t.disable_link(a, b).expect("adjacent");
        t.set_link_carriage(a, t.links(a)[1].to, false, true);
        let city = CityDb::by_name("tokyo").unwrap();
        let extra = t.add_as("extra".into(), Tier::Stub, city, true);
        t.add_link(extra, a, Relation::Provider, true, true);
        assert!(!snap.matches(&t));
        t.restore(&snap);
        assert!(snap.matches(&t));
        assert_eq!(t.len(), snap.node_count());
        assert!(t.connected(a, b, Family::V4));
    }

    #[test]
    fn remove_link_inverts_add_link() {
        let mut t = topo();
        let a = AsId(0);
        let far = t
            .nodes()
            .iter()
            .find(|n| n.id != a && t.links(a).iter().all(|l| l.to != n.id))
            .map(|n| n.id)
            .expect("some non-adjacent AS");
        let snap = t.snapshot();
        t.add_link(a, far, Relation::Peer, true, true);
        assert!(t.connected(a, far, Family::V4));
        assert!(t.remove_link(a, far));
        assert!(snap.matches(&t));
        // Removing again reports no-op.
        assert!(!t.remove_link(a, far));
    }

    #[test]
    fn links_are_symmetric_with_reversed_relation() {
        let t = topo();
        for node in t.nodes() {
            for l in t.links(node.id) {
                let back = t
                    .links(l.to)
                    .iter()
                    .find(|b| b.to == node.id)
                    .expect("reverse link exists");
                assert_eq!(back.relation, l.relation.reverse());
                assert_eq!((back.v4, back.v6), (l.v4, l.v6));
            }
        }
    }

    #[test]
    fn every_stub_has_a_provider() {
        let t = topo();
        for node in t.by_tier(Tier::Stub) {
            assert!(
                t.links(node.id)
                    .iter()
                    .any(|l| l.relation == Relation::Provider && l.v4),
                "{} has no v4 provider",
                node.name
            );
        }
    }

    #[test]
    fn v4_only_stubs_have_no_v6_links() {
        let t = topo();
        for node in t.by_tier(Tier::Stub) {
            if !node.has_v6 {
                assert!(
                    t.links(node.id).iter().all(|l| !l.v6),
                    "{} is v4-only but has v6 links",
                    node.name
                );
            }
        }
    }

    #[test]
    fn open_peering_backbone_has_many_v6_only_peers() {
        let t = topo();
        let v6_only_peers = t
            .links(t.open_peering_backbone)
            .iter()
            .filter(|l| l.v6 && !l.v4 && l.relation == Relation::Peer)
            .count();
        assert!(v6_only_peers > 50, "only {v6_only_peers} open v6 peers");
    }

    #[test]
    fn sa_tier2_use_transit_backbone_for_v4() {
        let t = topo();
        let sa_t2: Vec<&AsNode> = t
            .by_tier(Tier::Tier2)
            .filter(|n| n.region == Region::SouthAmerica)
            .collect();
        assert!(!sa_t2.is_empty());
        for n in sa_t2 {
            let l = t
                .links(n.id)
                .iter()
                .find(|l| l.to == t.transit_backbone)
                .expect("SA tier2 linked to transit backbone");
            assert!(l.v4);
        }
    }

    #[test]
    fn tier1_mesh_connected() {
        let t = topo();
        let t1: Vec<AsId> = t.by_tier(Tier::Tier1).map(|n| n.id).collect();
        for i in 0..t1.len() {
            for j in (i + 1)..t1.len() {
                assert!(t.connected(t1[i], t1[j], Family::V4));
            }
        }
    }

    #[test]
    fn stubs_exist_in_every_region() {
        let t = topo();
        for r in Region::ALL {
            assert!(!t.stubs_in(r).is_empty(), "no stubs in {r}");
        }
    }

    #[test]
    fn add_as_and_link_work() {
        let mut t = topo();
        let city = CityDb::by_name("frankfurt").unwrap();
        let id = t.add_as("rootop-b".into(), Tier::Stub, city, true);
        let t2 = t.stubs_in(Region::Europe)[0];
        t.add_link(id, t2, Relation::Peer, true, true);
        assert!(t.connected(id, t2, Family::V4));
        assert!(t.connected(t2, id, Family::V6));
    }
}
