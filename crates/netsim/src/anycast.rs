//! Anycast deployments: facilities, sites and the deployment abstraction.
//!
//! A *facility* is a colocation point (data centre or IXP) in a city, with a
//! shared edge router. Different operators' sites at the same facility share
//! that router — which is exactly the "reduced redundancy" §5 of the paper
//! quantifies via shared second-to-last traceroute hops.
//!
//! A *site* is one operator's presence at one facility, `Global` or `Local`
//! scope. Local sites are announced NO_EXPORT-style: only ASes directly
//! adjacent to the hosting AS can reach them.

use crate::types::AsId;
use netgeo::{City, Coord, Region};
use serde::{Deserialize, Serialize};

/// Identifier of a facility (index into the world's facility table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FacilityId(pub u32);

/// Identifier of a site within a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SiteId(pub u32);

/// Site announcement scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SiteScope {
    /// Announced globally; reachable by every AS if selected.
    Global,
    /// Announced NO_EXPORT; reachable only from directly adjacent ASes.
    Local,
}

/// A colocation facility.
#[derive(Debug, Clone)]
pub struct Facility {
    pub id: FacilityId,
    /// City the facility is in.
    pub city: &'static City,
    /// Which facility in the city (cities can host several).
    pub index_in_city: u8,
    /// The AS operating the facility fabric (edge router lives here).
    pub host_as: AsId,
}

impl Facility {
    /// Coordinates of the facility (city centroid).
    pub fn coord(&self) -> Coord {
        self.city.coord
    }

    /// A stable identifier for the facility's edge router — sites at the
    /// same facility share it; this is the "second-to-last hop" identity.
    pub fn edge_router(&self) -> u64 {
        ((self.id.0 as u64) << 8) | 0xE0
    }
}

/// One operator's presence at a facility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    pub id: SiteId,
    pub facility: FacilityId,
    pub scope: SiteScope,
    /// The AS from which the site's prefix is originated (usually the
    /// facility host AS or the operator's own AS homed there).
    pub origin_as: AsId,
    /// Instance identifier stem, e.g. `fra2` — what `hostname.bind` leaks.
    pub instance_stem: String,
}

/// An anycast deployment: one service address (per family), many sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deployment {
    /// Human-readable name (e.g. `b.root-servers.net`).
    pub name: String,
    pub sites: Vec<Site>,
}

impl Deployment {
    /// Sites with the given scope.
    pub fn sites_with_scope(&self, scope: SiteScope) -> impl Iterator<Item = &Site> {
        self.sites.iter().filter(move |s| s.scope == scope)
    }

    /// Number of global sites.
    pub fn global_count(&self) -> usize {
        self.sites_with_scope(SiteScope::Global).count()
    }

    /// Number of local sites.
    pub fn local_count(&self) -> usize {
        self.sites_with_scope(SiteScope::Local).count()
    }

    /// Site by id. Positional lookup when ids are dense (the common,
    /// catalog-built case), falling back to a scan — deployments filtered
    /// for route propagation (withdrawn sites) keep original ids with
    /// holes in the positions.
    pub fn site(&self, id: SiteId) -> &Site {
        if let Some(s) = self.sites.get(id.0 as usize) {
            if s.id == id {
                return s;
            }
        }
        self.sites
            .iter()
            .find(|s| s.id == id)
            .expect("site id present in deployment")
    }
}

/// The facility table of a simulated world, shared across deployments.
#[derive(Debug, Clone, Default)]
pub struct FacilityTable {
    facilities: Vec<Facility>,
}

impl FacilityTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a facility; returns its id.
    pub fn add(&mut self, city: &'static City, index_in_city: u8, host_as: AsId) -> FacilityId {
        let id = FacilityId(self.facilities.len() as u32);
        self.facilities.push(Facility {
            id,
            city,
            index_in_city,
            host_as,
        });
        id
    }

    /// Facility by id.
    pub fn get(&self, id: FacilityId) -> &Facility {
        &self.facilities[id.0 as usize]
    }

    /// All facilities.
    pub fn all(&self) -> &[Facility] {
        &self.facilities
    }

    /// Find an existing facility in `city` with the given index. Cities
    /// compare by IATA code (unique in the table), never by address.
    pub fn find(&self, city: &City, index_in_city: u8) -> Option<FacilityId> {
        self.facilities
            .iter()
            .find(|f| f.city.iata == city.iata && f.index_in_city == index_in_city)
            .map(|f| f.id)
    }

    /// Facilities in `region`.
    pub fn in_region(&self, region: Region) -> impl Iterator<Item = &Facility> {
        self.facilities
            .iter()
            .filter(move |f| f.city.region == region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgeo::CityDb;

    #[test]
    fn facility_edge_router_unique_per_facility() {
        let mut t = FacilityTable::new();
        let fra = CityDb::by_name("frankfurt").unwrap();
        let a = t.add(fra, 0, AsId(1));
        let b = t.add(fra, 1, AsId(2));
        assert_ne!(t.get(a).edge_router(), t.get(b).edge_router());
        // Same facility, same router.
        assert_eq!(t.get(a).edge_router(), t.get(a).edge_router());
    }

    #[test]
    fn find_locates_existing() {
        let mut t = FacilityTable::new();
        let fra = CityDb::by_name("frankfurt").unwrap();
        let nyc = CityDb::by_name("newyork").unwrap();
        let a = t.add(fra, 0, AsId(1));
        t.add(nyc, 0, AsId(2));
        assert_eq!(t.find(fra, 0), Some(a));
        assert_eq!(t.find(fra, 1), None);
        // A city is found by what it is, not where it lives: a copy at
        // another address still names the same facility.
        let copy = fra.clone();
        assert_eq!(t.find(&copy, 0), Some(a));
    }

    #[test]
    fn deployment_scope_counts() {
        let d = Deployment {
            name: "x.root".into(),
            sites: vec![
                Site {
                    id: SiteId(0),
                    facility: FacilityId(0),
                    scope: SiteScope::Global,
                    origin_as: AsId(0),
                    instance_stem: "fra1".into(),
                },
                Site {
                    id: SiteId(1),
                    facility: FacilityId(1),
                    scope: SiteScope::Local,
                    origin_as: AsId(1),
                    instance_stem: "ams1".into(),
                },
            ],
        };
        assert_eq!(d.global_count(), 1);
        assert_eq!(d.local_count(), 1);
        assert_eq!(d.site(SiteId(1)).instance_stem, "ams1");
    }

    #[test]
    fn region_filter() {
        let mut t = FacilityTable::new();
        t.add(CityDb::by_name("frankfurt").unwrap(), 0, AsId(0));
        t.add(CityDb::by_name("tokyo").unwrap(), 0, AsId(1));
        assert_eq!(t.in_region(Region::Europe).count(), 1);
        assert_eq!(t.in_region(Region::Asia).count(), 1);
        assert_eq!(t.in_region(Region::Africa).count(), 0);
    }
}
