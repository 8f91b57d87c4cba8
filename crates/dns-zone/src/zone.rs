//! The zone model.

use crate::canonical::Canonical;
use dns_wire::rdata::{Rdata, Soa};
use dns_wire::{Name, Record, RrType};
use std::collections::{BTreeMap, HashSet};

/// A DNS zone: an origin plus its records.
///
/// Records are kept in insertion order internally; canonical ordering is
/// computed on demand (and cached ordering is the job of the caller — the
/// digest and signer sort once per pass).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    origin: Name,
    records: Vec<Record>,
}

/// Errors manipulating zones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneError {
    /// The zone has no SOA record at its apex.
    MissingSoa,
    /// More than one SOA at the apex.
    DuplicateSoa,
    /// A record's owner is outside the zone.
    OutOfZone(String),
}

impl std::fmt::Display for ZoneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZoneError::MissingSoa => write!(f, "zone has no SOA record"),
            ZoneError::DuplicateSoa => write!(f, "zone has multiple SOA records"),
            ZoneError::OutOfZone(name) => write!(f, "record {name} is outside the zone"),
        }
    }
}

impl std::error::Error for ZoneError {}

impl Zone {
    /// Create an empty zone rooted at `origin`.
    pub fn new(origin: Name) -> Self {
        Zone {
            origin,
            records: Vec::new(),
        }
    }

    /// The zone origin (apex name).
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// All records, insertion order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Mutable access for fault injection.
    pub fn records_mut(&mut self) -> &mut Vec<Record> {
        &mut self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the zone holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Add a record. Rejects records whose owner is outside the zone.
    pub fn push(&mut self, rec: Record) -> Result<(), ZoneError> {
        if !rec.name.is_subdomain_of(&self.origin) {
            return Err(ZoneError::OutOfZone(rec.name.to_string()));
        }
        self.records.push(rec);
        Ok(())
    }

    /// The apex SOA, if present and unique.
    pub fn soa(&self) -> Result<&Soa, ZoneError> {
        let mut found = None;
        for rec in &self.records {
            if rec.rr_type == RrType::Soa && rec.name == self.origin {
                if found.is_some() {
                    return Err(ZoneError::DuplicateSoa);
                }
                if let Rdata::Soa(soa) = &rec.rdata {
                    found = Some(soa);
                }
            }
        }
        found.ok_or(ZoneError::MissingSoa)
    }

    /// The zone serial (from the SOA).
    pub fn serial(&self) -> Result<u32, ZoneError> {
        Ok(self.soa()?.serial)
    }

    /// Records at `name` of `rr_type`.
    pub fn rrset(&self, name: &Name, rr_type: RrType) -> Vec<&Record> {
        self.records
            .iter()
            .filter(|r| r.rr_type == rr_type && &r.name == name)
            .collect()
    }

    /// Remove all records at `name` of `rr_type`; returns how many were
    /// removed.
    pub fn remove_rrset(&mut self, name: &Name, rr_type: RrType) -> usize {
        let before = self.records.len();
        self.records
            .retain(|r| !(r.rr_type == rr_type && &r.name == name));
        before - self.records.len()
    }

    /// Group records into RRsets keyed by `(owner, type)` in canonical
    /// order. RRSIGs are grouped by the type they *cover* alongside their
    /// RRset? No — RRSIGs are their own RRsets here; signing code associates
    /// them by inspecting `type_covered`.
    pub fn rrsets(&self) -> BTreeMap<(Name, u16), Vec<&Record>> {
        let mut map: BTreeMap<(Name, u16), Vec<&Record>> = BTreeMap::new();
        for rec in &self.records {
            map.entry((rec.name.clone(), rec.rr_type.to_u16()))
                .or_default()
                .push(rec);
        }
        map
    }

    /// All distinct owner names (first-seen casing), canonical order.
    pub fn owner_names(&self) -> Vec<Name> {
        let mut seen: HashSet<&Name> = HashSet::new();
        let mut names: Vec<Name> = Vec::new();
        for rec in &self.records {
            if seen.insert(&rec.name) {
                names.push(rec.name.clone());
            }
        }
        names.sort_by(|a, b| a.canonical_cmp(b));
        names
    }

    /// Records sorted into RFC 4034 §6.3 canonical order, duplicates
    /// (identical owner/class/type/RDATA) removed — the exact form both
    /// signing and ZONEMD digesting require.
    pub fn canonical_records(&self) -> Vec<&Record> {
        let canon = Canonical::new(&self.records);
        canon.unique().map(|e| e.rec).collect()
    }

    /// Structural sanity check: exactly one apex SOA, everything in-zone.
    pub fn check(&self) -> Result<(), ZoneError> {
        self.soa()?;
        for rec in &self.records {
            if !rec.name.is_subdomain_of(&self.origin) {
                return Err(ZoneError::OutOfZone(rec.name.to_string()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::rdata::Rdata;

    fn soa_record(serial: u32) -> Record {
        Record::new(
            Name::root(),
            86400,
            Rdata::Soa(Soa {
                mname: Name::parse("a.root-servers.net.").unwrap(),
                rname: Name::parse("nstld.verisign-grs.com.").unwrap(),
                serial,
                refresh: 1800,
                retry: 900,
                expire: 604800,
                minimum: 86400,
            }),
        )
    }

    fn root_zone_fixture() -> Zone {
        let mut z = Zone::new(Name::root());
        z.push(soa_record(2023120600)).unwrap();
        z.push(Record::new(
            Name::root(),
            518400,
            Rdata::Ns(Name::parse("a.root-servers.net.").unwrap()),
        ))
        .unwrap();
        z.push(Record::new(
            Name::parse("com.").unwrap(),
            172800,
            Rdata::Ns(Name::parse("a.gtld-servers.net.").unwrap()),
        ))
        .unwrap();
        z
    }

    #[test]
    fn soa_and_serial() {
        let z = root_zone_fixture();
        assert_eq!(z.serial().unwrap(), 2023120600);
    }

    #[test]
    fn missing_soa_detected() {
        let z = Zone::new(Name::root());
        assert_eq!(z.soa().err(), Some(ZoneError::MissingSoa));
    }

    #[test]
    fn duplicate_soa_detected() {
        let mut z = root_zone_fixture();
        z.push(soa_record(1)).unwrap();
        assert_eq!(z.soa().err(), Some(ZoneError::DuplicateSoa));
    }

    #[test]
    fn out_of_zone_rejected() {
        let mut z = Zone::new(Name::parse("com.").unwrap());
        let rec = Record::new(
            Name::parse("example.org.").unwrap(),
            60,
            Rdata::A("1.2.3.4".parse().unwrap()),
        );
        assert!(matches!(z.push(rec), Err(ZoneError::OutOfZone(_))));
    }

    #[test]
    fn rrset_lookup() {
        let z = root_zone_fixture();
        assert_eq!(z.rrset(&Name::root(), RrType::Ns).len(), 1);
        assert_eq!(z.rrset(&Name::root(), RrType::Soa).len(), 1);
        assert_eq!(z.rrset(&Name::parse("net.").unwrap(), RrType::Ns).len(), 0);
    }

    #[test]
    fn remove_rrset_removes() {
        let mut z = root_zone_fixture();
        assert_eq!(z.remove_rrset(&Name::root(), RrType::Ns), 1);
        assert_eq!(z.rrset(&Name::root(), RrType::Ns).len(), 0);
    }

    #[test]
    fn canonical_records_sorted_and_deduped() {
        let mut z = root_zone_fixture();
        // Insert a duplicate of the apex NS.
        z.push(Record::new(
            Name::root(),
            518400,
            Rdata::Ns(Name::parse("a.root-servers.net.").unwrap()),
        ))
        .unwrap();
        let recs = z.canonical_records();
        assert_eq!(recs.len(), 3); // SOA + NS + com NS (dup removed)
                                   // Root apex sorts before com.
        assert!(recs[0].name.is_root());
    }

    #[test]
    fn owner_names_canonical_order() {
        let z = root_zone_fixture();
        let names = z.owner_names();
        assert_eq!(names[0], Name::root());
        assert_eq!(names[1], Name::parse("com.").unwrap());
    }

    #[test]
    fn check_passes_on_fixture() {
        assert!(root_zone_fixture().check().is_ok());
    }
}
