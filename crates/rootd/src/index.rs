//! The zone precompiled for serving.
//!
//! An authoritative server cannot afford a linear scan over the zone per
//! query (the root answers every query from the same small zone, so the
//! whole zone is indexed once at load). [`ZoneIndex`] precomputes what the
//! answer path needs:
//!
//! * positive RRsets keyed `(owner, type)` with their covering RRSIGs;
//! * the set of existing owner names (NODATA vs NXDOMAIN);
//! * per-TLD referral bundles: delegation NS in the authority section, DS
//!   (+RRSIG) for signed delegations, in-bailiwick glue as additionals;
//! * the apex SOA (+RRSIG) for negative responses;
//! * the NSEC chain in canonical order, for NXDOMAIN proofs.
//!
//! Lookups take the query name as the answer path already has it —
//! lowercased flat wire form — and hand out borrowed record slices: a
//! query is resolved without cloning a name or a record.

use crate::hash::ZoneMap;
use dns_wire::rdata::Rdata;
use dns_wire::{Name, Record, RrType};
use dns_zone::Zone;
use std::cmp::Ordering;
use std::sync::Arc;

/// A delegation response bundle for one TLD.
#[derive(Debug, Clone, Default)]
pub struct Referral {
    /// The NS RRset at the TLD; DS and RRSIG(DS) ride along as its
    /// "signatures" when the query asks for DNSSEC.
    pub authority: RrsetEntry,
    /// In-bailiwick glue (A/AAAA of the delegated name servers).
    pub glue: Vec<Record>,
}

/// One positive answer: the RRset and its covering signatures.
#[derive(Debug, Clone, Default)]
pub struct RrsetEntry {
    /// The RRset, then what DNSSEC clients get with it.
    all: Vec<Record>,
    n_records: usize,
}

impl RrsetEntry {
    /// The RRset itself.
    pub fn records(&self) -> &[Record] {
        &self.all[..self.n_records]
    }

    /// The section this RRset fills: with its signatures when `dnssec`.
    pub fn section(&self, dnssec: bool) -> &[Record] {
        if dnssec {
            &self.all
        } else {
            self.records()
        }
    }
}

/// The result of a name/type lookup.
#[derive(Debug)]
pub enum Lookup<'a> {
    /// Authoritative data (apex RRsets, parent-side DS/NSEC at a cut).
    Answer(&'a RrsetEntry),
    /// The name is at or below a zone cut: delegate.
    Referral(&'a Referral),
    /// The name exists but has no data of this type.
    NoData,
    /// The name does not exist.
    NxDomain,
}

/// Everything the zone holds at one owner name.
#[derive(Debug)]
struct Node {
    /// The owner, in the case the zone first spells it.
    name: Name,
    rrsets: Vec<(RrType, RrsetEntry)>,
    /// Set when the owner is a zone cut.
    referral: Option<Referral>,
}

impl Node {
    fn rrset(&self, rr_type: RrType) -> Option<&RrsetEntry> {
        let found = self.rrsets.iter().find(|(t, _)| *t == rr_type);
        found.map(|(_, entry)| entry)
    }

    fn answer(&self, rr_type: RrType) -> Lookup<'_> {
        match self.rrset(rr_type) {
            Some(entry) if entry.n_records > 0 => Lookup::Answer(entry),
            _ => Lookup::NoData,
        }
    }
}

/// The signed root zone, precompiled into hash lookups.
#[derive(Debug)]
pub struct ZoneIndex {
    zone: Arc<Zone>,
    origin: Name,
    serial: u32,
    /// Lowercased flat owner name → what the zone holds there.
    nodes: ZoneMap<Box<[u8]>, Node>,
    /// Apex SOA, then its RRSIG, for negative-response authority sections.
    negative: RrsetEntry,
    /// A and AAAA of every apex NS target, in NS order: the additional
    /// section of the priming response (RFC 8109).
    priming_glue: Vec<Record>,
    /// NSEC owners in canonical order with their records and signatures.
    nsec_chain: Vec<(Name, RrsetEntry)>,
    /// Link by link, the owner's [`sort_key`]: what the NXDOMAIN path's
    /// binary search compares a query name against.
    nsec_keys: Vec<Box<[u8]>>,
}

/// `name` (flat wire form, any case) as RFC 4034 §6.1 orders it, so that
/// two names compare in one forward walk: labels lowercased, rightmost
/// first, each behind its length byte.
fn sort_key<'b>(name: &[u8], buf: &'b mut [u8; 254]) -> &'b [u8] {
    // Fill from the back: the leftmost label lands last.
    let (mut at, mut rest) = (name.len(), name);
    while let Some(&len) = rest.first() {
        let (label, tail) = rest.split_at(1 + len as usize);
        at -= label.len();
        buf[at..at + label.len()].copy_from_slice(label);
        rest = tail;
    }
    buf[..name.len()].make_ascii_lowercase();
    &buf[..name.len()]
}

/// Canonical order of the names two [`sort_key`]s were made of: label by
/// label, each as a byte string; the name that runs out first sorts first.
fn cmp_sort_keys(mut a: &[u8], mut b: &[u8]) -> Ordering {
    loop {
        let (Some(&a_len), Some(&b_len)) = (a.first(), b.first()) else {
            return a.len().cmp(&b.len());
        };
        let (a_label, a_rest) = a[1..].split_at(a_len as usize);
        let (b_label, b_rest) = b[1..].split_at(b_len as usize);
        // Labels are short: a byte loop beats a `memcmp` call.
        match a_label.iter().cmp(b_label) {
            Ordering::Equal => (a, b) = (a_rest, b_rest),
            unequal => return unequal,
        }
    }
}

/// The key `name` is indexed under: its flat wire form, lowercased.
fn key_of(name: &Name) -> Box<[u8]> {
    name.as_wire().to_ascii_lowercase().into()
}

impl ZoneIndex {
    /// Precompile `zone` for serving.
    pub fn build(zone: Arc<Zone>) -> ZoneIndex {
        let origin = zone.origin().clone();
        let serial = zone.serial().unwrap_or(0);

        // First pass: group records by (owner, type), zone order kept;
        // RRSIGs go with the type they cover, behind the RRset.
        let mut nodes: ZoneMap<Box<[u8]>, Node> = ZoneMap::default();
        for rec in zone.records() {
            let node = nodes.entry(key_of(&rec.name)).or_insert_with(|| Node {
                name: rec.name.clone(),
                rrsets: Vec::new(),
                referral: None,
            });
            let covered = match &rec.rdata {
                Rdata::Rrsig(sig) => Some(sig.type_covered),
                _ => None,
            };
            let rr_type = covered.unwrap_or(rec.rr_type);
            let at = match node.rrsets.iter().position(|(t, _)| *t == rr_type) {
                Some(at) => at,
                None => {
                    node.rrsets.push((rr_type, RrsetEntry::default()));
                    node.rrsets.len() - 1
                }
            };
            let entry = &mut node.rrsets[at].1;
            if covered.is_some() {
                entry.all.push(rec.clone());
            } else {
                entry.all.insert(entry.n_records, rec.clone());
                entry.n_records += 1;
            }
        }

        // Second pass: delegation bundles. A delegated TLD is a non-apex
        // owner holding an NS RRset (the root zone has no in-zone cuts
        // deeper than one label).
        let glue_of = |nodes: &ZoneMap<Box<[u8]>, Node>, ns: &[Record]| {
            let mut glue = Vec::new();
            for ns in ns {
                let Rdata::Ns(target) = &ns.rdata else {
                    continue;
                };
                let Some(node) = nodes.get(&key_of(target)) else {
                    continue;
                };
                for glue_type in [RrType::A, RrType::Aaaa] {
                    if let Some(entry) = node.rrset(glue_type) {
                        glue.extend_from_slice(entry.records());
                    }
                }
            }
            glue
        };
        let referrals: Vec<(Box<[u8]>, Referral)> = nodes
            .iter()
            .filter(|(_, node)| node.name != origin)
            .filter_map(|(key, node)| {
                let ns = node.rrset(RrType::Ns)?.records();
                if ns.is_empty() {
                    return None;
                }
                let ds = node.rrset(RrType::Ds).map_or(&[][..], |ds| &ds.all);
                let authority = RrsetEntry {
                    all: [ns, ds].concat(),
                    n_records: ns.len(),
                };
                let glue = glue_of(&nodes, ns);
                let referral = Referral { authority, glue };
                Some((key.clone(), referral))
            })
            .collect();
        for (key, referral) in referrals {
            nodes.get_mut(&key).expect("an owner").referral = Some(referral);
        }

        let apex = nodes.get(&key_of(&origin));
        let apex_rrset = |rr_type| apex.and_then(|node| node.rrset(rr_type));
        let negative = apex_rrset(RrType::Soa).cloned().unwrap_or_default();
        let priming_glue = glue_of(&nodes, apex_rrset(RrType::Ns).map_or(&[], |e| e.records()));

        let mut nsec_chain: Vec<(Name, RrsetEntry)> = nodes
            .values()
            .filter_map(|node| Some((node.name.clone(), node.rrset(RrType::Nsec)?.clone())))
            .collect();
        nsec_chain.sort_by(|a, b| a.0.canonical_cmp(&b.0));
        let nsec_keys = nsec_chain
            .iter()
            .map(|(owner, _)| sort_key(owner.as_wire(), &mut [0; 254]).into());
        let nsec_keys = nsec_keys.collect();

        ZoneIndex {
            zone,
            origin,
            serial,
            nodes,
            negative,
            priming_glue,
            nsec_chain,
            nsec_keys,
        }
    }

    /// The indexed zone (AXFR streams straight from it).
    pub fn zone(&self) -> &Arc<Zone> {
        &self.zone
    }

    /// Zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Zone serial.
    pub fn serial(&self) -> u32 {
        self.serial
    }

    /// Delegated TLD labels (lowercase, no trailing dot), sorted — the
    /// load generator draws its in-zone query names from this.
    pub fn tld_labels(&self) -> Vec<String> {
        let cuts = self.nodes.values().filter(|node| node.referral.is_some());
        let mut out: Vec<String> = cuts
            .map(|node| {
                let name = node.name.to_string();
                name.trim_end_matches('.').to_ascii_lowercase()
            })
            .collect();
        out.sort();
        out
    }

    /// Every owner name the zone holds (answer-cache enumeration).
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.nodes.values().map(|node| &node.name)
    }

    /// The NSEC chain in canonical order: owner names with their NSEC
    /// records and signatures. The answer cache precompiles one NXDOMAIN
    /// template per link.
    pub fn nsec_chain(&self) -> &[(Name, RrsetEntry)] {
        &self.nsec_chain
    }

    /// SOA (+ RRSIG when `dnssec`) for negative-response authority.
    pub fn negative_authority(&self, dnssec: bool) -> &[Record] {
        self.negative.section(dnssec)
    }

    /// The additional section of the priming response.
    pub fn priming_glue(&self) -> &[Record] {
        &self.priming_glue
    }

    /// Where in [`Self::nsec_chain`] the link covering `name` (flat wire
    /// form, any case) lies — the link whose owner canonically precedes or
    /// equals it — for NXDOMAIN proofs. `None` in an unsigned zone.
    pub fn covering_link(&self, name: &[u8]) -> Option<usize> {
        let last = self.nsec_keys.len().checked_sub(1)?;
        let mut buf = [0; 254];
        let name = sort_key(name, &mut buf);
        let found = self
            .nsec_keys
            .binary_search_by(|owner| cmp_sort_keys(owner, name));
        Some(match found {
            Ok(i) => i,
            // The chain wraps: a name before the first owner is covered by
            // the last link.
            Err(0) => last,
            Err(i) => i - 1,
        })
    }

    /// The NSEC entry covering `name` (see [`Self::covering_link`]).
    pub fn covering_nsec(&self, name: &[u8]) -> Option<&RrsetEntry> {
        Some(&self.nsec_chain[self.covering_link(name)?].1)
    }

    /// The owner the zone would delegate `name` (flat wire form) at: the
    /// root zone cuts exactly at TLD names, so the name's last label.
    fn cut_of(name: &[u8]) -> &[u8] {
        let mut cut = name;
        while cut.first().is_some_and(|&len| cut.len() > 1 + len as usize) {
            cut = &cut[1 + cut[0] as usize..];
        }
        cut
    }

    /// The delegation `name` (lowercased flat wire form) is at or below,
    /// if any.
    pub fn referral_above(&self, name: &[u8]) -> Option<&Referral> {
        self.nodes.get(Self::cut_of(name))?.referral.as_ref()
    }

    /// Resolve a query name (lowercased flat wire form) and type against
    /// the index.
    pub fn lookup(&self, name: &[u8], rr_type: RrType) -> Lookup<'_> {
        let cut = Self::cut_of(name);
        let node = match self.nodes.get(cut) {
            Some(at_cut) => {
                if let Some(referral) = &at_cut.referral {
                    // Parent-side types are answered authoritatively at
                    // the cut itself (DS and the NSEC proving the
                    // delegation).
                    let parent_side = matches!(rr_type, RrType::Ds | RrType::Nsec);
                    if !(cut.len() == name.len() && parent_side) {
                        return Lookup::Referral(referral);
                    }
                }
                (cut.len() == name.len()).then_some(at_cut)
            }
            None => None,
        };
        // The apex, glue owners and other non-cut names the zone happens
        // to hold.
        match node.or_else(|| self.nodes.get(name)) {
            Some(node) => node.answer(rr_type),
            None => Lookup::NxDomain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;

    fn index() -> ZoneIndex {
        let zone = build_root_zone(
            &RootZoneConfig {
                tld_count: 8,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(1),
        );
        ZoneIndex::build(Arc::new(zone))
    }

    #[test]
    fn apex_rrsets_found_with_rrsigs() {
        let idx = index();
        match idx.lookup(b"", RrType::Soa) {
            Lookup::Answer(e) => {
                assert_eq!(e.records().len(), 1);
                assert_eq!(e.section(false).len(), 1);
                assert!(e.section(true).len() > 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match idx.lookup(b"", RrType::Ns) {
            Lookup::Answer(e) => assert_eq!(e.records().len(), 13),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(idx.priming_glue().len(), 26);
    }

    #[test]
    fn tld_names_refer() {
        let idx = index();
        match idx.lookup(b"\x03com", RrType::A) {
            Lookup::Referral(r) => {
                assert_eq!(r.authority.records().len(), 2);
                assert!(r.authority.section(true).len() > 2);
                assert_eq!(r.glue.len(), 4); // 2 NS × (A + AAAA)
            }
            other => panic!("unexpected {other:?}"),
        }
        // Below the cut: still a referral, whatever the zone holds there.
        for below in [
            &b"\x03www\x03com"[..],
            b"\x03ns0\x03com",
            b"\x01a\x01b\x03com",
        ] {
            assert!(matches!(idx.lookup(below, RrType::A), Lookup::Referral(_)));
            assert!(matches!(idx.lookup(below, RrType::Ds), Lookup::Referral(_)));
            assert!(idx.referral_above(below).is_some());
        }
        assert!(idx.referral_above(b"").is_none());
        assert!(idx.referral_above(b"\x03www\x07nosuch").is_none());
    }

    #[test]
    fn ds_at_cut_is_authoritative() {
        let idx = index();
        match idx.lookup(b"\x03com", RrType::Ds) {
            Lookup::Answer(e) => {
                assert!(!e.records().is_empty());
                assert!(e.section(true).len() > e.records().len());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nxdomain_and_nodata_distinguished() {
        let idx = index();
        let junk = Name::parse("zz9999doesnotexist.").unwrap();
        assert!(matches!(
            idx.lookup(junk.as_wire(), RrType::A),
            Lookup::NxDomain
        ));
        // Apex has no TXT: NODATA, not NXDOMAIN.
        assert!(matches!(idx.lookup(b"", RrType::Txt), Lookup::NoData));
        // `net` is delegated: the root servers' own names lie below a cut.
        let a_root = Name::parse("a.root-servers.net.").unwrap();
        assert!(matches!(
            idx.lookup(a_root.as_wire(), RrType::Aaaa),
            Lookup::Referral(_)
        ));
    }

    #[test]
    fn negative_authority_carries_soa_and_optionally_rrsig() {
        let idx = index();
        let plain = idx.negative_authority(false);
        assert_eq!(plain.len(), 1);
        assert_eq!(plain[0].rr_type, RrType::Soa);
        let signed = idx.negative_authority(true);
        assert!(signed.iter().any(|r| r.rr_type == RrType::Rrsig));
    }

    #[test]
    fn covering_nsec_found_for_missing_name() {
        let idx = index();
        let junk = Name::parse("zz9999doesnotexist.").unwrap();
        let nsec = idx
            .covering_nsec(junk.as_wire())
            .expect("signed zone has a chain");
        assert!(!nsec.records().is_empty());
        assert!(nsec.section(true).len() > nsec.records().len());
        // The chain wraps: the root sorts first and owns the first link; a
        // name equal to an owner is covered by its own link, in any case.
        assert_eq!(idx.covering_link(b""), Some(0));
        let (owner, _) = &idx.nsec_chain()[3];
        let upper = owner.as_wire().to_ascii_uppercase();
        assert_eq!(idx.covering_link(&upper), Some(3));
    }

    /// The NXDOMAIN search's key order is `Name::canonical_cmp`'s: on the
    /// RFC 4034 §6.1 example, and on every pair of owners of a signed zone
    /// against each other and against junk around them.
    #[test]
    fn sort_keys_order_names_canonically() {
        let example = [
            "example.",
            "a.example.",
            "yljkjljk.a.example.",
            "Z.a.example.",
            "zABC.a.EXAMPLE.",
            "z.example.",
            "\\001.z.example.",
            "*.z.example.",
            "\\200.z.example.",
        ];
        let mut names: Vec<Name> = example.iter().map(|s| Name::parse(s).unwrap()).collect();
        let idx = index();
        names.extend(idx.nsec_chain().iter().map(|(owner, _)| owner.clone()));
        for junk in [".", "co.", "COM.", "comm.", "a.b.c.d.com.", "ns0.", "zz."] {
            names.push(Name::parse(junk).unwrap());
        }
        for a in &names {
            for b in &names {
                let (mut abuf, mut bbuf) = ([0; 254], [0; 254]);
                let (ka, kb) = (
                    sort_key(a.as_wire(), &mut abuf),
                    sort_key(b.as_wire(), &mut bbuf),
                );
                assert_eq!(cmp_sort_keys(ka, kb), a.canonical_cmp(b), "{a} vs {b}");
            }
        }
        // So the search lands where a scan of the chain does.
        for name in &names {
            let scan = (idx.nsec_chain().iter())
                .rposition(|(owner, _)| owner.canonical_cmp(name).is_le())
                .unwrap_or(idx.nsec_chain().len() - 1);
            assert_eq!(idx.covering_link(name.as_wire()), Some(scan), "{name}");
        }
    }

    #[test]
    fn tld_labels_enumerated() {
        let idx = index();
        let labels = idx.tld_labels();
        assert_eq!(labels.len(), 8);
        assert!(labels.contains(&"com".to_string()));
    }
}
