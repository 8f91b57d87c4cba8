//! Synthetic root zone generation.
//!
//! Builds a realistic (shape-wise) root zone: apex SOA/NS, the 13
//! `X.root-servers.net` glue addresses, a set of TLD delegations with NS
//! records, glue, and DS records, then the DNSSEC chain (DNSKEY, NSEC,
//! RRSIG) and — depending on the roll-out phase — a ZONEMD record.
//!
//! The real root zone has ~1,500 TLDs; the generator defaults to a smaller
//! but structurally identical zone so full-measurement simulations (which
//! transfer the zone tens of millions of times) stay fast. The `tld_count`
//! knob scales it up for benches.

use crate::rollout::RolloutPhase;
use crate::signer::{sign_zone, SigningConfig, ZoneKeys};
use crate::zone::Zone;
use crate::zonemd::make_zonemd_record;
use dns_wire::rdata::{Rdata, Soa};
use dns_wire::{Name, Record};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Published root server addresses (post-renumbering B, the paper's
/// subject). These become the glue A/AAAA records under
/// `X.root-servers.net` exactly as the real zone file carries them.
pub const ROOT_SERVER_ADDRS: [(char, &str, &str); 13] = [
    ('a', "198.41.0.4", "2001:503:ba3e::2:30"),
    ('b', "170.247.170.2", "2801:1b8:10::b"),
    ('c', "192.33.4.12", "2001:500:2::c"),
    ('d', "199.7.91.13", "2001:500:2d::d"),
    ('e', "192.203.230.10", "2001:500:a8::e"),
    ('f', "192.5.5.241", "2001:500:2f::f"),
    ('g', "192.112.36.4", "2001:500:12::d0d"),
    ('h', "198.97.190.53", "2001:500:1::53"),
    ('i', "192.36.148.17", "2001:7fe::53"),
    ('j', "192.58.128.30", "2001:503:c27::2:30"),
    ('k', "193.0.14.129", "2001:7fd::1"),
    ('l', "199.7.83.42", "2001:500:9f::42"),
    ('m', "202.12.27.33", "2001:dc3::35"),
];

/// Well-known real TLD labels used for the first delegations, so the zone
/// looks right in examples; beyond these the generator synthesizes labels.
const COMMON_TLDS: &[&str] = &[
    "com", "net", "org", "de", "uk", "nl", "jp", "br", "au", "za", "io", "info", "edu", "gov",
    "fr", "it", "es", "se", "ch", "at", "pl", "cz", "ru", "cn", "in", "kr", "mx", "ar", "cl", "nz",
    "sg", "hk", "id", "th", "世界", "ruhr", "world", "arpa", "biz", "name",
];

/// Parameters for zone generation.
#[derive(Debug, Clone)]
pub struct RootZoneConfig {
    /// Zone serial (root convention: YYYYMMDDNN).
    pub serial: u32,
    /// Number of TLD delegations to include.
    pub tld_count: usize,
    /// Signature inception.
    pub inception: u32,
    /// Signature expiration.
    pub expiration: u32,
    /// ZONEMD roll-out phase to emit.
    pub rollout: RolloutPhase,
}

impl Default for RootZoneConfig {
    fn default() -> Self {
        RootZoneConfig {
            serial: 2023070300,
            tld_count: 40,
            inception: 1_688_342_400,               // 2023-07-03
            expiration: 1_688_342_400 + 14 * 86400, // two weeks, like real RRSIGs
            rollout: RolloutPhase::NoRecord,
        }
    }
}

/// Build and sign a root zone.
pub fn build_root_zone(cfg: &RootZoneConfig, keys: &ZoneKeys) -> Zone {
    let mut zone = Zone::new(Name::root());
    // Apex SOA.
    zone.push(Record::new(
        Name::root(),
        86400,
        Rdata::Soa(Soa {
            mname: Name::parse("a.root-servers.net.").unwrap(),
            rname: Name::parse("nstld.verisign-grs.com.").unwrap(),
            serial: cfg.serial,
            refresh: 1800,
            retry: 900,
            expire: 604800,
            minimum: 86400,
        }),
    ))
    .unwrap();
    // Apex NS set: the 13 letters, with their published glue addresses —
    // the real root zone ships these so priming responses (RFC 8109) can
    // carry the full server set with addresses.
    for (letter, v4, v6) in ROOT_SERVER_ADDRS {
        let ns_name = Name::parse(&format!("{letter}.root-servers.net.")).unwrap();
        zone.push(Record::new(
            Name::root(),
            518400,
            Rdata::Ns(ns_name.clone()),
        ))
        .unwrap();
        zone.push(Record::new(
            ns_name.clone(),
            518400,
            Rdata::A(v4.parse().expect("valid literal")),
        ))
        .unwrap();
        zone.push(Record::new(
            ns_name,
            518400,
            Rdata::Aaaa(v6.parse().expect("valid literal")),
        ))
        .unwrap();
    }
    // TLD delegations: NS + glue + DS.
    for i in 0..cfg.tld_count {
        let label = tld_label(i);
        let tld = Name::parse(&format!("{label}.")).expect("valid TLD label");
        for ns_idx in 0..2 {
            let ns_name = Name::parse(&format!("ns{ns_idx}.{label}.")).unwrap();
            zone.push(Record::new(tld.clone(), 172800, Rdata::Ns(ns_name.clone())))
                .unwrap();
            // In-bailiwick glue.
            zone.push(Record::new(
                ns_name.clone(),
                172800,
                Rdata::A(synth_v4(i as u32, ns_idx as u32)),
            ))
            .unwrap();
            zone.push(Record::new(
                ns_name,
                172800,
                Rdata::Aaaa(synth_v6(i as u32, ns_idx as u32)),
            ))
            .unwrap();
        }
        // DS record (digest synthesized deterministically from the label).
        let digest = dns_crypto::Sha256::digest(label.as_bytes()).to_vec();
        zone.push(Record::new(
            tld,
            86400,
            Rdata::Ds(dns_wire::rdata::Ds {
                key_tag: (i as u16).wrapping_mul(257).wrapping_add(1),
                algorithm: dns_crypto::SIMSIG_ALGORITHM,
                digest_type: 2,
                digest,
            }),
        ))
        .unwrap();
    }
    // Sign (adds DNSKEY, NSEC chain, RRSIGs).
    sign_zone(
        &mut zone,
        keys,
        &SigningConfig {
            inception: cfg.inception,
            expiration: cfg.expiration,
            dnskey_ttl: 172800,
            nsec_ttl: 86400,
        },
    );
    // ZONEMD per roll-out phase, then re-sign the apex ZONEMD RRset only —
    // the real pipeline computes the digest over the signed zone (with
    // ZONEMD and its RRSIG excluded) and then signs the ZONEMD record.
    if let Some(alg) = cfg.rollout.digest_alg() {
        let zmd = make_zonemd_record(&zone, alg, 86400).expect("zone is well formed");
        zone.push(zmd.clone()).unwrap();
        let rrsig =
            crate::signer::sign_single_rrset(&zone, &[zmd], keys, cfg.inception, cfg.expiration);
        zone.push(rrsig).unwrap();
    }
    zone
}

/// The i-th TLD label: a real label for small `i`, synthetic beyond.
pub fn tld_label(i: usize) -> String {
    if i < COMMON_TLDS.len() {
        // Skip the IDN entry for machine-generated zones, keeping labels
        // ASCII; use its punycode form instead.
        let l = COMMON_TLDS[i];
        if l.is_ascii() {
            l.to_string()
        } else {
            "xn--rhqv96g".to_string() // punycode of the IDN sample
        }
    } else {
        format!("tld{i:04}")
    }
}

fn synth_v4(tld: u32, ns: u32) -> Ipv4Addr {
    // 192.0.x.y documentation-adjacent space, deterministic.
    Ipv4Addr::new(
        203,
        ((tld / 250) % 250) as u8,
        (tld % 250) as u8,
        (10 + ns) as u8,
    )
}

fn synth_v6(tld: u32, ns: u32) -> Ipv6Addr {
    Ipv6Addr::new(0x2001, 0xdb8, tld as u16, ns as u16, 0, 0, 0, 0x53)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{validate_zone, ValidationIssue};
    use crate::zonemd::verify_zonemd;
    use dns_wire::RrType;

    fn keys() -> ZoneKeys {
        ZoneKeys::from_seed(2023)
    }

    #[test]
    fn zone_has_13_root_ns() {
        let z = build_root_zone(&RootZoneConfig::default(), &keys());
        assert_eq!(z.rrset(&Name::root(), RrType::Ns).len(), 13);
    }

    #[test]
    fn tld_delegations_present_with_glue_and_ds() {
        let cfg = RootZoneConfig {
            tld_count: 5,
            ..Default::default()
        };
        let z = build_root_zone(&cfg, &keys());
        let com = Name::parse("com.").unwrap();
        assert_eq!(z.rrset(&com, RrType::Ns).len(), 2);
        assert_eq!(z.rrset(&com, RrType::Ds).len(), 1);
        let glue = Name::parse("ns0.com.").unwrap();
        assert_eq!(z.rrset(&glue, RrType::A).len(), 1);
        assert_eq!(z.rrset(&glue, RrType::Aaaa).len(), 1);
    }

    #[test]
    fn validating_phase_zone_passes_zonemd() {
        let cfg = RootZoneConfig {
            rollout: RolloutPhase::Validating,
            ..Default::default()
        };
        let z = build_root_zone(&cfg, &keys());
        assert_eq!(verify_zonemd(&z), Ok(()));
    }

    #[test]
    fn private_phase_zone_is_unverifiable() {
        let cfg = RootZoneConfig {
            rollout: RolloutPhase::PrivateAlgorithm,
            ..Default::default()
        };
        let z = build_root_zone(&cfg, &keys());
        assert!(matches!(
            verify_zonemd(&z),
            Err(crate::zonemd::ZonemdError::UnsupportedAlgorithm)
        ));
    }

    #[test]
    fn no_record_phase_has_no_zonemd() {
        let z = build_root_zone(&RootZoneConfig::default(), &keys());
        assert!(z.rrset(&Name::root(), RrType::Zonemd).is_empty());
    }

    #[test]
    fn full_validation_passes_inside_window() {
        let cfg = RootZoneConfig {
            rollout: RolloutPhase::Validating,
            ..Default::default()
        };
        let z = build_root_zone(&cfg, &keys());
        let report = validate_zone(&z, cfg.inception + 86400);
        assert!(report.is_valid(), "issues: {:?}", report.issues);
    }

    #[test]
    fn full_validation_detects_expiry() {
        let cfg = RootZoneConfig {
            rollout: RolloutPhase::Validating,
            ..Default::default()
        };
        let z = build_root_zone(&cfg, &keys());
        let report = validate_zone(&z, cfg.expiration + 1);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::SignatureExpired { .. })));
    }

    #[test]
    fn serial_flows_through() {
        let cfg = RootZoneConfig {
            serial: 2023122400,
            ..Default::default()
        };
        let z = build_root_zone(&cfg, &keys());
        assert_eq!(z.serial().unwrap(), 2023122400);
    }

    #[test]
    fn tld_labels_unique_and_ascii() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            let l = tld_label(i);
            assert!(l.is_ascii(), "{l}");
            assert!(seen.insert(l));
        }
    }

    #[test]
    fn deterministic_generation() {
        let cfg = RootZoneConfig::default();
        let a = build_root_zone(&cfg, &keys());
        let b = build_root_zone(&cfg, &keys());
        assert_eq!(a, b);
    }
}
