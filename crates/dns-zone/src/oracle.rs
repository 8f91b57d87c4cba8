//! The zone-integrity code as it stood while every RDATA comparison
//! encoded both records afresh, kept as the oracle the signer, the digest
//! and the validator must agree with: the same records in the same order,
//! the same digests, the same issues in the same order.
//!
//! `canonical_cmp` writes both RDATAs into two new writers per comparison,
//! `sign_zone` groups a clone of every record into a B-tree before it
//! signs, `signed_data` sorts and re-encodes each RRset per signature, and
//! `validate` verifies an RRSIG only when the clock falls inside its
//! window; the NSEC chain hashes every owner twice. Only `dnskey_tag` is
//! shared with the code under test.

use crate::rootzone::{build_root_zone as build_current, RootZoneConfig};
use crate::signer::{dnskey_tag, SigningConfig, ZoneKeys};
use crate::validate::{ValidationIssue, ValidationReport};
use crate::zone::Zone;
use crate::zonemd::{ZonemdError, SCHEME_SIMPLE};
use dns_crypto::simsig::{SimKeyPair, SIMSIG_ALGORITHM};
use dns_crypto::validity::{check_window, SignatureValidity};
use dns_crypto::DigestAlg;
use dns_wire::rdata::{Nsec, Rdata, Rrsig, Zonemd};
use dns_wire::wire::WireWriter;
use dns_wire::{Name, Record, RrType};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

/// RFC 4034 §6.3 order: owner, class, type, then canonical RDATA bytes.
fn canonical_cmp(a: &Record, b: &Record) -> Ordering {
    a.name
        .canonical_cmp(&b.name)
        .then_with(|| a.class.to_u16().cmp(&b.class.to_u16()))
        .then_with(|| a.rr_type.to_u16().cmp(&b.rr_type.to_u16()))
        .then_with(|| {
            let mut wa = WireWriter::new();
            a.rdata
                .write_wire(&mut wa, a.rr_type.rdata_has_canonical_names());
            let mut wb = WireWriter::new();
            b.rdata
                .write_wire(&mut wb, b.rr_type.rdata_has_canonical_names());
            wa.into_bytes().cmp(&wb.into_bytes())
        })
}

/// RFC 4034 §6.2 canonical wire form of one RR, `ttl` substituted.
fn canonical_wire(rec: &Record, ttl: Option<u32>) -> Vec<u8> {
    let mut w = WireWriter::new();
    rec.name.write_wire(&mut w, true);
    w.put_u16(rec.rr_type.to_u16());
    w.put_u16(rec.class.to_u16());
    w.put_u32(ttl.unwrap_or(rec.ttl));
    let len_at = w.len();
    w.put_u16(0);
    let before = w.len();
    rec.rdata
        .write_wire(&mut w, rec.rr_type.rdata_has_canonical_names());
    w.patch_u16(len_at, (w.len() - before) as u16);
    w.into_bytes()
}

/// Sorted into canonical order, duplicates removed.
fn canonical_records(zone: &Zone) -> Vec<&Record> {
    let mut recs: Vec<&Record> = zone.records().iter().collect();
    recs.sort_by(|a, b| canonical_cmp(a, b));
    recs.dedup_by(|a, b| canonical_cmp(a, b) == Ordering::Equal);
    recs
}

/// RRSIG RDATA without its signature, then the RRset in canonical order
/// at the RRSIG's original TTL (RFC 4034 §3.1.8.1).
pub fn signed_data(rrsig: &Rrsig, records: &[&Record]) -> Vec<u8> {
    let mut prefix = WireWriter::new();
    rrsig.write_signed_prefix(&mut prefix);
    let mut data = prefix.into_bytes();
    let mut sorted = records.to_vec();
    sorted.sort_by(|a, b| canonical_cmp(a, b));
    sorted.dedup_by(|a, b| canonical_cmp(a, b) == Ordering::Equal);
    for rec in sorted {
        data.extend_from_slice(&canonical_wire(rec, Some(rrsig.original_ttl)));
    }
    data
}

fn add_nsec_chain(zone: &mut Zone, ttl: u32) {
    let owners = zone.owner_names();
    if owners.is_empty() {
        return;
    }
    let mut types_at: HashMap<&Name, Vec<RrType>> = HashMap::new();
    for rec in zone.records() {
        types_at.entry(&rec.name).or_default().push(rec.rr_type);
    }
    let mut nsecs = Vec::new();
    for (i, owner) in owners.iter().enumerate() {
        let next = owners[(i + 1) % owners.len()].clone();
        let mut types = types_at.remove(owner).unwrap_or_default();
        types.push(RrType::Nsec);
        types.push(RrType::Rrsig);
        types.sort_by_key(|t| t.to_u16());
        types.dedup();
        nsecs.push(Record::new(
            owner.clone(),
            ttl,
            Rdata::Nsec(Nsec {
                next_domain: next,
                types,
            }),
        ));
    }
    for rec in nsecs {
        zone.push(rec).unwrap();
    }
}

pub fn sign_zone(zone: &mut Zone, keys: &ZoneKeys, cfg: &SigningConfig) {
    let origin = zone.origin().clone();
    zone.records_mut()
        .retain(|r| !matches!(r.rr_type, RrType::Dnskey | RrType::Nsec | RrType::Rrsig));
    zone.push(keys.ksk_record(&origin, cfg.dnskey_ttl)).unwrap();
    zone.push(keys.zsk_record(&origin, cfg.dnskey_ttl)).unwrap();
    add_nsec_chain(zone, cfg.nsec_ttl);

    let mut rrsets: BTreeMap<(Name, u16), Vec<Record>> = BTreeMap::new();
    for rec in zone.records() {
        rrsets
            .entry((rec.name.clone(), rec.rr_type.to_u16()))
            .or_default()
            .push(rec.clone());
    }
    let mut signatures = Vec::new();
    for ((owner, type_num), records) in &rrsets {
        let rr_type = RrType::from_u16(*type_num);
        if !(owner == &origin || matches!(rr_type, RrType::Nsec | RrType::Ds)) {
            continue;
        }
        let ksk = rr_type == RrType::Dnskey;
        let key = if ksk { &keys.ksk } else { &keys.zsk };
        signatures.push(sign_rrset(
            owner,
            rr_type,
            records,
            key,
            dnskey_tag(keys, ksk),
            &origin,
            cfg.inception,
            cfg.expiration,
        ));
    }
    for sig in signatures {
        zone.push(sig).unwrap();
    }
}

#[allow(clippy::too_many_arguments)]
fn sign_rrset(
    owner: &Name,
    rr_type: RrType,
    records: &[Record],
    key: &SimKeyPair,
    key_tag: u16,
    signer: &Name,
    inception: u32,
    expiration: u32,
) -> Record {
    let original_ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0);
    let mut rrsig = Rrsig {
        type_covered: rr_type,
        algorithm: SIMSIG_ALGORITHM,
        labels: owner.label_count() as u8,
        original_ttl,
        expiration,
        inception,
        key_tag,
        signer_name: signer.clone(),
        signature: Vec::new(),
    };
    let records: Vec<&Record> = records.iter().collect();
    rrsig.signature = key.sign(&signed_data(&rrsig, &records)).to_vec();
    Record::new(owner.clone(), original_ttl, Rdata::Rrsig(rrsig))
}

fn excluded_from_digest(rec: &Record, zone: &Zone) -> bool {
    if rec.name != *zone.origin() {
        return false;
    }
    match (&rec.rr_type, &rec.rdata) {
        (RrType::Zonemd, _) => true,
        (RrType::Rrsig, Rdata::Rrsig(sig)) => sig.type_covered == RrType::Zonemd,
        _ => false,
    }
}

pub fn compute_zonemd(zone: &Zone, alg: DigestAlg) -> Result<Vec<u8>, ZonemdError> {
    zone.check()
        .map_err(|e| ZonemdError::BadZone(e.to_string()))?;
    let mut input = Vec::new();
    for rec in canonical_records(zone) {
        if excluded_from_digest(rec, zone) {
            continue;
        }
        input.extend_from_slice(&canonical_wire(rec, None));
    }
    Ok(alg.digest(&input))
}

pub fn verify_zonemd(zone: &Zone) -> Result<(), ZonemdError> {
    let soa_serial = zone
        .serial()
        .map_err(|e| ZonemdError::BadZone(e.to_string()))?;
    let zonemds = zone.rrset(zone.origin(), RrType::Zonemd);
    if zonemds.is_empty() {
        return Err(ZonemdError::NoZonemd);
    }
    let mut serial_mismatch = None;
    let mut mismatch = false;
    for rec in zonemds {
        let Rdata::Zonemd(z) = &rec.rdata else {
            continue;
        };
        if z.serial != soa_serial {
            serial_mismatch = Some(z.serial);
            continue;
        }
        if z.scheme != SCHEME_SIMPLE {
            continue;
        }
        let alg = DigestAlg::from_zonemd_number(z.hash_algorithm);
        if !alg.is_verifiable() {
            continue;
        }
        if compute_zonemd(zone, alg)? == z.digest {
            return Ok(());
        }
        mismatch = true;
    }
    if mismatch {
        Err(ZonemdError::DigestMismatch)
    } else if let Some(zserial) = serial_mismatch {
        Err(ZonemdError::SerialMismatch {
            soa: soa_serial,
            zonemd: zserial,
        })
    } else {
        Err(ZonemdError::UnsupportedAlgorithm)
    }
}

/// `validate_zone` (`zonemd` = [`verify_zonemd`]) and `validate_rrsigs`
/// (`zonemd` = `|_| Ok(())`).
pub fn validate(
    zone: &Zone,
    now: u32,
    zonemd: impl FnOnce(&Zone) -> Result<(), ZonemdError>,
) -> ValidationReport {
    let mut issues = Vec::new();
    let serial = zone.serial().ok();
    if let Err(e) = zone.check() {
        issues.push(ValidationIssue::BadZone(e.to_string()));
        return ValidationReport {
            validated_at: now,
            serial,
            issues,
        };
    }
    let mut rrsets: HashMap<(&Name, RrType), Vec<&Record>> = HashMap::new();
    for rec in zone.records() {
        rrsets
            .entry((&rec.name, rec.rr_type))
            .or_default()
            .push(rec);
    }
    let dnskeys: Vec<(u16, SimKeyPair)> = rrsets
        .get(&(zone.origin(), RrType::Dnskey))
        .into_iter()
        .flatten()
        .filter_map(|r| match &r.rdata {
            Rdata::Dnskey(k) => Some((k.key_tag(), SimKeyPair::from_public(&k.public_key)?)),
            _ => None,
        })
        .collect();
    if dnskeys.is_empty() {
        issues.push(ValidationIssue::NoDnskeys);
    }
    for rec in zone.records() {
        let Rdata::Rrsig(sig) = &rec.rdata else {
            continue;
        };
        let covered = sig.type_covered;
        let owner = || rec.name.to_string();
        let bogus = || ValidationIssue::BogusSignature {
            owner: owner(),
            covered,
        };
        let issue = match check_window(sig.inception, sig.expiration, now) {
            Ok(SignatureValidity::NotYetIncepted) => Some(ValidationIssue::SignatureNotIncepted {
                owner: owner(),
                covered,
            }),
            Ok(SignatureValidity::Expired) => Some(ValidationIssue::SignatureExpired {
                owner: owner(),
                covered,
            }),
            Err(_) => Some(bogus()),
            Ok(SignatureValidity::Valid) => {
                match dnskeys.iter().find(|(tag, _)| *tag == sig.key_tag) {
                    None => (!dnskeys.is_empty()).then(|| ValidationIssue::UnknownKeyTag {
                        owner: owner(),
                        key_tag: sig.key_tag,
                    }),
                    Some((_, key)) => {
                        let verified = rrsets.get(&(&rec.name, covered)).is_some_and(|rrset| {
                            key.verify(&signed_data(sig, rrset), &sig.signature)
                        });
                        (!verified).then(bogus)
                    }
                }
            }
        };
        issues.extend(issue);
    }
    match zonemd(zone) {
        Ok(()) | Err(ZonemdError::NoZonemd) | Err(ZonemdError::UnsupportedAlgorithm) => {}
        Err(e) => issues.push(ValidationIssue::Zonemd(e)),
    }
    ValidationReport {
        validated_at: now,
        serial,
        issues,
    }
}

/// `build_root_zone`'s records, signed and digested by the oracle: the
/// unsigned zone is the current build with every DNSSEC and ZONEMD
/// record taken out (signing only ever appends).
pub fn build_root_zone(cfg: &RootZoneConfig, keys: &ZoneKeys) -> Zone {
    let mut zone = build_current(cfg, keys);
    zone.records_mut().retain(|r| {
        !matches!(
            r.rr_type,
            RrType::Dnskey | RrType::Nsec | RrType::Rrsig | RrType::Zonemd
        )
    });
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
    if let Some(alg) = cfg.rollout.digest_alg() {
        let zmd = Record::new(
            Name::root(),
            86400,
            Rdata::Zonemd(Zonemd {
                serial: zone.serial().unwrap(),
                scheme: SCHEME_SIMPLE,
                hash_algorithm: alg.zonemd_number(),
                digest: compute_zonemd(&zone, alg).unwrap(),
            }),
        );
        zone.push(zmd.clone()).unwrap();
        let origin = zone.origin().clone();
        let rrsig = sign_rrset(
            &origin,
            RrType::Zonemd,
            &[zmd],
            &keys.zsk,
            dnskey_tag(keys, false),
            &origin,
            cfg.inception,
            cfg.expiration,
        );
        zone.push(rrsig).unwrap();
    }
    zone
}

mod tests {
    use super::*;
    use crate::corrupt::{flip_owner_label_bit, flip_rrsig_bit};
    use crate::rollout::RolloutPhase;
    use crate::validate::{validate_rrsigs, validate_zone};
    use crate::zonemd;
    use dns_wire::presentation::record_to_line;

    const PHASES: [RolloutPhase; 3] = [
        RolloutPhase::NoRecord,
        RolloutPhase::PrivateAlgorithm,
        RolloutPhase::Validating,
    ];

    fn config(tld_count: usize, rollout: RolloutPhase) -> RootZoneConfig {
        RootZoneConfig {
            tld_count,
            rollout,
            ..Default::default()
        }
    }

    fn dump(zone: &Zone) -> Vec<String> {
        zone.records().iter().map(record_to_line).collect()
    }

    /// Digests under every algorithm, ZONEMD verification, and both
    /// validators before inception, inside the window and after expiry.
    fn assert_agrees(zone: &Zone, cfg: &RootZoneConfig, what: &str) {
        for alg in [
            DigestAlg::Sha384,
            DigestAlg::Sha512,
            DigestAlg::Private(240),
        ] {
            assert_eq!(
                zonemd::compute_zonemd(zone, alg),
                compute_zonemd(zone, alg),
                "{what}: {alg:?} digest"
            );
        }
        assert_eq!(
            zonemd::verify_zonemd(zone),
            verify_zonemd(zone),
            "{what}: ZONEMD"
        );
        for now in [
            cfg.inception - 100,
            cfg.inception + 1000,
            cfg.expiration + 100,
        ] {
            assert_eq!(
                validate_zone(zone, now),
                validate(zone, now, verify_zonemd),
                "{what} at {now}"
            );
            assert_eq!(
                validate_rrsigs(zone, now),
                validate(zone, now, |_| Ok(())),
                "{what}: RRSIGs at {now}"
            );
        }
    }

    /// The faults Table 2 and the transfer path produce, and the odd
    /// shapes each step has a branch for.
    fn faulted(clean: &Zone, flips: u64) -> Vec<(String, Zone)> {
        let mut out = Vec::new();
        let mut variant = |what: String, edit: &dyn Fn(&mut Zone)| {
            let mut z = clean.clone();
            edit(&mut z);
            out.push((what, z));
        };
        for seed in 0..flips {
            variant(format!("rrsig flip {seed}"), &|z| {
                flip_rrsig_bit(z, seed).unwrap();
            });
        }
        variant("owner flip".into(), &|z| {
            flip_owner_label_bit(z, 4).unwrap();
        });
        // A serial moved on without a new digest (a stale ZONEMD).
        variant("stale serial".into(), &|z| {
            for rec in z.records_mut() {
                if let Rdata::Soa(soa) = &mut rec.rdata {
                    soa.serial += 1;
                }
            }
        });
        variant("unknown key tag".into(), &|z| {
            for rec in z.records_mut() {
                if let Rdata::Rrsig(sig) = &mut rec.rdata {
                    sig.key_tag ^= 0x55;
                    break;
                }
            }
        });
        let com = Name::parse("com.").unwrap();
        variant("duplicated record".into(), &|z| {
            let ds = z.rrset(&com, RrType::Ds)[0].clone();
            z.push(ds).unwrap();
        });
        // Equal in canonical form, not in TTL: one copy is kept, the first.
        variant("duplicate at another TTL".into(), &|z| {
            let mut ns = z.rrset(&com, RrType::Ns)[1].clone();
            ns.ttl -= 1;
            z.push(ns).unwrap();
        });
        // Names compare without case: a re-cased copy is a duplicate, a
        // re-cased owner with new RDATA joins the RRset and breaks it.
        variant("mixed-case duplicate".into(), &|z| {
            let mut ds = z.rrset(&com, RrType::Ds)[0].clone();
            ds.name = Name::parse("CoM.").unwrap();
            z.push(ds).unwrap();
        });
        variant("mixed-case owner".into(), &|z| {
            let mut ds = z.rrset(&com, RrType::Ds)[0].clone();
            ds.name = Name::parse("cOM.").unwrap();
            if let Rdata::Ds(d) = &mut ds.rdata {
                d.key_tag ^= 1;
            }
            z.push(ds).unwrap();
        });
        variant("RRSIG without its RRset".into(), &|z| {
            z.remove_rrset(&com, RrType::Ds);
        });
        variant("no DNSKEY RRset".into(), &|z| {
            z.remove_rrset(&Name::root(), RrType::Dnskey);
        });
        variant("missing SOA".into(), &|z| {
            z.remove_rrset(&Name::root(), RrType::Soa);
        });
        out
    }

    #[test]
    fn signing_digests_and_validation_match_the_oracle() {
        let keys = ZoneKeys::from_seed(0x2023);
        for tlds in [1, 25, 1_500] {
            for phase in PHASES {
                let cfg = config(tlds, phase);
                let zone = build_current(&cfg, &keys);
                let what = format!("{tlds} TLDs, {phase:?}");
                assert_eq!(dump(&zone), dump(&build_root_zone(&cfg, &keys)), "{what}");
                assert_agrees(&zone, &cfg, &what);
                // Every fault on the small zones; the root-sized one is
                // the same code at scale, and one flip and the clean copy
                // cover its branches.
                if tlds == 1_500 {
                    let mut z = zone.clone();
                    flip_rrsig_bit(&mut z, 7).unwrap();
                    assert_agrees(&z, &cfg, &format!("{what}, rrsig flip"));
                    continue;
                }
                for (fault, z) in faulted(&zone, 8) {
                    assert_agrees(&z, &cfg, &format!("{what}, {fault}"));
                }
            }
        }
    }

    #[test]
    fn resigning_a_signed_zone_matches_the_oracle() {
        // `sign_zone` strips what an earlier pass added; a re-signed copy
        // (fresh window, faults in the unsigned part) must come out the same.
        let keys = ZoneKeys::from_seed(5);
        let cfg = config(25, RolloutPhase::NoRecord);
        let signing = SigningConfig {
            inception: cfg.inception + 86400,
            expiration: cfg.expiration + 86400,
            dnskey_ttl: 3600,
            nsec_ttl: 600,
        };
        for (fault, z) in faulted(&build_current(&cfg, &keys), 2) {
            if z.check().is_err() {
                continue;
            }
            let (mut ours, mut theirs) = (z.clone(), z);
            crate::signer::sign_zone(&mut ours, &keys, &signing);
            sign_zone(&mut theirs, &keys, &signing);
            assert_eq!(dump(&ours), dump(&theirs), "{fault}");
        }
    }

    #[test]
    fn signatures_over_loose_rrsets_match_the_oracle() {
        use crate::signer::{compute_signature, verify_signature};
        let keys = ZoneKeys::from_seed(3);
        let zone = build_current(&config(25, RolloutPhase::Validating), &keys);
        let rrsig = Rrsig {
            type_covered: RrType::Ns,
            algorithm: SIMSIG_ALGORITHM,
            labels: 0,
            original_ttl: 518400,
            expiration: 2,
            inception: 1,
            key_tag: 0,
            signer_name: Name::parse("A.Root-Servers.NET.").unwrap(),
            signature: Vec::new(),
        };
        // Unsorted, duplicated, differently cased: the apex NS set
        // reversed with its first record twice.
        let mut set: Vec<Record> = zone
            .rrset(&Name::root(), RrType::Ns)
            .into_iter()
            .rev()
            .cloned()
            .collect();
        let mut shouted = set[0].clone();
        if let Rdata::Ns(n) = &mut shouted.rdata {
            *n = Name::parse(&n.to_string().to_ascii_uppercase()).unwrap();
        }
        set.push(shouted);
        let refs: Vec<&Record> = set.iter().collect();
        let want = keys.zsk.sign(&signed_data(&rrsig, &refs)).to_vec();
        assert_eq!(compute_signature(&rrsig, &set, &keys.zsk), want);
        let signed = Rrsig {
            signature: want,
            ..rrsig
        };
        assert!(verify_signature(&signed, &set, &keys.zsk));
    }
}
