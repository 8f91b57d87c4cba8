//! Full zone validation — the `ldnsutils` equivalent the paper ran over
//! every transferred zone (§7): verify the ZONEMD digest and *all* `RRSIG`
//! records against the zone's DNSKEYs at a given validation time.
//!
//! The error taxonomy mirrors the paper's Table 2:
//!
//! * `SignatureNotIncepted` — "Sig. not incepted" (VP clock ahead/behind);
//! * `BogusSignature` — "Bogus Signature" (bitflips in transit/at rest);
//! * `SignatureExpired` — "Signature expired" (stale zone files);
//! * ZONEMD-specific failures from [`crate::zonemd`].

use crate::canonical::{Canonical, Entry, SPLIT_RECORDS};
use crate::zone::Zone;
use crate::zonemd::{self, ZonemdError};
use dns_crypto::simsig::SimKeyPair;
use dns_crypto::validity::{check_window, SignatureValidity};
use dns_wire::rdata::Rdata;
use dns_wire::wire::WireWriter;
use dns_wire::{Name, Record, RrType};
use std::panic::resume_unwind;

/// One validation finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationIssue {
    /// The zone fails structural checks entirely.
    BadZone(String),
    /// No DNSKEY RRset at the apex.
    NoDnskeys,
    /// An RRSIG's inception is in the future at validation time.
    SignatureNotIncepted { owner: String, covered: RrType },
    /// An RRSIG expired before validation time.
    SignatureExpired { owner: String, covered: RrType },
    /// An RRSIG fails cryptographic verification.
    BogusSignature { owner: String, covered: RrType },
    /// An RRSIG references a key tag not present in the DNSKEY RRset.
    UnknownKeyTag { owner: String, key_tag: u16 },
    /// ZONEMD verification failed.
    Zonemd(ZonemdError),
}

impl ValidationIssue {
    /// The paper's Table 2 "Reason" label for this issue, if it maps to one.
    pub fn table2_reason(&self) -> Option<&'static str> {
        match self {
            ValidationIssue::SignatureNotIncepted { .. } => Some("Sig. not incepted"),
            ValidationIssue::BogusSignature { .. } => Some("Bogus Signature"),
            ValidationIssue::SignatureExpired { .. } => Some("Signature expired"),
            _ => None,
        }
    }
}

/// Result of validating one zone copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationReport {
    /// Validation time used (seconds since epoch).
    pub validated_at: u32,
    /// The zone serial, if readable.
    pub serial: Option<u32>,
    /// All findings; empty means fully valid.
    pub issues: Vec<ValidationIssue>,
}

impl ValidationReport {
    /// True when no issues were found.
    pub fn is_valid(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Validate `zone` at time `now`: ZONEMD (when a verifiable record should be
/// checked) and every RRSIG.
///
/// ZONEMD absence is only an issue if the zone *should* have one — the
/// caller decides by consulting [`crate::rollout::RolloutPhase`]; here a
/// missing or private-algorithm ZONEMD is reported as informational absence
/// via `Zonemd(...)` only for digest mismatches, mirroring how the paper's
/// pipeline treated the roll-out phases.
pub fn validate_zone(zone: &Zone, now: u32) -> ValidationReport {
    ZoneVerdicts::of(zone).at(now)
}

/// Structure, DNSKEYs and every RRSIG: [`validate_zone`] without its ZONEMD
/// step. For a caller that runs [`crate::verify_zonemd`] itself and applies
/// its own policy to the verdict; when it has refused everything
/// `validate_zone` would report (anything but success, absence or a private
/// algorithm) the two reports are equal, and the zone — a SHA-384 of all
/// of it — is digested once per validation, not twice.
pub fn validate_rrsigs(zone: &Zone, now: u32) -> ValidationReport {
    ZoneVerdicts::compute(zone, false).at(now)
}

/// Everything [`validate_zone`] finds that does not depend on the clock:
/// the zone's structure, its usable DNSKEYs, each RRSIG's cryptographic
/// verdict and validity window, and the ZONEMD verdict. [`Self::at`]
/// applies a clock to them, so a copy observed at many times is verified
/// once: `ZoneVerdicts::of(z).at(t)` is `validate_zone(z, t)`, issue for
/// issue.
///
/// The zone is written in canonical form once (`Canonical`): each
/// RRSIG's signed data copies its RRset's forms from the owner's run, and
/// the ZONEMD digest reads the same forms.
#[derive(Debug, Clone)]
pub struct ZoneVerdicts {
    serial: Option<u32>,
    /// `Err`: the structural check's finding; nothing else was looked at.
    checked: Result<Checked, String>,
}

#[derive(Debug, Clone)]
struct Checked {
    no_dnskeys: bool,
    /// One per RRSIG record, in zone order.
    rrsigs: Vec<RrsigVerdict>,
    /// A ZONEMD finding that is an integrity issue.
    zonemd: Option<ZonemdError>,
}

#[derive(Debug, Clone)]
struct RrsigVerdict {
    owner: Name,
    covered: RrType,
    inception: u32,
    expiration: u32,
    key: KeyVerdict,
}

/// What an RRSIG's key tag found, and what its key made of the signature.
#[derive(Debug, Clone, Copy)]
enum KeyVerdict {
    /// The zone publishes no usable DNSKEY: nothing to report per RRSIG.
    NoKeys,
    /// No usable DNSKEY has this tag.
    UnknownTag(u16),
    /// Whether the first key with the tag verifies the covered RRset.
    Verified(bool),
}

impl ZoneVerdicts {
    /// The verdicts [`validate_zone`] reads, ZONEMD included.
    pub fn of(zone: &Zone) -> ZoneVerdicts {
        ZoneVerdicts::compute(zone, true)
    }

    /// The verdicts in one part, or from [`SPLIT_RECORDS`] records on in
    /// two.
    fn compute(zone: &Zone, with_zonemd: bool) -> ZoneVerdicts {
        let parts = if zone.records().len() < SPLIT_RECORDS {
            1
        } else {
            2
        };
        Self::in_parts(zone, with_zonemd, parts)
    }

    /// The zone written in canonical form in `parts` parts, and its
    /// RRSIGs verified in `parts` runs of whole owners, each on a thread
    /// of its own (the first on the caller's): the same verdicts however
    /// many.
    pub(crate) fn in_parts(zone: &Zone, with_zonemd: bool, parts: usize) -> ZoneVerdicts {
        let serial = zone.serial().ok();
        if let Err(e) = zone.check() {
            return ZoneVerdicts {
                serial,
                checked: Err(e.to_string()),
            };
        }
        // Apex DNSKEYs in zone order; a key that is not 32 bytes of SIMSIG
        // material is no key.
        let dnskeys: Vec<(u16, SimKeyPair)> = (zone.rrset(zone.origin(), RrType::Dnskey))
            .into_iter()
            .filter_map(|r| match &r.rdata {
                Rdata::Dnskey(k) => Some((k.key_tag(), SimKeyPair::from_public(&k.public_key)?)),
                _ => None,
            })
            .collect();

        // An RRSIG and the RRset it covers share an owner, and an owner's
        // records are one run of the canonical order: verify each RRSIG
        // from its run, a run of whole owners per part, then put the
        // verdicts back in zone order.
        let records: Vec<&Record> = zone.records().iter().collect();
        let canon = Canonical::in_parts(&records, parts);
        drop(records);
        let verify = |run| verify_rrsigs(&canon, run, &dnskeys);
        let mut runs = canon.owner_parts(parts).into_iter();
        let mut rrsigs = std::thread::scope(|s| {
            let first = runs.next();
            let rest: Vec<_> = runs.map(|run| s.spawn(move || verify(run))).collect();
            let mut rrsigs = first.map(verify).unwrap_or_default();
            for run in rest {
                rrsigs.extend(run.join().unwrap_or_else(|e| resume_unwind(e)));
            }
            rrsigs
        });
        rrsigs.sort_unstable_by_key(|&(index, _)| index);

        // ZONEMD: only a *mismatch* of a verifiable record is an integrity
        // issue; absence / private algorithm are roll-out states.
        let zonemd = match with_zonemd.then(|| zonemd::verify(zone, Some(&canon))) {
            None | Some(Ok(())) => None,
            Some(Err(ZonemdError::NoZonemd | ZonemdError::UnsupportedAlgorithm)) => None,
            Some(Err(e)) => Some(e),
        };
        ZoneVerdicts {
            serial,
            checked: Ok(Checked {
                no_dnskeys: dnskeys.is_empty(),
                rrsigs: rrsigs.into_iter().map(|(_, verdict)| verdict).collect(),
                zonemd,
            }),
        }
    }

    /// The report of validating the zone at `now`.
    pub fn at(&self, now: u32) -> ValidationReport {
        let mut issues = Vec::new();
        match &self.checked {
            Err(bad) => issues.push(ValidationIssue::BadZone(bad.clone())),
            Ok(checked) => {
                if checked.no_dnskeys {
                    issues.push(ValidationIssue::NoDnskeys);
                }
                issues.extend(checked.rrsigs.iter().filter_map(|sig| sig.issue_at(now)));
                issues.extend(checked.zonemd.clone().map(ValidationIssue::Zonemd));
            }
        }
        ValidationReport {
            validated_at: now,
            serial: self.serial,
            issues,
        }
    }
}

/// Each RRSIG of `run` — whole owners of `canon` — with its verdict and
/// its position in the zone.
fn verify_rrsigs(
    canon: &Canonical<'_>,
    run: &[Entry<'_>],
    dnskeys: &[(u16, SimKeyPair)],
) -> Vec<(u32, RrsigVerdict)> {
    let mut rrsigs = Vec::new();
    let mut data = WireWriter::new();
    for owner in canon.owners_of(run) {
        for e in owner {
            let Rdata::Rrsig(sig) = &e.rec.rdata else {
                continue;
            };
            let key = if dnskeys.is_empty() {
                KeyVerdict::NoKeys
            } else {
                match dnskeys.iter().find(|(tag, _)| *tag == sig.key_tag) {
                    None => KeyVerdict::UnknownTag(sig.key_tag),
                    Some((_, key)) => {
                        let covered = sig.type_covered;
                        let rrset = || owner.iter().filter(move |e| e.rec.rr_type == covered);
                        let verified = rrset().next().is_some() && {
                            data.truncate(0);
                            canon.write_signed_data(sig, rrset(), &mut data);
                            key.verify(data.as_bytes(), &sig.signature)
                        };
                        KeyVerdict::Verified(verified)
                    }
                }
            };
            let verdict = RrsigVerdict {
                owner: e.rec.name.clone(),
                covered: sig.type_covered,
                inception: sig.inception,
                expiration: sig.expiration,
                key,
            };
            rrsigs.push((e.index, verdict));
        }
    }
    rrsigs
}

impl RrsigVerdict {
    /// The window first, at `now`; inside it, what the key found.
    fn issue_at(&self, now: u32) -> Option<ValidationIssue> {
        let (owner, covered) = (|| self.owner.to_string(), self.covered);
        let bogus = || ValidationIssue::BogusSignature {
            owner: owner(),
            covered,
        };
        match check_window(self.inception, self.expiration, now) {
            Ok(SignatureValidity::NotYetIncepted) => Some(ValidationIssue::SignatureNotIncepted {
                owner: owner(),
                covered,
            }),
            Ok(SignatureValidity::Expired) => Some(ValidationIssue::SignatureExpired {
                owner: owner(),
                covered,
            }),
            Err(_) => Some(bogus()),
            Ok(SignatureValidity::Valid) => match self.key {
                KeyVerdict::NoKeys | KeyVerdict::Verified(true) => None,
                KeyVerdict::UnknownTag(key_tag) => Some(ValidationIssue::UnknownKeyTag {
                    owner: owner(),
                    key_tag,
                }),
                KeyVerdict::Verified(false) => Some(bogus()),
            },
        }
    }
}

/// Validate at both a first and last observation timestamp, as the paper did
/// to distinguish clock-skew artefacts: a zone can be "not incepted" at the
/// first observation but valid at the last (§7).
pub fn validate_at_both(
    zone: &Zone,
    first_obs: u32,
    last_obs: u32,
) -> (ValidationReport, ValidationReport) {
    (
        validate_zone(zone, first_obs),
        validate_zone(zone, last_obs),
    )
}

/// Find the single-bit difference between two zones' presentation dumps, if
/// the zones differ in exactly one record pair — the Figure 10 rendering.
pub fn bitflip_diff(reference: &Zone, observed: &Zone) -> Option<BitflipReport> {
    let ref_lines: Vec<String> = reference
        .canonical_records()
        .iter()
        .map(|r| dns_wire::presentation::record_to_line(r))
        .collect();
    let obs_lines: Vec<String> = observed
        .canonical_records()
        .iter()
        .map(|r| dns_wire::presentation::record_to_line(r))
        .collect();
    let ref_set: std::collections::HashSet<&String> = ref_lines.iter().collect();
    let obs_set: std::collections::HashSet<&String> = obs_lines.iter().collect();
    let missing: Vec<&String> = ref_lines.iter().filter(|l| !obs_set.contains(l)).collect();
    let added: Vec<&String> = obs_lines.iter().filter(|l| !ref_set.contains(l)).collect();
    if missing.len() == 1 && added.len() == 1 {
        Some(BitflipReport {
            reference_line: missing[0].clone(),
            observed_line: added[0].clone(),
        })
    } else {
        None
    }
}

/// The two differing presentation lines (Figure 10 shows exactly this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitflipReport {
    /// The record as served by the reference copy (e.g. ICANN download).
    pub reference_line: String,
    /// The record as received via AXFR.
    pub observed_line: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollout::RolloutPhase;
    use crate::rootzone::{build_root_zone, RootZoneConfig};
    use crate::signer::{verify_signature, ZoneKeys};
    use crate::zonemd::verify_zonemd;
    use dns_wire::Record;

    fn signed_zone() -> (Zone, RootZoneConfig) {
        let cfg = RootZoneConfig {
            rollout: RolloutPhase::Validating,
            tld_count: 8,
            ..Default::default()
        };
        (build_root_zone(&cfg, &ZoneKeys::from_seed(5)), cfg)
    }

    #[test]
    fn valid_zone_validates() {
        let (z, cfg) = signed_zone();
        assert!(validate_zone(&z, cfg.inception + 1000).is_valid());
    }

    #[test]
    fn not_incepted_before_window() {
        let (z, cfg) = signed_zone();
        let report = validate_zone(&z, cfg.inception - 100);
        assert!(report
            .issues
            .iter()
            .all(|i| matches!(i, ValidationIssue::SignatureNotIncepted { .. })));
        assert!(!report.is_valid());
        assert_eq!(report.issues[0].table2_reason(), Some("Sig. not incepted"));
    }

    #[test]
    fn expired_after_window() {
        let (z, cfg) = signed_zone();
        let report = validate_zone(&z, cfg.expiration + 100);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::SignatureExpired { .. })));
    }

    #[test]
    fn validate_at_both_distinguishes_clock_skew() {
        // First observation before inception (skewed clock), last inside.
        let (z, cfg) = signed_zone();
        let (first, last) = validate_at_both(&z, cfg.inception - 10, cfg.inception + 10);
        assert!(!first.is_valid());
        assert!(last.is_valid());
    }

    #[test]
    fn bitflip_detected_as_bogus() {
        let (mut z, cfg) = signed_zone();
        // Flip a bit inside some RRSIG signature.
        for rec in z.records_mut() {
            if let Rdata::Rrsig(sig) = &mut rec.rdata {
                sig.signature[10] ^= 0x10;
                break;
            }
        }
        let report = validate_zone(&z, cfg.inception + 1000);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::BogusSignature { .. })));
    }

    #[test]
    fn no_dnskeys_reported() {
        let (mut z, cfg) = signed_zone();
        z.remove_rrset(&Name::root(), RrType::Dnskey);
        let report = validate_zone(&z, cfg.inception + 1000);
        assert!(report.issues.contains(&ValidationIssue::NoDnskeys));
    }

    #[test]
    fn bitflip_diff_finds_single_pair() {
        let (reference, _) = signed_zone();
        let mut observed = reference.clone();
        for rec in observed.records_mut() {
            if let Rdata::Rrsig(sig) = &mut rec.rdata {
                sig.signature[0] ^= 0x01;
                break;
            }
        }
        let report = bitflip_diff(&reference, &observed).expect("one pair");
        assert_ne!(report.reference_line, report.observed_line);
        assert!(report.reference_line.contains("RRSIG"));
    }

    #[test]
    fn bitflip_diff_none_when_identical() {
        let (z, _) = signed_zone();
        assert!(bitflip_diff(&z, &z.clone()).is_none());
    }

    /// The validator this module shipped with until the RRsets were
    /// grouped: one `Zone::rrset` scan of the whole zone per RRSIG. Kept as
    /// the oracle `validate_zone` must agree with, issue for issue.
    fn reference(zone: &Zone, now: u32) -> ValidationReport {
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

        // Collect apex DNSKEYs.
        let dnskeys: Vec<(u16, SimKeyPair)> = zone
            .rrset(zone.origin(), RrType::Dnskey)
            .into_iter()
            .filter_map(|r| match &r.rdata {
                Rdata::Dnskey(k) => Some((k.key_tag(), SimKeyPair::from_public(&k.public_key)?)),
                _ => None,
            })
            .collect();
        if dnskeys.is_empty() {
            issues.push(ValidationIssue::NoDnskeys);
        }

        // Verify every RRSIG.
        for rec in zone.records() {
            let Rdata::Rrsig(sig) = &rec.rdata else {
                continue;
            };
            let owner = rec.name.to_string();
            match check_window(sig.inception, sig.expiration, now) {
                Ok(SignatureValidity::Valid) => {}
                Ok(SignatureValidity::NotYetIncepted) => {
                    issues.push(ValidationIssue::SignatureNotIncepted {
                        owner: owner.clone(),
                        covered: sig.type_covered,
                    });
                    continue;
                }
                Ok(SignatureValidity::Expired) => {
                    issues.push(ValidationIssue::SignatureExpired {
                        owner: owner.clone(),
                        covered: sig.type_covered,
                    });
                    continue;
                }
                Err(_) => {
                    issues.push(ValidationIssue::BogusSignature {
                        owner: owner.clone(),
                        covered: sig.type_covered,
                    });
                    continue;
                }
            }
            let Some((_, key)) = dnskeys.iter().find(|(tag, _)| *tag == sig.key_tag) else {
                if !dnskeys.is_empty() {
                    issues.push(ValidationIssue::UnknownKeyTag {
                        owner: owner.clone(),
                        key_tag: sig.key_tag,
                    });
                }
                continue;
            };
            let covered: Vec<Record> = zone
                .rrset(&rec.name, sig.type_covered)
                .into_iter()
                .cloned()
                .collect();
            if covered.is_empty() || !verify_signature(sig, &covered, key) {
                issues.push(ValidationIssue::BogusSignature {
                    owner,
                    covered: sig.type_covered,
                });
            }
        }

        // ZONEMD: only a *mismatch* of a verifiable record is an integrity
        // issue; absence / private algorithm are roll-out states.
        match verify_zonemd(zone) {
            Ok(()) | Err(ZonemdError::NoZonemd) | Err(ZonemdError::UnsupportedAlgorithm) => {}
            Err(e) => issues.push(ValidationIssue::Zonemd(e)),
        }

        ValidationReport {
            validated_at: now,
            serial,
            issues,
        }
    }

    fn assert_matches_reference(zone: &Zone, cfg: &RootZoneConfig, what: &str) {
        let clocks = [
            cfg.inception - 100,
            cfg.inception + 1000,
            cfg.expiration + 100,
        ];
        for now in clocks {
            assert_eq!(
                validate_zone(zone, now).issues,
                reference(zone, now).issues,
                "{what} at {now}"
            );
        }
    }

    #[test]
    fn grouped_validator_agrees_with_the_scanning_reference() {
        use crate::corrupt::{flip_owner_label_bit, flip_rrsig_bit, stale_copy};
        let (clean, cfg) = signed_zone();
        assert_matches_reference(&clean, &cfg, "clean");
        assert_matches_reference(&stale_copy(&clean), &cfg, "stale copy");
        for seed in 0..32 {
            let mut z = clean.clone();
            flip_rrsig_bit(&mut z, seed).expect("zone has RRSIGs");
            assert_matches_reference(&z, &cfg, &format!("rrsig flip {seed}"));
            let mut z = clean.clone();
            flip_owner_label_bit(&mut z, seed).expect("zone has delegations");
            assert_matches_reference(&z, &cfg, &format!("owner flip {seed}"));
        }

        let com = Name::parse("com.").unwrap();
        let mut z = clean.clone();
        z.remove_rrset(&Name::root(), RrType::Dnskey);
        assert_matches_reference(&z, &cfg, "no DNSKEY RRset");
        let mut z = clean.clone();
        assert!(z.remove_rrset(&com, RrType::Ds) > 0);
        assert_matches_reference(&z, &cfg, "RRSIG without its RRset");
        let mut z = clean.clone();
        let ds = z.rrset(&com, RrType::Ds)[0].clone();
        z.push(ds).unwrap();
        assert_matches_reference(&z, &cfg, "duplicated record");
        // A second DS under a differently-cased spelling of the owner
        // joins the same RRset (names compare case-insensitively), so the
        // signature over the original set no longer verifies.
        let mut z = clean.clone();
        let mut ds = z.rrset(&com, RrType::Ds)[0].clone();
        ds.name = Name::parse("CoM.").unwrap();
        if let Rdata::Ds(d) = &mut ds.rdata {
            d.key_tag ^= 1;
        }
        z.push(ds).unwrap();
        assert_matches_reference(&z, &cfg, "mixed-case duplicate owner");
        assert!(!validate_zone(&z, cfg.inception + 1000).is_valid());
        // An RRSIG naming a key the zone does not publish.
        let mut z = clean.clone();
        for rec in z.records_mut() {
            if let Rdata::Rrsig(sig) = &mut rec.rdata {
                sig.key_tag ^= 0x55;
                break;
            }
        }
        assert_matches_reference(&z, &cfg, "unknown key tag");
        // Structurally broken zones stop at the same first finding.
        let mut z = clean.clone();
        z.remove_rrset(&Name::root(), RrType::Soa);
        assert_matches_reference(&z, &cfg, "missing SOA");
    }

    /// Verified in two parts — and in three and seven — a zone gets the
    /// verdicts it gets in one, issue for issue at clocks before, inside
    /// and after its window: at 1, 8, 40 and 1 500 TLDs, clean, as a stale
    /// copy, under RRSIG and owner-label bitflips, unsigned, and with its
    /// records shuffled.
    #[test]
    fn verdicts_in_parts_are_the_verdicts_in_one() {
        use crate::corrupt::{flip_owner_label_bit, flip_rrsig_bit, stale_copy};
        for tld_count in [1, 8, 40, 1_500] {
            let cfg = RootZoneConfig {
                rollout: RolloutPhase::Validating,
                tld_count,
                ..Default::default()
            };
            let clean = build_root_zone(&cfg, &ZoneKeys::from_seed(5));
            let mut zones = vec![("stale copy".to_string(), stale_copy(&clean))];
            let flips = if tld_count < 1_500 { 0..6 } else { 0..2 };
            for seed in flips {
                let mut z = clean.clone();
                flip_rrsig_bit(&mut z, seed).expect("zone has RRSIGs");
                zones.push((format!("rrsig flip {seed}"), z));
                let mut z = clean.clone();
                flip_owner_label_bit(&mut z, seed).expect("zone has delegations");
                zones.push((format!("owner flip {seed}"), z));
            }
            let mut z = clean.clone();
            (z.records_mut()).retain(|r| !matches!(r.rr_type, RrType::Nsec | RrType::Rrsig));
            zones.push(("unsigned".to_string(), z));
            let mut z = clean.clone();
            let records = z.records_mut();
            records.reverse();
            let third = records.len() / 3;
            records.rotate_left(third);
            zones.push(("shuffled".to_string(), z));
            zones.push(("clean".to_string(), clean));
            let clocks = [
                cfg.inception - 100,
                cfg.inception + 1000,
                cfg.expiration + 100,
            ];
            for (what, zone) in &zones {
                let one = ZoneVerdicts::in_parts(zone, true, 1);
                for parts in [2, 3, 7] {
                    let split = ZoneVerdicts::in_parts(zone, true, parts);
                    for now in clocks {
                        assert_eq!(
                            split.at(now).issues,
                            one.at(now).issues,
                            "{tld_count} TLDs, {what}, {parts} parts, at {now}"
                        );
                    }
                }
                // Inside the window the flipped copies fail, and the
                // unsigned one on its ZONEMD digest; the others hold.
                let valid = one.at(cfg.inception + 1000).is_valid();
                let fails = what.contains("flip") || what == "unsigned";
                assert_eq!(valid, !fails, "{tld_count} TLDs, {what}");
            }
        }
    }

    #[test]
    fn a_padded_dnskey_is_no_key() {
        use crate::signer::compute_signature;
        // The ZSK's DNSKEY carries its 32 key bytes and one more, and every
        // RRSIG the ZSK made names that record's key tag (the DNSKEY set
        // re-signed by the KSK, which stays as published). Cut back to 32
        // bytes, the padded key would verify all of them.
        let keys = ZoneKeys::from_seed(5);
        let cfg = RootZoneConfig {
            tld_count: 8,
            ..Default::default()
        };
        let mut z = build_root_zone(&cfg, &keys);
        let mut padded = keys.zsk.public.to_vec();
        padded.push(0xff);
        let mut tag = 0;
        for rec in z.records_mut() {
            if let Rdata::Dnskey(k) = &mut rec.rdata {
                if k.flags == 256 {
                    k.public_key = padded.clone();
                    tag = k.key_tag();
                }
            }
        }
        assert_ne!(tag, crate::signer::dnskey_tag(&keys, false));
        let unsigned = z.clone();
        let mut resigned = 0;
        for rec in z.records_mut() {
            let Rdata::Rrsig(sig) = &mut rec.rdata else {
                continue;
            };
            let rrset: Vec<Record> = (unsigned.rrset(&rec.name, sig.type_covered))
                .into_iter()
                .cloned()
                .collect();
            let key = if sig.type_covered == RrType::Dnskey {
                &keys.ksk
            } else {
                sig.key_tag = tag;
                resigned += 1;
                &keys.zsk
            };
            sig.signature = compute_signature(sig, &rrset, key);
        }
        let report = validate_zone(&z, cfg.inception + 1000);
        assert_eq!(report.issues.len(), resigned);
        assert!(report.issues.iter().all(
            |i| matches!(i, ValidationIssue::UnknownKeyTag { key_tag, .. } if *key_tag == tag)
        ));

        // The KSK's signature over the DNSKEY set still verifies; with the
        // KSK padded too, no DNSKEY is usable at all.
        for rec in z.records_mut() {
            if let Rdata::Dnskey(k) = &mut rec.rdata {
                k.public_key.push(0);
            }
        }
        assert_eq!(
            validate_zone(&z, cfg.inception + 1000).issues,
            [ValidationIssue::NoDnskeys]
        );
    }

    #[test]
    fn validate_rrsigs_is_validate_zone_without_the_zonemd_finding() {
        let (mut z, cfg) = signed_zone();
        let now = cfg.inception + 1000;
        assert_eq!(validate_rrsigs(&z, now), validate_zone(&z, now));
        crate::corrupt::flip_rrsig_bit(&mut z, 3).unwrap();
        let full = validate_zone(&z, now).issues;
        let (last, rest) = full.split_last().unwrap();
        assert_eq!(last, &ValidationIssue::Zonemd(ZonemdError::DigestMismatch));
        assert_eq!(validate_rrsigs(&z, now).issues, rest);
    }
}
