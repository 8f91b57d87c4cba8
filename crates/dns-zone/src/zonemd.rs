//! ZONEMD — message digest for DNS zones (RFC 8976).
//!
//! The digest input is every record of the zone in RFC 4034 canonical form
//! and canonical order, *excluding*:
//!
//! * the apex `ZONEMD` RRset itself, and
//! * `RRSIG` records covering the apex `ZONEMD` RRset
//!
//! (both are written after digest computation, so they cannot be part of it),
//! plus duplicate records and occluded/out-of-zone data, which the
//! [`crate::zone::Zone`] model already excludes structurally.

use crate::canonical::Canonical;
use crate::zone::Zone;
use dns_crypto::DigestAlg;
use dns_wire::rdata::{Rdata, Zonemd};
use dns_wire::{Name, Record, RrType};

/// The SIMPLE scheme (RFC 8976 §2.2.2) — the only one defined so far.
pub const SCHEME_SIMPLE: u8 = 1;

/// Errors from ZONEMD verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZonemdError {
    /// The zone has no apex ZONEMD record.
    NoZonemd,
    /// A ZONEMD record exists but its serial does not match the SOA serial.
    SerialMismatch { soa: u32, zonemd: u32 },
    /// No ZONEMD record uses a scheme/algorithm this validator supports.
    UnsupportedAlgorithm,
    /// The recomputed digest differs from the published one.
    DigestMismatch,
    /// The zone is structurally broken (e.g. missing SOA).
    BadZone(String),
}

impl std::fmt::Display for ZonemdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZonemdError::NoZonemd => write!(f, "no apex ZONEMD record"),
            ZonemdError::SerialMismatch { soa, zonemd } => {
                write!(f, "ZONEMD serial {zonemd} != SOA serial {soa}")
            }
            ZonemdError::UnsupportedAlgorithm => write!(f, "no supported ZONEMD digest algorithm"),
            ZonemdError::DigestMismatch => write!(f, "ZONEMD digest mismatch"),
            ZonemdError::BadZone(e) => write!(f, "bad zone: {e}"),
        }
    }
}

impl std::error::Error for ZonemdError {}

/// True if `rec` must be excluded from the digest input: the apex ZONEMD
/// RRset and RRSIGs covering it.
fn excluded_from_digest(rec: &Record, origin: &Name) -> bool {
    if rec.name != *origin {
        return false;
    }
    match (&rec.rr_type, &rec.rdata) {
        (RrType::Zonemd, _) => true,
        (RrType::Rrsig, Rdata::Rrsig(sig)) => sig.type_covered == RrType::Zonemd,
        _ => false,
    }
}

/// Compute the zone digest with `alg` over the SIMPLE scheme.
pub fn compute_zonemd(zone: &Zone, alg: DigestAlg) -> Result<Vec<u8>, ZonemdError> {
    digest(zone, &Canonical::new(zone.records()), alg)
}

/// [`compute_zonemd`] over `zone`'s records already in canonical form.
fn digest(zone: &Zone, canon: &Canonical, alg: DigestAlg) -> Result<Vec<u8>, ZonemdError> {
    zone.check()
        .map_err(|e| ZonemdError::BadZone(e.to_string()))?;
    let input = (canon.unique())
        .filter(|e| !excluded_from_digest(e.rec, zone.origin()))
        .map(|e| canon.form(e));
    Ok(alg.digest_parts(input))
}

/// Build the apex ZONEMD record for the current zone content.
pub fn make_zonemd_record(zone: &Zone, alg: DigestAlg, ttl: u32) -> Result<Record, ZonemdError> {
    let serial = zone
        .serial()
        .map_err(|e| ZonemdError::BadZone(e.to_string()))?;
    let digest = compute_zonemd(zone, alg)?;
    Ok(Record::new(
        zone.origin().clone(),
        ttl,
        Rdata::Zonemd(Zonemd {
            serial,
            scheme: SCHEME_SIMPLE,
            hash_algorithm: alg.zonemd_number(),
            digest,
        }),
    ))
}

/// Verify the apex ZONEMD record(s) of `zone`.
///
/// Follows RFC 8976 §4: pick apex ZONEMD records whose serial matches the
/// SOA and whose scheme/algorithm is supported; success if any matches the
/// recomputed digest. A present-but-unverifiable record (the roll-out's
/// private-algorithm phase) yields [`ZonemdError::UnsupportedAlgorithm`].
pub fn verify_zonemd(zone: &Zone) -> Result<(), ZonemdError> {
    verify(zone, None)
}

/// [`verify_zonemd`], reading the zone's canonical form from `canon` when
/// the caller has it, writing it otherwise — only once a digest is due.
pub(crate) fn verify(zone: &Zone, canon: Option<&Canonical>) -> Result<(), ZonemdError> {
    let soa_serial = zone
        .serial()
        .map_err(|e| ZonemdError::BadZone(e.to_string()))?;
    let zonemds = zone.rrset(zone.origin(), RrType::Zonemd);
    if zonemds.is_empty() {
        return Err(ZonemdError::NoZonemd);
    }
    let mut serial_mismatch = None;
    let mut candidates = Vec::new();
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
        if alg.is_verifiable() {
            candidates.push((alg, &z.digest));
        }
    }
    if candidates.is_empty() {
        return Err(match serial_mismatch {
            Some(zonemd) => ZonemdError::SerialMismatch {
                soa: soa_serial,
                zonemd,
            },
            None => ZonemdError::UnsupportedAlgorithm,
        });
    }
    let own;
    let canon = match canon {
        Some(canon) => canon,
        None => {
            own = Canonical::new(zone.records());
            &own
        }
    };
    for (alg, published) in candidates {
        if digest(zone, canon, alg)? == *published {
            return Ok(());
        }
    }
    Err(ZonemdError::DigestMismatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::rdata::Soa;
    use dns_wire::Name;

    fn small_zone() -> Zone {
        let mut z = Zone::new(Name::root());
        z.push(Record::new(
            Name::root(),
            86400,
            Rdata::Soa(Soa {
                mname: Name::parse("a.root-servers.net.").unwrap(),
                rname: Name::parse("nstld.verisign-grs.com.").unwrap(),
                serial: 2023120600,
                refresh: 1800,
                retry: 900,
                expire: 604800,
                minimum: 86400,
            }),
        ))
        .unwrap();
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

    fn publish(zone: &mut Zone, alg: DigestAlg) {
        let rec = make_zonemd_record(zone, alg, 86400).unwrap();
        zone.push(rec).unwrap();
    }

    #[test]
    fn compute_is_deterministic() {
        let z = small_zone();
        assert_eq!(
            compute_zonemd(&z, DigestAlg::Sha384).unwrap(),
            compute_zonemd(&z, DigestAlg::Sha384).unwrap()
        );
    }

    #[test]
    fn publish_then_verify() {
        let mut z = small_zone();
        publish(&mut z, DigestAlg::Sha384);
        assert_eq!(verify_zonemd(&z), Ok(()));
    }

    #[test]
    fn digest_excludes_zonemd_itself() {
        // Adding the ZONEMD record must not change the digest.
        let mut z = small_zone();
        let before = compute_zonemd(&z, DigestAlg::Sha384).unwrap();
        publish(&mut z, DigestAlg::Sha384);
        let after = compute_zonemd(&z, DigestAlg::Sha384).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn any_content_change_breaks_digest() {
        let mut z = small_zone();
        publish(&mut z, DigestAlg::Sha384);
        // Change a delegation target.
        for rec in z.records_mut() {
            if rec.name == Name::parse("com.").unwrap() {
                rec.rdata = Rdata::Ns(Name::parse("b.gtld-servers.net.").unwrap());
            }
        }
        assert_eq!(verify_zonemd(&z), Err(ZonemdError::DigestMismatch));
    }

    #[test]
    fn missing_zonemd_reported() {
        let z = small_zone();
        assert_eq!(verify_zonemd(&z), Err(ZonemdError::NoZonemd));
    }

    #[test]
    fn private_algorithm_is_unverifiable() {
        // The roll-out's first phase: a ZONEMD record with a private hash.
        let mut z = small_zone();
        publish(&mut z, DigestAlg::Private(240));
        assert_eq!(verify_zonemd(&z), Err(ZonemdError::UnsupportedAlgorithm));
    }

    #[test]
    fn serial_mismatch_reported() {
        let mut z = small_zone();
        publish(&mut z, DigestAlg::Sha384);
        // Bump the SOA serial without recomputing the digest.
        for rec in z.records_mut() {
            if let Rdata::Soa(soa) = &mut rec.rdata {
                soa.serial += 1;
            }
        }
        assert_eq!(
            verify_zonemd(&z),
            Err(ZonemdError::SerialMismatch {
                soa: 2023120601,
                zonemd: 2023120600
            })
        );
    }

    #[test]
    fn sha512_also_supported() {
        let mut z = small_zone();
        publish(&mut z, DigestAlg::Sha512);
        assert_eq!(verify_zonemd(&z), Ok(()));
        let digest = compute_zonemd(&z, DigestAlg::Sha512).unwrap();
        assert_eq!(digest.len(), 64);
    }

    #[test]
    fn multiple_zonemd_any_valid_passes() {
        // RFC 8976 §4: verification succeeds if any supported record
        // matches, even when another one is unsupported.
        let mut z = small_zone();
        publish(&mut z, DigestAlg::Private(240));
        publish(&mut z, DigestAlg::Sha384);
        assert_eq!(verify_zonemd(&z), Ok(()));
    }

    #[test]
    fn single_bitflip_detected() {
        let mut z = small_zone();
        publish(&mut z, DigestAlg::Sha384);
        // Flip one bit in an NS target name label.
        for rec in z.records_mut() {
            if rec.name == Name::parse("com.").unwrap() {
                // "a.gtld-servers.net." -> flip 'a' to 'c' (bit 1).
                rec.rdata = Rdata::Ns(Name::parse("c.gtld-servers.net.").unwrap());
            }
        }
        assert_eq!(verify_zonemd(&z), Err(ZonemdError::DigestMismatch));
    }
}
