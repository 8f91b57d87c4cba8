//! DNSSEC signing: key management, NSEC chain construction, and per-RRset
//! `RRSIG` generation using the `SIMSIG` stand-in scheme (see `dns-crypto`).

use crate::canonical::{Canonical, Entry};
use crate::zone::Zone;
use dns_crypto::simsig::{SimKeyPair, SIMSIG_ALGORITHM};
use dns_wire::rdata::{Dnskey, Nsec, Rdata, Rrsig};
use dns_wire::wire::WireWriter;
use dns_wire::{Name, Record, RrType};

/// Key material for a zone: one KSK (signs the DNSKEY RRset) and one ZSK
/// (signs everything else), mirroring the root zone's split.
#[derive(Debug, Clone)]
pub struct ZoneKeys {
    /// Key-signing key (flags 257: ZONE|SEP).
    pub ksk: SimKeyPair,
    /// Zone-signing key (flags 256: ZONE).
    pub zsk: SimKeyPair,
}

impl ZoneKeys {
    /// Deterministic keys from a seed.
    pub fn from_seed(seed: u64) -> Self {
        ZoneKeys {
            ksk: SimKeyPair::from_seed(seed.wrapping_mul(2).wrapping_add(1)),
            zsk: SimKeyPair::from_seed(seed.wrapping_mul(2).wrapping_add(2)),
        }
    }

    /// DNSKEY record for the KSK.
    pub fn ksk_record(&self, origin: &Name, ttl: u32) -> Record {
        Record::new(
            origin.clone(),
            ttl,
            Rdata::Dnskey(Dnskey {
                flags: 257,
                protocol: 3,
                algorithm: SIMSIG_ALGORITHM,
                public_key: self.ksk.public.to_vec(),
            }),
        )
    }

    /// DNSKEY record for the ZSK.
    pub fn zsk_record(&self, origin: &Name, ttl: u32) -> Record {
        Record::new(
            origin.clone(),
            ttl,
            Rdata::Dnskey(Dnskey {
                flags: 256,
                protocol: 3,
                algorithm: SIMSIG_ALGORITHM,
                public_key: self.zsk.public.to_vec(),
            }),
        )
    }
}

/// Signing parameters.
#[derive(Debug, Clone)]
pub struct SigningConfig {
    /// Signature inception (seconds since epoch, 32-bit wire semantics).
    pub inception: u32,
    /// Signature expiration.
    pub expiration: u32,
    /// TTL for DNSKEY records.
    pub dnskey_ttl: u32,
    /// TTL for NSEC records (the SOA minimum by convention).
    pub nsec_ttl: u32,
}

/// Sign `zone` in place:
///
/// 1. remove any previous DNSKEY/NSEC/RRSIG records,
/// 2. add the DNSKEY RRset,
/// 3. build the NSEC chain over all owner names,
/// 4. emit one RRSIG per RRset — DNSKEY signed by the KSK, everything else
///    by the ZSK (RFC 4034 §3.1.8.1 signed-data construction).
///
/// The NSECs and the RRSIGs are appended in canonical `(owner, type)`
/// order, each owned by the zone's first spelling of its owner. Both read
/// the records in canonical form, each written once (`Canonical`): the
/// zone's for the chain, the signed RRsets' for the signatures.
pub fn sign_zone(zone: &mut Zone, keys: &ZoneKeys, cfg: &SigningConfig) {
    let origin = zone.origin().clone();
    zone.records_mut()
        .retain(|r| !matches!(r.rr_type, RrType::Dnskey | RrType::Nsec | RrType::Rrsig));

    let ksk_rec = keys.ksk_record(&origin, cfg.dnskey_ttl);
    let zsk_rec = keys.zsk_record(&origin, cfg.dnskey_ttl);
    zone.push(ksk_rec).expect("apex is in-zone");
    zone.push(zsk_rec).expect("apex is in-zone");

    // Glue (non-apex A/AAAA below delegations) is not signed in the real
    // root zone; we approximate by signing only apex RRsets and
    // delegation-point NSEC/DS sets, which matches what validators check.
    let nsecs = nsec_chain(zone, cfg.nsec_ttl);
    let signable = |r: &&Record| {
        r.name == origin
            || matches!(
                RrType::from_u16(r.rr_type.to_u16()),
                RrType::Nsec | RrType::Ds
            )
    };
    let canon = Canonical::new(zone.records().iter().chain(&nsecs).filter(signable));
    let tags = [dnskey_tag(keys, false), dnskey_tag(keys, true)];
    let mut signatures = Vec::new();
    let mut data = WireWriter::new();
    let mut types = Vec::new();
    for owner in canon.owners() {
        types.clear();
        types.extend(owner.iter().map(|e| e.rec.rr_type.to_u16()));
        types.sort_unstable();
        types.dedup();
        for &type_num in &types {
            let rrset = || {
                owner
                    .iter()
                    .filter(move |e| e.rec.rr_type.to_u16() == type_num)
            };
            let rr_type = RrType::from_u16(type_num);
            let ksk = rr_type == RrType::Dnskey;
            let first = rrset().min_by_key(|e| e.index).expect("a type present");
            let ttl = rrset().map(|e| e.rec.ttl).min().expect("a type present");
            let tag = tags[usize::from(ksk)];
            let rrsig = unsigned_rrsig(rr_type, &first.rec.name, ttl, &origin, tag, cfg);
            let key = if ksk { &keys.ksk } else { &keys.zsk };
            let record = signed(&first.rec.name, rrsig, &canon, rrset(), key, &mut data);
            signatures.push(record);
        }
    }
    drop(canon);
    for rec in nsecs.into_iter().chain(signatures) {
        zone.push(rec).expect("NSEC and RRSIG owners are in-zone");
    }
}

/// Sign one RRset that was added after the main signing pass (used for the
/// apex ZONEMD record, which is computed over the already-signed zone).
pub fn sign_single_rrset(
    zone: &Zone,
    records: &[Record],
    keys: &ZoneKeys,
    inception: u32,
    expiration: u32,
) -> Record {
    let cfg = SigningConfig {
        inception,
        expiration,
        dnskey_ttl: 0,
        nsec_ttl: 0,
    };
    let owner = &records[0].name;
    let ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0);
    let tag = dnskey_tag(keys, false);
    let rrsig = unsigned_rrsig(records[0].rr_type, owner, ttl, zone.origin(), tag, &cfg);
    let canon = Canonical::new(records);
    signed(
        owner,
        rrsig,
        &canon,
        canon.entries(),
        &keys.zsk,
        &mut WireWriter::new(),
    )
}

/// Key tag of the KSK or ZSK DNSKEY RDATA.
pub fn dnskey_tag(keys: &ZoneKeys, ksk: bool) -> u16 {
    let key = Dnskey {
        flags: if ksk { 257 } else { 256 },
        protocol: 3,
        algorithm: SIMSIG_ALGORITHM,
        public_key: if ksk {
            keys.ksk.public.to_vec()
        } else {
            keys.zsk.public.to_vec()
        },
    };
    key.key_tag()
}

/// The RRSIG over `owner`'s RRset of `rr_type`, its signature still to
/// be computed.
fn unsigned_rrsig(
    rr_type: RrType,
    owner: &Name,
    original_ttl: u32,
    signer: &Name,
    key_tag: u16,
    cfg: &SigningConfig,
) -> Rrsig {
    Rrsig {
        type_covered: rr_type,
        algorithm: SIMSIG_ALGORITHM,
        labels: owner.label_count() as u8,
        original_ttl,
        expiration: cfg.expiration,
        inception: cfg.inception,
        key_tag,
        signer_name: signer.clone(),
        signature: Vec::new(),
    }
}

/// `rrsig` signed with `key` over `rrset`, as the record at `owner`; the
/// signed data is written into `data`.
fn signed<'a, 'z: 'a>(
    owner: &Name,
    mut rrsig: Rrsig,
    canon: &Canonical<'z>,
    rrset: impl IntoIterator<Item = &'a Entry<'z>>,
    key: &SimKeyPair,
    data: &mut WireWriter,
) -> Record {
    data.truncate(0);
    canon.write_signed_data(&rrsig, rrset, data);
    rrsig.signature = key.sign(data.as_bytes()).to_vec();
    Record::new(owner.clone(), rrsig.original_ttl, Rdata::Rrsig(rrsig))
}

/// signed_data = RRSIG_RDATA (minus signature) | canonical RRset.
pub fn compute_signature(rrsig: &Rrsig, records: &[Record], key: &SimKeyPair) -> Vec<u8> {
    key.sign(signed_data(rrsig, records).as_bytes()).to_vec()
}

/// Verify an RRSIG over its RRset with `key` (validity window NOT checked
/// here — that is the validator's job, since it depends on the clock).
pub fn verify_signature(rrsig: &Rrsig, records: &[Record], key: &SimKeyPair) -> bool {
    key.verify(signed_data(rrsig, records).as_bytes(), &rrsig.signature)
}

/// The signed data over a loose set of records.
fn signed_data(rrsig: &Rrsig, records: &[Record]) -> WireWriter {
    let canon = Canonical::new(records);
    let mut w = WireWriter::new();
    canon.write_signed_data(rrsig, canon.entries(), &mut w);
    w
}

/// The NSEC chain: for each owner (canonical order), an NSEC pointing at
/// the next owner (wrapping to the apex), listing the types present plus
/// `RRSIG` and `NSEC` themselves, each owner spelled as the zone first
/// spells it.
fn nsec_chain(zone: &Zone, ttl: u32) -> Vec<Record> {
    let canon = Canonical::new(zone.records());
    let (mut names, mut types) = (Vec::new(), Vec::new());
    let mut run: Vec<&Entry> = Vec::new();
    for owner in canon.owners() {
        run.clear();
        run.extend(owner);
        run.sort_unstable_by_key(|e| e.index);
        let mut present: Vec<RrType> = run.iter().map(|e| e.rec.rr_type).collect();
        present.extend([RrType::Nsec, RrType::Rrsig]);
        present.sort_by_key(|t| t.to_u16());
        present.dedup();
        names.push(&run[0].rec.name);
        types.push(present);
    }
    let next = names.iter().cycle().skip(1);
    (names.iter().zip(next).zip(types))
        .map(|((&owner, &next), types)| {
            let next_domain = next.clone();
            Record::new(owner.clone(), ttl, Rdata::Nsec(Nsec { next_domain, types }))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::rdata::Soa;

    fn fixture() -> Zone {
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
        for tld in ["com", "net", "org"] {
            z.push(Record::new(
                Name::parse(&format!("{tld}.")).unwrap(),
                172800,
                Rdata::Ns(Name::parse(&format!("a.{tld}-servers.example.")).unwrap()),
            ))
            .unwrap();
        }
        z
    }

    fn cfg() -> SigningConfig {
        SigningConfig {
            inception: 1_700_000_000,
            expiration: 1_701_000_000,
            dnskey_ttl: 172800,
            nsec_ttl: 86400,
        }
    }

    #[test]
    fn signing_adds_dnskey_nsec_rrsig() {
        let mut z = fixture();
        sign_zone(&mut z, &ZoneKeys::from_seed(1), &cfg());
        assert_eq!(z.rrset(&Name::root(), RrType::Dnskey).len(), 2);
        // One NSEC per owner (apex + 3 TLDs).
        let nsec_count = z
            .records()
            .iter()
            .filter(|r| r.rr_type == RrType::Nsec)
            .count();
        assert_eq!(nsec_count, 4);
        assert!(z.records().iter().any(|r| r.rr_type == RrType::Rrsig));
    }

    #[test]
    fn nsec_chain_wraps_to_apex() {
        let mut z = fixture();
        sign_zone(&mut z, &ZoneKeys::from_seed(1), &cfg());
        let owners = z.owner_names();
        let last = owners.last().unwrap().clone();
        let nsec = z.rrset(&last, RrType::Nsec);
        match &nsec[0].rdata {
            Rdata::Nsec(n) => assert_eq!(n.next_domain, Name::root()),
            _ => panic!("not NSEC"),
        }
    }

    #[test]
    fn signatures_verify_with_right_key() {
        let keys = ZoneKeys::from_seed(7);
        let mut z = fixture();
        sign_zone(&mut z, &keys, &cfg());
        // Check the apex NS RRSIG.
        let ns_records: Vec<Record> = z
            .rrset(&Name::root(), RrType::Ns)
            .into_iter()
            .cloned()
            .collect();
        let sig = z
            .records()
            .iter()
            .find_map(|r| match &r.rdata {
                Rdata::Rrsig(s) if s.type_covered == RrType::Ns && r.name.is_root() => {
                    Some(s.clone())
                }
                _ => None,
            })
            .expect("NS RRSIG present");
        assert!(verify_signature(&sig, &ns_records, &keys.zsk));
        assert!(!verify_signature(&sig, &ns_records, &keys.ksk));
    }

    #[test]
    fn dnskey_rrset_signed_by_ksk() {
        let keys = ZoneKeys::from_seed(7);
        let mut z = fixture();
        sign_zone(&mut z, &keys, &cfg());
        let dnskeys: Vec<Record> = z
            .rrset(&Name::root(), RrType::Dnskey)
            .into_iter()
            .cloned()
            .collect();
        let sig = z
            .records()
            .iter()
            .find_map(|r| match &r.rdata {
                Rdata::Rrsig(s) if s.type_covered == RrType::Dnskey => Some(s.clone()),
                _ => None,
            })
            .expect("DNSKEY RRSIG present");
        assert_eq!(sig.key_tag, dnskey_tag(&keys, true));
        assert!(verify_signature(&sig, &dnskeys, &keys.ksk));
    }

    #[test]
    fn tampering_breaks_signature() {
        let keys = ZoneKeys::from_seed(7);
        let mut z = fixture();
        sign_zone(&mut z, &keys, &cfg());
        let mut ns_records: Vec<Record> = z
            .rrset(&Name::root(), RrType::Ns)
            .into_iter()
            .cloned()
            .collect();
        let sig = z
            .records()
            .iter()
            .find_map(|r| match &r.rdata {
                Rdata::Rrsig(s) if s.type_covered == RrType::Ns && r.name.is_root() => {
                    Some(s.clone())
                }
                _ => None,
            })
            .unwrap();
        ns_records[0].rdata = Rdata::Ns(Name::parse("evil.example.").unwrap());
        assert!(!verify_signature(&sig, &ns_records, &keys.zsk));
    }

    #[test]
    fn resigning_is_idempotent_in_count() {
        let keys = ZoneKeys::from_seed(7);
        let mut z = fixture();
        sign_zone(&mut z, &keys, &cfg());
        let count = z.len();
        sign_zone(&mut z, &keys, &cfg());
        assert_eq!(z.len(), count);
    }

    #[test]
    fn signature_order_independent_of_insertion() {
        // RRset canonical ordering means insertion order must not matter.
        let keys = ZoneKeys::from_seed(3);
        let recs: Vec<Record> = ["2.2.2.2", "1.1.1.1"]
            .iter()
            .map(|a| Record::new(Name::root(), 60, Rdata::A(a.parse().unwrap())))
            .collect();
        let rrsig = Rrsig {
            type_covered: RrType::A,
            algorithm: SIMSIG_ALGORITHM,
            labels: 0,
            original_ttl: 60,
            expiration: 2,
            inception: 1,
            key_tag: 0,
            signer_name: Name::root(),
            signature: Vec::new(),
        };
        let fwd = compute_signature(&rrsig, &recs, &keys.zsk);
        let rev: Vec<Record> = recs.iter().rev().cloned().collect();
        let bwd = compute_signature(&rrsig, &rev, &keys.zsk);
        assert_eq!(fwd, bwd);
    }
}
