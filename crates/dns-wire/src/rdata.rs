//! RDATA for the record types this study touches.

use crate::name::Name;
use crate::rrtype::RrType;
use crate::wire::{WireError, WireReader, WireWriter};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rdata {
    /// IPv4 address (RFC 1035).
    A(Ipv4Addr),
    /// IPv6 address (RFC 3596).
    Aaaa(Ipv6Addr),
    /// Authoritative name server.
    Ns(Name),
    /// Canonical name.
    Cname(Name),
    /// Start of authority.
    Soa(Soa),
    /// Mail exchange.
    Mx { preference: u16, exchange: Name },
    /// Text — one or more character strings (each ≤255 bytes).
    Txt(Vec<Vec<u8>>),
    /// Delegation signer (RFC 4034).
    Ds(Ds),
    /// DNSSEC public key (RFC 4034).
    Dnskey(Dnskey),
    /// DNSSEC signature (RFC 4034).
    Rrsig(Rrsig),
    /// Authenticated denial (RFC 4034).
    Nsec(Nsec),
    /// Zone message digest (RFC 8976).
    Zonemd(Zonemd),
    /// EDNS0 pseudo-record payload: raw options.
    Opt(Vec<u8>),
    /// Unknown type, kept opaque.
    Unknown(Vec<u8>),
}

/// SOA RDATA fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Soa {
    pub mname: Name,
    pub rname: Name,
    pub serial: u32,
    pub refresh: u32,
    pub retry: u32,
    pub expire: u32,
    pub minimum: u32,
}

/// DS RDATA fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ds {
    pub key_tag: u16,
    pub algorithm: u8,
    pub digest_type: u8,
    pub digest: Vec<u8>,
}

/// DNSKEY RDATA fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dnskey {
    pub flags: u16,
    pub protocol: u8,
    pub algorithm: u8,
    pub public_key: Vec<u8>,
}

impl Dnskey {
    /// The ZONE flag bit (RFC 4034 §2.1.1).
    pub fn is_zone_key(&self) -> bool {
        self.flags & 0x0100 != 0
    }

    /// The SEP flag bit — set on key-signing keys.
    pub fn is_sep(&self) -> bool {
        self.flags & 0x0001 != 0
    }

    /// RDATA in wire form, e.g. for key-tag computation.
    pub fn rdata_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u16(self.flags);
        w.put_u8(self.protocol);
        w.put_u8(self.algorithm);
        w.put_bytes(&self.public_key);
        w.into_bytes()
    }

    /// Key tag (RFC 4034 Appendix B).
    pub fn key_tag(&self) -> u16 {
        dns_crypto::key_tag(&self.rdata_wire())
    }
}

/// RRSIG RDATA fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rrsig {
    pub type_covered: RrType,
    pub algorithm: u8,
    pub labels: u8,
    pub original_ttl: u32,
    pub expiration: u32,
    pub inception: u32,
    pub key_tag: u16,
    pub signer_name: Name,
    pub signature: Vec<u8>,
}

impl Rrsig {
    /// Append the RDATA prefix that is included in the signed data
    /// (everything up to but excluding the signature field), with the
    /// signer name in canonical form (RFC 4034 §3.1.8.1).
    pub fn write_signed_prefix(&self, w: &mut WireWriter) {
        w.put_u16(self.type_covered.to_u16());
        w.put_u8(self.algorithm);
        w.put_u8(self.labels);
        w.put_u32(self.original_ttl);
        w.put_u32(self.expiration);
        w.put_u32(self.inception);
        w.put_u16(self.key_tag);
        self.signer_name.write_wire(w, true);
    }
}

/// NSEC RDATA fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nsec {
    pub next_domain: Name,
    /// Types present at the owner, ascending.
    pub types: Vec<RrType>,
}

impl Nsec {
    /// Write the type bitmap: one block per 256-type window that holds a
    /// type, windows ascending, whatever order `types` is in.
    fn write_type_bitmap(&self, w: &mut WireWriter) {
        let window_of = |t: &RrType| (t.to_u16() >> 8) as u8;
        let mut window = self.types.iter().map(window_of).min();
        while let Some(win) = window {
            let mut map = [0u8; 32];
            for t in self.types.iter().filter(|t| window_of(t) == win) {
                let bit = (t.to_u16() & 0xff) as usize;
                map[bit / 8] |= 0x80 >> (bit % 8);
            }
            let len = map.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
            w.put_u8(win);
            w.put_u8(len as u8);
            w.put_bytes(&map[..len]);
            window = self.types.iter().map(window_of).filter(|&x| x > win).min();
        }
    }

    /// Decode a type bitmap.
    pub fn parse_type_bitmap(mut data: &[u8]) -> Result<Vec<RrType>, WireError> {
        let mut types = Vec::new();
        while !data.is_empty() {
            if data.len() < 2 {
                return Err(WireError::BadRdata);
            }
            let window = data[0] as u16;
            let len = data[1] as usize;
            if len == 0 || len > 32 || data.len() < 2 + len {
                return Err(WireError::BadRdata);
            }
            for (i, &byte) in data[2..2 + len].iter().enumerate() {
                for bit in 0..8 {
                    if byte & (0x80 >> bit) != 0 {
                        types.push(RrType::from_u16((window << 8) | (i as u16 * 8 + bit)));
                    }
                }
            }
            data = &data[2 + len..];
        }
        Ok(types)
    }
}

/// ZONEMD RDATA fields (RFC 8976 §2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zonemd {
    /// Serial of the zone the digest covers.
    pub serial: u32,
    /// Scheme (1 = SIMPLE).
    pub scheme: u8,
    /// Hash algorithm (1 = SHA-384, 2 = SHA-512; ≥240 private).
    pub hash_algorithm: u8,
    /// The digest.
    pub digest: Vec<u8>,
}

impl Rdata {
    /// The RR type this RDATA belongs to. `Unknown` reports `Other(0)` — the
    /// owning [`crate::record::Record`] carries the authoritative type.
    pub fn rr_type(&self) -> RrType {
        match self {
            Rdata::A(_) => RrType::A,
            Rdata::Aaaa(_) => RrType::Aaaa,
            Rdata::Ns(_) => RrType::Ns,
            Rdata::Cname(_) => RrType::Cname,
            Rdata::Soa(_) => RrType::Soa,
            Rdata::Mx { .. } => RrType::Mx,
            Rdata::Txt(_) => RrType::Txt,
            Rdata::Ds(_) => RrType::Ds,
            Rdata::Dnskey(_) => RrType::Dnskey,
            Rdata::Rrsig(_) => RrType::Rrsig,
            Rdata::Nsec(_) => RrType::Nsec,
            Rdata::Zonemd(_) => RrType::Zonemd,
            Rdata::Opt(_) => RrType::Opt,
            Rdata::Unknown(_) => RrType::Other(0),
        }
    }

    /// Write RDATA in wire format. `canonical` lowercases embedded names and
    /// disables compression (RFC 4034 §6.2); message encoding passes `false`.
    pub fn write_wire(&self, w: &mut WireWriter, canonical: bool) {
        match self {
            Rdata::A(a) => w.put_bytes(&a.octets()),
            Rdata::Aaaa(a) => w.put_bytes(&a.octets()),
            Rdata::Ns(n) | Rdata::Cname(n) => n.write_wire(w, canonical),
            Rdata::Soa(soa) => {
                soa.mname.write_wire(w, canonical);
                soa.rname.write_wire(w, canonical);
                w.put_u32(soa.serial);
                w.put_u32(soa.refresh);
                w.put_u32(soa.retry);
                w.put_u32(soa.expire);
                w.put_u32(soa.minimum);
            }
            Rdata::Mx {
                preference,
                exchange,
            } => {
                w.put_u16(*preference);
                exchange.write_wire(w, canonical);
            }
            Rdata::Txt(strings) => {
                for s in strings {
                    w.put_u8(s.len() as u8);
                    w.put_bytes(s);
                }
            }
            Rdata::Ds(ds) => {
                w.put_u16(ds.key_tag);
                w.put_u8(ds.algorithm);
                w.put_u8(ds.digest_type);
                w.put_bytes(&ds.digest);
            }
            Rdata::Dnskey(k) => {
                w.put_u16(k.flags);
                w.put_u8(k.protocol);
                w.put_u8(k.algorithm);
                w.put_bytes(&k.public_key);
            }
            Rdata::Rrsig(sig) => {
                w.put_u16(sig.type_covered.to_u16());
                w.put_u8(sig.algorithm);
                w.put_u8(sig.labels);
                w.put_u32(sig.original_ttl);
                w.put_u32(sig.expiration);
                w.put_u32(sig.inception);
                w.put_u16(sig.key_tag);
                // Signer name is never compressed and is lowercased in
                // canonical form.
                sig.signer_name.write_wire(w, canonical);
                w.put_bytes(&sig.signature);
            }
            Rdata::Nsec(nsec) => {
                nsec.next_domain.write_wire(w, canonical);
                nsec.write_type_bitmap(w);
            }
            Rdata::Zonemd(z) => {
                w.put_u32(z.serial);
                w.put_u8(z.scheme);
                w.put_u8(z.hash_algorithm);
                w.put_bytes(&z.digest);
            }
            Rdata::Opt(raw) | Rdata::Unknown(raw) => w.put_bytes(raw),
        }
    }

    /// RDATA wire bytes (non-canonical).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.write_wire(&mut w, false);
        w.into_bytes()
    }

    /// Read RDATA of `rr_type` from exactly `rdlength` bytes.
    pub fn read_wire(
        r: &mut WireReader,
        rr_type: RrType,
        rdlength: usize,
    ) -> Result<Self, WireError> {
        let end = r.position() + rdlength;
        if r.remaining() < rdlength {
            return Err(WireError::Truncated);
        }
        let rdata = match rr_type {
            RrType::A => {
                if rdlength != 4 {
                    return Err(WireError::BadRdataLength);
                }
                let b = r.read_bytes(4)?;
                Rdata::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            RrType::Aaaa => {
                if rdlength != 16 {
                    return Err(WireError::BadRdataLength);
                }
                let b = r.read_bytes(16)?;
                let mut o = [0u8; 16];
                o.copy_from_slice(b);
                Rdata::Aaaa(Ipv6Addr::from(o))
            }
            RrType::Ns => Rdata::Ns(Name::read_wire(r)?),
            RrType::Cname => Rdata::Cname(Name::read_wire(r)?),
            RrType::Soa => {
                let mname = Name::read_wire(r)?;
                let rname = Name::read_wire(r)?;
                Rdata::Soa(Soa {
                    mname,
                    rname,
                    serial: r.read_u32()?,
                    refresh: r.read_u32()?,
                    retry: r.read_u32()?,
                    expire: r.read_u32()?,
                    minimum: r.read_u32()?,
                })
            }
            RrType::Mx => Rdata::Mx {
                preference: r.read_u16()?,
                exchange: Name::read_wire(r)?,
            },
            RrType::Txt => {
                let mut strings = Vec::new();
                while r.position() < end {
                    let len = r.read_u8()? as usize;
                    if r.position() + len > end {
                        return Err(WireError::BadRdataLength);
                    }
                    strings.push(r.read_bytes(len)?.to_vec());
                }
                Rdata::Txt(strings)
            }
            RrType::Ds => {
                if rdlength < 4 {
                    return Err(WireError::BadRdataLength);
                }
                Rdata::Ds(Ds {
                    key_tag: r.read_u16()?,
                    algorithm: r.read_u8()?,
                    digest_type: r.read_u8()?,
                    digest: r.read_bytes(end - r.position())?.to_vec(),
                })
            }
            RrType::Dnskey => {
                if rdlength < 4 {
                    return Err(WireError::BadRdataLength);
                }
                Rdata::Dnskey(Dnskey {
                    flags: r.read_u16()?,
                    protocol: r.read_u8()?,
                    algorithm: r.read_u8()?,
                    public_key: r.read_bytes(end - r.position())?.to_vec(),
                })
            }
            RrType::Rrsig => {
                if rdlength < 18 {
                    return Err(WireError::BadRdataLength);
                }
                let type_covered = RrType::from_u16(r.read_u16()?);
                let algorithm = r.read_u8()?;
                let labels = r.read_u8()?;
                let original_ttl = r.read_u32()?;
                let expiration = r.read_u32()?;
                let inception = r.read_u32()?;
                let key_tag = r.read_u16()?;
                let signer_name = Name::read_wire(r)?;
                if r.position() > end {
                    return Err(WireError::BadRdataLength);
                }
                Rdata::Rrsig(Rrsig {
                    type_covered,
                    algorithm,
                    labels,
                    original_ttl,
                    expiration,
                    inception,
                    key_tag,
                    signer_name,
                    signature: r.read_bytes(end - r.position())?.to_vec(),
                })
            }
            RrType::Nsec => {
                let next_domain = Name::read_wire(r)?;
                if r.position() > end {
                    return Err(WireError::BadRdataLength);
                }
                let bitmap = r.read_bytes(end - r.position())?;
                Rdata::Nsec(Nsec {
                    next_domain,
                    types: Nsec::parse_type_bitmap(bitmap)?,
                })
            }
            RrType::Zonemd => {
                if rdlength < 6 {
                    return Err(WireError::BadRdataLength);
                }
                Rdata::Zonemd(Zonemd {
                    serial: r.read_u32()?,
                    scheme: r.read_u8()?,
                    hash_algorithm: r.read_u8()?,
                    digest: r.read_bytes(end - r.position())?.to_vec(),
                })
            }
            RrType::Opt => Rdata::Opt(r.read_bytes(rdlength)?.to_vec()),
            _ => Rdata::Unknown(r.read_bytes(rdlength)?.to_vec()),
        };
        if r.position() != end {
            return Err(WireError::BadRdataLength);
        }
        Ok(rdata)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(rdata: Rdata) {
        let t = rdata.rr_type();
        let wire = rdata.to_wire();
        let mut r = WireReader::new(&wire);
        let back = Rdata::read_wire(&mut r, t, wire.len()).unwrap();
        assert_eq!(back, rdata);
    }

    #[test]
    fn address_records_round_trip() {
        round_trip(Rdata::A("199.9.14.201".parse().unwrap()));
        round_trip(Rdata::Aaaa("2801:1b8:10::b".parse().unwrap()));
    }

    #[test]
    fn a_with_wrong_length_rejected() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert_eq!(
            Rdata::read_wire(&mut r, RrType::A, 3),
            Err(WireError::BadRdataLength)
        );
    }

    #[test]
    fn soa_round_trip() {
        round_trip(Rdata::Soa(Soa {
            mname: Name::parse("a.root-servers.net.").unwrap(),
            rname: Name::parse("nstld.verisign-grs.com.").unwrap(),
            serial: 2023122400,
            refresh: 1800,
            retry: 900,
            expire: 604800,
            minimum: 86400,
        }));
    }

    #[test]
    fn txt_round_trip_multiple_strings() {
        round_trip(Rdata::Txt(vec![b"hello".to_vec(), b"world".to_vec()]));
        round_trip(Rdata::Txt(vec![Vec::new()]));
    }

    #[test]
    fn txt_overflowing_string_rejected() {
        // Length byte promises 10 but only 3 remain within rdlength.
        let wire = [10u8, b'a', b'b', b'c'];
        let mut r = WireReader::new(&wire);
        assert_eq!(
            Rdata::read_wire(&mut r, RrType::Txt, 4),
            Err(WireError::BadRdataLength)
        );
    }

    #[test]
    fn dnskey_key_tag_changes_with_content() {
        let k1 = Dnskey {
            flags: 0x0101,
            protocol: 3,
            algorithm: 253,
            public_key: vec![1, 2, 3, 4],
        };
        let mut k2 = k1.clone();
        k2.public_key[0] = 99;
        assert_ne!(k1.key_tag(), k2.key_tag());
        assert!(k1.is_zone_key());
        assert!(k1.is_sep());
        round_trip(Rdata::Dnskey(k1));
    }

    #[test]
    fn rrsig_round_trip() {
        round_trip(Rdata::Rrsig(Rrsig {
            type_covered: RrType::Nsec,
            algorithm: 8,
            labels: 1,
            original_ttl: 86400,
            expiration: 1_701_406_800,
            inception: 1_700_283_600,
            key_tag: 46780,
            signer_name: Name::root(),
            signature: vec![0xab; 48],
        }));
    }

    #[test]
    fn nsec_bitmap_round_trip() {
        round_trip(Rdata::Nsec(Nsec {
            next_domain: Name::parse("aaa.").unwrap(),
            types: vec![
                RrType::Ns,
                RrType::Soa,
                RrType::Rrsig,
                RrType::Nsec,
                RrType::Dnskey,
                RrType::Zonemd,
            ],
        }));
    }

    #[test]
    fn nsec_bitmap_spanning_windows() {
        // Type 1 (window 0) and type 257 (window 1).
        round_trip(Rdata::Nsec(Nsec {
            next_domain: Name::root(),
            types: vec![RrType::A, RrType::Other(257)],
        }));
    }

    #[test]
    fn nsec_bad_bitmap_rejected() {
        assert_eq!(Nsec::parse_type_bitmap(&[0]), Err(WireError::BadRdata));
        assert_eq!(Nsec::parse_type_bitmap(&[0, 0]), Err(WireError::BadRdata));
        assert_eq!(Nsec::parse_type_bitmap(&[0, 33]), Err(WireError::BadRdata));
        assert_eq!(
            Nsec::parse_type_bitmap(&[0, 2, 0xff]),
            Err(WireError::BadRdata)
        );
    }

    #[test]
    fn zonemd_round_trip() {
        round_trip(Rdata::Zonemd(Zonemd {
            serial: 2023120600,
            scheme: 1,
            hash_algorithm: 1,
            digest: vec![0x5a; 48],
        }));
    }

    #[test]
    fn zonemd_too_short_rejected() {
        let mut r = WireReader::new(&[0, 0, 0, 1, 1]);
        assert_eq!(
            Rdata::read_wire(&mut r, RrType::Zonemd, 5),
            Err(WireError::BadRdataLength)
        );
    }

    #[test]
    fn unknown_type_kept_opaque() {
        let wire = vec![9, 8, 7];
        let mut r = WireReader::new(&wire);
        let rd = Rdata::read_wire(&mut r, RrType::Other(1234), 3).unwrap();
        assert_eq!(rd, Rdata::Unknown(vec![9, 8, 7]));
    }

    #[test]
    fn canonical_lowercases_embedded_names() {
        let ns = Rdata::Ns(Name::parse("A.ROOT-SERVERS.NET.").unwrap());
        let mut w = WireWriter::new();
        ns.write_wire(&mut w, true);
        let canonical = w.into_bytes();
        let mut w = WireWriter::new();
        ns.write_wire(&mut w, false);
        let plain = w.into_bytes();
        assert_ne!(canonical, plain);
        assert!(canonical.windows(1).any(|w| w == b"a"));
    }

    #[test]
    fn mx_round_trip() {
        round_trip(Rdata::Mx {
            preference: 10,
            exchange: Name::parse("mail.example.").unwrap(),
        });
    }

    #[test]
    fn ds_round_trip() {
        round_trip(Rdata::Ds(Ds {
            key_tag: 20326,
            algorithm: 8,
            digest_type: 2,
            digest: vec![0xcd; 32],
        }));
    }
}
