//! Resource records and RRsets.

use crate::class::Class;
use crate::name::Name;
use crate::rdata::Rdata;
use crate::rrtype::RrType;
use crate::wire::{WireError, WireReader, WireWriter};

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub name: Name,
    pub class: Class,
    pub ttl: u32,
    /// Authoritative RR type. Usually `rdata.rr_type()`, but kept separately
    /// so opaque [`Rdata::Unknown`] payloads retain their type.
    pub rr_type: RrType,
    pub rdata: Rdata,
}

impl Record {
    /// Build a record of the RDATA's natural type, class IN.
    pub fn new(name: Name, ttl: u32, rdata: Rdata) -> Self {
        Record {
            name,
            class: Class::In,
            ttl,
            rr_type: rdata.rr_type(),
            rdata,
        }
    }

    /// Build a CHAOS-class record (identity TXT responses).
    pub fn chaos(name: Name, ttl: u32, rdata: Rdata) -> Self {
        Record {
            name,
            class: Class::Ch,
            ttl,
            rr_type: rdata.rr_type(),
            rdata,
        }
    }

    /// Encode into a message body, with name compression for the owner.
    pub fn write_wire(&self, w: &mut WireWriter) {
        self.name.write_wire_compressed(w);
        // TYPE, CLASS, TTL and a placeholder RDLENGTH, in one append.
        let mut fixed = [0u8; 10];
        fixed[..2].copy_from_slice(&self.rr_type.to_u16().to_be_bytes());
        fixed[2..4].copy_from_slice(&self.class.to_u16().to_be_bytes());
        fixed[4..8].copy_from_slice(&self.ttl.to_be_bytes());
        w.put_bytes(&fixed);
        let len_at = w.len() - 2;
        let before = w.len();
        self.rdata.write_wire(w, false);
        w.patch_u16(len_at, (w.len() - before) as u16);
    }

    /// RFC 4034 §6 canonical wire form of the whole RR, with `ttl_override`
    /// substituted (signing uses the RRSIG's original TTL). No compression,
    /// owner and embedded names lowercased.
    pub fn canonical_wire(&self, ttl_override: Option<u32>) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.write_canonical(ttl_override, &mut w);
        w.into_bytes()
    }

    /// Append [`Self::canonical_wire`]'s bytes to `w`: the owner
    /// ([`Name::wire_len`] bytes), TYPE, CLASS, TTL, RDLENGTH, then the
    /// RDATA, which starts 10 bytes after the owner.
    pub fn write_canonical(&self, ttl_override: Option<u32>, w: &mut WireWriter) {
        self.name.write_wire(w, true);
        w.put_u16(self.rr_type.to_u16());
        w.put_u16(self.class.to_u16());
        w.put_u32(ttl_override.unwrap_or(self.ttl));
        let len_at = w.len();
        w.put_u16(0);
        let before = w.len();
        self.rdata
            .write_wire(w, self.rr_type.rdata_has_canonical_names());
        w.patch_u16(len_at, (w.len() - before) as u16);
    }

    /// Decode one record from a message body.
    pub fn read_wire(r: &mut WireReader) -> Result<Self, WireError> {
        let name = Name::read_wire(r)?;
        let rr_type = RrType::from_u16(r.read_u16()?);
        let class = Class::from_u16(r.read_u16()?);
        let ttl = r.read_u32()?;
        let rdlength = r.read_u16()? as usize;
        let rdata = Rdata::read_wire(r, rr_type, rdlength)?;
        Ok(Record {
            name,
            class,
            ttl,
            rr_type,
            rdata,
        })
    }

    /// Canonical RRset ordering (RFC 4034 §6.3): owner, class, type, then
    /// canonical RDATA bytes.
    pub fn canonical_cmp(&self, other: &Record) -> std::cmp::Ordering {
        self.name
            .canonical_cmp(&other.name)
            .then_with(|| self.class.to_u16().cmp(&other.class.to_u16()))
            .then_with(|| self.rr_type.to_u16().cmp(&other.rr_type.to_u16()))
            .then_with(|| {
                let mut wa = WireWriter::new();
                self.rdata
                    .write_wire(&mut wa, self.rr_type.rdata_has_canonical_names());
                let mut wb = WireWriter::new();
                other
                    .rdata
                    .write_wire(&mut wb, other.rr_type.rdata_has_canonical_names());
                wa.into_bytes().cmp(&wb.into_bytes())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn a_record(name: &str, addr: &str) -> Record {
        Record::new(
            Name::parse(name).unwrap(),
            3600000,
            Rdata::A(addr.parse().unwrap()),
        )
    }

    #[test]
    fn wire_round_trip() {
        let rec = a_record("b.root-servers.net.", "199.9.14.201");
        let mut w = WireWriter::new();
        rec.write_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Record::read_wire(&mut r).unwrap(), rec);
        assert!(r.is_empty());
    }

    #[test]
    fn rdlength_patched_correctly() {
        let rec = a_record("x.", "1.2.3.4");
        let mut w = WireWriter::new();
        rec.write_wire(&mut w);
        let bytes = w.into_bytes();
        // owner (3) + type(2) + class(2) + ttl(4) = 11; rdlength at 11..13.
        assert_eq!(&bytes[11..13], &[0, 4]);
    }

    #[test]
    fn canonical_wire_lowercases_owner_and_applies_ttl() {
        let rec = Record::new(
            Name::parse("B.ROOT-SERVERS.NET.").unwrap(),
            518400,
            Rdata::A("199.9.14.201".parse().unwrap()),
        );
        let wire = rec.canonical_wire(Some(3600));
        // Owner must be lowercase.
        assert!(wire.windows(1).any(|w| w == b"b"));
        assert!(!wire.windows(1).any(|w| w == b"B"));
        // TTL field (offset: 20-byte owner + 2 + 2 = 24..28).
        let owner_len = Name::parse("b.root-servers.net.").unwrap().wire_len();
        let ttl_off = owner_len + 4;
        assert_eq!(&wire[ttl_off..ttl_off + 4], &3600u32.to_be_bytes());
    }

    #[test]
    fn write_canonical_appends_canonical_wire() {
        let ns = Record::new(
            Name::parse("COM.").unwrap(),
            172800,
            Rdata::Ns(Name::parse("A.GTLD-Servers.net.").unwrap()),
        );
        let a = a_record("B.Root-Servers.NET.", "199.9.14.201");
        let mut w = WireWriter::new();
        w.put_bytes(b"before");
        let mut want = b"before".to_vec();
        for (rec, ttl) in [(&ns, None), (&a, Some(60)), (&ns, Some(0))] {
            let at = w.len();
            rec.write_canonical(ttl, &mut w);
            let form = rec.canonical_wire(ttl);
            // The RDATA, RDLENGTH bytes of it, starts 10 bytes after the owner.
            let owner = rec.name.wire_len();
            let rdlength = u16::from_be_bytes([form[owner + 8], form[owner + 9]]);
            assert_eq!(w.len() - (at + owner + 10), usize::from(rdlength));
            want.extend_from_slice(&form);
        }
        assert_eq!(w.as_bytes(), &want[..]);
        assert!(!w.as_bytes()[6..].iter().any(u8::is_ascii_uppercase));
    }

    #[test]
    fn canonical_ordering_by_rdata() {
        let r1 = a_record("x.", "1.1.1.1");
        let r2 = a_record("x.", "2.2.2.2");
        assert_eq!(r1.canonical_cmp(&r2), Ordering::Less);
        assert_eq!(r2.canonical_cmp(&r1), Ordering::Greater);
        assert_eq!(r1.canonical_cmp(&r1), Ordering::Equal);
    }

    #[test]
    fn canonical_ordering_by_type_then_name() {
        let a = a_record("x.", "1.1.1.1");
        let ns = Record::new(
            Name::parse("x.").unwrap(),
            3600,
            Rdata::Ns(Name::parse("n.x.").unwrap()),
        );
        assert_eq!(a.canonical_cmp(&ns), Ordering::Less); // A(1) < NS(2)
        let earlier = a_record("a.", "9.9.9.9");
        assert_eq!(earlier.canonical_cmp(&a), Ordering::Less);
    }

    #[test]
    fn chaos_record_class() {
        let rec = Record::chaos(
            Name::parse("hostname.bind.").unwrap(),
            0,
            Rdata::Txt(vec![b"site01.example".to_vec()]),
        );
        assert_eq!(rec.class, Class::Ch);
        let mut w = WireWriter::new();
        rec.write_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Record::read_wire(&mut r).unwrap().class, Class::Ch);
    }
}
