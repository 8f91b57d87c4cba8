//! DNS messages: header, question, and the four sections (RFC 1035 §4).

use crate::class::Class;
use crate::name::Name;
use crate::record::Record;
use crate::rrtype::RrType;
use crate::wire::{WireError, WireReader, WireWriter};

/// Message opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    Query,
    Notify,
    Update,
    Other(u8),
}

impl Opcode {
    /// The four header bits.
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Other(v) => v & 0xf,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v & 0xf {
            0 => Opcode::Query,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Other(other),
        }
    }
}

/// Response code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    NoError,
    FormErr,
    ServFail,
    NxDomain,
    NotImp,
    Refused,
    Other(u8),
}

impl Rcode {
    /// The four header bits.
    pub fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0xf,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v & 0xf {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// Header flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// QR: response.
    pub response: bool,
    /// AA: authoritative answer.
    pub authoritative: bool,
    /// TC: truncated.
    pub truncated: bool,
    /// RD: recursion desired.
    pub recursion_desired: bool,
    /// RA: recursion available.
    pub recursion_available: bool,
    /// AD: authenticated data (DNSSEC).
    pub authentic_data: bool,
    /// CD: checking disabled (DNSSEC).
    pub checking_disabled: bool,
}

/// Message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub id: u16,
    pub opcode: Opcode,
    pub rcode: Rcode,
    pub flags: Flags,
}

impl Default for Header {
    fn default() -> Self {
        Header {
            id: 0,
            opcode: Opcode::Query,
            rcode: Rcode::NoError,
            flags: Flags::default(),
        }
    }
}

/// A question entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    pub name: Name,
    pub rr_type: RrType,
    pub class: Class,
}

impl Question {
    /// `name IN qtype`.
    pub fn new(name: Name, rr_type: RrType) -> Self {
        Question {
            name,
            rr_type,
            class: Class::In,
        }
    }

    /// `name CH TXT` (identity queries).
    pub fn chaos_txt(name: Name) -> Self {
        Question {
            name,
            rr_type: RrType::Txt,
            class: Class::Ch,
        }
    }
}

/// A full DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    pub header: Header,
    pub questions: Vec<Question>,
    pub answers: Vec<Record>,
    pub authorities: Vec<Record>,
    pub additionals: Vec<Record>,
}

impl Message {
    /// A query for a single question with DO bit semantics left to the
    /// caller's OPT record (added in `additionals` if EDNS0 is wanted).
    pub fn query(id: u16, question: Question) -> Self {
        Message {
            header: Header {
                id,
                ..Header::default()
            },
            questions: vec![question],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// An authoritative response to `query` with the given answers.
    pub fn response_to(query: &Message, rcode: Rcode, answers: Vec<Record>) -> Self {
        Message {
            header: Header {
                id: query.header.id,
                opcode: query.header.opcode,
                rcode,
                flags: Flags {
                    response: true,
                    authoritative: true,
                    recursion_desired: query.header.flags.recursion_desired,
                    ..Flags::default()
                },
            },
            questions: query.questions.clone(),
            answers,
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Encode to wire bytes (with name compression).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode_into_writer(&mut w);
        w.into_bytes()
    }

    /// Encode without name compression (ablation).
    pub fn to_wire_uncompressed(&self) -> Vec<u8> {
        let mut w = WireWriter::without_compression();
        self.encode_into_writer(&mut w);
        w.into_bytes()
    }

    /// Encode into `out`, reusing its allocation (the buffer is cleared
    /// first). The zero-copy sibling of [`Self::to_wire`] for hot serve
    /// paths that own a scratch buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::with_buffer(std::mem::take(out));
        self.encode_into_writer(&mut w);
        *out = w.into_bytes();
    }

    /// Encode into a caller-provided writer (callers that need the
    /// writer's compression-pointer log, e.g. answer-template builders).
    pub fn encode_into_writer(&self, w: &mut WireWriter) {
        w.put_u16(self.header.id);
        let f = &self.header.flags;
        let mut hi: u8 = 0;
        if f.response {
            hi |= 0x80;
        }
        hi |= self.header.opcode.to_u8() << 3;
        if f.authoritative {
            hi |= 0x04;
        }
        if f.truncated {
            hi |= 0x02;
        }
        if f.recursion_desired {
            hi |= 0x01;
        }
        let mut lo: u8 = self.header.rcode.to_u8();
        if f.recursion_available {
            lo |= 0x80;
        }
        if f.authentic_data {
            lo |= 0x20;
        }
        if f.checking_disabled {
            lo |= 0x10;
        }
        w.put_u8(hi);
        w.put_u8(lo);
        w.put_u16(self.questions.len() as u16);
        w.put_u16(self.answers.len() as u16);
        w.put_u16(self.authorities.len() as u16);
        w.put_u16(self.additionals.len() as u16);
        for q in &self.questions {
            q.name.write_wire_compressed(w);
            w.put_u16(q.rr_type.to_u16());
            w.put_u16(q.class.to_u16());
        }
        for rec in (self.answers.iter())
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            rec.write_wire(w);
        }
    }

    /// Decode from wire bytes.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let id = r.read_u16()?;
        let hi = r.read_u8()?;
        let lo = r.read_u8()?;
        let header = Header {
            id,
            opcode: Opcode::from_u8(hi >> 3),
            rcode: Rcode::from_u8(lo),
            flags: Flags {
                response: hi & 0x80 != 0,
                authoritative: hi & 0x04 != 0,
                truncated: hi & 0x02 != 0,
                recursion_desired: hi & 0x01 != 0,
                recursion_available: lo & 0x80 != 0,
                authentic_data: lo & 0x20 != 0,
                checking_disabled: lo & 0x10 != 0,
            },
        };
        let qd = r.read_u16()? as usize;
        let an = r.read_u16()? as usize;
        let ns = r.read_u16()? as usize;
        let ar = r.read_u16()? as usize;
        // Each question needs ≥5 bytes, each record ≥11: cheap sanity check
        // before allocating.
        if qd * 5 + (an + ns + ar) * 11 > r.remaining() {
            return Err(WireError::BadCount);
        }
        let mut questions = Vec::with_capacity(qd);
        for _ in 0..qd {
            let name = Name::read_wire(&mut r)?;
            let rr_type = RrType::from_u16(r.read_u16()?);
            let class = Class::from_u16(r.read_u16()?);
            questions.push(Question {
                name,
                rr_type,
                class,
            });
        }
        let read_section = |n: usize, r: &mut WireReader| -> Result<Vec<Record>, WireError> {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(Record::read_wire(r)?);
            }
            Ok(out)
        };
        let answers = read_section(an, &mut r)?;
        let authorities = read_section(ns, &mut r)?;
        let additionals = read_section(ar, &mut r)?;
        Ok(Message {
            header,
            questions,
            answers,
            authorities,
            additionals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::Rdata;

    fn sample_query() -> Message {
        Message::query(
            0x1234,
            Question::new(Name::parse("b.root-servers.net.").unwrap(), RrType::Aaaa),
        )
    }

    #[test]
    fn query_round_trip() {
        let q = sample_query();
        let bytes = q.to_wire();
        assert_eq!(Message::from_wire(&bytes).unwrap(), q);
    }

    #[test]
    fn response_round_trip_with_all_sections() {
        let q = sample_query();
        let mut resp = Message::response_to(
            &q,
            Rcode::NoError,
            vec![Record::new(
                Name::parse("b.root-servers.net.").unwrap(),
                3600000,
                Rdata::Aaaa("2801:1b8:10::b".parse().unwrap()),
            )],
        );
        resp.authorities.push(Record::new(
            Name::parse("root-servers.net.").unwrap(),
            3600000,
            Rdata::Ns(Name::parse("a.root-servers.net.").unwrap()),
        ));
        resp.additionals.push(Record::new(
            Name::parse("a.root-servers.net.").unwrap(),
            3600000,
            Rdata::A("198.41.0.4".parse().unwrap()),
        ));
        let bytes = resp.to_wire();
        let back = Message::from_wire(&bytes).unwrap();
        assert_eq!(back, resp);
        assert!(back.header.flags.response);
        assert!(back.header.flags.authoritative);
    }

    #[test]
    fn compression_shrinks_message() {
        // Answers sharing the owner suffix compress; NS RDATA names are
        // deliberately written uncompressed (like modern servers do for
        // DNSSEC-signed data), so compression savings come from owners.
        let q = sample_query();
        let mut resp = Message::response_to(&q, Rcode::NoError, Vec::new());
        for letter in ["a", "b", "c", "d", "e"] {
            resp.authorities.push(Record::new(
                Name::parse(&format!("{letter}.root-servers.net.")).unwrap(),
                518400,
                Rdata::A("198.41.0.4".parse().unwrap()),
            ));
        }
        let compressed = resp.to_wire();
        let plain = resp.to_wire_uncompressed();
        assert!(compressed.len() < plain.len());
        // Both decode identically.
        assert_eq!(
            Message::from_wire(&compressed).unwrap(),
            Message::from_wire(&plain).unwrap()
        );
    }

    #[test]
    fn header_flags_round_trip() {
        let mut m = sample_query();
        m.header.flags = Flags {
            response: true,
            authoritative: true,
            truncated: true,
            recursion_desired: true,
            recursion_available: true,
            authentic_data: true,
            checking_disabled: true,
        };
        m.header.rcode = Rcode::Refused;
        m.header.opcode = Opcode::Notify;
        let back = Message::from_wire(&m.to_wire()).unwrap();
        assert_eq!(back.header, m.header);
    }

    #[test]
    fn lying_counts_rejected() {
        let q = sample_query();
        let mut bytes = q.to_wire();
        // Claim 1000 answers.
        bytes[6] = 0x03;
        bytes[7] = 0xe8;
        assert!(matches!(
            Message::from_wire(&bytes),
            Err(WireError::BadCount) | Err(WireError::Truncated)
        ));
    }

    #[test]
    fn empty_message_rejected() {
        assert_eq!(Message::from_wire(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn chaos_question_round_trip() {
        let q = Message::query(
            7,
            Question::chaos_txt(Name::parse("hostname.bind.").unwrap()),
        );
        let back = Message::from_wire(&q.to_wire()).unwrap();
        assert_eq!(back.questions[0].class, Class::Ch);
        assert_eq!(back.questions[0].rr_type, RrType::Txt);
    }

    #[test]
    fn trailing_garbage_tolerated() {
        // DNS parsers conventionally ignore trailing bytes (UDP padding).
        let q = sample_query();
        let mut bytes = q.to_wire();
        bytes.extend_from_slice(&[0u8; 4]);
        assert_eq!(Message::from_wire(&bytes).unwrap(), q);
    }
}
