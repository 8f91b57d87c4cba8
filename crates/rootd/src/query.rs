//! The engine's view of one request.
//!
//! A datagram is parsed once, into a [`FastQuery`]: the header bits the
//! answer echoes, the question with its name lowercased and its label
//! boundaries found, and what the OPT record asked for. The answer cache,
//! the CHAOS cache and the uncached answer path all read that one view.
//! [`FastQuery::parse`] builds it straight from the request bytes, without
//! allocating, for the requests it can prove canonical; everything else a
//! server must still answer (options in the OPT, a compressed qname, any
//! number of questions but one, another opcode) goes through
//! [`Message::from_wire`] and is adapted onto the same view by
//! [`FastQuery::from_message`].
//!
//! # Key layout
//!
//! The lowercased qname with its root byte is the key every table on the
//! serve path is probed with, and the view *borrows* it. A request whose
//! qname holds no upper-case byte — what resolvers without 0x20 mixing and
//! every load generator here send — already carries the key: it is the
//! request's own bytes `12..=pos`, and `lc` points there. Only a qname
//! with an upper-case byte is copied, lowercased, into a [`NameScratch`]
//! the caller owns: `Rootd::serve_udp_batch` sets one up per batch, the
//! one-shot entry points one per call. Nothing is zero-filled or copied per
//! query on the common path.

use dns_wire::edns::edns_of;
use dns_wire::{Class, Message, Name, Question, RrType};

/// Minimum response budget every DNS/UDP client must accept (RFC 1035).
pub const MIN_UDP_PAYLOAD: usize = 512;

/// The payload size this server advertises in its own OPT records, and the
/// ceiling it honors from clients (RFC 6891 recommends not trusting larger
/// advertisements across unknown paths).
pub const MAX_UDP_PAYLOAD: usize = 4096;

/// Maximum qname wire length (RFC 1035).
pub(crate) const MAX_QNAME: usize = 255;

/// Room for the lowercased copy of one qname, root byte included (see the
/// module docs, "Key layout"). Stale contents are harmless: a view only
/// reads the bytes its constructor wrote.
pub(crate) type NameScratch = [u8; MAX_QNAME];

/// One request, parsed. See the module docs.
pub(crate) struct FastQuery<'a> {
    /// Message id, echoed.
    pub(crate) id: u16,
    /// The four opcode bits, echoed; only QUERY (0) is answered.
    pub(crate) opcode: u8,
    /// RD, echoed.
    pub(crate) rd: bool,
    /// The qname as it arrived: flat wire form without the root byte, in
    /// the client's case (what the question section echoes).
    pub(crate) qname: &'a [u8],
    /// The qname lowercased, root byte included: the answer cache's key.
    /// Borrowed from the request when that is lower-case already, from the
    /// caller's [`NameScratch`] otherwise.
    pub(crate) lc: &'a [u8],
    pub(crate) qtype: u16,
    pub(crate) class: u16,
    /// Set on a request with any number of questions but one: all of them,
    /// to echo. The fields above describe no question then.
    pub(crate) questions: Option<&'a [Question]>,
    /// 0 = no EDNS, 1 = EDNS, 2 = EDNS+DO.
    pub(crate) state: usize,
    /// Response budget (512 without EDNS, clamped advertised size with).
    pub(crate) limit: usize,
    /// The OPT record's EDNS version; only 0 is spoken.
    pub(crate) version: u8,
    /// Whether the OPT record carries an (empty) NSID option.
    pub(crate) nsid: bool,
}

impl<'a> FastQuery<'a> {
    fn empty() -> FastQuery<'a> {
        FastQuery {
            id: 0,
            opcode: 0,
            rd: false,
            qname: &[],
            lc: &[0],
            qtype: 0,
            class: 0,
            questions: None,
            state: 0,
            limit: MIN_UDP_PAYLOAD,
            version: 0,
            nsid: false,
        }
    }

    /// Record the qname `wire` (flat, without the root byte, label
    /// structure and the 255-byte bound already checked), lowercased into
    /// `scratch`.
    fn set_qname(&mut self, wire: &'a [u8], scratch: &'a mut NameScratch) {
        self.qname = wire;
        let lc = &mut scratch[..wire.len() + 1];
        lc[..wire.len()].copy_from_slice(wire);
        lc[wire.len()] = 0;
        // Length bytes are at most 63, below `A`: lowercasing the whole
        // name touches label bytes only.
        lc.make_ascii_lowercase();
        self.lc = lc;
    }

    /// Record what an OPT record with this CLASS and TTL asks for.
    fn set_edns(&mut self, payload: u16, ttl: u32) {
        self.state = if ttl & 0x8000 != 0 { 2 } else { 1 };
        self.limit = (payload as usize).clamp(MIN_UDP_PAYLOAD, MAX_UDP_PAYLOAD);
        self.version = (ttl >> 16) as u8;
    }

    /// Parse a request the precompiled caches can answer: opcode QUERY,
    /// not a response, exactly one question with an uncompressed qname,
    /// and at most one additional record which must be a bare canonical
    /// OPT (no options, version 0, no extended rcode). AA/TC request bits
    /// are ignored and RD is echoed, exactly as for every other request.
    /// Anything it rejects goes through [`Self::from_message`], which
    /// accepts a strictly larger set — so rejecting here is always safe.
    /// `scratch` is written only when the qname holds an upper-case byte.
    pub(crate) fn parse(req: &'a [u8], scratch: &'a mut NameScratch) -> Option<FastQuery<'a>> {
        // 12-byte header + root qname + qtype + qclass at the least.
        if req.len() < 17 || req[2] & 0xf8 != 0 {
            return None;
        }
        if req[4..11] != [0, 1, 0, 0, 0, 0, 0] || req[11] > 1 {
            return None;
        }
        // No compression pointers in qnames; enforce the 255-byte name
        // ceiling the full parser applies.
        let mut pos = 12;
        loop {
            let len = *req.get(pos)? as usize;
            if len == 0 {
                break;
            }
            if len & 0xc0 != 0 || pos - 12 + len + 2 > MAX_QNAME {
                return None;
            }
            pos += 1 + len;
        }
        let meta = req.get(pos + 1..pos + 5)?;
        let mut q = FastQuery::empty();
        q.id = u16::from_be_bytes([req[0], req[1]]);
        q.rd = req[2] & 0x01 != 0;
        // The qname with its root byte is the key as it stands unless a
        // label byte is upper-case (length bytes, at most 63, never are).
        let key = &req[12..=pos];
        if key.iter().any(u8::is_ascii_uppercase) {
            q.set_qname(&req[12..pos], scratch);
        } else {
            q.qname = &req[12..pos];
            q.lc = key;
        }
        q.qtype = u16::from_be_bytes([meta[0], meta[1]]);
        q.class = u16::from_be_bytes([meta[2], meta[3]]);
        let opt = &req[pos + 5..];
        if req[11] == 0 {
            return opt.is_empty().then_some(q);
        }
        // name ".", TYPE 41, …, zero RDLENGTH.
        let &[0, 0, 41, p0, p1, t0, t1, t2, t3, 0, 0] = opt else {
            return None;
        };
        // TTL = [ext-rcode, version, DO | Z-hi, Z-lo]: only version 0
        // with no extended rcode and no Z bits is cacheable.
        let ttl = u32::from_be_bytes([t0, t1, t2, t3]);
        if ttl & !0x8000 != 0 {
            return None;
        }
        q.set_edns(u16::from_be_bytes([p0, p1]), ttl);
        Some(q)
    }

    /// The view of a request [`Self::parse`] would not take, from its full
    /// parse.
    pub(crate) fn from_message(query: &'a Message, scratch: &'a mut NameScratch) -> FastQuery<'a> {
        let mut q = match query.questions.as_slice() {
            [one] => FastQuery::for_question(&one.name, one.rr_type, one.class, 0, scratch),
            // Zero or several questions: nothing sane to answer.
            all => FastQuery {
                questions: Some(all),
                ..FastQuery::empty()
            },
        };
        q.id = query.header.id;
        q.opcode = query.header.opcode.to_u8();
        q.rd = query.header.flags.recursion_desired;
        if let Some(edns) = edns_of(query) {
            let ttl = (edns.version as u32) << 16 | if edns.dnssec_ok { 0x8000 } else { 0 };
            q.set_edns(edns.udp_payload_size, ttl);
            q.nsid = edns.nsid_requested();
        }
        q
    }

    /// A query for (`name`, `qtype`, `class`) in EDNS state `state` (0 = no
    /// EDNS, 1 = EDNS, 2 = EDNS+DO, at this server's own payload size),
    /// id 0 and RD clear: what the answer cache precompiles against.
    pub(crate) fn for_question(
        name: &'a Name,
        qtype: RrType,
        class: Class,
        state: usize,
        scratch: &'a mut NameScratch,
    ) -> FastQuery<'a> {
        let mut q = FastQuery::empty();
        q.set_qname(name.as_wire(), scratch);
        q.qtype = qtype.to_u16();
        q.class = class.to_u16();
        if state > 0 {
            q.set_edns(MAX_UDP_PAYLOAD as u16, if state == 2 { 0x8000 } else { 0 });
        }
        q
    }

    /// The lowercased qname, flat, without the root byte.
    pub(crate) fn name_lc(&self) -> &[u8] {
        &self.lc[..self.lc.len() - 1]
    }

    /// Whether the client set the DO bit.
    pub(crate) fn dnssec_ok(&self) -> bool {
        self.state == 2
    }

    /// Whether the request speaks an EDNS version this server does not.
    pub(crate) fn bad_version(&self) -> bool {
        self.state != 0 && self.version != 0
    }

    /// Whether the (first) question asks for a zone transfer.
    pub(crate) fn is_axfr(&self) -> bool {
        let (qtype, class) = match self.questions {
            None => (self.qtype, self.class),
            Some([first, ..]) => (first.rr_type.to_u16(), first.class.to_u16()),
            Some([]) => return false,
        };
        qtype == RrType::Axfr.to_u16() && class == Class::In.to_u16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::edns::{set_edns, Edns};

    #[test]
    fn fast_parse_rejects_what_the_cache_cannot_prove() {
        let base = || Message::query(1, Question::new(Name::root(), RrType::A)).to_wire();
        let lc = &mut [0; MAX_QNAME];
        assert!(FastQuery::parse(&base(), lc).is_some());
        // Compression pointer in the qname.
        let mut req = base();
        req[12] = 0xc0;
        req.insert(13, 0x0c);
        assert!(FastQuery::parse(&req, lc).is_none());
        // Trailing bytes.
        let mut req = base();
        req.push(0);
        assert!(FastQuery::parse(&req, lc).is_none());
        // Non-zero opcode.
        let mut req = base();
        req[2] |= 0x08;
        assert!(FastQuery::parse(&req, lc).is_none());
        // EDNS version 1.
        let mut req = base();
        let mut opt = vec![0, 0, 41, 0x0f, 0xa0, 0, 1, 0, 0, 0, 0];
        req[11] = 1;
        req.append(&mut opt);
        assert!(FastQuery::parse(&req, lc).is_none());
    }

    #[test]
    fn both_constructors_agree_on_a_canonical_request() {
        let mut msg = Message::query(
            0xbeef,
            Question::new(Name::parse("Www.Example.COM.").unwrap(), RrType::Other(65)),
        );
        msg.header.flags.recursion_desired = true;
        set_edns(
            &mut msg,
            &Edns {
                udp_payload_size: 1232,
                dnssec_ok: true,
                ..Default::default()
            },
        );
        let wire = msg.to_wire();
        let (mut fast_lc, mut adapted_lc) = ([0; MAX_QNAME], [0; MAX_QNAME]);
        let fast = FastQuery::parse(&wire, &mut fast_lc).expect("canonical");
        let adapted = FastQuery::from_message(&msg, &mut adapted_lc);
        for q in [&fast, &adapted] {
            assert_eq!((q.id, q.opcode, q.rd), (0xbeef, 0, true));
            assert_eq!(q.qname, &wire[12..12 + 16]);
            assert_eq!(q.lc, b"\x03www\x07example\x03com\0");
            assert_eq!(q.name_lc(), b"\x03www\x07example\x03com");
            assert_eq!((q.qtype, q.class), (65, 1));
            assert_eq!((q.state, q.limit, q.version, q.nsid), (2, 1232, 0, false));
            assert!(q.questions.is_none() && !q.is_axfr());
        }
    }

    /// The key is the request's own bytes when the qname is lower-case,
    /// and the caller's scratch — whatever it held before — only when it
    /// is not.
    #[test]
    fn lower_case_qnames_borrow_the_request_and_mixed_case_ones_the_scratch() {
        let wire_of = |name: &str| {
            Message::query(7, Question::new(Name::parse(name).unwrap(), RrType::Ns)).to_wire()
        };
        let stale = [0xff; MAX_QNAME];
        for name in [".", "com.", "nx0123456789ab.", "a.root-servers.net."] {
            let wire = wire_of(name);
            let mut scratch = stale;
            let q = FastQuery::parse(&wire, &mut scratch).expect("canonical");
            assert!(std::ptr::eq(q.lc.as_ptr(), wire[12..].as_ptr()), "{name}");
            assert_eq!(q.lc, &wire[12..wire.len() - 4]);
            assert_eq!((q.qname, q.name_lc()), (&q.lc[..q.lc.len() - 1], q.qname));
            assert_eq!(scratch, stale, "{name}: scratch written");
        }
        for name in ["Com.", "coM.", "nx0123456789aB.", "a.Root-Servers.net."] {
            let wire = wire_of(name);
            let mut scratch = stale;
            let q = FastQuery::parse(&wire, &mut scratch).expect("canonical");
            let qend = wire.len() - 4;
            assert_eq!(q.qname, &wire[12..qend - 1], "{name}: echoed as sent");
            assert_eq!(q.lc, wire_of(&name.to_ascii_lowercase())[12..qend].as_ref());
            assert!(!std::ptr::eq(q.lc.as_ptr(), wire[12..].as_ptr()));
        }
        // The longest name there is fills the scratch to its last byte.
        let long = format!("{0}.{0}.{0}.{1}.", "X".repeat(63), "y".repeat(61));
        let wire = wire_of(&long);
        let mut scratch = stale;
        let q = FastQuery::parse(&wire, &mut scratch).expect("255 bytes fit");
        assert_eq!(q.lc.len(), MAX_QNAME);
        assert_eq!(
            q.lc,
            wire_of(&long.to_ascii_lowercase())[12..12 + MAX_QNAME].as_ref()
        );
        // No question at all: the root's key, not a dangling one.
        let mut none = Message::query(1, Question::new(Name::root(), RrType::A));
        none.questions.clear();
        let q = FastQuery::from_message(&none, &mut scratch);
        assert_eq!((q.lc, q.name_lc()), (&[0u8][..], &[][..]));
    }
}
