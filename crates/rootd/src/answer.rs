//! The answer logic, written once: a parsed request in, response bytes out.
//!
//! [`Answerer::answer`] resolves a [`FastQuery`] against the [`ZoneIndex`]
//! into a [`Plan`] — the response's header bits, the record slices of its
//! three sections borrowed from the index, and the OPT record to attach.
//! Nothing is cloned and nothing is allocated. [`encode`] writes a plan
//! straight into the caller's buffer in one pass, stopping at the last
//! record that fits the budget. The serve path runs the two per datagram;
//! the answer cache runs the very same two per shape at build time, which
//! is why cached and uncached responses are byte-identical by
//! construction.

use crate::engine::SiteIdentity;
use crate::index::{Lookup, RrsetEntry, ZoneIndex};
use crate::query::{FastQuery, MAX_UDP_PAYLOAD};
use dns_wire::edns::OPTION_NSID;
use dns_wire::rdata::Rdata;
use dns_wire::wire::WireWriter;
use dns_wire::{Class, Name, Rcode, Record, RrType};

/// The CHAOS identity names answered per-site (RFC 4892 conventions):
/// the instance identifier under the first two, the software banner under
/// the last two.
pub(crate) const CHAOS_NAMES: [&str; 4] = [
    "hostname.bind.",
    "id.server.",
    "version.bind.",
    "version.server.",
];

/// What an instance answers about itself: the CHAOS identity records and
/// the NSID payload.
#[derive(Debug)]
pub(crate) struct SiteAnswers {
    /// The instance identifier; `None` models operators that disable
    /// identity queries (REFUSED, and no NSID).
    hostname: Option<String>,
    /// The TXT answer at each of [`CHAOS_NAMES`] that has one, owner
    /// lowercase.
    identity: Vec<Record>,
}

impl SiteAnswers {
    pub(crate) fn new(site: &SiteIdentity) -> SiteAnswers {
        let (hostname, version) = (site.hostname.as_deref(), site.version.as_str());
        let texts = [hostname, hostname, Some(version), Some(version)];
        let identity = CHAOS_NAMES.iter().zip(texts).filter_map(|(owner, text)| {
            let owner = Name::parse(owner).expect("static chaos name");
            let text = Rdata::Txt(vec![text?.as_bytes().to_vec()]);
            Some(Record::chaos(owner, 0, text))
        });
        SiteAnswers {
            hostname: hostname.map(str::to_string),
            identity: identity.collect(),
        }
    }
}

/// The OPT record a response carries (RFC 6891): this server's payload
/// size and EDNS version 0, always.
#[derive(Debug, Clone, Copy)]
struct Opt<'a> {
    dnssec_ok: bool,
    /// The upper eight bits of the 12-bit rcode.
    extended_rcode: u8,
    nsid: Option<&'a [u8]>,
}

impl Opt<'_> {
    fn wire_len(&self) -> usize {
        11 + self.nsid.map_or(0, |nsid| 4 + nsid.len())
    }

    fn write(&self, w: &mut WireWriter) {
        w.put_u8(0); // owner: the root
        w.put_u16(RrType::Opt.to_u16());
        w.put_u16(MAX_UDP_PAYLOAD as u16);
        let flags = if self.dnssec_ok { 0x8000 } else { 0 };
        w.put_u32((self.extended_rcode as u32) << 24 | flags);
        w.put_u16((self.wire_len() - 11) as u16);
        if let Some(nsid) = self.nsid {
            w.put_u16(OPTION_NSID);
            w.put_u16(nsid.len() as u16);
            w.put_bytes(nsid);
        }
    }
}

/// One response, as references into the serving state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan<'a> {
    rcode: Rcode,
    authoritative: bool,
    /// TC set whatever fits (AXFR over UDP).
    truncated: bool,
    answers: &'a [Record],
    authority: [&'a [Record]; 2],
    additional: &'a [Record],
    opt: Option<Opt<'a>>,
}

impl<'a> Plan<'a> {
    /// An authoritative response with no records.
    pub(crate) fn bare(rcode: Rcode) -> Plan<'a> {
        Plan {
            rcode,
            authoritative: true,
            truncated: false,
            answers: &[],
            authority: [&[], &[]],
            additional: &[],
            opt: None,
        }
    }
}

/// The full answer logic, borrowed from one serving state.
pub(crate) struct Answerer<'a> {
    pub(crate) index: &'a ZoneIndex,
    /// `None` answers no identity at all (the identity-free shared cache).
    pub(crate) site: Option<&'a SiteAnswers>,
}

impl<'a> Answerer<'a> {
    /// The single-message response to `q`. `udp` says the transport cannot
    /// stream: a zone transfer is then answered empty with TC set, which
    /// forces the TCP retry (over TCP the caller streams the zone itself).
    pub(crate) fn answer(&self, q: &FastQuery<'_>, udp: bool) -> Plan<'a> {
        // RFC 6891 §6.1.3: a version this server does not speak is
        // answered BADVERS (rcode 16: extended bits 1, header bits 0) and
        // nothing else.
        let mut plan = if q.bad_version() {
            Plan::bare(Rcode::NoError)
        } else if udp && q.is_axfr() {
            Plan {
                truncated: true,
                ..Plan::bare(Rcode::NoError)
            }
        } else {
            self.resolve(q)
        };
        self.attach_edns(q, &mut plan);
        plan
    }

    fn resolve(&self, q: &FastQuery<'_>) -> Plan<'a> {
        if q.opcode != 0 {
            return Plan::bare(Rcode::NotImp);
        }
        if q.questions.is_some() {
            // Zero or multiple questions: nothing sane to answer.
            return Plan::bare(Rcode::FormErr);
        }
        if q.class == Class::Ch.to_u16() {
            self.answer_chaos(q)
        } else if q.class == Class::In.to_u16() {
            self.answer_in(q)
        } else {
            Plan::bare(Rcode::Refused)
        }
    }

    fn answer_chaos(&self, q: &FastQuery<'_>) -> Plan<'a> {
        let identity = self.site.map_or(&[][..], |site| &site.identity);
        let txt = (identity.iter())
            .find(|txt| q.qtype == RrType::Txt.to_u16() && txt.name.as_wire() == q.name_lc());
        match txt {
            // The owner is the question's name: on the wire, a pointer.
            Some(txt) => Plan {
                answers: std::slice::from_ref(txt),
                ..Plan::bare(Rcode::NoError)
            },
            None => Plan::bare(Rcode::Refused),
        }
    }

    fn answer_in(&self, q: &FastQuery<'_>) -> Plan<'a> {
        let dnssec = q.dnssec_ok();
        match self.index.lookup(q.name_lc(), RrType::from_u16(q.qtype)) {
            Lookup::Answer(entry) => {
                // Priming response (RFC 8109): ship the root server
                // addresses so resolvers can bootstrap.
                let origin = self.index.origin().as_wire();
                let priming =
                    q.qtype == RrType::Ns.to_u16() && origin.eq_ignore_ascii_case(q.name_lc());
                Plan {
                    answers: entry.section(dnssec),
                    additional: if priming {
                        self.index.priming_glue()
                    } else {
                        &[]
                    },
                    ..Plan::bare(Rcode::NoError)
                }
            }
            Lookup::Referral(referral) => Plan {
                // Referrals are non-authoritative: the data lives below
                // the zone cut.
                authoritative: false,
                authority: [referral.authority.section(dnssec), &[]],
                additional: &referral.glue,
                ..Plan::bare(Rcode::NoError)
            },
            Lookup::NoData => self.negative(q, Rcode::NoError),
            Lookup::NxDomain => self.negative(q, Rcode::NxDomain),
        }
    }

    /// NODATA / NXDOMAIN: SOA in the authority section, plus the covering
    /// NSEC proof when the client asked for DNSSEC.
    fn negative(&self, q: &FastQuery<'_>, rcode: Rcode) -> Plan<'a> {
        let dnssec = q.dnssec_ok();
        let nsec = if dnssec {
            self.index.covering_nsec(q.name_lc())
        } else {
            None
        };
        self.negative_with(rcode, dnssec, nsec)
    }

    /// Negative response with an explicitly chosen NSEC link (the answer
    /// cache precompiles one NXDOMAIN template per chain link).
    pub(crate) fn negative_with(
        &self,
        rcode: Rcode,
        dnssec: bool,
        nsec: Option<&'a RrsetEntry>,
    ) -> Plan<'a> {
        Plan {
            authority: [
                self.index.negative_authority(dnssec),
                nsec.map_or(&[], |nsec| nsec.section(true)),
            ],
            ..Plan::bare(rcode)
        }
    }

    /// Mirror the client's EDNS: advertise our payload size, echo DO, and
    /// answer an NSID request with the instance identity (RFC 5001).
    pub(crate) fn attach_edns(&self, q: &FastQuery<'_>, plan: &mut Plan<'a>) {
        if q.state == 0 {
            return;
        }
        let hostname = self.site.and_then(|site| site.hostname.as_deref());
        plan.opt = Some(Opt {
            dnssec_ok: q.dnssec_ok(),
            extended_rcode: u8::from(q.bad_version()),
            nsid: hostname.filter(|_| q.nsid).map(str::as_bytes),
        });
    }
}

/// Encode `plan`, the response to `q`, within `limit` bytes: records are
/// written section by section until one does not fit, which is cut off
/// with everything after it — opportunistic additionals go first, then
/// authority, then answers — and TC is set. The OPT pseudo-record survives
/// truncation (it carries the EDNS negotiation itself): its room is held
/// back from the start. A record is never split, so the result always
/// reparses with consistent section counts.
pub(crate) fn encode(plan: &Plan<'_>, q: &FastQuery<'_>, limit: usize, w: &mut WireWriter) {
    let flags = |truncated: bool| {
        let hi = 0x80
            | q.opcode << 3
            | u8::from(plan.authoritative) << 2
            | u8::from(truncated) << 1
            | u8::from(q.rd);
        u16::from_be_bytes([hi, plan.rcode.to_u8()])
    };
    w.put_u16(q.id);
    w.put_u16(flags(plan.truncated));
    w.put_u16(q.questions.map_or(1, |all| all.len() as u16));
    w.put_bytes(&[0; 6]); // the record counts, patched below
    match q.questions {
        None => {
            w.put_name_compressed(q.qname);
            w.put_u16(q.qtype);
            w.put_u16(q.class);
        }
        Some(questions) => {
            for question in questions {
                question.name.write_wire_compressed(w);
                w.put_u16(question.rr_type.to_u16());
                w.put_u16(question.class.to_u16());
            }
        }
    }
    let room = limit.saturating_sub(plan.opt.map_or(0, |opt| opt.wire_len()));
    let sections = [[plan.answers, &[]], plan.authority, [plan.additional, &[]]];
    let mut counts = [0u16; 3];
    'records: for (section, count) in sections.iter().zip(&mut counts) {
        for rec in section.iter().copied().flatten() {
            let boundary = w.len();
            rec.write_wire(w);
            if w.len() > room {
                w.truncate(boundary);
                w.patch_u16(2, flags(true));
                break 'records;
            }
            *count += 1;
        }
    }
    if let Some(opt) = plan.opt {
        opt.write(w);
        counts[2] += 1;
    }
    for (i, count) in counts.into_iter().enumerate() {
        w.patch_u16(6 + 2 * i, count);
    }
}

/// [`encode`] into `out`, reusing its allocation (the buffer is cleared
/// first).
pub(crate) fn encode_into(plan: &Plan<'_>, q: &FastQuery<'_>, limit: usize, out: &mut Vec<u8>) {
    let mut w = WireWriter::with_buffer(std::mem::take(out));
    encode(plan, q, limit, &mut w);
    *out = w.into_bytes();
}
