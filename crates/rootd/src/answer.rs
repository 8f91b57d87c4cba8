//! The answer logic, written once: a parsed request in, response bytes out.
//!
//! [`Answerer::answer`] resolves a [`FastQuery`] against the [`ZoneIndex`]
//! into a [`Plan`] — the response's header bits, the record runs of its
//! three sections borrowed from the index's arena (`crate::index`, "The
//! zone as wire"), and the OPT record to attach. Nothing is cloned and
//! nothing is allocated. [`encode`] writes a plan straight into the
//! caller's buffer in one pass — per record, the owner compressed and the
//! body copied — stopping at the last record that fits the budget. The
//! serve path runs the two per datagram; the answer cache runs the very
//! same two per shape at build time, which is why cached and uncached
//! responses are byte-identical by construction.

use crate::engine::SiteIdentity;
use crate::index::{Lookup, RrsetEntry, RunBuilder, WireRecords, ZoneIndex};
use crate::query::{FastQuery, MAX_UDP_PAYLOAD};
use dns_wire::edns::OPTION_NSID;
use dns_wire::rdata::Rdata;
use dns_wire::wire::WireWriter;
use dns_wire::{Class, Name, Rcode, Record, RrType};
use std::cell::RefCell;

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
    /// lowercase: one run of wire records, laid out as the index's.
    identity: Box<[u8]>,
}

impl SiteAnswers {
    pub(crate) fn new(site: &SiteIdentity) -> SiteAnswers {
        let (hostname, version) = (site.hostname.as_deref(), site.version.as_str());
        let texts = [hostname, hostname, Some(version), Some(version)];
        let mut identity = RunBuilder::new();
        for (owner, text) in CHAOS_NAMES.iter().zip(texts) {
            let Some(text) = text else {
                continue;
            };
            let owner = Name::parse(owner).expect("static chaos name");
            let text = Rdata::Txt(vec![text.as_bytes().to_vec()]);
            identity.push(&Record::chaos(owner, 0, text));
        }
        SiteAnswers {
            hostname: hostname.map(str::to_string),
            identity: identity.finish(),
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

/// One response, as references into the serving state: each section is
/// record runs as `crate::index::WireRecords` reads them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan<'a> {
    rcode: Rcode,
    authoritative: bool,
    /// TC set whatever fits (AXFR over UDP).
    truncated: bool,
    answers: &'a [u8],
    authority: [&'a [u8]; 2],
    additional: &'a [u8],
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

#[cfg(test)]
impl<'a> Plan<'a> {
    /// The identity-free response to `q` with these sections, its OPT
    /// record what [`Answerer::attach_edns`] attaches without a site: how
    /// `crate::oracle` answers from the index it keeps.
    pub(crate) fn with_sections(
        q: &FastQuery<'_>,
        rcode: Rcode,
        authoritative: bool,
        answers: &'a [u8],
        authority: [&'a [u8]; 2],
        additional: &'a [u8],
    ) -> Plan<'a> {
        let opt = (q.state != 0).then(|| Opt {
            dnssec_ok: q.dnssec_ok(),
            extended_rcode: u8::from(q.bad_version()),
            nsid: None,
        });
        Plan {
            rcode,
            authoritative,
            truncated: false,
            answers,
            authority,
            additional,
            opt,
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
        let identity = self.site.map_or(&[][..], |site| &site.identity[..]);
        let txt = WireRecords::new(identity)
            .find(|txt| q.qtype == RrType::Txt.to_u16() && txt.owner() == q.name_lc());
        match txt {
            // The owner is the question's name: on the wire, a pointer.
            Some(txt) => Plan {
                answers: txt.bytes(),
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
                    answers: self.index.wire(entry.section(dnssec)),
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
                authority: [self.index.wire(referral.authority.section(dnssec)), &[]],
                additional: self.index.wire(referral.glue),
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
                nsec.map_or(&[], |nsec| self.index.wire(nsec.section(true))),
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
///
/// A record is its owner, compressed by `WireWriter::put_name_compressed`,
/// and its body copied from the run: the bytes `Record::write_wire` writes,
/// since response RDATA is never compressed. An owner equal, byte for
/// byte, to the one before it in the section is written as a logged
/// pointer to where that one can be found — what `put_name_compressed`
/// would find, without the search (`WireWriter::put_name_compressed_at`).
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
        // The previous owner, and where a copy of it may point.
        let mut last: (&[u8], Option<u16>) = (&[], None);
        for rec in section.iter().flat_map(|run| WireRecords::new(run)) {
            let boundary = w.len();
            let owner = rec.owner();
            let target = match last {
                (prev, Some(target)) if prev == owner => {
                    w.put_name_pointer(target);
                    Some(target)
                }
                _ => w.put_name_compressed_at(owner),
            };
            last = (owner, target);
            w.put_bytes(rec.body());
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

thread_local! {
    /// The writer this thread's answers are encoded with, reset per answer
    /// rather than rebuilt: a new one fills its two inline tables anew.
    static WRITER: RefCell<WireWriter> = RefCell::new(WireWriter::with_buffer(Vec::new()));
}

/// [`encode`] into `out`, reusing its allocation (the buffer is cleared
/// first).
pub(crate) fn encode_into(plan: &Plan<'_>, q: &FastQuery<'_>, limit: usize, out: &mut Vec<u8>) {
    WRITER.with_borrow_mut(|w| {
        w.reset(std::mem::take(out));
        encode(plan, q, limit, w);
        *out = w.take_bytes();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::decode_run;
    use crate::query::MAX_QNAME;
    use dns_wire::edns::{set_edns, Edns};
    use dns_wire::{Message, Question};
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;
    use netsim::SimRng;
    use std::sync::Arc;

    /// The encoder the arena replaced, kept as the oracle: the plan's runs
    /// decoded back into the `Record`s they were encoded from, each
    /// written by `Record::write_wire`.
    fn reference_encode(plan: &Plan<'_>, q: &FastQuery<'_>, limit: usize, w: &mut WireWriter) {
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
        let records = |runs: &[&[u8]]| -> Vec<Record> {
            runs.iter().flat_map(|run| decode_run(run)).collect()
        };
        let sections = [
            records(&[plan.answers]),
            records(&plan.authority),
            records(&[plan.additional]),
        ];
        let mut counts = [0u16; 3];
        'records: for (section, count) in sections.iter().zip(&mut counts) {
            for rec in section {
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

    /// The qtypes asked: what the zone holds, what the answer cache skips
    /// (PTR, SRV, HTTPS) and ANY.
    const QTYPES: [u16; 16] = [1, 2, 5, 6, 12, 15, 16, 28, 33, 43, 46, 47, 48, 63, 65, 255];

    /// `name` with each letter's case drawn from `rng` (0x20 mixing).
    fn mixed_case(name: &Name, rng: &mut SimRng) -> Name {
        let mixed: String = (name.to_string().chars())
            .map(|c| match rng.next_u64() & 1 {
                0 => c.to_ascii_uppercase(),
                _ => c,
            })
            .collect();
        Name::parse(&mixed).expect("a name with its case changed")
    }

    /// Encode `msg`'s answer on `answerer` both ways, over UDP at its
    /// budget and over TCP; panic on the first byte apart. Returns how
    /// many responses were compared.
    fn compare(answerer: &Answerer<'_>, msg: &Message) -> usize {
        let wire = msg.to_wire();
        let (mut fast_lc, mut full_lc) = ([0; MAX_QNAME], [0; MAX_QNAME]);
        let q = FastQuery::parse(&wire, &mut fast_lc)
            .unwrap_or_else(|| FastQuery::from_message(msg, &mut full_lc));
        let mut out = Vec::new();
        for (udp, limit) in [(true, q.limit), (false, usize::MAX)] {
            let plan = answerer.answer(&q, udp);
            let (mut arena, mut reference) = (WireWriter::new(), WireWriter::new());
            encode(&plan, &q, limit, &mut arena);
            reference_encode(&plan, &q, limit, &mut reference);
            let question = &msg.questions[0];
            let what = || format!("{question:?} {limit} {:?}", msg.additionals);
            assert_eq!(arena.as_bytes(), reference.as_bytes(), "{}", what());
            assert_eq!(arena.pointers(), reference.pointers(), "{}", what());
            // And through the thread's reused writer.
            encode_into(&plan, &q, limit, &mut out);
            assert_eq!(out, reference.as_bytes(), "{}", what());
        }
        2
    }

    /// The arena encoder against the `Record`-walking one, byte for byte
    /// (and pointer log for pointer log), on a 40- and a 1 500-TLD zone:
    /// TLD, apex, below-cut and junk names, each also in mixed case, under
    /// 16 qtypes, without EDNS and with EDNS, DO or an NSID request at
    /// budgets 512 / 513 / 700 / 1232 / 4096, over UDP and TCP — plus the
    /// CHAOS identity names.
    #[test]
    fn arena_encode_matches_the_record_walking_reference() {
        for (tld_count, seed) in [(40, 0x2810), (1_500, 0x2815)] {
            let zone = build_root_zone(
                &RootZoneConfig {
                    tld_count,
                    rollout: RolloutPhase::Validating,
                    ..Default::default()
                },
                &ZoneKeys::from_seed(5),
            );
            let index = ZoneIndex::build(Arc::new(zone));
            let site = SiteAnswers::new(&SiteIdentity::named("lax2f"));
            let answerer = Answerer {
                index: &index,
                site: Some(&site),
            };
            let mut rng = SimRng::new(seed);
            let tlds = index.tld_labels();
            let mut names: Vec<String> = vec![".".into(), "com.".into(), "net.".into()];
            for _ in 0..5 {
                let tld = rng.pick(&tlds);
                names.push(format!("{tld}."));
                names.push(format!("www.{tld}."));
            }
            let tld = rng.pick(&tlds);
            names.extend([format!("ns0.{tld}."), format!("a.b.{tld}.")]);
            names.extend(["a.root-servers.net.".into(), "root-servers.net.".into()]);
            for _ in 0..3 {
                names.push(format!("nx{:012x}.", rng.next_u64() >> 16));
            }
            names.push(format!("junk{}.nosuchtld.", rng.next_range(1000)));
            let mut compared = 0;
            for name in &names {
                let name = Name::parse(name).unwrap();
                for name in [mixed_case(&name, &mut rng), name] {
                    for qtype in QTYPES {
                        let question = Question {
                            name: name.clone(),
                            rr_type: RrType::from_u16(qtype),
                            class: Class::In,
                        };
                        let plain = Message::query(rng.next_u64() as u16, question);
                        compared += compare(&answerer, &plain);
                        for (dnssec_ok, nsid) in [(false, false), (true, false), (true, true)] {
                            for payload in [512, 513, 700, 1232, 4096] {
                                let mut msg = plain.clone();
                                msg.header.flags.recursion_desired = rng.chance(0.5);
                                let edns = Edns {
                                    udp_payload_size: payload,
                                    dnssec_ok,
                                    ..Default::default()
                                };
                                let edns = if nsid { edns.with_nsid_request() } else { edns };
                                set_edns(&mut msg, &edns);
                                compared += compare(&answerer, &msg);
                            }
                        }
                    }
                }
            }
            for name in CHAOS_NAMES.iter().chain(&["whoami."]) {
                let name = Name::parse(name).unwrap();
                for name in [mixed_case(&name, &mut rng), name] {
                    for qtype in [RrType::Txt, RrType::A] {
                        let mut question = Question::chaos_txt(name.clone());
                        question.rr_type = qtype;
                        let mut msg = Message::query(9, question);
                        compared += compare(&answerer, &msg);
                        set_edns(&mut msg, &Edns::dnssec().with_nsid_request());
                        compared += compare(&answerer, &msg);
                    }
                }
            }
            assert_eq!(
                compared,
                2 * (names.len() * 2 * QTYPES.len() * 16 + 5 * 2 * 2 * 2)
            );
        }
    }
}
