//! Wire-level RRL behavior: a slipped TC=1 response must drive the
//! stub's TCP-fallback retry, and the TCP answer must be the full,
//! DNSSEC-validatable response — rate limiting degrades the *transport*,
//! never the *data* a validating client ends up with. And the attack
//! demo's invariants (`examples/attack_report` renders the same run).

use dns_crypto::SimKeyPair;
use dns_wire::edns::{set_edns, Edns};
use dns_wire::rdata::Rdata;
use dns_wire::{Message, Name, Question, Record, RrType};
use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
use dns_zone::signer::{verify_signature, ZoneKeys};
use rootd::{Rootd, RrlConfig, ServeVerdict, SiteIdentity, ZoneIndex};
use roots_core::{AttackRun, Scale};
use rss::RootLetter;
use std::sync::Arc;

fn engines() -> (Rootd, Rootd) {
    let zone = Arc::new(build_root_zone(
        &RootZoneConfig {
            tld_count: 10,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        },
        &ZoneKeys::from_seed(5),
    ));
    let index = Arc::new(ZoneIndex::build(zone));
    let limited =
        Rootd::new(Arc::clone(&index), SiteIdentity::named("lax1r")).with_rrl(RrlConfig {
            responses_limit: 2,
            slip: 2,
            ..Default::default()
        });
    let unlimited = Rootd::new(index, SiteIdentity::named("lax1r"));
    (limited, unlimited)
}

#[test]
fn slipped_tc_response_recovers_the_validated_answer_over_tcp() {
    let (limited, unlimited) = engines();
    let mut q = Message::query(4660, Question::new(Name::root(), RrType::Dnskey));
    set_edns(&mut q, &Edns::dnssec());
    let wire = q.to_wire();

    // Hammer one source inside one window until the limiter slips.
    let mut out = Vec::new();
    let mut slipped_at = None;
    for i in 0..10u64 {
        match limited.serve_udp_from(7, i, &wire, &mut out) {
            ServeVerdict::Slipped => {
                slipped_at = Some(i);
                break;
            }
            ServeVerdict::Answered(_) => {}
            v => panic!("unexpected verdict before the first slip: {v:?}"),
        }
    }
    assert_eq!(slipped_at, Some(2), "budget of 2, then the first slip");

    // The slip is the minimal TC=1 nudge: id echoed, question echoed,
    // no records at all — nothing a validator could mistake for data.
    let slip = Message::from_wire(&out).expect("slip parses");
    assert_eq!(slip.header.id, 4660);
    assert!(slip.header.flags.truncated);
    assert!(slip.header.flags.authoritative);
    assert_eq!(slip.questions, q.questions);
    assert!(slip.answers.is_empty());
    assert!(slip.authorities.is_empty());
    assert!(slip.additionals.is_empty());

    // The TC bit drives the stub to TCP, which RRL never limits — and
    // the limited engine's TCP bytes are the unlimited engine's bytes.
    let frames = limited.serve_tcp(&wire);
    assert_eq!(frames, unlimited.serve_tcp(&wire));
    let full = Message::from_wire(&frames[0]).expect("TCP answer parses");
    assert_eq!(full.header.id, 4660);
    assert!(!full.header.flags.truncated);
    assert!(full.header.flags.authoritative);

    // The recovered answer is complete and validates: the RRSIG over the
    // apex DNSKEY RRset verifies under the matching key in the answer.
    let dnskeys: Vec<Record> = full
        .answers
        .iter()
        .filter(|r| r.rr_type == RrType::Dnskey)
        .cloned()
        .collect();
    assert!(!dnskeys.is_empty(), "full answer carries the DNSKEY RRset");
    let sig = full
        .answers
        .iter()
        .find_map(|r| match &r.rdata {
            Rdata::Rrsig(s) if s.type_covered == RrType::Dnskey => Some(s.clone()),
            _ => None,
        })
        .expect("full answer carries the covering RRSIG");
    let key = dnskeys
        .iter()
        .find_map(|r| match &r.rdata {
            Rdata::Dnskey(k) if k.key_tag() == sig.key_tag => {
                SimKeyPair::from_public(&k.public_key)
            }
            _ => None,
        })
        .expect("signing key is present in the answer");
    assert!(
        verify_signature(&sig, &dnskeys, &key),
        "the TCP-recovered DNSKEY RRset validates"
    );

    // The slip consumed no answer budget beyond its cadence: the same
    // source keeps alternating slip/drop inside the window, while a
    // fresh source still gets its full budget.
    assert_eq!(
        limited.serve_udp_from(7, 3, &wire, &mut out),
        ServeVerdict::Limited
    );
    assert!(matches!(
        limited.serve_udp_from(8, 3, &wire, &mut out),
        ServeVerdict::Answered(_)
    ));
}

/// The demo attack scenario against b.root's rate-limited fleet: every
/// answer that got through matched the unlimited twin (each one compared
/// through `serve_udp_from`), every slip recovered over TCP, ≥ 99 % of
/// legitimate queries served through the floods — and the limiter really
/// engaged, and the run replays to the same fingerprint again and at
/// another worker count (window-chunk ownership makes the partitioning
/// invisible).
#[test]
fn attack_demo_holds_its_invariants_and_replays_identically() {
    let letter = RootLetter::B;
    let scenario = AttackRun::demo_scenario(Scale::Tiny, letter);
    let run = |threads| {
        AttackRun::run(
            Scale::Tiny,
            letter,
            &scenario,
            AttackRun::DEMO_DURATION_MS,
            threads,
        )
    };
    let a = run(2);
    assert_eq!(a.violations(), Vec::<String>::new());
    let rrl = &a.report.rrl;
    assert!(
        rrl.dropped > 0 && rrl.slipped > 0,
        "the limiter never engaged — the attack windows missed the run: {rrl:?}"
    );
    assert_eq!(a.fingerprint(), run(2).fingerprint(), "identical runs");
    assert_eq!(a.fingerprint(), run(5).fingerprint(), "2 vs 5 workers");
}
