//! Wire-format interop: the measurement script's full query set, rendered
//! as real DNS messages under every EDNS state a vantage point sends,
//! answered by a `rootd` engine, decoded back — the Appendix F loop at the
//! protocol level.

use dns_wire::edns::{edns_of, set_edns, Edns};
use dns_wire::{Class, Message, Name, Question, Rcode, RrType};
use dns_zone::axfr::assemble_axfr;
use dns_zone::corrupt::flip_rrsig_bit;
use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
use dns_zone::signer::ZoneKeys;
use dns_zone::validate::validate_zone;
use dns_zone::zonemd::verify_zonemd;
use dns_zone::Zone;
use rootd::{Rootd, SiteIdentity, ZoneIndex};
use rss::RootLetter;
use std::sync::Arc;

const IDENTITY: &str = "ns1.fra.k.ripe.net";

fn engine_with(identity: SiteIdentity) -> Rootd {
    let zone = build_root_zone(
        &RootZoneConfig {
            tld_count: 12,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        },
        &ZoneKeys::from_seed(77),
    );
    Rootd::new(Arc::new(ZoneIndex::build(Arc::new(zone))), identity)
}

fn server() -> Rootd {
    engine_with(SiteIdentity::named(IDENTITY))
}

/// The per-IP query set from the measurement script (Appendix F).
fn script_queries() -> Vec<Question> {
    // ZONEMD, NS ., NS root-servers.net, SOA.
    let mut qs = vec![
        Question::new(Name::root(), RrType::Zonemd),
        Question::new(Name::root(), RrType::Ns),
        Question::new(Name::parse("root-servers.net.").unwrap(), RrType::Ns),
        Question::new(Name::root(), RrType::Soa),
    ];
    // CHAOS identity.
    for name in [
        "hostname.bind.",
        "id.server.",
        "version.bind.",
        "version.server.",
    ] {
        qs.push(Question::chaos_txt(Name::parse(name).unwrap()));
    }
    // A/AAAA/TXT for all 13 letters.
    for letter in RootLetter::ALL {
        let host = Name::parse(&letter.host_name()).unwrap();
        qs.push(Question::new(host.clone(), RrType::A));
        qs.push(Question::new(host.clone(), RrType::Aaaa));
        qs.push(Question::new(host, RrType::Txt));
    }
    qs
}

/// The EDNS states a query goes out in: none, EDNS (4 096-byte budget),
/// DO, and DO with an NSID request.
fn edns_states() -> [Option<Edns>; 4] {
    [
        None,
        Some(Edns::default()),
        Some(Edns::dnssec()),
        Some(Edns::dnssec().with_nsid_request()),
    ]
}

/// Every script query in every EDNS state, as `(query, response bytes)`:
/// the query encoded as a vantage point sends it, the response as the
/// engine's UDP path returns it.
fn exchanges(engine: &Rootd) -> Vec<(Message, Vec<u8>)> {
    let mut out = Vec::new();
    for edns in edns_states() {
        for (i, q) in script_queries().into_iter().enumerate() {
            let mut query = Message::query(i as u16, q);
            if let Some(edns) = &edns {
                set_edns(&mut query, edns);
            }
            let wire = engine.serve_udp(&query.to_wire()).expect("answered");
            out.push((query, wire));
        }
    }
    out
}

#[test]
fn script_query_set_has_47_queries() {
    // 4 zone queries + 4 CHAOS + 13×3 address/TXT = 47, matching the
    // paper's "47 queries to each root-server IP" (Appendix B).
    assert_eq!(script_queries().len(), 47);
}

#[test]
fn all_script_queries_answered_over_wire() {
    let all = exchanges(&server());
    assert_eq!(all.len(), 4 * 47);
    for (query, wire) in all {
        let decoded = Message::from_wire(&wire).unwrap();
        let q = &query.questions[0];
        assert_eq!(decoded.header.id, query.header.id);
        assert!(decoded.header.flags.response);
        assert_ne!(decoded.header.rcode, Rcode::ServFail, "{q:?} failed");
        // OPT only in answer to OPT; NSID only when asked for.
        let asked = edns_of(&query);
        let got = edns_of(&decoded);
        assert_eq!(asked.is_some(), got.is_some(), "{q:?}");
        if let (Some(asked), Some(got)) = (asked, got) {
            let want = asked.nsid_requested().then_some(IDENTITY.as_bytes());
            assert_eq!(got.nsid(), want, "{q:?}");
        }
    }
}

#[test]
fn identity_answers_are_chaos_class() {
    for (query, wire) in exchanges(&server()) {
        if query.questions[0].class != Class::Ch {
            continue;
        }
        let resp = Message::from_wire(&wire).unwrap();
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert!(!resp.answers.is_empty());
        assert!(resp.answers.iter().all(|r| r.class == Class::Ch));
    }
    // An instance that publishes no identity refuses to name itself.
    let anonymous = engine_with(SiteIdentity::default());
    for name in ["hostname.bind.", "id.server."] {
        let q = Message::query(1, Question::chaos_txt(Name::parse(name).unwrap()));
        let wire = anonymous.serve_udp(&q.to_wire()).unwrap();
        let resp = Message::from_wire(&wire).unwrap();
        assert_eq!(resp.header.rcode, Rcode::Refused, "{name}");
    }
}

#[test]
fn response_sizes_fit_udp_with_compression() {
    // At a 4 096-byte EDNS0 budget every script answer fits whole, thanks
    // to name compression: nothing is truncated.
    for (query, wire) in exchanges(&server()) {
        if edns_of(&query).is_none() {
            continue;
        }
        assert!(wire.len() < 4096, "{} bytes", wire.len());
        let resp = Message::from_wire(&wire).unwrap();
        assert!(!resp.header.flags.truncated, "{:?}", query.questions[0]);
    }
}

#[test]
fn compression_saves_space_on_ns_answers() {
    // The priming answer and every referral to root-servers.net repeat
    // that suffix per NS target: the engine's bytes undercut the same
    // message written uncompressed.
    let mut compared = 0;
    for (query, wire) in exchanges(&server()) {
        let resp = Message::from_wire(&wire).unwrap();
        let mut sections = resp.answers.iter().chain(&resp.authorities);
        if !sections.any(|r| r.rr_type == RrType::Ns) {
            continue;
        }
        let plain = resp.to_wire_uncompressed().len();
        assert!(wire.len() < plain, "{:?}", query.questions[0]);
        compared += 1;
    }
    // `. NS`, `root-servers.net. NS` and the 39 host queries, per state.
    assert_eq!(compared, 4 * 41);
}

/// Serve `zone` as a wire-level AXFR stream through a `rootd` engine and
/// reassemble it from the re-parsed frames — the full transfer loop a
/// local-root instance performs, at the byte level.
fn axfr_round_trip(zone: Zone) -> Zone {
    let engine = Rootd::new(
        Arc::new(ZoneIndex::build(Arc::new(zone))),
        SiteIdentity::named("fra1k"),
    )
    // A small batch forces a genuinely multi-message stream.
    .with_axfr_batch(25);
    let q = Message::query(0x5454, Question::new(Name::root(), RrType::Axfr));
    let frames = engine.serve_tcp(&q.to_wire());
    assert!(frames.len() > 1, "AXFR must span multiple messages");
    let messages: Vec<Message> = frames
        .iter()
        .map(|f| Message::from_wire(f).expect("AXFR frame reparses"))
        .collect();
    assemble_axfr(&messages, &Name::root()).expect("stream assembles")
}

#[test]
fn axfr_over_wire_round_trips_and_validates() {
    let cfg = RootZoneConfig {
        tld_count: 12,
        rollout: RolloutPhase::Validating,
        ..Default::default()
    };
    let zone = build_root_zone(&cfg, &ZoneKeys::from_seed(77));
    let expected_len = zone.len();
    let expected_serial = zone.serial().unwrap();

    let transferred = axfr_round_trip(zone);
    assert_eq!(transferred.len(), expected_len);
    assert_eq!(transferred.serial().unwrap(), expected_serial);
    verify_zonemd(&transferred).expect("ZONEMD survives the wire");
    let report = validate_zone(&transferred, cfg.inception + 86400);
    assert!(report.is_valid(), "issues: {:?}", report.issues);
}

#[test]
fn axfr_over_wire_rejects_bitflipped_zone() {
    let cfg = RootZoneConfig {
        tld_count: 12,
        rollout: RolloutPhase::Validating,
        ..Default::default()
    };
    let mut zone = build_root_zone(&cfg, &ZoneKeys::from_seed(77));
    flip_rrsig_bit(&mut zone, 9).expect("zone has an RRSIG to corrupt");

    // The wire layer moves the corrupted bytes faithfully; only validation
    // catches the damage (§7's bitflip case, now over a real transfer).
    let transferred = axfr_round_trip(zone);
    let report = validate_zone(&transferred, cfg.inception + 86400);
    assert!(!report.is_valid(), "bitflip must not validate");
}
