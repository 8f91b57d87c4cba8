//! The serving-layer contract, end to end:
//!
//! 1. the in-proc and UDP/TCP loopback transports return **byte-identical**
//!    responses for the same query stream (the engine is deterministic and
//!    transports move raw bytes);
//! 2. the EDNS/TC matrix — a response larger than the advertised UDP
//!    payload size is truncated at a record boundary with TC set, and the
//!    same query over TCP yields the full, untruncated answer;
//! 3. the precompiled answer cache — cached responses are byte-identical
//!    to the fallback encode path across the whole matrix, and a zone
//!    reload (resign, or a scenario epoch boundary) bumps the cache
//!    generation and changes the served bytes in lockstep with an
//!    uncached engine.

use dns_wire::edns::{edns_of, set_edns, Edns};
use dns_wire::{Class, Message, Name, Question, Rcode, RrType};
use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
use dns_zone::signer::ZoneKeys;
use dns_zone::Zone;
use rootd::{
    InprocTransport, LoopbackServer, Rootd, ServeOutcome, SharedState, SiteIdentity, Transport,
    UdpBatch, ZoneIndex,
};
use std::sync::Arc;

fn test_zone(serial: u32) -> Arc<Zone> {
    Arc::new(build_root_zone(
        &RootZoneConfig {
            serial,
            tld_count: 20,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        },
        &ZoneKeys::from_seed(42),
    ))
}

fn engine_for(zone: Arc<Zone>) -> Rootd {
    Rootd::new(
        Arc::new(ZoneIndex::build(zone)),
        SiteIdentity::named("iad7b"),
    )
}

fn engine() -> Arc<Rootd> {
    Arc::new(engine_for(test_zone(2023112000)))
}

/// A deterministic stream exercising every answer shape: apex data,
/// referrals, NXDOMAIN, NODATA, CHAOS identity, DNSSEC on and off,
/// several payload sizes, and the oversized priming response.
fn query_stream() -> Vec<Vec<u8>> {
    let mut queries = Vec::new();
    let mut id: u16 = 1;
    let mut push = |q: Message| queries.push(q.to_wire());
    for (name, rr_type) in [
        (".", RrType::Soa),
        (".", RrType::Ns),
        (".", RrType::Dnskey),
        (".", RrType::Txt),
        ("com.", RrType::A),
        ("com.", RrType::Ds),
        ("www.net.", RrType::Aaaa),
        ("org.", RrType::Ns),
        ("nosuchtld0000.", RrType::A),
        ("nosuchtld0001.", RrType::Mx),
        ("ns0.com.", RrType::A),
    ] {
        for dnssec in [false, true] {
            let mut q = Message::query(id, Question::new(Name::parse(name).unwrap(), rr_type));
            id += 1;
            if dnssec {
                set_edns(&mut q, &Edns::dnssec());
            }
            push(q);
        }
    }
    for chaos in ["hostname.bind.", "id.server.", "version.bind.", "whoami."] {
        push(Message::query(
            id,
            Question::chaos_txt(Name::parse(chaos).unwrap()),
        ));
        id += 1;
    }
    // Payload-size spread over the big priming response.
    for payload in [512u16, 700, 1232, 4096] {
        let mut q = Message::query(id, Question::new(Name::root(), RrType::Ns));
        id += 1;
        set_edns(
            &mut q,
            &Edns {
                udp_payload_size: payload,
                dnssec_ok: true,
                ..Default::default()
            },
        );
        push(q);
    }
    // NSID request.
    let mut q = Message::query(id, Question::new(Name::root(), RrType::Soa));
    set_edns(&mut q, &Edns::dnssec().with_nsid_request());
    push(q);
    // An EDNS version the server does not speak: BADVERS.
    let mut q = Message::query(id + 1, Question::new(Name::root(), RrType::Soa));
    let edns = Edns {
        version: 1,
        ..Edns::dnssec()
    };
    set_edns(&mut q, &edns);
    push(q);
    queries
}

#[test]
fn inproc_and_loopback_transports_are_byte_identical() {
    let engine = engine();
    let server = LoopbackServer::spawn(Arc::clone(&engine)).expect("loopback binds");
    let mut inproc = InprocTransport::new(Arc::clone(&engine));
    let mut loopback = server.transport();
    for (i, wire) in query_stream().iter().enumerate() {
        let a = inproc.exchange_udp(wire).expect("in-proc never fails");
        let b = loopback.exchange_udp(wire).expect("loopback exchange");
        assert_eq!(a, b, "UDP response {i} differs between transports");
        let a = inproc.exchange_tcp(wire).expect("in-proc never fails");
        let b = loopback.exchange_tcp(wire).expect("loopback exchange");
        assert_eq!(a, b, "TCP response {i} differs between transports");
    }
}

#[test]
fn axfr_is_byte_identical_across_transports() {
    let engine = engine();
    let server = LoopbackServer::spawn(Arc::clone(&engine)).expect("loopback binds");
    let q = Message::query(77, Question::new(Name::root(), RrType::Axfr)).to_wire();
    let a = InprocTransport::new(Arc::clone(&engine))
        .exchange_tcp(&q)
        .unwrap();
    let b = server.transport().exchange_tcp(&q).unwrap();
    assert!(a.len() > 1, "AXFR streams multiple messages");
    assert_eq!(a, b);
}

#[test]
fn edns_tc_matrix() {
    let engine = engine();
    // The signed priming response overflows small budgets.
    let full_len = {
        let mut q = Message::query(0, Question::new(Name::root(), RrType::Ns));
        set_edns(&mut q, &Edns::dnssec());
        engine.serve_tcp(&q.to_wire())[0].len()
    };
    assert!(full_len > 512, "priming response is {full_len} bytes");

    for payload in [512u16, 700, 1232, 4096] {
        let mut q = Message::query(9, Question::new(Name::root(), RrType::Ns));
        set_edns(
            &mut q,
            &Edns {
                udp_payload_size: payload,
                dnssec_ok: true,
                ..Default::default()
            },
        );
        let wire = q.to_wire();
        let udp = engine.serve_udp(&wire).expect("answered");
        let limit = payload as usize;
        assert!(
            udp.len() <= limit,
            "udp response {} exceeds advertised {}",
            udp.len(),
            limit
        );
        // Record-boundary truncation: the datagram must still parse, with
        // section counts consistent with its contents.
        let parsed = Message::from_wire(&udp).expect("truncated response reparses");
        assert_eq!(parsed.header.rcode, Rcode::NoError);
        if (full_len) > limit {
            assert!(parsed.header.flags.truncated, "TC unset at {payload}");
        } else {
            assert!(!parsed.header.flags.truncated, "TC set at {payload}");
            assert_eq!(udp.len(), full_len);
        }
        // EDNS survives truncation: the OPT record is never dropped.
        assert!(edns_of(&parsed).is_some(), "OPT dropped at {payload}");

        // The TCP retry returns the complete answer.
        let tcp = engine.serve_tcp(&wire);
        assert_eq!(tcp.len(), 1);
        let full = Message::from_wire(&tcp[0]).expect("tcp response parses");
        assert!(!full.header.flags.truncated);
        assert_eq!(tcp[0].len(), full_len);
        assert_eq!(
            full.answers
                .iter()
                .filter(|r| r.rr_type == RrType::Ns)
                .count(),
            13
        );
        assert!(full.answers.iter().any(|r| r.rr_type == RrType::Rrsig));
        assert!(full.additionals.iter().any(|r| r.rr_type == RrType::Aaaa));
    }
}

/// Serve `wire` through both engines and assert the bytes agree; returns
/// whether the cached engine answered from the precompiled cache.
fn assert_cache_agrees(cached: &Rootd, plain: &Rootd, wire: &[u8], ctx: &str) -> bool {
    let expected = plain.serve_udp(wire);
    let mut out = Vec::new();
    match cached.serve_udp_into(wire, &mut out) {
        ServeOutcome::Dropped => {
            assert!(expected.is_none(), "{ctx}: cached dropped, plain answered");
            false
        }
        outcome => {
            assert_eq!(Some(out), expected, "{ctx}: cached bytes differ");
            outcome == ServeOutcome::CacheHit
        }
    }
}

#[test]
fn cached_responses_match_the_fallback_path_across_the_matrix() {
    let zone = test_zone(2023112000);
    let plain = engine_for(Arc::clone(&zone));
    let cached = engine_for(zone).with_answer_cache();
    assert!(cached.has_answer_cache() && !plain.has_answer_cache());

    let stream = query_stream();
    let hits = stream
        .iter()
        .enumerate()
        .filter(|(i, wire)| assert_cache_agrees(&cached, &plain, wire, &format!("query {i}")))
        .count();
    // Most of the matrix is servable from the cache; only the shapes the
    // fast path cannot prove (odd payload budgets, NSID, sub-delegation
    // names, unknown CHAOS names) fall back.
    assert!(
        hits * 2 > stream.len(),
        "only {hits}/{} queries hit the cache",
        stream.len()
    );
}

/// The qtypes of the answer matrix: the thirteen the cache precompiles and
/// three it does not.
const MATRIX_QTYPES: [RrType; 16] = [
    RrType::A,
    RrType::Ns,
    RrType::Cname,
    RrType::Soa,
    RrType::Mx,
    RrType::Txt,
    RrType::Aaaa,
    RrType::Ds,
    RrType::Rrsig,
    RrType::Nsec,
    RrType::Dnskey,
    RrType::Zonemd,
    RrType::Any,
    RrType::Other(65), // HTTPS
    RrType::Other(33), // SRV
    RrType::Other(12), // PTR
];

fn matrix_config(serial: u32) -> RootZoneConfig {
    RootZoneConfig {
        serial,
        tld_count: 40,
        rollout: RolloutPhase::Validating,
        ..Default::default()
    }
}

fn matrix_zone(serial: u32) -> Arc<Zone> {
    Arc::new(build_root_zone(
        &matrix_config(serial),
        &ZoneKeys::from_seed(42),
    ))
}

/// A one-letter farm over `zone`, and the id of its first site.
fn matrix_farm(zone: Arc<Zone>) -> (rootd::Farm, u32) {
    let world = vantage::World::build(&vantage::WorldBuildConfig::tiny());
    let letter = rss::RootLetter::A;
    let farm = rootd::Farm::build(&world.topology, &world.catalog, zone, &[letter], 1);
    let site = farm.deployment(letter).unwrap().sites[0].id.0;
    (farm, site)
}

/// The answer matrix over `names`: every name, as the zone spells it and
/// in mixed case, × [`MATRIX_QTYPES`] × no EDNS and four advertised
/// payloads (bucket and not) with DO clear and set × RD clear and set.
/// Each request comes with a label for failure messages.
fn shape_matrix(names: &[Name]) -> Vec<(String, Vec<u8>)> {
    // None = no EDNS; otherwise (advertised payload, DO).
    let mut edns_states = vec![None];
    for payload in [512u16, 600, 1232, 4096] {
        edns_states.extend([Some((payload, false)), Some((payload, true))]);
    }
    let mixed_case = |name: &Name| {
        let labels = name.labels().map(|l| {
            let flip = |(i, b): (usize, &u8)| match i % 2 {
                0 => b.to_ascii_uppercase(),
                _ => *b,
            };
            l.iter().enumerate().map(flip).collect::<Vec<u8>>()
        });
        Name::from_labels(labels).unwrap()
    };
    let mut matrix = Vec::new();
    for name in names {
        for qname in [name.clone(), mixed_case(name)] {
            for qtype in MATRIX_QTYPES {
                for edns in &edns_states {
                    for rd in [false, true] {
                        let mut q = Message::query(0xa5a5, Question::new(qname.clone(), qtype));
                        q.header.flags.recursion_desired = rd;
                        if let &Some((udp_payload_size, dnssec_ok)) = edns {
                            let edns = Edns {
                                udp_payload_size,
                                dnssec_ok,
                                ..Default::default()
                            };
                            set_edns(&mut q, &edns);
                        }
                        let label = format!("{qname} {qtype:?} {edns:?} rd={rd}");
                        matrix.push((label, q.to_wire()));
                    }
                }
            }
        }
    }
    matrix
}

/// The differential oracle for the answer cache's shared sets: every name
/// of a zone × every cached qtype and three uncached ones × every EDNS
/// state and budget (bucket and not) × qname casing × RD, served by a farm
/// engine from the cache and by an uncached twin — before and after a
/// `Farm::reload_letter` swaps in a second epoch — with the cache's hits
/// counted exactly for the owners at or above the cuts and for the glue
/// owners below them, which take the fallback.
#[test]
fn every_shape_at_every_name_matches_the_uncached_twin_across_a_farm_reload() {
    let epochs = [matrix_zone(2023112000), matrix_zone(2023112100)];
    let letter = rss::RootLetter::A;
    let (farm, site) = matrix_farm(Arc::clone(&epochs[0]));
    let cached = farm.engine_at(letter, site).unwrap();
    let plain = engine_for(Arc::clone(&epochs[0]));

    for (epoch, zone) in epochs.iter().enumerate() {
        if epoch > 0 {
            let now = matrix_config(0).inception + 3600;
            assert_eq!(
                farm.reload_letter(letter, Arc::clone(zone), now),
                Ok(epoch as u64)
            );
            plain.reload(Arc::clone(zone));
        }
        let names = zone.owner_names();
        assert_eq!(names.len(), 1 + 13 + 40 * 3);
        let (below, above): (Vec<Name>, Vec<Name>) =
            names.into_iter().partition(|name| below_a_cut(zone, name));
        assert_eq!((above.len(), below.len()), (1 + 40, 13 + 40 * 2));
        let hits = [above, below].map(|names| {
            let matrix = shape_matrix(&names);
            let hits = matrix.iter().filter(|(label, wire)| {
                assert_cache_agrees(cached, &plain, wire, &format!("epoch {epoch} {label}"))
            });
            hits.count()
        });
        // At and above the cuts every shape of the thirteen cached qtypes
        // hits — 41 names, each in two casings, with RD clear and set, in
        // nine EDNS states — but the priming NS at a payload of 600, which
        // it overflows with DO clear and set; below them every shape falls
        // back.
        let above = 41 * 2 * 2 * 13 * 9 - 2 * 2 * 2;
        assert_eq!(hits, [above, 0], "epoch {epoch}");
    }
}

/// Whether `name` lies strictly below one of `zone`'s delegations, read off
/// the zone's records: the root zone delegates only TLDs, so a name of two
/// labels or more whose TLD owns an NS RRset.
fn below_a_cut(zone: &Zone, name: &Name) -> bool {
    let Some(tld) = name.labels().last() else {
        return false;
    };
    let delegated = |r: &dns_wire::Record| {
        r.rr_type == RrType::Ns
            && r.name.label_count() == 1
            && r.name.labels().all(|label| label.eq_ignore_ascii_case(tld))
    };
    name.label_count() > 1 && zone.records().iter().any(delegated)
}

/// Datagrams no engine parses as a query, one per `pick`: shorter than a
/// header (dropped), empty (dropped), a header claiming a question that
/// is not there (FORMERR), a stray response (dropped), and `valid` cut off
/// inside its question (FORMERR).
fn malformed(pick: u64, valid: &[u8]) -> Vec<u8> {
    match pick % 5 {
        0 => vec![0xab; 5],
        1 => Vec::new(),
        2 => {
            let mut junk = vec![0xde, 0xad, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
            junk.extend_from_slice(&[0xff, 0xff, 0xff]);
            junk
        }
        3 => {
            let mut stray = valid.to_vec();
            stray[2] |= 0x80;
            stray
        }
        _ => valid[..14.min(valid.len())].to_vec(),
    }
}

/// The batch path against the one-shot path: the whole answer matrix, the
/// CHAOS / NSID / BADVERS stream behind it and malformed datagrams at
/// seeded positions between them, pushed through `serve_udp_batch` in
/// slabs of 1, 2, 31, 32 and 33 on one reused `UdpBatch`. Response `i` of
/// every slab must be byte-equal to a one-shot `serve_udp_into` of request
/// `i` — `None` exactly where the one-shot drops, whatever its neighbours
/// in the slab were — and the tally must count the one-shot outcomes.
#[test]
fn batched_serves_match_one_shot_serves_across_the_matrix() {
    let zone = matrix_zone(2023112000);
    let (farm, site) = matrix_farm(Arc::clone(&zone));
    let engine = farm.engine_at(rss::RootLetter::A, site).unwrap();

    // One datagram in eight is malformed (splitmix64 of its position).
    let draw = |at: usize| {
        let mut z = (at as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut stream: Vec<(String, Vec<u8>)> = Vec::new();
    let valid = shape_matrix(&zone.owner_names()).into_iter().chain(
        query_stream()
            .into_iter()
            .map(|wire| ("stream".into(), wire)),
    );
    for (label, wire) in valid {
        let coin = draw(stream.len());
        if coin % 8 == 0 {
            stream.push((
                format!("malformed before {label}"),
                malformed(coin >> 3, &wire),
            ));
        }
        stream.push((label, wire));
    }
    let malformed_count = stream
        .iter()
        .filter(|(l, _)| l.starts_with("malformed"))
        .count();
    assert!(stream.len() > 77_000 && malformed_count > 8_000);

    let mut batch = UdpBatch::new();
    let mut one_shot = Vec::new();
    for slab in [1usize, 2, 31, 32, 33] {
        let (mut dropped, mut lower, mut mixed) = (0usize, 0usize, 0usize);
        for (chunk_no, chunk) in stream.chunks(slab).enumerate() {
            batch.clear();
            for (_, wire) in chunk {
                batch.push_request(wire);
            }
            let tally = engine.serve_udp_batch(&mut batch);
            let mut expected = rootd::BatchTally::default();
            for (i, (label, wire)) in chunk.iter().enumerate() {
                let ctx = || format!("slab {slab}, chunk {chunk_no}, request {i}: {label}");
                let outcome = engine.serve_udp_into(wire, &mut one_shot);
                match outcome {
                    ServeOutcome::CacheHit => expected.hits += 1,
                    ServeOutcome::Fallback => expected.fallbacks += 1,
                    ServeOutcome::Dropped => expected.dropped += 1,
                }
                match batch.response(i) {
                    None => assert_eq!(outcome, ServeOutcome::Dropped, "{}", ctx()),
                    Some(resp) => {
                        assert_ne!(outcome, ServeOutcome::Dropped, "{}", ctx());
                        assert_eq!(resp, &one_shot[..], "{}", ctx());
                    }
                }
                if outcome == ServeOutcome::Dropped {
                    dropped += 1;
                } else if wire[12..].iter().any(u8::is_ascii_uppercase) {
                    mixed += 1;
                } else {
                    lower += 1;
                }
            }
            assert_eq!(tally, expected, "slab {slab}, chunk {chunk_no}");
        }
        // Every kind of neighbour occurred: drops inside slabs, and both
        // qname casings answered.
        assert!(dropped > 4_000 && lower > 30_000 && mixed > 30_000);
    }
}

#[test]
fn zone_resign_bumps_the_generation_and_the_served_bytes() {
    let cached = engine_for(test_zone(2023112000)).with_answer_cache();
    let plain = engine_for(test_zone(2023112000));
    assert_eq!(cached.generation(), 0);

    let mut q = Message::query(7, Question::new(Name::root(), RrType::Soa));
    set_edns(&mut q, &Edns::dnssec());
    let wire = q.to_wire();
    let before = cached.serve_udp(&wire).expect("answered");

    // Mid-session resign: a new serial re-signs the zone. Both engines
    // swap state; the cached one must also rebuild its precompiled
    // answers — a stale cache would keep serving the old serial.
    let resigned = test_zone(2023112100);
    cached.reload(Arc::clone(&resigned));
    plain.reload(resigned);
    assert_eq!(cached.generation(), 1);
    assert_eq!(cached.index().serial(), 2023112100);

    let mut out = Vec::new();
    assert_eq!(
        cached.serve_udp_into(&wire, &mut out),
        ServeOutcome::CacheHit
    );
    assert_ne!(out, before, "resigned SOA must serve new bytes");
    for (i, wire) in query_stream().iter().enumerate() {
        assert_cache_agrees(&cached, &plain, wire, &format!("post-resign query {i}"));
    }
}

#[test]
fn scenario_epochs_swap_the_cache_and_stay_byte_identical() {
    let mut world = vantage::World::build(&vantage::WorldBuildConfig::tiny());
    let scenario = scenario::catalog::broot_renumbering();
    let engine = scenario::ScenarioEngine::new(scenario::ScenarioConfig::default());
    let epochs = engine.epoch_zones(&mut world, &scenario);
    assert!(epochs.len() >= 2, "renumbering cuts the timeline");
    assert!(epochs[0].active.is_empty() && !epochs[1].active.is_empty());

    let cached = engine_for(Arc::clone(&epochs[0].zone)).with_answer_cache();
    let plain = engine_for(Arc::clone(&epochs[0].zone));
    let stream = query_stream();
    let mut serials = Vec::new();
    for (i, epoch) in epochs.iter().enumerate() {
        if i > 0 {
            cached.reload(Arc::clone(&epoch.zone));
            plain.reload(Arc::clone(&epoch.zone));
        }
        assert_eq!(cached.generation(), i as u64, "one swap per epoch");
        serials.push(cached.index().serial());
        for (j, wire) in stream.iter().enumerate() {
            assert_cache_agrees(&cached, &plain, wire, &format!("epoch {i} query {j}"));
        }
    }
    // The epochs publish different zone days, so the cache demonstrably
    // changed its answers mid-session rather than serving one build.
    serials.dedup();
    assert!(
        serials.len() >= 2,
        "epoch zones share a serial: {serials:?}"
    );
}

#[test]
fn no_edns_means_512_and_tc() {
    let engine = engine();
    let q = Message::query(5, Question::new(Name::root(), RrType::Ns)).to_wire();
    let udp = engine.serve_udp(&q).expect("answered");
    assert!(udp.len() <= 512);
    let parsed = Message::from_wire(&udp).unwrap();
    // The plain (unsigned) priming response with glue still overflows 512:
    // 13 NS + 13 A + 13 AAAA.
    assert!(parsed.header.flags.truncated);
    // And no OPT appears in the response when the query had none.
    assert!(edns_of(&parsed).is_none());
}

/// The CHAOS identity names every engine answers (`rootd::answer`).
const CHAOS_NAMES: [&str; 4] = [
    "hostname.bind.",
    "id.server.",
    "version.bind.",
    "version.server.",
];

/// TXT queries at each identity name and at a zone name (`com.`), in the
/// IN and CH classes, with DO off and on.
fn txt_in_both_classes() -> Vec<(String, Class, Vec<u8>)> {
    let mut queries = Vec::new();
    for name in CHAOS_NAMES.iter().chain(&["com."]) {
        for class in [Class::In, Class::Ch] {
            for dnssec in [false, true] {
                let question = Question {
                    name: Name::parse(name).unwrap(),
                    rr_type: RrType::Txt,
                    class,
                };
                let mut q = Message::query(0x5a5a, question);
                if dnssec {
                    set_edns(&mut q, &Edns::dnssec());
                }
                queries.push((name.to_string(), class, q.to_wire()));
            }
        }
    }
    queries
}

/// One identity, three engine shapes: a standalone cached engine, a farm
/// site engine over a `SharedState` and an uncached `Rootd::new` answer
/// the query stream and TXT in both classes at every identity name and at
/// a zone name byte for byte, before and after a reload; a reload keeps
/// each engine cached or uncached as it was. The two cached shapes serve
/// every query from the same path: an IN query at an identity name is the
/// zone's NXDOMAIN, a template hit on both.
#[test]
fn the_three_engine_shapes_answer_alike_across_a_reload() {
    let index = Arc::new(ZoneIndex::build(test_zone(2023112000)));
    let identity = || SiteIdentity::named("iad7b");
    let plain = Rootd::new(Arc::clone(&index), identity());
    let cached = Rootd::new(Arc::clone(&index), identity()).with_answer_cache();
    let shared = SharedState::build(index);
    let sharer = Rootd::with_shared_state(&shared, identity());
    let mut queries: Vec<_> = (query_stream().into_iter())
        .enumerate()
        .map(|(i, wire)| (format!("query {i}"), Class::In, wire))
        .collect();
    queries.extend(txt_in_both_classes());

    for epoch in 0..2 {
        if epoch == 1 {
            let resigned = test_zone(2023112001);
            for engine in [&plain, &cached, &sharer] {
                assert_eq!(engine.reload(Arc::clone(&resigned)), 1);
            }
        }
        assert!(!plain.has_answer_cache(), "epoch {epoch}");
        assert!(cached.has_answer_cache() && sharer.has_answer_cache());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for (what, class, wire) in &queries {
            let ctx = format!("epoch {epoch}, {what} {class:?}");
            let want = plain.serve_udp(wire);
            let on_cached = cached.serve_udp_into(wire, &mut a);
            let on_sharer = sharer.serve_udp_into(wire, &mut b);
            assert_eq!(on_cached, on_sharer, "{ctx}");
            if on_cached == ServeOutcome::Dropped {
                assert_eq!(want, None, "{ctx}");
                continue;
            }
            assert_eq!(Some(&a), want.as_ref(), "{ctx}: standalone cached bytes");
            assert_eq!(Some(&b), want.as_ref(), "{ctx}: shared-state bytes");
            if CHAOS_NAMES.contains(&what.as_str()) {
                assert_eq!(on_cached, ServeOutcome::CacheHit, "{ctx}");
            }
        }
    }
}
