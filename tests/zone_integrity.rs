//! Zone-integrity integration: zones built by `dns-zone` travel through
//! real wire-format AXFR messages (`dns-wire`) and come out byte-exact,
//! validating at every stage; every Table 2 fault class is reproducible end
//! to end.

use dns_crypto::DigestAlg;
use dns_wire::{Message, Name};
use dns_zone::axfr::{assemble_axfr, serve_axfr};
use dns_zone::corrupt::{flip_owner_label_bit, flip_rrsig_bit};
use dns_zone::masterfile::{parse_master_file, to_master_file};
use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
use dns_zone::signer::ZoneKeys;
use dns_zone::validate::{validate_zone, ValidationIssue};
use dns_zone::zonemd::{compute_zonemd, verify_zonemd};

fn zone_config() -> RootZoneConfig {
    RootZoneConfig {
        serial: 2023120600,
        tld_count: 30,
        inception: 1_701_820_800,
        expiration: 1_701_820_800 + 14 * 86400,
        rollout: RolloutPhase::Validating,
    }
}

#[test]
fn zone_survives_wire_axfr_and_validates() {
    let keys = ZoneKeys::from_seed(9);
    let zone = build_root_zone(&zone_config(), &keys);
    // Serve as messages, encode each to wire bytes, decode, reassemble.
    let messages = serve_axfr(&zone, 0xbeef, 64).unwrap();
    let wire_bytes: Vec<Vec<u8>> = messages.iter().map(|m| m.to_wire()).collect();
    let decoded: Vec<Message> = wire_bytes
        .iter()
        .map(|b| Message::from_wire(b).expect("decodes"))
        .collect();
    let received = assemble_axfr(&decoded, &Name::root()).unwrap();
    assert_eq!(verify_zonemd(&received), Ok(()));
    let report = validate_zone(&received, zone_config().inception + 60);
    assert!(report.is_valid(), "{:?}", report.issues);
    // Digest identical to the original zone's.
    assert_eq!(
        compute_zonemd(&zone, DigestAlg::Sha384).unwrap(),
        compute_zonemd(&received, DigestAlg::Sha384).unwrap()
    );
}

#[test]
fn zone_survives_master_file_round_trip() {
    let keys = ZoneKeys::from_seed(10);
    let zone = build_root_zone(&zone_config(), &keys);
    let text = to_master_file(&zone);
    let parsed = parse_master_file(&text, &Name::root()).unwrap();
    assert_eq!(verify_zonemd(&parsed), Ok(()));
    assert!(validate_zone(&parsed, zone_config().inception + 60).is_valid());
}

#[test]
fn every_table2_fault_class_reproducible() {
    let keys = ZoneKeys::from_seed(11);
    let cfg = zone_config();
    let zone = build_root_zone(&cfg, &keys);

    // Bogus Signature via bitflip.
    let mut flipped = zone.clone();
    flip_rrsig_bit(&mut flipped, 3).unwrap();
    let report = validate_zone(&flipped, cfg.inception + 60);
    assert!(report
        .issues
        .iter()
        .any(|i| matches!(i, ValidationIssue::BogusSignature { .. })));

    // Bogus via owner-label bitflip (the `.ruhr` case).
    let mut label_flipped = zone.clone();
    flip_owner_label_bit(&mut label_flipped, 4).unwrap();
    assert!(verify_zonemd(&label_flipped).is_err());

    // Signature expired via stale copy.
    let report = validate_zone(&zone, cfg.expiration + 1);
    assert!(report
        .issues
        .iter()
        .any(|i| matches!(i, ValidationIssue::SignatureExpired { .. })));

    // Sig. not incepted via skewed clock.
    let report = validate_zone(&zone, cfg.inception - 1);
    assert!(report
        .issues
        .iter()
        .any(|i| matches!(i, ValidationIssue::SignatureNotIncepted { .. })));
}

#[test]
fn rollout_phases_validate_as_observed_by_the_paper() {
    // CZDS/IANA behaviour: records appear 2023-09-21, validate from
    // 2023-12-06 — i.e. phase decides verifiability, content is intact
    // throughout.
    let keys = ZoneKeys::from_seed(12);
    for (phase, expect_ok) in [
        (RolloutPhase::NoRecord, false),
        (RolloutPhase::PrivateAlgorithm, false),
        (RolloutPhase::Validating, true),
    ] {
        let zone = build_root_zone(
            &RootZoneConfig {
                rollout: phase,
                ..zone_config()
            },
            &keys,
        );
        assert_eq!(verify_zonemd(&zone).is_ok(), expect_ok, "{phase:?}");
        // RRSIGs are valid in *every* phase — ZONEMD is additive.
        assert!(validate_zone(&zone, zone_config().inception + 60).is_valid());
    }
}

/// Property: no single bitflip anywhere in a serialized AXFR stream can
/// yield an *accepted* zone copy that differs from the original. Every
/// flipped stream either fails to decode, fails to reassemble, fails
/// ZONEMD/RRSIG validation — or (for flips in wire bits that don't feed
/// the assembled records, e.g. header flags) assembles back to the
/// bit-identical zone. This is the data-plane half of the chaos
/// harness's "corrupt copies never activate" invariant.
mod bitflip_property {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn frames() -> &'static (Vec<Vec<u8>>, Vec<u8>) {
        static FRAMES: OnceLock<(Vec<Vec<u8>>, Vec<u8>)> = OnceLock::new();
        FRAMES.get_or_init(|| {
            let zone = build_root_zone(&zone_config(), &ZoneKeys::from_seed(14));
            let wire = serve_axfr(&zone, 0xf00d, 64)
                .unwrap()
                .iter()
                .map(|m| m.to_wire())
                .collect();
            let digest = compute_zonemd(&zone, DigestAlg::Sha384).unwrap();
            (wire, digest)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn bitflipped_axfr_never_activates_a_differing_zone(
            frame_sel in any::<usize>(),
            byte_sel in any::<usize>(),
            bit in 0u8..8,
        ) {
            let (wire, want_digest) = frames();
            let mut flipped: Vec<Vec<u8>> = wire.clone();
            let fi = frame_sel % flipped.len();
            let bi = byte_sel % flipped[fi].len();
            flipped[fi][bi] ^= 1 << bit;

            let decoded: Result<Vec<Message>, _> =
                flipped.iter().map(|b| Message::from_wire(b)).collect();
            let Ok(messages) = decoded else { return Ok(()) };
            let Ok(received) = assemble_axfr(&messages, &Name::root()) else {
                return Ok(());
            };
            if verify_zonemd(&received).is_err() {
                return Ok(());
            }
            if !validate_zone(&received, zone_config().inception + 60).is_valid() {
                return Ok(());
            }
            // The copy passed every gate the refresh client applies —
            // then it must be bit-identical to the original zone.
            prop_assert_eq!(
                &compute_zonemd(&received, DigestAlg::Sha384).unwrap(),
                want_digest
            );
        }
    }
}

/// An upstream root server's AXFR — a `rootd` engine's TCP frames, as the
/// local root's refresh client receives them — assembles into the zone it
/// serves.
#[test]
fn server_transfers_match_direct_transfers() {
    use dns_wire::{Question, RrType};
    use rootd::Transport;
    use rss::RootLetter;
    use std::sync::Arc;
    let keys = ZoneKeys::from_seed(13);
    let zone = Arc::new(build_root_zone(&zone_config(), &keys));
    let hostname = Some("ns1.fra.k.ripe.net".into());
    let mut server = localroot::upstream_transport(RootLetter::K, hostname, zone.clone());
    let axfr = Message::query(7, Question::new(Name::root(), RrType::Axfr));
    let messages: Vec<Message> = server
        .exchange_tcp(&axfr.to_wire())
        .unwrap()
        .iter()
        .map(|f| Message::from_wire(f).unwrap())
        .collect();
    let received = assemble_axfr(&messages, &Name::root()).unwrap();
    assert_eq!(
        compute_zonemd(&received, DigestAlg::Sha384).unwrap(),
        compute_zonemd(&zone, DigestAlg::Sha384).unwrap()
    );
}
