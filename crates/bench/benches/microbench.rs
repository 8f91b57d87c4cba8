//! Microbenchmarks for the protocol substrates: SHA-2 throughput, wire
//! codec, ZONEMD digesting, signing, AXFR framing and route propagation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dns_crypto::{Sha256, Sha384};
use dns_wire::{Message, Name, Question, RrType};
use dns_zone::axfr::{assemble_axfr, serve_axfr};
use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
use dns_zone::signer::{sign_zone, SigningConfig, ZoneKeys};
use dns_zone::zonemd::compute_zonemd;
use netsim::routing::propagate;
use netsim::{Family, Topology, TopologyConfig};
use rss::catalog::{RootCatalog, WorldConfig};
use rss::RootLetter;
use std::hint::black_box;

fn bench_sha(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha2");
    for size in [64usize, 4096, 65536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| black_box(Sha256::digest(d)))
        });
        group.bench_with_input(BenchmarkId::new("sha384", size), &data, |b, d| {
            b.iter(|| black_box(Sha384::digest(d)))
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let zone = build_root_zone(
        &RootZoneConfig {
            tld_count: 25,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        },
        &ZoneKeys::from_seed(1),
    );
    let msgs = serve_axfr(&zone, 1, 100).unwrap();
    let msg = &msgs[0];
    let wire = msg.to_wire();
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("encode_axfr_message", |b| {
        b.iter(|| black_box(msg.to_wire()))
    });
    group.bench_function("decode_axfr_message", |b| {
        b.iter(|| black_box(Message::from_wire(&wire).unwrap()))
    });
    let q = Message::query(1, Question::new(Name::root(), RrType::Soa));
    group.bench_function("encode_query", |b| b.iter(|| black_box(q.to_wire())));
    group.finish();
}

fn bench_zone_ops(c: &mut Criterion) {
    let keys = ZoneKeys::from_seed(2);
    let cfg = RootZoneConfig {
        tld_count: 50,
        rollout: RolloutPhase::Validating,
        ..Default::default()
    };
    let zone = build_root_zone(&cfg, &keys);
    let mut group = c.benchmark_group("zone");
    group.sample_size(20);
    group.bench_function("build_signed_zone_50tlds", |b| {
        b.iter(|| black_box(build_root_zone(&cfg, &keys)))
    });
    group.bench_function("zonemd_sha384", |b| {
        b.iter(|| black_box(compute_zonemd(&zone, dns_crypto::DigestAlg::Sha384).unwrap()))
    });
    group.bench_function("resign_zone", |b| {
        b.iter_batched(
            || zone.clone(),
            |mut z| {
                sign_zone(
                    &mut z,
                    &keys,
                    &SigningConfig {
                        inception: 1,
                        expiration: 2,
                        dnskey_ttl: 172800,
                        nsec_ttl: 86400,
                    },
                );
                black_box(z)
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("axfr_serve_and_assemble", |b| {
        b.iter(|| {
            let msgs = serve_axfr(&zone, 1, 100).unwrap();
            black_box(assemble_axfr(&msgs, &Name::root()).unwrap())
        })
    });
    group.finish();
}

fn bench_tcp_framing(c: &mut Criterion) {
    let zone = build_root_zone(
        &RootZoneConfig {
            tld_count: 25,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        },
        &ZoneKeys::from_seed(3),
    );
    let msgs = serve_axfr(&zone, 1, 100).unwrap();
    let stream = dns_wire::tcp::frame_stream(&msgs).unwrap();
    let mut group = c.benchmark_group("tcp");
    group.throughput(Throughput::Bytes(stream.len() as u64));
    group.bench_function("frame_axfr_stream", |b| {
        b.iter(|| black_box(dns_wire::tcp::frame_stream(&msgs).unwrap()))
    });
    group.bench_function("deframe_axfr_stream", |b| {
        b.iter(|| black_box(dns_wire::tcp::deframe_stream(&stream).unwrap()))
    });
    group.finish();
}

/// One strict refresh from an empty local root: SOA poll, AXFR, ZONEMD and
/// RRSIG validation, and the build of the engine that serves the
/// activated copy. The upstream's engine is built once, outside the loop.
fn bench_localroot_refresh(c: &mut Criterion) {
    use localroot::{upstream_transport, LocalRoot, ValidationPolicy};
    use std::sync::Arc;
    let inception = 1_701_820_800;
    let zone = build_root_zone(
        &RootZoneConfig {
            serial: 2023120600,
            tld_count: 25,
            inception,
            expiration: inception + 14 * 86400,
            rollout: RolloutPhase::Validating,
        },
        &ZoneKeys::from_seed(4),
    );
    let mut upstreams = vec![(
        RootLetter::A,
        upstream_transport(RootLetter::A, None, Arc::new(zone)),
    )];
    let mut group = c.benchmark_group("localroot");
    group.sample_size(20);
    group.bench_function("refresh_transfer_validate", |b| {
        b.iter(|| {
            let mut lr = LocalRoot::new(ValidationPolicy::strict());
            black_box(lr.refresh_wire(&mut upstreams, inception + 60).unwrap())
        })
    });
    group.finish();
}

fn bench_rng_derivation(c: &mut Criterion) {
    // The per-probe stream derivation is the innermost loop of the whole
    // measurement (VPs × targets × families × rounds ≈ 10^8 at paper
    // scale). Contrast the old string-context path — which allocated and
    // formatted a key per probe — with the integer-tuple derivation the
    // engine now uses.
    use netsim::SimRng;
    let root = SimRng::new(42).derive("measurement");
    let mut group = c.benchmark_group("rng_derivation");
    group.bench_function("derive_format_string", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let mut rng = root.derive(&format!("probe/{}/{}/{}/{}", i % 675, i % 14, i % 2, i));
            black_box(rng.next_u64())
        })
    });
    group.bench_function("derive_ids", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let mut rng = root.derive_ids(&[i % 675, i % 14, i % 2, i]);
            black_box(rng.next_u64())
        })
    });
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut topology = Topology::generate(&TopologyConfig::default());
    let catalog = RootCatalog::build(&mut topology, &WorldConfig::default());
    let mut group = c.benchmark_group("routing");
    group.sample_size(10);
    for letter in [RootLetter::B, RootLetter::F] {
        let d = catalog.deployment(letter);
        group.bench_function(format!("propagate_{}_v4", letter.ch()), |b| {
            b.iter(|| black_box(propagate(&topology, d, Family::V4)))
        });
    }
    group.finish();
}

criterion_group!(
    micro,
    bench_sha,
    bench_codec,
    bench_zone_ops,
    bench_tcp_framing,
    bench_localroot_refresh,
    bench_rng_derivation,
    bench_routing
);
criterion_main!(micro);
