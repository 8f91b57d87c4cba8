//! Counting-allocator proof that the serve paths are allocation-free once
//! warm — the precompiled cache's hits and the uncached parse → lookup →
//! encode path alike: single-shot `serve_udp_into`, the scratch-slab
//! `exchange_udp_into` transport path, and the batched `serve_udp_batch`
//! path must all run entirely inside pre-grown buffers — the last also
//! over a slab that mixes every kind of answer, where hits are appended to
//! the response slab in place and fallbacks reach it through the batch's
//! encode scratch.
//!
//! Lives in its own test binary, its tests taking turns, so no sibling
//! test thread can allocate concurrently and pollute the counter.

use dns_wire::edns::{set_edns, Edns};
use dns_wire::{Message, Name, Question, RrType};
use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
use dns_zone::signer::ZoneKeys;
use rootd::{
    InprocTransport, Rootd, ServeOutcome, SharedState, SiteIdentity, Transport, UdpBatch, ZoneIndex,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// System allocator with an allocation counter (dealloc is free to run:
/// only new/grown blocks indicate per-query allocation).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Held by each test while it runs: one counter, one counted thread.
static TURN: Mutex<()> = Mutex::new(());

/// A farm-style engine (shared zone cache, per-engine CHAOS shapes) over a
/// signed zone of `tld_count` TLDs.
fn engine(tld_count: usize) -> Arc<Rootd> {
    let zone = build_root_zone(
        &RootZoneConfig {
            tld_count,
            rollout: RolloutPhase::Validating,
            ..Default::default()
        },
        &ZoneKeys::from_seed(5),
    );
    let shared = SharedState::build(Arc::new(ZoneIndex::build(Arc::new(zone))));
    let identity = SiteIdentity::named("alloc-test");
    Arc::new(Rootd::with_shared_state(&shared, identity))
}

fn query(name: &str, rr_type: RrType, edns: Option<(u16, bool)>) -> Vec<u8> {
    let mut q = Message::query(31, Question::new(Name::parse(name).unwrap(), rr_type));
    if let Some((udp_payload_size, dnssec_ok)) = edns {
        let edns = Edns {
            udp_payload_size,
            dnssec_ok,
            ..Default::default()
        };
        set_edns(&mut q, &edns);
    }
    q.to_wire()
}

/// Queries whose answers the engine precompiles: apex RRsets (± DNSSEC),
/// a TLD referral, and a CHAOS identity probe.
fn cached_queries() -> Vec<Vec<u8>> {
    let mut queries = Vec::new();
    for (name, rr_type) in [
        (".", RrType::Soa),
        (".", RrType::Ns),
        (".", RrType::Dnskey),
        ("com.", RrType::A),
    ] {
        for dnssec in [false, true] {
            let mut q = Message::query(31, Question::new(Name::parse(name).unwrap(), rr_type));
            if dnssec {
                set_edns(&mut q, &Edns::dnssec());
            }
            queries.push(q.to_wire());
        }
    }
    queries.push(
        Message::query(32, Question::chaos_txt(Name::parse("id.server.").unwrap())).to_wire(),
    );
    queries
}

#[test]
fn warm_cached_serve_paths_do_not_allocate() {
    let _turn = TURN.lock().unwrap();
    let engine = engine(10);
    let queries = cached_queries();
    let mut resp = Vec::with_capacity(4096);
    let mut transport = InprocTransport::new(Arc::clone(&engine));
    let mut batch = UdpBatch::new();

    // Warm every path once: response buffers and batch slabs grow to
    // steady state, and every query is confirmed to hit the cache.
    for q in &queries {
        assert_eq!(engine.serve_udp_into(q, &mut resp), ServeOutcome::CacheHit);
        assert!(transport.exchange_udp_into(q, &mut resp).unwrap());
        batch.push_request(q);
    }
    let tally = engine.serve_udp_batch(&mut batch);
    assert_eq!(tally.hits, queries.len() as u64);
    batch.clear();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..50 {
        for q in &queries {
            engine.serve_udp_into(q, &mut resp);
            let _ = transport.exchange_udp_into(q, &mut resp);
        }
        for q in &queries {
            batch.push_request(q);
        }
        engine.serve_udp_batch(&mut batch);
        batch.clear();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm cached serve paths must not allocate"
    );
}

/// What the precompiled cache does not hold, per engine: uncached qtypes
/// at a cut (± DO), a name below a cut, NODATA at the apex, and a referral
/// that a 200-byte qname pushes past a 512-byte budget; and, where `net`
/// is not delegated, an NXDOMAIN whose NSEC owner compresses against the
/// question (the template declines those).
fn fallback_queries() -> [Vec<Vec<u8>>; 2] {
    let mut queries = Vec::new();
    for qtype in [65, 33, 12] {
        for edns in [None, Some((1232, false)), Some((1232, true))] {
            queries.push(query("com.", RrType::Other(qtype), edns));
        }
    }
    queries.push(query("www.Example.ORG.", RrType::A, Some((4096, true))));
    queries.push(query(".", RrType::Other(65), Some((1232, true))));
    let long = format!("{0}.{0}.{0}.{1}.com.", "x".repeat(63), "y".repeat(40));
    queries.push(query(&long, RrType::Aaaa, Some((512, true))));
    let colliding = query("junk.root-servers.net.", RrType::A, Some((1232, true)));
    [queries, vec![colliding]]
}

#[test]
fn warm_fallback_paths_do_not_allocate() {
    let _turn = TURN.lock().unwrap();
    let engines = [engine(10), engine(1)];
    let queries = fallback_queries();
    let mut resp = Vec::with_capacity(4096);
    let mut batch = UdpBatch::new();

    // Warm up, and confirm what is being measured: every query takes the
    // uncached path, the long one is cut to its budget, the colliding one
    // is an NXDOMAIN.
    for (engine, queries) in engines.iter().zip(&queries) {
        for q in queries {
            assert_eq!(engine.serve_udp_into(q, &mut resp), ServeOutcome::Fallback);
            batch.push_request(q);
        }
        let tally = engine.serve_udp_batch(&mut batch);
        assert_eq!(tally.fallbacks, queries.len() as u64);
        batch.clear();
    }
    let served = |engine: &Rootd, q: &[u8]| Message::from_wire(&engine.serve_udp(q).unwrap());
    let cut = served(&engines[0], queries[0].last().unwrap()).unwrap();
    assert!(cut.header.flags.truncated && cut.authorities.len() == 4);
    let nx = served(&engines[1], &queries[1][0]).unwrap();
    assert_eq!(nx.header.rcode, dns_wire::Rcode::NxDomain);
    assert!(nx.authorities.iter().any(|r| r.rr_type == RrType::Nsec));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..50 {
        for (engine, queries) in engines.iter().zip(&queries) {
            for q in queries {
                engine.serve_udp_into(q, &mut resp);
                batch.push_request(q);
            }
            engine.serve_udp_batch(&mut batch);
            batch.clear();
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "warm fallback paths must not allocate");
}

/// One slab of everything the batched path tells apart: lower-case hits
/// (the key borrowed from the request), 0x20 mixed-case hits (the key in
/// the batch's name scratch), junk NXDOMAINs with and without DO (template
/// splices), CHAOS probes (the per-engine shapes), HTTPS / SRV fallbacks
/// (encoded in the batch's scratch, then appended behind the hits), and a
/// dropped datagram in the middle.
#[test]
fn warm_mixed_slab_does_not_allocate() {
    let _turn = TURN.lock().unwrap();
    let engine = engine(10);
    let chaos =
        |name: &str| Message::query(33, Question::chaos_txt(Name::parse(name).unwrap())).to_wire();
    let slab = [
        query(".", RrType::Soa, Some((4096, true))),
        query("com.", RrType::A, None),
        query("CoM.", RrType::A, Some((1232, true))),
        query("Org.", RrType::Ns, None),
        query("nx0123456789ab.", RrType::A, Some((4096, true))),
        query("nx0123456789ac.", RrType::Aaaa, None),
        query("NX0123456789ad.", RrType::A, Some((4096, true))),
        chaos("hostname.bind."),
        vec![0xab; 5],
        chaos("Version.Bind."),
        query("com.", RrType::Other(65), Some((1232, true))),
        query("Net.", RrType::Other(33), None),
        query(".", RrType::Ns, Some((1232, true))),
    ];
    let expected: Vec<Option<Vec<u8>>> = slab.iter().map(|q| engine.serve_udp(q)).collect();

    let mut batch = UdpBatch::new();
    let serve = |batch: &mut UdpBatch| {
        batch.clear();
        for q in &slab {
            batch.push_request(q);
        }
        engine.serve_udp_batch(batch)
    };
    // The first slab grows the buffers; the responses are the one-shot
    // path's, the drop a drop.
    let tally = serve(&mut batch);
    assert_eq!((tally.hits, tally.fallbacks, tally.dropped), (10, 2, 1));
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(batch.response(i), want.as_deref(), "response {i}");
    }

    // A grown slab is a `realloc`, which the counter counts: zero
    // allocations is also "no buffer of the batch changed capacity".
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..50 {
        assert_eq!(serve(&mut batch), tally);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "a warm mixed slab must not allocate");
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(batch.response(i), want.as_deref(), "response {i}");
    }
}
