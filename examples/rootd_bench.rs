//! Drive the wire-level serving layer: build a world, stand up one root
//! letter's anycast fleet as `rootd` engines, and replay a seeded,
//! B-Root-shaped query mix against it from many simulated clients,
//! printing throughput and latency quantiles.
//!
//! ```sh
//! cargo run --release --example rootd_bench                 # tiny smoke
//! cargo run --release --example rootd_bench -- small 1000000
//! ```
//!
//! The first argument picks the world scale (`tiny`/`small`/`paper`), the
//! second the total query count. The merged `BENCH_results.json` numbers
//! come from `cargo bench` (the `rootd` bench target runs this same
//! pipeline and records qps/p50/p95/p99); this example is the
//! human-readable front end. Serving under site failures — health probes,
//! failover, hedging — is `examples/farm_chaos_report.rs`.

use rootd::{LoadgenConfig, QueryMix};
use roots_core::{AttackRun, Scale, ServingPipeline};
use rss::RootLetter;

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("small") => Scale::Small,
        Some("paper") => Scale::Paper,
        _ => Scale::Tiny,
    };
    let queries: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let cfg = LoadgenConfig {
        clients: 256,
        queries,
        threads,
        seed: 0x2023_0703,
        mix: QueryMix::broot(),
    };
    println!(
        "rootd load generator: {:?} scale, {} queries, {} threads, {} clients",
        scale, cfg.queries, cfg.threads, cfg.clients
    );
    let p = ServingPipeline::run(scale, RootLetter::B, &cfg);
    print!("{}", p.render());
    let served = p.report.cache_hits + p.report.cache_misses;
    println!(
        "cache hit rate: {:.2}% ({} of {} queries answered from precompiled wire bytes)",
        100.0 * p.report.cache_hits as f64 / served.max(1) as f64,
        p.report.cache_hits,
        served
    );
    println!(
        "per-site distribution: {}",
        p.report
            .per_site
            .iter()
            .map(|(site, n)| format!("site{site}:{n}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // Second pass: the demo attack scenario with response-rate limiting
    // engaged — what the limiter dropped, slipped (TC=1), and which
    // per-(source, class) buckets ran hottest.
    let scenario = AttackRun::demo_scenario(scale, RootLetter::B);
    println!(
        "\nflood-injected rerun: scenario '{}' over {} virtual ms, RRL engaged",
        scenario.name(),
        AttackRun::DEMO_DURATION_MS
    );
    let pa = AttackRun::run(
        scale,
        RootLetter::B,
        &scenario,
        AttackRun::DEMO_DURATION_MS,
        threads,
    );
    print!("{}", pa.report.render());
}
