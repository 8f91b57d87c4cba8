//! The self-healing constellation under fire: three concurrent site
//! failures (two engine crashes and a network blackhole), a stalled
//! shard, a junk flood, and a poisoned zone reload — all on the shared
//! virtual clock — served through the farm's health-checked failover,
//! restart ladder, validated-reload rollback and overload shedding.
//!
//! ```sh
//! cargo run --release --example farm_chaos_report            # 30k queries
//! cargo run --release --example farm_chaos_report -- 100000  # more load
//! ```
//!
//! Renders `roots_core::FarmChaosRun::demo` and prints
//! `farm chaos invariants: OK` when its `violations()` are empty: ≥99% of
//! legitimate queries answered, every delivered answer byte-identical to
//! the fault-free twin, the poisoned reload refused, every crashed
//! engine recovered within the backoff budget. `tests/farm_invariants.rs`
//! holds the same gates (and replay identity across 1..=8 shards and
//! seeds) in tier-1.

use roots_core::{FarmChaosRun, Scale};

fn main() {
    let queries: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);
    let shards = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(2);
    let run = FarmChaosRun::demo(Scale::Tiny, 0x2025_0417, queries, shards);
    print!("{}", run.render());

    let problems = run.violations();
    if problems.is_empty() {
        println!("farm chaos invariants: OK");
    } else {
        for p in &problems {
            println!("farm chaos invariant violated: {p}");
        }
        std::process::exit(1);
    }
}
