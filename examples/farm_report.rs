//! Stand up the serving farm — per-site `rootd` engines for a set of
//! root letters sharing one epoch-swapped zone state — and replay a
//! seeded, catchment-steered query load through the batched datagram
//! path, printing the constellation report and checking its invariants.
//!
//! ```sh
//! cargo run --release --example farm_report                  # 2 letters × 4 sites smoke
//! cargo run --release --example farm_report -- full 200000   # all 13 letters, full catalog
//! ```
//!
//! The first argument picks the constellation (`smoke` = A+B capped at
//! 4 sites each, `full` = all thirteen letters at every catalog site),
//! the second the total query count. The merged `BENCH_results.json`
//! numbers (`rootd/farm/*`) come from `cargo bench`; this example is
//! the human-readable driver, and `tests/farm_invariants.rs` holds the
//! report's invariants and its replay identity across shard counts in
//! tier-1.

use rootd::FarmConfig;
use roots_core::{FarmRun, Scale};
use rss::RootLetter;

fn main() {
    let full = std::env::args().nth(1).as_deref() == Some("full");
    let queries: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if full { 200_000 } else { 20_000 });

    let mut cfg = FarmConfig::tiny(0x2024_0610);
    cfg.queries = queries;
    cfg.shards = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(2);

    let run = if full {
        FarmRun::full_constellation(Scale::Tiny, &cfg)
    } else {
        FarmRun::run(Scale::Tiny, &[RootLetter::A, RootLetter::B], 4, &cfg)
    };
    print!("{}", run.render());

    let problems = run.report.violations();
    if problems.is_empty() {
        println!("farm invariants: OK");
    } else {
        for p in &problems {
            println!("farm invariant violated: {p}");
        }
        std::process::exit(1);
    }
}
