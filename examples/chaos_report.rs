//! Chaos report: sweep a fault matrix (loss × bitflip × mid-stream
//! truncation) against the resilient localroot refresh loop and check
//! the robustness invariants the paper's RQ3 fallback argument rests on:
//!
//! 1. a corrupt zone copy is never activated — every accepted copy holds
//!    the fault-free baseline's records and answers byte-identically to
//!    it, signatures and denial proofs included;
//! 2. refresh converges whenever at least one upstream is reachable;
//! 3. stale serving is bounded by the zone's SOA expire field;
//! 4. every cell replays bit-identically from its seed.
//!
//! ```sh
//! cargo run --release --example chaos_report            # default seed
//! cargo run --release --example chaos_report -- 42      # custom seed
//! ```
//!
//! A renderer of `roots_core::ChaosSweep`: the final line reads `chaos
//! invariants: OK (...)` when `ChaosSweep::violations` is empty; any
//! violation prints `chaos invariants: FAILED ...` and exits non-zero.
//! The invariants are asserted in `tests/chaos_refresh.rs`.

use localroot::RefreshOutcome;
use roots_core::chaos::SOA_EXPIRE;
use roots_core::ChaosSweep;
use std::process::ExitCode;

fn main() -> ExitCode {
    let base_seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xc0de);
    let sweep = ChaosSweep::run(base_seed);

    println!(
        "chaos sweep: loss x bitflip x truncation over 3 upstreams (base seed {base_seed:#x})"
    );
    println!(
        "{:>5} {:>5} {:>5}  {:<22} {:>8} {:>8} {:>9}",
        "loss", "flip", "trunc", "outcome", "retries", "timeouts", "faults"
    );
    for cell in &sweep.cells {
        let label = match &cell.outcome {
            Ok(RefreshOutcome::Updated {
                from_upstream,
                attempts,
                ..
            }) => format!("updated via {from_upstream} ({attempts} tries)"),
            Ok(RefreshOutcome::AlreadyCurrent { .. }) => "already-current?".into(),
            Err(_) => "refused (all failed)".into(),
        };
        let faults: u64 = cell.counters.iter().map(|c| c.total_faults()).sum();
        println!(
            "{:>5} {:>5} {:>5}  {label:<22} {:>8} {:>8} {faults:>9}",
            cell.loss, cell.flip, cell.trunc, cell.metrics.retries, cell.metrics.timeouts
        );
    }
    println!(
        "serve-stale window: fresh<=3600s, stale<=SOA expire {SOA_EXPIRE}s, then refused \
         (served_stale={} refused_expired={})",
        sweep.served_stale, sweep.refused_expired
    );
    let faults = sweep.faults();
    println!("aggregate injected faults: {}", faults.render());

    let violations = sweep.violations();
    let (cells, activated) = (sweep.cells.len(), sweep.activated());
    if violations.is_empty() {
        println!(
            "chaos invariants: OK (cells={cells} activated={activated} refused={} \
             faults_injected={} stale_bound={SOA_EXPIRE})",
            cells - activated,
            faults.total_faults()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        println!("chaos invariants: FAILED ({} violations)", violations.len());
        ExitCode::FAILURE
    }
}
