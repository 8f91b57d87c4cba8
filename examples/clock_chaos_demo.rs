//! Clock-chaos demo: one scenario, one virtual clock, three time
//! consumers.
//!
//! The built-in `clock-blackhole` scenario darkens every refresh
//! upstream — and one site of the serving fleet — for the first five
//! virtual seconds. Everything runs on a single `simclock` axis:
//!
//! * the serving fleet is a one-letter farm under the scenario's failure
//!   plan, with one query arriving per virtual ms: queries bound for the
//!   dark site hedge to another site until the watchdog declares it Dead
//!   and steering withdraws it, and it returns to rotation once the
//!   window is over — identically on any shard count;
//! * the localroot refresh client backs off on the shared clock, and the
//!   backoff waits alone carry it across the window: its retry budget
//!   times out inside the blackhole, but by the time the budget's last
//!   attempts fire, waiting has moved the clock past 5000 ms and the
//!   upstreams are back. Under the old split clocks (one private tick
//!   per exchange, waits invisible) this escape was impossible.
//!
//! ```sh
//! cargo run --release --example clock_chaos_demo
//! ```
//!
//! The final line is `clock chaos invariants: OK (...)` when
//! `ClockChaosRun::violations` is empty; any violation prints `clock chaos
//! invariants: FAILED ...` and exits non-zero. The gate itself is tier-1:
//! `tests/chaos_refresh.rs` asserts the same violations on the same run.

use roots_core::{ClockChaosRun, Scale};
use rss::RootLetter;
use std::process::ExitCode;

const WINDOW_MS: u64 = ClockChaosRun::DEMO_WINDOW_MS;
const QUERIES: usize = 8_000;

fn main() -> ExitCode {
    let letter = RootLetter::B;
    let scenario = ClockChaosRun::demo_scenario(Scale::Tiny, letter);
    println!(
        "clock chaos: scenario '{}' — {} events, blackhole window [0, {WINDOW_MS}) ms on one axis",
        scenario.name(),
        scenario.events().len(),
    );
    for e in scenario.events() {
        println!(
            "  event {:<14} wall [{}, {}) -> virtual [{}, {}) ms",
            e.kind.label(),
            e.at,
            e.effective_until(),
            0,
            WINDOW_MS,
        );
    }

    let a = ClockChaosRun::run(Scale::Tiny, letter, &scenario, QUERIES, 2);
    let f = &a.fleet;
    println!("\nserving fleet ({QUERIES} queries, 1/virtual ms, pinned arrivals):");
    println!(
        "  served={} hedged={} unanswered={} shed={} probes={} steering_epochs={}",
        f.served + f.served_hedged,
        f.served_hedged,
        f.unanswered,
        f.shed_junk + f.shed_benign,
        f.probes,
        f.steering_epochs,
    );
    println!(
        "  hedged or unanswered inside the window: {}",
        a.dark_queries(0..WINDOW_MS)
    );
    for &(_, slot, t, status) in &f.transitions {
        println!("  transition: slot {slot:>3} at {t:>6} ms -> {status:?}");
    }
    println!("refresh client (6 attempts, 200 ms timeout, shared clock):");
    println!(
        "  outcome={:?} timeouts={} retries={} backoff_ms={}",
        a.refresh,
        a.refresh_metrics.timeouts,
        a.refresh_metrics.retries,
        a.refresh_metrics.backoff_ms_total,
    );
    println!(
        "  backoff schedule (start_ms, wait_ms): {:?}",
        a.backoff_log
    );
    println!(
        "  clock ended at {} ms (window was {} ms)",
        a.clock_ms, WINDOW_MS
    );

    // Replay bit-identity: same run again, then a different shard count —
    // pinned arrivals make partitioning invisible.
    let b = ClockChaosRun::run(Scale::Tiny, letter, &scenario, QUERIES, 2);
    let c = ClockChaosRun::run(Scale::Tiny, letter, &scenario, QUERIES, 5);
    let violations = a.violations(&[&b, &c]);

    if violations.is_empty() {
        println!(
            "\nclock chaos invariants: OK (escaped_at={}ms backoffs={} fleet_hedged={} replays=3)",
            a.clock_ms,
            a.backoff_log.len(),
            a.fleet.served_hedged,
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        println!(
            "clock chaos invariants: FAILED ({} violations)",
            violations.len()
        );
        ExitCode::FAILURE
    }
}
