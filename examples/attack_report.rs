//! Attack report: adversarial traffic against a rate-limited root fleet.
//!
//! The built-in `attack-demo` scenario throws three attack shapes at
//! B-Root's fleet inside one 12-virtual-second run: a ×10 water-torture
//! NXDOMAIN flood from a spoofed botnet, a reflection burst spoofing a
//! real stub client's source address, and that client flooding on its own
//! behalf. Response-rate limiting (BIND-style per-source token buckets
//! with slip/TC) is engaged throughout, and every benign answer that gets
//! through is byte-verified against an unlimited twin engine.
//!
//! ```sh
//! cargo run --release --example attack_report
//! ```
//!
//! A renderer: the invariants themselves (no violations, the limiter
//! engaged, replay identical across runs and worker counts) are asserted
//! by `tests/attack_rrl.rs`. The final line is `attack invariants: OK
//! (...)` when this run has no violations; otherwise it prints `attack
//! invariants: FAILED ...` and exits non-zero.

use roots_core::{AttackRun, Scale};
use rss::RootLetter;
use std::process::ExitCode;

fn main() -> ExitCode {
    let letter = RootLetter::B;
    let scenario = AttackRun::demo_scenario(Scale::Tiny, letter);
    println!(
        "attack report: scenario '{}' — {} windows against {}.root, RRL engaged",
        scenario.name(),
        scenario.events().len(),
        letter.ch(),
    );
    for e in scenario.events() {
        println!(
            "  event {:<22} wall [{}, {})",
            e.kind.label(),
            e.at,
            e.effective_until(),
        );
    }

    let a = AttackRun::run(
        Scale::Tiny,
        letter,
        &scenario,
        AttackRun::DEMO_DURATION_MS,
        2,
    );
    println!();
    println!("{}", a.report.render());

    // One run, rendered. The gates — these violations, the limiter
    // engaging, and fingerprint-identical replay at 2 and 5 workers — are
    // tier-1 in `tests/attack_rrl.rs`.
    let violations = a.violations();
    if violations.is_empty() {
        let r = &a.report;
        let attacked: u64 = r.epochs.iter().map(|e| e.attack_sent).sum();
        println!(
            "attack invariants: OK (epochs={} attack_sent={} rrl_dropped={} rrl_slipped={} \
             worst_served={:.4} mismatches=0)",
            r.epochs.len(),
            attacked,
            r.rrl.dropped,
            r.rrl.slipped,
            r.worst_flood_served_fraction(),
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        println!(
            "attack invariants: FAILED ({} violations)",
            violations.len()
        );
        ExitCode::FAILURE
    }
}
