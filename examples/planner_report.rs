//! What-if deployment planner report: a seeded 1000-candidate sweep over
//! b.root's deployment — site additions, removals, re-homings, prefix
//! renumberings, peering-link changes, and composed multi-step plans —
//! each scored against the steady-state baseline (per-region RTT delta,
//! catchment locality, assignment churn), ranked, and reduced to a
//! deterministic Pareto frontier with per-region top-k tables. A second,
//! smaller sweep is scored *through* a b.root site-outage timeline
//! (simclock-pinned mode), judging each plan by its worst epoch.
//!
//! ```sh
//! cargo run --release --example planner_report
//! ```
//!
//! A renderer of `roots_core::PlannerDemo`: the final line reads
//! `planner invariants: OK (...)` when `PlannerDemo::violations` is empty;
//! any violation prints `planner invariants: FAILED ...` and exits
//! non-zero. The invariants — the evaluation baseline is bit-identical to
//! the world's own routing, the identity candidate scores exactly zero on
//! every axis, and both sweeps reproduce their score fingerprints at
//! other worker counts — are asserted in `tests/planner_demo.rs`.

use planner::MoveSetConfig;
use roots_core::{PlannerDemo, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = MoveSetConfig::default();
    println!(
        "planner report: {} seeded candidates against {}.root (seed {:#x}, ≤{} moves each)",
        cfg.count,
        cfg.letter.ch(),
        cfg.seed,
        cfg.max_steps,
    );
    let demo = PlannerDemo::run(Scale::Tiny, &cfg, 120);
    let (run, tl) = (&demo.run, &demo.timeline);

    println!();
    println!("{}", run.render(3));

    println!("ranking (best 10 of {}):", run.report.scores.len());
    for &id in run.report.ranking.iter().take(10) {
        let s = run.report.score(id).expect("ranked id is in the sweep");
        println!(
            "  #{:<5} ΔRTT {:>+8.3} ms  Δlocality {:>+7.4}  churn {:>5.3}  {}",
            s.id,
            s.delta.rtt_combined(),
            s.delta.locality,
            s.churn,
            s.label
        );
    }

    println!(
        "\ntimeline sweep: {} candidates through '{}' — worst epochs (best 5):",
        tl.report.scores.len(),
        demo.scenario.name()
    );
    for &id in tl.report.ranking.iter().take(5) {
        let s = tl.report.score(id).expect("ranked id is in the sweep");
        let worst = s.worst_epoch.as_ref().expect("timeline mode sets it");
        println!(
            "  #{:<5} worst ΔRTT {:>+8.3} ms in {:<40} {}",
            s.id,
            worst.delta.rtt_combined(),
            worst.label,
            s.label
        );
    }

    let violations = demo.violations();
    if violations.is_empty() {
        println!(
            "\nplanner invariants: OK (candidates={} workers=1..=5 frontier={} \
             timeline_candidates={} epochs={})",
            run.report.scores.len(),
            run.report.frontier.len(),
            tl.report.scores.len(),
            tl.context().epoch_count(),
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        println!(
            "planner invariants: FAILED ({} violations)",
            violations.len()
        );
        ExitCode::FAILURE
    }
}
