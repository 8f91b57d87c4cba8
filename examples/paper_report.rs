//! Regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release --example paper_report            # small scale
//! cargo run --release --example paper_report -- tiny    # fastest
//! cargo run --release --example paper_report -- paper   # full resolution
//! cargo run --release --example paper_report -- small fig7 fig9   # subset
//! cargo run --release --example paper_report -- tiny scenario_demo
//! ```
//!
//! A subset is any ids of `experiments::registry()`, printed in the order
//! named under the headers the full report uses; an id that is not
//! registered is an error (exit 1) before anything is measured.

use roots_core::{experiments, Pipeline, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A leading scale name is the scale; every other argument is an
    // experiment id.
    let (scale, ids) = match args.split_first() {
        Some((first, rest)) if first == "tiny" => (Scale::Tiny, rest),
        Some((first, rest)) if first == "small" => (Scale::Small, rest),
        Some((first, rest)) if first == "paper" => (Scale::Paper, rest),
        _ => (Scale::Small, &args[..]),
    };
    let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
    let selected = match experiments::select(&ids) {
        Ok(selected) => selected,
        Err(unknown) => {
            eprintln!("unknown experiment id(s): {}", unknown.join(" "));
            return ExitCode::FAILURE;
        }
    };

    eprintln!("running pipeline at {scale:?} scale (this does the full measurement once)...");
    let start = std::time::Instant::now();
    let pipeline = Pipeline::shared(scale);
    eprintln!(
        "pipeline done in {:.1}s: {} probes, {} transfers",
        start.elapsed().as_secs_f64(),
        pipeline.probes.len(),
        pipeline.transfers.len()
    );

    if selected.is_empty() {
        print!("{}", experiments::run_all(pipeline));
    } else {
        print!("{}", experiments::run_selected(pipeline, &selected));
    }
    ExitCode::SUCCESS
}
