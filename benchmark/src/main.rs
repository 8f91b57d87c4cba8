//! `rootbench`: end-to-end and per-layer benchmark of the serving farm
//! and the paper pipeline, through their public functions only.
//!
//! ```sh
//! benchmark/run.sh --workload farm_hit --seed 7 --seconds 10 --trace 0   # one workload
//! benchmark/run.sh [--seed N] [--traced] [--repeat N] [--selfcheck]      # all six
//! ```
//!
//! One workload per process. The last line on standard output is the
//! result: `correct`, `attempted`, `failed` and the metrics — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. See README.md for what each number means.

mod corpus;
mod env;
mod farm;
mod json;
mod pipeline;
mod report;
mod schedule;
mod spec;
mod stats;
mod suite;
mod trace;

use json::Value;
use report::{Column, Estimator, Report};
use spec::{DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

/// Where the trace and the suite summary go: inside the benchmark's own
/// directory, wherever the program is started from.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Spans a traced run can hold (a 10 s farm run records under 100k).
const SPAN_CAPACITY: usize = 262_144;

/// What the ISSUE's metric names are called here, per workload.
const ALIASES: [(&str, &str, &str); 8] = [
    ("qps", "throughput", "farm_*"),
    ("sim_days_per_s", "throughput", "pipeline_small"),
    ("reload_ms", "block_ms", "farm_reload"),
    ("report_s", "block_ms / 1000", "pipeline_small"),
    ("serve_p50_ns", "op_p50_ns", "farm_*"),
    ("serve_p90_ns", "op_p90_ns", "farm_*"),
    (
        "legit_served_frac",
        "rootd.farm.chaos.legit_served_frac (--trace 1); below 0.99 the run fails",
        "farm_chaos",
    ),
    ("fail_frac", "failed / attempted, printed below", "all"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    selfcheck: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => text.replace('_', "").parse().ok(),
    }
}

fn usage() -> String {
    let mut text = String::from(
        "usage: rootbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n       \
         rootbench [--seed N] [--seconds S] [--traced] [--repeat N] [--selfcheck]   (all workloads)\n",
    );
    for w in &WORKLOADS {
        text.push_str(&format!("  {:<15} {}\n", w.name, w.why));
    }
    text
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        repeat: 1,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut number = |what: &str| {
            it.next()
                .and_then(|v| parse_u64(v))
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = it.next().ok_or("--workload needs a name")?;
                if !spec::is_workload(name) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = number("a number")?,
            "--seconds" => args.seconds = number("a number of seconds")?,
            "--trace" => args.trace = number("0 or 1")? != 0,
            "--traced" => args.trace = true,
            "--repeat" => args.repeat = number("a count")?.max(1) as usize,
            "--selfcheck" => args.selfcheck = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// The run header: enough to tell two result sets apart.
pub fn header(seed: u64, seconds: u64) -> Value {
    json::object([
        ("nproc", json::uint(env::nproc() as u64)),
        ("git_rev", json::str(&env::git_rev())),
        ("rustc", json::str(&env::rustc_version())),
        ("seed", json::uint(seed)),
        ("seconds", json::uint(seconds)),
    ])
}

fn run_workload(workload: &str, args: &Args) -> ExitCode {
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace, SPAN_CAPACITY);
    if farm::run(workload, args.seed, args.seconds, &mut report, &mut tracer).is_none() {
        pipeline::run(args.seconds, &mut report, &mut tracer);
    }

    // Per-layer values are medians (most have one sample). End-to-end
    // values are the better third of the blocks; set-up, which is not
    // measured in blocks, is the median of its repeats.
    let metrics: Vec<Column> = if args.trace {
        spec::per_layer_all()
            .into_iter()
            .map(|(name, unit, better)| Column {
                name,
                unit,
                better,
                estimator: Estimator::Median,
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| Column {
                name: m.name.to_string(),
                unit: m.unit,
                better: m.better,
                estimator: if m.name == "setup_s" {
                    Estimator::Median
                } else {
                    Estimator::BetterThird
                },
            })
            .collect()
    };
    if args.trace {
        let path = Path::new(OUT_DIR).join("trace.jsonl");
        match tracer.write_jsonl(&path) {
            Ok(()) => report.note("trace_file", json::str(&path.display().to_string())),
            Err(e) => report.problems.push(format!("cannot write the trace: {e}")),
        }
        report.note("spans", json::uint(tracer.spans().len() as u64));
        report.note("spans_dropped", json::uint(tracer.dropped()));
    } else {
        for c in &metrics {
            let v = report.value(c);
            report.check(v > 0.0, || {
                format!("end-to-end metric {} was not measured", c.name)
            });
        }
    }

    let mut head = vec![
        ("workload".to_string(), json::str(workload)),
        ("trace".to_string(), Value::Bool(args.trace)),
    ];
    head.extend(report.info.iter().cloned());
    println!(
        "header {} {}",
        json::render(&header(args.seed, args.seconds)),
        json::render(&json::object(head))
    );
    print!("{}", report.table(&metrics));
    if !args.trace {
        print!("{}", report.sample_lines(&metrics));
        for (theirs, ours, workloads) in ALIASES {
            println!("alias  {theirs} = {ours} ({workloads})");
        }
        let preempted = report
            .samples("env.cpu_wall_ratio")
            .iter()
            .filter(|r| **r < 0.95)
            .count();
        println!(
            "env.cpu_wall_ratio median {:.3}, {} of {} blocks below 0.95",
            report.median("env.cpu_wall_ratio"),
            preempted,
            report.samples("env.cpu_wall_ratio").len()
        );
    }
    println!(
        "fail_frac {:.6} ({} failed of {} attempted)",
        1.0 - report.passed_frac(),
        report.failed,
        report.attempted
    );
    for w in &report.warnings {
        println!("warning: {w}");
    }
    for p in &report.problems {
        println!("FAILED CHECK: {p}");
    }
    println!("{}", report.result_line(&metrics));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(workload) => run_workload(workload, &args),
        None => suite::run(&suite::SuiteArgs {
            seed: args.seed,
            seconds: args.seconds,
            traced: args.trace,
            repeat: args.repeat,
            selfcheck: args.selfcheck,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv("--workload farm_hit --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("farm_hit"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        let a = parse_args(&argv("--seed 0x2024_0610 --traced --selfcheck --repeat 10")).unwrap();
        assert_eq!(a.seed, DEFAULT_SEED);
        assert!(a.workload.is_none() && a.trace && a.selfcheck);
        assert_eq!(a.repeat, 10);
        let d = parse_args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, RUN_SECONDS, false)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }
}
