//! Suite mode: every workload, each in a process of its own (as the
//! driver runs them), then one table over all of them.
//!
//! `--repeat N` runs each workload at N consecutive seeds and reports,
//! per end-to-end metric, the median and the quartile distance as a share
//! of it next to the metric's bound. `--selfcheck` does the whole set
//! twice and compares the two medians against the bound — the test a
//! later change has to pass against its parent.

use crate::json::{self, Get, Value};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub repeat: usize,
    pub selfcheck: bool,
}

/// End-to-end values of one workload over its repeats: metric → values.
type Values = BTreeMap<String, Vec<f64>>;

/// Run one workload in a child process, echo what it prints, and return
/// its result line parsed — `None` if it failed or printed none.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Option<Value> {
    let exe = std::env::current_exe().ok()?;
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .ok()?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take()?).lines() {
        let line = line.ok()?;
        println!("{line}");
        last = line;
    }
    let status = child.wait().ok()?;
    let result = json::parse(&last).ok()?;
    let correct = result.get("correct").and_then(Get::as_bool) == Some(true);
    (status.success() && correct).then_some(result)
}

fn metric_values(result: &Value) -> Vec<(String, f64)> {
    result
        .get("metrics")
        .and_then(Get::as_object)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

pub fn run(args: &SuiteArgs) -> ExitCode {
    let sets = if args.selfcheck { 2 } else { 1 };
    let mut failed_runs = Vec::new();
    let mut results: Vec<BTreeMap<&str, Values>> = Vec::new();
    for set in 0..sets {
        let mut by_workload = BTreeMap::new();
        for w in &WORKLOADS {
            let mut values = Values::new();
            for i in 0..args.repeat {
                let seed = args.seed + i as u64;
                println!("== set {set} {} seed {seed:#x} untraced", w.name);
                match child(w.name, seed, args.seconds, false) {
                    Some(result) => {
                        for (name, v) in metric_values(&result) {
                            values.entry(name).or_default().push(v);
                        }
                    }
                    None => failed_runs.push(format!("{} seed {seed:#x}", w.name)),
                }
            }
            by_workload.insert(w.name, values);
        }
        results.push(by_workload);
    }
    if args.traced {
        for w in &WORKLOADS {
            println!("== {} seed {:#x} traced", w.name, args.seed);
            if child(w.name, args.seed, args.seconds, true).is_none() {
                failed_runs.push(format!("{} traced", w.name));
            }
        }
    }

    println!(
        "\n== end-to-end summary: median over {} run(s) per workload; spread = (p75 - p25) / median",
        args.repeat
    );
    println!(
        "{:<16} {:<12} {:>6} {:>16} {:>8} {:>7}  spread <= bound",
        "workload", "metric", "unit", "median", "spread", "bound"
    );
    let mut summary = Vec::new();
    let mut over_bound = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let values = results[0][w.name].get(m.name).cloned().unwrap_or_default();
            let s = spread(&values);
            // The driver does not hold set-up time's spread to its bound.
            let ok = args.repeat < 2 || m.name == "setup_s" || s <= m.bound;
            over_bound += usize::from(!ok);
            println!(
                "{:<16} {:<12} {:>6} {:>16.4} {:>8.4} {:>7.3}  {}",
                w.name,
                m.name,
                m.unit,
                median(&values),
                s,
                m.bound,
                if args.repeat < 2 {
                    "-"
                } else if ok {
                    "yes"
                } else {
                    "NO"
                }
            );
            summary.push(json::object([
                ("workload", json::str(w.name)),
                ("metric", json::str(m.name)),
                ("unit", json::str(m.unit)),
                ("better", json::str(m.better.as_str())),
                ("median", json::float(median(&values))),
                ("spread", json::float(s)),
                ("bound", json::float(m.bound)),
                ("runs", json::uint(values.len() as u64)),
            ]));
        }
    }

    let mut regressions = 0;
    if args.selfcheck {
        println!("\n== selfcheck: the same code twice; worse = share of the first median");
        println!(
            "{:<16} {:<12} {:>16} {:>16} {:>8} {:>8} {:>7}  pass",
            "workload", "metric", "first", "second", "ratio", "worse", "bound"
        );
        for w in &WORKLOADS {
            for m in &END_TO_END {
                let med = |set: usize| median(results[set][w.name].get(m.name).map_or(&[], |v| v));
                let (a, b) = (med(0), med(1));
                let worse = m.worsening(a, b);
                let pass = worse <= m.bound;
                regressions += usize::from(!pass);
                println!(
                    "{:<16} {:<12} {:>16.4} {:>16.4} {:>8.4} {:>8.4} {:>7.3}  {}",
                    w.name,
                    m.name,
                    a,
                    b,
                    if a == 0.0 { 0.0 } else { b / a },
                    worse,
                    m.bound,
                    if pass { "yes" } else { "NO" }
                );
            }
        }
    }

    let out = Path::new(crate::OUT_DIR).join("summary.json");
    let doc = json::object([
        ("header", crate::header(args.seed, args.seconds)),
        ("repeat", json::uint(args.repeat as u64)),
        ("end_to_end", Value::Arr(summary)),
    ]);
    if let Err(e) = std::fs::create_dir_all(crate::OUT_DIR)
        .and_then(|()| std::fs::write(&out, json::render(&doc) + "\n"))
    {
        eprintln!("cannot write {}: {e}", out.display());
    }

    for f in &failed_runs {
        println!("FAILED: {f}");
    }
    println!(
        "\nsuite: {} failed run(s), {} spread(s) over bound, {} selfcheck regression(s)",
        failed_runs.len(),
        over_bound,
        regressions
    );
    if failed_runs.is_empty() && regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
