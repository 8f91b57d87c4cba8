//! What one run of one workload measured and checked.

use crate::json::{self, Value};
use crate::spec::Better;
use crate::stats::{better_third_mean, median, quartiles};
use std::collections::BTreeMap;

/// How a run's value is taken from a metric's per-block samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    Median,
    /// Mean of the better third of the blocks (`stats::better_third_mean`).
    BetterThird,
}

/// A metric as one run reports it.
pub struct Column {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub estimator: Estimator,
}

#[derive(Default)]
pub struct Report {
    /// Operations whose outputs were checked, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Harness observations that do not decide correctness.
    pub warnings: Vec<String>,
    /// Samples per metric name, one per block unless stated otherwise.
    metrics: BTreeMap<String, Vec<f64>>,
    /// Run-header extras (block sizes and the like).
    pub info: Vec<(String, Value)>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64) {
        self.metrics
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Count `n` checked operations of which `failed` did not pass.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.info.push((key.to_string(), value));
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.metrics.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median over blocks; 0 for a metric this workload never measured.
    pub fn median(&self, name: &str) -> f64 {
        median(self.samples(name))
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Share of checked operations that passed.
    pub fn passed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
        }
    }

    /// The run's value of `column`; 0 for a metric this workload never
    /// measured.
    pub fn value(&self, column: &Column) -> f64 {
        let samples = self.samples(&column.name);
        match column.estimator {
            Estimator::Median => median(samples),
            Estimator::BetterThird => better_third_mean(samples, column.better == Better::Higher),
        }
    }

    /// One human-readable line per metric: name, unit, the run's value,
    /// then median, quartiles and count of the per-block samples.
    pub fn table(&self, columns: &[Column]) -> String {
        let mut out = format!(
            "{:<40} {:>6} {:>16} {:>16} {:>16} {:>16} {:>4}\n",
            "metric", "unit", "value", "median", "p25", "p75", "n"
        );
        for c in columns {
            let samples = self.samples(&c.name);
            let (q1, q3) = quartiles(samples);
            out.push_str(&format!(
                "{:<40} {:>6} {:>16.4} {:>16.4} {:>16.4} {:>16.4} {:>4}\n",
                c.name,
                c.unit,
                self.value(c),
                self.median(&c.name),
                q1,
                q3,
                samples.len()
            ));
        }
        out
    }

    /// The raw per-block samples of `columns`, one line each, in block
    /// order: what the values above were taken from.
    pub fn sample_lines(&self, columns: &[Column]) -> String {
        let mut out = String::new();
        for c in columns {
            let values: Vec<String> = self
                .samples(&c.name)
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect();
            out.push_str(&format!("samples {} {}\n", c.name, values.join(" ")));
        }
        out
    }

    /// The driver's result line for `columns`.
    pub fn result_line(&self, columns: &[Column]) -> String {
        json::render(&json::object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", json::uint(self.attempted.max(1))),
            ("failed", json::uint(self.failed)),
            (
                "metrics",
                json::object(columns.iter().map(|c| {
                    (
                        c.name.clone(),
                        json::object([
                            ("value", json::float(self.value(c))),
                            ("unit", json::str(c.unit)),
                        ]),
                    )
                })),
            ),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Get;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.add("throughput", 10.0);
        r.add("throughput", 30.0);
        r.add("throughput", 20.0);
        r.count(100, 0);
        let column = |name: &str, unit, better, estimator| Column {
            name: name.to_string(),
            unit,
            better,
            estimator,
        };
        let metrics = vec![
            column("throughput", "1/s", Better::Higher, Estimator::Median),
            column("never", "ms", Better::Lower, Estimator::BetterThird),
        ];
        let line = json::parse(&r.result_line(&metrics)).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Get::as_bool), Some(true));
        let m = line.get("metrics").unwrap();
        assert_eq!(
            m.get("throughput")
                .and_then(|t| t.get("value"))
                .and_then(Get::as_f64),
            Some(20.0)
        );
        assert_eq!(
            m.get("never")
                .and_then(|t| t.get("value"))
                .and_then(Get::as_f64),
            Some(0.0)
        );
        assert!(r.table(&metrics).contains("throughput"));
        // The better third of three samples is the best one.
        let best = column("throughput", "1/s", Better::Higher, Estimator::BetterThird);
        assert_eq!(r.value(&best), 30.0);
    }

    #[test]
    fn any_problem_or_failure_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.count(10, 0);
        assert!(r.correct());
        assert_eq!(r.passed_frac(), 1.0);
        r.check(false, || "generation did not advance".to_string());
        assert!(!r.correct());
        let mut r = Report::default();
        r.count(10, 1);
        assert!(!r.correct());
        assert_eq!(r.passed_frac(), 0.9);
    }
}
