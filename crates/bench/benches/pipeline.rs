//! The paper run end to end at `Small` scale — `Pipeline::run` (world,
//! 4 M probes and 3.5 M transfers, three passive traces) and
//! `experiments::run_all` (23 tables and figures) — as two wall-clock
//! figures in `BENCH_results.json`. `bench_guard` holds each under an
//! absolute ceiling below what the run cost while every probe scanned
//! the catalog and cloned its identity string and the analyses each
//! recomputed what they share (≈3 000 / 2 600 ms), so that cannot come
//! back unnoticed; rootbench's `pipeline_small` measures the same run
//! with its layers.

use criterion::{criterion_group, criterion_main, record_counter, record_metric, Criterion};
use roots_core::{experiments, Pipeline, Scale};
use std::hint::black_box;
use std::time::Instant;

/// Not a timed closure: three full runs, the fastest of each half kept —
/// the first `run_all` of a process also builds the memoised demos.
fn bench_pipeline_small(_c: &mut Criterion) {
    let (mut run_ms, mut run_all_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let t = Instant::now();
        let pipeline = black_box(Pipeline::run(Scale::Small));
        run_ms = run_ms.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let report = black_box(experiments::run_all(&pipeline));
        run_all_ms = run_all_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(report.matches("\n==== ").count() + 1, 23);
        record_counter("pipeline/small/probes", pipeline.probes.len() as u64);
        record_counter("pipeline/small/transfers", pipeline.transfers.len() as u64);
    }
    record_metric("pipeline/small/run_ms", run_ms);
    record_metric("pipeline/small/run_all_ms", run_all_ms);
    println!("pipeline at Small: run {run_ms:.0} ms, run_all {run_all_ms:.0} ms");
}

criterion_group!(benches, bench_pipeline_small);
criterion_main!(benches);
