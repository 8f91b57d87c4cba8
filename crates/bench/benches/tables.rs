//! One benchmark per paper table, and §7's channel timelines: measures the
//! analysis pass that regenerates the table from a shared measurement (the
//! measurement itself is set up once, outside the timed region).

use analysis::coverage::CoverageReport;
use analysis::zonemd_pipeline::validate_transfers;
use criterion::{criterion_group, criterion_main, Criterion};
use roots_core::{Pipeline, Scale};
use std::hint::black_box;

fn pipeline() -> &'static Pipeline {
    Pipeline::shared(Scale::Tiny)
}

fn bench_table1(c: &mut Criterion) {
    let p = pipeline();
    c.bench_function("table1_worldwide_coverage", |b| {
        b.iter(|| {
            let report = CoverageReport::compute(&p.world.catalog, black_box(&p.probes));
            black_box(report.render_table1())
        })
    });
}

fn bench_table2(c: &mut Criterion) {
    let p = pipeline();
    c.bench_function("table2_zonemd_validation", |b| {
        b.iter(|| {
            let table = validate_transfers(&p.world, black_box(&p.transfers));
            black_box(table.render())
        })
    });
}

fn bench_table3(c: &mut Criterion) {
    let p = pipeline();
    c.bench_function("table3_vp_distribution", |b| {
        b.iter(|| black_box(roots_core::experiments::run_one(p, "table3").unwrap()))
    });
}

fn bench_table4(c: &mut Criterion) {
    let p = pipeline();
    c.bench_function("table4_per_region_coverage", |b| {
        b.iter(|| {
            let report = CoverageReport::compute(&p.world.catalog, black_box(&p.probes));
            black_box(report.render_table4())
        })
    });
}

fn bench_sec7_channels(c: &mut Criterion) {
    let p = pipeline();
    c.bench_function("sec7_channel_timelines", |b| {
        b.iter(|| black_box(roots_core::experiments::run_one(p, "sec7_channels").unwrap()))
    });
}

criterion_group!(
    name = tables;
    config = Criterion::default().sample_size(10);
    targets = bench_table1, bench_table2, bench_table3, bench_table4, bench_sec7_channels
);
criterion_main!(tables);
