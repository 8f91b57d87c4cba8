//! `pipeline_small`: the paper's measurement → analysis run.
//!
//! A block is `Pipeline::run(Scale::Small)` followed by
//! `experiments::run_all`; its report must come out byte-identical every
//! time. The world's seed lives inside `Scale`, so `--seed` does not
//! reach this workload: every run measures the same 174 simulated days.
//! The unit operation timed for the latency metrics is one measurement
//! round (every vantage point probing 13 letters over both families) on
//! one worker — the cadence the schedule has to sustain. Every probed
//! round is timed once after each block, and a round's time is the
//! fastest of those repeats; `op_p50_ns` / `op_p90_ns` are percentiles
//! over the rounds. All rounds do nearly the same work, so a percentile
//! over raw samples measured the neighbours on this host, not the
//! program: the p90 of one block's 54 samples spread 0.07–0.26 over ten
//! runs, and on two workers a 20 ms round also follows how fast the VM
//! wakes its second core. The fastest of four repeats a block apart
//! spreads 0.03–0.08.

use crate::env::{CpuWall, PeakRss};
use crate::json;
use crate::report::Report;
use crate::spec::EXPERIMENT_IDS;
use crate::stats::{highest_supported_percentile, percentile_band};
use crate::trace::{layer_totals, Tracer, NO_PARENT};
use netgeo::Region;
use roots_core::{experiments, Pipeline, Scale};
use std::time::{Duration, Instant};
use traces::gen::{generate_flows, ObservationWindow, TraceConfig};
use vantage::{MeasurementConfig, MeasurementEngine, Round, World};

/// Days the measurement schedule spans (2023-07-03 to 2023-12-24).
const SIM_DAYS: f64 = 174.0;
/// Every `ROUND_STRIDE`-th round of the schedule is replayed on its own
/// after each block: 54 rounds, each timed once per block.
const ROUND_STRIDE: usize = 4;
/// Worker threads a replayed round runs on. One: a round split over this
/// host's two shared cores ends when the slower thread does.
const ROUND_WORKERS: usize = 1;
/// Timed blocks every untraced run has. A block takes 6 to 8 s on this
/// host, so `--seconds 10` alone would give two, and the better third of
/// two is whichever one the neighbours spared. A traced run has one block,
/// and then takes it apart.
const MIN_BLOCKS: usize = 4;

fn measurement_config() -> MeasurementConfig {
    MeasurementConfig {
        schedule: Scale::Small.schedule(),
        ..Default::default()
    }
}

/// Sections of a `run_all` report, split at their `==== id [..] ====`
/// header lines.
fn sections(report: &str) -> Vec<&str> {
    let mut starts: Vec<usize> = report
        .match_indices("==== ")
        .filter(|&(i, _)| i == 0 || report.as_bytes()[i - 1] == b'\n')
        .map(|(i, _)| i)
        .collect();
    starts.push(report.len());
    starts.windows(2).map(|w| &report[w[0]..w[1]]).collect()
}

pub fn run(seconds: u64, report: &mut Report, tracer: &mut Tracer) {
    // Set-up: a Tiny run that fills the process-wide memoised demos
    // (`scenario_demo`, `rootd_demo`), so every block sees them built.
    let t = Instant::now();
    let tiny = Pipeline::run(Scale::Tiny);
    std::hint::black_box(experiments::run_all(&tiny).len());
    drop(tiny);
    report.add("setup_s", t.elapsed().as_secs_f64());

    let ids: Vec<&str> = experiments::registry().iter().map(|e| e.id).collect();
    report.check(ids == EXPERIMENT_IDS, || {
        format!("experiment registry changed: {ids:?}")
    });
    let rounds: Vec<Round> = measurement_config()
        .schedule
        .rounds()
        .step_by(ROUND_STRIDE)
        .collect();
    report.note("sim_days", json::float(SIM_DAYS));
    report.note("rounds_probed_per_block", json::uint(rounds.len() as u64));
    report.note("round_workers", json::uint(ROUND_WORKERS as u64));
    // What the probed rounds support as a sample of their own.
    report.note(
        "rounds_highest_percentile",
        json::float(highest_supported_percentile(rounds.len()).unwrap_or(0.0)),
    );

    let mut first: Option<(String, usize, usize)> = None;
    // Fastest time of each probed round over the blocks so far.
    let mut round_best_ns = vec![u64::MAX; rounds.len()];
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut blocks = 0;
    let min_blocks = if tracer.enabled() { 1 } else { MIN_BLOCKS };
    while blocks < min_blocks || (Instant::now() < deadline && !tracer.enabled()) {
        blocks += 1;
        let round = tracer.begin(NO_PARENT, "round");
        let block = tracer.begin(round, "block");
        let peak = PeakRss::start();
        let cpu = CpuWall::start();
        let t0 = Instant::now();
        let span = tracer.begin(block, "core.pipeline.run");
        let pipeline = Pipeline::run(Scale::Small);
        let records = pipeline.probes.len() + pipeline.transfers.len();
        tracer.end(span, records as u64);
        let span = tracer.begin(block, "core.experiments.run_all");
        let text = experiments::run_all(&pipeline);
        tracer.end(span, EXPERIMENT_IDS.len() as u64);
        let wall = t0.elapsed();
        report.add("env.cpu_wall_ratio", cpu.ratio());
        report.add("block_ms", wall.as_secs_f64() * 1e3);
        report.add("throughput", SIM_DAYS / wall.as_secs_f64());
        report.add("peak_rss_mb", peak.peak_mb());
        if blocks == 1 {
            let source = if peak.exact() { "VmHWM" } else { "VmRSS" };
            report.note("peak_rss_source", json::str(source));
        }

        // Output checks: 23 sections, and the same bytes and record
        // counts as the first block.
        let got = sections(&text);
        report.check(got.len() == EXPERIMENT_IDS.len(), || {
            format!("run_all printed {} sections", got.len())
        });
        let counts = (pipeline.probes.len(), pipeline.transfers.len());
        let (want_text, want_probes, want_transfers) =
            first.get_or_insert_with(|| (text.clone(), counts.0, counts.1));
        let want = sections(want_text);
        let differing = (0..EXPERIMENT_IDS.len())
            .filter(|&i| got.get(i) != want.get(i))
            .count();
        report.count(EXPERIMENT_IDS.len() as u64, differing as u64);
        report.check(counts == (*want_probes, *want_transfers), || {
            format!("record counts {counts:?} differ from the first block's")
        });

        // Latency probe: single rounds through the block's own world.
        let engine = MeasurementEngine::new(&pipeline.world, measurement_config());
        for (r, best) in rounds.iter().zip(&mut round_best_ns) {
            let t = Instant::now();
            let sink = engine.run_rounds_parallel(std::slice::from_ref(r), ROUND_WORKERS);
            *best = (*best).min(t.elapsed().as_nanos() as u64);
            std::hint::black_box(sink.probes.len());
        }
        if tracer.enabled() {
            serial_experiments(&pipeline, block, tracer);
            // A second record stream next to a live gigabyte of records
            // takes twice as long to fill: let the block's go first.
            drop(pipeline);
            staged(block, tracer);
        }
        tracer.end(block, 1);
        tracer.end(round, 1);
    }
    report.note("blocks", json::uint(blocks as u64));
    // One value per run, not per block: percentiles over the rounds.
    round_best_ns.sort_unstable();
    report.add("op_p50_ns", percentile_band(&round_best_ns, 50));
    report.add("op_p90_ns", percentile_band(&round_best_ns, 90));
    if tracer.enabled() {
        layers(report, tracer);
    }
}

/// What `run_all` spreads over its workers, one experiment after the
/// other.
fn serial_experiments(pipeline: &Pipeline, parent: u32, tracer: &mut Tracer) {
    let serial = tracer.begin(parent, "analysis.serial");
    for id in EXPERIMENT_IDS {
        tracer.span(serial, id, 1, || {
            std::hint::black_box(experiments::run_one(pipeline, id).map(|s| s.len()))
        });
    }
    tracer.end(serial, EXPERIMENT_IDS.len() as u64);
}

/// The stages `Pipeline::run` overlaps, run one after the other.
fn staged(parent: u32, tracer: &mut Tracer) {
    let root = tracer.begin(parent, "pipeline.staged");
    let world = tracer.span(root, "vantage.world_build", 1, || {
        World::build(&Scale::Small.world())
    });
    let engine = MeasurementEngine::new(&world, measurement_config());
    let span = tracer.begin(root, "vantage.measure");
    let sink = engine.run_parallel(Scale::Small.workers());
    tracer.end(span, (sink.probes.len() + sink.transfers.len()) as u64);
    drop(sink);

    let seed = world.seed();
    let traces = [
        (TraceConfig::isp(seed), ObservationWindow::isp_windows()),
        (
            TraceConfig::ixp(Region::Europe, seed ^ 1),
            ObservationWindow::ixp_windows(),
        ),
        (
            TraceConfig::ixp(Region::NorthAmerica, seed ^ 2),
            ObservationWindow::ixp_windows(),
        ),
    ];
    let span = tracer.begin(root, "traces.generate");
    let mut flows = 0;
    for (mut cfg, windows) in traces {
        cfg.population.clients_per_family = Scale::Small.trace_clients();
        flows += generate_flows(&cfg, &windows).len();
    }
    tracer.end(span, flows as u64);
    tracer.end(root, 1);
}

fn layers(report: &mut Report, tracer: &Tracer) {
    let totals = layer_totals(tracer.spans());
    // Mean duration per span of `name`, seconds.
    let secs = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e9 / t.spans.max(1) as f64)
    };
    let world_build = secs("vantage.world_build");
    let measure = secs("vantage.measure");
    let generate = secs("traces.generate");
    report.add("vantage.world_build_ms", world_build * 1e3);
    report.add("vantage.measure_s", measure);
    let records = totals.get("vantage.measure").map_or(0, |t| t.count);
    if measure > 0.0 {
        report.add("vantage.records_per_s", records as f64 / measure);
    }
    report.add("traces.generate_s", generate);
    let staged = world_build + measure + generate;
    if staged > 0.0 {
        // Share of the staged work the pipeline's concurrency hides.
        report.add(
            "core.pipeline.overlap_frac",
            1.0 - secs("core.pipeline.run") / staged,
        );
    }
    report.add("analysis.run_all_s", secs("core.experiments.run_all"));
    for id in EXPERIMENT_IDS {
        report.add(&crate::spec::experiment_metric(id), secs(id) * 1e3);
    }
    report.add("env.timer_overhead_ns", crate::env::timer_overhead_ns());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_split_at_header_lines_only() {
        let text = "==== a [x] ====\nbody ==== not a header\n\n==== b [y] ====\nmore\n";
        let s = sections(text);
        assert_eq!(s.len(), 2);
        assert!(s[0].starts_with("==== a") && s[0].contains("not a header"));
        assert!(s[1].starts_with("==== b"));
        assert!(sections("").is_empty());
    }
}
