//! The shared pipeline: build the world, run the active measurement once,
//! synthesize the passive traces once, and hand the record streams to the
//! experiments.

use crate::scale::Scale;
use analysis::colocation::ColocationResult;
use analysis::coverage::CoverageReport;
use analysis::rtt::RttByRegion;
use analysis::stability::StabilityResult;
use analysis::walk::ProbeWalk;
use netgeo::Region;
use std::collections::HashSet;
use std::sync::OnceLock;
use traces::flows::FlowObservation;
use traces::gen::{generate_flows, ObservationWindow, TraceConfig};
use vantage::records::{ProbeRecord, TransferRecord};
use vantage::{MeasurementConfig, MeasurementEngine, Round, Schedule, World};

/// All data an experiment might need.
///
/// Nothing writes to the world or the streams once [`Pipeline::run`] has
/// returned (experiments take `&Pipeline`), which is what lets the analysis
/// products several experiments share be computed on first use and kept:
/// each is a pure function of fields that no longer change. The four that
/// count the probe stream finish from one walk over it ([`ProbeWalk`]),
/// taken when the first of them is asked for.
pub struct Pipeline {
    pub scale: Scale,
    pub world: World,
    pub probes: Vec<ProbeRecord>,
    pub transfers: Vec<TransferRecord>,
    /// ISP-DNS-1 stand-in flows.
    pub isp_flows: Vec<FlowObservation>,
    /// IXP-DNS-1 stand-in flows, per covered region.
    pub ixp_flows_eu: Vec<FlowObservation>,
    pub ixp_flows_na: Vec<FlowObservation>,
    probe_walk: OnceLock<ProbeWalk>,
    coverage: OnceLock<CoverageReport>,
    rtt_by_region: OnceLock<RttByRegion>,
    colocation: OnceLock<ColocationResult>,
    stability: OnceLock<StabilityResult>,
}

impl Pipeline {
    /// Run everything at `scale`. Deterministic for a given scale: the
    /// passive traces are synthesized on one thread of their own while
    /// this one builds the world and runs the active measurement (they
    /// share nothing but the seed), and within the measurement each
    /// worker owns a disjoint VP range, so concurrency only changes
    /// wall-clock time, never the records.
    pub fn run(scale: Scale) -> Pipeline {
        let world_cfg = scale.world();
        let config = MeasurementConfig {
            schedule: scale.schedule(),
            ..Default::default()
        };
        let seed = world_cfg.seed;
        let trace = move |mut cfg: TraceConfig, windows: &[ObservationWindow]| {
            cfg.population.clients_per_family = scale.trace_clients();
            generate_flows(&cfg, windows)
        };
        let (world, sink, [isp_flows, ixp_flows_eu, ixp_flows_na]) = std::thread::scope(|s| {
            // One generator after the other: the measurement's workers
            // already fill the cores, and three more threads beside them
            // cost more in contention than the overlap hid.
            let traces = s.spawn(move || {
                let ixp = ObservationWindow::ixp_windows();
                [
                    trace(TraceConfig::isp(seed), &ObservationWindow::isp_windows()),
                    trace(TraceConfig::ixp(Region::Europe, seed ^ 1), &ixp),
                    trace(TraceConfig::ixp(Region::NorthAmerica, seed ^ 2), &ixp),
                ]
            });
            let world = World::build(&world_cfg);
            let sink = measure(&world, config, scale.workers());
            let traces = traces.join().expect("trace generation panicked");
            (world, sink, traces)
        });
        Pipeline {
            scale,
            world,
            probes: sink.probes,
            transfers: sink.transfers,
            isp_flows,
            ixp_flows_eu,
            ixp_flows_na,
            probe_walk: OnceLock::new(),
            coverage: OnceLock::new(),
            rtt_by_region: OnceLock::new(),
            colocation: OnceLock::new(),
            stability: OnceLock::new(),
        }
    }

    /// The four probe products' counts, from one walk over the stream.
    fn probe_walk(&self) -> &ProbeWalk {
        self.probe_walk.get_or_init(|| {
            let mut walk = ProbeWalk::new(&self.world.catalog, &self.world.population);
            walk.fold(&self.probes);
            walk
        })
    }

    /// Site coverage of the probe stream (Tables 1/4, Figures 1/11).
    pub fn coverage(&self) -> &CoverageReport {
        (self.coverage).get_or_init(|| {
            CoverageReport::finish(&self.world.catalog, &self.probe_walk().identities)
        })
    }

    /// RTT summaries by region, target and family (Figures 6/14/15).
    pub fn rtt_by_region(&self) -> &RttByRegion {
        (self.rtt_by_region)
            .get_or_init(|| RttByRegion::finish(&self.probe_walk().rtt_cells, &self.probes))
    }

    /// Shared-last-hop co-location per VP (Figure 4, §5).
    pub fn colocation(&self) -> &ColocationResult {
        (self.colocation).get_or_init(|| ColocationResult::finish(&self.probe_walk().latest_hops))
    }

    /// Site-change events per VP, target and family (Figure 3).
    pub fn stability(&self) -> &StabilityResult {
        (self.stability)
            .get_or_init(|| StabilityResult::finish(&self.probe_walk().series, &self.probes))
    }

    /// The virtual-time axis this pipeline's records live on: wall-clock
    /// second `schedule.start` is virtual t = 0 ms. Round times, scenario
    /// epochs ([`scenario::ScenarioEngine::time_axis`]) and transport
    /// fault windows all project through the same anchor, so "when" means
    /// one thing across the measurement, the change events, and the wire
    /// (DESIGN §12).
    pub fn time_axis(&self) -> simclock::TimeAxis {
        simclock::TimeAxis::anchored_at(self.scale.schedule().start)
    }

    /// The memoized pipeline for `scale`: built once per process, shared
    /// by every caller. Tests, examples and benches all read the same
    /// record streams, so rebuilding the world per call site only burned
    /// CPU — [`Pipeline::run`] stays available for callers that need a
    /// private instance (e.g. to compare two fresh runs).
    pub fn shared(scale: Scale) -> &'static Pipeline {
        static TINY: OnceLock<Pipeline> = OnceLock::new();
        static SMALL: OnceLock<Pipeline> = OnceLock::new();
        static PAPER: OnceLock<Pipeline> = OnceLock::new();
        let cell = match scale {
            Scale::Tiny => &TINY,
            Scale::Small => &SMALL,
            Scale::Paper => &PAPER,
        };
        cell.get_or_init(|| Pipeline::run(scale))
    }
}

/// The active measurement: the scheduled rounds, then the stale-site
/// windows a subsampled schedule skipped.
fn measure(world: &World, config: MeasurementConfig, workers: usize) -> vantage::VecSink {
    let engine = MeasurementEngine::new(world, config);
    let mut sink = engine.run_parallel(workers);
    for rounds in stale_reruns(&engine.config) {
        let extra = engine.run_rounds_parallel(&rounds, workers);
        sink.probes.extend(extra.probes);
        sink.transfers.extend(extra.transfers);
    }
    sink
}

/// The rounds to re-measure after the main schedule, one list a stale-site
/// window. Subsampled schedules can skip the short windows entirely; cover
/// them at full resolution (like the paper's 15-min bursts did around the
/// events it targeted), unless the main schedule already runs
/// unsubsampled. Rounds the main schedule already executed are skipped:
/// re-measuring them would duplicate (vp, time, target, family)
/// observations downstream.
fn stale_reruns(config: &MeasurementConfig) -> Vec<Vec<Round>> {
    let mut reruns = Vec::new();
    if config.schedule.subsample > 1 {
        let mut covered: HashSet<u32> = config.schedule.rounds().map(|r| r.time).collect();
        for window in &config.stale_windows {
            let rounds = focused_rounds(&config.schedule, window.from, window.until, &covered);
            if rounds.is_empty() {
                continue;
            }
            // Windows could overlap; never re-measure a round twice.
            covered.extend(rounds.iter().map(|r| r.time));
            reruns.push(rounds);
        }
    }
    reruns
}

/// The full-resolution rounds inside `[from, until)` that the (subsampled)
/// main schedule did not already execute.
fn focused_rounds(main: &Schedule, from: u32, until: u32, covered: &HashSet<u32>) -> Vec<Round> {
    let full = Schedule {
        start: from,
        end: until,
        subsample: 1,
        ..main.clone()
    };
    full.rounds()
        .filter(|r| !covered.contains(&r.time))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pipeline_produces_all_streams() {
        let p = Pipeline::shared(Scale::Tiny);
        assert!(!p.probes.is_empty());
        assert!(!p.transfers.is_empty());
        assert!(!p.isp_flows.is_empty());
        assert!(!p.ixp_flows_eu.is_empty());
        assert!(!p.ixp_flows_na.is_empty());
    }

    #[test]
    fn shared_is_memoized() {
        let a: *const Pipeline = Pipeline::shared(Scale::Tiny);
        let b: *const Pipeline = Pipeline::shared(Scale::Tiny);
        assert_eq!(a, b);
    }

    #[test]
    fn no_duplicate_probe_observations() {
        // The stale-window re-runs must skip rounds the subsampled main
        // schedule already executed; a duplicate (vp, time, target,
        // family) key would double-count the observation downstream.
        let p = Pipeline::shared(Scale::Tiny);
        let mut keys: Vec<_> = p
            .probes
            .iter()
            .map(|r| (r.vp, r.time, r.target, r.family))
            .collect();
        let total = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(
            keys.len(),
            total,
            "{} duplicate probe keys",
            total - keys.len()
        );
    }

    #[test]
    fn stale_window_reruns_start_warm_and_write_what_a_cold_world_does() {
        // The re-runs open fresh sessions on a world the main schedule has
        // just measured, so they read the probe plans it built instead of
        // building their own. A plan is a function of the route tables, the
        // VP and the near-equal slack alone; measuring changes none of
        // them, and a session's own state (Markov positions, redirect
        // geometry) starts fresh either way. So the same re-runs on a world
        // that never measured write the same records — the tail of the
        // pipeline's streams.
        let p = Pipeline::shared(Scale::Tiny);
        let cold = World::build(&Scale::Tiny.world());
        let engine = MeasurementEngine::new(
            &cold,
            MeasurementConfig {
                schedule: Scale::Tiny.schedule(),
                ..Default::default()
            },
        );
        let (mut probes, mut transfers) = (Vec::new(), Vec::new());
        for rounds in stale_reruns(&engine.config) {
            let sink = engine.run_rounds_parallel(&rounds, Scale::Tiny.workers());
            probes.extend(sink.probes);
            transfers.extend(sink.transfers);
        }
        assert!(!probes.is_empty() && !transfers.is_empty());
        assert!(p.probes[p.probes.len() - probes.len()..] == probes[..]);
        assert!(p.transfers[p.transfers.len() - transfers.len()..] == transfers[..]);
    }

    #[test]
    fn pipeline_and_scenario_engine_share_one_time_axis() {
        let p = Pipeline::shared(Scale::Tiny);
        let axis = p.time_axis();
        let schedule = Scale::Tiny.schedule();
        // The anchor is the schedule start: round times project onto
        // non-negative virtual ms, one second per 1000 ms.
        assert_eq!(axis.wall_to_ms(schedule.start), 0);
        assert_eq!(axis.wall_to_ms(schedule.start + 7), 7_000);
        // The scenario engine, configured for the same scale, lands on
        // the identical axis — epochs and fault windows agree on t = 0.
        let engine = scenario::ScenarioEngine::new(scenario::ScenarioConfig {
            base: vantage::MeasurementConfig {
                schedule,
                ..Default::default()
            },
            ..Default::default()
        });
        assert_eq!(engine.time_axis(), axis);
    }

    #[test]
    fn focused_rounds_skip_covered_times() {
        // A barely-subsampled main schedule executes rounds inside any
        // stale window; the focused re-run must exclude exactly those.
        let main = Schedule::subsampled(2);
        let windows = MeasurementConfig::default().stale_windows;
        let (from, until) = (windows[0].from, windows[0].until);
        let covered: HashSet<u32> = main.rounds().map(|r| r.time).collect();
        let covered_in_window = covered.iter().filter(|&&t| t >= from && t < until).count();
        assert!(
            covered_in_window > 0,
            "main schedule misses the window entirely"
        );
        let focused = focused_rounds(&main, from, until, &covered);
        assert!(!focused.is_empty());
        for r in &focused {
            assert!(r.time >= from && r.time < until);
            assert!(!covered.contains(&r.time), "round {} re-measured", r.time);
        }
        // Union covers the window's full-resolution grid.
        let full = Schedule {
            start: from,
            end: until,
            subsample: 1,
            ..main.clone()
        };
        assert_eq!(
            focused.len() + covered_in_window,
            full.round_count(),
            "focused ∪ covered must equal the full-resolution window"
        );
    }
}
