//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same tables for the driver; a unit test
//! keeps the two in step.
//!
//! Every workload reports every metric. An end-to-end metric is therefore
//! a *role* each workload fills with its own quantity (README.md has the
//! table); a layer a workload never enters reports 0.

/// Seconds one run measures when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 10;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0x2024_0610;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "farm_hit",
        why: "8-TLD zone, B-Root mix, 13 letters x 296 sites: cache-resident and 100% cache hits, so generate + steer + batch + tally are ~45% of a query; the ROADMAP headline wall_qps",
    },
    WorkloadSpec {
        name: "farm_rootzone",
        why: "same code and mix on a root-sized zone (1500 TLDs, 21k records): working set far beyond the CPU caches, the answer-cache lookup dominates and generator work is under 20%",
    },
    WorkloadSpec {
        name: "farm_slowpath",
        why: "root-sized zone, qtypes HTTPS/SRV/PTR outside the 13 cached types: 80% of queries bypass the precompiled cache and take parse -> ZoneIndex -> dns-wire encode",
    },
    WorkloadSpec {
        name: "farm_reload",
        why: "zone pushes beside reads on a root-sized farm: each block validates, indexes, rebuilds the cache and swaps one letter's epoch, then serves 500k queries; shows what replicas or precomputation cost",
    },
    WorkloadSpec {
        name: "farm_chaos",
        why: "8-TLD farm under two crashes, a blackhole, a stall, a poisoned reload and an 8x junk flood: the only path through health timelines, re-steering, hedging and shedding",
    },
    WorkloadSpec {
        name: "pipeline_small",
        why: "the paper's measurement -> analysis run (Pipeline::run(Small) + run_all: 174 simulated days, 7.5M records, 23 tables/figures); no serving code, so a serving gain must not move it",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

impl EndToEnd {
    /// How much worse `new` is than `old`, as a share of `old` (negative
    /// when it is better).
    pub fn worsening(&self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self.better {
            Better::Lower => (new - old) / old.abs(),
            Better::Higher => (old - new) / old.abs(),
        }
    }
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "block_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ns",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_ns",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Ids of `roots_core::experiments::registry()`, in registry order; one
/// `analysis.exp.<id>_ms` layer metric each. The pipeline run fails if
/// the registry and this list disagree.
pub const EXPERIMENT_IDS: [&str; 23] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "sec5",
    "fig14",
    "sec6_paths",
    "sec7_channels",
    "scenario_demo",
    "rootd_demo",
];

use Better::{Higher, Lower};

/// Per-layer metrics other than the per-experiment times.
pub const PER_LAYER: [PerLayer; 42] = [
    // -> throughput on farm_hit; predicted no move on farm_slowpath.
    layer("netsim.rng.derive_ns", "ns", Lower),
    layer("rootd.farm.steer_ns", "ns", Lower),
    layer("rootd.transport.batch_push_ns", "ns", Lower),
    layer("rootd.farm.unattributed_ns", "ns", Lower),
    // -> throughput, op_p50_ns on farm_rootzone (and farm_hit).
    layer("rootd.engine.serve_hit_ns", "ns", Lower),
    layer("rootd.cache.hit_frac", "ratio", Higher),
    layer("rootd.farm.busy_frac", "ratio", Lower),
    // -> throughput, op_p50_ns on farm_slowpath.
    layer("rootd.engine.serve_fallback_ns", "ns", Lower),
    layer("rootd.engine.fallback_frac", "ratio", Lower),
    layer("dns_wire.encode_query_ns", "ns", Lower),
    layer("dns_wire.decode_response_ns", "ns", Lower),
    // -> block_ms, peak_rss_mb on farm_reload; setup_s on root-sized zones.
    layer("dns_zone.zonemd_ms", "ms", Lower),
    layer("dns_zone.validate_ms", "ms", Lower),
    layer("rootd.index.build_ms", "ms", Lower),
    layer("rootd.cache.build_ms", "ms", Lower),
    layer("rootd.engine.reload_unattributed_ms", "ms", Lower),
    layer("rootd.farm.rss_per_reload_mb", "MB", Lower),
    // -> throughput on farm_chaos; the served share must stay >= 0.99.
    layer("rootd.farm.chaos.legit_served_frac", "ratio", Higher),
    layer("rootd.recovery.control_plane_ms", "ms", Lower),
    layer("netsim.routing.propagate_ms", "ms", Lower),
    layer("rootd.farm.chaos.served_hedged", "count", Higher),
    layer("rootd.farm.chaos.shed_junk", "count", Higher),
    layer("rootd.farm.chaos.shed_benign", "count", Lower),
    layer("rootd.farm.chaos.late", "count", Lower),
    layer("rootd.farm.chaos.unanswered", "count", Lower),
    layer("rootd.farm.chaos.reloads_rejected", "count", Higher),
    layer("rootd.farm.chaos.steering_epochs", "count", Lower),
    layer("rootd.farm.chaos.probes", "count", Lower),
    // -> throughput, block_ms on pipeline_small.
    layer("vantage.world_build_ms", "ms", Lower),
    layer("vantage.measure_s", "s", Lower),
    layer("vantage.records_per_s", "1/s", Higher),
    layer("traces.generate_s", "s", Lower),
    layer("core.pipeline.overlap_frac", "ratio", Higher),
    layer("analysis.run_all_s", "s", Lower),
    // Diagnostics: never the basis of a claim.
    layer("rootd.farm.scale_nproc_x", "ratio", Higher),
    layer("rootd.transport.loopback_qps", "1/s", Higher),
    layer("rootd.transport.loopback_batch_rtt_us", "us", Lower),
    layer("rootd.farm.aggregate_qps", "1/s", Higher),
    layer("probe.serve_p99_ns", "ns", Lower),
    layer("env.cpu_wall_ratio", "ratio", Higher),
    layer("env.timer_overhead_ns", "ns", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// Name of the per-experiment layer metric for registry id `id`.
pub fn experiment_metric(id: &str) -> String {
    format!("analysis.exp.{id}_ms")
}

/// Every per-layer metric as (name, unit, better), table order.
pub fn per_layer_all() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<_> = PER_LAYER
        .iter()
        .map(|l| (l.name.to_string(), l.unit, l.better))
        .collect();
    all.extend(
        EXPERIMENT_IDS
            .iter()
            .map(|id| (experiment_metric(id), "ms", Lower)),
    );
    all
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Get, Value};

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Get::as_str)
            .unwrap_or_else(|| panic!("string field {key}"))
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Get::as_f64),
            Some(RUN_SECONDS as f64)
        );

        let workloads = doc.get("workloads").and_then(Get::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(j, "name"), w.name);
            assert_eq!(text(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        let e2e = doc.get("end_to_end").and_then(Get::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Get::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        // Set-up time carries the largest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let layers = doc.get("per_layer").and_then(Get::as_array).unwrap();
        let ours = per_layer_all();
        assert_eq!(layers.len(), ours.len());
        assert!(ours.len() <= 128);
        for (j, (name, unit, better)) in layers.iter().zip(&ours) {
            assert_eq!(text(j, "name"), name);
            assert_eq!(text(j, "unit"), *unit);
            assert_eq!(text(j, "better"), better.as_str());
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(per_layer_all().into_iter().map(|(n, _, _)| n));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric or workload name");
    }

    #[test]
    fn worsening_respects_direction() {
        let qps = &END_TO_END[1];
        assert!((qps.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(qps.worsening(100.0, 110.0) < 0.0);
        let ms = &END_TO_END[2];
        assert!((ms.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
    }
}
