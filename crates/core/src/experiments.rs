//! The experiment registry: one entry per table and figure of the paper.
//!
//! Each experiment consumes the shared [`Pipeline`] streams and renders a
//! text artefact mirroring its paper counterpart. `EXPERIMENTS.md` in the
//! repository root records the paper-vs-measured comparison for every id.

use crate::pipeline::Pipeline;
use analysis::clients::ClientAnalysis;
use analysis::distance::DistanceResult;
use analysis::traffic::{all_roots_series, render_all_roots, BRootShift};
use analysis::zonemd_pipeline::{bitflip_report, validate_transfers};
use dns_crypto::validity::timestamp_from_ymd as ts;
use netgeo::Region;
use netsim::Family;
use rss::{BRootPhase, RootLetter};
use traces::flows::DayBucket;
use vantage::records::{Target, TransferFault};

/// One registered experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Stable id (`table1`, `fig3`, …).
    pub id: &'static str,
    /// Which paper artefact it regenerates.
    pub paper_ref: &'static str,
    /// Runner.
    pub run: fn(&Pipeline) -> String,
}

/// All experiments, paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            paper_ref: "Table 1: coverage of root sites (worldwide)",
            run: |p| p.coverage().render_table1(),
        },
        Experiment {
            id: "table2",
            paper_ref: "Table 2: ZONEMD validation errors for zones from AXFRs",
            run: |p| validate_transfers(&p.world, &p.transfers).render(),
        },
        Experiment {
            id: "table3",
            paper_ref: "Table 3: distribution of vantage points per region",
            run: table3,
        },
        Experiment {
            id: "table4",
            paper_ref: "Table 4: coverage of root sites per region",
            run: |p| p.coverage().render_table4(),
        },
        Experiment {
            id: "fig1",
            paper_ref: "Figure 1: VP locations and f.root instance coverage",
            run: fig1,
        },
        Experiment {
            id: "fig2",
            paper_ref: "Figure 2: measurement timeline and root zone events",
            run: fig2,
        },
        Experiment {
            id: "fig3",
            paper_ref: "Figure 3: complementary eCDF of change events for {b,g}.root",
            run: fig3,
        },
        Experiment {
            id: "fig4",
            paper_ref: "Figure 4: reduced redundancy due to shared last hop",
            run: |p| p.colocation().render_fig4(&p.world.population),
        },
        Experiment {
            id: "fig5",
            paper_ref: "Figure 5: distance per request from VPs to root sites",
            run: fig5,
        },
        Experiment {
            id: "fig6",
            paper_ref: "Figure 6: RTTs of requests by continent",
            run: |p| {
                p.rtt_by_region().render_fig6(&[
                    Region::Africa,
                    Region::SouthAmerica,
                    Region::NorthAmerica,
                    Region::Europe,
                ])
            },
        },
        Experiment {
            id: "fig7",
            paper_ref: "Figure 7: ISP traffic to b.root before/after change",
            run: fig7,
        },
        Experiment {
            id: "fig8",
            paper_ref: "Figure 8: ISP mean # of unique client subnets per day",
            run: fig8,
        },
        Experiment {
            id: "fig9",
            paper_ref: "Figure 9: IXP IPv6 traffic to b.root (NA vs EU)",
            run: fig9,
        },
        Experiment {
            id: "fig10",
            paper_ref: "Figure 10: bitflip in RRSIG in zone from AXFR",
            run: fig10,
        },
        Experiment {
            id: "fig11",
            paper_ref: "Figure 11: coverage of root server locations (all letters)",
            run: fig11,
        },
        Experiment {
            id: "fig12",
            paper_ref: "Figure 12: ISP traffic to all roots",
            run: |p| {
                render_all_roots(
                    &all_roots_series(&p.isp_flows),
                    "Figure 12: ISP traffic shares (2024-02-05..2024-03-04)",
                    DayBucket::of(ts("20240205000000").unwrap()),
                    DayBucket::of(ts("20240304000000").unwrap()),
                )
            },
        },
        Experiment {
            id: "fig13",
            paper_ref: "Figure 13: IXP traffic to all roots",
            run: |p| {
                render_all_roots(
                    &all_roots_series(p.ixp_flows_eu.iter().chain(&p.ixp_flows_na)),
                    "Figure 13: IXP traffic shares (2023-11-01..2023-12-22)",
                    DayBucket::of(ts("20231101000000").unwrap()),
                    DayBucket::of(ts("20231222000000").unwrap()),
                )
            },
        },
        Experiment {
            id: "sec5",
            paper_ref: "§5 headline: co-location prevalence",
            run: sec5,
        },
        Experiment {
            id: "fig14",
            paper_ref: "Figure 14/15: RTTs by continent (all six regions)",
            run: |p| p.rtt_by_region().render_fig6(&Region::ALL),
        },
        Experiment {
            id: "sec6_paths",
            paper_ref: "§6 extension: routing-information view of v4/v6 asymmetries",
            run: |p| {
                analysis::paths::render_transit_report(
                    &p.world,
                    &[RootLetter::A, RootLetter::I, RootLetter::L],
                )
            },
        },
        Experiment {
            id: "sec7_channels",
            paper_ref: "§7: CZDS and IANA website validation timelines",
            run: sec7_channels,
        },
        Experiment {
            id: "scenario_demo",
            paper_ref: "extension: epoch diffs under injected change events (scenario engine)",
            run: |_| scenario_demo(),
        },
        Experiment {
            id: "rootd_demo",
            paper_ref: "extension: wire-level root serving under B-Root-shaped load (rootd)",
            run: |_| rootd_demo(),
        },
    ]
}

/// The serving-layer demo: B-Root's anycast fleet as wire-level engines
/// under a short seeded load. `Tiny` scale and memoized, like
/// [`scenario_demo`] — the entry demonstrates the serving path, not
/// paper-scale throughput (that is `examples/rootd_bench.rs`).
fn rootd_demo() -> String {
    crate::serving::ServingPipeline::shared_demo().render_deterministic()
}

/// The scenario-engine demo: the built-in outage → renumbering → flap
/// timeline, rendered as per-epoch diff reports for the affected letters.
/// Runs at `Tiny` scale regardless of the pipeline's scale — the section
/// demonstrates the engine, not paper-scale numbers — and is memoized, so
/// repeated registry runs pay for one scenario run.
fn scenario_demo() -> String {
    let p = crate::scenarios::ScenarioPipeline::shared_demo();
    let mut out = format!(
        "Scenario '{}': {} epochs\n",
        p.run.scenario_name,
        p.run.epochs.len()
    );
    for letter in [RootLetter::D, RootLetter::B, RootLetter::G] {
        out.push_str(&p.report(letter).render());
        out.push('\n');
    }
    out
}

fn sec7_channels(p: &Pipeline) -> String {
    use dns_zone::channels::{snapshots, validate_channel, Channel};
    let from = ts("20231201000000").unwrap();
    let until = ts("20231210000000").unwrap();
    let mut out = String::from(
        "§7 distribution channels (window 2023-12-01..2023-12-10, straddling the switch)\n",
    );
    for channel in [Channel::Czds, Channel::IanaWebsite] {
        // The channel snapshots reuse the world's keys so DNSSEC chains
        // match the AXFR-visible zones.
        let snaps = snapshots(channel, from, until, &p.world.keys, 10);
        let report = validate_channel(&snaps);
        out.push_str(&format!(
            "  {:12?}: {:4} files | no-record {:3} unverifiable {:3} validating {:3} invalid {}\n",
            channel,
            report.total,
            report.no_record,
            report.unverifiable,
            report.validating,
            report.invalid,
        ));
    }
    out.push_str("  paper: no issues in CZDS/IANA downloads; validation starts 12-07/12-06\n");
    out
}

/// Run one experiment by id.
pub fn run_one(pipeline: &Pipeline, id: &str) -> Option<String> {
    registry()
        .into_iter()
        .find(|e| e.id == id)
        .map(|e| (e.run)(pipeline))
}

/// Run every experiment, concatenating artefacts in registry order.
pub fn run_all(pipeline: &Pipeline) -> String {
    run_selected(pipeline, &registry())
}

/// The registered experiments `ids` name, in the order given. `Err`
/// carries the ids that are not registered.
pub fn select(ids: &[&str]) -> Result<Vec<Experiment>, Vec<String>> {
    let registry = registry();
    let (mut selected, mut unknown) = (Vec::new(), Vec::new());
    for id in ids {
        match registry.iter().find(|e| e.id == *id) {
            Some(e) => selected.push(*e),
            None => unknown.push(id.to_string()),
        }
    }
    if unknown.is_empty() {
        Ok(selected)
    } else {
        Err(unknown)
    }
}

/// Run `experiments`, concatenating their sections in slice order, each
/// under its `==== id [paper_ref] ====` header: a section of a subset run
/// can be diffed against the full report's.
///
/// Experiments only read the pipeline, so they run concurrently on a
/// worker pool; each worker claims the next unstarted experiment from a
/// shared counter and writes into its own slot, and the slots are joined
/// in slice order afterwards — the output is byte-identical to a serial
/// loop.
pub fn run_selected(pipeline: &Pipeline, experiments: &[Experiment]) -> String {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(experiments.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut sections: Vec<Option<String>> = (0..experiments.len()).map(|_| None).collect();
    let collected: std::sync::Mutex<Vec<(usize, String)>> =
        std::sync::Mutex::new(Vec::with_capacity(experiments.len()));
    crossbeam::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(e) = experiments.get(i) else { break };
                let mut section = format!("==== {} [{}] ====\n", e.id, e.paper_ref);
                section.push_str(&(e.run)(pipeline));
                section.push('\n');
                collected.lock().unwrap().push((i, section));
            });
        }
    })
    .expect("experiment worker panicked");
    for (i, section) in collected.into_inner().unwrap() {
        sections[i] = Some(section);
    }
    sections
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

fn table3(p: &Pipeline) -> String {
    let mut out = String::from("Table 3: distribution of vantage points per region\n");
    for region in Region::ALL {
        let vps: Vec<_> = p.world.population.in_region(region).collect();
        let networks: std::collections::HashSet<_> = vps.iter().map(|v| v.asn).collect();
        out.push_str(&format!(
            "  {:13} #VPs {:3}  unique networks {:3}\n",
            region.name(),
            vps.len(),
            networks.len()
        ));
    }
    out.push_str(&format!(
        "  total VPs {} in {} networks\n",
        p.world.population.len(),
        p.world.population.unique_networks()
    ));
    out
}

fn fig1(p: &Pipeline) -> String {
    let map = p.coverage().site_map(&p.world.catalog, RootLetter::F);
    let observed = map.iter().filter(|e| e.observed).count();
    let mut out = format!(
        "Figure 1: {} VPs; f.root sites observed {}/{}\n",
        p.world.population.len(),
        observed,
        map.len()
    );
    for region in Region::ALL {
        let (obs, tot) = map
            .iter()
            .filter(|e| e.region == region)
            .fold((0, 0), |(o, t), e| (o + e.observed as usize, t + 1));
        out.push_str(&format!(
            "  {:13} {obs}/{tot} f.root sites observed\n",
            region.name()
        ));
    }
    out
}

fn fig2(p: &Pipeline) -> String {
    let s = &MeasurementScheduleView::of(p);
    format!(
        "Figure 2: measurement timeline\n\
         start {}  end {}\n\
         rounds executed: {}\n\
         burst windows (15 min): {}\n\
         ZONEMD added (private alg): 2023-09-13; validates: 2023-12-06\n\
         b.root IP change: 2023-11-27\n",
        dns_crypto::validity::timestamp_to_ymd(s.start),
        dns_crypto::validity::timestamp_to_ymd(s.end),
        s.rounds,
        s.bursts,
    )
}

struct MeasurementScheduleView {
    start: u32,
    end: u32,
    rounds: usize,
    bursts: usize,
}

impl MeasurementScheduleView {
    fn of(p: &Pipeline) -> MeasurementScheduleView {
        let schedule = p.scale.schedule();
        MeasurementScheduleView {
            start: schedule.start,
            end: schedule.end,
            rounds: schedule.round_count(),
            bursts: schedule.burst_windows.len(),
        }
    }
}

fn fig3(p: &Pipeline) -> String {
    p.stability().render_fig3(&[
        Target {
            letter: RootLetter::B,
            b_phase: BRootPhase::Old,
        },
        Target {
            letter: RootLetter::B,
            b_phase: BRootPhase::New,
        },
        Target {
            letter: RootLetter::G,
            b_phase: BRootPhase::Old,
        },
    ])
}

fn fig5(p: &Pipeline) -> String {
    let new_b = Target {
        letter: RootLetter::B,
        b_phase: BRootPhase::New,
    };
    let m = Target {
        letter: RootLetter::M,
        b_phase: BRootPhase::Old,
    };
    let panels = [new_b, m].map(|t| Family::BOTH.map(|family| (t, family)));
    let results = DistanceResult::compute_panels(
        &p.world.catalog,
        &p.world.population,
        &p.probes,
        panels.as_flattened(),
    );
    results.iter().map(DistanceResult::render).collect()
}

fn fig7(p: &Pipeline) -> String {
    let shift = BRootShift::compute(&p.isp_flows);
    let mut out = shift.render(
        "Figure 7a: ISP b.root traffic, pre-change day 2023-10-08",
        DayBucket::of(ts("20231008000000").unwrap()),
        DayBucket::of(ts("20231009000000").unwrap()),
    );
    out.push_str(&shift.render(
        "Figure 7b: ISP b.root traffic, 2024-02-05..2024-03-04",
        DayBucket::of(ts("20240205000000").unwrap()),
        DayBucket::of(ts("20240304000000").unwrap()),
    ));
    out.push_str(&shift.render(
        "Figure 7c: ISP b.root traffic, 2024-04-22..2024-04-29",
        DayBucket::of(ts("20240422000000").unwrap()),
        DayBucket::of(ts("20240429000000").unwrap()),
    ));
    out
}

fn fig8(p: &Pipeline) -> String {
    ClientAnalysis::compute(
        &p.isp_flows,
        DayBucket::of(ts("20240205000000").unwrap()),
        DayBucket::of(ts("20240304000000").unwrap()),
    )
    .render_fig8()
}

fn fig9(p: &Pipeline) -> String {
    let from = DayBucket::of(ts("20231128000000").unwrap());
    let until = DayBucket::of(ts("20231228000000").unwrap());
    let na = BRootShift::compute(&p.ixp_flows_na);
    let eu = BRootShift::compute(&p.ixp_flows_eu);
    let mut out = na.render("Figure 9a: IXP North America (post-change)", from, until);
    out.push_str(&eu.render("Figure 9b: IXP Europe (post-change)", from, until));
    out.push_str(&format!(
        "v6 traffic shifted to new address: NA {:.1}%  EU {:.1}%\n",
        na.in_family_shift(Family::V6, from, until) * 100.0,
        eu.in_family_shift(Family::V6, from, until) * 100.0,
    ));
    out
}

fn fig10(p: &Pipeline) -> String {
    // Find a bitflipped transfer and render the two-line diff.
    let flipped = p
        .transfers
        .iter()
        .find(|t| matches!(t.fault(), Some(TransferFault::Bitflip { .. })));
    match flipped {
        Some(t) => match bitflip_report(&p.world, t) {
            Some(report) => format!(
                "Figure 10: bitflip in zone from AXFR (vp{} {} {})\n\
                 reference: {}\n\
                 observed : {}\n",
                t.vp.0,
                t.target.label(),
                t.family.label(),
                report.reference_line,
                report.observed_line
            ),
            None => "Figure 10: bitflip produced a multi-record diff (unexpected)\n".into(),
        },
        None => "Figure 10: no bitflipped transfer occurred in this (subsampled) run; \
             rerun at a larger scale or higher flip rate\n"
            .into(),
    }
}

fn fig11(p: &Pipeline) -> String {
    let mut out = String::from("Figure 11: per-letter site coverage\n");
    for letter in RootLetter::ALL {
        let map = p.coverage().site_map(&p.world.catalog, letter);
        let observed = map.iter().filter(|e| e.observed).count();
        out.push_str(&format!(
            "  {}: {}/{} sites observed\n",
            letter.label(),
            observed,
            map.len()
        ));
    }
    out
}

fn sec5(p: &Pipeline) -> String {
    let result = p.colocation();
    format!(
        "§5 takeaway: {:.1}% of VPs observe co-location of >=2 root letters; \
         maximum co-located letters observed: {}\n",
        result.fraction_with_colocation(2) * 100.0,
        result.max_reduced() + 1
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn pipeline() -> &'static Pipeline {
        Pipeline::shared(Scale::Tiny)
    }

    #[test]
    fn registry_ids_unique_and_complete() {
        let reg = registry();
        let ids: std::collections::HashSet<&str> = reg.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), reg.len());
        for required in [
            "table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
        ] {
            assert!(ids.contains(required), "missing {required}");
        }
    }

    #[test]
    fn every_experiment_runs_and_produces_output() {
        let p = pipeline();
        for e in registry() {
            let out = (e.run)(p);
            assert!(!out.is_empty(), "{} empty", e.id);
        }
    }

    #[test]
    fn run_one_and_run_all() {
        let p = pipeline();
        assert!(
            run_one(p, "table3").unwrap().contains("675")
                || run_one(p, "table3").unwrap().contains("total VPs")
        );
        assert!(run_one(p, "nope").is_none());
        let all = run_all(p);
        assert!(all.contains("==== table1"));
        assert!(all.contains("==== fig13"));
    }

    #[test]
    fn selection_is_by_registry_membership_and_prints_run_alls_sections() {
        let p = pipeline();
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        let all = run_all(p);
        assert_eq!(run_selected(p, &select(&ids).unwrap()), all);
        // The two demos carry no `table` / `fig` / `sec` prefix and are
        // selectable like any other id; sections come in the order named,
        // each exactly as the full report prints it.
        let named = ["rootd_demo", "scenario_demo", "fig2"];
        let section = |id: &str| {
            let start = all.find(&format!("==== {id} [")).expect("section");
            let len = all[start + 1..].find("\n==== ");
            &all[start..len.map_or(all.len(), |n| start + n + 2)]
        };
        assert_eq!(
            run_selected(p, &select(&named).unwrap()),
            named.map(section).concat()
        );
        assert!(select(&[]).unwrap().is_empty());
        // A typo is an error that names it; so is a scale's name.
        let unknown = |ids: &[&str]| select(ids).err().expect("unknown ids");
        assert_eq!(unknown(&["fig2", "fgi3", "table9"]), ["fgi3", "table9"]);
        assert_eq!(unknown(&["small"]), ["small"]);
    }

    #[test]
    fn run_all_matches_serial_concatenation() {
        // The worker pool must not reorder or interleave sections.
        let p = pipeline();
        let serial: String = registry()
            .iter()
            .map(|e| format!("==== {} [{}] ====\n{}\n", e.id, e.paper_ref, (e.run)(p)))
            .collect();
        assert_eq!(run_all(p), serial);
    }

    #[test]
    fn table3_matches_population() {
        let p = pipeline();
        let out = table3(p);
        assert!(out.contains(&format!("total VPs {}", p.world.population.len())));
    }

    #[test]
    fn sec5_reports_prevalent_colocation() {
        let p = pipeline();
        let out = sec5(p);
        // Co-location must be prevalent in the built world (paper: ~70%).
        let pct: f64 = out
            .split('%')
            .next()
            .unwrap()
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(pct > 30.0, "co-location fraction too low: {pct}");
    }
}
