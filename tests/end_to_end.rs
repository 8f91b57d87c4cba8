//! End-to-end integration: the full pipeline at tiny scale, with
//! cross-crate consistency checks between the world, the record streams
//! and every analysis.

use analysis::colocation::ColocationResult;
use analysis::coverage::CoverageReport;
use analysis::rtt::RttByRegion;
use analysis::stability::StabilityResult;
use analysis::zonemd_pipeline::validate_transfers;
use netsim::Family;
use roots_core::{experiments, Pipeline, Scale};

fn pipeline() -> &'static Pipeline {
    Pipeline::shared(Scale::Tiny)
}

#[test]
fn probes_reference_valid_catalog_sites() {
    let p = pipeline();
    for probe in &p.probes {
        if let Some(site) = probe.site() {
            // site() panics if unknown — this is the consistency check.
            let row = p.world.catalog.site(probe.target.letter, site);
            assert_eq!(row.letter, probe.target.letter);
        }
    }
}

#[test]
fn probe_times_respect_schedule_window() {
    let p = pipeline();
    let schedule = p.scale.schedule();
    for probe in &p.probes {
        assert!(probe.time >= schedule.start && probe.time < schedule.end);
    }
}

#[test]
fn transfers_only_from_reachable_probes() {
    let p = pipeline();
    // Every transfer must have a serial (site answered).
    for t in &p.transfers {
        assert!(t.serial().is_some());
    }
}

#[test]
fn v6_probes_only_from_v6_vps() {
    let p = pipeline();
    for probe in &p.probes {
        if probe.family == Family::V6 {
            assert!(p.world.population.get(probe.vp).has_v6);
        }
    }
}

#[test]
fn all_experiments_nonempty() {
    let p = pipeline();
    let all = experiments::run_all(p);
    for id in [
        "table1", "table2", "table3", "table4", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
        "fig9", "fig10", "fig11", "fig12", "fig13",
    ] {
        assert!(all.contains(&format!("==== {id} ")), "missing {id}");
    }
}

#[test]
fn coverage_never_exceeds_catalog() {
    let p = pipeline();
    let report = CoverageReport::compute(&p.world.catalog, &p.probes);
    let covered: u32 = report.worldwide.iter().map(|r| r.total_covered()).sum();
    let total: u32 = report.worldwide.iter().map(|r| r.total_sites()).sum();
    assert!(covered <= total);
    assert_eq!(total as usize, p.world.catalog.sites.len());
}

#[test]
fn stability_counts_bounded_by_rounds() {
    let p = pipeline();
    let rounds = p.scale.schedule().round_count() as u64;
    let result = StabilityResult::compute(&p.probes);
    for series in &result.series {
        for &changes in series.changes_per_vp.values() {
            assert!(changes < rounds, "{changes} changes in {rounds} rounds");
        }
    }
}

#[test]
fn colocation_bounded_by_letter_count() {
    let p = pipeline();
    let result = ColocationResult::compute(&p.probes);
    for r in &result.per_vp {
        assert!(r.letters_observed <= 13);
        assert!(r.reduced <= 12);
    }
}

#[test]
fn rtt_regions_only_have_their_own_vps() {
    let p = pipeline();
    let rtt = RttByRegion::compute(&p.world.population, &p.probes);
    // Total samples across regions equals reachable probes.
    let mut total = 0usize;
    for r in netgeo::Region::ALL {
        for t in &rtt.targets {
            for f in Family::BOTH {
                if let Some(s) = rtt.get(r, *t, f) {
                    total += s.n;
                }
            }
        }
    }
    let reachable = p.probes.iter().filter(|p| p.rtt_ms().is_some()).count();
    assert_eq!(total, reachable);
}

#[test]
fn table2_transfers_match_stream() {
    let p = pipeline();
    let table = validate_transfers(&p.world, &p.transfers);
    assert_eq!(table.total_transfers as usize, p.transfers.len());
    // Every failing class the engine injected appears.
    let has_bitflip = p.transfers.iter().any(|t| {
        matches!(
            t.fault(),
            Some(vantage::records::TransferFault::Bitflip { .. })
        )
    });
    if has_bitflip {
        assert!(table
            .rows
            .iter()
            .any(|r| r.reason == analysis::zonemd_pipeline::FailureReason::BogusSignature));
    }
}

#[test]
fn deterministic_pipeline() {
    // Two tiny pipelines agree on the record counts and the first records.
    let a = Pipeline::run(Scale::Tiny);
    let b = Pipeline::run(Scale::Tiny);
    assert_eq!(a.probes.len(), b.probes.len());
    assert_eq!(a.transfers.len(), b.transfers.len());
    assert_eq!(a.probes.first(), b.probes.first());
    assert_eq!(a.isp_flows.len(), b.isp_flows.len());
}

#[test]
fn dataset_files_read_back_the_streams_they_were_written_from() {
    use vantage::dataset::{read_probes, read_transfers, write_probes, write_transfers};
    let p = pipeline();
    let seed = p.world.seed();
    let mut buf = Vec::new();
    write_probes(&mut buf, &p.probes, seed).unwrap();
    let (header, probes) = read_probes(buf.as_slice()).unwrap();
    assert_eq!(header.seed, seed);
    assert!(probes == p.probes);
    buf.clear();
    write_transfers(&mut buf, &p.transfers, seed).unwrap();
    let (_, transfers) = read_transfers(buf.as_slice()).unwrap();
    assert!(transfers == p.transfers);
    // The streams hold timeouts, answers without a hop and stale copies.
    assert!(p.probes.iter().any(|r| r.site().is_none()));
    assert!((p.probes.iter()).any(|r| r.site().is_some() && r.second_to_last_hop().is_none()));
    assert!((p.transfers.iter())
        .any(|t| matches!(t.fault(), Some(vantage::TransferFault::Stale { .. }))));
}
