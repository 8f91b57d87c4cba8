//! Per-epoch diffing for scenario runs (before/during/after a change).
//!
//! A scenario run slices the measurement timeline into *epochs* at event
//! boundaries; every record belongs to exactly one epoch. This module
//! aggregates one [`EpochStats`] per slice for a focus letter — catchment
//! share per site, RTT per region/family, loss, validation failures — and
//! renders the epoch-over-epoch diff table (catchment shift %, RTT delta)
//! that answers the paper's operational question: what did the change do
//! to who is served from where, and at what latency?

use crate::catchment::CatchmentAccum;
use netgeo::Region;
use netsim::Family;
use rss::RootLetter;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use vantage::population::Population;
use vantage::records::ProbeRecord;

/// Aggregated observations of one scenario epoch for one letter.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Human label, e.g. `baseline` or `outage(d/3)`.
    pub label: String,
    /// Epoch bounds (seconds since epoch, half-open).
    pub start: u32,
    pub end: u32,
    /// Probes of the focus letter inside the epoch (both families).
    pub probe_count: usize,
    /// Fraction of those probes that got no answer.
    pub loss: f64,
    /// Catchment: fraction of answered probes served by each site.
    pub catchment: BTreeMap<u32, f64>,
    /// The shared catchment/RTT accumulator behind the fields above.
    accum: CatchmentAccum,
    /// Zone-validation failures observed during the epoch (filled by the
    /// scenario engine from the transfer pipeline).
    pub validation_failures: usize,
}

impl EpochStats {
    /// Aggregate `probes` (pre-filtered to one epoch's records) for
    /// `letter`. Records of other letters are ignored, so callers can pass
    /// the full per-epoch stream.
    pub fn compute(
        label: impl Into<String>,
        letter: RootLetter,
        population: &Population,
        probes: &[ProbeRecord],
        start: u32,
        end: u32,
    ) -> EpochStats {
        let mut accum = CatchmentAccum::new();
        for p in probes {
            if p.target.letter != letter {
                continue;
            }
            accum.observe(
                population.get(p.vp).region,
                p.family,
                p.site().map(|s| s.0),
                p.rtt_ms(),
            );
        }
        EpochStats {
            label: label.into(),
            start,
            end,
            probe_count: accum.observations(),
            loss: accum.loss(),
            catchment: accum.shares(),
            accum,
            validation_failures: 0,
        }
    }

    /// Mean RTT for (region, family), if any samples landed there.
    pub fn rtt_mean(&self, region: Region, family: Family) -> Option<f64> {
        self.accum.rtt_mean(region, family)
    }

    /// Sample-weighted mean RTT across all regions for one family.
    pub fn rtt_global_mean(&self, family: Family) -> Option<f64> {
        self.accum.rtt_global_mean(family)
    }

    /// Total-variation distance between this epoch's catchment and
    /// `other`'s, in [0, 1]: the fraction of traffic that moved to a
    /// different site. 0 = identical catchments, 1 = fully disjoint.
    pub fn catchment_shift(&self, other: &EpochStats) -> f64 {
        crate::catchment::catchment_shift(&self.catchment, &other.catchment)
    }
}

/// The per-epoch diff report of one scenario run for one letter.
#[derive(Debug, Clone)]
pub struct EpochDiffReport {
    pub letter: RootLetter,
    /// Epochs in timeline order.
    pub epochs: Vec<EpochStats>,
}

impl EpochDiffReport {
    /// Render the diff table: one row per epoch, shift/delta columns
    /// relative to the *previous* epoch.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Epoch diff report — {} ({} epochs)",
            self.letter.label(),
            self.epochs.len()
        );
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>7} {:>9} {:>12} {:>12} {:>12} {:>10}",
            "epoch", "probes", "loss%", "val.fail", "shift%", "ΔRTTv4 ms", "ΔRTTv6 ms", "top site"
        );
        for (i, e) in self.epochs.iter().enumerate() {
            let (shift, d4, d6) = if i == 0 {
                (None, None, None)
            } else {
                let prev = &self.epochs[i - 1];
                let delta = |family| match (e.rtt_global_mean(family), prev.rtt_global_mean(family))
                {
                    (Some(cur), Some(before)) => Some(cur - before),
                    _ => None,
                };
                (
                    Some(e.catchment_shift(prev) * 100.0),
                    delta(Family::V4),
                    delta(Family::V6),
                )
            };
            let fmt_opt = |v: Option<f64>| match v {
                Some(x) => format!("{x:+.2}"),
                None => "-".to_string(),
            };
            let top = e
                .catchment
                .iter()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(site, share)| format!("s{site}:{:.0}%", share * 100.0))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "{:<22} {:>8} {:>7.2} {:>9} {:>12} {:>12} {:>12} {:>10}",
                e.label,
                e.probe_count,
                e.loss * 100.0,
                e.validation_failures,
                match shift {
                    Some(s) => format!("{s:.1}"),
                    None => "-".to_string(),
                },
                fmt_opt(d4),
                fmt_opt(d6),
                top
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::anycast::SiteId;
    use vantage::population::VpId;
    use vantage::records::Target;
    use vantage::{World, WorldBuildConfig};

    fn probe(
        time: u32,
        vp: u32,
        letter: RootLetter,
        site: Option<u32>,
        rtt: Option<f64>,
        family: Family,
    ) -> ProbeRecord {
        let target = Target {
            letter,
            b_phase: rss::BRootPhase::Old,
        };
        ProbeRecord::new(time, VpId(vp), target, family)
            .with_site(site.map(SiteId))
            .with_rtt_ms(rtt)
    }

    #[test]
    fn catchment_shift_is_total_variation() {
        let world = World::build(&WorldBuildConfig::tiny());
        let letter = RootLetter::D;
        let mk = |sites: &[u32]| {
            let probes: Vec<ProbeRecord> = sites
                .iter()
                .map(|&s| probe(0, 0, letter, Some(s), Some(10.0), Family::V4))
                .collect();
            EpochStats::compute("e", letter, &world.population, &probes, 0, 100)
        };
        let a = mk(&[1, 1, 2, 2]);
        let same = mk(&[1, 2, 1, 2]);
        let half = mk(&[1, 1, 3, 3]);
        let disjoint = mk(&[4, 4, 5, 5]);
        assert!(a.catchment_shift(&same).abs() < 1e-12);
        assert!((a.catchment_shift(&half) - 0.5).abs() < 1e-12);
        assert!((a.catchment_shift(&disjoint) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_aggregate_loss_and_rtt() {
        let world = World::build(&WorldBuildConfig::tiny());
        let letter = RootLetter::A;
        let probes = vec![
            probe(0, 0, letter, Some(1), Some(10.0), Family::V4),
            probe(0, 0, letter, Some(1), Some(30.0), Family::V4),
            probe(0, 0, letter, None, None, Family::V4),
            // Other letters must be ignored.
            probe(0, 0, RootLetter::B, Some(9), Some(99.0), Family::V4),
        ];
        let e = EpochStats::compute("e", letter, &world.population, &probes, 0, 100);
        assert_eq!(e.probe_count, 3);
        assert!((e.loss - 1.0 / 3.0).abs() < 1e-12);
        let region = world.population.get(VpId(0)).region;
        assert_eq!(e.rtt_mean(region, Family::V4), Some(20.0));
        assert_eq!(e.rtt_global_mean(Family::V4), Some(20.0));
        assert_eq!(e.rtt_mean(region, Family::V6), None);
    }

    #[test]
    fn report_renders_one_row_per_epoch() {
        let world = World::build(&WorldBuildConfig::tiny());
        let letter = RootLetter::C;
        let probes = vec![probe(0, 0, letter, Some(1), Some(10.0), Family::V4)];
        let e = EpochStats::compute("baseline", letter, &world.population, &probes, 0, 100);
        let mut during = e.clone();
        during.label = "during".into();
        let report = EpochDiffReport {
            letter,
            epochs: vec![e, during],
        };
        let rendered = report.render();
        assert!(rendered.contains("baseline"));
        assert!(rendered.contains("during"));
        assert_eq!(rendered.lines().count(), 4);
    }
}
