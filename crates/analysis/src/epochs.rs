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

/// Traffic-level view of one attack-run epoch: what the *serving* layer
/// did to benign and adversarial queries while a flood window was (or
/// was not) active. Plain data — the `rootd` attack engine fills one of
/// these per epoch; this module only diffs and renders them, the same
/// division of labor as [`EpochStats`] vs the scenario engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FloodEpoch {
    /// Human label, e.g. `quiet` or `flood×10(bots=32)`.
    pub label: String,
    /// Epoch bounds on the virtual clock (ms, half-open).
    pub start_ms: u64,
    pub end_ms: u64,
    /// Benign queries sent / answered in full (over UDP directly, or
    /// over TCP after a slip — `legit_served` already counts the
    /// recoveries) / slipped (TC=1) / recovered over TCP after a slip /
    /// dropped outright.
    pub legit_sent: u64,
    pub legit_served: u64,
    pub legit_slipped: u64,
    pub legit_slip_recovered: u64,
    pub legit_dropped: u64,
    /// Benign end-to-end latency quantiles (virtual-run wall ns).
    pub legit_p50_ns: u64,
    pub legit_p99_ns: u64,
    /// Attack queries sent and their rate-limit fates.
    pub attack_sent: u64,
    pub attack_passed: u64,
    pub attack_slipped: u64,
    pub attack_dropped: u64,
}

impl FloodEpoch {
    /// Fraction of benign queries that ended with a full answer (slip
    /// recoveries are already inside `legit_served`). 1.0 when none were
    /// sent.
    pub fn served_fraction(&self) -> f64 {
        if self.legit_sent == 0 {
            1.0
        } else {
            self.legit_served as f64 / self.legit_sent as f64
        }
    }

    /// Fraction of attack queries the limiter refused a full answer
    /// (slipped or dropped). 0.0 when the epoch saw no attack.
    pub fn attack_suppressed_fraction(&self) -> f64 {
        if self.attack_sent == 0 {
            0.0
        } else {
            (self.attack_slipped + self.attack_dropped) as f64 / self.attack_sent as f64
        }
    }
}

/// The flood diff of one attack run: every epoch's benign service
/// quality and attack suppression, with the quiet epochs as the
/// baseline the flood epochs are judged against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FloodDiffReport {
    /// Epochs in timeline order (flood windows cut the run, so quiet
    /// and attack epochs alternate).
    pub epochs: Vec<FloodEpoch>,
}

impl FloodDiffReport {
    /// The first attack-free epoch — the no-attack baseline the paper's
    /// "legit p99 ≤ 2× baseline" criterion compares against.
    pub fn baseline(&self) -> Option<&FloodEpoch> {
        self.epochs.iter().find(|e| e.attack_sent == 0)
    }

    /// Worst benign p99 across attack epochs, as a ratio over the
    /// baseline epoch's p99. `None` without both a baseline (with a
    /// nonzero p99) and at least one attack epoch.
    pub fn worst_flood_p99_ratio(&self) -> Option<f64> {
        let base = self.baseline()?.legit_p99_ns;
        if base == 0 {
            return None;
        }
        self.epochs
            .iter()
            .filter(|e| e.attack_sent > 0)
            .map(|e| e.legit_p99_ns as f64 / base as f64)
            .max_by(f64::total_cmp)
    }

    /// Lowest benign served fraction across attack epochs (1.0 if the
    /// run had no attack epochs).
    pub fn worst_flood_served_fraction(&self) -> f64 {
        self.epochs
            .iter()
            .filter(|e| e.attack_sent > 0)
            .map(|e| e.served_fraction())
            .min_by(f64::total_cmp)
            .unwrap_or(1.0)
    }

    /// Render the diff table: one row per epoch.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Flood diff report ({} epochs)", self.epochs.len());
        let _ = writeln!(
            out,
            "{:<22} {:>14} {:>8} {:>7} {:>6} {:>10} {:>10} {:>10} {:>9}",
            "epoch",
            "window ms",
            "legit",
            "served%",
            "slip",
            "p50 ns",
            "p99 ns",
            "attack",
            "suppr.%"
        );
        for e in &self.epochs {
            let _ = writeln!(
                out,
                "{:<22} {:>14} {:>8} {:>7.2} {:>6} {:>10} {:>10} {:>10} {:>9.2}",
                e.label,
                format!("[{},{})", e.start_ms, e.end_ms),
                e.legit_sent,
                e.served_fraction() * 100.0,
                e.legit_slipped,
                e.legit_p50_ns,
                e.legit_p99_ns,
                e.attack_sent,
                e.attack_suppressed_fraction() * 100.0,
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

    fn flood_epoch(label: &str, attack_sent: u64, p99: u64) -> FloodEpoch {
        FloodEpoch {
            label: label.into(),
            start_ms: 0,
            end_ms: 1000,
            legit_sent: 100,
            legit_served: 99,
            legit_slipped: 2,
            legit_slip_recovered: 2,
            legit_dropped: 1,
            legit_p50_ns: 500,
            legit_p99_ns: p99,
            attack_sent,
            attack_passed: attack_sent / 10,
            attack_slipped: attack_sent / 2,
            attack_dropped: attack_sent - attack_sent / 10 - attack_sent / 2,
        }
    }

    #[test]
    fn flood_fractions_count_slip_recoveries_as_served() {
        let e = flood_epoch("flood", 1000, 900);
        assert!((e.served_fraction() - 0.99).abs() < 1e-12);
        assert!((e.attack_suppressed_fraction() - 0.9).abs() < 1e-12);
        // An empty epoch is vacuously healthy on both axes.
        let empty = FloodEpoch::default();
        assert_eq!(empty.served_fraction(), 1.0);
        assert_eq!(empty.attack_suppressed_fraction(), 0.0);
    }

    #[test]
    fn flood_report_compares_attack_epochs_to_the_quiet_baseline() {
        let report = FloodDiffReport {
            epochs: vec![
                flood_epoch("quiet", 0, 600),
                flood_epoch("flood", 1000, 900),
                flood_epoch("quiet", 0, 650),
                flood_epoch("storm", 500, 1500),
            ],
        };
        assert_eq!(report.baseline().unwrap().legit_p99_ns, 600);
        assert!((report.worst_flood_p99_ratio().unwrap() - 2.5).abs() < 1e-12);
        assert!((report.worst_flood_served_fraction() - 0.99).abs() < 1e-12);
        let rendered = report.render();
        assert_eq!(rendered.lines().count(), 6);
        assert!(rendered.contains("storm"));
        // A run with no attack epochs has no ratio but a perfect floor.
        let quiet = FloodDiffReport {
            epochs: vec![flood_epoch("quiet", 0, 600)],
        };
        assert_eq!(quiet.worst_flood_p99_ratio(), None);
        assert_eq!(quiet.worst_flood_served_fraction(), 1.0);
    }
}
