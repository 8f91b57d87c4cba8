//! The full-constellation serving farm wired into the core facade.
//!
//! [`FarmRun`] builds a scale's world, stands up *every* requested root
//! letter's anycast sites as sharded [`rootd`] engines over one shared
//! zone index and zone-only answer cache, steers a seeded query load by
//! each letter's Gao-Rexford catchments, and drives it through the
//! batched-datagram serve path. The resulting [`FarmReport`] is what
//! `examples/farm_report.rs` renders and what the `rootd` bench target
//! records as `rootd/farm/*` (see DESIGN §15).

use crate::scale::Scale;
use rootd::recovery::FailureKind;
use rootd::{Farm, FarmChaosConfig, FarmChaosReport, FarmConfig, FarmReport, FloodWindow};
use rss::RootLetter;
use vantage::World;

/// The constellation's serving farm under generated, catchment-steered
/// load.
pub struct FarmRun {
    pub scale: Scale,
    pub farm: Farm,
    pub report: FarmReport,
}

impl FarmRun {
    /// Build the scale's world, index its day-0 zone, stand up `letters`'
    /// per-site engines (capped at `max_sites_per_letter`, `usize::MAX`
    /// for the full catalog), and run `cfg`'s load against them.
    pub fn run(
        scale: Scale,
        letters: &[RootLetter],
        max_sites_per_letter: usize,
        cfg: &FarmConfig,
    ) -> FarmRun {
        let world = World::build(&scale.world());
        let zone = world.zone_at(0);
        let farm = Farm::build(
            &world.topology,
            &world.catalog,
            zone,
            letters,
            max_sites_per_letter,
        );
        let report = farm.run(cfg);
        FarmRun {
            scale,
            farm,
            report,
        }
    }

    /// The whole constellation: all thirteen letters, every catalog site.
    pub fn full_constellation(scale: Scale, cfg: &FarmConfig) -> FarmRun {
        FarmRun::run(scale, &RootLetter::ALL, usize::MAX, cfg)
    }

    fn header(&self) -> String {
        format!(
            "Serving farm: {} letters, {} sites at {:?} scale, {} clients\n",
            self.farm.letters().len(),
            self.farm.site_count(),
            self.scale,
            self.farm.client_count(),
        )
    }

    /// Render the run for the examples: counters plus wall-clock and
    /// busy-rate throughput and latency quantiles.
    pub fn render(&self) -> String {
        self.header() + &self.report.render()
    }

    /// Render the seeded, machine-independent counters only — byte-
    /// identical across runs and shard counts (timing numbers live in
    /// `cargo bench` / `examples/farm_report.rs`).
    pub fn render_deterministic(&self) -> String {
        self.header() + &self.report.render_counts()
    }
}

/// A chaos run of the serving farm and its fault-free twin: the same
/// world, the same traffic and the same seeds, with and without the
/// failure schedule — what `examples/farm_chaos_report.rs` renders and
/// the resilience acceptance gates compare.
pub struct FarmChaosRun {
    pub scale: Scale,
    pub farm: Farm,
    /// The config the run executed (validation instant pinned).
    pub cfg: FarmChaosConfig,
    pub report: FarmChaosReport,
    pub twin: FarmChaosReport,
}

impl FarmChaosRun {
    /// The letters the demo schedule is played against, capped at
    /// [`Self::DEMO_SITES`] sites each.
    pub const DEMO_LETTERS: [RootLetter; 3] = [RootLetter::A, RootLetter::B, RootLetter::C];
    /// Site cap per letter of the demo farm.
    pub const DEMO_SITES: usize = 4;

    /// The demo failure schedule against `farm` (which must serve
    /// [`Self::DEMO_LETTERS`] with at least two sites each): three
    /// concurrent site failures with overlapping windows (crash A/1,
    /// blackhole B/0, crash C/1), a 250 ms stall at C/0, one poisoned zone
    /// push at B while its sibling site is dark, and an 8× junk flood
    /// over the recovery period. Reload validation runs one day into the
    /// day-0 zone's RRSIG window: clean zones pass, poisoned ones fail on
    /// digest — not on expiry.
    pub fn demo_schedule(farm: &Farm, seed: u64, queries: usize, shards: usize) -> FarmChaosConfig {
        let mut cfg = FarmChaosConfig::tiny(seed, 86_400);
        cfg.farm.queries = queries;
        cfg.farm.shards = shards;
        let site = |letter: RootLetter, i: usize| {
            farm.deployment(letter).expect("farm serves letter").sites[i]
                .id
                .0
        };
        let [a, b, c] = Self::DEMO_LETTERS;
        cfg.plan
            .add(a, site(a, 1), FailureKind::Crash, (1_000, 4_000));
        cfg.plan
            .add(b, site(b, 0), FailureKind::Blackhole, (1_500, 3_500));
        cfg.plan
            .add(c, site(c, 1), FailureKind::Crash, (1_200, 3_800));
        let stall = FailureKind::Stall { delay_ms: 250 };
        cfg.plan.add(c, site(c, 0), stall, (1_000, 5_000));
        cfg.plan.add_poisoned_reload(b, 2_500);
        cfg.floods.push(FloodWindow {
            start_ms: 2_000,
            end_ms: 6_000,
            amplification: 8.0,
        });
        cfg
    }

    /// Build the demo farm at `scale` and run [`Self::demo_schedule`]
    /// against it, plus the fault-free twin.
    pub fn demo(scale: Scale, seed: u64, queries: usize, shards: usize) -> FarmChaosRun {
        let world = World::build(&scale.world());
        let farm = Farm::build(
            &world.topology,
            &world.catalog,
            world.zone_at(0),
            &Self::DEMO_LETTERS,
            Self::DEMO_SITES,
        );
        let cfg = Self::demo_schedule(&farm, seed, queries, shards);
        Self::run_on(scale, &world, farm, cfg)
    }

    /// Build the scale's world and run `cfg`'s failure schedule against
    /// it, plus the fault-free twin. Reload validation is pinned one day
    /// into the world's day-0 zone RRSIG window, so clean zones pass and
    /// poisoned ones fail for the right reason (digest/signature, not
    /// expiry).
    pub fn run(
        scale: Scale,
        letters: &[RootLetter],
        max_sites_per_letter: usize,
        cfg: &FarmChaosConfig,
    ) -> FarmChaosRun {
        let world = World::build(&scale.world());
        let zone = world.zone_at(0);
        let farm = Farm::build(
            &world.topology,
            &world.catalog,
            zone,
            letters,
            max_sites_per_letter,
        );
        let mut cfg = cfg.clone();
        cfg.validate_now_s = 86_400;
        Self::run_on(scale, &world, farm, cfg)
    }

    fn run_on(scale: Scale, world: &World, farm: Farm, cfg: FarmChaosConfig) -> FarmChaosRun {
        let report = farm.run_chaos(&world.topology, &cfg);
        let twin = farm.run_chaos(&world.topology, &cfg.twin());
        FarmChaosRun {
            scale,
            farm,
            cfg,
            report,
            twin,
        }
    }

    /// The run's invariant violations, empty when the resilience gates
    /// hold: the report is internally consistent, ≥ 99 % of legitimate
    /// queries were answered, every delivered answer is byte-identical to
    /// the fault-free twin's, every poisoned reload was refused, and
    /// every scheduled crash became an incident that recovered within
    /// the backoff budget.
    pub fn violations(&self) -> Vec<String> {
        let (report, plan) = (&self.report, &self.cfg.plan);
        let mut v = report.violations();
        if report.legit_served_fraction() < 0.99 {
            v.push(format!(
                "legit served fraction {:.4} < 0.99",
                report.legit_served_fraction()
            ));
        }
        let mismatches = self.twin_mismatches();
        if let Some(first) = mismatches.first() {
            v.push(format!(
                "{} answers differ from the fault-free twin (first at query {first})",
                mismatches.len()
            ));
        }
        let pushes = plan.poisoned_reloads.len() as u64;
        if report.reloads_rejected != pushes || report.reloads_accepted != 0 {
            v.push(format!(
                "poisoned reloads: {} rejected, {} accepted (want {pushes}, 0)",
                report.reloads_rejected, report.reloads_accepted
            ));
        }
        let crashes = (plan.all_windows())
            .filter(|(_, w)| w.kind == FailureKind::Crash)
            .count();
        if report.recoveries.len() != crashes {
            v.push(format!(
                "expected {crashes} crash incidents, saw {}",
                report.recoveries.len()
            ));
        }
        for r in &report.recoveries {
            match r.recovered_at {
                Some(t) if t - r.detected_at <= self.cfg.recovery.budget_ms() => {}
                _ => v.push(format!("recovery did not converge in budget: {r:?}")),
            }
        }
        v
    }

    /// Global indices of delivered answers that differ from the twin's
    /// (empty = every answer byte-identical to a healthy farm).
    pub fn twin_mismatches(&self) -> Vec<u64> {
        self.report.diff_twin(&self.twin)
    }

    /// Render the chaos run for the examples.
    pub fn render(&self) -> String {
        format!(
            "Self-healing farm: {} letters, {} sites at {:?} scale, {} clients\n{}",
            self.farm.letters().len(),
            self.farm.site_count(),
            self.scale,
            self.farm.client_count(),
            self.report.render(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_farm_is_healthy_and_replays_bit_identically() {
        let letters = [RootLetter::A, RootLetter::B];
        let mut cfg = FarmConfig::tiny(0x2024_1104);
        cfg.queries = 6_000;
        let run = FarmRun::run(Scale::Tiny, &letters, 4, &cfg);
        assert_eq!(run.report.violations(), Vec::<String>::new());
        assert_eq!(run.report.queries, cfg.queries);
        assert!(run.report.aggregate_qps > 0.0);
        assert!(run.render().contains("aggregate"));

        // Same seed, different shard count: deterministic outputs and the
        // deterministic rendering are identical.
        cfg.shards = 5;
        let replay = FarmRun::run(Scale::Tiny, &letters, 4, &cfg);
        assert_eq!(replay.report.fingerprint(), run.report.fingerprint());
        assert_eq!(
            replay.render_deterministic(),
            run.render_deterministic(),
            "deterministic rendering must not depend on shard count"
        );
    }

    #[test]
    fn demo_chaos_run_survives_failures_with_byte_identical_answers() {
        use rootd::recovery::FailureKind;

        let letters = [RootLetter::A, RootLetter::B];
        let mut cfg = FarmChaosConfig::tiny(0x2025_0103, 0);
        cfg.farm.queries = 5_000;
        // Fail one site per letter mid-run; the facade resolves site ids
        // after the build, so inject by catalog order via a first pass.
        let probe = FarmChaosRun::run(Scale::Tiny, &letters, 4, &cfg);
        let a_site = probe.farm.deployment(RootLetter::A).unwrap().sites[1].id.0;
        let b_site = probe.farm.deployment(RootLetter::B).unwrap().sites[0].id.0;
        cfg.plan
            .add(RootLetter::A, a_site, FailureKind::Crash, (400, 2_000));
        cfg.plan
            .add(RootLetter::B, b_site, FailureKind::Blackhole, (600, 1_800));
        cfg.plan.add_poisoned_reload(RootLetter::B, 900);
        let run = FarmChaosRun::run(Scale::Tiny, &letters, 4, &cfg);
        assert_eq!(run.report.violations(), Vec::<String>::new());
        assert!(run.report.legit_served_fraction() >= 0.99);
        assert_eq!(run.report.reloads_rejected, 1);
        assert_eq!(run.twin_mismatches(), Vec::<u64>::new());
        assert!(run.render().contains("legit served"));
    }
}
