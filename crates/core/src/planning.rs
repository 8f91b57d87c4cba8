//! What-if deployment planning at pipeline scale: the batch planner wired
//! into the core facade.
//!
//! [`PlannerRun`] is the planning sibling of
//! [`ScenarioPipeline`](crate::ScenarioPipeline): it builds the same world
//! for a [`Scale`], generates a seeded candidate sweep for one letter,
//! scores it across a worker pool, and keeps the ranked [`SweepReport`].
//! [`PlannerRun::rescore_fingerprint`] re-runs the sweep at any worker
//! count — the fingerprints must match bit-for-bit.
//!
//! [`PlannerDemo`] is what `examples/planner_report.rs` renders: a
//! steady-state sweep and a smaller one scored through a site outage,
//! with [`PlannerDemo::violations`] as its invariants (asserted in
//! `crates/planner/tests/planner.rs`).

use crate::scale::Scale;
use planner::{
    evaluate_batch, generate, scores_fingerprint, CandidatePlan, EvalContext, MoveSetConfig,
    SweepReport, TimelineSpec,
};
use scenario::{EventKind, Scenario, ScenarioEvent};
use vantage::{World, MEASUREMENT_START};

/// A world swept through one batch of candidate deployment changes.
pub struct PlannerRun {
    pub scale: Scale,
    pub world: World,
    /// The generated candidates, id order.
    pub plans: Vec<CandidatePlan>,
    /// Scores + ranking + Pareto frontier.
    pub report: SweepReport,
    /// Scenario timeline the sweep was scored through, if any.
    timeline: Option<(Scenario, u32, u32)>,
}

impl PlannerRun {
    /// Build the scale's world and score `cfg`'s candidate sweep in
    /// steady state across `workers` threads.
    pub fn run(scale: Scale, cfg: &MoveSetConfig, workers: usize) -> PlannerRun {
        Self::build(scale, cfg, workers, None)
    }

    /// Like [`PlannerRun::run`], but additionally scores every candidate
    /// through `scenario`'s epochs between `start` and `end` (simclock-
    /// pinned mode — each score carries its worst epoch).
    pub fn run_through(
        scale: Scale,
        cfg: &MoveSetConfig,
        workers: usize,
        scenario: &Scenario,
        start: u32,
        end: u32,
    ) -> PlannerRun {
        Self::build(scale, cfg, workers, Some((scenario.clone(), start, end)))
    }

    fn build(
        scale: Scale,
        cfg: &MoveSetConfig,
        workers: usize,
        timeline: Option<(Scenario, u32, u32)>,
    ) -> PlannerRun {
        let world = World::build(&scale.world());
        let plans = generate(&world, cfg);
        let spec = timeline.as_ref().map(|(s, start, end)| TimelineSpec {
            scenario: s,
            start: *start,
            end: *end,
        });
        let scores = evaluate_batch(&world, cfg.letter, &plans, workers, spec);
        PlannerRun {
            scale,
            world,
            plans,
            report: SweepReport::build(cfg.letter, scores),
            timeline,
        }
    }

    /// Re-score the whole sweep with `workers` threads and digest it —
    /// the determinism probe: any worker count must reproduce the run's
    /// own [`SweepReport::fingerprint`] scores exactly.
    pub fn rescore_fingerprint(&self, workers: usize) -> u64 {
        let spec = self.timeline.as_ref().map(|(s, start, end)| TimelineSpec {
            scenario: s,
            start: *start,
            end: *end,
        });
        let scores = evaluate_batch(&self.world, self.report.letter, &self.plans, workers, spec);
        scores_fingerprint(&scores)
    }

    /// Fingerprint of this run's own scores (the reference the probe is
    /// compared against).
    pub fn scores_fingerprint(&self) -> u64 {
        scores_fingerprint(&self.report.scores)
    }

    /// A fresh [`EvalContext`] against this run's world, for invariant
    /// checks (baseline match, pristine-revert).
    pub fn context(&self) -> EvalContext<'_> {
        let spec = self.timeline.as_ref().map(|(s, start, end)| TimelineSpec {
            scenario: s,
            start: *start,
            end: *end,
        });
        EvalContext::new(&self.world, self.report.letter, spec)
    }

    /// The frontier + per-region top-`k` tables.
    pub fn render(&self, k: usize) -> String {
        self.report.render(k)
    }
}

/// The planner report's two sweeps of `cfg`'s candidates against its
/// letter: in steady state, and — the first `timeline_count` of them —
/// through a week-long outage of the letter's first site in the three
/// weeks from the measurement start ("does the placement still hold
/// during the window?"), each re-scored at other worker counts.
pub struct PlannerDemo {
    pub run: PlannerRun,
    pub timeline: PlannerRun,
    pub scenario: Scenario,
    /// The steady-state sweep re-scored at 1..=5 workers: `(workers,
    /// fingerprint)`.
    pub rescored: Vec<(usize, u64)>,
    /// The timeline sweep re-scored at 1 and 5 workers.
    pub timeline_rescored: Vec<(usize, u64)>,
}

impl PlannerDemo {
    /// Score both sweeps (the steady one on 4 workers, the timeline one on
    /// 3) and re-score each.
    pub fn run(scale: Scale, cfg: &MoveSetConfig, timeline_count: usize) -> PlannerDemo {
        let run = PlannerRun::run(scale, cfg, 4);
        let site = run.world.catalog.deployment(cfg.letter).sites[0].id;
        let start = MEASUREMENT_START;
        let scenario = Scenario::new(
            "planner_b_outage",
            0x9_1A28,
            vec![ScenarioEvent {
                at: start + 7 * 86_400,
                until: Some(start + 14 * 86_400),
                kind: EventKind::SiteOutage {
                    letter: cfg.letter,
                    site,
                },
            }],
        )
        .expect("outage scenario is valid");
        let tl_cfg = MoveSetConfig {
            count: timeline_count,
            ..cfg.clone()
        };
        let end = start + 21 * 86_400;
        let timeline = PlannerRun::run_through(scale, &tl_cfg, 3, &scenario, start, end);
        let rescored = (1..=5).map(|w| (w, run.rescore_fingerprint(w))).collect();
        let timeline_rescored = [1, 5]
            .map(|w| (w, timeline.rescore_fingerprint(w)))
            .to_vec();
        PlannerDemo {
            run,
            timeline,
            scenario,
            rescored,
            timeline_rescored,
        }
    }

    /// The demo's invariant violations, empty when they hold: the
    /// evaluation baseline is bit-identical to the world's own routing,
    /// the identity candidate scores exactly zero on every axis, every
    /// re-score reproduces its sweep's fingerprint, and every timeline
    /// score carries its worst epoch.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.run.context().baseline_matches_world() {
            v.push("evaluation baseline diverged from the world's routing".into());
        }
        match self.run.report.score(0) {
            Some(s) if s.delta.is_zero() && s.churn == 0.0 => {}
            Some(s) => v.push(format!(
                "identity candidate scored nonzero (ΔRTT {}, churn {})",
                s.delta.rtt_combined(),
                s.churn
            )),
            None => v.push("identity candidate missing from the sweep".into()),
        }
        let reference = self.run.scores_fingerprint();
        for &(workers, fingerprint) in &self.rescored {
            if fingerprint != reference {
                v.push(format!("sweep diverged at {workers} workers"));
            }
        }
        let reference = self.timeline.scores_fingerprint();
        if self.timeline_rescored.iter().any(|&(_, f)| f != reference) {
            v.push("timeline sweep diverged across worker counts".into());
        }
        if !self
            .timeline
            .report
            .scores
            .iter()
            .all(|s| s.worst_epoch.is_some())
        {
            v.push("timeline sweep missing worst-epoch scores".into());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rss::RootLetter;

    #[test]
    fn tiny_run_ranks_and_reproduces() {
        let run = PlannerRun::run(
            Scale::Tiny,
            &MoveSetConfig {
                count: 40,
                ..Default::default()
            },
            3,
        );
        assert_eq!(run.report.letter, RootLetter::B);
        assert_eq!(run.report.scores.len(), 40);
        assert_eq!(run.report.ranking.len(), 40);
        // The identity candidate rides along as id 0 and scores zero.
        let identity = run.report.score(0).unwrap();
        assert!(identity.delta.is_zero());
        assert_eq!(identity.churn, 0.0);
        // Any worker count reproduces the scores bit-identically.
        assert_eq!(run.rescore_fingerprint(1), run.scores_fingerprint());
        assert_eq!(run.rescore_fingerprint(4), run.scores_fingerprint());
        assert!(run.context().baseline_matches_world());
        assert!(run.render(3).contains("Pareto frontier"));
    }
}
