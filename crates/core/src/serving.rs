//! The serving layer wired into the core facade.
//!
//! [`ServingPipeline`] builds a scale's world, stands up one root letter's
//! anycast fleet as a one-letter [`rootd::Farm`] (one wire-level engine per
//! catalog site, sharing a precompiled zone index and zone-only answer
//! cache), and drives a seeded, B-Root-shaped
//! query load through the full parse → serve → encode path. The resulting
//! [`LoadReport`] is what the `rootd_demo` registry entry and
//! `examples/rootd_bench.rs` render.
//!
//! [`ClockChaosRun`] is the virtual-time composition of the whole stack:
//! one scenario's change events, the serving fleet under the farm's
//! failure model (health probes, failover by withdrawal, hedging), and a
//! localroot refresh client, co-executed on a single [`simclock`] axis
//! (see DESIGN §12 and `examples/clock_chaos_demo.rs`).

use crate::scale::Scale;
use localroot::{upstream_transport, LocalRoot, RefreshOutcome, ValidationPolicy};
use netsim::types::Tier;
use rootd::{
    attack, loadgen, ArrivalSchedule, AttackConfig, AttackReport, ChaosOutcome, Farm,
    FarmChaosConfig, FarmChaosReport, FaultyTransport, InprocTransport, LoadReport, LoadgenConfig,
};
use rss::RootLetter;
use scenario::{EventKind, Scenario, ScenarioEvent};
use simclock::{ClockHandle, TimeAxis};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use vantage::World;

/// One letter's serving fleet under generated load.
pub struct ServingPipeline {
    pub scale: Scale,
    pub letter: RootLetter,
    pub fleet: Farm,
    pub report: LoadReport,
}

/// `letter`'s whole catalog fleet as a one-letter farm over `zone`.
fn letter_fleet(world: &World, letter: RootLetter, zone: Arc<dns_zone::Zone>) -> Farm {
    Farm::build(&world.topology, &world.catalog, zone, &[letter], usize::MAX)
}

impl ServingPipeline {
    /// Build the scale's world, index its day-0 zone, and run `cfg`'s load
    /// against `letter`'s per-site engines.
    pub fn run(scale: Scale, letter: RootLetter, cfg: &LoadgenConfig) -> ServingPipeline {
        let world = World::build(&scale.world());
        let zone = world.zone_at(0);
        let fleet = letter_fleet(&world, letter, zone);
        let report = loadgen::run(&fleet, cfg);
        ServingPipeline {
            scale,
            letter,
            fleet,
            report,
        }
    }

    /// The built-in demo: B-Root's fleet at `Tiny` scale under a short
    /// seeded load, built once per process.
    pub fn shared_demo() -> &'static ServingPipeline {
        static DEMO: OnceLock<ServingPipeline> = OnceLock::new();
        DEMO.get_or_init(|| {
            ServingPipeline::run(
                Scale::Tiny,
                RootLetter::B,
                &LoadgenConfig {
                    queries: 20_000,
                    ..LoadgenConfig::tiny(0x2023_0703)
                },
            )
        })
    }

    fn header(&self) -> String {
        format!(
            "Serving layer: {}.root at {:?} scale — {} anycast sites\n",
            self.letter.ch(),
            self.scale,
            self.fleet.site_count(),
        )
    }

    /// Render the run for the examples: counters plus wall-clock
    /// throughput and latency quantiles.
    pub fn render(&self) -> String {
        self.header() + &self.report.render()
    }

    /// Render for the experiment registry: the seeded, machine-independent
    /// counters only, so the registry's output stays byte-identical across
    /// runs (timing numbers live in `cargo bench` / `rootd_bench`).
    pub fn render_deterministic(&self) -> String {
        self.header() + &self.report.render_counts()
    }
}

/// The refresh client's upstream letters in the clock-chaos demo.
pub const CHAOS_UPSTREAMS: [RootLetter; 3] = [RootLetter::A, RootLetter::B, RootLetter::C];

/// One scenario, one clock: the serving fleet under the scenario's site
/// failures, and a localroot refresh client under its fault windows,
/// co-executed on a single virtual-time axis.
///
/// The time consumers share the [`TimeAxis`] anchored at the scale's
/// schedule start:
///
/// * the scenario's events project twice —
///   [`scenario::fault_plan_on_clock`] for the seat the refresh client
///   sits in, [`scenario::failure_plan_on_clock`] for the serving
///   letter's farm, whose control plane detects a dark site, withdraws it
///   from the catchments and brings it back;
/// * the farm's clients arrive one query per virtual ms, so failure
///   windows hit exactly the queries that arrive inside them, on any
///   shard count;
/// * the refresh client advances a shared [`ClockHandle`] through its
///   timeouts and backoffs, so *waiting* carries it across the same
///   windows the farm's queries fall into — riding out a bounded
///   blackhole purely by backing off.
pub struct ClockChaosRun {
    pub axis: TimeAxis,
    /// The serving fleet's chaos report under the scenario's failure plan.
    pub fleet: FarmChaosReport,
    /// The fleet slot (what `fleet.transitions` names a site by) of the
    /// scenario's first outage at the serving letter.
    pub dark_slot: Option<u16>,
    /// Failure windows the projected plan put at the serving letter:
    /// [`Self::dark_queries`] blames every hedged or unanswered query on
    /// the dark site, which holds only when this is one.
    pub dark_windows: usize,
    /// The refresh client's outcome (errors stringified so replays
    /// compare with `==`).
    pub refresh: Result<RefreshOutcome, String>,
    pub refresh_metrics: localroot::Metrics,
    /// Backoff waits taken on the shared clock, as `(start_ms, wait_ms)`.
    pub backoff_log: Vec<(u64, u64)>,
    /// Where the shared clock ended after the refresh cycle.
    pub clock_ms: u64,
    /// Whether the refreshed copy is fresh at the clock's final wall time.
    pub serving: bool,
}

impl ClockChaosRun {
    /// The fleet's client arrivals: one query per virtual ms from 0.
    const ARRIVALS: ArrivalSchedule = ArrivalSchedule {
        start_ms: 0,
        interarrival_ms: 1,
    };

    /// Run `scenario` against `letter`'s fleet on `shards` shards (serving
    /// side) and the [`CHAOS_UPSTREAMS`] (refresh side), everything on
    /// one axis.
    pub fn run(
        scale: Scale,
        letter: RootLetter,
        scenario: &Scenario,
        queries: usize,
        shards: usize,
    ) -> ClockChaosRun {
        let axis = TimeAxis::anchored_at(scale.schedule().start);
        let world = World::build(&scale.world());
        let zone = world.zone_at(axis.base_s);

        // Serving side: the farm's plan keys failure windows by (letter,
        // site id); its control plane and steering do the rest.
        let farm = letter_fleet(&world, letter, Arc::clone(&zone));
        let deployment = farm
            .deployment(letter)
            .expect("the fleet serves its letter");
        let mut sites: Vec<u32> = deployment.sites.iter().map(|s| s.id.0).collect();
        // A letter's slots number its sites in ascending id order.
        sites.sort_unstable();
        let dark_slot = scenario.events().iter().find_map(|e| match e.kind {
            EventKind::SiteOutage { letter: l, site } if l == letter => sites
                .iter()
                .position(|&id| id == site.0)
                .map(|slot| slot as u16),
            _ => None,
        });
        let mut cfg = FarmChaosConfig::tiny(0x2023_0703, axis.base_s);
        cfg.farm.queries = queries;
        cfg.farm.shards = shards;
        cfg.arrivals = Self::ARRIVALS;
        cfg.plan = scenario::failure_plan_on_clock(scenario, axis, &[(letter, sites)]);
        let dark_windows = cfg
            .plan
            .all_windows()
            .filter(|((l, _), _)| *l == letter)
            .count();
        let fleet = farm.run_chaos(&world.topology, &cfg);

        // Refresh side: the client-seat plan keys the same windows by
        // upstream letter; all transports share one clock the client
        // advances by sleeping through backoffs.
        let plan = Arc::new(scenario::fault_plan_on_clock(scenario, axis).with_timeout_ms(200));
        let clock = ClockHandle::new();
        let mut upstreams: Vec<(RootLetter, FaultyTransport<InprocTransport>)> = CHAOS_UPSTREAMS
            .into_iter()
            .map(|l| {
                let hostname = Some(format!("{}1.clock-chaos", l.ch()));
                let upstream = upstream_transport(l, hostname, Arc::clone(&zone));
                (
                    l,
                    FaultyTransport::new(upstream, Arc::clone(&plan), l.index() as u64)
                        .with_clock(clock.clone()),
                )
            })
            .collect();
        let mut lr = LocalRoot::new(ValidationPolicy::default());
        lr.retry.attempts = 6;
        let refresh = lr
            .refresh_on_clock(&mut upstreams, &clock, axis)
            .map_err(|e| e.to_string());
        let serving = lr.is_serving(axis.now_wall(&clock));
        ClockChaosRun {
            axis,
            fleet,
            dark_slot,
            dark_windows,
            refresh,
            refresh_metrics: lr.metrics,
            backoff_log: lr.backoff_log,
            clock_ms: clock.now_ms(),
            serving,
        }
    }

    /// The built-in demo scenario: every refresh upstream goes dark for
    /// the first five virtual seconds — a blackhole bounded in *time*,
    /// which backoff on the shared clock can ride out. The serving
    /// `letter`'s outage event carries its first catalog site's id, so
    /// the same window also darkens that site of the farm.
    pub fn demo_scenario(scale: Scale, letter: RootLetter) -> Scenario {
        let world = World::build(&scale.world());
        let dark_site = world
            .catalog
            .sites_of(letter)
            .next()
            .map(|s| s.site_id)
            .expect("serving letter has at least one site");
        let t0 = scale.schedule().start;
        let events = CHAOS_UPSTREAMS
            .into_iter()
            .map(|l| ScenarioEvent {
                at: t0,
                until: Some(t0 + 5),
                kind: EventKind::SiteOutage {
                    letter: l,
                    site: if l == letter {
                        dark_site
                    } else {
                        netsim::anycast::SiteId(0)
                    },
                },
            })
            .collect();
        Scenario::new("clock-blackhole", 0x5eed_c10c, events).expect("demo scenario is well-formed")
    }

    /// The blackhole window of [`Self::demo_scenario`], in virtual ms from
    /// the axis's anchor.
    pub const DEMO_WINDOW_MS: u64 = 5_000;

    /// Queries arriving in `window` (virtual ms) that met a dark site:
    /// hedged to another site, or unanswered.
    pub fn dark_queries(&self, window: Range<u64>) -> usize {
        let dark = [ChaosOutcome::ServedHedged, ChaosOutcome::Unanswered].map(|o| o as u8);
        (self.fleet.flags.iter().enumerate())
            .filter(|&(g, &f)| {
                window.contains(&Self::ARRIVALS.attempt_at(g as u64, 0, 0))
                    && dark.contains(&(f >> 2 & 0x07))
            })
            .count()
    }

    /// The demo run's invariant violations, empty when they hold: the
    /// refresh client rode out the [`Self::DEMO_WINDOW_MS`] blackhole by
    /// backing off on the shared clock — it succeeded, its clock ended
    /// past the window, it saw timeouts and took backoff waits, and its
    /// copy is serving — the fleet's chaos report is consistent, the plan
    /// held exactly one window at the serving letter (so every hedged or
    /// unanswered query was bound for the dark site) and that window cost
    /// the dark site queries, and every run of `replays` (the same scenario again, at
    /// the same or another shard count) reproduced this one's
    /// fingerprint.
    pub fn violations(&self, replays: &[&ClockChaosRun]) -> Vec<String> {
        let mut v = Vec::new();
        if self.refresh.is_err() {
            v.push(format!("refresh failed: {:?}", self.refresh));
        }
        if self.clock_ms < Self::DEMO_WINDOW_MS {
            v.push(format!(
                "clock ended at {} ms, inside the {} ms window",
                self.clock_ms,
                Self::DEMO_WINDOW_MS
            ));
        }
        if self.refresh_metrics.timeouts == 0 {
            v.push("refresh saw no timeouts — the window never applied".into());
        }
        if self.backoff_log.is_empty() {
            v.push("no backoff waits were taken on the shared clock".into());
        }
        if !self.serving {
            v.push("refreshed copy is not serving at the final wall time".into());
        }
        v.extend(self.fleet.violations());
        if self.dark_windows != 1 {
            v.push(format!(
                "the plan holds {} windows at the serving letter, not one: \
                 hedged queries cannot be blamed on the dark site",
                self.dark_windows
            ));
        }
        if self.dark_queries(0..Self::DEMO_WINDOW_MS) == 0 {
            v.push("no query met the dark site inside the outage window".into());
        }
        let fingerprint = self.fingerprint();
        for (i, replay) in replays.iter().enumerate() {
            if replay.fingerprint() != fingerprint {
                v.push(format!("replay {i} diverged from the run"));
            }
        }
        v
    }

    /// Deterministic digest for replay comparison: every seeded counter,
    /// none of the wall-clock timings.
    pub fn fingerprint(&self) -> String {
        format!(
            "fleet[{:#018x}] refresh[{:?} retries={} timeouts={} backoff_ms={}] \
             backoffs={:?} clock={}ms serving={}",
            self.fleet.fingerprint(),
            self.refresh,
            self.refresh_metrics.retries,
            self.refresh_metrics.timeouts,
            self.refresh_metrics.backoff_ms_total,
            self.backoff_log,
            self.clock_ms,
            self.serving,
        )
    }
}

/// One scenario's adversarial-traffic windows driven against one letter's
/// fleet with response-rate limiting engaged: the traffic-side sibling of
/// [`ClockChaosRun`], on the same anchored [`TimeAxis`].
///
/// The scenario's attack events project to a `rootd`
/// [`rootd::AttackPlan`] via [`scenario::attack_plan_on_clock`]; the
/// attack engine interleaves benign load with the plan's flood windows on
/// the virtual clock and verifies every delivered benign answer against
/// an unlimited twin engine. Its [`AttackReport`] is the run's one
/// record: an [`rootd::EpochTraffic`] row per epoch — the
/// before/during/after view of what the flood did to legitimate clients —
/// beside the limiter's totals and hottest buckets.
pub struct AttackRun {
    /// The attack engine's report (per-epoch traffic, RRL counters,
    /// hottest buckets, verification mismatches).
    pub report: AttackReport,
}

impl AttackRun {
    /// Run `scenario`'s attack windows against `letter`'s fleet for
    /// `duration_ms` virtual ms on `threads` workers, RRL enabled.
    pub fn run(
        scale: Scale,
        letter: RootLetter,
        scenario: &Scenario,
        duration_ms: u64,
        threads: usize,
    ) -> AttackRun {
        let axis = TimeAxis::anchored_at(scale.schedule().start);
        let world = World::build(&scale.world());
        let zone = world.zone_at(axis.base_s);
        let fleet = letter_fleet(&world, letter, zone);
        let plan = scenario::attack_plan_on_clock(scenario, letter, axis);
        let cfg = AttackConfig {
            threads,
            ..AttackConfig::tiny(0x2023_0703, duration_ms, plan)
        };
        AttackRun {
            report: attack::run(&fleet, &cfg),
        }
    }

    /// The built-in demo scenario: a ×10 water-torture flood two virtual
    /// seconds in, then a reflection burst spoofing a real stub client,
    /// then that client flooding on its own behalf — three attack shapes
    /// back to back inside a 12-second run, with quiet epochs between.
    pub fn demo_scenario(scale: Scale, letter: RootLetter) -> Scenario {
        let world = World::build(&scale.world());
        let victim = world
            .topology
            .nodes()
            .iter()
            .find(|n| n.tier == Tier::Stub)
            .map(|n| n.id)
            .expect("topology has stub clients");
        let t0 = scale.schedule().start;
        let events = vec![
            ScenarioEvent {
                at: t0 + 2,
                until: Some(t0 + 6),
                kind: EventKind::AttackFlood {
                    letter,
                    intensity: 10,
                },
            },
            ScenarioEvent {
                at: t0 + 8,
                until: Some(t0 + 10),
                kind: EventKind::ReflectionBurst {
                    letter,
                    victim,
                    intensity: 10,
                },
            },
            ScenarioEvent {
                at: t0 + 10,
                until: Some(t0 + 11),
                kind: EventKind::QueryStorm {
                    letter,
                    client: victim,
                    intensity: 20,
                },
            },
        ];
        Scenario::new("attack-demo", 0xdd05_5eed, events).expect("demo scenario is well-formed")
    }

    /// The demo run's duration: covers every demo window plus a trailing
    /// quiet second.
    pub const DEMO_DURATION_MS: u64 = 12_000;

    /// Deterministic digest for replay comparison (seeded counters only).
    pub fn fingerprint(&self) -> String {
        self.report.fingerprint()
    }

    /// The run's invariant violations, empty when the paper's resilience
    /// criteria hold: validating clients never got a wrong answer, every
    /// slipped benign query recovered over TCP, benign service stayed
    /// ≥ 99 % served and ≤ 2× baseline p99 through every attack window,
    /// and the limiter actually engaged (the flood was real).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let r = &self.report;
        if r.verify_mismatches > 0 {
            v.push(format!(
                "{} delivered answers diverged from the unlimited twin",
                r.verify_mismatches
            ));
        }
        for e in &r.epochs {
            if e.legit_slip_recovered != e.legit_slipped {
                v.push(format!(
                    "epoch {}: {} of {} slipped queries failed to recover over TCP",
                    e.label,
                    e.legit_slipped - e.legit_slip_recovered,
                    e.legit_slipped
                ));
            }
        }
        let served = r.worst_flood_served_fraction();
        if served < 0.99 {
            v.push(format!(
                "legit served fraction fell to {served:.4} during an attack epoch"
            ));
        }
        if let (Some(base), Some(ratio)) = (r.baseline(), r.worst_flood_p99_ratio()) {
            let worst = (r.epochs.iter())
                .filter(|e| e.attack_sent > 0)
                .map(|e| e.legit_p99_ns)
                .max()
                .unwrap_or(0);
            // The quantiles are measured wall time on a µs-scale serve
            // path, so the 2× ratio alone would trip on scheduler noise;
            // require a real absolute excess too.
            if ratio > 2.0 && worst > base.legit_p99_ns + 200_000 {
                v.push(format!(
                    "legit p99 inflated {ratio:.2}× over the no-attack baseline"
                ));
            }
        }
        let attacked: u64 = r.epochs.iter().map(|e| e.attack_sent).sum();
        let suppressed: u64 = (r.epochs.iter())
            .map(|e| e.attack_slipped + e.attack_dropped)
            .sum();
        if attacked > 0 && suppressed * 2 < attacked {
            v.push(format!(
                "limiter refused only {suppressed} of {attacked} attack queries"
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_pipeline_serves_the_load() {
        let p = ServingPipeline::shared_demo();
        assert_eq!(p.report.queries, 20_000);
        // Every parseable query gets an answer through the wire path.
        assert!(p.report.responses > 19_000);
        assert!(p.report.nxdomain > 0);
        assert!(p.report.referrals > 0);
        assert!(p.report.p50_ns <= p.report.p99_ns);
        // The fleet serves from the precompiled answer cache; every query
        // is classified as a hit or a miss, and the seeded counters are
        // part of the registry's deterministic rendering.
        assert_eq!(p.report.cache_hits + p.report.cache_misses, 20_000);
        assert!(p.report.cache_hits > p.report.cache_misses);
        assert!(p.render_deterministic().contains("cache hits"));
        let rendered = p.render();
        assert!(rendered.contains("latency p99"));
    }

    #[test]
    fn attack_demo_holds_the_invariants_and_replays_bit_identically() {
        let scenario = AttackRun::demo_scenario(Scale::Tiny, RootLetter::B);
        let a = AttackRun::run(
            Scale::Tiny,
            RootLetter::B,
            &scenario,
            AttackRun::DEMO_DURATION_MS,
            2,
        );
        // The demo's three windows cut the run into alternating quiet and
        // attack epochs: quiet | flood | quiet | reflect | storm | quiet.
        assert_eq!(a.report.epochs.len(), 6);
        assert!(a.report.baseline().is_some());
        assert!(a.report.rrl.dropped > 0);
        assert_eq!(a.violations(), Vec::<String>::new());
        // Bit-identical replay on a different worker count.
        let b = AttackRun::run(
            Scale::Tiny,
            RootLetter::B,
            &scenario,
            AttackRun::DEMO_DURATION_MS,
            5,
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
