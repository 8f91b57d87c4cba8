//! The scenario engine: drives a measurement through a timeline in epochs.
//!
//! The run is cut at every event boundary inside the schedule span. Before
//! each epoch the engine reverts events whose window has ended and applies
//! events that have become active — snapshotting whatever world state the
//! mutation touches — then runs the epoch's rounds through the ordinary
//! [`MeasurementEngine`] with churn/RTT state carried across the boundary
//! in an [`EngineSession`]. After the last epoch every remaining mutation
//! is reverted, so the world comes back in its pre-run state (pinned by
//! this crate's apply→revert proptest against [`World::routing_hash`]).

use crate::event::{DegradedMode, EventKind};
use crate::snapshot::{apply_event, revert_event, WorldSnapshot};
use crate::timeline::Scenario;
use analysis::zonemd_pipeline::validate_transfers;
use dns_zone::Zone;
use netsim::anycast::SiteId;
use rss::RootLetter;
use std::sync::Arc;
use vantage::{
    EngineOverrides, EngineSession, MeasurementConfig, MeasurementEngine, ProbeRecord, Round,
    TransferRecord, World,
};

/// How the engine runs a scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// The measurement to drive (schedule, churn, RTT, fault windows).
    /// Per-letter overrides are managed by the engine per epoch; any
    /// overrides set here are replaced.
    pub base: MeasurementConfig,
    /// Half-width (seconds) of the intensified-probing window opened
    /// around every event boundary — the paper's 15-minute rounds around
    /// the b.root change, generalized. `0` disables intensification.
    pub burst_half_width: u32,
    /// Worker threads per epoch run.
    pub workers: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            base: MeasurementConfig::default(),
            // 12 h on each side of a boundary, matching the order of the
            // paper's high-resolution windows around known change events.
            burst_half_width: 43_200,
            workers: 4,
        }
    }
}

/// Everything observed during one epoch, tagged with the events in force.
#[derive(Debug, Clone)]
pub struct EpochRun {
    /// Epoch position on the timeline (0 = before any event).
    pub index: usize,
    /// Epoch window `[start, end)` (seconds since epoch).
    pub start: u32,
    pub end: u32,
    /// Labels of the events active during this epoch (empty = baseline).
    pub active: Vec<String>,
    pub probes: Vec<ProbeRecord>,
    pub transfers: Vec<TransferRecord>,
    /// Zone-validation failure observations among this epoch's transfers,
    /// validated *while the epoch's world state was in force* (a forced
    /// ZONEMD phase changes what validates).
    pub validation_failures: u64,
}

/// The zone a serving layer would publish during one epoch, as captured
/// by [`ScenarioEngine::epoch_zones`].
#[derive(Debug, Clone)]
pub struct EpochZone {
    /// Epoch position on the timeline (0 = before any event).
    pub index: usize,
    /// Epoch window `[start, end)` (seconds since epoch).
    pub start: u32,
    pub end: u32,
    /// Labels of the events active during this epoch (empty = baseline).
    pub active: Vec<String>,
    /// The zone in force at the epoch's start, with any event-driven
    /// world state (e.g. a forced ZONEMD phase) applied.
    pub zone: Arc<Zone>,
}

/// A completed scenario run: one [`EpochRun`] per epoch, in timeline order.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    pub scenario_name: String,
    pub epochs: Vec<EpochRun>,
}

impl ScenarioRun {
    /// All probe records across epochs, in epoch order.
    pub fn all_probes(&self) -> Vec<ProbeRecord> {
        self.epochs.iter().flat_map(|e| e.probes.clone()).collect()
    }

    /// All transfer records across epochs, in epoch order.
    pub fn all_transfers(&self) -> Vec<TransferRecord> {
        self.epochs
            .iter()
            .flat_map(|e| e.transfers.clone())
            .collect()
    }
}

/// The engine. Owns no world — `run` borrows one mutably for the duration
/// and hands it back in its original state.
#[derive(Debug, Clone, Default)]
pub struct ScenarioEngine {
    pub config: ScenarioConfig,
}

impl ScenarioEngine {
    pub fn new(config: ScenarioConfig) -> ScenarioEngine {
        ScenarioEngine { config }
    }

    /// The virtual-time axis of this engine's runs: virtual millisecond 0
    /// is the measurement schedule's start second. Epoch boundaries, the
    /// windows of [`crate::chaos::fault_plan_on_clock`],
    /// [`crate::chaos::failure_plan_on_clock`] and
    /// [`crate::attack::attack_plan_on_clock`], and any client driven by
    /// a shared [`simclock::ClockHandle`] all map wall time through this
    /// one anchor, which is what keeps rounds, epochs, fault windows and
    /// client waits on a single axis.
    pub fn time_axis(&self) -> simclock::TimeAxis {
        simclock::TimeAxis::anchored_at(self.config.base.schedule.start)
    }

    /// Drive `world` through `scenario`, returning one [`EpochRun`] per
    /// epoch. Deterministic: same world build, scenario, and config ⇒
    /// bit-identical output.
    pub fn run(&self, world: &mut World, scenario: &Scenario) -> ScenarioRun {
        // Hold every to-be-added site out of service from the start: a
        // SiteAddition event *introduces* the site at activation time.
        let mut held: Vec<(RootLetter, SiteId)> = Vec::new();
        for ev in scenario.events() {
            if let EventKind::SiteAddition { letter, site } = ev.kind {
                if world.withdraw_site(letter, site) {
                    held.push((letter, site));
                }
            }
        }

        let mut schedule = self.config.base.schedule.clone();
        let cuts = scenario.boundaries(schedule.start, schedule.end);
        if self.config.burst_half_width > 0 {
            schedule = schedule.with_bursts_around(&cuts, self.config.burst_half_width);
        }
        let rounds: Vec<Round> = schedule.rounds().collect();
        let mut bounds = Vec::with_capacity(cuts.len() + 2);
        bounds.push(schedule.start);
        bounds.extend_from_slice(&cuts);
        bounds.push(schedule.end);

        let mut session = EngineSession::new();
        let mut applied: Vec<(usize, WorldSnapshot)> = Vec::new();
        let mut applied_ever = vec![false; scenario.events().len()];
        let mut epochs = Vec::new();

        for (index, w) in bounds.windows(2).enumerate() {
            let (w_start, w_end) = (w[0], w[1]);
            let mut routing_changed = false;

            // Revert events whose window ended at or before this epoch.
            let mut still = Vec::with_capacity(applied.len());
            for (idx, snap) in applied.drain(..) {
                if scenario.events()[idx].effective_until() <= w_start {
                    routing_changed |= revert_event(world, snap);
                } else {
                    still.push((idx, snap));
                }
            }
            applied = still;

            // Apply events newly active at this epoch's start.
            for (idx, ev) in scenario.events().iter().enumerate() {
                if ev.at <= w_start && ev.effective_until() > w_start && !applied_ever[idx] {
                    applied_ever[idx] = true;
                    let (snap, changed) = apply_event(world, ev.kind);
                    routing_changed |= changed;
                    applied.push((idx, snap));
                }
            }

            if routing_changed {
                session.invalidate_routing(&self.config.base.churn);
            }

            let active: Vec<String> = applied
                .iter()
                .map(|&(idx, _)| scenario.events()[idx].kind.label())
                .collect();
            let mut overrides = EngineOverrides::default();
            for &(idx, _) in &applied {
                add_override(&mut overrides, scenario.events()[idx].kind);
            }
            let epoch_cfg = MeasurementConfig {
                schedule: schedule.clone(),
                overrides,
                ..self.config.base.clone()
            };
            let epoch_rounds: Vec<Round> = rounds
                .iter()
                .copied()
                .filter(|r| r.time >= w_start && r.time < w_end)
                .collect();
            let engine = MeasurementEngine::new(world, epoch_cfg);
            let sink = engine.run_rounds_session(&mut session, &epoch_rounds, self.config.workers);
            // Validate now, while this epoch's zone state is in force.
            let table2 = validate_transfers(world, &sink.transfers);
            let validation_failures: u64 = table2.rows.iter().map(|r| r.observations as u64).sum();
            epochs.push(EpochRun {
                index,
                start: w_start,
                end: w_end,
                active,
                probes: sink.probes,
                transfers: sink.transfers,
                validation_failures,
            });
        }

        // Teardown: undo everything still applied, then release held
        // sites, returning the world to its pre-run state.
        for (_, snap) in applied.drain(..) {
            revert_event(world, snap);
        }
        for (letter, site) in held {
            world.restore_site(letter, site);
        }

        ScenarioRun {
            scenario_name: scenario.name().to_string(),
            epochs,
        }
    }

    /// Replay the epoch walk of [`run`](ScenarioEngine::run) without
    /// measuring, capturing the zone a serving layer (e.g. `rootd`) would
    /// publish during each epoch. Events are applied and reverted exactly
    /// as in a full run, so zone-affecting world state (a forced ZONEMD
    /// phase, say) shows up in the captured zones; the world comes back
    /// untouched. Epoch windows and labels match `run`'s one-to-one.
    pub fn epoch_zones(&self, world: &mut World, scenario: &Scenario) -> Vec<EpochZone> {
        let schedule = &self.config.base.schedule;
        let cuts = scenario.boundaries(schedule.start, schedule.end);
        let mut bounds = Vec::with_capacity(cuts.len() + 2);
        bounds.push(schedule.start);
        bounds.extend_from_slice(&cuts);
        bounds.push(schedule.end);

        let mut applied: Vec<(usize, WorldSnapshot)> = Vec::new();
        let mut applied_ever = vec![false; scenario.events().len()];
        let mut zones = Vec::new();

        for (index, w) in bounds.windows(2).enumerate() {
            let (w_start, w_end) = (w[0], w[1]);

            let mut still = Vec::with_capacity(applied.len());
            for (idx, snap) in applied.drain(..) {
                if scenario.events()[idx].effective_until() <= w_start {
                    revert_event(world, snap);
                } else {
                    still.push((idx, snap));
                }
            }
            applied = still;

            for (idx, ev) in scenario.events().iter().enumerate() {
                if ev.at <= w_start && ev.effective_until() > w_start && !applied_ever[idx] {
                    applied_ever[idx] = true;
                    let (snap, _) = apply_event(world, ev.kind);
                    applied.push((idx, snap));
                }
            }

            let active: Vec<String> = applied
                .iter()
                .map(|&(idx, _)| scenario.events()[idx].kind.label())
                .collect();
            zones.push(EpochZone {
                index,
                start: w_start,
                end: w_end,
                active,
                zone: world.zone_at(w_start),
            });
        }

        for (_, snap) in applied.drain(..) {
            revert_event(world, snap);
        }
        zones
    }
}

/// Fold one active event into the epoch's per-letter override set.
fn add_override(ov: &mut EngineOverrides, kind: EventKind) {
    match kind {
        EventKind::RouteFlapBurst { letter, boost } => {
            ov.letter_mut(letter).churn_boost *= boost;
        }
        EventKind::RttInflation { letter, factor } => {
            ov.letter_mut(letter).rtt_factor *= factor;
        }
        EventKind::Degraded {
            letter,
            mode: DegradedMode::StaleZone { stuck_day },
        } => {
            ov.letter_mut(letter).stale_stuck_day = Some(stuck_day);
        }
        EventKind::Degraded {
            letter,
            mode: DegradedMode::BitflipZone { prob },
        } => {
            ov.letter_mut(letter).extra_bitflip_prob = prob;
        }
        _ => {}
    }
}
