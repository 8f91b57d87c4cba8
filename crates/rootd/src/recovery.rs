//! Deterministic failure injection and the farm's recovery controller.
//!
//! A [`FailurePlan`] declares site-level faults on the shared virtual
//! clock: engine **crash** windows (the engine is gone until the recovery
//! controller restarts it), **stall** windows (the site answers, but a
//! stalled shard adds a fixed delay), per-site **blackholes** (the site's
//! network vanishes for the window, then returns on its own), and
//! **poisoned reloads** (a corrupted zone is pushed at a letter, which
//! the validated reload path must refuse). Plans are either authored
//! directly or projected from `scenario` events via
//! `scenario::failure_plan_on_clock`.
//!
//! [`run_control_plane`] plays a plan against a farm's site roster as one
//! loop over a [`simclock::Scheduler`] of typed events — window onsets
//! and ends, restart attempts and watchdog probes, keyed per site so
//! same-instant events keep one order. Probes feed each site's
//! [`SiteHealth`] machine, Dead crashed sites get restart attempts on a
//! capped-exponential [`RecoveryPolicy`] backoff (an attempt succeeds
//! once the underlying crash window has passed — restarting into a
//! still-broken host fails and backs off further), and every observation
//! lands in per-letter [`HealthTimeline`]s plus ground-truth outage/stall
//! interval tables. The output [`ControlPlane`] is **piecewise-constant
//! data, not live state**: the sharded data plane only reads it, which is
//! what keeps a chaos run bit-identical across 1..=8 shards — no shard
//! ever observes a different world than another at the same virtual
//! instant.

use crate::health::{HealthConfig, HealthTimeline, ProbeOutcome, SiteHealth, SiteStatus};
use netsim::rng::SimRng;
use netsim::Fingerprint;
use rss::RootLetter;
use simclock::Scheduler;
use std::collections::BTreeMap;

/// One kind of injected site-level fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The site's engine process dies: unreachable until the recovery
    /// controller restarts it *after* the window has passed.
    Crash,
    /// A stalled shard: the site still answers, `delay_ms` late.
    Stall {
        /// Added per-answer latency inside the window.
        delay_ms: u64,
    },
    /// The site's network is gone for the window, then heals on its own
    /// (no restart needed) — the anycast-site-outage shape.
    Blackhole,
}

impl FailureKind {
    fn id(self) -> u64 {
        match self {
            FailureKind::Crash => 0,
            FailureKind::Stall { .. } => 1,
            FailureKind::Blackhole => 2,
        }
    }
}

/// One scheduled fault: `kind` in force during `[start_ms, end_ms)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureWindow {
    pub kind: FailureKind,
    pub start_ms: u64,
    pub end_ms: u64,
}

/// A corrupted-zone push scheduled at a letter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoisonedReload {
    pub letter: RootLetter,
    /// Virtual instant the reload is attempted.
    pub at_ms: u64,
    /// Seed for the RRSIG bitflip that poisons the pushed copy.
    pub flip_seed: u64,
}

/// The full deterministic failure schedule of one chaos run.
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    /// Master seed (restart-backoff jitter and any derived draws).
    pub seed: u64,
    windows: BTreeMap<(RootLetter, u32), Vec<FailureWindow>>,
    /// Corrupted-zone pushes, attempted in `at_ms` order.
    pub poisoned_reloads: Vec<PoisonedReload>,
}

impl FailurePlan {
    /// A plan that injects nothing — the healthy-twin baseline.
    pub fn none(seed: u64) -> FailurePlan {
        FailurePlan {
            seed,
            ..FailurePlan::default()
        }
    }

    /// Schedule `kind` at `letter`'s site `site_id` during
    /// `[start_ms, end_ms)`.
    pub fn add(
        &mut self,
        letter: RootLetter,
        site_id: u32,
        kind: FailureKind,
        window: (u64, u64),
    ) -> &mut Self {
        self.windows
            .entry((letter, site_id))
            .or_default()
            .push(FailureWindow {
                kind,
                start_ms: window.0,
                end_ms: window.1,
            });
        self
    }

    /// Schedule a poisoned-zone push at `letter`.
    pub fn add_poisoned_reload(&mut self, letter: RootLetter, at_ms: u64) -> &mut Self {
        let flip_seed = SimRng::new(self.seed)
            .derive_ids(&[0xbad0, letter.index() as u64, at_ms])
            .next_u64();
        self.poisoned_reloads.push(PoisonedReload {
            letter,
            at_ms,
            flip_seed,
        });
        self
    }

    /// The windows scheduled for one site (empty when none).
    pub fn windows_for(&self, letter: RootLetter, site_id: u32) -> &[FailureWindow] {
        self.windows
            .get(&(letter, site_id))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Every scheduled window, `((letter, site_id), window)`, in key order.
    pub fn all_windows(&self) -> impl Iterator<Item = ((RootLetter, u32), &FailureWindow)> {
        self.windows
            .iter()
            .flat_map(|(&key, ws)| ws.iter().map(move |w| (key, w)))
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.poisoned_reloads.is_empty()
    }

    /// Number of distinct sites with at least one fault window.
    pub fn faulted_sites(&self) -> usize {
        self.windows.len()
    }

    /// The latest finite window end (0 when none) — what a caller sizes
    /// its horizon from.
    pub fn max_finite_end(&self) -> u64 {
        self.windows
            .values()
            .flatten()
            .map(|w| w.end_ms)
            .filter(|&e| e != u64::MAX)
            .max()
            .unwrap_or(0)
            .max(
                self.poisoned_reloads
                    .iter()
                    .map(|p| p.at_ms)
                    .max()
                    .unwrap_or(0),
            )
    }

    /// Mix every scheduled fault into a fingerprint accumulator — plans
    /// are part of a chaos report's replay identity.
    pub fn fold_fingerprint(&self, h: u64) -> u64 {
        let mut h = Fingerprint::resume(h);
        h.mix(self.seed);
        for ((letter, site), w) in self.all_windows() {
            h.mix(letter.index() as u64);
            h.mix(u64::from(site));
            h.mix(w.kind.id());
            if let FailureKind::Stall { delay_ms } = w.kind {
                h.mix(delay_ms);
            }
            h.mix(w.start_ms);
            h.mix(w.end_ms);
        }
        for p in &self.poisoned_reloads {
            h.mix(p.letter.index() as u64);
            h.mix(p.at_ms);
            h.mix(p.flip_seed);
        }
        h.finish()
    }
}

/// Restart discipline for crashed engines: capped exponential backoff
/// with deterministic jitter, the `localroot::refresh::RetryPolicy`
/// shape applied to engine restarts instead of upstream retries.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Delay before the first restart attempt (then doubling).
    pub base_backoff_ms: u64,
    /// Backoff ceiling.
    pub max_backoff_ms: u64,
    /// ± this fraction of deterministic jitter on each delay.
    pub jitter_frac: f64,
    /// Restart attempts before the controller gives up — the "backoff
    /// budget" a converging recovery must fit inside.
    pub max_attempts: u32,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            base_backoff_ms: 500,
            max_backoff_ms: 8_000,
            jitter_frac: 0.25,
            max_attempts: 8,
            seed: 0x4ec0_0001,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff before restart `attempt` (1-based) of `site`, for the
    /// incident detected at `detected_ms`. Pure in its arguments:
    /// capped-exponential base with a seeded ± jitter, so restart
    /// schedules replay bit-identically.
    pub fn backoff_ms(&self, site: u64, detected_ms: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << (attempt - 1).min(20))
            .min(self.max_backoff_ms);
        let span = (exp as f64 * self.jitter_frac) as u64;
        if span == 0 {
            return exp;
        }
        let mut rng =
            SimRng::new(self.seed).derive_ids(&[0x4ec0, site, detected_ms, u64::from(attempt)]);
        exp - span / 2 + rng.next_range(span as usize + 1) as u64
    }

    /// Worst-case virtual time from detection to the last restart
    /// attempt — the budget "recovery converges within" is tested
    /// against.
    pub fn budget_ms(&self) -> u64 {
        (1..=self.max_attempts)
            .map(|a| {
                let exp = self
                    .base_backoff_ms
                    .saturating_mul(1u64 << (a - 1).min(20))
                    .min(self.max_backoff_ms);
                exp + (exp as f64 * self.jitter_frac) as u64
            })
            .sum()
    }
}

/// One crash incident's recovery record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryLog {
    pub letter: RootLetter,
    pub site_id: u32,
    /// When the engine actually went down.
    pub failed_at: u64,
    /// When the health machine declared it Dead.
    pub detected_at: u64,
    /// Restart attempts issued (failed + the successful one).
    pub attempts: u32,
    /// When a restart landed, `None` when the budget ran out first.
    pub recovered_at: Option<u64>,
}

impl RecoveryLog {
    /// Whether the engine came back within the backoff budget.
    pub fn converged(&self) -> bool {
        self.recovered_at.is_some()
    }
}

/// One letter's precomputed control-plane view: the health belief
/// (timeline) plus the ground truth (outage and stall intervals) the
/// data plane serves against.
#[derive(Debug, Clone)]
pub struct LetterControl {
    pub letter: RootLetter,
    /// The health machine's belief, per site slot.
    pub timeline: HealthTimeline,
    /// Ground-truth unavailability `[start, end)` per slot — crash
    /// windows extended to the restart instant, blackholes verbatim.
    outages: Vec<Vec<(u64, u64)>>,
    /// Ground-truth stall intervals `(start, end, delay_ms)` per slot.
    stalls: Vec<Vec<(u64, u64, u64)>>,
}

impl LetterControl {
    fn new(letter: RootLetter, slots: usize) -> LetterControl {
        LetterControl {
            letter,
            timeline: HealthTimeline::new(slots),
            outages: vec![Vec::new(); slots],
            stalls: vec![Vec::new(); slots],
        }
    }

    /// Whether `slot` is actually unreachable at `t` (ground truth, not
    /// belief — a dead engine eats queries whether or not the watchdog
    /// noticed yet).
    pub fn down_at(&self, slot: usize, t: u64) -> bool {
        self.outages[slot].iter().any(|&(s, e)| t >= s && t < e)
    }

    /// The stall delay in force at `slot` at `t`, if any.
    pub fn stall_delay_at(&self, slot: usize, t: u64) -> Option<u64> {
        self.stalls[slot]
            .iter()
            .find(|&&(s, e, _)| t >= s && t < e)
            .map(|&(_, _, d)| d)
    }

    /// Total ground-truth outage intervals recorded for this letter.
    pub fn outage_count(&self) -> usize {
        self.outages.iter().map(Vec::len).sum()
    }
}

/// Everything [`run_control_plane`] produced.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    /// Per letter, in roster order.
    pub letters: Vec<LetterControl>,
    /// Every crash incident, in detection order.
    pub recoveries: Vec<RecoveryLog>,
    /// Watchdog probes fired (only faulted sites are probed — a site
    /// with no scheduled fault cannot transition, so its probes are
    /// elided wholesale; that is what makes the healthy-plan control
    /// plane free).
    pub probes: u64,
}

/// One control-plane event at a faulted site.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A failure window opens; a crash must be outlasted until `end`.
    Onset(FailureKind, u64),
    /// A failure window closes.
    End(FailureKind),
    /// Restart attempt `n` (1-based) of the site's current crash incident.
    Restart(u32),
    /// One watchdog probe.
    Probe,
}

impl Event {
    /// The same-instant lane within a site: window ends fire before
    /// onsets, onsets before restarts, restarts before probes.
    fn lane(self) -> u64 {
        match self {
            Event::End(_) => 0,
            Event::Onset(..) => 1,
            Event::Restart(_) => 2,
            Event::Probe => 3,
        }
    }
}

/// Queue `event` at `site` (an index into the faulted sites, which keep
/// roster order) for `t`, keyed so same-instant events fire in site order,
/// then lane order.
fn schedule(sched: &mut Scheduler<(usize, Event)>, t: u64, site: usize, event: Event) {
    sched.schedule_keyed(t, site as u64 * 4 + event.lane(), (site, event));
}

/// Live state of one faulted site while the control plane runs.
#[derive(Debug, Default)]
struct SiteState {
    /// Roster position: letter index, engine slot, site id.
    li: usize,
    slot: usize,
    site_id: u32,
    health: SiteHealth,
    /// Active blackhole windows (overlap-safe depth counter).
    blackhole_depth: u32,
    /// Crashed and not yet restarted; holds the underlying window end a
    /// restart must outlast.
    crash_until: Option<u64>,
    /// The delay of each stall window open now, one entry per window.
    stalls: Vec<u64>,
    /// Open ground-truth intervals being accumulated: the outage's start,
    /// and the stall's start with the delay in force since.
    down_since: Option<u64>,
    stall_since: Option<(u64, u64)>,
    /// Index into `recoveries` for the current crash incident.
    log_idx: Option<usize>,
}

impl SiteState {
    fn is_down(&self) -> bool {
        self.blackhole_depth > 0 || self.crash_until.is_some()
    }

    /// Open or close the ground-truth outage and stall intervals after
    /// the site's flags changed at `t`. The stall delay in force is the
    /// longest of the stalls open now; an interval is cut wherever it
    /// changes.
    fn sync(&mut self, lc: &mut LetterControl, t: u64) {
        match (self.down_since, self.is_down()) {
            (None, true) => self.down_since = Some(t),
            (Some(since), false) => {
                lc.outages[self.slot].push((since, t));
                self.down_since = None;
            }
            _ => {}
        }
        let delay = self.stalls.iter().copied().max();
        if self.stall_since.map(|(_, d)| d) != delay {
            if let Some((since, d)) = self.stall_since.filter(|&(since, _)| since < t) {
                lc.stalls[self.slot].push((since, t, d));
            }
            self.stall_since = delay.map(|d| (t, d));
        }
    }
}

/// Play `plan` against the site roster as a discrete-event program and
/// return the piecewise-constant control-plane view. `roster` lists each
/// letter's site ids in engine-slot order (what `Farm::letters` exposes);
/// `horizon_ms` bounds the watchdog (size it past the plan's last window
/// plus the recovery budget).
pub fn run_control_plane(
    roster: &[(RootLetter, Vec<u32>)],
    plan: &FailurePlan,
    health: &HealthConfig,
    policy: &RecoveryPolicy,
    horizon_ms: u64,
) -> ControlPlane {
    let mut letters: Vec<LetterControl> = roster
        .iter()
        .map(|(l, sites)| LetterControl::new(*l, sites.len()))
        .collect();
    let mut sites = Vec::new();
    let mut recoveries: Vec<RecoveryLog> = Vec::new();
    let mut probes = 0;
    let mut sched = Scheduler::new();
    for (li, (letter, ids)) in roster.iter().enumerate() {
        for (slot, &site_id) in ids.iter().enumerate() {
            // An empty window faults nothing, and scheduling one would
            // queue its end before its onset (ends fire first at one
            // instant): the window would open after its own close.
            let mut windows = (plan.windows_for(*letter, site_id).iter())
                .filter(|w| w.start_ms < w.end_ms)
                .peekable();
            if windows.peek().is_none() {
                continue; // Never-faulted sites cannot transition: skip.
            }
            let s = sites.len();
            for w in windows {
                schedule(&mut sched, w.start_ms, s, Event::Onset(w.kind, w.end_ms));
                if w.end_ms != u64::MAX {
                    schedule(&mut sched, w.end_ms, s, Event::End(w.kind));
                }
            }
            // The watchdog: one probe per interval for the whole horizon,
            // each firing queues the next.
            if health.probe_interval_ms <= horizon_ms {
                schedule(&mut sched, health.probe_interval_ms, s, Event::Probe);
            }
            sites.push(SiteState {
                li,
                slot,
                site_id,
                ..SiteState::default()
            });
        }
    }

    while let Some((t, (s, event))) = sched.pop() {
        let site = &mut sites[s];
        let lc = &mut letters[site.li];
        match event {
            Event::Onset(kind, end) => {
                match kind {
                    FailureKind::Crash => {
                        site.crash_until = Some(site.crash_until.unwrap_or(0).max(end));
                    }
                    FailureKind::Blackhole => site.blackhole_depth += 1,
                    FailureKind::Stall { delay_ms } => site.stalls.push(delay_ms),
                }
                site.sync(lc, t);
            }
            Event::End(kind) => {
                match kind {
                    // A crash needs a restart: the end of the underlying
                    // window alone heals nothing.
                    FailureKind::Crash => {}
                    FailureKind::Blackhole => {
                        site.blackhole_depth = site.blackhole_depth.saturating_sub(1);
                    }
                    FailureKind::Stall { delay_ms } => {
                        if let Some(i) = site.stalls.iter().position(|&d| d == delay_ms) {
                            site.stalls.swap_remove(i);
                        }
                    }
                }
                site.sync(lc, t);
            }
            Event::Restart(attempt) => {
                let log_idx = site.log_idx.expect("a restart belongs to an open incident");
                let log = &mut recoveries[log_idx];
                log.attempts = attempt;
                if site.crash_until.is_some_and(|until| t >= until) {
                    // The restart lands: the underlying fault has passed,
                    // the engine is back. The watchdog takes it from here
                    // (Dead → Probation → Healthy on the next probes).
                    site.crash_until = None;
                    site.log_idx = None;
                    log.recovered_at = Some(t);
                    site.sync(lc, t);
                } else if attempt < policy.max_attempts {
                    let backoff =
                        policy.backoff_ms(u64::from(site.site_id), log.detected_at, attempt + 1);
                    schedule(&mut sched, t + backoff, s, Event::Restart(attempt + 1));
                }
                // Budget exhausted: the incident log keeps
                // `recovered_at: None` and the site stays down — the
                // report surfaces it.
            }
            Event::Probe => {
                probes += 1;
                if t + health.probe_interval_ms <= horizon_ms {
                    schedule(&mut sched, t + health.probe_interval_ms, s, Event::Probe);
                }
                let outcome = if site.is_down() {
                    ProbeOutcome::Down
                } else if site.stalls.iter().any(|&d| d > health.slo_ms) {
                    ProbeOutcome::Slow
                } else {
                    ProbeOutcome::Ok
                };
                if let Some(next) = site.health.on_probe(outcome, health) {
                    lc.timeline.record(site.slot, t, next);
                }
            }
        }
        if site.crash_until.is_some()
            && site.log_idx.is_none()
            && site.health.status() == SiteStatus::Dead
        {
            // A crashed engine believed Dead with no incident open — just
            // declared Dead, or already Dead (blackholed) when the crash
            // began: open the incident log and queue restart attempt 1 on
            // the backoff ladder.
            site.log_idx = Some(recoveries.len());
            recoveries.push(RecoveryLog {
                letter: lc.letter,
                site_id: site.site_id,
                failed_at: site.down_since.unwrap_or(t),
                detected_at: t,
                attempts: 0,
                recovered_at: None,
            });
            let backoff = policy.backoff_ms(u64::from(site.site_id), t, 1);
            schedule(&mut sched, t + backoff, s, Event::Restart(1));
        }
    }

    // Close intervals still open at the horizon: a site that never came
    // back is down for the rest of time.
    for site in &mut sites {
        let lc = &mut letters[site.li];
        if let Some(since) = site.down_since.take() {
            lc.outages[site.slot].push((since, u64::MAX));
        }
        if let Some((since, delay)) = site.stall_since.take() {
            lc.stalls[site.slot].push((since, u64::MAX, delay));
        }
    }
    ControlPlane {
        letters,
        recoveries,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roster() -> Vec<(RootLetter, Vec<u32>)> {
        vec![
            (RootLetter::A, vec![10, 11, 12]),
            (RootLetter::B, vec![20, 21]),
        ]
    }

    fn run(plan: &FailurePlan) -> ControlPlane {
        run_control_plane(
            &roster(),
            plan,
            &HealthConfig::default(),
            &RecoveryPolicy::default(),
            60_000,
        )
    }

    #[test]
    fn empty_plan_probes_nothing_and_transitions_nothing() {
        let cp = run(&FailurePlan::none(1));
        assert_eq!(cp.probes, 0);
        assert!(cp.recoveries.is_empty());
        for lc in &cp.letters {
            assert!(lc.timeline.events().is_empty());
            assert_eq!(lc.outage_count(), 0);
        }
    }

    #[test]
    fn crash_is_detected_restarted_and_rejoins_via_probation() {
        let mut plan = FailurePlan::none(7);
        plan.add(RootLetter::A, 11, FailureKind::Crash, (2_000, 6_000));
        let cp = run(&plan);
        assert_eq!(cp.recoveries.len(), 1);
        let log = cp.recoveries[0];
        assert_eq!((log.letter, log.site_id), (RootLetter::A, 11));
        assert_eq!(log.failed_at, 2_000);
        // Detection: dead_after hard failures on the probe cadence.
        assert!(
            log.detected_at >= 2_000 && log.detected_at <= 3_000,
            "{log:?}"
        );
        assert!(log.converged(), "{log:?}");
        let recovered = log.recovered_at.unwrap();
        // Restarts into the still-broken window fail and back off; the
        // landing attempt is after the window end, within the budget.
        assert!(recovered >= 6_000);
        assert!(
            recovered <= log.detected_at + RecoveryPolicy::default().budget_ms(),
            "{log:?}"
        );
        assert!(
            log.attempts >= 2,
            "early restarts must have failed: {log:?}"
        );
        // Ground truth: exactly one outage, crash onset to restart.
        let lc = &cp.letters[0];
        assert_eq!(lc.outages[1], vec![(2_000, recovered)]);
        assert!(lc.down_at(1, 2_000) && lc.down_at(1, recovered - 1));
        assert!(!lc.down_at(1, 1_999) && !lc.down_at(1, recovered));
        // Belief: Dead at detection, Probation then Healthy after.
        assert_eq!(lc.timeline.status_at(1, log.detected_at), SiteStatus::Dead);
        let end_status = lc.timeline.status_at(1, 59_999);
        assert_eq!(end_status, SiteStatus::Healthy);
        // Untouched sites never transitioned.
        assert!(cp.letters[1].timeline.events().is_empty());
    }

    #[test]
    fn blackhole_heals_without_restarts() {
        let mut plan = FailurePlan::none(3);
        plan.add(RootLetter::B, 21, FailureKind::Blackhole, (1_000, 4_000));
        let cp = run(&plan);
        assert!(cp.recoveries.is_empty(), "no crash, no restart ladder");
        let lc = &cp.letters[1];
        assert_eq!(lc.outages[1], vec![(1_000, 4_000)]);
        assert_eq!(lc.timeline.status_at(1, 3_000), SiteStatus::Dead);
        assert_eq!(lc.timeline.status_at(1, 59_999), SiteStatus::Healthy);
    }

    #[test]
    fn stall_degrades_to_suspect_but_keeps_serving() {
        let mut plan = FailurePlan::none(9);
        plan.add(
            RootLetter::A,
            10,
            FailureKind::Stall { delay_ms: 400 },
            (1_000, 5_000),
        );
        let cp = run(&plan);
        let lc = &cp.letters[0];
        assert_eq!(lc.outage_count(), 0, "a stalled site is not down");
        assert_eq!(lc.stall_delay_at(0, 2_000), Some(400));
        assert_eq!(lc.stall_delay_at(0, 5_000), None);
        assert_eq!(lc.timeline.status_at(0, 3_000), SiteStatus::Suspect);
        assert!(lc.timeline.status_at(0, 3_000).in_rotation());
        assert_eq!(lc.timeline.status_at(0, 59_999), SiteStatus::Healthy);
    }

    /// The delay in force is the longest stall open at that instant: a
    /// 50 ms stall after a 400 ms one at the same site is recorded with
    /// its own delay, probes under the SLO, and leaves the site Healthy.
    #[test]
    fn a_later_shorter_stall_is_recorded_with_its_own_delay() {
        let mut plan = FailurePlan::none(9);
        let stall = |delay_ms| FailureKind::Stall { delay_ms };
        plan.add(RootLetter::A, 10, stall(400), (1_000, 3_000)).add(
            RootLetter::A,
            10,
            stall(50),
            (5_000, 9_000),
        );
        let cp = run(&plan);
        let lc = &cp.letters[0];
        assert_eq!(lc.stalls[0], vec![(1_000, 3_000, 400), (5_000, 9_000, 50)]);
        assert_eq!(lc.stall_delay_at(0, 6_000), Some(50));
        assert_eq!(lc.timeline.status_at(0, 2_000), SiteStatus::Suspect);
        assert_eq!(lc.timeline.status_at(0, 4_000), SiteStatus::Healthy);
        for t in (5_000..9_000).step_by(250) {
            assert_eq!(lc.timeline.status_at(0, t), SiteStatus::Healthy, "{t}");
        }
    }

    /// Overlapping stalls: the interval is cut wherever the longest open
    /// delay changes, and each end removes its own window.
    #[test]
    fn overlapping_stalls_cut_the_interval_where_the_delay_changes() {
        let mut plan = FailurePlan::none(9);
        let stall = |delay_ms| FailureKind::Stall { delay_ms };
        plan.add(RootLetter::A, 10, stall(50), (1_000, 6_000)).add(
            RootLetter::A,
            10,
            stall(400),
            (2_000, 4_000),
        );
        let cp = run(&plan);
        assert_eq!(
            cp.letters[0].stalls[0],
            vec![(1_000, 2_000, 50), (2_000, 4_000, 400), (4_000, 6_000, 50)]
        );
    }

    /// A zero-length window is empty: its site is never down, never
    /// transitions, and is not even probed.
    #[test]
    fn a_zero_length_blackhole_darkens_nothing() {
        let mut plan = FailurePlan::none(3);
        plan.add(RootLetter::B, 21, FailureKind::Blackhole, (2_000, 2_000));
        let cp = run(&plan);
        assert_eq!(cp.probes, 0);
        assert!(cp.recoveries.is_empty());
        let lc = &cp.letters[1];
        assert_eq!(lc.outage_count(), 0);
        assert!(lc.timeline.events().is_empty());
        assert_eq!(lc.timeline.status_at(1, 59_999), SiteStatus::Healthy);
    }

    #[test]
    fn a_zero_length_stall_delays_nothing() {
        let mut plan = FailurePlan::none(9);
        let stall = FailureKind::Stall { delay_ms: 400 };
        plan.add(RootLetter::A, 10, stall, (2_000, 2_000));
        let cp = run(&plan);
        assert_eq!(cp.probes, 0);
        let lc = &cp.letters[0];
        for t in [0, 1_999, 2_000, 2_001, 59_999, u64::MAX - 1] {
            assert_eq!(lc.stall_delay_at(0, t), None, "{t}");
        }
        assert!(lc.timeline.events().is_empty());
    }

    /// A crash that begins while its site is already believed Dead (here
    /// behind a blackhole) opens its incident at once: the restart ladder
    /// converges, the outage ends, and the site is Healthy again by the
    /// blackhole's end plus the restart budget.
    #[test]
    fn a_crash_at_a_site_believed_dead_gets_a_restart_ladder() {
        let mut plan = FailurePlan::none(5);
        plan.add(RootLetter::B, 21, FailureKind::Blackhole, (1_000, 5_000))
            .add(RootLetter::B, 21, FailureKind::Crash, (3_000, 4_000));
        let cp = run(&plan);
        assert_eq!(cp.recoveries.len(), 1);
        let log = cp.recoveries[0];
        assert!(log.converged(), "{log:?}");
        assert_eq!(log.detected_at, 3_000);
        let lc = &cp.letters[1];
        assert_eq!(lc.outages[1].len(), 1);
        let (start, end) = lc.outages[1][0];
        assert_eq!(start, 1_000);
        assert!(end != u64::MAX && end >= 5_000, "{end}");
        let budget = RecoveryPolicy::default().budget_ms();
        assert_eq!(
            lc.timeline.status_at(1, 5_000 + budget),
            SiteStatus::Healthy
        );
    }

    #[test]
    fn control_plane_replays_bit_identically() {
        let mut plan = FailurePlan::none(42);
        plan.add(RootLetter::A, 11, FailureKind::Crash, (2_000, 9_000));
        plan.add(RootLetter::A, 12, FailureKind::Blackhole, (3_000, 7_000));
        plan.add(
            RootLetter::B,
            20,
            FailureKind::Stall { delay_ms: 250 },
            (1_000, 20_000),
        );
        let (a, b) = (run(&plan), run(&plan));
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.recoveries, b.recoveries);
        for (x, y) in a.letters.iter().zip(&b.letters) {
            assert_eq!(x.timeline.events(), y.timeline.events());
            assert_eq!(x.outages, y.outages);
            assert_eq!(x.stalls, y.stalls);
        }
    }

    #[test]
    fn backoff_is_capped_exponential_and_deterministic() {
        let p = RecoveryPolicy::default();
        let delays: Vec<u64> = (1..=8).map(|a| p.backoff_ms(5, 1_000, a)).collect();
        assert_eq!(
            delays,
            (1..=8)
                .map(|a| p.backoff_ms(5, 1_000, a))
                .collect::<Vec<_>>()
        );
        // Roughly doubling, within jitter, and capped at the ceiling.
        for (i, &d) in delays.iter().enumerate() {
            let exp = (p.base_backoff_ms << i.min(20)).min(p.max_backoff_ms);
            let span = (exp as f64 * p.jitter_frac) as u64;
            assert!(
                d >= exp - span / 2 - 1 && d <= exp + span,
                "attempt {i}: {d} vs {exp}"
            );
        }
        assert_eq!(p.backoff_ms(5, 1_000, 0), 0);
        assert!(p.budget_ms() >= delays.iter().sum::<u64>());
    }

    #[test]
    fn unrecoverable_crash_exhausts_the_budget_and_stays_down() {
        let mut plan = FailurePlan::none(13);
        // The crash window outlasts the whole restart budget.
        plan.add(RootLetter::A, 10, FailureKind::Crash, (1_000, u64::MAX));
        let cp = run(&plan);
        assert_eq!(cp.recoveries.len(), 1);
        let log = cp.recoveries[0];
        assert!(!log.converged());
        assert_eq!(log.attempts, RecoveryPolicy::default().max_attempts);
        let lc = &cp.letters[0];
        assert_eq!(lc.outages[0], vec![(1_000, u64::MAX)]);
        assert_eq!(lc.timeline.status_at(0, 59_999), SiteStatus::Dead);
    }

    #[test]
    fn same_instant_events_fire_in_site_then_lane_order() {
        // Registered against the order they must fire in: the key, not
        // the registration, decides.
        let mut sched = Scheduler::new();
        schedule(&mut sched, 500, 1, Event::Probe);
        schedule(&mut sched, 500, 1, Event::End(FailureKind::Crash));
        schedule(&mut sched, 500, 0, Event::Probe);
        schedule(&mut sched, 500, 0, Event::Restart(1));
        schedule(
            &mut sched,
            500,
            0,
            Event::Onset(FailureKind::Blackhole, 900),
        );
        schedule(&mut sched, 400, 1, Event::Probe);
        let fired: Vec<(u64, usize, u64)> = std::iter::from_fn(|| sched.pop())
            .map(|(t, (site, event))| (t, site, event.lane()))
            .collect();
        assert_eq!(
            fired,
            [
                (400, 1, 3),
                (500, 0, 1),
                (500, 0, 2),
                (500, 0, 3),
                (500, 1, 0),
                (500, 1, 3)
            ]
        );
    }

    /// One plan that exercises every ordering rule of the control plane,
    /// pinned by a literal digest of everything `run_control_plane`
    /// returns: a blackhole ending at the instant a crash starts at the
    /// same site (ends before onsets), overlapping blackholes (the depth
    /// counter), a stall below and one above the SLO, a crash that
    /// recovers and one that exhausts the restart budget, a crash onset
    /// at the instant of a pending restart (onsets before restarts), an
    /// open-ended window, and two sites declared Dead at the same probe
    /// instant (recoveries in site order).
    #[test]
    fn every_ordering_rule_replays_to_a_pinned_digest() {
        let roster = vec![
            (RootLetter::A, vec![10, 11, 12, 13]),
            (RootLetter::B, vec![20, 21, 22, 23]),
        ];
        let run = |plan: &FailurePlan| {
            run_control_plane(
                &roster,
                plan,
                &HealthConfig::default(),
                &RecoveryPolicy::default(),
                60_000,
            )
        };
        // The first restart instant of A/11's crash, where the second
        // crash there starts.
        let mut first = FailurePlan::none(0x39);
        first.add(RootLetter::A, 11, FailureKind::Crash, (2_000, 3_000));
        let restart_1 = run(&first).recoveries[0].recovered_at.unwrap();

        let mut plan = first.clone();
        plan.add(RootLetter::A, 10, FailureKind::Blackhole, (1_000, 1_400))
            .add(RootLetter::A, 10, FailureKind::Crash, (1_400, 5_000))
            .add(RootLetter::A, 11, FailureKind::Crash, (restart_1, 9_000))
            .add(RootLetter::A, 12, FailureKind::Blackhole, (5_000, 9_000))
            .add(RootLetter::A, 12, FailureKind::Blackhole, (7_000, 12_000))
            .add(RootLetter::A, 13, FailureKind::Crash, (30_000, 31_000))
            .add(RootLetter::B, 21, FailureKind::Crash, (30_000, 31_000))
            .add(
                RootLetter::B,
                20,
                FailureKind::Stall { delay_ms: 50 },
                (2_000, 6_000),
            )
            .add(
                RootLetter::B,
                22,
                FailureKind::Stall { delay_ms: 400 },
                (8_000, u64::MAX),
            )
            .add(RootLetter::B, 23, FailureKind::Crash, (15_000, 100_000));
        let cp = run(&plan);

        let a = &cp.letters[0];
        assert_eq!(a.outages[0][0], (1_000, 1_400), "the blackhole ends first");
        assert_eq!(a.outages[2], vec![(5_000, 12_000)]);
        let sites: Vec<(RootLetter, u32)> = cp
            .recoveries
            .iter()
            .map(|r| (r.letter, r.site_id))
            .collect();
        assert_eq!(
            sites,
            [
                (RootLetter::A, 10),
                (RootLetter::A, 11),
                (RootLetter::B, 23),
                (RootLetter::A, 13),
                (RootLetter::B, 21)
            ]
        );
        assert!(
            cp.recoveries[1].attempts > 1,
            "the restart at the onset fails"
        );
        assert_eq!(cp.recoveries[2].recovered_at, None);

        let mut h = Fingerprint::new();
        for lc in &cp.letters {
            h.mix(lc.letter.index() as u64);
            for (slot, t, status) in lc.timeline.events() {
                h.mix(slot as u64);
                h.mix(t);
                h.mix(status.id());
            }
            for (slot, (outages, stalls)) in lc.outages.iter().zip(&lc.stalls).enumerate() {
                h.mix(slot as u64);
                for &(s, e) in outages {
                    h.mix(s);
                    h.mix(e);
                }
                h.mix(u64::MAX - 1);
                for &(s, e, d) in stalls {
                    h.mix(s);
                    h.mix(e);
                    h.mix(d);
                }
            }
        }
        for r in &cp.recoveries {
            h.mix(r.letter.index() as u64);
            h.mix(u64::from(r.site_id));
            h.mix(r.failed_at);
            h.mix(r.detected_at);
            h.mix(u64::from(r.attempts));
            h.mix(r.recovered_at.unwrap_or(u64::MAX));
        }
        h.mix(cp.probes);
        assert_eq!(
            h.finish(),
            212_179_010_794_791_870,
            "control-plane digest moved"
        );
    }
}
