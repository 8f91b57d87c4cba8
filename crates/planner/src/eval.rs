//! Candidate evaluation: apply → propagate → sweep → score → revert.
//!
//! An [`EvalContext`] owns a private clone of the world's topology plus
//! the focus letter's in-service roster (the Table 1/4 baseline — exactly
//! what `vantage`'s routing recompute propagates, which is checked by
//! [`EvalContext::baseline_matches_world`]). Evaluating a candidate
//! applies its moves to that private state, recomputes both families'
//! route tables, sweeps every vantage point through the RTT model into an
//! [`analysis::catchment::DeploymentSummary`], scores the delta against
//! the baseline, and reverts — deployment moves through a stack of exact
//! inverses, topology moves through a [`netsim::TopologySnapshot`]
//! restore. The revert is bit-identical (routing *and* catchment
//! fingerprints), pinned by this crate's proptests, which is what makes a
//! context reusable across thousands of candidates.
//!
//! The optional simclock-pinned mode ([`TimelineSpec`]) additionally
//! scores each candidate *through* a scenario timeline: the scenario's
//! routing-mutating events (site outages, pending additions, peering-link
//! failures) are translated into moves per epoch, each epoch gets its own
//! events-only baseline, and the candidate is judged by its worst epoch —
//! "does this placement still hold during the outage window?".

use crate::moves::{CandidatePlan, Move};
use analysis::catchment::{DeploymentSummary, ServedSite, SummaryDelta};
use netsim::anycast::{Deployment, FacilityId, Site, SiteId};
use netsim::routing::propagate;
use netsim::{
    AsId, Family, Fingerprint, Relation, RouteTable, RttModel, Topology, TopologySnapshot,
};
use rss::RootLetter;
use scenario::{EventKind, Scenario};
use simclock::TimeAxis;
use vantage::World;

/// Scenario-timeline scoring mode: candidates are additionally evaluated
/// through each epoch of `scenario` between `start` and `end` (seconds,
/// the measurement-schedule axis; virtual millisecond 0 of the
/// [`TimeAxis`] is `start`, matching `ScenarioEngine::time_axis`).
#[derive(Debug, Clone, Copy)]
pub struct TimelineSpec<'a> {
    pub scenario: &'a Scenario,
    pub start: u32,
    pub end: u32,
}

/// The score of one candidate: its steady-state delta vs the baseline,
/// assignment churn, and (in timeline mode) its worst epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    pub id: u32,
    /// The plan's human label (`identity`, `+siteg@f3+renumber`, ...).
    pub label: String,
    /// Steady-state delta vs the Table 1/4 baseline.
    pub delta: SummaryDelta,
    /// Fraction of (vantage point, family) best-site assignments that
    /// changed vs the baseline, plus 1.0 when the plan renumbers the
    /// prefix (every client re-learns the new address) — so the axis
    /// runs 0..=2.
    pub churn: f64,
    /// Worst per-epoch score when evaluated through a scenario timeline.
    pub worst_epoch: Option<EpochDelta>,
}

impl CandidateScore {
    /// The three Pareto axes: (RTT delta ms — lower better, locality
    /// delta — higher better, churn — lower better).
    pub fn axes(&self) -> (f64, f64, f64) {
        (self.delta.rtt_combined(), self.delta.locality, self.churn)
    }
}

/// One epoch's score in timeline mode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochDelta {
    /// Epoch position on the timeline.
    pub epoch: usize,
    /// Window + active events, e.g. `[0ms,86400000ms) outage(b/2)`.
    pub label: String,
    /// Candidate delta vs the *events-only* baseline of the same epoch.
    pub delta: SummaryDelta,
    pub churn: f64,
}

/// One evaluated deployment state: the population summary, the per-
/// (vp, family) best-site assignment vector, and the two fingerprints the
/// revert invariant is checked against.
#[derive(Debug, Clone, PartialEq)]
struct EvalPoint {
    summary: DeploymentSummary,
    /// Per VP, per family index: best site id + 1, or 0 when unanswered
    /// (or the VP lacks the family).
    assignments: Vec<[u32; 2]>,
    route_fp: u64,
    catchment_fp: u64,
}

/// One timeline epoch: its label, the event-translated moves in force,
/// and the events-only baseline candidates are diffed against.
struct EpochSpec {
    label: String,
    moves: Vec<Move>,
    baseline: EvalPoint,
}

/// What one applied move needs for its exact inverse (deployment moves
/// only — topology moves are undone by snapshot restore).
enum Undo {
    None,
    /// A removed site goes back to its original position.
    ReinsertSite {
        index: usize,
        site: Site,
    },
    /// An added site is popped off the roster tail.
    PopSite,
    /// A re-homed site gets its facility and origin back.
    RehomeSite {
        index: usize,
        facility: FacilityId,
        origin_as: AsId,
    },
}

/// Reusable evaluation state for one (world, letter) pair.
pub struct EvalContext<'w> {
    world: &'w World,
    pub letter: RootLetter,
    topology: Topology,
    base_topology: TopologySnapshot,
    deployment: Deployment,
    base_deployment: Deployment,
    rtt: RttModel,
    /// First site id free for plan-added sites: past the *full* catalog
    /// roster, so fresh ids never collide with existing ones.
    fresh_site_base: u32,
    next_site_id: u32,
    /// Number of (vp, family) pairs eligible for assignment (v6 pairs
    /// exist only for v6-capable VPs) — the churn denominator.
    eligible_pairs: usize,
    baseline: EvalPoint,
    epochs: Vec<EpochSpec>,
}

impl<'w> EvalContext<'w> {
    /// Build a context for `letter` against `world`'s current state
    /// (withdrawn sites stay excluded, matching the world's own routing).
    /// With a [`TimelineSpec`], per-epoch events-only baselines are
    /// precomputed so candidates can be scored through the timeline.
    pub fn new(world: &'w World, letter: RootLetter, timeline: Option<TimelineSpec>) -> Self {
        let full = world.catalog.deployment(letter);
        let withdrawn = world.withdrawn_sites(letter);
        let deployment = Deployment {
            name: full.name.clone(),
            sites: full
                .sites
                .iter()
                .filter(|s| !withdrawn.contains(&s.id))
                .cloned()
                .collect(),
        };
        let topology = world.topology.clone();
        let base_topology = topology.snapshot();
        let eligible_pairs = world
            .population
            .vps()
            .iter()
            .map(|vp| 1 + usize::from(vp.has_v6))
            .sum();
        let mut ctx = EvalContext {
            world,
            letter,
            base_topology,
            base_deployment: deployment.clone(),
            deployment,
            topology,
            rtt: RttModel::default(),
            fresh_site_base: full.sites.len() as u32,
            next_site_id: full.sites.len() as u32,
            eligible_pairs,
            baseline: EvalPoint {
                summary: DeploymentSummary::new(),
                assignments: Vec::new(),
                route_fp: 0,
                catchment_fp: 0,
            },
            epochs: Vec::new(),
        };
        ctx.baseline = ctx.eval_current();
        if let Some(spec) = timeline {
            ctx.build_epochs(&spec);
        }
        ctx
    }

    /// Whether the context's pristine routing is bit-identical to what the
    /// world itself computed (per-family route-table fingerprints) — the
    /// guarantee that candidate deltas really are deltas against the
    /// Table 1/4 baseline.
    pub fn baseline_matches_world(&self) -> bool {
        self.baseline.route_fp == world_route_fingerprint(self.world, self.letter)
    }

    /// `(routing, catchment)` fingerprints of the pristine baseline.
    pub fn baseline_fingerprints(&self) -> (u64, u64) {
        (self.baseline.route_fp, self.baseline.catchment_fp)
    }

    /// `(routing, catchment)` fingerprints of the *current* private state,
    /// recomputed from scratch. After any `evaluate` this must equal
    /// [`EvalContext::baseline_fingerprints`] — the revert invariant the
    /// proptests pin.
    pub fn current_fingerprints(&self) -> (u64, u64) {
        let p = self.eval_current();
        (p.route_fp, p.catchment_fp)
    }

    /// Whether the private topology and roster are back in their pristine
    /// state (structural equality, not just fingerprints).
    pub fn is_pristine(&self) -> bool {
        self.base_topology.matches(&self.topology) && self.deployment == self.base_deployment
    }

    /// Number of timeline epochs (0 outside timeline mode).
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// The window + active-events label of epoch `i`.
    pub fn epoch_label(&self, i: usize) -> &str {
        &self.epochs[i].label
    }

    /// `(routing, catchment)` fingerprints of epoch `i`'s events-only
    /// baseline — cross-checkable against a real [`World`] driven through
    /// `scenario::apply_event`.
    pub fn epoch_baseline_fingerprints(&self, i: usize) -> (u64, u64) {
        (
            self.epochs[i].baseline.route_fp,
            self.epochs[i].baseline.catchment_fp,
        )
    }

    /// Evaluate one candidate: steady-state delta vs the baseline, plus —
    /// in timeline mode — the worst epoch. The context is returned to its
    /// pristine state afterwards, bit-identically.
    pub fn evaluate(&mut self, plan: &CandidatePlan) -> CandidateScore {
        debug_assert_eq!(plan.letter, self.letter, "plan letter mismatch");
        let point = self.eval_with(&[], &plan.moves);
        let delta = point.summary.delta(&self.baseline.summary);
        let churn = self.churn(&point, &self.baseline, plan);

        let mut worst: Option<EpochDelta> = None;
        for (epoch, spec) in self.epochs.iter().enumerate() {
            let p = eval_applied(
                &mut self.topology,
                &mut self.deployment,
                &mut self.next_site_id,
                self.fresh_site_base,
                &self.base_topology,
                self.world,
                &self.rtt,
                &spec.moves,
                &plan.moves,
            );
            let d = p.summary.delta(&spec.baseline.summary);
            let c = self.churn(&p, &spec.baseline, plan);
            let cand = EpochDelta {
                epoch,
                label: spec.label.clone(),
                delta: d,
                churn: c,
            };
            let worse = match &worst {
                None => true,
                Some(cur) => {
                    let key = |e: &EpochDelta| (e.delta.rtt_combined(), e.delta.loss, e.churn);
                    let (a, b) = (key(&cand), key(cur));
                    a.0.total_cmp(&b.0)
                        .then(a.1.total_cmp(&b.1))
                        .then(a.2.total_cmp(&b.2))
                        .is_gt()
                }
            };
            if worse {
                worst = Some(cand);
            }
        }

        CandidateScore {
            id: plan.id,
            label: plan.label(),
            delta,
            churn,
            worst_epoch: worst,
        }
    }

    /// Assignment churn of `point` vs `base`: changed (vp, family) pairs
    /// over eligible pairs, plus the renumbering re-learn penalty.
    fn churn(&self, point: &EvalPoint, base: &EvalPoint, plan: &CandidatePlan) -> f64 {
        let changed = point
            .assignments
            .iter()
            .zip(&base.assignments)
            .map(|(a, b)| usize::from(a[0] != b[0]) + usize::from(a[1] != b[1]))
            .sum::<usize>();
        let moved = changed as f64 / self.eligible_pairs.max(1) as f64;
        if plan.renumbers() {
            moved + 1.0
        } else {
            moved
        }
    }

    /// Apply `event_moves` then `plan_moves`, evaluate, revert everything.
    fn eval_with(&mut self, event_moves: &[Move], plan_moves: &[Move]) -> EvalPoint {
        eval_applied(
            &mut self.topology,
            &mut self.deployment,
            &mut self.next_site_id,
            self.fresh_site_base,
            &self.base_topology,
            self.world,
            &self.rtt,
            event_moves,
            plan_moves,
        )
    }

    /// Sweep the current private state: propagate both families, walk the
    /// population through the RTT model, fingerprint routing + catchment.
    fn eval_current(&self) -> EvalPoint {
        eval_state(self.world, &self.topology, &self.deployment, &self.rtt)
    }

    /// Translate the timeline into per-epoch move sets and evaluate the
    /// events-only baseline of each epoch.
    fn build_epochs(&mut self, spec: &TimelineSpec) {
        let axis = TimeAxis::anchored_at(spec.start);
        let cuts = spec.scenario.boundaries(spec.start, spec.end);
        let mut bounds = Vec::with_capacity(cuts.len() + 2);
        bounds.push(spec.start);
        bounds.extend_from_slice(&cuts);
        bounds.push(spec.end);
        for w in bounds.windows(2) {
            let (w_start, w_end) = (w[0], w[1]);
            let mut moves = Vec::new();
            let mut active_labels = Vec::new();
            for ev in spec.scenario.events() {
                let active = ev.at <= w_start && ev.effective_until() > w_start;
                match ev.kind {
                    EventKind::SiteOutage { letter, site } if letter == self.letter && active => {
                        moves.push(Move::RemoveSite { site });
                        active_labels.push(ev.kind.label());
                    }
                    // A to-be-added site is out of service until its
                    // activation window — and withdrawn again after it —
                    // mirroring the scenario engine's hold-out discipline.
                    EventKind::SiteAddition { letter, site } if letter == self.letter => {
                        if active {
                            active_labels.push(ev.kind.label());
                        } else {
                            moves.push(Move::RemoveSite { site });
                        }
                    }
                    EventKind::PeeringLinkFailure { a, b } if active => {
                        moves.push(Move::LinkDown { a, b });
                        active_labels.push(ev.kind.label());
                    }
                    _ => {}
                }
            }
            let label = format!(
                "[{}ms,{}ms) {}",
                axis.wall_to_ms(w_start),
                axis.wall_to_ms(w_end),
                if active_labels.is_empty() {
                    "baseline".to_string()
                } else {
                    active_labels.join("+")
                }
            );
            let baseline = self.eval_with(&moves, &[]);
            self.epochs.push(EpochSpec {
                label,
                moves,
                baseline,
            });
        }
    }
}

/// The world's own per-family route-table fingerprint for `letter`,
/// combined the same way [`EvalContext`] combines its private tables.
pub fn world_route_fingerprint(world: &World, letter: RootLetter) -> u64 {
    combine_route_fps(
        world.routes(letter, Family::V4),
        world.routes(letter, Family::V6),
    )
}

fn combine_route_fps(v4: &RouteTable, v6: &RouteTable) -> u64 {
    fnv([v4.fingerprint(), v6.fingerprint()].into_iter())
}

fn fnv(vals: impl Iterator<Item = u64>) -> u64 {
    let mut h = Fingerprint::new();
    vals.for_each(|v| h.mix(v));
    h.finish()
}

/// Apply both move lists (events first, the candidate on top), evaluate,
/// then revert: deployment moves through their exact inverses in reverse
/// order, topology moves through a snapshot restore. Free function so
/// [`EvalContext::evaluate`] can call it while iterating `self.epochs`.
#[allow(clippy::too_many_arguments)]
fn eval_applied(
    topology: &mut Topology,
    deployment: &mut Deployment,
    next_site_id: &mut u32,
    fresh_site_base: u32,
    base_topology: &TopologySnapshot,
    world: &World,
    rtt: &RttModel,
    event_moves: &[Move],
    plan_moves: &[Move],
) -> EvalPoint {
    *next_site_id = fresh_site_base;
    let mut undos = Vec::with_capacity(event_moves.len() + plan_moves.len());
    let mut topo_touched = false;
    for m in event_moves.iter().chain(plan_moves) {
        let (undo, topo) = apply_move(topology, deployment, next_site_id, world, m);
        undos.push(undo);
        topo_touched |= topo;
    }
    let point = eval_state(world, topology, deployment, rtt);
    for undo in undos.into_iter().rev() {
        revert_move(deployment, undo);
    }
    if topo_touched {
        topology.restore(base_topology);
    }
    point
}

/// Apply one move. Returns its deployment inverse and whether it touched
/// the topology. Moves whose target vanished under an earlier move (e.g.
/// an epoch outage already removed the site a candidate re-homes) degrade
/// to no-ops rather than corrupting state.
fn apply_move(
    topology: &mut Topology,
    deployment: &mut Deployment,
    next_site_id: &mut u32,
    world: &World,
    m: &Move,
) -> (Undo, bool) {
    match *m {
        Move::AddSite { facility, scope } => {
            let id = SiteId(*next_site_id);
            *next_site_id += 1;
            let fac = world.catalog.facilities.get(facility);
            deployment.sites.push(Site {
                id,
                facility,
                scope,
                origin_as: fac.host_as,
                instance_stem: format!("plan{}", id.0),
            });
            (Undo::PopSite, false)
        }
        Move::RemoveSite { site } => match deployment.sites.iter().position(|s| s.id == site) {
            Some(index) => {
                let site = deployment.sites.remove(index);
                (Undo::ReinsertSite { index, site }, false)
            }
            None => (Undo::None, false),
        },
        Move::MoveSite { site, to } => match deployment.sites.iter().position(|s| s.id == site) {
            Some(index) => {
                let fac = world.catalog.facilities.get(to);
                let s = &mut deployment.sites[index];
                let undo = Undo::RehomeSite {
                    index,
                    facility: s.facility,
                    origin_as: s.origin_as,
                };
                s.facility = to;
                s.origin_as = fac.host_as;
                (undo, false)
            }
            None => (Undo::None, false),
        },
        Move::Renumber => (Undo::None, false),
        Move::LinkDown { a, b } => {
            let changed = topology.disable_link(a, b).is_some();
            (Undo::None, changed)
        }
        Move::LinkUp { a, b } => {
            // Validation guarantees non-adjacency for candidate moves; the
            // guard covers event/candidate stacking on the same pair,
            // where add_link's replace semantics would reorder adjacency.
            if topology.links(a).iter().any(|l| l.to == b) {
                (Undo::None, false)
            } else {
                topology.add_link(a, b, Relation::Peer, true, true);
                (Undo::None, true)
            }
        }
    }
}

fn revert_move(deployment: &mut Deployment, undo: Undo) {
    match undo {
        Undo::None => {}
        Undo::ReinsertSite { index, site } => deployment.sites.insert(index, site),
        Undo::PopSite => {
            deployment.sites.pop();
        }
        Undo::RehomeSite {
            index,
            facility,
            origin_as,
        } => {
            let s = &mut deployment.sites[index];
            s.facility = facility;
            s.origin_as = origin_as;
        }
    }
}

/// Propagate + population sweep of one (topology, deployment) state.
fn eval_state(
    world: &World,
    topology: &Topology,
    deployment: &Deployment,
    rtt: &RttModel,
) -> EvalPoint {
    let tables = [
        propagate(topology, deployment, Family::V4),
        propagate(topology, deployment, Family::V6),
    ];
    let facilities = &world.catalog.facilities;
    let vps = world.population.vps();
    let mut summary = DeploymentSummary::new();
    let mut assignments = vec![[0u32; 2]; vps.len()];
    for (i, vp) in vps.iter().enumerate() {
        for family in Family::BOTH {
            if family == Family::V6 && !vp.has_v6 {
                continue;
            }
            match tables[family.index()].best(vp.asn) {
                Some(route) => {
                    let site = deployment.site(route.site);
                    let fac = facilities.get(site.facility);
                    let ms = rtt.base_rtt_ms(topology, facilities, vp.coord, route, site.facility);
                    summary.observe(
                        vp.region,
                        family,
                        Some(ServedSite {
                            site: route.site.0,
                            region: fac.city.region,
                            rtt_ms: ms,
                        }),
                    );
                    assignments[i][family.index()] = route.site.0 + 1;
                }
                None => summary.observe(vp.region, family, None),
            }
        }
    }
    let route_fp = combine_route_fps(&tables[0], &tables[1]);
    let catchment_fp = fnv(assignments
        .iter()
        .flat_map(|a| a.iter().map(|&v| u64::from(v))));
    EvalPoint {
        summary,
        assignments,
        route_fp,
        catchment_fp,
    }
}
