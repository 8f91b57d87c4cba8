//! Route churn: the process by which a client's selected anycast site
//! changes between measurement rounds.
//!
//! Real-world churn comes from BGP updates, tie-break flaps, and traffic
//! engineering. The model is a two-state Markov chain over the AS's
//! candidate list: in the *stable* state the previous selection is kept; a
//! flip re-selects among the candidates that are *near-equal* to the best
//! (same Gao-Rexford class, path length within one hop). The flip pressure
//! grows with the number of near-equal candidates — deployments whose sites
//! look alike from a client (like g.root's six similar sites in the paper)
//! flap more than deployments with one clearly-best path (b.root), which is
//! how Figure 3's per-letter differences emerge without hard-coding them.
//!
//! An ablation alternative (`FlipModel::Iid`) re-rolls independently each
//! round; `cargo bench -p bench --bench ablations` contrasts the tails.

use crate::anycast::SiteId;
use crate::fingerprint::Fingerprint;
use crate::rng::SimRng;
use crate::routing::{CandidateRoute, RouteTable};
use crate::types::AsId;

/// Which stochastic process drives flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipModel {
    /// Two-state Markov chain (sticky selection) — the default.
    Markov,
    /// Independent re-selection each round (ablation).
    Iid,
}

/// Churn model parameters.
#[derive(Debug, Clone)]
pub struct ChurnModel {
    /// Base per-round flip probability when ≥2 near-equal candidates exist.
    pub base_flip_prob: f64,
    /// Additional flip probability per extra near-equal candidate.
    pub per_candidate_prob: f64,
    /// Per-round probability that a path change *upstream* redirects the
    /// client to a different site it has no local alternative for —
    /// single-homed stubs still experience site changes this way, which is
    /// why even b.root's median VP saw 8 changes in the paper.
    pub upstream_flip_prob: f64,
    /// Candidates within this many extra AS hops of the best count as
    /// near-equal.
    pub near_equal_slack: usize,
    /// Stochastic process.
    pub model: FlipModel,
}

impl Default for ChurnModel {
    fn default() -> Self {
        // Calibrated against Figure 3's full-resolution medians: a VP with
        // two near-equal candidates flips ≈0.0008/round, i.e. ≈8 changes
        // over the paper's ~10k rounds (b.root's median); per-letter
        // multipliers (see `vantage::engine::churn_multiplier`) produce
        // g.root's 36 (v4) / 64 (v6).
        ChurnModel {
            base_flip_prob: 0.0004,
            per_candidate_prob: 0.0002,
            upstream_flip_prob: 0.0007,
            near_equal_slack: 1,
            model: FlipModel::Markov,
        }
    }
}

/// Per-(client, deployment, family) selection state across rounds.
#[derive(Debug, Clone)]
pub struct SelectionState {
    /// Index into the near-equal candidate set.
    current: usize,
    /// A persistent upstream redirection, if one is in effect.
    upstream_override: Option<SiteId>,
}

/// What a churn step did to a client's selection — the observable event
/// behind a site change, exposed so callers (the scenario engine, the
/// stability analyses) can see *why* a selection moved instead of
/// re-deriving it from opaque state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEventKind {
    /// A local tie-break flip to a different near-equal candidate.
    LocalFlip { from: SiteId, to: SiteId },
    /// An upstream path change redirected the client to `to`.
    UpstreamRedirect { to: SiteId },
    /// An upstream path change restored the locally-best selection.
    UpstreamRestore,
}

/// One entry of a per-round churn event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Round index the event happened in.
    pub round: u32,
    /// The AS whose selection changed.
    pub asn: AsId,
    pub kind: ChurnEventKind,
}

/// A deterministic per-round event log: which ASes flipped in which round
/// and how. Entries are sorted by `(round, asn)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnLog {
    pub events: Vec<ChurnEvent>,
}

impl ChurnLog {
    /// Distinct ASes affected by any logged event, ascending.
    pub fn affected_ases(&self) -> Vec<AsId> {
        let mut ases: Vec<AsId> = self.events.iter().map(|e| e.asn).collect();
        ases.sort_unstable_by_key(|a| a.0);
        ases.dedup();
        ases
    }

    /// An order-sensitive fingerprint of the whole log (for golden tests).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        for e in &self.events {
            h.mix(e.round as u64);
            h.mix(e.asn.0 as u64);
            match e.kind {
                ChurnEventKind::LocalFlip { from, to } => {
                    h.mix(1);
                    h.mix(from.0 as u64);
                    h.mix(to.0 as u64);
                }
                ChurnEventKind::UpstreamRedirect { to } => {
                    h.mix(2);
                    h.mix(to.0 as u64);
                }
                ChurnEventKind::UpstreamRestore => h.mix(3),
            }
        }
        h.finish()
    }
}

impl ChurnModel {
    /// The near-equal candidate indices for `asn` (indices into
    /// `table.candidates(asn)`).
    pub fn near_equal(&self, table: &RouteTable, asn: AsId) -> Vec<usize> {
        self.near_equal_in(table.candidates(asn)).collect()
    }

    /// [`near_equal`](Self::near_equal) over a candidate list, best-first,
    /// without collecting it. Of the model's parameters only
    /// `near_equal_slack` reaches the set.
    pub fn near_equal_in<'c>(
        &self,
        cands: &'c [CandidateRoute],
    ) -> impl Iterator<Item = usize> + 'c {
        let best = (cands.first()).map(|b| (b.learned_from, b.path_len() + self.near_equal_slack));
        let near = move |c: &CandidateRoute| {
            best.is_some_and(|(class, max_len)| c.learned_from == class && c.path_len() <= max_len)
        };
        (cands.iter().enumerate())
            .filter(move |(_, c)| near(c))
            .map(|(i, _)| i)
    }

    /// Initial selection (the best route).
    pub fn initial(&self) -> SelectionState {
        SelectionState {
            current: 0,
            upstream_override: None,
        }
    }

    /// Drop any upstream redirect from `state`, keeping the local Markov
    /// position. Callers use this after the routing ground truth changed
    /// (a site withdrawal, a link failure): the redirect may point at a
    /// site that no longer attracts traffic, while the local selection
    /// index is re-validated against the new near-equal set on the next
    /// step anyway.
    pub fn reset_override(&self, state: &mut SelectionState) {
        state.upstream_override = None;
    }

    /// Advance one measurement round; returns the selected site, or `None`
    /// when the destination is unreachable for this AS/family.
    pub fn step(
        &self,
        table: &RouteTable,
        asn: AsId,
        state: &mut SelectionState,
        rng: &mut SimRng,
    ) -> Option<SiteId> {
        self.step_full(table, asn, state, rng, 1.0, &[])
    }

    /// [`ChurnModel::step`] with the flip pressure scaled by `multiplier`
    /// and an `upstream_pool` of sites an upstream path change can land
    /// the client on. Deployments differ in routing stability for reasons
    /// invisible to an AS-level model (the paper's g-vs-b finding, §4.2),
    /// so callers calibrate the multiplier per deployment.
    pub fn step_full(
        &self,
        table: &RouteTable,
        asn: AsId,
        state: &mut SelectionState,
        rng: &mut SimRng,
        multiplier: f64,
        upstream_pool: &[SiteId],
    ) -> Option<SiteId> {
        self.step_observed(table, asn, state, rng, multiplier, upstream_pool)
            .0
    }

    /// [`ChurnModel::step_full`] that also reports what happened: the event
    /// kind when this round changed the selection mechanism, `None` on a
    /// quiet round. Draws exactly the same random variates as `step_full`,
    /// so observed and unobserved runs stay bit-identical.
    pub fn step_observed(
        &self,
        table: &RouteTable,
        asn: AsId,
        state: &mut SelectionState,
        rng: &mut SimRng,
        multiplier: f64,
        upstream_pool: &[SiteId],
    ) -> (Option<SiteId>, Option<ChurnEventKind>) {
        let cands = table.candidates(asn);
        let sites: Vec<SiteId> = self.near_equal_in(cands).map(|i| cands[i].site).collect();
        self.step_near(&sites, state, rng, multiplier, upstream_pool)
    }

    /// [`ChurnModel::step_observed`] over a near-equal set the caller
    /// holds, as the sites its candidates lead to: `near` must be
    /// [`near_equal`](Self::near_equal) of the AS mapped through its
    /// candidate list's `site`, best-first. The set only changes when
    /// routing does, so a caller stepping the same AS every round keeps it
    /// and never reads the route table here.
    pub fn step_near(
        &self,
        near: &[SiteId],
        state: &mut SelectionState,
        rng: &mut SimRng,
        multiplier: f64,
        upstream_pool: &[SiteId],
    ) -> (Option<SiteId>, Option<ChurnEventKind>) {
        if near.is_empty() {
            return (None, None);
        }
        if state.current >= near.len() {
            state.current = 0;
        }
        let mut event = None;
        match self.model {
            FlipModel::Markov => {
                // Upstream path change: redirect (or clear a redirect).
                if !upstream_pool.is_empty()
                    && rng.chance((self.upstream_flip_prob * multiplier).min(1.0))
                {
                    state.upstream_override =
                        if state.upstream_override.is_some() && rng.chance(0.5) {
                            // Half the upstream events restore the local best.
                            event = Some(ChurnEventKind::UpstreamRestore);
                            None
                        } else {
                            let to = *rng.pick(upstream_pool);
                            event = Some(ChurnEventKind::UpstreamRedirect { to });
                            Some(to)
                        };
                }
                if near.len() > 1 {
                    let p = (self.base_flip_prob
                        + self.per_candidate_prob * (near.len() - 1) as f64)
                        * multiplier;
                    if rng.chance(p.min(1.0)) {
                        // Local flip: move to a different near-equal
                        // candidate and drop any upstream redirect.
                        let from = state
                            .upstream_override
                            .unwrap_or_else(|| near[state.current]);
                        let mut next = rng.next_range(near.len() - 1);
                        if next >= state.current {
                            next += 1;
                        }
                        state.current = next;
                        state.upstream_override = None;
                        event = Some(ChurnEventKind::LocalFlip {
                            from,
                            to: near[next],
                        });
                    }
                }
            }
            FlipModel::Iid => {
                state.current = rng.next_range(near.len());
            }
        }
        if let Some(site) = state.upstream_override {
            return (Some(site), event);
        }
        (Some(near[state.current]), event)
    }

    /// Replay `rounds` churn rounds for every AS in `ases` against a fixed
    /// route table and return the deterministic per-round event log. Each
    /// AS gets its own rng stream derived from `root`, so the log depends
    /// only on (model parameters, table, ases, rounds, root seed) — the
    /// scenario engine composes with churn through this log rather than by
    /// mutating routes itself.
    pub fn round_log(
        &self,
        table: &RouteTable,
        ases: &[AsId],
        rounds: u32,
        root: &SimRng,
        multiplier: f64,
        upstream_pool: &[SiteId],
    ) -> ChurnLog {
        let mut log = ChurnLog::default();
        for &asn in ases {
            let mut rng = root.derive_ids(&[asn.0 as u64]);
            let mut state = self.initial();
            for round in 0..rounds {
                let (_, event) =
                    self.step_observed(table, asn, &mut state, &mut rng, multiplier, upstream_pool);
                if let Some(kind) = event {
                    log.events.push(ChurnEvent { round, asn, kind });
                }
            }
        }
        log.events.sort_by_key(|e| (e.round, e.asn.0));
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anycast::{Deployment, FacilityId, Site, SiteScope};
    use crate::routing::propagate;
    use crate::topology::{Topology, TopologyConfig};
    use crate::types::Family;
    use netgeo::Region;

    fn world(n_sites: usize) -> (Topology, Deployment) {
        let t = Topology::generate(&TopologyConfig::default());
        let mut sites = Vec::new();
        let regions = [
            Region::Europe,
            Region::NorthAmerica,
            Region::Asia,
            Region::SouthAmerica,
            Region::Oceania,
            Region::Africa,
        ];
        for i in 0..n_sites {
            let region = regions[i % regions.len()];
            let host = t.stubs_in(region)[i / regions.len() + 1];
            sites.push(Site {
                id: SiteId(i as u32),
                facility: FacilityId(i as u32),
                scope: SiteScope::Global,
                origin_as: host,
                instance_stem: format!("s{i}"),
            });
        }
        (
            t,
            Deployment {
                name: "d".into(),
                sites,
            },
        )
    }

    #[test]
    fn stable_without_flips() {
        let (t, d) = world(4);
        let table = propagate(&t, &d, Family::V4);
        let model = ChurnModel {
            base_flip_prob: 0.0,
            per_candidate_prob: 0.0,
            ..Default::default()
        };
        let mut rng = SimRng::new(1);
        let asn = t.stubs_in(Region::Europe)[5];
        let mut state = model.initial();
        let first = model.step(&table, asn, &mut state, &mut rng);
        for _ in 0..100 {
            assert_eq!(model.step(&table, asn, &mut state, &mut rng), first);
        }
    }

    #[test]
    fn flips_happen_with_pressure() {
        let (t, d) = world(6);
        let table = propagate(&t, &d, Family::V4);
        let model = ChurnModel {
            base_flip_prob: 0.2,
            per_candidate_prob: 0.1,
            near_equal_slack: 3,
            ..Default::default()
        };
        let mut rng = SimRng::new(2);
        // Find an AS with multiple near-equal candidates.
        let asn = t
            .nodes()
            .iter()
            .map(|n| n.id)
            .find(|&a| model.near_equal(&table, a).len() >= 2)
            .expect("some AS has alternatives");
        let mut state = model.initial();
        let mut changes = 0;
        let mut prev = model.step(&table, asn, &mut state, &mut rng);
        for _ in 0..500 {
            let cur = model.step(&table, asn, &mut state, &mut rng);
            if cur != prev {
                changes += 1;
            }
            prev = cur;
        }
        assert!(changes > 10, "only {changes} changes");
    }

    #[test]
    fn iid_flips_more_than_markov() {
        let (t, d) = world(6);
        let table = propagate(&t, &d, Family::V4);
        let mk = |model| ChurnModel {
            base_flip_prob: 0.05,
            per_candidate_prob: 0.01,
            near_equal_slack: 3,
            model,
            ..Default::default()
        };
        let count_changes = |model: &ChurnModel, seed: u64| {
            let mut rng = SimRng::new(seed);
            let asn = t
                .nodes()
                .iter()
                .map(|n| n.id)
                .find(|&a| model.near_equal(&table, a).len() >= 3)
                .expect("alternatives exist");
            let mut state = model.initial();
            let mut changes = 0;
            let mut prev = model.step(&table, asn, &mut state, &mut rng);
            for _ in 0..1000 {
                let cur = model.step(&table, asn, &mut state, &mut rng);
                if cur != prev {
                    changes += 1;
                }
                prev = cur;
            }
            changes
        };
        let markov = count_changes(&mk(FlipModel::Markov), 3);
        let iid = count_changes(&mk(FlipModel::Iid), 3);
        assert!(iid > markov * 3, "iid {iid} vs markov {markov}");
    }

    #[test]
    fn unreachable_yields_none() {
        let (t, d) = world(2);
        let table = propagate(&t, &d, Family::V6);
        let model = ChurnModel::default();
        let mut rng = SimRng::new(4);
        let v4_only = t.nodes().iter().find(|n| !n.has_v6).unwrap().id;
        let mut state = model.initial();
        assert_eq!(model.step(&table, v4_only, &mut state, &mut rng), None);
    }

    #[test]
    fn step_observed_matches_step_full() {
        let (t, d) = world(6);
        let table = propagate(&t, &d, Family::V4);
        let model = ChurnModel {
            base_flip_prob: 0.05,
            per_candidate_prob: 0.02,
            upstream_flip_prob: 0.05,
            near_equal_slack: 3,
            ..Default::default()
        };
        let pool = [SiteId(0), SiteId(3)];
        for &asn in &t.stubs_in(Region::Asia)[..6] {
            let mut rng_a = SimRng::new(77).derive_ids(&[asn.0 as u64]);
            let mut rng_b = rng_a.clone();
            let mut st_a = model.initial();
            let mut st_b = model.initial();
            for _ in 0..300 {
                let plain = model.step_full(&table, asn, &mut st_a, &mut rng_a, 1.0, &pool);
                let (observed, _) =
                    model.step_observed(&table, asn, &mut st_b, &mut rng_b, 1.0, &pool);
                assert_eq!(plain, observed);
            }
        }
    }

    /// `step_observed` as it was before the near-equal set became the
    /// caller's: the set is rebuilt from the route table on every step.
    fn step_observed_reference(
        model: &ChurnModel,
        table: &RouteTable,
        asn: AsId,
        state: &mut SelectionState,
        rng: &mut SimRng,
        multiplier: f64,
        upstream_pool: &[SiteId],
    ) -> (Option<SiteId>, Option<ChurnEventKind>) {
        let near = model.near_equal(table, asn);
        let cands = table.candidates(asn);
        step_near_reference(model, cands, &near, state, rng, multiplier, upstream_pool)
    }

    /// `step_near` as it was when it took the candidate list and the
    /// near-equal indices into it, and read each site through both.
    fn step_near_reference(
        model: &ChurnModel,
        cands: &[CandidateRoute],
        near: &[usize],
        state: &mut SelectionState,
        rng: &mut SimRng,
        multiplier: f64,
        upstream_pool: &[SiteId],
    ) -> (Option<SiteId>, Option<ChurnEventKind>) {
        if near.is_empty() {
            return (None, None);
        }
        if state.current >= near.len() {
            state.current = 0;
        }
        let site_of = |idx: usize| cands[near[idx]].site;
        let mut event = None;
        match model.model {
            FlipModel::Markov => {
                if !upstream_pool.is_empty()
                    && rng.chance((model.upstream_flip_prob * multiplier).min(1.0))
                {
                    state.upstream_override =
                        if state.upstream_override.is_some() && rng.chance(0.5) {
                            event = Some(ChurnEventKind::UpstreamRestore);
                            None
                        } else {
                            let to = *rng.pick(upstream_pool);
                            event = Some(ChurnEventKind::UpstreamRedirect { to });
                            Some(to)
                        };
                }
                if near.len() > 1 {
                    let p = (model.base_flip_prob
                        + model.per_candidate_prob * (near.len() - 1) as f64)
                        * multiplier;
                    if rng.chance(p.min(1.0)) {
                        let from = state
                            .upstream_override
                            .unwrap_or_else(|| site_of(state.current));
                        let mut next = rng.next_range(near.len() - 1);
                        if next >= state.current {
                            next += 1;
                        }
                        state.current = next;
                        state.upstream_override = None;
                        event = Some(ChurnEventKind::LocalFlip {
                            from,
                            to: site_of(next),
                        });
                    }
                }
            }
            FlipModel::Iid => {
                state.current = rng.next_range(near.len());
            }
        }
        if let Some(site) = state.upstream_override {
            return (Some(site), event);
        }
        (Some(site_of(state.current)), event)
    }

    /// The sites `near`'s candidates lead to, in order: what a caller of
    /// `step_near` holds.
    fn sites_of(cands: &[CandidateRoute], near: &[usize]) -> Vec<SiteId> {
        near.iter().map(|&i| cands[i].site).collect()
    }

    #[test]
    fn step_near_matches_the_per_step_rebuild() {
        // `round_log_golden`'s inputs, both flip models: the near-equal
        // sites held across all 200 rounds select the same site, report
        // the same event and leave the rng where the rebuilt set does.
        let (t, d) = world(6);
        let table = propagate(&t, &d, Family::V4);
        let pool = [SiteId(0), SiteId(3)];
        let root = SimRng::new(0xC0FFEE).derive("churn-log");
        for flip in [FlipModel::Markov, FlipModel::Iid] {
            let model = ChurnModel {
                base_flip_prob: 0.05,
                per_candidate_prob: 0.02,
                upstream_flip_prob: 0.05,
                near_equal_slack: 3,
                model: flip,
            };
            let mut events = 0;
            for &asn in &t.stubs_in(Region::Europe)[..8] {
                let near = sites_of(table.candidates(asn), &model.near_equal(&table, asn));
                let (mut rng_a, mut rng_b) = (
                    root.derive_ids(&[asn.0 as u64]),
                    root.derive_ids(&[asn.0 as u64]),
                );
                let (mut st_a, mut st_b) = (model.initial(), model.initial());
                for round in 0..200 {
                    let held = model.step_near(&near, &mut st_a, &mut rng_a, 1.0, &pool);
                    let rebuilt = step_observed_reference(
                        &model, &table, asn, &mut st_b, &mut rng_b, 1.0, &pool,
                    );
                    assert_eq!(held, rebuilt, "AS{} round {round}", asn.0);
                    assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "rng position");
                    events += usize::from(held.1.is_some());
                }
            }
            assert_eq!(events > 0, flip == FlipModel::Markov);
        }
    }

    /// A candidate leading to `site`; only the site matters to a step.
    fn candidate(site: u32) -> CandidateRoute {
        CandidateRoute {
            site: SiteId(site),
            via: None,
            learned_from: crate::types::LearnedFrom::Customer,
            path: Vec::new(),
            km: 0,
        }
    }

    proptest::proptest! {
        /// `step_near` over the near-equal sites against the reference
        /// reading them through `(cands, near)`, draw for draw: the same
        /// site and event and the same selection state at every step, and
        /// the rng left in the same place. Candidate lists repeat sites;
        /// the near-equal set changes between epochs (0, 1 or several
        /// members, so a held position can fall off its end); the upstream
        /// pool may be empty; a large multiplier clamps both chances at 1.
        #[test]
        fn step_near_over_sites_matches_the_candidate_reference(
            markov in proptest::prelude::any::<bool>(),
            probs in (0.0f64..0.3, 0.0f64..0.2, 0.0f64..0.3),
            multiplier in proptest::prop_oneof![0.0f64..4.0, 100.0f64..10_000.0],
            cand_sites in proptest::collection::vec(0u32..5, 6..7),
            epochs in proptest::collection::vec(
                proptest::collection::btree_set(0usize..6, 0..5),
                1..5,
            ),
            pool in proptest::collection::vec(0u32..8, 0..3),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let model = ChurnModel {
                base_flip_prob: probs.0,
                per_candidate_prob: probs.1,
                upstream_flip_prob: probs.2,
                near_equal_slack: 1,
                model: if markov { FlipModel::Markov } else { FlipModel::Iid },
            };
            let cands: Vec<CandidateRoute> = cand_sites.iter().map(|&s| candidate(s)).collect();
            let pool: Vec<SiteId> = pool.into_iter().map(SiteId).collect();
            let (mut rng_a, mut rng_b) = (SimRng::new(seed), SimRng::new(seed));
            let (mut st_a, mut st_b) = (model.initial(), model.initial());
            for (epoch, near) in epochs.iter().enumerate() {
                let near: Vec<usize> = near.iter().copied().collect();
                let sites = sites_of(&cands, &near);
                for step in 0..40 {
                    let got = model.step_near(&sites, &mut st_a, &mut rng_a, multiplier, &pool);
                    let want = step_near_reference(
                        &model, &cands, &near, &mut st_b, &mut rng_b, multiplier, &pool,
                    );
                    proptest::prop_assert_eq!(got, want, "epoch {} step {}", epoch, step);
                    proptest::prop_assert_eq!(
                        (st_a.current, st_a.upstream_override),
                        (st_b.current, st_b.upstream_override),
                        "state at epoch {} step {}", epoch, step
                    );
                }
            }
            proptest::prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "rng position");
        }
    }

    #[test]
    fn round_log_events_explain_site_changes() {
        let (t, d) = world(6);
        let table = propagate(&t, &d, Family::V4);
        let model = ChurnModel {
            base_flip_prob: 0.05,
            per_candidate_prob: 0.02,
            upstream_flip_prob: 0.05,
            near_equal_slack: 3,
            ..Default::default()
        };
        let pool = [SiteId(0), SiteId(3)];
        let root = SimRng::new(0xC0FFEE).derive("churn-log");
        for &asn in &t.stubs_in(Region::Europe)[..4] {
            let mut rng = root.derive_ids(&[asn.0 as u64]);
            let mut state = model.initial();
            let mut prev = None;
            for round in 0..200u32 {
                let (site, event) =
                    model.step_observed(&table, asn, &mut state, &mut rng, 1.0, &pool);
                // A quiet round never changes the selected site.
                if event.is_none() && round > 0 {
                    assert_eq!(site, prev, "silent change for AS{} round {round}", asn.0);
                }
                prev = site;
            }
        }
    }

    #[test]
    fn round_log_golden() {
        // Pins the exact event stream for a fixed (world, model, seed):
        // the scenario engine composes with churn through this log, so its
        // contents are part of the public deterministic contract.
        let (t, d) = world(6);
        let table = propagate(&t, &d, Family::V4);
        let model = ChurnModel {
            base_flip_prob: 0.05,
            per_candidate_prob: 0.02,
            upstream_flip_prob: 0.05,
            near_equal_slack: 3,
            ..Default::default()
        };
        let ases: Vec<AsId> = t.stubs_in(Region::Europe)[..8].to_vec();
        let pool = [SiteId(0), SiteId(3)];
        let root = SimRng::new(0xC0FFEE).derive("churn-log");
        let log = model.round_log(&table, &ases, 200, &root, 1.0, &pool);

        // Deterministic replay.
        assert_eq!(log, model.round_log(&table, &ases, 200, &root, 1.0, &pool));
        // Sorted by (round, asn).
        for w in log.events.windows(2) {
            assert!((w[0].round, w[0].asn.0) <= (w[1].round, w[1].asn.0));
        }
        assert!(!log.events.is_empty());
        assert!(!log.affected_ases().is_empty());
        // Golden pin (update only on a deliberate model change).
        println!(
            "churn golden: len={} fp={:#x} first={:?}",
            log.events.len(),
            log.fingerprint(),
            log.events.first()
        );
        assert_eq!(log.events.len(), GOLDEN_LEN);
        assert_eq!(log.fingerprint(), GOLDEN_FP);
        assert_eq!(
            log.events[0],
            ChurnEvent {
                round: 2,
                asn: AsId(132),
                kind: ChurnEventKind::LocalFlip {
                    from: SiteId(2),
                    to: SiteId(0),
                },
            }
        );
    }

    // Pinned by `round_log_golden`.
    const GOLDEN_LEN: usize = 132;
    const GOLDEN_FP: u64 = 0x6eac_cf2f_8feb_5307;

    #[test]
    fn near_equal_excludes_worse_class() {
        let (t, d) = world(3);
        let table = propagate(&t, &d, Family::V4);
        let model = ChurnModel {
            near_equal_slack: 100, // only class should constrain
            ..Default::default()
        };
        for node in t.nodes() {
            let near = model.near_equal(&table, node.id);
            let cands = table.candidates(node.id);
            if let Some(best) = cands.first() {
                for idx in near {
                    assert_eq!(cands[idx].learned_from, best.learned_from);
                }
            }
        }
    }
}
