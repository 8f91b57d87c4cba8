//! The active measurement engine.
//!
//! Reproduces the Appendix F script's behaviour over the simulated world:
//! per scheduled round, every VP probes all 14 targets (a–m plus the second
//! b.root address) over IPv4 and IPv6 — site selection (with churn),
//! RTT, traceroute second-to-last hop, `hostname.bind` identity, and (from
//! 2023-07-31) a full AXFR. Observations stream into a
//! [`MeasurementSink`]; the compact [`records`](crate::records) keep even
//! large runs tractable.
//!
//! Determinism: all randomness derives from `(seed, vp, target, family,
//! round time)`, so a VP's observation stream is independent of every other
//! VP — which is also what makes [`MeasurementEngine::run_parallel`]
//! trivially correct: workers own disjoint VP ranges.
//!
//! Who keeps what. A probe needs two facts derived from routing alone: the
//! sites the near-equal candidates of the VP's AS lead to (what the churn
//! process selects among) and the path geometry from the VP to each of
//! them. The [`World`] owns them, beside the route tables they derive from:
//! a *probe plan* per near-equal slack, built by the first measurement that
//! needs it, whose entries for a letter are built again after the letter's
//! routing is ([`World::recompute_letter`]) — so every engine and every
//! session over an unchanged world reads the same plan, and a probe reads
//! a route table only for a redirect its session has not priced yet. An
//! [`EngineSession`] owns only what must carry across rounds and epochs:
//! each slot's Markov selection,
//! and the geometry of sites an upstream redirect sent the slot to that no
//! near-equal candidate serves. Those redirect pairs stay per session
//! because which ones occur is decided by the session's own churn draws —
//! a handful per slot, seen by one session and no other.

use crate::population::{Population, PopulationConfig, VantagePoint, VpFault, VpId};
use crate::records::{ProbeRecord, Target, TransferFault, TransferRecord};
use crate::schedule::{Round, Schedule};
use dns_crypto::validity::timestamp_to_ymd;
use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
use dns_zone::signer::ZoneKeys;
use dns_zone::Zone;
use netsim::anycast::{SiteId, SiteScope};
use netsim::churn::SelectionState;
use netsim::routing::{propagate, CandidateRoute};
use netsim::rtt::PathGeometry;
use netsim::{
    shard, ChurnModel, Family, Fingerprint, RouteTable, RttModel, SimRng, Topology, TopologyConfig,
};
use parking_lot::Mutex;
use rss::catalog::{RootCatalog, WorldConfig};
use rss::RootLetter;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Everything a measurement needs: topology, catalog, routing, VPs, zones.
pub struct World {
    pub topology: Topology,
    pub catalog: RootCatalog,
    pub population: Population,
    /// Route tables indexed `[letter][family]`.
    route_tables: Vec<[RouteTable; 2]>,
    /// Attracting sites per `[letter][family]`: distinct sites selected by
    /// at least one AS — the pool an upstream path change can land on.
    attracting: Vec<[Vec<netsim::anycast::SiteId>; 2]>,
    /// Zone keys (stable across the measurement; the root's actual keys
    /// also did not roll during the window).
    pub keys: ZoneKeys,
    /// Day-indexed zone cache.
    zone_cache: Mutex<HashMap<u32, Arc<Zone>>>,
    /// TLD count for generated zones.
    zone_tlds: usize,
    seed: u64,
    /// Sites currently withdrawn from service, per letter (sorted). The
    /// catalog keeps the full roster — withdrawal only removes the site
    /// from route propagation, so `SiteId`s stay stable across
    /// apply/revert cycles (the scenario engine depends on this).
    withdrawn: Vec<Vec<SiteId>>,
    /// When set, every generated zone uses this ZONEMD roll-out phase
    /// instead of the dated timeline (scenario override).
    zonemd_override: Option<RolloutPhase>,
    /// Probe plans derived from `route_tables`, filled by the first
    /// measurement that needs them ([`World::probe_plan`]).
    plans: Mutex<Vec<SlackPlan>>,
}

/// The probe plan for one near-equal slack a measurement has asked for.
struct SlackPlan {
    slack: usize,
    plan: Arc<ProbePlan>,
    /// Letters whose routing was recomputed since `plan` was built (all of
    /// them before the first build): the next measurement builds their
    /// entries again and copies every other letter's.
    stale: [bool; 13],
    /// Times each letter's entries have been built.
    #[cfg(test)]
    builds: [usize; 13],
}

/// What a probe needs of routing alone, for every VP, letter and family:
/// per near-equal candidate of the VP's AS, best-first, the site it leads
/// to (what `ChurnModel::step_near` selects among) and the path from the
/// VP to that site. Slot `(vp · 13 + letter) · 2 + family` owns entries
/// `offsets[slot]..offsets[slot + 1]` of `sites` and of `paths`: VP-major,
/// the order a round probes in, so a worker reads the plan front to back
/// (DESIGN §7) and a probe reads no route table unless an upstream
/// redirect sends it to a site no entry of its slot reaches.
#[derive(Debug, Default, PartialEq)]
struct ProbePlan {
    offsets: Vec<u32>,
    sites: Vec<SiteId>,
    paths: Vec<PathGeometry>,
}

/// Plan slots a VP owns.
const PLAN_SLOTS_PER_VP: usize = 13 * 2;

impl ProbePlan {
    /// The plan for the VPs `vps`, slots numbered from the range's start:
    /// the letters `stale` marks built from the world's route tables, every
    /// other letter's slots copied from `old`.
    fn build(
        world: &World,
        churn: &ChurnModel,
        old: &ProbePlan,
        stale: &[bool; 13],
        vps: Range<usize>,
    ) -> Self {
        let mut plan = ProbePlan {
            offsets: Vec::with_capacity(vps.len() * PLAN_SLOTS_PER_VP + 1),
            ..ProbePlan::default()
        };
        plan.offsets.push(0);
        // A built slot's near-equal candidate indices, kept only while its
        // entries are resolved.
        let mut near = Vec::new();
        for v in vps {
            let vp = &world.population.vps()[v];
            for letter in RootLetter::ALL {
                for family in Family::BOTH {
                    if stale[letter.index()] {
                        plan.push_built(world, churn, vp, letter, family, &mut near);
                    } else {
                        let (sites, paths) = old.slot(v, letter, family);
                        plan.sites.extend_from_slice(sites);
                        plan.paths.extend_from_slice(paths);
                    }
                    let end = u32::try_from(plan.sites.len()).expect("a plan fits u32 offsets");
                    plan.offsets.push(end);
                }
            }
        }
        plan
    }

    /// Append the entries of `vp`'s slot for `letter` in `family`, from the
    /// route tables; `near` is scratch for the slot's near-equal set.
    fn push_built(
        &mut self,
        world: &World,
        churn: &ChurnModel,
        vp: &VantagePoint,
        letter: RootLetter,
        family: Family,
        near: &mut Vec<usize>,
    ) {
        let cands = world.routes(letter, family).candidates(vp.asn);
        near.clear();
        near.extend(churn.near_equal_in(cands));
        for &i in near.iter() {
            let site = cands[i].site;
            let route = &cands[resolve_candidate(cands, near, site)];
            self.sites.push(site);
            self.paths.push(world.path_to(vp, letter, route, site));
        }
    }

    /// The near-equal sites and their paths for VP `vp`, `letter`,
    /// `family`.
    #[inline]
    fn slot(&self, vp: usize, letter: RootLetter, family: Family) -> (&[SiteId], &[PathGeometry]) {
        let slot = (vp * 13 + letter.index()) * 2 + family.index();
        let entries = self.offsets[slot] as usize..self.offsets[slot + 1] as usize;
        (&self.sites[entries.clone()], &self.paths[entries])
    }
}

impl shard::Merge for ProbePlan {
    /// Append the next VP range's plan: its slots follow this one's.
    fn merge(&mut self, other: Self) {
        let base = *self.offsets.last().expect("offsets start at 0");
        (self.offsets).extend(other.offsets[1..].iter().map(|&end| base + end));
        self.sites.extend(other.sites);
        self.paths.extend(other.paths);
    }
}

/// World construction parameters.
#[derive(Debug, Clone)]
pub struct WorldBuildConfig {
    pub topology: TopologyConfig,
    pub catalog: WorldConfig,
    pub population: PopulationConfig,
    /// TLD delegations in generated zones (the real root has ~1.5k; smaller
    /// zones keep AXFR-heavy runs fast without changing any analysis).
    pub zone_tlds: usize,
    pub seed: u64,
}

impl Default for WorldBuildConfig {
    fn default() -> Self {
        WorldBuildConfig {
            topology: TopologyConfig::default(),
            catalog: WorldConfig::default(),
            population: PopulationConfig::default(),
            zone_tlds: 25,
            seed: 0x2023_0703,
        }
    }
}

impl WorldBuildConfig {
    /// A miniature world for unit tests: scaled-down sites and VPs.
    pub fn tiny() -> Self {
        WorldBuildConfig {
            topology: TopologyConfig {
                tier2_per_region: 5,
                stubs_per_region: [8, 12, 40, 25, 8, 10],
                ..Default::default()
            },
            catalog: WorldConfig {
                site_scale: 0.2,
                ..Default::default()
            },
            population: PopulationConfig::tiny(),
            zone_tlds: 8,
            seed: 0x2023_0703,
        }
    }
}

impl World {
    /// Build the world: topology → catalog (adds facility ASes) → routing
    /// tables for all 13 deployments × both families → VP population.
    pub fn build(cfg: &WorldBuildConfig) -> World {
        let mut topology = Topology::generate(&cfg.topology);
        let catalog = RootCatalog::build(&mut topology, &cfg.catalog);
        let mut route_tables = Vec::with_capacity(13);
        let mut attracting = Vec::with_capacity(13);
        for letter in RootLetter::ALL {
            let (tables, pool) = compute_letter_routing(&topology, &catalog, letter, &[]);
            route_tables.push(tables);
            attracting.push(pool);
        }
        let population = Population::synthesize(&topology, &cfg.population);
        World {
            topology,
            catalog,
            population,
            route_tables,
            attracting,
            keys: ZoneKeys::from_seed(cfg.seed ^ 0x5a5a),
            zone_cache: Mutex::new(HashMap::new()),
            zone_tlds: cfg.zone_tlds,
            seed: cfg.seed,
            withdrawn: vec![Vec::new(); 13],
            zonemd_override: None,
            plans: Mutex::default(),
        }
    }

    /// Route table for `letter`/`family`.
    pub fn routes(&self, letter: RootLetter, family: Family) -> &RouteTable {
        &self.route_tables[letter.index()][family.index()]
    }

    /// Sites of `letter` that attract at least one AS in `family` — the
    /// pool an upstream path change can redirect a client to.
    pub fn attracting_sites(
        &self,
        letter: RootLetter,
        family: Family,
    ) -> &[netsim::anycast::SiteId] {
        &self.attracting[letter.index()][family.index()]
    }

    /// The zone published on the day containing `time`.
    ///
    /// Serial follows the root convention `YYYYMMDDnn`; signatures are
    /// incepted at day start and run two weeks; the ZONEMD phase follows
    /// the roll-out timeline.
    pub fn zone_at(&self, time: u32) -> Arc<Zone> {
        let day = time - time % 86400;
        if let Some(z) = self.zone_cache.lock().get(&day) {
            return z.clone();
        }
        let zone = Arc::new(build_root_zone(
            &RootZoneConfig {
                serial: serial_of_day(day),
                tld_count: self.zone_tlds,
                inception: day,
                expiration: day + 14 * 86400,
                rollout: self
                    .zonemd_override
                    .unwrap_or_else(|| RolloutPhase::at(day)),
            },
            &self.keys,
        ));
        self.zone_cache.lock().insert(day, zone.clone());
        zone
    }

    /// The base seed of this world.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Take `site` of `letter` out of service: it stops originating the
    /// service prefix and routing for that letter is recomputed. Returns
    /// `false` (and changes nothing) when the site is unknown or already
    /// withdrawn. `SiteId`s stay stable — the catalog roster is untouched.
    pub fn withdraw_site(&mut self, letter: RootLetter, site: SiteId) -> bool {
        let known = self
            .catalog
            .deployment(letter)
            .sites
            .iter()
            .any(|s| s.id == site);
        let w = &mut self.withdrawn[letter.index()];
        if !known || w.contains(&site) {
            return false;
        }
        w.push(site);
        w.sort_unstable();
        self.recompute_letter(letter);
        true
    }

    /// Put a withdrawn site back in service and recompute routing. Returns
    /// `false` when the site was not withdrawn.
    pub fn restore_site(&mut self, letter: RootLetter, site: SiteId) -> bool {
        let w = &mut self.withdrawn[letter.index()];
        let Some(pos) = w.iter().position(|&s| s == site) else {
            return false;
        };
        w.remove(pos);
        self.recompute_letter(letter);
        true
    }

    /// Sites of `letter` currently withdrawn from service (sorted).
    pub fn withdrawn_sites(&self, letter: RootLetter) -> &[SiteId] {
        &self.withdrawn[letter.index()]
    }

    /// Recompute route tables and attracting pools for one letter from the
    /// current topology and withdrawal set, and mark the letter's probe
    /// plan entries stale: the next measurement builds them from the new
    /// tables.
    pub fn recompute_letter(&mut self, letter: RootLetter) {
        let (tables, pool) = compute_letter_routing(
            &self.topology,
            &self.catalog,
            letter,
            &self.withdrawn[letter.index()],
        );
        self.route_tables[letter.index()] = tables;
        self.attracting[letter.index()] = pool;
        for plan in self.plans.get_mut() {
            plan.stale[letter.index()] = true;
        }
    }

    /// The probe plan at `churn`'s near-equal slack (the only parameter of
    /// the model a near-equal set depends on). Entries of letters never
    /// planned at this slack, or whose routing was recomputed since, are
    /// built now, one VP range of `shard::ranges(vps, workers)` a thread;
    /// the plan is kept for every later measurement of this world.
    fn probe_plan(&self, churn: &ChurnModel, workers: usize) -> Arc<ProbePlan> {
        let slack = churn.near_equal_slack;
        let mut plans = self.plans.lock();
        let at = match plans.iter().position(|p| p.slack == slack) {
            Some(at) => at,
            None => {
                plans.push(SlackPlan {
                    slack,
                    plan: Arc::default(),
                    stale: [true; 13],
                    #[cfg(test)]
                    builds: [0; 13],
                });
                plans.len() - 1
            }
        };
        let entry = &mut plans[at];
        if entry.stale.contains(&true) {
            let (old, stale) = (&*entry.plan, &entry.stale);
            let parts = shard::run(self.population.len(), workers, |vps| {
                ProbePlan::build(self, churn, old, stale, vps)
            });
            entry.plan = Arc::new(shard::fold(parts));
            #[cfg(test)]
            for (builds, stale) in entry.builds.iter_mut().zip(entry.stale) {
                *builds += usize::from(stale);
            }
            entry.stale = [false; 13];
        }
        let plan = Arc::clone(&entry.plan);
        debug_assert_eq!(
            plan.offsets.len(),
            self.population.len() * PLAN_SLOTS_PER_VP + 1
        );
        plan
    }

    /// Path geometry from `vp` over `route` to `site` of `letter`.
    fn path_to(
        &self,
        vp: &VantagePoint,
        letter: RootLetter,
        route: &CandidateRoute,
        site: SiteId,
    ) -> PathGeometry {
        let facility = self.catalog.deployment(letter).site(site).facility;
        PathGeometry::of(
            &self.topology,
            &self.catalog.facilities,
            vp.coord,
            route,
            facility,
        )
    }

    /// Recompute routing for every letter — required after a topology-level
    /// change (e.g. a peering link failure) that affects all deployments.
    pub fn recompute_all(&mut self) {
        for letter in RootLetter::ALL {
            self.recompute_letter(letter);
        }
    }

    /// Order-independent fingerprint of `letter`'s routing state (both
    /// families, every AS, full candidate lists). Scenario apply→revert
    /// round-trips are checked against this hash.
    pub fn routing_hash(&self, letter: RootLetter) -> u64 {
        let mut h = Fingerprint::new();
        for family in Family::BOTH {
            let table = self.routes(letter, family);
            for node in self.topology.nodes() {
                for c in table.candidates(node.id) {
                    h.mix(node.id.0 as u64);
                    h.mix(c.site.0 as u64);
                    h.mix(c.via.map(|a| a.0 as u64 + 1).unwrap_or(0));
                    h.mix(c.learned_from as u64);
                    h.mix(c.path.len() as u64);
                    h.mix(c.km as u64);
                }
            }
        }
        h.finish()
    }

    /// Force every generated zone into `phase` (or back to the dated
    /// timeline with `None`). Drops the zone cache, so zones are rebuilt
    /// lazily under the new phase.
    pub fn set_zonemd_override(&mut self, phase: Option<RolloutPhase>) {
        self.zonemd_override = phase;
        self.zone_cache.lock().clear();
    }

    /// The active ZONEMD phase override, if any.
    pub fn zonemd_override(&self) -> Option<RolloutPhase> {
        self.zonemd_override
    }
}

/// Route tables and attracting pools for one letter, excluding `withdrawn`
/// sites from propagation. Shared by [`World::build`] and the scenario
/// mutation paths so both compute routing identically.
fn compute_letter_routing(
    topology: &Topology,
    catalog: &RootCatalog,
    letter: RootLetter,
    withdrawn: &[SiteId],
) -> ([RouteTable; 2], [Vec<SiteId>; 2]) {
    let full = catalog.deployment(letter);
    let filtered;
    let d = if withdrawn.is_empty() {
        full
    } else {
        filtered = netsim::anycast::Deployment {
            name: full.name.clone(),
            sites: full
                .sites
                .iter()
                .filter(|s| !withdrawn.contains(&s.id))
                .cloned()
                .collect(),
        };
        &filtered
    };
    let tables = [
        propagate(topology, d, Family::V4),
        propagate(topology, d, Family::V6),
    ];
    let pool = std::array::from_fn(|fam| {
        let mut sites: Vec<SiteId> = topology
            .nodes()
            .iter()
            .filter_map(|n| tables[fam].best(n.id).map(|r| r.site))
            .collect();
        sites.sort_unstable();
        sites.dedup();
        sites
    });
    (tables, pool)
}

/// Where observations go. Implementations aggregate on the fly, so even
/// full-scale runs never hold the record stream in memory.
pub trait MeasurementSink {
    /// One active probe result.
    fn probe(&mut self, rec: ProbeRecord);
    /// One zone-transfer result.
    fn transfer(&mut self, rec: TransferRecord);
}

/// A sink that simply collects records (for tests and small runs).
#[derive(Debug, Default)]
pub struct VecSink {
    pub probes: Vec<ProbeRecord>,
    pub transfers: Vec<TransferRecord>,
}

impl MeasurementSink for VecSink {
    fn probe(&mut self, rec: ProbeRecord) {
        self.probes.push(rec);
    }
    fn transfer(&mut self, rec: TransferRecord) {
        self.transfers.push(rec);
    }
}

/// One shard's share of a parallel run's output buffers, filled in place:
/// the next free slot of each is the head of its iterator.
struct SliceSink<'a> {
    probes: std::slice::IterMut<'a, ProbeRecord>,
    transfers: std::slice::IterMut<'a, TransferRecord>,
}

impl MeasurementSink for SliceSink<'_> {
    fn probe(&mut self, rec: ProbeRecord) {
        *self.probes.next().expect("a slot per scheduled probe") = rec;
    }
    fn transfer(&mut self, rec: TransferRecord) {
        *self
            .transfers
            .next()
            .expect("a slot per probe with AXFR on") = rec;
    }
}

/// Stale-site fault window (the paper's Tokyo/Leeds d.root episodes).
#[derive(Debug, Clone)]
pub struct StaleWindow {
    pub letter: RootLetter,
    /// City name of the affected site(s).
    pub city: &'static str,
    /// Window (start, end) in wall-clock seconds.
    pub from: u32,
    pub until: u32,
    /// The stuck zone is the one from this timestamp's day.
    pub stuck_day: u32,
}

/// Clock-skew episode for a VP with `VpFault::SkewedClock`.
#[derive(Debug, Clone)]
pub struct SkewEpisode {
    pub from: u32,
    pub until: u32,
}

/// Per-letter behavioural overrides a scenario epoch can impose on the
/// engine. The neutral defaults draw no extra randomness and scale nothing,
/// so a config with neutral overrides is bit-identical to one without.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LetterOverrides {
    /// Extra multiplier on the letter's churn pressure (route flap burst).
    pub churn_boost: f64,
    /// Multiplier on every measured RTT (DDoS-style path inflation).
    pub rtt_factor: f64,
    /// When set, every site of the letter serves the zone of this day
    /// (letter-wide stale-zone degradation).
    pub stale_stuck_day: Option<u32>,
    /// Extra per-transfer bitflip probability (letter-wide corrupted
    /// transfers, on top of per-VP faulty-RAM flips).
    pub extra_bitflip_prob: f64,
}

impl Default for LetterOverrides {
    fn default() -> Self {
        LetterOverrides {
            churn_boost: 1.0,
            rtt_factor: 1.0,
            stale_stuck_day: None,
            extra_bitflip_prob: 0.0,
        }
    }
}

impl LetterOverrides {
    /// True when this override changes nothing.
    pub fn is_neutral(&self) -> bool {
        *self == LetterOverrides::default()
    }
}

/// Overrides for all 13 letters (indexed by [`RootLetter::index`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineOverrides {
    per_letter: [LetterOverrides; 13],
}

impl EngineOverrides {
    /// The override in force for `letter`.
    pub fn letter(&self, letter: RootLetter) -> &LetterOverrides {
        &self.per_letter[letter.index()]
    }

    /// Mutable override for `letter`.
    pub fn letter_mut(&mut self, letter: RootLetter) -> &mut LetterOverrides {
        &mut self.per_letter[letter.index()]
    }

    /// True when no letter has a non-neutral override.
    pub fn is_neutral(&self) -> bool {
        self.per_letter.iter().all(|o| o.is_neutral())
    }
}

/// Measurement parameters.
#[derive(Debug, Clone)]
pub struct MeasurementConfig {
    pub schedule: Schedule,
    pub churn: ChurnModel,
    pub rtt: RttModel,
    /// Probability that any single probe times out entirely.
    pub timeout_prob: f64,
    /// Probability that the traceroute's second-to-last hop is missing.
    pub missing_hop_prob: f64,
    /// Stale-site windows.
    pub stale_windows: Vec<StaleWindow>,
    /// Skew episodes (applied to every skewed-clock VP).
    pub skew_episodes: Vec<SkewEpisode>,
    /// Scenario-epoch behavioural overrides (neutral by default).
    pub overrides: EngineOverrides,
}

impl Default for MeasurementConfig {
    fn default() -> Self {
        use dns_crypto::validity::timestamp_from_ymd as ts;
        MeasurementConfig {
            schedule: Schedule::default(),
            churn: ChurnModel::default(),
            rtt: RttModel::default(),
            timeout_prob: 0.002,
            missing_hop_prob: 0.04,
            stale_windows: vec![
                // Table 2: d.root Tokyo, 2023-08-16 10:00–11:31 (≈12 obs).
                StaleWindow {
                    letter: RootLetter::D,
                    city: "tokyo",
                    from: ts("20230816100000").unwrap(),
                    until: ts("20230816113100").unwrap(),
                    stuck_day: ts("20230729000000").unwrap(),
                },
                // Table 2: d.root Leeds, 2023-10-06 10:00–13:31 (≈40 obs).
                StaleWindow {
                    letter: RootLetter::D,
                    city: "leeds",
                    from: ts("20231006100000").unwrap(),
                    until: ts("20231006133100").unwrap(),
                    stuck_day: ts("20230918000000").unwrap(),
                },
            ],
            skew_episodes: vec![
                // Short NTP-outage episodes crossing signing boundaries.
                SkewEpisode {
                    from: ts("20231002213000").unwrap(),
                    until: ts("20231003010000").unwrap(),
                },
                SkewEpisode {
                    from: ts("20231221220000").unwrap(),
                    until: ts("20231222030000").unwrap(),
                },
            ],
            overrides: EngineOverrides::default(),
        }
    }
}

/// `(target, family)` slots a VP owns in a session's state table.
const STATES_PER_VP: usize = Target::COUNT * 2;

/// Per-(vp, target, family) runtime state.
struct ProbeState {
    selection: SelectionState,
    /// Path geometry to sites an upstream redirect sent this slot to that
    /// no near-equal candidate of its plan serves (8 % of answered probes
    /// at Small). A handful of entries at most: scanned, not hashed.
    redirects: Vec<(SiteId, PathGeometry)>,
}

/// Cross-call engine state: the per-(vp, target, family) churn selection
/// and redirect geometry that normally live only for one `run` call.
///
/// The scenario engine runs a measurement in epoch slices (one
/// `run_rounds_session` call per epoch, with world mutations in between)
/// and needs the churn process to *continue* across the boundary rather
/// than restart — otherwise an event-free scenario would not reproduce the
/// continuous pipeline's record stream bit for bit. What routing alone
/// decides is not here: the world keeps it (see the module docs).
#[derive(Default)]
pub struct EngineSession {
    /// Dense `[vp][target][family]` table ([`STATES_PER_VP`] slots a VP),
    /// sized by the first run: a worker's VP range is one contiguous slice
    /// of it, whatever the worker count of the call.
    states: Vec<ProbeState>,
}

impl EngineSession {
    /// A fresh session (no VP has probed yet).
    pub fn new() -> EngineSession {
        EngineSession::default()
    }

    /// Invalidate state that depends on the routing ground truth: redirect
    /// geometry (the serving candidate may have changed) and the upstream
    /// redirects themselves (the redirect target may no longer attract
    /// traffic). Call after any world mutation that recomputed route
    /// tables. The Markov position survives — it is re-validated against
    /// the new near-equal set on the next step.
    pub fn invalidate_routing(&mut self, churn: &ChurnModel) {
        for state in &mut self.states {
            state.redirects.clear();
            churn.reset_override(&mut state.selection);
        }
    }

    /// Grow the table to `vps` vantage points, new slots at the initial
    /// selection.
    fn ensure(&mut self, vps: usize, churn: &ChurnModel) {
        let len = self.states.len().max(vps * STATES_PER_VP);
        self.states.resize_with(len, || ProbeState {
            selection: churn.initial(),
            redirects: Vec::new(),
        });
    }
}

/// What every probe of one round shares.
struct RoundContext {
    time: u32,
    /// Serial of the zone published on the round's day.
    zone_serial: u32,
}

/// What output slots hold before their shard writes them.
const UNWRITTEN_TARGET: Target = Target {
    letter: RootLetter::A,
    b_phase: rss::BRootPhase::Old,
};
const UNWRITTEN_PROBE: ProbeRecord = ProbeRecord::new(0, VpId(0), UNWRITTEN_TARGET, Family::V4);
const UNWRITTEN_TRANSFER: TransferRecord =
    TransferRecord::new(0, 0, VpId(0), UNWRITTEN_TARGET, Family::V4);

/// The engine.
pub struct MeasurementEngine<'w> {
    pub world: &'w World,
    pub config: MeasurementConfig,
}

impl<'w> MeasurementEngine<'w> {
    /// Create an engine over `world`.
    pub fn new(world: &'w World, config: MeasurementConfig) -> Self {
        MeasurementEngine { world, config }
    }

    /// Run the full measurement, streaming into `sink`.
    pub fn run<S: MeasurementSink>(&self, sink: &mut S) {
        let rounds: Vec<Round> = self.config.schedule.rounds().collect();
        let vps = 0..self.world.population.len();
        let mut session = EngineSession::new();
        session.ensure(vps.end, &self.config.churn);
        let plan = self.world.probe_plan(&self.config.churn, 1);
        self.run_planned(&plan, &mut session.states, vps, &rounds, sink);
    }

    /// Run the measurement in parallel over VP ranges; returns the merged
    /// record set. Each worker owns a disjoint VP range, so results are
    /// identical to a serial run up to record order (grouped by range).
    pub fn run_parallel(&self, workers: usize) -> VecSink {
        let rounds: Vec<Round> = self.config.schedule.rounds().collect();
        self.run_rounds_parallel(&rounds, workers)
    }

    /// [`run_parallel`](Self::run_parallel) over an explicit round list.
    /// Callers use this for focused re-measurement of specific rounds —
    /// e.g. the core pipeline covering stale-site windows a subsampled
    /// main schedule skipped. Per-probe randomness derives from
    /// `(seed, vp, target, family, round time)` and is independent of
    /// which other rounds run; only the churn selection state carries
    /// across rounds, exactly as a real re-measurement campaign would
    /// start from the routes in force when it began.
    pub fn run_rounds_parallel(&self, rounds: &[Round], workers: usize) -> VecSink {
        let mut session = EngineSession::new();
        self.run_rounds_session(&mut session, rounds, workers)
    }

    /// [`run_rounds_parallel`](Self::run_rounds_parallel) with explicit
    /// cross-call state: churn selection and redirect geometry live in
    /// `session`, so consecutive calls behave exactly like one continuous
    /// run over the concatenated round list. The world's probe plans are
    /// built first if this is the first measurement that needs them, over
    /// the same VP ranges the workers probe.
    ///
    /// Every record is written once, where it stays: a VP probes all 14
    /// targets (over IPv6 too when it has it) every round, so each
    /// worker's probe count is known up front and it fills its own slice
    /// of the one output buffer — worker by worker, round by round, the
    /// order a concatenation of per-worker streams has. A probe yields at
    /// most one transfer; workers fill slices sized for that, and the
    /// slots timeouts left unused are closed up afterwards.
    pub fn run_rounds_session(
        &self,
        session: &mut EngineSession,
        rounds: &[Round],
        workers: usize,
    ) -> VecSink {
        let population = &self.world.population;
        let n = population.len();
        let workers = workers.clamp(1, n.max(1));
        session.ensure(n, &self.config.churn);
        let axfr_rounds = (rounds.iter())
            .filter(|r| self.config.schedule.axfr_active(r.time))
            .count();
        let ranges = shard::ranges(n, workers);
        let per_round = |vps: &std::ops::Range<usize>| -> usize {
            let vps = &population.vps()[vps.clone()];
            vps.iter()
                .map(|vp| Target::COUNT * (1 + usize::from(vp.has_v6)))
                .sum()
        };
        let probe_lens: Vec<usize> = (ranges.iter())
            .map(|r| rounds.len() * per_round(r))
            .collect();
        let transfer_lens: Vec<usize> = ranges.iter().map(|r| axfr_rounds * per_round(r)).collect();
        let mut probes = vec![UNWRITTEN_PROBE; probe_lens.iter().sum()];
        let mut transfers = vec![UNWRITTEN_TRANSFER; transfer_lens.iter().sum()];

        let plan = self.world.probe_plan(&self.config.churn, workers);
        let states = &mut session.states[..n * STATES_PER_VP];
        let state_lens = ranges.iter().map(|r| r.len() * STATES_PER_VP);
        let parts = (shard::split_lens(states, state_lens).into_iter())
            .zip(shard::split_lens(&mut probes, probe_lens))
            .zip(shard::split_lens(
                &mut transfers,
                transfer_lens.iter().copied(),
            ))
            .collect();
        let unused = shard::run_with(n, parts, |vps, ((states, probes), transfers)| {
            let mut sink = SliceSink {
                probes: probes.iter_mut(),
                transfers: transfers.iter_mut(),
            };
            self.run_planned(&plan, states, vps, rounds, &mut sink);
            assert_eq!(sink.probes.len(), 0, "a scheduled probe went unrecorded");
            sink.transfers.len()
        });

        // Close the gaps between the workers' transfer runs.
        let (mut start, mut end) = (0, 0);
        for (len, unused) in transfer_lens.into_iter().zip(unused) {
            transfers.copy_within(start..start + len - unused, end);
            start += len;
            end += len - unused;
        }
        transfers.truncate(end);
        VecSink { probes, transfers }
    }

    /// [`run_vps`](Self::run_vps) selecting through the world's `plan`.
    fn run_planned<S: MeasurementSink>(
        &self,
        plan: &ProbePlan,
        states: &mut [ProbeState],
        vps: Range<usize>,
        rounds: &[Round],
        sink: &mut S,
    ) {
        self.run_vps(
            states,
            vps,
            rounds,
            sink,
            |v, vp, target, family, state, rng| {
                self.select(plan, v, vp, target, family, state, rng)
            },
        );
    }

    /// Run the measurement for the VPs `vps` over the given rounds;
    /// `states` is their slice of a session's table, and `select(vp index,
    /// vp, target, family, slot state, rng)` picks the site and base RTT of
    /// every probe that did not time out.
    #[allow(clippy::type_complexity)]
    fn run_vps<T, S: MeasurementSink>(
        &self,
        states: &mut [T],
        vps: Range<usize>,
        rounds: &[Round],
        sink: &mut S,
        select: impl Fn(
            usize,
            &VantagePoint,
            Target,
            Family,
            &mut T,
            &mut SimRng,
        ) -> Option<(SiteId, f64)>,
    ) {
        let targets = Target::all();
        let root_rng = SimRng::new(self.world.seed()).derive("measurement");
        for round in rounds {
            let round = RoundContext {
                time: round.time,
                zone_serial: serial_of_day(round.time - round.time % 86400),
            };
            for ((v, vp), states) in (vps.clone())
                .zip(&self.world.population.vps()[vps.clone()])
                .zip(states.chunks_exact_mut(STATES_PER_VP))
            {
                for (t_idx, &target) in targets.iter().enumerate() {
                    for family in Family::BOTH {
                        if family == Family::V6 && !vp.has_v6 {
                            continue;
                        }
                        let state = &mut states[t_idx * 2 + family.index()];
                        // Integer-tuple stream derivation: the string
                        // version of this key (`format!("probe/…")`)
                        // allocated on every probe and dominated the
                        // profile; `t_idx` is stable because
                        // `Target::all()` is a fixed ordered list.
                        let mut rng = root_rng.derive_ids(&[
                            vp.id.0 as u64,
                            t_idx as u64,
                            family.index() as u64,
                            round.time as u64,
                        ]);
                        self.probe_once(vp, target, family, &round, &mut rng, sink, |rng| {
                            select(v, vp, target, family, state, rng)
                        });
                    }
                }
            }
        }
    }

    /// Site selection and base RTT of one probe of VP number `v`, from the
    /// world's `plan`: a Markov step over the slot's near-equal sites, then
    /// the path of the first entry that reaches the selected site — or, for
    /// a site an upstream redirect chose that no near-equal candidate
    /// serves, of the route [`resolve_candidate`] finds in the live route
    /// table, computed once per session and slot.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn select(
        &self,
        plan: &ProbePlan,
        v: usize,
        vp: &VantagePoint,
        target: Target,
        family: Family,
        state: &mut ProbeState,
        rng: &mut SimRng,
    ) -> Option<(SiteId, f64)> {
        let world = self.world;
        let ov = self.config.overrides.letter(target.letter);
        let (sites, paths) = plan.slot(v, target.letter, family);
        let (site, _) = self.config.churn.step_near(
            sites,
            &mut state.selection,
            rng,
            churn_multiplier(target.letter, family) * ov.churn_boost,
            world.attracting_sites(target.letter, family),
        );
        let site = site?;
        let path = match sites.iter().position(|&s| s == site) {
            Some(k) => paths[k],
            None => match state.redirects.iter().find(|(s, _)| *s == site) {
                Some(&(_, path)) => path,
                None => {
                    // The slot's sites are every near-equal candidate's, so
                    // no near-equal candidate serves this one.
                    let cands = world.routes(target.letter, family).candidates(vp.asn);
                    let route = &cands[resolve_candidate(cands, &[], site)];
                    let path = world.path_to(vp, target.letter, route, site);
                    state.redirects.push((site, path));
                    path
                }
            },
        };
        Some((site, self.config.rtt.path_rtt_ms(path)))
    }

    /// One probe: timeout, selection (`select`, given the probe's rng), RTT,
    /// traceroute tail, identity, AXFR.
    #[allow(clippy::too_many_arguments)]
    fn probe_once<S: MeasurementSink>(
        &self,
        vp: &VantagePoint,
        target: Target,
        family: Family,
        round: &RoundContext,
        rng: &mut SimRng,
        sink: &mut S,
        select: impl FnOnce(&mut SimRng) -> Option<(SiteId, f64)>,
    ) {
        let time = round.time;
        let world = self.world;
        let ov = self.config.overrides.letter(target.letter);
        let timeout = rng.chance(self.config.timeout_prob);
        let selected = if timeout { None } else { select(rng) };
        let unanswered = ProbeRecord::new(time, vp.id, target, family);
        let (record, site_city) = match selected {
            None => (unanswered, None),
            Some((site_id, base)) => {
                let facility = world
                    .catalog
                    .deployment(target.letter)
                    .site(site_id)
                    .facility;
                let rtt = self.config.rtt.jittered(base, rng) * ov.rtt_factor;
                let hop = if rng.chance(self.config.missing_hop_prob) {
                    None
                } else {
                    Some(world.catalog.facilities.get(facility).edge_router())
                };
                let row = world.catalog.site(target.letter, site_id);
                let record = unanswered
                    .with_site(Some(site_id))
                    .with_rtt_ms(Some(rtt))
                    .with_identity(Some(row.identity))
                    .with_second_to_last_hop(hop)
                    .expect("facility ids stay below 2^24, so edge-router hops fit 32 bits");
                (record, Some(row.city.name))
            }
        };
        sink.probe(record);

        // AXFR (once active, every round, as the script does).
        if self.config.schedule.axfr_active(time) && selected.is_some() {
            let vp_clock = self.vp_clock(vp, time);
            // A letter-wide degraded-behavior override beats the dated
            // per-site stale windows.
            let stale = ov
                .stale_stuck_day
                .or_else(|| self.stale_at(target.letter, site_city, time));
            let mut fault = if let Some(stuck_day) = stale {
                Some(TransferFault::Stale {
                    serial: serial_of_day(stuck_day),
                })
            } else {
                match vp.fault {
                    VpFault::FaultyRam { flip_prob } if rng.chance(flip_prob) => {
                        Some(TransferFault::Bitflip {
                            seed: rng.next_u64(),
                        })
                    }
                    _ => None,
                }
            };
            // Scenario-injected corruption: only draws randomness when the
            // override is active, so neutral configs stay bit-identical.
            if fault.is_none() && ov.extra_bitflip_prob > 0.0 && rng.chance(ov.extra_bitflip_prob) {
                fault = Some(TransferFault::Bitflip {
                    seed: rng.next_u64(),
                });
            }
            let serial = match fault {
                Some(TransferFault::Stale { serial }) => serial,
                _ => round.zone_serial,
            };
            sink.transfer(
                TransferRecord::new(time, vp_clock, vp.id, target, family)
                    .with_serial(Some(serial))
                    .with_fault(fault),
            );
        }
    }

    /// Local clock of `vp` at wall-clock `time` (skew during episodes).
    pub fn vp_clock(&self, vp: &VantagePoint, time: u32) -> u32 {
        if let VpFault::SkewedClock { offset_secs } = vp.fault {
            let in_episode = self
                .config
                .skew_episodes
                .iter()
                .any(|e| time >= e.from && time < e.until);
            if in_episode {
                return (time as i64 + offset_secs).clamp(0, u32::MAX as i64) as u32;
            }
        }
        time
    }

    /// Whether the (letter, site-city) combination serves stale data at
    /// `time`; returns the stuck day.
    fn stale_at(
        &self,
        letter: RootLetter,
        site_city: Option<&'static str>,
        time: u32,
    ) -> Option<u32> {
        let city = site_city?;
        self.config
            .stale_windows
            .iter()
            .find(|w| w.letter == letter && w.city == city && time >= w.from && time < w.until)
            .map(|w| w.stuck_day)
    }
}

/// Resolve which candidate route carries this probe's traffic to `site`.
///
/// The churn model normally selects among the near-equal set, so the
/// common case is a near-equal candidate serving `site`. But an upstream
/// redirect can land the client on any attracting site of the deployment:
/// first fall back to *any* candidate that serves it (path geometry must
/// follow the route that actually reaches the site, not the local best —
/// using index 0 here systematically under-reported RTT for redirected
/// probes), and only when no candidate serves the site at all use the
/// local best route, since the packets still leave via it even though
/// they terminate elsewhere.
fn resolve_candidate(cands: &[CandidateRoute], near: &[usize], site: SiteId) -> usize {
    near.iter()
        .copied()
        .find(|&i| cands[i].site == site)
        .or_else(|| cands.iter().position(|c| c.site == site))
        .unwrap_or(0)
}

/// Per-deployment routing-stability multiplier, calibrated to the paper's
/// Figure 3: b.root's routing is markedly more stable than g.root's even
/// though both deploy six sites; g (and to a lesser degree c and h) also
/// flap more on IPv6. The paper observes this without a mechanism ("this
/// is surprising", §4.2); an AS-level simulator cannot derive it, so it is
/// an explicit behavioural parameter, like the traces' switch rates.
pub fn churn_multiplier(letter: RootLetter, family: Family) -> f64 {
    use RootLetter::*;
    match (letter, family) {
        (G, Family::V4) => 4.5,
        (G, Family::V6) => 8.0,
        (C, Family::V6) | (H, Family::V6) => 2.5,
        _ => 1.0,
    }
}

/// Serial of the zone generated on `day` (day-start timestamp).
pub fn serial_of_day(day: u32) -> u32 {
    let ymd: String = timestamp_to_ymd(day).chars().take(8).collect();
    ymd.parse::<u32>().expect("8 digits") * 100
}

/// How many sites of each scope a letter exposes to a VP — used by coverage
/// analyses and tests.
pub fn reachable_scopes(
    world: &World,
    letter: RootLetter,
    family: Family,
    vp_asn: netsim::AsId,
) -> (usize, usize) {
    let table = world.routes(letter, family);
    let d = world.catalog.deployment(letter);
    let mut global = 0;
    let mut local = 0;
    for c in table.candidates(vp_asn) {
        match d.site(c.site).scope {
            SiteScope::Global => global += 1,
            SiteScope::Local => local += 1,
        }
    }
    (global, local)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> World {
        World::build(&WorldBuildConfig::tiny())
    }

    fn short_config() -> MeasurementConfig {
        MeasurementConfig {
            schedule: Schedule::subsampled(400),
            ..Default::default()
        }
    }

    #[test]
    fn engine_produces_records() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        assert!(!sink.probes.is_empty());
        assert!(!sink.transfers.is_empty());
        // Probes cover all 14 targets.
        let targets: std::collections::HashSet<_> = sink.probes.iter().map(|p| p.target).collect();
        assert_eq!(targets.len(), 14);
    }

    #[test]
    fn v4_only_vps_never_probe_v6() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        for p in &sink.probes {
            if p.family == Family::V6 {
                assert!(world.population.get(p.vp).has_v6);
            }
        }
    }

    #[test]
    fn deterministic_runs() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let mut a = VecSink::default();
        engine.run(&mut a);
        let mut b = VecSink::default();
        engine.run(&mut b);
        assert_eq!(a.probes.len(), b.probes.len());
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.transfers, b.transfers);
    }

    #[test]
    fn parallel_matches_serial_content() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let mut serial = VecSink::default();
        engine.run(&mut serial);
        let parallel = engine.run_parallel(4);
        assert_eq!(serial.probes.len(), parallel.probes.len());
        // Same multiset; parallel merge preserves VP-range grouping so a
        // sort by (vp, time, target) aligns them.
        let keyf = |p: &ProbeRecord| (p.vp, p.time, p.target, p.family);
        let mut a = serial.probes.clone();
        let mut b = parallel.probes.clone();
        a.sort_by_key(keyf);
        b.sort_by_key(keyf);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_identical_across_worker_counts() {
        // Determinism golden test: the record set must be bit-identical
        // for any worker count once sorted by the documented key
        // (vp, time, target, family). Workers own disjoint VP ranges and
        // all per-probe randomness derives from
        // (seed, vp, target, family, round time), so worker count can
        // only permute record order, never content.
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let probe_key = |p: &ProbeRecord| (p.vp, p.time, p.target, p.family);
        let transfer_key = |t: &TransferRecord| (t.vp, t.time, t.target, t.family);
        let normalized = |workers: usize| {
            let mut sink = engine.run_parallel(workers);
            sink.probes.sort_by_key(probe_key);
            sink.transfers.sort_by_key(transfer_key);
            (sink.probes, sink.transfers)
        };
        let base = normalized(1);
        for workers in [2, 8] {
            let run = normalized(workers);
            assert_eq!(base.0, run.0, "probes differ at {workers} workers");
            assert_eq!(base.1, run.1, "transfers differ at {workers} workers");
        }
    }

    #[test]
    fn session_split_matches_continuous_run() {
        // Epoch-slicing contract: running the schedule in two
        // `run_rounds_session` calls over the same session (even with
        // different worker counts) yields the exact record stream of one
        // continuous run — churn state carries across the boundary.
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let rounds: Vec<Round> = engine.config.schedule.rounds().collect();
        let continuous = engine.run_rounds_parallel(&rounds, 3);
        let (head, tail) = rounds.split_at(rounds.len() / 2);
        let mut session = EngineSession::new();
        let mut sliced = engine.run_rounds_session(&mut session, head, 3);
        let second = engine.run_rounds_session(&mut session, tail, 2);
        sliced.probes.extend(second.probes);
        sliced.transfers.extend(second.transfers);
        let probe_key = |p: &ProbeRecord| (p.vp, p.time, p.target, p.family);
        let transfer_key = |t: &TransferRecord| (t.vp, t.time, t.target, t.family);
        let normalize = |mut s: VecSink| {
            s.probes.sort_by_key(probe_key);
            s.transfers.sort_by_key(transfer_key);
            (s.probes, s.transfers)
        };
        assert_eq!(normalize(continuous), normalize(sliced));
    }

    /// A slot of the selection path the world's probe plans replaced: the
    /// near-equal set built on the slot's first probe and the base RTT of
    /// every (candidate, site) pair it was served over, both kept in the
    /// session.
    struct ReferenceSlot {
        selection: SelectionState,
        near: Option<Vec<usize>>,
        rtt_cache: Vec<((usize, SiteId), f64)>,
    }

    impl MeasurementEngine<'_> {
        /// The reference path over every VP, its caches dropped before
        /// each round, so every probe rebuilds its near-equal set and base
        /// RTT from the live route tables: the oracle for the plans.
        fn run_reference(&self, slots: &mut Vec<ReferenceSlot>, rounds: &[Round]) -> VecSink {
            let n = self.world.population.len();
            slots.resize_with(n * STATES_PER_VP, || ReferenceSlot {
                selection: self.config.churn.initial(),
                near: None,
                rtt_cache: Vec::new(),
            });
            let mut sink = VecSink::default();
            for round in rounds {
                for slot in slots.iter_mut() {
                    slot.near = None;
                    slot.rtt_cache.clear();
                }
                let select = |_, vp: &VantagePoint, target, family, slot: &mut _, rng: &mut _| {
                    self.select_reference(vp, target, family, slot, rng)
                };
                self.run_vps(slots, 0..n, &[*round], &mut sink, select);
            }
            sink
        }

        /// [`MeasurementEngine::select`] as it was when a session kept the
        /// routing facts per slot, built on first use.
        fn select_reference(
            &self,
            vp: &VantagePoint,
            target: Target,
            family: Family,
            slot: &mut ReferenceSlot,
            rng: &mut SimRng,
        ) -> Option<(SiteId, f64)> {
            let world = self.world;
            let churn = &self.config.churn;
            let table = world.routes(target.letter, family);
            let cands = table.candidates(vp.asn);
            let near = (slot.near).get_or_insert_with(|| churn.near_equal(table, vp.asn));
            let sites: Vec<SiteId> = near.iter().map(|&i| cands[i].site).collect();
            let (site, _) = churn.step_near(
                &sites,
                &mut slot.selection,
                rng,
                churn_multiplier(target.letter, family)
                    * self.config.overrides.letter(target.letter).churn_boost,
                world.attracting_sites(target.letter, family),
            );
            let site_id = site?;
            let cand_idx = resolve_candidate(cands, near, site_id);
            let facility = world
                .catalog
                .deployment(target.letter)
                .site(site_id)
                .facility;
            let key = (cand_idx, site_id);
            let base = match slot.rtt_cache.iter().find(|(k, _)| *k == key) {
                Some(&(_, base)) => base,
                None => {
                    let base = self.config.rtt.base_rtt_ms(
                        &world.topology,
                        &world.catalog.facilities,
                        vp.coord,
                        &cands[cand_idx],
                        facility,
                    );
                    slot.rtt_cache.push((key, base));
                    base
                }
            };
            Some((site_id, base))
        }
    }

    /// How many times each letter's entries of `world`'s plan at `slack`
    /// have been built.
    fn builds(world: &World, slack: usize) -> [usize; 13] {
        let plans = world.plans.lock();
        plans
            .iter()
            .find(|p| p.slack == slack)
            .map_or([0; 13], |p| p.builds)
    }

    /// `[n; 13]` with `letter`'s count `at`.
    fn all_but(n: usize, letter: RootLetter, at: usize) -> [usize; 13] {
        let mut counts = [n; 13];
        counts[letter.index()] = at;
        counts
    }

    /// One engine configuration measured twice over the same world state,
    /// segment by segment: through a session, and through the reference.
    struct Twin {
        config: MeasurementConfig,
        session: EngineSession,
        slots: Vec<ReferenceSlot>,
        planned: VecSink,
        reference: VecSink,
    }

    impl Twin {
        fn new(config: MeasurementConfig) -> Twin {
            Twin {
                config,
                session: EngineSession::new(),
                slots: Vec::new(),
                planned: VecSink::default(),
                reference: VecSink::default(),
            }
        }

        fn run(&mut self, world: &World, rounds: &[Round], workers: usize) {
            let engine = MeasurementEngine::new(world, self.config.clone());
            let planned = engine.run_rounds_session(&mut self.session, rounds, workers);
            let reference = engine.run_reference(&mut self.slots, rounds);
            self.planned.probes.extend(planned.probes);
            self.planned.transfers.extend(planned.transfers);
            self.reference.probes.extend(reference.probes);
            self.reference.transfers.extend(reference.transfers);
        }

        /// What a caller does after a mutation recomputed routing.
        fn invalidate_routing(&mut self) {
            self.session.invalidate_routing(&self.config.churn);
            for slot in &mut self.slots {
                self.config.churn.reset_override(&mut slot.selection);
            }
        }

        /// Both record streams in one order: workers regroup records, the
        /// reference writes them round by round.
        fn assert_agree(&self) {
            let sorted = |s: &VecSink| {
                let (mut probes, mut transfers) = (s.probes.clone(), s.transfers.clone());
                probes.sort_by_key(|p| (p.time, p.vp, p.target, p.family));
                transfers.sort_by_key(|t| (t.time, t.vp, t.target, t.family));
                (probes, transfers)
            };
            assert!(!self.planned.probes.is_empty());
            assert_eq!(sorted(&self.planned), sorted(&self.reference));
        }
    }

    #[test]
    fn routing_caches_match_per_probe_recomputation_across_a_mutation() {
        // What the world keeps per letter (near-equal sets and path
        // geometry) and a session per slot (redirect geometry), against
        // the per-slot path they replaced with its caches dropped every
        // round, so every probe rebuilds both from the live route tables.
        // One world: two engines share its plan; a site withdrawal and its
        // restore, each followed by `invalidate_routing`, rebuild that
        // letter's entries and no other's; a wider near-equal slack gets a
        // plan of its own. Records equal the reference's throughout.
        let letter = RootLetter::G;
        let churn = short_config().churn;
        let rounds: Vec<Round> = short_config().schedule.rounds().collect();
        let (head, rest) = rounds.split_at(rounds.len() / 3);
        let (middle, tail) = rest.split_at(rest.len() / 2);
        let mut world = tiny_world();
        let mut main = Twin::new(short_config());
        main.run(&world, head, 3);
        let slack = churn.near_equal_slack;
        assert_eq!(builds(&world, slack), [1; 13]);
        let first = world.probe_plan(&churn, 1);

        // A second engine over the same world with an RTT model of its own:
        // the plan holds kilometres, so it prices them its own way, reads
        // the first engine's plan and builds nothing. One worker writes the
        // reference's order.
        let mut other = Twin::new(MeasurementConfig {
            rtt: RttModel {
                per_hop_ms: 1.7,
                ..RttModel::default()
            },
            ..short_config()
        });
        other.run(&world, head, 1);
        assert_eq!(other.planned.probes, other.reference.probes);
        assert_eq!(other.planned.transfers, other.reference.transfers);
        assert_ne!(other.planned.probes, main.reference.probes);
        assert!(Arc::ptr_eq(&first, &world.probe_plan(&churn, 1)));
        assert_eq!(builds(&world, slack), [1; 13]);

        // Withdraw the site most of the head's answers came from, then put
        // it back: each change rebuilds the letter's entries, and only them.
        let mut answers = HashMap::<SiteId, usize>::new();
        for p in main
            .planned
            .probes
            .iter()
            .filter(|p| p.target.letter == letter)
        {
            *answers
                .entry(p.site().unwrap_or(SiteId(u32::MAX)))
                .or_default() += 1;
        }
        let (&busiest, _) = answers.iter().max_by_key(|&(site, n)| (n, site)).unwrap();
        let head_len = main.planned.probes.len();
        assert!(world.withdraw_site(letter, busiest));
        main.invalidate_routing();
        main.run(&world, middle, 3);
        assert_eq!(builds(&world, slack), all_but(1, letter, 2));
        let middle_len = main.planned.probes.len();
        assert!(world.restore_site(letter, busiest));
        main.invalidate_routing();
        main.run(&world, tail, 3);
        assert_eq!(builds(&world, slack), all_but(1, letter, 3));
        let restored = world.probe_plan(&churn, 1);
        assert!(!Arc::ptr_eq(&restored, &first) && restored == first);
        // Redirects outside the plans happened, and were priced too.
        assert!(main.session.states.iter().any(|s| !s.redirects.is_empty()));
        main.assert_agree();
        let moved = |p: &&ProbeRecord| p.target.letter == letter && p.site() == Some(busiest);
        let probes = &main.planned.probes;
        assert!(probes[..head_len].iter().filter(moved).count() > 100);
        assert_eq!(probes[head_len..middle_len].iter().filter(moved).count(), 0);
        assert!(probes[middle_len..].iter().filter(moved).count() > 100);

        // A wider near-equal slack: a plan of its own, the other kept.
        let wide_churn = ChurnModel {
            near_equal_slack: 3,
            ..churn.clone()
        };
        let mut wide = Twin::new(MeasurementConfig {
            churn: wide_churn.clone(),
            ..short_config()
        });
        wide.run(&world, head, 2);
        wide.assert_agree();
        assert_eq!(builds(&world, 3), [1; 13]);
        assert_eq!(builds(&world, slack), all_but(1, letter, 3));
        assert!(Arc::ptr_eq(&restored, &world.probe_plan(&churn, 1)));
        assert!(world.probe_plan(&wide_churn, 1).sites.len() > restored.sites.len());
    }

    /// Every slot of `world`'s plan at `churn`'s slack against the live
    /// route tables: its sites are the near-equal candidates' sites in
    /// order, and each path follows the first near-equal candidate that
    /// serves its site. Returns how many slots hold an entry.
    fn assert_plan_matches_routes(world: &World, churn: &ChurnModel) -> usize {
        let plan = world.probe_plan(churn, 2);
        let mut planned = 0;
        for (v, vp) in world.population.vps().iter().enumerate() {
            for letter in RootLetter::ALL {
                for family in Family::BOTH {
                    let table = world.routes(letter, family);
                    let cands = table.candidates(vp.asn);
                    let near = churn.near_equal(table, vp.asn);
                    let (sites, paths) = plan.slot(v, letter, family);
                    let live: Vec<SiteId> = near.iter().map(|&i| cands[i].site).collect();
                    let at = format!("vp {v} {letter:?} {family:?}");
                    assert_eq!(sites, &live[..], "{at}");
                    for (&site, &path) in sites.iter().zip(paths) {
                        let route = &cands[resolve_candidate(cands, &near, site)];
                        assert_eq!(path, world.path_to(vp, letter, route, site), "{at}");
                    }
                    planned += usize::from(!sites.is_empty());
                }
            }
        }
        planned
    }

    #[test]
    fn every_plan_slot_matches_the_live_route_tables() {
        // Slack 1 and 3, on the built world, after a withdrawal and after
        // the restore: the plan is exactly what the route tables say.
        let mut world = tiny_world();
        let narrow = ChurnModel::default();
        let wide = ChurnModel {
            near_equal_slack: 3,
            ..ChurnModel::default()
        };
        let check = |world: &World| {
            let slots = assert_plan_matches_routes(world, &narrow);
            assert!(slots > world.population.len() * 13);
            assert!(
                world.probe_plan(&wide, 1).sites.len() > world.probe_plan(&narrow, 1).sites.len()
            );
            assert_plan_matches_routes(world, &wide);
        };
        check(&world);
        let letter = RootLetter::G;
        let vp = &world.population.vps()[0];
        let site = (world.routes(letter, Family::V4).best(vp.asn))
            .expect("VP 0 reaches g.root")
            .site;
        assert!(world.withdraw_site(letter, site));
        check(&world);
        let plan = world.probe_plan(&narrow, 1);
        for v in 0..world.population.len() {
            for family in Family::BOTH {
                assert!(!plan.slot(v, letter, family).0.contains(&site));
            }
        }
        assert!(world.restore_site(letter, site));
        check(&world);
    }

    #[test]
    fn neutral_overrides_change_nothing() {
        let world = tiny_world();
        let base = MeasurementEngine::new(&world, short_config());
        let mut cfg = short_config();
        // Explicitly-neutral override values must not perturb the stream.
        *cfg.overrides.letter_mut(RootLetter::G) = LetterOverrides::default();
        assert!(cfg.overrides.is_neutral());
        let overridden = MeasurementEngine::new(&world, cfg);
        let mut a = VecSink::default();
        base.run(&mut a);
        let mut b = VecSink::default();
        overridden.run(&mut b);
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.transfers, b.transfers);
    }

    #[test]
    fn override_knobs_bite() {
        let world = tiny_world();
        let mut cfg = short_config();
        {
            let ov = cfg.overrides.letter_mut(RootLetter::K);
            ov.rtt_factor = 10.0;
            ov.extra_bitflip_prob = 1.0;
        }
        let engine = MeasurementEngine::new(&world, cfg);
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        let base_engine = MeasurementEngine::new(&world, short_config());
        let mut base = VecSink::default();
        base_engine.run(&mut base);
        // RTT inflation: every K probe with an RTT is exactly 10× its
        // baseline counterpart (same rng stream, scaled after jitter).
        let rtts = |s: &VecSink| -> Vec<f64> {
            s.probes
                .iter()
                .filter(|p| p.target.letter == RootLetter::K)
                .filter_map(|p| p.rtt_ms())
                .collect()
        };
        let (inflated, baseline) = (rtts(&sink), rtts(&base));
        assert_eq!(inflated.len(), baseline.len());
        assert!(!inflated.is_empty());
        for (i, b) in inflated.iter().zip(&baseline) {
            assert!((i - b * 10.0).abs() < 1e-9);
        }
        // Certain corruption: every K transfer carries a bitflip fault.
        let k_transfers: Vec<_> = sink
            .transfers
            .iter()
            .filter(|t| t.target.letter == RootLetter::K)
            .collect();
        assert!(!k_transfers.is_empty());
        for t in k_transfers {
            assert!(
                matches!(t.fault(), Some(TransferFault::Bitflip { .. })),
                "unflipped K transfer"
            );
        }
        // Other letters are untouched.
        let a_probes = |s: &VecSink| -> Vec<_> {
            s.probes
                .iter()
                .filter(|p| p.target.letter == RootLetter::A)
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(a_probes(&sink), a_probes(&base));
    }

    #[test]
    fn withdraw_and_restore_round_trips_routing() {
        let mut world = tiny_world();
        let letter = RootLetter::F;
        let before = world.routing_hash(letter);
        let site = world.catalog.deployment(letter).sites[0].id;
        assert!(world.withdraw_site(letter, site));
        // Withdrawn: no AS may select the site any more.
        for family in Family::BOTH {
            assert!(!world.attracting_sites(letter, family).contains(&site));
        }
        assert_ne!(world.routing_hash(letter), before, "withdrawal is a no-op");
        // Double-withdraw and unknown sites are rejected.
        assert!(!world.withdraw_site(letter, site));
        assert!(!world.withdraw_site(letter, SiteId(9999)));
        assert!(world.restore_site(letter, site));
        assert_eq!(world.routing_hash(letter), before);
        assert!(!world.restore_site(letter, site));
    }

    #[test]
    fn zonemd_override_changes_generated_zones() {
        let mut world = tiny_world();
        let t = crate::schedule::MEASUREMENT_START + 100;
        let before = world.zone_at(t);
        world.set_zonemd_override(Some(RolloutPhase::Validating));
        let forced = world.zone_at(t);
        assert!(!Arc::ptr_eq(&before, &forced));
        world.set_zonemd_override(None);
        let after = world.zone_at(t);
        // Same config as the original build (fresh cache, equal content).
        assert_eq!(before.serial(), after.serial());
    }

    #[test]
    fn run_rounds_parallel_covers_exactly_given_rounds() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let rounds: Vec<Round> = engine.config.schedule.rounds().take(3).collect();
        let sink = engine.run_rounds_parallel(&rounds, 2);
        let times: std::collections::BTreeSet<u32> = sink.probes.iter().map(|p| p.time).collect();
        let expected: std::collections::BTreeSet<u32> = rounds.iter().map(|r| r.time).collect();
        assert_eq!(times, expected);
    }

    #[test]
    fn resolve_candidate_prefers_serving_route() {
        use netsim::types::LearnedFrom;
        let mk = |site: u32, len: usize| CandidateRoute {
            site: SiteId(site),
            via: Some(netsim::AsId(100 + site)),
            learned_from: LearnedFrom::Provider,
            path: vec![netsim::AsId(1); len],
            km: 1000,
        };
        let cands = vec![mk(10, 2), mk(11, 2), mk(12, 5)];
        let near = vec![0, 1];
        // Near-equal candidate serving the site wins.
        assert_eq!(resolve_candidate(&cands, &near, SiteId(11)), 1);
        // Upstream redirect to a site outside the near set must resolve
        // to the candidate that actually serves it — the old fallback to
        // index 0 mis-attributed the path geometry.
        assert_eq!(resolve_candidate(&cands, &near, SiteId(12)), 2);
        // Site no candidate serves: packets leave via the local best.
        assert_eq!(resolve_candidate(&cands, &near, SiteId(99)), 0);
    }

    #[test]
    fn redirected_probes_use_serving_candidate_geometry() {
        // End-to-end shape of the bugfix: force an upstream override to a
        // site the near-equal set does not serve and check the engine's
        // resolution against the full candidate list for every VP.
        let world = tiny_world();
        let churn = ChurnModel::default();
        for letter in [RootLetter::D, RootLetter::G] {
            let table = world.routes(letter, Family::V4);
            for vp in world.population.vps().iter().take(50) {
                let cands = table.candidates(vp.asn);
                let near = churn.near_equal(table, vp.asn);
                for pool_site in world.attracting_sites(letter, Family::V4) {
                    let idx = resolve_candidate(cands, &near, *pool_site);
                    if let Some(serving) = cands.iter().position(|c| c.site == *pool_site) {
                        assert_eq!(
                            cands[idx].site, *pool_site,
                            "candidate {serving} serves the redirect site but {idx} was picked"
                        );
                    } else {
                        assert_eq!(idx, 0, "no serving candidate: fall back to best route");
                    }
                }
            }
        }
    }

    #[test]
    fn rtts_are_positive_and_bounded() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        for p in &sink.probes {
            if let Some(rtt) = p.rtt_ms() {
                assert!(rtt > 0.0 && rtt < 2000.0, "rtt {rtt}");
            }
        }
    }

    #[test]
    fn transfers_only_after_axfr_date() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        for t in &sink.transfers {
            assert!(engine.config.schedule.axfr_active(t.time));
        }
    }

    #[test]
    fn zone_cache_returns_same_day_zone() {
        let world = tiny_world();
        let z1 = world.zone_at(crate::schedule::MEASUREMENT_START + 100);
        let z2 = world.zone_at(crate::schedule::MEASUREMENT_START + 50_000);
        assert!(Arc::ptr_eq(&z1, &z2));
        let z3 = world.zone_at(crate::schedule::MEASUREMENT_START + 100_000);
        assert!(!Arc::ptr_eq(&z1, &z3));
    }

    #[test]
    fn zone_serial_follows_root_convention() {
        let world = tiny_world();
        let z = world.zone_at(crate::schedule::MEASUREMENT_START);
        assert_eq!(z.serial().unwrap(), 2023070300);
    }

    #[test]
    fn skewed_vp_clock_differs_in_episode() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, MeasurementConfig::default());
        let skewed = world
            .population
            .vps()
            .iter()
            .find(|v| matches!(v.fault, VpFault::SkewedClock { .. }))
            .expect("population has a skewed VP");
        let ep = &engine.config.skew_episodes[0];
        assert_ne!(engine.vp_clock(skewed, ep.from + 10), ep.from + 10);
        assert_eq!(engine.vp_clock(skewed, ep.from - 10), ep.from - 10);
        let healthy = world
            .population
            .vps()
            .iter()
            .find(|v| matches!(v.fault, VpFault::None))
            .unwrap();
        assert_eq!(engine.vp_clock(healthy, ep.from + 10), ep.from + 10);
    }

    #[test]
    fn stale_window_tags_transfers() {
        use dns_crypto::validity::timestamp_from_ymd as ts;
        let world = tiny_world();
        // A schedule slice covering the Leeds window at full resolution.
        let cfg = MeasurementConfig {
            schedule: Schedule {
                start: ts("20231006090000").unwrap(),
                end: ts("20231006150000").unwrap(),
                subsample: 1,
                ..Schedule::default()
            },
            ..Default::default()
        };
        let engine = MeasurementEngine::new(&world, cfg);
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        let stale: Vec<&TransferRecord> = sink
            .transfers
            .iter()
            .filter(|t| matches!(t.fault(), Some(TransferFault::Stale { .. })))
            .collect();
        // The tiny world may or may not route any VP to a Leeds d.root site;
        // if it does, the stale fault must be tagged with the stuck serial.
        for t in &stale {
            assert_eq!(t.target.letter, RootLetter::D);
            match t.fault() {
                Some(TransferFault::Stale { serial }) => {
                    assert_eq!(serial, 2023091800);
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn reachable_scopes_counts_candidates() {
        let world = tiny_world();
        let vp = &world.population.vps()[0];
        // f.root deploys both scopes; every VP must at least reach globals.
        let (global, local) = reachable_scopes(&world, RootLetter::F, Family::V4, vp.asn);
        assert!(global > 0, "no global candidates");
        // Candidate totals bounded by the deployment size.
        let total_sites = world.catalog.deployment(RootLetter::F).sites.len();
        assert!(global + local <= total_sites);
        // Letters without local sites never yield local candidates.
        let (_, b_local) = reachable_scopes(&world, RootLetter::B, Family::V4, vp.asn);
        assert_eq!(b_local, 0);
    }

    #[test]
    fn fig3_calibration_full_resolution() {
        // Step the churn process at the paper's full round count for a VP
        // sample; median changes must land near Figure 3's values
        // (b.root ≈ 8 for both families; g.root ≈ 36 v4 / 64 v6).
        let world = World::build(&WorldBuildConfig::default());
        let churn = ChurnModel::default();
        let rounds = Schedule::default().round_count();
        let median_changes = |letter: RootLetter, family: Family| -> u64 {
            let table = world.routes(letter, family);
            let mut counts: Vec<u64> = Vec::new();
            let rng_root = SimRng::new(1).derive("fig3-calib");
            for vp in world.population.vps().iter().take(150) {
                if family == Family::V6 && !vp.has_v6 {
                    continue;
                }
                let mut rng = rng_root.derive(&format!("{}/{}", vp.id.0, letter.ch()));
                let mut state = churn.initial();
                let mut prev = None;
                let mut changes = 0;
                for _ in 0..rounds {
                    let cur = churn.step_full(
                        table,
                        vp.asn,
                        &mut state,
                        &mut rng,
                        churn_multiplier(letter, family),
                        world.attracting_sites(letter, family),
                    );
                    if prev.is_some() && cur != prev {
                        changes += 1;
                    }
                    prev = cur;
                }
                counts.push(changes);
            }
            counts.sort_unstable();
            counts[counts.len() / 2]
        };
        let b4 = median_changes(RootLetter::B, Family::V4);
        let g4 = median_changes(RootLetter::G, Family::V4);
        let g6 = median_changes(RootLetter::G, Family::V6);
        // Bands around the paper's 8 / 36 / 64.
        assert!((1..=25).contains(&b4), "b.root v4 median {b4}");
        assert!((15..=80).contains(&g4), "g.root v4 median {g4}");
        assert!(g6 > g4, "g v6 ({g6}) should exceed v4 ({g4})");
        assert!(g4 > b4, "g ({g4}) should exceed b ({b4})");
    }

    #[test]
    fn serial_of_day_formats() {
        use dns_crypto::validity::timestamp_from_ymd as ts;
        assert_eq!(serial_of_day(ts("20231127000000").unwrap()), 2023112700);
    }
}
