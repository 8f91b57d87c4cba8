//! Distance inflation (§6, Figure 5): for each request, compare the
//! distance from the VP to the geographically closest *global* site of the
//! deployment with the distance to the site that actually answered.
//!
//! Requests routed to their closest global site fall on the diagonal;
//! requests at a closer local site fall below; requests routed to a more
//! distant instance fall above.
//!
//! A request's distance is a function of its VP and the site that
//! answered, and a panel sees a few thousand such pairs millions of
//! times: each pair's haversine is computed when first met and read from
//! a per-panel `vps × sites` table afterwards.

use netsim::anycast::SiteScope;
use netsim::Family;
use rss::catalog::RootCatalog;
use vantage::population::Population;
use vantage::records::{ProbeRecord, Target};

/// One Figure 5 point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistancePoint {
    /// Distance to the closest global site (km).
    pub closest_global_km: f64,
    /// Distance to the answering site (km).
    pub actual_km: f64,
}

impl DistancePoint {
    /// On/below the diagonal (within `slack_km`): the request reached its
    /// closest global site or something even closer (a local site).
    pub fn is_optimal(&self, slack_km: f64) -> bool {
        self.actual_km <= self.closest_global_km + slack_km
    }

    /// Extra distance over optimal (0 when below the diagonal).
    pub fn inflation_km(&self) -> f64 {
        (self.actual_km - self.closest_global_km).max(0.0)
    }
}

/// Distance analysis for one (target, family).
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceResult {
    pub target: Target,
    pub family: Family,
    pub points: Vec<DistancePoint>,
    /// Per-VP mean inflation (the per-client view in §6), in `VpId`
    /// order over the VPs that had a request answered.
    pub per_vp_inflation_km: Vec<f64>,
}

impl DistanceResult {
    /// Compute one panel from the probe stream.
    pub fn compute(
        catalog: &RootCatalog,
        population: &Population,
        probes: &[ProbeRecord],
        target: Target,
        family: Family,
    ) -> DistanceResult {
        let mut panels = Self::compute_panels(catalog, population, probes, &[(target, family)]);
        panels.pop().expect("one result a panel")
    }

    /// Compute several `(target, family)` panels in one pass over the
    /// probe stream; results come back in `panels` order.
    pub fn compute_panels(
        catalog: &RootCatalog,
        population: &Population,
        probes: &[ProbeRecord],
        panels: &[(Target, Family)],
    ) -> Vec<DistanceResult> {
        /// One panel being filled.
        struct Panel {
            /// Distance from each VP to the letter's closest global site
            /// (infinite when the letter has none).
            closest_global_km: Vec<f64>,
            points: Vec<DistancePoint>,
            /// Inflation sum and request count per VP.
            per_vp: Vec<(f64, u32)>,
            /// Site ids the letter uses, and `actual_km[vp * sites + site]`:
            /// the distance from the VP to the site, computed the first
            /// time a request lands there (NaN until then).
            sites: usize,
            actual_km: Vec<f64>,
        }
        let mut filling: Vec<Panel> = (panels.iter())
            .map(|(target, _)| {
                let globals: Vec<netgeo::Coord> = catalog
                    .sites_of(target.letter)
                    .filter(|s| s.scope == SiteScope::Global)
                    .map(|s| s.city.coord)
                    .collect();
                let closest = |vp: &vantage::population::VantagePoint| {
                    (globals.iter())
                        .map(|c| vp.coord.distance_km(c))
                        .fold(f64::INFINITY, f64::min)
                };
                let sites = (catalog.sites_of(target.letter))
                    .map(|s| s.site_id.0 as usize + 1)
                    .max()
                    .unwrap_or(0);
                Panel {
                    closest_global_km: population.vps().iter().map(closest).collect(),
                    points: Vec::new(),
                    per_vp: vec![(0.0, 0); population.len()],
                    sites,
                    actual_km: vec![f64::NAN; population.len() * sites],
                }
            })
            .collect();
        for p in probes {
            let Some(at) = (panels.iter()).position(|&(t, f)| t == p.target && f == p.family)
            else {
                continue;
            };
            let Some(site) = p.site() else { continue };
            let panel = &mut filling[at];
            let closest = panel.closest_global_km[p.vp.0 as usize];
            if !closest.is_finite() {
                continue;
            }
            let actual = &mut panel.actual_km[p.vp.0 as usize * panel.sites + site.0 as usize];
            if actual.is_nan() {
                let row = catalog.site(p.target.letter, site);
                *actual = population.get(p.vp).coord.distance_km(&row.city.coord);
            }
            let actual = *actual;
            let pt = DistancePoint {
                closest_global_km: closest,
                actual_km: actual,
            };
            panel.points.push(pt);
            let e = &mut panel.per_vp[p.vp.0 as usize];
            e.0 += pt.inflation_km();
            e.1 += 1;
        }
        (panels.iter().zip(filling))
            .map(|(&(target, family), panel)| DistanceResult {
                target,
                family,
                points: panel.points,
                // In `VpId` order, VPs without a request left out.
                per_vp_inflation_km: (panel.per_vp.iter())
                    .filter(|(_, n)| *n > 0)
                    .map(|(sum, n)| sum / *n as f64)
                    .collect(),
            })
            .collect()
    }

    /// Fraction of requests on/below the diagonal (closest global or
    /// closer local). Paper: 78–82% for b/m.root.
    pub fn optimal_fraction(&self, slack_km: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let hits = self
            .points
            .iter()
            .filter(|p| p.is_optimal(slack_km))
            .count();
        hits as f64 / self.points.len() as f64
    }

    /// Fraction of *clients* whose mean extra distance is below `km`.
    /// Paper: 79.5% of b.root clients under 1,000 km.
    pub fn clients_below_inflation(&self, km: f64) -> f64 {
        if self.per_vp_inflation_km.is_empty() {
            return 0.0;
        }
        let hits = self.per_vp_inflation_km.iter().filter(|&&v| v < km).count();
        hits as f64 / self.per_vp_inflation_km.len() as f64
    }

    /// Maximum inflation observed (paper: tails up to ~15,000 km).
    pub fn max_inflation_km(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.inflation_km())
            .fold(0.0, f64::max)
    }

    /// Render one Figure 5 panel.
    pub fn render(&self) -> String {
        format!(
            "Figure 5 [{} {}]: {} requests | optimal(<=100km slack): {:.1}% | \
             clients <1000km extra: {:.1}% | max inflation: {:.0} km\n",
            self.target.label(),
            self.family.label(),
            self.points.len(),
            self.optimal_fraction(100.0) * 100.0,
            self.clients_below_inflation(1000.0) * 100.0,
            self.max_inflation_km()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rss::{BRootPhase, RootLetter};
    use vantage::{
        MeasurementConfig, MeasurementEngine, Schedule, VecSink, World, WorldBuildConfig,
    };

    fn run() -> (World, Vec<ProbeRecord>) {
        let world = World::build(&WorldBuildConfig::tiny());
        let engine = MeasurementEngine::new(
            &world,
            MeasurementConfig {
                schedule: Schedule::subsampled(150),
                ..Default::default()
            },
        );
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        (world, sink.probes)
    }

    fn target(letter: RootLetter) -> Target {
        Target {
            letter,
            b_phase: BRootPhase::Old,
        }
    }

    #[test]
    fn produces_points_for_measured_targets() {
        let (world, probes) = run();
        for letter in [RootLetter::B, RootLetter::M] {
            for family in Family::BOTH {
                let r = DistanceResult::compute(
                    &world.catalog,
                    &world.population,
                    &probes,
                    target(letter),
                    family,
                );
                assert!(!r.points.is_empty(), "{letter} {family}");
            }
        }
    }

    #[test]
    fn majority_of_requests_near_optimal() {
        // Shape target (Figure 5): for the sparse deployments the paper
        // plots (b.root, m.root), ~80% of requests land on/below the
        // diagonal.
        let (world, probes) = run();
        for letter in [RootLetter::B, RootLetter::M] {
            let r = DistanceResult::compute(
                &world.catalog,
                &world.population,
                &probes,
                target(letter),
                Family::V4,
            );
            let frac = r.optimal_fraction(300.0);
            assert!(frac > 0.6, "{letter}: optimal fraction {frac}");
        }
    }

    #[test]
    fn dense_deployments_less_often_optimal() {
        // Koch et al. / §2: large deployments are less likely to route a
        // client to the geographically closest replica.
        let (world, probes) = run();
        let frac = |letter: RootLetter| {
            DistanceResult::compute(
                &world.catalog,
                &world.population,
                &probes,
                target(letter),
                Family::V4,
            )
            .optimal_fraction(300.0)
        };
        assert!(frac(RootLetter::B) > frac(RootLetter::L));
    }

    #[test]
    fn inflation_nonnegative_and_bounded() {
        let (world, probes) = run();
        let r = DistanceResult::compute(
            &world.catalog,
            &world.population,
            &probes,
            target(RootLetter::K),
            Family::V4,
        );
        for p in &r.points {
            assert!(p.inflation_km() >= 0.0);
            assert!(p.actual_km < 21_000.0, "over half circumference");
        }
    }

    #[test]
    fn small_deployment_has_larger_closest_distance() {
        // b.root (6 sites) is geometrically farther from clients than
        // l.root (132 sites): the closest-global distance must be larger.
        let (world, probes) = run();
        let mean_closest = |letter: RootLetter| {
            let r = DistanceResult::compute(
                &world.catalog,
                &world.population,
                &probes,
                target(letter),
                Family::V4,
            );
            let s: f64 = r.points.iter().map(|p| p.closest_global_km).sum();
            s / r.points.len() as f64
        };
        assert!(mean_closest(RootLetter::B) > mean_closest(RootLetter::L));
    }

    /// `compute_panels` as it was: a haversine per matching probe.
    fn compute_panels_reference(
        catalog: &RootCatalog,
        population: &Population,
        probes: &[ProbeRecord],
        panels: &[(Target, Family)],
    ) -> Vec<DistanceResult> {
        /// One panel being filled.
        struct Panel {
            /// Distance from each VP to the letter's closest global site
            /// (infinite when the letter has none).
            closest_global_km: Vec<f64>,
            points: Vec<DistancePoint>,
            /// Inflation sum and request count per VP.
            per_vp: Vec<(f64, u32)>,
        }
        let mut filling: Vec<Panel> = (panels.iter())
            .map(|(target, _)| {
                let globals: Vec<netgeo::Coord> = catalog
                    .sites_of(target.letter)
                    .filter(|s| s.scope == SiteScope::Global)
                    .map(|s| s.city.coord)
                    .collect();
                let closest = |vp: &vantage::population::VantagePoint| {
                    (globals.iter())
                        .map(|c| vp.coord.distance_km(c))
                        .fold(f64::INFINITY, f64::min)
                };
                Panel {
                    closest_global_km: population.vps().iter().map(closest).collect(),
                    points: Vec::new(),
                    per_vp: vec![(0.0, 0); population.len()],
                }
            })
            .collect();
        for p in probes {
            let Some(at) = (panels.iter()).position(|&(t, f)| t == p.target && f == p.family)
            else {
                continue;
            };
            let Some(site) = p.site() else { continue };
            let panel = &mut filling[at];
            let closest = panel.closest_global_km[p.vp.0 as usize];
            if !closest.is_finite() {
                continue;
            }
            let row = catalog.site(p.target.letter, site);
            let actual = population.get(p.vp).coord.distance_km(&row.city.coord);
            let pt = DistancePoint {
                closest_global_km: closest,
                actual_km: actual,
            };
            panel.points.push(pt);
            let e = &mut panel.per_vp[p.vp.0 as usize];
            e.0 += pt.inflation_km();
            e.1 += 1;
        }
        (panels.iter().zip(filling))
            .map(|(&(target, family), panel)| DistanceResult {
                target,
                family,
                points: panel.points,
                // In `VpId` order, VPs without a request left out.
                per_vp_inflation_km: (panel.per_vp.iter())
                    .filter(|(_, n)| *n > 0)
                    .map(|(sum, n)| sum / *n as f64)
                    .collect(),
            })
            .collect()
    }

    /// A panel's label, points and per-VP means.
    type PanelBits = (Target, Family, Vec<[u64; 2]>, Vec<u64>);

    /// Points and per-VP means, floats by bit pattern.
    fn bits(results: &[DistanceResult]) -> Vec<PanelBits> {
        (results.iter())
            .map(|r| {
                let points = (r.points.iter())
                    .map(|p| [p.closest_global_km.to_bits(), p.actual_km.to_bits()]);
                let per_vp = r.per_vp_inflation_km.iter().map(|v| v.to_bits());
                (r.target, r.family, points.collect(), per_vp.collect())
            })
            .collect()
    }

    #[test]
    fn distances_met_before_match_a_haversine_per_probe() {
        let (world, mut probes) = run();
        let (catalog, population) = (&world.catalog, &world.population);
        // Figure 5's panels, one twice, and one nothing is measured on.
        let new_b = Target {
            letter: RootLetter::B,
            b_phase: BRootPhase::New,
        };
        let mut panels: Vec<(Target, Family)> = [new_b, target(RootLetter::M)]
            .into_iter()
            .flat_map(|t| Family::BOTH.map(|f| (t, f)))
            .collect();
        panels.push((target(RootLetter::M), Family::V4));
        panels.push((
            Target {
                letter: RootLetter::C,
                b_phase: BRootPhase::New,
            },
            Family::V4,
        ));
        let mut rng = netsim::SimRng::new(0xD157);
        for round in 0..3 {
            let results = DistanceResult::compute_panels(catalog, population, &probes, &panels);
            let reference = compute_panels_reference(catalog, population, &probes, &panels);
            assert_eq!(bits(&results), bits(&reference), "round {round}");
            // A duplicate panel is never reached: its first copy takes
            // the probes.
            assert!(results[1].points.len() > 100);
            assert_eq!(results[4].points.is_empty(), round == 0);
            assert!(results[5].points.is_empty());
            rng.shuffle(&mut probes);
            panels.truncate(4);
            panels.extend([(target(RootLetter::K), Family::V6); 2]);
        }
        let none = DistanceResult::compute_panels(catalog, population, &[], &panels);
        assert_eq!(
            bits(&none),
            bits(&compute_panels_reference(catalog, population, &[], &panels))
        );
    }

    #[test]
    fn one_pass_panels_match_single_panels_with_clients_in_vp_order() {
        let (world, probes) = run();
        let panels = [
            (target(RootLetter::B), Family::V4),
            (target(RootLetter::M), Family::V6),
            (target(RootLetter::B), Family::V6),
        ];
        let (catalog, population) = (&world.catalog, &world.population);
        let results = DistanceResult::compute_panels(catalog, population, &probes, &panels);
        assert_eq!(results.len(), panels.len());
        for ((t, family), r) in panels.into_iter().zip(results) {
            assert_eq!(
                r,
                DistanceResult::compute(catalog, population, &probes, t, family)
            );
            // A panel's points are its answered probes in stream order:
            // regroup their inflation by VP and walk the VPs in id order.
            let answered = (probes.iter())
                .filter(|p| p.target == t && p.family == family && p.site().is_some());
            let mut per_vp = std::collections::BTreeMap::<_, (f64, u32)>::new();
            for (p, pt) in answered.zip(&r.points) {
                let e = per_vp.entry(p.vp).or_default();
                e.0 += pt.inflation_km();
                e.1 += 1;
            }
            assert!(per_vp.len() > 10);
            let in_vp_order: Vec<f64> = per_vp.values().map(|(sum, n)| sum / *n as f64).collect();
            assert_eq!(r.per_vp_inflation_km, in_vp_order);
        }
    }

    #[test]
    fn render_mentions_target() {
        let (world, probes) = run();
        let r = DistanceResult::compute(
            &world.catalog,
            &world.population,
            &probes,
            target(RootLetter::M),
            Family::V6,
        );
        let txt = r.render();
        assert!(txt.contains("m.root"));
        assert!(txt.contains("IPv6"));
    }
}
