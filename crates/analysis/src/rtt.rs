//! RTT by continent, letter and address family (§6, Figures 6/14/15).
//!
//! Produces the distribution summaries behind the paper's violin/box plots
//! and the per-region v4-vs-v6 comparisons (a.root in South America,
//! i.root in North America, l.root in Africa, …).
//!
//! The samples of all 6 × 14 × 2 cells live in one exactly-sized vector:
//! a counting pass ([`RttCells`], part of the pipeline's one probe walk)
//! sizes each cell's run, a second pass scatters every RTT's bit pattern
//! into its cell. An RTT is finite and not negative, so
//! its bit pattern orders as its value does and each cell is sorted as
//! integers. The summary then sums a cell in ascending order, as it
//! always has — mean and deviation keep every bit.

use crate::stats::DistSummary;
use netgeo::Region;
use netsim::Family;
use vantage::population::Population;
use vantage::records::{ProbeRecord, Target};

/// RTT summaries per `[region][target][family]`.
#[derive(Debug, Clone)]
pub struct RttByRegion {
    pub targets: Vec<Target>,
    /// `summaries[region][target_idx][family]`.
    pub summaries: Vec<Vec<[Option<DistSummary>; 2]>>,
}

/// RTT's share of a probe walk: how many answered probes fall in each
/// `[region][target][family]` cell, the cell `(region · targets + target)
/// · 2 + family` — what sizes each cell's run before the samples scatter.
#[derive(Debug, Clone)]
pub struct RttCells {
    targets: Vec<Target>,
    /// Target index by `letter * 2 + address generation`.
    target_at: [Option<usize>; 13 * 2],
    /// Region index by VP, read once per VP.
    regions: Vec<usize>,
    counts: Vec<usize>,
}

impl RttCells {
    /// Every cell empty.
    pub fn new(population: &Population) -> Self {
        let targets = Target::all();
        let mut target_at = [None; 13 * 2];
        for (i, t) in targets.iter().enumerate() {
            target_at[t.letter.index() * 2 + t.b_phase as usize] = Some(i);
        }
        let regions = (population.vps().iter())
            .map(|vp| vp.region.index())
            .collect();
        let counts = vec![0; Region::ALL.len() * targets.len() * 2];
        RttCells {
            targets,
            target_at,
            regions,
            counts,
        }
    }

    #[inline]
    fn cell_of(&self, p: &ProbeRecord) -> usize {
        let target = self.target_at[p.target.letter.index() * 2 + p.target.b_phase as usize]
            .expect("known target");
        (self.regions[p.vp.0 as usize] * self.targets.len() + target) * 2 + p.family.index()
    }

    /// Count `p` if it was answered.
    #[inline]
    pub fn add(&mut self, p: &ProbeRecord) {
        if p.rtt_ms().is_some() {
            let cell = self.cell_of(p);
            self.counts[cell] += 1;
        }
    }

    /// Count every answered probe of `chunk`.
    pub fn fold(&mut self, chunk: &[ProbeRecord]) {
        chunk.iter().for_each(|p| self.add(p));
    }

    /// Add a later chunk's counts.
    pub fn merge(&mut self, later: &RttCells) {
        for (count, later) in self.counts.iter_mut().zip(&later.counts) {
            *count += later;
        }
    }
}

impl RttByRegion {
    /// Aggregate RTT samples from the probe stream.
    pub fn compute(population: &Population, probes: &[ProbeRecord]) -> RttByRegion {
        let mut cells = RttCells::new(population);
        cells.fold(probes);
        Self::finish(&cells, probes)
    }

    /// Scatter the samples of `probes` — the stream `cells` counted — into
    /// their cells' runs and summarize each.
    pub fn finish(cells: &RttCells, probes: &[ProbeRecord]) -> RttByRegion {
        let targets = cells.targets.clone();
        // Each cell's first slot; filling advances it to the cell's end.
        let mut next = Vec::with_capacity(cells.counts.len() + 1);
        next.push(0);
        for &count in &cells.counts {
            next.push(next[next.len() - 1] + count);
        }
        let mut bits = vec![0u64; next[cells.counts.len()]];
        for p in probes {
            let Some(rtt) = p.rtt_ms() else { continue };
            // Finite and not below +0.0: bit order is value order.
            assert!(rtt.to_bits() < f64::INFINITY.to_bits(), "RTT {rtt} ms");
            let slot = &mut next[cells.cell_of(p)];
            bits[*slot] = rtt.to_bits();
            *slot += 1;
        }

        // `next[c]` is now the end of cell `c`'s run, the start of `c + 1`'s.
        let mut sample: Vec<f64> = Vec::new();
        let mut summarize = |cell: usize| {
            let start = if cell == 0 { 0 } else { next[cell - 1] };
            let run = &mut bits[start..next[cell]];
            run.sort_unstable();
            sample.clear();
            sample.extend(run.iter().map(|&b| f64::from_bits(b)));
            DistSummary::from_sorted(&sample)
        };
        let summaries = (0..Region::ALL.len())
            .map(|region| {
                (0..targets.len())
                    .map(|target| {
                        let v4 = (region * targets.len() + target) * 2;
                        [summarize(v4), summarize(v4 + 1)]
                    })
                    .collect()
            })
            .collect();
        RttByRegion { targets, summaries }
    }

    /// Summary for (region, target, family).
    pub fn get(&self, region: Region, target: Target, family: Family) -> Option<&DistSummary> {
        let ti = self.targets.iter().position(|t| *t == target)?;
        self.summaries[region.index()][ti][family.index()].as_ref()
    }

    /// v4-mean minus v6-mean for one (region, target): positive means IPv6
    /// is faster there.
    pub fn v4_v6_gap_ms(&self, region: Region, target: Target) -> Option<f64> {
        let v4 = self.get(region, target, Family::V4)?;
        let v6 = self.get(region, target, Family::V6)?;
        Some(v4.mean - v6.mean)
    }

    /// Render the Figure 6 equivalent for a set of regions.
    pub fn render_fig6(&self, regions: &[Region]) -> String {
        let mut out =
            String::from("Figure 6: RTTs of requests by continent (mean/median/p25-p75 ms)\n");
        for region in regions {
            out.push_str(&format!("-- {region} --\n"));
            for (ti, target) in self.targets.iter().enumerate() {
                let mut line = format!("  {:14}", target.label());
                for family in Family::BOTH {
                    match &self.summaries[region.index()][ti][family.index()] {
                        Some(s) => line.push_str(&format!(
                            " | {}: {:7.1} {:7.1} [{:6.1}-{:6.1}] n={:6}",
                            family.label(),
                            s.mean,
                            s.median,
                            s.p25,
                            s.p75,
                            s.n
                        )),
                        None => line.push_str(&format!(" | {}: (no data)", family.label())),
                    }
                }
                line.push('\n');
                out.push_str(&line);
            }
        }
        out
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

    /// `compute` as it was: 168 growing vectors of `f64`, each sorted by
    /// `partial_cmp`.
    fn compute_reference(population: &Population, probes: &[ProbeRecord]) -> RttByRegion {
        let targets = Target::all();
        let t_index = |t: &Target| targets.iter().position(|x| x == t).expect("known target");
        let mut samples: Vec<Vec<[Vec<f64>; 2]>> =
            vec![vec![[Vec::new(), Vec::new()]; targets.len()]; 6];
        for p in probes {
            let Some(rtt) = p.rtt_ms() else { continue };
            let region = population.get(p.vp).region;
            samples[region.index()][t_index(&p.target)][p.family.index()].push(rtt);
        }
        let summaries = samples
            .into_iter()
            .map(|per_target| {
                per_target
                    .into_iter()
                    .map(|[v4, v6]| [DistSummary::from_samples(v4), DistSummary::from_samples(v6)])
                    .collect()
            })
            .collect();
        RttByRegion { targets, summaries }
    }

    /// Every field of every cell, floats by bit pattern.
    fn bits(r: &RttByRegion) -> Vec<Option<(usize, [u64; 7])>> {
        let cells = r.summaries.iter().flatten().flatten();
        cells
            .map(|cell| {
                cell.as_ref().map(|s| {
                    let floats = [s.mean, s.std_dev, s.min, s.p25, s.median, s.p75, s.max];
                    (s.n, floats.map(f64::to_bits))
                })
            })
            .collect()
    }

    #[test]
    fn scattered_integer_sort_matches_the_float_vectors() {
        use netsim::SimRng;
        use vantage::population::VpId;
        let world = World::build(&WorldBuildConfig::tiny());
        let population = &world.population;
        let mut rng = SimRng::new(0x277);
        let targets = Target::all();
        let probe = |vp: usize, target: Target, family, time, rtt_ms| {
            ProbeRecord::new(time, VpId(vp as u32), target, family).with_rtt_ms(rtt_ms)
        };
        // Rounds out of time order and repeated; RTTs over twelve binades
        // with exact repeats, zero and a subnormal among them; timeouts.
        let mut stream = Vec::new();
        for time in [900u32, 100, 500, 500, 300] {
            for vp in 0..population.len() {
                for target in &targets[..9] {
                    for family in Family::BOTH {
                        let rtt = match rng.next_range(12) {
                            0 => None,
                            1 => Some(0.0),
                            2 => Some(f64::MIN_POSITIVE / 4.0),
                            3 => Some(17.25),
                            k => Some(rng.next_f64() * (1u64 << k) as f64),
                        };
                        stream.push(probe(vp, *target, family, time, rtt));
                    }
                }
            }
        }
        // Cells with two samples, one, and none but timeouts.
        let europe = population.in_region(Region::Europe).next().expect("a VP");
        let vp = europe.id.0 as usize;
        stream.push(probe(vp, targets[10], Family::V4, 100, Some(30.5)));
        stream.push(probe(vp, targets[10], Family::V4, 200, Some(2.25)));
        stream.push(probe(vp, targets[11], Family::V6, 100, Some(7.0)));
        stream.push(probe(vp, targets[12], Family::V6, 100, None));

        let result = RttByRegion::compute(population, &stream);
        assert_eq!(bits(&result), bits(&compute_reference(population, &stream)));
        let n = |t: usize, family| result.get(Region::Europe, targets[t], family).map(|s| s.n);
        assert_eq!(n(10, Family::V4), Some(2));
        assert_eq!(n(11, Family::V6), Some(1));
        assert_eq!(n(12, Family::V6), None);
        assert_eq!(n(13, Family::V4), None);
        let two = result.get(Region::Europe, targets[10], Family::V4).unwrap();
        assert_eq!((two.min, two.median, two.max), (2.25, 16.375, 30.5));
        for _ in 0..2 {
            rng.shuffle(&mut stream);
            assert_eq!(
                bits(&RttByRegion::compute(population, &stream)),
                bits(&compute_reference(population, &stream))
            );
        }
        let empty = RttByRegion::compute(population, &[]);
        assert_eq!(bits(&empty), bits(&compute_reference(population, &[])));
        assert_eq!(bits(&empty), vec![None; 6 * 14 * 2]);
    }

    #[test]
    #[should_panic(expected = "RTT")]
    fn negative_rtt_is_refused() {
        let (world, mut probes) = run();
        probes[0] = probes[0].with_rtt_ms(Some(-0.0));
        RttByRegion::compute(&world.population, &probes);
    }

    #[test]
    fn measured_stream_matches_the_float_vectors() {
        let (world, probes) = run();
        assert_eq!(
            bits(&RttByRegion::compute(&world.population, &probes)),
            bits(&compute_reference(&world.population, &probes))
        );
    }

    #[test]
    fn summaries_exist_for_populated_regions() {
        let (world, probes) = run();
        let r = RttByRegion::compute(&world.population, &probes);
        // Europe has many VPs in the tiny world.
        for letter in [RootLetter::A, RootLetter::K, RootLetter::M] {
            assert!(
                r.get(Region::Europe, target(letter), Family::V4).is_some(),
                "{letter}"
            );
        }
    }

    #[test]
    fn rtt_magnitudes_sane() {
        let (world, probes) = run();
        let r = RttByRegion::compute(&world.population, &probes);
        for region in Region::ALL {
            for t in &r.targets {
                for family in Family::BOTH {
                    if let Some(s) = r.get(region, *t, family) {
                        assert!(s.min > 0.0);
                        assert!(
                            s.max < 2_000.0,
                            "{region} {} {family}: {}",
                            t.label(),
                            s.max
                        );
                        assert!(s.p25 <= s.median && s.median <= s.p75);
                    }
                }
            }
        }
    }

    #[test]
    fn large_deployments_have_lower_rtt() {
        // Koch et al. / the paper: bigger deployments offer better RTTs.
        let (world, probes) = run();
        let r = RttByRegion::compute(&world.population, &probes);
        let med = |letter: RootLetter| {
            r.get(Region::Europe, target(letter), Family::V4)
                .map(|s| s.median)
                .unwrap_or(f64::NAN)
        };
        // f.root (345 sites) vs b.root (6 sites) in Europe.
        assert!(
            med(RootLetter::F) < med(RootLetter::B),
            "f {} vs b {}",
            med(RootLetter::F),
            med(RootLetter::B)
        );
    }

    #[test]
    fn gap_is_antisymmetric_in_definition() {
        let (world, probes) = run();
        let r = RttByRegion::compute(&world.population, &probes);
        if let (Some(gap), Some(v4), Some(v6)) = (
            r.v4_v6_gap_ms(Region::Europe, target(RootLetter::K)),
            r.get(Region::Europe, target(RootLetter::K), Family::V4),
            r.get(Region::Europe, target(RootLetter::K), Family::V6),
        ) {
            assert!((gap - (v4.mean - v6.mean)).abs() < 1e-9);
        }
    }

    #[test]
    fn render_contains_regions_and_letters() {
        let (world, probes) = run();
        let r = RttByRegion::compute(&world.population, &probes);
        let txt = r.render_fig6(&[Region::Europe, Region::Africa]);
        assert!(txt.contains("Europe"));
        assert!(txt.contains("Africa"));
        assert!(txt.contains("b.root (new)"));
    }
}
