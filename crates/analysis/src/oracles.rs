//! The four probe products as each computed itself with a walk of its own
//! over the whole stream, kept as the oracle their shared walk must agree
//! with: every field, floats by bit pattern.

use crate::colocation::{ColocationResult, ReducedRedundancy};
use crate::coverage::CoverageReport;
use crate::rtt::RttByRegion;
use crate::stability::{StabilityResult, StabilitySeries};
use crate::stats::{DistSummary, Ecdf};
use netgeo::Region;
use netsim::anycast::SiteId;
use netsim::Family;
use rss::catalog::RootCatalog;
use rss::{BRootPhase, IdentityId, RootLetter};
use std::collections::HashMap;
use vantage::population::{Population, VpId};
use vantage::records::{ProbeRecord, Target};

pub fn coverage(catalog: &RootCatalog, probes: &[ProbeRecord]) -> CoverageReport {
    let mut reported = vec![false; catalog.identity_count()];
    for p in probes {
        if let Some(id) = p.identity() {
            reported[id.0 as usize] = true;
        }
    }
    let distinct_ids = (0..reported.len())
        .filter(|&i| reported[i])
        .map(|i| catalog.identity(IdentityId(i as u32)));
    CoverageReport::from_distinct_ids(catalog, distinct_ids)
}

pub fn colocation(probes: &[ProbeRecord]) -> ColocationResult {
    const LETTERS: usize = RootLetter::ALL.len();
    let mut latest: Vec<Option<(u32, Option<u64>)>> = Vec::new();
    for p in probes {
        if p.target.b_phase != BRootPhase::Old {
            continue;
        }
        if p.site().is_none() {
            continue;
        }
        let vp = p.vp.0 as usize;
        if vp * 2 * LETTERS >= latest.len() {
            latest.resize((vp + 1) * 2 * LETTERS, None);
        }
        let entry = &mut latest[(vp * 2 + p.family.index()) * LETTERS + p.target.letter.index()];
        if entry.is_none_or(|(time, _)| p.time >= time) {
            *entry = Some((p.time, p.second_to_last_hop()));
        }
    }
    let mut per_vp = Vec::new();
    for (row, hops) in latest.chunks_exact(LETTERS).enumerate() {
        let mut seen = [0u64; LETTERS];
        let mut n_seen = 0;
        let mut total = 0u32;
        for (_, hop) in hops.iter().flatten() {
            total += 1;
            if let Some(hop) = hop {
                seen[n_seen] = *hop;
                n_seen += 1;
            }
        }
        if total == 0 {
            continue;
        }
        let seen = &mut seen[..n_seen];
        seen.sort_unstable();
        let shared = seen.windows(2).filter(|w| w[0] == w[1]).count();
        per_vp.push(ReducedRedundancy {
            vp: VpId((row / 2) as u32),
            family: Family::BOTH[row % 2],
            letters_observed: total,
            reduced: shared as u32,
        });
    }
    ColocationResult { per_vp }
}

pub fn rtt_by_region(population: &Population, probes: &[ProbeRecord]) -> RttByRegion {
    let targets = Target::all();
    let mut target_at = [None; 13 * 2];
    for (i, t) in targets.iter().enumerate() {
        target_at[t.letter.index() * 2 + t.b_phase as usize] = Some(i);
    }
    let regions: Vec<usize> = (population.vps().iter())
        .map(|vp| vp.region.index())
        .collect();
    let cell_of = |p: &ProbeRecord| {
        let target = target_at[p.target.letter.index() * 2 + p.target.b_phase as usize]
            .expect("known target");
        (regions[p.vp.0 as usize] * targets.len() + target) * 2 + p.family.index()
    };
    let cells = Region::ALL.len() * targets.len() * 2;
    let mut next = vec![0usize; cells + 1];
    for p in probes.iter().filter(|p| p.rtt_ms().is_some()) {
        next[cell_of(p) + 1] += 1;
    }
    for c in 1..next.len() {
        next[c] += next[c - 1];
    }
    let mut bits = vec![0u64; next[cells]];
    for p in probes {
        let Some(rtt) = p.rtt_ms() else { continue };
        assert!(rtt.to_bits() < f64::INFINITY.to_bits(), "RTT {rtt} ms");
        let slot = &mut next[cell_of(p)];
        bits[*slot] = rtt.to_bits();
        *slot += 1;
    }
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

pub fn stability(probes: &[ProbeRecord]) -> StabilityResult {
    const SERIES: usize = 13 * 2 * 2;
    let series_of = |p: &ProbeRecord| {
        (p.target.letter.index() * 2 + p.target.b_phase as usize) * 2 + p.family.index()
    };
    let key_of = |p: &ProbeRecord| p.vp.0 as usize * SERIES + series_of(p);
    let vps = probes
        .iter()
        .map(|p| p.vp.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut next = vec![0usize; vps * SERIES + 1];
    let mut labels = [None; SERIES];
    for p in probes.iter().filter(|p| p.site().is_some()) {
        next[key_of(p) + 1] += 1;
        labels[series_of(p)] = Some((p.target, p.family));
    }
    for k in 1..next.len() {
        next[k] += next[k - 1];
    }
    let mut runs = vec![(0u32, SiteId(0)); next[vps * SERIES]];
    for p in probes {
        let Some(site) = p.site() else { continue };
        let slot = &mut next[key_of(p)];
        runs[*slot] = (p.time, site);
        *slot += 1;
    }
    let mut changes_per_vp: Vec<HashMap<VpId, u64>> = vec![HashMap::new(); SERIES];
    let mut start = 0;
    for (key, &end) in next[..vps * SERIES].iter().enumerate() {
        let run = &mut runs[std::mem::replace(&mut start, end)..end];
        if run.is_empty() {
            continue;
        }
        run.sort_by_key(|&(time, _)| time);
        let changes = run
            .windows(2)
            .filter(|w| w[0].0 < w[1].0 && w[0].1 != w[1].1)
            .count();
        changes_per_vp[key % SERIES].insert(VpId((key / SERIES) as u32), changes as u64);
    }
    let mut series: Vec<StabilitySeries> = (labels.into_iter().zip(changes_per_vp))
        .filter_map(|(label, changes_per_vp)| {
            let (target, family) = label?;
            Some(StabilitySeries {
                target,
                family,
                ecdf: Ecdf::from_samples(changes_per_vp.values().copied().collect()),
                changes_per_vp,
            })
        })
        .collect();
    series.sort_by_key(|s| (s.target, s.family));
    StabilityResult { series }
}

mod tests {
    use super::*;
    use crate::walk::ProbeWalk;
    use std::sync::OnceLock;
    use vantage::{
        MeasurementConfig, MeasurementEngine, Schedule, VecSink, World, WorldBuildConfig,
    };

    /// The Tiny world and its main schedule's probe stream.
    fn tiny() -> &'static (World, Vec<ProbeRecord>) {
        static TINY: OnceLock<(World, Vec<ProbeRecord>)> = OnceLock::new();
        TINY.get_or_init(|| {
            let world = World::build(&WorldBuildConfig::tiny());
            let config = MeasurementConfig {
                schedule: Schedule::subsampled(400),
                ..Default::default()
            };
            let mut sink = VecSink::default();
            MeasurementEngine::new(&world, config).run(&mut sink);
            (world, sink.probes)
        })
    }

    /// Every field of every RTT cell, floats by bit pattern.
    pub(crate) fn rtt_bits(r: &RttByRegion) -> Vec<Option<(usize, [u64; 7])>> {
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

    fn assert_products_match(world: &World, probes: &[ProbeRecord], what: &str) {
        let (catalog, population) = (&world.catalog, &world.population);
        assert_eq!(
            CoverageReport::compute(catalog, probes),
            coverage(catalog, probes),
            "{what}: coverage"
        );
        assert_eq!(
            ColocationResult::compute(probes).per_vp,
            colocation(probes).per_vp,
            "{what}: co-location"
        );
        assert_eq!(
            rtt_bits(&RttByRegion::compute(population, probes)),
            rtt_bits(&rtt_by_region(population, probes)),
            "{what}: RTT"
        );
        assert_eq!(
            StabilityResult::compute(probes),
            stability(probes),
            "{what}: stability"
        );
    }

    #[test]
    fn probe_products_match_their_own_walks() {
        let (world, probes) = tiny();
        assert!(probes.len() > 40_000);
        assert_products_match(world, probes, "Tiny stream");
        let mut shuffled = probes.clone();
        netsim::SimRng::new(0x5EED).shuffle(&mut shuffled);
        assert_products_match(world, &shuffled, "shuffled");
        assert_products_match(world, &[], "empty");
        assert_products_match(world, &probes[..1], "one record");
    }

    /// The four products finished from walks over `chunks`, merged in
    /// order, against the oracles over the chunks' concatenation.
    fn assert_walk_matches(world: &World, chunks: &[&[ProbeRecord]], what: &str) {
        let (catalog, population) = (&world.catalog, &world.population);
        let mut walk = ProbeWalk::new(catalog, population);
        for chunk in chunks {
            let mut part = ProbeWalk::new(catalog, population);
            part.fold(chunk);
            walk.merge(&part);
        }
        let probes = chunks.concat();
        assert_eq!(
            CoverageReport::finish(catalog, &walk.identities),
            coverage(catalog, &probes),
            "{what}: coverage"
        );
        assert_eq!(
            ColocationResult::finish(&walk.latest_hops).per_vp,
            colocation(&probes).per_vp,
            "{what}: co-location"
        );
        assert_eq!(
            rtt_bits(&RttByRegion::finish(&walk.rtt_cells, &probes)),
            rtt_bits(&rtt_by_region(population, &probes)),
            "{what}: RTT"
        );
        assert_eq!(
            StabilityResult::finish(&walk.series, &probes),
            stability(&probes),
            "{what}: stability"
        );
    }

    /// `stream` cut into `n` chunks of uneven sizes (some empty when the
    /// stream is short).
    fn split(stream: &[ProbeRecord], n: usize) -> Vec<&[ProbeRecord]> {
        let mut cuts: Vec<usize> = (1..n).map(|i| stream.len() * i * i / (n * n)).collect();
        cuts.push(stream.len());
        let mut start = 0;
        cuts.into_iter()
            .map(|end| &stream[std::mem::replace(&mut start, end)..end])
            .collect()
    }

    #[test]
    fn one_walk_in_chunks_matches_the_oracles() {
        let (world, probes) = tiny();
        let mut shuffled = probes.clone();
        netsim::SimRng::new(0xC4A2).shuffle(&mut shuffled);
        for (name, stream) in [("Tiny stream", &probes[..]), ("shuffled", &shuffled[..])] {
            for n in [1, 2, 7] {
                let chunks = split(stream, n);
                assert_eq!(chunks.len(), n);
                assert_walk_matches(world, &chunks, &format!("{name} in {n} chunks"));
            }
        }
        // Equal times across a cut, at other hops (the later chunk's probe
        // wins), and empty chunks.
        let (head, tail) = probes.split_at(probes.len() / 2);
        let moved = |p: &ProbeRecord| {
            let hop = p.second_to_last_hop().map_or(0x1E0, |hop| hop ^ 0x100);
            p.with_second_to_last_hop(Some(hop)).expect("a 32-bit hop")
        };
        let repeat: Vec<ProbeRecord> = head.iter().rev().take(500).map(moved).collect();
        assert_walk_matches(world, &[head, &repeat, &[]], "repeated across a cut");
        assert_walk_matches(world, &[head, &[], tail], "an empty chunk between");
        assert_walk_matches(world, &[&[], &[]], "empty chunks");
        assert_walk_matches(world, &[], "no chunk");
        assert_walk_matches(world, &split(&probes[..3], 7), "three records in 7 chunks");
    }
}
