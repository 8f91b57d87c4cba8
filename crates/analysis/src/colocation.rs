//! Server co-location (§5, Figure 4): reduced redundancy from shared
//! second-to-last traceroute hops.
//!
//! For each VP and family, take the second-to-last hop observed toward each
//! of the 13 letters; the *reduced redundancy* is the total number of
//! observed hops minus the number of unique hops. Missing hops count as
//! unique, so the measure is a lower bound — exactly as the paper computes
//! it.
//!
//! The latest hop per `(vp, family, letter)` lives in one `vps × 2 × 13`
//! array indexed by the three small integers, and a VP's thirteen hops
//! are compared in a fixed array: nothing is hashed per probe.

use netgeo::Region;
use netsim::Family;
use rss::{BRootPhase, RootLetter};
use std::collections::HashMap;
use vantage::population::{Population, VpId};
use vantage::records::ProbeRecord;

/// Reduced redundancy of one VP in one family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReducedRedundancy {
    pub vp: VpId,
    pub family: Family,
    /// Letters for which a hop (or a missing marker) was observed.
    pub letters_observed: u32,
    /// total observed hops − unique hops (0..=12).
    pub reduced: u32,
}

/// Co-location analysis results.
#[derive(Debug, Clone)]
pub struct ColocationResult {
    pub per_vp: Vec<ReducedRedundancy>,
}

/// Co-location's share of a probe walk: the latest answered probe's time
/// and hop per `(vp, family, letter)`, in one array indexed
/// `(vp * 2 + family) * 13 + letter`, grown to the highest VP seen. A
/// later probe at an equal time replaces an earlier one.
///
/// b.root's two addresses share physical sites; only the old-address
/// target is kept, so each letter contributes exactly one hop.
#[derive(Debug, Clone, Default)]
pub struct LatestHops {
    latest: Vec<Option<(u32, Option<u64>)>>,
}

const LETTERS: usize = RootLetter::ALL.len();

impl LatestHops {
    /// Keep `p` if it is its slot's latest answered probe so far.
    #[inline]
    pub fn add(&mut self, p: &ProbeRecord) {
        if p.target.b_phase != BRootPhase::Old || p.site().is_none() {
            return;
        }
        let vp = p.vp.0 as usize;
        if vp * 2 * LETTERS >= self.latest.len() {
            self.latest.resize((vp + 1) * 2 * LETTERS, None);
        }
        let slot = (vp * 2 + p.family.index()) * LETTERS + p.target.letter.index();
        let entry = &mut self.latest[slot];
        if entry.is_none_or(|(time, _)| p.time >= time) {
            *entry = Some((p.time, p.second_to_last_hop()));
        }
    }

    /// Add every probe of `chunk`, in order.
    pub fn fold(&mut self, chunk: &[ProbeRecord]) {
        chunk.iter().for_each(|p| self.add(p));
    }

    /// Add a later chunk's latest hops: its entry wins a slot at an equal
    /// time, as its probe would have in one walk.
    pub fn merge(&mut self, later: &LatestHops) {
        if later.latest.len() > self.latest.len() {
            self.latest.resize(later.latest.len(), None);
        }
        for (entry, later) in self.latest.iter_mut().zip(&later.latest) {
            if let Some((time, _)) = later {
                if entry.is_none_or(|(held, _)| *time >= held) {
                    *entry = *later;
                }
            }
        }
    }
}

impl ColocationResult {
    /// Compute from the probe stream, using each VP's most recent observed
    /// second-to-last hop per letter (the paper's per-VP view).
    pub fn compute(probes: &[ProbeRecord]) -> ColocationResult {
        let mut latest = LatestHops::default();
        latest.fold(probes);
        Self::finish(&latest)
    }

    /// One row per `(vp, family)` with an observed letter, in that order:
    /// the VP's thirteen hops compared in a fixed array.
    pub fn finish(hops: &LatestHops) -> ColocationResult {
        let mut per_vp = Vec::new();
        for (row, hops) in hops.latest.chunks_exact(LETTERS).enumerate() {
            let mut seen = [0u64; LETTERS];
            let mut n_seen = 0;
            let mut total = 0u32;
            for (_, hop) in hops.iter().flatten() {
                total += 1;
                // A missing hop counts as unique.
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

    /// Fraction of VPs observing co-location of at least `k` letters
    /// (reduced redundancy ≥ k−1). The paper's headline uses k = 2.
    pub fn fraction_with_colocation(&self, k: u32) -> f64 {
        if self.per_vp.is_empty() {
            return 0.0;
        }
        // Per VP (any family): max reduced across families.
        let mut per_vp_max: HashMap<VpId, u32> = HashMap::new();
        for r in &self.per_vp {
            let e = per_vp_max.entry(r.vp).or_insert(0);
            *e = (*e).max(r.reduced);
        }
        let hits = per_vp_max
            .values()
            .filter(|&&red| red >= k.saturating_sub(1))
            .count();
        hits as f64 / per_vp_max.len() as f64
    }

    /// Maximum reduced redundancy seen anywhere.
    pub fn max_reduced(&self) -> u32 {
        self.per_vp.iter().map(|r| r.reduced).max().unwrap_or(0)
    }

    /// Figure 4: histogram of reduced redundancy per region per family.
    /// Returns `[region][family][reduced_redundancy 0..=12] = #VPs`.
    pub fn histogram_by_region(&self, population: &Population) -> [[Vec<u32>; 2]; 6] {
        let mut hist: [[Vec<u32>; 2]; 6] =
            std::array::from_fn(|_| [vec![0u32; 13], vec![0u32; 13]]);
        for r in &self.per_vp {
            let region = population.get(r.vp).region;
            let bucket = (r.reduced as usize).min(12);
            hist[region.index()][r.family.index()][bucket] += 1;
        }
        hist
    }

    /// Mean reduced redundancy per region/family (the `avg(v4)`/`avg(v6)`
    /// annotations in Figure 4).
    pub fn mean_by_region(&self, population: &Population) -> [[f64; 2]; 6] {
        let mut sum = [[0f64; 2]; 6];
        let mut n = [[0u32; 2]; 6];
        for r in &self.per_vp {
            let region = population.get(r.vp).region;
            sum[region.index()][r.family.index()] += r.reduced as f64;
            n[region.index()][r.family.index()] += 1;
        }
        let mut out = [[0f64; 2]; 6];
        for region in 0..6 {
            for fam in 0..2 {
                out[region][fam] = if n[region][fam] == 0 {
                    0.0
                } else {
                    sum[region][fam] / n[region][fam] as f64
                };
            }
        }
        out
    }

    /// Render the Figure 4 equivalent.
    pub fn render_fig4(&self, population: &Population) -> String {
        let hist = self.histogram_by_region(population);
        let means = self.mean_by_region(population);
        let mut out = String::from("Figure 4: reduced redundancy due to shared last hop\n");
        for region in Region::ALL {
            out.push_str(&format!(
                "-- {} -- avg(v4)={:.2} avg(v6)={:.2}\n",
                region,
                means[region.index()][0],
                means[region.index()][1],
            ));
            for (fam_idx, fam) in Family::BOTH.iter().enumerate() {
                let h = &hist[region.index()][fam_idx];
                let counts: Vec<String> = h.iter().map(|c| format!("{c:4}")).collect();
                out.push_str(&format!("   {}: {}\n", fam.label(), counts.join(" ")));
            }
        }
        out.push_str(&format!(
            "VPs observing >=2 co-located letters: {:.1}%  (max reduced: {})\n",
            self.fraction_with_colocation(2) * 100.0,
            self.max_reduced()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage::records::Target;

    fn probe(
        vp: u32,
        letter: RootLetter,
        family: Family,
        hop: Option<u64>,
        time: u32,
    ) -> ProbeRecord {
        let target = Target {
            letter,
            b_phase: BRootPhase::Old,
        };
        ProbeRecord::new(time, VpId(vp), target, family)
            .with_site(Some(netsim::anycast::SiteId(0)))
            .with_rtt_ms(Some(5.0))
            .with_second_to_last_hop(hop)
            .expect("a 32-bit hop")
    }

    /// `compute` as it was: a hash map of the latest hop per
    /// `(vp, family, letter)`, regrouped per `(vp, family)` through a
    /// second one, unique hops through a hash set.
    fn compute_reference(probes: &[ProbeRecord]) -> ColocationResult {
        use std::collections::HashSet;
        let mut latest: HashMap<(VpId, Family, RootLetter), (u32, Option<u64>)> = HashMap::new();
        for p in probes {
            if p.target.b_phase != BRootPhase::Old {
                continue;
            }
            if p.site().is_none() {
                continue;
            }
            let key = (p.vp, p.family, p.target.letter);
            let entry = latest.entry(key).or_insert((0, None));
            if p.time >= entry.0 {
                *entry = (p.time, p.second_to_last_hop());
            }
        }
        let mut grouped: HashMap<(VpId, Family), Vec<Option<u64>>> = HashMap::new();
        for ((vp, family, _letter), (_, hop)) in latest {
            grouped.entry((vp, family)).or_default().push(hop);
        }
        let mut per_vp: Vec<ReducedRedundancy> = grouped
            .into_iter()
            .map(|((vp, family), hops)| {
                let total = hops.len() as u32;
                let mut unique: HashSet<u64> = HashSet::new();
                let mut missing = 0u32;
                for h in &hops {
                    match h {
                        Some(r) => {
                            unique.insert(*r);
                        }
                        None => missing += 1,
                    }
                }
                let unique_count = unique.len() as u32 + missing;
                ReducedRedundancy {
                    vp,
                    family,
                    letters_observed: total,
                    reduced: total - unique_count,
                }
            })
            .collect();
        per_vp.sort_by_key(|r| (r.vp, r.family));
        ColocationResult { per_vp }
    }

    #[test]
    fn dense_latest_hops_match_the_hash_maps() {
        use netsim::SimRng;
        let mut rng = SimRng::new(0xC010);
        // Rounds out of time order and repeated (equal times: the later
        // probe in the stream wins), a handful of hops so letters share
        // them, missing hops, timeouts, the new b.root address, a VP id
        // far above the others, a VP nothing ever answers, time 0.
        let mut stream = Vec::new();
        for time in [500u32, 100, 300, 300, 0, 200, 500] {
            for vp in [0u32, 1, 2, 6, 5_000] {
                for letter in RootLetter::ALL {
                    for family in Family::BOTH {
                        if rng.chance(0.25) || (vp == 2 && family == Family::V6) {
                            continue;
                        }
                        let hop = (!rng.chance(0.2)).then(|| rng.next_range(4) as u64);
                        let mut p = probe(vp, letter, family, hop, time);
                        if vp == 6 || rng.chance(0.1) {
                            p = p.with_site(None);
                        }
                        if letter == RootLetter::B && rng.chance(0.5) {
                            p.target.b_phase = BRootPhase::New;
                        }
                        stream.push(p);
                    }
                }
            }
        }
        let result = ColocationResult::compute(&stream);
        assert_eq!(result.per_vp, compute_reference(&stream).per_vp);
        assert_eq!(result.per_vp.len(), 4 * 2 - 1);
        assert!(result.max_reduced() >= 5);
        assert!(result.per_vp.iter().all(|r| r.vp != VpId(6)));
        for _ in 0..3 {
            rng.shuffle(&mut stream);
            assert_eq!(
                ColocationResult::compute(&stream).per_vp,
                compute_reference(&stream).per_vp
            );
        }
        assert!(ColocationResult::compute(&[]).per_vp.is_empty());
        assert!(ColocationResult::compute(&stream[..1]).per_vp.len() <= 1);
    }

    #[test]
    fn shared_hops_reduce_redundancy() {
        // 3 letters, two share hop 7.
        let probes = vec![
            probe(0, RootLetter::A, Family::V4, Some(7), 1),
            probe(0, RootLetter::B, Family::V4, Some(7), 1),
            probe(0, RootLetter::C, Family::V4, Some(9), 1),
        ];
        let r = ColocationResult::compute(&probes);
        assert_eq!(r.per_vp.len(), 1);
        assert_eq!(r.per_vp[0].reduced, 1);
        assert_eq!(r.per_vp[0].letters_observed, 3);
    }

    #[test]
    fn missing_hops_count_as_unique() {
        let probes = vec![
            probe(0, RootLetter::A, Family::V4, None, 1),
            probe(0, RootLetter::B, Family::V4, None, 1),
            probe(0, RootLetter::C, Family::V4, Some(7), 1),
        ];
        let r = ColocationResult::compute(&probes);
        assert_eq!(r.per_vp[0].reduced, 0);
    }

    #[test]
    fn latest_observation_wins() {
        let probes = vec![
            probe(0, RootLetter::A, Family::V4, Some(7), 1),
            probe(0, RootLetter::B, Family::V4, Some(7), 1),
            // Later, A moves to a different hop.
            probe(0, RootLetter::A, Family::V4, Some(8), 2),
        ];
        let r = ColocationResult::compute(&probes);
        assert_eq!(r.per_vp[0].reduced, 0);
    }

    #[test]
    fn all_thirteen_at_one_facility_gives_twelve() {
        let probes: Vec<ProbeRecord> = RootLetter::ALL
            .iter()
            .map(|l| probe(0, *l, Family::V6, Some(42), 1))
            .collect();
        let r = ColocationResult::compute(&probes);
        assert_eq!(r.per_vp[0].reduced, 12);
        assert_eq!(r.max_reduced(), 12);
    }

    #[test]
    fn fraction_with_colocation_counts_vps() {
        let mut probes = vec![
            // VP0: co-location.
            probe(0, RootLetter::A, Family::V4, Some(1), 1),
            probe(0, RootLetter::B, Family::V4, Some(1), 1),
            // VP1: none.
            probe(1, RootLetter::A, Family::V4, Some(2), 1),
            probe(1, RootLetter::B, Family::V4, Some(3), 1),
        ];
        probes.push(probe(2, RootLetter::A, Family::V4, Some(4), 1));
        let r = ColocationResult::compute(&probes);
        let frac = r.fraction_with_colocation(2);
        assert!((frac - 1.0 / 3.0).abs() < 1e-9, "{frac}");
    }

    #[test]
    fn new_b_address_ignored() {
        let mut p = probe(0, RootLetter::B, Family::V4, Some(1), 1);
        p.target.b_phase = BRootPhase::New;
        let r = ColocationResult::compute(&[p]);
        assert!(r.per_vp.is_empty());
    }

    #[test]
    fn families_tracked_separately() {
        let probes = vec![
            probe(0, RootLetter::A, Family::V4, Some(1), 1),
            probe(0, RootLetter::B, Family::V4, Some(1), 1),
            probe(0, RootLetter::A, Family::V6, Some(2), 1),
            probe(0, RootLetter::B, Family::V6, Some(3), 1),
        ];
        let r = ColocationResult::compute(&probes);
        let v4 = r.per_vp.iter().find(|x| x.family == Family::V4).unwrap();
        let v6 = r.per_vp.iter().find(|x| x.family == Family::V6).unwrap();
        assert_eq!(v4.reduced, 1);
        assert_eq!(v6.reduced, 0);
    }
}
