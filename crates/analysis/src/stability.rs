//! Site stability (§4.2, Figure 3): per VP, count *changes* — two
//! subsequent measurements reaching different sites — over the whole
//! measurement, per target and address family; render as a complementary
//! eCDF.

use crate::stats::Ecdf;
use netsim::anycast::SiteId;
use netsim::Family;
use std::collections::HashMap;
use vantage::population::VpId;
use vantage::records::{ProbeRecord, Target};

/// Change-event counts and their eCDF for one (target, family).
#[derive(Debug, Clone, PartialEq)]
pub struct StabilitySeries {
    pub target: Target,
    pub family: Family,
    /// Changes per VP.
    pub changes_per_vp: HashMap<VpId, u64>,
    /// eCDF over the per-VP change counts.
    pub ecdf: Ecdf,
}

impl StabilitySeries {
    /// Median number of changes a VP experienced.
    pub fn median_changes(&self) -> Option<u64> {
        self.ecdf.median()
    }

    /// Maximum changes any VP experienced (the long tail).
    pub fn max_changes(&self) -> u64 {
        self.ecdf.values.last().copied().unwrap_or(0)
    }
}

/// Stability result across all targets and families.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityResult {
    pub series: Vec<StabilitySeries>,
}

/// `(letter, address generation, family)` series a VP can be in.
const SERIES: usize = 13 * 2 * 2;

/// Stability's share of a probe walk: how many answered probes each
/// `(vp, series)` key has — the key `vp · 52 + series` — what sizes each
/// key's run before the observations scatter, and which series occur.
#[derive(Debug, Clone)]
pub struct SeriesCounts {
    /// Grown to the highest VP answered so far.
    counts: Vec<usize>,
    labels: [Option<(Target, Family)>; SERIES],
}

impl Default for SeriesCounts {
    fn default() -> Self {
        SeriesCounts {
            counts: Vec::new(),
            labels: [None; SERIES],
        }
    }
}

#[inline]
fn series_of(p: &ProbeRecord) -> usize {
    (p.target.letter.index() * 2 + p.target.b_phase as usize) * 2 + p.family.index()
}

#[inline]
fn key_of(p: &ProbeRecord) -> usize {
    p.vp.0 as usize * SERIES + series_of(p)
}

impl SeriesCounts {
    /// Count `p` if it was answered.
    #[inline]
    pub fn add(&mut self, p: &ProbeRecord) {
        if p.site().is_none() {
            return;
        }
        let key = key_of(p);
        if key >= self.counts.len() {
            self.counts.resize((p.vp.0 as usize + 1) * SERIES, 0);
        }
        self.counts[key] += 1;
        self.labels[series_of(p)] = Some((p.target, p.family));
    }

    /// Count every answered probe of `chunk`.
    pub fn fold(&mut self, chunk: &[ProbeRecord]) {
        chunk.iter().for_each(|p| self.add(p));
    }

    /// Add a later chunk's counts.
    pub fn merge(&mut self, later: &SeriesCounts) {
        if later.counts.len() > self.counts.len() {
            self.counts.resize(later.counts.len(), 0);
        }
        for (count, later) in self.counts.iter_mut().zip(&later.counts) {
            *count += later;
        }
        for (label, later) in self.labels.iter_mut().zip(later.labels) {
            *label = label.or(later);
        }
    }
}

impl StabilityResult {
    /// Count change events from the probe stream.
    ///
    /// Probes may arrive in any order: each (vp, target, family) key's
    /// observations are bucketed together and put in time order here.
    /// Observations at equal times keep their stream order, and the later
    /// one of such a pair replaces the earlier without counting as a
    /// change.
    pub fn compute(probes: &[ProbeRecord]) -> StabilityResult {
        let mut counts = SeriesCounts::default();
        counts.fold(probes);
        Self::finish(&counts, probes)
    }

    /// Bucket the answered probes' `(time, site)` of `probes` — the stream
    /// `counts` counted — by key, in stream order, and count each key's
    /// changes. The stream is nearly in time order within a key already
    /// (rounds run in order; a re-measured window is appended late), so
    /// sorting each short run is cheap where sorting the whole stream by a
    /// four-field key was the figure's whole cost.
    pub fn finish(counts: &SeriesCounts, probes: &[ProbeRecord]) -> StabilityResult {
        let keys = counts.counts.len();
        // Each key's first slot; filling advances it to the key's end.
        let mut next = Vec::with_capacity(keys + 1);
        next.push(0);
        for &count in &counts.counts {
            next.push(next[next.len() - 1] + count);
        }
        let mut runs = vec![(0u32, SiteId(0)); next[keys]];
        for p in probes {
            let Some(site) = p.site() else { continue };
            let slot = &mut next[key_of(p)];
            runs[*slot] = (p.time, site);
            *slot += 1;
        }

        // `next[k]` is now the end of key `k`'s run, the start of `k + 1`'s.
        let mut changes_per_vp: Vec<HashMap<VpId, u64>> = vec![HashMap::new(); SERIES];
        let mut start = 0;
        for (key, &end) in next[..keys].iter().enumerate() {
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

        let mut series: Vec<StabilitySeries> = (counts.labels.into_iter().zip(changes_per_vp))
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

    /// Fetch the series for one (target, family).
    pub fn series_for(&self, target: Target, family: Family) -> Option<&StabilitySeries> {
        self.series
            .iter()
            .find(|s| s.target == target && s.family == family)
    }

    /// Render the Figure 3 equivalent for a set of targets.
    pub fn render_fig3(&self, targets: &[Target]) -> String {
        let mut out = String::from("Figure 3: complementary eCDF of site-change events per VP\n");
        for t in targets {
            for family in Family::BOTH {
                if let Some(s) = self.series_for(*t, family) {
                    out.push_str(&format!(
                        "  {:14} {:4}: median {:4} max {:6} | CCDF@10 {:.2} CCDF@100 {:.2}\n",
                        t.label(),
                        family.label(),
                        s.median_changes().unwrap_or(0),
                        s.max_changes(),
                        s.ecdf.ccdf(10),
                        s.ecdf.ccdf(100),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rss::{BRootPhase, RootLetter};
    use vantage::records::Target;

    fn probe(
        vp: u32,
        time: u32,
        site: Option<u32>,
        letter: RootLetter,
        family: Family,
    ) -> ProbeRecord {
        let target = Target {
            letter,
            b_phase: BRootPhase::Old,
        };
        ProbeRecord::new(time, VpId(vp), target, family)
            .with_site(site.map(SiteId))
            .with_rtt_ms(Some(10.0))
    }

    /// `compute` as it was: a stable sort of the whole stream by
    /// `(vp, target, family, time)`, then one walk with a hash map of
    /// per-key state.
    fn compute_reference(probes: &[ProbeRecord]) -> StabilityResult {
        #[derive(Default, Clone)]
        struct State {
            prev: Option<SiteId>,
            prev_time: u32,
            changes: u64,
            initialized: bool,
        }
        let mut per_key: HashMap<(VpId, Target, Family), State> = HashMap::new();
        let mut ordered: Vec<&ProbeRecord> = probes.iter().collect();
        ordered.sort_by_key(|p| (p.vp, p.target, p.family, p.time));
        for p in ordered {
            let Some(site) = p.site() else { continue };
            let st = per_key.entry((p.vp, p.target, p.family)).or_default();
            if st.initialized && st.prev_time < p.time && st.prev != Some(site) {
                st.changes += 1;
            }
            st.prev = Some(site);
            st.prev_time = p.time;
            st.initialized = true;
        }
        let mut grouped: HashMap<(Target, Family), HashMap<VpId, u64>> = HashMap::new();
        for ((vp, target, family), st) in per_key {
            grouped
                .entry((target, family))
                .or_default()
                .insert(vp, st.changes);
        }
        let mut series: Vec<StabilitySeries> = grouped
            .into_iter()
            .map(|((target, family), changes_per_vp)| {
                let samples: Vec<u64> = changes_per_vp.values().copied().collect();
                StabilitySeries {
                    target,
                    family,
                    ecdf: Ecdf::from_samples(samples),
                    changes_per_vp,
                }
            })
            .collect();
        series.sort_by_key(|s| (s.target, s.family));
        StabilityResult { series }
    }

    #[test]
    fn bucketed_runs_match_the_whole_stream_sort() {
        use netsim::SimRng;
        let mut rng = SimRng::new(0x57AB);
        let targets = Target::all();
        // Rounds in order, VP by VP: flappy sites, timeouts, and now and
        // then a second answer at the same time from another site.
        let mut stream = Vec::new();
        let round = |time: u32, stream: &mut Vec<ProbeRecord>, rng: &mut SimRng| {
            for vp in [0, 1, 2, 5, 9] {
                for target in &targets[..6] {
                    for family in Family::BOTH {
                        if family == Family::V6 && vp == 2 {
                            continue;
                        }
                        let site = (!rng.chance(0.1)).then(|| rng.next_range(3) as u32);
                        let mut p = probe(vp, time, site, target.letter, family);
                        p.target = *target;
                        stream.push(p);
                        if rng.chance(0.05) {
                            p = p.with_site(Some(SiteId(rng.next_range(3) as u32)));
                            stream.push(p);
                        }
                    }
                }
            }
        };
        for time in (1_000..40_000).step_by(1_800) {
            round(time, &mut stream, &mut rng);
        }
        // A window inside the span measured afterwards, at rounds of its
        // own, appended as `Pipeline::run` appends the stale-site windows.
        for time in (10_100..13_000).step_by(900) {
            round(time, &mut stream, &mut rng);
        }
        // One key nothing ever answered: it must not become a series row.
        stream.push(probe(11, 5_000, None, RootLetter::M, Family::V6));

        let result = StabilityResult::compute(&stream);
        assert_eq!(result, compute_reference(&stream));
        assert_eq!(result.series.len(), 12);
        assert!(result.series.iter().any(|s| s.max_changes() > 5));
        assert!(result
            .series
            .iter()
            .all(|s| !s.changes_per_vp.contains_key(&VpId(11))));

        for _ in 0..3 {
            rng.shuffle(&mut stream);
            assert_eq!(
                StabilityResult::compute(&stream),
                compute_reference(&stream)
            );
        }
        assert_eq!(StabilityResult::compute(&[]), compute_reference(&[]));
    }

    #[test]
    fn counts_changes_between_consecutive_rounds() {
        let probes = vec![
            probe(0, 100, Some(1), RootLetter::G, Family::V4),
            probe(0, 200, Some(1), RootLetter::G, Family::V4),
            probe(0, 300, Some(2), RootLetter::G, Family::V4),
            probe(0, 400, Some(1), RootLetter::G, Family::V4),
            probe(0, 500, Some(1), RootLetter::G, Family::V4),
        ];
        let r = StabilityResult::compute(&probes);
        let s = r
            .series_for(
                Target {
                    letter: RootLetter::G,
                    b_phase: BRootPhase::Old,
                },
                Family::V4,
            )
            .unwrap();
        assert_eq!(s.changes_per_vp[&VpId(0)], 2);
    }

    #[test]
    fn unreachable_probes_skipped() {
        let probes = vec![
            probe(0, 100, Some(1), RootLetter::B, Family::V4),
            probe(0, 200, None, RootLetter::B, Family::V4),
            probe(0, 300, Some(1), RootLetter::B, Family::V4),
        ];
        let r = StabilityResult::compute(&probes);
        let s = r
            .series_for(
                Target {
                    letter: RootLetter::B,
                    b_phase: BRootPhase::Old,
                },
                Family::V4,
            )
            .unwrap();
        // The timeout round does not create a change.
        assert_eq!(s.changes_per_vp[&VpId(0)], 0);
    }

    #[test]
    fn families_counted_separately() {
        let probes = vec![
            probe(0, 100, Some(1), RootLetter::C, Family::V4),
            probe(0, 200, Some(1), RootLetter::C, Family::V4),
            probe(0, 100, Some(1), RootLetter::C, Family::V6),
            probe(0, 200, Some(2), RootLetter::C, Family::V6),
        ];
        let r = StabilityResult::compute(&probes);
        let t = Target {
            letter: RootLetter::C,
            b_phase: BRootPhase::Old,
        };
        assert_eq!(
            r.series_for(t, Family::V4).unwrap().changes_per_vp[&VpId(0)],
            0
        );
        assert_eq!(
            r.series_for(t, Family::V6).unwrap().changes_per_vp[&VpId(0)],
            1
        );
    }

    #[test]
    fn out_of_order_input_handled() {
        let probes = vec![
            probe(0, 300, Some(2), RootLetter::G, Family::V4),
            probe(0, 100, Some(1), RootLetter::G, Family::V4),
            probe(0, 200, Some(1), RootLetter::G, Family::V4),
        ];
        let r = StabilityResult::compute(&probes);
        let s = &r.series[0];
        assert_eq!(s.changes_per_vp[&VpId(0)], 1);
    }

    #[test]
    fn median_and_ccdf() {
        let mut probes = Vec::new();
        // VP 0: stable (0 changes); VP 1: flappy (3 changes).
        for (i, site) in [1u32, 1, 1, 1].iter().enumerate() {
            probes.push(probe(
                0,
                100 * (i as u32 + 1),
                Some(*site),
                RootLetter::A,
                Family::V4,
            ));
        }
        for (i, site) in [1u32, 2, 1, 2].iter().enumerate() {
            probes.push(probe(
                1,
                100 * (i as u32 + 1),
                Some(*site),
                RootLetter::A,
                Family::V4,
            ));
        }
        let r = StabilityResult::compute(&probes);
        let s = &r.series[0];
        assert_eq!(s.ecdf.n, 2);
        assert_eq!(s.max_changes(), 3);
        assert!((s.ecdf.ccdf(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn render_contains_labels() {
        let probes = vec![
            probe(0, 100, Some(1), RootLetter::B, Family::V4),
            probe(0, 200, Some(1), RootLetter::B, Family::V4),
        ];
        let r = StabilityResult::compute(&probes);
        let txt = r.render_fig3(&[Target {
            letter: RootLetter::B,
            b_phase: BRootPhase::Old,
        }]);
        assert!(txt.contains("b.root"));
        assert!(txt.contains("IPv4"));
    }
}
