//! Traffic-shift analyses over the passive flow streams (Figures 7, 9, 12,
//! 13): normalized per-bucket traffic shares, b.root old/new splits per
//! family, and in-family shift ratios.
//!
//! While a series is built its buckets are dense: a capture spans a few
//! hundred consecutive days and a day has 25 buckets (the daily aggregate
//! and 24 hours), so a flow's bucket is `(day − first day) × 25 + hour
//! slot` into one vector — grown at either end when a day outside the
//! range so far arrives — and a bucket's handful of keys sit in a small
//! vector searched linearly. No float changes: each `(bucket, key)` volume
//! is still summed in stream order, and the public `BTreeMap`s are built
//! before normalisation, so each bucket is still totalled in key order.

use netsim::Family;
use rss::{BRootPhase, RootLetter};
use std::collections::BTreeMap;
use traces::flows::{DayBucket, FlowObservation, FlowTarget};

/// A normalized traffic series: per time bucket, the share of each key.
#[derive(Debug, Clone)]
pub struct TrafficSeries<K: Ord + Clone> {
    /// bucket -> (key -> share). Shares per bucket sum to 1 (when any
    /// traffic exists).
    pub buckets: BTreeMap<(DayBucket, Option<u8>), BTreeMap<K, f64>>,
}

impl<K: Ord + Clone> TrafficSeries<K> {
    /// Build by classifying each flow into a key. `flows` is a slice, or
    /// several chained: a bucket's volumes are summed in iteration order.
    /// The days of the classified flows should lie within a capture's span
    /// of each other (memory is 25 small vectors per day of the range).
    pub fn build<'a, F>(
        flows: impl IntoIterator<Item = &'a FlowObservation>,
        mut classify: F,
    ) -> TrafficSeries<K>
    where
        F: FnMut(&FlowObservation) -> Option<K>,
    {
        /// Buckets a day has: slot 0 is the daily aggregate (`hour: None`),
        /// slot `h + 1` is hour `h` — `(DayBucket, Option<u8>)` order.
        const SLOTS: usize = 25;
        // `volumes[(day - first_day) * SLOTS + slot]`: `(key, flows)` per
        // key seen in the bucket, in order of first appearance.
        let mut first_day = 0u32;
        let mut volumes: Vec<Vec<(K, f64)>> = Vec::new();
        for f in flows {
            let Some(key) = classify(f) else { continue };
            // A flow's hour is 0–23 by construction.
            let slot = f.hour().map_or(0, |h| usize::from(h) + 1);
            if volumes.is_empty() {
                first_day = f.day.0;
            } else if f.day.0 < first_day {
                // An earlier day arriving late: the range grows downwards.
                let missing = (first_day - f.day.0) as usize * SLOTS;
                volumes.splice(0..0, std::iter::repeat_with(Vec::new).take(missing));
                first_day = f.day.0;
            }
            let day = (f.day.0 - first_day) as usize;
            if day * SLOTS >= volumes.len() {
                volumes.resize_with((day + 1) * SLOTS, Vec::new);
            }
            let bucket = &mut volumes[day * SLOTS + slot];
            let at = (bucket.iter().position(|(k, _)| *k == key)).unwrap_or_else(|| {
                bucket.push((key, 0.0));
                bucket.len() - 1
            });
            bucket[at].1 += f.flows as f64;
        }
        let mut raw: BTreeMap<(DayBucket, Option<u8>), BTreeMap<K, f64>> = BTreeMap::new();
        for (i, bucket) in volumes.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let day = DayBucket(first_day + (i / SLOTS) as u32);
            let hour = (i % SLOTS).checked_sub(1).map(|h| h as u8);
            raw.insert((day, hour), bucket.into_iter().collect());
        }
        // Normalize per bucket.
        for shares in raw.values_mut() {
            let total: f64 = shares.values().sum();
            if total > 0.0 {
                for v in shares.values_mut() {
                    *v /= total;
                }
            }
        }
        TrafficSeries { buckets: raw }
    }

    /// Mean share of `key` across buckets in `[from_day, until_day)`.
    pub fn mean_share(&self, key: &K, from_day: DayBucket, until_day: DayBucket) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for ((day, _), shares) in &self.buckets {
            if *day >= from_day && *day < until_day {
                sum += shares.get(key).copied().unwrap_or(0.0);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// The four b.root sub-targets of Figures 7/9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BKey {
    V4Old,
    V4New,
    V6Old,
    V6New,
}

impl BKey {
    /// Classification of a flow, `None` for non-b traffic.
    pub fn of(f: &FlowObservation) -> Option<BKey> {
        if f.target.letter != RootLetter::B {
            return None;
        }
        Some(match (f.family, f.target.b_phase) {
            (Family::V4, BRootPhase::Old) => BKey::V4Old,
            (Family::V4, BRootPhase::New) => BKey::V4New,
            (Family::V6, BRootPhase::Old) => BKey::V6Old,
            (Family::V6, BRootPhase::New) => BKey::V6New,
        })
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            BKey::V4Old => "V4old",
            BKey::V4New => "V4new",
            BKey::V6Old => "V6old",
            BKey::V6New => "V6new",
        }
    }
}

/// b.root traffic split analysis (Figure 7 at the ISP, Figure 9 per IXP
/// region).
#[derive(Debug, Clone)]
pub struct BRootShift {
    pub series: TrafficSeries<BKey>,
}

impl BRootShift {
    /// Build from flows.
    pub fn compute(flows: &[FlowObservation]) -> BRootShift {
        BRootShift {
            series: TrafficSeries::build(flows, BKey::of),
        }
    }

    /// In-family shift ratio over a window: new / (new + old), per family.
    /// Paper (ISP, Feb-2024): v4 87.1%, v6 96.3%.
    pub fn in_family_shift(
        &self,
        family: Family,
        from_day: DayBucket,
        until_day: DayBucket,
    ) -> f64 {
        let (new_key, old_key) = match family {
            Family::V4 => (BKey::V4New, BKey::V4Old),
            Family::V6 => (BKey::V6New, BKey::V6Old),
        };
        let mut new_sum = 0.0;
        let mut old_sum = 0.0;
        for ((day, _), shares) in &self.series.buckets {
            if *day >= from_day && *day < until_day {
                new_sum += shares.get(&new_key).copied().unwrap_or(0.0);
                old_sum += shares.get(&old_key).copied().unwrap_or(0.0);
            }
        }
        if new_sum + old_sum == 0.0 {
            0.0
        } else {
            new_sum / (new_sum + old_sum)
        }
    }

    /// Render the Figure 7/9 equivalent over a window.
    pub fn render(&self, title: &str, from_day: DayBucket, until_day: DayBucket) -> String {
        let mut out = format!("{title}\n  key    mean-share\n");
        for key in [BKey::V4New, BKey::V4Old, BKey::V6New, BKey::V6Old] {
            out.push_str(&format!(
                "  {:6} {:6.3}\n",
                key.label(),
                self.series.mean_share(&key, from_day, until_day)
            ));
        }
        out.push_str(&format!(
            "  in-family shift: v4 {:.1}%  v6 {:.1}%\n",
            self.in_family_shift(Family::V4, from_day, until_day) * 100.0,
            self.in_family_shift(Family::V6, from_day, until_day) * 100.0,
        ));
        out
    }
}

/// All-roots traffic shares (Figures 12/13).
pub fn all_roots_series<'a>(
    flows: impl IntoIterator<Item = &'a FlowObservation>,
) -> TrafficSeries<RootLetter> {
    TrafficSeries::build(flows, |f| Some(f.target.letter))
}

/// Render the Figure 12/13 equivalent: per-letter mean shares in a window.
pub fn render_all_roots(
    series: &TrafficSeries<RootLetter>,
    title: &str,
    from_day: DayBucket,
    until_day: DayBucket,
) -> String {
    let mut out = format!("{title}\n");
    for letter in RootLetter::ALL {
        out.push_str(&format!(
            "  {} {:6.3}\n",
            letter.label(),
            series.mean_share(&letter, from_day, until_day)
        ));
    }
    out
}

/// Classify flows per (target, family) for custom figures.
pub fn target_family_key(f: &FlowObservation) -> Option<(FlowTarget, Family)> {
    Some((f.target, f.family))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_crypto::validity::timestamp_from_ymd as ts;
    use netgeo::Region;
    use traces::gen::{generate_flows, ObservationWindow, TraceConfig};

    fn isp_flows() -> Vec<FlowObservation> {
        let mut cfg = TraceConfig::isp(3);
        cfg.population.clients_per_family = 250;
        generate_flows(&cfg, &ObservationWindow::isp_windows())
    }

    fn day(s: &str) -> DayBucket {
        DayBucket::of(ts(s).unwrap())
    }

    /// `TrafficSeries::build` as it was: one B-tree probe per flow for the
    /// bucket, one for the key.
    fn build_reference<'a, K: Ord + Clone>(
        flows: impl IntoIterator<Item = &'a FlowObservation>,
        mut classify: impl FnMut(&FlowObservation) -> Option<K>,
    ) -> TrafficSeries<K> {
        let mut raw: BTreeMap<(DayBucket, Option<u8>), BTreeMap<K, f64>> = BTreeMap::new();
        for f in flows {
            let Some(key) = classify(f) else { continue };
            *raw.entry((f.day, f.hour()))
                .or_default()
                .entry(key)
                .or_insert(0.0) += f.flows as f64;
        }
        for shares in raw.values_mut() {
            let total: f64 = shares.values().sum();
            if total > 0.0 {
                for v in shares.values_mut() {
                    *v /= total;
                }
            }
        }
        TrafficSeries { buckets: raw }
    }

    /// A bucket's day and hour, and its `(key, share)`s.
    type BucketBits<K> = ((u32, Option<u8>), Vec<(K, u64)>);

    /// Every `(bucket, key, share)`, shares by bit pattern.
    fn bits<K: Ord + Clone>(s: &TrafficSeries<K>) -> Vec<BucketBits<K>> {
        (s.buckets.iter())
            .map(|(&(day, hour), shares)| {
                let shares = shares.iter().map(|(k, v)| (k.clone(), v.to_bits()));
                ((day.0, hour), shares.collect())
            })
            .collect()
    }

    /// The dense build against the B-tree build under three classifiers.
    fn check_against_reference(flows: &[&[FlowObservation]]) -> usize {
        let chained = || flows.iter().copied().flatten();
        let letters = all_roots_series(chained());
        let reference = build_reference(chained(), |f| Some(f.target.letter));
        assert_eq!(bits(&letters), bits(&reference));
        let b = TrafficSeries::build(chained(), BKey::of);
        assert_eq!(bits(&b), bits(&build_reference(chained(), BKey::of)));
        let fine = TrafficSeries::build(chained(), target_family_key);
        assert_eq!(
            bits(&fine),
            bits(&build_reference(chained(), target_family_key))
        );
        let none = TrafficSeries::<BKey>::build(chained(), |_| None);
        assert!(none.buckets.is_empty());
        letters.buckets.len()
    }

    #[test]
    fn dense_buckets_match_the_nested_maps() {
        use netsim::SimRng;
        use traces::client::ClientId;
        let mut rng = SimRng::new(0x7AFF);
        let targets = FlowTarget::all();
        // Volumes whose sum depends on the order they are added in, so a
        // bucket summed in another order shows in the last bits.
        let flows_on = |days: std::ops::Range<u32>, rng: &mut SimRng| {
            let mut out = Vec::new();
            for day in days {
                for client in 0..5u32 {
                    for target in &targets {
                        for family in Family::BOTH {
                            if rng.chance(0.35) {
                                continue;
                            }
                            // Daily and hourly buckets on day 19_703.
                            let hour = (day == 19_703 && rng.chance(0.7))
                                .then(|| [0u8, 11, 23][rng.next_range(3)]);
                            let flows = (1u32 << rng.next_range(31)) + rng.next_range(1000) as u32;
                            out.push(FlowObservation::new(
                                DayBucket(day),
                                hour,
                                ClientId(client),
                                family,
                                *target,
                                flows,
                            ));
                        }
                    }
                }
            }
            out
        };
        // Days in order, with a gap; then earlier days arriving late (the
        // range grows downwards, twice); then two slices chained, the
        // second overlapping the first's days.
        let mut first = flows_on(19_700..19_706, &mut rng);
        first.extend(flows_on(19_720..19_722, &mut rng));
        assert_eq!(check_against_reference(&[&first]), 6 + 3 + 2);
        let mut late = first.clone();
        late.extend(flows_on(19_690..19_692, &mut rng));
        late.extend(flows_on(19_650..19_651, &mut rng));
        late.extend(flows_on(19_721..19_723, &mut rng));
        check_against_reference(&[&late]);
        let second = flows_on(19_698..19_704, &mut rng);
        check_against_reference(&[&first, &second]);
        check_against_reference(&[&second, &late, &first]);
        for _ in 0..3 {
            rng.shuffle(&mut late);
            check_against_reference(&[&late, &second]);
        }
        // One flow; a sparse classifier's only bucket at the far end of
        // the range; zero-volume buckets (left unnormalised); nothing.
        check_against_reference(&[&first[..1]]);
        let mut zeros = flows_on(19_700..19_702, &mut rng);
        zeros.iter_mut().for_each(|f| f.flows = 0);
        check_against_reference(&[&zeros, &first[..40]]);
        assert_eq!(check_against_reference(&[]), 0);
        assert_eq!(check_against_reference(&[&[], &[]]), 0);
    }

    #[test]
    fn generated_captures_match_the_nested_maps() {
        let mut cfg = TraceConfig::isp(3);
        cfg.population.clients_per_family = 40;
        let isp = generate_flows(&cfg, &ObservationWindow::isp_windows());
        // 24 hourly buckets, 28 + 7 daily ones.
        assert_eq!(check_against_reference(&[&isp]), 24 + 28 + 7);
        let ixp = |region, seed| {
            let mut cfg = TraceConfig::ixp(region, seed);
            cfg.population.clients_per_family = 40;
            generate_flows(&cfg, &ObservationWindow::ixp_windows())
        };
        let (eu, na) = (ixp(Region::Europe, 8), ixp(Region::NorthAmerica, 9));
        check_against_reference(&[&eu, &na]);
        check_against_reference(&[&na, &isp, &eu]);
    }

    #[test]
    fn shares_normalized_per_bucket() {
        let flows = isp_flows();
        let shift = BRootShift::compute(&flows);
        for shares in shift.series.buckets.values() {
            let sum: f64 = shares.values().sum();
            assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        }
    }

    #[test]
    fn pre_change_old_dominates_post_change_new() {
        let flows = isp_flows();
        let shift = BRootShift::compute(&flows);
        let pre_old =
            shift
                .series
                .mean_share(&BKey::V4Old, day("20231008000000"), day("20231009000000"));
        let post_new =
            shift
                .series
                .mean_share(&BKey::V4New, day("20240205000000"), day("20240304000000"));
        assert!(pre_old > 0.5, "pre old v4 share {pre_old}");
        assert!(post_new > 0.5, "post new v4 share {post_new}");
    }

    #[test]
    fn in_family_shift_v6_exceeds_v4() {
        // Paper: 87.1% v4 vs 96.3% v6 at the ISP, Feb 2024.
        let flows = isp_flows();
        let shift = BRootShift::compute(&flows);
        let from = day("20240205000000");
        let until = day("20240304000000");
        let v4 = shift.in_family_shift(Family::V4, from, until);
        let v6 = shift.in_family_shift(Family::V6, from, until);
        assert!(v6 > v4, "v6 {v6} <= v4 {v4}");
        // Wide bounds: this test runs on a small client sample where the
        // heavy-tailed rates add variance. The full-scale calibration
        // (examples/broot_renumbering) lands at ≈88% / ≈93%.
        assert!(v4 > 0.55 && v4 < 0.97, "v4 shift {v4}");
        assert!(v6 > 0.85, "v6 shift {v6}");
    }

    #[test]
    fn ixp_eu_shifts_more_than_na() {
        // Paper Figure 9: EU ≈60.8% vs NA ≈16.5% of v6 traffic shifted.
        let window = ObservationWindow::ixp_windows()[0];
        let shift_of = |region: Region| {
            let mut cfg = TraceConfig::ixp(region, 5);
            cfg.population.clients_per_family = 250;
            let flows = generate_flows(&cfg, &[window]);
            let shift = BRootShift::compute(&flows);
            shift.in_family_shift(Family::V6, day("20231128000000"), day("20231228000000"))
        };
        let eu = shift_of(Region::Europe);
        let na = shift_of(Region::NorthAmerica);
        assert!(eu > 0.4, "eu {eu}");
        assert!(na < 0.4, "na {na}");
        assert!(eu > na + 0.2);
    }

    #[test]
    fn all_roots_shares_sane() {
        let flows = isp_flows();
        let series = all_roots_series(&flows);
        let from = day("20240205000000");
        let until = day("20240304000000");
        // b.root total share near the paper's ≈4.5-4.9%.
        let b = series.mean_share(&RootLetter::B, from, until);
        assert!((0.02..0.09).contains(&b), "b share {b}");
        // Shares sum to ~1.
        let sum: f64 = RootLetter::ALL
            .iter()
            .map(|l| series.mean_share(l, from, until))
            .sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn ixp_series_dominated_by_k_d() {
        let mut cfg = TraceConfig::ixp(Region::Europe, 8);
        cfg.population.clients_per_family = 250;
        let flows = generate_flows(&cfg, &ObservationWindow::ixp_windows());
        let series = all_roots_series(&flows);
        let from = day("20231026000000");
        let until = day("20231228000000");
        let kd = series.mean_share(&RootLetter::K, from, until)
            + series.mean_share(&RootLetter::D, from, until);
        assert!(kd > 0.4, "k+d {kd}");
    }

    #[test]
    fn render_outputs_labels() {
        let flows = isp_flows();
        let shift = BRootShift::compute(&flows);
        let txt = shift.render("Figure 7", day("20240205000000"), day("20240304000000"));
        assert!(txt.contains("V4new"));
        assert!(txt.contains("in-family shift"));
        let series = all_roots_series(&flows);
        let txt = render_all_roots(
            &series,
            "Figure 12",
            day("20240205000000"),
            day("20240304000000"),
        );
        assert!(txt.contains("k.root"));
    }
}
