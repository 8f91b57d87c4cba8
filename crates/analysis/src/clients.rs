//! Client contact patterns (Figure 8): mean number of unique client
//! subnets per day as a function of flows-per-client, per target and
//! family.
//!
//! The priming signature: after the change, the old b.root IPv6 subnet is
//! contacted by many clients exactly once a day — they prime against the
//! old address and then move on.
//!
//! A flow belongs to one of 13 letters × 2 address generations × 2
//! families = 52 series, and within a series to a `(day, client)` pair
//! that packs into one `u64`. The window's flows are scattered into one
//! vector per series and sorted as integers; a client-day is then a run of
//! equal keys and a point of the curve a run of equal client-day counts.
//! Every quantity up to the final two divisions is an integer, so the
//! curves do not depend on the order the flows arrive in.

use netsim::Family;
use rss::{BRootPhase, RootLetter};
use traces::flows::{DayBucket, FlowObservation, FlowTarget};

/// Figure 8 curve for one (target, family): at each flows-per-client
/// threshold, the mean number of unique clients per day with at most that
/// many flows, normalized by the overall daily client count.
#[derive(Debug, Clone)]
pub struct ClientCurve {
    pub target: FlowTarget,
    pub family: Family,
    /// Mean unique clients per day (the normalizer).
    pub mean_clients_per_day: f64,
    /// Sorted (flows-per-client, cumulative fraction of client-days).
    pub curve: Vec<(u32, f64)>,
}

impl ClientCurve {
    /// Fraction of client-days with at most `flows` flows.
    pub fn fraction_at_most(&self, flows: u32) -> f64 {
        let mut out = 0.0;
        for (f, frac) in &self.curve {
            if *f <= flows {
                out = *frac;
            } else {
                break;
            }
        }
        out
    }
}

/// The Figure 8 analysis.
#[derive(Debug, Clone)]
pub struct ClientAnalysis {
    pub curves: Vec<ClientCurve>,
}

impl ClientAnalysis {
    /// Compute per-(target, family) client-contact curves from flows in
    /// `[from_day, until_day)`.
    pub fn compute(
        flows: &[FlowObservation],
        from_day: DayBucket,
        until_day: DayBucket,
    ) -> ClientAnalysis {
        /// `(letter, address generation, family)` series a flow can be in;
        /// index order is `(FlowTarget, Family)` order.
        const SERIES: usize = 13 * 2 * 2;
        // Per series: `(day << 32 | client, flows)` of every flow in the
        // window.
        let mut contacts: Vec<Vec<(u64, u32)>> = vec![Vec::new(); SERIES];
        for f in flows {
            if f.day < from_day || f.day >= until_day {
                continue;
            }
            let series =
                (f.target.letter.index() * 2 + f.target.b_phase as usize) * 2 + f.family.index();
            let client_day = u64::from(f.day.0) << 32 | u64::from(f.client.0);
            contacts[series].push((client_day, f.flows));
        }
        let mut curves = Vec::new();
        for (series, mut contacts) in contacts.into_iter().enumerate() {
            if contacts.is_empty() {
                continue;
            }
            contacts.sort_unstable();
            // One flow count per client-day; days come out in order.
            let mut per_client_day: Vec<u32> = Vec::new();
            let mut n_days = 0usize;
            let mut last_day = None;
            for run in contacts.chunk_by(|a, b| a.0 == b.0) {
                let count: u64 = run.iter().map(|&(_, flows)| u64::from(flows)).sum();
                per_client_day.push(count.min(u64::from(u32::MAX)) as u32);
                let day = run[0].0 >> 32;
                if last_day.replace(day) != Some(day) {
                    n_days += 1;
                }
            }
            // Histogram over flows-per-client-day, cumulated.
            per_client_day.sort_unstable();
            let total_client_days = per_client_day.len();
            let mut curve = Vec::new();
            let mut cum = 0usize;
            for run in per_client_day.chunk_by(|a, b| a == b) {
                cum += run.len();
                curve.push((run[0], cum as f64 / total_client_days as f64));
            }
            curves.push(ClientCurve {
                target: FlowTarget {
                    letter: RootLetter::ALL[series / 4],
                    b_phase: [BRootPhase::Old, BRootPhase::New][series / 2 % 2],
                },
                family: Family::BOTH[series % 2],
                mean_clients_per_day: total_client_days as f64 / n_days as f64,
                curve,
            });
        }
        ClientAnalysis { curves }
    }

    /// Fetch one curve.
    pub fn curve(&self, target: FlowTarget, family: Family) -> Option<&ClientCurve> {
        self.curves
            .iter()
            .find(|c| c.target == target && c.family == family)
    }

    /// Render the Figure 8 equivalent for the a–e letters the paper shows.
    pub fn render_fig8(&self) -> String {
        let mut out = String::from(
            "Figure 8: mean unique client subnets/day; fraction of client-days\n\
             with <=1 / <=10 / <=1000 flows\n",
        );
        for family in Family::BOTH {
            out.push_str(&format!("-- {} --\n", family.label()));
            for c in self.curves.iter().filter(|c| c.family == family) {
                let letter_ok = matches!(
                    c.target.letter,
                    RootLetter::A | RootLetter::B | RootLetter::C | RootLetter::D | RootLetter::E
                );
                if !letter_ok {
                    continue;
                }
                out.push_str(&format!(
                    "  {:14} clients/day {:9.1} | <=1: {:.2} <=10: {:.2} <=1000: {:.2}\n",
                    c.target.label(),
                    c.mean_clients_per_day,
                    c.fraction_at_most(1),
                    c.fraction_at_most(10),
                    c.fraction_at_most(1000),
                ));
            }
        }
        out
    }
}

/// Convenience: the old/new b.root flow targets.
pub fn b_target(phase: BRootPhase) -> FlowTarget {
    FlowTarget {
        letter: RootLetter::B,
        b_phase: phase,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_crypto::validity::timestamp_from_ymd as ts;
    use traces::gen::{generate_flows, ObservationWindow, TraceConfig};

    fn day(s: &str) -> DayBucket {
        DayBucket::of(ts(s).unwrap())
    }

    /// `compute` as it was: a hash map of `(day, client)` counts and a
    /// hash set of days per `(target, family)`, a B-tree histogram.
    fn compute_reference(
        flows: &[FlowObservation],
        from_day: DayBucket,
        until_day: DayBucket,
    ) -> ClientAnalysis {
        use std::collections::{BTreeMap, HashMap, HashSet};
        use traces::client::ClientId;
        let mut counts: HashMap<(FlowTarget, Family), HashMap<(DayBucket, ClientId), u64>> =
            HashMap::new();
        let mut days: HashMap<(FlowTarget, Family), HashSet<DayBucket>> = HashMap::new();
        for f in flows {
            if f.day < from_day || f.day >= until_day {
                continue;
            }
            *counts
                .entry((f.target, f.family))
                .or_default()
                .entry((f.day, f.client))
                .or_insert(0) += f.flows as u64;
            days.entry((f.target, f.family)).or_default().insert(f.day);
        }
        let mut curves = Vec::new();
        for ((target, family), per_client_day) in counts {
            let n_days = days[&(target, family)].len().max(1);
            let total_client_days = per_client_day.len();
            let mut hist: BTreeMap<u32, u64> = BTreeMap::new();
            for count in per_client_day.values() {
                *hist
                    .entry((*count).min(u32::MAX as u64) as u32)
                    .or_insert(0) += 1;
            }
            let mut curve = Vec::with_capacity(hist.len());
            let mut cum = 0u64;
            for (flows_ct, n) in hist {
                cum += n;
                curve.push((flows_ct, cum as f64 / total_client_days as f64));
            }
            curves.push(ClientCurve {
                target,
                family,
                mean_clients_per_day: total_client_days as f64 / n_days as f64,
                curve,
            });
        }
        curves.sort_by_key(|c| (c.target, c.family));
        ClientAnalysis { curves }
    }

    /// Target, family, mean clients a day and the curve's points.
    type CurveBits = (FlowTarget, Family, u64, Vec<(u32, u64)>);

    /// Every field of every curve, floats by bit pattern.
    fn bits(a: &ClientAnalysis) -> Vec<CurveBits> {
        (a.curves.iter())
            .map(|c| {
                let curve = c.curve.iter().map(|&(f, frac)| (f, frac.to_bits()));
                (
                    c.target,
                    c.family,
                    c.mean_clients_per_day.to_bits(),
                    curve.collect(),
                )
            })
            .collect()
    }

    #[test]
    fn sorted_series_match_the_nested_maps() {
        use netsim::SimRng;
        use traces::client::ClientId;
        let mut rng = SimRng::new(0xC11E);
        let targets = FlowTarget::all();
        let (from, until) = (DayBucket(19_700), DayBucket(19_710));
        let mut flows = Vec::new();
        // Days on both sides of the window and on its two edges; a client
        // seen daily and hourly on one day, several times in one bucket,
        // and with counts whose sum passes `u32::MAX`; a client id far
        // above the others; a series with one client-day, one with none.
        for day in 19_697..19_713 {
            for client in [0u32, 1, 2, 3, 7, 4_000_000_000] {
                for target in &targets[..5] {
                    for family in Family::BOTH {
                        if rng.chance(0.3) {
                            continue;
                        }
                        let heavy = client == 7 && target.letter == RootLetter::A;
                        let flow = |hour, flows| {
                            let client = ClientId(client);
                            FlowObservation::new(
                                DayBucket(day),
                                hour,
                                client,
                                family,
                                *target,
                                flows,
                            )
                        };
                        flows.push(flow(None, 1 + rng.next_range(4) as u32));
                        if rng.chance(0.4) {
                            flows.push(flow(Some(rng.next_range(24) as u8), 1));
                            flows.push(flow(None, if heavy { u32::MAX } else { 2 }));
                        }
                    }
                }
            }
        }
        flows.push(FlowObservation::new(
            DayBucket(19_705),
            None,
            ClientId(9),
            Family::V6,
            targets[13],
            3,
        ));
        let lone = |a: &ClientAnalysis| {
            let c = a.curve(targets[13], Family::V6).expect("m.root v6");
            (c.mean_clients_per_day, c.curve.clone())
        };

        let result = ClientAnalysis::compute(&flows, from, until);
        assert_eq!(bits(&result), bits(&compute_reference(&flows, from, until)));
        assert_eq!(result.curves.len(), 5 * 2 + 1);
        assert_eq!(lone(&result), (1.0, vec![(3, 1.0)]));
        let saturated = result.curve(targets[0], Family::V4).unwrap();
        assert_eq!(saturated.curve.last().unwrap().0, u32::MAX);
        for _ in 0..3 {
            rng.shuffle(&mut flows);
            let shuffled = ClientAnalysis::compute(&flows, from, until);
            assert_eq!(bits(&shuffled), bits(&result));
            assert_eq!(
                bits(&shuffled),
                bits(&compute_reference(&flows, from, until))
            );
        }
        // A window nothing falls in, an empty window, no flows at all.
        for (from, until) in [(19_800, 19_900), (19_705, 19_705), (19_710, 19_700)] {
            let (from, until) = (DayBucket(from), DayBucket(until));
            let empty = ClientAnalysis::compute(&flows, from, until);
            assert!(empty.curves.is_empty());
            assert!(compute_reference(&flows, from, until).curves.is_empty());
        }
        assert!(ClientAnalysis::compute(&[], from, until).curves.is_empty());
    }

    #[test]
    fn generated_window_matches_the_nested_maps() {
        let mut cfg = TraceConfig::isp(13);
        cfg.population.clients_per_family = 60;
        let flows = generate_flows(&cfg, &ObservationWindow::isp_windows());
        let (from, until) = (day("20240205000000"), day("20240304000000"));
        let result = ClientAnalysis::compute(&flows, from, until);
        assert_eq!(bits(&result), bits(&compute_reference(&flows, from, until)));
        assert_eq!(result.curves.len(), 28);
    }

    fn post_change_analysis() -> ClientAnalysis {
        let mut cfg = TraceConfig::isp(13);
        cfg.population.clients_per_family = 250;
        let flows = generate_flows(&cfg, &[ObservationWindow::isp_windows()[1]]);
        ClientAnalysis::compute(&flows, day("20240205000000"), day("20240304000000"))
    }

    #[test]
    fn curves_are_monotone_cdfs() {
        let a = post_change_analysis();
        assert!(!a.curves.is_empty());
        for c in &a.curves {
            for w in c.curve.windows(2) {
                assert!(w[0].0 < w[1].0);
                assert!(w[0].1 <= w[1].1);
            }
            let last = c.curve.last().unwrap().1;
            assert!((last - 1.0).abs() < 1e-9, "last {last}");
        }
    }

    #[test]
    fn old_b_v6_is_once_a_day_heavy() {
        // The priming signature: the old v6 subnet's client-days are
        // dominated by 1-flow contacts, far more than the new subnet's.
        let a = post_change_analysis();
        let old = a
            .curve(b_target(BRootPhase::Old), Family::V6)
            .expect("old b v6 curve");
        let new = a
            .curve(b_target(BRootPhase::New), Family::V6)
            .expect("new b v6 curve");
        assert!(
            old.fraction_at_most(1) > new.fraction_at_most(1) + 0.3,
            "old {:.2} vs new {:.2}",
            old.fraction_at_most(1),
            new.fraction_at_most(1)
        );
    }

    #[test]
    fn other_letters_have_heavy_users() {
        let a = post_change_analysis();
        let k = a
            .curve(
                FlowTarget {
                    letter: RootLetter::K,
                    b_phase: BRootPhase::Old,
                },
                Family::V4,
            )
            .expect("k curve");
        // Plenty of client-days exceed 10 flows.
        assert!(k.fraction_at_most(10) < 0.9);
    }

    #[test]
    fn window_filtering_applies() {
        let mut cfg = TraceConfig::isp(13);
        cfg.population.clients_per_family = 50;
        let flows = generate_flows(&cfg, &[ObservationWindow::isp_windows()[1]]);
        let empty = ClientAnalysis::compute(&flows, day("20250101000000"), day("20250102000000"));
        assert!(empty.curves.is_empty());
    }

    #[test]
    fn render_contains_b_old_new() {
        let a = post_change_analysis();
        let txt = a.render_fig8();
        assert!(txt.contains("b.root (old)"));
        assert!(txt.contains("b.root (new)"));
        assert!(txt.contains("IPv6"));
    }
}
