//! Flow generators for the ISP-DNS-1 and IXP-DNS-1 observation windows.

use crate::client::{letter_share, ClientBehavior, ClientPopulation, PopulationModel};
use crate::flows::{DayBucket, FlowObservation, FlowTarget};
use dns_crypto::validity::timestamp_from_ymd as ts;
use netgeo::Region;
use netsim::{Family, SimRng};
use rss::{BRootPhase, RootLetter, B_ROOT_CHANGE_DATE};

/// Which capture point the flows come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VantageKind {
    /// The large European eyeball ISP (ISP-DNS-1).
    IspEurope,
    /// An IXP fabric in `region` (IXP-DNS-1 covers Europe and N. America).
    Ixp(Region),
}

impl VantageKind {
    fn at_ixp(self) -> bool {
        matches!(self, VantageKind::Ixp(_))
    }

    /// The region the vantage observes clients in.
    pub fn region(self) -> Region {
        match self {
            VantageKind::IspEurope => Region::Europe,
            VantageKind::Ixp(r) => r,
        }
    }
}

/// One capture window, with optional hourly resolution (the pre-change day
/// in Figure 7 is rendered hourly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservationWindow {
    pub from: u32,
    pub until: u32,
    pub hourly: bool,
}

impl ObservationWindow {
    /// The paper's ISP windows: one pre-change day (hourly), the four-week
    /// post-change window, and the April week.
    pub fn isp_windows() -> Vec<ObservationWindow> {
        vec![
            ObservationWindow {
                from: ts("20231008000000").unwrap(),
                until: ts("20231009000000").unwrap(),
                hourly: true,
            },
            ObservationWindow {
                from: ts("20240205000000").unwrap(),
                until: ts("20240304000000").unwrap(),
                hourly: false,
            },
            ObservationWindow {
                from: ts("20240422000000").unwrap(),
                until: ts("20240429000000").unwrap(),
                hourly: false,
            },
        ]
    }

    /// The paper's IXP windows.
    pub fn ixp_windows() -> Vec<ObservationWindow> {
        vec![
            ObservationWindow {
                from: ts("20231026000000").unwrap(),
                until: ts("20231228000000").unwrap(),
                hourly: false,
            },
            ObservationWindow {
                from: ts("20240422000000").unwrap(),
                until: ts("20240429000000").unwrap(),
                hourly: false,
            },
        ]
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    pub vantage: VantageKind,
    pub population: PopulationModel,
    /// Effective sampling divisor: flow counts are divided by this (the
    /// real captures are "heavily sampled").
    pub sampling: f64,
    /// ISP-only: the unexplained a.root traffic dip the paper flags on
    /// 2024-02-26 (Figure 12), as (day timestamp, remaining-traffic factor).
    pub a_root_dip: Option<(u32, f64)>,
    /// When the b.root renumbering takes effect for the modelled clients.
    /// Defaults to the historical date; scenario runs align it to their
    /// own renumbering event.
    pub b_change_date: u32,
    pub seed: u64,
}

impl TraceConfig {
    /// The ISP-DNS-1 stand-in.
    pub fn isp(seed: u64) -> Self {
        TraceConfig {
            vantage: VantageKind::IspEurope,
            population: PopulationModel::isp_europe(seed),
            sampling: 10.0,
            a_root_dip: Some((ts("20240226000000").unwrap(), 0.35)),
            b_change_date: B_ROOT_CHANGE_DATE,
            seed,
        }
    }

    /// One IXP-DNS-1 region stand-in.
    pub fn ixp(region: Region, seed: u64) -> Self {
        TraceConfig {
            vantage: VantageKind::Ixp(region),
            population: PopulationModel::ixp(region, seed),
            sampling: 10.0,
            a_root_dip: None,
            b_change_date: B_ROOT_CHANGE_DATE,
            seed,
        }
    }
}

/// Poisson sample (Knuth for small means, normal approximation above 30).
pub fn poisson(rng: &mut SimRng, mean: f64) -> u32 {
    poisson_with(rng, mean, |mean| f64::exp(-mean))
}

/// [`poisson`] with Knuth's threshold `exp(-mean)` supplied by `exp_neg`,
/// which is asked only when the Knuth loop runs.
fn poisson_with(rng: &mut SimRng, mean: f64, exp_neg: impl FnOnce(f64) -> f64) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 30.0 {
        let v = mean + mean.sqrt() * rng.next_gaussian();
        return v.max(0.0).round() as u32;
    }
    let l = exp_neg(mean);
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.next_f64();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // numerically impossible fallback
        }
    }
}

/// Generate all flows for `windows` at this vantage.
///
/// Zero-count buckets are suppressed (as in real flow exports). Every
/// (window, day, client, target[, hour]) bucket draws its count from one
/// serial rng chain, in that order.
pub fn generate_flows(cfg: &TraceConfig, windows: &[ObservationWindow]) -> Vec<FlowObservation> {
    let population = ClientPopulation::synthesize(&cfg.population);
    let at_ixp = cfg.vantage.at_ixp();
    let mut flows = FlowGen {
        cfg,
        shares: RootLetter::ALL.map(|letter| letter_share(letter, at_ixp)),
        diurnal: std::array::from_fn(|hour| diurnal_weight(hour as u8)),
        rng: SimRng::new(cfg.seed).derive("flows"),
        out: Vec::new(),
    };
    let mut memos = vec![[ExpMemo::START; FLOW_TARGETS]; population.clients.len()];
    for window in windows {
        let mut day = window.from - window.from % 86400;
        while day < window.until {
            for (client, memos) in population.clients.iter().zip(&mut memos) {
                flows.client_day(client, day, *window, memos);
            }
            day += 86400;
        }
    }
    flows.out
}

/// A client's flow targets: the 13 letters at their index (b.root's old
/// address at b's), and b.root's new address last.
const FLOW_TARGETS: usize = 14;
const B_NEW: usize = 13;

/// `exp(-mean)` for the last Knuth-sampled mean of one (client, target)
/// slot, keyed on the mean's bits. A client's daily mean for a target is
/// the same day after day, so the exponential is paid when it changes — a
/// dip day, a b.root switch, each hour of an hourly window — and a changed
/// mean is a miss, never a stale value.
#[derive(Debug, Clone, Copy)]
struct ExpMemo {
    mean_bits: u64,
    exp_neg: f64,
}

impl ExpMemo {
    /// `exp(-0) = 1`: a true pair, like every other the memo holds.
    const START: ExpMemo = ExpMemo {
        mean_bits: 0,
        exp_neg: 1.0,
    };

    fn exp_neg(&mut self, mean: f64) -> f64 {
        if self.mean_bits != mean.to_bits() {
            *self = ExpMemo {
                mean_bits: mean.to_bits(),
                exp_neg: f64::exp(-mean),
            };
        }
        self.exp_neg
    }
}

/// One `generate_flows` call: the config, what it reads for every bucket
/// (letter shares at the vantage, hour weights), the rng chain and the
/// flows so far.
struct FlowGen<'a> {
    cfg: &'a TraceConfig,
    /// [`letter_share`] by [`RootLetter::index`].
    shares: [f64; 13],
    /// [`diurnal_weight`] by hour.
    diurnal: [f64; 24],
    rng: SimRng,
    out: Vec<FlowObservation>,
}

impl FlowGen<'_> {
    /// Flows of one client on one day.
    fn client_day(
        &mut self,
        client: &ClientBehavior,
        day: u32,
        window: ObservationWindow,
        memos: &mut [ExpMemo; FLOW_TARGETS],
    ) {
        let bucket = DayBucket::of(day);
        for letter in RootLetter::ALL {
            let mut share = self.shares[letter.index()];
            if letter == RootLetter::A {
                if let Some((dip_day, factor)) = self.cfg.a_root_dip {
                    if dip_day == day {
                        share *= factor;
                    }
                }
            }
            let mean_day = client.daily_rate * share / self.cfg.sampling;
            if letter == RootLetter::B {
                self.b_root(client, day, bucket, window, mean_day, memos);
            } else {
                let target = FlowTarget {
                    letter,
                    b_phase: BRootPhase::Old,
                };
                let memo = &mut memos[letter.index()];
                self.target(target, client, bucket, window, mean_day, memo);
            }
        }
    }

    /// b.root flows: split across old/new addresses per switching state.
    fn b_root(
        &mut self,
        client: &ClientBehavior,
        day: u32,
        bucket: DayBucket,
        window: ObservationWindow,
        mean_day: f64,
        memos: &mut [ExpMemo; FLOW_TARGETS],
    ) {
        let cfg = self.cfg;
        let end_of_day = day + 86399;
        let (old_mean, new_mean) = if end_of_day < cfg.b_change_date {
            // Pre-change: new prefixes are operational but unpublished; a
            // small trickle (measurement/testing traffic) already reaches
            // them — v4-heavier, matching the paper's 0.7%/0.1% observation.
            let trickle = match client.family {
                Family::V4 => 0.008,
                Family::V6 => 0.002,
            };
            (mean_day * (1.0 - trickle), mean_day * trickle)
        } else if client.switched_by(day, cfg.b_change_date) {
            // Switched: bulk to new; primers touch old ~once a day (sampled).
            let prime_mean = if client.primes {
                1.0 / cfg.sampling
            } else {
                0.0
            };
            (prime_mean, mean_day)
        } else {
            (mean_day, 0.0)
        };
        let b = |b_phase| FlowTarget {
            letter: RootLetter::B,
            b_phase,
        };
        let old = &mut memos[RootLetter::B.index()];
        self.target(b(BRootPhase::Old), client, bucket, window, old_mean, old);
        let new = &mut memos[B_NEW];
        self.target(b(BRootPhase::New), client, bucket, window, new_mean, new);
    }

    /// Emit one (client, day, target) bucket — hourly when the window asks.
    fn target(
        &mut self,
        target: FlowTarget,
        client: &ClientBehavior,
        bucket: DayBucket,
        window: ObservationWindow,
        mean_day: f64,
        memo: &mut ExpMemo,
    ) {
        let mut emit = |hour, flows| {
            if flows > 0 {
                self.out.push(FlowObservation::new(
                    bucket,
                    hour,
                    client.id,
                    client.family,
                    target,
                    flows,
                ));
            }
        };
        if window.hourly {
            // Diurnal shape: eyeball traffic peaks in the evening.
            for (hour, weight) in (0..24u8).zip(self.diurnal) {
                let flows = poisson_with(&mut self.rng, mean_day * weight, |m| memo.exp_neg(m));
                emit(Some(hour), flows);
            }
        } else {
            let flows = poisson_with(&mut self.rng, mean_day, |m| memo.exp_neg(m));
            emit(None, flows);
        }
    }
}

/// Hour-of-day weight (sums to ~1 over 24 hours).
fn diurnal_weight(hour: u8) -> f64 {
    let h = hour as f64;
    let base = 1.0 + 0.8 * ((h - 20.0) * std::f64::consts::PI / 12.0).cos();
    base / 24.0
}

/// `generate_flows` as it was before the per-call tables and the `exp`
/// memo: the oracle of `generated_flows_match_the_reference`.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn generate_flows(
        cfg: &TraceConfig,
        windows: &[ObservationWindow],
    ) -> Vec<FlowObservation> {
        let population = ClientPopulation::synthesize(&cfg.population);
        let mut rng = SimRng::new(cfg.seed).derive("flows");
        let mut out = Vec::new();
        for window in windows {
            let mut day = window.from - window.from % 86400;
            while day < window.until {
                for client in &population.clients {
                    emit_client_day(cfg, client, day, *window, &mut rng, &mut out);
                }
                day += 86400;
            }
        }
        out
    }

    fn emit_client_day(
        cfg: &TraceConfig,
        client: &ClientBehavior,
        day: u32,
        window: ObservationWindow,
        rng: &mut SimRng,
        out: &mut Vec<FlowObservation>,
    ) {
        let bucket = DayBucket::of(day);
        let at_ixp = cfg.vantage.at_ixp();
        for letter in RootLetter::ALL {
            let mut share = letter_share(letter, at_ixp);
            if letter == RootLetter::A {
                if let Some((dip_day, factor)) = cfg.a_root_dip {
                    if dip_day == day {
                        share *= factor;
                    }
                }
            }
            let mean_day = client.daily_rate * share / cfg.sampling;
            if letter == RootLetter::B {
                emit_b_root(cfg, client, day, bucket, window, mean_day, rng, out);
            } else {
                let target = FlowTarget {
                    letter,
                    b_phase: BRootPhase::Old,
                };
                emit_target(target, client, bucket, window, mean_day, rng, out);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_b_root(
        cfg: &TraceConfig,
        client: &ClientBehavior,
        day: u32,
        bucket: DayBucket,
        window: ObservationWindow,
        mean_day: f64,
        rng: &mut SimRng,
        out: &mut Vec<FlowObservation>,
    ) {
        let end_of_day = day + 86399;
        let (old_mean, new_mean) = if end_of_day < cfg.b_change_date {
            let trickle = match client.family {
                Family::V4 => 0.008,
                Family::V6 => 0.002,
            };
            (mean_day * (1.0 - trickle), mean_day * trickle)
        } else if client.switched_by(day, cfg.b_change_date) {
            let prime_mean = if client.primes {
                1.0 / cfg.sampling
            } else {
                0.0
            };
            (prime_mean, mean_day)
        } else {
            (mean_day, 0.0)
        };
        emit_target(
            FlowTarget {
                letter: RootLetter::B,
                b_phase: BRootPhase::Old,
            },
            client,
            bucket,
            window,
            old_mean,
            rng,
            out,
        );
        emit_target(
            FlowTarget {
                letter: RootLetter::B,
                b_phase: BRootPhase::New,
            },
            client,
            bucket,
            window,
            new_mean,
            rng,
            out,
        );
    }

    fn emit_target(
        target: FlowTarget,
        client: &ClientBehavior,
        bucket: DayBucket,
        window: ObservationWindow,
        mean_day: f64,
        rng: &mut SimRng,
        out: &mut Vec<FlowObservation>,
    ) {
        if window.hourly {
            for hour in 0..24u8 {
                let weight = diurnal_weight(hour);
                let flows = poisson(rng, mean_day * weight);
                if flows > 0 {
                    out.push(FlowObservation::new(
                        bucket,
                        Some(hour),
                        client.id,
                        client.family,
                        target,
                        flows,
                    ));
                }
            }
        } else {
            let flows = poisson(rng, mean_day);
            if flows > 0 {
                out.push(FlowObservation::new(
                    bucket,
                    None,
                    client.id,
                    client.family,
                    target,
                    flows,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_flows_match_the_reference() {
        // Every generator the pipeline runs, over its own windows: the
        // hourly pre-change day, the a.root dip day, days either side of
        // the b.root change, clients that never switch and switchers that
        // do not prime. Flows compare whole — counts, order and all.
        let isp = ObservationWindow::isp_windows();
        let ixp = ObservationWindow::ixp_windows();
        let (dip_day, _) = small_isp().a_root_dip.unwrap();
        assert!(isp[0].hourly && isp[0].until <= B_ROOT_CHANGE_DATE);
        assert!(isp.iter().any(|w| (w.from..w.until).contains(&dip_day)));
        assert!((ixp[0].from..ixp[0].until).contains(&B_ROOT_CHANGE_DATE));
        let mut configs = vec![
            (small_isp(), isp),
            (TraceConfig::ixp(Region::Europe, 11), ixp.clone()),
            (TraceConfig::ixp(Region::NorthAmerica, 13), ixp.clone()),
        ];
        // A scenario's own change date, three days into the window.
        let mut early = TraceConfig::ixp(Region::Europe, 17);
        early.b_change_date = ixp[0].from + 3 * 86400;
        configs.push((early, ixp));
        for (mut cfg, windows) in configs {
            cfg.population.clients_per_family = 300;
            let clients = ClientPopulation::synthesize(&cfg.population).clients;
            assert!(clients.iter().any(|c| c.switch_after.is_none()));
            assert!(clients
                .iter()
                .any(|c| c.switch_after.is_some() && !c.primes));
            let flows = generate_flows(&cfg, &windows);
            assert!(!flows.is_empty());
            assert!(flows == reference::generate_flows(&cfg, &windows));
        }
    }

    fn small_isp() -> TraceConfig {
        let mut cfg = TraceConfig::isp(7);
        cfg.population.clients_per_family = 300;
        cfg
    }

    #[test]
    fn windows_match_paper_dates() {
        let isp = ObservationWindow::isp_windows();
        assert_eq!(isp.len(), 3);
        assert!(isp[0].hourly);
        assert_eq!((isp[1].until - isp[1].from) / 86400, 28);
        let ixp = ObservationWindow::ixp_windows();
        assert_eq!((ixp[0].until - ixp[0].from) / 86400, 63);
    }

    #[test]
    fn poisson_mean_accuracy() {
        let mut rng = SimRng::new(1);
        for mean in [0.5, 3.0, 50.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| poisson(&mut rng, mean) as u64).sum();
            let got = sum as f64 / n as f64;
            assert!(
                (got - mean).abs() < mean * 0.05 + 0.05,
                "mean {mean} got {got}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn pre_change_old_dominates() {
        let cfg = small_isp();
        let flows = generate_flows(&cfg, &[ObservationWindow::isp_windows()[0]]);
        let old: u64 = flows
            .iter()
            .filter(|f| f.target.letter == RootLetter::B && f.target.b_phase == BRootPhase::Old)
            .map(|f| f.flows as u64)
            .sum();
        let new: u64 = flows
            .iter()
            .filter(|f| f.target.letter == RootLetter::B && f.target.b_phase == BRootPhase::New)
            .map(|f| f.flows as u64)
            .sum();
        let new_share = new as f64 / (old + new) as f64;
        assert!(new_share < 0.05, "new share pre-change: {new_share}");
    }

    #[test]
    fn post_change_new_dominates_at_isp() {
        let cfg = small_isp();
        let flows = generate_flows(&cfg, &[ObservationWindow::isp_windows()[1]]);
        let count = |phase: BRootPhase, family: Family| -> u64 {
            flows
                .iter()
                .filter(|f| {
                    f.target.letter == RootLetter::B
                        && f.target.b_phase == phase
                        && f.family == family
                })
                .map(|f| f.flows as u64)
                .sum()
        };
        for family in Family::BOTH {
            let old = count(BRootPhase::Old, family);
            let new = count(BRootPhase::New, family);
            let shift = new as f64 / (old + new) as f64;
            assert!(shift > 0.7, "{family}: shift {shift}");
        }
        // v6 shifts more completely than v4 (priming).
        let shift = |family: Family| {
            let old = count(BRootPhase::Old, family);
            let new = count(BRootPhase::New, family);
            new as f64 / (old + new) as f64
        };
        assert!(shift(Family::V6) > shift(Family::V4));
    }

    #[test]
    fn eu_ixp_shifts_more_v6_than_na() {
        let window = ObservationWindow::ixp_windows()[0];
        let shift_of = |region: Region| {
            let mut cfg = TraceConfig::ixp(region, 11);
            cfg.population.clients_per_family = 300;
            let flows = generate_flows(&cfg, &[window]);
            let post: Vec<&FlowObservation> = flows
                .iter()
                .filter(|f| {
                    f.family == Family::V6
                        && f.target.letter == RootLetter::B
                        && f.day.start() >= B_ROOT_CHANGE_DATE
                })
                .collect();
            let new: u64 = post
                .iter()
                .filter(|f| f.target.b_phase == BRootPhase::New)
                .map(|f| f.flows as u64)
                .sum();
            let old: u64 = post
                .iter()
                .filter(|f| f.target.b_phase == BRootPhase::Old)
                .map(|f| f.flows as u64)
                .sum();
            new as f64 / (old + new) as f64
        };
        let eu = shift_of(Region::Europe);
        let na = shift_of(Region::NorthAmerica);
        assert!(eu > na + 0.2, "eu {eu} vs na {na}");
    }

    #[test]
    fn hourly_window_emits_hours() {
        let cfg = small_isp();
        let flows = generate_flows(&cfg, &[ObservationWindow::isp_windows()[0]]);
        assert!(flows.iter().all(|f| f.hour().is_some()));
        let hours: std::collections::HashSet<u8> = flows.iter().filter_map(|f| f.hour()).collect();
        assert!(hours.len() >= 20);
    }

    #[test]
    fn a_root_dip_applies() {
        let cfg = small_isp();
        let (dip_day, _) = cfg.a_root_dip.unwrap();
        let flows = generate_flows(&cfg, &[ObservationWindow::isp_windows()[1]]);
        let a_on = |day: u32| -> u64 {
            flows
                .iter()
                .filter(|f| f.target.letter == RootLetter::A && f.day == DayBucket::of(day))
                .map(|f| f.flows as u64)
                .sum()
        };
        let dip = a_on(dip_day);
        let normal = a_on(dip_day - 86400);
        assert!((dip as f64) < normal as f64 * 0.6, "dip {dip} vs {normal}");
    }

    #[test]
    fn deterministic_generation() {
        let cfg = small_isp();
        let w = [ObservationWindow::isp_windows()[2]];
        assert_eq!(generate_flows(&cfg, &w), generate_flows(&cfg, &w));
    }

    #[test]
    fn diurnal_weights_sum_to_one() {
        let sum: f64 = (0..24).map(diurnal_weight).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }
}
