//! Order statistics over block samples.
//!
//! Every reported value is a median over blocks with its quartiles and
//! sample count; the quartile rule is the one Python's
//! `statistics.quantiles(values, n=4)` uses, so a spread computed here is
//! the spread a reader computes from the printed runs.

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method (positions
/// `i*(n+1)/4`, linearly interpolated, clamped to the data). A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Signed: the clamp can move `j` past the cut, which extrapolates.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The `q`-quantile (nearest rank) of an ascending-sorted sample.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The `percent`-th percentile of an ascending-sorted sample, estimated
/// as the mean of the order statistics from five points below it to five
/// above. Latency samples are whole nanoseconds; a single order statistic
/// would read the same integer run after run, the band mean keeps the
/// digits the sample has.
pub fn percentile_band(sorted: &[u64], percent: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = |percent: usize| (n * percent).div_ceil(100).clamp(1, n);
    let band = &sorted[rank(percent.saturating_sub(5)) - 1..rank((percent + 5).min(100))];
    band.iter().sum::<u64>() as f64 / band.len() as f64
}

/// The highest percentile of the ladder 50/90/99/99.9/99.99 that still
/// has at least ten samples beyond it in a sample of `n`; `None` when not
/// even the median has.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.90, 0.50]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// Mean of the better third of `values` (at least one): the largest when
/// `higher_is_better`, the smallest otherwise. Interference from other
/// tenants of the host only ever slows a block down, in bursts about a
/// second long, so the blocks that escaped it say what the code does and
/// the median says what the neighbours did.
pub fn better_third_mean(values: &[f64], higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    let k = (v.len() / 3).max(1);
    v[..k].iter().sum::<f64>() / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn better_third_takes_the_side_the_metric_is_better_on() {
        let v = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0];
        assert_eq!(better_third_mean(&v, false), 1.5);
        assert_eq!(better_third_mean(&v, true), 8.0);
        // Fewer than three samples: the best one.
        assert_eq!(better_third_mean(&[4.0, 6.0], true), 6.0);
        assert_eq!(better_third_mean(&[4.0], false), 4.0);
        assert_eq!(better_third_mean(&[], false), 0.0);
        // 24 blocks: the eight best.
        let v: Vec<f64> = (1..=24).map(f64::from).collect();
        assert_eq!(better_third_mean(&v, false), 4.5);
    }

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50);
        assert_eq!(quantile_sorted(&v, 0.90), 90);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn band_quantile_is_centred_on_the_order_statistic() {
        let v: Vec<u64> = (1..=100).collect();
        // Ranks 45..=55 and 85..=95.
        assert_eq!(percentile_band(&v, 50), 50.0);
        assert_eq!(percentile_band(&v, 90), 90.0);
        assert_eq!(percentile_band(&[7], 90), 7.0);
        assert_eq!(percentile_band(&[], 50), 0.0);
        // Ties around the median no longer hide a shifting sample.
        let mut ties = vec![180u64; 100];
        ties[54] = 181;
        assert!(percentile_band(&ties, 50) > 180.0);
        assert_eq!(quantile_sorted(&ties, 0.50), 180);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.50));
        assert_eq!(highest_supported_percentile(99), Some(0.50));
        assert_eq!(highest_supported_percentile(107), Some(0.90));
        assert_eq!(highest_supported_percentile(999), Some(0.90));
        assert_eq!(highest_supported_percentile(20_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }
}
