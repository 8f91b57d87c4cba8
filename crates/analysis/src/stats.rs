//! Shared numeric helpers: percentiles, eCDFs, and distribution summaries.

/// Percentile of a sample (linear interpolation, `p` in `[0, 1]`).
/// Returns `None` on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 1.0);
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = idx - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Sort a sample in place and return it (convenience for percentile runs).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    v
}

/// Mean; `None` for empty input.
pub fn mean(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        None
    } else {
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Population standard deviation; `None` for empty input.
pub fn std_dev(v: &[f64]) -> Option<f64> {
    let m = mean(v)?;
    Some((v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt())
}

/// Median of an integer sample.
pub fn median_u64(mut v: Vec<u64>) -> Option<u64> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    Some(v[v.len() / 2])
}

/// An empirical CDF over integer counts (the paper's Figure 3 shows the
/// complementary form).
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    /// Sorted distinct values.
    pub values: Vec<u64>,
    /// `cdf[i]` = fraction of samples ≤ `values[i]`.
    pub cdf: Vec<f64>,
    /// Sample count.
    pub n: usize,
}

impl Ecdf {
    /// Build from a sample.
    pub fn from_samples(mut samples: Vec<u64>) -> Ecdf {
        samples.sort_unstable();
        let n = samples.len();
        let mut values = Vec::new();
        let mut cdf = Vec::new();
        let mut i = 0;
        while i < n {
            let v = samples[i];
            let mut j = i;
            while j < n && samples[j] == v {
                j += 1;
            }
            values.push(v);
            cdf.push(j as f64 / n as f64);
            i = j;
        }
        Ecdf { values, cdf, n }
    }

    /// Fraction of samples ≤ `x`.
    pub fn at(&self, x: u64) -> f64 {
        match self.values.binary_search(&x) {
            Ok(i) => self.cdf[i],
            Err(0) => 0.0,
            Err(i) => self.cdf[i - 1],
        }
    }

    /// Complementary CDF at `x`: fraction of samples > `x` (the paper plots
    /// "1 - Prop. VPs").
    pub fn ccdf(&self, x: u64) -> f64 {
        1.0 - self.at(x)
    }

    /// Median value.
    pub fn median(&self) -> Option<u64> {
        let target = 0.5;
        for (v, c) in self.values.iter().zip(&self.cdf) {
            if *c >= target {
                return Some(*v);
            }
        }
        self.values.last().copied()
    }
}

/// Five-number-plus summary backing the violin/box plots (Figures 6/14/15).
#[derive(Debug, Clone, PartialEq)]
pub struct DistSummary {
    pub n: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

impl DistSummary {
    /// Summarize a sample; `None` when empty.
    pub fn from_samples(samples: Vec<f64>) -> Option<DistSummary> {
        Self::from_sorted(&sorted(samples))
    }

    /// Summarize a sample already in ascending order; `None` when empty.
    /// Mean and deviation sum in that order.
    pub fn from_sorted(s: &[f64]) -> Option<DistSummary> {
        debug_assert!(s.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
        Some(DistSummary {
            n: s.len(),
            mean: mean(s)?,
            std_dev: std_dev(s)?,
            min: s[0],
            p25: percentile(s, 0.25)?,
            median: percentile(s, 0.5)?,
            p75: percentile(s, 0.75)?,
            max: *s.last()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let s = sorted(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(4.0));
        assert_eq!(percentile(&s, 0.5), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), Some(5.0));
        assert_eq!(std_dev(&v), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn ecdf_fractions() {
        let e = Ecdf::from_samples(vec![1, 1, 2, 5]);
        assert_eq!(e.n, 4);
        assert_eq!(e.at(0), 0.0);
        assert_eq!(e.at(1), 0.5);
        assert_eq!(e.at(2), 0.75);
        assert_eq!(e.at(4), 0.75);
        assert_eq!(e.at(5), 1.0);
        assert!((e.ccdf(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ecdf_median() {
        assert_eq!(Ecdf::from_samples(vec![1, 2, 3, 4, 100]).median(), Some(3));
        assert_eq!(Ecdf::from_samples(vec![8; 10]).median(), Some(8));
    }

    #[test]
    fn dist_summary() {
        let d = DistSummary::from_samples(vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(d.median, 3.0);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 5.0);
        assert_eq!(d.n, 5);
        assert!(DistSummary::from_samples(vec![]).is_none());
    }

    #[test]
    fn median_u64_works() {
        assert_eq!(median_u64(vec![3, 1, 2]), Some(2));
        assert_eq!(median_u64(vec![]), None);
    }
}
