//! Median, quartiles and spread of a sample.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the driver computes
//! over the per-run values: a spread printed here can be compared with the
//! driver's directly.

/// Order statistics of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    pub median: f64,
    /// First quartile (equal to the median for a single sample).
    pub q1: f64,
    /// Third quartile (equal to the median for a single sample).
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&v);
        Some(Summary {
            n: v.len(),
            median: median(&v),
            q1,
            q3,
            min: v[0],
            max: v[v.len() - 1],
        })
    }

    /// Inter-quartile distance as a share of the median (0 when the median
    /// is 0, which only exact counters reach).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of an ascending, non-empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile of an ascending, non-empty slice.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld < 2 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        // j = i·(ld+1) div 4, clamped to [1, ld−1]; delta = i·(ld+1) − 4j.
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median of an unsorted, non-empty sample.
pub fn median_of(values: &[f64]) -> f64 {
    Summary::of(values).expect("non-empty sample").median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median_of(&[9.0, 1.0, 2.0]), 2.0);
    }

    /// Reference values from CPython:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` = [2.75, 5.5, 8.25],
    /// `statistics.quantiles([3,1,4,1,5,9,2], n=4)` = [1.0, 3.0, 5.0],
    /// `statistics.quantiles([1, 2], n=4)` = [0.75, 1.5, 2.25].
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        let s = Summary::of(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 5.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 9.0, 7));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = Summary::of(&[4.2]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.2, 4.2, 4.2));
        assert_eq!(s.spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
    }
}
