//! Order statistics over the handful of repetitions a run makes.

/// Samples that must lie beyond a percentile before it is reported
/// (`choosing-metrics` §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so a spread
/// computed here equals one computed from the result files in Python.
/// A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of nothing");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// One timed quantity over the repetitions of a run: the median (the
/// reported value) beside both quartiles and the minimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        let (q1, q3) = quartiles(xs);
        Summary {
            median: median(xs),
            q1,
            q3,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            n: xs.len(),
        }
    }
}

/// Samples strictly beyond the `p`-quantile position of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((n as f64 * p).ceil() as usize).min(n)
}

/// The `p`-quantile of `xs` (nearest rank), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it — a tail read off three samples
/// is noise, not a percentile.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(xs.len(), p) < MIN_BEYOND {
        return None;
    }
    stats::percentile(xs, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn summary_of_repetitions() {
        let s = Summary::of(&[5.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.median, s.min, s.n), (3.0, 1.0, 5));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&xs[..999], 0.99), None);
        // The median of 30 samples has 15 beyond it.
        assert_eq!(tail_percentile(&xs[..30], 0.5), Some(15.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }
}
