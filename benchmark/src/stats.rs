//! Order statistics for the harness: medians, nearest-rank percentiles,
//! the "highest percentile with at least ten samples beyond it" rule, and
//! the quartile spread the acceptance procedure uses.

/// Percentiles a timing may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is worth quoting.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support,
/// i.e. that leaves at least [`MIN_BEYOND`] samples beyond it.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().rev().copied().find(|&p| supports(n, p))
}

/// True if `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Median of unsorted samples (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A timing reduced to what the report prints: the median, the highest
/// supported percentile, and how many samples stand behind them.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` of the highest supported tail, if any.
    pub tail: Option<(f64, f64)>,
    sorted: Vec<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = supported_tail(sorted.len()).map(|p| (p, percentile(&sorted, p)));
        Summary { n: sorted.len(), p50: median_sorted(&sorted), tail, sorted }
    }

    /// Value at a *fixed* percentile (the end-to-end metric names fix
    /// theirs); pair with [`supports`] to say whether the sample carries it.
    pub fn at(&self, p: f64) -> f64 {
        percentile(&self.sorted, p)
    }
}

/// The value a quarter of the way in from the best end of `samples`.
///
/// Interference on a shared box is one-sided: a busy SMT sibling, CPU
/// steal or a cold cache only ever make a slice slower (here by up to 2x,
/// for seconds at a time, without showing up as steal), so the median of a
/// disturbed run measures the neighbours. The best quartile of a dozen
/// short slices asks for three clean ones, and leaves the single best out
/// because one lucky slice is as unrepresentative as an unlucky one. Below
/// five samples it is the best one.
pub fn best_quartile(samples: &[f64], better: crate::spec::Better) -> f64 {
    assert!(!samples.is_empty(), "best quartile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if better == crate::spec::Better::Higher {
        v.reverse();
    }
    v[(v.len() - 1) / 4]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default *exclusive* method), so `--repeat` and `--compare` judge
/// spread exactly the way the acceptance procedure does.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Inter-quartile distance as a share of the median; `None` below two
/// values.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        // 40 samples: p75 leaves ten beyond, p90 only four.
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(100_000), Some(99.99));
    }

    #[test]
    fn summary_reports_median_and_highest_supported_tail() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.5);
        assert_eq!(s.tail, Some((95.0, 190.0)));
        assert_eq!(s.at(99.0), 198.0);
    }

    #[test]
    fn best_quartile_skips_the_luckiest_and_ignores_the_disturbed() {
        use crate::spec::Better::{Higher, Lower};
        let times = [9.0, 1.0, 1.2, 1.1, 5.0, 1.3, 7.0, 1.4, 1.5, 8.0, 1.6, 1.7];
        assert_eq!(best_quartile(&times, Lower), 1.2);
        let rates: Vec<f64> = times.iter().map(|t| 1.0 / t).collect();
        assert_eq!(best_quartile(&rates, Higher), 1.0 / 1.2);
        // Eight samples: the second best. Up to four: the best.
        assert_eq!(best_quartile(&[8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0], Lower), 2.0);
        assert_eq!(best_quartile(&[3.0, 1.0, 2.0], Lower), 1.0);
        assert_eq!(best_quartile(&[3.0, 1.0, 2.0], Higher), 3.0);
        assert_eq!(best_quartile(&[4.0], Lower), 4.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 4.0, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
