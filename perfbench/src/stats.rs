//! Summary statistics over repeated measurements.
//!
//! The quartiles follow Python's `statistics.quantiles(data, n=4)` (its
//! default `exclusive` method) exactly, so a spread computed here matches
//! one computed from the printed values with the standard library.

/// Median of `xs` (the mean of the two middle values for an even count);
/// `None` for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by Python's `statistics.quantiles(xs, n=4)`
/// (exclusive method, positions clamped to the data as CPython does);
/// `None` with fewer than two values.
#[must_use]
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        // `delta` may be negative after clamping, so compute it signed.
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the spread measure the
/// benchmark's bounds are stated in. `None` when undefined.
#[must_use]
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Percentiles [`high_percentile`] may report, highest last.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// A tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `90.0`.
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond its nearest rank; `None` with fewer than 20 samples.
#[must_use]
pub fn high_percentile(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    LADDER.iter().rev().find_map(|&pct| {
        let rank = ((n as f64) * pct / 100.0).ceil() as usize;
        let beyond = n.checked_sub(rank)?;
        (rank >= 1 && beyond >= 10).then(|| Tail {
            pct,
            value: s[rank - 1],
            beyond,
        })
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&xs).unwrap();
        assert!((share - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(high_percentile(&xs(19)), None);
        let t = high_percentile(&xs(20)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
        let t = high_percentile(&xs(100)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        let t = high_percentile(&xs(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        let t = high_percentile(&xs(10_000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));
    }
}
