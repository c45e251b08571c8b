//! Order statistics for the benchmark's reported numbers.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it, so a p99 needs
//! at least 1000 samples. Quartiles follow the "exclusive" method of
//! Python's `statistics.quantiles(values, n=4)`, the rule the run-to-run
//! spread of the benchmark is judged by.

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Sorted copy of `values` (total order, so NaN cannot scramble it).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank percentile `p` (0 < p < 100) of `values`, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < TAIL_SAMPLES {
        return None;
    }
    Some(v[rank - 1])
}

/// Smallest sample count for which [`percentile`] reports `p`.
pub fn min_samples(p: f64) -> usize {
    (1..=1_000_000)
        .find(|&n| {
            let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
            n >= rank + TAIL_SAMPLES
        })
        .unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 5, 9, 13, 17], n=4) == [3.0, 9.0, 15.0]
        assert_eq!(
            quartiles(&[17.0, 1.0, 13.0, 5.0, 9.0]),
            Some([3.0, 9.0, 15.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples: rank 990, ten samples beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // 999 samples leave only nine beyond rank 990.
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(50.0), 20);
        // The median of 20 samples is rank 10, the 10th smallest.
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
    }
}
