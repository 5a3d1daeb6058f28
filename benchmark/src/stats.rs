//! Order statistics used for every reported number.

/// Sort a sample ascending (total order, so a NaN cannot panic the sort).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value with at
/// least `q` of the sample at or below it. 0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (mean of the middle two for an even count). 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Interquartile mean: the mean of what is left of the sorted sample once a
/// quarter of it (rounded down) is cut from each end. Centred like the
/// median, so it leans neither to the quiet nor to the slow side, but it
/// averages the middle half where the median reads one or two values: steadier
/// from run to run, and unmoved by stalls in up to a quarter of the values.
/// 0 for an empty sample.
pub fn iq_mean(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let cut = s.len() / 4;
    mean(&s[cut..s.len() - cut])
}

/// Mean. 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) — the rule the driver applies to ten runs.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values.to_vec());
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median: the driver's spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 1 000 samples leave exactly ten beyond the p99 rank.
        let t: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&t, 0.99);
        assert_eq!(t.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn iq_mean_averages_the_middle_half() {
        // Eight values: two cut from each end.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(iq_mean(&v), (2.0 + 3.0 + 4.0 + 5.0) / 4.0);
        // Five: one from each end; fewer than four: the plain mean.
        assert_eq!(iq_mean(&[9.0, 1.0, 2.0, 3.0, 0.0]), 2.0);
        assert_eq!(iq_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(iq_mean(&[7.0]), 7.0);
        assert_eq!(iq_mean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 3.0, 4.5)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 15.0, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
