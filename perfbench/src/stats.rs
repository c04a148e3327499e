//! Sample statistics: nearest-rank percentiles with an explicit tail-size
//! rule, plus the small helpers the workloads share.

/// Samples a percentile must leave beyond it before it is reported: a p90
/// resting on fewer than this many slower samples is a guess, not a tail.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it. Returns the
/// value and the number of samples strictly beyond its rank, or `None`
/// when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let n = sorted.len();
    // Rank in 1..=n; the integer form avoids float rounding at exact
    // multiples (p90 of 100 samples is rank 90, not 91).
    let rank = ((p * n as f64) / 100.0).ceil().clamp(1.0, n as f64) as usize;
    let beyond = n - rank;
    (beyond >= MIN_TAIL).then(|| (sorted[rank - 1], beyond))
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even). `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a ratio over no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fisher–Yates shuffle driven by a SplitMix64 stream: the permutation is
/// a pure function of `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = vexec::SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: rank 90, exactly ten beyond — the smallest sample
        // that can carry a p90.
        assert_eq!(percentile(&ramp(100), 90.0), Some((90.0, 10)));
        // 99 samples: rank ceil(89.1) = 90, nine beyond — refused.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(101), 90.0), Some((91.0, 10)));
    }

    #[test]
    fn p50_is_the_nearest_rank_median() {
        assert_eq!(percentile(&ramp(20), 50.0), Some((10.0, 10)));
        assert_eq!(percentile(&ramp(21), 50.0), Some((11.0, 10)));
        assert_eq!(percentile(&ramp(19), 50.0), None);
    }

    #[test]
    fn percentile_rejects_empty_and_out_of_range() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(100), 101.0), None);
        assert_eq!(percentile(&ramp(100), -1.0), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..24).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..24).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
    }
}
