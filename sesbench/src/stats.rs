//! Exact order statistics over raw samples.
//!
//! End-to-end percentiles are computed from every recorded sample, never
//! from a bucketed histogram. A tail percentile is reported only when at
//! least [`MIN_BEYOND`] samples lie strictly beyond its rank, so a p99 needs
//! at least 1,000 samples and a p50 at least 20.

/// Samples that must lie beyond a percentile's rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A sorted copy of a sample set with nearest-rank percentiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts the samples (NaN-free input; NaN sorts last).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.total_cmp(b));
        Self { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// 1-based nearest rank of quantile `q` in `n` samples: `ceil(q·n)`,
    /// clamped to `1..=n`.
    fn rank(n: usize, q: f64) -> usize {
        ((q * n as f64).ceil() as usize).clamp(1, n)
    }

    /// Samples strictly beyond the rank of quantile `q`.
    pub fn beyond(&self, q: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - Self::rank(self.sorted.len(), q)
    }

    /// The nearest-rank quantile, with no sample-count rule (for medians of
    /// repeated layer timings and for the steadiness summary).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[Self::rank(self.sorted.len(), q) - 1])
    }

    /// The quantile, but only when at least [`MIN_BEYOND`] samples lie
    /// beyond it; otherwise `None`.
    pub fn reportable(&self, q: f64) -> Option<f64> {
        if self.beyond(q) < MIN_BEYOND {
            return None;
        }
        self.quantile(q)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

/// A tail percentile that one burst of host noise cannot move: the samples
/// (in the order they were taken) are cut into up to `max_rounds`
/// consecutive rounds of at least `per_round` samples each, the percentile
/// is taken exactly within each round (which must itself have ten samples
/// beyond it), and the median over rounds is reported with the round
/// count. `None` when there are too few samples for one round.
pub fn round_median(
    in_order: &[f64],
    q: f64,
    per_round: usize,
    max_rounds: usize,
) -> Option<(f64, usize)> {
    let rounds = (in_order.len() / per_round.max(1)).min(max_rounds);
    if rounds == 0 {
        return None;
    }
    let per = in_order.len() / rounds;
    let values: Option<Vec<f64>> = (0..rounds)
        .map(|r| {
            let end = if r + 1 == rounds {
                in_order.len()
            } else {
                (r + 1) * per
            };
            Samples::new(in_order[r * per..end].to_vec()).reportable(q)
        })
        .collect();
    Some((median(&values?), rounds))
}

/// Median of a small set of repeated measurements (set-up rounds, layer
/// repetitions). Panics on an empty set: every caller measures at least
/// once.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec())
        .quantile(0.5)
        .expect("median of at least one measurement")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn nearest_rank_on_a_ramp() {
        let s = ramp(100);
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.9), Some(90.0));
        assert_eq!(s.quantile(0.99), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
    }

    #[test]
    fn input_order_does_not_matter() {
        let a = Samples::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(a.quantile(0.5), Some(3.0));
        assert_eq!(a.max(), Some(5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 999 samples has rank 990: only 9 beyond — not reportable.
        assert_eq!(ramp(999).beyond(0.99), 9);
        assert_eq!(ramp(999).reportable(0.99), None);
        // 1,000 samples: rank 990, 10 beyond — reportable.
        assert_eq!(ramp(1000).beyond(0.99), 10);
        assert_eq!(ramp(1000).reportable(0.99), Some(990.0));
        // p90 needs 100 samples, p50 needs 20.
        assert_eq!(ramp(99).reportable(0.9), None);
        assert_eq!(ramp(100).reportable(0.9), Some(90.0));
        assert_eq!(ramp(19).reportable(0.5), None);
        assert_eq!(ramp(20).reportable(0.5), Some(10.0));
    }

    #[test]
    fn empty_sets_report_nothing() {
        let s = Samples::new(Vec::new());
        assert_eq!(s.len(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.reportable(0.5), None);
        assert_eq!(s.beyond(0.5), 0);
    }

    #[test]
    fn round_median_ignores_one_noisy_round() {
        // Three rounds of 100; the middle one is slowed 10x throughout.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.extend((1..=100).map(|i| f64::from(i) * 10.0));
        v.extend((1..=100).map(f64::from));
        let (p90, rounds) = round_median(&v, 0.9, 100, 5).unwrap();
        assert_eq!(rounds, 3);
        assert_eq!(p90, 90.0);
        // The pooled p90 is dragged into the noisy round.
        assert!(Samples::new(v).quantile(0.9).unwrap() > 90.0);
    }

    #[test]
    fn round_median_needs_a_full_round() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(round_median(&v, 0.9, 100, 5), None);
        // Leftover samples join the last round; rounds are capped.
        let v: Vec<f64> = (1..=1050).map(f64::from).collect();
        assert_eq!(round_median(&v, 0.9, 100, 5).map(|r| r.1), Some(5));
        let v: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(round_median(&v, 0.9, 100, 5).map(|r| r.1), Some(2));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Nearest rank: the lower middle of an even set.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
