//! Order statistics for latency samples and for run-to-run spread.

/// The `p`-quantile (0..=1) of `samples` by the nearest-rank rule: the
/// smallest sample with at least `p` of the samples at or below it. No
/// interpolation, so every reported latency is one that was measured.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median, averaging the two middle samples of an even count (so the
/// median of per-window figures is not biased towards the slower window).
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the rule the
/// acceptance check applies to ten runs, reproduced so `--repeat` prints
/// the same spread.
pub fn quartiles(samples: &mut [f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based; like Python, the index is clamped into
        // the sample range and the fraction is not.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        samples[j - 1] + (samples[j] - samples[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The mean after dropping the smallest and the largest sample (the plain
/// mean of fewer than three). Where the samples trend — a workload that
/// ages its database gets slower window by window — the median is just the
/// middle window with all its sampling noise; this averages the middle.
pub fn trimmed_mean(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "trimmed mean of no samples");
    samples.sort_by(f64::total_cmp);
    if samples.len() < 3 {
        mean(samples)
    } else {
        mean(&samples[1..samples.len() - 1])
    }
}

/// Timed samples of one phase, each stamped with when it ended, cut into
/// equal windows. A metric is computed per window and the windows' trimmed
/// mean is reported: one noisy window (a scheduler hiccup on a two-core
/// box) is dropped, not averaged in.
pub struct Windows {
    pub count: usize,
    pub len_ns: u64,
}

impl Windows {
    pub fn new(total_ns: u64, count: usize) -> Windows {
        Windows { count, len_ns: (total_ns / count as u64).max(1) }
    }

    /// Bucket `(end_ns, value)` samples by window; samples that ended after
    /// the last window closed are left out of every window.
    pub fn split(&self, samples: &[(u64, f64)]) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); self.count];
        for &(end_ns, v) in samples {
            let w = (end_ns / self.len_ns) as usize;
            if w < self.count {
                out[w].push(v);
            }
        }
        out
    }

    /// Trimmed mean over windows of the per-window `p`-quantile. Windows with
    /// no sample are skipped; `None` when every window is empty.
    pub fn quantile(&self, samples: &[(u64, f64)], p: f64) -> Option<f64> {
        let mut per: Vec<f64> = self
            .split(samples)
            .into_iter()
            .filter(|w| !w.is_empty())
            .map(|mut w| percentile(&mut w, p))
            .collect();
        (!per.is_empty()).then(|| trimmed_mean(&mut per))
    }

    /// Trimmed mean over windows of samples completed per second.
    pub fn rate_per_s(&self, samples: &[(u64, f64)]) -> f64 {
        let secs = self.len_ns as f64 / 1e9;
        let mut per: Vec<f64> =
            self.split(samples).into_iter().map(|w| w.len() as f64 / secs).collect();
        trimmed_mean(&mut per)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.95), 95.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        let mut one = vec![7.0];
        assert_eq!(percentile(&mut one, 0.95), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&mut v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&mut [1.0, 2.0, 3.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([5, 1, 9, 3, 7, 2], n=4) == [1.75, 4.0, 7.5]
        let (q1, q3) = quartiles(&mut [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]);
        assert_eq!((q1, q3), (1.75, 7.5));
    }

    #[test]
    fn trimmed_mean_drops_both_extremes() {
        assert_eq!(trimmed_mean(&mut [9.0, 1.0, 2.0, 3.0, 100.0]), (2.0 + 3.0 + 9.0) / 3.0);
        assert_eq!(trimmed_mean(&mut [4.0, 2.0]), 3.0);
    }

    #[test]
    fn windows_drop_the_extreme_windows() {
        let w = Windows::new(300, 3);
        // Window 0: two fast samples; window 1: one slow; window 2: one fast;
        // one sample past the end is ignored.
        let s = [(10, 1.0), (20, 1.0), (150, 9.0), (250, 2.0), (301, 100.0)];
        assert_eq!(w.split(&s).iter().map(Vec::len).collect::<Vec<_>>(), vec![2, 1, 1]);
        assert_eq!(w.quantile(&s, 0.5), Some(2.0));
        assert_eq!(w.rate_per_s(&s), 1.0 / 100e-9);
    }
}
