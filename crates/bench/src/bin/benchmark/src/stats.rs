//! Order statistics for the benchmark's reports: medians, quartiles, and
//! the rule for which percentile a sample count can support.

/// Median, quartiles and sample count of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile distance as a share of the median — the figure the
    /// noise checks compare against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartile `i` (1..=3) of sorted data by the exclusive method, exactly as
/// Python's `statistics.quantiles(data, n=4)` computes it, so spreads
/// printed here agree with the ones the pipeline derives from its runs.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let ld = sorted.len();
    if ld == 1 {
        return sorted[0];
    }
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Summarize a non-empty sample.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summarize: empty sample");
    let s = sorted(xs);
    Summary {
        n: s.len(),
        median: quartile(&s, 2),
        q1: quartile(&s, 1),
        q3: quartile(&s, 3),
    }
}

pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

/// Whether `n` samples support reporting percentile `p` (0..100): at least
/// ten samples must lie beyond it. With the k ≤ 20 repetitions of a timing
/// not even the 90th percentile qualifies, which is why timings are
/// reported as median and quartiles only.
pub fn supports_percentile(n: u64, p: f64) -> bool {
    n as f64 * (100.0 - p) / 100.0 >= 10.0
}

/// Percentile `p` of a histogram whose bucket `b` counts the samples with
/// value exactly `b` (the shape of `RequestStats::latency_histogram`): the
/// smallest value with at least `p` percent of the samples at or below it.
/// `None` when the histogram holds too few samples to support `p`.
pub fn hist_percentile(hist: &[u64], p: f64) -> Option<u64> {
    let total: u64 = hist.iter().sum();
    if !supports_percentile(total, p) {
        return None;
    }
    let need = (total as f64 * p / 100.0).ceil() as u64;
    let mut seen = 0;
    for (value, &count) in hist.iter().enumerate() {
        seen += count;
        if seen >= need {
            return Some(value as u64);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([7, 1, 3], n=4) == [1.0, 3.0, 7.0]
        let s = summarize(&[7.0, 1.0, 3.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (3, 1.0, 3.0, 7.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(summarize(&[4.0]).spread(), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // Timings: no repetition count the benchmark uses supports p90.
        assert!(!supports_percentile(15, 50.0));
        assert!(supports_percentile(20, 50.0));
        assert!(!supports_percentile(20, 90.0));
        assert!(supports_percentile(100, 90.0));
        // Lookups: 1000 samples support p99 exactly, 999 do not.
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(999, 99.0));
    }

    #[test]
    fn histogram_percentiles() {
        // 1000 samples: 500 at 2 rounds, 480 at 3, 15 at 7, 5 at 9.
        let mut hist = vec![0u64; 10];
        hist[2] = 500;
        hist[3] = 480;
        hist[7] = 15;
        hist[9] = 5;
        assert_eq!(hist_percentile(&hist, 50.0), Some(2));
        assert_eq!(hist_percentile(&hist, 99.0), Some(7));
        assert_eq!(hist_percentile(&hist, 99.9), None, "only 1 sample beyond");
        assert_eq!(hist_percentile(&[3, 4], 50.0), None, "7 samples");
        assert_eq!(hist_percentile(&[], 50.0), None);
    }
}
