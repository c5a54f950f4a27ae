//! Summary statistics with the benchmark's sample-count discipline.
//!
//! Every reported percentile is the *highest* percentile, not above the
//! one asked for, that still has at least [`TAIL_SAMPLES`] samples beyond
//! it; the percentile actually used and the sample count travel with the
//! value, so a "p99" measured over 300 samples reads as what it is.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// One percentile as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The value at the percentile, in the unit of the samples.
    pub value: f64,
    /// The percentile actually reported, in `(0, 1]`.
    pub quantile: f64,
    /// Number of samples it was taken over.
    pub samples: usize,
}

/// The highest nearest-rank percentile `<= q` of `sorted` (ascending) with
/// at least [`TAIL_SAMPLES`] samples beyond it. `None` when there are too
/// few samples for any percentile to qualify.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Pct> {
    let n = sorted.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = wanted.min(n - 1 - TAIL_SAMPLES);
    Some(Pct {
        value: sorted[idx],
        quantile: (idx + 1) as f64 / n as f64,
        samples: n,
    })
}

/// Median and tail of one latency sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub p50: Pct,
    /// The tail, asked for at 0.99.
    pub p99: Pct,
}

/// Sorts `samples` and summarizes them; `None` with too few samples.
pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    Some(Summary {
        p50: percentile(samples, 0.5)?,
        p99: percentile(samples, 0.99)?,
    })
}

/// The median of an unsorted set (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the values left after dropping the lowest and the highest
/// `trim` share of them; `None` when nothing is left.
pub fn trimmed_mean(values: &[f64], trim: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    let cut = (v.len() as f64 * trim).floor() as usize;
    let kept = v.get(cut..v.len().saturating_sub(cut))?;
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// The nearest-rank lower quartile of `values`: of 8 values, the second
/// smallest. `None` for an empty set.
pub fn lower_quartile(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    let rank = (v.len() as f64 * 0.25).ceil() as usize;
    v.get(rank.max(1) - 1).copied()
}

/// How one rung of the offered-rate ladder went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, req/s.
    pub offered_rps: f64,
    /// Successful replies per second over the phase.
    pub goodput_rps: f64,
    /// The tail percentile of the rung's latencies, ms.
    pub p99_ms: Option<f64>,
    /// Failed requests (error frames, sheds, timeouts, failed checks).
    pub failures: u64,
    /// The generator itself ran later than its bound.
    pub late: bool,
    /// Latency grew across the phase: the server fell behind.
    pub backlog_growing: bool,
}

impl Rung {
    /// Whether the rung meets the workload's latency limit cleanly.
    pub fn passes(&self, p99_limit_ms: f64) -> bool {
        self.failures == 0
            && !self.late
            && !self.backlog_growing
            && self.p99_ms.is_some_and(|p| p <= p99_limit_ms)
    }
}

/// `max_ok_rps`: the goodput of the highest rung that passes, 0 when none
/// does. A failed or late lower rung does not hide a clean higher one:
/// the rate a deployment can sustain is the highest one it sustained.
pub fn max_ok_rps(rungs: &[Rung], p99_limit_ms: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| r.passes(p99_limit_ms))
        .max_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps))
        .map_or(0.0, |r| r.goodput_rps)
}

/// Whether latencies (in due-time order) show a queue that kept growing:
/// the median of the last quarter exceeds twice the first quarter's
/// median by more than `slack_ms`.
pub fn backlog_growing(latencies_in_order: &[f64], slack_ms: f64) -> bool {
    let n = latencies_in_order.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = median(&latencies_in_order[..q]);
    let last = median(&latencies_in_order[n - q..]);
    last > 2.0 * first + slack_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        // 2000 samples: p99 is rank 1980, with 20 beyond it.
        let p = percentile(&ramp(2000), 0.99).unwrap();
        assert_eq!(p.value, 1980.0);
        assert_eq!(p.samples, 2000);
        assert!((p.quantile - 0.99).abs() < 1e-12);
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        let p = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!(p.value, 990.0);
        // 300 samples: p99 would leave 3 beyond; fall back to rank 290.
        let p = percentile(&ramp(300), 0.99).unwrap();
        assert_eq!(p.value, 290.0);
        assert!((p.quantile - 290.0 / 300.0).abs() < 1e-12);
        // The median is unaffected by the tail rule once n is large enough.
        assert_eq!(percentile(&ramp(300), 0.5).unwrap().value, 150.0);
    }

    #[test]
    fn percentile_needs_more_than_ten_samples() {
        assert!(percentile(&ramp(10), 0.5).is_none());
        assert!(percentile(&[], 0.99).is_none());
        let p = percentile(&ramp(11), 0.99).unwrap();
        assert_eq!(p.value, 1.0);
        assert_eq!(percentile(&ramp(11), 0.5).unwrap().value, 1.0);
    }

    fn rung(offered: f64, p99: f64) -> Rung {
        Rung {
            offered_rps: offered,
            goodput_rps: offered * 0.99,
            p99_ms: Some(p99),
            failures: 0,
            late: false,
            backlog_growing: false,
        }
    }

    #[test]
    fn max_ok_takes_the_highest_passing_rung() {
        let rungs = [rung(100.0, 1.0), rung(500.0, 2.0), rung(800.0, 9.0)];
        assert_eq!(max_ok_rps(&rungs, 5.0), 500.0 * 0.99);
        assert_eq!(max_ok_rps(&rungs, 10.0), 800.0 * 0.99);
        assert_eq!(max_ok_rps(&rungs, 0.5), 0.0);
    }

    #[test]
    fn max_ok_skips_failed_late_and_backlogged_rungs() {
        let mut failed = rung(800.0, 1.0);
        failed.failures = 1;
        let rungs = [rung(100.0, 1.0), rung(500.0, 1.0), failed];
        assert_eq!(max_ok_rps(&rungs, 5.0), 500.0 * 0.99);

        let mut late = rung(500.0, 1.0);
        late.late = true;
        let rungs = [rung(100.0, 1.0), late, failed];
        assert_eq!(max_ok_rps(&rungs, 5.0), 100.0 * 0.99);

        // A late middle rung does not hide a clean top rung.
        let rungs = [rung(100.0, 1.0), late, rung(800.0, 1.0)];
        assert_eq!(max_ok_rps(&rungs, 5.0), 800.0 * 0.99);

        let mut backlog = rung(800.0, 1.0);
        backlog.backlog_growing = true;
        let mut empty = rung(500.0, 1.0);
        empty.p99_ms = None;
        let rungs = [rung(100.0, 1.0), empty, backlog];
        assert_eq!(max_ok_rps(&rungs, 5.0), 100.0 * 0.99);
    }

    #[test]
    fn growing_backlog_is_detected() {
        let steady: Vec<f64> = (0..400).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect();
        assert!(!backlog_growing(&steady, 0.5));
        let growing: Vec<f64> = (0..400).map(|i| 1.0 + i as f64 * 0.05).collect();
        assert!(backlog_growing(&growing, 0.5));
    }

    #[test]
    fn lower_quartile_is_nearest_rank() {
        let eight = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
        assert_eq!(lower_quartile(&eight), Some(2.0));
        assert_eq!(lower_quartile(&[5.0]), Some(5.0));
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(lower_quartile(&[]), None);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut v: Vec<f64> = (1..=8).map(f64::from).collect();
        v.extend([1000.0, -1000.0]);
        // Ten values, one cut from each end: the mean of 1..=8.
        assert_eq!(trimmed_mean(&v, 0.1), Some(4.5));
        assert_eq!(trimmed_mean(&[2.0, 4.0], 0.1), Some(3.0));
        assert_eq!(trimmed_mean(&[], 0.1), None);
        assert_eq!(trimmed_mean(&[1.0, 2.0], 0.5), None);
    }
}
