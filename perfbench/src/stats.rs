//! Order statistics with an explicit sample-count guard.
//!
//! Percentiles are nearest-rank ([`obs::SlidingWindow::quantile`]): the
//! `q`-percentile of `n` samples is the smallest sample with at least
//! `⌈q·n⌉` samples at or below it, so every reported value is one that
//! was actually measured. A tail percentile (above the median) is only
//! defined from [`TAIL_MIN_SAMPLES`] samples up, which leaves at least ten
//! samples beyond a p90: a p90 taken from a handful of per-app samples is
//! the slowest app, not a percentile.

/// Fewest samples a percentile above the median may be drawn from.
pub const TAIL_MIN_SAMPLES: usize = 100;

/// Nearest-rank `q`-percentile (`q` in `(0, 1]`) of samples in
/// nanoseconds, or `None` when there are too few samples: none at all,
/// or fewer than [`TAIL_MIN_SAMPLES`] for `q > 0.5`.
pub fn percentile(samples_ns: &[u64], q: f64) -> Option<u64> {
    if q > 0.5 && samples_ns.len() < TAIL_MIN_SAMPLES {
        return None;
    }
    let mut window = obs::SlidingWindow::new(samples_ns.len());
    samples_ns.iter().for_each(|&s| window.push(s));
    window.quantile(q)
}

/// Each operation's nearest-rank median over the repetitions of a run:
/// `reps[r][i]` is the time of operation `i` in repetition `r`, and every
/// repetition performs the same operations in the same order. A
/// repetition of another length than the first (a pass that decided
/// differently, which fails the run's checks anyway) is left out.
///
/// A percentile over these medians is one over the operations, each
/// taken at its typical time: one slow repetition of an operation near
/// the percentile's rank moves it less than in the pooled samples.
pub fn per_operation_medians(reps: &[Vec<u64>]) -> Vec<u64> {
    let Some(first) = reps.first() else { return Vec::new() };
    let aligned: Vec<&Vec<u64>> = reps.iter().filter(|r| r.len() == first.len()).collect();
    (0..first.len())
        .map(|i| {
            let times: Vec<u64> = aligned.iter().map(|r| r[i]).collect();
            percentile(&times, 0.5).expect("the first repetition is aligned")
        })
        .collect()
}

/// The conventional median (mean of the two middle values for an even
/// count) of repeated whole-run measurements such as set-up or pass time.
///
/// # Panics
///
/// Panics on an empty slice: every run measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no measurements");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_a_measured_sample() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), Some(50));
        assert_eq!(percentile(&s, 0.9), Some(90));
        assert_eq!(percentile(&s, 0.99), Some(99));
        assert_eq!(percentile(&s, 1.0), Some(100));
        // Input order does not matter.
        let rev: Vec<u64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.9), percentile(&s, 0.9));
        // Ranks round up: the p50 of three samples is the second.
        assert_eq!(percentile(&[3, 1, 2], 0.5), Some(2));
        assert_eq!(percentile(&[7], 0.5), Some(7));
    }

    #[test]
    fn tail_percentiles_need_a_hundred_samples() {
        // One sample per corpus app: the "p90" of this set is simply the
        // slowest app's whole run (K9Mail), not a tail of anything.
        let per_app_us = [7_000, 14_000, 400, 436_000, 4_000, 1_656_000, 2_031_000];
        assert_eq!(percentile(&per_app_us, 0.9), None);
        assert_eq!(percentile(&per_app_us, 0.5), Some(14_000));
        let ninety_nine: Vec<u64> = (0..99).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        let hundred: Vec<u64> = (0..100).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(89));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn per_operation_medians_align_repetitions() {
        let reps = vec![vec![1, 10, 100], vec![3, 30, 300], vec![2, 20, 200], vec![9, 9]];
        assert_eq!(per_operation_medians(&reps), vec![2, 20, 200]);
        assert_eq!(per_operation_medians(&reps[..1]), vec![1, 10, 100]);
        assert!(per_operation_medians(&[]).is_empty());
    }

    #[test]
    fn median_of_repeated_measurements() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
