//! Reducers: nearest-rank percentiles inside a round, median / min / max
//! across rounds, chunked timing, and the ladder's self-time subtraction.

/// Ops timed together when a single op is too short to time alone: an op
/// under 5 µs is comparable to the ~25 ns clock read pair around it, so the
/// clock is read once per `CHUNK` ops and the chunk's time divided evenly.
pub const CHUNK: usize = 64;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `samples` in place and return their nearest-rank percentile.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile_sorted(samples, p)
}

/// Median of per-round statistics (mean of the two middle values for an
/// even count, so two rounds do not silently report the lower one).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no rounds");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One statistic reduced over the rounds of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverRounds {
    /// The reported value: the best round's statistic.
    pub best: f64,
    pub median: f64,
    pub worst: f64,
}

/// Reduce one statistic over rounds. The value reported for a run is the
/// **best round's** — the lowest of a lower-is-better statistic, the
/// highest of a higher-is-better one. Interference from the host only ever
/// makes a round worse, so the best round reads what the program does when
/// left alone, and only a run disturbed from its first round to its last
/// misreads; a change to the program moves every round, the best one too.
/// (In a bad quarter of an hour on the box this was sized on, the IQR over
/// ten launches of `refit_ms` was 82 % by the median over rounds, 15 % by
/// the best round; in a quiet one both are near 1 %.)
pub fn over_rounds(values: &[f64], higher_is_better: bool) -> OverRounds {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (lowest, highest) = (sorted[0], sorted[sorted.len() - 1]);
    let (best, worst) = if higher_is_better {
        (highest, lowest)
    } else {
        (lowest, highest)
    };
    OverRounds {
        best,
        median: median(&sorted),
        worst,
    }
}

/// Per-op time of one chunk: `elapsed_ns` spread over the `ops` it timed.
pub fn per_op_ns(elapsed_ns: u64, ops: usize) -> f64 {
    elapsed_ns as f64 / ops.max(1) as f64
}

/// A layer's self time on the ladder: its depth's p50 minus the p50 of the
/// depth below. Signed on purpose — a negative value means the two depths
/// did not do the same work and the ladder is wrong, which must show.
pub fn self_time(depth_p50: f64, below_p50: f64) -> f64 {
    depth_p50 - below_p50
}

/// Full range (max − min) as a share of the median: the within-set spread
/// `--check` prints. With three runs a set has no quartiles worth the name,
/// and the range is the stricter reading.
pub fn range_share(values: &[f64]) -> f64 {
    let r = over_rounds(values, false);
    (r.worst - r.best) / r.median.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        // Nearest rank never interpolates: the answer is always a sample.
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&s, 50.0), 20.0);
        assert_eq!(percentile_sorted(&s, 51.0), 30.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn best_median_worst_over_rounds() {
        let rounds = [5.0, 1.0, 9.0, 3.0, 7.0, 11.0];
        assert_eq!(
            over_rounds(&rounds, false),
            OverRounds {
                best: 1.0,
                median: 6.0,
                worst: 11.0
            }
        );
        assert_eq!(
            over_rounds(&rounds, true),
            OverRounds {
                best: 11.0,
                median: 6.0,
                worst: 1.0
            }
        );
        // Disturbing all rounds but one leaves the best round alone.
        let disturbed = [50.0, 1.0, 90.0, 30.0, 70.0, 110.0];
        assert_eq!(over_rounds(&disturbed, false).best, 1.0);
        assert_eq!(over_rounds(&[4.0], true).best, 4.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[2.5]), 2.5);
    }

    #[test]
    fn chunked_timing_arithmetic() {
        assert_eq!(per_op_ns(6_400, CHUNK), 100.0);
        assert_eq!(per_op_ns(300, 3), 100.0);
        // Chunk means weighted by their op counts give back the total.
        let (a, b) = (per_op_ns(6_400, 64), per_op_ns(500, 5));
        assert_eq!(a * 64.0 + b * 5.0, 6_900.0);
    }

    #[test]
    fn ladder_self_time_is_a_signed_difference() {
        assert_eq!(self_time(13.0, 10.5), 2.5);
        assert_eq!(self_time(10.0, 10.0), 0.0);
        assert!(self_time(9.0, 10.0) < 0.0);
    }

    #[test]
    fn range_share_of_a_flat_and_a_spread_sample() {
        assert_eq!(range_share(&[3.0; 3]), 0.0);
        assert!((range_share(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
    }
}
