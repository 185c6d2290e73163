//! Order statistics shared by every phase: medians, the tail percentile a
//! sample supports, and the capacity rule behind `max_rate_rps`.

/// Percentiles the benchmark reports as a tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: f64 = 10.0;

/// The highest percentile of [`TAIL_LADDER`] with at least ten of `n`
/// samples beyond it, or the median when no tail is supported.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice; `NaN` when
/// the slice is empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// Summary of one latency sample: count, median and supported tail.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Samples taken.
    pub n: usize,
    /// Median in milliseconds.
    pub p50_ms: f64,
    /// The percentile [`tail_percentile`] chose for `n`.
    pub tail_p: f64,
    /// That percentile, in milliseconds.
    pub tail_ms: f64,
}

impl Latency {
    /// Summarises latencies given in milliseconds.
    pub fn of(values_ms: &[f64]) -> Latency {
        let mut v = values_ms.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(v.len());
        Latency {
            n: v.len(),
            p50_ms: percentile_sorted(&v, 50.0),
            tail_p,
            tail_ms: percentile_sorted(&v, tail_p),
        }
    }
}

/// The outcome of one open-loop rate on the read ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered rate, requests per second over all connections.
    pub rate: f64,
    /// Latency of the requests that succeeded.
    pub latency: Latency,
    /// Requests sent.
    pub attempted: usize,
    /// Requests that failed, were refused or never completed.
    pub failed: usize,
    /// Whether requests outstanding grew over the rung.
    pub backlog_growing: bool,
}

/// The highest rung whose p99 is within `limit_ms` with no failure and no
/// growing backlog; 0 when no rung qualifies. A rung with too few samples
/// to support a p99 cannot qualify.
pub fn max_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| {
            r.failed == 0
                && !r.backlog_growing
                && r.latency.tail_p >= 99.0
                && r.latency.tail_ms <= limit_ms
        })
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 98.0);
        assert_eq!(tail_percentile(500), 98.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile_sorted(&[], 50.0).is_nan());
    }

    fn rung(rate: f64, tail_ms: f64, failed: usize, backlog_growing: bool) -> Rung {
        Rung {
            rate,
            latency: Latency::of(&[vec![tail_ms / 2.0; 980], vec![tail_ms; 20]].concat()),
            attempted: 1_000,
            failed,
            backlog_growing,
        }
    }

    #[test]
    fn max_rate_takes_highest_qualifying_rung() {
        let rungs = [
            rung(50.0, 3.0, 0, false),
            rung(100.0, 8.0, 0, false),
            rung(200.0, 12.0, 0, false),
            rung(400.0, 4.0, 1, false),
            rung(800.0, 4.0, 0, true),
        ];
        assert_eq!(max_rate(&rungs, 10.0), 100.0);
    }

    #[test]
    fn max_rate_needs_a_p99() {
        let mut short = rung(400.0, 3.0, 0, false);
        short.latency = Latency::of(&[3.0; 500]);
        assert_eq!(short.latency.tail_p, 98.0);
        assert_eq!(max_rate(&[rung(50.0, 3.0, 0, false), short], 10.0), 50.0);
    }

    #[test]
    fn max_rate_is_zero_when_no_rung_meets_the_limit() {
        let rungs = [rung(50.0, 40.0, 0, false), rung(100.0, 41.0, 0, false)];
        assert_eq!(max_rate(&rungs, 10.0), 0.0);
        assert_eq!(max_rate(&[], 10.0), 0.0);
    }
}
