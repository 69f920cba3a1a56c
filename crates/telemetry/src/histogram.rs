//! Fixed-bucket log-scale histograms with lock-free recording.
//!
//! The bucket grid is **static and shared by every histogram**: after a
//! linear run for the smallest values, each power-of-two octave is split
//! into four linear sub-buckets, so every recorded value lands in a
//! bucket whose upper bound is at most 12.5% above its lower bound.
//!
//! Recording is one relaxed `fetch_add` on the bucket counter plus one
//! on the sum — no locks, no allocation — so the serve loop can record
//! on the hot path. Counts are monotone, which is exactly what the
//! Prometheus exposition (`_bucket`/`_sum`/`_count`) requires of a
//! live-scraped histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Linear sub-buckets per power-of-two octave.
const SUBS: u64 = 4;
/// The grid tops out at `2^MAX_OCTAVE`; larger values land in the
/// overflow bucket. `2^40` microseconds is ~12.7 days, `2^40` nodes is
/// far beyond any arena this process could hold.
const MAX_OCTAVE: u32 = 40;

/// The shared bucket upper bounds, strictly increasing. Bucket `i`
/// counts values `v` with `bounds[i-1] < v <= bounds[i]` (bucket 0
/// counts `v <= bounds[0]`, i.e. 0 and 1); one extra overflow bucket
/// catches everything above the last bound.
pub fn bucket_bounds() -> &'static [u64] {
    static BOUNDS: OnceLock<Vec<u64>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut bounds: Vec<u64> = (1..=SUBS).collect(); // 1, 2, 3, 4
        let mut base = SUBS; // divisible by SUBS from here on
        while base < 1u64 << MAX_OCTAVE {
            let step = base / SUBS;
            for s in 1..=SUBS {
                bounds.push(base + s * step); // 5 6 7 8, 10 12 14 16, ...
            }
            base *= 2;
        }
        bounds
    })
}

/// The bucket index of one value on the shared grid (the overflow
/// bucket is `bucket_bounds().len()`).
pub fn bucket_index(v: u64) -> usize {
    bucket_bounds().partition_point(|&b| b < v)
}

/// A lock-free histogram over the shared log-scale grid.
///
/// `record` is wait-free (two relaxed atomic adds); `snapshot` reads
/// the counters without stopping writers, so a snapshot taken during
/// concurrent recording is some valid interleaving — each individual
/// counter is exact and monotone.
#[derive(Debug)]
pub struct Histogram {
    /// One counter per grid bucket plus the trailing overflow bucket.
    buckets: Box<[AtomicU64]>,
    /// Sum of every recorded value (exact, u64 saturating in practice:
    /// ~584k years of microseconds before wrap).
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram on the shared grid.
    pub fn new() -> Histogram {
        let n = bucket_bounds().len() + 1;
        Histogram {
            buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value: two relaxed atomic adds, no locks.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A plain-data copy of the current counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: plain data, quantile
/// queries, and the cumulative view Prometheus needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, aligned with [`bucket_bounds`] plus one
    /// trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the bucket
    /// holding the value of rank `ceil(q * count)` — i.e. an upper bound
    /// on the true quantile that is exact up to the grid resolution
    /// (<= 12.5% above the true value). Returns 0 for an empty
    /// histogram; overflow-bucket quantiles report the last grid bound.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let bounds = bucket_bounds();
                return bounds[i.min(bounds.len() - 1)];
            }
        }
        unreachable!("cumulative count reaches the total")
    }

    /// Cumulative `(upper_bound, count_le)` pairs in grid order; the
    /// final pair is `(None, total)` — Prometheus's `+Inf` bucket.
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let bounds = bucket_bounds();
        let mut out = Vec::with_capacity(self.counts.len());
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            out.push((bounds.get(i).copied(), cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing_and_log_scale() {
        let b = bucket_bounds();
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(&b[..12], &[1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16]);
        // Relative grid resolution: each step is at most 25% of the
        // lower bound past the linear run.
        for w in b.windows(2) {
            assert!(w[1] - w[0] <= w[0].div_ceil(SUBS), "{w:?}");
        }
        assert_eq!(*b.last().unwrap(), 1 << MAX_OCTAVE);
    }

    #[test]
    fn index_respects_bucket_semantics() {
        let b = bucket_bounds();
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        for (i, &bound) in b.iter().enumerate() {
            assert_eq!(bucket_index(bound), i, "bound {bound} is inclusive");
            assert_eq!(bucket_index(bound + 1), i + 1, "next value spills over");
        }
        assert_eq!(bucket_index(u64::MAX), b.len(), "overflow bucket");
    }

    #[test]
    fn record_quantile_and_cumulative() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum, 500_500);
        // The p50 of 1..=1000 is 500; its bucket upper bound is 512.
        assert_eq!(s.quantile(0.5), 512);
        // The +Inf cumulative entry carries the total.
        assert_eq!(s.cumulative().last().unwrap(), &(None, 1000));
    }
}
