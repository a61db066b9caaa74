//! Exact percentiles over every recorded sample.
//!
//! The cluster's `LatencyHistogram::percentile` takes `q` in percent, and
//! passing a fraction (`0.99` for p99) silently returns a near-minimum
//! value. The benchmark keeps its own helper with the quantile spelled as
//! a typed constant ([`P50`], [`P99`]) so that mistake cannot be written,
//! and it refuses to report a percentile the sample cannot support.

/// A percentile rank in percent, `0 < pct <= 100`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct(f64);

pub const P50: Pct = Pct(50.0);
pub const P99: Pct = Pct(99.0);

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

impl Pct {
    /// `pct` in percent. Panics outside `(0, 100]`: every rank the
    /// benchmark reports is a constant.
    pub fn new(pct: f64) -> Self {
        assert!(
            pct > 0.0 && pct <= 100.0,
            "percentile rank outside (0, 100]"
        );
        Pct(pct)
    }

    /// 1-based nearest rank of this percentile in a sample of `n`.
    fn rank(self, n: usize) -> usize {
        ((self.0 / 100.0 * n as f64).ceil() as usize).clamp(1, n)
    }
}

/// Median and p99 of one sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    pub count: usize,
    pub p50: u64,
    pub p99: u64,
}

impl Summary {
    /// Summarise `samples` (any order; sorted in place). `None` when the
    /// sample is empty.
    pub fn of(samples: &mut [u64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        Some(Summary {
            count: samples.len(),
            p50: percentile(samples, P50),
            p99: percentile(samples, P99),
        })
    }

    /// True when each reported percentile has at least [`MIN_BEYOND`]
    /// samples above its rank.
    pub fn supported(&self) -> bool {
        samples_beyond(self.count, P99) >= MIN_BEYOND
            && samples_beyond(self.count, P50) >= MIN_BEYOND
    }
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
pub fn percentile(sorted: &[u64], pct: Pct) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    sorted[pct.rank(sorted.len()) - 1]
}

/// How many of `n` samples rank strictly above the `pct` percentile.
pub fn samples_beyond(n: usize, pct: Pct) -> usize {
    if n == 0 {
        0
    } else {
        n - pct.rank(n)
    }
}
