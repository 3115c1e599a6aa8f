//! A fixed-size power-of-two-bucket [`Histogram`] of `u64` samples.
//!
//! Stats structs embed one per distribution they track (the two-pass
//! coupling-queue depth and A-to-B slip in [`crate::TwoPassStats`]);
//! it serializes sparsely, with every other counter, as a typed field
//! of [`crate::SimReport`].

use serde::Serialize;
use std::fmt;

/// Number of power-of-two histogram buckets: bucket `i` holds values
/// `v` with `2^(i-1) < v <= 2^i - 1`... more precisely, values whose
/// bit length is `i` (and bucket 0 holds the value 0). 65 buckets
/// cover the full `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-size power-of-two-bucket histogram of `u64` samples.
///
/// Constant-size and `Copy`, so stats structs can embed one without
/// allocation; precise count/sum/max ride along for exact means.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

/// Bucket index for a sample: 0 for 0, otherwise the bit length.
#[must_use]
const fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. The running sum saturates at `u64::MAX`.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Records the same sample `n` times, byte-identically to calling
    /// [`Histogram::observe`] `n` times — the bulk entry point for
    /// fast-forwarded idle spans (n identical per-cycle samples).
    pub fn observe_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(v)] += n;
        self.count += n;
        // Saturating, like the per-sample path: n saturating additions
        // of v land on the same value as one saturating add of v*n
        // (both stick at u64::MAX once the true sum exceeds it).
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample, 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the samples, 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(lower_bound_inclusive, upper_bound_inclusive, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(i, &n)| {
            let (lo, hi) = if i == 0 {
                (0, 0)
            } else {
                (1u64 << (i - 1), (1u64 << (i - 1)) - 1 + (1u64 << (i - 1)))
            };
            (lo, hi, n)
        })
    }

    /// Smallest upper bound `b` such that at least `q` (0..=1) of the
    /// samples fall in buckets bounded by `b`. A bucket-resolution
    /// quantile: exact for small values, power-of-two-coarse above.
    #[must_use]
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen >= target {
                return if i == 0 { 0 } else { ((1u128 << i) - 1) as u64 };
            }
        }
        self.max
    }
}

impl Serialize for Histogram {
    fn to_value(&self) -> serde::Value {
        // Sparse encoding: only non-empty buckets, as [index, count]
        // pairs — a 65-bucket histogram is mostly zeros.
        let sparse: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u64, n))
            .collect();
        serde::Value::Object(vec![
            ("count".to_string(), serde::Serialize::to_value(&self.count)),
            ("sum".to_string(), serde::Serialize::to_value(&self.sum)),
            ("max".to_string(), serde::Serialize::to_value(&self.max)),
            ("buckets".to_string(), serde::Serialize::to_value(&sparse)),
        ])
    }
}

impl serde::Deserialize for Histogram {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let mut h = Histogram::new();
        h.count = serde::Deserialize::from_value(v.field("count")?)?;
        h.sum = serde::Deserialize::from_value(v.field("sum")?)?;
        h.max = serde::Deserialize::from_value(v.field("max")?)?;
        let sparse: Vec<(u64, u64)> = serde::Deserialize::from_value(v.field("buckets")?)?;
        for (i, n) in sparse {
            let i = usize::try_from(i).map_err(|_| serde::DeError::new("bad bucket index"))?;
            if i >= HIST_BUCKETS {
                return Err(serde::DeError::new("bucket index out of range"));
            }
            h.buckets[i] = n;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1049);
        assert_eq!(h.max(), 1024);
        let buckets: Vec<(u64, u64, u64)> = h.buckets().collect();
        // 0 -> [0,0]; 1 -> [1,1]; 2,3 -> [2,3]; 4,7 -> [4,7]; 8 -> [8,15]; 1024 -> [1024,2047]
        assert_eq!(
            buckets,
            vec![(0, 0, 1), (1, 1, 1), (2, 3, 2), (4, 7, 2), (8, 15, 1), (1024, 2047, 1)]
        );
        assert!((h.mean() - 1049.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_bound_is_monotone() {
        let mut h = Histogram::new();
        for v in 0..100u64 {
            h.observe(v);
        }
        let p50 = h.quantile_bound(0.5);
        let p99 = h.quantile_bound(0.99);
        assert!(p50 <= p99);
        assert!(p50 >= 49, "median of 0..100 is ~50, bound {p50}");
        assert_eq!(h.quantile_bound(0.0), 0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_bound(q), 0, "q={q} of an empty histogram");
        }
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn single_sample_quantiles_bound_the_sample() {
        for v in [0u64, 1, 7, 1000] {
            let mut h = Histogram::new();
            h.observe(v);
            for q in [0.0, 0.5, 1.0] {
                let bound = h.quantile_bound(q);
                assert!(bound >= v, "q={q}: bound {bound} must cover the only sample {v}");
            }
            // Bucket resolution: the bound never overshoots past the
            // sample's own bucket.
            let (_, hi, _) = h.buckets().next().unwrap();
            assert!(h.quantile_bound(1.0) <= hi.max(v));
            assert_eq!(h.mean(), v as f64);
        }
    }

    #[test]
    fn observe_n_matches_n_single_observes() {
        for (v, n) in [(0u64, 3u64), (1, 1), (7, 1000), (u64::MAX, 2), (1u64 << 40, 1 << 25)] {
            let mut bulk = Histogram::new();
            bulk.observe(13); // pre-existing state must not matter
            bulk.observe_n(v, n);
            let mut loop_h = Histogram::new();
            loop_h.observe(13);
            for _ in 0..n.min(4096) {
                loop_h.observe(v);
            }
            if n <= 4096 {
                assert_eq!(bulk, loop_h, "v={v} n={n}");
            } else {
                // Too many iterations to replay literally; check the
                // closed-form fields instead.
                assert_eq!(bulk.count(), n + 1, "v={v} n={n}");
                assert_eq!(bulk.max(), v.max(13));
                assert_eq!(bulk.sum(), 13u64.saturating_add(v.saturating_mul(n)));
            }
        }
        let mut h = Histogram::new();
        h.observe_n(5, 0);
        assert_eq!(h, Histogram::new(), "observe_n(_, 0) is a no-op");
    }

    #[test]
    fn histogram_serde_round_trip() {
        let mut h = Histogram::new();
        for v in [0, 5, 5, 900, u64::MAX] {
            h.observe(v);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
