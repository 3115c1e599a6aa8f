//! A small counter/histogram metrics registry.
//!
//! The per-subsystem stats structs (cycle breakdown, cache hierarchy,
//! MSHRs, ALAT, store buffer, two-pass counters) each keep their own
//! typed fields; [`MetricSource`] lets every one of them export into a
//! single flat, uniformly named [`MetricsSnapshot`] that rides along in
//! [`crate::SimReport`]. Downstream tooling (`ff-trace`, experiment
//! scripts) can then diff, plot, or aggregate runs without knowing any
//! of the concrete stats types.
//!
//! Naming convention: `subsystem.metric` in snake case, e.g.
//! `cycles.load_stall`, `mem.l2_hits`, `two_pass.deferred_loads`.

use serde::{Deserialize, Serialize};
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

    /// Merges another histogram into this one. Like [`Self::observe`],
    /// the sum saturates at `u64::MAX`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
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

/// One named counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Dotted metric name, e.g. `two_pass.deferred_loads`.
    pub name: String,
    /// Monotonic count.
    pub value: u64,
}

/// One named histogram in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Dotted metric name, e.g. `two_pass.queue_depth`.
    pub name: String,
    /// The distribution.
    pub hist: Histogram,
}

/// A flat, uniform export of every subsystem's metrics for one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, in registration order.
    pub counters: Vec<CounterEntry>,
    /// All histograms, in registration order.
    pub histograms: Vec<HistogramEntry>,
}

impl MetricsSnapshot {
    /// Looks up a counter by exact name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Looks up a histogram by exact name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|h| h.name == name).map(|h| &h.hist)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.counters {
            writeln!(f, "{:<36} {:>14}", c.name, c.value)?;
        }
        for h in &self.histograms {
            writeln!(
                f,
                "{:<36} n={} mean={:.2} p50<={} p95<={} p99<={} max={}",
                h.name,
                h.hist.count(),
                h.hist.mean(),
                h.hist.quantile_bound(0.50),
                h.hist.quantile_bound(0.95),
                h.hist.quantile_bound(0.99),
                h.hist.max()
            )?;
        }
        Ok(())
    }
}

/// Accumulates metrics from many [`MetricSource`]s into one snapshot.
#[derive(Debug, Default)]
pub struct MetricsBuilder {
    snapshot: MetricsSnapshot,
    prefix: String,
}

impl MetricsBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Collects from `source` with `prefix` prepended (dotted) to every
    /// metric it registers.
    pub fn scope(&mut self, prefix: &str, source: &dyn MetricSource) -> &mut Self {
        let saved = std::mem::replace(&mut self.prefix, format!("{prefix}."));
        source.export_metrics(self);
        self.prefix = saved;
        self
    }

    /// Registers one counter.
    pub fn counter(&mut self, name: &str, value: u64) -> &mut Self {
        self.snapshot.counters.push(CounterEntry { name: format!("{}{name}", self.prefix), value });
        self
    }

    /// Registers one histogram (copied), flattening its p50/p95/p99
    /// bucket-bound quantiles into `<name>.p50` &c. counters so
    /// flat-counter consumers see distribution shape, not just
    /// count/mean/max. An empty histogram flattens to all-zero
    /// quantiles (see [`Histogram::quantile_bound`]).
    pub fn histogram(&mut self, name: &str, hist: &Histogram) -> &mut Self {
        self.snapshot
            .histograms
            .push(HistogramEntry { name: format!("{}{name}", self.prefix), hist: *hist });
        for (q, label) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
            self.counter(&format!("{name}.{label}"), hist.quantile_bound(q));
        }
        self
    }

    /// Finishes and returns the snapshot.
    #[must_use]
    pub fn build(self) -> MetricsSnapshot {
        self.snapshot
    }
}

/// Implemented by stats structs that can export into the registry.
pub trait MetricSource {
    /// Registers this source's counters and histograms.
    fn export_metrics(&self, m: &mut MetricsBuilder);
}

impl MetricSource for crate::accounting::CycleBreakdown {
    fn export_metrics(&self, m: &mut MetricsBuilder) {
        for class in crate::accounting::CycleClass::ALL {
            m.counter(&class.label().replace('-', "_"), self[class]);
        }
    }
}

impl MetricSource for crate::accounting::CauseBreakdown {
    fn export_metrics(&self, m: &mut MetricsBuilder) {
        for cause in crate::accounting::StallCause::ALL {
            m.counter(cause.label(), self[cause]);
        }
    }
}

impl MetricSource for ff_mem::HierarchyStats {
    fn export_metrics(&self, m: &mut MetricsBuilder) {
        for level in ff_mem::MemLevel::ALL {
            let tag = level.to_string().to_lowercase();
            m.counter(&format!("{tag}_load_hits"), self.load_hits[level.index()]);
            m.counter(&format!("{tag}_store_hits"), self.store_hits[level.index()]);
        }
        for (i, &wb) in self.writebacks.iter().enumerate() {
            m.counter(&format!("l{}_writebacks", i + 1), wb);
        }
    }
}

impl MetricSource for ff_mem::MshrStats {
    fn export_metrics(&self, m: &mut MetricsBuilder) {
        m.counter("allocations", self.allocations);
        m.counter("merges", self.merges);
        m.counter("full_reject_events", self.full_reject_events);
        m.counter("full_stall_cycles", self.full_stall_cycles);
    }
}

impl MetricSource for ff_mem::AlatStats {
    fn export_metrics(&self, m: &mut MetricsBuilder) {
        m.counter("allocations", self.allocations);
        m.counter("store_invalidations", self.store_invalidations);
        m.counter("capacity_evictions", self.capacity_evictions);
        m.counter("clean_checks", self.clean_checks);
        m.counter("conflict_checks", self.conflict_checks);
    }
}

impl MetricSource for ff_mem::StoreBufferStats {
    fn export_metrics(&self, m: &mut MetricsBuilder) {
        m.counter("inserts", self.inserts);
        m.counter("forwards", self.forwards);
        m.counter("partial_conflicts", self.partial_conflicts);
        m.counter("full_rejections", self.full_rejections);
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
    fn histogram_merge_adds() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.observe(3);
        b.observe(300);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 303);
        assert_eq!(a.max(), 300);
    }

    #[test]
    fn histogram_merge_saturates_the_sum() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.observe(u64::MAX);
        b.observe(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), u64::MAX, "the sum sticks at u64::MAX, as observe's does");
        assert_eq!(a.max(), u64::MAX);
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

    #[test]
    fn builder_scopes_and_looks_up() {
        struct Fake;
        impl MetricSource for Fake {
            fn export_metrics(&self, m: &mut MetricsBuilder) {
                m.counter("hits", 7);
                let mut h = Histogram::new();
                h.observe(2);
                m.histogram("depth", &h);
            }
        }
        let mut b = MetricsBuilder::new();
        b.scope("l1", &Fake).counter("cycles", 100);
        let snap = b.build();
        assert_eq!(snap.counter("l1.hits"), Some(7));
        assert_eq!(snap.counter("cycles"), Some(100));
        assert_eq!(snap.histogram("l1.depth").unwrap().count(), 1);
        assert_eq!(snap.counter("missing"), None);
        let text = snap.to_string();
        assert!(text.contains("l1.hits") && text.contains("l1.depth"), "{text}");
    }

    #[test]
    fn histogram_registration_flattens_quantile_counters() {
        let mut h = Histogram::new();
        for v in 0..100u64 {
            h.observe(v);
        }
        let mut b = MetricsBuilder::new();
        b.scope("tp", &{
            struct S(Histogram);
            impl MetricSource for S {
                fn export_metrics(&self, m: &mut MetricsBuilder) {
                    m.histogram("slip", &self.0);
                }
            }
            S(h)
        });
        let snap = b.build();
        assert_eq!(snap.counter("tp.slip.p50"), Some(h.quantile_bound(0.50)));
        assert_eq!(snap.counter("tp.slip.p95"), Some(h.quantile_bound(0.95)));
        assert_eq!(snap.counter("tp.slip.p99"), Some(h.quantile_bound(0.99)));
        let text = snap.to_string();
        assert!(text.contains("p95<="), "Display must carry the quantile summary: {text}");
    }

    #[test]
    fn flattened_quantiles_handle_empty_and_single_sample() {
        let empty = Histogram::new();
        let mut single = Histogram::new();
        single.observe(7);
        let mut b = MetricsBuilder::new();
        b.histogram("empty", &empty).histogram("single", &single);
        let snap = b.build();
        for q in ["p50", "p95", "p99"] {
            assert_eq!(snap.counter(&format!("empty.{q}")), Some(0), "{q} of empty");
            let bound = snap.counter(&format!("single.{q}")).unwrap();
            assert!(bound >= 7, "{q} of a single sample must bound it, got {bound}");
        }
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let mut b = MetricsBuilder::new();
        let mut h = Histogram::new();
        h.observe(9);
        b.counter("a.b", 1).histogram("a.h", &h);
        let snap = b.build();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
