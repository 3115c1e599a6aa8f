//! The three-level data-cache hierarchy plus main memory.
//!
//! Latencies follow the paper's Table 1: each level has an *effective
//! access latency* — the load-to-use delay when the access is serviced by
//! that level (L1 2, L2 5, L3 15, memory 145 cycles by default).
//!
//! The hierarchy itself is combinational: a lookup classifies the access
//! and returns its latency in the same call, and no state here evolves
//! with the clock between lookups. It therefore contributes no wake
//! events to the event-driven fast-forward layer — all timing lives in
//! the [`crate::MshrFile`] fill times (`MshrFile::next_wakeup`) derived
//! from the latencies this module hands out.

use crate::cache::{Cache, CacheGeometry, GeometryError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The level of the hierarchy that serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MemLevel {
    /// First-level data cache.
    L1,
    /// Second-level cache.
    L2,
    /// Third-level cache.
    L3,
    /// Main memory.
    Mem,
}

impl MemLevel {
    /// All levels, nearest first.
    pub const ALL: [MemLevel; 4] = [MemLevel::L1, MemLevel::L2, MemLevel::L3, MemLevel::Mem];

    /// Dense index (0..4) for per-level stat arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            MemLevel::L1 => 0,
            MemLevel::L2 => 1,
            MemLevel::L3 => 2,
            MemLevel::Mem => 3,
        }
    }
}

impl fmt::Display for MemLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemLevel::L1 => "L1",
            MemLevel::L2 => "L2",
            MemLevel::L3 => "L3",
            MemLevel::Mem => "Mem",
        };
        f.write_str(s)
    }
}

/// Configuration of the data hierarchy (geometry + per-level effective
/// latency).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1: CacheGeometry,
    /// Effective L1 hit latency, cycles.
    pub l1_latency: u64,
    /// L2 geometry.
    pub l2: CacheGeometry,
    /// Effective L2 access latency, cycles.
    pub l2_latency: u64,
    /// L3 geometry.
    pub l3: CacheGeometry,
    /// Effective L3 access latency, cycles.
    pub l3_latency: u64,
    /// Main-memory access latency, cycles.
    pub mem_latency: u64,
}

impl HierarchyConfig {
    /// The paper's Table 1 configuration:
    /// L1D 2-cycle 16KB 4-way 64B; L2 5-cycle 256KB 8-way 128B;
    /// L3 15-cycle 1.5MB 12-way 128B; memory 145 cycles.
    #[must_use]
    pub fn paper_table1() -> Self {
        HierarchyConfig {
            l1: CacheGeometry::new(16 * 1024, 4, 64),
            l1_latency: 2,
            l2: CacheGeometry::new(256 * 1024, 8, 128),
            l2_latency: 5,
            l3: CacheGeometry::new(1536 * 1024, 12, 128),
            l3_latency: 15,
            mem_latency: 145,
        }
    }

    /// The effective latency of an access serviced at `level`.
    #[must_use]
    pub fn latency(&self, level: MemLevel) -> u64 {
        match level {
            MemLevel::L1 => self.l1_latency,
            MemLevel::L2 => self.l2_latency,
            MemLevel::L3 => self.l3_latency,
            MemLevel::Mem => self.mem_latency,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::paper_table1()
    }
}

/// Outcome of routing an access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Nearest level that had the line.
    pub level: MemLevel,
    /// Effective latency of the access in cycles.
    pub latency: u64,
}

/// Per-level access counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Loads serviced per level (indexed by [`MemLevel::index`]).
    pub load_hits: [u64; 4],
}

impl HierarchyStats {
    /// Total loads routed through the hierarchy.
    #[must_use]
    pub fn total_loads(&self) -> u64 {
        self.load_hits.iter().sum()
    }

    /// Fraction of all loads serviced at `level` (`None` when no loads
    /// were routed).
    #[must_use]
    pub fn load_level_fraction(&self, level: MemLevel) -> Option<f64> {
        let total = self.total_loads();
        (total > 0).then(|| self.load_hits[level.index()] as f64 / total as f64)
    }

    /// L1 data-cache load hit rate (`None` when no loads were routed) —
    /// the headline cache metric surfaced by run reports.
    #[must_use]
    pub fn l1_load_hit_rate(&self) -> Option<f64> {
        self.load_level_fraction(MemLevel::L1)
    }
}

/// A three-level inclusive data-cache hierarchy (tag state only).
///
/// # Examples
///
/// ```
/// use ff_mem::{DataHierarchy, HierarchyConfig, MemLevel};
///
/// let mut h = DataHierarchy::new(HierarchyConfig::paper_table1())?;
/// let first = h.load(0x1000);
/// assert_eq!(first.level, MemLevel::Mem);     // cold miss
/// let second = h.load(0x1008);
/// assert_eq!(second.level, MemLevel::L1);     // same line now resident
/// assert_eq!(second.latency, 2);
/// # Ok::<(), ff_mem::GeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DataHierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    stats: HierarchyStats,
}

impl DataHierarchy {
    /// Creates an empty hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if any level's geometry is inconsistent.
    pub fn new(config: HierarchyConfig) -> Result<Self, GeometryError> {
        Ok(DataHierarchy {
            config,
            l1: Cache::new(config.l1)?,
            l2: Cache::new(config.l2)?,
            l3: Cache::new(config.l3)?,
            stats: HierarchyStats::default(),
        })
    }

    /// The hierarchy's configuration.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    fn route(&mut self, addr: u64) -> MemLevel {
        // Each miss fills the level it missed (inclusive hierarchy).
        if self.l1.access(addr) {
            MemLevel::L1
        } else if self.l2.access(addr) {
            MemLevel::L2
        } else if self.l3.access(addr) {
            MemLevel::L3
        } else {
            MemLevel::Mem
        }
    }

    /// Routes a load through the hierarchy, filling lines on the way.
    pub fn load(&mut self, addr: u64) -> AccessOutcome {
        let level = self.route(addr);
        self.stats.load_hits[level.index()] += 1;
        AccessOutcome { level, latency: self.config.latency(level) }
    }

    /// Routes a store through the hierarchy (write-allocate).
    ///
    /// The returned latency is informational — the pipelines assume a
    /// write buffer absorbs store latency, so stores do not stall retire.
    pub fn store(&mut self, addr: u64) -> AccessOutcome {
        let level = self.route(addr);
        AccessOutcome { level, latency: self.config.latency(level) }
    }

    /// Probes the nearest level holding `addr` without updating state.
    #[must_use]
    pub fn probe(&self, addr: u64) -> MemLevel {
        if self.l1.probe(addr) {
            MemLevel::L1
        } else if self.l2.probe(addr) {
            MemLevel::L2
        } else if self.l3.probe(addr) {
            MemLevel::L3
        } else {
            MemLevel::Mem
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> DataHierarchy {
        DataHierarchy::new(HierarchyConfig::paper_table1()).unwrap()
    }

    #[test]
    fn paper_config_latencies() {
        let c = HierarchyConfig::paper_table1();
        assert_eq!(c.latency(MemLevel::L1), 2);
        assert_eq!(c.latency(MemLevel::L2), 5);
        assert_eq!(c.latency(MemLevel::L3), 15);
        assert_eq!(c.latency(MemLevel::Mem), 145);
        assert_eq!(c.l1.sets(), 64);
        assert_eq!(c.l2.sets(), 256);
        assert_eq!(c.l3.sets(), 1024);
    }

    #[test]
    fn cold_miss_goes_to_memory_then_l1() {
        let mut h = hierarchy();
        assert_eq!(h.load(0x5000).level, MemLevel::Mem);
        assert_eq!(h.load(0x5000).level, MemLevel::L1);
        assert_eq!(h.stats().load_hits[MemLevel::Mem.index()], 1);
        assert_eq!(h.stats().load_hits[MemLevel::L1.index()], 1);
    }

    #[test]
    fn l2_services_after_l1_eviction() {
        let mut h = hierarchy();
        h.load(0x0);
        // Evict 0x0 from L1 (16KB 4-way 64B => 64 sets, set stride 4KB).
        // Touch 4 more lines mapping to set 0.
        for i in 1..=4u64 {
            h.load(i * 4096);
        }
        let out = h.load(0x0);
        assert_eq!(out.level, MemLevel::L2, "L2 is bigger and still holds the line");
        assert_eq!(out.latency, 5);
    }

    #[test]
    fn stores_allocate_and_are_not_counted_as_loads() {
        let mut h = hierarchy();
        assert_eq!(h.store(0x100).level, MemLevel::Mem);
        let again = h.store(0x100);
        assert_eq!((again.level, again.latency), (MemLevel::L1, 2));
        assert_eq!(h.stats().total_loads(), 0);
        assert_eq!(h.load(0x108).level, MemLevel::L1, "the store filled the line");
    }

    #[test]
    fn probe_reports_without_filling() {
        let mut h = hierarchy();
        assert_eq!(h.probe(0x9000), MemLevel::Mem);
        h.load(0x9000);
        assert_eq!(h.probe(0x9000), MemLevel::L1);
        // probing did not create an extra load stat
        assert_eq!(h.stats().total_loads(), 1);
    }

    #[test]
    fn mem_level_index_is_dense() {
        for (i, level) in MemLevel::ALL.iter().enumerate() {
            assert_eq!(level.index(), i);
        }
        assert_eq!(MemLevel::L3.to_string(), "L3");
    }
}
