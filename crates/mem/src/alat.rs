//! Advanced Load Alias Table (ALAT).
//!
//! The two-pass design reuses the EPIC data-speculation ALAT (paper §3.4)
//! to detect flow-dependence violations between loads pre-executed in the
//! A-pipe and older stores that were deferred to the B-pipe:
//!
//! * a load executed in the **A-pipe** allocates an entry, indexed by its
//!   **dynamic ID** (not its destination register, unlike the
//!   architectural ALAT);
//! * a store executed in the **B-pipe** deletes entries with overlapping
//!   addresses;
//! * when the pre-executed load's result merges in the B-pipe, the ALAT
//!   is checked — a *missing* entry means a conflicting store intervened
//!   and speculative state must be flushed.
//!
//! The paper evaluates a *perfect* ALAT (no capacity conflicts, Table 1);
//! [`AlatConfig::Finite`] additionally models a bounded table whose
//! capacity evictions produce the false-positive flushes the paper notes
//! are possible with a cache-like implementation.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Capacity model for the [`Alat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlatConfig {
    /// Unbounded table: only true conflicts are reported (paper Table 1).
    Perfect,
    /// FIFO-replacement table with `entries` slots; evictions cause
    /// false-positive conflict reports at check time.
    Finite {
        /// Number of simultaneously tracked loads.
        entries: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct AlatEntry {
    dyn_id: u64,
    addr: u64,
    size: u64,
}

/// Outcome of an ALAT check at B-pipe merge time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlatCheck {
    /// Entry survived: no conflicting store since the A-pipe execution.
    Clean,
    /// Entry missing: either a conflicting store deleted it (true
    /// conflict) or capacity pressure evicted it (false positive). Both
    /// require a flush.
    Conflict,
}

fn overlaps(a_addr: u64, a_size: u64, b_addr: u64, b_size: u64) -> bool {
    a_addr < b_addr.wrapping_add(b_size) && b_addr < a_addr.wrapping_add(a_size)
}

/// The two-pass microarchitecture's ALAT.
///
/// # Examples
///
/// ```
/// use ff_mem::{Alat, AlatCheck, AlatConfig};
///
/// let mut alat = Alat::new(AlatConfig::Perfect);
/// alat.allocate(/*dyn_id=*/7, /*addr=*/0x100, /*size=*/8);
/// // A B-pipe store to a disjoint address leaves it alone:
/// alat.store_invalidate(0x200, 8);
/// assert_eq!(alat.check_and_remove(7), AlatCheck::Clean);
/// // But once checked the entry is consumed:
/// assert_eq!(alat.check_and_remove(7), AlatCheck::Conflict);
/// ```
#[derive(Debug, Clone)]
pub struct Alat {
    config: AlatConfig,
    entries: VecDeque<AlatEntry>,
}

impl Alat {
    /// Creates an empty table.
    #[must_use]
    pub fn new(config: AlatConfig) -> Self {
        Alat { config, entries: VecDeque::new() }
    }

    /// The configured capacity model.
    #[must_use]
    pub fn config(&self) -> AlatConfig {
        self.config
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a load pre-executed in the A-pipe.
    pub fn allocate(&mut self, dyn_id: u64, addr: u64, size: u64) {
        if let AlatConfig::Finite { entries } = self.config {
            while self.entries.len() >= entries {
                self.entries.pop_front();
            }
        }
        self.entries.push_back(AlatEntry { dyn_id, addr, size });
    }

    /// Deletes entries overlapping a store committed by the B-pipe.
    /// Returns how many entries were invalidated.
    pub fn store_invalidate(&mut self, addr: u64, size: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !overlaps(e.addr, e.size, addr, size));
        before - self.entries.len()
    }

    /// Checks whether the entry for `dyn_id` survived, consuming it.
    ///
    /// Called when the pre-executed load's result is merged into the
    /// B-pipe. [`AlatCheck::Conflict`] obliges the caller to flush.
    pub fn check_and_remove(&mut self, dyn_id: u64) -> AlatCheck {
        if let Some(pos) = self.entries.iter().position(|e| e.dyn_id == dyn_id) {
            self.entries.remove(pos);
            AlatCheck::Clean
        } else {
            AlatCheck::Conflict
        }
    }

    /// Squashes entries belonging to wrong-path loads (dyn IDs strictly
    /// after the flush boundary). The boundary entry itself is retained —
    /// the instruction at the boundary triggered the flush and retires.
    pub fn flush_after(&mut self, boundary_dyn_id: u64) {
        self.entries.retain(|e| e.dyn_id <= boundary_dyn_id);
    }

    /// Clears the table.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflicting_store_triggers_flush_signal() {
        let mut alat = Alat::new(AlatConfig::Perfect);
        alat.allocate(1, 0x100, 8);
        assert_eq!(alat.store_invalidate(0x104, 4), 1);
        assert_eq!(alat.check_and_remove(1), AlatCheck::Conflict);
        assert!(alat.is_empty());
    }

    #[test]
    fn disjoint_store_preserves_entry() {
        let mut alat = Alat::new(AlatConfig::Perfect);
        alat.allocate(1, 0x100, 8);
        assert_eq!(alat.store_invalidate(0x108, 8), 0);
        assert_eq!(alat.check_and_remove(1), AlatCheck::Clean);
    }

    #[test]
    fn byte_granularity_overlap() {
        let mut alat = Alat::new(AlatConfig::Perfect);
        alat.allocate(1, 0x100, 1);
        // Store covering [0xFF, 0x101) overlaps the single byte at 0x100.
        assert_eq!(alat.store_invalidate(0xFF, 2), 1);
    }

    #[test]
    fn perfect_alat_never_evicts() {
        let mut alat = Alat::new(AlatConfig::Perfect);
        for i in 0..10_000 {
            alat.allocate(i, i * 8, 8);
        }
        assert_eq!(alat.len(), 10_000);
        assert_eq!(alat.check_and_remove(0), AlatCheck::Clean, "the oldest entry survives");
    }

    #[test]
    fn finite_alat_evicts_fifo_causing_false_positive() {
        let mut alat = Alat::new(AlatConfig::Finite { entries: 2 });
        alat.allocate(1, 0x0, 8);
        alat.allocate(2, 0x8, 8);
        alat.allocate(3, 0x10, 8); // evicts dyn_id 1
        assert_eq!(alat.len(), 2);
        assert_eq!(alat.check_and_remove(1), AlatCheck::Conflict, "false positive");
        assert_eq!(alat.check_and_remove(2), AlatCheck::Clean);
    }

    #[test]
    fn flush_after_squashes_wrong_path_entries() {
        let mut alat = Alat::new(AlatConfig::Perfect);
        alat.allocate(5, 0x0, 8);
        alat.allocate(9, 0x8, 8);
        alat.flush_after(5);
        assert_eq!(alat.check_and_remove(5), AlatCheck::Clean);
        assert_eq!(alat.check_and_remove(9), AlatCheck::Conflict);
    }

    #[test]
    fn one_store_can_invalidate_many_loads() {
        let mut alat = Alat::new(AlatConfig::Perfect);
        alat.allocate(1, 0x100, 4);
        alat.allocate(2, 0x104, 4);
        alat.allocate(3, 0x200, 4);
        assert_eq!(alat.store_invalidate(0x100, 8), 2);
        assert_eq!(alat.len(), 1);
    }
}
