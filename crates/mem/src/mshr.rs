//! Miss-status holding registers: the outstanding-load limiter.
//!
//! The paper's machine allows at most 16 outstanding loads (Table 1).
//! [`MshrFile`] tracks in-flight cache-line fills by completion cycle and
//! merges accesses to a line that is already being fetched — the second
//! requester simply inherits the in-flight fill's completion time.

use crate::hierarchy::MemLevel;
use serde::{Deserialize, Serialize};

/// One in-flight line fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Entry {
    line: u64,
    done_at: u64,
    /// The hierarchy level servicing the fill (for stall attribution).
    level: MemLevel,
}

/// Statistics kept by the MSHR file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MshrStats {
    /// Rejected [`MshrFile::request`] calls — one per stalled attempt,
    /// so cycles spent stalled when the caller retries once per cycle.
    pub full_stall_cycles: u64,
}

/// A finite file of miss-status holding registers.
///
/// # Examples
///
/// ```
/// use ff_mem::{MemLevel, MshrFile};
///
/// let mut mshrs = MshrFile::new(2);
/// assert_eq!(mshrs.request(/*now=*/0, /*line=*/0x40, /*done_at=*/100, MemLevel::Mem), Some(100));
/// // A second access to the same in-flight line merges:
/// assert_eq!(mshrs.request(3, 0x40, 103, MemLevel::L2), Some(100));
/// // Capacity is per distinct line:
/// assert_eq!(mshrs.request(4, 0x80, 104, MemLevel::L2), Some(104));
/// assert_eq!(mshrs.request(5, 0xC0, 105, MemLevel::L2), None); // full
/// // The in-flight fill remembers the level that services it:
/// assert_eq!(mshrs.pending_fill(6, 0x40), Some((100, MemLevel::Mem)));
/// // Once fills complete, capacity frees up:
/// assert_eq!(mshrs.request(101, 0xC0, 201, MemLevel::L3), Some(201));
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<Entry>,
    stats: MshrStats,
    /// Earliest `done_at` among buffered entries (`u64::MAX` when empty):
    /// expiry is a no-op until the clock reaches it, so the common
    /// nothing-completed-yet request skips the retain scan entirely.
    earliest_done: u64,
}

impl MshrFile {
    /// Creates a file with room for `capacity` distinct in-flight lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
            stats: MshrStats::default(),
            earliest_done: u64::MAX,
        }
    }

    /// Capacity in distinct lines.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> MshrStats {
        self.stats
    }

    /// Entries still in flight at cycle `now`.
    ///
    /// Boundary convention (shared with [`MshrFile::has_room`],
    /// [`MshrFile::pending_fill`] and `expire`): an entry completing *at*
    /// `now` is no longer outstanding — every in-flight predicate is
    /// `done_at > now`. A fast-forward that lands the clock exactly on
    /// [`MshrFile::next_wakeup`] therefore observes the fill as already
    /// complete, neither double-counting nor skipping the fill cycle.
    #[must_use]
    pub fn outstanding(&self, now: u64) -> usize {
        self.entries.iter().filter(|e| e.done_at > now).count()
    }

    /// Earliest cycle strictly after `now` at which an in-flight fill
    /// completes, or `None` when nothing is outstanding at `now`.
    ///
    /// This is the MSHR's contribution to an event-driven fast-forward:
    /// a machine stalled on MSHR capacity cannot unblock before this
    /// cycle, and (per the `done_at > now` boundary convention) is
    /// guaranteed to see the completing fill when it lands exactly here.
    #[must_use]
    pub fn next_wakeup(&self, now: u64) -> Option<u64> {
        // Scan the entries rather than trusting `earliest_done`: that
        // cache is only refreshed by `expire`, so it may name an
        // already-completed fill.
        self.entries.iter().map(|e| e.done_at).filter(|&d| d > now).min()
    }

    fn expire(&mut self, now: u64) {
        if now < self.earliest_done {
            return;
        }
        self.entries.retain(|e| e.done_at > now);
        self.earliest_done = self.entries.iter().map(|e| e.done_at).min().unwrap_or(u64::MAX);
    }

    /// Requests a fill of `line`, completing at `done_at` and serviced by
    /// hierarchy level `level`, at cycle `now`.
    ///
    /// Returns the cycle at which the data will be available, or `None`
    /// if the file is full (the requester must retry — a *resource
    /// stall*). Requests for an already-in-flight line merge and return
    /// the existing completion time (the merged requester inherits the
    /// in-flight fill's level, observable via [`MshrFile::pending_fill`]).
    ///
    /// Each rejected call bumps [`MshrStats::full_stall_cycles`].
    pub fn request(&mut self, now: u64, line: u64, done_at: u64, level: MemLevel) -> Option<u64> {
        self.expire(now);
        if let Some(e) = self.entries.iter().find(|e| e.line == line) {
            return Some(e.done_at);
        }
        if self.entries.len() >= self.capacity {
            self.stats.full_stall_cycles += 1;
            return None;
        }
        self.entries.push(Entry { line, done_at, level });
        self.earliest_done = self.earliest_done.min(done_at);
        Some(done_at)
    }

    /// Whether a new distinct line could be accepted at cycle `now`.
    #[must_use]
    pub fn has_room(&self, now: u64) -> bool {
        // A buffered entry can only be outstanding or expired, so fewer
        // buffered entries than capacity always means room.
        self.entries.len() < self.capacity
            || self.entries.iter().filter(|e| e.done_at > now).count() < self.capacity
    }

    /// If `line` is still being filled at cycle `now`, returns the fill's
    /// completion cycle.
    ///
    /// Cache tag arrays fill at access time in this simulator, so a
    /// subsequent access can "hit" a line whose data is still in flight;
    /// callers must clamp such hits to the in-flight fill's completion.
    #[must_use]
    pub fn pending(&self, now: u64, line: u64) -> Option<u64> {
        self.pending_fill(now, line).map(|(done_at, _)| done_at)
    }

    /// Like [`MshrFile::pending`], but also reports the hierarchy level
    /// servicing the in-flight fill — the level a fill-clamped hit is
    /// *really* waiting on, for stall attribution.
    #[must_use]
    pub fn pending_fill(&self, now: u64, line: u64) -> Option<(u64, MemLevel)> {
        self.entries
            .iter()
            .find(|e| e.line == line && e.done_at > now)
            .map(|e| (e.done_at, e.level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_returns_existing_completion() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.request(0, 0x100, 50, MemLevel::L2), Some(50));
        assert_eq!(m.request(10, 0x100, 60, MemLevel::L2), Some(50));
        assert_eq!(m.outstanding(10), 1, "a merge allocates no entry");
    }

    #[test]
    fn full_file_rejects_new_lines() {
        let mut m = MshrFile::new(1);
        assert!(m.request(0, 0x40, 100, MemLevel::L2).is_some());
        assert!(m.request(1, 0x80, 101, MemLevel::L2).is_none());
        assert_eq!(m.stats().full_stall_cycles, 1);
        assert_eq!(m.pending(1, 0x80), None, "a rejected line is not in flight");
        // merging is still allowed when full
        assert_eq!(m.request(2, 0x40, 102, MemLevel::L2), Some(100));
        assert_eq!(m.outstanding(2), 1);
    }

    #[test]
    fn every_rejected_retry_counts_a_stall_cycle() {
        let mut m = MshrFile::new(1);
        assert!(m.request(0, 0x40, 100, MemLevel::L2).is_some());
        for now in 1..=5 {
            assert!(m.request(now, 0x80, 100 + now, MemLevel::L2).is_none());
        }
        assert_eq!(m.stats().full_stall_cycles, 5);
        assert!(m.request(9, 0xC0, 109, MemLevel::L2).is_none());
        assert_eq!(m.stats().full_stall_cycles, 6);
    }

    #[test]
    fn completion_frees_capacity() {
        let mut m = MshrFile::new(1);
        m.request(0, 0x40, 10, MemLevel::L2);
        assert!(!m.has_room(5));
        assert!(m.has_room(10), "entry completing at 10 is no longer outstanding at 10");
        assert_eq!(m.request(10, 0x80, 30, MemLevel::L2), Some(30));
    }

    #[test]
    fn outstanding_counts_in_flight_only() {
        let mut m = MshrFile::new(8);
        m.request(0, 0x40, 10, MemLevel::L2);
        m.request(0, 0x80, 20, MemLevel::L2);
        assert_eq!(m.outstanding(5), 2);
        assert_eq!(m.outstanding(15), 1);
        assert_eq!(m.outstanding(25), 0);
    }

    #[test]
    fn next_wakeup_is_the_earliest_in_flight_completion() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.next_wakeup(0), None, "empty file has no wakeup");
        m.request(0, 0x40, 10, MemLevel::L2);
        m.request(0, 0x80, 20, MemLevel::L3);
        assert_eq!(m.next_wakeup(0), Some(10));
        // An entry completing exactly at `now` is no longer in flight, so
        // the wakeup moves past it even before `expire` has pruned it.
        assert_eq!(m.next_wakeup(10), Some(20));
        assert_eq!(m.next_wakeup(15), Some(20));
        assert_eq!(m.next_wakeup(20), None);
    }

    #[test]
    fn fast_forward_landing_on_earliest_done_sees_a_consistent_boundary() {
        // Regression pin for the `done_at == now` convention: a machine
        // that jumps the clock from 5 straight to the earliest completion
        // must find room exactly at the landing cycle, with outstanding /
        // has_room / pending_fill / next_wakeup all agreeing.
        let mut m = MshrFile::new(1);
        m.request(0, 0x40, 10, MemLevel::Mem);
        assert!(!m.has_room(5));
        let wake = m.next_wakeup(5).expect("a full file always has a wakeup");
        assert_eq!(wake, 10);
        assert_eq!(m.outstanding(wake), 0, "fill at `now` is complete");
        assert!(m.has_room(wake), "landing on the wakeup frees the slot");
        assert_eq!(m.pending_fill(wake, 0x40), None, "fill at `now` is not pending");
        assert_eq!(m.next_wakeup(wake), None, "no double-counting of the fill cycle");
        // ...and the freed slot is usable in that same cycle, exactly as
        // a per-cycle simulation retrying at cycle 10 would see it.
        assert_eq!(m.request(wake, 0x80, 30, MemLevel::L2), Some(30));
        assert_eq!(m.stats().full_stall_cycles, 0, "the landing retry is not a stall");
    }

    #[test]
    fn pending_fill_reports_the_servicing_level() {
        let mut m = MshrFile::new(2);
        m.request(0, 0x40, 100, MemLevel::Mem);
        assert_eq!(m.pending_fill(5, 0x40), Some((100, MemLevel::Mem)));
        assert_eq!(m.pending(5, 0x40), Some(100));
        // A merge does not overwrite the in-flight fill's level.
        assert_eq!(m.request(6, 0x40, 40, MemLevel::L2), Some(100));
        assert_eq!(m.pending_fill(7, 0x40), Some((100, MemLevel::Mem)));
        assert_eq!(m.pending_fill(100, 0x40), None, "completed fills are not pending");
        assert_eq!(m.pending_fill(5, 0x80), None);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
