//! The coupling queue (CQ) and coupling result store (CRS).
//!
//! Decoded instructions enter the queue in order as the A-pipe dispatches
//! them; each entry carries either its pre-computed results (the CRS part
//! — register writes, a resolved branch) or a *deferred* marker meaning
//! the B-pipe must execute it. A pre-executed store's value waits in the
//! speculative store buffer, keyed by the entry's `seq`, until it merges.
//! The queue is the only coupling between the pipes: there are no bypass
//! paths.

use ff_isa::Writes;
use ff_mem::MemLevel;
use std::collections::VecDeque;

/// Pre-computed load information for the merge-time ALAT check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadInfo {
    /// Whether an older deferred store was in the queue when this load
    /// pre-executed (the paper's "risky" load population).
    pub risky: bool,
    /// Effective hierarchy level the pre-executed load waits on, for
    /// refined stall attribution (fill-clamped hits report the in-flight
    /// fill's level).
    pub level: MemLevel,
}

/// A branch resolved in the A-pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Resolved direction.
    pub taken: bool,
    /// Whether the fetch-time prediction was wrong (already repaired at
    /// A-DET; recorded here for retire-time statistics).
    pub mispredicted: bool,
    /// Whether the branch was conditional (predictor-trained).
    pub conditional: bool,
}

/// Execution state of a queue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CqState {
    /// Pre-executed (or pre-started) in the A-pipe; the B-pipe merges.
    Executed {
        /// Register results to incorporate.
        writes: Writes,
        /// Cycle the A-pipe result becomes available (the "dangling
        /// dependence" scoreboard: loads may still be in flight).
        ready_at: u64,
        /// Set for pre-executed loads (ALAT check at merge; the entry's
        /// in-flight producer is then a load).
        load: Option<LoadInfo>,
        /// Set for branches resolved at A-DET.
        branch: Option<BranchInfo>,
    },
    /// Suppressed in the A-pipe; executes for the first time in B.
    Deferred,
}

impl CqState {
    /// A pre-executed entry with no memory or control side effects.
    #[must_use]
    pub fn executed(writes: Writes, ready_at: u64) -> Self {
        CqState::Executed { writes, ready_at, load: None, branch: None }
    }

    /// Whether this entry was deferred.
    #[must_use]
    pub fn is_deferred(&self) -> bool {
        matches!(self, CqState::Deferred)
    }
}

/// One coupling-queue entry.
///
/// Carries no instruction payload: the engines resolve `pc` against
/// their pre-decoded program store, so the queue moves only result
/// state and bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct CqEntry {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Static instruction index.
    pub pc: usize,
    /// Whether this entry ends its issue group.
    pub group_end: bool,
    /// Fetch-time predicted direction (branches).
    pub predicted_taken: bool,
    /// Cycle the A-pipe enqueued it (B may consume strictly later —
    /// "the A-pipe always remains at least one cycle ahead").
    pub enq_cycle: u64,
    /// Execution state / CRS contents.
    pub state: CqState,
}

/// The FIFO coupling queue.
#[derive(Debug, Clone)]
pub struct CouplingQueue {
    entries: VecDeque<CqEntry>,
    capacity: usize,
}

impl CouplingQueue {
    /// Creates a queue holding up to `capacity` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "coupling queue capacity must be nonzero");
        CouplingQueue { entries: VecDeque::with_capacity(capacity), capacity }
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Free slots.
    #[must_use]
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (callers must check [`Self::free`]).
    pub fn push(&mut self, entry: CqEntry) {
        assert!(self.entries.len() < self.capacity, "coupling queue overflow");
        self.entries.push_back(entry);
    }

    /// The entry at position `i` from the head.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&CqEntry> {
        self.entries.get(i)
    }

    /// Length of the complete issue group at the head whose last member
    /// was enqueued before `now` (the one-cycle-ahead rule), if any.
    #[must_use]
    pub fn head_group_len(&self, now: u64) -> Option<usize> {
        let end = self.entries.iter().position(|e| e.group_end)?;
        (self.entries[end].enq_cycle < now).then_some(end + 1)
    }

    /// Length of the next complete group after `start` (for regrouping),
    /// subject to the same eligibility rule.
    #[must_use]
    pub fn group_len_after(&self, start: usize, now: u64) -> Option<usize> {
        let rel = self.entries.iter().skip(start).position(|e| e.group_end)?;
        let end = start + rel;
        (self.entries[end].enq_cycle < now).then_some(rel + 1)
    }

    /// Removes the first `n` entries (they merged into the B-pipe).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` entries are queued.
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.entries.len());
        self.entries.drain(..n);
    }

    /// Squashes all entries strictly after `boundary_seq` (the boundary
    /// entry itself is retained); returns how many were removed.
    pub fn flush_after(&mut self, boundary_seq: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.seq <= boundary_seq);
        before - self.entries.len()
    }

    /// Iterates entries from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &CqEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, enq: u64, group_end: bool) -> CqEntry {
        CqEntry {
            seq,
            pc: seq as usize,
            group_end,
            predicted_taken: false,
            enq_cycle: enq,
            state: CqState::Deferred,
        }
    }

    #[test]
    fn head_group_requires_complete_group() {
        let mut q = CouplingQueue::new(8);
        q.push(entry(0, 0, false));
        assert_eq!(q.head_group_len(5), None, "no group_end yet");
        q.push(entry(1, 0, true));
        assert_eq!(q.head_group_len(5), Some(2));
    }

    #[test]
    fn one_cycle_ahead_rule() {
        let mut q = CouplingQueue::new(8);
        q.push(entry(0, 3, true));
        assert_eq!(q.head_group_len(3), None, "same-cycle entries not consumable");
        assert_eq!(q.head_group_len(4), Some(1));
    }

    #[test]
    fn group_len_after_finds_second_group() {
        let mut q = CouplingQueue::new(8);
        q.push(entry(0, 0, true));
        q.push(entry(1, 1, false));
        q.push(entry(2, 1, true));
        assert_eq!(q.group_len_after(1, 5), Some(2));
        assert_eq!(q.group_len_after(3, 5), None);
    }

    #[test]
    fn flush_after_keeps_boundary_and_older() {
        let mut q = CouplingQueue::new(8);
        for s in 0..5 {
            q.push(entry(s, 0, true));
        }
        assert_eq!(q.flush_after(2), 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.get(2).unwrap().seq, 2);
    }

    #[test]
    fn consume_pops_from_head() {
        let mut q = CouplingQueue::new(4);
        q.push(entry(0, 0, true));
        q.push(entry(1, 0, true));
        q.consume(1);
        assert_eq!(q.get(0).unwrap().seq, 1);
        assert_eq!(q.free(), 3);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn push_past_capacity_panics() {
        let mut q = CouplingQueue::new(1);
        q.push(entry(0, 0, true));
        q.push(entry(1, 0, true));
    }
}
