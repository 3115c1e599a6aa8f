//! Speculative store buffer.
//!
//! Stores executed in the A-pipe must not commit to architectural memory —
//! the B-pipe owns commit order. They are held in this buffer instead, and
//! forwarded to younger A-pipe loads. The paper (§3.4) relies on exactly
//! this "almost ubiquitous microarchitectural element" to resolve
//! seemingly violated anti- and output-dependences between the pipes.
//!
//! Entries are keyed by the dynamic instruction sequence number, giving an
//! unambiguous age order for forwarding and for squashing wrong-path
//! stores on a flush.
//!
//! The buffer is time-free: insert/forward/drain happen at the caller's
//! instant and nothing in here matures with the clock, so it exposes no
//! `next_wakeup` and never bounds an event-driven fast-forward jump
//! (unlike [`crate::MshrFile`], whose fills are the canonical wake
//! events).

use serde::{Deserialize, Serialize};

/// One buffered (speculative) store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferedStore {
    /// Dynamic sequence number of the store instruction.
    pub seq: u64,
    /// Byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub size: u64,
    /// Raw value image (low `size` bytes significant).
    pub bits: u64,
}

// Range arithmetic is done in u128 so that accesses ending exactly at (or
// spanning past) the top of the 64-bit address space neither wrap around to
// address zero nor overflow in debug builds. A store at `u64::MAX - 4` of
// size 8 simply has an end one past `u64::MAX`; it never aliases address 0.
fn overlaps(a_addr: u64, a_size: u64, b_addr: u64, b_size: u64) -> bool {
    let a_end = a_addr as u128 + a_size as u128;
    let b_end = b_addr as u128 + b_size as u128;
    (a_addr as u128) < b_end && (b_addr as u128) < a_end
}

fn covers(outer: &BufferedStore, addr: u64, size: u64) -> bool {
    let inner_end = addr as u128 + size as u128;
    let outer_end = outer.addr as u128 + outer.size as u128;
    outer.addr <= addr && inner_end <= outer_end
}

/// Result of a forwarding lookup for an A-pipe load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardResult {
    /// No older buffered store overlaps the load: read memory normally.
    NoConflict,
    /// The youngest older overlapping store fully covers the load; these
    /// are the forwarded raw bits.
    Forwarded(u64),
    /// An older store overlaps but does not fully cover the load — the
    /// load cannot be satisfied in the A-pipe and must be deferred.
    Partial,
}

/// A finite FIFO speculative store buffer with forwarding.
///
/// # Examples
///
/// ```
/// use ff_mem::{ForwardResult, StoreBuffer};
///
/// let mut sb = StoreBuffer::new(8);
/// sb.insert(10, 0x100, 8, 0xAABB).unwrap();
/// assert_eq!(sb.forward(11, 0x100, 8), ForwardResult::Forwarded(0xAABB));
/// // Loads older than the store see memory, not the buffer:
/// assert_eq!(sb.forward(9, 0x100, 8), ForwardResult::NoConflict);
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    capacity: usize,
    entries: Vec<BufferedStore>,
}

/// Error returned when inserting into a full [`StoreBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreBufferFullError;

impl std::fmt::Display for StoreBufferFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "speculative store buffer is full")
    }
}

impl std::error::Error for StoreBufferFullError {}

impl StoreBuffer {
    /// Creates a buffer holding up to `capacity` stores.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store buffer capacity must be nonzero");
        StoreBuffer { capacity, entries: Vec::new() }
    }

    /// Number of buffered stores.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the buffer is at capacity (A-pipe must stall its store).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Buffers a store executed speculatively in the A-pipe.
    ///
    /// # Errors
    ///
    /// Returns [`StoreBufferFullError`] when at capacity.
    pub fn insert(
        &mut self,
        seq: u64,
        addr: u64,
        size: u64,
        bits: u64,
    ) -> Result<(), StoreBufferFullError> {
        if self.is_full() {
            return Err(StoreBufferFullError);
        }
        debug_assert!(
            self.entries.last().is_none_or(|e| e.seq < seq),
            "stores must be inserted in ascending dynamic order"
        );
        self.entries.push(BufferedStore { seq, addr, size, bits });
        Ok(())
    }

    /// Forwarding lookup for a load with dynamic sequence `load_seq`.
    ///
    /// Only stores *older* than the load (smaller `seq`) participate. The
    /// youngest overlapping older store decides the outcome.
    pub fn forward(&mut self, load_seq: u64, addr: u64, size: u64) -> ForwardResult {
        // Entries are kept in ascending dynamic order (see `insert`), so
        // the stores older than the load form a prefix.
        let older = self.entries.partition_point(|e| e.seq < load_seq);
        for e in self.entries[..older].iter().rev() {
            if overlaps(e.addr, e.size, addr, size) {
                if covers(e, addr, size) {
                    let shift = 8 * (addr - e.addr);
                    let raw = e.bits >> shift;
                    let masked = if size == 8 { raw } else { raw & ((1 << (8 * size)) - 1) };
                    return ForwardResult::Forwarded(masked);
                }
                return ForwardResult::Partial;
            }
        }
        ForwardResult::NoConflict
    }

    /// The buffered store `seq`, if present.
    #[must_use]
    pub fn get(&self, seq: u64) -> Option<&BufferedStore> {
        let pos = self.entries.binary_search_by_key(&seq, |e| e.seq).ok()?;
        Some(&self.entries[pos])
    }

    /// Removes the entry for store `seq` (it has reached the B-pipe and is
    /// committing architecturally). Returns the entry if present.
    pub fn remove(&mut self, seq: u64) -> Option<BufferedStore> {
        let pos = self.entries.binary_search_by_key(&seq, |e| e.seq).ok()?;
        Some(self.entries.remove(pos))
    }

    /// Squashes all stores *after* `boundary_seq` (wrong-path squash on a
    /// misprediction or store-conflict flush).
    ///
    /// The boundary entry itself is retained: `boundary_seq` is the
    /// sequence number of the instruction that triggered the flush (the
    /// mispredicted branch, or the conflicting load), which itself retires
    /// in the B-pipe — only strictly younger work is wrong-path.
    pub fn flush_after(&mut self, boundary_seq: u64) {
        self.entries.retain(|e| e.seq <= boundary_seq);
    }

    /// Clears the buffer entirely.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_respects_age_order() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(5, 0x40, 8, 111).unwrap();
        sb.insert(7, 0x40, 8, 222).unwrap();
        // Load between the stores sees only the older one.
        assert_eq!(sb.forward(6, 0x40, 8), ForwardResult::Forwarded(111));
        // Younger load sees the youngest covering store.
        assert_eq!(sb.forward(8, 0x40, 8), ForwardResult::Forwarded(222));
        // Load older than both sees memory.
        assert_eq!(sb.forward(4, 0x40, 8), ForwardResult::NoConflict);
    }

    #[test]
    fn subword_forwarding_extracts_bytes() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0x100, 8, 0x1122_3344_5566_7788).unwrap();
        // Little-endian: byte offset 2 within the stored word holds 0x66.
        assert_eq!(sb.forward(2, 0x102, 2), ForwardResult::Forwarded(0x5566));
        assert_eq!(sb.forward(2, 0x100, 1), ForwardResult::Forwarded(0x88));
    }

    #[test]
    fn partial_overlap_defers_load() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0x104, 4, 0xDEAD).unwrap();
        // 8-byte load at 0x100 overlaps the store's [0x104,0x108) range
        // but is not covered by it.
        assert_eq!(sb.forward(2, 0x100, 8), ForwardResult::Partial);
    }

    #[test]
    fn disjoint_access_is_no_conflict() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0x100, 4, 7).unwrap();
        assert_eq!(sb.forward(2, 0x104, 4), ForwardResult::NoConflict);
        assert_eq!(sb.forward(2, 0xFC, 4), ForwardResult::NoConflict);
    }

    #[test]
    fn full_buffer_rejects() {
        let mut sb = StoreBuffer::new(1);
        sb.insert(1, 0x0, 8, 0).unwrap();
        assert!(sb.is_full());
        assert_eq!(sb.insert(2, 0x8, 8, 0), Err(StoreBufferFullError));
        assert_eq!(sb.len(), 1, "a rejected store is not buffered");
        assert_eq!(sb.forward(3, 0x8, 8), ForwardResult::NoConflict);
    }

    #[test]
    fn remove_on_commit_and_flush_after() {
        let mut sb = StoreBuffer::new(8);
        sb.insert(1, 0x0, 8, 10).unwrap();
        sb.insert(2, 0x8, 8, 20).unwrap();
        sb.insert(3, 0x10, 8, 30).unwrap();
        assert_eq!(sb.get(2).map(|e| e.addr), Some(0x8));
        assert_eq!(sb.remove(1).unwrap().bits, 10);
        assert!(sb.remove(1).is_none());
        assert!(sb.get(1).is_none());
        sb.flush_after(2);
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.forward(9, 0x8, 8), ForwardResult::Forwarded(20));
        assert_eq!(sb.forward(9, 0x10, 8), ForwardResult::NoConflict);
    }

    #[test]
    fn flush_after_retains_the_boundary_entry() {
        // The boundary instruction (the mispredicted branch / conflicting
        // load) retires in B; only strictly younger entries are wrong-path.
        let mut sb = StoreBuffer::new(8);
        sb.insert(4, 0x0, 8, 40).unwrap();
        sb.insert(5, 0x8, 8, 50).unwrap();
        sb.insert(6, 0x10, 8, 60).unwrap();
        sb.flush_after(5);
        assert_eq!(sb.len(), 2);
        assert_eq!(sb.forward(9, 0x8, 8), ForwardResult::Forwarded(50));
        assert_eq!(sb.forward(9, 0x10, 8), ForwardResult::NoConflict);
    }

    #[test]
    fn top_of_address_space_full_cover_forwards() {
        // Regression: `covers` used unchecked `addr + size`, which
        // overflowed (debug panic) for accesses ending at 2^64.
        let mut sb = StoreBuffer::new(4);
        let addr = u64::MAX - 4;
        sb.insert(1, addr, 4, 0xCAFE_BABE).unwrap();
        assert_eq!(sb.forward(2, addr, 4), ForwardResult::Forwarded(0xCAFE_BABE));
        assert_eq!(sb.forward(2, addr + 2, 2), ForwardResult::Forwarded(0xCAFE));
    }

    #[test]
    fn top_of_address_space_partial_and_disjoint() {
        let mut sb = StoreBuffer::new(4);
        let addr = u64::MAX - 4;
        // Store covering [MAX-4, MAX+1) in u128 terms — 5 bytes.
        sb.insert(1, addr, 5, 0x11_2233_4455).unwrap();
        // Load of 8 bytes starting below the store: overlap, not covered.
        assert_eq!(sb.forward(2, addr - 3, 8), ForwardResult::Partial);
        // A store ending exactly at 2^64 does not wrap onto address 0:
        // the old wrapping_add-based `overlaps` would have treated the
        // range as empty or aliased low addresses.
        sb.clear();
        sb.insert(3, u64::MAX - 7, 8, 0xFFFF).unwrap();
        assert_eq!(sb.forward(4, 0x0, 8), ForwardResult::NoConflict);
        assert_eq!(sb.forward(4, u64::MAX - 7, 8), ForwardResult::Forwarded(0xFFFF));
    }

    #[test]
    fn youngest_partial_shadows_older_full_cover() {
        // Age order: full-covering store (old), then partial overlap
        // (young). The youngest overlapping store decides: partial.
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0x100, 8, 0xAAAA).unwrap();
        sb.insert(2, 0x106, 4, 0xBBBB).unwrap();
        assert_eq!(sb.forward(3, 0x100, 8), ForwardResult::Partial);
    }
}
