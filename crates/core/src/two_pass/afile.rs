//! The A-file: the A-pipe's speculative register file (paper §3.3).
//!
//! Each register carries, beyond its raw value:
//!
//! * **V** (valid) — cleared on the destinations of deferred instructions;
//!   a clear V bit is what propagates deferral to dataflow successors.
//! * **S** (speculative) — set by A-pipe writes, cleared when the B-pipe
//!   commits the same value architecturally; on a B-DET flush only the
//!   S-marked registers need repair from the B-file.
//! * **DynID** — the dynamic sequence number of the last writer, used to
//!   accept or drop B→A feedback updates.
//!
//! Additionally each entry tracks a `ready_at` cycle (the in-pipe
//! scoreboard: an A-executed load's destination is V-valid but unusable
//! until the fill returns) and whether the pending producer is an FP
//! operation (for the optional stall-on-anticipable-FP policy). No other
//! producer kind is tracked: B-pipe stalls are attributed from the
//! B-side scoreboard and the coupling queue, not from the A-file.

use crate::engine::Scoreboard;
use ff_isa::reg::TOTAL_REGS;
use ff_isa::{RegId, RegRead};

/// Sentinel DynID meaning "architectural value, no in-flight writer".
pub const ARCH_DYN_ID: u64 = u64::MAX;

/// One A-file register.
#[derive(Debug, Clone, Copy)]
pub struct AEntry {
    /// Raw value image.
    pub bits: u64,
    /// Valid: value is (or will be) produced by the A-pipe.
    pub v: bool,
    /// Speculative: written by the A-pipe, not yet committed by B.
    pub s: bool,
    /// Last writer's dynamic ID.
    pub dyn_id: u64,
    /// Cycle the value becomes readable.
    pub ready_at: u64,
    /// Whether the in-flight producer is an FP-unit operation
    /// (anticipable latency).
    pub fp: bool,
}

impl Default for AEntry {
    fn default() -> Self {
        AEntry { bits: 0, v: true, s: false, dyn_id: ARCH_DYN_ID, ready_at: 0, fp: false }
    }
}

/// Readiness of one source register at A-pipe dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceState {
    /// Value available this cycle.
    Ready,
    /// Producer was deferred to the B-pipe (V clear): consumer must defer.
    Deferred,
    /// Producer started in the A-pipe but has not completed.
    InFlight {
        /// Whether the producer is an FP-unit operation.
        fp: bool,
    },
}

/// The A-pipe's speculative register file.
#[derive(Debug, Clone)]
pub struct AFile {
    entries: Box<[AEntry; TOTAL_REGS]>,
}

impl Default for AFile {
    fn default() -> Self {
        Self::new()
    }
}

impl AFile {
    /// Creates an A-file with all registers valid, zero, architectural.
    #[must_use]
    pub fn new() -> Self {
        AFile { entries: Box::new([AEntry::default(); TOTAL_REGS]) }
    }

    /// The entry for `reg`.
    #[must_use]
    pub fn entry(&self, reg: RegId) -> &AEntry {
        &self.entries[reg.index()]
    }

    /// Readiness of `reg` as a source at cycle `now`.
    #[must_use]
    pub fn source_state(&self, reg: RegId, now: u64) -> SourceState {
        let e = &self.entries[reg.index()];
        if !e.v {
            SourceState::Deferred
        } else if e.ready_at > now {
            SourceState::InFlight { fp: e.fp }
        } else {
            SourceState::Ready
        }
    }

    /// Records an A-pipe execution writing `reg` (`fp`: by an FP-unit
    /// operation).
    pub fn write_executed(&mut self, reg: RegId, bits: u64, dyn_id: u64, ready_at: u64, fp: bool) {
        self.entries[reg.index()] = AEntry { bits, v: true, s: true, dyn_id, ready_at, fp };
    }

    /// Marks `reg` as the destination of a deferred instruction: V
    /// clears, and the DynID remembers who will eventually produce it.
    pub fn mark_deferred(&mut self, reg: RegId, dyn_id: u64) {
        let e = &mut self.entries[reg.index()];
        e.v = false;
        e.s = true;
        e.dyn_id = dyn_id;
        e.fp = false;
    }

    /// Applies a B→A feedback update. The update lands only if `dyn_id`
    /// still names the last writer; otherwise a younger instruction owns
    /// the register and the update is stale. Returns whether it applied.
    pub fn feedback_update(&mut self, reg: RegId, dyn_id: u64, bits: u64, now: u64) -> bool {
        let e = &mut self.entries[reg.index()];
        if e.dyn_id != dyn_id {
            return false;
        }
        e.bits = bits;
        e.v = true;
        e.s = false;
        e.ready_at = e.ready_at.max(now);
        e.fp = false;
        true
    }

    /// Repairs every speculative entry from the architectural B-file
    /// (B-DET flush / store-conflict flush). The B-side scoreboard's
    /// availability carries over so in-flight B results keep their timing.
    pub fn repair_from(&mut self, b: &Scoreboard, now: u64) -> usize {
        let mut repaired = 0;
        for i in 0..TOTAL_REGS {
            let e = &mut self.entries[i];
            if e.s || !e.v {
                e.bits = b.regs[i];
                e.v = true;
                e.s = false;
                e.dyn_id = ARCH_DYN_ID;
                e.ready_at = now.max(b.ready_at[i]);
                e.fp = false;
                repaired += 1;
            }
        }
        repaired
    }
}

/// `RegRead` view over the A-file's raw bits (used by `evaluate`).
impl RegRead for AFile {
    fn read(&self, r: RegId) -> u64 {
        self.entries[r.index()].bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::StallCause;
    use ff_isa::reg::IntReg;

    fn reg(i: u8) -> RegId {
        RegId::Int(IntReg::n(i))
    }

    #[test]
    fn fresh_file_is_ready_and_architectural() {
        let f = AFile::new();
        assert_eq!(f.source_state(reg(5), 0), SourceState::Ready);
        assert_eq!(f.entry(reg(5)).dyn_id, ARCH_DYN_ID);
        assert!(!f.entry(reg(5)).s);
    }

    #[test]
    fn executed_write_is_speculative_and_latency_gated() {
        let mut f = AFile::new();
        f.write_executed(reg(1), 42, 7, 10, true);
        assert_eq!(f.source_state(reg(1), 5), SourceState::InFlight { fp: true });
        assert_eq!(f.source_state(reg(1), 10), SourceState::Ready);
        assert_eq!(f.read(reg(1)), 42);
        assert!(f.entry(reg(1)).s);
    }

    #[test]
    fn deferred_mark_propagates_deferral() {
        let mut f = AFile::new();
        f.mark_deferred(reg(2), 9);
        assert_eq!(f.source_state(reg(2), 100), SourceState::Deferred);
        assert_eq!(f.entry(reg(2)).dyn_id, 9);
    }

    #[test]
    fn feedback_applies_only_with_matching_dyn_id() {
        let mut f = AFile::new();
        f.mark_deferred(reg(3), 11);
        // Stale update from an older writer:
        assert!(!f.feedback_update(reg(3), 10, 5, 4));
        assert_eq!(f.source_state(reg(3), 10), SourceState::Deferred);
        // Matching update restores validity:
        assert!(f.feedback_update(reg(3), 11, 5, 4));
        assert_eq!(f.source_state(reg(3), 10), SourceState::Ready);
        assert_eq!(f.read(reg(3)), 5);
        assert!(!f.entry(reg(3)).s, "committed value is no longer speculative");
    }

    #[test]
    fn younger_a_write_turns_feedback_away() {
        let mut f = AFile::new();
        f.mark_deferred(reg(4), 20);
        f.write_executed(reg(4), 99, 25, 0, false);
        assert!(!f.feedback_update(reg(4), 20, 1, 0));
        assert_eq!(f.read(reg(4)), 99);
    }

    #[test]
    fn repair_restores_only_speculative_entries() {
        let mut f = AFile::new();
        let mut b = Scoreboard::new();
        b.write(reg(1), 111, 0, StallCause::DepOther, 0);
        b.write(reg(2), 222, 0, StallCause::DepOther, 0);

        f.write_executed(reg(1), 77, 5, 0, false); // wrong-path pollution
        f.mark_deferred(reg(2), 6);
        // reg(3) untouched: must not be "repaired"
        let repaired = f.repair_from(&b, 50);
        assert_eq!(repaired, 2);
        assert_eq!(f.read(reg(1)), 111);
        assert_eq!(f.read(reg(2)), 222);
        assert_eq!(f.source_state(reg(2), 50), SourceState::Ready);
        assert_eq!(f.entry(reg(3)).bits, 0);
        assert_eq!(f.repair_from(&b, 50), 0, "no speculative entry is left");
    }

    #[test]
    fn repair_preserves_b_side_latency() {
        let mut f = AFile::new();
        let mut b = Scoreboard::new();
        b.write(reg(1), 0, 200, StallCause::LoadMem, 0);
        f.mark_deferred(reg(1), 3);
        f.repair_from(&b, 50);
        assert_eq!(f.source_state(reg(1), 100), SourceState::InFlight { fp: false });
        assert_eq!(f.source_state(reg(1), 200), SourceState::Ready);
    }
}
