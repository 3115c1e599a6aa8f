//! Shared front-end model: fetch, decode, branch prediction, redirects.
//!
//! The front end (IPG/ROT/EXP/DEC in the paper's Figure 3) follows the
//! *predicted* instruction stream: at each conditional branch it consults
//! the direction predictor and keeps fetching down the predicted path —
//! which is how wrong-path instructions enter the A-pipe when a deferred
//! branch turns out mispredicted. Targets are extracted at decode (the
//! ISA has direct branches only), so a predicted-taken branch redirects
//! fetch with no bubble.
//!
//! Issue groups are delimited by stop bits; a predicted-taken branch or
//! `halt` also ends its group, since hardware cannot issue past a taken
//! control transfer in the same cycle.

use ff_isa::{Opcode, Program};
use ff_mem::{Cache, CacheGeometry};
use ff_predict::DirectionPredictor;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Bytes occupied by one instruction in the modeled encoding (used for
/// I-cache indexing).
pub const INSN_BYTES: u64 = 16;

/// One decoded instruction waiting in the fetch buffer.
///
/// Deliberately small and `Copy`: the engines look the instruction
/// itself up in their pre-decoded program store by `pc`, so the fetch
/// buffer only moves slot descriptors around, not opcode payloads.
#[derive(Debug, Clone, Copy)]
pub struct FetchedInsn {
    /// Dynamic sequence number (monotonic across the run, including
    /// wrong-path instructions).
    pub seq: u64,
    /// Static instruction index.
    pub pc: usize,
    /// Whether this instruction ends its issue group.
    pub group_end: bool,
    /// For conditional branches: the predicted direction.
    pub predicted_taken: bool,
}

/// Front-end statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontendStats {
    /// Instructions fetched (including wrong path).
    pub fetched: u64,
    /// I-cache misses taken.
    pub icache_misses: u64,
    /// Redirects (mispredictions and flush recoveries).
    pub redirects: u64,
}

/// Fetch parameters.
#[derive(Debug, Clone, Copy)]
pub struct FrontendConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Fetch-buffer capacity in instructions.
    pub buffer_capacity: usize,
    /// Stall charged on an I-cache miss, cycles.
    pub icache_miss_latency: u64,
    /// L1I geometry.
    pub icache: CacheGeometry,
}

/// The decoupled front end.
#[derive(Debug)]
pub struct Frontend<'p> {
    program: &'p Program,
    predictor: Box<dyn DirectionPredictor + Send>,
    icache: Cache,
    config: FrontendConfig,
    /// Next instruction index to fetch; `None` once fetch has stopped
    /// (after `halt`, or after running off the wrong-path end).
    fetch_pc: Option<usize>,
    buffer: VecDeque<FetchedInsn>,
    /// Cycle at which fetch may resume (redirect / I-miss penalty).
    resume_at: u64,
    next_seq: u64,
    stats: FrontendStats,
}

impl<'p> Frontend<'p> {
    /// Creates a front end fetching from instruction 0.
    ///
    /// # Panics
    ///
    /// Panics if the I-cache geometry is invalid.
    #[must_use]
    pub fn new(
        program: &'p Program,
        predictor: Box<dyn DirectionPredictor + Send>,
        config: FrontendConfig,
    ) -> Self {
        let icache = Cache::new(config.icache).expect("valid icache geometry");
        Frontend {
            program,
            predictor,
            icache,
            config,
            fetch_pc: Some(0),
            buffer: VecDeque::new(),
            resume_at: 0,
            next_seq: 0,
            stats: FrontendStats::default(),
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> FrontendStats {
        self.stats
    }

    /// The direction predictor (engines call `update` at retire).
    pub fn predictor_mut(&mut self) -> &mut (dyn DirectionPredictor + Send) {
        &mut *self.predictor
    }

    /// Whether the front end can make no further progress (stopped and
    /// buffer empty).
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.fetch_pc.is_none() && self.buffer.is_empty()
    }

    /// Whether fetch is currently idle because of a redirect penalty.
    #[must_use]
    pub fn is_refilling(&self, now: u64) -> bool {
        now < self.resume_at
    }

    /// The cycle at which a pending redirect / I-miss penalty expires.
    /// Not meaningful unless [`Frontend::is_refilling`]; fetch before
    /// this cycle is a guaranteed no-op.
    #[must_use]
    pub fn resume_at(&self) -> u64 {
        self.resume_at
    }

    /// Whether [`Frontend::tick`] is a guaranteed no-op *independently of
    /// the clock*: fetch has stopped (halt / ran off the wrong-path end)
    /// or the buffer is full. Both conditions can only change through
    /// `consume`/`redirect`, i.e. through engine progress, so a stalled
    /// engine may fast-forward across a span without ticking a
    /// stopped-or-full front end. A merely *refilling* front end is not
    /// inert in this sense — it wakes at [`Frontend::resume_at`].
    #[must_use]
    pub fn is_stopped_or_full(&self) -> bool {
        self.fetch_pc.is_none() || self.buffer.len() >= self.config.buffer_capacity
    }

    /// Fetches up to `fetch_width` instructions into the buffer.
    pub fn tick(&mut self, now: u64) {
        if now < self.resume_at {
            return;
        }
        let mut line_this_cycle: Option<u64> = None;
        for _ in 0..self.config.fetch_width {
            if self.buffer.len() >= self.config.buffer_capacity {
                break;
            }
            let Some(pc) = self.fetch_pc else { break };
            let Some(&insn) = self.program.get(pc) else {
                // Wrong-path fetch ran off the end of the program.
                self.fetch_pc = None;
                break;
            };

            // I-cache: charge a miss when fetch touches a non-resident
            // line; sequential same-line fetches in one cycle are free.
            let line = self.icache.geometry().line_of(pc as u64 * INSN_BYTES);
            if line_this_cycle != Some(line) {
                if !self.icache.access(pc as u64 * INSN_BYTES, false).hit {
                    self.stats.icache_misses += 1;
                    self.resume_at = now + self.config.icache_miss_latency;
                    break;
                }
                line_this_cycle = Some(line);
            }

            let mut fetched = FetchedInsn {
                seq: self.next_seq,
                pc,
                group_end: insn.stop,
                predicted_taken: false,
            };
            self.next_seq += 1;
            self.stats.fetched += 1;

            match insn.op {
                Opcode::Br { target } => {
                    let taken = if insn.qp.is_some() {
                        self.predictor.predict(pc as u64)
                    } else {
                        true // unconditional
                    };
                    fetched.predicted_taken = taken;
                    if taken {
                        fetched.group_end = true;
                        self.fetch_pc = Some(target);
                    } else {
                        self.fetch_pc = Some(pc + 1);
                    }
                }
                Opcode::Halt => {
                    fetched.group_end = true;
                    self.fetch_pc = None;
                }
                _ => {
                    self.fetch_pc = Some(pc + 1);
                }
            }
            let is_taken_br = fetched.group_end && fetched.predicted_taken;
            self.buffer.push_back(fetched);
            if is_taken_br {
                // Taken control transfer ends the fetch cycle too.
                break;
            }
        }
    }

    /// Length of the complete issue group at the buffer head, if one has
    /// been fully fetched.
    #[must_use]
    pub fn complete_group_len(&self) -> Option<usize> {
        self.buffer.iter().position(|f| f.group_end).map(|i| i + 1)
    }

    /// The buffered instruction at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn peek(&self, i: usize) -> &FetchedInsn {
        &self.buffer[i]
    }

    /// Removes the first `n` buffered instructions (they issued).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` instructions are buffered.
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.buffer.len());
        self.buffer.drain(..n);
    }

    /// Squashes the buffer and restarts fetch at `pc`, with fetch
    /// resuming at cycle `resume_at` (the redirect penalty).
    pub fn redirect(&mut self, pc: usize, resume_at: u64) {
        self.buffer.clear();
        self.fetch_pc = Some(pc);
        // Overrides any pending I-miss penalty: that miss belonged to the
        // squashed path.
        self.resume_at = resume_at;
        self.stats.redirects += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::reg::{IntReg, PredReg};
    use ff_isa::{CmpKind, ProgramBuilder};
    use ff_predict::PredictorConfig;

    fn config() -> FrontendConfig {
        FrontendConfig {
            fetch_width: 8,
            buffer_capacity: 32,
            icache_miss_latency: 10,
            icache: crate::L1I_GEOMETRY,
        }
    }

    fn straightline() -> Program {
        let mut b = ProgramBuilder::new();
        b.movi(IntReg::n(1), 1);
        b.movi(IntReg::n(2), 2);
        b.stop();
        b.addi(IntReg::n(3), IntReg::n(1), 1);
        b.stop();
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn fetch_fills_buffer_and_marks_groups() {
        let p = straightline();
        let mut fe = Frontend::new(&p, PredictorConfig::StaticNotTaken.build(), config());
        fe.tick(0); // first access misses icache
        assert_eq!(fe.complete_group_len(), None);
        assert_eq!(fe.stats().icache_misses, 1);
        fe.tick(10);
        assert_eq!(fe.complete_group_len(), Some(2));
        assert!(fe.peek(1).group_end);
        assert!(!fe.peek(0).group_end);
        fe.consume(2);
        assert_eq!(fe.complete_group_len(), Some(1)); // the addi group
    }

    #[test]
    fn halt_ends_fetch() {
        let p = straightline();
        let mut fe = Frontend::new(&p, PredictorConfig::StaticNotTaken.build(), config());
        fe.tick(0);
        fe.tick(10);
        fe.tick(11);
        assert_eq!(fe.stats().fetched, 4);
        fe.consume(2);
        fe.consume(1);
        fe.consume(1);
        assert!(fe.is_drained());
    }

    fn loop_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.movi(IntReg::n(1), 0);
        b.stop();
        let top = b.here();
        b.addi(IntReg::n(1), IntReg::n(1), 1);
        b.stop();
        b.cmpi(CmpKind::Lt, PredReg::n(1), PredReg::n(2), IntReg::n(1), 4);
        b.stop();
        b.br_cond(PredReg::n(1), top);
        b.stop();
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn predicted_taken_branch_follows_target_and_ends_group() {
        let p = loop_program();
        let mut fe = Frontend::new(&p, PredictorConfig::StaticTaken.build(), config());
        fe.tick(0);
        fe.tick(10);
        fe.tick(11);
        // buffer: movi | addi | cmpi | br(taken)->top | then addi again...
        let mut seen = Vec::new();
        while let Some(len) = fe.complete_group_len() {
            for i in 0..len {
                seen.push(fe.peek(i).pc);
            }
            fe.consume(len);
        }
        // After the br at pc 3 predicted taken, fetch resumes at pc 1.
        let br_pos = seen.iter().position(|&pc| pc == 3).unwrap();
        assert_eq!(seen.get(br_pos + 1), Some(&1));
    }

    #[test]
    fn predicted_not_taken_branch_falls_through_to_halt() {
        let p = loop_program();
        let mut fe = Frontend::new(&p, PredictorConfig::StaticNotTaken.build(), config());
        // Ticks spaced to ride out the two cold I-cache misses (pc 0 and
        // the halt at byte 64 on the second line).
        for now in [0, 10, 11, 20, 21] {
            fe.tick(now);
        }
        let mut pcs = Vec::new();
        while let Some(len) = fe.complete_group_len() {
            for i in 0..len {
                pcs.push(fe.peek(i).pc);
            }
            fe.consume(len);
        }
        assert_eq!(pcs, vec![0, 1, 2, 3, 4], "fall-through path ends at halt");
        assert!(fe.is_drained());
    }

    #[test]
    fn redirect_flushes_and_delays_fetch() {
        let p = loop_program();
        let mut fe = Frontend::new(&p, PredictorConfig::StaticNotTaken.build(), config());
        fe.tick(0);
        fe.tick(10);
        fe.redirect(1, 20);
        assert_eq!(fe.complete_group_len(), None);
        assert!(fe.is_refilling(15));
        fe.tick(15); // too early, no effect
        assert_eq!(fe.complete_group_len(), None);
        fe.tick(20);
        assert_eq!(fe.peek(0).pc, 1);
        assert_eq!(fe.stats().redirects, 1);
    }

    #[test]
    fn sequence_numbers_are_monotonic_across_redirects() {
        let p = loop_program();
        let mut fe = Frontend::new(&p, PredictorConfig::StaticNotTaken.build(), config());
        fe.tick(0);
        fe.tick(10);
        let last_seq = fe.peek(0).seq;
        fe.redirect(0, 12);
        fe.tick(12);
        assert!(fe.peek(0).seq > last_seq);
    }

    #[test]
    fn inertness_probe_tracks_stop_full_and_refill() {
        let p = straightline();
        let mut fe = Frontend::new(&p, PredictorConfig::StaticNotTaken.build(), config());
        assert!(!fe.is_stopped_or_full(), "fresh front end is fetching");
        fe.tick(0); // cold I-miss: refilling until 10, but not inert
        assert!(fe.is_refilling(5));
        assert_eq!(fe.resume_at(), 10);
        assert!(!fe.is_stopped_or_full());
        fe.tick(10);
        fe.tick(11); // fetches through the halt: fetch stops
        assert!(fe.is_stopped_or_full(), "halt stops fetch for good");
        assert!(!fe.is_refilling(11));
    }

    #[test]
    fn wrong_path_off_end_stops_quietly() {
        // Program whose last instruction is an unconditional branch; a
        // not-taken *prediction* cannot occur for it (unconditional), so
        // craft a conditional branch at the end via a manual program.
        use ff_isa::Instruction;
        let p = Program::new(vec![
            Instruction::new(Opcode::CmpI {
                kind: CmpKind::Eq,
                pt: PredReg::n(1),
                pf: PredReg::n(2),
                a: IntReg::n(0),
                imm: 0,
            })
            .with_stop(),
            Instruction::new(Opcode::Br { target: 0 }).predicated(PredReg::n(1)).with_stop(),
            Instruction::new(Opcode::Br { target: 0 }),
        ])
        .unwrap();
        let mut fe = Frontend::new(&p, PredictorConfig::StaticNotTaken.build(), config());
        fe.tick(0);
        fe.tick(10);
        fe.tick(11);
        fe.tick(12);
        // Fetch followed not-taken past pc 2 (unconditional br taken to 0,
        // so it loops legally); just ensure no panic and progress happens.
        assert!(fe.stats().fetched > 0);
    }
}
