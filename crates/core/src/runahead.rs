//! Checkpoint-based runahead execution (the paper's §2 comparison).
//!
//! Synthesizes the Dundas and Mutlu schemes the paper cites: when the
//! in-order pipeline stalls on the *use* of a pending load, the machine
//! checkpoints architectural state and keeps executing speculatively —
//! propagating INV ("invalid") marks instead of stalling — purely to
//! warm the memory hierarchy. When the blocking load returns, the
//! checkpoint is restored and execution resumes at the stalled group;
//! **all runahead results are discarded** (the contrast the paper draws:
//! two-pass pipelining *keeps* its pre-executed work).
//!
//! Outside an episode the machine *is* the baseline: [`RunaheadPolicy`]
//! wraps [`BaselinePolicy`] and only reacts when it reports a load stall.
//!
//! Modeling choices (documented in DESIGN.md): runahead stores write a
//! private overlay (forwarded to runahead loads, discarded at exit);
//! branches with INV conditions follow the predictor; the predictor is
//! trained only by architectural execution; exit charges a small
//! restart penalty plus a front-end refill.

use crate::accounting::{CycleClass, StallAttr};
use crate::baseline::BaselinePolicy;
use crate::config::MachineConfig;
use crate::engine::{Core, Engine, Policy, RegBits, Step};
use crate::metrics::{MetricSource, MetricsBuilder};
use crate::report::{ModelKind, Pipe, SimReport};
use crate::sink::SinkHandle;
use crate::trace::TraceEvent;
use ff_isa::reg::TOTAL_REGS;
use ff_isa::{evaluate, load_write, Effect, MemoryImage, PageHasher};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Extra counters for the runahead machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunaheadStats {
    /// Times runahead mode was entered.
    pub episodes: u64,
    /// Cycles spent in runahead mode.
    pub runahead_cycles: u64,
    /// Loads initiated during runahead (the prefetch benefit).
    pub runahead_loads: u64,
    /// Runahead instructions whose results were discarded.
    pub discarded_instrs: u64,
}

impl MetricSource for RunaheadStats {
    fn export_metrics(&self, m: &mut MetricsBuilder) {
        m.counter("episodes", self.episodes)
            .counter("cycles", self.runahead_cycles)
            .counter("loads", self.runahead_loads)
            .counter("discarded_instrs", self.discarded_instrs);
    }
}

/// Cycles charged when leaving runahead mode (checkpoint restore).
const EXIT_PENALTY: u64 = 2;

/// The baseline in-order pipeline extended with runahead pre-execution.
///
/// # Examples
///
/// ```
/// use ff_core::{MachineConfig, Runahead};
/// use ff_isa::{MemoryImage, ProgramBuilder};
/// use ff_isa::reg::IntReg;
///
/// let mut b = ProgramBuilder::new();
/// b.movi(IntReg::n(1), 5);
/// b.stop();
/// b.halt();
/// let program = b.build()?;
/// let report = Runahead::new(&program, MemoryImage::new(), MachineConfig::paper_table1())
///     .run(1_000);
/// assert_eq!(report.retired, 2);
/// # Ok::<(), ff_isa::BuildProgramError>(())
/// ```
pub type Runahead<'p> = Engine<'p, RunaheadPolicy>;

/// The runahead issue policy: the baseline issue stage plus episodes.
///
/// The speculative state (registers, INV marks, availability, store
/// overlay) lives here for the whole run. Each episode copies the
/// checkpoint into it at entry and works on it in place, so an episode
/// cycle neither moves register-file-sized state nor allocates.
#[derive(Debug)]
pub struct RunaheadPolicy {
    base: BaselinePolicy,
    /// The open episode; `None` outside runahead.
    episode: Option<Episode>,
    /// Speculative register bits.
    regs: RegBits,
    /// INV marks.
    inv: [bool; TOTAL_REGS],
    /// Per-register availability within runahead.
    ready_at: [u64; TOTAL_REGS],
    /// Runahead store overlay (cleared at exit).
    stores: StoreOverlay,
    stats: RunaheadStats,
}

/// Control state of one runahead episode.
#[derive(Debug, Clone, Copy)]
struct Episode {
    /// Cycle the blocking load completes (episode end).
    until: u64,
    /// PC of the stalled group, to refetch at exit.
    resume_pc: usize,
    /// Set when runahead ran off a halt or drained: idle until `until`.
    done: bool,
    /// `discarded_instrs` at episode entry, so the exit event can report
    /// how many speculative instructions this episode threw away.
    discarded_at_entry: u64,
    /// Attribution of the blocking load captured at entry: every cycle of
    /// the episode is charged to the load the machine is stalled on.
    attr: StallAttr,
}

/// Bytes written by runahead stores, kept off architectural memory.
///
/// Bytes are grouped by aligned 8-byte word: each entry holds the word's
/// bytes and a mask of the ones written, so an access of up to 8 bytes
/// touches at most two entries. Clearing keeps the table's capacity.
#[derive(Debug, Default)]
struct StoreOverlay {
    words: HashMap<u64, (u64, u8), BuildHasherDefault<PageHasher>>,
}

/// Widens a per-byte mask to a mask of those bytes' bits.
fn byte_bits(mask: u8) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|i| if (mask >> i) & 1 == 1 { 0xFF } else { 0 }))
}

impl StoreOverlay {
    /// Reads `size` bytes (1..=8) at `addr` as a runahead load sees them:
    /// `mem`'s bytes with the overlay's patched over. Like
    /// [`MemoryImage::load`], an access past `u64::MAX` wraps to 0.
    fn read(&self, mem: &mut MemoryImage, addr: u64, size: u64) -> u64 {
        let raw = mem.load(addr, size);
        if self.words.is_empty() {
            return raw;
        }
        let key = addr & !7;
        let shift = addr & 7;
        let (lo, lo_mask) = self.words.get(&key).copied().unwrap_or_default();
        let (hi, hi_mask) = if shift + size > 8 {
            self.words.get(&key.wrapping_add(8)).copied().unwrap_or_default()
        } else {
            (0, 0)
        };
        let data = (((u128::from(hi) << 64) | u128::from(lo)) >> (8 * shift)) as u64;
        let mask = (((u16::from(hi_mask) << 8) | u16::from(lo_mask)) >> shift) & ((1 << size) - 1);
        let bits = byte_bits(mask as u8);
        (raw & !bits) | (data & bits)
    }

    /// Writes the low `size` bytes (1..=8) of `value` at `addr`.
    fn write(&mut self, addr: u64, size: u64, value: u64) {
        let key = addr & !7;
        let shift = addr & 7;
        let data = u128::from(value) << (8 * shift);
        let mask = ((1u16 << size) - 1) << shift;
        self.merge(key, data as u64, mask as u8);
        if mask >> 8 != 0 {
            self.merge(key.wrapping_add(8), (data >> 64) as u64, (mask >> 8) as u8);
        }
    }

    fn merge(&mut self, key: u64, data: u64, mask: u8) {
        let (word, written) = self.words.entry(key).or_default();
        let bits = byte_bits(mask);
        *word = (*word & !bits) | (data & bits);
        *written |= mask;
    }

    fn clear(&mut self) {
        self.words.clear();
    }
}

impl RunaheadPolicy {
    /// Checkpoints the architectural state and opens an episode that
    /// lasts until the blocking load returns at `until`.
    fn enter_runahead(
        &mut self,
        core: &Core<'_>,
        until: u64,
        attr: StallAttr,
        sink: &mut SinkHandle,
    ) {
        // The whole group stalls (EPIC group-at-once issue), so the
        // episode must refetch from the group *head*: the blocked
        // instruction may be a later member, and any members before it
        // have not executed architecturally.
        let resume_pc = core.frontend.peek(0).pc;
        self.stats.episodes += 1;
        sink.emit_with(|| TraceEvent::RunaheadEnter { cycle: core.cycle, pc: resume_pc });
        self.regs = core.arch.regs;
        self.inv = [false; TOTAL_REGS];
        self.ready_at = core.arch.ready_at;
        self.episode = Some(Episode {
            until,
            resume_pc,
            done: false,
            discarded_at_entry: self.stats.discarded_instrs,
            attr,
        });
    }

    /// One cycle of runahead pre-execution. Architecturally the machine
    /// is still stalled on the blocking load, so the cycle is charged as
    /// a load stall.
    fn ra_step(&mut self, ep: Episode, core: &mut Core<'_>, sink: &mut SinkHandle) -> Step {
        self.stats.runahead_cycles += 1;

        if core.cycle >= ep.until {
            // Blocking load returned: restore the checkpoint (by leaving
            // the episode state behind) and refetch from the stalled group.
            sink.emit_with(|| TraceEvent::RunaheadExit {
                cycle: core.cycle,
                pc: ep.resume_pc,
                discarded: self.stats.discarded_instrs - ep.discarded_at_entry,
            });
            core.frontend.redirect(ep.resume_pc, core.cycle + EXIT_PENALTY);
            self.episode = None;
            self.stores.clear();
            return (ep.attr, None);
        }

        // Idle — ran off a halt, or fetch-starved — until the blocking
        // load returns (the engine caps the jump at a front-end refill).
        let mut wake = Some(ep.until);
        if !ep.done {
            if let Some(group_len) = core.frontend.complete_group_len() {
                if self.ra_issue(group_len, core, sink) {
                    self.episode = Some(Episode { done: true, ..ep });
                }
                wake = None;
            }
        }
        (ep.attr, wake)
    }

    /// Issues one group speculatively under INV semantics. Returns true
    /// when the group ran into a halt.
    fn ra_issue(&mut self, group_len: usize, core: &mut Core<'_>, sink: &mut SinkHandle) -> bool {
        let n = core.fitting_prefix((0..group_len).map(|i| core.frontend.peek(i).pc));
        let mut issued = 0;
        let mut redirect: Option<usize> = None;
        let mut halted = false;
        for i in 0..n {
            let f = *core.frontend.peek(i);
            issued += 1;
            self.stats.discarded_instrs += 1;

            let d = core.code.at(f.pc);
            let lat = d.latency;
            let conditional = d.insn.qp.is_some();

            // INV / not-yet-ready sources poison the result instead of
            // stalling.
            let poisoned = d
                .srcs
                .iter()
                .any(|src| self.inv[src.index()] || self.ready_at[src.index()] > core.cycle);

            match evaluate(&d.insn, &self.regs) {
                Effect::Nullified | Effect::Nop => {}
                Effect::Write(writes) => {
                    for w in writes.iter() {
                        self.regs[w.reg.index()] = w.bits;
                        self.inv[w.reg.index()] = poisoned;
                        self.ready_at[w.reg.index()] = core.cycle + lat;
                    }
                }
                Effect::Load { addr, size, signed, dest } => {
                    if poisoned {
                        self.inv[dest.index()] = true;
                    } else {
                        // The whole point: initiate the miss early.
                        let raw = self.stores.read(&mut core.mem_img, addr, size);
                        let (done, _) = core.book_load(addr, Pipe::A, sink);
                        self.stats.runahead_loads += 1;
                        self.regs[dest.index()] = load_write(raw, size, signed);
                        self.inv[dest.index()] = false;
                        self.ready_at[dest.index()] = done;
                    }
                }
                Effect::Store { addr, size, bits } => {
                    if !poisoned {
                        self.stores.write(addr, size, bits);
                    }
                }
                Effect::Branch { taken, target } => {
                    if poisoned {
                        // Condition unknown: trust the prediction and keep
                        // fetching down the predicted path.
                        if f.predicted_taken {
                            break;
                        }
                    } else {
                        if conditional && taken != f.predicted_taken {
                            redirect = Some(if taken { target } else { f.pc + 1 });
                            break;
                        }
                        if taken {
                            break;
                        }
                    }
                }
                Effect::Halt => {
                    halted = true;
                    break;
                }
            }
        }
        core.frontend.consume(issued);
        if let Some(pc) = redirect {
            // In-runahead branch repair: cheap redirect, no episode end.
            core.frontend.redirect(pc, core.cycle + core.cfg.adet_penalty());
        }
        halted
    }
}

impl Policy for RunaheadPolicy {
    fn new(_cfg: &MachineConfig) -> Self {
        RunaheadPolicy {
            base: BaselinePolicy,
            episode: None,
            regs: [0; TOTAL_REGS],
            inv: [false; TOTAL_REGS],
            ready_at: [0; TOTAL_REGS],
            stores: StoreOverlay::default(),
            stats: RunaheadStats::default(),
        }
    }

    fn kind(&self) -> ModelKind {
        ModelKind::Runahead
    }

    fn step(&mut self, core: &mut Core<'_>, sink: &mut SinkHandle) -> Step {
        if let Some(ep) = self.episode {
            return self.ra_step(ep, core, sink);
        }
        let (attr, wake) = self.base.step(core, sink);
        if attr.cause.class() != CycleClass::LoadStall {
            return (attr, wake);
        }
        // A load-use stall opens an episode instead of idling. The next
        // cycle runs in runahead mode — never skip it.
        let until = wake.expect("a load stall wakes when its load returns");
        self.enter_runahead(core, until, attr, sink);
        (attr, None)
    }

    #[inline]
    fn charge_span(&mut self, span: u64) {
        if self.episode.is_some() {
            self.stats.runahead_cycles += span;
        }
    }

    #[inline]
    fn drained(&self, core: &Core<'_>) -> bool {
        self.episode.is_none() && self.base.drained(core)
    }

    fn report(self, _report: &mut SimReport, extra: &mut MetricsBuilder) {
        extra.scope("runahead", &self.stats);
    }

    #[cfg(feature = "audit")]
    fn audit_span(&mut self, core: &mut Core<'_>, attr: StallAttr, target: u64) {
        let Some(ep) = &self.episode else {
            return self.base.audit_span(core, attr, target);
        };
        // A skipped runahead cycle must be idle: episode still open and
        // nothing issuable.
        assert!(target - 1 < ep.until, "fast-forward overran the episode end");
        assert!(
            ep.done || core.frontend.complete_group_len().is_none(),
            "fast-forwarded runahead span had an issuable group"
        );
        assert_eq!(
            ep.attr, attr,
            "fast-forwarded span [{}, {target}) had an enabled event",
            core.cycle,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::Baseline;
    use ff_isa::reg::{IntReg, PredReg};
    use ff_isa::{ArchState, CmpKind, ProgramBuilder};
    use proptest::prelude::*;

    fn r(i: u8) -> IntReg {
        IntReg::n(i)
    }

    fn p(i: u8) -> PredReg {
        PredReg::n(i)
    }

    fn cfg() -> MachineConfig {
        MachineConfig::paper_table1()
    }

    /// Streaming loads where each iteration's miss can be prefetched by
    /// runahead during the previous stall.
    fn stream_program(len: i64) -> (ff_isa::Program, MemoryImage) {
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0x10_0000);
        b.movi(r(2), 0);
        b.movi(r(3), 0);
        b.stop();
        let top = b.here();
        b.ld8(r(4), r(1), 0);
        b.stop();
        b.addi(r(1), r(1), 4096);
        b.stop();
        b.add(r(3), r(3), r(4)); // stall-on-use point
        b.stop();
        b.addi(r(2), r(2), 1);
        b.stop();
        b.cmpi(CmpKind::Lt, p(1), p(2), r(2), len);
        b.stop();
        b.br_cond(p(1), top);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let mut mem = MemoryImage::new();
        for i in 0..len as u64 {
            mem.write_u64(0x10_0000 + i * 4096, i * 3);
        }
        (program, mem)
    }

    #[test]
    fn matches_interpreter_after_runahead_episodes() {
        let (program, mem) = stream_program(64);
        let mut interp = ArchState::new(&program, mem.clone());
        interp.run(1_000_000);

        let (report, regs, sim_mem) = Runahead::new(&program, mem, cfg()).run_with_state(1_000_000);
        assert_eq!(report.retired, interp.instr_count());
        assert_eq!(&regs, interp.reg_bits());
        assert_eq!(&sim_mem, interp.mem());
        assert_eq!(report.breakdown.total(), report.cycles);
    }

    #[test]
    fn stall_mid_group_resumes_at_group_head() {
        // The stalled use sits *behind* an independent instruction in its
        // issue group. The episode must refetch from the group head, or
        // the independent instruction is skipped forever (regression:
        // resume_pc used to be the blocked member's pc).
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0x10_0000);
        b.movi(r(6), 7);
        b.stop();
        b.ld8(r(4), r(1), 0); // cold miss
        b.stop();
        b.movi(r(5), 1); // independent group head
        b.add(r(7), r(4), r(6)); // stall-on-use, second group member
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let mut mem = MemoryImage::new();
        mem.write_u64(0x10_0000, 35);

        let mut interp = ArchState::new(&program, mem.clone());
        interp.run(1_000);
        let (report, regs, _) = Runahead::new(&program, mem, cfg()).run_with_state(1_000);
        assert_eq!(report.retired, interp.instr_count());
        assert_eq!(&regs, interp.reg_bits());
        let r5 = ff_isa::RegId::Int(r(5)).index();
        assert_eq!(regs[r5], 1, "group head must retire after the episode");
    }

    #[test]
    fn runahead_beats_plain_baseline_on_streams() {
        let (program, mem) = stream_program(256);
        let base = Baseline::new(&program, mem.clone(), cfg()).run(10_000_000);
        let sim = Runahead::new(&program, mem, cfg());
        let report = sim.run(10_000_000);
        assert!(
            report.cycles < base.cycles,
            "runahead should prefetch: base={} ra={}",
            base.cycles,
            report.cycles
        );
    }

    #[test]
    fn runahead_stats_populated() {
        let (program, mem) = stream_program(64);
        let report = Runahead::new(&program, mem, cfg()).run(1_000_000);
        let counter = |name| report.metrics.counter(name).unwrap();
        let episodes = counter("runahead.episodes");
        assert!(episodes > 0);
        assert!(counter("runahead.loads") > 0, "{}", report.metrics);
        assert!(counter("runahead.cycles") >= episodes);
    }

    #[test]
    fn run_traced_records_episodes_and_matches_untraced_timing() {
        let (program, mem) = stream_program(64);
        let plain = Runahead::new(&program, mem.clone(), cfg()).run(1_000_000);
        let (report, trace) = Runahead::new(&program, mem, cfg()).run_traced(1_000_000);
        assert_eq!(report.cycles, plain.cycles, "tracing must not perturb timing");
        assert_eq!(report.retired, plain.retired);
        let enters =
            trace.events().iter().filter(|e| matches!(e, TraceEvent::RunaheadEnter { .. })).count()
                as u64;
        let exits: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RunaheadExit { discarded, .. } => Some(*discarded),
                _ => None,
            })
            .collect();
        assert_eq!(enters, report.metrics.counter("runahead.episodes").unwrap());
        assert!(!exits.is_empty());
        assert_eq!(
            exits.iter().sum::<u64>(),
            report.metrics.counter("runahead.discarded_instrs").unwrap(),
            "per-episode discard counts must sum to the total"
        );
        let retires =
            trace.events().iter().filter(|e| matches!(e, TraceEvent::BRetire { .. })).count()
                as u64;
        assert_eq!(retires, report.retired);
    }

    #[test]
    fn runahead_store_overlay_is_discarded() {
        // A runahead-executed store must never reach architectural
        // memory: the stalled-on load gates a store that runahead passes.
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0x10_0000);
        b.movi(r(5), 0x20_0000);
        b.movi(r(6), 42);
        b.stop();
        b.ld8(r(4), r(1), 0); // cold miss
        b.stop();
        b.add(r(7), r(4), r(6)); // stall-on-use -> runahead entered
        b.stop();
        b.st8(r(6), r(5), 0); // pre-executed by runahead, then replayed
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let mem = MemoryImage::new();

        let mut interp = ArchState::new(&program, mem.clone());
        interp.run(1_000);
        let (_, _, sim_mem) = Runahead::new(&program, mem, cfg()).run_with_state(1_000);
        assert_eq!(&sim_mem, interp.mem());
        assert_eq!(sim_mem.read_u64(0x20_0000), 42, "architectural store must land once");
    }

    /// Addresses that cluster so accesses overlap: each op picks a base
    /// (plain, just below a 4 KiB page end, just below `u64::MAX`) and
    /// a small offset.
    fn overlay_addr() -> impl Strategy<Value = u64> {
        (prop_oneof![Just(0x10_0000u64), Just(0x10_0ff8), Just(u64::MAX - 11)], 0u64..16)
            .prop_map(|(base, off)| base.wrapping_add(off))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The word overlay agrees with a naive byte map laid over the
        /// same memory, for every mix of writes and reads, including
        /// page-straddling and wrapping accesses, and reads as plain
        /// memory again once cleared.
        #[test]
        fn store_overlay_matches_a_byte_map(
            fill in any::<u64>(),
            ops in prop::collection::vec((any::<bool>(), overlay_addr(), 1u64..=8, any::<u64>()), 1..48),
        ) {
            let mut mem = MemoryImage::new();
            for base in [0x10_0000u64, 0x10_0ff0, 0x10_1000, u64::MAX - 15, 0] {
                mem.write_u64(base, fill);
                mem.write_u64(base.wrapping_add(8), !fill);
            }
            let mut overlay = StoreOverlay::default();
            let mut model: HashMap<u64, u8> = HashMap::new();
            let model_read = |model: &HashMap<u64, u8>, mem: &MemoryImage, addr: u64, size: u64| {
                (0..size).fold(0u64, |v, i| {
                    let a = addr.wrapping_add(i);
                    let byte = model.get(&a).copied().unwrap_or_else(|| mem.read_u8(a));
                    v | u64::from(byte) << (8 * i)
                })
            };
            for (i, &(is_write, addr, size, bits)) in ops.iter().enumerate() {
                if is_write {
                    overlay.write(addr, size, bits);
                    for b in 0..size {
                        model.insert(addr.wrapping_add(b), (bits >> (8 * b)) as u8);
                    }
                } else {
                    let want = model_read(&model, &mem, addr, size);
                    prop_assert_eq!(overlay.read(&mut mem, addr, size), want, "op {} at {:#x}", i, addr);
                }
            }
            overlay.clear();
            for &(_, addr, size, _) in &ops {
                prop_assert_eq!(overlay.read(&mut mem, addr, size), mem.read(addr, size));
            }
        }
    }
}
