//! Dynamic differential oracle.
//!
//! [`differential_oracle`] runs one program through the `ff-isa` golden
//! interpreter and through every pipeline model (baseline, two-pass,
//! two-pass with regrouping, runahead), then demands:
//!
//! * **identical final architectural state** — all 192 registers
//!   bit-for-bit, and the data-memory image;
//! * **identical retirement** — the retired-instruction count equals the
//!   interpreter's dynamic instruction count, and the models' retired pc
//!   sequence equals the interpreter's executed pc sequence instruction
//!   by instruction (this subsumes "stores retire in program order":
//!   stores are retired exactly where sequential semantics executes
//!   them);
//! * **monotone retirement sequence numbers** — each model's `BRetire`
//!   events carry strictly increasing `seq`s, so no instruction
//!   architecturally retires twice even across flushes. Seqs are
//!   assigned at fetch and squashed instructions consume them without
//!   retiring, so gaps are expected (runahead discards whole
//!   speculative episodes); density is *not* required.
//!
//! The per-*cycle* model invariants (coupling-queue FIFO order, A-pipe
//! isolation from B-visible state, scoreboard latency accounting) are
//! asserted inside `ff-core` itself when it is built with its `audit`
//! feature; building `ff-verify` with `--features audit` turns them on
//! for every simulation the oracle runs.

use ff_core::{run_model, MachineConfig, ModelKind, Trace, TraceEvent};
use ff_isa::{ArchState, MemoryImage, Program, RegId, TOTAL_REGS};
use std::fmt;

/// One model's divergence from the golden interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleFailure {
    /// Which model diverged.
    pub model: ModelKind,
    /// What diverged, with the first point of divergence.
    pub detail: String,
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.model, self.detail)
    }
}

/// Outcome of one oracle run.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Dynamic instructions the golden interpreter executed.
    pub instrs: u64,
    /// Whether the program halted within the budget.
    pub halted: bool,
    /// Every divergence found (empty on success).
    pub failures: Vec<OracleFailure>,
}

impl OracleReport {
    /// Whether every model matched the interpreter exactly.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Golden reference: final state plus the executed pc sequence.
struct Golden {
    regs: [u64; TOTAL_REGS],
    mem: MemoryImage,
    instrs: u64,
    halted: bool,
    pcs: Vec<usize>,
}

fn golden(program: &Program, mem: &MemoryImage, budget: u64) -> Golden {
    let mut interp = ArchState::new(program, mem.clone());
    let mut pcs = Vec::new();
    while !interp.is_halted() && interp.instr_count() < budget {
        pcs.push(interp.pc());
        if !interp.step() {
            break;
        }
    }
    Golden {
        regs: *interp.reg_bits(),
        mem: interp.mem().clone(),
        instrs: interp.instr_count(),
        halted: interp.is_halted(),
        pcs,
    }
}

/// Compares one model run against the golden reference, appending any
/// divergence to `failures`.
#[allow(clippy::too_many_arguments)] // flat comparison record, not behaviour
fn check_model(
    model: ModelKind,
    retired: u64,
    retire_events: &[(u64, usize)],
    regs: &[u64; TOTAL_REGS],
    mem: &MemoryImage,
    want: &Golden,
    failures: &mut Vec<OracleFailure>,
) {
    if retired != want.instrs {
        failures.push(OracleFailure {
            model,
            detail: format!("retired {retired} instructions, interpreter executed {}", want.instrs),
        });
    }
    for (i, (&got, &exp)) in regs.iter().zip(want.regs.iter()).enumerate() {
        if got != exp {
            failures.push(OracleFailure {
                model,
                detail: format!(
                    "register {} holds {got:#x}, interpreter has {exp:#x}",
                    RegId::from_index(i)
                ),
            });
            break; // first divergent register is enough
        }
    }
    if mem != &want.mem {
        failures.push(OracleFailure {
            model,
            detail: "final data-memory image differs from the interpreter".into(),
        });
    }
    // Retirement order: pcs must match the sequential execution pc by
    // pc, and seqs must be strictly increasing (no instruction retires
    // twice; squashed instructions may consume seqs without retiring).
    let mut prev_seq: Option<u64> = None;
    for (i, &(seq, pc)) in retire_events.iter().enumerate() {
        if prev_seq.is_some_and(|p| seq <= p) {
            failures.push(OracleFailure {
                model,
                detail: format!(
                    "retirement {i} carries seq {seq} after seq {}; retirement must be \
                     monotone in dispatch order",
                    prev_seq.unwrap_or(0)
                ),
            });
            break;
        }
        prev_seq = Some(seq);
        match want.pcs.get(i) {
            Some(&want_pc) if want_pc != pc => {
                failures.push(OracleFailure {
                    model,
                    detail: format!("retirement {i} is pc {pc}, interpreter executed pc {want_pc}"),
                });
                break;
            }
            None => {
                failures.push(OracleFailure {
                    model,
                    detail: format!(
                        "retired {} instructions but interpreter executed only {}",
                        retire_events.len(),
                        want.pcs.len()
                    ),
                });
                break;
            }
            Some(_) => {}
        }
    }
}

fn retire_pcs(trace: &Trace) -> Vec<(u64, usize)> {
    trace
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::BRetire { seq, pc, .. } => Some((seq, pc)),
            _ => None,
        })
        .collect()
}

/// Runs `program` through the interpreter and all pipeline models and
/// cross-checks final state and retirement order.
///
/// `budget` bounds dynamic instructions in every engine; programs that
/// do not halt within it are still compared (all engines stop at the
/// same instruction count).
#[must_use]
pub fn differential_oracle(
    program: &Program,
    mem: &MemoryImage,
    cfg: &MachineConfig,
    budget: u64,
) -> OracleReport {
    let want = golden(program, mem, budget);
    let mut failures = Vec::new();

    for kind in ModelKind::ALL {
        let mut t = Trace::new();
        let (r, regs, m) = run_model(kind, program, mem.clone(), cfg.clone(), budget, Some(&mut t));
        check_model(kind, r.retired, &retire_pcs(&t), &regs, &m, &want, &mut failures);
    }

    OracleReport { instrs: want.instrs, halted: want.halted, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::reg::IntReg;
    use ff_isa::ProgramBuilder;

    #[test]
    fn trivial_program_passes_all_models() {
        let mut b = ProgramBuilder::new();
        b.movi(IntReg::n(1), 20);
        b.stop();
        b.addi(IntReg::n(2), IntReg::n(1), 22);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let report =
            differential_oracle(&program, &MemoryImage::new(), &MachineConfig::paper_table1(), 100);
        assert!(report.ok(), "{:?}", report.failures);
        assert!(report.halted);
        assert_eq!(report.instrs, 3);
    }

    #[test]
    fn kernel_passes_oracle() {
        let w = ff_workloads::benchmark_by_name("mcf-like", ff_workloads::Scale::Tiny).unwrap();
        let report =
            differential_oracle(&w.program, &w.memory, &MachineConfig::paper_table1(), w.budget);
        assert!(report.ok(), "{:?}", report.failures);
        assert!(report.halted);
    }
}
