//! `twolf_like` — 300.twolf: misses feeding branch conditions.
//!
//! In the placement/routing code of 300.twolf, loaded values decide
//! branches almost immediately. On the two-pass machine those branches
//! defer with their conditions and resolve at B-DET, lengthening the
//! effective misprediction pipeline — the paper observes twolf's memory
//! -stall reduction being "offset by an increase in additional cycles
//! stalled in the front end" for exactly this reason.

use crate::common::fill_random_words;
use crate::{PaperBenchmark, Workload};
use ff_isa::reg::{IntReg, PredReg};
use ff_isa::{CmpKind, MemoryImage, ProgramBuilder};

const GRID_BASE: u64 = 0x0D00_0000;
const GRID_WORDS: u64 = 8_192; // 64 KB: L1 misses to L2 still defer the branch compare
const PARAM_ADDR: u64 = 0x0CF0_0000;
const INDEX_MASK: i64 = (GRID_WORDS as i64 - 1) << 3;

/// twolf-like's entry in [`crate::PAPER_BENCHMARKS`].
pub(crate) const TWOLF: PaperBenchmark = PaperBenchmark {
    name: "twolf-like",
    spec_ref: "300.twolf",
    description: "misses feeding unpredictable branches: B-DET resolution pressure",
    iters: 100,
    kernel: twolf_like,
};

/// Builds the twolf-like kernel with `iters` cost evaluations.
#[must_use]
pub fn twolf_like(iters: u64) -> Workload {
    let r = IntReg::n;
    let p = PredReg::n;
    let (base, cnt, state, t1, off, slot, cost, gain, bits) =
        (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9));
    let (param, bias) = (r(10), r(11));

    let mut b = ProgramBuilder::new();
    b.movi(base, GRID_BASE as i64);
    b.movi(cnt, 0);
    b.movi(state, 0x3007_001F_5EED_u64 as i64);
    b.movi(gain, 0);
    b.movi(param, PARAM_ADDR as i64);
    b.stop();
    // Deferred-produced loop-invariant annealing bias (Figure 8 subject).
    b.ld8(bias, param, 0);
    b.stop();
    b.addi(bias, bias, 3);
    b.stop();
    let top = b.here();
    b.shli(t1, state, 11);
    b.stop();
    b.xor(state, state, t1);
    b.stop();
    b.shri(t1, state, 5);
    b.stop();
    b.xor(state, state, t1);
    b.stop();
    b.andi(off, state, INDEX_MASK);
    b.stop();
    b.add(slot, base, off);
    b.stop();
    // The cost load misses L1 (often L2 too)...
    b.ld8(cost, slot, 0);
    b.stop();
    b.addi(cnt, cnt, 1);
    b.stop();
    // Bias probe: defers only while `bias` awaits B->A feedback (Fig. 8).
    b.add(r(12), bias, state);
    b.stop();
    // ...and its value immediately decides an unpredictable branch: the
    // branch's compare consumes the load with minimal slack, so the
    // branch defers to B-DET whenever the load misses.
    b.andi(bits, cost, 1);
    b.stop();
    b.cmpi(CmpKind::Eq, p(3), p(4), bits, 1);
    b.stop();
    let reject = b.new_label();
    b.br_cond(p(3), reject);
    b.stop();
    // Accepted move: apply the biased gain.
    b.shri(t1, cost, 3);
    b.stop();
    b.andi(t1, t1, 0xFF);
    b.stop();
    b.add(t1, t1, bias);
    b.stop();
    b.add(gain, gain, t1);
    b.stop();
    b.bind(reject);
    b.cmpi(CmpKind::Lt, p(1), p(2), cnt, iters as i64);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().expect("twolf kernel is well-formed");

    let mut memory = MemoryImage::new();
    memory.write_u64(PARAM_ADDR, 7);
    fill_random_words(&mut memory, GRID_BASE, GRID_WORDS, 0x300);

    Workload {
        name: TWOLF.name,
        spec_ref: TWOLF.spec_ref,
        description: TWOLF.description,
        program,
        memory,
        budget: 24 * iters + 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::check_kernel;

    #[test]
    fn kernel_is_well_formed() {
        check_kernel(&twolf_like(40));
    }
}
