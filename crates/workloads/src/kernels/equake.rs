//! `equake_like` — 183.equake: streaming FP stencil.
//!
//! 183.equake's sparse matrix-vector kernels stream several large FP
//! arrays. The accesses are independent from iteration to iteration, so
//! when the two-pass A-pipe defers the consumers of a missing element it
//! keeps initiating the next elements' misses — the paper highlights
//! that "the significant portion of the L3 cache misses in 183.equake
//! started in the A-pipe" and credits its large speedup to overlapping
//! those long misses. Three 2 MB source streams plus a 2 MB destination
//! stream (8 MB total) overflow the L3.

use crate::common::fill_random_f64;
use crate::{PaperBenchmark, Workload};
use ff_isa::reg::{FpReg, IntReg, PredReg};
use ff_isa::{CmpKind, MemoryImage, ProgramBuilder};

const STREAM_WORDS: u64 = 262_144; // 2 MB per array
const A_BASE: u64 = 0x0800_0000;
const B_BASE: u64 = 0x0880_0000;
const C_BASE: u64 = 0x0900_0000;
const OUT_BASE: u64 = 0x0980_0000;
const PARAM_ADDR: u64 = 0x07F0_0000;

/// equake-like's entry in [`crate::PAPER_BENCHMARKS`].
pub(crate) const EQUAKE: PaperBenchmark = PaperBenchmark {
    name: "equake-like",
    spec_ref: "183.equake",
    description: "streaming FP stencil: independent long misses overlapped by the A-pipe",
    iters: 60,
    kernel: equake_like,
};

/// Builds the equake-like stencil kernel with `iters` elements.
#[must_use]
pub fn equake_like(iters: u64) -> Workload {
    let r = IntReg::n;
    let p = PredReg::n;
    let f = FpReg::n;
    let (pa, pb, pc, po, cnt) = (r(1), r(2), r(3), r(4), r(5));
    let (va, vb, vc, prod, sum) = (f(1), f(2), f(3), f(4), f(5));
    let (param, excit) = (r(6), f(11));

    let mut b = ProgramBuilder::new();
    b.movi(param, PARAM_ADDR as i64);
    b.stop();
    // Loop-invariant excitation coefficient behind a deferred FP
    // multiply (cold miss feeds it): until B->A feedback delivers it,
    // every stencil multiply below must defer (Figure 8's subject).
    b.ldf(excit, param, 0);
    b.stop();
    // The pointer inits are load-independent, so they fill the load-use
    // shadow; squaring the coefficient after them gives the `ldf` two
    // full groups to deliver even on an L1 hit.
    b.movi(pa, A_BASE as i64);
    b.movi(pb, B_BASE as i64);
    b.movi(pc, C_BASE as i64);
    b.stop();
    b.movi(po, OUT_BASE as i64);
    b.movi(cnt, 0);
    b.stop();
    b.fmul(excit, excit, excit);
    b.stop();
    let top = b.here();
    // Group 1: three stream loads (exactly the 3 memory slots).
    b.ldf(va, pa, 0);
    b.ldf(vb, pb, 0);
    b.ldf(vc, pc, 0);
    b.stop();
    // Group 2: advance source cursors (independent).
    b.addi(pa, pa, 8);
    b.addi(pb, pb, 8);
    b.addi(pc, pc, 8);
    b.stop();
    // Group 3: counter (pads load-use distance to 2).
    b.addi(cnt, cnt, 1);
    b.stop();
    // Group 4: stencil multiply, scaled by the invariant coefficient.
    b.fmul(prod, va, vb);
    b.stop();
    b.fmul(prod, prod, excit);
    b.stop();
    // Groups 5-6: second element of the stencil (unrolled x2) keeps
    // memory pressure high while the first element's FP chain drains.
    b.ldf(f(6), pa, 8);
    b.ldf(f(7), pb, 8);
    b.ldf(f(8), pc, 8);
    b.stop();
    b.addi(pa, pa, 8);
    b.addi(pb, pb, 8);
    b.addi(pc, pc, 8);
    b.stop();
    b.fadd(sum, prod, vc);
    b.stop();
    b.fmul(f(9), f(6), f(7));
    b.stop();
    // Coefficient probe: defers only while `excit` awaits B->A feedback.
    b.fmov(f(12), excit);
    b.stop();
    // Store the first element, then finish and store the second.
    b.stf(sum, po, 0);
    b.stop();
    b.fadd(f(10), f(9), f(8));
    b.stop();
    b.nop();
    b.stop();
    b.nop();
    b.stop();
    b.nop();
    b.stop();
    b.stf(f(10), po, 8);
    b.stop();
    b.addi(po, po, 16);
    b.stop();
    b.cmpi(CmpKind::Lt, p(1), p(2), cnt, iters as i64);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().expect("equake kernel is well-formed");

    let mut memory = MemoryImage::new();
    memory.write_f64(PARAM_ADDR, 1.25);
    let n = STREAM_WORDS.min(iters + 8);
    fill_random_f64(&mut memory, A_BASE, n, 0x183);
    fill_random_f64(&mut memory, B_BASE, n, 0x184);
    fill_random_f64(&mut memory, C_BASE, n, 0x185);

    Workload {
        name: EQUAKE.name,
        spec_ref: EQUAKE.spec_ref,
        description: EQUAKE.description,
        program,
        memory,
        budget: 32 * iters + 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::check_kernel;

    #[test]
    fn kernel_is_well_formed() {
        check_kernel(&equake_like(40));
    }

    #[test]
    fn four_streams_overflow_l3() {
        const { assert!(4 * STREAM_WORDS * 8 > 1536 * 1024) }
    }
}
