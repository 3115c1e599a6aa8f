//! `vortex_like` — 255.vortex: object field read-modify-write traffic.
//!
//! The OO database spends its time fetching objects and rewriting their
//! fields. The kernel picks pseudo-random 64-byte objects from a 512 KB
//! store, reads two fields, rewrites them, and occasionally writes a
//! field whose data hangs off a fresh load — a deferred store that
//! younger pre-executed loads must speculate past (exercising the ALAT
//! path with a realistic, mostly-conflict-free mix).

use crate::common::fill_random_words;
use crate::{PaperBenchmark, Workload};
use ff_isa::reg::{IntReg, PredReg};
use ff_isa::{CmpKind, MemoryImage, ProgramBuilder};

const STORE_BASE: u64 = 0x0F00_0000;
const OBJ_STRIDE: u64 = 64;
const OBJ_COUNT: u64 = 1_024; // 64 KB: steady-state L1/L2 object store
const INDEX_MASK: i64 = (OBJ_COUNT as i64 - 1) << 6;

/// vortex-like's entry in [`crate::PAPER_BENCHMARKS`].
pub(crate) const VORTEX: PaperBenchmark = PaperBenchmark {
    name: "vortex-like",
    spec_ref: "255.vortex",
    description: "object read-modify-write traffic with deferred stores and risky loads",
    iters: 100,
    kernel: vortex_like,
};

/// Builds the vortex-like kernel with `iters` object transactions.
#[must_use]
pub fn vortex_like(iters: u64) -> Workload {
    let r = IntReg::n;
    let p = PredReg::n;
    let (base, cnt, state, t1, off, obj, f0, f1, sum, stamp) =
        (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9), r(10));

    let mut b = ProgramBuilder::new();
    b.movi(base, STORE_BASE as i64);
    b.movi(cnt, 0);
    b.movi(state, 0x255_255_255u64 as i64);
    b.stop();
    let top = b.here();
    b.shli(t1, state, 13);
    b.stop();
    b.xor(state, state, t1);
    b.stop();
    b.shri(t1, state, 7);
    b.stop();
    b.xor(state, state, t1);
    b.stop();
    b.andi(off, state, INDEX_MASK);
    b.stop();
    b.add(obj, base, off);
    b.stop();
    // Fetch two object fields.
    b.ld8(f0, obj, 0);
    b.ld8(f1, obj, 8);
    b.stop();
    b.addi(cnt, cnt, 1);
    b.stop();
    // Transaction: combine and version-stamp the object.
    b.add(sum, f0, f1);
    b.stop();
    b.xor(stamp, f1, state);
    b.stop();
    // Write-back: sum depends on the loads (deferred store when the
    // object missed); the stamp store usually follows it into the queue.
    b.st8(sum, obj, 0);
    b.st8(stamp, obj, 8);
    b.stop();
    // A younger read of a *different* object field pre-executes past
    // those (possibly deferred) stores — the paper's "risky" loads. Its
    // result feeds an accumulator, NOT the index chain: the next object
    // pick must stay independent so the A-pipe can run ahead.
    b.ld8(t1, obj, 16);
    b.stop();
    b.nop();
    b.stop();
    b.nop();
    b.stop();
    b.add(r(11), r(11), t1);
    b.stop();
    b.cmpi(CmpKind::Lt, p(1), p(2), cnt, iters as i64);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().expect("vortex kernel is well-formed");

    let mut memory = MemoryImage::new();
    fill_random_words(&mut memory, STORE_BASE, OBJ_COUNT * OBJ_STRIDE / 8, 0x255);

    Workload {
        name: VORTEX.name,
        spec_ref: VORTEX.spec_ref,
        description: VORTEX.description,
        program,
        memory,
        budget: 26 * iters + 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::check_kernel;

    #[test]
    fn kernel_is_well_formed() {
        check_kernel(&vortex_like(40));
    }
}
