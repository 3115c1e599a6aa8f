//! `li_like` — 130.li: L2-resident cons-cell chains.
//!
//! The Lisp interpreter's working set is list cells scattered through a
//! heap that outgrows the L1 but sits in the L2: walking a list is a
//! dependent chain of short (5-cycle) misses with a little per-cell work
//! (type checks, car processing). Two-pass pipelining hides the car
//! processing under the next-pointer hops and overlaps hops with the
//! predicated bookkeeping.

use crate::common::{shuffled_chain, XorShift64};
use crate::{PaperBenchmark, Workload};
use ff_isa::reg::{IntReg, PredReg};
use ff_isa::{CmpKind, MemoryImage, ProgramBuilder};

const HEAP_BASE: u64 = 0x0B00_0000;
const CELL_STRIDE: u64 = 32;
const CELL_COUNT: u64 = 1_024; // 32 KB heap: misses L1, lives in L2

/// li-like's entry in [`crate::PAPER_BENCHMARKS`].
pub(crate) const LI: PaperBenchmark = PaperBenchmark {
    name: "li-like",
    spec_ref: "130.li",
    description: "L2-resident cons-cell walk: dependent short misses with per-cell work",
    iters: 150,
    kernel: li_like,
};

/// Builds the li-like list-walk kernel visiting `iters` cells.
#[must_use]
pub fn li_like(iters: u64) -> Workload {
    let r = IntReg::n;
    let p = PredReg::n;
    let (cell, cnt, car, acc, odd_cnt, tag) = (r(1), r(2), r(10), r(11), r(12), r(13));

    let mut memory = MemoryImage::new();
    let start = shuffled_chain(&mut memory, HEAP_BASE, CELL_COUNT, CELL_STRIDE, 0x130);
    let mut rng = XorShift64::new(0x130);
    for i in 0..CELL_COUNT {
        memory.write_u64(HEAP_BASE + i * CELL_STRIDE + 8, rng.next_u64());
    }

    let mut b = ProgramBuilder::new();
    b.movi(cell, start as i64);
    b.movi(cnt, 0);
    b.movi(acc, 0);
    b.movi(odd_cnt, 0);
    b.stop();
    let top = b.here();
    // Group 1: load the car (payload).
    b.ld8(car, cell, 8);
    b.stop();
    // Group 2: follow the cdr — the dependent L2-latency hop.
    b.ld8(cell, cell, 0);
    b.stop();
    // Group 3: counter (pads car's load-use distance).
    b.addi(cnt, cnt, 1);
    b.stop();
    // Groups 4-6: car processing — type tag test plus predicated count
    // (lisp's fixnum/pointer discrimination).
    b.andi(tag, car, 1);
    b.stop();
    b.add(acc, acc, car);
    b.stop();
    b.cmpi(CmpKind::Eq, p(3), p(4), tag, 1);
    b.stop();
    b.with_pred(p(3));
    b.addi(odd_cnt, odd_cnt, 1);
    b.stop();
    b.cmpi(CmpKind::Lt, p(1), p(2), cnt, iters as i64);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().expect("li kernel is well-formed");

    Workload {
        name: LI.name,
        spec_ref: LI.spec_ref,
        description: LI.description,
        program,
        memory,
        budget: 14 * iters + 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::check_kernel;

    #[test]
    fn kernel_is_well_formed() {
        check_kernel(&li_like(40));
    }

    #[test]
    fn heap_fits_l2_but_not_l1() {
        let bytes = CELL_COUNT * CELL_STRIDE;
        assert!(bytes > 16 * 1024 && bytes < 256 * 1024);
    }
}
