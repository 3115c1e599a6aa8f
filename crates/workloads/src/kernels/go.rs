//! `go_like` — 099.go: branchy integer code.
//!
//! The go-playing program is dominated by integer position evaluation:
//! modest memory footprint, heavy control flow whose directions are
//! data-dependent and poorly predictable. Two-pass pipelining gains a
//! little from hiding the L1/L2 misses, but mispredictions — some of
//! them resolved late in the B-pipe when the condition hangs off a
//! miss — cap the benefit.

use crate::common::fill_random_words;
use crate::{PaperBenchmark, Workload};
use ff_isa::reg::{IntReg, PredReg};
use ff_isa::{CmpKind, MemoryImage, ProgramBuilder};

const BOARD_BASE: u64 = 0x0C00_0000;
const BOARD_WORDS: u64 = 4_096; // 32 KB: steady-state L1/L2 mix
const INDEX_MASK: i64 = (BOARD_WORDS as i64 - 1) << 3;

/// go-like's entry in [`crate::PAPER_BENCHMARKS`].
pub(crate) const GO: PaperBenchmark = PaperBenchmark {
    name: "go-like",
    spec_ref: "099.go",
    description: "branchy integer evaluation over a modest board footprint",
    iters: 100,
    kernel: go_like,
};

/// Builds the go-like evaluation kernel with `iters` position visits.
#[must_use]
pub fn go_like(iters: u64) -> Workload {
    let r = IntReg::n;
    let p = PredReg::n;
    let (base, cnt, state, t1, off, slot, pos, bits, score, libs) =
        (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9), r(10));

    let mut b = ProgramBuilder::new();
    b.movi(base, BOARD_BASE as i64);
    b.movi(cnt, 0);
    b.movi(state, 0x0DDB_1A5E_5BAD_5EEDu64 as i64);
    b.movi(score, 0);
    b.movi(libs, 0);
    b.stop();
    let top = b.here();
    // Pick a pseudo-random board square.
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
    b.add(slot, base, off);
    b.stop();
    b.ld8(pos, slot, 0);
    b.stop();
    b.addi(cnt, cnt, 1);
    b.stop();
    // Evaluation: two data-dependent, poorly-predictable branches.
    b.andi(bits, pos, 3);
    b.stop();
    b.cmpi(CmpKind::Eq, p(3), p(4), bits, 0);
    b.stop();
    let empty = b.new_label();
    b.br_cond(p(3), empty);
    b.stop();
    // Occupied square: liberties-style accounting.
    b.shri(t1, pos, 2);
    b.stop();
    b.andi(t1, t1, 7);
    b.stop();
    b.add(libs, libs, t1);
    b.stop();
    b.cmpi(CmpKind::Lt, p(5), p(6), t1, 4);
    b.stop();
    let weak = b.new_label();
    b.br_cond(p(5), weak);
    b.stop();
    b.addi(score, score, 5);
    b.stop();
    b.bind(weak);
    b.addi(score, score, -1);
    b.stop();
    b.bind(empty);
    b.cmpi(CmpKind::Lt, p(1), p(2), cnt, iters as i64);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().expect("go kernel is well-formed");

    let mut memory = MemoryImage::new();
    fill_random_words(&mut memory, BOARD_BASE, BOARD_WORDS, 0x099);

    Workload {
        name: GO.name,
        spec_ref: GO.spec_ref,
        description: GO.description,
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
        check_kernel(&go_like(40));
    }
}
