//! `gap_like` — 254.gap: main-memory-latency dependent chains.
//!
//! The paper notes 254.gap "executes most of its substantial number of
//! main memory accesses in the B-pipe, and thus displays only a small
//! performance improvement": its misses sit on dependent chains the
//! A-pipe cannot pre-execute. This kernel is a shuffled pointer chase
//! over a 4 MB workspace (beyond the 1.5 MB L3) with light arithmetic on
//! each node — every next-pointer load depends on the previous miss.

use crate::common::shuffled_chain;
use crate::{PaperBenchmark, Workload};
use ff_isa::reg::{IntReg, PredReg};
use ff_isa::{CmpKind, MemoryImage, ProgramBuilder};

const BAG_BASE: u64 = 0x0400_0000;
const BAG_STRIDE: u64 = 128;
const BAG_COUNT: u64 = 32_768; // 4 MB
const SIDE_BASE: u64 = 0x0480_0000;

/// gap-like's entry in [`crate::PAPER_BENCHMARKS`].
pub(crate) const GAP: PaperBenchmark = PaperBenchmark {
    name: "gap-like",
    spec_ref: "254.gap",
    description: "main-memory pointer chase: dependent misses the A-pipe cannot start",
    iters: 30,
    kernel: gap_like,
};

/// Builds the gap-like dependent-chase kernel with `iters` node visits.
#[must_use]
pub fn gap_like(iters: u64) -> Workload {
    let mut memory = MemoryImage::new();
    let start = shuffled_chain(&mut memory, BAG_BASE, BAG_COUNT, BAG_STRIDE, 0x254);
    for i in 0..BAG_COUNT {
        memory.write_u64(BAG_BASE + i * BAG_STRIDE + 8, i.wrapping_mul(0x9E37_79B9));
    }
    for i in 0..(iters + 1) {
        memory.write_u64(SIDE_BASE + i * 64, i ^ 0x5555);
    }

    let r = IntReg::n;
    let p = PredReg::n;
    let (node, cnt, val, acc, tmp, side_ptr, side_val, side_acc) =
        (r(1), r(2), r(10), r(11), r(12), r(3), r(13), r(14));

    let mut b = ProgramBuilder::new();
    b.movi(node, start as i64);
    b.movi(cnt, 0);
    b.movi(acc, 0);
    b.movi(side_ptr, SIDE_BASE as i64);
    b.stop();
    let top = b.here();
    // Group 1: node payload (same line as the hop: merges with it).
    b.ld8(val, node, 8);
    b.stop();
    // Group 2: the chase hop — depends on last iteration's miss. This is
    // the serialization the A-pipe cannot break.
    b.ld8(node, node, 0);
    b.stop();
    // Group 3: a small independent side-table walk — the only work the
    // A-pipe can overlap with the chase (gap's "small improvement").
    b.ld8(side_val, side_ptr, 0);
    b.addi(cnt, cnt, 1);
    b.stop();
    b.addi(side_ptr, side_ptr, 64);
    b.stop();
    // Handle-style arithmetic on the payloads.
    b.shri(tmp, val, 2);
    b.stop();
    b.add(acc, acc, tmp);
    b.stop();
    b.add(side_acc, side_acc, side_val);
    b.stop();
    b.cmpi(CmpKind::Lt, p(1), p(2), cnt, iters as i64);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().expect("gap kernel is well-formed");

    Workload {
        name: GAP.name,
        spec_ref: GAP.spec_ref,
        description: GAP.description,
        program,
        memory,
        budget: 16 * iters + 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::check_kernel;

    #[test]
    fn kernel_is_well_formed() {
        check_kernel(&gap_like(30));
    }

    #[test]
    fn footprint_exceeds_l3() {
        const { assert!(BAG_COUNT * BAG_STRIDE > 1536 * 1024) }
    }
}
