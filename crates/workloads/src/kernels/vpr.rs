//! `vpr_like` — 175.vpr: the paper's loss case.
//!
//! 175.vpr's placement cost loops are chains of floating-point
//! operations. Because the A-pipe never waits for anticipable FP
//! latency, it defers the whole chain — the paper measures "98% of its
//! long-latency floating point instructions, in chains" deferred — and
//! the deferred chains then serialize in the B-pipe, with store-conflict
//! flushes from cost writebacks read back soon after. The kernel builds
//! a serial FP accumulation over an L2-resident net array, writes the
//! running cost to a history slot, and re-reads the previous slot while
//! the writing store is often still deferred.

use crate::common::fill_random_f64;
use crate::{PaperBenchmark, Workload};
use ff_isa::reg::{FpReg, IntReg, PredReg};
use ff_isa::{CmpKind, MemoryImage, ProgramBuilder};

const NET_BASE: u64 = 0x1000_0000;
const NET_WORDS: u64 = 4_096; // 32 KB of net coordinates (L2-resident)
const NET_MASK: i64 = (NET_WORDS as i64 - 1) << 3;
const HIST_BASE: u64 = 0x1080_0000;

/// vpr-like's entry in [`crate::PAPER_BENCHMARKS`].
pub(crate) const VPR: PaperBenchmark = PaperBenchmark {
    name: "vpr-like",
    spec_ref: "175.vpr",
    description: "serial FP chains deferred wholesale, with history-slot store conflicts",
    iters: 100,
    kernel: vpr_like,
};

/// Builds the vpr-like FP-chain kernel with `iters` cost updates.
#[must_use]
pub fn vpr_like(iters: u64) -> Workload {
    let r = IntReg::n;
    let p = PredReg::n;
    let f = FpReg::n;
    let (cnt, state, t1, off, slot, hist, net_base) = (r(2), r(3), r(4), r(5), r(6), r(7), r(1));
    let (coord, cost, scale, delta, prev) = (f(1), f(2), f(3), f(4), f(5));

    let mut b = ProgramBuilder::new();
    b.movi(net_base, NET_BASE as i64);
    b.movi(hist, HIST_BASE as i64);
    b.movi(cnt, 0);
    b.movi(state, 0x175_175_175u64 as i64);
    b.stop();
    b.fmovi(cost, 1.0);
    b.fmovi(scale, 0.999_993);
    b.stop();
    let top = b.here();
    // Pick a net (compactly scheduled: the compiler packs the integer
    // scaffolding, so the baseline is bound by the FP critical path, not
    // by stop bits).
    b.shli(t1, state, 13);
    b.addi(cnt, cnt, 1);
    b.addi(hist, hist, 8);
    b.stop();
    b.xor(state, state, t1);
    b.stop();
    b.andi(off, state, NET_MASK);
    b.stop();
    // `prev` reads a slot written three iterations ago — that store
    // hangs off the FP chain, so when the coupling queue is backed up it
    // is still deferred and this pre-executed load becomes vpr's
    // store-conflict exposure (occasional, like the paper's).
    b.add(slot, net_base, off);
    b.ldf(prev, hist, -24);
    b.stop();
    b.nop();
    b.stop();
    b.ldf(coord, slot, 0);
    b.stop();
    b.nop();
    b.stop();
    // Serial FP cost chain: each op depends on the previous through
    // `cost` — anticipable 4-cycle latencies the A-pipe defers wholesale.
    b.fmul(delta, coord, scale);
    b.stop();
    b.fadd(cost, cost, delta);
    b.stop();
    b.fmul(cost, cost, scale);
    b.stop();
    b.fadd(cost, cost, prev);
    b.stop();
    // Cost history writeback: data hangs off the FP chain, so the store
    // defers until the chain resolves in the B-pipe.
    b.stf(cost, hist, 0);
    b.cmpi(CmpKind::Lt, p(1), p(2), cnt, iters as i64);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().expect("vpr kernel is well-formed");

    let mut memory = MemoryImage::new();
    fill_random_f64(&mut memory, NET_BASE, NET_WORDS, 0x175);
    memory.write_f64(HIST_BASE - 8, 0.0);

    Workload {
        name: VPR.name,
        spec_ref: VPR.spec_ref,
        description: VPR.description,
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
        check_kernel(&vpr_like(40));
    }
}
