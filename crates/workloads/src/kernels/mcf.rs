//! `mcf_like` — 181.mcf: the paper's Figure 1 loop.
//!
//! 181.mcf's dominant loop scans a huge array of network arcs; for each
//! arc it loads the tail-node pointer and the arc cost, then reads a
//! field of the pointed-to node and conditionally updates another. The
//! arc array streams (independent misses the A-pipe can overlap), while
//! the node reads are dependent short chains that defer to the B-pipe.
//! The footprint (arcs ≈ 8 MB + nodes ≈ 4 MB) far exceeds the 1.5 MB L3,
//! so misses reach main memory — the benchmark the paper reports a 62%
//! memory-stall reduction and 23% cycle reduction on.

use crate::common::XorShift64;
use crate::{PaperBenchmark, Workload};
use ff_isa::reg::{IntReg, PredReg};
use ff_isa::{CmpKind, MemoryImage, ProgramBuilder};

const ARC_BASE: u64 = 0x0100_0000;
const ARC_STRIDE: u64 = 128; // one L2/L3 line per arc
const ARC_COUNT: u64 = 65_536; // 8 MB of arcs
const NODE_BASE: u64 = 0x0200_0000;
const NODE_STRIDE: u64 = 64;
const NODE_COUNT: u64 = 65_536; // 4 MB of nodes
const PARAM_ADDR: u64 = 0x00F0_0000;

/// mcf-like's entry in [`crate::PAPER_BENCHMARKS`].
pub(crate) const MCF: PaperBenchmark = PaperBenchmark {
    name: "mcf-like",
    spec_ref: "181.mcf",
    description: "huge-footprint arc streaming with dependent node-field updates",
    iters: 60,
    kernel: mcf_like,
};

/// Builds the mcf-like arc-scan kernel with `iters` arc visits.
#[must_use]
pub fn mcf_like(iters: u64) -> Workload {
    let r = IntReg::n;
    let p = PredReg::n;
    let (arc, cnt, tail, cost, head, pot, new_flow) =
        (r(1), r(2), r(10), r(11), r(12), r(13), r(14));
    let (param, limit) = (r(3), r(4));

    let mut b = ProgramBuilder::new();
    b.movi(arc, ARC_BASE as i64);
    b.movi(cnt, 0);
    b.movi(param, PARAM_ADDR as i64);
    b.stop();
    // A loop-invariant tariff produced by a *deferred* instruction: the
    // add consumes an in-flight cold miss, so `limit` is invalid in the
    // A-file until the B->A feedback path delivers it (Figure 8's
    // subject). With feedback disabled, every iteration's compare below
    // re-defers.
    b.ld8(limit, param, 0);
    b.stop();
    b.addi(limit, limit, 1);
    b.stop();
    let top = b.here();
    // Group 1: two independent arc-field loads (stream — the part the
    // A-pipe keeps initiating while everything below is deferred).
    b.ld8(tail, arc, 0); // arc->tail (node pointer)
    b.ld8(cost, arc, 8); // arc->cost
    b.stop();
    // Group 2: advance the arc cursor (independent of the loads).
    b.addi(arc, arc, ARC_STRIDE as i64);
    b.stop();
    // Group 3: first dependent hop — the tail node's mate pointer.
    b.ld8(head, tail, 0); // node->head
    b.stop();
    // Group 4: loop counter (filler keeps load-use distance ≥ 2).
    b.addi(cnt, cnt, 1);
    b.stop();
    // Group 5: second dependent hop — the head node's potential.
    b.ld8(pot, head, 16); // node->potential
    b.stop();
    // Tariff probe: its only unready source can be `limit`, so its
    // deferral directly witnesses the feedback path's health (Fig. 8).
    b.add(r(15), limit, cnt);
    b.stop();
    // Group 7: reduced cost (depends on the second hop).
    b.sub(new_flow, pot, cost);
    b.stop();
    // Group 8: is the reduced cost under the invariant tariff?
    b.cmp(CmpKind::Lt, p(1), p(2), new_flow, limit);
    b.stop();
    // Group 9: conditional flow update into the node.
    b.with_pred(p(1));
    b.st8(new_flow, head, 24); // node->flow
    b.stop();
    // Loop control.
    b.cmpi(CmpKind::Lt, p(3), p(4), cnt, iters as i64);
    b.stop();
    b.br_cond(p(3), top);
    b.stop();
    b.halt();
    let program = b.build().expect("mcf kernel is well-formed");

    let mut memory = MemoryImage::new();
    memory.write_u64(PARAM_ADDR, 120);
    let mut rng = XorShift64::new(0x181);
    for i in 0..ARC_COUNT.min(iters + 1) {
        let arc_addr = ARC_BASE + i * ARC_STRIDE;
        let node = NODE_BASE + rng.below(NODE_COUNT) * NODE_STRIDE;
        let mate = NODE_BASE + rng.below(NODE_COUNT) * NODE_STRIDE;
        memory.write_u64(arc_addr, node);
        memory.write_u64(arc_addr + 8, rng.below(1000));
        memory.write_u64(node, mate);
        memory.write_u64(mate + 16, rng.below(800));
    }

    Workload {
        name: MCF.name,
        spec_ref: MCF.spec_ref,
        description: MCF.description,
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
        check_kernel(&mcf_like(40));
    }

    #[test]
    fn footprint_exceeds_l3() {
        const { assert!(ARC_COUNT * ARC_STRIDE > 1536 * 1024) }
    }
}
