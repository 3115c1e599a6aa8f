//! `parser_like` — 197.parser: mixed dictionary traffic.
//!
//! The link-grammar parser mixes hash-style dictionary probes with short
//! linked-structure walks and moderately predictable control flow. The
//! kernel interleaves a randomly-indexed probe into a 512 KB dictionary
//! (L2/L3 latency), a two-hop chain from the probed entry, and a
//! biased — and hence mostly predictable — branch.

use crate::common::{fill_random_words, XorShift64};
use crate::{PaperBenchmark, Workload};
use ff_isa::reg::{IntReg, PredReg};
use ff_isa::{CmpKind, MemoryImage, ProgramBuilder};

const DICT_BASE: u64 = 0x0E00_0000;
const DICT_WORDS: u64 = 8_192; // 64 KB
const INDEX_MASK: i64 = (DICT_WORDS as i64 - 1) << 3;
const NODE_BASE: u64 = 0x0E80_0000;
const NODE_STRIDE: u64 = 64;
const NODE_COUNT: u64 = 2_048; // 128 KB of nodes

/// parser-like's entry in [`crate::PAPER_BENCHMARKS`].
pub(crate) const PARSER: PaperBenchmark = PaperBenchmark {
    name: "parser-like",
    spec_ref: "197.parser",
    description: "dictionary probes plus short connector chains and biased branches",
    iters: 80,
    kernel: parser_like,
};

/// Builds the parser-like kernel with `iters` dictionary probes.
#[must_use]
pub fn parser_like(iters: u64) -> Workload {
    let r = IntReg::n;
    let p = PredReg::n;
    let (dict, cnt, state, t1, off, slot, entry, node, word, matches) =
        (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9), r(10));

    let mut b = ProgramBuilder::new();
    b.movi(dict, DICT_BASE as i64);
    b.movi(cnt, 0);
    b.movi(state, 0x197_197_197_197u64 as i64);
    b.movi(matches, 0);
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
    b.add(slot, dict, off);
    b.stop();
    // Probe: the dictionary entry holds a pointer to a connector node.
    b.ld8(entry, slot, 0);
    b.stop();
    b.addi(cnt, cnt, 1);
    b.stop();
    // Two-hop connector walk (dependent short chain).
    b.ld8(node, entry, 0);
    b.stop();
    b.nop();
    b.stop();
    b.nop();
    b.stop();
    b.ld8(word, node, 8);
    b.stop();
    b.nop();
    b.stop();
    b.nop();
    b.stop();
    // Biased branch: connector matches ~ 7/8 of the time.
    b.andi(t1, word, 7);
    b.stop();
    b.cmpi(CmpKind::Eq, p(3), p(4), t1, 0);
    b.stop();
    let nomatch = b.new_label();
    b.br_cond(p(3), nomatch);
    b.stop();
    b.addi(matches, matches, 1);
    b.stop();
    b.bind(nomatch);
    b.cmpi(CmpKind::Lt, p(1), p(2), cnt, iters as i64);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().expect("parser kernel is well-formed");

    let mut memory = MemoryImage::new();
    let mut rng = XorShift64::new(0x197);
    // Dictionary entries point into the node region.
    for i in 0..DICT_WORDS {
        let node = NODE_BASE + rng.below(NODE_COUNT) * NODE_STRIDE;
        memory.write_u64(DICT_BASE + i * 8, node);
    }
    // Node next-pointers and payload words.
    for i in 0..NODE_COUNT {
        let this = NODE_BASE + i * NODE_STRIDE;
        let next = NODE_BASE + rng.below(NODE_COUNT) * NODE_STRIDE;
        memory.write_u64(this, next);
        memory.write_u64(this + 8, rng.next_u64());
    }
    fill_random_words(&mut memory, NODE_BASE + NODE_COUNT * NODE_STRIDE, 8, 0x197);

    Workload {
        name: PARSER.name,
        spec_ref: PARSER.spec_ref,
        description: PARSER.description,
        program,
        memory,
        budget: 30 * iters + 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::check_kernel;

    #[test]
    fn kernel_is_well_formed() {
        check_kernel(&parser_like(40));
    }
}
