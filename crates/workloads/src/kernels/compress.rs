//! `compress_like` — 129.compress: ubiquitous short misses.
//!
//! 129.compress hammers a hash table larger than the L1 but resident in
//! the L2, so most probes take the 5-cycle L2 path — precisely the
//! "short, diffuse stalls due to difficult-to-anticipate first- or
//! second-level misses" the paper targets. The paper attributes
//! compress's gain to "the absorption of latencies from short but
//! ubiquitous misses". The kernel mixes PRNG key generation (ALU-heavy,
//! like compress's bit twiddling) with randomly indexed table
//! read-modify-writes over a 128 KB table.

use crate::common::fill_random_words;
use crate::{PaperBenchmark, Workload};
use ff_isa::reg::{IntReg, PredReg};
use ff_isa::{CmpKind, MemoryImage, ProgramBuilder};

const TABLE_BASE: u64 = 0x0A00_0000;
const TABLE_WORDS: u64 = 4_096; // 32 KB: misses L1 often, always hits L2
const INDEX_MASK: i64 = (TABLE_WORDS as i64 - 1) << 3;

/// compress-like's entry in [`crate::PAPER_BENCHMARKS`].
pub(crate) const COMPRESS: PaperBenchmark = PaperBenchmark {
    name: "compress-like",
    spec_ref: "129.compress",
    description: "L2-resident hash table updates: short ubiquitous L1 misses",
    iters: 150,
    kernel: compress_like,
};

/// Builds the compress-like hash-update kernel with `iters` probes.
#[must_use]
pub fn compress_like(iters: u64) -> Workload {
    let r = IntReg::n;
    let p = PredReg::n;
    let (base, cnt, state, t1, off, slot, val, mixed) =
        (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8));

    let mut b = ProgramBuilder::new();
    b.movi(base, TABLE_BASE as i64);
    b.movi(cnt, 0);
    b.movi(state, 0x9E37_79B9_7F4A_7C15u64 as i64);
    b.stop();
    let top = b.here();
    // PRNG advance (xorshift), standing in for compress's code table
    // arithmetic: four dependent single-cycle ALU groups.
    b.shli(t1, state, 13);
    b.stop();
    b.xor(state, state, t1);
    b.stop();
    b.shri(t1, state, 7);
    b.stop();
    b.xor(state, state, t1);
    b.stop();
    // Index into the table: mask to an 8-byte-aligned offset.
    b.andi(off, state, INDEX_MASK);
    b.stop();
    b.add(slot, base, off);
    b.stop();
    // Probe two groups before use.
    b.ld8(val, slot, 0);
    b.stop();
    b.addi(cnt, cnt, 1);
    b.stop();
    // Mix and write back (read-modify-write, like table updates).
    b.xor(mixed, val, state);
    b.stop();
    b.nop();
    b.stop();
    b.st8(mixed, slot, 0);
    b.stop();
    b.cmpi(CmpKind::Lt, p(1), p(2), cnt, iters as i64);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().expect("compress kernel is well-formed");

    let mut memory = MemoryImage::new();
    fill_random_words(&mut memory, TABLE_BASE, TABLE_WORDS, 0x129);

    Workload {
        name: COMPRESS.name,
        spec_ref: COMPRESS.spec_ref,
        description: COMPRESS.description,
        program,
        memory,
        budget: 18 * iters + 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::check_kernel;

    #[test]
    fn kernel_is_well_formed() {
        check_kernel(&compress_like(50));
    }

    #[test]
    fn table_fits_l2_but_not_l1() {
        let bytes = TABLE_WORDS * 8;
        assert!(bytes > 16 * 1024);
        assert!(bytes < 256 * 1024);
    }
}
