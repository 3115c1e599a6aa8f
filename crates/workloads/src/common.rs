//! Shared helpers for kernel construction.

use ff_isa::MemoryImage;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Deterministic xorshift64* PRNG used to initialise kernel data so runs
/// are reproducible without threading `rand` through every kernel.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a PRNG; a zero seed is remapped to a fixed constant.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        XorShift64 { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound` (bound > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Builds a shuffled circular pointer chain in memory: `count` nodes of
/// `stride` bytes starting at `base`; each node's first 8 bytes point to
/// the next node in a random permutation cycle. Returns the address of
/// the first node of the cycle.
///
/// Shuffling defeats spatial locality, making every hop a fresh line —
/// the classic pointer-chase microbenchmark layout.
pub fn shuffled_chain(mem: &mut MemoryImage, base: u64, count: u64, stride: u64, seed: u64) -> u64 {
    assert!(count > 0);
    let mut order: Vec<u64> = (0..count).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    for w in 0..count {
        let this = base + order[w as usize] * stride;
        let next = base + order[((w + 1) % count) as usize] * stride;
        mem.write_u64(this, next);
    }
    base + order[0] * stride
}

/// Fills `count` 8-byte words starting at `base` with PRNG data.
pub fn fill_random_words(mem: &mut MemoryImage, base: u64, count: u64, seed: u64) {
    let mut rng = XorShift64::new(seed);
    mem.write_u64s(base, (0..count).map(|_| rng.next_u64()));
}

/// Fills `count` doubles starting at `base` with values in (-1, 1).
pub fn fill_random_f64(mem: &mut MemoryImage, base: u64, count: u64, seed: u64) {
    let mut rng = XorShift64::new(seed);
    mem.write_f64s(
        base,
        (0..count).map(|_| {
            let v = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            2.0 * v - 1.0
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, 0);
        }
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0, "zero seed remapped");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn shuffled_chain_visits_every_node_once() {
        let mut mem = MemoryImage::new();
        let base = 0x10000;
        let (count, stride) = (64u64, 128u64);
        let start = shuffled_chain(&mut mem, base, count, stride, 1);
        let mut seen = std::collections::HashSet::new();
        let mut at = start;
        for _ in 0..count {
            assert!(seen.insert(at), "revisited {at:#x} before cycle end");
            assert!(at >= base && at < base + count * stride);
            assert_eq!((at - base) % stride, 0);
            at = mem.read_u64(at);
        }
        assert_eq!(at, start, "chain must be a single cycle");
    }

    #[test]
    fn fillers_write_expected_ranges() {
        let mut mem = MemoryImage::new();
        fill_random_words(&mut mem, 0x1000, 4, 3);
        assert_ne!(mem.read_u64(0x1000), 0);
        fill_random_f64(&mut mem, 0x2000, 4, 3);
        let v = mem.read_f64(0x2008);
        assert!((-1.0..1.0).contains(&v));
    }
}
