//! Differential test: [`ff_mem::StoreBuffer`] forwarding vs a naive
//! byte-map oracle.
//!
//! Random store/load/commit/flush sequences are generated with the
//! vendored deterministic `rand` and replayed against both the real store
//! buffer and a straightforward model that keeps live stores as a list
//! and answers loads by expanding the deciding store into a little-endian
//! byte map. Address generation deliberately includes ranges ending
//! exactly at `2^64` to cover the wrap-safety fix in `overlaps`/`covers`.

use ff_mem::{ForwardResult, StoreBuffer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A live store in the model: `(seq, addr, size, bits)`.
type ModelStore = (u64, u64, u64, u64);

/// Computes the expected forwarding outcome the slow way.
///
/// The youngest store older than the load that overlaps it decides the
/// outcome, exactly as the documented store-buffer contract says. The
/// forwarded value is assembled byte-by-byte through a little-endian byte
/// map rather than with the shift/mask arithmetic the real implementation
/// uses, so the two computations are independent.
fn oracle_forward(stores: &[ModelStore], load_seq: u64, addr: u64, size: u64) -> ForwardResult {
    let l_start = addr as u128;
    let l_end = l_start + size as u128;
    for &(seq, s_addr, s_size, bits) in stores.iter().rev() {
        if seq >= load_seq {
            continue;
        }
        let s_start = s_addr as u128;
        let s_end = s_start + s_size as u128;
        let overlap = s_start < l_end && l_start < s_end;
        if !overlap {
            continue;
        }
        if s_start <= l_start && l_end <= s_end {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate().take(size as usize) {
                let byte_off = (l_start - s_start) as u64 + i as u64;
                *b = (bits >> (8 * byte_off)) as u8;
            }
            return ForwardResult::Forwarded(u64::from_le_bytes(bytes));
        }
        return ForwardResult::Partial;
    }
    ForwardResult::NoConflict
}

/// Draws an `(addr, size)` pair; roughly one access in four lands near the
/// top of the address space, where ranges may end exactly at `2^64`.
fn gen_access(rng: &mut StdRng) -> (u64, u64) {
    let size = *[1u64, 2, 4, 8].get(rng.gen_range(0usize..4)).unwrap();
    if rng.gen_bool(0.25) {
        let offset = rng.gen_range(0u64..64);
        let size = size.min(offset + 1);
        (u64::MAX - offset, size)
    } else {
        // A 64-byte window so stores and loads collide often.
        (0x1000 + rng.gen_range(0u64..64), size)
    }
}

#[test]
fn randomized_forwarding_matches_byte_map_oracle() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sb = StoreBuffer::new(16);
        let mut model: Vec<ModelStore> = Vec::new();
        let mut next_seq = 0u64;
        let mut checks = 0u64;
        let (mut forwards, mut partials) = (0u64, 0u64);
        for _ in 0..4000 {
            next_seq += 1;
            let op = rng.gen_range(0u32..100);
            if op < 50 {
                // Load: compare the real buffer against the oracle. Probe
                // with a seq in the middle of the live window too, so the
                // age filter is exercised, not just "younger than all".
                let load_seq = if model.is_empty() || rng.gen_bool(0.5) {
                    next_seq
                } else {
                    model[rng.gen_range(0usize..model.len())].0
                };
                let (addr, size) = gen_access(&mut rng);
                let expected = oracle_forward(&model, load_seq, addr, size);
                let got = sb.forward(load_seq, addr, size);
                assert_eq!(
                    got, expected,
                    "seed {seed}: load seq={load_seq} addr={addr:#x} size={size} \
                     disagrees with oracle (model: {model:?})"
                );
                checks += 1;
                forwards += u64::from(matches!(got, ForwardResult::Forwarded(_)));
                partials += u64::from(got == ForwardResult::Partial);
            } else if op < 85 {
                let (addr, size) = gen_access(&mut rng);
                let bits = rng.gen_range(0u64..=u64::MAX);
                if sb.insert(next_seq, addr, size, bits).is_ok() {
                    model.push((next_seq, addr, size, bits));
                }
            } else if op < 95 {
                if let Some(&(seq, ..)) = model.first() {
                    assert!(sb.remove(seq).is_some());
                    model.remove(0);
                }
            } else if !model.is_empty() {
                let boundary = model[rng.gen_range(0usize..model.len())].0;
                sb.flush_after(boundary);
                model.retain(|&(seq, ..)| seq <= boundary);
            }
        }
        assert!(checks > 1000, "seed {seed}: only {checks} forwarding checks ran");
        assert!(forwards > 0, "seed {seed}: no full forwards exercised");
        assert!(partials > 0, "seed {seed}: no partials exercised");
    }
}

/// Finding on the vendored proptest stub (ISSUE PR2 satellite): each case
/// seeds a fresh splitmix64 `TestRng` from the case *index*, so repeated
/// runs are deterministic and distinct cases draw distinct values — the
/// stub genuinely explores the state space rather than generating
/// degenerate (constant or all-zero) cases. What it does NOT do: no
/// shrinking (a failure reports the raw generated case, not a minimal
/// one) and no failure persistence (`proptest-regressions/` files are
/// never written or replayed). This test pins the exploration property so
/// a regression in the stub is caught here rather than silently weakening
/// every proptest-based test in the workspace.
#[test]
fn vendored_proptest_stub_explores_distinct_cases() {
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;

    let strat = 0u64..(1u64 << 32);
    let mut seen = std::collections::HashSet::new();
    for case in 0..64u64 {
        let mut rng = TestRng::deterministic(case);
        seen.insert(strat.generate(&mut rng));
    }
    assert!(
        seen.len() >= 60,
        "proptest stub generated only {} distinct values in 64 cases",
        seen.len()
    );
}

// A conventional proptest-macro use of the stub, kept alongside the
// hand-rolled oracle loop above: single covering store, forwarded value
// must equal the byte-map extraction.
proptest::proptest! {
    #[test]
    fn covered_load_forwards_extracted_bytes(
        bits in 0u64..u64::MAX,
        off in 0u64..5,
    ) {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0x100, 8, bits).unwrap();
        // 4-byte loads at offsets 0..=4 stay covered by the 8-byte store.
        let addr = 0x100 + off;
        let expected = oracle_forward(&[(1, 0x100, 8, bits)], 2, addr, 4);
        proptest::prop_assert_eq!(sb.forward(2, addr, 4), expected);
    }
}
