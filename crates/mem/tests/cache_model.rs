//! Property tests: the packed set-associative cache must agree with a
//! naive executable specification (explicit per-set recency lists) on
//! arbitrary access sequences, and the store buffer must agree with a
//! byte-map oracle on forwarding results.

use ff_mem::{Cache, CacheGeometry, ForwardResult, StoreBuffer};
use proptest::prelude::*;
use std::collections::HashMap;

/// Naive LRU set-associative cache: per-set vector of tags ordered by
/// recency.
struct RefCache {
    geometry: CacheGeometry,
    sets: Vec<Vec<u64>>, // tags, most recent first
}

impl RefCache {
    fn new(geometry: CacheGeometry) -> Self {
        RefCache { geometry, sets: vec![Vec::new(); geometry.sets() as usize] }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.geometry.line_bytes;
        ((line % self.geometry.sets()) as usize, line / self.geometry.sets())
    }

    /// Returns whether the line was present.
    fn access(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.geometry.ways as usize;
        let entries = &mut self.sets[set];
        let hit = if let Some(pos) = entries.iter().position(|&t| t == tag) {
            entries.remove(pos);
            true
        } else {
            false
        };
        entries.insert(0, tag);
        entries.truncate(ways);
        hit
    }
}

fn geometry_strategy() -> impl Strategy<Value = CacheGeometry> {
    (1u64..=4, 1u64..=8, prop_oneof![Just(32u64), Just(64), Just(128)]).prop_map(
        |(sets_pow, ways, line)| {
            let sets = 1u64 << sets_pow;
            CacheGeometry::new(sets * ways * line, ways, line)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_reference_model(
        geometry in geometry_strategy(),
        accesses in prop::collection::vec(0u64..0x4000, 1..400),
    ) {
        let mut cache = Cache::new(geometry).expect("valid geometry");
        let mut reference = RefCache::new(geometry);
        for (i, &addr) in accesses.iter().enumerate() {
            prop_assert_eq!(cache.access(addr), reference.access(addr), "access {} addr {:#x}", i, addr);
        }
    }

    #[test]
    fn store_buffer_matches_byte_oracle(
        ops in prop::collection::vec(
            (0u64..128, 1u64..=8, any::<u64>(), any::<bool>()),
            1..64,
        ),
    ) {
        // Sequence of stores (tracked in a byte oracle) interleaved with
        // forwarding lookups. `is_load` selects the operation.
        let mut sb = StoreBuffer::new(256);
        let mut oracle: HashMap<u64, u8> = HashMap::new();
        let mut covered: HashMap<u64, bool> = HashMap::new(); // byte -> buffered?
        let mut seq = 0u64;
        for &(addr, size, bits, is_load) in &ops {
            seq += 1;
            if is_load {
                match sb.forward(seq, addr, size) {
                    ForwardResult::Forwarded(got) => {
                        // Every byte must be buffered and match the oracle.
                        for i in 0..size {
                            let a = addr + i;
                            prop_assert_eq!(covered.get(&a), Some(&true), "byte {:#x}", a);
                            let want = *oracle.get(&a).unwrap_or(&0);
                            prop_assert_eq!(((got >> (8 * i)) & 0xFF) as u8, want);
                        }
                    }
                    ForwardResult::NoConflict => {
                        // No byte of the load range may be buffered.
                        for i in 0..size {
                            prop_assert_ne!(
                                covered.get(&(addr + i)),
                                Some(&true),
                                "byte {:#x} was buffered but load saw no conflict",
                                addr + i
                            );
                        }
                    }
                    ForwardResult::Partial => {
                        // At least one byte buffered (otherwise NoConflict).
                        let any = (0..size).any(|i| covered.get(&(addr + i)) == Some(&true));
                        prop_assert!(any, "partial without buffered bytes");
                    }
                }
            } else {
                sb.insert(seq, addr, size, bits).expect("capacity 256 not exceeded");
                for i in 0..size {
                    oracle.insert(addr + i, (bits >> (8 * i)) as u8);
                    covered.insert(addr + i, true);
                }
            }
        }
    }
}
