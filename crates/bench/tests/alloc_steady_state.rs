//! Steady-state allocation audit: with the trace sink disabled, the
//! cycle loop must not allocate at all.
//!
//! Each simulation's allocations are construction plus first-touch
//! growth of its reusable buffers — a fixed count. If the count moves
//! with run length, something on the per-cycle path has started
//! allocating (a collect, a fresh Vec, an event built for a disabled
//! sink), which is exactly the regression this test exists to catch.
//!
//! This file holds a single test: the counting allocator is global to
//! the binary, so a parallel test would pollute the measured windows.
//!
//! `unsafe` allowlist: this is the one file in the workspace permitted
//! to use `unsafe` — `GlobalAlloc` is an unsafe trait, so a counting
//! allocator cannot be written without it. Every library crate carries
//! `#![deny(unsafe_code)]`; integration tests compile as separate
//! crates, which is why the denial does not bite here.

use ff_core::{Baseline, MachineConfig, Runahead, TwoPass};
use ff_workloads::{benchmark_by_name, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn disabled_sink_runs_do_not_allocate_per_cycle() {
    let w = benchmark_by_name("compress-like", Scale::Tiny).unwrap();
    let cfg = MachineConfig::paper_table1();

    // Budgets past the first-touch growth phase but well apart in run
    // length; the long run executes roughly twice the instructions.
    let (short_budget, long_budget) = (1_000, w.budget);

    // One throwaway run per model warms any lazily-grown process state
    // (thread-locals, the allocator itself) out of the measurement.
    let _ = Baseline::new(&w.program, w.memory.clone(), cfg.clone()).run(short_budget);
    let _ = TwoPass::new(&w.program, w.memory.clone(), cfg.clone()).run(short_budget);
    let _ = Runahead::new(&w.program, w.memory.clone(), cfg.clone()).run(short_budget);

    let base_short = allocs_during(|| {
        let r = Baseline::new(&w.program, w.memory.clone(), cfg.clone()).run(short_budget);
        assert_eq!(r.retired, short_budget);
    });
    let base_long = allocs_during(|| {
        let r = Baseline::new(&w.program, w.memory.clone(), cfg.clone()).run(long_budget);
        assert!(r.retired > short_budget, "long run must actually run longer");
    });
    assert_eq!(
        base_short, base_long,
        "baseline allocations scale with run length: the cycle loop allocates"
    );

    let tp_short = allocs_during(|| {
        let r = TwoPass::new(&w.program, w.memory.clone(), cfg.clone()).run(short_budget);
        assert_eq!(r.retired, short_budget);
    });
    let tp_long = allocs_during(|| {
        let r = TwoPass::new(&w.program, w.memory.clone(), cfg.clone()).run(long_budget);
        assert!(r.retired > short_budget, "long run must actually run longer");
    });
    assert_eq!(
        tp_short, tp_long,
        "two-pass allocations scale with run length: the cycle loop allocates"
    );

    // Runahead reuses one store overlay for every episode, so only the
    // first episode's stores grow it.
    let ra_short = allocs_during(|| {
        let r = Runahead::new(&w.program, w.memory.clone(), cfg.clone()).run(short_budget);
        assert_eq!(r.retired, short_budget);
    });
    let ra_long = allocs_during(|| {
        let r = Runahead::new(&w.program, w.memory.clone(), cfg).run(long_budget);
        assert!(r.retired > short_budget, "long run must actually run longer");
    });
    assert_eq!(
        ra_short, ra_long,
        "runahead allocations scale with run length: the cycle loop allocates"
    );
}
