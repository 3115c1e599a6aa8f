//! Criterion benches: end-to-end regeneration of every registered table
//! and figure at Tiny scale, serial and uncached.
//!
//! `cargo bench -p ff-bench --bench figures` exercises every experiment
//! in the registry; the publication-scale tables come from `ff_exp`.

use criterion::{criterion_group, criterion_main, Criterion};
use ff_bench::experiments::REGISTRY;
use ff_bench::sweep::{RunStore, SweepOpts};
use ff_workloads::Scale;

fn bench_figures(c: &mut Criterion) {
    // Even uncached, a sweep appends to the log beside its cache dir;
    // keep that out of the checkout.
    let cache_dir = std::env::temp_dir().join(format!("ff-bench-figures-{}", std::process::id()));
    let opts =
        SweepOpts { scale: Scale::Tiny, jobs: 1, cache: false, cache_dir, ..SweepOpts::default() };
    let mut group = c.benchmark_group("figures/tiny");
    group.sample_size(10);
    for experiment in REGISTRY {
        group.bench_function(experiment.name(), |b| {
            b.iter(|| experiment.run(&opts, &mut RunStore::default()))
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&opts.cache_dir);
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
