//! Criterion microbenches for the simulator's hottest primitives.
//!
//! The full-model benches in `models.rs` measure end-to-end throughput;
//! these isolate the leaf structures that dominate its profile — the
//! functional memory image, the cache tag arrays, the JSONL trace
//! codec, and one small-kernel step loop — so a regression in any one
//! of them is visible on its own rather than diluted across a whole
//! simulation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ff_core::{
    parse_jsonl_line, run_model, JsonlSink, MachineConfig, ModelKind, Trace, TraceSink, TwoPass,
};
use ff_isa::MemoryImage;
use ff_mem::{Cache, CacheGeometry};
use ff_workloads::{benchmark_by_name, Scale};

fn bench_mem_image(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpaths/mem_image");
    group.sample_size(20);

    // A working set touching a few dozen pages, like a kernel's heap.
    let mut img = MemoryImage::new();
    for i in 0..4096u64 {
        img.write(i * 64, 8, i);
    }

    group.bench_function("read_u64_resident", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..4096u64 {
                acc = acc.wrapping_add(img.read(black_box(i * 64), 8));
            }
            acc
        })
    });
    group.bench_function("write_u64_resident", |b| {
        b.iter(|| {
            for i in 0..4096u64 {
                img.write(black_box(i * 64), 8, i);
            }
        })
    });
    group.bench_function("read_u8_strided", |b| {
        b.iter(|| {
            let mut acc = 0u8;
            for i in 0..4096u64 {
                acc = acc.wrapping_add(img.read_u8(black_box(i * 61)));
            }
            acc
        })
    });
    group.finish();
}

fn bench_cache_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpaths/cache");
    group.sample_size(20);

    // The paper's L1D: 16KB, 4-way, 64B lines.
    group.bench_function("l1_hit_stream", |b| {
        let mut cache = Cache::new(CacheGeometry::new(16 * 1024, 4, 64)).unwrap();
        for i in 0..64u64 {
            cache.access(i * 64, false);
        }
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..64u64 {
                hits += u64::from(cache.access(black_box(i * 64), false).hit);
            }
            hits
        })
    });
    group.bench_function("l1_thrash_stream", |b| {
        let mut cache = Cache::new(CacheGeometry::new(16 * 1024, 4, 64)).unwrap();
        b.iter(|| {
            let mut misses = 0u64;
            // 8 lines per set with 4 ways: every access evicts.
            for i in 0..512u64 {
                misses += u64::from(!cache.access(black_box(i * 4096), true).hit);
            }
            misses
        })
    });
    group.finish();
}

fn bench_trace_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpaths/trace");

    // A captured tiny mcf-like 2P trace; one iteration handles one
    // event, so ns/iter reads as ns per event.
    let w = benchmark_by_name("mcf-like", Scale::Tiny).expect("built-in benchmark");
    let mut trace = Trace::new();
    let cfg = MachineConfig::paper_table1();
    let _ = run_model(
        ModelKind::TwoPass,
        &w.program,
        w.memory.clone(),
        cfg,
        w.budget,
        Some(&mut trace),
    );
    let events = trace.events();
    let mut sink = JsonlSink::new(Vec::new());
    for &e in events {
        sink.emit(e);
    }
    let text = String::from_utf8(sink.into_inner().expect("in-memory writer")).expect("UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    group.sample_size(events.len());

    group.bench_function("encode_per_event", |b| {
        let mut sink = JsonlSink::new(std::io::sink());
        let mut i = 0;
        b.iter(|| {
            sink.emit(black_box(events[i % events.len()]));
            i += 1;
        })
    });
    group.bench_function("parse_per_event", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            parse_jsonl_line(black_box(lines[(i - 1) % lines.len()]))
        })
    });
    group.finish();
}

fn bench_model_step_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpaths/step_loop");
    group.sample_size(10);

    // One small kernel through the most complex model, end to end:
    // the integration point where every leaf cost meets.
    let w = benchmark_by_name("vortex-like", Scale::Tiny).expect("built-in benchmark");
    let cfg = MachineConfig::paper_table1();
    group.bench_function("two_pass_vortex_tiny", |b| {
        b.iter(|| TwoPass::new(&w.program, w.memory.clone(), cfg.clone()).run(w.budget))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mem_image,
    bench_cache_access,
    bench_trace_codec,
    bench_model_step_loop
);
criterion_main!(benches);
