//! Copy-on-write isolation: the interpreter and every model run on
//! clones of one initial image, which share its pages, and no run may
//! write through to that shared source. Each source is compared with a
//! copy built separately, which shares no page with it, so the
//! comparison reads every byte rather than passing on shared pages.

use fleaflicker::core::{run_model, MachineConfig, ModelKind};
use fleaflicker::isa::{ArchState, MemoryImage, Program};
use fleaflicker::workloads::random::{random_program, GeneratorConfig};
use fleaflicker::workloads::synth::{AccessPattern, BranchBehavior, SynthSpec};
use fleaflicker::workloads::{paper_benchmarks, Scale};

/// Runs the interpreter and all four models on clones of `source`, all
/// alive at once, and checks that `source` still equals `fresh`.
/// Returns whether the runs wrote memory (their final image differs
/// from the source).
fn runs_leave_source_intact(
    label: &str,
    program: &Program,
    source: &MemoryImage,
    fresh: &MemoryImage,
    budget: u64,
) -> bool {
    let mut interp = ArchState::new(program, source.clone());
    interp.run(budget);
    let mut finals = vec![interp.mem().clone()];
    for kind in ModelKind::ALL {
        let cfg = MachineConfig::paper_table1();
        let (_, _, mem) = run_model(kind, program, source.clone(), cfg, budget, None);
        assert_eq!(&mem, interp.mem(), "{label}: {kind} final memory");
        finals.push(mem);
    }
    assert!(source == fresh, "{label}: a run wrote through to the shared source image");
    drop(finals);
    assert!(source == fresh, "{label}: dropping the runs' images changed the source");
    interp.mem() != source
}

#[test]
fn paper_kernels_leave_their_initial_image_intact() {
    let fresh = paper_benchmarks(Scale::Tiny);
    let mut writers = 0;
    for (w, f) in paper_benchmarks(Scale::Tiny).iter().zip(&fresh) {
        writers += usize::from(runs_leave_source_intact(
            w.name, &w.program, &w.memory, &f.memory, w.budget,
        ));
    }
    assert!(writers >= 5, "only {writers} kernels store to memory");
}

#[test]
fn synthetic_kernels_leave_their_initial_image_intact() {
    let shapes = [
        ("random index with stores", AccessPattern::RandomIndex, true),
        ("pointer chase", AccessPattern::PointerChase, false),
        ("stream", AccessPattern::Stream { stride: 64 }, true),
    ];
    for (label, access, store_every) in shapes {
        let spec = SynthSpec {
            iterations: 300,
            footprint_bytes: 64 * 1024,
            access,
            store_every,
            branch: BranchBehavior::DataDependent,
            ..SynthSpec::default()
        };
        let (w, fresh) = (spec.build(), spec.build());
        let wrote = runs_leave_source_intact(label, &w.program, &w.memory, &fresh.memory, w.budget);
        assert_eq!(wrote, store_every, "{label}: stores reach the run's own image");
    }
}

#[test]
fn random_programs_leave_their_initial_image_intact() {
    let cfg = GeneratorConfig::default();
    let mut writers = 0;
    for seed in 0..50 {
        let (program, source) = random_program(seed, &cfg);
        let (_, fresh) = random_program(seed, &cfg);
        let label = format!("seed {seed}");
        writers +=
            usize::from(runs_leave_source_intact(&label, &program, &source, &fresh, 2_000_000));
    }
    assert!(writers >= 30, "only {writers} of 50 programs store to memory");
}
