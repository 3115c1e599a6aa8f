//! Cross-validation of the static cycle lower bounds against the
//! simulator: for every Table 2 kernel and every pipeline model, the
//! dependence-height/resource lower bound must not exceed the measured
//! cycle count — the bounds are theorems about the machine, so a
//! violation is a bug in either the analyzer or a model.
//!
//! The bound values themselves are additionally pinned at `Scale::Tiny`
//! so silent analyzer drift (a lost edge, a latency remap) fails loudly
//! rather than merely loosening the bound.

use ff_core::{Baseline, MachineConfig};
use ff_verify::{cycle_bounds, measured_cycles};
use ff_workloads::{paper_benchmarks, Scale, Workload};

/// The workload's dynamic-instruction budget with `issue_width`
/// headroom, so the replay always covers the stream the models retire.
fn replay_budget(w: &Workload, cfg: &MachineConfig) -> u64 {
    w.budget.saturating_mul(cfg.issue_width as u64)
}

/// `(kernel, retired, dep_hit, dep_miss, resource_bound, lower_bound)`
/// at `Scale::Tiny` under the Table 1 machine.
const GOLDEN_BOUNDS: &[(&str, u64, u64, u64, u64, u64)] = &[
    ("go-like", 1801, 409, 552, 285, 409),
    ("compress-like", 1954, 607, 750, 301, 607),
    ("li-like", 1355, 304, 21754, 181, 304),
    ("vpr-like", 1707, 1212, 1355, 214, 1212),
    ("mcf-like", 726, 69, 498, 101, 101),
    ("equake-like", 1629, 134, 277, 204, 204),
    ("parser-like", 1594, 332, 761, 239, 332),
    ("gap-like", 305, 63, 4353, 39, 63),
    ("vortex-like", 1904, 407, 550, 261, 407),
    ("twolf-like", 1584, 408, 551, 257, 408),
];

#[test]
fn bounds_are_pinned_at_tiny_scale() {
    let cfg = MachineConfig::paper_table1();
    let mut checked = 0;
    for w in paper_benchmarks(Scale::Tiny) {
        let b = cycle_bounds(&w.program, &w.memory, &cfg, replay_budget(&w, &cfg));
        assert!(b.halted, "{}: replay must halt", w.name);
        let row = GOLDEN_BOUNDS
            .iter()
            .find(|(k, ..)| *k == w.name)
            .unwrap_or_else(|| panic!("no golden bound row for {}", w.name));
        let (_, retired, hit, miss, resource, lower) = *row;
        assert_eq!(b.retired, retired, "{}: retired drifted", w.name);
        assert_eq!(b.dep_height_all_hit, hit, "{}: all-hit height drifted", w.name);
        assert_eq!(b.dep_height_all_miss, miss, "{}: all-miss height drifted", w.name);
        assert_eq!(b.resource_bound(), resource, "{}: resource bound drifted", w.name);
        assert_eq!(b.lower_bound(), lower, "{}: lower bound drifted", w.name);
        checked += 1;
    }
    assert_eq!(checked, GOLDEN_BOUNDS.len(), "every golden bound row must be exercised");
}

#[test]
fn lower_bound_never_exceeds_any_model_on_any_kernel() {
    let cfg = MachineConfig::paper_table1();
    for w in paper_benchmarks(Scale::Tiny) {
        let b = cycle_bounds(&w.program, &w.memory, &cfg, replay_budget(&w, &cfg));
        assert!(b.halted, "{}: replay must halt", w.name);
        let bound = b.lower_bound();

        for (model, cycles) in measured_cycles(&w.program, &w.memory, &cfg, w.budget) {
            assert!(
                bound <= cycles,
                "{} {model}: lower bound {bound} exceeds measured {cycles} — unsound",
                w.name
            );
        }
        // The retired count the bound reasons about is the same one the
        // models report, so width pressure genuinely applies to them.
        let base = Baseline::new(&w.program, w.memory.clone(), cfg.clone()).run(w.budget);
        assert_eq!(b.retired, base.retired, "{}: retired mismatch vs Baseline", w.name);
    }
}
