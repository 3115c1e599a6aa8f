//! Property tests tying the generator, the static analyzer, and the
//! differential oracle together: every random program must lint clean
//! (errors *and* warnings — infos like dead writes are inherent to
//! random code), and interpreter/model agreement must hold across seeds.

use ff_core::MachineConfig;
use ff_verify::{analyze_program, differential_oracle, Check, Severity};
use ff_workloads::random::{random_program, GeneratorConfig};
use proptest::prelude::*;

const BUDGET: u64 = 500_000;

fn cfg() -> MachineConfig {
    MachineConfig::paper_table1()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Static legality of arbitrary generator output.
    #[test]
    fn random_programs_lint_clean(seed in 0u64..1_000_000) {
        let (program, _) = random_program(seed, &GeneratorConfig::default());
        let rep = analyze_program(&program, &cfg());
        prop_assert_eq!(rep.errors(), 0, "seed {}: {:?}", seed, rep.diagnostics);
        prop_assert_eq!(
            rep.count(Severity::Warning), 0,
            "seed {}: {:?}", seed, rep.diagnostics
        );
    }
}

/// The differential oracle holds across the first hundred seeds: all
/// three models (four configurations) match the golden interpreter on
/// final registers, memory, and retirement order.
#[test]
fn oracle_holds_on_100_random_seeds() {
    let gen_cfg = GeneratorConfig::default();
    for seed in 0..100 {
        let (program, mem) = random_program(seed, &gen_cfg);
        let report = differential_oracle(&program, &mem, &cfg(), BUDGET);
        assert!(report.ok(), "seed {seed}: {:?}", report.failures);
        assert!(report.halted, "seed {seed} did not halt in budget");
    }
}

/// Fast-forward does not weaken the oracle: random programs simulated
/// with event-driven cycle skipping produce the same reports as the
/// per-cycle machines, and the differential oracle still holds. With
/// the `audit` feature this also runs the skipped-span legality
/// assertion on every jump.
#[test]
fn oracle_holds_with_fast_forward_on_random_seeds() {
    let gen_cfg = GeneratorConfig::default();
    let mut on_cfg = cfg();
    on_cfg.fast_forward = true;
    let mut off_cfg = cfg();
    off_cfg.fast_forward = false;
    for seed in 0..50 {
        let (program, mem) = random_program(seed, &gen_cfg);
        let on = differential_oracle(&program, &mem, &on_cfg, BUDGET);
        assert!(on.ok(), "seed {seed} (ff on): {:?}", on.failures);
        let off = differential_oracle(&program, &mem, &off_cfg, BUDGET);
        assert!(off.ok(), "seed {seed} (ff off): {:?}", off.failures);
        assert_eq!(on.halted, off.halted, "seed {seed}: halt status diverged");
    }
}

/// Regression pin for two generator bugs `ff_verify` surfaced:
///
/// * predicated ops could read a PWORK predicate no compare ever
///   defined (power-on false — the instruction silently never executed);
/// * the prologue seeded 12 work registers (and 6 FP registers) in
///   single issue groups, oversubscribing the 5 ALU / 3 FP slots.
#[test]
fn generator_regressions_stay_fixed() {
    let gen_cfg = GeneratorConfig::default();
    for seed in 0..200 {
        let (program, _) = random_program(seed, &gen_cfg);
        let rep = analyze_program(&program, &cfg());
        assert!(
            !rep.has(Check::UndefinedRead),
            "seed {seed} reads an undefined register: {:?}",
            rep.diagnostics
        );
        assert!(
            !rep.has(Check::FuOversubscribed),
            "seed {seed} oversubscribes an FU class: {:?}",
            rep.diagnostics
        );
    }
}

/// Soundness of the static cycle lower bounds on arbitrary generator
/// output: across 100 random programs, neither the dependence-height
/// bound nor the resource bound ever exceeds the measured cycle count
/// of any pipeline model.
#[test]
fn bounds_hold_on_100_random_programs() {
    use ff_verify::{cycle_bounds, measured_cycles};

    let gen_cfg = GeneratorConfig::default();
    let cfg = cfg();
    for seed in 0..100 {
        let (program, mem) = random_program(seed, &gen_cfg);
        let b = cycle_bounds(&program, &mem, &cfg, BUDGET);
        assert!(b.halted, "seed {seed} did not halt in budget");
        let bound = b.lower_bound();

        for (model, cycles) in measured_cycles(&program, &mem, &cfg, BUDGET) {
            assert!(
                bound <= cycles,
                "seed {seed} {model}: lower bound {bound} (dep {} / res {}) exceeds \
                 measured {cycles} — unsound",
                b.dep_height_all_hit,
                b.resource_bound()
            );
        }
    }
}
