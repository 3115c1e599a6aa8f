//! Integration tests over the ten Table 2 kernels: every pipeline model
//! must agree with the golden interpreter on every benchmark, and the
//! cycle accounting must be exhaustive.

use fleaflicker::core::{run_model, CycleClass, MachineConfig, ModelKind, SimReport};
use fleaflicker::isa::{check_group_hazards, ArchState};
use fleaflicker::workloads::{paper_benchmarks, Scale, Workload};

/// The two-level accounting invariants every model must satisfy: the
/// refined causes sum to the total cycle count, collapse exactly onto
/// the six-class breakdown (per class and in aggregate), and the
/// per-PC stall profile accounts for precisely the attributable
/// cycles.
fn check_refined_accounting(name: &str, label: ModelKind, r: &SimReport) {
    assert_eq!(r.breakdown.total(), r.cycles, "{name}: {label} accounting");
    assert_eq!(r.breakdown2.total(), r.cycles, "{name}: {label} refined accounting");
    assert_eq!(r.breakdown2.collapse(), r.breakdown, "{name}: {label} cause collapse");
    for class in CycleClass::ALL {
        assert_eq!(
            r.breakdown2.class_total(class),
            r.breakdown[class],
            "{name}: {label} class {class}"
        );
    }
    assert_eq!(
        r.stall_profile.total(),
        r.breakdown2.attributable_total(),
        "{name}: {label} stall profile coverage"
    );
}

fn check_workload(w: &Workload) {
    check_group_hazards(&w.program).unwrap_or_else(|e| panic!("{}: {e}", w.name));

    let mut interp = ArchState::new(&w.program, w.memory.clone());
    interp.run(w.budget);
    assert!(interp.is_halted(), "{} must halt within its budget", w.name);

    let cfg = MachineConfig::paper_table1();
    for kind in ModelKind::ALL {
        let (r, regs, mem) =
            run_model(kind, &w.program, w.memory.clone(), cfg.clone(), w.budget, None);
        assert_eq!(r.retired, interp.instr_count(), "{}: {kind} retired", w.name);
        assert_eq!(&regs, interp.reg_bits(), "{}: {kind} registers", w.name);
        assert_eq!(&mem, interp.mem(), "{}: {kind} memory", w.name);
        check_refined_accounting(w.name, kind, &r);
    }
}

#[test]
fn all_ten_kernels_match_the_interpreter_on_every_model() {
    for w in paper_benchmarks(Scale::Tiny) {
        check_workload(&w);
    }
}

/// Golden reports: `(kernel, model, cycles, retired, six-class breakdown)`
/// for every Table 2 kernel on every model at tiny scale. The breakdown
/// order is [`CycleClass::ALL`]: unstalled, load stall, non-load dep,
/// resource, front end, A-pipe.
///
/// These pin the simulated *numbers*, not just the invariants: any
/// change to what the simulator reports — however plausible — must show
/// up here as a conscious re-baselining, never as silent drift from a
/// performance refactor.
const GOLDEN_TINY: &[(&str, &str, u64, u64, [u64; 6])] = &[
    ("go-like", "Base", 14144, 1801, [1797, 11610, 0, 0, 737, 0]),
    ("go-like", "2P", 5885, 1801, [1797, 3283, 0, 0, 692, 113]),
    ("go-like", "2Pre", 5818, 1801, [1513, 3434, 0, 0, 758, 113]),
    ("go-like", "Ra", 4924, 1801, [1797, 2358, 0, 0, 769, 0]),
    ("compress-like", "Base", 18377, 1954, [1952, 16341, 0, 0, 84, 0]),
    ("compress-like", "2P", 4243, 1954, [1952, 2252, 0, 0, 38, 1]),
    ("compress-like", "2Pre", 4303, 1954, [1033, 3231, 0, 0, 38, 1]),
    ("compress-like", "Ra", 3953, 1954, [1952, 1898, 0, 0, 103, 0]),
    ("li-like", "Base", 18655, 1355, [1352, 17224, 0, 0, 79, 0]),
    ("li-like", "2P", 18598, 1355, [1352, 17226, 0, 0, 20, 0]),
    ("li-like", "2Pre", 18138, 1355, [751, 17367, 0, 0, 20, 0]),
    ("li-like", "Ra", 18939, 1355, [1352, 17366, 0, 0, 221, 0]),
    ("vpr-like", "Base", 2884, 1707, [1303, 280, 1200, 0, 101, 0]),
    ("vpr-like", "2P", 2982, 1707, [1303, 462, 946, 0, 254, 17]),
    ("vpr-like", "2Pre", 2112, 1707, [806, 165, 954, 0, 176, 11]),
    ("vpr-like", "Ra", 2743, 1707, [1303, 138, 1200, 0, 102, 0]),
    ("mcf-like", "Base", 26618, 726, [664, 25876, 0, 0, 78, 0]),
    ("mcf-like", "2P", 17987, 726, [664, 17312, 0, 0, 11, 0]),
    ("mcf-like", "2Pre", 17807, 726, [422, 17374, 0, 0, 11, 0]),
    ("mcf-like", "Ra", 3208, 726, [664, 2448, 0, 0, 96, 0]),
    ("equake-like", "Base", 2795, 1629, [1146, 1271, 300, 0, 78, 0]),
    ("equake-like", "2P", 2176, 1629, [1146, 855, 164, 0, 11, 0]),
    ("equake-like", "2Pre", 2060, 1629, [664, 1048, 337, 0, 11, 0]),
    ("equake-like", "Ra", 2676, 1629, [1146, 1143, 300, 0, 87, 0]),
    ("parser-like", "Base", 33652, 1594, [1591, 31610, 0, 0, 451, 0]),
    ("parser-like", "2P", 19727, 1594, [1591, 17927, 0, 0, 192, 17]),
    ("parser-like", "2Pre", 19250, 1594, [981, 18059, 0, 0, 193, 17]),
    ("parser-like", "Ra", 7958, 1594, [1591, 5872, 0, 0, 495, 0]),
    ("gap-like", "Base", 4581, 305, [272, 4223, 0, 0, 86, 0]),
    ("gap-like", "2P", 4525, 305, [272, 4233, 0, 0, 20, 0]),
    ("gap-like", "2Pre", 4464, 305, [152, 4292, 0, 0, 20, 0]),
    ("gap-like", "Ra", 4641, 305, [272, 4253, 0, 0, 116, 0]),
    ("vortex-like", "Base", 15374, 1904, [1702, 13581, 0, 0, 91, 0]),
    ("vortex-like", "2P", 4022, 1904, [1703, 2280, 0, 0, 38, 1]),
    ("vortex-like", "2Pre", 4077, 1904, [907, 3131, 0, 0, 38, 1]),
    ("vortex-like", "Ra", 3552, 1904, [1702, 1745, 0, 0, 105, 0]),
    ("twolf-like", "Base", 14606, 1584, [1580, 12516, 0, 0, 510, 0]),
    ("twolf-like", "2P", 5364, 1584, [1580, 3089, 0, 0, 607, 88]),
    ("twolf-like", "2Pre", 5316, 1584, [1320, 3270, 0, 0, 639, 87]),
    ("twolf-like", "Ra", 4029, 1584, [1580, 1904, 0, 0, 545, 0]),
];

#[test]
fn golden_reports_are_pinned_for_every_kernel_and_model() {
    let cfg = MachineConfig::paper_table1();
    let mut checked = 0;
    for w in paper_benchmarks(Scale::Tiny) {
        // GOLDEN_TINY's model labels, in `ModelKind::ALL` order.
        for (label, kind) in ["Base", "2P", "2Pre", "Ra"].into_iter().zip(ModelKind::ALL) {
            let (r, _, _) =
                run_model(kind, &w.program, w.memory.clone(), cfg.clone(), w.budget, None);
            let golden = GOLDEN_TINY
                .iter()
                .find(|(k, m, ..)| *k == w.name && *m == label)
                .unwrap_or_else(|| panic!("no golden row for {} {label}", w.name));
            let (_, _, cycles, retired, breakdown) = golden;
            assert_eq!(r.cycles, *cycles, "{} {label}: cycles drifted", w.name);
            assert_eq!(r.retired, *retired, "{} {label}: retired drifted", w.name);
            for (i, class) in CycleClass::ALL.iter().enumerate() {
                assert_eq!(
                    r.breakdown[*class], breakdown[i],
                    "{} {label}: {class} cycles drifted",
                    w.name
                );
            }
            checked += 1;
        }
    }
    assert_eq!(checked, GOLDEN_TINY.len(), "every golden row must be exercised");
}

/// Golden runahead counters: `(kernel, [episodes, cycles, loads,
/// discarded_instrs])` for every Table 2 kernel at tiny scale. The cycle
/// pins above cannot see a slip in the episode bookkeeping (the per-run
/// discard count, the cycles charged to episodes); these can.
const GOLDEN_RUNAHEAD_TINY: &[(&str, [u64; 4])] = &[
    ("go-like", [27, 2331, 81, 1697]),
    ("compress-like", [19, 1879, 134, 1769]),
    ("li-like", [142, 17224, 0, 15853]),
    ("vpr-like", [1, 137, 14, 125]),
    ("mcf-like", [18, 2430, 516, 2147]),
    ("equake-like", [9, 1134, 294, 1370]),
    ("parser-like", [44, 5828, 385, 4430]),
    ("gap-like", [30, 4223, 274, 2852]),
    ("vortex-like", [14, 1731, 274, 1764]),
    ("twolf-like", [20, 1884, 87, 1475]),
];

#[test]
fn golden_runahead_counters_are_pinned_for_every_kernel() {
    let cfg = MachineConfig::paper_table1();
    let mut checked = 0;
    for w in paper_benchmarks(Scale::Tiny) {
        let (r, _, _) = run_model(
            ModelKind::Runahead,
            &w.program,
            w.memory.clone(),
            cfg.clone(),
            w.budget,
            None,
        );
        let (_, golden) = GOLDEN_RUNAHEAD_TINY
            .iter()
            .find(|(k, _)| *k == w.name)
            .unwrap_or_else(|| panic!("no runahead golden row for {}", w.name));
        for (name, want) in ["episodes", "cycles", "loads", "discarded_instrs"].iter().zip(golden) {
            let got = r.metrics.counter(&format!("runahead.{name}"));
            assert_eq!(got, Some(*want), "{}: runahead.{name} drifted", w.name);
        }
        checked += 1;
    }
    assert_eq!(checked, GOLDEN_RUNAHEAD_TINY.len(), "every runahead row must be exercised");
}

#[test]
fn kernels_also_match_at_test_scale_for_mcf_and_compress() {
    // Two representative kernels at the harness scale, as a deeper soak.
    for name in ["181.mcf", "129.compress"] {
        let w = fleaflicker::workloads::benchmark_by_name(name, Scale::Test).unwrap();
        check_workload(&w);
    }
}
