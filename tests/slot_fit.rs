//! The static slot-fit table against the walk it replaces: for every pc
//! of every paper kernel and every group length up to the issue width,
//! `DecodedProgram::fit` must equal `fitting_prefix_classes` over the
//! pc-consecutive group — under the paper's slots, with no memory slot,
//! and at issue width 1.

use fleaflicker::core::decoded::DecodedProgram;
use fleaflicker::core::exec_common::fitting_prefix_classes;
use fleaflicker::core::{FuSlots, MachineConfig};
use fleaflicker::isa::Program;
use fleaflicker::workloads::{paper_benchmarks, random::random_program, Scale};

fn configs() -> Vec<(&'static str, MachineConfig)> {
    let table1 = MachineConfig::paper_table1();
    let mut no_mem = table1.clone();
    no_mem.fu_slots = FuSlots { mem: 0, ..table1.fu_slots };
    let mut narrow = table1.clone();
    narrow.issue_width = 1;
    vec![("table1", table1), ("mem=0", no_mem), ("issue_width=1", narrow)]
}

fn check(name: &str, program: &Program) {
    let fus: Vec<_> = program.iter().map(|insn| insn.op.fu_class()).collect();
    for (label, cfg) in configs() {
        let code = DecodedProgram::new(program, &cfg);
        for pc in 0..fus.len() {
            for len in 1..=cfg.issue_width.min(fus.len() - pc) {
                let walk = fitting_prefix_classes(
                    fus[pc..pc + len].iter().copied(),
                    &cfg.fu_slots,
                    cfg.issue_width,
                );
                assert_eq!(
                    code.fit(pc, len),
                    walk,
                    "{name} under {label}: group of {len} at pc {pc}",
                );
            }
        }
    }
}

#[test]
fn slot_fit_table_matches_the_walk_on_every_kernel() {
    for w in paper_benchmarks(Scale::Tiny) {
        check(w.name, &w.program);
    }
}

#[test]
fn slot_fit_table_matches_the_walk_on_random_programs() {
    for seed in 0..50 {
        let (program, _) = random_program(seed, &Default::default());
        check(&format!("random seed {seed}"), &program);
    }
}
