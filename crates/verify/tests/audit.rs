//! Per-cycle invariant auditing, compiled only under the `audit`
//! feature (`cargo test -p ff-verify --features audit`). The hooks live
//! inside `ff-core` and panic on the first violation, so "the
//! simulation completes" is the assertion: coupling-queue FIFO
//! discipline, A-pipe isolation from B-visible state, scoreboard latency
//! accounting, and — on every model — the legality of each
//! fast-forwarded span all held.
#![cfg(feature = "audit")]

use ff_core::{run_model, MachineConfig, ModelKind};
use ff_verify::differential_oracle;
use ff_workloads::random::{random_program, GeneratorConfig};
use ff_workloads::Scale;

#[test]
fn kernels_pass_audited_models() {
    for w in ff_workloads::paper_benchmarks(Scale::Tiny) {
        for kind in ModelKind::ALL {
            let cfg = MachineConfig::paper_table1();
            let (report, _, _) = run_model(kind, &w.program, w.memory.clone(), cfg, w.budget, None);
            assert!(report.retired > 0, "{} retired nothing on {kind}", w.name);
        }
    }
}

#[test]
fn random_programs_pass_audited_oracle() {
    let cfg = MachineConfig::paper_table1();
    let gen_cfg = GeneratorConfig::default();
    for seed in 0..25 {
        let (program, mem) = random_program(seed, &gen_cfg);
        let report = differential_oracle(&program, &mem, &cfg, 500_000);
        assert!(report.ok(), "seed {seed}: {:?}", report.failures);
    }
}
