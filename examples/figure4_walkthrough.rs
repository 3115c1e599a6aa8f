//! The paper's Figure 4, reconstructed from a live pipeline trace.
//!
//! Figure 4 walks the 181.mcf loop of Figure 1 through the two-pass
//! machine: a load misses in the A-pipe, its dependent instructions are
//! deferred and marked in the coupling queue, independent instructions
//! (and further misses) keep issuing, and the B-pipe later re-executes
//! the deferred work as results arrive. This example runs the mcf-like
//! kernel with tracing enabled and draws its first two loop iterations
//! with `ff_bench::traceview::pipeview`, one row per instruction and one
//! column per cycle: first where the A-pipe dispatches them, then where
//! the B-pipe merges them.
//!
//! ```text
//! cargo run --release --example figure4_walkthrough
//! ```

use ff_bench::traceview::{lifecycles, pipeview, PipeviewOpts};
use fleaflicker::core::{MachineConfig, TwoPass};
use fleaflicker::workloads::{benchmark_by_name, Scale};

fn main() {
    let w = benchmark_by_name("181.mcf", Scale::Tiny).expect("mcf-like is built in");
    let (report, trace) = TwoPass::new(&w.program, w.memory.clone(), MachineConfig::paper_table1())
        .run_traced(w.budget);

    println!(
        "mcf-like on the two-pass machine: {} cycles, {} retired\n",
        report.cycles, report.retired
    );
    println!("program (one loop iteration starts at the `ld8 r10 = ...` group):\n");
    for (pc, insn) in w.program.iter().enumerate().take(20) {
        println!("  {pc:>3}: {insn}");
    }

    // The first two loop iterations: the 13-instruction body starts at
    // pc 5, which is also the sequence number of its first instance.
    let seq_from = 5;
    let head = lifecycles(trace.events())
        .into_iter()
        .find(|f| f.seq == seq_from && f.retire.is_some())
        .expect("the first instruction of the window retires");
    let window = |from: u64| PipeviewOpts { from, to: from + 64, seq_from, seq_to: seq_from + 25 };
    println!("\nthe A-pipe dispatches two iterations:\n");
    print!("{}", pipeview(trace.events(), window(head.first_cycle())));
    println!("\nthe B-pipe merges them:\n");
    print!("{}", pipeview(trace.events(), window(head.last_cycle().saturating_sub(8))));
    println!(
        "\nReading it like Figure 4: the A-pipe keeps dispatching past the misses of the\n\
         arc-field loads (A) and defers the node loads and flow updates that need their\n\
         results (d); every instruction then waits in the coupling queue (q). The B-pipe\n\
         merges pre-executed results (R), executes deferred work for the first time (B),\n\
         and stalls again at the next deferred load that misses."
    );
}
