//! Integration tests for the shared sweep engine on real tiny runs:
//! deterministic ordering under any `--jobs`, per-run panic isolation,
//! the content-keyed run cache, and `--filter`.

use std::path::{Path, PathBuf};

use ff_bench::sweep::{run_sweep, Cell, Run, RunStore, SweepOpts};
use ff_core::{MachineConfig, ModelKind};
use ff_workloads::{paper_benchmarks, Scale};

#[derive(Debug, Clone, PartialEq)]
struct Row {
    kernel: String,
    model: String,
    cycles: u64,
}

/// A fresh, empty cache directory unique to this test process + name.
fn temp_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-sweep-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(jobs: usize, cache_dir: &Path, cache: bool) -> SweepOpts {
    SweepOpts {
        scale: Scale::Tiny,
        json: false,
        jobs,
        cache,
        filter: None,
        cache_dir: cache_dir.to_path_buf(),
        fast_forward: true,
    }
}

/// A cell reading one run of `kernel` on `model` of machine `config`.
fn cell(kernel: &'static str, model: ModelKind, config: MachineConfig) -> Cell<Row> {
    Cell::new(vec![Run { kernel, model, config }], move |r| Row {
        kernel: kernel.to_string(),
        model: r[0].model.to_string(),
        cycles: r[0].cycles,
    })
}

/// Every paper kernel on the base and the two-pass machine of Table 1:
/// 20 cells of one run each.
fn grid() -> Vec<Cell<Row>> {
    let mut cells = Vec::new();
    for w in paper_benchmarks(Scale::Tiny) {
        for model in [ModelKind::Baseline, ModelKind::TwoPass] {
            cells.push(cell(w.name, model, MachineConfig::paper_table1()));
        }
    }
    cells
}

#[test]
fn result_order_is_grid_order_for_any_job_count() {
    let dir = temp_cache("order");
    let mut runs = Vec::new();
    for jobs in [1, 3, 8] {
        let run =
            run_sweep("order-test", &opts(jobs, &dir, false), &mut RunStore::default(), grid());
        assert_eq!((run.stats.runs, run.stats.computed), (20, 20));
        runs.push(run.into_rows());
    }
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
    let names: Vec<&str> = paper_benchmarks(Scale::Tiny).iter().map(|w| w.name).collect();
    for (i, row) in runs[0].iter().enumerate() {
        assert_eq!(row.kernel, names[i / 2]);
        assert_eq!(row.model, ["base", "2P"][i % 2]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicking_run_fails_only_the_cells_that_read_it() {
    let dir = temp_cache("panic");
    // A zero-entry coupling queue panics the two-pass machine.
    let broken = MachineConfig {
        two_pass: ff_core::TwoPassConfig { queue_size: 0, ..Default::default() },
        ..MachineConfig::paper_table1()
    };
    let mut cells = grid();
    cells.insert(2, cell("mcf-like", ModelKind::TwoPass, broken.clone()));
    let table1 = MachineConfig::paper_table1();
    let both = vec![
        Run { kernel: "mcf-like", model: ModelKind::Baseline, config: table1 },
        Run { kernel: "mcf-like", model: ModelKind::TwoPass, config: broken },
    ];
    cells.push(Cell::new(both, |r| Row {
        kernel: String::new(),
        model: String::new(),
        cycles: r[1].cycles,
    }));
    let run = run_sweep("panic-test", &opts(4, &dir, false), &mut RunStore::default(), cells);
    assert_eq!((run.stats.runs, run.stats.computed, run.stats.failed), (21, 20, 1));
    for i in [2, 21] {
        assert_eq!(run.cells[i].kernel, "mcf-like");
        assert!(run.cells[i].outcome.as_ref().is_err_and(|m| !m.is_empty()), "cell {i}");
    }
    // Surviving rows still come out in grid order.
    let rows = run.into_rows();
    assert_eq!(
        rows,
        run_sweep("panic-test", &opts(1, &dir, false), &mut RunStore::default(), grid())
            .into_rows()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_store_and_the_disk_cache_each_spare_every_simulation() {
    let dir = temp_cache("warm");
    let cold = run_sweep("cache-test", &opts(2, &dir, true), &mut RunStore::default(), grid());
    assert_eq!((cold.stats.computed, cold.stats.cached), (20, 0));
    assert_eq!((cold.stats.cache_hits(), cold.stats.cache_misses()), (0, 20));

    // A fresh store loads every run from disk.
    let mut store = RunStore::default();
    let warm = run_sweep("cache-test", &opts(2, &dir, true), &mut store, grid());
    assert_eq!((warm.stats.computed, warm.stats.cached), (0, 20), "warm run must be all-cached");
    assert_eq!((warm.stats.cache_hits(), warm.stats.cache_misses()), (20, 0));
    // The same store again needs neither the disk nor the simulator.
    let again = run_sweep("cache-test", &opts(2, &dir, true), &mut store, grid());
    assert_eq!((again.stats.computed, again.stats.cached, again.stats.cache_hits()), (0, 0, 20));
    let rows = cold.into_rows();
    assert_eq!(rows, warm.into_rows());
    assert_eq!(rows, again.into_rows());

    // --no-cache bypasses the warm cache entirely.
    let bypass = run_sweep("cache-test", &opts(2, &dir, false), &mut RunStore::default(), grid());
    assert_eq!((bypass.stats.computed, bypass.stats.cached), (20, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_cache_is_keyed_by_the_run_not_by_the_experiment() {
    let dir = temp_cache("keyed");
    let one = |config| vec![cell("gap-like", ModelKind::TwoPass, config)];
    let table1 = MachineConfig::paper_table1();
    let run = |experiment: &str, o: &SweepOpts, config: MachineConfig| {
        run_sweep(experiment, o, &mut RunStore::default(), one(config)).stats
    };
    let o = opts(1, &dir, true);
    assert_eq!(run("exp-a", &o, table1.clone()).computed, 1);
    // The same run read by another experiment: a cache hit.
    assert_eq!(run("exp-b", &o, table1.clone()).cached, 1);
    // Fast-forward never changes a report, so it is not part of the key.
    let per_cycle = MachineConfig { fast_forward: false, ..table1.clone() };
    assert_eq!(run("exp-b", &o, per_cycle).cached, 1);
    // Another machine or another scale: a miss.
    let mut small_queue = table1.clone();
    small_queue.two_pass.queue_size = 32;
    assert_eq!(run("exp-a", &o, small_queue).computed, 1);
    assert_eq!(
        run("exp-a", &SweepOpts { scale: Scale::Test, ..o.clone() }, table1.clone()).computed,
        1
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filter_matches_kernel_or_model_globs() {
    let dir = temp_cache("filter");
    let run_with = |pat: &str| {
        let o = SweepOpts { filter: Some(pat.to_string()), ..opts(2, &dir, false) };
        run_sweep("filter-test", &o, &mut RunStore::default(), grid())
    };
    let none = run_with("mcf[-]like"); // no character classes: literal, matches nothing
    assert_eq!((none.stats.filtered_out, none.stats.runs), (20, 0));
    let by_kernel = run_with("mcf-like");
    assert_eq!((by_kernel.stats.filtered_out, by_kernel.stats.computed), (18, 2));
    let by_model = run_with("2P");
    assert_eq!(by_model.stats.filtered_out, 10);
    assert!(by_model.into_rows().iter().all(|r| r.model == "2P"));
    let by_glob = run_with("*-like");
    assert_eq!(by_glob.stats.filtered_out, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
