//! End-to-end sweep acceptance tests over the experiment registry: every
//! experiment must produce byte-identical JSON whether it runs serial or
//! parallel, cold or from a warm cache (which re-simulates nothing), and
//! every experiment must have a committed `results/<name>.txt`.

use std::path::{Path, PathBuf};

use ff_bench::experiments::{find, REGISTRY};
use ff_bench::sweep::SweepOpts;
use ff_workloads::Scale;

fn temp_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-grid-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(dir: &Path, jobs: usize, cache: bool) -> SweepOpts {
    SweepOpts {
        scale: Scale::Tiny,
        json: true,
        jobs,
        cache,
        filter: None,
        cache_dir: dir.to_path_buf(),
        fast_forward: true,
    }
}

/// Every experiment's rendered tables, too, are pinned: the text each
/// one prints at tiny scale, concatenated in registry order, must match
/// `golden/experiments_tiny.txt` line for line.
#[test]
fn every_experiment_is_deterministic_across_jobs_and_cache() {
    let mut rendered = String::new();
    for experiment in REGISTRY {
        let name = experiment.name();
        let dir = temp_cache(name);
        // Serial, cold cache: simulates and populates the cache.
        let cold = experiment.run(&opts(&dir, 1, true));
        assert_eq!(cold.stats.cached, 0, "{name}");
        // Parallel, warm cache: nothing re-simulated, same bytes.
        let warm = experiment.run(&opts(&dir, 8, true));
        assert_eq!(warm.stats.computed, 0, "warm-cache {name} must re-simulate nothing");
        assert_eq!(warm.stats.cached, cold.stats.computed, "{name}");
        assert_eq!(cold.text, warm.text, "{name}: jobs=1 cold and jobs=8 warm JSON differ");
        let text = experiment.run(&SweepOpts { json: false, ..opts(&dir, 8, true) });
        assert_eq!(text.stats.computed, 0, "warm-cache {name} text must re-simulate nothing");
        rendered.push_str(&text.text);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let golden = include_str!("golden/experiments_tiny.txt");
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "tests/golden/experiments_tiny.txt line {} drifted", i + 1);
    }
    assert_eq!(rendered, golden, "rendered experiments differ from the golden file in length");
}

#[test]
fn fig6_is_identical_without_cache_and_without_fast_forward() {
    let dir = temp_cache("fig6-nocache");
    let fig6 = find("fig6").expect("fig6 is registered");
    let serial = fig6.run(&opts(&dir, 1, false));
    assert!(serial.stats.computed > 0);

    // Parallel with the cache disabled: every cell re-simulated on many
    // threads, yet the JSON must match the serial run byte for byte.
    let parallel = fig6.run(&opts(&dir, 8, false));
    assert_eq!(parallel.stats.computed, serial.stats.computed);
    assert_eq!(serial.text, parallel.text, "jobs=1 and jobs=8 fig6 JSON must be byte-identical");

    // Per-cycle engine (`--no-fast-forward`), cache disabled: the
    // event-driven fast-forward must be invisible in the output.
    let per_cycle = fig6.run(&SweepOpts { fast_forward: false, ..opts(&dir, 8, false) });
    assert_eq!(serial.text, per_cycle.text, "fast-forward on/off fig6 JSON must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ablate_predictor_is_filtered_by_kernel_name() {
    let dir = temp_cache("predictor-filter");
    let predictor = find("ablate_predictor").expect("ablate_predictor is registered");
    let opts = SweepOpts { filter: Some("mcf-like".to_string()), ..opts(&dir, 2, false) };
    let run = predictor.run(&opts);
    assert_eq!(run.stats.grid - run.stats.filtered_out, 5, "one cell per predictor");
    assert_eq!(run.stats.computed, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_names_match_the_committed_results_exactly() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut stems: Vec<String> = std::fs::read_dir(&results)
        .expect("results/ directory")
        .filter_map(|e| {
            let path = e.ok()?.path();
            (path.extension()? == "txt").then(|| path.file_stem()?.to_str().map(String::from))?
        })
        .collect();
    stems.sort();
    let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name()).collect();
    names.sort_unstable();
    assert_eq!(stems, names, "every experiment needs a results/<name>.txt, and vice versa");
}
