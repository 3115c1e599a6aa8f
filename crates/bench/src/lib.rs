//! # ff-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation, each
//! one entry of [`experiments::REGISTRY`] run by name through `ff_exp`:
//!
//! | target | paper content |
//! |---|---|
//! | `cargo run -p ff-bench --bin ff_exp -- table1` | Table 1 — machine configuration |
//! | `cargo run -p ff-bench --bin ff_exp -- table2` | Table 2 — benchmarks and dynamic instruction counts |
//! | `cargo run -p ff-bench --bin ff_exp -- fig6` | Figure 6 — normalized cycles, six-class breakdown, base/2P/2Pre |
//! | `cargo run -p ff-bench --bin ff_exp -- fig7` | Figure 7 — initiated access cycles by pipe and level |
//! | `cargo run -p ff-bench --bin ff_exp -- fig8` | Figure 8 — B→A feedback-latency sweep |
//! | `cargo run -p ff-bench --bin ff_exp -- branch_stats` | §4 — misprediction split across A-DET/B-DET |
//! | `cargo run -p ff-bench --bin ff_exp -- conflict_stats` | §4 — store-conflict rates for risky loads |
//! | `cargo run -p ff-bench --bin ff_exp -- ablate_queue` | §3.1 — coupling-queue size sensitivity |
//! | `cargo run -p ff-bench --bin ff_exp -- ablate_fp_stall` | §4 — stall-on-anticipable-FP policy (vpr fix) |
//! | `cargo run -p ff-bench --bin ff_exp -- ablate_predictor` | predictor sensitivity sweep |
//! | `cargo run -p ff-bench --bin ff_exp -- ablate_throttle` | §3.5 — A-pipe issue moderation |
//! | `cargo run -p ff-bench --bin ff_exp -- runahead_compare` | §2 — idealized runahead comparison |
//! | `cargo run -p ff-bench --bin ff_trace` | record + analyze JSONL pipeline traces (see [`traceview`]) |
//! | `cargo run -p ff-bench --bin ff_report` | run warehouse, regression diffs, HTML dashboard (see [`report`]) |
//! | `cargo run -p ff-bench --bin ff_report -- perf` | simulator self-profiling / perf trajectory (see [`selfprof`]) |
//! | `cargo run -p ff-bench --bin ff_verify` | static legality, cycle bounds and the differential oracle (see [`ff_verify`]) |
//!
//! Every experiment runs its grid through the shared [`sweep`] engine:
//! cells fan out across all cores (`--jobs N|max`), completed cells are
//! cached as warehouse records under `results/cache/` (`--no-cache` to
//! disable), the grid can be narrowed with `--filter <glob>`, and
//! `--scale tiny|test|ref` (or the bare positional) picks the workload
//! scale. `--json` emits machine-readable rows — byte-identical for any
//! `--jobs` value. Run under `--release`; the harness simulates
//! millions of cycles.
//!
//! Every binary reads its arguments through [`cli`]: one declarative
//! spec per command, one usage text, and exit status 2 on a malformed
//! command line.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod fmt;
pub mod report;
pub mod selfprof;
pub mod sweep;
pub mod traceview;
