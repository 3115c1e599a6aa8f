//! Cross-run results warehouse, query/diff layer, and static HTML
//! dashboard — the read side of the future `ff-serve` result store.
//!
//! * [`warehouse`] — a versioned on-disk store of golden and cached
//!   run [`ff_core::SimReport`]s, plus the append-only sweep
//!   invocation log;
//! * [`query`] — run-vs-run per-cause CPI regression diffs and Pareto
//!   frontier extraction over an experiment's rows;
//! * [`html`] — the self-contained, byte-deterministic dashboard.
//!
//! The `ff_report` binary is the CLI over all three.

pub mod html;
pub mod query;
pub mod warehouse;

pub use html::{
    compute_bounds_rows, golden_entries, render_dashboard, BoundsRow, DashboardData, Golden,
};
pub use query::{
    diff_reports, mark_frontier, sweep_points, CauseDelta, DiffReport, ParetoPoint, CPI_NOISE_FLOOR,
};
pub use warehouse::{
    content_hash, golden_record, runs_dir_for, RunRecord, SweepLogEntry, Warehouse,
    DEFAULT_RUNS_DIR, KIND_GOLDEN, KIND_RUN, WAREHOUSE_VERSION,
};
