//! The warehouse query layer: run-vs-run CPI regression diffs and
//! Pareto frontier extraction over an experiment's rows.

use ff_core::{SimReport, StallCause};
use serde::Value;

/// Minimum absolute per-cause CPI increase that can count as a
/// regression, whatever the relative threshold says. Keeps noise in a
/// cause that contributes microscopic CPI (where a one-cycle wobble is
/// a huge *relative* change) from tripping the gate.
pub const CPI_NOISE_FLOOR: f64 = 0.0005;

/// One cause's (or the total's) CPI movement between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CauseDelta {
    /// Cause label (`load.mem`, …) or `total`.
    pub cause: String,
    /// CPI contribution in run A (the baseline).
    pub cpi_a: f64,
    /// CPI contribution in run B (the candidate).
    pub cpi_b: f64,
    /// `cpi_b - cpi_a`.
    pub delta: f64,
    /// Relative change `delta / cpi_a` (`+inf` when A contributed
    /// nothing and B does).
    pub rel: f64,
    /// Whether this row exceeds the regression threshold.
    pub regression: bool,
}

/// The full A-vs-B comparison: one row per refined stall cause plus a
/// total row.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Relative regression threshold the rows were judged against.
    pub threshold: f64,
    /// Whole-run CPI movement.
    pub total: CauseDelta,
    /// Per-cause movements, in cause-index order.
    pub causes: Vec<CauseDelta>,
}

impl DiffReport {
    /// True when any cause (or the total) regressed beyond the
    /// threshold — the condition under which `ff_report diff` exits
    /// nonzero.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.total.regression || self.causes.iter().any(|c| c.regression)
    }
}

fn delta(cause: &str, cpi_a: f64, cpi_b: f64, threshold: f64) -> CauseDelta {
    let d = cpi_b - cpi_a;
    let rel = if cpi_a > 0.0 {
        d / cpi_a
    } else if d > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    CauseDelta {
        cause: cause.to_string(),
        cpi_a,
        cpi_b,
        delta: d,
        rel,
        regression: rel > threshold && d > CPI_NOISE_FLOOR,
    }
}

/// Compares two runs cause by cause: a row regresses when its CPI grew
/// by more than `threshold` relative to run A *and* by more than
/// [`CPI_NOISE_FLOOR`] in absolute terms.
#[must_use]
pub fn diff_reports(a: &SimReport, b: &SimReport, threshold: f64) -> DiffReport {
    let causes = StallCause::ALL
        .iter()
        .map(|&cause| delta(cause.label(), a.cause_cpi(cause), b.cause_cpi(cause), threshold))
        .collect();
    DiffReport { threshold, total: delta("total", a.cpi(), b.cpi(), threshold), causes }
}

/// One point of a parameter grid, scored for Pareto extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Frontier group — `benchmark` (plus `/model` when the rows carry
    /// one); frontiers are computed within a group.
    pub group: String,
    /// Structure cost (the swept parameter's value, e.g. queue size).
    pub cost: f64,
    /// Performance score: IPC when the rows carry `retired`, otherwise
    /// inverse megacycles (`1e6 / cycles`) — higher is better either way.
    pub perf: f64,
    /// Total cycles, echoed for display.
    pub cycles: u64,
    /// Set by [`mark_frontier`]: no other point in the group has both
    /// lower-or-equal cost and higher-or-equal performance.
    pub on_frontier: bool,
}

fn field_f64(row: &Value, name: &str) -> Option<f64> {
    row.get(name).and_then(Value::as_f64)
}

/// Scores an experiment's rows (as `ff_exp <name> --json` prints them)
/// for Pareto extraction, using `cost_field` (a numeric row field, e.g.
/// `size`) as the structure-cost axis.
///
/// # Errors
///
/// Returns a message when `rows` is not an array of objects or a row
/// lacks `cost_field`/`cycles`.
pub fn sweep_points(rows: &Value, cost_field: &str) -> Result<Vec<ParetoPoint>, String> {
    let Value::Array(rows) = rows else {
        return Err("the experiment's rows must be an array".to_string());
    };
    let mut points = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let cost = field_f64(row, cost_field)
            .ok_or_else(|| format!("row {i}: no numeric field `{cost_field}`"))?;
        let cycles = field_f64(row, "cycles").ok_or_else(|| format!("row {i}: no `cycles`"))?;
        if cycles <= 0.0 {
            return Err(format!("row {i}: non-positive cycles"));
        }
        let perf = match field_f64(row, "retired") {
            Some(retired) => retired / cycles,
            None => 1.0e6 / cycles,
        };
        let mut group = row.get("benchmark").and_then(Value::as_str).unwrap_or("all").to_string();
        if let Some(model) = row.get("model").and_then(Value::as_str) {
            group.push('/');
            group.push_str(model);
        }
        points.push(ParetoPoint { group, cost, perf, cycles: cycles as u64, on_frontier: false });
    }
    Ok(points)
}

/// Marks, within each group, the points on the Pareto frontier of
/// (minimize cost, maximize perf). A point is dominated when another
/// point in its group is at least as good on both axes and strictly
/// better on one.
pub fn mark_frontier(points: &mut [ParetoPoint]) {
    for i in 0..points.len() {
        let p = &points[i];
        let dominated = points.iter().enumerate().any(|(j, q)| {
            j != i
                && q.group == p.group
                && q.cost <= p.cost
                && q.perf >= p.perf
                && (q.cost < p.cost || q.perf > p.perf)
        });
        points[i].on_frontier = !dominated;
    }
}
