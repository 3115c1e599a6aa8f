//! Static HTML dashboard generator: one self-contained file, no
//! external assets or scripts, rendered from the run warehouse, the
//! rows of Figures 6 and 7, and the perf snapshots.
//!
//! Determinism is a hard requirement (CI byte-compares two renders):
//! every collection is iterated in sorted order, every float is
//! printed with fixed precision, and nothing is ever read from the
//! clock — the only timestamp on the page is the caller-supplied
//! `generated_at` string.
//!
//! The palette is a validated categorical set (six class slots plus a
//! single-hue ordinal ramp for cache levels); light and dark values
//! are swapped by CSS custom properties, values and labels stay in
//! ink tokens, and every chart ships its data table.

use crate::report::warehouse::{RunRecord, SweepLogEntry, KIND_GOLDEN};
use crate::selfprof::PerfSnapshot;
use ff_core::{CycleClass, SimReport, StallCause};
use ff_mem::MemLevel;
use serde::{Deserialize, Value};
use std::fmt::Write as _;

/// Everything one dashboard render consumes.
#[derive(Debug)]
pub struct DashboardData<'a> {
    /// All warehouse records (any order; the renderer sorts).
    pub records: &'a [RunRecord],
    /// The golden records' reports, from [`golden_entries`].
    pub goldens: &'a [Golden],
    /// Scale label of the [`Self::fig6`] and [`Self::fig7`] rows.
    pub scale: &'a str,
    /// Figure 6 rows, as `ff_exp fig6 --json` prints them. Anything
    /// but an array renders no panel.
    pub fig6: &'a Value,
    /// Figure 7 rows, as `ff_exp fig7 --json` prints them. Anything
    /// but an array renders no panel.
    pub fig7: &'a Value,
    /// Sweep invocation history for the hit-rate panel.
    pub sweep_log: &'a [SweepLogEntry],
    /// Perf snapshots as `(file stem, snapshot)`, e.g. from
    /// `perf/BENCH_*.json`.
    pub perf: &'a [(String, PerfSnapshot)],
    /// Static cycle lower bounds vs. measured cycles per kernel, e.g.
    /// from [`compute_bounds_rows`]. Empty renders a placeholder.
    pub bounds: &'a [BoundsRow],
    /// Rendered verbatim in the header; pass a fixed string for
    /// byte-reproducible output. Never derived from the clock.
    pub generated_at: Option<&'a str>,
}

/// One kernel's static lower bound beside its measured cycle counts,
/// for the bounds panel.
#[derive(Debug, Clone)]
pub struct BoundsRow {
    /// Kernel name, e.g. `"mcf-like"`.
    pub kernel: String,
    /// Dynamic instructions the bound reasons about.
    pub retired: u64,
    /// All-hit dependence-height bound.
    pub dep_height: u64,
    /// Issue-width / FU-slot resource bound.
    pub resource_bound: u64,
    /// `max(dep_height, resource_bound)` — the sound floor.
    pub lower_bound: u64,
    /// `(model label, measured cycles)` in fixed model order.
    pub measured: Vec<(&'static str, u64)>,
}

/// Computes [`BoundsRow`]s for the whole Table 2 suite at `Scale::Tiny`
/// under the Table 1 machine: the `ff-verify` static lower bound plus a
/// fresh run of all four pipeline models. Deterministic.
#[must_use]
pub fn compute_bounds_rows() -> Vec<BoundsRow> {
    let cfg = ff_core::MachineConfig::paper_table1();
    ff_workloads::paper_benchmarks(ff_workloads::Scale::Tiny)
        .iter()
        .map(|w| {
            let (b, measured) =
                ff_verify::bounds_vs_measured(&w.program, &w.memory, &cfg, w.budget);
            BoundsRow {
                kernel: w.name.to_string(),
                retired: b.retired,
                dep_height: b.dep_height_all_hit,
                resource_bound: b.resource_bound(),
                lower_bound: b.lower_bound(),
                measured,
            }
        })
        .collect()
}

const BAR_W: f64 = 420.0;
const LABEL_W: f64 = 170.0;
const VALUE_W: f64 = 60.0;
const BAR_H: f64 = 16.0;
const ROW_H: f64 = 22.0;
const TOP_PAD: f64 = 6.0;

/// Escapes text for HTML/SVG bodies and double-quoted attributes.
#[must_use]
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

fn f3(x: f64) -> String {
    format!("{x:.3}")
}

fn pct1(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Human-readable rate: `12.3M`, `45k`, `987`.
fn human_rate(x: f64) -> String {
    if x >= 1.0e6 {
        format!("{:.1}M", x / 1.0e6)
    } else if x >= 1.0e3 {
        format!("{:.0}k", x / 1.0e3)
    } else {
        format!("{x:.0}")
    }
}

fn meta_get<'r>(rec: &'r RunRecord, name: &str) -> &'r str {
    rec.meta.iter().find(|(k, _)| k == name).map_or("", |(_, v)| v.as_str())
}

/// One stacked-bar row: label, segments as `(width_px, css_color,
/// tooltip)`, and a trailing value label. Segments are drawn with a
/// 1px inset on each side so adjacent fills keep a 2px surface gap.
struct BarRow {
    label: String,
    sublabel: bool,
    segments: Vec<(f64, &'static str, String)>,
    value: String,
}

/// Renders rows into one `<svg>` block, with an optional vertical
/// reference line at `ref_x` pixels into the bar area.
fn bar_chart(rows: &[BarRow], ref_x: Option<f64>) -> String {
    let height = TOP_PAD * 2.0 + rows.len() as f64 * ROW_H;
    let width = LABEL_W + BAR_W + VALUE_W;
    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg class=\"chart\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\" role=\"img\">"
    );
    // Baseline of the bar area.
    let _ = write!(
        svg,
        "<line x1=\"{LABEL_W:.1}\" y1=\"{TOP_PAD:.1}\" x2=\"{LABEL_W:.1}\" \
         y2=\"{:.1}\" stroke=\"var(--baseline)\" stroke-width=\"1\"/>",
        height - TOP_PAD
    );
    if let Some(rx) = ref_x {
        let x = LABEL_W + rx;
        let _ = write!(
            svg,
            "<line x1=\"{x:.1}\" y1=\"{TOP_PAD:.1}\" x2=\"{x:.1}\" y2=\"{:.1}\" \
             stroke=\"var(--grid)\" stroke-width=\"1\" stroke-dasharray=\"3 3\"/>",
            height - TOP_PAD
        );
    }
    for (i, row) in rows.iter().enumerate() {
        let y = TOP_PAD + i as f64 * ROW_H;
        let bar_y = y + (ROW_H - BAR_H) / 2.0;
        let text_y = y + ROW_H / 2.0 + 3.5;
        let class = if row.sublabel { "lbl sub" } else { "lbl" };
        let anchor_x = LABEL_W - 8.0;
        let _ = write!(
            svg,
            "<text x=\"{anchor_x:.1}\" y=\"{text_y:.1}\" text-anchor=\"end\" \
             class=\"{class}\">{}</text>",
            esc(&row.label)
        );
        let mut x = LABEL_W;
        for (w, color, tip) in &row.segments {
            if *w <= 0.0 {
                continue;
            }
            let seg_x = x + 1.0;
            let seg_w = (w - 2.0).max(0.5);
            let _ = write!(
                svg,
                "<rect x=\"{seg_x:.1}\" y=\"{bar_y:.1}\" width=\"{seg_w:.1}\" \
                 height=\"{BAR_H:.1}\" fill=\"{color}\"><title>{}</title></rect>",
                esc(tip)
            );
            x += w;
        }
        let _ = write!(
            svg,
            "<text x=\"{:.1}\" y=\"{text_y:.1}\" class=\"val\">{}</text>",
            x + 6.0,
            esc(&row.value)
        );
    }
    svg.push_str("</svg>");
    svg
}

fn legend(items: &[(&'static str, String)]) -> String {
    let mut out = String::from("<div class=\"legend\">");
    for (color, label) in items {
        let _ = write!(
            out,
            "<span class=\"chip\"><span class=\"swatch\" style=\"background:{color}\"></span>{}</span>",
            esc(label)
        );
    }
    out.push_str("</div>");
    out
}

const CLASS_COLORS: [&str; 6] =
    ["var(--c1)", "var(--c2)", "var(--c3)", "var(--c4)", "var(--c5)", "var(--c6)"];
const LEVEL_COLORS: [&str; 4] = ["var(--seq1)", "var(--seq2)", "var(--seq3)", "var(--seq4)"];

fn class_legend() -> String {
    let items: Vec<(&'static str, String)> = CycleClass::ALL
        .iter()
        .enumerate()
        .map(|(i, c)| (CLASS_COLORS[i], c.label().to_string()))
        .collect();
    legend(&items)
}

// ---- golden CPI stacks --------------------------------------------------

/// One golden capture as the CPI-stack panel shows it.
#[derive(Debug)]
pub struct Golden {
    /// `kernel · model · scale`, then ` · params` if any.
    label: String,
    report: SimReport,
}

/// Parses the golden records among `records`, in key order.
///
/// # Errors
///
/// Returns `parse <key>: <error>` for a golden record whose payload is
/// not a [`SimReport`] of this build's layout.
pub fn golden_entries(records: &[RunRecord]) -> Result<Vec<Golden>, String> {
    let mut golden: Vec<&RunRecord> = records.iter().filter(|r| r.kind == KIND_GOLDEN).collect();
    golden.sort_by(|a, b| a.key.cmp(&b.key));
    let mut out = Vec::with_capacity(golden.len());
    for rec in golden {
        let report =
            SimReport::from_value(&rec.payload).map_err(|e| format!("parse {}: {e}", rec.key))?;
        let params = meta_get(rec, "params");
        let mut label = format!(
            "{} · {} · {}",
            meta_get(rec, "kernel"),
            meta_get(rec, "model"),
            meta_get(rec, "scale")
        );
        if !params.is_empty() {
            let _ = write!(label, " · {params}");
        }
        out.push(Golden { label, report });
    }
    Ok(out)
}

fn class_tooltip(r: &SimReport, class: CycleClass) -> String {
    let mut tip = format!("{}: {} CPI ({})", class.label(), f3(r.class_cpi(class)), {
        let total = r.breakdown.total();
        if total == 0 {
            pct1(0.0)
        } else {
            pct1(r.breakdown[class] as f64 / total as f64)
        }
    });
    let causes: Vec<String> = StallCause::ALL
        .iter()
        .filter(|c| c.class() == class && r.breakdown2[**c] > 0)
        .map(|c| format!("{} {}", c.label(), f3(r.cause_cpi(*c))))
        .collect();
    if !causes.is_empty() {
        let _ = write!(tip, " — {}", causes.join(", "));
    }
    tip
}

fn golden_panel(out: &mut String, entries: &[Golden]) {
    out.push_str("<section><h2>CPI stacks — captured golden runs</h2>");
    if entries.is_empty() {
        out.push_str(
            "<p class=\"note\">No golden runs captured yet — \
             <code>ff_report capture --bench NAME --model M</code>.</p></section>",
        );
        return;
    }
    let max_cpi = entries.iter().map(|g| g.report.cpi()).fold(0.0_f64, f64::max).max(1e-9);
    out.push_str(&class_legend());
    let rows: Vec<BarRow> = entries
        .iter()
        .map(|g| {
            let segments = CycleClass::ALL
                .iter()
                .enumerate()
                .map(|(i, &class)| {
                    let w = g.report.class_cpi(class) / max_cpi * BAR_W;
                    (w, CLASS_COLORS[i], class_tooltip(&g.report, class))
                })
                .collect();
            BarRow {
                label: g.label.clone(),
                sublabel: false,
                segments,
                value: format!("{} CPI", f3(g.report.cpi())),
            }
        })
        .collect();
    out.push_str(&bar_chart(&rows, None));
    // The table view: exact numbers for every bar (and the relief
    // channel for low-contrast light-mode slots).
    out.push_str(
        "<table><thead><tr><th>config</th><th>cycles</th><th>retired</th><th>IPC</th>\
         <th>CPI</th>",
    );
    for class in CycleClass::ALL {
        let _ = write!(out, "<th>{}</th>", class.label());
    }
    out.push_str("<th>L1D hit</th></tr></thead><tbody>");
    for g in entries {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>",
            esc(&g.label),
            g.report.cycles,
            g.report.retired,
            f3(g.report.ipc()),
            f3(g.report.cpi())
        );
        for class in CycleClass::ALL {
            let _ = write!(out, "<td>{}</td>", f3(g.report.class_cpi(class)));
        }
        let hit = g.report.hierarchy.l1_load_hit_rate().map_or_else(|| "-".to_string(), pct1);
        let _ = write!(out, "<td>{hit}</td></tr>");
    }
    out.push_str("</tbody></table></section>");
}

// ---- fig6 / fig7 sweep panels -------------------------------------------

fn row_str<'v>(row: &'v Value, name: &str) -> &'v str {
    row.get(name).and_then(Value::as_str).unwrap_or("")
}

fn row_f64(row: &Value, name: &str) -> f64 {
    row.get(name).and_then(Value::as_f64).unwrap_or(0.0)
}

fn row_f64_array(row: &Value, name: &str) -> Vec<f64> {
    row.get(name).map_or_else(Vec::new, f64_array)
}

/// A numeric array's entries (non-numbers read as 0); empty for a
/// non-array.
fn f64_array(v: &Value) -> Vec<f64> {
    match v {
        Value::Array(items) => items.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect(),
        _ => Vec::new(),
    }
}

fn fig6_panel(out: &mut String, rows: &Value, scale: &str) {
    let Value::Array(rows) = rows else { return };
    let _ = write!(
        out,
        "<section><h2>Figure 6 — normalized execution cycles ({} scale)</h2>",
        esc(scale)
    );
    out.push_str(&class_legend());
    let max_norm = rows.iter().map(|r| row_f64(r, "normalized")).fold(0.0_f64, f64::max).max(1e-9);
    let mut bars = Vec::new();
    let mut last_bench = String::new();
    for row in rows {
        let bench = row_str(row, "benchmark").to_string();
        let model = row_str(row, "model").to_string();
        let normalized = row_f64(row, "normalized");
        let fractions = row_f64_array(row, "class_fractions");
        let segments = CycleClass::ALL
            .iter()
            .enumerate()
            .map(|(i, class)| {
                let frac = fractions.get(i).copied().unwrap_or(0.0);
                let w = frac * normalized / max_norm * BAR_W;
                (w, CLASS_COLORS[i], format!("{}: {} of cycles", class.label(), pct1(frac)))
            })
            .collect();
        let is_group_head = bench != last_bench;
        let label = if is_group_head {
            last_bench.clone_from(&bench);
            format!("{bench} — {model}")
        } else {
            model.clone()
        };
        bars.push(BarRow { label, sublabel: !is_group_head, segments, value: f3(normalized) });
    }
    out.push_str(&bar_chart(&bars, Some(1.0 / max_norm * BAR_W)));
    out.push_str(
        "<table><thead><tr><th>benchmark</th><th>model</th><th>normalized</th>\
         <th>cycles</th><th>retired</th></tr></thead><tbody>",
    );
    for row in rows {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(row_str(row, "benchmark")),
            esc(row_str(row, "model")),
            f3(row_f64(row, "normalized")),
            row_f64(row, "cycles") as u64,
            row_f64(row, "retired") as u64,
        );
    }
    out.push_str("</tbody></table></section>");
}

fn fig7_panel(out: &mut String, rows: &Value, scale: &str) {
    let Value::Array(rows) = rows else { return };
    let _ = write!(
        out,
        "<section><h2>Figure 7 — initiated access cycles by pipe and level ({} scale)</h2>",
        esc(scale)
    );
    let items: Vec<(&'static str, String)> =
        MemLevel::ALL.iter().enumerate().map(|(i, l)| (LEVEL_COLORS[i], l.to_string())).collect();
    out.push_str(&legend(&items));
    // cells[pipe][level] per row; bars for every pipe that initiated
    // anything (the baseline's A-pipe row is all-zero and is skipped).
    let mut flat: Vec<(String, [f64; 4])> = Vec::new();
    let mut last_bench = String::new();
    for row in rows {
        let bench = row_str(row, "benchmark").to_string();
        let model = row_str(row, "model").to_string();
        let Some(Value::Array(pipes)) = row.get("cells") else { continue };
        for (pi, pipe_name) in ["A", "B"].iter().enumerate() {
            let levels: Vec<f64> = match pipes.get(pi) {
                Some(v) => f64_array(v),
                None => continue,
            };
            let total: f64 = levels.iter().sum();
            if total <= 0.0 {
                continue;
            }
            let mut cells = [0.0; 4];
            for (i, v) in levels.iter().take(4).enumerate() {
                cells[i] = *v;
            }
            let label = if bench == last_bench {
                format!("{model} · {pipe_name}")
            } else {
                last_bench.clone_from(&bench);
                format!("{bench} — {model} · {pipe_name}")
            };
            flat.push((label, cells));
        }
    }
    let max_total =
        flat.iter().map(|(_, c)| c.iter().sum::<f64>()).fold(0.0_f64, f64::max).max(1e-9);
    let bars: Vec<BarRow> = flat
        .iter()
        .map(|(label, cells)| {
            let total: f64 = cells.iter().sum();
            let segments = MemLevel::ALL
                .iter()
                .enumerate()
                .map(|(i, level)| {
                    let w = cells[i] / max_total * BAR_W;
                    (
                        w,
                        LEVEL_COLORS[i],
                        format!("{level}: {} access cycles ({})", cells[i] as u64, {
                            pct1(cells[i] / total.max(1e-9))
                        }),
                    )
                })
                .collect();
            BarRow {
                label: label.clone(),
                sublabel: false,
                segments,
                value: (total as u64).to_string(),
            }
        })
        .collect();
    out.push_str(&bar_chart(&bars, None));
    out.push_str(
        "<table><thead><tr><th>row</th><th>L1</th><th>L2</th><th>L3</th><th>Mem</th>\
         <th>total</th></tr></thead><tbody>",
    );
    for (label, cells) in &flat {
        let _ = write!(out, "<tr><td>{}</td>", esc(label));
        for c in cells {
            let _ = write!(out, "<td>{}</td>", *c as u64);
        }
        let _ = write!(out, "<td>{}</td></tr>", cells.iter().sum::<f64>() as u64);
    }
    out.push_str("</tbody></table></section>");
}

// ---- perf trajectory ----------------------------------------------------

fn perf_panel(out: &mut String, perf: &[(String, PerfSnapshot)]) {
    out.push_str("<section><h2>Simulator performance trajectory</h2>");
    if perf.is_empty() {
        out.push_str(
            "<p class=\"note\">No perf snapshots — run <code>ff_report perf</code>.</p>\
             </section>",
        );
        return;
    }
    let mut stems: Vec<&str> = perf.iter().map(|(s, _)| s.as_str()).collect();
    stems.sort_unstable();
    // Every section name seen in any snapshot, sorted.
    let mut sections: Vec<String> = Vec::new();
    for (_, snap) in perf {
        for s in &snap.sections {
            if !sections.contains(&s.name) {
                sections.push(s.name.clone());
            }
        }
    }
    sections.sort_unstable();
    let rate_of = |stem: &str, section: &str| -> Option<f64> {
        let (_, snap) = perf.iter().find(|(s, _)| s == stem)?;
        snap.sections.iter().find(|s| s.name == section).and_then(|s| s.instrs_per_sec())
    };
    let _ = write!(
        out,
        "<p class=\"note\">Simulated instructions per host second across {} snapshots \
         ({} … {}).</p>",
        stems.len(),
        esc(stems.first().copied().unwrap_or("")),
        esc(stems.last().copied().unwrap_or(""))
    );
    out.push_str("<div class=\"sparks\">");
    const SW: f64 = 200.0;
    const SH: f64 = 36.0;
    const SP: f64 = 4.0;
    for section in &sections {
        let points: Vec<(String, f64)> = stems
            .iter()
            .filter_map(|stem| rate_of(stem, section).map(|r| ((*stem).to_string(), r)))
            .collect();
        if points.is_empty() {
            continue;
        }
        let lo = points.iter().map(|(_, r)| *r).fold(f64::INFINITY, f64::min);
        let hi = points.iter().map(|(_, r)| *r).fold(0.0_f64, f64::max);
        let span = (hi - lo).max(hi * 0.01).max(1e-9);
        let xy = |i: usize, r: f64| -> (f64, f64) {
            let x = if points.len() == 1 {
                SW / 2.0
            } else {
                SP + i as f64 / (points.len() - 1) as f64 * (SW - 2.0 * SP)
            };
            let y = SH - SP - (r - lo) / span * (SH - 2.0 * SP);
            (x, y)
        };
        let mut tip = format!("{section} (instrs/sec)");
        for (stem, r) in &points {
            let _ = write!(tip, "\n{stem}: {}", human_rate(*r));
        }
        let _ =
            write!(out, "<div class=\"spark\"><span class=\"spark-name\">{}</span>", esc(section));
        let _ = write!(
            out,
            "<svg width=\"{SW:.0}\" height=\"{SH:.0}\" viewBox=\"0 0 {SW:.0} {SH:.0}\" \
             role=\"img\"><title>{}</title>",
            esc(&tip)
        );
        if points.len() > 1 {
            let mut path = String::new();
            for (i, (_, r)) in points.iter().enumerate() {
                let (x, y) = xy(i, *r);
                let _ = write!(path, "{}{x:.1},{y:.1}", if i == 0 { "" } else { " " });
            }
            let _ = write!(
                out,
                "<polyline points=\"{path}\" fill=\"none\" stroke=\"var(--c1)\" \
                 stroke-width=\"2\" stroke-linejoin=\"round\" stroke-linecap=\"round\"/>"
            );
        }
        let (lx, ly) = xy(points.len() - 1, points.last().map_or(0.0, |(_, r)| *r));
        let _ = write!(out, "<circle cx=\"{lx:.1}\" cy=\"{ly:.1}\" r=\"2.5\" fill=\"var(--c1)\"/>");
        out.push_str("</svg>");
        let _ = write!(
            out,
            "<span class=\"spark-val\">{}</span></div>",
            human_rate(points.last().map_or(0.0, |(_, r)| *r))
        );
    }
    out.push_str("</div>");
    // Table view: every section × snapshot rate.
    out.push_str("<table><thead><tr><th>section</th>");
    for stem in &stems {
        let _ = write!(out, "<th>{}</th>", esc(stem.trim_start_matches("BENCH_")));
    }
    out.push_str("</tr></thead><tbody>");
    for section in &sections {
        let _ = write!(out, "<tr><td>{}</td>", esc(section));
        for stem in &stems {
            let cell = rate_of(stem, section).map_or_else(|| "-".to_string(), human_rate);
            let _ = write!(out, "<td>{cell}</td>");
        }
        out.push_str("</tr>");
    }
    out.push_str("</tbody></table></section>");
}

// ---- sweep cache hit-rate panel -----------------------------------------

const MAX_LOG_ROWS: usize = 50;

fn hitrate_panel(out: &mut String, log: &[SweepLogEntry]) {
    out.push_str("<section><h2>Sweep cache hit rate</h2>");
    if log.is_empty() {
        out.push_str(
            "<p class=\"note\">No sweep invocations logged yet — any sweep binary run \
             appends to <code>sweep_log.jsonl</code>.</p></section>",
        );
        return;
    }
    let total_runs: u64 = log.iter().map(|e| e.runs).sum();
    let total_cached: u64 = log.iter().map(|e| e.cached).sum();
    let overall = if total_runs == 0 { 1.0 } else { total_cached as f64 / total_runs as f64 };
    let shown = &log[log.len().saturating_sub(MAX_LOG_ROWS)..];
    let _ = write!(
        out,
        "<p class=\"note\">Overall hit rate {} across {} invocations ({} runs).{}</p>",
        pct1(overall),
        log.len(),
        total_runs,
        if shown.len() < log.len() {
            format!(" Showing the most recent {} of {}.", shown.len(), log.len())
        } else {
            String::new()
        }
    );
    out.push_str(
        "<table><thead><tr><th>experiment</th><th>date</th><th>scale</th><th>jobs</th>\
         <th>runs</th><th>computed</th><th>cached</th><th>hit rate</th><th>wall ms</th>\
         </tr></thead><tbody>",
    );
    for e in shown {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td><span class=\"meter\"><span class=\"meter-fill\" \
             style=\"width:{:.1}%\"></span></span> {}</td><td>{}</td></tr>",
            esc(&e.experiment),
            esc(&e.date),
            esc(&e.scale),
            e.jobs,
            e.runs,
            e.computed,
            e.cached,
            100.0 * e.hit_rate(),
            pct1(e.hit_rate()),
            e.wall_ms,
        );
    }
    out.push_str("</tbody></table></section>");
}

// ---- inventory ----------------------------------------------------------

fn bounds_panel(out: &mut String, rows: &[BoundsRow]) {
    out.push_str("<section><h2>Static cycle lower bounds vs. measured</h2>");
    if rows.is_empty() {
        out.push_str(
            "<p class=\"note\">No bounds computed — pass \
             <code>compute_bounds_rows()</code> to the renderer.</p></section>",
        );
        return;
    }
    out.push_str(
        "<p class=\"note\">Per-kernel floor from <code>ff-verify</code>: the all-hit \
         dependence height and the issue/FU resource pressure. Every measured run must \
         sit on or above its bound; the gap is schedule overhead.</p>",
    );
    out.push_str(
        "<table><thead><tr><th>kernel</th><th>retired</th><th>dep height</th>\
         <th>resource</th><th>bound</th>",
    );
    let models: Vec<&'static str> = rows[0].measured.iter().map(|(m, _)| *m).collect();
    for m in &models {
        let _ = write!(out, "<th>{m}</th>");
    }
    out.push_str("</tr></thead><tbody>");
    for row in rows {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>",
            esc(&row.kernel),
            row.retired,
            row.dep_height,
            row.resource_bound,
            row.lower_bound
        );
        for (_, cycles) in &row.measured {
            let flag = if *cycles < row.lower_bound { " **unsound**" } else { "" };
            let _ = write!(out, "<td>{cycles}{flag}</td>");
        }
        out.push_str("</tr>");
    }
    out.push_str("</tbody></table></section>");
}

fn inventory_panel(out: &mut String, records: &[RunRecord]) {
    out.push_str("<section><h2>Warehouse inventory</h2>");
    if records.is_empty() {
        out.push_str("<p class=\"note\">The warehouse is empty.</p></section>");
        return;
    }
    out.push_str(
        "<table><thead><tr><th>key</th><th>kind</th><th>content hash</th></tr></thead><tbody>",
    );
    for rec in records {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td><code>{}</code></td></tr>",
            esc(&rec.key),
            esc(&rec.kind),
            esc(&rec.content_hash)
        );
    }
    out.push_str("</tbody></table></section>");
}

// ---- page ---------------------------------------------------------------

const STYLE: &str = "\
:root{color-scheme:light}\n\
.viz-root{\n\
 --surface-1:#fcfcfb; --page:#f9f9f7; --ink-1:#0b0b0b; --ink-2:#52514e;\n\
 --muted:#898781; --grid:#e1e0d9; --baseline:#c3c2b7; --border:rgba(11,11,11,0.10);\n\
 --c1:#2a78d6; --c2:#eb6834; --c3:#1baf7a; --c4:#eda100; --c5:#e87ba4; --c6:#008300;\n\
 --seq1:#86b6ef; --seq2:#3987e5; --seq3:#1c5cab; --seq4:#0d366b;\n\
 background:var(--page); color:var(--ink-1);\n\
 font:14px/1.5 system-ui,-apple-system,\"Segoe UI\",sans-serif;\n\
 margin:0; padding:24px;\n\
}\n\
@media (prefers-color-scheme: dark){\n\
 :root:where(:not([data-theme=\"light\"])) .viz-root{\n\
  color-scheme:dark;\n\
  --surface-1:#1a1a19; --page:#0d0d0d; --ink-1:#ffffff; --ink-2:#c3c2b7;\n\
  --muted:#898781; --grid:#2c2c2a; --baseline:#383835; --border:rgba(255,255,255,0.10);\n\
  --c1:#3987e5; --c2:#d95926; --c3:#199e70; --c4:#c98500; --c5:#d55181; --c6:#008300;\n\
  --seq1:#86b6ef; --seq2:#3987e5; --seq3:#256abf; --seq4:#184f95;\n\
 }\n\
}\n\
.viz-root h1{font-size:20px;margin:0 0 4px}\n\
.viz-root h2{font-size:15px;margin:0 0 8px}\n\
.viz-root .meta{color:var(--ink-2);margin:0 0 20px;font-size:12px}\n\
.viz-root section{background:var(--surface-1);border:1px solid var(--border);\n\
 border-radius:8px;padding:16px 18px;margin:0 0 18px;max-width:760px}\n\
.viz-root .note{color:var(--ink-2);font-size:12px;margin:4px 0 10px}\n\
.viz-root .legend{display:flex;flex-wrap:wrap;gap:12px;margin:0 0 10px;font-size:12px;\n\
 color:var(--ink-2)}\n\
.viz-root .chip{display:inline-flex;align-items:center;gap:5px}\n\
.viz-root .swatch{width:10px;height:10px;border-radius:2px;display:inline-block}\n\
.viz-root svg.chart{display:block;max-width:100%}\n\
.viz-root svg text{font:11px system-ui,-apple-system,\"Segoe UI\",sans-serif}\n\
.viz-root svg text.lbl{fill:var(--ink-1)}\n\
.viz-root svg text.lbl.sub{fill:var(--ink-2)}\n\
.viz-root svg text.val{fill:var(--ink-2)}\n\
.viz-root table{border-collapse:collapse;font-size:12px;margin-top:12px;\n\
 font-variant-numeric:tabular-nums}\n\
.viz-root th{color:var(--ink-2);font-weight:600;text-align:left}\n\
.viz-root th,.viz-root td{padding:3px 10px 3px 0;border-bottom:1px solid var(--grid)}\n\
.viz-root .sparks{display:grid;grid-template-columns:repeat(auto-fill,minmax(330px,1fr));\n\
 gap:6px 18px}\n\
.viz-root .spark{display:flex;align-items:center;gap:8px;font-size:12px}\n\
.viz-root .spark-name{flex:0 0 110px;color:var(--ink-1)}\n\
.viz-root .spark-val{color:var(--ink-2)}\n\
.viz-root .meter{display:inline-block;width:80px;height:8px;background:var(--grid);\n\
 border-radius:4px;vertical-align:middle;overflow:hidden}\n\
.viz-root .meter-fill{display:block;height:100%;background:var(--c1)}\n\
.viz-root code{color:var(--ink-2)}\n\
";

/// Renders the whole dashboard as one self-contained HTML page.
/// Byte-deterministic for identical input (see the module docs).
#[must_use]
pub fn render_dashboard(data: &DashboardData) -> String {
    let mut records = data.records.to_vec();
    records.sort_by(|a, b| a.key.cmp(&b.key));

    let mut out = String::with_capacity(64 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str("<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n");
    out.push_str("<title>fleaflicker results dashboard</title>\n<style>\n");
    out.push_str(STYLE);
    out.push_str("</style>\n</head>\n<body class=\"viz-root\">\n");
    out.push_str("<h1>fleaflicker — results dashboard</h1>\n");
    let mut meta = format!(
        "{} warehouse records · code version {}",
        records.len(),
        crate::sweep::CODE_VERSION
    );
    if let Some(ts) = data.generated_at {
        let _ = write!(meta, " · generated {}", esc(ts));
    }
    let _ = writeln!(out, "<p class=\"meta\">{meta}</p>");

    golden_panel(&mut out, data.goldens);
    fig6_panel(&mut out, data.fig6, data.scale);
    fig7_panel(&mut out, data.fig7, data.scale);
    let mut perf: Vec<(String, PerfSnapshot)> = data.perf.to_vec();
    perf.sort_by(|a, b| a.0.cmp(&b.0));
    perf_panel(&mut out, &perf);
    bounds_panel(&mut out, data.bounds);
    hitrate_panel(&mut out, data.sweep_log);
    inventory_panel(&mut out, &records);
    let _ = out.write_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_html_metacharacters() {
        assert_eq!(esc("a<b>&\"c"), "a&lt;b&gt;&amp;&quot;c");
        assert_eq!(esc("plain"), "plain");
    }

    #[test]
    fn human_rates_pick_sensible_units() {
        assert_eq!(human_rate(5_490_000.0), "5.5M");
        assert_eq!(human_rate(12_000.0), "12k");
        assert_eq!(human_rate(42.0), "42");
    }

    #[test]
    fn empty_dashboard_renders_every_panel_placeholder() {
        let data = DashboardData {
            records: &[],
            goldens: &[],
            scale: "tiny",
            fig6: &Value::Null,
            fig7: &Value::Null,
            sweep_log: &[],
            perf: &[],
            bounds: &[],
            generated_at: Some("t0"),
        };
        let html = render_dashboard(&data);
        assert!(html.contains("<!DOCTYPE html>"));
        assert!(html.contains("generated t0"));
        assert!(html.contains("No golden runs captured"));
        assert!(html.contains("No perf snapshots"));
        assert!(html.contains("No bounds computed"));
        assert!(html.contains("No sweep invocations logged"));
        assert!(html.contains("The warehouse is empty"));
        // Self-contained: no external fetches of any kind.
        assert!(!html.contains("http://") && !html.contains("https://"));
        assert!(!html.contains("<script"));
    }
}
