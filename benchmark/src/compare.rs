//! `ff_benchmark compare A.json B.json`: classes each end-to-end metric
//! of B against A as better, worse, unchanged or unresolved, and each
//! exact count as unchanged or changed.

use crate::metrics::{Measured, RunFile};

/// How one metric moved from A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// The run-to-run spread is wider than the bound, so the runs cannot
    /// tell a change from noise.
    Unresolved,
    /// An exact count differs.
    Changed,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Better => "better",
            Class::Worse => "worse",
            Class::Unchanged => "unchanged",
            Class::Unresolved => "unresolved",
            Class::Changed => "CHANGED",
        }
    }
}

/// Interquartile range as a share of the median.
fn spread(m: &Measured) -> f64 {
    if m.value == 0.0 {
        0.0
    } else {
        (m.p75 - m.p25).abs() / m.value.abs()
    }
}

/// Classes B's value of a metric against A's. `None` for per-layer
/// timings, which carry no bound.
pub fn classify(a: &Measured, b: &Measured) -> Option<Class> {
    if a.exact || b.exact {
        return Some(if a.value == b.value { Class::Unchanged } else { Class::Changed });
    }
    let bound = b.bound?;
    if (b.value - a.value).abs() <= b.floor {
        return Some(Class::Unchanged);
    }
    let higher = b.higher_is_better();
    // Positive when B is worse than A.
    let worse_by =
        if higher { (a.value - b.value) / a.value } else { (b.value - a.value) / a.value };
    if spread(a).max(spread(b)) > bound {
        let max = |s: &[f64]| s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
        let every_run_better = if higher {
            min(&b.samples) > max(&a.samples)
        } else {
            max(&b.samples) < min(&a.samples)
        };
        return Some(if every_run_better { Class::Better } else { Class::Unresolved });
    }
    Some(if worse_by > bound {
        Class::Worse
    } else if worse_by < -bound {
        Class::Better
    } else {
        Class::Unchanged
    })
}

/// Renders the comparison table; the flag is true when any metric is
/// worse or any exact count changed.
pub fn compare(a: &RunFile, b: &RunFile) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<36} {:>14} {:>14} {:>8} {:>8} {:>6}  class\n",
        "workload", "metric", "A", "B", "change", "spread", "bound"
    );
    let mut bad = false;
    if a.host != b.host {
        out = format!("note: A and B were measured on different hosts or toolchains\n{out}");
    }
    for wb in &b.workloads {
        let Some(wa) = a.workloads.iter().find(|w| w.workload == wb.workload) else {
            out += &format!("{:<14} (not in A)\n", wb.workload);
            continue;
        };
        for mb in &wb.metrics {
            let Some(ma) = wa.metric(&mb.name) else { continue };
            let Some(class) = classify(ma, mb) else { continue };
            bad |= matches!(class, Class::Worse | Class::Changed);
            let change = if ma.value == 0.0 { 0.0 } else { (mb.value - ma.value) / ma.value };
            out += &format!(
                "{:<14} {:<36} {:>14.6} {:>14.6} {:>+7.1}% {:>7.1}% {:>6}  {}\n",
                wb.workload,
                mb.name,
                ma.value,
                mb.value,
                100.0 * change,
                100.0 * spread(ma).max(spread(mb)),
                mb.bound.map_or_else(|| "exact".to_string(), |b| format!("{:.0}%", 100.0 * b)),
                class.label()
            );
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Better, Measured, END_TO_END};

    fn mips(samples: &[f64]) -> Measured {
        Measured::end_to_end(
            &END_TO_END[1],
            crate::metrics::quantile(samples, 0.5),
            samples.to_vec(),
        )
    }

    #[test]
    fn classes_follow_bound_and_spread() {
        let a = mips(&[10.0, 10.1, 9.9]);
        let scaled = |f: f64| mips(&[10.0 * f, 10.1 * f, 9.9 * f]);
        let bound = END_TO_END[1].bound;
        assert_eq!(classify(&a, &scaled(1.0 - 1.5 * bound)), Some(Class::Worse));
        assert_eq!(classify(&a, &scaled(1.0 - 0.5 * bound)), Some(Class::Unchanged));
        assert_eq!(classify(&a, &scaled(1.0 + 1.5 * bound)), Some(Class::Better));
        assert_eq!(classify(&a, &mips(&[2.0, 8.0, 14.0])), Some(Class::Unresolved));
        let noisy_a = mips(&[2.0, 10.0, 18.0]);
        assert_eq!(classify(&noisy_a, &mips(&[20.0, 21.0, 22.0])), Some(Class::Better));
    }

    #[test]
    fn exact_counts_compare_exactly() {
        let a = Measured::exact("ff-core", "sim.cpi.2p", "cycles/instr", Better::Lower, 1.25);
        let b = Measured::exact("ff-core", "sim.cpi.2p", "cycles/instr", Better::Lower, 1.25);
        assert_eq!(classify(&a, &b), Some(Class::Unchanged));
        let c = Measured::exact("ff-core", "sim.cpi.2p", "cycles/instr", Better::Lower, 1.2500001);
        assert_eq!(classify(&a, &c), Some(Class::Changed));
    }

    #[test]
    fn setup_floor_absorbs_tiny_changes() {
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        let a = Measured::end_to_end(setup, 0.010, vec![0.010]);
        let b = Measured::end_to_end(setup, 0.014, vec![0.014]);
        assert_eq!(classify(&a, &b), Some(Class::Unchanged));
    }
}
