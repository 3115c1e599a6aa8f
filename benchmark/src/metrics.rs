//! Metric definitions, summaries of measured samples, and the result
//! records a run writes.
//!
//! `BENCHMARK.json` at the repository root lists the same end-to-end
//! metrics with the same bounds; the smoke test keeps the two in step.

use serde::{Deserialize, Serialize};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput).
    Higher,
    /// Smaller is better (time, memory).
    Lower,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the simulator waits for.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's value by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Absolute change below which `compare` calls the metric unchanged
    /// whatever the share (timer and allocator noise on tiny values).
    pub floor: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound, floor: 0.0 }
}

/// The end-to-end metrics every workload reports, with their bounds.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("mips.base", "Minstr/s", Better::Higher, 0.24),
    e2e("mips.2p", "Minstr/s", Better::Higher, 0.24),
    e2e("mips.2pre", "Minstr/s", Better::Higher, 0.24),
    e2e("mips.runahead", "Minstr/s", Better::Higher, 0.24),
    e2e("pass_s", "s", Better::Lower, 0.24),
    e2e("request_us.p50", "us", Better::Lower, 0.24),
    e2e("request_us.p99", "us", Better::Lower, 0.24),
    EndToEnd { floor: 0.005, ..e2e("setup_s", "s", Better::Lower, 0.25) },
    e2e("peak_rss_mb", "MB", Better::Lower, 0.1),
];

/// One metric as measured in one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Absolute noise floor for `compare` (end-to-end metrics only).
    pub floor: f64,
    /// Whether the value is a deterministic count that must repeat
    /// exactly (simulated statistics, trace sizes).
    pub exact: bool,
    /// Crate the metric describes (`end-to-end` for end-to-end ones).
    pub layer: String,
    /// The reported value (see [`Measured::end_to_end`]; the median of
    /// the samples otherwise).
    pub value: f64,
    /// First quartile of the samples.
    pub p25: f64,
    /// Third quartile of the samples.
    pub p75: f64,
    /// Every sample, in the order taken.
    pub samples: Vec<f64>,
}

impl Measured {
    /// An end-to-end metric: `value` as the run reports it, with the
    /// per-pass (or per-set-up) `samples` that give its spread.
    pub fn end_to_end(def: &EndToEnd, value: f64, samples: Vec<f64>) -> Self {
        let mut m = Self::build(
            def.name,
            def.unit,
            def.better,
            Some(def.bound),
            def.floor,
            false,
            "end-to-end",
            samples,
        );
        m.value = value;
        m
    }

    /// A per-layer timing metric; `better` is `Lower` for times and
    /// `Higher` for rates.
    pub fn layer(layer: &str, name: &str, unit: &str, better: Better, value: f64) -> Self {
        Self::build(name, unit, better, None, 0.0, false, layer, vec![value])
    }

    /// A per-layer deterministic count.
    pub fn exact(layer: &str, name: &str, unit: &str, better: Better, value: f64) -> Self {
        Self::build(name, unit, better, None, 0.0, true, layer, vec![value])
    }

    #[allow(clippy::too_many_arguments)] // one flat record
    fn build(
        name: &str,
        unit: &str,
        better: Better,
        bound: Option<f64>,
        floor: f64,
        exact: bool,
        layer: &str,
        samples: Vec<f64>,
    ) -> Self {
        assert!(!samples.is_empty(), "metric {name} has no samples");
        Measured {
            name: name.to_string(),
            unit: unit.to_string(),
            better: better.label().to_string(),
            bound,
            floor,
            exact,
            layer: layer.to_string(),
            value: quantile(&samples, 0.5),
            p25: quantile(&samples, 0.25),
            p75: quantile(&samples, 0.75),
            samples,
        }
    }

    /// Whether larger values are better.
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Everything one workload's run measured and checked.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Requested measuring time in seconds.
    pub seconds: f64,
    /// Whether the shrunken test-size inputs were used.
    pub tiny: bool,
    /// Whether the traced pass and layer probes ran.
    pub traced: bool,
    /// Timed passes over the inputs (the warm-up pass excluded).
    pub passes: u64,
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics, then per-layer ones when traced.
    pub metrics: Vec<Measured>,
    /// Per-span self-time table of the traced passes (empty untraced).
    pub self_times: Vec<crate::spans::SelfTime>,
}

impl WorkloadResult {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line JSON summary the benchmark prints last: end-to-end
    /// metrics untraced, per-layer ones traced.
    pub fn summary_line(&self) -> String {
        let metrics: Vec<(String, serde_json::Value)> = self
            .metrics
            .iter()
            .filter(|m| (m.layer != "end-to-end") == self.traced)
            .map(|m| {
                (m.name.clone(), serde_json::json!({ "value": m.value, "unit": m.unit.as_str() }))
            })
            .collect();
        let line = serde_json::json!({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": serde_json::Value::Object(metrics),
        });
        serde_json::to_string(&line).expect("serializable summary")
    }

    /// Human-readable table of every metric.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} (seed {}, {} passes, {}/{} checks failed)\n{:<36} {:>10} {:>14} {:>14} {:>14} {:>4}\n",
            self.workload,
            self.seed,
            self.passes,
            self.failed,
            self.attempted,
            "metric",
            "unit",
            "value",
            "p25",
            "p75",
            "n"
        );
        for m in &self.metrics {
            out += &format!(
                "{:<36} {:>10} {:>14.6} {:>14.6} {:>14.6} {:>4}\n",
                m.name,
                m.unit,
                m.value,
                m.p25,
                m.p75,
                m.samples.len()
            );
        }
        if !self.self_times.is_empty() {
            out +=
                &format!("\n{:<40} {:>9} {:>12} {:>12}\n", "span", "calls", "total_ms", "self_ms");
            for s in &self.self_times {
                out += &format!(
                    "{:<40} {:>9} {:>12.3} {:>12.3}\n",
                    s.name, s.calls, s.total_ms, s.self_ms
                );
            }
        }
        for f in &self.failures {
            out += &format!("FAILED: {f}\n");
        }
        out
    }
}

/// A results file: one or more workloads measured on one host.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunFile {
    /// Layout version of this file.
    pub schema: u32,
    /// Toolchain and CPU the numbers were measured with.
    pub host: ff_bench::selfprof::HostInfo,
    /// Logical CPUs available to the run.
    pub cpus: u64,
    /// Per-workload results.
    pub workloads: Vec<WorkloadResult>,
}

/// Current [`RunFile::schema`].
pub const SCHEMA: u32 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }
}
