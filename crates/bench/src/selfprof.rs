//! Simulator self-profiling: scoped wall-clock timers and a
//! perf-snapshot format for tracking the simulator's *own* speed
//! (host seconds per component, simulated instructions per host
//! second per model) across commits.
//!
//! The paper's experiments all run on a software model, so the
//! simulator's throughput is itself a first-class artifact: a change
//! that doubles fig6 wall time is a regression even when every
//! simulated number is identical. [`SelfProfiler`] accumulates named
//! sections; [`PerfSnapshot`] serializes a run to
//! `BENCH_<date>.json`; [`PerfSnapshot::compare`] diffs two snapshots
//! under a relative threshold so CI can report (non-blocking) when
//! the trajectory slips.
//!
//! All self-profiling metric names live under the `selfprof.*`
//! namespace: `selfprof.<section>.seconds` for wall time and
//! `selfprof.<section>.ips` for simulated-instructions-per-second
//! throughput sections (see `EXPERIMENTS.md`).

use serde::{Deserialize, Serialize};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One timed component: accumulated wall seconds plus an optional
/// simulated-work count (`instrs > 0` marks a throughput section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Section {
    /// Dotted component name, e.g. `sim.2p` or `workload.build`.
    pub name: String,
    /// Accumulated wall-clock seconds.
    pub seconds: f64,
    /// Simulated instructions executed inside this section (0 for
    /// pure-overhead sections with no meaningful work count).
    pub instrs: u64,
}

impl Section {
    /// Simulated instructions per host second, when this is a
    /// throughput section with nonzero elapsed time.
    #[must_use]
    pub fn instrs_per_sec(&self) -> Option<f64> {
        (self.instrs > 0 && self.seconds > 0.0).then(|| self.instrs as f64 / self.seconds)
    }
}

/// Registry of scoped wall-clock timers. Repeated `time` calls with
/// the same name accumulate into one [`Section`].
#[derive(Debug, Default)]
pub struct SelfProfiler {
    sections: Vec<Section>,
}

impl SelfProfiler {
    /// An empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&mut self, name: &str) -> &mut Section {
        if let Some(i) = self.sections.iter().position(|s| s.name == name) {
            &mut self.sections[i]
        } else {
            self.sections.push(Section { name: name.to_string(), seconds: 0.0, instrs: 0 });
            self.sections.last_mut().expect("just pushed")
        }
    }

    /// Runs `f`, charging its wall time to section `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.entry(name).seconds += secs;
        out
    }

    /// Like [`Self::time`], for throughput sections: `f` returns
    /// `(value, instrs)` and the instruction count is accumulated
    /// alongside the wall time.
    pub fn time_work<T>(&mut self, name: &str, f: impl FnOnce() -> (T, u64)) -> T {
        let start = Instant::now();
        let (out, instrs) = f();
        let secs = start.elapsed().as_secs_f64();
        let e = self.entry(name);
        e.seconds += secs;
        e.instrs += instrs;
        out
    }

    /// Directly accumulates a pre-measured interval (for callers that
    /// cannot wrap the work in a closure).
    pub fn add(&mut self, name: &str, seconds: f64, instrs: u64) {
        let e = self.entry(name);
        e.seconds += seconds;
        e.instrs += instrs;
    }

    /// The accumulated sections, in first-touch order.
    #[must_use]
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Flat `selfprof.*` metric rows: `selfprof.<name>.seconds` for
    /// every section plus `selfprof.<name>.ips` for throughput ones.
    #[must_use]
    pub fn metric_rows(&self) -> Vec<(String, f64)> {
        let mut rows = Vec::new();
        for s in &self.sections {
            rows.push((format!("selfprof.{}.seconds", s.name), s.seconds));
            if let Some(ips) = s.instrs_per_sec() {
                rows.push((format!("selfprof.{}.ips", s.name), ips));
            }
        }
        rows
    }

    /// One profiler per repeated measurement folded into one: each
    /// section of the first run, at the median of its seconds over the
    /// runs that have it (the mean of the middle two for an even
    /// count). Host load moves single runs far more than most changes
    /// do, and the median is not pulled by a run that hit a busy spell.
    #[must_use]
    pub fn median(runs: &[SelfProfiler]) -> Self {
        let mut out = Self::new();
        let Some(first) = runs.first() else { return out };
        for s in &first.sections {
            let mut secs: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.sections.iter().find(|t| t.name == s.name))
                .map(|t| t.seconds)
                .collect();
            secs.sort_by(f64::total_cmp);
            let mid = secs.len() / 2;
            let median = if secs.len().is_multiple_of(2) {
                (secs[mid - 1] + secs[mid]) / 2.0
            } else {
                secs[mid]
            };
            out.add(&s.name, median, s.instrs);
        }
        out
    }

    /// Consumes the profiler into a dated snapshot stamped with the
    /// current host's provenance.
    #[must_use]
    pub fn into_snapshot(self, scale: &str) -> PerfSnapshot {
        PerfSnapshot {
            date: today_utc(),
            scale: scale.to_string(),
            host: HostInfo::detect(),
            sections: self.sections,
        }
    }
}

/// Build/host provenance recorded alongside each snapshot, so a
/// BENCH_*.json from a different toolchain or machine is never read as
/// a regression of the simulator itself.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostInfo {
    /// `rustc -V` banner of the toolchain in `PATH` when the snapshot
    /// was taken (empty when unknown — e.g. a pre-provenance snapshot).
    pub rustc: String,
    /// Optimization level the measuring binary was built at, inferred
    /// from the compiled-in profile (`debug-assertions` ⇒ dev).
    pub opt_level: String,
    /// CPU model string from `/proc/cpuinfo` (empty when unknown).
    pub cpu: String,
}

impl HostInfo {
    /// Probes the current host and build. Never fails: unknown facets
    /// come back as empty strings so old and exotic hosts still snapshot.
    #[must_use]
    pub fn detect() -> HostInfo {
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_default();
        let opt_level =
            if cfg!(debug_assertions) { "0 (dev)".to_string() } else { "3 (release)".to_string() };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
            })
            .unwrap_or_default();
        HostInfo { rustc, opt_level, cpu }
    }

    /// True when no facet could be probed (or the snapshot predates
    /// provenance recording).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rustc.is_empty() && self.opt_level.is_empty() && self.cpu.is_empty()
    }
}

/// One dated self-performance measurement, serialized to
/// `BENCH_<date>.json` by `ff_report perf`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PerfSnapshot {
    /// UTC date the snapshot was taken, `YYYY-MM-DD`.
    pub date: String,
    /// Workload scale the measurement ran at (`tiny`/`test`/`ref`).
    pub scale: String,
    /// Build/host provenance ([`HostInfo::is_empty`] for snapshots that
    /// predate it).
    pub host: HostInfo,
    /// Timed components.
    pub sections: Vec<Section>,
}

// Hand-written so BENCH_*.json files from before provenance recording
// (no "host" key) still load: the derive would reject the missing field.
impl Deserialize for PerfSnapshot {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(PerfSnapshot {
            date: Deserialize::from_value(v.field("date")?)?,
            scale: Deserialize::from_value(v.field("scale")?)?,
            host: match v.get("host") {
                Some(h) => Deserialize::from_value(h)?,
                None => HostInfo::default(),
            },
            sections: Deserialize::from_value(v.field("sections")?)?,
        })
    }
}

/// One section's change between two snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Delta {
    /// Section name.
    pub name: String,
    /// The compared quantity in the older snapshot (instrs/sec for
    /// throughput sections, wall seconds otherwise).
    pub prev: f64,
    /// The compared quantity in the newer snapshot.
    pub cur: f64,
    /// `cur / prev`; for throughput sections > 1 is better, for wall
    /// time < 1 is better.
    pub ratio: f64,
    /// True when this section is compared by instrs/sec rather than
    /// wall seconds.
    pub throughput: bool,
    /// True when the change is worse than the threshold allows.
    pub regression: bool,
}

impl PerfSnapshot {
    /// Compares `self` (older) against `cur` (newer) section by
    /// section. A throughput section regresses when its instrs/sec
    /// falls by more than `threshold` (relative); a wall-time section
    /// regresses when its seconds grow by more than `threshold`.
    /// Sections present in only one snapshot are skipped — they carry
    /// no trajectory.
    #[must_use]
    pub fn compare(&self, cur: &PerfSnapshot, threshold: f64) -> Vec<Delta> {
        let mut deltas = Vec::new();
        for c in &cur.sections {
            let Some(p) = self.sections.iter().find(|p| p.name == c.name) else { continue };
            let (prev_v, cur_v, throughput) = match (p.instrs_per_sec(), c.instrs_per_sec()) {
                (Some(pv), Some(cv)) => (pv, cv, true),
                _ => (p.seconds, c.seconds, false),
            };
            if prev_v <= 0.0 {
                continue;
            }
            let ratio = cur_v / prev_v;
            let regression =
                if throughput { ratio < 1.0 - threshold } else { ratio > 1.0 + threshold };
            deltas.push(Delta {
                name: c.name.clone(),
                prev: prev_v,
                cur: cur_v,
                ratio,
                throughput,
                regression,
            });
        }
        deltas
    }
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, no external
/// time crate).
#[must_use]
pub fn today_utc() -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Howard Hinnant's `civil_from_days`: days since 1970-01-01 to
/// (year, month, day) in the proleptic Gregorian calendar.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_accumulates_across_calls() {
        let mut p = SelfProfiler::new();
        p.time("a", || std::thread::sleep(std::time::Duration::from_millis(1)));
        p.time("a", || ());
        p.time_work("sim", || ((), 500));
        p.time_work("sim", || ((), 500));
        assert_eq!(p.sections().len(), 2);
        assert!(p.sections()[0].seconds > 0.0);
        assert_eq!(p.sections()[1].instrs, 1000);
        let rows = p.metric_rows();
        assert!(rows.iter().any(|(n, _)| n == "selfprof.a.seconds"));
        assert!(rows.iter().any(|(n, _)| n == "selfprof.sim.ips"));
        assert!(!rows.iter().any(|(n, _)| n == "selfprof.a.ips"));
    }

    #[test]
    fn median_takes_each_section_middle_over_runs() {
        let run = |secs: &[(&str, f64)]| {
            let mut p = SelfProfiler::new();
            for &(name, s) in secs {
                p.add(name, s, if name == "sim" { 100 } else { 0 });
            }
            p
        };
        let runs = [
            run(&[("sim", 3.0), ("build", 1.0)]),
            run(&[("sim", 1.0), ("build", 5.0)]),
            run(&[("sim", 2.0), ("build", 2.0)]),
        ];
        let m = SelfProfiler::median(&runs);
        let got: Vec<_> =
            m.sections().iter().map(|s| (s.name.as_str(), s.seconds, s.instrs)).collect();
        assert_eq!(got, [("sim", 2.0, 100), ("build", 2.0, 0)]);
        // An even count takes the mean of the middle two.
        let m = SelfProfiler::median(&runs[..2]);
        assert_eq!(m.sections()[0].seconds, 2.0);
        assert!(SelfProfiler::median(&[]).sections().is_empty());
    }

    fn snap(sections: &[(&str, f64, u64)]) -> PerfSnapshot {
        PerfSnapshot {
            date: "2026-01-01".into(),
            scale: "tiny".into(),
            host: HostInfo::default(),
            sections: sections
                .iter()
                .map(|&(n, s, i)| Section { name: n.into(), seconds: s, instrs: i })
                .collect(),
        }
    }

    #[test]
    fn compare_flags_throughput_drop_and_time_growth() {
        let prev = snap(&[("sim.2p", 1.0, 1_000_000), ("build", 1.0, 0), ("gone", 1.0, 0)]);
        let cur = snap(&[("sim.2p", 2.0, 1_000_000), ("build", 1.05, 0), ("new", 1.0, 0)]);
        let deltas = prev.compare(&cur, 0.2);
        // Sections only on one side are skipped.
        assert_eq!(deltas.len(), 2);
        let sim = deltas.iter().find(|d| d.name == "sim.2p").unwrap();
        assert!(sim.throughput);
        assert!(sim.regression, "ips halved must regress: {sim:?}");
        assert!((sim.ratio - 0.5).abs() < 1e-9);
        let build = deltas.iter().find(|d| d.name == "build").unwrap();
        assert!(!build.throughput);
        assert!(!build.regression, "5% growth under 20% threshold: {build:?}");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut s = snap(&[("sim.base", 0.5, 42)]);
        s.host = HostInfo {
            rustc: "rustc 1.99.0".into(),
            opt_level: "3 (release)".into(),
            cpu: "Test CPU".into(),
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: PerfSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn pre_provenance_snapshots_still_parse() {
        // A BENCH_*.json written before the `host` field existed.
        let old = r#"{"date":"2026-01-01","scale":"tiny",
            "sections":[{"name":"sim.base","seconds":0.5,"instrs":42}]}"#;
        let back: PerfSnapshot = serde_json::from_str(old).unwrap();
        assert!(back.host.is_empty(), "missing host must default, got {:?}", back.host);
        assert_eq!(back.sections.len(), 1);
        assert_eq!(back.date, "2026-01-01");
    }

    #[test]
    fn host_detection_never_fails() {
        let host = HostInfo::detect();
        // opt_level is always derivable from the compiled profile.
        assert!(!host.opt_level.is_empty());
    }

    #[test]
    fn civil_from_days_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // 2024-01-01
        assert_eq!(civil_from_days(11_016), (2000, 2, 29)); // leap day
        let today = today_utc();
        assert_eq!(today.len(), 10);
        assert_eq!(today.as_bytes()[4], b'-');
    }
}
