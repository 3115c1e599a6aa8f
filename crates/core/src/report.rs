//! Simulation reports: everything the paper's figures are derived from.

use crate::accounting::{CauseBreakdown, CycleBreakdown, CycleClass, StallCause, StallProfile};
use crate::metrics::{Histogram, MetricSource, MetricsBuilder, MetricsSnapshot};
use ff_mem::{AlatStats, HierarchyStats, MemLevel, MshrStats, StoreBufferStats};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Version of the serialized [`SimReport`] surface. Stored alongside
/// archived reports (the `ff-bench` run warehouse, future `ff-serve`
/// clients); bump whenever a field is added, removed, or changes
/// meaning so readers can reject layouts they don't understand.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Which back-end executed an instruction or initiated an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pipe {
    /// The advance pipe (two-pass only).
    A,
    /// The backup / architectural pipe (the only pipe in the baseline).
    B,
}

impl Pipe {
    /// Dense index for per-pipe stat arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Pipe::A => 0,
            Pipe::B => 1,
        }
    }
}

impl fmt::Display for Pipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pipe::A => "A",
            Pipe::B => "B",
        })
    }
}

/// The pipeline model that produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Traditional in-order EPIC pipeline (the paper's `base`).
    Baseline,
    /// Two-pass pipeline (the paper's `2P`).
    TwoPass,
    /// Two-pass with B-pipe instruction regrouping (the paper's `2Pre`).
    TwoPassRegroup,
    /// Checkpoint-based runahead on the baseline pipe (the paper's §2
    /// comparison point).
    Runahead,
}

impl ModelKind {
    /// Every model, in display order.
    pub const ALL: [ModelKind; 4] =
        [ModelKind::Baseline, ModelKind::TwoPass, ModelKind::TwoPassRegroup, ModelKind::Runahead];
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ModelKind::Baseline => "base",
            ModelKind::TwoPass => "2P",
            ModelKind::TwoPassRegroup => "2Pre",
            ModelKind::Runahead => "runahead",
        })
    }
}

/// Parses a display name case-insensitively (`base`, `2p`, `2Pre`,
/// `runahead`, ...).
impl std::str::FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelKind::ALL
            .into_iter()
            .find(|kind| kind.to_string().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown model `{s}` (expected base, 2p, 2pre or runahead)"))
    }
}

/// Distribution of *initiated* memory accesses by pipe and by the cache
/// level that serviced them — the raw material of the paper's Figure 7.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccessStats {
    /// Loads initiated, indexed `[pipe][level]`.
    pub loads: [[u64; 4]; 2],
    /// The same loads weighted by their effective access latency
    /// ("initiated access cycles"), indexed `[pipe][level]`.
    pub load_latency_cycles: [[u64; 4]; 2],
}

impl MemAccessStats {
    /// Records an initiated load.
    pub fn record_load(&mut self, pipe: Pipe, level: MemLevel, latency: u64) {
        self.loads[pipe.index()][level.index()] += 1;
        self.load_latency_cycles[pipe.index()][level.index()] += latency;
    }

    /// Total loads initiated in `pipe`.
    #[must_use]
    pub fn loads_in(&self, pipe: Pipe) -> u64 {
        self.loads[pipe.index()].iter().sum()
    }

    /// Total latency-weighted access cycles initiated in `pipe`.
    #[must_use]
    pub fn access_cycles_in(&self, pipe: Pipe) -> u64 {
        self.load_latency_cycles[pipe.index()].iter().sum()
    }

    /// Latency-weighted access cycles for one `(pipe, level)` cell.
    #[must_use]
    pub fn access_cycles(&self, pipe: Pipe, level: MemLevel) -> u64 {
        self.load_latency_cycles[pipe.index()][level.index()]
    }
}

/// Branch-prediction outcomes, split by resolving pipe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchStats {
    /// Conditional branches architecturally retired.
    pub retired: u64,
    /// Retired branches that were mispredicted.
    pub mispredicted: u64,
    /// Mispredictions detected and repaired at A-DET (baseline DET for
    /// the baseline model).
    pub repaired_in_a: u64,
    /// Mispredictions detected at B-DET (deferred branches).
    pub repaired_in_b: u64,
}

impl BranchStats {
    /// Misprediction rate over retired conditional branches.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.retired as f64
        }
    }

    /// Fraction of mispredictions repaired in the A-pipe (the paper
    /// reports an average of 32%).
    #[must_use]
    pub fn a_repair_fraction(&self) -> f64 {
        if self.mispredicted == 0 {
            0.0
        } else {
            self.repaired_in_a as f64 / self.mispredicted as f64
        }
    }
}

/// Counters specific to the two-pass machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoPassStats {
    /// Instructions dispatched into the A-pipe (includes wrong path).
    pub dispatched_a: u64,
    /// Instructions the A-pipe executed (not deferred).
    pub executed_in_a: u64,
    /// Instructions deferred to the B-pipe.
    pub deferred: u64,
    /// Store-conflict flushes (ALAT misses at merge).
    pub store_conflict_flushes: u64,
    /// A-pipe loads initiated while at least one deferred store was in
    /// the coupling queue (§4: 97% of these are conflict-free).
    pub loads_past_deferred_store: u64,
    /// The subset of those that later suffered a conflict flush.
    pub loads_past_deferred_store_conflicting: u64,
    /// Stores deferred to the B-pipe.
    pub stores_deferred: u64,
    /// Stores retired.
    pub stores_retired: u64,
    /// FP-unit operations deferred to the B-pipe.
    pub fp_deferred: u64,
    /// FP-unit operations retired.
    pub fp_retired: u64,
    /// Sum over cycles of coupling-queue occupancy (avg = sum / cycles).
    pub queue_occupancy_sum: u64,
    /// Cycles on which the A-pipe could not dispatch because the queue
    /// was full.
    pub queue_full_cycles: u64,
    /// Cycles the deferral throttle held the A-pipe back (§3.5 option).
    pub throttled_cycles: u64,
    /// Group merges performed by the B-pipe regrouper (`2Pre`).
    pub regroup_merges: u64,
    /// B→A feedback updates that found a matching DynID and were applied.
    pub feedback_applied: u64,
    /// Feedback updates dropped because the A-file entry had been
    /// overwritten by a younger instruction.
    pub feedback_stale: u64,
    /// Speculative store buffer statistics.
    pub store_buffer: StoreBufferStats,
    /// ALAT statistics.
    pub alat: AlatStats,
    /// Coupling-queue depth, sampled once per cycle.
    pub queue_depth_hist: Histogram,
    /// A-to-B slip: cycles each merged entry spent in the coupling
    /// queue (retire cycle minus enqueue cycle).
    pub slip_hist: Histogram,
}

impl TwoPassStats {
    /// Fraction of dispatched instructions deferred to the B-pipe.
    #[must_use]
    pub fn deferral_rate(&self) -> f64 {
        if self.dispatched_a == 0 {
            0.0
        } else {
            self.deferred as f64 / self.dispatched_a as f64
        }
    }

    /// Fraction of "risky" A-pipe loads (past a deferred store) that were
    /// conflict-free.
    #[must_use]
    pub fn risky_load_clean_fraction(&self) -> f64 {
        if self.loads_past_deferred_store == 0 {
            1.0
        } else {
            1.0 - self.loads_past_deferred_store_conflicting as f64
                / self.loads_past_deferred_store as f64
        }
    }
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Which model produced this report.
    pub model: ModelKind,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Architecturally retired instructions.
    pub retired: u64,
    /// Per-class cycle accounting (Figure 6).
    pub breakdown: CycleBreakdown,
    /// Refined per-cause cycle accounting; collapses onto `breakdown`
    /// (see [`CauseBreakdown::collapse`]).
    pub breakdown2: CauseBreakdown,
    /// Per-PC stall attribution: which static instructions the machine
    /// spent its stall cycles waiting on.
    pub stall_profile: StallProfile,
    /// Initiated-access distribution (Figure 7).
    pub mem: MemAccessStats,
    /// Branch outcomes.
    pub branches: BranchStats,
    /// Data-hierarchy counters.
    pub hierarchy: HierarchyStats,
    /// MSHR counters.
    pub mshr: MshrStats,
    /// Two-pass-specific counters (`None` for the baseline).
    pub two_pass: Option<TwoPassStats>,
    /// Flat export of every subsystem's metrics (see [`crate::metrics`]).
    pub metrics: MetricsSnapshot,
}

impl SimReport {
    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Cycles per retired instruction — the total height of the CPI
    /// stack (0 when nothing retired).
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.cycles as f64 / self.retired as f64
        }
    }

    /// CPI contribution of one cycle class: cycles charged to `class`
    /// per retired instruction.
    #[must_use]
    pub fn class_cpi(&self, class: CycleClass) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.breakdown[class] as f64 / self.retired as f64
        }
    }

    /// CPI contribution of one refined stall cause: cycles charged to
    /// `cause` per retired instruction. Cause CPIs tile their class CPI
    /// the same way [`CauseBreakdown::collapse`] tiles the class
    /// breakdown, so run-vs-run CPI diffs can localize a regression to
    /// a single cause.
    #[must_use]
    pub fn cause_cpi(&self, cause: StallCause) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.breakdown2[cause] as f64 / self.retired as f64
        }
    }

    /// Cycles normalized to a baseline run of the same workload.
    #[must_use]
    pub fn normalized_cycles(&self, baseline: &SimReport) -> f64 {
        if baseline.cycles == 0 {
            0.0
        } else {
            self.cycles as f64 / baseline.cycles as f64
        }
    }

    /// Speedup over a baseline run of the same workload.
    #[must_use]
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// (Re)builds [`SimReport::metrics`] from the typed stats fields,
    /// giving every model's report one uniform flat namespace. Called
    /// by each model's `into_report`; safe to call again after editing
    /// the typed fields.
    pub fn collect_metrics(&mut self) {
        let mut b = MetricsBuilder::new();
        b.counter("sim.cycles", self.cycles).counter("sim.retired", self.retired);
        b.scope("cycles", &self.breakdown)
            .scope("stall.cause", &self.breakdown2)
            .scope("mem", &self.hierarchy)
            .scope("mshr", &self.mshr)
            .scope("branches", &self.branches)
            .scope("access", &self.mem);
        if let Some(tp) = &self.two_pass {
            b.scope("two_pass", tp).scope("store_buffer", &tp.store_buffer).scope("alat", &tp.alat);
        }
        self.metrics = b.build();
    }
}

impl MetricSource for BranchStats {
    fn export_metrics(&self, m: &mut MetricsBuilder) {
        m.counter("retired", self.retired);
        m.counter("mispredicted", self.mispredicted);
        m.counter("repaired_in_a", self.repaired_in_a);
        m.counter("repaired_in_b", self.repaired_in_b);
    }
}

impl MetricSource for MemAccessStats {
    fn export_metrics(&self, m: &mut MetricsBuilder) {
        for pipe in [Pipe::A, Pipe::B] {
            for level in MemLevel::ALL {
                m.counter(
                    &format!(
                        "{}_{}_loads",
                        pipe.to_string().to_lowercase(),
                        level.to_string().to_lowercase()
                    ),
                    self.loads[pipe.index()][level.index()],
                );
            }
        }
    }
}

impl MetricSource for TwoPassStats {
    fn export_metrics(&self, m: &mut MetricsBuilder) {
        m.counter("dispatched_a", self.dispatched_a);
        m.counter("executed_in_a", self.executed_in_a);
        m.counter("deferred", self.deferred);
        m.counter("store_conflict_flushes", self.store_conflict_flushes);
        m.counter("loads_past_deferred_store", self.loads_past_deferred_store);
        m.counter(
            "loads_past_deferred_store_conflicting",
            self.loads_past_deferred_store_conflicting,
        );
        m.counter("stores_deferred", self.stores_deferred);
        m.counter("stores_retired", self.stores_retired);
        m.counter("fp_deferred", self.fp_deferred);
        m.counter("fp_retired", self.fp_retired);
        m.counter("queue_occupancy_sum", self.queue_occupancy_sum);
        m.counter("queue_full_cycles", self.queue_full_cycles);
        m.counter("throttled_cycles", self.throttled_cycles);
        m.counter("regroup_merges", self.regroup_merges);
        m.counter("feedback_applied", self.feedback_applied);
        m.counter("feedback_stale", self.feedback_stale);
        m.histogram("queue_depth", &self.queue_depth_hist);
        m.histogram("slip", &self.slip_hist);
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] cycles={} retired={} ipc={:.3}",
            self.model,
            self.cycles,
            self.retired,
            self.ipc()
        )?;
        writeln!(f, "  {}", self.breakdown)?;
        writeln!(
            f,
            "  branches: {} retired, {} mispredicted ({:.2}%), {}A/{}B repairs",
            self.branches.retired,
            self.branches.mispredicted,
            100.0 * self.branches.mispredict_rate(),
            self.branches.repaired_in_a,
            self.branches.repaired_in_b,
        )?;
        if let Some(tp) = &self.two_pass {
            writeln!(
                f,
                "  two-pass: {:.1}% deferred, {} conflict flushes, avg queue {:.1}",
                100.0 * tp.deferral_rate(),
                tp.store_conflict_flushes,
                tp.queue_occupancy_sum as f64 / self.cycles.max(1) as f64,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report(model: ModelKind, cycles: u64, retired: u64) -> SimReport {
        SimReport {
            model,
            cycles,
            retired,
            breakdown: CycleBreakdown::new(),
            breakdown2: CauseBreakdown::new(),
            stall_profile: StallProfile::new(),
            mem: MemAccessStats::default(),
            branches: BranchStats::default(),
            hierarchy: HierarchyStats::default(),
            mshr: MshrStats::default(),
            two_pass: None,
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn ipc_and_normalization() {
        let base = empty_report(ModelKind::Baseline, 1000, 2000);
        let tp = empty_report(ModelKind::TwoPass, 800, 2000);
        assert_eq!(base.ipc(), 2.0);
        assert!((tp.normalized_cycles(&base) - 0.8).abs() < 1e-12);
        assert!((tp.speedup_over(&base) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn mem_access_stats_accumulate_by_pipe_and_level() {
        let mut m = MemAccessStats::default();
        m.record_load(Pipe::A, MemLevel::L2, 5);
        m.record_load(Pipe::A, MemLevel::L2, 5);
        m.record_load(Pipe::B, MemLevel::Mem, 145);
        assert_eq!(m.loads_in(Pipe::A), 2);
        assert_eq!(m.loads_in(Pipe::B), 1);
        assert_eq!(m.access_cycles(Pipe::A, MemLevel::L2), 10);
        assert_eq!(m.access_cycles_in(Pipe::B), 145);
    }

    #[test]
    fn branch_stats_fractions() {
        let b = BranchStats { retired: 100, mispredicted: 10, repaired_in_a: 3, repaired_in_b: 7 };
        assert!((b.mispredict_rate() - 0.1).abs() < 1e-12);
        assert!((b.a_repair_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(BranchStats::default().mispredict_rate(), 0.0);
    }

    #[test]
    fn two_pass_stats_rates() {
        let tp = TwoPassStats {
            dispatched_a: 200,
            deferred: 50,
            loads_past_deferred_store: 100,
            loads_past_deferred_store_conflicting: 3,
            ..TwoPassStats::default()
        };
        assert!((tp.deferral_rate() - 0.25).abs() < 1e-12);
        assert!((tp.risky_load_clean_fraction() - 0.97).abs() < 1e-12);
        assert_eq!(TwoPassStats::default().risky_load_clean_fraction(), 1.0);
    }

    #[test]
    fn model_kind_display_matches_paper_labels() {
        assert_eq!(ModelKind::Baseline.to_string(), "base");
        assert_eq!(ModelKind::TwoPass.to_string(), "2P");
        assert_eq!(ModelKind::TwoPassRegroup.to_string(), "2Pre");
    }

    #[test]
    fn model_kind_round_trips_through_its_names() {
        for kind in ModelKind::ALL {
            assert_eq!(kind.to_string().parse::<ModelKind>(), Ok(kind));
        }
        let cli = ["base", "2p", "2pre", "runahead"];
        for (name, kind) in cli.into_iter().zip(ModelKind::ALL) {
            assert_eq!(name.parse::<ModelKind>(), Ok(kind), "{name}");
        }
        assert!("2q".parse::<ModelKind>().is_err());
        assert!("".parse::<ModelKind>().is_err());
    }

    #[test]
    fn collect_metrics_flattens_all_subsystems() {
        let mut r = empty_report(ModelKind::TwoPass, 10, 20);
        let mut tp = TwoPassStats { deferred: 4, ..TwoPassStats::default() };
        tp.queue_depth_hist.observe(3);
        r.two_pass = Some(tp);
        r.collect_metrics();
        assert_eq!(r.metrics.counter("sim.cycles"), Some(10));
        assert_eq!(r.metrics.counter("two_pass.deferred"), Some(4));
        assert_eq!(r.metrics.counter("cycles.unstalled"), Some(0));
        assert_eq!(r.metrics.counter("stall.cause.issue"), Some(0));
        assert_eq!(r.metrics.counter("stall.cause.load.mem"), Some(0));
        assert_eq!(r.metrics.histogram("two_pass.queue_depth").unwrap().count(), 1);
        // Baseline reports omit the two-pass scopes entirely.
        let mut base = empty_report(ModelKind::Baseline, 5, 5);
        base.collect_metrics();
        assert_eq!(base.metrics.counter("two_pass.deferred"), None);
        assert!(base.metrics.counter("mshr.allocations").is_some());
    }

    #[test]
    fn report_display_mentions_key_numbers() {
        let r = empty_report(ModelKind::TwoPass, 10, 20);
        let s = r.to_string();
        assert!(s.contains("cycles=10"));
        assert!(s.contains("ipc=2.000"));
    }
}
