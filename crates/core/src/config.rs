//! Machine configuration (the paper's Table 1, plus two-pass knobs).

use ff_isa::FuClass;
use ff_mem::{AlatConfig, CacheGeometry, HierarchyConfig};
use ff_predict::PredictorConfig;
use serde::{Deserialize, Serialize};
use std::ops::Index;

/// The paper's L1 instruction cache (Table 1 L1I: 16 KB, 4-way, 64-byte
/// lines), which every model's front end uses.
pub const L1I_GEOMETRY: CacheGeometry = CacheGeometry::new(16 * 1024, 4, 64);

/// Per-cycle functional-unit issue slots (Table 1: "8-issue, 5 ALU,
/// 3 Memory, 3 FP, 3 Branch").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuSlots {
    /// Integer ALU operations per cycle.
    pub alu: usize,
    /// Memory operations per cycle.
    pub mem: usize,
    /// Floating-point operations per cycle.
    pub fp: usize,
    /// Branches per cycle.
    pub branch: usize,
}

impl FuSlots {
    /// The paper's slot mix.
    #[must_use]
    pub fn paper_table1() -> Self {
        FuSlots { alu: 5, mem: 3, fp: 3, branch: 3 }
    }
}

/// The slots of one functional-unit class.
impl Index<FuClass> for FuSlots {
    type Output = usize;

    fn index(&self, class: FuClass) -> &usize {
        match class {
            FuClass::Alu => &self.alu,
            FuClass::Mem => &self.mem,
            FuClass::Fp => &self.fp,
            FuClass::Branch => &self.branch,
        }
    }
}

/// Fixed operation latencies in cycles (loads are decided by the memory
/// hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpLatencies {
    /// Single-cycle integer ops.
    pub int: u64,
    /// Integer multiply.
    pub mul: u64,
    /// FP add/sub/mul/convert/compare.
    pub fp_arith: u64,
    /// FP divide.
    pub fp_div: u64,
}

impl OpLatencies {
    /// Latencies used throughout the evaluation: 1-cycle integer,
    /// 3-cycle multiply, 4-cycle FP arithmetic, 16-cycle FP divide.
    #[must_use]
    pub fn defaults() -> Self {
        OpLatencies { int: 1, mul: 3, fp_arith: 4, fp_div: 16 }
    }

    /// Cycles for one latency class. Loads have no fixed latency — the
    /// hierarchy decides — so the caller supplies `load_latency` (the
    /// engines pass 0 and overwrite per access; the static analyzer
    /// passes an all-hit or all-miss assumption).
    #[must_use]
    pub fn for_class(&self, lc: ff_isa::LatencyClass, load_latency: u64) -> u64 {
        use ff_isa::LatencyClass;
        match lc {
            LatencyClass::Int | LatencyClass::Store | LatencyClass::Branch => self.int,
            LatencyClass::Mul => self.mul,
            LatencyClass::FpArith => self.fp_arith,
            LatencyClass::FpDiv => self.fp_div,
            LatencyClass::Load => load_latency,
        }
    }
}

/// Latency of the B-pipe → A-pipe committed-result feedback path
/// (paper Figure 8 sweeps this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeedbackLatency {
    /// Updates arrive a fixed number of cycles after B-pipe retirement.
    Cycles(u64),
    /// The feedback path is disabled (the paper's "inf" point).
    Infinite,
}

impl FeedbackLatency {
    /// Whether updates ever arrive.
    #[must_use]
    pub fn is_finite(self) -> bool {
        matches!(self, FeedbackLatency::Cycles(_))
    }
}

/// A-pipe issue moderation (the paper's §3.5 future-work mechanism:
/// "flushing instructions out of the queue and restarting the A-pipe
/// issue after the B-pipe has cleared some of the backlog may be
/// preferable to accumulating a long sequence of deferred
/// instructions").
///
/// When the deferral rate over the last `window` dispatches exceeds
/// `defer_threshold` and the coupling queue is deeper than
/// `resume_occupancy`, the A-pipe pauses dispatch until the B-pipe
/// drains the queue back to `resume_occupancy`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThrottleConfig {
    /// Sliding window of dispatches used to estimate the deferral rate.
    pub window: usize,
    /// Deferral-rate trigger (0.0..=1.0).
    pub defer_threshold: f64,
    /// Queue occupancy at which the A-pipe resumes.
    pub resume_occupancy: usize,
}

impl Default for ThrottleConfig {
    fn default() -> Self {
        ThrottleConfig { window: 64, defer_threshold: 0.85, resume_occupancy: 8 }
    }
}

/// Options specific to the two-pass (flea-flicker) machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoPassConfig {
    /// Coupling-queue capacity in instructions (Table 1: 64).
    pub queue_size: usize,
    /// B→A committed-result feedback latency (default 1 cycle).
    pub feedback_latency: FeedbackLatency,
    /// Enable B-pipe instruction regrouping (the paper's `2Pre`).
    pub regroup: bool,
    /// ALAT capacity model (Table 1: perfect).
    pub alat: AlatConfig,
    /// Speculative store buffer capacity.
    pub store_buffer_size: usize,
    /// Extra misprediction-recovery cycles for branches resolved in the
    /// B-pipe (on top of the baseline redirect penalty), covering the
    /// queue stages and the A-file repair from the B-file.
    pub bdet_extra_penalty: u64,
    /// If set, the A-pipe stalls for *anticipable* latencies (FP
    /// arithmetic) rather than deferring their consumers — the remedy the
    /// paper suggests for 175.vpr's FP deferral chains (§4).
    pub stall_on_anticipable_fp: bool,
    /// Optional A-pipe issue moderation under heavy deferral (§3.5
    /// future work). `None` (the paper's evaluated machine) never
    /// throttles.
    pub throttle: Option<ThrottleConfig>,
}

impl Default for TwoPassConfig {
    fn default() -> Self {
        TwoPassConfig {
            queue_size: 64,
            feedback_latency: FeedbackLatency::Cycles(1),
            regroup: false,
            alat: AlatConfig::Perfect,
            store_buffer_size: 32,
            bdet_extra_penalty: 8,
            stall_on_anticipable_fp: false,
            throttle: None,
        }
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Maximum instructions issued per cycle per pipe (Table 1: 8).
    pub issue_width: usize,
    /// Functional-unit slot mix.
    pub fu_slots: FuSlots,
    /// Fixed operation latencies.
    pub latencies: OpLatencies,
    /// Data-cache hierarchy (Table 1 geometries and latencies).
    pub hierarchy: HierarchyConfig,
    /// Maximum outstanding loads — MSHR capacity (Table 1: 16).
    pub max_outstanding_loads: usize,
    /// Branch-direction predictor (Table 1: 1024-entry gshare).
    pub predictor: PredictorConfig,
    /// Front-end depth in cycles (IPG/ROT/EXP/DEC); part of the branch
    /// misprediction redirect penalty.
    pub frontend_depth: u64,
    /// Cycles from issue to the DET stage; the other part of the redirect
    /// penalty. The paper's machine is "one stage longer than Itanium 2".
    pub exec_to_det: u64,
    /// Fetch-buffer capacity in instructions.
    pub fetch_buffer: usize,
    /// Instruction-cache hit latency (Table 1 L1I: 2 cycles — modeled as
    /// pipelined, so it only costs on a miss).
    pub icache_miss_latency: u64,
    /// Two-pass options (ignored by the baseline model).
    pub two_pass: TwoPassConfig,
    /// Event-driven fast-forward: when a cycle provably makes no
    /// architectural progress, jump the clock straight to the next
    /// enabled event (scoreboard `ready_at`, MSHR fill completion,
    /// front-end refill arrival, B→A feedback arrival) and bulk-charge
    /// the skipped span. Results are byte-identical either way — this is
    /// purely a simulator-throughput knob, so it is on by default and
    /// deliberately excluded from sweep cache keys.
    pub fast_forward: bool,
}

impl MachineConfig {
    /// The paper's Table 1 machine.
    #[must_use]
    pub fn paper_table1() -> Self {
        MachineConfig {
            issue_width: 8,
            fu_slots: FuSlots::paper_table1(),
            latencies: OpLatencies::defaults(),
            hierarchy: HierarchyConfig::paper_table1(),
            max_outstanding_loads: 16,
            predictor: PredictorConfig::paper_table1(),
            frontend_depth: 4,
            exec_to_det: 2,
            fetch_buffer: 32,
            icache_miss_latency: 10,
            two_pass: TwoPassConfig::default(),
            fast_forward: true,
        }
    }

    /// Baseline misprediction redirect penalty in cycles (branch resolved
    /// at A-DET or the baseline's DET).
    #[must_use]
    pub fn adet_penalty(&self) -> u64 {
        self.frontend_depth + self.exec_to_det
    }

    /// Redirect penalty for branches resolved in the B-pipe.
    #[must_use]
    pub fn bdet_penalty(&self) -> u64 {
        self.adet_penalty() + self.two_pass.bdet_extra_penalty
    }

    /// Load latency under the *all-hit* assumption: every access hits
    /// L1. No load completes faster on this machine (MSHR merges are
    /// clamped to their own hierarchy latency), so dependence heights
    /// computed with this value lower-bound every model.
    #[must_use]
    pub fn all_hit_load_latency(&self) -> u64 {
        self.hierarchy.l1_latency
    }

    /// Load latency under the *all-miss* assumption: every access goes
    /// to main memory. This is the opposite extreme, not a bound on the
    /// real machine (loads may hit); the analyzer reports it to bracket
    /// where a schedule can land.
    #[must_use]
    pub fn all_miss_load_latency(&self) -> u64 {
        self.hierarchy.mem_latency
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_matches_table1() {
        let c = MachineConfig::paper_table1();
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.fu_slots.alu, 5);
        assert_eq!(c.fu_slots.mem, 3);
        assert_eq!(c.fu_slots.fp, 3);
        assert_eq!(c.fu_slots.branch, 3);
        assert_eq!(c.max_outstanding_loads, 16);
        assert_eq!(c.two_pass.queue_size, 64);
        assert_eq!(c.hierarchy.mem_latency, 145);
        assert!(matches!(c.two_pass.alat, AlatConfig::Perfect));
    }

    #[test]
    fn bdet_penalty_exceeds_adet() {
        let c = MachineConfig::paper_table1();
        assert!(c.bdet_penalty() > c.adet_penalty());
        assert_eq!(c.adet_penalty(), 6);
    }

    #[test]
    fn feedback_latency_finiteness() {
        assert!(FeedbackLatency::Cycles(0).is_finite());
        assert!(!FeedbackLatency::Infinite.is_finite());
    }
}
