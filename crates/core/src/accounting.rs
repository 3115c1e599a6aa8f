//! Cycle accounting in the paper's six classes (Figure 6), refined to
//! per-cause, per-site attribution.
//!
//! Every simulated cycle of the *architectural* pipe (the only pipe in
//! the baseline; the B-pipe in the two-pass machine) is charged to
//! exactly one [`CycleClass`]. The breakdown therefore always sums to
//! total cycles — an invariant the test suite checks on every run.
//!
//! Below each class sits a [`StallCause`]: *which* miss level a load
//! stall waited on, *which* producer kind a dependence stall waited on,
//! *which* structure filled up. The cause is the only verdict a
//! simulated cycle carries: its class is the cause's parent
//! ([`StallCause::class`]). The engine charges causes into a
//! [`CauseBreakdown`] and reports the [`CycleBreakdown`] as its
//! collapse ([`CauseBreakdown::collapse`]), so the sums-to-total
//! invariant holds at both levels. Causes that name a blocking static
//! instruction additionally accumulate into a [`StallProfile`] — a
//! `perf report` for the simulated program.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::ops::{Add, AddAssign, Index};

/// The condition of the architectural pipe during one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CycleClass {
    /// At least one instruction was issued/retired.
    Unstalled,
    /// Blocked on an operand produced by an outstanding load.
    LoadStall,
    /// Blocked on a non-load dependence (FP latency, multiply, ...).
    NonLoadDepStall,
    /// Blocked on an oversubscribed resource (MSHRs, store buffer,
    /// functional-unit slots).
    ResourceStall,
    /// Nothing to issue: the front end is refilling (misprediction
    /// redirect, I-cache miss) or the program drained.
    FrontEndStall,
    /// Two-pass only: the B-pipe is ready but the A-pipe has not put
    /// anything consumable in the coupling queue yet (the "A-pipe is
    /// required to stay at least one cycle ahead" condition).
    APipeStall,
}

impl CycleClass {
    /// All classes, in the order the paper's Figure 6 legend lists them.
    pub const ALL: [CycleClass; 6] = [
        CycleClass::Unstalled,
        CycleClass::LoadStall,
        CycleClass::NonLoadDepStall,
        CycleClass::ResourceStall,
        CycleClass::FrontEndStall,
        CycleClass::APipeStall,
    ];

    /// Dense index for breakdown arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            CycleClass::Unstalled => 0,
            CycleClass::LoadStall => 1,
            CycleClass::NonLoadDepStall => 2,
            CycleClass::ResourceStall => 3,
            CycleClass::FrontEndStall => 4,
            CycleClass::APipeStall => 5,
        }
    }

    /// Short label used in harness tables.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            CycleClass::Unstalled => "unstalled",
            CycleClass::LoadStall => "load-stall",
            CycleClass::NonLoadDepStall => "nonload-dep",
            CycleClass::ResourceStall => "resource",
            CycleClass::FrontEndStall => "front-end",
            CycleClass::APipeStall => "a-pipe",
        }
    }
}

impl fmt::Display for CycleClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cycle counts per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleBreakdown {
    counts: [u64; 6],
}

impl CycleBreakdown {
    /// An all-zero breakdown.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one cycle to `class`.
    pub fn charge(&mut self, class: CycleClass) {
        self.counts[class.index()] += 1;
    }

    /// Charges `n` cycles to `class`.
    pub fn charge_n(&mut self, class: CycleClass, n: u64) {
        self.counts[class.index()] += n;
    }

    /// Total cycles across all classes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Cycles charged to memory (load) stalls.
    #[must_use]
    pub fn load_stalls(&self) -> u64 {
        self.counts[CycleClass::LoadStall.index()]
    }

    /// Fraction of total cycles in `class` (0 when empty).
    #[must_use]
    pub fn fraction(&self, class: CycleClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.counts[class.index()] as f64 / total as f64
        }
    }

    /// Iterates `(class, count)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (CycleClass, u64)> + '_ {
        CycleClass::ALL.iter().map(move |&c| (c, self.counts[c.index()]))
    }
}

impl Index<CycleClass> for CycleBreakdown {
    type Output = u64;

    fn index(&self, class: CycleClass) -> &u64 {
        &self.counts[class.index()]
    }
}

impl Add for CycleBreakdown {
    type Output = CycleBreakdown;

    fn add(mut self, rhs: CycleBreakdown) -> CycleBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for CycleBreakdown {
    fn add_assign(&mut self, rhs: CycleBreakdown) {
        for i in 0..6 {
            self.counts[i] += rhs.counts[i];
        }
    }
}

impl fmt::Display for CycleBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total().max(1);
        for (i, (class, count)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{}: {} ({:.1}%)", class, count, 100.0 * count as f64 / total as f64)?;
        }
        Ok(())
    }
}

/// Number of refined stall causes (the width of a [`CauseBreakdown`]).
pub const N_CAUSES: usize = 15;

/// The refined cause of a cycle, one level below [`CycleClass`].
///
/// Every cause belongs to exactly one parent class ([`StallCause::class`]).
/// The vocabulary is deliberately wider than what the current models can
/// charge: `ResStoreBuffer`, `ResCouplingQueue`, and `ResFuSlot` are
/// structurally zero today — a full store buffer or coupling queue shows
/// up as A-pipe deferral or idling rather than an architectural-pipe
/// stall, and functional-unit oversubscription splits issue groups
/// instead of stalling them — but they keep the `stall.cause.*` metric
/// namespace stable as the models grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StallCause {
    /// [`CycleClass::Unstalled`]: at least one instruction issued.
    Issue,
    /// [`CycleClass::LoadStall`] on a load the L1 serviced (a consumer
    /// caught inside the L1 load-use window, or a fill-clamped L1 hit
    /// whose in-flight line was first requested at L1 speed).
    LoadL1,
    /// [`CycleClass::LoadStall`] on a load the L2 serviced.
    LoadL2,
    /// [`CycleClass::LoadStall`] on a load the L3 serviced.
    LoadL3,
    /// [`CycleClass::LoadStall`] on a load main memory serviced.
    LoadMem,
    /// [`CycleClass::NonLoadDepStall`] on an FP producer (arith or div).
    DepFp,
    /// [`CycleClass::NonLoadDepStall`] on an integer multiply.
    DepIntMul,
    /// [`CycleClass::NonLoadDepStall`] on any other producer (same-group
    /// cross dependences, deferred peers, single-cycle chains).
    DepOther,
    /// [`CycleClass::ResourceStall`]: a load could not issue because
    /// every MSHR is busy.
    ResMshr,
    /// [`CycleClass::ResourceStall`]: store-buffer full (structurally
    /// zero under the current models; reserved).
    ResStoreBuffer,
    /// [`CycleClass::ResourceStall`]: coupling-queue full (structurally
    /// zero under the current models; reserved).
    ResCouplingQueue,
    /// [`CycleClass::ResourceStall`]: functional-unit slot contention
    /// (structurally zero under the current models; reserved).
    ResFuSlot,
    /// [`CycleClass::FrontEndStall`] while fetch is refilling after a
    /// redirect or I-cache miss penalty.
    FeRefill,
    /// [`CycleClass::FrontEndStall`] with fetch active but no complete
    /// issue group buffered (fetch-bandwidth limited, or drained).
    FeEmpty,
    /// [`CycleClass::APipeStall`]: the B-pipe is ready but the A-pipe
    /// has nothing consumable queued.
    APipe,
}

impl StallCause {
    /// All causes, grouped by parent class in display order.
    pub const ALL: [StallCause; N_CAUSES] = [
        StallCause::Issue,
        StallCause::LoadL1,
        StallCause::LoadL2,
        StallCause::LoadL3,
        StallCause::LoadMem,
        StallCause::DepFp,
        StallCause::DepIntMul,
        StallCause::DepOther,
        StallCause::ResMshr,
        StallCause::ResStoreBuffer,
        StallCause::ResCouplingQueue,
        StallCause::ResFuSlot,
        StallCause::FeRefill,
        StallCause::FeEmpty,
        StallCause::APipe,
    ];

    /// Dense index for breakdown arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            StallCause::Issue => 0,
            StallCause::LoadL1 => 1,
            StallCause::LoadL2 => 2,
            StallCause::LoadL3 => 3,
            StallCause::LoadMem => 4,
            StallCause::DepFp => 5,
            StallCause::DepIntMul => 6,
            StallCause::DepOther => 7,
            StallCause::ResMshr => 8,
            StallCause::ResStoreBuffer => 9,
            StallCause::ResCouplingQueue => 10,
            StallCause::ResFuSlot => 11,
            StallCause::FeRefill => 12,
            StallCause::FeEmpty => 13,
            StallCause::APipe => 14,
        }
    }

    /// The parent Figure-6 class this cause refines.
    #[must_use]
    pub const fn class(self) -> CycleClass {
        match self {
            StallCause::Issue => CycleClass::Unstalled,
            StallCause::LoadL1 | StallCause::LoadL2 | StallCause::LoadL3 | StallCause::LoadMem => {
                CycleClass::LoadStall
            }
            StallCause::DepFp | StallCause::DepIntMul | StallCause::DepOther => {
                CycleClass::NonLoadDepStall
            }
            StallCause::ResMshr
            | StallCause::ResStoreBuffer
            | StallCause::ResCouplingQueue
            | StallCause::ResFuSlot => CycleClass::ResourceStall,
            StallCause::FeRefill | StallCause::FeEmpty => CycleClass::FrontEndStall,
            StallCause::APipe => CycleClass::APipeStall,
        }
    }

    /// Dotted label, e.g. `load.l2`: the cause's name in CPI stacks,
    /// report diffs and command lines (see [`StallCause::from_label`]).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            StallCause::Issue => "issue",
            StallCause::LoadL1 => "load.l1",
            StallCause::LoadL2 => "load.l2",
            StallCause::LoadL3 => "load.l3",
            StallCause::LoadMem => "load.mem",
            StallCause::DepFp => "dep.fp",
            StallCause::DepIntMul => "dep.int_mul",
            StallCause::DepOther => "dep.other",
            StallCause::ResMshr => "res.mshr",
            StallCause::ResStoreBuffer => "res.store_buffer",
            StallCause::ResCouplingQueue => "res.queue",
            StallCause::ResFuSlot => "res.fu_slot",
            StallCause::FeRefill => "fe.refill",
            StallCause::FeEmpty => "fe.empty",
            StallCause::APipe => "a_pipe",
        }
    }

    /// Inverse of [`StallCause::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<StallCause> {
        StallCause::ALL.iter().copied().find(|c| c.label() == label)
    }

    /// Whether cycles under this cause blame a specific static
    /// instruction (and therefore land in a [`StallProfile`]).
    #[must_use]
    pub const fn has_site(self) -> bool {
        !matches!(
            self,
            StallCause::Issue | StallCause::FeRefill | StallCause::FeEmpty | StallCause::APipe
        )
    }

    /// The load-stall cause for a load serviced at `level`.
    #[must_use]
    pub const fn load(level: ff_mem::MemLevel) -> StallCause {
        match level {
            ff_mem::MemLevel::L1 => StallCause::LoadL1,
            ff_mem::MemLevel::L2 => StallCause::LoadL2,
            ff_mem::MemLevel::L3 => StallCause::LoadL3,
            ff_mem::MemLevel::Mem => StallCause::LoadMem,
        }
    }

    /// The dependence-stall cause for a producer of latency class `lc`.
    #[must_use]
    pub const fn dep(lc: ff_isa::LatencyClass) -> StallCause {
        match lc {
            ff_isa::LatencyClass::Mul => StallCause::DepIntMul,
            ff_isa::LatencyClass::FpArith | ff_isa::LatencyClass::FpDiv => StallCause::DepFp,
            _ => StallCause::DepOther,
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A cycle's refined attribution: the cause plus, when a single static
/// instruction is to blame, that instruction's pc.
///
/// The blamed pc is the *producer* — the instruction whose result (or
/// resource claim) the pipe is waiting on — not the stalled consumer
/// group, matching what a programmer would want circled in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallAttr {
    /// The refined cause.
    pub cause: StallCause,
    /// Static pc of the blocking instruction, when one exists.
    pub pc: Option<usize>,
}

impl StallAttr {
    /// An attribution with no blamed instruction.
    #[must_use]
    pub const fn new(cause: StallCause) -> Self {
        Self { cause, pc: None }
    }

    /// An attribution blaming the instruction at `pc`.
    #[must_use]
    pub const fn at(cause: StallCause, pc: usize) -> Self {
        Self { cause, pc: Some(pc) }
    }
}

/// Cycle counts per refined [`StallCause`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CauseBreakdown {
    counts: [u64; N_CAUSES],
}

impl CauseBreakdown {
    /// An all-zero breakdown.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one cycle to `cause`.
    pub fn charge(&mut self, cause: StallCause) {
        self.counts[cause.index()] += 1;
    }

    /// Charges `n` cycles to `cause`.
    pub fn charge_n(&mut self, cause: StallCause, n: u64) {
        self.counts[cause.index()] += n;
    }

    /// Total cycles across all causes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total cycles across the causes under `class`.
    #[must_use]
    pub fn class_total(&self, class: CycleClass) -> u64 {
        StallCause::ALL.iter().filter(|c| c.class() == class).map(|c| self.counts[c.index()]).sum()
    }

    /// Total cycles under causes that blame a static instruction — the
    /// amount the matching [`StallProfile`] accounts for.
    #[must_use]
    pub fn attributable_total(&self) -> u64 {
        StallCause::ALL.iter().filter(|c| c.has_site()).map(|c| self.counts[c.index()]).sum()
    }

    /// Collapses the refined counts into the parent six-class breakdown.
    #[must_use]
    pub fn collapse(&self) -> CycleBreakdown {
        let mut b = CycleBreakdown::new();
        for (cause, n) in self.iter() {
            b.charge_n(cause.class(), n);
        }
        b
    }

    /// Fraction of total cycles in `cause` (0 when empty).
    #[must_use]
    pub fn fraction(&self, cause: StallCause) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.counts[cause.index()] as f64 / total as f64
        }
    }

    /// Iterates `(cause, count)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.iter().map(move |&c| (c, self.counts[c.index()]))
    }
}

impl Index<StallCause> for CauseBreakdown {
    type Output = u64;

    fn index(&self, cause: StallCause) -> &u64 {
        &self.counts[cause.index()]
    }
}

impl Add for CauseBreakdown {
    type Output = CauseBreakdown;

    fn add(mut self, rhs: CauseBreakdown) -> CauseBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for CauseBreakdown {
    fn add_assign(&mut self, rhs: CauseBreakdown) {
        for i in 0..N_CAUSES {
            self.counts[i] += rhs.counts[i];
        }
    }
}

impl fmt::Display for CauseBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total().max(1);
        let mut first = true;
        for (cause, count) in self.iter() {
            if count == 0 {
                continue;
            }
            if !first {
                write!(f, "  ")?;
            }
            first = false;
            write!(f, "{}: {} ({:.1}%)", cause, count, 100.0 * count as f64 / total as f64)?;
        }
        Ok(())
    }
}

/// One (static pc, cause) entry of a [`StallProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallSite {
    /// Static pc of the blamed instruction.
    pub pc: usize,
    /// The refined cause charged against it.
    pub cause: StallCause,
    /// Cycles accumulated.
    pub cycles: u64,
}

/// Per-static-pc stall attribution: which instructions the pipe spent
/// its stall cycles waiting on, split by [`StallCause`] — the simulated
/// program's `perf report`.
///
/// Only causes with [`StallCause::has_site`] accumulate here, so the
/// profile total equals [`CauseBreakdown::attributable_total`] of the
/// run's refined breakdown.
///
/// Blamed pcs are static program indices, so the backing store is a
/// dense per-pc table grown on first touch: [`StallProfile::record`]
/// sits on every stalled cycle of every model's hot loop, and an array
/// increment there beats a hash-map entry probe.
#[derive(Debug, Clone, Default)]
pub struct StallProfile {
    /// `rows[pc][cause.index()]` = accumulated cycles.
    rows: Vec<[u64; N_CAUSES]>,
    /// Distinct nonzero (pc, cause) cells.
    sites: usize,
    /// Sum of all cells.
    total: u64,
}

/// Equality over recorded sites only — trailing all-zero rows from
/// differing grow patterns don't distinguish two profiles.
impl PartialEq for StallProfile {
    fn eq(&self, other: &Self) -> bool {
        let common = self.rows.len().min(other.rows.len());
        self.rows[..common] == other.rows[..common]
            && self.rows[common..].iter().all(|r| r.iter().all(|&c| c == 0))
            && other.rows[common..].iter().all(|r| r.iter().all(|&c| c == 0))
    }
}

impl StallProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one cycle against the instruction at `pc`.
    #[inline]
    pub fn record(&mut self, pc: usize, cause: StallCause) {
        self.record_n(pc, cause, 1);
    }

    /// Charges `n` cycles against the instruction at `pc`.
    #[inline]
    pub fn record_n(&mut self, pc: usize, cause: StallCause, n: u64) {
        debug_assert!(cause.has_site(), "{cause} has no blamed instruction");
        if n == 0 {
            return;
        }
        if pc >= self.rows.len() {
            self.rows.resize(pc + 1, [0; N_CAUSES]);
        }
        let cell = &mut self.rows[pc][cause.index()];
        if *cell == 0 {
            self.sites += 1;
        }
        *cell += n;
        self.total += n;
    }

    /// Total cycles across all sites.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct (pc, cause) sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sites
    }

    /// Whether no site has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites == 0
    }

    /// All sites in a deterministic order (pc, then cause).
    #[must_use]
    pub fn sites(&self) -> Vec<StallSite> {
        let mut v = Vec::with_capacity(self.sites);
        for (pc, row) in self.rows.iter().enumerate() {
            for cause in StallCause::ALL {
                let cycles = row[cause.index()];
                if cycles != 0 {
                    v.push(StallSite { pc, cause, cycles });
                }
            }
        }
        v
    }

    /// The `n` hottest sites, most cycles first (ties broken by pc,
    /// then cause, for deterministic output).
    #[must_use]
    pub fn top(&self, n: usize) -> Vec<StallSite> {
        let mut v = self.sites();
        v.sort_by_key(|s| (std::cmp::Reverse(s.cycles), s.pc, s.cause.index()));
        v.truncate(n);
        v
    }
}

impl Serialize for StallProfile {
    fn to_value(&self) -> Value {
        Serialize::to_value(&self.sites())
    }
}

impl Deserialize for StallProfile {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let sites: Vec<StallSite> = Deserialize::from_value(v)?;
        let mut p = StallProfile::new();
        for s in sites {
            p.record_n(s.pc, s.cause, s.cycles);
        }
        Ok(p)
    }
}

impl fmt::Display for StallProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total().max(1);
        for s in self.top(10) {
            writeln!(
                f,
                "pc {:>6}  {:<16} {:>12}  {:>5.1}%",
                s.pc,
                s.cause.label(),
                s.cycles,
                100.0 * s.cycles as f64 / total as f64
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, c) in CycleClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn charge_accumulates_and_totals() {
        let mut b = CycleBreakdown::new();
        b.charge(CycleClass::Unstalled);
        b.charge(CycleClass::Unstalled);
        b.charge(CycleClass::LoadStall);
        b.charge_n(CycleClass::FrontEndStall, 3);
        assert_eq!(b.total(), 6);
        assert_eq!(b[CycleClass::Unstalled], 2);
        assert_eq!(b.load_stalls(), 1);
        assert_eq!(b[CycleClass::FrontEndStall], 3);
        assert_eq!(b[CycleClass::APipeStall], 0);
    }

    #[test]
    fn fraction_handles_empty_breakdown() {
        let b = CycleBreakdown::new();
        assert_eq!(b.fraction(CycleClass::Unstalled), 0.0);
        let mut b = b;
        b.charge(CycleClass::LoadStall);
        assert_eq!(b.fraction(CycleClass::LoadStall), 1.0);
    }

    #[test]
    fn addition_merges_counts() {
        let mut a = CycleBreakdown::new();
        a.charge(CycleClass::Unstalled);
        let mut b = CycleBreakdown::new();
        b.charge(CycleClass::Unstalled);
        b.charge(CycleClass::ResourceStall);
        let c = a + b;
        assert_eq!(c[CycleClass::Unstalled], 2);
        assert_eq!(c[CycleClass::ResourceStall], 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn display_contains_percentages() {
        let mut b = CycleBreakdown::new();
        b.charge(CycleClass::Unstalled);
        b.charge(CycleClass::LoadStall);
        let s = b.to_string();
        assert!(s.contains("unstalled: 1 (50.0%)"), "{s}");
        assert!(s.contains("load-stall: 1 (50.0%)"), "{s}");
    }

    #[test]
    fn cause_indices_are_dense_and_labels_round_trip() {
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(StallCause::from_label(c.label()), Some(*c));
        }
        assert_eq!(StallCause::from_label("nope"), None);
    }

    #[test]
    fn every_class_owns_at_least_one_cause() {
        for class in CycleClass::ALL {
            assert!(
                StallCause::ALL.iter().any(|c| c.class() == class),
                "{class} has no refined cause"
            );
        }
    }

    #[test]
    fn cause_helpers_map_levels_and_latency_classes() {
        use ff_isa::LatencyClass;
        use ff_mem::MemLevel;
        assert_eq!(StallCause::load(MemLevel::L1), StallCause::LoadL1);
        assert_eq!(StallCause::load(MemLevel::Mem), StallCause::LoadMem);
        assert_eq!(StallCause::dep(LatencyClass::Mul), StallCause::DepIntMul);
        assert_eq!(StallCause::dep(LatencyClass::FpDiv), StallCause::DepFp);
        assert_eq!(StallCause::dep(LatencyClass::FpArith), StallCause::DepFp);
        assert_eq!(StallCause::dep(LatencyClass::Int), StallCause::DepOther);
        for c in StallCause::ALL {
            if c.has_site() {
                assert!(
                    matches!(c.class(), CycleClass::LoadStall)
                        || matches!(c.class(), CycleClass::NonLoadDepStall)
                        || matches!(c.class(), CycleClass::ResourceStall),
                    "{c} should not carry a site"
                );
            }
        }
    }

    #[test]
    fn cause_breakdown_collapses_to_classes() {
        let mut b2 = CauseBreakdown::new();
        b2.charge(StallCause::Issue);
        b2.charge_n(StallCause::LoadL2, 4);
        b2.charge_n(StallCause::LoadMem, 6);
        b2.charge(StallCause::DepFp);
        b2.charge(StallCause::ResMshr);
        b2.charge_n(StallCause::FeRefill, 2);
        assert_eq!(b2.total(), 15);
        assert_eq!(b2.class_total(CycleClass::LoadStall), 10);
        assert_eq!(b2.class_total(CycleClass::APipeStall), 0);
        assert_eq!(b2.attributable_total(), 12);
        let b = b2.collapse();
        assert_eq!(b.total(), 15);
        assert_eq!(b[CycleClass::LoadStall], 10);
        assert_eq!(b[CycleClass::FrontEndStall], 2);
        assert_eq!(b2[StallCause::LoadL2], 4);
        let merged = b2 + b2;
        assert_eq!(merged.total(), 30);
    }

    #[test]
    fn cause_breakdown_serde_round_trips() {
        let mut b2 = CauseBreakdown::new();
        b2.charge_n(StallCause::LoadMem, 9);
        b2.charge(StallCause::APipe);
        let json = serde_json::to_string(&b2).unwrap();
        let back: CauseBreakdown = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b2);
    }

    #[test]
    fn profile_records_merges_and_ranks() {
        let mut p = StallProfile::new();
        p.record_n(7, StallCause::LoadMem, 100);
        p.record_n(7, StallCause::LoadMem, 50);
        p.record_n(7, StallCause::DepFp, 10);
        p.record_n(3, StallCause::ResMshr, 60);
        assert_eq!(p.total(), 220);
        assert_eq!(p.len(), 3);
        let top = p.top(2);
        assert_eq!(top[0], StallSite { pc: 7, cause: StallCause::LoadMem, cycles: 150 });
        assert_eq!(top[1], StallSite { pc: 3, cause: StallCause::ResMshr, cycles: 60 });
        p.record(7, StallCause::DepFp);
        assert_eq!(p.total(), 221);
        let text = p.to_string();
        assert!(text.contains("load.mem"), "{text}");
    }

    #[test]
    fn profile_serde_round_trips() {
        let mut p = StallProfile::new();
        p.record_n(12, StallCause::LoadL2, 40);
        p.record_n(99, StallCause::DepIntMul, 3);
        let json = serde_json::to_string(&p).unwrap();
        let back: StallProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        let empty: StallProfile = serde_json::from_str("[]").unwrap();
        assert!(empty.is_empty());
    }
}
