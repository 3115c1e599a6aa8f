//! Diagnostic vocabulary for the static checker.
//!
//! Every defect [`crate::static_check`] finds is reported as a
//! [`Diagnostic`]: a stable check code, a severity, an optional program
//! location, and a human-readable message. [`AnalysisReport`] collects
//! them and renders either plain lines or annotated issue-group listings
//! (the same `pc: insn` format `ff_trace profile` uses).

use ff_isa::Program;
use std::fmt;

/// Version of the JSON layouts `ff_verify` emits (`lint`/`all`/`random`
/// target reports and the `bounds`/`slack`/`explain` analysis tables).
/// Bumped on any breaking field change so downstream tooling can reject
/// foreign layouts.
pub const ANALYSIS_SCHEMA_VERSION: u32 = 1;

/// How bad a finding is.
///
/// * [`Severity::Error`] — the program violates EPIC legality (an
///   intra-group dependence, a malformed structure). Engines may
///   diverge from sequential semantics on such programs.
/// * [`Severity::Warning`] — legal but almost certainly a schedule bug
///   (reading a register no path ever defines, unreachable code,
///   oversubscribed functional units).
/// * [`Severity::Info`] — legal and common, but worth surfacing (dead
///   writes, groups wider than the issue width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Stylistic or performance note.
    Info,
    /// Suspicious construct, legal but likely unintended.
    Warning,
    /// Legality violation: behaviour under group issue is undefined.
    Error,
}

impl Severity {
    /// Stable lowercase label (`"error"`, `"warning"`, `"info"`).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The individual legality and lint checks, each with a stable
/// `family/name` code used in text and JSON output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Check {
    /// The program contains no instructions.
    Empty,
    /// The final instruction is neither `halt` nor an unconditional
    /// branch, so execution can fall off the end.
    MissingTerminator,
    /// A branch targets an instruction index outside the program.
    TargetOutOfRange,
    /// A branch targets the middle of an issue group.
    TargetSplitsGroup,
    /// An instruction reads a register written earlier in the same
    /// issue group (intra-group RAW).
    GroupRaw,
    /// Two same-group instructions write the same register without
    /// provably disjoint predicates (intra-group WAW).
    GroupWaw,
    /// One instruction names the same destination register twice
    /// (a `cmp` with `pt == pf`); the result is order-dependent.
    DuplicateDest,
    /// A register is read that no instruction on any path defines; the
    /// read observes the architectural power-on zero.
    UndefinedRead,
    /// A value is written but overwritten on every path before any
    /// read, and both outputs of the defining instruction are dead.
    DeadWrite,
    /// An issue group can never be reached from the entry point.
    Unreachable,
    /// An issue group contains more operations of one functional-unit
    /// class than the machine has slots per cycle.
    FuOversubscribed,
    /// An issue group is wider than the machine's issue width.
    GroupTooWide,
    /// A load's consumer is scheduled inside the load's latency shadow
    /// (closer than even an L1 hit can deliver) while having enough
    /// slack to move out of it — the statically checkable load-use
    /// placement property of SSR (arXiv 1912.10663).
    LoadUse,
    /// A long serial chain of single-cycle same-FU-class operations
    /// dominates the schedule; a fused/chained functional unit (arXiv
    /// 2503.20609) or re-association would shorten the dependence
    /// height.
    ChainOpportunity,
}

impl Check {
    /// The stable `family/name` code for this check.
    #[must_use]
    pub const fn code(self) -> &'static str {
        match self {
            Check::Empty => "structure/empty",
            Check::MissingTerminator => "structure/missing-terminator",
            Check::TargetOutOfRange => "structure/branch-target-range",
            Check::TargetSplitsGroup => "structure/branch-target-split",
            Check::GroupRaw => "group/raw",
            Check::GroupWaw => "group/waw",
            Check::DuplicateDest => "group/duplicate-dest",
            Check::UndefinedRead => "dataflow/undefined-read",
            Check::DeadWrite => "dataflow/dead-write",
            Check::Unreachable => "dataflow/unreachable",
            Check::FuOversubscribed => "resource/fu-oversubscribed",
            Check::GroupTooWide => "resource/width",
            Check::LoadUse => "schedule/load-use",
            Check::ChainOpportunity => "schedule/chain-opportunity",
        }
    }

    /// The severity this check always reports at.
    #[must_use]
    pub const fn severity(self) -> Severity {
        match self {
            Check::Empty
            | Check::MissingTerminator
            | Check::TargetOutOfRange
            | Check::TargetSplitsGroup
            | Check::GroupRaw
            | Check::GroupWaw
            | Check::DuplicateDest => Severity::Error,
            Check::UndefinedRead | Check::Unreachable | Check::FuOversubscribed => {
                Severity::Warning
            }
            Check::DeadWrite | Check::GroupTooWide | Check::LoadUse | Check::ChainOpportunity => {
                Severity::Info
            }
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: check, severity, location, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which check fired.
    pub check: Check,
    /// Severity (always `check.severity()`).
    pub severity: Severity,
    /// Static instruction index the finding anchors to, when one
    /// exists (`None` for whole-program defects such as emptiness).
    pub pc: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic at `pc`.
    #[must_use]
    pub fn at(check: Check, pc: usize, message: String) -> Self {
        Diagnostic { check, severity: check.severity(), pc: Some(pc), message }
    }

    /// Creates a whole-program diagnostic.
    #[must_use]
    pub fn global(check: Check, message: String) -> Self {
        Diagnostic { check, severity: check.severity(), pc: None, message }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.check)?;
        if let Some(pc) = self.pc {
            write!(f, " at pc {pc}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// All findings for one program, ordered by pc then discovery order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// The findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Number of findings at `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// Number of errors.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warnings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Whether the program is legal (no errors). Warnings and infos do
    /// not affect legality.
    #[must_use]
    pub fn is_legal(&self) -> bool {
        self.errors() == 0
    }

    /// Whether any diagnostic of `check` fired.
    #[must_use]
    pub fn has(&self, check: Check) -> bool {
        self.diagnostics.iter().any(|d| d.check == check)
    }

    /// Sorts findings by (pc, severity descending) for stable output.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| a.pc.cmp(&b.pc).then(b.severity.cmp(&a.severity)));
    }

    /// Renders every finding with an annotated listing of the issue
    /// group it points into, caret on the offending instruction:
    ///
    /// ```text
    /// error[group/raw] at pc 12: r5 is written at pc 11 in the same issue group
    ///       11: add r5 = r1, r2
    ///   --> 12: sub r6 = r5, r1 ;;
    /// ```
    #[must_use]
    pub fn render(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
            if let Some(pc) = d.pc {
                let (lo, hi) = group_bounds(program, pc);
                for at in lo..=hi {
                    if let Some(insn) = program.get(at) {
                        let arrow = if at == pc { "  -->" } else { "     " };
                        let _ = writeln!(out, "{arrow} {at:4}: {insn}");
                    }
                }
            }
        }
        out
    }
}

/// The `[first, last]` instruction span of the issue group containing
/// `pc`.
fn group_bounds(program: &Program, pc: usize) -> (usize, usize) {
    let mut lo = pc.min(program.len().saturating_sub(1));
    while lo > 0 && !program.is_group_start(lo) {
        lo -= 1;
    }
    let mut hi = lo;
    while hi + 1 < program.len() && !program.is_group_start(hi + 1) {
        hi += 1;
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::{Instruction, Opcode};

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn codes_are_family_slash_name() {
        assert_eq!(Check::GroupRaw.code(), "group/raw");
        assert_eq!(Check::UndefinedRead.code(), "dataflow/undefined-read");
        assert_eq!(Check::FuOversubscribed.code(), "resource/fu-oversubscribed");
    }

    #[test]
    fn display_includes_code_and_pc() {
        let d = Diagnostic::at(Check::GroupWaw, 7, "r3 written twice".into());
        assert_eq!(d.to_string(), "error[group/waw] at pc 7: r3 written twice");
        let g = Diagnostic::global(Check::Empty, "program is empty".into());
        assert_eq!(g.to_string(), "error[structure/empty]: program is empty");
    }

    #[test]
    fn report_counts_and_legality() {
        let mut r = AnalysisReport::default();
        assert!(r.is_legal());
        r.diagnostics.push(Diagnostic::at(Check::DeadWrite, 1, "x".into()));
        assert!(r.is_legal());
        r.diagnostics.push(Diagnostic::at(Check::GroupRaw, 0, "y".into()));
        assert!(!r.is_legal());
        assert_eq!(r.errors(), 1);
        assert!(r.has(Check::DeadWrite));
        assert!(!r.has(Check::GroupWaw));
    }

    #[test]
    fn render_points_at_offender_within_its_group() {
        let program = Program::new(vec![
            Instruction::new(Opcode::Nop),
            Instruction::new(Opcode::Nop).with_stop(),
            Instruction::new(Opcode::Halt),
        ])
        .unwrap();
        let mut r = AnalysisReport::default();
        r.diagnostics.push(Diagnostic::at(Check::GroupTooWide, 1, "wide".into()));
        let text = r.render(&program);
        assert!(text.contains("-->    1: nop ;;"), "got:\n{text}");
        assert!(text.contains("       0: nop\n"), "got:\n{text}");
        assert!(!text.contains("halt"), "group listing leaked past the stop bit:\n{text}");
    }
}
