//! # ff-workloads — synthetic SPEC-like kernels
//!
//! The paper (Table 2) evaluates ten SPEC95/2000 benchmarks compiled by
//! the IMPACT compiler. Neither the binaries nor the compiler are
//! reproducible here, so this crate substitutes **hand-scheduled
//! synthetic kernels**, one per benchmark, each engineered to exhibit the
//! memory-system and branch behaviour the paper reports for its
//! namesake:
//!
//! | kernel | modeled trait |
//! |---|---|
//! | `go_like` | branchy integer code, hard-to-predict data-dependent branches |
//! | `compress_like` | ubiquitous short L1-miss/L2-hit stalls on a hash table |
//! | `li_like` | L2-resident cons-cell chains (short dependent misses) |
//! | `vpr_like` | FP dependence chains the A-pipe defers wholesale (the paper's loss case) |
//! | `mcf_like` | huge-footprint arc streaming + dependent node fields (the paper's Figure 1 loop) |
//! | `equake_like` | streaming FP stencil with overlappable long misses |
//! | `parser_like` | mixed hash probes, short chains, and branches |
//! | `gap_like` | main-memory-latency pointer chase (B-pipe-dominated) |
//! | `vortex_like` | object field read-modify-write traffic with deferred stores |
//! | `twolf_like` | loads feeding branch conditions (B-DET resolution pressure) |
//!
//! Kernels follow the EPIC schedule discipline the IMPACT compiler would
//! apply: no intra-group dependences (checked by
//! [`ff_isa::check_group_hazards`] in tests) and consumers placed ≥ 2
//! groups after loads, assuming L1-hit latency.
//!
//! [`random`] additionally provides a bounded random-program generator
//! used by the cross-engine differential property tests.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod fixtures;
pub mod kernels;
pub mod random;
pub mod synth;

use ff_isa::{MemoryImage, Program};

/// A ready-to-simulate workload: program, initial memory, and metadata.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short kernel name, e.g. `"mcf-like"`.
    pub name: &'static str,
    /// The SPEC benchmark it stands in for, e.g. `"181.mcf"`.
    pub spec_ref: &'static str,
    /// One-line description of the modeled behaviour.
    pub description: &'static str,
    /// The scheduled program.
    pub program: Program,
    /// Initial data memory.
    pub memory: MemoryImage,
    /// Dynamic-instruction budget a harness run should use.
    pub budget: u64,
}

/// Simulation scale: multiplies each kernel's iteration count.
///
/// `Tiny` is for unit tests, `Test` for the default harness runs
/// (seconds per benchmark), `Reference` for longer, more stable numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few hundred iterations: unit-test sized.
    Tiny,
    /// The default harness scale (hundreds of thousands of dynamic
    /// instructions per kernel).
    Test,
    /// Several times `Test`, for low-variance measurements.
    Reference,
}

impl Scale {
    /// Stable lowercase label (`"tiny"`, `"test"`, `"ref"`), used in
    /// CLI parsing and cache keys.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Test => "test",
            Scale::Reference => "ref",
        }
    }

    /// Iteration multiplier relative to `Tiny`.
    #[must_use]
    pub fn factor(self) -> u64 {
        match self {
            Scale::Tiny => 1,
            Scale::Test => 64,
            Scale::Reference => 256,
        }
    }
}

/// Parses a scale label; accepts `"reference"` as an alias of `"ref"`.
impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Scale, String> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "test" => Ok(Scale::Test),
            "ref" | "reference" => Ok(Scale::Reference),
            _ => Err(format!("unknown scale `{s}` (expected tiny, test or ref)")),
        }
    }
}

/// All ten paper benchmarks at the given scale, in Table 2 order.
#[must_use]
pub fn paper_benchmarks(scale: Scale) -> Vec<Workload> {
    let f = scale.factor();
    vec![
        kernels::go_like(100 * f),
        kernels::compress_like(150 * f),
        kernels::li_like(150 * f),
        kernels::vpr_like(100 * f),
        kernels::mcf_like(60 * f),
        kernels::equake_like(60 * f),
        kernels::parser_like(80 * f),
        kernels::gap_like(30 * f),
        kernels::vortex_like(100 * f),
        kernels::twolf_like(100 * f),
    ]
}

/// Looks up one paper benchmark by kernel name (e.g. `"mcf-like"`) or by
/// SPEC reference (e.g. `"181.mcf"`).
#[must_use]
pub fn benchmark_by_name(name: &str, scale: Scale) -> Option<Workload> {
    paper_benchmarks(scale).into_iter().find(|w| w.name == name || w.spec_ref == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_benchmarks_in_table2_order() {
        let all = paper_benchmarks(Scale::Tiny);
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].spec_ref, "099.go");
        assert_eq!(all[4].spec_ref, "181.mcf");
        assert_eq!(all[9].spec_ref, "300.twolf");
    }

    #[test]
    fn lookup_by_either_name() {
        assert!(benchmark_by_name("mcf-like", Scale::Tiny).is_some());
        assert!(benchmark_by_name("181.mcf", Scale::Tiny).is_some());
        assert!(benchmark_by_name("nonesuch", Scale::Tiny).is_none());
    }

    #[test]
    fn scale_factors_are_ordered() {
        assert!(Scale::Tiny.factor() < Scale::Test.factor());
        assert!(Scale::Test.factor() < Scale::Reference.factor());
    }
}
