//! The ten Table 2 benchmark kernels.
//!
//! Each submodule builds one hand-scheduled synthetic kernel named for
//! the SPEC benchmark whose memory/branch character it reproduces. All
//! kernels observe the EPIC schedule discipline (no intra-group
//! dependences; load consumers ≥ 2 groups downstream) and are validated
//! by [`ff_isa::check_group_hazards`] in their tests.

mod compress;
mod equake;
mod gap;
mod go;
mod li;
mod mcf;
mod parser;
mod twolf;
mod vortex;
mod vpr;

pub use compress::compress_like;
pub(crate) use compress::COMPRESS;
pub use equake::equake_like;
pub(crate) use equake::EQUAKE;
pub use gap::gap_like;
pub(crate) use gap::GAP;
pub use go::go_like;
pub(crate) use go::GO;
pub use li::li_like;
pub(crate) use li::LI;
pub use mcf::mcf_like;
pub(crate) use mcf::MCF;
pub use parser::parser_like;
pub(crate) use parser::PARSER;
pub use twolf::twolf_like;
pub(crate) use twolf::TWOLF;
pub use vortex::vortex_like;
pub(crate) use vortex::VORTEX;
pub use vpr::vpr_like;
pub(crate) use vpr::VPR;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::Workload;
    use ff_isa::{check_group_hazards, ArchState};

    /// Every kernel must pass the schedule lint, halt within its budget
    /// on the golden interpreter, and touch memory.
    pub fn check_kernel(w: &Workload) {
        check_group_hazards(&w.program).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let mut interp = ArchState::new(&w.program, w.memory.clone());
        let summary = interp.run(w.budget * 4);
        assert!(interp.is_halted(), "{} did not halt within 4x budget", w.name);
        assert!(
            summary.instrs <= w.budget,
            "{}: budget {} too small for {} dynamic instructions",
            w.name,
            w.budget,
            summary.instrs
        );
        assert!(
            summary.instrs * 3 > w.budget,
            "{}: budget {} is overly loose for {} instructions",
            w.name,
            w.budget,
            summary.instrs
        );
    }
}
