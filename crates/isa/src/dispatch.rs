//! The pipeline-facing projection of a uop.

use crate::{ExecClass, Reg, Uop, UopKind};

/// A uop ready for rename/dispatch: the compact, pipeline-facing projection
/// of a [`Uop`] plus its dynamic context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchUop {
    /// Execution class (port binding + latency).
    pub class: ExecClass,
    /// Registers read (including flags), capped at 4 — SIMD packs beyond
    /// that are approximated by their first lanes.
    pub reads: [Option<Reg>; 4],
    /// Registers written (including flags), capped at 4.
    pub writes: [Option<Reg>; 4],
    /// Effective address for memory uops.
    pub eff_addr: u64,
    /// Macro-instructions credited at this uop's commit. Cold uops carry 1
    /// on each instruction's final uop; an atomic trace carries its whole
    /// instruction count on its final uop (atomic commit accounting, robust
    /// to optimizer uop elimination).
    pub inst_credit: u32,
    /// This uop is a mispredicted control transfer: its completion triggers
    /// a front-end redirect.
    pub mispredict: bool,
    /// SIMD lane count (0 for scalar uops) — drives per-lane exec energy.
    pub simd_lanes: u8,
}

impl DispatchUop {
    /// Project a decoded [`Uop`] into dispatch form. `inst_credit` is the
    /// number of macro-instructions credited when this uop commits.
    pub fn from_uop(uop: &Uop, eff_addr: u64, inst_credit: u32) -> DispatchUop {
        let mut reads = [None; 4];
        let mut nr = 0;
        uop.for_each_use(|r| {
            if nr < 4 {
                reads[nr] = Some(r);
                nr += 1;
            }
        });
        let mut writes = [None; 4];
        let mut nw = 0;
        uop.for_each_def(|r| {
            if nw < 4 {
                writes[nw] = Some(r);
                nw += 1;
            }
        });
        let simd_lanes = match &uop.kind {
            UopKind::Simd(p) => p.lanes.len() as u8,
            _ => 0,
        };
        DispatchUop {
            class: uop.exec_class(),
            reads,
            writes,
            eff_addr,
            inst_credit,
            mispredict: false,
            simd_lanes,
        }
    }

    /// A uop that executes nothing and credits `inst_credit` instructions
    /// at commit: what an atomic trace whose uops all optimized away
    /// dispatches.
    pub fn credit_nop(inst_credit: u32) -> DispatchUop {
        DispatchUop {
            class: ExecClass::Nop,
            reads: [None; 4],
            writes: [None; 4],
            eff_addr: 0,
            inst_credit,
            mispredict: false,
            simd_lanes: 0,
        }
    }
}
