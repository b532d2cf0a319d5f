//! # parrot-isa
//!
//! The synthetic CISC instruction set underlying the PARROT reproduction.
//!
//! The original paper simulates IA32 application traces. IA32 itself is
//! proprietary and enormous; what PARROT actually exploits about it is
//! structural:
//!
//! * **variable-length macro-instructions** make parallel decode expensive,
//!   which is why a decoded trace cache saves both time and energy;
//! * macro-instructions decode into **1–4 micro-operations (uops)**, the unit
//!   of scheduling, optimization and energy accounting;
//! * uops have **real dataflow** (registers, immediates, flags, memory), which
//!   the dynamic optimizer transforms while preserving semantics.
//!
//! This crate defines exactly that: a register file model ([`Reg`]),
//! macro-instructions ([`Inst`]), micro-operations ([`Uop`]), the
//! CISC-to-uop decoder ([`decode::decode`]), the pipeline-facing
//! projection of a uop ([`DispatchUop`]) and deterministic functional
//! semantics ([`exec`]) used by the optimizer's equivalence property tests.
//!
//! ```
//! use parrot_isa::{Inst, InstKind, AluOp, Operand, Reg, decode};
//!
//! let inst = Inst::new(InstKind::IntAlu {
//!     op: AluOp::Add,
//!     dst: Reg::int(0),
//!     src: Reg::int(1),
//!     rhs: Operand::Imm(4),
//! });
//! let uops = decode::decode(&inst, 0);
//! assert_eq!(uops.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod absint;
pub mod corrupt;
pub mod decode;
mod dispatch;
pub mod exec;
mod inst;
mod op;
mod reg;
mod uop;

pub use dispatch::DispatchUop;
pub use inst::{Inst, InstId, InstKind, MemRef};
pub use op::{AluOp, Cond, FpOp, Operand, PackOp};
pub use reg::Reg;
pub use uop::{ExecClass, FusedKind, SimdLane, SimdPack, SrcIter, Uop, UopKind};
