//! # parrot-core
//!
//! The top of the PARROT reproduction stack: machine models (Table 3.1/3.2),
//! the integrated dual-pipeline machine behind the one entry point
//! ([`SimRequest`]), deterministic fault injection
//! ([`FaultPlan`]), and simulation reports ([`SimReport`]) feeding every
//! figure of the evaluation (§4).
//!
//! ```no_run
//! use parrot_core::{FaultPlan, Model, SimRequest};
//! use parrot_workloads::{app_by_name, Workload};
//!
//! let wl = Workload::build(&app_by_name("gcc").expect("registered"));
//! let report = SimRequest::model(Model::TON).insts(100_000).run(&wl);
//! println!("IPC {:.2}, energy {:.0}", report.ipc(), report.energy);
//!
//! // The same run under a seeded fault campaign: the machine degrades
//! // gracefully and the report carries the fault accounting.
//! let faulted = SimRequest::model(Model::TON)
//!     .insts(100_000)
//!     .faults(FaultPlan::new(42).rate(0.05))
//!     .run(&wl);
//! assert_eq!(faulted.store_log_hash, report.store_log_hash);
//! ```

#![warn(missing_docs)]

mod faults;
mod machine;
mod models;
mod report;
mod request;
mod sampled;
mod warmth;

pub use faults::{FaultCounters, FaultInjector, FaultKind, FaultPlan, FaultReport};
pub use models::{MachineConfig, Model, TraceConfig};
pub use parrot_sampling::{build_plan, SamplePlan, SamplingSpec};
pub use report::{OptReport, SimReport, TraceReport};
pub use request::{SimRequest, CANONICAL_VERSION, DEFAULT_INSTS};
pub use warmth::{detailed_insts, effective_warmup, SampleWarmth, BASELINE_DETAILED_WARMUP};
