//! # parrot-trace
//!
//! The PARROT trace subsystem (§2.2–2.3): trace identifiers ([`Tid`]),
//! deterministic post-retirement trace selection ([`TraceSelector`]),
//! gradual hot/blazing filtering ([`CounterFilter`]), executable frame
//! construction ([`construct_frame`]), the decoded/optimized trace cache
//! ([`TraceCache`]) and the next-trace predictor ([`TracePredictor`]).
//!
//! The promotion pipeline is exactly the paper's:
//!
//! ```text
//! committed stream ──► TraceSelector ──► TID
//!        TID ──► hot filter (×12) ──► construct ──► TraceCache
//!        execution (×48, blazing filter) ──► optimizer ──► write-back
//! ```
//!
//! ```
//! use parrot_trace::{SelectionConfig, TraceSelector};
//!
//! let selector = TraceSelector::new(SelectionConfig::default());
//! assert_eq!(selector.stats().candidates, 0);
//! ```

#![warn(missing_docs)]

mod cache;
mod constructor;
mod filter;
mod predictor;
mod selection;
mod tid;

pub use cache::{OptLevel, OptVerdict, TraceCache, TraceCacheConfig, TraceCacheStats, TraceFrame};
pub use constructor::construct_frame;
pub use filter::{CounterFilter, FilterConfig};
pub use predictor::{TracePredConfig, TracePredStats, TracePredictor};
pub use selection::{
    select_candidates, CandInst, SelectionConfig, SelectionStrategy, SelectorStats, TraceCandidate,
    TraceSelector,
};
pub use tid::Tid;
