//! # parrot-uarch
//!
//! The cycle-level microarchitecture substrate of the PARROT reproduction:
//! branch predictors ([`bpred`]), a parametric cache hierarchy ([`cache`]),
//! a lookahead oracle over the committed stream ([`oracle`]), the
//! width-configurable out-of-order core ([`core`]) and the cold-pipeline
//! front end with the fetch queue ([`frontend`]).
//!
//! This is the stand-in for the paper's in-house performance simulator
//! (§3.1): trace-driven, with a full memory hierarchy and a generic
//! execution core instantiated at different widths for the `N`/`W` family
//! of models. The PARROT-specific machinery (trace cache, filters,
//! optimizer, fetch selector) lives in `parrot-trace`, `parrot-opt` and
//! `parrot-core`, and plugs into the same [`core::OooCore`].
//!
//! ```
//! use parrot_uarch::core::{CoreConfig, OooCore};
//!
//! let core = OooCore::new(CoreConfig::narrow());
//! assert!(core.is_empty());
//! ```

#![warn(missing_docs)]

pub mod bpred;
pub mod cache;
pub mod core;
pub mod frontend;
pub mod oracle;
