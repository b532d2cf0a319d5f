//! Static-vs-dynamic cross-validation of the reuse predictions.
//!
//! The analysis crate predicts, before a single instruction runs, which
//! trace heads will see heavy reuse ([`parrot_analysis::ReuseClass`]).
//! This module checks those predictions against live behaviour: each app
//! is streamed through the trace selector at a pinned budget, every
//! emitted trace candidate is charged to the basic block its head falls
//! in, and the observed per-head selection counts are binned the same
//! way the static side bins its scores (top 50% of the mass = "hot").
//! Precision/recall of the predicted-hot set against the observed-hot
//! set — plus the fraction of all dynamic selection events whose head
//! was predicted hot — are reported per suite and embedded into
//! EXPERIMENTS.md by `reproduce`.
//!
//! Everything here is deterministic (fixed budget, fixed selector
//! config, no cycle simulation), so the table is computed live rather
//! than cached.
//!
//! ```
//! let row = parrot_bench::xval::cross_validate_app(
//!     &parrot_workloads::app_by_name("gzip").unwrap(),
//! );
//! assert!(row.precision >= 0.0 && row.precision <= 1.0);
//! ```

use parrot_analysis::ReuseClass;
use parrot_trace::{select_candidates, SelectionConfig};
use parrot_workloads::{all_apps, generate_program, AppProfile, Suite};
use std::collections::BTreeMap;

/// Pinned committed-instruction budget per app: large enough for every
/// app's steady-state selection behaviour, small enough that the whole
/// 44-app validation runs in seconds inside `reproduce`.
pub const XVAL_INSTS: usize = 30_000;

/// Cross-validation result for one app.
#[derive(Clone, Debug)]
pub struct AppXval {
    /// Application name.
    pub app: &'static str,
    /// Suite the app belongs to.
    pub suite: Suite,
    /// Statically classified trace heads.
    pub heads: usize,
    /// Heads predicted `High` reuse.
    pub predicted_hot: usize,
    /// Heads observed hot (top 50% of dynamic selection mass).
    pub observed_hot: usize,
    /// Predicted-hot heads that were observed hot.
    pub true_positives: usize,
    /// `true_positives / predicted_hot` (1.0 when nothing was predicted).
    pub precision: f64,
    /// `true_positives / observed_hot` (1.0 when nothing was observed).
    pub recall: f64,
    /// Fraction of all dynamic selection events whose head block was
    /// predicted hot — the "did we predict where the action is" measure.
    pub event_coverage: f64,
}

/// Aggregated cross-validation over one suite (micro-averaged).
#[derive(Clone, Debug)]
pub struct SuiteXval {
    /// Suite label.
    pub suite: Suite,
    /// Apps aggregated.
    pub apps: usize,
    /// Sum of statically classified heads.
    pub heads: usize,
    /// Sum of predicted-hot heads.
    pub predicted_hot: usize,
    /// Sum of observed-hot heads.
    pub observed_hot: usize,
    /// Sum of true positives.
    pub true_positives: usize,
    /// Micro-averaged precision.
    pub precision: f64,
    /// Micro-averaged recall.
    pub recall: f64,
    /// Event-weighted coverage over the suite.
    pub event_coverage: f64,
}

/// Run the cross-validation for one app at [`XVAL_INSTS`].
#[must_use]
pub fn cross_validate_app(profile: &AppProfile) -> AppXval {
    let prog = generate_program(profile);
    let pa = parrot_analysis::analyze(&prog)
        .unwrap_or_else(|e| panic!("{}: analysis failed: {e}", profile.name));

    // Dynamic side: stream the committed path through the trace selector
    // and charge each emitted candidate to its head block.
    let cands = select_candidates(&prog, SelectionConfig::default(), XVAL_INSTS);
    let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
    for c in &cands {
        // Canonicalize to the containing block's start pc: the static
        // side scores block heads, while selector candidates may start
        // mid-block after a partial entry.
        let pc = pa
            .block_at(c.tid.start_pc)
            .and_then(|b| pa.pc_of_block(b))
            .unwrap_or(c.tid.start_pc);
        *counts.entry(pc).or_insert(0) += u64::from(c.joins.max(1));
    }

    // Observed-hot: heads covering the top 50% of selection mass,
    // mirroring the static binning rule.
    let total_events: u64 = counts.values().sum();
    let mut by_count: Vec<(u64, u64)> = counts.iter().map(|(&pc, &n)| (pc, n)).collect();
    by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut observed_hot: Vec<u64> = Vec::new();
    let mut cum = 0u64;
    for (pc, n) in &by_count {
        if total_events > 0 && cum * 2 >= total_events {
            break;
        }
        observed_hot.push(*pc);
        cum += n;
    }

    let predicted: Vec<u64> = pa
        .heads
        .iter()
        .filter(|h| h.class == ReuseClass::High)
        .map(|h| h.pc)
        .collect();
    let true_positives = observed_hot
        .iter()
        .filter(|pc| predicted.binary_search(pc).is_ok())
        .count();
    let hot_events: u64 = counts
        .iter()
        .filter(|(pc, _)| predicted.binary_search(pc).is_ok())
        .map(|(_, &n)| n)
        .sum();

    let ratio = |num: usize, den: usize| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    AppXval {
        app: profile.name,
        suite: profile.suite,
        heads: pa.heads.len(),
        predicted_hot: predicted.len(),
        observed_hot: observed_hot.len(),
        true_positives,
        precision: ratio(true_positives, predicted.len()),
        recall: ratio(true_positives, observed_hot.len()),
        event_coverage: if total_events == 0 {
            1.0
        } else {
            hot_events as f64 / total_events as f64
        },
    }
}

/// Cross-validate every registered app.
#[must_use]
pub fn cross_validate_all() -> Vec<AppXval> {
    all_apps().iter().map(cross_validate_app).collect()
}

/// Micro-average per suite.
#[must_use]
pub fn by_suite(rows: &[AppXval]) -> Vec<SuiteXval> {
    Suite::ALL
        .iter()
        .map(|&suite| {
            let rs: Vec<&AppXval> = rows.iter().filter(|r| r.suite == suite).collect();
            let heads: usize = rs.iter().map(|r| r.heads).sum();
            let predicted: usize = rs.iter().map(|r| r.predicted_hot).sum();
            let observed: usize = rs.iter().map(|r| r.observed_hot).sum();
            let tp: usize = rs.iter().map(|r| r.true_positives).sum();
            let cov = if rs.is_empty() {
                1.0
            } else {
                rs.iter().map(|r| r.event_coverage).sum::<f64>() / rs.len() as f64
            };
            let ratio = |num: usize, den: usize| {
                if den == 0 {
                    1.0
                } else {
                    num as f64 / den as f64
                }
            };
            SuiteXval {
                suite,
                apps: rs.len(),
                heads,
                predicted_hot: predicted,
                observed_hot: observed,
                true_positives: tp,
                precision: ratio(tp, predicted),
                recall: ratio(tp, observed),
                event_coverage: cov,
            }
        })
        .collect()
}

/// The per-suite precision/recall table `reproduce` embeds into
/// EXPERIMENTS.md (computed live; deterministic).
#[must_use]
pub fn xval_markdown() -> String {
    use std::fmt::Write as _;
    let rows = cross_validate_all();
    let suites = by_suite(&rows);
    let mut md = String::new();
    let _ = writeln!(
        md,
        "| suite | apps | heads | predicted hot | observed hot | precision | recall | event coverage |"
    );
    let _ = writeln!(md, "|---|---:|---:|---:|---:|---:|---:|---:|");
    for s in &suites {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {:.2} | {:.2} | {:.2} |",
            s.suite.label(),
            s.apps,
            s.heads,
            s.predicted_hot,
            s.observed_hot,
            s.precision,
            s.recall,
            s.event_coverage,
        );
    }
    let heads: usize = suites.iter().map(|s| s.heads).sum();
    let predicted: usize = suites.iter().map(|s| s.predicted_hot).sum();
    let observed: usize = suites.iter().map(|s| s.observed_hot).sum();
    let tp: usize = suites.iter().map(|s| s.true_positives).sum();
    let cov = rows.iter().map(|r| r.event_coverage).sum::<f64>() / rows.len().max(1) as f64;
    let _ = writeln!(
        md,
        "| **all** | {} | {} | {} | {} | {:.2} | {:.2} | {:.2} |",
        rows.len(),
        heads,
        predicted,
        observed,
        if predicted == 0 {
            1.0
        } else {
            tp as f64 / predicted as f64
        },
        if observed == 0 {
            1.0
        } else {
            tp as f64 / observed as f64
        },
        cov,
    );
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xval_is_deterministic_and_bounded() {
        let prof = parrot_workloads::app_by_name("swim").unwrap();
        let a = cross_validate_app(&prof);
        let b = cross_validate_app(&prof);
        assert_eq!(a.true_positives, b.true_positives);
        assert_eq!(a.observed_hot, b.observed_hot);
        assert!(a.precision >= 0.0 && a.precision <= 1.0);
        assert!(a.recall >= 0.0 && a.recall <= 1.0);
        assert!(a.event_coverage >= 0.0 && a.event_coverage <= 1.0);
        assert!(a.heads > 0);
    }

    #[test]
    fn suite_aggregation_covers_all_suites() {
        // Tiny but real: two apps exercise aggregation paths; the full
        // 44-app table runs in `reproduce` and the analyze CI job.
        let rows: Vec<AppXval> = ["gzip", "art"]
            .iter()
            .map(|n| cross_validate_app(&parrot_workloads::app_by_name(n).unwrap()))
            .collect();
        let suites = by_suite(&rows);
        assert_eq!(suites.len(), Suite::ALL.len());
        let total_apps: usize = suites.iter().map(|s| s.apps).sum();
        assert_eq!(total_apps, 2);
    }
}
