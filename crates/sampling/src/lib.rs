//! SimPoint-style phase sampling (Sherwood et al., ASPLOS 2002, adapted to
//! the PARROT harness): slice an application's committed instruction stream
//! into fixed-size intervals, summarize each interval as a basic-block
//! frequency vector, cluster the vectors with a seeded deterministic
//! k-means (k chosen by a BIC-style score), and emit a [`SamplePlan`] that
//! names one representative interval per cluster plus exact integer
//! weights. Simulating only the representatives (with a warmup prefix) and
//! taking the weighted sum reconstructs whole-run IPC/energy/coverage at a
//! small fraction of the cost — `parrot-core` consumes the plan through
//! `SimRequest::sampled(...)`.
//!
//! The interval stream is read from a `.ptrace` capture ([`build_plan`]
//! takes a parsed [`TraceFile`]): the per-slice index gives the simulator
//! O(1) random access to every representative's warmup window, which is
//! what makes sampled simulation cheap on top of the PR 6 format. See
//! DESIGN.md §18 for the algorithm and the fingerprint rules that keep
//! sampled and full sweep results apart.

#![warn(missing_docs)]

pub mod bbv;
pub mod kmeans;

use parrot_workloads::tracefmt::{TraceError, TraceFile};
use parrot_workloads::Workload;
use std::sync::Arc;

/// Default interval length (committed instructions per BBV interval).
pub const DEFAULT_INTERVAL: u64 = 100_000;
/// Default warmup prefix simulated (but not measured) before each
/// representative interval. 200k instructions sits at the measured knee
/// of the error-vs-warmup curve for paper-scale budgets: below it the
/// trace cache and optimizer state are still visibly colder than the
/// full run's at the window start (DESIGN.md §18).
pub const DEFAULT_WARMUP: u64 = 200_000;
/// Default upper bound on the number of clusters the BIC search considers.
pub const DEFAULT_MAX_K: usize = 10;
/// Default seed for the clustering feature projection.
pub const DEFAULT_SEED: u64 = 0x5109_7c64_e1cb_539f;
/// Dimensionality of the projected BBV feature space (SimPoint projects to
/// ~15 dimensions; the projection is seeded and deterministic).
pub const PROJECTED_DIMS: usize = 16;

/// Everything a sampled run depends on besides the budget: interval length,
/// warmup prefix, the cluster-count search bound, and the projection seed.
///
/// The spec is part of the sweep-cache identity ([`SamplingSpec::cache_tag`]
/// is folded into `parrot-bench`'s `SweepConfig::fingerprint`), so sampled
/// and full results can never alias each other's cache files.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SamplingSpec {
    /// Committed instructions per interval.
    pub interval: u64,
    /// Warmup instructions simulated (unmeasured) before a representative.
    pub warmup: u64,
    /// Maximum number of clusters the BIC-style search may select.
    pub max_k: usize,
    /// Seed for the deterministic feature projection.
    pub seed: u64,
}

impl Default for SamplingSpec {
    fn default() -> SamplingSpec {
        SamplingSpec {
            interval: DEFAULT_INTERVAL,
            warmup: DEFAULT_WARMUP,
            max_k: DEFAULT_MAX_K,
            seed: DEFAULT_SEED,
        }
    }
}

impl SamplingSpec {
    /// The string folded into the sweep-cache fingerprint. Covers every
    /// field, so two sampled sweeps share a cache entry only when their
    /// specs match exactly.
    pub fn cache_tag(&self) -> String {
        format!(
            "sampling;interval={};warmup={};max_k={};seed={:#018x}",
            self.interval, self.warmup, self.max_k, self.seed
        )
    }
}

/// One interval of the committed stream: `[start, start + len)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Stream position (committed instructions from the start of the run).
    pub start: u64,
    /// Interval length; equals the spec's interval except for a short tail.
    pub len: u64,
}

/// One cluster of the plan: the representative interval to simulate and the
/// exact number of budget instructions it stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterPlan {
    /// Index (into [`SamplePlan::intervals`]) of the member closest to the
    /// cluster centroid — the interval that gets simulated.
    pub rep: usize,
    /// Number of member intervals.
    pub members: usize,
    /// Sum of the member interval lengths. Integer weights across clusters
    /// sum to the budget *exactly* (the `sample:weighted_insts` counter).
    pub weight_insts: u64,
}

/// A complete sampling plan for one (application, budget, spec) triple.
/// Deterministic: the same inputs always produce the same plan.
#[derive(Clone, Debug)]
pub struct SamplePlan {
    /// The spec the plan was built under.
    pub spec: SamplingSpec,
    /// The budget the plan reconstructs.
    pub budget: u64,
    /// The interval partition of `[0, budget)`.
    pub intervals: Vec<Interval>,
    /// Cluster index per interval (`assignments[i] < clusters.len()`).
    pub assignments: Vec<usize>,
    /// One entry per cluster, ordered by cluster index.
    pub clusters: Vec<ClusterPlan>,
}

impl SamplePlan {
    /// Number of clusters (the selected k).
    pub fn k(&self) -> usize {
        self.clusters.len()
    }

    /// Number of intervals the budget was sliced into.
    pub fn num_intervals(&self) -> usize {
        self.intervals.len()
    }

    /// Total weighted instructions: exactly the budget, by construction.
    pub fn weighted_insts(&self) -> u64 {
        self.clusters.iter().map(|c| c.weight_insts).sum()
    }

    /// Per-cluster fractional weights. The last weight is computed as
    /// `1.0 - sum(previous)`, so a left-to-right sum of the returned vector
    /// is exactly `1.0`.
    pub fn weights(&self) -> Vec<f64> {
        let b = self.budget as f64;
        let mut w: Vec<f64> = self
            .clusters
            .iter()
            .map(|c| c.weight_insts as f64 / b)
            .collect();
        if let Some(last) = w.last_mut() {
            let partial: f64 = self.clusters[..self.clusters.len() - 1]
                .iter()
                .map(|c| c.weight_insts as f64 / b)
                .sum();
            *last = 1.0 - partial;
        }
        w
    }
}

/// Why a plan could not be built.
#[derive(Debug)]
pub enum SampleError {
    /// The budget is zero — there is nothing to sample.
    EmptyBudget,
    /// The capture could not be read or does not cover the budget.
    Trace(TraceError),
    /// The intervals handed to [`bbv::interval_vectors`] do not tile the
    /// stream from position 0.
    Intervals(String),
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::EmptyBudget => write!(f, "cannot sample a zero-instruction budget"),
            SampleError::Trace(e) => write!(f, "capture unusable for sampling: {e}"),
            SampleError::Intervals(why) => write!(f, "intervals not contiguous: {why}"),
        }
    }
}

impl std::error::Error for SampleError {}

impl From<TraceError> for SampleError {
    fn from(e: TraceError) -> SampleError {
        SampleError::Trace(e)
    }
}

/// Partition `[0, budget)` into spec-sized intervals (the tail interval may
/// be short; a budget smaller than one interval yields a single interval).
pub fn intervals_for(budget: u64, interval: u64) -> Vec<Interval> {
    let interval = interval.max(1);
    let mut out = Vec::with_capacity(budget.div_ceil(interval) as usize);
    let mut start = 0;
    while start < budget {
        let len = interval.min(budget - start);
        out.push(Interval { start, len });
        start += len;
    }
    out
}

/// Build the sampling plan for `wl` at `budget` from a capture of its
/// committed stream. The capture must have been taken from `wl` and cover
/// the budget (the same precondition `SimRequest::replay` enforces).
///
/// Deterministic end to end: the BBV pass decodes the capture in order, the
/// feature projection is seeded by `spec.seed`, and the k-means is
/// initialized and iterated order-independently (see [`kmeans::cluster`]).
pub fn build_plan(
    trace: &Arc<TraceFile>,
    wl: &Workload,
    budget: u64,
    spec: &SamplingSpec,
) -> Result<SamplePlan, SampleError> {
    if budget == 0 {
        return Err(SampleError::EmptyBudget);
    }
    trace.check_covers(budget)?;
    let intervals = intervals_for(budget, spec.interval);
    let bbvs = bbv::interval_vectors(trace, wl, &intervals)?;
    let feats = bbv::project(&bbvs, PROJECTED_DIMS, spec.seed);
    let clustering = kmeans::cluster(&feats, spec.max_k.max(1));
    let mut clusters = Vec::with_capacity(clustering.k);
    for c in 0..clustering.k {
        let members: Vec<usize> = (0..intervals.len())
            .filter(|i| clustering.assignments[*i] == c)
            .collect();
        debug_assert!(!members.is_empty(), "k-means returned an empty cluster");
        let rep = kmeans::representative(&feats, &clustering, c);
        let weight_insts = members.iter().map(|i| intervals[*i].len).sum();
        clusters.push(ClusterPlan {
            rep,
            members: members.len(),
            weight_insts,
        });
    }
    debug_assert_eq!(
        clusters.iter().map(|c| c.weight_insts).sum::<u64>(),
        budget,
        "cluster weights must partition the budget exactly"
    );
    Ok(SamplePlan {
        spec: spec.clone(),
        budget,
        intervals,
        assignments: clustering.assignments,
        clusters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parrot_workloads::tracefmt::capture;
    use parrot_workloads::{app_by_name, Workload};

    fn workload(name: &str) -> Workload {
        Workload::build(&app_by_name(name).expect("registered"))
    }

    fn plan_for(app: &str, budget: u64, spec: &SamplingSpec) -> SamplePlan {
        let wl = workload(app);
        let trace = Arc::new(capture(&wl, budget, 1_024).expect("encodable"));
        build_plan(&trace, &wl, budget, spec).expect("plan builds")
    }

    #[test]
    fn intervals_partition_the_budget() {
        let ivs = intervals_for(10_500, 4_000);
        assert_eq!(ivs.len(), 3);
        assert_eq!(
            ivs[0],
            Interval {
                start: 0,
                len: 4_000
            }
        );
        assert_eq!(
            ivs[2],
            Interval {
                start: 8_000,
                len: 2_500
            }
        );
        assert_eq!(ivs.iter().map(|i| i.len).sum::<u64>(), 10_500);
        // Degenerate: budget smaller than one interval → one short interval.
        let small = intervals_for(700, 4_000);
        assert_eq!(small, vec![Interval { start: 0, len: 700 }]);
    }

    #[test]
    fn plan_weights_partition_budget_and_sum_to_one() {
        let spec = SamplingSpec {
            interval: 3_000,
            warmup: 1_000,
            max_k: 4,
            ..SamplingSpec::default()
        };
        let plan = plan_for("gcc", 20_000, &spec);
        assert_eq!(plan.num_intervals(), 7);
        assert!(plan.k() >= 1 && plan.k() <= 4);
        assert_eq!(plan.weighted_insts(), 20_000, "integer weights are exact");
        let w = plan.weights();
        assert_eq!(w.iter().sum::<f64>(), 1.0, "weights sum to 1.0 exactly");
        assert!(w.iter().all(|x| *x > 0.0));
        for c in &plan.clusters {
            assert_eq!(
                plan.assignments[c.rep],
                plan.clusters
                    .iter()
                    .position(|x| x.rep == c.rep)
                    .expect("present"),
                "a representative belongs to its own cluster"
            );
            assert!(c.members >= 1);
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let spec = SamplingSpec {
            interval: 2_000,
            max_k: 5,
            ..SamplingSpec::default()
        };
        let a = plan_for("swim", 16_000, &spec);
        let b = plan_for("swim", 16_000, &spec);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.clusters, b.clusters);
    }

    #[test]
    fn degenerate_budget_smaller_than_interval_yields_one_cluster() {
        let spec = SamplingSpec {
            interval: 50_000,
            ..SamplingSpec::default()
        };
        let plan = plan_for("gzip", 4_000, &spec);
        assert_eq!(plan.num_intervals(), 1);
        assert_eq!(plan.k(), 1);
        assert_eq!(plan.clusters[0].rep, 0);
        assert_eq!(plan.clusters[0].weight_insts, 4_000);
        assert_eq!(plan.weights(), vec![1.0]);
    }

    #[test]
    fn zero_budget_is_rejected_and_short_captures_are_rejected() {
        let wl = workload("eon");
        let trace = Arc::new(capture(&wl, 2_000, 512).expect("encodable"));
        let spec = SamplingSpec::default();
        assert!(matches!(
            build_plan(&trace, &wl, 0, &spec),
            Err(SampleError::EmptyBudget)
        ));
        assert!(matches!(
            build_plan(&trace, &wl, 5_000, &spec),
            Err(SampleError::Trace(TraceError::TooShort { .. }))
        ));
    }

    #[test]
    fn cache_tag_covers_every_field() {
        let base = SamplingSpec::default();
        let mut tags = std::collections::BTreeSet::new();
        tags.insert(base.cache_tag());
        tags.insert(
            SamplingSpec {
                interval: 1,
                ..base.clone()
            }
            .cache_tag(),
        );
        tags.insert(
            SamplingSpec {
                warmup: 1,
                ..base.clone()
            }
            .cache_tag(),
        );
        tags.insert(
            SamplingSpec {
                max_k: 1,
                ..base.clone()
            }
            .cache_tag(),
        );
        tags.insert(SamplingSpec { seed: 1, ..base }.cache_tag());
        assert_eq!(tags.len(), 5, "every field must change the tag");
    }

    #[test]
    fn bbv_block_ids_agree_with_the_whole_program_analysis() {
        // The BBV dimension is the program's global basic-block table — the
        // same block ids parrot-analysis exposes via `block_at`. Spot-check
        // the inst→block table against the analysis on real pcs.
        let wl = workload("gcc");
        let pa = parrot_analysis::analyze(&wl.program).expect("analyzable");
        let table = bbv::inst_block_table(&wl.program);
        assert_eq!(table.len(), wl.program.insts.len());
        for d in wl.engine().take(2_000) {
            let via_pc = pa.block_at(d.pc).expect("every pc is in a block");
            assert_eq!(
                table[d.inst as usize], via_pc,
                "inst {} pc {:#x}",
                d.inst, d.pc
            );
        }
    }
}
