//! Functional warming for sampled simulation (DESIGN.md §18.3).
//!
//! The slow-warming machine state — caches and branch predictors — is
//! (mostly) a pure function of the committed stream, independent of
//! pipeline timing: addresses and branch outcomes come from the oracle,
//! and updates land in stream order. That makes it warmable
//! *functionally*: one cheap pass replays the capture and clones the
//! warmed structures at each representative's detailed-warmup start.
//! Window machines start from the cloned state, so every representative
//! sees its *full* stream history in the warmed structures while the
//! detailed (per-cycle) warmup only has to settle the timing-coupled
//! state — the cost that used to force multi-million-instruction warmup
//! prefixes on cache-sensitive apps.
//!
//! Which structures are stream-pure depends on the machine:
//!
//! * **Baseline models (no trace subsystem):** every instruction goes
//!   through the front end, so the I-cache, branch predictor, BTB and
//!   RAS are all stream-pure alongside the data side. A *full pass*
//!   replays the exact state updates of
//!   `ColdFrontEnd::fetch_cycle` (predictor/BTB/RAS/I-cache — see the
//!   comment in [`warm_pass`] for the one timing approximation) plus
//!   [`MemHierarchy::access_data`] per memory uop, one pass per
//!   distinct [`BpredConfig`].
//! * **Trace models:** the hot side bypasses the front end, so the
//!   real run's predictor and I-cache see only the cold-side residue —
//!   a fraction that depends on coverage, which depends on timing.
//!   Full-history warming *over*-warms them, and instruction lines
//!   pulled into the unified L2 displace data lines the real run keeps
//!   (measured: ~5–8% IPC cost on gcc). A *data-only pass* therefore
//!   warms just l1d + L2 with the load/store stream and leaves the
//!   I-cache and predictor cold for the detailed warmup to settle
//!   together with the trace subsystem. One data pass covers every
//!   trace model: the data stream does not depend on the predictor.
//!
//! Warming energy and stats are discarded — only the state matters, and
//! the segment-delta measurement subtracts any cumulative counters that
//! do leak into the window report.

use crate::models::MachineConfig;
use parrot_isa::{ExecClass, InstKind};
use parrot_sampling::{SamplePlan, SamplingSpec};
use parrot_uarch::bpred::{BpredConfig, HybridPredictor};
use parrot_uarch::cache::MemHierarchy;
use parrot_uarch::oracle::OracleStream;
use parrot_workloads::tracefmt::TraceFile;
use parrot_workloads::{StreamSource, Workload};
use std::sync::Arc;

/// Detailed (per-cycle) warmup for trace-less models under functional
/// warming: their entire slow state — caches, predictor, BTB, RAS — is
/// injected exactly, so the window only needs to fill the pipeline and
/// settle in-flight timing. Trace models keep the spec's full warmup
/// (the trace subsystem is timing-coupled and cannot be warmed
/// functionally).
pub const BASELINE_DETAILED_WARMUP: u64 = 16_384;

/// The detailed-warmup length model `cfg` uses for a representative
/// starting at `iv_start` under `spec`. `spec.warmup ≥ iv_start` (the
/// telescoping regime: the window replays its whole history) is always
/// honored exactly — the trim only applies where functional warming
/// stands in for skipped history.
pub fn effective_warmup(cfg: &MachineConfig, spec: &SamplingSpec, iv_start: u64) -> u64 {
    warmup_for(cfg.trace.is_some(), spec, iv_start)
}

fn warmup_for(has_trace: bool, spec: &SamplingSpec, iv_start: u64) -> u64 {
    let base = spec.warmup.min(iv_start);
    if !has_trace && base < iv_start {
        base.min(BASELINE_DETAILED_WARMUP)
    } else {
        base
    }
}

/// Warmed cache/predictor snapshots at each representative's
/// detailed-warmup start. Built once per app and shared across models
/// and workers (see [`crate::SimRequest::sample_warmth`]).
#[derive(Clone, Debug)]
pub struct SampleWarmth {
    budget: u64,
    spec: SamplingSpec,
    /// Per-cluster snapshot offsets for full passes, in plan order:
    /// `rep.start − effective_warmup` for a trace-less model.
    offsets_full: Vec<u64>,
    /// Per-cluster snapshot offsets for the data pass, in plan order:
    /// `rep.start − effective_warmup` for a trace model.
    offsets_data: Vec<u64>,
    /// Full passes (front end + data side), one per distinct
    /// [`BpredConfig`] among the trace-less configurations.
    passes: Vec<WarmPass>,
    /// Data-only snapshots (l1d + L2; cold I-side) for trace models,
    /// in plan order. Present when any requested config has a trace
    /// subsystem.
    data_states: Option<Vec<MemHierarchy>>,
}

#[derive(Clone, Debug)]
struct WarmPass {
    bpred: BpredConfig,
    states: Vec<(MemHierarchy, HybridPredictor)>,
}

impl SampleWarmth {
    /// Run the warming pass(es) for `plan` over `trace`: one full pass
    /// per distinct branch-predictor configuration among the trace-less
    /// entries of `cfgs`, plus one shared data-only pass if any entry
    /// carries a trace subsystem.
    pub fn build(
        trace: &Arc<TraceFile>,
        wl: &Workload,
        budget: u64,
        plan: &SamplePlan,
        spec: &SamplingSpec,
        cfgs: &[MachineConfig],
    ) -> SampleWarmth {
        // Snapshot offsets in plan order (per pass kind — trace-less
        // models trim their detailed warmup, so their snapshots sit
        // closer to the representative), then one sorted event schedule
        // for the forward traversal.
        let offsets_of = |has_trace: bool| -> Vec<u64> {
            plan.clusters
                .iter()
                .map(|c| {
                    let iv = plan.intervals[c.rep];
                    iv.start - warmup_for(has_trace, spec, iv.start)
                })
                .collect()
        };
        let offsets_full = offsets_of(false);
        let offsets_data = offsets_of(true);
        let want_data = cfgs.iter().any(|c| c.trace.is_some());
        let mut schedule: Vec<SnapEvent> = offsets_full
            .iter()
            .enumerate()
            .map(|(i, &o)| SnapEvent {
                offset: o,
                slot: i,
                data: false,
            })
            .collect();
        if want_data {
            schedule.extend(offsets_data.iter().enumerate().map(|(i, &o)| SnapEvent {
                offset: o,
                slot: i,
                data: true,
            }));
        }
        schedule.sort_unstable_by_key(|e| e.offset);
        let mut passes: Vec<WarmPass> = Vec::new();
        let mut data_states = None;
        for cfg in cfgs {
            if cfg.trace.is_some() || passes.iter().any(|p| p.bpred == cfg.bpred) {
                continue;
            }
            // The first full pass also carries the shared data-only
            // hierarchy, so one stream traversal covers the whole zoo.
            let carry_data = want_data && data_states.is_none();
            let (full, data) = warm_pass(trace, wl, budget, cfg, &schedule, true, carry_data);
            passes.push(WarmPass {
                bpred: cfg.bpred,
                states: full.expect("full pass requested"),
            });
            if carry_data {
                data_states = data;
            }
        }
        if want_data && data_states.is_none() {
            // Only trace models requested: a data-only traversal (the
            // driver front end runs against a scratch hierarchy).
            let cfg = cfgs.iter().find(|c| c.trace.is_some()).expect("checked");
            let (_, data) = warm_pass(trace, wl, budget, cfg, &schedule, false, true);
            data_states = data;
        }
        SampleWarmth {
            budget,
            spec: spec.clone(),
            offsets_full,
            offsets_data,
            passes,
            data_states,
        }
    }

    /// Whether these snapshots were built for the given request shape.
    pub fn matches(&self, budget: u64, spec: &SamplingSpec) -> bool {
        self.budget == budget && &self.spec == spec
    }

    /// Whether a warming pass applicable to `cfg` was run.
    pub(crate) fn has_pass(&self, cfg: &MachineConfig) -> bool {
        if cfg.trace.is_some() {
            self.data_states.is_some()
        } else {
            self.passes.iter().any(|p| p.bpred == cfg.bpred)
        }
    }

    /// The warmed start state for plan cluster `cluster` under machine
    /// configuration `cfg`, if an applicable pass was run. Trace models
    /// get data-only warmth (cold I-cache, cold predictor) — see the
    /// module docs for why.
    pub(crate) fn state_for(
        &self,
        cluster: usize,
        cfg: &MachineConfig,
    ) -> Option<(MemHierarchy, HybridPredictor)> {
        if cfg.trace.is_some() {
            let mem = self.data_states.as_ref()?.get(cluster)?.clone();
            Some((mem, HybridPredictor::new(cfg.bpred)))
        } else {
            self.passes
                .iter()
                .find(|p| p.bpred == cfg.bpred)
                .and_then(|p| p.states.get(cluster))
                .cloned()
        }
    }

    /// The stream offset cluster `cluster`'s snapshot was taken at for
    /// machine configuration `cfg` (`rep.start −`
    /// [`effective_warmup`] — the representative's detailed-warmup
    /// start).
    pub fn offset(&self, cluster: usize, cfg: &MachineConfig) -> u64 {
        if cfg.trace.is_some() {
            self.offsets_data[cluster]
        } else {
            self.offsets_full[cluster]
        }
    }
}

/// One snapshot obligation in a warming traversal: at stream offset
/// `offset`, record cluster `slot`'s state (`data`: into the data-only
/// hierarchy's snapshots, else into the full pass's).
#[derive(Clone, Copy, Debug)]
struct SnapEvent {
    offset: u64,
    slot: usize,
    data: bool,
}

/// One functional-warming traversal: replay the stream through a cold
/// front end (predictor + I-cache) and touch the data hierarchies for
/// every memory uop, cloning state at each scheduled offset. With
/// `want_full` the front end fetches against the snapshotted full
/// hierarchy (otherwise a scratch one, so only the driver runs); with
/// `want_data` a second, fetch-blind hierarchy tracks the load/store
/// stream alone (trace-model warmth). `schedule` is sorted by offset;
/// the traversal stops after the last snapshot.
#[allow(clippy::type_complexity)]
fn warm_pass(
    trace: &Arc<TraceFile>,
    wl: &Workload,
    budget: u64,
    cfg: &MachineConfig,
    schedule: &[SnapEvent],
    want_full: bool,
    want_data: bool,
) -> (
    Option<Vec<(MemHierarchy, HybridPredictor)>>,
    Option<Vec<MemHierarchy>>,
) {
    let n = schedule.iter().map(|e| e.slot + 1).max().unwrap_or(0);
    let mut full: Vec<Option<(MemHierarchy, HybridPredictor)>> = vec![None; n];
    let mut data: Vec<Option<MemHierarchy>> = vec![None; n];
    let mut bpred = HybridPredictor::new(cfg.bpred);
    let mut mem = MemHierarchy::standard();
    let mut data_mem = MemHierarchy::standard();
    let last = if want_data && want_full {
        schedule.iter().map(|e| e.offset).max()
    } else {
        // A single-kind traversal can stop at its own last obligation.
        schedule
            .iter()
            .filter(|e| e.data == want_data)
            .map(|e| e.offset)
            .max()
    }
    .unwrap_or(0)
    .min(budget);
    let src =
        StreamSource::replay(Arc::clone(trace), wl).expect("capture validated before warming");
    let mut oracle = OracleStream::from_source(src, last);
    let mut next = 0usize;
    let snap = |ev: &SnapEvent,
                full: &mut Vec<Option<(MemHierarchy, HybridPredictor)>>,
                data: &mut Vec<Option<MemHierarchy>>,
                mem: &MemHierarchy,
                bpred: &HybridPredictor,
                data_mem: &MemHierarchy| {
        if ev.data {
            if want_data {
                data[ev.slot] = Some(data_mem.clone());
            }
        } else if want_full {
            full[ev.slot] = Some((mem.clone(), bpred.clone()));
        }
    };
    // Snapshots at offset 0 are the cold state.
    while next < schedule.len() && schedule[next].offset == 0 {
        snap(
            &schedule[next],
            &mut full,
            &mut data,
            &mem,
            &bpred,
            &data_mem,
        );
        next += 1;
    }
    // Stream-order replay of exactly the state updates
    // `ColdFrontEnd::fetch_cycle` performs, minus timing, energy and uop
    // delivery (see that function for the authoritative rules). The one
    // approximation: the machine re-touches an I-line at each fetch-cycle
    // boundary, which depends on timing; here a line is touched once per
    // contiguous run, with the run reset at taken branches so loop bodies
    // keep their LRU stamps fresh.
    let mut line = u64::MAX;
    while next < schedule.len() {
        let Some(d) = oracle.pop() else { break };
        if want_full {
            if d.pc / 64 != line {
                mem.access_inst(d.pc);
                line = d.pc / 64;
            }
            let inst = wl.program.inst(d.inst);
            match inst.kind {
                InstKind::CondBranch { .. } => {
                    let pred = bpred.predict(d.pc);
                    bpred.update(d.pc, d.taken);
                    if pred == d.taken && d.taken && bpred.btb_lookup(d.pc) != Some(d.next_pc) {
                        bpred.btb_update(d.pc, d.next_pc);
                    }
                }
                InstKind::Jump if bpred.btb_lookup(d.pc) != Some(d.next_pc) => {
                    bpred.btb_update(d.pc, d.next_pc);
                }
                InstKind::Call => {
                    bpred.ras_push(d.pc + u64::from(d.len));
                    if bpred.btb_lookup(d.pc) != Some(d.next_pc) {
                        bpred.btb_update(d.pc, d.next_pc);
                    }
                }
                InstKind::Return => {
                    bpred.ras_pop();
                }
                InstKind::IndirectJump { .. } => {
                    bpred.btb_lookup(d.pc);
                    bpred.btb_update(d.pc, d.next_pc);
                }
                _ => {}
            }
            if d.taken {
                line = u64::MAX;
            }
        }
        for u in wl.decoded.uops(d.inst) {
            if matches!(u.exec_class(), ExecClass::Load | ExecClass::Store) {
                if want_full {
                    mem.access_data(d.eff_addr);
                }
                if want_data {
                    data_mem.access_data(d.eff_addr);
                }
            }
        }
        while next < schedule.len() && oracle.cursor() >= schedule[next].offset {
            snap(
                &schedule[next],
                &mut full,
                &mut data,
                &mem,
                &bpred,
                &data_mem,
            );
            next += 1;
        }
    }
    // A schedule offset past the stream end (cannot happen for valid
    // plans) degrades to the final warmed state.
    (
        want_full.then(|| {
            let end = (mem, bpred.clone());
            full.into_iter()
                .map(|s| s.unwrap_or_else(|| end.clone()))
                .collect()
        }),
        want_data.then(|| {
            data.into_iter()
                .map(|s| s.unwrap_or_else(|| data_mem.clone()))
                .collect()
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Model;
    use parrot_sampling::build_plan;
    use parrot_workloads::app_by_name;
    use parrot_workloads::tracefmt::{capture, DEFAULT_SLICE_INSTS};

    #[test]
    fn one_pass_per_distinct_bpred_config_and_offsets_match_plan() {
        let wl = Workload::build(&app_by_name("eon").expect("registered"));
        let budget = 12_000;
        let trace = Arc::new(capture(&wl, budget, DEFAULT_SLICE_INSTS).expect("encodable"));
        let spec = SamplingSpec {
            interval: 3_000,
            warmup: 1_000,
            max_k: 2,
            ..SamplingSpec::default()
        };
        let plan = build_plan(&trace, &wl, budget, &spec).expect("capture covers budget");
        let cfgs: Vec<MachineConfig> = Model::ALL.iter().map(|m| m.config()).collect();
        let w = SampleWarmth::build(&trace, &wl, budget, &plan, &spec, &cfgs);
        assert_eq!(
            w.passes.len(),
            1,
            "N and W share one bpred config; trace models use the data pass"
        );
        assert!(w.data_states.is_some());
        assert!(w.matches(budget, &spec));
        assert!(!w.matches(budget + 1, &spec));
        for (ci, c) in plan.clusters.iter().enumerate() {
            let iv = plan.intervals[c.rep];
            for cfg in &cfgs {
                assert_eq!(
                    w.offset(ci, cfg),
                    iv.start - effective_warmup(cfg, &spec, iv.start)
                );
                assert!(w.has_pass(cfg));
                let (mem, _) = w.state_for(ci, cfg).expect("state present");
                if cfg.trace.is_some() {
                    // Data-only warmth never touches the I-side.
                    assert_eq!(mem.l1i.stats(), (0, 0), "trace warmth has a cold l1i");
                }
            }
        }
    }

    #[test]
    fn effective_warmup_trims_only_baseline_models_outside_telescoping() {
        let spec = SamplingSpec {
            warmup: 200_000,
            ..SamplingSpec::default()
        };
        let baseline = Model::N.config();
        let tracey = Model::TOW.config();
        // Telescoping regime (warmup reaches back to 0): honored exactly.
        assert_eq!(effective_warmup(&baseline, &spec, 150_000), 150_000);
        assert_eq!(effective_warmup(&tracey, &spec, 150_000), 150_000);
        // Skipped history: the trace model keeps the full detailed
        // warmup; the baseline model trims to the pipeline-fill floor.
        assert_eq!(effective_warmup(&tracey, &spec, 5_000_000), 200_000);
        assert_eq!(
            effective_warmup(&baseline, &spec, 5_000_000),
            BASELINE_DETAILED_WARMUP
        );
        // A spec warmup below the floor is never raised.
        let tight = SamplingSpec {
            warmup: 1_000,
            ..spec
        };
        assert_eq!(effective_warmup(&baseline, &tight, 5_000_000), 1_000);
    }
}
