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
use parrot_isa::{ExecClass, InstId, InstKind};
use parrot_sampling::{SamplePlan, SamplingSpec};
use parrot_uarch::bpred::{BpredConfig, HybridPredictor};
use parrot_uarch::cache::MemHierarchy;
use parrot_workloads::tracefmt::{ReplayCursor, TraceFile};
use parrot_workloads::Workload;
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

/// Instructions a sampled run of `cfg` simulates in detail under `plan`:
/// each representative interval plus its [`effective_warmup`] prefix.
pub fn detailed_insts(plan: &SamplePlan, cfg: &MachineConfig) -> u64 {
    plan.clusters
        .iter()
        .map(|c| {
            let iv = plan.intervals[c.rep];
            effective_warmup(cfg, &plan.spec, iv.start) + iv.len
        })
        .sum()
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

    /// Panic unless these snapshots fit a sampled run of `cfg` at
    /// `budget` under `spec`: the same policy as a mismatched plan.
    pub(crate) fn assert_fits(&self, budget: u64, spec: &SamplingSpec, cfg: &MachineConfig) {
        assert_eq!(self.budget, budget, "sample warmth budget mismatch");
        assert_eq!(&self.spec, spec, "sample warmth spec mismatch");
        let has_pass = if cfg.trace.is_some() {
            self.data_states.is_some()
        } else {
            self.passes.iter().any(|p| p.bpred == cfg.bpred)
        };
        assert!(
            has_pass,
            "sample warmth has no warming pass for {}",
            cfg.name
        );
    }

    /// The warmed start state for plan cluster `cluster` under machine
    /// configuration `cfg`, which must pass [`SampleWarmth::assert_fits`].
    /// Trace models get data-only warmth (cold I-cache, cold predictor) —
    /// see the module docs for why.
    pub(crate) fn state_for(
        &self,
        cluster: usize,
        cfg: &MachineConfig,
    ) -> (MemHierarchy, HybridPredictor) {
        if cfg.trace.is_some() {
            let states = self.data_states.as_ref().expect("checked by assert_fits");
            (states[cluster].clone(), HybridPredictor::new(cfg.bpred))
        } else {
            let pass = self.passes.iter().find(|p| p.bpred == cfg.bpred);
            pass.expect("checked by assert_fits").states[cluster].clone()
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
    let mem_uops = mem_uops(wl);
    let mut cur =
        ReplayCursor::new(Arc::clone(trace), wl).expect("capture validated before warming");
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
    while next < schedule.len() && cur.read() < last {
        let d = cur.next_inst();
        if want_full {
            if d.pc / 64 != line {
                mem.access_inst(d.pc);
                line = d.pc / 64;
            }
            match wl.program.inst(d.inst).kind {
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
        for _ in 0..mem_uops[d.inst as usize] {
            if want_full {
                mem.access_data(d.eff_addr);
            }
            if want_data {
                data_mem.access_data(d.eff_addr);
            }
        }
        while next < schedule.len() && cur.read() >= schedule[next].offset {
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

/// How many uops of each static instruction of `wl` are loads or stores,
/// one byte per instruction. The warming pass reads this instead of
/// scanning an instruction's uops on every committed instance.
fn mem_uops(wl: &Workload) -> Vec<u8> {
    (0..wl.program.insts.len())
        .map(|id| {
            let n = wl
                .decoded
                .uops(id as InstId)
                .iter()
                .filter(|u| matches!(u.exec_class(), ExecClass::Load | ExecClass::Store))
                .count();
            u8::try_from(n).expect("memory uops of one instruction fit a byte")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Model;
    use parrot_sampling::build_plan;
    use parrot_uarch::oracle::OracleStream;
    use parrot_workloads::app_by_name;
    use parrot_workloads::tracefmt::{capture, DEFAULT_SLICE_INSTS};
    use parrot_workloads::StreamSource;

    /// Warmed state at one offset: full hierarchy, predictor, data-only
    /// hierarchy.
    type States = (MemHierarchy, HybridPredictor, MemHierarchy);

    /// The warming loop written the direct way, as a reference for
    /// [`warm_pass`]: an [`OracleStream`] over the replay, a match on each
    /// committed instruction's kind and a scan of its uops for loads and
    /// stores, with both the full and the data-only side always warmed.
    /// Returns the state after the first `o` instructions for each `o` of
    /// the sorted `offsets`.
    fn reference_states(
        trace: &Arc<TraceFile>,
        wl: &Workload,
        cfg: &MachineConfig,
        offsets: &[u64],
    ) -> Vec<States> {
        let mut bpred = HybridPredictor::new(cfg.bpred);
        let mut mem = MemHierarchy::standard();
        let mut data_mem = MemHierarchy::standard();
        let last = offsets.last().copied().unwrap_or(0);
        let src = StreamSource::replay(Arc::clone(trace), wl).expect("capture matches");
        let mut oracle = OracleStream::from_source(src, last);
        let mut out = Vec::new();
        let mut line = u64::MAX;
        loop {
            while out.len() < offsets.len() && oracle.cursor() >= offsets[out.len()] {
                out.push((mem.clone(), bpred.clone(), data_mem.clone()));
            }
            let Some(d) = oracle.pop() else { break };
            if d.pc / 64 != line {
                mem.access_inst(d.pc);
                line = d.pc / 64;
            }
            match wl.program.inst(d.inst).kind {
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
            for u in wl.decoded.uops(d.inst) {
                if matches!(u.exec_class(), ExecClass::Load | ExecClass::Store) {
                    mem.access_data(d.eff_addr);
                    data_mem.access_data(d.eff_addr);
                }
            }
        }
        assert_eq!(out.len(), offsets.len(), "offsets lie inside the capture");
        out
    }

    #[test]
    fn warm_pass_snapshots_equal_the_reference_loop() {
        // Full-pass offsets include 0, mid-slice points and a slice end;
        // the data offsets end earlier and later than the full ones, so
        // each single-kind traversal stops at its own last obligation.
        let full_offsets = [0, 1, 777, 4_096, 9_001, 14_000];
        let data_offsets = [0, 5_000, 12_345, 17_999];
        let schedule = {
            let mut s: Vec<SnapEvent> = full_offsets
                .iter()
                .enumerate()
                .map(|(slot, &offset)| SnapEvent {
                    offset,
                    slot,
                    data: false,
                })
                .chain(
                    data_offsets
                        .iter()
                        .enumerate()
                        .map(|(slot, &offset)| SnapEvent {
                            offset,
                            slot,
                            data: true,
                        }),
                )
                .collect();
            s.sort_unstable_by_key(|e| e.offset);
            s
        };
        let mut offsets: Vec<u64> = schedule.iter().map(|e| e.offset).collect();
        offsets.dedup();
        let budget = 20_000;
        for app in ["gcc", "swim", "eon"] {
            let wl = Workload::build(&app_by_name(app).expect("registered"));
            let trace = Arc::new(capture(&wl, budget, 1_024).expect("encodable"));
            for model in [Model::N, Model::W, Model::TOW] {
                let cfg = model.config();
                let want = reference_states(&trace, &wl, &cfg, &offsets);
                let at = |o: u64| &want[offsets.binary_search(&o).expect("scheduled")];
                for (want_full, want_data) in [(true, true), (true, false), (false, true)] {
                    let (full, data) =
                        warm_pass(&trace, &wl, budget, &cfg, &schedule, want_full, want_data);
                    assert_eq!(full.is_some(), want_full);
                    assert_eq!(data.is_some(), want_data);
                    for (slot, &o) in full_offsets.iter().enumerate() {
                        if let Some(full) = &full {
                            let (mem, bpred, _) = at(o);
                            assert!(
                                full[slot] == (mem.clone(), bpred.clone()),
                                "{app} {}: full state at {o} differs",
                                model.name()
                            );
                        }
                    }
                    for (slot, &o) in data_offsets.iter().enumerate() {
                        if let Some(data) = &data {
                            assert!(
                                data[slot] == at(o).2,
                                "{app} {}: data-only state at {o} differs",
                                model.name()
                            );
                        }
                    }
                }
            }
        }
    }

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
        for (ci, c) in plan.clusters.iter().enumerate() {
            let iv = plan.intervals[c.rep];
            for cfg in &cfgs {
                assert_eq!(
                    w.offset(ci, cfg),
                    iv.start - effective_warmup(cfg, &spec, iv.start)
                );
                w.assert_fits(budget, &spec, cfg);
                let (mem, _) = w.state_for(ci, cfg);
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
