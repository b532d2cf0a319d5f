//! Per-layer probes for the traced run: each substrate layer driven on its
//! own over the workload's committed stream, through the layer's public
//! API, and timed from outside.
//!
//! A probe streams at most [`PROBE_INSTS`] committed instructions in total
//! (split evenly over the workload's applications) through the execution
//! engine, the capture encoder, the decoder, the branch predictor, the
//! data-cache hierarchy and the trace selector; the hot filter, the frame
//! constructor and the optimizer then process the candidates the selector
//! produced, as the machine's background pipeline would.

use crate::metrics::Metrics;
use crate::spans::Recorder;
use parrot_core::{MachineConfig, Model};
use parrot_energy::{EnergyAccount, EnergyModel, Event};
use parrot_isa::decode::decode_into;
use parrot_opt::Optimizer;
use parrot_trace::{construct_frame, CounterFilter, TraceSelector};
use parrot_uarch::bpred::HybridPredictor;
use parrot_uarch::cache::{MemHierarchy, ServicedBy};
use parrot_workloads::tracefmt::{capture, DEFAULT_SLICE_INSTS};
use parrot_workloads::{DynInst, Workload};
use std::hint::black_box;

/// Committed instructions streamed through the probes, over all apps.
pub const PROBE_INSTS: u64 = 1_000_000;

/// Frames constructed and optimized per application.
const PROBE_FRAMES: usize = 256;

/// Energy events emitted, and models cloned, by the energy probe.
const ENERGY_EVENTS: usize = 1_000_000;
const MODEL_CLONES: usize = 100_000;

#[derive(Default)]
struct Totals {
    insts: u64,
    stream_ns: f64,
    capture_ns: f64,
    capture_bits: f64,
    decode_ns: f64,
    branches: u64,
    correct: u64,
    bpred_ns: f64,
    accesses: u64,
    l1_hits: u64,
    dcache_ns: f64,
    select_ns: f64,
    candidates: u64,
    filter_ns: f64,
    frames: u64,
    construct_ns: f64,
    optimize_ns: f64,
}

/// Run every substrate probe over `wls`, streaming `insts` committed
/// instructions in total, and record the `workloads.*`, `isa.*`,
/// `uarch.*`, `trace.*`, `opt.*` and `energy.*` metrics. The branch
/// predictor and energy model are `cfg`'s; the trace pipeline and
/// optimizer are TOW's.
pub fn substrate(
    wls: &[Workload],
    cfg: &MachineConfig,
    insts: u64,
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    let probe = rec.begin("bench.probes", 0);
    let tcfg = Model::TOW
        .config()
        .trace
        .expect("TOW has a trace subsystem");
    let per_app = (insts / wls.len().max(1) as u64).max(1);
    let mut t = Totals::default();
    let mut opt = tcfg.optimizer.map(Optimizer::new);
    let mut now = 0u64;
    for (i, wl) in wls.iter().enumerate() {
        let id = i as u64;
        let ns = |d: std::time::Duration| d.as_nanos() as f64;
        let (stream, d) = rec.time("workloads.stream", id, || {
            wl.engine().take(per_app as usize).collect::<Vec<DynInst>>()
        });
        t.stream_ns += ns(d);
        t.insts += stream.len() as u64;
        let (captured, d) = rec.time("workloads.capture", id, || {
            capture(wl, per_app, DEFAULT_SLICE_INSTS)
        });
        t.capture_ns += ns(d);
        if let Ok(c) = captured {
            t.capture_bits += c.bits_per_inst() * per_app as f64;
        }

        let mut uops = Vec::with_capacity(16);
        let (_, d) = rec.time("isa.decode", id, || {
            for dyn_inst in &stream {
                uops.clear();
                decode_into(wl.program.inst(dyn_inst.inst), dyn_inst.inst, &mut uops);
                black_box(&uops);
            }
        });
        t.decode_ns += ns(d);

        let branches: Vec<(u64, bool)> = stream
            .iter()
            .filter(|d| wl.program.inst(d.inst).kind.is_cond_branch())
            .map(|d| (d.pc, d.taken))
            .collect();
        let mut bpred = HybridPredictor::new(cfg.bpred);
        let (correct, d) = rec.time("uarch.bpred", id, || {
            branches
                .iter()
                .filter(|&&(pc, taken)| {
                    let hit = bpred.predict(pc) == taken;
                    bpred.update(pc, taken);
                    hit
                })
                .count()
        });
        t.bpred_ns += ns(d);
        t.branches += branches.len() as u64;
        t.correct += correct as u64;

        let addrs: Vec<u64> = stream
            .iter()
            .filter(|d| d.has_mem)
            .map(|d| d.eff_addr)
            .collect();
        let mut mem = MemHierarchy::standard();
        let (hits, d) = rec.time("uarch.dcache", id, || {
            addrs
                .iter()
                .filter(|&&a| mem.access_data(a).serviced_by == ServicedBy::L1)
                .count()
        });
        t.dcache_ns += ns(d);
        t.accesses += addrs.len() as u64;
        t.l1_hits += hits as u64;

        let select = |out: &mut Vec<_>, keep: &mut dyn FnMut(&mut Vec<_>)| {
            let mut sel = TraceSelector::new(tcfg.selection);
            for (seq, d) in stream.iter().enumerate() {
                sel.step(d, &wl.program.inst(d.inst).kind, seq as u64, out);
                keep(out);
            }
        };
        let mut cands = Vec::new();
        let mut count = 0u64;
        let (_, d) = rec.time("trace.select", id, || {
            select(&mut cands, &mut |out| {
                count += out.len() as u64;
                out.clear();
            })
        });
        t.select_ns += ns(d);
        t.candidates += count;

        // The hot filter's input and its promotions, gathered untimed: the
        // candidates whose count first reaches the construction threshold.
        let mut keys = Vec::new();
        let mut promoted = Vec::new();
        let mut promotion = CounterFilter::new(tcfg.hot_filter);
        select(&mut cands, &mut |out| {
            for c in out.drain(..) {
                keys.push(c.tid.key());
                if promotion.bump(c.tid.key()) == tcfg.hot_filter.threshold
                    && promoted.len() < PROBE_FRAMES
                {
                    promoted.push(c);
                }
            }
        });
        let mut filter = CounterFilter::new(tcfg.hot_filter);
        let (_, d) = rec.time("trace.filter", id, || {
            for &k in &keys {
                black_box(filter.bump(k));
            }
        });
        t.filter_ns += ns(d);

        let (mut frames, d) = rec.time("trace.construct", id, || {
            promoted
                .iter()
                .map(|c| construct_frame(c, &wl.decoded))
                .collect::<Vec<_>>()
        });
        t.construct_ns += ns(d);
        t.frames += frames.len() as u64;

        if let Some(opt) = &mut opt {
            let (_, d) = rec.time("opt.optimize", id, || {
                for f in &mut frames {
                    now += 1;
                    black_box(opt.optimize(f, now));
                }
            });
            t.optimize_ns += ns(d);
        }
    }
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    m.set("workloads.stream_ns_per_inst", per(t.stream_ns, t.insts));
    m.set("workloads.capture_ns_per_inst", per(t.capture_ns, t.insts));
    m.set(
        "workloads.ptrace_bits_per_inst",
        per(t.capture_bits, t.insts),
    );
    m.set("isa.decode_ns_per_inst", per(t.decode_ns, t.insts));
    m.set("uarch.bpred_ns_per_branch", per(t.bpred_ns, t.branches));
    m.set("uarch.bpred_accuracy", per(t.correct as f64, t.branches));
    m.set("uarch.dcache_ns_per_access", per(t.dcache_ns, t.accesses));
    m.set("uarch.l1d_hit_rate", per(t.l1_hits as f64, t.accesses));
    m.set("trace.select_ns_per_inst", per(t.select_ns, t.insts));
    m.set("trace.filter_ns_per_bump", per(t.filter_ns, t.candidates));
    m.set(
        "trace.construct_us_per_frame",
        per(t.construct_ns / 1e3, t.frames),
    );
    m.set(
        "trace.candidates_per_kinst",
        per(1e3 * t.candidates as f64, t.insts),
    );
    if let Some(s) = opt.as_ref().map(Optimizer::stats) {
        m.set(
            "opt.optimize_us_per_trace",
            per(t.optimize_ns / 1e3, s.traces),
        );
        m.set("opt.uop_reduction", s.uop_reduction());
        m.set("opt.demoted_frac", per(s.demoted as f64, s.traces));
    }
    energy(cfg, rec, m);
    rec.end(probe);
}

/// `energy.*`: the cost of one accounted event and of cloning the model.
fn energy(cfg: &MachineConfig, rec: &mut Recorder, m: &mut Metrics) {
    let model = EnergyModel::new(&cfg.energy);
    let mut acct = EnergyAccount::new();
    let (_, d) = rec.time("energy.emit", 0, || {
        for i in 0..ENERGY_EVENTS {
            acct.emit(&model, Event::ALL[i % Event::ALL.len()]);
        }
    });
    black_box(acct.total());
    m.set(
        "energy.emit_ns_per_event",
        d.as_nanos() as f64 / ENERGY_EVENTS as f64,
    );
    let (_, d) = rec.time("energy.clone", 0, || {
        for _ in 0..MODEL_CLONES {
            black_box(model.clone());
        }
    });
    m.set(
        "energy.model_clone_ns",
        d.as_nanos() as f64 / MODEL_CLONES as f64,
    );
}
