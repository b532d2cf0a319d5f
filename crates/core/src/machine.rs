//! The PARROT machine: dual front end (cold I-cache path + hot trace-cache
//! path), fetch selector, background promotion pipeline (selection → hot
//! filter → construction → blazing filter → optimization), atomic-trace
//! execution with abort/rollback, and unified or split execution cores.
//!
//! Trace-driven discipline (§3): the committed oracle stream drives fetch;
//! mispredictions and trace aborts manifest as stalls, flush energy and —
//! for aborts — a rollback that re-executes the trace's instructions on the
//! cold pipeline, exactly matching the paper's atomic-commit semantics.

use crate::faults::{FaultInjector, FaultKind};
use crate::models::{MachineConfig, TraceConfig};
use crate::report::{OptReport, SimReport, TraceReport};
use parrot_energy::{EnergyAccount, EnergyModel, Event};
use parrot_isa::Uop;
use parrot_opt::{GateDecision, Optimizer};
use parrot_telemetry::profile::{self, Stage};
use parrot_telemetry::{metrics, trace as tev};
use parrot_trace::{
    construct_frame, CounterFilter, OptLevel, Tid, TraceCache, TraceCandidate, TraceFrame,
    TracePredictor, TraceSelector,
};
use parrot_uarch::core::{DispatchUop, OooCore};
use parrot_uarch::frontend::{ColdFrontEnd, FetchQueue, Side};
use parrot_uarch::oracle::OracleStream;
use parrot_workloads::tracefmt::TraceFile;
use parrot_workloads::{StreamSource, Workload};
use std::sync::Arc;

/// Extra cycles charged when a split machine transfers live register state
/// between its cores.
const SWITCH_PENALTY: u64 = 3;
/// A split machine may switch sides once the retiring core has nearly
/// drained (last-writer/first-reader forwarding covers the stragglers).
const SWITCH_DRAIN_THRESHOLD: u32 = 12;
/// Live registers communicated on a state switch (int + fp estimate).
const SWITCH_REGS: u64 = 16;

/// The trace being streamed into the fetch queue. Its buffers are reused
/// from one trace entry to the next.
#[derive(Default)]
struct HotRun {
    /// The entered frame's dispatch form, addresses patched.
    dus: Vec<DispatchUop>,
    /// The frame's `addr_slots`, and how many of them are patched.
    addr_slots: Vec<(u32, u32)>,
    patched: usize,
    /// The next uop of `dus` to deliver.
    pos: usize,
    optimized: bool,
}

impl HotRun {
    /// Is a trace streaming?
    fn active(&self) -> bool {
        self.pos < self.dus.len()
    }

    /// Start streaming `frame`: copy its dispatch form.
    fn load(&mut self, frame: &TraceFrame) {
        self.dus.clear();
        self.dus.extend_from_slice(&frame.dispatch);
        self.addr_slots.clear();
        self.addr_slots.extend_from_slice(&frame.addr_slots);
        self.patched = 0;
        self.pos = 0;
    }

    /// Give the memory uops of covered instruction `inst` its effective
    /// address. Instructions arrive in order, as the slots are sorted.
    fn patch(&mut self, inst: u32, eff_addr: u64) {
        while let Some(&(u, i)) = self.addr_slots.get(self.patched) {
            if i != inst {
                break;
            }
            self.dus[u as usize].eff_addr = eff_addr;
            self.patched += 1;
        }
    }
}

struct TraceState {
    cfg: TraceConfig,
    selector: TraceSelector,
    hot_filter: CounterFilter,
    blazing: CounterFilter,
    tc: TraceCache,
    tpred: TracePredictor,
    optimizer: Option<Optimizer>,
    hot_run: HotRun,
    cand_buf: Vec<TraceCandidate>,
    hot_insts: u64,
    cold_insts: u64,
    aborts: u64,
    entries: u64,
    constructed: u64,
    tpred_correct: u64,
    tpred_issued: u64,
    pred_aborts: u64,
    attempts: u64,
    no_variant: u64,
}

impl TraceState {
    fn new(cfg: TraceConfig) -> TraceState {
        TraceState {
            selector: TraceSelector::new(cfg.selection),
            hot_filter: CounterFilter::new(cfg.hot_filter),
            blazing: CounterFilter::new(cfg.blazing_filter),
            tc: TraceCache::new(cfg.tcache),
            tpred: TracePredictor::new(cfg.tpred),
            optimizer: cfg.optimizer.map(Optimizer::new),
            hot_run: HotRun::default(),
            cand_buf: Vec::new(),
            hot_insts: 0,
            cold_insts: 0,
            aborts: 0,
            entries: 0,
            constructed: 0,
            tpred_correct: 0,
            tpred_issued: 0,
            pred_aborts: 0,
            attempts: 0,
            no_variant: 0,
            cfg,
        }
    }

    /// Background phase for one committed instruction: TID selection, trace
    /// predictor training, hot filtering and trace construction.
    fn observe_inst(
        &mut self,
        d: &parrot_workloads::DynInst,
        seq: u64,
        wl: &Workload,
        model: &EnergyModel,
        acct: &mut EnergyAccount,
        faults: &mut Option<FaultInjector>,
    ) {
        let kind = wl.program.inst(d.inst).kind;
        acct.emit(model, Event::SelectorStep);
        self.selector.step(d, &kind, seq, &mut self.cand_buf);
        while let Some(cand) = self.cand_buf.pop() {
            acct.emit(model, Event::TpredUpdate);
            self.tpred.observe(&cand.tid);
            acct.emit(model, Event::HotFilterAccess);
            let count = self.hot_filter.bump(cand.tid.key());
            if let Some(inj) = faults {
                if let Some(r) = inj.roll(FaultKind::TidAlias) {
                    // A TID hash collision: bump a colliding key into this
                    // set, stealing counter capacity (and possibly a way)
                    // from legitimate TIDs. Benign by construction — the
                    // filter only gates *when* traces get constructed.
                    let alias = self.hot_filter.alias_key(cand.tid.key(), r);
                    self.hot_filter.bump(alias);
                    inj.note_injected(FaultKind::TidAlias);
                    inj.note_benign(FaultKind::TidAlias);
                }
            }
            if self.tc.contains(&cand.tid) {
                // The exact recorded path just executed: the frame is live.
                self.tc.revalidate(&cand.tid);
            } else if count >= self.cfg.hot_filter.threshold {
                let frame = construct_frame(&cand, &wl.decoded);
                acct.emit_n(model, Event::TcWrite, frame.uops.len() as u64);
                self.tc.insert(frame);
                self.constructed += 1;
            }
        }
    }
}

/// One simulated machine instance bound to a workload.
pub(crate) struct Machine<'w> {
    label: String,
    wl: &'w Workload,
    oracle: OracleStream<'w>,
    mem: parrot_uarch::cache::MemHierarchy,
    cores: Vec<OooCore>,
    frontend: ColdFrontEnd,
    queue: FetchQueue,
    cold_model: EnergyModel,
    hot_model: EnergyModel,
    acct: EnergyAccount,
    trace: Option<TraceState>,
    now: u64,
    active_side: Side,
    dispatch_blocked_until: u64,
    switches: u64,
    /// After a trace abort, hot entry is suppressed until the oracle cursor
    /// passes this point (guarantees cold forward progress).
    hot_block_cursor: u64,
    /// Start cycle of the current fetch-phase telemetry span and whether it
    /// is a hot (trace-cache) segment.
    phase_start: u64,
    phase_hot: bool,
    /// Armed fault injector (None for fault-free runs: zero overhead, and
    /// trace-cache integrity tagging stays disabled).
    faults: Option<FaultInjector>,
    /// Idle cycles the loop jumped over ([`Machine::skip_idle`]).
    skipped_cycles: u64,
}

impl<'w> Machine<'w> {
    /// Build a machine for `cfg` over `wl`, simulating `max_insts`
    /// committed instructions from stream position `start` on, from cold
    /// microarchitectural state. The report's `model` field carries
    /// `cfg.name`.
    ///
    /// - `faults` arms a fault injector (and trace-cache integrity
    ///   tagging); [`crate::SimRequest::faults`] reaches it.
    /// - `replay` draws the committed stream from a capture instead of the
    ///   live engine. The caller ([`crate::SimRequest::run`]) must already
    ///   have validated the capture against `wl` and the window.
    /// - `start > 0` positions the stream before simulation begins: phase
    ///   sampling runs representatives this way
    ///   ([`crate::SimRequest::sampled`]). With a replay source the
    ///   reposition is O(slice) through the capture's index, while a live
    ///   engine must step to `start`.
    pub(crate) fn from_config_window(
        cfg: MachineConfig,
        wl: &'w Workload,
        max_insts: u64,
        faults: Option<FaultInjector>,
        replay: Option<Arc<TraceFile>>,
        start: u64,
    ) -> Machine<'w> {
        let mut cores = vec![OooCore::new(cfg.core)];
        if let Some(hc) = cfg.hot_core {
            cores.push(OooCore::new(hc));
        }
        let cold_model = EnergyModel::new(&cfg.energy);
        let hot_model = EnergyModel::new(cfg.hot_energy.as_ref().unwrap_or(&cfg.energy));
        let queue_cap = 3 * cfg
            .trace
            .map(|t| t.hot_fetch_uops)
            .unwrap_or(cfg.core.decode_uops)
            .max(cfg.core.decode_uops) as usize;
        let mut trace = cfg.trace.map(TraceState::new);
        if faults.is_some() {
            // Fingerprint-tag every cached frame so injected encoding
            // corruption is detectable at hot fetch. Off by default: a
            // fault-free run does zero extra work and stays byte-identical.
            if let Some(ts) = &mut trace {
                ts.tc.set_integrity(true);
            }
        }
        let mut src = match replay {
            Some(trace) => StreamSource::replay(trace, wl)
                .expect("replay source validated before machine construction"),
            None => StreamSource::live(wl),
        };
        if start > 0 {
            src.skip(start)
                .expect("window validated against the capture before machine construction");
        }
        Machine {
            label: cfg.name.clone(),
            frontend: ColdFrontEnd::new(cfg.core, cfg.bpred),
            oracle: OracleStream::from_source(src, max_insts),
            mem: parrot_uarch::cache::MemHierarchy::standard(),
            cores,
            queue: FetchQueue::new(queue_cap),
            cold_model,
            hot_model,
            acct: EnergyAccount::new(),
            trace,
            now: 0,
            active_side: Side::Cold,
            dispatch_blocked_until: 0,
            switches: 0,
            hot_block_cursor: 0,
            phase_start: 0,
            phase_hot: false,
            faults,
            skipped_cycles: 0,
            wl,
        }
    }

    fn done(&self) -> bool {
        self.oracle.exhausted()
            && self.queue.is_empty()
            && self.cores.iter().all(|c| c.is_empty())
            && self.trace.as_ref().is_none_or(|t| !t.hot_run.active())
    }

    /// Start from functionally warmed cache/predictor state instead of
    /// cold (sampled simulation, DESIGN.md §18.3). Must be called before
    /// the first tick.
    pub(crate) fn inject_warm_state(
        &mut self,
        mem: parrot_uarch::cache::MemHierarchy,
        bpred: parrot_uarch::bpred::HybridPredictor,
    ) {
        debug_assert_eq!(self.now, 0, "warm state must be injected before running");
        self.mem = mem;
        self.frontend.bpred = bpred;
    }

    /// Run to completion and produce the report.
    pub(crate) fn run(mut self) -> SimReport {
        self.run_loop(None);
        self.finish()
    }

    /// Cumulative report for the machine's current mid-run state, without
    /// disturbing it: static/clock energy for the elapsed cycles is
    /// finished on a clone of the energy account.
    fn snapshot_report(&self) -> SimReport {
        let mut acct = self.acct.clone();
        acct.finish_static(&self.cold_model, self.now);
        self.build_report(&acct)
    }

    /// Run until `b` instructions have committed, capturing cumulative
    /// report snapshots at the first commit boundaries at-or-past `a`
    /// (skipped when `a` is 0) and `b`, then stop. Both snapshots are
    /// taken mid-flight — younger in-flight work is abandoned at the
    /// second one — so `b − a` measures a contiguous fully-overlapped
    /// segment with no pipeline-drain tail on either side. The machine's
    /// own budget should exceed `b` by a pipeline's worth of
    /// instructions; if the stream runs dry first, the drained final
    /// report stands in for the `b` snapshot.
    ///
    /// Sampled simulation uses this to measure one warmed representative
    /// window per run: snapshot-at-`b` minus snapshot-at-`a` is the
    /// contribution of the window past its warmup prefix.
    pub(crate) fn run_segment(mut self, a: u64, b: u64) -> (Option<SimReport>, SimReport) {
        debug_assert!(a < b, "segment start must precede its end");
        let mut first = None;
        let stopped = self.run_loop(Some(&mut |m: &Machine| {
            let insts = m.committed_insts();
            if first.is_none() && a > 0 && insts >= a {
                first = Some(m.snapshot_report());
            }
            insts >= b
        }));
        if stopped {
            (first, self.snapshot_report())
        } else {
            (first, self.finish())
        }
    }

    /// The one cycle loop behind [`Machine::run`] and
    /// [`Machine::run_segment`]: tick until the machine drains or `stop`
    /// (checked after every tick) returns true. Returns whether `stop`
    /// ended the run. After a tick that changed nothing, the loop jumps
    /// to the next cycle that can change something ([`Machine::skip_idle`]).
    ///
    /// # Panics
    /// Panics when the run reaches the cycle cap (`remaining·400 + 5M`
    /// cycles) without draining: a livelocked machine must never hand a
    /// truncated report to a sweep cache, a served job or a table.
    fn run_loop(&mut self, mut stop: Option<&mut dyn FnMut(&Machine) -> bool>) -> bool {
        if tev::active() || metrics::active() {
            let label = format!("{}/{}", self.label, self.wl.profile.name);
            tev::begin_run(&label);
            metrics::begin_run(&label);
        }
        let _prof = profile::scope("machine.run");
        let cycle_cap = self.oracle.remaining() * 400 + 5_000_000;
        while !self.done() && self.now < cycle_cap {
            let active = self.tick();
            if stop.as_mut().is_some_and(|f| f(self)) {
                return true;
            }
            if !active {
                self.skip_idle(cycle_cap);
            }
        }
        assert!(
            self.done(),
            "{}/{}: simulation hit the cycle cap at cycle {} with {} instructions \
             committed — livelock?",
            self.label,
            self.wl.profile.name,
            self.now,
            self.committed_insts()
        );
        false
    }

    /// Instructions committed so far, summed over the cores.
    fn committed_insts(&self) -> u64 {
        self.cores.iter().map(|c| c.stats().committed_insts).sum()
    }

    /// Jump from an idle cycle to the earliest cycle at which a
    /// time-gated condition can flip (clamped to `cap`): a pending
    /// completion or the divider freeing up on some core
    /// ([`OooCore::next_wake`]), the front end's stall ending, or dispatch
    /// unblocking. Nothing else changes while no tick does, so every cycle
    /// before that one would repeat the idle tick; the cores add their
    /// per-cycle stall counters for the skipped cycles in bulk.
    ///
    /// Debug builds step through the skipped cycles instead, and assert
    /// that each changed nothing and that the bulk counters equal what
    /// stepping added.
    fn skip_idle(&mut self, cap: u64) {
        let now = self.now;
        let later = |t: u64| (t >= now).then_some(t);
        let wake = self
            .cores
            .iter()
            .filter_map(|c| c.next_wake(now))
            .chain(later(self.frontend.resume_at()))
            .chain(later(self.dispatch_blocked_until))
            .fold(cap, u64::min);
        if wake <= now {
            return;
        }
        let n = wake - now;
        self.skipped_cycles += n;
        if cfg!(debug_assertions) {
            let expected: Vec<_> = self.cores.iter().map(|c| c.idle_stats(n)).collect();
            let witness = self.idle_witness();
            for _ in 0..n {
                let active = self.tick();
                assert!(
                    !active && self.idle_witness() == witness,
                    "{}/{}: cycle {} changed state inside a skipped idle span \
                     ending at {wake}",
                    self.label,
                    self.wl.profile.name,
                    self.now - 1
                );
            }
            for (c, e) in self.cores.iter().zip(&expected) {
                assert_eq!(c.stats(), e, "bulk idle counters differ from stepping");
            }
        } else {
            for c in &mut self.cores {
                c.add_idle_cycles(n);
            }
            self.now = wake;
        }
    }

    /// What any state-changing tick moves: every simulated activity emits
    /// an energy event, and fetch moves the oracle cursor or the queue.
    fn idle_witness(&self) -> (u64, u64, usize) {
        let events = Event::ALL.iter().map(|e| self.acct.count(*e)).sum();
        (events, self.oracle.cursor(), self.queue.len())
    }

    /// Simulate one cycle. Returns whether anything but the per-cycle
    /// stall counters changed; a tick that returns false would repeat
    /// unchanged until a time-gated condition flips.
    fn tick(&mut self) -> bool {
        tev::set_clock(self.now);
        // Every stage boundary of the cycle loop is marked here, in this
        // file: the sampled stage clock (telemetry::profile) charges each
        // interval to the stage open before it, so the stages partition
        // the tick.
        profile::begin_tick(Stage::Exec);
        let mut active = false;
        // Writeback → commit → issue on every core, then dispatch and fetch.
        for i in 0..self.cores.len() {
            let model = if i == 0 {
                &self.cold_model
            } else {
                &self.hot_model
            };
            let core = &mut self.cores[i];
            // A completion (or the divider freeing up) due now is activity.
            active |= core.next_wake(self.now) == Some(self.now);
            if let Some(c) = core.writeback(self.now, model, &mut self.acct) {
                self.frontend.branch_resolved(c);
            }
            active |= core.commit(&mut self.mem, model, &mut self.acct).0 > 0;
            active |= core.issue(self.now, &mut self.mem, model, &mut self.acct) > 0;
        }
        profile::enter(Stage::Dispatch);
        active |= self.dispatch();
        active |= self.fetch();
        self.now += 1;
        if metrics::active() {
            let insts = self.committed_insts();
            if metrics::due(insts) {
                profile::enter(Stage::Accounting);
                self.publish_metrics(insts);
            }
        }
        profile::end_tick();
        active
    }

    /// Publish the authoritative cumulative counters and record one metric
    /// snapshot row. Counters are *set*, not incremented, so the final row
    /// of a run reconciles exactly with the [`SimReport`]/[`TraceReport`].
    fn publish_metrics(&self, insts: u64) {
        if let Some(ts) = &self.trace {
            metrics::counter_set("trace_entries", ts.entries);
            metrics::counter_set("trace_aborts", ts.aborts);
            metrics::counter_set("trace_constructed", ts.constructed);
            metrics::counter_set("hot_insts", ts.hot_insts);
            metrics::counter_set("cold_insts", ts.cold_insts);
            let tc = ts.tc.stats();
            metrics::counter_set("tc_lookups", tc.lookups);
            metrics::counter_set("tc_hits", tc.hits);
            metrics::counter_set("tc_evictions", tc.evictions);
            if let Some(o) = &ts.optimizer {
                let s = o.stats();
                metrics::counter_set("opt:validated", s.validated);
                metrics::counter_set("opt:demoted", s.demoted);
                metrics::counter_set(
                    "opt:inconclusive",
                    s.inconclusive_lint + s.inconclusive_equiv,
                );
            }
        }
        if let Some(inj) = &self.faults {
            let c = &inj.counters;
            for k in FaultKind::ALL {
                metrics::counter_set(k.injected_counter(), c.injected[k as usize]);
                metrics::counter_set(k.caught_counter(), c.caught[k as usize]);
                metrics::counter_set(k.benign_counter(), c.benign[k as usize]);
            }
            metrics::counter_set("fault:demoted", c.demoted);
            metrics::counter_set("fault:fellback", c.fellback);
        }
        if self.oracle.is_replay() {
            metrics::counter_set("replay:read", self.oracle.pulled());
        }
        metrics::counter_set("state_switches", self.switches);
        metrics::counter_set("idle_cycles_skipped", self.skipped_cycles);
        metrics::gauge_set("energy", self.acct.total());
        metrics::snapshot(insts, self.now);
    }

    /// Move uops from the fetch queue into the cores. Returns whether it
    /// dispatched a uop or began a core switch.
    fn dispatch(&mut self) -> bool {
        if self.now < self.dispatch_blocked_until {
            return false;
        }
        let split = self.cores.len() > 1;
        let mut dispatched = [0u32; 2];
        while let Some((side, d)) = self.queue.front() {
            let phys_side = if side == Side::Cold {
                Side::Cold
            } else {
                Side::Hot
            };
            // Split machines drain and switch between cores.
            if split && phys_side != self.active_side {
                if self
                    .cores
                    .iter()
                    .any(|c| c.occupancy() > SWITCH_DRAIN_THRESHOLD)
                {
                    break; // wait for near-drain
                }
                self.active_side = phys_side;
                self.switches += 1;
                tev::instant(
                    "core.switch",
                    "machine",
                    tev::track::MACHINE,
                    tev::arg1("to_hot", if phys_side == Side::Hot { 1.0 } else { 0.0 }),
                );
                self.acct
                    .emit_n(&self.cold_model, Event::StateSwitchReg, SWITCH_REGS);
                self.dispatch_blocked_until = self.now + SWITCH_PENALTY;
                return true;
            }
            let idx = if split && phys_side == Side::Hot {
                1
            } else {
                0
            };
            // Optimized traces were pre-renamed by the optimizer: they
            // dispatch at trace-fetch width rather than rename width.
            let width = if side == Side::HotOpt {
                self.trace
                    .as_ref()
                    .map(|t| t.cfg.hot_fetch_uops)
                    .unwrap_or(self.cores[idx].config().rename_width)
            } else {
                self.cores[idx].config().rename_width
            };
            if dispatched[idx] >= width {
                break;
            }
            if !self.cores[idx].can_dispatch(&d) {
                break;
            }
            let model = if idx == 0 {
                &self.cold_model
            } else {
                &self.hot_model
            };
            self.cores[idx].dispatch(&d, model, &mut self.acct);
            self.queue.pop();
            dispatched[idx] += 1;
        }
        dispatched != [0, 0]
    }

    /// Fetch one cycle's worth from the hot or the cold pipeline. Returns
    /// false only when fetch could do nothing this cycle: the front end is
    /// stalled, the queue is full or the stream is exhausted.
    fn fetch(&mut self) -> bool {
        // Continue streaming an active hot run.
        if self.trace.as_ref().is_some_and(|t| t.hot_run.active()) {
            profile::enter(Stage::TraceCache);
            return self.deliver_hot();
        }
        profile::enter(Stage::Frontend);
        if !self.frontend.ready(self.now) || self.queue.full() {
            return false;
        }
        if self.oracle.exhausted() {
            return false;
        }
        // At a trace boundary (including an imminent capacity cut), the
        // fetch selector tries the hot pipeline.
        let at_boundary = self.trace.is_some() && {
            let next_uops = self
                .oracle
                .peek(0)
                .map(|d| self.wl.program.inst(d.inst).kind.uop_count() as u32);
            match next_uops {
                Some(n) => self
                    .trace
                    .as_ref()
                    .is_some_and(|t| t.selector.boundary_before(n)),
                None => false,
            }
        };
        if self.oracle.cursor() >= self.hot_block_cursor && at_boundary && self.attempt_hot_entry()
        {
            return true;
        }
        // Cold pipeline fetch (a failed hot entry left the trace cache open).
        profile::enter(Stage::Frontend);
        let taken = self.frontend.fetch_cycle(
            self.now,
            &mut self.oracle,
            self.wl,
            &mut self.mem,
            &self.cold_model,
            &mut self.acct,
            &mut self.queue,
        );
        self.consume(taken, false);
        true
    }

    /// Consume the `n` instructions fetch just took, popping each from the
    /// oracle and, on a trace model, observing it as it is popped
    /// (selection, the hot filter and construction): the one point where
    /// committed instructions leave the stream. A hot entry (`hot`) also
    /// patches each one's effective address into the streaming trace.
    fn consume(&mut self, n: u32, hot: bool) {
        let Some(ts) = &mut self.trace else {
            for _ in 0..n {
                self.oracle.pop().expect("fetched instruction exists");
            }
            return;
        };
        profile::enter(Stage::TraceCache);
        let from = self.oracle.cursor();
        for k in 0..n {
            let d = self.oracle.pop().expect("fetched instruction exists");
            if hot {
                ts.hot_run.patch(k, d.eff_addr);
            }
            ts.observe_inst(
                &d,
                from + u64::from(k),
                self.wl,
                &self.cold_model,
                &mut self.acct,
                &mut self.faults,
            );
        }
        if hot {
            ts.hot_insts += u64::from(n);
        } else {
            ts.cold_insts += u64::from(n);
        }
    }

    /// Try to enter the hot pipeline at the current trace boundary. Returns
    /// true if this cycle was consumed by the attempt (entered or aborted).
    ///
    /// The fetch selector consults the (higher-priority) trace predictor and
    /// the branch predictor (§2.3): the trace cache set at the next fetch
    /// address may hold several path variants; the predicted TID wins if
    /// resident, otherwise the variant whose recorded directions best agree
    /// with the branch predictor is chosen. Divergence from the committed
    /// path aborts the atomic trace.
    fn attempt_hot_entry(&mut self) -> bool {
        profile::enter(Stage::TraceCache);
        let now = self.now;
        let Some(next) = self.oracle.peek(0) else {
            return false;
        };
        let start_pc = next.pc;
        let ts = self.trace.as_mut().expect("trace state");
        ts.attempts += 1;

        // Pre-lookup fault window: structural cache faults (spurious
        // invalidations, eviction storms) land between trace executions.
        // Both are benign by construction — the trace cache is a
        // performance structure, so losing frames only costs cycles.
        if let Some(inj) = &mut self.faults {
            if let Some(r) = inj.roll(FaultKind::SpuriousInval) {
                if ts.tc.invalidate_nth((r >> 8) as usize).is_some() {
                    inj.note_injected(FaultKind::SpuriousInval);
                    inj.note_benign(FaultKind::SpuriousInval);
                    inj.counters.evicted_frames += 1;
                }
            }
            if let Some(r) = inj.roll(FaultKind::EvictionStorm) {
                let dropped = ts.tc.storm(r >> 8, 4);
                if dropped > 0 {
                    inj.note_injected(FaultKind::EvictionStorm);
                    inj.note_benign(FaultKind::EvictionStorm);
                    inj.counters.evicted_frames += dropped as u64;
                }
            }
        }

        self.acct.emit(&self.cold_model, Event::TpredLookup);
        let pending_key = ts.selector.pending_tid().map(|t| t.key());
        let predicted = ts.tpred.predict_with(pending_key);
        self.acct.emit(&self.cold_model, Event::TcTagAccess);

        // Variant choice: trace predictor first, branch-predictor vote next.
        let Some(chosen) = choose_variant(&ts.tc, start_pc, predicted, &self.frontend.bpred) else {
            ts.no_variant += 1;
            return false;
        };
        let used_prediction = predicted == Some(chosen);
        if used_prediction {
            ts.tpred_issued += 1;
        }

        // Delivery fault window: the chosen frame is about to stream.
        let mut stale_at: Option<(usize, u64)> = None;
        if let Some(inj) = &mut self.faults {
            if let Some(r) = inj.roll(FaultKind::BitFlip) {
                if ts.tc.corrupt_uop_in(&chosen, r) {
                    inj.note_injected(FaultKind::BitFlip);
                    // The insert-time fingerprint covers every uop field,
                    // so the gate below must detect the mutation.
                    debug_assert!(!ts.tc.verify_integrity(&chosen));
                }
            }
            // Integrity gate: a frame whose stored encoding no longer
            // matches its insert-time fingerprint must never stream into
            // the pipeline. Evict it and redirect fetch to the cold path.
            if !ts.tc.verify_integrity(&chosen) {
                inj.note_caught(FaultKind::BitFlip);
                inj.counters.fellback += 1;
                ts.tc.invalidate(&chosen);
                tev::instant(
                    "fault.caught",
                    "trace",
                    tev::track::TRACE,
                    tev::arg1("evicted", 1.0),
                );
                self.frontend.redirect(now, ts.cfg.abort_penalty);
                self.hot_block_cursor = self.oracle.cursor() + 1;
                return true;
            }
            if let Some(r) = inj.roll(FaultKind::StaleTrace) {
                if let Some(idx) = ts.tc.corrupt_path_in(&chosen, r) {
                    inj.note_injected(FaultKind::StaleTrace);
                    stale_at = Some((idx, r));
                }
            }
        }

        // Match the chosen trace's recorded path against the oracle.
        let (mut diverge, frame_len, num_insts) = {
            let frame = ts.tc.peek(&chosen).expect("resident");
            let mut diverge = None;
            for (k, (pc, taken)) in frame.path.iter().enumerate() {
                match self.oracle.peek(k as u64) {
                    Some(d) if d.pc == *pc && d.taken == *taken => {}
                    _ => {
                        diverge = Some(k);
                        break;
                    }
                }
            }
            (diverge, frame.uops.len() as u64, frame.num_insts)
        };
        if let Some((idx, r)) = stale_at {
            // The staleness is a *delivery* fault: restore the stored path
            // (flipping the same index back) so the resident frame stays
            // pristine for future, un-faulted attempts.
            let _ = ts.tc.corrupt_path_in(&chosen, r);
            // Even if the flipped path accidentally matched the committed
            // stream, the delivered copy's compiled uops still assert the
            // original direction at `idx`: the atomic trace aborts there.
            diverge = Some(diverge.map_or(idx, |k| k.min(idx)));
        }

        if let Some(k) = diverge {
            // Trace mispredict: the frame streams into the pipe and aborts
            // at the first failing assert; the atomic trace rolls back and
            // everything re-executes cold (charged as flush + stall; the
            // oracle cursor is not advanced).
            ts.aborts += 1;
            ts.tc.on_abort(&chosen);
            if stale_at.is_some() {
                // The injected stale trace was caught by the abort/rollback
                // machinery: architectural state is untouched, execution
                // falls back to the cold pipeline.
                let inj = self.faults.as_mut().expect("stale fault was rolled");
                inj.note_caught(FaultKind::StaleTrace);
                inj.counters.fellback += 1;
            }
            if used_prediction {
                ts.pred_aborts += 1;
                ts.tpred.score(false);
                ts.tpred.punish(pending_key);
            }
            let flushed = {
                let frame = ts.tc.peek(&chosen).expect("still resident");
                frame
                    .uops
                    .iter()
                    .filter(|u| (u.inst_idx as usize) <= k)
                    .count() as u64
            };
            tev::instant(
                "trace.abort",
                "trace",
                tev::track::TRACE,
                tev::arg2("diverge_at", k as f64, "flushed_uops", flushed as f64),
            );
            // Abort cost: flushed uops plus the rollback stall, the
            // "abort latency" distribution of the metrics file.
            metrics::hist_record("abort_flush_uops", flushed);
            metrics::hist_record(
                "abort_latency_cycles",
                u64::from(ts.cfg.abort_penalty) + flushed,
            );
            self.acct.emit_n(&self.cold_model, Event::TcRead, frame_len);
            self.acct.emit_n(&self.cold_model, Event::FlushUop, flushed);
            self.frontend
                .block_until(now + u64::from(ts.cfg.abort_penalty));
            // Require cold progress before the next hot attempt.
            self.hot_block_cursor = self.oracle.cursor() + 1;
            return true;
        }

        // Full match: enter the hot pipeline.
        ts.tc.on_full_match(&chosen);
        if used_prediction {
            ts.tpred.score(true);
            ts.tpred_correct += 1;
        }
        ts.entries += 1;
        tev::instant(
            "trace.entry",
            "trace",
            tev::track::TRACE,
            tev::arg2("insts", f64::from(num_insts), "uops", frame_len as f64),
        );

        // Blazing filter: promote the most frequent traces to the optimizer.
        self.acct.emit(&self.cold_model, Event::BlazingFilterAccess);
        let bcount = ts.blazing.bump(chosen.key());
        if let Some(optz) = &mut ts.optimizer {
            let qualifies = bcount >= ts.cfg.blazing_filter.threshold;
            let constructed_level =
                ts.tc.peek(&chosen).map(|f| f.opt_level) == Some(OptLevel::Constructed);
            if qualifies && constructed_level && optz.is_idle(now) {
                let mut f = ts.tc.peek(&chosen).expect("resident").clone();
                let sabotage = self
                    .faults
                    .as_mut()
                    .and_then(|inj| inj.roll(FaultKind::CorruptRewrite));
                let mut mutated = false;
                profile::enter(Stage::Optimizer);
                let outcome = match sabotage {
                    // Corrupt the rewrite after the pass pipeline, right in
                    // front of the mandatory translation-validation gate.
                    Some(r) => optz.optimize_with(
                        &mut f,
                        now,
                        Some(&mut |uops: &mut Vec<Uop>| {
                            if uops.is_empty() {
                                return;
                            }
                            let idx = (r % uops.len() as u64) as usize;
                            mutated =
                                parrot_isa::corrupt::corrupt_uop(&mut uops[idx], r >> 16).is_some();
                        }),
                    ),
                    None => optz.optimize(&mut f, now),
                };
                profile::enter(Stage::TraceCache);
                if mutated {
                    let inj = self.faults.as_mut().expect("sabotage was rolled");
                    inj.note_injected(FaultKind::CorruptRewrite);
                    if outcome.gate == GateDecision::Validated {
                        // The mutation survived replay equivalence (same
                        // live-outs, same store log): provably harmless.
                        inj.note_benign(FaultKind::CorruptRewrite);
                    } else {
                        // The gate demoted the frame back to its original
                        // uops: the corruption never reaches execution.
                        inj.note_caught(FaultKind::CorruptRewrite);
                        inj.counters.demoted += 1;
                    }
                }
                self.acct
                    .emit_n(&self.cold_model, Event::OptimizerUop, outcome.work_uops);
                self.acct
                    .emit_n(&self.cold_model, Event::TcWrite, f.uops.len() as u64);
                ts.tc.replace_optimized(f);
            }
        }

        // Copy the frame's dispatch form. A frame that fault injection
        // corrupted never gets here: the integrity gate above evicted it.
        debug_assert!(ts.tc.verify_integrity(&chosen), "corrupted frame streams");
        ts.hot_run.load(ts.tc.fetch(&chosen).expect("resident"));

        self.consume(num_insts, true);
        let ts = self.trace.as_mut().expect("trace state");
        debug_assert_eq!(ts.hot_run.patched, ts.hot_run.addr_slots.len());
        // Read after the background pass, which may have evicted the frame.
        ts.hot_run.optimized =
            ts.tc.peek(&chosen).map(|f| f.opt_level) == Some(OptLevel::Optimized);
        if tev::active() {
            // Close the cold fetch segment and open the hot one.
            tev::complete(
                "cold",
                "phase",
                tev::track::PHASE,
                self.phase_start,
                now,
                tev::NO_ARGS,
            );
            self.phase_start = now;
            self.phase_hot = true;
        }
        self.deliver_hot();
        true
    }

    /// Stream the active hot run into the queue. Returns whether it moved
    /// a uop.
    fn deliver_hot(&mut self) -> bool {
        let Some(ts) = &mut self.trace else {
            return false;
        };
        let run = &mut ts.hot_run;
        let width = ts.cfg.hot_fetch_uops as usize;
        let side = if run.optimized {
            Side::HotOpt
        } else {
            Side::Hot
        };
        let mut n = 0;
        while n < width && run.active() && !self.queue.full() {
            self.queue.push(side, run.dus[run.pos]);
            self.acct.emit(&self.cold_model, Event::TcRead);
            run.pos += 1;
            n += 1;
        }
        if !run.active() && self.phase_hot && tev::active() {
            // The trace has fully streamed: close the hot segment.
            tev::complete(
                "hot",
                "phase",
                tev::track::PHASE,
                self.phase_start,
                self.now,
                tev::NO_ARGS,
            );
            self.phase_start = self.now;
            self.phase_hot = false;
        }
        n > 0
    }

    /// # Panics
    /// Panics on a trace model whose instruction ledger does not balance:
    /// every committed instruction must have been consumed from the stream
    /// once (hot or cold) and observed by the selector once.
    fn finish(mut self) -> SimReport {
        self.acct.finish_static(&self.cold_model, self.now);
        let insts = self.committed_insts();
        if let Some(ts) = &self.trace {
            let consumed = ts.hot_insts + ts.cold_insts;
            let observed = self.acct.count(Event::SelectorStep);
            assert!(
                consumed == insts && observed == consumed,
                "{}/{}: instruction ledger broken: {} hot + {} cold consumed, \
                 {observed} observed, {insts} committed",
                self.label,
                self.wl.profile.name,
                ts.hot_insts,
                ts.cold_insts,
            );
        }
        if tev::active() {
            // Close the open fetch-phase span at end of simulation.
            let name = if self.phase_hot { "hot" } else { "cold" };
            tev::complete(
                name,
                "phase",
                tev::track::PHASE,
                self.phase_start,
                self.now,
                tev::NO_ARGS,
            );
        }
        if metrics::active() {
            // Forced final snapshot: the last JSONL row carries the run's
            // final cumulative counters, equal to the report below.
            self.publish_metrics(insts);
        }
        let acct = std::mem::take(&mut self.acct);
        self.build_report(&acct)
    }

    /// The report for the machine's current cumulative state, with energy
    /// read from `acct` (the caller finishes static energy on it — on the
    /// live account at end of run, or on a clone for a mid-run snapshot
    /// that must not disturb the machine).
    fn build_report(&self, acct: &EnergyAccount) -> SimReport {
        let insts = self.committed_insts();
        let uops: u64 = self.cores.iter().map(|c| c.stats().committed_uops).sum();
        let fe = self.frontend.stats();
        let (store_log_hash, committed_stores) = self.queue.store_log();
        let trace = self.trace.as_ref().map(|ts| {
            let total = ts.hot_insts + ts.cold_insts;
            let mut reuse: Vec<u64> = ts.tc.retired_opt_reuse.clone();
            reuse.extend(
                ts.tc
                    .frames()
                    .filter(|f| f.opt_level == OptLevel::Optimized)
                    .map(|f| f.execs_since_opt),
            );
            let mean_opt_reuse = if reuse.is_empty() {
                0.0
            } else {
                reuse.iter().sum::<u64>() as f64 / reuse.len() as f64
            };
            let tc_stats = ts.tc.stats();
            TraceReport {
                coverage: if total == 0 {
                    0.0
                } else {
                    ts.hot_insts as f64 / total as f64
                },
                hot_insts: ts.hot_insts,
                cold_insts: ts.cold_insts,
                tpred_predictions: ts.tpred_issued,
                tpred_correct: ts.tpred_correct,
                pred_aborts: ts.pred_aborts,
                aborts: ts.aborts,
                entries: ts.entries,
                constructed: ts.constructed,
                hot_attempts: ts.attempts,
                no_variant: ts.no_variant,
                tc_lookups: tc_stats.lookups,
                tc_hits: tc_stats.hits,
                tc_evictions: tc_stats.evictions,
                mean_opt_reuse,
                opt: ts.optimizer.as_ref().map(|o| {
                    let s = o.stats();
                    OptReport {
                        traces: s.traces,
                        uop_reduction: s.uop_reduction(),
                        dep_reduction: s.dep_reduction(),
                        work_uops: s.work_uops,
                        fused: u64::from(s.passes.fused),
                        simd_lanes: u64::from(s.passes.simd_lanes),
                        removed_dead: u64::from(s.passes.removed_dead),
                        folded: u64::from(s.passes.folded),
                        validated: s.validated,
                        demoted: s.demoted,
                        inconclusive_lint: s.inconclusive_lint,
                        inconclusive_equiv: s.inconclusive_equiv,
                    }
                }),
            }
        });
        SimReport {
            model: self.label.clone(),
            app: self.wl.profile.name.to_string(),
            suite: self.wl.profile.suite.label().to_string(),
            insts,
            uops,
            cycles: self.now,
            energy: acct.total(),
            energy_by_unit: SimReport::breakdown_from(acct),
            cond_branches: fe.cond_branches,
            cond_mispredicts: fe.cond_mispredicts,
            iq_empty_cycles: self.cores.iter().map(|c| c.stats().iq_empty_cycles).sum(),
            issue_blocked_cycles: self
                .cores
                .iter()
                .map(|c| c.stats().issue_blocked_cycles)
                .sum(),
            state_switches: self.switches,
            store_log_hash,
            committed_stores,
            faults: self.faults.as_ref().map(|inj| inj.report()),
            trace,
        }
    }
}

/// The fetch selector's choice among the confident path variants resident
/// at `start_pc`: the predicted TID if it is one of them, else the variant
/// whose recorded path best agrees with the branch predictor, the most
/// recently used on a tie. `None` when no confident variant is resident.
fn choose_variant(
    tc: &TraceCache,
    start_pc: u64,
    predicted: Option<Tid>,
    bpred: &parrot_uarch::bpred::HybridPredictor,
) -> Option<Tid> {
    let confident = || tc.variants_at(start_pc).filter(|(f, _)| f.live_conf >= 2);
    let mut count = 0;
    let mut any = None;
    for (f, _) in confident() {
        if predicted == Some(f.tid) {
            return predicted;
        }
        count += 1;
        any = Some(f.tid);
    }
    if count < 2 {
        return any;
    }
    let mut best = None;
    let mut best_key = (i32::MIN, 0);
    for (f, stamp) in confident() {
        let mut score = 0i32;
        for (pc, taken) in &f.path {
            // Only conditional branches are recorded in dirs; approximate
            // by scoring every taken-marked step.
            if f.tid.num_branches > 0 {
                score += if bpred.predict(*pc) == *taken { 1 } else { -1 };
            }
        }
        // A tie in both score and stamp goes to the earlier slot.
        if best.is_none() || (score, stamp) > best_key {
            best = Some(f.tid);
            best_key = (score, stamp);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Model;
    use parrot_workloads::app_by_name;

    #[test]
    #[should_panic(expected = "TON/gcc: simulation hit the cycle cap at cycle")]
    fn hitting_the_cycle_cap_panics_instead_of_truncating() {
        let wl = Workload::build(&app_by_name("gcc").expect("registered app"));
        let mut m = Machine::from_config_window(Model::TON.config(), &wl, 1_000, None, None, 0);
        m.now = m.oracle.remaining() * 400 + 5_000_000;
        let _ = m.run();
    }

    #[test]
    fn idle_cycles_are_skipped_and_checked_in_debug_builds() {
        // art misses to memory often, so whole spans of cycles wait on a
        // load; in a debug build every skipped span is stepped and checked.
        let wl = Workload::build(&app_by_name("art").expect("registered app"));
        for model in [Model::N, Model::TOS] {
            let mut m = Machine::from_config_window(model.config(), &wl, 20_000, None, None, 0);
            m.run_loop(None);
            assert!(
                m.skipped_cycles > m.now / 10,
                "{model:?}: {} of {} cycles skipped",
                m.skipped_cycles,
                m.now
            );
        }
    }
}
