//! The cold-pipeline front end: I-cache fetch along the (predicted) path,
//! branch prediction, and width/complexity-constrained CISC decode; and the
//! fetch queue both the cold and the hot pipeline deliver into.
//!
//! Trace-driven discipline: only correct-path instructions are delivered.
//! A misprediction stalls fetch at the offending branch; when the core
//! reports the branch resolved, fetch resumes after the redirect penalty,
//! and the wrong-path energy the real machine would have spent is charged
//! as flush activity.

use crate::bpred::{BpredConfig, HybridPredictor};
use crate::cache::{MemHierarchy, ServicedBy};
use crate::core::{CoreConfig, DispatchUop};
use crate::oracle::OracleStream;
use parrot_energy::{EnergyAccount, EnergyModel, Event};
use parrot_isa::corrupt::fnv1a_u64;
use parrot_isa::{ExecClass, InstKind};
use parrot_workloads::Workload;
use std::collections::VecDeque;

/// Which pipeline a queued uop came from (cores differ only in split
/// models). `HotOpt` marks uops of *optimized* traces: partial renaming was
/// already performed by the optimizer, so they rename at trace-fetch width
/// instead of the cold rename width (the paper's "simplified renaming"
/// benefit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The cold front end (I-cache fetch and decode).
    Cold,
    /// An unoptimized trace from the trace cache.
    Hot,
    /// An optimized trace from the trace cache.
    HotOpt,
}

/// The one queue between fetch (cold or hot) and dispatch. It also keeps
/// the committed-store log: an FNV-1a hash over the effective addresses of
/// store uops, folded as each is pushed (program order, schedule
/// independent). Aborted traces push nothing, so the log captures exactly
/// the architecturally committed stores — the graceful-degradation
/// correctness witness.
#[derive(Debug)]
pub struct FetchQueue {
    uops: VecDeque<(Side, DispatchUop)>,
    cap: usize,
    store_hash: u64,
    store_count: u64,
}

impl FetchQueue {
    /// An empty queue that reports [`FetchQueue::full`] at `cap` uops.
    pub fn new(cap: usize) -> FetchQueue {
        FetchQueue {
            uops: VecDeque::with_capacity(cap + 8),
            cap,
            store_hash: 0xcbf2_9ce4_8422_2325,
            store_count: 0,
        }
    }

    /// Append a fetched uop, folding it into the store log if it is a store.
    #[inline]
    pub fn push(&mut self, side: Side, du: DispatchUop) {
        if matches!(du.class, ExecClass::Store) {
            self.store_count += 1;
            self.store_hash = fnv1a_u64(self.store_hash, du.eff_addr);
        }
        self.uops.push_back((side, du));
    }

    /// The oldest queued uop.
    #[inline]
    pub fn front(&self) -> Option<(Side, DispatchUop)> {
        self.uops.front().copied()
    }

    /// Remove and return the oldest queued uop.
    #[inline]
    pub fn pop(&mut self) -> Option<(Side, DispatchUop)> {
        self.uops.pop_front()
    }

    /// Queued uops.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Is the queue empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Has the queue reached its capacity? Fetch starts no cycle then (a
    /// cycle already started may overfill it by one fetch width).
    #[inline]
    pub fn full(&self) -> bool {
        self.uops.len() >= self.cap
    }

    /// The store log: `(hash, stores folded)`.
    pub fn store_log(&self) -> (u64, u64) {
        (self.store_hash, self.store_count)
    }
}

/// Front-end statistics (feeds Fig 4.7).
#[derive(Clone, Copy, Debug, Default)]
pub struct FrontEndStats {
    /// Conditional branches fetched.
    pub cond_branches: u64,
    /// Conditional direction mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect-target (incl. return) mispredictions.
    pub target_mispredicts: u64,
    /// Macro-instructions fetched.
    pub fetched_insts: u64,
    /// Uops delivered to rename.
    pub fetched_uops: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// Fault-recovery redirects: restarts of cold fetch forced by a
    /// corrupted or stale trace caught at hot fetch.
    pub redirects: u64,
}

/// The cold front end: fetch + predict + decode for one machine.
#[derive(Clone, Debug)]
pub struct ColdFrontEnd {
    /// The branch predictor (public for inspection in tests/figures).
    pub bpred: HybridPredictor,
    cfg: CoreConfig,
    /// Fetch is blocked until this cycle (mispredict redirect, I-cache miss,
    /// BTB bubble).
    resume_at: u64,
    /// Set while a mispredicted branch is unresolved.
    waiting_on_branch: bool,
    stats: FrontEndStats,
}

impl ColdFrontEnd {
    /// A fresh front end.
    pub fn new(cfg: CoreConfig, bpred_cfg: BpredConfig) -> ColdFrontEnd {
        ColdFrontEnd {
            bpred: HybridPredictor::new(bpred_cfg),
            cfg,
            resume_at: 0,
            waiting_on_branch: false,
            stats: FrontEndStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &FrontEndStats {
        &self.stats
    }

    /// Is fetch stalled on an unresolved mispredicted branch?
    pub fn waiting_on_branch(&self) -> bool {
        self.waiting_on_branch
    }

    /// The cycle a redirect, miss or bubble stall ends (fetch may be
    /// ready earlier if no stall is pending).
    pub fn resume_at(&self) -> u64 {
        self.resume_at
    }

    /// May the front end (cold or hot) fetch at `cycle`? False while a
    /// mispredicted branch is unresolved or a redirect/miss stall is
    /// pending.
    pub fn ready(&self, cycle: u64) -> bool {
        !self.waiting_on_branch && cycle >= self.resume_at
    }

    /// The core resolved the outstanding mispredicted branch at `cycle`;
    /// fetch resumes after the redirect penalty.
    pub fn branch_resolved(&mut self, cycle: u64) {
        if self.waiting_on_branch {
            self.waiting_on_branch = false;
            self.resume_at = self
                .resume_at
                .max(cycle + u64::from(self.cfg.mispredict_penalty));
        }
    }

    /// Block fetch until `cycle` (used by the machine for trace-abort
    /// restarts and state switches).
    pub fn block_until(&mut self, cycle: u64) {
        self.resume_at = self.resume_at.max(cycle);
    }

    /// Fault-recovery redirect: a corrupted or stale trace was caught at hot
    /// fetch, so the machine falls back to cold fetch after `penalty`
    /// cycles (the same pipeline-restart cost as a trace abort).
    pub fn redirect(&mut self, now: u64, penalty: u32) {
        self.resume_at = self.resume_at.max(now + u64::from(penalty));
        self.stats.redirects += 1;
    }

    /// Fetch and decode one cycle's worth of instructions from the oracle,
    /// pushing their uops into `out` as [`Side::Cold`]. Returns how many
    /// instructions it took: they are the next ones in `oracle`, which this
    /// only peeks, and the caller consumes them.
    ///
    /// Stops early at: fetch/decode width, a complex-decode limit, a
    /// predicted-taken branch (one per cycle), an I-cache miss, a BTB miss
    /// bubble, or a misprediction (which stalls until resolved).
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_cycle(
        &mut self,
        now: u64,
        oracle: &mut OracleStream<'_>,
        wl: &Workload,
        mem: &mut MemHierarchy,
        model: &EnergyModel,
        acct: &mut EnergyAccount,
        out: &mut FetchQueue,
    ) -> u32 {
        if now < self.resume_at || self.waiting_on_branch {
            return 0;
        }
        let mut insts = 0u32;
        let mut uops = 0u32;
        let mut complex = 0u32;
        let mut line_this_cycle = u64::MAX;

        while insts < self.cfg.fetch_width {
            let Some(d) = oracle.peek(u64::from(insts)) else {
                break;
            };
            let decoded = wl.decoded.uops(d.inst);
            let n = decoded.len() as u32;
            if uops + n > self.cfg.decode_uops {
                break;
            }
            if n > 1 && complex >= self.cfg.max_complex {
                break;
            }
            // I-cache: one access per distinct line touched.
            let line = d.pc / 64;
            if line != line_this_cycle {
                acct.emit(model, Event::IcacheAccess);
                let r = mem.access_inst(d.pc);
                if r.serviced_by != ServicedBy::L1 {
                    acct.emit(model, Event::IcacheMiss);
                    if r.serviced_by == ServicedBy::Memory {
                        acct.emit(model, Event::L2Access);
                        acct.emit(model, Event::MemAccess);
                    }
                    self.stats.icache_misses += 1;
                    self.resume_at = now + u64::from(r.latency);
                    break;
                }
                line_this_cycle = line;
            }

            // Branch prediction.
            let inst = wl.program.inst(d.inst);
            let mut mispredict = false;
            let mut btb_bubble = false;
            match inst.kind {
                InstKind::CondBranch { .. } => {
                    acct.emit(model, Event::BpredLookup);
                    let pred = self.bpred.predict(d.pc);
                    self.bpred.update(d.pc, d.taken);
                    acct.emit(model, Event::BpredUpdate);
                    self.stats.cond_branches += 1;
                    if pred != d.taken {
                        mispredict = true;
                        self.stats.cond_mispredicts += 1;
                    } else if d.taken {
                        acct.emit(model, Event::BtbAccess);
                        if self.bpred.btb_lookup(d.pc) != Some(d.next_pc) {
                            btb_bubble = true;
                            self.bpred.btb_update(d.pc, d.next_pc);
                        }
                    }
                }
                InstKind::Jump => {
                    acct.emit(model, Event::BtbAccess);
                    if self.bpred.btb_lookup(d.pc) != Some(d.next_pc) {
                        btb_bubble = true;
                        self.bpred.btb_update(d.pc, d.next_pc);
                    }
                }
                InstKind::Call => {
                    acct.emit(model, Event::BtbAccess);
                    acct.emit(model, Event::RasAccess);
                    self.bpred.ras_push(d.pc + u64::from(d.len));
                    if self.bpred.btb_lookup(d.pc) != Some(d.next_pc) {
                        btb_bubble = true;
                        self.bpred.btb_update(d.pc, d.next_pc);
                    }
                }
                InstKind::Return => {
                    acct.emit(model, Event::RasAccess);
                    let pred = self.bpred.ras_pop();
                    if pred != Some(d.next_pc) {
                        mispredict = true;
                        self.stats.target_mispredicts += 1;
                    }
                }
                InstKind::IndirectJump { .. } => {
                    acct.emit(model, Event::BtbAccess);
                    if self.bpred.btb_lookup(d.pc) != Some(d.next_pc) {
                        mispredict = true;
                        self.stats.target_mispredicts += 1;
                    }
                    self.bpred.btb_update(d.pc, d.next_pc);
                }
                _ => {}
            }

            // Decode and deliver.
            if n > 1 {
                acct.emit(model, Event::DecodeComplex);
                complex += 1;
            } else {
                acct.emit(model, Event::DecodeSimple);
            }
            for (k, u) in decoded.iter().enumerate() {
                let last = k + 1 == decoded.len();
                let mut du = DispatchUop::from_uop(u, d.eff_addr, u32::from(last));
                if mispredict && last {
                    du.mispredict = true;
                }
                out.push(Side::Cold, du);
            }
            uops += n;
            insts += 1;
            self.stats.fetched_insts += 1;
            self.stats.fetched_uops += u64::from(n);

            if mispredict {
                // Fetch stalls until the core resolves this branch; the
                // wrong-path activity the real machine would burn is charged
                // as flush energy.
                self.waiting_on_branch = true;
                acct.emit_n(
                    model,
                    Event::FlushUop,
                    u64::from(self.cfg.decode_uops) * u64::from(self.cfg.mispredict_penalty) / 2,
                );
                break;
            }
            if btb_bubble {
                self.resume_at = now + 2;
                break;
            }
            if d.taken {
                break; // one taken branch per fetch cycle
            }
        }
        insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parrot_energy::EnergyConfig;
    use parrot_workloads::{app_by_name, AppProfile, Suite};

    struct Rig<'w> {
        wl: &'w Workload,
        mem: MemHierarchy,
        model: EnergyModel,
        acct: EnergyAccount,
        fe: ColdFrontEnd,
        out: FetchQueue,
    }

    fn rig(wl: &Workload) -> Rig<'_> {
        Rig {
            wl,
            mem: MemHierarchy::standard(),
            model: EnergyModel::new(&EnergyConfig::narrow()),
            acct: EnergyAccount::new(),
            fe: ColdFrontEnd::new(CoreConfig::narrow(), BpredConfig::baseline_4k()),
            out: FetchQueue::new(64),
        }
    }

    impl Rig<'_> {
        /// One fetch cycle at `now`, consuming the instructions it took
        /// from `oracle` as the machine does. Returns how many it took.
        fn fetch(&mut self, now: u64, oracle: &mut OracleStream<'_>) -> u32 {
            let n = self.fe.fetch_cycle(
                now,
                oracle,
                self.wl,
                &mut self.mem,
                &self.model,
                &mut self.acct,
                &mut self.out,
            );
            for _ in 0..n {
                oracle.pop().expect("fetched instruction exists");
            }
            n
        }

        fn clear(&mut self) {
            while self.out.pop().is_some() {}
        }
    }

    #[test]
    fn delivers_uops_in_order_with_boundaries() {
        let wl = Workload::build(&AppProfile::suite_base(Suite::SpecInt));
        let mut r = rig(&wl);
        let mut oracle = OracleStream::new(wl.engine(), 2_000);
        let mut now = 0u64;
        let mut insts = 0u64;
        while !oracle.exhausted() && now < 100_000 {
            let taken = r.fetch(now, &mut oracle);
            // Drain the queue, counting macro boundaries; unstick mispredicts
            // by pretending instant resolution.
            let mut delivered = 0u64;
            while let Some((side, d)) = r.out.pop() {
                assert_eq!(side, Side::Cold);
                delivered += u64::from(d.inst_credit);
                if d.mispredict {
                    r.fe.branch_resolved(now);
                }
            }
            assert_eq!(
                delivered,
                u64::from(taken),
                "one boundary per instruction taken"
            );
            insts += delivered;
            now += 1;
        }
        assert_eq!(insts, 2_000, "every instruction must arrive exactly once");
        assert_eq!(oracle.cursor(), 2_000);
    }

    #[test]
    fn branch_mispredicts_stall_fetch() {
        let wl = Workload::build(&AppProfile::suite_base(Suite::SpecInt));
        let mut r = rig(&wl);
        let mut oracle = OracleStream::new(wl.engine(), 5_000);
        let mut stall_seen = false;
        let mut now = 0;
        while !oracle.exhausted() && now < 50_000 {
            r.fetch(now, &mut oracle);
            if r.fe.waiting_on_branch() {
                stall_seen = true;
                let before = oracle.cursor();
                r.fetch(now + 1, &mut oracle);
                assert_eq!(oracle.cursor(), before, "no fetch while waiting on branch");
                r.fe.branch_resolved(now + 1);
                let penalty = u64::from(CoreConfig::narrow().mispredict_penalty);
                r.fetch(now + 2, &mut oracle);
                assert_eq!(oracle.cursor(), before, "redirect penalty must elapse");
                now += 2 + penalty;
                r.clear();
                continue;
            }
            r.clear();
            now += 1;
        }
        assert!(stall_seen, "SpecInt must mispredict sometimes");
    }

    #[test]
    fn specfp_predicts_better_than_specint() {
        let rate = |profile: &AppProfile| {
            let wl = Workload::build(profile);
            let mut r = rig(&wl);
            let mut oracle = OracleStream::new(wl.engine(), 60_000);
            let mut now = 0;
            while !oracle.exhausted() && now < 2_000_000 {
                r.fetch(now, &mut oracle);
                if r.fe.waiting_on_branch() {
                    r.fe.branch_resolved(now);
                }
                r.clear();
                now += 1;
            }
            let s = r.fe.stats();
            s.cond_mispredicts as f64 / s.cond_branches.max(1) as f64
        };
        let int_rate = rate(&app_by_name("gcc").unwrap());
        let fp_rate = rate(&app_by_name("swim").unwrap());
        assert!(
            fp_rate < int_rate,
            "SpecFP ({fp_rate:.3}) must predict better than SpecInt ({int_rate:.3})"
        );
        assert!(
            int_rate > 0.02,
            "SpecInt should be nontrivially mispredicted: {int_rate:.4}"
        );
        assert!(
            fp_rate < 0.08,
            "swim should be highly predictable: {fp_rate:.4}"
        );
    }

    #[test]
    fn fetch_respects_width() {
        let wl = Workload::build(&AppProfile::suite_base(Suite::SpecFp));
        let mut r = rig(&wl);
        let mut oracle = OracleStream::new(wl.engine(), 10_000);
        for now in 0..2_000u64 {
            let fetched = r.fetch(now, &mut oracle);
            assert!(fetched <= CoreConfig::narrow().fetch_width);
            if r.fe.waiting_on_branch() {
                r.fe.branch_resolved(now);
            }
            r.clear();
        }
    }
}
