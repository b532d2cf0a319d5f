//! The cold-pipeline front end: I-cache fetch along the (predicted) path,
//! branch prediction, and width/complexity-constrained CISC decode.
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
use parrot_isa::InstKind;
use parrot_workloads::Workload;
use std::collections::VecDeque;

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
    /// appending dispatchable uops to `out`.
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
        out: &mut VecDeque<DispatchUop>,
    ) {
        if now < self.resume_at || self.waiting_on_branch {
            return;
        }
        // Keep the decoupling queue shallow.
        if out.len() >= 3 * self.cfg.decode_uops as usize {
            return;
        }
        let mut insts = 0u32;
        let mut uops = 0u32;
        let mut complex = 0u32;
        let mut line_this_cycle = u64::MAX;

        while insts < self.cfg.fetch_width {
            let Some(d) = oracle.peek(0) else { break };
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
                out.push_back(du);
            }
            uops += n;
            insts += 1;
            self.stats.fetched_insts += 1;
            self.stats.fetched_uops += u64::from(n);
            oracle.pop();

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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parrot_energy::EnergyConfig;
    use parrot_workloads::{app_by_name, AppProfile, Suite};

    struct Rig {
        wl: Workload,
        mem: MemHierarchy,
        model: EnergyModel,
        acct: EnergyAccount,
        fe: ColdFrontEnd,
        out: VecDeque<DispatchUop>,
    }

    fn rig(profile: &AppProfile) -> Rig {
        Rig {
            wl: Workload::build(profile),
            mem: MemHierarchy::standard(),
            model: EnergyModel::new(&EnergyConfig::narrow()),
            acct: EnergyAccount::new(),
            fe: ColdFrontEnd::new(CoreConfig::narrow(), BpredConfig::baseline_4k()),
            out: VecDeque::new(),
        }
    }

    #[test]
    fn delivers_uops_in_order_with_boundaries() {
        let mut r = rig(&AppProfile::suite_base(Suite::SpecInt));
        let mut oracle = OracleStream::new(r.wl.engine(), 2_000);
        let mut now = 0u64;
        let mut insts = 0u64;
        while !oracle.exhausted() && now < 100_000 {
            r.fe.fetch_cycle(
                now,
                &mut oracle,
                &r.wl,
                &mut r.mem,
                &r.model,
                &mut r.acct,
                &mut r.out,
            );
            // Drain the queue, counting macro boundaries; unstick mispredicts
            // by pretending instant resolution.
            while let Some(d) = r.out.pop_front() {
                if d.inst_credit > 0 {
                    insts += u64::from(d.inst_credit);
                }
                if d.mispredict {
                    r.fe.branch_resolved(now);
                }
            }
            now += 1;
        }
        assert_eq!(insts, 2_000, "every instruction must arrive exactly once");
    }

    #[test]
    fn branch_mispredicts_stall_fetch() {
        let mut r = rig(&AppProfile::suite_base(Suite::SpecInt));
        let mut oracle = OracleStream::new(r.wl.engine(), 5_000);
        let mut stall_seen = false;
        let mut now = 0;
        while !oracle.exhausted() && now < 50_000 {
            r.fe.fetch_cycle(
                now,
                &mut oracle,
                &r.wl,
                &mut r.mem,
                &r.model,
                &mut r.acct,
                &mut r.out,
            );
            if r.fe.waiting_on_branch() {
                stall_seen = true;
                let before = oracle.cursor();
                r.fe.fetch_cycle(
                    now + 1,
                    &mut oracle,
                    &r.wl,
                    &mut r.mem,
                    &r.model,
                    &mut r.acct,
                    &mut r.out,
                );
                assert_eq!(oracle.cursor(), before, "no fetch while waiting on branch");
                r.fe.branch_resolved(now + 1);
                let penalty = u64::from(CoreConfig::narrow().mispredict_penalty);
                r.fe.fetch_cycle(
                    now + 2,
                    &mut oracle,
                    &r.wl,
                    &mut r.mem,
                    &r.model,
                    &mut r.acct,
                    &mut r.out,
                );
                assert_eq!(oracle.cursor(), before, "redirect penalty must elapse");
                now += 2 + penalty;
                r.out.clear();
                continue;
            }
            r.out.clear();
            now += 1;
        }
        assert!(stall_seen, "SpecInt must mispredict sometimes");
    }

    #[test]
    fn specfp_predicts_better_than_specint() {
        let rate = |profile: &AppProfile| {
            let mut r = rig(profile);
            let mut oracle = OracleStream::new(r.wl.engine(), 60_000);
            let mut now = 0;
            while !oracle.exhausted() && now < 2_000_000 {
                r.fe.fetch_cycle(
                    now,
                    &mut oracle,
                    &r.wl,
                    &mut r.mem,
                    &r.model,
                    &mut r.acct,
                    &mut r.out,
                );
                if r.fe.waiting_on_branch() {
                    r.fe.branch_resolved(now);
                }
                r.out.clear();
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
        let mut r = rig(&AppProfile::suite_base(Suite::SpecFp));
        let mut oracle = OracleStream::new(r.wl.engine(), 10_000);
        for now in 0..2_000u64 {
            let before = oracle.cursor();
            r.fe.fetch_cycle(
                now,
                &mut oracle,
                &r.wl,
                &mut r.mem,
                &r.model,
                &mut r.acct,
                &mut r.out,
            );
            let fetched = oracle.cursor() - before;
            assert!(fetched <= u64::from(CoreConfig::narrow().fetch_width));
            if r.fe.waiting_on_branch() {
                r.fe.branch_resolved(now);
            }
            r.out.clear();
        }
    }
}
