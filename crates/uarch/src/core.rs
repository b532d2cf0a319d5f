//! The out-of-order superscalar execution core.
//!
//! One generic, width-configurable engine backs every machine model in the
//! study (the paper's "generic, highly configurable object-oriented
//! execution core", §3.1): rename with a register alias table, a unified
//! ROB, an issue window with per-class execution ports, a load/store queue
//! budget, and in-order commit. It is *trace-driven*: only correct-path
//! uops enter; branch mispredictions manifest as fetch stalls plus
//! wrong-path energy, and resolved mispredicts are reported so the front
//! end can model the redirect.

use crate::cache::{MemHierarchy, ServicedBy};
use parrot_energy::{EnergyAccount, EnergyModel, Event};
use parrot_isa::ExecClass;

/// Per-class execution port counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortCounts {
    /// Integer ALU ports (also execute multiplies, divides, nops).
    pub int_alu: u32,
    /// Memory ports (loads + store-address).
    pub mem: u32,
    /// Floating-point ports.
    pub fp: u32,
    /// Branch resolution ports.
    pub branch: u32,
    /// Packed/SIMD ports.
    pub simd: u32,
}

/// Execution-core configuration (one per machine model; Table 3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Macro-instructions fetched per cycle (cold front end).
    pub fetch_width: u32,
    /// Uops leaving decode per cycle.
    pub decode_uops: u32,
    /// Multi-uop (CISC) instructions decodable per cycle.
    pub max_complex: u32,
    /// Uops renamed/dispatched per cycle.
    pub rename_width: u32,
    /// Peak uops issued per cycle.
    pub issue_width: u32,
    /// Uops committed per cycle.
    pub commit_width: u32,
    /// Reorder buffer entries.
    pub rob_size: u32,
    /// Issue-window entries.
    pub iq_size: u32,
    /// Load/store queue entries.
    pub lsq_size: u32,
    /// Execution ports.
    pub ports: PortCounts,
    /// Front-end refill penalty after a resolved misprediction (cycles).
    pub mispredict_penalty: u32,
    /// In-order issue (§5's alternative execution model for a hot core):
    /// uops issue strictly in age order, stalling at the first non-ready
    /// one. Saves scheduler energy at some IPC cost.
    pub in_order: bool,
}

impl CoreConfig {
    /// The standard 4-wide OOO core (model `N`).
    pub fn narrow() -> CoreConfig {
        CoreConfig {
            fetch_width: 4,
            decode_uops: 6,
            max_complex: 1,
            rename_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_size: 128,
            iq_size: 32,
            lsq_size: 48,
            ports: PortCounts {
                int_alu: 3,
                mem: 2,
                fp: 2,
                branch: 1,
                simd: 1,
            },
            mispredict_penalty: 10,
            in_order: false,
        }
    }

    /// The theoretical 8-wide core (model `W`).
    pub fn wide() -> CoreConfig {
        CoreConfig {
            fetch_width: 8,
            decode_uops: 10,
            max_complex: 1,
            rename_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_size: 144,
            iq_size: 36,
            lsq_size: 64,
            ports: PortCounts {
                int_alu: 4,
                mem: 3,
                fp: 3,
                branch: 2,
                simd: 2,
            },
            mispredict_penalty: 10,
            in_order: false,
        }
    }

    /// An in-order variant of this core (issue stalls at the first
    /// non-ready uop) — the paper's §5 alternative execution model.
    pub fn into_in_order(mut self) -> CoreConfig {
        self.in_order = true;
        self
    }
}

pub use parrot_isa::DispatchUop;

const NONE: u32 = u32::MAX;
/// Completion-bucket ring size; must exceed the longest latency.
const BUCKETS: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UopState {
    Waiting,
    Issued,
    Done,
}

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    state: UopState,
    class: ExecClass,
    /// Operand slots whose producer is not yet Done; the uop may issue at 0.
    pending: u8,
    /// Position in the issue window while the uop waits to issue.
    pos: u8,
    writes: [u8; 4], // register indices, 255 = none
    /// Head of the list of operand slots waiting on this uop's result. A
    /// link names one slot as `consumer * 4 + slot`; `NONE` ends the list.
    waiters: u32,
    /// For each operand slot on a producer's waiter list, the next link.
    next_waiter: [u32; 4],
    seq: u64,
    eff_addr: u64,
    reads: u8,
    inst_credit: u32,
    mispredict: bool,
    simd_lanes: u8,
}

impl RobEntry {
    fn empty() -> RobEntry {
        RobEntry {
            state: UopState::Done,
            class: ExecClass::Nop,
            pending: 0,
            pos: 0,
            writes: [255; 4],
            waiters: NONE,
            next_waiter: [NONE; 4],
            seq: 0,
            eff_addr: 0,
            reads: 0,
            inst_credit: 0,
            mispredict: false,
            simd_lanes: 0,
        }
    }
}

/// Aggregate statistics of one core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Uops committed.
    pub committed_uops: u64,
    /// Macro-instructions committed.
    pub committed_insts: u64,
    /// Uops issued to execution.
    pub issued_uops: u64,
    /// Loads that missed L1.
    pub l1d_misses: u64,
    /// Cycles in which nothing committed (stall visibility).
    pub commit_stall_cycles: u64,
    /// Issue cycles with an empty window (front-end starvation).
    pub iq_empty_cycles: u64,
    /// Issue cycles where the window was non-empty but nothing issued
    /// (dependency/port bound).
    pub issue_blocked_cycles: u64,
    /// Total issue-cycle count (denominator for the two above).
    pub issue_cycles: u64,
}

/// The out-of-order core. Drive it each cycle with
/// [`OooCore::writeback`], [`OooCore::commit`], [`OooCore::issue`] and
/// [`OooCore::dispatch`] (in that order) from the machine loop.
#[derive(Clone, Debug)]
pub struct OooCore {
    cfg: CoreConfig,
    rob: Vec<RobEntry>,
    head: u32,
    tail: u32,
    count: u32,
    next_seq: u64,
    /// The ROB entry that last wrote each register, while it is in flight.
    rat: [u32; 192],
    /// The issue window: ROB indices of the uops waiting to issue.
    iq: Vec<u32>,
    /// Bit `p` is set while the uop at window position `p` has all its
    /// operands ready.
    ready: u64,
    lsq_count: u32,
    div_busy_until: u64,
    completions: Vec<Vec<u32>>,
    /// One bit per completion bucket: set while the bucket is non-empty.
    pending: [u64; BUCKETS / 64],
    stats: CoreStats,
}

impl OooCore {
    /// An empty core.
    ///
    /// # Panics
    /// Panics if the issue window holds more than 64 entries (one bit each
    /// in the ready mask).
    pub fn new(cfg: CoreConfig) -> OooCore {
        assert!(cfg.iq_size <= 64, "issue window larger than the ready mask");
        OooCore {
            cfg,
            rob: vec![RobEntry::empty(); cfg.rob_size as usize],
            head: 0,
            tail: 0,
            count: 0,
            next_seq: 1,
            rat: [NONE; 192],
            iq: Vec::with_capacity(cfg.iq_size as usize),
            ready: 0,
            lsq_count: 0,
            div_busy_until: 0,
            completions: vec![Vec::new(); BUCKETS],
            pending: [0; BUCKETS / 64],
            stats: CoreStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Is the pipeline drained?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// In-flight uop count.
    pub fn occupancy(&self) -> u32 {
        self.count
    }

    /// The earliest cycle at or after `now` at which this core can change
    /// state without new input: its next pending completion, or the cycle
    /// the divider frees up. `None` when neither is pending. A cycle in
    /// which [`OooCore::writeback`], [`OooCore::commit`] and
    /// [`OooCore::issue`] did nothing repeats unchanged until then.
    pub fn next_wake(&self, now: u64) -> Option<u64> {
        let div = (self.div_busy_until >= now).then_some(self.div_busy_until);
        [self.next_completion(now), div].into_iter().flatten().min()
    }

    /// The earliest cycle at or after `now` with a pending completion.
    /// Every pending completion lies within `BUCKETS` cycles of `now`, so a
    /// bucket's distance from `now`'s bucket is its distance in cycles.
    fn next_completion(&self, now: u64) -> Option<u64> {
        let start = (now as usize) % BUCKETS;
        let (w0, b0) = (start / 64, start % 64);
        let words = self.pending.len();
        for k in 0..=words {
            let w = (w0 + k) % words;
            let bits = match k {
                0 => self.pending[w] & (!0u64 << b0),
                _ if k == words => self.pending[w] & !(!0u64 << b0),
                _ => self.pending[w],
            };
            if bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                return Some(now + ((idx + BUCKETS - start) % BUCKETS) as u64);
            }
        }
        None
    }

    /// The statistics after `n` more cycles in which this core does
    /// nothing, exactly as `n` calls of writeback, commit and issue would
    /// leave them: each cycle is a commit stall and an issue cycle, with an
    /// empty or a blocked window.
    pub fn idle_stats(&self, n: u64) -> CoreStats {
        let mut s = self.stats;
        s.commit_stall_cycles += n;
        s.issue_cycles += n;
        if self.iq.is_empty() {
            s.iq_empty_cycles += n;
        } else {
            s.issue_blocked_cycles += n;
        }
        s
    }

    /// Account `n` cycles in which this core does nothing
    /// (see [`OooCore::idle_stats`]).
    pub fn add_idle_cycles(&mut self, n: u64) {
        self.stats = self.idle_stats(n);
    }

    /// Mark completions due at `now` and wake the uops waiting on them;
    /// returns the resolution cycle of a completing mispredicted branch, if
    /// any (the front end resumes at `resolution + mispredict_penalty`).
    pub fn writeback(
        &mut self,
        now: u64,
        model: &EnergyModel,
        acct: &mut EnergyAccount,
    ) -> Option<u64> {
        let bucket = (now as usize) % BUCKETS;
        let mut resolved = None;
        // Take the bucket to appease the borrow checker; it is re-filled empty.
        let done = std::mem::take(&mut self.completions[bucket]);
        self.pending[bucket / 64] &= !(1 << (bucket % 64));
        for idx in &done {
            let e = &mut self.rob[*idx as usize];
            // A second completion would wake the waiters twice.
            debug_assert_eq!(
                e.state,
                UopState::Issued,
                "completion of a uop not in flight"
            );
            e.state = UopState::Done;
            acct.emit(model, Event::IqWakeup);
            for w in e.writes {
                if w != 255 {
                    acct.emit(model, Event::RegWrite);
                }
            }
            if e.mispredict {
                resolved = Some(now);
            }
            let mut link = std::mem::replace(&mut e.waiters, NONE);
            while link != NONE {
                let c = &mut self.rob[(link / 4) as usize];
                link = c.next_waiter[(link % 4) as usize];
                c.pending -= 1;
                if c.pending == 0 {
                    self.ready |= 1 << c.pos;
                }
            }
        }
        self.completions[bucket] = done;
        self.completions[bucket].clear();
        resolved
    }

    /// Retire up to `commit_width` completed uops from the ROB head. Stores
    /// access the data cache at retirement. Returns (uops, insts) committed.
    pub fn commit(
        &mut self,
        mem: &mut MemHierarchy,
        model: &EnergyModel,
        acct: &mut EnergyAccount,
    ) -> (u32, u32) {
        let mut uops = 0;
        let mut insts = 0;
        while self.count > 0 && uops < self.cfg.commit_width {
            let h = self.head as usize;
            if self.rob[h].state != UopState::Done {
                break;
            }
            let e = self.rob[h];
            // Free the RAT mapping if this entry still owns it. The RAT
            // names only entries in flight, so a mapping to this index is
            // this entry's.
            for w in e.writes {
                if w != 255 && self.rat[w as usize] == self.head {
                    self.rat[w as usize] = NONE;
                }
            }
            if e.class == ExecClass::Store {
                let r = mem.access_data(e.eff_addr);
                emit_data_events(r.serviced_by, model, acct);
                self.lsq_count = self.lsq_count.saturating_sub(1);
            }
            if e.class == ExecClass::Load {
                self.lsq_count = self.lsq_count.saturating_sub(1);
            }
            acct.emit(model, Event::CommitUop);
            acct.emit(model, Event::RobRead);
            self.stats.committed_uops += 1;
            uops += 1;
            if e.inst_credit > 0 {
                acct.emit_n(model, Event::CommitInst, u64::from(e.inst_credit));
                self.stats.committed_insts += u64::from(e.inst_credit);
                insts += e.inst_credit;
            }
            self.head = if self.head + 1 == self.cfg.rob_size {
                0
            } else {
                self.head + 1
            };
            self.count -= 1;
        }
        if uops == 0 {
            self.stats.commit_stall_cycles += 1;
        }
        (uops, insts)
    }

    /// Select and begin execution of ready uops in window order, bounded
    /// by issue width and port counts. Returns the number issued.
    ///
    /// Select visits the ready mask's set bits in position order. An issue
    /// from position `i` moves the window's last uop into `i`, where the
    /// scan looks next; a uop that finds no port is passed over. In-order
    /// issue pops the ready prefix of the window, which dispatch keeps in
    /// age order, and stalls at the first uop that cannot issue.
    pub fn issue(
        &mut self,
        now: u64,
        mem: &mut MemHierarchy,
        model: &EnergyModel,
        acct: &mut EnergyAccount,
    ) -> u32 {
        self.stats.issue_cycles += 1;
        if self.iq.is_empty() {
            self.stats.iq_empty_cycles += 1;
        }
        let in_order = self.cfg.in_order;
        debug_assert!(
            !in_order
                || self
                    .iq
                    .windows(2)
                    .all(|w| self.rob[w[0] as usize].seq < self.rob[w[1] as usize].seq),
            "in-order window out of age order"
        );
        let mut issued = 0u32;
        let mut ports_int = self.cfg.ports.int_alu;
        let mut ports_mem = self.cfg.ports.mem;
        let mut ports_fp = self.cfg.ports.fp;
        let mut ports_br = self.cfg.ports.branch;
        let mut ports_simd = self.cfg.ports.simd;
        // The first window position the scan has not passed over.
        let mut from = 0u32;
        while issued < self.cfg.issue_width {
            let cand = self.ready & u64::MAX.checked_shl(from).unwrap_or(0);
            if cand == 0 {
                break;
            }
            let i = cand.trailing_zeros();
            if in_order && i != from {
                break; // strict age order: stall at the first non-ready uop
            }
            let idx = self.iq[i as usize] as usize;
            let class = self.rob[idx].class;
            let port = match class {
                ExecClass::IntAlu | ExecClass::IntMul | ExecClass::Nop => &mut ports_int,
                ExecClass::IntDiv => {
                    if now < self.div_busy_until {
                        if in_order {
                            break;
                        }
                        from = i + 1;
                        continue;
                    }
                    &mut ports_int
                }
                ExecClass::FpAdd | ExecClass::FpMul | ExecClass::FpDiv => &mut ports_fp,
                ExecClass::Load | ExecClass::Store => &mut ports_mem,
                ExecClass::Branch => &mut ports_br,
                ExecClass::Simd => &mut ports_simd,
            };
            if *port == 0 {
                if in_order {
                    break;
                }
                from = i + 1;
                continue;
            }
            *port -= 1;

            // Compute latency (loads probe the hierarchy now).
            let latency = match class {
                ExecClass::IntAlu | ExecClass::Branch | ExecClass::Nop | ExecClass::Store => 1,
                ExecClass::IntMul => 3,
                ExecClass::IntDiv => 16,
                ExecClass::FpAdd => 3,
                ExecClass::FpMul => 4,
                ExecClass::FpDiv => 18,
                ExecClass::Simd => 2,
                ExecClass::Load => {
                    let r = mem.access_data(self.rob[idx].eff_addr);
                    emit_data_events(r.serviced_by, model, acct);
                    if r.serviced_by != ServicedBy::L1 {
                        self.stats.l1d_misses += 1;
                    }
                    r.latency
                }
            } as u64;

            // Energy for select, operand reads and the operation itself.
            acct.emit(model, Event::IqSelect);
            acct.emit_n(model, Event::RegRead, u64::from(self.rob[idx].reads));
            match class {
                ExecClass::IntAlu | ExecClass::Nop => acct.emit(model, Event::ExecAlu),
                ExecClass::IntMul => acct.emit(model, Event::ExecMul),
                ExecClass::IntDiv => acct.emit(model, Event::ExecDiv),
                ExecClass::FpAdd => acct.emit(model, Event::ExecFpAdd),
                ExecClass::FpMul => acct.emit(model, Event::ExecFpMul),
                ExecClass::FpDiv => acct.emit(model, Event::ExecFpDiv),
                ExecClass::Branch => acct.emit(model, Event::ExecAlu),
                ExecClass::Simd => acct.emit_n(
                    model,
                    Event::ExecSimdLane,
                    u64::from(self.rob[idx].simd_lanes.max(1)),
                ),
                ExecClass::Load | ExecClass::Store => acct.emit(model, Event::AguCalc),
            }

            let complete = now + latency;
            if class == ExecClass::IntDiv {
                self.div_busy_until = complete;
            }
            self.rob[idx].state = UopState::Issued;
            let bucket = (complete as usize) % BUCKETS;
            self.completions[bucket].push(idx as u32);
            self.pending[bucket / 64] |= 1 << (bucket % 64);
            if in_order {
                from = i + 1; // popped below, with the rest of the prefix
            } else {
                self.swap_remove_from_window(i as usize);
                from = i;
            }
            issued += 1;
            self.stats.issued_uops += 1;
        }
        if in_order && from > 0 {
            let k = from as usize;
            self.iq.drain(..k);
            self.ready = self.ready.checked_shr(from).unwrap_or(0);
            for &idx in &self.iq {
                self.rob[idx as usize].pos -= k as u8;
            }
        }
        if issued == 0 && !self.iq.is_empty() {
            self.stats.issue_blocked_cycles += 1;
        }
        issued
    }

    /// Take the uop at window position `i` out of the window: the last uop
    /// moves into `i`, and its ready bit with it.
    fn swap_remove_from_window(&mut self, i: usize) {
        let last = self.iq.len() - 1;
        let last_ready = (self.ready >> last) & 1;
        self.ready &= !(1 << last);
        self.iq.swap_remove(i);
        if i < last {
            self.ready = (self.ready & !(1 << i)) | (last_ready << i);
            self.rob[self.iq[i] as usize].pos = i as u8;
        }
    }

    /// Can another uop be dispatched this cycle (structural hazards only;
    /// the caller enforces rename width)?
    pub fn can_dispatch(&self, d: &DispatchUop) -> bool {
        if self.count >= self.cfg.rob_size {
            return false;
        }
        if self.iq.len() >= self.cfg.iq_size as usize {
            return false;
        }
        if matches!(d.class, ExecClass::Load | ExecClass::Store)
            && self.lsq_count >= self.cfg.lsq_size
        {
            return false;
        }
        true
    }

    /// Rename and insert one uop.
    ///
    /// # Panics
    /// Panics if [`OooCore::can_dispatch`] would return false.
    pub fn dispatch(&mut self, d: &DispatchUop, model: &EnergyModel, acct: &mut EnergyAccount) {
        assert!(self.can_dispatch(d), "dispatch without capacity check");
        let idx = self.tail;
        let seq = self.next_seq;
        self.next_seq += 1;

        let mut e = RobEntry::empty();
        e.state = UopState::Waiting;
        e.class = d.class;
        e.seq = seq;
        e.eff_addr = d.eff_addr;
        e.inst_credit = d.inst_credit;
        e.mispredict = d.mispredict;
        e.simd_lanes = d.simd_lanes;

        // Each operand whose producer is still in flight and not Done
        // joins that producer's waiter list. The RAT names only entries in
        // flight: commit clears a mapping its entry still owns.
        let mut nr = 0u8;
        for (k, r) in d.reads.iter().enumerate() {
            if let Some(r) = r {
                nr += 1;
                let p = self.rat[r.index()];
                if p != NONE && self.rob[p as usize].state != UopState::Done {
                    let producer = &mut self.rob[p as usize];
                    e.next_waiter[k] = producer.waiters;
                    producer.waiters = idx * 4 + k as u32;
                    e.pending += 1;
                }
            }
        }
        e.reads = nr;
        for (k, w) in d.writes.iter().enumerate() {
            if let Some(w) = w {
                e.writes[k] = w.index() as u8;
                self.rat[w.index()] = idx;
            }
        }

        if matches!(d.class, ExecClass::Load | ExecClass::Store) {
            self.lsq_count += 1;
        }
        let pos = self.iq.len();
        e.pos = pos as u8;
        if e.pending == 0 {
            self.ready |= 1 << pos;
        }
        self.rob[idx as usize] = e;
        self.iq.push(idx);
        self.tail = if self.tail + 1 == self.cfg.rob_size {
            0
        } else {
            self.tail + 1
        };
        self.count += 1;

        acct.emit(model, Event::RenameUop);
        acct.emit(model, Event::RobWrite);
        acct.emit(model, Event::IqInsert);
    }
}

/// Emit the energy events for a data access serviced at `level`.
pub fn emit_data_events(level: ServicedBy, model: &EnergyModel, acct: &mut EnergyAccount) {
    acct.emit(model, Event::L1dAccess);
    match level {
        ServicedBy::L1 => {}
        ServicedBy::L2 => {
            acct.emit(model, Event::L1dMiss);
            acct.emit(model, Event::L2Access);
        }
        ServicedBy::Memory => {
            acct.emit(model, Event::L1dMiss);
            acct.emit(model, Event::L2Access);
            acct.emit(model, Event::MemAccess);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parrot_energy::EnergyConfig;
    use parrot_isa::{AluOp, Cond, Reg, Uop};

    struct Rig {
        core: OooCore,
        mem: MemHierarchy,
        model: EnergyModel,
        acct: EnergyAccount,
        now: u64,
    }

    impl Rig {
        fn new() -> Rig {
            Rig {
                core: OooCore::new(CoreConfig::narrow()),
                mem: MemHierarchy::standard(),
                model: EnergyModel::new(&EnergyConfig::narrow()),
                acct: EnergyAccount::new(),
                now: 0,
            }
        }

        fn cycle(&mut self) -> (u32, u32) {
            self.core.writeback(self.now, &self.model, &mut self.acct);
            let c = self.core.commit(&mut self.mem, &self.model, &mut self.acct);
            self.core
                .issue(self.now, &mut self.mem, &self.model, &mut self.acct);
            self.now += 1;
            c
        }

        fn run_until_empty(&mut self, max: u64) -> (u64, u64) {
            let mut uops = 0u64;
            let mut insts = 0u64;
            for _ in 0..max {
                let (u, i) = self.cycle();
                uops += u64::from(u);
                insts += u64::from(i);
                if self.core.is_empty() {
                    break;
                }
            }
            (uops, insts)
        }

        fn dispatch(&mut self, d: DispatchUop) {
            assert!(self.core.can_dispatch(&d));
            self.core.dispatch(&d, &self.model, &mut self.acct);
        }
    }

    fn alu(dst: u8, a: u8, b: u8, last: bool) -> DispatchUop {
        let u = Uop::alu(AluOp::Add, Reg::int(dst), Reg::int(a), Reg::int(b));
        DispatchUop::from_uop(&u, 0, u32::from(last))
    }

    #[test]
    fn independent_uops_commit_quickly() {
        let mut rig = Rig::new();
        for i in 0..4 {
            rig.dispatch(alu(i, i, i, true));
        }
        let (uops, insts) = rig.run_until_empty(100);
        assert_eq!(uops, 4);
        assert_eq!(insts, 4);
        // 4 independent ALU uops on a 4-wide machine: a handful of cycles.
        assert!(rig.now <= 6, "took {} cycles", rig.now);
    }

    #[test]
    fn dependency_chain_serializes() {
        let mut rig = Rig::new();
        // r1 = r0+r0; r2 = r1+r1; ... chain of 8.
        for i in 0..8 {
            rig.dispatch(alu(i + 1, i, i, true));
        }
        let (uops, _) = rig.run_until_empty(100);
        assert_eq!(uops, 8);
        assert!(rig.now >= 8, "chain must serialize, took {}", rig.now);
    }

    #[test]
    fn load_miss_takes_memory_latency() {
        let mut rig = Rig::new();
        let u = Uop::load(Reg::int(1), Reg::int(2));
        rig.dispatch(DispatchUop::from_uop(&u, 0x0dea_d000, 1));
        rig.run_until_empty(400);
        assert!(
            rig.now >= 150,
            "cold load must reach memory, took {}",
            rig.now
        );
        // Same line again: hits L1.
        let mut cycles_before = rig.now;
        let u2 = Uop::load(Reg::int(3), Reg::int(2));
        rig.dispatch(DispatchUop::from_uop(&u2, 0x0dea_d000, 1));
        rig.run_until_empty(400);
        cycles_before = rig.now - cycles_before;
        assert!(cycles_before < 10, "warm load took {cycles_before}");
    }

    #[test]
    fn mispredict_resolution_is_reported() {
        let mut rig = Rig::new();
        let mut b = DispatchUop::from_uop(&Uop::branch(Cond::Eq), 0, 1);
        b.mispredict = true;
        rig.dispatch(b);
        let mut resolved = None;
        for _ in 0..20 {
            resolved = resolved.or(rig.core.writeback(rig.now, &rig.model, &mut rig.acct));
            rig.core.commit(&mut rig.mem, &rig.model, &mut rig.acct);
            rig.core
                .issue(rig.now, &mut rig.mem, &rig.model, &mut rig.acct);
            rig.now += 1;
        }
        assert!(resolved.is_some(), "mispredict resolution must surface");
    }

    #[test]
    fn next_wake_finds_a_completion_past_the_ring_wrap_and_idle_stats_match_stepping() {
        let mut rig = Rig::new();
        rig.now = 250;
        let u = Uop::load(Reg::int(1), Reg::int(2));
        rig.dispatch(DispatchUop::from_uop(&u, 0x0dea_d000, 1));
        rig.cycle(); // issues a memory miss: 162 cycles, done at 412 (bucket 156)
        assert_eq!(rig.core.next_wake(rig.now), Some(412));
        let expected = rig.core.idle_stats(412 - rig.now);
        while rig.now < 412 {
            assert_eq!(rig.cycle(), (0, 0));
        }
        assert_eq!(*rig.core.stats(), expected);
        assert_eq!(rig.cycle(), (1, 1));
        assert_eq!(rig.core.next_wake(rig.now), None);
    }

    #[test]
    fn rob_capacity_blocks_dispatch() {
        let mut rig = Rig::new();
        let d = alu(1, 0, 0, true);
        let mut n = 0;
        while rig.core.can_dispatch(&d) {
            rig.core.dispatch(&d, &rig.model, &mut rig.acct);
            n += 1;
            // Window fills first (iq_size=32) since nothing issues.
            assert!(n <= 128, "dispatch never blocked");
        }
        assert_eq!(n, 32, "issue window should be the first structural limit");
    }

    #[test]
    fn commit_is_in_order() {
        let mut rig = Rig::new();
        // First a long-latency divide, then fast ALUs: ALUs finish first but
        // must not commit before the divide.
        let mut div = alu(1, 0, 0, true);
        div.class = ExecClass::IntDiv;
        rig.dispatch(div);
        for i in 0..3 {
            rig.dispatch(alu(i + 2, 10, 11, true));
        }
        let mut committed_any_before_div = false;
        for _ in 0..5 {
            let (u, _) = rig.cycle();
            if u > 0 {
                committed_any_before_div = true;
            }
        }
        assert!(
            !committed_any_before_div,
            "nothing may commit before the div at head"
        );
        let (uops, _) = rig.run_until_empty(100);
        assert_eq!(uops, 4);
    }

    #[test]
    fn wide_core_has_more_throughput() {
        let run = |cfg: CoreConfig| {
            let mut rig = Rig::new();
            rig.core = OooCore::new(cfg);
            let mut dispatched = 0u32;
            let mut cycles = 0u64;
            let width = cfg.rename_width;
            while rig.core.stats().committed_uops < 2000 && cycles < 10_000 {
                rig.core.writeback(rig.now, &rig.model, &mut rig.acct);
                rig.core.commit(&mut rig.mem, &rig.model, &mut rig.acct);
                rig.core
                    .issue(rig.now, &mut rig.mem, &rig.model, &mut rig.acct);
                for i in 0..width {
                    let d = alu(((dispatched + i) % 14) as u8 + 1, 0, 0, true);
                    if rig.core.can_dispatch(&d) {
                        rig.core.dispatch(&d, &rig.model, &mut rig.acct);
                        dispatched += 1;
                    }
                }
                rig.now += 1;
                cycles += 1;
            }
            cycles
        };
        let narrow = run(CoreConfig::narrow());
        let wide = run(CoreConfig::wide());
        assert!(
            (wide as f64) < narrow as f64 * 0.82,
            "wide {wide} should be well under narrow {narrow}"
        );
    }
}
