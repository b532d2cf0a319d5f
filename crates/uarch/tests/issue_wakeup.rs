//! Differential test of the issue window: `OooCore`, which wakes waiting
//! uops when their producers complete, against a reference model that
//! rescans the whole window every cycle and checks each operand's producer
//! in the ROB. Seeded random dependency streams cover every execution
//! class (divides, loads that miss to memory, SIMD), mispredicts, and
//! the narrow, wide, in-order and 64-entry-window configurations; both
//! cores must issue and commit the same counts on every cycle and end with
//! the same statistics and energy event counts.

use parrot_energy::{EnergyAccount, EnergyConfig, EnergyModel, Event};
use parrot_isa::{ExecClass, Reg};
use parrot_telemetry::rng::Xorshift64Star;
use parrot_uarch::cache::{MemHierarchy, ServicedBy};
use parrot_uarch::core::{emit_data_events, CoreConfig, CoreStats, DispatchUop, OooCore};

const NONE: u32 = u32::MAX;
const BUCKETS: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Waiting,
    Issued,
    Done,
}

/// One ROB entry of the reference: each operand names its producer's ROB
/// index and sequence number.
#[derive(Clone, Copy)]
struct Entry {
    state: State,
    class: ExecClass,
    dep_idx: [u32; 4],
    dep_seq: [u64; 4],
    writes: [u8; 4],
    seq: u64,
    eff_addr: u64,
    reads: u8,
    inst_credit: u32,
    mispredict: bool,
    simd_lanes: u8,
}

impl Entry {
    fn empty() -> Entry {
        Entry {
            state: State::Done,
            class: ExecClass::Nop,
            dep_idx: [NONE; 4],
            dep_seq: [0; 4],
            writes: [255; 4],
            seq: 0,
            eff_addr: 0,
            reads: 0,
            inst_credit: 0,
            mispredict: false,
            simd_lanes: 0,
        }
    }
}

/// The rescanning reference: every cycle, issue walks the window in
/// position order and checks each operand's producer; an issued uop is
/// swap-removed (out of order) or removed in place (in order, after
/// sorting the window by age).
struct RefCore {
    cfg: CoreConfig,
    rob: Vec<Entry>,
    head: u32,
    tail: u32,
    count: u32,
    next_seq: u64,
    rat: [u32; 192],
    rat_seq: [u64; 192],
    iq: Vec<u32>,
    lsq_count: u32,
    div_busy_until: u64,
    completions: Vec<Vec<u32>>,
    stats: CoreStats,
}

impl RefCore {
    fn new(cfg: CoreConfig) -> RefCore {
        RefCore {
            cfg,
            rob: vec![Entry::empty(); cfg.rob_size as usize],
            head: 0,
            tail: 0,
            count: 0,
            next_seq: 1,
            rat: [NONE; 192],
            rat_seq: [0; 192],
            iq: Vec::new(),
            lsq_count: 0,
            div_busy_until: 0,
            completions: vec![Vec::new(); BUCKETS],
            stats: CoreStats::default(),
        }
    }

    fn writeback(
        &mut self,
        now: u64,
        model: &EnergyModel,
        acct: &mut EnergyAccount,
    ) -> Option<u64> {
        let mut resolved = None;
        for idx in std::mem::take(&mut self.completions[now as usize % BUCKETS]) {
            let e = &mut self.rob[idx as usize];
            assert!(e.state == State::Issued, "reference: stray completion");
            e.state = State::Done;
            acct.emit(model, Event::IqWakeup);
            for w in e.writes {
                if w != 255 {
                    acct.emit(model, Event::RegWrite);
                }
            }
            if e.mispredict {
                resolved = Some(now);
            }
        }
        resolved
    }

    fn commit(
        &mut self,
        mem: &mut MemHierarchy,
        model: &EnergyModel,
        acct: &mut EnergyAccount,
    ) -> (u32, u32) {
        let (mut uops, mut insts) = (0, 0);
        while self.count > 0 && uops < self.cfg.commit_width {
            let e = self.rob[self.head as usize];
            if e.state != State::Done {
                break;
            }
            for w in e.writes {
                if w != 255
                    && self.rat[w as usize] == self.head
                    && self.rat_seq[w as usize] == e.seq
                {
                    self.rat[w as usize] = NONE;
                }
            }
            if e.class == ExecClass::Store {
                let r = mem.access_data(e.eff_addr);
                emit_data_events(r.serviced_by, model, acct);
            }
            if matches!(e.class, ExecClass::Load | ExecClass::Store) {
                self.lsq_count -= 1;
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
            self.head = (self.head + 1) % self.cfg.rob_size;
            self.count -= 1;
        }
        if uops == 0 {
            self.stats.commit_stall_cycles += 1;
        }
        (uops, insts)
    }

    fn ready(&self, idx: usize) -> bool {
        let e = &self.rob[idx];
        (0..4).all(|k| {
            let d = e.dep_idx[k];
            d == NONE || {
                let p = &self.rob[d as usize];
                p.seq != e.dep_seq[k] || p.state == State::Done
            }
        })
    }

    fn issue(
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
        if self.cfg.in_order {
            let rob = &self.rob;
            self.iq.sort_unstable_by_key(|i| rob[*i as usize].seq);
        }
        let p = self.cfg.ports;
        let mut ports = [p.int_alu, p.mem, p.fp, p.branch, p.simd];
        let mut issued = 0;
        let mut i = 0;
        while i < self.iq.len() && issued < self.cfg.issue_width {
            let idx = self.iq[i] as usize;
            let class = self.rob[idx].class;
            let port = match class {
                ExecClass::IntAlu | ExecClass::IntMul | ExecClass::Nop | ExecClass::IntDiv => 0,
                ExecClass::Load | ExecClass::Store => 1,
                ExecClass::FpAdd | ExecClass::FpMul | ExecClass::FpDiv => 2,
                ExecClass::Branch => 3,
                ExecClass::Simd => 4,
            };
            let blocked = !self.ready(idx)
                || (class == ExecClass::IntDiv && now < self.div_busy_until)
                || ports[port] == 0;
            if blocked {
                if self.cfg.in_order {
                    break;
                }
                i += 1;
                continue;
            }
            ports[port] -= 1;
            let e = self.rob[idx];
            let latency = match class {
                ExecClass::IntAlu | ExecClass::Branch | ExecClass::Nop | ExecClass::Store => 1,
                ExecClass::IntMul | ExecClass::FpAdd => 3,
                ExecClass::IntDiv => 16,
                ExecClass::FpMul => 4,
                ExecClass::FpDiv => 18,
                ExecClass::Simd => 2,
                ExecClass::Load => {
                    let r = mem.access_data(e.eff_addr);
                    emit_data_events(r.serviced_by, model, acct);
                    if r.serviced_by != ServicedBy::L1 {
                        self.stats.l1d_misses += 1;
                    }
                    u64::from(r.latency)
                }
            };
            acct.emit(model, Event::IqSelect);
            acct.emit_n(model, Event::RegRead, u64::from(e.reads));
            match class {
                ExecClass::IntAlu | ExecClass::Nop | ExecClass::Branch => {
                    acct.emit(model, Event::ExecAlu)
                }
                ExecClass::IntMul => acct.emit(model, Event::ExecMul),
                ExecClass::IntDiv => acct.emit(model, Event::ExecDiv),
                ExecClass::FpAdd => acct.emit(model, Event::ExecFpAdd),
                ExecClass::FpMul => acct.emit(model, Event::ExecFpMul),
                ExecClass::FpDiv => acct.emit(model, Event::ExecFpDiv),
                ExecClass::Simd => {
                    acct.emit_n(model, Event::ExecSimdLane, u64::from(e.simd_lanes.max(1)))
                }
                ExecClass::Load | ExecClass::Store => acct.emit(model, Event::AguCalc),
            }
            let complete = now + latency;
            if class == ExecClass::IntDiv {
                self.div_busy_until = complete;
            }
            self.rob[idx].state = State::Issued;
            self.completions[complete as usize % BUCKETS].push(idx as u32);
            if self.cfg.in_order {
                self.iq.remove(i);
            } else {
                self.iq.swap_remove(i);
            }
            issued += 1;
            self.stats.issued_uops += 1;
        }
        if issued == 0 && !self.iq.is_empty() {
            self.stats.issue_blocked_cycles += 1;
        }
        issued
    }

    fn can_dispatch(&self, d: &DispatchUop) -> bool {
        self.count < self.cfg.rob_size
            && self.iq.len() < self.cfg.iq_size as usize
            && !(matches!(d.class, ExecClass::Load | ExecClass::Store)
                && self.lsq_count >= self.cfg.lsq_size)
    }

    fn dispatch(&mut self, d: &DispatchUop, model: &EnergyModel, acct: &mut EnergyAccount) {
        let idx = self.tail;
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut e = Entry::empty();
        e.state = State::Waiting;
        e.class = d.class;
        e.seq = seq;
        e.eff_addr = d.eff_addr;
        e.inst_credit = d.inst_credit;
        e.mispredict = d.mispredict;
        e.simd_lanes = d.simd_lanes;
        for (k, r) in d.reads.iter().enumerate() {
            if let Some(r) = r {
                e.reads += 1;
                let p = self.rat[r.index()];
                if p != NONE {
                    e.dep_idx[k] = p;
                    e.dep_seq[k] = self.rat_seq[r.index()];
                }
            }
        }
        for (k, w) in d.writes.iter().enumerate() {
            if let Some(w) = w {
                e.writes[k] = w.index() as u8;
                self.rat[w.index()] = idx;
                self.rat_seq[w.index()] = seq;
            }
        }
        if matches!(d.class, ExecClass::Load | ExecClass::Store) {
            self.lsq_count += 1;
        }
        self.rob[idx as usize] = e;
        self.iq.push(idx);
        self.tail = (self.tail + 1) % self.cfg.rob_size;
        self.count += 1;
        acct.emit(model, Event::RenameUop);
        acct.emit(model, Event::RobWrite);
        acct.emit(model, Event::IqInsert);
    }
}

/// Every class but the unpipelined divider, which `random_uop` draws
/// rarely so that it does not bound the whole stream.
const CLASSES: [ExecClass; 10] = [
    ExecClass::IntAlu,
    ExecClass::IntMul,
    ExecClass::FpAdd,
    ExecClass::FpMul,
    ExecClass::FpDiv,
    ExecClass::Load,
    ExecClass::Store,
    ExecClass::Branch,
    ExecClass::Simd,
    ExecClass::Nop,
];

/// A register from a small pool, so operands often depend on recent uops
/// (the flags register included).
fn reg(rng: &mut Xorshift64Star) -> Reg {
    match rng.u8_in(0, 25) {
        24 => Reg::FLAGS,
        n if n < 16 => Reg::int(n),
        n => Reg::fp(n - 16),
    }
}

/// A random uop. Loads and stores either touch a few hot lines or miss
/// to memory; `long` makes most uops long-latency, so the window fills.
fn random_uop(rng: &mut Xorshift64Star, long: bool) -> DispatchUop {
    let class = if long && rng.chance(0.5) {
        *rng.pick(&[ExecClass::IntDiv, ExecClass::FpDiv, ExecClass::Load])
    } else if rng.chance(0.01) {
        ExecClass::IntDiv
    } else {
        *rng.pick(&CLASSES)
    };
    let mut d = DispatchUop::credit_nop(0);
    d.class = class;
    for k in 0..rng.usize_in(0, 4) {
        d.reads[k] = Some(reg(rng));
    }
    for k in 0..rng.usize_in(0, 3) {
        d.writes[k] = Some(reg(rng));
    }
    if matches!(class, ExecClass::Load | ExecClass::Store) {
        d.eff_addr = if rng.chance(0.97) {
            0x1000 + rng.u64_in(0, 8) * 64
        } else {
            rng.u64_in(0, 1 << 32) & !7
        };
    }
    d.inst_credit = rng.u32_in(0, 3);
    d.mispredict = class == ExecClass::Branch && rng.chance(0.1);
    if class == ExecClass::Simd {
        d.simd_lanes = rng.u8_in(0, 5);
    }
    d
}

/// Drive both cores through `cycles` cycles of the random stream for
/// `seed`; returns how often the reference window was full at dispatch.
fn run_pair(cfg: CoreConfig, seed: u64, cycles: u64) -> u64 {
    let model = EnergyModel::new(&EnergyConfig::narrow());
    let mut rng = Xorshift64Star::seed_from_u64(seed);
    let mut core = OooCore::new(cfg);
    let mut reference = RefCore::new(cfg);
    let (mut mem, mut ref_mem) = (MemHierarchy::standard(), MemHierarchy::standard());
    let (mut acct, mut ref_acct) = (EnergyAccount::new(), EnergyAccount::new());
    let mut next = random_uop(&mut rng, false);
    let mut full_windows = 0;
    for now in 0..cycles {
        let ctx = format!("{cfg:?} seed {seed} cycle {now}");
        let wb = core.writeback(now, &model, &mut acct);
        assert_eq!(
            wb,
            reference.writeback(now, &model, &mut ref_acct),
            "writeback, {ctx}"
        );
        let c = core.commit(&mut mem, &model, &mut acct);
        assert_eq!(
            c,
            reference.commit(&mut ref_mem, &model, &mut ref_acct),
            "commit, {ctx}"
        );
        let i = core.issue(now, &mut mem, &model, &mut acct);
        assert_eq!(
            i,
            reference.issue(now, &mut ref_mem, &model, &mut ref_acct),
            "issue, {ctx}"
        );
        // Bursts of long-latency work alternate with mixed work.
        let long = now % 1000 >= 800;
        for _ in 0..cfg.rename_width {
            let ok = core.can_dispatch(&next);
            assert_eq!(ok, reference.can_dispatch(&next), "can_dispatch, {ctx}");
            if !ok {
                full_windows += u64::from(reference.iq.len() == cfg.iq_size as usize);
                break;
            }
            core.dispatch(&next, &model, &mut acct);
            reference.dispatch(&next, &model, &mut ref_acct);
            next = random_uop(&mut rng, long);
        }
        assert_eq!(*core.stats(), reference.stats, "stats, {ctx}");
    }
    for e in Event::ALL {
        assert_eq!(
            acct.count(e),
            ref_acct.count(e),
            "{e:?} count, {cfg:?} seed {seed}"
        );
    }
    assert!(
        core.stats().committed_uops > cycles / 4,
        "{cfg:?} seed {seed}: too little work"
    );
    full_windows
}

fn check(cfg: CoreConfig) {
    let full: u64 = (0..4).map(|seed| run_pair(cfg, seed, 3_000)).sum();
    assert!(full > 0, "{cfg:?}: the window never filled");
}

#[test]
fn narrow_core_issues_as_the_rescanning_reference() {
    check(CoreConfig::narrow());
}

#[test]
fn wide_core_issues_as_the_rescanning_reference() {
    check(CoreConfig::wide());
}

#[test]
fn in_order_cores_issue_as_the_rescanning_reference() {
    check(CoreConfig::narrow().into_in_order());
    check(CoreConfig::wide().into_in_order());
}

#[test]
fn a_64_entry_window_issues_as_the_rescanning_reference() {
    let mut cfg = CoreConfig::wide();
    cfg.iq_size = 64;
    cfg.rob_size = 160;
    check(cfg);
}
