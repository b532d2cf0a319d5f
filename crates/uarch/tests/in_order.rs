//! Tests for the in-order issue mode (§5's alternative hot-core execution
//! model): strict age-order issue, correctness parity with OOO, and the
//! expected throughput ordering.

use parrot_energy::{EnergyAccount, EnergyConfig, EnergyModel};
use parrot_isa::{AluOp, Reg, Uop};
use parrot_uarch::cache::MemHierarchy;
use parrot_uarch::core::{CoreConfig, DispatchUop, OooCore};

struct Rig {
    core: OooCore,
    mem: MemHierarchy,
    model: EnergyModel,
    acct: EnergyAccount,
    now: u64,
}

impl Rig {
    fn new(cfg: CoreConfig) -> Rig {
        Rig {
            core: OooCore::new(cfg),
            mem: MemHierarchy::standard(),
            model: EnergyModel::new(&EnergyConfig::narrow()),
            acct: EnergyAccount::new(),
            now: 0,
        }
    }

    fn cycle(&mut self) -> u32 {
        self.core.writeback(self.now, &self.model, &mut self.acct);
        let (u, _) = self.core.commit(&mut self.mem, &self.model, &mut self.acct);
        self.core
            .issue(self.now, &mut self.mem, &self.model, &mut self.acct);
        self.now += 1;
        u
    }

    fn drain(&mut self, max: u64) -> u64 {
        let mut committed = 0u64;
        for _ in 0..max {
            committed += u64::from(self.cycle());
            if self.core.is_empty() {
                break;
            }
        }
        committed
    }
}

fn alu(dst: u8, src: u8) -> DispatchUop {
    DispatchUop::from_uop(
        &Uop::alu_imm(AluOp::Add, Reg::int(dst), Reg::int(src), 1),
        0,
        1,
    )
}

fn load(dst: u8) -> DispatchUop {
    DispatchUop::from_uop(&Uop::load(Reg::int(dst), Reg::int(14)), 0xdead_0000, 1)
}

#[test]
fn in_order_commits_everything() {
    let mut rig = Rig::new(CoreConfig::narrow().into_in_order());
    for i in 0..8 {
        rig.core.dispatch(
            &alu(i % 10, (i + 1) % 10),
            &rig.model.clone(),
            &mut rig.acct,
        );
    }
    assert_eq!(rig.drain(200), 8);
}

#[test]
fn in_order_stalls_behind_a_long_latency_head() {
    // OOO: independent ALUs slip past the cold-miss load. In-order: they
    // wait. Same work, more cycles.
    let run = |cfg: CoreConfig| {
        let mut rig = Rig::new(cfg);
        let model = rig.model.clone();
        rig.core.dispatch(&load(1), &model, &mut rig.acct); // cold miss
                                                            // Dependent consumer right behind the load.
        rig.core.dispatch(&alu(2, 1), &model, &mut rig.acct);
        // Independent work that OOO can overlap with the miss.
        for i in 3..10 {
            rig.core.dispatch(&alu(i, 13), &model, &mut rig.acct);
        }
        rig.drain(2_000);
        rig.now
    };
    let ooo = run(CoreConfig::narrow());
    let ino = run(CoreConfig::narrow().into_in_order());
    assert!(
        ino >= ooo,
        "in-order ({ino}) can never beat OOO ({ooo}) here"
    );
}

#[test]
fn in_order_issue_respects_age_order() {
    // A ready-but-younger uop must not issue before an older non-ready one.
    let mut rig = Rig::new(CoreConfig::narrow().into_in_order());
    let model = rig.model.clone();
    rig.core.dispatch(&load(1), &model, &mut rig.acct); // old, slow (cold miss)
    rig.core.dispatch(&alu(2, 1), &model, &mut rig.acct); // depends on load
    rig.core.dispatch(&alu(3, 13), &model, &mut rig.acct); // independent, younger
                                                           // After a handful of cycles, nothing besides the load may have issued.
    for _ in 0..5 {
        rig.cycle();
    }
    assert!(
        rig.core.stats().issued_uops <= 1,
        "only the head load may issue early in-order, got {}",
        rig.core.stats().issued_uops
    );
}
