//! Branch prediction: a bimodal/gshare hybrid with a branch target buffer
//! and a return address stack.
//!
//! The paper's baseline `N` uses a 4K-entry predictor; PARROT models use a
//! 2K-entry branch predictor alongside the 2K-entry trace predictor
//! (§4.2 / Fig 4.7).

/// Configuration of the [`HybridPredictor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BpredConfig {
    /// Entries in each direction table (bimodal, gshare, chooser).
    pub entries: u32,
    /// Global history bits used by the gshare component.
    pub history_bits: u32,
    /// Branch target buffer entries (direct-mapped).
    pub btb_entries: u32,
    /// Return address stack depth.
    pub ras_entries: u32,
}

impl BpredConfig {
    /// The baseline 4K-entry configuration (model `N`/`W`).
    pub fn baseline_4k() -> BpredConfig {
        BpredConfig {
            entries: 4096,
            history_bits: 12,
            btb_entries: 2048,
            ras_entries: 16,
        }
    }

    /// The 2K-entry configuration used alongside a trace predictor in
    /// PARROT models.
    pub fn parrot_2k() -> BpredConfig {
        BpredConfig {
            entries: 2048,
            history_bits: 11,
            btb_entries: 2048,
            ras_entries: 16,
        }
    }
}

/// Saturating 2-bit counter helpers.
#[inline]
fn bump(c: &mut u8, up: bool) {
    if up {
        *c = (*c + 1).min(3);
    } else {
        *c = c.saturating_sub(1);
    }
}

/// A classic McFarling-style hybrid: bimodal + gshare with a chooser,
/// plus BTB and RAS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HybridPredictor {
    cfg: BpredConfig,
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>,
    history: u64,
    btb: Vec<(u64, u64)>, // (tag pc, target)
    ras: Vec<u64>,
}

impl HybridPredictor {
    /// Create a predictor with all counters weakly taken.
    pub fn new(cfg: BpredConfig) -> HybridPredictor {
        assert!(
            cfg.entries.is_power_of_two(),
            "table entries must be a power of two"
        );
        assert!(
            cfg.btb_entries.is_power_of_two(),
            "btb entries must be a power of two"
        );
        HybridPredictor {
            cfg,
            bimodal: vec![2; cfg.entries as usize],
            gshare: vec![2; cfg.entries as usize],
            chooser: vec![2; cfg.entries as usize],
            history: 0,
            btb: vec![(u64::MAX, 0); cfg.btb_entries as usize],
            ras: Vec::with_capacity(cfg.ras_entries as usize),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BpredConfig {
        &self.cfg
    }

    fn idx(&self, pc: u64) -> usize {
        ((pc >> 1) & (u64::from(self.cfg.entries) - 1)) as usize
    }

    fn btb_idx(&self, pc: u64) -> usize {
        (pc & (u64::from(self.cfg.btb_entries) - 1)) as usize
    }

    fn gidx(&self, pc: u64) -> usize {
        let mask = u64::from(self.cfg.entries) - 1;
        (((pc >> 1) ^ (self.history & ((1 << self.cfg.history_bits) - 1))) & mask) as usize
    }

    /// Predict the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        let i = self.idx(pc);
        let b = self.bimodal[i] >= 2;
        let g = self.gshare[self.gidx(pc)] >= 2;
        if self.chooser[i] >= 2 {
            g
        } else {
            b
        }
    }

    /// Train on the resolved direction of the branch at `pc`.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let bi = self.idx(pc);
        let gi = self.gidx(pc);
        let b_correct = (self.bimodal[bi] >= 2) == taken;
        let g_correct = (self.gshare[gi] >= 2) == taken;
        if b_correct != g_correct {
            bump(&mut self.chooser[bi], g_correct);
        }
        bump(&mut self.bimodal[bi], taken);
        bump(&mut self.gshare[gi], taken);
        self.history = (self.history << 1) | u64::from(taken);
    }

    /// Look up the target of a taken control transfer at `pc`.
    pub fn btb_lookup(&self, pc: u64) -> Option<u64> {
        let e = self.btb[self.btb_idx(pc)];
        if e.0 == pc {
            Some(e.1)
        } else {
            None
        }
    }

    /// Install/refresh a BTB entry.
    pub fn btb_update(&mut self, pc: u64, target: u64) {
        let i = self.btb_idx(pc);
        self.btb[i] = (pc, target);
    }

    /// Push a return address on a call.
    pub fn ras_push(&mut self, ret: u64) {
        if self.ras.len() == self.cfg.ras_entries as usize {
            self.ras.remove(0);
        }
        self.ras.push(ret);
    }

    /// Pop the predicted return address.
    pub fn ras_pop(&mut self) -> Option<u64> {
        self.ras.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parrot_workloads::rng::Xorshift64Star;

    fn pred() -> HybridPredictor {
        HybridPredictor::new(BpredConfig::baseline_4k())
    }

    #[test]
    fn learns_a_strong_bias() {
        let mut p = pred();
        for _ in 0..32 {
            p.update(0x1000, true);
        }
        assert!(p.predict(0x1000));
        for _ in 0..32 {
            p.update(0x1000, false);
        }
        assert!(!p.predict(0x1000));
    }

    #[test]
    fn learns_a_periodic_pattern_via_history() {
        // Pattern T T N repeating: gshare should reach near-perfect accuracy.
        let mut p = pred();
        let pattern = [true, true, false];
        let mut correct = 0;
        let mut total = 0;
        for i in 0..3000usize {
            let t = pattern[i % 3];
            if i > 500 {
                total += 1;
                if p.predict(0xbeef0) == t {
                    correct += 1;
                }
            }
            p.update(0xbeef0, t);
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.95, "periodic accuracy {acc}");
    }

    #[test]
    fn random_branches_are_hard() {
        let mut p = pred();
        let mut rng = Xorshift64Star::seed_from_u64(9);
        let mut correct = 0;
        for _ in 0..4000 {
            let t = rng.chance(0.5);
            if p.predict(0x77) == t {
                correct += 1;
            }
            p.update(0x77, t);
        }
        let acc = correct as f64 / 4000.0;
        assert!((0.4..0.6).contains(&acc), "coin-flip accuracy {acc}");
    }

    #[test]
    fn btb_round_trips_and_conflicts() {
        let mut p = pred();
        p.btb_update(0x4000, 0x9000);
        assert_eq!(p.btb_lookup(0x4000), Some(0x9000));
        assert_eq!(p.btb_lookup(0x4002), None);
        // Conflicting pc (same set) evicts.
        let conflict = 0x4000 + u64::from(p.config().btb_entries);
        p.btb_update(conflict, 0x1234);
        assert_eq!(p.btb_lookup(0x4000), None);
    }

    #[test]
    fn ras_is_lifo_and_bounded() {
        let mut p = pred();
        for i in 0..20u64 {
            p.ras_push(i);
        }
        // Depth 16: oldest 4 were dropped.
        assert_eq!(p.ras_pop(), Some(19));
        for _ in 0..15 {
            p.ras_pop();
        }
        assert_eq!(p.ras_pop(), None);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let _ = HybridPredictor::new(BpredConfig {
            entries: 1000,
            ..BpredConfig::baseline_4k()
        });
    }
}
