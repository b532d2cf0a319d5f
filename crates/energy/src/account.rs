use crate::{EnergyModel, Event, Unit};

/// Accumulated energy and event counts for one simulation run.
///
/// The timing models call [`EnergyAccount::emit`] for every activity; at the
/// end of simulation [`EnergyAccount::finish_static`] adds the per-cycle
/// clock and leakage energy. Breakdown by [`Unit`] reproduces Fig 4.11.
#[derive(Clone, Debug)]
pub struct EnergyAccount {
    by_unit: [f64; Unit::ALL.len()],
    counts: [u64; Event::COUNT],
    total: f64,
    static_done: bool,
}

impl Default for EnergyAccount {
    fn default() -> EnergyAccount {
        EnergyAccount::new()
    }
}

impl EnergyAccount {
    /// Empty account.
    pub fn new() -> EnergyAccount {
        EnergyAccount {
            by_unit: [0.0; Unit::ALL.len()],
            counts: [0; Event::COUNT],
            total: 0.0,
            static_done: false,
        }
    }

    /// Record one occurrence of `event`.
    #[inline]
    pub fn emit(&mut self, model: &EnergyModel, event: Event) {
        self.emit_n(model, event, 1);
    }

    /// Record `n` occurrences of `event`.
    #[inline]
    pub fn emit_n(&mut self, model: &EnergyModel, event: Event, n: u64) {
        let e = model.cost(event) * n as f64;
        self.counts[event.index()] += n;
        self.by_unit[event.unit().index()] += e;
        self.total += e;
    }

    /// Add clock and leakage energy for `cycles` simulated cycles. Call once,
    /// at the end of simulation.
    ///
    /// # Panics
    /// Panics if called twice on the same account.
    pub fn finish_static(&mut self, model: &EnergyModel, cycles: u64) {
        assert!(!self.static_done, "finish_static called twice");
        self.static_done = true;
        let clock = model.static_per_cycle() * cycles as f64;
        let leak = model.leakage_per_cycle() * cycles as f64;
        self.by_unit[Unit::Clock.index()] += clock;
        self.by_unit[Unit::Leakage.index()] += leak;
        self.total += clock + leak;
    }

    /// Total energy so far (arbitrary units).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Energy attributed to `unit`.
    pub fn unit_energy(&self, unit: Unit) -> f64 {
        self.by_unit[unit.index()]
    }

    /// Fraction of total energy attributed to `unit` (0 when total is 0).
    pub fn unit_share(&self, unit: Unit) -> f64 {
        if self.total > 0.0 {
            self.by_unit[unit.index()] / self.total
        } else {
            0.0
        }
    }

    /// Number of occurrences of `event` recorded.
    pub fn count(&self, event: Event) -> u64 {
        self.counts[event.index()]
    }

    /// Breakdown over all units, in [`Unit::ALL`] order: `(unit, energy)`.
    pub fn breakdown(&self) -> Vec<(Unit, f64)> {
        Unit::ALL
            .iter()
            .map(|u| (*u, self.by_unit[u.index()]))
            .collect()
    }

    /// Merge another account into this one (e.g. per-core accounts of a
    /// split machine).
    pub fn merge(&mut self, other: &EnergyAccount) {
        for (a, b) in self.by_unit.iter_mut().zip(&other.by_unit) {
            *a += b;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnergyConfig;

    fn model() -> EnergyModel {
        EnergyModel::new(&EnergyConfig::narrow())
    }

    #[test]
    fn totals_equal_sum_of_units() {
        let m = model();
        let mut a = EnergyAccount::new();
        a.emit(&m, Event::ExecAlu);
        a.emit_n(&m, Event::L1dAccess, 10);
        a.finish_static(&m, 100);
        let sum: f64 = a.breakdown().iter().map(|(_, e)| e).sum();
        assert!((sum - a.total()).abs() < 1e-9);
    }

    #[test]
    fn counts_recorded() {
        let m = model();
        let mut a = EnergyAccount::new();
        a.emit_n(&m, Event::CommitUop, 42);
        assert_eq!(a.count(Event::CommitUop), 42);
        assert_eq!(a.count(Event::ExecAlu), 0);
    }

    #[test]
    fn shares_sum_to_one() {
        let m = model();
        let mut a = EnergyAccount::new();
        a.emit_n(&m, Event::ExecAlu, 5);
        a.finish_static(&m, 10);
        let s: f64 = Unit::ALL.iter().map(|u| a.unit_share(*u)).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn double_finish_panics() {
        let m = model();
        let mut a = EnergyAccount::new();
        a.finish_static(&m, 1);
        a.finish_static(&m, 1);
    }

    #[test]
    fn merge_adds_everything() {
        let m = model();
        let mut a = EnergyAccount::new();
        let mut b = EnergyAccount::new();
        a.emit(&m, Event::ExecAlu);
        b.emit(&m, Event::ExecAlu);
        b.emit(&m, Event::RegRead);
        a.merge(&b);
        assert_eq!(a.count(Event::ExecAlu), 2);
        assert_eq!(a.count(Event::RegRead), 1);
        assert!((a.total() - (2.0 * m.cost(Event::ExecAlu) + m.cost(Event::RegRead))).abs() < 1e-9);
    }
}

#[cfg(test)]
mod merge_edge_tests {
    use super::*;
    use crate::EnergyConfig;

    #[test]
    fn merge_preserves_breakdown_consistency() {
        let m = EnergyModel::new(&EnergyConfig::narrow());
        let w = EnergyModel::new(&EnergyConfig::wide());
        // Two accounts priced by different models (split machine): totals
        // and unit sums must stay consistent after merging.
        let mut cold = EnergyAccount::new();
        cold.emit_n(&m, Event::DecodeSimple, 100);
        cold.emit_n(&m, Event::ExecAlu, 50);
        let mut hot = EnergyAccount::new();
        hot.emit_n(&w, Event::IqWakeup, 80);
        hot.emit_n(&w, Event::ExecAlu, 70);
        let hot_total = hot.total();
        cold.merge(&hot);
        let sum: f64 = cold.breakdown().iter().map(|(_, e)| e).sum();
        assert!((sum - cold.total()).abs() < 1e-9);
        assert!(cold.total() > hot_total);
        assert_eq!(cold.count(Event::ExecAlu), 120);
    }
}
