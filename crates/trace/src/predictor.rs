//! The next-trace (TID) predictor (§2.3, §4.2): a path-history-indexed
//! table predicting which trace executes next. A confident prediction that
//! hits in the trace cache steers the fetch selector to the hot pipeline.

use crate::tid::Tid;

/// Trace-predictor configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracePredConfig {
    /// Table entries (the paper's PARROT models use 2K).
    pub entries: u32,
    /// Confidence threshold (2-bit counters; predict at ≥ this value).
    pub confidence: u8,
}

impl TracePredConfig {
    /// The 2K-entry configuration of the PARROT models.
    pub fn parrot_2k() -> TracePredConfig {
        TracePredConfig {
            entries: 2048,
            confidence: 2,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct PredEntry {
    tag: u64,
    pred: Tid,
    conf: u8,
}

/// Prediction statistics (feeds Fig 4.7's trace-misprediction rate).
#[derive(Clone, Copy, Debug, Default)]
pub struct TracePredStats {
    /// Boundaries observed (training events).
    pub observed: u64,
    /// Confident predictions issued.
    pub predictions: u64,
    /// Confident predictions that matched the executed path.
    pub correct: u64,
}

impl TracePredStats {
    /// Misprediction rate over issued predictions.
    pub fn mispredict_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            1.0 - self.correct as f64 / self.predictions as f64
        }
    }
}

/// Path-history next-TID predictor with hysteresis.
#[derive(Clone, Debug)]
pub struct TracePredictor {
    cfg: TracePredConfig,
    table: Vec<Option<PredEntry>>,
    /// Keys of the two most recently executed traces (path depth 2).
    last: [u64; 2],
    /// Consecutive occurrences of `last[1]` at the history tail. Folding
    /// the repeat count into the history lets the predictor learn *loop
    /// exits*: "after k repeats of trace T comes trace X" — the advanced
    /// trace-prediction capability the paper's §2.2 alludes to.
    run: u32,
    stats: TracePredStats,
}

impl TracePredictor {
    /// An empty predictor.
    ///
    /// # Panics
    /// Panics unless `entries` is a power of two.
    pub fn new(cfg: TracePredConfig) -> TracePredictor {
        assert!(
            cfg.entries.is_power_of_two(),
            "entries must be a power of two"
        );
        TracePredictor {
            cfg,
            table: vec![None; cfg.entries as usize],
            last: [0; 2],
            run: 0,
            stats: TracePredStats::default(),
        }
    }

    /// Statistics so far. Correctness is scored by the caller via
    /// [`TracePredictor::score`].
    pub fn stats(&self) -> &TracePredStats {
        &self.stats
    }

    /// Bounded path history: the last two trace keys plus the (saturated)
    /// repeat count of the most recent one, mixed.
    fn hist(&self) -> u64 {
        Self::hist_of(self.last, self.run)
    }

    fn hist_of(last: [u64; 2], run: u32) -> u64 {
        last[0].rotate_left(13) ^ last[1] ^ (u64::from(run.min(63)) << 56)
    }

    fn index(&self) -> usize {
        self.slot(self.hist())
    }

    /// Table slot of a history (`entries` is a power of two).
    fn slot(&self, hist: u64) -> usize {
        (mix(hist) & (u64::from(self.cfg.entries) - 1)) as usize
    }

    /// Predict the next trace from the current path history; `None` when
    /// there is no confident entry (the fetch selector then goes cold).
    pub fn predict(&mut self) -> Option<Tid> {
        self.lookup(self.hist())
    }

    /// Predict with a speculative extra history element: the key of a trace
    /// that has executed but not yet been observed (the selector may still
    /// be joining it). Keeps fetch-time prediction aligned with the
    /// delayed, post-retirement training stream.
    pub fn predict_with(&mut self, extra: Option<u64>) -> Option<Tid> {
        match extra {
            None => self.predict(),
            Some(k) => {
                let run = if k == self.last[1] { self.run + 1 } else { 1 };
                let hist = Self::hist_of([self.last[1], k], run);
                self.lookup(hist)
            }
        }
    }

    /// Penalize the entry that produced a trace misprediction (an aborted
    /// trace): lowers its confidence so repeated aborts stop being
    /// predicted. `extra` must match what was passed to
    /// [`TracePredictor::predict_with`].
    pub fn punish(&mut self, extra: Option<u64>) {
        let hist = match extra {
            None => self.hist(),
            Some(k) => {
                let run = if k == self.last[1] { self.run + 1 } else { 1 };
                Self::hist_of([self.last[1], k], run)
            }
        };
        let idx = self.slot(hist);
        if let Some(e) = &mut self.table[idx] {
            if e.tag == hist {
                if e.conf > 0 {
                    e.conf -= 1;
                } else {
                    self.table[idx] = None;
                }
            }
        }
    }

    fn lookup(&mut self, hist: u64) -> Option<Tid> {
        let idx = self.slot(hist);
        let e = self.table[idx]?;
        if e.tag == hist && e.conf >= self.cfg.confidence {
            self.stats.predictions += 1;
            Some(e.pred)
        } else {
            None
        }
    }

    /// Record whether the last confident prediction matched the executed
    /// path (statistics only).
    pub fn score(&mut self, correct: bool) {
        if correct {
            self.stats.correct += 1;
        }
    }

    /// Train on the actually executed next trace and advance the path
    /// history. Call at every committed trace boundary, hot or cold.
    pub fn observe(&mut self, actual: &Tid) {
        self.stats.observed += 1;
        let hist = self.hist();
        let idx = self.index();
        match &mut self.table[idx] {
            Some(e) if e.tag == hist => {
                if e.pred == *actual {
                    e.conf = (e.conf + 1).min(3);
                } else if e.conf > 0 {
                    e.conf -= 1;
                } else {
                    e.pred = *actual;
                    e.conf = 1;
                }
            }
            slot => {
                *slot = Some(PredEntry {
                    tag: hist,
                    pred: *actual,
                    conf: 1,
                });
            }
        }
        let key = actual.key();
        if key == self.last[1] {
            self.run += 1;
        } else {
            self.run = 1;
        }
        self.last = [self.last[1], key];
    }
}

fn mix(mut x: u64) -> u64 {
    x ^= x >> 31;
    x = x.wrapping_mul(0x7fb5_d329_728e_a185);
    x ^= x >> 27;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(pc: u64) -> Tid {
        Tid::new(pc)
    }

    #[test]
    fn learns_a_repeating_sequence() {
        let mut p = TracePredictor::new(TracePredConfig::parrot_2k());
        let seq = [tid(0x100), tid(0x200), tid(0x300)];
        // Warm up.
        for _ in 0..8 {
            for t in &seq {
                p.observe(t);
            }
        }
        // Now every prediction should be confident and correct.
        let mut correct = 0;
        for _ in 0..4 {
            for t in &seq {
                if let Some(pred) = p.predict() {
                    if pred == *t {
                        correct += 1;
                    }
                }
                p.observe(t);
            }
        }
        assert_eq!(
            correct, 12,
            "repeating trace sequence must be fully predicted"
        );
    }

    #[test]
    fn no_prediction_without_confidence() {
        let mut p = TracePredictor::new(TracePredConfig::parrot_2k());
        assert_eq!(p.predict(), None);
        p.observe(&tid(0x100));
        // One observation: conf 1 < threshold 2 at the (new) history point.
        assert_eq!(p.predict(), None);
    }

    #[test]
    fn alternating_paths_reduce_confidence_not_thrash() {
        let mut p = TracePredictor::new(TracePredConfig::parrot_2k());
        // From the same history, alternate successors: predictor should
        // mostly abstain rather than predict wrongly forever.
        let a = tid(0xa);
        let b = tid(0xb);
        let mut wrong = 0;
        for i in 0..200 {
            if let Some(pred) = p.predict() {
                let actual = if i % 2 == 0 { a } else { b };
                if pred != actual {
                    wrong += 1;
                }
            }
            // Reset history to the same point each time by constructing the
            // alternation through observation.
            p.observe(if i % 2 == 0 { &a } else { &b });
        }
        let s = p.stats();
        assert!(
            wrong as f64 <= 0.6 * s.predictions.max(1) as f64 + 5.0,
            "hysteresis should limit wrong confident predictions: wrong={wrong}, preds={}",
            s.predictions
        );
    }

    #[test]
    fn stats_track_predictions() {
        let mut p = TracePredictor::new(TracePredConfig::parrot_2k());
        let t = tid(1);
        for _ in 0..10 {
            p.observe(&t);
        }
        // After history settles this self-loop is predictable.
        let before = p.stats().predictions;
        if p.predict().is_some() {
            p.score(true);
        }
        assert!(p.stats().predictions >= before);
        assert!(p.stats().observed == 10);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let _ = TracePredictor::new(TracePredConfig {
            entries: 1000,
            confidence: 2,
        });
    }
}
