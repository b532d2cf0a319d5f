//! The decoded, optimized trace cache (§2.1–2.3): set-associative storage
//! of trace frames, each holding up to 64 decoded (possibly optimized)
//! uops. Storing *decoded* traces is what lets the hot pipeline skip the
//! expensive CISC decoders entirely; storing *optimized* traces multiplies
//! the reuse of one optimization across many executions.

use crate::tid::Tid;
use parrot_isa::{DispatchUop, Uop};
use parrot_telemetry::{metrics, trace as tev};

/// The optimization state of a stored frame (gradual promotion).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// As constructed from decoded uops (asserts embedded, no transforms).
    Constructed,
    /// Went through the optimizer but the translation-validation gate could
    /// not prove the rewrite equivalent: the frame keeps its constructed
    /// uops and is never re-optimized (the optimizer would produce the same
    /// unprovable rewrite again).
    Demoted,
    /// Rewritten by the dynamic optimizer; the rewrite was statically
    /// validated.
    Optimized,
}

/// Verdict attached by the optimizer's translation-validation gate when a
/// frame is written back (`None` on frames the optimizer has not touched).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptVerdict {
    /// The optimized uops were statically proven equivalent for all entry
    /// states.
    Validated,
    /// Validation was inconclusive; the frame was demoted to its
    /// unoptimized form.
    Demoted,
}

/// A stored trace: the unit of hot fetch and of atomic commit.
#[derive(Clone, Debug)]
pub struct TraceFrame {
    /// The trace identifier.
    pub tid: Tid,
    /// The uop sequence (decoded; branches converted to asserts; optimized
    /// forms after promotion).
    pub uops: Vec<Uop>,
    /// Recorded effective addresses, indexed by each memory uop's
    /// `mem_slot` (used for functional replay of optimizations).
    pub mem_addrs: Vec<u64>,
    /// What the hot pipeline dispatches for `uops`, built once per uop
    /// sequence ([`TraceFrame::build_dispatch`]): one [`DispatchUop`] per
    /// uop with the whole instruction credit on the last, or a single
    /// credit-carrying nop when `uops` is empty. Effective addresses are 0;
    /// each trace entry patches them through `addr_slots`.
    pub dispatch: Vec<DispatchUop>,
    /// `(uop, instruction)` trace-local indices of the memory uops, ordered
    /// by instruction: uop `u` takes the effective address of covered
    /// instruction `i`.
    pub addr_slots: Vec<(u32, u32)>,
    /// The recorded instruction path: `(pc, taken)` per constituent
    /// instruction — the fetch selector compares this against the upcoming
    /// committed path to detect trace mispredictions (assert failures).
    pub path: Vec<(u64, bool)>,
    /// Macro-instructions this trace represents (IPC accounting survives
    /// uop elimination).
    pub num_insts: u32,
    /// Uop count at construction time (before optimization).
    pub orig_uops: u32,
    /// Identical units joined at selection (unroll factor).
    pub joins: u32,
    /// Optimization state.
    pub opt_level: OptLevel,
    /// Translation-validation verdict from the optimizer's gate; `None`
    /// until the optimizer has processed the frame.
    pub verdict: Option<OptVerdict>,
    /// Dynamic executions of this frame since insertion.
    pub exec_count: u64,
    /// Dynamic executions since the last optimization write-back
    /// (optimizer-utilization statistic, Fig 4.10).
    pub execs_since_opt: u64,
    /// Fetch-confidence hysteresis (2-bit): incremented when the trace
    /// fully matches the committed path, decremented on aborts. The fetch
    /// selector only streams frames with confidence ≥ 2, so persistent
    /// divergers stop being tried.
    pub live_conf: u8,
}

impl TraceFrame {
    /// Build `dispatch` and `addr_slots` from `uops` and `num_insts`.
    pub fn build_dispatch(&mut self) {
        let last = self.uops.len().saturating_sub(1);
        self.dispatch.clear();
        self.addr_slots.clear();
        for (i, u) in self.uops.iter().enumerate() {
            let credit = if i == last { self.num_insts } else { 0 };
            self.dispatch.push(DispatchUop::from_uop(u, 0, credit));
            if u.is_mem() {
                self.addr_slots.push((i as u32, u.inst_idx));
            }
        }
        if self.dispatch.is_empty() {
            // The whole trace optimized away: a single credit-carrying nop.
            self.dispatch.push(DispatchUop::credit_nop(self.num_insts));
        }
        // Stable: constructed frames are already in instruction order.
        self.addr_slots.sort_by_key(|&(_, inst)| inst);
    }
}

/// Trace cache geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCacheConfig {
    /// Total frames (power of two × ways).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
}

impl TraceCacheConfig {
    /// 512 frames × 64 uops, 4-way (the study's configuration).
    pub fn standard() -> TraceCacheConfig {
        TraceCacheConfig { sets: 128, ways: 4 }
    }

    /// Total frame capacity.
    pub fn frames(&self) -> u32 {
        self.sets * self.ways
    }
}

/// Cumulative trace-cache statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceCacheStats {
    /// Total fetch-time lookups.
    pub lookups: u64,
    /// Lookups that found a frame.
    pub hits: u64,
    /// Frames inserted.
    pub inserts: u64,
    /// Resident frames displaced to make room.
    pub evictions: u64,
    /// In-place upgrades of a frame to its optimized form.
    pub optimized_writebacks: u64,
}

#[derive(Clone, Debug)]
struct Slot {
    frame: Option<TraceFrame>,
    stamp: u64,
    /// Content fingerprint of the stored uops, written at insert/write-back
    /// time when integrity checking is armed (0 otherwise). A mismatch at
    /// fetch means the stored encoding was corrupted after write.
    tag: u64,
}

/// The set-associative trace cache.
#[derive(Clone, Debug)]
pub struct TraceCache {
    cfg: TraceCacheConfig,
    slots: Vec<Slot>,
    tick: u64,
    stats: TraceCacheStats,
    /// When armed, every insert/write-back records a uop-content fingerprint
    /// and [`TraceCache::verify_integrity`] checks it. Off by default: the
    /// fault-free machine pays zero overhead and behaves bit-identically.
    integrity: bool,
    /// Frames evicted after optimization, with their reuse counts — feeds
    /// the optimizer-utilization statistic even for evicted traces.
    pub retired_opt_reuse: Vec<u64>,
}

impl TraceCache {
    /// An empty trace cache.
    ///
    /// # Panics
    /// Panics unless `sets` is a power of two.
    pub fn new(cfg: TraceCacheConfig) -> TraceCache {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        TraceCache {
            cfg,
            slots: (0..cfg.sets * cfg.ways)
                .map(|_| Slot {
                    frame: None,
                    stamp: 0,
                    tag: 0,
                })
                .collect(),
            tick: 0,
            stats: TraceCacheStats::default(),
            integrity: false,
            retired_opt_reuse: Vec::new(),
        }
    }

    /// Arm or disarm storage-integrity tagging. Armed caches fingerprint
    /// uops on insert/write-back so later corruption of the stored encoding
    /// is detectable; disarmed caches (the default) skip all tag work.
    pub fn set_integrity(&mut self, on: bool) {
        self.integrity = on;
    }

    fn tag_for(integrity: bool, frame: &TraceFrame) -> u64 {
        if integrity {
            parrot_isa::corrupt::fingerprint(&frame.uops)
        } else {
            0
        }
    }

    /// Does the stored encoding of `tid` still match the fingerprint taken
    /// when it was written? Vacuously true when integrity tagging is
    /// disarmed or the frame is absent.
    pub fn verify_integrity(&self, tid: &Tid) -> bool {
        if !self.integrity {
            return true;
        }
        self.slots[self.set_range(tid)]
            .iter()
            .find(|s| s.frame.as_ref().is_some_and(|f| f.tid == *tid))
            .is_none_or(|s| {
                let f = s.frame.as_ref().expect("matched above");
                parrot_isa::corrupt::fingerprint(&f.uops) == s.tag
            })
    }

    /// The configuration.
    pub fn config(&self) -> &TraceCacheConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &TraceCacheStats {
        &self.stats
    }

    fn set_range(&self, tid: &Tid) -> std::ops::Range<usize> {
        self.set_range_pc(tid.start_pc)
    }

    /// Sets are indexed by the trace *start address* (like a conventional
    /// trace cache): path variants of the same start compete within one set
    /// and the fetch selector chooses among them.
    fn set_range_pc(&self, start_pc: u64) -> std::ops::Range<usize> {
        let mut x = start_pc.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 29;
        let set = (x & (u64::from(self.cfg.sets) - 1)) as usize;
        let base = set * self.cfg.ways as usize;
        base..base + self.cfg.ways as usize
    }

    /// All resident frames starting at `start_pc` (path variants), in slot
    /// order, each with its recency stamp: a larger stamp was used more
    /// recently.
    pub fn variants_at(&self, start_pc: u64) -> impl Iterator<Item = (&TraceFrame, u64)> {
        self.slots[self.set_range_pc(start_pc)]
            .iter()
            .filter_map(move |s| {
                s.frame
                    .as_ref()
                    .filter(|f| f.tid.start_pc == start_pc)
                    .map(|f| (f, s.stamp))
            })
    }

    /// Look up a frame by TID, refreshing recency and bumping execution
    /// counters on hit.
    pub fn fetch(&mut self, tid: &Tid) -> Option<&TraceFrame> {
        self.tick += 1;
        self.stats.lookups += 1;
        let range = self.set_range(tid);
        let tick = self.tick;
        let slot = self.slots[range]
            .iter_mut()
            .find(|s| s.frame.as_ref().is_some_and(|f| f.tid == *tid))?;
        slot.stamp = tick;
        let f = slot.frame.as_mut().expect("matched above");
        f.exec_count += 1;
        if f.opt_level == OptLevel::Optimized {
            f.execs_since_opt += 1;
        }
        self.stats.hits += 1;
        Some(slot.frame.as_ref().expect("present"))
    }

    /// Probe without updating counters (used by background phases).
    pub fn contains(&self, tid: &Tid) -> bool {
        self.slots[self.set_range(tid)]
            .iter()
            .any(|s| s.frame.as_ref().is_some_and(|f| f.tid == *tid))
    }

    /// Read-only access to a resident frame.
    pub fn peek(&self, tid: &Tid) -> Option<&TraceFrame> {
        self.slots[self.set_range(tid)]
            .iter()
            .find_map(|s| s.frame.as_ref().filter(|f| f.tid == *tid))
    }

    /// Insert a newly constructed frame, evicting the LRU way if needed.
    pub fn insert(&mut self, frame: TraceFrame) {
        self.tick += 1;
        let new_uops = frame.uops.len();
        let range = self.set_range(&frame.tid);
        let tick = self.tick;
        // Reuse an existing slot for the same TID, else an empty way, else
        // the LRU victim.
        let idx = {
            let slots = &self.slots[range.clone()];
            slots
                .iter()
                .position(|s| s.frame.as_ref().is_some_and(|f| f.tid == frame.tid))
                .or_else(|| slots.iter().position(|s| s.frame.is_none()))
                .unwrap_or_else(|| {
                    slots
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.stamp)
                        .map(|(i, _)| i)
                        .expect("nonzero associativity")
                })
        };
        let slots = &mut self.slots[range];
        if let Some(old) = &slots[idx].frame {
            if old.tid != frame.tid {
                self.stats.evictions += 1;
                tev::instant(
                    "tc.evict",
                    "trace",
                    tev::track::TRACE,
                    tev::arg2(
                        "uops",
                        old.uops.len() as f64,
                        "exec_count",
                        old.exec_count as f64,
                    ),
                );
                if old.opt_level == OptLevel::Optimized {
                    self.retired_opt_reuse.push(old.execs_since_opt);
                }
            }
        }
        slots[idx] = Slot {
            tag: Self::tag_for(self.integrity, &frame),
            frame: Some(frame),
            stamp: tick,
        };
        self.stats.inserts += 1;
        if tev::active() || metrics::active() {
            let resident = self.len();
            tev::instant(
                "tc.insert",
                "trace",
                tev::track::TRACE,
                tev::arg2("uops", new_uops as f64, "resident", resident as f64),
            );
            metrics::gauge_set("tc_occupancy", resident as f64);
        }
    }

    /// Replace a resident frame with the optimizer's write-back: either its
    /// validated optimized form or its demoted (unoptimized) form, with its
    /// dispatch form rebuilt. Returns false if the frame was evicted in the
    /// meantime.
    pub fn replace_optimized(&mut self, mut frame: TraceFrame) -> bool {
        debug_assert!(
            matches!(
                (frame.opt_level, frame.verdict),
                (OptLevel::Optimized, Some(OptVerdict::Validated))
                    | (OptLevel::Demoted, Some(OptVerdict::Demoted))
            ),
            "optimizer write-back must carry a matching validation verdict \
             (got {:?} / {:?})",
            frame.opt_level,
            frame.verdict,
        );
        let range = self.set_range(&frame.tid);
        let tick = self.tick;
        let integrity = self.integrity;
        if let Some(slot) = self.slots[range]
            .iter_mut()
            .find(|s| s.frame.as_ref().is_some_and(|f| f.tid == frame.tid))
        {
            frame.build_dispatch();
            slot.tag = Self::tag_for(integrity, &frame);
            slot.frame = Some(frame);
            slot.stamp = tick;
            self.stats.optimized_writebacks += 1;
            true
        } else {
            false
        }
    }

    /// Drop a resident frame (fault recovery or spurious invalidation).
    /// Returns false if it was not resident. Counts as an eviction and,
    /// for optimized frames, records reuse like any other eviction.
    pub fn invalidate(&mut self, tid: &Tid) -> bool {
        let range = self.set_range(tid);
        let Some(slot) = self.slots[range]
            .iter_mut()
            .find(|s| s.frame.as_ref().is_some_and(|f| f.tid == *tid))
        else {
            return false;
        };
        let old = slot.frame.take().expect("matched above");
        slot.tag = 0;
        if old.opt_level == OptLevel::Optimized {
            self.retired_opt_reuse.push(old.execs_since_opt);
        }
        self.stats.evictions += 1;
        true
    }

    /// Invalidate the `n`-th resident frame in slot order (wrapping), as a
    /// deterministic stand-in for "a random frame". Returns its TID, or
    /// `None` when the cache is empty.
    pub fn invalidate_nth(&mut self, n: usize) -> Option<Tid> {
        let resident = self.len();
        if resident == 0 {
            return None;
        }
        let tid = self
            .frames()
            .nth(n % resident)
            .map(|f| f.tid)
            .expect("resident count checked");
        self.invalidate(&tid);
        Some(tid)
    }

    /// Eviction storm: drop every frame in `n_sets` consecutive sets
    /// starting at `first_set` (wrapping). Returns the number of frames
    /// dropped.
    pub fn storm(&mut self, first_set: u64, n_sets: u32) -> usize {
        let mut dropped = 0;
        for s in 0..u64::from(n_sets.min(self.cfg.sets)) {
            let set = ((first_set + s) % u64::from(self.cfg.sets)) as usize;
            let base = set * self.cfg.ways as usize;
            for slot in &mut self.slots[base..base + self.cfg.ways as usize] {
                if let Some(old) = slot.frame.take() {
                    slot.tag = 0;
                    if old.opt_level == OptLevel::Optimized {
                        self.retired_opt_reuse.push(old.execs_since_opt);
                    }
                    self.stats.evictions += 1;
                    dropped += 1;
                }
            }
        }
        dropped
    }

    /// Corrupt one uop of the resident frame for `tid` in place — modelling
    /// a storage bit-flip — *without* refreshing the integrity tag, so an
    /// armed cache will detect the damage. The uop index and mutation are
    /// derived from `r`. Returns false when nothing could be corrupted
    /// (frame absent or no mutable encoding bits).
    pub fn corrupt_uop_in(&mut self, tid: &Tid, r: u64) -> bool {
        let range = self.set_range(tid);
        let Some(frame) = self.slots[range]
            .iter_mut()
            .find_map(|s| s.frame.as_mut().filter(|f| f.tid == *tid))
        else {
            return false;
        };
        if frame.uops.is_empty() {
            return false;
        }
        let idx = (r % frame.uops.len() as u64) as usize;
        parrot_isa::corrupt::corrupt_uop(&mut frame.uops[idx], r >> 16).is_some()
    }

    /// Flip one recorded path direction of the resident frame for `tid` —
    /// modelling delivery of a stale trace whose recorded path no longer
    /// matches the program. The fetch-time path match then aborts the trace.
    /// Returns the flipped path index (the caller must treat even an
    /// accidental full match as an abort at that position: the frame's
    /// compiled uops still assert the *original* direction there), or
    /// `None` when the frame is absent or has an empty path.
    pub fn corrupt_path_in(&mut self, tid: &Tid, r: u64) -> Option<usize> {
        let range = self.set_range(tid);
        let frame = self.slots[range]
            .iter_mut()
            .find_map(|s| s.frame.as_mut().filter(|f| f.tid == *tid))?;
        if frame.path.is_empty() {
            return None;
        }
        let idx = (r % frame.path.len() as u64) as usize;
        frame.path[idx].1 = !frame.path[idx].1;
        Some(idx)
    }

    /// Record a full-path match for `tid` (raises fetch confidence).
    pub fn on_full_match(&mut self, tid: &Tid) {
        let range = self.set_range(tid);
        if let Some(slot) = self.slots[range]
            .iter_mut()
            .find(|s| s.frame.as_ref().is_some_and(|f| f.tid == *tid))
        {
            let f = slot.frame.as_mut().expect("present");
            f.live_conf = (f.live_conf + 1).min(3);
        }
    }

    /// The background phase observed this exact path executing (cold):
    /// restore fetch confidence — the recorded path is live again.
    pub fn revalidate(&mut self, tid: &Tid) {
        let range = self.set_range(tid);
        if let Some(slot) = self.slots[range]
            .iter_mut()
            .find(|s| s.frame.as_ref().is_some_and(|f| f.tid == *tid))
        {
            let f = slot.frame.as_mut().expect("present");
            f.live_conf = (f.live_conf + 1).min(3);
        }
    }

    /// Record an abort for `tid` (lowers fetch confidence).
    pub fn on_abort(&mut self, tid: &Tid) {
        let range = self.set_range(tid);
        if let Some(slot) = self.slots[range]
            .iter_mut()
            .find(|s| s.frame.as_ref().is_some_and(|f| f.tid == *tid))
        {
            let f = slot.frame.as_mut().expect("present");
            f.live_conf = f.live_conf.saturating_sub(1);
        }
    }

    /// Iterate over every resident frame.
    pub fn frames(&self) -> impl Iterator<Item = &TraceFrame> {
        self.slots.iter().filter_map(|s| s.frame.as_ref())
    }

    /// Resident frame count.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.frame.is_some()).count()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(pc: u64) -> TraceFrame {
        TraceFrame {
            tid: Tid::new(pc),
            uops: vec![],
            mem_addrs: vec![],
            dispatch: vec![],
            addr_slots: vec![],
            path: vec![],
            num_insts: 4,
            orig_uops: 6,
            joins: 1,
            opt_level: OptLevel::Constructed,
            verdict: None,
            exec_count: 0,
            execs_since_opt: 0,
            live_conf: 2,
        }
    }

    #[test]
    fn insert_then_fetch_hits_and_counts() {
        let mut tc = TraceCache::new(TraceCacheConfig::standard());
        tc.insert(frame(0x100));
        assert!(tc.contains(&Tid::new(0x100)));
        let f = tc.fetch(&Tid::new(0x100)).unwrap();
        assert_eq!(f.exec_count, 1);
        tc.fetch(&Tid::new(0x100));
        assert_eq!(tc.peek(&Tid::new(0x100)).unwrap().exec_count, 2);
        assert_eq!(tc.stats().hits, 2);
    }

    #[test]
    fn miss_on_absent_tid() {
        let mut tc = TraceCache::new(TraceCacheConfig::standard());
        assert!(tc.fetch(&Tid::new(0x200)).is_none());
        assert_eq!(tc.stats().lookups, 1);
        assert_eq!(tc.stats().hits, 0);
    }

    #[test]
    fn lru_eviction_within_set() {
        let cfg = TraceCacheConfig { sets: 1, ways: 2 };
        let mut tc = TraceCache::new(cfg);
        tc.insert(frame(1));
        tc.insert(frame(2));
        tc.fetch(&Tid::new(1)); // 2 becomes LRU
        tc.insert(frame(3)); // evicts 2
        assert!(tc.contains(&Tid::new(1)));
        assert!(!tc.contains(&Tid::new(2)));
        assert_eq!(tc.stats().evictions, 1);
        assert_eq!(tc.len(), 2);
    }

    #[test]
    fn optimized_writeback_replaces_in_place() {
        let mut tc = TraceCache::new(TraceCacheConfig::standard());
        tc.insert(frame(0x300));
        let mut opt = frame(0x300);
        opt.opt_level = OptLevel::Optimized;
        opt.verdict = Some(OptVerdict::Validated);
        opt.uops = vec![];
        assert!(tc.replace_optimized(opt));
        assert_eq!(
            tc.peek(&Tid::new(0x300)).unwrap().opt_level,
            OptLevel::Optimized
        );
        assert_eq!(tc.stats().optimized_writebacks, 1);
        // A demoted write-back is also accepted (keeps constructed uops).
        let mut dem = frame(0x300);
        dem.opt_level = OptLevel::Demoted;
        dem.verdict = Some(OptVerdict::Demoted);
        assert!(tc.replace_optimized(dem));
        assert_eq!(
            tc.peek(&Tid::new(0x300)).unwrap().opt_level,
            OptLevel::Demoted
        );
        // Write-back to an evicted TID fails gracefully.
        let mut gone = frame(0x999);
        gone.opt_level = OptLevel::Optimized;
        gone.verdict = Some(OptVerdict::Validated);
        assert!(!tc.replace_optimized(gone));
    }

    #[test]
    fn optimized_writeback_rebuilds_the_dispatch_form() {
        use parrot_isa::{AluOp, DispatchUop, Reg, Uop};
        let mut tc = TraceCache::new(TraceCacheConfig::standard());
        let tid = Tid::new(0x340);
        let mut f = frame(0x340);
        f.uops = vec![Uop::alu(AluOp::Add, Reg::int(0), Reg::int(1), Reg::int(2)); 3];
        f.build_dispatch();
        tc.insert(f.clone());

        // The optimizer reorders: a store of instruction 3 ahead of a load
        // of instruction 1. The slots come back in instruction order.
        let mut opt = f.clone();
        opt.opt_level = OptLevel::Optimized;
        opt.verdict = Some(OptVerdict::Validated);
        let mut load = Uop::load(Reg::int(3), Reg::int(4));
        load.inst_idx = 1;
        let mut store = Uop::store(Reg::int(4), Reg::int(3));
        store.inst_idx = 3;
        opt.uops = vec![store.clone(), load.clone()];
        assert!(tc.replace_optimized(opt));
        let got = tc.peek(&tid).expect("resident");
        assert_eq!(
            got.dispatch,
            vec![
                DispatchUop::from_uop(&store, 0, 0),
                DispatchUop::from_uop(&load, 0, 4)
            ]
        );
        assert_eq!(got.addr_slots, vec![(1, 1), (0, 3)]);

        // A trace optimized away dispatches one nop carrying the credit.
        let mut empty = f.clone();
        empty.opt_level = OptLevel::Optimized;
        empty.verdict = Some(OptVerdict::Validated);
        empty.uops.clear();
        assert!(tc.replace_optimized(empty));
        let got = tc.peek(&tid).expect("resident");
        let mut nop = Uop::mov_imm(Reg::int(0), 0);
        nop.kind = parrot_isa::UopKind::Nop;
        nop.dst = None;
        assert_eq!(got.dispatch, vec![DispatchUop::from_uop(&nop, 0, 4)]);
        assert_eq!(got.dispatch, vec![DispatchUop::credit_nop(4)]);
        assert!(got.addr_slots.is_empty());
    }

    #[test]
    fn same_tid_reinsert_does_not_evict_neighbors() {
        let cfg = TraceCacheConfig { sets: 1, ways: 2 };
        let mut tc = TraceCache::new(cfg);
        tc.insert(frame(1));
        tc.insert(frame(2));
        tc.insert(frame(1)); // refresh, not evict
        assert!(tc.contains(&Tid::new(1)));
        assert!(tc.contains(&Tid::new(2)));
        assert_eq!(tc.stats().evictions, 0);
    }

    #[test]
    fn integrity_detects_storage_corruption() {
        use parrot_isa::{AluOp, Reg, Uop};
        let mut tc = TraceCache::new(TraceCacheConfig::standard());
        tc.set_integrity(true);
        let mut f = frame(0x500);
        f.uops = vec![Uop::alu(AluOp::Add, Reg::int(0), Reg::int(1), Reg::int(2))];
        tc.insert(f);
        let tid = Tid::new(0x500);
        assert!(tc.verify_integrity(&tid), "clean frame verifies");
        assert!(tc.corrupt_uop_in(&tid, 12345));
        assert!(!tc.verify_integrity(&tid), "bit-flip detected");
        assert!(tc.invalidate(&tid));
        assert!(!tc.contains(&tid));
        assert!(tc.verify_integrity(&tid), "absent frame is vacuously clean");
        assert!(!tc.invalidate(&tid), "double invalidate is a no-op");
    }

    #[test]
    fn disarmed_cache_skips_integrity() {
        use parrot_isa::{AluOp, Reg, Uop};
        let mut tc = TraceCache::new(TraceCacheConfig::standard());
        let mut f = frame(0x600);
        f.uops = vec![Uop::alu(AluOp::Add, Reg::int(0), Reg::int(1), Reg::int(2))];
        tc.insert(f);
        let tid = Tid::new(0x600);
        assert!(tc.corrupt_uop_in(&tid, 7));
        assert!(tc.verify_integrity(&tid), "disarmed: always clean");
    }

    #[test]
    fn invalidate_nth_and_storm_drop_frames() {
        let cfg = TraceCacheConfig { sets: 4, ways: 2 };
        let mut tc = TraceCache::new(cfg);
        for pc in 1..=6u64 {
            tc.insert(frame(pc));
        }
        let before = tc.len();
        let victim = tc.invalidate_nth(3).expect("resident frames exist");
        assert_eq!(tc.len(), before - 1);
        assert!(!tc.contains(&victim));
        let dropped = tc.storm(0, 4);
        assert_eq!(dropped, before - 1, "storm over all sets empties the cache");
        assert!(tc.is_empty());
        assert!(
            tc.invalidate_nth(0).is_none(),
            "empty cache: nothing to drop"
        );
        assert_eq!(tc.storm(0, 4), 0);
    }

    #[test]
    fn corrupt_path_flips_one_direction() {
        let mut tc = TraceCache::new(TraceCacheConfig::standard());
        let mut f = frame(0x700);
        f.path = vec![(0x700, true), (0x704, false)];
        tc.insert(f);
        let tid = Tid::new(0x700);
        assert_eq!(tc.corrupt_path_in(&tid, 0), Some(0));
        assert_eq!(tc.peek(&tid).unwrap().path[0], (0x700, false));
        // Empty-path and absent frames cannot be corrupted.
        tc.insert(frame(0x800));
        assert_eq!(tc.corrupt_path_in(&Tid::new(0x800), 0), None);
        assert_eq!(tc.corrupt_path_in(&Tid::new(0x999), 0), None);
        assert!(!tc.corrupt_uop_in(&Tid::new(0x999), 0));
    }

    #[test]
    fn evicted_optimized_frames_record_reuse() {
        let cfg = TraceCacheConfig { sets: 1, ways: 1 };
        let mut tc = TraceCache::new(cfg);
        let mut f = frame(1);
        f.opt_level = OptLevel::Optimized;
        tc.insert(f);
        for _ in 0..5 {
            tc.fetch(&Tid::new(1));
        }
        tc.insert(frame(2)); // evicts the optimized frame
        assert_eq!(tc.retired_opt_reuse, vec![5]);
    }
}

#[cfg(test)]
mod confidence_tests {
    use super::*;

    fn frame(pc: u64, dirs: &[bool]) -> TraceFrame {
        let mut tid = Tid::new(pc);
        for d in dirs {
            tid.push_dir(*d);
        }
        TraceFrame {
            tid,
            uops: vec![],
            mem_addrs: vec![],
            dispatch: vec![],
            addr_slots: vec![],
            path: vec![],
            num_insts: 4,
            orig_uops: 6,
            joins: 1,
            opt_level: OptLevel::Constructed,
            verdict: None,
            exec_count: 0,
            execs_since_opt: 0,
            live_conf: 1,
        }
    }

    #[test]
    fn variants_share_a_set_and_sort_by_recency() {
        let mut tc = TraceCache::new(TraceCacheConfig::standard());
        tc.insert(frame(0x100, &[true]));
        tc.insert(frame(0x100, &[false]));
        tc.insert(frame(0x200, &[true]));
        let by_recency = |tc: &TraceCache| {
            let mut v: Vec<(Tid, u64)> = tc.variants_at(0x100).map(|(f, s)| (f.tid, s)).collect();
            v.sort_by_key(|&(_, stamp)| std::cmp::Reverse(stamp));
            v
        };
        let v = by_recency(&tc);
        assert_eq!(v.len(), 2, "both path variants of 0x100");
        assert!(v.iter().all(|(t, _)| t.start_pc == 0x100));
        assert!(!v[0].0.dir(0), "the later insert is more recent");
        // Touch the older variant: it becomes MRU.
        let t1 = v[1].0;
        tc.fetch(&t1);
        assert_eq!(by_recency(&tc)[0].0, t1, "MRU first");
        assert_eq!(tc.variants_at(0x300).count(), 0);
    }

    #[test]
    fn confidence_lifecycle() {
        let mut tc = TraceCache::new(TraceCacheConfig::standard());
        let f = frame(0x400, &[true]);
        let tid = f.tid;
        tc.insert(f);
        assert_eq!(tc.peek(&tid).expect("resident").live_conf, 1);
        tc.revalidate(&tid);
        assert_eq!(tc.peek(&tid).expect("resident").live_conf, 2);
        tc.on_full_match(&tid);
        assert_eq!(
            tc.peek(&tid).expect("resident").live_conf,
            3,
            "saturates at 3 next"
        );
        tc.on_full_match(&tid);
        assert_eq!(tc.peek(&tid).expect("resident").live_conf, 3);
        tc.on_abort(&tid);
        assert_eq!(tc.peek(&tid).expect("resident").live_conf, 2);
        tc.on_abort(&tid);
        tc.on_abort(&tid);
        tc.on_abort(&tid);
        assert_eq!(tc.peek(&tid).expect("resident").live_conf, 0, "floors at 0");
        // Operations on absent TIDs are no-ops.
        tc.on_abort(&Tid::new(0x999));
        tc.revalidate(&Tid::new(0x999));
    }
}
