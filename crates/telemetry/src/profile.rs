//! Scoped wall-clock timers around simulator hot paths, plus a sampled
//! cycle-loop stage clock and flamegraph output.
//!
//! Sections nest: a scope's elapsed time counts toward its own *total* and
//! is subtracted from the enclosing scope's *self* time, so the report
//! attributes every nanosecond exactly once. Install with [`install`],
//! guard hot paths with [`scope`], and print [`Profiler::report`] at exit.
//!
//! All timing derives from one monotonic source: the profiler's epoch
//! `Instant`, with every duration kept as integer nanoseconds. Each
//! section keeps a 64-bucket log₂ histogram of scope durations, so the
//! report shows p50/p95/max per scope alongside totals (percentiles are
//! read at geometric bucket midpoints — exact to within a power of two —
//! while max is exact).
//!
//! # Cycle-loop stages
//!
//! The cycle loop runs hundreds of millions of ticks, so it is timed by
//! one sampled transition clock instead of scopes. The machine marks every
//! stage boundary of a tick: [`begin_tick`] opens its first stage,
//! [`enter`] moves to the next, and [`end_tick`] closes the tick, so the
//! stages partition every tick and each interval belongs to the stage open
//! during it. The clock reads only at the boundaries of one stage per tick:
//! each stride of [`STAGE_STRIDE`] ticks times every [`Stage`] on one tick
//! (two reads when the stage runs once) and one tick whole, and its other
//! ticks read no clock. The timed ticks rotate by one per stride, so a
//! stage sees every tick position equally. Reported stage totals are
//! estimates (sampled time × stride, marked `~` in the report).
//!
//! A clock read waits for the work before it, so what it adds to an
//! interval depends on the work around it: about 45 ns between reads in a
//! tight loop, and more inside the simulator. It is measured in situ: the
//! stage ticks and the whole ticks estimate the same tick time, and the
//! stage intervals exceed it by one read per interval beyond a tick's
//! first. That cost is taken out of every stage interval, so the stage
//! totals add up to the time inside ticks. Per-stage histograms and max
//! are over the timed ticks' raw time.
//!
//! # Flamegraphs
//!
//! [`Profiler::collapsed`] renders collapsed-stack text (one
//! `frame;frame;frame value` line per unique stack, values in self-
//! nanoseconds) directly consumable by `inferno` / `flamegraph.pl` /
//! speedscope. Sampled cycle-loop stages appear under a synthetic
//! `cycle-stages` root frame so their estimated time does not double-count
//! the enclosing `machine.run` scope.
//!
//! When no profiler is installed, [`scope`] is a single thread-local `Cell`
//! read and the guard's `Drop` does nothing — cheap enough to leave in the
//! machine tick loop.
//!
//! ```
//! use parrot_telemetry::profile;
//!
//! profile::install(profile::Profiler::new());
//! {
//!     let _outer = profile::scope("machine.run");
//!     let _inner = profile::scope("opt.pass"); // nests: counted once
//! }
//! let p = profile::take().unwrap();
//! let (calls, _total, _own) = p.section("machine.run").unwrap();
//! assert_eq!(calls, 1);
//! assert!(p.report().contains("machine.run"));
//! assert!(p.collapsed().contains("machine.run;opt.pass"));
//! ```

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// The stage clock times each stage on 1 tick in this many.
pub const STAGE_STRIDE: u32 = 64;

/// Cycle-loop stages attributed by the sampled stage timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Cold-path fetch: I-cache, branch prediction, decode.
    Frontend = 0,
    /// Trace-cache lookup and hot-entry arbitration.
    TraceCache = 1,
    /// Optimizer invocations from the cycle loop.
    Optimizer = 2,
    /// Out-of-order core: issue, execute, writeback, commit.
    Exec = 3,
    /// Dispatch from the fetch queue into the core.
    Dispatch = 4,
    /// Energy accounting and metrics publication.
    Accounting = 5,
}

const STAGE_COUNT: usize = 6;

impl Stage {
    /// All stages, in id order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Frontend,
        Stage::TraceCache,
        Stage::Optimizer,
        Stage::Exec,
        Stage::Dispatch,
        Stage::Accounting,
    ];

    /// Display name (also the collapsed-stack frame name).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Frontend => "frontend",
            Stage::TraceCache => "trace-cache",
            Stage::Optimizer => "optimizer",
            Stage::Exec => "exec",
            Stage::Dispatch => "dispatch",
            Stage::Accounting => "accounting",
        }
    }
}

/// 64-bucket log₂ histogram of nanosecond durations. Bucket `b` covers
/// `[2^b, 2^(b+1))`; percentiles are read at the geometric bucket midpoint.
#[derive(Clone, Debug)]
struct LogHist {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist {
            buckets: [0; 64],
            count: 0,
        }
    }
}

impl LogHist {
    #[inline]
    fn record(&mut self, ns: u64) {
        let b = 63 - (ns | 1).leading_zeros() as usize;
        self.buckets[b] += 1;
        self.count += 1;
    }

    fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Nearest-rank percentile, reported at the bucket's geometric
    /// midpoint (`1.5 × 2^b`). 0 when empty.
    fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (1u64 << b) + ((1u64 << b) >> 1);
            }
        }
        (1u64 << 63) + ((1u64 << 63) >> 1)
    }
}

#[derive(Clone, Debug, Default)]
struct Section {
    name: &'static str,
    calls: u64,
    total_ns: u64,
    own_ns: u64,
    max_ns: u64,
    hist: LogHist,
}

#[derive(Debug)]
struct Frame {
    section: usize,
    start_ns: u64,
    child_ns: u64,
}

/// One stage's timed ticks: how many ran the stage, its intervals on them,
/// and their raw time (the clock's cost included).
#[derive(Clone, Debug, Default)]
struct StageStat {
    sampled: u64,
    intervals: u64,
    ns: u64,
    max_ns: u64,
    hist: LogHist,
}

/// Wall-clock section profiler.
#[derive(Debug)]
pub struct Profiler {
    sections: Vec<Section>,
    stack: Vec<Frame>,
    /// Current stack rendered as "a;b;c", maintained incrementally.
    stack_key: String,
    /// `stack_key` length before each frame was pushed.
    key_lens: Vec<usize>,
    /// Self-nanoseconds per unique collapsed stack.
    stacks: Vec<(String, u64)>,
    epoch: Instant,
    /// One slot per [`Stage`], then one for the ticks timed whole.
    stages: Vec<StageStat>,
    /// Per-sweep-worker section totals, accumulated by
    /// [`Profiler::absorb_worker`] and reported as attribution sub-tables.
    workers: Vec<(u32, Vec<Section>)>,
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new()
    }
}

fn merge_sections(into: &mut Vec<Section>, from: &[Section]) {
    for s in from {
        if let Some(t) = into.iter_mut().find(|t| t.name == s.name) {
            t.calls += s.calls;
            t.total_ns += s.total_ns;
            t.own_ns += s.own_ns;
            t.max_ns = t.max_ns.max(s.max_ns);
            t.hist.merge(&s.hist);
        } else {
            into.push(s.clone());
        }
    }
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

impl Profiler {
    /// A profiler whose monotonic epoch starts now.
    pub fn new() -> Profiler {
        Profiler {
            sections: Vec::new(),
            stack: Vec::new(),
            stack_key: String::new(),
            key_lens: Vec::new(),
            stacks: Vec::new(),
            epoch: Instant::now(),
            stages: vec![StageStat::default(); STAGE_COUNT + 1],
            workers: Vec::new(),
        }
    }

    /// Nanoseconds since this profiler's epoch — the single monotonic
    /// clock source every measurement derives from.
    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Fold a sweep shard's profiler into this one: its section totals add
    /// into the aggregate table and into the per-worker attribution bucket
    /// for `worker` (self/total time stays exactly attributed — shard
    /// scopes closed before collection, so no time is double-counted).
    /// Collapsed stacks and sampled stage stats merge into the aggregate.
    pub fn absorb_worker(&mut self, worker: u32, other: Profiler) {
        merge_sections(&mut self.sections, &other.sections);
        for (key, ns) in &other.stacks {
            if let Some((_, v)) = self.stacks.iter_mut().find(|(k, _)| k == key) {
                *v += ns;
            } else {
                self.stacks.push((key.clone(), *ns));
            }
        }
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.sampled += theirs.sampled;
            mine.intervals += theirs.intervals;
            mine.ns += theirs.ns;
            mine.max_ns = mine.max_ns.max(theirs.max_ns);
            mine.hist.merge(&theirs.hist);
        }
        if let Some((_, bucket)) = self.workers.iter_mut().find(|(w, _)| *w == worker) {
            merge_sections(bucket, &other.sections);
        } else {
            let mut bucket = Vec::new();
            merge_sections(&mut bucket, &other.sections);
            self.workers.push((worker, bucket));
        }
        for (w, shard_bucket) in other.workers {
            if let Some((_, bucket)) = self.workers.iter_mut().find(|(sw, _)| *sw == w) {
                merge_sections(bucket, &shard_bucket);
            } else {
                self.workers.push((w, shard_bucket));
            }
        }
    }

    fn section_index(&mut self, name: &'static str) -> usize {
        if let Some(i) = self.sections.iter().position(|s| s.name == name) {
            i
        } else {
            self.sections.push(Section {
                name,
                ..Section::default()
            });
            self.sections.len() - 1
        }
    }

    fn begin(&mut self, name: &'static str) {
        let section = self.section_index(name);
        self.key_lens.push(self.stack_key.len());
        if !self.stack_key.is_empty() {
            self.stack_key.push(';');
        }
        self.stack_key.push_str(name);
        let start_ns = self.now_ns();
        self.stack.push(Frame {
            section,
            start_ns,
            child_ns: 0,
        });
    }

    fn end(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let elapsed = self.now_ns().saturating_sub(frame.start_ns);
        let own = elapsed.saturating_sub(frame.child_ns);
        let s = &mut self.sections[frame.section];
        s.calls += 1;
        s.total_ns += elapsed;
        s.own_ns += own;
        s.max_ns = s.max_ns.max(elapsed);
        s.hist.record(elapsed);
        if let Some((_, v)) = self.stacks.iter_mut().find(|(k, _)| *k == self.stack_key) {
            *v += own;
        } else {
            self.stacks.push((self.stack_key.clone(), own));
        }
        let len = self.key_lens.pop().unwrap_or(0);
        self.stack_key.truncate(len);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += elapsed;
        }
    }

    fn record_stage(&mut self, slot: usize, intervals: u64, ns: u64) {
        let st = &mut self.stages[slot];
        st.sampled += 1;
        st.intervals += intervals;
        st.ns += ns;
        st.max_ns = st.max_ns.max(ns);
        st.hist.record(ns);
    }

    /// What one clock read adds to a stage interval, measured in situ. A
    /// stride times each stage on one tick and a whole tick on another, so
    /// the stage intervals and the whole ticks estimate the same tick time;
    /// the stage intervals exceed it by the clock's cost at every interval
    /// beyond a tick's first. 0 until both kinds of tick were timed.
    fn read_cost_ns(&self) -> f64 {
        let (stages, whole) = self.stages.split_at(STAGE_COUNT);
        let intervals: u64 = stages.iter().map(|s| s.intervals).sum();
        let ns: u64 = stages.iter().map(|s| s.ns).sum();
        if whole[0].sampled == 0 || intervals <= whole[0].intervals {
            return 0.0;
        }
        let excess = ns as f64 - whole[0].ns as f64;
        (excess / (intervals - whole[0].intervals) as f64).max(0.0)
    }

    /// A stage's sampled time with the clock's cost taken out of each of
    /// its intervals.
    fn stage_ns(&self, stage: Stage) -> u64 {
        let st = &self.stages[stage as usize];
        (st.ns as f64 - st.intervals as f64 * self.read_cost_ns()).max(0.0) as u64
    }

    /// Render the per-section table (sorted by self time, descending),
    /// with p50/p95/max per scope and the sampled cycle-loop stage table.
    pub fn report(&self) -> String {
        let wall_ns = self.now_ns();
        let mut rows = self.sections.clone();
        rows.sort_by_key(|s| std::cmp::Reverse(s.own_ns));
        let mut out = String::new();
        out.push_str("profile (wall-clock)\n");
        out.push_str(&format!(
            "{:<28} {:>10} {:>12} {:>12} {:>7} {:>9} {:>9} {:>9}\n",
            "section", "calls", "total ms", "self ms", "self %", "p50 us", "p95 us", "max us"
        ));
        let wall_s = (wall_ns as f64 / 1e9).max(1e-12);
        for s in &rows {
            out.push_str(&format!(
                "{:<28} {:>10} {:>12.3} {:>12.3} {:>6.1}% {:>9} {:>9} {:>9}\n",
                s.name,
                s.calls,
                s.total_ns as f64 / 1e6,
                s.own_ns as f64 / 1e6,
                100.0 * (s.own_ns as f64 / 1e9) / wall_s,
                fmt_us(s.hist.percentile(50.0)),
                fmt_us(s.hist.percentile(95.0)),
                fmt_us(s.max_ns),
            ));
        }
        out.push_str(&format!("wall total: {:.3} ms\n", wall_ns as f64 / 1e6));
        if self.stages.iter().any(|s| s.sampled > 0) {
            out.push_str(&format!(
                "\ncycle-loop stages (sampled 1-in-{STAGE_STRIDE}; totals estimated; \
                 clock cost {:.0} ns per interval removed)\n",
                self.read_cost_ns()
            ));
            out.push_str(&format!(
                "{:<14} {:>10} {:>12} {:>7} {:>9} {:>9} {:>9}\n",
                "stage", "sampled", "~total ms", "share%", "p50 us", "p95 us", "max us"
            ));
            for stage in Stage::ALL {
                let st = &self.stages[stage as usize];
                if st.sampled == 0 {
                    continue;
                }
                let est_ns = self.stage_ns(stage).saturating_mul(u64::from(STAGE_STRIDE));
                out.push_str(&format!(
                    "{:<14} {:>10} {:>12.3} {:>6.1}% {:>9} {:>9} {:>9}\n",
                    stage.name(),
                    st.sampled,
                    est_ns as f64 / 1e6,
                    100.0 * (est_ns as f64 / 1e9) / wall_s,
                    fmt_us(st.hist.percentile(50.0)),
                    fmt_us(st.hist.percentile(95.0)),
                    fmt_us(st.max_ns),
                ));
            }
        }
        if !self.workers.is_empty() {
            let mut workers = self.workers.clone();
            workers.sort_by_key(|(w, _)| *w);
            out.push_str("\nper-worker attribution\n");
            for (w, sections) in &workers {
                let busy: u64 = sections.iter().map(|s| s.own_ns).sum();
                out.push_str(&format!("worker {w} — busy {:.3} ms\n", busy as f64 / 1e6));
                let mut rows = sections.clone();
                rows.sort_by_key(|s| std::cmp::Reverse(s.own_ns));
                for s in &rows {
                    out.push_str(&format!(
                        "  {:<26} {:>10} {:>12.3} {:>12.3}\n",
                        s.name,
                        s.calls,
                        s.total_ns as f64 / 1e6,
                        s.own_ns as f64 / 1e6
                    ));
                }
            }
        }
        out
    }

    /// Collapsed-stack text (flamegraph.pl / inferno / speedscope input):
    /// one `frame;frame value` line per unique scope stack, values in
    /// self-nanoseconds, sorted for determinism. Sampled cycle-loop stages
    /// are emitted under a synthetic `cycle-stages` root with estimated
    /// (× stride) nanoseconds.
    pub fn collapsed(&self) -> String {
        let mut lines: Vec<String> = self
            .stacks
            .iter()
            .filter(|(_, ns)| *ns > 0)
            .map(|(k, ns)| format!("{k} {ns}"))
            .collect();
        for stage in Stage::ALL {
            let st = &self.stages[stage as usize];
            if st.sampled > 0 {
                let est = self.stage_ns(stage).saturating_mul(u64::from(STAGE_STRIDE));
                lines.push(format!("cycle-stages;{} {est}", stage.name()));
            }
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// (calls, total, self) for `name`, if the section was entered.
    pub fn section(&self, name: &str) -> Option<(u64, Duration, Duration)> {
        self.sections.iter().find(|s| s.name == name).map(|s| {
            (
                s.calls,
                Duration::from_nanos(s.total_ns),
                Duration::from_nanos(s.own_ns),
            )
        })
    }

    /// (p50, p95, max) scope duration for `name`, if entered. p50/p95 are
    /// log₂-bucket midpoints (exact within a power of two); max is exact.
    pub fn section_percentiles(&self, name: &str) -> Option<(Duration, Duration, Duration)> {
        self.sections.iter().find(|s| s.name == name).map(|s| {
            (
                Duration::from_nanos(s.hist.percentile(50.0)),
                Duration::from_nanos(s.hist.percentile(95.0)),
                Duration::from_nanos(s.max_ns),
            )
        })
    }

    /// (timed ticks that ran the stage, their time with the clock's cost
    /// taken out, the longest such tick's raw time) for a cycle-loop stage;
    /// `None` if the stage was never timed. Estimated total time is
    /// `sampled time × STAGE_STRIDE`.
    pub fn stage_stats(&self, stage: Stage) -> Option<(u64, Duration, Duration)> {
        let st = &self.stages[stage as usize];
        if st.sampled == 0 {
            return None;
        }
        Some((
            st.sampled,
            Duration::from_nanos(self.stage_ns(stage)),
            Duration::from_nanos(st.max_ns),
        ))
    }

    /// (calls, total, self) for `name` as attributed to sweep `worker`, if
    /// that worker entered the section.
    pub fn worker_section(&self, worker: u32, name: &str) -> Option<(u64, Duration, Duration)> {
        self.workers
            .iter()
            .find(|(w, _)| *w == worker)
            .and_then(|(_, ss)| ss.iter().find(|s| s.name == name))
            .map(|s| {
                (
                    s.calls,
                    Duration::from_nanos(s.total_ns),
                    Duration::from_nanos(s.own_ns),
                )
            })
    }
}

/// This thread's stage clock: ticks begun since the profiler was
/// installed, and what the clock has read on the current tick.
#[derive(Clone, Copy, Default)]
struct Clock {
    ticks: u64,
    /// The stage timed on the current tick, if any.
    timed: Option<Stage>,
    /// When the timed stage or whole tick was last entered, while open.
    since: Option<Instant>,
    /// The timed intervals on this tick: their number and their sum.
    intervals: u64,
    ns: u64,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CLOCK: Cell<Clock> = Cell::default();
    static PROFILER: RefCell<Option<Profiler>> = const { RefCell::new(None) };
}

/// Install a profiler as this thread's sink (returning any previous one).
pub fn install(p: Profiler) -> Option<Profiler> {
    ACTIVE.with(|a| a.set(true));
    CLOCK.set(Clock::default());
    PROFILER.with(|cell| cell.borrow_mut().replace(p))
}

/// Remove and return the installed profiler.
pub fn take() -> Option<Profiler> {
    ACTIVE.with(|a| a.set(false));
    CLOCK.set(Clock::default());
    PROFILER.with(|cell| cell.borrow_mut().take())
}

/// Is a profiler installed on this thread?
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// RAII guard closing its section on drop. Obtain via [`scope`].
#[must_use = "the scope ends when the guard is dropped"]
pub struct Scope {
    live: bool,
}

impl Drop for Scope {
    fn drop(&mut self) {
        if self.live {
            PROFILER.with(|cell| {
                if let Some(p) = cell.borrow_mut().as_mut() {
                    p.end();
                }
            });
        }
    }
}

/// Open a named timing scope; it closes when the returned guard drops.
#[inline]
pub fn scope(name: &'static str) -> Scope {
    if !active() {
        return Scope { live: false };
    }
    PROFILER.with(|cell| {
        if let Some(p) = cell.borrow_mut().as_mut() {
            p.begin(name);
        }
    });
    Scope { live: true }
}

/// Begin a simulated tick whose first stage is `first`. Stride `k` times
/// stage `Stage::ALL[s]` on its tick `(k + s) % STAGE_STRIDE` and the whole
/// tick on the tick after the last stage's; its other ticks read no clock.
/// A single `Cell` read when no profiler is installed.
#[inline]
pub fn begin_tick(first: Stage) {
    if !active() {
        return;
    }
    let n = CLOCK.get().ticks;
    let slot = ((n - n / u64::from(STAGE_STRIDE)) % u64::from(STAGE_STRIDE)) as usize;
    let timed = Stage::ALL.get(slot).copied();
    let open = timed == Some(first) || slot == STAGE_COUNT;
    CLOCK.set(Clock {
        ticks: n + 1,
        timed,
        since: open.then(Instant::now),
        ..Clock::default()
    });
}

/// Cross a stage boundary: the time since the last boundary belongs to
/// the stage that was open, and `next` is open from here. A single `Cell`
/// read unless this tick times a stage.
#[inline]
pub fn enter(next: Stage) {
    if let Some(timed) = CLOCK.get().timed {
        clock_move(timed, next);
    }
}

/// Close the tick begun by [`begin_tick`], ending its open stage, and
/// record what the tick timed: its stage, or the whole tick. A single
/// `Cell` read when no profiler is installed.
#[inline]
pub fn end_tick() {
    if !active() {
        return;
    }
    let mut c = CLOCK.get();
    if let Some(t0) = c.since {
        c.ns += t0.elapsed().as_nanos() as u64;
        c.intervals += 1;
    }
    CLOCK.set(Clock {
        ticks: c.ticks,
        ..Clock::default()
    });
    if c.intervals > 0 {
        let slot = c.timed.map_or(STAGE_COUNT, |s| s as usize);
        PROFILER.with(|cell| {
            if let Some(p) = cell.borrow_mut().as_mut() {
                p.record_stage(slot, c.intervals, c.ns);
            }
        });
    }
}

/// Read the clock only when the boundary enters or leaves the timed stage.
#[inline(never)]
fn clock_move(timed: Stage, next: Stage) {
    let mut c = CLOCK.get();
    match (c.since, next == timed) {
        (Some(t0), false) => {
            c.ns += t0.elapsed().as_nanos() as u64;
            c.intervals += 1;
            c.since = None;
        }
        (None, true) => c.since = Some(Instant::now()),
        _ => return,
    }
    CLOCK.set(c);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_attributes_self_and_total() {
        install(Profiler::new());
        {
            let _outer = scope("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = scope("inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let p = take().unwrap();
        let (ocalls, ototal, oself) = p.section("outer").unwrap();
        let (icalls, itotal, iself) = p.section("inner").unwrap();
        assert_eq!(ocalls, 1);
        assert_eq!(icalls, 1);
        // Outer total covers inner; outer self excludes it.
        assert!(ototal >= itotal);
        assert!(oself <= ototal - itotal + Duration::from_millis(1));
        assert!(iself <= itotal);
        let report = p.report();
        assert!(report.contains("outer"));
        assert!(report.contains("inner"));
        assert!(report.contains("self %"));
        assert!(report.contains("p50 us"));
        assert!(report.contains("p95 us"));
        assert!(report.contains("max us"));
    }

    #[test]
    fn repeated_scopes_accumulate_calls() {
        install(Profiler::new());
        for _ in 0..10 {
            let _s = scope("tick");
        }
        let p = take().unwrap();
        assert_eq!(p.section("tick").unwrap().0, 10);
    }

    #[test]
    fn scope_without_profiler_is_noop() {
        assert!(!active());
        let _s = scope("nothing");
        begin_tick(Stage::Exec);
        enter(Stage::Dispatch);
        end_tick();
        assert!(take().is_none());
    }

    #[test]
    fn percentiles_bracket_scope_durations() {
        install(Profiler::new());
        for _ in 0..8 {
            let _s = scope("sleepy");
            std::thread::sleep(Duration::from_millis(1));
        }
        let p = take().unwrap();
        let (p50, p95, max) = p.section_percentiles("sleepy").unwrap();
        // 1ms sleeps land in log2 buckets near 1–4ms; midpoints are within
        // a power of two of the true duration.
        assert!(p50 >= Duration::from_micros(500), "p50 {p50:?}");
        assert!(p95 >= p50);
        assert!(max >= Duration::from_millis(1));
        assert!(max < Duration::from_secs(1));
    }

    #[test]
    fn collapsed_stacks_nest_and_sum_self_time() {
        install(Profiler::new());
        {
            let _a = scope("a");
            std::thread::sleep(Duration::from_millis(1));
            {
                let _b = scope("b");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        {
            let _b = scope("b");
        }
        let p = take().unwrap();
        let folded = p.collapsed();
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.iter().any(|l| l.starts_with("a ")));
        assert!(lines.iter().any(|l| l.starts_with("a;b ")));
        // Every line is "stack value".
        for l in &lines {
            let (_, v) = l.rsplit_once(' ').unwrap();
            v.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn stage_sampler_arms_one_in_stride() {
        install(Profiler::new());
        for _ in 0..STAGE_STRIDE * 4 {
            begin_tick(Stage::Exec);
            std::hint::black_box(0u64);
            end_tick();
        }
        let p = take().unwrap();
        let (sampled, total, max) = p.stage_stats(Stage::Exec).unwrap();
        assert_eq!(sampled, 4, "one timed tick per stride");
        assert!(total > Duration::ZERO);
        assert!(max >= total / 4);
        assert!(p.stage_stats(Stage::Frontend).is_none());
        let report = p.report();
        assert!(report.contains("cycle-loop stages"));
        assert!(report.contains("exec"));
        let folded = p.collapsed();
        assert!(folded.contains("cycle-stages;exec "));
    }

    #[test]
    fn each_stage_is_charged_on_its_own_tick_and_the_stages_partition_it() {
        let ms = Duration::from_millis(1);
        install(Profiler::new());
        // Wall time and per-stage sleeps of the first stride's timed ticks.
        let mut wall = [Duration::ZERO; STAGE_COUNT + 1];
        let mut slept = [[Duration::ZERO; STAGE_COUNT]; STAGE_COUNT + 1];
        for t in 0..STAGE_STRIDE as usize {
            let tick = Instant::now();
            begin_tick(Stage::ALL[0]);
            for (s, &stage) in Stage::ALL.iter().enumerate() {
                enter(stage);
                // The first stride times stage `s` on tick `s` and the
                // whole tick on tick `STAGE_COUNT`; those ticks spend 1 ms
                // in every stage. Each later tick spends 1 ms in one stage,
                // which a stage charged off its own tick would count.
                if t <= STAGE_COUNT || t % STAGE_COUNT == s {
                    let nap = Instant::now();
                    std::thread::sleep(ms);
                    if t <= STAGE_COUNT {
                        slept[t][s] = nap.elapsed();
                    }
                }
            }
            end_tick();
            if t <= STAGE_COUNT {
                wall[t] = tick.elapsed();
            }
        }
        let p = take().unwrap();
        // Raw clock readings, before the clock's cost is taken out: each
        // stage is one interval of its own tick, which holds that stage's
        // sleep and none of the other stages' sleeps on the tick.
        for (s, stage) in Stage::ALL.into_iter().enumerate() {
            let st = &p.stages[s];
            assert_eq!((st.sampled, st.intervals), (1, 1), "{stage:?}");
            let ns = Duration::from_nanos(st.ns);
            let others = slept[s].iter().sum::<Duration>() - slept[s][s];
            assert!(ns >= slept[s][s], "{stage:?} charged {ns:?}");
            assert!(
                ns + others <= wall[s],
                "{stage:?} charged {ns:?} beside {others:?} of other stages in a {:?} tick",
                wall[s]
            );
            assert!(p.stage_stats(stage).unwrap().1 <= ns);
        }
        // The tick timed whole is one interval holding all six sleeps.
        let whole = &p.stages[STAGE_COUNT];
        assert_eq!((whole.sampled, whole.intervals), (1, 1));
        let ns = Duration::from_nanos(whole.ns);
        assert!(ns >= slept[STAGE_COUNT].iter().sum() && ns <= wall[STAGE_COUNT]);
    }

    #[test]
    fn nested_stages_are_exclusive() {
        install(Profiler::new());
        let mut wall = [Duration::ZERO; 3];
        let mut slept = [Duration::ZERO; 3];
        // The first stride times the trace cache on tick 1 and the
        // optimizer on tick 2.
        for t in 0..3 {
            let tick = Instant::now();
            begin_tick(Stage::TraceCache);
            enter(Stage::Optimizer);
            let nap = Instant::now();
            std::thread::sleep(Duration::from_millis(3));
            slept[t] = nap.elapsed();
            enter(Stage::TraceCache);
            end_tick();
            wall[t] = tick.elapsed();
        }
        let p = take().unwrap();
        let (_, outer, _) = p.stage_stats(Stage::TraceCache).unwrap();
        let (_, inner, _) = p.stage_stats(Stage::Optimizer).unwrap();
        // The sleep counts once, under the inner stage; each row is no
        // more than the wall time of its tick, less the sleep for the
        // outer stage.
        assert!(inner >= Duration::from_millis(3), "inner {inner:?}");
        assert!(
            outer < inner,
            "outer {outer:?} must exclude inner {inner:?}"
        );
        assert!(
            outer + slept[1] <= wall[1],
            "{outer:?} + the {:?} sleep exceeds the tick's {:?}",
            slept[1],
            wall[1]
        );
        assert!(
            inner <= wall[2],
            "{inner:?} exceeds the tick's {:?}",
            wall[2]
        );
    }

    #[test]
    fn absorb_worker_merges_stages_and_stacks() {
        install(Profiler::new());
        begin_tick(Stage::Frontend);
        end_tick();
        {
            let _s = scope("work");
            std::thread::sleep(Duration::from_millis(1));
        }
        let shard = take().unwrap();

        let mut base = Profiler::new();
        base.absorb_worker(2, shard);
        assert!(base.stage_stats(Stage::Frontend).is_some());
        assert!(base.collapsed().contains("work "));
        assert_eq!(base.worker_section(2, "work").unwrap().0, 1);
    }
}
