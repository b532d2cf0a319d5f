//! Outside-in tracing: spans recorded by the benchmark around each call it
//! makes into a layer of the program, kept in memory and written out as a
//! Chrome trace when the run ends.
//!
//! A span has a name (`layer.call`), a start and an end on the run's
//! monotonic clock, the span that was open when it began (its parent), and
//! the run or request it belongs to. A layer's self time is its spans'
//! durations minus the part of each interval its child spans cover.
//!
//! Every call is timed even when recording is off, because operation
//! latencies are end-to-end metrics; only the span bookkeeping is skipped.

use parrot_telemetry::json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `core.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// The pass, operation or request this span belongs to.
    pub id: u64,
    /// The benchmark thread that recorded it.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span that has begun and not yet ended.
#[must_use = "end the span with Recorder::end"]
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

/// The spans of one benchmark thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for `thread`, timing against `epoch`. A disabled
    /// recorder still times calls but keeps no spans.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Recorder {
        Recorder {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start or stop keeping spans; spans already open still end normally.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// A recorder for another thread of the same run, sharing the epoch.
    pub fn fork(&self, thread: u32) -> Recorder {
        Recorder::new(self.enabled, self.epoch, thread)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Begin span `name`, nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            let at = self.ns(start);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: self.open.last().copied(),
                id,
                thread: self.thread,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start }
    }

    /// End a span and return its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(i) = open.idx {
            self.spans[i].end_ns = self.ns(end);
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans must end in reverse order of beginning");
        }
        end.saturating_duration_since(open.start)
    }

    /// Run `f` inside span `name`; returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name, id);
        let out = f();
        (out, self.end(open))
    }

    /// Append another thread's spans (its parent links stay within its own
    /// spans).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Calls, total and self nanoseconds per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, o) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += o;
    }
    out
}

/// Self nanoseconds per layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, o) in spans.iter().zip(own) {
        *out.entry(s.layer()).or_default() += o;
    }
    out
}

/// The spans as a Chrome trace-event document (complete `X` events,
/// microsecond timestamps), with `other` under `otherData`.
pub fn chrome_trace(spans: &[Span], other: Value) -> Value {
    let own = self_times(spans);
    let events = spans
        .iter()
        .zip(&own)
        .map(|(s, o)| {
            let parent = s
                .parent
                .map_or(Value::Null, |p| Value::Str(spans[p].name.to_string()));
            Value::obj([
                ("name", Value::Str(s.name.to_string())),
                ("cat", Value::Str(s.layer().to_string())),
                ("ph", Value::Str("X".to_string())),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Value::int(1)),
                ("tid", Value::int(u64::from(s.thread))),
                (
                    "args",
                    Value::obj([
                        ("id", Value::int(s.id)),
                        ("parent", parent),
                        ("self_us", Value::Num(*o as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    Value::obj([
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
        ("otherData", other),
    ])
}
