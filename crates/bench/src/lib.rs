//! # parrot-bench
//!
//! The experiment harness: runs every (model × application) simulation of
//! the study, caches results, aggregates per-suite geometric means, and
//! formats the tables behind every figure of the paper's evaluation (§4).
//!
//! Every figure and table is one entry of [`figures::FIGURES`], rendered
//! from the shared result cache: `parrot fig <id>` prints one entry, and
//! `reproduce` renders them all into EXPERIMENTS.md.
//!
//! ```no_run
//! use parrot_bench::{ResultSet, SweepConfig};
//! use parrot_core::Model;
//!
//! // Cached, or a parallel sweep, per PARROT_INSTS / PARROT_JOBS.
//! let set = ResultSet::load_or_run_with(&SweepConfig::from_env());
//! let gcc = set.get(Model::TON, "gcc");
//! println!("TON on gcc: IPC {:.2}", gcc.ipc());
//! ```

#![warn(missing_docs)]

use parrot_core::{
    build_plan, FaultKind, FaultPlan, Model, SamplePlan, SampleWarmth, SamplingSpec, SimReport,
    SimRequest,
};
use parrot_energy::metrics::{cmpw_relative, geo_mean};
use parrot_telemetry::json::Value;
use parrot_telemetry::shard::{tick_installed_progress, SweepSession};
use parrot_workloads::tracefmt::{capture, TraceError, TraceFile, DEFAULT_SLICE_INSTS, FILE_EXT};
use parrot_workloads::{all_apps, AppProfile, Suite, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

pub mod cips;
pub mod cli;
pub mod figures;
pub mod microbench;
pub mod sample;
pub mod serve_backend;
pub mod soak;
pub mod xval;

/// Default committed-instruction budget per (model, app) run. Override with
/// `PARROT_INSTS`.
pub const DEFAULT_INSTS: u64 = parrot_core::DEFAULT_INSTS;

/// Schema version of the sweep result-cache file. Bump on any change to the
/// cache layout or to what the fingerprint covers. (v5: the trace-cache
/// eviction flag left the model configurations, so their `Debug` output —
/// and with it every fingerprint — changed; the reports did not.)
pub const CACHE_VERSION: u64 = 5;

/// The instruction budget in effect ([`SweepConfig::from_env`]).
pub fn insts_budget() -> u64 {
    SweepConfig::from_env().insts_value()
}

/// `--jobs` override; 0 means "not set".
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the sweep worker count (the `--jobs N` flag). 0 restores the
/// default.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// Sweep worker threads in effect ([`SweepConfig::from_env`]): `--jobs N`
/// if given, else `PARROT_JOBS`, else
/// [`std::thread::available_parallelism`] (capped at 16).
pub fn jobs() -> usize {
    SweepConfig::from_env().jobs_value()
}

/// Everything one sweep depends on: instruction budget, worker count,
/// optional fault plan, and where the result cache lives.
///
/// This is the single home of the `PARROT_INSTS` / `PARROT_JOBS`
/// environment parsing ([`SweepConfig::from_env`]) and of the cache
/// fingerprint ([`SweepConfig::fingerprint`]). Fault-free configurations
/// fingerprint identically to the pre-`SweepConfig` harness, so existing
/// cache files remain valid; arming a [`FaultPlan`] extends the
/// fingerprint with the plan's cache tag and lands in a separate file.
///
/// ```no_run
/// use parrot_bench::{ResultSet, SweepConfig};
/// use parrot_core::FaultPlan;
///
/// let clean = ResultSet::load_or_run_with(&SweepConfig::from_env());
/// let faulted = ResultSet::run_sweep_with(
///     &SweepConfig::new().insts(50_000).faults(FaultPlan::new(42).rate(0.05)),
/// );
/// let _ = (clean, faulted);
/// ```
#[derive(Clone, Debug)]
pub struct SweepConfig {
    insts: u64,
    jobs: usize,
    faults: Option<FaultPlan>,
    cache_dir: Option<PathBuf>,
    replay_dir: Option<PathBuf>,
    sampling: Option<SamplingSpec>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepConfig {
    /// The default configuration: [`DEFAULT_INSTS`], automatic worker
    /// count, no faults, cache under `results/`.
    pub fn new() -> SweepConfig {
        SweepConfig {
            insts: DEFAULT_INSTS,
            jobs: 0,
            faults: None,
            cache_dir: None,
            replay_dir: None,
            sampling: None,
        }
    }

    /// The configuration from the environment: `PARROT_INSTS` sets the
    /// budget, the `--jobs` flag (via [`set_jobs`]) or `PARROT_JOBS` sets
    /// the worker count. This is the only place those variables are
    /// parsed.
    pub fn from_env() -> SweepConfig {
        let mut cfg = Self::new();
        if let Some(n) = std::env::var("PARROT_INSTS")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            cfg.insts = n;
        }
        let j = JOBS.load(Ordering::Relaxed);
        if j > 0 {
            cfg.jobs = j;
        } else if let Some(n) = std::env::var("PARROT_JOBS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n: &usize| n > 0)
        {
            cfg.jobs = n;
        }
        cfg
    }

    /// Set the committed-instruction budget per (model, app) run.
    pub fn insts(mut self, insts: u64) -> SweepConfig {
        self.insts = insts;
        self
    }

    /// Set the worker-thread count; 0 means "automatic"
    /// ([`std::thread::available_parallelism`], capped at 16).
    pub fn jobs(mut self, jobs: usize) -> SweepConfig {
        self.jobs = jobs;
        self
    }

    /// Arm deterministic fault injection for every run of the sweep.
    pub fn faults(mut self, plan: FaultPlan) -> SweepConfig {
        self.faults = Some(plan);
        self
    }

    /// Run every simulation of the sweep under SimPoint-style phase
    /// sampling ([`SimRequest::sampled`]): each app's committed stream is
    /// captured once, sliced into `spec.interval`-instruction intervals,
    /// clustered on basic-block frequency vectors, and only one weighted
    /// representative per cluster is simulated per model. The spec's
    /// [`SamplingSpec::cache_tag`] is folded into
    /// [`SweepConfig::fingerprint`], so sampled sweeps can never alias
    /// full-simulation cache entries. Incompatible with
    /// [`SweepConfig::faults`] (the runner panics).
    pub fn sampled(mut self, spec: SamplingSpec) -> SweepConfig {
        self.sampling = Some(spec);
        self
    }

    /// The armed sampling spec, if any.
    pub fn sampling_value(&self) -> Option<&SamplingSpec> {
        self.sampling.as_ref()
    }

    /// Override the directory the result cache is written to (default:
    /// `results/` under the repository root).
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> SweepConfig {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Drive every run of the sweep from captured traces instead of the
    /// live engine: the directory must hold one `<app>.ptrace` per
    /// application (the `parrot capture --all` corpus convention), each
    /// captured from the current workload definitions with at least the
    /// sweep's instruction budget. The per-file content checksums are
    /// folded into [`SweepConfig::fingerprint`], so replayed sweeps can
    /// never alias live-engine cache entries.
    pub fn replay_dir(mut self, dir: impl Into<PathBuf>) -> SweepConfig {
        self.replay_dir = Some(dir.into());
        self
    }

    /// The replay corpus directory, if one is armed.
    pub fn replay_dir_value(&self) -> Option<&Path> {
        self.replay_dir.as_deref()
    }

    /// The committed-instruction budget in effect.
    pub fn insts_value(&self) -> u64 {
        self.insts
    }

    /// The effective worker count (0 resolved to the automatic default).
    pub fn jobs_value(&self) -> usize {
        if self.jobs > 0 {
            return self.jobs;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16)
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The canonical serialized form of this configuration: a
    /// deterministic, versioned JSON value carrying exactly the knobs that
    /// determine the sweep's report bytes. The CLI and `parrot serve`
    /// share this form — a sweep job submitted over HTTP and the same
    /// sweep run from the command line canonicalize identically, which is
    /// what lets the serve result cache treat them as the same work.
    ///
    /// Worker count, cache/replay directories, and prebuilt handles are
    /// deliberately absent: they change scheduling or where bytes come
    /// from, never what the reports say. Seeds are hex strings because
    /// they use all 64 bits and a JSON number only carries 53.
    pub fn canonical(&self) -> Value {
        let mut fields = vec![
            ("v", Value::int(parrot_core::CANONICAL_VERSION)),
            ("insts", Value::int(self.insts)),
        ];
        if let Some(plan) = &self.faults {
            let kinds = FaultKind::ALL
                .iter()
                .filter(|k| plan.enabled(**k))
                .map(|k| Value::Str(k.name().to_string()))
                .collect();
            fields.push((
                "faults",
                Value::obj([
                    ("seed", Value::Str(format!("{:#x}", plan.seed()))),
                    ("rate", Value::Num(plan.rate_value())),
                    ("kinds", Value::Arr(kinds)),
                ]),
            ));
        }
        if let Some(spec) = &self.sampling {
            fields.push((
                "sampling",
                Value::obj([
                    ("interval", Value::int(spec.interval)),
                    ("warmup", Value::int(spec.warmup)),
                    ("max_k", Value::int(spec.max_k as u64)),
                    ("seed", Value::Str(format!("{:#x}", spec.seed))),
                ]),
            ));
        }
        Value::obj(fields)
    }

    /// The cache fingerprint of this configuration. Equal to
    /// [`config_fingerprint`] when no faults are armed (existing cache
    /// files stay valid — no `CACHE_VERSION` bump); a fault plan folds its
    /// [`FaultPlan::cache_tag`] on top.
    pub fn fingerprint(&self) -> u64 {
        let base = config_fingerprint(self.insts);
        let base = match &self.faults {
            None => base,
            Some(p) => fnv1a(base, p.cache_tag().as_bytes()),
        };
        let base = match &self.sampling {
            None => base,
            Some(spec) => fnv1a(base, spec.cache_tag().as_bytes()),
        };
        match &self.replay_dir {
            None => base,
            Some(dir) => {
                // Fold the corpus identity: path plus the content checksum
                // of every per-app capture (a missing or unreadable file
                // folds a distinct marker; the sweep itself will then fail
                // with the structured error).
                let mut h = fnv1a(base, b"replay;");
                h = fnv1a(h, dir.to_string_lossy().as_bytes());
                for a in all_apps() {
                    h = fnv1a(h, a.name.as_bytes());
                    h = match TraceFile::open(corpus_file(dir, a.name)) {
                        Ok(t) => fnv1a(h, &t.file_fp().to_le_bytes()),
                        Err(_) => fnv1a(h, b"<unreadable>"),
                    };
                }
                h
            }
        }
    }

    /// Where the result cache for this configuration lives.
    pub fn cache_file(&self) -> PathBuf {
        let name = format!("sweep_{}_{:016x}.json", self.insts, self.fingerprint());
        match &self.cache_dir {
            Some(d) => d.join(name),
            None => PathBuf::from(env_root()).join("results").join(name),
        }
    }

    fn request(&self, model: Model) -> SimRequest {
        let mut req = SimRequest::model(model).insts(self.insts);
        if let Some(p) = &self.faults {
            req = req.faults(p.clone());
        }
        req
    }

    /// Run every model of [`Model::ALL`] on one application, reports in
    /// that order. This is the one per-app runner: the sweep workers,
    /// `parrot sweep APP`, serve `sweep` jobs and `parrot sample` all call
    /// it. Under phase sampling the committed stream (the armed corpus
    /// file, or an in-memory capture), the [`SamplePlan`] and the
    /// functional-warming snapshots are built once and shared by every
    /// model; the plan is returned alongside the reports. Ticks the calling
    /// thread's installed progress handle once per model.
    ///
    /// # Panics
    ///
    /// Panics if the armed corpus cannot serve `wl`, or if the capture or
    /// the sampling plan fails.
    pub fn run_app(&self, wl: &Workload) -> (Vec<SimReport>, Option<Arc<SamplePlan>>) {
        let (insts, name) = (self.insts, wl.profile.name);
        let mut replay = self
            .replay_for(wl)
            .unwrap_or_else(|e| panic!("replay corpus unusable for {name}: {e}"));
        let shared = self.sampling.as_ref().map(|spec| {
            let trace = replay.get_or_insert_with(|| {
                Arc::new(
                    capture(wl, insts, DEFAULT_SLICE_INSTS)
                        .unwrap_or_else(|e| panic!("capture failed for {name}: {e}")),
                )
            });
            let plan = Arc::new(
                build_plan(trace, wl, insts, spec)
                    .unwrap_or_else(|e| panic!("sampling plan failed for {name}: {e}")),
            );
            // One warming pass per distinct bpred config covers the zoo.
            let cfgs: Vec<_> = Model::ALL.iter().map(|m| m.config()).collect();
            let warmth = Arc::new(SampleWarmth::build(trace, wl, insts, &plan, spec, &cfgs));
            (plan, warmth)
        });
        let reports = Model::ALL
            .iter()
            .map(|&m| {
                let mut req = self.request(m);
                if let Some(t) = &replay {
                    req = req.replay(Arc::clone(t));
                }
                if let Some((p, w)) = &shared {
                    req = req.sampled_plan(Arc::clone(p)).sample_warmth(Arc::clone(w));
                }
                let report = req.run(wl);
                tick_installed_progress();
                report
            })
            .collect();
        (reports, shared.map(|(plan, _)| plan))
    }

    /// Load and validate the replay capture for `wl`, when a corpus is
    /// armed: the file must parse, match the workload, and cover the
    /// instruction budget.
    fn replay_for(&self, wl: &Workload) -> Result<Option<Arc<TraceFile>>, TraceError> {
        let Some(dir) = &self.replay_dir else {
            return Ok(None);
        };
        let trace = TraceFile::open(corpus_file(dir, wl.profile.name))?;
        trace.check_source(wl)?;
        if trace.inst_count() < self.insts {
            return Err(TraceError::TooShort {
                captured: trace.inst_count(),
                requested: self.insts,
            });
        }
        Ok(Some(Arc::new(trace)))
    }
}

/// All results of a full sweep, keyed by (model, app).
pub struct ResultSet {
    /// Committed-instruction budget every run was simulated with.
    pub insts: u64,
    runs: BTreeMap<(String, String), SimReport>,
}

impl ResultSet {
    /// Load the cached sweep for the environment's budget and the current
    /// configuration fingerprint, or run it (in parallel) and cache it
    /// under `results/`. Equivalent to
    /// `load_or_run_with(&SweepConfig::from_env())`.
    pub fn load_or_run() -> ResultSet {
        Self::load_or_run_with(&SweepConfig::from_env())
    }

    /// Load the cached sweep matching `cfg`'s fingerprint, or run it (in
    /// parallel) and cache it at [`SweepConfig::cache_file`].
    pub fn load_or_run_with(cfg: &SweepConfig) -> ResultSet {
        let insts = cfg.insts_value();
        let fp = cfg.fingerprint();
        let path = cfg.cache_file();
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Some(runs) = parse_report_cache(&text, fp) {
                let map = runs
                    .into_iter()
                    .map(|r| ((r.model.clone(), r.app.clone()), r))
                    .collect();
                return ResultSet { insts, runs: map };
            }
        }
        parrot_telemetry::status!(
            "no cached sweep at {} — running {} simulations on {} workers",
            path.display(),
            all_apps().len() * Model::ALL.len(),
            cfg.jobs_value()
        );
        let set = Self::run_sweep_with(cfg);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let doc = Value::obj([
            ("version", Value::int(CACHE_VERSION)),
            ("fingerprint", Value::Str(format!("{fp:016x}"))),
            ("insts", Value::int(insts)),
            (
                "runs",
                Value::Arr(set.runs.values().map(SimReport::to_json).collect()),
            ),
        ]);
        let _ = std::fs::write(&path, doc.to_json_pretty());
        set
    }

    /// Run the full (model × app) sweep described by `cfg` on
    /// [`SweepConfig::jobs_value`] worker threads.
    ///
    /// The scheduler is a small work-stealing pool: applications form one
    /// shared queue and every idle worker steals the next unclaimed one, so
    /// a slow app never serializes the tail. Results land in a `BTreeMap`
    /// keyed by (model, app), making the result order deterministic
    /// regardless of completion order.
    ///
    /// Telemetry sinks are thread-local; when any are installed on the
    /// calling thread, they are sharded per work item across the workers
    /// via [`SweepSession`] and deterministically merged (and reinstalled
    /// on the calling thread) after the join — so
    /// `--trace-out`/`--metrics-out`/`--profile` capture parallel sweeps
    /// without a serial tax.
    pub fn run_sweep_with(cfg: &SweepConfig) -> ResultSet {
        let insts = cfg.insts_value();
        let apps = all_apps();
        let session = SweepSession::begin();
        let workers = cfg.jobs_value().clamp(1, apps.len());
        let next = AtomicUsize::new(0);
        let results: Mutex<BTreeMap<(String, String), SimReport>> = Mutex::new(BTreeMap::new());
        std::thread::scope(|s| {
            for w in 0..workers as u32 {
                let (session, next, results, apps) = (session.as_ref(), &next, &results, &apps);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= apps.len() {
                        break;
                    }
                    if let Some(sess) = session {
                        sess.install_item();
                    }
                    let (local, _) = cfg.run_app(&Workload::build(&apps[i]));
                    if let Some(sess) = session {
                        sess.collect_item(i, w);
                    }
                    let mut map = results.lock().expect("results lock");
                    for r in local {
                        map.insert((r.model.clone(), r.app.clone()), r);
                    }
                    drop(map);
                    parrot_telemetry::verbose!(
                        "swept {} ({} models)",
                        apps[i].name,
                        Model::ALL.len()
                    );
                });
            }
        });
        if let Some(sess) = session {
            sess.finish();
        }
        ResultSet {
            insts,
            runs: results.into_inner().expect("results"),
        }
    }

    /// The report for (model, app).
    pub fn get(&self, model: Model, app: &str) -> &SimReport {
        self.runs
            .get(&(model.name().to_string(), app.to_string()))
            .unwrap_or_else(|| panic!("missing run {model}/{app}"))
    }

    /// All application profiles in suite order.
    pub fn apps(&self) -> Vec<AppProfile> {
        all_apps()
    }

    /// The generic suite aggregator behind every per-suite figure: the
    /// geometric mean of a per-application value over a suite (or over all
    /// apps when `suite` is `None`). [`ResultSet::suite_ratio`],
    /// [`ResultSet::suite_metric`] and [`ResultSet::suite_cmpw`] are thin
    /// wrappers.
    pub fn suite_agg(&self, suite: Option<Suite>, f: impl Fn(&AppProfile) -> f64) -> f64 {
        let vals: Vec<f64> = self
            .apps()
            .iter()
            .filter(|a| suite.is_none_or(|s| a.suite == s))
            .map(f)
            .collect();
        geo_mean(&vals)
    }

    /// Per-app ratio `f(model run) / f(base run)`, geometrically averaged
    /// over a suite (or all apps when `suite` is `None`).
    pub fn suite_ratio(
        &self,
        suite: Option<Suite>,
        model: Model,
        base: Model,
        f: impl Fn(&SimReport) -> f64,
    ) -> f64 {
        self.suite_agg(suite, |a| {
            let num = f(self.get(model, a.name));
            let den = f(self.get(base, a.name));
            if den == 0.0 {
                1.0
            } else {
                num / den
            }
        })
    }

    /// Geometric mean of a per-run metric over a suite (or all apps).
    pub fn suite_metric(
        &self,
        suite: Option<Suite>,
        model: Model,
        f: impl Fn(&SimReport) -> f64,
    ) -> f64 {
        self.suite_agg(suite, |a| f(self.get(model, a.name)))
    }

    /// CMPW of `model` relative to `base`, suite geomean.
    pub fn suite_cmpw(&self, suite: Option<Suite>, model: Model, base: Model) -> f64 {
        self.suite_agg(suite, |a| {
            cmpw_relative(
                &self.get(base, a.name).summary(),
                &self.get(model, a.name).summary(),
            )
        })
    }
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 64-bit FNV-1a fingerprint of everything a fault-free sweep result
/// depends on: the cache schema version, the instruction budget, every
/// machine-model configuration, and every workload profile. Editing any of
/// those changes the fingerprint, so stale caches can never be served
/// silently. ([`SweepConfig::fingerprint`] additionally folds in the fault
/// plan, when one is armed.)
pub fn config_fingerprint(insts: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv1a(h, format!("v{CACHE_VERSION};insts={insts}").as_bytes());
    for m in Model::ALL {
        h = fnv1a(h, format!("{:?}", m.config()).as_bytes());
    }
    for a in all_apps() {
        h = fnv1a(h, format!("{a:?}").as_bytes());
    }
    h
}

/// Parse a cached sweep file: a versioned object whose `runs` member is the
/// JSON array of [`SimReport`]s. `None` if the file is malformed, from an
/// incompatible schema version, or carries a different configuration
/// fingerprint — the caller then re-runs the sweep and overwrites the
/// cache.
fn parse_report_cache(text: &str, fp: u64) -> Option<Vec<SimReport>> {
    let v = parrot_telemetry::json::parse(text).ok()?;
    if v.get("version").as_u64()? != CACHE_VERSION {
        return None;
    }
    if v.get("fingerprint").as_str()? != format!("{fp:016x}") {
        return None;
    }
    v.get("runs")
        .as_arr()?
        .iter()
        .map(SimReport::from_json)
        .collect()
}

fn env_root() -> String {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| format!("{d}/../.."))
        .unwrap_or_else(|_| ".".to_string())
}

/// Schema version stamped into every `results/*.json` artifact
/// (`soak.json`, `sampling.json`, `sweep_timings.json`,
/// `trace_replay.json`). Bump when an artifact's layout changes;
/// loaders — and therefore `reproduce` — refuse mismatched files
/// instead of misreading them.
pub const RESULTS_SCHEMA_VERSION: u64 = 1;

/// Check an artifact's `schema_version` stamp. `None` (with a clear
/// message on stderr) when the file was written by a different schema —
/// the caller treats it as absent and the regeneration hint applies.
pub fn check_results_schema(v: &Value, what: &str) -> Option<()> {
    match v.get("schema_version").as_u64() {
        Some(RESULTS_SCHEMA_VERSION) => Some(()),
        found => {
            eprintln!(
                "{what}: schema_version {} does not match this build's {RESULTS_SCHEMA_VERSION} — \
                 refusing to read it; regenerate the artifact",
                found.map_or("missing".to_string(), |n| n.to_string()),
            );
            None
        }
    }
}

/// Where the `sweepbench` binary records measured sweep wall-clock numbers.
pub fn timings_path() -> PathBuf {
    PathBuf::from(env_root()).join("results/sweep_timings.json")
}

/// The conventional capture-corpus directory: `corpus/` under the
/// repository root (`parrot capture --all` writes here, `parrot replay APP`
/// and `parrot sweep --replay-dir` read from it).
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env_root()).join("corpus")
}

/// The conventional capture path for one application inside `dir`:
/// `<dir>/<app>.ptrace`.
pub fn corpus_file(dir: &Path, app: &str) -> PathBuf {
    dir.join(format!("{app}.{FILE_EXT}"))
}

/// Where the `tracebench` binary records replay-vs-generate measurements.
pub fn trace_timings_path() -> PathBuf {
    PathBuf::from(env_root()).join("results/trace_replay.json")
}

/// Markdown table of the per-app capture sizes and replay-vs-generate
/// wall-clock measurements recorded by the `tracebench` binary, or `None`
/// when no record exists yet. Embedded into EXPERIMENTS.md by `reproduce`
/// so the replay-speedup claim stays re-checkable.
pub fn trace_replay_markdown() -> Option<String> {
    let text = std::fs::read_to_string(trace_timings_path()).ok()?;
    let v = parrot_telemetry::json::parse(&text).ok()?;
    check_results_schema(&v, "results/trace_replay.json")?;
    let insts = v.get("insts").as_u64()?;
    let rows = v.get("apps").as_arr()?;
    let mut md = String::new();
    use std::fmt::Write as _;
    writeln!(
        md,
        "Measured with `cargo run --release -p parrot-bench --bin tracebench`\n\
         ({insts} committed instructions per app; every replayed stream and\n\
         TOW report verified byte-identical to the live engine before timing;\n\
         re-run it to refresh):\n"
    )
    .ok()?;
    writeln!(
        md,
        "| app | capture size | bits/inst | generate | replay | stream speedup | sim speedup |"
    )
    .ok()?;
    writeln!(md, "|---|---|---|---|---|---|---|").ok()?;
    let mut bits = Vec::new();
    let mut stream_sp = Vec::new();
    let mut sim_sp = Vec::new();
    for r in rows {
        let app = r.get("app").as_str()?;
        let bytes = r.get("bytes").as_u64()?;
        let bpi = r.get("bits_per_inst").as_f64()?;
        let gen_ms = r.get("generate_ms").as_f64()?;
        let rep_ms = r.get("replay_ms").as_f64()?;
        let sim_gen_ms = r.get("sim_generate_ms").as_f64()?;
        let sim_rep_ms = r.get("sim_replay_ms").as_f64()?;
        let ssp = if rep_ms > 0.0 { gen_ms / rep_ms } else { 0.0 };
        let msp = if sim_rep_ms > 0.0 {
            sim_gen_ms / sim_rep_ms
        } else {
            0.0
        };
        bits.push(bpi);
        stream_sp.push(ssp);
        sim_sp.push(msp);
        writeln!(
            md,
            "| {app} | {:.1} KiB | {bpi:.2} | {gen_ms:.2} ms | {rep_ms:.2} ms | {ssp:.2}× | {msp:.2}× |",
            bytes as f64 / 1024.0
        )
        .ok()?;
    }
    if !bits.is_empty() {
        writeln!(
            md,
            "| **geomean** | | **{:.2}** | | | **{:.2}×** | **{:.2}×** |",
            geo_mean(&bits),
            geo_mean(&stream_sp),
            geo_mean(&sim_sp)
        )
        .ok()?;
    }
    Some(md)
}

/// Markdown table of the sweep wall-clock timings recorded by the
/// `sweepbench` binary (serial vs parallel, telemetry sinks off/on), or
/// `None` when no record exists yet. Embedded into EXPERIMENTS.md by
/// `reproduce` so the parallel-speedup claim stays re-checkable.
pub fn sweep_timing_markdown() -> Option<String> {
    let text = std::fs::read_to_string(timings_path()).ok()?;
    let v = parrot_telemetry::json::parse(&text).ok()?;
    check_results_schema(&v, "results/sweep_timings.json")?;
    let insts = v.get("insts").as_u64()?;
    let rows = v.get("timings").as_arr()?;
    let mut md = String::new();
    use std::fmt::Write as _;
    let host = v
        .get("host_parallelism")
        .as_u64()
        .map(|n| format!(" on a host with {n} detected core(s)"))
        .unwrap_or_default();
    let used = v
        .get("jobs_used")
        .as_u64()
        .map(|n| format!(", parallel rows on {n} worker(s)"))
        .unwrap_or_default();
    let reps = v
        .get("reps")
        .as_u64()
        .filter(|&r| r > 1)
        .map(|r| format!(", best of {r}"))
        .unwrap_or_default();
    writeln!(
        md,
        "Measured with `cargo run --release -p parrot-bench --bin sweepbench`\n\
         ({} runs at {insts} committed instructions each{host}{used}{reps};\n\
         re-run it to refresh):\n",
        all_apps().len() * Model::ALL.len()
    )
    .ok()?;
    writeln!(md, "| configuration | jobs | wall-clock | vs serial |").ok()?;
    writeln!(md, "|---|---|---|---|").ok()?;
    let serial_no_sinks = rows
        .iter()
        .find(|r| r.get("jobs").as_u64() == Some(1) && r.get("sinks").as_bool() == Some(false))
        .and_then(|r| r.get("secs").as_f64());
    let serial_sinks = rows
        .iter()
        .find(|r| r.get("jobs").as_u64() == Some(1) && r.get("sinks").as_bool() == Some(true))
        .and_then(|r| r.get("secs").as_f64());
    for r in rows {
        let label = r.get("label").as_str()?;
        let jobs = r.get("jobs").as_u64()?;
        let secs = r.get("secs").as_f64()?;
        let base = if r.get("sinks").as_bool() == Some(true) {
            serial_sinks
        } else {
            serial_no_sinks
        };
        let speedup = base
            .filter(|b| secs > 0.0 && *b > 0.0)
            .map(|b| format!("{:.2}×", b / secs))
            .unwrap_or_else(|| "—".to_string());
        writeln!(md, "| {label} | {jobs} | {secs:.2} s | {speedup} |").ok()?;
    }
    Some(md)
}

/// Column groups used by the per-suite figures: each suite plus the
/// overall mean, plus the paper's three "killer applications".
pub fn groups() -> Vec<(String, Option<Suite>)> {
    let mut g: Vec<(String, Option<Suite>)> = Suite::ALL
        .iter()
        .map(|s| (s.label().to_string(), Some(*s)))
        .collect();
    g.push(("Mean".to_string(), None));
    g
}

/// Format a percent-delta (`ratio` relative to 1.0).
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_deltas() {
        assert_eq!(pct(1.0), "+0.0%");
        assert_eq!(pct(1.17), "+17.0%");
        assert_eq!(pct(0.82), "-18.0%");
    }

    #[test]
    fn groups_cover_all_suites_plus_mean() {
        let g = groups();
        assert_eq!(g.len(), Suite::ALL.len() + 1);
        assert_eq!(g.last().expect("mean").0, "Mean");
        assert!(g.last().expect("mean").1.is_none());
    }

    #[test]
    fn insts_budget_reads_env() {
        // Default without the variable (other tests may set it; only check
        // that parsing falls back sanely).
        let b = insts_budget();
        assert!(b > 0);
    }

    #[test]
    fn sweep_with_sinks_installed_is_captured() {
        parrot_telemetry::metrics::install(parrot_telemetry::metrics::MetricsHub::new(1_000));
        let set = ResultSet::run_sweep_with(&SweepConfig::new().insts(2_000).jobs(4));
        let hub = parrot_telemetry::metrics::take().expect("merged hub reinstalled");
        assert!(hub.rows() > 0, "parallel sweep recorded metric snapshots");
        let jsonl = hub.to_jsonl();
        let last = jsonl.lines().last().expect("rows present");
        let row = parrot_telemetry::json::parse(last).expect("final row parses");
        assert_eq!(
            row.get("run").as_str(),
            Some(parrot_telemetry::shard::MERGED_RUN_LABEL),
            "final row is the merged sweep total"
        );
        assert!(!set.runs.is_empty());
    }

    #[test]
    fn fingerprint_covers_budget_and_version() {
        assert_eq!(config_fingerprint(2_000), config_fingerprint(2_000));
        assert_ne!(config_fingerprint(2_000), config_fingerprint(3_000));
    }

    #[test]
    fn cache_rejects_wrong_version_or_fingerprint() {
        let fp = config_fingerprint(1_000);
        let doc = Value::obj([
            ("version", Value::int(CACHE_VERSION)),
            ("fingerprint", Value::Str(format!("{fp:016x}"))),
            ("insts", Value::int(1_000)),
            ("runs", Value::Arr(vec![])),
        ])
        .to_json();
        assert!(parse_report_cache(&doc, fp).is_some());
        assert!(
            parse_report_cache(&doc, fp ^ 1).is_none(),
            "fingerprint mismatch must invalidate the cache"
        );
        let old = Value::obj([
            ("version", Value::int(CACHE_VERSION - 1)),
            ("fingerprint", Value::Str(format!("{fp:016x}"))),
            ("runs", Value::Arr(vec![])),
        ])
        .to_json();
        assert!(parse_report_cache(&old, fp).is_none(), "old schema version");
        // The pre-versioning format (a bare JSON array) is also stale.
        assert!(parse_report_cache("[]", fp).is_none());
    }

    #[test]
    fn sweep_runs_and_aggregates_on_tiny_budget() {
        let set = ResultSet::run_sweep_with(&SweepConfig::new().insts(2_000));
        let r = set.get(Model::N, "gcc");
        assert_eq!(r.insts, 2_000);
        let ratio = set.suite_ratio(None, Model::N, Model::N, |r| r.ipc());
        assert!((ratio - 1.0).abs() < 1e-12, "self-ratio is 1");
        let cmpw = set.suite_cmpw(Some(Suite::SpecFp), Model::N, Model::N);
        assert!((cmpw - 1.0).abs() < 1e-12);
        let agg = set.suite_agg(None, |a| set.get(Model::N, a.name).ipc());
        let metric = set.suite_metric(None, Model::N, |r| r.ipc());
        assert_eq!(agg.to_bits(), metric.to_bits(), "wrapper parity is exact");
    }

    #[test]
    fn fault_free_sweep_config_fingerprints_like_the_legacy_harness() {
        // The existing cache files under results/ must stay valid: a
        // fault-free SweepConfig fingerprints exactly like the old
        // (insts-only) path did. No CACHE_VERSION bump.
        let cfg = SweepConfig::new().insts(DEFAULT_INSTS);
        assert_eq!(cfg.fingerprint(), config_fingerprint(DEFAULT_INSTS));
        assert!(cfg.cache_file().to_string_lossy().ends_with(&format!(
            "results/sweep_{}_{:016x}.json",
            DEFAULT_INSTS,
            config_fingerprint(DEFAULT_INSTS)
        )));
        // Arming faults changes the fingerprint (separate cache file),
        // and different plans get different files.
        let a = SweepConfig::new().faults(FaultPlan::new(1));
        let b = SweepConfig::new().faults(FaultPlan::new(2));
        assert_ne!(a.fingerprint(), SweepConfig::new().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Phase sampling is fingerprinted: a sampled sweep can never be
        // served a full-simulation cache file (or vice versa), and every
        // spec field lands in a distinct file.
        let spec = SamplingSpec::default();
        let sa = SweepConfig::new().sampled(spec.clone());
        assert_eq!(sa.sampling_value(), Some(&spec));
        assert_ne!(sa.fingerprint(), SweepConfig::new().fingerprint());
        assert_ne!(sa.fingerprint(), a.fingerprint());
        let sb = SweepConfig::new().sampled(SamplingSpec {
            interval: spec.interval / 2,
            ..spec.clone()
        });
        assert_ne!(sa.fingerprint(), sb.fingerprint());
    }

    #[test]
    fn load_or_run_with_writes_and_reloads_the_cache_file() {
        let dir = std::env::temp_dir().join(format!("parrot_sweepcfg_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SweepConfig::new().insts(1_000).jobs(2).cache_dir(&dir);
        let first = ResultSet::load_or_run_with(&cfg);
        let bytes = std::fs::read_to_string(cfg.cache_file()).expect("cache written");
        assert!(
            parse_report_cache(&bytes, cfg.fingerprint()).is_some(),
            "cache round-trips through the parser"
        );
        let reloaded = ResultSet::load_or_run_with(&cfg);
        for a in first.apps() {
            for m in Model::ALL {
                assert_eq!(
                    first.get(m, a.name).to_json().to_json(),
                    reloaded.get(m, a.name).to_json().to_json(),
                    "reloaded {m}/{} must equal the freshly-run report",
                    a.name
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_sweeps_degrade_but_match_the_clean_store_logs() {
        let clean = ResultSet::run_sweep_with(&SweepConfig::new().insts(2_000).jobs(4));
        let faulted = ResultSet::run_sweep_with(
            &SweepConfig::new()
                .insts(2_000)
                .jobs(4)
                .faults(FaultPlan::new(0x50AC).rate(0.2)),
        );
        let mut injected = 0;
        for a in clean.apps() {
            for m in Model::ALL {
                let (c, f) = (clean.get(m, a.name), faulted.get(m, a.name));
                assert_eq!(f.insts, c.insts, "{m}/{}: no lost instructions", a.name);
                assert_eq!(
                    f.store_log_hash, c.store_log_hash,
                    "{m}/{}: store log must match the fault-free run",
                    a.name
                );
                let fr = f.faults.as_ref().expect("fault report");
                assert!(fr.reconciles(), "{m}/{}: accounting reconciles", a.name);
                injected += fr.counters.total_injected();
            }
        }
        assert!(injected > 0, "a 20% campaign must land faults somewhere");
    }
}
