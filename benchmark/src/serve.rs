//! The `serve_mix` workload: `parrot serve` in process, under a closed
//! loop of clients that each wait for a job's result before submitting
//! the next.
//!
//! Each job is `POST /v1/jobs`, then (unless the result store already
//! holds it) `GET /v1/jobs/:id` every millisecond until done, then
//! `GET /v1/results/:fingerprint`; its latency runs from the start of the
//! POST to the last byte of the result. With probability `repeat_p` a job
//! repeats one of the most recently completed specs, which the result
//! store answers; otherwise it is a fresh spec the service must simulate.
//! A job fails on a non-2xx reply, a `failed` status, or a result whose
//! bytes differ from an earlier fetch of the same spec or, for the
//! verified specs, from the same simulation run in this process.

use crate::spans::Recorder;
use crate::{mix64, probes, stats, Ctx, Outcome, Pass};
use parrot_bench::serve_backend::Backend;
use parrot_core::{Model, SimReport, SimRequest};
use parrot_serve::{fingerprint, serve, Executor, JobSpec, ServerConfig, ServerHandle};
use parrot_telemetry::json::{self, Value};
use parrot_telemetry::rng::Xorshift64Star;
use parrot_telemetry::shard::Progress;
use parrot_workloads::{all_apps, app_by_name, Workload};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest a client waits on one HTTP exchange, or on one job.
const TIMEOUT: Duration = Duration::from_secs(30);

/// The closed-loop traffic mix.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    /// Client threads, each with one connection at a time.
    pub clients: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Probability that a job repeats a recently completed spec.
    pub repeat_p: f64,
    /// How many recently completed specs a repeat chooses from; kept
    /// inside the result store's capacity so repeats hit.
    pub recent: usize,
    /// Instruction budget of fresh specs, before their distinct offset.
    pub base_insts: u64,
    /// Fresh specs per client verified against in-process simulation.
    pub verify_per_client: usize,
    /// Server starts timed for `setup_s`.
    pub setup_reps: usize,
}

impl ServeSpec {
    /// `serve_mix`: two clients, two workers, 60% repeats of the 32 most
    /// recent specs (the store holds 64), fresh jobs of about 20k
    /// instructions. The service has no recorded traffic, so the mix is
    /// synthetic: repeats stay inside the result store so both the hit
    /// and the miss path run, and the shares are not those of any user.
    pub fn serve_mix() -> ServeSpec {
        ServeSpec {
            clients: 2,
            workers: 2,
            repeat_p: 0.6,
            recent: 32,
            base_insts: 20_000,
            verify_per_client: 32,
            setup_reps: 9,
        }
    }

    /// Fresh spec `k` of client `c` at `seed`: model and app drawn from
    /// the seed alone, and a budget no other fresh spec shares, so each
    /// client's fresh sequence is the same on every run.
    fn fresh(&self, seed: u64, c: usize, k: u64, apps: &[&'static str]) -> Sim {
        let h = mix64(seed ^ mix64((c as u64) << 32 | k));
        Sim {
            model: Model::ALL[(h % Model::ALL.len() as u64) as usize],
            app: apps[((h >> 16) % apps.len() as u64) as usize],
            insts: self.base_insts + k * self.clients as u64 + c as u64,
        }
    }
}

/// One `sim` job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Sim {
    model: Model,
    app: &'static str,
    insts: u64,
}

impl Sim {
    fn body(&self) -> String {
        format!(
            r#"{{"v":1,"kind":"sim","model":"{}","app":"{}","insts":{}}}"#,
            self.model.name(),
            self.app,
            self.insts
        )
    }

    /// What `parrot run MODEL APP --insts N --json` prints for this spec.
    fn report(&self) -> SimReport {
        let wl = Workload::build(&app_by_name(self.app).expect("registered app"));
        SimRequest::model(self.model).insts(self.insts).run(&wl)
    }
}

/// One HTTP/1.1 exchange on a fresh connection: status and body.
fn exchange(addr: SocketAddr, raw: &str) -> Option<(u16, String)> {
    let mut s = TcpStream::connect_timeout(&addr, TIMEOUT).ok()?;
    s.set_read_timeout(Some(TIMEOUT)).ok()?;
    s.write_all(raw.as_bytes()).ok()?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).ok()?;
    let text = String::from_utf8(buf).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    Some((status, body.to_string()))
}

fn get(addr: SocketAddr, path: &str) -> Option<(u16, String)> {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"))
}

fn post(addr: SocketAddr, body: &str) -> Option<(u16, String)> {
    exchange(
        addr,
        &format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// One completed (or failed) job.
#[derive(Clone, Debug)]
struct Job {
    start: Instant,
    ms: f64,
    hit: bool,
    ok: bool,
    /// Instructions the service simulated for it (0 for a hit).
    insts: u64,
    polls: u64,
}

/// Submit, wait for and fetch one job. `None` on any failure.
fn run_job(
    addr: SocketAddr,
    sim: &Sim,
    rec: &mut Recorder,
    id: u64,
) -> Option<(bool, u64, String)> {
    let (reply, _) = rec.time("serve.submit", id, || post(addr, &sim.body()));
    let (status, text) = reply?;
    let doc = json::parse(&text).ok()?;
    let hit = match status {
        200 => doc.get("cached").as_bool() == Some(true),
        202 => false,
        _ => return None,
    };
    let mut polls = 0;
    if !hit {
        let job = doc.get("job").as_str()?;
        let deadline = Instant::now() + TIMEOUT;
        loop {
            std::thread::sleep(Duration::from_millis(1));
            polls += 1;
            let (reply, _) = rec.time("serve.poll", id, || get(addr, &format!("/v1/jobs/{job}")));
            let (status, text) = reply?;
            let state = json::parse(&text).ok()?;
            match (status, state.get("status").as_str()) {
                (200, Some("done")) => break,
                (200, Some("queued" | "running")) if Instant::now() < deadline => {}
                _ => return None,
            }
        }
    }
    let fp = doc.get("fingerprint").as_str()?;
    let (reply, _) = rec.time("serve.fetch", id, || {
        get(addr, &format!("/v1/results/{fp}"))
    });
    match reply? {
        (200, body) => Some((hit, polls, body)),
        _ => None,
    }
}

/// Client state shared under a lock: the specs a repeat may choose and
/// the bytes first fetched for every spec.
#[derive(Default)]
struct Shared {
    recent: VecDeque<Sim>,
    bodies: HashMap<Sim, u64>,
}

/// The load every client generates.
struct Load<'a> {
    spec: &'a ServeSpec,
    seed: u64,
    addr: SocketAddr,
    shared: Mutex<Shared>,
    /// When spans start being recorded (the traced half), if ever.
    trace_from: Option<Instant>,
    until: Instant,
}

/// What one client did.
struct ClientLog {
    jobs: Vec<Job>,
    /// The client's first fresh specs and the bytes served for them.
    verify: Vec<(Sim, String)>,
    rec: Recorder,
}

/// Client `c`'s closed loop.
fn client(load: &Load, c: usize, mut rec: Recorder) -> ClientLog {
    let Load {
        spec, seed, addr, ..
    } = *load;
    let apps: Vec<&'static str> = all_apps().iter().map(|a| a.name).collect();
    let mut rng = Xorshift64Star::seed_from_u64(mix64(seed.wrapping_add(c as u64 + 1)));
    let mut jobs = Vec::new();
    let mut verify = Vec::new();
    let mut fresh_k = 0;
    while Instant::now() < load.until {
        if let Some(t) = load.trace_from {
            rec.set_enabled(Instant::now() >= t);
        }
        let repeat = rng.chance(spec.repeat_p);
        let pick = rng.next_u64();
        let chosen = {
            let s = load.shared.lock().expect("client state lock");
            (repeat && !s.recent.is_empty())
                .then(|| s.recent[(pick % s.recent.len() as u64) as usize])
        };
        let sim = chosen.unwrap_or_else(|| {
            fresh_k += 1;
            spec.fresh(seed, c, fresh_k - 1, &apps)
        });
        let id = ((c as u64) << 32) | jobs.len() as u64;
        let start = Instant::now();
        let open = rec.begin("serve.job", id);
        let result = run_job(addr, &sim, &mut rec, id);
        let ms = rec.end(open).as_secs_f64() * 1e3;
        let mut job = Job {
            start,
            ms,
            hit: false,
            ok: false,
            insts: 0,
            polls: 0,
        };
        if let Some((hit, polls, body)) = result {
            let h = fingerprint(&body);
            let mut s = load.shared.lock().expect("client state lock");
            job.ok = *s.bodies.entry(sim).or_insert(h) == h;
            job.hit = hit;
            job.polls = polls;
            job.insts = if hit { 0 } else { sim.insts };
            if chosen.is_none() {
                s.recent.push_back(sim);
                if s.recent.len() > spec.recent {
                    s.recent.pop_front();
                }
                if verify.len() < spec.verify_per_client {
                    verify.push((sim, body));
                }
            }
        }
        jobs.push(job);
    }
    ClientLog { jobs, verify, rec }
}

/// Start the service and wait for its first `healthz` 200.
fn start(spec: &ServeSpec, rec: &mut Recorder) -> (ServerHandle<Backend>, f64) {
    let t = Instant::now();
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: spec.workers,
        ..ServerConfig::default()
    };
    let (h, _) = rec.time("serve.start", 0, || serve(cfg, Backend::new()));
    let h = h.expect("bind an ephemeral localhost port");
    let deadline = t + TIMEOUT;
    let mut n = 0;
    loop {
        let (reply, _) = rec.time("serve.healthz", n, || get(h.addr(), "/v1/healthz"));
        if matches!(reply, Some((200, _))) || Instant::now() > deadline {
            break;
        }
        n += 1;
    }
    (h, t.elapsed().as_secs_f64())
}

/// `(hits, misses)` of the result store, as `/v1/metrics` reports them.
fn store_counters(addr: SocketAddr) -> Option<(f64, f64)> {
    let (_, body) = get(addr, "/v1/metrics")?;
    let mut hits = None;
    let mut misses = None;
    for line in body.lines() {
        let row = json::parse(line).ok()?;
        match row.get("counter").as_str() {
            Some("serve:cache_hits") => hits = row.get("value").as_f64(),
            Some("serve:cache_misses") => misses = row.get("value").as_f64(),
            _ => {}
        }
    }
    Some((hits?, misses?))
}

/// Run `serve_mix`. In a traced run the first half of the load runs
/// untraced and the second half traced.
pub fn run_serve(spec: &ServeSpec, ctx: &mut Ctx) -> Outcome {
    let mut o = Outcome::default();
    for _ in 1..spec.setup_reps {
        let (h, s) = start(spec, &mut ctx.rec);
        o.setup_s.push(s);
        h.shutdown();
    }
    let (h, s) = start(spec, &mut ctx.rec);
    o.setup_s.push(s);
    let addr = h.addr();

    let begin = Instant::now();
    let trace_from = ctx.traced.then(|| begin + ctx.budget / 2);
    let load = Load {
        spec,
        seed: ctx.seed,
        addr,
        shared: Mutex::default(),
        trace_from,
        until: begin + ctx.budget,
    };
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                let rec = ctx.rec.fork(c as u32 + 1);
                let load = &load;
                scope.spawn(move || client(load, c, rec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end = Instant::now();
    o.peak_rss_mib = crate::peak_rss_mib();
    let mut jobs = Vec::new();
    let mut verify = Vec::new();
    for log in logs {
        jobs.extend(log.jobs);
        verify.extend(log.verify);
        ctx.rec.absorb(log.rec);
    }

    // The load: one pass, or an untraced and a traced half.
    let split = trace_from.unwrap_or(end);
    for (traced, from, to) in [(false, begin, split), (true, split, end)] {
        let part: Vec<&Job> = jobs
            .iter()
            .filter(|j| j.start >= from && j.start < to)
            .collect();
        if part.is_empty() {
            continue;
        }
        o.passes.push(Pass {
            wall_s: to.duration_since(from).as_secs_f64(),
            insts: part.iter().map(|j| j.insts).sum(),
            ops: part.iter().filter(|j| j.ok).count() as u64,
            traced,
        });
        if !traced {
            // A failed job misses every latency limit.
            o.op_ms = part
                .iter()
                .map(|j| if j.ok { j.ms } else { f64::INFINITY })
                .collect();
        }
    }
    // Both halves of a traced run time every job; tracing adds only the
    // breakdown into requests, so the tails rest on every job of the run.
    let latencies = |hit: bool| -> Vec<f64> {
        jobs.iter()
            .filter(|j| j.ok && j.hit == hit)
            .map(|j| j.ms)
            .collect()
    };
    let (hits, misses) = (latencies(true), latencies(false));
    if ctx.traced {
        let polls: u64 = jobs
            .iter()
            .filter(|j| j.ok && !j.hit)
            .map(|j| j.polls)
            .sum();
        let m = &mut o.layer;
        m.set("serve.hit_ms_p50", stats::percentile(&hits, 50.0));
        m.set("serve.hit_ms_p99", stats::percentile(&hits, 99.0));
        m.set("serve.miss_ms_p50", stats::percentile(&misses, 50.0));
        m.set("serve.miss_ms_p95", stats::percentile(&misses, 95.0));
        m.set(
            "serve.polls_per_miss",
            polls as f64 / misses.len().max(1) as f64,
        );
    }
    for j in &jobs {
        o.op(j.ok);
    }
    o.note("jobs_succeed", jobs.iter().all(|j| j.ok));

    if ctx.traced {
        for n in 0..64 {
            let _ = ctx
                .rec
                .time("serve.healthz", n, || get(addr, "/v1/healthz"));
        }
    }
    let store = store_counters(addr);
    o.note("metrics_endpoint", store.is_some());
    if let Some((hits, misses)) = store {
        o.layer
            .set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    }
    let (admitted, completed, shed, rejected, failed) = h.counters().read();
    o.note("ledger_reconciles", h.counters().reconciles());
    o.note(
        "no_shed_or_reject",
        shed == 0 && rejected == 0 && failed == 0,
    );
    o.note(
        "ledger_counts_every_job",
        admitted == jobs.len() as u64 && completed == admitted,
    );
    h.shutdown();

    // Untimed: the verified specs' bytes against the same simulation run
    // here, which is what the CLI prints for them.
    let mut reports = Vec::with_capacity(verify.len());
    for (sim, served) in &verify {
        let r = sim.report();
        let same = r.to_json().to_json_pretty() == *served;
        o.note("bytes_match_cli", same);
        if !same {
            o.failed += 1;
        }
        reports.push(r);
    }
    o.note(
        "verified_enough",
        verify.len() == spec.clients * spec.verify_per_client,
    );
    if ctx.traced {
        exec_probe(&verify, ctx, &mut o);
        let (wls, _) = crate::sims::build(&all_apps(), &mut ctx.rec);
        probes::substrate(
            &wls,
            &Model::TOW.config(),
            ctx.probe_insts,
            &mut ctx.rec,
            &mut o.layer,
        );
    }
    o.budgets = vec![
        ("clients", Value::int(spec.clients as u64)),
        ("workers", Value::int(spec.workers as u64)),
        ("repeat_p", Value::Num(spec.repeat_p)),
        ("recent", Value::int(spec.recent as u64)),
        ("base_insts", Value::int(spec.base_insts)),
        ("verified", Value::int(verify.len() as u64)),
        ("hits", Value::int(hits.len() as u64)),
        ("misses", Value::int(misses.len() as u64)),
    ];
    o.reports = reports;
    o
}

/// `serve.parse_canonical_us` and `serve.exec_ms_p50`: the service's
/// request parsing and execution layers called directly, with the
/// program's profiler installed around execution for `core.*`.
fn exec_probe(verify: &[(Sim, String)], ctx: &mut Ctx, o: &mut Outcome) {
    let backend = Backend::new();
    let bodies: Vec<String> = verify.iter().map(|(s, _)| s.body()).collect();
    if bodies.is_empty() {
        return;
    }
    let rounds = 1000 / bodies.len() + 1;
    let t = Instant::now();
    for _ in 0..rounds {
        for b in &bodies {
            let spec = JobSpec::parse(b).expect("benchmark specs are well formed");
            std::hint::black_box(backend.canonical(&spec).expect("registered model and app"));
        }
    }
    let per = t.elapsed().as_secs_f64() * 1e6 / (rounds * bodies.len()) as f64;
    o.layer.set("serve.parse_canonical_us", per);
    let probe: Vec<&(Sim, String)> = verify.iter().take(8).collect();
    let insts: u64 = probe.iter().map(|(s, _)| s.insts).sum();
    ctx.traced_section(true, |rec| {
        for (i, (sim, _)) in probe.iter().enumerate() {
            let spec = JobSpec::parse(&sim.body()).expect("benchmark specs are well formed");
            let _ = rec.time("serve.exec", i as u64, || {
                backend.execute(&spec, false, &Progress::new(0))
            });
        }
    });
    ctx.profiled_insts += insts;
}
