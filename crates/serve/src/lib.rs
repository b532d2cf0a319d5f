//! # parrot-serve
//!
//! The admission-controlled simulation service behind `parrot serve`: a
//! zero-dependency HTTP/1.1 + JSON front end over the simulation stack,
//! cleanly split into the four layers the ROADMAP names:
//!
//! 1. **request parsing** ([`wire`]) — a versioned, closed `JobSpec`
//!    schema over the hardened `telemetry::json` codec;
//! 2. **admission + scheduling** ([`admission`]) — a bounded queue with
//!    per-kind budgets; under overload, simulation-shaped jobs shed to
//!    SimPoint-sampled mode, everything else is rejected with
//!    `Retry-After`, and nothing queues unboundedly;
//! 3. **execution** — the [`Executor`] trait, implemented by the
//!    experiment harness over its existing work-stealing pool;
//! 4. **result storage** ([`jobs`]) — a bounded job table plus a bounded
//!    LRU keyed by config fingerprint, so a repeated POST is a cache hit.
//!
//! The crate sits *below* the harness in the dependency graph: it knows
//! the wire schema and the service mechanics, while model/app semantics
//! and canonicalization are injected through [`Executor`]. That keeps
//! the canonical forms anchored in one place (`SimRequest::canonical`,
//! `SweepConfig::canonical`), which is what makes an HTTP job's report
//! byte-identical to the equivalent CLI invocation.
//!
//! Endpoints (see DESIGN.md §19 for the wire spec):
//!
//! | Method | Path | Purpose |
//! |---|---|---|
//! | POST | `/v1/jobs` | submit a job, get `job-NNNNNNNN` |
//! | GET | `/v1/jobs/:id` | status + live progress |
//! | GET | `/v1/results/:fingerprint` | the result document |
//! | GET | `/v1/healthz` | liveness + load |
//! | GET | `/v1/metrics` | JSONL counter snapshot |

#![warn(missing_docs)]

pub mod admission;
pub mod http;
pub mod jobs;
pub mod wire;

pub use admission::{AdmissionConfig, Counters, Decision};
pub use wire::{JobKind, JobSpec, WireError};

use jobs::{job_name, parse_job_name, JobStatus, JobTable, ResultCache};
use parrot_telemetry::json::Value;
use parrot_telemetry::shard::{install_progress, take_progress, Progress};
use std::any::Any;
use std::collections::VecDeque;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Hard cap on concurrently open connections; above it the server sheds
/// the connection with an immediate 503 instead of growing threads.
const MAX_CONNS: usize = 128;

/// Finished job records kept per result-store slot. Results are addressed
/// by fingerprint and the store keeps only `cache_cap` of them, so older
/// records mostly point at evicted results anyway.
const FINISHED_PER_RESULT: usize = 4;

/// The execution backend. Implemented by the experiment harness; the
/// service itself never names a model or an app.
pub trait Executor: Send + Sync + 'static {
    /// Semantic validation + canonicalization of a shape-checked spec.
    /// The returned value must be the *exact* canonical form the CLI
    /// uses for the same work (`SimRequest::canonical`,
    /// `SweepConfig::canonical`), because its serialized bytes are the
    /// result-cache key and the byte-identity contract.
    fn canonical(&self, spec: &JobSpec) -> Result<Value, WireError>;

    /// Run the job. `shed` means admission degraded it to
    /// SimPoint-sampled mode. `progress` is already installed in the
    /// executing thread's telemetry slot, so sweep-shaped backends get
    /// ticks from the sharded merge for free; single-run backends call
    /// [`Progress::set_total`]/[`Progress::tick`] themselves.
    fn execute(
        &self,
        spec: &JobSpec,
        shed: bool,
        progress: &Arc<Progress>,
    ) -> Result<Value, String>;
}

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port in tests.
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Result-cache capacity (documents).
    pub cache_cap: usize,
    /// Admission-control tunables.
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8040".to_string(),
            workers: 2,
            cache_cap: 64,
            admission: AdmissionConfig::default(),
        }
    }
}

struct State<E> {
    exec: E,
    cfg: ServerConfig,
    table: JobTable,
    cache: ResultCache,
    counters: Counters,
    queue: Mutex<VecDeque<u64>>,
    cond: Condvar,
    shutdown: AtomicBool,
    conns: AtomicUsize,
    /// Connection handlers waiting for their next connection.
    idle_handlers: AtomicUsize,
    /// Connection handler threads started so far.
    handlers_started: AtomicUsize,
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads running for the life
/// of the process.
pub struct ServerHandle<E: Executor> {
    addr: SocketAddr,
    state: Arc<State<E>>,
    threads: Vec<JoinHandle<()>>,
}

impl<E: Executor> ServerHandle<E> {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service ledger.
    pub fn counters(&self) -> &Counters {
        &self.state.counters
    }

    /// `(hits, misses)` of the result cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.state.cache.stats()
    }

    /// Stop accepting, drain nothing further, and join the accept and
    /// worker threads. Jobs still queued stay queued (and are dropped with
    /// the state); the job a worker is currently executing finishes first.
    /// Idle connection handlers end when the accept thread does; a busy
    /// one ends after its connection.
    pub fn shutdown(self) {
        {
            // Under the queue lock, so a worker between its flag check and
            // its wait cannot miss the wake-up.
            let _q = self.state.queue.lock().unwrap();
            self.state.shutdown.store(true, Ordering::Release);
            self.state.cond.notify_all();
        }
        // The accept thread is blocked in `accept()`: a connection to the
        // server's own address wakes it to see the flag. Retry until it
        // has, in case a connect fails (out of file descriptors, say).
        let mut threads = self.threads.into_iter();
        let accept = threads.next().expect("the accept thread is spawned first");
        while !accept.is_finished() {
            let _ = TcpStream::connect(wake_addr(self.addr));
            thread::sleep(Duration::from_millis(1));
        }
        let _ = accept.join();
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Start the service. Returns once the listener is bound.
pub fn serve<E: Executor>(cfg: ServerConfig, exec: E) -> io::Result<ServerHandle<E>> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let cache_cap = cfg.cache_cap;
    let workers = cfg.workers.max(1);
    let state = Arc::new(State {
        exec,
        cfg,
        table: JobTable::new(FINISHED_PER_RESULT * cache_cap.max(1)),
        cache: ResultCache::new(cache_cap),
        counters: Counters::default(),
        queue: Mutex::new(VecDeque::new()),
        cond: Condvar::new(),
        shutdown: AtomicBool::new(false),
        conns: AtomicUsize::new(0),
        idle_handlers: AtomicUsize::new(0),
        handlers_started: AtomicUsize::new(0),
    });

    let mut threads = Vec::new();
    {
        let state = Arc::clone(&state);
        threads.push(thread::spawn(move || accept_loop(listener, state)));
    }
    for _ in 0..workers {
        let state = Arc::clone(&state);
        threads.push(thread::spawn(move || worker_loop(state)));
    }
    Ok(ServerHandle {
        addr,
        state,
        threads,
    })
}

/// Where [`ServerHandle::shutdown`] connects to wake the accept thread:
/// the bound address, with an unspecified IP replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        let loopback: IpAddr = match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        addr.set_ip(loopback);
    }
    addr
}

/// Accept connections and hand each to an idle handler thread over a
/// channel, starting a new handler only when none is idle. Every handler
/// holds an open connection or is counted idle, so the `MAX_CONNS` gate
/// also bounds the handler count. Returning drops the channel's sender,
/// which ends the idle handlers.
fn accept_loop<E: Executor>(listener: TcpListener, state: Arc<State<E>>) {
    let (handoff, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    loop {
        let accepted = listener.accept();
        // Re-checked after every accept: on shutdown the accepted
        // connection is the wake-up, and returning drops it.
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((mut conn, _)) => {
                if state.conns.load(Ordering::Acquire) >= MAX_CONNS {
                    let body = WireError::new("overloaded", "too many connections")
                        .to_json()
                        .to_json();
                    let _ = http::write_response(
                        &mut conn,
                        503,
                        "Service Unavailable",
                        "application/json",
                        &[("Retry-After", "1".to_string())],
                        body.as_bytes(),
                    );
                    continue;
                }
                state.conns.fetch_add(1, Ordering::AcqRel);
                let claimed = state
                    .idle_handlers
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                    .is_ok();
                if claimed {
                    // The claimed handler is waiting on the channel (or about
                    // to): the connection is picked up without a new thread.
                    let _ = handoff.send(conn);
                } else {
                    state.handlers_started.fetch_add(1, Ordering::AcqRel);
                    let state = Arc::clone(&state);
                    let rx = Arc::clone(&rx);
                    thread::spawn(move || handler_loop(&state, conn, &rx));
                }
            }
            // A real accept error (out of file descriptors, say): back
            // off instead of spinning on it.
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Serve `conn`, then every connection handed over the channel, until
/// the accept loop drops the sender. Connections are short-lived (one
/// request, close).
fn handler_loop<E: Executor>(
    state: &State<E>,
    mut conn: TcpStream,
    rx: &Mutex<Receiver<TcpStream>>,
) {
    loop {
        handle_conn(state, &mut conn);
        // Counted idle before the connection closes, so a client's next
        // connection, opened once it reads this reply's end, finds this
        // handler idle.
        state.idle_handlers.fetch_add(1, Ordering::AcqRel);
        state.conns.fetch_sub(1, Ordering::AcqRel);
        drop(conn);
        conn = match rx.lock().unwrap().recv() {
            Ok(next) => next,
            Err(_) => return,
        };
    }
}

fn worker_loop<E: Executor>(state: Arc<State<E>>) {
    loop {
        let id = {
            let mut q = state.queue.lock().unwrap();
            loop {
                if state.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(id) = q.pop_front() {
                    break id;
                }
                q = state.cond.wait(q).unwrap();
            }
        };
        let Some(job) = state.table.get(id) else {
            continue;
        };
        state.table.update(id, |j| j.status = JobStatus::Running);
        install_progress(Arc::clone(&job.progress));
        // A panicking job (a failed invariant such as the simulator's cycle
        // cap) fails that job only: the worker survives and the ledger
        // still reconciles.
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            state.exec.execute(&job.spec, job.shed, &job.progress)
        }))
        .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
        let _ = take_progress();
        match result {
            Ok(v) => {
                state.cache.put(job.fingerprint, Arc::new(v));
                state.table.update(id, |j| j.status = JobStatus::Done);
                if job.shed {
                    state.counters.note_shed();
                } else {
                    state.counters.note_completed();
                }
            }
            Err(e) => {
                state.table.update(id, |j| {
                    j.status = JobStatus::Failed;
                    j.error = Some(e);
                });
                state.counters.note_failed();
            }
        }
    }
}

/// The message a panic carried, as the job's error.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    format!("job panicked: {msg}")
}

fn handle_conn<E: Executor>(state: &State<E>, conn: &mut TcpStream) {
    let req = match http::read_request(conn) {
        Ok(r) => r,
        Err(http::HttpError::TooLarge) => {
            respond_error(
                conn,
                413,
                "Payload Too Large",
                "too_large",
                "body exceeds cap",
            );
            return;
        }
        Err(http::HttpError::BadRequest(msg)) => {
            respond_error(conn, 400, "Bad Request", "bad_request", msg);
            return;
        }
        Err(http::HttpError::Io(_)) => return,
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/jobs") => handle_submit(state, conn, &req.body),
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            handle_job_status(state, conn, &path["/v1/jobs/".len()..]);
        }
        ("GET", path) if path.starts_with("/v1/results/") => {
            handle_result(state, conn, &path["/v1/results/".len()..]);
        }
        ("GET", "/v1/healthz") => {
            let (active, _) = state.table.count_active();
            let doc = Value::obj([
                ("ok", Value::Bool(true)),
                ("active", Value::int(active as u64)),
                ("jobs", Value::int(state.table.issued())),
                ("cached_results", Value::int(state.cache.len() as u64)),
            ]);
            respond_json(conn, 200, "OK", &doc);
        }
        ("GET", "/v1/metrics") => {
            let mut body = state.counters.to_jsonl();
            let (hits, misses) = state.cache.stats();
            body.push_str(&format!(
                "{{\"counter\":\"serve:cache_hits\",\"value\":{hits}}}\n"
            ));
            body.push_str(&format!(
                "{{\"counter\":\"serve:cache_misses\",\"value\":{misses}}}\n"
            ));
            let _ = http::write_response(
                conn,
                200,
                "OK",
                "application/x-ndjson",
                &[],
                body.as_bytes(),
            );
        }
        _ => respond_error(conn, 404, "Not Found", "not_found", "no such endpoint"),
    }
}

fn handle_submit<E: Executor>(state: &State<E>, conn: &mut TcpStream, body: &[u8]) {
    let Ok(text) = std::str::from_utf8(body) else {
        respond_error(conn, 400, "Bad Request", "bad_json", "body is not UTF-8");
        return;
    };
    let spec = match JobSpec::parse(text) {
        Ok(s) => s,
        Err(e) => {
            respond_json(conn, 400, "Bad Request", &e.to_json());
            return;
        }
    };
    let canonical = match state.exec.canonical(&spec) {
        Ok(v) => v,
        Err(e) => {
            respond_json(conn, 400, "Bad Request", &e.to_json());
            return;
        }
    };
    let fp = fingerprint(&canonical.to_json());
    // Every well-formed submission is one `admitted`; it will land in
    // exactly one of completed / shed / rejected / failed.
    state.counters.note_admitted();

    if state.cache.get(fp).is_some() {
        let id = state.table.insert_cached(spec, fp);
        state.counters.note_completed();
        let doc = Value::obj([
            ("job", Value::Str(job_name(id))),
            ("status", Value::Str("done".to_string())),
            ("cached", Value::Bool(true)),
            ("fingerprint", Value::Str(format!("{fp:016x}"))),
        ]);
        respond_json(conn, 200, "OK", &doc);
        return;
    }

    let (active, per_kind) = state.table.count_active();
    match admission::decide(&state.cfg.admission, spec.kind(), active, &per_kind) {
        Decision::Reject {
            retry_after_s,
            reason,
        } => {
            state.counters.note_rejected();
            let mut doc = WireError::new("overloaded", reason).to_json();
            if let Value::Obj(m) = &mut doc {
                m.insert("retry_after_s".to_string(), Value::int(retry_after_s));
            }
            let body = doc.to_json();
            let _ = http::write_response(
                conn,
                429,
                "Too Many Requests",
                "application/json",
                &[("Retry-After", retry_after_s.to_string())],
                body.as_bytes(),
            );
        }
        d @ (Decision::Admit | Decision::AdmitShed) => {
            let shed = d == Decision::AdmitShed;
            // A shed job's result is lower fidelity: it must never share a
            // cache slot with the full-fidelity document, so its
            // fingerprint is salted. A later full-fidelity POST of the
            // same spec misses this entry and runs whole, as it should.
            let fp = if shed {
                fingerprint(&format!("{}#shed", canonical.to_json()))
            } else {
                fp
            };
            if shed && state.cache.get(fp).is_some() {
                let id = state.table.insert_cached(spec, fp);
                state.counters.note_shed();
                let doc = Value::obj([
                    ("job", Value::Str(job_name(id))),
                    ("status", Value::Str("done".to_string())),
                    ("cached", Value::Bool(true)),
                    ("shed", Value::Bool(true)),
                    ("fingerprint", Value::Str(format!("{fp:016x}"))),
                ]);
                respond_json(conn, 200, "OK", &doc);
                return;
            }
            let id = state.table.insert(spec, fp, shed, 0);
            state.queue.lock().unwrap().push_back(id);
            state.cond.notify_one();
            let doc = Value::obj([
                ("job", Value::Str(job_name(id))),
                ("status", Value::Str("queued".to_string())),
                ("shed", Value::Bool(shed)),
                ("fingerprint", Value::Str(format!("{fp:016x}"))),
            ]);
            respond_json(conn, 202, "Accepted", &doc);
        }
    }
}

fn handle_job_status<E: Executor>(state: &State<E>, conn: &mut TcpStream, id_text: &str) {
    let id = parse_job_name(id_text);
    match id.and_then(|id| state.table.get(id)) {
        Some(j) => respond_json(conn, 200, "OK", &j.to_json()),
        // Issued, but its finished record has since been evicted.
        None if id.is_some_and(|id| (1..=state.table.issued()).contains(&id)) => {
            respond_error(conn, 404, "Not Found", "job_expired", id_text);
        }
        None => respond_error(conn, 404, "Not Found", "no_such_job", id_text),
    }
}

fn handle_result<E: Executor>(state: &State<E>, conn: &mut TcpStream, fp_text: &str) {
    let fp = u64::from_str_radix(fp_text, 16).ok();
    match fp.and_then(|fp| state.cache.get(fp)) {
        Some(v) => {
            // Pretty (which carries its own trailing newline):
            // byte-identical to what the equivalent CLI invocation
            // prints on stdout.
            let body = v.to_json_pretty();
            let _ = http::write_response(conn, 200, "OK", "application/json", &[], body.as_bytes());
        }
        None => respond_error(conn, 404, "Not Found", "no_such_result", fp_text),
    }
}

fn respond_json(conn: &mut TcpStream, status: u16, reason: &str, doc: &Value) {
    let body = doc.to_json();
    let _ = http::write_response(
        conn,
        status,
        reason,
        "application/json",
        &[],
        body.as_bytes(),
    );
}

fn respond_error(conn: &mut TcpStream, status: u16, reason: &str, code: &'static str, msg: &str) {
    let doc = WireError::new(code, msg).to_json();
    respond_json(conn, status, reason, &doc);
}

/// FNV-1a over the canonical spec bytes — the result-cache key. Equal
/// canonical bytes (and therefore equal fingerprints, collisions aside)
/// promise byte-identical reports.
pub fn fingerprint(canonical_json: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical_json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::mpsc;
    use std::time::Instant;

    /// A stub backend: canonicalization is the spec's own body, execution
    /// echoes the canonical form (optionally slowly, to hold queue slots).
    struct Stub {
        delay: Duration,
        /// A job for app `held` blocks until the test sends on (or drops)
        /// the paired sender, keeping the worker busy without a sleep.
        held: Mutex<Option<mpsc::Receiver<()>>>,
    }

    impl Stub {
        fn new(delay: Duration) -> Stub {
            Stub {
                delay,
                held: Mutex::new(None),
            }
        }
    }

    impl Executor for Stub {
        fn canonical(&self, spec: &JobSpec) -> Result<Value, WireError> {
            if spec.app() == Some("no-such-app") {
                return Err(WireError::new("unknown_app", "no-such-app"));
            }
            Ok(Value::obj([
                ("kind", Value::Str(spec.kind().name().to_string())),
                (
                    "app",
                    Value::Str(spec.app().unwrap_or_default().to_string()),
                ),
                ("insts", Value::int(spec.insts().unwrap_or(0))),
            ]))
        }

        fn execute(
            &self,
            spec: &JobSpec,
            shed: bool,
            progress: &Arc<Progress>,
        ) -> Result<Value, String> {
            if spec.app() == Some("panic-app") {
                panic!("stub executor blew up");
            }
            if spec.app() == Some("held") {
                if let Some(rx) = self.held.lock().unwrap().as_ref() {
                    let _ = rx.recv();
                }
            }
            progress.set_total(1);
            thread::sleep(self.delay);
            progress.tick();
            Ok(Value::obj([
                ("echo", Value::Str(spec.kind().name().to_string())),
                ("shed", Value::Bool(shed)),
            ]))
        }
    }

    fn request(addr: SocketAddr, raw: &str) -> (u16, String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        let (head, body) = buf.split_once("\r\n\r\n").unwrap();
        let status = head.split(' ').nth(1).and_then(|c| c.parse().ok()).unwrap();
        (status, head.to_string(), body.to_string())
    }

    fn post_job(addr: SocketAddr, body: &str) -> (u16, String, String) {
        request(
            addr,
            &format!(
                "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
    }

    fn test_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn submit_poll_fetch_roundtrip_with_cache_hit_on_resubmit() {
        let h = serve(test_config(), Stub::new(Duration::ZERO)).unwrap();
        let spec = r#"{"v":1,"kind":"sim","model":"TOW","app":"gcc","insts":1000}"#;
        let (status, _, body) = post_job(h.addr(), spec);
        assert_eq!(status, 202, "{body}");
        let doc = parrot_telemetry::json::parse(&body).unwrap();
        let id = doc.get("job").as_str().unwrap().to_string();
        let fp = doc.get("fingerprint").as_str().unwrap().to_string();

        // Poll to completion.
        let mut done = false;
        for _ in 0..200 {
            let (s, _, b) = get(h.addr(), &format!("/v1/jobs/{id}"));
            assert_eq!(s, 200);
            let j = parrot_telemetry::json::parse(&b).unwrap();
            match j.get("status").as_str().unwrap() {
                "done" => {
                    done = true;
                    break;
                }
                "failed" => panic!("job failed: {b}"),
                _ => thread::sleep(Duration::from_millis(10)),
            }
        }
        assert!(done, "job never completed");

        let (s, _, b) = get(h.addr(), &format!("/v1/results/{fp}"));
        assert_eq!(s, 200);
        assert!(b.contains("\"echo\": \"sim\""), "{b}");
        assert!(b.ends_with('\n'), "result body matches CLI stdout bytes");

        // Resubmit: instant cache hit, no second execution.
        let (s, _, b) = post_job(h.addr(), spec);
        assert_eq!(s, 200);
        let j = parrot_telemetry::json::parse(&b).unwrap();
        assert_eq!(j.get("cached"), &Value::Bool(true));
        assert_eq!(j.get("status").as_str(), Some("done"));
        // One miss total (the first submit); the result fetch and the
        // resubmit both hit — nothing re-executed.
        let (hits, misses) = h.cache_stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 2);
        let (a, c, s_, r, f) = h.counters().read();
        assert_eq!((a, c, s_, r, f), (2, 2, 0, 0, 0));
        assert!(h.counters().reconciles());
        h.shutdown();
    }

    /// Poll a job until it leaves the queue; returns its status document.
    fn await_job(addr: SocketAddr, id: &str) -> Value {
        for _ in 0..200 {
            let (_, _, b) = get(addr, &format!("/v1/jobs/{id}"));
            let j = parrot_telemetry::json::parse(&b).unwrap();
            if matches!(j.get("status").as_str(), Some("done" | "failed")) {
                return j;
            }
            thread::sleep(Duration::from_millis(10));
        }
        panic!("job {id} never finished");
    }

    fn job_id(body: &str) -> String {
        let doc = parrot_telemetry::json::parse(body).unwrap();
        doc.get("job").as_str().unwrap().to_string()
    }

    #[test]
    fn a_panicking_job_fails_and_the_worker_survives() {
        let cfg = ServerConfig {
            workers: 1,
            ..test_config()
        };
        let h = serve(cfg, Stub::new(Duration::ZERO)).unwrap();
        let (s, _, b) = post_job(
            h.addr(),
            r#"{"v":1,"kind":"sim","model":"TOW","app":"panic-app"}"#,
        );
        assert_eq!(s, 202, "{b}");
        let j = await_job(h.addr(), &job_id(&b));
        assert_eq!(j.get("status").as_str(), Some("failed"), "{j:?}");
        assert!(j.to_json().contains("stub executor blew up"), "{j:?}");
        // The lone worker lived on: the next job completes.
        let (s, _, b) = post_job(
            h.addr(),
            r#"{"v":1,"kind":"sim","model":"TOW","app":"gcc"}"#,
        );
        assert_eq!(s, 202, "{b}");
        let j = await_job(h.addr(), &job_id(&b));
        assert_eq!(j.get("status").as_str(), Some("done"), "{j:?}");
        assert_eq!(h.counters().read(), (2, 1, 0, 0, 1));
        assert!(h.counters().reconciles());
        h.shutdown();
    }

    #[test]
    fn overload_sheds_then_rejects_and_the_ledger_reconciles() {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            cache_cap: 64,
            admission: AdmissionConfig {
                queue_cap: 6,
                shed_mark: 2,
                kind_budget: [6, 6, 6, 6, 6],
                retry_after_s: 3,
            },
        };
        let h = serve(cfg, Stub::new(Duration::from_millis(150))).unwrap();
        let mut accepted = 0u64;
        let mut shed = 0u64;
        let mut rejected = 0u64;
        // Distinct specs (no cache hits): hammer past the cap.
        for i in 0..12 {
            let body =
                format!(r#"{{"v":1,"kind":"sim","model":"TOW","app":"app{i}","insts":1000}}"#);
            let (status, head, resp) = post_job(h.addr(), &body);
            match status {
                202 => {
                    accepted += 1;
                    let j = parrot_telemetry::json::parse(&resp).unwrap();
                    if j.get("shed") == &Value::Bool(true) {
                        shed += 1;
                    }
                }
                429 => {
                    rejected += 1;
                    assert!(head.contains("Retry-After: 3"), "{head}");
                    let j = parrot_telemetry::json::parse(&resp).unwrap();
                    assert_eq!(j.get("error").get("code").as_str(), Some("overloaded"));
                }
                other => panic!("unexpected status {other}: {resp}"),
            }
        }
        assert!(rejected > 0, "the cap must bite");
        assert!(shed > 0, "the shed mark must bite first");
        assert!(accepted > 0);
        // Drain, then reconcile exactly.
        for _ in 0..200 {
            let (_, _, b) = get(h.addr(), "/v1/healthz");
            let j = parrot_telemetry::json::parse(&b).unwrap();
            if j.get("active").as_u64() == Some(0) {
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        let (a, c, s, r, f) = h.counters().read();
        assert_eq!(
            a, 12,
            "every well-formed submission is admitted into the ledger"
        );
        assert_eq!(r, rejected);
        assert_eq!(s, shed);
        assert_eq!(f, 0);
        assert_eq!(a, c + s + r + f, "serve:admitted reconciles exactly");
        // The metrics endpoint serves the same ledger as JSONL.
        let (status, _, body) = get(h.addr(), "/v1/metrics");
        assert_eq!(status, 200);
        assert!(body.contains(&format!("{{\"counter\":\"serve:admitted\",\"value\":{a}}}")));
        h.shutdown();
    }

    #[test]
    fn semantic_and_syntactic_errors_are_structured_http_errors() {
        let h = serve(test_config(), Stub::new(Duration::ZERO)).unwrap();
        // Syntactic: bad JSON.
        let (s, _, b) = post_job(h.addr(), "{nope");
        assert_eq!(s, 400);
        assert!(b.contains("bad_json"));
        // Syntactic: unknown field.
        let (s, _, b) = post_job(
            h.addr(),
            r#"{"v":1,"kind":"sim","model":"N","app":"gcc","x":1}"#,
        );
        assert_eq!(s, 400);
        assert!(b.contains("unknown_field"));
        // Semantic: executor veto.
        let (s, _, b) = post_job(
            h.addr(),
            r#"{"v":1,"kind":"sim","model":"N","app":"no-such-app"}"#,
        );
        assert_eq!(s, 400);
        assert!(b.contains("unknown_app"));
        // Unknown routes.
        let (s, _, _) = get(h.addr(), "/v2/jobs");
        assert_eq!(s, 404);
        let (s, _, _) = get(h.addr(), "/v1/jobs/job-99999999");
        assert_eq!(s, 404);
        let (s, _, _) = get(h.addr(), "/v1/results/zzzz");
        assert_eq!(s, 404);
        // None of those were well-formed submissions: the ledger is empty.
        let (a, ..) = h.counters().read();
        assert_eq!(a, 0);
        h.shutdown();
    }

    #[test]
    fn shutdown_joins_promptly_on_loopback_and_wildcard_binds() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let cfg = ServerConfig {
                addr: bind.to_string(),
                ..test_config()
            };
            let h = serve(cfg, Stub::new(Duration::ZERO)).unwrap();
            let (s, _, _) = get(wake_addr(h.addr()), "/v1/healthz");
            assert_eq!(s, 200);
            let (done_tx, done_rx) = mpsc::channel();
            thread::spawn(move || {
                h.shutdown();
                let _ = done_tx.send(());
            });
            done_rx
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|_| panic!("shutdown of a server bound to {bind} hung"));
        }
    }

    #[test]
    fn sequential_requests_do_not_wait_on_the_accept_loop() {
        let h = serve(test_config(), Stub::new(Duration::ZERO)).unwrap();
        let t = Instant::now();
        for _ in 0..100 {
            let (s, _, _) = get(h.addr(), "/v1/healthz");
            assert_eq!(s, 200);
        }
        let took = t.elapsed();
        assert!(
            took < Duration::from_millis(400),
            "100 healthz requests took {took:?}"
        );
        h.shutdown();
    }

    #[test]
    fn sequential_requests_reuse_one_handler_thread() {
        let h = serve(test_config(), Stub::new(Duration::ZERO)).unwrap();
        for _ in 0..100 {
            let (s, _, _) = get(h.addr(), "/v1/healthz");
            assert_eq!(s, 200);
        }
        let started = h.state.handlers_started.load(Ordering::Acquire);
        assert!(
            started <= 2,
            "100 sequential requests started {started} handlers"
        );
        h.shutdown();
    }

    fn error_code(body: &str) -> Option<String> {
        let doc = parrot_telemetry::json::parse(body).unwrap();
        doc.get("error").get("code").as_str().map(str::to_string)
    }

    #[test]
    fn finished_jobs_are_bounded_and_active_ones_are_never_evicted() {
        let cfg = ServerConfig {
            workers: 1,
            cache_cap: 2,
            ..test_config()
        };
        let keep = FINISHED_PER_RESULT * 2;
        let (release, held) = mpsc::channel();
        let stub = Stub {
            held: Mutex::new(Some(held)),
            ..Stub::new(Duration::ZERO)
        };
        let h = serve(cfg, stub).unwrap();
        let sim = |app: &str| format!(r#"{{"v":1,"kind":"sim","model":"TOW","app":"{app}"}}"#);
        let finished = || h.state.table.len() - h.state.table.count_active().0;

        // More distinct jobs than the bound, each run to completion.
        let mut ids = Vec::new();
        for i in 0..keep + 4 {
            let (s, _, b) = post_job(h.addr(), &sim(&format!("app{i}")));
            assert_eq!(s, 202, "{b}");
            let id = job_id(&b);
            assert_eq!(
                await_job(h.addr(), &id).get("status").as_str(),
                Some("done")
            );
            ids.push(id);
        }
        assert_eq!(finished(), keep);
        let (s, _, b) = get(h.addr(), &format!("/v1/jobs/{}", ids[0]));
        assert_eq!((s, error_code(&b).as_deref()), (404, Some("job_expired")));
        let (s, _, b) = get(h.addr(), "/v1/jobs/job-99999999");
        assert_eq!((s, error_code(&b).as_deref()), (404, Some("no_such_job")));
        let (s, _, _) = get(h.addr(), &format!("/v1/jobs/{}", ids[keep + 3]));
        assert_eq!(s, 200);

        // The worker blocks on a held job; the job behind it stays queued
        // while a burst of cache hits, each a finished job, churns the table.
        let (s, _, b) = post_job(h.addr(), &sim("held"));
        assert_eq!(s, 202, "{b}");
        let (s, _, b) = post_job(h.addr(), &sim("queued"));
        assert_eq!(s, 202, "{b}");
        let queued = job_id(&b);
        let hits = 2 * keep;
        for _ in 0..hits {
            let (s, _, b) = post_job(h.addr(), &sim(&format!("app{}", keep + 3)));
            assert_eq!(s, 200, "{b}");
        }
        assert!(finished() <= keep);
        let (s, _, b) = get(h.addr(), &format!("/v1/jobs/{queued}"));
        assert_eq!(s, 200, "{b}");
        assert_eq!(
            parrot_telemetry::json::parse(&b)
                .unwrap()
                .get("status")
                .as_str(),
            Some("queued")
        );
        release.send(()).unwrap();
        let j = await_job(h.addr(), &queued);
        assert_eq!(j.get("status").as_str(), Some("done"));

        let admitted = (keep + 4 + 2 + hits) as u64;
        let (_, _, b) = get(h.addr(), "/v1/healthz");
        let health = parrot_telemetry::json::parse(&b).unwrap();
        assert_eq!(health.get("jobs").as_u64(), Some(admitted));
        let (a, c, s, r, f) = h.counters().read();
        assert_eq!((a, c, s, r, f), (admitted, admitted, 0, 0, 0));
        assert!(h.counters().reconciles());
        h.shutdown();
    }
}
