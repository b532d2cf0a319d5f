//! End-to-end tests of `parrot serve` over the real backend: an
//! in-process server on an ephemeral port, driven with raw HTTP/1.1
//! over `TcpStream` (no client library — the service speaks plain
//! sockets and so does the test).
//!
//! The load-bearing assertion is the byte-identity contract: the body
//! of `GET /v1/results/:fingerprint` must equal, byte for byte, what
//! the equivalent CLI invocation prints on stdout — for `sim` that is
//! `parrot run MODEL APP --json` (`SimReport::to_json` pretty-printed),
//! for `sweep` it is `parrot sweep APP --json` (`sweep_app_doc`).

use parrot_bench::serve_backend::{sweep_app_doc, Backend};
use parrot_core::{Model, SimRequest};
use parrot_serve::{serve, AdmissionConfig, ServerConfig};
use parrot_telemetry::json::{parse, Value};
use parrot_workloads::{app_by_name, Workload};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn request(addr: SocketAddr, raw: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(raw.as_bytes()).unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").unwrap();
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

/// Submit, poll to completion, and fetch the result body.
fn run_job(addr: SocketAddr, spec: &str) -> String {
    let (status, _, body) = post_job(addr, spec);
    assert!(status == 200 || status == 202, "{status}: {body}");
    let doc = parse(&body).unwrap();
    let fp = doc.get("fingerprint").as_str().unwrap().to_string();
    let id = doc.get("job").as_str().unwrap().to_string();
    for _ in 0..600 {
        let (s, _, b) = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(s, 200, "{b}");
        let j = parse(&b).unwrap();
        match j.get("status").as_str().unwrap() {
            "done" => {
                let (s, _, b) = get(addr, &format!("/v1/results/{fp}"));
                assert_eq!(s, 200, "{b}");
                return b;
            }
            "failed" => panic!("job failed: {b}"),
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    panic!("job never completed");
}

fn test_server(workers: usize) -> parrot_serve::ServerHandle<Backend> {
    serve(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            ..ServerConfig::default()
        },
        Backend::new(),
    )
    .unwrap()
}

#[test]
fn a_posted_sim_job_is_byte_identical_to_the_cli_report() {
    let h = test_server(2);
    let served = run_job(
        h.addr(),
        r#"{"v":1,"kind":"sim","model":"TOW","app":"gcc","insts":30000}"#,
    );
    // What `parrot run TOW gcc --insts 30000 --json` prints on stdout:
    // the report, pretty-printed (which carries its own trailing
    // newline), via the same request API.
    let wl = Workload::build(&app_by_name("gcc").unwrap());
    let cli = SimRequest::model(Model::TOW)
        .insts(30_000)
        .run(&wl)
        .to_json()
        .to_json_pretty();
    assert_eq!(served, cli, "served result != CLI stdout bytes");
    h.shutdown();
}

#[test]
fn a_posted_sweep_job_is_byte_identical_to_the_cli_document() {
    let h = test_server(2);
    let served = run_job(
        h.addr(),
        r#"{"v":1,"kind":"sweep","app":"gcc","insts":20000}"#,
    );
    let cli = sweep_app_doc(&app_by_name("gcc").unwrap(), 20_000, None).to_json_pretty();
    assert_eq!(
        served, cli,
        "served sweep != `parrot sweep gcc --json` bytes"
    );
    h.shutdown();
}

#[test]
fn a_repeated_post_is_a_cache_hit_and_does_not_re_execute() {
    let h = test_server(2);
    let spec = r#"{"v":1,"kind":"sim","model":"N","app":"swim","insts":20000}"#;
    let first = run_job(h.addr(), spec);
    let (status, _, body) = post_job(h.addr(), spec);
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).unwrap();
    assert_eq!(doc.get("cached"), &Value::Bool(true));
    let fp = doc.get("fingerprint").as_str().unwrap();
    let (_, _, again) = get(h.addr(), &format!("/v1/results/{fp}"));
    assert_eq!(first, again, "cache must serve the identical bytes");
    // One miss (the first execution); the fetches and the resubmit hit.
    let (_, misses) = h.cache_stats();
    assert_eq!(misses, 1, "the resubmit must not re-execute");
    h.shutdown();
}

#[test]
fn overload_sheds_sim_jobs_to_sampled_mode_and_the_ledger_reconciles() {
    let h = serve(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            cache_cap: 64,
            admission: AdmissionConfig {
                queue_cap: 5,
                shed_mark: 1,
                kind_budget: [5, 5, 5, 5, 5],
                retry_after_s: 2,
            },
        },
        Backend::new(),
    )
    .unwrap();
    // Hammer with distinct real jobs; budget large enough that the
    // worker is busy while later submissions arrive.
    let apps = [
        "gcc", "swim", "bzip", "parser", "art", "gzip", "mesa", "vpr",
    ];
    let (mut accepted, mut shed, mut rejected) = (0u64, 0u64, 0u64);
    for app in apps {
        let body = format!(r#"{{"v":1,"kind":"sim","model":"TOW","app":"{app}","insts":150000}}"#);
        let (status, head, resp) = post_job(h.addr(), &body);
        match status {
            200 | 202 => {
                accepted += 1;
                let j = parse(&resp).unwrap();
                if j.get("shed") == &Value::Bool(true) {
                    shed += 1;
                }
            }
            429 => {
                rejected += 1;
                assert!(head.contains("Retry-After: 2"), "{head}");
                let j = parse(&resp).unwrap();
                assert_eq!(j.get("error").get("code").as_str(), Some("overloaded"));
            }
            other => panic!("unexpected status {other}: {resp}"),
        }
    }
    assert!(shed > 0, "the shed mark must bite");
    assert!(rejected > 0, "the queue cap must bite");
    // Drain.
    for _ in 0..600 {
        let (_, _, b) = get(h.addr(), "/v1/healthz");
        if parse(&b).unwrap().get("active").as_u64() == Some(0) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let (a, c, s, r, f) = h.counters().read();
    assert_eq!(a, accepted + rejected);
    assert_eq!(s, shed);
    assert_eq!(r, rejected);
    assert_eq!(f, 0, "no job may fail under overload");
    assert_eq!(a, c + s + r + f, "serve:admitted reconciles exactly");
    h.shutdown();
}

#[test]
fn unknown_apps_and_models_are_structured_400s_from_the_real_backend() {
    let h = test_server(1);
    let (s, _, b) = post_job(
        h.addr(),
        r#"{"v":1,"kind":"sim","model":"TOW","app":"not-a-benchmark"}"#,
    );
    assert_eq!(s, 400);
    assert_eq!(
        parse(&b).unwrap().get("error").get("code").as_str(),
        Some("unknown_app")
    );
    let (s, b) = {
        let (s, _, b) = post_job(h.addr(), r#"{"v":1,"kind":"sim","model":"Z9","app":"gcc"}"#);
        (s, b)
    };
    assert_eq!(s, 400);
    assert_eq!(
        parse(&b).unwrap().get("error").get("code").as_str(),
        Some("unknown_model")
    );
    // Neither reached the ledger.
    let (a, ..) = h.counters().read();
    assert_eq!(a, 0);
    h.shutdown();
}
