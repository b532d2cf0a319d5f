//! Layer 4 of the service: the job table and result storage.
//!
//! [`JobTable`] tracks each admitted job from `queued` through
//! `running` to `done`/`failed`, with live progress read from the
//! [`Progress`] handle that the worker installs into the sharded
//! telemetry merge; it keeps every active job and a bounded number of
//! finished ones. [`ResultCache`] is a bounded in-memory LRU keyed by
//! the job's config fingerprint — a repeated POST of the same canonical
//! spec is a cache hit and never re-executes.

use crate::wire::{JobKind, JobSpec};
use parrot_telemetry::json::Value;
use parrot_telemetry::shard::Progress;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Lifecycle of one admitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the result is in the cache under the job's fingerprint.
    Done,
    /// Execution failed; the error string is on the record.
    Failed,
}

impl JobStatus {
    /// Queued or running: not yet finished.
    fn is_active(self) -> bool {
        matches!(self, JobStatus::Queued | JobStatus::Running)
    }

    /// The wire name of this status.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// One admitted job.
#[derive(Clone)]
pub struct Job {
    /// Dense id, assigned at admission.
    pub id: u64,
    /// The parsed submission.
    pub spec: JobSpec,
    /// FNV-1a fingerprint of the canonical spec bytes.
    pub fingerprint: u64,
    /// Was this job shed to SimPoint-sampled mode at admission?
    pub shed: bool,
    /// Whether the result came from the cache without execution.
    pub cached: bool,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Live work counter, ticked by the sharded telemetry merge.
    pub progress: Arc<Progress>,
    /// Error detail when `status == Failed`.
    pub error: Option<String>,
}

impl Job {
    /// The status document served at `GET /v1/jobs/:id`.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("job", Value::Str(job_name(self.id))),
            ("kind", Value::Str(self.spec.kind().name().to_string())),
            ("status", Value::Str(self.status.name().to_string())),
            ("shed", Value::Bool(self.shed)),
            ("cached", Value::Bool(self.cached)),
            (
                "fingerprint",
                Value::Str(format!("{:016x}", self.fingerprint)),
            ),
            (
                "progress",
                Value::obj([
                    ("done", Value::int(self.progress.done())),
                    ("total", Value::int(self.progress.total())),
                ]),
            ),
        ];
        if let Some(e) = &self.error {
            fields.push(("error", Value::Str(e.clone())));
        }
        Value::obj(fields)
    }
}

/// The printable job id (`job-00000002`), as returned by `POST /v1/jobs`.
pub fn job_name(id: u64) -> String {
    format!("job-{id:08}")
}

/// Inverse of [`job_name`].
pub fn parse_job_name(s: &str) -> Option<u64> {
    s.strip_prefix("job-")?.parse().ok()
}

/// The jobs the server tracks, by id: every queued or running job, plus
/// the most recently finished ones. When a job finishes, the oldest
/// finished jobs beyond `keep_finished` are evicted, so the table stays
/// bounded however long the server runs.
pub struct JobTable {
    keep_finished: usize,
    inner: Mutex<TableInner>,
}

#[derive(Default)]
struct TableInner {
    jobs: BTreeMap<u64, Job>,
    /// Ids of the finished jobs still held, in the order they finished.
    finished: VecDeque<u64>,
    /// Ids issued so far; ids run densely from 1.
    issued: u64,
}

impl TableInner {
    /// Note that job `id` finished, then evict the oldest finished jobs
    /// beyond `keep`.
    fn retire(&mut self, id: u64, keep: usize) {
        self.finished.push_back(id);
        while self.finished.len() > keep {
            if let Some(old) = self.finished.pop_front() {
                self.jobs.remove(&old);
            }
        }
    }
}

impl JobTable {
    /// A table that keeps at most `keep_finished` finished jobs.
    pub fn new(keep_finished: usize) -> JobTable {
        JobTable {
            keep_finished,
            inner: Mutex::new(TableInner::default()),
        }
    }

    /// Admit a job; returns its id.
    pub fn insert(&self, spec: JobSpec, fingerprint: u64, shed: bool, total: u64) -> u64 {
        self.admit(spec, fingerprint, shed, total, false)
    }

    /// Record a cache hit as an already-done job (no execution).
    pub fn insert_cached(&self, spec: JobSpec, fingerprint: u64) -> u64 {
        self.admit(spec, fingerprint, false, 0, true)
    }

    fn admit(&self, spec: JobSpec, fingerprint: u64, shed: bool, total: u64, cached: bool) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        inner.issued += 1;
        let id = inner.issued;
        let job = Job {
            id,
            spec,
            fingerprint,
            shed,
            cached,
            status: if cached {
                JobStatus::Done
            } else {
                JobStatus::Queued
            },
            progress: Progress::new(total),
            error: None,
        };
        inner.jobs.insert(id, job);
        if cached {
            inner.retire(id, self.keep_finished);
        }
        id
    }

    /// Snapshot one job; `None` if it was never issued or has been evicted.
    pub fn get(&self, id: u64) -> Option<Job> {
        self.inner.lock().unwrap().jobs.get(&id).cloned()
    }

    /// Mutate one job under the lock. A job that this leaves finished
    /// counts toward the finished bound from then on.
    pub fn update(&self, id: u64, f: impl FnOnce(&mut Job)) {
        let mut inner = self.inner.lock().unwrap();
        let Some(j) = inner.jobs.get_mut(&id) else {
            return;
        };
        let was_active = j.status.is_active();
        f(j);
        if was_active && !j.status.is_active() {
            inner.retire(id, self.keep_finished);
        }
    }

    /// Number of jobs ever admitted: the last id issued.
    pub fn issued(&self) -> u64 {
        self.inner.lock().unwrap().issued
    }

    /// Number of jobs held now, active and finished.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    /// Whether the table holds no job.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of queued or running jobs, in total and per kind — the
    /// admission controller's view of in-flight load.
    pub fn count_active(&self) -> (usize, [usize; JobKind::ALL.len()]) {
        let inner = self.inner.lock().unwrap();
        let mut per_kind = [0usize; JobKind::ALL.len()];
        let mut total = 0usize;
        for j in inner.jobs.values() {
            if j.status.is_active() {
                per_kind[j.spec.kind().index()] += 1;
                total += 1;
            }
        }
        (total, per_kind)
    }
}

/// A bounded in-memory LRU over result documents, keyed by config
/// fingerprint. Sits in front of whatever on-disk cache the executor
/// maintains: the server consults this first, so a repeated POST never
/// re-executes, and eviction only ever costs a re-run, never correctness.
pub struct ResultCache {
    cap: usize,
    inner: Mutex<CacheInner>,
}

#[derive(Default)]
struct CacheInner {
    map: BTreeMap<u64, Arc<Value>>,
    /// Recency order, least-recent first.
    order: VecDeque<u64>,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// A cache holding at most `cap` result documents.
    pub fn new(cap: usize) -> ResultCache {
        ResultCache {
            cap: cap.max(1),
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// Look up a fingerprint, bumping its recency on a hit.
    pub fn get(&self, fp: u64) -> Option<Arc<Value>> {
        let mut inner = self.inner.lock().unwrap();
        match inner.map.get(&fp).cloned() {
            Some(v) => {
                inner.order.retain(|k| *k != fp);
                inner.order.push_back(fp);
                inner.hits += 1;
                Some(v)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) a result, evicting the least-recently-used
    /// entry when over capacity.
    pub fn put(&self, fp: u64, v: Arc<Value>) {
        let mut inner = self.inner.lock().unwrap();
        if inner.map.insert(fp, v).is_none() {
            inner.order.push_back(fp);
        } else {
            inner.order.retain(|k| *k != fp);
            inner.order.push_back(fp);
        }
        while inner.map.len() > self.cap {
            if let Some(old) = inner.order.pop_front() {
                inner.map.remove(&old);
            }
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` since startup.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.hits, inner.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_names_roundtrip() {
        assert_eq!(job_name(7), "job-00000007");
        assert_eq!(parse_job_name("job-00000007"), Some(7));
        assert_eq!(parse_job_name("job-x"), None);
        assert_eq!(parse_job_name("7"), None);
    }

    #[test]
    fn lru_evicts_least_recent_first() {
        let c = ResultCache::new(2);
        c.put(1, Arc::new(Value::int(1)));
        c.put(2, Arc::new(Value::int(2)));
        assert!(c.get(1).is_some(), "touch 1 so 2 is now least-recent");
        c.put(3, Arc::new(Value::int(3)));
        assert!(c.get(2).is_none(), "2 evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        let (hits, misses) = c.stats();
        assert_eq!((hits, misses), (3, 1));
    }

    #[test]
    fn table_tracks_lifecycle_and_active_counts() {
        let t = JobTable::new(4);
        let spec = JobSpec::parse(r#"{"v":1,"kind":"sim","model":"N","app":"gcc"}"#).unwrap();
        let id = t.insert(spec.clone(), 0xabc, false, 7);
        assert_eq!(t.get(id).unwrap().status, JobStatus::Queued);
        let (active, per_kind) = t.count_active();
        assert_eq!(active, 1);
        assert_eq!(per_kind[JobKind::Sim.index()], 1);
        t.update(id, |j| j.status = JobStatus::Done);
        assert_eq!(t.count_active().0, 0);
        let cached = t.insert_cached(spec, 0xabc);
        let j = t.get(cached).unwrap();
        assert!(j.cached);
        assert_eq!(j.status, JobStatus::Done);
    }

    #[test]
    fn table_keeps_active_jobs_and_a_bounded_number_of_finished_ones() {
        let t = JobTable::new(2);
        let spec = JobSpec::parse(r#"{"v":1,"kind":"sim","model":"N","app":"gcc"}"#).unwrap();
        let queued = t.insert(spec.clone(), 1, false, 0);
        let running = t.insert(spec.clone(), 2, false, 0);
        t.update(running, |j| j.status = JobStatus::Running);
        let done: Vec<u64> = (0..5).map(|fp| t.insert_cached(spec.clone(), fp)).collect();
        let failed = t.insert(spec.clone(), 9, false, 0);
        t.update(failed, |j| j.status = JobStatus::Failed);
        assert_eq!(t.issued(), 8);
        assert_eq!(t.len(), 4, "two active plus the two newest finished");
        assert!(t.get(queued).is_some() && t.get(running).is_some());
        assert!(t.get(done[4]).is_some() && t.get(failed).is_some());
        assert!(done[..4].iter().all(|&id| t.get(id).is_none()));
        assert_eq!(t.count_active().0, 2);
    }
}
