//! The serve stack's dispatcher: one job table, one FIFO queue and a set
//! of worker **lanes**, shared by the in-process pool and the fleet front.
//!
//! Same threading model as `fgqos_bench::sweep`: plain `std` threads
//! over a mutex-protected FIFO queue, no external dependencies. The
//! queue is strictly order-stable — with one lane
//! (`FGQOS_SERVE_THREADS=1`) jobs execute exactly in submission order.
//!
//! A lane is one thread popping queue entries. A **local** lane calls
//! the injected [`Executor`] / [`BatchExecutor`]; because a `Soc` is
//! `!Send`, each call builds its simulator locally, exactly as sweep
//! workers do. A **remote** lane forwards the entry to one registered
//! worker process (see [`crate::coordinator`]). Executor panics are
//! caught: the entry's jobs fail with the panic message and the lane
//! keeps serving.
//!
//! Lifecycle of a job: `queued → running → done | failed`, or
//! `queued → expired` when its deadline passes before a lane picks it
//! up. Shutdown is a *graceful drain*: no new submissions are accepted,
//! every already-queued job still executes, and [`ServeCore::drain`]
//! returns only when the queue is empty and every lane is idle.
//!
//! Every lane belongs to a **group**: a local lane is its own group, and
//! the remote lanes of one worker share that worker's group. A queue
//! entry is either unpinned (any lane pops it) or pinned to one group.
//! On a local pool a `submit_batch`'s uncached points travel as one
//! entry pinned to the least-loaded lane, so the batch executor captures
//! the warm boundary once and forks it per point; on a fleet they split
//! into one contiguous slice per live worker.

use crate::admission::{AdmissionConfig, AdmissionControl};
use crate::cache::{batch_point_key, job_key, ResultCache};
use crate::coordinator::{Fleet, RemoteLane};
use crate::live::LiveRegistry;
use crate::protocol::{BatchPoint, BatchSpec, JobSpec};
use crate::{panic_message, recover, BatchExecutor, Executor};
use fgqos_bench::report::Report;
use fgqos_sim::json::Value;
use fgqos_sim::metrics::MetricsRegistry;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the FIFO queue.
    Queued,
    /// Currently executing on a lane.
    Running,
    /// Finished; the report is available.
    Done,
    /// The executor reported an error.
    Failed(String),
    /// The deadline passed before a lane picked the job up.
    Expired,
}

impl JobState {
    /// The protocol's wire name for this state.
    pub fn wire_name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Expired => "expired",
        }
    }
}

/// A queued job's id and cache address.
struct JobKey {
    id: u64,
    hash: u64,
    key: String,
}

/// What a queue entry asks a lane to run.
pub(crate) enum Payload {
    /// One `submit`.
    Single(JobSpec),
    /// A `submit_batch` slice holding only uncached points, in point
    /// order.
    Batch(BatchSpec),
}

struct QueuedJob {
    payload: Payload,
    /// One job per report the payload yields, in order.
    jobs: Vec<JobKey>,
    /// The lane group allowed to pop this entry; `None` means any lane.
    group: Option<usize>,
    deadline: Option<Instant>,
}

/// Why a lane produced no reports for an entry.
pub(crate) enum LaneError {
    /// The lane's worker is unreachable, dead or hung: re-queue.
    Down,
    /// A deterministic failure: fail the entry's jobs.
    Fail(String),
}

/// How a lane executes its entries.
pub(crate) enum Lane {
    /// In process, through the injected executors.
    Local {
        executor: Executor,
        batch_executor: BatchExecutor,
    },
    /// Forwarded to one registered worker.
    Remote(RemoteLane),
}

impl Lane {
    /// `false` once the lane can never run anything again.
    fn alive(&self) -> bool {
        match self {
            Lane::Local { .. } => true,
            Lane::Remote(remote) => remote.alive(),
        }
    }

    /// One report document per job of the entry, in order.
    fn run(&mut self, payload: &Payload) -> Result<Vec<Value>, LaneError> {
        match self {
            Lane::Local {
                executor,
                batch_executor,
            } => catch_unwind(AssertUnwindSafe(|| match payload {
                Payload::Single(spec) => executor(spec).map(|report| vec![report]),
                Payload::Batch(spec) => batch_executor(spec),
            }))
            .unwrap_or_else(|panic| Err(panic_message(panic)))
            .map(|reports| reports.iter().map(Report::to_json).collect())
            .map_err(LaneError::Fail),
            Lane::Remote(remote) => remote.run(payload),
        }
    }
}

#[derive(Default)]
struct LaneSlot {
    group: usize,
    executed: u64,
    /// Set when a remote lane exits because its worker died.
    retired: bool,
}

struct JobEntry {
    state: JobState,
    report: Option<Arc<Value>>,
}

#[derive(Default)]
struct PoolState {
    queue: VecDeque<QueuedJob>,
    jobs: HashMap<u64, JobEntry>,
    lanes: Vec<LaneSlot>,
    next_job: u64,
    draining: bool,
    busy_lanes: usize,
    live_lanes: usize,
    submitted: u64,
    executed: u64,
    failed: u64,
    expired: u64,
    batches: u64,
    requeued: u64,
}

impl PoolState {
    /// Opens a job: born `Done` with `cached`, else `Queued`.
    fn open_job(&mut self, cached: &Option<Arc<Value>>) -> u64 {
        self.next_job += 1;
        self.submitted += 1;
        let state = match cached {
            Some(_) => JobState::Done,
            None => JobState::Queued,
        };
        let report = cached.clone();
        self.jobs.insert(self.next_job, JobEntry { state, report });
        self.next_job
    }

    fn set(&mut self, id: u64, state: JobState, report: Option<Arc<Value>>) {
        if let Some(entry) = self.jobs.get_mut(&id) {
            entry.state = state;
            entry.report = report;
        }
    }

    fn fail(&mut self, jobs: &[JobKey], message: &str) {
        for job in jobs {
            self.set(job.id, JobState::Failed(message.to_string()), None);
            self.failed += 1;
        }
    }
}

/// Counters returned by [`ServeCore::drain`], embedded in the
/// `shutdown` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Jobs accepted over the server's lifetime (cache hits included).
    pub submitted: u64,
    /// Jobs actually executed by a lane.
    pub executed: u64,
    /// Jobs whose executor returned an error.
    pub failed: u64,
    /// Jobs that expired in the queue.
    pub expired: u64,
    /// Entries re-queued after their fleet worker was lost (always 0 on
    /// a local pool).
    pub requeued: u64,
}

/// Number of pool workers: `FGQOS_SERVE_THREADS` override, else the
/// machine's available parallelism.
pub fn worker_count() -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    std::env::var("FGQOS_SERVE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(hw)
}

/// Shared state of a running service: queue, jobs, lanes, cache,
/// admission and telemetry. Connection handlers and lanes all operate
/// on an `Arc<ServeCore>`.
pub struct ServeCore {
    state: Mutex<PoolState>,
    wakeup: Condvar,
    /// The content-addressed result cache.
    pub cache: ResultCache,
    /// The per-client ingress regulator bank.
    pub admission: AdmissionControl,
    /// The live-run table (v4 `subscribe`/`control`/`journal`).
    pub live: LiveRegistry,
    /// The worker registry when this core fronts a fleet.
    pub(crate) fleet: Option<Arc<Fleet>>,
    started: Instant,
    busy_nanos: AtomicU64,
    frames: AtomicU64,
    malformed: AtomicU64,
    oversized: AtomicU64,
}

impl ServeCore {
    /// Creates the shared state for a pool of `workers` local lanes with
    /// an in-memory result cache.
    pub fn new(workers: usize, admission: AdmissionConfig) -> Self {
        Self::with_cache(workers, admission, ResultCache::new())
    }

    /// [`ServeCore::new`] with a caller-supplied cache — how a server
    /// gets a [`ResultCache::persistent`] one that survives restarts.
    pub fn with_cache(workers: usize, admission: AdmissionConfig, cache: ResultCache) -> Self {
        Self::build(workers, admission, cache, None)
    }

    /// A core with `local_lanes` lane slots (lane `i` is group `i`), plus
    /// the worker registry when it fronts a fleet.
    pub(crate) fn build(
        local_lanes: usize,
        admission: AdmissionConfig,
        cache: ResultCache,
        fleet: Option<Arc<Fleet>>,
    ) -> Self {
        let lanes = (0..local_lanes)
            .map(|group| LaneSlot {
                group,
                ..LaneSlot::default()
            })
            .collect();
        ServeCore {
            state: Mutex::new(PoolState {
                lanes,
                ..PoolState::default()
            }),
            wakeup: Condvar::new(),
            cache,
            admission: AdmissionControl::new(admission),
            live: LiveRegistry::new(),
            fleet,
            started: Instant::now(),
            busy_nanos: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        recover(self.state.lock())
    }

    /// Counts one received frame (any op).
    pub fn count_frame(&self) {
        self.frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one unparsable frame.
    pub fn count_malformed(&self) {
        self.malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one over-limit frame.
    pub fn count_oversized(&self) {
        self.oversized.fetch_add(1, Ordering::Relaxed);
    }

    /// Accepts a job: returns its id plus the cached report when the
    /// spec is a cache hit (such jobs are born `Done` and never queue).
    /// `Err` when the server is draining.
    pub fn submit(
        &self,
        spec: JobSpec,
        deadline: Option<Instant>,
    ) -> Result<(u64, Option<Arc<Value>>), String> {
        let (hash, key) = job_key(&spec);
        let cached = self.cache.get(hash, &key);
        let mut st = self.lock();
        if st.draining {
            return Err("server is shutting down".into());
        }
        let id = st.open_job(&cached);
        if cached.is_none() {
            st.queue.push_back(QueuedJob {
                payload: Payload::Single(spec),
                jobs: vec![JobKey { id, hash, key }],
                group: None,
                deadline,
            });
            self.enqueued(&mut st);
        }
        Ok((id, cached))
    }

    /// Accepts a warm-start batch: one job id per point, in point order,
    /// with the cached points born `Done`. On a local pool the uncached
    /// remainder is enqueued as one entry pinned to the least-loaded
    /// lane (returned as the second element); on a fleet it splits into
    /// one contiguous slice per live worker and no lane is returned.
    /// `None` also when the whole batch was answered from the cache.
    /// `Err` when the server is draining.
    #[allow(clippy::type_complexity)]
    pub fn submit_batch(
        &self,
        spec: BatchSpec,
        deadline: Option<Instant>,
    ) -> Result<(Vec<(u64, Option<Arc<Value>>)>, Option<usize>), String> {
        let addressed: Vec<(u64, String, Option<Arc<Value>>)> = spec
            .points
            .iter()
            .map(|p| {
                let (hash, key) = batch_point_key(&spec, p);
                let cached = self.cache.get(hash, &key);
                (hash, key, cached)
            })
            .collect();
        let mut st = self.lock();
        if st.draining {
            return Err("server is shutting down".into());
        }
        st.batches += 1;
        let mut acks = Vec::with_capacity(spec.points.len());
        let mut pending: Vec<(JobKey, BatchPoint)> = Vec::new();
        for ((hash, key, cached), point) in addressed.into_iter().zip(&spec.points) {
            let id = st.open_job(&cached);
            if cached.is_none() {
                pending.push((JobKey { id, hash, key }, *point));
            }
            acks.push((id, cached));
        }
        if pending.is_empty() {
            return Ok((acks, None));
        }
        let (groups, lane) = match &self.fleet {
            None => {
                // Pin to the lane with the fewest queued pinned entries —
                // deterministic given the queue state, lowest index on
                // ties.
                let depth =
                    |lane: &usize| st.queue.iter().filter(|j| j.group == Some(*lane)).count();
                let lane = (0..st.lanes.len()).min_by_key(depth).unwrap_or(0);
                (vec![Some(lane)], Some(lane))
            }
            // An empty fleet still gets one (unpinned) entry: the sweep in
            // `enqueued` fails it.
            Some(fleet) => match fleet.live_groups() {
                live if live.is_empty() => (vec![None], None),
                live => (live.into_iter().map(Some).collect(), None),
            },
        };
        // Contiguous slices; earlier slices get the rounding remainder.
        let slices = groups.len().min(pending.len());
        let (base, extra) = (pending.len() / slices, pending.len() % slices);
        let mut rest = pending.into_iter();
        for (i, group) in groups.into_iter().take(slices).enumerate() {
            let (jobs, points): (Vec<JobKey>, Vec<BatchPoint>) =
                rest.by_ref().take(base + usize::from(i < extra)).unzip();
            st.queue.push_back(QueuedJob {
                payload: Payload::Batch(BatchSpec {
                    points,
                    ..spec.clone()
                }),
                jobs,
                group,
                deadline,
            });
        }
        self.enqueued(&mut st);
        Ok((acks, lane))
    }

    /// Wakes the lanes after new queue entries (all of them: a pinned
    /// entry is only for its group's lanes).
    fn enqueued(&self, st: &mut PoolState) {
        self.sweep(st);
        self.wakeup.notify_all();
    }

    /// Fleet bookkeeping after a worker died (or before any registered):
    /// entries pinned to a dead worker are unpinned so the rest of the
    /// fleet takes them, and with no live worker left every queued job
    /// fails. A no-op on a local pool.
    fn sweep(&self, st: &mut PoolState) {
        let Some(fleet) = &self.fleet else { return };
        let live = fleet.live_groups();
        if live.is_empty() {
            for job in std::mem::take(&mut st.queue) {
                st.fail(&job.jobs, "no live workers in the fleet");
            }
        }
        for job in &mut st.queue {
            if job.group.is_some_and(|g| !live.contains(&g)) {
                job.group = None;
            }
        }
    }

    /// Re-homes queued work after the heartbeat marked a worker dead.
    pub(crate) fn worker_lost(&self) {
        let mut st = self.lock();
        self.sweep(&mut st);
        self.wakeup.notify_all();
    }

    /// Adds a lane slot in `group`; returns its lane index for
    /// [`run_lane`](Self::run_lane).
    pub(crate) fn add_lane(&self, group: usize) -> usize {
        let mut st = self.lock();
        st.lanes.push(LaneSlot {
            group,
            ..LaneSlot::default()
        });
        st.lanes.len() - 1
    }

    /// A job's state plus, while queued, its 0-based queue position.
    pub fn status(&self, id: u64) -> Option<(JobState, Option<usize>)> {
        let st = self.lock();
        let entry = st.jobs.get(&id)?;
        let position = match entry.state {
            JobState::Queued => st
                .queue
                .iter()
                .position(|j| j.jobs.iter().any(|k| k.id == id)),
            _ => None,
        };
        Some((entry.state.clone(), position))
    }

    /// A finished job's report (`None` until it is done).
    pub fn result(&self, id: u64) -> Option<(JobState, Option<Arc<Value>>)> {
        let st = self.lock();
        let entry = st.jobs.get(&id)?;
        Some((entry.state.clone(), entry.report.clone()))
    }

    /// Lane thread body: pop the first entry this lane may take
    /// (unpinned, or pinned to its group), expire it if its deadline
    /// passed, else execute and publish. Returns when the core is draining and the queue is
    /// empty, or when a remote lane's worker died.
    pub(crate) fn run_lane(&self, lane: usize, mut exec: Lane) {
        self.lock().live_lanes += 1;
        loop {
            let job = {
                let mut st = self.lock();
                loop {
                    if !exec.alive() {
                        st.lanes[lane].retired = true;
                        break None;
                    }
                    let group = st.lanes[lane].group;
                    let eligible = st
                        .queue
                        .iter()
                        .position(|j| j.group.is_none_or(|g| g == group));
                    if let Some(job) = eligible.and_then(|pos| st.queue.remove(pos)) {
                        if job.deadline.is_some_and(|d| Instant::now() > d) {
                            for k in &job.jobs {
                                st.set(k.id, JobState::Expired, None);
                                st.expired += 1;
                            }
                            continue;
                        }
                        for k in &job.jobs {
                            st.set(k.id, JobState::Running, None);
                        }
                        st.busy_lanes += 1;
                        break Some(job);
                    }
                    // Even while draining, stay until the queue is empty:
                    // a dead worker's entry may come back unpinned.
                    if st.draining && st.queue.is_empty() {
                        break None;
                    }
                    st = recover(self.wakeup.wait(st));
                }
            };
            let Some(job) = job else {
                self.lock().live_lanes -= 1;
                self.wakeup.notify_all();
                return;
            };
            let t0 = Instant::now();
            let outcome = exec.run(&job.payload).and_then(|reports| {
                if reports.len() == job.jobs.len() {
                    Ok(reports)
                } else {
                    Err(LaneError::Fail(format!(
                        "batch executor returned {} reports for {} points",
                        reports.len(),
                        job.jobs.len()
                    )))
                }
            });
            self.busy_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let mut st = self.lock();
            st.busy_lanes -= 1;
            match outcome {
                Ok(reports) => {
                    st.lanes[lane].executed += 1;
                    for (k, report) in job.jobs.into_iter().zip(reports) {
                        let report = Arc::new(report);
                        self.cache.insert(k.hash, k.key, Arc::clone(&report));
                        st.set(k.id, JobState::Done, Some(report));
                        st.executed += 1;
                    }
                }
                Err(LaneError::Fail(message)) => {
                    st.lanes[lane].executed += 1;
                    st.fail(&job.jobs, &message);
                }
                Err(LaneError::Down) => {
                    // The worker died under the entry: hand it back to the
                    // head of the queue for the rest of the fleet.
                    // Executors are pure, so the re-run is byte-identical.
                    for k in &job.jobs {
                        st.set(k.id, JobState::Queued, None);
                    }
                    st.requeued += 1;
                    st.queue.push_front(QueuedJob {
                        group: None,
                        deadline: None,
                        ..job
                    });
                    self.sweep(&mut st);
                }
            }
            self.wakeup.notify_all();
        }
    }

    /// Graceful drain: refuse new submissions, execute everything
    /// already queued, and return once every lane is idle or exited; a
    /// fleet front then shuts its workers down. Idempotent; concurrent
    /// callers all block until the drain ends.
    pub fn drain(&self) -> DrainSummary {
        // Live runs first: tell each to finish at its next window
        // boundary and wait for the executors to let go. A live run
        // reacts within one window (plus its pacing sleep), so the
        // bound below is generous.
        self.live.drain(std::time::Duration::from_secs(60));
        let summary = {
            let mut st = self.lock();
            st.draining = true;
            self.wakeup.notify_all();
            while !st.queue.is_empty() || st.busy_lanes > 0 || st.live_lanes > 0 {
                st = recover(self.wakeup.wait(st));
            }
            DrainSummary {
                submitted: st.submitted,
                executed: st.executed,
                failed: st.failed,
                expired: st.expired,
                requeued: st.requeued,
            }
        };
        if let Some(fleet) = &self.fleet {
            fleet.shutdown_workers();
        }
        summary
    }

    /// Snapshot of the service's metrics under stable `serve.*` names
    /// (plus `coordinator.*` on a fleet front), exportable through the
    /// standard [`MetricsRegistry`] JSON/CSV exporters.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let st = self.lock();
        let frames = self.frames.load(Ordering::Relaxed);
        let malformed = self.malformed.load(Ordering::Relaxed);
        reg.counter("serve.frames", frames);
        reg.counter("serve.frames.malformed", malformed);
        reg.counter(
            "serve.frames.oversized",
            self.oversized.load(Ordering::Relaxed),
        );
        reg.gauge("serve.queue_depth", st.queue.len() as f64);
        reg.counter("serve.jobs.submitted", st.submitted);
        reg.counter("serve.jobs.executed", st.executed);
        reg.counter("serve.jobs.failed", st.failed);
        reg.counter("serve.jobs.expired", st.expired);
        reg.counter("serve.cache.entries", self.cache.len() as u64);
        reg.counter("serve.cache.hits", self.cache.hits());
        reg.counter("serve.cache.misses", self.cache.misses());
        reg.gauge("serve.cache.hit_rate", self.cache.hit_rate());
        reg.counter("serve.jobs.batches", st.batches);
        let lanes = st.lanes.iter().filter(|l| !l.retired).count();
        reg.gauge("serve.workers", lanes as f64);
        reg.gauge("serve.workers.busy", st.busy_lanes as f64);
        let live = self.live.metrics();
        reg.counter("serve.live.sessions", live.sessions);
        reg.gauge("serve.live.active", live.active as f64);
        reg.counter("serve.live.frames", live.frames);
        reg.counter("serve.live.controls", live.controls);
        reg.counter("serve.live.dropped", live.dropped);
        for (lane, slot) in st.lanes.iter().enumerate() {
            let pinned = st
                .queue
                .iter()
                .filter(|j| j.group == Some(slot.group))
                .count();
            reg.gauge(format!("serve.lane.{lane}.queue_depth"), pinned as f64);
            reg.counter(format!("serve.lane.{lane}.executed"), slot.executed);
        }
        let elapsed = self.started.elapsed().as_nanos() as f64;
        let busy_ratio = if elapsed > 0.0 {
            self.busy_nanos.load(Ordering::Relaxed) as f64 / (elapsed * lanes.max(1) as f64)
        } else {
            0.0
        };
        reg.gauge("serve.workers.busy_ratio", busy_ratio);
        for (client, accepted, denied) in self.admission.snapshot() {
            reg.counter(format!("serve.client.{client}.accepted"), accepted);
            reg.counter(format!("serve.client.{client}.denied"), denied);
        }
        if let Some(fleet) = &self.fleet {
            fleet.export(&mut reg);
            reg.counter("coordinator.frames", frames);
            reg.counter("coordinator.frames.malformed", malformed);
            reg.counter("coordinator.jobs.submitted", st.submitted);
            reg.counter("coordinator.jobs.executed", st.executed);
            reg.counter("coordinator.jobs.failed", st.failed);
            reg.counter("coordinator.jobs.requeued", st.requeued);
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_bench::report::Report;
    use std::time::Duration;

    fn spec(tag: &str) -> JobSpec {
        JobSpec {
            scenario: format!("# {tag}\n[master a]\nkind cpu\n"),
            cycles: 1_000,
            until_done: None,
        }
    }

    /// An executor that renders the spec's scenario into a one-row
    /// report after an optional sleep.
    fn stub(delay: Duration) -> Executor {
        Arc::new(move |spec: &JobSpec| {
            std::thread::sleep(delay);
            let mut r = Report::new("stub");
            r.note(format!(
                "cycles={} len={}",
                spec.cycles,
                spec.scenario.len()
            ));
            Ok(r)
        })
    }

    fn start(core: &Arc<ServeCore>, n: usize, exec: Executor) -> Vec<std::thread::JoinHandle<()>> {
        start_batch(core, n, exec, crate::unsupported_batch_executor())
    }

    fn start_batch(
        core: &Arc<ServeCore>,
        n: usize,
        exec: Executor,
        batch: crate::BatchExecutor,
    ) -> Vec<std::thread::JoinHandle<()>> {
        (0..n)
            .map(|lane| {
                let core = Arc::clone(core);
                let lane_exec = Lane::Local {
                    executor: Arc::clone(&exec),
                    batch_executor: Arc::clone(&batch),
                };
                std::thread::spawn(move || core.run_lane(lane, lane_exec))
            })
            .collect()
    }

    fn wait_done(core: &ServeCore, id: u64) -> (JobState, Option<Arc<Value>>) {
        for _ in 0..2_000 {
            let (state, report) = core.result(id).expect("job exists");
            if !matches!(state, JobState::Queued | JobState::Running) {
                return (state, report);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("job {id} never finished");
    }

    #[test]
    fn executes_and_caches() {
        let core = Arc::new(ServeCore::new(2, AdmissionConfig::default()));
        let workers = start(&core, 2, stub(Duration::ZERO));
        let (id, cached) = core.submit(spec("a"), None).unwrap();
        assert!(cached.is_none(), "first submission is a miss");
        let (state, fresh) = wait_done(&core, id);
        assert_eq!(state, JobState::Done);
        let fresh = fresh.expect("report present");
        // Resubmission: born done, byte-identical shared report.
        let (id2, hit) = core.submit(spec("a"), None).unwrap();
        let hit = hit.expect("second submission hits the cache");
        assert!(Arc::ptr_eq(&hit, &fresh));
        assert_eq!(core.result(id2).unwrap().0, JobState::Done);
        assert_eq!(core.cache.hits(), 1);
        let summary = core.drain();
        assert_eq!(summary.submitted, 2);
        assert_eq!(summary.executed, 1, "the cache hit did not re-execute");
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn single_worker_executes_in_submission_order() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&order);
        let exec: Executor = Arc::new(move |spec: &JobSpec| {
            seen.lock().unwrap().push(spec.cycles);
            Ok(Report::new("stub"))
        });
        let workers = start(&core, 1, exec);
        for cycles in [10, 20, 30, 40] {
            let mut s = spec("order");
            s.cycles = cycles; // distinct specs: no cache interference
            core.submit(s, None).unwrap();
        }
        core.drain();
        assert_eq!(*order.lock().unwrap(), vec![10, 20, 30, 40]);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn deadline_expires_queued_jobs_unexecuted() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let workers = start(&core, 1, stub(Duration::from_millis(60)));
        // Job 1 occupies the single worker for 60 ms; job 2's deadline
        // passes while it waits in the queue.
        let (slow, _) = core.submit(spec("slow"), None).unwrap();
        let deadline = Instant::now() + Duration::from_millis(5);
        let (doomed, _) = core.submit(spec("doomed"), Some(deadline)).unwrap();
        assert_eq!(wait_done(&core, slow).0, JobState::Done);
        assert_eq!(wait_done(&core, doomed).0, JobState::Expired);
        let summary = core.drain();
        assert_eq!(summary.expired, 1);
        assert_eq!(summary.executed, 1);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn drain_finishes_the_whole_queue_first() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let workers = start(&core, 1, stub(Duration::from_millis(10)));
        let ids: Vec<u64> = (0..5)
            .map(|i| {
                let mut s = spec("drain");
                s.cycles = 1_000 + i;
                core.submit(s, None).unwrap().0
            })
            .collect();
        let summary = core.drain();
        assert_eq!(summary.executed, 5, "drain ran every queued job");
        for id in ids {
            assert_eq!(core.result(id).unwrap().0, JobState::Done);
        }
        assert!(
            core.submit(spec("late"), None).is_err(),
            "submissions after drain are refused"
        );
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn failed_jobs_report_the_error() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let exec: Executor = Arc::new(|_spec: &JobSpec| Err("boom".to_string()));
        let workers = start(&core, 1, exec);
        let (id, _) = core.submit(spec("fail"), None).unwrap();
        let (state, report) = wait_done(&core, id);
        assert_eq!(state, JobState::Failed("boom".into()));
        assert!(report.is_none());
        assert_eq!(core.drain().failed, 1);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn panicking_executor_fails_its_job_and_the_lane_keeps_serving() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let exec: Executor = Arc::new(|spec: &JobSpec| {
            assert!(spec.cycles != 13, "unlucky cycle count");
            Ok(Report::new("stub"))
        });
        let workers = start(&core, 1, exec);
        let mut doomed = spec("panic");
        doomed.cycles = 13;
        let (bad, _) = core.submit(doomed, None).unwrap();
        let (good, _) = core.submit(spec("fine"), None).unwrap();
        match wait_done(&core, bad).0 {
            JobState::Failed(message) => assert!(
                message.contains("unlucky cycle count"),
                "panic message carried: {message}"
            ),
            other => panic!("panicking job ended {other:?}"),
        }
        assert_eq!(wait_done(&core, good).0, JobState::Done, "lane survived");
        // The drain must come back: the lane is alive and idle.
        let (tx, rx) = std::sync::mpsc::channel();
        let drainer = Arc::clone(&core);
        std::thread::spawn(move || tx.send(drainer.drain()).unwrap());
        let summary = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("drain returned");
        assert_eq!((summary.failed, summary.executed), (1, 1));
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn metrics_snapshot_has_the_documented_names() {
        let core = Arc::new(ServeCore::new(3, AdmissionConfig::default()));
        core.admission.admit("alice", 128);
        core.count_frame();
        core.count_malformed();
        let reg = core.metrics();
        for name in [
            "serve.frames",
            "serve.frames.malformed",
            "serve.frames.oversized",
            "serve.queue_depth",
            "serve.jobs.submitted",
            "serve.jobs.executed",
            "serve.jobs.failed",
            "serve.jobs.expired",
            "serve.cache.entries",
            "serve.cache.hits",
            "serve.cache.misses",
            "serve.cache.hit_rate",
            "serve.jobs.batches",
            "serve.workers",
            "serve.workers.busy",
            "serve.workers.busy_ratio",
            "serve.lane.0.queue_depth",
            "serve.lane.0.executed",
            "serve.lane.2.queue_depth",
            "serve.lane.2.executed",
            "serve.client.alice.accepted",
            "serve.client.alice.denied",
        ] {
            assert!(reg.get(name).is_some(), "missing metric {name}");
        }
    }

    fn batch(tag: &str, points: &[(u64, u64)]) -> BatchSpec {
        BatchSpec {
            scenario: format!("# {tag}\n[master a]\nkind cpu\n"),
            cycles: 1_000,
            until_done: None,
            warmup: 500,
            points: points
                .iter()
                .map(|&(period, budget)| crate::protocol::BatchPoint { period, budget })
                .collect(),
            kind: crate::protocol::BatchKind::Sweep,
        }
    }

    /// A batch executor that renders one row per point, tagged with the
    /// point's knobs, and records which thread ran it.
    fn batch_stub(ran_on: Arc<Mutex<Vec<std::thread::ThreadId>>>) -> crate::BatchExecutor {
        Arc::new(move |spec: &BatchSpec| {
            ran_on.lock().unwrap().push(std::thread::current().id());
            Ok(spec
                .points
                .iter()
                .map(|p| {
                    let mut r = Report::new("batch-stub");
                    r.note(format!("period={} budget={}", p.period, p.budget));
                    r
                })
                .collect())
        })
    }

    #[test]
    fn batch_points_get_individual_jobs_and_cache_entries() {
        let core = Arc::new(ServeCore::new(2, AdmissionConfig::default()));
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let workers = start_batch(
            &core,
            2,
            stub(Duration::ZERO),
            batch_stub(Arc::clone(&ran_on)),
        );
        let (acks, lane) = core
            .submit_batch(batch("b", &[(100, 1), (200, 2)]), None)
            .unwrap();
        assert_eq!(acks.len(), 2);
        assert!(lane.is_some(), "uncached batch is pinned to a lane");
        for &(id, ref cached) in &acks {
            assert!(cached.is_none(), "first submission misses");
            let (state, report) = wait_done(&core, id);
            assert_eq!(state, JobState::Done);
            assert!(report.is_some());
        }
        // The whole batch executed in one executor call, on one thread.
        assert_eq!(ran_on.lock().unwrap().len(), 1);
        // Resubmission: every point is born done from the per-point cache.
        let (acks2, lane2) = core
            .submit_batch(batch("b", &[(100, 1), (200, 2)]), None)
            .unwrap();
        assert_eq!(lane2, None, "fully cached batch never queues");
        for (id, cached) in acks2 {
            assert!(cached.is_some());
            assert_eq!(core.result(id).unwrap().0, JobState::Done);
        }
        // Partial overlap: only the new point misses and executes.
        let (acks3, lane3) = core
            .submit_batch(batch("b", &[(100, 1), (300, 3)]), None)
            .unwrap();
        assert!(lane3.is_some());
        assert!(acks3[0].1.is_some(), "shared point is a hit");
        assert!(acks3[1].1.is_none(), "new point is a miss");
        assert_eq!(wait_done(&core, acks3[1].0).0, JobState::Done);
        let summary = core.drain();
        assert_eq!(summary.submitted, 6, "every point counts as a job");
        assert_eq!(summary.executed, 3, "only misses executed");
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn batch_stays_on_its_pinned_lane() {
        let core = Arc::new(ServeCore::new(2, AdmissionConfig::default()));
        // No workers yet: submissions queue up so lane choice is visible.
        let (_, lane_a) = core.submit_batch(batch("a", &[(1, 1)]), None).unwrap();
        let (_, lane_b) = core.submit_batch(batch("b", &[(2, 2)]), None).unwrap();
        let (la, lb) = (lane_a.unwrap(), lane_b.unwrap());
        assert_ne!(la, lb, "least-loaded placement spreads batches");
        let reg = core.metrics();
        use fgqos_sim::metrics::MetricValue;
        for lane in [la, lb] {
            assert_eq!(
                reg.get(&format!("serve.lane.{lane}.queue_depth")),
                Some(&MetricValue::Gauge(1.0))
            );
        }
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let workers = start_batch(
            &core,
            2,
            stub(Duration::ZERO),
            batch_stub(Arc::clone(&ran_on)),
        );
        core.drain();
        assert_eq!(ran_on.lock().unwrap().len(), 2);
        let reg = core.metrics();
        for lane in 0..2 {
            assert_eq!(
                reg.get(&format!("serve.lane.{lane}.executed")),
                Some(&MetricValue::Counter(1)),
                "each lane executed its own batch"
            );
        }
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn batch_executor_failure_fails_every_point() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let failing: crate::BatchExecutor = Arc::new(|_spec| Err("snapshot refused".into()));
        let workers = start_batch(&core, 1, stub(Duration::ZERO), failing);
        let (acks, _) = core
            .submit_batch(batch("f", &[(1, 1), (2, 2)]), None)
            .unwrap();
        for (id, _) in acks {
            assert_eq!(
                wait_done(&core, id).0,
                JobState::Failed("snapshot refused".into())
            );
        }
        assert_eq!(core.drain().failed, 2);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn a_poisoned_core_lock_still_answers() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let holder = Arc::clone(&core);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.state.lock().unwrap();
            panic!("a job panics while holding the core lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(core.state.is_poisoned());
        let (id, _) = core.submit(spec("p"), None).unwrap();
        assert_eq!(core.status(id).unwrap(), (JobState::Queued, Some(0)));
    }

    #[test]
    fn status_reports_queue_position() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        // No workers: everything stays queued.
        let (a, _) = core.submit(spec("a"), None).unwrap();
        let mut s = spec("b");
        s.cycles = 2_000;
        let (b, _) = core.submit(s, None).unwrap();
        assert_eq!(core.status(a).unwrap(), (JobState::Queued, Some(0)));
        assert_eq!(core.status(b).unwrap(), (JobState::Queued, Some(1)));
        assert!(core.status(999).is_none());
    }
}
