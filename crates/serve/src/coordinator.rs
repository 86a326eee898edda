//! Fleet mode: a [`ServeCore`] whose lanes forward work to registered
//! worker processes.
//!
//! A fleet front owns no simulator. Workers — full `fgqos-serve`
//! servers, usually one process per core group — announce themselves
//! with the v3 `register_worker` op, and the front adds one **remote
//! lane** per worker thread (the `serve.workers` gauge of the worker's
//! `metrics` answer). Each remote lane holds one persistent [`Client`]
//! to its worker. Everything else — job table, queue, deadlines, result
//! cache, drain and the protocol handler — is the same [`ServeCore`] a
//! local pool runs:
//!
//! * **Placement**: a single job goes to whichever worker has a free
//!   lane first; a `submit_batch`'s uncached points split into
//!   contiguous slices, one per live worker, so an N-point sweep warms
//!   on (up to) N processes concurrently while each slice still shares
//!   its warm boundary within its worker.
//! * **Fault tolerance**: a heartbeat (`ping`) thread marks unreachable
//!   workers dead, and a forward that hits a dead, killed or hung worker
//!   puts its entry back at the head of the queue for the remaining
//!   fleet (`coordinator.jobs.requeued`). Because executors are pure
//!   functions of their specs, a re-run returns the byte-identical
//!   report the lost worker would have produced.
//!
//! `snapshot` is forwarded to a live worker, live runs are refused, and
//! `shutdown` drains the queue, then shuts the workers down.

use crate::client::{Client, ClientError, SubmitOptions};
use crate::pool::{Lane, LaneError, Payload, ServeCore};
use crate::protocol::{from_hex, MetricsFormat};
use crate::recover;
use fgqos_sim::json::Value;
use fgqos_sim::metrics::MetricsRegistry;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Fleet tuning; every field has a usable default.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Worker heartbeat interval in milliseconds.
    pub heartbeat_ms: u64,
    /// Read timeout on forwarded requests — the hung-worker detector.
    pub forward_read_timeout_ms: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            heartbeat_ms: 250,
            forward_read_timeout_ms: 5_000,
        }
    }
}

/// One registered worker.
pub(crate) struct WorkerEntry {
    /// The lane group its remote lanes share.
    group: usize,
    addr: String,
    in_flight: AtomicU64,
    alive: AtomicBool,
}

fn classify(e: ClientError) -> LaneError {
    match e {
        ClientError::Io(_) | ClientError::Protocol(_) | ClientError::Timeout => LaneError::Down,
        ClientError::Denied(m) | ClientError::Job(m) => LaneError::Fail(m),
    }
}

/// Connects and pings: the liveness probe of registration and heartbeat.
fn probe(addr: &str) -> Result<Client, ClientError> {
    let mut client = Client::connect(addr)?;
    let _ = client.set_read_timeout(Some(Duration::from_millis(2_000)));
    client.ping()?;
    Ok(client)
}

/// The worker registry of a fleet front.
pub(crate) struct Fleet {
    workers: Mutex<Vec<Arc<WorkerEntry>>>,
    next_group: AtomicUsize,
    forward_read_timeout: Duration,
    heartbeat: Duration,
    stopped: AtomicBool,
}

impl Fleet {
    pub(crate) fn new(cfg: &CoordinatorConfig) -> Fleet {
        Fleet {
            workers: Mutex::new(Vec::new()),
            next_group: AtomicUsize::new(0),
            forward_read_timeout: Duration::from_millis(cfg.forward_read_timeout_ms.max(1)),
            heartbeat: Duration::from_millis(cfg.heartbeat_ms.max(10)),
            stopped: AtomicBool::new(false),
        }
    }

    fn live_workers(&self) -> Vec<Arc<WorkerEntry>> {
        recover(self.workers.lock())
            .iter()
            .filter(|w| w.alive.load(Ordering::Relaxed))
            .cloned()
            .collect()
    }

    /// Lane groups of the live workers, in registration order.
    pub(crate) fn live_groups(&self) -> Vec<usize> {
        self.live_workers().iter().map(|w| w.group).collect()
    }

    /// Serves the v3 `snapshot` op by forwarding it to the live worker
    /// with the fewest in-flight forwards.
    pub(crate) fn snapshot(&self, scenario: &str, warmup: u64) -> Result<Option<Vec<u8>>, String> {
        let worker = self
            .live_workers()
            .into_iter()
            .min_by_key(|w| w.in_flight.load(Ordering::Relaxed))
            .ok_or("no live workers in the fleet")?;
        let mut req = Value::obj();
        req.set("op", Value::str("snapshot"));
        req.set("scenario", Value::str(scenario));
        req.set("warmup", Value::from(warmup));
        let doc = Client::connect(&worker.addr)
            .and_then(|mut c| {
                let _ = c.set_read_timeout(Some(self.forward_read_timeout));
                c.request(&req)
            })
            .map_err(|e| format!("worker lost mid-request: {e}"))?;
        if doc.get("ok") != Some(&Value::Bool(true)) {
            let error = doc.get("error").and_then(Value::as_str);
            return Err(error.unwrap_or("unspecified worker error").to_string());
        }
        let hex = doc.get("blob_hex").and_then(Value::as_str).unwrap_or("");
        from_hex(hex).map(Some)
    }

    /// Stops the heartbeat and shuts every live worker down.
    pub(crate) fn shutdown_workers(&self) {
        self.stopped.store(true, Ordering::Relaxed);
        for worker in self.live_workers() {
            if let Ok(mut client) = Client::connect(&worker.addr) {
                let _ = client.set_read_timeout(Some(Duration::from_millis(10_000)));
                let _ = client.shutdown();
            }
            worker.alive.store(false, Ordering::Relaxed);
        }
    }

    /// The per-worker `coordinator.*` gauges.
    pub(crate) fn export(&self, reg: &mut MetricsRegistry) {
        let workers = recover(self.workers.lock());
        let alive = |w: &WorkerEntry| w.alive.load(Ordering::Relaxed);
        reg.gauge("coordinator.workers", workers.len() as f64);
        let live = workers.iter().filter(|w| alive(w)).count();
        reg.gauge("coordinator.workers.live", live as f64);
        for (i, w) in workers.iter().enumerate() {
            reg.gauge(
                format!("coordinator.worker.{i}.in_flight"),
                w.in_flight.load(Ordering::Relaxed) as f64,
            );
            reg.gauge(
                format!("coordinator.worker.{i}.alive"),
                f64::from(u8::from(alive(w))),
            );
        }
    }
}

/// A lane forwarding its entries to one worker over a persistent
/// connection.
pub(crate) struct RemoteLane {
    worker: Arc<WorkerEntry>,
    client: Option<Client>,
    timeout: Duration,
}

impl RemoteLane {
    pub(crate) fn alive(&self) -> bool {
        self.worker.alive.load(Ordering::Relaxed)
    }

    /// Forwards one entry; a `Down` outcome marks the worker dead.
    pub(crate) fn run(&mut self, payload: &Payload) -> Result<Vec<Value>, LaneError> {
        self.worker.in_flight.fetch_add(1, Ordering::Relaxed);
        let outcome = self.forward(payload);
        self.worker.in_flight.fetch_sub(1, Ordering::Relaxed);
        if let Err(LaneError::Down) = outcome {
            self.worker.alive.store(false, Ordering::Relaxed);
            self.client = None;
        }
        outcome
    }

    fn forward(&mut self, payload: &Payload) -> Result<Vec<Value>, LaneError> {
        if self.client.is_none() {
            let client = Client::connect(&self.worker.addr).map_err(classify)?;
            let _ = client.set_read_timeout(Some(self.timeout));
            self.client = Some(client);
        }
        let client = self.client.as_mut().expect("connected above");
        let opts = |until_done| SubmitOptions {
            until_done,
            client: Some("fgqos-coordinator".into()),
            deadline_ms: None,
        };
        let jobs = match payload {
            Payload::Single(spec) => {
                let opts = opts(spec.until_done.clone());
                vec![
                    client
                        .submit(&spec.scenario, spec.cycles, &opts)
                        .map_err(classify)?
                        .job,
                ]
            }
            Payload::Batch(spec) => {
                client
                    .submit_batch(spec, &opts(None))
                    .map_err(classify)?
                    .jobs
            }
        };
        jobs.into_iter()
            .map(|job| poll_report(&self.worker, client, job))
            .collect()
    }
}

/// Polls a forwarded job until it resolves, watching the worker's
/// liveness between polls so a heartbeat-detected death aborts promptly.
fn poll_report(worker: &WorkerEntry, client: &mut Client, job: u64) -> Result<Value, LaneError> {
    let mut backoff = Duration::from_micros(200);
    loop {
        if !worker.alive.load(Ordering::Relaxed) {
            return Err(LaneError::Down);
        }
        let doc = client.result(job).map_err(classify)?;
        if doc.get("ok") != Some(&Value::Bool(true)) {
            let error = doc.get("error").and_then(Value::as_str);
            return Err(LaneError::Fail(
                error.unwrap_or("unspecified worker error").to_string(),
            ));
        }
        match doc.get("state").and_then(Value::as_str) {
            Some("done") => return doc.get("report").cloned().ok_or(LaneError::Down),
            Some("queued") | Some("running") => {}
            other => return Err(LaneError::Fail(format!("unexpected job state {other:?}"))),
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_millis(5));
    }
}

impl ServeCore {
    /// Registers (or revives) a worker after probing it and starts one
    /// remote lane per thread it reports; returns the live worker count.
    /// Refused unless this core fronts a fleet.
    pub fn register_worker(self: &Arc<Self>, addr: &str) -> Result<usize, String> {
        let fleet = self
            .fleet
            .as_ref()
            .ok_or("this server is not a coordinator")?;
        let mut client =
            probe(addr).map_err(|_| format!("worker at {addr} did not answer a ping"))?;
        let threads = client
            .metrics(MetricsFormat::Json)
            .ok()
            .and_then(|doc| {
                doc.get("metrics")?
                    .get("metrics")?
                    .get("serve.workers")?
                    .as_u64()
            })
            .unwrap_or(1)
            .max(1);
        let entry = {
            let mut workers = recover(fleet.workers.lock());
            // A restarted worker re-registers the same address: drop the
            // dead entry rather than double-counting it.
            workers.retain(|w| w.addr != addr || w.alive.load(Ordering::Relaxed));
            if workers.iter().any(|w| w.addr == addr) {
                None
            } else {
                let entry = Arc::new(WorkerEntry {
                    group: fleet.next_group.fetch_add(1, Ordering::Relaxed),
                    addr: addr.to_string(),
                    in_flight: AtomicU64::new(0),
                    alive: AtomicBool::new(true),
                });
                workers.push(Arc::clone(&entry));
                Some(entry)
            }
        };
        if let Some(worker) = entry {
            for _ in 0..threads {
                let lane = self.add_lane(worker.group);
                let remote = RemoteLane {
                    worker: Arc::clone(&worker),
                    client: None,
                    timeout: fleet.forward_read_timeout,
                };
                let core = Arc::clone(self);
                std::thread::spawn(move || core.run_lane(lane, Lane::Remote(remote)));
            }
        }
        Ok(self.live_worker_count())
    }

    /// Number of live fleet workers (0 on a local pool).
    pub fn live_worker_count(&self) -> usize {
        self.fleet.as_ref().map_or(0, |f| f.live_workers().len())
    }

    /// Heartbeat thread body: pings every live worker each interval and
    /// re-homes the queued work of any that stopped answering. Returns
    /// once the fleet is shut down.
    pub(crate) fn heartbeat(&self) {
        let Some(fleet) = &self.fleet else { return };
        while !fleet.stopped.load(Ordering::Relaxed) {
            let mut lost = false;
            for worker in fleet.live_workers() {
                if probe(&worker.addr).is_err() {
                    worker.alive.store(false, Ordering::Relaxed);
                    lost = true;
                }
            }
            if lost {
                self.worker_lost();
            }
            std::thread::sleep(fleet.heartbeat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{BatchKind, BatchPoint, BatchSpec, JobSpec};
    use crate::server::{start, start_fleet, ServeConfig, ServerHandle};
    use crate::Executor;
    use fgqos_bench::report::Report;
    use fgqos_sim::metrics::MetricValue;

    fn stub_executor() -> Executor {
        Arc::new(|spec: &JobSpec| {
            let mut r = Report::new("stub");
            r.note(format!("cycles={}", spec.cycles));
            Ok(r)
        })
    }

    fn worker() -> ServerHandle {
        start(
            ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
            stub_executor(),
        )
        .expect("bind worker")
    }

    fn coordinator() -> ServerHandle {
        start_fleet(
            ServeConfig::default(),
            CoordinatorConfig {
                heartbeat_ms: 50,
                forward_read_timeout_ms: 2_000,
            },
        )
        .expect("bind coordinator")
    }

    /// Polls a job until it leaves `queued`/`running`.
    fn settled(client: &mut Client, job: u64) -> Value {
        loop {
            let doc = client.result(job).expect("result answers");
            match doc.get("state").and_then(Value::as_str) {
                Some("queued") | Some("running") => std::thread::sleep(Duration::from_millis(1)),
                _ => return doc,
            }
        }
    }

    #[test]
    fn register_forward_and_cache_roundtrip() {
        let w = worker();
        let c = coordinator();
        let mut client = Client::connect(c.addr()).expect("connect");
        client.ping().expect("coordinator answers ping");
        let live = c
            .core()
            .register_worker(&w.addr().to_string())
            .expect("registers");
        assert_eq!(live, 1);
        assert_eq!(
            c.core().metrics().get("serve.workers"),
            Some(&MetricValue::Gauge(2.0)),
            "one remote lane per worker thread"
        );
        let (ack, report) = client
            .submit_and_wait("s", 123, &SubmitOptions::default(), Duration::from_secs(10))
            .expect("forwarded job completes");
        assert!(!ack.cached);
        let parsed = Report::from_json(&report).expect("valid report");
        assert!(parsed.render_text().contains("cycles=123"));
        // Resubmission is a coordinator-level cache hit, byte-identical.
        let (ack2, report2) = client
            .submit_and_wait("s", 123, &SubmitOptions::default(), Duration::from_secs(10))
            .expect("cached job resolves");
        assert!(ack2.cached);
        assert_eq!(report.to_compact(), report2.to_compact());
        let resp = client.shutdown().expect("drains");
        assert_eq!(resp.get("executed").and_then(Value::as_u64), Some(1));
        c.join();
        w.join();
    }

    #[test]
    fn register_refuses_unreachable_workers() {
        let c = coordinator();
        let err = c
            .core()
            .register_worker("127.0.0.1:1")
            .expect_err("nothing listens on port 1");
        assert!(err.contains("ping"));
        let mut client = Client::connect(c.addr()).expect("connect");
        // With no workers, submissions fail but the coordinator stays up.
        let ack = client
            .submit("s", 1, &SubmitOptions::default())
            .expect("submit is accepted");
        let doc = settled(&mut client, ack.job);
        assert_eq!(doc.get("state").and_then(Value::as_str), Some("failed"));
        assert!(doc
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("no live workers"));
        client.shutdown().expect("shuts down");
        c.join();
    }

    #[test]
    fn plain_servers_refuse_registration() {
        let w = worker();
        let err = w
            .core()
            .register_worker("127.0.0.1:1")
            .expect_err("not a fleet front");
        assert!(err.contains("not a coordinator"));
        let mut client = Client::connect(w.addr()).expect("connect");
        client.shutdown().expect("shuts down");
        w.join();
    }

    #[test]
    fn killed_worker_jobs_requeue_onto_the_fleet() {
        let w1 = worker();
        let w2 = worker();
        let c = coordinator();
        c.core()
            .register_worker(&w1.addr().to_string())
            .expect("w1");
        c.core()
            .register_worker(&w2.addr().to_string())
            .expect("w2");
        // Kill one worker out from under the coordinator (an in-process
        // stand-in for kill -9: drain it behind the coordinator's back
        // so forwards to it start failing).
        let mut killer = Client::connect(w1.addr()).expect("connect w1");
        killer.shutdown().expect("w1 gone");
        w1.join();
        let mut client = Client::connect(c.addr()).expect("connect");
        // Submit enough distinct jobs that some would have landed on w1.
        let acks: Vec<_> = (0..6)
            .map(|i| {
                client
                    .submit("s", 1_000 + i, &SubmitOptions::default())
                    .expect("accepted")
            })
            .collect();
        for (i, ack) in acks.iter().enumerate() {
            let report = client
                .wait_report(ack.job, Duration::from_secs(20))
                .expect("job completed despite the dead worker");
            let parsed = Report::from_json(&report).expect("valid report");
            assert!(parsed
                .render_text()
                .contains(&format!("cycles={}", 1_000 + i)));
        }
        client.shutdown().expect("drains");
        c.join();
        w2.join();
    }

    #[test]
    fn batch_shards_across_workers_and_merges_in_point_order() {
        let w1 = worker();
        let w2 = worker();
        let c = coordinator();
        c.core()
            .register_worker(&w1.addr().to_string())
            .expect("w1");
        c.core()
            .register_worker(&w2.addr().to_string())
            .expect("w2");
        let mut client = Client::connect(c.addr()).expect("connect");
        let spec = BatchSpec {
            scenario: "s".into(),
            cycles: 1_000,
            until_done: None,
            warmup: 0,
            points: (1..=5)
                .map(|i| BatchPoint {
                    period: i * 100,
                    budget: i * 7,
                })
                .collect(),
            kind: BatchKind::Sweep,
        };
        // Workers have no batch executor: points fail deterministically,
        // but sharding and per-point id plumbing are fully exercised.
        let ack = client
            .submit_batch(&spec, &SubmitOptions::default())
            .expect("acknowledged");
        assert_eq!(ack.jobs.len(), 5);
        assert!(ack.cached.iter().all(|c| !c));
        for &job in &ack.jobs {
            let doc = settled(&mut client, job);
            assert_eq!(doc.get("state").and_then(Value::as_str), Some("failed"));
            assert!(doc
                .get("error")
                .and_then(Value::as_str)
                .unwrap()
                .contains("no batch executor"));
        }
        // One slice per worker: each worker's server saw one batch.
        for w in [&w1, &w2] {
            assert_eq!(
                w.core().metrics().get("serve.jobs.batches"),
                Some(&MetricValue::Counter(1))
            );
        }
        client.shutdown().expect("drains");
        c.join();
        w1.join();
        w2.join();
    }
}
