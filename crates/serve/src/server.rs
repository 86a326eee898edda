//! The TCP server: accept loop, per-connection protocol handlers, and
//! lifecycle plumbing around [`ServeCore`] — one stack for both
//! topologies. [`start_live`] runs a local pool of in-process lanes;
//! [`start_fleet`] runs a fleet front whose lanes forward to registered
//! worker processes (see [`crate::coordinator`]).
//!
//! One thread accepts connections, one detached thread serves each
//! connection, and the core's lanes execute jobs. A `shutdown` request
//! drains the core (every queued job still runs), answers with the
//! drain summary, and only then stops the accept loop — so a client
//! that observes the shutdown response knows the server is quiescent.

use crate::admission::AdmissionConfig;
use crate::cache::ResultCache;
use crate::coordinator::{CoordinatorConfig, Fleet};
use crate::live::{ControlWrite, LiveSession, NextFrame};
use crate::pool::{worker_count, JobState, Lane, ServeCore};
use crate::protocol::{
    error_response, parse_request, read_frame, response_head, to_hex, FrameError, LiveSpec,
    MetricsFormat, Request, DEFAULT_MAX_FRAME_BYTES,
};
use crate::{
    panic_message, unsupported_batch_executor, unsupported_live_executor,
    unsupported_snapshot_executor, BatchExecutor, Executor, LiveExecutor, SnapshotExecutor,
};
use fgqos_sim::json::Value;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration; every field has a usable default.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address. Port 0 picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Local pool lanes; 0 means [`worker_count`] (env override
    /// included). A fleet front sizes itself from its workers instead.
    pub threads: usize,
    /// Per-frame byte cap on the wire.
    pub max_frame_bytes: usize,
    /// Ingress regulation applied per client.
    pub admission: AdmissionConfig,
    /// Queue deadline applied to jobs that don't set their own.
    pub default_deadline_ms: Option<u64>,
    /// Directory for a persistent result cache; `None` keeps the cache
    /// in memory only (lost on restart).
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            admission: AdmissionConfig::default(),
            default_deadline_ms: None,
            cache_dir: None,
        }
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// send a `shutdown` request (or use
/// [`Client::shutdown`](crate::client::Client::shutdown)) and then
/// [`join`](Self::join).
pub struct ServerHandle {
    addr: SocketAddr,
    core: Arc<ServeCore>,
    /// The accept loop first, then the lanes or the fleet heartbeat.
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (with the real port when 0 was asked).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared core, for in-process inspection (tests, benches) and
    /// worker registration.
    pub fn core(&self) -> &Arc<ServeCore> {
        &self.core
    }

    /// Waits for the accept loop and every server thread to exit.
    /// Returns immediately useful only after a `shutdown` request was
    /// served.
    pub fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Binds the listener, starts the worker pool and the accept loop.
/// `submit_batch` requests are refused with a stable error; use
/// [`start_with`] to install a real batch executor.
pub fn start(cfg: ServeConfig, executor: Executor) -> io::Result<ServerHandle> {
    start_with(cfg, executor, unsupported_batch_executor())
}

/// [`start`], with a [`BatchExecutor`] serving `submit_batch` requests.
pub fn start_with(
    cfg: ServeConfig,
    executor: Executor,
    batch_executor: BatchExecutor,
) -> io::Result<ServerHandle> {
    start_live(
        cfg,
        executor,
        batch_executor,
        unsupported_snapshot_executor(),
        unsupported_live_executor(),
    )
}

/// [`start_with`], plus a [`SnapshotExecutor`] serving the v3
/// `snapshot` op (warm-boundary blobs over the wire) and a
/// [`LiveExecutor`] serving the v4 live plane: `subscribe` starts a
/// windowed run on a dedicated thread and streams its frames, `control`
/// queues register writes against it, `journal` fetches the recorded
/// control journal and replay scenario.
pub fn start_live(
    cfg: ServeConfig,
    executor: Executor,
    batch_executor: BatchExecutor,
    snapshot_executor: SnapshotExecutor,
    live_executor: LiveExecutor,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let threads = if cfg.threads > 0 {
        cfg.threads
    } else {
        worker_count()
    };
    let core = Arc::new(ServeCore::with_cache(
        threads,
        cfg.admission,
        open_cache(&cfg)?,
    ));
    let lanes = (0..threads).map(|lane| {
        let core = Arc::clone(&core);
        let exec = Lane::Local {
            executor: Arc::clone(&executor),
            batch_executor: Arc::clone(&batch_executor),
        };
        std::thread::spawn(move || core.run_lane(lane, exec))
    });
    let lanes = lanes.collect();
    serve(
        listener,
        &cfg,
        core,
        snapshot_executor,
        live_executor,
        lanes,
    )
}

/// Starts a fleet front: the same server with no local lanes. Workers
/// join with `register_worker` (usually `fgqos worker --connect`); each
/// adds one remote lane per worker thread. `snapshot` is forwarded to a
/// live worker and live runs are refused.
pub fn start_fleet(cfg: ServeConfig, fleet: CoordinatorConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let fleet = Arc::new(Fleet::new(&fleet));
    let core = Arc::new(ServeCore::build(
        0,
        cfg.admission,
        open_cache(&cfg)?,
        Some(Arc::clone(&fleet)),
    ));
    let heartbeat = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || core.heartbeat())
    };
    let snapshot: SnapshotExecutor =
        Arc::new(move |scenario, warmup| fleet.snapshot(scenario, warmup));
    let live = unsupported_live_executor();
    serve(listener, &cfg, core, snapshot, live, vec![heartbeat])
}

fn open_cache(cfg: &ServeConfig) -> io::Result<ResultCache> {
    match &cfg.cache_dir {
        Some(dir) => ResultCache::persistent(dir),
        None => Ok(ResultCache::new()),
    }
}

/// Starts the accept loop over `core`; `threads` are the server's other
/// threads, joined after it.
fn serve(
    listener: TcpListener,
    cfg: &ServeConfig,
    core: Arc<ServeCore>,
    snapshot_executor: SnapshotExecutor,
    live_executor: LiveExecutor,
    mut threads: Vec<JoinHandle<()>>,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let service = Arc::new(Service {
        core: Arc::clone(&core),
        snapshot_executor,
        live_executor,
        max_frame: cfg.max_frame_bytes,
        default_deadline_ms: cfg.default_deadline_ms,
        addr,
        stop: AtomicBool::new(false),
    });
    let accept = std::thread::spawn(move || {
        for incoming in listener.incoming() {
            if service.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = incoming else { continue };
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.handle_connection(stream));
        }
    });
    threads.insert(0, accept);
    Ok(ServerHandle {
        addr,
        core,
        threads,
    })
}

fn send(writer: &mut TcpStream, response: &Value) -> io::Result<()> {
    writer.write_all(response.to_compact().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// What every connection handler of one server shares.
struct Service {
    core: Arc<ServeCore>,
    snapshot_executor: SnapshotExecutor,
    live_executor: LiveExecutor,
    max_frame: usize,
    default_deadline_ms: Option<u64>,
    addr: SocketAddr,
    stop: AtomicBool,
}

impl Service {
    fn handle_connection(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let peer = stream
            .peer_addr()
            .map(|a| a.ip().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        loop {
            let (line, request) = match read_frame(&mut reader, self.max_frame) {
                Ok(None) | Err(FrameError::Io(_)) => return,
                Err(FrameError::TooLarge { limit }) => {
                    self.core.count_frame();
                    self.core.count_oversized();
                    let resp = error_response("error", format!("frame exceeds {limit} bytes"));
                    (String::new(), Err(resp))
                }
                Ok(Some(line)) => {
                    self.core.count_frame();
                    let request = parse_request(&line).map_err(|message| {
                        self.core.count_malformed();
                        error_response("error", message)
                    });
                    (line, request)
                }
            };
            let request = match request.and_then(|r| self.refuse_live(r)) {
                Ok(request) => request,
                Err(resp) => {
                    if send(&mut writer, &resp).is_err() {
                        return;
                    }
                    continue;
                }
            };
            // `subscribe` breaks the one-response-per-request shape: after
            // the acknowledgement the connection streams frames until the
            // end-of-stream object, then reverts to request/response. It
            // is the only op handled outside `dispatch`.
            if let Request::Subscribe { spec, run, client } = request {
                match self.serve_subscription(&mut writer, spec, run, client, &line, &peer) {
                    Ok(()) => continue,
                    Err(_) => return,
                }
            }
            let shutting_down = matches!(request, Request::Shutdown);
            let response = self.dispatch(request, &line, &peer);
            if send(&mut writer, &response).is_err() && !shutting_down {
                return;
            }
            if shutting_down {
                // The drain already completed inside dispatch; now stop
                // the accept loop. A self-connection unblocks its
                // accept() call.
                self.stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(self.addr);
                return;
            }
        }
    }

    /// Live runs are bound to one executing process; a fleet front only
    /// routes batch work, so it refuses the streaming plane — point
    /// `subscribe`/`control`/`journal` at a worker directly.
    fn refuse_live(&self, request: Request) -> Result<Request, Value> {
        let op = match request {
            Request::Subscribe { .. } => "subscribe",
            Request::Control { .. } => "control",
            Request::Journal { .. } => "journal",
            _ => return Ok(request),
        };
        match self.core.fleet {
            Some(_) => Err(error_response(op, "coordinator does not host live runs")),
            None => Ok(request),
        }
    }

    /// Charges a whole request frame (newline included) to its client's
    /// ingress bucket: a batch or a live run competes for ingress like
    /// the equivalent sequence of single submissions would.
    fn admit(&self, op: &str, client: Option<String>, line: &str, peer: &str) -> Result<(), Value> {
        let principal = client.unwrap_or_else(|| format!("peer:{peer}"));
        if self.core.admission.admit(&principal, line.len() as u64 + 1) {
            return Ok(());
        }
        let mut resp = error_response(
            op,
            format!("admission denied: client {principal:?} is over its ingress budget"),
        );
        resp.set("denied", Value::Bool(true));
        Err(resp)
    }

    fn deadline(&self, deadline_ms: Option<u64>) -> Option<Instant> {
        deadline_ms
            .or(self.default_deadline_ms)
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    }

    /// Serves one `subscribe` request end to end: acknowledge, stream
    /// frames until the end-of-stream object, then hand the connection
    /// back to the request loop. `Ok` means the connection stays usable
    /// (even after a refused subscription); `Err` means the peer went
    /// away.
    fn serve_subscription(
        &self,
        writer: &mut TcpStream,
        spec: Option<LiveSpec>,
        run: Option<u64>,
        client: Option<String>,
        line: &str,
        peer: &str,
    ) -> io::Result<()> {
        let (session, presub): (Arc<LiveSession>, Option<u64>) = match (spec, run) {
            (Some(spec), None) => {
                if let Err(denied) = self.admit("subscribe", client, line, peer) {
                    return send(writer, &denied);
                }
                let session = match self.core.live.create() {
                    Ok(session) => session,
                    Err(message) => return send(writer, &error_response("subscribe", message)),
                };
                // Register the creating subscriber *before* the executor
                // thread exists: with zero pacing the run can publish its
                // first frames immediately, and the creator must see every
                // one of them (an attaching subscriber, by contrast, only
                // sees frames from its attach point on).
                let sub = session.subscribe();
                let executor = Arc::clone(&self.live_executor);
                let run_session = Arc::clone(&session);
                std::thread::spawn(move || {
                    // Scenario errors and executor panics surface through
                    // the session (a failed end-of-stream object), not the
                    // subscribe ack: by the time the executor parses
                    // anything the ack is long gone.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        executor(&spec, Arc::clone(&run_session))
                    }))
                    .unwrap_or_else(|panic| Err(panic_message(panic)));
                    if let Err(message) = outcome {
                        if !run_session.finished() {
                            run_session.finish(None, None, Some(message));
                        }
                    }
                });
                (session, Some(sub))
            }
            (None, Some(run)) => match self.core.live.get(run) {
                Some(session) => (session, None),
                None => {
                    let resp = error_response("subscribe", format!("unknown live run {run}"));
                    return send(writer, &resp);
                }
            },
            // parse_request guarantees exactly one of spec/run.
            _ => return send(writer, &error_response("subscribe", "malformed subscribe")),
        };
        // Register (if attaching) before acknowledging so no frame can
        // slip between the ack and the stream.
        let sub = presub.unwrap_or_else(|| session.subscribe());
        let mut ack = response_head("subscribe", true);
        ack.set("run", Value::from(session.id()));
        if send(writer, &ack).is_err() {
            session.unsubscribe(sub);
            return Err(io::Error::other("peer gone"));
        }
        loop {
            match session.next_frame(sub, Duration::from_millis(500)) {
                NextFrame::TimedOut => continue,
                NextFrame::Frame(frame) => {
                    if send(writer, &frame).is_err() {
                        session.unsubscribe(sub);
                        return Err(io::Error::other("peer gone"));
                    }
                }
                NextFrame::End(end) => {
                    session.unsubscribe(sub);
                    return send(writer, &end);
                }
            }
        }
    }

    fn dispatch(&self, request: Request, line: &str, peer: &str) -> Value {
        let core = &self.core;
        match request {
            Request::Ping => response_head("ping", true),
            Request::RegisterWorker { addr } => match core.register_worker(&addr) {
                Err(message) => error_response("register_worker", message),
                Ok(live) => {
                    let mut resp = response_head("register_worker", true);
                    resp.set("workers", Value::from(live as u64));
                    resp
                }
            },
            // Warming runs inline on the connection thread: the op is
            // synchronous by design (its caller is usually another
            // server's warm-boundary store, not an interactive client).
            Request::Snapshot { scenario, warmup } => {
                match (self.snapshot_executor)(&scenario, warmup) {
                    Err(message) => error_response("snapshot", message),
                    Ok(None) => error_response(
                        "snapshot",
                        "scenario has no quiesced boundary within the slack window",
                    ),
                    Ok(Some(encoded)) => {
                        let mut resp = response_head("snapshot", true);
                        resp.set("bytes", Value::from(encoded.len() as u64));
                        resp.set("blob_hex", Value::str(to_hex(&encoded)));
                        resp
                    }
                }
            }
            Request::Submit {
                spec,
                client,
                deadline_ms,
            } => {
                if let Err(denied) = self.admit("submit", client, line, peer) {
                    return denied;
                }
                match core.submit(spec, self.deadline(deadline_ms)) {
                    Err(message) => error_response("submit", message),
                    Ok((job, cached)) => {
                        let mut resp = response_head("submit", true);
                        resp.set("job", Value::from(job));
                        resp.set("cached", Value::Bool(cached.is_some()));
                        let state = if cached.is_some() { "done" } else { "queued" };
                        resp.set("state", Value::str(state));
                        resp
                    }
                }
            }
            Request::SubmitBatch {
                spec,
                client,
                deadline_ms,
            } => {
                if let Err(denied) = self.admit("submit_batch", client, line, peer) {
                    return denied;
                }
                match core.submit_batch(spec, self.deadline(deadline_ms)) {
                    Err(message) => error_response("submit_batch", message),
                    Ok((acks, lane)) => {
                        let mut resp = response_head("submit_batch", true);
                        let mut jobs = Value::arr();
                        let mut cached = Value::arr();
                        for (id, hit) in &acks {
                            jobs.push(Value::from(*id));
                            cached.push(Value::Bool(hit.is_some()));
                        }
                        resp.set("jobs", jobs);
                        resp.set("cached", cached);
                        if let Some(lane) = lane {
                            resp.set("lane", Value::from(lane as u64));
                        }
                        resp
                    }
                }
            }
            Request::Status { job } => match core.status(job) {
                None => error_response("status", format!("unknown job {job}")),
                Some((state, position)) => {
                    let mut resp = response_head("status", true);
                    resp.set("job", Value::from(job));
                    resp.set("state", Value::str(state.wire_name()));
                    if let Some(pos) = position {
                        resp.set("position", Value::from(pos as u64));
                    }
                    if let JobState::Failed(message) = state {
                        resp.set("error", Value::str(message));
                    }
                    resp
                }
            },
            Request::Result { job } => match core.result(job) {
                None => error_response("result", format!("unknown job {job}")),
                Some((state, report)) => {
                    let mut resp = match &state {
                        JobState::Failed(message) => error_response("result", message.clone()),
                        JobState::Expired => {
                            error_response("result", "deadline expired before execution")
                        }
                        _ => response_head("result", true),
                    };
                    resp.set("job", Value::from(job));
                    resp.set("state", Value::str(state.wire_name()));
                    // Only done jobs carry a report, embedded verbatim: a
                    // cached job's response is byte-identical to the fresh
                    // run's.
                    if let Some(report) = report {
                        resp.set("report", (*report).clone());
                    }
                    resp
                }
            },
            Request::Metrics { format } => {
                let registry = core.metrics();
                let mut resp = response_head("metrics", true);
                match format {
                    MetricsFormat::Json => resp.set("metrics", registry.to_json()),
                    MetricsFormat::Csv => resp.set("csv", Value::str(registry.to_csv())),
                };
                resp
            }
            // `subscribe` is intercepted in `handle_connection` (it turns
            // the connection into a stream); reaching here is impossible.
            Request::Subscribe { .. } => {
                error_response("subscribe", "internal: unrouted subscribe")
            }
            Request::Control { run, target, set } => match core.live.get(run) {
                None => error_response("control", format!("unknown live run {run}")),
                Some(session) => match session.control(ControlWrite { target, set }) {
                    Err(message) => error_response("control", message),
                    Ok(position) => {
                        let mut resp = response_head("control", true);
                        resp.set("run", Value::from(run));
                        resp.set("queued", Value::from(position));
                        resp
                    }
                },
            },
            Request::Journal { run } => match core.live.get(run) {
                None => error_response("journal", format!("unknown live run {run}")),
                Some(session) => {
                    let mut resp = response_head("journal", true);
                    if let Some(pairs) = session.journal_doc().as_obj() {
                        for (key, value) in pairs {
                            resp.set(key.clone(), value.clone());
                        }
                    }
                    resp
                }
            },
            Request::Shutdown => {
                let summary = core.drain();
                let mut resp = response_head("shutdown", true);
                resp.set("submitted", Value::from(summary.submitted));
                resp.set("executed", Value::from(summary.executed));
                resp.set("failed", Value::from(summary.failed));
                resp.set("expired", Value::from(summary.expired));
                if core.fleet.is_some() {
                    resp.set("requeued", Value::from(summary.requeued));
                }
                resp
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobSpec;
    use fgqos_bench::report::Report;
    use std::io::BufRead;

    fn stub_executor() -> Executor {
        Arc::new(|spec: &JobSpec| {
            let mut r = Report::new("stub");
            r.note(format!("cycles={}", spec.cycles));
            Ok(r)
        })
    }

    fn test_server() -> ServerHandle {
        start(
            ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
            stub_executor(),
        )
        .expect("bind loopback")
    }

    struct Wire {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Wire {
        fn connect(addr: SocketAddr) -> Wire {
            let writer = TcpStream::connect(addr).expect("connect");
            let reader = BufReader::new(writer.try_clone().expect("clone"));
            Wire { reader, writer }
        }

        fn roundtrip(&mut self, frame: &str) -> Value {
            self.writer
                .write_all(format!("{frame}\n").as_bytes())
                .expect("write");
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read");
            Value::parse(line.trim_end()).expect("response parses")
        }
    }

    fn shutdown(wire: &mut Wire, server: ServerHandle) {
        let resp = wire.roundtrip(r#"{"op":"shutdown"}"#);
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        server.join();
    }

    #[test]
    fn submit_then_result_roundtrip() {
        let server = test_server();
        let mut wire = Wire::connect(server.addr());
        let ack = wire.roundtrip(r#"{"op":"submit","scenario":"s","cycles":123}"#);
        assert_eq!(ack.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(ack.get("cached"), Some(&Value::Bool(false)));
        let job = ack.get("job").unwrap().as_u64().unwrap();
        let report = loop {
            let resp = wire.roundtrip(&format!(r#"{{"op":"result","job":{job}}}"#));
            assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
            if resp.get("state").unwrap().as_str() == Some("done") {
                break resp.get("report").unwrap().clone();
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let report = Report::from_json(&report).expect("valid report document");
        assert!(report.render_text().contains("cycles=123"));
        shutdown(&mut wire, server);
    }

    #[test]
    fn malformed_and_unknown_frames_keep_the_connection_alive() {
        let server = test_server();
        let mut wire = Wire::connect(server.addr());
        let resp = wire.roundtrip("this is not json");
        assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
        let resp = wire.roundtrip(r#"{"op":"frobnicate"}"#);
        assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
        let resp = wire.roundtrip(r#"{"op":"status","job":99}"#);
        assert!(resp
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unknown job"));
        // The connection still works for real traffic afterwards.
        let ack = wire.roundtrip(r#"{"op":"submit","scenario":"s"}"#);
        assert_eq!(ack.get("ok"), Some(&Value::Bool(true)));
        shutdown(&mut wire, server);
    }

    #[test]
    fn metrics_export_has_both_formats() {
        let server = test_server();
        let mut wire = Wire::connect(server.addr());
        wire.roundtrip(r#"{"op":"submit","scenario":"s"}"#);
        let json = wire.roundtrip(r#"{"op":"metrics"}"#);
        let metrics = json.get("metrics").expect("metrics document");
        assert!(metrics
            .get("metrics")
            .unwrap()
            .get("serve.jobs.submitted")
            .is_some());
        let csv = wire.roundtrip(r#"{"op":"metrics","format":"csv"}"#);
        assert!(csv
            .get("csv")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("serve.frames"));
        shutdown(&mut wire, server);
    }

    #[test]
    fn shutdown_drains_and_reports_counters() {
        let server = test_server();
        let mut wire = Wire::connect(server.addr());
        for i in 0..4 {
            let ack = wire.roundtrip(&format!(r#"{{"op":"submit","scenario":"s","cycles":{i}}}"#));
            assert_eq!(ack.get("ok"), Some(&Value::Bool(true)));
        }
        let addr = server.addr();
        let resp = wire.roundtrip(r#"{"op":"shutdown"}"#);
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(resp.get("submitted").unwrap().as_u64(), Some(4));
        assert_eq!(resp.get("executed").unwrap().as_u64(), Some(4));
        server.join();
        // New connections are refused once the listener is down.
        assert!(TcpStream::connect(addr).is_err());
    }
}
