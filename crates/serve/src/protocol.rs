//! The `fgqos.serve v4` wire protocol.
//!
//! Frames are newline-delimited JSON: one request object per line, one
//! response object per line, in order. Both sides reuse
//! [`fgqos_sim::json`] for parsing and serialization — no external
//! dependencies, and responses are byte-deterministic (insertion-order
//! keys, compact layout).
//!
//! # Requests
//!
//! ```json
//! {"op":"submit","scenario":"<text>","cycles":200000,"until_done":"cpu",
//!  "client":"alice","deadline_ms":5000}
//! {"op":"submit_batch","scenario":"<text>","cycles":200000,
//!  "warmup":1000000,"points":[{"period":1000,"budget":2048}],
//!  "client":"alice","deadline_ms":5000}
//! {"op":"status","job":1}
//! {"op":"result","job":1}
//! {"op":"metrics","format":"json"}
//! {"op":"ping"}
//! {"op":"register_worker","addr":"127.0.0.1:34567"}
//! {"op":"snapshot","scenario":"<text>","warmup":1000000}
//! {"op":"subscribe","scenario":"<text>","cycles":200000,"window":10000,
//!  "client":"alice"}
//! {"op":"subscribe","run":1}
//! {"op":"control","run":1,"target":"dma","set":"budget","value":4096}
//! {"op":"journal","run":1}
//! {"op":"shutdown"}
//! ```
//!
//! Only `op` (and `scenario` / `job` / `points` where shown) is
//! required; the other fields default. `client` names the
//! admission-control principal (defaulting to the peer address),
//! `deadline_ms` bounds how long the job may sit in the queue before it
//! expires unexecuted.
//!
//! Protocol v3 adds the fleet ops: `ping` is a liveness probe (used as
//! the coordinator's heartbeat), `register_worker` announces a worker's
//! serve address to a coordinator, and `snapshot` warms a scenario to a
//! quiesced boundary and returns it as a hex-encoded, fingerprint-checked
//! snapshot blob (the same container a `BlobStore` files on disk). All
//! v2 requests are unchanged.
//!
//! Protocol v4 adds the live ops (see [`crate::live`]): `subscribe`
//! starts a windowed live run (or attaches to a running one by id) and
//! — uniquely in this protocol — turns the connection into a stream:
//! after the acknowledgement, one `fgqos.live` frame object per window
//! is pushed per line until an `"stream":"end"` object, after which the
//! connection reverts to request/response. `control` queues a
//! budget/period/enable register write against a live run (applied at
//! the next window boundary and journaled with the cycle it took
//! effect), and `journal` fetches a run's control journal, replay
//! scenario and — once finished — its final report. All v3 requests are
//! unchanged.
//!
//! `submit_batch` (v2) is a warm-start sweep slice: one scenario warmed
//! for `warmup` cycles to a quiesced boundary, then one divergent run
//! per point with that point's best-effort `period`/`budget` programmed
//! at the boundary. Every point gets its own job id (individually
//! `status`-/`result`-addressable and result-cached); the uncached
//! points execute together on a single worker lane so the boundary
//! `SocSnapshot` is captured once and forked per point.
//!
//! # Responses
//!
//! Every response carries `{"schema":"fgqos.serve","version":2,
//! "ok":<bool>,"op":"<request op>"}` plus op-specific fields. A `result`
//! response for a finished job embeds the full
//! [`fgqos_bench::report::Report`] JSON document under `"report"` — the
//! same schema the `exp_*` binaries write to `results/`. A
//! `submit_batch` acknowledgement carries `"jobs"` (one id per point, in
//! point order), `"cached"` (parallel booleans) and `"lane"` (the worker
//! lane the uncached remainder was pinned to, absent when everything was
//! answered from the cache).

use fgqos_sim::json::Value;
use std::io::BufRead;

/// Schema identifier carried by every response.
pub const SERVE_SCHEMA: &str = "fgqos.serve";
/// Protocol version carried by every response. Version 2 added
/// `submit_batch` and the per-lane metrics; version 3 added the fleet
/// ops (`ping`, `register_worker`, `snapshot`); version 4 added the
/// live ops (`subscribe`, `control`, `journal`). All earlier requests
/// are unchanged.
pub const SERVE_VERSION: u64 = 4;
/// Default cap on a single request frame, in bytes (newline included).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 256 * 1024;
/// Default telemetry window of a live run, in cycles (`subscribe`
/// requests omitting `window`).
pub const DEFAULT_LIVE_WINDOW: u64 = 10_000;

/// What to execute: the cacheable identity of a job.
///
/// Two submissions with equal `JobSpec`s are the same job as far as the
/// result cache is concerned.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// Scenario file text (the same format `fgqos <file>` reads).
    pub scenario: String,
    /// Cycle budget for the run.
    pub cycles: u64,
    /// Optional `--until-done` master name.
    pub until_done: Option<String>,
}

/// One grid point of a batch: the regulator knobs programmed at the
/// warm boundary before the point's divergent run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchPoint {
    /// Replenishment period (cycles) programmed into every best-effort
    /// regulator.
    pub period: u64,
    /// Per-window budget (bytes) programmed into every best-effort
    /// regulator.
    pub budget: u64,
}

impl BatchPoint {
    /// The point's `period` and `budget` as register writes: a period of
    /// at least 1 cycle, and both within the 32-bit register width.
    pub fn writes(&self) -> Result<[ControlSet; 2], String> {
        let write = |key, v: u64| ControlSet::parse(key, Some(&Value::from(v)));
        Ok([write("period", self.period)?, write("budget", self.budget)?])
    }
}

/// The operation family a batch belongs to. Tagging the batch identity
/// keeps cache namespaces disjoint: a hunt candidate and a sweep point
/// with identical `(scenario, cycles, warmup, period, budget)` must
/// never answer each other from the result cache, because the two
/// operations carry different downstream guarantees (a sweep point is a
/// published grid result; a hunt point is a search probe whose report
/// feeds the refinement loop and may be re-evaluated under different
/// engine settings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BatchKind {
    /// A warm-start sweep slice (protocol v2 `submit_batch` default).
    #[default]
    Sweep,
    /// A hunt candidate batch (`fgqos hunt` evaluation lanes).
    Hunt,
}

impl BatchKind {
    /// Wire and cache-key tag. Lower-case, stable — cache keys embed it.
    pub fn as_str(self) -> &'static str {
        match self {
            BatchKind::Sweep => "sweep",
            BatchKind::Hunt => "hunt",
        }
    }

    /// Parses a wire tag; `Err` names the unknown tag.
    pub fn parse(tag: &str) -> Result<Self, String> {
        match tag {
            "sweep" => Ok(BatchKind::Sweep),
            "hunt" => Ok(BatchKind::Hunt),
            other => Err(format!("unknown batch kind '{other}'")),
        }
    }
}

/// A warm-start sweep slice: one shared scenario prefix, many divergent
/// points.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BatchSpec {
    /// Scenario file text (the same format `fgqos <file>` reads).
    pub scenario: String,
    /// Cycle budget of each point's divergent run, measured from the
    /// warm boundary.
    pub cycles: u64,
    /// Optional `--until-done` master name for the divergent runs.
    pub until_done: Option<String>,
    /// Shared warm-up cycles run before the boundary is captured.
    pub warmup: u64,
    /// The grid points, in submission order.
    pub points: Vec<BatchPoint>,
    /// Operation family, namespacing the per-point cache keys.
    pub kind: BatchKind,
}

/// A live run to start: the `subscribe` op's new-run identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LiveSpec {
    /// Scenario file text (the same format `fgqos <file>` reads).
    pub scenario: String,
    /// Cycle budget for the run.
    pub cycles: u64,
    /// Telemetry window in cycles: one frame per window, and the
    /// granularity at which queued control writes take effect.
    pub window: u64,
    /// Host milliseconds slept after each emitted frame, pacing the run
    /// for interactive consumers (0 = run at full simulation speed).
    /// Purely host-side: sim semantics, journal and replay are
    /// unaffected.
    pub pace_ms: u64,
}

/// One live register write: the wire's name for the regulator write
/// every path shares, screened by
/// [`ProgramOp::parse`](fgqos_core::program::ProgramOp::parse).
pub use fgqos_core::program::ProgramOp as ControlSet;

/// Requested metrics export format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// `fgqos.metrics` JSON document (the default).
    Json,
    /// Flattened CSV, as a string field.
    Csv,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a scenario-execution job.
    Submit {
        /// The job identity (scenario text, cycles, options).
        spec: JobSpec,
        /// Admission-control principal; defaults to the peer address.
        client: Option<String>,
        /// Queue deadline in milliseconds from submission.
        deadline_ms: Option<u64>,
    },
    /// Enqueue a warm-start sweep slice (protocol v2).
    SubmitBatch {
        /// The batch identity: shared prefix plus per-point overrides.
        spec: BatchSpec,
        /// Admission-control principal; defaults to the peer address.
        client: Option<String>,
        /// Queue deadline in milliseconds from submission.
        deadline_ms: Option<u64>,
    },
    /// Query a job's lifecycle state.
    Status {
        /// Job id returned by `submit`.
        job: u64,
    },
    /// Fetch a job's result (the embedded `Report`) once done.
    Result {
        /// Job id returned by `submit`.
        job: u64,
    },
    /// Export the server's metrics registry.
    Metrics {
        /// Export format.
        format: MetricsFormat,
    },
    /// Liveness probe (protocol v3); answered immediately, used as the
    /// coordinator's worker heartbeat.
    Ping,
    /// Announce a worker's serve address to a coordinator (protocol
    /// v3). Plain servers refuse it.
    RegisterWorker {
        /// The worker's own listen address, reachable by the receiver.
        addr: String,
    },
    /// Warm a scenario to a quiesced boundary and return it as a
    /// hex-encoded snapshot blob (protocol v3).
    Snapshot {
        /// Scenario file text.
        scenario: String,
        /// Warm-up cycles before the boundary search.
        warmup: u64,
    },
    /// Start a live run and stream its telemetry frames, or attach to a
    /// running one (protocol v4). Exactly one of `spec` and `run` is
    /// set.
    Subscribe {
        /// New-run mode: the live run to start.
        spec: Option<LiveSpec>,
        /// Attach mode: id of an already-running live run.
        run: Option<u64>,
        /// Admission-control principal; defaults to the peer address.
        client: Option<String>,
    },
    /// Queue a register write against a live run (protocol v4); it
    /// applies at the run's next window boundary.
    Control {
        /// Live run id from the `subscribe` acknowledgement.
        run: u64,
        /// Best-effort master whose regulator is written.
        target: String,
        /// The register write.
        set: ControlSet,
    },
    /// Fetch a live run's control journal, replay scenario and — once
    /// the run finished — its final report (protocol v4).
    Journal {
        /// Live run id from the `subscribe` acknowledgement.
        run: u64,
    },
    /// Stop accepting work, drain the queue, reply, then exit.
    Shutdown,
}

/// Lower-case hex encoding of arbitrary bytes (the wire form of
/// snapshot blobs, which are binary but must ride a JSON protocol).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decodes [`to_hex`] output; the error string is protocol-ready.
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("hex payload has odd length".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(s.get(i..i + 2).ok_or("hex payload is not ascii")?, 16)
                .map_err(|_| format!("invalid hex byte at offset {i}"))
        })
        .collect()
}

/// Error from [`read_frame`].
#[derive(Debug)]
pub enum FrameError {
    /// The line exceeded the frame cap. The oversized line has been
    /// consumed from the stream; the connection may continue.
    TooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { limit } => {
                write!(f, "frame exceeds {limit} bytes")
            }
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one newline-terminated frame, enforcing the byte cap.
///
/// Returns `Ok(None)` on a clean end of stream. An oversized line is
/// consumed in full (up to the next newline or EOF) before
/// [`FrameError::TooLarge`] is returned, so the caller can report the
/// error and keep serving the connection.
pub fn read_frame<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
) -> Result<Option<String>, FrameError> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        let available = reader.fill_buf().map_err(FrameError::Io)?;
        if available.is_empty() {
            return match (overflowed, buf.is_empty()) {
                (true, _) => Err(FrameError::TooLarge { limit: max_bytes }),
                (false, true) => Ok(None),
                (false, false) => Ok(Some(String::from_utf8_lossy(&buf).into_owned())),
            };
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(available.len());
        if !overflowed {
            if buf.len() + take > max_bytes {
                overflowed = true;
                buf.clear();
            } else {
                buf.extend_from_slice(&available[..take]);
            }
        }
        let consumed = match newline {
            Some(pos) => pos + 1,
            None => available.len(),
        };
        reader.consume(consumed);
        if newline.is_some() {
            return if overflowed {
                Err(FrameError::TooLarge { limit: max_bytes })
            } else {
                Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
            };
        }
    }
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("'{key}' must be a non-negative integer"))
}

fn opt_str(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("'{key}' must be a string")),
    }
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(other) => other
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("'{key}' must be a non-negative integer")),
    }
}

/// Parses one request frame.
///
/// The error string is ready to embed in an `ok:false` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Value::parse(line).map_err(|e| format!("malformed frame: {e}"))?;
    if doc.as_obj().is_none() {
        return Err("malformed frame: request must be a JSON object".into());
    }
    let op = doc
        .get("op")
        .and_then(Value::as_str)
        .ok_or("malformed frame: missing string 'op'")?;
    match op {
        "submit" => {
            let scenario = doc
                .get("scenario")
                .and_then(Value::as_str)
                .ok_or("submit needs a string 'scenario'")?
                .to_string();
            let cycles = opt_u64(&doc, "cycles")?.unwrap_or(1_000_000);
            Ok(Request::Submit {
                spec: JobSpec {
                    scenario,
                    cycles,
                    until_done: opt_str(&doc, "until_done")?,
                },
                client: opt_str(&doc, "client")?,
                deadline_ms: opt_u64(&doc, "deadline_ms")?,
            })
        }
        "submit_batch" => {
            let scenario = doc
                .get("scenario")
                .and_then(Value::as_str)
                .ok_or("submit_batch needs a string 'scenario'")?
                .to_string();
            let points = doc
                .get("points")
                .and_then(Value::as_arr)
                .ok_or("submit_batch needs an array 'points'")?
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let point = BatchPoint {
                        period: req_u64(p, "period")?,
                        budget: req_u64(p, "budget")?,
                    };
                    point.writes().map_err(|e| format!("point {i}: {e}"))?;
                    Ok(point)
                })
                .collect::<Result<Vec<_>, String>>()?;
            if points.is_empty() {
                return Err("submit_batch needs at least one point".into());
            }
            let kind = match doc.get("kind").and_then(Value::as_str) {
                Some(tag) => BatchKind::parse(tag)?,
                None => BatchKind::Sweep,
            };
            Ok(Request::SubmitBatch {
                spec: BatchSpec {
                    scenario,
                    cycles: opt_u64(&doc, "cycles")?.unwrap_or(1_000_000),
                    until_done: opt_str(&doc, "until_done")?,
                    warmup: opt_u64(&doc, "warmup")?.unwrap_or(0),
                    points,
                    kind,
                },
                client: opt_str(&doc, "client")?,
                deadline_ms: opt_u64(&doc, "deadline_ms")?,
            })
        }
        "status" => Ok(Request::Status {
            job: req_u64(&doc, "job")?,
        }),
        "result" => Ok(Request::Result {
            job: req_u64(&doc, "job")?,
        }),
        "metrics" => {
            let format = match doc.get("format").and_then(Value::as_str) {
                None | Some("json") => MetricsFormat::Json,
                Some("csv") => MetricsFormat::Csv,
                Some(other) => return Err(format!("unknown metrics format {other:?}")),
            };
            Ok(Request::Metrics { format })
        }
        "ping" => Ok(Request::Ping),
        "register_worker" => Ok(Request::RegisterWorker {
            addr: doc
                .get("addr")
                .and_then(Value::as_str)
                .ok_or("register_worker needs a string 'addr'")?
                .to_string(),
        }),
        "snapshot" => Ok(Request::Snapshot {
            scenario: doc
                .get("scenario")
                .and_then(Value::as_str)
                .ok_or("snapshot needs a string 'scenario'")?
                .to_string(),
            warmup: opt_u64(&doc, "warmup")?.unwrap_or(0),
        }),
        "subscribe" => {
            let run = opt_u64(&doc, "run")?;
            let scenario = opt_str(&doc, "scenario")?;
            let spec = match (&scenario, run) {
                (Some(_), Some(_)) => {
                    return Err("subscribe takes either 'scenario' or 'run', not both".into())
                }
                (None, None) => {
                    return Err("subscribe needs a string 'scenario' or a 'run' id".into())
                }
                (Some(s), None) => {
                    let window = opt_u64(&doc, "window")?.unwrap_or(DEFAULT_LIVE_WINDOW);
                    if window == 0 {
                        return Err("subscribe window must be at least 1 cycle".into());
                    }
                    Some(LiveSpec {
                        scenario: s.clone(),
                        cycles: opt_u64(&doc, "cycles")?.unwrap_or(1_000_000),
                        window,
                        pace_ms: opt_u64(&doc, "pace_ms")?.unwrap_or(0),
                    })
                }
                (None, Some(_)) => None,
            };
            Ok(Request::Subscribe {
                spec,
                run,
                client: opt_str(&doc, "client")?,
            })
        }
        "control" => {
            let set = doc
                .get("set")
                .and_then(Value::as_str)
                .ok_or("control needs a string 'set' (budget, period or enable)")?;
            Ok(Request::Control {
                run: req_u64(&doc, "run")?,
                target: doc
                    .get("target")
                    .and_then(Value::as_str)
                    .ok_or("control needs a string 'target'")?
                    .to_string(),
                set: ControlSet::parse(set, doc.get("value"))?,
            })
        }
        "journal" => Ok(Request::Journal {
            run: req_u64(&doc, "run")?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Starts a response object: schema, version, `ok`, and the request op.
pub fn response_head(op: &str, ok: bool) -> Value {
    let mut v = Value::obj();
    v.set("schema", Value::str(SERVE_SCHEMA));
    v.set("version", Value::from(SERVE_VERSION));
    v.set("ok", Value::from(ok));
    v.set("op", Value::str(op));
    v
}

/// Builds an `ok:false` response with an error message.
pub fn error_response(op: &str, error: impl Into<String>) -> Value {
    let mut v = response_head(op, false);
    v.set("error", Value::str(error.into()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_submit_with_defaults() {
        let r = parse_request(r#"{"op":"submit","scenario":"[master a]\nkind cpu\n"}"#).unwrap();
        let Request::Submit {
            spec,
            client,
            deadline_ms,
        } = r
        else {
            panic!("expected submit");
        };
        assert_eq!(spec.cycles, 1_000_000);
        assert!(spec.until_done.is_none());
        assert!(client.is_none());
        assert!(deadline_ms.is_none());
        assert!(spec.scenario.contains("[master a]"));
    }

    #[test]
    fn parses_submit_with_all_fields() {
        let r = parse_request(
            r#"{"op":"submit","scenario":"s","cycles":5000,"until_done":"cpu","client":"alice","deadline_ms":250}"#,
        )
        .unwrap();
        let Request::Submit {
            spec,
            client,
            deadline_ms,
        } = r
        else {
            panic!("expected submit");
        };
        assert_eq!(spec.cycles, 5_000);
        assert_eq!(spec.until_done.as_deref(), Some("cpu"));
        assert_eq!(client.as_deref(), Some("alice"));
        assert_eq!(deadline_ms, Some(250));
    }

    #[test]
    fn parses_submit_batch() {
        let r = parse_request(
            r#"{"op":"submit_batch","scenario":"s","cycles":9000,"warmup":50000,"until_done":"cpu","points":[{"period":1000,"budget":2048},{"period":100000,"budget":204800}]}"#,
        )
        .unwrap();
        let Request::SubmitBatch { spec, .. } = r else {
            panic!("expected submit_batch");
        };
        assert_eq!(spec.cycles, 9_000);
        assert_eq!(spec.warmup, 50_000);
        assert_eq!(spec.until_done.as_deref(), Some("cpu"));
        assert_eq!(
            spec.points,
            vec![
                BatchPoint {
                    period: 1_000,
                    budget: 2_048
                },
                BatchPoint {
                    period: 100_000,
                    budget: 204_800
                },
            ]
        );
        assert_eq!(spec.kind, BatchKind::Sweep, "kind defaults to sweep");
    }

    #[test]
    fn parses_submit_batch_kind_tag() {
        let r = parse_request(
            r#"{"op":"submit_batch","scenario":"s","kind":"hunt","points":[{"period":1000,"budget":2048}]}"#,
        )
        .unwrap();
        let Request::SubmitBatch { spec, .. } = r else {
            panic!("expected submit_batch");
        };
        assert_eq!(spec.kind, BatchKind::Hunt);
        let err = parse_request(
            r#"{"op":"submit_batch","scenario":"s","kind":"mystery","points":[{"period":1,"budget":1}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown batch kind"), "{err}");
    }

    #[test]
    fn submit_batch_rejects_bad_points() {
        assert!(parse_request(r#"{"op":"submit_batch","scenario":"s"}"#)
            .unwrap_err()
            .contains("points"));
        assert!(
            parse_request(r#"{"op":"submit_batch","scenario":"s","points":[]}"#)
                .unwrap_err()
                .contains("at least one point")
        );
        assert!(
            parse_request(r#"{"op":"submit_batch","scenario":"s","points":[{"period":5}]}"#)
                .unwrap_err()
                .contains("budget")
        );
        // Points are register writes: period 0 and values past the
        // 32-bit register are refused before any job is queued.
        for (point, fragment) in [
            (r#"{"period":0,"budget":2048}"#, "at least 1"),
            (r#"{"period":5000000000,"budget":2048}"#, "register width"),
            (r#"{"period":1000,"budget":5000000000}"#, "register width"),
        ] {
            let frame = format!(
                r#"{{"op":"submit_batch","scenario":"s","points":[{{"period":1,"budget":1}},{point}]}}"#
            );
            let err = parse_request(&frame).unwrap_err();
            assert!(err.contains("point 1") && err.contains(fragment), "{err}");
        }
    }

    #[test]
    fn parses_control_ops() {
        assert_eq!(
            parse_request(r#"{"op":"status","job":7}"#).unwrap(),
            Request::Status { job: 7 }
        );
        assert_eq!(
            parse_request(r#"{"op":"result","job":7}"#).unwrap(),
            Request::Result { job: 7 }
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics {
                format: MetricsFormat::Json
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics","format":"csv"}"#).unwrap(),
            Request::Metrics {
                format: MetricsFormat::Csv
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn parses_fleet_ops() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"op":"register_worker","addr":"127.0.0.1:9"}"#).unwrap(),
            Request::RegisterWorker {
                addr: "127.0.0.1:9".into()
            }
        );
        assert!(parse_request(r#"{"op":"register_worker"}"#)
            .unwrap_err()
            .contains("addr"));
        assert_eq!(
            parse_request(r#"{"op":"snapshot","scenario":"s","warmup":500}"#).unwrap(),
            Request::Snapshot {
                scenario: "s".into(),
                warmup: 500
            }
        );
        assert!(parse_request(r#"{"op":"snapshot"}"#)
            .unwrap_err()
            .contains("scenario"));
    }

    #[test]
    fn parses_live_ops() {
        let r = parse_request(r#"{"op":"subscribe","scenario":"s","cycles":9000,"window":500}"#)
            .unwrap();
        assert_eq!(
            r,
            Request::Subscribe {
                spec: Some(LiveSpec {
                    scenario: "s".into(),
                    cycles: 9_000,
                    window: 500,
                    pace_ms: 0,
                }),
                run: None,
                client: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"subscribe","run":3}"#).unwrap(),
            Request::Subscribe {
                spec: None,
                run: Some(3),
                client: None,
            }
        );
        assert!(parse_request(r#"{"op":"subscribe"}"#)
            .unwrap_err()
            .contains("'scenario' or a 'run'"));
        assert!(
            parse_request(r#"{"op":"subscribe","scenario":"s","run":1}"#)
                .unwrap_err()
                .contains("not both")
        );
        assert!(
            parse_request(r#"{"op":"subscribe","scenario":"s","window":0}"#)
                .unwrap_err()
                .contains("window")
        );
        assert_eq!(
            parse_request(r#"{"op":"control","run":1,"target":"dma","set":"budget","value":4096}"#)
                .unwrap(),
            Request::Control {
                run: 1,
                target: "dma".into(),
                set: ControlSet::Budget(4_096),
            }
        );
        assert_eq!(
            parse_request(
                r#"{"op":"control","run":1,"target":"dma","set":"enable","value":"off"}"#
            )
            .unwrap(),
            Request::Control {
                run: 1,
                target: "dma".into(),
                set: ControlSet::Enable(false),
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"journal","run":2}"#).unwrap(),
            Request::Journal { run: 2 }
        );
    }

    #[test]
    fn control_set_screens_register_writes() {
        assert!(ControlSet::parse("period", Some(&Value::from(0u64)))
            .unwrap_err()
            .contains("at least 1"));
        assert!(
            ControlSet::parse("budget", Some(&Value::from(5_000_000_000u64)))
                .unwrap_err()
                .contains("register width")
        );
        assert!(ControlSet::parse("gain", Some(&Value::from(1u64)))
            .unwrap_err()
            .contains("unknown control set"));
        assert!(ControlSet::parse("budget", None)
            .unwrap_err()
            .contains("value"));
        assert_eq!(
            ControlSet::parse("enable", Some(&Value::Bool(true))).unwrap(),
            ControlSet::Enable(true)
        );
        let s = ControlSet::Period(250);
        assert_eq!(s.key(), "period");
        assert_eq!(s.value().as_u64(), Some(250));
    }

    #[test]
    fn hex_roundtrip_and_rejection() {
        let bytes: Vec<u8> = (0u8..=255).collect();
        let hex = to_hex(&bytes);
        assert_eq!(from_hex(&hex).unwrap(), bytes);
        assert!(from_hex("abc").unwrap_err().contains("odd"));
        assert!(from_hex("zz").unwrap_err().contains("invalid hex"));
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn rejects_malformed_frames() {
        assert!(parse_request("not json").unwrap_err().contains("malformed"));
        assert!(parse_request("[1,2]").unwrap_err().contains("object"));
        assert!(parse_request("{}").unwrap_err().contains("op"));
        assert!(parse_request(r#"{"op":"frobnicate"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(parse_request(r#"{"op":"submit"}"#)
            .unwrap_err()
            .contains("scenario"));
        assert!(parse_request(r#"{"op":"result"}"#)
            .unwrap_err()
            .contains("job"));
        assert!(
            parse_request(r#"{"op":"submit","scenario":"s","cycles":"x"}"#)
                .unwrap_err()
                .contains("cycles")
        );
    }

    #[test]
    fn read_frame_splits_lines_and_handles_eof() {
        let mut r = BufReader::new("{\"a\":1}\n{\"b\":2}\nlast".as_bytes());
        assert_eq!(
            read_frame(&mut r, 64).unwrap().as_deref(),
            Some("{\"a\":1}")
        );
        assert_eq!(
            read_frame(&mut r, 64).unwrap().as_deref(),
            Some("{\"b\":2}")
        );
        assert_eq!(read_frame(&mut r, 64).unwrap().as_deref(), Some("last"));
        assert!(read_frame(&mut r, 64).unwrap().is_none());
    }

    #[test]
    fn read_frame_rejects_oversized_but_resynchronizes() {
        let big = "x".repeat(100);
        let input = format!("{big}\nok\n");
        let mut r = BufReader::with_capacity(8, input.as_bytes());
        match read_frame(&mut r, 32) {
            Err(FrameError::TooLarge { limit: 32 }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // The oversized line was consumed; the next frame parses fine.
        assert_eq!(read_frame(&mut r, 32).unwrap().as_deref(), Some("ok"));
    }

    #[test]
    fn response_head_is_schema_versioned() {
        let v = response_head("submit", true);
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SERVE_SCHEMA));
        assert_eq!(v.get("version").unwrap().as_u64(), Some(SERVE_VERSION));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let e = error_response("status", "nope");
        assert_eq!(e.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(e.get("error").unwrap().as_str(), Some("nope"));
    }
}
