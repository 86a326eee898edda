//! Live run sessions: telemetry fan-out and the runtime control plane.
//!
//! A *live run* is a windowed simulation (`Soc::run_windowed` under the
//! hood) executing on its own thread while clients interact with it over
//! the v4 wire ops:
//!
//! * `subscribe` attaches a telemetry stream: one `fgqos.live` frame per
//!   window, fanned out to every subscriber through a **bounded
//!   per-subscriber queue**. A slow subscriber never stalls the
//!   simulation or its peers — once its queue holds
//!   [`SUBSCRIBER_QUEUE_CAP`] frames the oldest frame is dropped and the
//!   subscriber's drop counter advances (drops are visible as gaps in
//!   the `window` sequence and as the `dropped` count in the end-of-stream
//!   message).
//! * `control` queues a register write ([`ControlWrite`]). The run
//!   applies queued writes at its next window boundary, through the very
//!   code path a `[phase]` directive uses, and records each accepted
//!   write in the session's **control journal** stamped with the sim
//!   cycle it took effect.
//!
//! The journal ([`JournalEntry`], serialized by [`journal_json`]) is the
//! determinism contract: replaying it into the original scenario as
//! synthesized `[phase]` entries reproduces the live run's final report
//! and fingerprint byte-for-byte. The session layer only stores what the
//! executor hands it; the replay synthesis itself lives with the
//! scenario engine (`fgqos::runner`).
//!
//! Everything here is transport-agnostic plumbing — no sockets, no
//! protocol framing — so the engine side can be driven directly by
//! tests.

use crate::protocol::ControlSet;
use crate::recover;
use fgqos_sim::json::Value;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Schema identifier carried by every streamed frame.
pub const LIVE_SCHEMA: &str = "fgqos.live";
/// Frame schema version.
pub const LIVE_VERSION: u64 = 1;
/// Schema identifier of the serialized control journal.
pub const JOURNAL_SCHEMA: &str = "fgqos.control-journal";
/// Control journal format version.
pub const JOURNAL_VERSION: u64 = 1;
/// Per-subscriber frame queue bound. When a subscriber falls this many
/// frames behind, its oldest queued frame is dropped (and counted).
pub const SUBSCRIBER_QUEUE_CAP: usize = 256;

/// One queued register write awaiting the run's next window boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlWrite {
    /// Best-effort master whose regulator is written.
    pub target: String,
    /// The register write.
    pub set: ControlSet,
}

/// One accepted control write, stamped with when it took effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Sim cycle the write was applied at (a window boundary).
    pub at: u64,
    /// Index of the window boundary that absorbed the write.
    pub window: u64,
    /// Best-effort master whose regulator was written.
    pub target: String,
    /// The register write.
    pub set: ControlSet,
}

impl JournalEntry {
    /// The entry as a journal/frame JSON object.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("at", Value::from(self.at));
        v.set("window", Value::from(self.window));
        v.set("target", Value::str(self.target.clone()));
        v.set("set", Value::str(self.set.key()));
        v.set("value", self.set.value());
        v
    }
}

/// Serializes a control journal: `{"schema":"fgqos.control-journal",
/// "version":1,"entries":[...]}`.
pub fn journal_json(entries: &[JournalEntry]) -> Value {
    let mut doc = Value::obj();
    doc.set("schema", Value::str(JOURNAL_SCHEMA));
    doc.set("version", Value::from(JOURNAL_VERSION));
    let mut arr = Value::arr();
    for e in entries {
        arr.push(e.to_json());
    }
    doc.set("entries", arr);
    doc
}

/// What the executor finds at a window boundary after draining the
/// session's control queue.
#[derive(Debug, Default)]
pub struct BoundaryCmd {
    /// Queued writes, in arrival order.
    pub writes: Vec<ControlWrite>,
    /// The server is shutting down: finish early at this boundary.
    pub abort: bool,
}

/// The result of waiting for the next streamed frame.
#[derive(Debug)]
pub enum NextFrame {
    /// A telemetry frame to forward.
    Frame(Value),
    /// The run finished; this is the end-of-stream object (already
    /// carrying the subscriber's drop count and the final state).
    End(Value),
    /// Nothing arrived within the wait bound; poll again.
    TimedOut,
}

struct SubQueue {
    frames: VecDeque<Value>,
    dropped: u64,
}

struct SessionInner {
    pending: VecDeque<ControlWrite>,
    subscribers: HashMap<u64, SubQueue>,
    next_sub: u64,
    journal: Vec<JournalEntry>,
    /// Valid control targets; `None` until the executor calls `begin`.
    targets: Option<Vec<String>>,
    frames: u64,
    dropped: u64,
    controls_queued: u64,
    finished: bool,
    error: Option<String>,
    report: Option<Value>,
    replay_scenario: Option<String>,
    abort: bool,
}

/// One live run's shared state: the meeting point of the executor
/// thread (publishing frames, draining controls, appending the journal)
/// and any number of subscriber/control connections.
pub struct LiveSession {
    id: u64,
    inner: Mutex<SessionInner>,
    wake: Condvar,
}

impl LiveSession {
    fn new(id: u64) -> Self {
        LiveSession {
            id,
            inner: Mutex::new(SessionInner {
                pending: VecDeque::new(),
                subscribers: HashMap::new(),
                next_sub: 0,
                journal: Vec::new(),
                targets: None,
                frames: 0,
                dropped: 0,
                controls_queued: 0,
                finished: false,
                error: None,
                report: None,
                replay_scenario: None,
                abort: false,
            }),
            wake: Condvar::new(),
        }
    }

    /// The run id clients address this session by.
    pub fn id(&self) -> u64 {
        self.id
    }

    // ---- executor side ---------------------------------------------------

    /// Declares the run started and which masters accept control writes
    /// (the scenario's best-effort masters). Writes queued before this
    /// point are validated late, at the first boundary.
    pub fn begin(&self, targets: Vec<String>) {
        let mut inner = recover(self.inner.lock());
        inner.targets = Some(targets);
    }

    /// Drains every queued control write (arrival order) and reports
    /// whether the run should abort at this boundary.
    pub fn drain_controls(&self) -> BoundaryCmd {
        let mut inner = recover(self.inner.lock());
        BoundaryCmd {
            writes: inner.pending.drain(..).collect(),
            abort: inner.abort,
        }
    }

    /// Records one accepted control write in the journal.
    pub fn record(&self, entry: JournalEntry) {
        let mut inner = recover(self.inner.lock());
        inner.journal.push(entry);
    }

    /// Fans a telemetry frame out to every subscriber, dropping the
    /// oldest queued frame of any subscriber at its queue cap.
    pub fn publish(&self, frame: Value) {
        let mut inner = recover(self.inner.lock());
        inner.frames += 1;
        let mut dropped = 0;
        for sub in inner.subscribers.values_mut() {
            if sub.frames.len() >= SUBSCRIBER_QUEUE_CAP {
                sub.frames.pop_front();
                sub.dropped += 1;
                dropped += 1;
            }
            sub.frames.push_back(frame.clone());
        }
        inner.dropped += dropped;
        drop(inner);
        self.wake.notify_all();
    }

    /// Marks the run finished. On success `report` is the final report
    /// document and `replay_scenario` the synthesized replay text; on
    /// failure `error` says what went wrong. Subscribers drain their
    /// queues, then receive the end-of-stream object.
    pub fn finish(
        &self,
        report: Option<Value>,
        replay_scenario: Option<String>,
        error: Option<String>,
    ) {
        let mut inner = recover(self.inner.lock());
        inner.finished = true;
        inner.report = report;
        inner.replay_scenario = replay_scenario;
        inner.error = error;
        drop(inner);
        self.wake.notify_all();
    }

    /// Sleeps up to `dur` (frame pacing), returning early — without
    /// finishing the wait — if the session is told to abort.
    pub fn pause(&self, dur: Duration) {
        let deadline = Instant::now() + dur;
        let mut inner = recover(self.inner.lock());
        loop {
            if inner.abort {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (next, _) = recover(self.wake.wait_timeout(inner, deadline - now));
            inner = next;
        }
    }

    // ---- client side -----------------------------------------------------

    /// Registers a subscriber; returns its id for [`LiveSession::next_frame`].
    pub fn subscribe(&self) -> u64 {
        let mut inner = recover(self.inner.lock());
        let sub = inner.next_sub;
        inner.next_sub += 1;
        inner.subscribers.insert(
            sub,
            SubQueue {
                frames: VecDeque::new(),
                dropped: 0,
            },
        );
        sub
    }

    /// Deregisters a subscriber (a disconnected client stops consuming
    /// queue memory).
    pub fn unsubscribe(&self, sub: u64) {
        let mut inner = recover(self.inner.lock());
        inner.subscribers.remove(&sub);
    }

    /// Pops the subscriber's next frame, waiting up to `timeout`.
    ///
    /// Queued frames drain before the end-of-stream object, so a
    /// finished run still delivers everything that was published.
    pub fn next_frame(&self, sub: u64, timeout: Duration) -> NextFrame {
        let deadline = Instant::now() + timeout;
        let mut inner = recover(self.inner.lock());
        loop {
            if let Some(q) = inner.subscribers.get_mut(&sub) {
                if let Some(frame) = q.frames.pop_front() {
                    return NextFrame::Frame(frame);
                }
            } else {
                // Unknown subscriber: treat as an already-ended stream.
                return NextFrame::End(self.end_object(&inner, 0));
            }
            if inner.finished {
                let dropped = inner.subscribers.get(&sub).map_or(0, |q| q.dropped);
                return NextFrame::End(self.end_object(&inner, dropped));
            }
            let now = Instant::now();
            if now >= deadline {
                return NextFrame::TimedOut;
            }
            let (next, _) = recover(self.wake.wait_timeout(inner, deadline - now));
            inner = next;
        }
    }

    fn end_object(&self, inner: &SessionInner, dropped: u64) -> Value {
        let mut v = Value::obj();
        v.set("schema", Value::str(LIVE_SCHEMA));
        v.set("version", Value::from(LIVE_VERSION));
        v.set("stream", Value::str("end"));
        v.set("run", Value::from(self.id));
        v.set("frames", Value::from(inner.frames));
        v.set("controls", Value::from(inner.journal.len()));
        v.set("dropped", Value::from(dropped));
        match &inner.error {
            None => {
                v.set("state", Value::str("done"));
            }
            Some(e) => {
                v.set("state", Value::str("failed"));
                v.set("error", Value::str(e.clone()));
            }
        }
        v
    }

    /// Queues a control write; returns its position in the pending
    /// queue. Rejected once the run finished, or when the target is not
    /// a best-effort master of the running scenario.
    pub fn control(&self, write: ControlWrite) -> Result<u64, String> {
        let mut inner = recover(self.inner.lock());
        if inner.finished {
            return Err(format!("live run {} already finished", self.id));
        }
        if let Some(targets) = &inner.targets {
            if !targets.iter().any(|t| t == &write.target) {
                return Err(format!(
                    "unknown control target '{}' (best-effort masters: {})",
                    write.target,
                    targets.join(", ")
                ));
            }
        }
        inner.pending.push_back(write);
        inner.controls_queued += 1;
        Ok(inner.pending.len() as u64 - 1)
    }

    /// The run's journal document: control journal, lifecycle state,
    /// and — once finished — the synthesized replay scenario plus the
    /// final report.
    pub fn journal_doc(&self) -> Value {
        let inner = recover(self.inner.lock());
        let mut v = Value::obj();
        v.set("run", Value::from(self.id));
        v.set(
            "state",
            Value::str(match (inner.finished, &inner.error) {
                (false, _) => "running",
                (true, None) => "done",
                (true, Some(_)) => "failed",
            }),
        );
        if let Some(e) = &inner.error {
            v.set("error", Value::str(e.clone()));
        }
        v.set("journal", journal_json(&inner.journal));
        if let Some(replay) = &inner.replay_scenario {
            v.set("replay_scenario", Value::str(replay.clone()));
        }
        if let Some(report) = &inner.report {
            v.set("report", report.clone());
        }
        v
    }

    /// Whether the run has finished (successfully or not).
    pub fn finished(&self) -> bool {
        recover(self.inner.lock()).finished
    }

    /// Blocks until the run finishes, up to `timeout`; returns whether
    /// it did.
    pub fn wait_finished(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = recover(self.inner.lock());
        while !inner.finished {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = recover(self.wake.wait_timeout(inner, deadline - now));
            inner = next;
        }
        true
    }

    fn request_abort(&self) {
        let mut inner = recover(self.inner.lock());
        inner.abort = true;
        drop(inner);
        self.wake.notify_all();
    }

    fn counters(&self) -> (u64, u64, u64, bool) {
        let inner = recover(self.inner.lock());
        (
            inner.frames,
            inner.controls_queued,
            inner.dropped,
            inner.finished,
        )
    }
}

/// Aggregated live-plane counters for the server's metrics export.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LiveMetrics {
    /// Live runs ever started.
    pub sessions: u64,
    /// Live runs still executing.
    pub active: u64,
    /// Telemetry frames published across all runs.
    pub frames: u64,
    /// Control writes accepted into pending queues.
    pub controls: u64,
    /// Frames dropped by subscriber queue backpressure.
    pub dropped: u64,
}

/// The server's table of live runs, addressed by run id.
#[derive(Default)]
pub struct LiveRegistry {
    sessions: Mutex<HashMap<u64, Arc<LiveSession>>>,
    next: AtomicU64,
    closed: AtomicBool,
}

impl LiveRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a new session. Refused while the server is draining.
    pub fn create(&self) -> Result<Arc<LiveSession>, String> {
        if self.closed.load(Ordering::SeqCst) {
            return Err("server is shutting down".into());
        }
        let id = self.next.fetch_add(1, Ordering::SeqCst) + 1;
        let session = Arc::new(LiveSession::new(id));
        recover(self.sessions.lock()).insert(id, session.clone());
        Ok(session)
    }

    /// Looks a session up by run id (finished sessions stay queryable
    /// for `journal`).
    pub fn get(&self, run: u64) -> Option<Arc<LiveSession>> {
        recover(self.sessions.lock()).get(&run).cloned()
    }

    /// Starts the drain: refuses new sessions, tells running ones to
    /// finish at their next window boundary, then waits (up to
    /// `timeout`) for each to do so.
    pub fn drain(&self, timeout: Duration) {
        self.closed.store(true, Ordering::SeqCst);
        let sessions: Vec<Arc<LiveSession>> =
            recover(self.sessions.lock()).values().cloned().collect();
        for s in &sessions {
            s.request_abort();
        }
        for s in &sessions {
            s.wait_finished(timeout);
        }
    }

    /// Aggregated counters across every session, for `metrics`.
    pub fn metrics(&self) -> LiveMetrics {
        let sessions = recover(self.sessions.lock());
        let mut m = LiveMetrics {
            sessions: sessions.len() as u64,
            ..LiveMetrics::default()
        };
        for s in sessions.values() {
            let (frames, controls, dropped, finished) = s.counters();
            m.frames += frames;
            m.controls += controls;
            m.dropped += dropped;
            if !finished {
                m.active += 1;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(target: &str, set: ControlSet) -> ControlWrite {
        ControlWrite {
            target: target.into(),
            set,
        }
    }

    #[test]
    fn controls_queue_and_drain_in_arrival_order() {
        let reg = LiveRegistry::new();
        let s = reg.create().unwrap();
        s.begin(vec!["dma".into()]);
        s.control(write("dma", ControlSet::Budget(1))).unwrap();
        s.control(write("dma", ControlSet::Budget(2))).unwrap();
        let cmd = s.drain_controls();
        assert!(!cmd.abort);
        assert_eq!(
            cmd.writes.iter().map(|w| w.set).collect::<Vec<_>>(),
            vec![ControlSet::Budget(1), ControlSet::Budget(2)]
        );
        assert!(
            s.drain_controls().writes.is_empty(),
            "drained queue stays empty"
        );
    }

    #[test]
    fn control_rejects_unknown_targets_and_finished_runs() {
        let reg = LiveRegistry::new();
        let s = reg.create().unwrap();
        s.begin(vec!["dma".into()]);
        let err = s
            .control(write("ghost", ControlSet::Budget(1)))
            .unwrap_err();
        assert!(err.contains("unknown control target"), "{err}");
        s.finish(None, None, None);
        let err = s.control(write("dma", ControlSet::Budget(1))).unwrap_err();
        assert!(err.contains("already finished"), "{err}");
    }

    #[test]
    fn slow_subscriber_drops_oldest_and_counts() {
        let reg = LiveRegistry::new();
        let s = reg.create().unwrap();
        let sub = s.subscribe();
        for i in 0..(SUBSCRIBER_QUEUE_CAP as u64 + 3) {
            let mut f = Value::obj();
            f.set("window", Value::from(i));
            s.publish(f);
        }
        s.finish(None, None, None);
        // The three oldest frames were dropped; the survivors start at 3.
        match s.next_frame(sub, Duration::from_secs(1)) {
            NextFrame::Frame(f) => assert_eq!(f.get("window").unwrap().as_u64(), Some(3)),
            other => panic!("expected a frame, got {other:?}"),
        }
        let mut seen = 1;
        loop {
            match s.next_frame(sub, Duration::from_secs(1)) {
                NextFrame::Frame(_) => seen += 1,
                NextFrame::End(end) => {
                    assert_eq!(end.get("dropped").unwrap().as_u64(), Some(3));
                    assert_eq!(end.get("state").unwrap().as_str(), Some("done"));
                    break;
                }
                NextFrame::TimedOut => panic!("finished stream must not time out"),
            }
        }
        assert_eq!(seen, SUBSCRIBER_QUEUE_CAP as u64);
        assert_eq!(reg.metrics().dropped, 3);
    }

    #[test]
    fn fan_out_is_independent_per_subscriber() {
        let reg = LiveRegistry::new();
        let s = reg.create().unwrap();
        let a = s.subscribe();
        let b = s.subscribe();
        s.publish(Value::obj());
        match s.next_frame(a, Duration::from_secs(1)) {
            NextFrame::Frame(_) => {}
            other => panic!("subscriber a: {other:?}"),
        }
        // a consumed its copy; b's queue is untouched.
        match s.next_frame(b, Duration::from_secs(1)) {
            NextFrame::Frame(_) => {}
            other => panic!("subscriber b: {other:?}"),
        }
    }

    #[test]
    fn drain_aborts_running_sessions() {
        let reg = LiveRegistry::new();
        let s = reg.create().unwrap();
        let exec = {
            let s = s.clone();
            std::thread::spawn(move || {
                // A stub executor: loop "windows" until told to abort.
                loop {
                    if s.drain_controls().abort {
                        s.finish(None, None, Some("aborted".into()));
                        return;
                    }
                    s.pause(Duration::from_millis(5));
                }
            })
        };
        reg.drain(Duration::from_secs(5));
        exec.join().unwrap();
        assert!(s.finished());
        assert!(reg.create().is_err(), "drained registry refuses new runs");
    }

    #[test]
    fn a_poisoned_session_lock_still_answers() {
        let reg = LiveRegistry::new();
        let s = reg.create().unwrap();
        let holder = Arc::clone(&s);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.inner.lock().unwrap();
            panic!("a connection panics while holding the session lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(s.inner.is_poisoned());
        let sub = s.subscribe();
        s.publish(Value::obj());
        assert!(matches!(
            s.next_frame(sub, Duration::ZERO),
            NextFrame::Frame(_)
        ));
        let doc = s.journal_doc();
        assert_eq!(doc.get("state").unwrap().as_str(), Some("running"));
    }

    #[test]
    fn journal_doc_shape() {
        let reg = LiveRegistry::new();
        let s = reg.create().unwrap();
        s.begin(vec!["dma".into()]);
        s.record(JournalEntry {
            at: 10_000,
            window: 0,
            target: "dma".into(),
            set: ControlSet::Enable(false),
        });
        s.finish(Some(Value::obj()), Some("scenario text".into()), None);
        let doc = s.journal_doc();
        assert_eq!(doc.get("state").unwrap().as_str(), Some("done"));
        let j = doc.get("journal").unwrap();
        assert_eq!(j.get("schema").unwrap().as_str(), Some(JOURNAL_SCHEMA));
        assert_eq!(j.get("version").unwrap().as_u64(), Some(JOURNAL_VERSION));
        let entries = j.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("at").unwrap().as_u64(), Some(10_000));
        assert_eq!(entries[0].get("set").unwrap().as_str(), Some("enable"));
        assert_eq!(entries[0].get("value"), Some(&Value::Bool(false)));
        assert_eq!(
            doc.get("replay_scenario").unwrap().as_str(),
            Some("scenario text")
        );
        assert!(doc.get("report").is_some());
    }
}
