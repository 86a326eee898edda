//! Event tracing: a bounded in-memory event sink with Chrome/Perfetto
//! export.
//!
//! A [`Trace`] is an append-only log of timestamped simulation events.
//! Tracing is opt-in and intended for diagnostic runs; the hot
//! simulation path does not touch it unless a component is explicitly
//! wrapped (see [`TracingGate`]), so the fast-forward core stays
//! allocation-free and bit-identical when tracing is off (proptest-guarded
//! in `tests/observability.rs`, like `FGQOS_NAIVE=1`).
//!
//! Captured traces export to the Chrome trace-event JSON format via
//! [`ChromeTraceBuilder`] (or the [`Soc::chrome_trace`] convenience),
//! which Perfetto and `chrome://tracing` load directly: transactions
//! become duration slices, gate decisions become instant events and
//! per-window byte series become counter tracks. See
//! `docs/observability.md` for the capture walkthrough.
//!
//! [`Soc::chrome_trace`]: crate::system::Soc::chrome_trace

use crate::axi::{MasterId, Request, Response};
use crate::gate::{GateDecision, PortGate};
use crate::json::Value;
use crate::time::{Cycle, Freq};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Default event capacity of a [`Trace`] (2^20 events ≈ 24 MiB).
///
/// Long diagnostic runs used to grow the log without bound; the log now
/// stops recording at its cap and counts further events in
/// [`Trace::dropped`] instead, so a forgotten trace handle can no longer
/// exhaust memory.
pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A gate admitted a request.
    Accepted {
        /// Port whose gate decided.
        master: MasterId,
        /// Per-master request serial number.
        serial: u64,
    },
    /// A gate denied a request (regulation stall).
    Denied {
        /// Port whose gate decided.
        master: MasterId,
        /// Per-master request serial number.
        serial: u64,
    },
    /// A transaction completed.
    Completed {
        /// Port that issued the transaction.
        master: MasterId,
        /// Per-master request serial number.
        serial: u64,
    },
}

#[derive(Debug)]
struct TraceLog {
    events: Vec<(Cycle, TraceEvent)>,
    max_events: usize,
    dropped: u64,
}

/// Shared, bounded, append-only event log.
///
/// Cloning a `Trace` clones the handle, not the log. The log holds at
/// most [`Trace::max_events`] events ([`DEFAULT_MAX_EVENTS`] unless set
/// via [`Trace::with_max_events`]); once full, new events are counted in
/// [`Trace::dropped`] and discarded.
#[derive(Debug, Clone)]
pub struct Trace {
    log: Rc<RefCell<TraceLog>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// Creates an empty trace with the [`DEFAULT_MAX_EVENTS`] cap.
    pub fn new() -> Self {
        Trace::with_max_events(DEFAULT_MAX_EVENTS)
    }

    /// Creates an empty trace that keeps at most `max_events` events.
    ///
    /// # Panics
    ///
    /// Panics if `max_events` is zero.
    pub fn with_max_events(max_events: usize) -> Self {
        assert!(max_events > 0, "trace capacity must be non-zero");
        Trace {
            log: Rc::new(RefCell::new(TraceLog {
                events: Vec::new(),
                max_events,
                dropped: 0,
            })),
        }
    }

    /// The configured event capacity.
    pub fn max_events(&self) -> usize {
        self.log.borrow().max_events
    }

    /// Number of events discarded because the log was full.
    pub fn dropped(&self) -> u64 {
        self.log.borrow().dropped
    }

    /// Appends an event, or counts it as dropped once the log is full.
    pub fn push(&self, now: Cycle, event: TraceEvent) {
        let mut log = self.log.borrow_mut();
        if log.events.len() < log.max_events {
            log.events.push((now, event));
        } else {
            log.dropped += 1;
        }
    }

    /// Snapshot of all recorded events in order.
    pub fn events(&self) -> Vec<(Cycle, TraceEvent)> {
        self.log.borrow().events.clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.log.borrow().events.len()
    }

    /// `true` when no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of events matching `predicate`.
    pub fn count_matching(&self, predicate: impl Fn(&TraceEvent) -> bool) -> usize {
        self.log
            .borrow()
            .events
            .iter()
            .filter(|(_, e)| predicate(e))
            .count()
    }
}

/// A [`PortGate`] decorator that records accept/deny decisions into a
/// [`Trace`] while delegating to an inner gate.
///
/// Clones share one trace log, so a traced Soc cannot be snapshotted or
/// forked: its state walk refuses with
/// [`unsupported`](fgqos_snap::StateWalker::unsupported).
#[derive(Debug, Clone)]
pub struct TracingGate<G> {
    inner: G,
    trace: Trace,
}

impl<G: PortGate> TracingGate<G> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: G, trace: Trace) -> Self {
        TracingGate { inner, trace }
    }

    /// Returns the inner gate.
    pub fn into_inner(self) -> G {
        self.inner
    }
}

impl<G: PortGate + Clone + 'static> PortGate for TracingGate<G> {
    fn on_cycle(&mut self, now: Cycle) {
        self.inner.on_cycle(now);
    }

    fn try_accept(&mut self, request: &Request, now: Cycle) -> GateDecision {
        let d = self.inner.try_accept(request, now);
        let ev = match d {
            GateDecision::Accept => TraceEvent::Accepted {
                master: request.master,
                serial: request.serial,
            },
            GateDecision::Deny => TraceEvent::Denied {
                master: request.master,
                serial: request.serial,
            },
        };
        self.trace.push(now, ev);
        d
    }

    fn on_complete(&mut self, response: &Response, now: Cycle) {
        self.trace.push(
            now,
            TraceEvent::Completed {
                master: response.request.master,
                serial: response.request.serial,
            },
        );
        self.inner.on_complete(response, now);
    }

    // `next_activity` deliberately keeps the conservative `Some(now)`
    // default rather than forwarding to the inner gate: the trace records
    // one `Denied` event per retry cycle, so a traced port must execute
    // every cycle to keep its event stream identical to naive stepping.

    fn on_denied_skip(&mut self, cycles: u64) {
        self.inner.on_denied_skip(cycles);
    }

    fn completion_can_admit(&self) -> bool {
        self.inner.completion_can_admit()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn collect_metrics(&self, prefix: &str, registry: &mut crate::metrics::MetricsRegistry) {
        self.inner.collect_metrics(prefix, registry);
    }

    fn visit_state(&mut self, w: &mut fgqos_snap::StateWalker<'_>) {
        w.section(self.label());
        w.unsupported("tracing-gate");
    }
}

/// Schema identifier embedded in every exported Chrome trace.
pub const CHROME_TRACE_SCHEMA: &str = "fgqos.chrome-trace";
/// Schema version embedded in every exported Chrome trace.
pub const CHROME_TRACE_VERSION: u64 = 1;

/// Assembles a Chrome trace-event JSON document from simulator events.
///
/// Timestamps are cycles converted to microseconds at the SoC clock.
/// The output loads in [Perfetto](https://ui.perfetto.dev) or
/// `chrome://tracing`:
///
/// * each master is a named thread (`tid` = master index, `pid` 0),
/// * completed transactions are `"ph": "X"` duration slices from gate
///   acceptance to completion,
/// * gate decisions are `"ph": "i"` instant events (`accept`/`deny`),
/// * per-window byte series are `"ph": "C"` counter tracks.
///
/// ```
/// use fgqos_sim::time::{Cycle, Freq};
/// use fgqos_sim::trace::{ChromeTraceBuilder, Trace, TraceEvent};
/// use fgqos_sim::axi::MasterId;
///
/// let trace = Trace::new();
/// let m = MasterId::new(0);
/// trace.push(Cycle::new(0), TraceEvent::Accepted { master: m, serial: 1 });
/// trace.push(Cycle::new(40), TraceEvent::Completed { master: m, serial: 1 });
///
/// let mut b = ChromeTraceBuilder::new(Freq::ghz(1));
/// b.thread_name(0, "dma0");
/// b.add_trace(&trace);
/// let doc = b.finish();
/// assert!(doc.get("traceEvents").is_some());
/// ```
#[derive(Debug)]
pub struct ChromeTraceBuilder {
    freq: Freq,
    events: Vec<Value>,
}

impl ChromeTraceBuilder {
    /// Starts a builder converting cycles at clock `freq`.
    pub fn new(freq: Freq) -> Self {
        ChromeTraceBuilder {
            freq,
            events: Vec::new(),
        }
    }

    fn ts(&self, cycle: Cycle) -> Value {
        Value::from(self.freq.cycles_to_us(cycle.get()))
    }

    /// Names the Perfetto thread for master index `tid` (metadata event).
    pub fn thread_name(&mut self, tid: usize, name: &str) {
        let mut args = Value::obj();
        args.set("name", Value::str(name));
        let mut ev = Value::obj();
        ev.set("name", Value::str("thread_name"));
        ev.set("ph", Value::str("M"));
        ev.set("pid", Value::from(0u64));
        ev.set("tid", Value::from(tid));
        ev.set("args", args);
        self.events.push(ev);
    }

    /// Converts a [`Trace`] into slices and instant events.
    ///
    /// `Accepted`/`Denied` become instant events on the master's thread;
    /// each `Accepted`→`Completed` pair additionally becomes one duration
    /// slice spanning the transaction's time in flight.
    pub fn add_trace(&mut self, trace: &Trace) {
        let mut accepted_at: HashMap<(usize, u64), Cycle> = HashMap::new();
        for (cycle, event) in trace.events() {
            match event {
                TraceEvent::Accepted { master, serial } => {
                    accepted_at.insert((master.index(), serial), cycle);
                    self.instant("accept", "gate", master.index(), cycle, serial);
                }
                TraceEvent::Denied { master, serial } => {
                    self.instant("deny", "gate", master.index(), cycle, serial);
                }
                TraceEvent::Completed { master, serial } => {
                    match accepted_at.remove(&(master.index(), serial)) {
                        Some(start) => self.slice(master.index(), start, cycle, serial),
                        // Completion without a traced acceptance (e.g. the
                        // trace was attached mid-flight): keep it visible.
                        None => self.instant("complete", "txn", master.index(), cycle, serial),
                    }
                }
            }
        }
    }

    fn instant(&mut self, name: &str, cat: &str, tid: usize, cycle: Cycle, serial: u64) {
        let mut args = Value::obj();
        args.set("serial", Value::from(serial));
        args.set("cycle", Value::from(cycle.get()));
        let mut ev = Value::obj();
        ev.set("name", Value::str(name));
        ev.set("cat", Value::str(cat));
        ev.set("ph", Value::str("i"));
        ev.set("s", Value::str("t"));
        ev.set("ts", self.ts(cycle));
        ev.set("pid", Value::from(0u64));
        ev.set("tid", Value::from(tid));
        ev.set("args", args);
        self.events.push(ev);
    }

    fn slice(&mut self, tid: usize, start: Cycle, end: Cycle, serial: u64) {
        let mut args = Value::obj();
        args.set("serial", Value::from(serial));
        args.set("cycles", Value::from(end.get() - start.get()));
        let mut ev = Value::obj();
        ev.set("name", Value::str("txn"));
        ev.set("cat", Value::str("txn"));
        ev.set("ph", Value::str("X"));
        ev.set("ts", self.ts(start));
        ev.set(
            "dur",
            Value::from(self.freq.cycles_to_us(end.get() - start.get())),
        );
        ev.set("pid", Value::from(0u64));
        ev.set("tid", Value::from(tid));
        ev.set("args", args);
        self.events.push(ev);
    }

    /// Emits a `"ph": "C"` counter track named `track`, one sample per
    /// closed window of `window_cycles` cycles.
    pub fn add_counter_track(&mut self, track: &str, window_cycles: u64, windows: &[u64]) {
        for (i, &v) in windows.iter().enumerate() {
            let cycle = Cycle::new(i as u64 * window_cycles);
            let mut args = Value::obj();
            args.set("bytes", Value::from(v));
            let mut ev = Value::obj();
            ev.set("name", Value::str(track));
            ev.set("ph", Value::str("C"));
            ev.set("ts", self.ts(cycle));
            ev.set("pid", Value::from(0u64));
            ev.set("args", args);
            self.events.push(ev);
        }
    }

    /// Finalizes the document (`displayTimeUnit`, schema metadata and the
    /// `traceEvents` array).
    pub fn finish(self) -> Value {
        let mut other = Value::obj();
        other.set("schema", Value::str(CHROME_TRACE_SCHEMA));
        other.set("version", Value::from(CHROME_TRACE_VERSION));
        let mut doc = Value::obj();
        doc.set("displayTimeUnit", Value::str("ns"));
        doc.set("otherData", other);
        doc.set("traceEvents", Value::Arr(self.events));
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axi::Dir;
    use crate::gate::OpenGate;

    #[test]
    fn tracing_gate_records_decisions() {
        let trace = Trace::new();
        let mut g = TracingGate::new(OpenGate, trace.clone());
        let r = Request::new(MasterId::new(0), 7, 0, 1, Dir::Read, Cycle::ZERO);
        assert!(g.try_accept(&r, Cycle::new(3)).is_accept());
        let resp = Response {
            request: r,
            completed_at: Cycle::new(50),
        };
        g.on_complete(&resp, Cycle::new(50));
        let events = trace.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            (
                Cycle::new(3),
                TraceEvent::Accepted {
                    master: MasterId::new(0),
                    serial: 7
                }
            )
        );
        assert_eq!(
            events[1],
            (
                Cycle::new(50),
                TraceEvent::Completed {
                    master: MasterId::new(0),
                    serial: 7
                }
            )
        );
        assert_eq!(
            trace.count_matching(|e| matches!(e, TraceEvent::Denied { .. })),
            0
        );
        assert!(!trace.is_empty());
    }

    #[test]
    fn trace_caps_and_counts_dropped() {
        let trace = Trace::with_max_events(3);
        for i in 0..10u64 {
            trace.push(
                Cycle::new(i),
                TraceEvent::Accepted {
                    master: MasterId::new(0),
                    serial: i,
                },
            );
        }
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.dropped(), 7);
        assert_eq!(trace.max_events(), 3);
        // The first three events were kept, not the last three.
        assert_eq!(trace.events()[2].0, Cycle::new(2));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn trace_rejects_zero_capacity() {
        let _ = Trace::with_max_events(0);
    }

    #[test]
    fn chrome_export_pairs_slices() {
        let trace = Trace::new();
        let m = MasterId::new(1);
        trace.push(
            Cycle::new(10),
            TraceEvent::Accepted {
                master: m,
                serial: 5,
            },
        );
        trace.push(
            Cycle::new(12),
            TraceEvent::Denied {
                master: m,
                serial: 6,
            },
        );
        trace.push(
            Cycle::new(70),
            TraceEvent::Completed {
                master: m,
                serial: 5,
            },
        );
        trace.push(
            Cycle::new(80),
            TraceEvent::Completed {
                master: m,
                serial: 99,
            },
        );

        let mut b = ChromeTraceBuilder::new(Freq::ghz(1));
        b.thread_name(1, "dma1");
        b.add_trace(&trace);
        b.add_counter_track("window_bytes/dma1", 100, &[256, 0, 512]);
        let doc = b.finish();

        let other = doc.get("otherData").unwrap();
        assert_eq!(
            other.get("schema").unwrap().as_str(),
            Some(CHROME_TRACE_SCHEMA)
        );
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        // metadata, accept, deny, slice, orphan complete, 3 counters.
        assert_eq!(phases, ["M", "i", "i", "X", "i", "C", "C", "C"]);
        let slice = &events[3];
        assert_eq!(slice.get("ts").unwrap().as_f64(), Some(0.01));
        assert_eq!(slice.get("dur").unwrap().as_f64(), Some(0.06));
        assert_eq!(
            slice.get("args").unwrap().get("cycles").unwrap().as_u64(),
            Some(60)
        );
        // Round-trips through the parser.
        let text = doc.to_pretty();
        assert_eq!(Value::parse(&text).unwrap(), doc);
    }
}
