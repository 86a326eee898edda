//! Master models: traffic sources, per-master state machine and statistics.
//!
//! A [`Master`] owns a [`TrafficSource`] (what to access), a
//! [`PortGate`] (QoS regulation seam) and an
//! outstanding-transaction limit (how aggressively it can pipeline).
//! CPU-like latency-sensitive actors and DMA-like accelerators differ only
//! in their source pattern and outstanding limit.

use crate::arena::TxnArena;
use crate::axi::{Dir, MasterId, Request, Response, BEAT_BYTES, MAX_BURST_BEATS};
use crate::gate::{GateDecision, PortGate};
use crate::interconnect::Crossbar;
use crate::stats::{BandwidthMeter, LatencyStats, WindowRecorder};
use crate::time::Cycle;
use fgqos_snap::StateWalker;
use std::fmt;

/// Broad class of a master, fixing sensible defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterKind {
    /// Latency-sensitive processor-like actor: low memory-level
    /// parallelism (2 outstanding transactions).
    Cpu,
    /// Bandwidth-hungry DMA/accelerator port: deep pipelining
    /// (8 outstanding transactions).
    Accelerator,
}

impl MasterKind {
    /// Default outstanding-transaction limit for this kind.
    pub fn default_outstanding(self) -> usize {
        match self {
            MasterKind::Cpu => 2,
            MasterKind::Accelerator => 8,
        }
    }
}

/// A request produced by a [`TrafficSource`], not yet presented to the
/// interconnect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PendingRequest {
    /// Byte address of the first beat.
    pub addr: u64,
    /// Burst length in beats.
    pub beats: u16,
    /// Transfer direction.
    pub dir: Dir,
    /// Earliest cycle at which the master may present this request
    /// (models compute gaps / arrival processes).
    pub not_before: Cycle,
}

boxed_clone!(CloneSource, TrafficSource);

/// Generates the memory-access stream of one master.
///
/// The owning [`Master`] pulls the next request only when it has issue
/// capacity (staged slot free and outstanding credit available), so
/// closed-loop sources see completions before the next pull.
pub trait TrafficSource: CloneSource {
    /// Produces the next request, or `None` if the source has nothing to
    /// issue right now (the master retries every cycle).
    fn next_request(&mut self, now: Cycle) -> Option<PendingRequest>;

    /// Observes a completion of a request this source generated.
    fn on_complete(&mut self, _response: &Response, _now: Cycle) {}

    /// `true` once the source will never produce another request.
    fn is_done(&self) -> bool {
        false
    }

    /// Earliest cycle `>= now` at which pulling from this source could
    /// yield a request whose `not_before` has arrived, assuming no
    /// completion is delivered in between (completions execute a cycle
    /// and re-ask). `None` means the source is exhausted. The default
    /// `Some(now)` declares "poll me every cycle" and merely disables
    /// fast-forwarding for the owning master — always safe.
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }

    /// Walks this source's architectural state — every field that
    /// influences the remaining request stream — in one list that
    /// hashes, records, loads and forks (see [`StateWalker`] for the
    /// field kinds). A forkable source is `Clone` plus this walk: a fork
    /// clones the machine and walks it once, rebinding every `Arc`
    /// handle declared with [`shared`](StateWalker::shared).
    ///
    /// The list is complete about absolute time too: a finite stream's
    /// issue count is [`counter_capped`](StateWalker::counter_capped),
    /// burst shaping declares a [`modulus`](StateWalker::modulus), a
    /// segment switch a [`horizon`](StateWalker::horizon), and anything
    /// else time-dependent [`no_leap`](StateWalker::no_leap).
    ///
    /// The default opens a `source` section and calls
    /// [`unsupported`](StateWalker::unsupported), which refuses both a
    /// load ([`SnapDecodeError::Unsupported`](fgqos_snap::SnapDecodeError::Unsupported))
    /// and a fork ([`SnapshotError::Unforkable`](fgqos_snap::SnapshotError::Unforkable)).
    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("source");
        w.unsupported("traffic source");
    }
}

impl TrafficSource for Box<dyn TrafficSource> {
    fn next_request(&mut self, now: Cycle) -> Option<PendingRequest> {
        self.as_mut().next_request(now)
    }

    fn on_complete(&mut self, response: &Response, now: Cycle) {
        self.as_mut().on_complete(response, now);
    }

    fn is_done(&self) -> bool {
        self.as_ref().is_done()
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        self.as_ref().next_activity(now)
    }

    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        self.as_mut().visit_state(w);
    }
}

/// Sequential (streaming) traffic source.
///
/// Covers the paper's synthetic generators: sequential reads or writes of
/// a fixed burst size, optionally rate-limited by an issue gap, made
/// closed-loop by a think time, and confined to a footprint so the row
/// locality is controllable.
///
/// ```
/// use fgqos_sim::master::{SequentialSource, TrafficSource};
/// use fgqos_sim::time::Cycle;
///
/// let mut src = SequentialSource::reads(0x1000, 256, 2);
/// let a = src.next_request(Cycle::ZERO).unwrap();
/// let b = src.next_request(Cycle::ZERO).unwrap();
/// assert_eq!(b.addr, a.addr + 256);
/// assert!(src.next_request(Cycle::ZERO).is_none());
/// assert!(src.is_done());
/// ```
#[derive(Debug, Clone)]
pub struct SequentialSource {
    base: u64,
    next_addr: u64,
    beats: u16,
    dir: Dir,
    total_txns: u64,
    issued: u64,
    gap: u64,
    think_time: u64,
    footprint: u64,
    next_ready: Cycle,
}

impl SequentialSource {
    /// Creates a source issuing `total_txns` transactions of
    /// `bytes_per_txn` bytes starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_txn` is not a positive multiple of
    /// [`BEAT_BYTES`] not exceeding one maximum burst.
    pub fn new(base: u64, bytes_per_txn: u64, total_txns: u64, dir: Dir) -> Self {
        assert!(
            bytes_per_txn > 0 && bytes_per_txn.is_multiple_of(BEAT_BYTES),
            "bytes_per_txn must be a positive multiple of {BEAT_BYTES}"
        );
        let beats = bytes_per_txn / BEAT_BYTES;
        assert!(
            beats <= MAX_BURST_BEATS as u64,
            "bytes_per_txn exceeds the maximum burst ({} bytes)",
            MAX_BURST_BEATS as u64 * BEAT_BYTES
        );
        SequentialSource {
            base,
            next_addr: base,
            beats: beats as u16,
            dir,
            total_txns,
            issued: 0,
            gap: 0,
            think_time: 0,
            footprint: 0,
            next_ready: Cycle::ZERO,
        }
    }

    /// Sequential read stream (see [`SequentialSource::new`]).
    pub fn reads(base: u64, bytes_per_txn: u64, total_txns: u64) -> Self {
        SequentialSource::new(base, bytes_per_txn, total_txns, Dir::Read)
    }

    /// Sequential write stream (see [`SequentialSource::new`]).
    pub fn writes(base: u64, bytes_per_txn: u64, total_txns: u64) -> Self {
        SequentialSource::new(base, bytes_per_txn, total_txns, Dir::Write)
    }

    /// Minimum issue-to-issue spacing in cycles (arrival-rate limit).
    pub fn with_gap(mut self, cycles: u64) -> Self {
        self.gap = cycles;
        self
    }

    /// Closed-loop think time: the next request is generated no earlier
    /// than `cycles` after the previous completion. Combine with an
    /// outstanding limit of 1–2 for a CPU-like latency-sensitive actor.
    pub fn with_think_time(mut self, cycles: u64) -> Self {
        self.think_time = cycles;
        self
    }

    /// Confines addresses to `[base, base + bytes)`, wrapping around.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is smaller than one transaction.
    pub fn with_footprint(mut self, bytes: u64) -> Self {
        assert!(
            bytes >= self.beats as u64 * BEAT_BYTES,
            "footprint must hold at least one transaction"
        );
        self.footprint = bytes;
        self
    }

    /// Delays the first request until `cycle`: the source sleeps (its
    /// `next_activity` reports `cycle` while idle) and the first
    /// request's `not_before` is at least `cycle`.
    ///
    /// Warm-start sweeps use this to keep a measured master idle through
    /// the shared warm-up phase, so the quiesce point can be taken
    /// before it issues its first transaction.
    pub fn with_start(mut self, cycle: u64) -> Self {
        self.next_ready = Cycle::new(cycle);
        self
    }

    /// Transactions generated so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

impl TrafficSource for SequentialSource {
    fn next_request(&mut self, now: Cycle) -> Option<PendingRequest> {
        if self.issued >= self.total_txns {
            return None;
        }
        let not_before = self.next_ready.max(now);
        self.next_ready = not_before + self.gap;
        let addr = self.next_addr;
        self.next_addr += self.beats as u64 * BEAT_BYTES;
        if self.footprint > 0 && self.next_addr >= self.base + self.footprint {
            self.next_addr = self.base;
        }
        self.issued += 1;
        Some(PendingRequest {
            addr,
            beats: self.beats,
            dir: self.dir,
            not_before,
        })
    }

    fn on_complete(&mut self, response: &Response, _now: Cycle) {
        if self.think_time > 0 {
            self.next_ready = self.next_ready.max(response.completed_at + self.think_time);
        }
    }

    fn is_done(&self) -> bool {
        self.issued >= self.total_txns
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.issued >= self.total_txns {
            None
        } else {
            // Pulling at `next_ready.max(now)` yields the same
            // `not_before` and the same updated schedule as pulling on
            // any earlier cycle would have.
            Some(self.next_ready.max(now))
        }
    }

    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("seq-source");
        w.plain(&mut self.base);
        w.plain(&mut self.next_addr);
        w.plain(&mut self.beats);
        w.flag(&mut self.dir, Dir::Write, Dir::Read);
        w.plain(&mut self.total_txns);
        // A bounded stream caps the leap so exhaustion lands on a
        // simulated cycle. Without a footprint `next_addr` grows
        // monotonically — a plain field that never recurs, so the
        // recurrence check itself keeps such runs conservative.
        w.counter_capped(&mut self.issued, self.total_txns);
        w.plain(&mut self.gap);
        w.plain(&mut self.think_time);
        w.plain(&mut self.footprint);
        w.cycle(&mut self.next_ready);
    }
}

/// Per-master measurement record.
#[derive(Debug, Default, Clone)]
pub struct MasterStats {
    /// Requests accepted into the interconnect.
    pub issued_txns: u64,
    /// Requests completed by the memory system.
    pub completed_txns: u64,
    /// Bytes of completed requests.
    pub bytes_completed: u64,
    /// End-to-end latency distribution (includes regulation stalls).
    pub latency: LatencyStats,
    /// Memory-system latency distribution (acceptance to completion).
    pub service_latency: LatencyStats,
    /// Cycles a staged request was denied by the port gate.
    pub gate_stall_cycles: u64,
    /// Cycles a staged request waited for interconnect FIFO space.
    pub fifo_stall_cycles: u64,
    /// Throughput meter over the whole run.
    pub meter: BandwidthMeter,
    /// Optional per-window byte series for timeline figures.
    pub window: Option<WindowRecorder>,
}

impl MasterStats {
    /// Walks the record (see [`StateWalker`]).
    pub fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("stats");
        w.counter(&mut self.issued_txns);
        w.counter(&mut self.completed_txns);
        w.counter(&mut self.bytes_completed);
        self.latency.visit_state(w);
        self.service_latency.visit_state(w);
        w.counter(&mut self.gate_stall_cycles);
        w.counter(&mut self.fifo_stall_cycles);
        self.meter.visit_state(w);
        if let Some(rec) = w.option_with(&mut self.window, || WindowRecorder::new(1)) {
            rec.visit_state(w);
        }
    }
}

/// One master port: source + gate + issue state machine.
#[derive(Clone)]
pub struct Master {
    id: MasterId,
    name: String,
    kind: MasterKind,
    source: Box<dyn TrafficSource>,
    gate: Box<dyn PortGate>,
    max_outstanding: usize,
    staged: Option<(PendingRequest, Option<Cycle>)>,
    in_flight: usize,
    serial: u64,
    // Fast-forward bookkeeping: whether the most recent gate attempt for
    // the currently staged request was a denial, and whether a completion
    // has touched the gate/source since that attempt (which may flip a
    // capacity-based denial without any gate-internal schedule, if the
    // gate declares `completion_can_admit`).
    last_denied: bool,
    gate_dirty: bool,
    // The gate's flip cycle, latched *at the denied cycle*. A time-pure
    // gate (e.g. TDMA) queried after its accept window has already
    // opened reports the window's *end*, not its start — so the wake for
    // a denied retry must be captured while the denial is in force.
    retry_at: Option<Cycle>,
    // Whether the most recent tick ended stalled on interconnect FIFO
    // space. While true, every naive cycle would burn one fifo-stall
    // cycle without consulting the gate; the event loop replicates that
    // over skipped spans in `catch_up` and wakes the master when the
    // crossbar pops from its port.
    fifo_blocked: bool,
    // A naive master pulls from its source on the first cycle its staged
    // slot is free — *before* any completion delivered later that same
    // span can shift the source's arrival schedule (`on_complete`). The
    // pull must therefore run at that exact cycle, not be deferred to
    // `source.next_activity`: this flag forces a wake on the cycle after
    // a push (and at reset) so the pull lands where naive's would.
    pull_pending: bool,
    // Last cycle `tick` ran (or up to which a delivery flushed the
    // skipped cycles); `catch_up` replicates the per-cycle stall
    // accounting and flag effects of the cycles skipped since.
    last_tick: Cycle,
    stats: MasterStats,
}

impl fmt::Debug for Master {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Master")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("max_outstanding", &self.max_outstanding)
            .field("in_flight", &self.in_flight)
            .field("serial", &self.serial)
            .finish_non_exhaustive()
    }
}

impl Master {
    /// Creates a master. Most users go through
    /// [`SocBuilder`](crate::system::SocBuilder) instead.
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding` is zero.
    pub fn new(
        id: MasterId,
        name: impl Into<String>,
        kind: MasterKind,
        source: Box<dyn TrafficSource>,
        gate: Box<dyn PortGate>,
        max_outstanding: usize,
    ) -> Self {
        assert!(max_outstanding > 0, "max_outstanding must be non-zero");
        Master {
            id,
            name: name.into(),
            kind,
            source,
            gate,
            max_outstanding,
            staged: None,
            in_flight: 0,
            serial: 0,
            last_denied: false,
            gate_dirty: false,
            retry_at: None,
            fifo_blocked: false,
            pull_pending: true,
            last_tick: Cycle::ZERO,
            stats: MasterStats::default(),
        }
    }

    /// This master's port id.
    pub fn id(&self) -> MasterId {
        self.id
    }

    /// Human-readable name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The master's kind.
    pub fn kind(&self) -> MasterKind {
        self.kind
    }

    /// Measurement record.
    pub fn stats(&self) -> &MasterStats {
        &self.stats
    }

    /// Currently outstanding transactions.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Enables per-window byte recording with the given window length.
    pub fn record_windows(&mut self, window_cycles: u64) {
        self.stats.window = Some(WindowRecorder::new(window_cycles));
    }

    /// Enables per-window byte *and* latency (p50/p99) recording.
    pub fn record_windows_with_latency(&mut self, window_cycles: u64) {
        self.stats.window = Some(WindowRecorder::new(window_cycles).with_latency());
    }

    /// `true` when the source is exhausted and no transaction is staged or
    /// in flight.
    pub fn is_done(&self) -> bool {
        self.source.is_done() && self.staged.is_none() && self.in_flight == 0
    }

    /// Advances this master by one cycle: pulls from the source, applies
    /// the gate, and pushes at most one request into the crossbar.
    /// Accepted requests are parked in `arena` and enter the crossbar as
    /// [`crate::arena::TxnId`] handles.
    pub fn tick(&mut self, now: Cycle, xbar: &mut Crossbar, arena: &mut TxnArena) {
        self.last_tick = now;
        self.gate.on_cycle(now);

        if self.staged.is_none() {
            self.pull_pending = false;
            if self.in_flight < self.max_outstanding && !self.source.is_done() {
                if let Some(p) = self.source.next_request(now) {
                    self.staged = Some((p, None));
                }
            }
        }

        let Some((pending, first_attempt)) = self.staged.as_mut() else {
            self.fifo_blocked = false;
            return;
        };
        if now < pending.not_before || self.in_flight >= self.max_outstanding {
            self.fifo_blocked = false;
            return;
        }
        let first = *first_attempt.get_or_insert(now);
        if !xbar.has_space(self.id) {
            self.stats.fifo_stall_cycles += 1;
            self.fifo_blocked = true;
            return;
        }
        self.fifo_blocked = false;
        let mut request = Request::new(
            self.id,
            self.serial,
            pending.addr,
            pending.beats,
            pending.dir,
            first,
        );
        request.accepted_at = now;
        self.gate_dirty = false;
        match self.gate.try_accept(&request, now) {
            GateDecision::Accept => {
                xbar.push(arena.alloc(&request), self.id);
                self.serial += 1;
                self.in_flight += 1;
                self.stats.issued_txns += 1;
                self.staged = None;
                self.last_denied = false;
                // Naive pulls the next request on the very next cycle;
                // wake then so the pull precedes any later completion.
                self.pull_pending = true;
            }
            GateDecision::Deny => {
                self.stats.gate_stall_cycles += 1;
                self.last_denied = true;
                // Latch the flip cycle now, while the gate still reports
                // the denied state's edge (see `retry_at`).
                self.retry_at = self.gate.next_activity(now);
            }
        }
    }

    /// Earliest cycle `>= now` at which ticking this master could change
    /// any state other than the flags the event loop replays over
    /// skipped cycles (`gate_dirty`, `pull_pending`), assuming no response is delivered and no crossbar pop
    /// frees its ingress FIFO in between.
    ///
    /// The event loop wakes a FIFO-blocked master on the cycle after a
    /// crossbar pop from its port; any other master ignores pops. A
    /// completion re-queries this method: with nothing staged the master
    /// executes the next cycle regardless (its pull must land on the
    /// naive cycle), a denied master retries early only if its gate
    /// declares [`completion_can_admit`](PortGate::completion_can_admit),
    /// and a master at its outstanding cap becomes ready to attempt.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        // Gate-internal schedules (window rolls, telemetry registers)
        // must run at their naive cycles even when the master itself has
        // nothing to present, so the gate is consulted unconditionally.
        let gate = self.gate.next_activity(now);
        let own = if let Some((pending, _)) = &self.staged {
            if now < pending.not_before {
                Some(pending.not_before)
            } else if self.in_flight >= self.max_outstanding || self.fifo_blocked {
                // Unblocked only by a completion (outstanding cap) or a
                // crossbar pop from this port (FIFO space) — both are
                // executed cycles that explicitly wake this master.
                None
            } else if self.last_denied && !(self.gate_dirty && self.gate.completion_can_admit()) {
                // The denial can only flip at the gate's latched edge.
                self.retry_at.map(|c| c.max(now))
            } else {
                Some(now) // ready to attempt, or a denial a completion may have flipped
            }
        } else if self.in_flight >= self.max_outstanding || self.source.is_done() {
            None // draining: unblocked only by completions
        } else if self.pull_pending {
            // The post-push pull must run at its naive cycle (see the
            // field comment): deferring it past a completion would let
            // `on_complete` shift the source schedule under it.
            Some(now)
        } else {
            self.source.next_activity(now)
        };
        match (gate, own) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Replicates the per-cycle effects of every naive cycle in
    /// `(last_tick, now)` — the cycles the event loop skipped for this
    /// master. Called immediately before a wake tick at `now`, before a
    /// completion is delivered to a master that did not tick that cycle,
    /// and once more at run end (with `now` = final cycle) to flush the
    /// tail.
    ///
    /// A skipped cycle has exactly one of four effects in naive
    /// stepping:
    ///
    /// * a FIFO-blocked staged request burns a fifo-stall cycle (the gate
    ///   is never consulted behind a full FIFO);
    /// * a gate-denied staged request burns a gate-stall cycle plus the
    ///   gate's own per-denied-cycle accounting, and its retry clears
    ///   `gate_dirty` (the denial a completion could not flip is
    ///   re-established);
    /// * an empty tick (nothing staged, nothing to pull: draining at the
    ///   outstanding cap or exhausted) clears `pull_pending`;
    /// * nothing (a staged request waiting for its issue cycle or for the
    ///   outstanding cap).
    ///
    /// Replaying the flags keeps the walked state equal to naive
    /// stepping's at every flush point, quiesced boundaries included.
    pub(crate) fn catch_up(&mut self, now: Cycle) {
        let span = now.get().saturating_sub(self.last_tick.get() + 1);
        if span == 0 {
            return;
        }
        if self.staged.is_none() {
            self.pull_pending = false;
        } else if self.fifo_blocked {
            self.stats.fifo_stall_cycles += span;
        } else if self.last_denied {
            self.stats.gate_stall_cycles += span;
            self.gate.on_denied_skip(span);
            self.gate_dirty = false;
        }
    }

    /// Flushes skipped-cycle effects for every cycle before `end` and
    /// records them as caught up, so state read at `end` (between runs,
    /// or by a delivery at `end - 1`) matches naive stepping exactly.
    pub(crate) fn flush_until(&mut self, end: Cycle) {
        self.catch_up(end);
        self.last_tick = Cycle::new(end.get().saturating_sub(1)).max(self.last_tick);
    }

    /// Whether the most recent tick ended stalled on interconnect FIFO
    /// space: only then can a crossbar pop from this port change what
    /// the master does next.
    pub(crate) fn fifo_blocked(&self) -> bool {
        self.fifo_blocked
    }

    /// Event-calendar delivery of a completion at `now`, returning the
    /// earliest cycle after `now` this master must execute.
    ///
    /// Naive stepping ticks the master at `now` before the DRAM phase,
    /// so the cycles it skipped are flushed through `now` first. A
    /// master with nothing staged executes `now + 1`, where naive pulls
    /// from its source; any other master re-queries
    /// [`next_activity`](Self::next_activity).
    pub(crate) fn deliver(&mut self, response: &Response, now: Cycle) -> Option<Cycle> {
        let next = now + 1;
        self.flush_until(next);
        self.on_response(response, now);
        if self.staged.is_none() {
            Some(next)
        } else {
            self.next_activity(next)
        }
    }

    /// Delivers a completion belonging to this master.
    ///
    /// # Panics
    ///
    /// Panics if the response does not belong to this master or no
    /// transaction is in flight.
    pub fn on_response(&mut self, response: &Response, now: Cycle) {
        assert_eq!(
            response.request.master, self.id,
            "response routed to wrong master"
        );
        assert!(
            self.in_flight > 0,
            "completion without in-flight transaction"
        );
        self.in_flight -= 1;
        let bytes = response.request.bytes();
        self.stats.completed_txns += 1;
        self.stats.bytes_completed += bytes;
        self.stats.latency.record(response.latency());
        self.stats
            .service_latency
            .record(response.service_latency());
        self.stats.meter.record(bytes);
        if let Some(w) = self.stats.window.as_mut() {
            w.add_with_latency(response.completed_at, bytes, response.latency());
        }
        self.source.on_complete(response, now);
        self.gate.on_complete(response, now);
        // A completion may flip a capacity-based gate denial (e.g. an
        // in-flight cap): force one live retry before sleeping again.
        self.gate_dirty = true;
    }

    /// Walks the master's full state — issue state machine, fast-forward
    /// bookkeeping, source, gate and statistics (see [`StateWalker`]).
    /// Identity fields — id, name, kind, outstanding limit — are fixed,
    /// so a stream loaded into the wrong scenario fails loudly at the
    /// first divergent master.
    pub(crate) fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("master");
        w.fixed(self.id.index(), "master id");
        w.fixed_str(&self.name, "master name");
        w.fixed(self.kind as u8, "master kind");
        w.fixed(self.max_outstanding, "master max_outstanding");
        if let Some((p, first)) = w.option(&mut self.staged) {
            w.plain(&mut p.addr);
            w.plain(&mut p.beats);
            w.flag(&mut p.dir, Dir::Write, Dir::Read);
            w.cycle(&mut p.not_before);
            if let Some(c) = w.option(first) {
                w.cycle(c);
            }
        }
        w.plain(&mut self.in_flight);
        w.counter(&mut self.serial);
        w.plain(&mut self.last_denied);
        w.plain(&mut self.gate_dirty);
        if let Some(c) = w.option(&mut self.retry_at) {
            w.cycle(c);
        }
        w.plain(&mut self.fifo_blocked);
        w.plain(&mut self.pull_pending);
        w.cycle(&mut self.last_tick);
        self.source.visit_state(w);
        self.gate.visit_state(w);
        self.stats.visit_state(w);
    }

    /// Shared access to the port gate (metrics snapshots).
    pub fn gate(&self) -> &dyn PortGate {
        self.gate.as_ref()
    }

    /// Mutable access to the port gate (used by tests and ablations).
    pub fn gate_mut(&mut self) -> &mut dyn PortGate {
        self.gate.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{DramConfig, DramController};
    use crate::gate::OpenGate;
    use crate::interconnect::{Crossbar, XbarConfig};

    fn harness() -> (Crossbar, DramController) {
        (
            Crossbar::new(XbarConfig::default(), 1),
            DramController::new(DramConfig {
                t_refi: 0,
                ..DramConfig::default()
            }),
        )
    }

    fn run(master: &mut Master, xbar: &mut Crossbar, dram: &mut DramController, cycles: u64) {
        let mut arena = TxnArena::new();
        for t in 0..cycles {
            let now = Cycle::new(t);
            master.tick(now, xbar, &mut arena);
            xbar.tick(now, dram, &arena);
            for r in dram.tick(now, &mut arena) {
                master.on_response(r, now);
            }
            if master.is_done() && dram.is_idle() {
                break;
            }
        }
    }

    #[test]
    fn sequential_source_advances_and_terminates() {
        let mut s = SequentialSource::reads(0, 64, 3);
        let a = s.next_request(Cycle::ZERO).unwrap();
        let b = s.next_request(Cycle::ZERO).unwrap();
        let c = s.next_request(Cycle::ZERO).unwrap();
        assert_eq!([a.addr, b.addr, c.addr], [0, 64, 128]);
        assert_eq!(a.beats, 4);
        assert!(s.next_request(Cycle::ZERO).is_none());
        assert!(s.is_done());
        assert_eq!(s.issued(), 3);
    }

    #[test]
    fn boxed_source_delegates() {
        let mut s: Box<dyn TrafficSource> = Box::new(SequentialSource::reads(0, 64, 1));
        assert!(s.next_request(Cycle::ZERO).is_some());
        assert!(s.next_request(Cycle::ZERO).is_none());
        assert!(s.is_done());
    }

    #[test]
    fn sequential_source_gap_spaces_issues() {
        let mut s = SequentialSource::reads(0, 64, 10).with_gap(100);
        let a = s.next_request(Cycle::new(5)).unwrap();
        let b = s.next_request(Cycle::new(5)).unwrap();
        assert_eq!(a.not_before.get(), 5);
        assert_eq!(b.not_before.get(), 105);
    }

    #[test]
    fn sequential_source_footprint_wraps() {
        let mut s = SequentialSource::writes(0x1000, 64, 10).with_footprint(128);
        let addrs: Vec<u64> = (0..4)
            .map(|_| s.next_request(Cycle::ZERO).unwrap().addr)
            .collect();
        assert_eq!(addrs, [0x1000, 0x1040, 0x1000, 0x1040]);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn sequential_source_rejects_partial_beats() {
        let _ = SequentialSource::reads(0, 50, 1);
    }

    #[test]
    #[should_panic(expected = "maximum burst")]
    fn sequential_source_rejects_oversized_txn() {
        let _ = SequentialSource::reads(0, 8192, 1);
    }

    #[test]
    fn master_completes_fixed_workload() {
        let (mut xbar, mut dram) = harness();
        let mut m = Master::new(
            MasterId::new(0),
            "m0",
            MasterKind::Cpu,
            Box::new(SequentialSource::reads(0, 256, 20)),
            Box::new(OpenGate),
            2,
        );
        run(&mut m, &mut xbar, &mut dram, 100_000);
        assert!(m.is_done());
        assert_eq!(m.stats().completed_txns, 20);
        assert_eq!(m.stats().bytes_completed, 20 * 256);
        assert_eq!(m.stats().latency.count(), 20);
        assert!(m.stats().latency.min() > 0);
    }

    #[test]
    fn outstanding_limit_respected() {
        let (mut xbar, mut dram) = harness();
        let mut m = Master::new(
            MasterId::new(0),
            "m0",
            MasterKind::Accelerator,
            Box::new(SequentialSource::reads(0, 4096, u64::MAX)),
            Box::new(OpenGate),
            3,
        );
        let mut arena = TxnArena::new();
        for t in 0..5_000u64 {
            let now = Cycle::new(t);
            m.tick(now, &mut xbar, &mut arena);
            assert!(m.in_flight() <= 3);
            xbar.tick(now, &mut dram, &arena);
            for r in dram.tick(now, &mut arena) {
                m.on_response(r, now);
            }
        }
        assert!(m.stats().completed_txns > 0);
    }

    #[test]
    fn think_time_throttles_closed_loop() {
        // With a large think time the master's throughput is bounded by
        // 1 txn per (latency + think) cycles.
        let (mut xbar, mut dram) = harness();
        let mut m = Master::new(
            MasterId::new(0),
            "cpu",
            MasterKind::Cpu,
            Box::new(SequentialSource::reads(0, 64, u64::MAX).with_think_time(1_000)),
            Box::new(OpenGate),
            1,
        );
        let mut arena = TxnArena::new();
        for t in 0..20_000u64 {
            let now = Cycle::new(t);
            m.tick(now, &mut xbar, &mut arena);
            xbar.tick(now, &mut dram, &arena);
            for r in dram.tick(now, &mut arena) {
                m.on_response(r, now);
            }
        }
        let n = m.stats().completed_txns;
        assert!(
            (15..=21).contains(&n),
            "closed-loop rate off: {n} txns in 20k cycles"
        );
    }

    #[test]
    fn gate_denial_counts_stall_cycles() {
        #[derive(Clone)]
        struct DenyAll;
        impl PortGate for DenyAll {
            fn try_accept(&mut self, _r: &Request, _n: Cycle) -> GateDecision {
                GateDecision::Deny
            }
        }
        let (mut xbar, mut dram) = harness();
        let mut m = Master::new(
            MasterId::new(0),
            "m0",
            MasterKind::Cpu,
            Box::new(SequentialSource::reads(0, 64, 1)),
            Box::new(DenyAll),
            1,
        );
        run(&mut m, &mut xbar, &mut dram, 100);
        assert_eq!(m.stats().issued_txns, 0);
        assert!(m.stats().gate_stall_cycles >= 99);
    }

    #[test]
    #[should_panic(expected = "wrong master")]
    fn response_for_wrong_master_panics() {
        let mut m = Master::new(
            MasterId::new(0),
            "m0",
            MasterKind::Cpu,
            Box::new(SequentialSource::reads(0, 64, 1)),
            Box::new(OpenGate),
            1,
        );
        let req = Request::new(MasterId::new(1), 0, 0, 1, Dir::Read, Cycle::ZERO);
        let resp = Response {
            request: req,
            completed_at: Cycle::new(10),
        };
        m.on_response(&resp, Cycle::new(10));
    }
}
