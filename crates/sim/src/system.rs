//! SoC top level: wiring, builder and the cycle loop.
//!
//! Two interchangeable execution cores drive the same component models:
//!
//! * **Naive stepping** ([`Soc::step`] in a loop): every component ticks
//!   every cycle. This is the reference semantics — simple, obviously
//!   correct, O(masters × cycles).
//! * **Event-calendar scheduling** (the default): a flat
//!   [`EventCalendar`] holds one wake cycle per master (folding gate
//!   window edges and source issue points), one for the DRAM controller
//!   (bank timings, completions, refresh), one for crossbar backlog and
//!   one per software controller; a linear scan of those few words finds
//!   the next cycle to execute. Only cycles where some component can
//!   change state are executed, and within an executed cycle only the
//!   due components tick (in the naive phase order). Per-cycle stall
//!   accounting over skipped spans is replicated lazily, so both cores
//!   produce bit-identical statistics. `FGQOS_NAIVE=1` (or
//!   [`Soc::set_naive`]) selects naive stepping for A/B verification.

use crate::arena::TxnArena;
use crate::axi::MasterId;
use crate::calendar::{EventCalendar, NEVER};
use crate::dram::{DramConfig, DramController, DramStats};
use crate::gate::{OpenGate, PortGate};
use crate::interconnect::{Crossbar, XbarConfig};
use crate::leap::{LeapState, LeapTelemetry};
use crate::master::{Master, MasterKind, MasterStats, TrafficSource};
use crate::metrics::MetricsRegistry;
use crate::time::{Bandwidth, Cycle, Freq};
use crate::trace::{ChromeTraceBuilder, Trace};
use fgqos_snap::StateWalker;
use std::any::Any;

/// Top-level SoC parameters.
#[derive(Debug, Clone, Default)]
pub struct SocConfig {
    /// Single clock domain of the model.
    pub freq: Freq,
    /// DRAM controller parameters.
    pub dram: DramConfig,
    /// Crossbar parameters.
    pub xbar: XbarConfig,
}

boxed_clone!(CloneController, Controller);

/// Software-side agent ticked by the simulation loop.
///
/// Controllers model the host-CPU software of the paper's stack (drivers,
/// QoS managers, MemGuard tick handlers). They run "beside" the hardware:
/// the SoC calls [`Controller::on_cycle`] every cycle and the controller
/// decides internally when to act (e.g. every OS tick).
pub trait Controller: Any + CloneController {
    /// Called once per simulated cycle.
    ///
    /// Under fast-forward this is only invoked at *executed* cycles, so
    /// periodic work must catch up over gaps (the stock controllers all
    /// schedule themselves with a `next_at` deadline, which is naturally
    /// gap-safe).
    fn on_cycle(&mut self, now: Cycle);

    /// Earliest cycle `>= now` at which this controller can act, `None`
    /// for never again. The conservative default `Some(now)` declares
    /// "call me every cycle" and disables fast-forwarding for the whole
    /// SoC — always safe, never wrong, just slow.
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }

    /// Short label for reports.
    fn label(&self) -> &'static str {
        "controller"
    }

    /// Walks this controller's architectural state in one list that
    /// hashes, records, loads and forks (see [`StateWalker`] for the
    /// field kinds). A forkable controller is `Clone` plus this walk: a
    /// fork clones the machine and walks it once, rebinding every driver
    /// handle declared with [`shared`](StateWalker::shared).
    ///
    /// The list is complete about absolute time too: a scheduled write
    /// declares its fire cycle as a [`horizon`](StateWalker::horizon),
    /// state that can no longer act walks
    /// [`dormant`](StateWalker::dormant), and anything else
    /// time-dependent declares [`no_leap`](StateWalker::no_leap).
    ///
    /// The default opens a section named by the label and calls
    /// [`unsupported`](StateWalker::unsupported), which refuses both a
    /// load ([`SnapDecodeError::Unsupported`](fgqos_snap::SnapDecodeError::Unsupported))
    /// and a fork ([`SnapshotError::Unforkable`](fgqos_snap::SnapshotError::Unforkable)).
    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section(self.label());
        w.unsupported(self.label());
    }
}

/// Builder for a [`Soc`].
///
/// Masters are assigned dense [`MasterId`]s in registration order.
///
/// ```
/// use fgqos_sim::prelude::*;
///
/// let soc = SocBuilder::new(SocConfig::default())
///     .master("dma0", SequentialSource::reads(0, 1024, 100), MasterKind::Accelerator)
///     .build();
/// assert_eq!(soc.master_count(), 1);
/// ```
pub struct SocBuilder {
    cfg: SocConfig,
    masters: Vec<Master>,
    controllers: Vec<Box<dyn Controller>>,
    window_cycles: Option<u64>,
    window_latency: bool,
}

impl SocBuilder {
    /// Starts a builder with the given configuration.
    pub fn new(cfg: SocConfig) -> Self {
        SocBuilder {
            cfg,
            masters: Vec::new(),
            controllers: Vec::new(),
            window_cycles: None,
            window_latency: false,
        }
    }

    /// The id the *next* registered master will receive.
    pub fn next_id(&self) -> MasterId {
        MasterId::new(self.masters.len())
    }

    /// Adds an ungated master with the kind's default outstanding limit.
    pub fn master(
        self,
        name: impl Into<String>,
        source: impl TrafficSource + 'static,
        kind: MasterKind,
    ) -> Self {
        let outstanding = kind.default_outstanding();
        self.master_full(name, source, kind, OpenGate, outstanding)
    }

    /// Adds a master with an explicit [`PortGate`] (QoS regulator seam).
    pub fn gated_master(
        self,
        name: impl Into<String>,
        source: impl TrafficSource + 'static,
        kind: MasterKind,
        gate: impl PortGate + 'static,
    ) -> Self {
        let outstanding = kind.default_outstanding();
        self.master_full(name, source, kind, gate, outstanding)
    }

    /// Adds a master with full control over gate and outstanding limit.
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding` is zero.
    pub fn master_full(
        mut self,
        name: impl Into<String>,
        source: impl TrafficSource + 'static,
        kind: MasterKind,
        gate: impl PortGate + 'static,
        max_outstanding: usize,
    ) -> Self {
        let id = MasterId::new(self.masters.len());
        self.masters.push(Master::new(
            id,
            name,
            kind,
            Box::new(source),
            Box::new(gate),
            max_outstanding,
        ));
        self
    }

    /// Registers a software-side controller (QoS manager, MemGuard tick).
    pub fn controller(mut self, controller: impl Controller + 'static) -> Self {
        self.controllers.push(Box::new(controller));
        self
    }

    /// Enables per-window byte recording on every master.
    pub fn record_windows(mut self, window_cycles: u64) -> Self {
        self.window_cycles = Some(window_cycles);
        self
    }

    /// Enables per-window byte *and* latency (p50/p99) recording on every
    /// master — the per-window schema exported by
    /// [`Soc::window_series_csv`].
    pub fn record_windows_with_latency(mut self, window_cycles: u64) -> Self {
        self.window_cycles = Some(window_cycles);
        self.window_latency = true;
        self
    }

    /// Finalizes the SoC.
    ///
    /// # Panics
    ///
    /// Panics if no master was registered or the configuration is invalid.
    pub fn build(self) -> Soc {
        assert!(!self.masters.is_empty(), "SoC needs at least one master");
        let mut masters = self.masters;
        if let Some(w) = self.window_cycles {
            for m in &mut masters {
                if self.window_latency {
                    m.record_windows_with_latency(w);
                } else {
                    m.record_windows(w);
                }
            }
        }
        let xbar = Crossbar::new(self.cfg.xbar.clone(), masters.len());
        let dram = DramController::new(self.cfg.dram.clone());
        // FGQOS_NAIVE=1 forces cycle-by-cycle stepping (A/B debugging,
        // speedup measurement); any other value keeps fast-forward on.
        // Steady-state leaping defaults on in fast mode; FGQOS_NO_LEAP=1
        // is the escape hatch.
        let env_on = |name: &str| std::env::var_os(name).is_some_and(|v| v != "0" && !v.is_empty());
        let naive = env_on("FGQOS_NAIVE");
        let no_leap = env_on("FGQOS_NO_LEAP");
        Soc {
            freq: self.cfg.freq,
            cycle: Cycle::ZERO,
            masters,
            xbar,
            dram,
            controllers: self.controllers,
            arena: TxnArena::new(),
            naive,
            leap: LeapState::new(!naive && !no_leap),
        }
    }
}

/// Which condition ends a run early. Checked at entry and after every
/// executed cycle — the only points the condition can change — so both
/// cores stop at the identical cycle.
#[derive(Clone, Copy)]
enum StopWhen {
    /// Run to the deadline unconditionally.
    Never,
    /// Stop when one master drains ([`Soc::run_until_done`]).
    MasterDone(MasterId),
    /// Stop when every master drains ([`Soc::run_until_all_done`]).
    AllDone,
    /// Stop at the first quiesced boundary ([`Soc::quiesce_point`]).
    Quiesced,
}

/// One window boundary of a [`Soc::run_windowed`] run, handed to the
/// boundary callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowBoundary {
    /// Zero-based index of the window that just finished.
    pub index: u64,
    /// First cycle of the window.
    pub start: Cycle,
    /// Boundary cycle (exclusive end of the window; the SoC's current
    /// cycle when the callback runs).
    pub end: Cycle,
    /// Whether this is the run's final boundary. The callback must not
    /// mutate regulator state here (see [`Soc::run_windowed`]).
    pub last: bool,
}

/// The simulated SoC: masters, crossbar, DRAM and software controllers.
///
/// `Clone` copies every component but shares their `Arc` handles
/// (register files, group budgets) with the original; an independent
/// copy is a [`SocSnapshot::fork`](crate::snapshot::SocSnapshot::fork).
// Fields are crate-visible for the snapshot and leap modules.
#[derive(Clone)]
pub struct Soc {
    pub(crate) freq: Freq,
    pub(crate) cycle: Cycle,
    pub(crate) masters: Vec<Master>,
    pub(crate) xbar: Crossbar,
    pub(crate) dram: DramController,
    pub(crate) controllers: Vec<Box<dyn Controller>>,
    pub(crate) arena: TxnArena,
    pub(crate) naive: bool,
    pub(crate) leap: LeapState,
}

impl std::fmt::Debug for Soc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Soc")
            .field("cycle", &self.cycle)
            .field("masters", &self.masters.len())
            .field("controllers", &self.controllers.len())
            .finish_non_exhaustive()
    }
}

impl Soc {
    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.cycle
    }

    /// The SoC clock.
    pub fn freq(&self) -> Freq {
        self.freq
    }

    /// Number of master ports.
    pub fn master_count(&self) -> usize {
        self.masters.len()
    }

    /// Statistics of one master.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn master_stats(&self, id: MasterId) -> &MasterStats {
        self.masters[id.index()].stats()
    }

    /// Looks up a master id by its registration name.
    pub fn master_id(&self, name: &str) -> Option<MasterId> {
        self.masters
            .iter()
            .find(|m| m.name() == name)
            .map(|m| m.id())
    }

    /// DRAM-side aggregate statistics.
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// Average throughput achieved by `id` over the whole run so far.
    pub fn master_bandwidth(&self, id: MasterId) -> Bandwidth {
        self.master_stats(id).meter.bandwidth(self.cycle, self.freq)
    }

    /// Aggregate DRAM throughput over the whole run so far.
    pub fn total_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_over(
            self.dram.stats().bytes_completed,
            self.cycle.get(),
            self.freq,
        )
    }

    /// `true` when master `id` has exhausted its source and drained.
    pub fn master_done(&self, id: MasterId) -> bool {
        self.masters[id.index()].is_done()
    }

    /// Forces cycle-by-cycle stepping (`true`) or re-enables next-event
    /// fast-forward (`false`). Also settable via the `FGQOS_NAIVE`
    /// environment variable at build time. Both modes produce
    /// bit-identical statistics; naive mode exists for A/B verification
    /// and speedup measurement.
    pub fn set_naive(&mut self, naive: bool) {
        self.naive = naive;
    }

    /// Whether the naive reference core is selected (see
    /// [`Soc::set_naive`]). The flag is part of the snapshot stream, so
    /// warm-boundary caches must key on it.
    pub fn is_naive(&self) -> bool {
        self.naive
    }

    /// Enables or disables steady-state leaping (see
    /// [`crate::leap`]). Defaults to enabled under the event-calendar
    /// core; `FGQOS_NO_LEAP=1` disables it at build time. Disabling
    /// drops the recurrence table; re-enabling starts detection fresh.
    /// The naive core ignores the flag — it never leaps.
    pub fn set_leap(&mut self, enabled: bool) {
        self.leap = LeapState::new(enabled);
    }

    /// Steady-state leap telemetry accumulated so far.
    pub fn leap_telemetry(&self) -> LeapTelemetry {
        LeapTelemetry {
            enabled: self.leap.enabled,
            periods_detected: self.leap.periods_detected,
            probes: self.leap.probes,
            cycles_skipped: self.leap.cycles_skipped,
            leaps: self.leap.leaps,
        }
    }

    /// Advances the simulation by one cycle (the naive reference core:
    /// every component ticks, in the canonical phase order).
    pub fn step(&mut self) {
        let now = self.cycle;
        for c in &mut self.controllers {
            c.on_cycle(now);
        }
        for m in &mut self.masters {
            m.tick(now, &mut self.xbar, &mut self.arena);
        }
        self.xbar.tick(now, &mut self.dram, &self.arena);
        let responses = self.dram.tick(now, &mut self.arena);
        for response in responses {
            let idx = response.request.master.index();
            self.masters[idx].on_response(response, now);
        }
        self.cycle += 1;
    }

    /// Builds a fresh event calendar from the current component states.
    ///
    /// Token layout: masters `0..n`, DRAM `n`, crossbar backlog `n + 1`,
    /// controllers `n + 2 ..`. Rebuilt at every run entry so external
    /// pokes between runs ([`Soc::master_mut`], [`Soc::set_naive`]) can
    /// never leave a stale schedule behind.
    fn build_calendar(&self) -> EventCalendar {
        let n = self.masters.len();
        let now = self.cycle;
        let mut cal = EventCalendar::new(n + 2 + self.controllers.len(), now.get());
        for (i, m) in self.masters.iter().enumerate() {
            cal.set(i as u32, m.next_activity(now).map_or(NEVER, |c| c.get()));
        }
        cal.set(
            n as u32,
            self.dram.next_activity(now).map_or(NEVER, |c| c.get()),
        );
        if self.xbar.queued() > 0 && self.dram.has_space() {
            cal.set(n as u32 + 1, now.get());
        }
        for (i, c) in self.controllers.iter().enumerate() {
            cal.set(
                (n + 2 + i) as u32,
                c.next_activity(now).map_or(NEVER, |cy| cy.get()),
            );
        }
        cal
    }

    /// Executes simulation cycle `now` in the canonical phase order
    /// (controllers → masters → crossbar → DRAM → response delivery),
    /// ticking only the components in `due` plus any woken mid-cycle,
    /// then re-arms the calendar. Every component's `next_activity`
    /// contract guarantees that ticking a non-due component would be a
    /// state no-op, so this is cycle-exact with naive stepping.
    fn execute_cycle(&mut self, now: Cycle, cal: &mut EventCalendar, due: &[u32]) {
        let n = self.masters.len();
        let dram_tok = n as u32;
        let ctrl_base = n as u32 + 2;
        let next = now + 1;

        // Phase 1: controllers. A controller acting this cycle may read
        // gate telemetry and poke any master's gate live, so (a) lazy
        // stall accounting must be flushed for every master first, and
        // (b) every master is then ticked this cycle.
        let ctrl_acted = due.iter().any(|&t| t >= ctrl_base);
        if ctrl_acted {
            for m in &mut self.masters {
                m.catch_up(now);
            }
            for &t in due {
                if t >= ctrl_base {
                    self.controllers[(t - ctrl_base) as usize].on_cycle(now);
                }
            }
        }

        // Phase 2: masters, in index order (the naive order).
        if ctrl_acted {
            for i in 0..n {
                self.masters[i].tick(now, &mut self.xbar, &mut self.arena);
                let wake = self.masters[i]
                    .next_activity(next)
                    .map_or(NEVER, |c| c.get());
                cal.set(i as u32, wake);
            }
        } else {
            for &t in due {
                if (t as usize) < n {
                    let m = &mut self.masters[t as usize];
                    m.catch_up(now);
                    m.tick(now, &mut self.xbar, &mut self.arena);
                    let wake = m.next_activity(next).map_or(NEVER, |c| c.get());
                    cal.set(t, wake);
                }
            }
        }

        // Phase 3: crossbar arbitration. Ticked whenever backlogged (the
        // tick is a pure no-op when the DRAM queue is full, exactly as in
        // naive stepping). A pop frees FIFO space the owning master can
        // use from the next cycle on; only a FIFO-blocked master can
        // act on it.
        let mut popped = None;
        if self.xbar.queued() > 0 {
            popped = self.xbar.tick(now, &mut self.dram, &self.arena);
            if let Some(p) = popped {
                if self.masters[p].fifo_blocked() {
                    cal.set_min(p as u32, next.get());
                }
            }
        }

        // Phase 4: DRAM + response delivery. Ticked when scheduled (bank
        // timing, completion, refresh) or when the crossbar just enqueued
        // (naive would consider the new request this very cycle).
        if popped.is_some() || due.contains(&dram_tok) {
            let responses = self.dram.tick(now, &mut self.arena);
            for response in responses {
                let idx = response.request.master.index();
                let wake = self.masters[idx].deliver(response, now);
                cal.set_min(idx as u32, wake.map_or(NEVER, |c| c.get()));
            }
            let wake = self.dram.next_activity(next).map_or(NEVER, |c| c.get());
            cal.set(dram_tok, wake);
        }

        // Re-arm the crossbar backlog token: a pending pop forces the
        // next cycle to execute. Evaluated after the DRAM phase so queue
        // space freed this cycle is visible.
        if self.xbar.queued() > 0 && self.dram.has_space() {
            cal.set(dram_tok + 1, next.get());
        } else {
            cal.set(dram_tok + 1, NEVER);
        }

        // Re-query every controller: a controller's wake may move as a
        // consequence of this cycle's gate/master activity (e.g. a
        // level-triggered IRQ asserting), not only of its own tick.
        for (i, c) in self.controllers.iter().enumerate() {
            cal.set(
                ctrl_base + i as u32,
                c.next_activity(next).map_or(NEVER, |cy| cy.get()),
            );
        }
    }

    /// Flushes lazy skipped-cycle stall accounting on every master, as if
    /// each had ticked through `final_cycle - 1`.
    fn flush_fast_stats(&mut self, final_cycle: Cycle) {
        for m in &mut self.masters {
            m.flush_until(final_cycle);
        }
    }

    /// Whether `stop` holds now. [`StopWhen::AllDone`] only counts
    /// strictly before `deadline` (the guard post
    /// [`Soc::run_until_all_done`] documents).
    fn stopped(&self, stop: StopWhen, deadline: Cycle) -> bool {
        match stop {
            StopWhen::Never => false,
            StopWhen::MasterDone(id) => self.master_done(id),
            StopWhen::AllDone => self.cycle < deadline && self.masters.iter().all(Master::is_done),
            StopWhen::Quiesced => self.is_quiesced(),
        }
    }

    /// The one run driver: advances up to `max_cycles`, stopping at the
    /// first cycle `stop` holds (checked at entry and after every
    /// executed cycle). Returns that cycle, or `None` at the deadline.
    fn drive(&mut self, max_cycles: u64, stop: StopWhen) -> Option<Cycle> {
        let deadline = self.cycle + max_cycles;
        if self.stopped(stop, deadline) {
            return Some(self.cycle);
        }
        if !self.naive {
            if let Some(at) = self.run_fast(deadline, stop) {
                return Some(at);
            }
        }
        while self.cycle < deadline {
            self.step();
            if self.stopped(stop, deadline) {
                return Some(self.cycle);
            }
        }
        self.stopped(stop, deadline).then_some(self.cycle)
    }

    /// Event-driven core: advances to `deadline`, executing only cycles
    /// where some component is due. Returns `Some(stop cycle)` when
    /// `stop` is satisfied after an executed cycle; `None` at the
    /// deadline.
    fn run_fast(&mut self, deadline: Cycle, stop: StopWhen) -> Option<Cycle> {
        // A landing that settled an earlier call bounds nothing here:
        // this call's deadline may leave room for more leaps.
        self.leap.settled = false;
        let mut cal = self.build_calendar();
        let mut due = Vec::new();
        while let Some(next_exec) = cal.take_next(self.cycle.get(), deadline.get(), &mut due) {
            let now = Cycle::new(next_exec);
            self.execute_cycle(now, &mut cal, &due);
            self.cycle = now + 1;
            if self.stopped(stop, deadline) {
                self.flush_fast_stats(self.cycle);
                return Some(self.cycle);
            }
            // Steady-state leap: at a quiesced boundary (the only point
            // the full state is snapshotable), probe for a recurring
            // period and skip ahead algebraically. A landed leap moved
            // every component's schedule, so the calendar is rebuilt.
            if self.leap.enabled && self.arena.live() == 0 && self.maybe_leap(deadline) {
                cal = self.build_calendar();
            }
        }
        self.flush_fast_stats(deadline);
        self.cycle = deadline;
        None
    }

    /// Runs for `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        self.drive(cycles, StopWhen::Never);
    }

    /// Runs for `cycles` cycles in `window`-sized segments, yielding to
    /// `at_boundary` at every window boundary. This is the live
    /// subsystem's entry point: boundaries are where telemetry frames
    /// are read out and queued control writes take effect.
    ///
    /// At an **interior** boundary `B` (every boundary except the last)
    /// the SoC is *settled* first: every controller's `on_cycle(B)` runs
    /// in index order, with masters already flushed through `B - 1` by
    /// the segment run — exactly the phase-1 state the naive core
    /// reaches at cycle `B`. Any scheduled op with `at <= B` has
    /// therefore fired before the callback observes the machine, so an
    /// external register write applied inside the callback lands *after*
    /// same-cycle `[phase]` ops, matching the declaration order a replay
    /// that appends synthesized phases produces. Controllers must
    /// tolerate a repeated `on_cycle` at the same cycle (the naive core
    /// calls `on_cycle` every cycle, so every controller is
    /// self-scheduled and the re-poll is a state no-op).
    ///
    /// At the **final** boundary (`boundary.last`) the SoC is *not*
    /// settled and the callback must not mutate regulator state: a
    /// monolithic run of the same schedule never executes the deadline
    /// cycle, so an op firing there would diverge from replay.
    ///
    /// Segment deadlines bound the steady-state leap engine: `run`
    /// never leaps past its own deadline, so an armed subscription (or a
    /// pending control write, which applies at the next boundary)
    /// structurally constrains leaping — a leap can never skip a frame
    /// or a control application point.
    ///
    /// With no writes applied at any boundary, a windowed run is
    /// bit-identical to `run(cycles)`: settling only re-polls
    /// controllers at cycles the naive core polls anyway, and skipped
    /// ticks of non-due components are state no-ops by contract.
    ///
    /// The callback's return value asks for continuation: returning
    /// `false` stops the run at that boundary (an aborted live run);
    /// the return value of the final boundary is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0.
    pub fn run_windowed(
        &mut self,
        cycles: u64,
        window: u64,
        mut at_boundary: impl FnMut(&mut Soc, WindowBoundary) -> bool,
    ) {
        assert!(window > 0, "window must be at least one cycle");
        let mut remaining = cycles;
        let mut index = 0u64;
        loop {
            let seg = remaining.min(window);
            let start = self.cycle;
            self.run(seg);
            remaining -= seg;
            let last = remaining == 0;
            if !last {
                self.settle_controllers();
            }
            let keep_going = at_boundary(
                self,
                WindowBoundary {
                    index,
                    start,
                    end: self.cycle,
                    last,
                },
            );
            if last || !keep_going {
                return;
            }
            index += 1;
        }
    }

    /// Runs every controller's `on_cycle` at the current cycle, in index
    /// order — the naive core's phase-1 at this cycle. Masters must
    /// already be flushed through the previous cycle (both cores
    /// guarantee this at every `run` exit).
    fn settle_controllers(&mut self) {
        let now = self.cycle;
        for c in &mut self.controllers {
            c.on_cycle(now);
        }
    }

    /// Runs until master `id` finishes its workload, up to `max_cycles`.
    ///
    /// Returns the completion time, or `None` on timeout.
    pub fn run_until_done(&mut self, id: MasterId, max_cycles: u64) -> Option<Cycle> {
        self.drive(max_cycles, StopWhen::MasterDone(id))
    }

    /// Runs until every master finishes, up to `max_cycles`.
    ///
    /// Returns the completion time, or `None` on timeout. A completion
    /// landing exactly on the deadline counts as a timeout.
    pub fn run_until_all_done(&mut self, max_cycles: u64) -> Option<Cycle> {
        self.drive(max_cycles, StopWhen::AllDone)
    }

    /// `true` when the SoC is at a quiesced boundary: no transaction is
    /// in flight anywhere on the memory path (staged-but-unissued
    /// requests are master-local state and are captured by a snapshot).
    ///
    /// Every in-flight transaction — crossbar FIFO entry, DRAM queue
    /// entry or in-service access — holds a live arena slot, so an empty
    /// arena implies the whole pipeline is drained.
    pub fn is_quiesced(&self) -> bool {
        self.arena.live() == 0
    }

    /// Advances the simulation to the next quiesced boundary, up to
    /// `max_cycles` from now.
    ///
    /// Returns the boundary cycle (which may be the current cycle if the
    /// SoC is already quiesced), or `None` when no quiesced boundary was
    /// reached within the budget — e.g. under unregulated saturation,
    /// where the pipeline never empties. Both execution cores stop at
    /// the identical boundary: the arena can only drain at an executed
    /// cycle, and executed cycles coincide by construction.
    pub fn quiesce_point(&mut self, max_cycles: u64) -> Option<Cycle> {
        self.drive(max_cycles, StopWhen::Quiesced)
    }

    /// Mutable access to one master (tests, ablation hooks).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn master_mut(&mut self, id: MasterId) -> &mut Master {
        &mut self.masters[id.index()]
    }

    /// The first registered controller of type `T`, if any (e.g. to
    /// reschedule a scenario program in a forked run).
    pub fn controller_mut<T: Controller>(&mut self) -> Option<&mut T> {
        self.controllers
            .iter_mut()
            .find_map(|c| (c.as_mut() as &mut dyn Any).downcast_mut::<T>())
    }

    /// Registration name of one master.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn master_name(&self, id: MasterId) -> &str {
        self.masters[id.index()].name()
    }

    /// Pulls a point-in-time [`MetricsRegistry`] snapshot of every
    /// component: per-master counters/histograms, each port gate's
    /// telemetry (via [`PortGate::collect_metrics`]), crossbar
    /// configuration and DRAM counters.
    ///
    /// Collection is pull-based: the simulation loop never touches the
    /// registry, so *not* calling this method costs nothing (the
    /// zero-cost-when-disabled invariant, see [`crate::metrics`]).
    pub fn collect_metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter("soc.cycle", self.cycle.get());
        reg.gauge("soc.freq_hz", self.freq.hz() as f64);
        for m in &self.masters {
            let p = format!("soc.master.{}", m.name());
            let st = m.stats();
            reg.counter(format!("{p}.issued_txns"), st.issued_txns);
            reg.counter(format!("{p}.completed_txns"), st.completed_txns);
            reg.counter(format!("{p}.bytes_completed"), st.bytes_completed);
            reg.counter(format!("{p}.gate_stall_cycles"), st.gate_stall_cycles);
            reg.counter(format!("{p}.fifo_stall_cycles"), st.fifo_stall_cycles);
            reg.gauge(
                format!("{p}.bandwidth_bytes_per_s"),
                st.meter.bandwidth(self.cycle, self.freq).bytes_per_s(),
            );
            reg.histogram(format!("{p}.latency"), &st.latency);
            reg.histogram(format!("{p}.service_latency"), &st.service_latency);
            let gp = format!("{p}.gate");
            reg.text(format!("{gp}.kind"), m.gate().label());
            m.gate().collect_metrics(&gp, &mut reg);
        }
        reg.gauge("soc.xbar.ports", self.xbar.port_count() as f64);
        reg.gauge(
            "soc.xbar.port_fifo_depth",
            self.xbar.config().port_fifo_depth as f64,
        );
        reg.text(
            "soc.xbar.arbitration",
            self.xbar.config().arbitration.label(),
        );
        reg.counter("soc.leap.periods_detected", self.leap.periods_detected);
        reg.counter("soc.leap.probes", self.leap.probes);
        reg.counter("soc.leap.cycles_skipped", self.leap.cycles_skipped);
        reg.counter("soc.leap.leaps", self.leap.leaps);
        let d = self.dram.stats();
        reg.counter("soc.dram.bytes_completed", d.bytes_completed);
        reg.counter("soc.dram.reads", d.reads);
        reg.counter("soc.dram.writes", d.writes);
        reg.counter("soc.dram.row_hits", d.row_hits);
        reg.counter("soc.dram.row_misses", d.row_misses);
        reg.counter("soc.dram.bus_busy_cycles", d.bus_busy_cycles);
        reg.counter("soc.dram.refreshes", d.refreshes);
        reg.gauge("soc.dram.row_hit_ratio", d.row_hit_ratio());
        reg.histogram("soc.dram.queue_wait", &d.queue_wait);
        reg
    }

    /// Exports every master's per-window series as CSV with a
    /// schema-version comment line (`fgqos.window-series` v1).
    ///
    /// Columns: `master,window,start_cycle,bytes,lat_count,p50_lat,p99_lat`;
    /// the three latency columns are empty unless the run used
    /// [`SocBuilder::record_windows_with_latency`]. Masters without window
    /// recording contribute no rows.
    pub fn window_series_csv(&self) -> String {
        let mut out = String::from(
            "# fgqos.window-series v1\nmaster,window,start_cycle,bytes,lat_count,p50_lat,p99_lat\n",
        );
        use std::fmt::Write as _;
        for m in &self.masters {
            let Some(w) = m.stats().window.as_ref() else {
                continue;
            };
            let lat = w.latency_windows();
            for (i, &bytes) in w.windows().iter().enumerate() {
                let start = i as u64 * w.window_cycles();
                match lat.get(i) {
                    Some(l) => {
                        let _ = writeln!(
                            out,
                            "{},{},{},{},{},{},{}",
                            m.name(),
                            i,
                            start,
                            bytes,
                            l.count,
                            l.p50,
                            l.p99
                        );
                    }
                    None => {
                        let _ = writeln!(out, "{},{},{},{},,,", m.name(), i, start, bytes);
                    }
                }
            }
        }
        out
    }

    /// Renders a captured [`Trace`] plus this SoC's window series as a
    /// Chrome trace-event JSON document (see [`ChromeTraceBuilder`]):
    /// master names become thread names, transactions become duration
    /// slices, gate decisions instant events and per-window byte series
    /// counter tracks.
    pub fn chrome_trace(&self, trace: &Trace) -> String {
        let mut b = ChromeTraceBuilder::new(self.freq);
        for m in &self.masters {
            b.thread_name(m.id().index(), m.name());
        }
        b.add_trace(trace);
        for m in &self.masters {
            if let Some(w) = m.stats().window.as_ref() {
                b.add_counter_track(
                    &format!("window_bytes/{}", m.name()),
                    w.window_cycles(),
                    w.windows(),
                );
            }
        }
        b.finish().to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateDecision;
    use crate::master::SequentialSource;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn no_refresh() -> SocConfig {
        SocConfig {
            dram: DramConfig {
                t_refi: 0,
                ..DramConfig::default()
            },
            ..SocConfig::default()
        }
    }

    #[test]
    fn single_master_runs_to_completion() {
        let mut soc = SocBuilder::new(no_refresh())
            .master(
                "dma",
                SequentialSource::reads(0, 1024, 50),
                MasterKind::Accelerator,
            )
            .build();
        let done = soc.run_until_done(MasterId::new(0), 1_000_000);
        assert!(done.is_some());
        let st = soc.master_stats(MasterId::new(0));
        assert_eq!(st.completed_txns, 50);
        assert_eq!(st.bytes_completed, 50 * 1024);
    }

    #[test]
    fn conservation_master_bytes_equal_dram_bytes() {
        let mut soc = SocBuilder::new(no_refresh())
            .master(
                "a",
                SequentialSource::reads(0, 512, 40),
                MasterKind::Accelerator,
            )
            .master(
                "b",
                SequentialSource::writes(1 << 24, 256, 60),
                MasterKind::Accelerator,
            )
            .build();
        soc.run_until_all_done(1_000_000).expect("workloads drain");
        let total: u64 = (0..soc.master_count())
            .map(|i| soc.master_stats(MasterId::new(i)).bytes_completed)
            .sum();
        assert_eq!(total, soc.dram_stats().bytes_completed);
        assert_eq!(total, 40 * 512 + 60 * 256);
    }

    #[test]
    fn interference_slows_latency_sensitive_master() {
        // Critical master alone.
        let critical = || {
            SequentialSource::reads(0, 256, 500)
                .with_think_time(50)
                .with_footprint(1 << 20)
        };
        let mut solo = SocBuilder::new(no_refresh())
            .master_full("crit", critical(), MasterKind::Cpu, OpenGate, 1)
            .build();
        let t_solo = solo.run_until_done(MasterId::new(0), 10_000_000).unwrap();

        // Same master against three greedy streaming interferers.
        let mut builder = SocBuilder::new(no_refresh()).master_full(
            "crit",
            critical(),
            MasterKind::Cpu,
            OpenGate,
            1,
        );
        for i in 0..3 {
            builder = builder.master(
                format!("dma{i}"),
                SequentialSource::writes((1 << 28) * (i as u64 + 1), 4096, u64::MAX),
                MasterKind::Accelerator,
            );
        }
        let mut contended = builder.build();
        let t_cont = contended
            .run_until_done(MasterId::new(0), 100_000_000)
            .unwrap();

        let slowdown = t_cont.get() as f64 / t_solo.get() as f64;
        assert!(
            slowdown > 1.5,
            "expected visible interference, got {slowdown:.2}x"
        );
        // The interferers should also keep the DRAM far busier.
        assert!(contended.dram_stats().bytes_completed > solo.dram_stats().bytes_completed);
    }

    #[test]
    fn master_lookup_by_name() {
        let soc = SocBuilder::new(no_refresh())
            .master("x", SequentialSource::reads(0, 64, 1), MasterKind::Cpu)
            .master("y", SequentialSource::reads(0, 64, 1), MasterKind::Cpu)
            .build();
        assert_eq!(soc.master_id("y"), Some(MasterId::new(1)));
        assert_eq!(soc.master_id("z"), None);
    }

    #[test]
    fn run_until_done_times_out() {
        let mut soc = SocBuilder::new(no_refresh())
            .master(
                "inf",
                SequentialSource::reads(0, 64, u64::MAX),
                MasterKind::Cpu,
            )
            .build();
        assert!(soc.run_until_done(MasterId::new(0), 1_000).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one master")]
    fn empty_soc_rejected() {
        let _ = SocBuilder::new(no_refresh()).build();
    }

    /// Host-side counts of one gate's calls, shared with the test.
    #[derive(Debug, Default)]
    struct Calls {
        ticks: AtomicU64,
        denials: AtomicU64,
    }

    /// A byte budget refilled every `period` cycles that counts master
    /// ticks (`on_cycle`) and denied `try_accept` calls, and declares
    /// through `admits` whether a completion can flip a denial.
    #[derive(Debug, Clone)]
    struct CountingBudget {
        period: u64,
        budget: u64,
        used: u64,
        start: u64,
        stalls: u64,
        admits: bool,
        calls: Arc<Calls>,
    }

    impl CountingBudget {
        fn new(period: u64, budget: u64, admits: bool) -> (Self, Arc<Calls>) {
            let calls = Arc::new(Calls::default());
            let gate = CountingBudget {
                period,
                budget,
                used: 0,
                start: 0,
                stalls: 0,
                admits,
                calls: Arc::clone(&calls),
            };
            (gate, calls)
        }
    }

    impl PortGate for CountingBudget {
        fn on_cycle(&mut self, now: Cycle) {
            self.calls.ticks.fetch_add(1, Ordering::Relaxed);
            if now.get() >= self.start + self.period {
                self.start += (now.get() - self.start) / self.period * self.period;
                self.used = 0;
            }
        }

        fn try_accept(&mut self, request: &crate::axi::Request, _now: Cycle) -> GateDecision {
            if self.used + request.bytes() <= self.budget {
                self.used += request.bytes();
                GateDecision::Accept
            } else {
                self.calls.denials.fetch_add(1, Ordering::Relaxed);
                self.stalls += 1;
                GateDecision::Deny
            }
        }

        fn next_activity(&self, now: Cycle) -> Option<Cycle> {
            Some(Cycle::new(self.start + self.period).max(now))
        }

        fn on_denied_skip(&mut self, cycles: u64) {
            self.stalls += cycles;
        }

        fn completion_can_admit(&self) -> bool {
            self.admits
        }

        fn collect_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
            registry.counter(format!("{prefix}.stalls"), self.stalls);
            registry.counter(format!("{prefix}.window_start"), self.start);
        }
    }

    /// Every statistic and gate counter both cores must agree on.
    fn outcome(soc: &Soc) -> String {
        soc.collect_metrics().to_csv()
    }

    /// Four 256 B readers (outstanding 8) behind 1 KiB-per-2000-cycle
    /// budgets: each window opens with a four-request burst, then the
    /// port is denied until the window rolls while its four completions
    /// arrive.
    fn budget_soc(admits: bool, naive: bool) -> (Soc, Vec<Arc<Calls>>) {
        let mut b = SocBuilder::new(no_refresh());
        let mut calls = Vec::new();
        for i in 0..4u64 {
            let (gate, c) = CountingBudget::new(2_000, 1_024, admits);
            calls.push(c);
            b = b.gated_master(
                format!("r{i}"),
                SequentialSource::reads(i << 28, 256, u64::MAX).with_footprint(1 << 20),
                MasterKind::Accelerator,
                gate,
            );
        }
        let mut soc = b.build();
        soc.set_naive(naive);
        soc.set_leap(false);
        (soc, calls)
    }

    #[test]
    fn completions_do_not_retry_a_denial_they_cannot_flip() {
        const CYCLES: u64 = 200_000;
        let windows = CYCLES / 2_000;
        let denials = |calls: &[Arc<Calls>]| -> Vec<u64> {
            calls
                .iter()
                .map(|c| c.denials.load(Ordering::Relaxed))
                .collect()
        };

        let (mut naive, _) = budget_soc(false, true);
        naive.run(CYCLES);
        let (mut fast, calls) = budget_soc(false, false);
        fast.run(CYCLES);
        assert_eq!(outcome(&fast), outcome(&naive));
        // One denied attempt per window per master: the one that finds
        // the budget spent. The four completions that follow leave the
        // port asleep until the window rolls.
        for (i, &d) in denials(&calls).iter().enumerate() {
            assert!(
                (windows - 1..=windows).contains(&d),
                "master {i}: {d} denied attempts over {windows} windows"
            );
        }

        // A gate that declares completions can admit is retried after
        // every completion: one more denied attempt per completion.
        let (mut eager, calls) = budget_soc(true, false);
        eager.run(CYCLES);
        assert_eq!(outcome(&eager), outcome(&naive));
        for (i, &d) in denials(&calls).iter().enumerate() {
            assert!(
                d >= 4 * windows,
                "master {i}: {d} denied attempts over {windows} windows"
            );
        }
    }

    #[test]
    fn a_master_at_its_cap_sleeps_through_its_own_crossbar_pop() {
        // One outstanding request: every push leaves the master at its
        // cap with nothing staged, and the crossbar pops the request
        // into DRAM right away. Only the completion can change what the
        // master does, so it executes once per transaction: the cycle
        // after each completion, where it pulls and pushes the next.
        const TXNS: u64 = 500;
        let build = |naive: bool| {
            let (gate, calls) = CountingBudget::new(1_000, u64::MAX, false);
            let mut soc = SocBuilder::new(no_refresh())
                .master_full(
                    "cpu",
                    SequentialSource::reads(0, 256, TXNS).with_footprint(1 << 20),
                    MasterKind::Cpu,
                    gate,
                    1,
                )
                .build();
            soc.set_naive(naive);
            soc.set_leap(false);
            (soc, calls)
        };
        let (mut naive, _) = build(true);
        let (mut fast, calls) = build(false);
        let at = fast.run_until_all_done(10_000_000);
        assert_eq!(at, naive.run_until_all_done(10_000_000));
        assert_eq!(outcome(&fast), outcome(&naive));
        let ticks = calls.ticks.load(Ordering::Relaxed);
        // Plus the gate's window rolls while a request is in flight.
        let windows = at.expect("the reader drains").get() / 1_000;
        assert!(
            ticks <= TXNS + windows + 1,
            "{ticks} master ticks for {TXNS} transactions over {windows} windows"
        );
    }

    #[test]
    fn window_recording() {
        let mut soc = SocBuilder::new(no_refresh())
            .master(
                "dma",
                SequentialSource::reads(0, 1024, 200),
                MasterKind::Accelerator,
            )
            .record_windows(1_000)
            .build();
        soc.run_until_all_done(1_000_000).unwrap();
        let st = soc.master_stats(MasterId::new(0));
        let w = st.window.as_ref().unwrap();
        assert!(w.windows().iter().sum::<u64>() <= st.bytes_completed);
        assert!(w.max_window() > 0);
    }
}
