//! Periodic steady-state detection and algebraic leaping.
//!
//! A saturated regulated run executes millions of byte-identical window
//! periods: the machine returns to the *same architectural state, one
//! period later*. This module detects that recurrence at quiesced
//! boundaries (zero transactions in flight — the same boundaries
//! `fgqos-snap` snapshots at) and then advances the clock by `k` whole
//! periods in one step, applying every per-period counter delta `×k`
//! instead of simulating the cycles.
//!
//! # How a leap is proven legal
//!
//! 1. At an eligible boundary the full snapshot stream is captured
//!    through [`StateWalker::typed_recording`], taken at the boundary
//!    cycle, and keyed by its [`TypedSnapshot::rebased_key`] — a
//!    fingerprint invariant under time translation (cycle stamps
//!    rebased to the boundary, counter values excluded) plus the
//!    per-component pending-wake structure. The same walk records each
//!    component's leap declarations; a record marked
//!    [`no_leap`](TypedSnapshot::no_leap) disarms the engine.
//! 2. A key hit against an earlier boundary proposes a period `P`;
//!    [`TypedSnapshot::lockstep_deltas`] then verifies the two records
//!    differ *only* as a time translation — byte-identical plain state,
//!    every cycle stamp frozen or advanced by exactly `P` — and yields
//!    the per-period delta of every counter.
//! 3. Deterministic evolution is a function of `(state, absolute
//!    time)`. The state part repeats by (2); the absolute-time part is
//!    declared in the same `visit_state` walk (see the leap
//!    declarations of [`StateWalker`]): one-shot calendar events (phase
//!    writes, fault boundaries, refresh storms) bound the landing via
//!    their [`horizon`](TypedSnapshot::horizon), modular behaviors
//!    (burst shaping) force `P` to a multiple of the record's
//!    [`modulus`](TypedSnapshot::modulus), and capped counters (finite
//!    sources) bound `k` so no source exhausts mid-leap. Anything the
//!    engine cannot reason about (traces, window series, custom
//!    components) declares `no_leap`, which an `unsupported` walk — the
//!    default — implies.
//! 4. `k` is clamped so the landing stays at or before the run
//!    deadline and at or before the horizon (the event at the horizon
//!    itself then runs on a simulated cycle), then the merged
//!    stream from [`TypedSnapshot::leap`] is loaded back — the exact
//!    bytes a cycle-by-cycle run would reach at `c + k·P`.
//!
//! # When the engine probes
//!
//! A probe is one typed walk of the whole machine plus its key, a few
//! microseconds of host time, so the engine takes as few as it can:
//!
//! * a boundary closer than the stride to the last probe or landing is
//!   skipped; the stride starts at 64 cycles and doubles (up to 4M)
//!   while boundaries match nothing;
//! * a landing that leaves less than one period before the run call's
//!   deadline is the call's last probe: every later boundary would
//!   verify a pair and find no room for `k ≥ 1`. The stop lasts for
//!   that call only; the next `run`, `run_windowed` segment or call
//!   after an early stop probes again;
//! * the walk scans only the occupied range of each latency histogram,
//!   and the key folds plain bytes a word at a time (a multiply-rotate
//!   mix, not FNV: the key only selects candidates, and
//!   [`TypedSnapshot::lockstep_deltas`] is the proof).
//!
//! [`LeapTelemetry::probes`] counts the walks taken.
//!
//! Leaping is on by default; `FGQOS_NO_LEAP=1` disables the engine, and
//! so does `FGQOS_NAIVE=1` (the naive core never leaps). Bit-identity
//! against the plain calendar core is pinned by proptests in
//! `tests/fast_forward.rs` and `tests/scenario_v2.rs`.

use crate::calendar::NEVER;
use crate::system::Soc;
use crate::time::Cycle;
use fgqos_snap::{StateWalker, TypedSnapshot};

/// Minimum cycles between probes: throttles walks so short
/// quiesce/wake oscillations cost nothing. The stride returns here
/// after a landing and after a detected but unleapable period; a
/// landing that leaves less than a period before the deadline stops
/// probing for the rest of the run call instead (see the
/// [module docs](self)).
const MIN_STRIDE: u64 = 64;

/// Backoff ceiling for the probe stride. A probe walks the whole
/// snapshot stream and folds it into a key (several microseconds per
/// boundary, the cost of simulating thousands of cycles), so on
/// workloads that never settle into a period every probe is a pure tax
/// on the fast run loop. The stride doubles from [`MIN_STRIDE`] after
/// each boundary that matches nothing and resets as soon as a
/// recurrence is detected, bounding the tax at O(log horizon) walks per
/// aperiodic run. The cost is detection latency for machines that only
/// settle into a period late: by then samples are sparse, and a match
/// must wait for two samples to land on the same phase.
const MAX_STRIDE: u64 = 1 << 22;

/// Recurrence table capacity (boundary records kept, FIFO-evicted).
const TABLE_CAP: usize = 32;

/// Point-in-time snapshot of the leap engine's telemetry (see
/// [`Soc::leap_telemetry`](crate::system::Soc::leap_telemetry)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeapTelemetry {
    /// Whether the engine is still armed (off under the naive core,
    /// `FGQOS_NO_LEAP=1`, or after a component declared no leaping).
    pub enabled: bool,
    /// Periodic pairs proven by lockstep verification.
    pub periods_detected: u64,
    /// Typed walks taken to probe for a period (the engine's host cost).
    pub probes: u64,
    /// Total cycles skipped algebraically instead of simulated.
    pub cycles_skipped: u64,
    /// Leaps applied.
    pub leaps: u64,
}

/// One remembered boundary: its translation-invariant key and the typed
/// record (whose capped counters bound `k`, see [`leap_count`]).
struct BoundaryRecord {
    key: u64,
    cycle: u64,
    record: TypedSnapshot,
}

/// Per-`Soc` leap engine state and telemetry. Not part of the snapshot
/// stream: leaping is an execution strategy, not architectural state, so
/// a clone (a fork) starts detection fresh with zeroed telemetry.
pub(crate) struct LeapState {
    /// Off when the naive core runs, `FGQOS_NO_LEAP=1` is set, or a
    /// component declared no leaping (structural, so one such record
    /// disables the engine for the rest of the run).
    pub(crate) enabled: bool,
    table: Vec<BoundaryRecord>,
    /// Brent-style probe for periods beyond the FIFO table's span: one
    /// anchor record compared against every boundary inside a window of
    /// `brent_power` boundaries, then re-anchored and doubled. Detects
    /// any period up to the run length with O(1) extra memory (refresh
    /// intervals make real steady-state periods run to the lcm of every
    /// component period — easily millions of cycles).
    brent: Option<BoundaryRecord>,
    /// Current Brent window length in boundaries.
    brent_power: u64,
    /// Boundaries seen since the Brent anchor was (re)planted.
    brent_count: u64,
    /// Last boundary fingerprinted or landed on (throttle anchor).
    last_boundary: u64,
    /// Current fingerprint throttle in cycles: [`MIN_STRIDE`] while the
    /// engine is finding (or riding) a period, doubling toward
    /// [`MAX_STRIDE`] while boundaries keep matching nothing.
    stride: u64,
    /// Set by a landing that left less than one period before the run
    /// call's deadline: no further leap can fit in this call, so the
    /// engine takes no more probes. Every run call clears it.
    pub(crate) settled: bool,
    /// Periodic pairs proven by lockstep verification.
    pub(crate) periods_detected: u64,
    /// Typed walks taken.
    pub(crate) probes: u64,
    /// Total cycles skipped algebraically.
    pub(crate) cycles_skipped: u64,
    /// Leaps applied (`k ≥ 1`).
    pub(crate) leaps: u64,
}

impl Clone for LeapState {
    fn clone(&self) -> Self {
        LeapState::new(self.enabled)
    }
}

impl LeapState {
    pub(crate) fn new(enabled: bool) -> Self {
        LeapState {
            enabled,
            table: Vec::new(),
            brent: None,
            brent_power: TABLE_CAP as u64,
            brent_count: 0,
            last_boundary: 0,
            stride: MIN_STRIDE,
            settled: false,
            periods_detected: 0,
            probes: 0,
            cycles_skipped: 0,
            leaps: 0,
        }
    }
}

impl std::fmt::Debug for LeapState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeapState")
            .field("enabled", &self.enabled)
            .field("table", &self.table.len())
            .field("periods_detected", &self.periods_detected)
            .field("probes", &self.probes)
            .field("cycles_skipped", &self.cycles_skipped)
            .field("leaps", &self.leaps)
            .finish()
    }
}

impl Soc {
    /// Pending-wake structure at `now`: each component's
    /// `next_activity − now` horizon (`u64::MAX` = never). Folded into
    /// the recurrence key so two different phases of the same window
    /// with coincidentally equal rebased state stay distinct.
    fn wake_offsets(&self, now: Cycle) -> Vec<u64> {
        let off = |c: Option<Cycle>| c.map_or(u64::MAX, |c| c.get().saturating_sub(now.get()));
        let mut v: Vec<u64> = self
            .masters
            .iter()
            .map(|m| off(m.next_activity(now)))
            .collect();
        v.push(off(self.dram.next_activity(now)));
        for c in &self.controllers {
            v.push(off(c.next_activity(now)));
        }
        v
    }

    /// The leap hook, called by the fast run loop at a quiesced
    /// boundary. Fingerprints the state, probes the recurrence table,
    /// and on a verified period leaps as far as the constraints allow
    /// (landing at or before `deadline`). Returns `true` when the clock
    /// moved — the caller must rebuild its event calendar.
    pub(crate) fn maybe_leap(&mut self, deadline: Cycle) -> bool {
        let now = self.cycle;
        if !self.leap.enabled
            || self.leap.settled
            || now.get() < self.leap.last_boundary + self.leap.stride
            || deadline <= now
        {
            return false;
        }
        self.leap.probes += 1;
        let mut w = StateWalker::typed_recording(now.get());
        self.visit_state(&mut w);
        let record = w.take_typed();
        if record.no_leap {
            // Structural (traces, window series, unsupported components):
            // stop probing for the rest of the run.
            self.leap.enabled = false;
            self.leap.table.clear();
            self.leap.brent = None;
            return false;
        }
        let key = record.rebased_key(now.get(), &self.wake_offsets(now));
        self.leap.last_boundary = now.get();

        // Probe: recent boundaries (FIFO table, catches short periods
        // within a few windows) then the Brent anchor (catches periods
        // of any length once its doubling window spans one).
        let mut detected = 0u64;
        let mut proposal = None;
        for entry in self.leap.table.iter().rev().chain(self.leap.brent.iter()) {
            if entry.key != key || entry.cycle >= now.get() {
                continue;
            }
            let period = now.get() - entry.cycle;
            if !period.is_multiple_of(record.modulus) {
                continue;
            }
            let Some(deltas) = record.lockstep_deltas(&entry.record, period) else {
                continue;
            };
            detected += 1;
            let Some(k) = leap_count(
                now.get(),
                period,
                deadline,
                record.horizon,
                &record.headrooms(),
                &entry.record.headrooms(),
            ) else {
                continue;
            };
            proposal = Some((period, k, deltas));
            break;
        }
        self.leap.periods_detected += detected;

        if let Some((period, k, deltas)) = proposal {
            let merged = record.leap(&deltas, k);
            self.load_state(&merged)
                .expect("leaped snapshot stream must load: same machine, same structure");
            self.leap.cycles_skipped += k * period;
            self.leap.leaps += 1;
            self.leap.last_boundary = self.cycle.get();
            self.leap.stride = MIN_STRIDE;
            // Less than one period left: every later boundary of this
            // call would verify a pair and find no room to leap.
            self.leap.settled = deadline.get() - self.cycle.get() < period;
            return true;
        }

        // No landing: remember this boundary. A detected-but-unleapable
        // period (constraints bounded k below 1) keeps the stride dense;
        // a boundary matching nothing backs the stride off so aperiodic
        // workloads stop paying the fingerprint tax.
        self.leap.stride = if detected > 0 {
            MIN_STRIDE
        } else {
            (self.leap.stride * 2).min(MAX_STRIDE)
        };
        // The Brent probe re-anchors (and doubles its window) once
        // `brent_power` boundaries have passed the current anchor.
        self.leap.brent_count += 1;
        match &self.leap.brent {
            None => {
                self.leap.brent = Some(BoundaryRecord {
                    key,
                    cycle: now.get(),
                    record: record.clone(),
                });
                self.leap.brent_count = 0;
            }
            Some(_) if self.leap.brent_count >= self.leap.brent_power => {
                self.leap.brent = Some(BoundaryRecord {
                    key,
                    cycle: now.get(),
                    record: record.clone(),
                });
                self.leap.brent_power *= 2;
                self.leap.brent_count = 0;
            }
            Some(_) => {}
        }
        if self.leap.table.len() == TABLE_CAP {
            self.leap.table.remove(0);
        }
        self.leap.table.push(BoundaryRecord {
            key,
            cycle: now.get(),
            record,
        });
        false
    }
}

/// Largest legal `k ≥ 1` for a leap from `now` by `period`-cycle steps,
/// or `None` when no constraint bounds the leap or the bound is < 1.
/// `headrooms` and `earlier_headrooms` are the two records'
/// [`TypedSnapshot::headrooms`], paired in walk order.
fn leap_count(
    now: u64,
    period: u64,
    deadline: Cycle,
    horizon: Option<u64>,
    headrooms: &[u64],
    earlier_headrooms: &[u64],
) -> Option<u64> {
    let mut k: Option<u64> = None;
    let mut bound = |limit: u64| k = Some(k.map_or(limit, |k| k.min(limit)));
    if deadline.get() != NEVER {
        bound((deadline.get() - now) / period);
    }
    if let Some(horizon) = horizon {
        bound(horizon.saturating_sub(now) / period);
    }
    if headrooms.len() != earlier_headrooms.len() {
        return None;
    }
    for (&h2, &h1) in headrooms.iter().zip(earlier_headrooms) {
        if h2 == u64::MAX && h1 == u64::MAX {
            continue; // unbounded source
        }
        // Headroom shrinks by the per-period issue count; land with at
        // least one request left so `is_done` can only flip on a
        // simulated cycle.
        let spent = h1.checked_sub(h2)?;
        if spent > 0 {
            bound(h2.checked_sub(1)?.checked_div(spent)?);
        }
    }
    k.filter(|&k| k >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axi::Request;
    use crate::dram::DramConfig;
    use crate::gate::{GateDecision, PortGate};
    use crate::master::{MasterKind, SequentialSource};
    use crate::system::{SocBuilder, SocConfig};

    /// A TC-style byte budget refilled every `period` cycles: the
    /// regulation a leap skips over.
    #[derive(Debug, Clone)]
    struct WindowBudget {
        period: u64,
        budget: u64,
        used: u64,
        start: u64,
        stalls: u64,
    }

    impl PortGate for WindowBudget {
        fn on_cycle(&mut self, now: Cycle) {
            if now.get() >= self.start + self.period {
                self.start += (now.get() - self.start) / self.period * self.period;
                self.used = 0;
            }
        }

        fn try_accept(&mut self, request: &Request, _now: Cycle) -> GateDecision {
            if self.used + request.bytes() <= self.budget {
                self.used += request.bytes();
                GateDecision::Accept
            } else {
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

        fn label(&self) -> &'static str {
            "window-budget"
        }

        fn visit_state(&mut self, w: &mut StateWalker<'_>) {
            w.section("window-budget");
            w.plain(&mut self.period);
            w.plain(&mut self.budget);
            w.plain(&mut self.used);
            w.cycle(&mut self.start);
            w.counter(&mut self.stalls);
        }
    }

    /// Regulator window of [`periodic_soc`].
    const WINDOW: u64 = 1_000;

    /// One unbounded sequential reader, 512 B per 1000-cycle window over
    /// a 4 KiB footprint: the machine repeats every 8 windows, and
    /// quiesces once in every window.
    fn periodic_soc() -> Soc {
        let cfg = SocConfig {
            dram: DramConfig {
                t_refi: 0,
                ..DramConfig::default()
            },
            ..SocConfig::default()
        };
        let gate = WindowBudget {
            period: WINDOW,
            budget: 512,
            used: 0,
            start: 0,
            stalls: 0,
        };
        let source = SequentialSource::reads(1 << 28, 256, u64::MAX).with_footprint(4096);
        let mut soc = SocBuilder::new(cfg)
            .gated_master("r0", source, MasterKind::Accelerator, gate)
            .build();
        soc.set_leap(true);
        soc
    }

    #[test]
    fn no_probe_after_the_landing_that_ends_the_call() {
        let deadline = 405_000;
        let mut a = periodic_soc();
        a.run(deadline);
        let t = a.leap_telemetry();
        assert_eq!(t.leaps, 1, "one leap fits: {t:?}");
        assert!(a.leap.settled, "the landing left under a period");
        // A probe after the landing would have moved the throttle anchor
        // off the landing cycle.
        let landed = a.leap.last_boundary;
        let left = deadline - landed;
        assert!(
            (2 * WINDOW..8 * WINDOW).contains(&left),
            "the last partial period spans quiesced boundaries: {left}"
        );
        // The same machine stopped exactly at the landing took the same
        // probes and kept the same table: nothing ran after it in `a`.
        let mut b = periodic_soc();
        b.run(landed);
        assert_eq!(b.now().get(), landed);
        assert_eq!(b.leap_telemetry(), t);
        assert_eq!(b.leap.table.len(), a.leap.table.len());
        assert_eq!(b.leap.last_boundary, landed);

        // An early stop does not silence the call after it.
        assert_eq!(a.quiesce_point(1_000_000), Some(a.now()));
        // The next call probes and leaps again.
        a.run(400_000);
        let next = a.leap_telemetry();
        assert!(next.probes > t.probes, "{next:?}");
        assert!(next.leaps > t.leaps, "{next:?}");
    }

    #[test]
    fn leap_count_respects_every_bound() {
        // Deadline alone: land at or before it.
        assert_eq!(
            leap_count(1_000, 100, Cycle::new(2_050), None, &[], &[]),
            Some(10)
        );
        // A horizon tightens it.
        assert_eq!(
            leap_count(1_000, 100, Cycle::new(2_050), Some(1_350), &[], &[]),
            Some(3)
        );
        // A landing exactly on the horizon is allowed.
        assert_eq!(
            leap_count(1_000, 100, Cycle::new(2_050), Some(1_300), &[], &[]),
            Some(3)
        );
        // Headroom: 7 left, 2 spent per period -> land with >= 1 left.
        assert_eq!(
            leap_count(1_000, 100, Cycle::new(u64::MAX - 1), None, &[7], &[9]),
            Some(3)
        );
        // Unbounded everything: no legal k.
        assert_eq!(
            leap_count(
                1_000,
                100,
                Cycle::new(NEVER),
                None,
                &[u64::MAX],
                &[u64::MAX]
            ),
            None
        );
        // Bound below one period: no leap.
        assert_eq!(
            leap_count(1_000, 100, Cycle::new(1_099), None, &[], &[]),
            None
        );
        // Headroom grew (source restarted?): reject the pair.
        assert_eq!(
            leap_count(1_000, 100, Cycle::new(2_000), None, &[9], &[7]),
            None
        );
    }
}
