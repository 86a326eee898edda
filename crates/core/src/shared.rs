//! Centralized (shared-budget) regulation — the placement alternative.
//!
//! "Tightly-coupled" in the paper's title is a *placement* claim: one
//! regulator per master port, at the port. The obvious cheaper
//! alternative is a single regulator at the shared interconnect port
//! with one aggregate budget for all best-effort masters. This module
//! implements that alternative so the placement argument can be
//! measured: an aggregate budget controls the *total* bandwidth equally
//! well, but provides no isolation *among* the regulated masters — one
//! aggressive master can consume the entire group budget and starve its
//! peers, which per-port regulation makes impossible by construction.
//!
//! [`SharedRegulator`] is a group object; [`SharedRegulator::port_gate`]
//! hands out per-port gates that all debit the same window budget.

use fgqos_sim::axi::Request;
use fgqos_sim::gate::{GateDecision, PortGate};
use fgqos_sim::time::Cycle;
use fgqos_sim::{ForkCtx, StateWalker};
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone)]
struct GroupState {
    period: u64,
    budget: u64,
    window_start: Cycle,
    used: u64,
    windows: u64,
    max_window_bytes: u64,
}

impl GroupState {
    fn roll(&mut self, now: Cycle) {
        while now.saturating_since(self.window_start) >= self.period {
            self.max_window_bytes = self.max_window_bytes.max(self.used);
            self.used = 0;
            self.windows += 1;
            self.window_start += self.period;
        }
    }
}

/// A single window budget shared by a group of ports.
///
/// ```
/// use fgqos_core::shared::SharedRegulator;
/// use fgqos_sim::axi::{Dir, MasterId, Request};
/// use fgqos_sim::gate::PortGate;
/// use fgqos_sim::time::Cycle;
///
/// let group = SharedRegulator::new(1_000, 512);
/// let mut a = group.port_gate();
/// let mut b = group.port_gate();
/// let r = Request::new(MasterId::new(0), 0, 0, 16, Dir::Read, Cycle::ZERO);
/// assert!(a.try_accept(&r, Cycle::ZERO).is_accept()); // 256 of 512
/// assert!(b.try_accept(&r, Cycle::ZERO).is_accept()); // pool empty now
/// assert!(!a.try_accept(&r, Cycle::new(1)).is_accept());
/// ```
#[derive(Debug, Clone)]
pub struct SharedRegulator {
    state: Arc<Mutex<GroupState>>,
}

impl SharedRegulator {
    /// Creates a group with an aggregate `budget_bytes` per
    /// `period_cycles` window.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn new(period_cycles: u64, budget_bytes: u64) -> Self {
        assert!(period_cycles > 0, "regulation period must be non-zero");
        SharedRegulator {
            state: Arc::new(Mutex::new(GroupState {
                period: period_cycles,
                budget: budget_bytes,
                window_start: Cycle::ZERO,
                used: 0,
                windows: 0,
                max_window_bytes: 0,
            })),
        }
    }

    /// A gate for one member port (hand one to each regulated master).
    pub fn port_gate(&self) -> SharedBudgetGate {
        SharedBudgetGate {
            state: Arc::clone(&self.state),
            stall_cycles: 0,
            accepted_bytes: 0,
        }
    }

    /// Reprograms the aggregate budget (takes effect immediately; the
    /// centralized design has no per-port latching to preserve).
    pub fn set_budget_bytes(&self, budget_bytes: u64) {
        self.state.lock().expect("regulator lock").budget = budget_bytes;
    }

    /// Worst aggregate bytes observed in any completed window.
    pub fn max_window_bytes(&self) -> u64 {
        self.state.lock().expect("regulator lock").max_window_bytes
    }

    /// Completed windows.
    pub fn windows(&self) -> u64 {
        self.state.lock().expect("regulator lock").windows
    }

    /// Rebinds this group handle to the group state `ctx` maps it to (the
    /// snapshot-fork counterpart of cloning: member gates forked through
    /// the same `ctx` share the rebound state).
    pub fn forked(&self, ctx: &mut ForkCtx) -> SharedRegulator {
        SharedRegulator {
            state: ctx.fork_arc(&self.state),
        }
    }
}

/// One port's handle onto a [`SharedRegulator`] group budget.
#[derive(Debug, Clone)]
pub struct SharedBudgetGate {
    state: Arc<Mutex<GroupState>>,
    stall_cycles: u64,
    accepted_bytes: u64,
}

impl SharedBudgetGate {
    /// Cycles this port spent denied.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Bytes this port pushed through the group budget.
    pub fn accepted_bytes(&self) -> u64 {
        self.accepted_bytes
    }
}

impl PortGate for SharedBudgetGate {
    fn on_cycle(&mut self, now: Cycle) {
        self.state.lock().expect("regulator lock").roll(now);
    }

    fn try_accept(&mut self, request: &Request, now: Cycle) -> GateDecision {
        let mut s = self.state.lock().expect("regulator lock");
        s.roll(now);
        let bytes = request.bytes();
        if s.used + bytes <= s.budget {
            s.used += bytes;
            drop(s);
            self.accepted_bytes += bytes;
            GateDecision::Accept
        } else {
            drop(s);
            self.stall_cycles += 1;
            GateDecision::Deny
        }
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        // A denied request can only succeed once the aggregate window
        // rolls. `window_start` may lag `now` (it only advances at
        // executed cycles); the `max(now)` clamp then degrades to "poll
        // now", which is always safe.
        let s = self.state.lock().expect("regulator lock");
        Some((s.window_start + s.period).max(now))
    }

    fn on_denied_skip(&mut self, cycles: u64) {
        self.stall_cycles += cycles;
    }

    fn completion_can_admit(&self) -> bool {
        // The group budget frees only when its window rolls.
        false
    }

    fn label(&self) -> &'static str {
        "shared-budget"
    }

    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("shared-budget");
        w.no_leap();
        // All member gates of one group fork to the same state, so the
        // aggregate-budget topology survives the fork. Every member walks
        // the group state; loading it once per member writes the same
        // values through the shared handle.
        w.shared(&mut self.state);
        let mut s = self.state.lock().expect("regulator lock");
        w.fixed(s.period, "shared-budget period");
        w.plain(&mut s.budget);
        w.plain(&mut s.window_start);
        w.plain(&mut s.used);
        w.plain(&mut s.windows);
        w.plain(&mut s.max_window_bytes);
        drop(s);
        w.plain(&mut self.stall_cycles);
        w.plain(&mut self.accepted_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_sim::axi::{Dir, MasterId};

    fn req(master: usize, serial: u64, bytes: u64) -> Request {
        let beats = (bytes / fgqos_sim::axi::BEAT_BYTES) as u16;
        Request::new(
            MasterId::new(master),
            serial,
            serial * 4096,
            beats,
            Dir::Read,
            Cycle::ZERO,
        )
    }

    #[test]
    fn group_budget_is_aggregate() {
        let group = SharedRegulator::new(1_000, 512);
        let mut a = group.port_gate();
        let mut b = group.port_gate();
        a.on_cycle(Cycle::ZERO);
        assert!(a.try_accept(&req(0, 0, 256), Cycle::ZERO).is_accept());
        assert!(b.try_accept(&req(1, 0, 256), Cycle::ZERO).is_accept());
        // Aggregate exhausted: both ports are denied.
        assert_eq!(
            a.try_accept(&req(0, 1, 16), Cycle::ZERO),
            GateDecision::Deny
        );
        assert_eq!(
            b.try_accept(&req(1, 1, 16), Cycle::ZERO),
            GateDecision::Deny
        );
    }

    #[test]
    fn group_budget_replenishes() {
        let group = SharedRegulator::new(100, 128);
        let mut a = group.port_gate();
        assert!(a.try_accept(&req(0, 0, 128), Cycle::ZERO).is_accept());
        assert_eq!(
            a.try_accept(&req(0, 1, 128), Cycle::new(50)),
            GateDecision::Deny
        );
        assert!(a.try_accept(&req(0, 1, 128), Cycle::new(100)).is_accept());
        assert_eq!(group.windows(), 1);
        assert_eq!(group.max_window_bytes(), 128);
    }

    #[test]
    fn one_port_can_starve_the_group() {
        // The structural unfairness per-port regulation removes: the
        // greedy port drains the whole aggregate budget first.
        let group = SharedRegulator::new(1_000, 1_024);
        let mut greedy = group.port_gate();
        let mut meek = group.port_gate();
        greedy.on_cycle(Cycle::ZERO);
        // Greedy gets there first every window.
        for s in 0..4u64 {
            let _ = greedy.try_accept(&req(0, s, 256), Cycle::new(s));
        }
        assert_eq!(
            meek.try_accept(&req(1, 0, 256), Cycle::new(10)),
            GateDecision::Deny
        );
        assert_eq!(greedy.accepted_bytes(), 1_024);
        assert_eq!(meek.accepted_bytes(), 0);
    }

    #[test]
    fn budget_reprogramming_is_immediate() {
        let group = SharedRegulator::new(1_000, 0);
        let mut a = group.port_gate();
        assert_eq!(
            a.try_accept(&req(0, 0, 16), Cycle::ZERO),
            GateDecision::Deny
        );
        group.set_budget_bytes(1_024);
        assert!(a.try_accept(&req(0, 0, 16), Cycle::new(1)).is_accept());
    }

    #[test]
    #[should_panic(expected = "period must be non-zero")]
    fn zero_period_rejected() {
        let _ = SharedRegulator::new(0, 100);
    }
}
