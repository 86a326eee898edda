//! PREM-style TDMA memory arbitration.
//!
//! The Predictable Execution Model family gives timing guarantees by
//! making memory phases *mutually exclusive*: a static TDMA schedule
//! assigns each actor exclusive memory slots; outside its slots an actor
//! may not issue memory traffic at all. The guarantee is airtight, but
//! every cycle of a slot its owner does not use is wasted — the
//! under-utilization the CMRI line of work (and this paper's reclaim
//! policy) recovers.
//!
//! [`TdmaGate`] gates admission only: a transaction must *start* inside
//! one of the port's slots. To keep a transaction from spilling far into
//! the next slot, the gate also refuses admissions too close to the slot
//! boundary for the burst to drain (configurable guard band).

use fgqos_sim::axi::Request;
use fgqos_sim::gate::{GateDecision, PortGate};
use fgqos_sim::time::Cycle;
use fgqos_sim::StateWalker;

/// A static TDMA schedule shared by all ports of a system.
#[derive(Debug, Clone)]
pub struct TdmaSchedule {
    slot_cycles: u64,
    num_slots: usize,
}

impl TdmaSchedule {
    /// Creates a schedule of `num_slots` rotating slots of `slot_cycles`
    /// cycles each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(slot_cycles: u64, num_slots: usize) -> Self {
        assert!(slot_cycles > 0, "slot length must be non-zero");
        assert!(num_slots > 0, "schedule needs at least one slot");
        TdmaSchedule {
            slot_cycles,
            num_slots,
        }
    }

    /// Slot length in cycles.
    pub fn slot_cycles(&self) -> u64 {
        self.slot_cycles
    }

    /// Number of slots in one rotation.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// The slot index active at `now`.
    pub fn slot_at(&self, now: Cycle) -> usize {
        ((now.get() / self.slot_cycles) % self.num_slots as u64) as usize
    }

    /// Cycles remaining in the slot active at `now`.
    pub fn remaining_in_slot(&self, now: Cycle) -> u64 {
        self.slot_cycles - (now.get() % self.slot_cycles)
    }
}

/// One port's view of a [`TdmaSchedule`].
///
/// ```
/// use fgqos_baselines::tdma::{TdmaGate, TdmaSchedule};
/// use fgqos_sim::axi::{Dir, MasterId, Request};
/// use fgqos_sim::gate::PortGate;
/// use fgqos_sim::time::Cycle;
///
/// let mut gate = TdmaGate::new(TdmaSchedule::new(100, 2), vec![1], 0);
/// let r = Request::new(MasterId::new(0), 0, 0, 4, Dir::Read, Cycle::ZERO);
/// assert!(!gate.try_accept(&r, Cycle::new(50)).is_accept()); // slot 0: not ours
/// assert!(gate.try_accept(&r, Cycle::new(150)).is_accept()); // slot 1: ours
/// ```
#[derive(Debug, Clone)]
pub struct TdmaGate {
    schedule: TdmaSchedule,
    my_slots: Vec<usize>,
    guard_cycles: u64,
    stall_cycles: u64,
    accepted: u64,
}

impl TdmaGate {
    /// Creates a gate allowing admission during `my_slots` of `schedule`,
    /// refusing admissions within `guard_cycles` of the slot end.
    ///
    /// # Panics
    ///
    /// Panics if `my_slots` is empty or references a slot outside the
    /// schedule.
    pub fn new(schedule: TdmaSchedule, my_slots: Vec<usize>, guard_cycles: u64) -> Self {
        assert!(!my_slots.is_empty(), "port needs at least one slot");
        assert!(
            my_slots.iter().all(|&s| s < schedule.num_slots()),
            "slot index outside schedule"
        );
        TdmaGate {
            schedule,
            my_slots,
            guard_cycles,
            stall_cycles: 0,
            accepted: 0,
        }
    }

    /// Cycles spent denied.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Transactions admitted.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Whether this port owns the slot active at `now`.
    pub fn in_slot(&self, now: Cycle) -> bool {
        self.my_slots.contains(&self.schedule.slot_at(now))
    }
}

impl PortGate for TdmaGate {
    fn try_accept(&mut self, _request: &Request, now: Cycle) -> GateDecision {
        if self.in_slot(now) && self.schedule.remaining_in_slot(now) > self.guard_cycles {
            self.accepted += 1;
            GateDecision::Accept
        } else {
            self.stall_cycles += 1;
            GateDecision::Deny
        }
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        // The gate is a pure function of `now`: its decision can only
        // flip at the guard-band edge of the current slot (accept ->
        // deny) or at a slot boundary (deny -> accept, possibly of a
        // later slot — re-evaluated boundary by boundary).
        let remaining = self.schedule.remaining_in_slot(now);
        if self.in_slot(now) && remaining > self.guard_cycles {
            Some(now + (remaining - self.guard_cycles))
        } else {
            Some(now + remaining)
        }
    }

    fn on_denied_skip(&mut self, cycles: u64) {
        self.stall_cycles += cycles;
    }

    fn completion_can_admit(&self) -> bool {
        // A pure function of time.
        false
    }

    fn label(&self) -> &'static str {
        "tdma"
    }

    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("tdma");
        w.no_leap();
        // The schedule and slot assignment are structural configuration:
        // verified against the skeleton, never overwritten.
        w.fixed(self.schedule.slot_cycles, "tdma slot length");
        w.fixed(self.schedule.num_slots, "tdma slot count");
        w.fixed(self.my_slots.len(), "tdma owned slot count");
        for &slot in &self.my_slots {
            w.fixed(slot, "tdma owned slot");
        }
        w.fixed(self.guard_cycles, "tdma guard band");
        w.plain(&mut self.stall_cycles);
        w.plain(&mut self.accepted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_sim::axi::{Dir, MasterId};

    fn req() -> Request {
        Request::new(MasterId::new(0), 0, 0, 4, Dir::Read, Cycle::ZERO)
    }

    #[test]
    fn schedule_rotation() {
        let s = TdmaSchedule::new(100, 4);
        assert_eq!(s.slot_at(Cycle::new(0)), 0);
        assert_eq!(s.slot_at(Cycle::new(99)), 0);
        assert_eq!(s.slot_at(Cycle::new(100)), 1);
        assert_eq!(s.slot_at(Cycle::new(399)), 3);
        assert_eq!(s.slot_at(Cycle::new(400)), 0);
        assert_eq!(s.remaining_in_slot(Cycle::new(30)), 70);
    }

    #[test]
    fn gate_admits_only_in_own_slot() {
        let s = TdmaSchedule::new(100, 2);
        let mut g = TdmaGate::new(s, vec![1], 0);
        assert_eq!(g.try_accept(&req(), Cycle::new(50)), GateDecision::Deny);
        assert!(g.try_accept(&req(), Cycle::new(150)).is_accept());
        assert_eq!(g.stall_cycles(), 1);
        assert_eq!(g.accepted(), 1);
    }

    #[test]
    fn guard_band_blocks_slot_tail() {
        let s = TdmaSchedule::new(100, 2);
        let mut g = TdmaGate::new(s, vec![0], 20);
        assert!(g.try_accept(&req(), Cycle::new(10)).is_accept());
        // 15 cycles left < 20 guard: denied.
        assert_eq!(g.try_accept(&req(), Cycle::new(85)), GateDecision::Deny);
    }

    #[test]
    fn multiple_slots_per_port() {
        let s = TdmaSchedule::new(10, 4);
        let mut g = TdmaGate::new(s, vec![0, 2], 0);
        assert!(g.try_accept(&req(), Cycle::new(5)).is_accept());
        assert_eq!(g.try_accept(&req(), Cycle::new(15)), GateDecision::Deny);
        assert!(g.try_accept(&req(), Cycle::new(25)).is_accept());
    }

    #[test]
    #[should_panic(expected = "slot index outside")]
    fn invalid_slot_rejected() {
        let s = TdmaSchedule::new(10, 2);
        let _ = TdmaGate::new(s, vec![2], 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_slots_rejected() {
        let s = TdmaSchedule::new(10, 2);
        let _ = TdmaGate::new(s, vec![], 0);
    }
}
