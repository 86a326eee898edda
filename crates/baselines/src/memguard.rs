//! Software MemGuard-style bandwidth regulation.
//!
//! MemGuard (Yun et al., RTAS 2013) regulates each actor's memory
//! bandwidth in software: a performance counter counts the actor's
//! memory traffic; when the counter crosses the per-tick budget it raises
//! an overflow interrupt whose handler throttles the actor until the next
//! OS tick replenishes the budget.
//!
//! Two properties make this *coarse*, and both are modelled here because
//! they are exactly what the paper's tightly-coupled IP removes:
//!
//! 1. **Tick granularity** — budgets replenish at the OS tick (order of
//!    1 ms), so bandwidth can only be shaped at millisecond scale and a
//!    bursty actor can consume its whole tick budget in the first few
//!    microseconds of the tick.
//! 2. **Enforcement latency** — between the counter overflow and the
//!    interrupt handler actually stopping the actor, traffic keeps
//!    flowing ([`MemGuardConfig::irq_latency_cycles`]); the overshoot is
//!    unbounded by the mechanism and grows with the actor's burst rate.

use fgqos_sim::axi::Request;
use fgqos_sim::gate::{GateDecision, PortGate};
use fgqos_sim::time::Cycle;
use fgqos_sim::StateWalker;

/// MemGuard parameters.
#[derive(Debug, Clone, Copy)]
pub struct MemGuardConfig {
    /// OS tick (replenishment period) in cycles. The classic value at a
    /// 1 GHz clock is 1 ms = 1 000 000 cycles.
    pub tick_cycles: u64,
    /// Byte budget per tick.
    pub budget_bytes: u64,
    /// Delay between the counter crossing the budget and the throttle
    /// taking effect (interrupt delivery + handler), in cycles.
    pub irq_latency_cycles: u64,
}

impl Default for MemGuardConfig {
    fn default() -> Self {
        MemGuardConfig {
            tick_cycles: 1_000_000,
            budget_bytes: 1_000_000,
            irq_latency_cycles: 2_000,
        }
    }
}

/// The MemGuard gate: per-tick byte accounting with delayed enforcement.
///
/// ```
/// use fgqos_baselines::memguard::{MemGuardConfig, MemGuardGate};
/// use fgqos_sim::axi::{Dir, MasterId, Request};
/// use fgqos_sim::gate::PortGate;
/// use fgqos_sim::time::Cycle;
///
/// let mut gate = MemGuardGate::new(MemGuardConfig {
///     tick_cycles: 1_000,
///     budget_bytes: 256,
///     irq_latency_cycles: 0,
/// });
/// let r = Request::new(MasterId::new(0), 0, 0, 16, Dir::Read, Cycle::ZERO);
/// assert!(gate.try_accept(&r, Cycle::ZERO).is_accept()); // crosses the budget
/// assert!(!gate.try_accept(&r, Cycle::new(1)).is_accept()); // throttled until the tick
/// ```
#[derive(Debug, Clone)]
pub struct MemGuardGate {
    cfg: MemGuardConfig,
    tick_start: Cycle,
    bytes_in_tick: u64,
    overflow_at: Option<Cycle>,
    total_bytes: u64,
    stall_cycles: u64,
    max_tick_bytes: u64,
}

impl MemGuardGate {
    /// Creates a gate from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the tick length is zero.
    pub fn new(cfg: MemGuardConfig) -> Self {
        assert!(cfg.tick_cycles > 0, "tick length must be non-zero");
        MemGuardGate {
            cfg,
            tick_start: Cycle::ZERO,
            bytes_in_tick: 0,
            overflow_at: None,
            total_bytes: 0,
            stall_cycles: 0,
            max_tick_bytes: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MemGuardConfig {
        &self.cfg
    }

    /// Lifetime accepted bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Cycles spent throttled.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Largest byte count observed in any tick (overshoot telemetry:
    /// compare against `budget_bytes`).
    pub fn max_tick_bytes(&self) -> u64 {
        self.max_tick_bytes
    }

    /// Worst overshoot beyond the budget in any tick.
    pub fn max_overshoot(&self) -> u64 {
        self.max_tick_bytes.saturating_sub(self.cfg.budget_bytes)
    }

    fn throttled(&self, now: Cycle) -> bool {
        match self.overflow_at {
            Some(t) => now.saturating_since(t) >= self.cfg.irq_latency_cycles,
            None => false,
        }
    }
}

impl PortGate for MemGuardGate {
    fn on_cycle(&mut self, now: Cycle) {
        while now.saturating_since(self.tick_start) >= self.cfg.tick_cycles {
            self.max_tick_bytes = self.max_tick_bytes.max(self.bytes_in_tick);
            self.bytes_in_tick = 0;
            self.overflow_at = None;
            self.tick_start += self.cfg.tick_cycles;
        }
    }

    fn try_accept(&mut self, request: &Request, now: Cycle) -> GateDecision {
        if self.throttled(now) {
            self.stall_cycles += 1;
            return GateDecision::Deny;
        }
        self.bytes_in_tick += request.bytes();
        self.total_bytes += request.bytes();
        if self.overflow_at.is_none() && self.bytes_in_tick >= self.cfg.budget_bytes {
            // PMC overflow interrupt raised; enforcement lands after the
            // IRQ latency.
            self.overflow_at = Some(now);
        }
        GateDecision::Accept
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        // A throttled port unblocks at the next tick boundary (the
        // while-loop in `on_cycle` catches up however many ticks were
        // skipped). An in-flight overflow IRQ flips accept -> deny at
        // `overflow_at + irq_latency_cycles`; wake there too so the
        // throttle lands on the same cycle as under naive stepping.
        let mut wake = (self.tick_start + self.cfg.tick_cycles).max(now);
        if let Some(t) = self.overflow_at {
            if !self.throttled(now) {
                wake = wake.min((t + self.cfg.irq_latency_cycles).max(now));
            }
        }
        Some(wake)
    }

    fn on_denied_skip(&mut self, cycles: u64) {
        self.stall_cycles += cycles;
    }

    fn completion_can_admit(&self) -> bool {
        // The throttle lifts only at a tick boundary.
        false
    }

    fn label(&self) -> &'static str {
        "memguard"
    }

    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("memguard");
        w.no_leap();
        // Configuration travels in the stream for verification only: the
        // skeleton this state loads into must have been built with the
        // same parameters.
        w.fixed(self.cfg.tick_cycles, "memguard tick_cycles");
        w.fixed(self.cfg.budget_bytes, "memguard budget_bytes");
        w.fixed(self.cfg.irq_latency_cycles, "memguard irq_latency_cycles");
        w.plain(&mut self.tick_start);
        w.plain(&mut self.bytes_in_tick);
        if let Some(t) = w.option(&mut self.overflow_at) {
            w.plain(t);
        }
        w.plain(&mut self.total_bytes);
        w.plain(&mut self.stall_cycles);
        w.plain(&mut self.max_tick_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_sim::axi::{Dir, MasterId};

    fn req(serial: u64, bytes: u64) -> Request {
        let beats = (bytes / fgqos_sim::axi::BEAT_BYTES) as u16;
        Request::new(
            MasterId::new(0),
            serial,
            serial * 4096,
            beats,
            Dir::Read,
            Cycle::ZERO,
        )
    }

    fn gate(tick: u64, budget: u64, irq: u64) -> MemGuardGate {
        MemGuardGate::new(MemGuardConfig {
            tick_cycles: tick,
            budget_bytes: budget,
            irq_latency_cycles: irq,
        })
    }

    #[test]
    fn accepts_within_budget() {
        let mut g = gate(1_000, 512, 10);
        g.on_cycle(Cycle::ZERO);
        assert!(g.try_accept(&req(0, 256), Cycle::new(1)).is_accept());
        assert!(g.try_accept(&req(1, 128), Cycle::new(2)).is_accept());
        assert_eq!(g.total_bytes(), 384);
    }

    #[test]
    fn overshoot_continues_during_irq_latency() {
        // Budget 256 B, IRQ latency 100 cycles: the burst that crosses the
        // budget *and everything issued in the next 100 cycles* still
        // passes. This is the coarseness the paper attacks.
        let mut g = gate(1_000_000, 256, 100);
        g.on_cycle(Cycle::ZERO);
        assert!(g.try_accept(&req(0, 256), Cycle::new(0)).is_accept()); // crosses budget
        assert!(g.try_accept(&req(1, 256), Cycle::new(50)).is_accept()); // IRQ in flight
        assert!(g.try_accept(&req(2, 256), Cycle::new(99)).is_accept()); // still in flight
        assert_eq!(
            g.try_accept(&req(3, 256), Cycle::new(100)),
            GateDecision::Deny
        );
        assert_eq!(g.total_bytes(), 768);
    }

    #[test]
    fn budget_replenishes_at_tick() {
        let mut g = gate(1_000, 128, 0);
        g.on_cycle(Cycle::ZERO);
        assert!(g.try_accept(&req(0, 128), Cycle::new(0)).is_accept());
        // IRQ latency 0: throttle is immediate.
        assert_eq!(
            g.try_accept(&req(1, 128), Cycle::new(1)),
            GateDecision::Deny
        );
        assert!(g.stall_cycles() > 0);
        g.on_cycle(Cycle::new(1_000));
        assert!(g.try_accept(&req(1, 128), Cycle::new(1_000)).is_accept());
    }

    #[test]
    fn max_overshoot_telemetry() {
        let mut g = gate(1_000, 100, 1_000_000);
        g.on_cycle(Cycle::ZERO);
        // IRQ never lands within the tick: everything passes.
        for s in 0..4 {
            assert!(g.try_accept(&req(s, 256), Cycle::new(s)).is_accept());
        }
        g.on_cycle(Cycle::new(1_000));
        assert_eq!(g.max_tick_bytes(), 1_024);
        assert_eq!(g.max_overshoot(), 924);
    }

    #[test]
    fn multiple_ticks_skipped_when_idle() {
        let mut g = gate(100, 64, 0);
        g.on_cycle(Cycle::ZERO);
        assert!(g.try_accept(&req(0, 64), Cycle::new(0)).is_accept());
        // Skip 5 ticks of idleness; state must be fresh.
        g.on_cycle(Cycle::new(550));
        assert!(g.try_accept(&req(1, 64), Cycle::new(550)).is_accept());
    }

    #[test]
    #[should_panic(expected = "tick length")]
    fn zero_tick_rejected() {
        let _ = gate(0, 1, 0);
    }
}
