//! ARM QoS-400-style outstanding-transaction regulation.
//!
//! Commercial interconnects (ARM CoreLink QoS-400, and the AXI QoS
//! controls baked into Zynq-class PS interconnects) regulate a master by
//! capping its *outstanding transactions* and optionally its *transaction
//! rate*, not its bytes. This is the COTS alternative the paper's IP is
//! measured against, and its weakness is structural: a transaction is
//! not a byte. With variable burst sizes, an OT/rate cap either
//! over-throttles small-burst masters or under-throttles large-burst
//! ones — per-byte window accounting is what fixes this.
//!
//! [`OtRegulatorGate`] caps in-flight transactions at the port and
//! optionally enforces a transactions-per-window rate.

use fgqos_sim::axi::{Request, Response};
use fgqos_sim::gate::{GateDecision, PortGate};
use fgqos_sim::time::Cycle;
use fgqos_sim::StateWalker;

/// Configuration of an [`OtRegulatorGate`].
#[derive(Debug, Clone, Copy)]
pub struct OtRegulatorConfig {
    /// Maximum in-flight transactions the gate admits (the QoS-400
    /// "outstanding transaction" cap).
    pub max_outstanding: usize,
    /// Optional rate cap: at most `txns_per_period` admissions per
    /// `period_cycles` window (0 disables the rate stage).
    pub txns_per_period: u32,
    /// Rate window in cycles (ignored when the rate stage is disabled).
    pub period_cycles: u64,
}

impl Default for OtRegulatorConfig {
    fn default() -> Self {
        OtRegulatorConfig {
            max_outstanding: 4,
            txns_per_period: 0,
            period_cycles: 1_000,
        }
    }
}

/// Outstanding-transaction (plus optional transaction-rate) regulator.
///
/// ```
/// use fgqos_baselines::qos400::{OtRegulatorConfig, OtRegulatorGate};
/// use fgqos_sim::axi::{Dir, MasterId, Request};
/// use fgqos_sim::gate::PortGate;
/// use fgqos_sim::time::Cycle;
///
/// let mut gate = OtRegulatorGate::new(OtRegulatorConfig {
///     max_outstanding: 1,
///     ..OtRegulatorConfig::default()
/// });
/// let r = Request::new(MasterId::new(0), 0, 0, 4, Dir::Read, Cycle::ZERO);
/// assert!(gate.try_accept(&r, Cycle::ZERO).is_accept());
/// // One transaction in flight: the cap denies the next.
/// assert!(!gate.try_accept(&r, Cycle::new(1)).is_accept());
/// ```
#[derive(Debug, Clone)]
pub struct OtRegulatorGate {
    cfg: OtRegulatorConfig,
    in_flight: usize,
    window_start: Cycle,
    window_txns: u32,
    stall_cycles: u64,
    accepted: u64,
}

impl OtRegulatorGate {
    /// Creates a gate from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the outstanding cap is zero, or the rate stage is
    /// enabled with a zero-length window.
    pub fn new(cfg: OtRegulatorConfig) -> Self {
        assert!(cfg.max_outstanding > 0, "outstanding cap must be non-zero");
        assert!(
            cfg.txns_per_period == 0 || cfg.period_cycles > 0,
            "rate stage needs a non-zero window"
        );
        OtRegulatorGate {
            cfg,
            in_flight: 0,
            window_start: Cycle::ZERO,
            window_txns: 0,
            stall_cycles: 0,
            accepted: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &OtRegulatorConfig {
        &self.cfg
    }

    /// Transactions currently in flight through this gate.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Cycles spent denying the handshake.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Transactions admitted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }
}

impl PortGate for OtRegulatorGate {
    fn on_cycle(&mut self, now: Cycle) {
        if self.cfg.txns_per_period == 0 {
            return;
        }
        while now.saturating_since(self.window_start) >= self.cfg.period_cycles {
            self.window_start += self.cfg.period_cycles;
            self.window_txns = 0;
        }
    }

    fn try_accept(&mut self, _request: &Request, _now: Cycle) -> GateDecision {
        if self.in_flight >= self.cfg.max_outstanding {
            self.stall_cycles += 1;
            return GateDecision::Deny;
        }
        if self.cfg.txns_per_period > 0 && self.window_txns >= self.cfg.txns_per_period {
            self.stall_cycles += 1;
            return GateDecision::Deny;
        }
        self.in_flight += 1;
        self.window_txns += 1;
        self.accepted += 1;
        GateDecision::Accept
    }

    fn on_complete(&mut self, _response: &Response, _now: Cycle) {
        debug_assert!(
            self.in_flight > 0,
            "completion without in-flight transaction"
        );
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        // In-flight-cap denials flip on completions, which execute a
        // full SoC step and mark the master's gate state dirty — no
        // time-based wake is needed for them. The rate stage flips at
        // its window boundary.
        if self.cfg.txns_per_period == 0 {
            None
        } else {
            Some((self.window_start + self.cfg.period_cycles).max(now))
        }
    }

    fn on_denied_skip(&mut self, cycles: u64) {
        self.stall_cycles += cycles;
    }

    fn label(&self) -> &'static str {
        "qos400-ot"
    }

    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("qos400-ot");
        w.no_leap();
        w.fixed(self.cfg.max_outstanding, "qos400 outstanding cap");
        w.fixed(self.cfg.txns_per_period, "qos400 txns per period");
        w.fixed(self.cfg.period_cycles, "qos400 period");
        w.plain(&mut self.in_flight);
        w.plain(&mut self.window_start);
        w.plain(&mut self.window_txns);
        w.plain(&mut self.stall_cycles);
        w.plain(&mut self.accepted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_sim::axi::{Dir, MasterId};

    fn req(serial: u64, beats: u16) -> Request {
        Request::new(
            MasterId::new(0),
            serial,
            serial * 4096,
            beats,
            Dir::Read,
            Cycle::ZERO,
        )
    }

    fn resp(r: Request) -> Response {
        Response {
            request: r,
            completed_at: Cycle::new(100),
        }
    }

    #[test]
    fn caps_outstanding_transactions() {
        let mut g = OtRegulatorGate::new(OtRegulatorConfig {
            max_outstanding: 2,
            ..OtRegulatorConfig::default()
        });
        let a = req(0, 4);
        let b = req(1, 4);
        assert!(g.try_accept(&a, Cycle::ZERO).is_accept());
        assert!(g.try_accept(&b, Cycle::ZERO).is_accept());
        assert_eq!(g.try_accept(&req(2, 4), Cycle::ZERO), GateDecision::Deny);
        assert_eq!(g.in_flight(), 2);
        g.on_complete(&resp(a), Cycle::new(100));
        assert!(g.try_accept(&req(2, 4), Cycle::new(100)).is_accept());
        assert_eq!(g.stall_cycles(), 1);
    }

    #[test]
    fn rate_stage_limits_txns_per_window() {
        let mut g = OtRegulatorGate::new(OtRegulatorConfig {
            max_outstanding: 100,
            txns_per_period: 2,
            period_cycles: 1_000,
        });
        g.on_cycle(Cycle::ZERO);
        let a = req(0, 1);
        let b = req(1, 1);
        assert!(g.try_accept(&a, Cycle::ZERO).is_accept());
        g.on_complete(&resp(a), Cycle::new(10));
        assert!(g.try_accept(&b, Cycle::new(10)).is_accept());
        g.on_complete(&resp(b), Cycle::new(20));
        assert_eq!(g.try_accept(&req(2, 1), Cycle::new(20)), GateDecision::Deny);
        // Replenishes at the window boundary.
        g.on_cycle(Cycle::new(1_000));
        assert!(g.try_accept(&req(2, 1), Cycle::new(1_000)).is_accept());
    }

    #[test]
    fn transaction_rate_ignores_burst_size() {
        // The structural weakness: 2 txns/window admits 32 bytes of
        // single-beat traffic or 8192 bytes of max-burst traffic — a
        // 256x spread the byte-based regulator does not have.
        let mut small = OtRegulatorGate::new(OtRegulatorConfig {
            max_outstanding: 100,
            txns_per_period: 2,
            period_cycles: 1_000,
        });
        let mut big = OtRegulatorGate::new(OtRegulatorConfig {
            max_outstanding: 100,
            txns_per_period: 2,
            period_cycles: 1_000,
        });
        let mut small_bytes = 0;
        let mut big_bytes = 0;
        for s in 0..3u64 {
            let rs = req(s, 1);
            if small.try_accept(&rs, Cycle::ZERO).is_accept() {
                small_bytes += rs.bytes();
                small.on_complete(&resp(rs), Cycle::ZERO);
            }
            let rb = req(s, 256);
            if big.try_accept(&rb, Cycle::ZERO).is_accept() {
                big_bytes += rb.bytes();
                big.on_complete(&resp(rb), Cycle::ZERO);
            }
        }
        assert_eq!(small_bytes, 32);
        assert_eq!(big_bytes, 8_192);
    }

    #[test]
    fn disabled_rate_stage_only_caps_outstanding() {
        let mut g = OtRegulatorGate::new(OtRegulatorConfig {
            max_outstanding: 1,
            txns_per_period: 0,
            period_cycles: 0, // allowed when the rate stage is off
        });
        let a = req(0, 1);
        assert!(g.try_accept(&a, Cycle::ZERO).is_accept());
        g.on_complete(&resp(a), Cycle::new(5));
        // Arbitrarily many txns per window as long as they serialize.
        for s in 1..50u64 {
            let r = req(s, 1);
            assert!(g.try_accept(&r, Cycle::new(s)).is_accept());
            g.on_complete(&resp(r), Cycle::new(s));
        }
        assert_eq!(g.accepted(), 50);
    }

    #[test]
    #[should_panic(expected = "outstanding cap")]
    fn zero_cap_rejected() {
        let _ = OtRegulatorGate::new(OtRegulatorConfig {
            max_outstanding: 0,
            ..OtRegulatorConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "non-zero window")]
    fn rate_stage_needs_window() {
        let _ = OtRegulatorGate::new(OtRegulatorConfig {
            max_outstanding: 1,
            txns_per_period: 5,
            period_cycles: 0,
        });
    }
}
