//! The tightly-coupled bandwidth regulator.
//!
//! [`TcRegulator`] is the paper's IP: a per-port hardware block that gates
//! the AXI address handshake against a window-based byte budget. It
//! implements [`PortGate`], so it drops into the same seam of the
//! simulated SoC where the RTL sits on the real fabric.
//!
//! Two design choices of the IP are exposed for the ablation benches:
//!
//! * [`ChargePolicy`] — when a transaction's bytes are debited:
//!   at the address handshake (`Acceptance`, the paper's choice: the
//!   window can never be over-committed) or at completion (`Completion`,
//!   which lets up to `outstanding × burst` extra bytes slip through).
//! * [`OvershootPolicy`] — whether a request that does not fully fit in
//!   the remaining budget is denied (`Conservative`, hard bound
//!   `window bytes ≤ budget`) or admitted as a final burst (`FinalBurst`,
//!   bound `budget + one burst`, the classic MemGuard semantic).

use crate::driver::RegulatorDriver;
use crate::monitor::WindowMonitor;
use crate::regfile::{
    Reg, RegFile, CTRL_ENABLE, CTRL_RESET_STATS, CTRL_SPLIT_RW, STATUS_EXHAUSTED, STATUS_THROTTLED,
};
use fgqos_sim::axi::Dir;
use fgqos_sim::axi::{Request, Response};
use fgqos_sim::gate::{GateDecision, PortGate};
use fgqos_sim::time::Cycle;
use fgqos_sim::StateWalker;
use std::sync::Arc;

/// When accepted transactions are debited from the window budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChargePolicy {
    /// Debit the full burst at the address handshake (paper's IP).
    #[default]
    Acceptance,
    /// Debit at transaction completion (looser; ablation variant).
    Completion,
}

/// How a request that exceeds the remaining budget is handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OvershootPolicy {
    /// Deny unless the whole burst fits: window bytes never exceed the
    /// budget. Requires `budget ≥ max burst` to avoid starving the port.
    #[default]
    Conservative,
    /// Admit while any budget remains: at most one burst of overshoot per
    /// window (MemGuard-style accounting).
    FinalBurst,
}

/// Separate per-window byte budgets for the read and write channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitBudgets {
    /// Read-channel (AR) byte budget per window.
    pub read_bytes: u32,
    /// Write-channel (AW) byte budget per window.
    pub write_bytes: u32,
}

/// Construction-time configuration written into the register file.
#[derive(Debug, Clone, Copy)]
pub struct RegulatorConfig {
    /// Replenishment window length in cycles.
    pub period_cycles: u32,
    /// Byte budget per window.
    pub budget_bytes: u32,
    /// Whether regulation starts enabled (monitoring always runs).
    pub enabled: bool,
    /// Debit point.
    pub charge: ChargePolicy,
    /// Overshoot handling.
    pub overshoot: OvershootPolicy,
    /// When set, the read and write channels are regulated against these
    /// separate budgets (`budget_bytes` is ignored while split mode is
    /// on, but still programmed as the combined telemetry reference).
    pub split: Option<SplitBudgets>,
}

impl Default for RegulatorConfig {
    fn default() -> Self {
        RegulatorConfig {
            period_cycles: 1024,
            budget_bytes: 1024,
            enabled: false,
            charge: ChargePolicy::Acceptance,
            overshoot: OvershootPolicy::Conservative,
            split: None,
        }
    }
}

/// The tightly-coupled regulator gate. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct TcRegulator {
    regs: Arc<RegFile>,
    monitor: WindowMonitor,
    budget: u64,
    budget_rd: u64,
    budget_wr: u64,
    charge: ChargePolicy,
    overshoot: OvershootPolicy,
    stall_cycles: u64,
}

impl TcRegulator {
    /// Builds a regulator over an existing register block (the block's
    /// current `PERIOD`/`BUDGET`/`CTRL` values are used).
    pub fn new(regs: Arc<RegFile>, charge: ChargePolicy, overshoot: OvershootPolicy) -> Self {
        let budget = regs.read(Reg::Budget) as u64;
        let budget_rd = regs.read(Reg::BudgetRd) as u64;
        let budget_wr = regs.read(Reg::BudgetWr) as u64;
        let monitor = WindowMonitor::new(Arc::clone(&regs));
        TcRegulator {
            regs,
            monitor,
            budget,
            budget_rd,
            budget_wr,
            charge,
            overshoot,
            stall_cycles: 0,
        }
    }

    /// Creates a regulator plus the software [`RegulatorDriver`] sharing
    /// its register block, programmed from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.period_cycles` is zero.
    pub fn create(cfg: RegulatorConfig) -> (TcRegulator, RegulatorDriver) {
        assert!(cfg.period_cycles > 0, "regulation period must be non-zero");
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, cfg.period_cycles);
        regs.sw_write(Reg::Budget, cfg.budget_bytes);
        if let Some(split) = cfg.split {
            regs.sw_write(Reg::BudgetRd, split.read_bytes);
            regs.sw_write(Reg::BudgetWr, split.write_bytes);
            regs.set_bits(Reg::Ctrl, CTRL_SPLIT_RW);
        }
        if cfg.enabled {
            regs.set_bits(Reg::Ctrl, CTRL_ENABLE);
        }
        let driver = RegulatorDriver::new(Arc::clone(&regs));
        let regulator = TcRegulator::new(regs, cfg.charge, cfg.overshoot);
        (regulator, driver)
    }

    /// Creates a *monitor-only* instance (regulation disabled): the
    /// tightly-coupled telemetry the QoS policies use to observe a
    /// critical port without constraining it.
    pub fn monitor_only(period_cycles: u32) -> (TcRegulator, RegulatorDriver) {
        TcRegulator::create(RegulatorConfig {
            period_cycles,
            budget_bytes: u32::MAX,
            enabled: false,
            ..RegulatorConfig::default()
        })
    }

    /// The budget currently in force (latched at the last window start).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Cycles this port has spent throttled.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Bytes accepted so far in the open window.
    pub fn window_bytes(&self) -> u64 {
        self.monitor.win_bytes()
    }

    /// Starts recording every closed window into a bounded
    /// [`WindowLog`](crate::monitor::WindowLog) of `capacity` windows
    /// (budget, granted bytes, overshoot — the paper's auditable
    /// per-window telemetry).
    pub fn enable_window_log(&mut self, capacity: usize) {
        self.monitor.enable_log(capacity);
    }

    /// The per-window log, if [`TcRegulator::enable_window_log`] was
    /// called.
    pub fn window_log(&self) -> Option<&crate::monitor::WindowLog> {
        self.monitor.log()
    }

    /// Shared access to the underlying monitor (telemetry snapshots).
    pub fn monitor(&self) -> &WindowMonitor {
        &self.monitor
    }

    fn enabled(&self) -> bool {
        self.regs.read(Reg::Ctrl) & CTRL_ENABLE != 0
    }

    fn split_rw(&self) -> bool {
        self.regs.read(Reg::Ctrl) & CTRL_SPLIT_RW != 0
    }
}

impl PortGate for TcRegulator {
    fn on_cycle(&mut self, now: Cycle) {
        let ctrl = self.regs.read(Reg::Ctrl);
        if ctrl & CTRL_RESET_STATS != 0 {
            self.monitor.reset(now);
            self.stall_cycles = 0;
            self.regs.write64(Reg::StallLo, Reg::StallHi, 0);
            self.regs.clear_bits(Reg::Ctrl, CTRL_RESET_STATS);
        }
        let closed = self.monitor.on_cycle(now, self.budget);
        if closed > 0 {
            // Latch possibly updated budgets and start the new window
            // unthrottled.
            self.budget = self.regs.read(Reg::Budget) as u64;
            self.budget_rd = self.regs.read(Reg::BudgetRd) as u64;
            self.budget_wr = self.regs.read(Reg::BudgetWr) as u64;
            self.regs.clear_bits(Reg::Status, STATUS_THROTTLED);
        }
    }

    fn try_accept(&mut self, request: &Request, _now: Cycle) -> GateDecision {
        let bytes = request.bytes();
        if !self.enabled() {
            self.monitor.record_dir(bytes, request.dir);
            return GateDecision::Accept;
        }
        // In split mode each channel is accounted against its own budget
        // (the IP gates AR and AW independently); otherwise the combined
        // window bytes are checked against the combined budget.
        let (used, budget) = if self.split_rw() {
            match request.dir {
                Dir::Read => (self.monitor.win_rd_bytes(), self.budget_rd),
                Dir::Write => (self.monitor.win_wr_bytes(), self.budget_wr),
            }
        } else {
            (self.monitor.win_bytes(), self.budget)
        };
        let admit = match self.overshoot {
            OvershootPolicy::Conservative => used + bytes <= budget,
            OvershootPolicy::FinalBurst => used < budget,
        };
        if admit {
            if self.charge == ChargePolicy::Acceptance {
                self.monitor.record_dir(bytes, request.dir);
            }
            GateDecision::Accept
        } else {
            self.stall_cycles += 1;
            self.regs
                .write64(Reg::StallLo, Reg::StallHi, self.stall_cycles);
            // A denied port usually stays denied for the rest of the
            // window: skip the locked read-modify-write once both bits
            // are already set.
            let bits = STATUS_THROTTLED | STATUS_EXHAUSTED;
            if self.regs.read(Reg::Status) & bits != bits {
                self.regs.set_bits(Reg::Status, bits);
            }
            GateDecision::Deny
        }
    }

    fn on_complete(&mut self, response: &Response, _now: Cycle) {
        if self.enabled() && self.charge == ChargePolicy::Completion {
            self.monitor
                .record_dir(response.request.bytes(), response.request.dir);
        }
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        // Decision and telemetry change only at window boundaries (or at
        // accept/complete/register-write events, which all happen on
        // executed cycles anyway).
        Some((self.monitor.window_start() + self.monitor.period()).max(now))
    }

    fn on_denied_skip(&mut self, cycles: u64) {
        self.stall_cycles += cycles;
        self.regs
            .write64(Reg::StallLo, Reg::StallHi, self.stall_cycles);
    }

    fn completion_can_admit(&self) -> bool {
        // Completion charging only adds window bytes: a denied port stays
        // denied until its window rolls.
        false
    }

    fn label(&self) -> &'static str {
        "tc-regulator"
    }

    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        // Admission depends only on register/monitor state, never on
        // absolute time, so the walk declares nothing for the leap engine
        // (a window log declares no leaping through the monitor).
        w.section("tc-regulator");
        // Loading through the shared handle also restores the driver's
        // view; a fork remaps gate, monitor and driver to one block, so
        // they stay MMIO-coupled in the forked Soc.
        w.shared(&mut self.regs);
        self.regs.visit_state(w);
        self.monitor.visit_state(w);
        w.plain(&mut self.budget);
        w.plain(&mut self.budget_rd);
        w.plain(&mut self.budget_wr);
        w.flag(
            &mut self.charge,
            ChargePolicy::Completion,
            ChargePolicy::Acceptance,
        );
        w.flag(
            &mut self.overshoot,
            OvershootPolicy::FinalBurst,
            OvershootPolicy::Conservative,
        );
        w.counter(&mut self.stall_cycles);
    }

    fn collect_metrics(&self, prefix: &str, registry: &mut fgqos_sim::metrics::MetricsRegistry) {
        registry.gauge(format!("{prefix}.budget_bytes"), self.budget as f64);
        registry.gauge(
            format!("{prefix}.period_cycles"),
            self.monitor.period() as f64,
        );
        registry.counter(format!("{prefix}.enabled"), u64::from(self.enabled()));
        registry.counter(format!("{prefix}.stall_cycles"), self.stall_cycles);
        registry.counter(format!("{prefix}.windows"), self.monitor.windows());
        registry.counter(format!("{prefix}.total_bytes"), self.monitor.total_bytes());
        registry.counter(format!("{prefix}.window_bytes"), self.monitor.win_bytes());
        registry.counter(
            format!("{prefix}.max_overshoot"),
            self.regs.read(Reg::MaxOvershoot) as u64,
        );
        if let Some(log) = self.monitor.log() {
            registry.counter(
                format!("{prefix}.window_log_len"),
                log.records().len() as u64,
            );
            registry.counter(format!("{prefix}.window_log_dropped"), log.dropped());
        }
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

    fn regulator(period: u32, budget: u32) -> (TcRegulator, RegulatorDriver) {
        TcRegulator::create(RegulatorConfig {
            period_cycles: period,
            budget_bytes: budget,
            enabled: true,
            ..RegulatorConfig::default()
        })
    }

    #[test]
    fn admits_until_budget_then_denies() {
        let (mut r, _d) = regulator(1_000, 256);
        r.on_cycle(Cycle::ZERO);
        assert!(r.try_accept(&req(0, 128), Cycle::new(1)).is_accept());
        assert!(r.try_accept(&req(1, 128), Cycle::new(2)).is_accept());
        assert_eq!(
            r.try_accept(&req(2, 128), Cycle::new(3)),
            GateDecision::Deny
        );
        assert_eq!(r.window_bytes(), 256);
        assert!(r.stall_cycles() == 1);
    }

    #[test]
    fn budget_replenishes_at_window_boundary() {
        let (mut r, _d) = regulator(100, 128);
        r.on_cycle(Cycle::ZERO);
        assert!(r.try_accept(&req(0, 128), Cycle::new(0)).is_accept());
        assert_eq!(
            r.try_accept(&req(1, 128), Cycle::new(1)),
            GateDecision::Deny
        );
        r.on_cycle(Cycle::new(100));
        assert!(r.try_accept(&req(1, 128), Cycle::new(100)).is_accept());
    }

    #[test]
    fn conservative_never_exceeds_budget() {
        let (mut r, _d) = regulator(1_000, 200);
        r.on_cycle(Cycle::ZERO);
        assert!(r.try_accept(&req(0, 128), Cycle::ZERO).is_accept());
        // 128 + 128 > 200: denied even though some budget remains.
        assert_eq!(r.try_accept(&req(1, 128), Cycle::ZERO), GateDecision::Deny);
        assert!(r.window_bytes() <= 200);
    }

    #[test]
    fn final_burst_allows_one_overshoot() {
        let (mut r, d) = TcRegulator::create(RegulatorConfig {
            period_cycles: 1_000,
            budget_bytes: 200,
            enabled: true,
            overshoot: OvershootPolicy::FinalBurst,
            ..RegulatorConfig::default()
        });
        r.on_cycle(Cycle::ZERO);
        assert!(r.try_accept(&req(0, 128), Cycle::ZERO).is_accept());
        // 128 < 200: admitted, window ends at 256 > budget.
        assert!(r.try_accept(&req(1, 128), Cycle::ZERO).is_accept());
        assert_eq!(r.window_bytes(), 256);
        // Now win_bytes ≥ budget: denied.
        assert_eq!(r.try_accept(&req(2, 16), Cycle::ZERO), GateDecision::Deny);
        // Overshoot is visible in telemetry after the window closes.
        r.on_cycle(Cycle::new(1_000));
        assert_eq!(d.telemetry().max_overshoot, 56);
    }

    #[test]
    fn disabled_regulator_monitors_but_admits_all() {
        let (mut r, d) = TcRegulator::create(RegulatorConfig {
            period_cycles: 100,
            budget_bytes: 16,
            enabled: false,
            ..RegulatorConfig::default()
        });
        r.on_cycle(Cycle::ZERO);
        for s in 0..10 {
            assert!(r.try_accept(&req(s, 256), Cycle::ZERO).is_accept());
        }
        assert_eq!(d.telemetry().window_bytes, 2560);
        assert_eq!(r.stall_cycles(), 0);
    }

    #[test]
    fn status_bits_reflect_throttling() {
        let (mut r, d) = regulator(100, 16);
        r.on_cycle(Cycle::ZERO);
        assert!(r.try_accept(&req(0, 16), Cycle::ZERO).is_accept());
        let _ = r.try_accept(&req(1, 16), Cycle::ZERO);
        let t = d.telemetry();
        assert!(t.throttled);
        assert!(t.exhausted);
        // THROTTLED clears at the next window; EXHAUSTED is sticky.
        r.on_cycle(Cycle::new(100));
        let t = d.telemetry();
        assert!(!t.throttled);
        assert!(t.exhausted);
        d.clear_exhausted();
        assert!(!d.telemetry().exhausted);
    }

    #[test]
    fn budget_reconfiguration_latches_next_window() {
        let (mut r, d) = regulator(100, 64);
        r.on_cycle(Cycle::ZERO);
        d.set_budget_bytes(1024);
        // Old budget still in force mid-window.
        assert!(r.try_accept(&req(0, 64), Cycle::new(1)).is_accept());
        assert_eq!(r.try_accept(&req(1, 64), Cycle::new(2)), GateDecision::Deny);
        r.on_cycle(Cycle::new(100));
        assert_eq!(r.budget(), 1024);
        assert!(r.try_accept(&req(1, 64), Cycle::new(100)).is_accept());
    }

    #[test]
    fn completion_charging_debits_late() {
        let (mut r, _d) = TcRegulator::create(RegulatorConfig {
            period_cycles: 1_000,
            budget_bytes: 128,
            enabled: true,
            charge: ChargePolicy::Completion,
            ..RegulatorConfig::default()
        });
        r.on_cycle(Cycle::ZERO);
        // Nothing is debited at acceptance, so several over-budget bursts
        // can be admitted before completions land.
        let a = req(0, 128);
        let b = req(1, 128);
        assert!(r.try_accept(&a, Cycle::ZERO).is_accept());
        assert!(r.try_accept(&b, Cycle::ZERO).is_accept());
        assert_eq!(r.window_bytes(), 0);
        r.on_complete(
            &Response {
                request: a,
                completed_at: Cycle::new(50),
            },
            Cycle::new(50),
        );
        assert_eq!(r.window_bytes(), 128);
        // Budget is now fully consumed by completed bytes.
        assert_eq!(
            r.try_accept(&req(2, 16), Cycle::new(51)),
            GateDecision::Deny
        );
    }

    #[test]
    fn reset_stats_ctrl_bit_self_clears() {
        let (mut r, d) = regulator(100, 64);
        r.on_cycle(Cycle::ZERO);
        let _ = r.try_accept(&req(0, 64), Cycle::ZERO);
        let _ = r.try_accept(&req(1, 64), Cycle::ZERO); // denied -> stall
        d.reset_stats();
        r.on_cycle(Cycle::new(1));
        let t = d.telemetry();
        assert_eq!(t.total_bytes, 0);
        assert_eq!(t.stall_cycles, 0);
        assert_eq!(d.regfile().read(Reg::Ctrl) & CTRL_RESET_STATS, 0);
    }

    #[test]
    fn monitor_only_constructor() {
        let (mut r, d) = TcRegulator::monitor_only(500);
        r.on_cycle(Cycle::ZERO);
        for s in 0..100 {
            assert!(r.try_accept(&req(s, 4096), Cycle::ZERO).is_accept());
        }
        assert_eq!(d.telemetry().total_bytes, 409_600);
    }

    fn req_dir(serial: u64, bytes: u64, dir: Dir) -> Request {
        let beats = (bytes / fgqos_sim::axi::BEAT_BYTES) as u16;
        Request::new(
            MasterId::new(0),
            serial,
            serial * 4096,
            beats,
            dir,
            Cycle::ZERO,
        )
    }

    #[test]
    fn split_mode_regulates_channels_independently() {
        let (mut r, _d) = TcRegulator::create(RegulatorConfig {
            period_cycles: 1_000,
            budget_bytes: 1_024,
            enabled: true,
            split: Some(SplitBudgets {
                read_bytes: 256,
                write_bytes: 128,
            }),
            ..RegulatorConfig::default()
        });
        r.on_cycle(Cycle::ZERO);
        // Reads consume the read budget only.
        assert!(r
            .try_accept(&req_dir(0, 256, Dir::Read), Cycle::ZERO)
            .is_accept());
        assert_eq!(
            r.try_accept(&req_dir(1, 16, Dir::Read), Cycle::ZERO),
            GateDecision::Deny
        );
        // The write channel is untouched by read traffic.
        assert!(r
            .try_accept(&req_dir(2, 128, Dir::Write), Cycle::ZERO)
            .is_accept());
        assert_eq!(
            r.try_accept(&req_dir(3, 16, Dir::Write), Cycle::ZERO),
            GateDecision::Deny
        );
        // Both replenish at the boundary.
        r.on_cycle(Cycle::new(1_000));
        assert!(r
            .try_accept(&req_dir(4, 256, Dir::Read), Cycle::new(1_000))
            .is_accept());
        assert!(r
            .try_accept(&req_dir(5, 128, Dir::Write), Cycle::new(1_000))
            .is_accept());
    }

    #[test]
    fn split_mode_telemetry_tracks_directions() {
        let (mut r, d) = TcRegulator::create(RegulatorConfig {
            period_cycles: 1_000,
            budget_bytes: 4_096,
            enabled: true,
            split: Some(SplitBudgets {
                read_bytes: 2_048,
                write_bytes: 2_048,
            }),
            ..RegulatorConfig::default()
        });
        r.on_cycle(Cycle::ZERO);
        assert!(r
            .try_accept(&req_dir(0, 512, Dir::Read), Cycle::ZERO)
            .is_accept());
        assert!(r
            .try_accept(&req_dir(1, 256, Dir::Write), Cycle::ZERO)
            .is_accept());
        let t = d.telemetry();
        assert_eq!(t.window_read_bytes, 512);
        assert_eq!(t.window_write_bytes, 256);
        assert_eq!(t.window_bytes, 768);
    }

    #[test]
    fn split_budget_reconfig_latches_next_window() {
        let (mut r, d) = TcRegulator::create(RegulatorConfig {
            period_cycles: 100,
            budget_bytes: 1_024,
            enabled: true,
            split: Some(SplitBudgets {
                read_bytes: 128,
                write_bytes: 128,
            }),
            ..RegulatorConfig::default()
        });
        r.on_cycle(Cycle::ZERO);
        d.set_read_budget_bytes(512);
        assert!(r
            .try_accept(&req_dir(0, 128, Dir::Read), Cycle::ZERO)
            .is_accept());
        assert_eq!(
            r.try_accept(&req_dir(1, 128, Dir::Read), Cycle::ZERO),
            GateDecision::Deny
        );
        r.on_cycle(Cycle::new(100));
        assert!(r
            .try_accept(&req_dir(1, 512, Dir::Read), Cycle::new(100))
            .is_accept());
    }

    #[test]
    fn window_log_and_metrics_exposed() {
        use fgqos_sim::metrics::{MetricValue, MetricsRegistry};
        let (mut r, _d) = regulator(100, 128);
        r.enable_window_log(4);
        r.on_cycle(Cycle::ZERO);
        assert!(r.try_accept(&req(0, 128), Cycle::ZERO).is_accept());
        let _ = r.try_accept(&req(1, 128), Cycle::new(1)); // denied
        r.on_cycle(Cycle::new(100));
        let log = r.window_log().unwrap();
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.records()[0].bytes, 128);
        assert_eq!(log.records()[0].budget, 128);

        let mut reg = MetricsRegistry::new();
        r.collect_metrics("p", &mut reg);
        assert_eq!(reg.get("p.stall_cycles"), Some(&MetricValue::Counter(1)));
        assert_eq!(reg.get("p.windows"), Some(&MetricValue::Counter(1)));
        assert_eq!(reg.get("p.enabled"), Some(&MetricValue::Counter(1)));
        assert_eq!(reg.get("p.budget_bytes"), Some(&MetricValue::Gauge(128.0)));
        assert_eq!(reg.get("p.window_log_len"), Some(&MetricValue::Counter(1)));
    }

    #[test]
    #[should_panic(expected = "period must be non-zero")]
    fn zero_period_rejected() {
        let _ = TcRegulator::create(RegulatorConfig {
            period_cycles: 0,
            ..RegulatorConfig::default()
        });
    }
}
