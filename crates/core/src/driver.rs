//! Software driver over the regulator register file.
//!
//! [`RegulatorDriver`] is the model of the paper's Linux kernel driver /
//! userspace tooling: everything it does goes through the same 32-bit
//! register interface the hardware exposes ([`RegFile`]), so the software
//! side never sees state the real driver could not.

use crate::regfile::{
    Reg, RegFile, CTRL_ENABLE, CTRL_RESET_STATS, CTRL_SPLIT_RW, STATUS_EXHAUSTED, STATUS_THROTTLED,
};
use fgqos_sim::time::{Bandwidth, Freq};
use fgqos_sim::{ForkCtx, StateWalker};
use std::sync::Arc;

/// Snapshot of a port's telemetry, decoded from the register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegulatorTelemetry {
    /// Bytes accepted in the open window.
    pub window_bytes: u64,
    /// Transactions accepted in the open window.
    pub window_txns: u64,
    /// Lifetime accepted bytes since the last stats reset.
    pub total_bytes: u64,
    /// Lifetime accepted transactions since the last stats reset.
    pub total_txns: u64,
    /// Cycles spent throttled (handshake denied).
    pub stall_cycles: u64,
    /// Completed windows.
    pub windows: u64,
    /// Bytes of the last completed window.
    pub last_window_bytes: u64,
    /// Maximum bytes-over-budget seen in any completed window.
    pub max_overshoot: u64,
    /// Read bytes accepted in the open window.
    pub window_read_bytes: u64,
    /// Write bytes accepted in the open window.
    pub window_write_bytes: u64,
    /// Port currently throttled.
    pub throttled: bool,
    /// Budget ran out at least once since last acknowledged (sticky).
    pub exhausted: bool,
}

/// Typed, cloneable handle to one regulator's register block.
///
/// ```
/// use fgqos_core::prelude::*;
/// use fgqos_sim::time::{Bandwidth, Freq};
///
/// let (_regulator, driver) = TcRegulator::create(RegulatorConfig::default());
/// driver.set_period_cycles(2_000);
/// driver.set_bandwidth(Bandwidth::from_mib_per_s(512.0), Freq::ghz(1));
/// driver.set_enabled(true);
/// assert!(driver.enabled());
/// assert_eq!(driver.period_cycles(), 2_000);
/// ```
#[derive(Debug, Clone)]
pub struct RegulatorDriver {
    regs: Arc<RegFile>,
}

impl RegulatorDriver {
    /// Wraps a shared register block.
    pub fn new(regs: Arc<RegFile>) -> Self {
        RegulatorDriver { regs }
    }

    /// The underlying register block (raw access for tests/debug).
    pub fn regfile(&self) -> &Arc<RegFile> {
        &self.regs
    }

    /// Rebinds this driver to the register block `ctx` maps its block to
    /// — the software-side counterpart of a snapshot fork. Pass the same
    /// `ctx` used to fork the Soc (in any order) and the returned driver
    /// talks to the forked gate's MMIO, not the original's.
    pub fn forked(&self, ctx: &mut ForkCtx) -> RegulatorDriver {
        RegulatorDriver {
            regs: ctx.fork_arc(&self.regs),
        }
    }

    /// Declares this driver's register-block handle to a state walk
    /// ([`StateWalker::shared`]): a fork rebinds it to the forked block,
    /// exactly as [`RegulatorDriver::forked`] does. It adds no bytes —
    /// the gate owning the block walks its contents.
    pub fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.shared(&mut self.regs);
    }

    /// Enables or disables regulation (monitoring always runs).
    pub fn set_enabled(&self, enabled: bool) {
        if enabled {
            self.regs.set_bits(Reg::Ctrl, CTRL_ENABLE);
        } else {
            self.regs.clear_bits(Reg::Ctrl, CTRL_ENABLE);
        }
    }

    /// Whether regulation is enabled.
    pub fn enabled(&self) -> bool {
        self.regs.read(Reg::Ctrl) & CTRL_ENABLE != 0
    }

    /// Programs the replenishment window length (takes effect at the next
    /// window boundary).
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn set_period_cycles(&self, cycles: u32) {
        assert!(cycles > 0, "regulation period must be non-zero");
        self.regs.sw_write(Reg::Period, cycles);
    }

    /// The programmed window length.
    pub fn period_cycles(&self) -> u32 {
        self.regs.read(Reg::Period)
    }

    /// Programs the per-window byte budget (takes effect at the next
    /// window boundary).
    pub fn set_budget_bytes(&self, bytes: u32) {
        self.regs.sw_write(Reg::Budget, bytes);
    }

    /// The programmed per-window byte budget.
    pub fn budget_bytes(&self) -> u32 {
        self.regs.read(Reg::Budget)
    }

    /// Programs the budget to sustain `bandwidth` given the *currently
    /// programmed* period and the SoC clock — the exact arithmetic the
    /// real driver performs (budget is clamped to the 32-bit register).
    pub fn set_bandwidth(&self, bandwidth: Bandwidth, freq: Freq) {
        let budget = bandwidth.to_window_budget(self.period_cycles() as u64, freq);
        self.set_budget_bytes(budget.min(u32::MAX as u64) as u32);
    }

    /// The bandwidth the programmed period/budget pair sustains.
    pub fn configured_bandwidth(&self, freq: Freq) -> Bandwidth {
        Bandwidth::from_bytes_over(
            self.budget_bytes() as u64,
            self.period_cycles() as u64,
            freq,
        )
    }

    /// Enables or disables split read/write regulation.
    pub fn set_split_enabled(&self, enabled: bool) {
        if enabled {
            self.regs.set_bits(Reg::Ctrl, CTRL_SPLIT_RW);
        } else {
            self.regs.clear_bits(Reg::Ctrl, CTRL_SPLIT_RW);
        }
    }

    /// Whether split read/write regulation is enabled.
    pub fn split_enabled(&self) -> bool {
        self.regs.read(Reg::Ctrl) & CTRL_SPLIT_RW != 0
    }

    /// Programs the read-channel per-window byte budget (split mode).
    pub fn set_read_budget_bytes(&self, bytes: u32) {
        self.regs.sw_write(Reg::BudgetRd, bytes);
    }

    /// Programs the write-channel per-window byte budget (split mode).
    pub fn set_write_budget_bytes(&self, bytes: u32) {
        self.regs.sw_write(Reg::BudgetWr, bytes);
    }

    /// The programmed read-channel budget.
    pub fn read_budget_bytes(&self) -> u32 {
        self.regs.read(Reg::BudgetRd)
    }

    /// The programmed write-channel budget.
    pub fn write_budget_bytes(&self) -> u32 {
        self.regs.read(Reg::BudgetWr)
    }

    /// Requests a telemetry counter reset (hardware performs it on its
    /// next cycle and self-clears the bit).
    pub fn reset_stats(&self) {
        self.regs.set_bits(Reg::Ctrl, CTRL_RESET_STATS);
    }

    /// Acknowledges (clears) the sticky `EXHAUSTED` status bit.
    pub fn clear_exhausted(&self) {
        self.regs.sw_write(Reg::Status, STATUS_EXHAUSTED);
    }

    /// Reads a full telemetry snapshot.
    pub fn telemetry(&self) -> RegulatorTelemetry {
        let status = self.regs.read(Reg::Status);
        RegulatorTelemetry {
            window_bytes: self.regs.read(Reg::WinBytes) as u64,
            window_txns: self.regs.read(Reg::WinTxns) as u64,
            total_bytes: self.regs.read64(Reg::TotalBytesLo, Reg::TotalBytesHi),
            total_txns: self.regs.read64(Reg::TotalTxnsLo, Reg::TotalTxnsHi),
            stall_cycles: self.regs.read64(Reg::StallLo, Reg::StallHi),
            windows: self.regs.read(Reg::Windows) as u64,
            last_window_bytes: self.regs.read(Reg::LastWinBytes) as u64,
            max_overshoot: self.regs.read(Reg::MaxOvershoot) as u64,
            window_read_bytes: self.regs.read(Reg::WinRdBytes) as u64,
            window_write_bytes: self.regs.read(Reg::WinWrBytes) as u64,
            throttled: status & STATUS_THROTTLED != 0,
            exhausted: status & STATUS_EXHAUSTED != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver() -> RegulatorDriver {
        RegulatorDriver::new(RegFile::shared())
    }

    #[test]
    fn enable_roundtrip() {
        let d = driver();
        assert!(!d.enabled());
        d.set_enabled(true);
        assert!(d.enabled());
        d.set_enabled(false);
        assert!(!d.enabled());
    }

    #[test]
    fn period_and_budget_roundtrip() {
        let d = driver();
        d.set_period_cycles(5_000);
        d.set_budget_bytes(64_000);
        assert_eq!(d.period_cycles(), 5_000);
        assert_eq!(d.budget_bytes(), 64_000);
    }

    #[test]
    #[should_panic(expected = "period must be non-zero")]
    fn zero_period_rejected() {
        driver().set_period_cycles(0);
    }

    #[test]
    fn bandwidth_to_budget_arithmetic() {
        let d = driver();
        let freq = Freq::ghz(1);
        d.set_period_cycles(1_000); // 1 us window
        d.set_bandwidth(Bandwidth::from_bytes_per_s(2e9), freq);
        assert_eq!(d.budget_bytes(), 2_000);
        let back = d.configured_bandwidth(freq);
        assert!((back.bytes_per_s() - 2e9).abs() < 1.0);
    }

    #[test]
    fn bandwidth_budget_clamps_to_register_width() {
        let d = driver();
        d.set_period_cycles(u32::MAX);
        d.set_bandwidth(Bandwidth::from_bytes_per_s(1e18), Freq::ghz(1));
        assert_eq!(d.budget_bytes(), u32::MAX);
    }

    #[test]
    fn split_controls_roundtrip() {
        let d = driver();
        assert!(!d.split_enabled());
        d.set_split_enabled(true);
        assert!(d.split_enabled());
        d.set_read_budget_bytes(1_000);
        d.set_write_budget_bytes(2_000);
        assert_eq!(d.read_budget_bytes(), 1_000);
        assert_eq!(d.write_budget_bytes(), 2_000);
        d.set_split_enabled(false);
        assert!(!d.split_enabled());
    }

    #[test]
    fn telemetry_decodes_registers() {
        let d = driver();
        let rf = d.regfile();
        rf.write(Reg::WinBytes, 100);
        rf.write64(Reg::TotalBytesLo, Reg::TotalBytesHi, 1 << 40);
        rf.set_bits(Reg::Status, STATUS_THROTTLED);
        let t = d.telemetry();
        assert_eq!(t.window_bytes, 100);
        assert_eq!(t.total_bytes, 1 << 40);
        assert!(t.throttled);
        assert!(!t.exhausted);
    }
}
