//! Memory-mapped register interface of the regulator IP.
//!
//! The real IP exposes a 32-bit AXI-Lite register block per regulated
//! port; the Linux driver configures budgets and reads telemetry through
//! it. This module models that block bit-accurately: registers are 32-bit
//! words, wide counters are split into LO/HI pairs, sticky status bits are
//! write-1-to-clear, and configuration written by software is *latched by
//! the hardware at the next window boundary* (so a reconfiguration never
//! corrupts the accounting of the window in flight).
//!
//! [`RegFile`] is shared between the hardware side (the
//! [`TcRegulator`](crate::regulator::TcRegulator) gate inside the
//! simulated SoC) and the software side (the
//! [`RegulatorDriver`](crate::driver::RegulatorDriver) held by test
//! harnesses and QoS policies), exactly as MMIO is shared between fabric
//! and host on the real chip.

use fgqos_sim::{SharedFork, StateWalker};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Register offsets of the regulator block (one word each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Reg {
    /// Control: bit 0 `ENABLE`, bit 1 `RESET_STATS` (self-clearing).
    Ctrl = 0,
    /// Replenishment window length in cycles (takes effect next window).
    Period = 1,
    /// Byte budget per window (takes effect next window).
    Budget = 2,
    /// Status: bit 0 `THROTTLED` (live), bit 1 `EXHAUSTED` (sticky, W1C).
    Status = 3,
    /// Bytes accepted in the current (open) window.
    WinBytes = 4,
    /// Transactions accepted in the current (open) window.
    WinTxns = 5,
    /// Total accepted bytes, low word.
    TotalBytesLo = 6,
    /// Total accepted bytes, high word.
    TotalBytesHi = 7,
    /// Total accepted transactions, low word.
    TotalTxnsLo = 8,
    /// Total accepted transactions, high word.
    TotalTxnsHi = 9,
    /// Cycles spent throttling (denied handshake), low word.
    StallLo = 10,
    /// Cycles spent throttling, high word.
    StallHi = 11,
    /// Completed windows since last stats reset.
    Windows = 12,
    /// Bytes of the most recently completed window.
    LastWinBytes = 13,
    /// Maximum bytes-over-budget observed in any completed window.
    MaxOvershoot = 14,
    /// Read-channel byte budget per window (split mode).
    BudgetRd = 15,
    /// Write-channel byte budget per window (split mode).
    BudgetWr = 16,
    /// Read bytes accepted in the current window.
    WinRdBytes = 17,
    /// Write bytes accepted in the current window.
    WinWrBytes = 18,
}

/// Number of 32-bit registers in the block.
pub const REG_COUNT: usize = 19;

/// `CTRL` bit: regulation enable (monitoring runs regardless).
pub const CTRL_ENABLE: u32 = 1 << 0;
/// `CTRL` bit: clear all telemetry counters (hardware self-clears it).
pub const CTRL_RESET_STATS: u32 = 1 << 1;
/// `CTRL` bit: regulate the read and write channels against separate
/// budgets (`BUDGET_RD`/`BUDGET_WR`) instead of the combined `BUDGET`.
pub const CTRL_SPLIT_RW: u32 = 1 << 2;
/// `CTRL` bit: assert the interrupt line while `EXHAUSTED` is set.
pub const CTRL_IRQ_ENABLE: u32 = 1 << 3;
/// `STATUS` bit: the port is currently being throttled.
pub const STATUS_THROTTLED: u32 = 1 << 0;
/// `STATUS` bit: budget ran out at least once (sticky, write 1 to clear).
pub const STATUS_EXHAUSTED: u32 = 1 << 1;

/// The register block. Create one per regulated port and share it between
/// the regulator (hardware side) and the driver (software side) with
/// [`RegFile::shared`].
#[derive(Debug)]
pub struct RegFile {
    regs: [AtomicU32; REG_COUNT],
}

impl Default for RegFile {
    fn default() -> Self {
        Self::new()
    }
}

impl RegFile {
    /// Creates a block with reset values: disabled, period 1024 cycles,
    /// budget 1024 bytes (reset defaults of the IP).
    pub fn new() -> Self {
        let rf = RegFile {
            regs: std::array::from_fn(|_| AtomicU32::new(0)),
        };
        rf.write(Reg::Period, 1024);
        rf.write(Reg::Budget, 1024);
        rf.write(Reg::BudgetRd, 512);
        rf.write(Reg::BudgetWr, 512);
        rf
    }

    /// Creates a shareable block (hardware and software sides each hold a
    /// clone of the `Arc`).
    pub fn shared() -> Arc<RegFile> {
        Arc::new(RegFile::new())
    }

    /// Raw register read (software semantics: plain load).
    #[inline]
    pub fn read(&self, reg: Reg) -> u32 {
        self.regs[reg as usize].load(Ordering::Relaxed)
    }

    /// Raw register write.
    ///
    /// Software-visible side effects (W1C status bits) are handled by
    /// [`RegFile::sw_write`]; this method is the raw store used by the
    /// hardware side.
    #[inline]
    pub fn write(&self, reg: Reg, value: u32) {
        self.regs[reg as usize].store(value, Ordering::Relaxed);
    }

    /// Software write with register-specific semantics: writes to
    /// `STATUS` clear the sticky bits whose positions are set in `value`
    /// (write-1-to-clear); other registers store the value.
    pub fn sw_write(&self, reg: Reg, value: u32) {
        match reg {
            Reg::Status => {
                // W1C: clear bits the software acknowledged.
                self.regs[Reg::Status as usize].fetch_and(!value, Ordering::Relaxed);
            }
            _ => self.write(reg, value),
        }
    }

    /// Sets bits in a register (hardware side).
    #[inline]
    pub fn set_bits(&self, reg: Reg, bits: u32) {
        self.regs[reg as usize].fetch_or(bits, Ordering::Relaxed);
    }

    /// Clears bits in a register (hardware side).
    #[inline]
    pub fn clear_bits(&self, reg: Reg, bits: u32) {
        self.regs[reg as usize].fetch_and(!bits, Ordering::Relaxed);
    }

    /// Reads a LO/HI counter pair as a 64-bit value.
    ///
    /// Models the double-read dance real drivers perform; in the
    /// simulator the two words are coherent within a cycle.
    pub fn read64(&self, lo: Reg, hi: Reg) -> u64 {
        let l = self.read(lo) as u64;
        let h = self.read(hi) as u64;
        (h << 32) | l
    }

    /// Writes a 64-bit value into a LO/HI counter pair (hardware side).
    pub fn write64(&self, lo: Reg, hi: Reg, value: u64) {
        self.write(lo, value as u32);
        self.write(hi, (value >> 32) as u32);
    }

    /// Walks every register word, in offset order (see [`StateWalker`]).
    /// Interior mutability means a load works through the shared handle
    /// both the gate and its driver hold — restoring once restores both
    /// views.
    ///
    /// Wide-counter LO/HI pairs are walked as one 64-bit counter: the
    /// little-endian bytes of the combined value are exactly the bytes of
    /// the two words, so the typing costs no byte-layout change while
    /// letting a steady-state leap advance the pair with carry
    /// (independent 32-bit deltas would corrupt it). The `WINDOWS`
    /// mirror saturates at `u32::MAX` (see `WindowMonitor::on_cycle`)
    /// and is typed accordingly.
    pub fn visit_state(&self, w: &mut StateWalker<'_>) {
        w.section("regfile");
        let pairs = [Reg::TotalBytesLo, Reg::TotalTxnsLo, Reg::StallLo].map(|r| r as usize);
        let word = |i: usize| self.regs[i].load(Ordering::Relaxed);
        let mut i = 0;
        while i < REG_COUNT {
            if pairs.contains(&i) {
                let mut pair = ((word(i + 1) as u64) << 32) | word(i) as u64;
                w.counter(&mut pair);
                if w.loading() {
                    self.regs[i].store(pair as u32, Ordering::Relaxed);
                    self.regs[i + 1].store((pair >> 32) as u32, Ordering::Relaxed);
                }
                i += 2;
                continue;
            }
            let mut v = word(i);
            if i == Reg::Windows as usize {
                w.counter_sat(&mut v);
            } else {
                w.plain(&mut v);
            }
            if w.loading() {
                self.regs[i].store(v, Ordering::Relaxed);
            }
            i += 1;
        }
    }
}

impl SharedFork for RegFile {
    /// Copies every register word into an independent block (used when a
    /// snapshot fork remaps the MMIO shared between a gate and its
    /// driver).
    fn fork_value(&self) -> Self {
        RegFile {
            regs: std::array::from_fn(|i| AtomicU32::new(self.regs[i].load(Ordering::Relaxed))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_values() {
        let rf = RegFile::new();
        assert_eq!(rf.read(Reg::Ctrl), 0);
        assert_eq!(rf.read(Reg::Period), 1024);
        assert_eq!(rf.read(Reg::Budget), 1024);
        assert_eq!(rf.read(Reg::Status), 0);
    }

    #[test]
    fn read_write_roundtrip() {
        let rf = RegFile::new();
        rf.sw_write(Reg::Budget, 123_456);
        assert_eq!(rf.read(Reg::Budget), 123_456);
    }

    #[test]
    fn status_w1c_semantics() {
        let rf = RegFile::new();
        rf.set_bits(Reg::Status, STATUS_THROTTLED | STATUS_EXHAUSTED);
        // Clearing only EXHAUSTED leaves THROTTLED.
        rf.sw_write(Reg::Status, STATUS_EXHAUSTED);
        assert_eq!(rf.read(Reg::Status), STATUS_THROTTLED);
        // Writing zero clears nothing.
        rf.sw_write(Reg::Status, 0);
        assert_eq!(rf.read(Reg::Status), STATUS_THROTTLED);
    }

    #[test]
    fn wide_counter_roundtrip() {
        let rf = RegFile::new();
        let v = 0x1234_5678_9abc_def0u64;
        rf.write64(Reg::TotalBytesLo, Reg::TotalBytesHi, v);
        assert_eq!(rf.read64(Reg::TotalBytesLo, Reg::TotalBytesHi), v);
        assert_eq!(rf.read(Reg::TotalBytesLo), 0x9abc_def0);
        assert_eq!(rf.read(Reg::TotalBytesHi), 0x1234_5678);
    }

    #[test]
    fn bit_helpers() {
        let rf = RegFile::new();
        rf.set_bits(Reg::Ctrl, CTRL_ENABLE);
        assert_eq!(rf.read(Reg::Ctrl) & CTRL_ENABLE, CTRL_ENABLE);
        rf.clear_bits(Reg::Ctrl, CTRL_ENABLE);
        assert_eq!(rf.read(Reg::Ctrl) & CTRL_ENABLE, 0);
    }

    #[test]
    fn shared_handle_is_one_block() {
        let a = RegFile::shared();
        let b = Arc::clone(&a);
        a.sw_write(Reg::Period, 77);
        assert_eq!(b.read(Reg::Period), 77);
    }
}
