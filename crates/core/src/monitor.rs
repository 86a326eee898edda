//! Window-based bandwidth telemetry.
//!
//! [`WindowMonitor`] is the counting half of the IP: it attributes every
//! accepted transaction to the current replenishment window, maintains
//! lifetime totals, and mirrors everything into the port's
//! [`RegFile`] so the software side always sees
//! fresh telemetry — the paper's "tightly-coupled monitoring".
//!
//! The monitor also implements the *configuration latching* rule: the
//! window period written by software takes effect at the next window
//! boundary, never mid-window.

use crate::regfile::{Reg, RegFile};
use fgqos_sim::axi::Dir;
use fgqos_sim::json::Value;
use fgqos_sim::time::Cycle;
use fgqos_sim::StateWalker;
use std::sync::Arc;

/// Default capacity of a [`WindowLog`] (64 Ki windows ≈ 4 MiB).
pub const DEFAULT_LOG_WINDOWS: usize = 1 << 16;

/// One closed window as recorded by a [`WindowLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRecord {
    /// Zero-based index of the window since monitor creation/reset.
    pub index: u64,
    /// Start cycle of the window.
    pub start: u64,
    /// Window length in effect (cycles).
    pub period: u64,
    /// Bytes accepted in the window.
    pub bytes: u64,
    /// Read-channel bytes accepted in the window.
    pub rd_bytes: u64,
    /// Write-channel bytes accepted in the window.
    pub wr_bytes: u64,
    /// Transactions accepted in the window.
    pub txns: u64,
    /// Byte budget that was in force for the window.
    pub budget: u64,
    /// Bytes accepted beyond the budget (0 when within budget).
    pub overshoot: u64,
}

/// Bounded per-window time series captured by a [`WindowMonitor`].
///
/// Opt-in via [`WindowMonitor::enable_log`]; the regulation path never
/// allocates for it unless enabled. Once [`WindowLog::capacity`] windows
/// are stored, further windows are counted in [`WindowLog::dropped`] and
/// discarded (oldest-first retention, like
/// [`fgqos_sim::trace::Trace`]).
#[derive(Debug, Clone)]
pub struct WindowLog {
    records: Vec<WindowRecord>,
    capacity: usize,
    dropped: u64,
}

/// Schema identifier written into window-log exports.
pub const WINDOW_LOG_SCHEMA: &str = "fgqos.window-log";
/// Schema version written into window-log exports.
pub const WINDOW_LOG_VERSION: u64 = 1;

impl WindowLog {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window log capacity must be non-zero");
        WindowLog {
            records: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, record: WindowRecord) {
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded windows, oldest first.
    pub fn records(&self) -> &[WindowRecord] {
        &self.records
    }

    /// Maximum number of windows the log retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Windows discarded because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exports the log as CSV with a schema-version comment line.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "# {WINDOW_LOG_SCHEMA} v{WINDOW_LOG_VERSION}\n\
             window,start_cycle,period,bytes,rd_bytes,wr_bytes,txns,budget,overshoot\n"
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                r.index,
                r.start,
                r.period,
                r.bytes,
                r.rd_bytes,
                r.wr_bytes,
                r.txns,
                r.budget,
                r.overshoot
            );
        }
        out
    }

    /// Exports the log as a schema-versioned JSON document.
    pub fn to_json(&self) -> Value {
        let mut windows = Value::arr();
        for r in &self.records {
            let mut o = Value::obj();
            o.set("window", Value::from(r.index));
            o.set("start_cycle", Value::from(r.start));
            o.set("period", Value::from(r.period));
            o.set("bytes", Value::from(r.bytes));
            o.set("rd_bytes", Value::from(r.rd_bytes));
            o.set("wr_bytes", Value::from(r.wr_bytes));
            o.set("txns", Value::from(r.txns));
            o.set("budget", Value::from(r.budget));
            o.set("overshoot", Value::from(r.overshoot));
            windows.push(o);
        }
        let mut doc = Value::obj();
        doc.set("schema", Value::str(WINDOW_LOG_SCHEMA));
        doc.set("version", Value::from(WINDOW_LOG_VERSION));
        doc.set("dropped", Value::from(self.dropped));
        doc.set("windows", windows);
        doc
    }
}

/// Per-window byte/transaction accounting synced into a register file.
#[derive(Debug, Clone)]
pub struct WindowMonitor {
    regs: Arc<RegFile>,
    window_start: Cycle,
    period: u64,
    win_bytes: u64,
    win_rd_bytes: u64,
    win_wr_bytes: u64,
    win_txns: u64,
    total_bytes: u64,
    total_txns: u64,
    windows: u64,
    max_overshoot: u64,
    log: Option<WindowLog>,
}

impl WindowMonitor {
    /// Creates a monitor over `regs`, latching the initial period from the
    /// `PERIOD` register (clamped to at least 1 cycle).
    pub fn new(regs: Arc<RegFile>) -> Self {
        let period = (regs.read(Reg::Period) as u64).max(1);
        WindowMonitor {
            regs,
            window_start: Cycle::ZERO,
            period,
            win_bytes: 0,
            win_rd_bytes: 0,
            win_wr_bytes: 0,
            win_txns: 0,
            total_bytes: 0,
            total_txns: 0,
            windows: 0,
            max_overshoot: 0,
            log: None,
        }
    }

    /// Starts recording every closed window into a bounded [`WindowLog`]
    /// holding at most `capacity` windows. Replaces any existing log.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_log(&mut self, capacity: usize) {
        self.log = Some(WindowLog::new(capacity));
    }

    /// The per-window log, if [`WindowMonitor::enable_log`] was called.
    pub fn log(&self) -> Option<&WindowLog> {
        self.log.as_ref()
    }

    /// The period currently in effect (latched; may lag the register).
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Bytes accepted in the open window.
    pub fn win_bytes(&self) -> u64 {
        self.win_bytes
    }

    /// Read bytes accepted in the open window.
    pub fn win_rd_bytes(&self) -> u64 {
        self.win_rd_bytes
    }

    /// Write bytes accepted in the open window.
    pub fn win_wr_bytes(&self) -> u64 {
        self.win_wr_bytes
    }

    /// Transactions accepted in the open window.
    pub fn win_txns(&self) -> u64 {
        self.win_txns
    }

    /// Lifetime accepted bytes since the last stats reset.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Completed windows since the last stats reset.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Start cycle of the open window.
    pub fn window_start(&self) -> Cycle {
        self.window_start
    }

    /// Advances window state to `now`, closing any elapsed windows.
    ///
    /// `budget` is the byte budget that was in force for the closing
    /// windows (used for the `MAX_OVERSHOOT` telemetry). Returns the
    /// number of windows closed (0 most cycles).
    pub fn on_cycle(&mut self, now: Cycle, budget: u64) -> u32 {
        let mut closed = 0;
        while now.saturating_since(self.window_start) >= self.period {
            let overshoot = self.win_bytes.saturating_sub(budget);
            self.max_overshoot = self.max_overshoot.max(overshoot);
            if let Some(log) = &mut self.log {
                log.push(WindowRecord {
                    index: self.windows,
                    start: self.window_start.get(),
                    period: self.period,
                    bytes: self.win_bytes,
                    rd_bytes: self.win_rd_bytes,
                    wr_bytes: self.win_wr_bytes,
                    txns: self.win_txns,
                    budget,
                    overshoot,
                });
            }
            self.windows += 1;
            self.regs.write(
                Reg::LastWinBytes,
                self.win_bytes.min(u32::MAX as u64) as u32,
            );
            self.regs
                .write(Reg::Windows, self.windows.min(u32::MAX as u64) as u32);
            self.regs.write(
                Reg::MaxOvershoot,
                self.max_overshoot.min(u32::MAX as u64) as u32,
            );
            self.win_bytes = 0;
            self.win_rd_bytes = 0;
            self.win_wr_bytes = 0;
            self.win_txns = 0;
            self.window_start += self.period;
            // Latch a possibly updated period for the next window.
            self.period = (self.regs.read(Reg::Period) as u64).max(1);
            closed += 1;
        }
        if closed > 0 {
            self.sync_window_regs();
        }
        closed
    }

    /// Records one accepted transaction of `bytes` bytes, attributed to
    /// the read channel. Prefer [`WindowMonitor::record_dir`] when the
    /// direction is known (it keeps the split-mode telemetry exact).
    pub fn record(&mut self, bytes: u64) {
        self.record_dir(bytes, Dir::Read);
    }

    /// Records one accepted transaction with its channel direction.
    pub fn record_dir(&mut self, bytes: u64, dir: Dir) {
        self.win_bytes += bytes;
        match dir {
            Dir::Read => self.win_rd_bytes += bytes,
            Dir::Write => self.win_wr_bytes += bytes,
        }
        self.win_txns += 1;
        self.total_bytes += bytes;
        self.total_txns += 1;
        self.sync_window_regs();
        self.regs
            .write64(Reg::TotalBytesLo, Reg::TotalBytesHi, self.total_bytes);
        self.regs
            .write64(Reg::TotalTxnsLo, Reg::TotalTxnsHi, self.total_txns);
    }

    fn sync_window_regs(&self) {
        self.regs
            .write(Reg::WinBytes, self.win_bytes.min(u32::MAX as u64) as u32);
        self.regs.write(
            Reg::WinRdBytes,
            self.win_rd_bytes.min(u32::MAX as u64) as u32,
        );
        self.regs.write(
            Reg::WinWrBytes,
            self.win_wr_bytes.min(u32::MAX as u64) as u32,
        );
        self.regs
            .write(Reg::WinTxns, self.win_txns.min(u32::MAX as u64) as u32);
    }

    /// Walks the monitor state — latched period, open-window counters,
    /// lifetime totals, log occupancy (see [`StateWalker`]). The register
    /// block's contents are walked by the owning gate; the monitor only
    /// declares its handle, so a fork rebinds it to the gate's block.
    ///
    /// The stream records only the window log's *occupancy*, not its
    /// records, so a log loads only while still empty (the warm-boundary
    /// case: logging enabled, no window closed yet); a populated log is a
    /// diagnostic error rather than silent data loss.
    pub(crate) fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("window-monitor");
        w.shared(&mut self.regs);
        w.cycle(&mut self.window_start);
        w.plain(&mut self.period);
        // Open-window counters stay plain: a steady-state period always
        // spans whole windows, so they recur exactly at the boundary.
        w.plain(&mut self.win_bytes);
        w.plain(&mut self.win_rd_bytes);
        w.plain(&mut self.win_wr_bytes);
        w.plain(&mut self.win_txns);
        w.counter(&mut self.total_bytes);
        w.counter(&mut self.total_txns);
        w.counter(&mut self.windows);
        w.plain(&mut self.max_overshoot);
        let capacity = self
            .log
            .as_ref()
            .map_or(DEFAULT_LOG_WINDOWS, |l| l.capacity);
        if let Some(log) = w.option_with(&mut self.log, || WindowLog::new(capacity)) {
            // One record per window: an algebraic leap cannot reproduce it.
            w.no_leap();
            w.drained(log.records.len(), "window log");
            let mut dropped = log.dropped;
            w.plain(&mut dropped);
            if dropped != 0 {
                w.bad(format!(
                    "window log dropped {dropped} record(s); only empty logs load"
                ));
            }
        }
    }

    /// Clears all telemetry (including any window log's records) and
    /// restarts the open window at `now`.
    pub fn reset(&mut self, now: Cycle) {
        if let Some(log) = &mut self.log {
            let capacity = log.capacity;
            *log = WindowLog::new(capacity);
        }
        self.win_bytes = 0;
        self.win_rd_bytes = 0;
        self.win_wr_bytes = 0;
        self.win_txns = 0;
        self.total_bytes = 0;
        self.total_txns = 0;
        self.windows = 0;
        self.max_overshoot = 0;
        self.window_start = now;
        self.period = (self.regs.read(Reg::Period) as u64).max(1);
        self.sync_window_regs();
        self.regs.write64(Reg::TotalBytesLo, Reg::TotalBytesHi, 0);
        self.regs.write64(Reg::TotalTxnsLo, Reg::TotalTxnsHi, 0);
        self.regs.write(Reg::Windows, 0);
        self.regs.write(Reg::LastWinBytes, 0);
        self.regs.write(Reg::MaxOvershoot, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_within_window() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 100);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        m.record(64);
        m.record(32);
        assert_eq!(m.win_bytes(), 96);
        assert_eq!(m.win_txns(), 2);
        assert_eq!(regs.read(Reg::WinBytes), 96);
        assert_eq!(regs.read(Reg::WinTxns), 2);
        assert_eq!(regs.read64(Reg::TotalBytesLo, Reg::TotalBytesHi), 96);
    }

    #[test]
    fn window_rollover_publishes_telemetry() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 100);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        m.record(500);
        let closed = m.on_cycle(Cycle::new(100), 400);
        assert_eq!(closed, 1);
        assert_eq!(regs.read(Reg::LastWinBytes), 500);
        assert_eq!(regs.read(Reg::Windows), 1);
        assert_eq!(regs.read(Reg::MaxOvershoot), 100);
        assert_eq!(m.win_bytes(), 0);
        // Totals persist across windows.
        assert_eq!(m.total_bytes(), 500);
    }

    #[test]
    fn multiple_elapsed_windows_closed_at_once() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 10);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        let closed = m.on_cycle(Cycle::new(35), 0);
        assert_eq!(closed, 3);
        assert_eq!(m.windows(), 3);
        assert_eq!(m.window_start(), Cycle::new(30));
    }

    #[test]
    fn period_latched_at_boundary() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 100);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        // Software shrinks the period mid-window: no effect yet.
        regs.sw_write(Reg::Period, 10);
        assert_eq!(m.on_cycle(Cycle::new(50), 0), 0);
        assert_eq!(m.period(), 100);
        // After the boundary the new period is live.
        m.on_cycle(Cycle::new(100), 0);
        assert_eq!(m.period(), 10);
    }

    #[test]
    fn zero_period_clamped() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 0);
        let m = WindowMonitor::new(regs);
        assert_eq!(m.period(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 100);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        m.record(1000);
        m.on_cycle(Cycle::new(100), 0);
        m.record(50);
        m.reset(Cycle::new(150));
        assert_eq!(m.total_bytes(), 0);
        assert_eq!(m.windows(), 0);
        assert_eq!(m.win_bytes(), 0);
        assert_eq!(m.window_start(), Cycle::new(150));
        assert_eq!(regs.read(Reg::Windows), 0);
        assert_eq!(regs.read64(Reg::TotalBytesLo, Reg::TotalBytesHi), 0);
        assert_eq!(regs.read(Reg::MaxOvershoot), 0);
    }

    #[test]
    fn window_log_records_closed_windows() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 10);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        m.enable_log(8);
        m.record_dir(100, Dir::Read);
        m.record_dir(60, Dir::Write);
        m.on_cycle(Cycle::new(10), 120);
        m.on_cycle(Cycle::new(25), 120); // closes one idle window
        let log = m.log().unwrap();
        assert_eq!(log.records().len(), 2);
        let r0 = log.records()[0];
        assert_eq!(r0.index, 0);
        assert_eq!(r0.start, 0);
        assert_eq!(r0.bytes, 160);
        assert_eq!(r0.rd_bytes, 100);
        assert_eq!(r0.wr_bytes, 60);
        assert_eq!(r0.txns, 2);
        assert_eq!(r0.budget, 120);
        assert_eq!(r0.overshoot, 40);
        let r1 = log.records()[1];
        assert_eq!(r1.index, 1);
        assert_eq!(r1.bytes, 0);
        assert_eq!(r1.overshoot, 0);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn window_log_caps_and_counts_dropped() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 10);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        m.enable_log(3);
        m.on_cycle(Cycle::new(100), 0); // closes 10 windows
        let log = m.log().unwrap();
        assert_eq!(log.records().len(), 3);
        assert_eq!(log.dropped(), 7);
        assert_eq!(log.capacity(), 3);
        // Reset clears records but keeps the capacity.
        m.reset(Cycle::new(100));
        let log = m.log().unwrap();
        assert!(log.records().is_empty());
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.capacity(), 3);
    }

    #[test]
    fn window_log_exports() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 10);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        m.enable_log(8);
        m.record(50);
        m.on_cycle(Cycle::new(10), 40);
        let log = m.log().unwrap();
        let csv = log.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("# fgqos.window-log v1"));
        assert_eq!(
            lines.next(),
            Some("window,start_cycle,period,bytes,rd_bytes,wr_bytes,txns,budget,overshoot")
        );
        assert_eq!(lines.next(), Some("0,0,10,50,50,0,1,40,10"));
        let doc = log.to_json();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(WINDOW_LOG_SCHEMA));
        let w = doc.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(w[0].get("overshoot").unwrap().as_u64(), Some(10));
    }

    #[test]
    fn overshoot_tracks_maximum() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 10);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        m.record(150);
        m.on_cycle(Cycle::new(10), 100); // overshoot 50
        m.record(120);
        m.on_cycle(Cycle::new(20), 100); // overshoot 20 (max stays 50)
        assert_eq!(regs.read(Reg::MaxOvershoot), 50);
    }
}
