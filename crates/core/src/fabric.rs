//! System-level QoS fabric assembly.
//!
//! On the real platform, integrating the IP means instantiating one
//! regulator per PL master port, wiring its AXI-Lite block into the
//! address map, and handing the driver a name→block table (device tree).
//! [`QosFabricBuilder`] is that integration step for the simulated SoC:
//! declare each port's *role* once, pass the returned gate to
//! [`SocBuilder`](fgqos_sim::system::SocBuilder), and keep the
//! [`QosFabric`] as the software-side handle that can look up drivers by
//! name, reprogram whole partitions, build policies and render a
//! telemetry report.
//!
//! ```
//! use fgqos_core::fabric::QosFabricBuilder;
//! use fgqos_sim::prelude::*;
//!
//! let mut fabric = QosFabricBuilder::new();
//! let cpu_gate = fabric.critical_port("cpu", 1_000);
//! let dma_gate = fabric.best_effort_port("dma0", 1_000, 2_048);
//! let fabric = fabric.finish();
//!
//! let mut soc = SocBuilder::new(SocConfig::default())
//!     .gated_master("cpu", SequentialSource::reads(0, 256, 100), MasterKind::Cpu, cpu_gate)
//!     .gated_master(
//!         "dma0",
//!         SequentialSource::writes(1 << 28, 1024, u64::MAX),
//!         MasterKind::Accelerator,
//!         dma_gate,
//!     )
//!     .build();
//! soc.run(50_000);
//! assert!(fabric.driver("dma0").unwrap().telemetry().total_bytes > 0);
//! assert_eq!(fabric.critical_names(), vec!["cpu"]);
//! ```

use crate::driver::RegulatorDriver;
use crate::policy::{FeedbackController, ReclaimConfig, ReclaimPolicy};
use crate::regulator::{RegulatorConfig, TcRegulator};
use fgqos_sim::ForkCtx;
use std::fmt::Write as _;

/// Role of a port in the QoS partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortRole {
    /// Latency/throughput-protected actor: monitored, never throttled.
    Critical,
    /// Throughput-managed actor: regulated.
    BestEffort,
}

#[derive(Debug)]
struct PortEntry {
    name: String,
    role: PortRole,
    driver: RegulatorDriver,
}

/// Builder: declare ports, collect their gates.
#[derive(Debug, Default)]
pub struct QosFabricBuilder {
    ports: Vec<PortEntry>,
}

impl QosFabricBuilder {
    /// Starts an empty fabric.
    pub fn new() -> Self {
        QosFabricBuilder::default()
    }

    /// Declares a critical port: returns a monitor-only gate with the
    /// given telemetry window.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken or the period is zero.
    pub fn critical_port(&mut self, name: impl Into<String>, period_cycles: u32) -> TcRegulator {
        let name = name.into();
        self.assert_fresh(&name);
        let (gate, driver) = TcRegulator::monitor_only(period_cycles);
        self.ports.push(PortEntry {
            name,
            role: PortRole::Critical,
            driver,
        });
        gate
    }

    /// Declares a regulated best-effort port with an initial budget.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken or the period is zero.
    pub fn best_effort_port(
        &mut self,
        name: impl Into<String>,
        period_cycles: u32,
        budget_bytes: u32,
    ) -> TcRegulator {
        let name = name.into();
        self.assert_fresh(&name);
        let (gate, driver) = TcRegulator::create(RegulatorConfig {
            period_cycles,
            budget_bytes,
            enabled: true,
            ..RegulatorConfig::default()
        });
        self.ports.push(PortEntry {
            name,
            role: PortRole::BestEffort,
            driver,
        });
        gate
    }

    /// Declares a regulated port with full configuration control.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken or the configuration is
    /// invalid.
    pub fn port_with_config(
        &mut self,
        name: impl Into<String>,
        role: PortRole,
        cfg: RegulatorConfig,
    ) -> TcRegulator {
        let name = name.into();
        self.assert_fresh(&name);
        let (gate, driver) = TcRegulator::create(cfg);
        self.ports.push(PortEntry { name, role, driver });
        gate
    }

    fn assert_fresh(&self, name: &str) {
        assert!(
            self.ports.iter().all(|p| p.name != name),
            "port name {name:?} already declared"
        );
    }

    /// Finalizes the fabric.
    ///
    /// # Panics
    ///
    /// Panics if no port was declared.
    pub fn finish(self) -> QosFabric {
        assert!(!self.ports.is_empty(), "fabric needs at least one port");
        QosFabric { ports: self.ports }
    }
}

/// The software-side handle over all regulator blocks of a system.
#[derive(Debug)]
pub struct QosFabric {
    ports: Vec<PortEntry>,
}

impl QosFabric {
    /// Number of declared ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Looks up a port's driver by name.
    pub fn driver(&self, name: &str) -> Option<&RegulatorDriver> {
        self.ports
            .iter()
            .find(|p| p.name == name)
            .map(|p| &p.driver)
    }

    /// A port's role by name.
    pub fn role(&self, name: &str) -> Option<PortRole> {
        self.ports.iter().find(|p| p.name == name).map(|p| p.role)
    }

    /// Names of all critical ports, in declaration order.
    pub fn critical_names(&self) -> Vec<&str> {
        self.ports
            .iter()
            .filter(|p| p.role == PortRole::Critical)
            .map(|p| p.name.as_str())
            .collect()
    }

    /// Names of all best-effort ports, in declaration order.
    pub fn best_effort_names(&self) -> Vec<&str> {
        self.ports
            .iter()
            .filter(|p| p.role == PortRole::BestEffort)
            .map(|p| p.name.as_str())
            .collect()
    }

    /// Drivers of all best-effort ports, in declaration order.
    pub fn best_effort_drivers(&self) -> Vec<RegulatorDriver> {
        self.ports
            .iter()
            .filter(|p| p.role == PortRole::BestEffort)
            .map(|p| p.driver.clone())
            .collect()
    }

    /// Builds a CMRI-style reclaim policy over this fabric: the first
    /// critical port's telemetry drives redistribution across all
    /// best-effort ports.
    ///
    /// # Panics
    ///
    /// Panics if the fabric has no critical or no best-effort port.
    pub fn reclaim_policy(&self, cfg: ReclaimConfig) -> ReclaimPolicy {
        let critical = self
            .ports
            .iter()
            .find(|p| p.role == PortRole::Critical)
            .expect("fabric has no critical port");
        ReclaimPolicy::new(critical.driver.clone(), self.best_effort_drivers(), cfg)
    }

    /// Builds an AIMD feedback controller over this fabric.
    ///
    /// # Panics
    ///
    /// Panics if the fabric has no critical or no best-effort port, or
    /// the AIMD parameters are inconsistent.
    #[allow(clippy::too_many_arguments)]
    pub fn feedback_policy(
        &self,
        target_bytes_per_period: u64,
        initial_budget: u32,
        min_budget: u32,
        max_budget: u32,
        step: u32,
        control_period: u64,
    ) -> FeedbackController {
        let critical = self
            .ports
            .iter()
            .find(|p| p.role == PortRole::Critical)
            .expect("fabric has no critical port");
        FeedbackController::new(
            critical.driver.clone(),
            target_bytes_per_period,
            self.best_effort_drivers(),
            initial_budget,
            min_budget,
            max_budget,
            step,
            control_period,
        )
    }

    /// Rebinds every port driver to the register blocks `ctx` maps them
    /// to — the fabric-wide counterpart of
    /// [`RegulatorDriver::forked`]. Pass the same `ctx` used to fork the
    /// Soc and the returned fabric controls the forked gates.
    pub fn fork_rebound(&self, ctx: &mut ForkCtx) -> QosFabric {
        QosFabric {
            ports: self
                .ports
                .iter()
                .map(|p| PortEntry {
                    name: p.name.clone(),
                    role: p.role,
                    driver: p.driver.forked(ctx),
                })
                .collect(),
        }
    }

    /// Renders a one-line-per-port telemetry report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for p in &self.ports {
            let t = p.driver.telemetry();
            let role = match p.role {
                PortRole::Critical => "critical",
                PortRole::BestEffort => "best-effort",
            };
            let _ = writeln!(
                out,
                "{:<12} {:<11} bytes={:<12} txns={:<9} stalls={:<10} overshoot={}",
                p.name, role, t.total_bytes, t.total_txns, t.stall_cycles, t.max_overshoot
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> QosFabric {
        let mut b = QosFabricBuilder::new();
        let _ = b.critical_port("cpu", 1_000);
        let _ = b.best_effort_port("dma0", 1_000, 1_024);
        let _ = b.best_effort_port("dma1", 1_000, 2_048);
        b.finish()
    }

    #[test]
    fn lookup_by_name_and_role() {
        let f = fabric();
        assert_eq!(f.port_count(), 3);
        assert!(f.driver("cpu").is_some());
        assert!(f.driver("nope").is_none());
        assert_eq!(f.role("cpu"), Some(PortRole::Critical));
        assert_eq!(f.role("dma1"), Some(PortRole::BestEffort));
        assert_eq!(f.critical_names(), vec!["cpu"]);
        assert_eq!(f.best_effort_names(), vec!["dma0", "dma1"]);
    }

    #[test]
    fn critical_port_is_monitor_only() {
        let f = fabric();
        let d = f.driver("cpu").unwrap();
        assert!(!d.enabled());
        assert_eq!(d.budget_bytes(), u32::MAX);
    }

    #[test]
    fn best_effort_ports_start_enabled() {
        let f = fabric();
        assert!(f.driver("dma0").unwrap().enabled());
        assert_eq!(f.driver("dma1").unwrap().budget_bytes(), 2_048);
    }

    #[test]
    fn policies_constructible_from_fabric() {
        let f = fabric();
        let _reclaim = f.reclaim_policy(ReclaimConfig {
            critical_reserved: 1_000,
            be_base: 100,
            control_period: 5_000,
            ..ReclaimConfig::default()
        });
        let _feedback = f.feedback_policy(1_000, 512, 64, 4_096, 128, 5_000);
    }

    #[test]
    fn report_lists_every_port() {
        let f = fabric();
        let r = f.report();
        assert_eq!(r.lines().count(), 3);
        assert!(r.contains("cpu"));
        assert!(r.contains("best-effort"));
    }

    #[test]
    #[should_panic(expected = "already declared")]
    fn duplicate_names_rejected() {
        let mut b = QosFabricBuilder::new();
        let _ = b.critical_port("x", 1_000);
        let _ = b.best_effort_port("x", 1_000, 1_024);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn empty_fabric_rejected() {
        let _ = QosFabricBuilder::new().finish();
    }

    #[test]
    #[should_panic(expected = "no critical port")]
    fn reclaim_requires_critical() {
        let mut b = QosFabricBuilder::new();
        let _ = b.best_effort_port("dma", 1_000, 1_024);
        let f = b.finish();
        let _ = f.reclaim_policy(ReclaimConfig::default());
    }
}
