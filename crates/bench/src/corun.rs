//! The co-run template shared by the paper's comparison experiments.
//!
//! Every experiment in the paper's evaluation is a variation of one
//! template: a latency-sensitive *critical* actor co-runs with N
//! bandwidth-hungry *interferers*, under one of four arbitration schemes.
//! [`CoRun::fgq`] renders that system as `.fgq` text, which builds
//! through [`ScenarioSpec`] like every other system description, so any
//! experiment point can also be run, submitted, forked or hunted.

use crate::scenario::{traffic_keys, ScenarioSpec};
use fgqos_core::fabric::QosFabric;
use fgqos_sim::axi::Dir;
use fgqos_sim::system::Soc;
use fgqos_workloads::spec::{BurstShape, TrafficSpec};

/// The arbitration scheme applied to the interferers.
#[derive(Debug, Clone, Copy)]
pub enum Scheme {
    /// No regulation (the motivation case).
    Unregulated,
    /// The paper's tightly-coupled regulator on every interferer:
    /// `budget` bytes per `period`-cycle window.
    Tc { period: u32, budget: u32 },
    /// Software MemGuard on every interferer: `budget` bytes per
    /// `tick`-cycle OS tick, enforced `irq` cycles after the overflow.
    MemGuard { tick: u64, budget: u64, irq: u64 },
    /// PREM-style mutual exclusion: interferers own slot 1 of a 2-slot
    /// TDMA rotation of `phase`-cycle slots, with a `guard`-cycle band.
    PremPhase { phase: u64, guard: u64 },
}

/// Parameters of the co-run template.
#[derive(Debug, Clone)]
pub struct CoRun {
    /// Number of interfering accelerator ports.
    pub interferers: usize,
    /// Interferer transaction size in bytes.
    pub interferer_txn_bytes: u64,
    /// Interferer traffic direction.
    pub interferer_dir: Dir,
    /// Critical actor's transaction count (workload size).
    pub critical_txns: u64,
    /// Critical actor's transaction size in bytes.
    pub critical_txn_bytes: u64,
    /// Critical actor's closed-loop think time in cycles.
    pub critical_think: u64,
    /// Optional on/off phasing of the critical actor.
    pub critical_burst: Option<BurstShape>,
    /// Outstanding-transaction limit of the critical actor.
    pub critical_outstanding: usize,
    /// Cycle at which the critical actor launches (0 = immediately).
    pub critical_start: u64,
    /// RNG seed of the critical actor; interferer `i` uses `seed + 100 + i`.
    pub seed: u64,
}

impl Default for CoRun {
    fn default() -> Self {
        CoRun {
            interferers: 6,
            interferer_txn_bytes: 1024,
            interferer_dir: Dir::Write,
            critical_txns: 2_000,
            critical_txn_bytes: 256,
            critical_think: 100,
            critical_burst: None,
            critical_outstanding: 1,
            critical_start: 0,
            seed: 1,
        }
    }
}

impl CoRun {
    /// The critical actor's traffic spec.
    pub fn critical_spec(&self) -> TrafficSpec {
        let (txn, think) = (self.critical_txn_bytes, self.critical_think);
        TrafficSpec {
            total: self.critical_txns,
            burst: self.critical_burst,
            ..TrafficSpec::latency_sensitive(0, 4 << 20, txn, think)
        }
    }

    /// The i-th interferer's traffic spec.
    pub fn interferer_spec(&self, i: usize) -> TrafficSpec {
        let (txn, dir) = (self.interferer_txn_bytes, self.interferer_dir);
        TrafficSpec::stream((1 + i as u64) << 28, 16 << 20, txn, dir)
    }

    /// The co-run system under `scheme` as `.fgq` text: master
    /// `critical` (a monitored CPU) first, then `dma0`, `dma1`, ….
    pub fn fgq(&self, scheme: Scheme) -> String {
        let mut out = format!(
            "[master critical]\nkind cpu\nrole critical\noutstanding {}\nseed {}\n{}",
            self.critical_outstanding,
            self.seed,
            traffic_keys(&self.critical_spec())
        );
        if self.critical_start > 0 {
            out += &format!("start {}\n", self.critical_start);
        }
        let regulation = match scheme {
            Scheme::Unregulated => "role unmanaged\n".to_string(),
            Scheme::Tc { period, budget } => {
                format!("role best-effort\nperiod {period}\nbudget {budget}\n")
            }
            Scheme::MemGuard { tick, budget, irq } => {
                format!("role unmanaged\ngate memguard {tick} {budget} {irq}\n")
            }
            Scheme::PremPhase { phase, guard } => {
                format!("role unmanaged\ngate tdma {phase} {guard}\n")
            }
        };
        for i in 0..self.interferers {
            out += &format!(
                "\n[master dma{i}]\nkind accel\n{regulation}seed {}\n{}",
                self.seed + 100 + i as u64,
                traffic_keys(&self.interferer_spec(i))
            );
        }
        out
    }

    /// Completion cycle of the critical actor run alone from cycle 0: the
    /// isolation baseline all slowdowns are computed from.
    pub fn isolation_cycles(&self) -> u64 {
        let alone = CoRun {
            interferers: 0,
            critical_start: 0,
            ..self.clone()
        };
        run(&alone.fgq(Scheme::Unregulated)).0
    }
}

/// Builds `.fgq` text and runs it until master `critical` completes
/// (panicking if the text does not parse or `critical` never finishes);
/// returns the completion cycle, the machine and its QoS fabric.
pub fn run(text: &str) -> (u64, Soc, QosFabric) {
    let spec = ScenarioSpec::parse(text).expect("co-run text parses");
    let (mut soc, fabric) = spec.build();
    let critical = soc.master_id("critical").expect("co-run declares critical");
    let done = soc
        .run_until_done(critical, u64::MAX / 2)
        .expect("critical finishes");
    (done.get(), soc, fabric)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CoRun {
        CoRun {
            interferers: 2,
            critical_txns: 200,
            ..CoRun::default()
        }
    }

    #[test]
    fn isolation_baseline_is_stable() {
        let s = small();
        assert_eq!(s.isolation_cycles(), s.isolation_cycles());
    }

    #[test]
    fn unregulated_corun_is_slower_than_isolation() {
        let s = small();
        let iso = s.isolation_cycles();
        let (t, _, _) = run(&s.fgq(Scheme::Unregulated));
        assert!(t > iso, "contended {t} should exceed isolation {iso}");
    }

    #[test]
    fn tc_regulation_recovers_critical_performance() {
        let s = small();
        let (unreg, _, _) = run(&s.fgq(Scheme::Unregulated));
        let (reg, _, fabric) = run(&s.fgq(Scheme::Tc {
            period: 1_000,
            budget: 2_000,
        }));
        assert!(
            reg < unreg,
            "regulated ({reg}) must beat unregulated ({unreg})"
        );
        // The interferers were indeed throttled.
        let t = fabric.driver("dma0").expect("regulated").telemetry();
        assert!(t.stall_cycles > 0);
    }

    #[test]
    fn critical_monitor_sees_critical_bytes() {
        let s = small();
        let (_, _, fabric) = run(&s.fgq(Scheme::Unregulated));
        let telemetry = fabric.driver("critical").expect("monitored").telemetry();
        assert_eq!(
            telemetry.total_bytes,
            s.critical_txns * s.critical_txn_bytes
        );
    }
}
