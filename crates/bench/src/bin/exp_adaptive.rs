//! EXP-F5 — Dynamic adaptation timeline.
//!
//! Two closed-loop re-budgeting policies are exercised against
//! phase-changing workloads, and the commanded best-effort budget is
//! sampled over time together with the per-window progress of the
//! critical actor and one best-effort port:
//!
//! * **Section A (reclaim)** — the critical actor alternates 300 µs
//!   active / 300 µs compute-only phases; the CMRI-style reclaim policy
//!   lends the critical reservation to the best-effort ports during idle
//!   phases and clamps back within one 10 µs control period of critical
//!   activity.
//! * **Section B (feedback)** — the critical actor is steady while the
//!   interference switches on and off in 500 µs phases; the AIMD
//!   feedback controller collapses the best-effort budget within a few
//!   control periods of the critical throughput dropping below target,
//!   and grows it back additively while the target is met.
//!
//! Printed columns: time (µs), critical bytes in the window, dma0 bytes
//! in the window, commanded best-effort budget (bytes/window).

use fgqos_bench::report::Report;
use fgqos_bench::{sweep, table};
use fgqos_core::driver::RegulatorDriver;
use fgqos_core::policy::{FeedbackController, ReclaimConfig, ReclaimPolicy};
use fgqos_core::regulator::{RegulatorConfig, TcRegulator};
use fgqos_sim::master::MasterKind;
use fgqos_sim::system::{Controller, SocBuilder, SocConfig};
use fgqos_sim::time::Cycle;
use fgqos_workloads::spec::{BurstShape, SpecSource, TrafficSpec};
use std::cell::RefCell;
use std::rc::Rc;

const SAMPLE: u64 = 50_000; // 50 us timeline buckets
const HORIZON: u64 = 3_000_000; // 3 ms

/// Samples a driver's programmed budget every [`SAMPLE`] cycles.
#[derive(Clone)]
struct BudgetSampler {
    driver: RegulatorDriver,
    samples: Rc<RefCell<Vec<u32>>>,
    next_at: u64,
}

impl Controller for BudgetSampler {
    fn on_cycle(&mut self, now: Cycle) {
        if now.get() < self.next_at {
            return;
        }
        self.next_at = now.get() + SAMPLE;
        self.samples.borrow_mut().push(self.driver.budget_bytes());
    }

    fn label(&self) -> &'static str {
        "budget-sampler"
    }
}

fn timeline_rows(crit: &[u64], be: &[u64], budgets: &[u32]) -> Vec<Vec<String>> {
    let n = crit.len().min(be.len()).min(budgets.len());
    (0..n)
        .map(|i| {
            vec![
                table::int(i as u64 * SAMPLE / 1_000),
                table::int(crit[i]),
                table::int(be[i]),
                table::int(budgets[i] as u64),
            ]
        })
        .collect()
}

fn push_section(r: &mut Report, banner: (&str, &str), rows: Vec<Vec<String>>) {
    r.blank();
    r.banner(banner.0, banner.1);
    r.header(&["t_us", "crit_B", "dma0_B", "budget_B"]);
    for row in rows {
        r.row(row);
    }
}

fn section_a_reclaim() -> Vec<Vec<String>> {
    let critical = TrafficSpec::latency_sensitive(0, 4 << 20, 256, 1_000).with_burst(BurstShape {
        on_cycles: 300_000,
        off_cycles: 300_000,
    });
    let (crit_monitor, crit_driver) = TcRegulator::monitor_only(1_000);
    let mut regs = Vec::new();
    let mut drivers = Vec::new();
    for _ in 0..3 {
        let (reg, driver) = TcRegulator::create(RegulatorConfig {
            period_cycles: 1_000,
            budget_bytes: 1_024,
            enabled: true,
            ..RegulatorConfig::default()
        });
        regs.push(reg);
        drivers.push(driver);
    }
    let policy = ReclaimPolicy::new(
        crit_driver.clone(),
        drivers.clone(),
        ReclaimConfig {
            critical_reserved: 2_500,
            be_base: 10 * 1_024,
            control_period: 10_000,
            gain: 25,
            busy_threshold: Some(256),
        },
    );
    let samples = Rc::new(RefCell::new(Vec::new()));
    let sampler = BudgetSampler {
        driver: drivers[0].clone(),
        samples: Rc::clone(&samples),
        next_at: 0,
    };
    let mut builder = SocBuilder::new(SocConfig::default())
        .master_full(
            "critical",
            SpecSource::new(critical, 1),
            MasterKind::Cpu,
            crit_monitor,
            1,
        )
        .controller(policy)
        .controller(sampler)
        .record_windows(SAMPLE);
    for (i, reg) in regs.into_iter().enumerate() {
        let spec = TrafficSpec::stream(
            (1 + i as u64) << 28,
            16 << 20,
            512,
            fgqos_sim::axi::Dir::Write,
        );
        builder = builder.gated_master(
            format!("dma{i}"),
            SpecSource::new(spec, 100 + i as u64),
            MasterKind::Accelerator,
            reg,
        );
    }
    let mut soc = builder.build();
    soc.run(HORIZON);
    let crit_id = soc.master_id("critical").expect("critical");
    let be_id = soc.master_id("dma0").expect("dma0");
    let crit_w = soc
        .master_stats(crit_id)
        .window
        .as_ref()
        .expect("windows")
        .windows()
        .to_vec();
    let be_w = soc
        .master_stats(be_id)
        .window
        .as_ref()
        .expect("windows")
        .windows()
        .to_vec();
    let rows = timeline_rows(&crit_w, &be_w, &samples.borrow());
    rows
}

fn section_b_feedback() -> Vec<Vec<String>> {
    let critical = TrafficSpec::latency_sensitive(0, 4 << 20, 256, 500);
    let (crit_monitor, crit_driver) = TcRegulator::monitor_only(1_000);
    let mut regs = Vec::new();
    let mut drivers = Vec::new();
    for _ in 0..3 {
        let (reg, driver) = TcRegulator::create(RegulatorConfig {
            period_cycles: 1_000,
            budget_bytes: 8_192,
            enabled: true,
            ..RegulatorConfig::default()
        });
        regs.push(reg);
        drivers.push(driver);
    }
    // Isolation rate: one 256 B read per ~580 cycles => ~4.4 kB / 10 us.
    // Target: hold >= 90 % of that.
    let policy = FeedbackController::new(
        crit_driver.clone(),
        4_000,
        drivers.clone(),
        8_192,
        256,
        8_192,
        512,
        10_000,
    );
    let samples = Rc::new(RefCell::new(Vec::new()));
    let sampler = BudgetSampler {
        driver: drivers[0].clone(),
        samples: Rc::clone(&samples),
        next_at: 0,
    };
    let mut builder = SocBuilder::new(SocConfig::default())
        .master_full(
            "critical",
            SpecSource::new(critical, 1),
            MasterKind::Cpu,
            crit_monitor,
            1,
        )
        .controller(policy)
        .controller(sampler)
        .record_windows(SAMPLE);
    for (i, reg) in regs.into_iter().enumerate() {
        // Interference switches on/off in 500 us phases.
        let spec = TrafficSpec::stream(
            (1 + i as u64) << 28,
            16 << 20,
            512,
            fgqos_sim::axi::Dir::Write,
        )
        .with_burst(BurstShape {
            on_cycles: 500_000,
            off_cycles: 500_000,
        });
        builder = builder.gated_master(
            format!("dma{i}"),
            SpecSource::new(spec, 100 + i as u64),
            MasterKind::Accelerator,
            reg,
        );
    }
    let mut soc = builder.build();
    soc.run(HORIZON);
    let crit_id = soc.master_id("critical").expect("critical");
    let be_id = soc.master_id("dma0").expect("dma0");
    let crit_w = soc
        .master_stats(crit_id)
        .window
        .as_ref()
        .expect("windows")
        .windows()
        .to_vec();
    let be_w = soc
        .master_stats(be_id)
        .window
        .as_ref()
        .expect("windows")
        .windows()
        .to_vec();
    let rows = timeline_rows(&crit_w, &be_w, &samples.borrow());
    rows
}

fn main() {
    let mut r = Report::new("exp_adaptive");
    r.banner("EXP-F5", "dynamic adaptation timelines (two policies)");
    // Both timelines simulate independently; rows come back in order.
    let mut sections = sweep::run_parallel(vec![0u8, 1], |which| match which {
        0 => section_a_reclaim(),
        _ => section_b_feedback(),
    });
    let section_b = sections.pop().expect("two sections");
    let section_a = sections.pop().expect("two sections");
    push_section(
        &mut r,
        (
            "EXP-F5a",
            "reclaim timeline: bursty critical, greedy best-effort",
        ),
        section_a,
    );
    push_section(
        &mut r,
        (
            "EXP-F5b",
            "AIMD feedback timeline: steady critical, bursty interference",
        ),
        section_b,
    );
    r.emit();
}
