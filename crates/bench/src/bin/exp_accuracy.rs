//! EXP-F2 — Regulation accuracy: configured vs. measured bandwidth.
//!
//! A single greedy streaming master is regulated to a sweep of bandwidth
//! set-points by (a) the tightly-coupled regulator with a 10 µs window
//! and (b) software MemGuard with a 1 ms tick and realistic interrupt
//! enforcement latency. The tightly-coupled regulator tracks the
//! set-point closely across the whole range; MemGuard overshoots at low
//! set-points because a greedy master blows through the budget during the
//! interrupt latency of every tick.
//!
//! A leaky-bucket variant at the same rate (depth = one window budget)
//! is included: same accuracy, different burst structure.
//!
//! Printed columns: scheme, configured MiB/s, measured MiB/s, relative
//! error %, worst bytes past the budget in any replenishment interval
//! (measured uniformly from per-window completion records).

use fgqos_baselines::memguard::{MemGuardConfig, MemGuardGate};
use fgqos_bench::report::Report;
use fgqos_bench::{sweep, table};
use fgqos_core::bucket::{BucketConfig, LeakyBucketRegulator};
use fgqos_core::regulator::{RegulatorConfig, TcRegulator};
use fgqos_sim::axi::{Dir, MasterId};
use fgqos_sim::master::MasterKind;
use fgqos_sim::system::{Soc, SocBuilder, SocConfig};
use fgqos_sim::time::{Bandwidth, Freq};
use fgqos_workloads::spec::{SpecSource, TrafficSpec};

const RUN_CYCLES: u64 = 10_000_000;
const TC_PERIOD: u64 = 10_000; // 10 us at 1 GHz
const MG_TICK: u64 = 1_000_000; // 1 ms
const MG_IRQ: u64 = 2_000; // 2 us interrupt enforcement latency

fn greedy_source(seed: u64) -> SpecSource {
    SpecSource::new(TrafficSpec::stream(0, 16 << 20, 256, Dir::Read), seed)
}

/// Builds the regulated single-master SoC for one grid point, window
/// recording already armed. Returns the SoC plus the byte budget of one
/// replenishment interval (the overshoot reference).
fn build_point(gate_kind: &str, set_point_mib: f64) -> (Soc, u64) {
    let freq = Freq::default();
    let bw = Bandwidth::from_mib_per_s(set_point_mib);
    let mut builder = SocBuilder::new(SocConfig::default());
    // Every scheme's worst interval is measured the same way: per-window
    // completed bytes at the scheme's own replenishment interval.
    let interval = if gate_kind == "memguard" {
        MG_TICK
    } else {
        TC_PERIOD
    };
    let budget_for_interval = bw.to_window_budget(interval, freq);
    builder = match gate_kind {
        "tc-regulator" => {
            let budget = bw.to_window_budget(TC_PERIOD, freq) as u32;
            let (reg, _driver) = TcRegulator::create(RegulatorConfig {
                period_cycles: TC_PERIOD as u32,
                budget_bytes: budget,
                enabled: true,
                ..RegulatorConfig::default()
            });
            builder.gated_master("dma", greedy_source(1), MasterKind::Accelerator, reg)
        }
        "memguard" => {
            let budget = bw.to_window_budget(MG_TICK, freq);
            builder.gated_master(
                "dma",
                greedy_source(1),
                MasterKind::Accelerator,
                MemGuardGate::new(MemGuardConfig {
                    tick_cycles: MG_TICK,
                    budget_bytes: budget,
                    irq_latency_cycles: MG_IRQ,
                }),
            )
        }
        "leaky-bucket" => {
            let budget = bw.to_window_budget(TC_PERIOD, freq);
            builder.gated_master(
                "dma",
                greedy_source(1),
                MasterKind::Accelerator,
                LeakyBucketRegulator::new(BucketConfig {
                    budget_bytes: budget as u32,
                    period_cycles: TC_PERIOD as u32,
                    depth_bytes: (budget as u32).max(256),
                    ..BucketConfig::default()
                }),
            )
        }
        other => panic!("unknown scheme {other}"),
    };
    let mut soc = builder.build();
    soc.master_mut(MasterId::new(0)).record_windows(interval);
    (soc, budget_for_interval)
}

/// Runs the measured segment and reduces to (measured MiB/s, worst
/// overshoot bytes).
fn measure(mut soc: Soc, budget_for_interval: u64) -> (f64, u64) {
    soc.run(RUN_CYCLES);
    let measured = soc.master_bandwidth(MasterId::new(0)).mib_per_s();
    let worst_window = soc
        .master_stats(MasterId::new(0))
        .window
        .as_ref()
        .expect("recording on")
        .max_window();
    (measured, worst_window.saturating_sub(budget_for_interval))
}

fn result_row(scheme: &str, set: f64, measured: f64, overshoot: u64) -> Vec<String> {
    vec![
        scheme.to_string(),
        table::f2(set),
        table::f2(measured),
        table::f2((measured - set) / set * 100.0),
        table::int(overshoot),
    ]
}

fn main() {
    let mut r = Report::new("exp_accuracy");
    r.banner(
        "EXP-F2",
        "regulation accuracy: configured vs. measured bandwidth",
    );
    r.context("tc window", format!("{TC_PERIOD} cycles (10 us)"));
    r.context("memguard tick/irq", format!("{MG_TICK} / {MG_IRQ} cycles"));
    r.header(&["scheme", "set_mibs", "meas_mibs", "err_pct", "overshoot_B"]);
    let points: Vec<(&str, f64)> = ["tc-regulator", "leaky-bucket", "memguard"]
        .into_iter()
        .flat_map(|scheme| {
            [64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0]
                .into_iter()
                .map(move |set| (scheme, set))
        })
        .collect();
    let rows = sweep::run_parallel(points, |(scheme, set)| {
        let (soc, budget) = build_point(scheme, set);
        let (measured, overshoot) = measure(soc, budget);
        result_row(scheme, set, measured, overshoot)
    });
    for row in rows {
        r.row(row);
    }
    r.emit();
}
