//! Outcome ablations of the regulator's design choices (DESIGN.md §4).
//!
//! Four design decisions of the IP are flipped one at a time in the
//! standard co-run scenario (1 critical + 6 regulated interferers at
//! 1 KiB/µs each):
//!
//! 1. **Charge point** — debit at the address handshake vs. at
//!    completion. Completion charging leaves in-flight bytes unaccounted
//!    and overshoots by up to `outstanding × burst` per window.
//! 2. **Overshoot policy** — conservative (burst must fit) vs.
//!    final-burst (admit while any budget remains).
//! 3. **Arbitration** — round-robin vs. fixed-priority-for-critical at
//!    the crossbar, interacting with regulation.
//! 4. **Window coarseness** — the same average bandwidth at 6× coarser
//!    windows.
//! 5. **Window vs. token bucket** — the same average rate replenished
//!    continuously instead of per-window.
//! 6. **Byte-based vs. transaction-based (QoS-400)** — the COTS
//!    outstanding/rate regulation at the same nominal transaction rate.
//!
//! Printed columns: variant, critical slowdown, critical p99 latency,
//! max per-window overshoot (bytes), best-effort GiB/s.

use fgqos_baselines::qos400::{OtRegulatorConfig, OtRegulatorGate};
use fgqos_bench::corun::{self, CoRun, Scheme};
use fgqos_bench::report::Report;
use fgqos_bench::{sweep, table};
use fgqos_core::bucket::{BucketConfig, LeakyBucketRegulator};
use fgqos_core::driver::RegulatorDriver;
use fgqos_core::regulator::{ChargePolicy, OvershootPolicy, RegulatorConfig, TcRegulator};
use fgqos_sim::gate::PortGate;
use fgqos_sim::interconnect::Arbitration;
use fgqos_sim::master::MasterKind;
use fgqos_sim::system::{SocBuilder, SocConfig};
use fgqos_workloads::spec::SpecSource;

struct Outcome {
    slowdown: f64,
    p99: u64,
    overshoot: u64,
    be_gibs: f64,
}

/// Runs the standard co-run with a hand-built gate on every interferer:
/// the regulator-internal variants no `.fgq` key exposes. `gate` may
/// register the regulator's driver for overshoot telemetry.
fn run_gated(
    scenario: &CoRun,
    iso: u64,
    arbitration: Arbitration,
    mut gate: impl FnMut(&mut Vec<RegulatorDriver>) -> Box<dyn PortGate>,
) -> Outcome {
    let (crit_monitor, _crit_driver) = TcRegulator::monitor_only(1_000);
    let mut cfg = SocConfig::default();
    cfg.xbar.arbitration = arbitration;
    let mut builder = SocBuilder::new(cfg).master_full(
        "critical",
        SpecSource::new(scenario.critical_spec(), scenario.seed),
        MasterKind::Cpu,
        crit_monitor,
        scenario.critical_outstanding,
    );
    let mut drivers = Vec::new();
    for i in 0..scenario.interferers {
        builder = builder.gated_master(
            format!("dma{i}"),
            SpecSource::new(scenario.interferer_spec(i), scenario.seed + 100 + i as u64),
            MasterKind::Accelerator,
            gate(&mut drivers),
        );
    }
    let mut soc = builder.build();
    let critical = soc.master_id("critical").expect("critical");
    let cycles = soc
        .run_until_done(critical, u64::MAX / 2)
        .expect("finishes")
        .get();
    let st = soc.master_stats(critical);
    let mut be_bytes = 0u64;
    for i in 0..scenario.interferers {
        let id = soc.master_id(&format!("dma{i}")).expect("dma");
        be_bytes += soc.master_stats(id).bytes_completed;
    }
    Outcome {
        slowdown: cycles as f64 / iso as f64,
        p99: st.latency.percentile(0.99),
        overshoot: drivers
            .iter()
            .map(|d| d.telemetry().max_overshoot)
            .max()
            .unwrap_or(0),
        be_gibs: be_bytes as f64 / cycles as f64 * 1e9 / (1024.0 * 1024.0 * 1024.0),
    }
}

/// One ablation point of the parallel sweep.
#[derive(Clone, Copy)]
enum Variant {
    /// Sanity anchor; printed as a context line, not a table row.
    Unregulated,
    Tc {
        name: &'static str,
        charge: ChargePolicy,
        overshoot: OvershootPolicy,
        arb: Arbitration,
        period: u32,
        budget: u32,
    },
    LeakyBucket,
    Qos400 {
        name: &'static str,
        txn_bytes: u64,
    },
}

fn main() {
    let mut r = Report::new("exp_ablations");
    r.banner(
        "EXP-A",
        "design-choice ablations of the tightly-coupled regulator",
    );
    let scenario = CoRun {
        interferer_txn_bytes: 512,
        ..CoRun::default()
    };
    let iso = scenario.isolation_cycles();

    let tc = |name, charge, overshoot, arb| Variant::Tc {
        name,
        charge,
        overshoot,
        arb,
        period: 1_000,
        budget: 1_024,
    };
    let points = vec![
        Variant::Unregulated,
        tc(
            "baseline",
            ChargePolicy::Acceptance,
            OvershootPolicy::Conservative,
            Arbitration::RoundRobin,
        ),
        tc(
            "charge@done",
            ChargePolicy::Completion,
            OvershootPolicy::Conservative,
            Arbitration::RoundRobin,
        ),
        tc(
            "final-burst",
            ChargePolicy::Acceptance,
            OvershootPolicy::FinalBurst,
            Arbitration::RoundRobin,
        ),
        tc(
            "fixed-prio",
            ChargePolicy::Acceptance,
            OvershootPolicy::Conservative,
            Arbitration::FixedPriority,
        ),
        // Same average bandwidth, 6x coarser windows.
        Variant::Tc {
            name: "coarse-6x",
            charge: ChargePolicy::Acceptance,
            overshoot: OvershootPolicy::Conservative,
            arb: Arbitration::RoundRobin,
            period: 6_000,
            budget: 6_144,
        },
        // Token bucket at the same average rate, depth = one window
        // budget: smoother injection, no aligned-window guarantee.
        Variant::LeakyBucket,
        // QoS-400-style regulation at the same *nominal* transaction
        // rate (2 x 512 B txns per us): byte-blind, so its enforcement
        // quality depends entirely on the burst size staying what the
        // integrator assumed.
        Variant::Qos400 {
            name: "qos400-ot",
            txn_bytes: 512,
        },
        // The byte-blindness: the *same* QoS-400 configuration, but the
        // accelerators switch to 4 KiB bursts. The transaction-rate cap
        // still admits 2 txns/us -- now 8x the bytes. The byte-based
        // regulator's enforcement would be unchanged.
        Variant::Qos400 {
            name: "qos400-4k-burst",
            txn_bytes: 4_096,
        },
    ];

    let results = sweep::run_parallel(points, |variant| match variant {
        Variant::Unregulated => {
            let (unreg_cycles, _, _) = corun::run(&scenario.fgq(Scheme::Unregulated));
            (
                "unregulated",
                Outcome {
                    slowdown: unreg_cycles as f64 / iso as f64,
                    p99: 0,
                    overshoot: 0,
                    be_gibs: 0.0,
                },
            )
        }
        Variant::Tc {
            name,
            charge,
            overshoot,
            arb,
            period,
            budget,
        } => (
            name,
            run_gated(&scenario, iso, arb, |drivers| {
                let (reg, driver) = TcRegulator::create(RegulatorConfig {
                    period_cycles: period,
                    budget_bytes: budget,
                    enabled: true,
                    charge,
                    overshoot,
                    ..RegulatorConfig::default()
                });
                drivers.push(driver);
                Box::new(reg)
            }),
        ),
        Variant::LeakyBucket => (
            "leaky-bucket",
            run_gated(&scenario, iso, Arbitration::RoundRobin, |_| {
                Box::new(LeakyBucketRegulator::new(BucketConfig {
                    budget_bytes: 1_024,
                    period_cycles: 1_000,
                    depth_bytes: 1_024,
                    ..BucketConfig::default()
                }))
            }),
        ),
        Variant::Qos400 { name, txn_bytes } => {
            let s = CoRun {
                interferer_txn_bytes: txn_bytes,
                ..scenario.clone()
            };
            (
                name,
                run_gated(&s, iso, Arbitration::RoundRobin, |_| {
                    Box::new(OtRegulatorGate::new(OtRegulatorConfig {
                        max_outstanding: 2,
                        txns_per_period: 2,
                        period_cycles: 1_000,
                    }))
                }),
            )
        }
    });

    r.context("isolation_cycles", iso);
    r.context(
        "unregulated slowdown",
        format!("{:.2}", results[0].1.slowdown),
    );
    r.header(&["variant", "slowdown", "p99_lat", "overshoot_B", "be_gibs"]);
    for (name, o) in &results[1..] {
        r.row(vec![
            (*name).into(),
            table::f2(o.slowdown),
            table::int(o.p99),
            table::int(o.overshoot),
            table::f2(o.be_gibs),
        ]);
    }
    r.emit();
}
