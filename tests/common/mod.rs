//! Fixtures shared by the equivalence suites (`fast_forward`,
//! `snapshot`, `leap`, `observability`, `scenario_v2`): the random
//! master generator, the closed-loop policy machine and the statistics
//! fingerprint they compare. Each suite uses a subset of them.

#![allow(dead_code)]

use fgqos::baselines::prelude::*;
use fgqos::core::prelude::*;
use fgqos::prelude::*;
use fgqos::sim::axi::{Dir, MasterId};
use fgqos::sim::gate::{OpenGate, PortGate};
use fgqos::sim::master::TrafficSource;
use fgqos::sim::stats::LatencyStats;
use fgqos::sim::system::Soc;
use fgqos::workloads::prelude::*;
use proptest::prelude::*;

/// One randomly drawn master: a gate family, a source family and two
/// free parameters that shape both.
#[derive(Debug, Clone, Copy)]
pub struct MasterSpec {
    pub gate_sel: u8,
    pub src_sel: u8,
    pub seed: u64,
    pub p1: u64,
    pub p2: u64,
}

/// Number of gate families and of source families a [`MasterSpec`]
/// selects from.
pub const FAMILIES: u8 = 6;

/// One master whose first free parameter lies below `p1_max` (small
/// values mean tight replenish windows).
pub fn master_spec(p1_max: u64) -> impl Strategy<Value = MasterSpec> {
    (
        0u8..FAMILIES,
        0u8..FAMILIES,
        0u64..1_000,
        0u64..p1_max,
        0u64..10_000,
    )
        .prop_map(|(gate_sel, src_sel, seed, p1, p2)| MasterSpec {
            gate_sel,
            src_sel,
            seed,
            p1,
            p2,
        })
}

/// One to three masters.
pub fn master_specs() -> impl Strategy<Value = Vec<MasterSpec>> {
    prop::collection::vec(master_spec(10_000), 1..4)
}

/// The bounded traffic source `m` selects, placed at master `i`'s base
/// address.
pub fn make_source(i: usize, m: MasterSpec) -> Box<dyn TrafficSource> {
    let base = (i as u64) << 28;
    match m.src_sel {
        // Greedy sequential stream with a small gap.
        0 => {
            let spec = TrafficSpec {
                gap: m.p1 % 64,
                ..TrafficSpec::stream(base, 1 << 20, 256, Dir::Read)
            }
            .with_total(200);
            Box::new(SpecSource::new(spec, m.seed))
        }
        // On/off shaped stream with a write mix.
        1 => {
            let spec = TrafficSpec::stream(base, 1 << 20, 128, Dir::Read)
                .with_write_ratio(0.3)
                .with_burst(BurstShape {
                    on_cycles: 50 + m.p1 % 200,
                    off_cycles: 1 + m.p2 % 400,
                })
                .with_total(150);
            Box::new(SpecSource::new(spec, m.seed))
        }
        // Closed-loop latency-sensitive random reader.
        2 => {
            let spec =
                TrafficSpec::latency_sensitive(base, 1 << 20, 64, 10 + m.p1 % 300).with_total(120);
            Box::new(SpecSource::new(spec, m.seed))
        }
        // Captured trace replayed twice.
        3 => {
            let spec = TrafficSpec {
                gap: m.p1 % 100,
                ..TrafficSpec::stream(base, 1 << 20, 256, Dir::Read)
            }
            .with_total(60);
            let records = TraceSource::from_spec(spec, m.seed, 60).records().to_vec();
            Box::new(TraceSource::with_loops(records, 2))
        }
        // One iteration of a benchmark kernel's phase model.
        4 => {
            let kernel = Kernel::all()[(m.p1 % 6) as usize];
            Box::new(kernel.source(base, 1, m.seed))
        }
        // A cached core: a small footprint mixes hits and misses.
        _ => {
            let spec =
                TrafficSpec::latency_sensitive(base, 16 << 10, 64, 10 + m.p1 % 300).with_total(200);
            let cache = CacheConfig {
                size_bytes: 4 << 10,
                ..CacheConfig::default()
            };
            Box::new(CachedSource::new(SpecSource::new(spec, m.seed), cache))
        }
    }
}

/// The port gate `m` selects; family 0 is an open (unregulated) port.
pub fn make_gate(m: MasterSpec) -> Box<dyn PortGate> {
    match m.gate_sel {
        0 => Box::new(OpenGate),
        1 => {
            let (reg, _driver) = TcRegulator::create(RegulatorConfig {
                period_cycles: 128 + (m.p1 % 2_000) as u32,
                budget_bytes: 512 + (m.p2 % 8_000) as u32,
                enabled: true,
                ..RegulatorConfig::default()
            });
            Box::new(reg)
        }
        2 => Box::new(MemGuardGate::new(MemGuardConfig {
            tick_cycles: 500 + m.p1 % 4_000,
            budget_bytes: 256 + m.p2 % 4_000,
            irq_latency_cycles: m.p1 % 300,
        })),
        3 => {
            let slot = 200 + m.p1 % 800;
            let slots = 2 + (m.p2 % 3) as usize;
            let mine = (m.p1 % slots as u64) as usize;
            let guard = m.p2 % (slot / 4);
            Box::new(TdmaGate::new(
                TdmaSchedule::new(slot, slots),
                vec![mine],
                guard,
            ))
        }
        4 => Box::new(OtRegulatorGate::new(OtRegulatorConfig {
            max_outstanding: 1 + (m.p1 % 8) as usize,
            txns_per_period: if m.p2.is_multiple_of(2) {
                1 + (m.p2 % 6) as u32
            } else {
                0
            },
            period_cycles: 500 + m.p1 % 2_000,
        })),
        _ => Box::new(LeakyBucketRegulator::new(BucketConfig {
            budget_bytes: 512 + (m.p2 % 4_000) as u32,
            period_cycles: 128 + (m.p1 % 2_000) as u32,
            depth_bytes: 512 + (m.p1 % 4_000) as u32,
            ..BucketConfig::default()
        })),
    }
}

/// The master kind `m` implies: the closed-loop reader is a CPU.
pub fn master_kind(m: MasterSpec) -> MasterKind {
    if m.src_sel == 2 {
        MasterKind::Cpu
    } else {
        MasterKind::Accelerator
    }
}

/// The machine `specs` draw, DRAM refresh on or off, on the naive core
/// or the event calendar.
pub fn build_soc(specs: &[MasterSpec], refresh: bool, naive: bool) -> Soc {
    let cfg = SocConfig {
        dram: DramConfig {
            t_refi: if refresh {
                DramConfig::default().t_refi
            } else {
                0
            },
            ..DramConfig::default()
        },
        ..SocConfig::default()
    };
    let mut b = SocBuilder::new(cfg);
    for (i, &m) in specs.iter().enumerate() {
        b = b.gated_master(
            format!("m{i}"),
            make_source(i, m),
            master_kind(m),
            make_gate(m),
        );
    }
    let mut soc = b.build();
    soc.set_naive(naive);
    soc
}

/// Builds the closed-loop stack: a critical reader behind a
/// monitor-only regulator, TC-regulated best-effort streams and a
/// software policy reprogramming budgets each control period. With
/// `irq_latency`, an IRQ dispatcher also acknowledges exhaustion
/// interrupts; dispatchers hold closures, so that machine refuses
/// snapshots.
pub fn build_policy_soc(
    seed: u64,
    control_period: u64,
    use_feedback: bool,
    irq_latency: Option<u64>,
) -> Soc {
    let cfg = SocConfig {
        dram: DramConfig {
            t_refi: 0,
            ..DramConfig::default()
        },
        ..SocConfig::default()
    };
    let (crit_reg, crit_driver) = TcRegulator::create(RegulatorConfig {
        period_cycles: 1_000,
        budget_bytes: u32::MAX,
        enabled: true,
        ..RegulatorConfig::default()
    });
    let crit_spec = TrafficSpec::latency_sensitive(0, 1 << 20, 64, 50 + seed % 200).with_total(150);
    let mut b = SocBuilder::new(cfg).gated_master(
        "critical",
        SpecSource::new(crit_spec, seed),
        MasterKind::Cpu,
        crit_reg,
    );

    let mut be_drivers = Vec::new();
    for i in 0..2u64 {
        let (reg, driver) = TcRegulator::create(RegulatorConfig {
            period_cycles: 1_000,
            budget_bytes: 2_048,
            enabled: true,
            ..RegulatorConfig::default()
        });
        let spec = TrafficSpec::stream((i + 1) << 28, 1 << 20, 256, Dir::Read).with_total(300);
        b = b.gated_master(
            format!("be{i}"),
            SpecSource::new(spec, seed ^ (i + 1)),
            MasterKind::Accelerator,
            reg,
        );
        be_drivers.push(driver);
    }

    if let Some(latency) = irq_latency {
        let mut irq = IrqDispatcher::new(latency);
        for d in &be_drivers {
            irq.connect(d.clone(), Box::new(|d, _| d.clear_exhausted()));
        }
        b = b.controller(irq);
    }

    if use_feedback {
        // Floor of one full burst: the conservative overshoot policy
        // denies any burst larger than the whole budget, so a lower floor
        // would starve the BE ports outright.
        b = b.controller(FeedbackController::new(
            crit_driver,
            2_000,
            be_drivers,
            2_048,
            256,
            8_192,
            256,
            control_period,
        ));
    } else {
        b = b.controller(ReclaimPolicy::new(
            crit_driver,
            be_drivers,
            ReclaimConfig {
                critical_reserved: 4_096,
                be_base: 1_024,
                control_period,
                gain: 2,
                busy_threshold: Some(2_048),
            },
        ));
    }
    b.build()
}

/// Full histogram snapshot: count, min, max and every non-empty bucket.
pub type LatKey = (u64, u64, u64, Vec<(u64, u64)>);

pub fn lat_key(l: &LatencyStats) -> LatKey {
    (l.count(), l.min(), l.max(), l.nonzero_buckets().collect())
}

pub type MasterKey = (u64, u64, u64, u64, u64, LatKey, LatKey);
pub type DramKey = (u64, u64, u64, u64, u64, u64, u64, LatKey);

/// Every master's and the DRAM's statistics, latency histograms in
/// full. `Soc::fingerprint()` folds the core selector into its stream
/// (naive and calendar state never compare equal by design), so
/// cross-core equivalence is asserted over these statistics instead.
pub fn stats_fingerprint(soc: &Soc) -> (Vec<MasterKey>, DramKey) {
    let masters = (0..soc.master_count())
        .map(|i| {
            let st = soc.master_stats(MasterId::new(i));
            (
                st.issued_txns,
                st.completed_txns,
                st.bytes_completed,
                st.gate_stall_cycles,
                st.fifo_stall_cycles,
                lat_key(&st.latency),
                lat_key(&st.service_latency),
            )
        })
        .collect();
    let d = soc.dram_stats();
    let dram = (
        d.bytes_completed,
        d.reads,
        d.writes,
        d.row_hits,
        d.row_misses,
        d.bus_busy_cycles,
        d.refreshes,
        lat_key(&d.queue_wait),
    );
    (masters, dram)
}
