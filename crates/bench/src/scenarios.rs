//! Canonical benchmark SoCs shared by the Criterion micro-benchmarks
//! (`benches/simulator.rs`) and the CI perf-smoke gate (`bin/perf_smoke`).
//!
//! Keeping these builders in one place guarantees the smoke test measures
//! *exactly* the configurations whose throughput is recorded in
//! `BENCH_sim.json` — a floor check against a different SoC would be
//! meaningless.

use fgqos_core::regulator::{RegulatorConfig, TcRegulator};
use fgqos_sim::axi::Dir;
use fgqos_sim::dram::DramConfig;
use fgqos_sim::master::{MasterKind, SequentialSource};
use fgqos_sim::snapshot::SocSnapshot;
use fgqos_sim::system::{Soc, SocBuilder, SocConfig};
use fgqos_workloads::spec::{SpecSource, TrafficSpec};

/// Cycle horizon of the `soc_cycles` Criterion group.
pub const SOC_CYCLES: u64 = 100_000;

/// Cycle horizon of the `regulated_cycles` Criterion group.
pub const REGULATED_CYCLES: u64 = 1_000_000;

/// Unregulated greedy streaming SoC: `masters` accelerator ports each
/// replaying a sequential read stream over an 8 MiB footprint.
pub fn greedy_soc(masters: usize) -> Soc {
    let cfg = SocConfig {
        dram: DramConfig {
            t_refi: 0,
            ..DramConfig::default()
        },
        ..SocConfig::default()
    };
    let mut b = SocBuilder::new(cfg);
    for i in 0..masters {
        let spec = TrafficSpec::stream((i as u64) << 28, 8 << 20, 512, Dir::Read);
        b = b.master(
            format!("m{i}"),
            SpecSource::new(spec, i as u64),
            MasterKind::Accelerator,
        );
    }
    b.build()
}

/// Tightly regulated SoC: every master spends most cycles gated by a
/// TC-regulator budget far below link rate, so the event-driven core has
/// long dead stretches to skip. This is the exp_* harness's common case.
pub fn regulated_soc(masters: usize) -> Soc {
    let cfg = SocConfig {
        dram: DramConfig {
            t_refi: 0,
            ..DramConfig::default()
        },
        ..SocConfig::default()
    };
    let mut b = SocBuilder::new(cfg);
    for i in 0..masters {
        let (reg, _driver) = TcRegulator::create(RegulatorConfig {
            period_cycles: 10_000,
            budget_bytes: 2_048,
            enabled: true,
            ..RegulatorConfig::default()
        });
        let spec = TrafficSpec::stream((i as u64) << 28, 8 << 20, 512, Dir::Read);
        b = b.gated_master(
            format!("m{i}"),
            SpecSource::new(spec, i as u64),
            MasterKind::Accelerator,
            reg,
        );
    }
    b.build()
}

/// Cycle horizon of the `steady_state_leap` perf case — long enough
/// that algebraic leaping dominates the wall clock.
pub const LEAP_CYCLES: u64 = 50_000_000;

/// Long saturated regulated SoC for the steady-state leap cases: two
/// unbounded sequential readers reusing a small buffer in place behind
/// tight TC-regulator budgets, DRAM refresh on. The 4 KiB footprint
/// makes the open-row pattern itself periodic, and the 1 950-cycle
/// window times the 4-window address pattern equals the 7 800-cycle
/// refresh interval — so the whole machine state recurs and the leap
/// engine can cross almost the entire horizon algebraically. This is
/// the configuration whose leap speedup is recorded in
/// `BENCH_sim.json` (`steady_state_leap`).
pub fn leap_soc() -> Soc {
    let mut b = SocBuilder::new(SocConfig::default());
    for i in 0..2u64 {
        let (reg, _driver) = TcRegulator::create(RegulatorConfig {
            period_cycles: 1_950,
            budget_bytes: 1_024,
            enabled: true,
            ..RegulatorConfig::default()
        });
        b = b.gated_master(
            format!("m{i}"),
            SequentialSource::reads(i << 28, 256, u64::MAX).with_footprint(4_096),
            MasterKind::Accelerator,
            reg,
        );
    }
    b.build()
}

/// Warm-up cycles run before the boundary of [`warm_start_snapshot`].
pub const WARM_START_PREFIX_CYCLES: u64 = 1_000_000;

/// Cycle horizon of the forked tail in the `warm_start` perf case.
pub const WARM_START_TAIL_CYCLES: u64 = 1_000_000;

/// Quiesced boundary snapshot of the regulated 4-master SoC after a
/// warmed-up prefix run. The `warm_start` perf case measures the sweep
/// inner loop — fork this snapshot, run the divergent tail — so the
/// prefix cost stays outside the timed region, exactly as it does in
/// the `exp_granularity` sweep.
pub fn warm_start_snapshot() -> SocSnapshot {
    let mut soc = regulated_soc(4);
    soc.run(WARM_START_PREFIX_CYCLES);
    soc.quiesce_point(100_000)
        .expect("tightly regulated masters quiesce within ten windows");
    soc.snapshot().expect("every benchmark component forks")
}
