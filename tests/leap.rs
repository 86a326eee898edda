//! Equivalence and liveness properties for the steady-state leap engine.
//!
//! The leap engine (`fgqos::sim::leap`) detects periodic steady state at
//! quiesced boundaries and advances the clock algebraically. Its whole
//! contract is *bit-identity*: a run with leaping enabled must be
//! indistinguishable — to the architectural fingerprint, the statistics
//! (latency histograms included) and the rendered report bytes — from the
//! same run simulated cycle by cycle. Every test here builds the same
//! scenario twice (leap on / leap off via [`Soc::set_leap`]) and requires
//! exact agreement; the deterministic tests additionally require that
//! leaps actually *fired*, so the properties are never vacuous.

use fgqos::baselines::prelude::*;
use fgqos::core::prelude::*;
use fgqos::prelude::*;
use fgqos::sim::axi::{Dir, MasterId};
use fgqos::sim::snapshot::SocSnapshot;
use fgqos::sim::system::Soc;
use fgqos::sim::SnapshotBlob;
use fgqos::workloads::prelude::*;
use proptest::prelude::*;

mod common;
use common::stats_fingerprint;

/// Bound for quiesce searches (same rationale as `tests/snapshot.rs`).
const QUIESCE_BOUND: u64 = 20_000_000;

/// A saturated TC-regulated SoC: unbounded greedy streams, tight byte
/// budgets, DRAM refresh on — the workload class the leap engine exists
/// for. Every component opts into leaping, so a long run must converge
/// to a detected period.
fn build_saturated_soc(masters: u64, period: u32, budget: u32, refresh: bool) -> Soc {
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
    for i in 0..masters {
        let (reg, _driver) = TcRegulator::create(RegulatorConfig {
            period_cycles: period,
            budget_bytes: budget,
            enabled: true,
            ..RegulatorConfig::default()
        });
        // A small footprint makes the DRAM row pattern itself periodic —
        // a streaming buffer reused in place, the workload class the
        // leap engine targets.
        b = b.gated_master(
            format!("m{i}"),
            SequentialSource::reads(i << 28, 256, u64::MAX).with_footprint(4_096),
            MasterKind::Accelerator,
            reg,
        );
    }
    b.build()
}

/// The headline liveness + identity test: a long saturated regulated
/// run leaps (skipping the overwhelming majority of its cycles) and
/// still lands bit-identical to the cycle-accurate calendar run.
#[test]
fn leap_fires_and_matches_calendar_on_saturated_run() {
    const HORIZON: u64 = 5_000_000;

    // Window period 1950 × the 4-window footprint pattern = 7800 cycles,
    // commensurate with the default refresh interval (t_refi = 7800), so
    // the machine's true steady-state period is one refresh interval.
    let mut leaping = build_saturated_soc(2, 1_950, 1_024, true);
    leaping.set_leap(true);
    leaping.run(HORIZON);
    let t = leaping.leap_telemetry();
    assert!(t.enabled, "nothing in this scenario denies leaping");
    assert!(t.leaps > 0, "no leap fired in {HORIZON} cycles: {t:?}");
    assert!(
        t.cycles_skipped > HORIZON / 2,
        "leaping should skip most of a saturated run: {t:?}"
    );
    assert_eq!(leaping.now().get(), HORIZON, "leap overshot the deadline");

    let mut plain = build_saturated_soc(2, 1_950, 1_024, true);
    plain.set_leap(false);
    plain.run(HORIZON);
    assert_eq!(plain.leap_telemetry().leaps, 0);

    assert_eq!(
        stats_fingerprint(&leaping),
        stats_fingerprint(&plain),
        "leaped run diverged from the plain calendar run"
    );
}

/// Leaping composes with the naive-core equivalence contract: leap-on
/// fast-forward, plain fast-forward and naive stepping all agree.
#[test]
fn leap_matches_naive_stepping() {
    const HORIZON: u64 = 400_000;
    let mut leaping = build_saturated_soc(1, 512, 768, false);
    leaping.set_leap(true);
    leaping.run(HORIZON);
    assert!(
        leaping.leap_telemetry().leaps > 0,
        "saturated single-master run must leap"
    );

    let mut naive = build_saturated_soc(1, 512, 768, false);
    naive.set_naive(true);
    naive.run(HORIZON);

    assert_eq!(stats_fingerprint(&leaping), stats_fingerprint(&naive));
}

/// The deadline landing is exact: leaps land on (never past) the run
/// deadline, and back-to-back `run` calls see the same state as one
/// long run.
#[test]
fn leap_respects_segmented_deadlines() {
    let mut segmented = build_saturated_soc(1, 1_024, 512, false);
    segmented.set_leap(true);
    for _ in 0..10 {
        segmented.run(300_000);
    }
    assert!(segmented.leap_telemetry().leaps > 0);

    let mut whole = build_saturated_soc(1, 1_024, 512, false);
    whole.set_leap(true);
    whole.run(3_000_000);

    assert_eq!(segmented.now(), whole.now());
    assert_eq!(stats_fingerprint(&segmented), stats_fingerprint(&whole));
}

/// Refresh storms are one-shot absolute-time events: the engine must
/// not leap across a storm edge it has not simulated. The run is long
/// enough to leap before, through (denied), and after the storm window.
#[test]
fn leap_lands_before_refresh_storms() {
    const HORIZON: u64 = 3_000_000;
    let build = || {
        let cfg = SocConfig {
            dram: DramConfig {
                storms: vec![RefreshStorm {
                    start: 700_000,
                    end: 760_000,
                    interval: 200,
                }],
                ..DramConfig::default()
            },
            ..SocConfig::default()
        };
        let (reg, _driver) = TcRegulator::create(RegulatorConfig {
            // Commensurate with t_refi (4 windows × 1950 = 7800), so the
            // pre- and post-storm steady states have a short true period.
            period_cycles: 1_950,
            budget_bytes: 1_024,
            enabled: true,
            ..RegulatorConfig::default()
        });
        SocBuilder::new(cfg)
            .gated_master(
                "dma",
                SequentialSource::reads(0, 256, u64::MAX).with_footprint(4_096),
                MasterKind::Accelerator,
                reg,
            )
            .build()
    };

    let mut leaping = build();
    leaping.set_leap(true);
    leaping.run(HORIZON);
    assert!(leaping.leap_telemetry().leaps > 0);

    let mut plain = build();
    plain.set_leap(false);
    plain.run(HORIZON);

    assert!(plain.dram_stats().refreshes > 0, "storm never fired");
    assert_eq!(stats_fingerprint(&leaping), stats_fingerprint(&plain));
}

/// Satellite: snapshot/blob round-trip from a *leaped* boundary. A
/// snapshot taken after the clock leaped must encode, decode, load and
/// fork exactly like one taken from a cycle-accurate run — leaping is
/// an execution strategy, never architectural state.
#[test]
fn snapshot_from_leaped_run_matches_cold_run() {
    const PREFIX: u64 = 2_000_000;
    const EXTRA: u64 = 500_000;
    let build = || build_saturated_soc(2, 1_950, 1_024, true);

    let mut warm = build();
    warm.set_leap(true);
    warm.run(PREFIX);
    assert!(
        warm.leap_telemetry().leaps > 0,
        "prefix must actually leap for this test to mean anything"
    );
    let tq = warm
        .quiesce_point(QUIESCE_BOUND)
        .expect("regulated streams quiesce between windows");
    let snap = warm.snapshot().expect("quiesced soc snapshots");
    assert!(snap.verify());

    // Through the wire format and back into a fresh skeleton.
    let encoded = snap.to_blob("leaped-soc").encode();
    let blob = SnapshotBlob::decode(&encoded).expect("fresh blob decodes");
    assert_eq!(blob.fingerprint, snap.fingerprint());
    let restored =
        SocSnapshot::load_into(build(), &blob).expect("leaped state loads into a cold skeleton");
    assert_eq!(restored.fingerprint(), snap.fingerprint());

    // The restored fork continues with leaping re-enabled and still
    // matches a cold cycle-accurate run to the same horizon.
    let mut fork = restored.fork();
    fork.set_leap(true);
    fork.run(EXTRA);
    assert!(fork.now().get() >= tq.get() + EXTRA);

    let mut cold = build();
    cold.set_leap(false);
    cold.run(PREFIX);
    assert_eq!(
        cold.quiesce_point(QUIESCE_BOUND),
        Some(tq),
        "quiesce boundary must be leap-invariant"
    );
    cold.run(EXTRA);

    assert_eq!(fork.now(), cold.now());
    assert_eq!(
        stats_fingerprint(&fork),
        stats_fingerprint(&cold),
        "fork from a leaped boundary diverged from the cold run"
    );
}

/// A sequential 256-byte read stream over a 4 KiB buffer, one request
/// every `gap` cycles (0 = greedy).
fn buffer_stream(gap: u64) -> TrafficSpec {
    TrafficSpec {
        gap,
        ..TrafficSpec::stream(0, 4_096, 256, Dir::Read)
    }
}

fn tc_regulator(period: u32, budget: u32) -> (TcRegulator, RegulatorDriver) {
    TcRegulator::create(RegulatorConfig {
        period_cycles: period,
        budget_bytes: budget,
        enabled: true,
        ..RegulatorConfig::default()
    })
}

/// One master behind `gate`. Gapped traffic drains between requests, so
/// the engine probes quiesced boundaries from the first window on.
fn one_port(source: impl TrafficSource + 'static, gate: impl PortGate + 'static) -> Soc {
    SocBuilder::new(SocConfig::default())
        .gated_master("m0", source, MasterKind::Accelerator, gate)
        .build()
}

/// A monitor-only critical port plus one TC-regulated best-effort port,
/// under the controller `policy` builds from their two drivers.
fn under_policy<C: Controller>(policy: impl FnOnce(RegulatorDriver, RegulatorDriver) -> C) -> Soc {
    let (crit, crit_driver) = TcRegulator::monitor_only(1_024);
    let (be, be_driver) = tc_regulator(1_024, 1_024);
    SocBuilder::new(SocConfig::default())
        .gated_master(
            "crit",
            SpecSource::new(buffer_stream(400), 1),
            MasterKind::Cpu,
            crit,
        )
        .gated_master(
            "be",
            SpecSource::new(buffer_stream(400), 2),
            MasterKind::Accelerator,
            be,
        )
        .controller(policy(crit_driver, be_driver))
        .build()
}

/// Builds one small machine.
type Machine = fn() -> Soc;

/// Every component that cannot prove time-translation safety declares no
/// leaping in its state walk: the engine disarms and the run degrades
/// gracefully to the plain calendar. One small machine per component.
#[test]
fn unsupported_components_disarm_the_engine() {
    fn gapped() -> SpecSource {
        SpecSource::new(buffer_stream(400), 5)
    }
    let rows: [(&str, Machine); 12] = [
        ("trace source", || {
            let spec = TrafficSpec {
                gap: 10,
                ..TrafficSpec::stream(0, 1 << 20, 256, Dir::Read)
            }
            .with_total(50);
            let records = TraceSource::from_spec(spec, 5, 50).records().to_vec();
            one_port(TraceSource::with_loops(records, 1_000), OpenGate)
        }),
        ("kernel source", || {
            one_port(
                KernelSource::new(vec![buffer_stream(400).with_total(64)], 1_000, 5),
                OpenGate,
            )
        }),
        ("cached source", || {
            one_port(
                CachedSource::new(gapped(), CacheConfig::default()),
                OpenGate,
            )
        }),
        ("memguard gate", || {
            let cfg = MemGuardConfig {
                tick_cycles: 10_000,
                budget_bytes: 4_096,
                irq_latency_cycles: 100,
            };
            one_port(gapped(), MemGuardGate::new(cfg))
        }),
        ("tdma gate", || {
            one_port(
                gapped(),
                TdmaGate::new(TdmaSchedule::new(1_000, 2), vec![1], 50),
            )
        }),
        ("qos-400 outstanding gate", || {
            one_port(gapped(), OtRegulatorGate::new(OtRegulatorConfig::default()))
        }),
        ("leaky bucket", || {
            one_port(gapped(), LeakyBucketRegulator::new(BucketConfig::default()))
        }),
        ("shared budget gate", || {
            one_port(gapped(), SharedRegulator::new(1_024, 4_096).port_gate())
        }),
        ("static partition", || {
            under_policy(|_, be| {
                StaticPartition::new(vec![PortBudget {
                    driver: be,
                    period_cycles: 1_024,
                    budget_bytes: 512,
                }])
            })
        }),
        ("reclaim policy", || {
            under_policy(|crit, be| ReclaimPolicy::new(crit, vec![be], ReclaimConfig::default()))
        }),
        ("feedback controller", || {
            under_policy(|crit, be| {
                FeedbackController::new(crit, 4_096, vec![be], 1_024, 256, 4_096, 256, 10_000)
            })
        }),
        ("tc regulator with a window log", || {
            let (mut reg, _driver) = tc_regulator(1_024, 1_024);
            reg.enable_window_log(64);
            one_port(gapped(), reg)
        }),
    ];
    for (name, build) in rows {
        let mut soc = build();
        soc.set_leap(true);
        soc.run(2_000_000);
        let t = soc.leap_telemetry();
        assert!(!t.enabled, "{name} must declare no leaping: {t:?}");
        assert_eq!(t.leaps, 0, "{name}");
    }

    // The control row: plain TC regulation over spec traffic declares
    // nothing that forbids leaping, so the same harness leaps.
    let (reg, _driver) = tc_regulator(1_950, 1_024);
    let mut soc = one_port(SpecSource::new(buffer_stream(0), 5), reg);
    soc.set_leap(true);
    soc.run(2_000_000);
    let t = soc.leap_telemetry();
    assert!(t.enabled, "plain TC regulation must stay leapable: {t:?}");
    assert!(t.leaps > 0, "plain TC regulation must leap: {t:?}");
}

/// A finite stream caps the leap through its issue counter: a leap
/// lands with requests left, so the source exhausts on a simulated
/// cycle. The stream here drains about 1M cycles into a run that leaps
/// before and after that point.
#[test]
fn finite_stream_exhausts_on_a_simulated_cycle() {
    const HORIZON: u64 = 2_000_000;
    // 4 transactions per 1950-cycle window: 2_000 drain at ~975k cycles.
    let build = || {
        let (reg, _driver) = tc_regulator(1_950, 1_024);
        one_port(SpecSource::new(buffer_stream(0).with_total(2_000), 5), reg)
    };
    let mut leaping = build();
    leaping.set_leap(true);
    leaping.run(HORIZON);
    let t = leaping.leap_telemetry();
    assert!(t.leaps > 0, "no leap fired: {t:?}");
    let mut plain = build();
    plain.set_leap(false);
    plain.run(HORIZON);
    assert_eq!(leaping.master_stats(MasterId::new(0)).issued_txns, 2_000);
    assert_eq!(
        stats_fingerprint(&leaping),
        stats_fingerprint(&plain),
        "leaped run diverged across the stream's exhaustion"
    );
    assert_eq!(leaping.fingerprint(), plain.fingerprint());
}

/// Window-series recording observes every window individually, so a
/// leaped span would lose samples: recording masters deny leaping.
#[test]
fn window_recording_disarms_the_engine() {
    let (reg, _driver) = TcRegulator::create(RegulatorConfig {
        period_cycles: 1_024,
        budget_bytes: 1_024,
        enabled: true,
        ..RegulatorConfig::default()
    });
    let mut soc = SocBuilder::new(SocConfig::default())
        .gated_master(
            "m0",
            SequentialSource::reads(0, 256, u64::MAX),
            MasterKind::Accelerator,
            reg,
        )
        .record_windows(2_048)
        .build();
    soc.set_leap(true);
    soc.run(2_000_000);
    let t = soc.leap_telemetry();
    assert!(!t.enabled, "window recording must deny leap support");
    assert_eq!(t.leaps, 0);
}

/// One randomly drawn leap-eligible master: TC-regulated spec traffic
/// (plain, gapped or burst-shaped), sized so long horizons reach steady
/// state.
#[derive(Debug, Clone, Copy)]
struct LeapSpec {
    shape: u8,
    seed: u64,
    p1: u64,
    p2: u64,
    period: u32,
    budget: u32,
}

fn leap_specs() -> impl Strategy<Value = Vec<LeapSpec>> {
    prop::collection::vec(
        (
            0u8..3,
            0u64..1_000,
            0u64..10_000,
            0u64..10_000,
            0u32..2_000,
            0u32..4_000,
        )
            .prop_map(|(shape, seed, p1, p2, period, budget)| LeapSpec {
                shape,
                seed,
                p1,
                p2,
                period: 128 + period,
                budget: 256 + budget,
            }),
        1..4,
    )
}

fn build_leap_soc(specs: &[LeapSpec], refresh: bool) -> Soc {
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
    for (i, m) in specs.iter().enumerate() {
        let base = (i as u64) << 28;
        let src: Box<dyn TrafficSource> = match m.shape {
            0 => Box::new(SpecSource::new(
                TrafficSpec {
                    gap: m.p1 % 64,
                    ..TrafficSpec::stream(base, 1 << 20, 256, Dir::Read)
                },
                m.seed,
            )),
            1 => Box::new(SpecSource::new(
                TrafficSpec::stream(base, 1 << 20, 128, Dir::Read)
                    .with_write_ratio(0.3)
                    .with_burst(BurstShape {
                        on_cycles: 50 + m.p1 % 200,
                        off_cycles: 1 + m.p2 % 400,
                    }),
                m.seed,
            )),
            _ => {
                let txn = 64 * (1 + m.p1 % 8);
                Box::new(
                    SequentialSource::reads(base, txn, u64::MAX)
                        .with_footprint(txn * (4 + m.p2 % 32)),
                )
            }
        };
        let (reg, _driver) = TcRegulator::create(RegulatorConfig {
            period_cycles: m.period,
            budget_bytes: m.budget,
            enabled: true,
            ..RegulatorConfig::default()
        });
        b = b.gated_master(format!("m{i}"), src, MasterKind::Accelerator, reg);
    }
    b.build()
}

/// Random phased/faulted scenario material layered over the leap SoC:
/// a budget-reprogramming schedule (optionally behind a fuse) and a
/// phased source switching specs mid-run.
fn build_faulted_soc(specs: &[LeapSpec], phase_at: u64, fuse_at: Option<u64>) -> Soc {
    let cfg = SocConfig {
        dram: DramConfig {
            t_refi: 0,
            ..DramConfig::default()
        },
        ..SocConfig::default()
    };
    let mut b = SocBuilder::new(cfg);
    let mut driver0 = None;
    for (i, m) in specs.iter().enumerate() {
        let base = (i as u64) << 28;
        let src: Box<dyn TrafficSource> = if i == 0 {
            // A phased master: declared stream, then a rogue (ungapped)
            // segment from `phase_at` on.
            Box::new(PhasedSource::new(
                vec![
                    (
                        fgqos::sim::time::Cycle::ZERO,
                        TrafficSpec {
                            gap: 20 + m.p1 % 50,
                            ..TrafficSpec::stream(base, 1 << 20, 256, Dir::Read)
                        },
                    ),
                    (
                        fgqos::sim::time::Cycle::new(phase_at),
                        TrafficSpec::stream(base, 1 << 20, 256, Dir::Read),
                    ),
                ],
                m.seed,
            ))
        } else {
            let txn = 64 * (1 + m.p1 % 8);
            Box::new(
                SequentialSource::reads(base, txn, u64::MAX).with_footprint(txn * (4 + m.p2 % 32)),
            )
        };
        let (reg, driver) = TcRegulator::create(RegulatorConfig {
            period_cycles: m.period,
            budget_bytes: m.budget,
            enabled: true,
            ..RegulatorConfig::default()
        });
        if i == 0 {
            driver0 = Some(driver);
        }
        b = b.gated_master(format!("m{i}"), src, MasterKind::Accelerator, reg);
    }
    // A timed budget ramp against master 0, optionally killed by a fuse
    // before its last op.
    let program = ScenarioProgram::new(vec![
        TimedOp {
            at: phase_at / 2,
            driver: driver0.clone().unwrap(),
            op: ProgramOp::Budget(512),
        },
        TimedOp {
            at: phase_at * 2,
            driver: driver0.unwrap(),
            op: ProgramOp::Budget(8_192),
        },
    ]);
    match fuse_at {
        Some(at) => b.controller(FusedController::new(program, at)).build(),
        None => b.controller(program).build(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random regulated scenarios at a long horizon: leap-on equals
    /// leap-off, bit for bit.
    #[test]
    fn leap_matches_plain_calendar_at_horizon(
        specs in leap_specs(),
        refresh in prop::bool::ANY,
        horizon in 200_000u64..2_000_000,
    ) {
        let mut leaping = build_leap_soc(&specs, refresh);
        leaping.set_leap(true);
        leaping.run(horizon);

        let mut plain = build_leap_soc(&specs, refresh);
        plain.set_leap(false);
        plain.run(horizon);

        prop_assert_eq!(leaping.now(), plain.now());
        prop_assert_eq!(
            stats_fingerprint(&leaping), stats_fingerprint(&plain),
            "leap diverged at horizon {} for {:?}", horizon, specs
        );
    }

    /// Phased sources, timed register programs and controller fuses are
    /// one-shot absolute-time events: leaping must land before each and
    /// stay bit-identical through all of them.
    #[test]
    fn leap_matches_plain_calendar_through_phases_and_faults(
        specs in leap_specs(),
        phase_at in 10_000u64..200_000,
        fuse in (prop::bool::ANY, 5_000u64..300_000)
            .prop_map(|(fused, at)| fused.then_some(at)),
        horizon in 500_000u64..1_500_000,
    ) {
        let mut leaping = build_faulted_soc(&specs, phase_at, fuse);
        leaping.set_leap(true);
        leaping.run(horizon);

        let mut plain = build_faulted_soc(&specs, phase_at, fuse);
        plain.set_leap(false);
        plain.run(horizon);

        prop_assert_eq!(leaping.now(), plain.now());
        prop_assert_eq!(
            stats_fingerprint(&leaping), stats_fingerprint(&plain),
            "leap diverged (phase_at {}, fuse {:?}) for {:?}", phase_at, fuse, specs
        );
    }

    /// Mid-run snapshot forks from leaped runs: fork at a quiesced
    /// boundary of a leaped run, continue both the fork (leaping) and a
    /// cold plain run, require identity. This pins that a leap landing
    /// is a legal snapshot boundary. Budgets are drawn tight relative to
    /// the window so every scenario throttles — and therefore quiesces.
    #[test]
    fn leaped_forks_match_cold_runs(
        specs in prop::collection::vec(
            (0u8..3, 0u64..1_000, 0u64..10_000, 0u64..10_000, 0u32..2_000, 0u32..1_024)
                .prop_map(|(shape, seed, p1, p2, period, budget)| LeapSpec {
                    shape,
                    seed,
                    p1,
                    p2,
                    period: 512 + period,
                    budget: 256 + budget,
                }),
            1..4,
        ),
        prefix in 100_000u64..600_000,
        extra in 50_000u64..400_000,
    ) {
        let mut warm = build_leap_soc(&specs, false);
        warm.set_leap(true);
        warm.run(prefix);
        let tq = warm.quiesce_point(QUIESCE_BOUND);
        prop_assert!(tq.is_some(), "regulated scenario failed to quiesce: {specs:?}");
        let snap = warm.snapshot().expect("quiesced soc snapshots");

        let mut fork = snap.fork();
        fork.set_leap(true);
        fork.run(extra);

        let mut cold = build_leap_soc(&specs, false);
        cold.set_leap(false);
        cold.run(prefix);
        prop_assert_eq!(cold.quiesce_point(QUIESCE_BOUND), tq);
        cold.run(extra);

        prop_assert_eq!(fork.now(), cold.now());
        prop_assert_eq!(
            stats_fingerprint(&fork), stats_fingerprint(&cold),
            "leaped fork diverged for {:?}", specs
        );
    }
}
