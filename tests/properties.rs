//! Property-based tests (proptest) on the core invariants of the
//! regulator, the monitor, the baselines and the simulator.

use fgqos::baselines::prelude::*;
use fgqos::core::prelude::*;
use fgqos::prelude::*;
use fgqos::sim::axi::{Dir, MasterId, Request, BEAT_BYTES};
use fgqos::sim::gate::PortGate;
use fgqos::sim::stats::{LatencyStats, WindowRecorder};
use fgqos::workloads::prelude::*;
use proptest::prelude::*;

/// A randomly timed stream of admission attempts against a gate.
#[derive(Debug, Clone)]
struct Attempt {
    gap: u64,
    beats: u16,
}

fn attempts() -> impl Strategy<Value = Vec<Attempt>> {
    prop::collection::vec(
        (0u64..300, 1u16..=64).prop_map(|(gap, beats)| Attempt { gap, beats }),
        1..200,
    )
}

/// Replays attempts against a gate, returning per-window accepted bytes.
fn replay(gate: &mut dyn PortGate, attempts: &[Attempt], period: u64) -> Vec<u64> {
    let mut now = Cycle::ZERO;
    let mut windows: Vec<u64> = Vec::new();
    let mut serial = 0u64;
    for a in attempts {
        now += a.gap;
        gate.on_cycle(now);
        let req = Request::new(
            MasterId::new(0),
            serial,
            serial * 4096,
            a.beats,
            Dir::Read,
            now,
        );
        if gate.try_accept(&req, now).is_accept() {
            let w = (now.get() / period) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, 0);
            }
            windows[w] += req.bytes();
            serial += 1;
        }
    }
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservative charge-at-acceptance regulation never lets a window
    /// exceed its budget.
    #[test]
    fn tc_conservative_never_exceeds_budget(
        atts in attempts(),
        period in 64u32..5_000,
        budget in 16u32..20_000,
    ) {
        let (mut reg, _d) = TcRegulator::create(RegulatorConfig {
            period_cycles: period,
            budget_bytes: budget,
            enabled: true,
            ..RegulatorConfig::default()
        });
        let windows = replay(&mut reg, &atts, period as u64);
        for (i, &w) in windows.iter().enumerate() {
            prop_assert!(w <= budget as u64, "window {i} holds {w} B > budget {budget}");
        }
    }

    /// Final-burst regulation overshoots by at most one request.
    #[test]
    fn tc_final_burst_bounded_by_one_burst(
        atts in attempts(),
        period in 64u32..5_000,
        budget in 16u32..20_000,
    ) {
        let (mut reg, _d) = TcRegulator::create(RegulatorConfig {
            period_cycles: period,
            budget_bytes: budget,
            enabled: true,
            overshoot: OvershootPolicy::FinalBurst,
            ..RegulatorConfig::default()
        });
        let max_burst = 64 * BEAT_BYTES;
        let windows = replay(&mut reg, &atts, period as u64);
        for (i, &w) in windows.iter().enumerate() {
            prop_assert!(
                w <= budget as u64 + max_burst,
                "window {i} holds {w} B > budget {budget} + burst {max_burst}"
            );
        }
    }

    /// The monitor's lifetime byte total equals the sum of accepted
    /// request sizes, no matter the acceptance pattern.
    #[test]
    fn monitor_total_is_exact(
        atts in attempts(),
        period in 64u32..5_000,
        budget in 16u32..20_000,
    ) {
        let (mut reg, d) = TcRegulator::create(RegulatorConfig {
            period_cycles: period,
            budget_bytes: budget,
            enabled: true,
            ..RegulatorConfig::default()
        });
        let windows = replay(&mut reg, &atts, period as u64);
        let accepted: u64 = windows.iter().sum();
        prop_assert_eq!(d.telemetry().total_bytes, accepted);
    }

    /// Once MemGuard's throttle engages, nothing passes until the tick
    /// replenishes.
    #[test]
    fn memguard_throttle_holds_until_tick(
        atts in attempts(),
        tick in 1_000u64..20_000,
        budget in 64u64..10_000,
        irq in 0u64..500,
    ) {
        let mut gate = MemGuardGate::new(MemGuardConfig {
            tick_cycles: tick,
            budget_bytes: budget,
            irq_latency_cycles: irq,
        });
        let mut now = Cycle::ZERO;
        let mut serial = 0u64;
        let mut denied_in_tick: Option<u64> = None;
        for a in &atts {
            now += a.gap;
            gate.on_cycle(now);
            let tick_idx = now.get() / tick;
            let req = Request::new(MasterId::new(0), serial, 0, a.beats, Dir::Read, now);
            let accepted = gate.try_accept(&req, now).is_accept();
            if accepted {
                serial += 1;
                prop_assert_ne!(
                    denied_in_tick, Some(tick_idx),
                    "acceptance after a denial within the same tick"
                );
            } else {
                denied_in_tick = Some(tick_idx);
            }
        }
    }

    /// TDMA admits only inside the port's own slots.
    #[test]
    fn tdma_only_admits_in_slot(
        atts in attempts(),
        slot in 100u64..5_000,
        slots in 2usize..6,
    ) {
        let mine = slots - 1;
        let mut gate = TdmaGate::new(TdmaSchedule::new(slot, slots), vec![mine], 0);
        let mut now = Cycle::ZERO;
        for (i, a) in atts.iter().enumerate() {
            now += a.gap;
            let req = Request::new(MasterId::new(0), i as u64, 0, a.beats, Dir::Read, now);
            if gate.try_accept(&req, now).is_accept() {
                let active = (now.get() / slot) as usize % slots;
                prop_assert_eq!(active, mine, "admitted outside own slot at {}", now);
            }
        }
    }

    /// End-to-end conservation and sanity for arbitrary small SoCs.
    #[test]
    fn soc_conservation_and_latency_sanity(
        masters in 1usize..5,
        txn_bytes_exp in 5u32..11, // 32..1024 bytes
        txns in 10u64..80,
        seed in 0u64..1_000,
    ) {
        let txn_bytes = 1u64 << txn_bytes_exp;
        let cfg = SocConfig {
            dram: DramConfig { t_refi: 0, ..DramConfig::default() },
            ..SocConfig::default()
        };
        let mut b = SocBuilder::new(cfg);
        for i in 0..masters {
            let spec = TrafficSpec {
                pattern: AddressPattern::Random,
                ..TrafficSpec::stream((i as u64) << 28, 1 << 20, txn_bytes, Dir::Read)
            }
            .with_total(txns);
            b = b.master(format!("m{i}"), SpecSource::new(spec, seed + i as u64), MasterKind::Accelerator);
        }
        let mut soc = b.build();
        soc.run_until_all_done(100_000_000).expect("drains");
        let total: u64 = (0..masters)
            .map(|i| soc.master_stats(MasterId::new(i)).bytes_completed)
            .sum();
        prop_assert_eq!(total, soc.dram_stats().bytes_completed);
        prop_assert_eq!(total, masters as u64 * txns * txn_bytes);
        for i in 0..masters {
            let st = soc.master_stats(MasterId::new(i));
            prop_assert!(st.latency.min() > 0);
            prop_assert!(st.latency.max() >= st.latency.percentile(0.5));
            // Service latency never exceeds end-to-end latency.
            prop_assert!(st.service_latency.max() <= st.latency.max());
        }
    }

    /// Latency statistics invariants: percentiles are ordered and
    /// bracketed by min/max; mean is within [min, max].
    #[test]
    fn latency_stats_invariants(values in prop::collection::vec(0u64..1_000_000, 1..500)) {
        let mut s = LatencyStats::new();
        for &v in &values {
            s.record(v);
        }
        let exact_min = *values.iter().min().unwrap();
        let exact_max = *values.iter().max().unwrap();
        prop_assert_eq!(s.min(), exact_min);
        prop_assert_eq!(s.max(), exact_max);
        let mut last = 0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let p = s.percentile(q);
            prop_assert!(p >= last, "percentiles must be monotone");
            prop_assert!(p >= exact_min && p <= exact_max);
            last = p;
        }
        prop_assert!(s.mean() >= exact_min as f64 && s.mean() <= exact_max as f64);
    }

    /// WindowRecorder conserves the recorded total.
    #[test]
    fn window_recorder_conserves_total(
        events in prop::collection::vec((0u64..100, 1u64..1_000), 1..200),
        window in 1u64..500,
    ) {
        let mut r = WindowRecorder::new(window);
        let mut now = 0u64;
        let mut total = 0u64;
        for (gap, v) in &events {
            now += gap;
            r.add(Cycle::new(now), *v);
            total += v;
        }
        r.finish(Cycle::new(now + window));
        let sum: u64 = r.windows().iter().sum();
        prop_assert_eq!(sum, total);
    }

    /// Driver bandwidth/budget arithmetic round-trips within one byte
    /// per window.
    #[test]
    fn driver_bandwidth_roundtrip(
        period in 100u32..100_000,
        mibs in 1u32..8_192,
    ) {
        let (_r, d) = TcRegulator::create(RegulatorConfig {
            period_cycles: period,
            ..RegulatorConfig::default()
        });
        let freq = Freq::default();
        let bw = Bandwidth::from_mib_per_s(mibs as f64);
        d.set_bandwidth(bw, freq);
        let back = d.configured_bandwidth(freq);
        // Quantization: at most one byte per window of error.
        let one_byte = Bandwidth::from_bytes_over(1, period as u64, freq);
        prop_assert!(back.bytes_per_s() <= bw.bytes_per_s() + 1.0);
        prop_assert!(
            back.bytes_per_s() + one_byte.bytes_per_s() >= bw.bytes_per_s() * 0.999,
            "round-trip lost more than a byte/window: {} vs {}",
            back.bytes_per_s(),
            bw.bytes_per_s()
        );
    }

    /// DRAM address mapping is a bijection on (bank, row, offset).
    #[test]
    fn dram_mapping_consistent(addr in 0u64..(1 << 34)) {
        let cfg = DramConfig::default();
        let (bank, row) = cfg.map(addr);
        prop_assert!(bank < cfg.banks);
        // Reconstruct the row start and re-map: must agree.
        let row_index = row * cfg.banks as u64 + bank as u64;
        let base = row_index * cfg.row_bytes;
        prop_assert_eq!(cfg.map(base), (bank, row));
        prop_assert_eq!(cfg.map(base + cfg.row_bytes - 1), (bank, row));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cache bookkeeping: fills equal misses, write-backs equal dirty
    /// evictions and never exceed misses.
    #[test]
    fn cache_fill_and_writeback_accounting(
        accesses in prop::collection::vec((0u64..(1 << 16), prop::bool::ANY), 1..400),
    ) {
        use fgqos::sim::cpu::{Cache, CacheConfig, CacheOutcome};
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1 << 12,
            line_bytes: 64,
            ways: 4,
            hit_latency: 1,
        });
        let mut fills = 0u64;
        let mut writebacks = 0u64;
        for &(addr, is_write) in &accesses {
            match c.access(addr, is_write) {
                CacheOutcome::Hit => {}
                CacheOutcome::Miss { writeback } => {
                    fills += 1;
                    if writeback.is_some() {
                        writebacks += 1;
                    }
                }
            }
        }
        prop_assert_eq!(fills, c.stats().misses);
        prop_assert_eq!(writebacks, c.stats().writebacks);
        prop_assert!(writebacks <= fills);
        prop_assert_eq!(c.stats().hits + c.stats().misses, accesses.len() as u64);
    }

    /// A cache never reports a hit for a line it has not filled, and
    /// always hits on an immediate re-access.
    #[test]
    fn cache_rehit_property(addrs in prop::collection::vec(0u64..(1 << 14), 1..200)) {
        use fgqos::sim::cpu::{Cache, CacheConfig, CacheOutcome};
        let mut c = Cache::new(CacheConfig::default());
        for &a in &addrs {
            let _ = c.access(a, false);
            // Immediate re-access of the same address must hit.
            prop_assert_eq!(c.access(a, false), CacheOutcome::Hit);
        }
    }

    /// Trace capture → replay is lossless for arbitrary bounded specs.
    #[test]
    fn trace_capture_replay_lossless(
        txn_exp in 5u32..11,
        gap in 0u64..200,
        total in 1u64..100,
        seed in 0u64..500,
    ) {
        use fgqos::workloads::trace::{capture, TraceSource};
        let spec = TrafficSpec {
            gap,
            ..TrafficSpec::stream(0x1000, 1 << 20, 1 << txn_exp, Dir::Read)
        }
        .with_total(total);
        let mut original = SpecSource::new(spec, seed);
        let records = capture(&mut original, total as usize);
        prop_assert_eq!(records.len() as u64, total);
        let mut replay = TraceSource::new(records);
        let mut check = SpecSource::new(spec, seed);
        loop {
            let a = check.next_request(Cycle::ZERO);
            let b = replay.next_request(Cycle::ZERO);
            match (a, b) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    prop_assert_eq!(x.addr, y.addr);
                    prop_assert_eq!(x.beats, y.beats);
                    prop_assert_eq!(x.dir, y.dir);
                    prop_assert_eq!(x.not_before, y.not_before);
                }
                other => prop_assert!(false, "length mismatch: {:?}", other.0.is_some()),
            }
        }
    }

    /// Split-mode regulation keeps each channel within its own budget.
    #[test]
    fn split_rw_budgets_are_independent_caps(
        atts in attempts(),
        period in 64u32..5_000,
        rd_budget in 16u32..10_000,
        wr_budget in 16u32..10_000,
        write_each in prop::collection::vec(prop::bool::ANY, 200),
    ) {
        let (mut reg, _d) = TcRegulator::create(RegulatorConfig {
            period_cycles: period,
            budget_bytes: u32::MAX,
            enabled: true,
            split: Some(SplitBudgets { read_bytes: rd_budget, write_bytes: wr_budget }),
            ..RegulatorConfig::default()
        });
        use fgqos::sim::gate::PortGate;
        let mut now = Cycle::ZERO;
        let mut rd_win = vec![0u64];
        let mut wr_win = vec![0u64];
        for (i, a) in atts.iter().enumerate() {
            now += a.gap;
            reg.on_cycle(now);
            let dir = if write_each[i % write_each.len()] { Dir::Write } else { Dir::Read };
            let req = Request::new(MasterId::new(0), i as u64, i as u64 * 4096, a.beats, dir, now);
            if reg.try_accept(&req, now).is_accept() {
                let w = (now.get() / period as u64) as usize;
                if rd_win.len() <= w {
                    rd_win.resize(w + 1, 0);
                    wr_win.resize(w + 1, 0);
                }
                match dir {
                    Dir::Read => rd_win[w] += req.bytes(),
                    Dir::Write => wr_win[w] += req.bytes(),
                }
            }
        }
        for (i, (&r, &w)) in rd_win.iter().zip(&wr_win).enumerate() {
            prop_assert!(r <= rd_budget as u64, "window {i} read {r} > {rd_budget}");
            prop_assert!(w <= wr_budget as u64, "window {i} write {w} > {wr_budget}");
        }
    }
}

/// A hostile gate making arbitrary admission decisions (failure
/// injection): the SoC must neither deadlock nor violate conservation no
/// matter what a gate does.
#[derive(Debug, Clone)]
struct ChaosGate {
    rng_state: u64,
    deny_bias: u64, // deny when (hash % 100) < deny_bias
}

impl fgqos::sim::gate::PortGate for ChaosGate {
    fn try_accept(&mut self, _request: &Request, _now: Cycle) -> fgqos::sim::gate::GateDecision {
        self.rng_state = self
            .rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (self.rng_state >> 33) % 100 < self.deny_bias {
            fgqos::sim::gate::GateDecision::Deny
        } else {
            fgqos::sim::gate::GateDecision::Accept
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Failure injection: arbitrary (even adversarial) gate decisions
    /// never break conservation, and unless the gate denies everything
    /// the system keeps making progress.
    #[test]
    fn soc_survives_chaotic_gates(
        seeds in prop::collection::vec(0u64..1_000_000, 1..4),
        deny_bias in 0u64..95,
    ) {
        let cfg = SocConfig {
            dram: DramConfig { t_refi: 0, ..DramConfig::default() },
            ..SocConfig::default()
        };
        let mut b = SocBuilder::new(cfg);
        let n = seeds.len();
        for (i, &seed) in seeds.iter().enumerate() {
            let spec = TrafficSpec::stream((i as u64) << 28, 1 << 20, 256, Dir::Read)
                .with_total(200);
            b = b.gated_master(
                format!("m{i}"),
                SpecSource::new(spec, seed),
                MasterKind::Accelerator,
                ChaosGate { rng_state: seed ^ 0xdead_beef, deny_bias },
            );
        }
        let mut soc = b.build();
        let done = soc.run_until_all_done(200_000_000);
        prop_assert!(done.is_some(), "SoC deadlocked under chaotic gating");
        let total: u64 = (0..n)
            .map(|i| soc.master_stats(MasterId::new(i)).bytes_completed)
            .sum();
        prop_assert_eq!(total, soc.dram_stats().bytes_completed);
        prop_assert_eq!(total, n as u64 * 200 * 256);
    }
}
