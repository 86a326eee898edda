//! EXP-F3 — Regulation granularity: what a fine window buys.
//!
//! Three interferers are each regulated to the *same average bandwidth*
//! (1 GiB/s) while the replenishment period is swept from 0.5 µs to 2 ms.
//! Because the budget scales with the period, a coarse period lets each
//! interferer dump its whole (large) budget back-to-back at the window
//! start: the average interfering bandwidth is identical, but the
//! critical actor sees ever longer fully-saturated episodes. The
//! millisecond end of the sweep is where a software regulator (OS tick)
//! is forced to operate; the microsecond end is only reachable by the
//! tightly-coupled IP.
//!
//! **Sweep protocol.** Every grid point shares an identical warm-up
//! phase: the interferers run from cycle 0 under the *base* regulation
//! config (10 k-cycle window at the same 1 GiB/s average) while the
//! critical actor stays silent. Just before the launch cycle `W0` the
//! SoC reaches a quiesced boundary (a throttle gap drains the pipeline),
//! the point's period/budget is programmed into the regulators, and the
//! critical kernel launches at exactly `W0`. Every reported metric is
//! measured from `W0`: slowdown and interferer bandwidth over
//! `[W0, done)`, latency percentiles from the critical's samples (all
//! post-launch by construction), starvation episodes from the progress
//! windows at and after the launch window.
//!
//! The warm-up runs **once**: its boundary is captured as a
//! [`SocSnapshot`] and every point runs on a fork of it, serially. A
//! fork is the machine a cold replay of the warm-up reaches, byte for
//! byte (the fork-vs-cold property, `tests/snapshot.rs`), at a fraction
//! of the wall-clock.
//!
//! Printed columns: period (cycles), per-window budget (bytes), critical
//! slowdown, critical p50/p99 latency, longest starvation episode (µs,
//! consecutive 10 µs windows in which the critical actor made <50 % of
//! its isolation-rate progress), interferer achieved MiB/s.

use fgqos_bench::corun::{CoRun, Scheme};
use fgqos_bench::report::Report;
use fgqos_bench::scenario::ScenarioSpec;
use fgqos_bench::table;
use fgqos_core::driver::RegulatorDriver;
use fgqos_core::fabric::QosFabric;
use fgqos_sim::axi::MasterId;
use fgqos_sim::snapshot::SocSnapshot;
use fgqos_sim::system::Soc;
use fgqos_sim::time::{Bandwidth, Freq};
use fgqos_sim::ForkCtx;

const PROGRESS_WINDOW: u64 = 10_000; // 10 us progress buckets

/// Launch cycle `W0` of the critical kernel; the shared warm-up phase
/// covers `[0, W0)`. A multiple of [`PROGRESS_WINDOW`] so starvation
/// accounting slices cleanly at the launch window.
const WARMUP_CYCLES: u64 = 60_000_000;

/// Cycles before `W0` the quiesce search starts: several base windows,
/// so a throttle gap is guaranteed to drain the pipeline in range.
const QUIESCE_MARGIN: u64 = 50_000;

/// Regulation window of the shared warm-up phase (same 1 GiB/s average
/// as every grid point).
const BASE_PERIOD: u64 = 10_000;

/// Longest run of consecutive progress windows below `threshold` bytes.
fn longest_starvation(windows: &[u64], threshold: u64) -> u64 {
    let mut worst = 0u64;
    let mut run = 0u64;
    for &w in windows {
        if w < threshold {
            run += 1;
            worst = worst.max(run);
        } else {
            run = 0;
        }
    }
    worst * PROGRESS_WINDOW
}

fn scenario() -> CoRun {
    CoRun {
        interferers: 3,
        interferer_txn_bytes: 512,
        critical_txns: 30_000,
        critical_start: WARMUP_CYCLES,
        ..CoRun::default()
    }
}

fn per_interferer() -> Bandwidth {
    Bandwidth::from_mib_per_s(1024.0)
}

/// Builds the co-run system under the base config, runs the shared
/// warm-up phase to its quiesced boundary just before launch and
/// captures that boundary.
fn warmed_boundary() -> (SocSnapshot, MasterId, QosFabric) {
    let freq = Freq::default();
    let base_budget = per_interferer().to_window_budget(BASE_PERIOD, freq);
    let text = scenario().fgq(Scheme::Tc {
        period: BASE_PERIOD as u32,
        budget: base_budget.min(u32::MAX as u64) as u32,
    });
    let (mut soc, fabric) = ScenarioSpec::parse(&text)
        .expect("co-run text parses")
        .build();
    let critical = soc.master_id("critical").expect("critical");
    soc.master_mut(critical).record_windows(PROGRESS_WINDOW);
    soc.run(WARMUP_CYCLES - QUIESCE_MARGIN);
    soc.quiesce_point(QUIESCE_MARGIN)
        .expect("base-regulated warm-up reaches a quiesced boundary before launch");
    let snap = soc
        .snapshot()
        .expect("boundary is quiesced and every component forks");
    (snap, critical, fabric)
}

/// Programs the point config at the boundary, runs the measured tail
/// and reduces it to a report row. `soc` is a fork of the boundary
/// snapshot and `drivers` are the fabric handles rebound to it.
fn measure(
    soc: &mut Soc,
    critical: MasterId,
    drivers: &[RegulatorDriver],
    period: u64,
    iso: u64,
    iso_rate_per_window: u64,
) -> Vec<String> {
    let freq = Freq::default();
    let budget = per_interferer().to_window_budget(period, freq);
    for d in drivers {
        d.set_period_cycles(period as u32);
        d.set_budget_bytes(budget.min(u32::MAX as u64) as u32);
    }
    // Settle from the quiesced boundary to the launch cycle.
    soc.run(WARMUP_CYCLES - soc.now().get());
    let intf = soc.master_id("dma0").expect("dma0");
    let intf_bytes_at_launch = soc.master_stats(intf).bytes_completed;

    let done = soc
        .run_until_done(critical, u64::MAX / 2)
        .expect("critical finishes")
        .get();
    let measured = done - WARMUP_CYCLES;

    let st = soc.master_stats(critical);
    let windows = st.window.as_ref().expect("recording enabled").windows();
    let launch_window = (WARMUP_CYCLES / PROGRESS_WINDOW) as usize;
    let starve = longest_starvation(
        &windows[launch_window.min(windows.len())..],
        iso_rate_per_window / 2,
    );
    let intf_delta = soc.master_stats(intf).bytes_completed - intf_bytes_at_launch;
    let intf_bw = Bandwidth::from_bytes_over(intf_delta, measured.max(1), freq);
    vec![
        table::int(period),
        table::int(budget),
        table::f2(measured as f64 / iso as f64),
        table::int(st.latency.percentile(0.50)),
        table::int(st.latency.percentile(0.99)),
        table::f2(starve as f64 / 1_000.0),
        table::f2(intf_bw.mib_per_s()),
    ]
}

fn main() {
    let mut r = Report::new("exp_granularity");
    r.banner(
        "EXP-F3",
        "critical tail latency and starvation episodes vs. regulation period",
    );
    let scn = scenario();
    let iso = scn.isolation_cycles();
    // Isolation progress rate per 10 us window.
    let iso_bytes = scn.critical_txns * scn.critical_txn_bytes;
    let iso_rate_per_window = iso_bytes * PROGRESS_WINDOW / iso;
    r.context("interferers", "3 × 512 B greedy streams @ 1 GiB/s each");
    r.context("isolation_cycles", iso);
    r.context(
        "warmup",
        format!(
            "interferers at base period {BASE_PERIOD} for {WARMUP_CYCLES} cycles; \
             critical launches at the boundary, metrics measured from launch"
        ),
    );
    r.context(
        "starvation threshold",
        format!("{} B / 10 us", iso_rate_per_window / 2),
    );
    r.header(&[
        "period_cyc",
        "budget_B",
        "slowdown",
        "p50_lat",
        "p99_lat",
        "starve_us",
        "intf_mibs",
    ]);

    let periods = [
        500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 2_000_000,
    ];
    let (snap, critical, fabric) = warmed_boundary();
    for period in periods {
        let mut ctx = ForkCtx::new();
        let mut soc = snap.fork_with(&mut ctx);
        let fabric = fabric.fork_rebound(&mut ctx);
        r.row(measure(
            &mut soc,
            critical,
            &fabric.best_effort_drivers(),
            period,
            iso,
            iso_rate_per_window,
        ));
    }
    r.emit();
}
