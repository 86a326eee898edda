//! EXP-F4 — QoS vs. utilization under a 10 % slowdown bound.
//!
//! The real question a QoS mechanism answers: *with the critical actor
//! guaranteed at most 10 % slowdown, how much memory bandwidth can the
//! best-effort accelerators still use?* (Companion shape, DATE 2022:
//! PREM-style mutual exclusion wastes the accelerator bandwidth during
//! critical phases; CMRI-style regulated injection recovers >40 % of it
//! while staying below 10 % slowdown.)
//!
//! The critical workload alternates 500 µs active and 500 µs compute-only
//! phases (compute-dominated while active, as a task with a 10 % bound
//! necessarily is). Schemes:
//!
//! * `unregulated` — reference best-effort throughput, bound violated;
//! * `prem-phase`  — interferers silenced for the critical actor's whole
//!   active phase (mutual exclusion), free during the idle phase;
//! * `memguard`    — per-tick software budgets, largest grid point that
//!   meets the bound;
//! * `tc-regulator` — static tightly-coupled budgets, largest grid point
//!   meeting the bound;
//! * `tc+reclaim`  — tightly-coupled budgets plus CMRI-style reclaim of
//!   the critical reservation during its idle phases.
//!
//! Printed columns: scheme, critical slowdown achieved, best-effort
//! aggregate GiB/s, fraction of the unregulated best-effort throughput
//! retained, bound verdict.

use fgqos_bench::corun::{CoRun, Scheme};
use fgqos_bench::report::Report;
use fgqos_bench::scenario::ScenarioSpec;
use fgqos_bench::{sweep, table};
use fgqos_sim::axi::MasterId;
use fgqos_sim::system::Soc;
use fgqos_workloads::spec::BurstShape;

const BOUND: f64 = 1.10;
const MAX_CYCLES: u64 = u64::MAX / 2;

/// One grid point of the scheme sweep.
#[derive(Debug, Clone, Copy)]
enum Point {
    Unregulated,
    PremPhase { phase: u64 },
    MemGuard { bpk: u64 },
    Tc { budget: u32, reclaim: bool },
}

/// Aggregate best-effort bytes per cycle achieved in a run.
fn best_effort_rate(soc: &Soc, cycles: u64, n: usize) -> f64 {
    let mut bytes = 0u64;
    for i in 0..n {
        let id = soc.master_id(&format!("dma{i}")).expect("interferer");
        bytes += soc.master_stats(id).bytes_completed;
    }
    bytes as f64 / cycles as f64
}

fn gib_per_s(rate_bytes_per_cycle: f64) -> f64 {
    rate_bytes_per_cycle * 1e9 / (1024.0 * 1024.0 * 1024.0)
}

/// Builds the co-run system for one grid point and returns it with its
/// critical port.
fn build_point(scenario: &CoRun, point: Point) -> (Soc, MasterId) {
    let text = match point {
        Point::Unregulated => scenario.fgq(Scheme::Unregulated),
        // PREM-style mutual exclusion aligned to the critical phases.
        Point::PremPhase { phase } => scenario.fgq(Scheme::PremPhase {
            phase,
            guard: 2_500,
        }),
        Point::MemGuard { bpk } => {
            let tick = 1_000_000u64;
            scenario.fgq(Scheme::MemGuard {
                tick,
                budget: bpk * tick / 1_000,
                irq: 2_000,
            })
        }
        Point::Tc { budget, reclaim } => {
            let mut text = scenario.fgq(Scheme::Tc {
                period: 1_000,
                budget,
            });
            if reclaim {
                // Lend the critical actor's protection headroom to the
                // best-effort ports while its phase is idle. The reserve
                // matches the active-phase demand (~0.25 B/cycle); the
                // gain expresses that protecting the critical actor
                // costs far more bandwidth than it consumes. Any sign of
                // critical activity clamps straight back to base. `base`
                // is one control period's worth of window budgets.
                text += &format!(
                    "\n[policy reclaim]\nreserved 2500\nbase {}\ncontrol 10000\n\
                     gain 25\nbusy 256\n",
                    budget as u64 * 10
                );
            }
            text
        }
    };
    let (soc, _fabric) = ScenarioSpec::parse(&text)
        .expect("co-run text parses")
        .build();
    let critical = soc.master_id("critical").expect("critical");
    (soc, critical)
}

/// Runs one built point to critical completion and reduces to
/// (slowdown, best-effort rate).
fn run_point(mut soc: Soc, critical: MasterId, iso: u64, n: usize) -> (f64, f64) {
    let cycles = soc
        .run_until_done(critical, MAX_CYCLES)
        .expect("critical finishes")
        .get();
    (
        cycles as f64 / iso as f64,
        best_effort_rate(&soc, cycles, n),
    )
}

fn push_scheme(r: &mut Report, name: &str, slowdown: f64, rate: f64, unreg_rate: f64) {
    r.row(vec![
        name.into(),
        table::f2(slowdown),
        table::f2(gib_per_s(rate)),
        table::f2(rate / unreg_rate),
        if slowdown <= BOUND { "yes" } else { "no" }.into(),
    ]);
}

fn main() {
    let mut r = Report::new("exp_utilization");
    r.banner(
        "EXP-F4",
        "best-effort utilization under a 10% critical slowdown bound",
    );
    // Bursty critical workload: active/compute phases of 500 us each; the
    // critical task is compute-dominated while active (think 1000 cycles
    // per 256 B access, ~8 % memory time), as a task with a 10 % QoS
    // bound necessarily is.
    let phase = 500_000u64;
    let scenario = CoRun {
        critical_burst: Some(BurstShape {
            on_cycles: phase,
            off_cycles: phase,
        }),
        critical_txns: 3_000,
        critical_think: 1_000,
        interferer_txn_bytes: 512,
        ..CoRun::default()
    };
    let n = scenario.interferers;
    let iso = scenario.isolation_cycles();
    r.context("interferers", n);
    r.context(
        "critical",
        "500 us active / 500 us compute phases, think 1000",
    );
    r.context("bound", "critical slowdown <= 1.10");

    // The whole scheme/budget grid runs as one parallel sweep; each point
    // reduces to (slowdown, best-effort rate) and the grid searches below
    // stay serial over the order-stable results.
    let mg_grid: &[u64] = &[10, 25, 50, 100, 250, 500, 1_000, 2_000];
    let tc_grid: &[u32] = &[512, 1_024, 1_536, 2_048, 2_560, 3_072, 4_096];
    let mut points = vec![Point::Unregulated, Point::PremPhase { phase }];
    points.extend(mg_grid.iter().map(|&bpk| Point::MemGuard { bpk }));
    for reclaim in [false, true] {
        points.extend(tc_grid.iter().map(|&budget| Point::Tc { budget, reclaim }));
    }

    let results = sweep::run_parallel(points, |point| {
        let (soc, critical) = build_point(&scenario, point);
        run_point(soc, critical, iso, n)
    });

    let (unreg_slowdown, unreg_rate) = results[0];
    let (prem_slowdown, prem_rate) = results[1];
    r.header(&[
        "scheme",
        "slowdown",
        "be_gibs",
        "be_retained",
        "meets_bound",
    ]);
    push_scheme(
        &mut r,
        "unregulated",
        unreg_slowdown,
        unreg_rate,
        unreg_rate,
    );
    push_scheme(&mut r, "prem-phase", prem_slowdown, prem_rate, unreg_rate);

    // MemGuard and tightly-coupled: largest grid point meeting the bound.
    let mut cursor = results[2..].iter().copied();
    let mg: Vec<(f64, f64)> = cursor.by_ref().take(mg_grid.len()).collect();
    let select = |outcomes: &[(f64, f64)]| -> Option<(f64, f64)> {
        let mut best: Option<(f64, f64)> = None;
        for &(slowdown, rate) in outcomes {
            if slowdown <= BOUND && best.is_none_or(|(_, r)| rate > r) {
                best = Some((slowdown, rate));
            }
        }
        best
    };
    match select(&mg) {
        Some((sd, rate)) => push_scheme(&mut r, "memguard", sd, rate, unreg_rate),
        None => r.row(vec![
            "memguard".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "no".into(),
        ]),
    }
    for name in ["tc-regulator", "tc+reclaim"] {
        let outcomes: Vec<(f64, f64)> = cursor.by_ref().take(tc_grid.len()).collect();
        match select(&outcomes) {
            Some((sd, rate)) => push_scheme(&mut r, name, sd, rate, unreg_rate),
            None => r.row(vec![
                name.into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "no".into(),
            ]),
        }
    }
    r.emit();
}
