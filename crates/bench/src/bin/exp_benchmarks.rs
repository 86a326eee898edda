//! EXP-T2 — Benchmark kernel table.
//!
//! Each of the six modelled benchmark kernels runs as the critical actor
//! against six greedy interferers under three schemes: unregulated,
//! MemGuard (1 ms tick) and the tightly-coupled regulator (1 µs window),
//! both regulators programmed to the same average best-effort bandwidth.
//! The table reports the kernel slowdown vs. isolation under each scheme
//! and the aggregate best-effort throughput the scheme leaves to the
//! accelerators — the tightly-coupled scheme dominates: lower kernel
//! slowdown at equal best-effort bandwidth.
//!
//! Printed columns: kernel, isolation kilocycles, slowdown under each
//! scheme, best-effort GiB/s under each regulated scheme.

use fgqos_bench::corun::{self, CoRun, Scheme};
use fgqos_bench::report::Report;
use fgqos_bench::{sweep, table};
use fgqos_sim::system::Soc;
use fgqos_workloads::kernels::Kernel;

const ITERATIONS: u64 = 3;

fn be_gibs(soc: &Soc, cycles: u64, n: usize) -> f64 {
    let mut bytes = 0u64;
    for i in 0..n {
        let id = soc.master_id(&format!("dma{i}")).expect("interferer");
        bytes += soc.master_stats(id).bytes_completed;
    }
    bytes as f64 / cycles as f64 * 1e9 / (1024.0 * 1024.0 * 1024.0)
}

fn main() {
    let mut r = Report::new("exp_benchmarks");
    r.banner("EXP-T2", "kernel slowdown under interference, per scheme");
    let scenario = CoRun {
        interferer_txn_bytes: 512,
        critical_outstanding: 2,
        ..CoRun::default()
    };
    let n = scenario.interferers;
    r.context("interferers", format!("{n} greedy 512 B write streams"));
    r.context("memguard", "1 ms tick, 2 us irq, 1 MiB/tick per port");
    r.context("tc-regulator", "1 us window, 1 KiB/window per port");
    r.header(&[
        "kernel",
        "iso_kcyc",
        "sd_unreg",
        "sd_memguard",
        "sd_tc",
        "be_mg_gibs",
        "be_tc_gibs",
    ]);

    let alone = CoRun {
        interferers: 0,
        ..scenario.clone()
    };
    // One sweep point per kernel; each worker measures its own isolation
    // baseline and all three scheme co-runs.
    let rows = sweep::run_parallel(Kernel::all().to_vec(), |kernel| {
        // The kernel replaces the template's synthetic critical traffic.
        let kernel_critical = format!(
            "\n[override master critical]\nworkload kernel:{}:{ITERATIONS}\nbase 0\nseed 7\n",
            kernel.name()
        );
        let iso = corun::run(&(alone.fgq(Scheme::Unregulated) + &kernel_critical)).0;

        let run = |scheme: Scheme| -> (f64, f64) {
            let (cycles, soc, _) = corun::run(&(scenario.fgq(scheme) + &kernel_critical));
            (cycles as f64 / iso as f64, be_gibs(&soc, cycles, n))
        };

        let (sd_unreg, _) = run(Scheme::Unregulated);
        let (sd_mg, be_mg) = run(Scheme::MemGuard {
            tick: 1_000_000,
            budget: 1_048_576,
            irq: 2_000,
        });
        let (sd_tc, be_tc) = run(Scheme::Tc {
            period: 1_000,
            budget: 1_024,
        });

        vec![
            kernel.name().into(),
            table::int(iso / 1_000),
            table::f2(sd_unreg),
            table::f2(sd_mg),
            table::f2(sd_tc),
            table::f2(be_mg),
            table::f2(be_tc),
        ]
    });
    for row in rows {
        r.row(row);
    }
    r.emit();
}
