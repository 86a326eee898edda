//! EXP-F1 — Motivation: memory interference on an FPGA HeSoC.
//!
//! Reproduces the paper's motivation figure (companion shape: up to ~16×
//! CPU-task slowdown on Xilinx FPGA SoCs, DATE 2022): slowdown of a
//! latency-sensitive critical actor as the number of unregulated
//! interfering PL masters grows, for read- and write-dominated
//! interference.
//!
//! Printed columns: interferer count, interference direction, critical
//! completion cycles, slowdown vs. isolation, critical p50/p99 latency
//! (cycles), aggregate DRAM bandwidth (GiB/s).

use fgqos_bench::corun::{self, CoRun, Scheme};
use fgqos_bench::report::Report;
use fgqos_bench::{sweep, table};
use fgqos_sim::axi::Dir;

fn main() {
    let mut r = Report::new("exp_interference");
    r.banner(
        "EXP-F1",
        "critical slowdown vs. number of unregulated interferers",
    );
    let base = CoRun::default();
    r.context(
        "critical",
        "256 B random closed-loop reads, think 100 cycles",
    );
    r.context("interferer", "greedy 1 KiB sequential streams");
    r.header(&[
        "interferers",
        "dir",
        "cycles",
        "slowdown",
        "p50_lat",
        "p99_lat",
        "dram_gibs",
    ]);

    // Isolation has no interferers, so the baseline is direction-free.
    let iso = base.isolation_cycles();
    let points: Vec<(Dir, usize)> = [Dir::Read, Dir::Write]
        .into_iter()
        .flat_map(|dir| (0..=7usize).map(move |n| (dir, n)))
        .collect();
    let rows = sweep::run_parallel(points, |(dir, n)| {
        let s = CoRun {
            interferers: n,
            interferer_dir: dir,
            ..base.clone()
        };
        let (cycles, soc, _) = corun::run(&s.fgq(Scheme::Unregulated));
        let st = soc.master_stats(soc.master_id("critical").expect("critical"));
        let dram_bw = soc.total_bandwidth();
        vec![
            table::int(n as u64),
            dir.to_string(),
            table::int(cycles),
            table::f2(cycles as f64 / iso as f64),
            table::int(st.latency.percentile(0.50)),
            table::int(st.latency.percentile(0.99)),
            table::f2(dram_bw.gib_per_s()),
        ]
    });
    for row in rows {
        r.row(row);
    }
    r.emit();
}
