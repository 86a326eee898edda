//! # fgqos-bench — experiment harnesses and the perf-ratio gate
//!
//! One binary per paper table/figure (see `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for paper-vs-measured records):
//!
//! | binary | reproduces |
//! |---|---|
//! | `exp_interference` | EXP-F1: slowdown vs. # interfering masters |
//! | `exp_accuracy` | EXP-F2: configured vs. measured bandwidth |
//! | `exp_granularity` | EXP-F3: overshoot & p99 latency vs. period |
//! | `exp_utilization` | EXP-F4: utilization under a 10 % QoS bound |
//! | `exp_adaptive` | EXP-F5: feedback re-budgeting timeline |
//! | `exp_enforcement` | EXP-F6: enforcement-latency distribution |
//! | `exp_resources` | EXP-T1: FPGA resource usage of the IP |
//! | `exp_benchmarks` | EXP-T2: per-kernel slowdown table |
//! | `exp_ablations` | EXP-A: design-choice ablations |
//! | `exp_bounds` | EXP-B: analytic bound vs. observed worst case |
//! | `exp_placement` | EXP-P: per-port vs. shared regulator placement |
//!
//! This library crate also hosts the `.fgq` scenario DSL ([`scenario`]),
//! the one system description every consumer builds through, and the
//! shared harness utilities ([`corun`], [`sweep`], [`table`]) used by
//! those binaries. The co-run experiments render their systems as `.fgq`
//! text ([`corun::CoRun::fgq`]) and build them through
//! [`scenario::ScenarioSpec`]. The binaries evaluate their grids through
//! [`sweep::run_parallel`], so wall-clock scales with the machine while
//! row order stays deterministic. `exp_granularity` is the exception: its
//! points share one long warm-up, which it runs once and forks per point,
//! serially. No binary takes command-line flags.
//!
//! One more binary, `perf_smoke`, is CI's speed gate: it times pairs of
//! runs of the committed `scenarios/*.fgq` files inside one process and
//! checks their ratios (calendar/naive, leap on/off, cold warm-up against
//! a fork and a blob load), so the gate holds however fast the host is
//! that day.

pub mod corun;
pub mod report;
pub mod rng;
pub mod scenario;
pub mod sweep;
pub mod table;
