//! # fgqos — umbrella crate
//!
//! Re-exports the whole `fgqos` workspace behind one dependency. See the
//! member crates for details:
//!
//! * [`sim`] — cycle-level FPGA HeSoC memory-subsystem simulator
//! * [`core`] — the paper's tightly-coupled bandwidth monitor/regulator,
//!   register file, driver and QoS policies
//! * [`baselines`] — MemGuard, PREM/TDMA and unregulated baselines
//! * [`workloads`] — synthetic traffic generators and benchmark kernels
//! * [`bench`](mod@bench) — experiment harness: sweeps, tables, structured
//!   reports, and the `.fgq` scenario DSL (re-exported as [`scenario`])
//! * [`serve`] — long-running scenario-execution service (job pool,
//!   result cache, self-regulated admission control)
//! * [`hunt_engine`] — adversarial worst-case contention search engine
//!   (wired to scenarios and evaluators by [`hunt`](mod@hunt))

pub mod hunt;
pub mod runner;

/// The `.fgq` scenario DSL, re-exported from [`fgqos_bench::scenario`].
/// Its parser and build tests live here and run through the public API.
pub mod scenario {
    pub use fgqos_bench::scenario::*;

    #[cfg(test)]
    mod tests;
}

pub use fgqos_baselines as baselines;
pub use fgqos_bench as bench;
pub use fgqos_core as core;
pub use fgqos_hunt as hunt_engine;
pub use fgqos_serve as serve;
pub use fgqos_sim as sim;
pub use fgqos_workloads as workloads;

/// Commonly used items from all member crates.
pub mod prelude {
    pub use crate::scenario::ScenarioSpec;
    pub use fgqos_sim::prelude::*;
}
