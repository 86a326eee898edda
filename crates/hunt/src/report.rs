//! The versioned `fgqos.hunt-report` JSON document: measured worst case
//! vs the analytic bound, the winning scenario, and the search
//! trajectory.
//!
//! Byte-reproducibility rule: the document carries **no wall-clock
//! data**. Everything in it is a pure function of `(seed, config,
//! scenario)`, so two runs of `fgqos hunt --seed N` emit identical
//! bytes (throughput is measured by perfbench's `hunt_fleet` workload,
//! not here).

use crate::engine::{HuntConfig, HuntOutcome};
use crate::space::BaseInfo;
use fgqos_sim::json::Value;

/// Schema identifier of the hunt report document.
pub const HUNT_SCHEMA: &str = "fgqos.hunt-report";
/// Schema version of the hunt report document.
pub const HUNT_VERSION: u64 = 1;

/// The analytic bounds the measured worst case is compared against,
/// computed by the caller from `fgqos_core::analysis` over the winning
/// scenario's port configuration.
#[derive(Debug, Clone, Copy)]
pub struct BoundComparison {
    /// Worst-case per-transaction delay bound in cycles
    /// (`SystemModel::critical_delay_bound`); `None` when the regulated
    /// aggressor demand saturates the device and no finite bound exists.
    pub delay_bound: Option<u64>,
    /// Guaranteed critical throughput floor in bytes/s
    /// (`SystemModel::critical_throughput_bound`).
    pub throughput_floor: Option<f64>,
    /// Aggregate regulated utilization of the aggressor set
    /// (`SystemModel::regulated_utilization`).
    pub utilization: f64,
}

fn f64_value(v: f64) -> Value {
    // The json shim has no float type narrower than its own; round to
    // a stable fixed precision so report bytes never depend on float
    // formatting quirks.
    Value::str(format!("{v:.3}"))
}

/// Assembles the hunt report document. `winner_fgq` is the rendered
/// winning scenario (also written next to the report as a `.fgq` file
/// by the CLI); `replay_verified` records whether a cold replay of that
/// text reproduced the winning measurement bit-identically.
#[allow(clippy::too_many_arguments)]
pub fn render_report(
    cfg: &HuntConfig,
    base: &BaseInfo,
    warmup: u64,
    tail_cycles: u64,
    outcome: &HuntOutcome,
    bound: Option<&BoundComparison>,
    winner_fgq: &str,
    replay_verified: bool,
) -> Value {
    let mut doc = Value::obj();
    doc.set("schema", Value::str(HUNT_SCHEMA));
    doc.set("version", Value::from(HUNT_VERSION));
    doc.set("seed", Value::from(cfg.seed));
    doc.set("objective", Value::str(cfg.objective.as_str()));
    doc.set("critical", Value::str(base.critical.clone()));
    doc.set("warmup", Value::from(warmup));
    doc.set("tail_cycles", Value::from(tail_cycles));
    doc.set("evaluations", Value::from(outcome.evals_used as u64));
    doc.set("families", Value::from(outcome.families as u64));
    doc.set("refinement_rounds", Value::from(outcome.rounds as u64));
    doc.set(
        "bisection_evaluations",
        Value::from(outcome.bisect_evals as u64),
    );

    let m = &outcome.best.measured;
    let mut worst = Value::obj();
    worst.set("period", Value::from(outcome.best.candidate.period));
    worst.set("budget", Value::from(outcome.best.candidate.budget));
    worst.set(
        "aggressors",
        Value::from(outcome.best.candidate.family.aggressors.len() as u64),
    );
    worst.set(
        "faults",
        Value::from(outcome.best.candidate.family.faults.len() as u64),
    );
    let mut measured = Value::obj();
    measured.set("p50_latency", Value::from(m.p50));
    measured.set("p99_latency", Value::from(m.p99));
    measured.set("max_latency", Value::from(m.max));
    measured.set("bytes", Value::from(m.bytes));
    measured.set("bandwidth_bytes_per_s", f64_value(m.bandwidth));
    measured.set("boundary", Value::from(m.boundary));
    measured.set("end", Value::from(m.end));
    worst.set("measured", measured);
    doc.set("worst", worst);

    let mut b = Value::obj();
    match bound {
        Some(cmp) => {
            b.set("modeled", Value::Bool(true));
            b.set("utilization", f64_value(cmp.utilization));
            match cmp.delay_bound {
                Some(bound_cycles) => {
                    b.set("delay_bound", Value::from(bound_cycles));
                    b.set("measured_max", Value::from(m.max));
                    let violated = m.max > bound_cycles;
                    b.set("delay_violated", Value::Bool(violated));
                    if violated {
                        b.set("violation_cycles", Value::from(m.max - bound_cycles));
                    } else {
                        b.set("slack_cycles", Value::from(bound_cycles - m.max));
                        b.set("tightness", f64_value(m.max as f64 / bound_cycles as f64));
                    }
                }
                None => {
                    b.set("delay_bound", Value::Null);
                    b.set(
                        "note",
                        Value::str(
                            "regulated aggressor demand saturates the device; \
                             no finite delay bound exists for this configuration",
                        ),
                    );
                }
            }
            match cmp.throughput_floor {
                Some(floor) => {
                    b.set("throughput_floor_bytes_per_s", f64_value(floor));
                    b.set("measured_bandwidth_bytes_per_s", f64_value(m.bandwidth));
                }
                None => {
                    b.set("throughput_floor_bytes_per_s", Value::Null);
                }
            }
        }
        None => {
            b.set("modeled", Value::Bool(false));
        }
    }
    doc.set("bound", b);

    let mut traj = Value::arr();
    for t in &outcome.trajectory {
        let mut p = Value::obj();
        p.set("eval", Value::from(t.eval as u64));
        p.set("family", Value::str(t.family.clone()));
        p.set("period", Value::from(t.period));
        p.set("budget", Value::from(t.budget));
        p.set("objective", Value::from(t.objective));
        p.set("best", Value::from(t.best));
        traj.push(p);
    }
    doc.set("trajectory", traj);

    let mut winner = Value::obj();
    winner.set("fgq", Value::str(winner_fgq));
    winner.set("replay_verified", Value::Bool(replay_verified));
    doc.set("winner", winner);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Evaluated, Measured, TrajectoryPoint};
    use crate::space::Candidate;

    fn outcome() -> HuntOutcome {
        HuntOutcome {
            best: Evaluated {
                candidate: Candidate {
                    family: Default::default(),
                    period: 1_000,
                    budget: 65_536,
                },
                measured: Measured {
                    p50: 40,
                    p99: 900,
                    max: 1_500,
                    bytes: 512_000,
                    bandwidth: 2.56e8,
                    boundary: 130_000,
                    end: 180_000,
                },
            },
            trajectory: vec![TrajectoryPoint {
                eval: 1,
                family: "deadbeef".into(),
                period: 1_000,
                budget: 65_536,
                objective: 1_500,
                best: 1_500,
            }],
            evals_used: 1,
            families: 1,
            rounds: 0,
            bisect_evals: 0,
        }
    }

    fn base() -> BaseInfo {
        BaseInfo {
            text: String::new(),
            critical: "cpu".into(),
            fault_targets: vec![],
            reserved_names: vec![],
            clock_mhz: 1_000,
        }
    }

    #[test]
    fn report_is_versioned_and_reproducible() {
        let cfg = HuntConfig::default();
        let render = || {
            render_report(
                &cfg,
                &base(),
                100_000,
                50_000,
                &outcome(),
                Some(&BoundComparison {
                    delay_bound: Some(2_000),
                    throughput_floor: Some(1.0e8),
                    utilization: 0.41,
                }),
                "scenario text",
                true,
            )
            .to_pretty()
        };
        let a = render();
        assert_eq!(a, render(), "identical inputs must render identical bytes");
        assert!(a.contains(HUNT_SCHEMA));
        assert!(a.contains("\"delay_bound\": 2000"));
        assert!(a.contains("\"slack_cycles\": 500"));
        assert!(a.contains("\"tightness\": \"0.750\""));
        assert!(!a.to_lowercase().contains("elapsed"), "no wall-clock data");
    }

    #[test]
    fn bound_violation_is_explicit() {
        let cfg = HuntConfig::default();
        let doc = render_report(
            &cfg,
            &base(),
            0,
            1,
            &outcome(),
            Some(&BoundComparison {
                delay_bound: Some(1_000),
                throughput_floor: None,
                utilization: 0.9,
            }),
            "",
            false,
        );
        let b = doc.get("bound").expect("bound section");
        assert_eq!(b.get("delay_violated"), Some(&Value::Bool(true)));
        assert_eq!(
            b.get("violation_cycles").and_then(Value::as_u64),
            Some(500),
            "1500 measured vs 1000 bound"
        );
    }

    #[test]
    fn unmodeled_bound_is_marked() {
        let cfg = HuntConfig::default();
        let doc = render_report(&cfg, &base(), 0, 1, &outcome(), None, "", false);
        let b = doc.get("bound").expect("bound section");
        assert_eq!(b.get("modeled"), Some(&Value::Bool(false)));
    }
}
