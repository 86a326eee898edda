//! `fgqos hunt` — adversarial worst-case contention search over a
//! scenario.
//!
//! This module is the umbrella-side wiring of the [`fgqos_hunt`] engine:
//! it extracts the structural facts the engine needs from a parsed
//! [`ScenarioSpec`] (the critical master, legal fault targets, reserved
//! names), derives the [`SearchSpace`] from the scenario and the DRAM
//! geometry (bank-hammering strides, on/off-footprint bases), evaluates
//! candidate batches either in-process through
//! [`batch_reports`] or against a running
//! `fgqos serve` instance, computes the analytic bound of the winning
//! configuration via [`fgqos_core::analysis`], and verifies that the
//! emitted winner `.fgq` replays the winning measurement bit for bit.

use crate::runner::{assertion_outcome, batch_reports, scenario_report, RunOptions};
use crate::scenario::{FaultEvent, ProgramOp, Role, ScenarioSpec, Workload};
use fgqos_bench::report::{Block, Report};
use fgqos_core::analysis::{PortModel, SystemModel};
use fgqos_hunt::space::render_winner;
use fgqos_hunt::{
    engine, BaseInfo, BoundComparison, HuntConfig, HuntOutcome, Measured, SearchSpace,
};
use fgqos_serve::client::{Client, SubmitOptions};
use fgqos_serve::protocol::{BatchKind, BatchPoint, BatchSpec};
use fgqos_sim::axi::{BEAT_BYTES, MAX_BURST_BEATS};
use fgqos_sim::dram::DramConfig;
use fgqos_sim::json::Value;
use std::collections::BTreeSet;
use std::time::Duration;

/// How to run a hunt.
#[derive(Debug, Clone)]
pub struct HuntOptions {
    /// Engine configuration (seed, budgets, objective).
    pub config: HuntConfig,
    /// Shared warm-up cycles before the fork boundary.
    pub warmup: u64,
    /// Divergent tail cycles after the boundary.
    pub tail_cycles: u64,
    /// Evaluate through a running `fgqos serve` at this address instead
    /// of the in-process pool.
    pub addr: Option<String>,
}

impl Default for HuntOptions {
    fn default() -> Self {
        HuntOptions {
            config: HuntConfig::default(),
            warmup: 100_000,
            tail_cycles: 150_000,
            addr: None,
        }
    }
}

/// Everything `fgqos hunt` produces.
#[derive(Debug, Clone)]
pub struct HuntResult {
    /// The `fgqos.hunt-report` document.
    pub report: Value,
    /// The winning scenario, replayable standalone.
    pub winner_fgq: String,
    /// Whether a cold replay of `winner_fgq` reproduced the winning
    /// measurement bit-identically (pinned expects included).
    pub replay_verified: bool,
    /// Whether the measured worst case exceeded the analytic delay
    /// bound (always `false` when the configuration is unmodeled).
    pub bound_violated: bool,
    /// The raw search outcome.
    pub outcome: HuntOutcome,
}

/// Runs the full hunt pipeline on resolved scenario text.
pub fn run_hunt(text: &str, opts: &HuntOptions) -> Result<HuntResult, String> {
    let spec = ScenarioSpec::parse(text).map_err(|e| e.to_string())?;
    let base = base_info(text, &spec)?;
    let space = search_space(&spec);
    let critical = base.critical.clone();
    let hz = spec.freq.hz();

    let outcome = match &opts.addr {
        None => {
            let mut eval = |family: &str, points: &[(u64, u64)]| {
                eval_local(family, points, opts, &critical, hz)
            };
            engine::run(&opts.config, &space, &base, &mut eval)?
        }
        Some(addr) => {
            let mut client =
                Client::connect(addr.as_str()).map_err(|e| format!("hunt: connect {addr}: {e}"))?;
            let mut eval = |family: &str, points: &[(u64, u64)]| {
                eval_serve(&mut client, family, points, opts, &critical, hz)
            };
            engine::run(&opts.config, &space, &base, &mut eval)?
        }
    };

    let m = outcome.best.measured;
    let expects = vec![
        ("p50_latency".to_string(), critical.clone(), m.p50),
        ("p99_latency".to_string(), critical.clone(), m.p99),
        ("max_latency".to_string(), critical.clone(), m.max),
        ("bytes".to_string(), critical.clone(), m.bytes),
    ];
    let winner_fgq = render_winner(
        &base,
        &outcome.best.candidate,
        m.boundary,
        m.end,
        opts.config.seed,
        &expects,
    );

    // Cold replay: the winner text must reproduce the forked
    // measurement bit for bit, and every pinned expect must pass.
    let replay = scenario_report(
        &winner_fgq,
        &RunOptions {
            cycles: m.end,
            until_done: None,
        },
    )
    .map_err(|e| format!("hunt: winner replay: {e}"))?;
    let replayed = measured_from_report(&replay, &critical, hz, m.boundary)?;
    let asserts_ok = matches!(assertion_outcome(&replay), Some((_, 0)));
    let replay_verified = replayed == m && asserts_ok;

    let bound = bound_for(&winner_fgq, &critical)?;
    let bound_violated = matches!(
        bound.as_ref().and_then(|b| b.delay_bound),
        Some(limit) if m.max > limit
    );

    let report = fgqos_hunt::render_report(
        &opts.config,
        &base,
        opts.warmup,
        opts.tail_cycles,
        &outcome,
        bound.as_ref(),
        &winner_fgq,
        replay_verified,
    );
    Ok(HuntResult {
        report,
        winner_fgq,
        replay_verified,
        bound_violated,
        outcome,
    })
}

/// Extracts the structural facts the engine needs from the parsed base
/// scenario.
pub fn base_info(text: &str, spec: &ScenarioSpec) -> Result<BaseInfo, String> {
    let critical = spec
        .masters
        .iter()
        .find(|m| matches!(m.role, Role::Critical))
        .map(|m| m.name.clone())
        .ok_or("hunt: the scenario declares no `role critical` master to attack")?;

    // Generated sections are named hx<i> / hxf<i>; a base scenario that
    // already uses those names would collide at parse time.
    for m in &spec.masters {
        if is_reserved(&m.name, "hx") {
            return Err(format!(
                "hunt: master name {:?} is reserved for generated aggressors",
                m.name
            ));
        }
    }
    for f in &spec.faults {
        if is_reserved(&f.name, "hxf") {
            return Err(format!(
                "hunt: fault name {:?} is reserved for generated faults",
                f.name
            ));
        }
    }

    // Masters the base scenario already injects traffic faults into are
    // off-limits: the DSL allows one traffic fault per (master, cycle)
    // and excluding them keeps generated overlays collision-free. So are
    // delayed (`start`) masters, whose traffic no fault may rewrite.
    let mut base_faulted: BTreeSet<&str> = BTreeSet::new();
    for f in &spec.faults {
        for e in &f.events {
            if let FaultEvent::Rogue { master }
            | FaultEvent::Bursty { master, .. }
            | FaultEvent::Halt { master } = e
            {
                base_faulted.insert(master);
            }
        }
    }
    let fault_targets = spec
        .masters
        .iter()
        .filter(|m| {
            matches!(m.role, Role::BestEffort)
                && matches!(m.workload, Workload::Spec(_))
                && m.start == 0
                && !base_faulted.contains(m.name.as_str())
        })
        .map(|m| m.name.clone())
        .collect();

    Ok(BaseInfo {
        text: text.to_string(),
        critical,
        fault_targets,
        reserved_names: spec.masters.iter().map(|m| m.name.clone()).collect(),
        clock_mhz: spec.freq.hz() / 1_000_000,
    })
}

fn is_reserved(name: &str, prefix: &str) -> bool {
    name.strip_prefix(prefix)
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

/// Derives the candidate value lists from the scenario and the DRAM
/// geometry.
pub fn search_space(spec: &ScenarioSpec) -> SearchSpace {
    let dram = DramConfig::default();
    // A stride of row_bytes * banks revisits the same bank with a row
    // miss per access — the classic bank-hammering pattern.
    let bank_stride = dram.row_bytes * dram.banks as u64;
    let (crit_base, crit_fp) = spec
        .masters
        .iter()
        .find(|m| matches!(m.role, Role::Critical))
        .and_then(|m| match &m.workload {
            Workload::Spec(t) => Some((t.base, t.footprint)),
            Workload::Kernel(..) => None,
        })
        .unwrap_or((0x1000_0000, 16 << 20));

    let mut bases = vec![crit_base, crit_base.saturating_add(crit_fp), 0x6000_0000];
    bases.dedup();
    SearchSpace {
        max_aggressors: 3,
        max_faults: 2,
        periods: vec![200, 500, 1_000, 2_000, 4_000, 8_000],
        budgets: vec![512, 1_024, 4_096, 16_384, 65_536, 262_144],
        txns: vec![64, 256, 1_024, 4_096],
        strides: vec![dram.row_bytes, bank_stride, bank_stride * 2],
        bases,
        footprints: vec![1 << 20, 4 << 20, 16 << 20],
        outstandings: vec![0, 2, 8],
        burst_on: vec![100, 500, 2_000],
        burst_off: vec![0, 300, 1_500],
        fault_at: vec![10_000, 40_000, 120_000, 180_000],
    }
}

fn batch_spec(family: &str, points: &[(u64, u64)], opts: &HuntOptions) -> BatchSpec {
    BatchSpec {
        scenario: family.to_string(),
        cycles: opts.tail_cycles,
        until_done: None,
        warmup: opts.warmup,
        points: points
            .iter()
            .map(|&(period, budget)| BatchPoint { period, budget })
            .collect(),
        kind: BatchKind::Hunt,
    }
}

fn eval_local(
    family: &str,
    points: &[(u64, u64)],
    opts: &HuntOptions,
    critical: &str,
    hz: u64,
) -> Result<Vec<Measured>, String> {
    let reports = batch_reports(&batch_spec(family, points, opts)).map_err(|e| e.to_string())?;
    reports
        .iter()
        .map(|r| measured_from_point(r, critical, hz))
        .collect()
}

fn eval_serve(
    client: &mut Client,
    family: &str,
    points: &[(u64, u64)],
    opts: &HuntOptions,
    critical: &str,
    hz: u64,
) -> Result<Vec<Measured>, String> {
    let ack = client
        .submit_batch(&batch_spec(family, points, opts), &SubmitOptions::default())
        .map_err(|e| format!("submit_batch: {e}"))?;
    ack.jobs
        .iter()
        .map(|&job| {
            let doc = client
                .wait_report(job, Duration::from_secs(300))
                .map_err(|e| format!("job {job}: {e}"))?;
            let report = Report::from_json(&doc)?;
            measured_from_point(&report, critical, hz)
        })
        .collect()
}

/// Extracts the critical-master metrics from one batch point report.
fn measured_from_point(report: &Report, critical: &str, hz: u64) -> Result<Measured, String> {
    let boundary = context_u64(report, "boundary")
        .ok_or("hunt: point report carries no 'boundary' context")?;
    measured_from_report(report, critical, hz, boundary)
}

/// Extracts the critical-master metrics from any scenario report whose
/// boundary cycle the caller already knows.
fn measured_from_report(
    report: &Report,
    critical: &str,
    hz: u64,
    boundary: u64,
) -> Result<Measured, String> {
    let end = context_u64(report, "simulated_cycles")
        .ok_or("hunt: report carries no 'simulated_cycles' context")?;
    let row = report
        .blocks()
        .iter()
        .find_map(|b| match b {
            Block::Row(cells) if cells.first().map(String::as_str) == Some(critical) => {
                Some(cells.clone())
            }
            _ => None,
        })
        .ok_or_else(|| format!("hunt: report has no stats row for master {critical:?}"))?;
    // Row shape: master, txns, bytes, bandwidth, p50, p99, max.
    let cell = |i: usize| -> Result<u64, String> {
        row.get(i)
            .and_then(|c| c.parse::<u64>().ok())
            .ok_or_else(|| format!("hunt: stats cell {i} of {critical:?} is not an integer"))
    };
    let bytes = cell(2)?;
    // Recomputed rather than parsed from the table's human-formatted
    // bandwidth cell; identical inputs give identical f64s on both the
    // evaluation and replay paths.
    let bandwidth = if end == 0 {
        0.0
    } else {
        bytes as f64 * hz as f64 / end as f64
    };
    Ok(Measured {
        p50: cell(4)?,
        p99: cell(5)?,
        max: cell(6)?,
        bytes,
        bandwidth,
        boundary,
        end,
    })
}

fn context_u64(report: &Report, key: &str) -> Option<u64> {
    report.blocks().iter().find_map(|b| match b {
        Block::Context { key: k, value } if k == key => value.parse().ok(),
        _ => None,
    })
}

/// Computes the analytic bound of the winning scenario, or `None` when
/// the configuration is outside the model:
///
/// * a kernel-workload critical master (no fixed transaction size),
/// * a refresh storm fault (breaks the `t_refi` term),
/// * a reclaim policy (re-programs budgets at runtime).
///
/// Regulator knobs are folded conservatively: each best-effort port is
/// modeled with the smallest period and largest budget it ever holds —
/// declared values or any `[phase]` write, including the winner's own
/// boundary phase — so the admission curve dominates every regime of the
/// run (measured latencies are cumulative from cycle 0). A port whose
/// regulator is ever disabled by a phase or fault is modeled
/// unregulated. Rogue/bursty/halt faults need no special handling: they
/// reshape *offered* traffic, and the regulator caps admission
/// regardless — which is exactly the guarantee the hunt stresses.
pub fn bound_for(winner_text: &str, critical: &str) -> Result<Option<BoundComparison>, String> {
    let spec = ScenarioSpec::parse(winner_text).map_err(|e| format!("hunt: winner parse: {e}"))?;
    if spec.reclaim.is_some() {
        return Ok(None);
    }
    let mut storm = false;
    let mut disabled: BTreeSet<&str> = BTreeSet::new();
    let mut critical_faulted = false;
    for f in &spec.faults {
        for e in &f.events {
            match e {
                FaultEvent::RefreshStorm { .. } => storm = true,
                FaultEvent::Rogue { master }
                | FaultEvent::Bursty { master, .. }
                | FaultEvent::Halt { master }
                    if master == critical =>
                {
                    critical_faulted = true;
                }
                _ => {}
            }
        }
    }
    if storm {
        return Ok(None);
    }
    for (_, master, op) in spec.register_writes(None) {
        if op == ProgramOp::Enable(false) {
            disabled.insert(master);
        }
    }

    let crit = spec
        .masters
        .iter()
        .find(|m| m.name == critical)
        .ok_or_else(|| format!("hunt: winner lost master {critical:?}"))?;
    let (crit_txn, crit_think) = match &crit.workload {
        Workload::Spec(t) => (t.txn_bytes, t.think),
        Workload::Kernel(..) => return Ok(None),
    };

    let mut ports = Vec::new();
    for m in &spec.masters {
        if m.name == critical {
            continue;
        }
        let txn = match &m.workload {
            Workload::Spec(t) => t.txn_bytes,
            // A kernel interferer has no fixed size; charge the largest
            // legal burst.
            Workload::Kernel(..) => MAX_BURST_BEATS as u64 * BEAT_BYTES,
        };
        let outstanding = if m.outstanding > 0 {
            m.outstanding as u64
        } else {
            m.kind.default_outstanding() as u64
        };
        let regulated = matches!(m.role, Role::BestEffort) && !disabled.contains(m.name.as_str());
        if regulated {
            let mut period = m.period as u64;
            let mut budget = m.budget as u64;
            let writes = spec
                .register_writes(None)
                .filter(|&(_, master, _)| master == m.name);
            for (_, _, op) in writes {
                match op {
                    ProgramOp::Period(v) => period = period.min(v as u64),
                    ProgramOp::Budget(v) => budget = budget.max(v as u64),
                    ProgramOp::Enable(_) => {}
                }
            }
            ports.push(PortModel {
                period_cycles: period,
                budget_bytes: budget,
                max_outstanding: outstanding,
                txn_bytes: txn,
            });
        } else {
            ports.push(PortModel::unregulated(outstanding, txn));
        }
    }

    let model = SystemModel {
        dram: DramConfig::default(),
        fifo_depth: spec.xbar.port_fifo_depth as u64,
        ports,
        critical_beats: crit_txn.div_ceil(BEAT_BYTES),
    };
    let s = model.bound_summary(crit_think, crit_txn, spec.freq);
    Ok(Some(BoundComparison {
        delay_bound: s.delay_bound,
        // A traffic fault reshaping the critical's own issue rate (e.g.
        // a base-scenario halt) voids the closed-loop throughput floor;
        // the per-transaction delay bound still holds.
        throughput_floor: if critical_faulted {
            None
        } else {
            s.throughput_floor.map(|b| b.bytes_per_s())
        },
        utilization: s.utilization,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "clock_mhz 1000\ncycles 50000\n\n\
        [master cpu]\nkind cpu\nrole critical\npattern random\ntxn 256\nthink 600\noutstanding 1\n\n\
        [master dma0]\nkind accel\nrole best-effort\nperiod 1000\nbudget 2048\n\
        pattern seq\ntxn 512\nbase 0x40000000\n\n\
        expect isolation(cpu)\n";

    fn tiny_opts() -> HuntOptions {
        HuntOptions {
            config: HuntConfig {
                seed: 7,
                evals: 3,
                explore: 2,
                top_k: 1,
                mutants_per_parent: 1,
                bisect: 2,
                objective: fgqos_hunt::Objective::Max,
            },
            warmup: 4_000,
            tail_cycles: 6_000,
            addr: None,
        }
    }

    #[test]
    fn base_info_extracts_critical_and_targets() {
        let spec = ScenarioSpec::parse(BASE).unwrap();
        let b = base_info(BASE, &spec).unwrap();
        assert_eq!(b.critical, "cpu");
        assert_eq!(b.fault_targets, vec!["dma0".to_string()]);
        assert_eq!(
            b.reserved_names,
            vec!["cpu".to_string(), "dma0".to_string()]
        );
        assert_eq!(b.clock_mhz, 1_000);
    }

    #[test]
    fn base_info_rejects_reserved_names_and_criticalless_scenarios() {
        let text = BASE.replace("[master dma0]", "[master hx0]");
        let spec = ScenarioSpec::parse(&text).unwrap();
        assert!(base_info(&text, &spec).unwrap_err().contains("reserved"));

        let text = BASE
            .replace("role critical", "role unmanaged")
            .replace("expect isolation(cpu)\n", "");
        let spec = ScenarioSpec::parse(&text).unwrap();
        assert!(base_info(&text, &spec).unwrap_err().contains("critical"));
    }

    #[test]
    fn base_info_excludes_already_faulted_targets() {
        let text = format!("{BASE}\n[fault f0]\nat 10000\nrogue dma0\n");
        let spec = ScenarioSpec::parse(&text).unwrap();
        let b = base_info(&text, &spec).unwrap();
        assert!(b.fault_targets.is_empty(), "dma0 already carries a fault");
    }

    #[test]
    fn base_info_excludes_delayed_targets() {
        let text = format!("{BASE}\n[override master dma0]\nstart 5000\n");
        let spec = ScenarioSpec::parse(&text).unwrap();
        let b = base_info(&text, &spec).unwrap();
        assert!(b.fault_targets.is_empty(), "dma0 launches late");
    }

    #[test]
    fn derived_search_space_validates() {
        let spec = ScenarioSpec::parse(BASE).unwrap();
        search_space(&spec).validate().unwrap();
    }

    #[test]
    fn local_evaluator_measures_the_critical_row() {
        let opts = tiny_opts();
        let ms = eval_local(
            BASE,
            &[(1_000, 1_024), (500, 65_536)],
            &opts,
            "cpu",
            1_000_000_000,
        )
        .unwrap();
        assert_eq!(ms.len(), 2);
        for m in &ms {
            assert!(m.boundary >= opts.warmup);
            assert!(m.end > m.boundary);
            assert!(m.bytes > 0, "critical master made progress");
        }
        assert_eq!(ms[0].boundary, ms[1].boundary, "points share one boundary");
    }

    #[test]
    fn bound_folds_phases_conservatively() {
        let text =
            format!("{BASE}\n[phase loosen]\nat 20000\nbudget dma0 65536\nperiod dma0 500\n");
        let loose = bound_for(&text, "cpu").unwrap().expect("modeled");
        let tight = bound_for(BASE, "cpu").unwrap().expect("modeled");
        assert!(
            loose.utilization > tight.utilization,
            "folding in the looser phase knobs must raise modeled demand"
        );
        match (tight.delay_bound, loose.delay_bound) {
            (Some(t), Some(l)) => assert!(l >= t, "looser knobs cannot shrink the bound"),
            (None, _) => panic!("base configuration must be bounded"),
            _ => {} // loose may saturate: also a weaker guarantee
        }
    }

    #[test]
    fn bound_is_unmodeled_for_storms_and_kernels() {
        let storm = format!("{BASE}\n[fault storm]\nat 10000\nrefresh_storm 200 5000\n");
        assert!(bound_for(&storm, "cpu").unwrap().is_none());
    }

    #[test]
    fn hunt_is_reproducible_and_replay_verified() {
        let opts = tiny_opts();
        let a = run_hunt(BASE, &opts).unwrap();
        let b = run_hunt(BASE, &opts).unwrap();
        assert_eq!(
            a.report.to_pretty(),
            b.report.to_pretty(),
            "equal seeds must emit byte-identical reports"
        );
        assert!(a.replay_verified, "winner must replay bit-identically");
        assert_eq!(a.winner_fgq, b.winner_fgq);
        assert!(a.outcome.evals_used > 0);

        let c = run_hunt(
            BASE,
            &HuntOptions {
                config: HuntConfig {
                    seed: 8,
                    ..opts.config
                },
                ..opts
            },
        )
        .unwrap();
        assert_ne!(
            a.report.to_pretty(),
            c.report.to_pretty(),
            "a different seed must explore differently"
        );
    }
}
