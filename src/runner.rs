//! Scenario execution into structured [`Report`] documents.
//!
//! A run's outcome is a `fgqos.exp-report` document — the shared
//! currency of the `exp_*` binaries, `fgqos --json`, and the
//! `fgqos-serve` result cache (which requires byte-deterministic output
//! for equal inputs). The `fgqos` CLI's text is a rendering of the same
//! document ([`scenario_text`]), so served and direct runs agree on what
//! a user reads too.

use crate::scenario::{
    ExpectKind, ExpectSpec, LatencyMetric, ParseScenarioError, Role, ScenarioSpec,
};
use fgqos_bench::report::{Block, Report};
use fgqos_core::fabric::QosFabric;
use fgqos_core::program::ScenarioProgram;
use fgqos_serve::cache::fnv64;
use fgqos_serve::live::{BoundaryCmd, JournalEntry, LiveSession, LIVE_SCHEMA, LIVE_VERSION};
#[cfg(test)]
use fgqos_serve::protocol::{BatchKind, ControlSet};
use fgqos_serve::protocol::{BatchPoint, BatchSpec, JobSpec, LiveSpec};
use fgqos_serve::{BatchExecutor, Executor, LiveExecutor, SnapshotExecutor};
use fgqos_sim::axi::{MasterId, BEAT_BYTES, MAX_BURST_BEATS};
use fgqos_sim::json::Value;
use fgqos_sim::master::MasterStats;
use fgqos_sim::snapshot::SocSnapshot;
use fgqos_sim::system::{Soc, WindowBoundary};
use fgqos_sim::{BlobStore, ForkCtx, SnapshotBlob, StateWalker};
use std::sync::Arc;

/// How to run a scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Cycle budget (also the cap when `until_done` is set).
    pub cycles: u64,
    /// Stop as soon as this master's workload completes.
    pub until_done: Option<String>,
}

/// Why a scenario run failed.
#[derive(Debug)]
pub enum RunError {
    /// The scenario text did not parse or validate.
    Parse(ParseScenarioError),
    /// The run itself was impossible (e.g. unknown `until_done` master).
    Run(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Parse(e) => write!(f, "{e}"),
            RunError::Run(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Runs `text` as a scenario and renders the outcome as a report.
///
/// The document is a pure function of `(text, opts)` — the simulator is
/// deterministic and every rendered number comes from it — which is what
/// lets `fgqos-serve` cache results content-addressed and still promise
/// byte-identical responses.
pub fn scenario_report(text: &str, opts: &RunOptions) -> Result<Report, RunError> {
    scenario_run(text, opts).map(|(report, _)| report)
}

/// [`scenario_report`] plus the finished [`Soc`] it ran on, for output
/// the document does not carry (the CLI's `--histogram`).
pub fn scenario_run(text: &str, opts: &RunOptions) -> Result<(Report, Soc), RunError> {
    let spec = ScenarioSpec::parse(text).map_err(RunError::Parse)?;
    let (mut soc, fabric) = spec.build();

    let mut report = Report::new("scenario");
    report.banner(
        "SCENARIO",
        &format!("content {:016x}", fnv64(text.as_bytes())),
    );
    report.context("cycles", opts.cycles);

    let ran = run_for(
        &mut report,
        &mut soc,
        opts.cycles,
        opts.until_done.as_deref(),
        "",
    )?;
    leap_block(&mut report, &soc);
    stats_tables(&mut report, &spec, &soc, &fabric, ran);
    assertion_block(&mut report, &spec, &soc, &fabric);
    Ok((report, soc))
}

/// Runs `soc` for `cycles`, or until master `until_done` finishes within
/// them, recording that master and when it finished (or a note that it
/// did not, with `from` saying where the budget counts from), then the
/// cycle the run ended at and the clock in `report`. Returns that cycle.
fn run_for(
    report: &mut Report,
    soc: &mut Soc,
    cycles: u64,
    until_done: Option<&str>,
    from: &str,
) -> Result<u64, RunError> {
    let ran = match until_done {
        None => {
            soc.run(cycles);
            soc.now().get()
        }
        Some(name) => {
            let id = soc
                .master_id(name)
                .ok_or_else(|| RunError::Run(format!("--until-done: no master named {name:?}")))?;
            report.context("until_done", name);
            match soc.run_until_done(id, cycles) {
                Some(t) => {
                    report.context("finished_at", t);
                    t.get()
                }
                None => {
                    report.note(format!(
                        "master {name:?} did not finish within {cycles} cycles{from}"
                    ));
                    soc.now().get()
                }
            }
        }
    };
    report.context("simulated_cycles", ran);
    report.context("clock", soc.freq());
    Ok(ran)
}

/// Appends steady-state leap telemetry to a scenario report.
///
/// Purely informational: leap-on and leap-off runs produce bit-identical
/// simulation results (proptest-pinned in `tests/leap.rs`), so every
/// *measured* number in the document is unaffected — these lines only say
/// how much of the horizon was crossed algebraically. They stay a pure
/// function of `(text, opts)` under a fixed environment; flipping
/// `FGQOS_NO_LEAP`/`FGQOS_NAIVE` changes them (and nothing else), which is
/// why point reports — compared byte-for-byte across mixed naive/fast
/// fleet workers in CI — deliberately do *not* carry this block.
fn leap_block(report: &mut Report, soc: &Soc) {
    let leap = soc.leap_telemetry();
    report.context("leap_enabled", leap.enabled);
    report.context("leap_periods_detected", leap.periods_detected);
    report.context("leap_probes", leap.probes);
    report.context("leap_cycles_skipped", leap.cycles_skipped);
    report.context("leap_leaps", leap.leaps);
}

/// Largest single AXI burst in bytes. Window accounting can overshoot by
/// at most one in-flight burst even under correct regulation, so
/// `expect isolation(...)` tolerates exactly this much per-window
/// overshoot and no more.
const ISOLATION_OVERSHOOT_SLACK: u64 = MAX_BURST_BEATS as u64 * BEAT_BYTES;

/// Outcome of one `expect` directive after a run.
struct AssertionResult {
    /// The directive as written in the scenario (without the keyword).
    text: String,
    /// Human-readable measured value backing the verdict.
    measured: String,
    /// Whether the directive holds (negation already applied).
    pass: bool,
}

/// Evaluates every `expect` directive of `spec` against the finished run.
///
/// Targets were validated at parse time (the master exists and has the
/// role the metric needs), so lookups here cannot fail. Results come back
/// in declaration order.
fn evaluate_expectations(
    spec: &ScenarioSpec,
    soc: &Soc,
    fabric: &QosFabric,
) -> Vec<AssertionResult> {
    spec.expects
        .iter()
        .map(|e| evaluate_expect(e, spec, soc, fabric))
        .collect()
}

fn evaluate_expect(
    e: &ExpectSpec,
    spec: &ScenarioSpec,
    soc: &Soc,
    fabric: &QosFabric,
) -> AssertionResult {
    let stats_of = |name: &str| {
        let id = soc
            .master_id(name)
            .expect("expect target validated at parse time");
        soc.master_stats(id)
    };
    let (measured, holds) = match &e.kind {
        ExpectKind::Latency {
            metric,
            master,
            op,
            value,
        } => {
            let st = stats_of(master);
            let got = match metric {
                LatencyMetric::P50 => st.latency.percentile(0.50),
                LatencyMetric::P99 => st.latency.percentile(0.99),
                LatencyMetric::Max => st.latency.max(),
            };
            (format!("{got} cycles"), op.holds(got, *value))
        }
        ExpectKind::Bytes { master, op, value } => {
            let got = stats_of(master).bytes_completed;
            (format!("{got} bytes"), op.holds(got, *value))
        }
        ExpectKind::WithinBudget { master, percent } => {
            let d = fabric
                .driver(master)
                .expect("expect target validated at parse time");
            let t = d.telemetry();
            if t.windows == 0 {
                ("no completed windows".to_string(), false)
            } else {
                // Average over *completed* windows only: the open window
                // is still filling and would bias the mean downward.
                let avg = (t.total_bytes - t.window_bytes) as f64 / t.windows as f64;
                let budget = f64::from(d.budget_bytes());
                let dev = if budget == 0.0 {
                    if avg == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (avg - budget).abs() / budget * 100.0
                };
                (
                    format!("{avg:.0} bytes/window, {dev:.1}% off budget"),
                    dev <= *percent,
                )
            }
        }
        ExpectKind::Isolation { master } => {
            let stalls = stats_of(master).gate_stall_cycles;
            let worst = spec
                .masters
                .iter()
                .filter(|m| m.role == Role::BestEffort)
                .filter_map(|m| {
                    fabric
                        .driver(&m.name)
                        .map(|d| (m.name.as_str(), d.telemetry().max_overshoot))
                })
                .max_by_key(|(_, o)| *o);
            let (worst_name, worst_over) = worst.unwrap_or(("-", 0));
            (
                format!("{stalls} gate stalls, worst overshoot {worst_over}B ({worst_name})"),
                stalls == 0 && worst_over <= ISOLATION_OVERSHOOT_SLACK,
            )
        }
    };
    AssertionResult {
        text: e.text.clone(),
        measured,
        pass: if e.negated { !holds } else { holds },
    }
}

/// Appends the assertion verdict table (and summary context lines) when
/// the scenario carries `expect` directives; a scenario without them gets
/// no block at all, keeping v1 report bytes unchanged.
fn assertion_block(report: &mut Report, spec: &ScenarioSpec, soc: &Soc, fabric: &QosFabric) {
    let results = evaluate_expectations(spec, soc, fabric);
    if results.is_empty() {
        return;
    }
    let passed = results.iter().filter(|r| r.pass).count() as u64;
    let failed = results.len() as u64 - passed;
    report.blank();
    report.note("assertions:");
    report.context("assertions_passed", passed);
    report.context("assertions_failed", failed);
    report.header(&["assertion", "measured", "verdict"]);
    for r in results {
        report.row(vec![
            r.text,
            r.measured,
            if r.pass { "PASS" } else { "FAIL" }.to_string(),
        ]);
    }
}

/// Reads the assertion summary back out of a rendered [`Report`]:
/// `Some((passed, failed))` when the scenario carried `expect`
/// directives, `None` otherwise. This is how the CLI decides its exit
/// status for reports that crossed the serve wire as documents.
pub fn assertion_outcome(report: &Report) -> Option<(u64, u64)> {
    let count = |key| report.context_value(key)?.parse().ok();
    Some((count("assertions_passed")?, count("assertions_failed")?))
}

/// The shared result body: per-master table, DRAM summary and the QoS
/// fabric report. `ran` normalizes bus utilization.
fn stats_tables(report: &mut Report, spec: &ScenarioSpec, soc: &Soc, fabric: &QosFabric, ran: u64) {
    report.header(&["master", "txns", "bytes", "bandwidth", "p50", "p99", "max"]);
    for i in 0..soc.master_count() {
        let id = MasterId::new(i);
        let st = soc.master_stats(id);
        report.row(vec![
            spec.masters[i].name.clone(),
            st.completed_txns.to_string(),
            st.bytes_completed.to_string(),
            format!("{}", soc.master_bandwidth(id)),
            st.latency.percentile(0.50).to_string(),
            st.latency.percentile(0.99).to_string(),
            st.latency.max().to_string(),
        ]);
    }
    report.blank();
    let d = soc.dram_stats();
    report.note(format!(
        "dram: {} bytes, row-hit ratio {:.2}, bus utilization {:.2}, {} refreshes",
        d.bytes_completed,
        d.row_hit_ratio(),
        d.bus_busy_cycles as f64 / ran.max(1) as f64,
        d.refreshes,
    ));
    report.blank();
    report.note("qos fabric:");
    for line in fabric.report().lines() {
        report.note(line);
    }
}

/// Column widths of the `fgqos <file>` master table; the name column is
/// left-aligned, the numbers right-aligned.
const MASTER_COLUMNS: [usize; 7] = [12, 10, 14, 12, 9, 9, 9];

/// The blank-separated sections [`stats_tables`] and [`assertion_block`]
/// write: head with the master table, DRAM note, `qos fabric:` notes,
/// then the assertion block (empty when the scenario has no `expect`).
fn sections(report: &Report) -> [&[Block]; 4] {
    let mut split = report.blocks().split(|b| *b == Block::Blank);
    [(); 4].map(|_| split.next().unwrap_or_default())
}

/// Renders a [`scenario_report`] document in the `fgqos <file>` text
/// layout, so the text a user reads is a function of the document.
/// `quiet` drops the fabric notes; `histograms` adds each master's
/// latency distribution (which the document does not carry) after the
/// DRAM line.
pub fn scenario_text(report: &Report, quiet: bool, histograms: Option<&Soc>) -> String {
    let ctx = |key| report.context_value(key).unwrap_or_default();
    let mut out = String::new();
    if let Some(name) = report.context_value("until_done") {
        out.push_str(&match report.context_value("finished_at") {
            Some(t) => format!("master {name:?} finished at {t}\n"),
            None => format!(
                "master {name:?} did not finish within {} cycles\n",
                ctx("cycles")
            ),
        });
    }
    out.push_str(&format!(
        "\nsimulated {} cycles at {}\n",
        ctx("simulated_cycles"),
        ctx("clock")
    ));
    let [table, dram, fabric, _] = sections(report);
    for b in table {
        if let Block::Header(cells) | Block::Row(cells) = b {
            for (i, (cell, width)) in cells.iter().zip(MASTER_COLUMNS).enumerate() {
                out.push_str(&match i {
                    0 => format!("{cell:<width$}"),
                    _ => format!(" {cell:>width$}"),
                });
            }
            out.push('\n');
        }
    }
    for b in dram {
        if let Block::Note(text) = b {
            out.push_str(&format!("\n{text}\n"));
        }
    }
    if let Some(soc) = histograms {
        out.push_str(&latency_histograms(soc));
    }
    if !quiet {
        out.push('\n');
        for b in fabric {
            if let Block::Note(text) = b {
                out.push_str(&format!("{text}\n"));
            }
        }
    }
    out + &assertion_text(report)
}

/// The `assertions:` verdict lines of a report, as `fgqos <file>` and
/// `fgqos check` print them; empty when the scenario has no `expect`.
pub fn assertion_text(report: &Report) -> String {
    let [.., assertions] = sections(report);
    if assertions.is_empty() {
        return String::new();
    }
    let mut out = String::from("\nassertions:\n");
    for b in assertions {
        if let Block::Row(cells) = b {
            if let [text, measured, verdict] = &cells[..] {
                out.push_str(&format!("  {verdict} expect {text}  [{measured}]\n"));
            }
        }
    }
    out
}

/// Each master's latency distribution as a bar chart of its non-empty
/// buckets (`fgqos --histogram`); masters that completed nothing are
/// skipped.
fn latency_histograms(soc: &Soc) -> String {
    let mut out = String::new();
    for i in 0..soc.master_count() {
        let id = MasterId::new(i);
        let latency = &soc.master_stats(id).latency;
        if latency.count() == 0 {
            continue;
        }
        out.push_str(&format!(
            "\nlatency histogram for {}:\n",
            soc.master_name(id)
        ));
        let peak = latency.nonzero_buckets().map(|(_, c)| c).max().unwrap_or(1);
        for (lo, count) in latency.nonzero_buckets() {
            let bar = "#".repeat((count * 40 / peak).max(1) as usize);
            out.push_str(&format!("{lo:>9} {count:>9} {bar}\n"));
        }
    }
    out
}

/// Slack appended to a batch's `warmup` while searching for a quiesced
/// boundary; when no gap opens in this range the batch falls back to
/// per-point cold runs of the identical schedule.
const BATCH_QUIESCE_SLACK: u64 = 100_000;

/// Runs a warm-start batch: one report per point, in point order.
///
/// The scenario is built once and warmed for `spec.warmup` cycles, then
/// advanced to the first quiesced boundary within a fixed slack
/// (`BATCH_QUIESCE_SLACK`). From there every point forks the boundary
/// [`SocSnapshot`], programs its
/// `period`/`budget` into every best-effort regulator and runs the
/// divergent tail (`spec.cycles`, or `until_done` capped by it). When no
/// quiesced boundary opens — a scenario that keeps the pipeline
/// saturated through the slack window — each point instead replays the
/// identical schedule cold, so the result is the same pure function of
/// `(spec, point)` either way; only the wall-clock differs. A point
/// that is not a valid register write ([`BatchPoint::writes`]: a period
/// of 0, or a value past the 32-bit register) fails the whole batch
/// before anything is simulated.
pub fn batch_reports(spec: &BatchSpec) -> Result<Vec<Report>, RunError> {
    batch_reports_with_store(spec, None)
}

/// [`batch_reports`] with an optional shared warm-boundary store.
///
/// When a [`BlobStore`] is supplied, the quiesced boundary is looked up
/// by [`warm_boundary_key`] before any simulation: a hit restores the
/// serialized snapshot (fingerprint-verified against a freshly built
/// skeleton) and skips the warmup run entirely; a miss warms as usual
/// and files the boundary blob for every later run — including runs in
/// *other processes*, which is what lets a sharded serve fleet warm each
/// distinct `(scenario, warmup)` once instead of once per worker.
/// Results are byte-identical either way: the blob's fingerprint check
/// proves the restored state equals the in-memory boundary bit for bit.
pub fn batch_reports_with_store(
    spec: &BatchSpec,
    store: Option<&BlobStore>,
) -> Result<Vec<Report>, RunError> {
    for (i, point) in spec.points.iter().enumerate() {
        point
            .writes()
            .map_err(|e| RunError::Run(format!("point {i}: {e}")))?;
    }
    let parsed = ScenarioSpec::parse(&spec.scenario).map_err(RunError::Parse)?;
    // Resolve `until_done` before simulating anything: an unknown
    // master fails the batch up front, not per point. The probe build
    // also tells us which simulation core is in effect — part of the
    // warm-boundary key because the core flag is in the snapshot stream.
    let (probe, _) = parsed.build();
    if let Some(name) = &spec.until_done {
        if probe.master_id(name).is_none() {
            return Err(RunError::Run(format!(
                "--until-done: no master named {name:?}"
            )));
        }
    }
    let key = warm_boundary_key(&spec.scenario, spec.warmup, probe.is_naive());
    if let Some(store) = store {
        if let Ok(Some(encoded)) = store.get_named(&key) {
            if let Ok(blob) = SnapshotBlob::decode(&encoded) {
                let (soc, fabric) = parsed.build();
                if let Ok(snap) = SocSnapshot::load_into(soc, &blob) {
                    return point_forks(&parsed, &snap, &fabric, spec);
                }
                // A blob that fails to load (stale format, wrong
                // recipe) is a miss: fall through and re-warm.
            }
        }
    }
    let (mut soc, fabric) = parsed.build();
    soc.run(spec.warmup);
    if soc.quiesce_point(BATCH_QUIESCE_SLACK).is_some() {
        let snap = soc
            .snapshot()
            .map_err(|e| RunError::Run(format!("boundary snapshot failed: {e}")))?;
        if let Some(store) = store {
            // Best-effort write-through; a full disk must not fail the
            // batch itself.
            let _ = store.put_named(&key, &snap.to_blob(&spec.scenario).encode());
        }
        point_forks(&parsed, &snap, &fabric, spec)
    } else {
        // Cold fallback: the failed quiesce search above advanced the
        // warm SoC to warmup + slack; each cold replay runs the same
        // schedule so boundary and results stay deterministic.
        spec.points
            .iter()
            .map(|point| {
                let (mut soc, fabric) = parsed.build();
                soc.run(spec.warmup);
                let _ = soc.quiesce_point(BATCH_QUIESCE_SLACK);
                point_report(&parsed, &mut soc, &fabric, spec, point)
            })
            .collect()
    }
}

/// Runs every batch point as a fork of the warm boundary, in point order.
fn point_forks(
    parsed: &ScenarioSpec,
    snap: &SocSnapshot,
    fabric: &QosFabric,
    spec: &BatchSpec,
) -> Result<Vec<Report>, RunError> {
    spec.points
        .iter()
        .map(|point| {
            let mut ctx = ForkCtx::new();
            let mut fork = snap.fork_with(&mut ctx);
            let fabric = fabric.fork_rebound(&mut ctx);
            point_report(parsed, &mut fork, &fabric, spec, point)
        })
        .collect()
}

/// Key under which a batch's warm boundary is filed in a [`BlobStore`]:
/// a hash of every input that shapes the boundary state — scenario text,
/// warmup budget, and the simulation core in use (the core flag is part
/// of the snapshot stream, so the two cores produce distinct blobs).
pub fn warm_boundary_key(scenario: &str, warmup: u64, naive: bool) -> String {
    let mut w = StateWalker::hasher();
    w.section("fgqos.warm-boundary-key");
    w.fixed_str(scenario, "scenario");
    w.fixed(warmup, "warmup");
    w.fixed(naive, "naive");
    format!("{:016x}", w.finish())
}

/// Warms `text` for `warmup` cycles, advances to the first quiesced
/// boundary within the usual slack and returns the boundary as an
/// encoded [`SnapshotBlob`]. `Ok(None)` means the scenario kept the
/// pipeline saturated through the whole slack window and has no
/// serializable boundary.
pub fn warm_boundary_blob(text: &str, warmup: u64) -> Result<Option<Vec<u8>>, RunError> {
    let parsed = ScenarioSpec::parse(text).map_err(RunError::Parse)?;
    let (mut soc, _fabric) = parsed.build();
    soc.run(warmup);
    if soc.quiesce_point(BATCH_QUIESCE_SLACK).is_none() {
        return Ok(None);
    }
    let snap = soc
        .snapshot()
        .map_err(|e| RunError::Run(format!("boundary snapshot failed: {e}")))?;
    Ok(Some(snap.to_blob(text).encode()))
}

/// Restores a serialized snapshot end to end: rebuilds the SoC skeleton
/// from the scenario text the blob carries, loads the state stream into
/// it (re-verifying the fingerprint) and returns the live snapshot with
/// its parsed recipe and QoS fabric. The fabric's drivers share register
/// files with the loaded SoC through the usual `Arc`s, so one restore
/// fixes both the hardware and software views.
pub fn restore_snapshot(
    blob: &SnapshotBlob,
) -> Result<(ScenarioSpec, SocSnapshot, QosFabric), RunError> {
    let parsed = ScenarioSpec::parse(&blob.scenario).map_err(RunError::Parse)?;
    let (soc, fabric) = parsed.build();
    let snap = SocSnapshot::load_into(soc, blob)
        .map_err(|e| RunError::Run(format!("snapshot load failed: {e}")))?;
    Ok((parsed, snap, fabric))
}

/// Programs one point's knobs at the boundary and renders its divergent
/// run, mirroring [`scenario_report`]'s document shape.
fn point_report(
    parsed: &ScenarioSpec,
    soc: &mut Soc,
    fabric: &QosFabric,
    spec: &BatchSpec,
    point: &BatchPoint,
) -> Result<Report, RunError> {
    // The knobs land where a `[phase]` declared after the base's own
    // would: after the reclaim policy and the base's phase writes at the
    // boundary cycle, before its fault writes — exactly the order the
    // rendered hunt winner replays in.
    let boundary = soc.now().get();
    let knobs = parsed.knob_phase(boundary, point.writes().map_err(RunError::Run)?);
    soc.controller_mut::<ScenarioProgram>()
        .expect("ScenarioSpec::build installs a scenario program")
        .reschedule(parsed.program_ops(fabric, Some(&knobs)));
    let mut report = Report::new("scenario-point");
    report.banner(
        "SCENARIO-POINT",
        &format!("content {:016x}", fnv64(spec.scenario.as_bytes())),
    );
    report.context("cycles", spec.cycles);
    report.context("warmup", spec.warmup);
    report.context("boundary", boundary);
    report.context("period", point.period);
    report.context("budget", point.budget);
    let ran = run_for(
        &mut report,
        soc,
        spec.cycles,
        spec.until_done.as_deref(),
        " of the boundary",
    )?;
    stats_tables(&mut report, parsed, soc, fabric, ran);
    assertion_block(&mut report, parsed, soc, fabric);
    Ok(report)
}

/// The simulator-backed [`Executor`] `fgqos serve` injects into
/// `fgqos-serve` (which is deliberately ignorant of scenario parsing).
pub fn serve_executor() -> Executor {
    Arc::new(|job: &JobSpec| {
        scenario_report(
            &job.scenario,
            &RunOptions {
                cycles: job.cycles,
                until_done: job.until_done.clone(),
            },
        )
        .map_err(|e| e.to_string())
    })
}

/// The simulator-backed [`BatchExecutor`] behind `submit_batch`: the
/// warm-start path of [`batch_reports`], injected next to
/// [`serve_executor`].
pub fn serve_batch_executor() -> BatchExecutor {
    Arc::new(|spec: &BatchSpec| batch_reports(spec).map_err(|e| e.to_string()))
}

/// A [`BatchExecutor`] backed by a shared warm-boundary [`BlobStore`] at
/// `dir`: the first batch for a `(scenario, warmup)` pair warms and
/// persists the quiesced boundary; later batches — including ones in
/// *other worker processes* sharing the directory — restore it from the
/// blob instead of re-warming. Reports are byte-identical either way
/// (that equivalence is test- and proptest-enforced), so the cache
/// purity contract of [`BatchExecutor`] still holds.
pub fn serve_batch_executor_with_store(dir: impl Into<std::path::PathBuf>) -> BatchExecutor {
    let dir = dir.into();
    Arc::new(move |spec: &BatchSpec| {
        let store = BlobStore::open(&dir).map_err(|e| format!("warm-boundary store: {e}"))?;
        batch_reports_with_store(spec, Some(&store)).map_err(|e| e.to_string())
    })
}

/// The simulator-backed [`SnapshotExecutor`] serving the v3 `snapshot`
/// op: [`warm_boundary_blob`] behind the serve crate's injection seam.
pub fn serve_snapshot_executor() -> SnapshotExecutor {
    Arc::new(|scenario: &str, warmup: u64| {
        warm_boundary_blob(scenario, warmup).map_err(|e| e.to_string())
    })
}

/// Phase-name prefix reserved for journal replay. Scenarios may not
/// declare phases with this prefix, so [`replay_scenario_text`] can
/// always append its synthesized sections without a name collision.
pub const LIVE_PHASE_PREFIX: &str = "live_ctl_";

/// How to run a scenario live (windowed, with runtime control writes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveOptions {
    /// Cycle budget for the run.
    pub cycles: u64,
    /// Telemetry window in cycles: one frame per window, and the
    /// granularity at which queued control writes take effect.
    pub window: u64,
    /// Force the simulation core (`Some(true)` = naive), instead of the
    /// `FGQOS_NAIVE` environment default. Tests pin this so replay
    /// byte-identity is checked under a *known* core.
    pub naive: Option<bool>,
    /// Force the steady-state leap engine on/off, instead of the
    /// `FGQOS_NO_LEAP` environment default.
    pub leap: Option<bool>,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            cycles: 1_000_000,
            window: fgqos_serve::protocol::DEFAULT_LIVE_WINDOW,
            naive: None,
            leap: None,
        }
    }
}

/// One event of a live run, handed to the caller's sink as it happens.
#[derive(Debug)]
pub enum LiveEvent<'a> {
    /// A control write was accepted and applied at a window boundary.
    Control(&'a JournalEntry),
    /// A telemetry frame was read out at a window boundary.
    Frame(&'a Value),
}

/// Everything a finished live run produced.
#[derive(Debug)]
pub struct LiveOutcome {
    /// One telemetry frame per window boundary, in order (also handed
    /// to the sink as [`LiveEvent::Frame`] while running).
    pub frames: Vec<Value>,
    /// Accepted control writes, in application order.
    pub journal: Vec<JournalEntry>,
    /// The final report. Its banner hashes [`LiveOutcome::replay_scenario`],
    /// and it deliberately omits the leap-telemetry block, so a
    /// monolithic [`live_replay_report`] of the replay scenario renders
    /// byte-identically.
    pub report: Report,
    /// The original scenario text with the journal appended as
    /// synthesized `[phase live_ctl_<i>]` sections.
    pub replay_scenario: String,
    /// [`Soc::fingerprint`] of the final architectural state.
    pub fingerprint: u64,
    /// The run stopped early at a window boundary (the control source
    /// asked for an abort); replay identity is not claimed for the
    /// partial run.
    pub aborted: bool,
}

/// Cumulative per-master counters, remembered across boundaries so each
/// frame can carry window deltas.
#[derive(Clone, Copy, Default)]
struct MasterCum {
    bytes: u64,
    txns: u64,
    gate: u64,
    fifo: u64,
}

impl MasterCum {
    fn of(st: &MasterStats) -> Self {
        MasterCum {
            bytes: st.bytes_completed,
            txns: st.completed_txns,
            gate: st.gate_stall_cycles,
            fifo: st.fifo_stall_cycles,
        }
    }
}

fn cum_snapshot(soc: &Soc) -> Vec<MasterCum> {
    (0..soc.master_count())
        .map(|i| MasterCum::of(soc.master_stats(MasterId::new(i))))
        .collect()
}

/// Renders one `fgqos.live` telemetry frame at a window boundary:
/// per-master window deltas (bytes, txns, stalls) next to cumulative
/// totals and latency percentiles, leap telemetry, and the control
/// writes this boundary absorbed.
fn live_frame(
    run_id: u64,
    soc: &Soc,
    spec: &ScenarioSpec,
    b: &WindowBoundary,
    prev: &mut [MasterCum],
    applied: &[JournalEntry],
) -> Value {
    let mut f = Value::obj();
    f.set("schema", Value::str(LIVE_SCHEMA));
    f.set("version", Value::from(LIVE_VERSION));
    f.set("stream", Value::str("frame"));
    f.set("run", Value::from(run_id));
    f.set("window", Value::from(b.index));
    f.set("start", Value::from(b.start.get()));
    f.set("end", Value::from(b.end.get()));
    f.set("last", Value::from(b.last));
    let mut masters = Value::arr();
    for (i, prev_cum) in prev.iter_mut().enumerate().take(soc.master_count()) {
        let st = soc.master_stats(MasterId::new(i));
        let cum = MasterCum::of(st);
        let mut m = Value::obj();
        m.set("name", Value::str(spec.masters[i].name.clone()));
        m.set("bytes", Value::from(cum.bytes - prev_cum.bytes));
        m.set("txns", Value::from(cum.txns - prev_cum.txns));
        m.set("gate_stalls", Value::from(cum.gate - prev_cum.gate));
        m.set("fifo_stalls", Value::from(cum.fifo - prev_cum.fifo));
        m.set("total_bytes", Value::from(cum.bytes));
        m.set("p50", Value::from(st.latency.percentile(0.50)));
        m.set("p99", Value::from(st.latency.percentile(0.99)));
        m.set("max", Value::from(st.latency.max()));
        masters.push(m);
        *prev_cum = cum;
    }
    f.set("masters", masters);
    let leap = soc.leap_telemetry();
    let mut lv = Value::obj();
    lv.set("enabled", Value::from(leap.enabled));
    lv.set("periods_detected", Value::from(leap.periods_detected));
    lv.set("probes", Value::from(leap.probes));
    lv.set("cycles_skipped", Value::from(leap.cycles_skipped));
    lv.set("leaps", Value::from(leap.leaps));
    f.set("leap", lv);
    let mut controls = Value::arr();
    for e in applied {
        controls.push(e.to_json());
    }
    f.set("controls", controls);
    f
}

/// Synthesizes the replay scenario for a live run: the original text
/// with one `[phase live_ctl_<i>]` section appended per journal entry,
/// in journal order.
///
/// Each section programs exactly what the live write programmed, `at`
/// the boundary cycle the write took effect. Appending (rather than
/// merging into existing phases) preserves ordering under the scenario
/// engine's *stable* sort by `at`: an original `[phase]` op scheduled at
/// the same cycle still fires first, matching the live run, where the
/// boundary settles scheduled controllers before external writes land.
pub fn replay_scenario_text(text: &str, journal: &[JournalEntry]) -> String {
    let mut out = String::from(text);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    for (i, e) in journal.iter().enumerate() {
        out.push_str(&format!(
            "\n[phase {LIVE_PHASE_PREFIX}{i}]\nat {}\n{} {} {}\n",
            e.at,
            e.set.key(),
            e.target,
            e.set.fgq_value()
        ));
    }
    out
}

/// The shared live-report shape: like [`scenario_report`]'s document but
/// bannered with the *replay* scenario's content hash and without the
/// leap-telemetry block (leap counters depend on run segmentation, and
/// the whole point of this document is byte-comparison between a
/// windowed live run and its monolithic replay).
fn live_style_report(
    replay_text: &str,
    spec: &ScenarioSpec,
    soc: &Soc,
    fabric: &QosFabric,
    cycles: u64,
    ran: u64,
) -> Report {
    let mut report = Report::new("scenario-live");
    report.banner(
        "SCENARIO-LIVE",
        &format!("content {:016x}", fnv64(replay_text.as_bytes())),
    );
    report.context("cycles", cycles);
    report.context("simulated_cycles", ran);
    report.context("clock", soc.freq());
    stats_tables(&mut report, spec, soc, fabric, ran);
    assertion_block(&mut report, spec, soc, fabric);
    report
}

fn build_live_soc(
    text: &str,
    opts: &LiveOptions,
) -> Result<(ScenarioSpec, Soc, QosFabric), RunError> {
    if opts.window == 0 {
        return Err(RunError::Run("window must be at least one cycle".into()));
    }
    if opts.cycles == 0 {
        return Err(RunError::Run("cycles must be at least one cycle".into()));
    }
    let spec = ScenarioSpec::parse(text).map_err(RunError::Parse)?;
    let (mut soc, fabric) = spec.build();
    if let Some(naive) = opts.naive {
        soc.set_naive(naive);
    }
    if let Some(leap) = opts.leap {
        soc.set_leap(leap);
    }
    Ok((spec, soc, fabric))
}

/// Masters a live run accepts control writes for: the scenario's
/// best-effort masters, in declaration order (the same set `[phase]`
/// sections may target).
pub fn live_targets(spec: &ScenarioSpec) -> Vec<String> {
    spec.masters
        .iter()
        .filter(|m| m.role == Role::BestEffort)
        .map(|m| m.name.clone())
        .collect()
}

/// Runs `text` live: in `opts.window`-sized segments with explicit
/// yield points at every window boundary, where `poll` supplies queued
/// control writes and `sink` observes accepted writes and telemetry
/// frames as they happen.
///
/// At each **interior** boundary the drained writes are applied through
/// [`ProgramOp::apply`](fgqos_core::program::ProgramOp::apply) — the single code path `[phase]` directives use —
/// and journaled, stamped with the boundary's sim cycle. The **final**
/// boundary accepts no writes (a monolithic run never executes the
/// deadline cycle, so a write there could not be replayed; see
/// [`Soc::run_windowed`]). A write whose target is not one of
/// [`live_targets`] is silently dropped — the serve session screens
/// targets at `control` time, so the engine only double-checks.
///
/// The determinism contract: replaying
/// [`LiveOutcome::replay_scenario`] monolithically via
/// [`live_replay_report`] (same `opts`) reproduces
/// [`LiveOutcome::report`] and [`LiveOutcome::fingerprint`] byte for
/// byte. With an empty journal this degenerates to the windowed ≡
/// monolithic equivalence of [`Soc::run_windowed`].
pub fn live_run(
    text: &str,
    opts: &LiveOptions,
    run_id: u64,
    mut poll: impl FnMut(&WindowBoundary) -> BoundaryCmd,
    mut sink: impl FnMut(LiveEvent<'_>),
) -> Result<LiveOutcome, RunError> {
    let (spec, mut soc, fabric) = build_live_soc(text, opts)?;
    if let Some(p) = spec
        .phases
        .iter()
        .find(|p| p.name.starts_with(LIVE_PHASE_PREFIX))
    {
        return Err(RunError::Run(format!(
            "phase name {:?} uses the prefix {LIVE_PHASE_PREFIX:?}, which is reserved for \
             control-journal replay",
            p.name
        )));
    }
    let mut journal: Vec<JournalEntry> = Vec::new();
    let mut frames: Vec<Value> = Vec::new();
    let mut aborted = false;
    let mut prev = cum_snapshot(&soc);
    soc.run_windowed(opts.cycles, opts.window, |soc, b| {
        let mut applied: Vec<JournalEntry> = Vec::new();
        if !b.last {
            let cmd = poll(&b);
            if cmd.abort {
                aborted = true;
            } else {
                for w in cmd.writes {
                    let Some(driver) = fabric.driver(&w.target) else {
                        continue;
                    };
                    w.set.apply(driver);
                    let entry = JournalEntry {
                        at: b.end.get(),
                        window: b.index,
                        target: w.target,
                        set: w.set,
                    };
                    sink(LiveEvent::Control(&entry));
                    applied.push(entry);
                }
            }
        }
        let frame = live_frame(run_id, soc, &spec, &b, &mut prev, &applied);
        sink(LiveEvent::Frame(&frame));
        frames.push(frame);
        journal.extend(applied);
        !aborted
    });
    let replay_scenario = replay_scenario_text(text, &journal);
    let fingerprint = soc.fingerprint();
    let ran = soc.now().get();
    let report = live_style_report(&replay_scenario, &spec, &soc, &fabric, opts.cycles, ran);
    Ok(LiveOutcome {
        frames,
        journal,
        report,
        replay_scenario,
        fingerprint,
        aborted,
    })
}

/// Replays a synthesized scenario (see [`replay_scenario_text`]) as one
/// monolithic run and renders it in the live-report shape. Returns the
/// report and the final [`Soc::fingerprint`]; for a completed live run
/// both must equal the live side's byte for byte / bit for bit.
pub fn live_replay_report(
    replay_text: &str,
    opts: &LiveOptions,
) -> Result<(Report, u64), RunError> {
    let (spec, mut soc, fabric) = build_live_soc(replay_text, opts)?;
    soc.run(opts.cycles);
    let report = live_style_report(replay_text, &spec, &soc, &fabric, opts.cycles, opts.cycles);
    Ok((report, soc.fingerprint()))
}

/// The simulator-backed [`LiveExecutor`] behind the v4 `subscribe` op:
/// runs the scenario via [`live_run`] against its [`LiveSession`] —
/// `begin` with the scenario's controllable targets, drain queued
/// control writes at every boundary, record accepted writes, publish
/// frames (pacing by `spec.pace_ms` between them), and `finish` with the
/// final report and replay scenario.
pub fn serve_live_executor() -> LiveExecutor {
    Arc::new(|spec: &LiveSpec, session: Arc<LiveSession>| {
        let opts = LiveOptions {
            cycles: spec.cycles,
            window: spec.window,
            naive: None,
            leap: None,
        };
        let parsed = ScenarioSpec::parse(&spec.scenario).map_err(|e| e.to_string())?;
        session.begin(live_targets(&parsed));
        let pace = std::time::Duration::from_millis(spec.pace_ms);
        let outcome = live_run(
            &spec.scenario,
            &opts,
            session.id(),
            |_b| session.drain_controls(),
            |event| match event {
                LiveEvent::Control(entry) => session.record(entry.clone()),
                LiveEvent::Frame(frame) => {
                    session.publish(frame.clone());
                    if !pace.is_zero() {
                        session.pause(pace);
                    }
                }
            },
        )
        .map_err(|e| e.to_string())?;
        if outcome.aborted {
            session.finish(
                None,
                None,
                Some("run aborted at a window boundary (server draining)".into()),
            );
        } else {
            session.finish(
                Some(outcome.report.to_json()),
                Some(outcome.replay_scenario),
                None,
            );
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCENARIO: &str = "\
clock_mhz 1000

[master cpu]
kind cpu
role critical
pattern seq
footprint 1M
txn 256
total 2000

[master dma]
kind accel
role best-effort
period 1000
budget 2K
pattern seq
base 0x40000000
footprint 4M
txn 512
";

    #[test]
    fn report_is_deterministic_for_equal_inputs() {
        let opts = RunOptions {
            cycles: 50_000,
            until_done: None,
        };
        let a = scenario_report(SCENARIO, &opts).expect("runs");
        let b = scenario_report(SCENARIO, &opts).expect("runs");
        assert_eq!(
            a.to_json().to_compact(),
            b.to_json().to_compact(),
            "equal inputs must serialize byte-identically"
        );
    }

    #[test]
    fn report_carries_the_cli_tables() {
        let opts = RunOptions {
            cycles: 50_000,
            until_done: None,
        };
        let r = scenario_report(SCENARIO, &opts).expect("runs");
        let text = r.render_text();
        assert!(text.contains("cpu"), "master rows present");
        assert!(text.contains("dram:"), "dram summary present");
        assert!(text.contains("qos fabric:"), "fabric report present");
    }

    #[test]
    fn until_done_unknown_master_is_a_run_error() {
        let opts = RunOptions {
            cycles: 1_000,
            until_done: Some("ghost".into()),
        };
        match scenario_report(SCENARIO, &opts) {
            Err(RunError::Run(m)) => assert!(m.contains("ghost")),
            other => panic!("expected Run error, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_surface_with_line_numbers() {
        match scenario_report("bogus line\n", &RunOptions::default()) {
            Err(RunError::Parse(e)) => assert_eq!(e.line, 1),
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    fn batch(points: Vec<BatchPoint>) -> BatchSpec {
        BatchSpec {
            scenario: SCENARIO.to_string(),
            cycles: 20_000,
            until_done: None,
            warmup: 30_000,
            points,
            kind: BatchKind::Sweep,
        }
    }

    #[test]
    fn batch_reports_are_pure_and_point_sensitive() {
        let spec = batch(vec![
            BatchPoint {
                period: 1_000,
                budget: 512,
            },
            BatchPoint {
                period: 1_000,
                budget: 8_192,
            },
        ]);
        let a = batch_reports(&spec).expect("runs");
        let b = batch_reports(&spec).expect("runs");
        assert_eq!(a.len(), 2, "one report per point");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.to_json().to_compact(),
                y.to_json().to_compact(),
                "equal (spec, point) must serialize byte-identically"
            );
        }
        assert_ne!(
            a[0].to_json().to_compact(),
            a[1].to_json().to_compact(),
            "the budget knob must change the divergent tail"
        );
    }

    #[test]
    fn batch_until_done_unknown_master_fails_up_front() {
        let mut spec = batch(vec![BatchPoint {
            period: 1_000,
            budget: 2_048,
        }]);
        spec.until_done = Some("ghost".into());
        match batch_reports(&spec) {
            Err(RunError::Run(m)) => assert!(m.contains("ghost")),
            other => panic!("expected Run error, got {other:?}"),
        }
    }

    #[test]
    fn batch_refuses_invalid_points_before_simulating() {
        let max = u64::from(u32::MAX);
        for (period, budget, fragment) in [
            (0, 2_048, "at least 1"),
            (max + 1, 2_048, "register width"),
            (1_000, max + 1, "register width"),
        ] {
            let mut spec = batch(vec![
                BatchPoint {
                    period: 1_000,
                    budget: 2_048,
                },
                BatchPoint { period, budget },
            ]);
            // The point check comes first: before the `until_done`
            // check, which itself precedes any simulation.
            spec.until_done = Some("ghost".into());
            match std::panic::catch_unwind(|| batch_reports(&spec)) {
                Ok(Err(RunError::Run(m))) => {
                    assert!(m.contains("point 1") && m.contains(fragment), "{m}")
                }
                Ok(other) => panic!("expected a Run error, got {other:?}"),
                Err(_) => panic!("batch panicked on ({period}, {budget})"),
            }
        }
        let ok = batch(vec![BatchPoint {
            period: max,
            budget: max,
        }]);
        assert!(
            batch_reports(&ok).is_ok(),
            "the register width is inclusive"
        );
    }

    #[test]
    fn warm_store_hit_matches_in_memory_batch() {
        let dir = std::env::temp_dir().join(format!("fgqos-warmstore-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = BlobStore::open(&dir).expect("store opens");
        let spec = batch(vec![
            BatchPoint {
                period: 1_000,
                budget: 512,
            },
            BatchPoint {
                period: 1_000,
                budget: 8_192,
            },
        ]);
        let cold = batch_reports(&spec).expect("runs");
        // First store run warms and files the boundary blob…
        let miss = batch_reports_with_store(&spec, Some(&store)).expect("runs");
        let key = warm_boundary_key(&spec.scenario, spec.warmup, false);
        assert!(
            store.get_named(&key).expect("store readable").is_some(),
            "miss run must file the warm boundary"
        );
        // …second run restores it from disk instead of re-warming.
        let hit = batch_reports_with_store(&spec, Some(&store)).expect("runs");
        assert_eq!(miss.len(), cold.len());
        assert_eq!(hit.len(), cold.len());
        for (x, y) in cold.iter().zip(miss.iter()) {
            assert_eq!(x.to_json().to_compact(), y.to_json().to_compact());
        }
        for (x, y) in cold.iter().zip(hit.iter()) {
            assert_eq!(
                x.to_json().to_compact(),
                y.to_json().to_compact(),
                "blob-restored batch must be byte-identical to in-memory"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_boundary_blob_roundtrips_through_restore() {
        let encoded = warm_boundary_blob(SCENARIO, 30_000)
            .expect("runs")
            .expect("scenario quiesces");
        let blob = SnapshotBlob::decode(&encoded).expect("container decodes");
        let (_spec, snap, _fabric) = restore_snapshot(&blob).expect("restores");
        assert_eq!(
            snap.fingerprint(),
            blob.fingerprint,
            "restored snapshot carries the recorded fingerprint"
        );
    }

    #[test]
    fn assertion_free_reports_carry_no_outcome() {
        let opts = RunOptions {
            cycles: 20_000,
            until_done: None,
        };
        let r = scenario_report(SCENARIO, &opts).expect("runs");
        assert_eq!(assertion_outcome(&r), None);
        assert!(!r.render_text().contains("assertions:"));
    }

    #[test]
    fn expect_directives_render_and_gate_the_outcome() {
        let text = format!(
            "expect bytes(cpu) > 0\n\
             expect bytes(cpu) > 100G\n\
             expect isolation(cpu)\n\
             {SCENARIO}"
        );
        let opts = RunOptions {
            cycles: 50_000,
            until_done: None,
        };
        let r = scenario_report(&text, &opts).expect("runs");
        let rendered = r.render_text();
        assert!(rendered.contains("assertions:"));
        assert!(rendered.contains("PASS"));
        assert!(rendered.contains("FAIL"), "the 100G bound cannot hold");
        let (passed, failed) = assertion_outcome(&r).expect("summary present");
        assert_eq!(passed + failed, 3);
        assert_eq!(failed, 1);
        // Assertion evaluation is part of the pure document function.
        let again = scenario_report(&text, &opts).expect("runs");
        assert_eq!(r.to_json().to_compact(), again.to_json().to_compact());
    }

    #[test]
    fn batch_points_evaluate_expectations_too() {
        let mut spec = batch(vec![BatchPoint {
            period: 1_000,
            budget: 2_048,
        }]);
        spec.scenario = format!("expect bytes(dma) > 0\n{SCENARIO}");
        let reports = batch_reports(&spec).expect("runs");
        let (passed, failed) = assertion_outcome(&reports[0]).expect("summary present");
        assert_eq!((passed, failed), (1, 0));
    }

    #[test]
    fn batch_executor_matches_direct_calls() {
        let spec = batch(vec![BatchPoint {
            period: 2_000,
            budget: 1_024,
        }]);
        let via_exec = serve_batch_executor()(&spec).expect("executes");
        let direct = batch_reports(&spec).expect("runs");
        assert_eq!(via_exec.len(), direct.len());
        for (x, y) in via_exec.iter().zip(&direct) {
            assert_eq!(x.to_json().to_compact(), y.to_json().to_compact());
        }
    }

    #[test]
    fn live_replay_reproduces_report_and_fingerprint() {
        use fgqos_serve::live::ControlWrite;
        for naive in [false, true] {
            let opts = LiveOptions {
                cycles: 40_000,
                window: 5_000,
                naive: Some(naive),
                leap: Some(!naive),
            };
            let scripted = [
                (
                    2u64,
                    ControlWrite {
                        target: "dma".into(),
                        set: ControlSet::Budget(512),
                    },
                ),
                (
                    5u64,
                    ControlWrite {
                        target: "dma".into(),
                        set: ControlSet::Period(500),
                    },
                ),
            ];
            let mut events = 0usize;
            let outcome = live_run(
                SCENARIO,
                &opts,
                7,
                |b| {
                    let mut cmd = BoundaryCmd::default();
                    for (window, write) in &scripted {
                        if *window == b.index {
                            cmd.writes.push(write.clone());
                        }
                    }
                    cmd
                },
                |_| events += 1,
            )
            .expect("runs");
            assert!(!outcome.aborted);
            assert_eq!(outcome.journal.len(), 2, "both writes journaled");
            assert_eq!(outcome.frames.len(), 8, "one frame per boundary");
            assert_eq!(events, outcome.frames.len() + outcome.journal.len());
            let (replay, fp) =
                live_replay_report(&outcome.replay_scenario, &opts).expect("replays");
            assert_eq!(
                outcome.report.to_json().to_compact(),
                replay.to_json().to_compact(),
                "live report must equal its monolithic replay byte for byte (naive={naive})"
            );
            assert_eq!(outcome.fingerprint, fp, "final state bit-identical");
        }
    }

    #[test]
    fn live_run_rejects_reserved_phase_names() {
        let text = format!("{SCENARIO}\n[phase live_ctl_0]\nat 100\nbudget dma 64\n");
        match live_run(
            &text,
            &LiveOptions::default(),
            0,
            |_| BoundaryCmd::default(),
            |_| {},
        ) {
            Err(RunError::Run(m)) => assert!(m.contains("reserved")),
            other => panic!("expected Run error, got {other:?}"),
        }
    }

    #[test]
    fn executor_matches_direct_calls() {
        let exec = serve_executor();
        let job = JobSpec {
            scenario: SCENARIO.to_string(),
            cycles: 50_000,
            until_done: None,
        };
        let via_exec = exec(&job).expect("executes");
        let direct = scenario_report(
            SCENARIO,
            &RunOptions {
                cycles: 50_000,
                until_done: None,
            },
        )
        .expect("runs");
        assert_eq!(
            via_exec.to_json().to_compact(),
            direct.to_json().to_compact()
        );
    }
}
