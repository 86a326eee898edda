//! Observability invariants.
//!
//! The metrics/tracing layer promises to be *invisible*: wrapping gates
//! in [`TracingGate`], enabling per-window latency recording and pulling
//! metric snapshots must not change a single simulated cycle or counter
//! versus the bare run (the disabled path is allocation-free and
//! bit-identical — same contract as `FGQOS_NAIVE` in
//! `tests/fast_forward.rs`). Golden-file tests additionally pin the
//! exported Chrome-trace JSON and per-window CSV schemas byte-for-byte;
//! regenerate with `FGQOS_BLESS=1 cargo test --test observability`.

use fgqos::core::prelude::*;
use fgqos::prelude::*;
use fgqos::sim::axi::MasterId;
use fgqos::sim::gate::OpenGate;
use fgqos::sim::json::Value;
use fgqos::sim::metrics::MetricValue;
use fgqos::sim::system::Soc;
use fgqos::sim::trace::{Trace, TraceEvent, TracingGate};
use proptest::prelude::*;
use std::path::Path;

mod common;
use common::{make_gate, make_source, master_kind, master_specs, stats_fingerprint, MasterSpec};

/// Builds the machine `specs` draw; `observe` wraps every gate in a
/// [`TracingGate`] and turns on per-window latency recording — the run
/// under test must not be able to tell the difference.
fn build_soc(specs: &[MasterSpec], observe: Option<&Trace>) -> Soc {
    let cfg = SocConfig {
        dram: DramConfig {
            t_refi: 0,
            ..DramConfig::default()
        },
        ..SocConfig::default()
    };
    let mut b = SocBuilder::new(cfg);
    if observe.is_some() {
        b = b.record_windows_with_latency(1_000);
    }
    for (i, &m) in specs.iter().enumerate() {
        let (name, src, kind, gate) = (
            format!("m{i}"),
            make_source(i, m),
            master_kind(m),
            make_gate(m),
        );
        b = match observe {
            Some(trace) => b.gated_master(name, src, kind, TracingGate::new(gate, trace.clone())),
            None => b.gated_master(name, src, kind, gate),
        };
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full observability (tracing on every gate, per-window latency
    /// recording, metric snapshots pulled mid-run and at the end) leaves
    /// the simulation bit-identical to the bare run.
    #[test]
    fn observability_is_invisible(specs in master_specs()) {
        let mut bare = build_soc(&specs, None);
        let trace = Trace::new();
        let mut observed = build_soc(&specs, Some(&trace));

        let a = bare.run_until_all_done(5_000_000);
        // Pull a metrics snapshot mid-run on the observed SoC: snapshots
        // are pull-based and must not perturb anything either.
        observed.run(1_000);
        let _ = observed.collect_metrics();
        let b = observed.run_until_all_done(5_000_000);

        prop_assert_eq!(a, b, "completion cycles diverge for {:?}", specs);
        prop_assert!(a.is_some(), "scenario deadlocked: {:?}", specs);
        prop_assert_eq!(
            stats_fingerprint(&bare), stats_fingerprint(&observed),
            "stats diverge for {:?}", specs
        );

        // The instrumented run did observe something real.
        let accepts = trace.count_matching(|e| matches!(e, TraceEvent::Accepted { .. }));
        let issued: u64 = (0..observed.master_count())
            .map(|i| observed.master_stats(MasterId::new(i)).issued_txns)
            .sum();
        prop_assert_eq!(accepts as u64 + trace.dropped(), issued + trace.dropped());
        // And the final registry is coherent with the stats it mirrors.
        let reg = observed.collect_metrics();
        for i in 0..observed.master_count() {
            let name = observed.master_name(MasterId::new(i)).to_string();
            let key = format!("soc.master.{name}.bytes_completed");
            let Some(MetricValue::Counter(bytes)) = reg.get(&key) else {
                return Err(TestCaseError::fail(format!("missing {key}")));
            };
            prop_assert_eq!(*bytes, observed.master_stats(MasterId::new(i)).bytes_completed);
        }
    }
}

/// The deterministic scenario behind the golden files and the
/// `trace_capture` example: the README quickstart pair (latency-sensitive
/// CPU reader + regulated greedy-ish DMA), small enough to keep the
/// golden artifacts reviewable.
fn golden_soc(trace: &Trace) -> Soc {
    let (regulator, _driver) = TcRegulator::create(RegulatorConfig {
        period_cycles: 1_000,
        budget_bytes: 2_048,
        enabled: true,
        ..RegulatorConfig::default()
    });
    SocBuilder::new(SocConfig {
        dram: DramConfig {
            t_refi: 0,
            ..DramConfig::default()
        },
        ..SocConfig::default()
    })
    .record_windows_with_latency(1_000)
    .master_full(
        "cpu",
        SequentialSource::reads(0x0000_0000, 256, 20)
            .with_think_time(200)
            .with_footprint(1 << 20),
        MasterKind::Cpu,
        TracingGate::new(OpenGate, trace.clone()),
        1,
    )
    .gated_master(
        "dma",
        SequentialSource::writes(0x4000_0000, 1024, 10).with_think_time(150),
        MasterKind::Accelerator,
        TracingGate::new(regulator, trace.clone()),
    )
    .build()
}

fn run_golden() -> (Soc, Trace) {
    // A regulated greedy-ish port logs one deny per stalled retry cycle,
    // so even this small scenario produces thousands of events; the cap
    // keeps the golden artifact reviewable and exercises the bounded-log
    // path (dropped counter) on a real capture.
    let trace = Trace::with_max_events(256);
    let mut soc = golden_soc(&trace);
    soc.run_until_all_done(1_000_000)
        .expect("golden scenario finishes");
    (soc, trace)
}

/// Compares `actual` against the golden file, or rewrites it when
/// `FGQOS_BLESS=1`.
fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("FGQOS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with FGQOS_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted; rerun with FGQOS_BLESS=1 and review the diff"
    );
}

#[test]
fn chrome_trace_matches_golden() {
    let (soc, trace) = run_golden();
    let json = soc.chrome_trace(&trace);

    // Structural checks first: valid JSON, schema header, the phases the
    // format promises, thread names for both masters.
    let doc = Value::parse(&json).expect("exported trace is valid JSON");
    let other = doc.get("otherData").expect("otherData");
    assert_eq!(
        other.get("schema").and_then(Value::as_str),
        Some("fgqos.chrome-trace")
    );
    assert_eq!(other.get("version").and_then(Value::as_u64), Some(1));
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents");
    let phase = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
            .count()
    };
    assert_eq!(phase("M"), 2, "one thread_name per master");
    assert!(phase("X") > 0, "paired transactions become slices");
    assert!(phase("i") > 0, "gate decisions become instants");
    assert!(phase("C") > 0, "window counter samples present");
    assert!(trace.dropped() > 0, "the capped capture saturated");

    check_golden("quickstart_trace.json", &json);
}

#[test]
fn window_series_csv_matches_golden() {
    let (soc, _trace) = run_golden();
    let csv = soc.window_series_csv();

    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("# fgqos.window-series v1"));
    assert_eq!(
        lines.next(),
        Some("master,window,start_cycle,bytes,lat_count,p50_lat,p99_lat")
    );
    // Every data row has exactly the schema's 7 columns and belongs to a
    // registered master.
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols.len(), 7, "row {line:?}");
        assert!(cols[0] == "cpu" || cols[0] == "dma", "row {line:?}");
    }
    // Window bytes reconcile with the per-master totals.
    for name in ["cpu", "dma"] {
        let id = soc.master_id(name).unwrap();
        let st = soc.master_stats(id);
        let from_csv: u64 = csv
            .lines()
            .skip(2)
            .filter(|l| l.starts_with(&format!("{name},")))
            .map(|l| l.split(',').nth(3).unwrap().parse::<u64>().unwrap())
            .sum();
        let recorded: u64 = st.window.as_ref().unwrap().windows().iter().sum();
        assert_eq!(from_csv, recorded);
        assert!(recorded <= st.bytes_completed);
    }

    check_golden("window_series.csv", &csv);
}

#[test]
fn metrics_snapshot_exports() {
    let (soc, _trace) = run_golden();
    let reg = soc.collect_metrics();

    // Stable hierarchical names for every layer.
    for key in [
        "soc.cycle",
        "soc.master.cpu.completed_txns",
        "soc.master.cpu.latency",
        "soc.master.dma.gate.kind",
        "soc.master.dma.gate.budget_bytes",
        "soc.master.dma.gate.stall_cycles",
        "soc.xbar.arbitration",
        "soc.dram.row_hit_ratio",
    ] {
        assert!(reg.get(key).is_some(), "missing metric {key}");
    }
    // The JSON export round-trips through the parser.
    let doc = reg.to_json();
    let parsed = Value::parse(&doc.to_pretty()).unwrap();
    assert_eq!(
        parsed.get("schema").and_then(Value::as_str),
        Some("fgqos.metrics")
    );
    assert_eq!(
        parsed
            .get("metrics")
            .and_then(|m| m.get("soc.cycle"))
            .and_then(Value::as_u64),
        reg.get("soc.cycle").and_then(|v| match v {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        })
    );
    // The CSV export carries its schema comment and one row per metric
    // (histograms flatten to seven).
    let csv = reg.to_csv();
    assert!(csv.starts_with("# fgqos.metrics v1\nname,type,value\n"));
}

#[test]
fn trace_cap_bounds_memory() {
    // A deliberately tiny cap on the golden scenario: the log stops at
    // the cap, counts the rest, and the Chrome export still works.
    let trace = Trace::with_max_events(16);
    let mut soc = golden_soc(&trace);
    soc.run_until_all_done(1_000_000).expect("finishes");
    assert_eq!(trace.len(), 16);
    assert!(trace.dropped() > 0);
    let json = soc.chrome_trace(&trace);
    Value::parse(&json).expect("capped trace still exports valid JSON");
}
