//! CI perf-smoke gate: quick throughput check of the contended-path
//! benchmark cases against the floors recorded in `BENCH_sim.json`.
//!
//! Runs the `soc_cycles/8` (greedy 8-master) and `regulated_cycles/fast`
//! (4 regulated masters) scenarios inline — best-of-N wall-clock, no
//! Criterion — plus the `warm_start` case: fork the shared boundary
//! snapshot and run the divergent tail, the inner loop of the
//! `exp_granularity` sweep (the snapshot is captured once, outside the
//! timed region), and the snapshot-blob serialize/deserialize MB/s
//! cases gating the persistent warm-boundary store's encode and
//! fingerprint-verified load paths. Fails if any case falls below
//! `threshold × recorded floor`. The threshold defaults to 0.7 (a drop
//! of more than 30 % fails) and is tunable via `FGQOS_PERF_THRESHOLD`
//! so noisy runners can widen the gate without editing the workflow.
//!
//! ```text
//! cargo run --release -p fgqos-bench --bin perf_smoke
//! FGQOS_PERF_THRESHOLD=0.5 cargo run --release -p fgqos-bench --bin perf_smoke
//! ```
//!
//! The scenarios come from [`fgqos_bench::scenarios`] — the same builders
//! the Criterion benches measure — so the floor comparison is
//! apples-to-apples with `BENCH_sim.json`.

use fgqos_bench::scenarios::{
    greedy_soc, leap_soc, regulated_soc, warm_start_snapshot, LEAP_CYCLES, REGULATED_CYCLES,
    SOC_CYCLES, WARM_START_TAIL_CYCLES,
};
use fgqos_sim::json::Value;
use fgqos_sim::snapshot::SocSnapshot;
use fgqos_sim::system::Soc;
use fgqos_sim::SnapshotBlob;
use std::path::Path;
use std::time::Instant;

/// Best-of-`reps` throughput in Melem/s (simulated cycles per wall-µs).
fn measure(build: impl Fn() -> Soc, cycles: u64, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut soc = build();
        let t0 = Instant::now();
        soc.run(cycles);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    cycles as f64 / best / 1e6
}

/// Best-of-`reps` snapshot blob serialize / deserialize throughput in
/// MB/s over the encoded blob size. Serialize is the full
/// capture-to-bytes path (`to_blob` + `encode`); deserialize is
/// `decode` + `load_into` a pre-built skeleton (the skeleton build
/// stays outside the timed region, as it would when a worker loads a
/// warm boundary some peer stored).
fn measure_blob(reps: usize) -> (f64, f64) {
    let snap = warm_start_snapshot();
    let mut bytes = Vec::new();
    let mut ser_best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let blob = snap.to_blob("perf-smoke");
        bytes = blob.encode();
        ser_best = ser_best.min(t0.elapsed().as_secs_f64());
    }
    let mut de_best = f64::INFINITY;
    for _ in 0..reps {
        let skeleton = regulated_soc(4);
        let t0 = Instant::now();
        let blob = SnapshotBlob::decode(&bytes).expect("perf-smoke blob decodes");
        let _ = SocSnapshot::load_into(skeleton, &blob).expect("perf-smoke blob loads");
        de_best = de_best.min(t0.elapsed().as_secs_f64());
    }
    let mb = bytes.len() as f64 / 1e6;
    (mb / ser_best, mb / de_best)
}

/// The latest recorded floors: `BENCH_sim.json` is append-only, so the
/// newest entry holding each micro number wins.
fn floors(doc: &Value) -> Option<(f64, f64, f64, f64, f64, f64)> {
    // The steady-state leap engine runs by default, and its aperiodic
    // fingerprint tax (O(log horizon) snapshot walks) lands on exactly
    // these fixed-horizon cases — so their floors come from the
    // `aperiodic_tax_rebaseline` block, the calendar_arena /
    // snapshot_warm_start floors scaled by the measured same-binary
    // leap-on/leap-off ratio.
    let rebase = doc
        .get("steady_state_leap")?
        .get("aperiodic_tax_rebaseline")?;
    let m8 = rebase.get("soc_cycles_8_melem_per_s")?.as_f64()?;
    let reg = rebase.get("regulated_cycles_fast_melem_per_s")?.as_f64()?;
    let warm = rebase.get("warm_start_melem_per_s")?.as_f64()?;
    let blob = doc.get("snapshot_blob")?;
    let ser = blob.get("serialize_mb_per_s")?.as_f64()?;
    let de = blob.get("deserialize_mb_per_s")?.as_f64()?;
    let leap = doc
        .get("steady_state_leap")?
        .get("leap_on_melem_per_s")?
        .as_f64()?;
    Some((m8, reg, warm, ser, de, leap))
}

fn main() {
    let threshold: f64 = std::env::var("FGQOS_PERF_THRESHOLD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.7);

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("BENCH_sim.json"))
        .expect("BENCH_sim.json not found at workspace root");
    let doc = Value::parse(&text).expect("BENCH_sim.json is not valid JSON");
    let (floor_m8, floor_reg, floor_warm, floor_ser, floor_de, floor_leap) = floors(&doc).expect(
        "BENCH_sim.json missing calendar_arena / snapshot_warm_start / snapshot_blob / \
             steady_state_leap floors",
    );

    let m8 = measure(|| greedy_soc(8), SOC_CYCLES, 5);
    let reg = measure(|| regulated_soc(4), REGULATED_CYCLES, 5);
    // The boundary snapshot is captured once, outside the timed region:
    // the case gates the fork + divergent-tail cost only.
    let snap = warm_start_snapshot();
    let warm = measure(|| snap.fork(), WARM_START_TAIL_CYCLES, 5);
    let (ser, de) = measure_blob(5);
    // Steady-state leap throughput: the engine must keep crossing the
    // saturated regulated horizon algebraically. A regression here means
    // detection stopped firing (a new snap field breaking lockstep, a
    // component walk newly declaring no_leap), not ordinary slowdown
    // — the gated number is orders of magnitude above cycle stepping.
    let leap = measure(leap_soc, LEAP_CYCLES, 3);

    let mut failed = false;
    for (name, got, floor, unit) in [
        ("soc_cycles/8", m8, floor_m8, "Melem/s"),
        ("regulated_cycles/fast", reg, floor_reg, "Melem/s"),
        ("warm_start", warm, floor_warm, "Melem/s"),
        ("snapshot_serialize", ser, floor_ser, "MB/s"),
        ("snapshot_deserialize", de, floor_de, "MB/s"),
        ("steady_state_leap", leap, floor_leap, "Melem/s"),
    ] {
        let min = floor * threshold;
        let ok = got >= min;
        failed |= !ok;
        println!(
            "perf_smoke: {name:<22} {got:9.1} {unit:<7}  floor {floor:8.1}  min {min:8.1}  {}",
            if ok { "ok" } else { "FAIL" }
        );
    }
    if failed {
        eprintln!(
            "perf_smoke: throughput below {:.0}% of the BENCH_sim.json floor \
             (override with FGQOS_PERF_THRESHOLD)",
            threshold * 100.0
        );
        std::process::exit(1);
    }
}
