//! The snapshot state stream is a stable format: fingerprints, blobs
//! and leap records all depend on every component walking its fields in
//! the same order with the same encoding.
//!
//! `tests/golden/state_stream.txt` pins, for every shipped scenario, the
//! stream fingerprint and length at the first quiesced boundary after
//! 100k cycles and at the end of a leaping 2M-cycle run. A change to any
//! component's field walk shows up here as a drifted line; an intended
//! format change must bump `SNAPSHOT_VERSION` and re-bless with
//! `FGQOS_BLESS=1 cargo test --test state_stream`.

use fgqos::core::prelude::*;
use fgqos::prelude::*;
use fgqos::scenario::load_scenario_text;
use fgqos::serve::cache::fnv64;
use fgqos::sim::cpu::{CacheConfig, CachedSource};
use fgqos::sim::snapshot::SocSnapshot;
use fgqos::sim::system::Soc;
use fgqos::sim::StateWalker;
use std::path::Path;

/// Warm-up before the boundary reading.
const WARMUP: u64 = 100_000;
/// Cycles a warmed scenario may take to drain to a quiesced boundary.
const QUIESCE_SLACK: u64 = 100_000;
/// Length of the leaping run.
const LEAP_RUN: u64 = 2_000_000;

/// Stream length of `soc`'s full state walk plus a digest of its typed
/// field map (which spans are cycle stamps and which counters — what
/// the leap engine relies on).
fn stream_shape(soc: &mut Soc) -> (usize, usize, u64) {
    let mut w = StateWalker::typed_recording(soc.now().get());
    soc.visit_state(&mut w);
    let typed = w.take_typed();
    let map: String = typed
        .fields
        .iter()
        .map(|f| format!("{:?}@{}+{};", f.kind, f.offset, f.len))
        .collect();
    (typed.bytes.len(), typed.fields.len(), fnv64(map.as_bytes()))
}

fn build(text: &str) -> Soc {
    ScenarioSpec::parse(text)
        .expect("shipped scenario parses")
        .build()
        .0
}

/// One golden line per reading of `name`.
fn readings(name: &str, text: &str) -> String {
    let mut out = String::new();
    let mut soc = build(text);
    soc.run(WARMUP);
    match soc.quiesce_point(QUIESCE_SLACK) {
        Some(at) => {
            let snap = soc.snapshot().expect("shipped scenarios are forkable");
            let blob = snap.to_blob(text);
            out.push_str(&format!(
                "{name} boundary {} fingerprint {:016x} bytes {}\n",
                at.get(),
                snap.fingerprint(),
                blob.state.len()
            ));
            // The same walk loads what it wrote.
            let restored = SocSnapshot::load_into(build(text), &blob)
                .unwrap_or_else(|e| panic!("{name}: boundary blob must load: {e}"));
            assert_eq!(restored.fingerprint(), snap.fingerprint(), "{name}");
        }
        None => out.push_str(&format!("{name} boundary none\n")),
    }
    let mut soc = build(text);
    soc.set_leap(true);
    soc.run(LEAP_RUN);
    let (bytes, spans, map) = stream_shape(&mut soc);
    let leap = soc.leap_telemetry();
    out.push_str(&format!(
        "{name} leap {} fingerprint {:016x} bytes {bytes} spans {spans} map {map:016x} \
         leaps {} skipped {}\n",
        soc.now().get(),
        soc.fingerprint(),
        leap.leaps,
        leap.cycles_skipped
    ));
    out
}

#[test]
fn state_stream_matches_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(root.join("scenarios"))
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("fgq"))
        .collect();
    files.sort();
    let mut actual = String::new();
    for path in &files {
        let text = load_scenario_text(path.to_str().expect("utf-8 path"))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("file name");
        actual.push_str(&readings(name, &text));
    }
    let golden = root.join("tests/golden/state_stream.txt");
    if std::env::var_os("FGQOS_BLESS").is_some() {
        std::fs::write(&golden, &actual).expect("golden file is writable");
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with FGQOS_BLESS=1",
            golden.display()
        )
    });
    assert_eq!(
        actual, expected,
        "state stream drifted; an intended format change bumps SNAPSHOT_VERSION \
         and re-blesses with FGQOS_BLESS=1"
    );
}

/// A machine with an aggregate-budget group and a cached CPU survives
/// the blob round trip: every component's walk both writes and loads.
#[test]
fn shared_group_and_cached_source_blob_roundtrip() {
    let make = || {
        let group = SharedRegulator::new(1_000, 2_048);
        SocBuilder::new(SocConfig::default())
            .master_full(
                "cpu",
                CachedSource::new(
                    SequentialSource::reads(0, 64, u64::MAX)
                        .with_footprint(1 << 16)
                        .with_think_time(40),
                    CacheConfig::default(),
                ),
                MasterKind::Cpu,
                OpenGate,
                2,
            )
            .master_full(
                "dma0",
                SequentialSource::reads(1 << 24, 512, u64::MAX).with_gap(200),
                MasterKind::Accelerator,
                group.port_gate(),
                4,
            )
            .master_full(
                "dma1",
                SequentialSource::writes(1 << 25, 512, u64::MAX).with_gap(300),
                MasterKind::Accelerator,
                group.port_gate(),
                4,
            )
            .build()
    };
    let mut soc = make();
    soc.run(30_000);
    soc.quiesce_point(QUIESCE_SLACK)
        .expect("gapped traffic drains");
    let snap = soc.snapshot().expect("every component forks");
    let blob = fgqos::sim::SnapshotBlob::decode(&snap.to_blob("custom").encode())
        .expect("container round-trips");
    let restored = SocSnapshot::load_into(make(), &blob).expect("every component loads");
    assert_eq!(restored.fingerprint(), snap.fingerprint());

    let mut a = snap.fork();
    let mut b = restored.fork();
    a.run(50_000);
    b.run(50_000);
    assert_eq!(a.fingerprint(), b.fingerprint(), "restored fork diverged");
}
