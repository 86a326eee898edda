//! Fork-vs-cold equivalence for the snapshot subsystem.
//!
//! The contract `fgqos-snap` exists to uphold: a Soc captured at a
//! quiesced boundary and forked must be indistinguishable — to the
//! fingerprint bit and to the report byte — from a cold Soc that ran
//! the identical schedule from cycle zero. Every test here builds the
//! same scenario twice, runs one to a quiesced boundary, snapshots and
//! forks it, and requires the fork's continuation to match the cold
//! run's: architectural fingerprint, full statistics (latency
//! histograms included) and the rendered report document. Scenarios
//! mix every gate family, every source family, refresh on/off, shared
//! budget groups, software policy controllers and both execution cores
//! (event calendar and `FGQOS_NAIVE`-style cycle stepping).

use fgqos::bench::report::Report;
use fgqos::core::prelude::*;
use fgqos::prelude::*;
use fgqos::sim::axi::{Dir, MasterId};
use fgqos::sim::snapshot::SocSnapshot;
use fgqos::sim::system::Soc;
use fgqos::sim::{fnv64, ForkCtx, SnapDecodeError, SnapshotBlob};
use fgqos::workloads::prelude::*;
use proptest::prelude::*;

mod common;
use common::{build_policy_soc, build_soc, master_specs, stats_fingerprint, MasterSpec};

/// Bound for the quiesce search. Every generated workload is bounded
/// (a few hundred transactions per master), so the pipeline always
/// drains well inside this budget; hitting it is a bug, not a flaky
/// scenario.
const QUIESCE_BOUND: u64 = 20_000_000;

/// Renders the Soc's observable outcome as a `fgqos.exp-report`
/// document and returns its compact JSON bytes — the same currency the
/// `fgqos-serve` result cache promises byte-determinism for.
fn report_bytes(soc: &Soc) -> String {
    let mut r = Report::new("snapshot-equivalence");
    r.context("cycle", soc.now());
    r.header(&["master", "txns", "bytes", "bandwidth", "p50", "p99", "max"]);
    for i in 0..soc.master_count() {
        let id = MasterId::new(i);
        let st = soc.master_stats(id);
        r.row(vec![
            format!("m{i}"),
            st.completed_txns.to_string(),
            st.bytes_completed.to_string(),
            format!("{}", soc.master_bandwidth(id)),
            st.latency.percentile(0.50).to_string(),
            st.latency.percentile(0.99).to_string(),
            st.latency.max().to_string(),
        ]);
    }
    let d = soc.dram_stats();
    r.note(format!(
        "dram: {} bytes, {} row hits, {} row misses, {} refreshes",
        d.bytes_completed, d.row_hits, d.row_misses, d.refreshes
    ));
    r.to_json().to_compact()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: for random scenarios and fork points,
    /// `fork(snapshot).run_to(t)` is fingerprint- and report-byte-
    /// identical to a cold run to `t`, under both execution cores.
    #[test]
    fn fork_matches_cold_run_under_both_cores(
        specs in master_specs(),
        refresh in prop::bool::ANY,
        prefix in 2_000u64..40_000,
        extra in 5_000u64..150_000,
    ) {
        for naive in [false, true] {
            let mut warm = build_soc(&specs, refresh, naive);
            warm.run(prefix);
            let tq = warm.quiesce_point(QUIESCE_BOUND);
            prop_assert!(tq.is_some(), "bounded workload failed to quiesce: {specs:?}");
            let snap = warm.snapshot().expect("quiesced soc snapshots");
            prop_assert!(snap.verify());
            prop_assert_eq!(snap.cycle(), tq.unwrap());

            let mut fork = snap.fork();
            prop_assert_eq!(
                fork.fingerprint(), snap.fingerprint(),
                "fork must start bit-identical to the boundary"
            );
            fork.run(extra);

            // The cold run executes the identical schedule from cycle
            // zero, with no snapshot in between.
            let mut cold = build_soc(&specs, refresh, naive);
            cold.run(prefix);
            let tq_cold = cold.quiesce_point(QUIESCE_BOUND);
            prop_assert_eq!(
                tq_cold, tq,
                "quiesced boundary must be deterministic (naive={}) for {:?}", naive, specs
            );
            cold.run(extra);

            prop_assert_eq!(fork.now(), cold.now());
            prop_assert_eq!(
                fork.fingerprint(), cold.fingerprint(),
                "architectural fingerprint diverged (naive={}) for {:?}", naive, specs
            );
            prop_assert_eq!(
                stats_fingerprint(&fork), stats_fingerprint(&cold),
                "statistics diverged (naive={}) for {:?}", naive, specs
            );
            prop_assert_eq!(
                report_bytes(&fork), report_bytes(&cold),
                "report bytes diverged (naive={}) for {:?}", naive, specs
            );
        }
    }

    /// Persistence round-trip: snapshot → serialize → deserialize →
    /// fork runs fingerprint-, statistics- and report-byte-identical to
    /// an in-memory fork, under both execution cores. This is the
    /// property the on-disk warm-boundary store and the serve protocol's
    /// `snapshot` op stand on.
    #[test]
    fn serialized_blob_fork_matches_in_memory_fork(
        specs in master_specs(),
        refresh in prop::bool::ANY,
        prefix in 2_000u64..30_000,
        extra in 5_000u64..100_000,
    ) {
        for naive in [false, true] {
            let mut warm = build_soc(&specs, refresh, naive);
            warm.run(prefix);
            let tq = warm.quiesce_point(QUIESCE_BOUND);
            prop_assert!(tq.is_some(), "bounded workload failed to quiesce: {specs:?}");
            let snap = warm.snapshot().expect("quiesced soc snapshots");

            // Through the wire format and back.
            let encoded = snap.to_blob("generated-soc").encode();
            let blob = SnapshotBlob::decode(&encoded).expect("fresh blob decodes");
            prop_assert_eq!(blob.fingerprint, snap.fingerprint());
            prop_assert_eq!(blob.cycle, snap.cycle().get());
            let restored = SocSnapshot::load_into(build_soc(&specs, refresh, naive), &blob)
                .expect("state stream loads into an identically built skeleton");
            prop_assert_eq!(restored.fingerprint(), snap.fingerprint());

            let mut mem_fork = snap.fork();
            let mut blob_fork = restored.fork();
            mem_fork.run(extra);
            blob_fork.run(extra);
            prop_assert_eq!(
                blob_fork.fingerprint(), mem_fork.fingerprint(),
                "deserialized fork diverged (naive={}) for {:?}", naive, specs
            );
            prop_assert_eq!(stats_fingerprint(&blob_fork), stats_fingerprint(&mem_fork));
            prop_assert_eq!(report_bytes(&blob_fork), report_bytes(&mem_fork));
        }
    }

    /// Snapshots cross the core boundary: a snapshot captured under the
    /// event calendar, forked and switched to naive stepping, matches a
    /// cold run that was naive from cycle zero. (The quiesced boundary
    /// is core-independent by construction — this is the proof.)
    #[test]
    fn snapshot_captured_fast_replays_naive(
        specs in master_specs(),
        refresh in prop::bool::ANY,
        prefix in 2_000u64..30_000,
        extra in 5_000u64..100_000,
    ) {
        let mut warm = build_soc(&specs, refresh, false);
        warm.run(prefix);
        let tq = warm.quiesce_point(QUIESCE_BOUND);
        prop_assert!(tq.is_some());
        let snap = warm.snapshot().expect("quiesced");

        let mut fork = snap.fork();
        fork.set_naive(true);
        fork.run(extra);

        let mut cold = build_soc(&specs, refresh, true);
        cold.run(prefix);
        prop_assert_eq!(cold.quiesce_point(QUIESCE_BOUND), tq);
        cold.run(extra);

        // The `naive` flag is part of the fingerprint stream (it is
        // architectural configuration), so compare behaviour via stats
        // and report bytes rather than the raw fingerprint.
        prop_assert_eq!(stats_fingerprint(&fork), stats_fingerprint(&cold));
        prop_assert_eq!(report_bytes(&fork), report_bytes(&cold));
    }

    /// N forks from one snapshot are mutually independent: running one
    /// to a different horizon neither perturbs its siblings nor the
    /// snapshot itself, and each sibling still matches its own cold run.
    #[test]
    fn sibling_forks_are_independent_and_each_matches_cold(
        specs in master_specs(),
        prefix in 2_000u64..30_000,
        extra_a in 5_000u64..80_000,
        extra_b in 5_000u64..80_000,
    ) {
        let mut warm = build_soc(&specs, false, false);
        warm.run(prefix);
        let tq = warm.quiesce_point(QUIESCE_BOUND);
        prop_assert!(tq.is_some());
        let snap = warm.snapshot().expect("quiesced");

        let mut a = snap.fork();
        let mut b = snap.fork();
        a.run(extra_a);
        b.run(extra_b);
        prop_assert!(snap.verify(), "running forks must not mutate the snapshot");

        for (fork, extra) in [(&mut a, extra_a), (&mut b, extra_b)] {
            let mut cold = build_soc(&specs, false, false);
            cold.run(prefix);
            prop_assert_eq!(cold.quiesce_point(QUIESCE_BOUND), tq);
            cold.run(extra);
            prop_assert_eq!(fork.fingerprint(), cold.fingerprint());
            prop_assert_eq!(stats_fingerprint(fork), stats_fingerprint(&cold));
        }
    }
}

/// Software policy controllers fork with their driver handles rebound:
/// the forked policy keeps reprogramming the forked regulators, and the
/// continuation matches a cold run bit-for-bit.
#[test]
fn policy_controllers_fork_matches_cold() {
    for use_feedback in [false, true] {
        let mut warm = build_policy_soc(7, 5_000, use_feedback, None);
        warm.run(20_000);
        let tq = warm
            .quiesce_point(QUIESCE_BOUND)
            .expect("closed-loop stack quiesces");
        let snap = warm.snapshot().expect("policy controllers are forkable");

        let mut fork = snap.fork();
        fork.run(200_000);

        let mut cold = build_policy_soc(7, 5_000, use_feedback, None);
        cold.run(20_000);
        assert_eq!(cold.quiesce_point(QUIESCE_BOUND), Some(tq));
        cold.run(200_000);

        assert_eq!(
            fork.fingerprint(),
            cold.fingerprint(),
            "policy fork diverged (feedback={use_feedback})"
        );
        assert_eq!(stats_fingerprint(&fork), stats_fingerprint(&cold));
    }
}

/// A shared budget group's aggregate state is remapped once per fork:
/// both member gates of a fork see the same forked window, and sibling
/// forks never share budget with each other or the snapshot.
#[test]
fn shared_budget_group_forks_preserve_topology() {
    let build = || {
        let cfg = SocConfig {
            dram: DramConfig {
                t_refi: 0,
                ..DramConfig::default()
            },
            ..SocConfig::default()
        };
        let group = SharedRegulator::new(1_000, 4_096);
        let mut b = SocBuilder::new(cfg);
        for i in 0..2u64 {
            let spec = TrafficSpec {
                gap: 40,
                ..TrafficSpec::stream(i << 28, 1 << 20, 256, Dir::Read)
            }
            .with_total(300);
            b = b.gated_master(
                format!("m{i}"),
                SpecSource::new(spec, 11 ^ i),
                MasterKind::Accelerator,
                group.port_gate(),
            );
        }
        b.build()
    };

    let mut warm = build();
    warm.run(15_000);
    let tq = warm
        .quiesce_point(QUIESCE_BOUND)
        .expect("gapped streams drain");
    let snap = warm.snapshot().expect("shared gates are forkable");

    let mut a = snap.fork();
    let mut b = snap.fork();
    a.run(150_000);
    assert!(snap.verify(), "sibling fork consumed the snapshot's budget");
    b.run(150_000);

    let mut cold = build();
    cold.run(15_000);
    assert_eq!(cold.quiesce_point(QUIESCE_BOUND), Some(tq));
    cold.run(150_000);

    // Both forks exhausted the same shared window the same way the cold
    // run did — had the two member gates been remapped to *different*
    // copies of the group state, each would see double the budget.
    assert_eq!(a.fingerprint(), cold.fingerprint());
    assert_eq!(b.fingerprint(), cold.fingerprint());
    assert_eq!(stats_fingerprint(&a), stats_fingerprint(&cold));
}

/// External driver handles rebound through the fork's `ForkCtx` program
/// the fork — and only the fork. This is the seam the warm-start sweep
/// planner uses to apply per-point configurations after forking.
#[test]
fn rebound_driver_programs_fork_without_touching_snapshot() {
    let cfg = SocConfig {
        dram: DramConfig {
            t_refi: 0,
            ..DramConfig::default()
        },
        ..SocConfig::default()
    };
    let (reg, driver) = TcRegulator::create(RegulatorConfig {
        period_cycles: 1_000,
        budget_bytes: 8_192,
        enabled: true,
        ..RegulatorConfig::default()
    });
    let spec = TrafficSpec {
        gap: 30,
        ..TrafficSpec::stream(0, 1 << 20, 256, Dir::Read)
    }
    .with_total(2_000);
    let mut warm = SocBuilder::new(cfg)
        .gated_master(
            "dma",
            SpecSource::new(spec, 3),
            MasterKind::Accelerator,
            reg,
        )
        .build();
    warm.run(20_000);
    warm.quiesce_point(QUIESCE_BOUND).expect("drains");
    let snap = warm.snapshot().expect("quiesced");

    // Fork A: rebind the external driver and throttle hard.
    let mut ctx = ForkCtx::new();
    let mut throttled = snap.fork_with(&mut ctx);
    let fork_driver = driver.forked(&mut ctx);
    fork_driver.set_budget_bytes(256);

    // Fork B: untouched configuration.
    let mut stock = snap.fork();

    // The original register file (alive inside the snapshot) must not
    // have seen the write.
    assert_eq!(driver.budget_bytes(), 8_192);
    assert_eq!(fork_driver.budget_bytes(), 256);
    assert!(snap.verify(), "programming a fork mutated the snapshot");

    throttled.run(300_000);
    stock.run(300_000);
    let id = MasterId::new(0);
    let slow = throttled.master_stats(id).bytes_completed;
    let fast = stock.master_stats(id).bytes_completed;
    assert!(
        slow < fast,
        "throttled fork ({slow} bytes) should trail the stock fork ({fast} bytes)"
    );
}

/// A quiesced snapshot of a small mixed scenario, encoded to blob bytes
/// (shared by the negative-path tests below).
fn encoded_test_blob() -> (SocSnapshot, Vec<u8>, Vec<MasterSpec>) {
    let specs = vec![
        MasterSpec {
            gate_sel: 1,
            src_sel: 0,
            seed: 7,
            p1: 123,
            p2: 456,
        },
        MasterSpec {
            gate_sel: 2,
            src_sel: 1,
            seed: 11,
            p1: 789,
            p2: 321,
        },
    ];
    let mut warm = build_soc(&specs, false, false);
    warm.run(10_000);
    warm.quiesce_point(QUIESCE_BOUND).expect("drains");
    let snap = warm.snapshot().expect("quiesced");
    let encoded = snap.to_blob("negative-path-soc").encode();
    (snap, encoded, specs)
}

/// Truncating a blob at any point must produce a diagnostic decode
/// error — never a panic, never a silent partial load.
#[test]
fn truncated_blobs_fail_with_diagnostics() {
    let (_snap, encoded, _specs) = encoded_test_blob();
    for cut in [0, 1, 7, 8, 16, encoded.len() / 2, encoded.len() - 1] {
        let err =
            SnapshotBlob::decode(&encoded[..cut]).expect_err("truncated blob must not decode");
        assert!(
            !err.to_string().is_empty(),
            "decode error must carry a diagnostic message"
        );
    }
}

/// A single flipped payload byte is caught by the container checksum
/// before any state is interpreted.
#[test]
fn flipped_byte_fails_the_checksum() {
    let (_snap, encoded, _specs) = encoded_test_blob();
    // Flip one byte in the middle of the state stream (well past the
    // header, well before the trailing checksum).
    let mut bad = encoded.clone();
    let mid = encoded.len() / 2;
    bad[mid] ^= 0x40;
    match SnapshotBlob::decode(&bad) {
        Err(SnapDecodeError::ChecksumMismatch { .. }) => {}
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
}

/// An unknown `SNAPSHOT_VERSION` is rejected at load with a version
/// diagnostic (the container still decodes — version negotiation
/// happens at the state layer, so future formats can carry old blobs).
#[test]
fn wrong_snapshot_version_is_rejected_at_load() {
    let (_snap, encoded, specs) = encoded_test_blob();
    let mut blob = SnapshotBlob::decode(&encoded).expect("fresh blob decodes");
    blob.snapshot_version = 999;
    let reencoded = SnapshotBlob::decode(&blob.encode()).expect("container re-encodes");
    match SocSnapshot::load_into(build_soc(&specs, false, false), &reencoded) {
        Err(SnapDecodeError::Version { found: 999, .. }) => {}
        other => panic!("expected a version error, got {other:?}"),
    }
}

/// A blob whose state does not hash back to its recorded fingerprint is
/// rejected end-to-end, even when the container checksum is intact.
#[test]
fn fingerprint_mismatch_is_rejected_at_load() {
    let (_snap, encoded, specs) = encoded_test_blob();
    let mut blob = SnapshotBlob::decode(&encoded).expect("fresh blob decodes");
    blob.fingerprint ^= 1;
    // encode() recomputes the container checksum, so only the
    // fingerprint cross-check can catch this.
    let reencoded = SnapshotBlob::decode(&blob.encode()).expect("container re-encodes");
    match SocSnapshot::load_into(build_soc(&specs, false, false), &reencoded) {
        Err(SnapDecodeError::FingerprintMismatch { .. }) => {}
        other => panic!("expected a fingerprint mismatch, got {other:?}"),
    }
}

/// Loading a valid blob into a *differently built* skeleton fails with
/// a diagnostic instead of silently producing a frankenstate.
#[test]
fn blob_refuses_a_mismatched_skeleton() {
    let (_snap, encoded, mut specs) = encoded_test_blob();
    let blob = SnapshotBlob::decode(&encoded).expect("decodes");
    specs[0].gate_sel = 3; // different gate family than the capture
    let err = SocSnapshot::load_into(build_soc(&specs, false, false), &blob)
        .expect_err("mismatched skeleton must be rejected");
    assert!(!err.to_string().is_empty());
}

/// A blob whose latency histogram disagrees with its own min/max is
/// refused with a decode error naming it, never a panic: the state walk
/// scans only the buckets between min and max, so a bin outside them
/// would be dropped (or the range inverted) on the next walk.
#[test]
fn histogram_outside_its_min_max_is_refused() {
    let (_snap, encoded, specs) = encoded_test_blob();
    let blob = SnapshotBlob::decode(&encoded).expect("decodes");
    // Section tag, then count (u64), sum (u128), min (u64), max (u64).
    let tag: Vec<u8> = [&7u64.to_le_bytes()[..], b"latency"].concat();
    let word = |s: &[u8], at: usize| u64::from_le_bytes(s[at..at + 8].try_into().unwrap());
    let (min_at, min, max) = (0..blob.state.len() - tag.len())
        .filter(|&at| blob.state[at..].starts_with(&tag))
        .map(|at| at + tag.len())
        .map(|body| {
            (
                body + 24,
                word(&blob.state, body + 24),
                word(&blob.state, body + 32),
            )
        })
        .find(|&(min_at, min, max)| word(&blob.state, min_at - 24) > 1 && max >= 2 * min + 32)
        .expect("a latency histogram spanning several buckets");
    let patched = |new_min: u64, new_max: u64| {
        let mut blob = blob.clone();
        blob.state[min_at..min_at + 8].copy_from_slice(&new_min.to_le_bytes());
        blob.state[min_at + 8..min_at + 16].copy_from_slice(&new_max.to_le_bytes());
        // A consistent fingerprint, so only the state walk can object.
        blob.fingerprint = fnv64(&blob.state);
        SocSnapshot::load_into(build_soc(&specs, false, false), &blob)
    };
    for (new_min, new_max, expect) in [
        (max, min, "above max"),
        (min, min, "outside the live bins"),
        (max, max, "outside the live bins"),
    ] {
        match patched(new_min, new_max) {
            Err(SnapDecodeError::BadValue { what, .. }) => {
                assert!(what.contains(expect), "{what}")
            }
            other => panic!("min {new_min} max {new_max}: expected BadValue, got {other:?}"),
        }
    }
    // The untouched values still load.
    patched(min, max).expect("the original histogram loads");
}

/// A fork owns its latency histograms: one fork recording samples
/// changes neither the snapshot nor a sibling fork (count, percentiles
/// and walk bytes), and the sibling then records exactly what the first
/// fork did.
#[test]
fn forked_histograms_record_independently() {
    let (snap, _encoded, _specs) = encoded_test_blob();
    let mut first = snap.fork();
    let at_boundary = (stats_fingerprint(&first), report_bytes(&first));
    first.run(60_000);
    let after_run = (stats_fingerprint(&first), report_bytes(&first));
    assert_ne!(
        after_run, at_boundary,
        "the fork must have recorded samples"
    );

    let mut sibling = snap.fork();
    assert_eq!(sibling.fingerprint(), snap.fingerprint());
    assert_eq!(
        (stats_fingerprint(&sibling), report_bytes(&sibling)),
        at_boundary
    );
    sibling.run(60_000);
    assert_eq!(
        (stats_fingerprint(&sibling), report_bytes(&sibling)),
        after_run
    );
    assert_eq!(sibling.fingerprint(), first.fingerprint());
    assert_eq!(snap.fork().fingerprint(), snap.fingerprint());
}
