//! Scenario DSL v2 end-to-end properties.
//!
//! Everything the v2 surface promises, pinned at the integration
//! boundary:
//!
//! * phased/faulted scenarios are bit-identical between the naive
//!   per-cycle core and the event-calendar core (the timed program is
//!   part of the schedule, not a side channel);
//! * a snapshot captured *before* a fault fires restores — in memory
//!   and through the serialized blob — into continuations that fire the
//!   remaining schedule exactly where a cold run does;
//! * every ```fgq fenced block in `docs/scenario-format.md` parses, so
//!   the language reference cannot drift from the parser;
//! * every file in `scenarios/` parses and builds;
//! * `fgqos check`, `fgqos <file> --json` and `fgqos submit` agree on
//!   assertion pass/fail, and the submitted report document is
//!   byte-identical to the local `--json` one.

use fgqos::scenario::{load_scenario_text, ScenarioSpec};
use fgqos::sim::snapshot::SocSnapshot;
use fgqos::sim::system::Soc;
use fgqos::sim::SnapshotBlob;
use proptest::prelude::*;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod common;
use common::stats_fingerprint;

/// A phased, faulted two-master scenario with every free knob supplied
/// by the caller. The fault family is chosen by `fault_sel` so the
/// proptest walks every event kind through both cores.
fn schedule_scenario(
    phase_at: u64,
    phase_budget: u32,
    fault_at: u64,
    fault_sel: u8,
    seed: u64,
) -> String {
    let fault = match fault_sel % 5 {
        0 => "rogue dma0".to_string(),
        1 => format!("bursty dma0 {} {}", 200 + seed % 400, 300 + seed % 500),
        2 => "halt dma0".to_string(),
        3 => "rogue dma0\nregulator dma0 off".to_string(),
        _ => "refresh_storm 600 40000".to_string(),
    };
    format!(
        "\
clock_mhz 1000

[master cpu]
kind cpu
role critical
pattern random
footprint 4M
txn 256
think 700
seed {seed}

[master dma0]
kind accel
role best-effort
period 1000
budget 4K
pattern seq
base 0x40000000
footprint 16M
txn 512
gap 350

[phase shift]
at {phase_at}
budget dma0 {phase_budget}

[fault jolt]
at {fault_at}
{fault}
"
    )
}

fn build(text: &str, naive: bool) -> Soc {
    let spec = ScenarioSpec::parse(text).expect("generated scenario parses");
    let (mut soc, _fabric) = spec.build();
    soc.set_naive(naive);
    soc
}

proptest! {
    // Each case steps a naive SoC cycle-by-cycle for the full horizon;
    // a handful of cases covers all five fault families without
    // dominating the suite's wall clock.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Timed `[phase]` re-programming and `[fault]` injection land on
    /// the same cycle with the same effect under both execution cores.
    #[test]
    fn phased_fault_scenarios_match_naive(
        phase_at in 20_000u64..120_000,
        budget_sel in 0usize..5,
        fault_at in 60_000u64..160_000,
        fault_sel in 0u8..5,
        seed in 0u64..1_000,
    ) {
        let phase_budget = [512u32, 1_024, 2_048, 8_192, 16_384][budget_sel];
        let text = schedule_scenario(phase_at, phase_budget, fault_at, fault_sel, seed);
        let mut naive = build(&text, true);
        let mut fast = build(&text, false);
        naive.run(200_000);
        fast.run(200_000);
        prop_assert_eq!(
            stats_fingerprint(&naive),
            stats_fingerprint(&fast),
            "cores diverge for phase@{} budget {} fault#{}@{}",
            phase_at,
            phase_budget,
            fault_sel,
            fault_at
        );
    }
}

/// Warm-up budget for the snapshot test; the boundary search gets the
/// usual regulated-scenario slack on top.
const WARMUP: u64 = 60_000;
const QUIESCE_SLACK: u64 = 60_000;
const TOTAL: u64 = 260_000;

/// A snapshot captured before the fault cycle must carry the pending
/// schedule: both the in-memory fork and the blob-restored fork fire
/// the remaining phase and fault exactly where a cold run does.
#[test]
fn pre_fault_snapshot_restores_pending_schedule() {
    // Phase and fault both land *after* the warm boundary, so firing
    // them is entirely the restored schedule's job.
    let text = schedule_scenario(150_000, 1_024, 180_000, 3, 42);

    let mut cold = build(&text, false);
    cold.run(TOTAL);

    let mut warm = build(&text, false);
    warm.run(WARMUP);
    let boundary = warm
        .quiesce_point(QUIESCE_SLACK)
        .expect("regulated scenario quiesces inside the slack")
        .get();
    assert!(
        boundary < 150_000,
        "boundary {boundary} ran past the first scheduled event"
    );
    let snap = warm.snapshot().expect("every component forks");

    let encoded = snap.to_blob(&text).encode();
    let blob = SnapshotBlob::decode(&encoded).expect("fresh blob decodes");
    let spec = ScenarioSpec::parse(&blob.scenario).expect("blob carries the recipe");
    let restored = SocSnapshot::load_into(spec.build().0, &blob).expect("stream loads");

    let mut mem_fork = snap.fork();
    let mut blob_fork = restored.fork();
    mem_fork.run(TOTAL - boundary);
    blob_fork.run(TOTAL - boundary);

    assert_eq!(
        mem_fork.fingerprint(),
        cold.fingerprint(),
        "in-memory fork diverged from the cold run"
    );
    assert_eq!(
        blob_fork.fingerprint(),
        cold.fingerprint(),
        "blob-restored fork diverged from the cold run"
    );
}

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Every ```fgq fenced block in the language reference must parse:
/// the doc cannot describe syntax the parser rejects. (The `extends`
/// walkthrough references files on disk and is fenced as ```text,
/// deliberately outside this net.)
#[test]
fn docs_examples_parse() {
    let doc = std::fs::read_to_string(repo_path("docs/scenario-format.md"))
        .expect("docs/scenario-format.md exists");
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in doc.lines() {
        match &mut current {
            None if line.trim_start().starts_with("```fgq") => current = Some(String::new()),
            None => {}
            Some(buf) => {
                if line.trim_start().starts_with("```") {
                    blocks.push(current.take().unwrap());
                } else {
                    buf.push_str(line);
                    buf.push('\n');
                }
            }
        }
    }
    assert!(
        blocks.len() >= 5,
        "expected the reference to carry at least 5 fgq examples, found {}",
        blocks.len()
    );
    for (i, block) in blocks.iter().enumerate() {
        if let Err(e) = ScenarioSpec::parse(block) {
            panic!(
                "docs/scenario-format.md fgq block #{} does not parse: {e}\n---\n{block}",
                i + 1
            );
        }
    }
}

/// Every shipped scenario parses and builds. (`fgqos check` in the CI
/// scenario-corpus job additionally *runs* the ones carrying expects.)
#[test]
fn scenario_corpus_parses_and_builds() {
    let dir = repo_path("scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("fgq") {
            continue;
        }
        seen += 1;
        let text = load_scenario_text(path.to_str().expect("utf-8 path"))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let spec = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{}", e.diagnostic(&path.display().to_string())));
        let _ = spec.build();
    }
    assert!(
        seen >= 7,
        "expected the cookbook corpus, found {seen} scenarios"
    );
}

/// Collects a child stream's lines into a shared buffer from a reader
/// thread, so the test can poll without blocking on the pipe.
fn drain(stream: impl std::io::Read + Send + 'static) -> Arc<Mutex<Vec<String>>> {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lines);
    std::thread::spawn(move || {
        for line in BufReader::new(stream).lines() {
            match line {
                Ok(l) => sink.lock().unwrap().push(l),
                Err(_) => break,
            }
        }
    });
    lines
}

fn wait_for(
    lines: &Arc<Mutex<Vec<String>>>,
    timeout: Duration,
    what: &str,
    pred: impl Fn(&str) -> bool,
) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(l) = lines.lock().unwrap().iter().find(|l| pred(l)) {
            return l.clone();
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; saw: {:?}",
            lines.lock().unwrap()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn fgqos(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fgqos"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("fgqos binary runs")
}

/// `check`, a local `--json` run and a server-side `submit` must agree
/// on assertion pass/fail (exit status), and the submitted report
/// document must be byte-identical to the local `--json` one.
#[test]
fn check_json_and_submit_agree_on_assertions() {
    let bin = PathBuf::from(env!("CARGO_BIN_EXE_fgqos"));
    let mut serve = Command::new(&bin)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let lines = drain(serve.stdout.take().expect("piped stdout"));
    let addr = wait_for(&lines, Duration::from_secs(20), "listen line", |l| {
        l.starts_with("listening on ")
    })
    .trim_start_matches("listening on ")
    .to_string();

    // A failing variant, built by inheritance so it stays one file: the
    // passing scenario plus an impossible byte floor. `extends` takes
    // the parent verbatim, so an absolute path works from any cwd.
    let parent = repo_path("scenarios/rogue-dma.fgq");
    let failing = std::env::temp_dir().join(format!("fgqos-v2-fail-{}.fgq", std::process::id()));
    std::fs::write(
        &failing,
        format!("extends {}\n\nexpect bytes(cpu) > 100G\n", parent.display()),
    )
    .expect("temp scenario writes");

    // Kill the server and drop the temp file even when an assertion
    // below panics, so a red run does not leak a listener.
    struct Cleanup(std::process::Child, PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
            let _ = std::fs::remove_file(&self.1);
        }
    }
    let _cleanup = Cleanup(serve, failing.clone());

    {
        let pass_file = "scenarios/rogue-dma.fgq";
        let fail_file = failing.to_str().expect("utf-8 temp path");

        let check_pass = fgqos(&["check", pass_file]);
        let json_pass = fgqos(&[pass_file, "--json"]);
        let submit_pass = fgqos(&["submit", pass_file, "--addr", &addr]);
        assert!(
            check_pass.status.success(),
            "check must pass: {check_pass:?}"
        );
        assert!(json_pass.status.success(), "--json run must pass");
        assert!(submit_pass.status.success(), "submit must pass");
        assert_eq!(
            String::from_utf8_lossy(&submit_pass.stdout),
            String::from_utf8_lossy(&json_pass.stdout),
            "submitted report must be byte-identical to the local --json document"
        );

        let check_fail = fgqos(&["check", fail_file]);
        let json_fail = fgqos(&[fail_file, "--json"]);
        let submit_fail = fgqos(&["submit", fail_file, "--addr", &addr]);
        let text_fail = fgqos(&[fail_file]);
        for (name, out) in [
            ("check", &check_fail),
            ("--json", &json_fail),
            ("submit", &submit_fail),
            ("text run", &text_fail),
        ] {
            assert_eq!(
                out.status.code(),
                Some(1),
                "{name} must exit 1 on a failed assertion; stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let stderr = String::from_utf8_lossy(&check_fail.stderr);
        assert!(
            stderr.contains("assertion(s) failed"),
            "failure diagnostic names the assertions: {stderr}"
        );
        let stdout = String::from_utf8_lossy(&text_fail.stdout);
        assert!(
            stdout
                .lines()
                .any(|l| l.trim_start().starts_with("FAIL expect")),
            "the text run prints the failed verdict: {stdout}"
        );
    }

    let _ = fgqos(&["shutdown", "--addr", &addr]);
}
