//! End-to-end test of the `fgqos` CLI binary against the shipped demo
//! scenario.

use std::process::Command;

fn fgqos() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fgqos"))
}

#[test]
fn runs_demo_scenario() {
    let out = fgqos()
        .args(["scenarios/demo.fgq", "--cycles", "200000"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("simulated 200000 cycles"));
    for name in ["cpu", "dma0", "dma1", "rogue"] {
        assert!(stdout.contains(name), "missing master {name} in report");
    }
    assert!(stdout.contains("qos fabric:"));
    assert!(stdout.contains("best-effort"));
}

#[test]
fn until_done_mode() {
    let out = fgqos()
        .args([
            "scenarios/demo.fgq",
            "--until-done",
            "rogue",
            "--cycles",
            "500000",
            "--quiet",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The rogue master's source is unbounded, so it cannot finish within
    // the cap: the CLI must report that rather than hang.
    assert!(
        stdout.contains("did not finish"),
        "unexpected output: {stdout}"
    );
}

#[test]
fn rejects_missing_file() {
    let out = fgqos()
        .arg("/does/not/exist.fgq")
        .output()
        .expect("binary runs");
    // Runtime failures (unreadable scenario) are exit 1, not the usage
    // error code.
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn help_exits_zero_on_stdout() {
    for flag in ["--help", "-h"] {
        let out = fgqos().arg(flag).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: fgqos"), "{flag} prints usage");
        assert!(stdout.contains("serve"), "usage lists the subcommands");
        assert!(
            out.stderr.is_empty(),
            "{flag} must not write to stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn missing_arguments_exit_two() {
    let out = fgqos().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn json_flag_prints_the_report_document() {
    let out = fgqos()
        .args(["scenarios/demo.fgq", "--cycles", "100000", "--json"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\": \"fgqos.exp-report\""));
    assert!(stdout.contains("dma0"));
}

#[test]
fn check_accepts_a_valid_scenario() {
    let out = fgqos()
        .args(["check", "scenarios/demo.fgq"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scenarios/demo.fgq: ok"));
    assert!(stdout.contains("4 masters"));
}

#[test]
fn check_prints_file_line_diagnostics() {
    let dir = std::env::temp_dir();
    let path = dir.join("fgqos-cli-check-bad.fgq");
    std::fs::write(&path, "clock_mhz 1000\nbogus line here\n").expect("write temp scenario");
    let out = fgqos()
        .args(["check", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "invalid scenarios are exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let want = format!("{}:2: ", path.display());
    assert!(
        stderr.contains(&want),
        "diagnostic must be file:line: message, got: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_rejects_a_scenario_without_fabric_ports() {
    let path = std::env::temp_dir().join("fgqos-cli-check-portless.fgq");
    std::fs::write(
        &path,
        "clock_mhz 1000\n\n[master dma]\nkind accel\nrole unmanaged\n",
    )
    .expect("write temp scenario");
    let out = fgqos()
        .args(["check", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "a portless scenario is exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let want = format!("{}:3: ", path.display());
    assert!(
        stderr.contains(&want) && stderr.contains("critical or best-effort"),
        "diagnostic must be file:line: message, got: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn rejects_bad_flags() {
    let out = fgqos()
        .args(["x.fgq", "--bogus"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

#[test]
fn reports_unknown_master_for_until_done() {
    let out = fgqos()
        .args(["scenarios/demo.fgq", "--until-done", "ghost"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no master named"));
}

#[test]
fn runs_kernel_scenario_until_done() {
    let out = fgqos()
        .args([
            "scenarios/kernels.fgq",
            "--until-done",
            "stencil",
            "--cycles",
            "50000000",
            "--quiet",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("finished at"),
        "kernel should finish: {stdout}"
    );
    assert!(stdout.contains("stencil"));
}

#[test]
fn histogram_flag_prints_distributions() {
    let out = fgqos()
        .args([
            "scenarios/demo.fgq",
            "--cycles",
            "100000",
            "--quiet",
            "--histogram",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("latency histogram for cpu"));
    assert!(stdout.contains('#'));
}

#[test]
fn json_report_carries_the_leap_block() {
    let out = fgqos()
        .args(["scenarios/demo.fgq", "--cycles", "100000", "--json"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "leap_enabled",
        "leap_periods_detected",
        "leap_probes",
        "leap_cycles_skipped",
        "leap_leaps",
    ] {
        assert!(stdout.contains(key), "missing {key} in --json report");
    }
}

#[test]
fn conflicting_leap_env_prints_one_diagnostic() {
    let out = fgqos()
        .args(["scenarios/demo.fgq", "--cycles", "100000", "--quiet"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env("FGQOS_NAIVE", "1")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The naive core must still win: its run stays bit-identical to the
    // default (leaping) fast core, so the rendered stats agree.
    let plain = fgqos()
        .args(["scenarios/demo.fgq", "--cycles", "100000", "--quiet"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    assert!(plain.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&plain.stdout),
        "naive-with-conflict run must match the default core's stats"
    );
}

#[test]
fn no_leap_escape_hatch_preserves_results_and_warns_on_conflict() {
    let with_leap = fgqos()
        .args(["scenarios/demo.fgq", "--cycles", "100000", "--quiet"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    let without = fgqos()
        .args(["scenarios/demo.fgq", "--cycles", "100000", "--quiet"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env("FGQOS_NO_LEAP", "1")
        .output()
        .expect("binary runs");
    assert!(with_leap.status.success() && without.status.success());
    assert_eq!(
        String::from_utf8_lossy(&with_leap.stdout),
        String::from_utf8_lossy(&without.stdout),
        "FGQOS_NO_LEAP must not change simulation results"
    );
}

#[test]
fn version_pins_every_format_version() {
    for flag in ["--version", "-V"] {
        let out = fgqos().arg(flag).output().expect("binary runs");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        // The full surface a client may need to match against, pinned
        // line by line: bumping any format constant must show up here.
        let expected = format!(
            "fgqos {}\n\
             serve protocol: 4\n\
             snapshot stream: 2\n\
             hunt report: fgqos.hunt-report v1\n\
             live stream: fgqos.live v1\n\
             control journal: fgqos.control-journal v1\n",
            env!("CARGO_PKG_VERSION"),
        );
        assert_eq!(stdout, expected, "{flag} output drifted");
    }
}

/// The text a user reads is a rendering of the report document: for
/// every shipped scenario, `fgqos <f>` and `fgqos <f> --quiet` print
/// exactly what `runner::scenario_text` makes of the `--json` document.
#[test]
fn text_output_renders_the_json_report() {
    use fgqos::bench::report::Report;
    use fgqos::runner::scenario_text;
    use fgqos::sim::json::Value;

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ lists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "fgq"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    for file in files {
        let run = |extra: &[&str]| {
            let out = fgqos()
                .arg(&file)
                .args(extra)
                .output()
                .expect("binary runs");
            // Exit 1 is a failed `expect`, which still prints the report.
            assert!(
                matches!(out.status.code(), Some(0 | 1)),
                "{} {extra:?}: {}",
                file.display(),
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8(out.stdout).expect("utf-8 stdout")
        };
        let doc = Value::parse(run(&["--json"]).trim_end()).expect("--json prints JSON");
        let report = Report::from_json(&doc).expect("--json prints a report");
        for quiet in [false, true] {
            let flags: &[&str] = if quiet { &["--quiet"] } else { &[] };
            assert_eq!(
                run(flags),
                scenario_text(&report, quiet, None),
                "{} {flags:?}",
                file.display()
            );
        }
    }
}
