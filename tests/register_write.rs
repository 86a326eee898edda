//! One register-write type: `ProgramOp` and its validator on every path
//! a budget/period/enable write enters by — the `.fgq` `[phase]` line,
//! the serve wire's `control` op and batch points, and `fgqos ctl`.
//!
//! The two renderings must parse back to the write they came from: the
//! wire's `(key, value)` pair, also inside a whole `control` frame, and
//! a `[phase]` section, which is how a live control journal replays. The register boundaries 0, 1 and
//! `u32::MAX` are always checked, beside random values. `fgqos ctl`
//! reads its value token exactly as a `[phase]` line does.

use fgqos::core::program::ProgramOp;
use fgqos::runner::{batch_reports, RunError};
use fgqos::scenario::{PhaseAction, ScenarioSpec};
use fgqos::serve::protocol::SERVE_SCHEMA;
use fgqos::serve::protocol::{parse_request, BatchKind, BatchPoint, BatchSpec, Request};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BASE: &str = "\
[master cpu]
kind cpu
role critical

[master dma]
kind accel
role best-effort
period 1000
budget 2048
";

const BOUNDARIES: [u32; 3] = [0, 1, u32::MAX];

/// Every write `v` can form: budget, period (when non-zero), enable.
fn writes(v: u32) -> Vec<ProgramOp> {
    let mut w = vec![ProgramOp::Budget(v), ProgramOp::Enable(v & 1 == 0)];
    if v > 0 {
        w.push(ProgramOp::Period(v));
    }
    w
}

fn phase_text(at: u64, key: &str, value: &str) -> String {
    format!("{BASE}\n[phase p]\nat {at}\n{key} dma {value}\n")
}

fn round_trips(w: ProgramOp, at: u64) -> Result<(), TestCaseError> {
    prop_assert_eq!(ProgramOp::parse(w.key(), Some(&w.value())), Ok(w));
    let frame = format!(
        r#"{{"op":"control","run":1,"target":"dma","set":"{}","value":{}}}"#,
        w.key(),
        w.value().to_compact()
    );
    match parse_request(&frame) {
        Ok(Request::Control { set, .. }) => prop_assert_eq!(set, w),
        other => return Err(TestCaseError::fail(format!("{frame}: {other:?}"))),
    }
    let spec = ScenarioSpec::parse(&phase_text(at, w.key(), &w.fgq_value()))
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(spec.phases.len(), 1);
    prop_assert_eq!(spec.phases[0].at, at);
    prop_assert_eq!(
        &spec.phases[0].actions,
        &vec![PhaseAction {
            master: "dma".into(),
            op: w,
        }]
    );
    Ok(())
}

#[test]
fn boundary_writes_round_trip() {
    for v in BOUNDARIES {
        for w in writes(v) {
            round_trips(w, u64::from(v)).unwrap_or_else(|e| panic!("{w:?}: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_writes_round_trip(v in 0u32..=u32::MAX, at in 0u64..1 << 40) {
        for w in writes(v) {
            round_trips(w, at)?;
        }
    }
}

/// `(key, value)` pairs no path may accept, with the message fragment
/// the one validator gives.
fn refused() -> [(&'static str, u64, &'static str); 3] {
    let over = u64::from(u32::MAX) + 1;
    [
        ("period", 0, "at least 1"),
        ("period", over, "register width"),
        ("budget", over, "register width"),
    ]
}

#[test]
fn out_of_range_writes_are_refused_on_every_path() {
    for (key, v, fragment) in refused() {
        // `.fgq`: a `[phase]` line and the master's own key.
        let e = ScenarioSpec::parse(&phase_text(100, key, &v.to_string())).unwrap_err();
        assert_eq!(e.line, 13, "{key} {v}: {e}");
        assert!(e.message.contains(fragment), "{key} {v}: {e}");
        let master = BASE.replace(&format!("{key} "), &format!("{key} {v} # "));
        let e = ScenarioSpec::parse(&master).unwrap_err();
        assert!(e.message.contains(fragment), "{key} {v}: {e}");

        // The wire `control` op.
        let frame =
            format!(r#"{{"op":"control","run":1,"target":"dma","set":"{key}","value":{v}}}"#);
        let e = parse_request(&frame).unwrap_err();
        assert!(e.contains(fragment), "{frame}: {e}");

        // `fgqos ctl`: refused at argument parsing, before connecting.
        let out = Command::new(env!("CARGO_BIN_EXE_fgqos"))
            .args(["ctl", "--run", "1", "--master", "dma"])
            .arg(format!("--{key}"))
            .arg(v.to_string())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "ctl --{key} {v}: {stderr}");
        assert!(stderr.contains(fragment), "ctl --{key} {v}: {stderr}");

        // Batch points, on the wire and in the runner.
        let point = match key {
            "period" => BatchPoint {
                period: v,
                budget: 2_048,
            },
            _ => BatchPoint {
                period: 1_000,
                budget: v,
            },
        };
        let frame = format!(
            r#"{{"op":"submit_batch","scenario":"s","points":[{{"period":{},"budget":{}}}]}}"#,
            point.period, point.budget
        );
        let e = parse_request(&frame).unwrap_err();
        assert!(e.contains(fragment), "{frame}: {e}");
        let spec = BatchSpec {
            scenario: BASE.to_string(),
            cycles: 1_000,
            until_done: None,
            warmup: 1_000,
            points: vec![point],
            kind: BatchKind::Sweep,
        };
        match batch_reports(&spec) {
            Err(RunError::Run(m)) => assert!(m.contains(fragment), "{m}"),
            other => panic!("{point:?}: expected a Run error, got {other:?}"),
        }
    }
}

/// Runs `fgqos ctl --{key} {token}` against a one-shot listener that
/// answers like a server. `Ok` is the write the `control` request
/// carried; `Err` is the usage error ctl refused the token with (exit
/// 2, before connecting).
fn ctl_write(key: &str, token: &str) -> Result<ProgramOp, String> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fgqos"))
        .args(["ctl", "--run", "1", "--master", "dma", "--addr"])
        .arg(listener.local_addr().expect("bound").to_string())
        .args([format!("--{key}"), token.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(30);
    let write = loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).expect("blocking stream");
                let mut line = String::new();
                BufReader::new(&stream)
                    .read_line(&mut line)
                    .expect("request line");
                let ack = format!("{{\"schema\":\"{SERVE_SCHEMA}\",\"ok\":true,\"queued\":0}}\n");
                (&stream).write_all(ack.as_bytes()).expect("ack written");
                match parse_request(line.trim_end()) {
                    Ok(Request::Control { set, .. }) => break Some(set),
                    other => panic!("ctl sent {line:?}: {other:?}"),
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if child.try_wait().expect("child status").is_some() {
                    break None;
                }
                assert!(Instant::now() < deadline, "ctl --{key} {token} hung");
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("accept: {e}"),
        }
    };
    let out = child.wait_with_output().expect("ctl exits");
    let stderr = String::from_utf8_lossy(&out.stderr).trim_end().to_string();
    match write {
        Some(w) => {
            assert!(out.status.success(), "ctl --{key} {token}: {stderr}");
            Ok(w)
        }
        None => {
            assert_eq!(out.status.code(), Some(2), "ctl --{key} {token}: {stderr}");
            Err(stderr)
        }
    }
}

#[test]
fn ctl_tokens_parse_as_phase_lines_do() {
    let over = (u64::from(u32::MAX) + 1).to_string();
    for (key, token, want) in [
        ("budget", "4K", Some(ProgramOp::Budget(4_096))),
        ("budget", "0x1000", Some(ProgramOp::Budget(4_096))),
        ("period", "0x1000", Some(ProgramOp::Period(4_096))),
        ("enable", "on", Some(ProgramOp::Enable(true))),
        ("enable", "off", Some(ProgramOp::Enable(false))),
        ("budget", "4G", None),
        ("budget", over.as_str(), None),
        ("period", over.as_str(), None),
        ("period", "0", None),
        ("enable", "1", None),
    ] {
        let fgq = ScenarioSpec::parse(&phase_text(100, key, token));
        match (ctl_write(key, token), fgq, want) {
            (Ok(w), Ok(spec), Some(want)) => {
                assert_eq!(w, want, "ctl {key} {token}");
                assert_eq!(spec.phases[0].actions[0].op, want, ".fgq {key} {token}");
            }
            (Err(ctl), Err(e), None) => {
                assert_eq!(ctl, format!("bad --{key} value: {}", e.message));
            }
            (ctl, fgq, _) => panic!("{key} {token}: ctl gave {ctl:?}, .fgq gave {fgq:?}"),
        }
    }
}
