//! End-to-end tests of the `fgqos-serve` service with the real
//! simulator-backed executor: byte-identity between served and direct
//! runs, cache-hit identity, frame robustness, graceful shutdown, and
//! the admission-control isolation guarantee from the paper's
//! window/budget regulation (here applied to the server's own ingress).

use fgqos::hunt::{run_hunt, HuntOptions};
use fgqos::hunt_engine::HuntConfig;
use fgqos::runner::{
    batch_reports, live_run, scenario_report, serve_batch_executor, serve_executor,
    serve_live_executor, serve_snapshot_executor, LiveOptions, RunOptions,
};
use fgqos::serve::admission::AdmissionConfig;
use fgqos::serve::client::{Client, ClientError, SubmitOptions};
use fgqos::serve::coordinator::CoordinatorConfig;
use fgqos::serve::live::{ControlWrite, LiveRegistry};
use fgqos::serve::protocol::{BatchKind, BatchPoint, BatchSpec, ControlSet, JobSpec};
use fgqos::serve::server::{start, start_fleet, start_live, start_with, ServeConfig, ServerHandle};
use fgqos::serve::Executor;
use fgqos::sim::json::Value;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

const CYCLES: u64 = 50_000;

fn real_server(cfg: ServeConfig) -> ServerHandle {
    start_with(cfg, serve_executor(), serve_batch_executor()).expect("bind loopback")
}

fn two_threads() -> ServeConfig {
    ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    }
}

fn finish(server: ServerHandle) {
    let mut c = Client::connect(server.addr()).expect("connect for shutdown");
    c.shutdown().expect("graceful shutdown");
    server.join();
}

#[test]
fn served_run_is_byte_identical_to_a_direct_run() {
    let demo = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/demo.fgq"))
        .expect("demo scenario readable");
    let direct = scenario_report(
        &demo,
        &RunOptions {
            cycles: 200_000,
            until_done: None,
        },
    )
    .expect("direct run")
    .to_json();

    let server = real_server(two_threads());
    let mut client = Client::connect(server.addr()).expect("connect");
    let (ack, served) = client
        .submit_and_wait(
            &demo,
            200_000,
            &SubmitOptions::default(),
            Duration::from_secs(60),
        )
        .expect("served run");
    assert!(!ack.cached);
    assert_eq!(
        served.to_compact(),
        direct.to_compact(),
        "served and direct reports must serialize byte-identically"
    );
    finish(server);
}

#[test]
fn resubmission_hits_the_cache_with_identical_bytes() {
    let server = real_server(two_threads());
    let mut client = Client::connect(server.addr()).expect("connect");
    let opts = SubmitOptions::default();
    let (first_ack, first) = client
        .submit_and_wait(SCENARIO, CYCLES, &opts, Duration::from_secs(30))
        .expect("first run");
    assert!(!first_ack.cached);
    let (second_ack, second) = client
        .submit_and_wait(SCENARIO, CYCLES, &opts, Duration::from_secs(30))
        .expect("second run");
    assert!(second_ack.cached, "equal spec must be a cache hit");
    assert_ne!(first_ack.job, second_ack.job, "hits still get fresh ids");
    assert_eq!(first.to_compact(), second.to_compact());

    // The raw result responses (not just the embedded report) also
    // serialize identically: nothing leaks the cache-vs-fresh path.
    let raw_first = client.result(first_ack.job).expect("result");
    let mut raw_second = client.result(second_ack.job).expect("result");
    raw_second.set("job", Value::from(first_ack.job));
    assert_eq!(raw_first.to_compact(), raw_second.to_compact());

    let metrics = client
        .metrics(fgqos::serve::protocol::MetricsFormat::Json)
        .expect("metrics");
    let hits = metrics
        .get("metrics")
        .and_then(|m| m.get("metrics"))
        .and_then(|m| m.get("serve.cache.hits"))
        .and_then(Value::as_u64);
    assert_eq!(hits, Some(1));
    finish(server);
}

#[test]
fn malformed_and_oversized_frames_keep_the_connection_usable() {
    let server = real_server(ServeConfig {
        threads: 1,
        max_frame_bytes: 512,
        ..ServeConfig::default()
    });
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut roundtrip = |frame: &str| -> Value {
        writer
            .write_all(format!("{frame}\n").as_bytes())
            .expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        Value::parse(line.trim_end()).expect("response parses")
    };

    let garbage = roundtrip("{{{ not json");
    assert_eq!(garbage.get("ok"), Some(&Value::Bool(false)));
    let oversized = roundtrip(&"x".repeat(4096));
    assert_eq!(oversized.get("ok"), Some(&Value::Bool(false)));
    assert!(oversized
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("exceeds"));
    // After both rejections the same connection still serves real work.
    let ack = roundtrip(&format!(
        r#"{{"op":"submit","scenario":"{}","cycles":{CYCLES}}}"#,
        SCENARIO.replace('\n', "\\n")
    ));
    assert_eq!(
        ack.get("ok"),
        Some(&Value::Bool(true)),
        "connection unusable after rejected frames: {ack:?}"
    );
    finish(server);
}

#[test]
fn deeply_nested_frame_is_refused_without_killing_the_server() {
    let server = real_server(two_threads());
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    // About 10 KB, far under the frame cap, but 10,000 levels deep: a
    // parser recursing once per level would overflow the connection
    // thread's stack and abort the whole process.
    let frame = format!(r#"{{"op":"submit","scenario":{}"#, "[".repeat(10_000));
    writer
        .write_all(format!("{frame}\n").as_bytes())
        .expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let refused = Value::parse(line.trim_end()).expect("response parses");
    assert_eq!(refused.get("ok"), Some(&Value::Bool(false)));
    let error = refused.get("error").and_then(Value::as_str).unwrap();
    assert!(error.contains("malformed frame"), "{error}");
    // The same server still completes an ordinary submit.
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .submit_and_wait(
            SCENARIO,
            CYCLES,
            &SubmitOptions::default(),
            Duration::from_secs(30),
        )
        .expect("ordinary submit after the deep frame");
    finish(server);
}

#[test]
fn deadline_expiry_and_graceful_drain_end_to_end() {
    // A stub executor that sleeps makes queue timing deterministic.
    let slow: Executor = Arc::new(|_spec: &JobSpec| {
        std::thread::sleep(Duration::from_millis(50));
        Ok(fgqos::bench::report::Report::new("slow"))
    });
    let server = start(
        ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        },
        slow,
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Occupy the single worker, then enqueue a job that expires first.
    let blocker = client
        .submit("a", 1, &SubmitOptions::default())
        .expect("submit");
    let doomed = client
        .submit(
            "b",
            1,
            &SubmitOptions {
                deadline_ms: Some(5),
                ..SubmitOptions::default()
            },
        )
        .expect("submit");
    // Plus a queue of ordinary jobs the drain must still execute.
    let queued: Vec<u64> = (0..3)
        .map(|i| {
            client
                .submit(&format!("tail-{i}"), 1, &SubmitOptions::default())
                .expect("submit")
                .job
        })
        .collect();

    // Shutdown drains everything before answering.
    let summary = client.shutdown().expect("graceful shutdown");
    assert_eq!(summary.get("executed").and_then(Value::as_u64), Some(4));
    assert_eq!(summary.get("expired").and_then(Value::as_u64), Some(1));

    // The listener is down now; verify final job states through the
    // core the handle still shares.
    let core = server.core();
    assert!(matches!(
        core.result(blocker.job).unwrap().0,
        fgqos::serve::pool::JobState::Done
    ));
    assert!(matches!(
        core.result(doomed.job).unwrap().0,
        fgqos::serve::pool::JobState::Expired
    ));
    for id in queued {
        assert!(matches!(
            core.result(id).unwrap().0,
            fgqos::serve::pool::JobState::Done
        ));
    }
    server.join();
}

#[test]
fn batched_sweep_round_trip_is_byte_identical_and_cached_per_point() {
    let points: Vec<BatchPoint> = [256u64, 512, 1_024, 2_048, 4_096, 8_192, 16_384, 32_768]
        .iter()
        .map(|&budget| BatchPoint {
            period: 1_000,
            budget,
        })
        .collect();
    let spec = BatchSpec {
        scenario: SCENARIO.to_string(),
        cycles: 20_000,
        until_done: None,
        warmup: 30_000,
        points: points.clone(),
        kind: BatchKind::Sweep,
    };
    let direct: Vec<String> = batch_reports(&spec)
        .expect("direct batch")
        .iter()
        .map(|r| r.to_json().to_compact())
        .collect();

    let server = real_server(two_threads());
    let mut client = Client::connect(server.addr()).expect("connect");
    let ack = client
        .submit_batch(&spec, &SubmitOptions::default())
        .expect("submit batch");
    assert_eq!(ack.jobs.len(), 8, "one job per point");
    assert!(ack.cached.iter().all(|&c| !c), "first batch misses");
    assert!(ack.lane.is_some(), "uncached batch is pinned to a lane");
    let served: Vec<String> = ack
        .jobs
        .iter()
        .map(|&job| {
            client
                .wait_report(job, Duration::from_secs(60))
                .expect("batched point report")
                .to_compact()
        })
        .collect();
    assert_eq!(
        served, direct,
        "served batch points must match direct batch_reports byte-for-byte"
    );

    // Resubmitting the same slice is a pure cache hit: fresh ids, no
    // lane, identical bytes per point.
    let again = client
        .submit_batch(&spec, &SubmitOptions::default())
        .expect("resubmit batch");
    assert!(again.cached.iter().all(|&c| c), "resubmit fully cached");
    assert_eq!(again.lane, None, "fully-cached batch never queues");
    for (i, &job) in again.jobs.iter().enumerate() {
        let report = client
            .wait_report(job, Duration::from_secs(10))
            .expect("cached point report");
        assert_eq!(report.to_compact(), served[i]);
    }

    // A half-overlapping slice only misses on the new points.
    let mut shifted = spec.clone();
    shifted.points = points[4..]
        .iter()
        .copied()
        .chain([65_536u64, 131_072].iter().map(|&budget| BatchPoint {
            period: 1_000,
            budget,
        }))
        .collect();
    let partial = client
        .submit_batch(&shifted, &SubmitOptions::default())
        .expect("overlapping batch");
    assert_eq!(
        partial.cached,
        vec![true, true, true, true, false, false],
        "only the new points miss"
    );
    for &job in &partial.jobs {
        client
            .wait_report(job, Duration::from_secs(60))
            .expect("overlapping point report");
    }

    let metrics = client
        .metrics(fgqos::serve::protocol::MetricsFormat::Json)
        .expect("metrics");
    let body = metrics.get("metrics").and_then(|m| m.get("metrics"));
    let batches = body
        .and_then(|m| m.get("serve.jobs.batches"))
        .and_then(Value::as_u64);
    assert_eq!(batches, Some(3), "every submit_batch call is counted");
    let lane = ack.lane.expect("pinned lane");
    let lane_executed = body
        .and_then(|m| m.get(&format!("serve.lane.{lane}.executed")))
        .and_then(Value::as_u64)
        .expect("per-lane executed counter exported");
    assert!(
        lane_executed >= 1,
        "the pinned lane executed the batch, got {lane_executed}"
    );
    finish(server);
}

/// The op-kind cache namespace: a hunt candidate batch must never be
/// answered from a sweep batch's cached points (or vice versa), even
/// when scenario, cycles, warm-up and the (period, budget) point are
/// all identical. Both kinds still compute the same pure report, so the
/// bytes agree — only the cache identity differs.
#[test]
fn hunt_batches_never_alias_sweep_cache_entries() {
    let points = vec![
        BatchPoint {
            period: 1_000,
            budget: 2_048,
        },
        BatchPoint {
            period: 1_000,
            budget: 4_096,
        },
    ];
    let sweep = BatchSpec {
        scenario: SCENARIO.to_string(),
        cycles: 20_000,
        until_done: None,
        warmup: 30_000,
        points,
        kind: BatchKind::Sweep,
    };
    let hunt = BatchSpec {
        kind: BatchKind::Hunt,
        ..sweep.clone()
    };

    let server = real_server(two_threads());
    let mut client = Client::connect(server.addr()).expect("connect");
    let first = client
        .submit_batch(&sweep, &SubmitOptions::default())
        .expect("sweep batch");
    let sweep_reports: Vec<String> = first
        .jobs
        .iter()
        .map(|&job| {
            client
                .wait_report(job, Duration::from_secs(60))
                .expect("sweep point report")
                .to_compact()
        })
        .collect();

    // Same scenario, same points, different kind: every point must be a
    // cache miss and re-execute on its own lane.
    let cross = client
        .submit_batch(&hunt, &SubmitOptions::default())
        .expect("hunt batch");
    assert!(
        cross.cached.iter().all(|&c| !c),
        "hunt points must not hit sweep cache entries: {:?}",
        cross.cached
    );
    assert!(cross.lane.is_some(), "uncached hunt batch queues on a lane");
    let hunt_reports: Vec<String> = cross
        .jobs
        .iter()
        .map(|&job| {
            client
                .wait_report(job, Duration::from_secs(60))
                .expect("hunt point report")
                .to_compact()
        })
        .collect();
    assert_eq!(
        hunt_reports, sweep_reports,
        "the computation is kind-independent; only the cache identity differs"
    );

    // Within its own namespace the hunt batch caches normally.
    let again = client
        .submit_batch(&hunt, &SubmitOptions::default())
        .expect("hunt resubmit");
    assert!(
        again.cached.iter().all(|&c| c),
        "hunt resubmit fully cached"
    );
    finish(server);
}

#[test]
fn flooding_client_is_denied_while_others_stay_fast() {
    // Tight ingress: 256 B/s sustained (negligible replenishment over
    // the test's lifetime), 32 KiB burst allowance.
    let server = real_server(ServeConfig {
        threads: 2,
        admission: AdmissionConfig {
            budget_bytes: 256,
            period_cycles: 1_000_000,
            depth_bytes: 32 << 10,
        },
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let polite_opts = SubmitOptions {
        client: Some("polite".into()),
        ..SubmitOptions::default()
    };

    // Warm the cache so polite round-trips measure protocol latency.
    let mut polite = Client::connect(addr).expect("connect");
    polite
        .submit_and_wait(SCENARIO, CYCLES, &polite_opts, Duration::from_secs(30))
        .expect("warm");

    let measure = |polite: &mut Client| -> Duration {
        let mut samples: Vec<Duration> = (0..15)
            .map(|_| {
                let t0 = Instant::now();
                polite
                    .submit_and_wait(SCENARIO, CYCLES, &polite_opts, Duration::from_secs(10))
                    .expect("polite round-trip");
                t0.elapsed()
            })
            .collect();
        samples.sort();
        samples[samples.len() / 2]
    };
    let unloaded = measure(&mut polite);

    // A 16 KiB frame per attempt: the burst allowance admits only the
    // first two, then the flood is denied at the protocol layer.
    let flood_scenario = format!("# {}\n{SCENARIO}", "f".repeat(16 << 10));
    let flooder = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect flooder");
        let opts = SubmitOptions {
            client: Some("flooder".into()),
            ..SubmitOptions::default()
        };
        let mut denied = 0u32;
        let mut accepted = 0u32;
        for _ in 0..100 {
            match c.submit(&flood_scenario, CYCLES, &opts) {
                Err(ClientError::Denied(_)) => denied += 1,
                Ok(_) => accepted += 1,
                Err(e) => panic!("unexpected flooder error: {e}"),
            }
        }
        (accepted, denied)
    });
    let loaded = measure(&mut polite);
    let (accepted, denied) = flooder.join().expect("flooder thread");

    assert!(denied >= 95, "flood mostly denied, got {denied}/100 denies");
    assert!(accepted >= 1, "the initial burst allowance admits");
    // The acceptance bound from ISSUE.md: flooding must not slow other
    // clients past 2x their unloaded latency (25 ms noise floor for
    // sub-millisecond medians on a busy test machine).
    let bound = (unloaded * 2).max(Duration::from_millis(25));
    assert!(
        loaded <= bound,
        "polite latency degraded: unloaded {unloaded:?}, loaded {loaded:?}"
    );
    finish(server);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Concurrent submissions of the same spec — racing each other for
    /// the cache slot — always observe the same report bytes.
    #[test]
    fn concurrent_equal_submissions_agree(cycles in 5_000u64..20_000) {
        let server = real_server(two_threads());
        let addr = server.addr();
        let reports: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(move || {
                        let mut c = Client::connect(addr).expect("connect");
                        let (_, report) = c
                            .submit_and_wait(
                                SCENARIO,
                                cycles,
                                &SubmitOptions::default(),
                                Duration::from_secs(30),
                            )
                            .expect("round-trip");
                        report.to_compact()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker")).collect()
        });
        for r in &reports[1..] {
            prop_assert_eq!(&reports[0], r);
        }
        finish(server);
    }
}

/// A server with the full v4 surface: run/batch/snapshot/live executors.
fn live_server(cfg: ServeConfig) -> ServerHandle {
    start_live(
        cfg,
        serve_executor(),
        serve_batch_executor(),
        serve_snapshot_executor(),
        serve_live_executor(),
    )
    .expect("bind loopback")
}

/// The v4 streaming ops go through the same framed transport: malformed
/// and oversized `subscribe`/`control`/`journal` frames are rejected
/// with `ok:false` and the connection stays usable — including for a
/// real subscription, whose end-of-stream hands the connection back to
/// request/response mode.
#[test]
fn malformed_v4_frames_keep_the_connection_usable() {
    let server = live_server(ServeConfig {
        threads: 1,
        max_frame_bytes: 4_096,
        ..ServeConfig::default()
    });
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    fn rt(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, frame: &str) -> Value {
        writer
            .write_all(format!("{frame}\n").as_bytes())
            .expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        Value::parse(line.trim_end()).expect("response parses")
    }
    let mut roundtrip = |frame: &str| rt(&mut writer, &mut reader, frame);
    let expect_err = |resp: Value, needle: &str| {
        assert_eq!(resp.get("ok"), Some(&Value::Bool(false)), "{resp:?}");
        let msg = resp.get("error").and_then(Value::as_str).unwrap();
        assert!(msg.contains(needle), "error {msg:?} lacks {needle:?}");
    };

    expect_err(
        roundtrip(r#"{"op":"subscribe"}"#),
        "a string 'scenario' or a 'run' id",
    );
    expect_err(
        roundtrip(r#"{"op":"subscribe","scenario":"x","window":0}"#),
        "window",
    );
    expect_err(
        roundtrip(r#"{"op":"subscribe","run":99}"#),
        "unknown live run",
    );
    expect_err(roundtrip(r#"{"op":"control","run":1}"#), "'set'");
    expect_err(
        roundtrip(r#"{"op":"control","run":1,"target":"dma","set":"warp","value":9}"#),
        "warp",
    );
    expect_err(
        roundtrip(r#"{"op":"control","run":99,"target":"dma","set":"budget","value":512}"#),
        "unknown live run",
    );
    expect_err(
        roundtrip(r#"{"op":"journal","run":99}"#),
        "unknown live run",
    );
    let oversized = roundtrip(&format!(
        r#"{{"op":"subscribe","scenario":"{}"}}"#,
        "x".repeat(8_192)
    ));
    expect_err(oversized, "exceeds");

    // The same connection still carries a real subscription end to end.
    let ack = roundtrip(&format!(
        r#"{{"op":"subscribe","scenario":"{}","cycles":30000,"window":10000}}"#,
        SCENARIO.replace('\n', "\\n")
    ));
    assert_eq!(ack.get("ok"), Some(&Value::Bool(true)), "{ack:?}");
    let run = ack.get("run").and_then(Value::as_u64).expect("run id");
    let mut frames = 0u64;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("stream read");
        let doc = Value::parse(line.trim_end()).expect("frame parses");
        match doc.get("stream").and_then(Value::as_str) {
            Some("frame") => frames += 1,
            Some("end") => {
                assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"));
                assert_eq!(doc.get("frames").and_then(Value::as_u64), Some(frames));
                break;
            }
            other => panic!("unexpected stream tag {other:?} in {doc:?}"),
        }
    }
    assert_eq!(frames, 3, "30000 cycles / 10000-cycle windows");

    // End of stream reverts to request/response: the journal is served
    // on the very same connection.
    let journal = rt(
        &mut writer,
        &mut reader,
        &format!(r#"{{"op":"journal","run":{run}}}"#),
    );
    assert_eq!(journal.get("ok"), Some(&Value::Bool(true)), "{journal:?}");
    finish(server);
}

/// Mid-run control writes through the wire land at a window boundary,
/// show up in the streamed frames' `controls` block and in the journal,
/// and the journal's replay scenario reproduces the live report
/// byte-for-byte (the `fgqos watch --verify-replay` loop, server-side).
#[test]
fn wire_control_writes_are_journaled_and_replayable() {
    let server = live_server(two_threads());
    let mut watcher = Client::connect(server.addr()).expect("connect watcher");
    // Pace the run so the control write beats the horizon comfortably.
    let run = watcher
        .subscribe(
            &fgqos::serve::protocol::LiveSpec {
                scenario: SCENARIO.to_string(),
                cycles: 50_000,
                window: 5_000,
                pace_ms: 100,
            },
            None,
        )
        .expect("subscribe");

    let mut first = watcher.next_live_frame().expect("first frame");
    assert_eq!(first.get("stream").and_then(Value::as_str), Some("frame"));
    let mut ctl = Client::connect(server.addr()).expect("connect ctl");
    let queued = ctl
        .control(run, "dma", ControlSet::Budget(256))
        .expect("control accepted");
    assert_eq!(queued, 0, "first write in the queue");

    let mut journaled = 0u64;
    loop {
        if let Some(ctls) = first.get("controls").and_then(Value::as_arr) {
            journaled += ctls.len() as u64;
        }
        if first.get("stream").and_then(Value::as_str) == Some("end") {
            break;
        }
        first = watcher.next_live_frame().expect("stream frame");
    }
    assert_eq!(journaled, 1, "the write landed in exactly one frame");

    let journal = watcher.journal(run).expect("journal");
    let entries = journal
        .get("journal")
        .and_then(|j| j.get("entries"))
        .and_then(Value::as_arr)
        .expect("journal entries");
    assert_eq!(entries.len(), 1);
    assert_eq!(
        entries[0].get("target").and_then(Value::as_str),
        Some("dma")
    );
    assert_eq!(
        entries[0].get("set").and_then(Value::as_str),
        Some("budget")
    );

    // Replay the synthesized scenario locally: byte-identical report.
    let replay_text = journal
        .get("replay_scenario")
        .and_then(Value::as_str)
        .expect("replay scenario");
    let live_report = journal.get("report").expect("live report");
    let (local, _fp) = fgqos::runner::live_replay_report(
        replay_text,
        &LiveOptions {
            cycles: 50_000,
            window: 5_000,
            naive: None,
            leap: None,
        },
    )
    .expect("replay");
    assert_eq!(local.to_json().to_compact(), live_report.to_compact());
    finish(server);
}

/// Golden pin of the live wire schema: the telemetry frames a
/// subscriber reads and the journal document the server serves are
/// exactly these bytes. Regenerate with
/// `FGQOS_BLESS=1 cargo test --test serve golden`.
#[test]
fn live_frame_and_journal_schema_match_golden() {
    let opts = LiveOptions {
        cycles: 30_000,
        window: 10_000,
        naive: Some(false),
        leap: Some(true),
    };
    let outcome = live_run(
        SCENARIO,
        &opts,
        1,
        |b| fgqos::serve::live::BoundaryCmd {
            writes: if b.index == 1 {
                vec![ControlWrite {
                    target: "dma".to_string(),
                    set: ControlSet::Budget(512),
                }]
            } else {
                Vec::new()
            },
            abort: false,
        },
        |_e| {},
    )
    .expect("live run");

    // Feed the outcome through a real session so the pinned journal
    // document is the exact object `{"op":"journal"}` serves.
    let registry = LiveRegistry::new();
    let session = registry.create().expect("session");
    session.begin(vec!["dma".to_string()]);
    for e in &outcome.journal {
        session.record(e.clone());
    }
    session.finish(
        Some(outcome.report.to_json()),
        Some(outcome.replay_scenario.clone()),
        None,
    );

    let mut doc = Value::obj();
    doc.set("frames", Value::Arr(outcome.frames.to_vec()));
    doc.set("journal", session.journal_doc());
    let golden = format!("{}\n", doc.to_pretty());

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/live_stream.json");
    if std::env::var_os("FGQOS_BLESS").is_some() {
        std::fs::write(&path, &golden).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with FGQOS_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        golden, expected,
        "live wire schema drifted; rerun with FGQOS_BLESS=1 and review the diff"
    );
}

/// A fleet front over in-process workers, each registered with it.
fn fleet_of(workers: &[&ServerHandle]) -> ServerHandle {
    let front = start_fleet(ServeConfig::default(), CoordinatorConfig::default())
        .expect("bind fleet front");
    for w in workers {
        front
            .core()
            .register_worker(&w.addr().to_string())
            .expect("worker registers");
    }
    front
}

/// The transport is invisible to the hunt: evaluating candidates
/// through a fleet front with two workers (sharded batch slices over
/// remote lanes) yields the byte-identical report of the in-process
/// batch pool.
#[test]
fn hunt_through_a_fleet_matches_the_local_pool() {
    let opts = |addr: Option<String>| HuntOptions {
        config: HuntConfig {
            seed: 5,
            evals: 6,
            explore: 4,
            bisect: 2,
            ..HuntConfig::default()
        },
        warmup: 20_000,
        tail_cycles: 30_000,
        addr,
    };
    let local = run_hunt(SCENARIO, &opts(None)).expect("local hunt");

    let w1 = live_server(two_threads());
    let w2 = live_server(two_threads());
    let front = fleet_of(&[&w1, &w2]);
    let served = run_hunt(SCENARIO, &opts(Some(front.addr().to_string()))).expect("fleet hunt");
    assert_eq!(
        local.report.to_compact(),
        served.report.to_compact(),
        "local-pool and fleet hunts must produce byte-identical reports"
    );
    // Shutting the front down shuts its workers down too.
    finish(front);
    w1.join();
    w2.join();
}

/// The fleet front runs the same job table as a single server: a queued
/// job is acknowledged `queued`, and a `deadline_ms` that passes while
/// the job waits for a free lane expires it unexecuted.
#[test]
fn fleet_front_expires_queued_jobs_past_their_deadline() {
    let slow: Executor = Arc::new(|_spec: &JobSpec| {
        std::thread::sleep(Duration::from_millis(200));
        Ok(fgqos::bench::report::Report::new("slow"))
    });
    let worker = start(
        ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        },
        slow,
    )
    .expect("bind worker");
    let front = fleet_of(&[&worker]);
    let mut client = Client::connect(front.addr()).expect("connect");
    let submit = |client: &mut Client, scenario: &str, deadline_ms: Option<u64>| {
        let mut req = Value::obj();
        req.set("op", Value::str("submit"));
        req.set("scenario", Value::str(scenario));
        if let Some(ms) = deadline_ms {
            req.set("deadline_ms", Value::from(ms));
        }
        let ack = client.request(&req).expect("submit answers");
        assert_eq!(ack.get("state").and_then(Value::as_str), Some("queued"));
        ack.get("job").and_then(Value::as_u64).expect("job id")
    };
    // The worker's one thread gives the front one lane: the blocker
    // holds it while the doomed job's 5 ms deadline passes.
    let blocker = submit(&mut client, "a", None);
    let doomed = submit(&mut client, "b", Some(5));
    client
        .wait_report(blocker, Duration::from_secs(30))
        .expect("blocker completes");
    let doc = loop {
        let doc = client.result(doomed).expect("result answers");
        match doc.get("state").and_then(Value::as_str) {
            Some("queued") | Some("running") => std::thread::sleep(Duration::from_millis(2)),
            _ => break doc,
        }
    };
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("expired"));
    let summary = client.shutdown().expect("drains");
    assert_eq!(summary.get("executed").and_then(Value::as_u64), Some(1));
    assert_eq!(summary.get("expired").and_then(Value::as_u64), Some(1));
    front.join();
    worker.join();
}

/// A panicking live executor ends its run with an error end-of-stream
/// object instead of leaving subscribers waiting forever.
#[test]
fn panicking_live_executor_ends_the_stream_with_an_error() {
    let server = start_live(
        ServeConfig::default(),
        serve_executor(),
        serve_batch_executor(),
        serve_snapshot_executor(),
        Arc::new(
            |_spec: &fgqos::serve::protocol::LiveSpec, _session| -> Result<(), String> {
                panic!("live executor blew up")
            },
        ),
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let spec = fgqos::serve::protocol::LiveSpec {
        scenario: SCENARIO.to_string(),
        cycles: CYCLES,
        window: 10_000,
        pace_ms: 0,
    };
    client
        .subscribe(&spec, None)
        .expect("subscribe acknowledged");
    let end = client.next_live_frame().expect("end-of-stream object");
    assert_eq!(end.get("stream").and_then(Value::as_str), Some("end"));
    let error = end.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(
        error.contains("live executor blew up"),
        "end object: {end:?}"
    );
    client.set_read_timeout(None).expect("clear timeout");
    drop(client);
    finish(server);
}
