//! `fgqos` — run, check, serve and submit declarative QoS scenarios.
//!
//! ```text
//! Usage:
//!   fgqos <scenario-file> [run options]      simulate a scenario locally
//!   fgqos check <scenario-file>              parse + validate (and run the
//!                                            scenario when it carries
//!                                            `expect` assertions)
//!   fgqos hunt <scenario-file> [options]     search for the worst-case
//!                                            interference pattern against
//!                                            the scenario's critical master
//!   fgqos serve [serve options]              start the execution service
//!   fgqos worker --connect HOST:PORT [...]   start a worker, join a fleet
//!   fgqos submit <scenario-file> [options]   run a scenario via a server
//!   fgqos watch <scenario-file> | --run ID   stream live per-window
//!                                            telemetry from a server
//!   fgqos ctl --run ID --master NAME ...     inject a regulator register
//!                                            write into a live run
//!   fgqos shutdown [--addr HOST:PORT]        drain and stop a server
//!   fgqos --version | -V                     print crate + wire/format
//!                                            versions
//!
//! Run options:
//!   --cycles N        run for N cycles (default: the scenario's `cycles`
//!                     directive, then 1000000)
//!   --until-done NAME run until master NAME finishes (fallback: --cycles cap;
//!                     default: the scenario's `until_done` directive)
//!   --json            print the structured report document instead of text
//!   --histogram       print each master's latency distribution
//!   --quiet           suppress the per-port fabric report
//!
//! Hunt options:
//!   --seed N          root seed; equal seeds give byte-identical reports
//!   --evals N         total candidate evaluation budget (default 48)
//!   --explore N       random candidates before refinement (default 24)
//!   --top-k N         parents carried per refinement round (default 4)
//!   --mutants N       mutants drawn per parent per round (default 3)
//!   --bisect N        extra evaluations bisecting the winner's burst
//!                     phases and fault cycles after the climb (default 12)
//!   --objective M     maximized critical metric: p99 | max (default max)
//!   --warmup N        shared warm-up cycles before the fork boundary
//!   --cycles N        divergent tail cycles after the boundary
//!   --addr HOST:PORT  evaluate through a running `fgqos serve` instead of
//!                     the in-process pool
//!   --out PATH        write the fgqos.hunt-report JSON document to PATH
//!   --fgq PATH        write the replayable winning scenario to PATH
//!   --quiet           suppress the human-readable summary
//!
//! Serve options:
//!   --addr HOST:PORT  listen address (default 127.0.0.1:7171)
//!   --threads N       worker threads (default: FGQOS_SERVE_THREADS or cores)
//!   --max-frame N     per-request byte cap (default 262144)
//!   --admit-budget N  per-client ingress budget, bytes/period (default 1 MiB)
//!   --admit-period-ms N  ingress budget period (default 1000)
//!   --admit-depth N   per-client burst allowance, bytes (default 2 MiB)
//!   --deadline-ms N   default queue deadline for submitted jobs
//!   --cache-dir DIR   persist the result cache in DIR (survives restarts)
//!   --blob-dir DIR    shared warm-boundary snapshot store for batches
//!   --workers N       fleet mode: run a coordinator and spawn N worker
//!                     processes (N=0: bare coordinator for manual fleets
//!                     built with `fgqos worker --connect`)
//!
//! Worker options:
//!   --connect HOST:PORT  coordinator to register with (required)
//!   --addr HOST:PORT  worker listen address (default 127.0.0.1:0)
//!   --threads N / --max-frame N / --blob-dir DIR   as for serve
//!   --admit-budget N / --admit-period-ms N / --admit-depth N   as for serve
//!
//! Submit options:
//!   --addr HOST:PORT  server address (default 127.0.0.1:7171)
//!   --cycles N / --until-done NAME   as for a local run
//!   --client NAME     admission-control principal (default: peer address)
//!   --deadline-ms N   queue deadline for this job
//!   --timeout-ms N    how long to wait for the result (default 60000)
//!
//! Watch options (see docs/live.md):
//!   --addr HOST:PORT  server address (default 127.0.0.1:7171)
//!   --cycles N        run length (default: the scenario's `cycles`
//!                     directive, then 1000000)
//!   --window N        telemetry window in cycles (default 10000); also
//!                     the granularity at which control writes apply
//!   --pace MS         host sleep after each frame (sim-invisible pacing)
//!                     (--cycles, --window and --pace shape a new run;
//!                     `watch --run ID` refuses them)
//!   --json            print raw frame objects instead of summary lines
//!   --verify-replay   after the run, fetch the control journal and
//!                     verify the synthesized replay scenario reproduces
//!                     the live report byte-identically
//!
//! Ctl options:
//!   --run ID          live run to control (required)
//!   --master NAME     best-effort master whose regulator is written
//!   --budget N / --period N / --enable on|off   exactly one register
//!                     write, in the `.fgq` token syntax (`4K`, `0x1000`);
//!                     it applies at the next window boundary
//!   --addr HOST:PORT  server address (default 127.0.0.1:7171)
//!
//! Shutdown options:
//!   --addr HOST:PORT  server address (default 127.0.0.1:7171)
//!
//! Exit status: 0 on success (including `--help`), 1 on runtime errors
//! (unreadable or invalid scenarios, server failures) and on failed
//! `expect` assertions, 2 on usage errors.
//! ```

use fgqos::bench::report::Report;
use fgqos::hunt::{run_hunt, HuntOptions};
use fgqos::hunt_engine::Objective;
use fgqos::runner::{
    assertion_outcome, assertion_text, live_replay_report, scenario_report, scenario_run,
    scenario_text, serve_batch_executor, serve_batch_executor_with_store, serve_executor,
    serve_live_executor, serve_snapshot_executor, LiveOptions, RunOptions,
};
use fgqos::scenario::{load_scenario_text, parse_write_token, ScenarioSpec};
use fgqos::serve::admission::AdmissionConfig;
use fgqos::serve::client::{Client, ClientError, SubmitOptions};
use fgqos::serve::coordinator::CoordinatorConfig;
use fgqos::serve::live::{JOURNAL_SCHEMA, JOURNAL_VERSION, LIVE_SCHEMA, LIVE_VERSION};
use fgqos::serve::protocol::{
    ControlSet, LiveSpec, DEFAULT_LIVE_WINDOW, DEFAULT_MAX_FRAME_BYTES, SERVE_VERSION,
};
use fgqos::serve::server::{start_fleet, start_live, ServeConfig, ServerHandle};
use fgqos::sim::json::Value;
use std::ffi::OsString;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// Fallback run length when neither the command line nor the scenario's
/// `cycles` directive names one.
const DEFAULT_CYCLES: u64 = 1_000_000;

struct RunArgs {
    scenario_path: String,
    cycles: Option<u64>,
    until_done: Option<String>,
    json: bool,
    quiet: bool,
    histogram: bool,
}

struct ServeArgs {
    addr: String,
    threads: usize,
    max_frame_bytes: usize,
    admission: AdmissionConfig,
    admit_overridden: bool,
    default_deadline_ms: Option<u64>,
    cache_dir: Option<PathBuf>,
    blob_dir: Option<PathBuf>,
    workers: Option<usize>,
}

struct WorkerArgs {
    addr: String,
    connect: String,
    threads: usize,
    max_frame_bytes: usize,
    admission: AdmissionConfig,
    blob_dir: Option<PathBuf>,
}

struct SubmitArgs {
    scenario_path: String,
    addr: String,
    cycles: Option<u64>,
    until_done: Option<String>,
    client: Option<String>,
    deadline_ms: Option<u64>,
    timeout_ms: u64,
}

struct HuntArgs {
    scenario_path: String,
    options: HuntOptions,
    out: Option<PathBuf>,
    fgq: Option<PathBuf>,
    quiet: bool,
}

struct WatchArgs {
    scenario_path: Option<String>,
    run: Option<u64>,
    addr: String,
    cycles: Option<u64>,
    window: u64,
    pace_ms: u64,
    json: bool,
    verify_replay: bool,
}

struct CtlArgs {
    run: u64,
    master: String,
    set: ControlSet,
    addr: String,
}

enum Cmd {
    Help,
    Version,
    Run(RunArgs),
    Check { scenario_path: String },
    Hunt(HuntArgs),
    Serve(ServeArgs),
    Worker(WorkerArgs),
    Submit(SubmitArgs),
    Watch(WatchArgs),
    Ctl(CtlArgs),
    Shutdown { addr: String },
}

fn usage() -> &'static str {
    "usage: fgqos <scenario-file> [--cycles N] [--until-done NAME] [--json] [--histogram] [--quiet]
       fgqos check <scenario-file>
       fgqos hunt <scenario-file> [--seed N] [--evals N] [--explore N] [--top-k N] [--mutants N]
                  [--bisect N] [--objective p99|max] [--warmup N] [--cycles N] [--addr HOST:PORT]
                  [--out REPORT.json] [--fgq WINNER.fgq] [--quiet]
       fgqos serve [--addr HOST:PORT] [--threads N] [--max-frame N]
                   [--admit-budget N] [--admit-period-ms N] [--admit-depth N] [--deadline-ms N]
                   [--cache-dir DIR] [--blob-dir DIR] [--workers N]
       fgqos worker --connect HOST:PORT [--addr HOST:PORT] [--threads N] [--max-frame N]
                    [--admit-budget N] [--admit-period-ms N] [--admit-depth N] [--blob-dir DIR]
       fgqos submit <scenario-file> [--addr HOST:PORT] [--cycles N] [--until-done NAME]
                    [--client NAME] [--deadline-ms N] [--timeout-ms N]
       fgqos watch <scenario-file> [--addr HOST:PORT] [--cycles N] [--window N]
                   [--pace MS] [--json] [--verify-replay]
       fgqos watch --run ID [--addr HOST:PORT] [--json] [--verify-replay]
       fgqos ctl --run ID --master NAME (--budget N | --period N | --enable on|off)
                 [--addr HOST:PORT]
       fgqos shutdown [--addr HOST:PORT]
       fgqos --version"
}

/// One subcommand's command line: the flags it accepts and what it
/// builds from them. Every subcommand goes through the one argv loop in
/// [`Grammar::parse`].
struct Grammar {
    /// The subcommand word (`""` for a plain run).
    name: &'static str,
    /// Takes one positional scenario file.
    path: bool,
    /// Flags without a value, space-separated.
    switches: &'static str,
    /// Flags that take the next argument as their value, space-separated.
    values: &'static str,
    /// Builds the command from what the loop collected.
    build: fn(Parsed) -> Result<Cmd, String>,
}

/// The plain `fgqos <scenario-file>` run: the grammar for any first
/// argument that is not a subcommand.
const RUN: Grammar = Grammar {
    name: "",
    path: true,
    switches: "--json --quiet --histogram",
    values: "--cycles --until-done",
    build: run_args,
};

const SUBCOMMANDS: [Grammar; 8] = [
    Grammar {
        name: "check",
        path: true,
        switches: "",
        values: "",
        build: |p| {
            let scenario_path = p.path.ok_or("check needs a scenario file")?;
            Ok(Cmd::Check { scenario_path })
        },
    },
    Grammar {
        name: "hunt",
        path: true,
        switches: "--quiet",
        values: "--seed --evals --explore --top-k --mutants --bisect --objective \
                 --warmup --cycles --addr --out --fgq",
        build: hunt_args,
    },
    Grammar {
        name: "serve",
        path: false,
        switches: "",
        values: "--addr --threads --max-frame --admit-budget --admit-period-ms --admit-depth \
                 --deadline-ms --cache-dir --blob-dir --workers",
        build: |p| {
            let (admission, admit_overridden) = admission(&p)?;
            Ok(Cmd::Serve(ServeArgs {
                addr: p.get("--addr")?.unwrap_or_else(|| DEFAULT_ADDR.into()),
                threads: p.get("--threads")?.unwrap_or(0),
                max_frame_bytes: p.get("--max-frame")?.unwrap_or(DEFAULT_MAX_FRAME_BYTES),
                admission,
                admit_overridden,
                default_deadline_ms: p.get("--deadline-ms")?,
                cache_dir: p.get("--cache-dir")?,
                blob_dir: p.get("--blob-dir")?,
                workers: p.get("--workers")?,
            }))
        },
    },
    Grammar {
        name: "worker",
        path: false,
        switches: "",
        values: "--connect --addr --threads --max-frame --admit-budget --admit-period-ms \
                 --admit-depth --blob-dir",
        build: |p| {
            Ok(Cmd::Worker(WorkerArgs {
                addr: p.get("--addr")?.unwrap_or_else(|| "127.0.0.1:0".into()),
                threads: p.get("--threads")?.unwrap_or(0),
                max_frame_bytes: p.get("--max-frame")?.unwrap_or(DEFAULT_MAX_FRAME_BYTES),
                admission: admission(&p)?.0,
                blob_dir: p.get("--blob-dir")?,
                connect: p
                    .get("--connect")?
                    .ok_or("worker needs --connect HOST:PORT")?,
            }))
        },
    },
    Grammar {
        name: "submit",
        path: true,
        switches: "",
        values: "--addr --cycles --until-done --client --deadline-ms --timeout-ms",
        build: |p| {
            Ok(Cmd::Submit(SubmitArgs {
                addr: p.get("--addr")?.unwrap_or_else(|| DEFAULT_ADDR.into()),
                cycles: p.get("--cycles")?,
                until_done: p.get("--until-done")?,
                client: p.get("--client")?,
                deadline_ms: p.get("--deadline-ms")?,
                timeout_ms: p.get("--timeout-ms")?.unwrap_or(60_000),
                scenario_path: p.path.ok_or("submit needs a scenario file")?,
            }))
        },
    },
    Grammar {
        name: "watch",
        path: true,
        switches: "--json --verify-replay",
        values: "--run --addr --cycles --window --pace",
        build: watch_args,
    },
    Grammar {
        name: "ctl",
        path: false,
        switches: "",
        values: "--run --master --budget --period --enable --addr",
        build: ctl_args,
    },
    Grammar {
        name: "shutdown",
        path: false,
        switches: "",
        values: "--addr",
        build: |p| {
            let addr = p.get("--addr")?.unwrap_or_else(|| DEFAULT_ADDR.into());
            Ok(Cmd::Shutdown { addr })
        },
    },
];

/// The flags and scenario path one subcommand's argv gave, in order.
struct Parsed {
    path: Option<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Grammar {
    /// The one argv loop: `Ok(Cmd::Help)` on `--help`/`-h`, a usage
    /// error on an unknown option, a flag missing its value or a second
    /// scenario file.
    fn parse(&self, mut argv: impl Iterator<Item = String>) -> Result<Cmd, String> {
        let mut p = Parsed {
            path: None,
            flags: Vec::new(),
        };
        while let Some(arg) = argv.next() {
            let known = |list: &'static str| list.split_whitespace().find(|f| *f == arg);
            if arg == "--help" || arg == "-h" {
                return Ok(Cmd::Help);
            } else if let Some(flag) = known(self.switches) {
                p.flags.push((flag, None));
            } else if let Some(flag) = known(self.values) {
                let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
                p.flags.push((flag, Some(value)));
            } else if self.path && !arg.starts_with('-') {
                if p.path.replace(arg).is_some() {
                    return Err(format!("more than one scenario file given\n{}", usage()));
                }
            } else {
                let what = match self.name {
                    "" => "option".to_string(),
                    name => format!("{name} option"),
                };
                return Err(format!("unknown {what} {arg:?}\n{}", usage()));
            }
        }
        (self.build)(p)
    }
}

impl Parsed {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value of `flag`, parsed; the last of repeated flags wins, and
    /// every one given must parse.
    fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        let mut last = None;
        for (_, value) in self.flags.iter().filter(|(f, _)| *f == flag) {
            let value = value.as_deref().unwrap_or_default();
            last = Some(
                value
                    .parse()
                    .map_err(|e| format!("bad {flag} value: {e}"))?,
            );
        }
        Ok(last)
    }

    /// [`Parsed::get`] into `slot`, which keeps its value when the flag
    /// is absent.
    fn set<T: FromStr>(&self, flag: &str, slot: &mut T) -> Result<(), String>
    where
        T::Err: std::fmt::Display,
    {
        if let Some(value) = self.get(flag)? {
            *slot = value;
        }
        Ok(())
    }
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Cmd, String> {
    let mut argv = argv.peekable();
    let grammar = match argv.peek().map(String::as_str) {
        None => return Err(usage().to_string()),
        Some("--help" | "-h") => return Ok(Cmd::Help),
        Some("--version" | "-V") => return Ok(Cmd::Version),
        Some(first) => match SUBCOMMANDS.iter().find(|g| g.name == first) {
            Some(g) => {
                argv.next();
                g
            }
            None => &RUN,
        },
    };
    grammar.parse(argv)
}

fn run_args(p: Parsed) -> Result<Cmd, String> {
    Ok(Cmd::Run(RunArgs {
        cycles: p.get("--cycles")?,
        until_done: p.get("--until-done")?,
        json: p.has("--json"),
        quiet: p.has("--quiet"),
        histogram: p.has("--histogram"),
        scenario_path: p.path.ok_or_else(|| usage().to_string())?,
    }))
}

fn hunt_args(p: Parsed) -> Result<Cmd, String> {
    let mut options = HuntOptions::default();
    let c = &mut options.config;
    p.set("--seed", &mut c.seed)?;
    p.set("--evals", &mut c.evals)?;
    p.set("--explore", &mut c.explore)?;
    p.set("--top-k", &mut c.top_k)?;
    p.set("--mutants", &mut c.mutants_per_parent)?;
    p.set("--bisect", &mut c.bisect)?;
    if let Some(objective) = p.get::<String>("--objective")? {
        c.objective = Objective::parse(&objective)?;
    }
    p.set("--warmup", &mut options.warmup)?;
    p.set("--cycles", &mut options.tail_cycles)?;
    options.addr = p.get("--addr")?;
    Ok(Cmd::Hunt(HuntArgs {
        options,
        out: p.get("--out")?,
        fgq: p.get("--fgq")?,
        quiet: p.has("--quiet"),
        scenario_path: p.path.ok_or("hunt needs a scenario file")?,
    }))
}

/// The `--admit-*` flags of `serve` and `worker`, and whether any was
/// given.
fn admission(p: &Parsed) -> Result<(AdmissionConfig, bool), String> {
    let mut a = AdmissionConfig::default();
    p.set("--admit-budget", &mut a.budget_bytes)?;
    if let Some(ms) = p.get::<u32>("--admit-period-ms")? {
        // The ingress regulator runs at 1 cycle = 1 µs.
        a.period_cycles = ms.saturating_mul(1_000).max(1);
    }
    p.set("--admit-depth", &mut a.depth_bytes)?;
    let given = ["--admit-budget", "--admit-period-ms", "--admit-depth"];
    Ok((a, given.iter().any(|f| p.has(f))))
}

fn watch_args(p: Parsed) -> Result<Cmd, String> {
    let args = WatchArgs {
        run: p.get("--run")?,
        addr: p.get("--addr")?.unwrap_or_else(|| DEFAULT_ADDR.into()),
        cycles: p.get("--cycles")?,
        window: p.get("--window")?.unwrap_or(DEFAULT_LIVE_WINDOW),
        pace_ms: p.get("--pace")?.unwrap_or(0),
        json: p.has("--json"),
        verify_replay: p.has("--verify-replay"),
        scenario_path: p.path.clone(),
    };
    match (&args.scenario_path, args.run) {
        (None, None) => Err("watch needs a scenario file or --run ID".to_string()),
        (Some(_), Some(_)) => Err("watch takes a scenario file or --run ID, not both".to_string()),
        (None, Some(_)) => match ["--cycles", "--window", "--pace"]
            .into_iter()
            .find(|f| p.has(f))
        {
            // These shape a new run; an existing run already has them.
            Some(flag) => Err(format!("watch --run takes no {flag}\n{}", usage())),
            None => Ok(Cmd::Watch(args)),
        },
        (Some(_), None) if args.window == 0 => Err("--window must be at least 1".to_string()),
        (Some(_), None) => Ok(Cmd::Watch(args)),
    }
}

fn ctl_args(p: Parsed) -> Result<Cmd, String> {
    let mut set = None;
    for (flag, token) in &p.flags {
        let Some(key) = flag
            .strip_prefix("--")
            .filter(|k| ["budget", "period", "enable"].contains(k))
        else {
            continue;
        };
        // The `.fgq` token syntax (`4K`, `0x1000`, `on`/`off`), screened
        // by the one register-write validator.
        let write = parse_write_token(key, token.as_deref().unwrap_or_default())
            .map_err(|e| format!("bad {flag} value: {e}"))?;
        if set.replace(write).is_some() {
            return Err("ctl takes exactly one of --budget/--period/--enable".to_string());
        }
    }
    Ok(Cmd::Ctl(CtlArgs {
        run: p.get("--run")?.ok_or("ctl needs --run ID")?,
        master: p.get("--master")?.ok_or("ctl needs --master NAME")?,
        set: set.ok_or("ctl needs one of --budget/--period/--enable")?,
        addr: p.get("--addr")?.unwrap_or_else(|| DEFAULT_ADDR.into()),
    }))
}

/// Reads `path` and parses it, with `file:line:` diagnostics.
fn load(path: &str) -> Result<(String, ScenarioSpec), String> {
    let text = load_scenario_text(path).map_err(|e| e.diagnostic(path))?;
    let spec = ScenarioSpec::parse(&text).map_err(|e| e.diagnostic(path))?;
    Ok((text, spec))
}

/// Resolves a run's length and stop master: command-line flags beat the
/// scenario's own `cycles`/`until_done` directives, which beat the
/// defaults.
fn run_options(spec: &ScenarioSpec, cycles: Option<u64>, until_done: Option<String>) -> RunOptions {
    RunOptions {
        cycles: cycles.or(spec.cycles).unwrap_or(DEFAULT_CYCLES),
        until_done: until_done.or_else(|| spec.until_done.clone()),
    }
}

/// `Err` when the report's `expect` assertions did not all hold (which
/// the caller turns into exit status 1). `of_total` names the total too,
/// as the text outputs do.
fn assertions_hold(report: &Report, of_total: bool) -> Result<(), String> {
    match assertion_outcome(report) {
        Some((passed, failed)) if failed > 0 => Err(if of_total {
            format!("{failed} of {} assertion(s) failed", passed + failed)
        } else {
            format!("{failed} assertion(s) failed")
        }),
        _ => Ok(()),
    }
}

fn run(args: RunArgs) -> Result<(), String> {
    let (text, spec) = load(&args.scenario_path)?;
    let opts = run_options(&spec, args.cycles, args.until_done);
    let (report, soc) = scenario_run(&text, &opts).map_err(|e| e.to_string())?;
    if args.json {
        println!("{}", report.to_json().to_pretty());
    } else {
        print!(
            "{}",
            scenario_text(&report, args.quiet, args.histogram.then_some(&soc))
        );
    }
    assertions_hold(&report, !args.json)
}

fn check(path: &str) -> Result<(), String> {
    let (text, spec) = load(path)?;
    let mut extras = String::new();
    if spec.reclaim.is_some() {
        extras.push_str(", reclaim policy");
    }
    if !spec.phases.is_empty() {
        extras.push_str(&format!(", {} phase(s)", spec.phases.len()));
    }
    if !spec.faults.is_empty() {
        extras.push_str(&format!(", {} fault(s)", spec.faults.len()));
    }
    println!(
        "{path}: ok ({} master{}{extras})",
        spec.masters.len(),
        if spec.masters.len() == 1 { "" } else { "s" },
    );
    if spec.expects.is_empty() {
        return Ok(());
    }
    // Assertions make `check` a run: the scenario's own `cycles` /
    // `until_done` directives (or the usual default) drive it, and a
    // failed expectation fails the check.
    let report =
        scenario_report(&text, &run_options(&spec, None, None)).map_err(|e| e.to_string())?;
    print!("{}", assertion_text(&report));
    assertions_hold(&report, true)
}

fn hunt(args: HuntArgs) -> Result<(), String> {
    let text =
        load_scenario_text(&args.scenario_path).map_err(|e| e.diagnostic(&args.scenario_path))?;
    let result = run_hunt(&text, &args.options)?;

    if let Some(path) = &args.fgq {
        std::fs::write(path, &result.winner_fgq)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{}\n", result.report.to_pretty()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let m = &result.outcome.best.measured;
    let cand = &result.outcome.best.candidate;
    if !args.quiet {
        println!(
            "hunt: seed {}, {} evaluation(s) across {} family(ies), \
             {} refinement round(s), {} bisection probe(s)",
            args.options.config.seed,
            result.outcome.evals_used,
            result.outcome.families,
            result.outcome.rounds,
            result.outcome.bisect_evals,
        );
        println!(
            "worst case: {} aggressor(s), {} fault(s), period {} budget {}",
            cand.family.aggressors.len(),
            cand.family.faults.len(),
            cand.period,
            cand.budget,
        );
        println!(
            "  critical p50 {} p99 {} max {} cycles, {} bytes",
            m.p50, m.p99, m.max, m.bytes
        );
        let bound = result.report.get("bound");
        match bound
            .and_then(|b| b.get("delay_bound"))
            .and_then(|v| v.as_u64())
        {
            Some(limit) => println!(
                "  analytic delay bound {limit} cycles: measured max {} ({})",
                m.max,
                if result.bound_violated {
                    "VIOLATED"
                } else {
                    "holds"
                }
            ),
            None => println!("  analytic delay bound: unmodeled for this configuration"),
        }
        println!(
            "  winner replay: {}",
            if result.replay_verified {
                "verified bit-identical"
            } else {
                "MISMATCH"
            }
        );
    }
    if result.bound_violated {
        eprintln!(
            "warning: measured worst case exceeds the analytic bound; \
             pin the emitted scenario as a regression case"
        );
    }
    if !result.replay_verified {
        return Err("winner replay did not reproduce the measured worst case".to_string());
    }
    Ok(())
}

/// A server with the real simulator-backed executors.
fn start_local(cfg: ServeConfig, blob_dir: &Option<PathBuf>) -> std::io::Result<ServerHandle> {
    let batch_executor = match blob_dir {
        Some(dir) => serve_batch_executor_with_store(dir.clone()),
        None => serve_batch_executor(),
    };
    start_live(
        cfg,
        serve_executor(),
        batch_executor,
        serve_snapshot_executor(),
        serve_live_executor(),
    )
}

fn serve(args: ServeArgs) -> Result<(), String> {
    let cfg = ServeConfig {
        addr: args.addr.clone(),
        threads: args.threads,
        max_frame_bytes: args.max_frame_bytes,
        admission: args.admission,
        default_deadline_ms: args.default_deadline_ms,
        cache_dir: args.cache_dir.clone(),
    };
    let Some(n) = args.workers else {
        let handle =
            start_local(cfg, &args.blob_dir).map_err(|e| format!("cannot start server: {e}"))?;
        // Scripts (and CI) parse this line for the bound port.
        println!("listening on {}", handle.addr());
        handle.join();
        println!("server drained and stopped");
        return Ok(());
    };
    // Fleet mode: a front plus N spawned worker processes
    // (re-invocations of this binary as `fgqos worker`). The front does
    // not throttle; the `--admit-*` knobs apply on the workers.
    let front = ServeConfig {
        admission: UNTHROTTLED,
        ..cfg
    };
    let handle = start_fleet(front, CoordinatorConfig::default())
        .map_err(|e| format!("cannot start coordinator: {e}"))?;
    println!("listening on {}", handle.addr());
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut children = Vec::with_capacity(n);
    for _ in 0..n {
        let child = std::process::Command::new(&exe)
            .args(worker_argv(&args, &handle.addr().to_string()))
            // Workers print their own "listening on" line; keep the
            // front's the only one on stdout for port-scraping scripts.
            .stdout(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn worker: {e}"))?;
        eprintln!("spawned worker pid {}", child.id());
        children.push(child);
    }
    // Wait for the spawned fleet to register before declaring ready.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while handle.core().live_worker_count() < n {
        if std::time::Instant::now() >= deadline {
            return Err(format!(
                "only {} of {n} workers registered within 30s",
                handle.core().live_worker_count()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if n > 0 {
        println!("fleet ready: {n} workers");
    }
    handle.join();
    for mut child in children {
        let _ = child.wait();
    }
    println!("coordinator drained and stopped");
    Ok(())
}

/// Admission that never denies: 1 GiB per period and of burst.
const UNTHROTTLED: AdmissionConfig = AdmissionConfig {
    budget_bytes: 1 << 30,
    period_cycles: 1_000_000,
    depth_bytes: 1 << 30,
};

/// The arguments `fgqos serve --workers N` spawns each worker with.
fn worker_argv(args: &ServeArgs, front: &str) -> Vec<OsString> {
    // All fleet ingress reaches a worker under one coordinator
    // principal, so per-client defaults sized for external clients would
    // strangle it: workers only throttle when the operator asked.
    let admission = if args.admit_overridden {
        args.admission
    } else {
        UNTHROTTLED
    };
    let mut argv: Vec<OsString> = vec!["worker".into(), "--connect".into(), front.into()];
    for (flag, value) in [
        ("--admit-budget", admission.budget_bytes),
        ("--admit-period-ms", admission.period_cycles / 1_000),
        ("--admit-depth", admission.depth_bytes),
    ] {
        argv.extend([flag.into(), value.to_string().into()]);
    }
    if args.threads != 0 {
        argv.extend(["--threads".into(), args.threads.to_string().into()]);
    }
    if let Some(dir) = &args.blob_dir {
        argv.extend(["--blob-dir".into(), dir.into()]);
    }
    argv
}

fn worker(args: WorkerArgs) -> Result<(), String> {
    let cfg = ServeConfig {
        addr: args.addr,
        threads: args.threads,
        max_frame_bytes: args.max_frame_bytes,
        admission: args.admission,
        default_deadline_ms: None,
        cache_dir: None,
    };
    let handle =
        start_local(cfg, &args.blob_dir).map_err(|e| format!("cannot start worker: {e}"))?;
    println!("listening on {}", handle.addr());
    // The coordinator may still be binding when we come up; retry the
    // registration briefly before giving up.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let outcome = Client::connect(&args.connect)
            .and_then(|mut c| c.register_worker(&handle.addr().to_string()));
        match outcome {
            Ok(live) => {
                eprintln!("registered with {} ({live} live workers)", args.connect);
                break;
            }
            Err(e) if std::time::Instant::now() >= deadline => {
                return Err(format!("cannot register with {}: {e}", args.connect));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
    handle.join();
    println!("worker drained and stopped");
    Ok(())
}

fn submit(args: SubmitArgs) -> Result<(), String> {
    // Run-control directives are resolved client-side so the wire job is
    // fully explicit; the flattened (extends-resolved) text is what the
    // server hashes for its cache.
    let (text, spec) = load(&args.scenario_path)?;
    let RunOptions { cycles, until_done } = run_options(&spec, args.cycles, args.until_done);
    let mut client =
        Client::connect(&args.addr).map_err(|e| format!("cannot connect to {}: {e}", args.addr))?;
    let opts = SubmitOptions {
        until_done,
        client: args.client.clone(),
        deadline_ms: args.deadline_ms,
    };
    let (ack, report) = client
        .submit_and_wait(&text, cycles, &opts, Duration::from_millis(args.timeout_ms))
        .map_err(|e| match e {
            ClientError::Denied(m) => format!("server denied the submission: {m}"),
            other => other.to_string(),
        })?;
    eprintln!(
        "job {} {}",
        ack.job,
        if ack.cached {
            "(cache hit)"
        } else {
            "(executed)"
        }
    );
    // Exactly the document `fgqos <file> --json` prints, so the two
    // paths diff byte-identically.
    println!("{}", report.to_pretty());
    // The document carries the assertion summary across the wire; the
    // exit status must match a local run of the same scenario.
    match Report::from_json(&report) {
        Ok(report) => assertions_hold(&report, false),
        Err(_) => Ok(()),
    }
}

/// One human-readable line per streamed frame: window span, per-master
/// window bytes, and any control writes the boundary absorbed.
fn frame_line(doc: &Value) -> String {
    let field = |k: &str| doc.get(k).and_then(Value::as_u64).unwrap_or(0);
    let mut line = format!(
        "window {:>4} [{}..{}]",
        field("window"),
        field("start"),
        field("end")
    );
    if let Some(masters) = doc.get("masters").and_then(Value::as_arr) {
        for m in masters {
            let name = m.get("name").and_then(Value::as_str).unwrap_or("?");
            let bytes = m.get("bytes").and_then(Value::as_u64).unwrap_or(0);
            line.push_str(&format!("  {name} {bytes}B"));
        }
    }
    if let Some(controls) = doc.get("controls").and_then(Value::as_arr) {
        for c in controls {
            line.push_str(&format!(
                "  [ctl {} {}={}]",
                c.get("target").and_then(Value::as_str).unwrap_or("?"),
                c.get("set").and_then(Value::as_str).unwrap_or("?"),
                c.get("value").map(Value::to_compact).unwrap_or_default()
            ));
        }
    }
    line
}

/// Verifies a finished run's determinism contract client-side: replays
/// the journal doc's synthesized scenario as one monolithic local run
/// and byte-compares the rendered report against the server's.
fn verify_replay(doc: &Value) -> Result<(), String> {
    let replay = doc
        .get("replay_scenario")
        .and_then(Value::as_str)
        .ok_or("journal carries no replay scenario (run not finished?)")?;
    let report = doc.get("report").ok_or("journal carries no final report")?;
    let parsed =
        Report::from_json(report).map_err(|e| format!("bad report in journal doc: {e}"))?;
    let cycles = parsed
        .context_value("cycles")
        .and_then(|v| v.parse().ok())
        .ok_or("report in journal doc has no cycles context")?;
    let opts = LiveOptions {
        cycles,
        // The replay is monolithic; the window only shapes the live side.
        window: 1,
        naive: None,
        leap: None,
    };
    let (local, _fingerprint) = live_replay_report(replay, &opts).map_err(|e| e.to_string())?;
    if local.to_json().to_compact() == report.to_compact() {
        println!("replay verified: byte-identical");
        Ok(())
    } else {
        Err("replay mismatch: local monolithic replay differs from the live report".to_string())
    }
}

fn watch(args: WatchArgs) -> Result<(), String> {
    let mut client =
        Client::connect(&args.addr).map_err(|e| format!("cannot connect to {}: {e}", args.addr))?;
    let run = match &args.scenario_path {
        Some(path) => {
            // Parse client-side: a bad scenario fails here with line
            // numbers instead of as a server error string.
            let (text, spec) = load(path)?;
            let live = LiveSpec {
                cycles: run_options(&spec, args.cycles, None).cycles,
                scenario: text,
                window: args.window,
                pace_ms: args.pace_ms,
            };
            client
                .subscribe(&live, None)
                .map_err(|e| format!("subscribe failed: {e}"))?
        }
        None => {
            let run = args.run.expect("parser guarantees one of scenario/--run");
            client
                .subscribe_run(run)
                .map_err(|e| format!("subscribe failed: {e}"))?
        }
    };
    // Scripts (and CI) parse this line for the run id to `fgqos ctl`.
    println!("run {run}");
    let end = loop {
        let doc = client.next_live_frame().map_err(|e| e.to_string())?;
        if doc.get("stream").and_then(Value::as_str) == Some("end") {
            break doc;
        }
        if args.json {
            println!("{}", doc.to_compact());
        } else {
            println!("{}", frame_line(&doc));
        }
    };
    let text_of = |k: &str| {
        end.get(k)
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let count_of = |k: &str| end.get(k).and_then(Value::as_u64).unwrap_or(0);
    let state = text_of("state");
    eprintln!(
        "stream ended: {state}, {} frames, {} controls, {} dropped",
        count_of("frames"),
        count_of("controls"),
        count_of("dropped"),
    );
    if state != "done" {
        return Err(format!("live run failed: {}", text_of("error")));
    }
    if args.verify_replay {
        // The connection reverted to request/response at end-of-stream.
        let doc = client
            .journal(run)
            .map_err(|e| format!("journal fetch failed: {e}"))?;
        verify_replay(&doc)?;
    }
    Ok(())
}

fn ctl(args: CtlArgs) -> Result<(), String> {
    let mut client =
        Client::connect(&args.addr).map_err(|e| format!("cannot connect to {}: {e}", args.addr))?;
    let queued = client
        .control(args.run, &args.master, args.set)
        .map_err(|e| format!("control failed: {e}"))?;
    println!(
        "queued {} {} for run {} at position {queued}",
        args.set.key(),
        args.master,
        args.run
    );
    Ok(())
}

/// `--version`: the crate version plus every versioned wire/disk format
/// this binary speaks, so a bug report names them all in one line each.
fn version_text() -> String {
    format!(
        "fgqos {}\nserve protocol: {}\nsnapshot stream: {}\nhunt report: {} v{}\nlive stream: {} v{}\ncontrol journal: {} v{}",
        env!("CARGO_PKG_VERSION"),
        SERVE_VERSION,
        fgqos::sim::SNAPSHOT_VERSION,
        fgqos::hunt_engine::HUNT_SCHEMA,
        fgqos::hunt_engine::HUNT_VERSION,
        LIVE_SCHEMA,
        LIVE_VERSION,
        JOURNAL_SCHEMA,
        JOURNAL_VERSION,
    )
}

fn shutdown(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let summary = client.shutdown().map_err(|e| e.to_string())?;
    let stat = |k: &str| {
        summary
            .get(k)
            .and_then(fgqos::sim::json::Value::as_u64)
            .unwrap_or(0)
    };
    println!(
        "server drained: {} submitted, {} executed, {} failed, {} expired",
        stat("submitted"),
        stat("executed"),
        stat("failed"),
        stat("expired"),
    );
    Ok(())
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(Cmd::Help) => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        Ok(Cmd::Version) => {
            println!("{}", version_text());
            ExitCode::SUCCESS
        }
        Ok(cmd) => {
            let outcome = match cmd {
                Cmd::Help | Cmd::Version => unreachable!("handled above"),
                Cmd::Run(args) => run(args),
                Cmd::Check { scenario_path } => check(&scenario_path),
                Cmd::Hunt(args) => hunt(args),
                Cmd::Serve(args) => serve(args),
                Cmd::Worker(args) => worker(args),
                Cmd::Submit(args) => submit(args),
                Cmd::Watch(args) => watch(args),
                Cmd::Ctl(args) => ctl(args),
                Cmd::Shutdown { addr } => shutdown(&addr),
            };
            match outcome {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Cmd, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    /// `usage()` split into entries, one per `fgqos ...` line plus its
    /// indented continuation lines, each keyed by its subcommand word
    /// (`""` for the plain run) and tokenized on whitespace and the
    /// `[ ] ( ) |` grouping marks.
    fn usage_entries() -> Vec<(&'static str, Vec<&'static str>)> {
        let mut entries: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in usage().lines() {
            let line = line.trim_start_matches("usage:").trim();
            let tokens = line.split(|c: char| c.is_whitespace() || "[]()|".contains(c));
            let tokens = tokens.filter(|t| !t.is_empty());
            match line.strip_prefix("fgqos ") {
                Some(rest) => {
                    let word = rest.split_whitespace().next().unwrap_or_default();
                    let name = if word.starts_with('<') { "" } else { word };
                    entries.push((name, tokens.collect()));
                }
                None => entries
                    .last_mut()
                    .expect("usage starts with an fgqos line")
                    .1
                    .extend(tokens),
            }
        }
        entries
    }

    #[test]
    fn usage_documents_every_flag_on_its_subcommand_line() {
        let entries = usage_entries();
        for g in std::iter::once(&RUN).chain(&SUBCOMMANDS) {
            let mine: Vec<&Vec<&str>> = entries
                .iter()
                .filter(|(name, _)| *name == g.name)
                .map(|(_, tokens)| tokens)
                .collect();
            assert!(!mine.is_empty(), "usage has no line for {:?}", g.name);
            for flag in g
                .switches
                .split_whitespace()
                .chain(g.values.split_whitespace())
            {
                assert!(
                    mine.iter().any(|tokens| tokens.contains(&flag)),
                    "usage does not document {flag} on the {:?} line",
                    g.name
                );
            }
        }
    }

    /// The module doc's option sections (`Run options:`, `Hunt
    /// options:`, ...), each keyed like [`usage_entries`] and tokenized
    /// on whitespace and the `[ ] ( ) | / , `` marks.
    fn doc_sections() -> Vec<(String, Vec<&'static str>)> {
        let mut sections: Vec<(String, Vec<&str>)> = Vec::new();
        let mut open = false;
        let doc = include_str!("fgqos.rs")
            .lines()
            .map_while(|l| l.strip_prefix("//!"));
        for line in doc.map(str::trim) {
            let heading = line
                .split_once(" options")
                .filter(|(word, _)| line.ends_with(':') && !word.contains(' '));
            if let Some((word, _)) = heading {
                let name = if word == "Run" { "" } else { word };
                sections.push((name.to_lowercase(), Vec::new()));
                open = true;
            } else if line.is_empty() {
                open = false;
            } else if open {
                let tokens = line.split(|c: char| c.is_whitespace() || "[]()|/,`".contains(c));
                let section = sections.last_mut().expect("a heading opened it");
                section.1.extend(tokens.filter(|t| !t.is_empty()));
            }
        }
        sections
    }

    #[test]
    fn module_doc_lists_every_flag_under_its_subcommand() {
        let sections = doc_sections();
        for g in std::iter::once(&RUN).chain(&SUBCOMMANDS) {
            let flags: Vec<&str> = g
                .switches
                .split_whitespace()
                .chain(g.values.split_whitespace())
                .collect();
            if flags.is_empty() {
                continue;
            }
            let (_, tokens) = sections
                .iter()
                .find(|(name, _)| name == g.name)
                .unwrap_or_else(|| panic!("module doc has no options section for {:?}", g.name));
            for flag in flags {
                assert!(
                    tokens.contains(&flag),
                    "module doc does not list {flag} under the {:?} options",
                    g.name
                );
            }
        }
    }

    #[test]
    fn parses_run_defaults() {
        let Ok(Cmd::Run(a)) = args(&["scen.fgq"]) else {
            panic!("expected run");
        };
        assert_eq!(a.scenario_path, "scen.fgq");
        assert_eq!(a.cycles, None, "resolved later against the scenario");
        assert!(a.until_done.is_none());
        assert!(!a.json && !a.quiet && !a.histogram);
    }

    #[test]
    fn parses_hunt_options() {
        let Ok(Cmd::Hunt(h)) = args(&["hunt", "s.fgq"]) else {
            panic!("expected hunt");
        };
        assert_eq!(h.scenario_path, "s.fgq");
        assert_eq!(h.options.config.seed, HuntOptions::default().config.seed);
        assert!(h.options.addr.is_none() && h.out.is_none() && h.fgq.is_none());
        assert!(!h.quiet);

        let Ok(Cmd::Hunt(h)) = args(&[
            "hunt",
            "s.fgq",
            "--seed",
            "9",
            "--evals",
            "12",
            "--explore",
            "6",
            "--top-k",
            "2",
            "--mutants",
            "5",
            "--bisect",
            "4",
            "--objective",
            "p99",
            "--warmup",
            "5000",
            "--cycles",
            "7000",
            "--addr",
            "127.0.0.1:7171",
            "--out",
            "r.json",
            "--fgq",
            "w.fgq",
            "--quiet",
        ]) else {
            panic!("expected hunt");
        };
        assert_eq!(h.options.config.seed, 9);
        assert_eq!(h.options.config.evals, 12);
        assert_eq!(h.options.config.explore, 6);
        assert_eq!(h.options.config.top_k, 2);
        assert_eq!(h.options.config.mutants_per_parent, 5);
        assert_eq!(h.options.config.bisect, 4);
        assert!(matches!(h.options.config.objective, Objective::P99));
        assert_eq!(h.options.warmup, 5_000);
        assert_eq!(h.options.tail_cycles, 7_000);
        assert_eq!(h.options.addr.as_deref(), Some("127.0.0.1:7171"));
        assert_eq!(h.out.as_deref(), Some(std::path::Path::new("r.json")));
        assert_eq!(h.fgq.as_deref(), Some(std::path::Path::new("w.fgq")));
        assert!(h.quiet);

        assert!(args(&["hunt"]).is_err(), "scenario file is required");
        assert!(args(&["hunt", "s.fgq", "--objective", "mean"]).is_err());
        assert!(matches!(args(&["hunt", "--help"]), Ok(Cmd::Help)));
    }

    #[test]
    fn parses_all_run_options() {
        let Ok(Cmd::Run(a)) = args(&[
            "s.fgq",
            "--cycles",
            "500",
            "--until-done",
            "cpu",
            "--json",
            "--quiet",
            "--histogram",
        ]) else {
            panic!("expected run");
        };
        assert_eq!(a.cycles, Some(500));
        assert_eq!(a.until_done.as_deref(), Some("cpu"));
        assert!(a.json && a.quiet && a.histogram);
    }

    #[test]
    fn help_is_not_an_error() {
        assert!(matches!(args(&["--help"]), Ok(Cmd::Help)));
        assert!(matches!(args(&["-h"]), Ok(Cmd::Help)));
        assert!(matches!(args(&["serve", "--help"]), Ok(Cmd::Help)));
        assert!(matches!(args(&["s.fgq", "-h"]), Ok(Cmd::Help)));
    }

    #[test]
    fn parses_subcommands() {
        assert!(matches!(
            args(&["check", "s.fgq"]),
            Ok(Cmd::Check { scenario_path }) if scenario_path == "s.fgq"
        ));
        let Ok(Cmd::Serve(s)) = args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "3",
            "--admit-period-ms",
            "50",
        ]) else {
            panic!("expected serve");
        };
        assert_eq!(s.addr, "127.0.0.1:0");
        assert_eq!(s.threads, 3);
        assert_eq!(s.admission.period_cycles, 50_000);
        let Ok(Cmd::Submit(su)) = args(&[
            "submit",
            "s.fgq",
            "--addr",
            "127.0.0.1:9",
            "--cycles",
            "42",
            "--client",
            "ci",
        ]) else {
            panic!("expected submit");
        };
        assert_eq!(su.scenario_path, "s.fgq");
        assert_eq!(su.addr, "127.0.0.1:9");
        assert_eq!(su.cycles, Some(42));
        assert_eq!(su.client.as_deref(), Some("ci"));
        assert!(matches!(args(&["shutdown"]), Ok(Cmd::Shutdown { .. })));
    }

    #[test]
    fn parses_fleet_options() {
        let Ok(Cmd::Serve(s)) = args(&[
            "serve",
            "--workers",
            "4",
            "--cache-dir",
            "/tmp/cache",
            "--blob-dir",
            "/tmp/blobs",
        ]) else {
            panic!("expected serve");
        };
        assert_eq!(s.workers, Some(4));
        assert_eq!(
            s.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/cache"))
        );
        assert_eq!(
            s.blob_dir.as_deref(),
            Some(std::path::Path::new("/tmp/blobs"))
        );
        assert!(!s.admit_overridden);
        let Ok(Cmd::Worker(w)) = args(&[
            "worker",
            "--connect",
            "127.0.0.1:7171",
            "--blob-dir",
            "/tmp/blobs",
        ]) else {
            panic!("expected worker");
        };
        assert_eq!(w.connect, "127.0.0.1:7171");
        assert_eq!(w.addr, "127.0.0.1:0");
        assert!(args(&["worker"]).is_err(), "worker requires --connect");
    }

    #[test]
    fn fleet_workers_get_the_admission_knobs() {
        let argv = |list: &[&str]| {
            let Ok(Cmd::Serve(s)) = args(list) else {
                panic!("expected serve");
            };
            worker_argv(&s, "127.0.0.1:9")
                .into_iter()
                .map(|a| a.into_string().unwrap())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let tuned = argv(&[
            "serve",
            "--workers",
            "2",
            "--threads",
            "3",
            "--admit-budget",
            "4096",
            "--admit-period-ms",
            "50",
            "--admit-depth",
            "8192",
            "--blob-dir",
            "/tmp/blobs",
        ]);
        assert_eq!(
            tuned,
            "worker --connect 127.0.0.1:9 --admit-budget 4096 --admit-period-ms 50 \
             --admit-depth 8192 --threads 3 --blob-dir /tmp/blobs"
        );
        // Untuned fleets run unthrottled workers.
        assert_eq!(
            argv(&["serve", "--workers", "2"]),
            "worker --connect 127.0.0.1:9 --admit-budget 1073741824 \
             --admit-period-ms 1000 --admit-depth 1073741824"
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(args(&[]).is_err());
        assert!(args(&["a", "b"]).is_err());
        assert!(args(&["a", "--cycles"]).is_err());
        assert!(args(&["a", "--cycles", "xyz"]).is_err());
        assert!(args(&["a", "--frobnicate"]).is_err());
        assert!(args(&["check"]).is_err());
        assert!(args(&["serve", "--bogus"]).is_err());
        assert!(args(&["submit"]).is_err());
        // `watch --run` follows a run that already has its length,
        // window and pace.
        for flag in ["--cycles", "--window", "--pace"] {
            assert!(
                args(&["watch", "--run", "7", flag, "5"]).is_err(),
                "watch --run {flag} must be refused"
            );
        }
    }

    #[test]
    fn parses_version() {
        assert!(matches!(args(&["--version"]), Ok(Cmd::Version)));
        assert!(matches!(args(&["-V"]), Ok(Cmd::Version)));
        let text = version_text();
        assert!(text.starts_with(concat!("fgqos ", env!("CARGO_PKG_VERSION"))));
        assert!(text.contains(&format!("serve protocol: {SERVE_VERSION}")));
    }

    #[test]
    fn parses_watch_options() {
        let Ok(Cmd::Watch(w)) = args(&["watch", "s.fgq"]) else {
            panic!("expected watch");
        };
        assert_eq!(w.scenario_path.as_deref(), Some("s.fgq"));
        assert_eq!(w.run, None);
        assert_eq!(w.window, DEFAULT_LIVE_WINDOW);
        assert_eq!(w.pace_ms, 0);
        assert!(!w.json && !w.verify_replay);

        let Ok(Cmd::Watch(w)) = args(&[
            "watch",
            "--run",
            "7",
            "--addr",
            "127.0.0.1:9",
            "--json",
            "--verify-replay",
        ]) else {
            panic!("expected watch");
        };
        assert_eq!(w.run, Some(7));
        assert_eq!(w.addr, "127.0.0.1:9");
        assert!(w.json && w.verify_replay);

        let Ok(Cmd::Watch(w)) = args(&["watch", "s.fgq", "--window", "5000", "--pace", "3"]) else {
            panic!("expected watch");
        };
        assert_eq!(w.window, 5_000);
        assert_eq!(w.pace_ms, 3);

        assert!(args(&["watch"]).is_err(), "needs a scenario or --run");
        assert!(
            args(&["watch", "s.fgq", "--run", "1"]).is_err(),
            "scenario and --run are exclusive"
        );
        assert!(args(&["watch", "s.fgq", "--window", "0"]).is_err());
        assert!(matches!(args(&["watch", "--help"]), Ok(Cmd::Help)));
    }

    #[test]
    fn parses_ctl_options() {
        let Ok(Cmd::Ctl(c)) = args(&["ctl", "--run", "3", "--master", "dma", "--budget", "512"])
        else {
            panic!("expected ctl");
        };
        assert_eq!(c.run, 3);
        assert_eq!(c.master, "dma");
        assert_eq!(c.set, ControlSet::Budget(512));
        assert_eq!(c.addr, DEFAULT_ADDR);

        let Ok(Cmd::Ctl(c)) = args(&["ctl", "--run", "3", "--master", "dma", "--period", "250"])
        else {
            panic!("expected ctl");
        };
        assert_eq!(c.set, ControlSet::Period(250));

        let Ok(Cmd::Ctl(c)) = args(&["ctl", "--run", "3", "--master", "dma", "--enable", "off"])
        else {
            panic!("expected ctl");
        };
        assert_eq!(c.set, ControlSet::Enable(false));

        assert!(args(&["ctl", "--master", "dma", "--budget", "1"]).is_err());
        assert!(args(&["ctl", "--run", "3", "--budget", "1"]).is_err());
        assert!(args(&["ctl", "--run", "3", "--master", "dma"]).is_err());
        assert!(
            args(&["ctl", "--run", "3", "--master", "dma", "--budget", "1", "--period", "2"])
                .is_err(),
            "exactly one register write per ctl"
        );
        assert!(args(&["ctl", "--run", "3", "--master", "dma", "--period", "0"]).is_err());
        assert!(args(&["ctl", "--run", "3", "--master", "dma", "--enable", "maybe"]).is_err());
    }

    #[test]
    fn run_reports_missing_file() {
        let e = run(RunArgs {
            scenario_path: "/nonexistent/scenario.fgq".into(),
            cycles: Some(10),
            until_done: None,
            json: false,
            quiet: true,
            histogram: false,
        })
        .unwrap_err();
        assert!(e.contains("cannot read"));
    }
}
