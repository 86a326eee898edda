//! Declarative scenario files (Scenario DSL v2).
//!
//! Experiments on the real board are described by a configuration (which
//! ports exist, their roles, budgets, traffic) rather than by code. This
//! module gives the simulated stack the same workflow: a small
//! line-oriented text format parsed into a [`ScenarioSpec`], which builds
//! a ready-to-run [`Soc`] plus the
//! [`QosFabric`] software handle. It is the one path from a system
//! description to a [`Soc`]: the `fgqos` CLI, serve, hunt, live runs,
//! snapshots and the `exp_*` co-run experiments
//! ([`corun`](crate::corun)) all build through [`ScenarioSpec::build`].
//! The umbrella crate re-exports this module as `fgqos::scenario`.
//!
//! The complete language reference lives in `docs/scenario-format.md`;
//! worked examples live in `scenarios/`. Every v1 scenario parses
//! unchanged.
//!
//! # Format
//!
//! ```text
//! # comments and blank lines are ignored
//! clock_mhz 1000
//! cycles 200000                    # default run length (CLI can override)
//! expect p99_latency(cpu) < 900    # checked after the run
//!
//! [master cpu]
//! kind cpu                 # cpu | accel
//! role critical            # critical | best-effort | unmanaged
//! pattern random           # seq | random | strided:<bytes>
//! base 0x0
//! footprint 4M
//! txn 256
//! think 1000
//! total 10000
//!
//! [master dma0]
//! kind accel
//! role best-effort
//! period 1000
//! budget 2048
//! pattern seq
//! base 0x40000000
//! footprint 16M
//! txn 1024
//!
//! [xbar]
//! arbitration weighted             # rr | priority | weighted
//! weights 4,1                      # one per master, in declaration order
//!
//! [policy reclaim]
//! reserved 2500
//! base 10240
//! control 10000
//! gain 25
//! busy 256
//!
//! [phase ramp]                     # timed regulator re-programming
//! at 50000
//! budget dma0 8192
//!
//! [fault storm]                    # timed fault injection
//! at 100000
//! rogue dma0                       # dma0 drops all rate limits
//! ```
//!
//! Masters also accept `burst <on> <off>` (on/off phasing in cycles),
//! `gap`, `write_ratio`, `dir`, `outstanding`, `seed` and `start <cycle>`
//! (delayed launch, synthetic workloads only). An unmanaged master may
//! carry a baseline gate: `gate memguard <tick> <budget> <irq>` or
//! `gate tdma <slot> <guard>`. Sizes accept `K`/`M`/`G`
//! suffixes (powers of two) and `0x` hex.
//!
//! v2 adds top-level `cycles`, `until_done`, `expect` and `extends`
//! directives, `[phase]` / `[fault]` sections and `[override master]`
//! re-opening (for `extends`-based variant files). Scenario inheritance
//! (`extends <path>`) is resolved textually by [`resolve_extends_with`] /
//! [`load_scenario_text`] before parsing.

use fgqos_baselines::memguard::{MemGuardConfig, MemGuardGate};
use fgqos_baselines::tdma::{TdmaGate, TdmaSchedule};
use fgqos_core::fabric::{QosFabric, QosFabricBuilder};
use fgqos_core::policy::ReclaimConfig;
pub use fgqos_core::program::ProgramOp;
use fgqos_core::program::{FusedController, ScenarioProgram, TimedOp};
use fgqos_sim::axi::Dir;
use fgqos_sim::dram::{DramConfig, RefreshStorm};
use fgqos_sim::gate::OpenGate;
use fgqos_sim::interconnect::{Arbitration, XbarConfig};
use fgqos_sim::json::Value;
use fgqos_sim::master::MasterKind;
use fgqos_sim::system::{Soc, SocBuilder, SocConfig};
use fgqos_sim::time::{Cycle, Freq};
use fgqos_workloads::kernels::Kernel;
use fgqos_workloads::phased::PhasedSource;
use fgqos_workloads::spec::{AddressPattern, BurstShape, SpecSource, TrafficSpec};
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Error from [`ScenarioSpec::parse`].
#[derive(Debug)]
pub struct ParseScenarioError {
    /// 1-based line number (0 for structural errors).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario line {}: {}", self.line, self.message)
    }
}

impl Error for ParseScenarioError {}

impl ParseScenarioError {
    /// Renders a compiler-style `file:line: message` diagnostic (the
    /// form `fgqos check` prints). Errors without a meaningful line
    /// (whole-file validation) render as `file: message`.
    pub fn diagnostic(&self, file: &str) -> String {
        if self.line > 0 {
            format!("{file}:{}: {}", self.line, self.message)
        } else {
            format!("{file}: {}", self.message)
        }
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseScenarioError {
    ParseScenarioError {
        line,
        message: message.into(),
    }
}

/// Edit distance between two keys, for did-you-mean hints.
fn levenshtein(a: &str, b: &str) -> usize {
    let b_len = b.chars().count();
    let mut prev: Vec<usize> = (0..=b_len).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut cur = Vec::with_capacity(b_len + 1);
        cur.push(i + 1);
        for (j, cb) in b.chars().enumerate() {
            let cost = usize::from(ca != cb);
            cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b_len]
}

/// Renders ` (did you mean "…"?)` when some candidate is close to the
/// input, or an empty string. Ties break alphabetically so diagnostics
/// are deterministic.
fn suggest(input: &str, candidates: &[&str]) -> String {
    candidates
        .iter()
        .map(|c| (levenshtein(input, c), *c))
        .filter(|(d, c)| *d <= 2 && *d < c.len())
        .min()
        .map(|(_, c)| format!(" (did you mean {c:?}?)"))
        .unwrap_or_default()
}

const TOP_KEYS: &[&str] = &["clock_mhz", "cycles", "until_done", "expect", "extends"];
const MASTER_KEYS: &[&str] = &[
    "kind",
    "role",
    "burst",
    "workload",
    "pattern",
    "dir",
    "base",
    "footprint",
    "txn",
    "think",
    "gap",
    "total",
    "write_ratio",
    "period",
    "budget",
    "outstanding",
    "seed",
    "start",
    "gate",
];
const XBAR_KEYS: &[&str] = &["arbitration", "weights"];
const RECLAIM_KEYS: &[&str] = &["reserved", "base", "control", "gain", "busy"];
const PHASE_KEYS: &[&str] = &["at", "budget", "period", "enable"];
const FAULT_KEYS: &[&str] = &[
    "at",
    "rogue",
    "bursty",
    "halt",
    "regulator",
    "controller",
    "refresh_storm",
];
const SECTION_NAMES: &[&str] = &["master", "override", "phase", "fault", "xbar", "policy"];
const EXPECT_METRICS: &[&str] = &[
    "p50_latency",
    "p99_latency",
    "max_latency",
    "bytes",
    "bandwidth",
    "isolation",
];

/// Parses `128`, `0x80`, `4K`, `16M`, `1G`.
fn parse_size(token: &str, line: usize) -> Result<u64, ParseScenarioError> {
    let t = token.trim();
    let (body, mult) = match t.chars().last() {
        Some('K') | Some('k') => (&t[..t.len() - 1], 1u64 << 10),
        Some('M') | Some('m') => (&t[..t.len() - 1], 1 << 20),
        Some('G') | Some('g') => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        body.parse()
    }
    .map_err(|e| err(line, format!("bad number {token:?}: {e}")))?;
    v.checked_mul(mult)
        .ok_or_else(|| err(line, format!("{token:?} overflows 64 bits")))
}

/// Parses a cycle count, capped at `u64::MAX / 2` so `now + cycles`
/// wake-ups cannot overflow within a run.
fn parse_cycles(token: &str, line: usize, what: &str) -> Result<u64, ParseScenarioError> {
    cap_cycles(parse_size(token, line)?, line, what)
}

fn cap_cycles(c: u64, line: usize, what: &str) -> Result<u64, ParseScenarioError> {
    if c > u64::MAX / 2 {
        Err(err(
            line,
            format!("{what} must be at most {}", u64::MAX / 2),
        ))
    } else {
        Ok(c)
    }
}

/// Parses a register write's value token (`4K`, `0x…`, `on`/`off`) for
/// `key` (`budget`, `period` or `enable`) exactly as a `.fgq` `[phase]`
/// line does, screened by [`ProgramOp::parse`]. `fgqos ctl` reads its
/// token with this, so both accept and refuse the same tokens.
pub fn parse_write_token(key: &str, token: &str) -> Result<ProgramOp, String> {
    parse_write(key, token, 0).map_err(|e| e.message)
}

/// Parses a register write's value token (`4K`, `0x…`, `on`/`off`) and
/// screens it with [`ProgramOp::parse`].
fn parse_write(key: &str, token: &str, line: usize) -> Result<ProgramOp, ParseScenarioError> {
    let value = match key {
        "enable" => Value::from(parse_on_off(token, line, key)?),
        _ => Value::from(parse_size(token, line)?),
    };
    ProgramOp::parse(key, Some(&value)).map_err(|e| err(line, e))
}

fn parse_on_off(token: &str, line: usize, what: &str) -> Result<bool, ParseScenarioError> {
    match token {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(err(
            line,
            format!("{what} must be `on` or `off`, got {other:?}"),
        )),
    }
}

/// QoS role of a declared master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// Monitored, never throttled.
    Critical,
    /// Regulated by a tightly-coupled regulator.
    BestEffort,
    /// No QoS hardware of the paper's design: a plain [`OpenGate`], or
    /// the baseline [`GateSpec`] its `gate` key names.
    #[default]
    Unmanaged,
}

/// A baseline arbitration gate on an unmanaged master (`gate` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateSpec {
    /// Software MemGuard: a per-tick byte budget, enforced after an
    /// interrupt latency (`gate memguard <tick> <budget> <irq>`).
    MemGuard {
        /// OS tick in cycles (non-zero).
        tick: u64,
        /// Byte budget per tick.
        budget: u64,
        /// Interrupt enforcement latency in cycles.
        irq: u64,
    },
    /// PREM-style TDMA: a two-slot rotation in which the master owns
    /// the second slot (`gate tdma <slot> <guard>`).
    Tdma {
        /// Slot length in cycles (non-zero).
        slot: u64,
        /// Guard band before the slot end, in cycles (below `slot`).
        guard: u64,
    },
}

/// Workload of a declared master: synthetic traffic or a kernel model.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Declarative synthetic traffic.
    Spec(TrafficSpec),
    /// A benchmark kernel model replayed for a number of iterations,
    /// placed at a base address: the master's `base` key if given, else
    /// `(1 + seed % 16) << 28` (so kernel masters that share a seed,
    /// such as two that keep the default seed 1, share `0x2000_0000`).
    Kernel(Kernel, u64, u64),
}

/// One declared master.
#[derive(Debug, Clone)]
pub struct MasterSpec {
    /// Port name (unique).
    pub name: String,
    /// Master kind (sets the default outstanding limit).
    pub kind: MasterKind,
    /// QoS role.
    pub role: Role,
    /// Regulation window (best-effort only).
    pub period: u32,
    /// Byte budget per window (best-effort only).
    pub budget: u32,
    /// Workload description.
    pub workload: Workload,
    /// Outstanding override (0 = kind default).
    pub outstanding: usize,
    /// Deterministic seed (`seed` key, default 1 for every master).
    pub seed: u64,
    /// Cycle of the first request (`start` key, synthetic workloads
    /// only; 0 = immediately).
    pub start: u64,
    /// Baseline gate (`gate` key, unmanaged masters only).
    pub gate: Option<GateSpec>,
}

/// Optional reclaim policy section.
#[derive(Debug, Clone, Copy)]
pub struct ReclaimSpec {
    /// See [`ReclaimConfig`].
    pub config: ReclaimConfig,
}

/// A [`ProgramOp`] bound to a best-effort master (wildcards expanded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseAction {
    /// Target master name.
    pub master: String,
    /// The register write.
    pub op: ProgramOp,
}

/// A named `[phase]` section: regulator writes applied at a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Phase name (unique, documentation only).
    pub name: String,
    /// Cycle at which the writes are applied.
    pub at: u64,
    /// Writes, in declaration order (`*` targets expanded).
    pub actions: Vec<PhaseAction>,
}

/// One event of a `[fault]` section.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The master drops every rate limit (gap, think, burst shaping and
    /// transaction bound) and streams flat out.
    Rogue {
        /// Target master (synthetic workload only).
        master: String,
    },
    /// The master switches to on/off burst shaping.
    Bursty {
        /// Target master (synthetic workload only).
        master: String,
        /// Active-phase length in cycles.
        on: u64,
        /// Silent-phase length in cycles.
        off: u64,
    },
    /// The master stops issuing entirely.
    Halt {
        /// Target master (synthetic workload only).
        master: String,
    },
    /// The master's regulator is forced on or off.
    Regulator {
        /// Target master (best-effort only).
        master: String,
        /// New enable state.
        enabled: bool,
    },
    /// The host policy controller stops running from this cycle on.
    ControllerOff,
    /// DRAM refreshes densify to `interval` cycles for `duration` cycles.
    RefreshStorm {
        /// Refresh-to-refresh spacing during the storm.
        interval: u64,
        /// Storm length in cycles.
        duration: u64,
    },
}

impl FaultEvent {
    /// The master whose traffic this event rewrites, if any.
    fn traffic_master(&self) -> Option<&str> {
        match self {
            FaultEvent::Rogue { master }
            | FaultEvent::Bursty { master, .. }
            | FaultEvent::Halt { master } => Some(master),
            _ => None,
        }
    }
}

/// A named `[fault]` section: events injected at a cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Fault name (unique, documentation only).
    pub name: String,
    /// Cycle at which the events take effect.
    pub at: u64,
    /// Events, in declaration order.
    pub events: Vec<FaultEvent>,
}

/// Comparison operator of an `expect` directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates `lhs OP rhs`.
    pub fn holds(self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// Latency statistic referenced by an `expect` directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyMetric {
    /// Median request latency.
    P50,
    /// 99th-percentile request latency.
    P99,
    /// Maximum request latency.
    Max,
}

/// The measurable predicate of an `expect` directive.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpectKind {
    /// `<metric>(<master>) <op> <cycles>` over the master's request
    /// latency distribution.
    Latency {
        /// Which statistic.
        metric: LatencyMetric,
        /// Target master.
        master: String,
        /// Comparison.
        op: CmpOp,
        /// Threshold in cycles.
        value: u64,
    },
    /// `bytes(<master>) <op> <bytes>` over completed bytes.
    Bytes {
        /// Target master.
        master: String,
        /// Comparison.
        op: CmpOp,
        /// Threshold in bytes.
        value: u64,
    },
    /// `bandwidth(<master>) within <percent>% of budget`: the average
    /// bytes per completed regulation window tracks the programmed
    /// budget.
    WithinBudget {
        /// Target master (best-effort only).
        master: String,
        /// Allowed relative deviation in percent.
        percent: f64,
    },
    /// `isolation(<master>)`: the critical master was never stalled by
    /// regulation and no best-effort port overshot its window budget by
    /// more than one maximum burst.
    Isolation {
        /// Target master (critical only).
        master: String,
    },
}

impl ExpectKind {
    fn master(&self) -> &str {
        match self {
            ExpectKind::Latency { master, .. }
            | ExpectKind::Bytes { master, .. }
            | ExpectKind::WithinBudget { master, .. }
            | ExpectKind::Isolation { master } => master,
        }
    }
}

/// One `expect` directive.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectSpec {
    /// Canonical source text (as written, for reports).
    pub text: String,
    /// `not` prefix: the predicate must be false.
    pub negated: bool,
    /// The predicate.
    pub kind: ExpectKind,
    /// 1-based source line.
    pub line: usize,
}

fn parse_expect(value: &str, line: usize) -> Result<ExpectSpec, ParseScenarioError> {
    let src = value.trim().to_string();
    let mut rest = src.as_str();
    let negated = match rest.strip_prefix("not ") {
        Some(r) => {
            rest = r.trim_start();
            true
        }
        None => false,
    };
    let open = rest.find('(').ok_or_else(|| {
        err(
            line,
            format!("malformed expect {src:?}: expected `metric(master)`"),
        )
    })?;
    let close = rest
        .find(')')
        .filter(|c| *c > open)
        .ok_or_else(|| err(line, format!("malformed expect {src:?}: missing `)`")))?;
    let metric = rest[..open].trim();
    let master = rest[open + 1..close].trim().to_string();
    if master.is_empty() {
        return Err(err(
            line,
            format!("malformed expect {src:?}: missing master name"),
        ));
    }
    let tail = rest[close + 1..].trim();
    let kind = match metric {
        "isolation" => {
            if !tail.is_empty() {
                return Err(err(
                    line,
                    format!("malformed expect {src:?}: isolation(...) takes no comparison"),
                ));
            }
            ExpectKind::Isolation { master }
        }
        "bandwidth" => {
            let spec = tail.strip_prefix("within").ok_or_else(|| {
                err(
                    line,
                    format!(
                        "malformed expect {src:?}: bandwidth(...) expects \
                         `within <percent>% of budget`"
                    ),
                )
            })?;
            let spec = spec.trim_start();
            let (pct, of) = spec.split_once(char::is_whitespace).ok_or_else(|| {
                err(
                    line,
                    format!("malformed expect {src:?}: missing `of budget`"),
                )
            })?;
            if of.split_whitespace().collect::<Vec<_>>() != ["of", "budget"] {
                return Err(err(
                    line,
                    format!("malformed expect {src:?}: expected `of budget`, got {of:?}"),
                ));
            }
            let body = pct.strip_suffix('%').ok_or_else(|| {
                err(
                    line,
                    format!("malformed expect {src:?}: percent needs a `%` suffix"),
                )
            })?;
            let percent: f64 = body
                .parse()
                .map_err(|e| err(line, format!("malformed expect {src:?}: bad percent: {e}")))?;
            if !percent.is_finite() || percent < 0.0 {
                return Err(err(
                    line,
                    format!("malformed expect {src:?}: percent must be non-negative"),
                ));
            }
            ExpectKind::WithinBudget { master, percent }
        }
        "p50_latency" | "p99_latency" | "max_latency" | "bytes" => {
            let (op_tok, val_tok) = tail.split_once(char::is_whitespace).ok_or_else(|| {
                err(
                    line,
                    format!("malformed expect {src:?}: expected `<op> <value>`"),
                )
            })?;
            let op = match op_tok {
                "<" => CmpOp::Lt,
                "<=" => CmpOp::Le,
                ">" => CmpOp::Gt,
                ">=" => CmpOp::Ge,
                other => {
                    return Err(err(
                        line,
                        format!(
                            "malformed expect {src:?}: unknown comparison {other:?} \
                             (use <, <=, > or >=)"
                        ),
                    ))
                }
            };
            let value = parse_size(val_tok.trim(), line)?;
            match metric {
                "bytes" => ExpectKind::Bytes { master, op, value },
                "p50_latency" => ExpectKind::Latency {
                    metric: LatencyMetric::P50,
                    master,
                    op,
                    value,
                },
                "p99_latency" => ExpectKind::Latency {
                    metric: LatencyMetric::P99,
                    master,
                    op,
                    value,
                },
                _ => ExpectKind::Latency {
                    metric: LatencyMetric::Max,
                    master,
                    op,
                    value,
                },
            }
        }
        other => {
            return Err(err(
                line,
                format!(
                    "malformed expect: unknown metric {other:?}{}",
                    suggest(other, EXPECT_METRICS)
                ),
            ))
        }
    };
    Ok(ExpectSpec {
        text: src,
        negated,
        kind,
        line,
    })
}

/// Parses the value of a `gate` key; cycle arguments are capped as in
/// [`parse_cycles`].
fn parse_gate(value: &str, line: usize) -> Result<GateSpec, ParseScenarioError> {
    let mut parts = value.split_whitespace();
    let kind = parts.next().unwrap_or("");
    let args = parts
        .map(|t| parse_size(t, line))
        .collect::<Result<Vec<u64>, _>>()?;
    match (kind, args.as_slice()) {
        ("memguard", &[tick, budget, irq]) => {
            if tick == 0 {
                return Err(err(line, "memguard tick must be non-zero"));
            }
            Ok(GateSpec::MemGuard {
                tick: cap_cycles(tick, line, "memguard tick")?,
                budget,
                irq: cap_cycles(irq, line, "memguard irq")?,
            })
        }
        ("tdma", &[slot, guard]) => {
            if slot == 0 {
                return Err(err(line, "tdma slot must be non-zero"));
            }
            if guard >= slot {
                return Err(err(line, "tdma guard must be shorter than the slot"));
            }
            Ok(GateSpec::Tdma {
                slot: cap_cycles(slot, line, "tdma slot")?,
                guard,
            })
        }
        _ => Err(err(
            line,
            "gate must be `memguard <tick> <budget> <irq>` or `tdma <slot> <guard>`",
        )),
    }
}

/// A parsed scenario.
#[derive(Debug)]
pub struct ScenarioSpec {
    /// SoC clock.
    pub freq: Freq,
    /// Crossbar configuration (`[xbar]` section).
    pub xbar: XbarConfig,
    /// Declared masters, in file order.
    pub masters: Vec<MasterSpec>,
    /// Optional reclaim policy.
    pub reclaim: Option<ReclaimSpec>,
    /// Timed regulator re-programming (`[phase]` sections), in file order.
    pub phases: Vec<PhaseSpec>,
    /// Timed fault injection (`[fault]` sections), in file order.
    pub faults: Vec<FaultSpec>,
    /// Inline assertions (`expect` directives), in file order.
    pub expects: Vec<ExpectSpec>,
    /// Declared run length (`cycles` directive); the CLI can override.
    pub cycles: Option<u64>,
    /// Declared finish master (`until_done` directive).
    pub until_done: Option<String>,
}

#[derive(Debug)]
struct MasterDraft {
    name: String,
    kind: Option<MasterKind>,
    role: Role,
    period: u32,
    budget: u32,
    pattern: AddressPattern,
    base: Option<u64>,
    footprint: u64,
    txn: u64,
    think: u64,
    gap: u64,
    total: u64,
    write_ratio: f64,
    dir: Dir,
    burst: Option<BurstShape>,
    kernel: Option<(Kernel, u64)>,
    outstanding: usize,
    seed: u64,
    start: Option<(u64, usize)>,
    gate: Option<(GateSpec, usize)>,
    declared_at: usize,
}

impl MasterDraft {
    fn new(name: String, line: usize) -> Self {
        MasterDraft {
            name,
            kind: None,
            role: Role::Unmanaged,
            period: 1_000,
            budget: 1_024,
            pattern: AddressPattern::Sequential,
            base: None,
            footprint: 16 << 20,
            txn: 256,
            think: 0,
            gap: 0,
            total: u64::MAX,
            write_ratio: 0.0,
            dir: Dir::Read,
            burst: None,
            kernel: None,
            outstanding: 0,
            seed: 1,
            start: None,
            gate: None,
            declared_at: line,
        }
    }

    fn finish(self) -> Result<MasterSpec, ParseScenarioError> {
        let kind = self.kind.ok_or_else(|| {
            err(
                self.declared_at,
                format!("master {:?} missing kind", self.name),
            )
        })?;
        if let Some((_, line)) = self.gate.filter(|_| self.role != Role::Unmanaged) {
            return Err(err(
                line,
                format!(
                    "master {:?}: gate needs role unmanaged (critical and best-effort \
                     ports carry the paper's regulator)",
                    self.name
                ),
            ));
        }
        let workload = match self.kernel {
            Some((kernel, iterations)) => {
                if let Some((_, line)) = self.start {
                    return Err(err(
                        line,
                        format!(
                            "master {:?}: start needs a synthetic workload (kernels launch at 0)",
                            self.name
                        ),
                    ));
                }
                let base = self.base.unwrap_or((1 + self.seed % 16) << 28);
                Workload::Kernel(kernel, iterations, base)
            }
            None => {
                let traffic = TrafficSpec {
                    base: self.base.unwrap_or(0),
                    footprint: self.footprint,
                    txn_bytes: self.txn,
                    dir: self.dir,
                    write_ratio: self.write_ratio,
                    pattern: self.pattern,
                    gap: self.gap,
                    think: self.think,
                    total: self.total,
                    burst: self.burst,
                };
                traffic
                    .validate()
                    .map_err(|m| err(self.declared_at, format!("master {:?}: {m}", self.name)))?;
                Workload::Spec(traffic)
            }
        };
        Ok(MasterSpec {
            name: self.name,
            kind,
            role: self.role,
            period: self.period,
            budget: self.budget,
            workload,
            outstanding: self.outstanding,
            seed: self.seed,
            start: self.start.map_or(0, |(c, _)| c),
            gate: self.gate.map(|(g, _)| g),
        })
    }
}

#[derive(Debug)]
struct ActionDraft {
    line: usize,
    target: String,
    op: ProgramOp,
}

#[derive(Debug)]
struct PhaseDraft {
    name: String,
    at: Option<u64>,
    actions: Vec<ActionDraft>,
    declared_at: usize,
}

#[derive(Debug)]
struct EventDraft {
    line: usize,
    event: FaultEvent,
}

#[derive(Debug)]
struct FaultDraft {
    name: String,
    at: Option<u64>,
    events: Vec<EventDraft>,
    declared_at: usize,
}

enum Section {
    Top,
    Master(usize),
    Reclaim(ReclaimConfig),
    Xbar(XbarConfig),
    Phase(usize),
    Fault(usize),
}

impl ScenarioSpec {
    /// Parses a scenario from text.
    ///
    /// `extends` inheritance must already be resolved (see
    /// [`resolve_extends_with`] / [`load_scenario_text`]); an unresolved
    /// `extends` directive is an error here.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line with its number.
    pub fn parse(text: &str) -> Result<ScenarioSpec, ParseScenarioError> {
        let mut freq = Freq::default();
        let mut xbar = XbarConfig::default();
        let mut reclaim: Option<ReclaimSpec> = None;
        let mut drafts: Vec<MasterDraft> = Vec::new();
        let mut phase_drafts: Vec<PhaseDraft> = Vec::new();
        let mut fault_drafts: Vec<FaultDraft> = Vec::new();
        let mut expects: Vec<ExpectSpec> = Vec::new();
        let mut cycles: Option<u64> = None;
        let mut until_done: Option<(String, usize)> = None;
        let mut section = Section::Top;

        let close =
            |section: &mut Section, reclaim: &mut Option<ReclaimSpec>, xbar: &mut XbarConfig| {
                match std::mem::replace(section, Section::Top) {
                    Section::Reclaim(cfg) => *reclaim = Some(ReclaimSpec { config: cfg }),
                    Section::Xbar(cfg) => *xbar = cfg,
                    _ => {}
                }
            };

        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let body = raw.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            if let Some(header) = body.strip_prefix('[') {
                let header = header
                    .strip_suffix(']')
                    .ok_or_else(|| err(line_no, "unterminated section header"))?
                    .trim();
                close(&mut section, &mut reclaim, &mut xbar);
                let mut parts = header.split_whitespace();
                match parts.next() {
                    Some("master") => {
                        let name = parts
                            .next()
                            .ok_or_else(|| err(line_no, "master section needs a name"))?;
                        if drafts.iter().any(|d| d.name == name) {
                            return Err(err(line_no, format!("duplicate master name {name:?}")));
                        }
                        drafts.push(MasterDraft::new(name.to_string(), line_no));
                        section = Section::Master(drafts.len() - 1);
                    }
                    Some("override") => {
                        if parts.next() != Some("master") {
                            return Err(err(
                                line_no,
                                "override section must be `override master <name>`",
                            ));
                        }
                        let name = parts
                            .next()
                            .ok_or_else(|| err(line_no, "override master needs a name"))?;
                        let idx = drafts.iter().position(|d| d.name == name).ok_or_else(|| {
                            let names: Vec<&str> = drafts.iter().map(|d| d.name.as_str()).collect();
                            err(
                                line_no,
                                format!(
                                    "override of unknown master {name:?}{}",
                                    suggest(name, &names)
                                ),
                            )
                        })?;
                        section = Section::Master(idx);
                    }
                    Some("phase") => {
                        let name = parts
                            .next()
                            .ok_or_else(|| err(line_no, "phase section needs a name"))?;
                        if phase_drafts.iter().any(|p| p.name == name) {
                            return Err(err(line_no, format!("duplicate phase name {name:?}")));
                        }
                        phase_drafts.push(PhaseDraft {
                            name: name.to_string(),
                            at: None,
                            actions: Vec::new(),
                            declared_at: line_no,
                        });
                        section = Section::Phase(phase_drafts.len() - 1);
                    }
                    Some("fault") => {
                        let name = parts
                            .next()
                            .ok_or_else(|| err(line_no, "fault section needs a name"))?;
                        if fault_drafts.iter().any(|f| f.name == name) {
                            return Err(err(line_no, format!("duplicate fault name {name:?}")));
                        }
                        fault_drafts.push(FaultDraft {
                            name: name.to_string(),
                            at: None,
                            events: Vec::new(),
                            declared_at: line_no,
                        });
                        section = Section::Fault(fault_drafts.len() - 1);
                    }
                    Some("xbar") => {
                        section = Section::Xbar(XbarConfig::default());
                    }
                    Some("policy") => match parts.next() {
                        Some("reclaim") => {
                            section = Section::Reclaim(ReclaimConfig::default());
                        }
                        other => {
                            return Err(err(line_no, format!("unknown policy {other:?}")));
                        }
                    },
                    Some(other) => {
                        return Err(err(
                            line_no,
                            format!("unknown section {other:?}{}", suggest(other, SECTION_NAMES)),
                        ))
                    }
                    None => return Err(err(line_no, "empty section header")),
                }
                continue;
            }
            let (key, value) = body
                .split_once(char::is_whitespace)
                .ok_or_else(|| err(line_no, format!("expected `key value`, got {body:?}")))?;
            let value = value.trim();
            // Run-control and assertion directives are global: they are
            // valid anywhere a section key could appear (conventionally
            // at the top or bottom of the file) and collide with no
            // section key.
            match key {
                "cycles" => {
                    cycles = Some(parse_cycles(value, line_no, "cycles")?);
                    continue;
                }
                "until_done" => {
                    until_done = Some((value.to_string(), line_no));
                    continue;
                }
                "expect" => {
                    expects.push(parse_expect(value, line_no)?);
                    continue;
                }
                _ => {}
            }
            match &mut section {
                Section::Top => match key {
                    "clock_mhz" => {
                        freq = Freq::mhz(parse_size(value, line_no)?);
                    }
                    "extends" => {
                        return Err(err(
                            line_no,
                            "unresolved extends: scenario inheritance is resolved when the \
                             scenario is loaded from a file",
                        ));
                    }
                    other => {
                        return Err(err(
                            line_no,
                            format!(
                                "unknown top-level key {other:?}{}",
                                suggest(other, TOP_KEYS)
                            ),
                        ))
                    }
                },
                Section::Master(idx) => {
                    let d = &mut drafts[*idx];
                    match key {
                        "kind" => {
                            d.kind = Some(match value {
                                "cpu" => MasterKind::Cpu,
                                "accel" => MasterKind::Accelerator,
                                other => {
                                    return Err(err(line_no, format!("unknown kind {other:?}")))
                                }
                            })
                        }
                        "role" => {
                            d.role = match value {
                                "critical" => Role::Critical,
                                "best-effort" => Role::BestEffort,
                                "unmanaged" => Role::Unmanaged,
                                other => {
                                    return Err(err(line_no, format!("unknown role {other:?}")))
                                }
                            }
                        }
                        "burst" => {
                            let (on, off) = value
                                .split_once(char::is_whitespace)
                                .ok_or_else(|| err(line_no, "burst needs `<on> <off>`"))?;
                            d.burst = Some(BurstShape {
                                on_cycles: parse_cycles(on, line_no, "burst on-phase")?,
                                off_cycles: parse_cycles(off, line_no, "burst off-phase")?,
                            });
                        }
                        "workload" => {
                            let spec = value.strip_prefix("kernel:").ok_or_else(|| {
                                err(line_no, "workload must be kernel:<name>[:<iters>]")
                            })?;
                            let (name, iters) = match spec.split_once(':') {
                                Some((n, i)) => (n, parse_size(i, line_no)?),
                                None => (spec, 1),
                            };
                            let kernel = Kernel::all()
                                .into_iter()
                                .find(|k| k.name() == name)
                                .ok_or_else(|| err(line_no, format!("unknown kernel {name:?}")))?;
                            d.kernel = Some((kernel, iters));
                        }
                        "pattern" => {
                            d.pattern = if value == "seq" {
                                AddressPattern::Sequential
                            } else if value == "random" {
                                AddressPattern::Random
                            } else if let Some(stride) = value.strip_prefix("strided:") {
                                AddressPattern::Strided {
                                    stride: parse_size(stride, line_no)?,
                                }
                            } else {
                                return Err(err(line_no, format!("unknown pattern {value:?}")));
                            }
                        }
                        "dir" => {
                            d.dir = match value {
                                "R" | "r" | "read" => Dir::Read,
                                "W" | "w" | "write" => Dir::Write,
                                other => {
                                    return Err(err(line_no, format!("unknown dir {other:?}")))
                                }
                            }
                        }
                        "base" => d.base = Some(parse_size(value, line_no)?),
                        "footprint" => d.footprint = parse_size(value, line_no)?,
                        "txn" => d.txn = parse_size(value, line_no)?,
                        "think" => d.think = parse_cycles(value, line_no, "think")?,
                        "gap" => d.gap = parse_cycles(value, line_no, "gap")?,
                        "total" => d.total = parse_size(value, line_no)?,
                        "write_ratio" => {
                            d.write_ratio = value
                                .parse()
                                .map_err(|e| err(line_no, format!("bad ratio: {e}")))?
                        }
                        "period" | "budget" => match parse_write(key, value, line_no)? {
                            ProgramOp::Period(p) => d.period = p,
                            ProgramOp::Budget(b) => d.budget = b,
                            ProgramOp::Enable(_) => unreachable!("key is period or budget"),
                        },
                        "outstanding" => d.outstanding = parse_size(value, line_no)? as usize,
                        "seed" => d.seed = parse_size(value, line_no)?,
                        "start" => {
                            d.start = Some((parse_cycles(value, line_no, "start")?, line_no))
                        }
                        "gate" => d.gate = Some((parse_gate(value, line_no)?, line_no)),
                        other => {
                            return Err(err(
                                line_no,
                                format!(
                                    "unknown master key {other:?}{}",
                                    suggest(other, MASTER_KEYS)
                                ),
                            ))
                        }
                    }
                }
                Section::Xbar(cfg) => match key {
                    "arbitration" => {
                        cfg.arbitration = match value {
                            "rr" => Arbitration::RoundRobin,
                            "priority" => Arbitration::FixedPriority,
                            "weighted" => Arbitration::WeightedRoundRobin,
                            other => {
                                return Err(err(line_no, format!("unknown arbitration {other:?}")))
                            }
                        }
                    }
                    "weights" => {
                        cfg.weights = value
                            .split(',')
                            .map(|w| parse_size(w, line_no).map(|v| v as u32))
                            .collect::<Result<Vec<u32>, _>>()?;
                    }
                    other => {
                        return Err(err(
                            line_no,
                            format!("unknown xbar key {other:?}{}", suggest(other, XBAR_KEYS)),
                        ))
                    }
                },
                Section::Reclaim(cfg) => match key {
                    "reserved" => cfg.critical_reserved = parse_size(value, line_no)?,
                    "base" => cfg.be_base = parse_size(value, line_no)?,
                    "control" => cfg.control_period = parse_cycles(value, line_no, "control")?,
                    "gain" => cfg.gain = parse_size(value, line_no)?,
                    "busy" => cfg.busy_threshold = Some(parse_size(value, line_no)?),
                    other => {
                        return Err(err(
                            line_no,
                            format!(
                                "unknown reclaim key {other:?}{}",
                                suggest(other, RECLAIM_KEYS)
                            ),
                        ))
                    }
                },
                Section::Phase(idx) => {
                    let p = &mut phase_drafts[*idx];
                    match key {
                        "at" => p.at = Some(parse_cycles(value, line_no, "at")?),
                        "budget" | "period" | "enable" => {
                            let (target, arg) =
                                value.split_once(char::is_whitespace).ok_or_else(|| {
                                    err(line_no, format!("{key} needs `<master> <value>`"))
                                })?;
                            p.actions.push(ActionDraft {
                                line: line_no,
                                target: target.to_string(),
                                op: parse_write(key, arg.trim(), line_no)?,
                            });
                        }
                        other => {
                            return Err(err(
                                line_no,
                                format!(
                                    "unknown phase key {other:?}{}",
                                    suggest(other, PHASE_KEYS)
                                ),
                            ))
                        }
                    }
                }
                Section::Fault(idx) => {
                    let f = &mut fault_drafts[*idx];
                    match key {
                        "at" => f.at = Some(parse_cycles(value, line_no, "at")?),
                        "rogue" => f.events.push(EventDraft {
                            line: line_no,
                            event: FaultEvent::Rogue {
                                master: value.to_string(),
                            },
                        }),
                        "halt" => f.events.push(EventDraft {
                            line: line_no,
                            event: FaultEvent::Halt {
                                master: value.to_string(),
                            },
                        }),
                        "bursty" => {
                            let mut parts = value.split_whitespace();
                            let (m, on, off) =
                                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                                    (Some(m), Some(on), Some(off), None) => (m, on, off),
                                    _ => {
                                        return Err(err(
                                            line_no,
                                            "bursty needs `<master> <on> <off>`",
                                        ))
                                    }
                                };
                            let on = parse_cycles(on, line_no, "bursty on-phase")?;
                            if on == 0 {
                                return Err(err(line_no, "bursty on-phase must be non-zero"));
                            }
                            f.events.push(EventDraft {
                                line: line_no,
                                event: FaultEvent::Bursty {
                                    master: m.to_string(),
                                    on,
                                    off: parse_cycles(off, line_no, "bursty off-phase")?,
                                },
                            });
                        }
                        "regulator" => {
                            let (m, state) = value
                                .split_once(char::is_whitespace)
                                .ok_or_else(|| err(line_no, "regulator needs `<master> on|off`"))?;
                            f.events.push(EventDraft {
                                line: line_no,
                                event: FaultEvent::Regulator {
                                    master: m.to_string(),
                                    enabled: parse_on_off(state.trim(), line_no, "regulator")?,
                                },
                            });
                        }
                        "controller" => {
                            if value != "off" {
                                return Err(err(
                                    line_no,
                                    "controller fault must be `controller off`",
                                ));
                            }
                            f.events.push(EventDraft {
                                line: line_no,
                                event: FaultEvent::ControllerOff,
                            });
                        }
                        "refresh_storm" => {
                            let (interval, duration) =
                                value.split_once(char::is_whitespace).ok_or_else(|| {
                                    err(line_no, "refresh_storm needs `<interval> <duration>`")
                                })?;
                            let interval =
                                parse_cycles(interval, line_no, "refresh_storm interval")?;
                            let duration =
                                parse_cycles(duration.trim(), line_no, "refresh_storm duration")?;
                            if interval == 0 {
                                return Err(err(
                                    line_no,
                                    "refresh_storm interval must be non-zero",
                                ));
                            }
                            if duration == 0 {
                                return Err(err(
                                    line_no,
                                    "refresh_storm duration must be non-zero",
                                ));
                            }
                            f.events.push(EventDraft {
                                line: line_no,
                                event: FaultEvent::RefreshStorm { interval, duration },
                            });
                        }
                        other => {
                            return Err(err(
                                line_no,
                                format!(
                                    "unknown fault key {other:?}{}",
                                    suggest(other, FAULT_KEYS)
                                ),
                            ))
                        }
                    }
                }
            }
        }
        close(&mut section, &mut reclaim, &mut xbar);

        let first_master_line = drafts.first().map_or(0, |d| d.declared_at);
        let mut masters: Vec<MasterSpec> = Vec::with_capacity(drafts.len());
        for d in drafts {
            masters.push(d.finish()?);
        }
        if masters.is_empty() {
            return Err(err(0, "scenario declares no masters"));
        }
        if reclaim.is_some() {
            let has_critical = masters.iter().any(|m| m.role == Role::Critical);
            let has_be = masters.iter().any(|m| m.role == Role::BestEffort);
            if !has_critical || !has_be {
                return Err(err(
                    0,
                    "reclaim policy needs at least one critical and one best-effort master",
                ));
            }
        }
        if !xbar.weights.is_empty() && xbar.weights.len() != masters.len() {
            return Err(err(0, "xbar weights must list one weight per master"));
        }

        let names: Vec<&str> = masters.iter().map(|m| m.name.as_str()).collect();
        let find = |n: &str| masters.iter().find(|m| m.name == n);
        let unknown =
            |n: &str, line: usize| err(line, format!("unknown master {n:?}{}", suggest(n, &names)));

        let mut phases: Vec<PhaseSpec> = Vec::with_capacity(phase_drafts.len());
        for pd in phase_drafts {
            let at = pd
                .at
                .ok_or_else(|| err(pd.declared_at, format!("phase {:?} missing `at`", pd.name)))?;
            let mut actions = Vec::new();
            for a in pd.actions {
                let targets: Vec<String> = if a.target == "*" {
                    let be: Vec<String> = masters
                        .iter()
                        .filter(|m| m.role == Role::BestEffort)
                        .map(|m| m.name.clone())
                        .collect();
                    if be.is_empty() {
                        return Err(err(
                            a.line,
                            format!("phase {:?}: `*` matches no best-effort masters", pd.name),
                        ));
                    }
                    be
                } else {
                    let m = find(&a.target).ok_or_else(|| unknown(&a.target, a.line))?;
                    if m.role != Role::BestEffort {
                        return Err(err(
                            a.line,
                            format!(
                                "master {:?} is not best-effort \
                                 (only regulated ports can be re-programmed)",
                                a.target
                            ),
                        ));
                    }
                    vec![a.target]
                };
                for t in targets {
                    actions.push(PhaseAction {
                        master: t,
                        op: a.op,
                    });
                }
            }
            phases.push(PhaseSpec {
                name: pd.name,
                at,
                actions,
            });
        }

        let mut faults: Vec<FaultSpec> = Vec::with_capacity(fault_drafts.len());
        for fd in fault_drafts {
            let at = fd
                .at
                .ok_or_else(|| err(fd.declared_at, format!("fault {:?} missing `at`", fd.name)))?;
            let mut events = Vec::with_capacity(fd.events.len());
            for e in fd.events {
                match &e.event {
                    FaultEvent::Rogue { master }
                    | FaultEvent::Bursty { master, .. }
                    | FaultEvent::Halt { master } => {
                        let m = find(master).ok_or_else(|| unknown(master, e.line))?;
                        if !matches!(m.workload, Workload::Spec(_)) {
                            return Err(err(
                                e.line,
                                format!(
                                    "master {master:?} replays a kernel and cannot be faulted \
                                     (traffic faults need a synthetic workload)"
                                ),
                            ));
                        }
                        if m.start > 0 {
                            return Err(err(
                                e.line,
                                format!(
                                    "master {master:?} has a `start` delay and cannot be \
                                     traffic-faulted"
                                ),
                            ));
                        }
                    }
                    FaultEvent::Regulator { master, .. } => {
                        let m = find(master).ok_or_else(|| unknown(master, e.line))?;
                        if m.role != Role::BestEffort {
                            return Err(err(
                                e.line,
                                format!(
                                    "master {master:?} is not best-effort (no regulator to fault)"
                                ),
                            ));
                        }
                    }
                    FaultEvent::ControllerOff => {
                        if reclaim.is_none() {
                            return Err(err(
                                e.line,
                                "controller off needs a [policy reclaim] section to fault",
                            ));
                        }
                    }
                    FaultEvent::RefreshStorm { duration, .. } => {
                        if at.checked_add(*duration).is_none() {
                            return Err(err(e.line, "refresh_storm window overflows"));
                        }
                    }
                }
                events.push(e.event);
            }
            faults.push(FaultSpec {
                name: fd.name,
                at,
                events,
            });
        }

        // Traffic faults become segments of one PhasedSource per master:
        // boundaries must be distinct per master.
        let mut traffic_at: Vec<(&str, u64)> = faults
            .iter()
            .flat_map(|f| {
                f.events
                    .iter()
                    .filter_map(move |e| e.traffic_master().map(|m| (m, f.at)))
            })
            .collect();
        traffic_at.sort();
        for w in traffic_at.windows(2) {
            if w[0] == w[1] {
                return Err(err(
                    0,
                    format!(
                        "master {:?} has two traffic faults at cycle {}",
                        w[0].0, w[0].1
                    ),
                ));
            }
        }
        let mut storm_windows: Vec<(u64, u64)> = faults
            .iter()
            .flat_map(|f| {
                f.events.iter().filter_map(move |e| match e {
                    FaultEvent::RefreshStorm { duration, .. } => Some((f.at, f.at + duration)),
                    _ => None,
                })
            })
            .collect();
        storm_windows.sort();
        for w in storm_windows.windows(2) {
            if w[1].0 < w[0].1 {
                return Err(err(0, "refresh storms overlap"));
            }
        }

        for ex in &expects {
            let master = ex.kind.master();
            let m = find(master).ok_or_else(|| unknown(master, ex.line))?;
            match &ex.kind {
                ExpectKind::WithinBudget { .. } if m.role != Role::BestEffort => {
                    return Err(err(
                        ex.line,
                        format!(
                            "bandwidth({master}) within ...% of budget needs a best-effort master"
                        ),
                    ));
                }
                ExpectKind::Isolation { .. } if m.role != Role::Critical => {
                    return Err(err(
                        ex.line,
                        format!("isolation({master}) needs a critical master"),
                    ));
                }
                _ => {}
            }
        }
        if let Some((name, line)) = &until_done {
            if find(name).is_none() {
                return Err(unknown(name, *line));
            }
        }

        // Last, so every more specific error above wins.
        if masters.iter().all(|m| m.role == Role::Unmanaged) {
            return Err(err(
                first_master_line,
                "scenario needs at least one critical or best-effort master \
                 (the QoS fabric has no port otherwise)",
            ));
        }
        Ok(ScenarioSpec {
            freq,
            xbar,
            masters,
            reclaim,
            phases,
            faults,
            expects,
            cycles,
            until_done: until_done.map(|(n, _)| n),
        })
    }

    /// Traffic fault events rewriting `name`'s workload, ordered by cycle.
    fn traffic_events_for(&self, name: &str) -> Vec<(u64, &FaultEvent)> {
        let mut v: Vec<(u64, &FaultEvent)> = self
            .faults
            .iter()
            .flat_map(|f| {
                f.events
                    .iter()
                    .filter(move |e| e.traffic_master() == Some(name))
                    .map(move |e| (f.at, e))
            })
            .collect();
        v.sort_by_key(|(at, _)| *at);
        v
    }

    /// Refresh storms declared by faults, sorted by start.
    pub fn storms(&self) -> Vec<RefreshStorm> {
        let mut storms: Vec<RefreshStorm> = self
            .faults
            .iter()
            .flat_map(|f| {
                f.events.iter().filter_map(move |e| match e {
                    FaultEvent::RefreshStorm { interval, duration } => Some(RefreshStorm {
                        start: f.at,
                        end: f.at + duration,
                        interval: *interval,
                    }),
                    _ => None,
                })
            })
            .collect();
        storms.sort_by_key(|s| s.start);
        storms
    }

    /// Every scheduled register write as `(at, master, op)`: the
    /// `[phase]` actions in declaration order with `extra` appended as
    /// the last-declared phase, then the regulator-`[fault]` writes.
    pub fn register_writes<'a>(
        &'a self,
        extra: Option<&'a PhaseSpec>,
    ) -> impl Iterator<Item = (u64, &'a str, ProgramOp)> + 'a {
        let phases = self.phases.iter().chain(extra).flat_map(|p| {
            p.actions
                .iter()
                .map(move |a| (p.at, a.master.as_str(), a.op))
        });
        let faults = self.faults.iter().flat_map(|f| {
            f.events.iter().filter_map(move |e| match e {
                FaultEvent::Regulator { master, enabled } => {
                    Some((f.at, master.as_str(), ProgramOp::Enable(*enabled)))
                }
                _ => None,
            })
        });
        phases.chain(faults)
    }

    /// [`ScenarioSpec::register_writes`] as a [`ScenarioProgram`]
    /// schedule over `fabric`'s drivers. The program's stable sort by
    /// cycle keeps the declaration order among writes sharing a cycle.
    pub fn program_ops(&self, fabric: &QosFabric, extra: Option<&PhaseSpec>) -> Vec<TimedOp> {
        self.register_writes(extra)
            .map(|(at, master, op)| TimedOp {
                at,
                driver: fabric
                    .driver(master)
                    .expect("write targets validated at parse")
                    .clone(),
                op,
            })
            .collect()
    }

    /// The phase that writes `knobs` and then `enable on` at cycle `at`
    /// to every best-effort master, as `<key> * <value>` lines would
    /// parse: each line expanded over the best-effort masters in
    /// declaration order.
    pub fn knob_phase(&self, at: u64, knobs: [ProgramOp; 2]) -> PhaseSpec {
        let be: Vec<&MasterSpec> = self
            .masters
            .iter()
            .filter(|m| m.role == Role::BestEffort)
            .collect();
        let actions = knobs
            .into_iter()
            .chain([ProgramOp::Enable(true)])
            .flat_map(|op| {
                be.iter().map(move |m| PhaseAction {
                    master: m.name.clone(),
                    op,
                })
            })
            .collect();
        PhaseSpec {
            name: "knobs".to_string(),
            at,
            actions,
        }
    }

    /// Builds the SoC and its QoS fabric.
    pub fn build(&self) -> (Soc, QosFabric) {
        let cfg = SocConfig {
            freq: self.freq,
            xbar: self.xbar.clone(),
            dram: DramConfig {
                storms: self.storms(),
                ..DramConfig::default()
            },
        };
        let mut fabric = QosFabricBuilder::new();
        let mut builder = SocBuilder::new(cfg);
        for m in &self.masters {
            let outstanding = if m.outstanding > 0 {
                m.outstanding
            } else {
                m.kind.default_outstanding()
            };
            let events = self.traffic_events_for(&m.name);
            let source: Box<dyn fgqos_sim::master::TrafficSource> = match &m.workload {
                Workload::Spec(t) if !events.is_empty() => {
                    let mut segments = vec![(Cycle::ZERO, *t)];
                    for (at, ev) in events {
                        let prev = segments.last().expect("segments start non-empty").1;
                        let next = match ev {
                            FaultEvent::Rogue { .. } => TrafficSpec {
                                gap: 0,
                                think: 0,
                                burst: None,
                                total: u64::MAX,
                                ..prev
                            },
                            FaultEvent::Bursty { on, off, .. } => TrafficSpec {
                                burst: Some(BurstShape {
                                    on_cycles: *on,
                                    off_cycles: *off,
                                }),
                                ..prev
                            },
                            FaultEvent::Halt { .. } => TrafficSpec { total: 0, ..prev },
                            _ => unreachable!("traffic_events_for returns traffic faults"),
                        };
                        segments.push((Cycle::new(at), next));
                    }
                    Box::new(PhasedSource::new(segments, m.seed))
                }
                Workload::Spec(t) => {
                    Box::new(SpecSource::new(*t, m.seed).with_start(Cycle::new(m.start)))
                }
                Workload::Kernel(k, iters, base) => Box::new(k.source(*base, *iters, m.seed)),
            };
            builder = match m.role {
                Role::Critical => {
                    let gate = fabric.critical_port(&m.name, m.period);
                    builder.master_full(&m.name, source, m.kind, gate, outstanding)
                }
                Role::BestEffort => {
                    let gate = fabric.best_effort_port(&m.name, m.period, m.budget);
                    builder.master_full(&m.name, source, m.kind, gate, outstanding)
                }
                Role::Unmanaged => match m.gate {
                    None => builder.master_full(&m.name, source, m.kind, OpenGate, outstanding),
                    Some(GateSpec::MemGuard { tick, budget, irq }) => {
                        let gate = MemGuardGate::new(MemGuardConfig {
                            tick_cycles: tick,
                            budget_bytes: budget,
                            irq_latency_cycles: irq,
                        });
                        builder.master_full(&m.name, source, m.kind, gate, outstanding)
                    }
                    Some(GateSpec::Tdma { slot, guard }) => {
                        let gate = TdmaGate::new(TdmaSchedule::new(slot, 2), vec![1], guard);
                        builder.master_full(&m.name, source, m.kind, gate, outstanding)
                    }
                },
            };
        }
        let fabric = fabric.finish();
        let ops = self.program_ops(&fabric, None);
        if let Some(r) = &self.reclaim {
            let policy = fabric.reclaim_policy(r.config);
            let fuse = self
                .faults
                .iter()
                .filter(|f| {
                    f.events
                        .iter()
                        .any(|e| matches!(e, FaultEvent::ControllerOff))
                })
                .map(|f| f.at)
                .min();
            builder = match fuse {
                Some(at) => builder.controller(FusedController::new(policy, at)),
                None => builder.controller(policy),
            };
        }
        // The program goes in *after* the reclaim policy so that at a
        // coincident cycle an explicit `[phase]` write beats the
        // background policy's write — the same tie-break a live control
        // write gets (controllers settle, then the write applies), which
        // is what keeps a replayed control journal bit-identical to the
        // live run it recorded.
        //
        // Installed even with no ops: the controller *count* is part of
        // the Soc fingerprint, and live-run replay identity compares a
        // phase-free live run against a replay text that gained
        // synthesized `[phase]` sections. An empty program schedules
        // nothing and hashes identically to a fully drained one.
        builder = builder.controller(ScenarioProgram::new(ops));
        (builder.build(), fabric)
    }
}

/// Renders `t` as the synthetic-workload master keys (`pattern`, `base`,
/// `footprint`, `txn`, `dir`, `write_ratio`, `gap`, `think`, and `total`
/// and `burst` when set) that parse back to `t`, one per line.
pub fn traffic_keys(t: &TrafficSpec) -> String {
    let pattern = match t.pattern {
        AddressPattern::Sequential => "seq".to_string(),
        AddressPattern::Random => "random".to_string(),
        AddressPattern::Strided { stride } => format!("strided:{stride}"),
    };
    let mut keys = format!(
        "pattern {pattern}\nbase {:#x}\nfootprint {}\ntxn {}\ndir {}\nwrite_ratio {}\n\
         gap {}\nthink {}\n",
        t.base, t.footprint, t.txn_bytes, t.dir, t.write_ratio, t.gap, t.think
    );
    if t.total != u64::MAX {
        keys += &format!("total {}\n", t.total);
    }
    if let Some(b) = t.burst {
        keys += &format!("burst {} {}\n", b.on_cycles, b.off_cycles);
    }
    keys
}

/// Resolves `extends <path>` inheritance by textual inclusion.
///
/// Every `extends` directive appearing before the first section header is
/// replaced by the (recursively resolved) text `load` returns for its
/// path; all other lines pass through unchanged. Cycles and chains deeper
/// than 8 files are errors. The flattened text is what the rest of the
/// stack sees — it is the serve cache key and the snapshot recipe, so
/// inherited scenarios stay cacheable and restorable.
///
/// # Errors
///
/// Returns the offending `extends` line (numbered within the file that
/// contains it) when `load` fails, a cycle is found, or the chain is too
/// deep.
pub fn resolve_extends_with<F>(text: &str, load: &mut F) -> Result<String, ParseScenarioError>
where
    F: FnMut(&str) -> Result<String, String>,
{
    fn inner<F>(
        text: &str,
        load: &mut F,
        stack: &mut Vec<String>,
    ) -> Result<String, ParseScenarioError>
    where
        F: FnMut(&str) -> Result<String, String>,
    {
        let mut out = String::with_capacity(text.len());
        let mut in_sections = false;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let body = raw.split('#').next().unwrap_or("").trim();
            if body.starts_with('[') {
                in_sections = true;
            }
            if !in_sections {
                if let Some(("extends", path)) = body
                    .split_once(char::is_whitespace)
                    .map(|(k, v)| (k, v.trim()))
                {
                    if stack.iter().any(|p| p == path) {
                        return Err(err(line_no, format!("extends cycle through {path:?}")));
                    }
                    if stack.len() >= 8 {
                        return Err(err(line_no, "extends chain deeper than 8 files"));
                    }
                    let parent = load(path).map_err(|e| err(line_no, e))?;
                    stack.push(path.to_string());
                    let resolved = inner(&parent, load, stack)?;
                    stack.pop();
                    out.push_str(&resolved);
                    if !resolved.ends_with('\n') {
                        out.push('\n');
                    }
                    continue;
                }
            }
            out.push_str(raw);
            out.push('\n');
        }
        Ok(out)
    }
    inner(text, load, &mut Vec::new())
}

/// Reads a scenario file and resolves `extends` inheritance against the
/// file's directory. Returns the flattened scenario text — the form all
/// downstream machinery (parser, serve cache keys, snapshot recipes)
/// operates on.
///
/// # Errors
///
/// Returns a [`ParseScenarioError`] if the file or any parent cannot be
/// read, or inheritance is cyclic / too deep.
pub fn load_scenario_text(path: &str) -> Result<String, ParseScenarioError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| err(0, format!("cannot read {path}: {e}")))?;
    let dir = Path::new(path)
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default();
    resolve_extends_with(&text, &mut |rel| {
        let p = dir.join(rel);
        std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    })
}
