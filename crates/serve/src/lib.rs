//! `fgqos-serve` — a long-running scenario-execution service.
//!
//! The one-shot `fgqos <scenario-file>` CLI pays full process startup per
//! run and shares nothing between requests. This crate turns the same
//! execution path into a std-only TCP service:
//!
//! * [`protocol`] — a framed, newline-delimited JSON protocol
//!   (`submit` / `submit_batch` / `status` / `result` / `metrics` /
//!   `shutdown`), with versioned `fgqos.serve v2` responses carrying the
//!   same [`fgqos_bench::report::Report`] document the `exp_*` binaries
//!   emit.
//! * [`pool`] — the dispatcher every topology shares: job table, FIFO
//!   queue and worker lanes on the `fgqos_bench::sweep` threading model
//!   (order-stable, `FGQOS_SERVE_THREADS` override), with per-job
//!   deadlines, panic isolation and a graceful drain on shutdown. A
//!   local pool pins a `submit_batch`'s uncached points to one lane so
//!   the warm boundary snapshot is captured once and forked per point.
//! * [`coordinator`] — fleet mode: the same dispatcher with remote
//!   lanes, each forwarding to one registered worker process.
//! * [`cache`] — a content-addressed in-memory result cache keyed by a
//!   hash of (scenario text, cycles, options): resubmitting a job
//!   returns byte-identical cached JSON without re-simulating.
//! * [`admission`] — per-client admission control built from our own
//!   [`fgqos_core::bucket::LeakyBucketRegulator`]: the paper's
//!   window/budget regulation applied to the server's own ingress, so a
//!   flooding client is back-pressured (429-style `deny` responses)
//!   while other clients' latency stays bounded.
//! * [`server`] / [`client`] — the TCP service and a small blocking
//!   client used by `fgqos submit`.
//!
//! The crate is deliberately *executor-agnostic*: scenario parsing lives
//! in the umbrella `fgqos` crate (which depends on this one), so the
//! server takes the execution function as an injected [`Executor`]. The
//! umbrella's `fgqos::runner::serve_executor()` supplies the real
//! simulator-backed one; tests inject stubs.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod coordinator;
pub mod live;
pub mod pool;
pub mod protocol;
pub mod server;

use fgqos_bench::report::Report;
use std::sync::{Arc, LockResult, PoisonError};

/// Unwraps a `Mutex::lock` or `Condvar::wait*` result, recovering the
/// guard when a panicking thread poisoned the lock. Executors never run
/// under these locks; the critical sections only update job tables,
/// queues and counters, each entry valid on its own, so one panicked
/// thread must not fail every later request.
pub(crate) fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Renders a caught executor panic as a job error.
pub(crate) fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    let message = match panic.downcast::<String>() {
        Ok(message) => *message,
        Err(panic) => match panic.downcast::<&str>() {
            Ok(message) => message.to_string(),
            Err(_) => "non-string payload".to_string(),
        },
    };
    format!("executor panicked: {message}")
}

/// Executes one scenario job into a [`Report`].
///
/// Implementations must be pure functions of the [`protocol::JobSpec`]:
/// the result cache assumes two jobs with equal specs produce
/// byte-identical reports.
pub type Executor = Arc<dyn Fn(&protocol::JobSpec) -> Result<Report, String> + Send + Sync>;

/// Executes a warm-start batch: one report per point of the passed
/// [`protocol::BatchSpec`], in point order.
///
/// The pool hands an executor only the *uncached* points of a
/// submission, always on a single lane — the intended
/// implementation (the umbrella's `fgqos::runner::serve_batch_executor`)
/// warms the scenario once to a quiesced boundary, captures it as a
/// `SocSnapshot`, and forks it per point. Like [`Executor`], the result
/// must be a pure function of `(spec, point)` so the per-point cache
/// stays byte-deterministic; a returned `Err` fails every point of the
/// call.
pub type BatchExecutor =
    Arc<dyn Fn(&protocol::BatchSpec) -> Result<Vec<Report>, String> + Send + Sync>;

/// A [`BatchExecutor`] for deployments without warm-start support: every
/// `submit_batch` fails with a stable error message. This is what
/// [`server::start`] installs; [`server::start_with`] takes a real one.
pub fn unsupported_batch_executor() -> BatchExecutor {
    Arc::new(|_spec| Err("this server has no batch executor installed".into()))
}

/// Serves the v3 `snapshot` op: warms `(scenario, warmup)` to a
/// quiesced boundary and returns it as an encoded snapshot blob
/// (`Ok(None)` when the scenario never quiesces). The umbrella's
/// `fgqos::runner::warm_boundary_blob` is the real implementation;
/// must be a pure function of its inputs like the other executors.
pub type SnapshotExecutor = Arc<dyn Fn(&str, u64) -> Result<Option<Vec<u8>>, String> + Send + Sync>;

/// A [`SnapshotExecutor`] for deployments without snapshot support:
/// every `snapshot` request fails with a stable error message.
pub fn unsupported_snapshot_executor() -> SnapshotExecutor {
    Arc::new(|_scenario, _warmup| Err("this server has no snapshot executor installed".into()))
}

/// Runs a v4 live job to completion against its [`live::LiveSession`]:
/// execute the scenario in windows, publish one frame per window, apply
/// and journal queued control writes at boundaries, and `finish` the
/// session with the final report and replay scenario (or an error).
///
/// The server spawns one dedicated thread per live run around this call
/// (live runs are long-lived streams, so they never occupy a pool
/// lane). The umbrella's `fgqos::runner::serve_live_executor` is the
/// real implementation. A returned `Err` or a panic is recorded on the
/// session when the executor did not already `finish` it.
pub type LiveExecutor =
    Arc<dyn Fn(&protocol::LiveSpec, Arc<live::LiveSession>) -> Result<(), String> + Send + Sync>;

/// A [`LiveExecutor`] for deployments without live-run support: every
/// new-run `subscribe` fails with a stable error message.
pub fn unsupported_live_executor() -> LiveExecutor {
    Arc::new(|_spec, _session| Err("this server has no live executor installed".into()))
}
