//! Port gating: the attachment point for QoS regulators.
//!
//! On the real FPGA, the paper's regulator IP sits between an
//! accelerator's AXI master port and the system interconnect and gates the
//! address-channel handshake. In the simulator, every master owns a
//! [`PortGate`]; the master consults it each cycle before pushing a staged
//! request into its interconnect port.
//!
//! The `fgqos-core` crate implements the paper's tightly-coupled regulator
//! on this trait; `fgqos-baselines` implements MemGuard-style software
//! regulation and PREM-style TDMA on the same seam, which makes the
//! schemes directly comparable.

use crate::axi::{Request, Response};
use crate::metrics::MetricsRegistry;
use crate::time::Cycle;
use fgqos_snap::StateWalker;

boxed_clone!(CloneGate, PortGate);

/// Outcome of presenting a request to a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    /// The request may enter the interconnect this cycle. The gate has
    /// debited any budget it keeps.
    Accept,
    /// The request is stalled; the master must retry on a later cycle.
    Deny,
}

impl GateDecision {
    /// Returns `true` for [`GateDecision::Accept`].
    #[inline]
    pub fn is_accept(self) -> bool {
        matches!(self, GateDecision::Accept)
    }
}

/// A per-port admission gate.
///
/// Implementations must be *monotonic within a cycle*: once `try_accept`
/// returns [`GateDecision::Accept`] for a request, the caller will issue
/// that request in the same cycle (the master guarantees interconnect FIFO
/// space before consulting the gate), so accounting done in `try_accept`
/// is final.
///
/// # Fast-forward contract
///
/// The simulator skips cycles in which no component can change state
/// (see [`Soc::step`](crate::system::Soc)). Two hooks keep gated runs
/// bit-identical to naive cycle-by-cycle stepping:
///
/// * [`PortGate::next_activity`] reports the earliest cycle `>= now` at
///   which the gate's admission decision or externally visible state
///   (telemetry registers, window counters) can change *on its own* —
///   that is, assuming no request is accepted and no completion arrives
///   in between. An accept executes a full cycle; a completion is
///   delivered on an executed cycle but does **not** by itself make the
///   owning master execute the next one (see below). The default is
///   `Some(now)`, which declares "I may change every cycle" and disables
///   skipping for the owning master — always safe.
/// * [`PortGate::on_denied_skip`] replicates the per-cycle accounting a
///   denying gate would have done over `cycles` skipped retry cycles
///   (stall counters, status registers). Any gate that returns a
///   `next_activity` later than `now` while it is denying must implement
///   it; the default is a no-op.
/// * [`PortGate::completion_can_admit`] declares whether
///   [`on_complete`](PortGate::on_complete) can turn a denial into an
///   accept (an in-flight cap can; a byte budget, a time slot or a
///   software throttle cannot). Only then does a completion to a denied
///   master force a retry on the next cycle; otherwise the master sleeps
///   until the denial's latched flip cycle, and the retries it skips
///   are replayed through `on_denied_skip`. The default `true` is always
///   safe. A gate declaring `false` must keep both its decision and its
///   `next_activity` unchanged by `on_complete` while it is denying.
pub trait PortGate: CloneGate {
    /// Called once per simulation cycle before any admission attempt.
    ///
    /// Under fast-forward this is only invoked at *executed* cycles, so
    /// periodic work must catch up over gaps (e.g. roll every elapsed
    /// window, not just one).
    fn on_cycle(&mut self, _now: Cycle) {}

    /// Decides whether `request` may enter the interconnect at `now`.
    fn try_accept(&mut self, request: &Request, now: Cycle) -> GateDecision;

    /// Observes a completion on this port (for completion-based
    /// accounting schemes).
    fn on_complete(&mut self, _response: &Response, _now: Cycle) {}

    /// Earliest cycle `>= now` at which this gate can change state on its
    /// own; `None` means never (see the trait-level contract).
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }

    /// Accounts for `cycles` skipped cycles during which the master
    /// would have retried a request this gate kept denying.
    fn on_denied_skip(&mut self, _cycles: u64) {}

    /// Whether a completion on this port can turn a denial into an
    /// accept (see the trait-level contract). The default `true` makes
    /// every completion to a denied master force a retry on the next
    /// cycle — always safe.
    fn completion_can_admit(&self) -> bool {
        true
    }

    /// Short human-readable label for reports.
    fn label(&self) -> &'static str {
        "gate"
    }

    /// Registers this gate's telemetry into `registry` under `prefix`
    /// (e.g. `soc.master.dma0.gate`).
    ///
    /// Called only when a caller snapshots metrics (pull-based, see
    /// [`crate::metrics`]); the default registers nothing, so stateless
    /// gates cost nothing. Regulators should expose their configured
    /// budget/period and accumulated counters here with stable names.
    fn collect_metrics(&self, _prefix: &str, _registry: &mut MetricsRegistry) {}

    /// Walks this gate's architectural state — every field that
    /// influences future decisions — in one list that hashes, records,
    /// loads and forks (see [`StateWalker`] for the field kinds). A
    /// forkable gate is `Clone` plus this walk: a fork clones the machine
    /// and walks it once, rebinding every `Arc` handle (register file,
    /// group budget) declared with [`shared`](StateWalker::shared).
    ///
    /// The list is complete about absolute time too: a gate whose
    /// admission reads the clock (a slot table, an OS tick) declares a
    /// [`modulus`](StateWalker::modulus) or
    /// [`horizon`](StateWalker::horizon) bounding it, or
    /// [`no_leap`](StateWalker::no_leap).
    ///
    /// The default opens a section named by the label and calls
    /// [`unsupported`](StateWalker::unsupported), which refuses both a
    /// load ([`SnapDecodeError::Unsupported`](fgqos_snap::SnapDecodeError::Unsupported))
    /// and a fork ([`SnapshotError::Unforkable`](fgqos_snap::SnapshotError::Unforkable)):
    /// gate kinds that never opted into persistence cannot silently
    /// desynchronize the stream. Stateless gates override it with the
    /// section alone.
    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section(self.label());
        w.unsupported(self.label());
    }
}

impl PortGate for Box<dyn PortGate> {
    fn on_cycle(&mut self, now: Cycle) {
        self.as_mut().on_cycle(now);
    }

    fn try_accept(&mut self, request: &Request, now: Cycle) -> GateDecision {
        self.as_mut().try_accept(request, now)
    }

    fn on_complete(&mut self, response: &Response, now: Cycle) {
        self.as_mut().on_complete(response, now);
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        self.as_ref().next_activity(now)
    }

    fn on_denied_skip(&mut self, cycles: u64) {
        self.as_mut().on_denied_skip(cycles);
    }

    fn completion_can_admit(&self) -> bool {
        self.as_ref().completion_can_admit()
    }

    fn label(&self) -> &'static str {
        self.as_ref().label()
    }

    fn collect_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        self.as_ref().collect_metrics(prefix, registry);
    }

    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        self.as_mut().visit_state(w);
    }
}

/// A gate that admits everything: the unregulated baseline.
///
/// ```
/// use fgqos_sim::gate::{GateDecision, OpenGate, PortGate};
/// use fgqos_sim::axi::{Dir, MasterId, Request};
/// use fgqos_sim::time::Cycle;
///
/// let mut g = OpenGate;
/// let r = Request::new(MasterId::new(0), 0, 0, 1, Dir::Read, Cycle::ZERO);
/// assert_eq!(g.try_accept(&r, Cycle::ZERO), GateDecision::Accept);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenGate;

impl PortGate for OpenGate {
    fn try_accept(&mut self, _request: &Request, _now: Cycle) -> GateDecision {
        GateDecision::Accept
    }

    fn next_activity(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    fn label(&self) -> &'static str {
        "open"
    }

    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        // Stateless: the stream carries only the section tag.
        w.section("open");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axi::{Dir, MasterId, Request};

    #[test]
    fn open_gate_always_accepts() {
        let mut g = OpenGate;
        for i in 0..100 {
            let r = Request::new(MasterId::new(0), i, i * 64, 4, Dir::Write, Cycle::new(i));
            assert!(g.try_accept(&r, Cycle::new(i)).is_accept());
        }
        assert_eq!(g.label(), "open");
    }

    #[test]
    fn boxed_gate_delegates() {
        let mut g: Box<dyn PortGate> = Box::new(OpenGate);
        let r = Request::new(MasterId::new(0), 0, 0, 1, Dir::Read, Cycle::ZERO);
        g.on_cycle(Cycle::ZERO);
        assert!(g.try_accept(&r, Cycle::ZERO).is_accept());
        assert_eq!(g.label(), "open");
    }

    #[test]
    fn decision_predicates() {
        assert!(GateDecision::Accept.is_accept());
        assert!(!GateDecision::Deny.is_accept());
    }
}
