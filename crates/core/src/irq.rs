//! Interrupt path of the regulator IP.
//!
//! Besides memory-mapped polling, the real IP raises an interrupt line
//! when a port exhausts its budget, so host software can react
//! event-driven instead of burning a polling loop. This module models
//! that path: the sticky `EXHAUSTED` status bit is the interrupt source,
//! the `IRQ_ENABLE` control bit masks it, and [`IrqDispatcher`] plays the
//! role of the GIC + kernel: it watches the lines and invokes a handler
//! after a configurable dispatch latency. Handlers acknowledge by
//! clearing the sticky bit (via
//! [`RegulatorDriver::clear_exhausted`]). The line is level-triggered:
//! while it stays asserted *and the handler acknowledges*, deliveries
//! repeat (one per dispatch latency); a handler that does not
//! acknowledge leaves the line masked until it drops.

use crate::driver::RegulatorDriver;
use crate::regfile::{Reg, CTRL_IRQ_ENABLE, STATUS_EXHAUSTED};
use fgqos_sim::system::Controller;
use fgqos_sim::time::Cycle;
use std::cell::RefCell;
use std::rc::Rc;

/// Handler invoked on an exhaustion interrupt: receives the port's
/// driver and the delivery time.
pub type IrqHandler = Box<dyn FnMut(&RegulatorDriver, Cycle)>;

#[derive(Clone)]
struct Line {
    driver: RegulatorDriver,
    /// Shared by clones: a handler closure cannot be copied, which is
    /// also why a dispatcher's state walk refuses to load or fork.
    handler: Rc<RefCell<IrqHandler>>,
    /// Delivery scheduled at this time (assertion already latched).
    pending_at: Option<Cycle>,
    /// Whether a new assertion may latch a delivery. Cleared when a
    /// handler returns without acknowledging (re-armed when the line
    /// drops).
    armed: bool,
    delivered: u64,
}

/// Dispatches regulator exhaustion interrupts to software handlers.
///
/// Register as a [`Controller`] on the
/// [`SocBuilder`](fgqos_sim::system::SocBuilder).
#[derive(Clone)]
pub struct IrqDispatcher {
    latency: u64,
    lines: Vec<Line>,
}

impl std::fmt::Debug for IrqDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IrqDispatcher")
            .field("latency", &self.latency)
            .field("lines", &self.lines.len())
            .finish()
    }
}

impl IrqDispatcher {
    /// Creates a dispatcher with the given interrupt delivery latency
    /// (GIC propagation + kernel entry, in cycles).
    pub fn new(latency_cycles: u64) -> Self {
        IrqDispatcher {
            latency: latency_cycles,
            lines: Vec::new(),
        }
    }

    /// Connects a port's interrupt line: enables `IRQ_ENABLE` in the
    /// port's control register and registers `handler` for delivery.
    pub fn connect(&mut self, driver: RegulatorDriver, handler: IrqHandler) {
        driver.regfile().set_bits(Reg::Ctrl, CTRL_IRQ_ENABLE);
        self.lines.push(Line {
            driver,
            handler: Rc::new(RefCell::new(handler)),
            pending_at: None,
            armed: true,
            delivered: 0,
        });
    }

    /// Total interrupts delivered across all lines.
    pub fn delivered(&self) -> u64 {
        self.lines.iter().map(|l| l.delivered).sum()
    }
}

impl Controller for IrqDispatcher {
    fn on_cycle(&mut self, now: Cycle) {
        for line in &mut self.lines {
            let regs = line.driver.regfile();
            let level = regs.read(Reg::Ctrl) & CTRL_IRQ_ENABLE != 0
                && regs.read(Reg::Status) & STATUS_EXHAUSTED != 0;
            if !level {
                line.armed = true;
            }
            if level && line.armed && line.pending_at.is_none() {
                line.pending_at = Some(now + self.latency);
            }
            if let Some(at) = line.pending_at {
                if now >= at {
                    line.pending_at = None;
                    line.delivered += 1;
                    (line.handler.borrow_mut())(&line.driver, now);
                    // A handler that leaves the line asserted has
                    // effectively masked it: wait for it to drop before
                    // latching again.
                    let still = regs.read(Reg::Ctrl) & CTRL_IRQ_ENABLE != 0
                        && regs.read(Reg::Status) & STATUS_EXHAUSTED != 0;
                    line.armed = !still;
                }
            }
        }
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        let mut wake: Option<Cycle> = None;
        let mut merge = |c: Cycle| {
            wake = Some(wake.map_or(c, |w: Cycle| w.min(c)));
        };
        for line in &self.lines {
            if let Some(at) = line.pending_at {
                merge(at.max(now));
            } else if line.armed {
                let regs = line.driver.regfile();
                let level = regs.read(Reg::Ctrl) & CTRL_IRQ_ENABLE != 0
                    && regs.read(Reg::Status) & STATUS_EXHAUSTED != 0;
                if level {
                    // An asserted, armed line latches a delivery on the
                    // very next executed cycle: do not skip past it.
                    merge(now);
                }
            }
            // A dropped or disarmed line needs no wake of its own: the
            // level can only flip at an executed cycle (a gate decision
            // or a handler run), which wakes the SoC anyway.
        }
        wake
    }

    fn label(&self) -> &'static str {
        "irq-dispatcher"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regulator::{RegulatorConfig, TcRegulator};
    use fgqos_sim::axi::{Dir, MasterId, Request};
    use fgqos_sim::gate::PortGate;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn exhaust(reg: &mut TcRegulator, now: Cycle) {
        let r = Request::new(MasterId::new(0), 0, 0, 16, Dir::Read, now);
        let _ = reg.try_accept(&r, now); // consumes the whole budget
        let _ = reg.try_accept(&r, now); // denied -> EXHAUSTED set
    }

    fn regulator() -> (TcRegulator, RegulatorDriver) {
        TcRegulator::create(RegulatorConfig {
            period_cycles: 1_000,
            budget_bytes: 256,
            enabled: true,
            ..RegulatorConfig::default()
        })
    }

    #[test]
    fn delivers_after_latency_once_per_edge() {
        let (mut reg, driver) = regulator();
        let events = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&events);
        let mut irq = IrqDispatcher::new(50);
        irq.connect(
            driver.clone(),
            Box::new(move |d, at| {
                sink.borrow_mut().push(at);
                d.clear_exhausted();
            }),
        );

        reg.on_cycle(Cycle::ZERO);
        exhaust(&mut reg, Cycle::ZERO);
        for t in 0..200u64 {
            irq.on_cycle(Cycle::new(t));
        }
        let events = events.borrow();
        assert_eq!(events.len(), 1, "one delivery per assertion edge");
        assert_eq!(
            events[0],
            Cycle::new(50),
            "delivery after the dispatch latency"
        );
        assert_eq!(irq.delivered(), 1);
        // The handler acknowledged: the sticky bit is clear.
        assert!(!driver.telemetry().exhausted);
    }

    #[test]
    fn reasserts_after_ack_and_new_exhaustion() {
        let (mut reg, driver) = regulator();
        let count = Rc::new(RefCell::new(0u32));
        let sink = Rc::clone(&count);
        let mut irq = IrqDispatcher::new(10);
        irq.connect(
            driver.clone(),
            Box::new(move |d, _| {
                *sink.borrow_mut() += 1;
                d.clear_exhausted();
            }),
        );

        reg.on_cycle(Cycle::ZERO);
        exhaust(&mut reg, Cycle::ZERO);
        for t in 0..100u64 {
            irq.on_cycle(Cycle::new(t));
        }
        // New window, new exhaustion: a second edge.
        reg.on_cycle(Cycle::new(1_000));
        exhaust(&mut reg, Cycle::new(1_000));
        for t in 1_000..1_100u64 {
            irq.on_cycle(Cycle::new(t));
        }
        assert_eq!(*count.borrow(), 2);
    }

    #[test]
    fn unacknowledged_level_does_not_refire() {
        let (mut reg, driver) = regulator();
        let count = Rc::new(RefCell::new(0u32));
        let sink = Rc::clone(&count);
        let mut irq = IrqDispatcher::new(0);
        // Handler does NOT acknowledge.
        irq.connect(
            driver.clone(),
            Box::new(move |_, _| *sink.borrow_mut() += 1),
        );

        reg.on_cycle(Cycle::ZERO);
        exhaust(&mut reg, Cycle::ZERO);
        for t in 0..500u64 {
            irq.on_cycle(Cycle::new(t));
        }
        assert_eq!(
            *count.borrow(),
            1,
            "level stays asserted but only one edge fired"
        );
        assert!(
            driver.telemetry().exhausted,
            "bit remains sticky without ack"
        );
    }

    #[test]
    fn masked_line_never_fires() {
        let (mut reg, driver) = regulator();
        let count = Rc::new(RefCell::new(0u32));
        let sink = Rc::clone(&count);
        let mut irq = IrqDispatcher::new(0);
        irq.connect(
            driver.clone(),
            Box::new(move |_, _| *sink.borrow_mut() += 1),
        );
        // Software masks the line again after connect.
        driver.regfile().clear_bits(Reg::Ctrl, CTRL_IRQ_ENABLE);

        reg.on_cycle(Cycle::ZERO);
        exhaust(&mut reg, Cycle::ZERO);
        for t in 0..100u64 {
            irq.on_cycle(Cycle::new(t));
        }
        assert_eq!(*count.borrow(), 0);
    }
}
