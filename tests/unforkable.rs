//! A component whose state walk is `unsupported` can neither load nor
//! fork: `Soc::snapshot` refuses it up front with `Unforkable` naming the
//! component, and a blob load into a skeleton holding it fails with
//! `Unsupported`. Tracing gates (clones share one trace log) and
//! interrupt dispatchers (handler closures) are the stock examples.

use fgqos::core::irq::IrqDispatcher;
use fgqos::core::regulator::{RegulatorConfig, TcRegulator};
use fgqos::prelude::*;
use fgqos::sim::system::Soc;
use fgqos::sim::{
    fnv64, SnapDecodeError, SnapshotBlob, SnapshotError, StateWalker, SNAPSHOT_VERSION,
};

fn stream() -> SequentialSource {
    SequentialSource::reads(0, 256, 200).with_gap(300)
}

fn traced() -> Soc {
    SocBuilder::new(SocConfig::default())
        .gated_master(
            "dma",
            stream(),
            MasterKind::Accelerator,
            TracingGate::new(OpenGate, Trace::new()),
        )
        .build()
}

fn with_irq() -> Soc {
    let (reg, driver) = TcRegulator::create(RegulatorConfig {
        period_cycles: 1_000,
        budget_bytes: 512,
        enabled: true,
        ..RegulatorConfig::default()
    });
    let mut irq = IrqDispatcher::new(50);
    irq.connect(driver, Box::new(|d, _| d.clear_exhausted()));
    SocBuilder::new(SocConfig::default())
        .gated_master("dma", stream(), MasterKind::Accelerator, reg)
        .controller(irq)
        .build()
}

/// Runs `soc` to a quiesced boundary and checks that capture refuses it
/// and that its own recorded stream, as a blob, refuses to load into a
/// fresh skeleton — both naming `component`.
fn refuses(make: fn() -> Soc, component: &str) {
    let mut soc = make();
    soc.run(5_000);
    soc.quiesce_point(1_000_000).expect("gapped traffic drains");
    let mut w = StateWalker::recording();
    soc.visit_state(&mut w);
    let state = w.take_bytes();
    let blob = SnapshotBlob {
        snapshot_version: SNAPSHOT_VERSION,
        fingerprint: fnv64(&state),
        cycle: soc.now().get(),
        scenario: String::new(),
        state,
    };
    assert_eq!(
        soc.snapshot().map(|_| ()),
        Err(SnapshotError::Unforkable {
            label: component.to_string()
        })
    );
    match fgqos::sim::SocSnapshot::load_into(make(), &blob) {
        Err(SnapDecodeError::Unsupported { component: c }) => assert_eq!(c, component),
        other => panic!("expected Unsupported({component}), got {other:?}"),
    }
}

#[test]
fn tracing_gate_refuses_snapshot_and_load() {
    refuses(traced, "tracing-gate");
}

#[test]
fn irq_dispatcher_refuses_snapshot_and_load() {
    refuses(with_irq, "irq-dispatcher");
}
