//! # fgqos-sim — cycle-level FPGA HeSoC memory-subsystem simulator
//!
//! This crate is the *substrate* for the `fgqos` reproduction of
//! "Fine-Grained QoS Control via Tightly-Coupled Bandwidth Monitoring and
//! Regulation for FPGA-based Heterogeneous SoCs" (DAC 2023). It models the
//! shared memory path of a Zynq UltraScale+-class heterogeneous SoC:
//!
//! * an AXI-like transaction fabric ([`axi`]) with bursts, independent
//!   read/write traffic and per-master outstanding-transaction limits,
//! * a multi-port crossbar [`interconnect`] with round-robin or
//!   fixed-priority arbitration,
//! * a banked [`dram`] controller with open-row state, FR-FCFS scheduling
//!   and a shared data bus,
//! * [`master`] models that replay traffic from pluggable
//!   [`TrafficSource`]s (CPU-like latency-sensitive actors, DMA-like
//!   bandwidth-hungry accelerators),
//! * per-port [`PortGate`] hooks where QoS regulators attach — this is the
//!   exact seam where the paper's tightly-coupled regulator IP sits on the
//!   real FPGA,
//! * bandwidth / latency [`stats`] collection.
//!
//! The simulation is a deterministic, single-clock-domain, cycle-stepped
//! model. It is not a DRAM-vendor-accurate timing model; it reproduces the
//! three mechanisms that create memory interference on the real chip
//! (arbitration, bank/row locality, data-bus occupancy), which is what the
//! paper's experiments exercise.
//!
//! ## Quickstart
//!
//! ```
//! use fgqos_sim::prelude::*;
//!
//! // A two-master SoC: one latency-sensitive reader, one greedy writer.
//! let mut soc = SocBuilder::new(SocConfig::default())
//!     .master(
//!         "critical",
//!         SequentialSource::reads(0x0000_0000, 256, 4096).with_gap(200),
//!         MasterKind::Cpu,
//!     )
//!     .master(
//!         "interferer",
//!         SequentialSource::writes(0x4000_0000, 256, u64::MAX),
//!         MasterKind::Accelerator,
//!     )
//!     .build();
//! soc.run(100_000);
//! let stats = soc.master_stats(MasterId::new(0));
//! assert!(stats.completed_txns > 0);
//! ```
//!
//! ## Observability
//!
//! Every run can be inspected without instrumenting the hot path:
//! [`metrics`] pulls a named snapshot of all component counters,
//! [`stats`] records per-window time series, and [`trace`] captures
//! per-event logs exportable to Chrome/Perfetto. See
//! `docs/observability.md` for the naming scheme and walkthroughs.

#![warn(missing_docs)]

/// Declares `$helper`, the object-safe clone behind `Box<dyn $tr>`:
/// blanket-implemented for every `$tr + Clone` type, so a component
/// derives `Clone` and writes nothing else to be copyable as a trait
/// object (a fork is a `clone` plus one state walk, see [`snapshot`]).
macro_rules! boxed_clone {
    ($helper:ident, $tr:ident) => {
        /// Object-safe cloning of a boxed component trait object,
        /// implemented for every implementor that is `Clone`: derive
        /// `Clone` and never implement this directly.
        pub trait $helper {
            /// A boxed copy of `self`.
            fn clone_box(&self) -> Box<dyn $tr>;
        }

        impl<T: $tr + Clone + 'static> $helper for T {
            fn clone_box(&self) -> Box<dyn $tr> {
                Box::new(self.clone())
            }
        }

        impl Clone for Box<dyn $tr> {
            fn clone(&self) -> Self {
                (**self).clone_box()
            }
        }
    };
}

pub mod arena;
pub mod axi;
pub mod calendar;
pub mod cpu;
pub mod dram;
pub mod gate;
pub mod interconnect;
pub mod json;
pub mod leap;
pub mod master;
pub mod metrics;
pub mod snapshot;
pub mod stats;
pub mod system;
pub mod time;
pub mod trace;

pub use arena::{TxnArena, TxnId};
pub use axi::{Dir, MasterId, Request, Response, BEAT_BYTES, MAX_BURST_BEATS};
pub use calendar::EventCalendar;
pub use cpu::{Cache, CacheConfig, CacheOutcome, CacheStats, CachedSource};
pub use dram::{DramConfig, DramController, DramStats, RefreshStorm};
pub use gate::{GateDecision, OpenGate, PortGate};
pub use interconnect::{Arbitration, XbarConfig};
pub use leap::LeapTelemetry;
pub use master::{
    Master, MasterKind, MasterStats, PendingRequest, SequentialSource, TrafficSource,
};
pub use metrics::{HistogramSnapshot, MetricValue, MetricsRegistry};
pub use snapshot::{SocSnapshot, SNAPSHOT_VERSION};
pub use stats::{BandwidthMeter, LatencyStats, WindowLatency, WindowRecorder};
pub use system::{Controller, Soc, SocBuilder, SocConfig, WindowBoundary};
pub use time::{Bandwidth, Cycle, Freq};
pub use trace::{ChromeTraceBuilder, Trace, TraceEvent, TracingGate};

// Snapshot building blocks, re-exported so downstream crates implement the
// state walk and rebind driver handles without depending on `fgqos-snap`
// directly.
pub use fgqos_snap::{
    fnv64, BlobStore, ForkCtx, SharedFork, SnapDecodeError, SnapshotBlob, SnapshotError,
    StateWalker, TypedSnapshot,
};

/// Commonly used items, intended for glob import in examples and tests.
pub mod prelude {
    pub use crate::axi::{Dir, MasterId, Request, Response, BEAT_BYTES};
    pub use crate::cpu::{Cache, CacheConfig, CachedSource};
    pub use crate::dram::{DramConfig, RefreshStorm};
    pub use crate::gate::{GateDecision, OpenGate, PortGate};
    pub use crate::interconnect::{Arbitration, XbarConfig};
    pub use crate::leap::LeapTelemetry;
    pub use crate::master::{
        MasterKind, MasterStats, PendingRequest, SequentialSource, TrafficSource,
    };
    pub use crate::metrics::{MetricValue, MetricsRegistry};
    pub use crate::snapshot::{SocSnapshot, SNAPSHOT_VERSION};
    pub use crate::stats::{BandwidthMeter, LatencyStats};
    pub use crate::system::{Controller, Soc, SocBuilder, SocConfig};
    pub use crate::time::{Bandwidth, Cycle, Freq};
    pub use crate::trace::{Trace, TracingGate};
}
