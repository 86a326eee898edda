//! Quiesced-boundary snapshot and deterministic fork of a [`Soc`].
//!
//! A [`SocSnapshot`] captures a Soc at a **quiesced boundary** — no
//! transaction in flight anywhere on the memory path — which is exactly
//! the state from which no calendar, crossbar-FIFO, DRAM-queue or
//! in-service state needs to be serialised: the event calendar is
//! rebuilt from component `next_activity` contracts at every run entry,
//! and an empty transaction arena implies every queue between master and
//! DRAM is drained. What remains is per-component architectural state
//! (sources, gates, bank rows, statistics), which every component clones
//! (`#[derive(Clone)]`) and walks (`visit_state`).
//!
//! **One walk.** Every stateful component lists its fields once, in
//! `visit_state`, against a [`fgqos_snap::StateWalker`]: the same list
//! hashes the state, records it as the blob wire format, tags the typed
//! spans the leap engine rebases, loads a recorded stream back, and
//! rebinds shared handles in a fork. A component that calls
//! [`StateWalker::unsupported`] cannot load, and so cannot fork either.
//!
//! **Fingerprint.** [`Soc::fingerprint`] folds the full architectural
//! state through the walker's byte-stable FNV-1a stream, prefixed by
//! [`SNAPSHOT_VERSION`]. Two Socs with equal fingerprints
//! behave identically for the rest of the run (same future requests,
//! same decisions, same reports); the fork-vs-cold proptest in
//! `tests/snapshot.rs` is the evidence.
//!
//! **Forking.** [`SocSnapshot::fork`] produces an independent Soc that
//! continues from the boundary: a `clone` of the captured machine plus
//! one walk in fork mode ([`StateWalker::forker`]). The walk remaps every
//! shared handle (regulator register files, aggregate budget state)
//! declared with [`StateWalker::shared`] through a
//! [`fgqos_snap::ForkCtx`], so sharing topology is preserved; external
//! driver handles can join the same context via
//! [`SocSnapshot::fork_with`] plus the driver-side rebinding helpers
//! (e.g. `RegulatorDriver::forked` in `fgqos-core`). Large stat arrays
//! are copy-on-write, so N forks share one warm-up history until they
//! write.
//!
//! **Versioning.** [`SNAPSHOT_VERSION`] is bumped whenever the hash
//! stream's encoding or component order changes, so fingerprints from
//! different stream layouts can never collide silently.

use crate::system::Soc;
use crate::time::Cycle;
use fgqos_snap::{ForkCtx, SnapDecodeError, SnapshotBlob, SnapshotError, StateWalker};

/// Version of the snapshot fingerprint stream. Bumped whenever the
/// encoding or the component traversal order changes; folded into every
/// fingerprint, so fingerprints from different versions never compare
/// equal.
pub const SNAPSHOT_VERSION: u32 = 2;

impl Soc {
    /// FNV-1a 64 fingerprint over the full architectural state: current
    /// cycle, every master (issue state machine, source, gate,
    /// statistics), crossbar, DRAM controller, controllers and the
    /// transaction arena, prefixed by [`SNAPSHOT_VERSION`].
    ///
    /// Callable at any cycle (not only quiesced boundaries); two Socs
    /// with equal fingerprints and equal in-flight state behave
    /// identically from here on. Takes `&mut self` because the one state
    /// walk also loads; hashing changes nothing.
    pub fn fingerprint(&mut self) -> u64 {
        let mut w = StateWalker::hasher();
        self.visit_state(&mut w);
        w.finish()
    }

    /// Walks the full architectural state (see [`Soc::fingerprint`] and
    /// [`Soc::load_state`]). Structural facts — clock, master and
    /// controller counts — are fixed fields: a load verifies them.
    pub fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("fgqos.soc-snapshot");
        let mut version = SNAPSHOT_VERSION;
        w.plain(&mut version);
        if version != SNAPSHOT_VERSION {
            return w.fail(SnapDecodeError::Version {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        w.fixed(self.freq.hz(), "soc clock hz");
        w.cycle(&mut self.cycle);
        w.plain(&mut self.naive);
        w.fixed(self.masters.len(), "soc master count");
        for m in &mut self.masters {
            m.visit_state(w);
        }
        self.xbar.visit_state(w);
        self.dram.visit_state(w);
        w.fixed(self.controllers.len(), "soc controller count");
        for c in &mut self.controllers {
            c.visit_state(w);
        }
        self.arena.visit_state(w);
    }

    /// Forks this Soc (see [`SocSnapshot::fork_with`]): a clone of every
    /// component, then one fork walk that remaps shared handles through
    /// `ctx`. The leap engine is an execution strategy, not architectural
    /// state: the fork starts detection fresh with zeroed telemetry.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unforkable`] naming the first component whose
    /// walk is [`unsupported`](StateWalker::unsupported).
    pub(crate) fn fork_with(&self, ctx: &mut ForkCtx) -> Result<Soc, SnapshotError> {
        let mut soc = self.clone();
        let mut w = StateWalker::forker(ctx);
        soc.visit_state(&mut w);
        w.forkable()?;
        Ok(soc)
    }

    /// Captures this Soc into a versioned snapshot, consuming it.
    ///
    /// The Soc must be at a quiesced boundary (see [`Soc::is_quiesced`]
    /// and [`Soc::quiesce_point`]). The recording walk that captures the
    /// state also proves every component forkable (none called
    /// [`StateWalker::unsupported`]), so the per-point
    /// [`SocSnapshot::fork`] calls cannot fail later.
    ///
    /// Consuming the Soc keeps its shared handles alive unchanged, which
    /// is what lets external drivers rebind to forks: the `ForkCtx` maps
    /// *original* handle pointers, and the originals live inside the
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NotQuiesced`] when transactions are in flight;
    /// [`SnapshotError::Unforkable`] when a component cannot be forked.
    pub fn snapshot(mut self) -> Result<SocSnapshot, SnapshotError> {
        if !self.is_quiesced() {
            return Err(SnapshotError::NotQuiesced {
                live_txns: self.arena.live(),
            });
        }
        let mut w = StateWalker::recording();
        self.visit_state(&mut w);
        w.forkable()?;
        Ok(SocSnapshot {
            soc: self,
            fingerprint: w.finish(),
            state: w.take_bytes(),
        })
    }

    /// Loads a serialized state stream (see [`SocSnapshot::state_bytes`])
    /// into this Soc, which must be a freshly built skeleton of the same
    /// scenario: fixed, configuration-derived fields (clock, master
    /// identities, crossbar configuration, controller count) are
    /// *verified* against the stream, while mutable architectural state
    /// is overwritten. Callers should re-fingerprint afterwards and
    /// compare against the capture-time fingerprint — that is what makes
    /// a wrong or partial load impossible to miss
    /// (see [`SocSnapshot::load_into`]).
    ///
    /// # Errors
    ///
    /// Any [`SnapDecodeError`]: version mismatch, truncation, a stream
    /// that disagrees with this skeleton, a component that does not
    /// support loading, or trailing bytes. The Soc is left in an
    /// unspecified partially-loaded state on error and must be discarded.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), SnapDecodeError> {
        let mut w = StateWalker::loader(bytes);
        self.visit_state(&mut w);
        w.finish_load()
    }
}

/// A [`Soc`] captured at a quiesced boundary, ready to fork N divergent
/// runs.
///
/// ```
/// use fgqos_sim::prelude::*;
///
/// let mut soc = SocBuilder::new(SocConfig::default())
///     .master("dma", SequentialSource::reads(0, 1024, 64), MasterKind::Accelerator)
///     .build();
/// soc.run(5_000);
/// let at = soc.quiesce_point(1_000_000).expect("drains");
/// let snap = soc.snapshot().expect("quiesced and forkable");
/// assert_eq!(snap.cycle(), at);
///
/// // Two forks diverge independently but start bit-identical.
/// let mut a = snap.fork();
/// let mut b = snap.fork();
/// assert_eq!(a.fingerprint(), snap.fingerprint());
/// a.run(10_000);
/// b.run(20_000);
/// ```
pub struct SocSnapshot {
    soc: Soc,
    fingerprint: u64,
    /// The state stream, recorded once at capture.
    state: Vec<u8>,
}

impl std::fmt::Debug for SocSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocSnapshot")
            .field("version", &SNAPSHOT_VERSION)
            .field("cycle", &self.soc.now())
            .field("fingerprint", &format_args!("{:#018x}", self.fingerprint))
            .finish()
    }
}

impl SocSnapshot {
    /// The fingerprint stream version this snapshot was captured under.
    pub fn version(&self) -> u32 {
        SNAPSHOT_VERSION
    }

    /// Fingerprint of the captured state (see [`Soc::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The boundary cycle the snapshot was captured at.
    pub fn cycle(&self) -> Cycle {
        self.soc.now()
    }

    /// Forks an independent Soc continuing from the captured boundary.
    ///
    /// Use when no external driver handles need rebinding; otherwise see
    /// [`SocSnapshot::fork_with`].
    pub fn fork(&self) -> Soc {
        let mut ctx = ForkCtx::new();
        self.fork_with(&mut ctx)
    }

    /// Forks an independent Soc, remapping shared handles through `ctx`
    /// so external driver handles can be rebound to the same fork (pass
    /// the same `ctx` to the drivers' `forked` helpers).
    pub fn fork_with(&self, ctx: &mut ForkCtx) -> Soc {
        self.soc
            .fork_with(ctx)
            .expect("forkability was validated at capture")
    }

    /// Recomputes the fingerprint of a fresh fork and compares it with
    /// the one recorded at capture (a self-check for tests and debug
    /// assertions; snapshots are immutable, so this can only fail on a
    /// walking or forking bug).
    pub fn verify(&self) -> bool {
        self.fork().fingerprint() == self.fingerprint
    }

    /// The captured state's canonical byte stream: the exact bytes the
    /// fingerprint hashes, recorded once at capture. By construction,
    /// `fnv64(state_bytes()) == fingerprint()`.
    pub fn state_bytes(&self) -> Vec<u8> {
        self.state.clone()
    }

    /// Packages the snapshot as a durable [`SnapshotBlob`], embedding
    /// `scenario` — the recipe text that rebuilds the structural
    /// skeleton the state loads into (see [`SocSnapshot::load_into`]).
    pub fn to_blob(&self, scenario: impl Into<String>) -> SnapshotBlob {
        SnapshotBlob {
            snapshot_version: SNAPSHOT_VERSION,
            fingerprint: self.fingerprint,
            cycle: self.soc.now().get(),
            scenario: scenario.into(),
            state: self.state_bytes(),
        }
    }

    /// Restores a serialized snapshot: loads `blob`'s state stream into
    /// `soc` (a freshly built skeleton of the blob's embedded scenario)
    /// and re-verifies the fingerprint end to end, so the returned
    /// snapshot forks runs bit-identical to forks of the original.
    ///
    /// # Errors
    ///
    /// Any [`SnapDecodeError`]; in particular
    /// [`SnapDecodeError::Version`] for an incompatible stream version
    /// and [`SnapDecodeError::FingerprintMismatch`] when the loaded
    /// state does not hash back to the fingerprint recorded at capture.
    pub fn load_into(mut soc: Soc, blob: &SnapshotBlob) -> Result<SocSnapshot, SnapDecodeError> {
        if blob.snapshot_version != SNAPSHOT_VERSION {
            return Err(SnapDecodeError::Version {
                found: blob.snapshot_version,
                expected: SNAPSHOT_VERSION,
            });
        }
        soc.load_state(&blob.state)?;
        if soc.now().get() != blob.cycle {
            return Err(SnapDecodeError::BadValue {
                what: format!(
                    "blob header cycle {} disagrees with state-stream cycle {}",
                    blob.cycle,
                    soc.now().get()
                ),
                at: 0,
            });
        }
        // The load refused unsupported components and in-flight state
        // already, so capture cannot fail; map defensively all the same.
        let snap = soc.snapshot().map_err(|e| SnapDecodeError::BadValue {
            what: e.to_string(),
            at: 0,
        })?;
        if snap.fingerprint != blob.fingerprint {
            return Err(SnapDecodeError::FingerprintMismatch {
                expected: blob.fingerprint,
                found: snap.fingerprint,
            });
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axi::MasterId;
    use crate::dram::DramConfig;
    use crate::master::{MasterKind, SequentialSource};
    use crate::system::{SocBuilder, SocConfig};

    fn cfg() -> SocConfig {
        SocConfig {
            dram: DramConfig {
                t_refi: 0,
                ..DramConfig::default()
            },
            ..SocConfig::default()
        }
    }

    fn two_master_soc() -> Soc {
        SocBuilder::new(cfg())
            .master(
                "dma",
                SequentialSource::reads(0, 1024, 400).with_gap(500),
                MasterKind::Accelerator,
            )
            .master(
                "cpu",
                SequentialSource::reads(1 << 24, 256, 400).with_think_time(300),
                MasterKind::Cpu,
            )
            .build()
    }

    #[test]
    fn quiesce_point_reaches_empty_pipeline() {
        let mut soc = two_master_soc();
        soc.run(10_000);
        let at = soc
            .quiesce_point(10_000_000)
            .expect("gapped traffic drains");
        assert!(soc.is_quiesced());
        assert_eq!(soc.now(), at);
    }

    #[test]
    fn snapshot_rejects_in_flight_state() {
        let mut soc = SocBuilder::new(cfg())
            .master(
                "dma",
                SequentialSource::reads(0, 4096, u64::MAX),
                MasterKind::Accelerator,
            )
            .build();
        soc.run(5_000);
        assert!(!soc.is_quiesced(), "saturated soc must have live txns");
        match soc.snapshot() {
            Err(SnapshotError::NotQuiesced { live_txns }) => assert!(live_txns > 0),
            other => panic!("expected NotQuiesced, got {other:?}"),
        }
    }

    #[test]
    fn fork_continues_bit_identical_to_original() {
        let mut soc = two_master_soc();
        soc.run(20_000);
        soc.quiesce_point(10_000_000).expect("drains");
        let baseline = soc.fingerprint();
        let snap = soc.snapshot().expect("quiesced");
        assert_eq!(snap.fingerprint(), baseline);
        assert!(snap.verify());

        let mut a = snap.fork();
        let mut b = snap.fork();
        assert_eq!(a.fingerprint(), baseline);
        a.run(50_000);
        b.run(50_000);
        assert_eq!(a.fingerprint(), b.fingerprint(), "forks must not diverge");
        assert_ne!(a.fingerprint(), baseline, "runs must make progress");
        assert_eq!(
            a.master_stats(MasterId::new(0)).completed_txns,
            b.master_stats(MasterId::new(0)).completed_txns
        );
    }

    #[test]
    fn forks_are_independent() {
        let mut soc = two_master_soc();
        soc.run(20_000);
        soc.quiesce_point(10_000_000).expect("drains");
        let snap = soc.snapshot().expect("quiesced");
        let mut a = snap.fork();
        let mut b = snap.fork();
        let b_before = b.fingerprint();
        a.run(100_000);
        assert_eq!(
            b.fingerprint(),
            b_before,
            "running a fork must not touch another"
        );
    }

    #[test]
    fn serialized_state_restores_bit_identical() {
        let mut soc = two_master_soc();
        soc.run(20_000);
        soc.quiesce_point(10_000_000).expect("drains");
        let snap = soc.snapshot().expect("quiesced");
        let blob = snap.to_blob("two_master_soc");
        assert_eq!(fgqos_snap::fnv64(&blob.state), snap.fingerprint());

        let enc = blob.encode();
        let dec = SnapshotBlob::decode(&enc).expect("container round-trips");
        let restored = SocSnapshot::load_into(two_master_soc(), &dec).expect("state loads");
        assert_eq!(restored.fingerprint(), snap.fingerprint());
        assert_eq!(restored.cycle(), snap.cycle());

        let mut a = snap.fork();
        let mut b = restored.fork();
        a.run(50_000);
        b.run(50_000);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "restored fork diverged from in-memory fork"
        );
    }

    #[test]
    fn load_rejects_wrong_version_flips_and_wrong_skeleton() {
        let mut soc = two_master_soc();
        soc.run(20_000);
        soc.quiesce_point(10_000_000).expect("drains");
        let snap = soc.snapshot().expect("quiesced");
        let blob = snap.to_blob("two_master_soc");

        // Wrong snapshot version fails before any state is interpreted.
        let mut wrong = blob.clone();
        wrong.snapshot_version = SNAPSHOT_VERSION + 1;
        assert!(matches!(
            SocSnapshot::load_into(two_master_soc(), &wrong),
            Err(SnapDecodeError::Version { .. })
        ));

        // A flipped state byte that slips past the container checksum is
        // still caught — by a decode error or the final fingerprint check,
        // never a panic or silent acceptance.
        for pos in [10, blob.state.len() / 2, blob.state.len() - 9] {
            let mut bad = blob.clone();
            bad.state[pos] ^= 0x01;
            assert!(
                SocSnapshot::load_into(two_master_soc(), &bad).is_err(),
                "flipped state byte {pos} loaded cleanly"
            );
        }

        // Loading into a structurally different skeleton is diagnostic.
        let other = SocBuilder::new(cfg())
            .master(
                "other",
                SequentialSource::reads(0, 1024, 10),
                MasterKind::Accelerator,
            )
            .build();
        assert!(matches!(
            SocSnapshot::load_into(other, &blob),
            Err(SnapDecodeError::BadValue { .. })
        ));
    }

    #[test]
    fn quiesce_point_times_out_under_saturation() {
        let mut soc = SocBuilder::new(cfg())
            .master(
                "dma",
                SequentialSource::reads(0, 4096, u64::MAX),
                MasterKind::Accelerator,
            )
            .build();
        soc.run(5_000);
        // An unregulated streaming master keeps the pipeline full.
        assert_eq!(soc.quiesce_point(50_000), None);
    }
}
