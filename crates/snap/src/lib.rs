//! Snapshot/fork primitives shared by the simulator and its drivers.
//!
//! The crate is deliberately tiny and dependency-free: it provides the
//! two mechanisms every snapshottable component needs, without knowing
//! anything about the components themselves.
//!
//! - [`StateWalker`] — the one field walk every component implements
//!   (`visit_state`): the same field list hashes, records, tags typed
//!   spans for the leap algebra, and loads a recorded stream back. Two
//!   states are considered identical iff their streams are identical;
//!   section tags delimit components so a mismatch is attributable.
//! - [`ForkCtx`] / [`SharedFork`] — pointer-identity remapping of shared
//!   handles (`Arc<RegFile>`, `Arc<Mutex<GroupState>>`, …). When a Soc is
//!   forked, every `Arc` that was shared between two components (or
//!   between a component and an external driver) must map to ONE new
//!   `Arc` shared the same way; `ForkCtx` memoises the mapping by source
//!   pointer so sharing topology is preserved regardless of visit order.
//!   A fork is a `clone` plus one walk in fork mode
//!   ([`StateWalker::forker`]), which passes every handle a component
//!   declares with [`StateWalker::shared`] through the context.
//!
//! Latency histograms and per-window series are plain owned vectors: a
//! fork copies them (histograms store only their occupied range).
//!
//! [`SnapshotError`] is the common error type for fallible snapshot and
//! fork operations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod typed;
pub mod walk;
pub mod wire;

pub use typed::{FieldKind, FieldSpan, TypedSnapshot};
pub use walk::{fnv64, Counter, Stamp, StateWalker, Word};
pub use wire::{BlobStore, SnapDecodeError, SnapReader, SnapshotBlob};

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Errors from snapshot capture and fork operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The Soc was not at a quiesced boundary: transactions were still in
    /// flight, so calendar/pipeline state would have to be serialised.
    NotQuiesced {
        /// Number of transactions still live in the arena.
        live_txns: usize,
    },
    /// A component holds state that cannot be forked deterministically
    /// (e.g. interrupt closures, shared trace logs).
    Unforkable {
        /// The `label()` of the offending component.
        label: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::NotQuiesced { live_txns } => write!(
                f,
                "soc is not quiesced: {live_txns} transaction(s) still in flight"
            ),
            SnapshotError::Unforkable { label } => {
                write!(f, "component {label:?} cannot be forked")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Deep-copies a shared handle's payload for a forked run.
///
/// Implemented by the types that live behind `Arc`s shared between
/// components (register files, aggregate budget state). [`ForkCtx`]
/// calls `fork_value` at most once per source `Arc` and reuses the
/// result, so sharing topology survives the fork.
pub trait SharedFork {
    /// A deep copy carrying the current payload.
    fn fork_value(&self) -> Self;
}

impl<T: Clone> SharedFork for Mutex<T> {
    fn fork_value(&self) -> Self {
        Mutex::new(self.lock().expect("poisoned shared state").clone())
    }
}

/// Pointer-identity remapping of shared `Arc` handles during a fork.
///
/// Forking a Soc must preserve its sharing topology: a `RegFile` shared
/// between a regulator and an external driver handle must come out as
/// ONE new `RegFile` shared the same way — not two independent copies.
/// `ForkCtx` memoises `source Arc pointer → forked Arc`, so every holder
/// of the same source handle receives the same forked handle, no matter
/// in which order the holders are visited (soc-internal components
/// first, external drivers later, or interleaved).
#[derive(Default)]
pub struct ForkCtx {
    map: HashMap<usize, Arc<dyn Any + Send + Sync>>,
}

impl fmt::Debug for ForkCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForkCtx")
            .field("remapped", &self.map.len())
            .finish()
    }
}

impl ForkCtx {
    /// An empty context for one fork operation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the forked counterpart of `arc`, deep-copying the payload
    /// on first sight and reusing the memoised copy afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the same source pointer was previously forked at a
    /// different type (cannot happen through safe use, since the key is
    /// the typed `Arc`'s address).
    pub fn fork_arc<T>(&mut self, arc: &Arc<T>) -> Arc<T>
    where
        T: SharedFork + Any + Send + Sync,
    {
        let key = Arc::as_ptr(arc) as usize;
        if let Some(hit) = self.map.get(&key) {
            return hit
                .clone()
                .downcast::<T>()
                .expect("ForkCtx: shared handle remapped at a different type");
        }
        let forked = Arc::new(arc.fork_value());
        self.map
            .insert(key, forked.clone() as Arc<dyn Any + Send + Sync>);
        forked
    }

    /// Number of distinct shared handles remapped so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no handle has been remapped yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fork_ctx_preserves_sharing_topology() {
        let shared: Arc<Mutex<u64>> = Arc::new(Mutex::new(7));
        let alias = shared.clone();
        let mut ctx = ForkCtx::new();
        let f1 = ctx.fork_arc(&shared);
        let f2 = ctx.fork_arc(&alias);
        // Both holders of the same source Arc get the SAME forked Arc.
        assert!(Arc::ptr_eq(&f1, &f2));
        assert_eq!(ctx.len(), 1);
        // The fork is a deep copy: mutating it does not touch the source.
        *f1.lock().unwrap() = 99;
        assert_eq!(*shared.lock().unwrap(), 7);
        assert_eq!(*f2.lock().unwrap(), 99);
    }

    #[test]
    fn fork_ctx_distinct_sources_stay_distinct() {
        let a: Arc<Mutex<u64>> = Arc::new(Mutex::new(1));
        let b: Arc<Mutex<u64>> = Arc::new(Mutex::new(2));
        let mut ctx = ForkCtx::new();
        let fa = ctx.fork_arc(&a);
        let fb = ctx.fork_arc(&b);
        assert!(!Arc::ptr_eq(&fa, &fb));
        assert_eq!(ctx.len(), 2);
    }

    #[test]
    fn snapshot_error_display() {
        let e = SnapshotError::NotQuiesced { live_txns: 3 };
        assert!(e.to_string().contains("3 transaction"));
        let e = SnapshotError::Unforkable {
            label: "irq".into(),
        };
        assert!(e.to_string().contains("irq"));
    }
}
