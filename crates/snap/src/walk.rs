//! One field walk per component: hashing, recording, typed-span tagging,
//! loading and forking all run the same `visit_state` field list.
//!
//! A [`StateWalker`] is created in one of three modes:
//!
//! - **write** — [`hasher`](StateWalker::hasher) folds every field into a
//!   byte-stable FNV-1a 64 digest; [`recording`](StateWalker::recording)
//!   also keeps the bytes (the snapshot wire format);
//!   [`typed_recording`](StateWalker::typed_recording) keeps the bytes
//!   and maps which spans are cycle stamps and counters (the leap algebra
//!   of [`crate::typed`]).
//! - **load** — [`loader`](StateWalker::loader) reads the same fields back
//!   from a recorded stream into the component.
//! - **fork** — [`forker`](StateWalker::forker) runs over a fresh `clone`
//!   of a machine and rebinds every shared handle through a [`ForkCtx`],
//!   so the clone's sharing topology mirrors the original's.
//!
//! Every field goes through one method that does the right thing in each
//! mode. The field kinds:
//!
//! | method | write | load | fork |
//! |---|---|---|---|
//! | [`plain`](StateWalker::plain) | value bytes | overwrite | — |
//! | [`cycle`](StateWalker::cycle) | bytes, typed `Cycle` | overwrite | — |
//! | [`counter`](StateWalker::counter), [`counter_sat`](StateWalker::counter_sat) | bytes, typed counter | overwrite | — |
//! | [`fixed`](StateWalker::fixed), [`fixed_str`](StateWalker::fixed_str) | value bytes | compare with the skeleton | — |
//! | [`shared`](StateWalker::shared) | — | — | [`ForkCtx::fork_arc`] |
//!
//! *Fixed* fields are configuration facts the rebuilt skeleton already
//! holds (clock, names, counts, structural parameters): a stream that
//! disagrees is a [`SnapDecodeError::BadValue`], never an overwrite.
//! *Shared* fields are `Arc` handles (register files, group budgets):
//! the owner walks the payload, the handle itself adds no bytes.
//! [`unsupported`](StateWalker::unsupported) refuses both a load and a
//! fork: a component that cannot load cannot fork.
//!
//! The same walk declares a component's dependence on absolute time,
//! for the leap engine: [`horizon`](StateWalker::horizon),
//! [`modulus`](StateWalker::modulus), [`no_leap`](StateWalker::no_leap)
//! (which `unsupported` implies) and the cap of a
//! [`counter_capped`](StateWalker::counter_capped) add no bytes; a typed
//! recording, taken at a [`boundary`](StateWalker::boundary) cycle,
//! folds them into its [`TypedSnapshot`], and every other mode ignores
//! them.
//!
//! Encodings are fixed little-endian (`usize` widens to `u64`, `bool` is
//! one byte, `f64` is its bit pattern, strings are length-prefixed), so
//! the stream is a pure function of the value sequence.
//!
//! Loading never panics on hostile input: the first error sticks, every
//! later read leaves its field untouched and [`len`](StateWalker::len)
//! returns 0, and [`finish_load`](StateWalker::finish_load) reports it.

use crate::typed::{FieldKind, FieldSpan, TypedSnapshot};
use crate::wire::{SnapDecodeError, SnapReader};
use crate::{ForkCtx, SharedFork, SnapshotError};
use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with FNV-1a 64 starting from the offset basis.
///
/// The same function the serve-side result cache uses; exposed here so
/// snapshot fingerprints and cache keys share one definition.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fold(FNV_OFFSET, bytes)
}

#[inline]
fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Initial capacity of a recording: shipped scenarios stream 3–8 KiB,
/// so most walks never regrow the buffer.
const RECORD_HINT: usize = 8 << 10;
/// Initial capacity of a typed recording's span map.
const SPAN_HINT: usize = 512;

enum Mode<'a> {
    /// Folds every byte into the digest; `record` keeps the bytes too.
    Hash {
        hash: u64,
        bytes: u64,
        record: Option<Vec<u8>>,
    },
    /// Keeps the bytes, their typed span map and the leap declarations
    /// of a record taken at cycle `at`, without a digest.
    Typed { rec: TypedSnapshot, at: u64 },
    Load {
        r: SnapReader<'a>,
        err: Option<SnapDecodeError>,
    },
    /// Rebinds shared handles of a freshly cloned machine; every other
    /// field is left alone.
    Fork { ctx: &'a mut ForkCtx },
}

/// The one state walker every component's `visit_state` takes (see the
/// [module docs](self)).
pub struct StateWalker<'a> {
    mode: Mode<'a>,
    /// The first component that called [`unsupported`](Self::unsupported)
    /// outside load mode.
    refused: Option<String>,
    /// Inside a [`dormant`](Self::dormant) walk.
    dormant: bool,
}

impl fmt::Debug for StateWalker<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match &self.mode {
            Mode::Hash { record: None, .. } => "hash",
            Mode::Hash { .. } => "record",
            Mode::Typed { .. } => "typed-record",
            Mode::Load { .. } => "load",
            Mode::Fork { .. } => "fork",
        };
        f.debug_struct("StateWalker")
            .field("mode", &mode)
            .field("bytes", &self.bytes_written())
            .finish()
    }
}

impl StateWalker<'static> {
    /// A write walker folding every field into an FNV-1a 64 digest.
    pub fn hasher() -> Self {
        StateWalker::new(Mode::Hash {
            hash: FNV_OFFSET,
            bytes: 0,
            record: None,
        })
    }

    /// A hasher that also captures every byte: the recorded stream is
    /// the snapshot wire format, and [`fnv64`] of it is the digest.
    pub fn recording() -> Self {
        StateWalker::new(Mode::Hash {
            hash: FNV_OFFSET,
            bytes: 0,
            record: Some(Vec::with_capacity(RECORD_HINT)),
        })
    }

    /// A recording walker, taken at boundary cycle `at`, that also maps
    /// which spans are cycle stamps and counters and folds the leap
    /// declarations, for the leap algebra of [`TypedSnapshot`]. It keeps
    /// no running digest; [`finish`](StateWalker::finish) hashes the
    /// recorded bytes on demand.
    pub fn typed_recording(at: u64) -> Self {
        StateWalker::new(Mode::Typed {
            rec: TypedSnapshot {
                bytes: Vec::with_capacity(RECORD_HINT),
                fields: Vec::with_capacity(SPAN_HINT),
                ..TypedSnapshot::default()
            },
            at,
        })
    }
}

impl<'a> StateWalker<'a> {
    fn new(mode: Mode<'a>) -> Self {
        StateWalker {
            mode,
            refused: None,
            dormant: false,
        }
    }

    /// A load walker reading a recorded stream back field by field.
    pub fn loader(bytes: &'a [u8]) -> Self {
        StateWalker::new(Mode::Load {
            r: SnapReader::new(bytes),
            err: None,
        })
    }

    /// A fork walker: run over a fresh `clone` of a machine, it replaces
    /// every [`shared`](Self::shared) handle with its `ctx` counterpart
    /// and touches nothing else. [`forkable`](Self::forkable) reports a
    /// component that refused.
    pub fn forker(ctx: &'a mut ForkCtx) -> Self {
        StateWalker::new(Mode::Fork { ctx })
    }

    /// True in load mode. Components branch on this only where the two
    /// directions genuinely differ (rebuilding variable-length state,
    /// validating loaded values).
    #[inline]
    pub fn loading(&self) -> bool {
        matches!(self.mode, Mode::Load { .. })
    }

    /// The digest of the bytes written so far (for a loader, of the
    /// bytes consumed so far).
    pub fn finish(&self) -> u64 {
        match &self.mode {
            Mode::Hash { hash, .. } => *hash,
            Mode::Typed { rec, .. } => fnv64(&rec.bytes),
            Mode::Load { r, .. } => fnv64(r.consumed()),
            Mode::Fork { .. } => fnv64(&[]),
        }
    }

    /// Bytes written (or consumed) so far.
    pub fn bytes_written(&self) -> u64 {
        match &self.mode {
            Mode::Hash { bytes, .. } => *bytes,
            Mode::Typed { rec, .. } => rec.bytes.len() as u64,
            Mode::Load { r, .. } => r.position() as u64,
            Mode::Fork { .. } => 0,
        }
    }

    /// The recorded stream (empty for a plain hasher or loader).
    pub fn take_bytes(self) -> Vec<u8> {
        match self.mode {
            Mode::Hash {
                record: Some(buf), ..
            } => buf,
            Mode::Typed { rec, .. } => rec.bytes,
            _ => Vec::new(),
        }
    }

    /// The typed record (empty unless built with
    /// [`typed_recording`](StateWalker::typed_recording)).
    pub fn take_typed(self) -> TypedSnapshot {
        match self.mode {
            Mode::Typed { rec, .. } => rec,
            _ => TypedSnapshot::default(),
        }
    }

    /// Ends a load: the first error the walk hit, or
    /// [`SnapDecodeError::TrailingBytes`] when the stream was not fully
    /// consumed. Always `Ok` in write mode.
    ///
    /// # Errors
    ///
    /// Any [`SnapDecodeError`] recorded during the walk.
    pub fn finish_load(self) -> Result<(), SnapDecodeError> {
        match self.mode {
            Mode::Load { err: Some(e), .. } => Err(e),
            Mode::Load { r, .. } => r.expect_end(),
            _ => Ok(()),
        }
    }

    /// Whether the state walked so far can be forked: a write or fork
    /// walk notes the first component that called
    /// [`unsupported`](Self::unsupported) — it cannot be restored, so it
    /// cannot be forked either.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unforkable`] naming that component.
    pub fn forkable(&self) -> Result<(), SnapshotError> {
        match &self.refused {
            Some(label) => Err(SnapshotError::Unforkable {
                label: label.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Records `e` as the load's error unless an earlier one stuck (a
    /// no-op in write mode).
    pub fn fail(&mut self, e: SnapDecodeError) {
        if let Mode::Load {
            err: err @ None, ..
        } = &mut self.mode
        {
            *err = Some(e);
        }
    }

    /// Fails the load with a [`SnapDecodeError::BadValue`] at the
    /// current offset (a no-op in write mode).
    pub fn bad(&mut self, what: impl Into<String>) {
        if let Mode::Load { r, .. } = &self.mode {
            let at = r.position();
            self.fail(SnapDecodeError::BadValue {
                what: what.into(),
                at,
            });
        }
    }

    /// Declares that `component` cannot be restored: a load fails with
    /// [`SnapDecodeError::Unsupported`], a fork with
    /// [`SnapshotError::Unforkable`] (see [`forkable`](Self::forkable)),
    /// and a write walk notes it; a typed record is marked no-leap, even
    /// in a [`dormant`](Self::dormant) walk, as a leap lands by loading.
    /// The default for components that never opted into loading.
    pub fn unsupported(&mut self, component: &str) {
        if self.loading() {
            self.fail(SnapDecodeError::unsupported(component));
        } else if self.refused.is_none() {
            self.refused = Some(component.to_string());
        }
        if let Mode::Typed { rec, .. } = &mut self.mode {
            rec.no_leap = true;
        }
    }

    /// The cycle a typed recording is taken at (the `now` leap
    /// declarations are relative to); `None` in every other mode.
    pub fn boundary(&self) -> Option<u64> {
        match self.mode {
            Mode::Typed { at, .. } => Some(at),
            _ => None,
        }
    }

    /// The record leap declarations fold into, outside a dormant walk.
    fn leap_record(&mut self) -> Option<&mut TypedSnapshot> {
        match &mut self.mode {
            Mode::Typed { rec, .. } if !self.dormant => Some(rec),
            _ => None,
        }
    }

    /// Declares that the clock may never leap over this component (a
    /// time dependence no other declaration bounds).
    pub fn no_leap(&mut self) {
        if let Some(rec) = self.leap_record() {
            rec.no_leap = true;
        }
    }

    /// Declares a one-shot behavior change at absolute cycle `at` (phase
    /// write, fault, storm edge): a leap lands at or before it.
    pub fn horizon(&mut self, at: u64) {
        if let Some(rec) = self.leap_record() {
            rec.horizon = Some(rec.horizon.map_or(at, |h| h.min(at)));
        }
    }

    /// Declares that behavior reads `now % modulus` (burst shaping): a
    /// leap period must be a multiple of it.
    pub fn modulus(&mut self, modulus: u64) {
        if let Some(rec) = self.leap_record() {
            rec.modulus = lcm(rec.modulus, modulus.max(1));
        }
    }

    /// A `u64` [`counter`](Self::counter) whose reaching `cap` changes
    /// behavior (`u64::MAX` = never): a leap lands below the cap, so a
    /// finite stream exhausts on a simulated cycle.
    pub fn counter_capped(&mut self, v: &mut u64, cap: u64) {
        if let Some(rec) = self.leap_record() {
            let index = rec.fields.len();
            rec.caps.push((index, cap));
        }
        self.counter(v);
    }

    /// Walks state that can no longer act (a blown controller, an
    /// inactive traffic segment) with the leap declarations inside `f`
    /// suppressed, except an `unsupported` one's.
    pub fn dormant(&mut self, f: impl FnOnce(&mut Self)) {
        let outer = std::mem::replace(&mut self.dormant, true);
        f(self);
        self.dormant = outer;
    }

    fn ok_to_read(&self) -> bool {
        !matches!(self.mode, Mode::Load { err: Some(_), .. })
    }

    /// Writes `bytes`, or reads that many bytes over them. Kept out of
    /// line: every field of every component funnels through here, and one
    /// copy per width stays hot in the instruction cache across a walk.
    #[inline(never)]
    fn raw<const N: usize>(&mut self, bytes: &mut [u8; N], what: &'static str) {
        let Mode::Load { r, err } = &mut self.mode else {
            return self.put(bytes);
        };
        if err.is_none() {
            match r.take(N, what) {
                Ok(b) => bytes.copy_from_slice(b),
                Err(e) => *err = Some(e),
            }
        }
    }

    /// Writes `bytes` (write modes only).
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        match &mut self.mode {
            Mode::Hash {
                hash,
                bytes: n,
                record,
            } => {
                *hash = fold(*hash, bytes);
                *n += bytes.len() as u64;
                if let Some(buf) = record {
                    buf.extend_from_slice(bytes);
                }
            }
            Mode::Typed { rec, .. } => rec.bytes.extend_from_slice(bytes),
            Mode::Fork { .. } => {}
            Mode::Load { .. } => unreachable!("put is write-only"),
        }
    }

    #[inline]
    fn mark(&mut self, kind: FieldKind, len: usize) {
        if let Mode::Typed { rec, .. } = &mut self.mode {
            rec.fields.push(FieldSpan {
                kind,
                offset: rec.bytes.len(),
                len,
            });
        }
    }

    /// Opens a named section. The tag is part of the stream, so two
    /// states only match when the same components contributed in the
    /// same order; a loader fails with
    /// [`SnapDecodeError::SectionMismatch`] on a different tag.
    pub fn section(&mut self, tag: &str) {
        if !self.loading() {
            return self.write_str(tag);
        }
        let found = self.read_str("section tag");
        if found.as_deref().is_some_and(|f| f != tag) {
            self.fail(SnapDecodeError::SectionMismatch {
                expected: tag.to_string(),
                found: found.unwrap_or_default(),
            });
        }
    }

    /// A mutable field with no leap semantics: written as is, overwritten
    /// on load.
    #[inline]
    pub fn plain<T: Word>(&mut self, v: &mut T) {
        v.walk(self);
    }

    /// A configuration fact: written as is, and on load compared with the
    /// skeleton's value `v` — a mismatch is a
    /// [`SnapDecodeError::BadValue`] naming `what`.
    #[inline]
    pub fn fixed<T: Word>(&mut self, v: T, what: &str) {
        if !self.loading() {
            return self.plain(&mut { v });
        }
        let at = self.bytes_written() as usize;
        let mut found = v;
        found.walk(self);
        if found != v && self.ok_to_read() {
            self.fail(SnapDecodeError::BadValue {
                what: format!("{what} {found:?} in stream, skeleton has {v:?}"),
                at,
            });
        }
    }

    /// A string configuration fact (see [`fixed`](Self::fixed)).
    pub fn fixed_str(&mut self, v: &str, what: &str) {
        if !self.loading() {
            return self.write_str(v);
        }
        let at = self.bytes_written() as usize;
        if let Some(found) = self.read_str("fixed string") {
            if found != v {
                self.fail(SnapDecodeError::BadValue {
                    what: format!("{what} {found:?} in stream, skeleton has {v:?}"),
                    at,
                });
            }
        }
    }

    /// An absolute cycle stamp, typed [`FieldKind::Cycle`] so the leap
    /// algebra can rebase it and advance it by whole periods.
    #[inline]
    pub fn cycle<S: Stamp>(&mut self, v: &mut S) {
        self.mark(FieldKind::Cycle, 8);
        let mut c = v.to_cycle();
        c.walk(self);
        *v = S::from_cycle(c);
    }

    /// A monotonically accumulating counter: `u64` and `u128` add, `u32`
    /// wraps (arena slot generations). Typed so a leap can advance it.
    #[inline]
    pub fn counter<C: Counter>(&mut self, v: &mut C) {
        self.mark(C::KIND, std::mem::size_of::<C>());
        v.walk(self);
    }

    /// A `u32` counter that accumulates with *saturating* arithmetic
    /// (register mirrors of wider counters).
    #[inline]
    pub fn counter_sat(&mut self, v: &mut u32) {
        self.mark(FieldKind::CounterU32Sat, 4);
        v.walk(self);
    }

    /// A length prefix for variable-length state: writes `n`; a loader
    /// returns the streamed length instead, bounded by the bytes left in
    /// the stream (so hostile input cannot force a huge allocation), and
    /// 0 once the load has failed.
    pub fn len(&mut self, n: usize) -> usize {
        let mut len = n as u64;
        len.walk(self);
        let Mode::Load { r, .. } = &self.mode else {
            return n;
        };
        let remaining = r.remaining();
        if !self.ok_to_read() {
            0
        } else if len > remaining as u64 {
            self.bad(format!(
                "length {len} exceeds the {remaining} byte(s) left in the stream"
            ));
            0
        } else {
            len as usize
        }
    }

    /// The occupancy of in-flight state (queued transactions, live
    /// slots): written as a length so any cycle's state fingerprints,
    /// but a loader requires 0 — only quiesced snapshots load — and
    /// returns 0, so the caller's entry loop (`iter().take(n)`) walks
    /// entries only when writing.
    pub fn drained(&mut self, n: usize, what: &str) -> usize {
        let mut found = n;
        found.walk(self);
        if !self.loading() {
            return n;
        }
        if found != 0 && self.ok_to_read() {
            self.bad(format!(
                "{what} holds {found} entr(ies); only quiesced snapshots load"
            ));
        }
        0
    }

    /// An optional field: a presence flag, then the payload the caller
    /// walks through the returned reference. On load the option is
    /// reset to `None` or to `make()` per the flag before the payload is
    /// read into it.
    pub fn option_with<'t, T>(
        &mut self,
        v: &'t mut Option<T>,
        make: impl FnOnce() -> T,
    ) -> Option<&'t mut T> {
        let mut some = v.is_some();
        some.walk(self);
        if self.loading() {
            *v = if some { Some(make()) } else { None };
        }
        v.as_mut()
    }

    /// [`option_with`](Self::option_with) for payloads with a
    /// [`Default`] placeholder.
    pub fn option<'t, T: Default>(&mut self, v: &'t mut Option<T>) -> Option<&'t mut T> {
        self.option_with(v, T::default)
    }

    /// A histogram whose bins sum to `total`, stored as the counts of
    /// the bins in `live` only (`bins[k]` counts bin `live.start + k`;
    /// the caller knows the occupied range, e.g. from its min and max).
    /// It streams sparsely: `(bin, count)` for every non-zero bin,
    /// counts typed as counters. A loader rebuilds `bins` for `live`,
    /// requiring ascending bins inside `live` whose counts sum to
    /// exactly `total`; a fork walks nothing (the clone owns its copy).
    pub fn histogram(&mut self, bins: &mut Vec<u64>, total: u64, live: Range<usize>) {
        match self.mode {
            Mode::Fork { .. } => {}
            Mode::Load { .. } => {
                bins.clear();
                bins.resize(live.len(), 0);
                let (mut acc, mut next) = (0u64, 0usize);
                while acc < total {
                    let (mut i, mut c) = (0usize, 0u64);
                    self.plain(&mut i);
                    self.plain(&mut c);
                    if i < next || c == 0 || c > total - acc {
                        return self.bad(format!(
                            "histogram bin ({i}, {c}) inconsistent with total {total}"
                        ));
                    }
                    if !live.contains(&i) {
                        return self.bad(format!(
                            "histogram bin ({i}, {c}) outside the live bins {live:?}"
                        ));
                    }
                    bins[i - live.start] = c;
                    acc += c;
                    next = i + 1;
                }
            }
            _ => {
                debug_assert_eq!(bins.len(), live.len(), "histogram bins are not {live:?}");
                let start = live.start;
                for (k, &c) in bins.iter().enumerate().filter(|(_, &c)| c > 0) {
                    self.plain(&mut { start + k });
                    self.counter(&mut { c });
                }
            }
        }
    }

    /// A shared `Arc` handle (a register file, a group budget). It adds
    /// no bytes — the owner walks the payload — and a fork replaces it
    /// with [`ForkCtx::fork_arc`]'s copy, so every holder of one source
    /// handle ends up holding one forked handle.
    #[inline]
    pub fn shared<T: SharedFork + Any + Send + Sync>(&mut self, handle: &mut Arc<T>) {
        if let Mode::Fork { ctx } = &mut self.mode {
            *handle = ctx.fork_arc(handle);
        }
    }

    /// A two-valued field stored as a bool: `true` iff `*v == on`.
    pub fn flag<T: PartialEq>(&mut self, v: &mut T, on: T, off: T) {
        let mut set = *v == on;
        set.walk(self);
        *v = if set { on } else { off };
    }

    fn write_str(&mut self, s: &str) {
        self.put(&(s.len() as u64).to_le_bytes());
        self.put(s.as_bytes());
    }

    fn read_str(&mut self, what: &'static str) -> Option<String> {
        let Mode::Load { r, err: None } = &mut self.mode else {
            return None;
        };
        match r.read_str(what) {
            Ok(s) => Some(s),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn lcm(a: u64, b: u64) -> u64 {
    if a == b {
        return a;
    }
    (a / gcd(a, b)).saturating_mul(b)
}

/// A scalar with a fixed little-endian stream encoding.
pub trait Word: Copy + PartialEq + fmt::Debug {
    /// Writes the value, or reads it back in load mode.
    fn walk(&mut self, w: &mut StateWalker<'_>);
}

macro_rules! int_word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            #[inline]
            fn walk(&mut self, w: &mut StateWalker<'_>) {
                let mut b = self.to_le_bytes();
                w.raw(&mut b, stringify!($t));
                *self = <$t>::from_le_bytes(b);
            }
        }
    )*};
}
int_word!(u8, u16, u32, u64, u128);

impl Word for usize {
    #[inline]
    fn walk(&mut self, w: &mut StateWalker<'_>) {
        let mut v = *self as u64;
        v.walk(w);
        match usize::try_from(v) {
            Ok(v) => *self = v,
            Err(_) => w.bad(format!("{v} exceeds this platform's usize")),
        }
    }
}

impl Word for bool {
    #[inline]
    fn walk(&mut self, w: &mut StateWalker<'_>) {
        let mut b = [*self as u8];
        w.raw(&mut b, "bool");
        match b[0] {
            0 => *self = false,
            1 => *self = true,
            v => w.bad(format!("bool byte {v}")),
        }
    }
}

impl Word for f64 {
    #[inline]
    fn walk(&mut self, w: &mut StateWalker<'_>) {
        let mut bits = self.to_bits();
        bits.walk(w);
        *self = f64::from_bits(bits);
    }
}

/// An absolute cycle stamp stored as a `u64` (see
/// [`StateWalker::cycle`]).
pub trait Stamp: Copy {
    /// The stamp as a cycle count.
    fn to_cycle(self) -> u64;
    /// The stamp for a cycle count.
    fn from_cycle(v: u64) -> Self;
}

impl Stamp for u64 {
    fn to_cycle(self) -> u64 {
        self
    }
    fn from_cycle(v: u64) -> Self {
        v
    }
}

/// A counter type and the typed kind its arithmetic maps to (see
/// [`StateWalker::counter`]).
pub trait Counter: Word {
    /// The leap-algebra kind of this counter width.
    const KIND: FieldKind;
}

impl Counter for u64 {
    const KIND: FieldKind = FieldKind::CounterU64;
}

impl Counter for u32 {
    const KIND: FieldKind = FieldKind::CounterU32;
}

impl Counter for u128 {
    const KIND: FieldKind = FieldKind::CounterU128;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One field of every kind; `$w` walks them in a fixed order.
    #[derive(Debug, Default, PartialEq)]
    struct Sample {
        a: u8,
        b: u16,
        c: u32,
        d: u64,
        e: u128,
        f: usize,
        g: bool,
        h: f64,
        at: u64,
        n64: u64,
        n32: u32,
        sat: u32,
        n128: u128,
        opt: Option<u64>,
        list: Vec<u32>,
    }

    impl Sample {
        fn full() -> Sample {
            Sample {
                a: 7,
                b: 300,
                c: 70_000,
                d: 1 << 40,
                e: 1 << 80,
                f: 42,
                g: true,
                h: 2.5,
                at: 9_000,
                n64: 5,
                n32: u32::MAX,
                sat: 3,
                n128: 11,
                opt: Some(99),
                list: vec![4, 5, 6],
            }
        }

        fn visit_state(&mut self, w: &mut StateWalker<'_>) {
            w.section("sample");
            w.fixed(3u32, "sample version");
            w.fixed_str("cfg", "sample name");
            w.plain(&mut self.a);
            w.plain(&mut self.b);
            w.plain(&mut self.c);
            w.plain(&mut self.d);
            w.plain(&mut self.e);
            w.plain(&mut self.f);
            w.plain(&mut self.g);
            w.plain(&mut self.h);
            w.cycle(&mut self.at);
            w.counter(&mut self.n64);
            w.counter(&mut self.n32);
            w.counter_sat(&mut self.sat);
            w.counter(&mut self.n128);
            if let Some(v) = w.option(&mut self.opt) {
                w.plain(v);
            }
            let n = w.len(self.list.len());
            self.list.resize(n, 0);
            for v in &mut self.list {
                w.plain(v);
            }
        }
    }

    fn record(s: &mut Sample) -> Vec<u8> {
        let mut w = StateWalker::recording();
        s.visit_state(&mut w);
        w.take_bytes()
    }

    fn load(bytes: &[u8]) -> Result<Sample, SnapDecodeError> {
        let mut s = Sample::default();
        let mut w = StateWalker::loader(bytes);
        s.visit_state(&mut w);
        w.finish_load().map(|()| s)
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn one_walk_hashes_records_and_loads() {
        let mut s = Sample::full();
        let bytes = record(&mut s);
        let mut h = StateWalker::hasher();
        s.visit_state(&mut h);
        assert_eq!(h.finish(), fnv64(&bytes), "the digest hashes the stream");
        assert_eq!(h.bytes_written(), bytes.len() as u64);
        assert_eq!(load(&bytes).expect("loads"), s);
    }

    #[test]
    fn encoding_is_pinned() {
        let mut w = StateWalker::recording();
        w.section("t");
        w.plain(&mut 1u8);
        w.plain(&mut 2u16);
        w.plain(&mut true);
        w.plain(&mut 3usize);
        assert_eq!(
            w.take_bytes(),
            [1, 0, 0, 0, 0, 0, 0, 0, b't', 1, 2, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn sections_are_prefix_free() {
        let mut a = StateWalker::hasher();
        a.section("ab");
        a.section("c");
        let mut b = StateWalker::hasher();
        b.section("a");
        b.section("bc");
        assert_ne!(a.finish(), b.finish());
        assert_eq!(a.bytes_written(), b.bytes_written());
    }

    #[test]
    fn typed_mode_maps_spans_without_changing_bytes() {
        let mut s = Sample::full();
        let plain = record(&mut s);
        let mut w = StateWalker::typed_recording(0);
        s.visit_state(&mut w);
        let typed = w.take_typed();
        assert_eq!(typed.bytes, plain);
        let kinds: Vec<FieldKind> = typed.fields.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            [
                FieldKind::Cycle,
                FieldKind::CounterU64,
                FieldKind::CounterU32,
                FieldKind::CounterU32Sat,
                FieldKind::CounterU128
            ]
        );
        let cycle = typed.fields[0];
        assert_eq!(
            u64::from_le_bytes(plain[cycle.offset..cycle.offset + 8].try_into().unwrap()),
            9_000
        );
    }

    #[test]
    fn fixed_fields_verify_instead_of_overwriting() {
        let mut w = StateWalker::recording();
        w.fixed(4u32, "sample version");
        let bytes = w.take_bytes();
        let mut r = StateWalker::loader(&bytes);
        r.fixed(3u32, "sample version");
        match r.finish_load() {
            Err(SnapDecodeError::BadValue { what, at: 0 }) => {
                assert_eq!(what, "sample version 4 in stream, skeleton has 3");
            }
            other => panic!("expected BadValue, got {other:?}"),
        }
        let mut w = StateWalker::recording();
        w.fixed_str("a", "name");
        let bytes = w.take_bytes();
        let mut r = StateWalker::loader(&bytes);
        r.fixed_str("b", "name");
        assert!(matches!(
            r.finish_load(),
            Err(SnapDecodeError::BadValue { .. })
        ));
    }

    #[test]
    fn hostile_streams_fail_with_diagnostics() {
        let bytes = record(&mut Sample::full());
        // Every truncation is a diagnostic, never a panic.
        for cut in 0..bytes.len() {
            assert!(load(&bytes[..cut]).is_err(), "cut at {cut} loaded");
        }
        // Trailing bytes are reported.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            load(&long),
            Err(SnapDecodeError::TrailingBytes { remaining: 1 })
        ));
        // A bool byte other than 0/1.
        let mut w = StateWalker::loader(&[2]);
        w.plain(&mut false);
        assert!(matches!(
            w.finish_load(),
            Err(SnapDecodeError::BadValue { .. })
        ));
        // A different section tag.
        let mut w = StateWalker::recording();
        w.section("alpha");
        let bytes = w.take_bytes();
        let mut r = StateWalker::loader(&bytes);
        r.section("beta");
        match r.finish_load() {
            Err(SnapDecodeError::SectionMismatch { expected, found }) => {
                assert_eq!((expected.as_str(), found.as_str()), ("beta", "alpha"));
            }
            other => panic!("wrong error: {other:?}"),
        }
        // A huge length prefix is bounded by the stream, not allocated.
        let bytes = u64::MAX.to_le_bytes();
        let mut r = StateWalker::loader(&bytes);
        assert_eq!(r.len(0), 0);
        assert!(matches!(
            r.finish_load(),
            Err(SnapDecodeError::BadValue { .. })
        ));
    }

    /// A component declaring every leap constraint: two capped counters
    /// (one dormant), a horizon relative to the boundary, two moduli.
    fn declare(w: &mut StateWalker<'_>) {
        w.section("leapy");
        w.plain(&mut 1u8);
        w.counter_capped(&mut 3u64, 10);
        if let Some(now) = w.boundary() {
            w.horizon(now + 500);
        }
        w.horizon(u64::MAX);
        w.modulus(6);
        w.modulus(4);
        w.dormant(|w| {
            w.counter_capped(&mut 5u64, 7);
            w.horizon(1);
            w.modulus(5);
            w.no_leap();
        });
        w.counter_capped(&mut 9u64, u64::MAX);
    }

    #[test]
    fn leap_declarations_fold_and_write_no_bytes() {
        let mut w = StateWalker::typed_recording(1_000);
        declare(&mut w);
        let rec = w.take_typed();
        let mut plain = StateWalker::recording();
        plain.section("leapy");
        plain.plain(&mut 1u8);
        for mut v in [3u64, 5, 9] {
            plain.plain(&mut v);
        }
        assert_eq!(rec.bytes, plain.take_bytes(), "declarations add no bytes");
        assert_eq!(rec.fields.len(), 3, "capped counters stay counters");
        assert_eq!(rec.caps, [(0, 10), (2, u64::MAX)], "dormant cap dropped");
        assert_eq!(rec.headrooms(), [7, u64::MAX]);
        assert_eq!(rec.horizon, Some(1_500), "earliest live horizon");
        assert_eq!(rec.modulus, 12, "least common multiple");
        assert!(!rec.no_leap, "a dormant no_leap is suppressed");

        // Other modes ignore the declarations entirely.
        let mut w = StateWalker::recording();
        declare(&mut w);
        assert_eq!(w.boundary(), None);
        assert_eq!(w.take_typed(), TypedSnapshot::default());
    }

    #[test]
    fn unsupported_implies_no_leap_even_when_dormant() {
        let mut w = StateWalker::typed_recording(0);
        w.dormant(|w| w.unsupported("irq"));
        let rec = w.take_typed();
        assert!(rec.no_leap);
        let mut w = StateWalker::typed_recording(0);
        w.no_leap();
        assert!(w.take_typed().no_leap);
        assert!(!StateWalker::typed_recording(0).take_typed().no_leap);
    }

    /// Two holders of one shared handle plus a plain field.
    struct Holders {
        a: Arc<std::sync::Mutex<u64>>,
        b: Arc<std::sync::Mutex<u64>>,
        n: u64,
    }

    impl Holders {
        fn visit_state(&mut self, w: &mut StateWalker<'_>) {
            w.shared(&mut self.a);
            w.shared(&mut self.b);
            w.plain(&mut self.n);
        }
    }

    #[test]
    fn shared_handles_fork_and_write_no_bytes() {
        let shared = Arc::new(std::sync::Mutex::new(7));
        let mut h = Holders {
            a: shared.clone(),
            b: shared.clone(),
            n: 3,
        };
        let mut w = StateWalker::recording();
        h.visit_state(&mut w);
        assert_eq!(w.take_bytes(), 3u64.to_le_bytes(), "handles add no bytes");

        let mut ctx = ForkCtx::new();
        let mut w = StateWalker::forker(&mut ctx);
        h.visit_state(&mut w);
        w.forkable().expect("nothing refused");
        assert!(Arc::ptr_eq(&h.a, &h.b), "sharing topology survives");
        assert!(!Arc::ptr_eq(&h.a, &shared), "the fork owns a copy");
        *h.a.lock().unwrap() = 9;
        assert_eq!(*shared.lock().unwrap(), 7);
        assert_eq!(h.n, 3);
    }

    #[test]
    fn unsupported_refuses_load_fork_and_notes_writes() {
        let mut w = StateWalker::hasher();
        w.unsupported("irq");
        w.unsupported("later");
        assert_eq!(
            w.forkable(),
            Err(SnapshotError::Unforkable {
                label: "irq".into()
            }),
            "the first refusal sticks"
        );

        let mut ctx = ForkCtx::new();
        let mut w = StateWalker::forker(&mut ctx);
        w.unsupported("irq");
        assert!(w.forkable().is_err());

        let mut w = StateWalker::loader(&[]);
        w.unsupported("irq");
        assert_eq!(w.forkable(), Ok(()), "a load refuses through finish_load");
        assert!(matches!(
            w.finish_load(),
            Err(SnapDecodeError::Unsupported { .. })
        ));
    }

    #[test]
    fn first_error_sticks() {
        let mut r = StateWalker::loader(&[]);
        let mut v = 5u64;
        r.plain(&mut v);
        r.bad("later");
        assert_eq!(v, 5, "a failed read leaves the field untouched");
        assert!(matches!(
            r.finish_load(),
            Err(SnapDecodeError::Truncated { what: "u64", at: 0 })
        ));
    }
}
