//! Struct-of-arrays arena for in-flight AXI transactions.
//!
//! Every transaction accepted into the interconnect lives in one
//! [`TxnArena`] slot from acceptance to completion. Components on the
//! memory path (crossbar port FIFOs, the DRAM request queue and service
//! list) carry a 8-byte generational [`TxnId`] instead of a full
//! [`Request`], so moving a transaction between queues copies one word
//! and the scheduler scans dense columns instead of pointer-sized
//! records.
//!
//! Slots are recycled through a free list; the per-slot generation
//! counter turns use-after-release into a deterministic panic instead of
//! silent aliasing. The arena never shrinks — a simulation's live-set
//! high-water mark (bounded by FIFO depths and the DRAM queue) is a few
//! dozen slots, allocated once and reused for the rest of the run.

use crate::axi::{Dir, MasterId, Request};
use crate::time::Cycle;

/// Generational handle to one in-flight transaction in a [`TxnArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnId {
    idx: u32,
    gen: u32,
}

impl TxnId {
    /// Dense slot index (stable while the transaction is in flight).
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }
}

/// Struct-of-arrays storage for in-flight transactions.
///
/// ```
/// use fgqos_sim::arena::TxnArena;
/// use fgqos_sim::axi::{Dir, MasterId, Request};
/// use fgqos_sim::time::Cycle;
///
/// let mut arena = TxnArena::new();
/// let req = Request::new(MasterId::new(0), 7, 0x1000, 4, Dir::Read, Cycle::new(3));
/// let id = arena.alloc(&req);
/// assert_eq!(arena.master(id), MasterId::new(0));
/// assert_eq!(arena.take(id), req);
/// assert_eq!(arena.live(), 0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TxnArena {
    master: Vec<MasterId>,
    serial: Vec<u64>,
    addr: Vec<u64>,
    beats: Vec<u16>,
    dir: Vec<Dir>,
    issued_at: Vec<Cycle>,
    accepted_at: Vec<Cycle>,
    gen: Vec<u32>,
    free: Vec<u32>,
    live: usize,
}

impl TxnArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        TxnArena::default()
    }

    /// Number of transactions currently in flight.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (the live-set high-water mark).
    pub fn capacity(&self) -> usize {
        self.gen.len()
    }

    /// Copies `req` into a slot and returns its handle.
    pub fn alloc(&mut self, req: &Request) -> TxnId {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let i = idx as usize;
            self.master[i] = req.master;
            self.serial[i] = req.serial;
            self.addr[i] = req.addr;
            self.beats[i] = req.beats;
            self.dir[i] = req.dir;
            self.issued_at[i] = req.issued_at;
            self.accepted_at[i] = req.accepted_at;
            TxnId {
                idx,
                gen: self.gen[i],
            }
        } else {
            let idx = self.gen.len() as u32;
            self.master.push(req.master);
            self.serial.push(req.serial);
            self.addr.push(req.addr);
            self.beats.push(req.beats);
            self.dir.push(req.dir);
            self.issued_at.push(req.issued_at);
            self.accepted_at.push(req.accepted_at);
            self.gen.push(0);
            TxnId { idx, gen: 0 }
        }
    }

    #[inline]
    fn check(&self, id: TxnId) -> usize {
        let i = id.idx as usize;
        assert_eq!(
            self.gen.get(i).copied(),
            Some(id.gen),
            "stale or invalid TxnId"
        );
        i
    }

    /// Issuing master of the transaction.
    #[inline]
    pub fn master(&self, id: TxnId) -> MasterId {
        self.master[self.check(id)]
    }

    /// First-beat byte address of the transaction.
    #[inline]
    pub fn addr(&self, id: TxnId) -> u64 {
        self.addr[self.check(id)]
    }

    /// Burst length in beats.
    #[inline]
    pub fn beats(&self, id: TxnId) -> u16 {
        self.beats[self.check(id)]
    }

    /// Transfer direction.
    #[inline]
    pub fn dir(&self, id: TxnId) -> Dir {
        self.dir[self.check(id)]
    }

    /// Reconstructs the full [`Request`] stored in the slot.
    pub fn request(&self, id: TxnId) -> Request {
        let i = self.check(id);
        let mut req = Request::new(
            self.master[i],
            self.serial[i],
            self.addr[i],
            self.beats[i],
            self.dir[i],
            self.issued_at[i],
        );
        req.accepted_at = self.accepted_at[i];
        req
    }

    /// Walks the arena's slot-recycling state (see
    /// [`StateWalker`](fgqos_snap::StateWalker)).
    ///
    /// At a quiesced boundary no transaction is live, but the generation
    /// counters and free-list order still determine which `TxnId`s
    /// future allocations receive, so they are architectural state: two
    /// arenas that differ here diverge on the very next `alloc`.
    ///
    /// Only quiesced arenas load: live slots would need their SoA payload
    /// columns, which the stream (rightly) does not carry. With zero live
    /// slots the free list spans every slot, and the payload columns
    /// hold only dead values that the next `alloc` overwrites —
    /// placeholders suffice.
    pub fn visit_state(&mut self, w: &mut fgqos_snap::StateWalker<'_>) {
        w.section("arena");
        w.drained(self.live, "arena");
        let slots = w.len(self.gen.len());
        if w.loading() {
            *self = TxnArena {
                master: vec![MasterId::new(0); slots],
                serial: vec![0; slots],
                addr: vec![0; slots],
                beats: vec![0; slots],
                dir: vec![Dir::Read; slots],
                issued_at: vec![Cycle::ZERO; slots],
                accepted_at: vec![Cycle::ZERO; slots],
                gen: vec![0; slots],
                free: vec![0; slots],
                live: 0,
            };
        }
        for g in &mut self.gen {
            // Slot generations accumulate with wrapping arithmetic (see
            // `take`), so a leap advances them as wrapping counters.
            w.counter(g);
        }
        for f in &mut self.free {
            w.plain(f);
            if *f as usize >= slots {
                w.bad(format!(
                    "arena free-list entry {f} out of range for {slots} slot(s)"
                ));
            }
        }
    }

    /// Reconstructs the [`Request`] and releases the slot for reuse.
    pub fn take(&mut self, id: TxnId) -> Request {
        let req = self.request(id);
        let i = id.idx as usize;
        self.gen[i] = self.gen[i].wrapping_add(1);
        self.free.push(id.idx);
        self.live -= 1;
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(serial: u64) -> Request {
        let mut r = Request::new(
            MasterId::new(2),
            serial,
            serial * 512,
            32,
            Dir::Write,
            Cycle::new(10),
        );
        r.accepted_at = Cycle::new(12);
        r
    }

    #[test]
    fn roundtrip_preserves_all_fields() {
        let mut a = TxnArena::new();
        let id = a.alloc(&req(5));
        assert_eq!(a.master(id), MasterId::new(2));
        assert_eq!(a.addr(id), 5 * 512);
        assert_eq!(a.beats(id), 32);
        assert_eq!(a.dir(id), Dir::Write);
        assert_eq!(a.request(id), req(5));
        assert_eq!(a.take(id), req(5));
    }

    #[test]
    fn slots_recycle_through_free_list() {
        let mut a = TxnArena::new();
        let id0 = a.alloc(&req(0));
        let id1 = a.alloc(&req(1));
        assert_eq!(a.capacity(), 2);
        a.take(id0);
        let id2 = a.alloc(&req(2));
        // Slot reused, no growth.
        assert_eq!(id2.index(), id0.index());
        assert_eq!(a.capacity(), 2);
        assert_eq!(a.live(), 2);
        assert_eq!(a.request(id1).serial, 1);
        assert_eq!(a.request(id2).serial, 2);
    }

    #[test]
    #[should_panic(expected = "stale or invalid TxnId")]
    fn stale_handle_panics() {
        let mut a = TxnArena::new();
        let id = a.alloc(&req(0));
        a.take(id);
        let _ = a.request(id);
    }

    #[test]
    #[should_panic(expected = "stale or invalid TxnId")]
    fn reused_slot_rejects_old_generation() {
        let mut a = TxnArena::new();
        let id = a.alloc(&req(0));
        a.take(id);
        let _ = a.alloc(&req(1)); // same slot, new generation
        let _ = a.master(id);
    }
}
