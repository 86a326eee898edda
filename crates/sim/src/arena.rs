//! Slot arena for in-flight AXI transactions.
//!
//! Every transaction accepted into the interconnect lives in one
//! [`TxnArena`] slot from acceptance to completion. Components on the
//! memory path (crossbar port FIFOs, the DRAM request queue and service
//! list) carry a 8-byte generational [`TxnId`] instead of a full
//! [`Request`], so moving a transaction between queues copies one word.
//! A slot is one row: the [`Request`] as the master built it plus the
//! slot's generation, so accepting and completing a transaction each
//! copy one record.
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

/// Slot storage for in-flight transactions.
///
/// ```
/// use fgqos_sim::arena::TxnArena;
/// use fgqos_sim::axi::{Dir, MasterId, Request};
/// use fgqos_sim::time::Cycle;
///
/// let mut arena = TxnArena::new();
/// let req = Request::new(MasterId::new(0), 7, 0x1000, 4, Dir::Read, Cycle::new(3));
/// let id = arena.alloc(&req);
/// assert_eq!(arena.request(id).master, MasterId::new(0));
/// assert_eq!(arena.take(id), req);
/// assert_eq!(arena.live(), 0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TxnArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

/// One arena row: the transaction and the slot's generation.
#[derive(Debug, Clone, Copy)]
struct Slot {
    req: Request,
    gen: u32,
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
        self.slots.len()
    }

    /// Copies `req` into a slot and returns its handle.
    pub fn alloc(&mut self, req: &Request) -> TxnId {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            slot.req = *req;
            TxnId { idx, gen: slot.gen }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot { req: *req, gen: 0 });
            TxnId { idx, gen: 0 }
        }
    }

    /// The slot `id` names, checked against its generation.
    #[inline]
    fn slot(&self, id: TxnId) -> &Slot {
        match self.slots.get(id.idx as usize) {
            Some(slot) if slot.gen == id.gen => slot,
            _ => panic!("stale or invalid TxnId {id:?}"),
        }
    }

    /// The full [`Request`] stored in the slot.
    #[inline]
    pub fn request(&self, id: TxnId) -> Request {
        self.slot(id).req
    }

    /// Walks the arena's slot-recycling state (see
    /// [`StateWalker`](fgqos_snap::StateWalker)).
    ///
    /// At a quiesced boundary no transaction is live, but the generation
    /// counters and free-list order still determine which `TxnId`s
    /// future allocations receive, so they are architectural state: two
    /// arenas that differ here diverge on the very next `alloc`.
    ///
    /// Only quiesced arenas load: live slots would need their requests,
    /// which the stream (rightly) does not carry. With zero live slots
    /// the free list spans every slot, and the slots hold only dead
    /// requests that the next `alloc` overwrites — placeholders suffice.
    pub fn visit_state(&mut self, w: &mut fgqos_snap::StateWalker<'_>) {
        w.section("arena");
        w.drained(self.live, "arena");
        let slots = w.len(self.slots.len());
        if w.loading() {
            let placeholder = Slot {
                req: Request::new(MasterId::new(0), 0, 0, 1, Dir::Read, Cycle::ZERO),
                gen: 0,
            };
            *self = TxnArena {
                slots: vec![placeholder; slots],
                free: vec![0; slots],
                live: 0,
            };
        }
        for slot in &mut self.slots {
            // Slot generations accumulate with wrapping arithmetic (see
            // `take`), so a leap advances them as wrapping counters.
            w.counter(&mut slot.gen);
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

    /// Returns the [`Request`] and releases the slot for reuse.
    pub fn take(&mut self, id: TxnId) -> Request {
        let req = self.request(id);
        let slot = &mut self.slots[id.idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
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
        let _ = a.request(id);
    }
}
