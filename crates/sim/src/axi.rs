//! AXI-like transaction types.
//!
//! The simulator abstracts AMBA AXI4 to the transaction level: a request is
//! one address-channel handshake plus its burst of data beats; a response
//! marks the completion of the last beat. The properties that matter for
//! QoS — burst length, direction, per-master outstanding limits, and the
//! point at which back-pressure is applied (the address handshake) — are
//! preserved.

use crate::time::Cycle;
use std::fmt;

/// Width of the data bus in bytes (128-bit AXI, as on Zynq US+ HP ports).
pub const BEAT_BYTES: u64 = 16;

/// Maximum AXI4 burst length in beats.
pub const MAX_BURST_BEATS: u16 = 256;

/// Identifies one master port on the interconnect.
///
/// Master ids are dense indices assigned by
/// [`SocBuilder`](crate::system::SocBuilder) in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MasterId(usize);

impl MasterId {
    /// Creates a master id from its dense index.
    #[inline]
    pub const fn new(index: usize) -> Self {
        MasterId(index)
    }

    /// Returns the dense index of this master.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for MasterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// Transfer direction of a transaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Read transaction (AR channel + R beats).
    #[default]
    Read,
    /// Write transaction (AW channel + W beats + B response).
    Write,
}

impl Dir {
    /// Returns `true` for [`Dir::Read`].
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, Dir::Read)
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dir::Read => "R",
            Dir::Write => "W",
        })
    }
}

/// One in-flight AXI transaction (address handshake + burst).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Issuing master port.
    pub master: MasterId,
    /// Per-master transaction serial number (monotonic).
    pub serial: u64,
    /// Byte address of the first beat.
    pub addr: u64,
    /// Burst length in data beats (1..=[`MAX_BURST_BEATS`]).
    pub beats: u16,
    /// Transfer direction.
    pub dir: Dir,
    /// Cycle at which the master first presented the address handshake
    /// (before any gating). Latency is measured from here.
    pub issued_at: Cycle,
    /// Cycle at which the request was accepted into the interconnect
    /// (after regulation and FIFO admission).
    pub accepted_at: Cycle,
}

impl Request {
    /// Creates a request presented at `issued_at`.
    ///
    /// # Panics
    ///
    /// Panics if `beats` is zero or exceeds [`MAX_BURST_BEATS`].
    pub fn new(
        master: MasterId,
        serial: u64,
        addr: u64,
        beats: u16,
        dir: Dir,
        issued_at: Cycle,
    ) -> Self {
        assert!(
            (1..=MAX_BURST_BEATS).contains(&beats),
            "burst length must be 1..={MAX_BURST_BEATS}, got {beats}"
        );
        Request {
            master,
            serial,
            addr,
            beats,
            dir,
            issued_at,
            accepted_at: issued_at,
        }
    }

    /// Total payload of this transaction in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.beats as u64 * BEAT_BYTES
    }
}

/// Completion record of a [`Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// The completed request.
    pub request: Request,
    /// Cycle of the final data beat (read) or write acknowledgement.
    pub completed_at: Cycle,
}

impl Response {
    /// End-to-end latency in cycles, from first handshake attempt to
    /// completion. This includes any regulation stall time.
    #[inline]
    pub fn latency(&self) -> u64 {
        self.completed_at.cycles_since(self.request.issued_at)
    }

    /// Latency from interconnect acceptance to completion (excludes
    /// regulation stalls; this is the "memory system" latency).
    #[inline]
    pub fn service_latency(&self) -> u64 {
        self.completed_at.cycles_since(self.request.accepted_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(beats: u16) -> Request {
        Request::new(MasterId::new(0), 0, 0x1000, beats, Dir::Read, Cycle::new(5))
    }

    #[test]
    fn request_bytes() {
        assert_eq!(req(1).bytes(), 16);
        assert_eq!(req(16).bytes(), 256);
        assert_eq!(req(256).bytes(), 4096);
    }

    #[test]
    #[should_panic(expected = "burst length")]
    fn zero_beats_rejected() {
        let _ = req(0);
    }

    #[test]
    #[should_panic(expected = "burst length")]
    fn oversized_burst_rejected() {
        let _ = req(257);
    }

    #[test]
    fn response_latencies() {
        let mut r = req(4);
        r.accepted_at = Cycle::new(9);
        let resp = Response {
            request: r,
            completed_at: Cycle::new(30),
        };
        assert_eq!(resp.latency(), 25);
        assert_eq!(resp.service_latency(), 21);
    }

    #[test]
    fn display_impls() {
        assert_eq!(MasterId::new(3).to_string(), "M3");
        assert_eq!(Dir::Read.to_string(), "R");
        assert_eq!(Dir::Write.to_string(), "W");
    }
}
