//! Per-client ingress admission control — the paper's mechanism applied
//! to the server itself.
//!
//! The paper regulates accelerator ports with tightly-coupled
//! window/budget accounting at the traffic source. `fgqos-serve`
//! dogfoods the same idea one layer up: every client gets its own
//! [`LeakyBucketRegulator`] instance (the continuous-replenish variant
//! of the window regulator, see `fgqos_core::bucket`) charged with the
//! *request bytes* it sends. A flooding client exhausts its own budget
//! and receives 429-style `deny` responses at the protocol layer —
//! before any queueing or simulation work — while every other client's
//! bucket, and therefore its latency, is untouched.
//!
//! The mapping to the paper's terms:
//!
//! | paper (port regulation)      | serve (ingress regulation)           |
//! |------------------------------|--------------------------------------|
//! | window period `P` (cycles)   | [`AdmissionConfig::period_cycles`], 1 cycle = 1 µs wall time |
//! | byte budget `Q` per window   | [`AdmissionConfig::budget_bytes`]    |
//! | burst allowance              | [`AdmissionConfig::depth_bytes`]     |
//! | AXI beats                    | request frame bytes, in [`BEAT_BYTES`] beats |

use crate::recover;
use fgqos_core::bucket::{BucketConfig, LeakyBucketRegulator};
use fgqos_core::regulator::OvershootPolicy;
use fgqos_sim::axi::{Dir, MasterId, Request, BEAT_BYTES, MAX_BURST_BEATS};
use fgqos_sim::gate::PortGate;
use fgqos_sim::time::Cycle;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Ingress budget applied to every client, independently.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Bytes replenished per [`period_cycles`](Self::period_cycles).
    pub budget_bytes: u32,
    /// Replenishment period in regulator cycles (1 cycle = 1 µs).
    pub period_cycles: u32,
    /// Maximum accumulated credit: the burst a client may send after an
    /// idle stretch.
    pub depth_bytes: u32,
}

impl Default for AdmissionConfig {
    /// 1 MiB/s sustained with a 2 MiB burst allowance — generous for
    /// interactive use, restrictive for floods.
    fn default() -> Self {
        AdmissionConfig {
            budget_bytes: 1 << 20,
            period_cycles: 1_000_000,
            depth_bytes: 2 << 20,
        }
    }
}

struct ClientState {
    bucket: LeakyBucketRegulator,
    accepted: u64,
    denied: u64,
    serial: u64,
}

/// Thread-safe per-client admission regulator bank.
pub struct AdmissionControl {
    cfg: AdmissionConfig,
    start: Instant,
    clients: Mutex<HashMap<String, ClientState>>,
}

impl AdmissionControl {
    /// Creates an empty bank; client regulators are instantiated lazily
    /// on first contact.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionControl {
            cfg,
            start: Instant::now(),
            clients: Mutex::new(HashMap::new()),
        }
    }

    fn now(&self) -> Cycle {
        Cycle::new(self.start.elapsed().as_micros() as u64)
    }

    /// Charges `bytes` of request traffic to `client` and decides
    /// admission. Denied requests debit nothing.
    pub fn admit(&self, client: &str, bytes: u64) -> bool {
        let now = self.now();
        let mut clients = recover(self.clients.lock());
        let st = clients
            .entry(client.to_string())
            .or_insert_with(|| ClientState {
                bucket: LeakyBucketRegulator::new(BucketConfig {
                    budget_bytes: self.cfg.budget_bytes,
                    period_cycles: self.cfg.period_cycles,
                    depth_bytes: self.cfg.depth_bytes,
                    overshoot: OvershootPolicy::Conservative,
                }),
                accepted: 0,
                denied: 0,
                serial: 0,
            });
        st.bucket.on_cycle(now);
        // All-or-nothing: a frame larger than one max AXI burst is
        // charged as a burst sequence, but only if the whole frame —
        // rounded up to whole beats, which is what the bucket debits —
        // fits the available credit.
        let total_beats = bytes.max(1).div_ceil(BEAT_BYTES);
        if st.bucket.tokens() < total_beats * BEAT_BYTES {
            st.denied += 1;
            return false;
        }
        let mut remaining = total_beats;
        while remaining > 0 {
            let beats = remaining.min(MAX_BURST_BEATS as u64) as u16;
            let req = Request::new(MasterId::new(0), st.serial, 0, beats, Dir::Read, now);
            st.serial += 1;
            let charged = st.bucket.try_accept(&req, now).is_accept();
            debug_assert!(charged, "pre-checked credit must admit every burst");
            remaining -= beats as u64;
        }
        st.accepted += 1;
        true
    }

    /// Per-client `(name, accepted, denied)` counters, sorted by name
    /// for deterministic metrics export.
    pub fn snapshot(&self) -> Vec<(String, u64, u64)> {
        let clients = recover(self.clients.lock());
        let mut rows: Vec<(String, u64, u64)> = clients
            .iter()
            .map(|(name, st)| (name.clone(), st.accepted, st.denied))
            .collect();
        rows.sort();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> AdmissionControl {
        // 1 KiB/s, 4 KiB burst: easy to exhaust within a test.
        AdmissionControl::new(AdmissionConfig {
            budget_bytes: 1 << 10,
            period_cycles: 1_000_000,
            depth_bytes: 4 << 10,
        })
    }

    #[test]
    fn flood_is_denied_after_the_burst_allowance() {
        let ac = tight();
        let mut accepted = 0;
        let mut denied = 0;
        for _ in 0..100 {
            if ac.admit("flood", 1024) {
                accepted += 1;
            } else {
                denied += 1;
            }
        }
        assert!(accepted >= 1, "the initial burst allowance admits");
        assert!(accepted <= 6, "at most depth/frame (+refill slack) admits");
        assert!(denied >= 94, "the flood is back-pressured");
    }

    #[test]
    fn clients_are_isolated() {
        let ac = tight();
        while ac.admit("flood", 2048) {}
        assert!(
            ac.admit("polite", 512),
            "another client's budget is untouched by the flood"
        );
    }

    #[test]
    fn denied_requests_debit_nothing() {
        let ac = tight();
        // Drain to below 2 KiB of credit...
        assert!(ac.admit("c", 3 << 10));
        // ...then an oversized frame is denied without debiting:
        assert!(!ac.admit("c", 4 << 10));
        // the remaining ~1 KiB credit still admits a small frame.
        assert!(ac.admit("c", 512));
    }

    #[test]
    fn snapshot_is_sorted_and_counts() {
        let ac = tight();
        assert!(ac.admit("b", 64));
        assert!(ac.admit("a", 64));
        while ac.admit("b", 4096) {}
        let snap = ac.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "a");
        assert_eq!(snap[0], ("a".to_string(), 1, 0));
        assert_eq!(snap[1].0, "b");
        assert!(snap[1].1 >= 1 && snap[1].2 >= 1);
    }

    #[test]
    fn zero_byte_frames_still_charge_a_beat() {
        let ac = AdmissionControl::new(AdmissionConfig {
            budget_bytes: 1,
            period_cycles: 1_000_000,
            depth_bytes: BEAT_BYTES as u32,
        });
        assert!(ac.admit("c", 0));
        assert!(!ac.admit("c", 0), "the single beat of credit is spent");
    }
}
