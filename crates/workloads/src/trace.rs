//! Trace-driven workloads.
//!
//! The paper's evaluation mixes synthetic generators with real
//! accelerator traffic. Real traffic enters this reproduction as
//! *traces*: one record per transaction (inter-arrival gap, address,
//! size, direction), replayable deterministically by [`TraceSource`].
//! The plain-text format is one record per line:
//!
//! ```text
//! # delta_cycles addr_hex bytes dir
//! 0     0x10000000 256 R
//! 120   0x10000100 256 R
//! 40    0x20000000 1024 W
//! ```
//!
//! Traces can be parsed from any reader, serialized back, captured from
//! any other [`TrafficSource`], and trimmed/looped for experiments.

use crate::spec::TrafficSpec;
use fgqos_sim::axi::{Dir, Response, BEAT_BYTES, MAX_BURST_BEATS};
use fgqos_sim::master::{PendingRequest, TrafficSource};
use fgqos_sim::time::Cycle;
use fgqos_sim::StateWalker;
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

/// One traced transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycles since the previous record's generation instant.
    pub delta_cycles: u64,
    /// Byte address of the first beat.
    pub addr: u64,
    /// Transaction payload in bytes.
    pub bytes: u64,
    /// Direction.
    pub dir: Dir,
}

impl TraceRecord {
    /// Validates size constraints.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.bytes == 0 || !self.bytes.is_multiple_of(BEAT_BYTES) {
            return Err(format!("bytes must be a positive multiple of {BEAT_BYTES}"));
        }
        if self.bytes / BEAT_BYTES > MAX_BURST_BEATS as u64 {
            return Err("bytes exceed one maximum burst".into());
        }
        Ok(())
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:#x} {} {}",
            self.delta_cycles, self.addr, self.bytes, self.dir
        )
    }
}

/// Error from [`parse_trace`].
#[derive(Debug)]
pub struct ParseTraceError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl Error for ParseTraceError {}

impl From<io::Error> for ParseTraceError {
    fn from(e: io::Error) -> Self {
        ParseTraceError {
            line: 0,
            message: e.to_string(),
        }
    }
}

fn parse_u64(token: &str) -> Result<u64, String> {
    if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).map_err(|e| e.to_string())
    } else {
        token
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())
    }
}

/// Parses a whole trace. Blank lines and `#` comments are skipped.
///
/// # Errors
///
/// Returns the first malformed line.
pub fn parse_trace(reader: impl BufRead) -> Result<Vec<TraceRecord>, ParseTraceError> {
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = i + 1;
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut tok = body.split_whitespace();
        let mut next = |what: &str| {
            tok.next().ok_or_else(|| ParseTraceError {
                line: line_no,
                message: format!("missing {what}"),
            })
        };
        let delta = parse_u64(next("delta")?).map_err(|m| ParseTraceError {
            line: line_no,
            message: m,
        })?;
        let addr = parse_u64(next("addr")?).map_err(|m| ParseTraceError {
            line: line_no,
            message: m,
        })?;
        let bytes = parse_u64(next("bytes")?).map_err(|m| ParseTraceError {
            line: line_no,
            message: m,
        })?;
        let dir = match next("dir")? {
            "R" | "r" => Dir::Read,
            "W" | "w" => Dir::Write,
            other => {
                return Err(ParseTraceError {
                    line: line_no,
                    message: format!("direction must be R or W, got {other:?}"),
                })
            }
        };
        let rec = TraceRecord {
            delta_cycles: delta,
            addr,
            bytes,
            dir,
        };
        rec.validate().map_err(|m| ParseTraceError {
            line: line_no,
            message: m,
        })?;
        out.push(rec);
    }
    Ok(out)
}

/// Serializes a trace in the format [`parse_trace`] reads.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_trace(mut writer: impl Write, records: &[TraceRecord]) -> io::Result<()> {
    writeln!(writer, "# delta_cycles addr_hex bytes dir")?;
    for r in records {
        writeln!(writer, "{r}")?;
    }
    Ok(())
}

/// Captures the first `limit` transactions another source generates
/// (with their generation-time deltas) into a trace.
pub fn capture(source: &mut dyn TrafficSource, limit: usize) -> Vec<TraceRecord> {
    let mut out = Vec::with_capacity(limit);
    let mut last = Cycle::ZERO;
    let mut now = Cycle::ZERO;
    while out.len() < limit {
        match source.next_request(now) {
            Some(p) => {
                let at = p.not_before.max(now);
                out.push(TraceRecord {
                    delta_cycles: at.saturating_since(last),
                    addr: p.addr,
                    bytes: p.beats as u64 * BEAT_BYTES,
                    dir: p.dir,
                });
                last = at;
                now = at;
            }
            None => {
                if source.is_done() {
                    break;
                }
                now += 1;
            }
        }
    }
    out
}

/// Replays a trace as a [`TrafficSource`].
#[derive(Debug, Clone)]
pub struct TraceSource {
    records: Vec<TraceRecord>,
    loops: u64,
    idx: usize,
    done_loops: u64,
    next_ready: Cycle,
}

impl TraceSource {
    /// Creates a source replaying `records` once.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or contains an invalid record.
    pub fn new(records: Vec<TraceRecord>) -> Self {
        TraceSource::with_loops(records, 1)
    }

    /// Creates a source replaying `records` `loops` times.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty, any record is invalid, or `loops`
    /// is zero.
    pub fn with_loops(records: Vec<TraceRecord>, loops: u64) -> Self {
        assert!(!records.is_empty(), "trace must not be empty");
        assert!(loops > 0, "loops must be non-zero");
        for (i, r) in records.iter().enumerate() {
            if let Err(e) = r.validate() {
                panic!("invalid trace record {i}: {e}");
            }
        }
        TraceSource {
            records,
            loops,
            idx: 0,
            done_loops: 0,
            next_ready: Cycle::ZERO,
        }
    }

    /// A synthetic trace captured from `spec` (convenience for tests and
    /// experiments needing a fixed, inspectable workload).
    pub fn from_spec(spec: TrafficSpec, seed: u64, limit: usize) -> Self {
        let mut src = crate::spec::SpecSource::new(spec, seed);
        TraceSource::new(capture(&mut src, limit))
    }

    /// Total transactions this source will generate.
    pub fn total_txns(&self) -> u64 {
        self.records.len() as u64 * self.loops
    }

    /// The underlying records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }
}

impl TrafficSource for TraceSource {
    fn next_request(&mut self, now: Cycle) -> Option<PendingRequest> {
        if self.done_loops >= self.loops {
            return None;
        }
        let rec = self.records[self.idx];
        // Deltas are generation-relative: pace from the later of the
        // schedule and the present.
        let not_before = (self.next_ready + rec.delta_cycles).max(now);
        self.next_ready = not_before;
        self.idx += 1;
        if self.idx >= self.records.len() {
            self.idx = 0;
            self.done_loops += 1;
        }
        Some(PendingRequest {
            addr: rec.addr,
            beats: (rec.bytes / BEAT_BYTES) as u16,
            dir: rec.dir,
            not_before,
        })
    }

    fn on_complete(&mut self, _response: &Response, _now: Cycle) {}

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        // Mirrors the `not_before` of the next record so a deferred pull
        // stages the same request naive stepping would.
        if self.done_loops >= self.loops {
            None
        } else {
            Some((self.next_ready + self.records[self.idx].delta_cycles).max(now))
        }
    }

    fn is_done(&self) -> bool {
        self.done_loops >= self.loops
    }

    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("trace-source");
        w.no_leap();
        // The trace itself is configuration: the skeleton must replay
        // the same records, so verify rather than overwrite.
        w.fixed(self.records.len(), "trace record count");
        for r in &self.records {
            w.fixed(r.delta_cycles, "trace record delta");
            w.fixed(r.addr, "trace record addr");
            w.fixed(r.bytes, "trace record bytes");
            w.fixed(r.dir == Dir::Write, "trace record write flag");
        }
        w.fixed(self.loops, "trace loops");
        w.plain(&mut self.idx);
        if self.idx >= self.records.len() {
            w.bad(format!("trace cursor {} outside the trace", self.idx));
        }
        w.plain(&mut self.done_loops);
        w.plain(&mut self.next_ready);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TrafficSpec;

    const SAMPLE: &str = "\
# a comment
0     0x1000 256 R

120   0x1100 256 r   # inline comment
40    0x2000 1024 W
";

    #[test]
    fn parse_roundtrip() {
        let recs = parse_trace(SAMPLE.as_bytes()).expect("parses");
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs[0],
            TraceRecord {
                delta_cycles: 0,
                addr: 0x1000,
                bytes: 256,
                dir: Dir::Read
            }
        );
        assert_eq!(recs[2].dir, Dir::Write);

        let mut buf = Vec::new();
        write_trace(&mut buf, &recs).expect("writes");
        let again = parse_trace(buf.as_slice()).expect("re-parses");
        assert_eq!(again, recs);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_trace("0 0x10 256 R\nbogus".as_bytes()).unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_trace("0 0x10 100 R".as_bytes()).unwrap_err();
        assert!(err.message.contains("multiple"));
        let err = parse_trace("0 0x10 256 X".as_bytes()).unwrap_err();
        assert!(err.message.contains("direction"));
    }

    #[test]
    fn replay_paces_by_deltas() {
        let recs = vec![
            TraceRecord {
                delta_cycles: 0,
                addr: 0,
                bytes: 64,
                dir: Dir::Read,
            },
            TraceRecord {
                delta_cycles: 100,
                addr: 64,
                bytes: 64,
                dir: Dir::Read,
            },
            TraceRecord {
                delta_cycles: 50,
                addr: 128,
                bytes: 64,
                dir: Dir::Write,
            },
        ];
        let mut src = TraceSource::new(recs);
        let a = src.next_request(Cycle::ZERO).unwrap();
        let b = src.next_request(Cycle::ZERO).unwrap();
        let c = src.next_request(Cycle::ZERO).unwrap();
        assert_eq!(a.not_before.get(), 0);
        assert_eq!(b.not_before.get(), 100);
        assert_eq!(c.not_before.get(), 150);
        assert!(src.next_request(Cycle::ZERO).is_none());
        assert!(src.is_done());
    }

    #[test]
    fn looping_replays_whole_trace() {
        let recs = vec![TraceRecord {
            delta_cycles: 10,
            addr: 0,
            bytes: 64,
            dir: Dir::Read,
        }];
        let mut src = TraceSource::with_loops(recs, 3);
        assert_eq!(src.total_txns(), 3);
        let mut n = 0;
        while src.next_request(Cycle::ZERO).is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn capture_from_spec_source() {
        let spec = TrafficSpec::stream(0x4000, 1 << 20, 256, Dir::Read);
        let spec = TrafficSpec { gap: 50, ..spec };
        let src = TraceSource::from_spec(spec, 9, 10);
        assert_eq!(src.records().len(), 10);
        assert_eq!(src.records()[0].addr, 0x4000);
        assert_eq!(src.records()[1].delta_cycles, 50);
        assert!(src.records().iter().all(|r| r.bytes == 256));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_trace_rejected() {
        let _ = TraceSource::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "invalid trace record")]
    fn invalid_record_rejected() {
        let _ = TraceSource::new(vec![TraceRecord {
            delta_cycles: 0,
            addr: 0,
            bytes: 3,
            dir: Dir::Read,
        }]);
    }
}
