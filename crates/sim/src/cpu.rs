//! Cached CPU model.
//!
//! The critical actors of the paper run on the ARM host cluster, behind
//! caches: only their *misses* reach the shared DRAM. [`Cache`] is a
//! set-associative write-back, write-allocate cache model and
//! [`CachedSource`] wraps any CPU-side access stream (a
//! [`TrafficSource`] generating load/store addresses) so that the master
//! issues only line fills and dirty write-backs to the memory system —
//! the traffic shape that makes a task "compute-dominated" without
//! hand-tuning think times.

use crate::axi::{Dir, Response, BEAT_BYTES};
use crate::master::{PendingRequest, TrafficSource};
use crate::time::Cycle;
use fgqos_snap::StateWalker;
use std::collections::VecDeque;

/// Geometry and timing of a [`Cache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (must be a multiple of the beat size).
    pub line_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Cycles a hit costs the core.
    pub hit_latency: u64,
}

impl Default for CacheConfig {
    /// A 32 KiB, 4-way, 64 B-line L1 with a 4-cycle hit.
    fn default() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 4,
            hit_latency: 4,
        }
    }
}

impl CacheConfig {
    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() || !self.line_bytes.is_multiple_of(BEAT_BYTES) {
            return Err(format!(
                "line_bytes must be a power of two multiple of {BEAT_BYTES}"
            ));
        }
        if self.ways == 0 {
            return Err("ways must be non-zero".into());
        }
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(self.line_bytes) {
            return Err("size must be a whole number of lines".into());
        }
        let lines = self.size_bytes / self.line_bytes;
        if lines == 0 || !lines.is_multiple_of(self.ways as u64) {
            return Err("size must hold a whole number of sets".into());
        }
        let sets = lines / self.ways as u64;
        if !sets.is_power_of_two() {
            return Err("number of sets must be a power of two".into());
        }
        Ok(())
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / self.line_bytes / self.ways as u64
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line must be fetched; a dirty victim (if any) must be written
    /// back first.
    Miss {
        /// Address of the dirty line to write back, if one was evicted.
        writeback: Option<u64>,
    },
}

/// Counters of a [`Cache`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit ratio over all accesses (0.0 when none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Set-associative, write-back, write-allocate cache with LRU
/// replacement.
///
/// ```
/// use fgqos_sim::cpu::{Cache, CacheConfig, CacheOutcome};
///
/// let mut c = Cache::new(CacheConfig::default());
/// assert!(matches!(c.access(0x1000, false), CacheOutcome::Miss { .. }));
/// assert_eq!(c.access(0x1000, false), CacheOutcome::Hit);
/// assert_eq!(c.access(0x1020, false), CacheOutcome::Hit); // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid CacheConfig: {e}");
        }
        let sets = (0..cfg.sets())
            .map(|_| {
                vec![
                    Line {
                        tag: 0,
                        valid: false,
                        dirty: false,
                        lru: 0
                    };
                    cfg.ways
                ]
            })
            .collect();
        Cache {
            cfg,
            sets,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.cfg.line_bytes;
        let set = (line % self.cfg.sets()) as usize;
        let tag = line / self.cfg.sets();
        (set, tag)
    }

    /// Address of the first byte of the line containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr - addr % self.cfg.line_bytes
    }

    /// Walks the full cache state — geometry (fixed), every line, LRU
    /// clock, counters (see [`StateWalker`]).
    pub fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("cache");
        w.fixed(self.cfg.size_bytes, "cache size_bytes");
        w.fixed(self.cfg.line_bytes, "cache line_bytes");
        w.fixed(self.cfg.ways, "cache ways");
        w.fixed(self.cfg.hit_latency, "cache hit_latency");
        w.plain(&mut self.tick);
        w.plain(&mut self.stats.hits);
        w.plain(&mut self.stats.misses);
        w.plain(&mut self.stats.writebacks);
        for line in self.sets.iter_mut().flatten() {
            w.plain(&mut line.tag);
            w.plain(&mut line.valid);
            w.plain(&mut line.dirty);
            w.plain(&mut line.lru);
        }
    }

    /// Performs one access; `is_write` marks the line dirty on hit or
    /// fill (write-allocate).
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.tick += 1;
        let (set_idx, tag) = self.locate(addr);
        let sets = self.cfg.sets();
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            set[way].lru = self.tick;
            set[way].dirty |= is_write;
            self.stats.hits += 1;
            return CacheOutcome::Hit;
        }
        self.stats.misses += 1;
        // Victim: invalid way first, else LRU.
        let victim = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("ways is non-zero")
        });
        let evicted = set[victim];
        let writeback = if evicted.valid && evicted.dirty {
            self.stats.writebacks += 1;
            Some((evicted.tag * sets + set_idx as u64) * self.cfg.line_bytes)
        } else {
            None
        };
        set[victim] = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: self.tick,
        };
        CacheOutcome::Miss { writeback }
    }
}

/// Wraps a CPU-side access stream behind a [`Cache`], emitting only the
/// DRAM traffic (line fills and dirty write-backs).
///
/// The inner source's requests are interpreted as *core accesses*
/// (their `beats`/size are ignored beyond the address; `dir` marks
/// loads vs. stores). The wrapper models a blocking in-order core: hits
/// advance a local time cursor by the hit latency, the miss under
/// service blocks the core until its fill returns.
#[derive(Clone)]
pub struct CachedSource<S> {
    inner: S,
    cache: Cache,
    cursor: Cycle,
    queue: VecDeque<PendingRequest>,
    accesses_done: u64,
}

impl<S: TrafficSource> CachedSource<S> {
    /// Wraps `inner` behind a cache with configuration `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(inner: S, cfg: CacheConfig) -> Self {
        CachedSource {
            inner,
            cache: Cache::new(cfg),
            cursor: Cycle::ZERO,
            queue: VecDeque::new(),
            accesses_done: 0,
        }
    }

    /// The cache model (for statistics).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Core accesses processed so far (hits + misses).
    pub fn accesses(&self) -> u64 {
        self.accesses_done
    }

    fn line_request(&self, addr: u64, dir: Dir, not_before: Cycle) -> PendingRequest {
        PendingRequest {
            addr,
            beats: (self.cache.config().line_bytes / BEAT_BYTES) as u16,
            dir,
            not_before,
        }
    }
}

impl<S: TrafficSource + Clone + 'static> TrafficSource for CachedSource<S> {
    fn next_request(&mut self, now: Cycle) -> Option<PendingRequest> {
        if let Some(p) = self.queue.pop_front() {
            return Some(p);
        }
        // Process core accesses until a miss produces DRAM traffic or the
        // core's local time passes `now` (hits are absorbed here).
        while self.cursor <= now {
            let access = self.inner.next_request(self.cursor.max(now))?;
            self.cursor = self.cursor.max(access.not_before);
            self.accesses_done += 1;
            let hit_latency = self.cache.config().hit_latency;
            match self.cache.access(access.addr, !access.dir.is_read()) {
                CacheOutcome::Hit => {
                    self.cursor += hit_latency;
                }
                CacheOutcome::Miss { writeback } => {
                    self.cursor += hit_latency;
                    let fill_addr = self.cache.line_addr(access.addr);
                    let fill = self.line_request(fill_addr, Dir::Read, self.cursor);
                    if let Some(wb) = writeback {
                        self.queue
                            .push_back(self.line_request(wb, Dir::Write, self.cursor));
                    }
                    return Some(fill);
                }
            }
        }
        None
    }

    fn on_complete(&mut self, response: &Response, _now: Cycle) {
        // The blocking core resumes when its fill returns; write-backs
        // drain in the background.
        if response.request.dir.is_read() {
            self.cursor = self.cursor.max(response.completed_at);
        }
    }

    fn is_done(&self) -> bool {
        self.inner.is_done() && self.queue.is_empty()
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if !self.queue.is_empty() {
            // A queued write-back can be handed out any cycle.
            Some(now)
        } else if self.inner.is_done() {
            None
        } else {
            // Pulls while the core's local time is ahead of `now` return
            // `None` without touching any state; the first mutating pull
            // happens once the cursor is reached.
            Some(self.cursor.max(now))
        }
    }

    fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("cached-source");
        w.no_leap();
        self.inner.visit_state(w);
        self.cache.visit_state(w);
        w.plain(&mut self.cursor);
        let n = w.len(self.queue.len());
        self.queue.resize(n, PendingRequest::default());
        for p in &mut self.queue {
            w.plain(&mut p.addr);
            w.plain(&mut p.beats);
            w.flag(&mut p.dir, Dir::Write, Dir::Read);
            w.plain(&mut p.not_before);
        }
        w.plain(&mut self.accesses_done);
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for CachedSource<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedSource")
            .field("inner", &self.inner)
            .field("cursor", &self.cursor)
            .field("queued", &self.queue.len())
            .field("stats", self.cache.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::SequentialSource;

    fn tiny_cache() -> CacheConfig {
        // 2 sets x 2 ways x 64 B lines = 256 B.
        CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 2,
            hit_latency: 2,
        }
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::default().validate().is_ok());
        assert!(CacheConfig {
            line_bytes: 48,
            ..CacheConfig::default()
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            ways: 0,
            ..CacheConfig::default()
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 96,
            line_bytes: 64,
            ways: 1,
            hit_latency: 1
        }
        .validate()
        .is_err());
    }

    #[test]
    fn hit_after_fill_same_line() {
        let mut c = Cache::new(tiny_cache());
        assert!(matches!(
            c.access(0x100, false),
            CacheOutcome::Miss { writeback: None }
        ));
        assert_eq!(c.access(0x100, false), CacheOutcome::Hit);
        assert_eq!(c.access(0x13f, false), CacheOutcome::Hit); // same 64B line
        assert_ne!(c.access(0x140, false), CacheOutcome::Hit); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_and_dirty_writeback() {
        let mut c = Cache::new(tiny_cache());
        // Set 0 holds lines with line_index % 2 == 0: addresses 0, 128, 256...
        assert!(matches!(
            c.access(0, true),
            CacheOutcome::Miss { writeback: None }
        ));
        assert!(matches!(
            c.access(128, false),
            CacheOutcome::Miss { writeback: None }
        ));
        // Third distinct line in set 0 evicts LRU (addr 0, dirty).
        match c.access(256, false) {
            CacheOutcome::Miss {
                writeback: Some(wb),
            } => assert_eq!(wb, 0),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
        // Clean eviction produces no writeback.
        assert!(matches!(
            c.access(384, false),
            CacheOutcome::Miss { writeback: None }
        ));
    }

    #[test]
    fn lru_order_respects_recency() {
        let mut c = Cache::new(tiny_cache());
        c.access(0, false);
        c.access(128, false);
        c.access(0, false); // touch 0: now 128 is LRU
        c.access(256, false); // evicts 128
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
        assert_ne!(c.access(128, false), CacheOutcome::Hit);
    }

    #[test]
    fn cached_source_filters_hits() {
        // 16 sequential 64 B accesses over a 256 B footprint: after the
        // first 4 fills everything hits.
        let inner = SequentialSource::reads(0, 64, 64).with_footprint(256);
        let mut src = CachedSource::new(inner, tiny_cache());
        let mut fills = 0;
        let mut now = Cycle::ZERO;
        #[allow(clippy::explicit_counter_loop)]
        for _ in 0..100_000 {
            if let Some(p) = src.next_request(now) {
                assert_eq!(p.dir, Dir::Read);
                fills += 1;
                // Pretend the fill completes quickly.
                let req = crate::axi::Request::new(
                    crate::axi::MasterId::new(0),
                    fills,
                    p.addr,
                    p.beats,
                    p.dir,
                    now,
                );
                src.on_complete(
                    &Response {
                        request: req,
                        completed_at: now + 50,
                    },
                    now + 50,
                );
            }
            if src.is_done() {
                break;
            }
            now += 1;
        }
        assert!(src.is_done(), "source must drain");
        assert_eq!(fills, 4, "only the four distinct lines should miss");
        assert_eq!(src.accesses(), 64);
        assert_eq!(src.cache().stats().hits, 60);
    }

    #[test]
    fn cached_source_emits_writebacks_for_dirty_evictions() {
        // Streaming writes over a footprint larger than the cache: every
        // line is eventually evicted dirty.
        let inner = SequentialSource::writes(0, 64, 16);
        let mut src = CachedSource::new(inner, tiny_cache());
        let mut reads = 0;
        let mut writes = 0;
        let mut now = Cycle::ZERO;
        #[allow(clippy::explicit_counter_loop)]
        for _ in 0..100_000 {
            if let Some(p) = src.next_request(now) {
                match p.dir {
                    Dir::Read => reads += 1,
                    Dir::Write => writes += 1,
                }
                let req = crate::axi::Request::new(
                    crate::axi::MasterId::new(0),
                    (reads + writes) as u64,
                    p.addr,
                    p.beats,
                    p.dir,
                    now,
                );
                src.on_complete(
                    &Response {
                        request: req,
                        completed_at: now + 50,
                    },
                    now + 50,
                );
            }
            if src.is_done() {
                break;
            }
            now += 1;
        }
        assert_eq!(reads, 16, "every distinct line misses once");
        // 16 lines filled into a 4-line cache, all dirty: 12 evictions.
        assert_eq!(writes, 12);
        assert_eq!(src.cache().stats().writebacks, 12);
    }

    #[test]
    #[should_panic(expected = "invalid CacheConfig")]
    fn invalid_config_panics() {
        let _ = Cache::new(CacheConfig {
            ways: 0,
            ..CacheConfig::default()
        });
    }
}
