//! Content-addressed result cache, optionally persisted to disk.
//!
//! Jobs are addressed by a hash of their [`JobSpec`] — the scenario
//! text, cycle budget and options — so resubmitting the same job
//! returns the *same* [`Report`](fgqos_bench::report::Report) JSON
//! document without re-simulating. The cached value is the shared
//! `Arc<Value>` the worker produced: responses built from a hit
//! serialize byte-identically to the fresh run (pinned by the
//! integration tests).
//!
//! A cache opened with [`ResultCache::persistent`] additionally
//! write-throughs every insert to one file per entry
//! (`<hash:016x>.entry`, atomically via temp + rename) and falls back
//! to a lazy disk lookup on a memory miss — so a restarted server
//! answers repeat submissions from the previous process's results,
//! byte-identically. The on-disk record stores the full canonical key
//! (length-prefixed, since keys embed scenario text) next to the
//! compact report JSON; a key mismatch or unreadable file degrades to
//! an ordinary miss, never a wrong result.
//!
//! The cache never evicts; a long-running deployment is expected to
//! bound it operationally (restart, or a future LRU satellite). Entries
//! store the full canonical key alongside the hash, so a 64-bit
//! collision degrades to a miss instead of serving a wrong result.

use crate::protocol::{BatchPoint, BatchSpec, JobSpec};
use crate::recover;
use fgqos_sim::json::Value;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a 64-bit hash, the workspace's content-address function: the
/// same definition snapshot fingerprints use.
pub use fgqos_sim::fnv64;

/// The canonical cache key of a job: a stable serialization of the spec
/// plus its FNV-1a hash.
pub fn job_key(spec: &JobSpec) -> (u64, String) {
    let key = format!(
        "cycles={}\u{0}until_done={}\u{0}{}",
        spec.cycles,
        spec.until_done.as_deref().unwrap_or(""),
        spec.scenario
    );
    (fnv64(key.as_bytes()), key)
}

/// The canonical cache key of one batch point: the operation family
/// (`kind=` — sweep points and hunt candidates never alias each other or
/// single submissions), the shared prefix identity (scenario, cycles,
/// options, warm-up) plus the point's overrides. Two batches of the same
/// kind sharing a prefix reuse each other's point results, and
/// resubmitting an identical batch is answered entirely from the cache.
pub fn batch_point_key(spec: &BatchSpec, point: &BatchPoint) -> (u64, String) {
    let key = format!(
        "batch\u{0}kind={}\u{0}cycles={}\u{0}until_done={}\u{0}warmup={}\u{0}period={}\u{0}budget={}\u{0}{}",
        spec.kind.as_str(),
        spec.cycles,
        spec.until_done.as_deref().unwrap_or(""),
        spec.warmup,
        point.period,
        point.budget,
        spec.scenario
    );
    (fnv64(key.as_bytes()), key)
}

struct Entry {
    key: String,
    report: Arc<Value>,
}

/// Thread-safe content-addressed store of finished job reports.
#[derive(Default)]
pub struct ResultCache {
    entries: Mutex<HashMap<u64, Entry>>,
    disk: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// Creates an empty in-memory cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Creates a cache backed by one file per entry under `dir`
    /// (created if missing). Inserts write through; memory misses fall
    /// back to disk, so entries survive a process restart.
    pub fn persistent(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            disk: Some(dir),
            ..ResultCache::default()
        })
    }

    /// `true` when inserts are persisted to disk.
    pub fn is_persistent(&self) -> bool {
        self.disk.is_some()
    }

    fn entry_path(dir: &Path, hash: u64) -> PathBuf {
        dir.join(format!("{hash:016x}.entry"))
    }

    /// Reads a disk entry: `<key-len>\n<key bytes><compact report JSON>`.
    /// Any unreadable or mismatched file is a miss.
    fn disk_get(dir: &Path, hash: u64, key: &str) -> Option<Arc<Value>> {
        let bytes = std::fs::read(Self::entry_path(dir, hash)).ok()?;
        let newline = bytes.iter().position(|&b| b == b'\n')?;
        let len: usize = std::str::from_utf8(&bytes[..newline]).ok()?.parse().ok()?;
        let key_end = (newline + 1).checked_add(len)?;
        if key_end > bytes.len() || &bytes[newline + 1..key_end] != key.as_bytes() {
            return None;
        }
        let report = std::str::from_utf8(&bytes[key_end..]).ok()?;
        Some(Arc::new(Value::parse(report.trim_end()).ok()?))
    }

    fn disk_put(dir: &Path, hash: u64, key: &str, report: &Value) {
        let path = Self::entry_path(dir, hash);
        if path.exists() {
            return;
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(key.len().to_string().as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(key.as_bytes());
        bytes.extend_from_slice(report.to_compact().as_bytes());
        bytes.push(b'\n');
        // Atomic publish: a concurrent reader sees the old file or the
        // complete new one, never a torn write. Failure to persist is
        // tolerated — the in-memory entry still serves this process.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if std::fs::write(&tmp, &bytes).is_ok() && std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Looks up a finished report, counting the hit or miss. Persistent
    /// caches consult disk on a memory miss (and promote the entry).
    pub fn get(&self, hash: u64, key: &str) -> Option<Arc<Value>> {
        let mut entries = recover(self.entries.lock());
        match entries.get(&hash) {
            Some(e) if e.key == key => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.report))
            }
            Some(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => match self
                .disk
                .as_deref()
                .and_then(|dir| Self::disk_get(dir, hash, key))
            {
                Some(report) => {
                    entries.insert(
                        hash,
                        Entry {
                            key: key.to_string(),
                            report: Arc::clone(&report),
                        },
                    );
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some(report)
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
        }
    }

    /// Stores a finished report under its content address
    /// (write-through to disk for persistent caches).
    pub fn insert(&self, hash: u64, key: String, report: Arc<Value>) {
        let mut entries = recover(self.entries.lock());
        if let Some(dir) = self.disk.as_deref() {
            Self::disk_put(dir, hash, &key, &report);
        }
        entries.entry(hash).or_insert(Entry { key, report });
    }

    /// Number of cached reports.
    pub fn len(&self) -> usize {
        recover(self.entries.lock()).len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits over total lookups (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let total = h + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            h / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BatchKind;

    fn spec(text: &str, cycles: u64) -> JobSpec {
        JobSpec {
            scenario: text.to_string(),
            cycles,
            until_done: None,
        }
    }

    #[test]
    fn key_separates_every_field() {
        let a = job_key(&spec("s", 100)).0;
        assert_ne!(a, job_key(&spec("s", 101)).0, "cycles must matter");
        assert_ne!(a, job_key(&spec("t", 100)).0, "scenario must matter");
        let mut with_done = spec("s", 100);
        with_done.until_done = Some("cpu".into());
        assert_ne!(a, job_key(&with_done).0, "until_done must matter");
        assert_eq!(a, job_key(&spec("s", 100)).0, "equal specs collide");
    }

    #[test]
    fn batch_point_key_separates_every_field() {
        let base = BatchSpec {
            scenario: "s".into(),
            cycles: 100,
            until_done: None,
            warmup: 50,
            points: Vec::new(),
            kind: BatchKind::Sweep,
        };
        let p = BatchPoint {
            period: 10,
            budget: 20,
        };
        let a = batch_point_key(&base, &p).0;
        let mut warm = base.clone();
        warm.warmup = 51;
        assert_ne!(a, batch_point_key(&warm, &p).0, "warmup must matter");
        let mut q = p;
        q.period = 11;
        assert_ne!(a, batch_point_key(&base, &q).0, "period must matter");
        q = p;
        q.budget = 21;
        assert_ne!(a, batch_point_key(&base, &q).0, "budget must matter");
        let mut hunt = base.clone();
        hunt.kind = BatchKind::Hunt;
        assert_ne!(a, batch_point_key(&hunt, &p).0, "kind must matter");
        // A single-job key over the same scenario never aliases a batch
        // point's key.
        assert_ne!(a, job_key(&spec("s", 100)).0);
        assert_eq!(a, batch_point_key(&base.clone(), &p).0);
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = ResultCache::new();
        let (hash, key) = job_key(&spec("s", 100));
        assert!(cache.get(hash, &key).is_none());
        cache.insert(hash, key.clone(), Arc::new(Value::from(1u64)));
        let hit = cache.get(hash, &key).expect("cached");
        assert_eq!(hit.as_u64(), Some(1));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hash_collision_degrades_to_miss() {
        let cache = ResultCache::new();
        cache.insert(42, "key-a".into(), Arc::new(Value::from(1u64)));
        assert!(
            cache.get(42, "key-b").is_none(),
            "same hash, different key must miss"
        );
    }

    #[test]
    fn persistent_cache_survives_a_restart() {
        let dir = std::env::temp_dir().join(format!("fgqos-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (hash, key) = job_key(&spec("multi\nline scenario", 42));
        let mut report = Value::obj();
        report.set("rows", Value::from(3u64));
        let compact = report.to_compact();
        {
            let cache = ResultCache::persistent(&dir).expect("opens");
            assert!(cache.is_persistent());
            cache.insert(hash, key.clone(), Arc::new(report));
        }
        // A fresh cache over the same directory — a restarted process.
        let cache = ResultCache::persistent(&dir).expect("reopens");
        let hit = cache.get(hash, &key).expect("disk entry restores");
        assert_eq!(
            hit.to_compact(),
            compact,
            "restored report serializes byte-identically"
        );
        assert_eq!(cache.hits(), 1);
        // The wrong key for the same hash must miss, not mis-serve.
        let cache2 = ResultCache::persistent(&dir).expect("reopens");
        assert!(cache2.get(hash, "some other key").is_none());
        // A corrupted entry degrades to a miss.
        let path = dir.join(format!("{hash:016x}.entry"));
        std::fs::write(&path, b"7\ngarbage{not json").expect("corrupt");
        let cache3 = ResultCache::persistent(&dir).expect("reopens");
        assert!(cache3.get(hash, &key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_value_is_shared_not_copied() {
        let cache = ResultCache::new();
        let report = Arc::new(Value::str("report"));
        cache.insert(7, "k".into(), Arc::clone(&report));
        let a = cache.get(7, "k").unwrap();
        assert!(Arc::ptr_eq(&a, &report), "hits return the stored Arc");
    }
}
