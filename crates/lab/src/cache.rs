//! Content-addressed result cache: in-memory memoization with optional
//! one-line-per-record persistence and self-healing integrity checks.
//!
//! Keys are [`RunKey`](crate::key::RunKey) digests (32 hex chars);
//! values are [`RunResult`]s. The in-memory layer is a bounded map with
//! FIFO eviction; the optional disk layer stores each record as a file
//! named after its digest so concurrent writers never interleave.
//!
//! Every disk record carries a trailing splitmix64 checksum computed
//! over `"{digest} {v1-line}"` — binding the record to its *filename*
//! as well as its bytes, so a record copied under the wrong digest, a
//! torn write, or bit rot all fail verification. A record that fails is
//! **quarantined** (moved into a `quarantine/` subdirectory, never
//! deleted), counted in [`CacheStats::corrupt`], and the run is simply
//! recomputed; forensics survive, output bytes never change.
//!
//! Counters (hits / misses / evictions / corrupt) are for the
//! human-readable run summary only. Under a parallel pool two workers
//! may race on the same duplicated key and both miss, so counter values
//! can vary by ±ε with thread count — result *bytes* never do.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::result::{line_checksum, RunResult};

/// Name of the subdirectory corrupt records are moved into (next to the
/// `.rec` files). Never garbage-collected, never deleted by the lab.
pub const QUARANTINE_SUBDIR: &str = "quarantine";

/// Snapshot of cache activity for the run summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that had to execute the run.
    pub misses: u64,
    /// In-memory records dropped to respect the capacity bound.
    pub evictions: u64,
    /// Disk records that failed checksum/parse verification on read.
    pub corrupt: u64,
    /// Corrupt records successfully moved into `quarantine/` (≤
    /// `corrupt`: the move can fail on a read-only directory).
    pub quarantined: u64,
}

impl CacheStats {
    /// Hit rate in percent (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / total as f64
        }
    }
}

struct MemCache {
    map: HashMap<String, RunResult>,
    order: std::collections::VecDeque<String>,
    capacity: usize,
}

/// Thread-safe content-addressed cache.
pub struct ResultCache {
    mem: Mutex<MemCache>,
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
    quarantined: AtomicU64,
    /// Digests whose disk record was found corrupt (and possibly left
    /// in place because quarantining failed, e.g. read-only dir): never
    /// re-read, so a bad record is paid for exactly once.
    bad: Mutex<std::collections::HashSet<String>>,
    /// Set after the first failed disk write: the cache degrades to
    /// memory-only memoization instead of failing every run.
    disk_dead: AtomicBool,
}

/// Encode a disk record: the `v1` result line plus a trailing checksum
/// over `"{digest} {line}"`, binding content to filename.
fn encode_record(digest: &str, result: &RunResult) -> String {
    let line = result.to_line();
    let sum = line_checksum(&format!("{digest} {line}"));
    format!("{line} {sum:016x}\n")
}

/// Decode and verify a disk record read from `{digest}.rec`. `None` on
/// any malformation: missing/short checksum, checksum mismatch (torn
/// write, bit rot, record under the wrong filename), or an unparseable
/// result line.
fn decode_record(digest: &str, text: &str) -> Option<RunResult> {
    let text = text.trim_end();
    let (line, sum_hex) = text.rsplit_once(' ')?;
    if sum_hex.len() != 16 {
        return None;
    }
    let sum = u64::from_str_radix(sum_hex, 16).ok()?;
    if sum != line_checksum(&format!("{digest} {line}")) {
        return None;
    }
    RunResult::from_line(line)
}

/// Move `{digest}.rec` into `dir/quarantine/`, creating the
/// subdirectory on demand. Returns whether the move succeeded (it can
/// fail on a read-only directory; the record is then left in place).
fn quarantine_record(dir: &Path, digest: &str) -> bool {
    let qdir = dir.join(QUARANTINE_SUBDIR);
    std::fs::create_dir_all(&qdir).is_ok()
        && std::fs::rename(
            dir.join(format!("{digest}.rec")),
            qdir.join(format!("{digest}.rec")),
        )
        .is_ok()
}

impl ResultCache {
    /// A cache holding up to `capacity` in-memory records, persisting to
    /// `dir` when given. The directory is created lazily on first store.
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> ResultCache {
        ResultCache {
            mem: Mutex::new(MemCache {
                map: HashMap::new(),
                order: std::collections::VecDeque::new(),
                capacity: capacity.max(1),
            }),
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            bad: Mutex::new(std::collections::HashSet::new()),
            disk_dead: AtomicBool::new(false),
        }
    }

    fn record_path(dir: &Path, digest: &str) -> PathBuf {
        dir.join(format!("{digest}.rec"))
    }

    /// Look up a digest; counts a hit or a miss. A disk record that
    /// fails verification is quarantined on first sight (see the module
    /// docs) and the lookup is a miss — so the caller recomputes and
    /// output bytes are unaffected.
    pub fn get(&self, digest: &str) -> Option<RunResult> {
        {
            // A worker panic while holding the lock must not poison the
            // whole sweep's memoization.
            let mem = self.mem.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(r) = mem.map.get(digest) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(*r);
            }
        }
        if let Some(dir) = &self.dir {
            let known_bad = self
                .bad
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .contains(digest);
            if !known_bad {
                if let Ok(text) = std::fs::read_to_string(Self::record_path(dir, digest)) {
                    match decode_record(digest, &text) {
                        Some(r) => {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            self.insert_mem(digest, r);
                            return Some(r);
                        }
                        None => {
                            // Corrupt: quarantine once, remember the
                            // digest so it is never re-read (the move
                            // can fail on a read-only dir).
                            self.corrupt.fetch_add(1, Ordering::Relaxed);
                            if quarantine_record(dir, digest) {
                                self.quarantined.fetch_add(1, Ordering::Relaxed);
                            }
                            self.bad
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .insert(digest.to_string());
                        }
                    }
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn insert_mem(&self, digest: &str, result: RunResult) {
        let mut mem = self.mem.lock().unwrap_or_else(PoisonError::into_inner);
        if mem.map.contains_key(digest) {
            return;
        }
        if mem.map.len() >= mem.capacity {
            if let Some(old) = mem.order.pop_front() {
                mem.map.remove(&old);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        mem.map.insert(digest.to_string(), result);
        mem.order.push_back(digest.to_string());
    }

    /// Store a result under its digest (memory + disk when configured).
    ///
    /// Disk write failures are non-fatal: the first one prints a single
    /// warning to stderr and the cache degrades to memory-only
    /// memoization — the sweep's results are intact either way. The
    /// returned error reports that first failure so callers that *want*
    /// to surface it can.
    pub fn put(&self, digest: &str, result: RunResult) -> Result<(), String> {
        self.insert_mem(digest, result);
        if let Some(dir) = &self.dir {
            if self.disk_dead.load(Ordering::Relaxed) {
                return Ok(());
            }
            if let Err(e) = Self::disk_put(dir, digest, &result) {
                if !self.disk_dead.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "warning: cache dir {} is unwritable ({e}); \
                         continuing with memory-only memoization",
                        dir.display()
                    );
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn disk_put(dir: &Path, digest: &str, result: &RunResult) -> Result<(), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("create cache dir {}: {e}", dir.display()))?;
        let path = Self::record_path(dir, digest);
        // Write-then-rename so a concurrent reader never sees a
        // truncated record. Every write gets its own temp file (pid
        // plus a process-wide sequence number): two workers persisting
        // the same digest each rename their own identical bytes into
        // place instead of racing on one temp name.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!("{digest}.tmp{}-{seq}", std::process::id()));
        std::fs::write(&tmp, encode_record(digest, result))
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
        Ok(())
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// Bounds for [`gc_dir`]. `None` fields don't constrain; with both
/// `None` the sweep only reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcConfig {
    /// Keep at most this many bytes of `.rec` records (oldest evicted
    /// first until under the bound).
    pub max_bytes: Option<u64>,
    /// Evict records whose modification time is older than this many
    /// seconds.
    pub max_age_secs: Option<u64>,
    /// Report what would be evicted without deleting anything.
    pub dry_run: bool,
}

/// What a [`gc_dir`] sweep did (or, under `dry_run`, would do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Records found.
    pub scanned: u64,
    /// Records evicted (or marked for eviction under `dry_run`).
    pub evicted: u64,
    /// Total record bytes before the sweep.
    pub bytes_before: u64,
    /// Total record bytes after the sweep.
    pub bytes_after: u64,
    /// Records sitting in `quarantine/` — reported, never evicted.
    pub quarantined: u64,
    /// Total bytes held by quarantined records.
    pub quarantined_bytes: u64,
}

/// Size/age-bounded eviction over a persistent cache directory.
///
/// Scans `dir` for `*.rec` records, evicts everything older than
/// `max_age_secs`, then — if the survivors still exceed `max_bytes` —
/// keeps evicting oldest-first until under the bound. "Oldest" is by
/// modification time with the file name as a deterministic tie-break.
/// Concurrent writers are safe: a record that disappears mid-sweep is
/// skipped, and an evicted record is merely a future cache miss.
///
/// The `quarantine/` subdirectory is never swept — corrupt records are
/// evidence, not garbage — but its contents are counted in the report
/// so an operator sees them pile up.
pub fn gc_dir(dir: &Path, cfg: &GcConfig) -> Result<GcReport, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        // A missing directory holds zero records; nothing to do.
        Err(_) => return Ok(GcReport::default()),
    };
    let mut records: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().map(|e| e != "rec").unwrap_or(true) {
            continue;
        }
        if let Ok(meta) = entry.metadata() {
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            records.push((path, meta.len(), mtime));
        }
    }
    // Oldest first; equal mtimes fall back to name order so the sweep
    // is deterministic.
    records.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));

    let bytes_before: u64 = records.iter().map(|r| r.1).sum();
    let now = std::time::SystemTime::now();
    let mut evict = vec![false; records.len()];
    if let Some(age) = cfg.max_age_secs {
        for (i, (_, _, mtime)) in records.iter().enumerate() {
            let old = now
                .duration_since(*mtime)
                .map(|d| d.as_secs() > age)
                .unwrap_or(false);
            if old {
                evict[i] = true;
            }
        }
    }
    if let Some(max) = cfg.max_bytes {
        let mut kept: u64 = records
            .iter()
            .zip(&evict)
            .filter(|(_, &e)| !e)
            .map(|(r, _)| r.1)
            .sum();
        for (i, (_, len, _)) in records.iter().enumerate() {
            if kept <= max {
                break;
            }
            if !evict[i] {
                evict[i] = true;
                kept -= len;
            }
        }
    }
    let mut report = GcReport {
        scanned: records.len() as u64,
        bytes_before,
        bytes_after: bytes_before,
        ..GcReport::default()
    };
    for ((path, len, _), &doomed) in records.iter().zip(&evict) {
        if !doomed {
            continue;
        }
        if cfg.dry_run || std::fs::remove_file(path).is_ok() {
            report.evicted += 1;
            report.bytes_after -= len;
        }
    }
    // Count (never touch) the quarantine.
    if let Ok(qentries) = std::fs::read_dir(dir.join(QUARANTINE_SUBDIR)) {
        for entry in qentries.flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    report.quarantined += 1;
                    report.quarantined_bytes += meta.len();
                }
            }
        }
    }
    Ok(report)
}

/// What an offline [`fsck_dir`] verification pass found (and, unless
/// `dry_run`, repaired by quarantining).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsckReport {
    /// `.rec` records examined.
    pub scanned: u64,
    /// Records whose checksum and result line verified.
    pub ok: u64,
    /// Records that failed verification.
    pub corrupt: u64,
    /// Corrupt records moved into `quarantine/` this pass (0 under
    /// `dry_run`; can trail `corrupt` if a move fails).
    pub quarantined: u64,
    /// Records already sitting in `quarantine/` before this pass.
    pub previously_quarantined: u64,
}

/// Offline cache verification: read every `*.rec` record in `dir`,
/// verify its trailing checksum against its filename digest and parse
/// the result line, and quarantine (never delete) everything that
/// fails. With `dry_run` the pass only reports. A missing directory is
/// an empty, successful pass.
///
/// The scan order is sorted by file name so reports are deterministic.
pub fn fsck_dir(dir: &Path, dry_run: bool) -> Result<FsckReport, String> {
    let mut report = FsckReport::default();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(report),
    };
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().map(|e| e == "rec").unwrap_or(false))
        .collect();
    paths.sort();
    for path in paths {
        let digest = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        report.scanned += 1;
        let good = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| decode_record(&digest, &text))
            .is_some();
        if good {
            report.ok += 1;
        } else {
            report.corrupt += 1;
            if !dry_run && quarantine_record(dir, &digest) {
                report.quarantined += 1;
            }
        }
    }
    if let Ok(qentries) = std::fs::read_dir(dir.join(QUARANTINE_SUBDIR)) {
        report.previously_quarantined = qentries
            .flatten()
            .filter(|e| e.metadata().map(|m| m.is_file()).unwrap_or(false))
            .count() as u64
            - report.quarantined;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(t: f64) -> RunResult {
        RunResult::model(true, t, 2.0 * t, 100.0)
    }

    #[test]
    fn memoizes_and_counts() {
        let cache = ResultCache::new(16, None);
        assert!(cache.get("aa").is_none());
        cache.put("aa", r(1.0)).unwrap();
        assert_eq!(cache.get("aa"), Some(r(1.0)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert!((s.hit_rate() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn evicts_fifo_at_capacity() {
        let cache = ResultCache::new(2, None);
        cache.put("a", r(1.0)).unwrap();
        cache.put("b", r(2.0)).unwrap();
        cache.put("c", r(3.0)).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get("a").is_none()); // oldest evicted
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn duplicate_put_does_not_grow() {
        let cache = ResultCache::new(2, None);
        cache.put("a", r(1.0)).unwrap();
        cache.put("a", r(1.0)).unwrap();
        cache.put("b", r(2.0)).unwrap();
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.get("a").is_some());
    }

    /// Write a record and pin its mtime to `age_secs` seconds ago, so
    /// eviction order is under test control rather than timing luck.
    fn write_aged(dir: &Path, name: &str, bytes: usize, age_secs: u64) {
        let path = dir.join(format!("{name}.rec"));
        std::fs::write(&path, vec![b'x'; bytes]).unwrap();
        let mtime = std::time::SystemTime::now() - std::time::Duration::from_secs(age_secs);
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(mtime))
            .unwrap();
    }

    #[test]
    fn gc_evicts_oldest_first_under_size_bound() {
        let dir = std::env::temp_dir().join(format!("psse-lab-gc-size-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Lexicographically *latest* name is the *oldest* record, so a
        // name-ordered sweep would get this wrong.
        write_aged(&dir, "zzzz", 100, 300);
        write_aged(&dir, "mmmm", 100, 200);
        write_aged(&dir, "aaaa", 100, 100);
        let report = gc_dir(
            &dir,
            &GcConfig {
                max_bytes: Some(150),
                ..GcConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.scanned, 3);
        assert_eq!(report.evicted, 2);
        assert_eq!(report.bytes_before, 300);
        assert_eq!(report.bytes_after, 100);
        assert!(!dir.join("zzzz.rec").exists(), "oldest must go first");
        assert!(!dir.join("mmmm.rec").exists());
        assert!(dir.join("aaaa.rec").exists(), "newest survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_age_bound_and_dry_run() {
        let dir = std::env::temp_dir().join(format!("psse-lab-gc-age-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_aged(&dir, "old", 50, 3600);
        write_aged(&dir, "new", 50, 10);
        // Non-record files are never touched.
        std::fs::write(dir.join("notes.txt"), "keep me").unwrap();

        let dry = gc_dir(
            &dir,
            &GcConfig {
                max_age_secs: Some(600),
                dry_run: true,
                ..GcConfig::default()
            },
        )
        .unwrap();
        assert_eq!((dry.scanned, dry.evicted), (2, 1));
        assert!(dir.join("old.rec").exists(), "dry run deletes nothing");

        let real = gc_dir(
            &dir,
            &GcConfig {
                max_age_secs: Some(600),
                ..GcConfig::default()
            },
        )
        .unwrap();
        assert_eq!(real.evicted, 1);
        assert!(!dir.join("old.rec").exists());
        assert!(dir.join("new.rec").exists());
        assert!(dir.join("notes.txt").exists());
        // A missing directory is an empty sweep, not an error.
        let gone = gc_dir(&dir.join("nope"), &GcConfig::default()).unwrap();
        assert_eq!(gone, GcReport::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persists_and_reloads_from_disk() {
        let dir = std::env::temp_dir().join(format!("psse-lab-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ResultCache::new(16, Some(dir.clone()));
            cache.put("deadbeef", r(4.0)).unwrap();
        }
        // Fresh cache instance: memory empty, record comes from disk.
        let cache = ResultCache::new(16, Some(dir.clone()));
        assert_eq!(cache.get("deadbeef"), Some(r(4.0)));
        assert_eq!(cache.stats().hits, 1);
        // Corrupt record reads as a miss and is quarantined, not deleted.
        std::fs::write(dir.join("ffff.rec"), "garbage\n").unwrap();
        assert!(cache.get("ffff").is_none());
        let s = cache.stats();
        assert_eq!((s.corrupt, s.quarantined), (1, 1));
        assert!(!dir.join("ffff.rec").exists(), "moved out of the cache");
        assert!(
            dir.join(QUARANTINE_SUBDIR).join("ffff.rec").exists(),
            "preserved for forensics"
        );
        // Second lookup: still a miss, but the record is not re-read
        // and the corrupt counter does not climb.
        assert!(cache.get("ffff").is_none());
        assert_eq!(cache.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_bound_to_wrong_filename_is_quarantined() {
        // A bit-perfect record copied under a different digest must not
        // verify: the checksum covers the filename digest too.
        let dir = std::env::temp_dir().join(format!("psse-lab-cache-xname-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(16, Some(dir.clone()));
        cache.put("aaaa", r(1.0)).unwrap();
        std::fs::copy(dir.join("aaaa.rec"), dir.join("bbbb.rec")).unwrap();
        let fresh = ResultCache::new(16, Some(dir.clone()));
        assert!(fresh.get("bbbb").is_none());
        assert_eq!(fresh.stats().corrupt, 1);
        assert!(dir.join(QUARANTINE_SUBDIR).join("bbbb.rec").exists());
        // The genuine record still verifies.
        assert_eq!(fresh.get("aaaa"), Some(r(1.0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_reports_quarantine_without_touching_it() {
        let dir = std::env::temp_dir().join(format!("psse-lab-gc-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(QUARANTINE_SUBDIR)).unwrap();
        write_aged(&dir, "live", 40, 7200);
        std::fs::write(dir.join(QUARANTINE_SUBDIR).join("bad.rec"), "garbage\n").unwrap();
        // Evict everything evictable: the quarantined record must
        // survive and be reported separately.
        let report = gc_dir(
            &dir,
            &GcConfig {
                max_bytes: Some(0),
                ..GcConfig::default()
            },
        )
        .unwrap();
        assert_eq!((report.scanned, report.evicted), (1, 1));
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.quarantined_bytes, 8);
        assert!(!dir.join("live.rec").exists());
        assert!(dir.join(QUARANTINE_SUBDIR).join("bad.rec").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_verifies_quarantines_and_reports() {
        let dir = std::env::temp_dir().join(format!("psse-lab-fsck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(16, Some(dir.clone()));
        cache.put("good", r(1.0)).unwrap();
        cache.put("torn", r(2.0)).unwrap();
        // Truncate one record mid-line, plant one unparseable one.
        let torn = std::fs::read_to_string(dir.join("torn.rec")).unwrap();
        std::fs::write(dir.join("torn.rec"), &torn[..torn.len() / 2]).unwrap();
        std::fs::write(dir.join("junk.rec"), "not a record\n").unwrap();

        let dry = fsck_dir(&dir, true).unwrap();
        assert_eq!((dry.scanned, dry.ok, dry.corrupt), (3, 1, 2));
        assert_eq!(dry.quarantined, 0, "dry run moves nothing");
        assert!(dir.join("junk.rec").exists());

        let real = fsck_dir(&dir, false).unwrap();
        assert_eq!((real.scanned, real.ok, real.corrupt), (3, 1, 2));
        assert_eq!(real.quarantined, 2);
        assert!(dir.join("good.rec").exists());
        assert!(dir.join(QUARANTINE_SUBDIR).join("torn.rec").exists());
        assert!(dir.join(QUARANTINE_SUBDIR).join("junk.rec").exists());

        // A second pass sees a clean cache and the old quarantine.
        let again = fsck_dir(&dir, false).unwrap();
        assert_eq!((again.scanned, again.ok, again.corrupt), (1, 1, 0));
        assert_eq!(again.previously_quarantined, 2);
        // Missing directory: empty pass.
        assert_eq!(
            fsck_dir(&dir.join("nope"), false).unwrap(),
            FsckReport::default()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_puts_of_one_digest_all_reach_disk() {
        // Workers persisting the same digest at the same instant must
        // not race on a shared temp file: every put succeeds, the
        // record decodes, and the disk layer stays alive afterwards.
        let dir = std::env::temp_dir().join(format!("psse-lab-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(16, Some(dir.clone()));
        let threads = 4;
        let barrier = std::sync::Barrier::new(threads);
        for round in 0..100 {
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        barrier.wait();
                        assert_eq!(cache.put("abcd", r(1.0)), Ok(()), "round {round}");
                    });
                }
            });
        }
        let text = std::fs::read_to_string(dir.join("abcd.rec")).unwrap();
        assert_eq!(decode_record("abcd", &text), Some(r(1.0)));
        cache.put("ef01", r(2.0)).unwrap();
        assert!(dir.join("ef01.rec").exists(), "disk layer still alive");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().all(|n| n.ends_with(".rec")), "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_degrades_to_memory_only() {
        // Point the disk layer at a path that cannot be a directory (a
        // regular file), so every write fails: the cache must keep
        // memoizing in memory and keep returning Ok after warning once.
        let base = std::env::temp_dir().join(format!("psse-lab-degrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let not_a_dir = base.join("file");
        std::fs::write(&not_a_dir, "occupied").unwrap();
        let cache = ResultCache::new(16, Some(not_a_dir.clone()));
        let first = cache.put("aa", r(1.0));
        assert!(first.is_err(), "first failure is reported");
        assert!(cache.put("bb", r(2.0)).is_ok(), "then degraded quietly");
        assert_eq!(cache.get("aa"), Some(r(1.0)), "memory layer still works");
        assert_eq!(cache.get("bb"), Some(r(2.0)));
        let _ = std::fs::remove_dir_all(&base);
    }
}
