//! Crash-safe sweep journal: one self-checksummed line per distinct
//! completed run digest, so an interrupted sweep resumes instead of
//! restarting.
//!
//! # Format
//!
//! A journal is a line-oriented text file:
//!
//! ```text
//! journal  = header run*
//! header   = "psse-lab-journal v1 " spec-digest " " checksum "\n"
//! run      = "run " key-digest " " v1-result-line " " checksum "\n"
//! checksum = 16 lowercase hex chars (splitmix64 of everything before it)
//! ```
//!
//! `spec-digest` hashes the sweep's ordered run-key digests, so a
//! journal can only resume the sweep it was recorded for. Every line
//! carries a trailing [`line_checksum`] over its own body: a crash mid
//! `write(2)` leaves a torn tail that fails either the newline or the
//! checksum test, and [`Journal::open_resume`] truncates the file back
//! to the last intact line before replaying it. Only *successful* runs
//! are journaled — failures re-execute on resume, which is exactly what
//! a crashed or timed-out key needs.
//!
//! A journal remembers every digest it holds, replayed or written, and
//! records each one once: duplicate keys within a sweep and hits on
//! replayed results append nothing, so resuming a complete journal
//! appends nothing.
//!
//! # Batching
//!
//! Workers format their lines outside the journal's lock; the journal
//! collects them in one buffer and writes it with a single `write_all`
//! once it passes 64 KiB, on [`Journal::flush`] (the lab calls
//! it before a sweep returns) and on drop. A line is durable once its
//! batch is written, not at its first completion: a kill loses at most
//! the unwritten batch, and those keys simply re-execute on resume. A
//! kill *during* a batch write leaves a torn tail, which replay
//! truncates like any other.
//!
//! Replayed results seed the lab's in-memory cache, so the resumed
//! sweep recomputes only what is missing and the final CSV is
//! byte-identical to an uninterrupted run (results round-trip through
//! the same exact-bits `v1` encoding the disk cache uses).

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::key::RunKey;
use crate::result::{line_checksum, LineHasher, RunResult};

const HEADER_PREFIX: &str = "psse-lab-journal v1";

/// Pending lines are written once the batch passes this many bytes.
pub(crate) const BATCH_BYTES: usize = 64 * 1024;

/// Digest of a sweep's identity: splitmix64 chains over the ordered
/// run-key digests. Two sweeps share a journal iff they expand to the
/// same keys in the same order.
///
/// The value is [`line_checksum`] of `"spec-hi "` (resp. `"spec-lo "`)
/// followed by the key digests joined by single spaces; the digests
/// are streamed through the checksum rather than joined first.
pub fn spec_digest(keys: &[RunKey]) -> String {
    // Every run-key digest is 32 hex chars; both prefixes are 8 bytes.
    const DIGEST_LEN: usize = 32;
    let len = 8 + keys.len() * (DIGEST_LEN + 1) - usize::from(!keys.is_empty());
    // Two salted chains for 128 bits, like the run-key digest itself.
    let mut hi = LineHasher::new(len);
    let mut lo = LineHasher::new(len);
    hi.write(b"spec-hi ");
    lo.write(b"spec-lo ");
    for (i, key) in keys.iter().enumerate() {
        let digest = key.digest();
        assert_eq!(digest.len(), DIGEST_LEN, "run-key digests are 32 hex chars");
        if i > 0 {
            hi.write(b" ");
            lo.write(b" ");
        }
        hi.write(digest.as_bytes());
        lo.write(digest.as_bytes());
    }
    format!("{:016x}{:016x}", hi.finish(), lo.finish())
}

fn header_line(spec: &str) -> String {
    let body = format!("{HEADER_PREFIX} {spec}");
    format!("{body} {:016x}\n", line_checksum(&body))
}

/// Parse a (newline-stripped) header line; returns the spec digest it
/// claims, `None` on any malformation.
fn parse_header(line: &str) -> Option<String> {
    let (body, sum_hex) = line.rsplit_once(' ')?;
    if sum_hex.len() != 16 {
        return None;
    }
    let sum = u64::from_str_radix(sum_hex, 16).ok()?;
    if sum != line_checksum(body) {
        return None;
    }
    let spec = body.strip_prefix(HEADER_PREFIX)?.strip_prefix(' ')?;
    Some(spec.to_string())
}

fn run_line(digest: &str, result: &RunResult) -> String {
    let mut line = format!("run {digest} {}", result.to_line());
    let sum = line_checksum(&line);
    let _ = writeln!(line, " {sum:016x}");
    line
}

/// Parse a (newline-stripped) run line into `(key digest, result)`;
/// `None` on any malformation — including a torn tail, whose checksum
/// cannot match.
fn parse_run_line(line: &str) -> Option<(String, RunResult)> {
    let (body, sum_hex) = line.rsplit_once(' ')?;
    if sum_hex.len() != 16 {
        return None;
    }
    let sum = u64::from_str_radix(sum_hex, 16).ok()?;
    if sum != line_checksum(body) {
        return None;
    }
    let rest = body.strip_prefix("run ")?;
    let (digest, result_line) = rest.split_once(' ')?;
    let result = RunResult::from_line(result_line)?;
    Some((digest.to_string(), result))
}

/// An append-only sweep journal (see the module docs for the format).
/// Thread-safe: workers record completions concurrently; lines are
/// written in batches, each with a single `write_all` under a lock.
pub struct Journal {
    path: PathBuf,
    file: Mutex<Appender>,
    write_failed: AtomicBool,
}

/// The open file, the digests it holds or will hold once the pending
/// batch is written, and that batch, under one lock.
struct Appender {
    file: std::fs::File,
    written: HashSet<String>,
    batch: Vec<u8>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

impl Journal {
    fn new(path: &Path, file: std::fs::File, written: HashSet<String>) -> Journal {
        Journal {
            path: path.to_path_buf(),
            file: Mutex::new(Appender {
                file,
                written,
                batch: Vec::with_capacity(BATCH_BYTES + 1024),
            }),
            write_failed: AtomicBool::new(false),
        }
    }

    /// Start a fresh journal at `path` for the sweep identified by
    /// `spec` (see [`spec_digest`]): truncates whatever was there and
    /// writes the header.
    pub fn create(path: &Path, spec: &str) -> Result<Journal, String> {
        let mut file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        file.write_all(header_line(spec).as_bytes())
            .map_err(|e| format!("cannot write journal header {}: {e}", path.display()))?;
        Ok(Journal::new(path, file, HashSet::new()))
    }

    /// Resume from an existing journal: validate the header against
    /// `spec`, replay every intact run line, truncate any torn tail,
    /// and reopen for appending. Returns the journal and the replayed
    /// `digest → result` map.
    ///
    /// A missing file starts a fresh journal (so `--resume` works on
    /// the very first attempt too). A journal whose header names a
    /// *different* spec is a hard error — silently mixing sweeps would
    /// corrupt both. A journal whose header itself is torn is treated
    /// as empty and rewritten.
    pub fn open_resume(
        path: &Path,
        spec: &str,
    ) -> Result<(Journal, HashMap<String, RunResult>), String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Journal::create(path, spec)?, HashMap::new()));
            }
            Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
        };
        let mut lines = text.split_inclusive('\n');
        let header_ok = match lines.next() {
            Some(h) if h.ends_with('\n') => match parse_header(h.trim_end()) {
                Some(found) if found == spec => true,
                Some(found) => {
                    return Err(format!(
                        "journal {} belongs to a different sweep \
                         (spec digest {found}, this sweep is {spec}); \
                         refusing to resume",
                        path.display()
                    ));
                }
                None => false,
            },
            _ => false,
        };
        if !header_ok {
            // Torn or empty header: nothing trustworthy to replay.
            return Ok((Journal::create(path, spec)?, HashMap::new()));
        }
        let mut valid_bytes = header_line(spec).len() as u64;
        let mut replayed = HashMap::new();
        for line in lines {
            if !line.ends_with('\n') {
                break;
            }
            match parse_run_line(line.trim_end()) {
                Some((digest, result)) => {
                    replayed.insert(digest, result);
                    valid_bytes += line.len() as u64;
                }
                None => break,
            }
        }
        // Drop the torn tail (if any), then append after the intact
        // prefix.
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("cannot reopen journal {}: {e}", path.display()))?;
        file.set_len(valid_bytes)
            .map_err(|e| format!("cannot truncate journal {}: {e}", path.display()))?;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot reopen journal {}: {e}", path.display()))?;
        file.flush().ok();
        let written = replayed.keys().cloned().collect();
        Ok((Journal::new(path, file, written), replayed))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Appender> {
        self.file.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append one completed run, unless the journal already holds its
    /// digest: one line per distinct completed run digest, so resuming
    /// a complete journal appends nothing. The line joins the pending
    /// batch (see the module docs). Best-effort: a write failure warns
    /// once on stderr and the sweep continues (the journal is a
    /// recovery aid, not a correctness dependency); the digests of the
    /// lost batch are then tried again on their next completion.
    pub fn record(&self, digest: &str, result: &RunResult) {
        if self.lock().written.contains(digest) {
            return;
        }
        // Formatting and checksumming happen outside the lock; a racing
        // worker with the same digest loses at the insert below.
        let line = run_line(digest, result);
        let mut out = self.lock();
        if !out.written.insert(digest.to_string()) {
            return;
        }
        out.batch.extend_from_slice(line.as_bytes());
        if out.batch.len() >= BATCH_BYTES {
            self.write_batch(&mut out);
        }
    }

    /// Write the pending batch now.
    pub fn flush(&self) {
        self.write_batch(&mut self.lock());
    }

    fn write_batch(&self, out: &mut Appender) {
        if out.batch.is_empty() {
            return;
        }
        let Appender {
            file,
            written,
            batch,
        } = out;
        if let Err(e) = file.write_all(batch) {
            // Forget the lost lines' digests so a later completion
            // records them again.
            for line in String::from_utf8_lossy(batch).lines() {
                if let Some((digest, _)) = line.strip_prefix("run ").and_then(|l| l.split_once(' '))
                {
                    written.remove(digest);
                }
            }
            // Not `eprintln!`: this also runs from `Drop`, which must
            // not panic if stderr is gone.
            if !self.write_failed.swap(true, Ordering::Relaxed) {
                let _ = writeln!(
                    std::io::stderr(),
                    "warning: journal {} stopped accepting writes ({e}); \
                     a crash from here on will not be resumable",
                    self.path.display()
                );
            }
        }
        batch.clear();
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_core::machines::jaketown;

    fn keys() -> Vec<RunKey> {
        (1..=4)
            .map(|p| RunKey::model("nbody", 1000, p * 10, jaketown()))
            .collect()
    }

    fn r(t: f64) -> RunResult {
        RunResult::model(true, t, 2.0 * t, 100.0)
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psse-journal-{name}-{}", std::process::id()))
    }

    #[test]
    fn spec_digest_tracks_key_list_and_order() {
        let ks = keys();
        assert_eq!(spec_digest(&ks), spec_digest(&ks));
        assert_eq!(spec_digest(&ks).len(), 32);
        let mut rev = ks.clone();
        rev.reverse();
        assert_ne!(spec_digest(&ks), spec_digest(&rev), "order matters");
        assert_ne!(spec_digest(&ks), spec_digest(&ks[1..]), "set matters");
    }

    #[test]
    fn spec_digest_streams_the_joined_digests() {
        // The joined-string definition the journal header has always
        // used; the streaming implementation must keep its bits.
        let joined_digest = |keys: &[RunKey]| {
            let joined = keys
                .iter()
                .map(|k| k.digest())
                .collect::<Vec<_>>()
                .join(" ");
            let hi = line_checksum(&format!("spec-hi {joined}"));
            let lo = line_checksum(&format!("spec-lo {joined}"));
            format!("{hi:016x}{lo:016x}")
        };
        let ks = keys();
        for n in 0..=ks.len() {
            assert_eq!(spec_digest(&ks[..n]), joined_digest(&ks[..n]), "n={n}");
        }
        // Pinned: the header digest of specs/ci_smoke.spec, so journals
        // written by earlier builds keep resuming.
        let smoke = crate::spec::SweepSpec::parse(include_str!("../../../specs/ci_smoke.spec"))
            .unwrap()
            .expand();
        assert_eq!(spec_digest(&smoke), "0bde91aa8bb93d8c76144a89f7ebf665");
    }

    #[test]
    fn lines_wait_for_a_full_batch_or_a_flush() {
        let path = tmp("batch");
        let spec = spec_digest(&keys());
        let j = Journal::create(&path, &spec).unwrap();
        let header = std::fs::metadata(&path).unwrap().len();
        j.record("aaaa", &r(1.0));
        j.record("aaaa", &r(1.0));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), header, "batched");
        j.flush();
        let one = std::fs::metadata(&path).unwrap().len();
        assert!(one > header);
        // A batch past BATCH_BYTES is written without a flush.
        let line = (one - header) as usize;
        for i in 0..=BATCH_BYTES / line {
            j.record(&format!("{i:032x}"), &r(i as f64));
        }
        assert!(std::fs::metadata(&path).unwrap().len() >= one + BATCH_BYTES as u64);
        drop(j);
        let (_j, replayed) = Journal::open_resume(&path, &spec).unwrap();
        assert_eq!(replayed.len(), 2 + BATCH_BYTES / line);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_record_resume_round_trips() {
        let path = tmp("roundtrip");
        let spec = spec_digest(&keys());
        {
            let j = Journal::create(&path, &spec).unwrap();
            j.record("aaaa", &r(1.0));
            j.record("bbbb", &r(2.0));
        }
        let (_j, replayed) = Journal::open_resume(&path, &spec).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed.get("aaaa"), Some(&r(1.0)));
        assert_eq!(replayed.get("bbbb"), Some(&r(2.0)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_replayed() {
        let path = tmp("torn");
        let spec = spec_digest(&keys());
        {
            let j = Journal::create(&path, &spec).unwrap();
            j.record("aaaa", &r(1.0));
            j.record("bbbb", &r(2.0));
        }
        // Simulate a crash mid-write: chop the file mid last line.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let (j, replayed) = Journal::open_resume(&path, &spec).unwrap();
        assert_eq!(replayed.len(), 1, "torn line dropped");
        assert_eq!(replayed.get("aaaa"), Some(&r(1.0)));
        // Appending after the truncation yields an intact journal again.
        j.record("cccc", &r(3.0));
        drop(j);
        let (_j, again) = Journal::open_resume(&path, &spec).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(again.get("cccc"), Some(&r(3.0)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_spec_is_refused_and_torn_header_restarts() {
        let path = tmp("spec");
        let spec = spec_digest(&keys());
        {
            let j = Journal::create(&path, &spec).unwrap();
            j.record("aaaa", &r(1.0));
        }
        let other = spec_digest(&keys()[..2]);
        let err = Journal::open_resume(&path, &other).unwrap_err();
        assert!(err.contains("different sweep"), "{err}");
        // A torn header (no newline) is treated as an empty journal.
        std::fs::write(&path, "psse-lab-journal v1 garbage").unwrap();
        let (_j, replayed) = Journal::open_resume(&path, &spec).unwrap();
        assert!(replayed.is_empty());
        // Missing file: fresh journal, empty replay.
        let missing = tmp("missing");
        let _ = std::fs::remove_file(&missing);
        let (_j, replayed) = Journal::open_resume(&missing, &spec).unwrap();
        assert!(replayed.is_empty());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&missing);
    }

    #[test]
    fn results_round_trip_bit_exactly() {
        let path = tmp("bits");
        let spec = spec_digest(&keys());
        let exotic = RunResult {
            feasible: true,
            verified: false,
            time: 1.0 / 3.0,
            energy: f64::MIN_POSITIVE,
            flops: 6.02e23,
            words: -0.0,
            msgs: 7.0,
            mem_used: 1e9 + 0.5,
            retries: 3,
            checkpoint_words: 99,
            resilience_words: 1,
            resilience_msgs: 2,
            output_digest: 0xfeed_f00d_dead_beef,
        };
        {
            let j = Journal::create(&path, &spec).unwrap();
            j.record("dddd", &exotic);
        }
        let (_j, replayed) = Journal::open_resume(&path, &spec).unwrap();
        let back = replayed.get("dddd").unwrap();
        assert_eq!(back.words.to_bits(), exotic.words.to_bits());
        assert_eq!(back, &exotic);
        let _ = std::fs::remove_file(&path);
    }
}
