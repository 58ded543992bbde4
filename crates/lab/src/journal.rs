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
//! appends nothing. A digest is durable from its first completion,
//! which is all a resume needs.
//!
//! Replayed results seed the lab's in-memory cache, so the resumed
//! sweep recomputes only what is missing and the final CSV is
//! byte-identical to an uninterrupted run (results round-trip through
//! the same exact-bits `v1` encoding the disk cache uses).

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::key::RunKey;
use crate::result::{line_checksum, RunResult};

const HEADER_PREFIX: &str = "psse-lab-journal v1";

/// Digest of a sweep's identity: splitmix64 chains over the ordered
/// run-key digests. Two sweeps share a journal iff they expand to the
/// same keys in the same order.
pub fn spec_digest(keys: &[RunKey]) -> String {
    let joined = keys
        .iter()
        .map(|k| k.digest())
        .collect::<Vec<_>>()
        .join(" ");
    // Two salted chains for 128 bits, like the run-key digest itself.
    let hi = line_checksum(&format!("spec-hi {joined}"));
    let lo = line_checksum(&format!("spec-lo {joined}"));
    format!("{hi:016x}{lo:016x}")
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
    let body = format!("run {digest} {}", result.to_line());
    format!("{body} {:016x}\n", line_checksum(&body))
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
/// Thread-safe: workers record completions concurrently; each line is
/// written with a single `write_all` under a lock.
pub struct Journal {
    path: PathBuf,
    file: Mutex<Appender>,
    write_failed: AtomicBool,
}

/// The open file and the digests it already holds, under one lock.
struct Appender {
    file: std::fs::File,
    written: HashSet<String>,
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
            file: Mutex::new(Appender { file, written }),
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

    /// Append one completed run, unless the journal already holds its
    /// digest: one line per distinct completed run digest, so resuming
    /// a complete journal appends nothing. Best-effort: a write failure
    /// warns once on stderr and the sweep continues (the journal is a
    /// recovery aid, not a correctness dependency); the digest is then
    /// tried again on its next completion.
    pub fn record(&self, digest: &str, result: &RunResult) {
        let mut out = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        if out.written.contains(digest) {
            return;
        }
        let line = run_line(digest, result);
        let wrote = out
            .file
            .write_all(line.as_bytes())
            .and_then(|()| out.file.flush());
        match wrote {
            Ok(()) => {
                out.written.insert(digest.to_string());
            }
            Err(e) => {
                if !self.write_failed.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "warning: journal {} stopped accepting writes ({e}); \
                         a crash from here on will not be resumable",
                        self.path.display()
                    );
                }
            }
        }
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
