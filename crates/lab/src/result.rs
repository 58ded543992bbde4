//! Result of one run, with an exact-bits one-line disk encoding.
//!
//! The persistent cache stores each result as a single `v1 ...` line
//! keyed by the run digest. Floats are encoded as their raw IEEE-754
//! bit patterns (`{:016x}` of [`f64::to_bits`]) so a round trip through
//! the cache reproduces *bit-identical* values — a cached sweep must
//! emit the same CSV bytes as a cold one.

use psse_faults::rng::KeyHasher;

/// Everything a sweep can want to know about one completed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Whether the requested memory was inside the algorithm's
    /// `[min_memory, max_useful_memory]` band (model runs; simulator
    /// runs are always feasible if they complete).
    pub feasible: bool,
    /// Whether numerical verification passed (simulator runs that
    /// verify; `true` for model runs).
    pub verified: bool,
    /// Wall-clock (virtual) time in seconds.
    pub time: f64,
    /// Total energy in joules.
    pub energy: f64,
    /// Total flops across ranks.
    pub flops: f64,
    /// Total words sent across ranks.
    pub words: f64,
    /// Total messages sent across ranks.
    pub msgs: f64,
    /// Memory per processor actually used/charged, in words.
    pub mem_used: f64,
    /// Message retries due to injected faults (0 when fault-free).
    pub retries: u64,
    /// Words written to checkpoints.
    pub checkpoint_words: u64,
    /// Extra words moved by resilience machinery (retransmits + ABFT).
    pub resilience_words: u64,
    /// Extra messages sent by resilience machinery.
    pub resilience_msgs: u64,
    /// splitmix64 digest of the output payload bits (0 when the run has
    /// no payload, e.g. model runs). Equal digests ⇒ bit-identical
    /// outputs, which is how fault sweeps check ABFT correctness.
    pub output_digest: u64,
}

impl RunResult {
    /// A model-run result: analytic time/energy at a feasible point.
    pub fn model(feasible: bool, time: f64, energy: f64, mem_used: f64) -> RunResult {
        RunResult {
            feasible,
            verified: true,
            time,
            energy,
            flops: 0.0,
            words: 0.0,
            msgs: 0.0,
            mem_used,
            retries: 0,
            checkpoint_words: 0,
            resilience_words: 0,
            resilience_msgs: 0,
            output_digest: 0,
        }
    }

    /// Serialize to the one-line `v1` cache record.
    pub fn to_line(&self) -> String {
        format!(
            "v1 {} {} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {} {} {} {} {:016x}",
            self.feasible as u8,
            self.verified as u8,
            self.time.to_bits(),
            self.energy.to_bits(),
            self.flops.to_bits(),
            self.words.to_bits(),
            self.msgs.to_bits(),
            self.mem_used.to_bits(),
            self.retries,
            self.checkpoint_words,
            self.resilience_words,
            self.resilience_msgs,
            self.output_digest,
        )
    }

    /// Parse a `v1` cache record; `None` on any malformation (the cache
    /// treats unreadable records as misses, never as errors).
    pub fn from_line(line: &str) -> Option<RunResult> {
        let mut it = line.split_ascii_whitespace();
        if it.next()? != "v1" {
            return None;
        }
        let flag = |s: &str| match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        };
        let feasible = flag(it.next()?)?;
        let verified = flag(it.next()?)?;
        let mut f64_bits =
            || -> Option<f64> { Some(f64::from_bits(u64::from_str_radix(it.next()?, 16).ok()?)) };
        let time = f64_bits()?;
        let energy = f64_bits()?;
        let flops = f64_bits()?;
        let words = f64_bits()?;
        let msgs = f64_bits()?;
        let mem_used = f64_bits()?;
        let mut dec = || -> Option<u64> { it.next()?.parse().ok() };
        let retries = dec()?;
        let checkpoint_words = dec()?;
        let resilience_words = dec()?;
        let resilience_msgs = dec()?;
        let output_digest = u64::from_str_radix(it.next()?, 16).ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(RunResult {
            feasible,
            verified,
            time,
            energy,
            flops,
            words,
            msgs,
            mem_used,
            retries,
            checkpoint_words,
            resilience_words,
            resilience_msgs,
            output_digest,
        })
    }

    /// Average power in watts (`E / T`); 0 for zero-time runs.
    pub fn power(&self) -> f64 {
        if self.time > 0.0 {
            self.energy / self.time
        } else {
            0.0
        }
    }
}

pub use psse_algos::catalog::digest_f64s;

/// splitmix64 checksum of a line's raw bytes: length word, then the
/// bytes packed into little-endian 8-byte chunks (the same packing the
/// run-key digest uses for strings, so `"ab" + "c"` and `"a" + "bc"`
/// cannot collide). Shared by the self-checksummed cache records and
/// the sweep journal's torn-tail detection.
pub fn line_checksum(line: &str) -> u64 {
    let mut h = LineHasher::new(line.len());
    h.write(line.as_bytes());
    h.finish()
}

/// [`line_checksum`] over a line fed in pieces, for lines too long to
/// build: `new(len)` with the total byte length, `write` the pieces in
/// order, then `finish`.
pub(crate) struct LineHasher {
    chain: KeyHasher,
    word: [u8; 8],
    fill: usize,
}

impl LineHasher {
    pub(crate) fn new(len: usize) -> LineHasher {
        let mut chain = KeyHasher::new(0x7265_6331_6373_756d); // "rec1csum"
        chain.push(len as u64);
        LineHasher {
            chain,
            word: [0; 8],
            fill: 0,
        }
    }

    pub(crate) fn write(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let take = (8 - self.fill).min(bytes.len());
            self.word[self.fill..self.fill + take].copy_from_slice(&bytes[..take]);
            self.fill += take;
            bytes = &bytes[take..];
            if self.fill == 8 {
                self.chain.push(u64::from_le_bytes(self.word));
                self.fill = 0;
            }
        }
    }

    pub(crate) fn finish(mut self) -> u64 {
        if self.fill > 0 {
            self.word[self.fill..].fill(0);
            self.chain.push(u64::from_le_bytes(self.word));
        }
        self.chain.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trip_is_exact() {
        let r = RunResult {
            feasible: true,
            verified: false,
            time: 1.2345678901234567e-3,
            energy: 9.87e12,
            flops: 6.66e15,
            words: 1.0 / 3.0,
            msgs: f64::MIN_POSITIVE,
            mem_used: 1e9 + 0.5,
            retries: 7,
            checkpoint_words: 123_456,
            resilience_words: 42,
            resilience_msgs: 3,
            output_digest: 0xdead_beef_cafe_f00d,
        };
        let line = r.to_line();
        let back = RunResult::from_line(&line).unwrap();
        assert_eq!(r, back);
        assert_eq!(r.time.to_bits(), back.time.to_bits());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(RunResult::from_line("").is_none());
        assert!(RunResult::from_line("v0 1 1").is_none());
        assert!(RunResult::from_line("v1 1 1 zzzz").is_none());
        let mut line = RunResult::model(true, 1.0, 2.0, 3.0).to_line();
        line.push_str(" extra");
        assert!(RunResult::from_line(&line).is_none());
    }

    #[test]
    fn line_checksum_is_length_prefixed_and_sensitive() {
        let a = line_checksum("v1 1 1");
        assert_eq!(a, line_checksum("v1 1 1"));
        assert_ne!(a, line_checksum("v1 1 0"));
        assert_ne!(a, line_checksum("v1 1 1 "));
        // Length-prefixed packing: moving a byte across a chunk
        // boundary changes the checksum.
        assert_ne!(line_checksum("abcdefgh i"), line_checksum("abcdefghi "));
    }

    #[test]
    fn digest_distinguishes_payloads() {
        let a = digest_f64s(&[1.0, 2.0, 3.0]);
        let b = digest_f64s(&[1.0, 2.0, 3.0 + 1e-15]);
        let c = digest_f64s(&[1.0, 2.0, 3.0]);
        assert_eq!(a, c);
        assert_ne!(a, b);
        // -0.0 and +0.0 differ in bits, so they differ in digest.
        assert_ne!(digest_f64s(&[0.0]), digest_f64s(&[-0.0]));
    }
}
