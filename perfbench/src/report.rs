//! Metric collection, span recording and the result line.

use std::time::Instant;

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.rows.push((name.to_string(), value, unit));
    }

    /// One `name = value unit` line per metric, for humans.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.rows {
            println!("{name:<34} = {value} {unit}");
        }
    }

    /// The `"metrics"` object of the result line. Non-finite values
    /// (which JSON cannot carry) are written as `null`.
    fn json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Operations attempted and failed over a run. A failure is a key
/// error, a verification mismatch or a counter mismatch.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The last line of standard output.
pub fn result_line(tally: Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.json()
    )
}

/// Host wall-clock spans recorded around the benchmark's own calls
/// into the workspace crates. Each span is named `layer.part`.
#[derive(Default)]
pub struct Spans {
    list: Vec<(&'static str, f64)>,
}

impl Spans {
    /// Seconds spent in spans named exactly `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.list
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }

    /// Seconds covered by all spans.
    pub fn covered(&self) -> f64 {
        self.list.iter().map(|(_, s)| s).sum()
    }
}

/// Run `f`, recording a span named `name` when tracing is on. With
/// tracing off this is a plain call: no clock is read.
pub fn span<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        None => f(),
        Some(s) => {
            let t0 = Instant::now();
            let out = f();
            s.list.push((name, t0.elapsed().as_secs_f64()));
            out
        }
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Median seconds per call of `f`, from `reps` timed batches of
/// `batch` calls each. For operations too short to time one at a time.
pub fn per_call(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&samples)
}

/// splitmix64: derives every input of a run from its `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
