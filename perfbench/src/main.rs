//! The psse benchmark: three seeded workloads standing in for the three
//! user jobs of the system, measured end to end with tracing off, and
//! layer by layer in a separate traced run.
//!
//! ```text
//! perfbench --workload figure_sweep|verified_simulate|mega_events
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root (it reads `specs/kernels/` and
//! writes its scratch files under `.perfbench_work/`, removed at exit).
//! Human-readable `name = value unit` lines go to standard output,
//! followed by one JSON result line. See `perfbench/NOTES.md`.

mod events;
mod figure;
mod report;
mod simulate;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use report::{median, Metrics, Spans, Tally};

/// What one pass of a workload's timed job did.
pub struct Pass {
    /// Host seconds of the timed job.
    pub wall: f64,
    /// Run configurations completed: sweep keys, verified simulations
    /// or event programs.
    pub keys: u64,
    /// Messages the pass accounts for (see each workload's docs).
    pub msgs: f64,
    /// Checked operations of the pass.
    pub tally: Tally,
}

/// A workload: seeded set-up, then passes of its timed job.
pub trait Job: Sized {
    /// Set-ups timed together as one sample, so that a set-up of
    /// microseconds is not lost in the clock's own cost.
    const SETUP_BATCH: usize;
    /// Set-up samples taken per set-up round. Only the last fixture is
    /// kept; the others are dropped untimed.
    const SETUP_SAMPLES: usize;
    /// Whether every cold pass needs a fresh fixture. Otherwise the
    /// fixture of the first few rounds is reused.
    const FRESH_FIXTURE: bool;
    /// Whether the traced run needs the warm pass too.
    const TRACE_WARM: bool;

    /// Generate inputs, specs and references from `seed` under `dir`.
    fn setup(seed: u64, dir: &Path) -> Result<Self, String>;

    /// One pass of the job: the first (`warm = false`) on the state
    /// set-up left, the second (`warm = true`) against the state the
    /// first pass left behind.
    fn pass(&mut self, warm: bool, spans: Option<&mut Spans>) -> Pass;

    /// Per-layer metrics derived from one traced cold pass and, when
    /// [`Job::TRACE_WARM`], its warm pass.
    fn span_metrics(&self, cold: &Spans, warm: &Spans) -> Vec<(&'static str, f64, &'static str)>;

    /// Per-layer metrics from direct calls into single layers, on this
    /// fixture's inputs.
    fn probes(&mut self, _m: &mut Metrics, _tally: &mut Tally) {}
}

/// Worker threads the benchmark may load: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

const WORKLOADS: [&str; 3] = ["figure_sweep", "verified_simulate", "mega_events"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1) as f64,
        trace,
    })
}

/// One set-up round: `J::SETUP_SAMPLES` timed batches of
/// `J::SETUP_BATCH` set-ups. Records seconds per set-up and keeps the
/// last fixture; within a batch each fixture is dropped when the next
/// is made, between batches untimed.
fn timed_setup<J: Job>(seed: u64, dir: &Path, samples: &mut Vec<f64>) -> Result<J, String> {
    let mut kept = None;
    for _ in 0..J::SETUP_SAMPLES {
        drop(kept.take());
        let t0 = Instant::now();
        for _ in 0..J::SETUP_BATCH {
            kept = Some(J::setup(seed, dir)?);
        }
        samples.push(t0.elapsed().as_secs_f64() / J::SETUP_BATCH as f64);
    }
    Ok(kept.expect("at least one set-up"))
}

/// Set-up rounds of a fixture that may be reused.
const REUSED_SETUPS: usize = 3;

/// The end-to-end run (`--trace 0`): repeat set-up, cold pass and warm
/// pass until `seconds` have passed; report medians.
fn measure<J: Job>(seed: u64, seconds: f64, dir: &Path) -> Result<(Metrics, Tally), String> {
    let start = Instant::now();
    let (mut setups, mut colds, mut warms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut keys, mut msgs, mut peak_rss) = (0, 0.0, 0.0);
    let mut tally = Tally::default();
    let mut fx: Option<J> = None;
    while colds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        if J::FRESH_FIXTURE || colds.len() < REUSED_SETUPS {
            drop(fx.take());
            fx = Some(timed_setup(seed, dir, &mut setups)?);
        }
        let fx = fx.as_mut().expect("set up above");
        let cold = fx.pass(false, None);
        let warm = fx.pass(true, None);
        eprintln!("pass: cold {:.4} s, warm {:.4} s", cold.wall, warm.wall);
        (keys, msgs) = (cold.keys, cold.msgs);
        colds.push(cold.wall);
        warms.push(warm.wall);
        tally.add(cold.tally);
        tally.add(warm.tally);
        if peak_rss == 0.0 {
            // The peak of one set-up, cold and warm pass: later rounds
            // only add allocator history.
            peak_rss = report::peak_rss_mb();
        }
    }
    let wall = median(&colds);
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("wall_s", wall, "s");
    m.put("warm_wall_s", median(&warms), "s");
    m.put("keys_per_s", keys as f64 / wall, "1/s");
    m.put("sim_msgs_per_s", msgs / wall, "1/s");
    m.put("peak_rss_mb", peak_rss, "MiB");
    println!(
        "samples: {} cold and {} warm passes, {} set-up samples",
        colds.len(),
        warms.len(),
        setups.len()
    );
    Ok((m, tally))
}

/// The traced run of one workload's layers. When `named`, it also
/// alternates untraced and traced cold passes to report
/// `bench.unattributed_frac` and `bench.tracing_overhead_frac`.
fn traced<J: Job>(
    seed: u64,
    dir: &Path,
    named: bool,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let rounds = if named { 3 } else { 1 };
    let mut samples: BTreeMap<&'static str, (Vec<f64>, &'static str)> = BTreeMap::new();
    let (mut untraced, mut traced, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..rounds {
        if named {
            let mut fx: J = timed_setup(seed, dir, &mut setups)?;
            let p = fx.pass(false, None);
            tally.add(p.tally);
            untraced.push(p.wall);
        }
        drop(last.take());
        let mut fx: J = timed_setup(seed, dir, &mut setups)?;
        let (mut cold, mut warm) = (Spans::default(), Spans::default());
        let p = fx.pass(false, Some(&mut cold));
        tally.add(p.tally);
        traced.push(p.wall);
        unattributed.push(1.0 - cold.covered() / p.wall);
        if J::TRACE_WARM {
            tally.add(fx.pass(true, Some(&mut warm)).tally);
        }
        for (name, value, unit) in fx.span_metrics(&cold, &warm) {
            samples
                .entry(name)
                .or_insert((Vec::new(), unit))
                .0
                .push(value);
        }
        last = Some(fx);
    }
    for (name, (values, unit)) in &samples {
        m.put(name, median(values), unit);
    }
    let mut fx = last.expect("at least one round");
    fx.probes(m, tally);
    if named {
        m.put("bench.unattributed_frac", median(&unattributed), "frac");
        m.put(
            "bench.tracing_overhead_frac",
            median(&traced) / median(&untraced) - 1.0,
            "frac",
        );
    }
    Ok(())
}

fn run(args: &Args, dir: &Path) -> Result<(Metrics, Tally), String> {
    if !args.trace {
        return match args.workload.as_str() {
            "figure_sweep" => measure::<figure::FigureSweep>(args.seed, args.seconds, dir),
            "verified_simulate" => {
                measure::<simulate::VerifiedSimulate>(args.seed, args.seconds, dir)
            }
            _ => measure::<events::MegaEvents>(args.seed, args.seconds, dir),
        };
    }
    // Every traced run reports every layer, each measured on the
    // workload it belongs to; the named workload is also measured for
    // attribution and tracing overhead.
    let (mut m, mut tally) = (Metrics::default(), Tally::default());
    let w = args.workload.as_str();
    traced::<figure::FigureSweep>(args.seed, dir, w == "figure_sweep", &mut m, &mut tally)?;
    traced::<simulate::VerifiedSimulate>(
        args.seed,
        dir,
        w == "verified_simulate",
        &mut m,
        &mut tally,
    )?;
    traced::<events::MegaEvents>(args.seed, dir, w == "mega_events", &mut m, &mut tally)?;
    Ok((m, tally))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(".perfbench_work").join(format!("{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_work");
    match outcome {
        Ok((m, tally)) => {
            println!(
                "workload {} seed {} trace {}",
                args.workload, args.seed, args.trace as u8
            );
            m.print_table();
            // Not a result metric: it is 0 on a correct run, and the
            // result line carries the same counts as `attempted`/`failed`.
            println!(
                "{:<34} = {} frac ({} of {} operations failed)",
                "failed_frac",
                tally.failed as f64 / tally.attempted.max(1) as f64,
                tally.failed,
                tally.attempted
            );
            println!("{}", report::result_line(tally, &m));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
