//! `figure_sweep`: `psse lab run` over three model specs, the way the
//! paper's figures are regenerated — once cold on fresh files, then
//! again warm on the results the cold pass persisted.
//!
//! The specs are the Fig. 4 n-body (p, M) grid (300 × 300 keys, integer
//! `geom:` rounding leaves 28 500 distinct digests), a scaled-up 2.5D
//! matmul grid (11 000 keys) and the same grid priced through the HBL
//! kernel `specs/kernels/matmul.kernel`. The seed perturbs the machine
//! prices, so every seed has its own digests but the same key count.
//!
//! Each spec runs with a `--journal`; the warm pass resumes from it
//! (`--resume`), so every key is served from the replayed results. The
//! persistent `--cache` directory is measured in the traced run only:
//! one record file per distinct digest costs 0.3–0.6 ms to create on a
//! shared disk and swings a cold pass between 4 and 16 s, too unsteady
//! for an end-to-end bound.
//!
//! The untraced pass calls `psse_cli::run` in-process; the traced pass
//! makes the same sequence of `psse_lab` calls the CLI makes, with a
//! span around each.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use psse_core::machines::jaketown;
use psse_hbl::prelude::{derive, Kernel};
use psse_lab::cache::ResultCache;
use psse_lab::csvout::{pareto_csv, sweep_csv};
use psse_lab::journal::{spec_digest, Journal};
use psse_lab::key::RunKey;
use psse_lab::pareto::detect_scaling_range;
use psse_lab::result::RunResult;
use psse_lab::runner;
use psse_lab::spec::SweepSpec;
use psse_lab::{Lab, LabConfig};

use crate::report::{median, per_call, span, timed, Metrics, Rng, Spans, Tally};
use crate::{Job, Pass};

/// The HBL kernel the third spec prices through.
const MATMUL_KERNEL: &str = "specs/kernels/matmul.kernel";

static FIXTURES: AtomicUsize = AtomicUsize::new(0);

struct SpecFile {
    name: &'static str,
    path: PathBuf,
    text: String,
    keys: u64,
}

/// What the last traced pass observed, beyond its spans.
#[derive(Default, Clone, Copy)]
struct Observed {
    csv_bytes: u64,
    selfprof_bytes: u64,
    journal_bytes: u64,
    busy_ns: u64,
    capacity_ns: u64,
}

pub struct FigureSweep {
    dir: PathBuf,
    specs: Vec<SpecFile>,
    jobs: usize,
    priced_msgs: f64,
    cold: Observed,
    warm: Observed,
}

impl Drop for FigureSweep {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The three spec texts for `seed`: machine prices scaled by factors
/// in [0.9, 1.1), grids fixed.
fn spec_texts(seed: u64) -> Vec<(&'static str, String)> {
    let mut rng = Rng::new(seed);
    let mut f = || rng.range(0.9, 1.1);
    // The Fig. 4 contrived machine (as in specs/ci_smoke.spec).
    let nbody = format!(
        "kind = model\nalg = nbody\nmachine = jaketown\n\
         gamma-t = {:e}\nbeta-t = {:e}\nalpha-t = {:e}\n\
         gamma-e = 1e-9\nbeta-e = 4e-6\nalpha-e = 1e-4\ndelta-e = {:e}\nepsilon-e = 0\n\
         max-message = 100\nmem-words = 1e12\n\
         n = 10000\np = geom:6:100:300\nmem = geomf:2e2:1e6:300\nf = 10\n",
        1e-9 * f(),
        2e-8 * f(),
        1e-6 * f(),
        5e-4 * f(),
    );
    let jt = jaketown();
    let prices = format!(
        "machine = jaketown\ngamma-t = {:e}\nbeta-t = {:e}\nalpha-t = {:e}\ndelta-e = {:e}\n\
         n = 8192\np = pow2:1:1024\nmem = geomf:7e4:7e7:1000\n",
        jt.gamma_t * f(),
        jt.beta_t * f(),
        jt.alpha_t * f(),
        jt.delta_e * f(),
    );
    vec![
        ("fig4_nbody", nbody),
        (
            "matmul_25d",
            format!("kind = model\nalg = matmul\n{prices}"),
        ),
        (
            "matmul_hbl",
            format!("kind = model\nkernel = {MATMUL_KERNEL}\n{prices}"),
        ),
    ]
}

fn expand(text: &str) -> Result<Vec<RunKey>, String> {
    Ok(SweepSpec::parse(text).map_err(|e| e.to_string())?.expand())
}

/// Messages a spec's model runs price, `Σ p·S` over its keys. Model
/// runs execute nothing, so this is the figure job's message count —
/// its reference, computed in set-up.
fn priced_msgs(text: &str) -> Result<f64, String> {
    let keys = expand(text)?;
    let alg: Box<dyn psse_core::costs::Algorithm> = match &keys[0].kernel {
        Some(k) => {
            let kernel = Kernel::parse(k).map_err(|e| e.to_string())?;
            Box::new(derive(&kernel).map_err(|e| e.to_string())?.0)
        }
        None => runner::model_algorithm(&keys[0].alg, keys[0].f, keys[0].halo, keys[0].iters)?,
    };
    Ok(keys
        .iter()
        .filter_map(|k| {
            let c = alg.costs_clamped(k.n, k.p, k.mem, &k.machine).ok()?;
            Some(k.p as f64 * c.messages)
        })
        .sum())
}

fn count_records(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".rec"))
                .count() as u64
        })
        .unwrap_or(0)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Failed keys reported by a `lab run` error (`"k of n runs failed: …"`),
/// or every key when the error is not a per-key failure.
fn failed_keys(err: &str, keys: u64) -> u64 {
    err.split_once(" of ")
        .and_then(|(k, _)| k.trim().parse().ok())
        .unwrap_or(keys)
}

/// The scaling report `lab run --scaling` prints: one range detection
/// per (n, c, M) group. Returns the number of groups with a range.
fn scaling_ranges(keys: &[RunKey], results: &[Result<RunResult, String>]) -> usize {
    let mut groups: Vec<(u64, u64, u64)> = Vec::new();
    for k in keys {
        let g = (k.n, k.c, k.mem.to_bits());
        if !groups.contains(&g) {
            groups.push(g);
        }
    }
    groups
        .iter()
        .filter(|&&(n, c, mem)| {
            let mut samples: Vec<(u64, f64, f64)> = keys
                .iter()
                .zip(results)
                .filter(|(k, _)| k.n == n && k.c == c && k.mem.to_bits() == mem)
                .filter_map(|(k, r)| {
                    let r = r.as_ref().ok()?;
                    r.feasible.then_some((k.p, r.time, r.energy))
                })
                .collect();
            samples.sort_by_key(|&(p, _, _)| p);
            samples.dedup_by_key(|&mut (p, _, _)| p);
            detect_scaling_range(&samples, 1e-9).is_some()
        })
        .count()
}

impl FigureSweep {
    fn out(&self, name: &str, tag: &str, ext: &str) -> PathBuf {
        self.dir.join(format!("{name}.{tag}.{ext}"))
    }

    fn journal(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.journal"))
    }

    fn tag(warm: bool) -> &'static str {
        if warm {
            "warm"
        } else {
            "cold"
        }
    }

    /// `psse lab run` per spec, through the CLI entry point.
    fn cli_pass(&self, warm: bool, tally: &mut Tally) -> f64 {
        let tag = Self::tag(warm);
        let jobs = self.jobs.to_string();
        let t0 = Instant::now();
        let mut outcomes = Vec::new();
        for s in &self.specs {
            let path = |ext| self.out(s.name, tag, ext).display().to_string();
            let argv: Vec<String> = [
                "lab",
                "run",
                "--spec",
                &s.path.display().to_string(),
                "--jobs",
                &jobs,
                "--out",
                &path("csv"),
                "--pareto",
                &path("pareto.csv"),
                "--scaling",
                "--journal",
                &self.journal(s.name).display().to_string(),
            ]
            .iter()
            .map(|a| a.to_string())
            .chain(warm.then(|| "--resume".to_string()))
            .collect();
            let mut text = String::new();
            outcomes.push(psse_cli::run(&argv, &mut text));
        }
        let wall = t0.elapsed().as_secs_f64();
        for (s, r) in self.specs.iter().zip(outcomes) {
            let failed = r.err().map_or(0, |e| {
                eprintln!("perfbench: lab run {}: {e}", s.name);
                failed_keys(&e, s.keys)
            });
            tally.attempted += s.keys;
            tally.failed += failed;
        }
        wall
    }

    /// The same job as [`FigureSweep::cli_pass`], as the sequence of
    /// `psse_lab` calls `lab run` makes, each inside a span.
    fn traced_pass(&mut self, warm: bool, spans: &mut Spans, tally: &mut Tally) -> f64 {
        let tag = Self::tag(warm);
        let mut seen = Observed::default();
        let mut sp = Some(spans);
        let t0 = Instant::now();
        for s in &self.specs {
            let keys = match span(&mut sp, "lab.spec", || expand(&s.text)) {
                Ok(k) => k,
                Err(e) => {
                    tally.check(false, &format!("{}: {e}", s.name));
                    continue;
                }
            };
            let mut lab = Lab::new(LabConfig {
                jobs: self.jobs,
                ..LabConfig::default()
            });
            let journal_path = self.journal(s.name);
            let journal = span(&mut sp, "lab.journal", || {
                let digest = spec_digest(&keys);
                if warm {
                    Journal::open_resume(&journal_path, &digest).map(|(j, replayed)| {
                        lab.seed(&replayed);
                        j
                    })
                } else {
                    Journal::create(&journal_path, &digest)
                }
            });
            match journal {
                Ok(j) => lab.set_journal(j),
                Err(e) => tally.check(false, &e),
            }
            let (results, profile) = span(&mut sp, "lab.sweep", || lab.run_keys_profiled(&keys));
            let csv = self.out(s.name, tag, "csv");
            seen.csv_bytes += span(&mut sp, "lab.csv", || {
                let text = sweep_csv(&keys, &results);
                std::fs::write(&csv, &text).map_or(0, |()| text.len() as u64)
            });
            span(&mut sp, "lab.pareto", || {
                let _ = std::fs::write(
                    self.out(s.name, tag, "pareto.csv"),
                    pareto_csv(&keys, &results),
                );
                scaling_ranges(&keys, &results)
            });
            seen.selfprof_bytes += span(&mut sp, "lab.selfprof", || {
                let _ = profile.render(5);
                let json = profile.to_json().to_string();
                let path = self.out(s.name, tag, "csv.profile.json");
                std::fs::write(path, &json).map_or(0, |()| json.len() as u64)
            });
            drop(lab);
            seen.journal_bytes += file_len(&journal_path);
            seen.busy_ns += profile.workers.iter().map(|w| w.busy_ns).sum::<u64>();
            seen.capacity_ns += profile.wall_ns * profile.jobs as u64;
            let failed = results.iter().filter(|r| r.is_err()).count() as u64;
            tally.attempted += keys.len() as u64;
            tally.failed += failed;
        }
        let wall = t0.elapsed().as_secs_f64();
        if warm {
            self.warm = seen;
        } else {
            self.cold = seen;
        }
        wall
    }

    /// Cold and warm outputs must be byte-identical.
    fn compare_outputs(&self, tally: &mut Tally) {
        for s in &self.specs {
            for ext in ["csv", "pareto.csv"] {
                let cold = std::fs::read(self.out(s.name, "cold", ext));
                let warm = std::fs::read(self.out(s.name, "warm", ext));
                let same = matches!((&cold, &warm), (Ok(a), Ok(b)) if a == b && !a.is_empty());
                tally.check(same, &format!("{}: cold and warm {ext} differ", s.name));
            }
        }
    }
}

impl Job for FigureSweep {
    const SETUP_BATCH: usize = 1;
    const SETUP_SAMPLES: usize = 2;
    const FRESH_FIXTURE: bool = true;
    const TRACE_WARM: bool = true;

    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let n = FIXTURES.fetch_add(1, Ordering::Relaxed);
        let own = dir.join(format!("figure-{n}"));
        std::fs::create_dir_all(&own).map_err(|e| format!("{}: {e}", own.display()))?;
        let mut specs = Vec::new();
        let mut msgs = 0.0;
        for (name, text) in spec_texts(seed) {
            let path = own.join(format!("{name}.spec"));
            std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
            let keys = SweepSpec::parse(&text)
                .map_err(|e| format!("{name}: {e}"))?
                .len() as u64;
            msgs += priced_msgs(&text).map_err(|e| format!("{name}: {e}"))?;
            specs.push(SpecFile {
                name,
                path,
                text,
                keys,
            });
        }
        Ok(FigureSweep {
            dir: own,
            specs,
            jobs: crate::nproc(),
            priced_msgs: msgs,
            cold: Observed::default(),
            warm: Observed::default(),
        })
    }

    fn pass(&mut self, warm: bool, spans: Option<&mut Spans>) -> Pass {
        let mut tally = Tally::default();
        let wall = match spans {
            None => self.cli_pass(warm, &mut tally),
            Some(s) => self.traced_pass(warm, s, &mut tally),
        };
        if warm {
            self.compare_outputs(&mut tally);
        }
        Pass {
            wall,
            keys: self.specs.iter().map(|s| s.keys).sum(),
            msgs: self.priced_msgs,
            tally,
        }
    }

    fn span_metrics(&self, cold: &Spans, warm: &Spans) -> Vec<(&'static str, f64, &'static str)> {
        let ms = |s: &Spans, name| s.total(name) * 1e3;
        vec![
            ("lab.spec.expand_ms", ms(cold, "lab.spec"), "ms"),
            ("lab.sweep.cold_ms", ms(cold, "lab.sweep"), "ms"),
            ("lab.sweep.warm_ms", ms(warm, "lab.sweep"), "ms"),
            ("lab.csv.ms", ms(cold, "lab.csv"), "ms"),
            ("lab.csv.bytes", self.cold.csv_bytes as f64, "B"),
            ("lab.pareto.ms", ms(cold, "lab.pareto"), "ms"),
            ("lab.selfprof.ms", ms(cold, "lab.selfprof"), "ms"),
            ("lab.selfprof.bytes", self.cold.selfprof_bytes as f64, "B"),
            ("lab.journal.bytes", self.cold.journal_bytes as f64, "B"),
            (
                "lab.pool.busy_frac",
                self.cold.busy_ns as f64 / self.cold.capacity_ns.max(1) as f64,
                "frac",
            ),
        ]
    }

    fn probes(&mut self, m: &mut Metrics, tally: &mut Tally) {
        let keyed: Vec<Vec<RunKey>> = self
            .specs
            .iter()
            .map(|s| expand(&s.text).expect("spec parsed in set-up"))
            .collect();

        // Model pricing on the table algorithms, one thread.
        let table: Vec<&RunKey> = keyed[0].iter().chain(&keyed[1]).collect();
        let (ok, secs) = timed(|| table.iter().filter(|k| runner::execute(k).is_ok()).count());
        tally.check(ok == table.len(), "core: table keys failed to price");
        m.put(
            "core.price_ns_per_key",
            secs * 1e9 / table.len() as f64,
            "ns",
        );

        // HBL-priced keys (every 10th), one thread; one derivation.
        let kernel_keys: Vec<&RunKey> = keyed[2].iter().step_by(10).collect();
        let (ok, secs) = timed(|| {
            kernel_keys
                .iter()
                .filter(|k| runner::execute(k).is_ok())
                .count()
        });
        tally.check(ok == kernel_keys.len(), "hbl: kernel keys failed to price");
        m.put(
            "hbl.kernel_key_ns",
            secs * 1e9 / kernel_keys.len() as f64,
            "ns",
        );
        let text = keyed[2][0].kernel.clone().unwrap_or_default();
        let derive_s = per_call(7, 20, || {
            let _ = derive(&Kernel::parse(&text).expect("shipped kernel parses"));
        });
        m.put("hbl.derive_us", derive_s * 1e6, "us");

        // Pool: the n-body grid at nproc jobs vs one job, and the
        // self-profile's cost on top.
        let nbody = &keyed[0];
        let sweep = |jobs: usize, profiled: bool| {
            let lab = Lab::new(LabConfig {
                jobs,
                ..LabConfig::default()
            });
            timed(|| {
                if profiled {
                    lab.run_keys_profiled(nbody).0.len()
                } else {
                    lab.run_keys(nbody).len()
                }
            })
            .1
        };
        let (mut one, mut many, mut profiled) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..3 {
            one.push(sweep(1, false));
            many.push(sweep(self.jobs, false));
            profiled.push(sweep(self.jobs, true));
        }
        m.put(
            "lab.pool.jobs_speedup",
            median(&one) / median(&many),
            "ratio",
        );
        m.put(
            "lab.selfprof.overhead_frac",
            median(&profiled) / median(&many) - 1.0,
            "frac",
        );

        // The persistent cache: the Fig. 4 grid cold into a fresh
        // directory at nproc jobs, then warm through a fresh engine.
        // Workers that execute the same digest at once race on its temp
        // file name (`{digest}.tmp{pid}`); the loser's rename fails and
        // the engine stops persisting for the rest of the sweep, which
        // shows as fewer records than distinct digests and a warm hit
        // ratio below 1.
        let dir = self.dir.join("probe-lab-cache");
        let engine = || {
            Lab::new(LabConfig {
                jobs: self.jobs,
                cache_dir: Some(dir.clone()),
                ..LabConfig::default()
            })
        };
        let (cold, cold_s) = timed(|| engine().run_keys(nbody));
        let records = count_records(&dir);
        let warm_lab = engine();
        let (warm, warm_s) = timed(|| warm_lab.run_keys(nbody));
        tally.check(cold == warm, "cache: warm results differ from cold");
        let st = warm_lab.cache_stats();
        let distinct = nbody
            .iter()
            .map(|k| k.digest())
            .collect::<HashSet<_>>()
            .len();
        m.put("lab.cache.cold_sweep_ms", cold_s * 1e3, "ms");
        m.put("lab.cache.warm_sweep_ms", warm_s * 1e3, "ms");
        m.put("lab.cache.records", records as f64, "count");
        m.put(
            "lab.cache.missing_records",
            distinct.saturating_sub(records as usize) as f64,
            "count",
        );
        m.put(
            "lab.cache.hit_ratio",
            st.hits as f64 / (st.hits + st.misses).max(1) as f64,
            "frac",
        );

        // Cache and journal, one call at a time on distinct digests.
        let mut seen = HashSet::new();
        let sample: Vec<(String, RunResult)> = keyed[0]
            .iter()
            .chain(&keyed[1])
            .filter(|k| seen.insert(k.digest()))
            .take(2000)
            .map(|k| (k.digest(), runner::execute(k).expect("priced above")))
            .collect();
        let dir = self.dir.join("probe-cache");
        let cache = ResultCache::new(1 << 16, Some(dir.clone()));
        let (_, put_s) = timed(|| {
            for (d, r) in &sample {
                let _ = cache.put(d, *r);
            }
        });
        let reread = ResultCache::new(1 << 16, Some(dir));
        let (hits, get_s) = timed(|| {
            sample
                .iter()
                .filter(|(d, r)| reread.get(d) == Some(*r))
                .count()
        });
        tally.check(hits == sample.len(), "cache: records did not read back");
        m.put("lab.cache.put_us", put_s * 1e6 / sample.len() as f64, "us");
        m.put("lab.cache.get_us", get_s * 1e6 / sample.len() as f64, "us");
        match Journal::create(&self.dir.join("probe.journal"), "probe") {
            Ok(j) => {
                let (_, secs) = timed(|| {
                    for _ in 0..5 {
                        for (d, r) in &sample {
                            j.record(d, r);
                        }
                    }
                });
                m.put(
                    "lab.journal.record_us",
                    secs * 1e6 / (5 * sample.len()) as f64,
                    "us",
                );
            }
            Err(e) => tally.check(false, &e),
        }
    }
}
