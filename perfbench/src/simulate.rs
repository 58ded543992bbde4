//! `verified_simulate`: a fixed list of real-payload algorithm runs on
//! the thread backend, through the `psse_algos` executors that both
//! `psse simulate` and the lab runner call. Every output is checked
//! against a sequential `psse_kernels` reference computed in set-up,
//! with `psse simulate`'s tolerances (bit-exact for sort and stencil);
//! the faulted sort must also match the fault-free one bit for bit.

use psse_algos::prelude::{
    cannon_matmul, halo_stencil, matmul_25d, nbody_replicated, random_grid, random_keys,
    sample_sort, serial_stencil, sim_config_from, summa_matmul, Decomp,
};
use psse_core::machines::jaketown;
use psse_event::prelude::{run_programs, BinomialAllreduce, Tag};
use psse_faults::{FaultPlan, FaultSpec, RecoveryPolicy};
use psse_kernels::gemm::{gemm_flops, matmul, matmul_add_into, matmul_naive};
use psse_kernels::matrix::Matrix;
use psse_kernels::nbody::{accumulate_forces, random_particles, Particle, FLOPS_PER_INTERACTION};
use psse_sim::machine::{Machine, SimConfig};
use psse_sim::profile::Profile;
use std::path::Path;
use std::time::Instant;

use crate::report::{median, per_call, span, timed, Metrics, Rng, Spans, Tally};
use crate::{Job, Pass};

/// Matrix order of the matmul runs and grid edge of the stencil.
const N_MAT: usize = 512;
/// Particles of the n-body runs.
const N_BODY: usize = 4096;
/// Keys of the sample-sort runs.
const N_SORT: usize = 1 << 20;
/// Stencil radius and sweeps.
const HALO: usize = 2;
const SWEEPS: usize = 16;

#[derive(Clone, Copy)]
enum Run {
    Mm25d { p: usize, c: usize },
    Summa { p: usize },
    Cannon { p: usize },
    NBody { p: usize, c: usize },
    Sort { p: usize, faulted: bool },
    Stencil { p: usize },
}

/// The run list: valid 2.5D grids only (`p = q²c`, `c | q`, `q | n`).
const RUNS: [Run; 15] = [
    Run::Mm25d { p: 8, c: 2 },
    Run::Mm25d { p: 16, c: 1 },
    Run::Mm25d { p: 32, c: 2 },
    Run::Mm25d { p: 64, c: 4 },
    Run::Summa { p: 16 },
    Run::Summa { p: 64 },
    Run::Cannon { p: 16 },
    Run::Cannon { p: 64 },
    Run::NBody { p: 16, c: 1 },
    Run::NBody { p: 32, c: 2 },
    Run::NBody { p: 64, c: 4 },
    Run::Sort {
        p: 16,
        faulted: false,
    },
    Run::Sort {
        p: 16,
        faulted: true,
    },
    Run::Stencil { p: 8 },
    Run::Stencil { p: 16 },
];

impl Run {
    fn span(self) -> &'static str {
        match self {
            Run::Mm25d { .. } => "algos.mm25d",
            Run::Summa { .. } => "algos.summa",
            Run::Cannon { .. } => "algos.cannon",
            Run::NBody { .. } => "algos.nbody",
            Run::Sort { .. } => "algos.samplesort",
            Run::Stencil { .. } => "algos.stencil",
        }
    }

    /// Edge of the local gemm block, for the matmul runs.
    fn gemm_block(self) -> Option<usize> {
        let q = |p: usize, c: usize| ((p / c) as f64).sqrt().round() as usize;
        match self {
            Run::Mm25d { p, c } => Some(N_MAT / q(p, c)),
            Run::Summa { p } | Run::Cannon { p } => Some(N_MAT / q(p, 1)),
            _ => None,
        }
    }
}

/// Counters of one pass, summed over its runs.
#[derive(Default, Clone, Copy)]
struct Counters {
    flops: u64,
    words: u64,
    msgs: u64,
    retries: u64,
    resilience_msgs: u64,
    faulted_msgs: u64,
}

pub struct VerifiedSimulate {
    cfg: SimConfig,
    faults: FaultPlan,
    a: Matrix,
    b: Matrix,
    product: Matrix,
    particles: Vec<Particle>,
    forces: Vec<[f64; 3]>,
    keys: Vec<f64>,
    sorted: Vec<f64>,
    grid: Vec<f64>,
    stenciled: Vec<f64>,
    serial_ref_s: f64,
    counters: Counters,
}

fn matmul_ok(out: &Matrix, reference: &Matrix) -> bool {
    out.max_abs_diff(reference) < 1e-8
}

impl VerifiedSimulate {
    /// Execute one run and check its output. Returns the profile when
    /// the executor succeeded.
    fn run(&self, run: Run, spans: &mut Option<&mut Spans>, tally: &mut Tally) -> Option<Profile> {
        let cfg = self.cfg.clone();
        let label = run.span();
        let outcome: Result<(bool, Profile), String> = match run {
            Run::Mm25d { p, c } => span(spans, label, || matmul_25d(&self.a, &self.b, p, c, cfg))
                .map(|(m, prof)| (matmul_ok(&m, &self.product), prof))
                .map_err(|e| e.to_string()),
            Run::Summa { p } => {
                let panel = N_MAT / (p as f64).sqrt() as usize;
                span(spans, label, || {
                    summa_matmul(&self.a, &self.b, p, panel, cfg)
                })
                .map(|(m, prof)| (matmul_ok(&m, &self.product), prof))
                .map_err(|e| e.to_string())
            }
            Run::Cannon { p } => span(spans, label, || cannon_matmul(&self.a, &self.b, p, cfg))
                .map(|(m, prof)| (matmul_ok(&m, &self.product), prof))
                .map_err(|e| e.to_string()),
            Run::NBody { p, c } => span(spans, label, || {
                nbody_replicated(&self.particles, p / c, c, cfg)
            })
            .map(|(acc, prof)| {
                let ok = acc
                    .iter()
                    .zip(&self.forces)
                    .all(|(a, b)| (0..3).all(|d| (a[d] - b[d]).abs() < 1e-8));
                (ok, prof)
            })
            .map_err(|e| e.to_string()),
            Run::Sort { p, faulted } => {
                let cfg = SimConfig {
                    faults: faulted.then(|| self.faults.clone()),
                    ..cfg
                };
                span(spans, label, || sample_sort(&self.keys, p, cfg))
                    .map(|(out, prof)| (out == self.sorted, prof))
                    .map_err(|e| e.to_string())
            }
            Run::Stencil { p } => {
                let q = (p as f64).sqrt().round() as usize;
                let decomp = if q * q == p && N_MAT.is_multiple_of(q) {
                    Decomp::TwoD
                } else {
                    Decomp::OneD
                };
                span(spans, label, || {
                    halo_stencil(&self.grid, N_MAT, HALO, SWEEPS, decomp, p, cfg)
                })
                .map(|(out, prof)| (out == self.stenciled, prof))
                .map_err(|e| e.to_string())
            }
        };
        match outcome {
            Ok((ok, profile)) => {
                tally.check(ok, &format!("{label}: output differs from the reference"));
                Some(profile)
            }
            Err(e) => {
                tally.check(false, &format!("{label}: {e}"));
                None
            }
        }
    }
}

impl Job for VerifiedSimulate {
    const SETUP_BATCH: usize = 1;
    const SETUP_SAMPLES: usize = 1;
    const FRESH_FIXTURE: bool = false;
    const TRACE_WARM: bool = false;

    fn setup(seed: u64, _dir: &Path) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let a = Matrix::random(N_MAT, N_MAT, rng.next_u64());
        let b = Matrix::random(N_MAT, N_MAT, rng.next_u64());
        let particles = random_particles(N_BODY, rng.next_u64());
        let keys = random_keys(N_SORT, rng.next_u64());
        let grid = random_grid(N_MAT, rng.next_u64());
        let faults = FaultPlan {
            spec: FaultSpec {
                seed: rng.next_u64(),
                drop_rate: 0.02,
                corrupt_rate: 0.01,
                ..FaultSpec::default()
            },
            recovery: RecoveryPolicy {
                max_retries: 24,
                ..RecoveryPolicy::default()
            },
        };
        let t0 = Instant::now();
        let product = matmul(&a, &b);
        let mut forces = vec![[0.0; 3]; N_BODY];
        accumulate_forces(&particles, &particles, &mut forces);
        let mut sorted = keys.clone();
        sorted.sort_by(|x, y| x.total_cmp(y));
        let stenciled = serial_stencil(&grid, N_MAT, HALO, SWEEPS);
        let serial_ref_s = t0.elapsed().as_secs_f64();
        Ok(VerifiedSimulate {
            cfg: sim_config_from(&jaketown()),
            faults,
            a,
            b,
            product,
            particles,
            forces,
            keys,
            sorted,
            grid,
            stenciled,
            serial_ref_s,
            counters: Counters::default(),
        })
    }

    fn pass(&mut self, _warm: bool, mut spans: Option<&mut Spans>) -> Pass {
        let mut tally = Tally::default();
        let mut c = Counters::default();
        let t0 = Instant::now();
        for run in RUNS {
            let Some(profile) = self.run(run, &mut spans, &mut tally) else {
                continue;
            };
            c.flops += profile.total_flops();
            c.words += profile.total_words_sent();
            c.msgs += profile.total_msgs_sent();
            if let Run::Sort { faulted: true, .. } = run {
                c.retries += profile.total_retries();
                c.resilience_msgs += profile.resilience_msgs();
                c.faulted_msgs += profile.total_msgs_sent();
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        tally.check(c.retries > 0, "faults: the fault plan injected nothing");
        self.counters = c;
        Pass {
            wall,
            keys: RUNS.len() as u64,
            msgs: c.msgs as f64,
            tally,
        }
    }

    fn span_metrics(&self, cold: &Spans, _warm: &Spans) -> Vec<(&'static str, f64, &'static str)> {
        let c = self.counters;
        vec![
            ("algos.mm25d_s", cold.total("algos.mm25d"), "s"),
            ("algos.summa_s", cold.total("algos.summa"), "s"),
            ("algos.cannon_s", cold.total("algos.cannon"), "s"),
            ("algos.nbody_s", cold.total("algos.nbody"), "s"),
            ("algos.samplesort_s", cold.total("algos.samplesort"), "s"),
            ("algos.stencil_s", cold.total("algos.stencil"), "s"),
            ("algos.serial_ref_s", self.serial_ref_s, "s"),
            ("sim.flops", c.flops as f64, "count"),
            ("sim.words", c.words as f64, "count"),
            ("sim.msgs", c.msgs as f64, "count"),
            ("faults.retries", c.retries as f64, "count"),
            (
                "faults.useful_msg_ratio",
                c.faulted_msgs as f64 / (c.faulted_msgs + c.resilience_msgs).max(1) as f64,
                "frac",
            ),
        ]
    }

    fn probes(&mut self, m: &mut Metrics, tally: &mut Tally) {
        // Local gemm at the runs' block edges, blocked and naive, then
        // both at 128 (the ROADMAP's blocked-vs-naive question).
        let mut blocks: Vec<usize> = RUNS.iter().filter_map(|r| r.gemm_block()).collect();
        blocks.sort_unstable();
        blocks.dedup();
        let gflops = |bs: &[usize], naive: bool| {
            let (mut flops, mut secs) = (0u64, 0.0);
            for &b in bs {
                let x = Matrix::random(b, b, 1);
                let y = Matrix::random(b, b, 2);
                let reps = ((1 << 26) / gemm_flops(b, b, b)).max(3) as usize;
                let per = per_call(5, reps, || {
                    if naive {
                        std::hint::black_box(matmul_naive(&x, &y));
                    } else {
                        let mut z = Matrix::zeros(b, b);
                        matmul_add_into(&mut z, &x, &y);
                        std::hint::black_box(z);
                    }
                });
                flops += gemm_flops(b, b, b);
                secs += per;
            }
            flops as f64 / secs / 1e9
        };
        m.put("kernels.gemm_gflops", gflops(&blocks, false), "GFLOP/s");
        m.put(
            "kernels.gemm_naive_gflops",
            gflops(&blocks, true),
            "GFLOP/s",
        );
        m.put("kernels.gemm_gflops_128", gflops(&[128], false), "GFLOP/s");
        m.put(
            "kernels.gemm_naive_gflops_128",
            gflops(&[128], true),
            "GFLOP/s",
        );

        // Direct n-body: one rank's block against all sources.
        let block = &self.particles[..N_BODY / 16];
        let per = per_call(5, 3, || {
            let mut acc = vec![[0.0; 3]; block.len()];
            accumulate_forces(block, &self.particles, &mut acc);
            std::hint::black_box(acc);
        });
        let interactions = (block.len() * N_BODY) as f64;
        m.put(
            "kernels.nbody_gflops",
            interactions * FLOPS_PER_INTERACTION as f64 / per / 1e9,
            "GFLOP/s",
        );

        // Thread transport: a counted allreduce at p = 64, and an empty
        // run for the fixed cost of `Machine::run`.
        let (p, words) = (64, 1 << 12);
        let mut ns = Vec::new();
        for _ in 0..15 {
            let (out, secs) = timed(|| {
                run_programs(
                    p,
                    &SimConfig::default(),
                    BinomialAllreduce::counted(Tag(0), words),
                )
            });
            match out {
                Ok(o) => {
                    let want = BinomialAllreduce::expected_totals(p as u64, words as u64, 1 << 16);
                    tally.check(
                        o.profile.total_msgs_sent() == want.msgs,
                        "sim: allreduce message count differs from the closed form",
                    );
                    ns.push(secs * 1e9 / want.msgs as f64);
                }
                Err(e) => tally.check(false, &format!("sim: allreduce: {e}")),
            }
        }
        if !ns.is_empty() {
            m.put("sim.transport_ns_per_msg", median(&ns), "ns");
        }
        let per = per_call(7, 10, || {
            let _ = Machine::run(64, SimConfig::default(), |_| Ok(()));
        });
        m.put("sim.run_overhead_us", per * 1e6, "us");
    }
}
