//! The algorithm catalog: one row per algorithm name, pairing the
//! paper's cost model with the executor that runs it.
//!
//! Every surface that takes an algorithm name — `psse model`,
//! `psse scaling`, `psse simulate`, `psse trace record` and the lab's
//! model and simulate keys — resolves it here, so a name prices and
//! executes the same algorithm everywhere. A row's `simulate` function
//! builds seeded inputs, runs the executor and checks the output
//! against the sequential reference (bit-exact for sort and stencil).

use crate::prelude::*;
use psse_core::costs::{
    Algorithm, Cholesky25d, ClassicalMatMul, DirectNBody, FftAllToAll, FftTree, HaloStencilModel,
    Lu25d, MatVec, SampleSortModel, StrassenMatMul,
};
use psse_kernels::fft::{fft as serial_fft, Complex64};
use psse_kernels::gemm::matmul;
use psse_kernels::matrix::Matrix;
use psse_kernels::nbody::{accumulate_forces, random_particles};
use psse_kernels::rng::XorShift64;
use psse_sim::{Profile, SimConfig, SimError};

/// The point a row is built at: problem size, processors and the
/// per-algorithm knobs (each ignored by the rows that lack it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Problem size (matrix order, particles, keys, grid edge).
    pub n: u64,
    /// Total ranks.
    pub p: u64,
    /// Replication factor: 2.5D `c`, n-body team count.
    pub c: u64,
    /// n-body flops per interaction.
    pub f: f64,
    /// Stencil halo width.
    pub halo: u64,
    /// Stencil sweep count.
    pub iters: u64,
    /// Input seed.
    pub seed: u64,
    /// SUMMA panel width; `None` means `n/⌊√p⌋`.
    pub panel: Option<u64>,
    /// TSQR column count.
    pub cols: u64,
}

impl Shape {
    /// `(n, p)` with every knob at its default: `c = 1`, `f = 20`,
    /// `(halo, iters) = (1, 4)`, seed 42, default panel, 4 columns.
    pub fn new(n: u64, p: u64) -> Shape {
        Shape {
            n,
            p,
            c: 1,
            f: 20.0,
            halo: 1,
            iters: 4,
            seed: 42,
            panel: None,
            cols: 4,
        }
    }
}

/// One executed and verified run.
#[derive(Debug)]
pub struct Run {
    /// The virtual machine's counters.
    pub profile: Profile,
    /// [`digest_f64s`] of the output payload.
    pub output_digest: u64,
    /// Whether the output matched the sequential reference.
    pub verified: bool,
}

/// Cost-model constructor of a row.
pub type ModelFn = fn(&Shape) -> Box<dyn Algorithm>;
/// Executor of a row.
pub type SimulateFn = fn(&Shape, SimConfig) -> Result<Run, String>;

/// One catalog row.
pub struct Row {
    /// Canonical name.
    pub name: &'static str,
    /// Other accepted spellings.
    pub aliases: &'static [&'static str],
    /// The paper's `(F, W, S)` model, when there is one.
    pub model: Option<ModelFn>,
    /// The distributed executor, when there is one.
    pub simulate: Option<SimulateFn>,
}

/// A row with an executor and, when `model` is set, a cost model.
const fn row(
    name: &'static str,
    aliases: &'static [&'static str],
    model: Option<ModelFn>,
    simulate: SimulateFn,
) -> Row {
    Row {
        name,
        aliases,
        model,
        simulate: Some(simulate),
    }
}

/// Every algorithm, one row each (laid out as a table, one row a line).
#[rustfmt::skip]
pub static CATALOG: [Row; 17] = [
    row("mm25d", &["matmul"], Some(|_| Box::new(ClassicalMatMul)),
        |s, cfg| matmul_run(s, |a, b| matmul_25d(a, b, us(s.p), us(s.c), cfg))),
    row("mm25d-abft", &[], None,
        |s, cfg| matmul_run(s, |a, b| matmul_25d_abft(a, b, us(s.p), us(s.c), cfg))),
    row("summa", &[], None,
        |s, cfg| matmul_run(s, |a, b| summa_matmul(a, b, us(s.p), panel(s), cfg))),
    row("summa-abft", &[], None,
        |s, cfg| matmul_run(s, |a, b| summa_matmul_abft(a, b, us(s.p), panel(s), cfg))),
    row("cannon", &[], None, |s, cfg| matmul_run(s, |a, b| cannon_matmul(a, b, us(s.p), cfg))),
    row("mm3d", &[], None, |s, cfg| matmul_run(s, |a, b| matmul_3d(a, b, us(s.p), cfg))),
    row("strassen", &[], Some(|_| Box::new(StrassenMatMul::default())),
        |s, cfg| matmul_run(s, |a, b| strassen_distributed(a, b, us(s.p), cfg))),
    row("lu", &[], Some(|_| Box::new(Lu25d)), simulate_lu),
    row("solve", &[], None, simulate_solve),
    row("cholesky", &[], Some(|_| Box::new(Cholesky25d)), simulate_cholesky),
    row("nbody", &[], Some(nbody_model), simulate_nbody),
    row("fft", &["fft-tree"], Some(|_| Box::new(FftTree)),
        |s, cfg| fft_run(s, AllToAllKind::Hypercube, cfg)),
    row("fft-a2a", &[], Some(|_| Box::new(FftAllToAll)),
        |s, cfg| fft_run(s, AllToAllKind::Pairwise, cfg)),
    row("tsqr", &[], None, simulate_tsqr),
    row("matvec", &[], Some(|_| Box::new(MatVec)), simulate_matvec),
    row("samplesort", &[], Some(|_| Box::new(SampleSortModel)), simulate_samplesort),
    row("stencil", &[], Some(stencil_model), simulate_stencil),
];

/// The row that accepts `name`, if any.
fn lookup(name: &str) -> Option<&'static Row> {
    CATALOG
        .iter()
        .find(|row| row.name == name || row.aliases.contains(&name))
}

/// Every accepted spelling of the rows `has` selects, `|`-separated,
/// each row's name followed by its aliases.
fn names(has: fn(&Row) -> bool) -> String {
    let spellings: Vec<&str> = CATALOG
        .iter()
        .filter(|row| has(row))
        .flat_map(|row| std::iter::once(row.name).chain(row.aliases.iter().copied()))
        .collect();
    spellings.join("|")
}

/// The cost model of `name` at `shape`.
pub fn model(name: &str, shape: &Shape) -> Result<Box<dyn Algorithm>, String> {
    match lookup(name).and_then(|row| row.model) {
        Some(build) => Ok(build(shape)),
        None => Err(format!(
            "unknown model algorithm `{name}` ({})",
            names(|row| row.model.is_some())
        )),
    }
}

/// Execute and verify `name` at `shape` under `cfg`.
pub fn simulate(name: &str, shape: &Shape, cfg: SimConfig) -> Result<Run, String> {
    match lookup(name).and_then(|row| row.simulate) {
        Some(exec) => exec(shape, cfg),
        None => Err(format!(
            "unknown simulator algorithm `{name}` ({})",
            names(|row| row.simulate.is_some())
        )),
    }
}

/// Digest an output payload's f64 bit patterns with splitmix64, so two
/// runs can be compared for bit-identical outputs without retaining the
/// payloads.
pub fn digest_f64s(values: &[f64]) -> u64 {
    let words: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    psse_faults::rng::hash_key(0x6f75_7470_7574_6467, &words)
}

fn nbody_model(s: &Shape) -> Box<dyn Algorithm> {
    Box::new(DirectNBody {
        flops_per_interaction: s.f,
    })
}

fn stencil_model(s: &Shape) -> Box<dyn Algorithm> {
    let (halo, iters) = (s.halo, s.iters);
    Box::new(HaloStencilModel { halo, iters })
}

fn us(x: u64) -> usize {
    x as usize
}

/// SUMMA's panel width: `--panel`, else one block column `n/⌊√p⌋`.
fn panel(s: &Shape) -> usize {
    let default = (us(s.n) / (s.p as f64).sqrt() as usize).max(1);
    s.panel.map_or(default, us)
}

/// Seal a run: digest the output and record the verdict.
fn finish(profile: Profile, output: &[f64], verified: bool) -> Run {
    Run {
        profile,
        output_digest: digest_f64s(output),
        verified,
    }
}

/// Multiply two seeded `n × n` matrices and check against serial gemm.
fn matmul_run(
    s: &Shape,
    exec: impl FnOnce(&Matrix, &Matrix) -> Result<(Matrix, Profile), SimError>,
) -> Result<Run, String> {
    let n = us(s.n);
    let a = Matrix::random(n, n, s.seed);
    let b = Matrix::random(n, n, s.seed + 1);
    let (c, profile) = exec(&a, &b).map_err(|e| e.to_string())?;
    let ok = c.max_abs_diff(&matmul(&a, &b)) < 1e-8;
    Ok(finish(profile, c.as_slice(), ok))
}

fn simulate_lu(s: &Shape, cfg: SimConfig) -> Result<Run, String> {
    let a = Matrix::random_diagonally_dominant(us(s.n), s.seed);
    let (packed, profile) = lu_2d(&a, us(s.p), cfg).map_err(|e| e.to_string())?;
    let (l, u) = psse_kernels::lu::split_lu(&packed);
    let ok = matmul(&l, &u).relative_error(&a) < 1e-8;
    Ok(finish(profile, packed.as_slice(), ok))
}

fn simulate_solve(s: &Shape, cfg: SimConfig) -> Result<Run, String> {
    let n = us(s.n);
    let a = Matrix::random_diagonally_dominant(n, s.seed);
    let x_true: Vec<f64> = (0..n).map(|i| i as f64 - n as f64 / 2.0).collect();
    let b: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| a[(i, j)] * x_true[j]).sum())
        .collect();
    let (x, profile) = solve_2d(&a, &b, us(s.p), cfg).map_err(|e| e.to_string())?;
    let ok = x
        .iter()
        .zip(&x_true)
        .all(|(a, b)| (a - b).abs() < 1e-6 * (1.0 + b.abs()));
    Ok(finish(profile, &x, ok))
}

fn simulate_cholesky(s: &Shape, cfg: SimConfig) -> Result<Run, String> {
    let n = us(s.n);
    let b = Matrix::random(n, n, s.seed);
    let mut a = matmul(&b.transpose(), &b);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    let (l, profile) = cholesky_2d(&a, us(s.p), cfg).map_err(|e| e.to_string())?;
    let ok = matmul(&l, &l.transpose()).relative_error(&a) < 1e-8;
    Ok(finish(profile, l.as_slice(), ok))
}

/// `p = pr·c`: the shape's `p` is total ranks, `c` the team count.
fn simulate_nbody(s: &Shape, cfg: SimConfig) -> Result<Run, String> {
    let (p, c) = (us(s.p), us(s.c));
    if c == 0 || !p.is_multiple_of(c) {
        return Err(format!(
            "--c {c} must divide --p {p} for the replicated n-body layout"
        ));
    }
    let particles = random_particles(us(s.n), s.seed);
    let (forces, profile) =
        nbody_replicated(&particles, p / c, c, cfg).map_err(|e| e.to_string())?;
    let mut serial = vec![[0.0; 3]; particles.len()];
    accumulate_forces(&particles, &particles, &mut serial);
    let ok = forces
        .iter()
        .zip(&serial)
        .all(|(a, b)| (0..3).all(|d| (a[d] - b[d]).abs() < 1e-8));
    let flat: Vec<f64> = forces.iter().flatten().copied().collect();
    Ok(finish(profile, &flat, ok))
}

fn fft_run(s: &Shape, kind: AllToAllKind, cfg: SimConfig) -> Result<Run, String> {
    let mut rng = XorShift64::new(s.seed);
    let x: Vec<Complex64> = (0..s.n)
        .map(|_| Complex64::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
        .collect();
    let (spectrum, profile) = distributed_fft(&x, us(s.p), kind, cfg).map_err(|e| e.to_string())?;
    let ok = spectrum
        .iter()
        .zip(&serial_fft(&x))
        .all(|(a, b)| (*a - *b).abs() < 1e-7);
    let flat: Vec<f64> = spectrum.iter().flat_map(|z| [z.re, z.im]).collect();
    Ok(finish(profile, &flat, ok))
}

fn simulate_tsqr(s: &Shape, cfg: SimConfig) -> Result<Run, String> {
    let a = Matrix::random(us(s.n), us(s.cols), s.seed);
    let (r, profile) = tsqr(&a, us(s.p), cfg).map_err(|e| e.to_string())?;
    let (_, r_seq) = psse_kernels::qr::householder_qr(&a);
    let ok = r.max_abs_diff(&r_seq) < 1e-7;
    Ok(finish(profile, r.as_slice(), ok))
}

fn simulate_matvec(s: &Shape, cfg: SimConfig) -> Result<Run, String> {
    let n = us(s.n);
    let a = Matrix::random(n, n, s.seed);
    let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 1.0).collect();
    let (y, profile) = matvec_1d(&a, &x, us(s.p), cfg).map_err(|e| e.to_string())?;
    let ok = (0..n).all(|i| {
        let serial: f64 = a.row(i).iter().zip(&x).map(|(aij, xj)| aij * xj).sum();
        (y[i] - serial).abs() < 1e-8 * (1.0 + serial.abs())
    });
    Ok(finish(profile, &y, ok))
}

/// Bit-exact check: sorting permutes, it never rounds.
fn simulate_samplesort(s: &Shape, cfg: SimConfig) -> Result<Run, String> {
    let keys = random_keys(us(s.n), s.seed);
    let (sorted, profile) = sample_sort(&keys, us(s.p), cfg).map_err(|e| e.to_string())?;
    let mut reference = keys;
    reference.sort_by(|a, b| a.total_cmp(b));
    let ok = sorted == reference;
    Ok(finish(profile, &sorted, ok))
}

/// 2-D blocks when `p` is a perfect square dividing `n`, 1-D row slabs
/// otherwise: a pure function of `(n, p)`, so a lab key needs no
/// decomposition field. Bit-exact check: the distributed sweep sums
/// each neighbourhood in the serial order.
fn simulate_stencil(s: &Shape, cfg: SimConfig) -> Result<Run, String> {
    let (n, p) = (us(s.n), us(s.p));
    let q = (p as f64).sqrt().round() as usize;
    let decomp = if q * q == p && q > 0 && n.is_multiple_of(q) {
        Decomp::TwoD
    } else {
        Decomp::OneD
    };
    let (halo, iters) = (us(s.halo), us(s.iters));
    let grid = random_grid(n, s.seed);
    let (out, profile) =
        halo_stencil(&grid, n, halo, iters, decomp, p, cfg).map_err(|e| e.to_string())?;
    let ok = out == serial_stencil(&grid, n, halo, iters);
    Ok(finish(profile, &out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_core::machines::jaketown;

    #[test]
    fn every_spelling_names_exactly_one_row() {
        let all: Vec<&str> = CATALOG
            .iter()
            .flat_map(|r| std::iter::once(r.name).chain(r.aliases.iter().copied()))
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a spelling names two rows");
        for name in all {
            assert!(lookup(name).is_some());
        }
        assert_eq!(lookup("matmul").unwrap().name, "mm25d");
        assert_eq!(lookup("fft-tree").unwrap().name, "fft");
        assert!(lookup("quicksort").is_none());
    }

    #[test]
    fn fft_runs_the_algorithm_its_model_prices() {
        let mp = jaketown();
        for p in [4u64, 8, 16] {
            let shape = Shape::new(256, p);
            let measured = |name| {
                let run = simulate(name, &shape, SimConfig::default()).unwrap();
                assert!(run.verified, "{name} at p = {p}");
                run.profile.max_msgs_sent()
            };
            let tree = model("fft", &shape).unwrap();
            let predicted = tree
                .costs(256, p, tree.min_memory(256, p), &mp)
                .unwrap()
                .messages;
            assert_eq!(measured("fft") as f64, predicted, "fft at p = {p}");
            assert_eq!(measured("fft-a2a"), p - 1, "fft-a2a at p = {p}");
        }
    }

    #[test]
    fn nbody_rejects_a_team_count_that_does_not_divide_p() {
        let shape = Shape {
            c: 4,
            ..Shape::new(64, 18)
        };
        let err = simulate("nbody", &shape, SimConfig::default()).unwrap_err();
        assert!(err.contains("--c 4 must divide --p 18"), "{err}");
    }

    #[test]
    fn summa_defaults_to_one_block_column_panels() {
        let shape = Shape::new(64, 16);
        assert_eq!(panel(&shape), 16);
        assert_eq!(
            panel(&Shape {
                panel: Some(3),
                ..shape
            }),
            3
        );
    }
}
