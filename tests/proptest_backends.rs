//! Property-based cross-backend bit-identity: for random allreduce
//! programs, processor counts `p ≤ 64`, machine parameters, optional
//! fault plans and tracing on/off, the thread-per-rank machine and the
//! discrete-event scheduler must produce **byte-identical** profiles —
//! every counter, every virtual time, every trace event — and identical
//! numerical results.
//!
//! This is the enforcement arm of the `SimConfig::backend` contract:
//! the thread pool stays the bit-identity oracle at small `p`, and any
//! event-backend divergence (scheduling, fault pricing, chunking,
//! collective shape) fails here long before the mega-scale runs.

use proptest::prelude::*;
use psse::event::prelude::*;
use psse::sim::machine::SimConfig;
use psse::sim::prelude::{FaultPlan, FaultSpec, RecoveryPolicy};

/// A recovery-enabled plan: every fault kind fires, retries are generous
/// enough that runs always complete, so both backends return `Ok`.
fn retry_plan(seed: u64, drop: f64, corrupt: f64, dup: f64, delay: f64) -> FaultPlan {
    FaultPlan {
        spec: FaultSpec {
            seed,
            drop_rate: drop,
            corrupt_rate: corrupt,
            duplicate_rate: dup,
            delay_rate: delay,
            delay_seconds: if delay > 0.0 { 1e-5 } else { 0.0 },
            ..FaultSpec::default()
        },
        recovery: RecoveryPolicy {
            max_retries: 32,
            retry_backoff: 1e-7,
            checkpoint: None,
        },
    }
}

/// Run `make` on both backends under `cfg` and require byte identity:
/// equal profiles (counters, traces, makespan) and equal per-rank
/// reduced values.
fn assert_backends_agree<P>(p: usize, cfg: &SimConfig, program: P, ctx: &str)
where
    P: RankProgram<Output = Option<Vec<f64>>> + Clone + Sync,
{
    let threads = run_programs(
        p,
        &SimConfig {
            backend: Backend::Threads,
            ..cfg.clone()
        },
        program.clone(),
    )
    .unwrap_or_else(|e| panic!("{ctx}: thread backend failed: {e}"));
    let events = run_programs(
        p,
        &SimConfig {
            backend: Backend::Events,
            ..cfg.clone()
        },
        program,
    )
    .unwrap_or_else(|e| panic!("{ctx}: event backend failed: {e}"));
    assert_eq!(threads.profile, events.profile, "{ctx}: profile diverged");
    assert_eq!(threads.results, events.results, "{ctx}: results diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (algorithm, p, machine, chunking, faults, tracing) points
    /// agree byte-for-byte across the two backends.
    #[test]
    fn backends_are_bit_identical(
        alg in 0usize..5,
        p in 1usize..65,
        words in 1usize..80,
        seed in 0u64..1_000_000,
        beta_exp in 0u32..4,
        m in 1usize..96,
        record_trace in any::<bool>(),
        with_faults in any::<bool>(),
        drop in 0.0..0.2f64,
        corrupt in 0.0..0.1f64,
        dup in 0.0..0.1f64,
        delay in 0.0..0.1f64,
    ) {
        let cfg = SimConfig {
            gamma_t: 1e-9,
            beta_t: 1e-6 * 10f64.powi(-(beta_exp as i32)),
            alpha_t: 1e-4,
            max_message_words: m,
            record_trace,
            faults: with_faults.then(|| retry_plan(seed, drop, corrupt, dup, delay)),
            ..SimConfig::default()
        };
        let data: Vec<f64> = (0..words)
            .map(|i| ((i as u64).wrapping_mul(seed | 1) % 1000) as f64 * 0.25 - 100.0)
            .collect();
        match alg {
            0 => {
                let ctx = format!("binomial p={p} m={m} faults={with_faults}");
                assert_backends_agree(
                    p,
                    &cfg,
                    BinomialAllreduce::with_data(Tag(7), data.clone()),
                    &ctx,
                );
            }
            1 => {
                // Recursive doubling needs a power-of-two rank count.
                let p = 1usize << (63 - (p as u64).leading_zeros()).min(6);
                let ctx = format!("rd p={p} m={m} faults={with_faults}");
                assert_backends_agree(
                    p,
                    &cfg,
                    RecursiveDoublingAllreduce::with_data(Tag(7), data.clone()),
                    &ctx,
                );
            }
            2 => {
                let ctx = format!("ring p={p} m={m} faults={with_faults}");
                assert_backends_agree(p, &cfg, RingAllreduce::with_data(Tag(7), data.clone()), &ctx);
            }
            3 => {
                // Sample sort needs p | n and a block of at least p keys
                // per rank; stretch the random data to p·max(p, words).
                let p = p.min(16);
                let bs = words.max(p);
                let keys: Vec<f64> = (0..p * bs)
                    .map(|i| (((i as u64).wrapping_mul(seed | 1)) % 4096) as f64 * 0.5 - 1024.0)
                    .collect();
                let ctx = format!("samplesort p={p} bs={bs} m={m} faults={with_faults}");
                assert_backends_agree(p, &cfg, SampleSort::with_data(keys), &ctx);
            }
            _ => {
                // Stencil needs p | n rows: give each rank `words` rows
                // (≥ halo = 1 each) of an n×n grid.
                let p = p.min(8);
                let n = p * words.clamp(1, 8);
                let grid: Vec<f64> = (0..n * n)
                    .map(|i| (((i as u64).wrapping_mul(seed | 3)) % 997) as f64 * 0.125)
                    .collect();
                let iters = 1 + (seed % 3) as usize;
                let ctx = format!("stencil p={p} n={n} iters={iters} m={m} faults={with_faults}");
                assert_backends_agree(p, &cfg, Stencil1D::with_data(grid, n, 1, iters), &ctx);
            }
        }
    }

    /// The per-rank reduced values agree too (not just the profile): the
    /// event backend's payload routing delivers exactly the bytes the
    /// thread backend's mailboxes do.
    #[test]
    fn backend_results_are_bit_identical(
        p in 1usize..33,
        words in 1usize..50,
        seed in 0u64..1_000_000,
        with_faults in any::<bool>(),
    ) {
        let cfg = SimConfig {
            max_message_words: 17,
            faults: with_faults.then(|| retry_plan(seed, 0.1, 0.05, 0.05, 0.05)),
            ..SimConfig::default()
        };
        let data: Vec<f64> = (0..words).map(|i| (i as f64 + seed as f64 * 1e-6).sin()).collect();
        let run = |backend| {
            run_programs(
                p,
                &SimConfig { backend, ..cfg.clone() },
                BinomialAllreduce::with_data(Tag(0), data.clone()),
            )
            .unwrap()
        };
        let (threads, events) = (run(Backend::Threads), run(Backend::Events));
        prop_assert_eq!(&threads.profile, &events.profile);
        for (r, (a, b)) in threads.results.iter().zip(&events.results).enumerate() {
            let (a, b) = (a.as_deref().unwrap(), b.as_deref().unwrap());
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "rank {} diverged", r);
            }
        }
    }
}
