//! # psse-event — a deterministic discrete-event backend for
//! `p = 10^5`–`10^6` simulated ranks
//!
//! The thread-per-rank machine in `psse-sim` is the repo's ground
//! truth, but one OS thread per rank caps it around `p ≈ 10^4`. This
//! crate removes the thread: each rank's algorithm is an ordinary
//! **`async` body** written against one small handle, [`Comm`]
//! (`rank`, `size`, `compute`, `send`, collective markers, and
//! `recv(src, tag).await`), so the compiler writes the resumable state
//! machine. A single process polls all the bodies — std futures, a
//! no-op waker, no runtime — and schedules them by **virtual time** from
//! a deterministic calendar queue with `(time, rank, seq)`
//! tie-breaking.
//!
//! The contract is bit-identity: the event executor prices every
//! operation through the same `psse_sim::lane::Lane` that
//! `psse_sim::Rank` wraps — Eq. 1 chunked sends, postal-model
//! receives, fault injection with retries/backoff/checkpoints, trace
//! recording. Profiles are pure functions of the message DAG, so both
//! backends produce byte-identical profiles, traces, and fault
//! counters (enforced by the cross-backend tests here and the
//! repo-level `proptest_backends` property test). Pick a backend with
//! [`psse_sim::SimConfig::backend`] and [`run_programs`]: the same
//! bodies run on a pooled thread per rank through `psse_sim::Rank` (the
//! oracle at small `p`), or on the event executor, which runs the real
//! algorithms — binomial/recursive-doubling/ring allreduce, the 2.5D
//! matmul skeleton, sample sort, the halo stencil — at
//! `p = 10^5`–`10^6` in one process, with counted (allocation-free)
//! payloads.
//!
//! Deadlocks are *proven*, not timed out: sends are eager, so when no
//! rank is runnable and some are live, every live rank is blocked on a
//! `(src, tag)` queue no future send can fill, and the executor
//! reports the full blocked set as [`psse_sim::SimError::Deadlock`] in
//! zero wall-clock time.
//!
//! ## The mega-scale hot path
//!
//! Three structures keep wall-clock cost `O(1)` per event at
//! `p = 10^6`: a bucketed **calendar queue** scheduler (amortized
//! constant-time versus a heap's `O(log p)`), per-rank **slab
//! mailboxes** with free-list recycling and `(src, tag)`-chained
//! indexing (steady state allocates nothing), and an **analytic fast
//! path** that prices native counted collectives in closed form when
//! nothing can observe individual events (no trace, no faults, no
//! hierarchy, no data payloads) — same f64 operations, same order,
//! byte-identical profiles, enforced by differential tests against
//! [`EventMachine::run_general`], which is also the way to force the
//! general path. The fast path reads one claim from the program
//! ([`RankProgram::analytic`]) and builds no rank bodies at all. Engine
//! health counters ([`ExecStats`]) ride on every outcome and aggregate
//! process-wide for metrics export via [`export_health`].
//!
//! ## Example
//!
//! ```
//! use psse_event::{run_programs, BinomialAllreduce, Comm, Payload};
//! use psse_sim::{Backend, SimConfig, Tag};
//!
//! let cfg = SimConfig {
//!     backend: Backend::Events,
//!     ..SimConfig::default()
//! };
//! // A real allreduce over 10_000 ranks, in-process, no threads.
//! let out = run_programs(10_000, &cfg, BinomialAllreduce::counted(Tag(0), 8)).unwrap();
//! let t = BinomialAllreduce::expected_totals(10_000, 8, 1 << 16);
//! assert_eq!(out.profile.total_msgs_sent(), t.msgs);
//! assert_eq!(out.profile.total_words_sent(), t.words);
//! assert_eq!(out.profile.total_flops(), t.flops);
//!
//! // Any closure returning an `async` body is a program: rank 0 sends
//! // every other rank one real word, and each returns what it got.
//! let out = run_programs(100, &cfg, |comm: Comm| async move {
//!     if comm.rank() == 0 {
//!         for dest in 1..comm.size() {
//!             comm.send(dest, Tag(1), Payload::Data(vec![dest as f64].into()));
//!         }
//!         0.0
//!     } else {
//!         comm.recv(0, Tag(1)).await.values()[0]
//!     }
//! })
//! .unwrap();
//! assert_eq!(out.results[42], 42.0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
mod calq;
pub mod exec;
mod fastpath;
mod health;
pub mod program;
pub mod programs;
mod slab;

pub use bridge::run_programs;
pub use exec::{EventMachine, EventOutcome, ExecStats};
pub use health::{export_health, health_totals};
pub use program::{AnalyticOp, Comm, Payload, RankProgram};
pub use programs::{
    BinomialAllreduce, Matmul25D, OpTotals, RecursiveDoublingAllreduce, RingAllreduce, SampleSort,
    Stencil1D,
};

/// One-stop imports.
pub mod prelude {
    pub use crate::bridge::run_programs;
    pub use crate::exec::{EventMachine, EventOutcome, ExecStats};
    pub use crate::health::{export_health, health_totals};
    pub use crate::program::{AnalyticOp, Comm, Payload, RankProgram};
    pub use crate::programs::{
        BinomialAllreduce, Matmul25D, OpTotals, RecursiveDoublingAllreduce, RingAllreduce,
        SampleSort, Stencil1D,
    };
    pub use psse_sim::{Backend, SimConfig, Tag};
}
