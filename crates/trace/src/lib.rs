//! # psse-trace — event-trace recording, DAG replay and re-pricing
//!
//! The simulator (`psse-sim`) prices a run as it executes: every
//! compute, send and receive advances a virtual clock by the paper's
//! Eq. 1 costs. This crate closes the loop the other way: record the
//! run **once** (set `SimConfig::record_trace`), capture the per-rank
//! typed event logs as a [`Trace`], and then
//!
//! * [`Trace::replay`] re-executes the event DAG under **any**
//!   [`ReplayParams`] — flat or two-level, different `γt`/`βt`/`αt`,
//!   different maximum message size — producing the profile the
//!   simulator would have produced on that machine, without re-running
//!   the algorithm. Under the recorded parameters replay is
//!   bit-identical to the live run ([`Trace::check_consistency`]).
//! * [`Trace::reprice`] prices the replayed run with a machine's
//!   energy parameters (Eq. 2): the paper's what-if question — same
//!   algorithm, same communication DAG, different hardware — answered
//!   from one recording.
//! * [`Trace::critical_path`] finds the chain of computes and sends
//!   that determines the makespan and splits every rank's time into
//!   compute / communication / idle.
//! * [`Trace::to_chrome_json`] exports the recording as Chrome
//!   trace-event JSON (one process per rank, loadable in Perfetto),
//!   and [`Trace::save`]/[`Trace::load`] give an exact plain-text
//!   round-trip for archiving and diffing runs.
//!
//! ## Example
//!
//! ```
//! use psse_sim::prelude::*;
//! use psse_trace::prelude::*;
//!
//! let cfg = SimConfig { record_trace: true, ..SimConfig::default() };
//! let out = Machine::run(4, cfg.clone(), |rank| {
//!     rank.compute(10_000);
//!     let v = rank.allreduce_sum(Tag(0), vec![rank.rank() as f64])?;
//!     Ok(v[0])
//! })
//! .unwrap();
//!
//! let trace = Trace::from_run(&cfg, &out.profile).unwrap();
//! trace.check_consistency(&out.profile).unwrap(); // replay == live
//!
//! // What if the network were 10x slower?
//! let mut slow = trace.params.clone();
//! slow.beta_t *= 10.0;
//! slow.alpha_t *= 10.0;
//! let profile = trace.replay(&slow).unwrap();
//! assert!(profile.makespan > out.profile.makespan);
//! ```

#![forbid(unsafe_code)]
// `!(x >= 0.0)` deliberately rejects NaN alongside negative values,
// matching psse-sim's validation idiom.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod chrome;
pub mod critical;
pub mod error;
pub mod flame;
mod replay;
pub mod textio;
pub mod trace;

pub use critical::{CriticalPathReport, PathSegment, RankBreakdown};
pub use error::{TraceError, TraceResult};
pub use trace::{ReplayParams, Trace};

/// One-stop imports.
pub mod prelude {
    pub use crate::critical::{CriticalPathReport, PathSegment, RankBreakdown};
    pub use crate::error::{TraceError, TraceResult};
    pub use crate::trace::{ReplayParams, Trace};
}
