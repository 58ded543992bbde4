//! Backend dispatch: run the same rank programs on the thread-per-rank
//! machine (the bit-identity oracle) or the discrete-event executor.

use crate::exec::{EventMachine, EventOutcome, ExecStats};
use crate::program::{Chan, Comm, Op, Payload, RankProgram};
use psse_sim::error::SimResult;
use psse_sim::{Backend, Machine, SimConfig};
use std::pin::pin;
use std::rc::Rc;
use std::task::Poll;

/// Run `program` on `p` ranks on the backend selected by
/// [`SimConfig::backend`]:
///
/// * [`Backend::Threads`] — each rank's body is driven on its own
///   pooled OS thread through a `psse_sim::Rank`. Every operation maps
///   to the exact `Rank` call the closure API would make (`compute` →
///   `compute`, `send` → `send_shared`, `recv` → `recv_shared`,
///   markers → `mark_collective_begin`/`end`), so this is the oracle
///   the event backend is checked against.
/// * [`Backend::Events`] — [`EventMachine::run`] prices the same
///   operations in one process, scheduled by virtual time;
///   byte-identical profiles, traces, and fault counters, feasible to
///   `p = 10^6`.
pub fn run_programs<P>(p: usize, cfg: &SimConfig, program: P) -> SimResult<EventOutcome<P::Output>>
where
    P: RankProgram + Sync,
    P::Output: Default + Send,
{
    match cfg.backend {
        Backend::Threads => {
            let outcome = Machine::run(p, cfg.clone(), |rank| {
                let chan = Rc::new(Chan::default());
                let mut body =
                    pin!(program.start(Comm::new(rank.rank(), rank.size(), Rc::clone(&chan))));
                let mut ops = Vec::new();
                let mut delivered = None;
                loop {
                    let poll = chan.poll(body.as_mut(), delivered.take(), &mut ops);
                    for op in ops.drain(..) {
                        match op {
                            Op::Compute(flops) => rank.compute(flops),
                            Op::Send(dest, tag, payload) => {
                                rank.send_shared(dest, tag, payload.into_shared())?;
                            }
                            Op::Recv(src, tag) => {
                                let data = rank.recv_shared(src, tag)?;
                                delivered = Some(Payload::Data(data));
                            }
                            Op::CollBegin(name) => rank.mark_collective_begin(name),
                            Op::CollEnd(name) => rank.mark_collective_end(name),
                        }
                    }
                    if let Poll::Ready(output) = poll {
                        return Ok(output);
                    }
                }
            })?;
            Ok(EventOutcome {
                results: outcome.results,
                profile: outcome.profile,
                // Thread backend: nothing is scheduled or parked.
                stats: ExecStats::default(),
            })
        }
        Backend::Events => EventMachine::run(p, cfg, program),
    }
}
