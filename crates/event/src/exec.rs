//! The discrete-event executor (virtual-time calendar queue) plus the
//! analytic fast path for native counted collectives, byte-identical by
//! construction.
//!
//! ## Why the paths cannot disagree
//!
//! Every path charges through `psse_sim::lane`, the one Eq. 1 pricing
//! core: each rank's [`Lane`] here is the same type the thread
//! backend's `Rank` wraps. A rank's profile is a pure function of its
//! own operation sequence plus, for each receive, the `(departure,
//! words)` of the matching transfer. Matching is per-`(src, tag)` FIFO, and each
//! `(src, tag)` key has a single sender whose sends are totally ordered
//! by its own body — so *which* wire matches *which* receive is
//! fixed by the bodies alone, independent of scheduling.
//! The executor polls each rank's `async` body and dispatches runnable
//! ranks by `(virtual time, rank, seq)` from a deterministic calendar
//! queue; the fast path (`crate::fastpath`) prices a known DAG in
//! closed form. Both walk the same message DAG, so every priced number
//! is bit-identical (tested in `tests/` and against the thread
//! backend).
//!
//! ## The hot path
//!
//! Three structures keep the per-event constant small at `p = 10^6`:
//! the scheduler is a bucketed calendar queue (`crate::calq`, amortized
//! `O(1)` versus the heap's `O(log p)`), each mailbox is a slab of
//! recycled wire cells indexed by `(src, tag)` chains (`crate::slab`,
//! no steady-state allocation), and a delivery to a rank parked on
//! exactly that `(src, tag)` is priced on the spot — the wire never
//! touches a mailbox at all. Direct delivery is sound because a parked
//! rank's queue for its awaited key is empty by construction (it parked
//! on `pop() == None` and every later matching wire would have been
//! delivered directly), and pricing early is invisible because the
//! receiver is parked and its context depends only on its own state
//! and the wire.
//!
//! ## Deadlock
//!
//! Sends are eager, so a rank can only block in `recv`. When no rank is
//! runnable and some are still live, every live rank is blocked on an
//! empty `(src, tag)` queue that no future send can fill — a *proven*
//! deadlock, reported as [`SimError::Deadlock`] with the full blocked
//! set, in zero wall-clock time.

use crate::calq::{CalendarQueue, SchedKey};
use crate::fastpath;
use crate::program::{Chan, Comm, Op, Payload, RankProgram};
use crate::slab::{Mailbox, Wire};
use psse_sim::error::SimResult;
use psse_sim::{Lane, Profile, SimConfig, SimError, Tag};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

/// Executor health counters for one run: how hard the hot-path
/// structures worked. Zero on the analytic fast path and on the thread
/// backend (nothing is scheduled or parked there). Exported process-wide
/// as `event.*` metrics via [`crate::export_health`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Sum over ranks of the peak number of wires parked in the rank's
    /// mailbox slab (an upper bound on the global in-flight peak).
    pub slab_live_peak: u64,
    /// Deliveries that reused a freed slab cell instead of growing.
    pub slab_recycled: u64,
    /// Scheduler keys that detoured through the calendar queue's
    /// overflow heap (far-future events; should be rare).
    pub calq_overflow: u64,
}

/// The result of running a program: what each rank's body returned plus
/// the run's profile.
pub struct EventOutcome<T> {
    /// Each rank's body output, indexed by rank id (the default value
    /// for every rank when the analytic fast path priced the run).
    pub results: Vec<T>,
    /// Per-rank counters, traces, and the virtual makespan — the same
    /// `Profile` the thread backend produces, byte-identical.
    pub profile: Profile,
    /// Executor health counters (not part of the byte-identity
    /// contract; they describe the engine, not the simulated machine).
    pub stats: ExecStats,
}

// Manual impl so `T` needs no `Debug` bound (results are elided).
impl<T> std::fmt::Debug for EventOutcome<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventOutcome")
            .field("p", &self.profile.p())
            .field("profile", &self.profile)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked,
    Done,
    /// Failed with an error collected in the executor's error list.
    Dead,
}

/// A receive the rank is parked on: `(src, tag, t0)`.
type Waiting = (usize, Tag, f64);

struct Slot<B: Future> {
    body: Pin<Box<B>>,
    output: Option<B::Output>,
    lane: Lane,
    status: Status,
    /// Undelivered transfers, held in per-`(src, tag)` FIFO chains
    /// threaded through a recycling slab (see `crate::slab`).
    inbox: Mailbox,
    waiting: Option<Waiting>,
    /// The payload of the completed receive the body resumes with.
    pending: Option<Payload>,
}

impl<B: Future> Slot<B> {
    /// Price the body's send on its lane and put it on the wire.
    #[inline]
    fn send(
        &mut self,
        cfg: &SimConfig,
        dest: usize,
        tag: Tag,
        mut payload: Payload,
    ) -> SimResult<Wire> {
        let words = payload.words();
        let departure = self
            .lane
            .price_send(cfg, dest, tag, words, payload.data_mut())?;
        Ok(Wire { departure, payload })
    }

    /// Complete the receive begun at `t0` with `wire`; the delivery
    /// resumes the body on its next turn.
    #[inline]
    fn deliver(&mut self, cfg: &SimConfig, t0: f64, src: usize, tag: Tag, wire: Wire) {
        self.lane
            .price_recv(cfg, t0, src, tag, wire.payload.words(), wire.departure);
        self.pending = Some(wire.payload);
    }
}

/// An outgoing transfer buffered during a rank's turn:
/// `(dest, src, tag, wire)`.
type Outgoing = (usize, usize, Tag, Wire);

/// Run one rank until it blocks, completes, or fails: poll its body and
/// price the operations it issued, in order. Outgoing transfers to
/// other ranks are buffered in `out` (delivery is the caller's job);
/// self-sends land in the rank's own inbox immediately, mirroring the
/// thread backend's "self-send is instantly receivable".
fn advance<B: Future>(
    r: usize,
    slot: &mut Slot<B>,
    cfg: &SimConfig,
    chan: &Chan,
    ops: &mut Vec<Op>,
    out: &mut Vec<Outgoing>,
) -> SimResult<()> {
    // A parked rank becomes runnable only when the executor prices the
    // wire it waits for on delivery, so `pending` already holds it.
    loop {
        let poll = chan.poll(slot.body.as_mut(), slot.pending.take(), ops);
        for op in ops.drain(..) {
            match op {
                Op::Compute(flops) => slot.lane.compute(cfg, flops),
                Op::CollBegin(name) => slot.lane.mark_collective_begin(cfg, name),
                Op::CollEnd(name) => slot.lane.mark_collective_end(cfg, name),
                Op::Send(dest, tag, payload) => {
                    let wire = slot.send(cfg, dest, tag, payload)?;
                    if dest == r {
                        slot.inbox.push(r, tag.0, wire);
                    } else {
                        out.push((dest, r, tag, wire));
                    }
                }
                // Always the last op of a suspended body.
                Op::Recv(src, tag) => {
                    let t0 = slot.lane.begin_recv(cfg, src)?;
                    match slot.inbox.pop(src, tag.0) {
                        Some(wire) => slot.deliver(cfg, t0, src, tag, wire),
                        None => {
                            slot.waiting = Some((src, tag, t0));
                            slot.status = Status::Blocked;
                            return Ok(());
                        }
                    }
                }
            }
        }
        if let Poll::Ready(output) = poll {
            if let Some(e) = slot.lane.take_fault_error() {
                return Err(e);
            }
            slot.output = Some(output);
            slot.status = Status::Done;
            return Ok(());
        }
    }
}

/// Collapse a finished run into its outcome, or the error the thread
/// backend's triage would surface: the lowest-ranked real failure wins;
/// otherwise all-blocked is a proven deadlock.
fn finish<B: Future>(
    slots: Vec<Slot<B>>,
    errors: Vec<(usize, SimError)>,
    calq_overflow: u64,
) -> SimResult<EventOutcome<B::Output>> {
    if let Some((_, err)) = errors.into_iter().min_by_key(|(r, _)| *r) {
        return Err(err);
    }
    let blocked: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.status == Status::Blocked)
        .map(|(r, _)| r)
        .collect();
    if !blocked.is_empty() {
        return Err(SimError::Deadlock {
            rank: blocked[0],
            blocked,
        });
    }
    let mut stats = ExecStats {
        calq_overflow,
        ..ExecStats::default()
    };
    let mut results = Vec::with_capacity(slots.len());
    let mut per_rank = Vec::with_capacity(slots.len());
    let mut all_events = Vec::with_capacity(slots.len());
    for slot in slots {
        stats.slab_live_peak += slot.inbox.peak_live() as u64;
        stats.slab_recycled += slot.inbox.recycled();
        results.push(slot.output.expect("every live rank finished"));
        let (rank_stats, events) = slot.lane.into_parts();
        per_rank.push(rank_stats);
        all_events.push(events);
    }
    // With tracing off each rank's event vec is simply empty — the
    // thread backend still reports one (empty) vec per rank, so mirror
    // that shape exactly for byte identity.
    let profile = Profile::with_events(per_rank, all_events);
    #[cfg(debug_assertions)]
    profile.assert_balanced()?;
    crate::health::accumulate(&stats);
    Ok(EventOutcome {
        results,
        profile,
        stats,
    })
}

fn check_world(p: usize, cfg: &SimConfig) -> SimResult<()> {
    if p == 0 {
        return Err(SimError::InvalidConfig("world size p must be >= 1".into()));
    }
    cfg.validate()
}

/// The discrete-event machine.
pub struct EventMachine;

impl EventMachine {
    /// Run `program` on `p` ranks under the virtual-time scheduler.
    ///
    /// When the program claims an analytic collective and nothing
    /// observes individual events, the run is priced in closed form
    /// (`crate::fastpath`) — byte-identical output, no bodies built, no
    /// scheduling, and every rank's result is `P::Output::default()`.
    /// Otherwise this is [`EventMachine::run_general`].
    pub fn run<P>(p: usize, cfg: &SimConfig, program: P) -> SimResult<EventOutcome<P::Output>>
    where
        P: RankProgram,
        P::Output: Default,
    {
        check_world(p, cfg)?;
        if let Some(profile) = fastpath::try_run(p, cfg, &program) {
            return Ok(EventOutcome {
                results: (0..p).map(|_| P::Output::default()).collect(),
                profile,
                stats: ExecStats::default(),
            });
        }
        Self::schedule(p, cfg, program)
    }

    /// [`EventMachine::run`] with the analytic fast path disabled: the
    /// general scheduled executor, unconditionally. This is the oracle
    /// half of the fast-path differential tests (`fastpath_identity`)
    /// and the one way to force the general path.
    ///
    /// Every rank's body is polled from a calendar queue in ascending
    /// `(time, rank, seq)` order; each rank runs greedily until it
    /// blocks in `recv` or finishes. Deterministic by construction;
    /// byte-identical to the thread backend.
    pub fn run_general<P: RankProgram>(
        p: usize,
        cfg: &SimConfig,
        program: P,
    ) -> SimResult<EventOutcome<P::Output>> {
        check_world(p, cfg)?;
        Self::schedule(p, cfg, program)
    }

    fn schedule<P: RankProgram>(
        p: usize,
        cfg: &SimConfig,
        program: P,
    ) -> SimResult<EventOutcome<P::Output>> {
        let chan = Rc::new(Chan::default());
        let mut slots: Vec<_> = (0..p)
            .map(|r| Slot {
                body: Box::pin(program.start(Comm::new(r, p, Rc::clone(&chan)))),
                output: None,
                lane: Lane::new(r, p, cfg),
                status: Status::Runnable,
                inbox: Mailbox::new(),
                waiting: None,
                pending: None,
            })
            .collect();
        // Width heuristic: one max-size chunk latency per bucket. With
        // zero prices (counters-only runs) this is 0 and the calendar
        // degenerates to exactly the old single binary heap.
        let width = cfg.alpha_t + cfg.beta_t * cfg.max_message_words as f64;
        let mut queue = CalendarQueue::new(width);
        let mut seq: u64 = 0;
        for rank in 0..p {
            queue.push(SchedKey {
                time: 0.0,
                rank,
                seq,
            });
            seq += 1;
        }
        let mut errors: Vec<(usize, SimError)> = Vec::new();
        let mut ops: Vec<Op> = Vec::new();
        let mut out: Vec<Outgoing> = Vec::new();
        while let Some(key) = queue.pop() {
            // Cooperative cancellation: a watchdog can abandon a hung
            // sweep between scheduler turns (the loop never sleeps, so
            // one check per pop is cheap and prompt).
            if let Some(flag) = &cfg.cancel {
                if flag.is_cancelled() {
                    return Err(SimError::Cancelled);
                }
            }
            let r = key.rank;
            if slots[r].status != Status::Runnable {
                continue;
            }
            if let Err(e) = advance(r, &mut slots[r], cfg, &chan, &mut ops, &mut out) {
                slots[r].status = Status::Dead;
                errors.push((r, e));
            }
            // Deliver this turn's sends. A receiver parked on exactly
            // this (src, tag) gets the wire priced on the spot (its
            // queue for the key is provably empty; `price_recv` lands
            // its clock on max(now, depart), which is also the wake
            // time the old mailbox route would have scheduled).
            for (dest, src, tag, wire) in out.drain(..) {
                let slot = &mut slots[dest];
                if slot.status == Status::Blocked {
                    if let Some((wsrc, wtag, t0)) = slot.waiting {
                        if wsrc == src && wtag == tag {
                            slot.waiting = None;
                            slot.deliver(cfg, t0, src, tag, wire);
                            slot.status = Status::Runnable;
                            queue.push(SchedKey {
                                time: slot.lane.now(),
                                rank: dest,
                                seq,
                            });
                            seq += 1;
                            continue;
                        }
                    }
                }
                slot.inbox.push(src, tag.0, wire);
            }
        }
        let overflow = queue.overflow_pushes();
        finish(slots, errors, overflow)
    }
}
