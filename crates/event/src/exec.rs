//! The discrete-event executors: serial (virtual-time calendar queue)
//! and parallel (round-based work stealing), byte-identical by
//! construction, plus the analytic fast path for native counted
//! collectives.
//!
//! ## Why the executors cannot disagree
//!
//! Every executor charges through `psse_sim::lane`, the one Eq. 1
//! pricing core: each rank's [`Lane`] here is the same type the thread
//! backend's `Rank` wraps. A rank's profile is a pure function of its
//! own operation sequence plus, for each receive, the `(departure,
//! words)` of the matching transfer. Matching is per-`(src, tag)` FIFO, and each
//! `(src, tag)` key has a single sender whose sends are totally ordered
//! by its own program — so *which* wire matches *which* receive is
//! fixed by the programs alone, independent of executor scheduling.
//! The serial executor orders runnable ranks by `(virtual time, rank,
//! seq)` from a deterministic calendar queue; the parallel executor
//! runs every runnable rank in a round concurrently and merges
//! deliveries between rounds, preserving per-sender order; the fast
//! path (`crate::fastpath`) prices a known DAG in closed form. All
//! three walk the same message DAG, so every priced number is
//! bit-identical (tested in this module, in `tests/`, and against the
//! thread backend).
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
//! Sends are eager, so a rank can only block in `Recv`. When no rank is
//! runnable and some are still live, every live rank is blocked on an
//! empty `(src, tag)` queue that no future send can fill — a *proven*
//! deadlock, reported as [`SimError::Deadlock`] with the full blocked
//! set, in zero wall-clock time.

use crate::calq::{CalendarQueue, SchedKey};
use crate::fastpath;
use crate::program::RankProgram;
use crate::slab::{Mailbox, Wire};
use crate::step::{Delivered, Payload, Step};
use psse_sim::error::SimResult;
use psse_sim::{Lane, Profile, SimConfig, SimError, Tag};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// The result of running programs on the event backend: the finished
/// programs (which carry any algorithm results) plus the run's profile.
pub struct EventOutcome<P> {
    /// The per-rank programs after completion, indexed by rank id.
    pub programs: Vec<P>,
    /// Per-rank counters, traces, and the virtual makespan — the same
    /// `Profile` the thread backend produces, byte-identical.
    pub profile: Profile,
    /// Executor health counters (not part of the byte-identity
    /// contract; they describe the engine, not the simulated machine).
    pub stats: ExecStats,
}

// Manual impl so `P` needs no `Debug` bound (programs are elided).
impl<P> std::fmt::Debug for EventOutcome<P> {
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

struct Slot<P> {
    program: P,
    lane: Lane,
    status: Status,
    /// Undelivered transfers, held in per-`(src, tag)` FIFO chains
    /// threaded through a recycling slab (see `crate::slab`).
    inbox: Mailbox,
    waiting: Option<Waiting>,
    pending: Option<Delivered>,
}

impl<P> Slot<P> {
    /// Price the program's send on its lane and put it on the wire.
    #[inline]
    fn send(
        &mut self,
        cfg: &SimConfig,
        dest: usize,
        tag: Tag,
        payload: Payload,
    ) -> SimResult<Wire> {
        let words = payload.words();
        let mut data = match payload {
            Payload::Counted(_) => None,
            Payload::Data(d) => Some(d),
        };
        let departure = self.lane.price_send(cfg, dest, tag, words, data.as_mut())?;
        Ok(Wire {
            departure,
            words,
            data,
        })
    }

    /// Complete the receive begun at `t0` with `wire`; the delivery
    /// resumes the program on its next turn.
    #[inline]
    fn deliver(&mut self, cfg: &SimConfig, t0: f64, src: usize, tag: Tag, wire: Wire) {
        self.lane
            .price_recv(cfg, t0, src, tag, wire.words, wire.departure);
        self.pending = Some(Delivered {
            words: wire.words,
            data: wire.data,
        });
    }
}

/// An outgoing transfer buffered during a rank's turn:
/// `(dest, src, tag, wire)`.
type Outgoing = (usize, usize, Tag, Wire);

/// Run one rank until it blocks, completes, or fails. Outgoing
/// transfers to other ranks are buffered in `out` (delivery is the
/// caller's job); self-sends land in the rank's own inbox immediately,
/// mirroring the thread backend's "self-send is instantly receivable".
fn advance<P: RankProgram>(
    r: usize,
    slot: &mut Slot<P>,
    cfg: &SimConfig,
    out: &mut Vec<Outgoing>,
) -> SimResult<()> {
    // Complete the receive we were parked on, if any. (Deliveries to a
    // parked rank are normally priced at delivery time — see the
    // executors — so this mailbox probe is a belt-and-braces fallback.)
    if let Some((src, tag, t0)) = slot.waiting.take() {
        match slot.inbox.pop(src, tag.0) {
            Some(wire) => slot.deliver(cfg, t0, src, tag, wire),
            None => {
                // Spurious wake: still nothing for us.
                slot.waiting = Some((src, tag, t0));
                slot.status = Status::Blocked;
                return Ok(());
            }
        }
    }
    loop {
        let delivered = slot.pending.take();
        match slot.program.next(delivered) {
            Step::Compute { flops } => slot.lane.compute(cfg, flops),
            Step::CollBegin { op } => slot.lane.mark_collective_begin(cfg, op),
            Step::CollEnd { op } => slot.lane.mark_collective_end(cfg, op),
            Step::Send { dest, tag, payload } => {
                let wire = slot.send(cfg, dest, tag, payload)?;
                if dest == r {
                    slot.inbox.push(r, tag.0, wire);
                } else {
                    out.push((dest, r, tag, wire));
                }
            }
            Step::Recv { src, tag } => {
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
            Step::Done => {
                if let Some(e) = slot.lane.take_fault_error() {
                    return Err(e);
                }
                slot.status = Status::Done;
                return Ok(());
            }
        }
    }
}

fn make_slots<P>(programs: Vec<P>, cfg: &SimConfig) -> Vec<Slot<P>> {
    let p = programs.len();
    programs
        .into_iter()
        .enumerate()
        .map(|(r, program)| Slot {
            program,
            lane: Lane::new(r, p, cfg),
            status: Status::Runnable,
            inbox: Mailbox::new(),
            waiting: None,
            pending: None,
        })
        .collect()
}

/// Collapse a finished run into its outcome, or the error the thread
/// backend's triage would surface: the lowest-ranked real failure wins;
/// otherwise all-blocked is a proven deadlock.
fn finish<P>(
    slots: Vec<Slot<P>>,
    errors: Vec<(usize, SimError)>,
    calq_overflow: u64,
) -> SimResult<EventOutcome<P>> {
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
    let mut programs = Vec::with_capacity(slots.len());
    let mut per_rank = Vec::with_capacity(slots.len());
    let mut all_events = Vec::with_capacity(slots.len());
    for slot in slots {
        stats.slab_live_peak += slot.inbox.peak_live() as u64;
        stats.slab_recycled += slot.inbox.recycled();
        programs.push(slot.program);
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
        programs,
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
    /// Run `p` rank programs under the serial virtual-time scheduler.
    ///
    /// When every program claims the same analytic collective and
    /// nothing observes individual events, the run is priced in closed
    /// form (`crate::fastpath`) — byte-identical output, no scheduling.
    /// Otherwise runnable ranks are dispatched in ascending
    /// `(time, rank, seq)` order from a calendar queue; each rank runs
    /// greedily until it blocks in `Recv` or finishes. Deterministic by
    /// construction; byte-identical to the thread backend and to
    /// [`EventMachine::run_parallel`].
    pub fn run<P, F>(p: usize, cfg: &SimConfig, mut make: F) -> SimResult<EventOutcome<P>>
    where
        P: RankProgram,
        F: FnMut(usize, usize) -> P,
    {
        check_world(p, cfg)?;
        let programs: Vec<P> = (0..p).map(|r| make(r, p)).collect();
        if let Some(profile) = fastpath::try_run(p, cfg, &programs) {
            return Ok(EventOutcome {
                programs,
                profile,
                stats: ExecStats::default(),
            });
        }
        Self::run_serial(cfg, make_slots(programs, cfg))
    }

    /// [`EventMachine::run`] with the analytic fast path disabled: the
    /// general scheduled executor, unconditionally. This is the oracle
    /// half of the fast-path differential tests (`fastpath_identity`)
    /// and the one way to force the general path.
    pub fn run_general<P, F>(p: usize, cfg: &SimConfig, mut make: F) -> SimResult<EventOutcome<P>>
    where
        P: RankProgram,
        F: FnMut(usize, usize) -> P,
    {
        check_world(p, cfg)?;
        let programs: Vec<P> = (0..p).map(|r| make(r, p)).collect();
        Self::run_serial(cfg, make_slots(programs, cfg))
    }

    fn run_serial<P: RankProgram>(
        cfg: &SimConfig,
        mut slots: Vec<Slot<P>>,
    ) -> SimResult<EventOutcome<P>> {
        let p = slots.len();
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
            if let Err(e) = advance(r, &mut slots[r], cfg, &mut out) {
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

    /// Run `p` rank programs on `workers` threads with round-based work
    /// stealing. Observable output (profiles, traces, results, errors)
    /// is byte-identical to [`EventMachine::run`] — see the module docs
    /// for the argument, and the tests for the enforcement. The
    /// analytic fast path applies exactly as in [`EventMachine::run`].
    ///
    /// Each round, every runnable rank is advanced to its next block
    /// (workers steal ranks from a shared cursor); deliveries are
    /// merged between rounds in worker order, which preserves the
    /// per-sender FIFO the matching depends on.
    pub fn run_parallel<P, F>(
        p: usize,
        cfg: &SimConfig,
        mut make: F,
        workers: usize,
    ) -> SimResult<EventOutcome<P>>
    where
        P: RankProgram + Send,
        F: FnMut(usize, usize) -> P,
    {
        check_world(p, cfg)?;
        let programs: Vec<P> = (0..p).map(|r| make(r, p)).collect();
        if let Some(profile) = fastpath::try_run(p, cfg, &programs) {
            return Ok(EventOutcome {
                programs,
                profile,
                stats: ExecStats::default(),
            });
        }
        let workers = workers.max(1);
        let slots: Vec<Mutex<Slot<P>>> = make_slots(programs, cfg)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let mut runnable: Vec<usize> = (0..p).collect();
        let mut errors: Vec<(usize, SimError)> = Vec::new();
        while !runnable.is_empty() {
            // Same cooperative cancellation point as the serial loop,
            // checked once per round.
            if let Some(flag) = &cfg.cancel {
                if flag.is_cancelled() {
                    return Err(SimError::Cancelled);
                }
            }
            let cursor = AtomicUsize::new(0);
            let n_workers = workers.min(runnable.len());
            // One delivery buffer per worker; merged in worker order
            // below. A rank runs on exactly one worker per round, so a
            // sender's wires stay contiguous and in program order.
            type WorkerBuf = (Vec<Outgoing>, Vec<(usize, SimError)>);
            let mut buffers: Vec<WorkerBuf> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n_workers)
                    .map(|_| {
                        let cursor = &cursor;
                        let runnable = &runnable;
                        let slots = &slots;
                        scope.spawn(move || {
                            let mut out: Vec<Outgoing> = Vec::new();
                            let mut errs: Vec<(usize, SimError)> = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(&r) = runnable.get(i) else { break };
                                let mut slot = slots[r].lock().expect("slot lock");
                                if let Err(e) = advance(r, &mut slot, cfg, &mut out) {
                                    slot.status = Status::Dead;
                                    errs.push((r, e));
                                }
                            }
                            (out, errs)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("event worker panicked"))
                    .collect()
            });
            // Merge: deliveries in worker order (direct-priced when the
            // receiver is parked on exactly this key, as in the serial
            // loop), then the next round's runnable set in ascending
            // rank order for determinism.
            let mut woken: Vec<usize> = Vec::new();
            for (out, errs) in &mut buffers {
                errors.append(errs);
                for (dest, src, tag, wire) in out.drain(..) {
                    let mut slot = slots[dest].lock().expect("slot lock");
                    if slot.status == Status::Blocked {
                        if let Some((wsrc, wtag, t0)) = slot.waiting {
                            if wsrc == src && wtag == tag {
                                slot.waiting = None;
                                slot.deliver(cfg, t0, src, tag, wire);
                                slot.status = Status::Runnable;
                                woken.push(dest);
                                continue;
                            }
                        }
                    }
                    slot.inbox.push(src, tag.0, wire);
                }
            }
            woken.sort_unstable();
            woken.dedup();
            runnable = woken;
        }
        let slots: Vec<Slot<P>> = slots
            .into_iter()
            .map(|m| m.into_inner().expect("slot lock"))
            .collect();
        finish(slots, errors, 0)
    }
}
