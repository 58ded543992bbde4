//! The rank-side API: a rank's algorithm is an ordinary `async` body
//! written against one small handle, [`Comm`].
//!
//! Everything the simulator prices or records goes through the handle:
//! `compute`, `send` and the collective markers return at once, and
//! `recv(src, tag).await` suspends the body until the matching transfer
//! arrives. The compiler turns each body into the state machine the
//! executors resume; no runtime crate, no waker bookkeeping — a driver
//! polls with [`Waker::noop`] and knows exactly when to poll again,
//! because the only thing a body can wait for is a receive.
//!
//! The handle does not price anything itself. Each call appends one
//! `Op` to a queue shared with the driver; after every poll the
//! driver charges the queued operations, in program order, through its
//! backend — a `psse_sim::lane::Lane` on the event executor, a
//! `psse_sim::Rank` on the thread backend. A body that is suspended has
//! always just queued its receive last, so the driver completes that
//! receive (now, or when the wire arrives) and polls again with the
//! delivery in hand.

use psse_sim::{SharedPayload, Tag};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// A collective whose per-rank operation sequence is known in closed form.
///
/// When a program claims an `AnalyticOp` (and no feature that observes
/// individual events — tracing, faults, hierarchy — is active), the
/// event executor prices the whole collective analytically instead of
/// scheduling its `O(p log p)` messages one by one. The fast path
/// replays the *identical* sequence of Eq. 1/2 pricing operations per
/// rank, in the same f64 operand order, so profiles stay byte-identical
/// with the general path; see `crate::fastpath`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyticOp {
    /// Binomial-tree reduce to rank 0 followed by binomial broadcast,
    /// `words` per edge (`programs::BinomialAllreduce`, counted mode).
    BinomialAllreduce {
        /// Payload words per tree edge.
        words: usize,
    },
    /// Recursive-doubling allreduce, `words` per exchange, `p` a power
    /// of two (`programs::RecursiveDoublingAllreduce`, counted mode).
    RecursiveDoublingAllreduce {
        /// Payload words per pairwise exchange.
        words: usize,
    },
    /// `p − 1` ring shifts with elementwise merge
    /// (`programs::RingAllreduce`, counted mode).
    RingAllreduce {
        /// Payload words per ring hop.
        words: usize,
    },
}

/// A rank program: builds each rank's `async` body.
///
/// The same program runs unchanged on either backend via
/// [`crate::run_programs`]: on `Backend::Threads` each body is driven
/// on its own pooled thread through a `psse_sim::Rank` (the
/// bit-identity oracle); on `Backend::Events` the executor polls all
/// bodies in one process, scheduled by virtual time — byte-identical
/// profiles, six orders of magnitude more ranks per process.
///
/// Any `Fn(Comm) -> impl Future` closure is a program:
///
/// ```
/// use psse_event::{run_programs, Comm, Payload};
/// use psse_sim::{Backend, SimConfig, Tag};
///
/// let cfg = SimConfig { backend: Backend::Events, ..SimConfig::default() };
/// // A ring shift: every rank sends 8 words right and receives from the left.
/// let out = run_programs(4, &cfg, |comm: Comm| async move {
///     let (me, p) = (comm.rank(), comm.size());
///     comm.send((me + 1) % p, Tag(0), Payload::Counted(8));
///     comm.recv((me + p - 1) % p, Tag(0)).await.words()
/// })
/// .unwrap();
/// assert_eq!(out.results, vec![8; 4]);
/// assert_eq!(out.profile.total_words_sent(), 32);
/// ```
///
/// Contract:
/// * a body must consume every transfer it is sent (unreceived
///   transfers fail the debug-build balance check on both backends);
/// * all sim-visible behaviour must go through the [`Comm`] — a body
///   that does hidden work is still deterministic but prices nothing;
/// * the only future a body may await is [`Comm::recv`].
pub trait RankProgram {
    /// What each rank's body returns.
    type Output;

    /// Build the body of rank `comm.rank()` of `comm.size()`.
    fn start(&self, comm: Comm) -> impl Future<Output = Self::Output>;

    /// Declare this program an analytically priced collective. `None`
    /// (the default) always takes the general scheduled path.
    /// Returning `Some` is a *claim* that every rank's body is exactly
    /// the named collective's operation sequence and returns
    /// `Self::Output::default()`; the `fastpath_identity` differential
    /// tests hold the two paths byte-equal.
    fn analytic(&self) -> Option<AnalyticOp> {
        None
    }
}

impl<F, B> RankProgram for F
where
    F: Fn(Comm) -> B,
    B: Future,
{
    type Output = B::Output;

    fn start(&self, comm: Comm) -> impl Future<Output = B::Output> {
        self(comm)
    }
}

/// What a send puts on the wire and a receive hands back.
#[derive(Debug, Clone)]
pub enum Payload {
    /// `words` words, priced and counted but never materialized — the
    /// mega-scale mode (a million-rank run cannot afford real buffers).
    Counted(usize),
    /// Real words, shared zero-copy exactly like the thread backend's
    /// [`psse_sim::SharedPayload`] wire format.
    Data(SharedPayload),
}

impl Payload {
    /// Payload length in words.
    pub fn words(&self) -> usize {
        match self {
            Payload::Counted(w) => *w,
            Payload::Data(d) => d.len(),
        }
    }

    /// The carried words, or an empty slice for counted payloads.
    pub fn values(&self) -> &[f64] {
        match self {
            Payload::Counted(_) => &[],
            Payload::Data(d) => d,
        }
    }

    /// The buffer a real payload shares, for pricing (fault injection
    /// may corrupt it in flight).
    pub(crate) fn data_mut(&mut self) -> Option<&mut SharedPayload> {
        match self {
            Payload::Counted(_) => None,
            Payload::Data(d) => Some(d),
        }
    }

    /// Materialize for the thread backend's wire (counted payloads
    /// become zero-filled buffers of the same length, so pricing and
    /// counters are unchanged).
    pub(crate) fn into_shared(self) -> SharedPayload {
        match self {
            Payload::Counted(w) => Arc::new(vec![0.0; w]),
            Payload::Data(d) => d,
        }
    }
}

/// One sim-visible action a body issued, queued for its driver.
pub(crate) enum Op {
    /// Execute `flops` floating-point operations.
    Compute(u64),
    /// Send a payload to `dest` under `tag` (eager, never blocks).
    Send(usize, Tag, Payload),
    /// Receive from `src` under `tag`; the body is suspended on it.
    Recv(usize, Tag),
    /// Trace marker: a collective began.
    CollBegin(&'static str),
    /// Trace marker: the matching collective completed.
    CollEnd(&'static str),
}

/// The queue between bodies and their driver. One driver polls one
/// body at a time, so a single channel serves every rank it drives.
#[derive(Default)]
pub(crate) struct Chan {
    ops: RefCell<Vec<Op>>,
    delivered: Cell<Option<Payload>>,
}

impl Chan {
    /// Poll `body` once — handing it `delivered`, the payload of the
    /// receive it is suspended on, if any — and move the operations it
    /// issued into `ops` (empty on entry), in program order.
    pub(crate) fn poll<B: Future>(
        &self,
        body: Pin<&mut B>,
        delivered: Option<Payload>,
        ops: &mut Vec<Op>,
    ) -> Poll<B::Output> {
        self.delivered.set(delivered);
        let poll = body.poll(&mut Context::from_waker(Waker::noop()));
        std::mem::swap(&mut *self.ops.borrow_mut(), ops);
        assert!(
            poll.is_ready() || matches!(ops.last(), Some(Op::Recv(..))),
            "a rank body may await only Comm::recv"
        );
        poll
    }
}

/// One rank's handle on the simulated machine: its id, the world size,
/// and the operations the simulator prices.
pub struct Comm {
    rank: usize,
    size: usize,
    chan: Rc<Chan>,
}

impl Comm {
    pub(crate) fn new(rank: usize, size: usize, chan: Rc<Chan>) -> Self {
        Comm { rank, size, chan }
    }

    fn push(&self, op: Op) {
        self.chan.ops.borrow_mut().push(op);
    }

    /// This rank's id, `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size `p`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Execute `flops` floating-point operations (`γt·flops` seconds).
    pub fn compute(&self, flops: u64) {
        self.push(Op::Compute(flops));
    }

    /// Send `payload` to `dest` under `tag`. Sends are eager and never
    /// block; a failing send (bad peer, crashed link) ends the rank
    /// with that error.
    pub fn send(&self, dest: usize, tag: Tag, payload: Payload) {
        self.push(Op::Send(dest, tag, payload));
    }

    /// Trace marker: a collective began (no cost; recorded only when
    /// tracing, exactly like the built-in collectives' markers).
    pub fn mark_collective_begin(&self, op: &'static str) {
        self.push(Op::CollBegin(op));
    }

    /// Trace marker: the matching collective completed.
    pub fn mark_collective_end(&self, op: &'static str) {
        self.push(Op::CollEnd(op));
    }

    /// Receive the transfer from `src` under `tag`; resolves to its
    /// payload once it has arrived (the rank's clock joins the
    /// transfer's departure time, as on the thread backend).
    pub fn recv(&self, src: usize, tag: Tag) -> impl Future<Output = Payload> + '_ {
        Recv {
            comm: self,
            src,
            tag,
            posted: false,
        }
    }
}

/// The future [`Comm::recv`] returns: the first poll posts the receive
/// and suspends, the second takes the delivery its driver handed over.
struct Recv<'a> {
    comm: &'a Comm,
    src: usize,
    tag: Tag,
    posted: bool,
}

impl Future for Recv<'_> {
    type Output = Payload;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Payload> {
        let this = self.get_mut();
        if !this.posted {
            this.posted = true;
            this.comm.push(Op::Recv(this.src, this.tag));
            return Poll::Pending;
        }
        let payload = this.comm.chan.delivered.take();
        Poll::Ready(payload.expect("a driver resumes a receive with its delivery"))
    }
}
