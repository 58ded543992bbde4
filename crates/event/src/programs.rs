//! Built-in rank programs: the paper's real algorithms as `async` rank
//! bodies, with closed-form Eq. 1 count helpers for exact verification.
//!
//! [`BinomialAllreduce`] replays `psse-sim`'s
//! `Rank::allreduce_sum` (binomial reduce to rank 0, binomial
//! broadcast back, including the nested collective trace markers)
//! operation for operation, so on the thread backend it is
//! bit-identical to the native collective — that test is the anchor of
//! the whole backend's fidelity. [`RecursiveDoublingAllreduce`] and
//! [`RingAllreduce`] are the classic alternatives with different S/W
//! trade-offs, and [`Matmul25D`] is the communication skeleton of the
//! paper's 2.5D matrix multiply (replication, Cannon-style shifts,
//! layer reduction) in counted form for `p = 10^5`–`10^6` runs. Beyond
//! linear algebra, [`SampleSort`] is the regular-sampling distributed
//! sort (the Scquizzato–Silvestri bound family: `W = Θ(n/p)` attained,
//! but `S = Θ(p)` — the scaling-breaker) and [`Stencil1D`] the iterated
//! periodic halo-exchange stencil (surface `W = Θ(h·n)` per slab,
//! `S = 2` per sweep).
//!
//! Every program supports *counted* payloads (words priced, no buffers
//! allocated — mandatory at mega-scale) and the allreduces, the sort
//! and the stencil also run in *data* mode carrying real values (used
//! by the cross-backend identity tests, where results must match too).
//! A data-mode body returns its rank's values; a counted one returns
//! `None`.

use crate::program::{AnalyticOp, Comm, Payload, RankProgram};
use psse_sim::Tag;
use std::future::Future;
use std::sync::Arc;

/// Exact Eq. 1 operation totals for a program over the whole machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTotals {
    /// Total messages sent across links (after splitting at `m` words).
    pub msgs: u64,
    /// Total words sent across links.
    pub words: u64,
    /// Total flops charged.
    pub flops: u64,
}

/// Messages for one transfer of `words` words under message cap `m` —
/// the `⌈k/m⌉` of Eq. 1 (an empty transfer still costs one message).
fn chunks(words: u64, m: u64) -> u64 {
    if words == 0 {
        1
    } else {
        words.div_ceil(m)
    }
}

/// Merge a delivered contribution into `acc` elementwise (data mode
/// only; the arithmetic itself is free — the matching `compute` prices
/// the adds, exactly like `reduce_sum_impl`).
fn merge(acc: &mut Payload, d: &Payload) {
    assert_eq!(
        d.words(),
        acc.words(),
        "reduce contributions disagree in length"
    );
    if let Payload::Data(acc) = acc {
        for (a, b) in Arc::make_mut(acc).iter_mut().zip(d.values()) {
            *a += b;
        }
    }
}

/// A body's result: its final buffer in data mode, `None` when counted
/// (the thread backend delivers counted transfers as zero-filled
/// buffers, so the mode is the program's, not the buffer's).
fn result(acc: Payload, counted: bool) -> Option<Vec<f64>> {
    match acc {
        Payload::Data(d) if !counted => Some(Arc::unwrap_or_clone(d)),
        _ => None,
    }
}

/// The analytic claim of an allreduce started from `init`: counted runs
/// are priceable in closed form, data mode must run so payloads merge.
fn claim(init: &Payload, op: fn(usize) -> AnalyticOp) -> Option<AnalyticOp> {
    match init {
        Payload::Counted(words) => Some(op(*words)),
        Payload::Data(_) => None,
    }
}

/// Binomial-tree reduce of `acc` to vertex 0 of a `g`-vertex group in
/// which this rank is vertex `v`: at level `k` a vertex with bit `k`
/// set sends to `v − 2^k` and is done; the others receive from
/// `v + 2^k` (when it exists) and merge at `acc.words()` flops.
/// `rank_of` maps vertices to ranks and `tag` tags each level.
///
/// Not an `async fn`: that form stores its arguments twice in the
/// future's state, and this future is nested in every allreduce and
/// matmul rank body that a mega-scale run keeps alive (the same reason
/// the programs' `start` methods return `async move` blocks).
#[allow(clippy::manual_async_fn)]
fn tree_reduce<'a>(
    comm: &'a Comm,
    v: usize,
    g: usize,
    rank_of: impl Fn(usize) -> usize + 'a,
    tag: impl Fn(u64) -> Tag + 'a,
    acc: &'a mut Payload,
) -> impl Future<Output = ()> + 'a {
    async move {
        let mut mask = 1usize;
        let mut level = 0u64;
        while mask < g {
            if v & mask != 0 {
                comm.send(rank_of(v - mask), tag(level), acc.clone());
                return;
            }
            if v + mask < g {
                let d = comm.recv(rank_of(v + mask), tag(level)).await;
                comm.compute(acc.words() as u64);
                merge(acc, &d);
            }
            mask <<= 1;
            level += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Binomial allreduce (the native collective)
// ---------------------------------------------------------------------

/// `Rank::allreduce_sum` as a rank program: binomial-tree reduce to
/// rank 0 (`⌈log₂p⌉` rounds, one `n`-flop merge per child), then
/// binomial-tree broadcast back at tag offset 64 — the exact operation
/// and trace-marker sequence of the thread backend's native collective.
#[derive(Debug, Clone)]
pub struct BinomialAllreduce {
    tag: Tag,
    init: Payload,
}

impl BinomialAllreduce {
    /// Counted mode: price an allreduce of `words` words per rank
    /// without allocating payloads (the mega-scale form).
    pub fn counted(tag: Tag, words: usize) -> Self {
        BinomialAllreduce {
            tag,
            init: Payload::Counted(words),
        }
    }

    /// Data mode: really sum `data` across all ranks (every rank's body
    /// returns the elementwise global sum).
    pub fn with_data(tag: Tag, data: Vec<f64>) -> Self {
        BinomialAllreduce {
            tag,
            init: Payload::Data(Arc::new(data)),
        }
    }

    /// Closed-form Eq. 1 totals: the reduce and broadcast trees each
    /// have `p − 1` edges carrying `n` words, and every reduce edge
    /// costs one `n`-flop merge at its head.
    pub fn expected_totals(p: u64, n: u64, m: u64) -> OpTotals {
        let edges = 2 * (p - 1);
        OpTotals {
            msgs: edges * chunks(n, m),
            words: edges * n,
            flops: (p - 1) * n,
        }
    }
}

impl RankProgram for BinomialAllreduce {
    type Output = Option<Vec<f64>>;

    fn start(&self, comm: Comm) -> impl Future<Output = Self::Output> {
        let (tag, mut acc) = (self.tag, self.init.clone());
        async move {
            let counted = matches!(acc, Payload::Counted(_));
            let (g, v) = (comm.size(), comm.rank()); // world group, root 0
            comm.mark_collective_begin("allreduce_sum");
            comm.mark_collective_begin("reduce_sum");
            tree_reduce(&comm, v, g, |u| u, |k| tag.offset(k), &mut acc).await;
            comm.mark_collective_end("reduce_sum");
            comm.mark_collective_begin("broadcast");
            // The root fans out from the top level; every other rank first
            // takes the sum from its parent `v − lowbit(v)` — the payload
            // replaces its buffer, and the same Arc fans out below (zero-copy).
            let mut mask = if v == 0 {
                g.next_power_of_two() >> 1
            } else {
                let lowbit = v & v.wrapping_neg();
                let level = lowbit.trailing_zeros() as u64;
                acc = comm.recv(v - lowbit, tag.offset(64 + level)).await;
                lowbit >> 1
            };
            while mask > 0 {
                if v + mask < g {
                    let level = mask.trailing_zeros() as u64;
                    comm.send(v + mask, tag.offset(64 + level), acc.clone());
                }
                mask >>= 1;
            }
            comm.mark_collective_end("broadcast");
            comm.mark_collective_end("allreduce_sum");
            result(acc, counted)
        }
    }

    fn analytic(&self) -> Option<AnalyticOp> {
        claim(&self.init, |words| AnalyticOp::BinomialAllreduce { words })
    }
}

// ---------------------------------------------------------------------
// Recursive-doubling allreduce
// ---------------------------------------------------------------------

/// Recursive-doubling allreduce (`p` a power of two): `log₂p` rounds of
/// pairwise exchange with partner `me ⊕ 2^k`, each followed by an
/// `n`-flop merge. Latency-optimal: every rank is done after `log₂p`
/// sends, at the cost of `p·log₂p` total messages.
#[derive(Debug, Clone)]
pub struct RecursiveDoublingAllreduce {
    tag: Tag,
    init: Payload,
}

impl RecursiveDoublingAllreduce {
    /// Counted mode (see [`BinomialAllreduce::counted`]).
    pub fn counted(tag: Tag, words: usize) -> Self {
        RecursiveDoublingAllreduce {
            tag,
            init: Payload::Counted(words),
        }
    }

    /// Data mode: every rank ends with the elementwise global sum.
    pub fn with_data(tag: Tag, data: Vec<f64>) -> Self {
        RecursiveDoublingAllreduce {
            tag,
            init: Payload::Data(Arc::new(data)),
        }
    }

    /// Closed-form totals: every rank sends `n` words in each of the
    /// `log₂p` rounds and merges once per round.
    pub fn expected_totals(p: u64, n: u64, m: u64) -> OpTotals {
        let rounds = p.trailing_zeros() as u64;
        OpTotals {
            msgs: p * rounds * chunks(n, m),
            words: p * rounds * n,
            flops: p * rounds * n,
        }
    }
}

impl RankProgram for RecursiveDoublingAllreduce {
    type Output = Option<Vec<f64>>;

    fn start(&self, comm: Comm) -> impl Future<Output = Self::Output> {
        let p = comm.size();
        assert!(
            p.is_power_of_two(),
            "recursive doubling requires p to be a power of two, got {p}"
        );
        let (tag, mut acc) = (self.tag, self.init.clone());
        async move {
            let counted = matches!(acc, Payload::Counted(_));
            let me = comm.rank();
            comm.mark_collective_begin("allreduce_rd");
            for k in 0..p.trailing_zeros() as u64 {
                let partner = me ^ (1usize << k);
                comm.send(partner, tag.offset(k), acc.clone());
                let d = comm.recv(partner, tag.offset(k)).await;
                comm.compute(acc.words() as u64);
                merge(&mut acc, &d);
            }
            comm.mark_collective_end("allreduce_rd");
            result(acc, counted)
        }
    }

    fn analytic(&self) -> Option<AnalyticOp> {
        claim(&self.init, |words| AnalyticOp::RecursiveDoublingAllreduce {
            words,
        })
    }
}

// ---------------------------------------------------------------------
// Ring allreduce
// ---------------------------------------------------------------------

/// Naive ring allreduce: in each of `p − 1` rounds every rank forwards
/// the block it last received (initially its own contribution) to its
/// right neighbour and accumulates the block arriving from the left.
/// After `p − 1` rounds every original block has visited every rank, so
/// all ranks hold the global sum. `O(p²)` total messages — the
/// bandwidth-hungry baseline the tree algorithms beat.
#[derive(Debug, Clone)]
pub struct RingAllreduce {
    tag: Tag,
    init: Payload,
}

impl RingAllreduce {
    /// Counted mode (see [`BinomialAllreduce::counted`]).
    pub fn counted(tag: Tag, words: usize) -> Self {
        RingAllreduce {
            tag,
            init: Payload::Counted(words),
        }
    }

    /// Data mode: every rank ends with the elementwise global sum.
    pub fn with_data(tag: Tag, data: Vec<f64>) -> Self {
        RingAllreduce {
            tag,
            init: Payload::Data(Arc::new(data)),
        }
    }

    /// Closed-form totals: `p` ranks each send `n` words and merge once
    /// in each of the `p − 1` rounds.
    pub fn expected_totals(p: u64, n: u64, m: u64) -> OpTotals {
        let rounds = p - 1;
        OpTotals {
            msgs: p * rounds * chunks(n, m),
            words: p * rounds * n,
            flops: p * rounds * n,
        }
    }
}

impl RankProgram for RingAllreduce {
    type Output = Option<Vec<f64>>;

    fn start(&self, comm: Comm) -> impl Future<Output = Self::Output> {
        let (tag, mut acc) = (self.tag, self.init.clone());
        async move {
            let counted = matches!(acc, Payload::Counted(_));
            let (p, me) = (comm.size(), comm.rank());
            // The block to forward next: my own, then the last one received.
            let mut fwd = acc.clone();
            comm.mark_collective_begin("allreduce_ring");
            for round in 0..p as u64 - 1 {
                comm.send((me + 1) % p, tag.offset(round), fwd);
                fwd = comm.recv((me + p - 1) % p, tag.offset(round)).await;
                comm.compute(acc.words() as u64);
                merge(&mut acc, &fwd);
            }
            comm.mark_collective_end("allreduce_ring");
            result(acc, counted)
        }
    }

    fn analytic(&self) -> Option<AnalyticOp> {
        claim(&self.init, |words| AnalyticOp::RingAllreduce { words })
    }
}

// ---------------------------------------------------------------------
// 2.5D matmul (counted communication skeleton)
// ---------------------------------------------------------------------

/// Tag offsets for the matmul's three phases (Tag is a flat `u64`
/// namespace; these programs own their whole tag window).
const MM_REP_A: u64 = 0;
const MM_REP_B: u64 = 1;
const MM_SHIFT: u64 = 16;
const MM_REDUCE: u64 = 1 << 40;

/// The communication skeleton of the paper's 2.5D matrix multiply on a
/// `q × q × c` grid (`p = q²c`, `c | q`), counted payloads only:
///
/// 1. **Replication** — layer 0 sends its A and B blocks (`b²` words
///    each) up to the `c − 1` other layers;
/// 2. **Shift-multiply** — `s = q/c` Cannon rounds per layer, each
///    `2b³` flops then an A-shift right and B-shift down of `b²` words;
/// 3. **Layer reduction** — binomial reduce of the `b²`-word C block
///    across the `c` layers of each `(i, j)`, one `b²`-flop merge per
///    edge.
///
/// [`Matmul25D::expected_totals`] gives the exact Eq. 1 counts, so a
/// `p = 10^6` run can be verified word-for-word against the closed
/// form.
#[derive(Debug, Clone)]
pub struct Matmul25D {
    q: usize,
    c: usize,
    /// Block dimension `b`.
    b: u64,
}

impl Matmul25D {
    /// The program for a `q × q × c` grid with block dimension `b` (so
    /// blocks are `b²` words). Panics unless `c >= 1`, `q % c == 0`;
    /// each body panics unless `p = q²c`.
    pub fn counted(q: usize, c: usize, b: u64) -> Self {
        assert!(c >= 1, "2.5D grid needs c >= 1");
        assert_eq!(q % c, 0, "2.5D grid needs c | q (got q={q}, c={c})");
        Matmul25D { q, c, b }
    }

    /// Closed-form Eq. 1 totals for the whole machine (blocks of `b²`
    /// words assumed not to split, i.e. `b² ≤ m`):
    ///
    /// * replication: `q² · 2(c−1)` sends;
    /// * shifts: `p · s · 2` sends and `p · s · 2b³` flops;
    /// * reduction: `q² · (c−1)` sends and `q² · (c−1) · b²` flops.
    pub fn expected_totals(q: u64, c: u64, b: u64) -> OpTotals {
        let p = q * q * c;
        let s = q / c;
        let bw = b * b;
        let sends = q * q * 2 * (c - 1) + p * s * 2 + q * q * (c - 1);
        OpTotals {
            msgs: sends,
            words: sends * bw,
            flops: p * s * 2 * b * b * b + q * q * (c - 1) * bw,
        }
    }
}

impl RankProgram for Matmul25D {
    type Output = ();

    fn start(&self, comm: Comm) -> impl Future<Output = ()> {
        let (q, c, b) = (self.q, self.c, self.b);
        assert_eq!(comm.size(), q * q * c, "p must equal q*q*c");
        async move {
            let me = comm.rank();
            // Grid coordinates: row, column, layer.
            let (i, j, k) = ((me % (q * q)) / q, me % q, me / (q * q));
            let id = |i: usize, j: usize, k: usize| k * q * q + i * q + j;
            let block = || Payload::Counted((b * b) as usize);
            comm.mark_collective_begin("matmul_25d");
            // 1. Replication: layer 0 sends A and B up to every other layer.
            if k == 0 {
                for layer in 1..c {
                    comm.send(id(i, j, layer), Tag(MM_REP_A), block());
                    comm.send(id(i, j, layer), Tag(MM_REP_B), block());
                }
            } else {
                comm.recv(id(i, j, 0), Tag(MM_REP_A)).await;
                comm.recv(id(i, j, 0), Tag(MM_REP_B)).await;
            }
            // 2. Shift-multiply: multiply, shift A right and B down.
            for round in 0..(q / c) as u64 {
                let (tag_a, tag_b) = (Tag(MM_SHIFT + 2 * round), Tag(MM_SHIFT + 2 * round + 1));
                comm.compute(2 * b * b * b);
                comm.send(id(i, (j + 1) % q, k), tag_a, block());
                comm.send(id((i + 1) % q, j, k), tag_b, block());
                comm.recv(id(i, (j + q - 1) % q, k), tag_a).await;
                comm.recv(id((i + q - 1) % q, j, k), tag_b).await;
            }
            // 3. Layer reduction of C, root layer 0.
            let rank_of = |layer| id(i, j, layer);
            let tag = |level| Tag(MM_REDUCE + level);
            tree_reduce(&comm, k, c, rank_of, tag, &mut block()).await;
            comm.mark_collective_end("matmul_25d");
        }
    }
}

// ---------------------------------------------------------------------
// Distributed sample sort (regular sampling, direct exchanges)
// ---------------------------------------------------------------------

/// Tag for the splitter-sample exchange.
const SS_SAMPLE: u64 = 1 << 20;
/// Tag for the bucket all-to-all.
const SS_EXCHANGE: u64 = 1 << 21;

/// `⌈log₂ x⌉` for comparison accounting (0 for `x ≤ 1`).
fn ceil_log2(x: usize) -> u64 {
    if x < 2 {
        0
    } else {
        (usize::BITS - (x - 1).leading_zeros()) as u64
    }
}

/// Comparisons charged for sorting `x` keys: `x·⌈log₂ x⌉`.
fn sort_flops(x: usize) -> u64 {
    x as u64 * ceil_log2(x)
}

fn sort_keys(keys: &mut [f64]) {
    keys.sort_by(|a, b| a.total_cmp(b));
}

/// Distributed sample sort: local sort, direct exchange of `p − 1`
/// regular samples per rank, deterministic splitter agreement, bucket
/// all-to-all, local merge. The same shape as `psse-algos`'
/// `sample_sort` (identical per-rank `W = (p−1)·(p−1) + (exchange)` and
/// `S = 2(p−1)`, so the `S = Θ(p)` scaling-breaker shows up at
/// mega-scale too); in data mode the per-rank results equal the closure
/// algorithm's buckets exactly.
///
/// Counted mode assumes perfectly uniform buckets (`bs/p` words each,
/// requiring `p | bs`), which makes [`SampleSort::expected_totals`] an
/// exact closed form; data mode carries the real keys with
/// data-dependent bucket sizes.
#[derive(Debug, Clone)]
pub struct SampleSort {
    /// Keys per rank (counted mode).
    bs: usize,
    /// All keys, rank-major (data mode).
    keys: Option<Vec<f64>>,
}

impl SampleSort {
    /// Counted mode: `bs` keys per rank, uniform buckets. Each body
    /// panics unless `p | bs` and `bs ≥ p`.
    pub fn counted(bs: usize) -> Self {
        SampleSort { bs, keys: None }
    }

    /// Data mode: sorts `keys` (length a multiple of `p`, block size at
    /// least `p`).
    pub fn with_data(keys: Vec<f64>) -> Self {
        SampleSort {
            bs: 0,
            keys: Some(keys),
        }
    }

    /// Exact Eq. 1 totals for the counted skeleton (`s = p − 1` samples
    /// per rank, uniform `bs/p`-word buckets):
    ///
    /// * samples: `p(p−1)` transfers of `s` words;
    /// * exchange: `p(p−1)` transfers of `bs/p` words;
    /// * flops: local sorts + splitter sorts + `p−1` binary-search cuts
    ///   + `⌈log₂p⌉`-level merges.
    pub fn expected_totals(p: u64, bs: u64, m: u64) -> OpTotals {
        let s = p - 1;
        let per = bs / p;
        let msgs = p * s * (chunks(s, m) + chunks(per, m));
        let words = p * s * (s + per);
        let flops = p
            * (sort_flops(bs as usize)
                + sort_flops((p * s) as usize)
                + s * ceil_log2(bs as usize)
                + bs * ceil_log2(p as usize));
        OpTotals { msgs, words, flops }
    }
}

impl RankProgram for SampleSort {
    type Output = Option<Vec<f64>>;

    fn start(&self, comm: Comm) -> impl Future<Output = Self::Output> {
        let (p, me) = (comm.size(), comm.rank());
        let (bs, mut block) = match &self.keys {
            None => {
                let bs = self.bs;
                assert!(bs >= p, "samplesort: need bs >= p (bs={bs}, p={p})");
                assert_eq!(bs % p, 0, "counted samplesort needs p | bs");
                (bs, None)
            }
            Some(keys) => {
                assert_eq!(keys.len() % p, 0, "samplesort: p must divide the key count");
                let bs = keys.len() / p;
                assert!(bs >= p, "samplesort: need n >= p²");
                (bs, Some(keys[me * bs..(me + 1) * bs].to_vec()))
            }
        };
        async move {
            let s = p - 1;
            let peers = || (0..p).filter(move |&r| r != me);
            comm.mark_collective_begin("samplesort");
            // Local sort; regular samples at positions (i+1)·bs/p. In data
            // mode `candidates` gathers every rank's samples. (The concatenation
            // order is immaterial: candidates and buckets are sorted by
            // `total_cmp`, under which equal keys are equal bits.)
            let mut candidates = Vec::new();
            let samples = match &mut block {
                Some(block) => {
                    sort_keys(block);
                    candidates = (1..p).map(|i| block[i * bs / p]).collect();
                    Payload::Data(Arc::new(candidates.clone()))
                }
                None => Payload::Counted(s),
            };
            comm.compute(sort_flops(bs));
            for dest in peers() {
                comm.send(dest, Tag(SS_SAMPLE), samples.clone());
            }
            for src in peers() {
                let d = comm.recv(src, Tag(SS_SAMPLE)).await;
                if block.is_some() {
                    candidates.extend_from_slice(d.values());
                }
            }
            comm.compute(sort_flops(p * s));
            // All ranks sort the identical candidate multiset, so all agree on
            // the p − 1 splitters — same rule as the closure algorithm.
            let mut buckets: Vec<Vec<f64>> = Vec::new();
            if let Some(block) = &block {
                sort_keys(&mut candidates);
                let mut cuts = vec![0usize];
                for j in 0..s {
                    let sp = candidates[(j + 1) * s];
                    cuts.push(block.partition_point(|x| x.total_cmp(&sp).is_le()));
                }
                cuts.push(bs);
                buckets = cuts
                    .windows(2)
                    .map(|w| block[w[0]..w[1]].to_vec())
                    .collect();
            }
            comm.compute(s as u64 * ceil_log2(bs));
            // Keep my own bucket; send every other one to its owner.
            let mut mine = buckets.get_mut(me).map(std::mem::take).unwrap_or_default();
            let mut recv_words = if block.is_some() { mine.len() } else { bs / p };
            for dest in peers() {
                let payload = match buckets.get_mut(dest) {
                    Some(bucket) => Payload::Data(Arc::new(std::mem::take(bucket))),
                    None => Payload::Counted(bs / p),
                };
                comm.send(dest, Tag(SS_EXCHANGE), payload);
            }
            for src in peers() {
                let d = comm.recv(src, Tag(SS_EXCHANGE)).await;
                recv_words += d.words();
                if block.is_some() {
                    mine.extend_from_slice(d.values());
                }
            }
            sort_keys(&mut mine);
            comm.compute(recv_words as u64 * ceil_log2(p));
            comm.mark_collective_end("samplesort");
            block.map(|_| mine)
        }
    }
}

// ---------------------------------------------------------------------
// Iterated halo-exchange stencil (1-D slab decomposition)
// ---------------------------------------------------------------------

/// Tag base for halo exchanges (4 tags per sweep).
const ST_HALO: u64 = 1 << 22;

/// The iterated periodic box stencil on `p` row slabs: each sweep sends
/// the `h` top rows north and the `h` bottom rows south (`2` messages
/// of `h·n` words per rank — the halo *surface*), then updates the
/// `(n/p)·n` interior (the *volume*). In data mode the update sums the
/// neighbourhood in the same `(di, dj)` order as `psse-algos`'
/// `serial_stencil`, so per-rank results are bit-identical to the
/// serial reference at any `p`.
///
/// [`Stencil1D::expected_totals`] is exact for both modes (the halo
/// sizes are data-independent, unlike [`SampleSort`]'s buckets).
#[derive(Debug, Clone)]
pub struct Stencil1D {
    /// Grid side.
    n: usize,
    /// Halo width.
    h: usize,
    iters: usize,
    /// The row-major `n × n` grid (data mode).
    grid: Option<Vec<f64>>,
}

impl Stencil1D {
    /// Counted mode. Each body panics unless `p | n` and
    /// `1 ≤ h ≤ n/p`.
    pub fn counted(n: usize, h: usize, iters: usize) -> Self {
        Stencil1D {
            n,
            h,
            iters,
            grid: None,
        }
    }

    /// Data mode over a row-major `n × n` grid.
    pub fn with_data(grid: Vec<f64>, n: usize, h: usize, iters: usize) -> Self {
        assert_eq!(grid.len(), n * n, "stencil: grid must be n×n");
        Stencil1D {
            n,
            h,
            iters,
            grid: Some(grid),
        }
    }

    /// Exact Eq. 1 totals: `2` halo transfers of `h·n` words per rank
    /// and sweep (none at `p = 1` — self-halos wrap locally), and
    /// `(n/p)·n·(2h+1)²` flops per rank and sweep.
    pub fn expected_totals(p: u64, n: u64, h: u64, iters: u64, m: u64) -> OpTotals {
        let k = 2 * h + 1;
        let (msgs, words) = if p == 1 {
            (0, 0)
        } else {
            (p * iters * 2 * chunks(h * n, m), p * iters * 2 * h * n)
        };
        OpTotals {
            msgs,
            words,
            flops: p * iters * (n / p) * n * k * k,
        }
    }
}

impl RankProgram for Stencil1D {
    type Output = Option<Vec<f64>>;

    fn start(&self, comm: Comm) -> impl Future<Output = Self::Output> {
        let (p, n, h) = (comm.size(), self.n, self.h);
        assert!(n.is_multiple_of(p), "stencil: p must divide n");
        assert!(h >= 1 && h <= n / p, "stencil: need 1 <= h <= n/p");
        let (me, rows, iters) = (comm.rank(), n / p, self.iters);
        let mut block = self
            .grid
            .as_ref()
            .map(|g| g[me * rows * n..(me + 1) * rows * n].to_vec());
        async move {
            let (north, south) = ((me + p - 1) % p, (me + 1) % p);
            // `h` rows of my slab from row `first`, as a halo to send.
            let halo = |block: &Option<Vec<f64>>, first: usize| match block {
                Some(b) => Payload::Data(Arc::new(b[first * n..(first + h) * n].to_vec())),
                None => Payload::Counted(h * n),
            };
            let k = 2 * h as u64 + 1;
            comm.mark_collective_begin("stencil");
            for t in 0..iters as u64 {
                let tag = |off: u64| Tag(ST_HALO + 4 * t + off);
                let (top, bottom) = (halo(&block, 0), halo(&block, rows - h));
                let (halo_top, halo_bottom) = if p == 1 {
                    // Periodic self-halos, no traffic.
                    (bottom, top)
                } else {
                    comm.send(north, tag(0), top);
                    comm.send(south, tag(1), bottom);
                    // South's top rows are my bottom halo; north's bottom
                    // rows are my top halo.
                    let halo_bottom = comm.recv(south, tag(0)).await;
                    (comm.recv(north, tag(1)).await, halo_bottom)
                };
                if let Some(block) = &mut block {
                    sweep(block, halo_top.values(), halo_bottom.values(), n, h);
                }
                comm.compute((rows * n) as u64 * k * k);
            }
            comm.mark_collective_end("stencil");
            block
        }
    }
}

/// One periodic sweep of a row slab using its received halos —
/// ascending `(di, dj)` order, bit-identical to the serial kernel.
fn sweep(block: &mut [f64], halo_top: &[f64], halo_bottom: &[f64], n: usize, h: usize) {
    let rows = block.len() / n;
    let mut vert = Vec::with_capacity((rows + 2 * h) * n);
    vert.extend_from_slice(halo_top);
    vert.extend_from_slice(block);
    vert.extend_from_slice(halo_bottom);
    let inv = 1.0 / ((2 * h + 1) * (2 * h + 1)) as f64;
    for i in 0..rows {
        for j in 0..n {
            let mut acc = 0.0;
            for di in 0..=2 * h {
                let base = (i + di) * n;
                for dj in 0..=2 * h {
                    acc += vert[base + (j + n + dj - h) % n];
                }
            }
            block[i * n + j] = acc * inv;
        }
    }
}
