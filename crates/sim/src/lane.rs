//! The one Eq. 1 pricing core: every virtual-clock update, counter
//! increment, fault decision and trace record of a simulated rank.
//!
//! Four callers charge through this module and keep no pricing of their
//! own:
//!
//! * the thread backend's [`crate::Rank`] wraps a [`Lane`] and adds only
//!   mailboxes, blocking and cancellation wakeups;
//! * `psse-event`'s scheduled executors hold one [`Lane`] per rank
//!   program;
//! * `psse-event`'s analytic fast path prices counted collectives over
//!   compact per-rank arrays with the primitives below;
//! * `psse-trace` replay re-prices recorded events on a [`Meter`] per
//!   rank.
//!
//! The primitives are [`link_price`] (hierarchy → intra- or inter-node
//! `α`/`β`), [`n_chunks`] (`⌈k/m⌉`, an empty transfer still one
//! message) and [`charge_chunks`] (the per-chunk `t += α + β·k` loop).
//! The loop is kept chunk by chunk because `f64` addition is not
//! associative: a fused `n·α + k·β` would not reproduce the clocks to
//! the last bit. Byte identity between backends, and between a live run
//! and its replay, holds because they run this code, not copies of it.

use crate::error::{SimError, SimResult};
use crate::machine::{Hierarchy, SimConfig};
use crate::message::{SharedPayload, Tag};
use crate::profile::RankStats;
use crate::record::{EventKind, TimedEvent};
use psse_faults::{FaultPlan, LinkFaultKind};
use std::sync::Arc;

/// The link prices of one transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPrice {
    /// Whether both ends share a node (intra-node counters apply).
    pub intra: bool,
    /// Seconds per message.
    pub alpha: f64,
    /// Seconds per word.
    pub beta: f64,
}

impl LinkPrice {
    /// Machine-level (inter-node) prices.
    #[inline]
    pub fn flat(alpha: f64, beta: f64) -> Self {
        LinkPrice {
            intra: false,
            alpha,
            beta,
        }
    }
}

/// Price the link `src → dest`: the intra-node prices when `hierarchy`
/// places both ranks on one node, the machine-level `alpha_t`/`beta_t`
/// otherwise.
#[inline]
pub fn link_price(
    hierarchy: Option<&Hierarchy>,
    alpha_t: f64,
    beta_t: f64,
    src: usize,
    dest: usize,
) -> LinkPrice {
    match hierarchy {
        Some(h) if h.same_node(src, dest) => LinkPrice {
            intra: true,
            alpha: h.intra_alpha_t,
            beta: h.intra_beta_t,
        },
        _ => LinkPrice::flat(alpha_t, beta_t),
    }
}

/// Messages a `words`-word transfer is split into at `m` words per
/// message: `⌈words/m⌉`, and an empty transfer is still one message.
#[inline]
pub fn n_chunks(words: usize, m: usize) -> usize {
    if words == 0 {
        1
    } else {
        words.div_ceil(m)
    }
}

/// Advance `time` over the `⌈words/m⌉` chunks of one transfer, one
/// `α + β·k` per chunk of `k` words, in chunk order.
#[inline]
pub fn charge_chunks(mut time: f64, words: usize, m: usize, link: LinkPrice) -> f64 {
    let (alpha, beta) = (link.alpha, link.beta);
    let mut left = words;
    loop {
        let k = left.min(m);
        time += alpha + beta * k as f64;
        if left <= m {
            return time;
        }
        left -= m;
    }
}

/// A rank's virtual clock and Eq. 1/2 counters: the state every charge
/// lands on. Replay keeps one per rank; a [`Lane`] wraps one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Meter {
    /// Virtual clock, seconds.
    pub time: f64,
    /// Counters (`finish_time` is filled in at the end of the run).
    pub stats: RankStats,
}

impl Meter {
    /// `flops` operations: `t += γt·flops`.
    #[inline]
    pub fn compute(&mut self, gamma_t: f64, flops: u64) {
        self.stats.flops += flops;
        self.time += gamma_t * flops as f64;
    }

    /// A delivered transfer of `words` words over `link`.
    #[inline]
    pub fn send(&mut self, words: usize, m: usize, link: LinkPrice) {
        self.time = charge_chunks(self.time, words, m, link);
        let msgs = n_chunks(words, m) as u64;
        self.stats.msgs_sent += msgs;
        self.stats.words_sent += words as u64;
        if link.intra {
            self.stats.msgs_sent_intra += msgs;
            self.stats.words_sent_intra += words as u64;
        }
    }

    /// A receive: the clock joins the transfer's departure time
    /// (`max(t, t_depart)`, the postal model); a transfer that crossed
    /// a link (not a self-send) is counted.
    #[inline]
    pub fn recv(&mut self, depart: f64, words: usize, msgs: usize, crossed_link: bool) {
        self.time = self.time.max(depart);
        if crossed_link {
            self.stats.words_recvd += words as u64;
            self.stats.msgs_recvd += msgs as u64;
        }
    }

    /// A transfer that crossed the link without being delivered: a
    /// failed attempt followed by its `backoff` wait, or a duplicate
    /// (`backoff = 0`). The words land in the resilience counters, not
    /// `words_sent`, so the sent/received balance is preserved.
    pub fn charge_wasted_transfer(
        &mut self,
        words: usize,
        m: usize,
        link: LinkPrice,
        backoff: f64,
    ) {
        self.time = charge_chunks(self.time, words, m, link);
        self.stats.retrans_msgs += n_chunks(words, m) as u64;
        self.stats.retrans_words += words as u64;
        self.time += backoff;
        self.stats.retries += 1;
    }

    /// A checkpoint write of `words` words to stable storage, chunked
    /// at `m` like any transfer, at the machine-level `link` prices.
    pub fn charge_checkpoint_write(&mut self, words: u64, m: usize, link: LinkPrice) {
        let words = words as usize;
        self.time = charge_chunks(self.time, words, m, link);
        self.stats.checkpoint_msgs += n_chunks(words, m) as u64;
        self.stats.checkpoint_words += words as u64;
    }

    /// A crash absorbed by checkpoint/restart: `lost` seconds of rework
    /// plus the `restart` cost.
    pub fn recover(&mut self, lost: f64, restart: f64) {
        self.time += lost + restart;
        self.stats.crashes_recovered += 1;
    }

    /// Track an allocation of `words` words.
    #[inline]
    pub fn alloc(&mut self, words: u64) {
        self.stats.mem_current += words;
        self.stats.mem_peak = self.stats.mem_peak.max(self.stats.mem_current);
    }

    /// Track a release of `words` words; `false` (and no change) when
    /// more is freed than is allocated.
    #[inline]
    pub fn free(&mut self, words: u64) -> bool {
        match self.stats.mem_current.checked_sub(words) {
            Some(left) => {
                self.stats.mem_current = left;
                true
            }
            None => false,
        }
    }

    /// The counters with `finish_time` set to the clock.
    pub fn finish(mut self) -> RankStats {
        self.stats.finish_time = self.time;
        self.stats
    }
}

/// A priced transfer as the receiver sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Departure {
    /// Messages (chunks) the transfer was priced as.
    pub n_chunks: usize,
    /// The sender's clock after its last chunk.
    pub time: f64,
}

/// Per-rank fault-injection state (present only when
/// `SimConfig::faults` is set). Fault decisions are pure functions of
/// the plan seed and the per-link transfer counters kept here, so they
/// do not depend on how the executor interleaves ranks.
struct FaultState {
    plan: FaultPlan,
    /// Transfers initiated per outgoing link (indexes the plan), sorted
    /// by peer rank; one entry per distinct peer ever sent to. A dense
    /// `vec![0; p]` per rank would be `O(p²)` at `p = 10⁶` while real
    /// algorithms talk to `O(log p)` peers.
    link_seq: Vec<(u32, u64)>,
    /// Virtual time of the next coordinated checkpoint boundary
    /// (`+inf` when checkpointing is off).
    next_cp: f64,
    /// Last checkpoint boundary crossed (crash rework restarts here).
    last_cp: f64,
    /// This rank's scheduled crash, not yet triggered.
    crash_at: Option<f64>,
    /// A crash that struck with no checkpoint to restart from; surfaced
    /// by the next fallible operation, or at the end of the program.
    pending_crash: Option<SimError>,
}

impl FaultState {
    /// Post-increment the sequence number of the link to `dest`,
    /// creating its arena entry on first contact.
    fn next_link_seq(&mut self, dest: usize) -> u64 {
        let peer = dest as u32;
        match self.link_seq.binary_search_by_key(&peer, |&(d, _)| d) {
            Ok(i) => {
                let seq = self.link_seq[i].1;
                self.link_seq[i].1 += 1;
                seq
            }
            Err(i) => {
                self.link_seq.insert(i, (peer, 1));
                0
            }
        }
    }
}

/// Deterministically perturb a corrupted payload word: the result
/// always differs from `x` by at least 1.0, so integrity checks with
/// any reasonable tolerance can see it.
fn corrupt_word(x: f64) -> f64 {
    x + 1.0 + x.abs()
}

/// [`SimError::Cancelled`] once the run's cancellation flag has fired.
pub(crate) fn check_cancelled(cfg: &SimConfig) -> SimResult<()> {
    match &cfg.cancel {
        Some(flag) if flag.is_cancelled() => Err(SimError::Cancelled),
        _ => Ok(()),
    }
}

/// One rank's accounting state, detached from how the rank is run:
/// virtual clock, counters, trace log and fault state. Every method
/// takes the run's [`SimConfig`] for its prices.
pub struct Lane {
    id: usize,
    p: usize,
    meter: Meter,
    events: Vec<TimedEvent>,
    fault: Option<Box<FaultState>>,
}

impl Lane {
    /// The lane of rank `id` in a world of `p` ranks.
    pub fn new(id: usize, p: usize, cfg: &SimConfig) -> Self {
        let fault = cfg.faults.as_ref().map(|plan| {
            Box::new(FaultState {
                plan: plan.clone(),
                link_seq: Vec::new(),
                next_cp: plan
                    .recovery
                    .checkpoint
                    .map_or(f64::INFINITY, |cp| cp.interval),
                last_cp: 0.0,
                crash_at: plan.crash_at(id),
                pending_crash: None,
            })
        });
        Lane {
            id,
            p,
            meter: Meter::default(),
            events: Vec::new(),
            fault,
        }
    }

    /// This rank's id.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// World size `p`.
    #[inline]
    pub fn size(&self) -> usize {
        self.p
    }

    /// The virtual clock, seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.meter.time
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &RankStats {
        &self.meter.stats
    }

    /// The finished counters (with `finish_time`) and the trace log.
    pub fn into_parts(self) -> (RankStats, Vec<TimedEvent>) {
        (self.meter.finish(), self.events)
    }

    /// Append an event ending now to the trace log (no-op unless
    /// recording).
    #[inline]
    fn record(&mut self, cfg: &SimConfig, t_start: f64, kind: EventKind) {
        if cfg.record_trace {
            self.events.push(TimedEvent {
                t_start,
                t_end: self.meter.time,
                kind,
            });
        }
    }

    /// Record a collective-begin trace marker (no-op unless recording).
    pub fn mark_collective_begin(&mut self, cfg: &SimConfig, op: &str) {
        if cfg.record_trace {
            let t = self.meter.time;
            self.record(cfg, t, EventKind::CollBegin { op: op.to_string() });
        }
    }

    /// Record the matching collective-end trace marker.
    pub fn mark_collective_end(&mut self, cfg: &SimConfig, op: &str) {
        if cfg.record_trace {
            let t = self.meter.time;
            self.record(cfg, t, EventKind::CollEnd { op: op.to_string() });
        }
    }

    /// A crash the rank's program never got to observe (no fallible
    /// operation followed it); executors check this when a program ends.
    pub fn take_fault_error(&mut self) -> Option<SimError> {
        self.fault
            .as_deref_mut()
            .and_then(|fs| fs.pending_crash.take())
    }

    /// The prologue of every send and receive: the peer must exist, the
    /// run must not be cancelled, and a pending unrecoverable crash
    /// (set by a preceding `compute`, which cannot fail) surfaces here.
    #[inline]
    fn check_live(&mut self, cfg: &SimConfig, peer: usize) -> SimResult<()> {
        if peer >= self.p {
            return Err(SimError::RankOutOfRange {
                rank: peer,
                size: self.p,
            });
        }
        check_cancelled(cfg)?;
        match self.fault.as_deref_mut() {
            Some(fs) => fs.pending_crash.take().map_or(Ok(()), Err),
            None => Ok(()),
        }
    }

    /// `flops` floating-point operations: `t += γt·flops`.
    #[inline]
    pub fn compute(&mut self, cfg: &SimConfig, flops: u64) {
        let t0 = self.meter.time;
        self.meter.compute(cfg.gamma_t, flops);
        self.record(cfg, t0, EventKind::Compute { flops });
        if self.fault.is_some() {
            self.fault_epilogue(cfg);
        }
    }

    /// Track an allocation of `words` words against the configured
    /// per-rank limit.
    pub fn alloc(&mut self, cfg: &SimConfig, words: u64) -> SimResult<()> {
        let new = self.meter.stats.mem_current + words;
        if let Some(limit) = cfg.mem_limit_words {
            if new > limit {
                return Err(SimError::MemoryLimitExceeded {
                    rank: self.id,
                    requested: new,
                    limit,
                });
            }
        }
        self.meter.alloc(words);
        let t = self.meter.time;
        self.record(cfg, t, EventKind::Alloc { words });
        Ok(())
    }

    /// Track the release of `words` words.
    pub fn free(&mut self, cfg: &SimConfig, words: u64) -> SimResult<()> {
        if !self.meter.free(words) {
            return Err(SimError::MemoryUnderflow { rank: self.id });
        }
        let t = self.meter.time;
        self.record(cfg, t, EventKind::Free { words });
        Ok(())
    }

    /// Price a `words`-word send to `dest` under `tag`. A self-send is
    /// free (no link is crossed) and departs now. Otherwise the
    /// transfer counts `⌈k/m⌉` messages and the clock advances by
    /// `α + k·β` per chunk at the [`link_price`]. Under a fault plan the
    /// transfer may first be delayed, retried or corrupted, and may be
    /// charged again as a duplicate after it departs. `data` is the
    /// payload, when there is one to corrupt.
    #[inline]
    pub fn price_send(
        &mut self,
        cfg: &SimConfig,
        dest: usize,
        tag: Tag,
        words: usize,
        data: Option<&mut SharedPayload>,
    ) -> SimResult<Departure> {
        self.check_live(cfg, dest)?;
        let send = EventKind::Send {
            dest,
            tag: tag.0,
            words,
        };
        if dest == self.id {
            let t = self.meter.time;
            self.record(cfg, t, send);
            return Ok(Departure {
                n_chunks: 1,
                time: t,
            });
        }
        let link = link_price(
            cfg.hierarchy.as_ref(),
            cfg.alpha_t,
            cfg.beta_t,
            self.id,
            dest,
        );
        let duplicate = if self.fault.is_some() {
            self.inject_send_faults(cfg, dest, tag, words, data, link)?
        } else {
            false
        };
        let m = cfg.max_message_words;
        let t_send = self.meter.time;
        self.meter.send(words, m, link);
        let departure = Departure {
            n_chunks: n_chunks(words, m),
            time: self.meter.time,
        };
        self.record(cfg, t_send, send);
        if duplicate {
            // The link sent the transfer twice; the receiver discards
            // the copy, but its bandwidth and latency are still paid.
            let td = self.meter.time;
            self.meter.charge_wasted_transfer(words, m, link, 0.0);
            let retry = EventKind::Retry {
                dest,
                tag: tag.0,
                attempt: 0,
                words,
                backoff: 0.0,
            };
            self.record(cfg, td, retry);
        }
        if self.fault.is_some() {
            self.fault_epilogue(cfg);
        }
        Ok(departure)
    }

    /// The fallible prologue of a receive from `src`, run when the
    /// program issues it (before any blocking); returns the clock at
    /// which the receive began.
    #[inline]
    pub fn begin_recv(&mut self, cfg: &SimConfig, src: usize) -> SimResult<f64> {
        self.check_live(cfg, src)?;
        Ok(self.meter.time)
    }

    /// Complete a receive begun at `t0`: join the transfer's departure
    /// time, count it, record it.
    #[inline]
    pub fn price_recv(
        &mut self,
        cfg: &SimConfig,
        t0: f64,
        src: usize,
        tag: Tag,
        words: usize,
        departure: Departure,
    ) {
        let msgs = departure.n_chunks;
        self.meter.recv(departure.time, words, msgs, src != self.id);
        let recv = EventKind::Recv {
            src,
            tag: tag.0,
            words,
            msgs,
        };
        self.record(cfg, t0, recv);
        if self.fault.is_some() {
            self.fault_epilogue(cfg);
        }
    }

    /// Run after every clock-advancing operation: write the coordinated
    /// checkpoints whose boundaries the operation crossed, then trigger
    /// this rank's scheduled crash once its clock passes the crash time.
    /// With a checkpoint policy the crash costs the rework since the
    /// last checkpoint boundary plus the restart time; without one it is
    /// fatal ([`SimError::RankCrashed`]).
    fn fault_epilogue(&mut self, cfg: &SimConfig) {
        let Some(mut fs) = self.fault.take() else {
            return;
        };
        if let Some(cp) = fs.plan.recovery.checkpoint {
            // Only boundaries crossed by the operation itself fire here;
            // boundaries crossed while writing a checkpoint fire on the
            // next operation (keeps this loop finite even when a write
            // costs more than the interval).
            let t_op = self.meter.time;
            let machine = LinkPrice::flat(cfg.alpha_t, cfg.beta_t);
            while fs.next_cp <= t_op {
                let t0 = self.meter.time;
                self.meter
                    .charge_checkpoint_write(cp.words, cfg.max_message_words, machine);
                fs.last_cp = fs.next_cp;
                fs.next_cp += cp.interval;
                self.record(cfg, t0, EventKind::Checkpoint { words: cp.words });
            }
        }
        if let Some(at) = fs.crash_at {
            if self.meter.time >= at {
                fs.crash_at = None;
                if let Some(cp) = fs.plan.recovery.checkpoint {
                    let t0 = self.meter.time;
                    let lost = self.meter.time - fs.last_cp;
                    self.meter.recover(lost, cp.restart_seconds);
                    let restart = cp.restart_seconds;
                    self.record(cfg, t0, EventKind::CrashRecovery { lost, restart });
                } else {
                    fs.pending_crash = Some(SimError::RankCrashed { rank: self.id, at });
                }
            }
        }
        self.fault = Some(fs);
    }

    /// Decide and apply this transfer's injected fault *before*
    /// delivery. Drop/corrupt faults under an ack protocol
    /// (`max_retries > 0`) burn failed attempts with exponential
    /// virtual-time backoff until one succeeds; a drop without retries
    /// is [`SimError::RetriesExhausted`]; a corruption without retries
    /// silently perturbs one payload word (ABFT's job to catch) —
    /// copy-on-write through [`Arc::make_mut`], so a shared payload is
    /// only duplicated when a corruption actually fires, and a counted
    /// transfer (no `data`) has nothing to perturb. Delay stalls the
    /// sender. Returns `true` when the transfer must also be re-charged
    /// as a duplicate after delivery.
    fn inject_send_faults(
        &mut self,
        cfg: &SimConfig,
        dest: usize,
        tag: Tag,
        words: usize,
        data: Option<&mut SharedPayload>,
        link: LinkPrice,
    ) -> SimResult<bool> {
        let Some(mut fs) = self.fault.take() else {
            return Ok(false);
        };
        let seq = fs.next_link_seq(dest);
        let res = match fs.plan.link_fault(self.id, dest, seq) {
            None => Ok(false),
            Some(LinkFaultKind::Duplicate) => Ok(true),
            Some(LinkFaultKind::Delay) => {
                let t0 = self.meter.time;
                let seconds = fs.plan.spec.delay_seconds;
                self.meter.time += seconds;
                self.record(cfg, t0, EventKind::LinkDelay { seconds });
                Ok(false)
            }
            Some(LinkFaultKind::Corrupt) if fs.plan.recovery.max_retries == 0 => {
                if let Some(data) = data.filter(|d| !d.is_empty()) {
                    let i = fs.plan.corrupt_index(self.id, dest, seq, data.len());
                    let payload = Arc::make_mut(data);
                    payload[i] = corrupt_word(payload[i]);
                }
                Ok(false)
            }
            Some(LinkFaultKind::Drop) | Some(LinkFaultKind::Corrupt) => {
                let max_retries = fs.plan.recovery.max_retries;
                let m = cfg.max_message_words;
                let mut attempt: u32 = 0;
                loop {
                    let t0 = self.meter.time;
                    let backoff = fs.plan.recovery.retry_backoff * f64::powi(2.0, attempt as i32);
                    self.meter.charge_wasted_transfer(words, m, link, backoff);
                    let retry = EventKind::Retry {
                        dest,
                        tag: tag.0,
                        attempt: attempt as usize,
                        words,
                        backoff,
                    };
                    self.record(cfg, t0, retry);
                    attempt += 1;
                    if attempt > max_retries {
                        break Err(SimError::RetriesExhausted {
                            rank: self.id,
                            dest,
                            attempts: attempt,
                        });
                    }
                    match fs.plan.attempt_fault(self.id, dest, seq, attempt) {
                        Some(LinkFaultKind::Drop) | Some(LinkFaultKind::Corrupt) => continue,
                        _ => break Ok(false),
                    }
                }
            }
        };
        self.fault = Some(fs);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_faults::{FaultSpec, RecoveryPolicy};

    /// Regression for the fault-state memory bound: the per-link
    /// sequence arena must be sized by *distinct peers talked to*, not
    /// by world size and not by transfer count — that is what keeps a
    /// faulted run's memory `O(p + live wires + edges)` at `p = 10^6`.
    #[test]
    fn fault_link_seq_grows_with_distinct_peers_only() {
        let p = 1 << 20;
        let cfg = SimConfig {
            faults: Some(FaultPlan {
                spec: FaultSpec {
                    seed: 7,
                    ..FaultSpec::default()
                },
                recovery: RecoveryPolicy {
                    max_retries: 3,
                    retry_backoff: 1e-9,
                    checkpoint: None,
                },
            }),
            ..SimConfig::default()
        };
        let mut lane = Lane::new(0, p, &cfg);
        let peers = [1usize, 1 << 10, 1 << 19];
        for round in 0..100 {
            let dest = peers[round % peers.len()];
            lane.price_send(&cfg, dest, Tag(round as u64), 8, None)
                .expect("send");
        }
        let fs = lane.fault.as_deref().expect("fault state");
        assert_eq!(
            fs.link_seq.len(),
            peers.len(),
            "arena must hold one entry per distinct peer, not per transfer"
        );
        // ...and the entries really are per-link transfer counts.
        for &(peer, seq) in &fs.link_seq {
            assert!(peers.contains(&(peer as usize)));
            assert!(seq == 34 || seq == 33, "100 sends over 3 links");
        }
        assert!(fs.link_seq.is_sorted_by_key(|&(d, _)| d));
    }
}
