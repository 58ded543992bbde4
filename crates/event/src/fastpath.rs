//! Closed-form pricing of native counted collectives.
//!
//! A counted collective moves no data — its entire observable output is
//! the per-rank Eq. 1/2 counters and virtual clocks, and those are a
//! pure function of the message DAG (see the `exec` module docs). For
//! the built-in allreduces the DAG is known in closed form, so instead
//! of scheduling `O(p log p)` wires one by one, this module walks each
//! rank's pricing sequence directly over arrays, charging every send,
//! receive and compute with `psse_sim::lane`'s primitives — the same
//! code the scheduled executor runs, with the same `max(clock, depart)`
//! joins. The result is byte-identical to the general executor
//! (enforced by the `fastpath_identity` differential tests against
//! `EventMachine::run_general`, which forces the general path).
//!
//! The fast path refuses to engage unless nothing can observe
//! individual events — no trace, no fault plan, no hierarchy — and the
//! program claims an [`AnalyticOp`](crate::AnalyticOp) (data-mode
//! programs claim none). The claim is one per program, not one per
//! rank, so the fast path builds no rank bodies at all.
//! The guard in [`try_run`] names every `SimConfig` field, so a new
//! field does not compile until it is classified there.

use crate::program::{AnalyticOp, RankProgram};
use psse_sim::lane::{charge_chunks, n_chunks, LinkPrice};
use psse_sim::{Profile, RankStats, SimConfig};

/// One rank's compact accounting lane: exactly the fields of
/// `RankStats` the general path can touch on a trace-less, fault-less,
/// flat run (a full `RankStats` per rank would double the footprint at
/// `p = 10⁶`).
#[derive(Clone, Copy, Default)]
struct CompactLane {
    time: f64,
    flops: u64,
    msgs_sent: u64,
    words_sent: u64,
    msgs_recvd: u64,
    words_recvd: u64,
}

/// The flat-machine prices the evaluators thread through every lane.
#[derive(Clone, Copy)]
struct Prices {
    link: LinkPrice,
    gamma: f64,
    m: usize,
    /// `⌈words/m⌉` — constant because every transfer of these
    /// collectives carries `words`.
    n_chunks: u64,
    words: usize,
}

impl Prices {
    /// `Lane::price_send` on a flat machine; returns the depart time
    /// (the sender's clock after the last chunk).
    #[inline]
    fn send(&self, lane: &mut CompactLane) -> f64 {
        lane.time = charge_chunks(lane.time, self.words, self.m, self.link);
        lane.msgs_sent += self.n_chunks;
        lane.words_sent += self.words as u64;
        lane.time
    }

    /// `Lane::price_recv`.
    #[inline]
    fn recv(&self, lane: &mut CompactLane, depart: f64) {
        lane.time = lane.time.max(depart);
        lane.words_recvd += self.words as u64;
        lane.msgs_recvd += self.n_chunks;
    }

    /// `Lane::compute` of the `words`-flop merge.
    #[inline]
    fn compute(&self, lane: &mut CompactLane) {
        lane.flops += self.words as u64;
        lane.time += self.gamma * self.words as f64;
    }
}

/// Price the run analytically if every guard passes; `None` falls back
/// to the general executor.
pub(crate) fn try_run<P: RankProgram>(p: usize, cfg: &SimConfig, program: &P) -> Option<Profile> {
    let SimConfig {
        // Observe individual events: the fast path refuses.
        record_trace,
        faults,
        hierarchy,
        // The prices the closed forms charge.
        gamma_t,
        beta_t,
        alpha_t,
        max_message_words,
        // Host-only: how a run waits, is pooled and is cancelled.
        // Counted programs never allocate, so the memory limit cannot
        // fire either.
        mem_limit_words: _,
        recv_timeout: _,
        backend: _,
        pool_idle_floor: _,
        pool_idle_max: _,
        cancel: _,
    } = cfg;
    if *record_trace || faults.is_some() || hierarchy.is_some() {
        return None;
    }
    let op = program.analytic()?;
    let prices = |words: usize| Prices {
        link: LinkPrice::flat(*alpha_t, *beta_t),
        gamma: *gamma_t,
        m: *max_message_words,
        n_chunks: n_chunks(words, *max_message_words) as u64,
        words,
    };
    let lanes = match op {
        AnalyticOp::BinomialAllreduce { words } => binomial(p, prices(words)),
        AnalyticOp::RecursiveDoublingAllreduce { words } => {
            if !p.is_power_of_two() {
                return None; // the body itself rejects such a world
            }
            recursive_doubling(p, prices(words))
        }
        AnalyticOp::RingAllreduce { words } => ring(p, prices(words)),
    };
    let per_rank: Vec<RankStats> = lanes
        .into_iter()
        .map(|lane| RankStats {
            flops: lane.flops,
            msgs_sent: lane.msgs_sent,
            words_sent: lane.words_sent,
            msgs_recvd: lane.msgs_recvd,
            words_recvd: lane.words_recvd,
            finish_time: lane.time,
            ..RankStats::default()
        })
        .collect();
    // The general path reports one (empty) trace vec per rank even with
    // tracing off; mirror that shape exactly.
    let profile = Profile::with_events(per_rank, vec![Vec::new(); p]);
    debug_assert!(profile.assert_balanced().is_ok());
    Some(profile)
}

/// `BinomialAllreduce`: reduce pass in *descending* rank order — at
/// level `k` a parent `v` (with `v mod 2^(k+1) = 0`) receives from
/// child `v + 2^k > v`, and the child's single reduce send is its last
/// reduce action, so processing high ranks first has every depart time
/// ready. Broadcast pass in *ascending* order: rank `v > 0` receives
/// from parent `v − lowbit(v) < v`, then fans to children `> v`.
fn binomial(p: usize, pr: Prices) -> Vec<CompactLane> {
    let mut lanes = vec![CompactLane::default(); p];
    // depart[c] = depart time of c's reduce send (each rank sends at
    // most once in the reduce tree).
    let mut depart = vec![0.0f64; p];
    for v in (0..p).rev() {
        let mut mask = 1usize;
        while mask < p {
            if v & mask != 0 {
                depart[v] = pr.send(&mut lanes[v]);
                break;
            }
            let child = v + mask;
            if child < p {
                pr.recv(&mut lanes[v], depart[child]);
                pr.compute(&mut lanes[v]);
            }
            mask <<= 1;
        }
    }
    // depart[c] now re-used for c's *incoming* broadcast edge.
    for v in 0..p {
        let fan_start = if v == 0 {
            p.next_power_of_two() >> 1
        } else {
            let lowbit = v & v.wrapping_neg();
            pr.recv(&mut lanes[v], depart[v]);
            lowbit >> 1
        };
        let mut mask = fan_start;
        while mask > 0 {
            let child = v + mask;
            if child < p {
                depart[child] = pr.send(&mut lanes[v]);
            }
            mask >>= 1;
        }
    }
    lanes
}

/// `RecursiveDoublingAllreduce`: per round every rank sends to its
/// partner, then receives and merges — so price each round in two
/// sweeps (all sends, then all recv+computes), which is exactly each
/// rank's own program order with every partner depart time ready.
fn recursive_doubling(p: usize, pr: Prices) -> Vec<CompactLane> {
    let mut lanes = vec![CompactLane::default(); p];
    let mut depart = vec![0.0f64; p];
    let mut k = 0usize;
    while 1usize << k < p {
        for (v, lane) in lanes.iter_mut().enumerate() {
            depart[v] = pr.send(lane);
        }
        for (v, lane) in lanes.iter_mut().enumerate() {
            pr.recv(lane, depart[v ^ (1usize << k)]);
            pr.compute(lane);
        }
        k += 1;
    }
    lanes
}

/// `RingAllreduce`: same two-sweep rounds as recursive doubling, with
/// the left neighbour as the depart source. `O(p)` rounds — at ring
/// scale the general path is `O(p²)` scheduled events, so this is still
/// the cheap side, but the tree collectives are the mega-scale tools.
fn ring(p: usize, pr: Prices) -> Vec<CompactLane> {
    let mut lanes = vec![CompactLane::default(); p];
    let mut depart = vec![0.0f64; p];
    for _round in 0..p.saturating_sub(1) {
        for (v, lane) in lanes.iter_mut().enumerate() {
            depart[v] = pr.send(lane);
        }
        for (v, lane) in lanes.iter_mut().enumerate() {
            pr.recv(lane, depart[(v + p - 1) % p]);
            pr.compute(lane);
        }
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::BinomialAllreduce;
    use psse_faults::{FaultPlan, FaultSpec, RecoveryPolicy};
    use psse_sim::machine::Hierarchy;
    use psse_sim::{SimConfig, Tag};

    /// The fast path must actually engage on the headline workload —
    /// byte-identity alone can't prove that (identical output is the
    /// whole point), so pin the dispatch decision here.
    #[test]
    fn engages_for_counted_binomial() {
        let program = BinomialAllreduce::counted(Tag(0), 100);
        let profile = try_run(64, &SimConfig::default(), &program).expect("fast path");
        let t = BinomialAllreduce::expected_totals(64, 100, 1 << 16);
        assert_eq!(profile.total_msgs_sent(), t.msgs);
        assert_eq!(profile.total_words_sent(), t.words);
        assert_eq!(profile.total_flops(), t.flops);
        assert_eq!(profile.events.len(), 64, "one (empty) trace vec per rank");
    }

    /// Every event-observing feature must force the general path.
    #[test]
    fn guards_refuse_trace_faults_hierarchy_and_data() {
        let program = BinomialAllreduce::counted(Tag(0), 100);
        let traced = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        assert!(try_run(8, &traced, &program).is_none());
        let faulted = SimConfig {
            faults: Some(FaultPlan {
                spec: FaultSpec {
                    seed: 1,
                    ..FaultSpec::default()
                },
                recovery: RecoveryPolicy {
                    max_retries: 1,
                    retry_backoff: 1e-9,
                    checkpoint: None,
                },
            }),
            ..SimConfig::default()
        };
        assert!(try_run(8, &faulted, &program).is_none());
        let hierarchical = SimConfig {
            hierarchy: Some(Hierarchy {
                cores_per_node: 4,
                intra_beta_t: 1e-9,
                intra_alpha_t: 1e-7,
            }),
            ..SimConfig::default()
        };
        assert!(try_run(8, &hierarchical, &program).is_none());
        let data_mode = BinomialAllreduce::with_data(Tag(0), vec![1.0; 8]);
        assert!(try_run(8, &SimConfig::default(), &data_mode).is_none());
    }
}
