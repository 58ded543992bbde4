//! `mega_events`: counted programs on the discrete-event backend — a
//! binomial allreduce at p = 10⁶ on the analytic fast path, the same
//! program at p = 10⁵ forced through the scheduled executor, a faulted
//! allreduce at p = 10⁵ and the 1-D halo stencil at p = 10⁵. Every
//! run's counters must equal the crates' `expected_totals` closed forms.

use psse_event::prelude::*;
use psse_faults::{FaultPlan, FaultSpec, RecoveryPolicy};
use psse_sim::error::SimResult;
use psse_sim::profile::Profile;
use std::path::Path;
use std::time::Instant;

use crate::report::{span, Rng, Spans, Tally};
use crate::{Job, Pass};

/// Counted words per rank in the allreduces, and the message cap that
/// splits each transfer into four chunks.
const WORDS: usize = 1 << 14;
const MAX_MSG: usize = 1 << 12;
const P_FAST: usize = 1_000_000;
const P_SCHED: usize = 100_000;
const STENCIL_SWEEPS: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Run {
    FastPath,
    General,
    Faulted,
    Stencil,
}

const RUNS: [Run; 4] = [Run::FastPath, Run::General, Run::Faulted, Run::Stencil];

impl Run {
    fn span(self) -> &'static str {
        match self {
            Run::FastPath => "event.fastpath",
            Run::General => "event.general",
            Run::Faulted => "event.faulted",
            Run::Stencil => "event.stencil",
        }
    }
}

/// What one run reported.
#[derive(Default, Clone, Copy)]
struct Seen {
    msgs: u64,
    retries: u64,
    resilience_msgs: u64,
    stats: ExecStats,
}

pub struct MegaEvents {
    cfg: SimConfig,
    faulted: SimConfig,
    allreduce_fast: OpTotals,
    allreduce_sched: OpTotals,
    stencil: OpTotals,
    seen: [Seen; 4],
}

impl MegaEvents {
    fn expect(&self, run: Run) -> OpTotals {
        match run {
            Run::FastPath => self.allreduce_fast,
            Run::General | Run::Faulted => self.allreduce_sched,
            Run::Stencil => self.stencil,
        }
    }

    fn exec(&self, run: Run) -> SimResult<(Profile, ExecStats)> {
        let out = |o: EventOutcome<_>| (o.profile, o.stats);
        let counted = BinomialAllreduce::counted(Tag(0), WORDS);
        match run {
            Run::FastPath => run_programs(P_FAST, &self.cfg, counted).map(out),
            Run::General => EventMachine::run_general(P_SCHED, &self.cfg, counted).map(out),
            Run::Faulted => run_programs(P_SCHED, &self.faulted, counted).map(out),
            Run::Stencil => {
                let cfg = SimConfig {
                    max_message_words: 1 << 16,
                    ..self.cfg.clone()
                };
                run_programs(
                    P_SCHED,
                    &cfg,
                    Stencil1D::counted(P_SCHED, 1, STENCIL_SWEEPS),
                )
                .map(|o| (o.profile, o.stats))
            }
        }
    }
}

impl Job for MegaEvents {
    const SETUP_BATCH: usize = 100_000;
    const SETUP_SAMPLES: usize = 3;
    const FRESH_FIXTURE: bool = false;
    const TRACE_WARM: bool = false;

    fn setup(seed: u64, _dir: &Path) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let cfg = SimConfig {
            backend: Backend::Events,
            max_message_words: MAX_MSG,
            alpha_t: 1e-6 * rng.range(0.9, 1.1),
            beta_t: 1e-8 * rng.range(0.9, 1.1),
            ..SimConfig::default()
        };
        let faulted = SimConfig {
            faults: Some(FaultPlan {
                spec: FaultSpec {
                    seed: rng.next_u64(),
                    drop_rate: 0.05,
                    delay_rate: 0.05,
                    delay_seconds: 2e-6,
                    ..FaultSpec::default()
                },
                recovery: RecoveryPolicy {
                    max_retries: 24,
                    retry_backoff: 1e-8,
                    checkpoint: None,
                },
            }),
            ..cfg.clone()
        };
        let (w, m) = (WORDS as u64, MAX_MSG as u64);
        Ok(MegaEvents {
            allreduce_fast: BinomialAllreduce::expected_totals(P_FAST as u64, w, m),
            allreduce_sched: BinomialAllreduce::expected_totals(P_SCHED as u64, w, m),
            stencil: Stencil1D::expected_totals(
                P_SCHED as u64,
                P_SCHED as u64,
                1,
                STENCIL_SWEEPS as u64,
                1 << 16,
            ),
            cfg,
            faulted,
            seen: [Seen::default(); 4],
        })
    }

    fn pass(&mut self, _warm: bool, mut spans: Option<&mut Spans>) -> Pass {
        let mut tally = Tally::default();
        let mut outcomes = Vec::new();
        let t0 = Instant::now();
        for run in RUNS {
            outcomes.push(span(&mut spans, run.span(), || self.exec(run)));
        }
        let wall = t0.elapsed().as_secs_f64();
        let mut msgs = 0;
        for (i, (run, outcome)) in RUNS.into_iter().zip(outcomes).enumerate() {
            let want = self.expect(run);
            match outcome {
                Ok((profile, stats)) => {
                    let got = (
                        profile.total_msgs_sent(),
                        profile.total_words_sent(),
                        profile.total_flops(),
                    );
                    tally.check(
                        got == (want.msgs, want.words, want.flops),
                        &format!(
                            "{}: counters {got:?} differ from the closed form {want:?}",
                            run.span()
                        ),
                    );
                    if run == Run::Faulted {
                        tally.check(profile.total_retries() > 0, "faults: plan injected nothing");
                    }
                    msgs += got.0;
                    self.seen[i] = Seen {
                        msgs: got.0,
                        retries: profile.total_retries(),
                        resilience_msgs: profile.resilience_msgs(),
                        stats,
                    };
                }
                Err(e) => tally.check(false, &format!("{}: {e}", run.span())),
            }
        }
        Pass {
            wall,
            keys: RUNS.len() as u64,
            msgs: msgs as f64,
            tally,
        }
    }

    fn span_metrics(&self, cold: &Spans, _warm: &Spans) -> Vec<(&'static str, f64, &'static str)> {
        let ns_per_msg = |run: Run| {
            let i = RUNS.iter().position(|&r| r == run).expect("listed run");
            cold.total(run.span()) * 1e9 / self.seen[i].msgs.max(1) as f64
        };
        let sum = |f: fn(&ExecStats) -> u64| self.seen.iter().map(|s| f(&s.stats)).sum::<u64>();
        let faulted = self.seen[2];
        vec![
            (
                "event.fastpath_ms",
                cold.total("event.fastpath") * 1e3,
                "ms",
            ),
            ("event.general_ns_per_msg", ns_per_msg(Run::General), "ns"),
            ("event.faulted_ns_per_msg", ns_per_msg(Run::Faulted), "ns"),
            ("event.stencil_ns_per_msg", ns_per_msg(Run::Stencil), "ns"),
            (
                "event.slab_live_peak",
                sum(|s| s.slab_live_peak) as f64,
                "count",
            ),
            (
                "event.slab_recycled",
                sum(|s| s.slab_recycled) as f64,
                "count",
            ),
            (
                "event.calq_overflow",
                sum(|s| s.calq_overflow) as f64,
                "count",
            ),
            ("faults.event_retries", faulted.retries as f64, "count"),
            (
                "faults.event_useful_msg_ratio",
                faulted.msgs as f64 / (faulted.msgs + faulted.resilience_msgs).max(1) as f64,
                "frac",
            ),
        ]
    }
}
