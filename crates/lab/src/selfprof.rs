//! The sweep self-profile: where the harness's own wall-clock went.
//!
//! A [`SweepProfile`] pairs the *host-side* timing of a sweep (key
//! wall-clock histograms, the slowest keys, per-worker busy/idle spans,
//! cache temperature) with the *virtual-cost* metrics exported during
//! execution (Eq. 1/2 term breakdowns, resilience counters) — one
//! report answering both "which keys were slow to evaluate" and "where
//! did the modeled time/energy go".
//!
//! The profile costs O(1) per key and its size does not grow with the
//! key count: each worker records its keys into its own pair of
//! [`Histogram`]s (executed and cached, merged at the end — merge is
//! exactly associative) and keeps its [`TOP_K`] slowest keys; labels
//! and digests are built after the sweep for those keys only.
//!
//! Structure is deterministic: the key counts, the worker count and the
//! `virt.*` metric series are identical across reruns, and the JSON
//! rendering is canonical. The timing values — and so which keys rank
//! among the slowest — vary between runs; ties break toward spec order.
//! One caveat, by design: the `sim.*`/`faults.*` metric series are
//! exported when a run *executes*, so a warm cache yields fewer samples
//! there than a cold one. The `virt.*` series are recorded per key
//! occurrence, hit or miss, and are identical across cache temperature
//! and `--jobs` values.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use psse_metrics::registry::{histogram_from_json, histogram_to_json};
use psse_metrics::{Histogram, Json, Snapshot};

use crate::cache::CacheStats;
use crate::key::RunKey;
use crate::pool::{PoolProfile, WorkerSpan};

/// How many of the slowest keys a profile keeps. Fixed, so the profile
/// size is bounded whatever the sweep size; `render` clamps to it.
pub const TOP_K: usize = 32;

/// One of the slowest keys of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunProfile {
    /// Position of the key in the sweep's run list (spec order).
    pub index: u64,
    /// Human-readable key label (`RunKey::label`).
    pub label: String,
    /// Content digest (`RunKey::digest`), linking the entry to its
    /// cache record.
    pub digest: String,
    /// Host wall-clock spent producing the result, nanoseconds
    /// (lookup time when cached, execution time when not).
    pub wall_ns: u64,
    /// True when the result came from the cache.
    pub cached: bool,
    /// True when the run succeeded.
    pub ok: bool,
}

/// A top-K candidate: `(wall_ns, Reverse(index), cached, ok)`. Larger
/// ranks slower; equal times rank the earlier key first.
type Slow = (u64, Reverse<u64>, bool, bool);

/// One worker's share of a profiled sweep, filled lock-free on the
/// worker's own thread and merged after the pool joins.
#[derive(Debug, Default)]
pub(crate) struct WorkerTally {
    executed_ns: Histogram,
    cached_ns: Histogram,
    failed: u64,
    /// Min-heap of this worker's `TOP_K` slowest keys.
    top: BinaryHeap<Reverse<Slow>>,
}

impl WorkerTally {
    /// Account one finished key.
    pub(crate) fn observe(&mut self, index: usize, wall_ns: u64, cached: bool, ok: bool) {
        if cached {
            self.cached_ns.record(wall_ns);
        } else {
            self.executed_ns.record(wall_ns);
        }
        self.failed += u64::from(!ok);
        let slow = (wall_ns, Reverse(index as u64), cached, ok);
        if self.top.len() < TOP_K {
            self.top.push(Reverse(slow));
        } else if self.top.peek().is_some_and(|Reverse(min)| slow > *min) {
            self.top.pop();
            self.top.push(Reverse(slow));
        }
    }
}

/// The complete self-profile of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepProfile {
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock of the whole sweep, nanoseconds.
    pub wall_ns: u64,
    /// Keys in the sweep.
    pub keys: u64,
    /// Keys served from the cache.
    pub cached: u64,
    /// Keys that failed.
    pub failed: u64,
    /// Host wall-clock of the keys that executed, nanoseconds.
    pub executed_ns: Histogram,
    /// Host wall-clock of the keys served from the cache, nanoseconds.
    pub cached_ns: Histogram,
    /// The `min(TOP_K, keys)` slowest keys, slowest first; equal times
    /// keep spec order.
    pub top: Vec<RunProfile>,
    /// Per-worker busy spans, worker-index order.
    pub workers: Vec<WorkerSpan>,
    /// Cache counters over the engine's lifetime at sweep end.
    pub cache: CacheStats,
    /// The metrics registry snapshot (canonical JSON): `virt.*` series
    /// recorded per key occurrence, `sim.*`/`faults.*` series exported
    /// by the runs that actually executed.
    pub metrics: Json,
}

impl SweepProfile {
    /// Assemble a profile from the pool timing and the per-worker
    /// tallies; labels and digests are built for the slowest keys only.
    pub(crate) fn assemble(
        pool: &PoolProfile,
        tallies: Vec<WorkerTally>,
        keys: &[RunKey],
        cache: CacheStats,
        metrics: &Snapshot,
    ) -> SweepProfile {
        let mut executed_ns = Histogram::new();
        let mut cached_ns = Histogram::new();
        let mut failed = 0;
        let mut slow: Vec<Slow> = Vec::with_capacity(tallies.len() * TOP_K);
        for t in tallies {
            executed_ns.merge(&t.executed_ns);
            cached_ns.merge(&t.cached_ns);
            failed += t.failed;
            slow.extend(t.top.into_iter().map(|Reverse(s)| s));
        }
        slow.sort_unstable_by(|a, b| b.cmp(a));
        slow.truncate(TOP_K);
        let top = slow
            .into_iter()
            .map(|(wall_ns, Reverse(index), cached, ok)| {
                let key = &keys[index as usize];
                RunProfile {
                    index,
                    label: key.label(),
                    digest: key.digest(),
                    wall_ns,
                    cached,
                    ok,
                }
            })
            .collect();
        SweepProfile {
            jobs: pool.jobs,
            wall_ns: pool.wall_ns,
            keys: keys.len() as u64,
            cached: cached_ns.count(),
            failed,
            executed_ns,
            cached_ns,
            top,
            workers: pool.workers.clone(),
            cache,
            metrics: metrics.to_json(),
        }
    }

    /// The `k` slowest keys (at most [`TOP_K`]), slowest first; ties
    /// break toward spec order so the ranking is deterministic.
    pub fn top_slowest(&self, k: usize) -> &[RunProfile] {
        &self.top[..k.min(self.top.len())]
    }

    /// Worker utilization in `[0, 1]`: busy nanoseconds over sweep
    /// wall-clock.
    pub fn utilization(&self, worker: usize) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.workers
            .get(worker)
            .map_or(0.0, |w| w.busy_ns as f64 / self.wall_ns as f64)
    }

    /// Serialize to the canonical profile JSON (`version` 2). Field
    /// order is fixed, so structure is byte-stable across reruns; the
    /// size depends on [`TOP_K`] and the occupied histogram buckets,
    /// not on the key count.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version", Json::Int(2)),
            ("jobs", Json::Int(self.jobs as i128)),
            ("wall_ns", Json::Int(self.wall_ns as i128)),
            (
                "keys",
                Json::obj(vec![
                    ("total", Json::Int(self.keys as i128)),
                    ("cached", Json::Int(self.cached as i128)),
                    ("failed", Json::Int(self.failed as i128)),
                ]),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::Int(self.cache.hits as i128)),
                    ("misses", Json::Int(self.cache.misses as i128)),
                    ("evictions", Json::Int(self.cache.evictions as i128)),
                    ("corrupt", Json::Int(self.cache.corrupt as i128)),
                    ("quarantined", Json::Int(self.cache.quarantined as i128)),
                ]),
            ),
            (
                "key_wall_ns",
                Json::obj(vec![
                    ("executed", histogram_to_json(&self.executed_ns)),
                    ("cached", histogram_to_json(&self.cached_ns)),
                ]),
            ),
            (
                "top",
                Json::Arr(
                    self.top
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("index", Json::Int(r.index as i128)),
                                ("label", Json::Str(r.label.clone())),
                                ("digest", Json::Str(r.digest.clone())),
                                ("wall_ns", Json::Int(r.wall_ns as i128)),
                                ("cached", Json::Bool(r.cached)),
                                ("ok", Json::Bool(r.ok)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "workers",
                Json::Arr(
                    self.workers
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("busy_ns", Json::Int(w.busy_ns as i128)),
                                ("items", Json::Int(w.items as i128)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", self.metrics.clone()),
        ])
    }

    /// Parse a profile back from [`SweepProfile::to_json`] output.
    /// Anything else — another version, a missing or mistyped field,
    /// or counts that contradict each other — is an `Err`, never a
    /// panic.
    pub fn from_json(v: &Json) -> Result<SweepProfile, String> {
        let int = |obj: &Json, k: &str| -> Result<u64, String> {
            obj.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("profile JSON missing integer `{k}`"))
        };
        let field = |obj: &Json, k: &str| -> Result<Json, String> {
            obj.get(k)
                .cloned()
                .ok_or_else(|| format!("profile JSON missing `{k}`"))
        };
        match v.get("version").and_then(Json::as_int) {
            Some(2) => {}
            other => return Err(format!("unsupported profile version {other:?}")),
        }
        let keys_v = field(v, "keys")?;
        let cache_v = field(v, "cache")?;
        let hists = field(v, "key_wall_ns")?;
        let top = v
            .get("top")
            .and_then(Json::as_arr)
            .ok_or("profile JSON missing `top`")?
            .iter()
            .map(|r| {
                Ok(RunProfile {
                    index: int(r, "index")?,
                    label: r
                        .get("label")
                        .and_then(Json::as_str)
                        .ok_or("top entry missing `label`")?
                        .to_string(),
                    digest: r
                        .get("digest")
                        .and_then(Json::as_str)
                        .ok_or("top entry missing `digest`")?
                        .to_string(),
                    wall_ns: int(r, "wall_ns")?,
                    cached: r
                        .get("cached")
                        .and_then(Json::as_bool)
                        .ok_or("top entry missing `cached`")?,
                    ok: r
                        .get("ok")
                        .and_then(Json::as_bool)
                        .ok_or("top entry missing `ok`")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let workers = v
            .get("workers")
            .and_then(Json::as_arr)
            .ok_or("profile JSON missing `workers`")?
            .iter()
            .map(|w| {
                Ok(WorkerSpan {
                    busy_ns: int(w, "busy_ns")?,
                    items: int(w, "items")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let profile = SweepProfile {
            jobs: int(v, "jobs")? as usize,
            wall_ns: int(v, "wall_ns")?,
            keys: int(&keys_v, "total")?,
            cached: int(&keys_v, "cached")?,
            failed: int(&keys_v, "failed")?,
            executed_ns: bounded_histogram(&field(&hists, "executed")?)?,
            cached_ns: bounded_histogram(&field(&hists, "cached")?)?,
            top,
            workers,
            cache: CacheStats {
                hits: int(&cache_v, "hits")?,
                misses: int(&cache_v, "misses")?,
                evictions: int(&cache_v, "evictions")?,
                corrupt: int(&cache_v, "corrupt")?,
                quarantined: int(&cache_v, "quarantined")?,
            },
            metrics: field(v, "metrics")?,
        };
        profile.check()?;
        Ok(profile)
    }

    /// The invariants every assembled profile satisfies.
    fn check(&self) -> Result<(), String> {
        let timed = self.executed_ns.count().checked_add(self.cached_ns.count());
        if timed != Some(self.keys) || self.cached != self.cached_ns.count() {
            return Err("profile key counts disagree with the wall-clock histograms".into());
        }
        if self.failed > self.keys {
            return Err("profile has more failed keys than keys".into());
        }
        let items = self
            .workers
            .iter()
            .try_fold(0u64, |acc, w| acc.checked_add(w.items));
        if self.workers.len() != self.jobs || items != Some(self.keys) {
            return Err("profile worker table disagrees with `jobs` or the key count".into());
        }
        if self.top.len() as u64 != self.keys.min(TOP_K as u64) {
            return Err(format!(
                "profile lists {} slowest keys, expected min({TOP_K}, keys)",
                self.top.len()
            ));
        }
        let rank = |r: &RunProfile| (Reverse(r.wall_ns), r.index);
        if self.top.iter().any(|r| r.index >= self.keys)
            || self.top.windows(2).any(|w| rank(&w[0]) >= rank(&w[1]))
        {
            return Err("profile slowest keys are out of range or out of order".into());
        }
        Ok(())
    }

    /// Human-readable report: sweep summary, key wall-clock quantiles,
    /// the `top` slowest keys (clamped to [`TOP_K`]), and per-worker
    /// utilization bars. Row *ordering* is deterministic; the timing
    /// columns are what vary between runs.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "self-profile: {} runs, jobs={}, wall {}, cache {} hits / {} misses\n",
            self.keys,
            self.jobs,
            fmt_ns(self.wall_ns),
            self.cache.hits,
            self.cache.misses,
        ));
        for (what, h) in [("executed", &self.executed_ns), ("cached", &self.cached_ns)] {
            if let (Some(p50), Some(p99), Some(max)) = (h.quantile(0.5), h.quantile(0.99), h.max())
            {
                out.push_str(&format!(
                    "  {what:<8} {:>7} keys: p50 {}, p99 {}, max {}\n",
                    h.count(),
                    fmt_ns(p50),
                    fmt_ns(p99),
                    fmt_ns(max),
                ));
            }
        }
        if self.failed > 0 {
            out.push_str(&format!("  failed   {:>7} keys\n", self.failed));
        }
        let slowest = self.top_slowest(top);
        if !slowest.is_empty() {
            out.push_str(&format!("top {} slowest keys:\n", slowest.len()));
            for r in slowest {
                out.push_str(&format!(
                    "  {:>10}  {}{}\n",
                    fmt_ns(r.wall_ns),
                    r.label,
                    if r.cached { "  [cached]" } else { "" },
                ));
            }
        }
        if !self.workers.is_empty() {
            out.push_str("worker utilization:\n");
            for (w, span) in self.workers.iter().enumerate() {
                let u = self.utilization(w);
                let bars = (u * 20.0).round().clamp(0.0, 20.0) as usize;
                out.push_str(&format!(
                    "  w{w}: [{:<20}] {:>5.1}%  {} runs, {} busy\n",
                    "#".repeat(bars),
                    100.0 * u,
                    span.items,
                    fmt_ns(span.busy_ns),
                ));
            }
        }
        out
    }
}

/// [`histogram_from_json`], refusing bucket counts that disagree with
/// `count` before replaying them, so a mangled count cannot make the
/// replay loop run for long.
fn bounded_histogram(v: &Json) -> Result<Histogram, String> {
    let count = v
        .get("count")
        .and_then(Json::as_u64)
        .ok_or("histogram JSON missing integer `count`")?;
    let buckets = v
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or("histogram JSON missing `buckets`")?;
    let total = buckets.iter().try_fold(0u64, |acc, b| {
        let c = b.as_arr().and_then(|t| t.get(2)).and_then(Json::as_u64)?;
        acc.checked_add(c)
    });
    if total != Some(count) {
        return Err("histogram bucket counts disagree with `count`".into());
    }
    histogram_from_json(v)
}

/// Render nanoseconds at a human scale (`1.234s`, `56.7ms`, `890us`,
/// `767ns`).
fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else if ns >= 1_000 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A profile of two keys built the way a sweep builds one.
    fn sample() -> SweepProfile {
        let keys: Vec<RunKey> = [4, 8]
            .into_iter()
            .map(|p| RunKey::model("nbody", 1000, p, psse_core::machines::jaketown()))
            .collect();
        let mut w0 = WorkerTally::default();
        let mut w1 = WorkerTally::default();
        w0.observe(0, 7_000_000, false, true);
        w1.observe(1, 9_000_000, true, true);
        let pool = PoolProfile {
            jobs: 2,
            wall_ns: 10_000_000,
            workers: vec![
                WorkerSpan {
                    busy_ns: 7_000_000,
                    items: 1,
                },
                WorkerSpan {
                    busy_ns: 9_000_000,
                    items: 1,
                },
            ],
        };
        let cache = CacheStats {
            hits: 1,
            misses: 1,
            evictions: 0,
            corrupt: 0,
            quarantined: 0,
        };
        let reg = psse_metrics::Registry::new();
        reg.histogram("virt.time_ns").unwrap().record(5);
        SweepProfile::assemble(&pool, vec![w0, w1], &keys, cache, &reg.snapshot())
    }

    #[test]
    fn json_round_trips() {
        let p = sample();
        let text = p.to_json().to_string();
        let back = SweepProfile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn top_slowest_is_deterministic() {
        let p = sample();
        assert_eq!(p.top.len(), 2);
        assert_eq!(p.top_slowest(1)[0].index, 1);
        assert_eq!(p.top_slowest(1)[0].label, "model:nbody n=1000 p=8 c=1");
        let order: Vec<u64> = p.top_slowest(10).iter().map(|r| r.index).collect();
        assert_eq!(order, [1, 0]);
        // Equal times fall back to spec order, whichever worker saw
        // which key; only the TOP_K slowest survive the merge.
        let keys: Vec<RunKey> = (1..=100)
            .map(|p| RunKey::model("nbody", 1000, p, psse_core::machines::jaketown()))
            .collect();
        let mut tallies: Vec<WorkerTally> = (0..3).map(|_| WorkerTally::default()).collect();
        for i in (0..keys.len()).rev() {
            let wall = if i % 2 == 0 { 50 } else { i as u64 % 7 };
            tallies[i % 3].observe(i, wall, false, true);
        }
        let pool = PoolProfile {
            jobs: 3,
            ..PoolProfile::default()
        };
        let q = SweepProfile::assemble(
            &pool,
            tallies,
            &keys,
            p.cache,
            &psse_metrics::Registry::new().snapshot(),
        );
        let order: Vec<u64> = q.top.iter().map(|r| r.index).collect();
        let expect: Vec<u64> = (0..TOP_K as u64).map(|i| 2 * i).collect();
        assert_eq!(order, expect);
        assert_eq!(q.executed_ns.count(), 100);
    }

    #[test]
    fn render_names_every_section() {
        let text = sample().render(5);
        assert!(text.contains("self-profile: 2 runs, jobs=2"), "{text}");
        assert!(text.contains("executed       1 keys: p50"), "{text}");
        assert!(text.contains("cached         1 keys: p50"), "{text}");
        assert!(text.contains("top 2 slowest keys:"), "{text}");
        assert!(
            text.contains("model:nbody n=1000 p=8 c=1  [cached]"),
            "{text}"
        );
        assert!(text.contains("worker utilization:"), "{text}");
        assert!(text.contains("w0:"), "{text}");
        // 9ms / 10ms = 90% for worker 1.
        assert!(text.contains("90.0%"), "{text}");
    }

    #[test]
    fn render_clamps_top_to_top_k() {
        let mut p = sample();
        let first = p.top[0].clone();
        p.top = (0..TOP_K as u64)
            .map(|i| RunProfile {
                index: i,
                ..first.clone()
            })
            .collect();
        let text = p.render(usize::MAX);
        assert!(
            text.contains(&format!("top {TOP_K} slowest keys:")),
            "{text}"
        );
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(SweepProfile::from_json(&Json::parse("{}").unwrap()).is_err());
        let bad = "{\"version\":2,\"jobs\":1}";
        assert!(SweepProfile::from_json(&Json::parse(bad).unwrap()).is_err());
        // Counts that contradict the histograms are refused.
        let mut p = sample();
        p.keys += 1;
        assert!(SweepProfile::from_json(&p.to_json()).is_err());
        let mut p = sample();
        p.top.swap(0, 1);
        assert!(SweepProfile::from_json(&p.to_json()).is_err());
    }

    #[test]
    fn utilization_is_bounded() {
        let p = sample();
        assert!((p.utilization(0) - 0.7).abs() < 1e-9);
        assert_eq!(p.utilization(99), 0.0);
        let empty = SweepProfile {
            wall_ns: 0,
            ..sample()
        };
        assert_eq!(empty.utilization(0), 0.0);
    }
}
