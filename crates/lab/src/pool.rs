//! Fixed-size worker pool with order-preserving reassembly.
//!
//! Workers pull indices from a shared atomic counter — the classic
//! self-scheduling loop — and write each result into its slot of a
//! pre-sized output vector. The output is therefore in *input* order
//! regardless of which worker finished when, which is what makes lab
//! CSVs byte-identical for any `--jobs` value.
//!
//! Panic containment: a panic inside `f` is caught per item, the worker
//! moves on, and every remaining item still runs. The first panic (by
//! *input* index, so deterministically — not by wall-clock) is re-raised
//! after reassembly. Callers that want a panic to become per-item data
//! instead (the lab does) wrap their own `catch_unwind` inside `f`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use psse_metrics::saturating_nanos;

/// Resolve the worker count: an explicit `jobs >= 1` wins; `0` defers to
/// the `PSSE_LAB_JOBS` environment variable, then to the machine's
/// available parallelism, then to 1.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs >= 1 {
        return jobs;
    }
    if let Ok(v) = std::env::var("PSSE_LAB_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` using `jobs` worker threads, returning results
/// in input order. `f` receives `(index, &item)`. With `jobs <= 1` the
/// loop runs inline on the caller's thread (no pool overhead).
///
/// A panicking item does not poison the pool: every other item still
/// runs, and the lowest-index panic is re-raised once reassembly is
/// complete (see the module docs).
pub fn run_ordered<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    run_ordered_observed(jobs, items, f, |_: &mut (), _, _, _| {}).0
}

/// One worker's accounting over a [`run_ordered_observed`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSpan {
    /// Nanoseconds spent inside `f` (busy; the rest of the pool's wall
    /// clock was idle or contended).
    pub busy_ns: u64,
    /// Items this worker completed.
    pub items: u64,
}

/// Host-side timing of one pool invocation: the wall-clock of the
/// whole call and per-worker busy spans. The *structure* — worker
/// count — is deterministic; only the nanosecond values vary between
/// runs. Per-item timing goes to the caller's observer instead (see
/// [`run_ordered_observed`]), so the profile is O(jobs), not O(items).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolProfile {
    /// Worker threads actually used (after clamping to the item count).
    pub jobs: usize,
    /// Wall-clock of the whole map call, nanoseconds.
    pub wall_ns: u64,
    /// Per-worker busy time and item counts, indexed by worker id.
    pub workers: Vec<WorkerSpan>,
}

impl PoolProfile {
    /// Fraction of `jobs · wall_ns` spent busy, in `[0, 1]`. This is
    /// the number the self-profile report prints per worker: low
    /// utilization on a sweep means the tail of slow keys serialized.
    pub fn utilization(&self, worker: usize) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.workers
            .get(worker)
            .map_or(0.0, |w| w.busy_ns as f64 / self.wall_ns as f64)
    }
}

/// [`run_ordered`] plus host-side timing and a per-worker observer:
/// returns the results in input order, a [`PoolProfile`] of where the
/// wall-clock went, and one `S` per worker. Each worker starts from
/// `S::default()` and calls `observe(&mut s, index, wall_ns, &result)`
/// after every item it completes, on its own thread and without locks;
/// the states come back in worker-index order for the caller to merge.
/// A panicking item is not observed.
pub fn run_ordered_observed<I, T, S, F, O>(
    jobs: usize,
    items: &[I],
    f: F,
    observe: O,
) -> (Vec<T>, PoolProfile, Vec<S>)
where
    I: Sync,
    T: Send,
    S: Default + Send,
    F: Fn(usize, &I) -> T + Sync,
    O: Fn(&mut S, usize, u64, &T) + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    let started = Instant::now();
    if jobs <= 1 {
        // Inline path: same containment contract as the pool — finish
        // every item, then re-raise the first panic.
        let mut state = S::default();
        let mut busy = 0u64;
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut out: Vec<T> = Vec::with_capacity(items.len());
        for (i, it) in items.iter().enumerate() {
            let t0 = Instant::now();
            match catch_unwind(AssertUnwindSafe(|| f(i, it))) {
                Ok(r) => {
                    let ns = saturating_nanos(t0.elapsed().as_secs_f64());
                    busy = busy.saturating_add(ns);
                    observe(&mut state, i, ns, &r);
                    out.push(r);
                }
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        let profile = PoolProfile {
            jobs: 1,
            wall_ns: saturating_nanos(started.elapsed().as_secs_f64()),
            workers: vec![WorkerSpan {
                busy_ns: busy,
                items: items.len() as u64,
            }],
        };
        return (out, profile, vec![state]);
    }
    let next = AtomicUsize::new(0);
    // A slot holds the item's result or the panic payload `f` raised
    // for it — so one bad item cannot leave any slot unfilled.
    type SlotValue<T> = Result<T, Box<dyn std::any::Any + Send>>;
    let slots: Vec<Mutex<Option<SlotValue<T>>>> =
        (0..items.len()).map(|_| Mutex::new(None)).collect();
    let workers: Vec<(WorkerSpan, S)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                let next = &next;
                let slots = &slots;
                let f = &f;
                let observe = &observe;
                scope.spawn(move || {
                    let mut span = WorkerSpan::default();
                    let mut state = S::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let t0 = Instant::now();
                        let out = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                        let ns = saturating_nanos(t0.elapsed().as_secs_f64());
                        span.busy_ns = span.busy_ns.saturating_add(ns);
                        span.items += 1;
                        if let Ok(r) = &out {
                            observe(&mut state, i, ns, r);
                        }
                        // A peer's panic while holding this lock cannot
                        // happen (each slot has exactly one writer), but
                        // poison tolerance costs nothing and keeps the
                        // reassembly below total.
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                    }
                    (span, state)
                })
            })
            .collect();
        // `f`'s panics are caught per item, so a worker can only panic
        // inside `observe`; re-raise that as is.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for slot in slots {
        let filled = slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("worker pool filled every slot");
        match filled {
            Ok(r) => out.push(r),
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    let (spans, states) = workers.into_iter().unzip();
    let profile = PoolProfile {
        jobs,
        wall_ns: saturating_nanos(started.elapsed().as_secs_f64()),
        workers: spans,
    };
    (out, profile, states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let got = run_ordered(jobs, &items, |_, &x| {
                // Stagger completion so out-of-order finishes actually happen.
                if x % 7 == 0 {
                    std::thread::yield_now();
                }
                x * x
            });
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items = ["a", "b", "c"];
        let got = run_ordered(2, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, ["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u8> = run_ordered(8, &[] as &[u8], |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn resolve_jobs_explicit_wins() {
        assert_eq!(resolve_jobs(3), 3);
        assert!(resolve_jobs(0) >= 1);
    }

    #[test]
    fn panicking_item_does_not_stop_the_others() {
        // One poisoned item out of 32: every other item must still run,
        // and the panic must re-surface deterministically (it is the
        // only one here) after the pool drains.
        use std::sync::atomic::AtomicU64;
        for jobs in [1, 4] {
            let items: Vec<u64> = (0..32).collect();
            let ran = AtomicU64::new(0);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_ordered(jobs, &items, |_, &x| {
                    if x == 5 {
                        panic!("item 5 is cursed");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    x
                })
            }));
            let payload = caught.expect_err("the panic must re-surface");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert!(msg.contains("cursed"), "{msg}");
            assert_eq!(ran.load(Ordering::Relaxed), 31, "jobs={jobs}");
        }
    }

    #[test]
    fn first_panic_by_input_index_wins() {
        // Several items panic; the re-raised payload must be the
        // lowest-index one regardless of which worker hit which first.
        let items: Vec<u64> = (0..64).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_ordered(8, &items, |i, _| {
                if i % 10 == 3 {
                    panic!("panic at index {i}");
                }
                i
            })
        }));
        let payload = caught.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "panic at index 3");
    }

    #[test]
    fn timed_variant_accounts_every_item_and_worker() {
        let items: Vec<u64> = (0..40).collect();
        for jobs in [1, 4] {
            // The observer sees every item exactly once, on the worker
            // that ran it.
            let (got, prof, seen) = run_ordered_observed(
                jobs,
                &items,
                |_, &x| {
                    // A little spin so busy times are nonzero.
                    let mut acc = x;
                    for i in 0..10_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                    }
                    std::hint::black_box(acc);
                    x * 2
                },
                |s: &mut Vec<(usize, u64)>, i, _ns, &r| s.push((i, r)),
            );
            assert_eq!(got, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(prof.jobs, jobs);
            assert_eq!(prof.workers.len(), jobs);
            assert_eq!(seen.len(), jobs);
            // Every item was claimed by exactly one worker.
            let claimed: u64 = prof.workers.iter().map(|w| w.items).sum();
            assert_eq!(claimed, items.len() as u64);
            for (span, s) in prof.workers.iter().zip(&seen) {
                assert_eq!(span.items, s.len() as u64);
            }
            let mut all: Vec<(usize, u64)> = seen.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(
                all,
                items
                    .iter()
                    .map(|&x| (x as usize, x * 2))
                    .collect::<Vec<_>>()
            );
            // Busy time is at most jobs × wall time (and > 0 here).
            let busy: u64 = prof.workers.iter().map(|w| w.busy_ns).sum();
            assert!(busy > 0);
            for w in 0..jobs {
                let u = prof.utilization(w);
                assert!((0.0..=1.5).contains(&u), "utilization {u}");
            }
        }
    }
}
