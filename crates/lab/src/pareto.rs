//! Analysis layer: (time, energy) Pareto frontiers and detection of the
//! perfect-strong-scaling range from swept runs.
//!
//! The frontier is the set of runs not dominated in the `(T, E)` plane —
//! run `a` dominates `b` when `a` is no worse in both coordinates and
//! strictly better in at least one. Exact duplicates of a frontier point
//! do not dominate each other and are all kept, so the result is
//! invariant under permutation of the input (as a multiset of points).
//!
//! The perfect-strong-scaling detector operationalizes the paper's
//! headline claim: at fixed `n` and fixed memory per processor, there is
//! a `p`-range in which `T ∝ 1/p` while `E` stays flat. We scan a swept
//! `p`-ladder for the longest contiguous chain where `p·T` and `E` are
//! constant within a relative tolerance; callers cross-check the result
//! against the closed-form [`ScalingRange`](psse_core::bounds::ScalingRange).
//! [`scaling_groups`] cuts a sweep into the fixed-`(n, c, M)` sample
//! ladders the detector reads.

use std::collections::HashMap;

use crate::key::RunKey;
use crate::result::RunResult;

/// Indices of Pareto-optimal points (minimizing both coordinates),
/// ascending. Non-finite points never make the frontier.
///
/// `O(n log n)`: sort by `(t, e)`, then sweep keeping the running
/// minimum energy. Verified against [`pareto_indices_naive`] by
/// proptest.
pub fn pareto_indices(points: &[(f64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].0.is_finite() && points[i].1.is_finite())
        .collect();
    order.sort_by(|&a, &b| {
        points[a]
            .partial_cmp(&points[b])
            .expect("finite points compare")
            .then(a.cmp(&b))
    });
    let mut out = Vec::new();
    let mut best_e = f64::INFINITY;
    let mut i = 0;
    while i < order.len() {
        let t = points[order[i]].0;
        // Entries sharing this t, sorted by e: only the lowest-e group
        // can survive, and only if it beats every earlier (smaller) t.
        let e = points[order[i]].1;
        let mut j = i;
        while j < order.len() && points[order[j]].0 == t {
            j += 1;
        }
        if e < best_e {
            for &k in &order[i..j] {
                if points[k].1 == e {
                    out.push(k);
                }
            }
            best_e = e;
        }
        i = j;
    }
    out.sort_unstable();
    out
}

/// Reference `O(n²)` dominance check, used by proptests to validate
/// [`pareto_indices`].
pub fn pareto_indices_naive(points: &[(f64, f64)]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            let (t, e) = points[i];
            if !(t.is_finite() && e.is_finite()) {
                return false;
            }
            !points.iter().any(|&(t2, e2)| {
                t2.is_finite() && e2.is_finite() && t2 <= t && e2 <= e && (t2 < t || e2 < e)
            })
        })
        .collect()
}

/// A detected perfect-strong-scaling range `[p_min, p_max]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectedRange {
    /// Smallest processor count in the detected chain.
    pub p_min: u64,
    /// Largest processor count in the detected chain.
    pub p_max: u64,
}

/// Detect the longest contiguous `p`-chain where `p·T` is constant
/// (`T ∝ 1/p`) and `E` is flat, both within relative tolerance
/// `rel_tol`. Input: `(p, time, energy)` samples at fixed `(n, M)`,
/// in ascending `p` order (infeasible points must already be filtered
/// out). `None` when fewer than two samples chain up.
pub fn detect_scaling_range(samples: &[(u64, f64, f64)], rel_tol: f64) -> Option<DetectedRange> {
    if samples.len() < 2 {
        return None;
    }
    let close = |a: f64, b: f64| (a / b - 1.0).abs() <= rel_tol;
    let mut best: Option<(usize, usize)> = None; // [start, end] inclusive
    let mut start = 0;
    for i in 1..=samples.len() {
        let chained = i < samples.len() && {
            let (p0, t0, e0) = samples[i - 1];
            let (p1, t1, e1) = samples[i];
            close(p1 as f64 * t1, p0 as f64 * t0) && close(e1, e0)
        };
        if !chained {
            if i - 1 > start && best.is_none_or(|(s, e)| i - 1 - start > e - s) {
                best = Some((start, i - 1));
            }
            start = i;
        }
    }
    best.map(|(s, e)| DetectedRange {
        p_min: samples[s].0,
        p_max: samples[e].0,
    })
}

/// The feasible samples of a sweep at one `(n, c, M)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingGroup {
    /// Problem size.
    pub n: u64,
    /// Replication factor.
    pub c: u64,
    /// Memory per processor (`0` = minimal, as in the key).
    pub mem: f64,
    /// `(p, time, energy)` of the feasible successful runs, ascending
    /// in `p`; of several runs at one `p` the first in key order is
    /// kept. Ready for [`detect_scaling_range`].
    pub samples: Vec<(u64, f64, f64)>,
}

/// Group a sweep by `(n, c, M)` (with `M` compared by its bits) in one
/// pass over `(key, result)`. Groups come in first-appearance order of
/// their keys, including groups with no feasible sample.
pub fn scaling_groups(keys: &[RunKey], results: &[Result<RunResult, String>]) -> Vec<ScalingGroup> {
    let mut index: HashMap<(u64, u64, u64), usize> = HashMap::new();
    let mut groups: Vec<ScalingGroup> = Vec::new();
    for (k, r) in keys.iter().zip(results) {
        let g = *index.entry((k.n, k.c, k.mem.to_bits())).or_insert_with(|| {
            groups.push(ScalingGroup {
                n: k.n,
                c: k.c,
                mem: k.mem,
                samples: Vec::new(),
            });
            groups.len() - 1
        });
        if let Ok(r) = r {
            if r.feasible {
                groups[g].samples.push((k.p, r.time, r.energy));
            }
        }
    }
    for g in &mut groups {
        // Stable sort: the first run at each p survives the dedup.
        g.samples.sort_by_key(|&(p, _, _)| p);
        g.samples.dedup_by_key(|&mut (p, _, _)| p);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_basics() {
        //  (1, 5) and (3, 2) are optimal; (3, 5) dominated by both;
        //  (2, 7) dominated by (1, 5).
        let pts = [(1.0, 5.0), (3.0, 2.0), (3.0, 5.0), (2.0, 7.0)];
        assert_eq!(pareto_indices(&pts), vec![0, 1]);
        assert_eq!(pareto_indices_naive(&pts), vec![0, 1]);
    }

    #[test]
    fn exact_duplicates_all_survive() {
        let pts = [(1.0, 1.0), (1.0, 1.0), (2.0, 0.5)];
        assert_eq!(pareto_indices(&pts), vec![0, 1, 2]);
        assert_eq!(pareto_indices_naive(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn equal_energy_larger_time_is_dominated() {
        let pts = [(1.0, 1.0), (2.0, 1.0)];
        assert_eq!(pareto_indices(&pts), vec![0]);
        assert_eq!(pareto_indices_naive(&pts), vec![0]);
    }

    #[test]
    fn non_finite_points_never_make_the_frontier() {
        let pts = [(f64::NAN, 0.0), (1.0, f64::INFINITY), (2.0, 2.0)];
        assert_eq!(pareto_indices(&pts), vec![2]);
        assert_eq!(pareto_indices_naive(&pts), vec![2]);
    }

    #[test]
    fn empty_and_single() {
        assert!(pareto_indices(&[]).is_empty());
        assert_eq!(pareto_indices(&[(1.0, 1.0)]), vec![0]);
    }

    #[test]
    fn detects_ideal_scaling_chain() {
        // T = 100/p, E = 7 for p in 4..=32; then the latency floor kicks
        // in and T stops improving.
        let mut samples: Vec<(u64, f64, f64)> = (2..=5)
            .map(|k| {
                let p = 1u64 << k;
                (p, 100.0 / p as f64, 7.0)
            })
            .collect();
        samples.push((64, 100.0 / 32.0, 7.0)); // p doubled, T flat: breaks
        let r = detect_scaling_range(&samples, 1e-9).unwrap();
        assert_eq!(
            r,
            DetectedRange {
                p_min: 4,
                p_max: 32
            }
        );
    }

    #[test]
    fn no_chain_means_none() {
        assert!(detect_scaling_range(&[], 1e-9).is_none());
        assert!(detect_scaling_range(&[(4, 1.0, 1.0)], 1e-9).is_none());
        // Energy rises every step: nothing chains.
        let samples = [(2u64, 8.0, 1.0), (4, 4.0, 2.0), (8, 2.0, 4.0)];
        assert!(detect_scaling_range(&samples, 1e-3).is_none());
    }

    #[test]
    fn longest_chain_wins() {
        let samples = [
            (2u64, 8.0, 1.0),
            (4, 4.0, 1.0),  // chains with p=2
            (8, 3.0, 1.0),  // breaks (T not halved)
            (16, 1.5, 1.0), // chains
            (32, 0.75, 1.0),
            (64, 0.375, 1.0),
        ];
        let r = detect_scaling_range(&samples, 1e-9).unwrap();
        assert_eq!(
            r,
            DetectedRange {
                p_min: 8,
                p_max: 64
            }
        );
    }

    /// Reference grouping by the plain per-group filter: collect the
    /// groups, then rescan every key for each one (O(groups · keys)).
    fn scaling_groups_by_rescan(
        keys: &[RunKey],
        results: &[Result<RunResult, String>],
    ) -> Vec<ScalingGroup> {
        let mut groups: Vec<(u64, u64, u64)> = Vec::new();
        for k in keys {
            let g = (k.n, k.c, k.mem.to_bits());
            if !groups.contains(&g) {
                groups.push(g);
            }
        }
        groups
            .into_iter()
            .map(|(n, c, mem)| {
                let mut samples: Vec<(u64, f64, f64)> = keys
                    .iter()
                    .zip(results)
                    .filter(|(k, _)| k.n == n && k.c == c && k.mem.to_bits() == mem)
                    .filter_map(|(k, r)| {
                        let r = r.as_ref().ok()?;
                        r.feasible.then_some((k.p, r.time, r.energy))
                    })
                    .collect();
                samples.sort_by_key(|&(p, _, _)| p);
                samples.dedup_by_key(|&mut (p, _, _)| p);
                ScalingGroup {
                    n,
                    c,
                    mem: f64::from_bits(mem),
                    samples,
                }
            })
            .collect()
    }

    #[test]
    fn one_pass_groups_match_the_per_group_rescan() {
        use psse_core::machines::jaketown;
        // Keys in a scrambled order over two n, two c and three M
        // (0.0 and -0.0 differ by bits), with repeated p, failures and
        // infeasible runs; times differ per key so a wrong pick shows.
        let mut keys = Vec::new();
        let mut results = Vec::new();
        for i in 0..240u64 {
            let mut k = RunKey::model("nbody", [1000, 2000][(i % 2) as usize], 0, jaketown());
            k.c = 1 + (i / 2) % 2;
            k.mem = [0.0, -0.0, 5e3][((i * 7) % 3) as usize];
            k.p = 1 + (i * 37) % 17;
            let t = 1.0 + i as f64;
            results.push(match i % 5 {
                0 => Err(format!("failed {i}")),
                1 => Ok(RunResult::model(false, t, t, 1.0)),
                _ => Ok(RunResult::model(true, t, 2.0 * t, 1.0)),
            });
            keys.push(k);
        }
        let got = scaling_groups(&keys, &results);
        assert_eq!(got, scaling_groups_by_rescan(&keys, &results));
        assert_eq!(got.len(), 12);
        assert!(got.iter().all(|g| !g.samples.is_empty()));
        assert!(scaling_groups(&[], &[]).is_empty());
    }
}
