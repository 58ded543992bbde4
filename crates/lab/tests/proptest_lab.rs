//! Property-based tests: the fast Pareto extractor against the naive
//! O(n²) dominance reference (and permutation invariance), RunKey
//! digest injectivity over generated grids, and the self-profile's
//! JSON round-trip and its refusal of anything that is not a v2
//! profile.

use std::cmp::Reverse;

use proptest::prelude::*;
use psse_core::machines::jaketown;
use psse_faults::rng::SplitMix64;
use psse_lab::pool::WorkerSpan;
use psse_lab::prelude::*;
use psse_lab::selfprof::TOP_K;
use psse_metrics::{Histogram, Json, Registry};

/// Quantized coordinates: small integer lattices force plenty of exact
/// ties and duplicates, the hard cases for dominance logic.
fn to_points(raw: &[(u64, u64)]) -> Vec<(f64, f64)> {
    raw.iter()
        .map(|&(t, e)| (t as f64 / 4.0, e as f64 / 4.0))
        .collect()
}

/// Deterministic Fisher-Yates driven by the workspace splitmix64.
fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut rng = SplitMix64::new(seed);
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// A consistent v2 profile of keys with the given `(wall_ns, cached,
/// ok)` samples, dealt round-robin to `jobs` workers — the shape a
/// sweep assembles, built from the public fields.
fn profile_of(
    jobs: usize,
    wall_ns: u64,
    samples: &[(u64, bool, bool)],
    cache: CacheStats,
    metrics: Json,
) -> SweepProfile {
    let (mut executed_ns, mut cached_ns) = (Histogram::new(), Histogram::new());
    let mut workers = vec![WorkerSpan::default(); jobs];
    for (i, &(wall, cached, _)) in samples.iter().enumerate() {
        if cached {
            cached_ns.record(wall);
        } else {
            executed_ns.record(wall);
        }
        let w = &mut workers[i % jobs];
        w.busy_ns = w.busy_ns.saturating_add(wall);
        w.items += 1;
    }
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by_key(|&i| (Reverse(samples[i].0), i));
    order.truncate(TOP_K);
    SweepProfile {
        jobs,
        wall_ns,
        keys: samples.len() as u64,
        cached: cached_ns.count(),
        failed: samples.iter().filter(|s| !s.2).count() as u64,
        executed_ns,
        cached_ns,
        top: order
            .into_iter()
            .map(|i| RunProfile {
                index: i as u64,
                label: format!("model nbody n={i} p=4"),
                digest: format!("{i:032x}"),
                wall_ns: samples[i].0,
                cached: samples[i].1,
                ok: samples[i].2,
            })
            .collect(),
        workers,
        cache,
        metrics,
    }
}

/// Multiset of surviving points (bit-exact), independent of indices.
fn frontier_points(pts: &[(f64, f64)]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = pareto_indices(pts)
        .into_iter()
        .map(|i| (pts[i].0.to_bits(), pts[i].1.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The O(n log n) extractor agrees with the O(n²) reference.
    #[test]
    fn pareto_matches_naive_reference(raw in prop::collection::vec((0u64..32, 0u64..32), 0..80)) {
        let pts = to_points(&raw);
        prop_assert_eq!(pareto_indices(&pts), pareto_indices_naive(&pts));
    }

    /// The frontier (as a multiset of points) is invariant under any
    /// permutation of the input.
    #[test]
    fn pareto_is_permutation_invariant(
        raw in prop::collection::vec((0u64..32, 0u64..32), 1..60),
        seed in 0u64..10_000,
    ) {
        let pts = to_points(&raw);
        let perm = shuffled(&pts, seed);
        prop_assert_eq!(frontier_points(&pts), frontier_points(&perm));
    }

    /// Digests are injective across a generated (alg, n, p, c, mem, kind)
    /// grid: every distinct key gets a distinct digest.
    #[test]
    fn digests_are_injective_across_a_grid(
        nn in 1usize..4, np in 1usize..5, nm in 1usize..4, base in 1u64..64,
    ) {
        let machine = jaketown();
        let mut keys = Vec::new();
        for alg in ["nbody", "matmul", "lu"] {
            for ni in 0..nn {
                for pi in 0..np {
                    for mi in 0..nm {
                        for kind in [RunKind::Model, RunKind::Simulate] {
                            let mut k = RunKey::model(
                                alg,
                                base + 100 * ni as u64,
                                1 + pi as u64,
                                machine.clone(),
                            );
                            k.kind = kind;
                            k.mem = mi as f64 * 128.0;
                            keys.push(k);
                        }
                    }
                }
            }
        }
        let digests: std::collections::HashSet<String> =
            keys.iter().map(|k| k.digest()).collect();
        prop_assert_eq!(digests.len(), keys.len(), "digest collision in grid");
    }

    /// Digest stability: the digest is a pure function of the key, so
    /// re-digesting (even after a round trip through clone) never drifts
    /// within or across processes. (The cross-process pin lives in the
    /// crate's unit tests with a hardcoded value.)
    #[test]
    fn digest_is_reproducible(n in 2u64..10_000, p in 1u64..512, mem in 0u64..100_000) {
        let mut k = RunKey::model("cholesky", n, p, jaketown());
        k.mem = mem as f64;
        let d1 = k.digest();
        let d2 = k.clone().digest();
        prop_assert_eq!(&d1, &d2);
        prop_assert_eq!(d1.len(), 32);
        prop_assert!(d1.chars().all(|c| c.is_ascii_hexdigit()));
    }

    /// The self-profile survives JSON emit → parse exactly, for any
    /// shape of key samples, worker table, cache counters and attached
    /// metric series.
    #[test]
    fn sweep_profile_round_trips_through_json(
        jobs in 1usize..17,
        wall in any::<u64>(),
        samples in prop::collection::vec((any::<u64>(), any::<bool>(), any::<bool>()), 0..80),
        cache_raw in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        metric_vals in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let reg = Registry::new();
        let h = reg.histogram("virt.time_ns").unwrap();
        for &v in &metric_vals {
            h.record(v);
        }
        reg.counter("virt.retries").unwrap().add(metric_vals.len() as u64);
        let cache = CacheStats {
            hits: cache_raw.0,
            misses: cache_raw.1,
            evictions: cache_raw.2,
            corrupt: cache_raw.3,
            quarantined: cache_raw.4,
        };
        let profile = profile_of(jobs, wall, &samples, cache, reg.snapshot().to_json());
        let text = profile.to_json().to_string();
        let back = SweepProfile::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back, &profile);
        // Emission is canonical: re-serializing reproduces the bytes.
        prop_assert_eq!(back.to_json().to_string(), text);
    }

    /// `from_json` refuses — with an `Err`, never a panic — a v1
    /// profile, any truncation, and a bumped key count; any single-byte
    /// mutation either fails or parses to a profile that re-emits
    /// canonically.
    #[test]
    fn sweep_profile_from_json_rejects_v1_truncated_and_mutated(
        jobs in 1usize..5,
        samples in prop::collection::vec((0u64..1_000_000, any::<bool>(), any::<bool>()), 1..60),
        cut in 0.0f64..1.0,
        at in 0.0f64..1.0,
        byte in any::<u8>(),
    ) {
        let empty = Registry::new().snapshot().to_json();
        let profile = profile_of(jobs, 1_000_000, &samples, CacheStats::default(), empty);
        let text = profile.to_json().to_string();
        let parse = |t: &str| Json::parse(t).map_err(|e| e.to_string())
            .and_then(|v| SweepProfile::from_json(&v));

        // The per-run v1 schema and a relabelled v2 are both refused.
        let v1 = format!(
            "{{\"version\":1,\"jobs\":{jobs},\"wall_ns\":5,\"cache\":{{\"hits\":0,\
             \"misses\":1,\"evictions\":0,\"corrupt\":0,\"quarantined\":0}},\
             \"runs\":[{{\"label\":\"a\",\"digest\":\"b\",\"wall_ns\":5,\
             \"cached\":false,\"ok\":true}}],\"workers\":[],\"metrics\":{{}}}}"
        );
        prop_assert!(Json::parse(&v1).is_ok());
        prop_assert!(parse(&v1).is_err());
        prop_assert!(parse(&text.replacen("\"version\":2", "\"version\":1", 1)).is_err());

        // Every proper prefix is refused.
        let cut_at = ((text.len() as f64) * cut) as usize;
        prop_assert!(parse(&text[..cut_at.min(text.len() - 1)]).is_err());

        // A key count that disagrees with the histograms is refused.
        let total = format!("\"total\":{}", samples.len());
        let bumped = text.replacen(&total, &format!("\"total\":{}", samples.len() + 1), 1);
        prop_assert!(parse(&bumped).is_err());

        // Arbitrary byte damage never panics; what still parses is a
        // consistent profile.
        let mut damaged = text.clone().into_bytes();
        let pos = ((damaged.len() as f64) * at) as usize;
        damaged[pos.min(text.len() - 1)] = byte;
        if let Ok(t) = std::str::from_utf8(&damaged) {
            if let Ok(p) = parse(t) {
                prop_assert_eq!(
                    SweepProfile::from_json(&p.to_json()).map(|q| q == p),
                    Ok(true)
                );
            }
        }
    }

    /// Kill-resume identity: truncate the journal at *any* byte offset
    /// — mid-header, mid-line, between lines — then resume, and the
    /// final results and CSV bytes must match an uninterrupted sweep,
    /// for any worker count.
    #[test]
    fn journal_resume_is_identical_for_any_cut(cut in 0.0f64..1.0, jobs in 1usize..5) {
        let spec = SweepSpec::parse(
            "kind = model\nalg = nbody\nn = 10000\np = geom:6:100:8\nmem = 2000\nf = 10\n",
        )
        .unwrap();
        let keys = spec.expand();
        let sd = spec_digest(&keys);
        let path = std::env::temp_dir().join(format!(
            "psse-lab-cutpt-{}-{}-{:016x}",
            std::process::id(),
            jobs,
            cut.to_bits(),
        ));
        let _ = std::fs::remove_file(&path);

        let cfg = || LabConfig { jobs, ..LabConfig::default() };
        let reference = Lab::new(cfg()).run_spec(&spec);
        let ref_csv = sweep_csv(&reference.keys, &reference.results);

        // Journal a full sweep, then "kill" it at an arbitrary byte.
        let mut lab = Lab::new(cfg());
        lab.set_journal(Journal::create(&path, &sd).unwrap());
        let first = lab.run_spec(&spec);
        prop_assert_eq!(&first.results, &reference.results);
        drop(lab);
        let bytes = std::fs::read(&path).unwrap();
        let cut_at = ((bytes.len() as f64) * cut) as usize;
        std::fs::write(&path, &bytes[..cut_at.min(bytes.len())]).unwrap();

        // Resume: torn tails are truncated, torn headers start fresh.
        let (journal, replayed) = Journal::open_resume(&path, &sd).unwrap();
        let mut lab2 = Lab::new(cfg());
        lab2.seed(&replayed);
        lab2.set_journal(journal);
        let resumed = lab2.run_spec(&spec);
        prop_assert_eq!(&resumed.results, &reference.results);
        let resumed_csv = sweep_csv(&resumed.keys, &resumed.results);
        prop_assert_eq!(resumed_csv, ref_csv);

        // The journal is whole again: a second resume replays every
        // distinct key without re-running anything.
        let distinct: std::collections::HashSet<String> =
            keys.iter().map(|k| k.digest()).collect();
        let (_, replayed2) = Journal::open_resume(&path, &sd).unwrap();
        prop_assert_eq!(replayed2.len(), distinct.len());
        let _ = std::fs::remove_file(&path);
    }
}
