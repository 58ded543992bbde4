//! Acceptance tests for the batch engine: a ≥200-run spec executes
//! through the worker pool with byte-identical output for any `--jobs`
//! value, and a warm persistent cache answers ≥95% of a rerun.

use psse_lab::prelude::*;

/// 15 × 15 = 225 model runs over the Fig. 4-style (p, M) plane.
const SPEC: &str = "\
kind = model
alg  = nbody
# contrived Fig. 4 machine
machine = jaketown
gamma-t = 1e-9
beta-t  = 2e-8
alpha-t = 1e-6
gamma-e = 1e-9
beta-e  = 4e-6
alpha-e = 1e-4
delta-e = 5e-4
epsilon-e = 0
max-message = 100
mem-words = 1e12
n    = 10000
p    = geom:6:100:15
mem  = geomf:2e2:1e6:15
f    = 10
";

fn lab(jobs: usize, dir: Option<std::path::PathBuf>) -> Lab {
    Lab::new(LabConfig {
        jobs,
        cache_dir: dir,
        ..LabConfig::default()
    })
}

#[test]
fn jobs_1_and_jobs_8_emit_identical_bytes() {
    let spec = SweepSpec::parse(SPEC).unwrap();
    assert!(spec.len() >= 200, "spec covers {} runs", spec.len());

    let s1 = lab(1, None).run_spec(&spec);
    let s8 = lab(8, None).run_spec(&spec);
    assert_eq!(s1.failures(), 0);
    assert_eq!(s8.failures(), 0);

    let csv1 = sweep_csv(&s1.keys, &s1.results);
    let csv8 = sweep_csv(&s8.keys, &s8.results);
    assert_eq!(csv1, csv8, "CSV must be byte-identical for any job count");
    assert_eq!(
        pareto_csv(&s1.keys, &s1.results),
        pareto_csv(&s8.keys, &s8.results)
    );
    // Sanity: the sweep actually covers feasible and infeasible cells.
    let (feasible, infeasible) = s1.feasibility();
    assert!(feasible > 0 && infeasible > 0);
}

#[test]
fn warm_cache_rerun_hits_95_percent_with_identical_bytes() {
    let dir = std::env::temp_dir().join(format!("psse-lab-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec::parse(SPEC).unwrap();

    // Cold run populates the persistent cache.
    let cold = lab(8, Some(dir.clone()));
    let s_cold = cold.run_spec(&spec);
    let csv_cold = sweep_csv(&s_cold.keys, &s_cold.results);
    assert_eq!(s_cold.failures(), 0);

    // Fresh engine, same directory: everything answers from disk.
    let warm = lab(8, Some(dir.clone()));
    let s_warm = warm.run_spec(&spec);
    let csv_warm = sweep_csv(&s_warm.keys, &s_warm.results);

    let stats = warm.cache_stats();
    assert!(
        stats.hit_rate() >= 95.0,
        "warm cache hit rate {:.1}% (hits {}, misses {})",
        stats.hit_rate(),
        stats.hits,
        stats.misses
    );
    assert_eq!(csv_cold, csv_warm, "warm rerun must emit identical bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sabotaged_cache_records_never_alter_csv_bytes() {
    let dir = std::env::temp_dir().join(format!("psse-lab-sab-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec::parse(SPEC).unwrap();

    let cold = lab(4, Some(dir.clone()));
    let s_cold = cold.run_spec(&spec);
    let csv_cold = sweep_csv(&s_cold.keys, &s_cold.results);
    assert_eq!(s_cold.failures(), 0);

    // Sabotage four records four different ways: empty file, truncated
    // line, random garbage, and a valid record copied under the wrong
    // digest filename (content/filename mismatch).
    let mut recs: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rec"))
        .collect();
    recs.sort();
    assert!(recs.len() >= 4, "expected ≥4 records, got {}", recs.len());
    std::fs::write(&recs[0], "").unwrap();
    let half = std::fs::read(&recs[1]).unwrap();
    std::fs::write(&recs[1], &half[..half.len() / 2]).unwrap();
    let stolen = std::fs::read(&recs[2]).unwrap();
    std::fs::write(&recs[2], "not a record at all\n").unwrap();
    std::fs::write(&recs[3], &stolen).unwrap(); // recs[2]'s bytes under recs[3]'s name

    // A fresh engine re-reads the directory: every sabotaged record is
    // a miss (recomputed), quarantined, and the CSV bytes are unchanged.
    let warm = lab(4, Some(dir.clone()));
    let s_warm = warm.run_spec(&spec);
    assert_eq!(
        sweep_csv(&s_warm.keys, &s_warm.results),
        csv_cold,
        "sabotaged records must never alter CSV bytes"
    );
    let stats = warm.cache_stats();
    assert_eq!(stats.corrupt, 4, "{stats:?}");
    assert_eq!(stats.quarantined, 4, "{stats:?}");
    let qdir = dir.join(QUARANTINE_SUBDIR);
    assert_eq!(std::fs::read_dir(&qdir).unwrap().count(), 4);

    // The rewrite healed the cache: a third engine hits everything.
    let healed = lab(4, Some(dir.clone()));
    let s_healed = healed.run_spec(&spec);
    assert_eq!(sweep_csv(&s_healed.keys, &s_healed.results), csv_cold);
    assert_eq!(healed.cache_stats().corrupt, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_cache_dir_degrades_without_changing_bytes() {
    // A cache "directory" that is actually a file: every disk write
    // fails, the engine warns once and stays memory-only, and the CSV
    // is byte-identical to the diskless run.
    let path = std::env::temp_dir().join(format!("psse-lab-notadir-{}", std::process::id()));
    std::fs::write(&path, "occupied").unwrap();
    let spec = SweepSpec::parse(SPEC).unwrap();
    let plain = lab(4, None).run_spec(&spec);
    let degraded = lab(4, Some(path.clone())).run_spec(&spec);
    assert_eq!(
        sweep_csv(&plain.keys, &plain.results),
        sweep_csv(&degraded.keys, &degraded.results),
    );
    assert_eq!(degraded.failures(), 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn simulator_sweep_is_order_stable_across_jobs() {
    use psse_core::machines::jaketown;
    let keys: Vec<RunKey> = (0..6)
        .map(|i| {
            let mut k = RunKey::simulate("mm25d", 24, 4, jaketown());
            k.seed = 1 + (i % 3) as u64; // duplicates → intra-sweep cache hits
            k
        })
        .collect();
    let l1 = lab(1, None);
    let r1 = l1.run_keys(&keys);
    let l8 = lab(8, None);
    let r8 = l8.run_keys(&keys);
    for (a, b) in r1.iter().zip(&r8) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
    }
    // Serial engine sees every duplicate as a hit.
    assert_eq!(l1.cache_stats().misses, 3);
    assert_eq!(l1.cache_stats().hits, 3);
}

#[test]
fn profiled_sweep_surfaces_event_engine_health() {
    // Drive the event engine's general (scheduled) executor so the
    // process-global health counters are non-zero before the sweep.
    // (The analytic fast path schedules nothing, so force past it; in
    // recursive doubling every rank sends before its partner is
    // waiting, so wires genuinely park in the mailbox slab.)
    use psse_event::prelude::*;
    let cfg = psse_sim::SimConfig {
        backend: psse_sim::Backend::Events,
        ..psse_sim::SimConfig::default()
    };
    EventMachine::run_general(64, &cfg, RecursiveDoublingAllreduce::counted(Tag(0), 100)).unwrap();

    let spec = SweepSpec::parse(SPEC).unwrap();
    let (results, profile) = lab(2, None).run_spec_profiled(&spec);
    assert_eq!(results.failures(), 0);
    let json = profile.to_json();
    let metrics = json.get("metrics").expect("profile has metrics");
    for name in [
        "event.slab.live",
        "event.slab.recycled",
        "event.calq.overflow",
    ] {
        assert!(
            metrics.get(name).is_some(),
            "profile metrics missing `{name}`"
        );
    }
    // The scheduled binomial allreduce parked wires in the slab, so the
    // high-water gauge must have registered it.
    let live = metrics
        .get("event.slab.live")
        .and_then(|m| m.get("value"))
        .and_then(psse_metrics::Json::as_int)
        .expect("event.slab.live gauge value");
    assert!(live > 0, "slab high-water mark should be non-zero: {live}");
}

/// The key digests of a journal's `run` lines, in file order.
fn journaled_digests(path: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter_map(|l| l.strip_prefix("run ")?.split(' ').next().map(String::from))
        .collect()
}

#[test]
fn journal_holds_one_line_per_distinct_digest() {
    let dir = std::env::temp_dir().join(format!("psse-lab-jdup-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dup.journal");
    // Every key three times: adjacent, then again after the whole list.
    let base = SweepSpec::parse(SPEC).unwrap().expand();
    let mut keys: Vec<RunKey> = base.iter().flat_map(|k| [k.clone(), k.clone()]).collect();
    keys.extend(base.iter().cloned());
    let mut engine = lab(4, None);
    engine.set_journal(Journal::create(&path, &spec_digest(&keys)).unwrap());
    assert!(engine.run_keys(&keys).iter().all(|r| r.is_ok()));
    drop(engine);
    let lines = journaled_digests(&path);
    let distinct: std::collections::HashSet<String> = base.iter().map(|k| k.digest()).collect();
    assert_eq!(lines.len(), distinct.len(), "one line per distinct digest");
    let written: std::collections::HashSet<String> = lines.into_iter().collect();
    assert_eq!(written, distinct);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resuming_a_complete_journal_appends_nothing() {
    let dir = std::env::temp_dir().join(format!("psse-lab-jfull-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("full.journal");
    let spec = SweepSpec::parse(SPEC).unwrap();
    let sd = spec_digest(&spec.expand());
    let mut first = lab(2, None);
    first.set_journal(Journal::create(&path, &sd).unwrap());
    let reference = first.run_spec(&spec);
    drop(first);
    let complete = std::fs::read(&path).unwrap();
    for _ in 0..2 {
        let (journal, replayed) = Journal::open_resume(&path, &sd).unwrap();
        let mut resumed = lab(2, None);
        resumed.seed(&replayed);
        resumed.set_journal(journal);
        assert_eq!(resumed.run_spec(&spec).results, reference.results);
        drop(resumed);
        assert_eq!(std::fs::read(&path).unwrap(), complete, "journal grew");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_cache_hits_are_journaled_once() {
    // Results served from a warm `cache_dir` are completions the fresh
    // journal has never seen: each must still land in it, once.
    let dir = std::env::temp_dir().join(format!("psse-lab-jcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.join("cache");
    let spec = SweepSpec::parse(SPEC).unwrap();
    let keys = spec.expand();
    assert_eq!(lab(2, Some(cache.clone())).run_spec(&spec).failures(), 0);

    let path = dir.join("warm.journal");
    let mut warm = lab(2, Some(cache.clone()));
    warm.set_journal(Journal::create(&path, &spec_digest(&keys)).unwrap());
    let sweep = warm.run_spec(&spec);
    assert_eq!(warm.cache_stats().misses, 0, "every key served from disk");
    drop(warm);
    let distinct: std::collections::HashSet<String> = keys.iter().map(|k| k.digest()).collect();
    let lines = journaled_digests(&path);
    assert_eq!(lines.len(), distinct.len());

    // The journal alone now resumes the sweep, with no cache at all.
    let (_, replayed) = Journal::open_resume(&path, &spec_digest(&keys)).unwrap();
    assert_eq!(replayed.len(), distinct.len());
    for (key, result) in keys.iter().zip(&sweep.results) {
        assert_eq!(replayed.get(&key.digest()), result.as_ref().ok());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_holds_every_completed_digest_once_a_sweep_returns() {
    // Lines are written in batches; both sweep entry points write the
    // last batch before returning, with the engine (and its journal)
    // still alive.
    let dir = std::env::temp_dir().join(format!("psse-lab-jlive-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let keys = SweepSpec::parse(SPEC).unwrap().expand();
    let distinct: std::collections::HashSet<String> = keys.iter().map(|k| k.digest()).collect();
    for profiled in [false, true] {
        let path = dir.join(format!("live-{profiled}.journal"));
        let mut engine = lab(4, None);
        engine.set_journal(Journal::create(&path, &spec_digest(&keys)).unwrap());
        if profiled {
            assert_eq!(engine.run_keys_profiled(&keys).1.failed, 0);
        } else {
            assert!(engine.run_keys(&keys).iter().all(|r| r.is_ok()));
        }
        let lines = journaled_digests(&path);
        assert_eq!(lines.len(), distinct.len(), "profiled={profiled}");
        let written: std::collections::HashSet<String> = lines.into_iter().collect();
        assert_eq!(written, distinct, "profiled={profiled}");
        drop(engine);
        assert_eq!(
            journaled_digests(&path).len(),
            distinct.len(),
            "drop wrote more"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `SPEC` over a `p_points × mem_points` grid.
fn grid(p_points: usize, mem_points: usize) -> Vec<RunKey> {
    let text = SPEC
        .replace("geom:6:100:15", &format!("geom:6:10000:{p_points}"))
        .replace("geomf:2e2:1e6:15", &format!("geomf:2e2:1e6:{mem_points}"));
    SweepSpec::parse(&text).unwrap().expand()
}

#[test]
fn profile_json_size_does_not_grow_with_the_key_count() {
    let size = |keys: &[RunKey]| {
        let (results, profile) = lab(2, None).run_keys_profiled(keys);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(profile.keys, keys.len() as u64);
        assert_eq!(profile.top.len(), psse_lab::selfprof::TOP_K);
        profile.to_json().to_string().len()
    };
    let (small_keys, large_keys) = (grid(40, 50), grid(100, 200));
    assert_eq!((small_keys.len(), large_keys.len()), (2_000, 20_000));
    let (small, large) = (size(&small_keys), size(&large_keys));
    assert!(
        small < 64 * 1024 && large < 64 * 1024,
        "{small} / {large} B"
    );
    // A tenfold sweep may occupy more histogram buckets (the bucket
    // layout is fixed, so that growth is bounded), never tenfold bytes.
    assert!(
        large < 2 * small,
        "a 10x larger sweep grew the profile from {small} to {large} B"
    );
}

#[test]
fn profile_counts_match_across_jobs_and_cache_temperature() {
    let keys = SweepSpec::parse(SPEC).unwrap().expand();
    let distinct: std::collections::HashSet<String> = keys.iter().map(|k| k.digest()).collect();
    // No duplicate keys, so no worker can race another to a hit.
    assert_eq!(distinct.len(), keys.len());
    let n = keys.len() as u64;
    let (_, serial) = lab(1, None).run_keys_profiled(&keys);
    let engine = lab(4, None);
    let (_, cold) = engine.run_keys_profiled(&keys);
    let (_, warm) = engine.run_keys_profiled(&keys);
    for p in [&serial, &cold] {
        assert_eq!((p.keys, p.cached, p.failed), (n, 0, 0));
        assert_eq!((p.executed_ns.count(), p.cached_ns.count()), (n, 0));
    }
    assert_eq!((warm.keys, warm.cached, warm.failed), (n, n, 0));
    assert_eq!((warm.executed_ns.count(), warm.cached_ns.count()), (0, n));
    // The virt.* series are recorded per key occurrence, so they agree
    // exactly whatever the worker count or cache temperature.
    let virt = |p: &SweepProfile| -> Vec<(String, String)> {
        match &p.metrics {
            psse_metrics::Json::Obj(pairs) => pairs
                .iter()
                .filter(|(k, _)| k.starts_with("virt."))
                .map(|(k, v)| (k.clone(), v.to_string()))
                .collect(),
            other => panic!("metrics is not an object: {other}"),
        }
    };
    assert_eq!(virt(&serial).len(), 5);
    assert_eq!(virt(&serial), virt(&cold));
    assert_eq!(virt(&serial), virt(&warm));
}
