//! Acceptance test for the `kernel =` spec axis: a sweep whose cost
//! model is derived from `specs/kernels/matmul.kernel` must price every
//! point bit-for-bit identically to the hand-written `alg = matmul`
//! sweep — same feasibility flags, same time/energy/power bytes in the
//! CSV — while occupying distinct cache slots (the kernel text is part
//! of the run identity).

use psse_lab::prelude::*;

fn kernel_path() -> String {
    shipped_kernel("matmul")
}

fn shipped_kernel(name: &str) -> String {
    format!(
        "{}/../../specs/kernels/{name}.kernel",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Price a `kernel =` key with a freshly parsed and derived model, the
/// way the runner prices it: the reference a memoized model must match.
fn price_with_fresh_derive(key: &RunKey) -> RunResult {
    use psse_core::costs::Algorithm;
    let kernel = psse_hbl::prelude::Kernel::parse(key.kernel.as_deref().unwrap()).unwrap();
    let alg = psse_hbl::prelude::derive(&kernel).unwrap().0;
    let (lo, hi) = alg.memory_range(key.n, key.p).unwrap();
    let mem = if key.mem == 0.0 { lo } else { key.mem };
    let cfg = alg.evaluate_point(&key.machine, key.n, key.p, mem).unwrap();
    let mut r = RunResult::model((lo..=hi).contains(&mem), cfg.time, cfg.energy, mem);
    r.flops = alg.total_flops(key.n);
    r
}

const GRID: &str = "n = 1024\np = pow2:4:32\nmem = geomf:2e4:3e5:4\n";

#[test]
fn kernel_matmul_sweep_is_bit_identical_to_alg_matmul() {
    let by_kernel =
        SweepSpec::parse(&format!("kind = model\nkernel = {}\n{GRID}", kernel_path())).unwrap();
    let by_alg = SweepSpec::parse(&format!("kind = model\nalg = matmul\n{GRID}")).unwrap();
    assert_eq!(by_kernel.alg, "kernel:matmul");
    assert_eq!(by_kernel.len(), by_alg.len());

    // Distinct identities: every kernel-run digest differs from its
    // alg-run counterpart (and the kernel text is what separates them).
    let (ka, kb) = (by_kernel.expand(), by_alg.expand());
    for (a, b) in ka.iter().zip(&kb) {
        assert_ne!(a.digest(), b.digest());
        assert!(a.kernel.is_some() && b.kernel.is_none());
    }

    // Identical prices: the CSVs agree on every byte once the alg
    // label is normalized away.
    let lab = Lab::new(LabConfig::default());
    let ra = lab.run_spec(&by_kernel);
    let rb = lab.run_spec(&by_alg);
    let csv_a = sweep_csv(&ra.keys, &ra.results).replace("kernel:matmul", "matmul");
    let csv_b = sweep_csv(&rb.keys, &rb.results);
    assert_eq!(csv_a, csv_b);
    assert!(csv_a.lines().count() > by_kernel.len(), "no failed rows");
}

#[test]
fn kernel_sweep_minimal_memory_sentinel_matches_too() {
    // `mem` omitted: the 0.0 sentinel resolves to the algorithm's
    // minimal memory, which the derived model must reproduce exactly.
    let by_kernel = SweepSpec::parse(&format!(
        "kind = model\nkernel = {}\nn = 512\np = 4,9,16\n",
        kernel_path()
    ))
    .unwrap();
    let by_alg = SweepSpec::parse("kind = model\nalg = matmul\nn = 512\np = 4,9,16\n").unwrap();
    let lab = Lab::new(LabConfig::default());
    let ra = lab.run_spec(&by_kernel);
    let rb = lab.run_spec(&by_alg);
    for (a, b) in ra.results.iter().zip(&rb.results) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.mem_used.to_bits(), b.mem_used.to_bits());
        assert_eq!(a.time.to_bits(), b.time.to_bits());
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        assert_eq!(a.feasible, b.feasible);
    }
}

#[test]
fn interleaved_kernels_price_like_a_fresh_derive() {
    // Keys of two kernels, and of a third text that reuses the name
    // `matmul` with a different flop count, alternate in one list run
    // by two workers: a memo keyed on anything but the full kernel text
    // would hand some key another kernel's model.
    let dir = std::env::temp_dir().join(format!("psse-kernel-memo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let renamed = dir.join("matmul2.kernel");
    let text = std::fs::read_to_string(kernel_path()).unwrap();
    std::fs::write(
        &renamed,
        text.replace("kernel = matmul", "kernel = matmul\nflops-per-iter = 3"),
    )
    .unwrap();
    let grid = "n = 4096\np = pow2:4:64\nmem = 0,geomf:2e5:3e7:3\n";
    let lists: Vec<Vec<RunKey>> = [shipped_kernel("matmul"), shipped_kernel("nbody")]
        .into_iter()
        .chain([renamed.display().to_string()])
        .map(|path| {
            SweepSpec::parse(&format!("kind = model\nkernel = {path}\n{grid}"))
                .unwrap()
                .expand()
        })
        .collect();
    let mut keys = Vec::new();
    for i in 0..lists[0].len() {
        keys.extend(lists.iter().map(|l| l[i].clone()));
    }
    let lab = Lab::new(LabConfig {
        jobs: 2,
        ..LabConfig::default()
    });
    let results = lab.run_keys(&keys);
    let mut by_text = std::collections::HashSet::new();
    for (key, got) in keys.iter().zip(&results) {
        let want = price_with_fresh_derive(key);
        assert_eq!(
            got.as_ref().unwrap().to_line(),
            want.to_line(),
            "{}",
            key.label()
        );
        by_text.insert(want.flops.to_bits());
    }
    assert_eq!(by_text.len(), 3, "the three kernels price apart");
    let _ = std::fs::remove_dir_all(&dir);
}
