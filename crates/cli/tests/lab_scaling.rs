//! `psse lab run --scaling` prints one `scaling   :` line per
//! (n, c, M) group of the sweep, in first-appearance order. The lines
//! are checked against a reference computed here by the plain
//! per-group filter: collect the groups, then rescan every key for each.

use psse_lab::prelude::*;
use std::fmt::Write as _;

/// Fig. 4's contrived machine over a (p, M) grid whose smallest
/// memories cannot hold the problem at small p.
const SPEC: &str = "\
kind = model
alg = nbody
machine = jaketown
gamma-t = 1e-9
beta-t = 2e-8
alpha-t = 1e-6
gamma-e = 1e-9
beta-e = 4e-6
alpha-e = 1e-4
delta-e = 5e-4
epsilon-e = 0
max-message = 100
mem-words = 1e12
n = 10000
p = geom:6:100:24
mem = 2e2,geomf:1e3:1e6:4
f = 10
";

/// The CLI's number format.
fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if (1e-3..1e6).contains(&x.abs()) {
        format!("{x:.4}")
    } else {
        format!("{x:.4e}")
    }
}

fn reference_report(sweep: &SweepResults) -> String {
    let mut groups: Vec<(u64, u64, u64)> = Vec::new();
    for key in &sweep.keys {
        let g = (key.n, key.c, key.mem.to_bits());
        if !groups.contains(&g) {
            groups.push(g);
        }
    }
    let mut out = String::new();
    for (n, c, mem_bits) in groups {
        let mut samples: Vec<(u64, f64, f64)> = sweep
            .keys
            .iter()
            .zip(&sweep.results)
            .filter(|(k, _)| k.n == n && k.c == c && k.mem.to_bits() == mem_bits)
            .filter_map(|(k, r)| {
                let r = r.as_ref().ok()?;
                r.feasible.then_some((k.p, r.time, r.energy))
            })
            .collect();
        samples.sort_by_key(|&(p, _, _)| p);
        samples.dedup_by_key(|&mut (p, _, _)| p);
        let label = format!("n = {n}, M = {}", fmt(f64::from_bits(mem_bits)));
        let _ = match detect_scaling_range(&samples, 1e-9) {
            Some(r) => writeln!(
                out,
                "scaling   : {label}: perfect strong scaling for p ∈ [{}, {}]",
                r.p_min, r.p_max
            ),
            None => writeln!(
                out,
                "scaling   : {label}: no perfect-strong-scaling range detected"
            ),
        };
    }
    out
}

#[test]
fn scaling_lines_match_the_per_group_reference() {
    let dir = std::env::temp_dir().join(format!("psse-lab-scaling-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("grid.spec");
    std::fs::write(&spec_path, SPEC).unwrap();

    let sweep = Lab::new(LabConfig::default()).run_spec(&SweepSpec::parse(SPEC).unwrap());
    let (feasible, infeasible) = sweep.feasibility();
    assert!(feasible > 0 && infeasible > 0, "mixed feasibility");
    let want = reference_report(&sweep);
    assert_eq!(want.lines().count(), 5, "one line per memory");
    assert!(want.contains("perfect strong scaling for"), "{want}");
    assert!(want.contains("no perfect-strong-scaling range"), "{want}");

    let argv: Vec<String> = ["lab", "run", "--spec", &spec_path.display().to_string()]
        .into_iter()
        .map(String::from)
        .chain(["--jobs", "2", "--scaling", "--profile", "off"].map(String::from))
        .collect();
    let mut out = String::new();
    psse_cli::run(&argv, &mut out).unwrap();
    let got: String = out
        .lines()
        .filter(|l| l.starts_with("scaling   :"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}
