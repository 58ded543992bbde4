//! Surface agreement over the algorithm catalog: every row that
//! `psse help` lists prices and runs the same way through `psse model`
//! / `psse simulate` as through a lab key of the same name.
//!
//! The CLI prints times and energies to four significant digits, so
//! those are compared through the CLI's own rounding; word and message
//! totals are printed exactly and compared exactly.

use psse_algos::catalog::CATALOG;
use psse_core::machines::jaketown;
use psse_lab::prelude::{execute, RunKey};
use psse_sim::Backend;

fn psse(line: &str) -> Result<String, String> {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    let mut out = String::new();
    psse_cli::run(&argv, &mut out)?;
    Ok(out)
}

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

/// The value after `label` on the line that contains it, up to the
/// next space or comma.
fn field<'a>(out: &'a str, line: &str, label: &str) -> &'a str {
    let l = out
        .lines()
        .find(|l| l.starts_with(line))
        .unwrap_or_else(|| panic!("no `{line}` line in\n{out}"));
    let rest = &l[l.find(label).unwrap_or_else(|| panic!("no {label} in {l}")) + label.len()..];
    rest.split([' ', ',']).next().unwrap()
}

#[test]
fn help_names_every_row() {
    let help = psse("help").unwrap();
    for row in &CATALOG {
        for name in std::iter::once(row.name).chain(row.aliases.iter().copied()) {
            assert!(help.contains(name), "help omits `{name}`");
        }
    }
}

#[test]
fn model_rows_price_identically_in_the_cli_and_the_lab() {
    let (n, p) = (4096, 64);
    let mut rows = 0;
    for row in CATALOG.iter().filter(|r| r.model.is_some()) {
        let out = psse(&format!("model --alg {} --n {n} --p {p}", row.name))
            .unwrap_or_else(|e| panic!("psse model --alg {}: {e}", row.name));
        let r = execute(&RunKey::model(row.name, n, p, jaketown())).unwrap();
        assert_eq!(field(&out, "runtime", "T = "), fmt(r.time), "{}", row.name);
        assert_eq!(field(&out, "energy", "E = "), fmt(r.energy), "{}", row.name);
        rows += 1;
    }
    assert_eq!(rows, 10);
}

#[test]
fn rows_without_a_model_are_rejected_by_both_surfaces() {
    for row in CATALOG.iter().filter(|r| r.model.is_none()) {
        let err = psse(&format!("model --alg {} --n 64 --p 4", row.name)).unwrap_err();
        assert!(err.contains("unknown model algorithm"), "{err}");
        let key = RunKey::model(row.name, 64, 4, jaketown());
        assert!(execute(&key).unwrap_err().contains("unknown model"));
    }
}

/// A small valid shape for each simulate row: `(n, p, c)`.
fn sim_shape(name: &str) -> (u64, u64, u64) {
    match name {
        "mm25d" | "mm25d-abft" => (16, 8, 2),
        "mm3d" => (16, 8, 1),
        "strassen" => (16, 7, 1),
        "nbody" => (64, 8, 2),
        "fft" | "fft-a2a" | "samplesort" => (256, 4, 1),
        "tsqr" | "stencil" => (32, 4, 1),
        _ => (16, 4, 1),
    }
}

#[test]
fn simulate_rows_run_identically_in_the_cli_and_the_lab() {
    let mut rows = 0;
    for row in CATALOG.iter().filter(|r| r.simulate.is_some()) {
        let (n, p, c) = sim_shape(row.name);
        let line = format!("simulate --alg {} --n {n} --p {p} --c {c}", row.name);
        let threads = psse(&line).unwrap_or_else(|e| panic!("psse {line}: {e}"));
        let events = psse(&format!("{line} --backend events")).unwrap();
        let strip = |s: &str| s.replace("backend   : events", "backend   : threads");
        assert_eq!(threads, strip(&events), "{line}: backends differ");
        assert!(threads.contains("verified against"), "{threads}");
        for backend in [Backend::Threads, Backend::Events] {
            let mut key = RunKey::simulate(row.name, n, p, jaketown());
            key.c = c;
            key.backend = backend;
            let r = execute(&key).unwrap_or_else(|e| panic!("lab {line}: {e}"));
            assert!(r.verified, "{line}");
            let t = field(&threads, "measured runtime", "T = ");
            assert_eq!(t, fmt(r.time), "{line}: time");
            assert_eq!(field(&threads, "all ranks", "W = "), r.words.to_string());
            assert_eq!(field(&threads, "all ranks", "S = "), r.msgs.to_string());
        }
        rows += 1;
    }
    assert_eq!(rows, 17);
}
