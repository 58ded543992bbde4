//! Self-profiling walkthrough: run a sweep through the lab engine and
//! read the profile it records about itself — key wall-clock
//! histograms, the slowest keys, worker utilization, cache temperature,
//! and the Eq. 1/2 metric series the runs exported while executing.
//!
//! The same report is what `psse lab run` writes next to the sweep CSV
//! as `<out>.profile.json` (see `DESIGN.md` §10).
//!
//! Run with: `cargo run --release --example self_profile`

use psse::lab::selfprof::TOP_K;
use psse::metrics::{Histogram, Json};
use psse::prelude::*;

fn main() {
    // 1. Declare a small 2.5D-matmul model sweep (same text the CLI
    //    accepts via `psse lab run --spec <file>`).
    let spec = SweepSpec::parse(
        "kind = model\n\
         alg = matmul\n\
         machine = jaketown\n\
         n = 8192\n\
         p = pow2:8:512\n\
         mem = geomf:1e6:1e7:4\n",
    )
    .expect("valid spec");

    // 2. Run it profiled. The results are bit-identical to the
    //    unprofiled `run_spec` path — the profile is a pure
    //    side-channel.
    let lab = Lab::new(LabConfig::default());
    let (sweep, profile) = lab.run_spec_profiled(&spec);
    let (feasible, infeasible) = sweep.feasibility();
    println!(
        "ran {} evaluations ({feasible} feasible, {infeasible} infeasible) \
         on {} worker(s)\n",
        sweep.results.len(),
        profile.jobs
    );

    // 3. The human-readable report: key wall-clock quantiles, the
    //    slowest keys plus per-worker busy/idle bars. This is exactly
    //    what the CLI prints; `render` clamps its argument to the
    //    `TOP_K` keys the profile keeps.
    print!("{}", profile.render(5));

    // 4. The same data programmatically. The profile's size does not
    //    grow with the sweep: per-key wall-clock lives in two
    //    histograms (executed and cached keys), and only the `TOP_K`
    //    slowest keys are kept by name.
    let slowest = &profile.top_slowest(1)[0];
    println!(
        "\nslowest key : #{} {} ({} ns host wall-clock, cached={})",
        slowest.index, slowest.label, slowest.wall_ns, slowest.cached
    );
    print_hist("key wall-clock (executed)", &profile.executed_ns);
    println!(
        "kept        : {} of {} keys by name (TOP_K = {TOP_K})",
        profile.top.len(),
        profile.keys
    );
    println!(
        "worker 0    : {:.1}% busy over a {} ns sweep",
        100.0 * profile.utilization(0),
        profile.wall_ns
    );

    // 5. The metric series exported during execution. `virt.*` series
    //    are recorded per key occurrence (identical across worker
    //    counts and cache temperature); here we pull the modeled-time
    //    histogram back out of the snapshot JSON.
    let virt = profile
        .metrics
        .get("virt.time_ns")
        .expect("virt.time_ns is always recorded");
    let h = psse::metrics::registry::histogram_from_json(virt).expect("canonical histogram JSON");
    print_hist("virt.time_ns", &h);

    // 6. The whole profile round-trips through canonical JSON — what
    //    the CLI writes to disk parses back to an equal value.
    let text = profile.to_json().to_string();
    let reparsed = SweepProfile::from_json(&Json::parse(&text).expect("valid JSON"))
        .expect("canonical profile JSON");
    assert_eq!(reparsed, profile, "profile JSON must round-trip");
    println!("\nprofile JSON: {} bytes, round-trips exactly", text.len());
}

fn print_hist(name: &str, h: &Histogram) {
    println!(
        "\n{name}: {} samples, mean {:.3e} ns, p50 {} ns, max {} ns",
        h.count(),
        h.mean(),
        h.quantile(0.5).unwrap_or(0),
        h.max().unwrap_or(0)
    );
}
