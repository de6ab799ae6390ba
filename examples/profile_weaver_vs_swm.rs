//! Differential profiling: BFS under `SparseWeaver` vs `S_wm`, compared
//! the way `swprof diff` does it — programmatically.
//!
//! Runs the same BFS on the same power-law graph under both schedules
//! with the latency profiler attached, renders each run's deterministic
//! `profile.json` artifact, and prints a swprof-style differential table
//! of the stall composition, latency quantiles, and load imbalance. This
//! is the paper's Fig. 4 story in one program: the Weaver schedule trades
//! scheduling-overhead cycles (and warp imbalance) for memory/Weaver
//! stalls, and comes out far ahead on total cycles.
//!
//! ```text
//! cargo run --release --example profile_weaver_vs_swm
//! ```

use sparseweaver::core::prelude::*;
use sparseweaver::core::profile;
use sparseweaver::graph::generators;
use sparseweaver::trace::json;

fn main() -> Result<(), FrameworkError> {
    let graph =
        generators::with_random_weights(&generators::powerlaw(600, 6000, 1.9, 11), 32, 0xC11);
    let source = (0..graph.num_vertices() as u32)
        .max_by_key(|&v| graph.degree(v))
        .unwrap_or(0);
    let bfs = Bfs::new(source);
    let cfg = GpuConfig::small_test();
    println!(
        "BFS from vertex {source} on a power-law graph: {} vertices, {} edges (max degree {})\n",
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree()
    );

    // One profiled run per schedule; the artifact is rendered exactly as
    // `swsim run --profile-out` would write it.
    let artifact_for = |schedule: Schedule| -> Result<String, FrameworkError> {
        let mut session = Session::new(cfg);
        session.profile = true;
        let report = session.run(&graph, &bfs, schedule)?;
        println!(
            "  {:<13} {:>10} cycles  {:>9} instrs  ipc {:.2}",
            schedule.to_string(),
            report.cycles,
            report.stats.instructions,
            report.stats.ipc()
        );
        Ok(profile::render(&report, &cfg, &graph))
    };
    let baseline = artifact_for(Schedule::Swm)?;
    let candidate = artifact_for(Schedule::SparseWeaver)?;

    let a = json::parse(&baseline).expect("artifact is valid JSON");
    let b = json::parse(&candidate).expect("artifact is valid JSON");
    let envelope = |doc: &json::Value| json::Envelope::read(doc).expect("artifact has an envelope");
    for issue in envelope(&a)
        .comparable(&envelope(&b))
        .expect("both artifacts are profiles")
    {
        println!("warning: {issue}");
    }

    // The swprof-style table, restricted to the metrics that tell the
    // Fig. 4 story: where the issue slots went, how long memory and the
    // Weaver unit kept warps waiting, and how evenly the work spread.
    let interesting = |name: &str| {
        name.starts_with("totals.")
            || name.ends_with(".p50")
            || name.ends_with(".p99")
            || name.ends_with(".imbalance_permille")
    };
    println!(
        "\n{:<44} {:>12} {:>12} {:>9}",
        "metric", "S_wm", "SparseWeaver", "change"
    );
    let mut regressions = 0usize;
    let mut improvements = 0usize;
    for d in profile::diff(&a, &b) {
        let (Some(av), Some(bv)) = (d.a, d.b) else {
            continue;
        };
        if !interesting(&d.name) || av == bv {
            continue;
        }
        let marker = if profile::lower_is_better(&d.name) {
            if bv > av {
                regressions += 1;
                "  worse"
            } else {
                improvements += 1;
                "  better"
            }
        } else {
            ""
        };
        let pct = d
            .pct()
            .map(|p| format!("{p:>+8.1}%"))
            .unwrap_or_else(|| "     new".into());
        println!("{:<44} {:>12} {:>12} {pct}{marker}", d.name, av, bv);
    }
    println!(
        "\n{improvements} metric(s) better, {regressions} worse under SparseWeaver: \
         the Weaver schedule buys its cycle win by moving wait time into \
         the memory/Weaver stall categories while erasing warp imbalance."
    );
    Ok(())
}
