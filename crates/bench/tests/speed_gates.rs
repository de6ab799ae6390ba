//! The simulator's two self-baselined speed gates:
//!
//! - **fast-forward:** the idle-cycle fast-forwarding engine must not be
//!   slower than the same run with the per-core blocked cache disabled,
//!   which re-scans every warp each cycle;
//! - **hooks off:** a run with no observer attached must not be slower
//!   than the same run with a sampling tracer, so the disabled hooks stay
//!   free.
//!
//! Each gate times its two sides in alternating pairs on one machine, so
//! runner speed cancels out. It fails if the median over the pairs of
//! the time ratio, side doing less work over the other side, exceeds
//! [`TOLERANCE`].
//! Both are `#[ignore]`d because only an optimised build measures what
//! ships:
//!
//! ```text
//! cargo test --release -p sparseweaver-bench --test speed_gates -- --ignored --test-threads=1 --nocapture
//! ```

use std::time::Instant;

use sparseweaver_core::algorithms::{Bfs, PageRank};
use sparseweaver_core::{Schedule, Session};
use sparseweaver_graph::generators::{powerlaw, with_random_weights};
use sparseweaver_sim::GpuConfig;
use sparseweaver_trace::TraceConfig;

/// The lean side may be at most this factor slower than its baseline.
const TOLERANCE: f64 = 1.10;

/// Timed pairs per gate, after one warm-up run of each side.
const PAIRS: usize = 21;

/// Times `lean` against `baseline` and fails if the median of the
/// per-pair wall-time ratios `lean / baseline` exceeds [`TOLERANCE`].
/// Both runs of a pair see the same phase of the host, so the per-pair
/// ratio cancels a slow phase that the ratio of the two sides' medians
/// would not. Each side returns the simulated cycles of its run; the two
/// sides of every pair must agree, so each comparison times the same
/// simulated work. Which side runs first flips each pair.
fn gate(name: &str, mut lean: impl FnMut() -> u64, mut baseline: impl FnMut() -> u64) {
    timed(&mut lean);
    timed(&mut baseline);
    let (mut lean_s, mut baseline_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let ((l, lc), (b, bc)) = if pair % 2 == 0 {
            let l = timed(&mut lean);
            (l, timed(&mut baseline))
        } else {
            let b = timed(&mut baseline);
            (timed(&mut lean), b)
        };
        assert_eq!(lc, bc, "{name}: pair {pair} simulated different cycles");
        lean_s.push(l);
        baseline_s.push(b);
        ratios.push(l / b);
    }
    let ratio = median(&mut ratios);
    println!(
        "{name}: lean median {:.3} ms, baseline median {:.3} ms, median pair ratio {ratio:.3} (limit {TOLERANCE})",
        median(&mut lean_s) * 1e3,
        median(&mut baseline_s) * 1e3
    );
    assert!(
        ratio <= TOLERANCE,
        "{name}: the lean side is {ratio:.3}x its baseline"
    );
}

/// Wall seconds and simulated cycles of one run of `side`.
fn timed(side: &mut dyn FnMut() -> u64) -> (f64, u64) {
    let start = Instant::now();
    let cycles = side();
    (start.elapsed().as_secs_f64(), cycles)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn fast_forward_is_not_slower_than_the_per_cycle_scan() {
    let g = with_random_weights(&powerlaw(400, 2400, 1.9, 7), 64, 1);
    let bfs = |fast_forward| {
        let mut s = Session::new(GpuConfig::small_test());
        s.fast_forward = fast_forward;
        s.run(&g, &Bfs::new(0), Schedule::SparseWeaver)
            .expect("run")
            .cycles
    };
    gate("fast-forward on vs off", || bfs(true), || bfs(false));
}

#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn disabled_hooks_are_not_slower_than_a_sampling_tracer() {
    let g = with_random_weights(&powerlaw(150, 900, 1.9, 7), 32, 1);
    let pr = |trace| {
        let mut s = Session::new(GpuConfig::small_test());
        s.trace = trace;
        s.run(&g, &PageRank::new(1), Schedule::SparseWeaver)
            .expect("run")
            .cycles
    };
    let tracer = TraceConfig {
        sample_every: 1000,
        ..TraceConfig::default()
    };
    gate("hooks off vs tracer on", || pr(None), || pr(Some(tracer)));
}
