//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--jobs N] [--out DIR] [all | list | <id>...]
//! ```
//!
//! With `all` (the default) every artifact is regenerated in paper order;
//! `list` prints the artifact ids;
//! `--quick` shrinks the sweeps (3 datasets, 3 GCN dims) for smoke runs;
//! `--jobs N` runs artifacts (and their internal dataset/scale sweeps) on
//! N worker threads — output order and bytes are identical at any N;
//! `--out DIR` additionally writes one text file per artifact. Any other
//! `--` flag, or a value flag without its value, prints the usage line to
//! stderr and exits 2 before anything runs.

use rayon::ThreadPoolBuilder;
use sparseweaver_bench::experiments::par_map;

const USAGE: &str = "usage: experiments [--quick] [--jobs N] [--out DIR] [all | list | <id>...]";

/// Prints `msg` and the usage line to stderr and exits 2, before any
/// artifact runs.
fn usage_error(msg: &str) -> ! {
    eprintln!("experiments: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut quick, mut out_dir, mut jobs, mut selected) = (false, None, 1usize, Vec::new());
    while let Some(arg) = args.next() {
        let mut value = || match args.next() {
            Some(v) if !v.starts_with("--") => v,
            _ => usage_error(&format!("{arg} expects a value")),
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_dir = Some(value()),
            "--jobs" => {
                let v = value();
                jobs = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--jobs expects a number, got `{v}`"))
                });
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag {flag}")),
            _ => selected.push(arg),
        }
    }
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    if jobs > hardware {
        eprintln!(
            "warning: --jobs {jobs} exceeds the {hardware} hardware thread(s) available — \
             extra workers only add contention"
        );
    }

    let catalog = sparseweaver_bench::experiments::catalog();
    if selected.iter().any(|s| s == "list") {
        for (id, desc, _) in &catalog {
            println!("{id:8}  {desc}");
        }
        return;
    }
    let run_all = selected.is_empty() || selected.iter().any(|s| s == "all");
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    #[allow(clippy::type_complexity)] // same shape as `catalog()`'s rows
    let to_run: Vec<(&str, &str, fn(bool) -> String)> = catalog
        .into_iter()
        .filter(|(id, _, _)| run_all || selected.iter().any(|s| s == id))
        .collect();
    if to_run.is_empty() {
        eprintln!("unknown experiment id; use `experiments list`");
        std::process::exit(2);
    }

    let run_one = |(id, desc, f): (&str, &str, fn(bool) -> String)| {
        eprintln!("== running {id}: {desc} ==");
        let started = std::time::Instant::now();
        let report = f(quick);
        eprintln!("== {id} done in {:?} ==", started.elapsed());
        report
    };
    // Collect reports by catalog index, then print in catalog order —
    // stdout is byte-identical whether jobs is 1 or 16. A single selected
    // artifact runs on the installing thread, so its *internal* dataset
    // and scale sweeps inherit the pool instead.
    let reports: Vec<String> = if jobs > 1 {
        let pool = ThreadPoolBuilder::new()
            .num_threads(jobs)
            .build()
            .expect("experiments thread pool");
        pool.install(|| par_map(to_run.clone(), run_one))
    } else {
        to_run.iter().map(|e| run_one(*e)).collect()
    };
    for ((id, _, _), report) in to_run.iter().zip(&reports) {
        println!("{report}");
        println!("{}", "=".repeat(78));
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{id}.txt");
            sparseweaver_trace::codec::write_atomic(std::path::Path::new(&path), report.as_bytes())
                .unwrap_or_else(|e| {
                    eprintln!("cannot write report to {path}: {e}");
                    std::process::exit(1)
                });
        }
    }
}
