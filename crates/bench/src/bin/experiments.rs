//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--jobs N] [--out DIR] [all | <id>...]
//! ```
//!
//! With `all` (the default) every artifact is regenerated in paper order;
//! `--quick` shrinks the sweeps (3 datasets, 3 GCN dims) for smoke runs;
//! `--jobs N` runs artifacts (and their internal dataset/scale sweeps) on
//! N worker threads — output order and bytes are identical at any N;
//! `--out DIR` additionally writes one text file per artifact.

use rayon::ThreadPoolBuilder;
use sparseweaver_bench::experiments::par_map;

fn value_of(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_dir = value_of(&args, "--out");
    let jobs: usize = match value_of(&args, "--jobs") {
        None => 1,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--jobs expects a number, got `{v}`");
            std::process::exit(2)
        }),
    };
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    if jobs > hardware {
        eprintln!(
            "warning: --jobs {jobs} exceeds the {hardware} hardware thread(s) available — \
             extra workers only add contention"
        );
    }
    let flag_values: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(i, _)| *i > 0 && matches!(args[i - 1].as_str(), "--out" | "--jobs"))
        .map(|(_, a)| a)
        .collect();
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| !flag_values.contains(a))
        .cloned()
        .collect();

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
