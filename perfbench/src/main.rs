//! Command line: `perfbench --workload NAME --seed N --seconds S --trace 0|1`.
//!
//! Prints one JSON result as the last line of stdout and exits 0 when
//! every correctness check passed, 1 when one failed or a layer call
//! errored, and 2 on a usage error.

use std::process::exit;

use perfbench::{measure, Scale, Workload, END_TO_END, NAMES, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}\nworkloads: {}", NAMES.join(", "));
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            usage("every flag takes a value")
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are all required")
    };
    let Some(w) = Workload::named(&name, Scale::Full) else {
        usage(&format!("unknown workload {name}"))
    };
    match measure(&w, seed, seconds, trace) {
        Ok(outcome) => {
            let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            println!("{}", outcome.to_json(catalog));
            exit(if outcome.correct() { 0 } else { 1 })
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name);
            exit(1)
        }
    }
}
