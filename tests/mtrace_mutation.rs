//! Byte-mutation robustness of the `swmtrace-v1` decoder: a real capture
//! has single bytes overwritten at thousands of seeded positions and is
//! cut short at thousands of seeded lengths. Every mutant must parse or
//! fail with a typed `CodecError` naming a byte offset — never a panic.
//!
//! The test is parse-only: replaying a mutant whose header claims a huge
//! cache geometry would allocate that geometry.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sparseweaver::core::algorithms::Sssp;
use sparseweaver::core::{Schedule, Session};
use sparseweaver::fault::SplitMix64;
use sparseweaver::graph::generators;
use sparseweaver::mem::mtrace::parse;
use sparseweaver::sim::GpuConfig;
use sparseweaver::trace::codec::CodecError;

/// Seeded single-byte mutations, and seeded truncations.
const MUTATIONS: usize = 4000;
const TRUNCATIONS: usize = 2000;

/// A capture of a small SSSP run under EGHW (~20 KB): kernel launches,
/// queued and unqueued (EGHW unit) accesses, atomics and barriers.
fn capture() -> Vec<u8> {
    let path = std::env::temp_dir().join(format!(
        "sw_mtrace_mutation_{}.swmtrace",
        std::process::id()
    ));
    let mut s = Session::new(GpuConfig::small_test());
    s.mem_trace_out = Some(path.clone());
    let g = generators::with_random_weights(&generators::powerlaw(40, 200, 2.0, 5), 64, 1);
    let report = s.run(&g, &Sssp::new(0), Schedule::Eghw).unwrap();
    assert_eq!(report.mem_trace.unwrap().sink_error, None);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// Parses `bytes`, failing the test on a panic; an error must name an
/// offset inside the buffer.
fn parse_typed(bytes: &[u8], what: &str) -> Result<(), CodecError> {
    let result = catch_unwind(AssertUnwindSafe(|| parse(bytes).map(|_| ())))
        .unwrap_or_else(|_| panic!("{what} panicked"));
    if let Err(e) = &result {
        let offset = match e {
            CodecError::Truncated { offset } => *offset,
            CodecError::Corrupt { what } => what
                .rsplit("offset ")
                .next()
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("{what}: no offset in `{e}`")),
            CodecError::Restore { .. } => panic!("{what}: a parse never restores: {e}"),
        };
        assert!(
            offset <= bytes.len(),
            "{what}: offset {offset} past the end"
        );
    }
    result
}

#[test]
fn mutated_captures_parse_or_fail_typed() {
    let bytes = capture();
    let (kernels, accesses, unqueued, atomics, barriers) = parse(&bytes).unwrap().counts();
    assert!(kernels > 0 && accesses > 0 && unqueued > 0 && atomics > 0 && barriers > 0);

    let mut rng = SplitMix64::new(0x5eed);
    let (mut parsed, mut refused) = (0, 0);
    for _ in 0..MUTATIONS {
        let at = rng.below(bytes.len() as u64) as usize;
        let mut damaged = bytes.clone();
        damaged[at] ^= 1 + rng.below(255) as u8;
        match parse_typed(&damaged, &format!("mutating byte {at}")) {
            Ok(()) => parsed += 1,
            Err(_) => refused += 1,
        }
    }
    assert!(refused > 0, "some mutations must be refused");
    assert!(parsed > 0, "some mutations must land in plain data");

    // No strict prefix is a complete capture: the footer ends the file.
    for _ in 0..TRUNCATIONS {
        let len = rng.below(bytes.len() as u64) as usize;
        let what = format!("cutting to {len} bytes");
        assert!(parse_typed(&bytes[..len], &what).is_err(), "{what} parsed");
    }
}
