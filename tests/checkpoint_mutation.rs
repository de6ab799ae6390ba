//! Byte-mutation robustness of a real mid-run checkpoint (ring tracer,
//! profiler and Weaver fault injector attached). Single bytes of its
//! machine section are overwritten at thousands of seeded positions:
//! every damaged file must decode (the header and the section length are
//! intact) and resume into either a finished run or a typed error. Bytes
//! of its header, through the section's length prefix, are overwritten,
//! inserted or deleted: `Checkpoint::decode` must return a checkpoint or
//! a typed error. Neither may panic.
//!
//! Most of the section is device memory, and most of that is never
//! touched by the run: half the positions skip the longest run of zero
//! bytes so they land in machine structure (lengths, tags, ids, presence
//! bytes, cache arrays, warp contexts) rather than in unused memory.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sparseweaver::core::algorithms::PageRank;
use sparseweaver::core::checkpoint::Checkpoint;
use sparseweaver::core::runtime::CheckpointCtl;
use sparseweaver::core::{FrameworkError, Schedule, Session};
use sparseweaver::fault::{FaultSpec, SplitMix64};
use sparseweaver::graph::generators;
use sparseweaver::lint::LintLevel;
use sparseweaver::sim::GpuConfig;
use sparseweaver::trace::TraceConfig;

/// Seeded positions mutated anywhere in the section, again outside its
/// longest zero run, and in the header.
const MUTATIONS: usize = 2000;

#[test]
fn mutated_machine_sections_resume_or_fail_typed() {
    let g = generators::powerlaw(24, 96, 2.0, 5);
    let algo = PageRank::new(2);
    let mut s = Session::new(GpuConfig::small_test());
    // Keep each resume to a few milliseconds in a debug build: kernels
    // are linted once by the golden run, and the clones share one kernel
    // cache, so each stream is allocated once.
    s.lint = LintLevel::Off;
    s.trace = Some(TraceConfig {
        ring_capacity: 1 << 12,
        ..TraceConfig::default()
    });
    s.profile = true;
    s.inject = Some(FaultSpec::parse("weaver-drop=0.02,weaver-delay=0.05").unwrap());
    s.inject_seed = 3;
    let mut linted = s.clone();
    linted.lint = LintLevel::Deny;
    let launches = linted
        .run(&g, &algo, Schedule::SparseWeaver)
        .unwrap()
        .per_kernel
        .iter()
        .map(|(_, k)| k.launches)
        .sum::<u64>();

    // Stop one launch before the end: the resumed run simulates the last
    // launch on the damaged machine.
    let path = std::env::temp_dir().join(format!("sw_ckpt_mutation_{}.swckpt", std::process::id()));
    let mut writer = s.clone();
    writer.checkpoint = Some(CheckpointCtl {
        out: Some(path.clone()),
        every: 1,
        stop_after_launches: Some(launches - 1),
        ..CheckpointCtl::default()
    });
    match writer.run(&g, &algo, Schedule::SparseWeaver) {
        Err(FrameworkError::Interrupted { .. }) => {}
        other => panic!("expected an interrupted run, got {other:?}"),
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let section = Checkpoint::decode(&bytes).unwrap().machine.len();
    let start = bytes.len() - section;
    let (zeros_at, zeros_len) = longest_zero_run(&bytes[start..]);

    let mut rng = SplitMix64::new(0x5eed);
    let (mut finished, mut refused, mut failed) = (0, 0, 0);
    for i in 0..2 * MUTATIONS {
        let at = if i < MUTATIONS {
            rng.below(section as u64) as usize
        } else {
            let at = rng.below((section - zeros_len) as u64) as usize;
            if at < zeros_at {
                at
            } else {
                at + zeros_len
            }
        };
        let mut damaged = bytes.clone();
        damaged[start + at] ^= 1 + rng.below(255) as u8;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let ck = Checkpoint::decode(&damaged).expect("header and length are intact");
            s.clone().resume(&g, &algo, &ck)
        }));
        match outcome {
            Ok(Ok(_)) => finished += 1,
            Ok(Err(FrameworkError::Checkpoint(_))) => refused += 1,
            // A damaged but well-formed machine can still go wrong while
            // it runs (a bad address, a deadlock): also typed.
            Ok(Err(_)) => failed += 1,
            Err(_) => panic!("mutating machine byte {at} panicked"),
        }
    }
    assert_eq!(finished + refused + failed, 2 * MUTATIONS);
    assert!(refused > 0, "some mutations must be refused by the codec");
    assert!(finished > 0, "some mutations must land in plain data");

    let (mut decoded, mut rejected) = (0, 0);
    for i in 0..MUTATIONS {
        let at = rng.below(start as u64) as usize;
        let mut damaged = bytes.clone();
        match i % 3 {
            0 => damaged[at] ^= 1 + rng.below(255) as u8,
            1 => damaged.insert(at, rng.below(256) as u8),
            _ => {
                damaged.remove(at);
            }
        }
        match catch_unwind(|| Checkpoint::decode(&damaged)) {
            Ok(Ok(_)) => decoded += 1,
            Ok(Err(_)) => rejected += 1,
            Err(_) => panic!("mutating header byte {at} (mode {}) panicked", i % 3),
        }
    }
    assert!(rejected > 0, "some header mutations must be refused");
    assert!(decoded > 0, "some header mutations must land in plain data");
}

/// `(offset, length)` of the longest run of zero bytes.
fn longest_zero_run(bytes: &[u8]) -> (usize, usize) {
    let (mut best, mut run_start) = ((0, 0), 0);
    for (i, &b) in bytes.iter().enumerate() {
        if b != 0 {
            run_start = i + 1;
        } else if i + 1 - run_start > best.1 {
            best = (run_start, i + 1 - run_start);
        }
    }
    best
}
