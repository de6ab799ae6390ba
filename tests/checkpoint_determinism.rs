//! Checkpoint round-trip determinism: an interrupted run resumed from a
//! `swckpt-v1` snapshot must be **bit-identical** to the uninterrupted
//! run — same stats, same metrics-JSON bytes — across every algorithm,
//! both hardware-assisted schedules, and with the idle-cycle
//! fast-forward engine on or off. The rejection matrix holds checkpoints
//! to the same rule as memory traces: every way a checkpoint file can be
//! damaged maps to a typed error, never a panic or a silently wrong
//! resume.

use sparseweaver::core::algorithms::{Algorithm, Bfs, ConnectedComponents, PageRank, Spmv, Sssp};
use sparseweaver::core::checkpoint::{Checkpoint, CheckpointError};
use sparseweaver::core::runtime::CheckpointCtl;
use sparseweaver::core::{FrameworkError, Schedule, Session};
use sparseweaver::graph::generators;
use sparseweaver::sim::GpuConfig;
use sparseweaver::trace::export;
use sparseweaver::trace::TraceConfig;

/// Runs `algo` to completion, then re-runs it with a mid-run stop at a
/// launch boundary, resumes from the written checkpoint, and asserts the
/// resumed run is indistinguishable from the golden one.
fn assert_round_trip(algo: &dyn Algorithm, tag: &str, schedule: Schedule, fast_forward: bool) {
    let g = generators::powerlaw(40, 200, 2.0, 7);
    let mut s = Session::new(GpuConfig::small_test());
    s.trace = Some(TraceConfig::default());
    s.fast_forward = fast_forward;
    let golden = s
        .run(&g, algo, schedule)
        .unwrap_or_else(|e| panic!("golden {tag}: {e}"));
    let golden_metrics = export::metrics_json(golden.trace.as_ref().unwrap(), None, None);
    let launches = golden.per_kernel.len() as u64;

    let path = std::env::temp_dir().join(format!(
        "sw_ckpt_det_{tag}_{}_ff{fast_forward}.swckpt",
        schedule.stable_id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut s2 = s.clone();
    // Stop halfway through the launch sequence (single-launch algorithms
    // stop at the final boundary — the host epilogue still runs on resume).
    s2.checkpoint = Some(CheckpointCtl {
        out: Some(path.clone()),
        every: 1,
        stop_after_launches: Some((launches / 2).max(1)),
        ..CheckpointCtl::default()
    });
    match s2.run(&g, algo, schedule) {
        Err(FrameworkError::Interrupted { .. }) => {}
        other => panic!("{tag}: expected an interrupted run, got {other:?}"),
    }
    let ck = Checkpoint::load(&path).unwrap_or_else(|e| panic!("{tag}: load: {e}"));
    assert_eq!(ck.launches, (launches / 2).max(1), "{tag}: stop boundary");
    s2.checkpoint.as_mut().unwrap().stop_after_launches = None;
    let resumed = s2
        .resume(&g, algo, &ck)
        .unwrap_or_else(|e| panic!("resume {tag}: {e}"));

    assert_eq!(golden.stats, resumed.stats, "{tag}: stats");
    assert_eq!(golden.per_kernel, resumed.per_kernel, "{tag}: per-kernel");
    assert_eq!(golden.cycles, resumed.cycles, "{tag}: cycles");
    assert!(
        golden.output.approx_eq(&resumed.output, 0.0),
        "{tag}: output drifted"
    );
    let resumed_metrics = export::metrics_json(resumed.trace.as_ref().unwrap(), None, None);
    assert_eq!(
        golden_metrics, resumed_metrics,
        "{tag}: metrics bytes differ"
    );
    let _ = std::fs::remove_file(&path);
}

/// All 5 algorithms × both hardware-assisted schedules × fast-forward
/// on/off: 20 save→restore round trips, each proven bit-identical.
#[test]
fn save_restore_is_bit_identical_across_the_matrix() {
    let algos: Vec<(Box<dyn Algorithm>, &str)> = vec![
        (Box::new(Bfs::new(0)), "bfs"),
        (Box::new(PageRank::new(3)), "pr"),
        (Box::new(Sssp::new(0)), "sssp"),
        (Box::new(ConnectedComponents::new()), "cc"),
        (Box::new(Spmv::new()), "spmv"),
    ];
    for (algo, tag) in &algos {
        for schedule in [Schedule::SparseWeaver, Schedule::Eghw] {
            for fast_forward in [true, false] {
                assert_round_trip(algo.as_ref(), tag, schedule, fast_forward);
            }
        }
    }
}

/// Fast-forward is a pure accelerator: a checkpoint taken with it on can
/// seed a resume with it off (and vice versa) without changing a byte.
#[test]
fn fast_forward_setting_does_not_leak_into_checkpoints() {
    let g = generators::powerlaw(40, 200, 2.0, 7);
    let algo = PageRank::new(3);
    let mut s = Session::new(GpuConfig::small_test());
    s.fast_forward = true;
    let golden = s.run(&g, &algo, Schedule::SparseWeaver).unwrap();

    let path = std::env::temp_dir().join("sw_ckpt_det_ff_cross.swckpt");
    let _ = std::fs::remove_file(&path);
    let mut s2 = s.clone();
    s2.checkpoint = Some(CheckpointCtl {
        out: Some(path.clone()),
        every: 1,
        stop_after_launches: Some(2),
        ..CheckpointCtl::default()
    });
    match s2.run(&g, &algo, Schedule::SparseWeaver) {
        Err(FrameworkError::Interrupted { .. }) => {}
        other => panic!("expected an interrupted run, got {other:?}"),
    }
    let ck = Checkpoint::load(&path).unwrap();
    s2.checkpoint = None;
    s2.fast_forward = false; // checkpointed with it on, resume with it off
    let resumed = s2.resume(&g, &algo, &ck).unwrap();
    assert_eq!(golden.stats, resumed.stats);
    assert_eq!(golden.cycles, resumed.cycles);
    assert!(golden.output.approx_eq(&resumed.output, 0.0));
    let _ = std::fs::remove_file(&path);
}

/// Writes one valid checkpoint the corruption cases below can mutilate.
fn valid_checkpoint_bytes() -> Vec<u8> {
    let g = generators::uniform(30, 90, 11);
    let algo = Bfs::new(0);
    let path = std::env::temp_dir().join("sw_ckpt_det_corrupt_seed.swckpt");
    let _ = std::fs::remove_file(&path);
    let mut s = Session::new(GpuConfig::small_test());
    s.checkpoint = Some(CheckpointCtl {
        out: Some(path.clone()),
        every: 1,
        stop_after_launches: Some(1),
        ..CheckpointCtl::default()
    });
    match s.run(&g, &algo, Schedule::SparseWeaver) {
        Err(FrameworkError::Interrupted { .. }) => {}
        other => panic!("expected an interrupted run, got {other:?}"),
    }
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

/// The rejection matrix: every damaged variant of a real checkpoint is
/// refused with a typed [`CheckpointError`] — decode never panics and
/// never hands back a half-restored machine.
#[test]
fn corrupt_and_truncated_checkpoints_are_rejected() {
    let bytes = valid_checkpoint_bytes();
    assert!(Checkpoint::decode(&bytes).is_ok(), "seed must decode");

    // Empty / short / foreign files: not a checkpoint at all.
    assert!(matches!(
        Checkpoint::decode(b""),
        Err(CheckpointError::BadMagic)
    ));
    assert!(matches!(
        Checkpoint::decode(b"swck"),
        Err(CheckpointError::BadMagic)
    ));
    assert!(matches!(
        Checkpoint::decode(b"this is not a checkpoint file at all"),
        Err(CheckpointError::BadMagic)
    ));

    // A flipped magic byte.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0x20;
    assert!(matches!(
        Checkpoint::decode(&bad_magic),
        Err(CheckpointError::BadMagic)
    ));

    // An unknown (future) format version.
    let magic_len = b"swckpt-v1".len();
    let mut bad_version = bytes.clone();
    bad_version[magic_len..magic_len + 4].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        Checkpoint::decode(&bad_version),
        Err(CheckpointError::BadVersion { found: 99 })
    ));

    // Every truncation point after the header: Truncated or Corrupt,
    // never Ok and never a panic.
    for cut in (magic_len + 4..bytes.len()).step_by(97) {
        match Checkpoint::decode(&bytes[..cut]) {
            Err(CheckpointError::Truncated { .. } | CheckpointError::Corrupt { .. }) => {}
            Err(e) => panic!("cut at {cut}: unexpected error class {e}"),
            Ok(_) => panic!("cut at {cut}: truncated checkpoint decoded"),
        }
    }
    // Dropping the final byte (a torn tail write) is caught too.
    match Checkpoint::decode(&bytes[..bytes.len() - 1]) {
        Err(CheckpointError::Truncated { .. } | CheckpointError::Corrupt { .. }) => {}
        other => panic!("torn tail: {other:?}"),
    }

    // Trailing garbage after a well-formed payload.
    let mut padded = bytes.clone();
    padded.extend_from_slice(b"junk");
    assert!(matches!(
        Checkpoint::decode(&padded),
        Err(CheckpointError::Corrupt { .. })
    ));
}

/// `Checkpoint::load` routes missing files through the typed I/O error —
/// the CLI turns this into exit 1 with a readable message.
#[test]
fn loading_a_missing_checkpoint_is_a_typed_io_error() {
    let path = std::env::temp_dir().join("sw_ckpt_det_missing.swckpt");
    let _ = std::fs::remove_file(&path);
    match Checkpoint::load(&path) {
        Err(CheckpointError::Io { .. }) => {}
        other => panic!("expected a typed I/O error, got {other:?}"),
    }
}
