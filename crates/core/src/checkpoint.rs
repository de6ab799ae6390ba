//! Crash-safe simulation checkpoints: the `swckpt` binary format.
//!
//! A [`Checkpoint`] captures the complete mid-run state of a simulation at
//! a kernel-launch boundary — every warp context (PC, active mask,
//! divergence stack, registers, scoreboard), the cache arrays and port
//! clocks, the Weaver/EGHW unit state, device and scratchpad memory
//! contents, the fault injector's RNG cursor, the tracer and profiler
//! accumulators, and the host-side runtime state (allocator cursor,
//! accumulated statistics, and the ordered log of host/device
//! interactions needed to fast-replay the algorithm driver).
//!
//! `swsim resume <path>` restores a checkpoint and continues the run; the
//! resumed run is bit-identical to an uninterrupted one (same stats, same
//! `metrics.json`, same trace bytes). See `docs/robustness.md`.
//!
//! # Wire format
//!
//! Every field goes through the shared little-endian codec in
//! [`sparseweaver_trace::codec`]:
//!
//! ```text
//! magic   b"swckpt-v1"          9 bytes
//! version u32                   currently 2
//! header  host state            see [`Checkpoint::encode`]
//! machine u64 length + bytes    the GPU's `Snapshot`, then the tracer,
//!                               profiler and fault injector, each
//!                               behind a presence byte
//! ```
//!
//! [`Checkpoint::decode`] parses the header and takes the machine section
//! as opaque, length-checked bytes: every truncation and any trailing
//! bytes are refused before a machine is built. The machine section is
//! decoded only by `Runtime::resume_from`, in place into the freshly built
//! machine, so its errors (`Truncated`, `Corrupt`, or `Restore` with a
//! layered `core 3: warp 1: …` path) surface during resume, into a machine
//! that is then thrown away. Nothing here panics on malformed input.
//!
//! The header embeds the FNV-1a fingerprints of the effective GPU
//! configuration and the input graph (hashed like the artifact
//! envelopes' fingerprints, which cover the configured machine before
//! the occupancy clamp); [`Checkpoint::verify`] refuses to restore into
//! a mismatched machine or graph.

use std::fmt;
use std::fs;
use std::path::Path;

use sparseweaver_sim::KernelStats;
use sparseweaver_trace::codec::{write_atomic, CodecError, Dec, Enc, Snapshot};

use crate::schedule::Schedule;

/// File magic, leading every checkpoint. The format version follows it.
pub const CHECKPOINT_MAGIC: &[u8; 9] = b"swckpt-v1";

/// Current format version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// One host-side interaction recorded for deterministic resume.
///
/// The algorithm drivers are host loops: they launch kernels and read
/// device memory (convergence flags, frontier counts) to decide control
/// flow. A resumed run re-executes the driver from its start in *replay*
/// mode — reads pop from this log, writes are suppressed (device memory
/// already holds the checkpointed contents), and launches return their
/// logged statistics without simulating — until the log drains at the
/// checkpoint boundary and the runtime switches back to live execution.
// The size skew between the variants is fine: the host log holds one
// `LaunchDone` per kernel launch and the stats payload is what resume
// replays — boxing it would only add indirection to the hot replay path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum HostEvent {
    /// A host read of device memory, as raw little-endian bits.
    Read(u64),
    /// A completed kernel launch and the statistics it returned.
    LaunchDone(KernelStats),
}

/// A complete simulator state snapshot at a kernel-launch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// FNV-1a fingerprint of the effective `GpuConfig` (its `Debug`
    /// rendering).
    pub config_fp: u64,
    /// FNV-1a fingerprint of the input graph's CSR arrays.
    pub graph_fp: u64,
    /// The original `swsim run` argument vector (after the subcommand),
    /// embedded so `swsim resume` can rebuild the graph, algorithm and
    /// session without re-stating flags.
    pub argv: Vec<String>,
    /// The schedule the checkpointed machine is executing.
    pub schedule: Schedule,
    /// When the session fell back to `S_wm` after Weaver retry
    /// exhaustion: the original schedule and the kernel that timed out.
    pub fell_back_from: Option<(Schedule, String)>,
    /// Kernel launches completed so far (the checkpoint cadence counter).
    pub launches: u64,
    /// The runtime's bump-allocator cursor.
    pub next_alloc: u64,
    /// Launch retries performed after Weaver timeouts.
    pub weaver_retries: u64,
    /// Accumulated whole-run statistics.
    pub total: KernelStats,
    /// Accumulated per-kernel statistics, in first-launch order.
    pub per_kernel: Vec<(String, KernelStats)>,
    /// The ordered host-interaction log up to this checkpoint.
    pub host_log: Vec<HostEvent>,
    /// The machine section: the GPU's [`Snapshot`], then the tracer,
    /// profiler and fault injector, each behind a presence byte. Only
    /// `Runtime::resume_from` decodes it, in place into a rebuilt machine
    /// (see [`Checkpoint::machine_decoder`]).
    pub machine: Vec<u8>,
}

/// Why a checkpoint could not be written, read, or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// An I/O operation failed.
    Io {
        /// What failed and the OS error.
        what: String,
    },
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The file's format version is not [`CHECKPOINT_VERSION`].
    BadVersion {
        /// The version the file declared.
        found: u32,
    },
    /// The payload ended before a field was fully read (in the machine
    /// section: a field ran past the section's declared length).
    Truncated {
        /// Byte offset (within the payload) at which decoding stopped.
        offset: usize,
    },
    /// The payload is structurally invalid (bad tag, bad UTF-8, trailing
    /// bytes, out-of-range id).
    Corrupt {
        /// What was wrong.
        what: String,
    },
    /// The checkpoint was taken under a different GPU configuration.
    ConfigMismatch {
        /// Fingerprint of the configuration being restored into.
        expected: u64,
        /// Fingerprint embedded in the checkpoint.
        found: u64,
    },
    /// The checkpoint was taken against a different graph.
    GraphMismatch {
        /// Fingerprint of the graph being restored into.
        expected: u64,
        /// Fingerprint embedded in the checkpoint.
        found: u64,
    },
    /// The machine section does not fit the rebuilt machine (wrong core
    /// count, warp width, table capacity, an observer present on one side
    /// only, ...).
    Restore {
        /// The layered restore error (`"core 3: warp 1: ..."`).
        what: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { what } => write!(f, "checkpoint I/O error: {what}"),
            CheckpointError::BadMagic => {
                write!(f, "not a SparseWeaver checkpoint (bad magic; expected `swckpt-v1`)")
            }
            CheckpointError::BadVersion { found } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {CHECKPOINT_VERSION})"
            ),
            CheckpointError::Truncated { offset } => {
                write!(f, "checkpoint truncated at payload offset {offset}")
            }
            CheckpointError::Corrupt { what } => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different GPU configuration \
                 (fingerprint {found:#018x}, this run is {expected:#018x}); \
                 resume with the original flags"
            ),
            CheckpointError::GraphMismatch { expected, found } => write!(
                f,
                "checkpoint was taken against a different graph \
                 (fingerprint {found:#018x}, this run is {expected:#018x}); \
                 resume with the original graph"
            ),
            CheckpointError::Restore { what } => {
                write!(f, "checkpoint does not fit the rebuilt machine: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { offset } => CheckpointError::Truncated { offset },
            CodecError::Corrupt { what } => CheckpointError::Corrupt { what },
            CodecError::Restore { what } => CheckpointError::Restore { what },
        }
    }
}

impl Checkpoint {
    /// Serializes the checkpoint: magic, version, the host header, then
    /// the length-prefixed machine section.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.raw(CHECKPOINT_MAGIC);
        self.encode_header(&mut e);
        e.bytes(&self.machine);
        e.into_bytes()
    }

    /// Everything after the magic up to the machine section.
    fn encode_header(&self, e: &mut Enc) {
        e.u32(CHECKPOINT_VERSION);
        e.u64(self.config_fp);
        e.u64(self.graph_fp);
        self.argv.save(e);
        e.u8(self.schedule.stable_id());
        e.opt(self.fell_back_from.as_ref(), |(s, kernel), e| {
            e.u8(s.stable_id());
            e.str(kernel);
        });
        e.u64(self.launches);
        e.u64(self.next_alloc);
        e.u64(self.weaver_retries);
        self.total.save(e);
        self.per_kernel.save(e);
        e.usize(self.host_log.len());
        for ev in &self.host_log {
            match ev {
                HostEvent::Read(bits) => {
                    e.u8(0);
                    e.u64(*bits);
                }
                HostEvent::LaunchDone(stats) => {
                    e.u8(1);
                    stats.save(e);
                }
            }
        }
    }

    /// Decodes a checkpoint from `bytes`. The machine section is checked
    /// for length only; its contents are decoded on resume.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let Some(payload) = bytes.strip_prefix(CHECKPOINT_MAGIC) else {
            return Err(CheckpointError::BadMagic);
        };
        let mut d = Dec::new(payload);
        let version = d.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion { found: version });
        }
        let ck = Checkpoint {
            config_fp: d.u64()?,
            graph_fp: d.u64()?,
            argv: d.list(8, Dec::str)?,
            schedule: decode_schedule(&mut d)?,
            fell_back_from: d.opt(|d| Ok((decode_schedule(d)?, d.str()?)))?,
            launches: d.u64()?,
            next_alloc: d.u64()?,
            weaver_retries: d.u64()?,
            total: d.value()?,
            per_kernel: d.value()?,
            host_log: d.list(1, |d| match d.u8()? {
                0 => Ok(HostEvent::Read(d.u64()?)),
                1 => Ok(HostEvent::LaunchDone(d.value()?)),
                t => Err(d.corrupt(format!("bad host-event tag {t}"))),
            })?,
            machine: d.bytes()?.to_vec(),
        };
        d.finish()?;
        Ok(ck)
    }

    /// A decoder over the machine section whose errors name payload
    /// offsets, as the header's do.
    pub fn machine_decoder(&self) -> Dec<'_> {
        let mut header = Enc::new();
        self.encode_header(&mut header);
        Dec::at(&self.machine, header.into_bytes().len() + 8)
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename),
    /// so an interrupted write never clobbers a previous good checkpoint.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        write_atomic(path, &self.encode()).map_err(|e| CheckpointError::Io {
            what: format!("writing checkpoint {}: {e}", path.display()),
        })
    }

    /// Reads and decodes a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = fs::read(path).map_err(|e| CheckpointError::Io {
            what: format!("reading checkpoint {}: {e}", path.display()),
        })?;
        Checkpoint::decode(&bytes)
    }

    /// Refuses the checkpoint unless it was taken under exactly this GPU
    /// configuration and graph (by FNV-1a fingerprint).
    pub fn verify(&self, config_fp: u64, graph_fp: u64) -> Result<(), CheckpointError> {
        if self.config_fp != config_fp {
            return Err(CheckpointError::ConfigMismatch {
                expected: config_fp,
                found: self.config_fp,
            });
        }
        if self.graph_fp != graph_fp {
            return Err(CheckpointError::GraphMismatch {
                expected: graph_fp,
                found: self.graph_fp,
            });
        }
        Ok(())
    }
}

fn decode_schedule(d: &mut Dec<'_>) -> Result<Schedule, CodecError> {
    let id = d.u8()?;
    Schedule::from_stable_id(id).ok_or_else(|| d.corrupt(format!("unknown schedule id {id}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A checkpoint exercising every header branch: both `Option` arms of
    /// the fallback (via two checkpoints) and both host-event kinds. The
    /// machine section is opaque to `decode`; its codec is covered next to
    /// each component and by the restore→save identity test in
    /// `runtime.rs`.
    fn sample() -> Checkpoint {
        let stats = KernelStats {
            cycles: 1000,
            instructions: 500,
            weaver_counters: (11, 12, 13),
            launches: 2,
            ..KernelStats::default()
        };
        Checkpoint {
            config_fp: 0xDEAD_BEEF_CAFE_F00D,
            graph_fp: 0x0123_4567_89AB_CDEF,
            argv: vec!["--algo".into(), "bfs".into()],
            schedule: Schedule::SparseWeaver,
            fell_back_from: Some((Schedule::SparseWeaver, "scatter".into())),
            launches: 7,
            next_alloc: 4096,
            weaver_retries: 1,
            total: stats.clone(),
            per_kernel: vec![("k".into(), stats.clone())],
            host_log: vec![
                HostEvent::Read(42),
                HostEvent::LaunchDone(stats),
                HostEvent::Read(u64::MAX),
            ],
            machine: (0u8..64).collect(),
        }
    }

    #[test]
    fn header_round_trips_and_machine_section_is_length_prefixed() {
        let mut ck = sample();
        assert_eq!(Checkpoint::decode(&ck.encode()).unwrap(), ck);
        ck.fell_back_from = None;
        let bytes = ck.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), ck);
        // The machine section closes the file, behind its u64 length, and
        // its decoder names payload offsets (the payload follows the magic).
        let section = bytes.len() - ck.machine.len();
        assert_eq!(&bytes[section..], &ck.machine[..]);
        assert_eq!(
            bytes[section - 8..section],
            (ck.machine.len() as u64).to_le_bytes()
        );
        assert_eq!(
            ck.machine_decoder().offset(),
            section - CHECKPOINT_MAGIC.len()
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::BadMagic)
        ));
        assert!(matches!(
            Checkpoint::decode(b"sw"),
            Err(CheckpointError::BadMagic)
        ));
        assert!(matches!(
            Checkpoint::decode(b""),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = sample().encode();
        let at = CHECKPOINT_MAGIC.len();
        bytes[at..at + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::BadVersion { found: 99 })
        ));
        // A version-1 file (same magic, per-field machine payload) is
        // refused by its version word alone.
        bytes[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::BadVersion { found: 1 })
        ));
    }

    #[test]
    fn rejects_truncation_at_every_prefix_length() {
        let bytes = sample().encode();
        // Every strict prefix must fail loudly — never panic, never
        // succeed. Step through all lengths; this also covers mid-field
        // cuts and cuts inside the machine section.
        for len in 0..bytes.len() {
            match Checkpoint::decode(&bytes[..len]) {
                Err(
                    CheckpointError::BadMagic
                    | CheckpointError::Truncated { .. }
                    | CheckpointError::Corrupt { .. },
                ) => {}
                other => panic!("prefix of {len} bytes: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn rejects_implausible_sequence_length() {
        let ck = sample();
        let mut bytes = ck.encode();
        // The argv length is the first u64 after magic+version+fps.
        let at = CHECKPOINT_MAGIC.len() + 4 + 8 + 8;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn verify_refuses_mismatched_fingerprints() {
        let ck = sample();
        assert!(ck.verify(ck.config_fp, ck.graph_fp).is_ok());
        assert!(matches!(
            ck.verify(ck.config_fp ^ 1, ck.graph_fp),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        assert!(matches!(
            ck.verify(ck.config_fp, ck.graph_fp ^ 1),
            Err(CheckpointError::GraphMismatch { .. })
        ));
    }

    #[test]
    fn save_load_round_trip_and_no_temp_left_behind() {
        let dir = std::env::temp_dir().join(format!("swckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.swckpt");
        let ck = sample();
        ck.save(&path).expect("save");
        let back = Checkpoint::load(&path).expect("load");
        assert_eq!(back, ck);
        // Overwrite goes through the same atomic path.
        ck.save(&path).expect("second save");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let missing = Path::new("/nonexistent/definitely/not/here.swckpt");
        assert!(matches!(
            Checkpoint::load(missing),
            Err(CheckpointError::Io { .. })
        ));
    }
}
