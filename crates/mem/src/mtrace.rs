//! `swmtrace-v1`: a compact binary per-warp memory-access trace.
//!
//! The capture side of the trace-capture/replay memory-study mode. A
//! [`Recorder`] rides next to the tracer and profiler in the
//! [`crate::Hooks`] the GPU lends to [`crate::Hierarchy`] and the
//! simulator cores, and records every
//! timing-path memory-hierarchy request — coalesced line accesses, EGHW
//! unit lookups, atomics — plus kernel-launch and barrier records, in
//! exactly the order the hierarchy served them. Replaying that sequence
//! against a fresh [`crate::Hierarchy`] (see [`crate::replay`])
//! reproduces the live run's [`crate::LevelStats`] bit for bit, because
//! the hierarchy's state is a pure function of its call sequence.
//!
//! # On-disk format
//!
//! All multi-byte fixed fields are little-endian; `varint` is LEB128
//! (7 bits per byte, high bit = continuation).
//!
//! ```text
//! header:
//!   magic     8 bytes  b"swmtrace"
//!   version   u16      1
//!   config    the capture HierarchyConfig:
//!             num_cores u32,
//!             l1 size u64 + ways u32, l2 size u64 + ways u32,
//!             l3 present u8 (+ size u64 + ways u32 when 1),
//!             l1/l2/l3/dram latency u64 x4, dram_freq_ratio u64,
//!             l1/l2/dram/atomic ports u64 x4
//! records (tag u8, then):
//!   0x01 kernel-launch  name_len varint, name bytes (UTF-8)
//!   0x02 access         flags u8 (bit0 write, bit1 unqueued,
//!                       bits 2-3 level hint), core varint, warp varint,
//!                       cycle varint (0 for unqueued), line addr varint
//!   0x03 atomic         flags u8 (bits 2-3 level hint), core varint,
//!                       warp varint, cycle varint, addr varint
//!   0x04 barrier        core varint, warp varint, cycle varint
//!   0xff footer         record count varint, live LevelStats
//!                       (l1/l2 accesses+hits+misses+writebacks varint x8,
//!                       l3 present u8 (+ 4 varints), dram varint)
//! ```
//!
//! The footer carries the live run's final cumulative stats: a trace is
//! self-verifying (`swreplay verify`), and a file without a footer is
//! typed as truncated rather than silently replayed short. The level
//! *hint* is the level that served the access under the capture
//! configuration — diagnostic only; a replay under a different geometry
//! recomputes levels from scratch.

use std::io;
use std::path::Path;

use sparseweaver_trace::codec::{CodecError, Dec, Enc, OutStream};

use crate::cache::CacheConfig;
use crate::hierarchy::{HierarchyConfig, HitLevel, LevelStats, MemAccess, MemPort};
use crate::CacheStats;

/// The 8-byte file magic.
pub const MTRACE_MAGIC: &[u8; 8] = b"swmtrace";
/// Format version written and accepted.
pub const MTRACE_VERSION: u16 = 1;

const TAG_KERNEL: u8 = 0x01;
const TAG_ACCESS: u8 = 0x02;
const TAG_ATOMIC: u8 = 0x03;
const TAG_BARRIER: u8 = 0x04;
const TAG_FOOTER: u8 = 0xff;

const FLAG_WRITE: u8 = 1 << 0;
const FLAG_UNQUEUED: u8 = 1 << 1;

fn level_code(level: HitLevel) -> u8 {
    match level {
        HitLevel::L1 => 0,
        HitLevel::L2 => 1,
        HitLevel::L3 => 2,
        HitLevel::Dram => 3,
    }
}

fn level_from(code: u8) -> HitLevel {
    match code & 0b11 {
        0 => HitLevel::L1,
        1 => HitLevel::L2,
        2 => HitLevel::L3,
        _ => HitLevel::Dram,
    }
}

/// One decoded trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemRecord {
    /// A kernel launch: simulated time restarts at zero and the replay
    /// resets the hierarchy's port clocks, mirroring
    /// [`crate::Hierarchy::reset_ports`] in the live `Gpu::launch`.
    KernelLaunch {
        /// The kernel's name.
        name: String,
    },
    /// One coalesced line access ([`crate::Hierarchy::access`], or
    /// [`crate::Hierarchy::access_unqueued`] when `unqueued`).
    Access {
        /// Issuing core.
        core: u32,
        /// Issuing warp (the instruction's warp at the core hook).
        warp: u32,
        /// Issue cycle within the launch (0 for unqueued unit lookups,
        /// which carry no GPU timestamp).
        cycle: u64,
        /// The accessed (line-aligned) address.
        addr: u64,
        /// Whether the access was a store.
        write: bool,
        /// Whether this was an EGHW unit-port lookup (no port queueing).
        unqueued: bool,
        /// The level that served the access under the capture config.
        level: HitLevel,
    },
    /// An atomic read-modify-write ([`crate::Hierarchy::atomic`]).
    Atomic {
        /// Issuing core.
        core: u32,
        /// Issuing warp.
        warp: u32,
        /// Issue cycle within the launch.
        cycle: u64,
        /// The accessed address.
        addr: u64,
        /// The level that served the atomic under the capture config.
        level: HitLevel,
    },
    /// A warp arriving at a barrier (diagnostic; replay ignores it).
    Barrier {
        /// The core whose warp arrived.
        core: u32,
        /// The arriving warp.
        warp: u32,
        /// Arrival cycle within the launch.
        cycle: u64,
    },
}

/// A fully parsed `swmtrace-v1` file.
#[derive(Debug, Clone, PartialEq)]
pub struct MemTrace {
    /// The configuration the trace was captured under.
    pub config: HierarchyConfig,
    /// The records, in hierarchy service order.
    pub records: Vec<MemRecord>,
    /// The live run's final cumulative stats (from the footer) — the
    /// bit-identity anchor a replay under [`MemTrace::config`] must
    /// reproduce.
    pub live_stats: LevelStats,
}

impl MemTrace {
    /// Per-kind record counts `(kernels, accesses, unqueued, atomics,
    /// barriers)`.
    pub fn counts(&self) -> (u64, u64, u64, u64, u64) {
        let (mut k, mut a, mut u, mut at, mut b) = (0, 0, 0, 0, 0);
        for r in &self.records {
            match r {
                MemRecord::KernelLaunch { .. } => k += 1,
                MemRecord::Access {
                    unqueued: false, ..
                } => a += 1,
                MemRecord::Access { unqueued: true, .. } => u += 1,
                MemRecord::Atomic { .. } => at += 1,
                MemRecord::Barrier { .. } => b += 1,
            }
        }
        (k, a, u, at, b)
    }
}

/// Parses a `swmtrace-v1` document from `bytes`.
///
/// # Errors
///
/// A typed [`CodecError`] naming the offending byte offset:
/// [`CodecError::Truncated`] when a field runs past the end, and
/// [`CodecError::Corrupt`] on a bad magic/version, an unknown record tag,
/// a record whose core index is out of the header's range, a missing
/// footer (truncated capture), a footer record-count mismatch, or
/// trailing bytes after the footer.
pub fn parse(bytes: &[u8]) -> Result<MemTrace, CodecError> {
    let mut d = Dec::new(bytes);
    if d.raw(MTRACE_MAGIC.len())? != MTRACE_MAGIC {
        return Err(CodecError::corrupt_at(0, "bad magic (not a swmtrace file)"));
    }
    let version = d.u16()?;
    if version != MTRACE_VERSION {
        return Err(CodecError::corrupt_at(
            MTRACE_MAGIC.len(),
            format!("unsupported version {version} (expected {MTRACE_VERSION})"),
        ));
    }
    let num_cores = d.u32()?;
    if num_cores == 0 {
        return Err(d.corrupt("config has zero cores"));
    }
    let cache = |d: &mut Dec<'_>| -> Result<CacheConfig, CodecError> {
        Ok(CacheConfig {
            size_bytes: d.u64()?,
            ways: d.u32()?,
        })
    };
    let l1 = cache(&mut d)?;
    let l2 = cache(&mut d)?;
    let l3 = match d.u8()? {
        0 => None,
        1 => Some(cache(&mut d)?),
        _ => return Err(d.corrupt("config l3 flag must be 0 or 1")),
    };
    let config = HierarchyConfig {
        num_cores: num_cores as usize,
        l1,
        l2,
        l3,
        l1_latency: d.u64()?,
        l2_latency: d.u64()?,
        l3_latency: d.u64()?,
        dram_latency: d.u64()?,
        dram_freq_ratio: d.u64()?,
        l1_ports: d.u64()?,
        l2_ports: d.u64()?,
        dram_ports: d.u64()?,
        atomic_ports: d.u64()?,
    };

    let mut records = Vec::new();
    let core = |d: &mut Dec<'_>| -> Result<u32, CodecError> {
        let c = d.varint()?;
        if c >= u64::from(num_cores) {
            return Err(d.corrupt(format!(
                "core {c} out of range (trace has {num_cores} cores)"
            )));
        }
        Ok(c as u32)
    };
    let warp = |d: &mut Dec<'_>| d.varint().map(|w| w as u32);
    let cache_stats = |d: &mut Dec<'_>| -> Result<CacheStats, CodecError> {
        Ok(CacheStats {
            accesses: d.varint()?,
            hits: d.varint()?,
            misses: d.varint()?,
            writebacks: d.varint()?,
        })
    };
    loop {
        let at = d.offset();
        let tag = d
            .u8()
            .map_err(|_| CodecError::corrupt_at(at, "missing footer (truncated capture?)"))?;
        match tag {
            TAG_KERNEL => {
                let len = d.varint()? as usize;
                let name = std::str::from_utf8(d.raw(len)?)
                    .map_err(|_| CodecError::corrupt_at(at, "kernel name is not UTF-8"))?
                    .to_string();
                records.push(MemRecord::KernelLaunch { name });
            }
            TAG_ACCESS => {
                let flags = d.u8()?;
                records.push(MemRecord::Access {
                    core: core(&mut d)?,
                    warp: warp(&mut d)?,
                    cycle: d.varint()?,
                    addr: d.varint()?,
                    write: flags & FLAG_WRITE != 0,
                    unqueued: flags & FLAG_UNQUEUED != 0,
                    level: level_from(flags >> 2),
                });
            }
            TAG_ATOMIC => {
                let flags = d.u8()?;
                records.push(MemRecord::Atomic {
                    core: core(&mut d)?,
                    warp: warp(&mut d)?,
                    cycle: d.varint()?,
                    addr: d.varint()?,
                    level: level_from(flags >> 2),
                });
            }
            TAG_BARRIER => records.push(MemRecord::Barrier {
                core: core(&mut d)?,
                warp: warp(&mut d)?,
                cycle: d.varint()?,
            }),
            TAG_FOOTER => {
                let count = d.varint()?;
                if count != records.len() as u64 {
                    return Err(CodecError::corrupt_at(
                        at,
                        format!("footer claims {count} records, file has {}", records.len()),
                    ));
                }
                let l1 = cache_stats(&mut d)?;
                let l2 = cache_stats(&mut d)?;
                let l3 = match d.u8()? {
                    0 => None,
                    1 => Some(cache_stats(&mut d)?),
                    _ => return Err(d.corrupt("footer l3 flag must be 0 or 1")),
                };
                let dram_accesses = d.varint()?;
                if d.offset() != bytes.len() {
                    return Err(d.corrupt("trailing bytes after footer"));
                }
                return Ok(MemTrace {
                    config,
                    records,
                    live_stats: LevelStats {
                        l1,
                        l2,
                        l3,
                        dram_accesses,
                    },
                });
            }
            other => {
                return Err(CodecError::corrupt_at(
                    at,
                    format!("unknown record tag {other:#04x}"),
                ))
            }
        }
    }
}

/// Summary of a finished capture, carried on the session's run report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderSummary {
    /// Records written (kernel launches, accesses, atomics, barriers).
    pub records: u64,
    /// Bytes written, including header and footer.
    pub bytes: u64,
    /// First I/O error hit while streaming, if any: the file on disk is
    /// truncated and must not be presented as a complete capture.
    pub sink_error: Option<io::ErrorKind>,
}

/// The `swmtrace-v1` capture writer, fed through [`crate::Hooks`].
///
/// A file capture is staged in a temporary and renamed over its path by
/// [`Recorder::finalize`]; a recorder dropped without finalizing (a
/// failed run) deletes the temporary, so the path never holds a capture
/// without its footer.
#[derive(Debug)]
pub struct Recorder {
    out: OutStream,
    /// Each record is encoded here, then written once.
    scratch: Enc,
    /// Warp context, set by the issuing core before its hierarchy calls
    /// (the hierarchy itself does not know which warp is accessing).
    warp: u32,
    records: u64,
    finalized: bool,
}

impl Recorder {
    fn with_stream(out: OutStream, cfg: &HierarchyConfig) -> Self {
        let mut e = Enc::new();
        e.raw(MTRACE_MAGIC);
        e.u16(MTRACE_VERSION);
        e.u32(cfg.num_cores as u32);
        let cache = |c: &CacheConfig, e: &mut Enc| {
            e.u64(c.size_bytes);
            e.u32(c.ways);
        };
        cache(&cfg.l1, &mut e);
        cache(&cfg.l2, &mut e);
        e.opt(cfg.l3.as_ref(), cache);
        for v in [
            cfg.l1_latency,
            cfg.l2_latency,
            cfg.l3_latency,
            cfg.dram_latency,
            cfg.dram_freq_ratio,
            cfg.l1_ports,
            cfg.l2_ports,
            cfg.dram_ports,
            cfg.atomic_ports,
        ] {
            e.u64(v);
        }
        let mut rec = Recorder {
            out,
            scratch: e,
            warp: 0,
            records: 0,
            finalized: false,
        };
        rec.emit();
        rec
    }

    /// Creates a recorder streaming to `path` (`-` for stdout) and
    /// writes the header for the capture configuration `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created. Write errors
    /// *after* creation latch into the summary [`Recorder::finalize`]
    /// returns instead, so a run is never aborted mid-flight by a full
    /// disk.
    pub fn create(path: &Path, cfg: &HierarchyConfig) -> io::Result<Self> {
        Ok(Self::with_stream(OutStream::staged(path)?, cfg))
    }

    /// Creates a recorder capturing into memory (for tests); retrieve
    /// the document with [`Recorder::take_bytes`].
    pub fn in_memory(cfg: &HierarchyConfig) -> Self {
        Self::with_stream(OutStream::memory(), cfg)
    }

    /// Writes the encoded record in `scratch` to the stream.
    fn emit(&mut self) {
        if !self.finalized {
            self.out.write(self.scratch.as_bytes());
        }
        self.scratch.clear();
    }

    /// Sets the warp context for subsequent hierarchy records, on every
    /// warp issue ([`crate::Hooks::warp_issue`]): the hierarchy does not
    /// know which warp is behind a request.
    pub fn set_warp(&mut self, warp: u32) {
        self.warp = warp;
    }

    /// Records a kernel launch (replay resets port clocks here).
    pub fn kernel_launch(&mut self, name: &str) {
        self.scratch.u8(TAG_KERNEL);
        self.scratch.varint(name.len() as u64);
        self.scratch.raw(name.as_bytes());
        self.records += 1;
        self.emit();
    }

    /// Records one hierarchy request: an access record for a queued or
    /// unit-port request (the unit's carries no cycle), an atomic record
    /// for an atomic.
    pub fn access(&mut self, a: &MemAccess) {
        let mut flags = level_code(a.level) << 2;
        if a.port != MemPort::Atomic && a.write {
            flags |= FLAG_WRITE;
        }
        if a.port == MemPort::Unit {
            flags |= FLAG_UNQUEUED;
        }
        let tag = match a.port {
            MemPort::Atomic => TAG_ATOMIC,
            MemPort::Queued | MemPort::Unit => TAG_ACCESS,
        };
        let e = &mut self.scratch;
        e.u8(tag);
        e.u8(flags);
        e.varint(a.core as u64);
        e.varint(u64::from(self.warp));
        e.varint(a.cycle);
        e.varint(a.addr);
        self.records += 1;
        self.emit();
    }

    /// Records a warp arriving at a barrier.
    pub fn barrier(&mut self, core: usize, warp: u32, cycle: u64) {
        self.scratch.u8(TAG_BARRIER);
        self.scratch.varint(core as u64);
        self.scratch.varint(u64::from(warp));
        self.scratch.varint(cycle);
        self.records += 1;
        self.emit();
    }

    /// Writes the footer carrying the live run's final cumulative
    /// `stats`, publishes the capture, and returns its summary. Records
    /// after finalization are dropped.
    pub fn finalize(&mut self, stats: &LevelStats) -> RecorderSummary {
        if !self.finalized {
            let e = &mut self.scratch;
            e.u8(TAG_FOOTER);
            e.varint(self.records);
            let cache_stats = |s: &CacheStats, e: &mut Enc| {
                e.varint(s.accesses);
                e.varint(s.hits);
                e.varint(s.misses);
                e.varint(s.writebacks);
            };
            cache_stats(&stats.l1, e);
            cache_stats(&stats.l2, e);
            e.opt(stats.l3.as_ref(), cache_stats);
            e.varint(stats.dram_accesses);
            self.emit();
            self.out.commit();
            self.finalized = true;
        }
        RecorderSummary {
            records: self.records,
            bytes: self.out.bytes(),
            sink_error: self.out.error(),
        }
    }

    /// Takes the captured bytes out of an in-memory recorder (`None`
    /// for file/stdout sinks).
    pub fn take_bytes(&mut self) -> Option<Vec<u8>> {
        self.out.take_memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture_cfg() -> HierarchyConfig {
        let mut cfg = HierarchyConfig::vortex_default(2);
        cfg.l3 = Some(CacheConfig::new(64 * 1024, 16));
        cfg
    }

    fn sample_bytes() -> Vec<u8> {
        let cfg = capture_cfg();
        let mut rec = Recorder::in_memory(&cfg);
        rec.kernel_launch("gather");
        rec.set_warp(3);
        let req = |core, addr, write, cycle, port, level| MemAccess {
            core,
            addr,
            write,
            cycle,
            port,
            queue_delay: 0,
            level,
            latency: 0,
        };
        let queued = MemPort::Queued;
        rec.access(&req(0, 0x1c0, false, 7, queued, HitLevel::Dram));
        rec.access(&req(1, 0x200, true, 9, queued, HitLevel::L2));
        rec.access(&req(0, 0x40, false, 0, MemPort::Unit, HitLevel::L1));
        rec.access(&req(1, 0x88, true, 12, MemPort::Atomic, HitLevel::Dram));
        rec.barrier(0, 3, 20);
        let stats = LevelStats {
            l1: CacheStats {
                accesses: 3,
                hits: 1,
                misses: 2,
                writebacks: 0,
            },
            l2: CacheStats {
                accesses: 2,
                hits: 1,
                misses: 1,
                writebacks: 0,
            },
            l3: Some(CacheStats::default()),
            dram_accesses: 2,
        };
        let summary = rec.finalize(&stats);
        assert_eq!(summary.records, 6);
        assert_eq!(summary.sink_error, None);
        rec.take_bytes().expect("in-memory sink")
    }

    #[test]
    fn round_trip() {
        let bytes = sample_bytes();
        let trace = parse(&bytes).expect("well-formed trace");
        assert_eq!(trace.config, capture_cfg());
        assert_eq!(trace.records.len(), 6);
        assert_eq!(
            trace.records[0],
            MemRecord::KernelLaunch {
                name: "gather".into()
            }
        );
        assert_eq!(
            trace.records[1],
            MemRecord::Access {
                core: 0,
                warp: 3,
                cycle: 7,
                addr: 0x1c0,
                write: false,
                unqueued: false,
                level: HitLevel::Dram,
            }
        );
        assert_eq!(
            trace.records[3],
            MemRecord::Access {
                core: 0,
                warp: 3,
                cycle: 0,
                addr: 0x40,
                write: false,
                unqueued: true,
                level: HitLevel::L1,
            }
        );
        assert_eq!(
            trace.records[5],
            MemRecord::Barrier {
                core: 0,
                warp: 3,
                cycle: 20
            }
        );
        assert_eq!(trace.live_stats.dram_accesses, 2);
        assert_eq!(trace.counts(), (1, 2, 1, 1, 1));
    }

    #[test]
    fn truncated_trace_is_typed_with_offset() {
        let bytes = sample_bytes();
        // Drop the footer and half a record.
        let cut = &bytes[..bytes.len() - 25];
        let e = parse(cut).expect_err("truncated");
        assert!(
            matches!(e, CodecError::Truncated { offset } if offset > 0),
            "{e}"
        );
        assert!(e.to_string().contains("byte offset"));
    }

    #[test]
    fn missing_footer_is_reported() {
        let cfg = capture_cfg();
        let mut rec = Recorder::in_memory(&cfg);
        rec.kernel_launch("k");
        // No finalize: the capture is incomplete.
        let bytes = rec.take_bytes().unwrap();
        let e = parse(&bytes).expect_err("no footer");
        assert_eq!(
            e,
            CodecError::corrupt_at(bytes.len(), "missing footer (truncated capture?)")
        );
    }

    #[test]
    fn unknown_tag_is_typed() {
        let mut bytes = sample_bytes();
        // Corrupt the first record tag, right after the fixed header.
        let header_len = 8 + 2 + 4 + (8 + 4) * 3 + 1 + 8 * 9;
        bytes[header_len] = 0x7e;
        let e = parse(&bytes).expect_err("bad tag");
        assert_eq!(
            e,
            CodecError::corrupt_at(header_len, "unknown record tag 0x7e")
        );
    }

    #[test]
    fn core_out_of_range_is_typed() {
        let cfg = HierarchyConfig::vortex_default(1);
        let mut rec = Recorder::in_memory(&cfg);
        rec.access(&MemAccess {
            core: 5, // of 1
            addr: 0x40,
            write: false,
            cycle: 0,
            port: MemPort::Queued,
            queue_delay: 0,
            level: HitLevel::L1,
            latency: 0,
        });
        rec.finalize(&LevelStats::default());
        let bytes = rec.take_bytes().unwrap();
        let e = parse(&bytes).expect_err("core out of range");
        assert!(
            e.to_string()
                .contains("core 5 out of range (trace has 1 cores)"),
            "{e}"
        );
    }

    #[test]
    fn footer_count_mismatch_is_typed() {
        let bytes = sample_bytes();
        // Splice out the final barrier record (tag + three 1-byte
        // varints = 4 bytes before the footer tag): footer still claims
        // 6 records.
        let footer_at = bytes
            .iter()
            .rposition(|&b| b == TAG_FOOTER)
            .expect("footer tag");
        let mut cut = Vec::new();
        cut.extend_from_slice(&bytes[..footer_at - 4]);
        cut.extend_from_slice(&bytes[footer_at..]);
        let e = parse(&cut).expect_err("count mismatch");
        assert_eq!(
            e,
            CodecError::corrupt_at(footer_at - 4, "footer claims 6 records, file has 5")
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let e = parse(b"notatrace!!").expect_err("bad magic");
        assert_eq!(
            e,
            CodecError::corrupt_at(0, "bad magic (not a swmtrace file)")
        );
    }
}
