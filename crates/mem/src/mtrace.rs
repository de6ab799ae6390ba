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

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

use sparseweaver_trace::codec::tmp_path;

use crate::cache::CacheConfig;
use crate::hierarchy::{HierarchyConfig, HitLevel, LevelStats};
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

/// A typed parse error, carrying the byte offset of the offending data
/// so a truncated or corrupt trace names where it went wrong instead of
/// aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemTraceError {
    /// Byte offset into the file at which the error was detected.
    pub offset: u64,
    /// What was wrong there.
    pub what: String,
}

impl fmt::Display for MemTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corrupt memory trace at byte offset {}: {}",
            self.offset, self.what
        )
    }
}

impl std::error::Error for MemTraceError {}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: impl Into<String>) -> MemTraceError {
        MemTraceError {
            offset: self.pos as u64,
            what: what.into(),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, MemTraceError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err(format!("truncated {what}")))?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], MemTraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.err(format!("truncated {what}")))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self, what: &str) -> Result<u16, MemTraceError> {
        let b = self.bytes(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, MemTraceError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, MemTraceError> {
        let b = self.bytes(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn varint(&mut self, what: &str) -> Result<u64, MemTraceError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8(what)?;
            if shift >= 63 && b > 1 {
                return Err(self.err(format!("varint overflow in {what}")));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn cache_stats(&mut self, what: &str) -> Result<CacheStats, MemTraceError> {
        Ok(CacheStats {
            accesses: self.varint(what)?,
            hits: self.varint(what)?,
            misses: self.varint(what)?,
            writebacks: self.varint(what)?,
        })
    }
}

/// Parses a `swmtrace-v1` document from `bytes`.
///
/// # Errors
///
/// Returns a [`MemTraceError`] (with the offending byte offset) on a bad
/// magic/version, an unknown record tag, a record whose core index is
/// out of the header's range, a missing footer (truncated capture), a
/// footer record-count mismatch, or trailing bytes after the footer.
pub fn parse(bytes: &[u8]) -> Result<MemTrace, MemTraceError> {
    let mut p = Parser { bytes, pos: 0 };
    let magic = p.bytes(8, "magic")?;
    if magic != MTRACE_MAGIC {
        return Err(MemTraceError {
            offset: 0,
            what: "bad magic (not a swmtrace file)".into(),
        });
    }
    let version = p.u16("version")?;
    if version != MTRACE_VERSION {
        return Err(MemTraceError {
            offset: 8,
            what: format!("unsupported version {version} (expected {MTRACE_VERSION})"),
        });
    }
    let num_cores = p.u32("config num_cores")?;
    if num_cores == 0 {
        return Err(p.err("config has zero cores"));
    }
    let cache = |p: &mut Parser<'_>, what: &str| -> Result<CacheConfig, MemTraceError> {
        Ok(CacheConfig {
            size_bytes: p.u64(what)?,
            ways: p.u32(what)?,
        })
    };
    let l1 = cache(&mut p, "config l1")?;
    let l2 = cache(&mut p, "config l2")?;
    let l3 = match p.u8("config l3 flag")? {
        0 => None,
        1 => Some(cache(&mut p, "config l3")?),
        _ => return Err(p.err("config l3 flag must be 0 or 1")),
    };
    let config = HierarchyConfig {
        num_cores: num_cores as usize,
        l1,
        l2,
        l3,
        l1_latency: p.u64("config l1_latency")?,
        l2_latency: p.u64("config l2_latency")?,
        l3_latency: p.u64("config l3_latency")?,
        dram_latency: p.u64("config dram_latency")?,
        dram_freq_ratio: p.u64("config dram_freq_ratio")?,
        l1_ports: p.u64("config l1_ports")?,
        l2_ports: p.u64("config l2_ports")?,
        dram_ports: p.u64("config dram_ports")?,
        atomic_ports: p.u64("config atomic_ports")?,
    };

    let mut records = Vec::new();
    let core_of = |p: &Parser<'_>, c: u64| -> Result<u32, MemTraceError> {
        if c >= u64::from(num_cores) {
            return Err(MemTraceError {
                offset: p.pos as u64,
                what: format!("core {c} out of range (trace has {num_cores} cores)"),
            });
        }
        Ok(c as u32)
    };
    loop {
        let at = p.pos as u64;
        let tag = p.u8("record tag").map_err(|_| MemTraceError {
            offset: at,
            what: "missing footer (truncated capture?)".into(),
        })?;
        match tag {
            TAG_KERNEL => {
                let len = p.varint("kernel name length")? as usize;
                let raw = p.bytes(len, "kernel name")?;
                let name = std::str::from_utf8(raw)
                    .map_err(|_| MemTraceError {
                        offset: at,
                        what: "kernel name is not UTF-8".into(),
                    })?
                    .to_string();
                records.push(MemRecord::KernelLaunch { name });
            }
            TAG_ACCESS => {
                let flags = p.u8("access flags")?;
                let raw_core = p.varint("access core")?;
                let core = core_of(&p, raw_core)?;
                let warp = p.varint("access warp")? as u32;
                let cycle = p.varint("access cycle")?;
                let addr = p.varint("access addr")?;
                records.push(MemRecord::Access {
                    core,
                    warp,
                    cycle,
                    addr,
                    write: flags & FLAG_WRITE != 0,
                    unqueued: flags & FLAG_UNQUEUED != 0,
                    level: level_from(flags >> 2),
                });
            }
            TAG_ATOMIC => {
                let flags = p.u8("atomic flags")?;
                let raw_core = p.varint("atomic core")?;
                let core = core_of(&p, raw_core)?;
                let warp = p.varint("atomic warp")? as u32;
                let cycle = p.varint("atomic cycle")?;
                let addr = p.varint("atomic addr")?;
                records.push(MemRecord::Atomic {
                    core,
                    warp,
                    cycle,
                    addr,
                    level: level_from(flags >> 2),
                });
            }
            TAG_BARRIER => {
                let raw_core = p.varint("barrier core")?;
                let core = core_of(&p, raw_core)?;
                let warp = p.varint("barrier warp")? as u32;
                let cycle = p.varint("barrier cycle")?;
                records.push(MemRecord::Barrier { core, warp, cycle });
            }
            TAG_FOOTER => {
                let count = p.varint("footer record count")?;
                if count != records.len() as u64 {
                    return Err(MemTraceError {
                        offset: at,
                        what: format!("footer claims {count} records, file has {}", records.len()),
                    });
                }
                let l1 = p.cache_stats("footer l1 stats")?;
                let l2 = p.cache_stats("footer l2 stats")?;
                let l3 = match p.u8("footer l3 flag")? {
                    0 => None,
                    1 => Some(p.cache_stats("footer l3 stats")?),
                    _ => return Err(p.err("footer l3 flag must be 0 or 1")),
                };
                let dram_accesses = p.varint("footer dram accesses")?;
                if p.pos != bytes.len() {
                    return Err(p.err("trailing bytes after footer"));
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
                return Err(MemTraceError {
                    offset: at,
                    what: format!("unknown record tag {other:#04x}"),
                })
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

enum RecorderSink {
    /// Streams into a same-directory temporary; [`RecorderSink::commit`]
    /// renames it over `dest` at finalization so a reader (or a crash)
    /// never observes a truncated capture at the final path.
    File {
        writer: io::BufWriter<std::fs::File>,
        tmp: std::path::PathBuf,
        dest: std::path::PathBuf,
    },
    Stdout(io::Stdout),
    Memory(Vec<u8>),
}

impl RecorderSink {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            RecorderSink::File { writer, .. } => writer.write_all(buf),
            RecorderSink::Stdout(s) => s.write_all(buf),
            RecorderSink::Memory(v) => {
                v.extend_from_slice(buf);
                Ok(())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            RecorderSink::File { writer, .. } => writer.flush(),
            RecorderSink::Stdout(s) => s.flush(),
            RecorderSink::Memory(_) => Ok(()),
        }
    }

    /// Publishes a file capture: syncs the temporary and renames it over
    /// the destination. No-op for stdout/memory sinks.
    fn commit(&mut self) -> io::Result<()> {
        match self {
            RecorderSink::File { writer, tmp, dest } => {
                writer.get_ref().sync_all()?;
                std::fs::rename(tmp, dest)
            }
            RecorderSink::Stdout(_) | RecorderSink::Memory(_) => Ok(()),
        }
    }
}

/// The `swmtrace-v1` capture writer. It rides in the hooks the GPU lends
/// to the hierarchy and every core at call time; with none attached the
/// hooks are single `Option` checks and the cycle model is untouched.
pub struct Recorder {
    sink: RecorderSink,
    /// Scratch buffer: each record is encoded here, then written once.
    scratch: Vec<u8>,
    /// Warp context, set by the issuing core before its hierarchy calls
    /// (the hierarchy itself does not know which warp is accessing).
    warp: u32,
    records: u64,
    bytes: u64,
    err: Option<io::ErrorKind>,
    finalized: bool,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("records", &self.records)
            .field("bytes", &self.bytes)
            .field("err", &self.err)
            .finish()
    }
}

impl Recorder {
    fn with_sink(sink: RecorderSink, cfg: &HierarchyConfig) -> Self {
        let mut scratch = Vec::with_capacity(256);
        scratch.extend_from_slice(MTRACE_MAGIC);
        scratch.extend_from_slice(&MTRACE_VERSION.to_le_bytes());
        scratch.extend_from_slice(&(cfg.num_cores as u32).to_le_bytes());
        let push_cache = |out: &mut Vec<u8>, c: &CacheConfig| {
            out.extend_from_slice(&c.size_bytes.to_le_bytes());
            out.extend_from_slice(&c.ways.to_le_bytes());
        };
        push_cache(&mut scratch, &cfg.l1);
        push_cache(&mut scratch, &cfg.l2);
        match &cfg.l3 {
            Some(l3) => {
                scratch.push(1);
                push_cache(&mut scratch, l3);
            }
            None => scratch.push(0),
        }
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
            scratch.extend_from_slice(&v.to_le_bytes());
        }
        let mut rec = Recorder {
            sink,
            scratch,
            warp: 0,
            records: 0,
            bytes: 0,
            err: None,
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
    /// *after* creation latch into [`Recorder::summary`] instead, so a
    /// run is never aborted mid-flight by a full disk.
    pub fn create(path: &Path, cfg: &HierarchyConfig) -> io::Result<Self> {
        let sink = if path == Path::new("-") {
            RecorderSink::Stdout(io::stdout())
        } else {
            let tmp = tmp_path(path);
            RecorderSink::File {
                writer: io::BufWriter::new(std::fs::File::create(&tmp)?),
                tmp,
                dest: path.to_path_buf(),
            }
        };
        Ok(Self::with_sink(sink, cfg))
    }

    /// Creates a recorder capturing into memory (for tests); retrieve
    /// the document with [`Recorder::take_bytes`].
    pub fn in_memory(cfg: &HierarchyConfig) -> Self {
        Self::with_sink(RecorderSink::Memory(Vec::new()), cfg)
    }

    /// Writes the encoded record in `scratch` to the sink.
    fn emit(&mut self) {
        if self.err.is_some() || self.finalized {
            self.scratch.clear();
            return;
        }
        self.bytes += self.scratch.len() as u64;
        if let Err(e) = self.sink.write_all(&self.scratch) {
            // Latch the first error; later writes are skipped so one
            // full disk does not spam, mirroring the trace FileSink.
            self.err = Some(e.kind());
        }
        self.scratch.clear();
    }

    /// Sets the warp context for subsequent hierarchy records. Called by
    /// the issuing core once per executed instruction, because the
    /// hierarchy hooks don't know which warp is behind a request.
    pub fn set_warp(&mut self, warp: u32) {
        self.warp = warp;
    }

    /// Records a kernel launch (replay resets port clocks here).
    pub fn kernel_launch(&mut self, name: &str) {
        self.scratch.push(TAG_KERNEL);
        push_varint(&mut self.scratch, name.len() as u64);
        self.scratch.extend_from_slice(name.as_bytes());
        self.records += 1;
        self.emit();
    }

    /// Records one queued line access served at `level`.
    pub fn access(&mut self, core: usize, addr: u64, write: bool, cycle: u64, level: HitLevel) {
        self.record_access(core, addr, write, cycle, level, false);
    }

    /// Records one EGHW unit-port lookup (no timestamp) served at
    /// `level`.
    pub fn access_unqueued(&mut self, core: usize, addr: u64, write: bool, level: HitLevel) {
        self.record_access(core, addr, write, 0, level, true);
    }

    fn record_access(
        &mut self,
        core: usize,
        addr: u64,
        write: bool,
        cycle: u64,
        level: HitLevel,
        unqueued: bool,
    ) {
        let mut flags = level_code(level) << 2;
        if write {
            flags |= FLAG_WRITE;
        }
        if unqueued {
            flags |= FLAG_UNQUEUED;
        }
        self.scratch.push(TAG_ACCESS);
        self.scratch.push(flags);
        self.push_request(core, cycle, addr);
    }

    /// Records one atomic read-modify-write served at `level`.
    pub fn atomic(&mut self, core: usize, addr: u64, cycle: u64, level: HitLevel) {
        self.scratch.push(TAG_ATOMIC);
        self.scratch.push(level_code(level) << 2);
        self.push_request(core, cycle, addr);
    }

    /// Appends the `core, warp, cycle, addr` tail shared by access and
    /// atomic records and emits the record.
    fn push_request(&mut self, core: usize, cycle: u64, addr: u64) {
        push_varint(&mut self.scratch, core as u64);
        push_varint(&mut self.scratch, u64::from(self.warp));
        push_varint(&mut self.scratch, cycle);
        push_varint(&mut self.scratch, addr);
        self.records += 1;
        self.emit();
    }

    /// Records a warp arriving at a barrier.
    pub fn barrier(&mut self, core: usize, warp: u32, cycle: u64) {
        self.scratch.push(TAG_BARRIER);
        push_varint(&mut self.scratch, core as u64);
        push_varint(&mut self.scratch, u64::from(warp));
        push_varint(&mut self.scratch, cycle);
        self.records += 1;
        self.emit();
    }

    /// Writes the footer carrying the live run's final cumulative
    /// `stats`, flushes the sink, and returns the capture summary.
    /// Records after finalization are dropped.
    pub fn finalize(&mut self, stats: &LevelStats) -> RecorderSummary {
        if !self.finalized {
            let out = &mut self.scratch;
            out.push(TAG_FOOTER);
            push_varint(out, self.records);
            let push_stats = |out: &mut Vec<u8>, s: &CacheStats| {
                push_varint(out, s.accesses);
                push_varint(out, s.hits);
                push_varint(out, s.misses);
                push_varint(out, s.writebacks);
            };
            push_stats(out, &stats.l1);
            push_stats(out, &stats.l2);
            match &stats.l3 {
                Some(l3) => {
                    out.push(1);
                    push_stats(out, l3);
                }
                None => out.push(0),
            }
            push_varint(out, stats.dram_accesses);
            self.emit();
            if self.err.is_none() {
                if let Err(e) = self.sink.flush().and_then(|()| self.sink.commit()) {
                    self.err = Some(e.kind());
                }
            }
            self.finalized = true;
        }
        self.summary()
    }

    /// The capture summary so far (records, bytes, latched I/O error).
    pub fn summary(&self) -> RecorderSummary {
        RecorderSummary {
            records: self.records,
            bytes: self.bytes,
            sink_error: self.err,
        }
    }

    /// Takes the captured bytes out of an in-memory recorder (`None`
    /// for file/stdout sinks).
    pub fn take_bytes(&mut self) -> Option<Vec<u8>> {
        match &mut self.sink {
            RecorderSink::Memory(v) => Some(std::mem::take(v)),
            _ => None,
        }
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
        rec.access(0, 0x1c0, false, 7, HitLevel::Dram);
        rec.access(1, 0x200, true, 9, HitLevel::L2);
        rec.access_unqueued(0, 0x40, false, HitLevel::L1);
        rec.atomic(1, 0x88, 12, HitLevel::Dram);
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
        assert!(e.offset > 0);
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
        assert!(e.what.contains("footer"), "{e}");
    }

    #[test]
    fn unknown_tag_is_typed() {
        let mut bytes = sample_bytes();
        // Corrupt the first record tag after the header.
        let header_len = bytes.len() - {
            // Records + footer start right after the fixed header.
            let cfg_len = 4 + (8 + 4) * 3 + 1 + 8 * 9;
            bytes.len() - (8 + 2 + cfg_len)
        };
        bytes[header_len] = 0x7e;
        let e = parse(&bytes).expect_err("bad tag");
        assert!(e.what.contains("unknown record tag"), "{e}");
        assert_eq!(e.offset, header_len as u64);
    }

    #[test]
    fn core_out_of_range_is_typed() {
        let cfg = HierarchyConfig::vortex_default(1);
        let mut rec = Recorder::in_memory(&cfg);
        rec.access(5, 0x40, false, 0, HitLevel::L1); // core 5 of 1
        rec.finalize(&LevelStats::default());
        let bytes = rec.take_bytes().unwrap();
        let e = parse(&bytes).expect_err("core out of range");
        assert!(e.what.contains("out of range"), "{e}");
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
        assert!(
            e.what.contains("records") || e.what.contains("truncated"),
            "{e}"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let e = parse(b"notatrace!!").expect_err("bad magic");
        assert_eq!(e.offset, 0);
    }

    #[test]
    fn varint_edge_values_round_trip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            let mut p = Parser {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(p.varint("v").unwrap(), v);
            assert_eq!(p.pos, buf.len());
        }
    }
}
