//! The little-endian byte codec every checkpointed component and the
//! `swmtrace-v1` memory trace are written and read through, plus the two
//! writers all artifacts share: [`write_atomic`] for whole documents and
//! [`OutStream`] for streamed ones.
//!
//! Integers are fixed-width little-endian, except [`Enc::varint`]
//! (LEB128). A sequence is a `u64` length followed by its items; an
//! `Option` is a presence byte (0/1) followed by the payload; strings are
//! length-prefixed UTF-8. Fixed-size arrays carry no length prefix.
//!
//! A component implements [`Snapshot`]: `save` appends its mutable state
//! and `restore` reads it back *in place* into a component rebuilt from
//! the same configuration. Configuration (geometry, capacities, lane
//! widths) is never encoded; machine-shaped sequences — cores, warps,
//! cache lines, ports, table rows — go through [`Dec::restore_seq`],
//! which refuses a length that does not match the rebuilt machine.
//!
//! Decoding never panics: a short buffer is [`CodecError::Truncated`], a
//! structurally invalid one (bad tag, bad UTF-8, implausible length,
//! trailing bytes) is [`CodecError::Corrupt`], and state that does not fit
//! the rebuilt machine is [`CodecError::Restore`] with a layered path such
//! as `core 3: warp 1: …`.
//!
//! ```
//! use sparseweaver_trace::codec::{Dec, Enc, Snapshot};
//!
//! let mut e = Enc::new();
//! e.seq(&[1u64, 2, 3]);
//! let bytes = e.into_bytes();
//!
//! let mut regs = [0u64; 3];
//! let mut d = Dec::new(&bytes);
//! d.restore_seq("regs", &mut regs)?;
//! d.finish()?;
//! assert_eq!(regs, [1, 2, 3]);
//!
//! // A machine of a different shape refuses the bytes.
//! assert!(Dec::new(&bytes).restore_seq("regs", &mut [0u64; 2]).is_err());
//! # Ok::<(), sparseweaver_trace::codec::CodecError>(())
//! ```

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Why a byte buffer could not be decoded or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before a field was fully read.
    Truncated {
        /// Byte offset at which decoding stopped.
        offset: usize,
    },
    /// The buffer is structurally invalid.
    Corrupt {
        /// What was wrong, including its byte offset.
        what: String,
    },
    /// The decoded state does not fit the component restoring it (wrong
    /// core count, warp width, table capacity, ...).
    Restore {
        /// The layered path to the misfit (`"core 3: warp 1: ..."`).
        what: String,
    },
}

impl CodecError {
    /// A [`CodecError::Corrupt`] naming payload offset `offset`.
    pub fn corrupt_at(offset: usize, what: impl fmt::Display) -> CodecError {
        CodecError::Corrupt {
            what: format!("{what} at offset {offset}"),
        }
    }

    /// Prefixes a [`CodecError::Restore`] path with the enclosing
    /// component's name; the other variants already carry an offset.
    pub fn within(self, outer: &str) -> CodecError {
        match self {
            CodecError::Restore { what } => CodecError::Restore {
                what: format!("{outer}: {what}"),
            },
            other => other,
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { offset } => write!(f, "truncated at byte offset {offset}"),
            CodecError::Corrupt { what } => write!(f, "corrupt: {what}"),
            CodecError::Restore { what } => write!(f, "does not fit: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A component whose mutable state round-trips through the codec.
///
/// `restore` reads exactly the bytes `save` wrote, in place, into a value
/// built from the same configuration. On error the target may be left
/// partially restored and must be discarded.
pub trait Snapshot {
    /// Appends the state to `e`.
    fn save(&self, e: &mut Enc);

    /// Reads the state written by [`Snapshot::save`] back into `self`.
    ///
    /// # Errors
    ///
    /// A typed [`CodecError`]; never panics on malformed input.
    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError>;
}

macro_rules! primitive_snapshot {
    ($($t:ident),*) => {$(
        impl Snapshot for $t {
            fn save(&self, e: &mut Enc) {
                e.$t(*self);
            }
            fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
                *self = d.$t()?;
                Ok(())
            }
        }
    )*};
}

primitive_snapshot!(u8, u32, u64, usize, i64, bool);

impl Snapshot for String {
    fn save(&self, e: &mut Enc) {
        e.str(self);
    }
    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        *self = d.str()?;
        Ok(())
    }
}

impl<T: Snapshot + ?Sized> Snapshot for Box<T> {
    fn save(&self, e: &mut Enc) {
        (**self).save(e);
    }
    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        (**self).restore(d)
    }
}

/// Fixed-size arrays carry no length prefix.
impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn save(&self, e: &mut Enc) {
        for item in self {
            item.save(e);
        }
    }
    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        self.iter_mut().try_for_each(|item| item.restore(d))
    }
}

/// An optional *value*: restore adopts whichever arm was saved. An
/// optional machine component restores with [`Dec::restore_opt`].
impl<T: Snapshot + Default> Snapshot for Option<T> {
    fn save(&self, e: &mut Enc) {
        e.opt(self.as_ref(), T::save);
    }
    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        *self = d.opt(Dec::value)?;
        Ok(())
    }
}

/// A variable-length *value* list: restore adopts the saved length. A
/// machine-shaped sequence restores with [`Dec::restore_seq`].
impl<T: Snapshot + Default> Snapshot for Vec<T> {
    fn save(&self, e: &mut Enc) {
        e.seq(self);
    }
    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        *self = d.list(1, Dec::value)?;
        Ok(())
    }
}

macro_rules! tuple_snapshot {
    ($($t:ident . $i:tt),*) => {
        impl<$($t: Snapshot),*> Snapshot for ($($t,)*) {
            fn save(&self, e: &mut Enc) {
                $(self.$i.save(e);)*
            }
            fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
                $(self.$i.restore(d)?;)*
                Ok(())
            }
        }
    };
}

tuple_snapshot!(A.0, B.1);
tuple_snapshot!(A.0, B.1, C.2);

/// Implements [`Snapshot`] for a struct by saving and restoring the
/// listed fields in order, each through its own `Snapshot`.
///
/// ```
/// use sparseweaver_trace::codec::{Dec, Enc, Snapshot};
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Port { cycle: u64, used: u64 }
/// sparseweaver_trace::snapshot_fields!(Port { cycle, used });
///
/// let mut e = Enc::new();
/// Port { cycle: 7, used: 2 }.save(&mut e);
/// let bytes = e.into_bytes();
/// let mut p = Port::default();
/// p.restore(&mut Dec::new(&bytes))?;
/// assert_eq!(p, Port { cycle: 7, used: 2 });
/// # Ok::<(), sparseweaver_trace::codec::CodecError>(())
/// ```
#[macro_export]
macro_rules! snapshot_fields {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::codec::Snapshot for $ty {
            fn save(&self, e: &mut $crate::codec::Enc) {
                $($crate::codec::Snapshot::save(&self.$field, e);)*
            }
            fn restore(
                &mut self,
                d: &mut $crate::codec::Dec<'_>,
            ) -> ::std::result::Result<(), $crate::codec::CodecError> {
                $($crate::codec::Snapshot::restore(&mut self.$field, d)?;)*
                Ok(())
            }
        }
    };
}

/// The encoder: an append-only byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Drops the encoded bytes, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Raw bytes, no length prefix.
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize`, widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A LEB128 varint: 7 bits per byte, low bits first, high bit set on
    /// every byte but the last.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// A bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// A length-prefixed sequence of snapshots.
    pub fn seq<T: Snapshot>(&mut self, items: &[T]) {
        self.usize(items.len());
        for item in items {
            item.save(self);
        }
    }

    /// A presence byte, then `f`'s encoding of the value when present.
    pub fn opt<T>(&mut self, v: Option<&T>, f: impl FnOnce(&T, &mut Enc)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(x, self);
            }
        }
    }
}

/// The decoder: a bounds-checked cursor over a byte buffer.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Offset of `buf[0]` within the enclosing payload, so errors name
    /// payload offsets even when only a section is decoded.
    base: usize,
}

impl<'a> Dec<'a> {
    /// A decoder at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec::at(buf, 0)
    }

    /// A decoder over a section that starts `base` bytes into its
    /// enclosing payload; error offsets are payload offsets.
    pub fn at(buf: &'a [u8], base: usize) -> Dec<'a> {
        Dec { buf, pos: 0, base }
    }

    /// The current payload offset.
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// A [`CodecError::Corrupt`] naming the current offset.
    pub fn corrupt(&self, what: impl fmt::Display) -> CodecError {
        CodecError::corrupt_at(self.offset(), what)
    }

    /// The next `n` raw bytes, no length prefix.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < n {
            return Err(CodecError::Truncated {
                offset: self.offset(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.raw(N)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.raw(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` narrowed to `usize`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let at = self.offset();
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Corrupt {
            what: format!("value {v} out of range at offset {at}"),
        })
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// A LEB128 varint. The tenth byte carries bit 63 only, so it must be
    /// 0 or 1; anything else overflows a `u64` and is corrupt, named at
    /// the offset after that byte.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 63 && b > 1 {
                return Err(self.corrupt("varint overflow"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A bool byte; anything but 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        self.flag("bool")
    }

    /// An `Option` presence byte; anything but 0/1 is corrupt.
    pub fn present(&mut self) -> Result<bool, CodecError> {
        self.flag("presence")
    }

    fn flag(&mut self, kind: &str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::Corrupt {
                what: format!("bad {kind} byte {b} at offset {}", self.offset() - 1),
            }),
        }
    }

    /// Reads a sequence length and checks it against the remaining bytes
    /// (each item occupies at least `min_item_bytes`), so a corrupt length
    /// cannot drive a huge allocation.
    pub fn seq_len(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let at = self.offset();
        let len = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        match len.checked_mul(min_item_bytes.max(1) as u64) {
            Some(need) if need <= remaining => Ok(len as usize),
            _ => Err(CodecError::Corrupt {
                what: format!("implausible sequence length {len} at offset {at}"),
            }),
        }
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.seq_len(1)?;
        self.raw(len)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let at = self.offset();
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::Corrupt {
            what: format!("invalid UTF-8 string at offset {at}"),
        })
    }

    /// A presence byte, then `f`'s decoding of the value when present.
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Dec<'a>) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        if self.present()? {
            f(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A length-prefixed, variable-length list decoded item by item.
    pub fn list<T>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Dec<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let len = self.seq_len(min_item_bytes)?;
        (0..len).map(|_| item(self)).collect()
    }

    /// A fresh value restored from its default.
    pub fn value<T: Snapshot + Default>(&mut self) -> Result<T, CodecError> {
        let mut v = T::default();
        v.restore(self)?;
        Ok(v)
    }

    /// Reads a sequence length that must equal the rebuilt machine's
    /// `len`.
    pub fn expect_len(&mut self, what: &str, len: usize) -> Result<(), CodecError> {
        let found = self.u64()?;
        if found != len as u64 {
            return Err(CodecError::Restore {
                what: format!("{what}: checkpoint has {found}, machine has {len}"),
            });
        }
        Ok(())
    }

    /// Restores a machine-shaped sequence written by [`Enc::seq`] in
    /// place. The length must match; item errors are prefixed with
    /// `"{what} {index}"`.
    pub fn restore_seq<T: Snapshot>(
        &mut self,
        what: &str,
        items: &mut [T],
    ) -> Result<(), CodecError> {
        self.expect_len(what, items.len())?;
        for (i, item) in items.iter_mut().enumerate() {
            item.restore(self)
                .map_err(|e| e.within(&format!("{what} {i}")))?;
        }
        Ok(())
    }

    /// Restores an `Option` written by [`Enc::opt`] into a component the
    /// rebuilt machine may or may not have; both sides must agree on
    /// whether it exists.
    pub fn restore_opt<T: Snapshot>(
        &mut self,
        what: &str,
        target: Option<&mut T>,
    ) -> Result<(), CodecError> {
        match (self.present()?, target) {
            (true, Some(t)) => t.restore(self).map_err(|e| e.within(what)),
            (false, None) => Ok(()),
            (saved, _) => Err(CodecError::Restore {
                what: if saved {
                    format!("{what}: the checkpoint has one but the rebuilt machine does not")
                } else {
                    format!("{what}: the rebuilt machine has one but the checkpoint does not")
                },
            }),
        }
    }

    /// Checks that the whole buffer was consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return Err(CodecError::Corrupt {
                what: format!(
                    "{} trailing bytes at offset {}",
                    self.buf.len() - self.pos,
                    self.offset()
                ),
            });
        }
        Ok(())
    }
}

/// Writes `bytes` to `path` atomically: the data lands in a same-directory
/// temporary file ([`tmp_path`]), is flushed to disk, and is then renamed
/// over the destination. A reader (or a crash) never observes a
/// half-written file.
///
/// All whole-document artifact writers in the workspace (`metrics.json`,
/// `profile.json`, checkpoints, campaign summaries, ...) share this
/// helper; `-` stdout streaming is handled by callers and never routed
/// here. Streamed artifacts go through [`OutStream`].
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best effort: do not leave the temporary behind on failure.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The sibling temporary path an atomic writer stages `path` in:
/// `<name>.tmp.<pid>` in the same directory, so the final rename never
/// crosses a filesystem.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// The output stream every streamed artifact (the JSONL event stream,
/// the `swmtrace-v1` capture, the campaign journal) is written through.
///
/// A path of `-` streams to stdout. Write and flush errors never abort
/// the caller mid-run: the first one is latched ([`OutStream::error`])
/// and later writes are skipped, so one full disk does not spam. Bytes
/// accepted are counted ([`OutStream::bytes`]).
///
/// A [`staged`](OutStream::staged) stream writes a same-directory
/// temporary ([`tmp_path`]) and renames it over the destination on
/// [`commit`](OutStream::commit), like [`write_atomic`]; dropped without
/// a commit, it deletes the temporary.
#[derive(Debug)]
pub struct OutStream {
    out: Out,
    /// `(temporary, destination)` of a staged file not yet committed.
    stage: Option<(PathBuf, PathBuf)>,
    bytes: u64,
    error: Option<io::ErrorKind>,
}

#[derive(Debug)]
enum Out {
    Stdout(io::Stdout),
    Memory(Vec<u8>),
    File(BufWriter<File>),
}

impl OutStream {
    fn new(out: Out) -> OutStream {
        OutStream {
            out,
            stage: None,
            bytes: 0,
            error: None,
        }
    }

    /// Creates (truncating) the file at `path`, or stdout for `-`.
    ///
    /// # Errors
    ///
    /// The error creating the file.
    pub fn create(path: &Path) -> io::Result<OutStream> {
        OutStream::open(
            path,
            OpenOptions::new().write(true).create(true).truncate(true),
        )
    }

    /// Opens the file at `path` with `options` (say, to append to it or
    /// to continue it without truncating), or stdout for `-`.
    ///
    /// # Errors
    ///
    /// The error opening the file.
    pub fn open(path: &Path, options: &OpenOptions) -> io::Result<OutStream> {
        Ok(OutStream::new(if path.as_os_str() == "-" {
            Out::Stdout(io::stdout())
        } else {
            Out::File(BufWriter::new(options.open(path)?))
        }))
    }

    /// Stages the file at `path` in its temporary until
    /// [`OutStream::commit`], or streams to stdout for `-`.
    ///
    /// # Errors
    ///
    /// The error creating the temporary.
    pub fn staged(path: &Path) -> io::Result<OutStream> {
        if path.as_os_str() == "-" {
            return OutStream::create(path);
        }
        let tmp = tmp_path(path);
        let mut s = OutStream::create(&tmp)?;
        s.stage = Some((tmp, path.to_path_buf()));
        Ok(s)
    }

    /// A stream into memory; [`OutStream::take_memory`] returns the bytes.
    pub fn memory() -> OutStream {
        OutStream::new(Out::Memory(Vec::new()))
    }

    fn writer(&mut self) -> &mut dyn io::Write {
        match &mut self.out {
            Out::Stdout(s) => s,
            Out::Memory(v) => v,
            Out::File(f) => f,
        }
    }

    fn latch(&mut self, result: io::Result<()>) {
        if let Err(e) = result {
            self.error.get_or_insert(e.kind());
        }
    }

    /// Writes `buf`, unless an earlier error was latched.
    pub fn write(&mut self, buf: &[u8]) {
        if self.error.is_none() {
            let result = self.writer().write_all(buf);
            if result.is_ok() {
                self.bytes += buf.len() as u64;
            }
            self.latch(result);
        }
    }

    /// Pushes buffered bytes to the destination, latching a failure.
    pub fn flush(&mut self) {
        let result = self.writer().flush();
        self.latch(result);
    }

    /// Flushes and, for a staged file, syncs the temporary and renames it
    /// over the destination. A stream with a latched error is not
    /// published. Returns the latched error, if any.
    pub fn commit(&mut self) -> Option<io::ErrorKind> {
        self.flush();
        if let (None, Some((tmp, dest)), Out::File(f)) = (self.error, &self.stage, &self.out) {
            let result = f.get_ref().sync_all().and_then(|()| fs::rename(tmp, dest));
            if result.is_ok() {
                self.stage = None;
            }
            self.latch(result);
        }
        self.error
    }

    /// Cuts the file back to its first `len` bytes and continues writing
    /// at the end, for resuming a stream saved at that length.
    ///
    /// # Errors
    ///
    /// Only a file can be rewound; otherwise the I/O error.
    pub fn truncate(&mut self, len: u64) -> io::Result<()> {
        let Out::File(f) = &mut self.out else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "only a file can be rewound",
            ));
        };
        f.get_mut().set_len(len)?;
        f.get_mut().seek(SeekFrom::End(0))?;
        self.bytes = len;
        Ok(())
    }

    /// Bytes written so far (including any still buffered).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The first I/O error hit, if any.
    pub fn error(&self) -> Option<io::ErrorKind> {
        self.error
    }

    /// Takes the bytes out of a [`memory`](OutStream::memory) stream
    /// (`None` for any other).
    pub fn take_memory(&mut self) -> Option<Vec<u8>> {
        match &mut self.out {
            Out::Memory(v) => Some(std::mem::take(v)),
            _ => None,
        }
    }
}

impl Drop for OutStream {
    fn drop(&mut self) {
        // An uncommitted stage is never published: close the temporary,
        // then delete it.
        if let Some((tmp, _)) = self.stage.take() {
            self.out = Out::Memory(Vec::new());
            let _ = fs::remove_file(tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_little_endian() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(0xbeef);
        e.u32(0x0102_0304);
        e.u64(u64::MAX);
        e.i64(-2);
        e.bool(true);
        e.str("héllo");
        e.opt(Some(&5u32), |v, e| v.save(e));
        e.opt(None::<&u32>, |v, e| v.save(e));
        let bytes = e.into_bytes();
        assert_eq!(&bytes[1..7], &[0xef, 0xbe, 4, 3, 2, 1]);
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xbeef);
        assert_eq!(d.u32().unwrap(), 0x0102_0304);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -2);
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.opt(|d| d.u32()).unwrap(), Some(5));
        assert_eq!(d.opt(|d| d.u32()).unwrap(), None);
        d.finish().unwrap();
    }

    #[test]
    fn errors_are_typed_and_name_the_payload_offset() {
        let mut d = Dec::at(&[1, 2], 100);
        assert_eq!(d.u32(), Err(CodecError::Truncated { offset: 100 }));
        let mut d = Dec::at(&[2], 10);
        assert!(
            matches!(d.bool(), Err(CodecError::Corrupt { what }) if what.contains("offset 10"))
        );
        let mut d = Dec::new(&[0xFF; 8]);
        assert!(matches!(d.seq_len(1), Err(CodecError::Corrupt { .. })));
        let d = Dec::new(&[0]);
        assert!(matches!(d.finish(), Err(CodecError::Corrupt { .. })));
    }

    #[test]
    fn machine_shaped_sequences_refuse_a_length_mismatch() {
        let mut e = Enc::new();
        e.seq(&[1u64, 2, 3]);
        let bytes = e.into_bytes();
        let mut fits = [0u64; 3];
        let mut d = Dec::new(&bytes);
        d.restore_seq("warp", &mut fits).unwrap();
        assert_eq!(fits, [1, 2, 3]);
        let mut short = [0u64; 2];
        let err = Dec::new(&bytes)
            .restore_seq("warp", &mut short)
            .unwrap_err();
        assert_eq!(
            err.within("core 3"),
            CodecError::Restore {
                what: "core 3: warp: checkpoint has 3, machine has 2".into()
            }
        );
    }

    #[test]
    fn optional_components_must_be_present_on_both_sides() {
        let mut e = Enc::new();
        e.opt(Some(&9u64), |v, e| v.save(e));
        let bytes = e.into_bytes();
        let mut v = 0u64;
        Dec::new(&bytes).restore_opt("l3", Some(&mut v)).unwrap();
        assert_eq!(v, 9);
        assert!(matches!(
            Dec::new(&bytes).restore_opt::<u64>("l3", None),
            Err(CodecError::Restore { .. })
        ));
    }

    #[test]
    fn varint_edge_values_round_trip() {
        for (v, len) in [
            (0u64, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (300, 2),
            (u64::MAX, 10),
        ] {
            let mut e = Enc::new();
            e.varint(v);
            let bytes = e.into_bytes();
            assert_eq!(bytes.len(), len, "{v}");
            let mut d = Dec::new(&bytes);
            assert_eq!(d.varint().unwrap(), v);
            d.finish().unwrap();
        }
        assert_eq!(
            {
                let mut e = Enc::new();
                e.varint(300);
                e.into_bytes()
            },
            [0xac, 0x02]
        );
        // Ten continuation bytes and an eleventh: bit 64 and up overflow,
        // named after the tenth byte.
        let mut long = [0xff_u8; 11];
        long[10] = 0x01;
        assert_eq!(
            Dec::new(&long).varint(),
            Err(CodecError::corrupt_at(10, "varint overflow"))
        );
        // A varint cut short is truncated where its next byte would be.
        assert_eq!(
            Dec::at(&[0x80, 0x80], 5).varint(),
            Err(CodecError::Truncated { offset: 7 })
        );
    }

    #[test]
    fn out_stream_latches_the_first_error_and_counts_bytes() {
        let mut s = OutStream::memory();
        s.write(b"ab");
        s.write(b"cde");
        assert_eq!(s.commit(), None);
        assert_eq!(s.bytes(), 5);
        assert_eq!(s.take_memory().unwrap(), b"abcde");

        let dir = std::env::temp_dir().join(format!("swcodec-stream-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        let mut s = OutStream::create(&path).unwrap();
        s.write(b"0123456789");
        s.flush();
        s.truncate(4).unwrap();
        s.write(b"xy");
        assert_eq!(s.commit(), None);
        drop(s);
        assert_eq!(fs::read(&path).unwrap(), b"0123xy");
        assert!(OutStream::memory().truncate(0).is_err());
        fs::remove_dir_all(&dir).ok();

        #[cfg(target_os = "linux")]
        if Path::new("/dev/full").exists() {
            let mut s = OutStream::create(Path::new("/dev/full")).unwrap();
            s.write(&[0; 64]);
            assert_eq!(s.commit(), Some(io::ErrorKind::StorageFull));
            s.write(b"skipped");
            assert_eq!(s.bytes(), 64);
        }
    }

    #[test]
    fn staged_streams_publish_on_commit_and_clean_up_on_drop() {
        let dir = std::env::temp_dir().join(format!("swcodec-staged-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        let mut s = OutStream::staged(&path).unwrap();
        s.write(b"half");
        assert!(tmp_path(&path).exists() && !path.exists());
        drop(s);
        assert!(!tmp_path(&path).exists() && !path.exists());

        let mut s = OutStream::staged(&path).unwrap();
        s.write(b"whole");
        assert_eq!(s.commit(), None);
        drop(s);
        assert_eq!(fs::read(&path).unwrap(), b"whole");
        assert!(!tmp_path(&path).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_leaves_no_temporary_behind() {
        let dir = std::env::temp_dir().join(format!("swcodec-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!tmp_path(&path).exists());
        fs::remove_dir_all(&dir).ok();
    }
}
