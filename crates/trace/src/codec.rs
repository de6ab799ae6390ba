//! The little-endian byte codec every checkpointed component saves and
//! restores itself through, plus the atomic file writer all artifacts
//! share.
//!
//! Integers are fixed-width little-endian. A sequence is a `u64` length
//! followed by its items; an `Option` is a presence byte (0/1) followed by
//! the payload; strings are length-prefixed UTF-8. Fixed-size arrays carry
//! no length prefix.
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
use std::fs;
use std::io::{self, Write as _};
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

    /// Raw bytes, no length prefix.
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
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
        CodecError::Corrupt {
            what: format!("{what} at offset {}", self.offset()),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
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
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
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
        self.take(len)
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
/// All artifact writers in the workspace (`metrics.json`, `profile.json`,
/// checkpoints, campaign summaries, ...) share this helper; `-` stdout
/// streaming is handled by callers and never routed here.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_little_endian() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0x0102_0304);
        e.u64(u64::MAX);
        e.i64(-2);
        e.bool(true);
        e.str("héllo");
        e.opt(Some(&5u32), |v, e| v.save(e));
        e.opt(None::<&u32>, |v, e| v.save(e));
        let bytes = e.into_bytes();
        assert_eq!(&bytes[1..5], &[4, 3, 2, 1]);
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
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
