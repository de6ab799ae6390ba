//! Flat functional device memory.

use std::cell::Cell;
use std::fmt;

use sparseweaver_fault::FaultInjector;
use sparseweaver_trace::codec::{CodecError, Dec, Enc, Snapshot};

/// A typed device-memory access fault (out-of-bounds or bad width),
/// raised by [`MainMemory::try_read`]/[`MainMemory::try_write`] so the
/// simulator can surface it as a detected crash instead of aborting the
/// process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting byte address.
    pub addr: u64,
    /// The access width in bytes.
    pub width: u64,
    /// Whether the access was a store.
    pub write: bool,
    /// The memory size at the time of the fault (0 for a width fault).
    pub size: u64,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.write { "write" } else { "read" };
        if matches!(self.width, 1 | 2 | 4 | 8) {
            write!(
                f,
                "device {kind} of {} bytes at {:#x} out of bounds (memory is {} bytes)",
                self.width, self.addr, self.size
            )
        } else {
            write!(
                f,
                "device {kind} at {:#x} has unsupported width {}",
                self.addr, self.width
            )
        }
    }
}

/// Byte-addressed device memory holding the *functional* state of the GPU.
///
/// All loads, stores and atomics resolve here immediately; the cache
/// hierarchy only decides how long they take. Little-endian, like RISC-V.
///
/// # Examples
///
/// ```
/// use sparseweaver_mem::MainMemory;
///
/// let mut m = MainMemory::new(1024);
/// m.write(16, 0xdead_beef, 4);
/// assert_eq!(m.read(16, 4), 0xdead_beef);
/// assert_eq!(m.read(18, 1), 0xad);
/// ```
#[derive(Clone)]
pub struct MainMemory {
    data: Vec<u8>,
    reads: Cell<u64>,
    writes: Cell<u64>,
    /// Armed by [`MainMemory::arm_undo`]: what each write since then
    /// overwrote.
    undo: Option<UndoLog>,
}

/// The state [`MainMemory::roll_back`] returns to: the size and traffic
/// counters at arming, and the old bytes of every write since, in order.
#[derive(Clone, Debug)]
struct UndoLog {
    len: usize,
    reads: u64,
    writes: u64,
    entries: Vec<Overwritten>,
}

/// The `width` bytes at `addr` before one write.
#[derive(Clone, Copy, Debug)]
struct Overwritten {
    addr: usize,
    width: u8,
    old: [u8; 8],
}

impl UndoLog {
    /// Out of line and cold: only retryable launches arm the log, and
    /// the write path it is called from runs once per simulated lane
    /// store.
    #[cold]
    #[inline(never)]
    fn record(&mut self, addr: usize, old: &[u8]) {
        let mut bytes = [0; 8];
        bytes[..old.len()].copy_from_slice(old);
        self.entries.push(Overwritten {
            addr,
            width: old.len() as u8,
            old: bytes,
        });
    }
}

/// Equality is over the *contents* only: the traffic counters are
/// observability state, not functional state, so snapshot comparisons
/// (e.g. schedule-equivalence tests) ignore them.
impl PartialEq for MainMemory {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl Eq for MainMemory {}

impl fmt::Debug for MainMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MainMemory({} bytes)", self.data.len())
    }
}

impl MainMemory {
    /// Allocates `size` bytes of zeroed memory.
    pub fn new(size: usize) -> Self {
        MainMemory {
            data: vec![0; size],
            reads: Cell::new(0),
            writes: Cell::new(0),
            undo: None,
        }
    }

    /// Starts logging what every write overwrites, so that
    /// [`roll_back`](MainMemory::roll_back) can restore the contents, the
    /// size and the traffic counters as they are now. A kernel launch
    /// that may be retried arms the log instead of copying all of memory;
    /// arming again restarts the log from the current state.
    pub fn arm_undo(&mut self) {
        self.undo = Some(UndoLog {
            len: self.data.len(),
            reads: self.reads.get(),
            writes: self.writes.get(),
            entries: Vec::new(),
        });
    }

    /// Restores the state at [`arm_undo`](MainMemory::arm_undo) by
    /// replaying the log in reverse. The log stays armed at that state.
    ///
    /// # Panics
    ///
    /// Panics if the log is not armed.
    pub fn roll_back(&mut self) {
        let log = self
            .undo
            .as_mut()
            .expect("roll_back needs an armed undo log");
        for o in log.entries.drain(..).rev() {
            let w = o.width as usize;
            self.data[o.addr..o.addr + w].copy_from_slice(&o.old[..w]);
        }
        self.data.truncate(log.len);
        self.reads.set(log.reads);
        self.writes.set(log.writes);
    }

    /// Stops logging and drops the log (a no-op when it is not armed).
    pub fn disarm_undo(&mut self) {
        self.undo = None;
    }

    /// Cumulative `(reads, writes)` access counts since construction or
    /// the last [`reset_traffic`](MainMemory::reset_traffic). Slice helpers
    /// count one access per element.
    pub fn traffic(&self) -> (u64, u64) {
        (self.reads.get(), self.writes.get())
    }

    /// Zeroes the traffic counters.
    pub fn reset_traffic(&self) {
        self.reads.set(0);
        self.writes.set(0);
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Grows the memory to at least `size` bytes (zero-filled).
    pub fn grow_to(&mut self, size: usize) {
        if size > self.data.len() {
            self.data.resize(size, 0);
        }
    }

    /// Device-side read of `width` bytes (1, 2, 4 or 8) at `addr`,
    /// zero-extended. This is the path simulated loads take: it returns a
    /// typed [`MemFault`] instead of panicking, and a lent `fault` injector
    /// may flip one bit of the returned word. Host helpers like
    /// [`read_u32_slice`](MainMemory::read_u32_slice) never see an
    /// injector, so golden comparisons read true device state.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on out-of-bounds access or unsupported width.
    pub fn try_read(
        &self,
        addr: u64,
        width: u64,
        fault: Option<&mut FaultInjector>,
    ) -> Result<u64, MemFault> {
        self.reads.set(self.reads.get() + 1);
        let a = addr as usize;
        let w = width as usize;
        if !matches!(w, 1 | 2 | 4 | 8) {
            return Err(MemFault {
                addr,
                width,
                write: false,
                size: 0,
            });
        }
        let value = self.load(a, w).ok_or(MemFault {
            addr,
            width,
            write: false,
            size: self.data.len() as u64,
        })?;
        Ok(match fault {
            Some(f) => f.corrupt_mem(value, w),
            None => value,
        })
    }

    /// Device-side write of the low `width` bytes of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on out-of-bounds access or unsupported width.
    pub fn try_write(&mut self, addr: u64, value: u64, width: u64) -> Result<(), MemFault> {
        self.writes.set(self.writes.get() + 1);
        let a = addr as usize;
        let w = width as usize;
        if !matches!(w, 1 | 2 | 4 | 8) {
            return Err(MemFault {
                addr,
                width,
                write: true,
                size: 0,
            });
        }
        if self.store(a, value, w) {
            Ok(())
        } else {
            Err(MemFault {
                addr,
                width,
                write: true,
                size: self.data.len() as u64,
            })
        }
    }

    /// Host-side read of `width` bytes (1, 2, 4 or 8) at `addr`,
    /// zero-extended. Never consults the fault injector.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access or unsupported width — a host bug,
    /// surfaced loudly rather than silently corrupting an experiment.
    pub fn read(&self, addr: u64, width: u64) -> u64 {
        self.reads.set(self.reads.get() + 1);
        let a = addr as usize;
        let w = width as usize;
        assert!(matches!(w, 1 | 2 | 4 | 8), "unsupported access width {w}");
        self.load(a, w)
            .unwrap_or_else(|| panic!("host read of {w} bytes at {addr:#x} out of bounds"))
    }

    /// Writes the low `width` bytes of `value` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access or unsupported width.
    pub fn write(&mut self, addr: u64, value: u64, width: u64) {
        self.writes.set(self.writes.get() + 1);
        let a = addr as usize;
        let w = width as usize;
        assert!(matches!(w, 1 | 2 | 4 | 8), "unsupported access width {w}");
        if !self.store(a, value, w) {
            panic!("host write of {w} bytes at {addr:#x} out of bounds");
        }
    }

    /// The `w` bytes at `a` (`w` is 1, 2, 4 or 8), zero-extended, or
    /// `None` when they run past the end. Each width is one fixed-size
    /// load, so an address near `usize::MAX` is out of bounds, never an
    /// overflow.
    #[inline]
    fn load(&self, a: usize, w: usize) -> Option<u64> {
        let tail = self.data.get(a..)?;
        Some(match w {
            1 => *tail.first()? as u64,
            2 => u16::from_le_bytes(*tail.first_chunk()?) as u64,
            4 => u32::from_le_bytes(*tail.first_chunk()?) as u64,
            _ => u64::from_le_bytes(*tail.first_chunk()?),
        })
    }

    /// Writes the low `w` bytes of `value` at `a` (`w` is 1, 2, 4 or 8)
    /// as one fixed-size store, logging the old bytes when the undo log
    /// is armed. Returns `false`, writing nothing, when they run past the
    /// end.
    #[inline]
    fn store(&mut self, a: usize, value: u64, w: usize) -> bool {
        match w {
            1 => self.store_bytes(a, [value as u8]),
            2 => self.store_bytes(a, (value as u16).to_le_bytes()),
            4 => self.store_bytes(a, (value as u32).to_le_bytes()),
            _ => self.store_bytes(a, value.to_le_bytes()),
        }
    }

    #[inline]
    fn store_bytes<const N: usize>(&mut self, a: usize, bytes: [u8; N]) -> bool {
        let Some(dst) = self.data.get_mut(a..).and_then(<[u8]>::first_chunk_mut) else {
            return false;
        };
        if let Some(log) = &mut self.undo {
            log.record(a, dst);
        }
        *dst = bytes;
        true
    }

    /// Writes the low `width` bytes (1, 2, 4 or 8) of `value` to `count`
    /// consecutive elements from `addr` on: one slice operation, counted
    /// as `count` writes like the per-element loop it replaces.
    ///
    /// # Panics
    ///
    /// Panics on an unsupported width or if the region does not fit.
    pub fn fill(&mut self, addr: u64, value: u64, width: u64, count: usize) {
        let w = width as usize;
        assert!(matches!(w, 1 | 2 | 4 | 8), "unsupported access width {w}");
        self.writes.set(self.writes.get() + count as u64);
        let region = self.region_mut(addr, w.saturating_mul(count));
        let bytes = &value.to_le_bytes()[..w];
        if bytes.iter().all(|&b| b == bytes[0]) {
            region.fill(bytes[0]);
        } else {
            for element in region.chunks_exact_mut(w) {
                element.copy_from_slice(bytes);
            }
        }
    }

    /// Copies `count` bytes from `src` to `dst`, counted as `count` reads
    /// and `count` writes, one per byte. Overlapping regions copy like
    /// `memmove`: `dst` ends up holding the bytes `src` held before the
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if either region is out of bounds.
    pub fn copy_within(&mut self, src: u64, dst: u64, count: usize) {
        self.reads.set(self.reads.get() + count as u64);
        self.writes.set(self.writes.get() + count as u64);
        let s = src as usize;
        if s.checked_add(count).is_none_or(|end| end > self.data.len()) {
            panic!("host read of {count} bytes at {src:#x} out of bounds");
        }
        self.region_mut(dst, count);
        self.data.copy_within(s..s + count, dst as usize);
    }

    /// The `len` bytes at `addr` for a host bulk write, after logging
    /// their old contents when the undo log is armed.
    fn region_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        let a = addr as usize;
        let region = a
            .checked_add(len)
            .and_then(|end| self.data.get_mut(a..end))
            .unwrap_or_else(|| panic!("host write of {len} bytes at {addr:#x} out of bounds"));
        if let Some(log) = &mut self.undo {
            for (i, old) in region.chunks(8).enumerate() {
                log.record(a + 8 * i, old);
            }
        }
        region
    }

    /// Reads an `f64` stored at `addr`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read(addr, 8))
    }

    /// Writes an `f64` at `addr`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write(addr, value.to_bits(), 8);
    }

    /// Copies a `u32` slice into memory starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the region does not fit.
    pub fn write_u32_slice(&mut self, addr: u64, values: &[u32]) {
        for (i, &v) in values.iter().enumerate() {
            self.write(addr + 4 * i as u64, v as u64, 4);
        }
    }

    /// Reads `count` `u32` values starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the region is out of bounds.
    pub fn read_u32_slice(&self, addr: u64, count: usize) -> Vec<u32> {
        (0..count)
            .map(|i| self.read(addr + 4 * i as u64, 4) as u32)
            .collect()
    }

    /// Reads `count` `f64` values starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the region is out of bounds.
    pub fn read_f64_slice(&self, addr: u64, count: usize) -> Vec<f64> {
        (0..count)
            .map(|i| self.read_f64(addr + 8 * i as u64))
            .collect()
    }

    /// Writes an `f64` slice starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the region does not fit.
    pub fn write_f64_slice(&mut self, addr: u64, values: &[f64]) {
        for (i, &v) in values.iter().enumerate() {
            self.write_f64(addr + 8 * i as u64, v);
        }
    }
}

/// The contents and the traffic counters. Device memory grows on demand,
/// so restore adopts the saved length.
impl Snapshot for MainMemory {
    fn save(&self, e: &mut Enc) {
        e.bytes(&self.data);
        self.reads.get().save(e);
        self.writes.get().save(e);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        self.data.clear();
        self.data.extend_from_slice(d.bytes()?);
        self.reads.set(d.u64()?);
        self.writes.set(d.u64()?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_layout() {
        let mut m = MainMemory::new(64);
        m.write(0, 0x0102_0304, 4);
        assert_eq!(m.read(0, 1), 0x04);
        assert_eq!(m.read(3, 1), 0x01);
    }

    #[test]
    fn widths() {
        let mut m = MainMemory::new(64);
        m.write(8, u64::MAX, 8);
        assert_eq!(m.read(8, 8), u64::MAX);
        m.write(8, 0, 1);
        assert_eq!(m.read(8, 8), u64::MAX << 8);
    }

    #[test]
    fn f64_round_trip() {
        let mut m = MainMemory::new(64);
        m.write_f64(16, -0.5);
        assert_eq!(m.read_f64(16), -0.5);
    }

    #[test]
    fn slices_round_trip() {
        let mut m = MainMemory::new(256);
        m.write_u32_slice(0, &[1, 2, 3]);
        assert_eq!(m.read_u32_slice(0, 3), vec![1, 2, 3]);
        m.write_f64_slice(64, &[1.5, 2.5]);
        assert_eq!(m.read_f64_slice(64, 2), vec![1.5, 2.5]);
    }

    #[test]
    fn grow_preserves_contents() {
        let mut m = MainMemory::new(8);
        m.write(0, 42, 8);
        m.grow_to(128);
        assert_eq!(m.read(0, 8), 42);
        assert_eq!(m.len(), 128);
    }

    #[test]
    fn traffic_counts_accesses_but_not_equality() {
        let mut m = MainMemory::new(64);
        m.write(0, 7, 4);
        let _ = m.read(0, 4);
        let _ = m.read(8, 8);
        assert_eq!(m.traffic(), (2, 1));
        // Counters are invisible to equality.
        let mut other = MainMemory::new(64);
        other.write(0, 7, 4);
        assert_eq!(m, other);
        m.reset_traffic();
        assert_eq!(m.traffic(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        MainMemory::new(4).read(2, 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_near_usize_max_is_oob_not_overflow() {
        // `a + w` on the old path overflowed usize (a panic with a
        // different message in debug, silent wrap in release).
        MainMemory::new(4).read(u64::MAX, 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_near_usize_max_is_oob_not_overflow() {
        MainMemory::new(4).write(u64::MAX - 2, 0, 8);
    }

    #[test]
    fn try_read_returns_typed_fault() {
        let m = MainMemory::new(4);
        let e = m.try_read(2, 4, None).unwrap_err();
        assert!(!e.write);
        assert_eq!(e.addr, 2);
        assert!(e.to_string().contains("out of bounds"));
        let e = m.try_read(0, 3, None).unwrap_err();
        assert!(e.to_string().contains("unsupported width"));
        // Address arithmetic that would overflow usize is a fault, not a panic.
        assert!(m.try_read(u64::MAX, 8, None).is_err());
    }

    #[test]
    fn try_write_returns_typed_fault() {
        let mut m = MainMemory::new(4);
        let e = m.try_write(2, 0, 4).unwrap_err();
        assert!(e.write);
        assert!(e.to_string().contains("out of bounds"));
        assert!(m.try_write(0, 0, 5).is_err());
        m.try_write(0, 0xaa, 1).unwrap();
        assert_eq!(m.try_read(0, 1, None).unwrap(), 0xaa);
    }

    #[test]
    fn fault_injector_corrupts_device_reads_only() {
        use sparseweaver_fault::FaultSpec;
        let spec = FaultSpec::parse("mem=1").unwrap();
        let mut m = MainMemory::new(64);
        m.write(0, 0x55, 8);
        let mut fault = FaultInjector::new(spec, 1);
        let device = m.try_read(0, 8, Some(&mut fault)).unwrap();
        assert_ne!(device, 0x55, "device read should see a flipped bit");
        // The host path reads true state.
        assert_eq!(m.read(0, 8), 0x55);
    }

    #[test]
    fn roll_back_restores_what_a_snapshot_would() {
        let mut m = MainMemory::new(64);
        for a in 0..8 {
            m.write(8 * a, 0x0101_0101_0101_0101 * a, 8);
        }
        let _ = m.read(0, 8);
        let snapshot = m.clone();
        let traffic = m.traffic();
        // Writes before arming log nothing: rolling back keeps them.
        m.arm_undo();
        assert_eq!(m.undo.as_ref().unwrap().entries.len(), 0);
        let writes: [(u64, u64, u64); 7] = [
            (3, 0xaa, 1),
            (2, 0xbbcc, 2),
            (0, 0xdead_beef, 4),
            (1, u64::MAX, 8),
            (1, 0x1234_5678_9abc_def0, 8),
            (60, 0x0102_0304, 4),
            (63, 0xff, 1),
        ];
        for (addr, value, width) in writes {
            m.try_write(addr, value, width).unwrap();
        }
        // A failed write overwrites nothing and logs nothing.
        assert!(m.try_write(62, 0, 4).is_err());
        m.write(40, 7, 2);
        let _ = m.try_read(0, 8, None).unwrap();
        assert_eq!(m.undo.as_ref().unwrap().entries.len(), writes.len() + 1);
        assert_ne!(m, snapshot);
        m.roll_back();
        assert_eq!(m, snapshot);
        assert_eq!(m.traffic(), traffic);
        // Still armed at the same state: a second attempt rolls back too.
        m.try_write(16, 1, 8).unwrap();
        m.roll_back();
        assert_eq!(m, snapshot);
        assert_eq!(m.traffic(), traffic);
        // Disarmed, writes stay and log nothing.
        m.disarm_undo();
        m.try_write(16, 1, 8).unwrap();
        assert!(m.undo.is_none());
        assert_eq!(m.read(16, 8), 1);
    }

    #[test]
    fn bulk_fill_and_copy_match_element_loops() {
        let mut bulk = MainMemory::new(256);
        let mut looped = MainMemory::new(256);
        for a in 0..32 {
            bulk.write(8 * a, 0x1111_1111_1111_1111 * (a % 7), 8);
            looped.write(8 * a, 0x1111_1111_1111_1111 * (a % 7), 8);
        }
        let snapshot = bulk.clone();
        let traffic = bulk.traffic();
        bulk.arm_undo();
        bulk.fill(3, 0xabcd, 2, 5);
        bulk.fill(40, u64::MAX - 1, 8, 3);
        bulk.fill(70, 9, 1, 11);
        bulk.copy_within(0, 128, 100);
        for i in 0..5 {
            looped.write(3 + 2 * i, 0xabcd, 2);
        }
        for i in 0..3 {
            looped.write(40 + 8 * i, u64::MAX - 1, 8);
        }
        for i in 0..11 {
            looped.write(70 + i, 9, 1);
        }
        for i in 0..100 {
            let v = looped.read(i, 1);
            looped.write(128 + i, v, 1);
        }
        assert_eq!(bulk, looped);
        assert_eq!(bulk.traffic(), looped.traffic());
        // Bulk writes are undone like element writes.
        bulk.roll_back();
        assert_eq!(bulk, snapshot);
        assert_eq!(bulk.traffic(), traffic);
    }

    #[test]
    fn overlapping_copy_is_a_memmove() {
        let mut mem = MainMemory::new(16);
        for a in 0..16 {
            mem.write(a, a, 1);
        }
        mem.copy_within(0, 4, 8);
        let bytes: Vec<u64> = (0..16).map(|a| mem.read(a, 1)).collect();
        assert_eq!(bytes, [0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15]);
        mem.copy_within(4, 2, 8);
        let bytes: Vec<u64> = (0..16).map(|a| mem.read(a, 1)).collect();
        assert_eq!(bytes, [0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 6, 7, 12, 13, 14, 15]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn fill_past_the_end_panics() {
        MainMemory::new(16).fill(8, 0, 8, 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn copy_from_past_the_end_panics() {
        MainMemory::new(16).copy_within(8, 0, 9);
    }

    #[test]
    #[should_panic(expected = "armed undo log")]
    fn roll_back_without_arming_panics() {
        MainMemory::new(8).roll_back();
    }

    #[test]
    #[should_panic(expected = "unsupported access width")]
    fn bad_width_panics() {
        MainMemory::new(16).read(0, 3);
    }
}
