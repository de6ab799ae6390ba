//! Event sinks: where emitted events go.

use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io;
use std::path::Path;

use crate::codec::{CodecError, Dec, Enc, OutStream, Snapshot};
use crate::event::TraceEvent;

/// Wire tags of the two sink kinds in a saved sink state.
const RING_TAG: u8 = 0;
const FILE_TAG: u8 = 1;

/// Destination for emitted [`TraceEvent`]s.
///
/// Implementations must be cheap: `record` sits behind the hot-path hooks
/// and runs once per enabled event.
///
/// A sink's [`Snapshot`] is its resumable state. A ring sink carries its
/// buffered events; a streaming file sink only carries its progress
/// counters — the events already live in the file, which restore
/// truncates back to the saved byte count (a run killed after the
/// checkpoint may have written further).
pub trait TraceSink: Snapshot {
    /// Stores one event (possibly evicting an older one).
    fn record(&mut self, event: TraceEvent);

    /// Number of events currently held.
    fn buffered(&self) -> usize;

    /// Number of events evicted to make room (0 for unbounded sinks).
    fn dropped(&self) -> u64;

    /// Removes and returns all held events in arrival order.
    fn drain(&mut self) -> Vec<TraceEvent>;

    /// The first I/O error the sink encountered, if any. In-memory sinks
    /// never fail; streaming sinks latch write/flush errors here so the
    /// report layer can surface a truncated trace instead of silently
    /// shipping one.
    fn io_error(&self) -> Option<io::ErrorKind> {
        None
    }

    /// Pushes buffered output to its destination, so a state saved next
    /// matches what is on disk. In-memory sinks have nothing to push.
    fn sync(&mut self) {}
}

/// A bounded ring buffer keeping the most recent `capacity` events.
///
/// When full, the oldest event is evicted and counted in
/// [`RingSink::dropped`] — a long run keeps its tail (the interesting
/// part: the final iterations and the kernel end) instead of aborting or
/// growing without bound.
///
/// # Examples
///
/// ```
/// use sparseweaver_trace::{EventData, RingSink, TraceEvent, TraceSink};
///
/// let mut s = RingSink::new(2);
/// for cycle in 0..5 {
///     s.record(TraceEvent { cycle, core: 0, data: EventData::DramTransaction { write: false } });
/// }
/// assert_eq!(s.buffered(), 2);
/// assert_eq!(s.dropped(), 3);
/// assert_eq!(s.drain().first().unwrap().cycle, 3);
/// ```
#[derive(Debug)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Default capacity used when none is configured (~1M events).
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink {
            buf: VecDeque::with_capacity(capacity.min(Self::DEFAULT_CAPACITY)),
            capacity,
            dropped: 0,
        }
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    fn buffered(&self) -> usize {
        self.buf.len()
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }
}

impl Snapshot for RingSink {
    fn save(&self, e: &mut Enc) {
        e.u8(RING_TAG);
        e.usize(self.buf.len());
        for ev in &self.buf {
            ev.save(e);
        }
        e.u64(self.dropped);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        expect_kind(d, RING_TAG)?;
        let len = d.seq_len(13)?;
        if len > self.capacity {
            return Err(restore_err(format!(
                "ring state holds {len} events but capacity is {}",
                self.capacity
            )));
        }
        self.buf.clear();
        for _ in 0..len {
            self.buf.push_back(TraceEvent::decode(d)?);
        }
        self.dropped = d.u64()?;
        Ok(())
    }
}

/// Reads a sink-kind tag that must name the sink restoring it.
fn expect_kind(d: &mut Dec<'_>, want: u8) -> Result<(), CodecError> {
    match d.u8()? {
        t if t == want => Ok(()),
        RING_TAG => Err(restore_err("ring-sink state cannot restore a file sink")),
        FILE_TAG => Err(restore_err("file-sink state cannot restore a ring sink")),
        t => Err(d.corrupt(format!("unknown sink-state tag {t}"))),
    }
}

fn restore_err(what: impl Into<String>) -> CodecError {
    CodecError::Restore { what: what.into() }
}

/// A streaming sink writing one JSON object per event to a `.jsonl` file.
///
/// Unlike [`RingSink`], nothing is buffered in memory and nothing is ever
/// evicted: every event survives, so arbitrarily long runs can be traced
/// without losing the head of the timeline. Lines are
/// [`crate::export::event_json`] objects; reassemble a Chrome/Perfetto
/// trace with `jq -s '{traceEvents: .}' out.jsonl`.
///
/// Write errors after a successful open are latched rather than panicking
/// mid-simulation; check [`TraceSink::io_error`] after a
/// [`TraceSink::sync`].
#[derive(Debug)]
pub struct FileSink {
    out: OutStream,
    written: u64,
}

impl FileSink {
    /// Creates (truncating) the file at `path`. A path of `-` streams to
    /// stdout instead, following the usual CLI convention.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the file cannot be created.
    pub fn create(path: &Path) -> io::Result<FileSink> {
        Ok(FileSink {
            out: OutStream::create(path)?,
            written: 0,
        })
    }

    /// Opens the existing file at `path` *without truncating it*, for a
    /// resume: the caller then restores the sink state saved at checkpoint
    /// time, which trims the file back to the checkpointed byte count and
    /// continues appending. A path of `-` cannot be resumed
    /// (already-printed stdout cannot be taken back) and is rejected at
    /// restore time.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the file cannot be opened.
    pub fn reopen(path: &Path) -> io::Result<FileSink> {
        Ok(FileSink {
            out: OutStream::open(path, OpenOptions::new().write(true))?,
            written: 0,
        })
    }

    /// Number of events written so far (including buffered ones).
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl TraceSink for FileSink {
    fn record(&mut self, event: TraceEvent) {
        let mut line = crate::export::event_json(&event);
        line.push('\n');
        self.out.write(line.as_bytes());
        if self.out.error().is_none() {
            self.written += 1;
        }
    }

    fn buffered(&self) -> usize {
        0 // events stream straight to the file
    }

    fn dropped(&self) -> u64 {
        0
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        // A failed flush means the file on disk is missing events; `sync`
        // latches it so the report layer surfaces the truncation.
        self.sync();
        Vec::new()
    }

    fn io_error(&self) -> Option<io::ErrorKind> {
        self.out.error()
    }

    fn sync(&mut self) {
        // A failure latches and the report layer surfaces the truncation.
        self.out.flush();
    }
}

impl Snapshot for FileSink {
    fn save(&self, e: &mut Enc) {
        e.u8(FILE_TAG);
        e.u64(self.written);
        e.u64(self.out.bytes());
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        expect_kind(d, FILE_TAG)?;
        let (written, bytes) = (d.u64()?, d.u64()?);
        self.out.truncate(bytes).map_err(|e| {
            restore_err(format!("rewinding the trace stream to {bytes} bytes: {e}"))
        })?;
        self.written = written;
        Ok(())
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        // Last chance to surface a truncated trace: by drop time no one
        // can observe the latch anymore, so a lost flush (or a still
        // latched write error) goes to stderr instead of vanishing.
        self.out.flush();
        if let Some(kind) = self.out.error() {
            eprintln!("warning: trace file is incomplete ({kind}); events were lost");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventData;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            core: 0,
            data: EventData::DramTransaction { write: false },
        }
    }

    #[test]
    fn ring_wraps_keeping_the_newest_events() {
        let mut s = RingSink::new(4);
        for c in 0..10 {
            s.record(ev(c));
        }
        assert_eq!(s.buffered(), 4);
        assert_eq!(s.dropped(), 6);
        let cycles: Vec<u64> = s.drain().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn under_capacity_drops_nothing() {
        let mut s = RingSink::new(8);
        for c in 0..5 {
            s.record(ev(c));
        }
        assert_eq!(s.buffered(), 5);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut s = RingSink::new(0);
        s.record(ev(1));
        s.record(ev(2));
        assert_eq!(s.buffered(), 1);
        assert_eq!(s.drain()[0].cycle, 2);
    }

    #[test]
    fn file_sink_streams_jsonl_without_dropping() {
        let path = std::env::temp_dir().join("sw_file_sink_test.jsonl");
        {
            let mut s = FileSink::create(&path).unwrap();
            for c in 0..100 {
                s.record(ev(c));
            }
            assert_eq!(s.written(), 100);
            assert_eq!(s.dropped(), 0);
            assert_eq!(s.buffered(), 0);
            assert!(s.drain().is_empty()); // events live on disk, not in memory
            assert_eq!(s.io_error(), None);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 100);
        // Every line is a self-contained JSON object.
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[42].contains("\"ts\":42"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dash_path_streams_to_stdout_without_creating_a_file() {
        let mut s = FileSink::create(Path::new("-")).unwrap();
        s.record(ev(7));
        assert_eq!(s.written(), 1);
        s.sync();
        assert!(s.io_error().is_none());
        assert!(!Path::new("-").exists(), "no file literally named `-`");
    }

    #[test]
    fn memory_sinks_never_report_io_errors() {
        let mut s = RingSink::new(4);
        s.record(ev(1));
        assert_eq!(s.io_error(), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn full_device_latches_flush_error_instead_of_discarding_it() {
        // `/dev/full` accepts the open but fails every write with ENOSPC,
        // which a BufWriter only observes at flush time — exactly the
        // path that used to be `let _ = flush()`.
        let path = Path::new("/dev/full");
        if !path.exists() {
            return; // minimal container without /dev/full
        }
        let mut s = FileSink::create(path).unwrap();
        for c in 0..4096 {
            s.record(ev(c)); // enough to overflow the BufWriter at least once
        }
        let _ = s.drain();
        assert!(
            s.io_error().is_some(),
            "flush to a full device must latch an error"
        );
    }
}
