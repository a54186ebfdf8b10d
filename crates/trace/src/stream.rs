//! File-backed streaming encode and replay for `.wmtr` traces.
//!
//! The [`codec`] module works over in-memory byte slices:
//! good for cache round-trips, useless once a capture no longer fits in
//! RAM (a few minutes of Valgrind/Lackey output is gigabytes). This
//! module is the bounded-memory counterpart:
//!
//! * [`StreamingEncoder`] is a [`TraceSink`]: any producer — the CPU
//!   interpreter, a log parser, a synthetic generator — pushes events
//!   into it one at a time and they land on disk incrementally. Fetches
//!   spool into the fetch section, loads/stores into the data section,
//!   each through a small scratch buffer, so resident memory is O(buffer)
//!   no matter how long the stream runs. [`StreamingEncoder::finish`]
//!   then assembles the exact same v2 wire format as
//!   [`codec::encode_into_with_hash`]
//!   — byte for byte, checksum included — by splicing header, spooled
//!   sections and trailer together in one streamed pass.
//! * [`StreamingTrace`] is the read side: a validated handle to an
//!   encoded file that replays events into any [`TraceSink`] through
//!   the codec's one section decoder (a bounded window of buffered
//!   reads, batched [`TraceSink::events`] calls) without ever
//!   materializing the event vector. Opening runs the codec's one header
//!   check — magic, version, length arithmetic, event counts — and a
//!   full checksum pass over the file, so a corrupt or truncated capture
//!   is an `Err` before a single event is emitted, and the same bytes
//!   get the same verdict as [`codec::decode`]. Replay takes `&self` and
//!   opens its own file handle per call, so one handle serves many
//!   concurrent cursors — in the simulator, one per replay chain, which
//!   runs each decoded batch through its one cache and hands the
//!   outcomes to every front of the chain.
//!
//! The memory contract, concretely: replay holds one 64 KiB read window
//! plus one batch of decoded events (default 4096 × 24 B ≈ 96 KiB) per
//! active cursor. The batch size is tunable per handle via
//! [`StreamingTrace::with_batch`] — the differential tests sweep it to
//! pin batch-boundary independence.

use std::fmt;
use std::fs;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use waymem_obs::metrics::Stopwatch;
use waymem_obs::phase::Phase;

use waymem_isa::{FetchKind, RecordedTrace, TraceEvent, TraceSink};

use crate::codec::{
    self, CodecError, Header, Section, FNV1A32_SEED, HEADER_LEN, MAGIC, MAX_EVENT_WIRE,
    REPLAY_CHUNK, TRAILER_LEN, WINDOW_BYTES,
};
use crate::fault::{read_full, FaultFile, StoreIo};

/// Why a streamed trace file could not be written, opened, or replayed.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying file I/O failed.
    Io(io::Error),
    /// The file's bytes are not a valid `.wmtr` stream.
    Codec(CodecError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "trace stream I/O error: {e}"),
            StreamError::Codec(e) => write!(f, "trace stream decode error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Codec(e) => Some(e),
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<CodecError> for StreamError {
    fn from(e: CodecError) -> Self {
        StreamError::Codec(e)
    }
}

/// What [`StreamingEncoder::finish`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Events encoded into the fetch section.
    pub fetch_events: u64,
    /// Events encoded into the data section.
    pub data_events: u64,
    /// Total bytes of the finished file (header + sections + trailer).
    pub bytes: u64,
}

impl StreamStats {
    /// Total events across both sections.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.fetch_events + self.data_events
    }
}

/// Removes its temp files when dropped, so an abandoned encode (producer
/// error, panic unwinding) does not leave section spools behind.
#[derive(Debug)]
struct TempGuard(Vec<PathBuf>);

impl Drop for TempGuard {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = fs::remove_file(p);
        }
    }
}

/// One section's spool: events encode into a scratch buffer that is
/// flushed to a temp file, keeping resident memory bounded.
#[derive(Debug)]
struct SectionSpool {
    path: PathBuf,
    file: BufWriter<FaultFile>,
    buf: Vec<u8>,
    bytes: u64,
    count: u64,
    prev: u32,
}

impl SectionSpool {
    fn create(path: PathBuf, io: &StoreIo) -> io::Result<Self> {
        let file = BufWriter::new(io.create(&path)?);
        Ok(SectionSpool {
            path,
            file,
            buf: Vec::with_capacity(WINDOW_BYTES + MAX_EVENT_WIRE),
            bytes: 0,
            count: 0,
            prev: 0,
        })
    }

    fn push(&mut self, e: TraceEvent) -> io::Result<()> {
        codec::encode_event(&mut self.buf, e, &mut self.prev);
        self.count += 1;
        if self.buf.len() >= WINDOW_BYTES {
            self.flush_buf()?;
        }
        Ok(())
    }

    fn flush_buf(&mut self) -> io::Result<()> {
        self.file.write_all(&self.buf)?;
        self.bytes += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flushes everything to disk and closes the spool's writer.
    fn seal(mut self) -> io::Result<(PathBuf, u64, u64)> {
        self.flush_buf()?;
        self.file.flush()?;
        Ok((self.path, self.bytes, self.count))
    }
}

/// A [`TraceSink`] that encodes its event stream straight to a `.wmtr`
/// file with bounded resident memory.
///
/// Fetch events land in the fetch section, loads/stores in the data
/// section — the same split [`RecordedTrace`] maintains — so a producer
/// can stream events in program order and the finished file is
/// byte-identical to materializing the trace and calling
/// [`codec::encode_with_hash`].
///
/// `TraceSink` methods cannot return errors, so the encoder stashes the
/// first I/O failure and reports it from [`finish`](Self::finish); after
/// a failure every subsequent event is a no-op.
#[derive(Debug)]
pub struct StreamingEncoder {
    out_path: PathBuf,
    fetch: SectionSpool,
    data: SectionSpool,
    temps: TempGuard,
    error: Option<io::Error>,
    io: StoreIo,
}

impl StreamingEncoder {
    /// Opens an encoder that will write the finished stream to `path`,
    /// spooling sections into `<path>.fetch.p<pid>-<n>.tmp` /
    /// `<path>.data.p<pid>-<n>.tmp` alongside it in the meantime. The
    /// spool names are unique per encoder (see [`StoreIo::temp_path`]),
    /// so two encoders for one path never share a spool, and the store's
    /// orphan sweep can tell a dead writer's spools by their pid.
    ///
    /// # Errors
    ///
    /// Propagates failures creating the parent directory or temp files.
    pub fn create(path: &Path) -> io::Result<Self> {
        Self::create_with(path, StoreIo::passthrough())
    }

    /// [`create`](Self::create) with an explicit [`StoreIo`] seam —
    /// how the store threads its fault plan and retry accounting through
    /// an encode; production callers use `create`.
    ///
    /// # Errors
    ///
    /// As [`create`](Self::create).
    pub fn create_with(path: &Path, io: StoreIo) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let spool = |section: &str| {
            let mut os = path.as_os_str().to_owned();
            os.push(section);
            StoreIo::temp_path(Path::new(&os))
        };
        let fetch_path = spool(".fetch");
        let data_path = spool(".data");
        let temps = TempGuard(vec![fetch_path.clone(), data_path.clone()]);
        Ok(StreamingEncoder {
            out_path: path.to_path_buf(),
            fetch: SectionSpool::create(fetch_path, &io)?,
            data: SectionSpool::create(data_path, &io)?,
            temps,
            error: None,
            io,
        })
    }

    /// Events pushed so far (both sections).
    #[must_use]
    pub fn event_count(&self) -> u64 {
        self.fetch.count + self.data.count
    }

    fn push(&mut self, section: Section, e: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let spool = match section {
            Section::Fetch => &mut self.fetch,
            Section::Data => &mut self.data,
        };
        if let Err(err) = spool.push(e) {
            self.error = Some(err);
        }
    }

    /// Seals the stream: writes the v2 header, splices both spooled
    /// sections through an incremental checksum, appends the trailer,
    /// and removes the temp spools. The result is byte-identical to
    /// [`codec::encode_with_hash`] on
    /// the materialized trace.
    ///
    /// The finished file appears **atomically**: everything is assembled
    /// in a process-unique `<path>.p<pid>-<n>.tmp` sibling, fsynced, and
    /// renamed over the final name — a crash mid-finish leaves only temp
    /// files (which the store's orphan sweep reclaims), never a torn
    /// `.wmtr`.
    ///
    /// # Errors
    ///
    /// The first I/O failure, whether stashed during event push or hit
    /// while assembling the final file.
    pub fn finish(self, cycles: u64, source_hash: u64) -> Result<StreamStats, StreamError> {
        let _phase = waymem_obs::phase::enter(Phase::Io);
        let _span = waymem_obs::span!("store.io.write", events = self.event_count());
        let StreamingEncoder {
            out_path,
            fetch,
            data,
            temps,
            error,
            io,
        } = self;
        if let Some(err) = error {
            return Err(StreamError::Io(err));
        }
        let (fetch_path, fetch_len, fetch_count) = fetch.seal()?;
        let (data_path, data_len, data_count) = data.seal()?;

        let header = Header {
            fetch_count,
            data_count,
            cycles,
            fetch_len,
            data_len,
            source_hash,
        };
        let header_bytes = header.to_bytes();

        let final_tmp = StoreIo::temp_path(&out_path);
        let final_guard = TempGuard(vec![final_tmp.clone()]);
        let mut out = BufWriter::new(io.create(&final_tmp)?);
        out.write_all(&header_bytes)?;
        let mut checksum = codec::fnv1a32_update(FNV1A32_SEED, &header_bytes[MAGIC.len()..]);
        let mut splice = |path: &Path| -> io::Result<()> {
            let mut src = io.open(path)?;
            let mut buf = vec![0u8; WINDOW_BYTES];
            loop {
                let n = io.retry(|| src.read(&mut buf))?;
                if n == 0 {
                    return Ok(());
                }
                checksum = codec::fnv1a32_update(checksum, &buf[..n]);
                out.write_all(&buf[..n])?;
            }
        };
        splice(&fetch_path)?;
        splice(&data_path)?;
        out.write_all(&checksum.to_le_bytes())?;
        out.flush()?;
        out.get_ref().sync_all()?;
        drop(out);
        fs::rename(&final_tmp, &out_path)?;
        drop(final_guard); // renamed away; nothing left to remove
        drop(temps); // removes the section spools

        Ok(StreamStats {
            fetch_events: fetch_count,
            data_events: data_count,
            bytes: header.encoded_len(),
        })
    }
}

impl TraceSink for StreamingEncoder {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        self.push(Section::Fetch, TraceEvent::Fetch { pc, kind });
    }

    fn load(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.push(Section::Data, TraceEvent::Load { base, disp, addr, size });
    }

    fn store(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.push(Section::Data, TraceEvent::Store { base, disp, addr, size });
    }
}

/// Encodes an already-materialized trace to `path` in one pass — the
/// spill bridge from the `Arc<RecordedTrace>` world into the streaming
/// one (e.g. a store serving a streaming open from its in-memory cache).
/// The file appears atomically (temp + fsync + rename). Returns the
/// number of bytes written.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_encoded(trace: &RecordedTrace, source_hash: u64, path: &Path) -> io::Result<u64> {
    write_encoded_with(trace, source_hash, path, &StoreIo::passthrough())
}

/// [`write_encoded`] through an explicit [`StoreIo`] seam (fault plan +
/// retry accounting); production callers use [`write_encoded`].
///
/// # Errors
///
/// As [`write_encoded`].
pub fn write_encoded_with(
    trace: &RecordedTrace,
    source_hash: u64,
    path: &Path,
    io: &StoreIo,
) -> io::Result<u64> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let bytes = codec::encode_with_hash(trace, source_hash);
    io.write_atomic(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Produces a `.wmtr` file at a fresh scratch path under the system temp
/// dir, validates it through `io` and hands it back marked
/// [`delete_on_drop`](StreamingTrace::delete_on_drop), along with
/// whatever `produce` returned — the one home of every trace file
/// nothing should outlive: store-less streaming runs and a memory-only
/// store's streaming opens. If `produce` fails, or the file it wrote
/// fails validation, the file is removed before the error returns, so a
/// failed run leaves nothing behind.
///
/// # Errors
///
/// The producer's error, or the validation failure via
/// `E: From<StreamError>`.
pub fn scratch<T, E: From<StreamError>>(
    io: StoreIo,
    produce: impl FnOnce(&Path) -> Result<T, E>,
) -> Result<(StreamingTrace, T), E> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("waymem-scratch-{}-{n}.wmtr", std::process::id()));
    match produce(&path).and_then(|made| Ok((StreamingTrace::open_with(&path, io)?, made))) {
        Ok((st, made)) => Ok((st.delete_on_drop(), made)),
        Err(e) => {
            let _ = fs::remove_file(&path);
            Err(e)
        }
    }
}

/// A validated, replayable handle to an encoded trace file.
///
/// Holds the header fields and the path — never the events. See the
/// [module docs](self) for the memory contract.
#[derive(Debug)]
pub struct StreamingTrace {
    path: PathBuf,
    header: Header,
    batch: usize,
    delete_on_drop: bool,
    io: StoreIo,
}

impl StreamingTrace {
    /// Opens and validates `path`: the codec's header check (magic,
    /// version, length arithmetic, event counts) and a full streamed
    /// checksum pass — so corruption or truncation is an `Err` here,
    /// before any replay starts, and the same `CodecError` that
    /// [`codec::decode`] reports for the same bytes.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] if the file cannot be read,
    /// [`StreamError::Codec`] if its bytes are malformed.
    pub fn open(path: &Path) -> Result<Self, StreamError> {
        Self::open_with(path, StoreIo::passthrough())
    }

    /// [`open`](Self::open) with an explicit [`StoreIo`] seam: every
    /// read of the validation pass *and of later replays through this
    /// handle* goes through it, with transient errors retried (and
    /// counted). The validation pass is timed into the `store.io.read_ns`
    /// histogram. Production callers use `open`.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_with(path: &Path, io: StoreIo) -> Result<Self, StreamError> {
        let _phase = waymem_obs::phase::enter(Phase::Io);
        let _span = waymem_obs::span!("store.io.open");
        let _read = Stopwatch::new(waymem_obs::histogram!("store.io.read_ns"));
        let mut file = io.open(path)?;
        let file_len = io.retry(|| file.seek(SeekFrom::End(0)))?;
        file.seek(SeekFrom::Start(0))?;
        let mut head = [0u8; HEADER_LEN];
        let head = &mut head[..usize::try_from(file_len.min(HEADER_LEN as u64)).expect("bounded")];
        read_full(&mut file, head, &io)?;
        let header = Header::read(head, file_len)?;

        // Full-file checksum pass (everything after the magic, up to the
        // trailer), streamed through a bounded buffer.
        file.seek(SeekFrom::Start(MAGIC.len() as u64))?;
        let mut covered = Read::by_ref(&mut file).take(file_len - (MAGIC.len() + TRAILER_LEN) as u64);
        let mut checksum = FNV1A32_SEED;
        let mut buf = vec![0u8; WINDOW_BYTES];
        loop {
            let n = io.retry(|| covered.read(&mut buf))?;
            if n == 0 {
                break;
            }
            checksum = codec::fnv1a32_update(checksum, &buf[..n]);
        }
        let mut trailer = [0u8; TRAILER_LEN];
        read_full(&mut file, &mut trailer, &io)?;
        codec::check_trailer(trailer, checksum)?;

        Ok(StreamingTrace {
            path: path.to_path_buf(),
            header,
            batch: REPLAY_CHUNK,
            delete_on_drop: false,
            io,
        })
    }

    /// Sets the replay batch size (events per [`TraceSink::events`]
    /// call), clamped to at least 1. Smaller batches shrink the scratch
    /// buffer; the default (4096) amortizes the per-batch virtual
    /// call. Replay results are batch-size independent — the
    /// differential tests sweep this knob to prove it.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Marks the underlying file for removal when this handle drops —
    /// the store-less temp-file path uses it so scratch captures clean
    /// themselves up.
    #[must_use]
    pub fn delete_on_drop(mut self) -> Self {
        self.delete_on_drop = true;
        self
    }

    /// The file this handle replays from.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Instructions retired by the recorded run.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.header.cycles
    }

    /// The source hash embedded in the header.
    #[must_use]
    pub fn source_hash(&self) -> u64 {
        self.header.source_hash
    }

    /// Events in the fetch stream.
    #[must_use]
    pub fn fetch_count(&self) -> u64 {
        self.header.fetch_count
    }

    /// Events in the data stream.
    #[must_use]
    pub fn data_count(&self) -> u64 {
        self.header.data_count
    }

    /// Total events across both streams.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.fetch_count() + self.data_count()
    }

    /// `true` when the file holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the whole file (header, sections and trailer).
    pub(crate) fn encoded_len(&self) -> u64 {
        self.header.encoded_len()
    }

    /// Streams one section into `sink` through the codec's section
    /// decoder: a bounded read window and batched [`TraceSink::events`]
    /// calls. Takes `&self` and opens its own file handle, so concurrent
    /// replays (one cursor per replay chain) do not contend. Returns the
    /// number of events replayed.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] on read failure, [`StreamError::Codec`] if the
    /// section's bytes are malformed (e.g. the file changed after
    /// [`open`](Self::open)); events already emitted before the error
    /// stand.
    pub fn replay_section<S: TraceSink + ?Sized>(
        &self,
        section: Section,
        sink: &mut S,
    ) -> Result<u64, StreamError> {
        let (offset, len, declared) = self.header.section(section);
        let mut file = self.io.open(&self.path)?;
        file.seek(SeekFrom::Start(offset))?;
        let mut reader = file.take(len);
        codec::decode_section(
            len,
            declared,
            self.batch,
            |buf| Ok(self.io.retry(|| reader.read(buf))?),
            |batch| deliver_batch(sink, batch),
        )
    }

    /// Streams both sections (fetches, then loads/stores) into `sink`.
    /// Returns the total number of events replayed.
    ///
    /// # Errors
    ///
    /// Propagates the first [`StreamError`] from either section.
    pub fn replay<S: TraceSink + ?Sized>(&self, sink: &mut S) -> Result<u64, StreamError> {
        Ok(self.replay_section(Section::Fetch, sink)? + self.replay_section(Section::Data, sink)?)
    }

    /// Materializes the full [`RecordedTrace`] — the bridge back for
    /// differential tests and small-trace callers.
    ///
    /// # Errors
    ///
    /// Propagates the first [`StreamError`] from either section.
    pub fn decode(&self) -> Result<RecordedTrace, StreamError> {
        self.header.materialize(|section, sink| self.replay_section(section, sink))
    }
}

/// Hands one decoded batch to the sink, recording its latency into the
/// `replay.batch_ns` histogram — the per-batch cost the ROADMAP's
/// throughput work wants visible. Two `Instant` reads per default-size
/// (4096-event) batch: noise against the batch's replay cost.
fn deliver_batch<S: TraceSink + ?Sized>(sink: &mut S, chunk: &[TraceEvent]) {
    let started = Instant::now();
    sink.events(chunk);
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    waymem_obs::histogram!("replay.batch_ns").record(ns);
}

impl Drop for StreamingTrace {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_with_hash;
    use waymem_isa::CountingSink;

    /// Self-cleaning scratch directory (mirrors the store tests' helper).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("waymem-stream-test-{}-{tag}", std::process::id()));
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_trace() -> RecordedTrace {
        let mut fetch_events = Vec::new();
        let mut data_events = Vec::new();
        for i in 0..10_000u32 {
            let pc = 0x1000 + 8 * i;
            let kind = if i % 97 == 0 && i > 0 {
                FetchKind::TakenBranch { base: pc.wrapping_sub(8), disp: -(i as i32 % 64) }
            } else {
                FetchKind::Sequential
            };
            fetch_events.push(TraceEvent::Fetch { pc, kind });
            if i % 3 == 0 {
                data_events.push(TraceEvent::Load {
                    base: 0x8000 + (i % 512),
                    disp: 4,
                    addr: 0x8004 + (i % 512),
                    size: 4,
                });
            }
        }
        RecordedTrace { fetch_events, data_events, cycles: 10_000 }
    }

    fn encode_streaming(trace: &RecordedTrace, source_hash: u64, path: &Path) -> StreamStats {
        let mut enc = StreamingEncoder::create(path).expect("create encoder");
        // Interleave sections the way a real producer would.
        let mut data = trace.data_events.iter();
        for (i, &e) in trace.fetch_events.iter().enumerate() {
            enc.events(&[e]);
            if i % 3 == 0 {
                if let Some(&d) = data.next() {
                    enc.events(&[d]);
                }
            }
        }
        for &d in data {
            enc.events(&[d]);
        }
        enc.finish(trace.cycles, source_hash).expect("finish")
    }

    #[test]
    fn streaming_encoder_is_byte_identical_to_slice_encoder() {
        let dir = TempDir::new("byte-identical");
        let trace = sample_trace();
        let path = dir.path("t.wmtr");
        let stats = encode_streaming(&trace, 0xabcd_ef01_2345_6789, &path);
        let streamed = fs::read(&path).expect("read");
        let sliced = encode_with_hash(&trace, 0xabcd_ef01_2345_6789);
        assert_eq!(streamed, sliced);
        assert_eq!(stats.bytes, sliced.len() as u64);
        assert_eq!(stats.fetch_events, trace.fetch_events.len() as u64);
        assert_eq!(stats.data_events, trace.data_events.len() as u64);
        assert_no_temps(&dir);
    }

    /// No `*.tmp` left in the directory: spools and the assembled
    /// temp are gone once an encoder finishes.
    fn assert_no_temps(dir: &TempDir) {
        let temps: Vec<_> = fs::read_dir(&dir.0)
            .expect("read dir")
            .flatten()
            .map(|e| e.file_name())
            .filter(|n| n.to_string_lossy().ends_with(crate::fault::TEMP_SUFFIX))
            .collect();
        assert!(temps.is_empty(), "temp files left behind: {temps:?}");
    }

    #[test]
    fn two_encoders_for_one_path_both_finish() {
        let dir = TempDir::new("two-encoders");
        let trace = sample_trace();
        let path = dir.path("t.wmtr");
        let push = |enc: &mut StreamingEncoder, events: &[TraceEvent]| {
            for &e in events {
                enc.events(&[e]);
            }
        };
        // A pushes its fetches, then B opens for the same path (a second
        // process whose record lock wait timed out), then both push all.
        let mut a = StreamingEncoder::create(&path).expect("create A");
        push(&mut a, &trace.fetch_events);
        let mut b = StreamingEncoder::create(&path).expect("create B");
        push(&mut b, &trace.fetch_events);
        push(&mut a, &trace.data_events);
        push(&mut b, &trace.data_events);
        a.finish(trace.cycles, 9).expect("A finishes");
        b.finish(trace.cycles, 9).expect("B finishes");
        assert_eq!(StreamingTrace::open(&path).expect("opens").decode().expect("decodes"), trace);
        assert_no_temps(&dir);
    }

    #[test]
    fn streaming_trace_replays_the_exact_trace() {
        let dir = TempDir::new("replay");
        let trace = sample_trace();
        let path = dir.path("t.wmtr");
        encode_streaming(&trace, 7, &path);
        let st = StreamingTrace::open(&path).expect("opens");
        assert_eq!(st.cycles(), trace.cycles);
        assert_eq!(st.source_hash(), 7);
        assert_eq!(st.fetch_count(), trace.fetch_events.len() as u64);
        assert_eq!(st.data_count(), trace.data_events.len() as u64);
        assert_eq!(st.decode().expect("decodes"), trace);
        let mut counts = CountingSink::default();
        let replayed = st.replay(&mut counts).expect("replays");
        assert_eq!(replayed, trace.len() as u64);
        assert_eq!(counts.fetches, trace.fetch_events.len() as u64);
        assert_eq!(counts.loads, trace.data_events.len() as u64);
    }

    #[test]
    fn batch_size_does_not_change_the_replay() {
        let dir = TempDir::new("batch");
        let trace = sample_trace();
        let path = dir.path("t.wmtr");
        encode_streaming(&trace, 0, &path);
        let n = trace.fetch_events.len();
        for batch in [1usize, 7, n - 1, n, n + 10] {
            let st = StreamingTrace::open(&path).expect("opens").with_batch(batch);
            assert_eq!(st.decode().expect("decodes"), trace, "batch {batch}");
        }
    }

    #[test]
    fn empty_stream_round_trips() {
        let dir = TempDir::new("empty");
        let path = dir.path("empty.wmtr");
        let enc = StreamingEncoder::create(&path).expect("create");
        let stats = enc.finish(0, 0).expect("finish");
        assert_eq!(stats.events(), 0);
        let st = StreamingTrace::open(&path).expect("opens");
        assert!(st.is_empty());
        assert_eq!(st.decode().expect("decodes"), RecordedTrace::default());
    }

    #[test]
    fn corrupt_and_truncated_files_error_at_open() {
        let dir = TempDir::new("corrupt");
        let trace = sample_trace();
        let path = dir.path("t.wmtr");
        encode_streaming(&trace, 0, &path);
        let bytes = fs::read(&path).expect("read");
        // Any single-byte flip fails the open-time checksum pass.
        for at in [0usize, 5, HEADER_LEN + 3, bytes.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x01;
            let p = dir.path("corrupt.wmtr");
            fs::write(&p, &corrupt).expect("write");
            assert!(StreamingTrace::open(&p).is_err(), "flip at {at} opened");
        }
        // Truncations fail length or checksum validation.
        for len in [0usize, 10, HEADER_LEN, bytes.len() - 1] {
            let p = dir.path("trunc.wmtr");
            fs::write(&p, &bytes[..len]).expect("write");
            assert!(StreamingTrace::open(&p).is_err(), "prefix of {len} opened");
        }
    }

    #[test]
    fn delete_on_drop_removes_the_file() {
        let dir = TempDir::new("delete");
        let path = dir.path("t.wmtr");
        encode_streaming(&sample_trace(), 0, &path);
        {
            let st = StreamingTrace::open(&path).expect("opens").delete_on_drop();
            assert!(st.path().exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn scratch_hands_back_a_self_cleaning_handle_and_the_producers_value() {
        let trace = sample_trace();
        let (st, bytes) = scratch(StoreIo::passthrough(), |path| {
            write_encoded(&trace, 5, path).map_err(StreamError::from)
        })
        .expect("produces and opens");
        let path = st.path().to_path_buf();
        assert!(path.starts_with(std::env::temp_dir()));
        assert_eq!(fs::metadata(&path).expect("exists").len(), bytes);
        assert_eq!(st.decode().expect("decodes"), trace);
        drop(st);
        assert!(!path.exists(), "scratch file must go with its handle");
    }

    #[test]
    fn scratch_removes_the_file_when_production_fails_after_writing_it() {
        let mut seen = None;
        let failed = scratch(StoreIo::passthrough(), |path| -> Result<(), StreamError> {
            seen = Some(path.to_path_buf());
            write_encoded(&sample_trace(), 0, path)?;
            Err(StreamError::Io(io::Error::other("producer failed after sealing")))
        });
        assert!(failed.is_err());
        let path = seen.expect("the producer ran");
        assert!(!path.exists(), "a failed production left {}", path.display());
    }

    #[test]
    fn scratch_removes_a_file_that_fails_validation() {
        let mut seen = None;
        let failed = scratch(StoreIo::passthrough(), |path| -> Result<(), StreamError> {
            seen = Some(path.to_path_buf());
            fs::write(path, b"WMTRgarbage, not a trace")?;
            Ok(())
        });
        assert!(failed.is_err(), "garbage must not open");
        let path = seen.expect("the producer ran");
        assert!(!path.exists(), "an invalid scratch file survived at {}", path.display());
    }

    #[test]
    fn write_encoded_matches_the_slice_encoder() {
        let dir = TempDir::new("spill");
        let trace = sample_trace();
        let path = dir.path("spill.wmtr");
        let bytes = write_encoded(&trace, 42, &path).expect("writes");
        let on_disk = fs::read(&path).expect("read");
        assert_eq!(bytes, on_disk.len() as u64);
        assert_eq!(on_disk, encode_with_hash(&trace, 42));
        let st = StreamingTrace::open(&path).expect("opens");
        assert_eq!(st.source_hash(), 42);
        assert_eq!(st.decode().expect("decodes"), trace);
    }
}
