//! # waymem-ingest — run any real-world memory trace through every lookup scheme
//!
//! The simulator evaluated way memoization on seven built-in frv-lite
//! kernels. The MAB's payoff, though, depends entirely on the *locality
//! of the access stream* — so this crate opens the workbench to arbitrary
//! programs and to locality regimes the kernels miss:
//!
//! * [`lackey`] — a streaming, bounded-memory parser for the Valgrind
//!   Lackey `--trace-mem=yes` format (`I addr,size` / ` L …` / ` S …` /
//!   ` M …` lines, valgrind `==pid==`/`--pid--` banners skipped), the
//!   de-facto standard way to capture a real program's memory trace;
//! * [`csv`] — a trivial `op,addr[,size]` text format for traces coming
//!   out of custom tooling or spreadsheets;
//! * [`synth`] — deterministic, parameterized synthetic access-pattern
//!   generators (sequential stream, strided walk, pointer chase,
//!   zipf-like hot set) fabricated straight into
//!   [`RecordedTrace`]s.
//!
//! Every parsed or generated trace is a first-class `RecordedTrace`: it
//! flows through `waymem-sim::Experiment::recorded` and the parallel
//! replay engine exactly like a kernel recording, is cached by
//! the [`TraceStore`](waymem_trace::TraceStore) under a
//! [`WorkloadId`] keyed by FNV-1a64 content
//! hash (external logs) or generator spec (synthetics), and lands in the
//! same `BENCH_results.json` rows as the paper's figures.
//!
//! Parsing never panics: every malformed line is a structured
//! [`ParseError`] carrying its 1-based line number and a reason, and the
//! parsers read line-by-line so memory stays bounded by the *output*
//! trace, never by the input text.
//!
//! ```
//! use std::io::Cursor;
//! use waymem_ingest::{parse, LogFormat};
//!
//! let log = "I  0023C790,2\n L 0025747C,4\n S BE80199C,8\n M 0025747C,4\n";
//! let ingested = parse(LogFormat::Lackey, Cursor::new(log)).unwrap();
//! assert_eq!(ingested.trace.fetch_events.len(), 1);
//! assert_eq!(ingested.trace.data_events.len(), 4); // M = load + store
//! assert_ne!(ingested.source_hash, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod csv;
pub mod lackey;
pub mod synth;

use std::fmt;
use std::io::{self, BufRead};
use std::path::Path;

use waymem_isa::{FetchKind, RecordedTrace, TraceEvent, TraceSink};
use waymem_trace::{fnv1a64_update, StreamError, StreamingEncoder, WorkloadId, FNV1A64_SEED};

/// The input grammars this crate understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// Valgrind Lackey `--trace-mem=yes` output (see [`lackey`]).
    Lackey,
    /// The simple `op,addr[,size]` text format (see [`csv`]).
    Csv,
}

impl LogFormat {
    /// Picks a format from a file name: `.csv` means [`LogFormat::Csv`],
    /// anything else the Lackey format (the common capture case).
    #[must_use]
    pub fn for_path(path: &Path) -> Self {
        match path.extension().and_then(|e| e.to_str()) {
            Some(ext) if ext.eq_ignore_ascii_case("csv") => LogFormat::Csv,
            _ => LogFormat::Lackey,
        }
    }
}

/// Why one line of a log failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The line's leading record letter is not one the format defines.
    UnknownRecord(String),
    /// The record letter was not followed by an address.
    MissingAddress,
    /// The address field did not parse in the format's radix.
    BadAddress(String),
    /// The address was not followed by a `,size` field.
    MissingSize,
    /// The size field did not parse as a decimal integer.
    BadSize(String),
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::UnknownRecord(tok) => write!(f, "unknown record type {tok:?}"),
            ParseErrorKind::MissingAddress => write!(f, "missing address field"),
            ParseErrorKind::BadAddress(tok) => write!(f, "malformed address {tok:?}"),
            ParseErrorKind::MissingSize => write!(f, "missing `,size` field"),
            ParseErrorKind::BadSize(tok) => write!(f, "malformed size {tok:?}"),
        }
    }
}

/// A structured parse failure: the offending line (1-based) and why.
/// Malformed input is always one of these — never a panic, never a
/// silently skipped access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based number of the offending line.
    pub line: u64,
    /// What was wrong with it.
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for ParseError {}

/// Why an ingestion failed: the reader broke, or a line was malformed.
#[derive(Debug)]
pub enum IngestError {
    /// An I/O error from the underlying reader.
    Io(io::Error),
    /// A malformed line, with its position and reason.
    Parse(ParseError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "i/o error reading log: {e}"),
            IngestError::Parse(e) => write!(f, "malformed log: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::Parse(e) => Some(e),
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<ParseError> for IngestError {
    fn from(e: ParseError) -> Self {
        IngestError::Parse(e)
    }
}

impl From<StreamError> for IngestError {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::Io(io) => IngestError::Io(io),
            StreamError::Codec(c) => {
                IngestError::Io(io::Error::new(io::ErrorKind::InvalidData, c))
            }
        }
    }
}

/// The provenance and shape of a parsed stream — everything [`Ingested`]
/// knows except the events themselves. This is what the sink-generic
/// entry points ([`parse_into`], [`parse_to_wmtr`]) return: the events
/// went wherever the caller's [`TraceSink`] sent them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// FNV-1a64 of the log's raw bytes — the workload's identity *and*
    /// its staleness fingerprint (an edited log is a different hash).
    pub source_hash: u64,
    /// Total lines read, including skipped ones.
    pub lines: u64,
    /// Lines skipped as blanks, comments or valgrind banners.
    pub skipped: u64,
    /// Instruction fetches emitted.
    pub fetch_events: u64,
    /// Loads and stores emitted.
    pub data_events: u64,
    /// Cycle count for the trace: the fetch count, or the data count for
    /// data-only captures (CPI-1 stand-in for the power models).
    pub cycles: u64,
}

impl IngestStats {
    /// Total events emitted across both streams.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.fetch_events + self.data_events
    }

    /// The store key this log caches under.
    #[must_use]
    pub fn workload_id(&self) -> WorkloadId {
        WorkloadId::External { hash: self.source_hash }
    }
}

/// A successfully ingested log: the trace plus its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ingested {
    /// The reconstructed trace, ready for `waymem-sim::Experiment::recorded`.
    pub trace: RecordedTrace,
    /// FNV-1a64 of the log's raw bytes — the workload's identity *and*
    /// its staleness fingerprint (an edited log is a different hash).
    pub source_hash: u64,
    /// Total lines read, including skipped ones.
    pub lines: u64,
    /// Lines skipped as blanks, comments or valgrind banners.
    pub skipped: u64,
}

impl Ingested {
    /// The store key this log caches under.
    #[must_use]
    pub fn workload_id(&self) -> WorkloadId {
        WorkloadId::External { hash: self.source_hash }
    }
}

/// The memory operations a log line can describe, shared by all formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// An instruction fetch.
    Instr,
    /// A data load.
    Load,
    /// A data store.
    Store,
    /// A read-modify-write: one load then one store at the address.
    Modify,
}

/// The crate's collecting sink: splits the stream into the fetch/data
/// vectors a [`RecordedTrace`] holds. This is what the materializing
/// entry points ([`parse`], [`synth::generate`]) plug into the
/// sink-generic core.
#[derive(Debug, Default)]
pub(crate) struct SplitSink {
    pub(crate) fetch_events: Vec<TraceEvent>,
    pub(crate) data_events: Vec<TraceEvent>,
}

impl TraceSink for SplitSink {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        self.fetch_events.push(TraceEvent::Fetch { pc, kind });
    }

    fn load(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.data_events.push(TraceEvent::Load { base, disp, addr, size });
    }

    fn store(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.data_events.push(TraceEvent::Store { base, disp, addr, size });
    }
}

/// The shared trace assembler behind both parsers (and the synthetic
/// generators): reconstructs fetch-kind provenance from the PC sequence,
/// hashes the raw input bytes as they stream through, and emits every
/// event straight into the caller's [`TraceSink`] — a collecting
/// [`SplitSink`] to materialize, a
/// [`StreamingEncoder`] to go straight to disk in bounded memory.
///
/// External logs carry no architectural base/displacement or control-flow
/// information, so the builder reconstructs the closest sound analogue:
/// a fetch that continues straight from the previous one (`pc == prev +
/// prev_size`) is [`FetchKind::Sequential`]; any other fetch is modelled
/// as a taken branch *from the previous instruction* —
/// `TakenBranch { base: prev_pc, disp: pc − prev_pc }` — which gives the
/// I-MAB a stable `(site, offset)` key per control transfer, exactly the
/// recurrence it memoizes on real hardware. Loads and stores use the
/// raw-address convention ([`TraceEvent::load_at`]). Addresses are
/// truncated to the simulated machine's 32 bits.
#[derive(Debug)]
pub(crate) struct TraceBuilder<S: TraceSink> {
    sink: S,
    last_fetch: Option<(u32, u32)>,
    hash: u64,
    lines: u64,
    skipped: u64,
    fetch_count: u64,
    data_count: u64,
}

impl<S: TraceSink> TraceBuilder<S> {
    pub(crate) fn new(sink: S) -> Self {
        TraceBuilder {
            sink,
            last_fetch: None,
            hash: FNV1A64_SEED,
            lines: 0,
            skipped: 0,
            fetch_count: 0,
            data_count: 0,
        }
    }

    /// Folds one raw input line (newline included) into the content hash
    /// and returns its 1-based line number.
    pub(crate) fn start_line(&mut self, raw: &str) -> u64 {
        self.hash = fnv1a64_update(self.hash, raw.as_bytes());
        self.lines += 1;
        self.lines
    }

    pub(crate) fn skip_line(&mut self) {
        self.skipped += 1;
    }

    pub(crate) fn push(&mut self, op: Op, addr: u64, size: u64) {
        // The simulated machine is 32-bit; 64-bit capture addresses keep
        // their cache-relevant low bits. Sizes only matter as metadata.
        let addr32 = addr as u32;
        let size8 = u8::try_from(size).unwrap_or(u8::MAX);
        match op {
            Op::Instr => {
                let kind = match self.last_fetch {
                    Some((prev, prev_size)) if addr32 == prev.wrapping_add(prev_size) => {
                        FetchKind::Sequential
                    }
                    Some((prev, _)) => FetchKind::TakenBranch {
                        base: prev,
                        disp: addr32.wrapping_sub(prev) as i32,
                    },
                    None => FetchKind::Sequential,
                };
                self.sink.fetch(addr32, kind);
                self.fetch_count += 1;
                self.last_fetch = Some((addr32, size8.max(1).into()));
            }
            Op::Load => {
                self.sink.load(addr32, 0, addr32, size8);
                self.data_count += 1;
            }
            Op::Store => {
                self.sink.store(addr32, 0, addr32, size8);
                self.data_count += 1;
            }
            Op::Modify => {
                self.sink.load(addr32, 0, addr32, size8);
                self.sink.store(addr32, 0, addr32, size8);
                self.data_count += 2;
            }
        }
    }

    pub(crate) fn finish(self) -> (IngestStats, S) {
        // Logs without fetch records (data-only captures) still need a
        // nonzero cycle count for the power models' per-cycle terms; the
        // data-access count is the CPI-1 stand-in.
        let cycles = if self.fetch_count == 0 { self.data_count } else { self.fetch_count };
        (
            IngestStats {
                source_hash: self.hash,
                lines: self.lines,
                skipped: self.skipped,
                fetch_events: self.fetch_count,
                data_events: self.data_count,
                cycles,
            },
            self.sink,
        )
    }
}

/// Assembles the materialized [`Ingested`] from a collecting run.
pub(crate) fn assemble(stats: IngestStats, sink: SplitSink) -> Ingested {
    Ingested {
        trace: RecordedTrace {
            fetch_events: sink.fetch_events,
            data_events: sink.data_events,
            cycles: stats.cycles,
        },
        source_hash: stats.source_hash,
        lines: stats.lines,
        skipped: stats.skipped,
    }
}

/// Parses a whole log in `format` from `reader`, streaming line-by-line
/// (memory stays bounded by the reconstructed trace, not the text).
///
/// # Errors
///
/// [`IngestError::Io`] if the reader fails; [`IngestError::Parse`] with
/// the 1-based line number and reason on the first malformed line.
pub fn parse<R: BufRead>(format: LogFormat, reader: R) -> Result<Ingested, IngestError> {
    match format {
        LogFormat::Lackey => lackey::parse(reader),
        LogFormat::Csv => csv::parse(reader),
    }
}

/// Parses a whole log in `format` from `reader`, emitting every event
/// into `sink` instead of materializing a trace — resident memory is
/// bounded by the line buffer and whatever the sink holds. Returns the
/// stream's provenance/shape plus the sink.
///
/// # Errors
///
/// As [`parse`].
pub fn parse_into<R: BufRead, S: TraceSink>(
    format: LogFormat,
    reader: R,
    sink: S,
) -> Result<(IngestStats, S), IngestError> {
    match format {
        LogFormat::Lackey => lackey::parse_into(reader, sink),
        LogFormat::Csv => csv::parse_into(reader, sink),
    }
}

/// Parses a whole log in `format` from `reader` straight into an encoded
/// `.wmtr` file at `out_path` — the fully streaming ingest path: no
/// event vector exists at any point, so a multi-GB capture costs O(64
/// KiB) resident memory.
///
/// # Errors
///
/// As [`parse`], plus I/O failures writing the encoded file.
pub fn parse_to_wmtr<R: BufRead>(
    format: LogFormat,
    reader: R,
    out_path: &Path,
) -> Result<IngestStats, IngestError> {
    let encoder = StreamingEncoder::create(out_path)?;
    let (stats, encoder) = parse_into(format, reader, encoder)?;
    encoder.finish(stats.cycles, stats.source_hash)?;
    Ok(stats)
}

/// Opens `path`, picks the format from its extension
/// ([`LogFormat::for_path`]) and parses it.
///
/// # Errors
///
/// As [`parse`], plus the open itself.
pub fn parse_path(path: impl AsRef<Path>) -> Result<Ingested, IngestError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)?;
    parse(LogFormat::for_path(path), io::BufReader::new(file))
}

/// Streams a file through FNV-1a64 in bounded chunks — the workload
/// identity of an external log ([`WorkloadId::External`]), computable
/// without parsing (or holding) the text. Equals the `source_hash` the
/// parsers compute while streaming, so a store-backed run can hash
/// first and skip the parse entirely on a warm cache hit.
///
/// # Errors
///
/// Any I/O error opening or reading the file.
pub fn hash_file(path: impl AsRef<Path>) -> io::Result<u64> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut hash = FNV1A64_SEED;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = retry_interrupted(|| file.read(&mut buf))?;
        if n == 0 {
            return Ok(hash);
        }
        hash = fnv1a64_update(hash, &buf[..n]);
    }
}

/// How many consecutive transient (`Interrupted`/`WouldBlock`) errors a
/// read loop absorbs before surfacing the error. Real `EINTR` storms are
/// short; the bound keeps a wedged descriptor from spinning forever.
const MAX_TRANSIENT_RETRIES: u32 = 8;

/// Runs `op`, retrying transient errors a bounded number of times. A
/// transient failure is an environment hiccup, not malformed input — it
/// must never surface as a parse error.
fn retry_interrupted<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempts = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e)
                if matches!(e.kind(), io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock)
                    && attempts < MAX_TRANSIENT_RETRIES =>
            {
                attempts += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// The shared line-pump both format modules drive: reads `reader` line
/// by line, hashes every raw byte, and hands each line to `parse_line`,
/// which either consumes it (pushing events into the builder, which
/// forwards them to `sink`), skips it, or rejects it with a
/// [`ParseErrorKind`].
///
/// Transient read errors are retried in place — `read_line` appends to
/// `raw`, so whatever partial line an interrupted call left behind is
/// completed by the retry, not discarded.
pub(crate) fn drive<R: BufRead, S: TraceSink>(
    mut reader: R,
    sink: S,
    mut parse_line: impl FnMut(&str, &mut TraceBuilder<S>) -> Result<bool, ParseErrorKind>,
) -> Result<(IngestStats, S), IngestError> {
    let mut builder = TraceBuilder::new(sink);
    let mut raw = String::new();
    loop {
        raw.clear();
        if retry_interrupted(|| reader.read_line(&mut raw))? == 0 {
            return Ok(builder.finish());
        }
        let line_no = builder.start_line(&raw);
        let line = raw.trim_end_matches(['\n', '\r']);
        match parse_line(line, &mut builder) {
            Ok(true) => {}
            Ok(false) => builder.skip_line(),
            Err(kind) => return Err(ParseError { line: line_no, kind }.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn builder() -> TraceBuilder<SplitSink> {
        TraceBuilder::new(SplitSink::default())
    }

    fn finish(b: TraceBuilder<SplitSink>) -> Ingested {
        let (stats, sink) = b.finish();
        assemble(stats, sink)
    }

    #[test]
    fn format_detection_by_extension() {
        assert_eq!(LogFormat::for_path(Path::new("a/trace.csv")), LogFormat::Csv);
        assert_eq!(LogFormat::for_path(Path::new("a/trace.CSV")), LogFormat::Csv);
        assert_eq!(LogFormat::for_path(Path::new("a/trace.log")), LogFormat::Lackey);
        assert_eq!(LogFormat::for_path(Path::new("noext")), LogFormat::Lackey);
    }

    #[test]
    fn fetch_kind_reconstruction() {
        let mut b = builder();
        b.push(Op::Instr, 0x1000, 4); // first: sequential by convention
        b.push(Op::Instr, 0x1004, 4); // continues: sequential
        b.push(Op::Instr, 0x2000, 4); // jump: branch from 0x1004
        b.push(Op::Instr, 0x2004, 2);
        b.push(Op::Instr, 0x2006, 2); // 2-byte instr continues: sequential
        let t = finish(b).trace;
        assert!(matches!(t.fetch_events[0], TraceEvent::Fetch { kind: FetchKind::Sequential, .. }));
        assert!(matches!(t.fetch_events[1], TraceEvent::Fetch { kind: FetchKind::Sequential, .. }));
        assert!(matches!(
            t.fetch_events[2],
            TraceEvent::Fetch {
                pc: 0x2000,
                kind: FetchKind::TakenBranch { base: 0x1004, disp }
            } if disp == 0x2000 - 0x1004
        ));
        assert!(matches!(t.fetch_events[4], TraceEvent::Fetch { kind: FetchKind::Sequential, .. }));
        assert_eq!(t.cycles, 5);
    }

    #[test]
    fn data_only_logs_get_access_count_cycles() {
        let mut b = builder();
        b.push(Op::Load, 0x10, 4);
        b.push(Op::Modify, 0x20, 4);
        let ing = finish(b);
        assert_eq!(ing.trace.data_events.len(), 3);
        assert_eq!(ing.trace.cycles, 3);
    }

    #[test]
    fn addresses_truncate_to_32_bits() {
        let mut b = builder();
        b.push(Op::Load, 0x1234_5678_9abc_def0, 999);
        let t = finish(b).trace;
        assert_eq!(
            t.data_events[0],
            TraceEvent::Load { base: 0x9abc_def0, disp: 0, addr: 0x9abc_def0, size: u8::MAX }
        );
    }

    #[test]
    fn parse_dispatches_both_formats() {
        let lk = parse(LogFormat::Lackey, Cursor::new("I  1000,4\n")).unwrap();
        assert_eq!(lk.trace.fetch_events.len(), 1);
        let cv = parse(LogFormat::Csv, Cursor::new("L,0x1000,4\n")).unwrap();
        assert_eq!(cv.trace.data_events.len(), 1);
    }

    #[test]
    fn workload_id_uses_the_content_hash() {
        let ing = parse(LogFormat::Lackey, Cursor::new("I  1000,4\n")).unwrap();
        assert_eq!(ing.workload_id(), WorkloadId::External { hash: ing.source_hash });
    }

    #[test]
    fn parse_to_wmtr_matches_the_materializing_parse() {
        let log = "I  1000,4\n L 2000,8\nI  1004,4\n S 3000,4\n M 2000,4\n";
        let ing = parse(LogFormat::Lackey, Cursor::new(log)).unwrap();
        let dir = std::env::temp_dir()
            .join(format!("waymem-ingest-wmtr-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wmtr");
        let stats = parse_to_wmtr(LogFormat::Lackey, Cursor::new(log), &path).unwrap();
        assert_eq!(stats.source_hash, ing.source_hash);
        assert_eq!(stats.workload_id(), ing.workload_id());
        assert_eq!((stats.lines, stats.skipped), (ing.lines, ing.skipped));
        assert_eq!(stats.events(), ing.trace.len() as u64);
        let st = waymem_trace::StreamingTrace::open(&path).unwrap();
        assert_eq!(st.source_hash(), ing.source_hash);
        assert_eq!(st.decode().unwrap(), ing.trace);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
