//! The composable experiment builder — one entry point for every
//! workload × scheme × store run.
//!
//! The driver layer used to expose one free function per combination of
//! workload source (kernel / recorded trace / external log) and storage
//! (plain / store-backed) — nine overlapping `run_*` variants with
//! copy-pasted positional plumbing. [`Experiment`] replaces them with a
//! typed builder over the one underlying pipeline:
//!
//! 1. **resolve** the workload to a [`WorkloadId`] plus a
//!    [`RecordedTrace`] — interpreting a kernel, parsing a log,
//!    running a synthetic generator, or taking a trace as given;
//! 2. **record-or-load** through an optional [`TraceStore`], so the
//!    expensive production step happens at most once per store lifetime
//!    (zero times, with a warm persistent cache);
//! 3. **replay** the trace across every requested scheme front-end under
//!    an [`ExecPolicy`] — scoped worker threads, a serial loop, or an
//!    adaptive choice between them. All policies are bit-identical;
//!    only wall-clock differs.
//!
//! ```
//! use waymem_sim::{Experiment, DScheme, IScheme};
//! use waymem_workloads::Benchmark;
//!
//! # fn main() -> Result<(), waymem_sim::RunError> {
//! let result = Experiment::kernel(Benchmark::Dct)
//!     .dschemes([DScheme::Original, DScheme::paper_way_memo()])
//!     .ischemes([IScheme::Original, IScheme::paper_way_memo()])
//!     .run()?;
//! assert!(result.dcache[1].power.total_mw() < result.dcache[0].power.total_mw());
//! # Ok(())
//! # }
//! ```
//!
//! [`Suite`] is the multi-workload companion: the same knobs, shared
//! across a list of workloads that fan out over worker threads (the
//! seven paper kernels via [`Suite::kernels`], or any mix of kernels,
//! logs and synthetics via [`Suite::workload`]).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use waymem_cache::Geometry;
use waymem_hwmodel::Technology;
use waymem_ingest::{hash_file, parse, parse_to_wmtr, synth, LogFormat};
use waymem_isa::RecordedTrace;
use waymem_trace::{
    stream, StoreStats, StreamError, StreamingEncoder, StreamingTrace, SynthSpec, TraceStore,
    WorkloadId,
};
use waymem_workloads::Benchmark;

use crate::run::{
    kernel_source_hash, record_trace, record_trace_streaming, replay, run_kernel_fanout,
    RunError, SimConfig, SimResult, TraceSource,
};
use crate::{DScheme, IScheme};

/// How replay work is scheduled across the host's cores.
///
/// Every policy produces bit-identical results (each front-end consumes
/// the identical event stream in isolation; `tests/experiment.rs` pins
/// the equivalence) — the policy only chooses how the work is laid onto
/// threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// Parallel when it can pay for itself (more than one front-end and
    /// more than one hardware thread), serial otherwise. The default.
    #[default]
    Auto,
    /// Always fan out across scoped worker threads, at most one per
    /// hardware thread.
    Parallel,
    /// Always run inline on the calling thread. For a kernel workload
    /// without a store this additionally skips materializing the trace,
    /// feeding the front-ends per event straight from the interpreter —
    /// the engine the parallel replay is cross-validated against.
    Serial,
}

impl ExecPolicy {
    /// Whether replaying `fronts` front-ends under this policy fans out
    /// across threads. `Auto` does when that can pay for itself: on a
    /// single-core host the scoped workers would only interleave, so it
    /// replays inline instead — the numbers are identical either way;
    /// only wall-clock differs.
    pub(crate) fn parallel(self, fronts: usize) -> bool {
        match self {
            ExecPolicy::Auto => {
                fronts > 1 && std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
            }
            ExecPolicy::Parallel => true,
            ExecPolicy::Serial => false,
        }
    }
}

/// What an [`Experiment`] runs: the workload half of the builder.
///
/// Usually constructed through the [`Experiment`] constructors (or the
/// `From` impls when feeding a [`Suite`]), not spelled out directly.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// One of the seven built-in paper kernels, at the experiment's
    /// configured scale.
    Kernel(Benchmark),
    /// Any workload by identity: kernels record at the id's own scale,
    /// synthetics generate, and external ids resolve only against a
    /// store that already holds them (a warm persistent cache dir).
    Id(WorkloadId),
    /// An already-recorded trace under a caller-chosen identity. Taken
    /// as given: the store, if any, is bypassed rather than trusted over
    /// the in-memory trace.
    Recorded {
        /// The identity replay results carry.
        id: WorkloadId,
        /// The trace to replay.
        trace: Arc<RecordedTrace>,
    },
    /// A deterministic synthetic access pattern, generated on demand.
    Synthetic(SynthSpec),
    /// An external memory-trace log, parsed on demand — hashed first, so
    /// a store-backed run skips the parse entirely on a warm hit.
    Log {
        /// Path to the log file.
        path: PathBuf,
        /// Grammar override; `None` picks by file extension
        /// ([`LogFormat::for_path`]).
        format: Option<LogFormat>,
    },
}

impl From<Benchmark> for WorkloadSpec {
    fn from(bench: Benchmark) -> Self {
        WorkloadSpec::Kernel(bench)
    }
}

impl From<WorkloadId> for WorkloadSpec {
    fn from(id: WorkloadId) -> Self {
        WorkloadSpec::Id(id)
    }
}

impl From<SynthSpec> for WorkloadSpec {
    fn from(spec: SynthSpec) -> Self {
        WorkloadSpec::Synthetic(spec)
    }
}

impl From<&Path> for WorkloadSpec {
    fn from(path: &Path) -> Self {
        WorkloadSpec::Log { path: path.to_path_buf(), format: None }
    }
}

impl From<PathBuf> for WorkloadSpec {
    fn from(path: PathBuf) -> Self {
        WorkloadSpec::Log { path, format: None }
    }
}

/// The experiment's storage selection: nothing, a caller-shared store,
/// or one the experiment owns.
#[derive(Debug, Default)]
enum StoreSel<'s> {
    #[default]
    None,
    Borrowed(&'s TraceStore),
    Owned(Box<TraceStore>),
}

impl StoreSel<'_> {
    fn get(&self) -> Option<&TraceStore> {
        match self {
            StoreSel::None => None,
            StoreSel::Borrowed(s) => Some(s),
            StoreSel::Owned(s) => Some(s.as_ref()),
        }
    }
}

/// A single workload × scheme-set × store run, assembled builder-style
/// and terminated by [`run`](Experiment::run) (or
/// [`prepare`](Experiment::prepare) when the caller wants the resolved
/// trace and ingestion metadata before replaying).
///
/// See the [module docs](self) for the pipeline and an example; see
/// [`Suite`] for multi-workload fan-out.
#[derive(Debug)]
#[must_use = "an Experiment does nothing until .run() / .prepare()"]
pub struct Experiment<'s> {
    workload: WorkloadSpec,
    cfg: SimConfig,
    dschemes: Vec<DScheme>,
    ischemes: Vec<IScheme>,
    store: StoreSel<'s>,
    policy: ExecPolicy,
    streaming: bool,
}

impl Experiment<'_> {
    /// An experiment over any workload spec (usually via the typed
    /// constructors below).
    pub fn new(workload: impl Into<WorkloadSpec>) -> Self {
        Experiment {
            workload: workload.into(),
            cfg: SimConfig::default(),
            dschemes: Vec::new(),
            ischemes: Vec::new(),
            store: StoreSel::None,
            policy: ExecPolicy::Auto,
            streaming: false,
        }
    }

    /// One of the seven built-in paper kernels, at the configured
    /// [`scale`](Experiment::scale).
    pub fn kernel(bench: Benchmark) -> Self {
        Self::new(WorkloadSpec::Kernel(bench))
    }

    /// Any workload by identity (see [`WorkloadSpec::Id`]).
    pub fn workload(id: WorkloadId) -> Self {
        Self::new(WorkloadSpec::Id(id))
    }

    /// An already-recorded trace under the given identity.
    pub fn recorded(id: WorkloadId, trace: impl Into<Arc<RecordedTrace>>) -> Self {
        Self::new(WorkloadSpec::Recorded { id, trace: trace.into() })
    }

    /// A deterministic synthetic access pattern.
    pub fn synthetic(spec: SynthSpec) -> Self {
        Self::new(WorkloadSpec::Synthetic(spec))
    }

    /// An external memory-trace log, format picked by file extension
    /// unless overridden with [`format`](Experiment::format).
    pub fn ingest(path: impl Into<PathBuf>) -> Self {
        Self::new(WorkloadSpec::Log { path: path.into(), format: None })
    }
}

impl<'s> Experiment<'s> {
    /// Replaces the whole simulation configuration (geometry, scale,
    /// technology) at once.
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the cache geometry for both I- and D-caches.
    pub fn geometry(mut self, geometry: Geometry) -> Self {
        self.cfg.geometry = geometry;
        self
    }

    /// Sets the workload scale factor (1 = default kernel sizes). Only
    /// [`Experiment::kernel`] workloads read it; a workload given as a
    /// bare [`WorkloadId::Kernel`] carries its own scale, which wins.
    pub fn scale(mut self, scale: u32) -> Self {
        self.cfg.scale = scale;
        self
    }

    /// Sets the technology / operating point for the power models.
    pub fn technology(mut self, technology: Technology) -> Self {
        self.cfg.technology = technology;
        self
    }

    /// Sets the D-cache schemes to evaluate, replacing any previous set.
    /// Accepts arrays, vecs, or any iterator — e.g. the named presets
    /// [`fig4_dschemes`](crate::presets::fig4_dschemes) /
    /// [`full_dschemes`](crate::presets::full_dschemes).
    pub fn dschemes(mut self, schemes: impl IntoIterator<Item = DScheme>) -> Self {
        self.dschemes = schemes.into_iter().collect();
        self
    }

    /// Sets the I-cache schemes to evaluate, replacing any previous set.
    /// Accepts arrays, vecs, or any iterator — e.g.
    /// [`fig6_ischemes`](crate::presets::fig6_ischemes) /
    /// [`full_ischemes`](crate::presets::full_ischemes).
    pub fn ischemes(mut self, schemes: impl IntoIterator<Item = IScheme>) -> Self {
        self.ischemes = schemes.into_iter().collect();
        self
    }

    /// Overrides the log grammar for [`ingest`](Experiment::ingest)
    /// workloads (no effect on other workload kinds).
    pub fn format(mut self, format: LogFormat) -> Self {
        if let WorkloadSpec::Log { format: f, .. } = &mut self.workload {
            *f = Some(format);
        }
        self
    }

    /// Threads a shared [`TraceStore`] through the run: the workload is
    /// produced (interpreted / parsed / generated) at most once per
    /// store lifetime; every later run with the same workload — any
    /// geometry, any scheme set, any thread — replays the cached trace.
    pub fn store(mut self, store: &'s TraceStore) -> Self {
        self.store = StoreSel::Borrowed(store);
        self
    }

    /// Like [`store`](Experiment::store), but with a store owned by the
    /// experiment and wired from the environment
    /// ([`TraceStore::from_env`]): `WAYMEM_TRACE_CACHE` enables a
    /// persistent cache dir, `WAYMEM_TRACE_CACHE_MAX_BYTES` caps it.
    pub fn store_from_env(mut self) -> Self {
        self.store = StoreSel::Owned(Box::new(TraceStore::from_env()));
        self
    }

    /// Sets the execution policy (default [`ExecPolicy::Auto`]).
    pub fn policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Resolves the workload to an on-disk `.wmtr` file and replays it
    /// through a bounded window instead of materializing the event
    /// vector: resident memory is O(batch) regardless of trace length,
    /// so multi-GB captures fit. Results are bit-identical to the
    /// materialized path (pinned by `tests/determinism.rs`); the
    /// production step (interpreting / parsing / generating) streams
    /// straight into the file too. With a store attached, warm `.wmtr`
    /// cache files are opened in place without re-decoding; without one,
    /// the file lives in a scratch temp path removed when the run ends.
    pub fn streaming(mut self, streaming: bool) -> Self {
        self.streaming = streaming;
        self
    }

    /// Runs the experiment: resolve → record-or-load → replay.
    ///
    /// # Errors
    ///
    /// [`RunError`] when the workload cannot be produced — a kernel that
    /// fails to assemble or halt, an unreadable or malformed log, or an
    /// external [`WorkloadId`] no store holds — or when a
    /// [`streaming`](Experiment::streaming) run's trace file fails to
    /// read back. Materialized replay itself is infallible.
    pub fn run(self) -> Result<SimResult, RunError> {
        // A serial kernel run without a store can skip materializing the
        // trace entirely, feeding the front-ends per event straight from
        // the interpreter (bit-identical; pinned by tests/experiment.rs).
        if let (WorkloadSpec::Kernel(bench), StoreSel::None, false) =
            (&self.workload, &self.store, self.streaming)
        {
            if !self.policy.parallel(self.dschemes.len() + self.ischemes.len()) {
                return run_kernel_fanout(*bench, &self.cfg, &self.dschemes, &self.ischemes);
            }
        }
        self.prepare()?.run()
    }

    /// Resolves the workload — hashing, store lookup, and production —
    /// without replaying, so callers can inspect the trace and the
    /// ingestion metadata (or amortize one resolution over custom
    /// logic) before [`Prepared::run`] replays it.
    ///
    /// # Errors
    ///
    /// As [`run`](Experiment::run).
    pub fn prepare(self) -> Result<Prepared, RunError> {
        let _phase = waymem_obs::phase::enter(waymem_obs::phase::Phase::Resolve);
        let _span = waymem_obs::span!("resolve", workload = describe_workload(&self.workload));
        let Experiment { workload, cfg, dschemes, ischemes, store, policy, streaming } = self;
        let store = store.get();
        let mut ingest_meta = None;
        if streaming {
            let (id, source_hash, source) =
                resolve_streaming(workload, &cfg, store, &mut ingest_meta)?;
            return Ok(Prepared {
                id,
                source_hash,
                source,
                cfg,
                dschemes,
                ischemes,
                policy,
                ingest_meta,
            });
        }
        let (id, source_hash, trace) = match workload {
            WorkloadSpec::Kernel(bench) => {
                resolve_kernel(bench, cfg.scale, &cfg, store)?
            }
            WorkloadSpec::Id(WorkloadId::Kernel { benchmark, scale }) => {
                resolve_kernel(benchmark, scale, &cfg, store)?
            }
            WorkloadSpec::Id(WorkloadId::Synthetic(spec))
            | WorkloadSpec::Synthetic(spec) => {
                let id = WorkloadId::Synthetic(spec);
                let hash = synth::source_hash(spec);
                let trace = match store {
                    Some(s) => s
                        .get_or_record(id, hash, || {
                            Ok::<_, std::convert::Infallible>(generate_synth(spec))
                        })
                        .unwrap_or_else(|e| match e {}),
                    None => Arc::new(generate_synth(spec)),
                };
                (id, hash, trace)
            }
            WorkloadSpec::Id(id @ WorkloadId::External { hash }) => {
                // Only a store (e.g. a warm persistent cache dir) can
                // resolve a bare external id — there is nothing to
                // re-produce it from.
                let trace = match store {
                    Some(s) => {
                        s.get_or_record(id, hash, || Err(RunError::MissingTrace { id }))?
                    }
                    None => return Err(RunError::MissingTrace { id }),
                };
                (id, hash, trace)
            }
            WorkloadSpec::Recorded { id, trace } => (id, 0, trace),
            WorkloadSpec::Log { path, format } => match store {
                // With a store, hash the raw bytes up front: a warm
                // `.wmtr` hit then skips the parse (and the event
                // materialization) entirely — for a multi-GB capture
                // the parse *is* the cost.
                Some(s) => {
                    let hash = hash_log(&path)?;
                    let id = WorkloadId::External { hash };
                    let trace = s.get_or_record(id, hash, || {
                        let (trace, parsed_hash, meta) = parse_log(&path, format)?;
                        check_unchanged(&path, hash, parsed_hash)?;
                        ingest_meta = Some(meta);
                        Ok::<_, RunError>(trace)
                    })?;
                    (id, hash, trace)
                }
                // Store-less, the up-front hash would only double the
                // file I/O: parse once and take the identity from the
                // hash the parser streams.
                None => {
                    let (trace, hash, meta) = parse_log(&path, format)?;
                    ingest_meta = Some(meta);
                    (WorkloadId::External { hash }, hash, Arc::new(trace))
                }
            },
        };
        Ok(Prepared {
            id,
            source_hash,
            source: TraceSource::Materialized(trace),
            cfg,
            dschemes,
            ischemes,
            policy,
            ingest_meta,
        })
    }
}

/// Resolves a workload to an on-disk `.wmtr` streaming handle — the
/// [`Experiment::streaming`] counterpart of the materializing match in
/// [`Experiment::prepare`]. Store-backed resolutions go through
/// [`TraceStore::open_stream`] (warm cache files open in place, cold
/// ones are produced straight to disk); store-less ones produce to a
/// scratch temp file removed when the handle drops.
fn resolve_streaming(
    workload: WorkloadSpec,
    cfg: &SimConfig,
    store: Option<&TraceStore>,
    ingest_meta: &mut Option<IngestMeta>,
) -> Result<(WorkloadId, u64, TraceSource), RunError> {
    match workload {
        WorkloadSpec::Kernel(bench) => resolve_kernel_streaming(bench, cfg.scale, cfg, store),
        WorkloadSpec::Id(WorkloadId::Kernel { benchmark, scale }) => {
            resolve_kernel_streaming(benchmark, scale, cfg, store)
        }
        WorkloadSpec::Id(WorkloadId::Synthetic(spec)) | WorkloadSpec::Synthetic(spec) => {
            let id = WorkloadId::Synthetic(spec);
            let hash = synth::source_hash(spec);
            let st = open_stream_via(store, id, hash, |path| {
                let _phase = waymem_obs::phase::enter(waymem_obs::phase::Phase::Record);
                let _span = waymem_obs::span!("record", workload = id.name());
                let enc = StreamingEncoder::create(path).map_err(StreamError::from)?;
                let (stats, enc) = synth::generate_into(spec, enc);
                enc.finish(stats.cycles, hash)?;
                Ok(())
            })?;
            Ok((id, hash, TraceSource::Streaming(Arc::new(st))))
        }
        WorkloadSpec::Id(id @ WorkloadId::External { hash }) => match store {
            Some(s) => {
                let st =
                    s.open_stream(id, hash, |_: &Path| Err(RunError::MissingTrace { id }))?;
                Ok((id, hash, TraceSource::Streaming(Arc::new(st))))
            }
            None => Err(RunError::MissingTrace { id }),
        },
        WorkloadSpec::Recorded { id, trace } => {
            // Taken as given, like the materialized path: the store is
            // bypassed; the trace is spilled to scratch and replayed
            // from disk (the caller asked for bounded replay memory,
            // though the in-memory copy they handed over still exists).
            let st = open_scratch_stream(&id.file_name(), |path| {
                stream::write_encoded(&trace, 0, path).map_err(StreamError::from)?;
                Ok(())
            })?;
            Ok((id, 0, TraceSource::Streaming(Arc::new(st))))
        }
        WorkloadSpec::Log { path, format } => match store {
            // With a store, hash the raw bytes up front: the hash is the
            // cache key, and a warm hit then skips the parse entirely.
            Some(s) => {
                let hash = hash_log(&path)?;
                let id = WorkloadId::External { hash };
                let st = s.open_stream(id, hash, |out| {
                    let parsed_hash = produce_log_streaming(&path, format, out, ingest_meta)?;
                    check_unchanged(&path, hash, parsed_hash)
                })?;
                Ok((id, hash, TraceSource::Streaming(Arc::new(st))))
            }
            // Store-less, the up-front hash would only read the file a
            // second time: parse once and take the identity from the
            // hash the parser streams.
            None => {
                let mut hash = 0;
                let st = open_scratch_stream("log.wmtr", |out| {
                    hash = produce_log_streaming(&path, format, out, ingest_meta)?;
                    Ok(())
                })?;
                Ok((WorkloadId::External { hash }, hash, TraceSource::Streaming(Arc::new(st))))
            }
        },
    }
}

/// Streaming kernel resolution: the CPU interpreter's event stream goes
/// straight to the `.wmtr` file via [`record_trace_streaming`].
fn resolve_kernel_streaming(
    bench: Benchmark,
    scale: u32,
    cfg: &SimConfig,
    store: Option<&TraceStore>,
) -> Result<(WorkloadId, u64, TraceSource), RunError> {
    let id = WorkloadId::kernel(bench, scale);
    let hash = kernel_source_hash(bench, scale);
    let record_cfg = SimConfig { scale, ..*cfg };
    let st = open_stream_via(store, id, hash, |path| {
        record_trace_streaming(bench, &record_cfg, path).map(|_| ())
    })?;
    Ok((id, hash, TraceSource::Streaming(Arc::new(st))))
}

/// Opens a streaming handle through the store when one is attached, or
/// through a self-cleaning scratch file otherwise.
fn open_stream_via(
    store: Option<&TraceStore>,
    id: WorkloadId,
    hash: u64,
    produce: impl FnOnce(&Path) -> Result<(), RunError>,
) -> Result<StreamingTrace, RunError> {
    match store {
        Some(s) => s.open_stream(id, hash, produce),
        None => open_scratch_stream(&id.file_name(), produce),
    }
}

/// Produces a `.wmtr` file into a per-process scratch path ending in
/// `name` and opens it marked for deletion when the handle drops — the
/// store-less streaming path, where nothing outlives the experiment.
fn open_scratch_stream(
    name: &str,
    produce: impl FnOnce(&Path) -> Result<(), RunError>,
) -> Result<StreamingTrace, RunError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("waymem-exp-{}-{n}-{name}", std::process::id()));
    produce(&path)?;
    match StreamingTrace::open(&path) {
        Ok(st) => Ok(st.delete_on_drop()),
        Err(e) => {
            let _ = std::fs::remove_file(&path);
            Err(e.into())
        }
    }
}

/// Parses a log straight into a `.wmtr` file at `out`, mapping every
/// failure to a structured [`RunError::Ingest`] and capturing the
/// ingestion metadata — the streaming counterpart of [`parse_log`].
/// Returns the FNV-1a64 content hash the parser streamed.
fn produce_log_streaming(
    path: &Path,
    format: Option<LogFormat>,
    out: &Path,
    ingest_meta: &mut Option<IngestMeta>,
) -> Result<u64, RunError> {
    let _phase = waymem_obs::phase::enter(waymem_obs::phase::Phase::Record);
    let _span = waymem_obs::span!("record", source = path.display());
    let format = format.unwrap_or_else(|| LogFormat::for_path(path));
    let ingest_err = |message: String| RunError::Ingest { path: path.to_path_buf(), message };
    let file = std::fs::File::open(path).map_err(|e| ingest_err(format!("cannot open: {e}")))?;
    let stats = parse_to_wmtr(format, std::io::BufReader::new(file), out)
        .map_err(|e| ingest_err(e.to_string()))?;
    if stats.events() == 0 {
        return Err(ingest_err("log contains no accesses".to_owned()));
    }
    *ingest_meta = Some(IngestMeta {
        format,
        lines: stats.lines,
        skipped: stats.skipped,
    });
    Ok(stats.source_hash)
}

/// Hashes a log's raw bytes: its workload identity, and the cache key a
/// store-backed ingest needs before it parses.
fn hash_log(path: &Path) -> Result<u64, RunError> {
    hash_file(path).map_err(|e| RunError::Ingest {
        path: path.to_path_buf(),
        message: format!("cannot read: {e}"),
    })
}

/// Checks that a store-backed ingest parsed the bytes it hashed. The
/// parser folds the identical byte stream into FNV-1a64; divergence
/// means the file changed between the hash and the parse (or a parser
/// regression) — either way the cache key would lie about the trace it
/// maps to.
fn check_unchanged(path: &Path, hashed: u64, parsed: u64) -> Result<(), RunError> {
    if hashed == parsed {
        return Ok(());
    }
    Err(RunError::Ingest {
        path: path.to_path_buf(),
        message: format!(
            "file changed while being ingested (hashed {hashed:016x}, parsed {parsed:016x})"
        ),
    })
}

/// Generates a synthetic trace under the Record phase, so synthetic
/// production shows up in the phase breakdown and span stream exactly
/// like a kernel interpretation or a log parse.
fn generate_synth(spec: SynthSpec) -> RecordedTrace {
    let _phase = waymem_obs::phase::enter(waymem_obs::phase::Phase::Record);
    let _span = waymem_obs::span!("record", workload = WorkloadId::Synthetic(spec).name());
    synth::generate(spec)
}

/// Resolves a kernel workload at an explicit scale: record through the
/// store when one is present (verified against [`kernel_source_hash`]),
/// interpret directly otherwise.
fn resolve_kernel(
    bench: Benchmark,
    scale: u32,
    cfg: &SimConfig,
    store: Option<&TraceStore>,
) -> Result<(WorkloadId, u64, Arc<RecordedTrace>), RunError> {
    let id = WorkloadId::kernel(bench, scale);
    let hash = kernel_source_hash(bench, scale);
    let record_cfg = SimConfig { scale, ..*cfg };
    let trace = match store {
        Some(s) => s.get_or_record(id, hash, || record_trace(bench, &record_cfg))?,
        None => Arc::new(record_trace(bench, &record_cfg)?),
    };
    Ok((id, hash, trace))
}

/// Parses a log file into a trace plus its streamed content hash and
/// ingestion metadata, mapping every failure — unreadable file,
/// malformed line, empty capture — to a structured [`RunError::Ingest`].
fn parse_log(
    path: &Path,
    format: Option<LogFormat>,
) -> Result<(RecordedTrace, u64, IngestMeta), RunError> {
    let _phase = waymem_obs::phase::enter(waymem_obs::phase::Phase::Record);
    let _span = waymem_obs::span!("record", source = path.display());
    let format = format.unwrap_or_else(|| LogFormat::for_path(path));
    let ingest_err = |message: String| RunError::Ingest { path: path.to_path_buf(), message };
    let file = std::fs::File::open(path).map_err(|e| ingest_err(format!("cannot open: {e}")))?;
    let ingested = parse(format, std::io::BufReader::new(file))
        .map_err(|e| ingest_err(e.to_string()))?;
    if ingested.trace.is_empty() {
        return Err(ingest_err("log contains no accesses".to_owned()));
    }
    let meta = IngestMeta {
        format,
        lines: ingested.lines,
        skipped: ingested.skipped,
    };
    Ok((ingested.trace, ingested.source_hash, meta))
}

/// What a log ingestion observed, when this experiment actually parsed
/// the file (a warm store hit skips the parse, and the metadata with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestMeta {
    /// The grammar the log was parsed with.
    pub format: LogFormat,
    /// Total lines read, including skipped ones.
    pub lines: u64,
    /// Lines skipped as blanks, comments or valgrind banners.
    pub skipped: u64,
}

/// A resolved experiment: workload identity settled, trace in hand,
/// replay pending. Produced by [`Experiment::prepare`].
#[derive(Debug)]
#[must_use = "a Prepared experiment does nothing until .run()"]
pub struct Prepared {
    id: WorkloadId,
    source_hash: u64,
    source: TraceSource,
    cfg: SimConfig,
    dschemes: Vec<DScheme>,
    ischemes: Vec<IScheme>,
    policy: ExecPolicy,
    ingest_meta: Option<IngestMeta>,
}

impl Prepared {
    /// The workload's settled identity.
    #[must_use]
    pub fn workload_id(&self) -> WorkloadId {
        self.id
    }

    /// The workload's staleness fingerprint (0 for
    /// [`WorkloadSpec::Recorded`], which has no external source).
    #[must_use]
    pub fn source_hash(&self) -> u64 {
        self.source_hash
    }

    /// The resolved in-memory trace about to be replayed, when the
    /// experiment materialized one (`None` for
    /// [`streaming`](Experiment::streaming) resolutions, which never
    /// hold the event vector).
    #[must_use]
    pub fn trace(&self) -> Option<&Arc<RecordedTrace>> {
        self.source.materialized()
    }

    /// The resolved trace source — materialized or streaming — about to
    /// be replayed.
    #[must_use]
    pub fn source(&self) -> &TraceSource {
        &self.source
    }

    /// Ingestion metadata, when this resolution actually parsed a log
    /// (`None` for non-log workloads and for warm store hits).
    #[must_use]
    pub fn ingest_meta(&self) -> Option<IngestMeta> {
        self.ingest_meta
    }

    /// Replays the resolved trace across every requested scheme under
    /// the experiment's policy.
    ///
    /// # Errors
    ///
    /// [`RunError::Stream`] when a streaming source's file fails to read
    /// or decode mid-replay, [`RunError::Worker`] if a scheme-replay
    /// worker panics; materialized replay is otherwise infallible.
    pub fn run(self) -> Result<SimResult, RunError> {
        catch_worker(|| {
            replay(
                self.id,
                &self.source,
                &self.cfg,
                &self.dschemes,
                &self.ischemes,
                self.policy,
            )
        })
    }
}

/// Multi-workload fan-out with shared configuration: the suite-level
/// companion to [`Experiment`], fanning its workloads out across scoped
/// worker threads under the same [`ExecPolicy`] knob.
///
/// ```no_run
/// use waymem_sim::{presets, Suite};
///
/// # fn main() -> Result<(), waymem_sim::RunError> {
/// let results = Suite::kernels() // the paper's seven benchmarks
///     .dschemes(presets::fig4_dschemes())
///     .run()?;
/// assert_eq!(results.len(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
#[must_use = "a Suite does nothing until .run()"]
pub struct Suite<'s> {
    workloads: Vec<WorkloadSpec>,
    cfg: SimConfig,
    dschemes: Vec<DScheme>,
    ischemes: Vec<IScheme>,
    store: StoreSel<'s>,
    policy: ExecPolicy,
    streaming: bool,
    isolate_failures: bool,
}

impl Default for Suite<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl Suite<'_> {
    /// An empty suite; add workloads with [`workload`](Suite::workload)
    /// / [`workloads`](Suite::workloads).
    pub fn new() -> Self {
        Suite {
            workloads: Vec::new(),
            cfg: SimConfig::default(),
            dschemes: Vec::new(),
            ischemes: Vec::new(),
            store: StoreSel::None,
            policy: ExecPolicy::Auto,
            streaming: false,
            isolate_failures: false,
        }
    }

    /// The paper's evaluation suite: all seven benchmark kernels, in
    /// [`Benchmark::ALL`] order.
    pub fn kernels() -> Self {
        Self::new().workloads(Benchmark::ALL)
    }
}

impl<'s> Suite<'s> {
    /// Appends one workload (anything an [`Experiment`] accepts:
    /// a [`Benchmark`], [`SynthSpec`], [`WorkloadId`], log path, or a
    /// full [`WorkloadSpec`]).
    pub fn workload(mut self, workload: impl Into<WorkloadSpec>) -> Self {
        self.workloads.push(workload.into());
        self
    }

    /// Appends many workloads at once.
    pub fn workloads<W: Into<WorkloadSpec>>(
        mut self,
        workloads: impl IntoIterator<Item = W>,
    ) -> Self {
        self.workloads.extend(workloads.into_iter().map(Into::into));
        self
    }

    /// Replaces the whole simulation configuration at once.
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the cache geometry for both I- and D-caches.
    pub fn geometry(mut self, geometry: Geometry) -> Self {
        self.cfg.geometry = geometry;
        self
    }

    /// Sets the workload scale factor (kernel workloads only; a bare
    /// [`WorkloadId::Kernel`] workload's own scale wins, as on
    /// [`Experiment::scale`]).
    pub fn scale(mut self, scale: u32) -> Self {
        self.cfg.scale = scale;
        self
    }

    /// Sets the technology / operating point for the power models.
    pub fn technology(mut self, technology: Technology) -> Self {
        self.cfg.technology = technology;
        self
    }

    /// Sets the D-cache schemes, replacing any previous set.
    pub fn dschemes(mut self, schemes: impl IntoIterator<Item = DScheme>) -> Self {
        self.dschemes = schemes.into_iter().collect();
        self
    }

    /// Sets the I-cache schemes, replacing any previous set.
    pub fn ischemes(mut self, schemes: impl IntoIterator<Item = IScheme>) -> Self {
        self.ischemes = schemes.into_iter().collect();
        self
    }

    /// Threads a shared [`TraceStore`] through every workload of the
    /// suite (and, with an outer loop over geometries, through a whole
    /// sweep).
    pub fn store(mut self, store: &'s TraceStore) -> Self {
        self.store = StoreSel::Borrowed(store);
        self
    }

    /// Like [`store`](Suite::store), but owned and wired from the
    /// environment ([`TraceStore::from_env`]).
    pub fn store_from_env(mut self) -> Self {
        self.store = StoreSel::Owned(Box::new(TraceStore::from_env()));
        self
    }

    /// Sets the execution policy for both fan-out levels: across
    /// workloads, and across schemes within each workload.
    pub fn policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Resolves and replays every workload through on-disk `.wmtr`
    /// files instead of in-memory event vectors (see
    /// [`Experiment::streaming`]): per-workload resident memory stays
    /// O(batch) regardless of trace length.
    pub fn streaming(mut self, streaming: bool) -> Self {
        self.streaming = streaming;
        self
    }

    /// Continue past per-workload failures instead of aborting the whole
    /// suite on the first one: failed workloads are recorded in
    /// [`SuiteResult::failures`] (after one serial retry when
    /// [`RunError::is_retryable`] says the environment may have healed)
    /// while every other workload still produces its result. Off by
    /// default — a plain `run()` keeps the strict first-error contract.
    pub fn isolate_failures(mut self, isolate: bool) -> Self {
        self.isolate_failures = isolate;
        self
    }

    /// Runs every workload and collects the results in workload order.
    ///
    /// Fan-out is bounded at both levels: at most
    /// [`std::thread::available_parallelism`] workload workers, each
    /// running the inner scheme replay under the same policy. Workers
    /// are joined in workload order, so result order — and which error
    /// is reported — matches a serial loop exactly. A panicking workload
    /// is caught at the worker boundary and surfaces as
    /// [`RunError::Worker`], never as a suite-wide abort.
    ///
    /// # Errors
    ///
    /// The first [`RunError`] in workload order — unless
    /// [`isolate_failures`](Suite::isolate_failures) is on, in which
    /// case errors land in [`SuiteResult::failures`] and `run` itself
    /// only reports them, it does not fail.
    pub fn run(self) -> Result<SuiteResult, RunError> {
        let Suite { workloads, cfg, dschemes, ischemes, store, policy, streaming, isolate_failures } =
            self;
        let store_ref = store.get();
        let run_one = |w: &WorkloadSpec| {
            let _span = waymem_obs::span!("suite.workload", workload = describe_workload(w));
            let exp = Experiment {
                workload: w.clone(),
                cfg,
                dschemes: dschemes.clone(),
                ischemes: ischemes.clone(),
                store: match store_ref {
                    Some(s) => StoreSel::Borrowed(s),
                    None => StoreSel::None,
                },
                policy,
                streaming,
            };
            catch_worker(|| exp.run())
        };
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let parallel = match policy {
            ExecPolicy::Serial => false,
            ExecPolicy::Parallel => true,
            // On a single-core host the workers would only interleave;
            // run the workloads inline instead (results are identical
            // either way).
            ExecPolicy::Auto => workers > 1,
        };
        let outcomes: Vec<Result<SimResult, RunError>> = if parallel && workloads.len() > 1 {
            let chunk = workloads.len().div_ceil(workers).max(1);
            std::thread::scope(|scope| {
                let handles: Vec<_> = workloads
                    .chunks(chunk)
                    .map(|group| {
                        (group.len(), scope.spawn(move || group.iter().map(run_one).collect::<Vec<_>>()))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|(len, handle)| {
                        // `run_one` catches workload panics itself; this
                        // guards the residual worker plumbing.
                        handle.join().unwrap_or_else(|payload| {
                            let message = panic_message(payload.as_ref());
                            std::iter::repeat_with(|| {
                                Err(RunError::Worker { message: message.clone() })
                            })
                            .take(len)
                            .collect()
                        })
                    })
                    .collect()
            })
        } else {
            workloads.iter().map(run_one).collect()
        };
        let mut results = Vec::with_capacity(workloads.len());
        let mut failures = Vec::new();
        for (index, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(result) => results.push(result),
                Err(error) if isolate_failures => {
                    let retryable = error.is_retryable();
                    // Transient failures get one serial retry: the store
                    // may have healed (quarantine + re-record) since the
                    // parallel attempt.
                    let healed = retryable.then(|| run_one(&workloads[index]).ok()).flatten();
                    match healed {
                        Some(result) => results.push(result),
                        None => {
                            let workload = describe_workload(&workloads[index]);
                            waymem_obs::warn!(
                                "suite.workload_failed",
                                workload = workload,
                                error = error,
                                retryable = retryable,
                            );
                            failures.push(SuiteFailure { index, workload, error, retryable });
                        }
                    }
                }
                Err(error) => return Err(error),
            }
        }
        Ok(SuiteResult {
            results,
            failures,
            store_stats: store_ref.map(TraceStore::stats),
        })
    }
}

/// Runs `f`, converting an escaping panic into a structured
/// [`RunError::Worker`] — the boundary [`Suite::run`] wraps every
/// workload in so one poisoned workload cannot take down its siblings.
pub fn catch_worker<T>(f: impl FnOnce() -> Result<T, RunError>) -> Result<T, RunError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = panic_message(payload.as_ref());
        // The worker died: record the incident and dump the flight
        // recorder's black box (no-op unless a dump path is configured)
        // before the error is folded into the suite's failure list.
        waymem_obs::flight::note("suite.worker_panic", &[("message", message.clone())]);
        waymem_obs::flight::dump_on_incident("suite.worker_panic");
        Err(RunError::Worker { message })
    })
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A short display name for a workload, for failure reports.
fn describe_workload(w: &WorkloadSpec) -> String {
    match w {
        WorkloadSpec::Kernel(bench) => bench.to_string(),
        WorkloadSpec::Id(id) | WorkloadSpec::Recorded { id, .. } => id.to_string(),
        WorkloadSpec::Synthetic(spec) => WorkloadId::Synthetic(*spec).to_string(),
        WorkloadSpec::Log { path, .. } => path.display().to_string(),
    }
}

/// One workload's failure in an isolating ([`Suite::isolate_failures`])
/// suite run.
#[derive(Debug, Clone)]
pub struct SuiteFailure {
    /// Index of the workload in the order it was added to the suite.
    pub index: usize,
    /// Short display name of the failed workload.
    pub workload: String,
    /// What went wrong.
    pub error: RunError,
    /// Whether [`RunError::is_retryable`] held — if so, the suite
    /// already spent its one serial retry before recording the failure.
    pub retryable: bool,
}

/// The outcome of a [`Suite`] run: per-workload results in workload
/// order, plus a snapshot of the store's accounting when one was
/// attached. Dereferences to `[SimResult]`, so indexing and iteration
/// work like on the plain vector the legacy drivers returned.
///
/// Under [`Suite::isolate_failures`], `results` holds the workloads that
/// succeeded (still in workload order, failed ones skipped) and
/// [`failures`](Self::failures) records the rest; a strict run always
/// has `failures.is_empty()`.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// One result per succeeded workload, in the order the workloads
    /// were added.
    pub results: Vec<SimResult>,
    /// The workloads that failed, in workload order (always empty
    /// without [`Suite::isolate_failures`] — a strict run aborts
    /// instead).
    pub failures: Vec<SuiteFailure>,
    /// The attached store's statistics, snapshotted right after the run
    /// (`None` when the suite ran store-less).
    pub store_stats: Option<StoreStats>,
}

impl SuiteResult {
    /// Consumes the result into the bare per-workload vector.
    #[must_use]
    pub fn into_results(self) -> Vec<SimResult> {
        self.results
    }

    /// `true` when every workload produced a result.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// A one-line-per-failure human-readable report, or `None` when the
    /// run was complete.
    #[must_use]
    pub fn failure_report(&self) -> Option<String> {
        if self.failures.is_empty() {
            return None;
        }
        let lines: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("workload {} ({}): {}", f.index, f.workload, f.error))
            .collect();
        Some(lines.join("\n"))
    }
}

impl std::ops::Deref for SuiteResult {
    type Target = [SimResult];

    fn deref(&self) -> &[SimResult] {
        &self.results
    }
}

impl IntoIterator for SuiteResult {
    type Item = SimResult;
    type IntoIter = std::vec::IntoIter<SimResult>;

    fn into_iter(self) -> Self::IntoIter {
        self.results.into_iter()
    }
}

impl<'a> IntoIterator for &'a SuiteResult {
    type Item = &'a SimResult;
    type IntoIter = std::slice::Iter<'a, SimResult>;

    fn into_iter(self) -> Self::IntoIter {
        self.results.iter()
    }
}
