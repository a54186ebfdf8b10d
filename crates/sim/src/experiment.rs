//! The composable experiment builder — one entry point for every
//! workload × scheme × store run.
//!
//! The driver layer used to expose one free function per combination of
//! workload source (kernel / recorded trace / external log) and storage
//! (plain / store-backed) — nine overlapping `run_*` variants with
//! copy-pasted positional plumbing. [`Experiment`] replaces them with a
//! typed builder over the one underlying pipeline:
//!
//! 1. **resolve** the workload once to where its trace comes from: the
//!    one producer of its kind (the interpreter for a kernel, the parser
//!    for a log, the generator for a synthetic pattern), a store, or a
//!    trace taken as given;
//! 2. **record-or-load**: the producer drives the sink of the one
//!    destination chosen — a [`RecordedTrace`] in memory, a `.wmtr` file
//!    when [streaming](Experiment::streaming) — through an optional
//!    [`TraceStore`], so the production step happens at most once per
//!    store lifetime (zero times, with a warm persistent cache). A
//!    production that fails does so before anything is sealed or cached;
//! 3. **replay** the trace across every requested scheme front-end
//!    through the one chained engine: the fronts run in chains, one
//!    chain per host thread at most, and every front sees the identical
//!    stream, so the thread count changes only wall-clock.
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
//! [`Experiment::run_all`] runs a list of experiments, each with its own
//! settings, fanning them out over worker threads.

use std::path::PathBuf;
use std::sync::Arc;

use waymem_cache::Geometry;
use waymem_hwmodel::Technology;
use waymem_ingest::LogFormat;
use waymem_isa::RecordedTrace;
use waymem_trace::{stream, StoreIo, StreamError, SynthSpec, TraceStore, WorkloadId};
use waymem_workloads::Benchmark;

use crate::run::{
    host_threads, join, replay, source_hash, Producer, RunError, SimConfig, SimResult, TraceSource,
};
use crate::{DScheme, IScheme};

/// What an [`Experiment`] runs: the workload half of the builder.
///
/// Usually constructed through the [`Experiment`] constructors, not
/// spelled out directly; [`Experiment::new`] takes one as is.
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

/// Where a workload's trace comes from.
enum Origin {
    /// Produced on demand by the one producer of its kind.
    Produced(Producer),
    /// A bare external id: only a store can hold its trace.
    Stored(WorkloadId),
    /// Taken as given, under a caller-chosen identity.
    Given(WorkloadId, Arc<RecordedTrace>),
}

impl WorkloadSpec {
    /// Maps the workload to where its trace comes from. `hash_logs`
    /// hashes a log's raw bytes up front, as a store-backed resolution
    /// needs ([`Producer::log`]).
    fn origin(&self, scale: u32, hash_logs: bool) -> Result<Origin, RunError> {
        Ok(Origin::Produced(match self {
            WorkloadSpec::Kernel(bench) => Producer::Kernel { bench: *bench, scale },
            WorkloadSpec::Id(WorkloadId::Kernel { benchmark, scale }) => {
                Producer::Kernel { bench: *benchmark, scale: *scale }
            }
            WorkloadSpec::Id(WorkloadId::Synthetic(spec)) | WorkloadSpec::Synthetic(spec) => {
                Producer::Synthetic(*spec)
            }
            WorkloadSpec::Log { path, format } => Producer::log(path, *format, hash_logs)?,
            WorkloadSpec::Id(id @ WorkloadId::External { .. }) => return Ok(Origin::Stored(*id)),
            WorkloadSpec::Recorded { id, trace } => {
                return Ok(Origin::Given(*id, Arc::clone(trace)));
            }
        }))
    }
}

/// A single workload × scheme-set × store run, assembled builder-style
/// and terminated by [`run`](Experiment::run) (or
/// [`prepare`](Experiment::prepare) when the caller wants the resolved
/// trace and ingestion metadata before replaying).
///
/// See the [module docs](self) for the pipeline and an example; see
/// [`run_all`](Experiment::run_all) for running a list of experiments.
#[derive(Debug)]
#[must_use = "an Experiment does nothing until .run() / .prepare()"]
pub struct Experiment<'s> {
    workload: WorkloadSpec,
    cfg: SimConfig,
    dschemes: Vec<DScheme>,
    ischemes: Vec<IScheme>,
    store: Option<&'s TraceStore>,
    streaming: bool,
}

impl Experiment<'_> {
    /// An experiment over any workload spec (usually via the typed
    /// constructors below).
    pub fn new(workload: WorkloadSpec) -> Self {
        Experiment {
            workload,
            cfg: SimConfig::default(),
            dschemes: Vec::new(),
            ischemes: Vec::new(),
            store: None,
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
        self.store = Some(store);
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

    /// Runs the experiment: resolve → record-or-load → replay, that is
    /// [`prepare`](Experiment::prepare) followed by [`Prepared::run`].
    ///
    /// # Errors
    ///
    /// [`RunError`] when the workload cannot be produced — a kernel that
    /// fails to assemble or halt, an unreadable, malformed or empty log,
    /// or an external [`WorkloadId`] no store holds — when a
    /// [`streaming`](Experiment::streaming) run's trace file fails to
    /// read back, or as [`RunError::Worker`] when a front panics (a
    /// scheme with an impossible shape, such as a zero-entry buffer).
    pub fn run(self) -> Result<SimResult, RunError> {
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
        let Experiment { workload, cfg, dschemes, ischemes, store, streaming } = self;
        let (id, source_hash, source, ingest_meta) =
            resolve(&workload, &cfg, store, streaming)?;
        Ok(Prepared { id, source_hash, source, cfg, dschemes, ischemes, ingest_meta })
    }

    /// Runs every experiment, each with its own settings, and collects
    /// the results in the given order.
    ///
    /// On a host with more than one thread the experiments fan out over
    /// at most [`std::thread::available_parallelism`] workers, each
    /// running a contiguous share of the list. Workers are joined in list
    /// order, so result order — and which error is reported — matches a
    /// serial loop exactly. A panicking experiment is caught at the
    /// worker boundary and surfaces as [`RunError::Worker`], never as an
    /// abort of the whole list.
    ///
    /// ```
    /// use waymem_sim::{DScheme, Experiment, SynthPattern, SynthSpec};
    /// use waymem_workloads::Benchmark;
    ///
    /// # fn main() -> Result<(), waymem_sim::RunError> {
    /// let spec = SynthSpec { pattern: SynthPattern::Stream, accesses: 1_000, seed: 1 };
    /// let results = Experiment::run_all([
    ///     Experiment::kernel(Benchmark::Dct).dschemes([DScheme::Original]),
    ///     Experiment::synthetic(spec).dschemes([DScheme::Original, DScheme::paper_way_memo()]),
    /// ])?;
    /// assert_eq!(results[1].dcache.len(), 2);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// The first [`RunError`] in list order.
    pub fn run_all(
        experiments: impl IntoIterator<Item = Self>,
    ) -> Result<Vec<SimResult>, RunError> {
        let run_one = |exp: Self| {
            let workload = &exp.workload;
            let _span = waymem_obs::span!("suite.workload", workload = describe_workload(workload));
            catch_worker(|| exp.run())
        };
        let experiments: Vec<Self> = experiments.into_iter().collect();
        let workers = host_threads();
        if workers < 2 || experiments.len() < 2 {
            return experiments.into_iter().map(run_one).collect();
        }
        let chunk = experiments.len().div_ceil(workers);
        let groups = experiments.len().div_ceil(chunk);
        let mut experiments = experiments.into_iter();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..groups)
                .map(|_| {
                    let group: Vec<Self> = experiments.by_ref().take(chunk).collect();
                    scope.spawn(move || group.into_iter().map(run_one).collect::<Vec<_>>())
                })
                .collect();
            handles.into_iter().flat_map(join).collect()
        })
    }
}

/// The one resolve path behind [`Experiment::prepare`]. It maps the
/// workload to where its trace comes from once; for a produced workload
/// it then picks store × destination once, and the destination is just
/// the sink the producer drives: a [`RecordedTrace`] in memory, or a
/// `.wmtr` file when `streaming`. With a store, production goes through
/// [`TraceStore::get_or_record`] / [`TraceStore::open_stream`] (a warm
/// hit produces nothing); without one, into memory or a self-cleaning
/// [`stream::scratch`] file. A producer fails before the trace is sealed
/// or cached, so a failed run leaves nothing behind.
fn resolve(
    workload: &WorkloadSpec,
    cfg: &SimConfig,
    store: Option<&TraceStore>,
    streaming: bool,
) -> Result<(WorkloadId, u64, TraceSource, Option<IngestMeta>), RunError> {
    let producer = match workload.origin(cfg.scale, store.is_some())? {
        Origin::Produced(producer) => producer,
        Origin::Stored(id) => {
            // Only a store (e.g. a warm persistent cache dir) can resolve
            // a bare external id: there is nothing to re-produce it from.
            let missing = || RunError::MissingTrace { id };
            let (s, hash) = (store.ok_or_else(missing)?, source_hash(id));
            let source = if streaming {
                s.open_stream(id, hash, |_| Err(missing()))?.into()
            } else {
                s.get_or_record(id, hash, || Err(missing()))?.into()
            };
            return Ok((id, hash, source, None));
        }
        Origin::Given(id, trace) => {
            // Taken as given: the store is bypassed rather than trusted
            // over the caller's trace. Streaming spills it to scratch and
            // replays it from disk (the caller asked for bounded replay
            // memory, though the copy they handed over still exists).
            let source = if streaming {
                let (st, _) = stream::scratch(StoreIo::passthrough(), |path| {
                    stream::write_encoded(&trace, 0, path).map_err(StreamError::from)
                })?;
                st.into()
            } else {
                trace.into()
            };
            return Ok((id, 0, source, None));
        }
    };
    let mut ingest = None;
    let (id, source) = match (store.zip(producer.id()), streaming) {
        (Some((s, id)), false) => {
            let trace = s.get_or_record(id, source_hash(id), || {
                producer.record().map(|(trace, made)| {
                    ingest = made.ingest;
                    trace
                })
            })?;
            (id, trace.into())
        }
        (Some((s, id)), true) => {
            let st = s.open_stream(id, source_hash(id), |path| {
                producer.encode(path).map(|made| ingest = made.ingest)
            })?;
            (id, st.into())
        }
        (None, false) => {
            let (trace, made) = producer.record()?;
            ingest = made.ingest;
            (made.id, trace.into())
        }
        (None, true) => {
            let (st, made) = stream::scratch(StoreIo::passthrough(), |path| producer.encode(path))?;
            ingest = made.ingest;
            (made.id, st.into())
        }
    };
    Ok((id, source_hash(id), source, ingest))
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

    /// Replays the resolved trace across every requested scheme, with
    /// as many replay chains as the host has threads.
    ///
    /// # Errors
    ///
    /// [`RunError::Stream`] when a streaming source's file fails to read
    /// or decode mid-replay, [`RunError::Worker`] carrying the panic's
    /// message if a front panics; materialized replay is otherwise
    /// infallible.
    pub fn run(self) -> Result<SimResult, RunError> {
        let (d, i) = (&self.dschemes, &self.ischemes);
        catch_worker(|| replay(self.id, &self.source, &self.cfg, d, i, host_threads()))
    }
}

/// Runs `f`, converting an escaping panic into a structured
/// [`RunError::Worker`] that carries the panic's message — the boundary
/// [`Prepared::run`] wraps its replay in, and [`Experiment::run_all`]
/// every experiment, so one poisoned workload cannot take down its
/// siblings.
pub fn catch_worker<T>(f: impl FnOnce() -> Result<T, RunError>) -> Result<T, RunError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = panic_message(payload.as_ref());
        // The worker died: record the incident and dump the flight
        // recorder's black box (no-op unless a dump path is configured)
        // before the error is returned.
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

/// A short display name for a workload, for spans.
fn describe_workload(w: &WorkloadSpec) -> String {
    match w {
        WorkloadSpec::Kernel(bench) => bench.to_string(),
        WorkloadSpec::Id(id) | WorkloadSpec::Recorded { id, .. } => id.to_string(),
        WorkloadSpec::Synthetic(spec) => WorkloadId::Synthetic(*spec).to_string(),
        WorkloadSpec::Log { path, .. } => path.display().to_string(),
    }
}
