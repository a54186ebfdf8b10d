//! The experiment engine: a record-once / replay-in-parallel pipeline.
//!
//! Each produced workload kind has one producer — the CPU interpreter
//! for a kernel, the generator for a synthetic pattern, the parser for a
//! log — and it runs exactly once, pushing the full fetch/load/store
//! stream into whichever sink is the destination: a [`RecordedTrace`]
//! (two flat `Vec<TraceEvent>` streams split at capture time, fetches
//! apart from loads/stores) or a `.wmtr` file. The trace is then
//! replayed through every requested scheme by the one engine, which
//! serves both [`TraceSource`]s: the schemes are laid out into chains, at
//! most one per host thread, each holding the schemes of one section.
//! Each chain reads its section once through
//! [`TraceSource::replay_section`] and owns the one cache of that
//! section: it runs each window of a batch through the cache once, into
//! a bounded outcome buffer (on the fetch side one outcome per line run),
//! and then hands the window to each of its schemes in turn, which apply
//! only their own rule to each outcome. The loops are monomorphic, so no
//! per-event virtual dispatch survives on the hot path; power is
//! composed via Eq. (1) once every chain joins. Every scheme sees the
//! identical outcomes, so every source, batch size and thread count
//! gives bit-identical results, and a front replayed alone
//! ([`crate::DFront::replay`], [`crate::IFront::replay`]) is a chain of
//! one running the same code.
//!
//! The composable front door to all of this is
//! [`Experiment`](crate::Experiment) (`experiment` module); this module
//! keeps the engine itself — the producers, the result types and
//! [`record_trace`].

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use waymem_obs::json::Json;
use waymem_obs::phase::Phase;
use waymem_obs::span::SpanGuard;

use waymem_cache::{AccessStats, Geometry};
use waymem_hwmodel::{
    cache_energies, mab_power_mw, CacheShape, EnergyCounts, PowerBreakdown, Technology,
};
use waymem_isa::{AsmError, Cpu, CpuError, RecordingSink, TraceSink};
use waymem_ingest::{hash_file, parse_into, synth, LogFormat};
use waymem_trace::{
    fnv1a64, Section, StreamError, StreamingEncoder, StreamingTrace, SynthSpec, WorkloadId,
};
use waymem_workloads::Benchmark;

use crate::frontends::lookup::{Chain, Front, Lookup};
use crate::frontends::{DRule, IRule};
use crate::{DScheme, IScheme, IngestMeta};

/// Simulation configuration shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Cache geometry for both I- and D-caches (paper: 32 kB 2-way).
    pub geometry: Geometry,
    /// Workload scale factor (1 = default kernel sizes).
    pub scale: u32,
    /// Technology / operating point for the power models.
    pub technology: Technology,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            geometry: Geometry::frv(),
            scale: 1,
            technology: Technology::frv_0130(),
        }
    }
}

/// Why a simulation run failed. Every way an
/// [`Experiment`](crate::Experiment) can go wrong is one of these — a
/// bad builder combination is a structured error, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The benchmark's generated assembly failed to assemble.
    Assemble(AsmError),
    /// The CPU faulted while executing the benchmark.
    Cpu(CpuError),
    /// The benchmark did not halt within its step budget.
    StepLimit {
        /// The budget that was exhausted.
        max_steps: u64,
    },
    /// An external log could not be read, parsed, or contained no
    /// accesses (the I/O or parse failure stringified, so the error
    /// stays `Clone` + `Eq`).
    Ingest {
        /// The log that failed.
        path: PathBuf,
        /// What went wrong with it.
        message: String,
    },
    /// The workload names a trace nothing can produce: an external
    /// [`WorkloadId`] with no attached store holding it.
    MissingTrace {
        /// The unresolvable workload.
        id: WorkloadId,
    },
    /// A streaming trace file could not be written, opened, or replayed
    /// (the I/O or codec failure stringified, so the error stays
    /// `Clone` + `Eq`).
    Stream {
        /// What went wrong with the stream.
        message: String,
    },
    /// A worker thread panicked mid-run. The panic is caught at the
    /// boundaries of a replay and of each experiment of
    /// [`Experiment::run_all`](crate::Experiment::run_all) and converted
    /// into this structured error so one bad workload cannot take down
    /// its siblings.
    Worker {
        /// The panic payload, stringified.
        message: String,
    },
}

impl RunError {
    /// Whether retrying the same run could plausibly succeed. Transient
    /// environment failures — I/O during ingest, a streaming trace file
    /// torn by a racing process — are retryable; deterministic failures
    /// (bad assembly, a CPU fault, an exhausted step budget, a missing
    /// trace, a worker panic) would only repeat themselves.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, RunError::Ingest { .. } | RunError::Stream { .. })
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Assemble(e) => write!(f, "benchmark failed to assemble: {e}"),
            RunError::Cpu(e) => write!(f, "benchmark faulted: {e}"),
            RunError::StepLimit { max_steps } => {
                write!(f, "benchmark did not halt within {max_steps} steps")
            }
            RunError::Ingest { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            RunError::MissingTrace { id } => {
                write!(f, "workload {id} has no trace: not held by any attached store")
            }
            RunError::Stream { message } => {
                write!(f, "streaming trace failed: {message}")
            }
            RunError::Worker { message } => {
                write!(f, "worker thread panicked: {message}")
            }
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Assemble(e) => Some(e),
            RunError::Cpu(e) => Some(e),
            RunError::StepLimit { .. }
            | RunError::Ingest { .. }
            | RunError::MissingTrace { .. }
            | RunError::Stream { .. }
            | RunError::Worker { .. } => None,
        }
    }
}

impl From<StreamError> for RunError {
    fn from(e: StreamError) -> Self {
        RunError::Stream { message: e.to_string() }
    }
}

impl From<AsmError> for RunError {
    fn from(e: AsmError) -> Self {
        RunError::Assemble(e)
    }
}

impl From<CpuError> for RunError {
    fn from(e: CpuError) -> Self {
        RunError::Cpu(e)
    }
}

/// Per-scheme outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Scheme display name.
    pub name: String,
    /// Tag/way/hit accounting.
    pub stats: AccessStats,
    /// Raw counts handed to the power model.
    pub energy: EnergyCounts,
    /// Eq. (1) power decomposition.
    pub power: PowerBreakdown,
    /// Cycles added by lookup penalties (zero for way memoization).
    pub extra_cycles: u64,
}

/// Outcome of one workload under several schemes.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The workload that ran: a built-in kernel, an ingested external
    /// trace, or a synthetic pattern.
    pub workload: WorkloadId,
    /// Instructions retired (= cycles at CPI 1).
    pub cycles: u64,
    /// D-cache results, in the order the schemes were given.
    pub dcache: Vec<SchemeResult>,
    /// I-cache results, in the order the schemes were given.
    pub icache: Vec<SchemeResult>,
}

impl SimResult {
    /// Finds a D-cache result by scheme name.
    #[must_use]
    pub fn dcache_by_name(&self, name: &str) -> Option<&SchemeResult> {
        self.dcache.iter().find(|r| r.name == name)
    }

    /// Finds an I-cache result by scheme name.
    #[must_use]
    pub fn icache_by_name(&self, name: &str) -> Option<&SchemeResult> {
        self.icache.iter().find(|r| r.name == name)
    }
}

/// The one JSON encoding of a [`SimResult`], which `export`, `ingest`
/// and the serve `RunOk` reply all embed: the workload's label and
/// cycles, then per scheme every [`AccessStats`] counter, tags and ways
/// per access, the lookup-penalty cycles, and the four Eq. (1) terms
/// with their total. Equal results render byte-equal.
#[must_use]
pub fn result_json(result: &SimResult) -> Json {
    let sides = [("dcache", &result.dcache), ("icache", &result.icache)];
    let schemes = sides.into_iter().flat_map(|(cache, side)| {
        side.iter().map(move |s| {
            let (st, p) = (&s.stats, &s.power);
            Json::object(vec![
                ("cache", Json::from(cache)),
                ("scheme", Json::from(s.name.as_str())),
                ("accesses", Json::from(st.accesses)),
                ("tag_reads", Json::from(st.tag_reads)),
                ("way_reads", Json::from(st.way_reads)),
                ("hits", Json::from(st.hits)),
                ("misses", Json::from(st.misses)),
                ("mab_hits", Json::from(st.mab_hits)),
                ("mab_lookups", Json::from(st.mab_lookups)),
                ("intra_line_skips", Json::from(st.intra_line_skips)),
                ("buffer_hits", Json::from(st.buffer_hits)),
                ("write_backs", Json::from(st.write_backs)),
                ("unsound_hits", Json::from(st.unsound_hits)),
                ("tags_per_access", Json::from(st.tags_per_access())),
                ("ways_per_access", Json::from(st.ways_per_access())),
                ("extra_cycles", Json::from(s.extra_cycles)),
                ("data_mw", Json::from(p.data_mw)),
                ("tag_mw", Json::from(p.tag_mw)),
                ("mab_mw", Json::from(p.mab_mw)),
                ("buffer_mw", Json::from(p.buffer_mw)),
                ("total_mw", Json::from(p.total_mw())),
            ])
        })
    });
    Json::object(vec![
        ("workload", Json::from(result.workload.name())),
        ("cycles", Json::from(result.cycles)),
        ("schemes", Json::Array(schemes.collect())),
    ])
}

pub use waymem_isa::RecordedTrace;

/// Where a replay's event stream comes from: a fully materialized
/// in-memory trace, or an on-disk `.wmtr` file replayed in bounded
/// batches. Every front-end sees the identical event sequence either
/// way — `tests/determinism.rs` pins the two sources bit-identical for
/// every scheme — only the resident-memory cost differs: O(events)
/// materialized, O(batch) streaming.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// The whole event stream resident in memory, shared across replay
    /// workers.
    Materialized(Arc<RecordedTrace>),
    /// Replayed from an on-disk `.wmtr` file through a bounded window;
    /// each replay chain decodes its section once, from its own file
    /// cursor.
    Streaming(Arc<StreamingTrace>),
}

impl TraceSource {
    /// Replays one section into `sink`: an in-memory trace hands over its
    /// whole section slice as a single batch, a streamed one decodes the
    /// section from a file cursor of its own in bounded batches. Returns
    /// the number of events replayed.
    ///
    /// # Errors
    ///
    /// A streamed section's read or decode failure, as
    /// [`StreamingTrace::replay_section`] reports it. In-memory replay
    /// cannot fail.
    pub fn replay_section<S: TraceSink + ?Sized>(
        &self,
        section: Section,
        sink: &mut S,
    ) -> Result<u64, StreamError> {
        match self {
            TraceSource::Materialized(t) => {
                let events = match section {
                    Section::Fetch => &t.fetch_events,
                    Section::Data => &t.data_events,
                };
                sink.events(events);
                Ok(events.len() as u64)
            }
            TraceSource::Streaming(t) => t.replay_section(section, sink),
        }
    }

    /// The trace's cycle count.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        match self {
            TraceSource::Materialized(t) => t.cycles,
            TraceSource::Streaming(t) => t.cycles(),
        }
    }

    /// Total event count (fetch + data).
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            TraceSource::Materialized(t) => t.len() as u64,
            TraceSource::Streaming(t) => t.len(),
        }
    }

    /// Whether the trace holds no events at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The in-memory trace, when this source is materialized.
    #[must_use]
    pub fn materialized(&self) -> Option<&Arc<RecordedTrace>> {
        match self {
            TraceSource::Materialized(t) => Some(t),
            TraceSource::Streaming(_) => None,
        }
    }

    /// The on-disk streaming handle, when this source streams.
    #[must_use]
    pub fn streaming(&self) -> Option<&Arc<StreamingTrace>> {
        match self {
            TraceSource::Materialized(_) => None,
            TraceSource::Streaming(t) => Some(t),
        }
    }
}

impl From<Arc<RecordedTrace>> for TraceSource {
    fn from(trace: Arc<RecordedTrace>) -> Self {
        TraceSource::Materialized(trace)
    }
}

impl From<RecordedTrace> for TraceSource {
    fn from(trace: RecordedTrace) -> Self {
        TraceSource::Materialized(Arc::new(trace))
    }
}

impl From<Arc<StreamingTrace>> for TraceSource {
    fn from(trace: Arc<StreamingTrace>) -> Self {
        TraceSource::Streaming(trace)
    }
}

impl From<StreamingTrace> for TraceSource {
    fn from(trace: StreamingTrace) -> Self {
        TraceSource::Streaming(Arc::new(trace))
    }
}

/// The one producer of each produced workload kind: the CPU interpreter
/// for a kernel, the generator for a synthetic pattern, the parser for a
/// log. Every destination is just the sink [`produce`](Self::produce)
/// drives — a [`RecordedTrace`] in memory ([`record`](Self::record)) or
/// a [`StreamingEncoder`] on disk ([`encode`](Self::encode)).
#[derive(Debug)]
pub(crate) enum Producer {
    /// A built-in kernel at an explicit scale, run on the interpreter.
    Kernel { bench: Benchmark, scale: u32 },
    /// A synthetic access pattern, run on its generator.
    Synthetic(SynthSpec),
    /// An external log, run through its grammar's parser.
    Log {
        path: PathBuf,
        format: LogFormat,
        /// The FNV-1a64 of the raw bytes, when a store-backed run took it
        /// up front as its cache key; the parse must then reproduce it.
        /// `None` lets the parser's own hash name the trace.
        hashed: Option<u64>,
    },
}

/// What a production run reports beside the events it pushed.
#[derive(Debug)]
pub(crate) struct Produced {
    /// The workload's identity.
    pub(crate) id: WorkloadId,
    /// Instructions retired (= cycles at CPI 1).
    pub(crate) cycles: u64,
    /// What the parse observed, for a log.
    pub(crate) ingest: Option<IngestMeta>,
}

impl Producer {
    /// A log's producer. With `hash_first`, the raw bytes are hashed
    /// here, before any parse: a store needs the hash as its cache key,
    /// and a warm hit then skips the parse. Without, the file is read
    /// once, and the parser's hash names the trace.
    pub(crate) fn log(
        path: &Path,
        format: Option<LogFormat>,
        hash_first: bool,
    ) -> Result<Self, RunError> {
        let hashed = hash_first.then(|| hash_file(path)).transpose().map_err(|e| {
            RunError::Ingest { path: path.to_path_buf(), message: format!("cannot read: {e}") }
        })?;
        let format = format.unwrap_or_else(|| LogFormat::for_path(path));
        Ok(Producer::Log { path: path.to_path_buf(), format, hashed })
    }

    /// The workload's identity, when it is known before production:
    /// always for kernels and synthetics, for a log once hashed.
    pub(crate) fn id(&self) -> Option<WorkloadId> {
        match self {
            Producer::Kernel { bench, scale } => Some(WorkloadId::kernel(*bench, *scale)),
            Producer::Synthetic(spec) => Some(WorkloadId::Synthetic(*spec)),
            Producer::Log { hashed, .. } => hashed.map(|hash| WorkloadId::External { hash }),
        }
    }

    /// Enters span `name`, saying what is being produced.
    fn span(&self, name: &'static str) -> SpanGuard {
        waymem_obs::span::enter_args(name, || {
            vec![match self {
                Producer::Kernel { bench, .. } => ("workload", bench.name().to_owned()),
                Producer::Synthetic(spec) => ("workload", WorkloadId::Synthetic(*spec).name()),
                Producer::Log { path, .. } => ("source", path.display().to_string()),
            }]
        })
    }

    /// Runs the producer, pushing every event into `sink` in program
    /// order.
    ///
    /// # Errors
    ///
    /// [`RunError`] when a kernel fails to assemble, faults or does not
    /// halt within its step budget, or a log is unreadable, malformed,
    /// empty, or no longer hashes to what it hashed to up front. Every
    /// check runs before `produce` returns, so before the caller seals
    /// or caches anything.
    pub(crate) fn produce<S: TraceSink>(&self, sink: &mut S) -> Result<Produced, RunError> {
        match self {
            Producer::Kernel { bench, scale } => {
                let wl = bench.workload(*scale)?;
                let mut cpu = Cpu::new(&wl.program);
                if !cpu.run(wl.max_steps, sink)?.halted() {
                    return Err(RunError::StepLimit { max_steps: wl.max_steps });
                }
                let id = WorkloadId::kernel(*bench, *scale);
                Ok(Produced { id, cycles: cpu.instret(), ingest: None })
            }
            Producer::Synthetic(spec) => {
                let (stats, _) = synth::generate_into(*spec, sink);
                let id = WorkloadId::Synthetic(*spec);
                Ok(Produced { id, cycles: stats.cycles, ingest: None })
            }
            Producer::Log { path, format, hashed } => {
                let fail = |message| RunError::Ingest { path: path.clone(), message };
                let file = File::open(path).map_err(|e| fail(format!("cannot open: {e}")))?;
                let (stats, _) = parse_into(*format, BufReader::new(file), sink)
                    .map_err(|e| fail(e.to_string()))?;
                let parsed = stats.source_hash;
                if stats.events() == 0 {
                    return Err(fail("log contains no accesses".to_owned()));
                }
                // The parser folds the same bytes into the same FNV-1a64: a
                // mismatch means the file changed between the hash and the
                // parse, and the cache key would lie about its trace.
                if let Some(hashed) = hashed.filter(|&h| h != parsed) {
                    let why = format!("hashed {hashed:016x}, parsed {parsed:016x}");
                    return Err(fail(format!("file changed while being ingested ({why})")));
                }
                let (lines, skipped) = (stats.lines, stats.skipped);
                let ingest = Some(IngestMeta { format: *format, lines, skipped });
                let id = WorkloadId::External { hash: parsed };
                Ok(Produced { id, cycles: stats.cycles, ingest })
            }
        }
    }

    /// Produces into memory, under the Record phase.
    ///
    /// # Errors
    ///
    /// As [`produce`](Self::produce).
    pub(crate) fn record(&self) -> Result<(RecordedTrace, Produced), RunError> {
        let _phase = waymem_obs::phase::enter(Phase::Record);
        let _span = self.span("record");
        let mut trace = RecordedTrace::default();
        if let Producer::Kernel { .. } = self {
            // A kernel's step budget (30 M steps per unit of scale) puts
            // both estimates — one fetch per step, one load/store per
            // four — past `RecordingSink`'s clamp, so both streams start
            // at the cap; the Vecs grow geometrically past it. Parsers and
            // generators start empty.
            trace.fetch_events.reserve_exact(RecordingSink::MAX_PREALLOC_EVENTS);
            trace.data_events.reserve_exact(RecordingSink::MAX_PREALLOC_EVENTS);
        }
        let produced = self.produce(&mut trace)?;
        trace.cycles = produced.cycles;
        Ok((trace, produced))
    }

    /// Produces into a `.wmtr` file at `path`, under the Record phase.
    /// The file is sealed only once production has succeeded; a failed
    /// production drops the encoder and its spools, leaving no file.
    ///
    /// # Errors
    ///
    /// As [`produce`](Self::produce), plus [`RunError::Stream`] when the
    /// file cannot be written.
    pub(crate) fn encode(&self, path: &Path) -> Result<Produced, RunError> {
        let _phase = waymem_obs::phase::enter(Phase::Record);
        let _span = self.span("record");
        let mut encoder = StreamingEncoder::create(path).map_err(StreamError::from)?;
        let produced = self.produce(&mut encoder)?;
        encoder.finish(produced.cycles, source_hash(produced.id))?;
        Ok(produced)
    }
}

/// Executes `bench` once and records its full event stream.
///
/// This is the "record" half of the engine; replaying the trace through
/// [`Experiment::recorded`](crate::Experiment::recorded) is the other.
/// Splitting them lets callers amortize one CPU run over many replays
/// (geometry sweeps, scheme sweeps) instead of re-interpreting the kernel.
///
/// # Errors
///
/// Returns [`RunError`] if the kernel fails to assemble, faults, or does
/// not halt within its step budget.
pub fn record_trace(bench: Benchmark, cfg: &SimConfig) -> Result<RecordedTrace, RunError> {
    let (trace, _) = Producer::Kernel { bench, scale: cfg.scale }.record()?;
    Ok(trace)
}

/// Composes the per-scheme Eq. (1) results of a finished run. The
/// cache's per-access energies depend only on geometry and technology,
/// so they are computed once per run, not once per scheme.
fn sim_result(
    workload: WorkloadId,
    cycles: u64,
    cfg: &SimConfig,
    dfronts: &[DRule],
    ifronts: &[IRule],
) -> SimResult {
    let (g, tech) = (cfg.geometry, cfg.technology);
    let shape = CacheShape {
        sets: g.sets(),
        ways: g.ways(),
        line_bytes: g.line_bytes(),
        tag_bits: g.tag_bits(),
    };
    let energies = cache_energies(shape, tech);
    let row = |name, core: &Lookup, extra_cycles| {
        let (stats, energy) = (core.stats(), core.energy_counts(cycles));
        let mab = core.mab_shape().map(|s| mab_power_mw(s, tech));
        let power = PowerBreakdown::from_counts(energy, energies, mab, tech);
        SchemeResult { name, stats, energy, power, extra_cycles }
    };
    let dcache = dfronts.iter().map(|f| row(f.scheme.name(), &f.core, f.extra_cycles));
    let icache = ifronts.iter().map(|f| row(f.scheme.name(), &f.core, 0));
    SimResult { workload, cycles, dcache: dcache.collect(), icache: icache.collect() }
}

/// One replay chain: a contiguous run of one side's schemes, replayed on
/// one thread from a single read of that side's section.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChainSpec {
    section: Section,
    schemes: Range<usize>,
}

/// Lays `d` D-schemes and `i` I-schemes out into replay chains for
/// `workers` threads. Each chain holds the fronts of one section only,
/// every scheme lands in exactly one chain, in scheme order, and there
/// are at most `workers` chains — except that each non-empty side needs
/// a chain of its own, so one worker still gets a D and an I chain. The
/// threads are shared between the sides in proportion to their front
/// counts, and a side's fronts are split evenly over its threads.
fn chain_layout(d: usize, i: usize, workers: usize) -> Vec<ChainSpec> {
    let workers = workers.max(usize::from(d > 0) + usize::from(i > 0));
    let d_workers = match (d, i) {
        (0, _) => 0,
        (_, 0) => workers,
        _ => ((workers * d + (d + i) / 2) / (d + i)).clamp(1, workers - 1),
    };
    let side = |section, n: usize, threads: usize| {
        let chains = threads.min(n);
        (0..chains).map(move |k| ChainSpec {
            section,
            schemes: n * k / chains..n * (k + 1) / chains,
        })
    };
    side(Section::Data, d, d_workers)
        .chain(side(Section::Fetch, i, workers - d_workers))
        .collect()
}

/// A replayed chain's schemes, by side.
enum Replayed {
    Data(Vec<DRule>),
    Fetch(Vec<IRule>),
}

/// Replays one chain: builds its schemes' rules, reads its section once
/// from `source` through a [`Chain`] that owns the section's one cache,
/// and publishes the chain's instruments: a `replay.chain` span naming
/// the section and the schemes, the section's `replay.data_events` or
/// `replay.fetch_events` counter (events × schemes, as if each had read
/// the section alone), one `replay.cache_ns` observation (the cache pass,
/// summed over the chain's windows) and one `replay.front_ns` observation
/// per scheme.
fn replay_chain(
    source: &TraceSource,
    spec: &ChainSpec,
    geometry: Geometry,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
) -> Result<Replayed, StreamError> {
    let range = spec.schemes.clone();
    let _span = waymem_obs::span!(
        "replay.chain",
        section = format!("{:?}", spec.section).to_lowercase(),
        schemes = match spec.section {
            Section::Data => dschemes[range.clone()].iter().map(DScheme::name).collect::<Vec<_>>(),
            Section::Fetch => ischemes[range.clone()].iter().map(IScheme::name).collect(),
        }
        .join(", ")
    );
    Ok(match spec.section {
        Section::Data => {
            let rules = dschemes[range].iter().map(|s| s.rule(geometry)).collect();
            Replayed::Data(run_chain(source, spec.section, Chain::new(geometry, rules))?)
        }
        Section::Fetch => {
            let rules = ischemes[range].iter().map(|s| s.rule(geometry)).collect();
            Replayed::Fetch(run_chain(source, spec.section, Chain::new(geometry, rules))?)
        }
    })
}

/// Reads `section` of `source` through `chain`, publishes its counter and
/// times, and returns its rules.
fn run_chain<F: Front>(
    source: &TraceSource,
    section: Section,
    mut chain: Chain<F>,
) -> Result<Vec<F>, StreamError> {
    let events = source.replay_section(section, &mut chain)? * chain.fronts.len() as u64;
    match section {
        Section::Data => waymem_obs::counter!("replay.data_events").add(events),
        Section::Fetch => waymem_obs::counter!("replay.fetch_events").add(events),
    }
    waymem_obs::histogram!("replay.cache_ns").record(chain.cache_ns);
    for ns in chain.front_ns {
        waymem_obs::histogram!("replay.front_ns").record(ns);
    }
    Ok(chain.fronts)
}

/// The replay engine: evaluates a trace source — in memory or a `.wmtr`
/// file — across every requested scheme's front-end, on up to `workers`
/// threads.
///
/// The schemes are laid out into chains by [`chain_layout`], each holding
/// schemes of one section. A chain reads its section once through
/// [`TraceSource::replay_section`] (an in-memory section arrives as one
/// whole-slice batch, a streamed one is decoded once per chain), runs
/// each window of a batch through its one cache, and hands the window's
/// outcomes to each of its schemes. With more than one worker and more
/// than one chain, each chain runs on a scoped thread of its own;
/// otherwise the chains run inline. Chains are joined in layout order, so
/// results keep the order the schemes were given, and every scheme
/// applies its rule to the identical outcomes, so the numbers are
/// bit-identical across worker counts, sources and batch sizes. A
/// chain's panic is re-raised on the caller's thread with its own
/// payload, so [`catch_worker`](crate::catch_worker) reports its message.
///
/// # Errors
///
/// [`RunError::Stream`] when a streamed section fails to read or decode
/// mid-replay. In-memory replay cannot fail.
pub(crate) fn replay(
    workload: WorkloadId,
    source: &TraceSource,
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
    workers: usize,
) -> Result<SimResult, RunError> {
    let _phase = waymem_obs::phase::enter(Phase::Replay);
    let _span = waymem_obs::span!("replay", workload = workload.name());
    let layout = chain_layout(dschemes.len(), ischemes.len(), workers);
    let chain = |spec: &ChainSpec| replay_chain(source, spec, cfg.geometry, dschemes, ischemes);
    let chains = if workers > 1 && layout.len() > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                layout.iter().map(|spec| scope.spawn(move || chain(spec))).collect();
            // Join every chain before the first error ends the collect:
            // a panic left for the scope to find would lose its message.
            let joined: Vec<_> = handles.into_iter().map(join).collect();
            joined.into_iter().collect::<Result<Vec<_>, _>>()
        })
    } else {
        layout.iter().map(chain).collect()
    }?;
    let mut dfronts = Vec::with_capacity(dschemes.len());
    let mut ifronts = Vec::with_capacity(ischemes.len());
    for c in chains {
        match c {
            Replayed::Data(rules) => dfronts.extend(rules),
            Replayed::Fetch(rules) => ifronts.extend(rules),
        }
    }
    Ok(sim_result(workload, source.cycles(), cfg, &dfronts, &ifronts))
}

/// The host's thread count: how many replay chains, and how many
/// [`Experiment::run_all`](crate::Experiment::run_all) workers, run at
/// once.
pub(crate) fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Joins a scoped worker, re-raising its panic on the joining thread with
/// the worker's own payload, so the panic's message survives the join.
pub(crate) fn join<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// The FNV-1a64 of the kernel's generated assembly source at `scale` —
/// the staleness fingerprint stored traces of built-in kernels carry.
/// A workload-generator change alters the source text, so warm cache
/// files from before the change stop matching and are re-recorded
/// instead of silently replayed.
///
/// Memoized per `(benchmark, scale)` for the process lifetime: sweeps
/// call the store-backed runners hundreds of times per configuration,
/// and regenerating a kernel's full source (synthetic input frames
/// included) per call just to re-derive a constant would dwarf the
/// lookup it guards. Kernel generators are pure, so the hash cannot go
/// stale within a process.
#[must_use]
pub fn kernel_source_hash(bench: Benchmark, scale: u32) -> u64 {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<(Benchmark, u32), u64>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Mutex::default);
    if let Some(&hash) = cache.lock().expect("hash cache poisoned").get(&(bench, scale)) {
        return hash;
    }
    // Generate outside the lock: source generation is the expensive
    // part, and a racing thread at worst recomputes the same value.
    let hash = fnv1a64(bench.source(scale).as_bytes());
    cache.lock().expect("hash cache poisoned").insert((bench, scale), hash);
    hash
}

/// The staleness fingerprint of the trace `id` names: the
/// [`kernel_source_hash`] of a kernel, the generator-versioned hash of a
/// synthetic spec, and an external trace's own content hash.
pub(crate) fn source_hash(id: WorkloadId) -> u64 {
    match id {
        WorkloadId::Kernel { benchmark, scale } => kernel_source_hash(benchmark, scale),
        WorkloadId::Synthetic(spec) => synth::source_hash(spec),
        WorkloadId::External { hash } => hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontends::lookup::WINDOW;
    use crate::Experiment;
    use waymem_isa::{FetchKind, TraceEvent};
    use waymem_trace::TraceStore;

    /// `bench` under the paper's schemes, through the builder.
    fn run_kernel(bench: Benchmark) -> SimResult {
        let (d, i) = paper_schemes();
        Experiment::kernel(bench).dschemes(d).ischemes(i).run().expect("runs")
    }

    /// A recorded trace under `id`, replayed under the paper's schemes.
    fn replay_recorded(id: WorkloadId, trace: &RecordedTrace) -> SimResult {
        let (d, i) = paper_schemes();
        Experiment::recorded(id, trace.clone()).dschemes(d).ischemes(i).run().expect("replays")
    }

    fn paper_schemes() -> (Vec<DScheme>, Vec<IScheme>) {
        (
            vec![
                DScheme::Original,
                DScheme::SetBuffer { entries: 1 },
                DScheme::paper_way_memo(),
            ],
            vec![
                IScheme::Original,
                IScheme::IntraLine,
                IScheme::paper_way_memo(),
            ],
        )
    }

    #[test]
    fn result_json_carries_every_counter_and_power_term() {
        let spec = SynthSpec {
            pattern: waymem_trace::SynthPattern::RwChase { nodes: 4096 },
            accesses: 20_000,
            seed: 1,
        };
        let result = Experiment::synthetic(spec)
            .dschemes(crate::full_dschemes())
            .ischemes(crate::full_ischemes())
            .run()
            .expect("runs");
        let parsed = waymem_obs::json::parse(&result_json(&result).to_string()).expect("parses");
        assert_eq!(parsed.get("workload").and_then(Json::as_str), Some("rwchase4096"));
        #[allow(clippy::cast_precision_loss)]
        let num = |v: u64| Some(v as f64);
        assert_eq!(parsed.get("cycles").and_then(Json::as_num), num(result.cycles));
        let schemes = parsed.get("schemes").and_then(Json::as_arr).expect("schemes array");
        let sides = result.dcache.iter().map(|s| ("dcache", s));
        let expected: Vec<_> = sides.chain(result.icache.iter().map(|s| ("icache", s))).collect();
        assert_eq!(schemes.len(), expected.len());
        for (json, (cache, s)) in schemes.iter().zip(expected) {
            let field = |key: &str| json.get(key).and_then(Json::as_num);
            assert_eq!(json.get("cache").and_then(Json::as_str), Some(cache));
            assert_eq!(json.get("scheme").and_then(Json::as_str), Some(s.name.as_str()));
            // Destructured whole, so a new counter fails to compile here
            // until the encoder emits it and this test checks it.
            let AccessStats {
                accesses,
                tag_reads,
                way_reads,
                hits,
                misses,
                mab_hits,
                mab_lookups,
                intra_line_skips,
                buffer_hits,
                write_backs,
                unsound_hits,
            } = s.stats;
            let counters = [
                ("accesses", accesses),
                ("tag_reads", tag_reads),
                ("way_reads", way_reads),
                ("hits", hits),
                ("misses", misses),
                ("mab_hits", mab_hits),
                ("mab_lookups", mab_lookups),
                ("intra_line_skips", intra_line_skips),
                ("buffer_hits", buffer_hits),
                ("write_backs", write_backs),
                ("unsound_hits", unsound_hits),
                ("extra_cycles", s.extra_cycles),
            ];
            for (key, value) in counters {
                assert_eq!(field(key), num(value), "{cache}/{}: {key}", s.name);
            }
            let PowerBreakdown { data_mw, tag_mw, mab_mw, buffer_mw } = s.power;
            let floats = [
                ("tags_per_access", s.stats.tags_per_access()),
                ("ways_per_access", s.stats.ways_per_access()),
                ("data_mw", data_mw),
                ("tag_mw", tag_mw),
                ("mab_mw", mab_mw),
                ("buffer_mw", buffer_mw),
                ("total_mw", s.power.total_mw()),
            ];
            for (key, value) in floats {
                assert_eq!(field(key), Some(value), "{cache}/{}: {key}", s.name);
            }
        }
        // A counter the old encoders dropped is live in this run.
        assert!(result.dcache.iter().any(|s| s.stats.write_backs > 0), "no write-backs");
    }

    #[test]
    fn dct_run_produces_paper_shape() {
        let r = run_kernel(Benchmark::Dct);
        assert!(r.cycles > 50_000);

        // All D schemes saw the same accesses.
        let accesses: Vec<u64> = r.dcache.iter().map(|s| s.stats.accesses).collect();
        assert!(accesses.windows(2).all(|w| w[0] == w[1]));

        let orig = &r.dcache[0];
        let ours = &r.dcache[2];
        // Figure 4 shape: original ~2 tags/access; ours ~90% fewer.
        assert!(orig.stats.tags_per_access() > 1.9);
        assert!(
            ours.stats.tag_reads * 3 < orig.stats.tag_reads,
            "ours {} vs orig {}",
            ours.stats.tag_reads,
            orig.stats.tag_reads
        );
        // Ways: ours stays above 1 (at least one way per access).
        assert!(ours.stats.ways_per_access() >= 1.0);
        assert!(ours.stats.ways_per_access() < orig.stats.ways_per_access());
        // Figure 5 shape: total power drops.
        assert!(ours.power.total_mw() < orig.power.total_mw());
        // No performance penalty for way memoization.
        assert_eq!(ours.extra_cycles, 0);

        // I-cache, Figure 6 shape: [4] removes most tags; ours removes more.
        let iorig = &r.icache[0];
        let i4 = &r.icache[1];
        let iours = &r.icache[2];
        assert!(i4.stats.tag_reads < iorig.stats.tag_reads / 2);
        assert!(iours.stats.tag_reads < i4.stats.tag_reads);
        assert!(iours.power.total_mw() < i4.power.total_mw());
    }

    #[test]
    fn stats_are_internally_consistent() {
        let r = run_kernel(Benchmark::Compress);
        for s in r.dcache.iter().chain(r.icache.iter()) {
            assert!(s.stats.is_consistent(), "{}", s.name);
            assert_eq!(s.energy.cycles, r.cycles);
        }
    }

    /// Structural equality of two results down to f64 bits.
    fn assert_results_identical(a: &SimResult, b: &SimResult) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.cycles, b.cycles);
        let pairs = a.dcache.iter().zip(&b.dcache).chain(a.icache.iter().zip(&b.icache));
        for (x, y) in pairs {
            assert_eq!(x.name, y.name);
            assert_eq!(x.stats, y.stats, "{}: stats differ", x.name);
            assert_eq!(x.energy, y.energy, "{}: energy differs", x.name);
            assert_eq!(x.extra_cycles, y.extra_cycles);
            assert_eq!(
                x.power.total_mw().to_bits(),
                y.power.total_mw().to_bits(),
                "{}: power differs",
                x.name
            );
        }
    }

    #[test]
    fn replaying_a_recorded_trace_twice_is_identical() {
        let cfg = SimConfig::default();
        let trace = record_trace(Benchmark::Fft, &cfg).expect("records");
        assert!(!trace.is_empty());
        let id = WorkloadId::kernel(Benchmark::Fft, cfg.scale);
        let first = replay_recorded(id, &trace);
        let second = replay_recorded(id, &trace);
        assert_results_identical(&first, &second);
        for (x, y) in first.dcache.iter().zip(&second.dcache) {
            assert_eq!(x.stats, y.stats);
        }
    }

    #[test]
    fn recorded_trace_event_counts_match_counting_sink() {
        // The recorded stream must be exactly what a CountingSink observes
        // live: same number of fetches, loads and stores.
        use waymem_isa::CountingSink;
        let cfg = SimConfig::default();
        let bench = Benchmark::Dct;
        let trace = record_trace(bench, &cfg).expect("records");
        let wl = bench.workload(cfg.scale).expect("assembles");
        let mut counter = CountingSink::default();
        let mut cpu = Cpu::new(&wl.program);
        cpu.run(wl.max_steps, &mut counter).expect("runs");
        // The fetch stream must be pure fetches and the data stream pure
        // loads/stores, both matching what a CountingSink observes live.
        assert!(trace
            .fetch_events
            .iter()
            .all(|e| matches!(e, waymem_isa::TraceEvent::Fetch { .. })));
        let loads = trace
            .data_events
            .iter()
            .filter(|e| matches!(e, waymem_isa::TraceEvent::Load { .. }))
            .count() as u64;
        let stores = trace
            .data_events
            .iter()
            .filter(|e| matches!(e, waymem_isa::TraceEvent::Store { .. }))
            .count() as u64;
        assert_eq!(trace.fetch_events.len() as u64, counter.fetches);
        assert_eq!(loads, counter.loads);
        assert_eq!(stores, counter.stores);
        // One fetch per retired instruction, plus the final `halt`, which
        // is fetched but does not retire.
        assert_eq!(trace.fetch_events.len() as u64, trace.cycles + 1);
    }

    #[test]
    fn store_backed_run_matches_plain_run_and_records_once() {
        let cfg = SimConfig::default();
        let (d, i) = paper_schemes();
        let store = TraceStore::new();
        let trace = record_trace(Benchmark::Dct, &cfg).expect("records");
        let id = WorkloadId::kernel(Benchmark::Dct, cfg.scale);
        let plain = replay_recorded(id, &trace);
        let stored = |geometry| {
            Experiment::kernel(Benchmark::Dct)
                .geometry(geometry)
                .dschemes(d.iter().copied())
                .ischemes(i.iter().copied())
                .store(&store)
                .run()
                .expect("runs")
        };
        let first = stored(cfg.geometry);
        // A different geometry replays the *same* stored trace.
        let second = stored(Geometry::new(128, 8, 32).expect("valid"));
        assert_results_identical(&plain, &first);
        assert_eq!(second.cycles, first.cycles, "same trace, same cycles");
        let s = store.stats();
        assert_eq!((s.lookups, s.records, s.hits), (2, 1, 1));
    }

    #[test]
    fn run_trace_evaluates_foreign_workloads() {
        // A hand-built trace with no kernel behind it — the ingest
        // subsystem's shape — must flow through the same engine and
        // produce consistent per-scheme accounting.
        let trace = RecordedTrace {
            fetch_events: (0..2000)
                .map(|k| TraceEvent::Fetch { pc: 0x1000 + 4 * k, kind: FetchKind::Sequential })
                .collect(),
            data_events: (0..500)
                .map(|k| TraceEvent::Load {
                    base: 0x8000 + 8 * k,
                    disp: 0,
                    addr: 0x8000 + 8 * k,
                    size: 4,
                })
                .collect(),
            cycles: 2000,
        };
        let id = WorkloadId::External { hash: 0xabcd };
        let r = replay_recorded(id, &trace);
        assert_eq!(r.workload, id);
        assert_eq!(r.cycles, 2000);
        for s in r.dcache.iter().chain(r.icache.iter()) {
            assert!(s.stats.is_consistent(), "{}", s.name);
            assert!(s.stats.accesses > 0, "{}", s.name);
            assert!(s.power.total_mw() > 0.0, "{}", s.name);
        }
    }

    #[test]
    fn run_trace_with_store_produces_once_and_verifies_hash() {
        let (d, i) = paper_schemes();
        let id = WorkloadId::External { hash: 77 };
        let store = TraceStore::new();
        let mut productions = 0;
        let trace = RecordedTrace {
            fetch_events: vec![TraceEvent::Fetch { pc: 0, kind: FetchKind::Sequential }],
            data_events: vec![TraceEvent::Load { base: 0, disp: 0, addr: 0, size: 4 }],
            cycles: 1,
        };
        for _ in 0..2 {
            let stored = store
                .get_or_record(id, 77, || {
                    productions += 1;
                    Ok::<_, ()>(trace.clone())
                })
                .expect("produces");
            let r = Experiment::recorded(id, stored).dschemes(d.clone()).ischemes(i.clone());
            assert_eq!(r.run().expect("runs").workload, id);
        }
        assert_eq!(productions, 1, "second run must hit the store");
    }

    #[test]
    fn chain_layout_covers_every_scheme_once_within_the_worker_bound() {
        let d = |schemes| ChainSpec { section: Section::Data, schemes };
        let i = |schemes| ChainSpec { section: Section::Fetch, schemes };
        // The benchmark's case: 7 + 7 schemes on 2 threads is one D chain
        // and one I chain; 1 + 13 on 2 threads is two chains, not three.
        assert_eq!(chain_layout(7, 7, 2), [d(0..7), i(0..7)]);
        assert_eq!(chain_layout(1, 13, 2), [d(0..1), i(0..13)]);
        assert_eq!(chain_layout(7, 7, 4), [d(0..3), d(3..7), i(0..3), i(3..7)]);
        assert_eq!(chain_layout(1, 13, 4), [d(0..1), i(0..4), i(4..8), i(8..13)]);
        for (dn, in_) in (0..=16).flat_map(|a| (0..=16).map(move |b| (a, b))) {
            for workers in 1..=8 {
                let layout = chain_layout(dn, in_, workers);
                let sides = usize::from(dn > 0) + usize::from(in_ > 0);
                let case = format!("{dn} + {in_} on {workers}: {layout:?}");
                assert!(layout.len() <= workers.max(sides), "{case}");
                for (section, n) in [(Section::Data, dn), (Section::Fetch, in_)] {
                    let mut next = 0;
                    for c in layout.iter().filter(|c| c.section == section) {
                        assert!(c.schemes.start == next && !c.schemes.is_empty(), "{case}");
                        next = c.schemes.end;
                    }
                    assert_eq!(next, n, "{case}");
                }
            }
        }
    }

    #[test]
    fn streamed_chains_match_per_front_in_memory_replay() {
        // A miss-heavy geometry and the full 7 + 7 scheme sets: a chasing
        // read/write data stream (misses and write-backs) and a rotating
        // set of loops on the fetch side (I-cache misses).
        use waymem_ingest::synth::generate;
        use waymem_trace::{SynthPattern, SynthSpec};
        let synth = |pattern| generate(SynthSpec { pattern, accesses: 2_000, seed: 3 });
        // A window's worth of line-run heads, jumps to lines of their own,
        // the last of which runs on into the next packet of its 16-B line:
        // the first window's edge falls inside that run.
        let jump = |pc: u32| TraceEvent::Fetch { pc, kind: FetchKind::Indirect { base: pc, disp: 0 } };
        let mut fetch_events: Vec<_> = (0..WINDOW as u32).map(|k| jump(0x4_0000 + 48 * k)).collect();
        let last = 0x4_0000 + 48 * (WINDOW as u32 - 1);
        fetch_events.push(TraceEvent::Fetch { pc: last + 8, kind: FetchKind::Sequential });
        fetch_events.extend(synth(SynthPattern::MultiLoop { loops: 64, period: 4 }).fetch_events);
        let trace = RecordedTrace {
            fetch_events,
            data_events: synth(SynthPattern::RwChase { nodes: 4096 }).data_events,
            cycles: 12_345,
        };
        let cfg = SimConfig {
            geometry: Geometry::new(64, 2, 16).expect("valid"),
            ..SimConfig::default()
        };
        let (d, i) = (crate::full_dschemes(), crate::full_ischemes());
        // Replays every scheme through chains of `len` fronts each.
        let chains = |source: &TraceSource, len: usize| {
            let (mut dfronts, mut ifronts) = (Vec::new(), Vec::new());
            for (section, n) in [(Section::Data, d.len()), (Section::Fetch, i.len())] {
                for start in (0..n).step_by(len) {
                    let spec = ChainSpec { section, schemes: start..(start + len).min(n) };
                    match replay_chain(source, &spec, cfg.geometry, &d, &i).expect("replays") {
                        Replayed::Data(f) => dfronts.extend(f),
                        Replayed::Fetch(f) => ifronts.extend(f),
                    }
                }
            }
            let workload = WorkloadId::External { hash: 1 };
            sim_result(workload, source.cycles(), &cfg, &dfronts, &ifronts)
        };
        // The engine itself, on a given number of worker threads.
        let engine = |source: &TraceSource, workers: usize| {
            let workload = WorkloadId::External { hash: 1 };
            replay(workload, source, &cfg, &d, &i, workers).expect("replays")
        };
        // The reference: each front alone, over its whole in-memory section.
        let in_memory = TraceSource::from(trace.clone());
        let want = chains(&in_memory, 1);
        assert!(want.dcache[0].stats.write_backs > 0, "no write-backs: vacuous");
        assert!(want.icache[0].stats.misses > 100, "no I-side misses: vacuous");
        for workers in [1, 2, 4] {
            assert_results_identical(&engine(&in_memory, workers), &want);
        }

        let path = std::env::temp_dir()
            .join(format!("waymem-run-test-{}-chains.wmtr", std::process::id()));
        waymem_trace::stream::write_encoded(&trace, 0, &path).expect("writes");
        for batch in [1, 7, 4096] {
            let st = StreamingTrace::open(&path).expect("opens").with_batch(batch);
            let source = TraceSource::from(st);
            for len in [1, 2, 7] {
                assert_results_identical(&chains(&source, len), &want);
            }
            for workers in [1, 2, 4] {
                assert_results_identical(&engine(&source, workers), &want);
            }
        }
        std::fs::remove_file(&path).expect("removes the scratch trace");
    }

    #[test]
    fn a_chain_panic_keeps_its_message_on_any_worker_count() {
        // A zero-entry set buffer panics as its chain builds it. Inline
        // (one worker) or on a thread of its own (two), the panic reaches
        // the caller with its own payload.
        let source = TraceSource::from(RecordedTrace::default());
        let (d, i) = ([DScheme::Original, DScheme::SetBuffer { entries: 0 }], [IScheme::Original]);
        for workers in [1, 2] {
            let id = WorkloadId::External { hash: 1 };
            let run = || replay(id, &source, &SimConfig::default(), &d, &i, workers);
            match crate::catch_worker(run) {
                Err(RunError::Worker { message }) => {
                    assert!(message.contains("set buffer needs at least one entry"), "{message}");
                }
                other => panic!("{workers} workers: expected a Worker error, got {other:?}"),
            }
        }
    }

    #[test]
    fn kernel_source_hash_is_stable_and_scale_sensitive() {
        let h1 = kernel_source_hash(Benchmark::Dct, 1);
        assert_eq!(h1, kernel_source_hash(Benchmark::Dct, 1));
        assert_ne!(h1, kernel_source_hash(Benchmark::Dct, 2));
        assert_ne!(h1, kernel_source_hash(Benchmark::Fft, 1));
        assert_ne!(h1, 0, "0 is the hash a plain `codec::encode` writes; no kernel may share it");
    }

    #[test]
    fn lookup_by_name_works() {
        let r = Experiment::kernel(Benchmark::Dct).dschemes([DScheme::Original]);
        let r = r.ischemes([IScheme::Original]).run().expect("runs");
        assert!(r.dcache_by_name("original").is_some());
        assert!(r.dcache_by_name("nope").is_none());
        assert!(r.icache_by_name("original").is_some());
    }
}
