//! The experiment engine: a record-once / replay-in-parallel pipeline.
//!
//! The engine executes the CPU interpreter (or a parser / generator)
//! exactly once, capturing the full fetch/load/store stream — into a
//! [`RecordedTrace`] (two flat `Vec<TraceEvent>` streams split at capture
//! time, fetches apart from loads/stores) or into a `.wmtr` file — then
//! replays it through every requested scheme's front-end, under an
//! [`ExecPolicy`]. One engine serves both [`TraceSource`]s: the fronts
//! are laid out into chains, one per worker thread, each holding the
//! fronts of one section, and each chain reads its section once through
//! [`TraceSource::replay_section`] while a fan-out sink hands every
//! batch to each of its fronts. The batched [`TraceSink::events`] entry
//! point dispatches to a monomorphic loop ([`DFront::replay`] /
//! [`IFront::replay`]), so no per-event virtual dispatch survives on the
//! hot path; power is composed via Eq. (1) once every chain joins. Every
//! front-end sees the identical stream, so all policies and sources are
//! bit-identical — including the per-event serial fanout that serial
//! kernel runs use to skip the trace materialization entirely.
//!
//! The composable front door to all of this is
//! [`Experiment`](crate::Experiment) / [`Suite`](crate::Suite)
//! (`experiment` module); this module keeps the engine itself — the
//! result types and [`record_trace`].

use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use waymem_obs::phase::Phase;

use waymem_cache::{AccessStats, Geometry};
use waymem_hwmodel::{
    cache_energies, mab_power_mw, CacheShape, EnergyCounts, MabShape, PowerBreakdown, Technology,
};
use waymem_isa::{AsmError, Cpu, CpuError, FetchKind, RecordingSink, TraceEvent, TraceSink};
use waymem_trace::{
    fnv1a64, Section, StreamError, StreamStats, StreamingEncoder, StreamingTrace, WorkloadId,
};
use waymem_workloads::Benchmark;

use crate::{DFront, DScheme, ExecPolicy, IFront, IScheme};

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
    /// suite boundary and converted into this structured error so one
    /// bad workload cannot take down its siblings.
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

/// The fan-out sink: hands every event, or every batch, to each front of
/// one replay chain in turn, so a section read once feeds them all. Each
/// batch's time is charged to the front that consumed it, so a front's
/// busy time survives the shared read.
struct Fanout<F> {
    fronts: Vec<F>,
    busy_ns: Vec<u64>,
}

impl<F> Fanout<F> {
    fn new(fronts: Vec<F>) -> Self {
        let busy_ns = vec![0; fronts.len()];
        Fanout { fronts, busy_ns }
    }

    /// Hands the fronts back, publishing one `replay.front_ns`
    /// observation per front: its busy time, summed over its batches.
    fn finish(self) -> Vec<F> {
        for ns in self.busy_ns {
            waymem_obs::histogram!("replay.front_ns").record(ns);
        }
        self.fronts
    }
}

impl<F: TraceSink> TraceSink for Fanout<F> {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        for f in &mut self.fronts {
            f.fetch(pc, kind);
        }
    }

    fn load(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        for f in &mut self.fronts {
            f.load(base, disp, addr, size);
        }
    }

    fn store(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        for f in &mut self.fronts {
            f.store(base, disp, addr, size);
        }
    }

    fn events(&mut self, batch: &[TraceEvent]) {
        for (f, busy) in self.fronts.iter_mut().zip(&mut self.busy_ns) {
            let started = Instant::now();
            f.events(batch);
            *busy += elapsed_ns(started);
        }
    }
}

/// The serial kernel path's sink: the interpreter's fetches fan out to
/// the I-fronts and its loads and stores to the D-fronts, per event, as
/// they happen. Kept (behind [`run_kernel_fanout`]) as the reference the
/// record/replay engine is cross-validated against.
struct FanoutSink {
    d: Fanout<DFront>,
    i: Fanout<IFront>,
}

impl TraceSink for FanoutSink {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        self.i.fetch(pc, kind);
    }

    fn load(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.d.load(base, disp, addr, size);
    }

    fn store(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.d.store(base, disp, addr, size);
    }
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

/// The recording sink behind [`record_trace`]: like
/// [`waymem_isa::RecordingSink`] but splitting the stream at capture time
/// so replay never re-partitions it.
#[derive(Debug, Default)]
struct SplitRecordingSink {
    fetches: Vec<TraceEvent>,
    data: Vec<TraceEvent>,
}

impl TraceSink for SplitRecordingSink {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        self.fetches.push(TraceEvent::Fetch { pc, kind });
    }

    fn load(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.data.push(TraceEvent::Load {
            base,
            disp,
            addr,
            size,
        });
    }

    fn store(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.data.push(TraceEvent::Store {
            base,
            disp,
            addr,
            size,
        });
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
    let _phase = waymem_obs::phase::enter(Phase::Record);
    let _span = waymem_obs::span!("record", workload = bench.name());
    let wl = bench.workload(cfg.scale)?;
    // Pre-size each stream with `RecordingSink`'s shared clamp. The
    // estimates are one fetch per budgeted instruction (+1 for `halt`)
    // and one load/store per four instructions (typical kernels issue
    // one every 4–8); both are *estimates*, not bounds — the Vecs grow
    // geometrically past them. The default 30 M-step budgets exceed the
    // clamp anyway, so in practice both streams start at the cap and
    // the estimates only matter for small custom budgets.
    let mut sink = SplitRecordingSink {
        fetches: Vec::with_capacity(RecordingSink::prealloc_cap(wl.max_steps.saturating_add(1))),
        data: Vec::with_capacity(RecordingSink::prealloc_cap(wl.max_steps / 4)),
    };
    let mut cpu = Cpu::new(&wl.program);
    let outcome = cpu.run(wl.max_steps, &mut sink)?;
    if !outcome.halted() {
        return Err(RunError::StepLimit {
            max_steps: wl.max_steps,
        });
    }
    Ok(RecordedTrace {
        fetch_events: sink.fetches,
        data_events: sink.data,
        cycles: cpu.instret(),
    })
}

/// Executes `bench` once, encoding its full event stream straight to a
/// `.wmtr` file at `path` — the bounded-memory counterpart of
/// [`record_trace`]: the event vector is never materialized, so a
/// long-running kernel costs O(1) resident memory to capture. The file's
/// header carries [`kernel_source_hash`] as its staleness fingerprint,
/// so a store treats it exactly like a trace it recorded itself.
///
/// # Errors
///
/// [`RunError`] if the kernel fails to assemble, faults, does not halt
/// within its step budget, or the file cannot be written.
pub fn record_trace_streaming(
    bench: Benchmark,
    cfg: &SimConfig,
    path: &Path,
) -> Result<StreamStats, RunError> {
    let _phase = waymem_obs::phase::enter(Phase::Record);
    let _span = waymem_obs::span!("record", workload = bench.name());
    let wl = bench.workload(cfg.scale)?;
    let mut sink = StreamingEncoder::create(path).map_err(StreamError::from)?;
    let mut cpu = Cpu::new(&wl.program);
    let outcome = cpu.run(wl.max_steps, &mut sink)?;
    if !outcome.halted() {
        return Err(RunError::StepLimit {
            max_steps: wl.max_steps,
        });
    }
    let cycles = cpu.instret();
    Ok(sink.finish(cycles, kernel_source_hash(bench, cfg.scale))?)
}

/// Composes the per-scheme Eq. (1) results of a finished run. The
/// cache's per-access energies depend only on geometry and technology,
/// so they are computed once per run, not once per scheme.
fn sim_result(
    workload: WorkloadId,
    cycles: u64,
    cfg: &SimConfig,
    dfronts: &[DFront],
    ifronts: &[IFront],
) -> SimResult {
    let g = cfg.geometry;
    let energies = cache_energies(
        CacheShape {
            sets: g.sets(),
            ways: g.ways(),
            line_bytes: g.line_bytes(),
            tag_bits: g.tag_bits(),
        },
        cfg.technology,
    );
    let row = |name, stats, energy, mab: Option<MabShape>, extra_cycles| {
        let mab = mab.map(|s| mab_power_mw(s, cfg.technology));
        SchemeResult {
            name,
            stats,
            energy,
            power: PowerBreakdown::from_counts(energy, energies, mab, cfg.technology),
            extra_cycles,
        }
    };
    SimResult {
        workload,
        cycles,
        dcache: dfronts
            .iter()
            .map(|f| {
                let energy = f.energy_counts(cycles);
                row(f.scheme().name(), f.stats(), energy, f.mab_shape(), f.extra_cycles())
            })
            .collect(),
        icache: ifronts
            .iter()
            .map(|f| row(f.scheme().name(), f.stats(), f.energy_counts(cycles), f.mab_shape(), 0))
            .collect(),
    }
}

/// Elapsed nanoseconds since `started`, saturated to `u64::MAX`.
fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
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

/// A replayed chain's fronts, by side.
enum Chain {
    Data(Vec<DFront>),
    Fetch(Vec<IFront>),
}

/// Replays one chain: builds its fronts, reads its section once from
/// `source`, and fans every batch out to them through a [`Fanout`].
/// Publishes the chain's instruments: a `replay.chain` span naming the
/// section and the schemes, the section's `replay.data_events` or
/// `replay.fetch_events` counter (events × fronts, as if each front had
/// read the section alone), and one `replay.front_ns` observation per
/// front.
fn replay_chain(
    source: &TraceSource,
    spec: &ChainSpec,
    geometry: Geometry,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
) -> Result<Chain, StreamError> {
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
            let mut chain =
                Fanout::new(dschemes[range].iter().map(|s| s.build(geometry)).collect());
            let events = source.replay_section(Section::Data, &mut chain)?;
            waymem_obs::counter!("replay.data_events").add(events * chain.fronts.len() as u64);
            Chain::Data(chain.finish())
        }
        Section::Fetch => {
            let mut chain =
                Fanout::new(ischemes[range].iter().map(|s| s.build(geometry)).collect());
            let events = source.replay_section(Section::Fetch, &mut chain)?;
            waymem_obs::counter!("replay.fetch_events").add(events * chain.fronts.len() as u64);
            Chain::Fetch(chain.finish())
        }
    })
}

/// The replay engine: evaluates a trace source — in memory or a `.wmtr`
/// file — across every requested scheme's front-end under `policy`.
///
/// The fronts are laid out into chains by [`chain_layout`], each holding
/// fronts of one section. A chain reads its section once through
/// [`TraceSource::replay_section`] and hands every batch to each of its
/// fronts: an in-memory section arrives as one whole-slice batch, a
/// streamed one is decoded once per chain, not once per front. In
/// parallel each chain runs on a scoped worker of its own; serially the
/// chains run inline. Chains are joined in layout order, so results keep
/// the order the schemes were given, and every front consumes the
/// identical event sequence in isolation, so the numbers are
/// bit-identical across policies, sources and batch sizes.
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
    policy: ExecPolicy,
) -> Result<SimResult, RunError> {
    let _phase = waymem_obs::phase::enter(Phase::Replay);
    let _span = waymem_obs::span!("replay", workload = workload.name());
    let parallel = policy.parallel(dschemes.len() + ischemes.len());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let layout = chain_layout(dschemes.len(), ischemes.len(), if parallel { threads } else { 1 });
    let chain = |spec: &ChainSpec| replay_chain(source, spec, cfg.geometry, dschemes, ischemes);
    let chains = if parallel {
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                layout.iter().map(|spec| scope.spawn(move || chain(spec))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay chain worker panicked"))
                .collect::<Result<Vec<_>, _>>()
        })
    } else {
        layout.iter().map(chain).collect()
    }?;
    let mut dfronts = Vec::with_capacity(dschemes.len());
    let mut ifronts = Vec::with_capacity(ischemes.len());
    for c in chains {
        match c {
            Chain::Data(fronts) => dfronts.extend(fronts),
            Chain::Fetch(fronts) => ifronts.extend(fronts),
        }
    }
    Ok(sim_result(workload, source.cycles(), cfg, &dfronts, &ifronts))
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

/// The pre-record/replay serial engine: one CPU run with every front-end
/// fed per event through the serial [`FanoutSink`], skipping trace
/// materialization entirely. This is what [`ExecPolicy::Serial`] (and
/// `Auto`, when parallel replay cannot pay) resolves to for kernel
/// workloads without a store; kept private as the reference engine the
/// parallel replay is cross-validated against.
///
/// # Errors
///
/// Returns [`RunError`] if the kernel fails to assemble, faults, or does
/// not halt.
pub(crate) fn run_kernel_fanout(
    bench: Benchmark,
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
) -> Result<SimResult, RunError> {
    let _phase = waymem_obs::phase::enter(Phase::Replay);
    let _span = waymem_obs::span!("replay", workload = bench.name());
    let wl = bench.workload(cfg.scale)?;
    let mut sink = FanoutSink {
        d: Fanout::new(dschemes.iter().map(|s| s.build(cfg.geometry)).collect()),
        i: Fanout::new(ischemes.iter().map(|s| s.build(cfg.geometry)).collect()),
    };
    let mut cpu = Cpu::new(&wl.program);
    let outcome = cpu.run(wl.max_steps, &mut sink)?;
    if !outcome.halted() {
        return Err(RunError::StepLimit {
            max_steps: wl.max_steps,
        });
    }
    let workload = WorkloadId::kernel(bench, cfg.scale);
    Ok(sim_result(workload, cpu.instret(), cfg, &sink.d.fronts, &sink.i.fronts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiment;
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
    fn parallel_replay_matches_legacy_fanout() {
        // Exercise the record/replay engine explicitly (not through
        // `Experiment::kernel`, which may pick the fanout path on
        // single-core hosts) and pin it bit-identical to the serial fanout.
        let cfg = SimConfig::default();
        let (d, i) = paper_schemes();
        let trace = record_trace(Benchmark::Dct, &cfg).expect("records");
        let id = WorkloadId::kernel(Benchmark::Dct, cfg.scale);
        let replayed = replay_recorded(id, &trace);
        let fanout = run_kernel_fanout(Benchmark::Dct, &cfg, &d, &i).expect("fanout runs");
        assert_results_identical(&replayed, &fanout);
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
        let trace = RecordedTrace {
            fetch_events: synth(SynthPattern::MultiLoop { loops: 64, period: 4 }).fetch_events,
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
                        Chain::Data(f) => dfronts.extend(f),
                        Chain::Fetch(f) => ifronts.extend(f),
                    }
                }
            }
            let workload = WorkloadId::External { hash: 1 };
            sim_result(workload, source.cycles(), &cfg, &dfronts, &ifronts)
        };
        // The reference: each front alone, over its whole in-memory section.
        let want = chains(&TraceSource::from(trace.clone()), 1);
        assert!(want.dcache[0].stats.write_backs > 0, "no write-backs: vacuous");
        assert!(want.icache[0].stats.misses > 100, "no I-side misses: vacuous");

        let path = std::env::temp_dir()
            .join(format!("waymem-run-test-{}-chains.wmtr", std::process::id()));
        waymem_trace::stream::write_encoded(&trace, 0, &path).expect("writes");
        for batch in [1, 7, 4096] {
            let st = StreamingTrace::open(&path).expect("opens").with_batch(batch);
            let source = TraceSource::from(st);
            for len in [1, 2, 7] {
                assert_results_identical(&chains(&source, len), &want);
            }
        }
        std::fs::remove_file(&path).expect("removes the scratch trace");
    }

    #[test]
    fn kernel_source_hash_is_stable_and_scale_sensitive() {
        let h1 = kernel_source_hash(Benchmark::Dct, 1);
        assert_eq!(h1, kernel_source_hash(Benchmark::Dct, 1));
        assert_ne!(h1, kernel_source_hash(Benchmark::Dct, 2));
        assert_ne!(h1, kernel_source_hash(Benchmark::Fft, 1));
        assert_ne!(h1, 0, "hash 0 means 'unverified' and must not collide");
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
