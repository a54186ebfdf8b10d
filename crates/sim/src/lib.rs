//! # waymem-sim — trace-driven cache front-ends and the experiment driver
//!
//! This crate wires everything together: the frv-lite CPU
//! ([`waymem_isa`]) emits fetch and load/store events; a set of **cache
//! front-ends** — one per lookup scheme — read the outcomes of one shared
//! cache per event section, in parallel chains, and account how many tag
//! arrays and data ways each scheme activates; [`waymem_hwmodel`] then
//! turns the counts into the power numbers of the paper's Figures 5, 7
//! and 8 via Eq. (1).
//!
//! ## Schemes
//!
//! D-cache ([`DScheme`]): `Original` (conventional parallel lookup),
//! `SetBuffer` (Yang et al., approach \[14\]), `WayMemo` (the paper),
//! plus ablations `WayPredict` (MRU way prediction \[9\]), `TwoPhase`
//! (\[8\]), `FilterCache` (\[6\]/\[13\]), `WayMemoLineBuffer` (the
//! conclusion's future-work hybrid) and `WayMemoPaperLru` (the §3.3
//! consistency audit).
//!
//! I-cache ([`IScheme`]): `Original`, `IntraLine` (Panwar & Rennels,
//! approach \[4\]), `LinkMemo` (Ma et al., \[11\]), `ExtendedBtb`
//! (Inoue et al., \[12\]) and `WayMemo` (intra-line skip + MAB for
//! inter-line and non-sequential flow, per Figure 2).
//!
//! ## The experiment builder
//!
//! [`Experiment`] is the one entry point for every workload × scheme ×
//! store run — a built-in kernel, an ingested external log, a synthetic
//! pattern, or a pre-recorded trace, with an optional shared
//! [`TraceStore`]; [`Experiment::run_all`] runs a list of experiments,
//! each with its own settings, across worker threads.
//!
//! ```
//! use waymem_sim::{Experiment, DScheme, IScheme};
//! use waymem_workloads::Benchmark;
//!
//! # fn main() -> Result<(), waymem_sim::RunError> {
//! let result = Experiment::kernel(Benchmark::Dct)
//!     .dschemes([DScheme::Original, DScheme::WayMemo { tag_entries: 2, set_entries: 8 }])
//!     .ischemes([IScheme::IntraLine])
//!     .run()?;
//! let original = &result.dcache[0];
//! let waymemo = &result.dcache[1];
//! assert!(waymemo.stats.tag_reads < original.stats.tag_reads / 2);
//! # Ok(())
//! # }
//! ```
//!
//! ## Execution model and thread-safety contract
//!
//! The engine records the CPU's event stream **once** into a
//! [`RecordedTrace`] — two flat `Vec<TraceEvent>` streams, fetches split
//! from loads/stores at capture time (or into a `.wmtr` file, when
//! streaming) — and then replays it through every requested front-end
//! in replay chains: the fronts of one section, fed from a single read
//! of that section. There are at most as many chains as the host has
//! threads (one per side at least), and on a multi-core host each runs
//! **concurrently** on a [`std::thread::scope`] worker of its own. Each
//! worker owns its chain outright — the chain's cache and memory, and
//! its fronts' counters, MAB and buffer state — so the chains, and
//! `DFront` and `IFront` (each a chain of one), are (and must remain)
//! [`Send`], with no shared interior mutability — a compile-time
//! assertion in `frontends/mod.rs` enforces this. The trace itself is
//! shared immutably (`&[TraceEvent]`), front-ends never observe each
//! other, and chains are joined in scheme order, so results do not
//! depend on the thread count — the `run` module's tests pin 1, 2 and 4
//! workers against each front replayed alone, down to the last `f64`
//! bit. A front that panics surfaces as [`RunError::Worker`] carrying
//! the panic's message, on any host.
//!
//! ## Accounting rules (uniform across schemes)
//!
//! * conventional load lookup: `W` tag reads + `W` way reads (parallel);
//! * conventional store lookup: `W` tag reads + 1 way write (the
//!   write-back buffer lets the store wait for the tag match);
//! * known-way access (MAB hit / buffer hit / intra-line flow): 0 tag
//!   reads + 1 way access;
//! * every line fill adds 1 way write;
//! * I-cache accesses happen per 8-byte fetch packet, not per instruction.
//!
//! These rules are written once, in the lookup core every front-end
//! owns, together with what a cache outcome adds to them (a miss adds
//! its fill's way write, a write-back when the displaced line was dirty,
//! and drops the MAB pairs naming the refilled location) and the MAB
//! path (a hit is a known-way access, a miss a conventional lookup whose
//! way is then recorded, a wide displacement a conventional lookup past
//! the MAB). The cache itself belongs to the replay chain, which runs
//! each access through it once and hands the outcome to every front of
//! its side. A front adds only its own structures and picks the rule
//! each access takes. Hits and misses are counted per outcome and
//! accesses per event, so
//! [`AccessStats::is_consistent`](waymem_cache::AccessStats::is_consistent)
//! still catches an access that skips or repeats its outcome.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod experiment;
pub mod frontends;
pub mod presets;
mod report;
pub mod run;

pub use experiment::{catch_worker, Experiment, IngestMeta, Prepared, WorkloadSpec};
pub use frontends::{DFront, DScheme, IFront, IScheme};
pub use presets::{fig4_dschemes, fig6_ischemes, full_dschemes, full_ischemes};
pub use report::{format_power_table, format_ratio_table, FigureRow};
pub use run::{
    kernel_source_hash, record_trace, result_json, RecordedTrace, RunError, SchemeResult,
    SimConfig, SimResult, TraceSource,
};
// The store an `Experiment` threads through its pipeline and the
// workload-identity types it speaks, re-exported so driver-level
// callers need not name `waymem-trace` themselves; ditto the log-format
// selector from `waymem-ingest`.
pub use waymem_ingest::LogFormat;
pub use waymem_trace::{
    StoreStats, StreamError, StreamingTrace, SynthPattern, SynthSpec, TraceStore, WorkloadId,
};
