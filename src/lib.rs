//! # waymem — way memoization for low-power set-associative caches
//!
//! A full reproduction of Ishihara & Fallah, *"A Way Memoization Technique
//! for Reducing Power Consumption of Caches in Application Specific
//! Integrated Processors"* (DATE 2005), as a Rust workspace. This façade
//! crate re-exports the public API of every member crate:
//!
//! * [`core`] — the Memory Address Buffer (MAB), the paper's contribution;
//! * [`cache`] — the set-associative cache substrate with energy-relevant
//!   accounting;
//! * [`isa`] — the frv-lite CPU, assembler and trace machinery;
//! * [`workloads`] — the seven benchmark kernels;
//! * [`hwmodel`] — analytical area/delay/power models (Tables 1–3);
//! * [`trace`] — trace storage: the compact binary codec, workload
//!   identity ([`WorkloadId`](trace::WorkloadId)) and the cross-config
//!   [`TraceStore`](trace::TraceStore) cache;
//! * [`ingest`] — external trace ingestion: Valgrind Lackey / CSV log
//!   parsers and synthetic access-pattern generators, so *any* memory
//!   trace runs through every lookup scheme;
//! * [`sim`] — cache front-ends for every scheme and the composable
//!   [`Experiment`](sim::Experiment) / [`Suite`](sim::Suite) builder
//!   behind every run (Figures 4–8 included);
//! * [`obs`] — the observability layer: a lock-free metrics registry,
//!   RAII span tracing with Perfetto-compatible Chrome-trace export
//!   (`WAYMEM_SPANS=<path>`), leveled structured logging
//!   (`WAYMEM_LOG=warn|info|debug`) and per-run phase accounting;
//! * [`serve`] — the simulator as a long-running service: the
//!   `waymem-serve` daemon (one hot store, single-flight dedup of
//!   concurrent identical requests, bounded admission, graceful drain)
//!   with its framed TCP protocol and blocking
//!   [`Client`](serve::Client).
//!
//! ## Quickstart
//!
//! Every run — any workload, any scheme set, store-backed or not — goes
//! through the same builder:
//!
//! ```
//! use waymem::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let result = Experiment::kernel(Benchmark::Dct)
//!     .dschemes([DScheme::Original, DScheme::paper_way_memo()])
//!     .ischemes([IScheme::Original, IScheme::paper_way_memo()])
//!     .run()?;
//! let saved = 1.0
//!     - result.dcache[1].power.total_mw() / result.dcache[0].power.total_mw();
//! println!("D-cache power saving on DCT: {:.0}%", saved * 100.0);
//! assert!(saved > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use waymem_cache as cache;
pub use waymem_core as core;
pub use waymem_hwmodel as hwmodel;
pub use waymem_ingest as ingest;
pub use waymem_isa as isa;
pub use waymem_obs as obs;
pub use waymem_serve as serve;
pub use waymem_sim as sim;
pub use waymem_trace as trace;
pub use waymem_workloads as workloads;

/// Convenience re-exports of the types most programs start from.
pub mod prelude {
    pub use waymem_cache::{AccessStats, Geometry};
    pub use waymem_core::{Mab, MabConfig, MabLookup};
    pub use waymem_hwmodel::Technology;
    pub use waymem_ingest::{parse_path, Ingested, LogFormat};
    pub use waymem_sim::{
        catch_worker, DScheme, ExecPolicy, Experiment, IScheme, RunError, SimConfig, SimResult,
        Suite, SuiteFailure, SuiteResult, WorkloadSpec,
    };
    pub use waymem_trace::{SynthPattern, SynthSpec, TraceStore, WorkloadId};
    pub use waymem_workloads::Benchmark;
}
