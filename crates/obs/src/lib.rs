//! # waymem-obs — the workbench's observability layer
//!
//! Everything the rest of the workspace uses to see where cycles and
//! nanojoules go, hand-rolled over `std` (no network dependencies, no
//! background threads):
//!
//! * [`metrics`] — a global lock-free registry of named instruments:
//!   atomic [`Counter`](metrics::Counter)s and
//!   [`Gauge`](metrics::Gauge)s plus sharded power-of-two-bucket
//!   [`Histogram`](metrics::Histogram)s (p50/p95/p99). Handles are
//!   interned once per call site (the [`counter!`], [`gauge!`] and
//!   [`histogram!`] macros cache them in a `OnceLock`), so the hot path
//!   is a single relaxed atomic op.
//! * [`mod@span`] — an RAII span tracer: [`span!`]`("replay", workload = id)`
//!   records begin/end events into bounded per-thread buffers,
//!   [flushed](span::flush) on demand as Chrome trace-event JSON that
//!   loads directly in Perfetto or `chrome://tracing`. Armed by the
//!   `WAYMEM_SPANS=<path>` environment variable (via
//!   [`init_from_env`]); when unarmed, a span is one relaxed atomic
//!   load.
//! * [`mod@log`] — a leveled structured logger (`WAYMEM_LOG=warn|info|debug`,
//!   `key=value` fields on every line) behind the [`warn!`], [`info!`]
//!   and [`debug!`] macros — the replacement for ad-hoc `eprintln!`
//!   diagnostics.
//! * [`phase`] — exclusive wall-clock accounting for the four run phases
//!   (resolve / record / io / replay); the per-run breakdown the
//!   `headline` binary exports into `BENCH_headline.json`.
//! * [`json`] — the workspace's one JSON module: the [`Json`](json::Json)
//!   value every artifact is built as, its compact writer (one string
//!   escaper, one float rule) and its depth-bounded reader,
//!   [`parse`](json::parse).
//! * [`chrome`] — the Chrome trace-event validator, so tests and CI can
//!   round-trip the profiles the tracer emits without external tooling.
//! * [`snapshot`] — a one-call JSON freeze of the whole registry plus
//!   the phase accounting, embedded as the `"metrics"` object of every
//!   bench export and ledger record, with a matching reader-side
//!   validator.
//! * [`flight`] — the crash flight recorder: bounded per-thread rings of
//!   recent log/span/note events, dumped as one structured JSON black
//!   box by the panic hook and at the reliability seams (worker death,
//!   quarantine, first injected fault).
//!
//! Binaries call [`init_from_env`] once at startup; library code just
//! uses the macros and stays oblivious to whether anyone is watching.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod chrome;
pub mod flight;
pub mod json;
pub mod log;
pub mod metrics;
pub mod phase;
pub mod snapshot;
pub mod span;

pub use metrics::registry;
pub use span::SpanGuard;

/// Arms the whole layer from the process environment, reading each
/// variable once: `WAYMEM_SPANS=<path>` arms the span tracer,
/// `WAYMEM_LOG=warn|info|debug` sets the log level (`warn` when unset),
/// and `WAYMEM_FLIGHT=<path>` points the crash flight recorder's dumps
/// (default `waymem-flight.json`; `off` disables it) and installs its
/// panic hook. Idempotent; binaries call it first thing in `main`.
pub fn init_from_env() {
    span::init_from_env();
    log::init_from_env();
    flight::init_from_env();
}
