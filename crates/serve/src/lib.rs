//! `waymem_serve` — the simulator as a long-running experiment service.
//!
//! The paper's result tables come from sweeping workloads × cache
//! geometries × technologies. Run standalone, every sweep client pays
//! the cold trace-recording cost itself; run against this daemon, many
//! clients share **one hot [`TraceStore`](waymem_trace::TraceStore)**
//! and concurrent identical requests collapse into **one execution**
//! (single-flight dedup on the request
//! [fingerprint](proto::RunRequest::fingerprint), stacked on the
//! store's exactly-once `get_or_record`).
//!
//! Three layers:
//!
//! - [`proto`] — the versioned, length-prefixed binary frame format
//!   and its panic-free codec;
//! - [`server`] — the daemon: bounded worker pool, admission control
//!   with explicit overload rejection, per-request timeouts, graceful
//!   drain, `serve.*` observability;
//! - [`client`] — the blocking client the `loadgen` bin and the test
//!   suite drive.
//!
//! ```no_run
//! use waymem_serve::{client::Client, proto::RunRequest, server};
//! use waymem_trace::{SynthPattern, SynthSpec, TraceStore, WorkloadId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let handle = server::start(server::ServeConfig::default(), TraceStore::new())?;
//! let mut client = Client::connect(handle.local_addr())?;
//! let reply = client.run(RunRequest::new(WorkloadId::Synthetic(SynthSpec {
//!     pattern: SynthPattern::Stream,
//!     accesses: 10_000,
//!     seed: 1,
//! })))?;
//! assert!(reply.result_json.contains("\"schema\":\"waymem/serve-result/v2\""));
//! client.shutdown()?;
//! handle.join();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, RunReply};
pub use proto::{Request, Response, RunRequest, SchemeSet, Status};
pub use server::{start, ServeConfig, ServerHandle};
