//! # waymem-trace — trace storage for the way-memoization workbench
//!
//! The simulator's record-once/replay-in-parallel engine (PR 2) pays the
//! CPU-interpreter cost once *per kernel run*. Sweeps run a kernel
//! dozens of times with different cache geometries while the recorded
//! stream — which depends only on the benchmark and its scale — stays
//! identical. This crate makes traces first-class stored artifacts:
//!
//! * [`codec`] — a compact binary wire format for
//!   [`RecordedTrace`](waymem_isa::RecordedTrace) streams:
//!   delta-encoded addresses with varint lengths, split fetch/data
//!   sections, a versioned header with event counts and an FNV-1a
//!   integrity checksum. [`codec::encode_into`]/[`codec::decode`]
//!   materialize; [`codec::Decoder`] streams events straight into any
//!   [`TraceSink`](waymem_isa::TraceSink) through batched
//!   `events(&[TraceEvent])` calls without building a `Vec`.
//! * [`stream`] — the bounded-memory counterpart of the codec:
//!   [`StreamingEncoder`] sinks a producer's event stream straight to a
//!   `.wmtr` file (byte-identical to the slice encoder) and
//!   [`StreamingTrace`] replays from the file through a bounded window
//!   — neither ever holds the event vector, so multi-GB captures cost
//!   O(batch) resident memory.
//! * [`workload`] — [`WorkloadId`], the storage key: a built-in kernel at
//!   a scale, an external log identified by FNV-1a64 content hash, or a
//!   synthetic generator spec ([`SynthSpec`]) — plus the [`fnv1a64`]
//!   content-hash helpers everything shares.
//! * [`fault`] — the robustness seam: a seeded deterministic
//!   [`FaultPlan`] with an injecting I/O wrapper ([`FaultFile`]) and the
//!   [`StoreIo`] handle the store/stream disk paths route through —
//!   plus the crash-safety primitives (atomic temp+fsync+rename writes,
//!   bounded transient retry) production code uses whether or not a
//!   plan is armed.
//! * [`store`] — [`TraceStore`], a thread-safe cache keyed by
//!   [`WorkloadId`]: records on first miss, hands out shared
//!   `Arc` traces thereafter, counts hits/misses/bytes, detects *stale*
//!   cache files via the source hash the `.wmtr` v2 header embeds, and
//!   (optionally) persists recordings under a size-capped cache
//!   directory so repeated process invocations skip production entirely.
//!
//! `waymem-sim`'s `Experiment::store` and `Suite::store` thread one store
//! through whole sweeps; the bench bins create one per process.
//!
//! ```
//! use waymem_trace::{codec, TraceStore, WorkloadId};
//! use waymem_isa::{FetchKind, RecordedTrace, TraceEvent};
//! use waymem_workloads::Benchmark;
//!
//! let trace = RecordedTrace {
//!     fetch_events: vec![TraceEvent::Fetch { pc: 0x100, kind: FetchKind::Sequential }],
//!     data_events: vec![],
//!     cycles: 1,
//! };
//!
//! // The codec round-trips exactly…
//! let bytes = codec::encode(&trace);
//! assert_eq!(codec::decode(&bytes).unwrap(), trace);
//!
//! // …and the store records each workload once.
//! let store = TraceStore::new();
//! let id = WorkloadId::kernel(Benchmark::Dct, 1);
//! for _ in 0..3 {
//!     store.get_or_record(id, 0, || Ok::<_, ()>(trace.clone())).unwrap();
//! }
//! assert_eq!(store.stats().records, 1);
//! assert_eq!(store.stats().hits, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod codec;
pub mod fault;
pub mod store;
pub mod stream;
pub mod workload;

pub use codec::{
    decode, encode, encode_into, encode_into_with_hash, encode_with_hash, CodecError, Decoder,
    Section,
};
pub use fault::{FaultFile, FaultPlan, StoreIo};
pub use store::{StoreStats, TraceStore, LOCK_SUFFIX, QUARANTINE_DIR};
pub use stream::{StreamError, StreamStats, StreamingEncoder, StreamingTrace};
pub use workload::{fnv1a64, fnv1a64_update, SynthPattern, SynthSpec, WorkloadId, FNV1A64_SEED};
