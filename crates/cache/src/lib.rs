//! # waymem-cache — set-associative cache simulator with energy accounting
//!
//! This crate is the cache *substrate* for the way-memoization reproduction
//! (Ishihara & Fallah, DATE 2005). It models a write-back, LRU,
//! set-associative cache at the granularity the paper's evaluation needs:
//! every access reports **how many tag arrays** and **how many data ways**
//! were activated, because the paper's power equation (Eq. 1) is
//!
//! ```text
//! P_cache = E_way · N_way + E_tag · N_tag + P_MAB
//! ```
//!
//! The crate deliberately separates three concerns:
//!
//! * **State** — [`SetAssocCache`] holds tags, valid and dirty bits and
//!   per-set LRU order in flat arrays, and can say which way a line
//!   resides in ([`SetAssocCache::probe`]).
//! * **No data** — lines carry no bytes. No front-end ever reads them:
//!   energy depends only on residency, recency and dirty state. Fills and
//!   write-backs move nothing; they only count line transfers on a
//!   [`MainMemory`], which otherwise holds the CPU's architectural data.
//! * **Accounting** — the *front-ends* (in `waymem-sim`) decide how many tag
//!   and way arrays an access activates under each scheme (conventional,
//!   set-buffer, intra-line memoization, MAB) and record it in
//!   [`AccessStats`]. The cache itself never guesses energy.
//!
//! Auxiliary hardware structures used by the baselines and by the paper's
//! "future work" hybrid also live here: [`LineBuffer`] (Su & Despain /
//! filter-style single-line L0) and [`SetBuffer`] (Yang et al., approach
//! \[14\]). The FR-V's write-back buffer, which lets a store activate a
//! single data way, is modelled by that accounting rule in the front-ends.
//!
//! ## Quick example
//!
//! ```
//! use waymem_cache::{AccessKind, Geometry, MainMemory, SetAssocCache};
//!
//! # fn main() -> Result<(), waymem_cache::GeometryError> {
//! let geom = Geometry::new(512, 2, 32)?; // 32 kB, 2-way, 32-B lines (FR-V)
//! let mut mem = MainMemory::new();
//! let mut cache = SetAssocCache::new(geom);
//!
//! let outcome = cache.access(0x1000, AccessKind::Store, &mut mem);
//! assert!(!outcome.hit);                       // cold miss, line now dirty
//! assert_eq!(cache.probe(0x1000), Some(outcome.way));
//! let outcome = cache.access(0x1000, AccessKind::Load, &mut mem);
//! assert!(outcome.hit);
//! // Two more lines of the same set evict it: one write-back, no bytes.
//! cache.access(0x1000 + 16 * 1024, AccessKind::Load, &mut mem);
//! cache.access(0x1000 + 32 * 1024, AccessKind::Load, &mut mem);
//! assert_eq!((cache.write_backs(), mem.block_writes()), (1, 1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cache;
mod error;
mod geometry;
mod line_buffer;
mod lru;
mod memory;
mod set_buffer;
mod stats;

pub use cache::{AccessKind, AccessOutcome, EvictedLine, SetAssocCache};
pub use error::GeometryError;
pub use geometry::Geometry;
pub use line_buffer::LineBuffer;
pub use lru::LruOrder;
pub use memory::MainMemory;
pub use set_buffer::{SetBuffer, SetBufferLookup};
pub use stats::AccessStats;
