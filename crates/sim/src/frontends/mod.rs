//! Cache front-ends: one per lookup scheme. Each consumes the CPU's trace
//! events against its own private cache state. The crate-level
//! accounting rules live once, in the lookup core every front owns (its
//! cache, the MAB and the MAB path); a front adds only its own
//! structures and picks the rule each access takes.

mod dcache;
mod icache;
mod links;
mod lookup;

pub use dcache::{DFront, DScheme};
pub use icache::{IFront, IScheme};

// The record/replay engine hands each front-end to its own worker thread,
// so `DFront` and `IFront` must stay `Send` (each owns its cache, memory
// and buffer state outright — no shared interior mutability). This
// assertion turns an accidental `Rc`/`RefCell` regression into a compile
// error at the definition site instead of a confusing one in `run.rs`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<DFront>();
    assert_send::<IFront>();
};
