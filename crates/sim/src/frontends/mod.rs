//! Cache front-ends: one per lookup scheme. A replay chain owns the one
//! cache of its section and hands each front the outcome of every
//! access; the crate-level accounting rules live once, in the lookup
//! core every front owns (its counters, the MAB and the MAB path), and a
//! front adds only its own structures and picks the rule each access
//! takes. A front replayed on its own is a chain of one.

mod dcache;
mod icache;
mod links;
pub(crate) mod lookup;

pub use dcache::{DFront, DScheme};
pub(crate) use dcache::DRule;
pub use icache::{IFront, IScheme};
pub(crate) use icache::IRule;

// The record/replay engine hands each chain to its own worker thread, so
// its rules and the public fronts must stay `Send` (a chain, and so a
// public front, which is a chain of one, owns its cache and memory, and
// each rule its counters, MAB and buffer state, outright — no shared
// interior mutability).
// This assertion turns an accidental `Rc`/`RefCell` regression into a
// compile error at the definition site instead of a confusing one in
// `run.rs`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<DFront>();
    assert_send::<IFront>();
    assert_send::<lookup::Chain<DRule>>();
    assert_send::<lookup::Chain<IRule>>();
};
