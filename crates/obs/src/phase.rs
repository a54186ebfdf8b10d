//! Exclusive wall-clock accounting for the four run phases.
//!
//! A run's time goes to exactly one of four places: **resolve** (workload
//! identity — hashing, store lookups, cache bookkeeping), **record**
//! (producing a trace — CPU interpretation, log parsing, synthesis),
//! **io** (moving trace bytes to or from disk), and **replay** (driving
//! events through cache fronts). [`enter`] pushes a phase onto a
//! per-thread stack and *pauses* the parent phase, so nested guards
//! yield disjoint self-time: entering `Io` inside `Record` charges the
//! disk wait to `Io`, not both.
//!
//! Accumulators are global relaxed atomics summed across threads; with
//! parallel workers the totals are "thread-seconds" (they can exceed
//! elapsed wall-clock), which is exactly the cost-attribution quantity a
//! breakdown wants. [`snapshot`] reads the totals and [`to_json`]
//! renders them: the `phases` object of `BENCH_headline.json` and of
//! every metrics snapshot.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::json::Json;

/// The four places a run's wall-clock can go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Workload identity: hashing, store lookups, cache bookkeeping.
    Resolve = 0,
    /// Trace production: CPU interpretation, log parsing, synthesis.
    Record = 1,
    /// Trace bytes moving to or from disk.
    Io = 2,
    /// Events driven through cache fronts.
    Replay = 3,
}

/// How many phases exist (the length of [`snapshot`]'s array).
pub const COUNT: usize = 4;

impl Phase {
    /// The phase's export name (`resolve` / `record` / `io` / `replay`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Resolve => "resolve",
            Phase::Record => "record",
            Phase::Io => "io",
            Phase::Replay => "replay",
        }
    }
}

static ACCUM_NS: [AtomicU64; COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

thread_local! {
    /// This thread's stack of open phases: `(phase, segment start)`.
    /// The top entry is running; everything beneath is paused.
    static STACK: RefCell<Vec<(Phase, Instant)>> = const { RefCell::new(Vec::new()) };
}

fn charge(phase: Phase, since: Instant, now: Instant) {
    let ns = u64::try_from(now.duration_since(since).as_nanos()).unwrap_or(u64::MAX);
    ACCUM_NS[phase as usize].fetch_add(ns, Ordering::Relaxed);
}

/// Opens `phase` on this thread until the returned guard drops, pausing
/// whichever phase was running (its elapsed segment is charged first).
/// Guards must drop in LIFO order — the natural result of binding them
/// to nested scopes. The guard is not `Send`: a phase segment is a
/// single-thread affair.
pub fn enter(phase: Phase) -> PhaseGuard {
    let now = Instant::now();
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some((parent, since)) = stack.last_mut() {
            charge(*parent, *since, now);
            *since = now;
        }
        stack.push((phase, now));
    });
    PhaseGuard { _not_send: PhantomData }
}

/// Closes its phase when dropped, charging the final segment and
/// resuming the parent phase's clock.
#[derive(Debug)]
#[must_use = "a phase covers the guard's lifetime — bind it to a scope"]
pub struct PhaseGuard {
    /// Keeps the guard off other threads (`*const ()` is `!Send`).
    _not_send: PhantomData<*const ()>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let now = Instant::now();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some((phase, since)) = stack.pop() {
                charge(phase, since, now);
            }
            if let Some((_, since)) = stack.last_mut() {
                *since = now;
            }
        });
    }
}

/// Accumulated self-time per phase, in seconds, summed across every
/// thread that ever entered one. Indexed in [`Phase`] declaration
/// order; pair each entry with [`Phase::name`] via the returned tuples.
#[must_use]
pub fn snapshot() -> [(&'static str, f64); COUNT] {
    #[allow(clippy::cast_precision_loss)]
    let secs = |p: Phase| ACCUM_NS[p as usize].load(Ordering::Relaxed) as f64 / 1e9;
    [
        (Phase::Resolve.name(), secs(Phase::Resolve)),
        (Phase::Record.name(), secs(Phase::Record)),
        (Phase::Io.name(), secs(Phase::Io)),
        (Phase::Replay.name(), secs(Phase::Replay)),
    ]
}

/// Renders per-phase totals, as [`snapshot`] returns them, as the
/// `phases` JSON object: `{"resolve":s,"record":s,"io":s,"replay":s}`.
#[must_use]
pub fn to_json(totals: &[(&'static str, f64)]) -> Json {
    Json::object(totals.iter().map(|&(name, seconds)| (name, Json::from(seconds))).collect())
}

/// Zeroes every accumulator (tests and repeated in-process runs).
pub fn reset() {
    for acc in &ACCUM_NS {
        acc.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_phases_account_self_time_exclusively() {
        // Run in a dedicated thread so parallel unit tests cannot share
        // this thread's stack; accumulators are still global, so compare
        // deltas.
        let before: Vec<f64> = snapshot().iter().map(|(_, s)| *s).collect();
        std::thread::spawn(|| {
            let _outer = enter(Phase::Record);
            std::thread::sleep(Duration::from_millis(20));
            {
                let _inner = enter(Phase::Io);
                std::thread::sleep(Duration::from_millis(120));
            }
            std::thread::sleep(Duration::from_millis(10));
        })
        .join()
        .unwrap();
        let after = snapshot();
        let record = after[Phase::Record as usize].1 - before[Phase::Record as usize];
        let io = after[Phase::Io as usize].1 - before[Phase::Io as usize];
        // Sleeps only ever oversleep: self-time lower bounds hold, and
        // the 120 ms Io segment must not also be charged to Record —
        // if it leaked, Record's self-time would be at least 150 ms.
        assert!(record >= 0.030, "record self-time {record}");
        assert!(io >= 0.120, "io self-time {io}");
        assert!(record < 0.110, "io leaked into record: {record}");
    }

    #[test]
    fn names_are_the_export_contract() {
        let names: Vec<_> = snapshot().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["resolve", "record", "io", "replay"]);
    }

    #[test]
    fn phases_report_all_four_keys() {
        let rendered = to_json(&snapshot()).to_string();
        for key in ["resolve", "record", "io", "replay"] {
            assert!(rendered.contains(&format!("\"{key}\":")), "missing {key} in {rendered}");
        }
    }
}
