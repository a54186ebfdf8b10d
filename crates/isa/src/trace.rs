use serde::{Deserialize, Serialize};

/// How control reached the instruction being fetched — the information the
/// I-MAB's input multiplexer needs (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FetchKind {
    /// Fall-through from the previous instruction.
    Sequential,
    /// A taken PC-relative branch or `jal`: the MAB sees the branch's own
    /// PC as base and the encoded offset as displacement.
    TakenBranch {
        /// PC of the branch instruction.
        base: u32,
        /// Encoded signed byte offset.
        disp: i32,
    },
    /// A return through the link register (`jalr` with `rs1 = ra`,
    /// zero displacement): the MAB's input is the link value itself.
    LinkReturn {
        /// The address read from the link register.
        target: u32,
    },
    /// Any other indirect jump: base register value plus displacement.
    Indirect {
        /// Value of the base register.
        base: u32,
        /// Signed displacement.
        disp: i32,
    },
}

/// One architectural event emitted by the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// An instruction fetch.
    Fetch {
        /// Address of the fetched instruction.
        pc: u32,
        /// How control arrived here.
        kind: FetchKind,
    },
    /// A data load.
    Load {
        /// Base register value (before addition).
        base: u32,
        /// Signed displacement from the instruction.
        disp: i32,
        /// The effective address `base + disp`.
        addr: u32,
        /// Access size in bytes (1, 2 or 4).
        size: u8,
    },
    /// A data store.
    Store {
        /// Base register value (before addition).
        base: u32,
        /// Signed displacement from the instruction.
        disp: i32,
        /// The effective address `base + disp`.
        addr: u32,
        /// Access size in bytes (1, 2 or 4).
        size: u8,
    },
}

impl TraceEvent {
    /// The event's primary address: the fetch PC or the effective
    /// load/store address. This is the value the `waymem-trace` codec's
    /// delta predictor chains from event to event, and a convenient
    /// handle for any address-stream analysis.
    #[must_use]
    pub fn primary_addr(self) -> u32 {
        match self {
            TraceEvent::Fetch { pc, .. } => pc,
            TraceEvent::Load { addr, .. } | TraceEvent::Store { addr, .. } => addr,
        }
    }

    /// A load at a raw effective address with no architectural
    /// base/displacement provenance: `base = addr`, `disp = 0`. This is
    /// the canonical encoding for events reconstructed from external
    /// sources (ingested logs, synthetic generators) that only know the
    /// address — the D-MAB then memoizes per effective address, the only
    /// sound key such a source supports.
    #[must_use]
    pub fn load_at(addr: u32, size: u8) -> Self {
        TraceEvent::Load { base: addr, disp: 0, addr, size }
    }

    /// A store at a raw effective address; see
    /// [`load_at`](Self::load_at) for the base/displacement convention.
    #[must_use]
    pub fn store_at(addr: u32, size: u8) -> Self {
        TraceEvent::Store { base: addr, disp: 0, addr, size }
    }
}

/// A benchmark's recorded trace, split into the two streams the two
/// front-end families consume, plus the retired instruction count the
/// power models need.
///
/// The split is the replay engine's key data-layout decision: I-fronts
/// only ever consume [`TraceEvent::Fetch`] and D-fronts only
/// [`TraceEvent::Load`]/[`TraceEvent::Store`], so storing one interleaved
/// stream would make every front walk (and branch over) the other
/// family's events — for a typical kernel ~90 % of the stream is fetches,
/// so a D-front would skip ten events for every one it consumes. Each
/// stream preserves program order, which is all a front-end can observe.
///
/// The type lives here (not in `waymem-sim`) so the `waymem-trace` codec
/// and store can speak it without depending on the simulator; `waymem-sim`
/// re-exports it under its old path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordedTrace {
    /// Every instruction fetch, in program order (the I-side stream).
    pub fetch_events: Vec<TraceEvent>,
    /// Every load/store, in program order (the D-side stream).
    pub data_events: Vec<TraceEvent>,
    /// Instructions retired (= cycles at CPI 1).
    pub cycles: u64,
}

impl RecordedTrace {
    /// Total recorded events across both streams.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fetch_events.len() + self.data_events.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fetch_events.is_empty() && self.data_events.is_empty()
    }

    /// The trace's in-memory footprint: event count ×
    /// `size_of::<TraceEvent>()`. The denominator of the codec's
    /// compression-ratio statistic.
    #[must_use]
    pub fn raw_size_bytes(&self) -> u64 {
        (self.len() as u64) * (std::mem::size_of::<TraceEvent>() as u64)
    }
}

/// A trace records whatever a producer pushes into it, splitting the
/// stream at capture time — fetches into the I-side stream, loads and
/// stores into the D-side one — so replay never re-partitions it. The
/// producer owns `cycles`, which no event carries.
impl TraceSink for RecordedTrace {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        self.fetch_events.push(TraceEvent::Fetch { pc, kind });
    }

    fn load(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.data_events.push(TraceEvent::Load { base, disp, addr, size });
    }

    fn store(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.data_events.push(TraceEvent::Store { base, disp, addr, size });
    }
}

/// Consumer of the CPU's event stream. Cache front-ends implement this; the
/// default methods ignore everything so a sink can subscribe selectively.
pub trait TraceSink {
    /// Called once per executed instruction with its fetch address and
    /// control-flow provenance.
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        let _ = (pc, kind);
    }

    /// Called for every load with the architectural base/displacement pair.
    fn load(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        let _ = (base, disp, addr, size);
    }

    /// Called for every store with the architectural base/displacement pair.
    fn store(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        let _ = (base, disp, addr, size);
    }

    /// Consumes a whole batch of recorded events at once.
    ///
    /// The default implementation dispatches each event to the per-event
    /// methods, so every existing sink keeps working; sinks on a hot path
    /// override this with a tight monomorphic loop, turning one virtual
    /// call per *event* into one per *batch*.
    fn events(&mut self, batch: &[TraceEvent]) {
        for &e in batch {
            match e {
                TraceEvent::Fetch { pc, kind } => self.fetch(pc, kind),
                TraceEvent::Load {
                    base,
                    disp,
                    addr,
                    size,
                } => self.load(base, disp, addr, size),
                TraceEvent::Store {
                    base,
                    disp,
                    addr,
                    size,
                } => self.store(base, disp, addr, size),
            }
        }
    }
}

/// Forwarding impl so producers generic over `S: TraceSink` can be
/// handed a mutable borrow (e.g. a parser feeding a caller-owned
/// streaming encoder) without an adapter type.
impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        (**self).fetch(pc, kind);
    }

    fn load(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        (**self).load(base, disp, addr, size);
    }

    fn store(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        (**self).store(base, disp, addr, size);
    }

    fn events(&mut self, batch: &[TraceEvent]) {
        (**self).events(batch);
    }
}

/// A sink that discards every event (pure functional runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn events(&mut self, _batch: &[TraceEvent]) {}
}

/// A sink that counts events without storing them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of instruction fetches observed.
    pub fetches: u64,
    /// Number of loads observed.
    pub loads: u64,
    /// Number of stores observed.
    pub stores: u64,
}

impl TraceSink for CountingSink {
    fn fetch(&mut self, _pc: u32, _kind: FetchKind) {
        self.fetches += 1;
    }

    fn load(&mut self, _base: u32, _disp: i32, _addr: u32, _size: u8) {
        self.loads += 1;
    }

    fn store(&mut self, _base: u32, _disp: i32, _addr: u32, _size: u8) {
        self.stores += 1;
    }

    fn events(&mut self, batch: &[TraceEvent]) {
        for e in batch {
            match e {
                TraceEvent::Fetch { .. } => self.fetches += 1,
                TraceEvent::Load { .. } => self.loads += 1,
                TraceEvent::Store { .. } => self.stores += 1,
            }
        }
    }
}

/// A sink that records the full event stream — the front half of the
/// record-once / replay-many engine in `waymem-sim` (also handy for tests
/// and trace dumps).
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// The recorded events, in program order.
    pub events: Vec<TraceEvent>,
}

impl RecordingSink {
    /// Upper bound on the capacity pre-allocated from an estimate (a
    /// kernel's step budget, a section's event count), in events.
    /// Beyond this the `Vec` grows geometrically as usual; the cap only
    /// bounds the blind up-front allocation (~24 B/event, so ~12 MB at
    /// the cap). Step *budgets* are routinely 100× more generous than
    /// actual runs, so sizing must never trust them fully.
    pub const MAX_PREALLOC_EVENTS: usize = 1 << 19;

    /// Clamps an event-count estimate to a sane pre-allocation:
    /// [`MAX_PREALLOC_EVENTS`](Self::MAX_PREALLOC_EVENTS) at most, on
    /// overflow too. The streamed trace decoder sizes each section's
    /// buffer with it.
    #[must_use]
    pub fn prealloc_cap(estimated_events: u64) -> usize {
        usize::try_from(estimated_events)
            .unwrap_or(Self::MAX_PREALLOC_EVENTS)
            .min(Self::MAX_PREALLOC_EVENTS)
    }
}

impl TraceSink for RecordingSink {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        self.events.push(TraceEvent::Fetch { pc, kind });
    }

    fn load(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.events.push(TraceEvent::Load {
            base,
            disp,
            addr,
            size,
        });
    }

    fn store(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.events.push(TraceEvent::Store {
            base,
            disp,
            addr,
            size,
        });
    }

    fn events(&mut self, batch: &[TraceEvent]) {
        self.events.extend_from_slice(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_address_constructors_set_base_to_addr() {
        assert_eq!(
            TraceEvent::load_at(0x1234, 4),
            TraceEvent::Load { base: 0x1234, disp: 0, addr: 0x1234, size: 4 }
        );
        assert_eq!(
            TraceEvent::store_at(0xffff_fffc, 2),
            TraceEvent::Store { base: 0xffff_fffc, disp: 0, addr: 0xffff_fffc, size: 2 }
        );
    }

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        s.fetch(0, FetchKind::Sequential);
        s.fetch(4, FetchKind::Sequential);
        s.load(0, 0, 0, 4);
        s.store(0, 0, 0, 1);
        assert_eq!((s.fetches, s.loads, s.stores), (2, 1, 1));
    }

    #[test]
    fn recording_sink_preserves_order() {
        let mut s = RecordingSink::default();
        s.load(10, -2, 8, 4);
        s.fetch(0x100, FetchKind::LinkReturn { target: 0x100 });
        assert_eq!(s.events.len(), 2);
        assert!(matches!(s.events[0], TraceEvent::Load { addr: 8, .. }));
        assert!(matches!(
            s.events[1],
            TraceEvent::Fetch {
                kind: FetchKind::LinkReturn { target: 0x100 },
                ..
            }
        ));
    }

    #[test]
    fn null_sink_compiles_with_defaults() {
        let mut s = NullSink;
        s.fetch(0, FetchKind::Sequential);
        s.load(0, 0, 0, 4);
        s.store(0, 0, 0, 4);
    }

    /// Synthetic stream covering all three event kinds.
    fn sample_events() -> Vec<TraceEvent> {
        let mut rec = RecordingSink::default();
        rec.fetch(0x100, FetchKind::Sequential);
        rec.load(0x2000, 8, 0x2008, 4);
        rec.fetch(0x104, FetchKind::TakenBranch { base: 0x104, disp: -4 });
        rec.store(0x2000, 12, 0x200c, 2);
        rec.fetch(0x100, FetchKind::LinkReturn { target: 0x100 });
        rec.events
    }

    #[test]
    fn batched_dispatch_matches_per_event_dispatch() {
        let events = sample_events();
        let mut per_event = CountingSink::default();
        for &e in &events {
            match e {
                TraceEvent::Fetch { pc, kind } => per_event.fetch(pc, kind),
                TraceEvent::Load { base, disp, addr, size } => {
                    per_event.load(base, disp, addr, size);
                }
                TraceEvent::Store { base, disp, addr, size } => {
                    per_event.store(base, disp, addr, size);
                }
            }
        }
        let mut batched = CountingSink::default();
        batched.events(&events);
        assert_eq!(batched, per_event);
        assert_eq!((batched.fetches, batched.loads, batched.stores), (3, 1, 1));
    }

    #[test]
    fn recorded_trace_splits_the_stream_per_side_in_program_order() {
        let events = sample_events();
        let mut trace = RecordedTrace::default();
        trace.events(&events);
        let (fetches, data): (Vec<_>, Vec<_>) =
            events.iter().partition(|e| matches!(e, TraceEvent::Fetch { .. }));
        assert_eq!(trace.fetch_events, fetches);
        assert_eq!(trace.data_events, data);
        assert_eq!(trace.cycles, 0, "cycles are the producer's to set");
    }

    #[test]
    fn recording_sink_round_trips_through_batches() {
        let events = sample_events();
        let mut replayed = RecordingSink::default();
        replayed.events(&events);
        assert_eq!(replayed.events, events);
    }

    #[test]
    fn step_budget_preallocation_is_capped() {
        assert_eq!(RecordingSink::prealloc_cap(200), 200);
        assert_eq!(RecordingSink::prealloc_cap(u64::MAX), RecordingSink::MAX_PREALLOC_EVENTS);
    }
}
