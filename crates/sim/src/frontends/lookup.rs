//! The replay chain and the lookup core every front-end owns.
//!
//! A [`Chain`] owns the one tag-only cache of its section. It runs each
//! window of a batch through the cache once, into a bounded buffer of
//! outcomes, then hands the window to each of its fronts in turn. The
//! cache's contents, LRU order, fills and write-backs are the same under
//! every scheme, so a front holds no cache: its [`Lookup`] applies the
//! crate's accounting rules to each outcome, once for both sides, and the
//! front adds only its own structures and picks the rule each access
//! takes. A front replayed on its own is a chain of one.

use std::fmt::Debug;
use std::time::Instant;

use waymem_cache::{AccessKind, AccessOutcome, AccessStats, Geometry, MainMemory, SetAssocCache};
use waymem_core::{Mab, MabConfig, MabLookup, MabStats};
use waymem_hwmodel::{EnergyCounts, MabShape};
use waymem_isa::{TraceEvent, TraceSink};

/// The most outcomes one window holds.
pub(crate) const WINDOW: usize = 256;

/// One side's fronts, as a [`Chain`] drives them.
pub(crate) trait Front {
    /// One access on the D side, one line run on the I side.
    type Outcome: Debug;
    /// What the cache pass carries from one batch to the next.
    type Carry: Default + Debug;

    /// Runs the leading events of `events` through `cache` (whose line
    /// transfers `mem` counts) into `window`, up to [`WINDOW`] outcomes;
    /// returns the events consumed, at least one of a non-empty slice.
    fn outcomes(
        cache: &mut SetAssocCache,
        mem: &mut MainMemory,
        carry: &mut Self::Carry,
        events: &[TraceEvent],
        window: &mut Vec<Self::Outcome>,
    ) -> usize;

    /// Applies this front's scheme to each outcome of `window`, in order.
    fn apply(&mut self, window: &[Self::Outcome]);
}

/// A replay chain: the one cache of a section and the fronts that read its
/// outcomes, window by window, so each front's time stays its own.
#[derive(Debug)]
pub(crate) struct Chain<F: Front> {
    pub(super) cache: SetAssocCache,
    mem: MainMemory,
    carry: F::Carry,
    window: Vec<F::Outcome>,
    pub(crate) fronts: Vec<F>,
    /// Nanoseconds in the cache pass and in each front, summed over the
    /// windows.
    pub(crate) cache_ns: u64,
    pub(crate) front_ns: Vec<u64>,
}

impl<F: Front> Chain<F> {
    /// A cold cache of shape `geom` in front of `fronts`.
    pub(crate) fn new(geom: Geometry, fronts: Vec<F>) -> Self {
        let (cache, mem) = (SetAssocCache::new(geom), MainMemory::new());
        let window = Vec::with_capacity(WINDOW);
        let front_ns = vec![0; fronts.len()];
        Chain { cache, mem, carry: F::Carry::default(), window, fronts, cache_ns: 0, front_ns }
    }

    /// Replays `events` one window at a time: the cache pass, then each
    /// front in turn.
    pub(crate) fn replay(&mut self, mut events: &[TraceEvent]) {
        while !events.is_empty() {
            let mut lap = Instant::now();
            self.window.clear();
            let (cache, mem, carry) = (&mut self.cache, &mut self.mem, &mut self.carry);
            events = &events[F::outcomes(cache, mem, carry, events, &mut self.window)..];
            self.cache_ns += lap_ns(&mut lap);
            for (front, ns) in self.fronts.iter_mut().zip(&mut self.front_ns) {
                front.apply(&self.window);
                *ns += lap_ns(&mut lap);
            }
        }
    }
}

/// Every trace source delivers whole batches.
impl<F: Front> TraceSink for Chain<F> {
    fn events(&mut self, batch: &[TraceEvent]) {
        self.replay(batch);
    }
}

/// Nanoseconds since `lap`, which moves to now.
fn lap_ns(lap: &mut Instant) -> u64 {
    let start = std::mem::replace(lap, Instant::now());
    u64::try_from(lap.duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// A front's lookup core: every counter the scheme reports, and the MAB
/// when the scheme has one, fed the chain's outcomes.
#[derive(Debug)]
pub(crate) struct Lookup {
    pub(super) geom: Geometry,
    /// Every counter but the MAB's, which [`stats`](Self::stats) reads
    /// from the MAB.
    pub(super) stats: AccessStats,
    /// Probes of the scheme's set buffer, line buffer, L0, link fields or
    /// BTB: Eq. (1)'s buffer term.
    pub(super) buffer_probes: u64,
    pub(super) mab: Option<Mab>,
    /// The §3.3 audit: fills leave the MAB alone, and every MAB hit is
    /// checked against residency.
    audit: bool,
    /// The link baseline's (\[11\]) two link bits per 4-byte instruction,
    /// which widen every data-array row by 16/256 = 1/16.
    pub(super) wide_rows: bool,
}

impl Lookup {
    /// The core of a cache of shape `geom`, behind a MAB of
    /// `(tag_entries, set_entries)` when given.
    ///
    /// # Panics
    ///
    /// Panics if the MAB's entry counts are invalid (zero or > 64).
    pub(super) fn new(geom: Geometry, mab: Option<(usize, usize)>, audit: bool) -> Self {
        let mab = mab.map(|(tags, sets)| {
            Mab::new(MabConfig::new(geom, tags, sets).expect("valid MAB config"))
        });
        Lookup { geom, stats: AccessStats::new(), buffer_probes: 0, mab, audit, wide_rows: false }
    }

    /// Charges the cache access `out` `tags` tag reads and `ways` way
    /// activations. A miss adds its fill's write and the write-back of a
    /// dirty victim, and drops the MAB pairs naming the refilled location,
    /// except under the audit.
    pub(super) fn access(&mut self, out: &AccessOutcome, tags: u64, ways: u64) {
        let s = &mut self.stats;
        s.tag_reads += tags;
        s.way_reads += ways;
        if out.hit {
            s.hits += 1;
            return;
        }
        s.misses += 1;
        s.way_reads += 1;
        s.write_backs += u64::from(out.evicted.is_some_and(|e| e.dirty));
        if let (Some(mab), false) = (self.mab.as_mut(), self.audit) {
            mab.invalidate_location(out.index, out.way);
        }
    }

    /// A conventional lookup: every tag, and every way for a read or one
    /// way for a store.
    pub(super) fn conventional(&mut self, kind: AccessKind, out: &AccessOutcome) {
        let w = u64::from(self.geom.ways());
        let ways = if kind == AccessKind::Store { 1 } else { w };
        self.access(out, w, ways);
    }

    /// A known-way access (a MAB, set buffer, link or BTB hit): no tag,
    /// one way.
    pub(super) fn known_way(&mut self, out: &AccessOutcome, way: u32) {
        debug_assert!(out.hit && out.way == way, "known-way access must target a resident line");
        self.access(out, 0, 1);
    }

    /// The MAB path for the access `out` to `base + disp`: a hit is a
    /// known-way access, a miss a conventional lookup whose way is then
    /// recorded, and a wide displacement a conventional lookup past the
    /// MAB. Under the audit, a hit on a line no longer resident counts as
    /// unsound (in hardware it would have returned wrong data) and is
    /// served as a miss.
    pub(super) fn mab_access(&mut self, kind: AccessKind, out: &AccessOutcome, base: u32, disp: i32) {
        let mab = self.mab.as_mut().expect("scheme has a MAB");
        match mab.lookup(base, disp) {
            MabLookup::Hit { way, set_index, .. } => {
                debug_assert_eq!(set_index, out.index);
                if !self.audit || (out.hit && out.way == way) {
                    return self.known_way(out, way);
                }
                self.stats.unsound_hits += 1;
            }
            MabLookup::Miss { .. } => {}
            MabLookup::Wide => return self.conventional(kind, out),
        }
        self.conventional(kind, out);
        let mab = self.mab.as_mut().expect("scheme has a MAB");
        mab.record(base, disp, out.way);
    }

    /// The counters so far, with the MAB's lookups (wide bypasses
    /// included) and hits.
    pub(crate) fn stats(&self) -> AccessStats {
        let mut s = self.stats;
        if let Some(m) = self.mab_stats() {
            s.mab_lookups = m.lookups + m.wide_bypasses;
            s.mab_hits = m.hits;
        }
        s
    }

    /// Eq. (1)'s inputs for a run of `cycles` instructions (CPI 1). The
    /// MAB is probed on every access but the I side's intra-line ones, and
    /// the link baseline's wider rows make each way read 1/16 dearer.
    pub(crate) fn energy_counts(&self, cycles: u64) -> EnergyCounts {
        let s = self.stats;
        EnergyCounts {
            way_reads: s.way_reads + if self.wide_rows { s.way_reads / 16 } else { 0 },
            tag_reads: s.tag_reads,
            buffer_probes: self.buffer_probes,
            mab_lookups: if self.mab.is_some() { s.accesses - s.intra_line_skips } else { 0 },
            cycles,
        }
    }

    pub(super) fn mab_stats(&self) -> Option<MabStats> {
        self.mab.as_ref().map(Mab::stats)
    }

    pub(crate) fn mab_shape(&self) -> Option<MabShape> {
        self.mab.as_ref().map(|m| {
            let cfg = m.config();
            MabShape {
                tag_entries: cfg.tag_entries() as u32,
                set_entries: cfg.set_entries() as u32,
                tag_entry_bits: cfg.tag_entry_bits(),
                set_entry_bits: cfg.set_entry_bits(),
                pair_bits: cfg.pair_bits(),
                adder_bits: cfg.geometry().low_bits(),
            }
        })
    }
}
