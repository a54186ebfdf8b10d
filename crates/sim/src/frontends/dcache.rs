//! D-cache front-ends (paper Figures 4–5 plus ablations).

use waymem_cache::{
    AccessKind, AccessOutcome, AccessStats, Geometry, LineBuffer, MainMemory, SetAssocCache,
    SetBuffer, SetBufferLookup,
};
use waymem_core::{Mab, MabConfig, MabLookup, MabStats};
use waymem_hwmodel::{EnergyCounts, MabShape};
use waymem_isa::{FetchKind, TraceEvent, TraceSink};

/// A D-cache lookup scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DScheme {
    /// Conventional parallel lookup: all tags + all data ways per load,
    /// all tags + one way per store (write-back buffer).
    Original,
    /// Yang et al.'s lightweight set buffer (approach \[14\]).
    SetBuffer {
        /// Number of buffered sets (the paper's comparison uses 1).
        entries: usize,
    },
    /// The paper's way memoization: a MAB in front of the cache.
    WayMemo {
        /// MAB tag rows (`N_t`).
        tag_entries: usize,
        /// MAB set-index columns (`N_s`).
        set_entries: usize,
    },
    /// The conclusion's future-work hybrid: a line buffer probed before
    /// the MAB (line-buffer hits cost no array access at all).
    WayMemoLineBuffer {
        /// MAB tag rows.
        tag_entries: usize,
        /// MAB set-index columns.
        set_entries: usize,
        /// Line-buffer entries.
        line_entries: usize,
    },
    /// MRU way prediction (Inoue et al., \[9\]): one tag + one way on a
    /// correct prediction, the rest (plus an extra cycle) on a miss.
    WayPredict,
    /// Two-phase lookup (Hasegawa et al., \[8\]): tags first, then exactly
    /// one way — an extra cycle on every access.
    TwoPhase,
    /// A small L0 filter cache / line buffer in front of the L1 (Kin et
    /// al. \[6\]; with one line, Su & Despain's in-cache line buffer
    /// \[13\]). Loads hitting the L0 cost only buffer energy, but an L0
    /// miss "will require additional cycles to access the main cache" —
    /// the performance loss the paper's §2 criticizes. Stores write
    /// through to the L1 conventionally.
    FilterCache {
        /// Number of L0 lines (fully associative, LRU).
        lines: usize,
    },
    /// The MAB *without* replacement-time invalidation, trusting the
    /// paper's §3.3 claim that LRU ordering alone keeps the MAB
    /// consistent with the cache. Every hit is verified against actual
    /// residency; hits that would have returned stale data are counted in
    /// [`waymem_cache::AccessStats::unsound_hits`] and recovered with a
    /// conventional lookup. Exists to *measure* the claim, not to deploy.
    WayMemoPaperLru {
        /// MAB tag rows (`N_t`).
        tag_entries: usize,
        /// MAB set-index columns (`N_s`).
        set_entries: usize,
    },
}

impl DScheme {
    /// Display name used in figure rows.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            DScheme::Original => "original".to_owned(),
            DScheme::SetBuffer { entries } => format!("set_buffer[14]x{entries}"),
            DScheme::WayMemo {
                tag_entries,
                set_entries,
            } => format!("way_memo {tag_entries}x{set_entries}"),
            DScheme::WayMemoLineBuffer {
                tag_entries,
                set_entries,
                line_entries,
            } => format!("way_memo+lb {tag_entries}x{set_entries}+{line_entries}"),
            DScheme::WayPredict => "way_predict[9]".to_owned(),
            DScheme::TwoPhase => "two_phase[8]".to_owned(),
            DScheme::FilterCache { lines } => format!("filter_cache[6]x{lines}"),
            DScheme::WayMemoPaperLru {
                tag_entries,
                set_entries,
            } => format!("way_memo_paper_lru {tag_entries}x{set_entries}"),
        }
    }

    /// The paper's D-cache MAB configuration (2×8).
    #[must_use]
    pub fn paper_way_memo() -> Self {
        DScheme::WayMemo {
            tag_entries: 2,
            set_entries: 8,
        }
    }

    /// Builds the front-end over a cache shaped by `geom`.
    ///
    /// # Panics
    ///
    /// Panics if a MAB scheme's entry counts are invalid (zero or > 64).
    #[must_use]
    pub fn build(self, geom: Geometry) -> DFront {
        let mab = match self {
            DScheme::WayMemo {
                tag_entries,
                set_entries,
            }
            | DScheme::WayMemoPaperLru {
                tag_entries,
                set_entries,
            }
            | DScheme::WayMemoLineBuffer {
                tag_entries,
                set_entries,
                ..
            } => Some(Mab::new(
                MabConfig::new(geom, tag_entries, set_entries).expect("valid MAB config"),
            )),
            _ => None,
        };
        let set_buffer = match self {
            DScheme::SetBuffer { entries } => Some(SetBuffer::new(geom, entries)),
            _ => None,
        };
        let line_buffer = match self {
            DScheme::WayMemoLineBuffer { line_entries, .. } => {
                Some(LineBuffer::new(geom, line_entries))
            }
            DScheme::FilterCache { lines } => Some(LineBuffer::new(geom, lines)),
            _ => None,
        };
        DFront {
            scheme: self,
            geom,
            cache: SetAssocCache::new(geom),
            mem: MainMemory::new(),
            stats: AccessStats::new(),
            mab,
            set_buffer,
            line_buffer,
            extra_cycles: 0,
        }
    }
}

/// A trace-driven D-cache model under one scheme.
///
/// The front-end owns a private tag-only cache and a memory that only
/// counts its line transfers: it tracks residency, LRU and dirty state
/// driven purely by the address stream (the CPU's architectural data lives
/// elsewhere), which is exactly what the energy accounting needs.
#[derive(Debug)]
pub struct DFront {
    scheme: DScheme,
    geom: Geometry,
    cache: SetAssocCache,
    mem: MainMemory,
    stats: AccessStats,
    mab: Option<Mab>,
    set_buffer: Option<SetBuffer>,
    line_buffer: Option<LineBuffer>,
    extra_cycles: u64,
}

impl DFront {
    /// The scheme this front-end models.
    #[must_use]
    pub fn scheme(&self) -> DScheme {
        self.scheme
    }

    /// Conventional lookup accounting + architectural access.
    fn conventional(&mut self, is_store: bool, addr: u32) -> AccessOutcome {
        let w = u64::from(self.geom.ways());
        self.stats.tag_reads += w;
        self.stats.way_reads += if is_store { 1 } else { w };
        self.finish(is_store, addr)
    }

    /// Architectural access with hit/miss/fill accounting (no lookup cost).
    fn finish(&mut self, is_store: bool, addr: u32) -> AccessOutcome {
        let kind = if is_store {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let out = self.cache.access(addr, kind, &mut self.mem);
        if out.hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            self.stats.way_reads += 1; // line-fill write
            if out.evicted.is_some_and(|e| e.dirty) {
                self.stats.write_backs += 1;
            }
            // Any structure memoizing the victim's location is now stale.
            // The PaperLru variant deliberately skips this to measure the
            // paper's claim that LRU ordering makes it unnecessary.
            let precise = !matches!(self.scheme, DScheme::WayMemoPaperLru { .. });
            if precise {
                if let Some(mab) = self.mab.as_mut() {
                    mab.invalidate_location(out.index, out.way);
                }
            }
            if let Some(ev) = out.evicted {
                if let Some(lb) = self.line_buffer.as_mut() {
                    lb.invalidate_line(self.geom.line_addr(ev.tag, ev.index));
                }
            }
        }
        out
    }

    /// A known-way access (MAB / buffer / predictor hit): one way, no tags.
    fn known_way(&mut self, is_store: bool, addr: u32, way: u32) {
        debug_assert_eq!(
            self.cache.probe(addr),
            Some(way),
            "known-way access must target a resident line ({})",
            self.scheme.name()
        );
        self.stats.way_reads += 1;
        let out = self.finish(is_store, addr);
        debug_assert!(out.hit);
    }

    /// Feeds one load/store into the model.
    pub fn access(&mut self, is_store: bool, base: u32, disp: i32, addr: u32) {
        self.stats.accesses += 1;
        match self.scheme {
            DScheme::Original => {
                self.conventional(is_store, addr);
            }
            DScheme::SetBuffer { .. } => self.access_set_buffer(is_store, addr),
            DScheme::WayMemo { .. } => self.access_way_memo(is_store, base, disp, addr),
            DScheme::WayMemoPaperLru { .. } => {
                self.access_way_memo_unchecked(is_store, base, disp, addr);
            }
            DScheme::FilterCache { .. } => {
                if is_store {
                    // Write-through past the L0; keep the L0 coherent.
                    self.conventional(true, addr);
                    self.line_buffer
                        .as_mut()
                        .expect("scheme has L0")
                        .invalidate_line(addr);
                    return;
                }
                let l0 = self.line_buffer.as_mut().expect("scheme has L0");
                if l0.lookup(addr).is_some() {
                    // Served entirely from the L0: buffer energy only.
                    // (L0 ⊆ L1 is maintained by eviction invalidation.)
                    debug_assert!(self.cache.probe(addr).is_some());
                    self.stats.buffer_hits += 1;
                    self.stats.hits += 1;
                    self.cache.access(addr, AccessKind::Load, &mut self.mem);
                    return;
                }
                // L0 miss: the extra cycle the paper's §2 criticizes.
                self.extra_cycles += 1;
                let out = self.conventional(false, addr);
                self.line_buffer
                    .as_mut()
                    .expect("scheme has L0")
                    .record(addr, out.way);
            }
            DScheme::WayMemoLineBuffer { .. } => {
                if !is_store {
                    let lb = self.line_buffer.as_mut().expect("scheme has line buffer");
                    if let Some(way) = lb.lookup(addr) {
                        // Served from the line buffer: no array activation.
                        self.stats.buffer_hits += 1;
                        debug_assert_eq!(self.cache.probe(addr), Some(way));
                        self.stats.hits += 1;
                        self.cache
                            .access(addr, AccessKind::Load, &mut self.mem);
                        return;
                    }
                }
                self.access_way_memo(is_store, base, disp, addr);
                // Memoize the line for subsequent loads.
                if let Some(way) = self.cache.probe(addr) {
                    self.line_buffer
                        .as_mut()
                        .expect("scheme has line buffer")
                        .record(addr, way);
                }
            }
            DScheme::WayPredict => {
                let index = self.geom.index_of(addr);
                let predicted = self.cache.mru_way(index);
                self.stats.tag_reads += 1;
                self.stats.way_reads += 1;
                if self.cache.probe(addr) == Some(predicted) {
                    let out = self.finish(is_store, addr);
                    debug_assert!(out.hit);
                } else {
                    // Misprediction: re-access the remaining ways, one
                    // cycle later.
                    let w = u64::from(self.geom.ways());
                    self.stats.tag_reads += w - 1;
                    self.stats.way_reads += if is_store { 0 } else { w - 1 };
                    self.extra_cycles += 1;
                    self.finish(is_store, addr);
                }
            }
            DScheme::TwoPhase => {
                // Phase 1: all tags; phase 2: exactly one way. Always an
                // extra cycle.
                self.stats.tag_reads += u64::from(self.geom.ways());
                self.stats.way_reads += 1;
                self.extra_cycles += 1;
                self.finish(is_store, addr);
            }
        }
    }

    fn access_set_buffer(&mut self, is_store: bool, addr: u32) {
        let sb = self.set_buffer.as_mut().expect("scheme has set buffer");
        match sb.lookup(addr) {
            SetBufferLookup::WayKnown(way) => {
                self.stats.buffer_hits += 1;
                self.known_way(is_store, addr, way);
            }
            SetBufferLookup::SetKnownTagMiss | SetBufferLookup::SetMiss => {
                self.conventional(is_store, addr);
                // Refresh the buffered copy of this set from the cache's tag row.
                let index = self.geom.index_of(addr);
                let cache = &self.cache;
                self.set_buffer
                    .as_mut()
                    .expect("scheme has set buffer")
                    .refill(index, (0..self.geom.ways()).map(|w| cache.tag_at(index, w)));
            }
        }
    }

    /// The MAB without invalidation: hits are audited against residency.
    /// A hit on a stale location is counted as unsound (in hardware it
    /// would have returned wrong data) and recovered conventionally.
    fn access_way_memo_unchecked(&mut self, is_store: bool, base: u32, disp: i32, addr: u32) {
        let mab = self.mab.as_mut().expect("scheme has MAB");
        match mab.lookup(base, disp) {
            MabLookup::Hit { way, .. } => {
                if self.cache.probe(addr) == Some(way) {
                    self.stats.way_reads += 1;
                    let out = self.finish(is_store, addr);
                    debug_assert!(out.hit);
                } else {
                    // The §3.3 LRU argument failed here.
                    self.stats.unsound_hits += 1;
                    let out = self.conventional(is_store, addr);
                    self.mab
                        .as_mut()
                        .expect("scheme has MAB")
                        .record(base, disp, out.way);
                }
            }
            MabLookup::Miss { .. } => {
                let out = self.conventional(is_store, addr);
                self.mab
                    .as_mut()
                    .expect("scheme has MAB")
                    .record(base, disp, out.way);
            }
            MabLookup::Wide => {
                self.conventional(is_store, addr);
            }
        }
    }

    fn access_way_memo(&mut self, is_store: bool, base: u32, disp: i32, addr: u32) {
        let mab = self.mab.as_mut().expect("scheme has MAB");
        match mab.lookup(base, disp) {
            MabLookup::Hit { way, set_index, .. } => {
                debug_assert_eq!(set_index, self.geom.index_of(addr));
                self.known_way(is_store, addr, way);
            }
            MabLookup::Miss { .. } => {
                let out = self.conventional(is_store, addr);
                self.mab
                    .as_mut()
                    .expect("scheme has MAB")
                    .record(base, disp, out.way);
            }
            MabLookup::Wide => {
                self.conventional(is_store, addr);
            }
        }
    }

    /// Replays a recorded trace slice into the model: loads and stores are
    /// consumed in program order, fetch events are skipped. The loop is
    /// monomorphic for this front-end, so a replay pays no per-event
    /// virtual dispatch — this is the hot path of the record-once /
    /// replay-in-parallel engine behind [`crate::Experiment::run`].
    pub fn replay(&mut self, events: &[TraceEvent]) {
        for &e in events {
            match e {
                TraceEvent::Load {
                    base, disp, addr, ..
                } => self.access(false, base, disp, addr),
                TraceEvent::Store {
                    base, disp, addr, ..
                } => self.access(true, base, disp, addr),
                TraceEvent::Fetch { .. } => {}
            }
        }
    }

    /// Accounting so far. For MAB schemes the `mab_*` counters reflect the
    /// MAB's own statistics.
    #[must_use]
    pub fn stats(&self) -> AccessStats {
        let mut s = self.stats;
        if let Some(mab) = self.mab.as_ref() {
            s.mab_lookups = mab.stats().lookups + mab.stats().wide_bypasses;
            s.mab_hits = mab.stats().hits;
        }
        if let Some(sb) = self.set_buffer.as_ref() {
            s.buffer_hits = sb.way_hits();
        }
        s
    }

    /// Raw MAB statistics (MAB schemes only).
    #[must_use]
    pub fn mab_stats(&self) -> Option<MabStats> {
        self.mab.as_ref().map(Mab::stats)
    }

    /// The MAB's hardware shape for area/power models (MAB schemes only).
    #[must_use]
    pub fn mab_shape(&self) -> Option<MabShape> {
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

    /// Cycles added by schemes with lookup penalties (way prediction,
    /// two-phase); zero for the others — the paper's "no performance
    /// penalty" claim is that this is zero for way memoization.
    #[must_use]
    pub fn extra_cycles(&self) -> u64 {
        self.extra_cycles
    }

    /// Converts the counters into hwmodel inputs. `cycles` is the run's
    /// instruction count (CPI 1).
    #[must_use]
    pub fn energy_counts(&self, cycles: u64) -> EnergyCounts {
        let buffer_probes = self.set_buffer.as_ref().map_or(0, SetBuffer::lookups)
            + self.line_buffer.as_ref().map_or(0, LineBuffer::lookups);
        EnergyCounts {
            way_reads: self.stats.way_reads,
            tag_reads: self.stats.tag_reads,
            buffer_probes,
            mab_lookups: if self.mab.is_some() {
                self.stats.accesses
            } else {
                0
            },
            cycles,
        }
    }

    /// The modelled cache (tests inspect residency).
    #[must_use]
    pub fn cache(&self) -> &SetAssocCache {
        &self.cache
    }
}

/// A D-front is itself a [`TraceSink`]: loads/stores feed the model,
/// fetches are ignored, and the batched [`TraceSink::events`] entry point
/// dispatches to the monomorphic [`DFront::replay`] loop — the path the
/// record/replay engine drives.
impl TraceSink for DFront {
    fn fetch(&mut self, _pc: u32, _kind: FetchKind) {}

    fn load(&mut self, base: u32, disp: i32, addr: u32, _size: u8) {
        self.access(false, base, disp, addr);
    }

    fn store(&mut self, base: u32, disp: i32, addr: u32, _size: u8) {
        self.access(true, base, disp, addr);
    }

    fn events(&mut self, batch: &[TraceEvent]) {
        self.replay(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::frv()
    }

    #[test]
    fn original_load_costs_all_tags_and_ways() {
        let mut f = DScheme::Original.build(geom());
        f.access(false, 0x1000, 0, 0x1000); // cold miss
        let s = f.stats();
        assert_eq!(s.accesses, 1);
        assert_eq!(s.tag_reads, 2);
        assert_eq!(s.way_reads, 3); // 2 parallel reads + 1 fill
        f.access(false, 0x1000, 4, 0x1004); // hit
        let s = f.stats();
        assert_eq!(s.tag_reads, 4);
        assert_eq!(s.way_reads, 5);
        assert!(s.is_consistent());
    }

    #[test]
    fn original_store_costs_one_way() {
        let mut f = DScheme::Original.build(geom());
        f.access(true, 0x2000, 0, 0x2000); // store miss: 2 tags + 1 way + fill
        let s = f.stats();
        assert_eq!(s.tag_reads, 2);
        assert_eq!(s.way_reads, 2);
        f.access(true, 0x2000, 8, 0x2008); // store hit: 2 tags + 1 way
        let s = f.stats();
        assert_eq!(s.tag_reads, 4);
        assert_eq!(s.way_reads, 3);
    }

    #[test]
    fn way_memo_hit_skips_tags() {
        let mut f = DScheme::paper_way_memo().build(geom());
        f.access(false, 0x3000, 0, 0x3000); // miss everywhere, records MAB
        let before = f.stats();
        f.access(false, 0x3000, 4, 0x3004); // MAB hit: same tag/set
        let s = f.stats();
        assert_eq!(s.tag_reads, before.tag_reads, "no new tag reads");
        assert_eq!(s.way_reads, before.way_reads + 1, "exactly one way");
        assert_eq!(s.mab_hits, 1);
    }

    #[test]
    fn way_memo_wide_displacement_bypasses() {
        let mut f = DScheme::paper_way_memo().build(geom());
        f.access(false, 0x3000, 1 << 20, 0x3000 + (1 << 20));
        let s = f.stats();
        assert_eq!(s.tag_reads, 2, "conventional path");
        // Re-probing the same wide pair still misses the MAB.
        f.access(false, 0x3000, 1 << 20, 0x3000 + (1 << 20));
        assert_eq!(f.stats().mab_hits, 0);
    }

    #[test]
    fn way_memo_survives_eviction_soundly() {
        // Fill a set with conflicting lines and make sure stale MAB pairs
        // never produce a wrong known-way access (debug_assert would fire).
        let g = Geometry::new(4, 2, 16).unwrap();
        let mut f = DScheme::WayMemo {
            tag_entries: 2,
            set_entries: 4,
        }
        .build(g);
        // Three lines mapping to set 0: 0x000, 0x040, 0x080.
        for round in 0..8u32 {
            for base in [0x000u32, 0x040, 0x080] {
                f.access(round % 2 == 0, base, 0, base);
            }
        }
        assert!(f.stats().is_consistent());
    }

    #[test]
    fn mab_claims_always_match_cache_residency() {
        let g = Geometry::new(16, 2, 16).unwrap();
        let mut f = DScheme::WayMemo {
            tag_entries: 2,
            set_entries: 8,
        }
        .build(g);
        let mut x: u32 = 0x1234_5678;
        for i in 0..4000u32 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let base = (x >> 8) & 0xfff0;
            let disp = ((x & 0xff) as i32) - 128;
            let addr = base.wrapping_add(disp as u32);
            f.access(i % 3 == 0, base, disp, addr);
            if let Some(mab) = f.mab.as_ref() {
                for (set, way, tag) in mab.claims() {
                    assert_eq!(
                        f.cache.resident_way(tag, set),
                        Some(way),
                        "stale MAB claim at iteration {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn set_buffer_exploits_same_set_locality() {
        let mut f = DScheme::SetBuffer { entries: 1 }.build(geom());
        f.access(false, 0x4000, 0, 0x4000); // miss, buffer refilled
        f.access(false, 0x4000, 4, 0x4004); // same set -> way known
        let s = f.stats();
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(s.tag_reads, 2, "second access needed no tag read");
    }

    #[test]
    fn set_buffer_cannot_exploit_cross_set_locality() {
        let mut f = DScheme::SetBuffer { entries: 1 }.build(geom());
        // Alternate between two sets: single-entry buffer thrashes.
        for i in 0..10 {
            let addr = if i % 2 == 0 { 0x4000 } else { 0x4020 };
            f.access(false, addr, 0, addr);
        }
        assert_eq!(f.stats().buffer_hits, 0);
        // The MAB, by contrast, covers both lines at once.
        let mut m = DScheme::paper_way_memo().build(geom());
        for i in 0..10 {
            let addr = if i % 2 == 0 { 0x4000 } else { 0x4020 };
            m.access(false, addr, 0, addr);
        }
        assert_eq!(m.stats().mab_hits, 8);
    }

    #[test]
    fn way_predict_penalizes_mispredictions() {
        let mut f = DScheme::WayPredict.build(geom());
        // Two conflicting lines in one set: alternating accesses make the
        // MRU prediction always wrong.
        let stride = 512 * 32;
        f.access(false, 0x0, 0, 0x0);
        f.access(false, stride, 0, stride);
        let before = f.extra_cycles();
        f.access(false, 0x0, 0, 0x0);
        f.access(false, stride, 0, stride);
        assert_eq!(f.extra_cycles(), before + 2);
        // A repeated access predicts correctly: no new penalty.
        f.access(false, stride, 0, stride);
        assert_eq!(f.extra_cycles(), before + 2);
    }

    #[test]
    fn two_phase_costs_a_cycle_every_access() {
        let mut f = DScheme::TwoPhase.build(geom());
        for i in 0..5 {
            f.access(false, 0x100 * i, 0, 0x100 * i);
        }
        assert_eq!(f.extra_cycles(), 5);
        let s = f.stats();
        assert_eq!(s.tag_reads, 10);
        // 1 way per access + fills.
        assert!(s.way_reads >= 5);
    }

    #[test]
    fn line_buffer_hybrid_eliminates_array_access_on_lb_hit() {
        let mut f = DScheme::WayMemoLineBuffer {
            tag_entries: 2,
            set_entries: 8,
            line_entries: 1,
        }
        .build(geom());
        f.access(false, 0x5000, 0, 0x5000);
        let before = f.stats();
        f.access(false, 0x5000, 4, 0x5004); // line-buffer hit
        let s = f.stats();
        assert_eq!(s.tag_reads, before.tag_reads);
        assert_eq!(s.way_reads, before.way_reads, "no way access either");
        assert_eq!(s.buffer_hits, before.buffer_hits + 1);
    }

    #[test]
    fn filter_cache_hits_cost_no_arrays_but_misses_cost_cycles() {
        let mut f = DScheme::FilterCache { lines: 2 }.build(geom());
        f.access(false, 0x1000, 0, 0x1000); // L0 miss: +1 cycle, full L1
        assert_eq!(f.extra_cycles(), 1);
        let before = f.stats();
        f.access(false, 0x1000, 4, 0x1004); // L0 hit
        let s = f.stats();
        assert_eq!(s.tag_reads, before.tag_reads);
        assert_eq!(s.way_reads, before.way_reads);
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(f.extra_cycles(), 1, "hits cost no cycle");
    }

    #[test]
    fn filter_cache_stores_write_through_and_invalidate_l0() {
        let mut f = DScheme::FilterCache { lines: 1 }.build(geom());
        f.access(false, 0x2000, 0, 0x2000); // load fills L0
        f.access(true, 0x2000, 4, 0x2004); // store invalidates the L0 copy
        let cycles = f.extra_cycles();
        f.access(false, 0x2000, 8, 0x2008); // must re-fetch into L0
        assert_eq!(f.extra_cycles(), cycles + 1);
    }

    /// The counterexample to the paper's §3.3 consistency argument: MAB
    /// row recency is global while cache LRU is per set, so a row kept
    /// alive by an access to a *different* set can outlive its line.
    fn paper_lru_counterexample(f: &mut DFront) {
        let g = f.cache().geometry();
        let low = g.low_bits();
        let a = |tag: u32, set: u32| (tag << low) | (set << g.offset_bits());
        f.access(false, a(1, 0), 0, a(1, 0)); // T1 -> set0 way0
        f.access(false, a(2, 0), 0, a(2, 0)); // T2 -> set0 way1
        f.access(false, a(1, 1), 0, a(1, 1)); // touches MAB row T1 via set1
        f.access(false, a(3, 0), 0, a(3, 0)); // evicts T1 from set0 way0
        f.access(false, a(1, 0), 0, a(1, 0)); // stale pair (T1, set0) -> way0
    }

    #[test]
    fn paper_lru_mode_exhibits_unsound_hits() {
        let g = Geometry::new(4, 2, 16).unwrap();
        let mut f = DScheme::WayMemoPaperLru {
            tag_entries: 2,
            set_entries: 4,
        }
        .build(g);
        paper_lru_counterexample(&mut f);
        assert_eq!(
            f.stats().unsound_hits,
            1,
            "the LRU argument must fail on this interleaving"
        );
    }

    #[test]
    fn precise_mode_survives_the_same_counterexample() {
        let g = Geometry::new(4, 2, 16).unwrap();
        let mut f = DScheme::WayMemo {
            tag_entries: 2,
            set_entries: 4,
        }
        .build(g);
        paper_lru_counterexample(&mut f); // known-way debug asserts active
        assert_eq!(f.stats().unsound_hits, 0);
        assert!(f.stats().is_consistent());
    }

    #[test]
    fn energy_counts_mirror_stats() {
        let mut f = DScheme::paper_way_memo().build(geom());
        for i in 0..50u32 {
            f.access(i % 4 == 0, 0x8000 + (i % 8) * 64, 4, 0x8004 + (i % 8) * 64);
        }
        let e = f.energy_counts(1000);
        let s = f.stats();
        assert_eq!(e.way_reads, s.way_reads);
        assert_eq!(e.tag_reads, s.tag_reads);
        assert_eq!(e.mab_lookups, s.accesses);
        assert_eq!(e.cycles, 1000);
    }

    #[test]
    fn scheme_names_are_distinct() {
        let schemes = [
            DScheme::Original,
            DScheme::SetBuffer { entries: 1 },
            DScheme::paper_way_memo(),
            DScheme::WayPredict,
            DScheme::TwoPhase,
        ];
        let names: std::collections::HashSet<_> =
            schemes.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), schemes.len());
    }
}
