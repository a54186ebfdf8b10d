//! D-cache front-ends (paper Figures 4–5 plus ablations).
//!
//! The chain's cache pass turns each load or store into one outcome, and
//! each D scheme applies its rule to it: which tags and ways the access
//! activates, and what its own set buffer, line buffer or MAB learns. A
//! scheme reads the cache only through the outcome: hit, way and set, the
//! line a fill displaced and its dirty bit, and whether a hit was on the
//! set's most recently used way.

use waymem_cache::{
    AccessKind, AccessOutcome, AccessStats, Geometry, LineBuffer, MainMemory, SetAssocCache,
    SetBuffer, SetBufferLookup,
};
use waymem_core::MabStats;
use waymem_hwmodel::{EnergyCounts, MabShape};
use waymem_isa::{TraceEvent, TraceSink};

use super::lookup::{Chain, Front, Lookup, WINDOW};

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

    /// Five loads, each its own base (displacement 0), that break the
    /// paper's §3.3 consistency argument on a 2-way cache of `geom`: MAB
    /// row recency is global while cache LRU is per set, so a row kept
    /// alive by an access to a *different* set can outlive its line.
    /// Under [`DScheme::WayMemoPaperLru`] the last load is an unsound hit.
    #[must_use]
    pub fn lru_counterexample(geom: Geometry) -> [u32; 5] {
        let a = |tag: u32, set: u32| (tag << geom.low_bits()) | (set << geom.offset_bits());
        // T1 -> set0 way0; T2 -> set0 way1; T1 through set1 refreshes MAB
        // row T1; T3 evicts T1 from set0 way0; the stale pair (T1, set0).
        [a(1, 0), a(2, 0), a(1, 1), a(3, 0), a(1, 0)]
    }

    /// Builds the front-end over a cache shaped by `geom`: a replay chain
    /// of one.
    ///
    /// # Panics
    ///
    /// Panics if a MAB scheme's entry counts are invalid (zero or > 64),
    /// or if a set buffer, line buffer or filter cache has zero entries
    /// (or more than 64).
    #[must_use]
    pub fn build(self, geom: Geometry) -> DFront {
        DFront(Chain::new(geom, vec![self.rule(geom)]))
    }

    /// The scheme's rule, with its own structures, for a chain over a
    /// cache shaped by `geom`.
    pub(crate) fn rule(self, geom: Geometry) -> DRule {
        let (mab, set_buffer, line_buffer) = match self {
            DScheme::WayMemo { tag_entries, set_entries }
            | DScheme::WayMemoPaperLru { tag_entries, set_entries } => {
                (Some((tag_entries, set_entries)), None, None)
            }
            DScheme::WayMemoLineBuffer { tag_entries, set_entries, line_entries } => {
                (Some((tag_entries, set_entries)), None, Some(LineBuffer::new(geom, line_entries)))
            }
            DScheme::SetBuffer { entries } => (None, Some(SetBuffer::new(entries)), None),
            DScheme::FilterCache { lines } => (None, None, Some(LineBuffer::new(geom, lines))),
            DScheme::Original | DScheme::WayPredict | DScheme::TwoPhase => (None, None, None),
        };
        let audit = matches!(self, DScheme::WayMemoPaperLru { .. });
        let core = Lookup::new(geom, mab, audit);
        DRule { scheme: self, core, set_buffer, line_buffer, extra_cycles: 0 }
    }
}

/// One load or store as the chain's cache saw it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DAccess {
    kind: AccessKind,
    base: u32,
    disp: i32,
    addr: u32,
    out: AccessOutcome,
}

/// One D scheme's rule and the structures it keeps beside the chain's
/// cache: its lookup core, and its set buffer, line buffer or L0.
#[derive(Debug)]
pub(crate) struct DRule {
    pub(crate) scheme: DScheme,
    pub(crate) core: Lookup,
    set_buffer: Option<SetBuffer>,
    line_buffer: Option<LineBuffer>,
    pub(crate) extra_cycles: u64,
}

impl Front for DRule {
    type Outcome = DAccess;
    type Carry = ();

    /// One outcome per load or store; fetches are skipped.
    fn outcomes(
        cache: &mut SetAssocCache,
        mem: &mut MainMemory,
        (): &mut (),
        events: &[TraceEvent],
        window: &mut Vec<DAccess>,
    ) -> usize {
        for (i, &e) in events.iter().enumerate() {
            let (kind, base, disp, addr) = match e {
                TraceEvent::Load { base, disp, addr, .. } => (AccessKind::Load, base, disp, addr),
                TraceEvent::Store { base, disp, addr, .. } => (AccessKind::Store, base, disp, addr),
                TraceEvent::Fetch { .. } => continue,
            };
            if window.len() == WINDOW {
                return i;
            }
            let out = cache.access(addr, kind, mem);
            window.push(DAccess { kind, base, disp, addr, out });
        }
        events.len()
    }

    fn apply(&mut self, window: &[DAccess]) {
        for a in window {
            self.access(a);
        }
    }
}

impl DRule {
    /// Applies the scheme to one access.
    fn access(&mut self, a: &DAccess) {
        let (kind, out) = (a.kind, &a.out);
        let core = &mut self.core;
        core.stats.accesses += 1;
        match self.scheme {
            DScheme::Original => core.conventional(kind, out),
            DScheme::WayMemo { .. } | DScheme::WayMemoPaperLru { .. } => {
                core.mab_access(kind, out, a.base, a.disp);
            }
            DScheme::SetBuffer { .. } => {
                let sb = self.set_buffer.as_mut().expect("scheme has set buffer");
                core.buffer_probes += 1;
                let resident = out.hit.then_some(out.way);
                if let SetBufferLookup::WayKnown(way) = sb.lookup(out.index, resident) {
                    core.stats.buffer_hits += 1;
                    core.known_way(out, way);
                } else {
                    core.conventional(kind, out);
                    // Refresh the buffered copy of this set from the cache's tag row.
                    sb.refill(out.index);
                }
            }
            DScheme::FilterCache { .. } => {
                let l0 = self.line_buffer.as_mut().expect("scheme has L0");
                core.buffer_probes += u64::from(kind == AccessKind::Load);
                if kind == AccessKind::Store {
                    // Write-through past the L0; keep the L0 coherent.
                    l0.invalidate_line(a.addr);
                    core.conventional(kind, out);
                } else if let Some(way) = l0.lookup(a.addr) {
                    // Served entirely from the L0: buffer energy only.
                    // (L0 ⊆ L1 is maintained by eviction invalidation.)
                    debug_assert!(out.hit && out.way == way);
                    core.stats.buffer_hits += 1;
                    core.access(out, 0, 0);
                } else {
                    // L0 miss: the extra cycle the paper's §2 criticizes.
                    self.extra_cycles += 1;
                    core.conventional(kind, out);
                    l0.record(a.addr, out.way);
                }
            }
            DScheme::WayMemoLineBuffer { .. } => {
                let lb = self.line_buffer.as_mut().expect("scheme has line buffer");
                core.buffer_probes += u64::from(kind == AccessKind::Load);
                let buffered = if kind == AccessKind::Store { None } else { lb.lookup(a.addr) };
                if let Some(way) = buffered {
                    // Served from the line buffer: no array activation.
                    debug_assert!(out.hit && out.way == way);
                    core.stats.buffer_hits += 1;
                    core.access(out, 0, 0);
                } else {
                    core.mab_access(kind, out, a.base, a.disp);
                    // Memoize the line for subsequent loads.
                    lb.record(a.addr, out.way);
                }
            }
            DScheme::WayPredict => {
                if out.mru_hit {
                    // A correct guess reads one tag and one way.
                    core.access(out, 1, 1);
                } else {
                    // Misprediction: the remaining ways follow a cycle
                    // later, which adds up to a conventional lookup.
                    self.extra_cycles += 1;
                    core.conventional(kind, out);
                }
            }
            DScheme::TwoPhase => {
                // Phase 1: all tags; phase 2: exactly one way. Always an
                // extra cycle.
                self.extra_cycles += 1;
                core.access(out, u64::from(core.geom.ways()), 1);
            }
        }
        // A buffered copy of the line a fill displaced is now stale.
        if let (Some(ev), Some(lb)) = (out.evicted, self.line_buffer.as_mut()) {
            lb.invalidate_line(self.core.geom.line_addr(ev.tag, ev.index));
        }
    }
}

/// A trace-driven D-cache model under one scheme: a replay chain of one.
/// Its cache is driven purely by the address stream (the CPU's
/// architectural data lives elsewhere) and tracks exactly the residency,
/// LRU and dirty state the energy accounting needs.
#[derive(Debug)]
pub struct DFront(Chain<DRule>);

impl DFront {
    fn rule(&self) -> &DRule {
        &self.0.fronts[0]
    }

    /// The scheme this front-end models.
    #[must_use]
    pub fn scheme(&self) -> DScheme {
        self.rule().scheme
    }

    /// Feeds one load/store into the model.
    pub fn access(&mut self, is_store: bool, base: u32, disp: i32, addr: u32) {
        let size = 4;
        self.replay(&[if is_store {
            TraceEvent::Store { base, disp, addr, size }
        } else {
            TraceEvent::Load { base, disp, addr, size }
        }]);
    }

    /// Replays a recorded trace slice into the model: loads and stores are
    /// consumed in program order, fetch events are skipped. This is the
    /// engine's own chain code — the cache pass of each window, then the
    /// scheme's rule — that [`crate::Experiment::run`] drives.
    pub fn replay(&mut self, events: &[TraceEvent]) {
        self.0.replay(events);
    }

    /// Accounting so far. Buffer hits are set-buffer, line-buffer and L0
    /// hits; for MAB schemes the `mab_*` counters are the MAB's.
    #[must_use]
    pub fn stats(&self) -> AccessStats {
        self.rule().core.stats()
    }

    /// Raw MAB statistics (MAB schemes only).
    #[must_use]
    pub fn mab_stats(&self) -> Option<MabStats> {
        self.rule().core.mab_stats()
    }

    /// The MAB's hardware shape for area/power models (MAB schemes only).
    #[must_use]
    pub fn mab_shape(&self) -> Option<MabShape> {
        self.rule().core.mab_shape()
    }

    /// Cycles added by schemes with lookup penalties (way prediction,
    /// two-phase); zero for the others — the paper's "no performance
    /// penalty" claim is that this is zero for way memoization.
    #[must_use]
    pub fn extra_cycles(&self) -> u64 {
        self.rule().extra_cycles
    }

    /// Converts the counters into hwmodel inputs. `cycles` is the run's
    /// instruction count (CPI 1).
    #[must_use]
    pub fn energy_counts(&self, cycles: u64) -> EnergyCounts {
        self.rule().core.energy_counts(cycles)
    }
}

/// A D-front is itself a [`TraceSink`]: loads/stores feed the model,
/// fetches are ignored, and the batched [`TraceSink::events`] entry point
/// is [`DFront::replay`] — the path the record/replay engine drives.
impl TraceSink for DFront {
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

    /// Feeds `accesses` to `f` and checks after every one that each MAB
    /// pair names the way its line is resident in.
    fn assert_claims_resident(
        f: &mut DFront,
        accesses: impl IntoIterator<Item = (bool, u32, i32, u32)>,
        what: &str,
    ) {
        for (i, (is_store, base, disp, addr)) in accesses.into_iter().enumerate() {
            f.access(is_store, base, disp, addr);
            let mab = f.rule().core.mab.as_ref().expect("MAB scheme");
            for (set, way, tag) in mab.claims() {
                let resident = f.0.cache.resident_way(tag, set);
                assert_eq!(resident, Some(way), "{what}: stale MAB claim at access {i}");
            }
        }
    }

    #[test]
    fn mab_claims_always_match_cache_residency() {
        let g = Geometry::new(16, 2, 16).unwrap();
        let mut f = DScheme::paper_way_memo().build(g);
        let mut x: u32 = 0x1234_5678;
        let accesses = (0..4000u32).map(|i| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let base = (x >> 8) & 0xfff0;
            let disp = ((x & 0xff) as i32) - 128;
            (i % 3 == 0, base, disp, base.wrapping_add(disp as u32))
        });
        assert_claims_resident(&mut f, accesses, "random stream");
    }

    #[test]
    fn mab_claims_match_cache_residency_on_every_kernel() {
        for bench in waymem_workloads::Benchmark::ALL {
            let trace = crate::record_trace(bench, &crate::SimConfig::default()).expect("records");
            let accesses = trace.data_events.iter().filter_map(|&e| match e {
                TraceEvent::Load { base, disp, addr, .. } => Some((false, base, disp, addr)),
                TraceEvent::Store { base, disp, addr, .. } => Some((true, base, disp, addr)),
                TraceEvent::Fetch { .. } => None,
            });
            for g in [geom(), Geometry::new(16, 2, 32).unwrap()] {
                let mut f = DScheme::paper_way_memo().build(g);
                assert_claims_resident(&mut f, accesses.clone(), &format!("{bench} on {g:?}"));
                assert!(f.stats().mab_hits > 0, "{bench} on {g:?}: the MAB hits on real code");
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

    fn paper_lru_counterexample(f: &mut DFront) {
        for addr in DScheme::lru_counterexample(f.0.cache.geometry()) {
            f.access(false, addr, 0, addr);
        }
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
