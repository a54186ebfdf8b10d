//! The lookup core each front-end owns: its tag-only cache, the memory
//! that counts the cache's line transfers, the scheme's counters and the
//! MAB when the scheme has one. The crate's accounting rules are applied
//! here, once for both sides; a front adds only its own structures and
//! decides which rule each access takes.

use waymem_cache::{AccessKind, AccessOutcome, AccessStats, Geometry, MainMemory, SetAssocCache};
use waymem_core::{Mab, MabConfig, MabLookup, MabStats};
use waymem_hwmodel::MabShape;

#[derive(Debug)]
pub(super) struct Lookup {
    pub(super) geom: Geometry,
    pub(super) cache: SetAssocCache,
    mem: MainMemory,
    /// The counters kept per access: accesses, lookup activations, hits,
    /// unsound hits, and the I-front's intra-line skips and link hits.
    /// Misses, fill writes, write-backs and the MAB's counters are read
    /// from the cache and the MAB by [`stats`](Self::stats).
    pub(super) stats: AccessStats,
    pub(super) mab: Option<Mab>,
    /// The §3.3 audit: fills leave the MAB alone, and every MAB hit is
    /// checked against residency.
    audit: bool,
}

impl Lookup {
    /// A cold cache of shape `geom`, behind a MAB of `(tag_entries,
    /// set_entries)` when given.
    ///
    /// # Panics
    ///
    /// Panics if the MAB's entry counts are invalid (zero or > 64).
    pub(super) fn new(geom: Geometry, mab: Option<(usize, usize)>, audit: bool) -> Self {
        let mab = mab.map(|(tags, sets)| {
            Mab::new(MabConfig::new(geom, tags, sets).expect("valid MAB config"))
        });
        Lookup {
            geom,
            cache: SetAssocCache::new(geom),
            mem: MainMemory::new(),
            stats: AccessStats::new(),
            mab,
            audit,
        }
    }

    /// The cache access behind every lookup, charged `tags` tag reads and
    /// `ways` way activations. A fill drops the MAB pairs naming the
    /// refilled location, except under the audit.
    pub(super) fn access(
        &mut self,
        kind: AccessKind,
        addr: u32,
        tags: u64,
        ways: u64,
    ) -> AccessOutcome {
        self.stats.tag_reads += tags;
        self.stats.way_reads += ways;
        let out = self.cache.access(addr, kind, &mut self.mem);
        if out.hit {
            self.stats.hits += 1;
        } else if !self.audit {
            if let Some(mab) = self.mab.as_mut() {
                mab.invalidate_location(out.index, out.way);
            }
        }
        out
    }

    /// A conventional lookup: every tag, and every way for a read or one
    /// way for a store.
    pub(super) fn conventional(&mut self, kind: AccessKind, addr: u32) -> AccessOutcome {
        let w = u64::from(self.geom.ways());
        let ways = if kind == AccessKind::Store { 1 } else { w };
        self.access(kind, addr, w, ways)
    }

    /// A known-way access (a MAB, set buffer, link or BTB hit): no tag,
    /// one way.
    pub(super) fn known_way(&mut self, kind: AccessKind, addr: u32, way: u32) -> AccessOutcome {
        debug_assert_eq!(
            self.cache.probe(addr),
            Some(way),
            "known-way access must target a resident line"
        );
        self.access(kind, addr, 0, 1)
    }

    /// The MAB path for `addr = base + disp`: a hit is a known-way
    /// access, a miss a conventional lookup whose way is then recorded,
    /// and a wide displacement a conventional lookup past the MAB. Under
    /// the audit, a hit on a line no longer resident counts as unsound
    /// (in hardware it would have returned wrong data) and is served as
    /// a miss.
    pub(super) fn mab_access(
        &mut self,
        kind: AccessKind,
        addr: u32,
        base: u32,
        disp: i32,
    ) -> AccessOutcome {
        let mab = self.mab.as_mut().expect("scheme has a MAB");
        match mab.lookup(base, disp) {
            MabLookup::Hit { way, set_index, .. } => {
                debug_assert_eq!(set_index, self.geom.index_of(addr));
                if !self.audit || self.cache.probe(addr) == Some(way) {
                    return self.known_way(kind, addr, way);
                }
                self.stats.unsound_hits += 1;
            }
            MabLookup::Miss { .. } => {}
            MabLookup::Wide => return self.conventional(kind, addr),
        }
        let out = self.conventional(kind, addr);
        let mab = self.mab.as_mut().expect("scheme has a MAB");
        mab.record(base, disp, out.way);
        out
    }

    /// The counters so far: those kept per access, plus misses, one fill
    /// write per miss and write-backs as the cache counted them, and the
    /// MAB's lookups (wide bypasses included) and hits.
    pub(super) fn stats(&self) -> AccessStats {
        let mut s = self.stats;
        s.misses = self.cache.fills();
        s.way_reads += self.cache.fills();
        s.write_backs = self.cache.write_backs();
        if let Some(m) = self.mab_stats() {
            s.mab_lookups = m.lookups + m.wide_bypasses;
            s.mab_hits = m.hits;
        }
        s
    }

    pub(super) fn mab_stats(&self) -> Option<MabStats> {
        self.mab.as_ref().map(Mab::stats)
    }

    pub(super) fn mab_shape(&self) -> Option<MabShape> {
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
