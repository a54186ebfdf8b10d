//! Property-based tests for the cache substrate: equivalence with a naive
//! LRU reference model, transparency to main memory, inclusion/LRU
//! invariants and accounting consistency under random access streams, and
//! main memory against a plain byte map.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use waymem_cache::{
    AccessKind, AccessOutcome, EvictedLine, Geometry, LruOrder, MainMemory, SetAssocCache,
};

/// A way of the reference cache and the line it holds as `(tag, dirty)`,
/// or `None` while the way has never been filled.
type RefWay = (u32, Option<(u32, bool)>);

/// The reference write-back LRU cache: per set, every way in recency
/// order, most recent first.
struct RefCache {
    geom: Geometry,
    sets: Vec<Vec<RefWay>>,
    fills: u64,
    write_backs: u64,
}

impl RefCache {
    fn new(geom: Geometry) -> Self {
        // Way 0 starts least recently used, so it fills first.
        let fresh: Vec<_> = (0..geom.ways()).rev().map(|way| (way, None)).collect();
        Self {
            geom,
            sets: vec![fresh; geom.sets() as usize],
            fills: 0,
            write_backs: 0,
        }
    }

    fn access(&mut self, addr: u32, store: bool) -> AccessOutcome {
        let (index, tag) = (self.geom.index_of(addr), self.geom.tag_of(addr));
        let set = &mut self.sets[index as usize];
        let found = set
            .iter()
            .position(|&(_, line)| matches!(line, Some((t, _)) if t == tag));
        let (way, line) = set.remove(found.unwrap_or(set.len() - 1));
        let mut evicted = None;
        let dirty = match (found, line) {
            (Some(_), Some((_, dirty))) => dirty || store,
            _ => {
                if let Some((old, dirty)) = line {
                    evicted = Some(EvictedLine {
                        tag: old,
                        index,
                        way,
                        dirty,
                    });
                    self.write_backs += u64::from(dirty);
                }
                self.fills += 1;
                store
            }
        };
        set.insert(0, (way, Some((tag, dirty))));
        AccessOutcome {
            hit: found.is_some(),
            way,
            index,
            mru_hit: found == Some(0),
            evicted,
        }
    }
}

fn geometries() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        Just(Geometry::new(4, 1, 8).unwrap()),
        Just(Geometry::new(4, 2, 16).unwrap()),
        Just(Geometry::new(16, 4, 32).unwrap()),
        Just(Geometry::new(8, 8, 16).unwrap()),
        Just(Geometry::new(4, 16, 16).unwrap()),
    ]
}

/// A main-memory address biased toward the edges of its storage: page
/// straddles below and above 1 MiB, the 1 MiB boundary between the page
/// table and the map, and the top of the address space, where accesses
/// wrap to 0.
fn memory_addrs() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        (0u32..256, 4093u32..4096).prop_map(|(page, off)| (page << 12) | off),
        0x4_0ffdu32..=0x4_1003,
        0xf_fffdu32..=0x10_0003,
        0x8000_0ffdu32..=0x8000_1003,
        0xffff_fffdu32..=0xffff_ffff,
        0u32..=3,
    ]
}

proptest! {
    /// Main memory reads and writes like a plain byte map: unwritten bytes
    /// read 0, values are little-endian at any alignment, and addresses
    /// wrap. A page is resident exactly when a byte of it was written.
    #[test]
    fn memory_matches_a_byte_map(
        ops in prop::collection::vec(
            (memory_addrs(), 0u32..3, any::<u32>(), any::<bool>()),
            1..300,
        ),
    ) {
        let mut mem = MainMemory::new();
        let mut model: HashMap<u32, u8> = HashMap::new();
        for (addr, width, value, is_write) in ops {
            let bytes = 1u32 << width;
            if is_write {
                match bytes {
                    1 => mem.write_u8(addr, value as u8),
                    2 => mem.write_u16(addr, value as u16),
                    _ => mem.write_u32(addr, value),
                }
                for (i, b) in (0..bytes).zip(value.to_le_bytes()) {
                    model.insert(addr.wrapping_add(i), b);
                }
            } else {
                let want = (0..bytes).fold(0u32, |word, i| {
                    let b = model.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
                    word | (u32::from(b) << (8 * i))
                });
                let got = match bytes {
                    1 => u32::from(mem.read_u8(addr)),
                    2 => u32::from(mem.read_u16(addr)),
                    _ => mem.read_u32(addr),
                };
                prop_assert_eq!(got, want, "{}-byte read at {:#010x}", bytes, addr);
            }
        }
        for (&addr, &b) in &model {
            prop_assert_eq!(mem.read_u8(addr), b, "byte at {:#010x}", addr);
        }
        let pages: HashSet<u32> = model.keys().map(|addr| addr >> 12).collect();
        prop_assert_eq!(mem.resident_pages(), pages.len());
    }

    /// The tag-only cache decides every access exactly as the naive
    /// recency-list model does: hit, way, evicted line and its dirty bit,
    /// the fill and write-back counts, and the final tags and recency.
    #[test]
    fn cache_matches_reference_lru_model(
        geom in geometries(),
        ops in prop::collection::vec((any::<u16>(), any::<bool>()), 1..400),
    ) {
        let mut cache = SetAssocCache::new(geom);
        let mut mem = MainMemory::new();
        let mut model = RefCache::new(geom);
        let span = (4 * geom.capacity_bytes()) as u32;
        for (a, store) in ops {
            let addr = u32::from(a) % span;
            let kind = if store { AccessKind::Store } else { AccessKind::Load };
            prop_assert_eq!(cache.access(addr, kind, &mut mem), model.access(addr, store));
        }
        prop_assert_eq!((cache.fills(), cache.write_backs()), (model.fills, model.write_backs));
        prop_assert_eq!((mem.block_reads(), mem.block_writes()), (model.fills, model.write_backs));
        prop_assert_eq!(mem.resident_pages(), 0, "counting line transfers stores no byte");
        for (index, set) in (0u32..).zip(&model.sets) {
            prop_assert_eq!(cache.mru_way(index), set[0].0);
            prop_assert_eq!(cache.victim_way(index), set[set.len() - 1].0);
            for &(way, line) in set {
                prop_assert_eq!(cache.tag_at(index, way), line.map(|(tag, _)| tag));
            }
        }
    }

    /// The CPU's data lives in main memory and the tag-only cache moves no
    /// bytes: for any interleaving of loads and stores, the memory behind
    /// the cache reads exactly as a flat memory with no cache does, before
    /// and after a final flush, while every fill and write-back is counted
    /// as one line transfer.
    #[test]
    fn cache_is_functionally_transparent(
        geom in geometries(),
        ops in prop::collection::vec((any::<u16>(), any::<u32>(), any::<bool>()), 1..300),
    ) {
        let mut cache = SetAssocCache::new(geom);
        let mut mem = MainMemory::new();
        let mut flat = MainMemory::new();
        let mut model: HashMap<u32, u32> = HashMap::new();
        for (addr16, value, is_store) in ops {
            let addr = u32::from(addr16) & !3;
            if is_store {
                cache.access(addr, AccessKind::Store, &mut mem);
                mem.write_u32(addr, value);
                flat.write_u32(addr, value);
                model.insert(addr, value);
            } else {
                cache.access(addr, AccessKind::Load, &mut mem);
                let want = model.get(&addr).copied().unwrap_or(0);
                prop_assert_eq!(mem.read_u32(addr), want);
                prop_assert_eq!(flat.read_u32(addr), want);
            }
            prop_assert!(cache.probe(addr).is_some(), "line resident after access");
            prop_assert_eq!(mem.block_reads(), cache.fills());
            prop_assert_eq!(mem.block_writes(), cache.write_backs());
        }
        let before = cache.write_backs();
        let flushed = cache.flush(&mut mem);
        prop_assert_eq!(cache.write_backs(), before + flushed);
        prop_assert_eq!(mem.block_writes(), cache.write_backs());
        prop_assert_eq!(cache.flush(&mut mem), 0);
        for (&addr, &value) in &model {
            prop_assert_eq!(mem.read_u32(addr), value);
        }
        prop_assert_eq!(mem.resident_pages(), flat.resident_pages());
    }

    /// The number of resident lines never exceeds capacity, and a probe
    /// after an access always finds the line.
    #[test]
    fn residency_invariants(
        geom in geometries(),
        addrs in prop::collection::vec(any::<u16>(), 1..200),
    ) {
        let mut cache = SetAssocCache::new(geom);
        let mut mem = MainMemory::new();
        let capacity = u64::from(geom.sets()) * u64::from(geom.ways());
        for addr16 in addrs {
            let addr = u32::from(addr16);
            let out = cache.access(addr, AccessKind::Load, &mut mem);
            prop_assert_eq!(cache.probe(addr), Some(out.way));
            prop_assert!(cache.resident_lines() <= capacity);
            prop_assert_eq!(out.index, geom.index_of(addr));
        }
    }

    /// Evictions only happen in the accessed set and report the true
    /// former occupant.
    #[test]
    fn evictions_are_local_and_accurate(
        addrs in prop::collection::vec(any::<u16>(), 1..200),
    ) {
        let geom = Geometry::new(4, 2, 16).unwrap();
        let mut cache = SetAssocCache::new(geom);
        let mut mem = MainMemory::new();
        let mut resident: HashMap<(u32, u32), u32> = HashMap::new(); // (set, way) -> tag
        for addr16 in addrs {
            let addr = u32::from(addr16);
            let out = cache.access(addr, AccessKind::Load, &mut mem);
            if let Some(ev) = out.evicted {
                prop_assert_eq!(ev.index, out.index, "eviction outside accessed set");
                prop_assert_eq!(ev.way, out.way);
                let prior = resident.get(&(ev.index, ev.way)).copied();
                prop_assert_eq!(prior, Some(ev.tag), "evicted tag mismatch");
            }
            resident.insert((out.index, out.way), geom.tag_of(addr));
        }
    }

    /// LruOrder::touch keeps `iter()` a permutation and `victim`/`mru`
    /// coherent with it.
    #[test]
    fn lru_is_always_a_permutation(
        n in 1usize..16,
        touches in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        let mut lru = LruOrder::new(n);
        for t in touches {
            lru.touch(usize::from(t) % n);
            let mut seen: Vec<usize> = lru.iter().collect();
            prop_assert_eq!(seen.len(), n);
            prop_assert_eq!(lru.mru(), seen[0]);
            prop_assert_eq!(lru.victim(), *seen.last().unwrap());
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }

    /// Fill counts equal miss counts: every miss fills exactly one line.
    #[test]
    fn fills_equal_misses(addrs in prop::collection::vec(any::<u16>(), 1..200)) {
        let geom = Geometry::new(8, 2, 16).unwrap();
        let mut cache = SetAssocCache::new(geom);
        let mut mem = MainMemory::new();
        let mut misses = 0u64;
        for addr16 in addrs {
            let out = cache.access(u32::from(addr16), AccessKind::Load, &mut mem);
            if !out.hit {
                misses += 1;
            }
        }
        prop_assert_eq!(cache.fills(), misses);
        prop_assert_eq!(mem.block_reads(), misses);
    }
}
