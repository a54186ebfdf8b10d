//! A reference model for the eight D-cache schemes, checked against
//! `DFront` on random geometries and load/store streams.
//!
//! Each reference front is restated from the paper's §2 and §3 and from
//! the `DScheme` docs, and it shares no code with the simulator's
//! front-ends: a list-based LRU cache with dirty bits, the naive
//! [`RefMab`], a set buffer that keeps the full tag-row copy Yang et al.
//! describe, and line buffers kept as recency lists. Every access reads
//! the reference cache once, on whichever path its scheme takes, so the
//! real fronts' shared-cache replay, their per-event `access` and any
//! split of a trace into batches must all give exactly the reference's
//! counters.

#[path = "../crates/core/tests/support/ref_mab.rs"]
mod ref_mab;

use proptest::prelude::*;
use ref_mab::RefMab;
use waymem::cache::{AccessStats, Geometry};
use waymem::core::{MabLookup, MabStats};
use waymem::hwmodel::EnergyCounts;
use waymem::isa::{FetchKind, TraceEvent};
use waymem::sim::{DFront, DScheme};

/// One line as the reference cache holds it: its tag and dirty bit.
type Line = Option<(u32, bool)>;

/// A write-back, write-allocate LRU cache as explicit lists: per set,
/// every way with the line it holds, most recently used first. Way 0
/// starts least recently used, so an empty set fills way 0 first.
struct RefCache {
    geom: Geometry,
    sets: Vec<Vec<(u32, Line)>>,
}

/// What one read of the reference cache did.
struct Read {
    hit: bool,
    way: u32,
    /// The line a fill displaced: its tag and dirty bit.
    evicted: Option<(u32, bool)>,
}

impl RefCache {
    fn new(geom: Geometry) -> Self {
        let set: Vec<(u32, Line)> = (0..geom.ways()).rev().map(|w| (w, None)).collect();
        RefCache {
            geom,
            sets: vec![set; geom.sets() as usize],
        }
    }

    /// The way `addr`'s line is resident in, if it is.
    fn resident(&self, addr: u32) -> Option<u32> {
        let tag = self.geom.tag_of(addr);
        self.sets[self.geom.index_of(addr) as usize]
            .iter()
            .find(|(_, line)| line.is_some_and(|(t, _)| t == tag))
            .map(|&(way, _)| way)
    }

    /// Whether `addr`'s line is resident in its set's most recently used
    /// way.
    fn in_mru_way(&self, addr: u32) -> bool {
        let tag = self.geom.tag_of(addr);
        self.sets[self.geom.index_of(addr) as usize][0]
            .1
            .is_some_and(|(t, _)| t == tag)
    }

    /// The tag every way of `addr`'s set holds, by way.
    fn row(&self, addr: u32) -> Vec<Option<u32>> {
        let set = &self.sets[self.geom.index_of(addr) as usize];
        (0..self.geom.ways())
            .map(|w| {
                let (_, line) = set.iter().find(|(way, _)| *way == w).expect("every way");
                line.map(|(tag, _)| tag)
            })
            .collect()
    }

    /// Reads or writes `addr`'s line: a hit moves its way to the front, a
    /// miss refills the least recently used way, and a store dirties the
    /// line.
    fn access(&mut self, addr: u32, store: bool) -> Read {
        let tag = self.geom.tag_of(addr);
        let list = &mut self.sets[self.geom.index_of(addr) as usize];
        let found = list
            .iter()
            .position(|(_, line)| line.is_some_and(|(t, _)| t == tag));
        let (way, line) = list.remove(found.unwrap_or(list.len() - 1));
        let (evicted, dirty) = match (found, line) {
            (Some(_), Some((_, dirty))) => (None, dirty),
            (_, old) => (old, false),
        };
        list.insert(0, (way, Some((tag, dirty || store))));
        Read {
            hit: found.is_some(),
            way,
            evicted,
        }
    }
}

/// A fully associative LRU buffer of line bases and the way each was
/// resident in, most recently used first. Dropping a line empties its
/// entry, which keeps its place in the recency order.
struct RefLines {
    slots: Vec<Option<(u32, u32)>>,
    probes: u64,
    hits: u64,
}

impl RefLines {
    fn new(entries: usize) -> Self {
        RefLines {
            slots: vec![None; entries],
            probes: 0,
            hits: 0,
        }
    }

    fn probe(&mut self, line: u32) -> Option<u32> {
        self.probes += 1;
        let pos = self
            .slots
            .iter()
            .position(|s| s.is_some_and(|(l, _)| l == line))?;
        let entry = self.slots.remove(pos);
        self.slots.insert(0, entry);
        self.hits += 1;
        entry.map(|(_, way)| way)
    }

    /// Installs `line` in the entry it already has, else in the least
    /// recently used one.
    fn record(&mut self, line: u32, way: u32) {
        let pos = self
            .slots
            .iter()
            .position(|s| s.is_some_and(|(l, _)| l == line))
            .unwrap_or(self.slots.len() - 1);
        self.slots.remove(pos);
        self.slots.insert(0, Some((line, way)));
    }

    fn drop_line(&mut self, line: u32) {
        for slot in &mut self.slots {
            if slot.is_some_and(|(l, _)| l == line) {
                *slot = None;
            }
        }
    }
}

/// Yang et al.'s set buffer (\[14\]) as they describe it: a few recently
/// used sets, each with a copy of every way's tag, most recently used
/// first.
struct RefSetBuffer {
    slots: Vec<Option<(u32, Vec<Option<u32>>)>>,
    probes: u64,
    way_hits: u64,
}

/// One D-cache scheme as the paper and the `DScheme` docs state it.
/// Every access reads the cache once; the scheme decides which tags and
/// ways that read is charged, and what its own structures learn.
struct RefDFront {
    scheme: DScheme,
    geom: Geometry,
    cache: RefCache,
    mab: Option<RefMab>,
    /// The §3.3 audit: fills leave the MAB alone, and a MAB hit on a line
    /// no longer resident is counted and served as a miss.
    audit: bool,
    set_buffer: Option<RefSetBuffer>,
    lines: Option<RefLines>,
    stats: AccessStats,
    extra_cycles: u64,
}

impl RefDFront {
    fn new(scheme: DScheme, geom: Geometry) -> Self {
        let mab = match scheme {
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
            } => Some(RefMab::new(geom, tag_entries, set_entries)),
            _ => None,
        };
        let lines = match scheme {
            DScheme::FilterCache { lines: n }
            | DScheme::WayMemoLineBuffer {
                line_entries: n, ..
            } => Some(RefLines::new(n)),
            _ => None,
        };
        RefDFront {
            scheme,
            geom,
            cache: RefCache::new(geom),
            mab,
            audit: matches!(scheme, DScheme::WayMemoPaperLru { .. }),
            set_buffer: match scheme {
                DScheme::SetBuffer { entries } => Some(RefSetBuffer {
                    slots: vec![None; entries],
                    probes: 0,
                    way_hits: 0,
                }),
                _ => None,
            },
            lines,
            stats: AccessStats::default(),
            extra_cycles: 0,
        }
    }

    /// The one cache access of an access, charged `tags` tag reads and
    /// `ways` way activations. A miss adds the fill's write and a
    /// write-back of a dirty victim; the fill drops the MAB pairs naming
    /// the refilled location (except under the audit) and any buffered
    /// copy of the displaced line. Returns the way.
    fn read(&mut self, addr: u32, store: bool, tags: u64, ways: u64) -> Read {
        self.stats.tag_reads += tags;
        self.stats.way_reads += ways;
        let read = self.cache.access(addr, store);
        if read.hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            self.stats.way_reads += 1;
            let set = self.geom.index_of(addr);
            if let Some((tag, dirty)) = read.evicted {
                self.stats.write_backs += u64::from(dirty);
                if let Some(lines) = self.lines.as_mut() {
                    lines.drop_line(self.geom.line_addr(tag, set));
                }
            }
            if let (Some(mab), false) = (self.mab.as_mut(), self.audit) {
                mab.invalidate_location(set, read.way);
            }
        }
        read
    }

    /// A conventional lookup: every tag, and every way for a load but
    /// only the written way for a store.
    fn conventional(&mut self, addr: u32, store: bool) -> u32 {
        let w = u64::from(self.geom.ways());
        self.read(addr, store, w, if store { 1 } else { w }).way
    }

    /// An access whose way is already known: no tag, one way. The way must
    /// hold the line.
    fn known(&mut self, addr: u32, store: bool, way: u32) -> u32 {
        let read = self.read(addr, store, 0, 1);
        assert!(read.hit && read.way == way, "a known way must hold the line");
        way
    }

    /// A load served from a line buffer or L0: no tag, no way.
    fn buffered(&mut self, addr: u32, way: u32) {
        let read = self.read(addr, false, 0, 0);
        assert!(read.hit && read.way == way, "a buffered line must be resident");
    }

    fn access(&mut self, store: bool, base: u32, disp: i32, addr: u32) {
        self.stats.accesses += 1;
        let line = self.geom.line_base(addr);
        match self.scheme {
            DScheme::Original => {
                self.conventional(addr, store);
            }
            DScheme::WayMemo { .. } | DScheme::WayMemoPaperLru { .. } => {
                self.mab_access(store, base, disp, addr);
            }
            DScheme::SetBuffer { .. } => self.set_buffer_access(store, addr),
            DScheme::FilterCache { .. } => {
                if store {
                    // Write-through past the L0, which drops its copy.
                    self.lines.as_mut().expect("L0").drop_line(line);
                    self.conventional(addr, store);
                } else if let Some(way) = self.lines.as_mut().expect("L0").probe(line) {
                    self.buffered(addr, way);
                } else {
                    self.extra_cycles += 1;
                    let way = self.conventional(addr, store);
                    self.lines.as_mut().expect("L0").record(line, way);
                }
            }
            DScheme::WayMemoLineBuffer { .. } => {
                let hit = if store {
                    None
                } else {
                    self.lines.as_mut().expect("line buffer").probe(line)
                };
                if let Some(way) = hit {
                    self.buffered(addr, way);
                } else {
                    let way = self.mab_access(store, base, disp, addr);
                    self.lines.as_mut().expect("line buffer").record(line, way);
                }
            }
            DScheme::WayPredict => {
                if self.cache.in_mru_way(addr) {
                    self.read(addr, store, 1, 1);
                } else {
                    // The other ways follow a cycle later.
                    self.extra_cycles += 1;
                    self.conventional(addr, store);
                }
            }
            DScheme::TwoPhase => {
                self.extra_cycles += 1;
                self.read(addr, store, u64::from(self.geom.ways()), 1);
            }
        }
    }

    /// The MAB in front of the cache: a hit names the way, a miss looks
    /// up conventionally and memoizes the way, and a wide displacement
    /// goes past the MAB.
    fn mab_access(&mut self, store: bool, base: u32, disp: i32, addr: u32) -> u32 {
        let mab = self.mab.as_mut().expect("a MAB scheme");
        match mab.lookup(base, disp) {
            MabLookup::Hit { way, .. } => {
                if !self.audit || self.cache.resident(addr) == Some(way) {
                    return self.known(addr, store, way);
                }
                self.stats.unsound_hits += 1;
            }
            MabLookup::Miss { .. } => {}
            MabLookup::Wide => return self.conventional(addr, store),
        }
        let way = self.conventional(addr, store);
        self.mab.as_mut().expect("MAB").record(base, disp, way);
        way
    }

    /// \[14\]: a buffered set whose copied row holds the tag names the
    /// way; anything else looks up conventionally and copies the set's
    /// row, as the cache holds it after the access, into the buffer.
    fn set_buffer_access(&mut self, store: bool, addr: u32) {
        let (set, tag) = (self.geom.index_of(addr), self.geom.tag_of(addr));
        let sb = self.set_buffer.as_mut().expect("a set buffer");
        sb.probes += 1;
        let pos = sb.slots.iter().position(|s| s.as_ref().is_some_and(|(x, _)| *x == set));
        if let Some(pos) = pos {
            let entry = sb.slots.remove(pos);
            let way = entry.as_ref().and_then(|(_, row)| row.iter().position(|&t| t == Some(tag)));
            sb.slots.insert(0, entry);
            if let Some(way) = way {
                sb.way_hits += 1;
                self.known(addr, store, way as u32);
                return;
            }
        }
        self.conventional(addr, store);
        let row = self.cache.row(addr);
        let sb = self.set_buffer.as_mut().expect("a set buffer");
        let pos = pos.map_or(sb.slots.len() - 1, |_| 0);
        sb.slots.remove(pos);
        sb.slots.insert(0, Some((set, row)));
    }

    fn stats(&self) -> AccessStats {
        let mut s = self.stats;
        if let Some(mab) = &self.mab {
            s.mab_lookups = mab.stats.lookups + mab.stats.wide_bypasses;
            s.mab_hits = mab.stats.hits;
        }
        s.buffer_hits = self.set_buffer.as_ref().map_or(0, |b| b.way_hits)
            + self.lines.as_ref().map_or(0, |l| l.hits);
        s
    }

    /// Eq. (1)'s inputs: the D-MAB is probed on every access, and every
    /// set-buffer or line-buffer probe costs buffer energy.
    fn energy_counts(&self, cycles: u64) -> EnergyCounts {
        let s = self.stats;
        EnergyCounts {
            way_reads: s.way_reads,
            tag_reads: s.tag_reads,
            buffer_probes: self.set_buffer.as_ref().map_or(0, |b| b.probes)
                + self.lines.as_ref().map_or(0, |l| l.probes),
            mab_lookups: if self.mab.is_some() { s.accesses } else { 0 },
            cycles,
        }
    }
}

/// Builds a load/store stream from random steps over a data region a few
/// times the cache's size: words of one line and of one set, strides
/// across sets, conflicting lines of one set, narrow negative and wide
/// displacements, base-register moves, and the odd fetch, which a D
/// front must skip. Bit 0 of each step's draw makes its accesses stores.
fn stream(geom: Geometry, steps: &[(u8, u32, u32)]) -> Vec<TraceEvent> {
    let line = geom.line_bytes();
    // Lines this far apart share a set.
    let way_span = geom.sets() * line;
    let span = way_span * geom.ways() * 3;
    let narrow = 1u32 << geom.low_bits();
    let mut bases = [0x2_0000u32, 0x2_0000 + way_span + 8, 0x4_0000 - 16, 0x9_0000];
    let mut events = Vec::new();
    for &(op, n, r) in steps {
        let store = r & 1 == 1;
        let slot = (r >> 1) as usize % bases.len();
        let base = bases[slot];
        let mut push = |base: u32, disp: i32| {
            let addr = base.wrapping_add(disp as u32);
            events.push(if store {
                TraceEvent::Store { base, disp, addr, size: 4 }
            } else {
                TraceEvent::Load { base, disp, addr, size: 4 }
            });
        };
        let n = n % 8 + 1;
        match op {
            // Words of one line, then the next.
            0 | 1 => (0..n).for_each(|i| push(base, (4 * i) as i32)),
            // A stride across sets, up or down.
            2 | 3 => {
                let sign = if op == 2 { 1 } else { -1 };
                (0..n).for_each(|i| push(base, sign * ((i * line) % narrow) as i32));
            }
            // Conflicting lines of one set, each through its own base.
            4 => (0..n).for_each(|i| push(base.wrapping_add(i * way_span), (r >> 8) as i32 & 4)),
            // A narrow negative displacement.
            5 => push(base, -(((r >> 4) % narrow) as i32)),
            // A wide displacement, past the MAB.
            6 => push(base, (n << geom.low_bits()) as i32 * if r & 2 == 0 { 1 } else { -1 }),
            // The base register moves somewhere in the region.
            7 => bases[slot] = 0x2_0000 + (((r >> 3) % span) & !3),
            _ => events.push(TraceEvent::Fetch {
                pc: r & !3,
                kind: FetchKind::Sequential,
            }),
        }
    }
    events
}

fn schemes(mab: (usize, usize), buffers: (usize, usize, usize)) -> [DScheme; 8] {
    let (tag_entries, set_entries) = mab;
    [
        DScheme::Original,
        DScheme::SetBuffer { entries: buffers.0 },
        DScheme::FilterCache { lines: buffers.1 },
        DScheme::WayPredict,
        DScheme::TwoPhase,
        DScheme::WayMemo {
            tag_entries,
            set_entries,
        },
        DScheme::WayMemoLineBuffer {
            tag_entries,
            set_entries,
            line_entries: buffers.2,
        },
        DScheme::WayMemoPaperLru {
            tag_entries,
            set_entries,
        },
    ]
}

/// Everything a front reports, for comparing one with the reference.
type Report = (AccessStats, Option<MabStats>, u64, EnergyCounts);

fn report(f: &DFront, cycles: u64) -> Report {
    (
        f.stats(),
        f.mab_stats(),
        f.extra_cycles(),
        f.energy_counts(cycles),
    )
}

/// Feeds `events` to `scheme` per event, as one slice and in the given
/// chunks, and checks each against the reference; returns the scheme's
/// cache outcome (hits, misses, write-backs).
fn check_scheme(
    scheme: DScheme,
    geom: Geometry,
    events: &[TraceEvent],
    chunks: &[usize],
) -> Result<(u64, u64, u64), TestCaseError> {
    let cycles = events.len() as u64;
    let mut reference = RefDFront::new(scheme, geom);
    let mut per_event = scheme.build(geom);
    for &e in events {
        let (store, base, disp, addr) = match e {
            TraceEvent::Load { base, disp, addr, .. } => (false, base, disp, addr),
            TraceEvent::Store { base, disp, addr, .. } => (true, base, disp, addr),
            TraceEvent::Fetch { .. } => continue,
        };
        reference.access(store, base, disp, addr);
        per_event.access(store, base, disp, addr);
    }
    let expected: Report = (
        reference.stats(),
        reference.mab.as_ref().map(|m| m.stats),
        reference.extra_cycles,
        reference.energy_counts(cycles),
    );
    let mut whole = scheme.build(geom);
    whole.replay(events);
    let mut chunked = scheme.build(geom);
    let mut rest = events;
    for &n in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at(n.min(rest.len()));
        chunked.replay(batch);
        rest = tail;
    }
    for (how, front) in [
        ("access", &per_event),
        ("replay", &whole),
        ("chunked replay", &chunked),
    ] {
        prop_assert_eq!(
            report(front, cycles),
            expected,
            "{} by {}",
            scheme.name(),
            how
        );
    }
    let s = expected.0;
    Ok((s.hits, s.misses, s.write_backs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every D scheme, fed per event, as one slice or in random chunks,
    /// counts exactly what its reference counts, on geometries of 1–16
    /// sets, 1–16 ways and 16–64-byte lines; and all eight see one cache.
    #[test]
    fn dfronts_match_the_reference(
        shape in (0u32..5, 0u32..5, 0u32..3),
        mab in (1usize..=4, 1usize..=32),
        buffers in (1usize..=4, 1usize..=8, 1usize..=4),
        steps in prop::collection::vec((0u8..9, 0u32..64, any::<u32>()), 1..200),
        chunks in prop::collection::vec(1usize..48, 1..16),
    ) {
        let geom = Geometry::new(1 << shape.0, 1 << shape.1, 16 << shape.2).unwrap();
        let events = stream(geom, &steps);
        let mut outcomes = Vec::new();
        for scheme in schemes(mab, buffers) {
            outcomes.push(check_scheme(scheme, geom, &events, &chunks)?);
        }
        prop_assert!(
            outcomes.windows(2).all(|w| w[0] == w[1]),
            "the schemes disagree on the cache outcome: {:?}",
            outcomes
        );
    }
}

/// A real kernel's data stream, miss-heavy and with write-backs, at
/// geometries the golden files do not pin (4 and 8 ways), in the
/// engine's 4096-event batches.
#[test]
fn dfronts_match_the_reference_on_a_kernel() {
    let trace = waymem::sim::record_trace(
        waymem::workloads::Benchmark::Compress,
        &waymem::sim::SimConfig::default(),
    )
    .expect("records");
    for geom in [
        Geometry::new(16, 4, 32).unwrap(),
        Geometry::new(8, 8, 16).unwrap(),
    ] {
        let mut outcomes = Vec::new();
        for scheme in schemes((2, 8), (1, 4, 2)) {
            let run = check_scheme(scheme, geom, &trace.data_events, &[4096]);
            outcomes.push(run.unwrap_or_else(|e| panic!("{e:?}")));
        }
        assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "{outcomes:?}");
        assert!(outcomes[0].2 > 0, "no write-backs: vacuous");
    }
}
