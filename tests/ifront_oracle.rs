//! A reference model for the five I-cache schemes, checked against
//! `IFront` on random geometries and fetch streams.
//!
//! Each reference front is restated from the paper's §2 fetch taxonomy and
//! from the `IScheme` docs, and it shares no code with the simulator's
//! front-ends: a list-based LRU cache, the naive [`RefMab`], a link table
//! kept as two maps, and a fully associative LRU BTB kept as a recency
//! list. Every fetch is looked up in full — the reference has no notion
//! of a line run — so the real front's run-at-a-time replay, its
//! per-event `fetch` and any split of a trace into batches must all give
//! exactly the reference's counters.

#[path = "../crates/core/tests/support/ref_mab.rs"]
mod ref_mab;

use std::collections::HashMap;

use proptest::prelude::*;
use ref_mab::RefMab;
use waymem::cache::{AccessStats, Geometry};
use waymem::core::{MabLookup, MabStats};
use waymem::hwmodel::EnergyCounts;
use waymem::isa::{FetchKind, TraceEvent};
use waymem::sim::{IFront, IScheme};

/// Fetch packet size in bytes (two 4-byte FR-V syllables).
const PACKET: u32 = 8;

/// A set-associative LRU cache as explicit lists: per set, every way with
/// the tag it holds (`None` while empty), most recently used first. Way 0
/// starts least recently used, so an empty set fills way 0 first.
struct RefCache {
    geom: Geometry,
    sets: Vec<Vec<(u32, Option<u32>)>>,
}

impl RefCache {
    fn new(geom: Geometry) -> Self {
        let set: Vec<(u32, Option<u32>)> = (0..geom.ways()).rev().map(|w| (w, None)).collect();
        RefCache {
            geom,
            sets: vec![set; geom.sets() as usize],
        }
    }

    /// Reads `addr`'s line: a hit moves its way to the front, a miss
    /// refills the least recently used way. Returns (hit, set, way).
    fn read(&mut self, addr: u32) -> (bool, u32, u32) {
        let (set, tag) = (self.geom.index_of(addr), self.geom.tag_of(addr));
        let list = &mut self.sets[set as usize];
        let found = list.iter().position(|&(_, t)| t == Some(tag));
        let mut entry = list.remove(found.unwrap_or(list.len() - 1));
        entry.1 = Some(tag);
        list.insert(0, entry);
        (found.is_some(), set, entry.0)
    }
}

/// Ma et al.'s links (\[11\]): per line location (set, way), a sequential
/// and a branch link naming the next line's base and the way it was in.
#[derive(Default)]
struct RefLinks {
    seq: HashMap<(u32, u32), (u32, u32)>,
    branch: HashMap<(u32, u32), (u32, u32)>,
    invalidated: u64,
}

impl RefLinks {
    /// A fill replaced the line at `loc`: its own links go with it, and
    /// every other link naming `loc` as its target is cleared and counted.
    fn refilled(&mut self, geom: Geometry, loc: (u32, u32)) {
        for table in [&mut self.seq, &mut self.branch] {
            table.remove(&loc);
            let before = table.len();
            table.retain(|_, &mut (base, way)| (geom.index_of(base), way) != loc);
            self.invalidated += (before - table.len()) as u64;
        }
    }
}

/// Inoue et al.'s way-extended BTB (\[12\]): fully associative, LRU,
/// entries (source packet, target line base, way) kept most recently used
/// first. A refill empties the entries naming its location, which keep
/// their place in the recency order.
struct RefBtb {
    slots: Vec<Option<(u32, u32, u32)>>,
    probes: u64,
    hits: u64,
}

impl RefBtb {
    fn probe(&mut self, source: u32, target: u32) -> Option<u32> {
        self.probes += 1;
        let pos = self
            .slots
            .iter()
            .position(|s| matches!(s, Some((src, t, _)) if (*src, *t) == (source, target)))?;
        let entry = self.slots.remove(pos);
        self.slots.insert(0, entry);
        self.hits += 1;
        entry.map(|(_, _, way)| way)
    }

    /// Installs the transfer in the entry `source` already has, else in
    /// the least recently used one.
    fn record(&mut self, source: u32, target: u32, way: u32) {
        let pos = self
            .slots
            .iter()
            .position(|s| matches!(s, Some((src, _, _)) if *src == source))
            .unwrap_or(self.slots.len() - 1);
        self.slots.remove(pos);
        self.slots.insert(0, Some((source, target, way)));
    }

    fn refilled(&mut self, geom: Geometry, loc: (u32, u32)) {
        for slot in &mut self.slots {
            if slot.is_some_and(|(_, t, way)| (geom.index_of(t), way) == loc) {
                *slot = None;
            }
        }
    }
}

/// One I-cache scheme as the paper and the `IScheme` docs state it. Every
/// packet access is a full cache read; the scheme only decides which tags
/// and ways that read is charged.
struct RefIFront {
    scheme: IScheme,
    geom: Geometry,
    cache: RefCache,
    mab: Option<RefMab>,
    links: Option<RefLinks>,
    btb: Option<RefBtb>,
    stats: AccessStats,
    link_bit_reads: u64,
    prev_packet: Option<u32>,
    way_register: Option<u32>,
}

impl RefIFront {
    fn new(scheme: IScheme, geom: Geometry) -> Self {
        RefIFront {
            scheme,
            geom,
            cache: RefCache::new(geom),
            mab: match scheme {
                IScheme::WayMemo {
                    tag_entries,
                    set_entries,
                } => Some(RefMab::new(geom, tag_entries, set_entries)),
                _ => None,
            },
            links: matches!(scheme, IScheme::LinkMemo).then(RefLinks::default),
            btb: match scheme {
                IScheme::ExtendedBtb { entries } => Some(RefBtb {
                    slots: vec![None; entries],
                    probes: 0,
                    hits: 0,
                }),
                _ => None,
            },
            stats: AccessStats::default(),
            link_bit_reads: 0,
            prev_packet: None,
            way_register: None,
        }
    }

    /// A conventional read: every tag and every way. A fill drops the MAB
    /// pairs, links and BTB entries naming the refilled location before
    /// the caller records anything new.
    fn conventional(&mut self, packet: u32) -> u32 {
        let w = u64::from(self.geom.ways());
        self.stats.tag_reads += w;
        self.stats.way_reads += w;
        let (hit, set, way) = self.cache.read(packet);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            self.stats.way_reads += 1; // the fill's write
            if let Some(mab) = self.mab.as_mut() {
                mab.invalidate_location(set, way);
            }
            if let Some(links) = self.links.as_mut() {
                links.refilled(self.geom, (set, way));
            }
            if let Some(btb) = self.btb.as_mut() {
                btb.refilled(self.geom, (set, way));
            }
        }
        way
    }

    /// A read whose way is already known: no tag, one way. The way must
    /// hold the line.
    fn known(&mut self, packet: u32, way: u32) -> u32 {
        self.stats.way_reads += 1;
        let (hit, _, resident) = self.cache.read(packet);
        assert!(hit && resident == way, "a known way must hold the line");
        self.stats.hits += 1;
        way
    }

    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        let packet = pc & !(PACKET - 1);
        let sequential = kind == FetchKind::Sequential;
        if sequential && self.prev_packet == Some(packet) {
            return; // the packet is already fetched
        }
        self.stats.accesses += 1;
        if self.links.is_some() {
            self.link_bit_reads += 1; // two link bits ride on every read
        }
        let line = self.geom.line_base(packet);
        let intra_line =
            sequential && self.prev_packet.map(|p| self.geom.line_base(p)) == Some(line);
        let way = if intra_line && self.scheme != IScheme::Original {
            // §2 case 1: the way register already names the line's way.
            self.stats.intra_line_skips += 1;
            let way = self.way_register.expect("a line run follows a fetch");
            self.known(packet, way)
        } else {
            match self.scheme {
                IScheme::Original | IScheme::IntraLine => self.conventional(packet),
                IScheme::WayMemo { .. } => self.mab_fetch(packet, kind),
                IScheme::LinkMemo => self.link_fetch(packet, line, sequential),
                IScheme::ExtendedBtb { .. } => match self.prev_packet {
                    Some(source) if !sequential => self.btb_fetch(packet, line, source),
                    _ => self.conventional(packet),
                },
            }
        };
        self.way_register = Some(way);
        self.prev_packet = Some(packet);
    }

    /// The paper's MAB, fed per Figure 2's input mux.
    fn mab_fetch(&mut self, packet: u32, kind: FetchKind) -> u32 {
        let (base, disp) = match kind {
            FetchKind::Sequential => match self.prev_packet {
                Some(prev) => (prev, PACKET as i32),
                None => (packet, 0),
            },
            FetchKind::TakenBranch { base, disp } | FetchKind::Indirect { base, disp } => {
                (base, disp)
            }
            FetchKind::LinkReturn { target } => (target, 0),
        };
        let mab = self.mab.as_mut().expect("way memo has a MAB");
        match mab.lookup(base, disp) {
            MabLookup::Hit { way, .. } => self.known(packet, way),
            MabLookup::Miss { .. } => {
                let way = self.conventional(packet);
                self.mab.as_mut().expect("MAB").record(base, disp, way);
                way
            }
            MabLookup::Wide => self.conventional(packet),
        }
    }

    /// \[11\]: the previous line's sequential or branch link.
    fn link_fetch(&mut self, packet: u32, line: u32, sequential: bool) -> u32 {
        let from = self
            .prev_packet
            .zip(self.way_register)
            .map(|(p, w)| (self.geom.index_of(p), w));
        let links = self.links.as_ref().expect("link memo has links");
        let table = if sequential {
            &links.seq
        } else {
            &links.branch
        };
        if let Some(&(base, way)) = from.and_then(|loc| table.get(&loc)) {
            if base == line {
                self.stats.buffer_hits += 1;
                return self.known(packet, way);
            }
        }
        let way = self.conventional(packet);
        if let Some(loc) = from {
            let links = self.links.as_mut().expect("links");
            let table = if sequential {
                &mut links.seq
            } else {
                &mut links.branch
            };
            table.insert(loc, (line, way));
        }
        way
    }

    /// \[12\]: a BTB keyed by the packet the transfer left from.
    fn btb_fetch(&mut self, packet: u32, line: u32, source: u32) -> u32 {
        let btb = self.btb.as_mut().expect("ext BTB has a BTB");
        if let Some(way) = btb.probe(source, line) {
            self.stats.buffer_hits += 1;
            return self.known(packet, way);
        }
        let way = self.conventional(packet);
        self.btb.as_mut().expect("BTB").record(source, line, way);
        way
    }

    fn stats(&self) -> AccessStats {
        let mut s = self.stats;
        if let Some(mab) = &self.mab {
            s.mab_lookups = mab.stats.lookups + mab.stats.wide_bypasses;
            s.mab_hits = mab.stats.hits;
        }
        s
    }

    /// Eq. (1)'s inputs: \[11\]'s two link bits per 32-bit instruction make
    /// every way read 1/16 wider; the I-MAB is probed on every access but
    /// the intra-line ones.
    fn energy_counts(&self, cycles: u64) -> EnergyCounts {
        let s = self.stats;
        EnergyCounts {
            way_reads: if self.links.is_some() {
                s.way_reads + s.way_reads / 16
            } else {
                s.way_reads
            },
            tag_reads: s.tag_reads,
            buffer_probes: self.link_bit_reads + self.btb.as_ref().map_or(0, |b| b.probes),
            mab_lookups: if self.mab.is_some() {
                s.accesses - s.intra_line_skips
            } else {
                0
            },
            cycles,
        }
    }
}

/// Builds a fetch stream from random steps over a code region a few
/// times the cache's size: sequential runs that cross lines, taken
/// branches (some into the same packet or the same line, some far),
/// link returns, indirect jumps with narrow and wide displacements, and
/// the odd load, which an I front must skip.
fn stream(geom: Geometry, steps: &[(u8, u32, u32)]) -> Vec<TraceEvent> {
    let line = geom.line_bytes();
    let span = geom.sets() * line * geom.ways() * 3;
    let near = |r: u32| 0x1_0000 + ((r % span) & !3);
    let mut pc: u32 = 0x1_0000 - 4;
    let mut events = Vec::new();
    let mut returns = Vec::new();
    let mut targets = Vec::new();
    for &(op, n, r) in steps {
        let (target, kind) = match op {
            0..=3 => {
                for _ in 0..n {
                    pc = pc.wrapping_add(4);
                    events.push(TraceEvent::Fetch {
                        pc,
                        kind: FetchKind::Sequential,
                    });
                }
                continue;
            }
            4 | 5 => {
                let target = match r % 5 {
                    0 => pc & !(PACKET - 1),
                    1 => (geom.line_base(pc) + (r >> 3) % line) & !3,
                    2 => near(r >> 3),
                    3 => near(r >> 3).wrapping_add(0x40_0000),
                    // A loop's back edge to one of the last few targets.
                    _ => match targets.len() {
                        0 => near(r >> 3),
                        len => targets[len - 1 - (r >> 3) as usize % len.min(4)],
                    },
                };
                targets.push(target);
                if op == 5 {
                    returns.push(pc.wrapping_add(4));
                }
                let disp = target.wrapping_sub(pc) as i32;
                (target, FetchKind::TakenBranch { base: pc, disp })
            }
            6 => {
                let target = returns.pop().unwrap_or_else(|| near(r));
                (target, FetchKind::LinkReturn { target })
            }
            7 => {
                let target = near(r);
                let disp = if r & 1 == 0 {
                    (n % 64) as i32 * 4
                } else {
                    (n as i32) << 12
                };
                let base = target.wrapping_sub(disp as u32);
                (target, FetchKind::Indirect { base, disp })
            }
            _ => {
                events.push(TraceEvent::Load {
                    base: r,
                    disp: 0,
                    addr: r,
                    size: 4,
                });
                continue;
            }
        };
        pc = target;
        events.push(TraceEvent::Fetch { pc, kind });
    }
    events
}

fn schemes(mab: (usize, usize), btb: usize) -> [IScheme; 5] {
    [
        IScheme::Original,
        IScheme::IntraLine,
        IScheme::WayMemo {
            tag_entries: mab.0,
            set_entries: mab.1,
        },
        IScheme::LinkMemo,
        IScheme::ExtendedBtb { entries: btb },
    ]
}

/// Everything a front reports, for comparing one with the reference.
type Report = (AccessStats, Option<MabStats>, EnergyCounts, Option<u64>);

fn report(f: &IFront, cycles: u64) -> Report {
    (
        f.stats(),
        f.mab_stats(),
        f.energy_counts(cycles),
        f.link_invalidations(),
    )
}

/// Feeds `events` to `scheme` per event, as one slice and in the given
/// chunks, and checks each against the reference; returns the scheme's
/// cache outcome (hits, misses, write-backs).
fn check_scheme(
    scheme: IScheme,
    geom: Geometry,
    events: &[TraceEvent],
    chunks: &[usize],
) -> Result<(u64, u64, u64), TestCaseError> {
    let cycles = events.len() as u64;
    let mut reference = RefIFront::new(scheme, geom);
    for &e in events {
        if let TraceEvent::Fetch { pc, kind } = e {
            reference.fetch(pc, kind);
        }
    }
    let expected: Report = (
        reference.stats(),
        reference.mab.as_ref().map(|m| m.stats),
        reference.energy_counts(cycles),
        reference.links.as_ref().map(|l| l.invalidated),
    );

    let mut per_event = scheme.build(geom);
    for &e in events {
        if let TraceEvent::Fetch { pc, kind } = e {
            per_event.fetch(pc, kind);
        }
    }
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
        ("fetch", &per_event),
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

    /// Every I scheme, fed per event, as one slice or in random chunks,
    /// counts exactly what its reference counts, on geometries of 1–16
    /// sets, 1–16 ways and 16–64-byte lines; and all five see one cache.
    #[test]
    fn ifronts_match_the_reference(
        shape in (0u32..5, 0u32..5, 0u32..3),
        mab in (1usize..=4, 1usize..=32),
        btb in 1usize..=32,
        steps in prop::collection::vec((0u8..9, 1u32..40, any::<u32>()), 1..160),
        chunks in prop::collection::vec(1usize..48, 1..16),
    ) {
        let geom = Geometry::new(1 << shape.0, 1 << shape.1, 16 << shape.2).unwrap();
        let events = stream(geom, &steps);
        let mut outcomes = Vec::new();
        for scheme in schemes(mab, btb) {
            outcomes.push(check_scheme(scheme, geom, &events, &chunks)?);
        }
        prop_assert!(
            outcomes.windows(2).all(|w| w[0] == w[1]),
            "the schemes disagree on the cache outcome: {:?}",
            outcomes
        );
    }
}

/// A real kernel's fetch stream at geometries the golden files do not
/// pin (4 and 8 ways), in the engine's 4096-event batches.
#[test]
fn ifronts_match_the_reference_on_a_kernel() {
    let trace = waymem::sim::record_trace(
        waymem::workloads::Benchmark::Dhrystone,
        &waymem::sim::SimConfig::default(),
    )
    .expect("records");
    for geom in [
        Geometry::new(16, 4, 32).unwrap(),
        Geometry::new(8, 8, 16).unwrap(),
    ] {
        for scheme in schemes((2, 16), 32) {
            let run = check_scheme(scheme, geom, &trace.fetch_events, &[4096]);
            assert!(run.is_ok(), "{:?}", run.err());
        }
    }
}
