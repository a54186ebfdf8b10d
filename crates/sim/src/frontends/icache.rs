//! I-cache front-ends (paper Figures 6–7).
//!
//! The FR-V fetches 8-byte VLIW packets, so one I-cache access happens per
//! *packet*, not per instruction: consecutive instructions in the same
//! packet cost nothing new. Accesses are classified per the paper's §2
//! taxonomy; intra-cache-line sequential flow (case 1) needs no tag check
//! at all — the way is known from the previous fetch — and everything else
//! goes through the MAB under the paper's scheme, with the input mux of
//! Figure 2 choosing between (PC, stride), (PC, branch offset) and the
//! link-register value.

use waymem_cache::{AccessKind, AccessStats, Geometry};
use waymem_core::MabStats;
use waymem_hwmodel::{EnergyCounts, MabShape};
use waymem_isa::{FetchKind, TraceEvent, TraceSink};

use super::links::{Btb, LinkTable};
use super::lookup::Lookup;

/// Fetch packet size in bytes (two 4-byte syllables, per FR-V).
pub const PACKET_BYTES: u32 = 8;

/// An I-cache lookup scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IScheme {
    /// Conventional: all tags + all ways on every packet fetch.
    Original,
    /// Panwar & Rennels (approach \[4\]): skip tag and non-resident ways
    /// for intra-cache-line sequential flow; full access otherwise.
    IntraLine,
    /// The paper: intra-line skip plus a MAB for inter-line sequential
    /// and non-sequential flow.
    WayMemo {
        /// MAB tag rows (`N_t`).
        tag_entries: usize,
        /// MAB set-index columns (`N_s`).
        set_entries: usize,
    },
    /// Ma, Zhang & Asanović (\[11\]): every cache line carries a
    /// *sequential link* (valid bit + way of the next-line's way) and a
    /// *branch link* (valid bit + target line + way). Handles inter-line
    /// sequential and taken-branch flow without a MAB, but pays two extra
    /// bits read with every instruction and needs a link-invalidation
    /// mechanism on every line replacement — the overheads the paper's
    /// MAB avoids.
    LinkMemo,
    /// Inoue, Moshnyaga & Murakami (\[12\]): a branch target buffer
    /// extended with the target's way, probed on non-sequential flow;
    /// intra-line sequential flow uses the way register. Its weakness —
    /// called out in the paper's §2 — is that it "cannot handle the
    /// inter-cache-line sequential flow", which pays full lookups.
    ExtendedBtb {
        /// Number of BTB entries (fully associative, LRU).
        entries: usize,
    },
}

impl IScheme {
    /// Display name used in figure rows.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            IScheme::Original => "original".to_owned(),
            IScheme::IntraLine => "intra_line[4]".to_owned(),
            IScheme::WayMemo {
                tag_entries,
                set_entries,
            } => format!("way_memo {tag_entries}x{set_entries}"),
            IScheme::LinkMemo => "link_memo[11]".to_owned(),
            IScheme::ExtendedBtb { entries } => format!("ext_btb[12]x{entries}"),
        }
    }

    /// The paper's I-cache MAB configuration (2×16).
    #[must_use]
    pub fn paper_way_memo() -> Self {
        IScheme::WayMemo {
            tag_entries: 2,
            set_entries: 16,
        }
    }

    /// Builds the front-end over a cache shaped by `geom`.
    ///
    /// # Panics
    ///
    /// Panics if a MAB scheme's entry counts are invalid (zero or > 64),
    /// or if a BTB has zero entries (or more than 64).
    #[must_use]
    pub fn build(self, geom: Geometry) -> IFront {
        let mab = match self {
            IScheme::WayMemo {
                tag_entries,
                set_entries,
            } => Some((tag_entries, set_entries)),
            _ => None,
        };
        let links = match self {
            IScheme::LinkMemo => Some(LinkTable::new(geom)),
            _ => None,
        };
        let btb = match self {
            IScheme::ExtendedBtb { entries } => Some(Btb::new(geom, entries)),
            _ => None,
        };
        IFront {
            scheme: self,
            core: Lookup::new(geom, mab, false),
            links,
            btb,
            link_bit_reads: 0,
            prev_packet: None,
            current_way: None,
        }
    }
}

/// A trace-driven I-cache model under one scheme.
#[derive(Debug)]
pub struct IFront {
    scheme: IScheme,
    core: Lookup,
    links: Option<LinkTable>,
    btb: Option<Btb>,
    /// Extra link-field reads performed alongside instruction reads
    /// (LinkMemo only) — the "two extra bits per instruction" cost.
    link_bit_reads: u64,
    prev_packet: Option<u32>,
    /// The way holding the most recently fetched packet (the "way
    /// register" that intra-line flow reuses).
    current_way: Option<u32>,
}

impl IFront {
    /// The scheme this front-end models.
    #[must_use]
    pub fn scheme(&self) -> IScheme {
        self.scheme
    }

    /// A conventional fetch. A fill drops the links and BTB entries that
    /// name the refilled location before the caller records a new one.
    fn conventional(&mut self, packet: u32) -> u32 {
        let out = self.core.conventional(AccessKind::Load, packet);
        if !out.hit {
            if let Some(links) = self.links.as_mut() {
                links.invalidate_target(out.index, out.way);
            }
            if let Some(btb) = self.btb.as_mut() {
                btb.invalidate_target(out.index, out.way);
            }
        }
        out.way
    }

    fn known_way(&mut self, packet: u32, way: u32) -> u32 {
        self.core.known_way(AccessKind::Load, packet, way).way
    }

    /// Feeds one instruction fetch into the model.
    pub fn fetch(&mut self, pc: u32, kind: FetchKind) {
        let packet = pc & !(PACKET_BYTES - 1);
        let sequential = matches!(kind, FetchKind::Sequential);
        if sequential && self.prev_packet == Some(packet) {
            return; // still streaming out of the fetched packet
        }
        self.core.stats.accesses += 1;
        if self.links.is_some() {
            // The link fields ride along with every instruction read.
            self.link_bit_reads += 1;
        }
        let geom = self.core.geom;
        let intra_line = sequential && self.prev_packet.is_some_and(|p| geom.same_line(p, packet));

        let way = match self.scheme {
            IScheme::Original => self.conventional(packet),
            _ if intra_line => {
                self.core.stats.intra_line_skips += 1;
                let way = self.current_way.expect("intra-line follows a fetch");
                self.known_way(packet, way)
            }
            IScheme::IntraLine => self.conventional(packet),
            IScheme::WayMemo { .. } => {
                let (base, disp) = match (kind, self.prev_packet) {
                    // Inter-line sequential: PC + stride (Figure 2's
                    // "+8" input).
                    (FetchKind::Sequential, Some(prev)) => (prev, PACKET_BYTES as i32),
                    // Very first fetch: no architectural base exists;
                    // treat the packet address itself as the base.
                    (FetchKind::Sequential, None) => (packet, 0),
                    (FetchKind::TakenBranch { base, disp }, _) => (base, disp),
                    (FetchKind::LinkReturn { target }, _) => (target, 0),
                    (FetchKind::Indirect { base, disp }, _) => (base, disp),
                };
                self.core
                    .mab_access(AccessKind::Load, packet, base, disp)
                    .way
            }
            IScheme::LinkMemo => self.link_fetch(packet, sequential),
            // [12]'s weakness: inter-line sequential flow pays.
            IScheme::ExtendedBtb { .. } if sequential => self.conventional(packet),
            IScheme::ExtendedBtb { .. } => self.btb_fetch(packet),
        };
        self.current_way = Some(way);
        self.prev_packet = Some(packet);
    }

    /// Way-extended-BTB fetch (Inoue et al. \[12\]): key the BTB by the
    /// packet the transfer came from; a full (source, target) match makes
    /// the target's way known.
    fn btb_fetch(&mut self, packet: u32) -> u32 {
        let target_base = self.core.geom.line_base(packet);
        let Some(source) = self.prev_packet else {
            return self.conventional(packet);
        };
        let btb = self.btb.as_mut().expect("scheme has BTB");
        if let Some(way) = btb.probe(source, target_base) {
            return self.known_way(packet, way);
        }
        let way = self.conventional(packet);
        self.btb
            .as_mut()
            .expect("scheme has BTB")
            .record(source, target_base, way);
        way
    }

    /// Link-based fetch (Ma et al. \[11\]): consult the previous line's
    /// sequential or branch link; on a valid link the way is known, else
    /// do a conventional lookup and install the link for next time.
    fn link_fetch(&mut self, packet: u32, sequential: bool) -> u32 {
        let geom = self.core.geom;
        let target_base = geom.line_base(packet);
        let prev_loc = self
            .prev_packet
            .zip(self.current_way)
            .map(|(p, w)| (geom.index_of(p), w));
        if let Some((set, from_way)) = prev_loc {
            let links = self.links.as_ref().expect("scheme has links");
            let linked = if sequential {
                links.seq_way(set, from_way, target_base)
            } else {
                links.branch_way(set, from_way, target_base)
            };
            if let Some(way) = linked {
                self.core.stats.buffer_hits += 1;
                return self.known_way(packet, way);
            }
        }
        let way = self.conventional(packet);
        if let Some((set, from_way)) = prev_loc {
            let links = self.links.as_mut().expect("scheme has links");
            if sequential {
                links.set_seq(set, from_way, target_base, way);
            } else {
                links.set_branch(set, from_way, target_base, way);
            }
        }
        way
    }

    /// Replays a recorded trace slice into the model: fetch events are
    /// consumed in program order, loads and stores are skipped. Like
    /// [`DFront::replay`](crate::DFront::replay), the loop is monomorphic
    /// for this front-end — the hot path of the record/replay engine.
    pub fn replay(&mut self, events: &[TraceEvent]) {
        for &e in events {
            if let TraceEvent::Fetch { pc, kind } = e {
                self.fetch(pc, kind);
            }
        }
    }

    /// Accounting so far. BTB hits are the BTB's own count; MAB counters
    /// are the MAB's.
    #[must_use]
    pub fn stats(&self) -> AccessStats {
        let mut s = self.core.stats();
        s.buffer_hits += self.btb.as_ref().map_or(0, Btb::hits);
        s
    }

    /// Raw MAB statistics (MAB schemes only).
    #[must_use]
    pub fn mab_stats(&self) -> Option<MabStats> {
        self.core.mab_stats()
    }

    /// The MAB's hardware shape (MAB schemes only).
    #[must_use]
    pub fn mab_shape(&self) -> Option<MabShape> {
        self.core.mab_shape()
    }

    /// Converts counters into hwmodel inputs (`cycles` = instructions).
    ///
    /// For the link-memoization baseline \[11\] the two extra link bits
    /// per 4-byte instruction widen every data-array row by 16/256 =
    /// 1/16, so each way activation reads proportionally more bitlines;
    /// that is charged as extra fractional way reads, plus one register
    /// probe per access for the link-valid muxing.
    #[must_use]
    pub fn energy_counts(&self, cycles: u64) -> EnergyCounts {
        let s = self.core.stats();
        let way_reads = if self.links.is_some() {
            let line_bits = u64::from(self.core.geom.line_bytes()) * 8;
            let link_bits = u64::from(self.core.geom.line_bytes()) / 4 * 2;
            s.way_reads + s.way_reads * link_bits / line_bits
        } else {
            s.way_reads
        };
        EnergyCounts {
            way_reads,
            tag_reads: s.tag_reads,
            buffer_probes: self.link_bit_reads + self.btb.as_ref().map_or(0, Btb::probes),
            mab_lookups: if self.core.mab.is_some() {
                // The I-MAB is probed on every non-intra-line access.
                s.accesses - s.intra_line_skips
            } else {
                0
            },
            cycles,
        }
    }

    /// Replacement-time link invalidations performed so far (LinkMemo
    /// baseline only) — the bookkeeping cost the MAB avoids.
    #[must_use]
    pub fn link_invalidations(&self) -> Option<u64> {
        self.links.as_ref().map(LinkTable::invalidated)
    }
}

/// An I-front is itself a [`TraceSink`]: fetches feed the model, data
/// events are ignored, and the batched [`TraceSink::events`] entry point
/// dispatches to the monomorphic [`IFront::replay`] loop — the path the
/// record/replay engine drives.
impl TraceSink for IFront {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        IFront::fetch(self, pc, kind);
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

    /// Feeds a straight-line run of `n` instructions starting at `pc`.
    fn straight(f: &mut IFront, pc: u32, n: u32) {
        for i in 0..n {
            f.fetch(pc + 4 * i, FetchKind::Sequential);
        }
    }

    #[test]
    fn packet_granularity_two_instructions_one_access() {
        let mut f = IScheme::Original.build(geom());
        straight(&mut f, 0x1000, 8); // 8 instructions = 4 packets
        assert_eq!(f.stats().accesses, 4);
    }

    #[test]
    fn original_reads_everything_every_packet() {
        let mut f = IScheme::Original.build(geom());
        straight(&mut f, 0x1000, 8);
        let s = f.stats();
        assert_eq!(s.tag_reads, 8); // 4 packets x 2 ways
        assert_eq!(s.way_reads, 9); // 8 reads + 1 fill (one line)
    }

    #[test]
    fn intra_line_skips_tags_within_line() {
        let mut f = IScheme::IntraLine.build(geom());
        straight(&mut f, 0x1000, 8); // one 32-B line = 4 packets
        let s = f.stats();
        assert_eq!(s.intra_line_skips, 3, "packets 2-4 are intra-line");
        assert_eq!(s.tag_reads, 2, "only the first packet reads tags");
    }

    #[test]
    fn intra_line_pays_on_line_crossing() {
        let mut f = IScheme::IntraLine.build(geom());
        straight(&mut f, 0x1000, 10); // crosses into a second line
        let s = f.stats();
        // Packets: 0x1000,0x1008,0x1010,0x1018 (line 1), 0x1020 (line 2).
        assert_eq!(s.accesses, 5);
        assert_eq!(s.tag_reads, 4, "two inter-line accesses pay tags");
    }

    #[test]
    fn way_memo_catches_inter_line_sequential() {
        let mut f = IScheme::paper_way_memo().build(geom());
        // Two passes over the same straight-line code: second pass's
        // line-crossing fetches hit the MAB.
        straight(&mut f, 0x1000, 20);
        let first_pass = f.stats();
        assert_eq!(first_pass.mab_hits, 0, "cold MAB");
        f.fetch(0x1000, FetchKind::Indirect { base: 0x1000, disp: 0 });
        straight(&mut f, 0x1004, 19);
        let s = f.stats();
        // 40 instructions -> 2.5 lines; pass 2 has 2 line crossings that
        // now hit (plus possibly the indirect entry).
        assert!(
            s.mab_hits >= 2,
            "inter-line sequential crossings must hit the MAB on the \
             second pass (got {})",
            s.mab_hits
        );
        assert!(s.tag_reads < first_pass.tag_reads * 2);
    }

    #[test]
    fn way_memo_catches_loop_branches() {
        let mut f = IScheme::paper_way_memo().build(geom());
        // A loop: 6 instructions then a taken branch back, many times.
        let body = 0x2000u32;
        for _ in 0..10 {
            straight(&mut f, body, 6);
            f.fetch(
                body,
                FetchKind::TakenBranch {
                    base: body + 20,
                    disp: -20,
                },
            );
        }
        let s = f.stats();
        // After warm-up every branch-back hits the MAB.
        assert!(
            s.mab_hits >= 8,
            "loop back-edges must be memoized, got {}",
            s.mab_hits
        );
    }

    #[test]
    fn way_memo_handles_link_returns() {
        let mut f = IScheme::paper_way_memo().build(geom());
        let call_site = 0x3000u32;
        let callee = 0x3800u32;
        for _ in 0..6 {
            straight(&mut f, call_site, 2);
            f.fetch(
                callee,
                FetchKind::TakenBranch {
                    base: call_site + 4,
                    disp: (callee - call_site - 4) as i32,
                },
            );
            straight(&mut f, callee + 4, 2);
            f.fetch(call_site + 8, FetchKind::LinkReturn { target: call_site + 8 });
            f.fetch(call_site, FetchKind::TakenBranch { base: call_site + 8, disp: -8 });
        }
        let s = f.stats();
        assert!(s.mab_hits >= 10, "calls and returns memoize, got {}", s.mab_hits);
    }

    #[test]
    fn way_memo_tag_reads_below_intra_line_baseline() {
        // The paper's Figure 6 claim: ours reduces tag accesses to ~80%
        // of approach [4]'s (i.e. below it) on loopy code.
        let mut ours = IScheme::paper_way_memo().build(geom());
        let mut baseline = IScheme::IntraLine.build(geom());
        let run = |f: &mut IFront| {
            for _ in 0..50 {
                // 24-instruction loop spanning 3 lines, then branch back.
                for i in 0..24u32 {
                    f.fetch(0x4000 + 4 * i, FetchKind::Sequential);
                }
                f.fetch(
                    0x4000,
                    FetchKind::TakenBranch {
                        base: 0x4000 + 4 * 23,
                        disp: -(4 * 23i32),
                    },
                );
            }
        };
        run(&mut ours);
        run(&mut baseline);
        assert!(
            ours.stats().tag_reads * 4 < baseline.stats().tag_reads,
            "ours {} vs [4] {}",
            ours.stats().tag_reads,
            baseline.stats().tag_reads
        );
        assert_eq!(ours.stats().accesses, baseline.stats().accesses);
    }

    #[test]
    fn mab_claims_match_residency_under_conflict_pressure() {
        // Jump between many lines that collide in the cache so fills evict
        // memoized lines; debug asserts + claims check soundness.
        let g = Geometry::new(8, 2, 32).unwrap();
        let mut f = IScheme::WayMemo {
            tag_entries: 2,
            set_entries: 4,
        }
        .build(g);
        let mut x = 7u32;
        let mut prev = 0u32;
        for _ in 0..3000 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let target = (x >> 4) & 0x7ff8;
            f.fetch(
                target,
                FetchKind::TakenBranch {
                    base: prev,
                    disp: target.wrapping_sub(prev) as i32,
                },
            );
            prev = target;
            if let Some(mab) = f.core.mab.as_ref() {
                for (set, way, tag) in mab.claims() {
                    assert_eq!(f.core.cache.resident_way(tag, set), Some(way));
                }
            }
        }
    }

    #[test]
    fn link_memo_catches_sequential_crossings_on_second_pass() {
        let mut f = IScheme::LinkMemo.build(geom());
        straight(&mut f, 0x1000, 20); // cold pass installs seq links
        let cold = f.stats();
        assert_eq!(cold.buffer_hits, 0);
        f.fetch(0x1000, FetchKind::TakenBranch { base: 0x1000 + 76, disp: -76 });
        straight(&mut f, 0x1004, 19);
        let s = f.stats();
        // Two line crossings now ride the sequential links.
        assert!(s.buffer_hits >= 2, "got {}", s.buffer_hits);
        assert!(s.tag_reads < cold.tag_reads * 2);
    }

    #[test]
    fn link_memo_catches_loop_branches() {
        let mut f = IScheme::LinkMemo.build(geom());
        let body = 0x2000u32;
        for _ in 0..10 {
            straight(&mut f, body, 6);
            f.fetch(
                body,
                FetchKind::TakenBranch {
                    base: body + 20,
                    disp: -20,
                },
            );
        }
        let s = f.stats();
        assert!(s.buffer_hits >= 8, "branch links memoize, got {}", s.buffer_hits);
    }

    #[test]
    fn link_memo_invalidates_on_replacement() {
        // Conflict-heavy jumping on a tiny cache: links must never produce
        // a wrong known-way (debug asserts check), and invalidations must
        // actually occur.
        let g = Geometry::new(8, 2, 32).unwrap();
        let mut f = IScheme::LinkMemo.build(g);
        let mut x = 99u32;
        let mut prev = 0u32;
        for _ in 0..2000 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let target = (x >> 4) & 0x3ff8;
            f.fetch(
                target,
                FetchKind::TakenBranch {
                    base: prev,
                    disp: target.wrapping_sub(prev) as i32,
                },
            );
            prev = target;
        }
        assert!(f.link_invalidations().unwrap() > 0);
        assert!(f.stats().is_consistent());
    }

    #[test]
    fn extended_btb_catches_branches_but_not_sequential_crossings() {
        let mut f = IScheme::ExtendedBtb { entries: 16 }.build(geom());
        let body = 0x2000u32;
        for _ in 0..10 {
            straight(&mut f, body, 6);
            f.fetch(
                body,
                FetchKind::TakenBranch {
                    base: body + 20,
                    disp: -20,
                },
            );
        }
        let s = f.stats();
        assert!(s.buffer_hits >= 8, "loop branch memoized, got {}", s.buffer_hits);

        // Inter-line sequential flow always pays: a long straight run gets
        // no BTB help beyond intra-line skips.
        let mut g = IScheme::ExtendedBtb { entries: 16 }.build(geom());
        straight(&mut g, 0x4000, 40); // 5 lines
        let gs = g.stats();
        assert_eq!(gs.buffer_hits, 0);
        // Line crossings (4 of them) + first fetch pay full tag reads.
        assert_eq!(gs.tag_reads, 10);
    }

    #[test]
    fn link_memo_charges_link_bit_reads() {
        let mut f = IScheme::LinkMemo.build(geom());
        straight(&mut f, 0x1000, 8);
        let e = f.energy_counts(8);
        assert_eq!(e.buffer_probes, f.stats().accesses);
        assert_eq!(
            IScheme::IntraLine.build(geom()).energy_counts(8).buffer_probes,
            0
        );
    }

    #[test]
    fn first_fetch_is_not_intra_line() {
        let mut f = IScheme::IntraLine.build(geom());
        f.fetch(0x1004, FetchKind::Sequential);
        assert_eq!(f.stats().intra_line_skips, 0);
        assert_eq!(f.stats().tag_reads, 2);
    }

    #[test]
    fn energy_counts_track_mab_utilization() {
        let mut f = IScheme::paper_way_memo().build(geom());
        straight(&mut f, 0x1000, 16);
        let e = f.energy_counts(16);
        let s = f.stats();
        assert_eq!(e.mab_lookups, s.accesses - s.intra_line_skips);
        let orig = IScheme::Original.build(geom()).energy_counts(16);
        assert_eq!(orig.mab_lookups, 0);
    }
}
