//! Parameterized synthetic access-pattern generators.
//!
//! The seven paper kernels cluster in a fairly friendly locality band —
//! blocked loops, small working sets. These generators fabricate
//! [`RecordedTrace`]s covering the regimes they miss, so the MAB (and
//! every ablation) can be measured where memoization is hostile, neutral
//! and ideal:
//!
//! * [`SynthPattern::Stream`] — pure sequential streaming, zero reuse:
//!   the worst case for any memoization structure;
//! * [`SynthPattern::Strided`] — fixed-stride walks over a wrapping
//!   1 MiB region: set-conflict traffic at a controllable rate;
//! * [`SynthPattern::PointerChase`] — a dependent chase over a shuffled
//!   node cycle (64 B apart): no spatial locality, perfect per-node
//!   temporal recurrence once the cycle wraps;
//! * [`SynthPattern::ZipfHotSet`] — a true zipf(α) skewed working set
//!   (alias-table sampled ranks, α exposed in centi-units): ~90 % of
//!   accesses in a few hot lines, the rest scattered cold — the MAB's
//!   best case;
//! * [`SynthPattern::PhaseChange`] — a hot set that *migrates* to a
//!   fresh region mid-trace, repeatedly: every migration cold-starts all
//!   memoized state at once, the regime sweeps between stable phases
//!   never show.
//! * [`SynthPattern::MultiLoop`] — execution rotates through many
//!   distinct inner loops at page-separated PC regions: one loop fits any
//!   I-MAB, dozens overflow its capacity — the I-side stress the shared
//!   single-loop fetch model cannot produce;
//! * [`SynthPattern::RwChase`] — a mixed read/write pointer chase: every
//!   visited node is read (next pointer) and written (payload word in the
//!   same line), the linked-list-update regime where stores recur over
//!   lines loads just touched.
//!
//! Generation is **deterministic**: equal [`SynthSpec`]s produce
//! bit-identical traces on a given host (an xorshift32 stream seeded
//! from the spec; integer arithmetic throughout, except the zipf alias
//! table whose weights go through libm `powf` once per trace), so the
//! [`TraceStore`](waymem_trace::TraceStore) can cache them like any
//! other workload, keyed by the spec itself and fingerprinted by
//! [`source_hash`] (which folds in [`GENERATOR_VERSION`] — so improving
//! a generator invalidates stale cached traces instead of replaying
//! them — and, for zipf specs, [`powf_fingerprint`], so cache dirs
//! shared between hosts with disagreeing libm re-generate rather than
//! silently replay).
//!
//! Every pattern drives its data stream from a modelled inner loop on
//! the fetch side — four sequential instructions then a backward branch
//! per access, the shape that dominates real kernels — so I-side schemes
//! see a realistic packet stream too.

use waymem_isa::{RecordedTrace, TraceSink};
use waymem_trace::{fnv1a64, SynthPattern, SynthSpec, WorkloadId};

use crate::{IngestStats, Op, TraceBuilder};

/// Bumped whenever any generator's output changes for the same spec, so
/// cached traces from older generators read as stale, not current.
/// v2: true alias-table zipf(α) sampling replaced the min-of-two-uniforms
/// skew hack, and the phase-change pattern joined the family.
pub const GENERATOR_VERSION: u32 = 2;

/// Where the data region starts. Arbitrary but stable: changing it would
/// change every generated trace (and [`GENERATOR_VERSION`] would bump).
const DATA_BASE: u32 = 0x1000_0000;

/// Where the cold scatter region of [`SynthPattern::ZipfHotSet`] starts.
const COLD_BASE: u32 = 0x2000_0000;

/// The modelled inner loop sits here in the instruction space.
const LOOP_BASE: u32 = 0x0040_0000;

/// Instructions per modelled loop iteration (one data access each).
const LOOP_BODY: u32 = 4;

/// Pointer-chase node spacing: one 64-B line apart kills spatial reuse.
const NODE_STRIDE: u32 = 64;

/// Upper bound on pointer-chase cycle length, so a hostile spec cannot
/// demand an unbounded shuffle table (2^20 nodes ≈ 4 MiB of table).
const MAX_CHASE_NODES: u32 = 1 << 20;

/// Upper bound on hot-set size for the zipf and phase-change patterns:
/// bounds the alias table and keeps `rank * 32` addressing inside u32.
const MAX_HOT_LINES: u32 = 1 << 20;

/// Distance between consecutive phase regions of
/// [`SynthPattern::PhaseChange`]: 1 MiB apart, so a migrated hot set
/// shares no lines (and in general no sets) with its predecessor.
const PHASE_STRIDE: u32 = 1 << 20;

/// Upper bound on phase count: `DATA_BASE + 255 · PHASE_STRIDE` plus a
/// full phase-sized hot set still sits below `COLD_BASE`, so no phase's
/// hot region can ever alias the cold-scatter window (or wrap).
const MAX_PHASES: u32 = 255;

/// Upper bound on a phase's hot-set size: one full [`PHASE_STRIDE`] of
/// 32-byte lines, so consecutive phase regions never overlap each other.
const MAX_PHASE_HOT_LINES: u32 = PHASE_STRIDE / 32;

/// The wrap region for strided walks: 1 MiB, comfortably larger than any
/// simulated cache.
const STRIDE_REGION: u32 = 1 << 20;

/// Distance between consecutive loop regions of
/// [`SynthPattern::MultiLoop`]: one 4 KiB page apart, so distinct loops
/// never share a cache line (and spread across sets).
const MLOOP_STRIDE: u32 = 4096;

/// Upper bound on [`SynthPattern::MultiLoop`] loop count: 4096 regions ×
/// [`MLOOP_STRIDE`] stays comfortably below [`DATA_BASE`], so the
/// instruction footprint never aliases the data region.
const MAX_LOOPS: u32 = 1 << 12;

/// Byte offset of the payload word a [`SynthPattern::RwChase`] store
/// writes within a visited node's line (the "next" pointer being read
/// sits at offset 0; both land in the same 64-B line).
const RW_PAYLOAD_OFFSET: u32 = 8;

/// Deterministic xorshift32 — the same tiny RNG family the workload
/// generators use; private copy so this crate's output never shifts
/// under a neighbour's refactor.
struct XorShift32(u32);

impl XorShift32 {
    fn new(seed: u32) -> Self {
        // Zero is xorshift's fixed point; nudge it off.
        XorShift32(seed.max(1))
    }

    fn next(&mut self) -> u32 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: u32) -> u32 {
        self.next() % bound.max(1)
    }
}

/// The spec's staleness fingerprint: FNV-1a64 over a canonical rendering
/// that folds in [`GENERATOR_VERSION`]. Stored in the `.wmtr` header so
/// a cache file produced by an older generator re-generates instead of
/// silently replaying.
///
/// Zipf specs additionally fold in [`powf_fingerprint`]: their alias
/// table derives from libm `powf`, which is not guaranteed to round
/// identically across platforms, so a cache dir copied between hosts
/// whose libm disagrees reads as stale and re-generates instead of
/// silently replaying a trace the local generator would not reproduce.
#[must_use]
pub fn source_hash(spec: SynthSpec) -> u64 {
    let libm = match spec.pattern {
        SynthPattern::ZipfHotSet { .. } => powf_fingerprint(),
        _ => 0,
    };
    let canonical = format!(
        "waymem-synth/v{GENERATOR_VERSION}/l{libm:016x}/{}",
        WorkloadId::Synthetic(spec).file_name()
    );
    fnv1a64(canonical.as_bytes())
}

/// A fingerprint of this host's `f64::powf` rounding behaviour: the
/// FNV-1a64 of the result bits at a grid of probe points spanning the
/// zipf weight computation's domain ((k+1) bases, −α exponents).
/// Memoized for the process lifetime. Two hosts whose libm agrees on
/// the probes almost surely agree on every weight; ones that differ get
/// different zipf [`source_hash`]es and never share cached traces.
#[must_use]
pub fn powf_fingerprint() -> u64 {
    use std::sync::OnceLock;
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let mut hash = waymem_trace::FNV1A64_SEED;
        for base in [2.0f64, 3.0, 5.0, 17.0, 1023.0, 65537.0, 1048576.0] {
            for alpha in [0.01f64, 0.37, 0.99, 1.0, 1.73, 2.41, 13.0, 99.0] {
                hash = waymem_trace::fnv1a64_update(
                    hash,
                    &base.powf(-alpha).to_bits().to_le_bytes(),
                );
            }
        }
        hash
    })
}

/// The seven-pattern suite the `ingest` bench bin runs alongside any
/// ingested logs: one spec per locality regime, all at `accesses` data
/// accesses with a fixed seed (deterministic per host; the zipf row's
/// cross-host caching is guarded by [`powf_fingerprint`]).
#[must_use]
pub fn standard_suite(accesses: u32) -> Vec<SynthSpec> {
    [
        SynthPattern::Stream,
        SynthPattern::Strided { stride: 64 },
        SynthPattern::PointerChase { nodes: 4096 },
        SynthPattern::ZipfHotSet { hot_lines: 64, alpha_centi: 100 },
        SynthPattern::PhaseChange { hot_lines: 64, phases: 4 },
        SynthPattern::MultiLoop { loops: 64, period: 4 },
        SynthPattern::RwChase { nodes: 4096 },
    ]
    .into_iter()
    .map(|pattern| SynthSpec { pattern, accesses, seed: 1 })
    .collect()
}

/// A Walker/Vose alias table over the zipf(α) rank distribution
/// p(k) ∝ 1/(k+1)^α for `n` ranks: O(n) to build, then O(1) *pure
/// integer* sampling — two RNG draws and one threshold compare — so the
/// f64 work happens once per trace, not once per access. Thresholds are
/// fixed-point (scaled to 2³²), making the sample path bit-deterministic
/// for a given table.
struct ZipfAlias {
    /// Per-slot acceptance threshold, scaled so 2³² = "always accept".
    threshold: Vec<u64>,
    /// The rank drawn when the slot's threshold rejects.
    alias: Vec<u32>,
}

impl ZipfAlias {
    /// Builds the table for `n` ranks (clamped to ≥ 1) at α =
    /// `alpha_centi` / 100. α = 0 degenerates to uniform.
    fn new(n: u32, alpha_centi: u32) -> Self {
        let n = n.max(1) as usize;
        let alpha = f64::from(alpha_centi) / 100.0;
        let weights: Vec<f64> = (0..n).map(|k| ((k + 1) as f64).powf(-alpha)).collect();
        let total: f64 = weights.iter().sum();
        // Vose's method: scale every probability by n (mean 1.0), pair
        // each under-full slot with an over-full donor.
        let mut scaled: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (k, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(k);
            } else {
                large.push(k);
            }
        }
        let mut threshold = vec![1u64 << 32; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            threshold[s] = (scaled[s] * (1u64 << 32) as f64) as u64;
            alias[s] = l as u32;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Slots left on either stack are exactly full (modulo rounding):
        // they keep the always-accept threshold.
        ZipfAlias { threshold, alias }
    }

    /// Draws one rank in `0..n`; rank 0 is the hottest.
    fn sample(&self, rng: &mut XorShift32) -> u32 {
        let slot = rng.below(self.threshold.len() as u32) as usize;
        if u64::from(rng.next()) < self.threshold[slot] {
            slot as u32
        } else {
            self.alias[slot]
        }
    }
}

/// A single random cycle over `0..nodes` (Sattolo's algorithm): exactly
/// one orbit, so a chase visits every node before repeating.
fn chase_cycle(nodes: u32, rng: &mut XorShift32) -> Vec<u32> {
    let n = nodes.clamp(1, MAX_CHASE_NODES) as usize;
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut i = n;
    while i > 1 {
        i -= 1;
        let j = rng.below(i as u32) as usize; // j < i: Sattolo, not Fisher-Yates
        perm.swap(i, j);
    }
    perm
}

/// Fabricates the trace a spec describes. Deterministic: equal specs
/// yield bit-identical traces. Memory scales with `spec.accesses`
/// (events are materialized, like any recorded trace).
#[must_use]
pub fn generate(spec: SynthSpec) -> RecordedTrace {
    let (stats, mut trace) = generate_into(spec, RecordedTrace::default());
    trace.cycles = stats.cycles;
    trace
}

/// Fabricates the trace a spec describes, streaming every event straight
/// into `sink` — the bounded-memory path: with a
/// [`StreamingEncoder`](waymem_trace::StreamingEncoder) sink an
/// arbitrarily long synthetic trace costs O(1) resident memory. Same
/// deterministic event stream as [`generate`].
pub fn generate_into<S: TraceSink>(spec: SynthSpec, sink: S) -> (IngestStats, S) {
    let mut rng = XorShift32::new(spec.seed ^ 0x9e37_79b9);
    let mut builder = TraceBuilder::new(sink);
    let mut chase = match spec.pattern {
        SynthPattern::PointerChase { nodes } | SynthPattern::RwChase { nodes } => {
            let cycle = chase_cycle(nodes, &mut rng);
            Some((cycle, 0u32))
        }
        _ => None,
    };
    // The node the most recent RwChase load visited; the following store
    // writes its payload word (same 64-B line).
    let mut rw_visited = 0u32;
    let zipf = match spec.pattern {
        SynthPattern::ZipfHotSet { hot_lines, alpha_centi } => {
            Some(ZipfAlias::new(hot_lines.min(MAX_HOT_LINES), alpha_centi))
        }
        _ => None,
    };
    for i in 0..spec.accesses {
        // The modelled loop: LOOP_BODY sequential fetches; the next
        // iteration's first fetch is then inferred as the backward
        // branch, giving I-side schemes the recurrence real loops have.
        // MultiLoop rotates the loop's PC region round-robin, so the
        // region switch is inferred as a cross-region taken branch.
        let loop_base = match spec.pattern {
            SynthPattern::MultiLoop { loops, period } => {
                let idx = (i / period.max(1)) % loops.clamp(1, MAX_LOOPS);
                LOOP_BASE + idx * MLOOP_STRIDE
            }
            _ => LOOP_BASE,
        };
        for k in 0..LOOP_BODY {
            builder.push(Op::Instr, u64::from(loop_base + 4 * k), 4);
        }
        let (op, addr) = match spec.pattern {
            SynthPattern::Stream => {
                // Streaming copy flavour: three sequential loads, then a
                // sequential store to a parallel output region.
                let addr = DATA_BASE.wrapping_add(4 * i);
                let op = if i % 4 == 3 { Op::Store } else { Op::Load };
                (op, addr)
            }
            SynthPattern::Strided { stride } => {
                let offset = (u64::from(i) * u64::from(stride.max(1))) % u64::from(STRIDE_REGION);
                (Op::Load, DATA_BASE + offset as u32)
            }
            SynthPattern::PointerChase { .. } => {
                let (cycle, cur) = chase.as_mut().expect("chase state initialized");
                let addr = DATA_BASE + *cur * NODE_STRIDE;
                *cur = cycle[*cur as usize];
                (Op::Load, addr)
            }
            SynthPattern::RwChase { .. } => {
                // Visit = one load of the node's next pointer, then one
                // store to its payload word: alternating accesses chase
                // the same cycle at half speed with a 50/50 read/write
                // mix, every store recurring over the line the preceding
                // load just touched.
                let (cycle, cur) = chase.as_mut().expect("chase state initialized");
                if i % 2 == 0 {
                    rw_visited = *cur;
                    let addr = DATA_BASE + *cur * NODE_STRIDE;
                    *cur = cycle[*cur as usize];
                    (Op::Load, addr)
                } else {
                    (Op::Store, DATA_BASE + rw_visited * NODE_STRIDE + RW_PAYLOAD_OFFSET)
                }
            }
            SynthPattern::MultiLoop { .. } => {
                // The data side stays neutral — a pure sequential read
                // stream — so the rotating instruction footprint is the
                // only variable under test.
                (Op::Load, DATA_BASE.wrapping_add(4 * i))
            }
            SynthPattern::ZipfHotSet { .. } => {
                if rng.below(10) < 9 {
                    // Hot: true zipf(α) rank via the alias table (rank 0
                    // hottest), random word within the line.
                    let rank = zipf.as_ref().expect("zipf table initialized").sample(&mut rng);
                    let word = rng.below(8);
                    let op = if rng.below(8) == 0 { Op::Store } else { Op::Load };
                    (op, DATA_BASE + rank * 32 + word * 4)
                } else {
                    // Cold: uniform scatter over 4 MiB.
                    (Op::Load, COLD_BASE + rng.below(1 << 20) * 4)
                }
            }
            SynthPattern::PhaseChange { hot_lines, phases } => {
                // The hot set migrates to a fresh 1 MiB-apart region at
                // each phase boundary; within a phase it behaves like a
                // uniform hot set (the migration, not the skew, is the
                // regime under test). Both knobs are clamped so phase
                // regions can neither overlap each other nor reach the
                // cold-scatter window.
                let lines = hot_lines.clamp(1, MAX_PHASE_HOT_LINES);
                let phase_len = spec.accesses.div_ceil(phases.clamp(1, MAX_PHASES)).max(1);
                let base = DATA_BASE + (i / phase_len).min(MAX_PHASES - 1) * PHASE_STRIDE;
                if rng.below(10) < 9 {
                    let rank = rng.below(lines);
                    let word = rng.below(8);
                    let op = if rng.below(8) == 0 { Op::Store } else { Op::Load };
                    (op, base.wrapping_add(rank * 32 + word * 4))
                } else {
                    (Op::Load, COLD_BASE + rng.below(1 << 20) * 4)
                }
            }
        };
        builder.push(op, u64::from(addr), 4);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use waymem_isa::{FetchKind, TraceEvent};

    fn spec(pattern: SynthPattern) -> SynthSpec {
        SynthSpec { pattern, accesses: 1000, seed: 1 }
    }

    #[test]
    fn generation_is_deterministic() {
        for s in standard_suite(500) {
            assert_eq!(generate(s), generate(s), "{:?}", s.pattern);
        }
    }

    const ZIPF64: SynthPattern = SynthPattern::ZipfHotSet { hot_lines: 64, alpha_centi: 100 };

    #[test]
    fn seeds_change_randomized_patterns() {
        let a = generate(SynthSpec { pattern: ZIPF64, accesses: 1000, seed: 1 });
        let b = generate(SynthSpec { pattern: ZIPF64, accesses: 1000, seed: 2 });
        assert_ne!(a, b);
    }

    #[test]
    fn every_pattern_produces_the_requested_accesses() {
        for s in standard_suite(1000) {
            let t = generate(s);
            assert_eq!(t.data_events.len(), 1000, "{:?}", s.pattern);
            assert_eq!(t.fetch_events.len(), 4000, "{:?}", s.pattern);
            assert_eq!(t.cycles, 4000, "{:?}", s.pattern);
        }
    }

    #[test]
    fn stream_is_sequential() {
        let t = generate(spec(SynthPattern::Stream));
        let addrs: Vec<u32> = t.data_events.iter().map(|e| e.primary_addr()).collect();
        assert!(addrs.windows(2).all(|w| w[1] == w[0] + 4));
    }

    #[test]
    fn strided_walk_wraps_the_region() {
        let t = generate(SynthSpec {
            pattern: SynthPattern::Strided { stride: STRIDE_REGION / 4 },
            accesses: 16,
            seed: 1,
        });
        let addrs: Vec<u32> = t.data_events.iter().map(|e| e.primary_addr()).collect();
        assert_eq!(addrs[0], DATA_BASE);
        assert_eq!(addrs[4], DATA_BASE, "stride of region/4 must wrap every 4 accesses");
        assert!(addrs.iter().all(|&a| a < DATA_BASE + STRIDE_REGION));
    }

    #[test]
    fn pointer_chase_visits_every_node_once_per_lap() {
        let nodes = 64;
        let t = generate(SynthSpec {
            pattern: SynthPattern::PointerChase { nodes },
            accesses: nodes * 2,
            seed: 3,
        });
        let addrs: Vec<u32> = t.data_events.iter().map(|e| e.primary_addr()).collect();
        let mut first_lap: Vec<u32> = addrs[..nodes as usize].to_vec();
        first_lap.sort_unstable();
        first_lap.dedup();
        assert_eq!(first_lap.len(), nodes as usize, "one full orbit before repeating");
        // Second lap repeats the first exactly (it is a cycle).
        assert_eq!(&addrs[..nodes as usize], &addrs[nodes as usize..]);
    }

    #[test]
    fn zipf_concentrates_in_the_hot_set() {
        let t = generate(spec(ZIPF64));
        let hot = t
            .data_events
            .iter()
            .filter(|e| e.primary_addr() < DATA_BASE + 64 * 32)
            .count();
        let frac = hot as f64 / t.data_events.len() as f64;
        assert!(frac > 0.8, "hot fraction {frac}");
        assert!(frac < 1.0, "some cold scatter must remain");
    }

    #[test]
    fn zipf_alias_matches_the_analytic_distribution() {
        // Sample the alias table heavily and compare per-rank frequencies
        // against p(k) ∝ 1/(k+1)^α — the property the min-of-two-uniforms
        // hack failed.
        let (n, alpha_centi, draws) = (8u32, 100u32, 200_000u32);
        let table = ZipfAlias::new(n, alpha_centi);
        let mut counts = vec![0u64; n as usize];
        let mut rng = XorShift32::new(42);
        for _ in 0..draws {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        let harmonic: f64 = (1..=n).map(|k| 1.0 / f64::from(k)).sum();
        for (k, &c) in counts.iter().enumerate() {
            let expect = 1.0 / (k as f64 + 1.0) / harmonic;
            let got = c as f64 / f64::from(draws);
            assert!(
                (got - expect).abs() < 0.01,
                "rank {k}: got {got:.4}, expected {expect:.4}"
            );
        }
    }

    #[test]
    fn zipf_alpha_controls_the_skew() {
        // Higher α concentrates more probability on rank 0; α = 0 is
        // uniform.
        let hot_share = |alpha_centi: u32| {
            let table = ZipfAlias::new(64, alpha_centi);
            let mut rng = XorShift32::new(7);
            let hits = (0..100_000).filter(|_| table.sample(&mut rng) == 0).count();
            hits as f64 / 100_000.0
        };
        let uniform = hot_share(0);
        let classic = hot_share(100);
        let steep = hot_share(200);
        assert!((uniform - 1.0 / 64.0).abs() < 0.005, "α=0 must be uniform, got {uniform}");
        assert!(classic > 2.0 * uniform, "α=1 skews to rank 0 ({classic} vs {uniform})");
        assert!(steep > classic, "α=2 skews harder ({steep} vs {classic})");
    }

    #[test]
    fn alpha_changes_the_generated_trace_and_its_hash() {
        let a = SynthSpec { pattern: ZIPF64, accesses: 1000, seed: 1 };
        let b = SynthSpec {
            pattern: SynthPattern::ZipfHotSet { hot_lines: 64, alpha_centi: 200 },
            accesses: 1000,
            seed: 1,
        };
        assert_ne!(generate(a), generate(b));
        assert_ne!(source_hash(a), source_hash(b));
    }

    #[test]
    fn phase_change_migrates_the_hot_set() {
        let accesses = 4000;
        let t = generate(SynthSpec {
            pattern: SynthPattern::PhaseChange { hot_lines: 64, phases: 4 },
            accesses,
            seed: 1,
        });
        // Each quarter's hot accesses must land in its own 1 MiB region.
        let phase_len = accesses as usize / 4;
        for phase in 0..4u32 {
            let base = DATA_BASE + phase * PHASE_STRIDE;
            let events = &t.data_events[phase as usize * phase_len..][..phase_len];
            let in_region = events
                .iter()
                .filter(|e| {
                    let a = e.primary_addr();
                    a >= base && a < base + 64 * 32
                })
                .count();
            let frac = in_region as f64 / phase_len as f64;
            assert!(frac > 0.8, "phase {phase}: hot fraction {frac}");
        }
        // And phase 1's hot region must be untouched during phase 0.
        let phase1_base = DATA_BASE + PHASE_STRIDE;
        assert!(
            t.data_events[..phase_len].iter().all(|e| {
                let a = e.primary_addr();
                a < phase1_base || a >= phase1_base + 64 * 32
            }),
            "phase 0 must not touch phase 1's hot set"
        );
    }

    #[test]
    fn multi_loop_rotates_page_separated_regions() {
        let (loops, period) = (8u32, 4u32);
        let t = generate(SynthSpec {
            pattern: SynthPattern::MultiLoop { loops, period },
            accesses: loops * period * 2, // two full rotations
            seed: 1,
        });
        // Every loop region is visited, each page-aligned relative to
        // LOOP_BASE, and the rotation switches exactly every `period`
        // iterations (LOOP_BODY fetches per iteration).
        let bases: Vec<u32> = t
            .fetch_events
            .iter()
            .map(|e| match e {
                TraceEvent::Fetch { pc, .. } => pc & !(MLOOP_STRIDE - 1),
                other => panic!("non-fetch in fetch stream: {other:?}"),
            })
            .collect();
        let mut distinct: Vec<u32> = bases.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), loops as usize, "all {loops} regions visited");
        for (n, base) in bases.chunks((period * LOOP_BODY) as usize).enumerate() {
            let expect = LOOP_BASE + (n as u32 % loops) * MLOOP_STRIDE;
            assert!(base.iter().all(|&b| b == expect), "chunk {n} stays in its region");
        }
        // One loop degenerates to the shared single-loop model.
        let single = generate(SynthSpec {
            pattern: SynthPattern::MultiLoop { loops: 1, period },
            accesses: 100,
            seed: 1,
        });
        assert!(single.fetch_events.iter().all(|e| match e {
            TraceEvent::Fetch { pc, .. } => (LOOP_BASE..LOOP_BASE + 4 * LOOP_BODY).contains(pc),
            _ => false,
        }));
    }

    #[test]
    fn rw_chase_alternates_loads_and_stores_over_the_same_nodes() {
        let nodes = 64u32;
        let t = generate(SynthSpec {
            pattern: SynthPattern::RwChase { nodes },
            accesses: nodes * 4, // two full laps at two accesses per visit
            seed: 3,
        });
        let mut visited: Vec<u32> = Vec::new();
        for pair in t.data_events.chunks(2) {
            let (load, store) = (&pair[0], &pair[1]);
            assert!(matches!(load, TraceEvent::Load { .. }), "even access is the pointer read");
            assert!(matches!(store, TraceEvent::Store { .. }), "odd access is the payload write");
            // The store lands RW_PAYLOAD_OFFSET into the line the load
            // just read — same node, same 64-B line.
            assert_eq!(store.primary_addr(), load.primary_addr() + RW_PAYLOAD_OFFSET);
            visited.push((load.primary_addr() - DATA_BASE) / NODE_STRIDE);
        }
        let mut lap: Vec<u32> = visited[..nodes as usize].to_vec();
        lap.sort_unstable();
        lap.dedup();
        assert_eq!(lap.len(), nodes as usize, "one full orbit before repeating");
        assert_eq!(&visited[..nodes as usize], &visited[nodes as usize..]);
    }

    #[test]
    fn fetch_stream_models_a_loop() {
        let t = generate(spec(SynthPattern::Stream));
        // First iteration: all sequential. Second iteration opens with
        // the inferred backward branch from the loop's last instruction.
        assert!(matches!(t.fetch_events[0], TraceEvent::Fetch { kind: FetchKind::Sequential, .. }));
        assert!(matches!(
            t.fetch_events[4],
            TraceEvent::Fetch {
                pc,
                kind: FetchKind::TakenBranch { base, .. }
            } if pc == LOOP_BASE && base == LOOP_BASE + 4 * (LOOP_BODY - 1)
        ));
    }

    #[test]
    fn powf_fingerprint_is_stable_and_folded_into_zipf_hashes_only() {
        assert_eq!(powf_fingerprint(), powf_fingerprint());
        assert_ne!(powf_fingerprint(), 0);
        // Only zipf specs depend on powf; the integer-only generators'
        // hashes must not vary with the host's libm.
        let stream = spec(SynthPattern::Stream);
        let canonical = format!(
            "waymem-synth/v{GENERATOR_VERSION}/l{:016x}/{}",
            0,
            WorkloadId::Synthetic(stream).file_name()
        );
        assert_eq!(source_hash(stream), fnv1a64(canonical.as_bytes()));
    }

    #[test]
    fn source_hash_distinguishes_specs_and_versions() {
        let a = source_hash(spec(SynthPattern::Stream));
        let b = source_hash(spec(SynthPattern::Strided { stride: 64 }));
        let c = source_hash(SynthSpec { pattern: SynthPattern::Stream, accesses: 1000, seed: 2 });
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, 0);
    }

    #[test]
    fn hostile_specs_stay_bounded() {
        // A huge node count clamps the shuffle table; the access count
        // still rules the trace size.
        let t = generate(SynthSpec {
            pattern: SynthPattern::PointerChase { nodes: u32::MAX },
            accesses: 10,
            seed: 1,
        });
        assert_eq!(t.data_events.len(), 10);
        let t = generate(SynthSpec {
            pattern: SynthPattern::Strided { stride: 0 },
            accesses: 10,
            seed: 1,
        });
        assert_eq!(t.data_events.len(), 10);
        let t = generate(SynthSpec {
            pattern: SynthPattern::ZipfHotSet { hot_lines: 0, alpha_centi: u32::MAX },
            accesses: 10,
            seed: 1,
        });
        assert_eq!(t.data_events.len(), 10);
        // A huge hot set clamps the alias table; a huge phase count
        // degenerates to one migration per access — neither panics.
        let t = generate(SynthSpec {
            pattern: SynthPattern::ZipfHotSet { hot_lines: u32::MAX, alpha_centi: 100 },
            accesses: 10,
            seed: 1,
        });
        assert_eq!(t.data_events.len(), 10);
        let t = generate(SynthSpec {
            pattern: SynthPattern::PhaseChange { hot_lines: u32::MAX, phases: u32::MAX },
            accesses: 10,
            seed: 1,
        });
        assert_eq!(t.data_events.len(), 10);
        let t = generate(SynthSpec {
            pattern: SynthPattern::PhaseChange { hot_lines: 0, phases: 0 },
            accesses: 10,
            seed: 1,
        });
        assert_eq!(t.data_events.len(), 10);
        // A huge loop count clamps to MAX_LOOPS regions inside the
        // instruction space; a zero period rotates every iteration.
        let t = generate(SynthSpec {
            pattern: SynthPattern::MultiLoop { loops: u32::MAX, period: 0 },
            accesses: 10,
            seed: 1,
        });
        assert_eq!(t.data_events.len(), 10);
        assert!(t.fetch_events.iter().all(|e| match e {
            TraceEvent::Fetch { pc, .. } => *pc < DATA_BASE,
            _ => false,
        }));
        for nodes in [0, u32::MAX] {
            let t = generate(SynthSpec {
                pattern: SynthPattern::RwChase { nodes },
                accesses: 10,
                seed: 1,
            });
            assert_eq!(t.data_events.len(), 10);
        }
    }
}
