//! Cross-crate soundness tests: the MAB never lies about the cache, cache
//! front-ends never change program semantics, and all schemes observe the
//! same trace.

use waymem::isa::{Cpu, FetchKind, NullSink, TraceSink};
use waymem::prelude::*;
use waymem::sim::{DFront, IFront};

/// A sink that feeds a D and an I front-end straight from the CPU and
/// counts the events. Every MAB claim is checked against the cache after
/// every access by `dcache::tests` on each kernel's data stream.
struct FrontSink {
    d: DFront,
    i: IFront,
    events: u64,
}

impl TraceSink for FrontSink {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        self.i.fetch(pc, kind);
        self.events += 1;
    }
    fn load(&mut self, base: u32, disp: i32, addr: u32, _size: u8) {
        self.d.access(false, base, disp, addr);
        self.events += 1;
    }
    fn store(&mut self, base: u32, disp: i32, addr: u32, _size: u8) {
        self.d.access(true, base, disp, addr);
        self.events += 1;
    }
}

#[test]
fn benchmark_results_are_independent_of_attached_frontends() {
    // Functional equivalence: cache modelling is observation-only, so the
    // architectural result (checksum in a0, instret) must not change.
    for &bench in &[Benchmark::Dct, Benchmark::Compress, Benchmark::Dhrystone] {
        let wl = bench.workload(1).expect("assembles");

        let mut bare = Cpu::new(&wl.program);
        bare.run(wl.max_steps, &mut NullSink).expect("runs");

        let geometry = Geometry::frv();
        let mut sink = FrontSink {
            d: DScheme::paper_way_memo().build(geometry),
            i: IScheme::paper_way_memo().build(geometry),
            events: 0,
        };
        let mut traced = Cpu::new(&wl.program);
        traced.run(wl.max_steps, &mut sink).expect("runs");

        assert_eq!(bare.reg(10), traced.reg(10), "{bench}: checksum differs");
        assert_eq!(bare.instret(), traced.instret(), "{bench}");
        assert!(sink.events > 100_000, "{bench}: trace actually flowed");
    }
}

#[test]
fn smaller_caches_stress_invalidation_without_unsoundness() {
    // A 1 kB cache under a real benchmark forces constant evictions; the
    // known-way debug_asserts in the front-ends catch any stale-way use.
    let geometry = Geometry::new(16, 2, 32).expect("valid");
    let r = Experiment::kernel(Benchmark::JpegEnc)
        .geometry(geometry)
        .dschemes([DScheme::paper_way_memo()])
        .ischemes([IScheme::paper_way_memo()])
        .run()
        .expect("runs");
    let d = &r.dcache[0].stats;
    assert!(d.misses > 100, "tiny cache must actually miss a lot");
    assert!(d.is_consistent());
    // MAB still achieves hits despite the churn.
    assert!(d.mab_hits > 0);
}

#[test]
fn all_schemes_observe_identical_access_streams() {
    let r = Experiment::kernel(Benchmark::Whetstone)
        .dschemes([
            DScheme::Original,
            DScheme::SetBuffer { entries: 1 },
            DScheme::paper_way_memo(),
            DScheme::WayPredict,
            DScheme::TwoPhase,
        ])
        .ischemes([
            IScheme::Original,
            IScheme::IntraLine,
            IScheme::paper_way_memo(),
        ])
        .run()
        .expect("runs");
    let d_accesses: Vec<u64> = r.dcache.iter().map(|s| s.stats.accesses).collect();
    assert!(d_accesses.windows(2).all(|w| w[0] == w[1]), "{d_accesses:?}");
    let i_accesses: Vec<u64> = r.icache.iter().map(|s| s.stats.accesses).collect();
    assert!(i_accesses.windows(2).all(|w| w[0] == w[1]), "{i_accesses:?}");
    // Identical hits/misses too: lookup scheme must not change residency.
    let d_hits: Vec<u64> = r.dcache.iter().map(|s| s.stats.hits).collect();
    assert!(d_hits.windows(2).all(|w| w[0] == w[1]), "{d_hits:?}");
}
