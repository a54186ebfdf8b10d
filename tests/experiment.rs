//! The `Experiment` builder, end to end through the façade: every
//! workload kind (kernel, recorded, synthetic, ingested log, bare id),
//! store transparency, a list run through `Experiment::run_all` equal to
//! its lone experiments, and a property test that no builder combination
//! — however hostile — ever panics: every bad input, a panicking front
//! included, is a structured [`RunError`].

use std::sync::Arc;

use proptest::prelude::*;
use waymem::ingest::synth;
use waymem::isa::RecordedTrace;
use waymem::prelude::*;
use waymem::sim::SchemeResult;

fn power_bits(r: &SchemeResult) -> [u64; 4] {
    [
        r.power.data_mw.to_bits(),
        r.power.tag_mw.to_bits(),
        r.power.mab_mw.to_bits(),
        r.power.buffer_mw.to_bits(),
    ]
}

fn assert_identical(a: &SimResult, b: &SimResult) {
    assert_eq!(a.workload, b.workload);
    assert_eq!(a.cycles, b.cycles, "{}: cycle counts differ", a.workload);
    assert_eq!(a.dcache.len(), b.dcache.len());
    assert_eq!(a.icache.len(), b.icache.len());
    for (x, y) in a.dcache.iter().zip(&b.dcache).chain(a.icache.iter().zip(&b.icache)) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.stats, y.stats, "{}/{}: access stats differ", a.workload, x.name);
        assert_eq!(x.energy, y.energy, "{}/{}: energy counts differ", a.workload, x.name);
        assert_eq!(x.extra_cycles, y.extra_cycles);
        assert_eq!(
            power_bits(x),
            power_bits(y),
            "{}/{}: power not bit-identical",
            a.workload,
            x.name
        );
    }
}

fn schemes() -> (Vec<DScheme>, Vec<IScheme>) {
    (
        vec![DScheme::Original, DScheme::paper_way_memo()],
        vec![IScheme::Original, IScheme::paper_way_memo()],
    )
}

/// A little CSV log on disk, cleaned up on drop.
struct TempLog(std::path::PathBuf);

impl TempLog {
    fn new(name: &str, content: &str) -> Self {
        let path = std::env::temp_dir().join(format!("waymem-exp-{}-{name}", std::process::id()));
        std::fs::write(&path, content).expect("write temp log");
        TempLog(path)
    }

    fn csv(name: &str) -> Self {
        let mut log = String::new();
        for i in 0u32..500 {
            log.push_str(&format!("fetch,0x{:x},4\n", 0x1000 + 4 * (i % 16)));
            log.push_str(&format!("load,0x{:x},4\n", 0x8000 + 4 * (i % 64)));
        }
        Self::new(&format!("{name}.csv"), &log)
    }
}

impl Drop for TempLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A trace-cache directory, removed with everything in it on drop.
struct TempCacheDir(std::path::PathBuf);

impl TempCacheDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("waymem-exp-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempCacheDir(dir)
    }

    /// The `.wmtr` files the directory holds (none when it does not exist).
    fn traces(&self) -> Vec<std::path::PathBuf> {
        let entries = std::fs::read_dir(&self.0).into_iter().flatten().flatten();
        entries.map(|e| e.path()).filter(|p| p.extension().is_some_and(|x| x == "wmtr")).collect()
    }
}

impl Drop for TempCacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn phase_change_synthetic_runs_as_an_experiment_workload() {
    // The ROADMAP's phase-change pattern, straight through the builder:
    // migrating hot sets must hurt the MAB more than a stationary hot
    // set of the same size (every migration cold-starts its state).
    let run = |pattern| {
        let r = Experiment::synthetic(SynthSpec { pattern, accesses: 50_000, seed: 3 })
            .dschemes([DScheme::paper_way_memo()])
            .run()
            .expect("runs");
        let s = &r.dcache[0].stats;
        assert!(s.is_consistent());
        s.mab_hit_rate()
    };
    let stationary = run(SynthPattern::ZipfHotSet { hot_lines: 64, alpha_centi: 0 });
    let migrating = run(SynthPattern::PhaseChange { hot_lines: 64, phases: 16 });
    assert!(migrating > 0.0, "the MAB still learns within phases");
    assert!(
        migrating < stationary,
        "migration must cost MAB hits: {migrating:.3} vs stationary {stationary:.3}"
    );
}

#[test]
fn multi_loop_synthetic_costs_imab_hits_vs_a_single_loop() {
    // The ROADMAP's multi-loop instruction-footprint pattern: rotating
    // through many page-separated inner loops must overflow the I-MAB's
    // capacity, where a single loop's footprint fits it entirely.
    let run = |loops| {
        let r = Experiment::synthetic(SynthSpec {
            pattern: SynthPattern::MultiLoop { loops, period: 4 },
            accesses: 50_000,
            seed: 3,
        })
        .ischemes([IScheme::paper_way_memo()])
        .run()
        .expect("runs");
        let s = &r.icache[0].stats;
        assert!(s.is_consistent());
        s.mab_hit_rate()
    };
    let single = run(1);
    let many = run(64);
    assert!(many > 0.0, "the I-MAB still memoizes within a resident loop");
    assert!(
        many < single,
        "a 64-loop footprint must cost I-MAB hits: {many:.3} vs single-loop {single:.3}"
    );
}

#[test]
fn rw_chase_synthetic_mixes_reads_and_writes() {
    // The mixed read/write pointer chase: same builder path as every
    // other synthetic, with both loads and stores hitting the D-side.
    let r = Experiment::synthetic(SynthSpec {
        pattern: SynthPattern::RwChase { nodes: 512 },
        accesses: 20_000,
        seed: 1,
    })
    .dschemes([DScheme::Original, DScheme::paper_way_memo()])
    .run()
    .expect("runs");
    let s = &r.dcache[0].stats;
    assert!(s.is_consistent());
    assert_eq!(s.accesses, 20_000);
}

#[test]
fn synthetic_experiment_is_store_transparent_and_deterministic() {
    let (d, i) = schemes();
    let spec = SynthSpec {
        pattern: SynthPattern::PhaseChange { hot_lines: 32, phases: 4 },
        accesses: 10_000,
        seed: 1,
    };
    let run_plain = || {
        Experiment::synthetic(spec)
            .dschemes(d.clone())
            .ischemes(i.clone())
            .run()
            .expect("runs")
    };
    let store = TraceStore::new();
    let plain = run_plain();
    assert_identical(&plain, &run_plain());
    for _ in 0..2 {
        let stored = Experiment::synthetic(spec)
            .dschemes(d.clone())
            .ischemes(i.clone())
            .store(&store)
            .run()
            .expect("runs");
        assert_identical(&plain, &stored);
    }
    assert_eq!(store.stats().records, 1, "generated once, replayed twice");
}

#[test]
fn ingested_log_matches_recorded_trace_route() {
    let log = TempLog::csv("route");
    let (d, i) = schemes();
    let ingested = parse_path(&log.0).expect("parses");
    let via_ingest = Experiment::ingest(&log.0)
        .dschemes(d.clone())
        .ischemes(i.clone())
        .run()
        .expect("ingest runs");
    let via_recorded = Experiment::recorded(ingested.workload_id(), ingested.trace)
        .dschemes(d)
        .ischemes(i)
        .run()
        .expect("recorded runs");
    assert_identical(&via_ingest, &via_recorded);
}

#[test]
fn warm_ingest_skips_the_parse_and_reports_no_meta() {
    let log = TempLog::csv("warm");
    let store = TraceStore::new();
    let exp = || {
        Experiment::ingest(&log.0)
            .dschemes([DScheme::Original])
            .store(&store)
    };
    let cold = exp().prepare().expect("cold prepare");
    assert!(cold.ingest_meta().is_some(), "cold run parses");
    let cold_result = cold.run().expect("cold replay");
    let warm = exp().prepare().expect("warm prepare");
    assert!(warm.ingest_meta().is_none(), "warm run replays the cache");
    assert_identical(&cold_result, &warm.run().expect("warm replay"));
    assert_eq!(store.stats().records, 1);
}

#[test]
fn bare_external_id_resolves_only_through_a_store() {
    let id = WorkloadId::External { hash: 0xfeed };
    let err = Experiment::workload(id)
        .dschemes([DScheme::Original])
        .run()
        .expect_err("nothing to produce the trace from");
    assert_eq!(err, RunError::MissingTrace { id });

    // With a store that holds the trace, the same id replays it.
    let store = TraceStore::new();
    let trace = synth::generate(SynthSpec {
        pattern: SynthPattern::Stream,
        accesses: 100,
        seed: 1,
    });
    store
        .get_or_record(id, 0xfeed, || Ok::<_, std::convert::Infallible>(trace))
        .expect("seeds the store");
    let r = Experiment::workload(id)
        .dschemes([DScheme::Original])
        .store(&store)
        .run()
        .expect("resolves through the store");
    assert_eq!(r.workload, id);
}

#[test]
fn ingest_failures_are_structured_errors() {
    // Unreadable file.
    let missing = Experiment::ingest("/nonexistent/waymem-no-such-log.csv")
        .run()
        .expect_err("missing file");
    assert!(matches!(missing, RunError::Ingest { .. }), "{missing}");

    // Malformed line: error carries the path and the parser's message.
    let bad = TempLog::new("bad.csv", "load,0x10,4\nnot a record\n");
    let err = Experiment::ingest(&bad.0).run().expect_err("malformed log");
    match &err {
        RunError::Ingest { path, message } => {
            assert_eq!(path, &bad.0);
            assert!(message.contains("line 2"), "{message}");
        }
        other => panic!("expected Ingest, got {other:?}"),
    }

    // Empty capture.
    let empty = TempLog::new("empty.csv", "# nothing here\n");
    let err = Experiment::ingest(&empty.0).run().expect_err("empty log");
    assert!(matches!(err, RunError::Ingest { .. }), "{err}");
}

#[test]
fn suite_mixes_workload_kinds_in_order() {
    let store = TraceStore::new();
    let spec = SynthSpec {
        pattern: SynthPattern::Strided { stride: 64 },
        accesses: 5_000,
        seed: 1,
    };
    let log = TempLog::csv("suite");
    let schemes = [DScheme::Original, DScheme::paper_way_memo()];
    let experiments = [
        Experiment::kernel(Benchmark::Dct),
        Experiment::synthetic(spec),
        Experiment::ingest(&log.0),
    ];
    let results = Experiment::run_all(experiments.map(|exp| exp.dschemes(schemes).store(&store)))
        .expect("mixed suite runs");
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].workload, WorkloadId::kernel(Benchmark::Dct, 1));
    assert_eq!(results[1].workload, WorkloadId::Synthetic(spec));
    assert!(matches!(results[2].workload, WorkloadId::External { .. }));
    assert_eq!(store.stats().records, 3, "one production per workload");
}

#[test]
fn streaming_suite_matches_materialized_suite_across_workload_kinds() {
    // A mixed list (kernel + synthetic + ingested log) whose every
    // experiment streams, replayed through `run_all` from on-disk
    // `.wmtr` files in bounded batches, reproduces the materialized list
    // bit for bit.
    let spec = SynthSpec {
        pattern: SynthPattern::Strided { stride: 64 },
        accesses: 5_000,
        seed: 1,
    };
    let log = TempLog::csv("stream-suite");
    let suite = |streaming| {
        let experiments = [
            Experiment::kernel(Benchmark::Dct),
            Experiment::synthetic(spec),
            Experiment::ingest(&log.0),
        ];
        Experiment::run_all(experiments.map(|exp| {
            exp.dschemes([DScheme::Original, DScheme::paper_way_memo()])
                .ischemes([IScheme::Original, IScheme::paper_way_memo()])
                .streaming(streaming)
        }))
    };
    let materialized = suite(false).expect("materialized suite");
    let streamed = suite(true).expect("streaming suite");
    assert_eq!(materialized.len(), streamed.len());
    for (a, b) in materialized.iter().zip(streamed.iter()) {
        assert_identical(a, b);
    }
}

#[test]
fn streaming_recorded_workload_matches_materialized_replay() {
    // A `Recorded` workload in streaming mode spills the given trace to
    // a scratch `.wmtr` file and replays it from disk; the detour must
    // be invisible in the results.
    let trace = Arc::new(tiny_trace(600));
    let id = WorkloadId::External { hash: 0xabcd };
    let exp = || {
        Experiment::recorded(id, trace.clone())
            .dschemes([DScheme::Original, DScheme::paper_way_memo()])
            .ischemes([IScheme::Original])
    };
    let materialized = exp().run().expect("materialized");
    let streamed = exp().streaming(true).run().expect("streamed");
    assert_identical(&materialized, &streamed);
}

#[test]
fn streaming_external_id_resolves_only_through_a_store() {
    // Same contract as the materialized path: a bare external id has
    // nothing to produce the file from, so without a store (or with a
    // store that has never seen the id) the run fails structurally.
    let id = WorkloadId::External { hash: 0xbeef };
    let stream_err = Experiment::workload(id)
        .dschemes([DScheme::Original])
        .streaming(true)
        .run()
        .expect_err("no source for the trace");
    assert_eq!(stream_err, RunError::MissingTrace { id });

    // Seed the store in memory; the streaming run spills + replays it.
    let store = TraceStore::new();
    let trace = synth::generate(SynthSpec {
        pattern: SynthPattern::Stream,
        accesses: 100,
        seed: 1,
    });
    store
        .get_or_record(id, 0xbeef, || Ok::<_, std::convert::Infallible>(trace))
        .expect("seeds the store");
    let exp = |streaming| {
        Experiment::workload(id)
            .dschemes([DScheme::Original])
            .store(&store)
            .streaming(streaming)
            .run()
            .expect("resolves through the store")
    };
    assert_identical(&exp(false), &exp(true));
    assert_eq!(store.stats().stream_opens, 1);
}

#[test]
fn streaming_ingest_failures_are_structured_errors() {
    // The streaming parse path reports the same structured errors as
    // the materialized one: unreadable file, malformed line (with its
    // number), and an empty capture.
    let missing = Experiment::ingest("/nonexistent/waymem-no-such-log.csv")
        .streaming(true)
        .run()
        .expect_err("missing file");
    assert!(matches!(missing, RunError::Ingest { .. }), "{missing}");

    let bad = TempLog::new("stream-bad.csv", "load,0x10,4\nnot a record\n");
    let err = Experiment::ingest(&bad.0)
        .streaming(true)
        .run()
        .expect_err("malformed log");
    match &err {
        RunError::Ingest { path, message } => {
            assert_eq!(path, &bad.0);
            assert!(message.contains("line 2"), "{message}");
        }
        other => panic!("expected Ingest, got {other:?}"),
    }

    let empty = TempLog::new("stream-empty.csv", "# nothing here\n");
    let err = Experiment::ingest(&empty.0)
        .streaming(true)
        .run()
        .expect_err("empty log");
    assert!(matches!(err, RunError::Ingest { .. }), "{err}");
}

#[test]
fn a_failed_empty_log_ingest_never_poisons_the_trace_cache() {
    // An empty capture fails every time. The first streamed ingest must
    // not leave a sealed empty trace in the cache dir for a later run —
    // streamed, or in memory through a fresh store over the same dir —
    // to replay as a 0-cycle success.
    let dir = TempCacheDir::new("empty-log-cache");
    let empty = TempLog::new("cache-empty.csv", "# nothing here\n");
    let ingest = |store: &TraceStore, streaming| {
        Experiment::ingest(&empty.0)
            .dschemes([DScheme::Original])
            .store(store)
            .streaming(streaming)
            .run()
            .map(|r| r.cycles)
    };
    let store = TraceStore::with_cache_dir(&dir.0);
    let runs = [
        ingest(&store, true),
        ingest(&store, true),
        ingest(&TraceStore::with_cache_dir(&dir.0), false),
    ];
    for (n, run) in runs.iter().enumerate() {
        assert!(matches!(run, Err(RunError::Ingest { .. })), "run {}: {run:?}", n + 1);
    }
    assert!(dir.traces().is_empty(), "cache dir holds {:?}", dir.traces());
}

#[test]
fn suite_fails_with_the_first_failed_workloads_error() {
    // Two poisoned workloads among healthy ones: a log path that does not
    // exist, then an external id no store holds. Whether the experiments
    // run inline or fan out over workers, `run_all` fails with the first
    // failure in list order, as a serial loop would.
    let err = Experiment::run_all(
        [
            Experiment::kernel(Benchmark::Dct),
            Experiment::ingest("/nonexistent/waymem-poisoned.csv"),
            Experiment::kernel(Benchmark::Fft),
            Experiment::workload(WorkloadId::External { hash: 0xdead }),
        ]
        .map(|exp| exp.dschemes([DScheme::Original, DScheme::paper_way_memo()])),
    )
    .expect_err("the suite fails on the poisoned workloads");
    match &err {
        RunError::Ingest { path, .. } => assert!(path.ends_with("waymem-poisoned.csv"), "{err}"),
        other => panic!("expected the log's Ingest error, got {other:?}"),
    }
    assert!(err.is_retryable(), "ingest failures are retryable");
}

#[test]
fn a_panicking_front_is_a_worker_error_naming_the_panic() {
    // A zero-entry set buffer panics as its front is built. Alone it is
    // one replay chain, run inline; beside an I front it is one of two
    // chains, run on threads when the host has more than one. Either way
    // the run returns the panic's own message as a structured error.
    let spec = SynthSpec { pattern: SynthPattern::Stream, accesses: 100, seed: 1 };
    for ischemes in [vec![], vec![IScheme::Original]] {
        let err = Experiment::synthetic(spec)
            .dschemes([DScheme::SetBuffer { entries: 0 }])
            .ischemes(ischemes)
            .run()
            .expect_err("a zero-entry set buffer cannot run");
        match &err {
            RunError::Worker { message } => {
                assert!(message.contains("set buffer needs at least one entry"), "{message}");
            }
            other => panic!("expected Worker, got {other:?}"),
        }
    }
}

#[test]
fn catch_worker_converts_panics_into_structured_errors() {
    let err = catch_worker::<()>(|| panic!("boom in a worker")).expect_err("panic becomes Err");
    match &err {
        RunError::Worker { message } => assert!(message.contains("boom"), "{message}"),
        other => panic!("expected Worker, got {other:?}"),
    }
    assert!(!err.is_retryable(), "panics are not retryable");

    // Non-panicking results pass through untouched.
    let ok = catch_worker(|| Ok::<_, RunError>(17)).expect("plain Ok");
    assert_eq!(ok, 17);
}

#[test]
fn suite_results_equal_lone_experiments() {
    // `run_all` fans the kernels out over workers; each result must be
    // exactly what an experiment of that kernel alone returns.
    let (d, i) = schemes();
    let kernel = |bench| Experiment::kernel(bench).dschemes(d.clone()).ischemes(i.clone());
    let results = Experiment::run_all(Benchmark::ALL.map(kernel)).expect("suite runs");
    assert_eq!(results.len(), Benchmark::ALL.len());
    for (result, &bench) in results.iter().zip(&Benchmark::ALL) {
        assert_identical(result, &kernel(bench).run().expect("runs"));
    }
}

#[test]
fn run_all_runs_experiments_that_differ_as_each_runs_alone() {
    // Each experiment of the list keeps its own geometry, scheme set and
    // streaming flag: a kernel, a synthetic and a log that differ in all
    // three come back in list order, each bit-identical to its lone run.
    let spec =
        SynthSpec { pattern: SynthPattern::Strided { stride: 64 }, accesses: 5_000, seed: 1 };
    let log = TempLog::csv("differ");
    let experiments = || {
        [
            Experiment::kernel(Benchmark::Dct)
                .geometry(Geometry::new(16, 2, 32).expect("valid"))
                .dschemes([DScheme::Original, DScheme::paper_way_memo()])
                .ischemes([IScheme::IntraLine]),
            Experiment::synthetic(spec)
                .dschemes([DScheme::SetBuffer { entries: 1 }])
                .streaming(true),
            Experiment::ingest(&log.0)
                .geometry(Geometry::new(128, 8, 16).expect("valid"))
                .ischemes([IScheme::Original, IScheme::paper_way_memo(), IScheme::LinkMemo]),
        ]
    };
    let results = Experiment::run_all(experiments()).expect("the list runs");
    assert_eq!(results.len(), 3);
    let shapes: Vec<_> = results.iter().map(|r| (r.dcache.len(), r.icache.len())).collect();
    assert_eq!(shapes, [(2, 1), (1, 0), (0, 3)], "each experiment keeps its own schemes");
    assert_eq!(results[0].workload, WorkloadId::kernel(Benchmark::Dct, 1));
    assert_eq!(results[1].workload, WorkloadId::Synthetic(spec));
    for (result, lone) in results.iter().zip(experiments()) {
        assert_identical(result, &lone.run().expect("runs alone"));
    }
}

#[test]
fn run_all_returns_the_panicking_experiments_worker_error() {
    // The middle one of three experiments builds a zero-entry set buffer,
    // which panics. Whether the list runs inline or over workers, the
    // panic comes back as that experiment's structured error.
    let spec = SynthSpec { pattern: SynthPattern::Stream, accesses: 100, seed: 1 };
    let err = Experiment::run_all([
        Experiment::synthetic(spec).dschemes([DScheme::Original]),
        Experiment::synthetic(spec).dschemes([DScheme::SetBuffer { entries: 0 }]),
        Experiment::kernel(Benchmark::Dct).dschemes([DScheme::Original]),
    ])
    .expect_err("a zero-entry set buffer cannot run");
    match &err {
        RunError::Worker { message } => {
            assert!(message.contains("set buffer needs at least one entry"), "{message}");
        }
        other => panic!("expected Worker, got {other:?}"),
    }
}

/// A tiny hand-built trace for the proptest's recorded-workload arm.
fn tiny_trace(events: u32) -> RecordedTrace {
    use waymem::isa::{FetchKind, TraceEvent};
    RecordedTrace {
        fetch_events: (0..events)
            .map(|k| TraceEvent::Fetch { pc: 0x1000 + 4 * k, kind: FetchKind::Sequential })
            .collect(),
        data_events: (0..events / 2)
            .map(|k| TraceEvent::Load { base: 0x8000 + 8 * k, disp: 0, addr: 0x8000 + 8 * k, size: 4 })
            .collect(),
        cycles: u64::from(events),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any combination the builder accepts either runs or returns a
    /// structured `RunError` — never a panic, whatever the workload,
    /// scheme subset, geometry or store choice.
    #[test]
    fn random_builder_configurations_never_panic(
        wl_kind in 0u8..5,
        pattern_kind in 0u8..5,
        param in 0u32..300,
        accesses in 0u32..800,
        seed: u32,
        nd in 0usize..4,
        ni in 0usize..4,
        use_store in proptest::bool::ANY,
        streaming in proptest::bool::ANY,
        geom_kind in 0u8..3,
    ) {
        let pattern = match pattern_kind {
            0 => SynthPattern::Stream,
            1 => SynthPattern::Strided { stride: param },
            2 => SynthPattern::PointerChase { nodes: param },
            3 => SynthPattern::ZipfHotSet {
                hot_lines: param,
                alpha_centi: param.wrapping_mul(7),
            },
            _ => SynthPattern::PhaseChange { hot_lines: param, phases: param % 9 },
        };
        let spec = SynthSpec { pattern, accesses, seed };
        // Junk or valid content, exercised through the real parser.
        let log = TempLog::new(
            &format!("prop-{seed}.csv"),
            if seed.is_multiple_of(2) { "load,0x10,4\n" } else { "??garbage??\n\u{fffd},,,9\n" },
        );
        let workload = match wl_kind {
            0 => WorkloadSpec::Synthetic(spec),
            1 => WorkloadSpec::Recorded {
                id: WorkloadId::External { hash: u64::from(seed) },
                trace: Arc::new(tiny_trace(accesses)),
            },
            2 => WorkloadSpec::Id(WorkloadId::External { hash: u64::from(param) }),
            3 => WorkloadSpec::Kernel(Benchmark::Dct),
            _ => WorkloadSpec::Log { path: log.0.clone(), format: None },
        };
        let geometry = match geom_kind {
            0 => Geometry::frv(),
            1 => Geometry::new(16, 2, 32).expect("valid"),
            _ => Geometry::new(128, 8, 16).expect("valid"),
        };
        let store = TraceStore::new();
        let mut exp = Experiment::new(workload)
            .geometry(geometry)
            .dschemes(waymem::sim::full_dschemes().into_iter().take(nd))
            .ischemes(waymem::sim::full_ischemes().into_iter().take(ni))
            .streaming(streaming);
        if use_store {
            exp = exp.store(&store);
        }
        match exp.run() {
            Ok(r) => {
                prop_assert_eq!(r.dcache.len(), nd);
                prop_assert_eq!(r.icache.len(), ni);
                for s in r.dcache.iter().chain(r.icache.iter()) {
                    prop_assert!(s.stats.is_consistent(), "{}", s.name);
                }
            }
            // Structured failure is a pass: the property is "no panic".
            Err(e) => {
                let rendered = e.to_string();
                prop_assert!(!rendered.is_empty());
            }
        }
    }
}
