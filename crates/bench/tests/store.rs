//! Guarantees of the shared trace store over the seven kernels: one
//! recording per `(benchmark, scale)` per process regardless of how many
//! configurations replay it, results identical to the store-less
//! drivers, and persistence carrying traces across store instances the
//! way separate bench-bin invocations do.

use waymem_sim::{DScheme, Experiment, IScheme, RunError, SimConfig, SimResult, TraceStore};
use waymem_workloads::Benchmark;

/// DCT's recorded trace in bytes, as events in memory and encoded as
/// `.wmtr`: the codec's compression (7.21×) pinned exactly. A spill and
/// a saved file encode it alike.
const DCT_CODEC_BYTES: (u64, u64) = (5_028_740, 697_313);

fn schemes() -> (Vec<DScheme>, Vec<IScheme>) {
    (
        vec![DScheme::Original, DScheme::paper_way_memo()],
        vec![IScheme::Original, IScheme::paper_way_memo()],
    )
}

/// Runs the seven kernels under the shared schemes at `cfg`, over
/// `store` when one is given.
fn suite(cfg: &SimConfig, store: Option<&TraceStore>) -> Result<Vec<SimResult>, RunError> {
    let (d, i) = schemes();
    Experiment::run_all(Benchmark::ALL.map(|bench| {
        let exp = Experiment::kernel(bench).config(*cfg).dschemes(d.clone()).ischemes(i.clone());
        match store {
            Some(store) => exp.store(store),
            None => exp,
        }
    }))
}

fn assert_same_results(a: &[SimResult], b: &[SimResult]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.workload, y.workload);
        assert_eq!(x.cycles, y.cycles, "{}: cycles differ", x.workload);
        for (p, q) in x.dcache.iter().zip(&y.dcache).chain(x.icache.iter().zip(&y.icache)) {
            assert_eq!(p.name, q.name);
            assert_eq!(p.stats, q.stats, "{}/{}: stats differ", x.workload, p.name);
            assert_eq!(
                p.power.total_mw().to_bits(),
                q.power.total_mw().to_bits(),
                "{}/{}: power differs",
                x.workload,
                p.name
            );
        }
    }
}

#[test]
fn suite_records_each_benchmark_exactly_once_across_configs() {
    let store = TraceStore::new();
    let cfg = SimConfig::default();

    // Three suite passes over different geometries — the sweep pattern.
    let first = suite(&cfg, Some(&store)).expect("suite runs");
    let wide = SimConfig {
        geometry: waymem_cache::Geometry::new(128, 8, 32).expect("valid"),
        ..cfg
    };
    let _ = suite(&wide, Some(&store)).expect("suite runs");
    let long_lines = SimConfig {
        geometry: waymem_cache::Geometry::new(256, 2, 64).expect("valid"),
        ..cfg
    };
    let _ = suite(&long_lines, Some(&store)).expect("suite runs");

    let stats = store.stats();
    let n = Benchmark::ALL.len() as u64;
    assert_eq!(stats.records, n, "each (benchmark, scale) recorded exactly once");
    assert_eq!(stats.lookups, 3 * n);
    assert_eq!(stats.hits, 2 * n, "later configs replay cached traces");
    assert_eq!(stats.disk_hits, 0, "no cache dir configured");
    assert_eq!((stats.raw_bytes, stats.encoded_bytes), (0, 0), "memory-only: nothing encoded");

    // A streaming run spills a recorded trace, which encodes it.
    let (d, i) = schemes();
    let dct = || {
        Experiment::kernel(Benchmark::Dct).config(cfg).dschemes(d.clone()).ischemes(i.clone())
    };
    dct().store(&store).streaming(true).run().expect("streams");
    let stats = store.stats();
    assert_eq!(stats.records, n, "the spill reuses the recording");
    assert_eq!((stats.raw_bytes, stats.encoded_bytes), DCT_CODEC_BYTES, "DCT spill");

    // So does saving a recording into a cache dir.
    let dir = std::env::temp_dir().join(format!("waymem-store-codec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let saving = TraceStore::with_cache_dir(&dir);
    dct().store(&saving).run().expect("records and saves");
    let stats = saving.stats();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(stats.files_saved, 1);
    assert_eq!((stats.raw_bytes, stats.encoded_bytes), DCT_CODEC_BYTES, "saved DCT file");

    // A different scale is a different key: seven more recordings.
    let scaled = SimConfig { scale: 2, ..cfg };
    let _ = suite(&scaled, Some(&store)).expect("suite runs");
    assert_eq!(store.stats().records, 2 * n);

    // And the store-backed results match the store-less driver exactly.
    let plain = suite(&cfg, None).expect("suite runs");
    assert_same_results(&first, &plain);
}

#[test]
fn warm_suite_is_bit_identical_to_cold() {
    let store = TraceStore::new();
    let cfg = SimConfig::default();
    let cold = suite(&cfg, Some(&store)).expect("cold");
    let warm = suite(&cfg, Some(&store)).expect("warm");
    assert_same_results(&cold, &warm);
    assert_eq!(store.stats().records, Benchmark::ALL.len() as u64);
}

#[test]
fn persistent_store_skips_interpretation_on_the_second_instance() {
    let dir = std::env::temp_dir().join(format!("waymem-store-suite-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (d, i) = schemes();
    // Keep this test light: one benchmark, via the sim-level entry point.
    let cfg = SimConfig::default();

    let run_one = |store: &TraceStore| {
        Experiment::kernel(Benchmark::Dct)
            .config(cfg)
            .dschemes(d.clone())
            .ischemes(i.clone())
            .store(store)
            .run()
    };
    let cold_store = TraceStore::with_cache_dir(&dir);
    let cold = run_one(&cold_store).expect("cold run");
    assert_eq!(cold_store.stats().records, 1);
    assert_eq!(cold_store.stats().files_saved, 1);

    // A second store over the same dir — a fresh process invocation.
    let warm_store = TraceStore::with_cache_dir(&dir);
    let warm = run_one(&warm_store).expect("warm run");
    let stats = warm_store.stats();
    assert_eq!(stats.records, 0, "warm instance must not interpret");
    assert_eq!(stats.disk_hits, 1);
    assert!((stats.hit_rate() - 1.0).abs() < 1e-12, "100% store hits");
    assert_same_results(std::slice::from_ref(&cold), std::slice::from_ref(&warm));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_streaming_opens_never_rematerialize_the_event_vector() {
    // The satellite fix this test pins: a warm streaming open over a
    // cache dir streams straight from the `.wmtr` file. It must not run
    // the producer (records stays 0) and — the actual bug — must not
    // decode the file back into a `Vec<TraceEvent>`: `raw_bytes` counts
    // the in-memory footprint of every materialized trace, so a warm
    // streaming instance has to finish with `raw_bytes == 0`.
    let dir = std::env::temp_dir().join(format!("waymem-store-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (d, i) = schemes();
    let cfg = SimConfig::default();
    let run_one = |store: &TraceStore, streaming: bool| {
        Experiment::kernel(Benchmark::Dct)
            .config(cfg)
            .dschemes(d.clone())
            .ischemes(i.clone())
            .store(store)
            .streaming(streaming)
            .run()
    };

    // Cold streaming instance: produces the file once, straight through
    // the streaming encoder — no event vector exists even here.
    let cold_store = TraceStore::with_cache_dir(&dir);
    let cold = run_one(&cold_store, true).expect("cold streaming run");
    let stats = cold_store.stats();
    assert_eq!(stats.records, 1, "cold open produces the file");
    assert_eq!(stats.files_saved, 1);
    assert_eq!(stats.raw_bytes, 0, "streaming production must not materialize");

    // Warm instance over the same dir: open in place, replay in batches.
    let warm_store = TraceStore::with_cache_dir(&dir);
    let warm = run_one(&warm_store, true).expect("warm streaming run");
    let stats = warm_store.stats();
    assert_eq!(stats.records, 0, "warm open must not re-produce");
    assert_eq!(stats.stream_opens, 1, "served as a streaming open");
    assert_eq!(stats.disk_hits, 1, "counted as a disk hit");
    assert_eq!(stats.raw_bytes, 0, "warm open must not re-materialize");
    assert!((stats.hit_rate() - 1.0).abs() < 1e-12, "100% store hits");

    // Identical results to the materialized engine over the same store.
    let mat_store = TraceStore::with_cache_dir(&dir);
    let materialized = run_one(&mat_store, false).expect("materialized run");
    assert_same_results(
        std::slice::from_ref(&cold),
        std::slice::from_ref(&warm),
    );
    assert_same_results(
        std::slice::from_ref(&warm),
        std::slice::from_ref(&materialized),
    );
    assert!(
        mat_store.stats().raw_bytes > 0,
        "control: the materialized path does decode the vector"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
