//! Bit-exact reproducibility of the experiment driver.
//!
//! Later performance refactors (parallel multi-scheme runs, trace
//! batching) must not silently change results: two runs of the same
//! benchmark under the same [`SimConfig`] have to produce *identical*
//! accounting and power numbers, down to the last f64 bit.

use std::sync::Arc;

use waymem::isa::RecordedTrace;
use waymem::prelude::*;
use waymem::sim::SchemeResult;

fn paper_schemes() -> (Vec<DScheme>, Vec<IScheme>) {
    (
        vec![DScheme::Original, DScheme::paper_way_memo()],
        vec![IScheme::Original, IScheme::paper_way_memo()],
    )
}

/// The kernel experiment all tests here drive.
fn kernel_exp(bench: Benchmark) -> Experiment<'static> {
    let (d, i) = paper_schemes();
    Experiment::kernel(bench).dschemes(d).ischemes(i)
}

/// Replay of an explicit recorded trace.
fn replay_exp(bench: Benchmark, trace: Arc<RecordedTrace>) -> Experiment<'static> {
    let (d, i) = paper_schemes();
    Experiment::recorded(WorkloadId::kernel(bench, 1), trace).dschemes(d).ischemes(i)
}

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

#[test]
fn experiment_runs_are_bit_identical_across_runs() {
    for bench in [Benchmark::Dct, Benchmark::Fft] {
        let first = kernel_exp(bench).run().expect("first run");
        let second = kernel_exp(bench).run().expect("second run");
        assert_identical(&first, &second);
        // The runs must also do real work, or bit-identity is vacuous.
        assert!(first.cycles > 50_000, "{bench}: suspiciously small run");
        assert!(first.dcache[0].stats.accesses > 0);
        assert!(first.icache[0].stats.accesses > 0);
    }
}

#[test]
fn decoded_trace_replays_bit_identical_to_in_memory_trace() {
    // The wire format must be lossless *for the experiment*, not just for
    // the event structs: a trace that goes through encode → decode (as a
    // disk-cached trace does) has to drive every front-end to the exact
    // same f64 bits as the trace that never left memory.
    let cfg = SimConfig::default();
    for bench in [Benchmark::Dct, Benchmark::Fft] {
        let trace = waymem::sim::record_trace(bench, &cfg).expect("records");
        let bytes = waymem::trace::encode(&trace);
        let decoded = waymem::trace::decode(&bytes).expect("decodes");
        assert_eq!(decoded, trace, "{bench}: decode must be the identity");
        let in_memory = replay_exp(bench, Arc::new(trace))
            .run()
            .expect("replays");
        let from_disk = replay_exp(bench, Arc::new(decoded))
            .run()
            .expect("replays");
        assert_identical(&in_memory, &from_disk);
    }
}

#[test]
fn store_backed_run_is_bit_identical_to_direct_run() {
    // An `Experiment` with a store must be a pure caching layer: same
    // results as recording + replaying directly, cold and warm alike.
    let cfg = SimConfig::default();
    let store = TraceStore::new();
    let trace = waymem::sim::record_trace(Benchmark::Dct, &cfg).expect("records");
    let direct = replay_exp(Benchmark::Dct, Arc::new(trace))
        .run()
        .expect("replays");
    let (d, i) = paper_schemes();
    let stored = |store| {
        Experiment::kernel(Benchmark::Dct)
            .dschemes(d.clone())
            .ischemes(i.clone())
            .store(store)
            .run()
    };
    let cold = stored(&store).expect("cold");
    let warm = stored(&store).expect("warm");
    assert_identical(&direct, &cold);
    assert_identical(&cold, &warm);
    assert_eq!(store.stats().records, 1);
    assert_eq!(store.stats().hits, 1);
}

/// Path of the committed Lackey capture used by the ingest differential.
fn lackey_fixture() -> &'static str {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/ingest/tests/fixtures/lackey_small.log"
    )
}

#[test]
fn streaming_kernel_replay_is_bit_identical_to_materialized() {
    // The bounded-memory streaming pipeline (record straight to a
    // `.wmtr` file, replay in batches, one cursor per replay chain) must
    // be invisible in the results: every one of the seven kernels has
    // to produce the exact f64 bits of the materialized engine.
    for &bench in &Benchmark::ALL {
        let materialized = kernel_exp(bench).run().expect("materialized");
        let streamed = kernel_exp(bench)
            .streaming(true)
            .run()
            .expect("streamed");
        assert_identical(&materialized, &streamed);
        assert!(materialized.cycles > 0, "{bench}: empty run is vacuous");
    }
}

#[test]
fn streaming_synthetic_replay_is_bit_identical_to_materialized() {
    // Synthetic generation streams straight into the encoder sink in
    // streaming mode instead of materializing a RecordedTrace first —
    // same generator, different plumbing, identical results required.
    let (d, i) = paper_schemes();
    for spec in waymem::ingest::synth::standard_suite(3_000) {
        let exp = || {
            Experiment::synthetic(spec)
                .dschemes(d.clone())
                .ischemes(i.clone())
        };
        let materialized = exp().run().expect("materialized");
        let streamed = exp().streaming(true).run().expect("streamed");
        assert_identical(&materialized, &streamed);
        assert!(materialized.dcache[0].stats.accesses > 0);
    }
}

#[test]
fn streaming_ingest_replay_is_bit_identical_to_materialized() {
    // Ingestion parses the committed Lackey fixture directly into the
    // streaming encoder (no Vec<TraceEvent> in between); the replay of
    // that file must match the fully materialized parse bit for bit.
    let (d, i) = paper_schemes();
    let exp = || {
        Experiment::ingest(lackey_fixture())
            .format(LogFormat::Lackey)
            .dschemes(d.clone())
            .ischemes(i.clone())
    };
    let materialized = exp().run().expect("materialized ingest");
    let streamed = exp().streaming(true).run().expect("streamed ingest");
    assert_identical(&materialized, &streamed);
    assert!(materialized.dcache[0].stats.accesses > 0, "fixture is vacuous");
}

#[test]
fn streaming_store_backed_run_is_bit_identical_cold_and_warm() {
    // A materialized store-backed run seeds the store; later streaming
    // runs spill the in-memory trace to a `.wmtr` file and replay it in
    // batches. Both streaming runs must reproduce the materialized one
    // exactly, and neither may re-record the workload.
    let store = TraceStore::new();
    let seeded = kernel_exp(Benchmark::Fft)
        .store(&store)
        .run()
        .expect("seeding run");
    let exp = || {
        kernel_exp(Benchmark::Fft)
            .store(&store)
            .streaming(true)
    };
    let first = exp().run().expect("first streaming");
    let second = exp().run().expect("second streaming");
    assert_identical(&seeded, &first);
    assert_identical(&first, &second);
    assert_eq!(store.stats().records, 1, "streaming must reuse the trace");
    assert_eq!(store.stats().stream_opens, 2, "both runs must stream");
}

#[test]
fn recorded_trace_replays_identically_twice() {
    // Replay must not mutate the trace or leak state between runs: two
    // replays of one recorded trace yield identical AccessStats.
    let cfg = SimConfig::default();
    let trace = Arc::new(waymem::sim::record_trace(Benchmark::Dct, &cfg).expect("records"));
    let first = replay_exp(Benchmark::Dct, trace.clone())
        .run()
        .expect("replays");
    let second = replay_exp(Benchmark::Dct, trace)
        .run()
        .expect("replays");
    assert_identical(&first, &second);
}
