//! The bounded-memory tripwire: ingesting and replaying a ≥100 MB
//! capture through the streaming pipeline must peak at O(batch)
//! resident memory, not O(trace). Materializing this capture costs
//! hundreds of MB of `Vec<TraceEvent>`; the streaming path holds a few
//! fixed 64 KiB windows plus one decoded batch per replay chain, so a
//! peak-RSS delta anywhere near the trace size means someone
//! reintroduced a hidden materialization.
//!
//! Gated `#[ignore]` — it writes ~100 MB of scratch and takes tens of
//! seconds — and run explicitly by a dedicated CI step:
//! `cargo test --release --test memory_tripwire -- --ignored`.

#![cfg(target_os = "linux")]

use std::io::Write;

use waymem::prelude::*;

/// Peak resident set size of this process in KiB, from `VmHWM` in
/// `/proc/self/status`.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

/// Best-effort reset of the peak-RSS watermark, so the measurement
/// covers only the pipeline under test (writing `5` to
/// `/proc/self/clear_refs` resets `VmHWM`). Harmless if denied: the
/// baseline then includes test startup, which only tightens the bound.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Writes a Lackey-format capture of at least `min_bytes` to `path`
/// with a bounded-memory writer. The access pattern cycles a few
/// thousand lines so the replay does real cache work.
fn generate_capture(path: &std::path::Path, min_bytes: u64) -> u64 {
    let file = std::fs::File::create(path).expect("create capture");
    let mut out = std::io::BufWriter::new(file);
    let mut written: u64 = 0;
    let mut i: u64 = 0;
    while written < min_bytes {
        let pc = 0x0001_0000 + 4 * (i % 4096) as u32;
        let data = 0x0800_0000 + 8 * (i % 65_536) as u32;
        let line = if i % 4 == 3 {
            format!("I  {pc:08x},4\n S {data:08x},4\n")
        } else {
            format!("I  {pc:08x},4\n L {data:08x},8\n")
        };
        written += line.len() as u64;
        out.write_all(line.as_bytes()).expect("write capture");
        i += 1;
    }
    out.flush().expect("flush capture");
    written
}

#[test]
#[ignore = "writes a >=100 MB scratch capture; run via the dedicated CI step"]
fn streaming_ingest_and_replay_of_100mb_capture_is_o_batch_resident() {
    let dir = std::env::temp_dir().join(format!("waymem-tripwire-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let log = dir.join("big_capture.log");

    const MIN_BYTES: u64 = 100 * 1024 * 1024;
    let written = generate_capture(&log, MIN_BYTES);
    assert!(written >= MIN_BYTES, "capture too small: {written} bytes");

    // Measure only the pipeline: parse (straight into the `.wmtr`
    // encoder), validate, and batch-replay through both front-ends.
    reset_peak_rss();
    let before_kib = peak_rss_kib();

    let result = Experiment::ingest(&log)
        .format(LogFormat::Lackey)
        .dschemes([waymem::sim::DScheme::Original])
        .ischemes([waymem::sim::IScheme::Original])
        .streaming(true)
        .run()
        .expect("streaming ingest + replay");

    let delta_mib = (peak_rss_kib().saturating_sub(before_kib)) / 1024;
    let _ = std::fs::remove_dir_all(&dir);

    // ~7.5M lines → ~7.5M events; materialized that is ~180 MiB of
    // event vectors. O(batch) means a handful of 64 KiB windows and one
    // decoded batch per replay chain — 64 MiB of slack is still ~3x under the
    // materialized floor, so a regression cannot hide in allocator
    // noise.
    let events =
        result.dcache[0].stats.accesses + result.icache[0].stats.accesses;
    assert!(
        events > 4_000_000,
        "capture replayed too few events ({events}) for the bound to mean anything"
    );
    assert!(
        delta_mib < 64,
        "streaming pipeline peaked {delta_mib} MiB over baseline — \
         O(trace) memory use; the bounded-memory path has regressed"
    );
}
