//! Exports the full evaluation as CSV plus machine-readable JSON: one
//! [`result_json`] object per benchmark in `BENCH_export.json` (schema
//! `waymem/export/v1`), and one CSV row per (benchmark, cache, scheme)
//! holding the benchmark, its cycles and every field of that scheme's
//! result object — counters, per-access ratios, lookup-penalty cycles
//! and the Eq. (1) power decomposition, the raw data behind every
//! figure, ready for a plotting tool. The `cache` column reads `dcache`
//! or `icache`, as in the JSON. With a directory argument, writes
//! `results.csv` and `BENCH_export.json` there; without one, prints the
//! CSV to stdout and drops `BENCH_export.json` in the current directory
//! so the machine-readable export is always produced.

use std::path::Path;

use waymem_bench::{full_dschemes, full_ischemes};
use waymem_obs::json::Json;
use waymem_sim::{result_json, Experiment, SimConfig, TraceStore};
use waymem_workloads::Benchmark;

fn main() {
    let out_dir = std::env::args().nth(1);
    let cfg = SimConfig::default();
    let store = TraceStore::from_env();
    let results = Experiment::run_all(Benchmark::ALL.map(|bench| {
        Experiment::kernel(bench)
            .config(cfg)
            .dschemes(full_dschemes())
            .ischemes(full_ischemes())
            .store(&store)
    }))
    .expect("suite runs");

    let results: Vec<Json> = results.iter().map(result_json).collect();
    // One CSV row per scheme object of the result JSON — the benchmark,
    // its cycles, then the object's fields — so the CSV carries exactly
    // what `BENCH_export.json` does.
    let mut csv = String::new();
    for result in &results {
        let field = |key: &str| result.get(key).expect("result_json writes every key");
        let head = [field("workload"), field("cycles")];
        for scheme in field("schemes").as_arr().unwrap_or_default() {
            let Json::Object(fields) = scheme else { continue };
            if csv.is_empty() {
                let keys = fields.iter().map(|(key, _)| key.as_str());
                csv = ["benchmark", "cycles"].into_iter().chain(keys).collect::<Vec<_>>().join(",");
                csv.push('\n');
            }
            let values = head.into_iter().chain(fields.iter().map(|(_, value)| value));
            csv += &values.map(cell).collect::<Vec<_>>().join(",");
            csv.push('\n');
        }
    }
    let json = Json::object(vec![
        ("schema", Json::from("waymem/export/v1")),
        ("geometry", Json::object(vec![
            ("sets", Json::from(cfg.geometry.sets())),
            ("ways", Json::from(cfg.geometry.ways())),
            ("line_bytes", Json::from(cfg.geometry.line_bytes())),
        ])),
        ("scale", Json::from(cfg.scale)),
        ("trace_store", store.stats().to_json()),
        ("results", Json::Array(results)),
    ]);

    let json_dir = out_dir.clone().unwrap_or_else(|| ".".to_owned());
    let json_path = Path::new(&json_dir).join("BENCH_export.json");
    std::fs::create_dir_all(&json_dir).expect("create output directory");
    std::fs::write(&json_path, format!("{json}\n")).expect("write BENCH_export.json");
    eprintln!("wrote {}", json_path.display());

    match out_dir {
        Some(dir) => {
            let path = Path::new(&dir).join("results.csv");
            std::fs::write(&path, csv).expect("write results.csv");
            eprintln!("wrote {}", path.display());
        }
        None => print!("{csv}"),
    }
}

/// A CSV cell: a string bare (no scheme or benchmark name holds a
/// comma), a number as the JSON renders it.
fn cell(value: &Json) -> String {
    value.as_str().map_or_else(|| value.to_string(), str::to_owned)
}
