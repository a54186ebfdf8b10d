//! Exports the full evaluation as CSV plus machine-readable JSON: one
//! CSV row per (benchmark, cache, scheme) with tag/way/hit counters and
//! the Eq. (1) power decomposition — the raw data behind every figure,
//! ready for a plotting tool — and one [`result_json`] object per
//! benchmark in `BENCH_export.json` (schema `waymem/export/v1`). With a
//! directory argument, writes `results.csv` and `BENCH_export.json`
//! there; without one, prints the CSV to stdout and drops
//! `BENCH_export.json` in the current directory so the machine-readable
//! export is always produced.

use std::fmt::Write as _;
use std::path::Path;

use waymem_bench::{full_dschemes, full_ischemes};
use waymem_obs::json::Json;
use waymem_sim::{result_json, SimConfig, Suite, TraceStore};

fn main() {
    let out_dir = std::env::args().nth(1);
    let cfg = SimConfig::default();
    let store = TraceStore::from_env();
    let results = Suite::kernels()
        .config(cfg)
        .dschemes(full_dschemes())
        .ischemes(full_ischemes())
        .store(&store)
        .run()
        .expect("suite runs");

    let mut csv = String::from(
        "benchmark,cache,scheme,cycles,accesses,tag_reads,way_reads,hits,misses,\
         mab_lookups,mab_hits,intra_line_skips,buffer_hits,extra_cycles,\
         data_mw,tag_mw,mab_mw,buffer_mw,total_mw\n",
    );
    for r in &results {
        for (side, schemes) in [("D", &r.dcache), ("I", &r.icache)] {
            for s in schemes.iter() {
                let st = &s.stats;
                let p = &s.power;
                let _ = writeln!(
                    csv,
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4}",
                    r.workload.name(),
                    side,
                    s.name,
                    r.cycles,
                    st.accesses,
                    st.tag_reads,
                    st.way_reads,
                    st.hits,
                    st.misses,
                    st.mab_lookups,
                    st.mab_hits,
                    st.intra_line_skips,
                    st.buffer_hits,
                    s.extra_cycles,
                    p.data_mw,
                    p.tag_mw,
                    p.mab_mw,
                    p.buffer_mw,
                    p.total_mw(),
                );
            }
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
        ("results", Json::Array(results.iter().map(result_json).collect())),
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
