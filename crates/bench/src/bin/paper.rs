//! Regenerates Tables 1–3, Figures 4–8 and the abstract's claims from one
//! run of the seven kernels, then the `ext.*` rows that test the choices
//! the paper argues for, prints them beside the paper's values, and
//! writes every number as one `waymem/paper/v1` row per line to
//! `BENCH_paper.json` (see [`waymem_bench::paper`]).

use waymem_bench::paper;
use waymem_sim::TraceStore;

fn main() {
    let store = TraceStore::new();
    let (_, report) = paper::run(&store).expect("the report's runs succeed");
    print!("{}", report.text);
    std::fs::write("BENCH_paper.json", report.to_json()).expect("write BENCH_paper.json");
    let (rows, records) = (report.rows.len(), store.stats().records);
    eprintln!("wrote BENCH_paper.json ({rows} rows; {records} kernel recordings)");
}
