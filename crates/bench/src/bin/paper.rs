//! Regenerates Tables 1–3, Figures 4–8 and the abstract's claims from one
//! run of the seven kernels, prints them beside the paper's values, and
//! writes every number as one `waymem/paper/v1` row per line to
//! `BENCH_paper.json` (see [`waymem_bench::paper`]).

use waymem_bench::paper::{self, Report};

fn main() {
    let results = paper::suite().run().expect("suite runs");
    let report = Report::new(&results);
    print!("{}", report.text);
    std::fs::write("BENCH_paper.json", report.to_json()).expect("write BENCH_paper.json");
    eprintln!("wrote BENCH_paper.json ({} rows)", report.rows.len());
}
