//! # waymem-bench — regeneration harness for every table and figure
//!
//! | binary     | regenerates                                                       |
//! |------------|-------------------------------------------------------------------|
//! | `paper`    | Tables 1–3, Figures 4–8, the abstract's claims and the `ext.*` rows |
//! | `headline` | the abstract's savings, plus suite wall-clocks                    |
//! | `export`   | full results as CSV + `BENCH_export.json`                         |
//! | `ingest`   | any external/synthetic trace through every scheme                 |
//!
//! Run any of them with `cargo run --release -p waymem-bench --bin <name>`.
//! Every binary drives the same [`Experiment`](waymem_sim::Experiment)
//! builder the library users get — e.g. the evaluation behind `paper`:
//!
//! ```no_run
//! use waymem_bench::paper::{self, Report};
//! use waymem_sim::TraceStore;
//!
//! # fn main() -> Result<(), waymem_sim::RunError> {
//! let results = paper::suite(&TraceStore::new())?;
//! let report = Report::new(&results);
//! println!("Fig. 8 average saving: {:.1}%", report.ours("fig8.saving_avg_pct"));
//! # Ok(())
//! # }
//! ```
//!
//! The library part of this crate holds the [`paper`] module (the
//! paper's scheme set, baselines, averaging rule and quoted values),
//! re-exports the scheme presets ([`fig4_dschemes`] / [`fig6_ischemes`] /
//! [`full_dschemes`] / [`full_ischemes`], defined in `waymem_sim::presets`),
//! and holds the append-only run [`ledger`] the `BENCH_*.json` exports
//! feed (`BENCH_LEDGER.jsonl`) and the pairwise statistics ([`ab`]) of
//! the `bench_ab` regression gate, which runs the benchmark at a base
//! revision and at the working tree in alternating pairs. Every export is built with
//! [`waymem_obs::json`]. `headline`, `export` and `ingest` take their
//! trace store from the environment (`TraceStore::from_env`).

pub mod ab;
pub mod ledger;
pub mod paper;

pub use waymem_sim::presets::{fig4_dschemes, fig6_ischemes, full_dschemes, full_ischemes};

/// Geometric mean, the averaging rule of [`paper`]'s "on average" claims.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
#[must_use]
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean needs positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_equal_values() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_mixed() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "nothing")]
    fn geometric_mean_empty_panics() {
        let _ = geometric_mean(&[]);
    }

    #[test]
    fn scheme_lists_have_expected_sizes() {
        assert_eq!(fig4_dschemes().len(), 3);
        assert_eq!(fig6_ischemes().len(), 4);
    }
}
