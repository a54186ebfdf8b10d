//! `perfbench` — the end-to-end and per-layer benchmark for the waymem
//! crates. See `README.md` next to this crate for the workloads, their
//! metrics and why each was chosen.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-digest > perfbench/digest.txt
//! ```
//!
//! With `--trace 0` it runs the workload for `--seconds` and prints the
//! end-to-end metrics; with `--trace 1` it runs the traced per-layer
//! breakdown instead. The last line of standard output is always one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod capture;
mod digest;
mod layers;
mod rng;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Duration;

use waymem_workloads::Benchmark;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["kernels-cold", "sweep-warm", "ingest-stream"];

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        if flag == "--write-digest" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], not {seconds}"));
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// glibc's allocator, pinned. By default glibc raises its mmap threshold
/// each time a large block is freed, so where later large blocks land,
/// and how much of the heap stays resident, depends on the order of
/// earlier frees: the same `kernels-cold` run peaked at anywhere from 42
/// to 72 MiB. Pinned at 4 MiB, large trace buffers are always mapped and
/// unmapped on free, and peak RSS repeats within 1%. One arena keeps the
/// replay threads from landing in arenas of different sizes, which moved
/// `ingest-stream`'s 6.7 MiB peak by up to 7%. Op times stayed the same
/// within noise under both settings.
const MALLOC_TUNABLES: &str = "glibc.malloc.mmap_threshold=4194304:glibc.malloc.arena_max=1";

/// Runs this program again with [`MALLOC_TUNABLES`] in its environment
/// (the allocator reads it only at start-up) and returns its exit code.
fn rerun_with_tunables() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let status = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
        .status();
    match status.map(|s| s.code()) {
        Ok(Some(code)) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        Ok(None) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: cannot re-run itself: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::var_os("GLIBC_TUNABLES").is_none_or(|v| v != MALLOC_TUNABLES) {
        return rerun_with_tunables();
    }
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return write_digest(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Logging and spooled trace files are fixed here, so the caller's
    // environment cannot change what is measured or where it is written.
    waymem_obs::log::set_level(waymem_obs::log::Level::Warn);
    let scratch = workloads::scratch_dir();
    let tmp = scratch.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", &tmp);

    let run_for = Duration::from_secs_f64(args.seconds);
    let outcome = if args.trace {
        layers::traced(&args.workload, args.seed, run_for, &scratch)
    } else {
        end_to_end(&args.workload, args.seed, run_for, &scratch)
    };
    match outcome {
        Ok(out) => {
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; non-finite values (which make the run incorrect) are
/// written as 0 to keep the line parseable.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn end_to_end(
    workload: &str,
    seed: u64,
    run_for: Duration,
    scratch: &std::path::Path,
) -> Result<Outcome, String> {
    let m = match workload {
        "kernels-cold" => workloads::kernels_cold(seed, run_for)?,
        "sweep-warm" => workloads::sweep_warm(seed, run_for)?,
        _ => workloads::ingest_stream(seed, run_for, scratch)?,
    };
    let p50 = stats::median(&m.latencies_ms);
    let tail = stats::tail(&m.latencies_ms);
    let metrics = vec![
        metric("events_per_s", "1/s", m.events as f64 / m.busy_s),
        metric("op_p50_ms", "ms", p50),
        metric("op_tail_ms", "ms", tail.map_or(f64::NAN, |t| t.value)),
        metric("setup_s", "s", stats::median(&m.setup_s)),
        metric("peak_rss_mib", "MiB", m.peak_rss_mib),
    ];
    println!(
        "workload {workload}  seed {seed}  {:.1} s measured",
        m.busy_s
    );
    for x in &metrics {
        println!("  {:<14} {:>14.4} {}", x.name, x.value, x.unit);
    }
    match tail {
        Some(t) => println!(
            "  op_tail_ms is p{:.2} of {} ops ({} beyond it)",
            t.percentile,
            m.latencies_ms.len(),
            t.beyond
        ),
        None => println!(
            "  op_tail_ms: too few ops ({}) for a tail",
            m.latencies_ms.len()
        ),
    }
    let setups: Vec<String> = m.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("  set-up runs (s): {}", setups.join(" "));
    let share = if m.attempted == 0 {
        0.0
    } else {
        m.failed as f64 / m.attempted as f64
    };
    println!(
        "  ops attempted {}  failed {}  failed share {:.4}",
        m.attempted, m.failed, share
    );
    for f in &m.failures {
        println!("  failed: {f}");
    }
    let mut checks_ok = true;
    for (what, r) in &m.run_checks {
        match r {
            Ok(()) => println!("  check ok: {what}"),
            Err(e) => {
                checks_ok = false;
                println!("  check FAILED: {what}: {e}");
            }
        }
    }
    Ok(Outcome {
        correct: checks_ok && m.failed == 0 && tail.is_some(),
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    })
}

/// Prints the digest of every (kernel, geometry) op the kernel workloads
/// run. Only for deliberate regeneration after a change that is meant to
/// alter the simulated statistics.
fn write_digest() -> ExitCode {
    let store = waymem_sim::TraceStore::new();
    println!("# (kernel, geometry) -> FNV-1a64 of every scheme's counters; see src/digest.rs");
    for b in Benchmark::ALL {
        for g in workloads::sweep_grid() {
            match workloads::kernel_op(b, g, &store).run() {
                Ok(r) => println!("{}", digest::line(b.name(), g, digest::of(&r))),
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", b.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
