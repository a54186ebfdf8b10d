//! The perf-regression gate: compares the current bench report against
//! a baseline and exits non-zero when a key figure degraded past the
//! tolerance.
//!
//! ```text
//! cargo run --release -p waymem-bench --bin bench_diff -- [OPTIONS]
//!
//! --current FILE    report to judge (default BENCH_headline.json)
//! --baseline FILE   explicit baseline report (a committed
//!                   BENCH_headline.json, say); exits 2 if unreadable
//! --ledger FILE     take the baseline from this BENCH_LEDGER.jsonl
//!                   instead (default BENCH_LEDGER.jsonl when neither
//!                   flag is given)
//! --bin NAME        which binary's ledger records to use (default
//!                   headline)
//! --keep-latest     compare against the ledger's newest matching
//!                   record; by default the newest is skipped, since a
//!                   run that just appended its own record would only
//!                   ever compare against itself
//! --tolerance PCT   allowed relative degradation before failing
//!                   (default 25)
//! ```
//!
//! Exit status: 0 = within tolerance (or no baseline yet — an empty
//! ledger must not fail a fresh checkout), 1 = regression detected,
//! 2 = bad usage or unreadable input.
//!
//! The deltas come from [`waymem_bench::diff`]: higher-better figures
//! (warm/cold speedup, events/sec, compression ratio, total saving)
//! fail when they fall below `baseline × (1 − tolerance)`; per-phase
//! wall-clocks fail when they exceed `baseline × (1 + tolerance)` *and*
//! grow past an absolute floor, so micro-phases can jitter freely.

use std::path::PathBuf;
use std::process::ExitCode;

use waymem_bench::diff::{compare, Delta};
use waymem_obs::json::{parse, Json};

struct Options {
    current: PathBuf,
    baseline: Option<PathBuf>,
    ledger: Option<PathBuf>,
    bin: String,
    keep_latest: bool,
    tolerance_pct: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_diff [--current FILE] [--baseline FILE | --ledger FILE] \
         [--bin NAME] [--keep-latest] [--tolerance PCT]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        current: PathBuf::from("BENCH_headline.json"),
        baseline: None,
        ledger: None,
        bin: "headline".to_owned(),
        keep_latest: false,
        tolerance_pct: 25.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--current" => match args.next() {
                Some(p) => opts.current = PathBuf::from(p),
                None => usage(),
            },
            "--baseline" => match args.next() {
                Some(p) => opts.baseline = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--ledger" => match args.next() {
                Some(p) => opts.ledger = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--bin" => match args.next() {
                Some(b) => opts.bin = b,
                None => usage(),
            },
            "--keep-latest" => opts.keep_latest = true,
            "--tolerance" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => opts.tolerance_pct = t,
                None => usage(),
            },
            _ => usage(),
        }
    }
    if opts.baseline.is_some() && opts.ledger.is_some() {
        usage();
    }
    opts
}

fn read_json(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The newest ledger record for `bin` — or the one before it unless
/// `keep_latest`, since the current run has usually just appended its
/// own. `Ok(None)` means "no baseline yet", which is a pass.
fn ledger_baseline(
    path: &PathBuf,
    bin: &str,
    keep_latest: bool,
) -> Result<Option<(Json, String)>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut matching = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record =
            parse(line).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        if record.get("bin").and_then(Json::as_str) == Some(bin) {
            let rev = record
                .get("git_rev")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_owned();
            matching.push((record, rev));
        }
    }
    if !keep_latest {
        matching.pop();
    }
    Ok(matching.pop())
}

fn print_delta(d: &Delta) {
    let direction = if d.lower_better { "lower-better" } else { "higher-better" };
    let flag = if d.regressed { "  <-- REGRESSION" } else { "" };
    println!(
        "  {:<28} {:>14.4} -> {:>14.4}  ({:+.1}%, {direction}){flag}",
        d.metric, d.baseline, d.current, d.change_pct
    );
}

fn run(opts: &Options) -> Result<ExitCode, String> {
    let current = read_json(&opts.current)?;
    let (baseline, label) = if let Some(path) = &opts.baseline {
        (read_json(path)?, path.display().to_string())
    } else {
        let path = opts.ledger.clone().unwrap_or_else(|| PathBuf::from("BENCH_LEDGER.jsonl"));
        match ledger_baseline(&path, &opts.bin, opts.keep_latest)? {
            Some((record, rev)) => (record, format!("{} (bin {}, rev {rev})", path.display(), opts.bin)),
            None => {
                println!(
                    "bench_diff: no prior {} record in {} — nothing to compare, pass",
                    opts.bin,
                    path.display()
                );
                return Ok(ExitCode::SUCCESS);
            }
        }
    };
    let report = compare(&current, &baseline, opts.tolerance_pct)?;
    println!(
        "bench_diff: {} vs {label} (tolerance {:.0}%)",
        opts.current.display(),
        report.tolerance_pct
    );
    for delta in &report.deltas {
        print_delta(delta);
    }
    let regressions = report.regressions();
    if regressions.is_empty() {
        println!("bench_diff: {} metrics within tolerance — ok", report.deltas.len());
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "bench_diff: {} of {} metrics regressed past {:.0}%",
            regressions.len(),
            report.deltas.len(),
            report.tolerance_pct
        );
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    match run(&opts) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench_diff: {message}");
            ExitCode::from(2)
        }
    }
}
