//! The pairwise A/B perf gate: runs the benchmark that `BENCHMARK.json`
//! declares at a base revision and at the working tree in alternating
//! pairs, and reports every end-to-end metric of every workload.
//!
//! ```text
//! cargo run --release -p waymem-bench --bin bench_ab -- --base <rev> [OPTIONS]
//!
//! --base REV        the revision to compare against (HEAD^1, say); it is
//!                   checked out into a temporary `git worktree` under
//!                   target/bench_ab/, removed afterwards, and so is the
//!                   working tree, changes and untracked files included
//! --pairs N         alternating pairs per workload (default 10)
//! --seconds S       run length of every run (default BENCHMARK.json's
//!                   run_seconds)
//! --first-seed K    the seed of the first pair; pair i runs seed K + i
//!                   on both sides (default 1)
//! ```
//!
//! Both sides are built alike: each is a detached worktree of the same
//! shape under `target/bench_ab/` (`base-<pid>` and `work-<pid>`), the
//! second holding a snapshot of the working tree (tracked changes and
//! untracked files not ignored by `.gitignore`), so neither side builds
//! in the checkout's own directory. Each side runs the benchmark's own
//! command (`BENCHMARK.json` `command`, from the root of its tree, with
//! `--workload`, `--seed`, `--seconds` and `--trace 0` appended), so the
//! benchmark is driven only through its command line and each tree
//! builds its own copy. `CARGO_TARGET_DIR` is cleared for the children,
//! so the two builds never share a binary. Pair i runs seed `K + i` on
//! both sides, base first in even pairs and change first in odd ones.
//! Any run that does not end `"correct": true` with 0 failed stops the
//! comparison (exit 2).
//!
//! For each metric it prints each side's median and quartiles, the
//! median per-pair ratio (change / base) with its quartiles, the pairs
//! won and a verdict ([`waymem_bench::ab::summarize`]); each workload's
//! summary is appended to the run ledger as a `perfbench:<workload>`
//! record (`WAYMEM_LEDGER=off` skips it). The gate
//! ([`waymem_bench::ab::gate_fails`]) fails a metric that lost every pair
//! with a median per-pair ratio worse than 1 by more than
//! [`waymem_bench::ab::GATE_THRESHOLD`] and a median past the base's
//! spread.
//!
//! Exit status: 0 = compared and the gate held, 1 = the gate failed, 2 =
//! bad usage, a failed build or run, or an incorrect run.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use waymem_bench::ab::{
    gate_fails, summarize, summary_json, MetricSpec, Quartiles, Run, Summary, GATE_THRESHOLD,
};
use waymem_bench::ledger;
use waymem_obs::json::{parse, Json};

struct Options {
    base: String,
    pairs: usize,
    seconds: Option<f64>,
    first_seed: u64,
}

fn usage() -> ! {
    eprintln!("usage: bench_ab --base REV [--pairs N] [--seconds S] [--first-seed K]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        base: String::new(),
        pairs: 10,
        seconds: None,
        first_seed: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--base" => opts.base = value,
            "--pairs" => {
                opts.pairs = value
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--seconds" => {
                opts.seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &f64| s > 0.0)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--first-seed" => opts.first_seed = value.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if opts.base.is_empty() {
        usage();
    }
    opts
}

fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    git_with(dir, args, &[])
}

/// `git args` in `dir` with `env` set; returns its trimmed stdout.
fn git_with(dir: &Path, args: &[&str], env: &[(&str, &Path)]) -> Result<String, String> {
    let out = Command::new("git")
        .args(args)
        .current_dir(dir)
        .envs(env.iter().copied())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run git: {e}"))?;
    if !out.status.success() {
        return Err(format!("git {} failed", args.join(" ")));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// A revision checked out in a detached worktree named `<name>-<pid>`
/// under `target/bench_ab/`, removed (with its build) on drop.
struct Worktree {
    repo: PathBuf,
    dir: PathBuf,
}

impl Worktree {
    fn add(repo: &Path, name: &str, rev: &str) -> Result<Worktree, String> {
        let dir = repo
            .join("target")
            .join("bench_ab")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.to_string_lossy().into_owned();
        git(
            repo,
            &["worktree", "add", "--detach", "--quiet", &path, rev],
        )?;
        Ok(Worktree {
            repo: repo.to_owned(),
            dir,
        })
    }
}

/// A commit holding the working tree as it stands: `HEAD` plus every
/// tracked change and every untracked file `.gitignore` does not exclude.
/// It is staged in a scratch index, so the checkout's own index, refs
/// and files are left alone; no ref names the commit.
fn snapshot(repo: &Path) -> Result<String, String> {
    let index = repo
        .join("target")
        .join("bench_ab")
        .join(format!("index-{}", std::process::id()));
    std::fs::create_dir_all(index.parent().expect("has a parent"))
        .map_err(|e| format!("cannot create target/bench_ab: {e}"))?;
    let env = [("GIT_INDEX_FILE", index.as_path())];
    let tree = git_with(repo, &["read-tree", "HEAD"], &env)
        .and_then(|_| git_with(repo, &["add", "-A", "."], &env))
        .and_then(|_| git_with(repo, &["write-tree"], &env));
    let _ = std::fs::remove_file(&index);
    let tree = tree?;
    let identity = ["-c", "user.name=bench_ab", "-c", "user.email=bench_ab@localhost"];
    let commit = ["commit-tree", &tree, "-p", "HEAD", "-m", "bench_ab: the working tree"];
    git(repo, &[&identity[..], &commit[..]].concat())
}

impl Drop for Worktree {
    fn drop(&mut self) {
        let path = self.dir.to_string_lossy().into_owned();
        if git(&self.repo, &["worktree", "remove", "--force", &path]).is_err() {
            let _ = std::fs::remove_dir_all(&self.dir);
            let _ = git(&self.repo, &["worktree", "prune"]);
        }
    }
}

/// One side of the comparison: a tree and the command that runs its
/// benchmark.
struct Side<'a> {
    label: &'static str,
    root: &'a Path,
    command: &'a [String],
}

impl Side<'_> {
    fn run(&self, workload: &str, seed: u64, seconds: f64) -> Result<Run, String> {
        let (program, args) = self
            .command
            .split_first()
            .ok_or("empty benchmark command")?;
        let out = Command::new(program)
            .args(args)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .current_dir(self.root)
            .env_remove("CARGO_TARGET_DIR")
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: cannot start {program}: {e}", self.label))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let what = format!("{} {workload} seed {seed}", self.label);
        if !out.status.success() {
            return Err(format!("{what}: benchmark exited with {}", out.status));
        }
        let run = Run::parse(&stdout).map_err(|e| format!("{what}: {e}"))?;
        if !run.correct || run.failed != 0 {
            return Err(format!(
                "{what}: run not correct (correct {}, failed {} of {})",
                run.correct, run.failed, run.attempted
            ));
        }
        Ok(run)
    }
}

/// Compact figure: four significant digits, M/k for large values.
fn fig(v: f64) -> String {
    let (scaled, suffix) = match v.abs() {
        a if a >= 1e6 => (v / 1e6, "M"),
        a if a >= 1e4 => (v / 1e3, "k"),
        _ => (v, ""),
    };
    let digits = if scaled.abs() >= 1.0 {
        3 - scaled.abs().log10().floor() as i32
    } else {
        4
    };
    format!("{scaled:.*}{suffix}", digits.clamp(0, 6) as usize)
}

fn print_summary(s: &Summary, pairs: usize) {
    let q = |q: Quartiles| format!("{} ({}–{})", fig(q.median), fig(q.q1), fig(q.q3));
    println!(
        "  {:<13} {:<6} {:>4.0}%  {:<27} {:<27} {:<23} {:>2}/{pairs}  {}",
        s.spec.name,
        s.spec.better.name(),
        s.spec.bound * 100.0,
        q(s.base),
        q(s.change),
        format!(
            "{:.3} ({:.3}–{:.3})",
            s.ratio.median, s.ratio.q1, s.ratio.q3
        ),
        s.won,
        s.verdict.name()
    );
}

fn run(opts: &Options) -> Result<bool, String> {
    let root = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?);
    let bench_path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&bench_path)
        .map_err(|e| format!("cannot read {}: {e}", bench_path.display()))?;
    let bench = parse(&text).map_err(|e| format!("{}: {e}", bench_path.display()))?;
    let (workloads, specs) = MetricSpec::from_benchmark(&bench)?;
    let command: Vec<String> = bench
        .get("command")
        .and_then(Json::as_arr)
        .and_then(|c| c.iter().map(|a| a.as_str().map(str::to_owned)).collect())
        .ok_or("BENCHMARK.json has no `command` list")?;
    let seconds = opts
        .seconds
        .or_else(|| bench.get("run_seconds").and_then(Json::as_num))
        .ok_or("no --seconds and no run_seconds in BENCHMARK.json")?;
    let base_rev = git(
        &root,
        &[
            "rev-parse",
            "--short=12",
            &format!("{}^{{commit}}", opts.base),
        ],
    )?;
    let base_tree = Worktree::add(&root, "base", &base_rev)?;
    let work_tree = Worktree::add(&root, "work", &snapshot(&root)?)?;
    let base = Side {
        label: "base",
        root: &base_tree.dir,
        command: &command,
    };
    let change = Side {
        label: "change",
        root: &work_tree.dir,
        command: &command,
    };
    let last_seed = opts.first_seed + opts.pairs as u64 - 1;
    let mut gate_failed = Vec::new();
    for workload in &workloads {
        let mut runs = Vec::with_capacity(opts.pairs);
        for i in 0..opts.pairs {
            let seed = opts.first_seed + i as u64;
            let (b, c) = if i % 2 == 0 {
                let b = base.run(workload, seed, seconds)?;
                (b, change.run(workload, seed, seconds)?)
            } else {
                let c = change.run(workload, seed, seconds)?;
                (base.run(workload, seed, seconds)?, c)
            };
            eprintln!(
                "bench_ab: {workload} pair {}/{} (seed {seed}) done",
                i + 1,
                opts.pairs
            );
            runs.push((b, c));
        }
        println!(
            "{workload}: {} pairs x {seconds} s, seeds {}–{last_seed}, base {base_rev} vs the working tree",
            opts.pairs, opts.first_seed
        );
        println!(
            "  {:<13} {:<6} {:>5}  {:<27} {:<27} {:<23} {:>5}  verdict",
            "metric",
            "better",
            "bound",
            "base median (q1–q3)",
            "change median (q1–q3)",
            "ratio median (q1–q3)",
            "won"
        );
        let mut summaries = Vec::new();
        for spec in &specs {
            let pairs: Vec<(f64, f64)> = runs
                .iter()
                .map(|(b, c)| Some((b.metric(&spec.name)?, c.metric(&spec.name)?)))
                .collect::<Option<_>>()
                .ok_or_else(|| format!("{workload}: a run did not report {}", spec.name))?;
            let s = summarize(spec, &pairs);
            print_summary(&s, opts.pairs);
            if gate_fails(&s) {
                gate_failed.push(format!("{workload} {}", spec.name));
            }
            summaries.push(s);
        }
        let mut perf = vec![
            ("base_rev".to_owned(), Json::from(base_rev.clone())),
            ("pairs".to_owned(), Json::from(opts.pairs as u64)),
            ("seconds".to_owned(), Json::from(seconds)),
            ("first_seed".to_owned(), Json::from(opts.first_seed)),
        ];
        perf.extend(
            summaries
                .iter()
                .map(|s| (s.spec.name.clone(), summary_json(s))),
        );
        let bin = format!("perfbench:{workload}");
        let metrics = waymem_obs::snapshot::take().to_json();
        if let Some(outcome) = ledger::append_from_env(&bin, Json::Object(perf), metrics) {
            eprintln!(
                "ledger: {} — {} records",
                outcome.path.display(),
                outcome.records
            );
        }
    }
    drop((base_tree, work_tree));
    let pct = GATE_THRESHOLD * 100.0;
    if gate_failed.is_empty() {
        println!("bench_ab: gate held: no metric lost every pair by more than {pct}%");
        Ok(true)
    } else {
        eprintln!(
            "bench_ab: gate failed: lost every pair, median ratio more than {pct}% worse, median past the base's spread: {}",
            gate_failed.join(", ")
        );
        Ok(false)
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_ab: {message}");
            ExitCode::from(2)
        }
    }
}
