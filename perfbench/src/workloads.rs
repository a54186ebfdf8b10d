//! The three closed-loop workloads. Each drives the library through its
//! public API one op at a time, times every op, and checks every result.
//! Set-up is repeated `SETUPS` times and its median reported.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use waymem_cache::Geometry;
use waymem_sim::{full_dschemes, full_ischemes, Experiment, SimResult, TraceStore, WorkloadId};
use waymem_workloads::Benchmark;

use crate::capture::{self, Capture};
use crate::digest::{self, Table};
use crate::rng::Rng;

/// Set-up repetitions per run; the median is reported.
pub const SETUPS: usize = 3;

/// `ingest-stream` capture length, in block-plus-access iterations.
pub const CAPTURE_ITERATIONS: u64 = 16_000;

/// What one workload run measured.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Latency of every op that succeeded, in ms.
    pub latencies_ms: Vec<f64>,
    /// Trace events of the ops that succeeded.
    pub events: u64,
    /// Host seconds the timed ops covered.
    pub busy_s: f64,
    pub setup_s: Vec<f64>,
    pub peak_rss_mib: f64,
    /// Checks made once per run, outside the timing.
    pub run_checks: Vec<(String, Result<(), String>)>,
}

impl Measured {
    fn op(&mut self, ms: f64, events: u64, outcome: Result<(), String>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => {
                self.latencies_ms.push(ms);
                self.events += events;
            }
            Err(e) => self.fail(e),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The `assoc_sweep` grid: 32 kB at 1–16 ways and 16/32/64-byte lines.
pub fn sweep_grid() -> Vec<Geometry> {
    let mut grid = Vec::new();
    for line in [16, 32, 64] {
        for ways in [1, 2, 4, 8, 16] {
            grid.push(
                Geometry::new(32 * 1024 / (ways * line), ways, line).expect("valid geometry"),
            );
        }
    }
    grid
}

/// A kernel op on the full D and I scheme sets, optionally at another
/// geometry and with a store.
pub fn kernel_op<'s>(b: Benchmark, g: Geometry, store: &'s TraceStore) -> Experiment<'s> {
    Experiment::kernel(b)
        .geometry(g)
        .dschemes(full_dschemes())
        .ischemes(full_ischemes())
        .store(store)
}

fn kernel_events(store: &TraceStore, b: Benchmark) -> u64 {
    store
        .get(WorkloadId::kernel(b, 1))
        .map_or(0, |t| t.len() as u64)
}

fn check_kernel(table: &Table, b: Benchmark, g: Geometry, r: &SimResult) -> Result<(), String> {
    table.check(b.name(), g, r)?;
    digest::check_way_memo_cycles(r)
}

/// `kernels-cold`: each pass is the 7 kernels in a seeded order on a fresh
/// store, so every op interprets, records and replays.
pub fn kernels_cold(seed: u64, run_for: Duration) -> Result<Measured, String> {
    let table = Table::committed();
    let g = Geometry::frv();
    let mut m = Measured::default();
    for _ in 0..SETUPS {
        let store = TraceStore::new();
        let t = Instant::now();
        for b in Benchmark::ALL {
            kernel_op(b, g, &store)
                .run()
                .map_err(|e| format!("warm-up {}: {e}", b.name()))?;
        }
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut rng = Rng::new(seed);
    let started = Instant::now();
    while started.elapsed() < run_for {
        let store = TraceStore::new();
        let mut order = Benchmark::ALL;
        rng.shuffle(&mut order);
        for b in order {
            let exp = kernel_op(b, g, &store);
            let t = Instant::now();
            let r = exp.run();
            let ms = ms_since(t);
            let outcome = r
                .map_err(|e| e.to_string())
                .and_then(|r| check_kernel(&table, b, g, &r));
            m.op(ms, kernel_events(&store, b), outcome);
        }
    }
    m.busy_s = m.latencies_ms.iter().sum::<f64>() / 1e3;
    m.peak_rss_mib = peak_rss_mib();
    Ok(m)
}

/// `sweep-warm`: the 7 kernels recorded once; each op replays one
/// (kernel, geometry) pair of the sweep grid.
pub fn sweep_warm(seed: u64, run_for: Duration) -> Result<Measured, String> {
    let table = Table::committed();
    let mut m = Measured::default();
    let mut store = TraceStore::new();
    for _ in 0..SETUPS {
        store = TraceStore::new();
        let t = Instant::now();
        for b in Benchmark::ALL {
            let _recorded = Experiment::kernel(b)
                .store(&store)
                .prepare()
                .map_err(|e| format!("recording {}: {e}", b.name()))?;
        }
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut pairs: Vec<(Benchmark, Geometry)> = Benchmark::ALL
        .iter()
        .flat_map(|&b| sweep_grid().into_iter().map(move |g| (b, g)))
        .collect();
    let mut rng = Rng::new(seed);
    let started = Instant::now();
    while started.elapsed() < run_for {
        rng.shuffle(&mut pairs);
        for &(b, g) in &pairs {
            let exp = kernel_op(b, g, &store);
            let t = Instant::now();
            let r = exp.run();
            let ms = ms_since(t);
            let outcome = r
                .map_err(|e| e.to_string())
                .and_then(|r| check_kernel(&table, b, g, &r));
            m.op(ms, kernel_events(&store, b), outcome);
        }
    }
    m.busy_s = m.latencies_ms.iter().sum::<f64>() / 1e3;
    m.peak_rss_mib = peak_rss_mib();
    let s = store.stats();
    let want = s.lookups - Benchmark::ALL.len() as u64;
    m.run_checks.push((
        "sweep ops are all store hits".to_owned(),
        if s.records as usize == Benchmark::ALL.len() && s.hits >= want {
            Ok(())
        } else {
            Err(format!(
                "{} records, {} hits of {} lookups",
                s.records, s.hits, s.lookups
            ))
        },
    ));
    Ok(m)
}

/// Writes the seeded capture, streaming it to disk.
pub fn write_capture(path: &Path, seed: u64, iterations: u64) -> Result<Capture, String> {
    let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
    let mut w = BufWriter::new(File::create(path).map_err(io)?);
    let c = capture::write(&mut w, seed, iterations).map_err(io)?;
    w.flush().map_err(io)?;
    Ok(c)
}

pub fn ingest_op(path: &Path, streaming: bool) -> Experiment<'static> {
    Experiment::ingest(path)
        .streaming(streaming)
        .dschemes(full_dschemes())
        .ischemes(full_ischemes())
}

/// Whether two results agree on everything: workload, cycles, and every
/// scheme's name, counters, energy counts and power, bit for bit.
pub fn same_result(a: &SimResult, b: &SimResult) -> bool {
    let same_side = |x: &[waymem_sim::SchemeResult], y: &[waymem_sim::SchemeResult]| {
        x.len() == y.len()
            && x.iter().zip(y).all(|(p, q)| {
                p.name == q.name
                    && p.stats == q.stats
                    && p.energy == q.energy
                    && p.extra_cycles == q.extra_cycles
                    && p.power.total_mw().to_bits() == q.power.total_mw().to_bits()
            })
    };
    a.workload == b.workload
        && a.cycles == b.cycles
        && same_side(&a.dcache, &b.dcache)
        && same_side(&a.icache, &b.icache)
}

/// `ingest-stream`: each op ingests the seeded capture through the
/// streaming path with no store.
pub fn ingest_stream(seed: u64, run_for: Duration, scratch: &Path) -> Result<Measured, String> {
    let path = scratch.join(format!("capture-{seed}.log"));
    let cap = write_capture(&path, seed, CAPTURE_ITERATIONS)?;
    let result = ingest_measure(&path, &cap, run_for);
    let _ = std::fs::remove_file(&path);
    result
}

fn ingest_measure(path: &Path, cap: &Capture, run_for: Duration) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut reference = None;
    for _ in 0..SETUPS {
        let exp = ingest_op(path, true);
        let t = Instant::now();
        let r = exp.run().map_err(|e| format!("warm-up ingest: {e}"))?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        digest::check_way_memo_cycles(&r)?;
        reference = Some(r);
    }
    let reference = reference.expect("at least one set-up op");
    let started = Instant::now();
    while started.elapsed() < run_for {
        let exp = ingest_op(path, true);
        let t = Instant::now();
        let r = exp.run();
        let ms = ms_since(t);
        let outcome = r.map_err(|e| e.to_string()).and_then(|r| {
            if same_result(&r, &reference) {
                digest::check_way_memo_cycles(&r)
            } else {
                Err("streamed result differs from the first one".to_owned())
            }
        });
        m.op(ms, cap.events(), outcome);
    }
    m.busy_s = m.latencies_ms.iter().sum::<f64>() / 1e3;
    m.peak_rss_mib = peak_rss_mib();
    let materialized = ingest_op(path, false)
        .run()
        .map_err(|e| format!("materialized ingest: {e}"));
    m.run_checks.push((
        "streamed result equals the materialized one".to_owned(),
        materialized.as_ref().map_err(Clone::clone).and_then(|r| {
            if same_result(r, &reference) {
                Ok(())
            } else {
                Err("streamed and materialized results differ".to_owned())
            }
        }),
    ));
    m.run_checks.push((
        "D accesses equal the loads plus stores written".to_owned(),
        materialized.and_then(|r| {
            let d = r.dcache[0].stats.accesses;
            if d == cap.data_events() {
                Ok(())
            } else {
                Err(format!("{d} D accesses, {} written", cap.data_events()))
            }
        }),
    ));
    Ok(m)
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The scratch directory for inputs and spooled traces, inside the
/// benchmark's own directory.
pub fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch")
}
