//! `loadgen` — hammers a running `waymem-serve` daemon with a mixed
//! request stream and reports latency percentiles + throughput.
//!
//! ```text
//! usage: loadgen [--addr HOST:PORT] [--requests N] [--clients N]
//!                [--accesses N] [--out DIR] [--shutdown]
//! ```
//!
//! Phase 1 is a deliberate *cold convoy*: every client fires the same
//! expensive cold workload at once, so all but one ride the leader's
//! single-flight execution — the dedup path under maximum contention.
//! Phase 2 is the steady-state hammer: a round-robin mix of synthetic
//! workloads (warm after first touch) with pings interleaved. Each run
//! request is counted when it is sent, and pings apart from them. Results
//! land in `BENCH_loadgen.json` (schema `waymem/loadgen/v3`) with the
//! daemon's own `serve.*` snapshot embedded, and the run is appended to
//! the ledger as bin `loadgen`, carrying that snapshot as its metrics.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use waymem_bench::ledger;
use waymem_obs::json::{self, Json};
use waymem_serve::client::{Client, ClientError};
use waymem_serve::proto::RunRequest;
use waymem_trace::{SynthPattern, SynthSpec, WorkloadId};

struct Options {
    addr: String,
    requests: usize,
    clients: usize,
    accesses: u32,
    out_dir: PathBuf,
    shutdown: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--requests N] [--clients N] [--accesses N] \
         [--out DIR] [--shutdown]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        addr: "127.0.0.1:7914".to_owned(),
        requests: 2000,
        clients: 8,
        accesses: 10_000,
        out_dir: PathBuf::from("."),
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(addr) => opts.addr = addr,
                None => usage(),
            },
            "--requests" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.requests = n,
                None => usage(),
            },
            "--clients" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => opts.clients = n,
                _ => usage(),
            },
            "--accesses" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.accesses = n,
                None => usage(),
            },
            "--out" => match args.next() {
                Some(dir) => opts.out_dir = PathBuf::from(dir),
                None => usage(),
            },
            "--shutdown" => opts.shutdown = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opts
}

/// The steady-state workload mix: distinct synthetics cycled
/// round-robin, so the store warms fast and repeats exercise the warm
/// path while near-simultaneous repeats exercise single-flight.
fn mix(accesses: u32) -> Vec<RunRequest> {
    let patterns = [
        SynthPattern::Stream,
        SynthPattern::Strided { stride: 64 },
        SynthPattern::PointerChase { nodes: 1024 },
        SynthPattern::RwChase { nodes: 1024 },
        SynthPattern::MultiLoop { loops: 16, period: 8 },
        SynthPattern::ZipfHotSet { hot_lines: 64, alpha_centi: 100 },
    ];
    patterns
        .iter()
        .flat_map(|&pattern| {
            [1u32, 2].map(|seed| {
                RunRequest::new(WorkloadId::Synthetic(SynthSpec { pattern, accesses, seed }))
            })
        })
        .collect()
}

/// Per-worker tallies, merged after the join. Every run request sent is
/// ok, refused or a transport error; pings are counted apart.
#[derive(Default)]
struct Tally {
    latencies_us: Vec<u64>,
    sent: u64,
    ok: u64,
    shared: u64,
    refused: u64,
    transport_errors: u64,
    pings_sent: u64,
    pings_ok: u64,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.latencies_us.extend(other.latencies_us);
        self.sent += other.sent;
        self.ok += other.ok;
        self.shared += other.shared;
        self.refused += other.refused;
        self.transport_errors += other.transport_errors;
        self.pings_sent += other.pings_sent;
        self.pings_ok += other.pings_ok;
    }
}

/// One client's run: what it sent, and why it stopped early if it did.
fn worker(
    opts: &Options,
    worker_idx: usize,
    per_client: usize,
    barrier: &Barrier,
    convoy: &RunRequest,
    convoy_shared: &AtomicU64,
) -> (Tally, Option<String>) {
    let connected = Client::connect(opts.addr.as_str());
    let mut tally = Tally::default();

    // Phase 1: the cold convoy. Everyone fires the identical request
    // the instant the barrier drops; the daemon must collapse them into
    // one execution. A client that could not connect still waits, so
    // the others are released.
    barrier.wait();
    let mut client = match connected {
        Ok(client) => client,
        Err(e) => return (tally, Some(format!("connect {}: {e}", opts.addr))),
    };
    let started = Instant::now();
    tally.sent += 1;
    match client.run(convoy.clone()) {
        Ok(reply) => {
            tally.ok += 1;
            tally.latencies_us.push(elapsed_us(started));
            if reply.shared {
                tally.shared += 1;
                convoy_shared.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(ClientError::Refused { .. }) => tally.refused += 1,
        Err(e) => {
            tally.transport_errors += 1;
            return (tally, Some(format!("convoy request: {e}")));
        }
    }

    // Phase 2: the steady-state hammer. Offset each worker into the mix
    // so concurrent clients collide on the same workload only sometimes.
    let requests = mix(opts.accesses);
    for i in 0..per_client {
        if i % 16 == 15 {
            tally.pings_sent += 1;
            tally.pings_ok += u64::from(client.ping().is_ok());
            continue;
        }
        let request = requests[(worker_idx * 5 + i) % requests.len()].clone();
        let started = Instant::now();
        tally.sent += 1;
        match client.run(request) {
            Ok(reply) => {
                tally.ok += 1;
                tally.shared += u64::from(reply.shared);
                tally.latencies_us.push(elapsed_us(started));
            }
            Err(ClientError::Refused { .. }) => tally.refused += 1,
            Err(_) => tally.transport_errors += 1,
        }
    }
    (tally, None)
}

fn elapsed_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    waymem_obs::init_from_env();
    let opts = parse_args();

    // The convoy workload is deliberately heavy: a long recording keeps
    // the leader busy while the followers arrive and attach.
    let convoy = RunRequest::new(WorkloadId::Synthetic(SynthSpec {
        pattern: SynthPattern::PhaseChange { hot_lines: 256, phases: 4 },
        accesses: opts.accesses.saturating_mul(50).max(500_000),
        seed: 42,
    }));

    let per_client = opts.requests / opts.clients.max(1);
    let barrier = Barrier::new(opts.clients);
    let convoy_shared = AtomicU64::new(0);
    let wall = Instant::now();
    let tallies: Vec<(Tally, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|idx| {
                let (opts, barrier, convoy, convoy_shared) =
                    (&opts, &barrier, &convoy, &convoy_shared);
                scope.spawn(move || worker(opts, idx, per_client, barrier, convoy, convoy_shared))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen worker panicked")).collect()
    });
    let wall_seconds = wall.elapsed().as_secs_f64();

    let mut merged = Tally::default();
    let mut worker_failures = Vec::new();
    for (tally, failure) in tallies {
        merged.merge(tally);
        worker_failures.extend(failure);
    }
    for failure in &worker_failures {
        eprintln!("loadgen: worker failed: {failure}");
    }

    merged.latencies_us.sort_unstable();
    let p50 = percentile(&merged.latencies_us, 0.50);
    let p99 = percentile(&merged.latencies_us, 0.99);
    let throughput = if wall_seconds > 0.0 { merged.ok as f64 / wall_seconds } else { 0.0 };

    // Pull the daemon's own view before (optionally) draining it: the
    // daemon did the work, so its snapshot is this run's metrics.
    let daemon_metrics = Client::connect(opts.addr.as_str())
        .ok()
        .and_then(|mut c| c.stats().ok())
        .and_then(|text| json::parse(&text).ok());
    if opts.shutdown {
        match Client::connect(opts.addr.as_str()) {
            Ok(mut c) => {
                if let Err(e) = c.shutdown() {
                    eprintln!("loadgen: shutdown request failed: {e}");
                }
            }
            Err(e) => eprintln!("loadgen: cannot connect for shutdown: {e}"),
        }
    }

    println!(
        "loadgen: {} sent: {} ok, {} refused, {} transport errors, dedup_shared={}, \
         {}/{} pings ok, p50={p50}us p99={p99}us, {throughput:.1} req/s over {wall_seconds:.2}s",
        merged.sent,
        merged.ok,
        merged.refused,
        merged.transport_errors,
        merged.shared,
        merged.pings_ok,
        merged.pings_sent
    );
    let _ = std::io::stdout().flush();

    let perf = Json::object(vec![
        ("requests_sent", Json::from(merged.sent)),
        ("requests_ok", Json::from(merged.ok)),
        ("requests_refused", Json::from(merged.refused)),
        ("transport_errors", Json::from(merged.transport_errors)),
        ("pings_sent", Json::from(merged.pings_sent)),
        ("pings_ok", Json::from(merged.pings_ok)),
        ("dedup_shared", Json::from(merged.shared)),
        ("clients", Json::from(opts.clients as u64)),
        ("wall_seconds", Json::from(wall_seconds)),
        ("throughput_rps", Json::from(throughput)),
        ("latency_p50_us", Json::from(p50)),
        ("latency_p99_us", Json::from(p99)),
    ]);
    let json = Json::object(vec![
        ("schema", Json::from("waymem/loadgen/v3")),
        ("addr", Json::from(opts.addr.clone())),
        ("perf", perf.clone()),
        ("daemon", daemon_metrics.clone().unwrap_or(Json::Null)),
    ]);
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("loadgen: cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    let json_path = opts.out_dir.join("BENCH_loadgen.json");
    if let Err(e) = std::fs::write(&json_path, format!("{json}\n")) {
        eprintln!("loadgen: cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", json_path.display());

    match daemon_metrics {
        Some(metrics) => {
            let prov = ledger::Provenance::detect();
            if let Some(outcome) = ledger::append_from_env("loadgen", perf, metrics, &prov) {
                eprintln!(
                    "ledger: {} — {} records (run {})",
                    outcome.path.display(),
                    outcome.records,
                    outcome.runs_at_rev
                );
            }
        }
        None => waymem_obs::warn!("loadgen.ledger_skipped", reason = "no daemon snapshot"),
    }

    if merged.ok == 0 || !worker_failures.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
