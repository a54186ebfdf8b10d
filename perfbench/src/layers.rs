//! The traced run (`--trace 1`): per-layer metrics for one workload.
//!
//! It has two parts.
//! - Layer probes time each layer's public call alone on fixed inputs
//!   (the seven kernels' traces and a capture made from the seed); they
//!   are the same for every workload.
//! - Representative ops of the chosen workload run twice per round: once
//!   as the workload runs them (untraced), and once decomposed into the
//!   public calls the op makes, each wrapped in a span. The spans give
//!   each layer's self time, the front-ends' cost per event, which replay
//!   chain is critical, and how much of an `Experiment::run` no span
//!   explains. Both runs' results must agree.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use waymem_cache::{AccessKind, Geometry, MainMemory, SetAssocCache};
use waymem_core::{Mab, MabConfig, MabLookup};
use waymem_hwmodel::{cache_energies, mab_power_mw, CacheShape, PowerBreakdown, Technology};
use waymem_ingest::{hash_file, parse_into, LogFormat};
use waymem_isa::{CountingSink, Cpu, NullSink, RecordedTrace, TraceEvent, TraceSink};
use waymem_serve::proto::{self, Request, Response, RunRequest, SchemeSet};
use waymem_serve::{server, Client, ServeConfig, ServerHandle};
use waymem_sim::{
    full_dschemes, full_ischemes, kernel_source_hash, record_trace, DFront, DScheme, Experiment,
    IFront, IScheme, SchemeResult, SimConfig, SimResult, SynthPattern, SynthSpec, TraceStore,
    WorkloadId,
};
use waymem_trace::{codec, Section, StreamingEncoder, StreamingTrace};
use waymem_workloads::Benchmark;

use crate::rng::Rng;
use crate::spans::{self, Recorder, Span};
use crate::stats::median;
use crate::workloads::{self, ms_since};
use crate::{metric, Metric, Outcome};

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}

/// The median over `reps` repetitions of `f`, which returns the quantity
/// measured in one repetition.
fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&v)
}

/// A scheme name reduced to letters, digits and `_`.
fn metric_name(scheme: &str) -> String {
    let mut out = String::new();
    for c in scheme.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else if !out.is_empty() && !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_owned()
}

struct Inputs {
    traces: Vec<(Benchmark, RecordedTrace)>,
    capture_path: PathBuf,
    capture: RecordedTrace,
    capture_bytes: u64,
}

fn inputs(seed: u64, scratch: &Path) -> Result<Inputs, String> {
    let cfg = SimConfig::default();
    let mut traces = Vec::new();
    for b in Benchmark::ALL {
        traces.push((
            b,
            record_trace(b, &cfg).map_err(|e| format!("{}: {e}", b.name()))?,
        ));
    }
    let capture_path = scratch.join(format!("probe-capture-{seed}.log"));
    let cap = workloads::write_capture(&capture_path, seed, workloads::CAPTURE_ITERATIONS)?;
    let capture = waymem_ingest::parse_path(&capture_path)
        .map_err(|e| format!("parsing the capture: {e}"))?
        .trace;
    Ok(Inputs {
        traces,
        capture_path,
        capture,
        capture_bytes: cap.bytes,
    })
}

/// Every layer probe, in the order of the layers.
fn probes(inp: &Inputs, scratch: &Path) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let cfg = SimConfig::default();
    let kernel_events: usize = inp.traces.iter().map(|(_, t)| t.len()).sum();

    // workloads: assembling each kernel.
    let build = median_of(5, || {
        let t = Instant::now();
        for b in Benchmark::ALL {
            std::hint::black_box(b.workload(1).expect("kernels assemble"));
        }
        ms_since(t) / Benchmark::ALL.len() as f64
    });
    out.push(metric("workloads.build_ms", "ms", build));

    // isa: the interpreter alone.
    let programs: Vec<_> = Benchmark::ALL
        .iter()
        .map(|b| b.workload(1).expect("assembles"))
        .collect();
    let interp = median_of(3, || {
        let (mut ns, mut instrs) = (0.0, 0);
        for wl in &programs {
            let mut cpu = Cpu::new(&wl.program);
            let t = Instant::now();
            cpu.run(wl.max_steps, &mut NullSink).expect("kernel runs");
            ns += ns_since(t);
            instrs += cpu.instret();
        }
        ns / instrs as f64
    });
    out.push(metric("isa.interp_ns_per_instr", "ns", interp));

    // sim: interpreting and recording a kernel's trace.
    let record = median_of(3, || {
        let t = Instant::now();
        for b in Benchmark::ALL {
            std::hint::black_box(record_trace(b, &cfg).expect("kernel records"));
        }
        ns_since(t) / kernel_events as f64
    });
    out.push(metric("sim.record_ns_per_event", "ns", record));

    // trace store: a cold lookup without its recorder, and a warm one.
    let keys: Vec<_> = inp
        .traces
        .iter()
        .map(|(b, t)| (WorkloadId::kernel(*b, 1), kernel_source_hash(*b, 1), t))
        .collect();
    let mut warm_store = TraceStore::new();
    let store_record = median_of(5, || {
        let store = TraceStore::new();
        let mut ns = 0.0;
        for (id, hash, trace) in &keys {
            let mut inner = 0.0;
            let t = Instant::now();
            store
                .get_or_record(*id, *hash, || {
                    let t = Instant::now();
                    let copy = (*trace).clone();
                    inner = ns_since(t);
                    Ok::<_, Infallible>(copy)
                })
                .unwrap_or_else(|e| match e {});
            ns += ns_since(t) - inner;
        }
        warm_store = store;
        ns / 1e3 / keys.len() as f64
    });
    out.push(metric("trace.store_record_us", "us", store_record));
    let store_hit = median_of(5, || {
        let t = Instant::now();
        for _ in 0..200 {
            for (id, hash, _) in &keys {
                let hit = warm_store.get_or_record(*id, *hash, || Err("not stored"));
                std::hint::black_box(hit.expect("warm lookup hits"));
            }
        }
        ns_since(t) / 1e3 / (200 * keys.len()) as f64
    });
    out.push(metric("trace.store_hit_us", "us", store_hit));

    // trace codec.
    let mut buf = Vec::new();
    let encode = median_of(3, || {
        let t = Instant::now();
        for (_, trace) in &inp.traces {
            buf.clear();
            codec::encode_into(trace, &mut buf);
        }
        ns_since(t) / kernel_events as f64
    });
    let (mut raw, mut encoded, mut blobs) = (0, 0, Vec::new());
    for (_, trace) in &inp.traces {
        raw += trace.raw_size_bytes();
        blobs.push(codec::encode(trace));
        encoded += blobs.last().map_or(0, |b| b.len() as u64);
    }
    let decode = median_of(3, || {
        let t = Instant::now();
        for blob in &blobs {
            std::hint::black_box(codec::decode(blob).expect("decodes"));
        }
        ns_since(t) / kernel_events as f64
    });
    out.push(metric("trace.encode_ns_per_event", "ns", encode));
    out.push(metric("trace.decode_ns_per_event", "ns", decode));
    out.push(metric(
        "trace.compression_ratio",
        "ratio",
        raw as f64 / encoded as f64,
    ));

    // trace streaming, on the capture's trace.
    let wmtr = scratch.join("probe.wmtr");
    let cap = &inp.capture;
    let write = median_of(5, || {
        let t = Instant::now();
        let mut enc = StreamingEncoder::create(&wmtr).expect("creates the spool");
        enc.events(&cap.fetch_events);
        enc.events(&cap.data_events);
        enc.finish(cap.cycles, 1).expect("stream is written");
        ms_since(t)
    });
    let open = median_of(5, || {
        let t = Instant::now();
        std::hint::black_box(StreamingTrace::open(&wmtr).expect("opens"));
        ms_since(t)
    });
    let st = StreamingTrace::open(&wmtr).map_err(|e| e.to_string())?;
    let section = median_of(5, || {
        let mut sink = CountingSink::default();
        let t = Instant::now();
        let n = st
            .replay_section(Section::Data, &mut sink)
            .expect("replays")
            + st.replay_section(Section::Fetch, &mut sink)
                .expect("replays");
        ns_since(t) / n as f64
    });
    drop(st);
    let _ = std::fs::remove_file(&wmtr);
    out.push(metric("trace.stream_write_ms", "ms", write));
    out.push(metric("trace.stream_open_ms", "ms", open));
    out.push(metric("trace.stream_section_ns_per_event", "ns", section));

    // ingest: hashing and parsing the capture.
    let hash = median_of(5, || {
        let t = Instant::now();
        std::hint::black_box(hash_file(&inp.capture_path).expect("hashes"));
        inp.capture_bytes as f64 / t.elapsed().as_secs_f64() / 1e6
    });
    let parse = median_of(5, || {
        let file = File::open(&inp.capture_path).expect("capture opens");
        let t = Instant::now();
        let (_, sink) = parse_into(
            LogFormat::Lackey,
            BufReader::new(file),
            CountingSink::default(),
        )
        .expect("parses");
        ns_since(t) / (sink.fetches + sink.loads + sink.stores) as f64
    });
    out.push(metric("ingest.hash_mb_per_s", "MB/s", hash));
    out.push(metric("ingest.parse_ns_per_event", "ns", parse));

    // cache: a kernel's D stream (mostly hits) and the capture's (mostly
    // misses, with write-backs).
    let kernel_d = &inp
        .traces
        .iter()
        .find(|(b, _)| *b == Benchmark::Mpeg2Enc)
        .expect("mpeg2")
        .1;
    let hit_heavy = median_of(5, || cache_pass(&kernel_d.data_events).0);
    let (miss_heavy, misses, write_backs) = {
        let runs: Vec<_> = (0..5).map(|_| cache_pass(&cap.data_events)).collect();
        let ns: Vec<f64> = runs.iter().map(|r| r.0).collect();
        (median(&ns), runs[0].1, runs[0].2)
    };
    let d = cap.data_events.len() as f64;
    out.push(metric("cache.hit_heavy_ns_per_access", "ns", hit_heavy));
    out.push(metric("cache.miss_heavy_ns_per_access", "ns", miss_heavy));
    out.push(metric("cache.d_miss_share", "share", misses as f64 / d));
    out.push(metric(
        "cache.writeback_share",
        "share",
        write_backs as f64 / d,
    ));

    // core: the D-side MAB over a kernel's D stream.
    let (mab_ns, mab_hits) = mab_pass(&kernel_d.data_events);
    out.push(metric("core.mab_ns_per_access", "ns", mab_ns));
    out.push(metric("core.mab_hit_share", "share", mab_hits));

    // hwmodel: Eq. (1) for every scheme of one op.
    let (dfronts, ifronts) = replay_mem(kernel_d, cfg.geometry, &full_dschemes(), &full_ischemes());
    let power = median_of(5, || {
        let t = Instant::now();
        for _ in 0..200 {
            std::hint::black_box(power_eval(&dfronts, &ifronts, kernel_d.cycles, &cfg));
        }
        ns_since(t) / 1e3 / 200.0
    });
    out.push(metric("hwmodel.power_eval_us", "us", power));

    out.extend(serve_probes(&dfronts, &ifronts, kernel_d.cycles, &cfg)?);
    Ok(out)
}

/// ns per access, misses, write-backs for one pass of a fresh FR-V cache.
fn cache_pass(events: &[TraceEvent]) -> (f64, u64, u64) {
    let mut cache = SetAssocCache::new(Geometry::frv());
    let mut mem = MainMemory::new();
    let mut misses = 0;
    let t = Instant::now();
    for &e in events {
        let (addr, kind) = match e {
            TraceEvent::Load { addr, .. } => (addr, AccessKind::Load),
            TraceEvent::Store { addr, .. } => (addr, AccessKind::Store),
            TraceEvent::Fetch { .. } => continue,
        };
        if !cache.access(addr, kind, &mut mem).hit {
            misses += 1;
        }
    }
    (
        ns_since(t) / events.len() as f64,
        misses,
        cache.write_backs(),
    )
}

/// The paper's D-MAB probed and updated as the way-memo front-end does,
/// with the cache's answers computed beforehand so only the MAB is timed.
/// Returns ns per access and the MAB hit share.
fn mab_pass(events: &[TraceEvent]) -> (f64, f64) {
    let mut cache = SetAssocCache::new(Geometry::frv());
    let mut mem = MainMemory::new();
    let steps: Vec<(u32, i32, u32, Option<u32>)> = events
        .iter()
        .filter_map(|&e| match e {
            TraceEvent::Load {
                base, disp, addr, ..
            } => Some((base, disp, addr, AccessKind::Load)),
            TraceEvent::Store {
                base, disp, addr, ..
            } => Some((base, disp, addr, AccessKind::Store)),
            TraceEvent::Fetch { .. } => None,
        })
        .map(|(base, disp, addr, kind)| {
            let out = cache.access(addr, kind, &mut mem);
            (base, disp, out.way, (!out.hit).then_some(out.index))
        })
        .collect();
    let mut hit_share = 0.0;
    let ns = median_of(5, || {
        let mut mab = Mab::new(MabConfig::paper_dcache());
        let t = Instant::now();
        for &(base, disp, way, filled) in &steps {
            let hit = matches!(mab.lookup(base, disp), MabLookup::Hit { .. });
            if let Some(index) = filled {
                mab.invalidate_location(index, way);
            }
            if !hit {
                mab.record(base, disp, way);
            }
        }
        let ns = ns_since(t) / steps.len() as f64;
        let s = mab.stats();
        hit_share = s.hits as f64 / (s.lookups + s.wide_bypasses) as f64;
        ns
    });
    (ns, hit_share)
}

fn frames_roundtrip(req: &Request, reply: &Response) -> Result<(), proto::ProtoError> {
    let mut out = Vec::with_capacity(4096);
    proto::write_request(&mut out, req)?;
    let back = proto::read_request(&mut out.as_slice())?;
    out.clear();
    proto::write_response(&mut out, reply)?;
    std::hint::black_box(proto::read_response(&mut out.as_slice(), &back)?);
    Ok(())
}

/// Frame codec and result JSON on buffers, then a daemon on loopback: a
/// ping, a warm request, and pairs of equal cold requests sent at once.
/// The queue, run, dedup and refusal figures come from the daemon's own
/// counters and histograms, taken as deltas over the probe.
fn serve_probes(
    dfronts: &[DFront],
    ifronts: &[IFront],
    cycles: u64,
    cfg: &SimConfig,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let result = sim_result(
        WorkloadId::kernel(Benchmark::Mpeg2Enc, 1),
        dfronts,
        ifronts,
        cycles,
        cfg,
    );
    let json = server::result_json(&result).to_string();
    let spec = SynthSpec {
        pattern: SynthPattern::Stream,
        accesses: 2_000,
        seed: 1,
    };
    let warm = RunRequest::new(WorkloadId::Synthetic(spec));
    let req = Request::Run(warm.clone());
    let reply = Response::RunOk {
        shared: false,
        result_json: json,
    };
    let frames = median_of(5, || {
        let t = Instant::now();
        for _ in 0..500 {
            frames_roundtrip(&req, &reply).expect("frames round-trip");
        }
        ns_since(t) / 1e3 / 500.0
    });
    out.push(metric("serve.frame_roundtrip_us", "us", frames));
    let render = median_of(5, || {
        let t = Instant::now();
        for _ in 0..500 {
            std::hint::black_box(server::result_json(&result).to_string());
        }
        ns_since(t) / 1e3 / 500.0
    });
    out.push(metric("serve.result_json_us", "us", render));

    let before = ServeCounters::read();
    let mut daemon = Daemon::start(std::slice::from_ref(&warm), 2)?;
    let mut pings = Vec::new();
    let mut runs = Vec::new();
    for _ in 0..300 {
        let t = Instant::now();
        daemon.clients[0].ping().map_err(|e| format!("ping: {e}"))?;
        pings.push(ms_since(t) * 1e3);
    }
    for _ in 0..100 {
        let t = Instant::now();
        daemon.clients[0]
            .run(warm.clone())
            .map_err(|e| format!("warm run: {e}"))?;
        runs.push(ms_since(t));
    }
    let barrier = Barrier::new(2);
    let pairs: Result<(), String> = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<(), String> {
                    for seed in 0..8 {
                        let spec = SynthSpec {
                            pattern: SynthPattern::PointerChase { nodes: 4096 },
                            accesses: 5_000,
                            seed: 1000 + seed,
                        };
                        let mut cold = RunRequest::new(WorkloadId::Synthetic(spec));
                        cold.schemes = SchemeSet::Full;
                        barrier.wait();
                        client.run(cold).map_err(|e| format!("cold pair: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("client thread panicked"))
    });
    daemon.stop();
    pairs?;
    let after = ServeCounters::read();
    let requests = after.latency.count - before.latency.count;
    let refused = after.refused - before.refused;
    let run_count = after.run.count - before.run.count;
    let run_us = (after.run.sum - before.run.sum) as f64;
    let wait_us = ((after.latency.sum - before.latency.sum) as f64 - run_us) / requests as f64;
    out.push(metric("serve.ping_rtt_us", "us", median(&pings)));
    out.push(metric("serve.warm_run_ms", "ms", median(&runs)));
    out.push(metric("serve.queue_wait_ms", "ms", wait_us / 1e3));
    out.push(metric(
        "serve.run_ms",
        "ms",
        run_us / 1e3 / run_count as f64,
    ));
    out.push(metric(
        "serve.dedup_share",
        "share",
        (after.dedup - before.dedup) as f64 / (requests + refused) as f64,
    ));
    out.push(metric(
        "serve.refused_share",
        "share",
        refused as f64 / (requests + refused) as f64,
    ));
    Ok(out)
}

/// An in-process daemon and its client connections.
struct Daemon {
    handle: ServerHandle,
    clients: Vec<Client>,
}

impl Daemon {
    /// Starts the daemon with an explicit config and memory-only store,
    /// connects the clients, and sends each warm request once from each
    /// client, so every connection has been accepted before timing.
    fn start(warm: &[RunRequest], clients: usize) -> Result<Self, String> {
        let handle = server::start(ServeConfig::default(), TraceStore::new())
            .map_err(|e| format!("daemon start: {e}"))?;
        let addr = handle.local_addr();
        let mut d = Daemon {
            handle,
            clients: Vec::new(),
        };
        for _ in 0..clients {
            let c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            c.set_reply_timeout(Some(Duration::from_secs(90)))
                .map_err(|e| e.to_string())?;
            d.clients.push(c);
        }
        for client in &mut d.clients {
            for req in warm {
                client
                    .run(req.clone())
                    .map_err(|e| format!("warm-up request: {e}"))?;
            }
        }
        Ok(d)
    }

    /// Drains the daemon and joins every thread it started.
    fn stop(self) {
        let Daemon { handle, clients } = self;
        drop(clients);
        handle.begin_drain();
        handle.join();
    }
}

struct ServeCounters {
    latency: waymem_obs::metrics::HistogramSnapshot,
    run: waymem_obs::metrics::HistogramSnapshot,
    dedup: u64,
    refused: u64,
}

impl ServeCounters {
    fn read() -> Self {
        let reg = waymem_obs::registry();
        ServeCounters {
            latency: reg.histogram("serve.request_latency_us").snapshot(),
            run: reg.histogram("serve.run_us").snapshot(),
            dedup: reg.counter("serve.dedup_hits").get(),
            refused: [
                "serve.overload_rejects",
                "serve.timeouts",
                "serve.draining_rejects",
            ]
            .iter()
            .map(|n| reg.counter(n).get())
            .sum(),
        }
    }
}

/// Builds and replays every front on one thread, untraced.
fn replay_mem(
    trace: &RecordedTrace,
    g: Geometry,
    ds: &[DScheme],
    is: &[IScheme],
) -> (Vec<DFront>, Vec<IFront>) {
    let d = ds
        .iter()
        .map(|s| {
            let mut f = s.build(g);
            f.replay(&trace.data_events);
            f
        })
        .collect();
    let i = is
        .iter()
        .map(|s| {
            let mut f = s.build(g);
            f.replay(&trace.fetch_events);
            f
        })
        .collect();
    (d, i)
}

/// Eq. (1) for every front, as the engine composes it.
fn power_eval(d: &[DFront], i: &[IFront], cycles: u64, cfg: &SimConfig) -> Vec<PowerBreakdown> {
    let g = cfg.geometry;
    let shape = CacheShape {
        sets: g.sets(),
        ways: g.ways(),
        line_bytes: g.line_bytes(),
        tag_bits: g.tag_bits(),
    };
    let energies = cache_energies(shape, cfg.technology);
    let tech: Technology = cfg.technology;
    let dp = d.iter().map(|f| {
        let mab = f.mab_shape().map(|s| mab_power_mw(s, tech));
        PowerBreakdown::from_counts(f.energy_counts(cycles), energies, mab, tech)
    });
    let ip = i.iter().map(|f| {
        let mab = f.mab_shape().map(|s| mab_power_mw(s, tech));
        PowerBreakdown::from_counts(f.energy_counts(cycles), energies, mab, tech)
    });
    dp.chain(ip).collect()
}

/// The `SimResult` an `Experiment` would return for these fronts.
fn sim_result(
    workload: WorkloadId,
    d: &[DFront],
    i: &[IFront],
    cycles: u64,
    cfg: &SimConfig,
) -> SimResult {
    let mut power = power_eval(d, i, cycles, cfg).into_iter();
    let mut side = |name: String, stats, energy, extra_cycles| SchemeResult {
        name,
        stats,
        energy,
        power: power.next().expect("one power figure per front"),
        extra_cycles,
    };
    let dcache = d
        .iter()
        .map(|f| {
            side(
                f.scheme().name(),
                f.stats(),
                f.energy_counts(cycles),
                f.extra_cycles(),
            )
        })
        .collect();
    let icache = i
        .iter()
        .map(|f| side(f.scheme().name(), f.stats(), f.energy_counts(cycles), 0))
        .collect();
    SimResult {
        workload,
        cycles,
        dcache,
        icache,
    }
}

/// Where a decomposed op's replay reads its events from.
#[derive(Clone, Copy)]
enum Source<'a> {
    Mem(&'a RecordedTrace),
    File(&'a StreamingTrace),
}

impl Source<'_> {
    fn replay(self, section: Section, sink: &mut impl TraceSink) -> Result<(), String> {
        match self {
            Source::Mem(t) => {
                match section {
                    Section::Data => sink.events(&t.data_events),
                    Section::Fetch => sink.events(&t.fetch_events),
                }
                Ok(())
            }
            Source::File(st) => st
                .replay_section(section, sink)
                .map(drop)
                .map_err(|e| e.to_string()),
        }
    }

    fn counts(self) -> (u64, u64, u64) {
        match self {
            Source::Mem(t) => (
                t.data_events.len() as u64,
                t.fetch_events.len() as u64,
                t.cycles,
            ),
            Source::File(st) => (st.data_count(), st.fetch_count(), st.cycles()),
        }
    }
}

/// The replay as the engine lays it out: the D schemes and the I schemes
/// cut into chunks, one thread per chunk, at most one chunk per hardware
/// thread (on 2 vCPUs: the D chain on one thread, the I chain on the
/// other). Every front gets a span; every chunk a chain span.
fn traced_replay(
    rec: &Recorder,
    op: u64,
    parent: usize,
    src: Source<'_>,
    g: Geometry,
    ds: &[DScheme],
    is: &[IScheme],
) -> Result<(Vec<DFront>, Vec<IFront>), String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = (ds.len() + is.len()).div_ceil(workers).max(1);
    std::thread::scope(|scope| {
        let dh: Vec<_> = ds
            .chunks(chunk)
            .map(|group| {
                scope.spawn(move || {
                    rec.span("sim.d_chain", op, Some(parent), |chain| {
                        group
                            .iter()
                            .map(|s| {
                                rec.span(
                                    format!("sim.dfront.{}", metric_name(&s.name())),
                                    op,
                                    Some(chain),
                                    |_| {
                                        let mut f = s.build(g);
                                        src.replay(Section::Data, &mut f).map(|()| f)
                                    },
                                )
                            })
                            .collect::<Result<Vec<_>, String>>()
                    })
                })
            })
            .collect();
        let ih: Vec<_> = is
            .chunks(chunk)
            .map(|group| {
                scope.spawn(move || {
                    rec.span("sim.i_chain", op, Some(parent), |chain| {
                        group
                            .iter()
                            .map(|s| {
                                rec.span(
                                    format!("sim.ifront.{}", metric_name(&s.name())),
                                    op,
                                    Some(chain),
                                    |_| {
                                        let mut f = s.build(g);
                                        src.replay(Section::Fetch, &mut f).map(|()| f)
                                    },
                                )
                            })
                            .collect::<Result<Vec<_>, String>>()
                    })
                })
            })
            .collect();
        let mut d = Vec::new();
        for h in dh {
            d.extend(h.join().expect("replay thread panicked")?);
        }
        let mut i = Vec::new();
        for h in ih {
            i.extend(h.join().expect("replay thread panicked")?);
        }
        Ok((d, i))
    })
}

/// Replay on the full scheme sets plus power, traced, for a resolved
/// source.
fn traced_tail(
    rec: &Recorder,
    op: u64,
    root: usize,
    workload: WorkloadId,
    src: Source<'_>,
    cfg: &SimConfig,
) -> Result<Decomposed, String> {
    let (ds, is) = (full_dschemes(), full_ischemes());
    let (d, i) = rec.span("sim.replay", op, Some(root), |id| {
        traced_replay(rec, op, id, src, cfg.geometry, &ds, &is)
    })?;
    let (d_events, i_events, cycles) = src.counts();
    let result = rec.span("hwmodel.power", op, Some(root), |_| {
        sim_result(workload, &d, &i, cycles, cfg)
    });
    Ok(Decomposed {
        result,
        d_events,
        i_events,
    })
}

/// A decomposed op's result and the events its fronts replayed.
struct Decomposed {
    result: SimResult,
    d_events: u64,
    i_events: u64,
}

/// One representative op, decomposed: the public calls an op makes, each
/// in a span under the op's root span.
enum Rep<'a> {
    Kernel {
        b: Benchmark,
        g: Geometry,
        store: &'a TraceStore,
    },
    Ingest {
        path: &'a Path,
        tmp: &'a Path,
    },
}

impl Rep<'_> {
    fn traced(&self, rec: &Recorder, op: u64) -> Result<Decomposed, String> {
        rec.span("op", op, None, |root| self.decomposed(rec, op, root))
    }

    fn decomposed(&self, rec: &Recorder, op: u64, root: usize) -> Result<Decomposed, String> {
        match *self {
            Rep::Kernel { b, g, store } => {
                let cfg = SimConfig {
                    geometry: g,
                    ..SimConfig::default()
                };
                let id = WorkloadId::kernel(b, 1);
                let hash = rec.span("sim.source_hash", op, Some(root), |_| {
                    kernel_source_hash(b, 1)
                });
                let trace = rec.span("trace.store_lookup", op, Some(root), |lookup| {
                    store.get_or_record(id, hash, || {
                        rec.span("sim.record", op, Some(lookup), |_| record_trace(b, &cfg))
                    })
                });
                let trace = trace.map_err(|e| e.to_string())?;
                traced_tail(rec, op, root, id, Source::Mem(&trace), &cfg)
            }
            Rep::Ingest { path, tmp } => {
                let cfg = SimConfig::default();
                let hash = rec
                    .span("ingest.hash", op, Some(root), |_| hash_file(path))
                    .map_err(|e| e.to_string())?;
                let (stats, enc) = rec.span("ingest.parse", op, Some(root), |_| {
                    let file = File::open(path).map_err(|e| e.to_string())?;
                    let enc = StreamingEncoder::create(tmp).map_err(|e| e.to_string())?;
                    parse_into(LogFormat::Lackey, BufReader::new(file), enc)
                        .map_err(|e| e.to_string())
                })?;
                rec.span("trace.stream_write", op, Some(root), |_| {
                    enc.finish(stats.cycles, stats.source_hash)
                })
                .map_err(|e| e.to_string())?;
                let st = rec
                    .span("trace.stream_open", op, Some(root), |_| {
                        StreamingTrace::open(tmp)
                    })
                    .map_err(|e| e.to_string())?
                    .delete_on_drop();
                if stats.source_hash != hash {
                    return Err("capture changed while being ingested".to_owned());
                }
                let id = WorkloadId::External { hash };
                traced_tail(rec, op, root, id, Source::File(&st), &cfg)
            }
        }
    }
}

/// One round of representative ops: the same ops untraced (as the
/// workload runs them) and decomposed with spans.
#[derive(Default)]
struct Round {
    untraced_ms: f64,
    traced_ms: f64,
    ops: u64,
}

#[derive(Default)]
struct Traced {
    rounds: Vec<Round>,
    ops: u64,
    failures: Vec<String>,
    store_hit_share: f64,
    d_events: u64,
    i_events: u64,
}

impl Traced {
    /// Runs one op untraced and then decomposed, checks that both agree,
    /// and counts the decomposed op's replayed events.
    fn op(
        &mut self,
        round: &mut Round,
        rec: &Recorder,
        what: &str,
        exp: Experiment<'_>,
        rep: Rep<'_>,
    ) -> Result<(), String> {
        let c = Instant::now();
        let want = exp.run().map_err(|e| e.to_string())?;
        round.untraced_ms += ms_since(c);
        let c = Instant::now();
        let got = rep.traced(rec, self.ops)?;
        round.traced_ms += ms_since(c);
        round.ops += 1;
        self.ops += 1;
        self.d_events += got.d_events;
        self.i_events += got.i_events;
        if !workloads::same_result(&got.result, &want) {
            self.failures.push(format!(
                "{what}: decomposed op differs from Experiment::run"
            ));
        } else if let Err(e) = crate::digest::check_way_memo_cycles(&want) {
            self.failures.push(format!("{what}: {e}"));
        }
        Ok(())
    }
}

/// Rounds of the workload's representative ops until `budget` is spent
/// (at least 3): a pass of the 7 kernels on fresh stores, one sweep pair
/// per geometry on warm stores, or one ingest of the capture.
fn representative(
    workload: &str,
    seed: u64,
    budget: Duration,
    rec: &Recorder,
    scratch: &Path,
) -> Result<Traced, String> {
    let mut rng = Rng::new(seed);
    let mut t = Traced::default();
    let started = Instant::now();
    let more = |t: &Traced| t.rounds.len() < 3 || started.elapsed() < budget;
    match workload {
        "kernels-cold" => {
            let (mut lookups, mut hits) = (0, 0);
            while more(&t) {
                let (su, st) = (TraceStore::new(), TraceStore::new());
                let mut order = Benchmark::ALL;
                rng.shuffle(&mut order);
                let mut round = Round::default();
                let g = Geometry::frv();
                for b in order {
                    let exp = workloads::kernel_op(b, g, &su);
                    t.op(
                        &mut round,
                        rec,
                        b.name(),
                        exp,
                        Rep::Kernel { b, g, store: &st },
                    )?;
                }
                let s = st.stats();
                (lookups, hits) = (lookups + s.lookups, hits + s.hits);
                t.rounds.push(round);
            }
            t.store_hit_share = hits as f64 / lookups.max(1) as f64;
        }
        "sweep-warm" => {
            let (su, st) = (TraceStore::new(), TraceStore::new());
            for b in Benchmark::ALL {
                for s in [&su, &st] {
                    s.get_or_record(WorkloadId::kernel(b, 1), kernel_source_hash(b, 1), || {
                        record_trace(b, &SimConfig::default())
                    })
                    .map_err(|e| e.to_string())?;
                }
            }
            let before = st.stats();
            while more(&t) {
                let mut round = Round::default();
                for g in workloads::sweep_grid() {
                    let b = Benchmark::ALL[rng.below(Benchmark::ALL.len() as u64) as usize];
                    let exp = workloads::kernel_op(b, g, &su);
                    t.op(
                        &mut round,
                        rec,
                        b.name(),
                        exp,
                        Rep::Kernel { b, g, store: &st },
                    )?;
                }
                t.rounds.push(round);
            }
            let after = st.stats();
            t.store_hit_share =
                (after.hits - before.hits) as f64 / (after.lookups - before.lookups).max(1) as f64;
        }
        "ingest-stream" => {
            let path = scratch.join(format!("capture-{seed}.log"));
            workloads::write_capture(&path, seed, workloads::CAPTURE_ITERATIONS)?;
            let tmp = scratch.join("tmp").join("traced.wmtr");
            while more(&t) {
                let mut round = Round::default();
                let exp = workloads::ingest_op(&path, true);
                let rep = Rep::Ingest {
                    path: &path,
                    tmp: &tmp,
                };
                t.op(&mut round, rec, "capture", exp, rep)?;
                t.rounds.push(round);
            }
            let _ = std::fs::remove_file(&path);
        }
        _ => unreachable!("workload names are checked when arguments are parsed"),
    }
    Ok(t)
}

/// Layer of a span name: the text before the first `.` (`op` for roots).
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Which end-to-end figures each layer's metrics should move.
const MOVES: [(&str, &str); 10] = [
    ("workloads", "kernels-cold op_p50_ms (slightly)"),
    ("isa", "kernels-cold events_per_s, op_p50_ms"),
    ("sim", "record: kernels-cold; fronts: the workload whose critical chain they sit on"),
    ("trace", "store: too small to show; codec/stream: ingest-stream op_p50_ms, events_per_s, peak_rss_mib"),
    ("ingest", "ingest-stream op_p50_ms, events_per_s"),
    ("cache", "hit-heavy: sweep-warm, kernels-cold; miss-heavy: ingest-stream only"),
    ("core", "sweep-warm events_per_s"),
    ("hwmodel", "nothing (microseconds per op)"),
    ("serve", "no end-to-end workload: serve-mix was dropped as unsteady"),
    ("bench", "nothing: the benchmark's own tracing cost"),
];

pub fn traced(
    workload: &str,
    seed: u64,
    run_for: Duration,
    scratch: &Path,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let inp = inputs(seed, scratch)?;
    let mut metrics = probes(&inp, scratch)?;
    let _ = std::fs::remove_file(&inp.capture_path);
    let probe_s = started.elapsed().as_secs_f64();

    let rec = Recorder::new();
    let budget = run_for.saturating_sub(started.elapsed());
    let t = representative(workload, seed, budget, &rec, scratch)?;
    let spans = rec.take();
    let spans_path = scratch.join(format!("spans-{workload}-{seed}.jsonl"));
    let written = File::create(&spans_path)
        .map(std::io::BufWriter::new)
        .and_then(|mut w| {
            spans::write_jsonl(&spans, &mut w)?;
            std::io::Write::flush(&mut w)
        });
    if let Err(e) = written {
        return Err(format!("writing {}: {e}", spans_path.display()));
    }

    let ops: u64 = t.rounds.iter().map(|r| r.ops).sum();
    let per_op = |name: &str| span_total_ms(&spans, |s| s.name == name) / ops as f64;
    let (d_chain, i_chain) = (per_op("sim.d_chain"), per_op("sim.i_chain"));
    let experiment = t.rounds.iter().map(|r| r.untraced_ms).sum::<f64>() / ops as f64;
    let covered = critical_path_ms(&spans) / ops as f64;
    let overhead = median(
        &t.rounds
            .iter()
            .map(|r| r.traced_ms / r.untraced_ms - 1.0)
            .collect::<Vec<_>>(),
    );
    for (prefix, events) in [("sim.dfront.", t.d_events), ("sim.ifront.", t.i_events)] {
        let mut seen: Vec<&str> = Vec::new();
        for s in spans.iter().filter(|s| s.name.starts_with(prefix)) {
            if !seen.contains(&s.name.as_str()) {
                seen.push(&s.name);
            }
        }
        for n in seen {
            let ns = span_total_ms(&spans, |s| s.name == n) * 1e6;
            metrics.push(metric(
                format!("{n}.ns_per_event"),
                "ns",
                ns / events as f64,
            ));
        }
    }
    metrics.push(metric("sim.d_chain_ms", "ms", d_chain));
    metrics.push(metric("sim.i_chain_ms", "ms", i_chain));
    metrics.push(metric("sim.d_to_i_chain_ratio", "ratio", d_chain / i_chain));
    metrics.push(metric("sim.replay_ms", "ms", per_op("sim.replay")));
    metrics.push(metric("sim.experiment_ms", "ms", experiment));
    metrics.push(metric(
        "sim.unexplained_share",
        "share",
        1.0 - covered / experiment,
    ));
    metrics.push(metric("trace.store_hit_share", "share", t.store_hit_share));
    metrics.push(metric("bench.trace_overhead_share", "share", overhead));

    report(workload, &spans, &t, &metrics, ops, probe_s, &spans_path);
    let failed = t.failures.len() as u64;
    Ok(Outcome {
        correct: failed == 0,
        attempted: 2 * t.ops,
        failed,
        metrics,
    })
}

fn span_total_ms(spans: &[Span], keep: impl Fn(&Span) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.ns() as f64 / 1e6)
        .sum()
}

/// Per op, the spans on its critical path: the root's sequential
/// children, with the replay counted as its slowest chain.
fn critical_path_ms(spans: &[Span]) -> f64 {
    let mut total = 0.0;
    for (root, _) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        for (id, s) in spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(root))
        {
            if s.name == "sim.replay" {
                let chains = spans.iter().filter(|c| c.parent == Some(id));
                total += chains.map(|c| c.ns() as f64 / 1e6).fold(0.0, f64::max);
            } else {
                total += s.ns() as f64 / 1e6;
            }
        }
    }
    total
}

fn report(
    workload: &str,
    spans: &[Span],
    t: &Traced,
    metrics: &[Metric],
    ops: u64,
    probe_s: f64,
    spans_path: &Path,
) {
    let self_ns = spans::self_ns(spans);
    let mut by_name: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(&self_ns) {
        let e = by_name.entry(s.name.as_str()).or_default();
        e.0 += 1;
        e.1 += *ns as f64 / 1e6;
    }
    let op_ms = span_total_ms(spans, |s| s.parent.is_none()) / ops as f64;
    println!(
        "traced run: workload {workload}, {ops} representative ops in {} rounds",
        t.rounds.len()
    );
    println!(
        "layer probes took {probe_s:.1} s; spans written to {}",
        spans_path.display()
    );
    println!();
    println!("self time per op, by span (decomposed ops):");
    println!(
        "  {:<34} {:>7} {:>11} {:>8}",
        "span", "calls", "self ms/op", "of op"
    );
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, (calls, ms)) in &by_name {
        let per = ms / ops as f64;
        *by_layer.entry(layer(name)).or_default() += per;
        println!(
            "  {name:<34} {calls:>7} {per:>11.4} {:>7.1}%",
            100.0 * per / op_ms
        );
    }
    println!();
    println!("self time per op, by layer (the D and I chains overlap, so shares can pass 100%):");
    for (name, per) in &by_layer {
        println!("  {name:<34} {per:>19.4} {:>7.1}%", 100.0 * per / op_ms);
    }
    let get = |n: &str| {
        metrics
            .iter()
            .find(|m| m.name == n)
            .map_or(f64::NAN, |m| m.value)
    };
    let (d, i) = (get("sim.d_chain_ms"), get("sim.i_chain_ms"));
    println!();
    println!(
        "critical replay chain: {} (D chain {d:.3} ms, I chain {i:.3} ms per op)",
        if d > i { "D" } else { "I" }
    );
    println!(
        "tracing overhead: {:+.1}% (traced vs untraced op); unexplained: {:.1}% of sim.experiment_ms {:.3} ms",
        100.0 * get("bench.trace_overhead_share"),
        100.0 * get("sim.unexplained_share"),
        get("sim.experiment_ms"),
    );
    println!();
    println!("per-layer metrics:");
    let mut last = "";
    for m in metrics {
        let l = layer(&m.name);
        if l != last {
            let moves = MOVES.iter().find(|(k, _)| *k == l).map_or("", |(_, v)| v);
            println!("  [{l}] should move: {moves}");
            last = l;
        }
        println!("    {:<44} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for f in &t.failures {
        println!("  failed: {f}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_reduce_to_metric_names() {
        let names: Vec<String> = full_dschemes()
            .iter()
            .map(|s| metric_name(&s.name()))
            .collect();
        assert_eq!(
            names,
            [
                "original",
                "set_buffer_14_x1",
                "filter_cache_6_x4",
                "way_predict_9",
                "two_phase_8",
                "way_memo_2x8",
                "way_memo_lb_2x8_2",
            ]
        );
        assert_eq!(
            metric_name(&IScheme::paper_way_memo().name()),
            "way_memo_2x16"
        );
    }
}
