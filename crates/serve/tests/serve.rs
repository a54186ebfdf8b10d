//! End-to-end tests over real sockets: single-flight dedup under
//! maximum contention, admission control, per-request timeouts,
//! malformed-frame replies, and graceful drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::Duration;

use waymem_serve::client::{Client, ClientError};
use waymem_serve::proto::{self, Request, RunRequest, SchemeSet, Status};
use waymem_serve::server::{self, ServeConfig};
use waymem_trace::{SynthPattern, SynthSpec, TraceStore, WorkloadId};

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 16,
        request_timeout: Duration::from_secs(120),
    }
}

fn synth(pattern: SynthPattern, accesses: u32, seed: u32) -> RunRequest {
    RunRequest::new(WorkloadId::Synthetic(SynthSpec { pattern, accesses, seed }))
}

/// The issue's headline guarantee: N concurrent clients requesting the
/// same cold workload observe exactly one store record and bit-identical
/// results.
#[test]
fn concurrent_cold_clients_share_one_recording_and_identical_results() {
    const CLIENTS: usize = 8;
    let handle = server::start(test_config(), TraceStore::new()).expect("start server");
    let addr = handle.local_addr();

    // Heavy enough that the leader is still recording while the other
    // seven requests arrive and attach to its flight.
    let request = synth(
        SynthPattern::PhaseChange { hot_lines: 256, phases: 4 },
        2_000_000,
        99,
    );
    let barrier = Barrier::new(CLIENTS);
    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (request, barrier) = (request.clone(), &barrier);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    barrier.wait();
                    client.run(request).expect("run")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let stats = handle.store_stats();
    assert_eq!(stats.records, 1, "eight cold clients must cost exactly one recording");
    let first = &replies[0].result_json;
    assert!(first.contains("\"schema\":\"waymem/serve-result/v2\""));
    for reply in &replies {
        assert_eq!(
            &reply.result_json, first,
            "every client must observe byte-identical result JSON"
        );
    }
    assert!(
        replies.iter().filter(|r| r.shared).count() >= 1,
        "at least one follower must have ridden the leader's single flight"
    );

    handle.begin_drain();
    handle.join();
}

#[test]
fn a_full_admission_queue_answers_overloaded_not_silence() {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..test_config()
    };
    let handle = server::start(cfg, TraceStore::new()).expect("start server");
    let addr = handle.local_addr();

    // Distinct heavy workloads: one occupies the single worker, one
    // fills the depth-1 queue, the third must bounce.
    let heavy =
        |seed| synth(SynthPattern::PhaseChange { hot_lines: 256, phases: 4 }, 2_000_000, seed);
    std::thread::scope(|scope| {
        // Staggered, so the first is already *in* the worker before the
        // second takes the single queue slot.
        let mut busy = Vec::new();
        for i in 0..2 {
            let request = heavy(i);
            busy.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.run(request).expect("heavy run")
            }));
            std::thread::sleep(Duration::from_millis(200));
        }
        let mut client = Client::connect(addr).expect("connect");
        match client.run(heavy(7)) {
            Err(ClientError::Refused { status: Status::Overloaded, message }) => {
                assert!(message.contains("queue full"), "got: {message}");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        for b in busy {
            b.join().expect("heavy client");
        }
    });

    handle.begin_drain();
    handle.join();
}

#[test]
fn a_request_slower_than_the_budget_times_out_but_warms_the_store() {
    let cfg = ServeConfig {
        workers: 1,
        request_timeout: Duration::from_millis(1),
        ..test_config()
    };
    let handle = server::start(cfg, TraceStore::new()).expect("start server");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let request = synth(SynthPattern::Stream, 500_000, 5);
    match client.run(request) {
        Err(ClientError::Refused { status: Status::Timeout, .. }) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }

    // The flight kept running: once it lands in the store, the same
    // request under a sane budget is a warm hit.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while handle.store_stats().records == 0 {
        assert!(std::time::Instant::now() < deadline, "recording never landed");
        std::thread::sleep(Duration::from_millis(20));
    }

    handle.begin_drain();
    handle.join();
}

#[test]
fn malformed_frames_get_a_structured_bad_request_then_the_door() {
    let handle = server::start(test_config(), TraceStore::new()).expect("start server");
    let mut socket = TcpStream::connect(handle.local_addr()).expect("connect");

    // A frame with valid length but garbage magic — an HTTP client, say.
    let mut wire = Vec::new();
    wire.extend_from_slice(&16u32.to_be_bytes());
    wire.extend_from_slice(b"GET / HTTP/1.1\r\n");
    socket.write_all(&wire).expect("write garbage");

    let response =
        proto::read_response(&mut socket, &Request::Ping).expect("structured reply");
    match response {
        proto::Response::Refused { status: Status::BadRequest, message } => {
            assert!(message.contains("magic"), "got: {message}");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // After a framing error the server closes the connection.
    let mut rest = Vec::new();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let closed = socket.read_to_end(&mut rest);
    assert!(matches!(closed, Ok(0)), "connection must be closed, got {closed:?}");

    handle.begin_drain();
    handle.join();
}

#[test]
fn ping_stats_and_scheme_sets_work_end_to_end() {
    let handle = server::start(test_config(), TraceStore::new()).expect("start server");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    client.ping().expect("ping");

    let full = RunRequest {
        schemes: SchemeSet::Full,
        ..synth(SynthPattern::Strided { stride: 64 }, 20_000, 3)
    };
    let reply = client.run(full).expect("full run");
    // Seven ablation points per side land in the JSON.
    assert_eq!(reply.result_json.matches("\"cache\":\"dcache\"").count(), 7);
    assert_eq!(reply.result_json.matches("\"cache\":\"icache\"").count(), 7);

    let baseline = RunRequest {
        schemes: SchemeSet::Baseline,
        ..synth(SynthPattern::Strided { stride: 64 }, 20_000, 3)
    };
    let reply = client.run(baseline).expect("baseline run");
    assert_eq!(reply.result_json.matches("\"scheme\":").count(), 2);

    let snapshot = client.stats().expect("stats");
    assert!(snapshot.contains("\"serve.requests\""), "snapshot: {snapshot}");
    assert!(snapshot.contains("\"store.records\""), "snapshot: {snapshot}");

    handle.begin_drain();
    handle.join();
}

#[test]
fn shutdown_drains_gracefully_and_refuses_new_runs() {
    let handle = server::start(test_config(), TraceStore::new()).expect("start server");
    let addr = handle.local_addr();

    // Warm one workload so the drain has completed work behind it.
    let mut client = Client::connect(addr).expect("connect");
    client.run(synth(SynthPattern::Stream, 20_000, 1)).expect("warm run");

    // A second connection is mid-conversation when the drain begins:
    // its next run must be refused with Draining, not hung or dropped.
    let mut open_conn = Client::connect(addr).expect("connect");
    open_conn.ping().expect("ping before drain");

    let mut closer = Client::connect(addr).expect("connect");
    closer.shutdown().expect("shutdown");
    assert!(handle.is_draining());

    match open_conn.run(synth(SynthPattern::Stream, 20_000, 2)) {
        Err(ClientError::Refused { status: Status::Draining, .. }) => {}
        // The drain may already have closed the connection under us —
        // also a clean refusal, never a hang.
        Err(ClientError::Proto(_)) => {}
        Ok(_) => panic!("a run admitted during drain"),
        Err(other) => panic!("expected Draining, got {other}"),
    }
    drop(open_conn);

    // join() returning at all is the graceful-exit assertion: accept
    // loop down, workers joined, nothing half-done.
    handle.join();
}
