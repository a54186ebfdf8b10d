//! Property-based tests for the bounded-memory streaming layer: the
//! [`StreamingEncoder`] sink produces files byte-identical to the
//! materializing codec, [`StreamingTrace`] replay is invariant under the
//! batch size (including the off-by-one boundaries), and corrupt files
//! (truncations, bit flips, garbage) come back as structured `Err`s —
//! never a panic, never a partial replay.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use waymem_isa::{FetchKind, RecordedTrace, RecordingSink, TraceEvent, TraceSink};
use waymem_trace::{codec, Section, StreamError, StreamingEncoder, StreamingTrace};

/// A unique scratch path per test case; callers clean up best-effort,
/// the OS temp dir catches the rest.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("waymem-stream-prop-{}-{n}-{tag}.wmtr", std::process::id()))
}

fn fetch_kinds() -> impl Strategy<Value = FetchKind> {
    prop_oneof![
        Just(FetchKind::Sequential),
        (any::<u32>(), any::<i32>())
            .prop_map(|(base, disp)| FetchKind::TakenBranch { base, disp }),
        any::<u32>().prop_map(|target| FetchKind::LinkReturn { target }),
        (any::<u32>(), any::<i32>()).prop_map(|(base, disp)| FetchKind::Indirect { base, disp }),
    ]
}

fn fetch_events() -> impl Strategy<Value = TraceEvent> {
    (any::<u32>(), fetch_kinds()).prop_map(|(pc, kind)| TraceEvent::Fetch { pc, kind })
}

fn data_events() -> impl Strategy<Value = TraceEvent> {
    (any::<u32>(), any::<i32>(), any::<u32>(), any::<u8>(), any::<bool>()).prop_map(
        |(base, disp, addr, size, is_store)| {
            if is_store {
                TraceEvent::Store { base, disp, addr, size }
            } else {
                TraceEvent::Load { base, disp, addr, size }
            }
        },
    )
}

/// Traces a [`StreamingEncoder`] can express: fetches in the fetch
/// section, loads/stores in the data section — the split every real
/// producer (CPU, parser, generator) emits.
fn traces() -> impl Strategy<Value = RecordedTrace> {
    (
        prop::collection::vec(fetch_events(), 0..200),
        prop::collection::vec(data_events(), 0..200),
        any::<u64>(),
    )
        .prop_map(|(fetch_events, data_events, cycles)| RecordedTrace {
            fetch_events,
            data_events,
            cycles,
        })
}

/// Pushes the trace through the sink interface in a program-order-ish
/// interleave (alternating sections), proving section routing — not
/// arrival order across sections — determines the file layout.
fn feed(sink: &mut StreamingEncoder, trace: &RecordedTrace) {
    let mut fetches = trace.fetch_events.iter();
    let mut data = trace.data_events.iter();
    loop {
        match (fetches.next(), data.next()) {
            (None, None) => return,
            (f, d) => {
                for &e in f.into_iter().chain(d) {
                    match e {
                        TraceEvent::Fetch { pc, kind } => sink.fetch(pc, kind),
                        TraceEvent::Load { base, disp, addr, size } => {
                            sink.load(base, disp, addr, size);
                        }
                        TraceEvent::Store { base, disp, addr, size } => {
                            sink.store(base, disp, addr, size);
                        }
                    }
                }
            }
        }
    }
}

/// The interleaved stream `StreamingTrace::replay` (fetch section, then
/// data section) must reproduce.
fn interleaved(trace: &RecordedTrace) -> Vec<TraceEvent> {
    let mut all = trace.fetch_events.clone();
    all.extend_from_slice(&trace.data_events);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streaming sink's file is byte-identical to materializing the
    /// trace and encoding it in one shot — header, sections, checksum.
    #[test]
    fn streaming_sink_encode_matches_one_shot_encode(
        trace in traces(),
        source_hash in any::<u64>(),
    ) {
        let path = scratch("sink");
        let mut enc = StreamingEncoder::create(&path).expect("create encoder");
        feed(&mut enc, &trace);
        prop_assert_eq!(enc.event_count(), trace.len() as u64);
        let stats = enc.finish(trace.cycles, source_hash).expect("finish");
        let streamed = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(stats.bytes, streamed.len() as u64);
        let one_shot = codec::encode_with_hash(&trace, source_hash);
        prop_assert_eq!(streamed, one_shot, "streamed file differs from one-shot encode");
    }

    /// Replay is invariant under the batch size: 1, len−1, len and
    /// len+extra all visit exactly the encoded events, in order, per
    /// section. (Batch 1 maximizes boundary crossings; len−1 leaves a
    /// one-event tail; > len must not over-read.)
    #[test]
    fn every_batch_size_replays_identically(trace in traces(), extra in 1usize..64) {
        let path = scratch("batch");
        let bytes = codec::encode_with_hash(&trace, 7);
        std::fs::write(&path, &bytes).expect("write file");
        let len = trace.len();
        let expected = interleaved(&trace);
        for batch in [1, len.saturating_sub(1).max(1), len.max(1), len + extra] {
            let st = StreamingTrace::open(&path).expect("open").with_batch(batch);
            let mut rec = RecordingSink::default();
            let replayed = st.replay(&mut rec).expect("replay");
            prop_assert_eq!(replayed as usize, len, "batch {}", batch);
            prop_assert_eq!(&rec.events, &expected, "batch {} changed the stream", batch);

            // Per-section replay must see exactly that section.
            let mut fetches = RecordingSink::default();
            st.replay_section(Section::Fetch, &mut fetches).expect("fetch section");
            prop_assert_eq!(&fetches.events, &trace.fetch_events);
            let mut data = RecordingSink::default();
            st.replay_section(Section::Data, &mut data).expect("data section");
            prop_assert_eq!(&data.events, &trace.data_events);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Every strict prefix of a valid file fails to open with a
    /// structured error — torn writes and truncated downloads cannot
    /// yield a handle that would replay a partial stream.
    #[test]
    fn truncations_error_cleanly(trace in traces(), cut in any::<u16>()) {
        let path = scratch("trunc");
        let bytes = codec::encode_with_hash(&trace, 3);
        let len = usize::from(cut) % bytes.len();
        std::fs::write(&path, &bytes[..len]).expect("write truncated");
        let err = StreamingTrace::open(&path).expect_err("truncation must not open");
        prop_assert!(!err.to_string().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    /// Any single corrupted byte is rejected at open (magic or header
    /// check for the first bytes, the streamed FNV-1a checksum for the
    /// rest) — a flipped bit can never reach a front-end as an event.
    #[test]
    fn single_byte_corruption_is_detected(
        trace in traces(),
        at in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let path = scratch("flip");
        let mut bytes = codec::encode_with_hash(&trace, 11);
        let at = (at as usize) % bytes.len();
        bytes[at] ^= flip;
        std::fs::write(&path, &bytes).expect("write corrupted");
        prop_assert!(
            StreamingTrace::open(&path).is_err(),
            "corruption at byte {} survived open",
            at
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn open_reports_structured_errors_for_missing_and_garbage_files() {
    let missing = StreamingTrace::open(std::path::Path::new(
        "/nonexistent/waymem-no-such-trace.wmtr",
    ))
    .expect_err("missing file");
    assert!(matches!(missing, StreamError::Io(_)), "{missing}");
    assert!(!missing.to_string().is_empty());

    let path = scratch("garbage");
    std::fs::write(&path, b"not a wmtr file at all").expect("write garbage");
    let err = StreamingTrace::open(&path).expect_err("garbage must not open");
    assert!(matches!(err, StreamError::Codec(_)), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn open_validates_the_whole_file_up_front() {
    // A checksum break far past the header is caught at open, before
    // any replay: the handle either exists and is fully validated, or
    // it never exists — there is no "opened but poisoned" state.
    let trace = RecordedTrace {
        fetch_events: (0..5_000)
            .map(|k| TraceEvent::Fetch { pc: 4 * k, kind: FetchKind::Sequential })
            .collect(),
        data_events: (0..1_000).map(|k| TraceEvent::load_at(8 * k, 4)).collect(),
        cycles: 5_000,
    };
    let mut bytes = codec::encode_with_hash(&trace, 1);
    let tail = bytes.len() - 16; // deep inside the data section
    bytes[tail] ^= 0x01;
    let path = scratch("deep-flip");
    std::fs::write(&path, &bytes).expect("write");
    assert!(StreamingTrace::open(&path).is_err(), "deep corruption survived");
    let _ = std::fs::remove_file(&path);
}

/// The two front doors share one header check and one section decoder,
/// so they give one verdict: for every truncation and every single-byte
/// flip (masks `0x01` and `0x80`) of a trace with both sections,
/// `codec::decode` on the bytes and `StreamingTrace::open` on the same
/// bytes in a file return the same `CodecError`, or both succeed with
/// the same trace.
#[test]
fn slice_and_file_front_doors_give_the_same_verdict() {
    let trace = RecordedTrace {
        fetch_events: (0..100u32)
            .map(|k| TraceEvent::Fetch {
                pc: 0x1000 + 8 * k,
                kind: match k % 10 {
                    3 => FetchKind::TakenBranch { base: 0x1000 + 8 * k - 8, disp: -(k as i32) },
                    6 => FetchKind::LinkReturn { target: 0x2000 + k },
                    9 => FetchKind::Indirect { base: 0x3000, disp: 4 * k as i32 },
                    _ => FetchKind::Sequential,
                },
            })
            .collect(),
        data_events: (0..50u32)
            .map(|k| {
                if k % 4 == 0 {
                    TraceEvent::store_at(0x8000 + 16 * k, 4)
                } else {
                    let disp = 4 * k as i32;
                    TraceEvent::Load { base: 0x8000, disp, addr: 0x8000 + 4 * k, size: 4 }
                }
            })
            .collect(),
        cycles: 150,
    };
    let bytes = codec::encode_with_hash(&trace, 0x5eed);
    let mut cases: Vec<Vec<u8>> = (0..bytes.len()).map(|len| bytes[..len].to_vec()).collect();
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0x80] {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            cases.push(flipped);
        }
    }
    cases.push(bytes.clone()); // control: the pristine bytes

    let path = scratch("verdict");
    for case in &cases {
        std::fs::write(&path, case).expect("write case");
        let sliced = codec::decode(case);
        let filed = match StreamingTrace::open(&path).and_then(|st| st.decode()) {
            Ok(t) => Ok(t),
            Err(StreamError::Codec(e)) => Err(e),
            Err(StreamError::Io(e)) => panic!("unexpected I/O error: {e}"),
        };
        assert_eq!(sliced, filed, "the front doors disagree on a {}-byte case", case.len());
    }
    let _ = std::fs::remove_file(&path);
    assert_eq!(codec::decode(&bytes).expect("control decodes"), trace);
}
