//! Property-based tests for the trace codec: `encode → decode` is the
//! identity on arbitrary event streams, and malformed buffers (corrupt
//! headers, truncations, bit flips) always come back as `Err` — never a
//! panic, never silently wrong data.

use proptest::prelude::*;
use waymem_isa::{FetchKind, RecordedTrace, TraceEvent, TraceSink};
use waymem_trace::{codec, CodecError, StreamError, StreamingTrace};

fn fetch_kinds() -> impl Strategy<Value = FetchKind> {
    prop_oneof![
        Just(FetchKind::Sequential),
        (any::<u32>(), any::<i32>())
            .prop_map(|(base, disp)| FetchKind::TakenBranch { base, disp }),
        any::<u32>().prop_map(|target| FetchKind::LinkReturn { target }),
        (any::<u32>(), any::<i32>()).prop_map(|(base, disp)| FetchKind::Indirect { base, disp }),
    ]
}

fn events() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (any::<u32>(), fetch_kinds()).prop_map(|(pc, kind)| TraceEvent::Fetch { pc, kind }),
        (any::<u32>(), any::<i32>(), any::<u32>(), any::<u8>())
            .prop_map(|(base, disp, addr, size)| TraceEvent::Load { base, disp, addr, size }),
        (any::<u32>(), any::<i32>(), any::<u32>(), any::<u8>())
            .prop_map(|(base, disp, addr, size)| TraceEvent::Store { base, disp, addr, size }),
    ]
}

fn traces() -> impl Strategy<Value = RecordedTrace> {
    (
        prop::collection::vec(events(), 0..200),
        prop::collection::vec(events(), 0..200),
        any::<u64>(),
    )
        .prop_map(|(fetch_events, data_events, cycles)| RecordedTrace {
            fetch_events,
            data_events,
            cycles,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fundamental codec contract: decode(encode(t)) == t for any
    /// stream — even "impossible" ones (stores in the fetch section,
    /// absurd sizes, addr ≠ base + disp). The codec must not assume the
    /// CPU's invariants.
    #[test]
    fn encode_decode_is_identity(trace in traces()) {
        let bytes = codec::encode(&trace);
        let decoded = codec::decode(&bytes).expect("valid encoding must decode");
        prop_assert_eq!(decoded, trace);
    }

    /// Every strict prefix of a valid encoding is an error (truncated
    /// downloads, torn writes), and decoding it never panics.
    #[test]
    fn truncations_error_cleanly(trace in traces(), cut in any::<u16>()) {
        let bytes = codec::encode(&trace);
        let len = usize::from(cut) % bytes.len();
        prop_assert!(codec::decode(&bytes[..len]).is_err());
    }

    /// Any single corrupted byte is detected: the magic check catches
    /// the first four bytes, the FNV-1a checksum everything else.
    #[test]
    fn single_byte_corruption_is_detected(
        trace in traces(),
        at in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = codec::encode(&trace);
        let at = (at as usize) % bytes.len();
        bytes[at] ^= flip;
        prop_assert!(codec::decode(&bytes).is_err(), "corruption at byte {} survived", at);
    }

    /// Arbitrary garbage never decodes to `Ok` by accident (the header
    /// alone makes that astronomically unlikely) and never panics.
    #[test]
    fn random_buffers_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        prop_assert!(codec::decode(&bytes).is_err(), "random bytes decoded");
    }
}

#[test]
fn corrupt_header_variants_map_to_specific_errors() {
    let trace = RecordedTrace {
        fetch_events: vec![TraceEvent::Fetch { pc: 8, kind: FetchKind::Sequential }],
        data_events: vec![],
        cycles: 1,
    };
    let good = codec::encode(&trace);

    let mut bad_magic = good.clone();
    bad_magic[1] = b'X';
    assert!(matches!(codec::decode(&bad_magic), Err(CodecError::BadMagic(_))));

    let mut bad_version = good.clone();
    bad_version[4] = 99;
    assert!(matches!(
        codec::decode(&bad_version),
        Err(CodecError::UnsupportedVersion(99))
    ));

    // Growing the buffer without touching the header is a length error.
    let mut padded = good.clone();
    padded.push(0);
    assert!(matches!(
        codec::decode(&padded),
        Err(CodecError::LengthMismatch { .. })
    ));

    // A payload flip (with lengths intact) is a checksum error.
    let mut flipped = good.clone();
    let payload_at = codec::HEADER_LEN; // first event's tag byte
    flipped[payload_at] ^= 0x40;
    assert!(matches!(
        codec::decode(&flipped),
        Err(CodecError::BadChecksum { .. })
    ));

    assert!(codec::decode(&good).is_ok(), "control: pristine buffer decodes");
}

/// The error type is part of the API: it must render and compose.
#[test]
fn codec_errors_display_and_source() {
    let err = codec::decode(&[]).expect_err("empty buffer");
    assert_eq!(err, CodecError::Truncated);
    let rendered = format!("{err}");
    assert!(rendered.contains("truncated"), "{rendered}");
    let boxed: Box<dyn std::error::Error> = Box::new(err);
    assert!(boxed.source().is_none());
}

/// A sink that panics on any event: proves error paths in replay are hit
/// before events are fabricated from corrupt sections.
struct PanicSink;

impl TraceSink for PanicSink {
    fn events(&mut self, batch: &[TraceEvent]) {
        assert!(batch.is_empty(), "corrupt section must not emit events");
    }
}

#[test]
fn corrupt_section_does_not_emit_phantom_events() {
    // Build a buffer whose header/checksum are valid but whose declared
    // event count exceeds the encoded events, by lying before sealing.
    let trace = RecordedTrace::default();
    let mut bytes = codec::encode(&trace);
    // Rewrite fetch_count to 5 and re-seal the checksum by re-encoding
    // manually: checksum covers bytes[4..len-4].
    bytes[8..16].copy_from_slice(&5u64.to_le_bytes());
    let inner = &bytes[4..bytes.len() - 4];
    let mut hash: u32 = 0x811c_9dc5;
    for &b in inner {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    let len = bytes.len();
    bytes[len - 4..].copy_from_slice(&hash.to_le_bytes());
    // Both front doors see a self-consistent checksum but an impossible
    // count; each must error without handing any event to a sink.
    let err = codec::decode(&bytes).expect_err("the slice decoder rejects the count");
    assert_eq!(err, CodecError::SectionMismatch { declared: 5, decoded: 0 });
    let path = std::env::temp_dir()
        .join(format!("waymem-phantom-{}.wmtr", std::process::id()));
    std::fs::write(&path, &bytes).expect("write file");
    let opened = StreamingTrace::open(&path);
    let _ = std::fs::remove_file(&path);
    match opened {
        Err(StreamError::Codec(e)) => assert_eq!(e, err, "both doors give one verdict"),
        Err(e) => panic!("unexpected I/O error: {e}"),
        Ok(st) => assert!(st.replay(&mut PanicSink).is_err()),
    }
}
