//! Property-based tests for the ingest parsers: rendering a random
//! access stream as a Lackey or CSV log, parsing it back, and pushing
//! the result through the trace codec is lossless end to end
//! (parse → encode → decode identity); any garbled or truncated line is
//! a structured `Err` naming that line — never a panic, never a silently
//! dropped access.

use std::io::Cursor;

use proptest::prelude::*;
use waymem_ingest::{csv, lackey, parse, IngestError, LogFormat};
use waymem_trace::{codec, stream, StoreIo, StreamError};

/// One abstract access for rendering into either text format.
#[derive(Debug, Clone, Copy)]
struct Access {
    op: u8, // 0 = I, 1 = L, 2 = S, 3 = M
    addr: u64,
    size: u8,
}

fn accesses() -> impl Strategy<Value = Vec<Access>> {
    prop::collection::vec(
        (0u8..4, any::<u64>(), 1u8..=16).prop_map(|(op, addr, size)| Access {
            op,
            addr,
            // Lackey addresses are ≤ 64-bit hex; keep sizes realistic.
            size,
        }),
        0..120,
    )
}

fn render_lackey(accs: &[Access]) -> String {
    let mut out = String::from("==4242== fake valgrind banner\n");
    for a in accs {
        let line = match a.op {
            0 => format!("I  {:08X},{}\n", a.addr, a.size),
            1 => format!(" L {:08X},{}\n", a.addr, a.size),
            2 => format!(" S {:08X},{}\n", a.addr, a.size),
            _ => format!(" M {:08X},{}\n", a.addr, a.size),
        };
        out.push_str(&line);
    }
    out.push_str("--4242-- fake valgrind trailer\n");
    out
}

fn render_csv(accs: &[Access]) -> String {
    let mut out = String::from("# generated by the ingest property tests\n");
    for a in accs {
        let op = match a.op {
            0 => "fetch",
            1 => "load",
            2 => "store",
            _ => "M",
        };
        out.push_str(&format!("{op},0x{:x},{}\n", a.addr, a.size));
    }
    out
}

/// Event count the parsers must reconstruct: M expands to two.
fn expected_events(accs: &[Access]) -> usize {
    accs.iter().map(|a| if a.op == 3 { 2 } else { 1 }).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// parse → encode → decode is the identity on arbitrary generated
    /// Lackey logs: nothing the parser reconstructs is lost or mangled
    /// by the wire format.
    #[test]
    fn lackey_parse_encode_decode_round_trips(accs in accesses()) {
        let text = render_lackey(&accs);
        let ing = lackey::parse(Cursor::new(text)).expect("rendered log parses");
        prop_assert_eq!(ing.trace.len(), expected_events(&accs));
        let bytes = codec::encode_with_hash(&ing.trace, ing.source_hash);
        prop_assert_eq!(&codec::decode(&bytes).expect("decodes"), &ing.trace);
        // The header carries the parse's content hash: read it back
        // through a (self-cleaning) file handle.
        let (st, ()) = stream::scratch(StoreIo::passthrough(), |path| {
            std::fs::write(path, &bytes).map_err(StreamError::Io)
        })
        .expect("encodes validly");
        prop_assert_eq!(st.source_hash(), ing.source_hash);
        prop_assert_eq!(st.decode().expect("decodes"), ing.trace);
    }

    /// Same identity on the CSV grammar.
    #[test]
    fn csv_parse_encode_decode_round_trips(accs in accesses()) {
        let text = render_csv(&accs);
        let ing = csv::parse(Cursor::new(text)).expect("rendered log parses");
        prop_assert_eq!(ing.trace.len(), expected_events(&accs));
        let bytes = codec::encode_with_hash(&ing.trace, ing.source_hash);
        prop_assert_eq!(codec::decode(&bytes).expect("decodes"), ing.trace);
    }

    /// Parsing is deterministic and the content hash is a function of
    /// the bytes: same text, same trace, same hash; different text
    /// (one flipped address), different hash.
    #[test]
    fn parsing_is_deterministic(accs in accesses()) {
        let text = render_lackey(&accs);
        let a = lackey::parse(Cursor::new(text.clone())).expect("parses");
        let b = lackey::parse(Cursor::new(text.clone())).expect("parses");
        prop_assert_eq!(&a, &b);
        let edited = text.replace("4242", "4243"); // only banner bytes
        let c = lackey::parse(Cursor::new(edited)).expect("parses");
        prop_assert_eq!(&a.trace, &c.trace, "banner edits keep the trace");
        // …but they change the identity hash.
        prop_assert!(a.source_hash != c.source_hash);
    }

    /// Garbling any single access line — truncating it mid-field or
    /// splicing garbage into it — yields `Err` with that exact line
    /// number, and never panics. (Lines that stay well-formed after the
    /// cut, e.g. truncating "…,12" to "…,1", are skipped via
    /// prop_assume.)
    #[test]
    fn garbled_lackey_lines_error_with_their_line_number(
        accs in accesses(),
        victim in any::<u32>(),
        cut in any::<u8>(),
    ) {
        prop_assume!(!accs.is_empty());
        let victim = (victim as usize) % accs.len();
        let text = render_lackey(&accs);
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let line_idx = 1 + victim; // banner occupies line 0
        let orig = lines[line_idx].clone();
        // Truncate the victim line mid-way (never to emptiness, which is
        // legitimately skipped).
        let cut_at = 1 + (cut as usize) % (orig.len().max(2) - 1);
        lines[line_idx] = orig[..cut_at].to_owned();
        // Some cuts leave a valid shorter line (e.g. "L 1000,12" →
        // "L 1000,1"); only assert on cuts that break the grammar.
        let still_valid = lackey::parse(Cursor::new(lines[line_idx].clone())).is_ok();
        prop_assume!(!still_valid);
        let garbled = lines.join("\n");
        match lackey::parse(Cursor::new(garbled)) {
            Err(IngestError::Parse(e)) => {
                prop_assert_eq!(e.line, (line_idx + 1) as u64, "wrong line reported");
            }
            Err(IngestError::Io(e)) => return Err(TestCaseError::fail(format!("io error: {e}"))),
            Ok(_) => return Err(TestCaseError::fail("garbled line parsed as Ok")),
        }
    }

    /// The CSV parser rejects spliced garbage the same way.
    #[test]
    fn garbled_csv_lines_error_with_their_line_number(
        accs in accesses(),
        victim in any::<u32>(),
        garbage in any::<u16>(),
    ) {
        prop_assume!(!accs.is_empty());
        let victim = (victim as usize) % accs.len();
        let text = render_csv(&accs);
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let line_idx = 1 + victim; // comment occupies line 0
        lines[line_idx] = format!("op{garbage},{}", lines[line_idx]);
        let garbled = lines.join("\n");
        match csv::parse(Cursor::new(garbled)) {
            Err(IngestError::Parse(e)) => {
                prop_assert_eq!(e.line, (line_idx + 1) as u64, "wrong line reported");
            }
            Err(IngestError::Io(e)) => return Err(TestCaseError::fail(format!("io error: {e}"))),
            Ok(_) => return Err(TestCaseError::fail("garbled line parsed as Ok")),
        }
    }

    /// Arbitrary byte soup never panics either parser: every outcome is
    /// a clean Ok (degenerate logs exist: pure banners/comments) or a
    /// structured Err.
    #[test]
    fn arbitrary_text_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = parse(LogFormat::Lackey, Cursor::new(bytes.clone()));
        let _ = parse(LogFormat::Csv, Cursor::new(bytes));
    }
}
