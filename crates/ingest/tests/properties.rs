//! Property-based tests for the ingest parsers: rendering a random
//! access stream as a Lackey or CSV log, parsing it back, and pushing
//! the result through the trace codec is lossless end to end
//! (parse → encode → decode identity); any garbled or truncated line is
//! a structured `Err` naming that line — never a panic, never a silently
//! dropped access. On ASCII logs of well-formed lines and token soup,
//! the byte-level grammars parse exactly as the reference `&str`
//! grammars do, whether a log arrives whole or a few bytes per read.

use std::io::Cursor;

use proptest::prelude::*;
use waymem_ingest::{csv, lackey, parse, IngestError, LogFormat, ParseError};
use waymem_trace::{codec, stream, StoreIo, StreamError};

#[path = "support/interrupting_reader.rs"]
mod interrupting_reader;
#[path = "support/ref_grammar.rs"]
mod ref_grammar;

use interrupting_reader::InterruptingReader;

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

/// The words one position of a generated line draws from. The first
/// `valid` keep the line well-formed; the rest may break it.
struct Slot {
    words: &'static [&'static str],
    valid: usize,
}

/// Padding: runs of the ASCII whitespace bytes but LF, which ends a line.
const PAD: Slot = Slot {
    words: &["", " ", "  ", "\t", "\x0B", "\x0C", "\r", "\x0B\x0B", " \t\x0B\x0C\r "],
    valid: 9,
};

const COMMA: Slot = Slot { words: &[",", "", ",,", ";"], valid: 1 };

const LACKEY_RECORD: Slot = Slot {
    words: &["I", "L", "S", "M", "==4242==", "--4242--", "X", "i", "Instr", "=", "-", "#", ""],
    valid: 6,
};

const LACKEY_ADDR: Slot = Slot {
    words: &[
        "1000", "0023C790", "be80199c", "DeadBeef", "0", "+1F", "0000000000000000000000001",
        "FFFFFFFFFFFFFFFF", "-1F", "+", "-", "", "10000000000000000", "0x10", "zz", "12 34",
        "1\x0B2", "++1",
    ],
    valid: 8,
};

const DEC_SIZE: Slot = Slot {
    words: &[
        "4", "8", "1", "+4", "007", "0", "18446744073709551615", "-3", "+", "",
        "18446744073709551616", "99999999999999999999", "four", "4,extra", "0x10", "4 4", "+-4",
    ],
    valid: 7,
};

const CSV_OP: Slot = Slot {
    words: &[
        "I", "F", "fetch", "L", "r", "load", "READ", "S", "w", "store", "Write", "M", "modify",
        "#", "# note", "jump", "", "X", "ld", "0x10", "==4242==", "--4242--",
    ],
    valid: 15,
};

const CSV_ADDR: Slot = Slot {
    words: &[
        "0x1000", "0X1f", "4096", "+12", "0x+ff", "007", "0xFFFFFFFFFFFFFFFF",
        "18446744073709551615", "0x", "-1", "", "0x10000000000000000", "18446744073709551616",
        "12a", "0xzz", "0x-1", "1 2",
    ],
    valid: 8,
};

/// CSV's optional size field, with its comma.
const CSV_SIZE: Slot = Slot {
    words: &[
        "", ",4", ",8", ", +4", ",007", ",\t8\x0B", ",18446744073709551615", ",", ",four", ",-3",
        ",4,extra", ",18446744073709551616", ",,4", ",+",
    ],
    valid: 7,
};

const LACKEY_LINE: [Slot; 9] =
    [PAD, LACKEY_RECORD, PAD, LACKEY_ADDR, PAD, COMMA, PAD, DEC_SIZE, PAD];
const CSV_LINE: [Slot; 9] = [PAD, CSV_OP, PAD, COMMA, PAD, CSV_ADDR, PAD, CSV_SIZE, PAD];

const ENDINGS: [&str; 3] = ["\n", "\r\n", "\r\r\n"];

/// A generated line: its mode (0 token soup, 1–9 any word at position
/// `mode - 1`, else well-formed), one draw per position, and its ending.
type Line = (u8, Vec<u32>, usize);

/// A generated log: its lines, whether all of them are well-formed, and
/// whether the last keeps its final `\n`.
fn logs() -> impl Strategy<Value = (Vec<Line>, bool, bool)> {
    let line = (0u8..16, prop::collection::vec(any::<u32>(), 9), 0..ENDINGS.len());
    (prop::collection::vec(line, 0..24), any::<bool>(), any::<bool>())
}

fn render(layout: &[Slot; 9], (lines, clean, final_newline): &(Vec<Line>, bool, bool)) -> String {
    let mut out = String::new();
    for &(mode, ref draws, ending) in lines {
        let mode = if *clean { u8::MAX } else { mode };
        for (pos, (slot, &draw)) in layout.iter().zip(draws).enumerate() {
            let draw = draw as usize;
            out.push_str(if mode == 0 {
                let soup = &layout[draw % layout.len()];
                soup.words[draw / layout.len() % soup.words.len()]
            } else if usize::from(mode) == pos + 1 {
                slot.words[draw % slot.words.len()]
            } else {
                slot.words[draw % slot.valid]
            });
        }
        out.push_str(ENDINGS[ending]);
    }
    if !final_newline {
        out.pop();
    }
    out
}

/// Parses `log` whole and through an `InterruptingReader`; both must
/// give what the reference grammar gives.
fn matches_reference(format: LogFormat, log: &str, seed: u64) -> Result<(), TestCaseError> {
    let as_parse_error = |e| match e {
        IngestError::Parse(e) => e,
        IngestError::Io(e) => panic!("in-memory reads fail only as retried EINTR: {e}"),
    };
    let expected: Result<_, ParseError> = ref_grammar::parse(format, log);
    let whole = parse(format, log.as_bytes()).map_err(as_parse_error);
    prop_assert_eq!(&whole, &expected, "whole log {:?}", log);
    let mut reader = InterruptingReader::new(log, seed);
    let chunked = parse(format, &mut reader).map_err(as_parse_error);
    prop_assert_eq!(&chunked, &expected, "chunked log {:?}", log);
    prop_assert!(reader.interrupts > 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The byte-level Lackey grammar and line pump against the reference.
    #[test]
    fn lackey_bytes_parse_as_the_reference_grammar(log in logs(), seed in any::<u64>()) {
        matches_reference(LogFormat::Lackey, &render(&LACKEY_LINE, &log), seed)?;
    }

    /// The byte-level CSV grammar and line pump against the reference.
    #[test]
    fn csv_bytes_parse_as_the_reference_grammar(log in logs(), seed in any::<u64>()) {
        matches_reference(LogFormat::Csv, &render(&CSV_LINE, &log), seed)?;
    }
}
