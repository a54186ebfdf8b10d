//! The Valgrind Lackey `--trace-mem=yes` format.
//!
//! Capturing a real program's memory trace is one command:
//!
//! ```text
//! valgrind --tool=lackey --trace-mem=yes --log-file=prog.log ./prog
//! ```
//!
//! The log is line-oriented; each access line is a record letter, an
//! address in bare hex, a comma and a decimal size:
//!
//! ```text
//! I  0023C790,2        instruction fetch
//!  L 0025747C,4        data load
//!  S BE80199C,4        data store
//!  M 0025747C,1        modify (load + store at the address)
//! ```
//!
//! (Instruction lines start in column 0, memory lines are indented — the
//! parser accepts either indentation.) Fields are separated and padded
//! by ASCII whitespace: tab, LF, VT, FF, CR and space. Valgrind
//! interleaves its own chatter into the same stream: `==pid==` /
//! `--pid--` banner lines and blanks are *skipped*, not errors, so a raw
//! `--log-file` capture parses without preprocessing. The parser reads
//! bytes, so a banner that echoes a command line in another encoding
//! (`==42== Command: ./caf\xE9`) is skipped like any other. Anything
//! else is a structured [`ParseError`](crate::ParseError) with its line
//! number — a garbled access line never silently drops an access.

use std::io::BufRead;

use waymem_isa::TraceSink;

use crate::{
    drive, is_space, parse_u64, token, trim, IngestError, IngestStats, Ingested, LogFormat, Op,
    ParseErrorKind,
};

/// Parses one trimmed access line already known not to be a
/// banner/blank. Returns the op, address and size.
fn parse_access(line: &[u8]) -> Result<(Op, u64, u64), ParseErrorKind> {
    let (&letter, rest) = line.split_first().expect("caller skips blank lines");
    let op = match letter {
        b'I' => Op::Instr,
        b'L' => Op::Load,
        b'S' => Op::Store,
        b'M' => Op::Modify,
        _ => {
            // Report the whole first token, not just its first byte —
            // "Instruction" vs "I" garbling reads very differently.
            let first = line.split(|&b| is_space(b)).next().unwrap_or_default();
            return Err(ParseErrorKind::UnknownRecord(token(first)));
        }
    };
    let rest = trim(rest);
    if rest.is_empty() {
        return Err(ParseErrorKind::MissingAddress);
    }
    let comma = rest.iter().position(|&b| b == b',').ok_or(ParseErrorKind::MissingSize)?;
    let addr_part = trim(&rest[..comma]);
    let addr =
        parse_u64(addr_part, 16).ok_or_else(|| ParseErrorKind::BadAddress(token(addr_part)))?;
    let size_part = trim(&rest[comma + 1..]);
    let size = parse_u64(size_part, 10).ok_or_else(|| ParseErrorKind::BadSize(token(size_part)))?;
    Ok((op, addr, size))
}

/// Parses a Lackey log from `reader`, streaming line-by-line.
///
/// # Errors
///
/// [`IngestError::Io`] from the reader, or [`IngestError::Parse`] with
/// the 1-based line number on the first malformed access line.
pub fn parse<R: BufRead>(reader: R) -> Result<Ingested, IngestError> {
    crate::parse(LogFormat::Lackey, reader)
}

/// Parses a Lackey log from `reader`, streaming each access straight into
/// `sink` — the bounded-memory path: with a
/// [`StreamingEncoder`](waymem_trace::StreamingEncoder) sink nothing is
/// ever materialized.
///
/// # Errors
///
/// Same as [`parse`].
pub fn parse_into<R: BufRead, S: TraceSink>(
    reader: R,
    sink: S,
) -> Result<(IngestStats, S), IngestError> {
    drive(reader, sink, |line, builder| {
        let trimmed = trim(line);
        if trimmed.is_empty() || trimmed.starts_with(b"==") || trimmed.starts_with(b"--") {
            return Ok(false); // valgrind banner / blank: skipped
        }
        let (op, addr, size) = parse_access(trimmed)?;
        builder.push(op, addr, size);
        Ok(true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParseError, ParseErrorKind};
    use std::io::Cursor;
    use waymem_isa::TraceEvent;

    fn parse_str(s: &str) -> Result<Ingested, IngestError> {
        parse(Cursor::new(s.to_owned()))
    }

    #[test]
    fn the_documented_sample_parses() {
        let ing = parse_str("I  0023C790,2\n L 0025747C,4\n S BE80199C,4\n M 0025747C,1\n")
            .expect("parses");
        assert_eq!(ing.trace.fetch_events.len(), 1);
        assert_eq!(ing.trace.data_events.len(), 4);
        assert_eq!(ing.lines, 4);
        assert_eq!(ing.skipped, 0);
        assert!(matches!(ing.trace.data_events[0], TraceEvent::Load { addr: 0x0025_747C, .. }));
        assert!(matches!(ing.trace.data_events[1], TraceEvent::Store { addr: 0xBE80_199C, .. }));
        // M expands to load-then-store.
        assert!(matches!(ing.trace.data_events[2], TraceEvent::Load { addr: 0x0025_747C, .. }));
        assert!(matches!(ing.trace.data_events[3], TraceEvent::Store { addr: 0x0025_747C, .. }));
    }

    #[test]
    fn banners_and_blanks_are_skipped_not_errors() {
        let ing = parse_str(
            "==12345== Memcheck is not in use\n\
             --12345-- some verbose chatter\n\
             \n\
             I  1000,4\n",
        )
        .expect("parses");
        assert_eq!(ing.trace.fetch_events.len(), 1);
        assert_eq!((ing.lines, ing.skipped), (4, 3));
    }

    #[test]
    fn non_utf8_bytes_skip_with_their_banner_and_name_their_access_line() {
        // Valgrind echoes the command line into its banner, so a Latin-1
        // file name puts a byte that is not UTF-8 into the log.
        let log = b"==42== Command: ./caf\xE9\nI  1000,4\n";
        let ing = parse(Cursor::new(log)).expect("the banner is skipped, not an I/O error");
        assert_eq!(ing.trace.fetch_events.len(), 1);
        assert_eq!((ing.lines, ing.skipped), (2, 1));
        let hash = waymem_trace::fnv1a64_update(waymem_trace::FNV1A64_SEED, log);
        assert_eq!(ing.source_hash, hash, "the raw bytes are hashed as they are");
        match parse(Cursor::new(b"I  1000,4\nI  10\xE900,4\n")) {
            Err(IngestError::Parse(ParseError { line, kind })) => {
                assert_eq!((line, kind), (2, ParseErrorKind::BadAddress("10\u{FFFD}00".into())));
            }
            other => panic!("expected a parse error on line 2, got {other:?}"),
        }
    }

    #[test]
    fn missing_newline_on_last_line_is_fine() {
        let ing = parse_str("I  1000,4").expect("parses");
        assert_eq!(ing.trace.fetch_events.len(), 1);
    }

    #[test]
    fn crlf_lines_parse() {
        let ing = parse_str("I  1000,4\r\n L 2000,8\r\n").expect("parses");
        assert_eq!(ing.trace.len(), 2);
    }

    #[test]
    fn every_malformation_is_a_structured_error() {
        let cases = [
            ("X  1000,4\n", 1, ParseErrorKind::UnknownRecord("X".into())),
            ("I  1000,4\nQ 2000,4\n", 2, ParseErrorKind::UnknownRecord("Q".into())),
            ("I\n", 1, ParseErrorKind::MissingAddress),
            ("I  1000\n", 1, ParseErrorKind::MissingSize),
            ("I  zzzz,4\n", 1, ParseErrorKind::BadAddress("zzzz".into())),
            ("I  ,4\n", 1, ParseErrorKind::BadAddress("".into())),
            ("I  1000,\n", 1, ParseErrorKind::BadSize("".into())),
            ("I  1000,four\n", 1, ParseErrorKind::BadSize("four".into())),
            ("I  1000,-3\n", 1, ParseErrorKind::BadSize("-3".into())),
        ];
        for (input, line, kind) in cases {
            match parse_str(input) {
                Err(IngestError::Parse(ParseError { line: l, kind: k })) => {
                    assert_eq!((l, &k), (line, &kind), "input {input:?}");
                }
                other => panic!("input {input:?}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_messages_name_the_line() {
        let err = parse_str("I  1000,4\nbogus\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn identical_logs_hash_identically_and_edits_change_it() {
        let a = parse_str("I  1000,4\n L 2000,4\n").unwrap();
        let b = parse_str("I  1000,4\n L 2000,4\n").unwrap();
        let c = parse_str("I  1000,4\n L 2004,4\n").unwrap();
        assert_eq!(a.source_hash, b.source_hash);
        assert_ne!(a.source_hash, c.source_hash);
    }

    #[test]
    fn empty_input_yields_empty_trace() {
        let ing = parse_str("").expect("parses");
        assert!(ing.trace.is_empty());
        assert_eq!(ing.trace.cycles, 0);
    }
}
