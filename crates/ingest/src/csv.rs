//! The simple CSV/text trace format.
//!
//! For traces that come out of custom tooling rather than valgrind, one
//! access per line:
//!
//! ```text
//! # comment lines and blanks are skipped
//! op,addr[,size]
//! ```
//!
//! * `op` — `I`/`F`/`fetch` (instruction fetch), `L`/`R`/`load`/`read`,
//!   `S`/`W`/`store`/`write`, `M`/`modify` (load + store); case-insensitive;
//! * `addr` — `0x`-prefixed hex or bare decimal;
//! * `size` — optional decimal byte count, default 4.
//!
//! Fields may be padded with ASCII whitespace (tab, LF, VT, FF, CR and
//! space). The parser reads bytes, so a comment may hold text in any
//! encoding.
//!
//! Example:
//!
//! ```text
//! fetch,0x1000,4
//! load,0x20008
//! store,131084,8
//! ```
//!
//! As everywhere in this crate, a malformed line is a structured
//! [`ParseError`](crate::ParseError) with its 1-based line number, never
//! a panic and never a silently dropped access.

use std::io::BufRead;

use waymem_isa::TraceSink;

use crate::{
    drive, parse_u64, token, trim, IngestError, IngestStats, Ingested, LogFormat, Op,
    ParseErrorKind,
};

fn parse_op(field: &[u8]) -> Result<Op, ParseErrorKind> {
    // Case-insensitive, accepting both single letters and words.
    let t = trim(field);
    let is = |name: &[u8]| t.eq_ignore_ascii_case(name);
    if is(b"i") || is(b"f") || is(b"fetch") {
        Ok(Op::Instr)
    } else if is(b"l") || is(b"r") || is(b"load") || is(b"read") {
        Ok(Op::Load)
    } else if is(b"s") || is(b"w") || is(b"store") || is(b"write") {
        Ok(Op::Store)
    } else if is(b"m") || is(b"modify") {
        Ok(Op::Modify)
    } else {
        Err(ParseErrorKind::UnknownRecord(token(t)))
    }
}

fn parse_addr(field: &[u8]) -> Result<u64, ParseErrorKind> {
    let t = trim(field);
    let value = match t.strip_prefix(b"0x").or_else(|| t.strip_prefix(b"0X")) {
        Some(hex) => parse_u64(hex, 16),
        None => parse_u64(t, 10),
    };
    value.ok_or_else(|| ParseErrorKind::BadAddress(token(t)))
}

/// Parses the CSV trace format from `reader`, streaming line-by-line.
///
/// # Errors
///
/// [`IngestError::Io`] from the reader, or [`IngestError::Parse`] with
/// the 1-based line number on the first malformed line.
pub fn parse<R: BufRead>(reader: R) -> Result<Ingested, IngestError> {
    crate::parse(LogFormat::Csv, reader)
}

/// Parses the CSV trace format from `reader`, streaming each access
/// straight into `sink` without materializing a `Vec<TraceEvent>`.
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
        if trimmed.is_empty() || trimmed.starts_with(b"#") {
            return Ok(false);
        }
        let mut fields = trimmed.splitn(3, |&b| b == b',');
        let op = parse_op(fields.next().expect("splitn yields at least one field"))?;
        let addr = parse_addr(fields.next().ok_or(ParseErrorKind::MissingAddress)?)?;
        let size = match fields.next() {
            None => 4,
            Some(field) => {
                let t = trim(field);
                parse_u64(t, 10).ok_or_else(|| ParseErrorKind::BadSize(token(t)))?
            }
        };
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
    fn the_documented_grammar_parses() {
        let ing = parse_str(
            "# a comment\n\
             fetch,0x1000,4\n\
             load,0x20008\n\
             store,131084,8\n\
             M,0x20008,4\n",
        )
        .expect("parses");
        assert_eq!(ing.trace.fetch_events.len(), 1);
        assert_eq!(ing.trace.data_events.len(), 4);
        assert_eq!((ing.lines, ing.skipped), (5, 1));
        // Default size is 4; bare decimal addresses work.
        assert!(matches!(
            ing.trace.data_events[0],
            TraceEvent::Load { addr: 0x20008, size: 4, .. }
        ));
        assert!(matches!(
            ing.trace.data_events[1],
            TraceEvent::Store { addr: 131_084, size: 8, .. }
        ));
    }

    #[test]
    fn ops_are_case_insensitive_with_aliases() {
        for op in ["I", "i", "F", "fetch", "FETCH"] {
            let ing = parse_str(&format!("{op},0x10,4\n")).expect("parses");
            assert_eq!(ing.trace.fetch_events.len(), 1, "{op}");
        }
        for op in ["L", "r", "load", "READ"] {
            let ing = parse_str(&format!("{op},0x10,4\n")).expect("parses");
            assert!(matches!(ing.trace.data_events[0], TraceEvent::Load { .. }), "{op}");
        }
        for op in ["S", "w", "store", "Write"] {
            let ing = parse_str(&format!("{op},0x10,4\n")).expect("parses");
            assert!(matches!(ing.trace.data_events[0], TraceEvent::Store { .. }), "{op}");
        }
        let ing = parse_str("modify,0x10\n").expect("parses");
        assert_eq!(ing.trace.data_events.len(), 2);
    }

    #[test]
    fn every_malformation_is_a_structured_error() {
        let cases = [
            ("jump,0x10,4\n", 1, ParseErrorKind::UnknownRecord("jump".into())),
            ("L\n", 1, ParseErrorKind::MissingAddress),
            ("L,\n", 1, ParseErrorKind::BadAddress("".into())),
            ("L,0xzz,4\n", 1, ParseErrorKind::BadAddress("0xzz".into())),
            ("L,12a,4\n", 1, ParseErrorKind::BadAddress("12a".into())),
            ("L,0x10,big\n", 1, ParseErrorKind::BadSize("big".into())),
            ("L,0x10,4\nS,0x10,4,extra\n", 2, ParseErrorKind::BadSize("4,extra".into())),
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
    fn fetch_sequences_reconstruct_control_flow() {
        let ing = parse_str("I,0x1000,4\nI,0x1004,4\nI,0x2000,4\n").expect("parses");
        use waymem_isa::FetchKind;
        assert!(matches!(
            ing.trace.fetch_events[2],
            TraceEvent::Fetch { kind: FetchKind::TakenBranch { base: 0x1004, .. }, .. }
        ));
    }
}
