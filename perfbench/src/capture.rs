//! A seeded Valgrind-Lackey capture for the `ingest-stream` workload.
//!
//! The shape is fixed and only the addresses come from the seed, so every
//! seed yields the same line counts and the same amount of work:
//! - each iteration fetches one 4-instruction basic block, chosen from a
//!   small code footprint, so the I-cache mostly hits;
//! - then it makes one data access at a random address in a region
//!   `DATA_FOOTPRINT` bytes wide, four times the 32 kB D-cache, so most
//!   D accesses miss;
//! - the access kinds cycle through `DATA_KINDS`: loads, stores and
//!   modifies (a load then a store), so dirty lines get written back.

use std::io::{self, Write};

/// Bytes of data the capture's accesses spread over.
const DATA_FOOTPRINT: u64 = 128 * 1024;
const DATA_BASE: u64 = 0x1000_0000;
const CODE_BASE: u64 = 0x0040_0000;
const BLOCKS: u64 = 64;
const BLOCK_INSNS: u64 = 4;
const DATA_KINDS: [char; 8] = ['L', 'L', 'S', 'L', 'M', 'L', 'S', 'L'];
const BANNER: [&str; 2] = [
    "==4242== Lackey, an example Valgrind tool",
    "==4242== Command: ./kernel",
];

/// What a capture holds, counted while it is written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Capture {
    pub lines: u64,
    pub bytes: u64,
    pub fetches: u64,
    /// Loads written, a modify counting as one.
    pub loads: u64,
    /// Stores written, a modify counting as one.
    pub stores: u64,
}

impl Capture {
    /// D-side accesses the capture describes.
    pub fn data_events(&self) -> u64 {
        self.loads + self.stores
    }

    /// Trace events the capture describes.
    pub fn events(&self) -> u64 {
        self.fetches + self.data_events()
    }
}

/// Writes `iterations` block-plus-access iterations for `seed` to `out`.
pub fn write(out: &mut impl Write, seed: u64, iterations: u64) -> io::Result<Capture> {
    let mut rng = crate::rng::Rng::new(seed);
    // Block start addresses: distinct 64-byte slots in a 16 kB region.
    let mut slots: Vec<u64> = (0..256).collect();
    rng.shuffle(&mut slots);
    let blocks: Vec<u64> = slots[..BLOCKS as usize]
        .iter()
        .map(|s| CODE_BASE + s * 64)
        .collect();

    let mut c = Capture::default();
    let mut emit = |c: &mut Capture, line: &str| -> io::Result<()> {
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        c.lines += 1;
        c.bytes += line.len() as u64 + 1;
        Ok(())
    };
    for line in BANNER {
        emit(&mut c, line)?;
    }
    for i in 0..iterations {
        let pc = blocks[rng.below(BLOCKS) as usize];
        for k in 0..BLOCK_INSNS {
            emit(&mut c, &format!("I  {:08x},4", pc + 4 * k))?;
            c.fetches += 1;
        }
        let addr = DATA_BASE + 8 * rng.below(DATA_FOOTPRINT / 8);
        let kind = DATA_KINDS[(i % DATA_KINDS.len() as u64) as usize];
        let size = if kind == 'L' { 8 } else { 4 };
        emit(&mut c, &format!(" {kind} {addr:08x},{size}"))?;
        match kind {
            'L' => c.loads += 1,
            'S' => c.stores += 1,
            _ => {
                c.loads += 1;
                c.stores += 1;
            }
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture(seed: u64) -> (Vec<u8>, Capture) {
        let mut bytes = Vec::new();
        let c = write(&mut bytes, seed, 400).expect("writes to memory");
        (bytes, c)
    }

    #[test]
    fn equal_seeds_give_identical_bytes() {
        assert_eq!(capture(7), capture(7));
    }

    #[test]
    fn different_seeds_differ_with_equal_line_counts() {
        let (a, ca) = capture(7);
        let (b, cb) = capture(8);
        assert_ne!(a, b);
        assert_eq!(ca.lines, cb.lines);
        assert_eq!(
            (ca.fetches, ca.loads, ca.stores),
            (cb.fetches, cb.loads, cb.stores)
        );
        let lines = |bytes: &[u8]| bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        assert_eq!(lines(&a), ca.lines);
        assert_eq!(lines(&b), cb.lines);
        assert_eq!(a.len() as u64, ca.bytes);
    }

    #[test]
    fn the_parser_reads_what_was_written() {
        let (bytes, c) = capture(3);
        let (stats, sink) = waymem_ingest::parse_into(
            waymem_ingest::LogFormat::Lackey,
            bytes.as_slice(),
            waymem_isa::CountingSink::default(),
        )
        .expect("capture parses");
        assert_eq!(stats.lines, c.lines);
        assert_eq!(sink.fetches, c.fetches);
        assert_eq!(sink.loads, c.loads);
        assert_eq!(sink.stores, c.stores);
    }
}
