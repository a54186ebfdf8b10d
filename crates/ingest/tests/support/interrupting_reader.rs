//! `InterruptingReader`: a `BufRead` over bytes in memory whose every
//! other refill fails with `Interrupted`, the transient `EINTR` shape
//! the line pump must retry in place rather than surface as an error.
//! Each refill that succeeds hands out 1–7 bytes, so lines, `\r\n` pairs
//! and an unterminated last line straddle reads.
//!
//! Test support shared by two suites, each of which includes it with
//! `#[path]`: the `EINTR` tests (`interrupts.rs`) and the differential
//! check against the reference grammars (`properties.rs`).

use std::io::{self, BufRead, Read};

pub struct InterruptingReader {
    bytes: Vec<u8>,
    /// Bytes consumed so far.
    pos: usize,
    /// End of the buffered window `pos..end`.
    end: usize,
    /// xorshift64 state drawing the window sizes.
    state: u64,
    interrupt_next: bool,
    /// Refills failed with `Interrupted` so far.
    pub interrupts: u32,
}

impl InterruptingReader {
    /// A reader over `bytes` whose window sizes follow `seed`. Its first
    /// refill fails.
    pub fn new(bytes: impl Into<Vec<u8>>, seed: u64) -> Self {
        InterruptingReader {
            bytes: bytes.into(),
            pos: 0,
            end: 0,
            state: seed | 1,
            interrupt_next: true,
            interrupts: 0,
        }
    }
}

impl BufRead for InterruptingReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        // Only a call that finds the window empty reads the source, so
        // only it can be interrupted; a repeated call borrows the window.
        if self.pos == self.end {
            if self.interrupt_next {
                self.interrupt_next = false;
                self.interrupts += 1;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"));
            }
            self.interrupt_next = true;
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            self.end = (self.pos + 1 + (self.state % 7) as usize).min(self.bytes.len());
        }
        Ok(&self.bytes[self.pos..self.end])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.end);
    }
}

impl Read for InterruptingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let window = self.fill_buf()?;
        let n = window.len().min(buf.len());
        buf[..n].copy_from_slice(&window[..n]);
        self.consume(n);
        Ok(n)
    }
}
