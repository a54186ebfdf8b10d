use std::collections::HashMap;

/// One 4 kB page of bytes.
type Page = [u8; MainMemory::PAGE_BYTES];

/// Flat, sparsely allocated 32-bit byte-addressable main memory.
///
/// Holds the frv-lite CPU's architectural data. Unwritten memory reads as
/// zero, which keeps traces deterministic; values are little-endian, no
/// access needs alignment, and addresses wrap at the top of the space.
///
/// Storage is 4 kB pages, each allocated on its first write. The pages
/// below 1 MiB, where the programs' text, data and stack live, sit in a
/// direct-indexed table (itself allocated on the first write there); the
/// rest sit in a map. A 16- or 32-bit access inside one page costs one
/// page lookup; only an access that straddles two pages goes byte by
/// byte. A new memory allocates nothing.
///
/// The tag-only [`SetAssocCache`](crate::SetAssocCache) moves no bytes
/// through it: it only counts the line transfers its fills and
/// write-backs make ([`block_reads`](Self::block_reads),
/// [`block_writes`](Self::block_writes)).
///
/// ```
/// use waymem_cache::MainMemory;
///
/// let mut mem = MainMemory::new();
/// assert_eq!(mem.read_u32(0x8000_0000), 0);
/// mem.write_u32(0x8000_0000, 0x1122_3344);
/// assert_eq!(mem.read_u32(0x8000_0000), 0x1122_3344);
/// assert_eq!(mem.read_u8(0x8000_0000), 0x44); // little-endian
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    /// Pages below [`LOW_PAGES`](Self::LOW_PAGES), indexed by page number.
    low: Option<Box<[Option<Box<Page>>; Self::LOW_PAGES]>>,
    /// Every other page, by page number.
    high: HashMap<u32, Box<Page>>,
    reads: u64,
    writes: u64,
}

impl MainMemory {
    const PAGE_BYTES: usize = 4096;
    const PAGE_SHIFT: u32 = 12;
    /// Pages in the direct-indexed table: the first 1 MiB.
    const LOW_PAGES: usize = 256;

    /// Creates an empty memory. All bytes read as zero until written.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn offset_of(addr: u32) -> usize {
        (addr as usize) & (Self::PAGE_BYTES - 1)
    }

    /// The page holding `addr`, if it was ever written.
    fn page(&self, addr: u32) -> Option<&Page> {
        let page = addr >> Self::PAGE_SHIFT;
        if (page as usize) < Self::LOW_PAGES {
            self.low.as_ref()?[page as usize].as_deref()
        } else {
            self.high.get(&page).map(|p| &**p)
        }
    }

    /// The page holding `addr`, allocated zeroed if it was never written.
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        let page = addr >> Self::PAGE_SHIFT;
        let zeroed = || Box::new([0; Self::PAGE_BYTES]);
        if (page as usize) < Self::LOW_PAGES {
            let table = self.low.get_or_insert_with(|| Box::new([const { None }; Self::LOW_PAGES]));
            table[page as usize].get_or_insert_with(zeroed)
        } else {
            self.high.entry(page).or_insert_with(zeroed)
        }
    }

    /// Reads `N` bytes at `addr`: one page lookup when they share a page,
    /// byte by byte (wrapping) when they straddle two.
    fn read_bytes<const N: usize>(&self, addr: u32) -> [u8; N] {
        let off = Self::offset_of(addr);
        let mut out = [0; N];
        if off + N <= Self::PAGE_BYTES {
            if let Some(page) = self.page(addr) {
                out.copy_from_slice(&page[off..off + N]);
            }
        } else {
            for (i, b) in (0u32..).zip(&mut out) {
                *b = self.read_u8(addr.wrapping_add(i));
            }
        }
        out
    }

    /// Writes `bytes` at `addr`, the way [`read_bytes`](Self::read_bytes)
    /// reads them.
    fn write_bytes<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let off = Self::offset_of(addr);
        if off + N <= Self::PAGE_BYTES {
            self.page_mut(addr)[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in (0u32..).zip(bytes) {
                self.write_u8(addr.wrapping_add(i), b);
            }
        }
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.page(addr).map_or(0, |p| p[Self::offset_of(addr)])
    }

    /// Writes one byte, allocating the page if needed.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[Self::offset_of(addr)] = value;
    }

    /// Reads a little-endian 16-bit value (no alignment requirement).
    #[must_use]
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian 16-bit value.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Reads a little-endian 32-bit value (no alignment requirement).
    #[must_use]
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Counts one line read transaction (a cache fill).
    pub(crate) fn count_block_read(&mut self) {
        self.reads += 1;
    }

    /// Counts one line write transaction (a cache write-back).
    pub(crate) fn count_block_write(&mut self) {
        self.writes += 1;
    }

    /// Loads a byte slice at `base` without counting a transaction (program
    /// loading, test setup).
    pub fn load_image(&mut self, base: u32, image: &[u8]) {
        for (i, &b) in image.iter().enumerate() {
            self.write_u8(base.wrapping_add(i as u32), b);
        }
    }

    /// Number of block (line-granularity) read transactions so far.
    #[must_use]
    pub fn block_reads(&self) -> u64 {
        self.reads
    }

    /// Number of block (line-granularity) write transactions so far.
    #[must_use]
    pub fn block_writes(&self) -> u64 {
        self.writes
    }

    /// Number of 4 kB pages currently allocated.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        let low = self.low.as_ref().map_or(0, |t| t.iter().flatten().count());
        low + self.high.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = MainMemory::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u32(0xffff_fffc), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut mem = MainMemory::new();
        mem.write_u32(0x100, 0xa1b2_c3d4);
        assert_eq!(mem.read_u8(0x100), 0xd4);
        assert_eq!(mem.read_u8(0x103), 0xa1);
        assert_eq!(mem.read_u16(0x102), 0xa1b2);
        assert_eq!(mem.read_u32(0x100), 0xa1b2_c3d4);
    }

    #[test]
    fn cross_page_access_works() {
        let mut mem = MainMemory::new();
        mem.write_u32(0xffe, 0x1234_5678); // straddles a 4 kB boundary
        assert_eq!(mem.read_u32(0xffe), 0x1234_5678);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn block_transfers_count_transactions() {
        let mut mem = MainMemory::new();
        mem.count_block_write();
        mem.count_block_read();
        mem.count_block_read();
        assert_eq!(mem.block_reads(), 2);
        assert_eq!(mem.block_writes(), 1);
        assert_eq!(mem.resident_pages(), 0, "counting moves no bytes");
    }

    #[test]
    fn load_image_does_not_count_transactions() {
        let mut mem = MainMemory::new();
        mem.load_image(0x2000, &[9, 8, 7]);
        assert_eq!(mem.read_u8(0x2001), 8);
        assert_eq!(mem.block_reads(), 0);
        assert_eq!(mem.block_writes(), 0);
    }

    #[test]
    fn wrapping_addresses_do_not_panic() {
        let mut mem = MainMemory::new();
        mem.write_u32(0xffff_fffe, 0xdead_beef);
        assert_eq!(mem.read_u32(0xffff_fffe), 0xdead_beef);
        assert_eq!(mem.read_u16(0x0000_0000), 0xdead);
    }
}
