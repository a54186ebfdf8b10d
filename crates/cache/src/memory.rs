use std::collections::HashMap;

/// Flat, sparsely allocated 32-bit byte-addressable main memory.
///
/// Holds the frv-lite CPU's architectural data. Pages of 4 kB are
/// allocated on first touch; unwritten memory reads as zero, which keeps
/// traces deterministic. The tag-only [`SetAssocCache`](crate::SetAssocCache)
/// moves no bytes through it: it only counts the line transfers its fills
/// and write-backs make ([`block_reads`](Self::block_reads),
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
    pages: HashMap<u32, Box<[u8; Self::PAGE_BYTES]>>,
    reads: u64,
    writes: u64,
}

impl MainMemory {
    const PAGE_BYTES: usize = 4096;
    const PAGE_SHIFT: u32 = 12;

    /// Creates an empty memory. All bytes read as zero until written.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn page_of(addr: u32) -> u32 {
        addr >> Self::PAGE_SHIFT
    }

    fn offset_of(addr: u32) -> usize {
        (addr as usize) & (Self::PAGE_BYTES - 1)
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.pages
            .get(&Self::page_of(addr))
            .map_or(0, |p| p[Self::offset_of(addr)])
    }

    /// Writes one byte, allocating the page if needed.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        let page = self
            .pages
            .entry(Self::page_of(addr))
            .or_insert_with(|| Box::new([0; Self::PAGE_BYTES]));
        page[Self::offset_of(addr)] = value;
    }

    /// Reads a little-endian 16-bit value (no alignment requirement).
    #[must_use]
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from(self.read_u8(addr)) | (u16::from(self.read_u8(addr.wrapping_add(1))) << 8)
    }

    /// Writes a little-endian 16-bit value.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_u8(addr, value as u8);
        self.write_u8(addr.wrapping_add(1), (value >> 8) as u8);
    }

    /// Reads a little-endian 32-bit value (no alignment requirement).
    #[must_use]
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from(self.read_u16(addr)) | (u32::from(self.read_u16(addr.wrapping_add(2))) << 16)
    }

    /// Writes a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_u16(addr, value as u16);
        self.write_u16(addr.wrapping_add(2), (value >> 16) as u16);
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
        self.pages.len()
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
