use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use waymem_cache::Geometry;

/// The 2-bit flag stored with each MAB tag entry: the carry out of the
/// narrow adder and the displacement's sign class (paper §3.3, "the 2-bit
/// cflag is used to store the carry bit of the 14-bit adder and the sign of
/// the displacement value").
///
/// Two (base, displacement) pairs address the same cache tag whenever their
/// base upper bits, carries and sign classes all match — which is exactly
/// the equality the MAB's comparators implement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Cflag {
    /// Carry out of the low-bits adder.
    pub carry: bool,
    /// `true` when the displacement's upper bits are all ones (negative).
    pub negative: bool,
}

impl Cflag {
    /// Packs the flag into its 2-bit hardware encoding (bit 1 = carry,
    /// bit 0 = negative).
    #[must_use]
    pub fn encode(self) -> u8 {
        (u8::from(self.carry) << 1) | u8::from(self.negative)
    }

    /// Decodes the 2-bit hardware encoding.
    #[must_use]
    pub fn decode(bits: u8) -> Self {
        Self {
            carry: bits & 0b10 != 0,
            negative: bits & 0b01 != 0,
        }
    }
}

/// Error constructing a [`MabConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MabConfigError {
    /// Zero tag entries requested.
    NoTagEntries,
    /// Zero set-index entries requested.
    NoSetEntries,
    /// More entries than the MAB supports ([`MabConfig::MAX_ENTRIES`]).
    TooManyEntries(usize),
}

impl fmt::Display for MabConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MabConfigError::NoTagEntries => write!(f, "MAB needs at least one tag entry"),
            MabConfigError::NoSetEntries => {
                write!(f, "MAB needs at least one set-index entry")
            }
            MabConfigError::TooManyEntries(n) => write!(
                f,
                "{n} entries exceeds the supported maximum of {}",
                MabConfig::MAX_ENTRIES
            ),
        }
    }
}

impl Error for MabConfigError {}

/// Configuration of a MAB: the cache geometry it fronts and the number of
/// tag rows (`N_t`) and set-index columns (`N_s`).
///
/// The paper's sweet spots: **2×8** for the D-cache and **2×16** for the
/// I-cache (2×32 is slightly better for some programs but costs 27.5 % area
/// versus 7.5 %).
///
/// ```
/// use waymem_cache::Geometry;
/// use waymem_core::MabConfig;
///
/// # fn main() -> Result<(), waymem_core::MabConfigError> {
/// let cfg = MabConfig::new(Geometry::frv(), 2, 8)?;
/// assert_eq!(cfg.addresses_covered(), 16);
/// assert_eq!(cfg.tag_entry_bits(), 18 + 2);   // tag + cflag
/// assert_eq!(cfg.set_entry_bits(), 9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MabConfig {
    geom: Geometry,
    tag_entries: usize,
    set_entries: usize,
}

impl MabConfig {
    /// The most tag rows, and the most set-index columns, a MAB can have:
    /// the valid pairs of a row are one 64-bit mask over its columns.
    pub const MAX_ENTRIES: usize = 64;

    /// Creates a configuration with `tag_entries` rows and `set_entries`
    /// columns for caches shaped by `geom`.
    ///
    /// # Errors
    ///
    /// Returns [`MabConfigError`] when either entry count is zero or exceeds
    /// [`MAX_ENTRIES`](Self::MAX_ENTRIES).
    pub fn new(
        geom: Geometry,
        tag_entries: usize,
        set_entries: usize,
    ) -> Result<Self, MabConfigError> {
        if tag_entries == 0 {
            return Err(MabConfigError::NoTagEntries);
        }
        if set_entries == 0 {
            return Err(MabConfigError::NoSetEntries);
        }
        if tag_entries > Self::MAX_ENTRIES {
            return Err(MabConfigError::TooManyEntries(tag_entries));
        }
        if set_entries > Self::MAX_ENTRIES {
            return Err(MabConfigError::TooManyEntries(set_entries));
        }
        Ok(Self {
            geom,
            tag_entries,
            set_entries,
        })
    }

    /// The paper's D-cache configuration: 2 tag entries × 8 set-index
    /// entries over the FR-V geometry.
    #[must_use]
    pub fn paper_dcache() -> Self {
        Self::new(Geometry::frv(), 2, 8).expect("2x8 is valid")
    }

    /// The paper's I-cache configuration: 2 tag entries × 16 set-index
    /// entries over the FR-V geometry.
    #[must_use]
    pub fn paper_icache() -> Self {
        Self::new(Geometry::frv(), 2, 16).expect("2x16 is valid")
    }

    /// The fronted cache's geometry.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Number of tag rows (`N_t`).
    #[must_use]
    pub fn tag_entries(&self) -> usize {
        self.tag_entries
    }

    /// Number of set-index columns (`N_s`).
    #[must_use]
    pub fn set_entries(&self) -> usize {
        self.set_entries
    }

    /// Number of distinct addresses the cross-product can memoize
    /// (`N_t × N_s`).
    #[must_use]
    pub fn addresses_covered(&self) -> usize {
        self.tag_entries * self.set_entries
    }

    /// Storage bits of one tag entry: the tag plus the 2-bit [`Cflag`].
    #[must_use]
    pub fn tag_entry_bits(&self) -> u32 {
        self.geom.tag_bits() + 2
    }

    /// Storage bits of one set-index entry.
    #[must_use]
    pub fn set_entry_bits(&self) -> u32 {
        self.geom.index_bits()
    }

    /// Bits per (row, column) pair: one vflag bit plus the way number.
    #[must_use]
    pub fn pair_bits(&self) -> u32 {
        1 + self.geom.ways().trailing_zeros().max(1)
    }

    /// Total storage bits of the MAB (tags + indices + vflag/way matrix),
    /// the quantity the area model scales with.
    #[must_use]
    pub fn storage_bits(&self) -> u32 {
        self.tag_entries as u32 * self.tag_entry_bits()
            + self.set_entries as u32 * self.set_entry_bits()
            + (self.tag_entries * self.set_entries) as u32 * self.pair_bits()
    }
}

impl Default for MabConfig {
    /// Defaults to the paper's D-cache configuration (2×8 over FR-V).
    fn default() -> Self {
        Self::paper_dcache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cflag_encode_decode_round_trip() {
        for bits in 0..4u8 {
            assert_eq!(Cflag::decode(bits).encode(), bits);
        }
        let f = Cflag {
            carry: true,
            negative: false,
        };
        assert_eq!(f.encode(), 0b10);
    }

    #[test]
    fn paper_configs_match_paper_numbers() {
        let d = MabConfig::paper_dcache();
        assert_eq!((d.tag_entries(), d.set_entries()), (2, 8));
        assert_eq!(d.addresses_covered(), 16);
        assert_eq!(d.tag_entry_bits(), 20);
        assert_eq!(d.set_entry_bits(), 9);
        let i = MabConfig::paper_icache();
        assert_eq!((i.tag_entries(), i.set_entries()), (2, 16));
        assert_eq!(i.addresses_covered(), 32);
    }

    #[test]
    fn storage_bits_add_up() {
        let cfg = MabConfig::new(Geometry::frv(), 2, 8).unwrap();
        // 2 ways -> way number 1 bit -> pair = 2 bits.
        assert_eq!(cfg.pair_bits(), 2);
        assert_eq!(cfg.storage_bits(), 2 * 20 + 8 * 9 + 16 * 2);
    }

    #[test]
    fn rejects_degenerate_configs() {
        let g = Geometry::frv();
        assert_eq!(
            MabConfig::new(g, 0, 8).unwrap_err(),
            MabConfigError::NoTagEntries
        );
        assert_eq!(
            MabConfig::new(g, 2, 0).unwrap_err(),
            MabConfigError::NoSetEntries
        );
        assert_eq!(
            MabConfig::new(g, 256, 1).unwrap_err(),
            MabConfigError::TooManyEntries(256)
        );
        assert_eq!(
            MabConfig::new(g, 1, 999).unwrap_err(),
            MabConfigError::TooManyEntries(999)
        );
    }

    #[test]
    fn direct_mapped_cache_still_needs_one_way_bit() {
        let g = Geometry::new(64, 1, 16).unwrap();
        let cfg = MabConfig::new(g, 1, 4).unwrap();
        assert_eq!(cfg.pair_bits(), 2); // vflag + 1 way bit minimum
    }
}
