//! `RefMab`, the naive reference MAB: rows and columns as explicit
//! recency lists and the valid pairs as a map, restated from the MAB's
//! rules and sharing no code with `waymem_core::Mab`.
//!
//! Test support shared by two suites, each of which includes it with
//! `#[path]`: the MAB's own model check (`crates/core/tests/properties.rs`)
//! and the I-front reference model (`tests/ifront_oracle.rs`).

use std::collections::HashMap;

use waymem_cache::Geometry;
use waymem_core::{MabLookup, MabStats, RecordOutcome};

/// A tag row's contents: base tag, carry, negative displacement.
type RowKey = (u32, bool, bool);

/// The reference MAB: rows and columns as explicit recency lists (most
/// recent first) of `(slot, entry)`, and the valid pairs as a map from
/// (row entry, set index) to the memoized way.
pub struct RefMab {
    geom: Geometry,
    rows: Vec<(usize, Option<RowKey>)>,
    cols: Vec<(usize, Option<u32>)>,
    pub pairs: HashMap<(RowKey, u32), u32>,
    pub stats: MabStats,
}

/// Moves entry `pos` (the least recently used one for `None`) of a
/// recency list to the front; returns its slot.
fn touch<T>(list: &mut Vec<(usize, T)>, pos: Option<usize>) -> usize {
    let entry = list.remove(pos.unwrap_or(list.len() - 1));
    let slot = entry.0;
    list.insert(0, entry);
    slot
}

/// Installs `entry` in the least recently used slot of `list`, returning
/// what it displaced.
fn replace_lru<T: Copy>(list: &mut [(usize, Option<T>)], entry: T) -> Option<T> {
    let last = list.len() - 1;
    list[last].1.replace(entry)
}

impl RefMab {
    pub fn new(geom: Geometry, nt: usize, ns: usize) -> Self {
        Self {
            geom,
            rows: (0..nt).rev().map(|slot| (slot, None)).collect(),
            cols: (0..ns).rev().map(|slot| (slot, None)).collect(),
            pairs: HashMap::new(),
            stats: MabStats::default(),
        }
    }

    /// Row entry, set index and offset of `base + disp` from the full
    /// arithmetic, or `None` when the displacement is wide.
    fn decode(&self, base: u32, disp: i32) -> Option<(RowKey, u32, u32)> {
        let k = self.geom.low_bits();
        if !(-(1i64 << k)..(1i64 << k)).contains(&i64::from(disp)) {
            return None;
        }
        let mask = (1u32 << k) - 1;
        let sum = (base & mask) + (disp as u32 & mask);
        let low = sum & mask;
        let key = (self.geom.tag_of(base), sum > mask, disp < 0);
        Some((
            key,
            low >> self.geom.offset_bits(),
            low & (self.geom.line_bytes() - 1),
        ))
    }

    fn find(&self, key: RowKey, set_index: u32) -> (Option<usize>, Option<usize>) {
        (
            self.rows.iter().position(|r| r.1 == Some(key)),
            self.cols.iter().position(|c| c.1 == Some(set_index)),
        )
    }

    pub fn lookup(&mut self, base: u32, disp: i32) -> MabLookup {
        let Some((key, set_index, offset)) = self.decode(base, disp) else {
            self.stats.wide_bypasses += 1;
            return MabLookup::Wide;
        };
        self.stats.lookups += 1;
        let (row, col) = self.find(key, set_index);
        self.stats.row_hits += u64::from(row.is_some());
        self.stats.col_hits += u64::from(col.is_some());
        match (row, col, self.pairs.get(&(key, set_index))) {
            (Some(r), Some(c), Some(&way)) => {
                self.stats.hits += 1;
                touch(&mut self.rows, Some(r));
                touch(&mut self.cols, Some(c));
                MabLookup::Hit {
                    way,
                    set_index,
                    offset,
                }
            }
            _ => MabLookup::Miss {
                row_hit: row.is_some(),
                col_hit: col.is_some(),
                set_index,
            },
        }
    }

    pub fn record(&mut self, base: u32, disp: i32, way: u32) -> Option<RecordOutcome> {
        let (key, set_index, _) = self.decode(base, disp)?;
        let (row_pos, col_pos) = self.find(key, set_index);
        if row_pos.is_none() {
            self.stats.row_replacements += 1;
            if let Some(old) = replace_lru(&mut self.rows, key) {
                self.pairs.retain(|&(k, _), _| k != old);
            }
        }
        if col_pos.is_none() {
            self.stats.col_replacements += 1;
            if let Some(old) = replace_lru(&mut self.cols, set_index) {
                self.pairs.retain(|&(_, s), _| s != old);
            }
        }
        let row = touch(&mut self.rows, row_pos);
        let col = touch(&mut self.cols, col_pos);
        self.pairs.insert((key, set_index), way);
        Some(RecordOutcome {
            row,
            col,
            row_reused: row_pos.is_some(),
            col_reused: col_pos.is_some(),
        })
    }

    pub fn invalidate_location(&mut self, set_index: u32, way: u32) -> usize {
        let before = self.pairs.len();
        self.pairs
            .retain(|&(_, s), &mut w| (s, w) != (set_index, way));
        let cleared = before - self.pairs.len();
        self.stats.invalidated_pairs += cleared as u64;
        cleared
    }
}
