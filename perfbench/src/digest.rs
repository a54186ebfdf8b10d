//! The committed digest of every (kernel, geometry) op's simulated
//! statistics. Host timings vary; these counters must not. The digest
//! covers counters only, not the power model's floating-point output, so
//! it changes only when a scheme makes different decisions.

use std::collections::BTreeMap;

use waymem_cache::{AccessStats, Geometry};
use waymem_sim::{SchemeResult, SimResult};
use waymem_trace::fnv1a64_update;

/// `<kernel> <sets>x<ways>x<line> <fnv1a64 hex>` per line.
const COMMITTED: &str = include_str!("../digest.txt");

/// The FNV-1a64 of a result's cycle count and every scheme's counters,
/// D-side then I-side, in scheme order.
pub fn of(result: &SimResult) -> u64 {
    let mut h = fnv1a64_update(waymem_trace::FNV1A64_SEED, &result.cycles.to_le_bytes());
    for s in result.dcache.iter().chain(&result.icache) {
        for n in counters(s) {
            h = fnv1a64_update(h, &n.to_le_bytes());
        }
    }
    h
}

fn counters(s: &SchemeResult) -> [u64; 12] {
    let AccessStats {
        accesses,
        tag_reads,
        way_reads,
        hits,
        misses,
        mab_hits,
        mab_lookups,
        intra_line_skips,
        buffer_hits,
        write_backs,
        unsound_hits,
    } = s.stats;
    [
        accesses,
        tag_reads,
        way_reads,
        hits,
        misses,
        mab_hits,
        mab_lookups,
        intra_line_skips,
        buffer_hits,
        write_backs,
        unsound_hits,
        s.extra_cycles,
    ]
}

pub fn key(kernel: &str, g: Geometry) -> String {
    format!("{kernel} {}x{}x{}", g.sets(), g.ways(), g.line_bytes())
}

pub fn line(kernel: &str, g: Geometry, digest: u64) -> String {
    format!("{} {digest:016x}", key(kernel, g))
}

pub struct Table(BTreeMap<String, u64>);

impl Table {
    pub fn committed() -> Self {
        Self::parse(COMMITTED)
    }

    fn parse(text: &str) -> Self {
        let mut map = BTreeMap::new();
        for l in text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let (k, hex) = l.rsplit_once(' ').expect("digest line is `<key> <hex>`");
            let digest = u64::from_str_radix(hex, 16).expect("digest is hex");
            map.insert(k.to_owned(), digest);
        }
        Table(map)
    }

    /// `Err` names what differs: the op is missing from the table, or its
    /// counters do not match.
    pub fn check(&self, kernel: &str, g: Geometry, result: &SimResult) -> Result<(), String> {
        let k = key(kernel, g);
        let want = self
            .0
            .get(&k)
            .ok_or_else(|| format!("{k}: not in digest.txt"))?;
        let got = of(result);
        if got == *want {
            Ok(())
        } else {
            Err(format!(
                "{k}: counters digest {got:016x}, committed {want:016x}"
            ))
        }
    }
}

/// Way memoization's claim: it never adds a cycle. `Err` names the
/// first way-memo scheme that did.
pub fn check_way_memo_cycles(result: &SimResult) -> Result<(), String> {
    match result
        .dcache
        .iter()
        .chain(&result.icache)
        .find(|s| s.name.starts_with("way_memo") && s.extra_cycles != 0)
    {
        None => Ok(()),
        Some(s) => Err(format!("{} added {} cycles", s.name, s.extra_cycles)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waymem_sim::{full_dschemes, full_ischemes, Experiment};
    use waymem_workloads::Benchmark;

    fn dct() -> SimResult {
        Experiment::kernel(Benchmark::Dct)
            .dschemes(full_dschemes())
            .ischemes(full_ischemes())
            .run()
            .expect("dct runs")
    }

    #[test]
    fn committed_digest_matches_and_catches_one_perturbed_counter() {
        let table = Table::committed();
        let name = Benchmark::Dct.name();
        let mut r = dct();
        table
            .check(name, Geometry::frv(), &r)
            .expect("dct matches the committed digest");
        r.dcache[5].stats.misses += 1;
        assert!(table.check(name, Geometry::frv(), &r).is_err());
        r.dcache[5].stats.misses -= 1;
        r.icache[0].extra_cycles += 1;
        assert!(table.check(name, Geometry::frv(), &r).is_err());
    }

    #[test]
    fn way_memo_extra_cycles_are_caught() {
        let mut r = dct();
        check_way_memo_cycles(&r).expect("way memo adds no cycles");
        let i = r
            .dcache
            .iter()
            .position(|s| s.name.starts_with("way_memo"))
            .expect("has way memo");
        r.dcache[i].extra_cycles = 1;
        assert!(check_way_memo_cycles(&r).is_err());
    }

    #[test]
    fn unknown_ops_are_reported() {
        let table = Table::parse("dct 512x2x32 00000000000000ff\n");
        let g = Geometry::new(256, 4, 32).expect("valid geometry");
        assert!(table.check("dct", g, &dct()).is_err());
    }
}
