//! Footprint-adaptive level-1 sizing (paper Figure 14(b)).
//!
//! Fewer level-1 bits mean exponentially fewer level-1 entries and hence far
//! fewer distinct M-TLB tags — but coarser level-2 chunks waste lifeguard
//! space when the application's footprint is sparse. The paper's flexible
//! design picks, per application, the smallest level-1 width whose space
//! cost stays acceptable: "the level-1 bits are chosen so that either the
//! lifeguard space grows less than 10% or the lifeguard uses up to 1% of the
//! total 32-bit address space (assuming a 1-1 mapping from application byte
//! to metadata byte)".

use std::collections::BTreeSet;
use std::ops::RangeInclusive;

/// Application page size used for footprint measurement.
pub const APP_PAGE_BYTES: u64 = 4096;

/// Maximum tolerated relative growth of metadata space over the perfect
/// (page-granular) footprint (the paper's 10 %).
const MAX_GROWTH: f64 = 0.10;

/// Maximum tolerated absolute metadata space as a fraction of the 2^32
/// application space (the paper's 1 %).
const MAX_ABS_FRACTION: f64 = 0.01;

/// The level-1 widths considered, narrowest first.
const CANDIDATE_BITS: RangeInclusive<u8> = 8..=20;

/// Collects the set of touched 4 KiB application pages from an address
/// iterator (the footprint measurement pass of the profiling study).
pub fn footprint_pages<I: IntoIterator<Item = u32>>(addrs: I) -> BTreeSet<u32> {
    addrs.into_iter().map(|a| a >> 12).collect()
}

/// Metadata bytes consumed with `level1_bits`, assuming a 1-1 byte mapping:
/// the number of distinct level-2 chunks touched times the chunk span.
pub fn metadata_bytes_for(pages: &BTreeSet<u32>, level1_bits: u8) -> u64 {
    let span_pages = 1u64 << (32 - level1_bits as u32 - 12);
    let mut chunks = 0u64;
    let mut last = None;
    for &p in pages {
        let c = p as u64 / span_pages;
        if last != Some(c) {
            chunks += 1;
            last = Some(c);
        }
    }
    chunks * span_pages * APP_PAGE_BYTES
}

/// Chooses the smallest level-1 width in 8..=20 whose space cost meets the
/// paper's policy (growth under 10 % or at most 1 % of the 2^32 space);
/// falls back to 20 bits when none qualifies.
///
/// At 20 bits a chunk spans one page, so the metadata equals the perfect
/// footprint and the growth bound always holds: the fallback is never taken.
pub fn choose_level1_bits(pages: &BTreeSet<u32>) -> u8 {
    assert!(!pages.is_empty(), "footprint must be non-empty");
    let perfect = pages.len() as u64 * APP_PAGE_BYTES;
    let growth_bound = (perfect as f64 * (1.0 + MAX_GROWTH)) as u64;
    let abs_bound = ((1u64 << 32) as f64 * MAX_ABS_FRACTION) as u64;
    CANDIDATE_BITS
        .into_iter()
        .find(|&bits| {
            let used = metadata_bytes_for(pages, bits);
            used <= growth_bound || used <= abs_bound
        })
        .unwrap_or(*CANDIDATE_BITS.end())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A typical sparse IA32 layout: code low, heap middle, stack high.
    fn sparse_footprint() -> BTreeSet<u32> {
        let mut pages = BTreeSet::new();
        for a in (0x0804_8000u32..0x0806_8000).step_by(4096) {
            pages.insert(a >> 12); // 128 KB of code+globals
        }
        for a in (0x0900_0000u32..0x0940_0000).step_by(4096) {
            pages.insert(a >> 12); // 4 MB heap
        }
        for a in (0xbffd_0000u32..0xc000_0000).step_by(4096) {
            pages.insert(a >> 12); // 192 KB stack
        }
        pages
    }

    #[test]
    fn footprint_pages_dedups() {
        let pages = footprint_pages([0x1000, 0x1004, 0x1ffc, 0x2000]);
        assert_eq!(pages.len(), 2);
    }

    #[test]
    fn metadata_bytes_single_chunk_at_few_bits() {
        // With 1 page touched, any width yields exactly one chunk.
        let pages = footprint_pages([0x0804_8000]);
        assert_eq!(metadata_bytes_for(&pages, 20), 4096);
        assert_eq!(metadata_bytes_for(&pages, 12), 1 << 20);
    }

    #[test]
    fn metadata_bytes_counts_distinct_chunks() {
        // Two pages at opposite extremes: always two chunks.
        let pages = footprint_pages([0x0000_0000, 0xffff_f000]);
        assert_eq!(metadata_bytes_for(&pages, 16), 2 * (1 << 16));
        assert_eq!(metadata_bytes_for(&pages, 8), 2 * (1 << 24));
    }

    #[test]
    fn choose_picks_small_width_for_sparse_layout() {
        let pages = sparse_footprint();
        let bits = choose_level1_bits(&pages);
        // Three clustered regions: even very coarse chunks stay under the
        // 1%-of-2^32 absolute bound (3 chunks of 16 MB = 48 MB > 42.9 MB at
        // 8 bits, but 3 x 8 MB = 24 MB at 9 bits qualifies).
        assert!(bits <= 10, "expected a small level-1 width, got {bits}");
        // And the chosen width indeed meets the policy.
        let used = metadata_bytes_for(&pages, bits);
        assert!(used <= ((1u64 << 32) as f64 * 0.01) as u64);
    }

    #[test]
    fn choose_respects_growth_bound_for_dense_layout() {
        // A dense 64 MB contiguous footprint: growth bound accepts even
        // coarse widths because chunks are fully used.
        let mut pages = BTreeSet::new();
        for p in 0..(64 * 1024 * 1024 / 4096) {
            pages.insert(0x0900_0000 / 4096 + p);
        }
        let bits = choose_level1_bits(&pages);
        assert_eq!(bits, 8);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_footprint_panics() {
        let _ = choose_level1_bits(&BTreeSet::new());
    }
}
