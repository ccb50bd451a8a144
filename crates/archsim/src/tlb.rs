//! Fully-associative TLBs with LRU replacement (the 21064's iTLB has 8
//! entries, its dTLB 32; both map 8 KB pages — Table 3).

use crate::cache::EMPTY;

/// A fully-associative, LRU translation lookaside buffer.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Page numbers, MRU first, with [`EMPTY`] entries at the end.
    entries: Box<[u64]>,
    page_bits: u32,
    /// The page translated last, which is always the MRU entry.
    last_page: u64,
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
}

impl Tlb {
    /// A TLB with `capacity` entries over `page_bytes`-sized pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `page_bytes` is not a power of two.
    pub fn new(capacity: usize, page_bytes: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        assert!(page_bytes.is_power_of_two(), "page size must be 2^k");
        Tlb {
            entries: vec![EMPTY; capacity].into_boxed_slice(),
            page_bits: page_bytes.trailing_zeros(),
            last_page: EMPTY,
            accesses: 0,
            misses: 0,
        }
    }

    /// Translate the page containing `addr`; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u32) -> bool {
        self.accesses += 1;
        let page = u64::from(addr >> self.page_bits);
        // A repeat of the MRU page hits and leaves the LRU order as it is.
        if page == self.last_page {
            return true;
        }
        self.last_page = page;
        match self.entries.iter().position(|&p| p == page) {
            Some(pos) => {
                self.entries[..=pos].rotate_right(1);
                true
            }
            None => {
                self.misses += 1;
                self.entries.rotate_right(1);
                self.entries[0] = page;
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{stream, RefLru};

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(8, 8192);
        assert!(!t.access(0x0000));
        assert!(t.access(0x1ffc)); // same 8 KB page
        assert!(!t.access(0x2000)); // next page
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = Tlb::new(2, 8192);
        t.access(0x0000); // page 0
        t.access(0x2000); // page 1
        t.access(0x0000); // page 0 now MRU
        t.access(0x4000); // page 2 evicts page 1
        assert!(t.access(0x0000));
        assert!(!t.access(0x2000));
    }

    #[test]
    fn a_33_page_working_set_thrashes_a_32_entry_tlb() {
        // The compress phenomenon from §4.1: a data working set just past
        // the dTLB capacity misses constantly under cyclic access.
        let mut t = Tlb::new(32, 8192);
        for _ in 0..3 {
            for p in 0..33u32 {
                t.access(p * 8192);
            }
        }
        assert_eq!(t.misses, 99, "LRU + cyclic over-capacity = all misses");
    }

    #[test]
    fn matches_the_reference_lru_access_by_access() {
        for seed in 1..=6u64 {
            let addrs = stream(seed, 60_000);
            for entries in [8, 32] {
                let mut fast = Tlb::new(entries, 8192);
                let mut reference = RefLru::tlb(entries, 8192);
                for (i, &a) in addrs.iter().enumerate() {
                    assert_eq!(
                        fast.access(a),
                        reference.access(a),
                        "seed {seed}, {entries} entries, access {i} @ {a:#x}"
                    );
                }
                assert_eq!(fast.accesses, reference.accesses);
                assert_eq!(fast.misses, reference.misses, "seed {seed}, {entries}");
                assert!(fast.misses > 0 && fast.misses < fast.accesses);
            }
        }
    }
}
