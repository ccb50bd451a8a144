//! Set-associative caches with true-LRU replacement.

/// Tag of an empty way or TLB entry, and of "no line yet" for the
/// same-line filters. Tags are 32-bit addresses shifted right, so they
/// stay below 2^32 and never collide with it.
pub(crate) const EMPTY: u64 = u64::MAX;

/// Sets in a `size_bytes` cache of `assoc` ways and `line_bytes` lines.
///
/// # Panics
///
/// Panics unless `size_bytes`, `assoc` and `line_bytes` are powers of two
/// with `size_bytes >= assoc * line_bytes`.
pub(crate) fn sets_for(size_bytes: usize, assoc: usize, line_bytes: usize) -> usize {
    assert!(size_bytes.is_power_of_two(), "cache size must be 2^k");
    assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
    assert!(assoc.is_power_of_two(), "associativity must be 2^k");
    assert!(
        size_bytes >= assoc * line_bytes,
        "cache too small for its associativity"
    );
    size_bytes / (assoc * line_bytes)
}

/// A set-associative cache model. Only tags are tracked (trace-driven
/// simulation needs no data).
#[derive(Debug, Clone)]
pub struct Cache {
    /// Log2 of the line size in bytes.
    line_bits: u32,
    /// Number of sets (power of two).
    sets: usize,
    /// Ways per set.
    assoc: usize,
    /// `sets × assoc` line tags; set `s` owns `tags[s * assoc..][..assoc]`,
    /// most recently used first, with [`EMPTY`] ways at the end.
    tags: Box<[u64]>,
    /// The line accessed last, which is always MRU in its set.
    last_line: u64,
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
}

impl Cache {
    /// Build a cache of `size_bytes` with `assoc` ways and `line_bytes`
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes`, `assoc` and `line_bytes` are powers of
    /// two with `size_bytes >= assoc * line_bytes`.
    pub fn new(size_bytes: usize, assoc: usize, line_bytes: usize) -> Self {
        let sets = sets_for(size_bytes, assoc, line_bytes);
        Cache {
            line_bits: line_bytes.trailing_zeros(),
            sets,
            assoc,
            tags: vec![EMPTY; sets * assoc].into_boxed_slice(),
            last_line: EMPTY,
            accesses: 0,
            misses: 0,
        }
    }

    /// Access the line containing `addr`; returns `true` on hit. Misses
    /// allocate (LRU eviction).
    #[inline]
    pub fn access(&mut self, addr: u32) -> bool {
        self.accesses += 1;
        let line = u64::from(addr) >> self.line_bits;
        // A repeat of the last line hits and leaves the LRU order as it is.
        if line == self.last_line {
            return true;
        }
        self.last_line = line;
        let hit = self.probe(line).is_some();
        self.misses += u64::from(!hit);
        hit
    }

    /// Look `line` up in its set and make it MRU there, allocating over
    /// the LRU way on a miss. Returns the line's LRU stack depth before
    /// the access (0 = MRU), or `None` on a miss. Counters and the
    /// same-line filter are left to the caller.
    #[inline]
    pub(crate) fn probe(&mut self, line: u64) -> Option<usize> {
        let set = (line as usize) & (self.sets - 1);
        let ways = &mut self.tags[set * self.assoc..][..self.assoc];
        match ways.iter().position(|&t| t == line) {
            Some(depth) => {
                ways[..=depth].rotate_right(1);
                Some(depth)
            }
            None => {
                ways.rotate_right(1);
                ways[0] = line;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{stream, RefLru};

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = Cache::new(8192, 1, 32);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x101c)); // same 32-byte line
        assert!(!c.access(0x1020)); // next line
        assert_eq!(c.accesses, 4);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = Cache::new(8192, 1, 32);
        // Two addresses 8 KB apart map to the same set.
        assert!(!c.access(0x0000));
        assert!(!c.access(0x2000));
        assert!(!c.access(0x0000), "direct-mapped conflict must evict");
    }

    #[test]
    fn two_way_absorbs_that_conflict() {
        let mut c = Cache::new(8192, 2, 32);
        assert!(!c.access(0x0000));
        assert!(!c.access(0x2000));
        assert!(c.access(0x0000));
        assert!(c.access(0x2000));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(4 * 32, 4, 32); // one set, 4 ways
        for a in [0u32, 32, 64, 96] {
            assert!(!c.access(a));
        }
        assert!(c.access(0)); // 0 becomes MRU; LRU is 32
        assert!(!c.access(128)); // evicts 32
        assert!(c.access(0));
        assert!(!c.access(32));
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn non_power_of_two_rejected() {
        Cache::new(3000, 1, 32);
    }

    /// Every Figure 4 I-cache and every Table 3 cache, plus an 8-way one.
    const GEOMETRIES: [(usize, usize); 14] = [
        (8 << 10, 1),
        (16 << 10, 1),
        (32 << 10, 1),
        (64 << 10, 1),
        (8 << 10, 2),
        (16 << 10, 2),
        (32 << 10, 2),
        (64 << 10, 2),
        (8 << 10, 4),
        (16 << 10, 4),
        (32 << 10, 4),
        (64 << 10, 4),
        (512 << 10, 1),
        (16 << 10, 8),
    ];

    #[test]
    fn matches_the_reference_lru_access_by_access() {
        for seed in 1..=6u64 {
            let addrs = stream(seed, 60_000);
            for (size, assoc) in GEOMETRIES {
                let mut fast = Cache::new(size, assoc, 32);
                let mut reference = RefLru::cache(size, assoc, 32);
                for (i, &a) in addrs.iter().enumerate() {
                    assert_eq!(
                        fast.access(a),
                        reference.access(a),
                        "seed {seed}, {size} B {assoc}-way, access {i} @ {a:#x}"
                    );
                }
                assert_eq!(fast.accesses, reference.accesses);
                assert_eq!(fast.misses, reference.misses, "seed {seed}, {size} {assoc}");
                assert!(fast.misses > 0 && fast.misses < fast.accesses);
            }
        }
    }
}
