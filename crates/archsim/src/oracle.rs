//! Test oracle: the straightforward LRU cache the fast models must match.
//!
//! Each set is a `Vec` of tags kept MRU first by `remove` + `insert`, with
//! no same-line filter and no shared stacks. [`Cache`](crate::Cache),
//! [`Tlb`](crate::Tlb) and [`CacheSweep`](crate::CacheSweep) are checked
//! against it access by access and count by count.

/// A set-associative true-LRU cache; a fully-associative TLB is the
/// one-set case with pages for lines.
#[derive(Debug, Clone)]
pub(crate) struct RefLru {
    line_bits: u32,
    sets: usize,
    assoc: usize,
    tags: Vec<Vec<u64>>,
    pub accesses: u64,
    pub misses: u64,
}

impl RefLru {
    /// A `size_bytes` cache of `assoc` ways and `line_bytes` lines.
    pub fn cache(size_bytes: usize, assoc: usize, line_bytes: usize) -> Self {
        RefLru::with_sets(size_bytes / (assoc * line_bytes), assoc, line_bytes)
    }

    /// A fully-associative TLB of `entries` over `page_bytes` pages.
    pub fn tlb(entries: usize, page_bytes: usize) -> Self {
        RefLru::with_sets(1, entries, page_bytes)
    }

    fn with_sets(sets: usize, assoc: usize, line_bytes: usize) -> Self {
        RefLru {
            line_bits: line_bytes.trailing_zeros(),
            sets,
            assoc,
            tags: vec![Vec::with_capacity(assoc); sets],
            accesses: 0,
            misses: 0,
        }
    }

    /// Access the line containing `addr`; returns `true` on hit.
    pub fn access(&mut self, addr: u32) -> bool {
        self.accesses += 1;
        let line = u64::from(addr) >> self.line_bits;
        let ways = &mut self.tags[(line as usize) & (self.sets - 1)];
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            let tag = ways.remove(pos);
            ways.insert(0, tag);
            true
        } else {
            self.misses += 1;
            if ways.len() == self.assoc {
                ways.pop();
            }
            ways.insert(0, line);
            false
        }
    }
}

/// xorshift64: a seeded stream generator with no dependencies.
pub(crate) struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// `len` addresses mixing the patterns the fast paths special-case or
/// stress: same-line and same-page repeats, sequential fetch, strides of
/// 4–64 KB that pile lines into one set, jumps within a 2 MB region
/// (hundreds of pages), and arbitrary 32-bit addresses.
pub(crate) fn stream(seed: u64, len: usize) -> Vec<u32> {
    let mut rng = XorShift::new(seed);
    let mut addr = 0x40_0000u32;
    (0..len)
        .map(|_| {
            let r = rng.next();
            addr = match r % 16 {
                0..=4 => addr,
                5..=8 => addr.wrapping_add(4),
                9..=11 => addr.wrapping_add(4096 << ((r >> 8) % 5)),
                12..=14 => 0x40_0000 + ((r >> 8) as u32 & 0x1f_fffc),
                _ => (r >> 32) as u32,
            };
            addr
        })
        .collect()
}
