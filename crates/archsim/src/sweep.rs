//! Multi-configuration instruction-cache sweep (Figure 4).
//!
//! Runs one instruction stream through every `{8, 16, 32, 64 KB} ×
//! {direct-mapped, 2-way, 4-way}` L1 I-cache simultaneously and reports
//! misses per 100 instructions for each point.
//!
//! The sweep is one pass of stack-distance simulation (Mattson, Gecsei,
//! Slutz & Traiger, IBM Systems Journal 1970; Hill & Smith, IEEE
//! Transactions on Computers 1989) rather than one cache per point.
//! Caches with the same line size and the same number of sets map every
//! line to the same set, and an `a`-way LRU set holds exactly the `a`
//! most recent lines of that set's LRU stack (inclusion). So one LRU
//! stack per distinct set count, as deep as the largest associativity
//! using that set count, records the depth each access hits at, and an
//! `a`-way cache misses on every access that is not found above depth
//! `a`. Figure 4's twelve points need six stacks. Ahead of the stacks, a
//! same-line filter skips every fetch from the line fetched last: that
//! line is MRU in every stack, so the fetch hits at depth 0 everywhere
//! and changes no LRU order. Both steps are exact; the unit tests check
//! them against independent LRU caches.

use interp_core::{InsnRecord, TraceSink};

use crate::cache::{sets_for, Cache, EMPTY};

/// One configuration's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Cache capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub assoc: usize,
    /// Misses per 100 instructions.
    pub miss_per_100: f64,
}

/// The LRU stacks of every cache with one set count.
#[derive(Debug)]
struct Stack {
    /// Tags, as deep per set as the largest associativity served.
    lru: Cache,
    /// `hits[d]`: probes found at LRU depth `d`.
    hits: Box<[u64]>,
}

/// One configured cache: its geometry and the stack that simulates it.
#[derive(Debug)]
struct Config {
    size_bytes: usize,
    assoc: usize,
    stack: usize,
}

/// A [`TraceSink`] that simulates every configured I-cache in one pass.
#[derive(Debug)]
pub struct CacheSweep {
    configs: Vec<Config>,
    stacks: Vec<Stack>,
    line_bits: u32,
    /// The line fetched last, MRU in every stack.
    last_line: u64,
    /// Fetches that reached the stacks (the rest repeated `last_line`).
    probes: u64,
    instructions: u64,
}

impl CacheSweep {
    /// The paper's Figure 4 grid: sizes 8/16/32/64 KB × assoc 1/2/4,
    /// 32-byte lines.
    pub fn figure4() -> Self {
        let mut configs = Vec::new();
        for &assoc in &[1usize, 2, 4] {
            for &kb in &[8usize, 16, 32, 64] {
                configs.push((kb * 1024, assoc));
            }
        }
        CacheSweep::new(&configs, 32)
    }

    /// A custom grid of `(size_bytes, assoc)` caches sharing one line
    /// size.
    ///
    /// # Panics
    ///
    /// Panics unless every size, associativity and `line_bytes` is a
    /// power of two with `size_bytes >= assoc * line_bytes`.
    pub fn new(configs: &[(usize, usize)], line_bytes: usize) -> Self {
        // (sets, deepest associativity) per stack, in first-use order.
        let mut shapes: Vec<(usize, usize)> = Vec::new();
        let configs = configs
            .iter()
            .map(|&(size_bytes, assoc)| {
                let sets = sets_for(size_bytes, assoc, line_bytes);
                let stack = match shapes.iter().position(|&(s, _)| s == sets) {
                    Some(i) => {
                        shapes[i].1 = shapes[i].1.max(assoc);
                        i
                    }
                    None => {
                        shapes.push((sets, assoc));
                        shapes.len() - 1
                    }
                };
                Config {
                    size_bytes,
                    assoc,
                    stack,
                }
            })
            .collect();
        let stacks = shapes
            .into_iter()
            .map(|(sets, depth)| Stack {
                lru: Cache::new(sets * depth * line_bytes, depth, line_bytes),
                hits: vec![0; depth].into_boxed_slice(),
            })
            .collect();
        CacheSweep {
            configs,
            stacks,
            line_bits: line_bytes.trailing_zeros(),
            last_line: EMPTY,
            probes: 0,
            instructions: 0,
        }
    }

    /// Misses of one configured cache.
    fn misses(&self, config: &Config) -> u64 {
        let hits: u64 = self.stacks[config.stack].hits[..config.assoc].iter().sum();
        self.probes - hits
    }

    /// Results for every configured cache, in configuration order.
    pub fn points(&self) -> Vec<SweepPoint> {
        self.configs
            .iter()
            .map(|c| SweepPoint {
                size_bytes: c.size_bytes,
                assoc: c.assoc,
                miss_per_100: if self.instructions == 0 {
                    0.0
                } else {
                    100.0 * self.misses(c) as f64 / self.instructions as f64
                },
            })
            .collect()
    }

    /// Look up one point by geometry.
    pub fn point(&self, size_bytes: usize, assoc: usize) -> Option<SweepPoint> {
        self.points()
            .into_iter()
            .find(|p| p.size_bytes == size_bytes && p.assoc == assoc)
    }

    /// Instructions observed.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }
}

impl TraceSink for CacheSweep {
    #[inline]
    fn insn(&mut self, rec: InsnRecord) {
        self.instructions += 1;
        let line = u64::from(rec.pc) >> self.line_bits;
        if line == self.last_line {
            return;
        }
        self.last_line = line;
        self.probes += 1;
        for stack in &mut self.stacks {
            if let Some(depth) = stack.lru.probe(line) {
                stack.hits[depth] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{stream, RefLru};
    use interp_core::{InsnKind, Language, Scale, WorkloadId};
    use interp_workloads::Runner;

    fn feed_footprint(sweep: &mut CacheSweep, bytes: u32, sweeps: u32) {
        for _ in 0..sweeps {
            for i in 0..(bytes / 4) {
                sweep.insn(InsnRecord::new(0x40_0000 + i * 4, InsnKind::Alu));
            }
        }
    }

    #[test]
    fn figure4_grid_has_twelve_points() {
        let sweep = CacheSweep::figure4();
        assert_eq!(sweep.points().len(), 12);
        assert_eq!(sweep.stacks.len(), 6, "one stack per distinct set count");
        assert!(sweep.point(8 * 1024, 1).is_some());
        assert!(sweep.point(64 * 1024, 4).is_some());
        assert!(sweep.point(128 * 1024, 1).is_none());
    }

    #[test]
    fn working_set_knee_is_visible() {
        // A 24 KB footprint swept repeatedly: 8/16 KB caches thrash,
        // 32/64 KB caches capture it.
        let mut sweep = CacheSweep::figure4();
        feed_footprint(&mut sweep, 24 * 1024, 20);
        // A cyclic 24 KB sweep misses once per 32-byte line (8 instructions)
        // in the 8 KB cache — 12.5 misses per 100 instructions.
        let small = sweep.point(8 * 1024, 1).unwrap().miss_per_100;
        let large = sweep.point(32 * 1024, 1).unwrap().miss_per_100;
        assert!(small > 10.0, "8 KB should thrash: {small}");
        assert!(large < 1.0, "32 KB should capture: {large}");
    }

    #[test]
    fn associativity_monotone_for_conflict_pattern() {
        // Two 8 KB-apart regions alternating: conflicts in direct-mapped,
        // absorbed by 2-way.
        let mut sweep = CacheSweep::new(&[(8192, 1), (8192, 2), (8192, 4)], 32);
        for _ in 0..50 {
            for i in 0..64u32 {
                sweep.insn(InsnRecord::new(0x40_0000 + i * 32, InsnKind::Alu));
                sweep.insn(InsnRecord::new(0x40_2000 + i * 32, InsnKind::Alu));
            }
        }
        let p = sweep.points();
        assert!(p[0].miss_per_100 > 50.0, "DM {}", p[0].miss_per_100);
        assert!(p[1].miss_per_100 < 5.0, "2-way {}", p[1].miss_per_100);
        assert!(p[2].miss_per_100 <= p[1].miss_per_100 + 1e-9);
    }

    #[test]
    fn instruction_count_tracks() {
        let mut sweep = CacheSweep::figure4();
        feed_footprint(&mut sweep, 1024, 3);
        assert_eq!(sweep.instructions(), 3 * 256);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn impossible_geometry_rejected() {
        CacheSweep::new(&[(8192, 1), (64, 4)], 32);
    }

    /// A sink feeding one trace to a sweep and to an independent
    /// reference cache per configured point.
    struct Tee {
        sweep: CacheSweep,
        line: usize,
        reference: Vec<RefLru>,
    }

    impl Tee {
        fn new(sweep: CacheSweep, line: usize) -> Self {
            let reference = sweep
                .configs
                .iter()
                .map(|c| RefLru::cache(c.size_bytes, c.assoc, line))
                .collect();
            Tee {
                sweep,
                line,
                reference,
            }
        }

        fn feed(mut self, addrs: &[u32]) -> Self {
            for &a in addrs {
                self.insn(InsnRecord::new(a, InsnKind::Alu));
            }
            self
        }

        /// Every point's miss count equals its reference cache's.
        fn check(&self, what: &str) {
            let sweep = &self.sweep;
            let line = self.line;
            assert!(sweep.instructions() > 0, "{what}: empty trace");
            for (c, r) in sweep.configs.iter().zip(&self.reference) {
                assert_eq!(r.accesses, sweep.instructions(), "{what}");
                assert_eq!(
                    sweep.misses(c),
                    r.misses,
                    "{what}: {} B {}-way, {line} B lines",
                    c.size_bytes,
                    c.assoc
                );
            }
            let points = sweep.points();
            assert_eq!(points.len(), self.reference.len());
            for (p, r) in points.iter().zip(&self.reference) {
                let expected = 100.0 * r.misses as f64 / r.accesses as f64;
                assert_eq!(p.miss_per_100, expected, "{what}");
            }
        }
    }

    impl TraceSink for Tee {
        fn insn(&mut self, rec: InsnRecord) {
            self.sweep.insn(rec);
            for r in &mut self.reference {
                r.access(rec.pc);
            }
        }
    }

    #[test]
    fn figure4_matches_twelve_reference_caches() {
        for seed in 1..=6u64 {
            Tee::new(CacheSweep::figure4(), 32)
                .feed(&stream(seed, 60_000))
                .check(&format!("seed {seed}"));
        }
    }

    #[test]
    fn mixed_grid_matches_reference_caches() {
        // Set counts 16..256 shared across 1-, 2-, 4- and 8-way points, a
        // duplicate point, and a stack whose deepest user is listed last.
        let grid = [
            (4096, 1),
            (8192, 8),
            (2048, 2),
            (16384, 4),
            (4096, 4),
            (8192, 8),
            (32768, 8),
            (1024, 1),
            (4096, 2),
        ];
        for line in [16, 64] {
            for seed in 7..=10u64 {
                Tee::new(CacheSweep::new(&grid, line), line)
                    .feed(&stream(seed, 60_000))
                    .check(&format!("seed {seed}"));
            }
        }
    }

    #[test]
    fn real_traces_match_reference_caches() {
        // One test-scale macro workload per engine.
        for w in [
            WorkloadId::macro_bench(Language::C, "des", Scale::Test),
            WorkloadId::macro_bench(Language::Mipsi, "des", Scale::Test),
            WorkloadId::macro_bench(Language::Javelin, "hanoi", Scale::Test),
            WorkloadId::macro_bench(Language::Perlite, "txt2html", Scale::Test),
            WorkloadId::macro_bench(Language::Tclite, "tcltags", Scale::Test),
        ] {
            let tee = Runner::run(w, Tee::new(CacheSweep::figure4(), 32)).sink;
            tee.check(&w.to_string());
        }
    }
}
