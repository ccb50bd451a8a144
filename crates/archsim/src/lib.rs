//! Trace-driven timing model of the paper's simulated machine: a 2-issue
//! in-order Alpha-21064-like core with the exact Table 3 memory system
//! (8 KB direct-mapped L1 I/D, 512 KB unified L2, 8-entry iTLB, 32-entry
//! dTLB, 256-entry 1-bit BHT, 32-entry branch target cache, 12-entry return
//! stack).
//!
//! [`PipelineSim`] consumes an [`interp_core::InsnRecord`] stream (it
//! implements [`interp_core::TraceSink`], so a simulated host machine can
//! stream straight into it) and produces a [`PipelineReport`] with the
//! issue-slot breakdown of Figure 3. [`CacheSweep`] runs the Figure 4
//! I-cache size/associativity grid in a single pass.
//!
//! # Host cost
//!
//! Every simulated instruction passes through these models, so their
//! per-instruction work is the host's main cost for Figures 3 and 4. Two
//! exact shortcuts keep it small:
//!
//! * **Same-line filter.** An access to the line (or page) accessed last
//!   finds it in the MRU position, so it hits and changes no LRU order.
//!   [`Cache`] and [`Tlb`] answer it from one comparison, before searching
//!   the set; [`CacheSweep`] does the same once, ahead of all its caches.
//!   Access and miss counts are unchanged.
//! * **Stack-distance sweep.** Caches with the same set count and line
//!   size share one LRU stack per set, and an `a`-way cache hits exactly
//!   on the accesses found in the top `a` entries of its set's stack
//!   (Mattson et al., IBM Systems Journal 1970; Hill & Smith, IEEE
//!   Transactions on Computers 1989). [`CacheSweep`] keeps one stack per
//!   distinct set count and derives every associativity's misses from the
//!   depth histogram, so Figure 4's twelve caches cost six set lookups.
//!
//! Caches and TLBs keep their tags in one flat array per model, MRU first
//! within each set, and reorder a set by rotating its slice. The unit
//! tests check every model against a plain `Vec`-per-set LRU reference,
//! access by access, on seeded streams and on real interpreter traces.
//!
//! # Example
//!
//! ```
//! use interp_archsim::{PipelineSim, StallCause};
//! use interp_core::{InsnKind, InsnRecord, TraceSink};
//!
//! let mut sim = PipelineSim::alpha_21064();
//! for i in 0..20_000u32 {
//!     sim.insn(InsnRecord::new(0x40_0000 + (i % 16) * 4, InsnKind::Alu));
//! }
//! let report = sim.report();
//! assert!(report.busy_fraction() > 0.9);
//! assert!(report.stall_fraction(StallCause::Imiss) < 0.05);
//! ```

pub mod branch;
pub mod cache;
pub mod config;
#[cfg(test)]
mod oracle;
pub mod pipeline;
pub mod sweep;
pub mod tlb;

pub use branch::{BranchUnit, Prediction};
pub use cache::Cache;
pub use config::SimConfig;
pub use pipeline::{PipelineReport, PipelineSim, StallCause};
pub use sweep::{CacheSweep, SweepPoint};
pub use tlb::Tlb;
