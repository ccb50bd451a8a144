//! Shared vocabulary for the reproduction of *The Structure and Performance
//! of Interpreters* (Romer et al., ASPLOS 1996).
//!
//! This crate defines the measurement model that every other crate in the
//! workspace speaks:
//!
//! * [`InsnRecord`] / [`InsnKind`] — one retired native instruction, exactly
//!   what the paper's ATOM instrumentation produced per instruction.
//! * [`TraceSink`] — a consumer of the instruction stream. The timing
//!   simulator (`interp-archsim`) is a sink; so are the cheap counting sinks
//!   defined here.
//! * [`Phase`] — the paper's attribution of every native instruction to
//!   *fetch/decode*, *execute*, *native-library*, or *startup
//!   (precompilation)* work.
//! * [`CommandSet`] / [`CmdId`] — interned virtual-command names, so each
//!   interpreter can report per-command instruction histograms (Figures 1–2).
//! * [`RunStats`] — the aggregate counters behind every row of Table 2 and
//!   every bar of Figure 2.
//! * [`WorkloadId`] / [`RunRequest`] — the typed workload vocabulary: which
//!   program, at which [`Scale`], measured through which [`SinkKind`]. The
//!   run-plan engine deduplicates requests across experiments.
//! * [`RunArtifact`] — the memoizable, sink-independent result of one run
//!   (counters, command names, console digest, cycle summary, sweep points)
//!   that every table and figure consumes instead of re-running workloads.
//!
//! # Example
//!
//! ```
//! use interp_core::{CommandSet, CountingSink, InsnKind, InsnRecord, TraceSink};
//!
//! let mut cmds = CommandSet::new("demo");
//! let add = cmds.intern("add");
//! assert_eq!(cmds.name(add), "add");
//!
//! let mut sink = CountingSink::default();
//! sink.insn(InsnRecord { pc: 0x40_0000, kind: InsnKind::Alu });
//! assert_eq!(sink.instructions, 1);
//! ```

pub mod artifact;
pub mod command;
pub mod dispatch;
pub mod insn;
pub mod phase;
pub mod profile;
pub mod serial;
pub mod sink;
pub mod stats;
pub mod workload;

pub use artifact::{ConsoleDigest, CycleSummary, RunArtifact, StallShare, SweepPointSummary};
pub use command::{CmdId, CommandSet};
pub use dispatch::{
    fused_pair_table, Dispatch, DispatchFault, DispatchSelection, DispatchStrategy,
};
pub use insn::{InsnKind, InsnRecord};
pub use phase::Phase;
pub use profile::{CommandProfile, CumulativePoint, HistogramRow};
pub use serial::{ByteReader, ByteWriter, DecodeError};
pub use sink::{CountingSink, NullSink, TeeSink, TraceSink, VecSink};
pub use stats::{CmdStats, RunStats};
pub use workload::{RunRequest, Scale, SinkKind, WorkloadId, WorkloadKind};

/// The four interpreters the paper studies, plus the compiled-C reference.
///
/// Used by the workload registry and the harness to label rows exactly the
/// way Table 2 does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Language {
    /// Programs compiled to the MIPS-subset ISA and executed directly
    /// (the paper's native Alpha runs).
    C,
    /// The MIPS R3000 binary emulator (low-level virtual machine).
    Mipsi,
    /// The Java-analog stack bytecode VM (low-level VM + native libraries).
    Javelin,
    /// The Perl-analog op-tree interpreter (high-level VM, precompiled).
    Perlite,
    /// The Tcl-analog direct string interpreter (highest-level VM).
    Tclite,
}

impl Language {
    /// All languages in the order the paper's Table 2 lists them.
    pub const ALL: [Language; 5] = [
        Language::C,
        Language::Mipsi,
        Language::Javelin,
        Language::Perlite,
        Language::Tclite,
    ];

    /// Paper-style display name.
    pub fn label(self) -> &'static str {
        match self {
            Language::C => "C",
            Language::Mipsi => "MIPSI",
            Language::Javelin => "Java (javelin)",
            Language::Perlite => "Perl (perlite)",
            Language::Tclite => "Tcl (tclite)",
        }
    }

    /// Short lowercase tag (`c`, `mipsi`, …) for CLI labels and error
    /// messages.
    pub fn tag(self) -> &'static str {
        match self {
            Language::C => "c",
            Language::Mipsi => "mipsi",
            Language::Javelin => "javelin",
            Language::Perlite => "perlite",
            Language::Tclite => "tclite",
        }
    }
}

impl std::fmt::Display for Language {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn language_labels_are_distinct() {
        let mut labels: Vec<_> = Language::ALL.iter().map(|l| l.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Language::ALL.len());
    }

    #[test]
    fn language_display_matches_label() {
        for lang in Language::ALL {
            assert_eq!(lang.to_string(), lang.label());
        }
    }
}
