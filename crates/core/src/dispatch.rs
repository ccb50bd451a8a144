//! The dispatch-strategy axis: *how* an interpreter fetches, decodes,
//! and transfers control to its next virtual command.
//!
//! The paper characterizes naive interpreters — switch-dispatched
//! MIPSI and Javelin, the op-tree-walking Perlite, the string-reparsing
//! Tclite — and finds fetch/decode cost dominated by dispatch structure
//! (Tables 1–2, Figures 1–4). Its §5 points at the classic remedies:
//! threaded dispatch, superinstructions, inline caches. This module
//! makes the remedy a first-class, typed [`RunRequest`](crate::RunRequest)
//! axis so the harness can render before/after paper tables instead of
//! burying the comparison in a bespoke ablation.
//!
//! A [`DispatchStrategy`] names one tier; the [`Dispatch`] trait is the
//! single vocabulary all four interpreter engines implement strategies
//! against — one `set_strategy` seam instead of four ad-hoc knobs. The
//! seam's first post-paper tier is [`DispatchStrategy::Tiered`], the
//! trace-recording stage the Javelin engine implements; a register
//! machine would slot in the same way.
//! Strategies never change semantics: an engine runs the same virtual
//! commands in the same order with the same observable output, and only
//! the *charged host instructions* of the fetch/decode path shrink. The
//! conformance engine enforces this by running every strategy as an
//! additional witness.

use crate::Language;

/// One dispatch tier. Ordered from the paper's baseline outward, so the
/// derived `Ord` puts `Naive` first in any sorted plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DispatchStrategy {
    /// The paper's baseline: central switch dispatch (MIPSI, Javelin),
    /// op-tree walk (Perlite), string re-parse + hash lookup (Tclite).
    #[default]
    Naive,
    /// Token-threaded dispatch: each handler jumps through a
    /// function-pointer table directly to the next, eliminating the
    /// central dispatch branch and its range check.
    Threaded,
    /// Threaded dispatch plus fused handlers for the dominant
    /// consecutive command pairs (the pairs Figures 1–2 identify), so
    /// the second command of a fused pair skips its own fetch/decode.
    Superinstr,
    /// Inline caching of the name-to-slot translations the high-level
    /// interpreters redo per access: Perlite hash lookups, Tclite
    /// symbol-table and command-table resolution.
    InlineCache,
    /// Trace-recording tiered execution: a threaded baseline whose
    /// per-backedge hotness counters trigger trace recording at loop
    /// heads; recorded bytecode traces run as straight-line compiled
    /// sequences with a guard at every side exit, re-entering the
    /// interpreter on guard failure or trace exit.
    Tiered,
}

impl DispatchStrategy {
    /// Every strategy, in canonical (render and plan) order.
    pub const ALL: [DispatchStrategy; 5] = [
        DispatchStrategy::Naive,
        DispatchStrategy::Threaded,
        DispatchStrategy::Superinstr,
        DispatchStrategy::InlineCache,
        DispatchStrategy::Tiered,
    ];

    /// CLI-style label (`naive` / `threaded` / `superinstr` /
    /// `inline-cache` / `tiered`).
    pub fn label(self) -> &'static str {
        match self {
            DispatchStrategy::Naive => "naive",
            DispatchStrategy::Threaded => "threaded",
            DispatchStrategy::Superinstr => "superinstr",
            DispatchStrategy::InlineCache => "inline-cache",
            DispatchStrategy::Tiered => "tiered",
        }
    }

    /// Parse a CLI-style label. `default` and `all` are selection
    /// keywords, not strategies — see [`DispatchSelection::parse`].
    pub fn parse(s: &str) -> Option<DispatchStrategy> {
        DispatchStrategy::ALL.into_iter().find(|d| d.label() == s)
    }

    /// The strategies `language`'s engine natively implements, in
    /// canonical order. Always starts with `Naive`. Compiled C executes
    /// directly — it has no dispatch loop to optimize.
    pub fn supported_by(language: Language) -> &'static [DispatchStrategy] {
        match language {
            Language::C => &[DispatchStrategy::Naive],
            Language::Mipsi => &[
                DispatchStrategy::Naive,
                DispatchStrategy::Threaded,
                DispatchStrategy::Superinstr,
            ],
            Language::Javelin => &[
                DispatchStrategy::Naive,
                DispatchStrategy::Threaded,
                DispatchStrategy::Superinstr,
                DispatchStrategy::Tiered,
            ],
            Language::Perlite | Language::Tclite => {
                &[DispatchStrategy::Naive, DispatchStrategy::InlineCache]
            }
        }
    }

    /// The `default` alias per interpreter: the fastest tier the engine
    /// implements, which is what a production build of each interpreter
    /// would ship with.
    pub fn default_for(language: Language) -> DispatchStrategy {
        *DispatchStrategy::supported_by(language)
            .last()
            .unwrap_or(&DispatchStrategy::Naive)
    }

    /// Clamp this strategy to what `language`'s engine implements:
    /// unsupported tiers fall back to the naive path (same charging, so
    /// a clamped run is indistinguishable from a naive one).
    pub fn effective_for(self, language: Language) -> DispatchStrategy {
        if DispatchStrategy::supported_by(language).contains(&self) {
            self
        } else {
            DispatchStrategy::Naive
        }
    }
}

impl std::fmt::Display for DispatchStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A parsed `--dispatch` selection: which strategies a sweep should
/// cover, with the `default` keyword resolving per interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchSelection {
    /// Explicitly named strategies, canonical order, deduplicated.
    strategies: Vec<DispatchStrategy>,
    /// `default` appeared: include each language's default tier.
    default_alias: bool,
}

impl DispatchSelection {
    /// Every strategy — the `--dispatch all` selection and the planner's
    /// default for the dispatch experiment family.
    pub fn all() -> Self {
        DispatchSelection {
            strategies: DispatchStrategy::ALL.to_vec(),
            default_alias: false,
        }
    }

    /// Only the paper's baseline — what `repro conform` sweeps when no
    /// `--dispatch` is given (the classic six-witness table).
    pub fn naive_only() -> Self {
        DispatchSelection {
            strategies: vec![DispatchStrategy::Naive],
            default_alias: false,
        }
    }

    /// Parse a comma-separated `--dispatch` value. Each element is a
    /// strategy label, `default` (each interpreter's fastest tier), or
    /// `all`. Unknown elements return `None` — the CLI rejects them with
    /// a usage error, exactly like `--scale`.
    pub fn parse(s: &str) -> Option<DispatchSelection> {
        let mut strategies = Vec::new();
        let mut default_alias = false;
        let mut saw_any = false;
        for tok in s.split(',').filter(|t| !t.is_empty()) {
            saw_any = true;
            match tok {
                "all" => strategies.extend(DispatchStrategy::ALL),
                "default" => default_alias = true,
                other => strategies.push(DispatchStrategy::parse(other)?),
            }
        }
        if !saw_any {
            return None;
        }
        strategies.sort_unstable();
        strategies.dedup();
        Some(DispatchSelection {
            strategies,
            default_alias,
        })
    }

    /// The selected strategies `language`'s engine actually implements,
    /// canonical order, deduplicated: the explicit picks intersected
    /// with the engine's supported set, plus the engine's default tier
    /// when the selection said `default`.
    pub fn for_language(&self, language: Language) -> Vec<DispatchStrategy> {
        let supported = DispatchStrategy::supported_by(language);
        let mut out: Vec<DispatchStrategy> = supported
            .iter()
            .copied()
            .filter(|d| {
                self.strategies.contains(d)
                    || (self.default_alias && *d == DispatchStrategy::default_for(language))
            })
            .collect();
        if out.is_empty() {
            // A selection that names no tier the engine implements still
            // measures the engine once, on its naive path.
            out.push(DispatchStrategy::Naive);
        }
        out
    }

    /// Compact display form for `repro list` and usage text.
    pub fn label(&self) -> String {
        let mut parts: Vec<&str> = self.strategies.iter().map(|d| d.label()).collect();
        if self.default_alias {
            parts.push("default");
        }
        parts.join(",")
    }
}

impl Default for DispatchSelection {
    fn default() -> Self {
        DispatchSelection::all()
    }
}

/// A deterministic, test-only bug injected *into a dispatch tier* — the
/// conformance engine's proof that strategy witnesses really guard the
/// fast paths: a fault in one threaded handler must surface as
/// divergence isolated to exactly the witness pairs involving that
/// engine+tier, while the naive witnesses stay green.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DispatchFault {
    /// No fault (production behavior).
    #[default]
    None,
    /// The threaded tier's subtract handler swaps its operands
    /// (`b - a` instead of `a - b`). Only engines with a threaded tier
    /// honor it, and only when running `Threaded`.
    ThreadedSubSwap,
    /// The tiered tier miscompiles the first failing trace guard to
    /// fall through: the first time a running trace's guard observes a
    /// branch direction different from the recorded one, execution
    /// follows the *recorded* path instead of side-exiting (one-shot, so
    /// the run still terminates — with visibly wrong output). Only
    /// engines with a `Tiered` tier honor it, and only when running
    /// `Tiered`.
    TraceGuardSkip,
    /// A spurious trace-guard trip: the `n`th guard evaluation inside a
    /// running trace reports failure even though the recorded direction
    /// matched. The engine must abort the trace, blacklist it, and fall
    /// back to the interpreter at the exact bytecode where the trip
    /// fired — output stays byte-identical to a never-tiered run. The
    /// journal-chaos harness drives this lane.
    TraceGuardTrip {
        /// 1-based ordinal of the in-trace guard evaluation that trips.
        after: u32,
    },
}

/// The per-interpreter dispatch surface: one vocabulary for selecting
/// how an engine executes its next virtual command. All four
/// interpreter engines implement this, so the planner, the conformance
/// engine, and future tiers (register machine, trace JIT) configure
/// dispatch through a single seam instead of four ad-hoc knobs.
pub trait Dispatch {
    /// The strategies this engine natively implements, canonical order.
    fn supported(&self) -> &'static [DispatchStrategy];

    /// The strategy currently driving the fetch/decode path.
    fn strategy(&self) -> DispatchStrategy;

    /// Select `strategy` for subsequent commands, clamping to
    /// [`DispatchStrategy::Naive`] when this engine does not implement
    /// it (the clamp is charged identically to naive, so clamped runs
    /// dedup against naive ones at the measurement level).
    fn set_strategy(&mut self, strategy: DispatchStrategy);

    /// Are consecutive virtual commands `prev`,`cur` fused into one
    /// superinstruction handler under the current strategy? Engines
    /// with a `Superinstr` tier override this with their dominant-pair
    /// table; everyone else never fuses.
    fn fuses(&self, _prev: &str, _cur: &str) -> bool {
        false
    }

    /// Inject a deterministic dispatch-tier bug (conformance testing
    /// only — production callers never invoke this). Engines without
    /// the faulted tier ignore it.
    fn inject_fault(&mut self, _fault: DispatchFault) {}
}

/// A superinstruction pair list as a table over dense opcode indices
/// `0..N`, where `name(i)` is opcode `i`'s command name: bit `cur` of
/// entry `prev` is set iff `(name(prev), name(cur))` is in `pairs`. The
/// dispatch loop then tests a fusion with a shift instead of a string
/// scan.
///
/// # Panics
///
/// Panics if `N > 64` (a row is one `u64`).
pub fn fused_pair_table<const N: usize>(
    name: impl Fn(usize) -> &'static str,
    pairs: &[(&str, &str)],
) -> [u64; N] {
    assert!(N <= 64, "{N} opcodes do not fit a u64 row");
    let mut table = [0u64; N];
    for &(first, second) in pairs {
        for prev in (0..N).filter(|&i| name(i) == first) {
            for cur in (0..N).filter(|&i| name(i) == second) {
                table[prev] |= 1 << cur;
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_pair_table_sets_every_opcode_of_each_named_pair() {
        // Opcodes 1 and 2 share a name, as grouped bytecodes do.
        let names = ["lit", "load", "load", "add"];
        let pairs = [("load", "add"), ("lit", "load")];
        let table: [u64; 4] = fused_pair_table(|i| names[i], &pairs);
        assert_eq!(table, [0b0110, 0b1000, 0b1000, 0]);
    }

    #[test]
    fn labels_round_trip() {
        for d in DispatchStrategy::ALL {
            assert_eq!(DispatchStrategy::parse(d.label()), Some(d));
        }
        assert_eq!(DispatchStrategy::parse("jit"), None);
        assert_eq!(DispatchStrategy::parse("default"), None, "selection keyword");
        assert_eq!(DispatchStrategy::parse("all"), None, "selection keyword");
    }

    #[test]
    fn every_language_supports_naive_first() {
        for lang in Language::ALL {
            let s = DispatchStrategy::supported_by(lang);
            assert_eq!(s.first(), Some(&DispatchStrategy::Naive), "{lang}");
            let mut sorted = s.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, s, "{lang}: supported set not canonical");
        }
    }

    #[test]
    fn defaults_are_the_fastest_supported_tier() {
        assert_eq!(
            DispatchStrategy::default_for(Language::C),
            DispatchStrategy::Naive
        );
        assert_eq!(
            DispatchStrategy::default_for(Language::Mipsi),
            DispatchStrategy::Superinstr
        );
        assert_eq!(
            DispatchStrategy::default_for(Language::Javelin),
            DispatchStrategy::Tiered
        );
        assert_eq!(
            DispatchStrategy::default_for(Language::Perlite),
            DispatchStrategy::InlineCache
        );
        assert_eq!(
            DispatchStrategy::default_for(Language::Tclite),
            DispatchStrategy::InlineCache
        );
    }

    #[test]
    fn effective_clamps_to_naive() {
        assert_eq!(
            DispatchStrategy::InlineCache.effective_for(Language::Mipsi),
            DispatchStrategy::Naive
        );
        assert_eq!(
            DispatchStrategy::Threaded.effective_for(Language::Perlite),
            DispatchStrategy::Naive
        );
        assert_eq!(
            DispatchStrategy::Threaded.effective_for(Language::Javelin),
            DispatchStrategy::Threaded
        );
        assert_eq!(
            DispatchStrategy::Tiered.effective_for(Language::Javelin),
            DispatchStrategy::Tiered
        );
        assert_eq!(
            DispatchStrategy::Tiered.effective_for(Language::Mipsi),
            DispatchStrategy::Naive
        );
    }

    #[test]
    fn selection_parses_like_scale() {
        let all = DispatchSelection::parse("all").expect("all parses");
        assert_eq!(all, DispatchSelection::all());
        let pair = DispatchSelection::parse("naive,threaded").expect("parses");
        assert_eq!(
            pair.for_language(Language::Mipsi),
            vec![DispatchStrategy::Naive, DispatchStrategy::Threaded]
        );
        // Strict rejection, exactly like --scale.
        assert_eq!(DispatchSelection::parse("naive,bogus"), None);
        assert_eq!(DispatchSelection::parse(""), None);
        assert_eq!(DispatchSelection::parse(",,"), None);
    }

    #[test]
    fn default_keyword_resolves_per_language() {
        let sel = DispatchSelection::parse("default").expect("parses");
        assert_eq!(
            sel.for_language(Language::Mipsi),
            vec![DispatchStrategy::Superinstr]
        );
        assert_eq!(
            sel.for_language(Language::Tclite),
            vec![DispatchStrategy::InlineCache]
        );
        assert_eq!(
            sel.for_language(Language::C),
            vec![DispatchStrategy::Naive],
            "no fast tier: still measured once, naively"
        );
    }

    #[test]
    fn selection_intersects_with_supported() {
        let sel = DispatchSelection::parse("inline-cache").expect("parses");
        assert_eq!(
            sel.for_language(Language::Perlite),
            vec![DispatchStrategy::InlineCache]
        );
        assert_eq!(
            sel.for_language(Language::Mipsi),
            vec![DispatchStrategy::Naive],
            "unsupported-only selection clamps to one naive run"
        );
    }
}
