//! The instrumented simulated host machine.
//!
//! All four interpreters are written against this type's *primitives*: one
//! primitive call retires exactly one native instruction (byte accesses
//! retire two, matching an Alpha's load-plus-extract sequences), counts it,
//! and streams an [`InsnRecord`] to the attached [`TraceSink`]. This
//! substitutes for the paper's ATOM binary instrumentation: counts and
//! address traces *emerge* from the work the interpreters actually perform.
//!
//! Attribution is deferred. A primitive bumps only the instruction (and
//! load/store) counters; the split by phase, virtual command and
//! memory-model tag is settled in segments. Every change of attribution
//! state — phase, current command, outermost memory-model tag, pending
//! fetch/decode credit — first flushes the instructions retired since the
//! last change to the state they ran under, and so does every read of the
//! statistics. The counters come out exactly as if each instruction had
//! been attributed as it retired.

use interp_core::{CmdId, InsnKind, InsnRecord, Phase, RunStats, TraceSink};
use interp_guard::{GuardError, Limits};
use std::collections::VecDeque;

use crate::fs::FileSystem;
use crate::gfx::{Framebuffer, UiEvent};
use crate::heap::Heap;
use crate::layout::{CodeLayout, Frame, RoutineId};
use crate::mem::Memory;

/// A position inside a routine, used to model loop back-edges so that hot
/// loops replay the same instruction addresses every iteration (giving the
/// branch predictor and i-cache realistic behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    routine: RoutineId,
    off: u32,
}

/// Handles to the built-in "system" routines every simulated process links
/// against (allocator, block copy, syscall stubs, graphics library).
#[derive(Debug, Clone, Copy)]
pub struct SysRoutines {
    /// Memory allocator (`malloc`/`free`).
    pub alloc: RoutineId,
    /// Bulk copy/compare (`memcpy`, `memcmp`, string runtime).
    pub string: RoutineId,
    /// Hash-table runtime.
    pub hash: RoutineId,
    /// Kernel entry stub + buffer-cache copy path.
    pub syscall: RoutineId,
    /// Graphics runtime library (large footprint, like Xlib + Tk internals).
    pub gfx: RoutineId,
}

/// The simulated host machine. Generic over the trace consumer so counting
/// runs (with [`interp_core::NullSink`]) compile to an instruction-counter
/// bump per primitive plus one attribution flush per state change.
pub struct Machine<S: TraceSink> {
    pub(crate) mem: Memory,
    sink: S,
    stats: RunStats,
    layout: CodeLayout,
    /// The running routine's frame (the top of the call stack).
    frame: Frame,
    /// The callers' frames, outermost first.
    callers: Vec<Frame>,
    phase: Phase,
    phase_stack: Vec<Phase>,
    mem_model_depth: u32,
    cur_cmd: Option<CmdId>,
    pending_fd: u64,
    /// `stats.instructions` at the last attribution flush: the
    /// instructions after it all ran under the current attribution state.
    flushed: u64,
    pub(crate) heap: Heap,
    pub(crate) fs: FileSystem,
    pub(crate) console: Vec<u8>,
    pub(crate) gfx: Framebuffer,
    pub(crate) events: VecDeque<UiEvent>,
    sys: SysRoutines,
    limits: Limits,
    /// First guard violation observed (sticky until the run ends).
    pub(crate) guard_fault: Option<GuardError>,
    /// Total `malloc` calls, for deterministic allocation-fault injection.
    pub(crate) alloc_count: u64,
    /// If set, the 1-based allocation ordinal that fails (fault injection).
    pub(crate) alloc_fail_at: Option<u64>,
}

impl<S: TraceSink> std::fmt::Debug for Machine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("instructions", &self.stats.instructions)
            .field("commands", &self.stats.commands)
            .field("phase", &self.phase)
            .field("frames", &(self.callers.len() + 1))
            .finish()
    }
}

impl<S: TraceSink> Machine<S> {
    /// Create a machine whose instruction stream flows into `sink`.
    ///
    /// The machine starts inside an implicit `_start` routine with the
    /// current phase set to [`Phase::Startup`]; interpreters switch to
    /// [`Phase::FetchDecode`] when their dispatch loop begins.
    pub fn new(sink: S) -> Self {
        let mut layout = CodeLayout::new();
        let start = layout.routine("_start", 256);
        let sys = SysRoutines {
            alloc: layout.routine("sys_alloc", 1536),
            string: layout.routine("sys_string", 2048),
            hash: layout.routine("sys_hash", 1024),
            syscall: layout.routine("sys_syscall", 1024),
            gfx: layout.routine("sys_gfx", 24 * 1024),
        };
        let frame = Frame::new(&layout, start);
        Machine {
            mem: Memory::new(),
            sink,
            stats: RunStats::new(),
            layout,
            frame,
            callers: Vec::new(),
            phase: Phase::Startup,
            phase_stack: Vec::new(),
            mem_model_depth: 0,
            cur_cmd: None,
            pending_fd: 0,
            flushed: 0,
            heap: Heap::new(),
            fs: FileSystem::new(),
            console: Vec::new(),
            gfx: Framebuffer::new(),
            events: VecDeque::new(),
            sys,
            limits: Limits::unlimited(),
            guard_fault: None,
            alloc_count: 0,
            alloc_fail_at: None,
        }
    }

    /// Create a machine with resource caps. Interpreters poll
    /// [`Self::guard_check`] at their dispatch boundaries, so every cap in
    /// `limits` turns into a typed [`GuardError`] instead of a hang or a
    /// panic.
    pub fn with_limits(sink: S, limits: Limits) -> Self {
        let mut m = Self::new(sink);
        m.limits = limits;
        m
    }

    /// The resource caps this machine enforces.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Replace the resource caps (takes effect at the next check).
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// Fault injection: fail the `nth` (1-based) subsequent `malloc` with a
    /// sticky [`GuardError::OutOfMemory`].
    pub fn inject_alloc_failure(&mut self, nth: u64) {
        self.alloc_fail_at = Some(self.alloc_count + nth);
    }

    /// The first guard violation observed so far, if any. Sticky: once a
    /// fault is recorded the run is considered poisoned until it unwinds.
    pub fn guard_fault(&self) -> Option<&GuardError> {
        self.guard_fault.as_ref()
    }

    /// Record a guard violation (first one wins).
    pub(crate) fn set_guard_fault(&mut self, fault: GuardError) {
        self.guard_fault.get_or_insert(fault);
    }

    /// The per-dispatch guard poll: reports the sticky fault (heap cap,
    /// heap misuse, injected allocation failure) or a freshly-crossed
    /// command/host-step budget. Cheap — a few compares — so interpreters
    /// call it once per virtual command.
    pub fn guard_check(&mut self) -> Result<(), GuardError> {
        if let Some(fault) = &self.guard_fault {
            return Err(fault.clone());
        }
        if self.stats.instructions >= self.limits.max_host_steps {
            let fault = GuardError::HostStepBudget {
                executed: self.stats.instructions,
                cap: self.limits.max_host_steps,
            };
            self.guard_fault = Some(fault.clone());
            return Err(fault);
        }
        if self.stats.commands >= self.limits.max_commands {
            let fault = GuardError::CommandBudget {
                executed: self.stats.commands,
                cap: self.limits.max_commands,
            };
            self.guard_fault = Some(fault.clone());
            return Err(fault);
        }
        Ok(())
    }

    /// Handles to the built-in system routines.
    pub fn sys(&self) -> SysRoutines {
        self.sys
    }

    /// Register an interpreter routine of `size` bytes of text.
    pub fn routine_decl(&mut self, name: &str, size: u32) -> RoutineId {
        self.layout.routine(name, size)
    }

    /// The code layout (for reporting text footprints).
    pub fn layout(&self) -> &CodeLayout {
        &self.layout
    }

    /// Raw (uncharged) view of simulated memory, for loaders and tests.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Raw (uncharged) mutable view of simulated memory.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Statistics gathered so far (flushes the pending attribution
    /// segment first, so every counter is current).
    pub fn stats(&mut self) -> &RunStats {
        self.flush();
        &self.stats
    }

    /// Consume the machine, returning the final statistics and the sink.
    pub fn into_parts(mut self) -> (RunStats, S) {
        self.flush();
        (self.stats, self.sink)
    }

    /// Everything the program wrote to the console (fd 1).
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Take ownership of the console output, clearing it.
    pub fn take_console(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.console)
    }

    // ------------------------------------------------------------------
    // The instruction engine
    // ------------------------------------------------------------------

    /// Retire one instruction of `kind` at the current program counter.
    #[inline]
    fn step(&mut self, kind: InsnKind) {
        let pc = self.frame.pc();
        self.frame.advance();
        self.charge(InsnRecord { pc, kind });
    }

    /// Charge an instruction record directly (used by [`Self::raw_insn`] and
    /// control-flow helpers that compute their own pc). Counts it only:
    /// the next [`Self::flush`] attributes it.
    #[inline]
    fn charge(&mut self, rec: InsnRecord) {
        self.stats.instructions += 1;
        match rec.kind {
            InsnKind::Load { .. } => self.stats.count_load(),
            InsnKind::Store { .. } => self.stats.count_store(),
            _ => {}
        }
        self.sink.insn(rec);
    }

    /// Attribute the instructions retired since the last flush to the
    /// attribution state they ran under. Called before every change of
    /// that state and before every read of the statistics.
    #[inline]
    fn flush(&mut self) {
        let n = self.stats.instructions - self.flushed;
        if n == 0 {
            return;
        }
        self.flushed = self.stats.instructions;
        self.stats
            .attribute(self.phase, self.cur_cmd, self.mem_model_depth > 0, n);
        if self.cur_cmd.is_none() && self.phase == Phase::FetchDecode {
            self.pending_fd += n;
        }
    }

    /// Retire an externally-constructed instruction (used by the direct
    /// executor, whose program counters come from the compiled binary rather
    /// than the routine layout).
    #[inline]
    pub fn raw_insn(&mut self, rec: InsnRecord) {
        self.charge(rec);
    }

    /// One single-cycle ALU instruction.
    #[inline]
    pub fn alu(&mut self) {
        self.step(InsnKind::Alu);
    }

    /// `n` ALU instructions.
    #[inline]
    pub fn alu_n(&mut self, n: u32) {
        for _ in 0..n {
            self.step(InsnKind::Alu);
        }
    }

    /// One shift/byte instruction (2-cycle "short int" class on the 21064).
    #[inline]
    pub fn shift(&mut self) {
        self.step(InsnKind::ShortInt);
    }

    /// One integer multiply/divide (long latency).
    #[inline]
    pub fn mul(&mut self) {
        self.step(InsnKind::Mul);
    }

    /// One no-op (delay-slot filler).
    #[inline]
    pub fn nop(&mut self) {
        self.step(InsnKind::Nop);
    }

    /// Charged aligned word load.
    #[inline]
    pub fn lw(&mut self, addr: u32) -> u32 {
        self.step(InsnKind::Load { addr });
        self.mem.read_u32(addr)
    }

    /// Charged aligned word store.
    #[inline]
    pub fn sw(&mut self, addr: u32, val: u32) {
        self.step(InsnKind::Store { addr });
        self.mem.write_u32(addr, val);
    }

    /// Charged byte load: one load plus one extract (short-int) instruction,
    /// matching pre-BWX Alpha code.
    #[inline]
    pub fn lb(&mut self, addr: u32) -> u8 {
        self.step(InsnKind::Load { addr: addr & !3 });
        self.step(InsnKind::ShortInt);
        self.mem.read_u8(addr)
    }

    /// Charged byte store: load-modify (short-int) plus store.
    #[inline]
    pub fn sb(&mut self, addr: u32, val: u8) {
        self.step(InsnKind::ShortInt);
        self.step(InsnKind::Store { addr: addr & !3 });
        self.mem.write_u8(addr, val);
    }

    // ------------------------------------------------------------------
    // Control flow
    // ------------------------------------------------------------------

    /// A conditional forward branch (e.g. an `if` guard). If taken, skips
    /// four instructions' worth of text.
    #[inline]
    pub fn branch_fwd(&mut self, taken: bool) {
        let frame = &mut self.frame;
        let pc = frame.pc();
        frame.advance();
        let target = frame.base + (frame.pc_off + 16) % frame.size.max(4);
        if taken {
            frame.pc_off = target - frame.base;
        }
        self.charge(InsnRecord {
            pc,
            kind: InsnKind::Branch { target, taken },
        });
    }

    /// Capture the current position for a loop back-edge.
    pub fn here(&mut self) -> Label {
        Label {
            routine: self.frame.routine,
            off: self.frame.pc_off,
        }
    }

    /// The conditional back-edge of a loop: while `taken`, control returns
    /// to `label`, so every iteration replays the same instruction
    /// addresses.
    ///
    /// # Panics
    ///
    /// Panics if `label` was captured in a different routine.
    #[inline]
    pub fn loop_back(&mut self, label: Label, taken: bool) {
        let frame = &mut self.frame;
        assert_eq!(
            frame.routine, label.routine,
            "loop label crossed a routine boundary"
        );
        let pc = frame.pc();
        frame.advance();
        let target = frame.base + label.off;
        if taken {
            frame.pc_off = label.off;
        }
        self.charge(InsnRecord {
            pc,
            kind: InsnKind::Branch { target, taken },
        });
    }

    /// Run `f` inside routine `r`: charges the call, runs `f` with the pc
    /// walking `r`'s text, then charges the return.
    #[inline]
    pub fn routine<T>(&mut self, r: RoutineId, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(r);
        let out = f(self);
        self.leave();
        out
    }

    /// Explicit call (prefer [`Self::routine`]). Must be paired with
    /// [`Self::leave`].
    pub fn enter(&mut self, r: RoutineId) {
        let target = self.layout.base(r);
        let pc = self.frame.pc();
        self.frame.advance();
        self.charge(InsnRecord {
            pc,
            kind: InsnKind::Call { target },
        });
        let callee = Frame::new(&self.layout, r);
        self.callers
            .push(std::mem::replace(&mut self.frame, callee));
    }

    /// Explicit return from [`Self::enter`].
    ///
    /// # Panics
    ///
    /// Panics if only the root frame remains.
    pub fn leave(&mut self) {
        let caller = self.callers.pop().expect("cannot leave the root frame");
        let pc = self.frame.pc();
        self.frame = caller;
        self.charge(InsnRecord {
            pc,
            kind: InsnKind::Ret {
                target: caller.pc(),
            },
        });
    }

    // ------------------------------------------------------------------
    // Attribution
    // ------------------------------------------------------------------

    /// The current accounting phase.
    pub fn current_phase(&self) -> Phase {
        self.phase
    }

    /// Set the phase without nesting (dispatch loops toggle
    /// `FetchDecode`/`Execute` this way).
    pub fn set_phase(&mut self, phase: Phase) {
        self.flush();
        self.phase = phase;
    }

    /// Run `f` with the phase temporarily set to `phase`.
    #[inline]
    pub fn phase<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> T) -> T {
        self.flush();
        self.phase_stack.push(self.phase);
        self.phase = phase;
        let out = f(self);
        self.flush();
        self.phase = self.phase_stack.pop().expect("phase stack");
        out
    }

    /// Mark the dispatch of virtual command `cmd`. All fetch/decode
    /// instructions accumulated since the previous command ended are
    /// credited to `cmd`.
    pub fn begin_command(&mut self, cmd: CmdId) {
        self.flush();
        self.stats.begin_command(cmd);
        if self.pending_fd > 0 {
            self.stats.credit_fetch_decode(cmd, self.pending_fd);
            self.pending_fd = 0;
        }
        self.cur_cmd = Some(cmd);
    }

    /// Mark the end of the current virtual command (the dispatch loop is
    /// about to fetch the next one).
    pub fn end_command(&mut self) {
        self.flush();
        self.cur_cmd = None;
        self.pending_fd = 0;
    }

    /// Record one virtual command executed from a compiled trace
    /// (tiered dispatch). Uncharged bookkeeping: the trace's charged
    /// cost is whatever primitives its compiled body retires.
    #[inline]
    pub fn note_trace_command(&mut self) {
        self.stats.trace_commands += 1;
    }

    /// Record a trace guard failure that side-exited to the interpreter.
    #[inline]
    pub fn note_trace_side_exit(&mut self) {
        self.stats.trace_side_exits += 1;
    }

    /// Record one hot trace recorded and compiled.
    #[inline]
    pub fn note_trace_recorded(&mut self) {
        self.stats.traces_recorded += 1;
    }

    /// Record an aborted (and blacklisted) trace.
    #[inline]
    pub fn note_trace_abort(&mut self) {
        self.stats.trace_aborts += 1;
    }

    /// Run `f` as one virtual-machine-level memory-model access (§3.3):
    /// counts one access and tags every instruction inside as memory-model
    /// work.
    #[inline]
    pub fn mem_model<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        if self.mem_model_depth == 0 {
            self.flush();
            self.stats.count_mem_model_access();
        }
        self.mem_model_depth += 1;
        let out = f(self);
        if self.mem_model_depth == 1 {
            self.flush();
        }
        self.mem_model_depth -= 1;
        out
    }

    /// Post a synthetic UI event (used by workload drivers for the
    /// interactive benchmarks).
    pub fn post_event(&mut self, event: UiEvent) {
        self.events.push_back(event);
    }

    /// Number of UI events still queued.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp_core::{CommandSet, NullSink, VecSink};
    use interp_guard::Rng64;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn primitives_charge_one_instruction_each() {
        let mut m = Machine::new(NullSink);
        m.alu();
        m.shift();
        m.mul();
        m.nop();
        assert_eq!(m.stats().instructions, 4);
    }

    #[test]
    fn byte_ops_charge_two_instructions() {
        let mut m = Machine::new(NullSink);
        m.sb(0x1000, 7);
        assert_eq!(m.lb(0x1000), 7);
        assert_eq!(m.stats().instructions, 4);
        assert_eq!(m.stats().loads, 1);
        assert_eq!(m.stats().stores, 1);
    }

    #[test]
    fn word_roundtrip_charged() {
        let mut m = Machine::new(NullSink);
        m.sw(0x2000, 0xdead_beef);
        assert_eq!(m.lw(0x2000), 0xdead_beef);
        assert_eq!(m.stats().loads, 1);
        assert_eq!(m.stats().stores, 1);
    }

    #[test]
    fn loop_back_replays_addresses() {
        let mut m = Machine::new(VecSink::default());
        let r = m.routine_decl("loop", 256);
        m.routine(r, |m| {
            let head = m.here();
            for i in 0..3 {
                m.alu();
                m.loop_back(head, i < 2);
            }
        });
        let (_, sink) = m.into_parts();
        // call + 3*(alu + branch) + ret
        assert_eq!(sink.trace.len(), 8);
        // The alu of iterations 2 and 3 replays iteration 1's pc.
        assert_eq!(sink.trace[1].pc, sink.trace[3].pc);
        assert_eq!(sink.trace[3].pc, sink.trace[5].pc);
    }

    #[test]
    fn routine_emits_call_and_ret() {
        let mut m = Machine::new(VecSink::default());
        let r = m.routine_decl("callee", 64);
        let base = m.layout().base(r);
        m.routine(r, |m| m.alu());
        let (_, sink) = m.into_parts();
        assert!(matches!(sink.trace[0].kind, InsnKind::Call { target } if target == base));
        assert_eq!(sink.trace[1].pc, base);
        assert!(matches!(sink.trace[2].kind, InsnKind::Ret { .. }));
    }

    #[test]
    #[should_panic(expected = "root frame")]
    fn leaving_root_frame_panics() {
        let mut m = Machine::new(NullSink);
        m.leave();
    }

    #[test]
    fn phase_nesting_restores() {
        let mut m = Machine::new(NullSink);
        m.set_phase(Phase::Execute);
        m.phase(Phase::Native, |m| {
            m.alu();
            assert_eq!(m.current_phase(), Phase::Native);
        });
        assert_eq!(m.current_phase(), Phase::Execute);
        assert_eq!(m.stats().phase_instructions(Phase::Native), 1);
    }

    #[test]
    fn pending_fetch_decode_credits_next_command() {
        let mut cmds = CommandSet::new("t");
        let cmd = cmds.intern("add");
        let mut m = Machine::new(NullSink);
        m.set_phase(Phase::FetchDecode);
        m.end_command();
        m.alu_n(5); // decode work before the command is known
        m.begin_command(cmd);
        m.set_phase(Phase::Execute);
        m.alu_n(3);
        let stats = m.stats();
        let c = stats.command(cmd);
        assert_eq!(c.fetch_decode, 5);
        assert_eq!(c.execute, 3);
    }

    #[test]
    fn mem_model_counts_accesses_and_instructions() {
        let mut m = Machine::new(NullSink);
        m.set_phase(Phase::Execute);
        m.mem_model(|m| {
            m.alu_n(4);
            m.mem_model(|m| m.alu()); // nested: still one access
        });
        assert_eq!(m.stats().mem_model_accesses, 1);
        assert_eq!(m.stats().mem_model_instructions, 5);
    }

    #[test]
    fn branch_fwd_taken_skips_text() -> Result<(), GuardError> {
        let mut m = Machine::new(VecSink::default());
        let r = m.routine_decl("br", 4096);
        m.routine(r, |m| {
            m.branch_fwd(true);
            m.alu();
        });
        let (_, sink) = m.into_parts();
        let InsnKind::Branch { target, taken } = sink.trace[1].kind else {
            return Err(GuardError::TraceMismatch { expected: "branch" });
        };
        assert!(taken);
        assert_eq!(sink.trace[2].pc, target);
        Ok(())
    }

    #[test]
    fn guard_check_trips_host_step_budget() {
        let mut m =
            Machine::with_limits(NullSink, Limits::unlimited().with_max_host_steps(10));
        assert!(m.guard_check().is_ok());
        m.alu_n(10);
        let err = m.guard_check().expect_err("budget crossed");
        assert!(matches!(err, GuardError::HostStepBudget { executed: 10, cap: 10 }));
        // Sticky: still tripped on the next poll.
        assert!(m.guard_check().is_err());
    }

    #[test]
    fn guard_check_trips_command_budget_within_one() {
        let mut cmds = CommandSet::new("t");
        let cmd = cmds.intern("add");
        let mut m = Machine::with_limits(NullSink, Limits::unlimited().with_max_commands(3));
        for i in 0..3 {
            assert!(m.guard_check().is_ok(), "command {i} within budget");
            m.begin_command(cmd);
            m.alu();
            m.end_command();
        }
        let err = m.guard_check().expect_err("budget crossed");
        assert!(matches!(err, GuardError::CommandBudget { executed: 3, cap: 3 }));
    }

    /// The per-instruction attributor deferred attribution replaced:
    /// each retired instruction is attributed the moment it retires,
    /// under an attribution state the test driver mirrors from the calls
    /// it makes on the machine. It is the machine's sink, so it sees
    /// exactly the instructions the machine retires.
    struct Reference {
        stats: RunStats,
        phase: Phase,
        phase_stack: Vec<Phase>,
        mem_model_depth: u32,
        cur_cmd: Option<CmdId>,
        pending_fd: u64,
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                stats: RunStats::new(),
                phase: Phase::Startup,
                phase_stack: Vec::new(),
                mem_model_depth: 0,
                cur_cmd: None,
                pending_fd: 0,
            }
        }

        fn begin_command(&mut self, cmd: CmdId) {
            self.stats.begin_command(cmd);
            if self.pending_fd > 0 {
                self.stats.credit_fetch_decode(cmd, self.pending_fd);
                self.pending_fd = 0;
            }
            self.cur_cmd = Some(cmd);
        }

        fn end_command(&mut self) {
            self.cur_cmd = None;
            self.pending_fd = 0;
        }
    }

    struct ReferenceSink(Rc<RefCell<Reference>>);

    impl TraceSink for ReferenceSink {
        fn insn(&mut self, rec: InsnRecord) {
            let r = &mut *self.0.borrow_mut();
            r.stats.instructions += 1;
            r.stats
                .attribute(r.phase, r.cur_cmd, r.mem_model_depth > 0, 1);
            if r.cur_cmd.is_none() && r.phase == Phase::FetchDecode {
                r.pending_fd += 1;
            }
            match rec.kind {
                InsnKind::Load { .. } => r.stats.count_load(),
                InsnKind::Store { .. } => r.stats.count_store(),
                _ => {}
            }
        }
    }

    fn encoded(stats: &RunStats) -> Vec<u8> {
        let mut w = interp_core::serial::ByteWriter::new();
        stats.encode_into(&mut w);
        w.into_bytes()
    }

    /// Every counter of the machine's statistics equals the reference's,
    /// including the pending fetch/decode credit not yet handed to a
    /// command.
    fn assert_matches(m: &mut Machine<ReferenceSink>, r: &Rc<RefCell<Reference>>, at: &str) {
        let got = m.stats().clone();
        let r = r.borrow();
        let want = &r.stats;
        assert_eq!(got.instructions, want.instructions, "{at}: instructions");
        for p in Phase::ALL {
            assert_eq!(
                got.phase_instructions(p),
                want.phase_instructions(p),
                "{at}: {p:?}"
            );
        }
        assert_eq!(
            got.mem_model_instructions, want.mem_model_instructions,
            "{at}: mem-model"
        );
        assert_eq!(
            got.mem_model_accesses, want.mem_model_accesses,
            "{at}: accesses"
        );
        assert_eq!(got.commands, want.commands, "{at}: commands");
        assert_eq!(
            (got.loads, got.stores),
            (want.loads, want.stores),
            "{at}: loads/stores"
        );
        assert_eq!(
            got.commands_iter().collect::<Vec<_>>(),
            want.commands_iter().collect::<Vec<_>>(),
            "{at}: per-command counters"
        );
        assert_eq!(m.pending_fd, r.pending_fd, "{at}: pending fetch/decode");
        // Byte for byte, which also pins the per-command table's length.
        assert_eq!(encoded(&got), encoded(want), "{at}: encoding");
    }

    const PHASES: [Phase; 4] = [
        Phase::Startup,
        Phase::FetchDecode,
        Phase::Execute,
        Phase::Native,
    ];

    /// Drive `steps` random operations into the machine, mirroring each
    /// attribution-state change into the reference. Nested `phase`,
    /// `mem_model` and `routine` scopes recurse up to depth 4.
    fn drive(
        m: &mut Machine<ReferenceSink>,
        r: &Rc<RefCell<Reference>>,
        rng: &mut Rng64,
        cmds: &[CmdId],
        routines: &[RoutineId],
        depth: u32,
        steps: usize,
    ) {
        for step in 0..steps {
            let addr = 0x4000 + (rng.range(0, 64) as u32) * 4;
            match rng.index(0, 16) {
                0 => m.alu_n(rng.range(1, 6) as u32),
                1 => {
                    m.shift();
                    m.mul();
                    m.nop();
                }
                2 => {
                    m.sw(addr, step as u32);
                    m.lw(addr);
                }
                3 => {
                    m.sb(addr + 1, step as u8);
                    m.lb(addr + 1);
                }
                4 => m.branch_fwd(rng.chance(1, 2)),
                5 => {
                    let kind = *rng.pick(&[
                        InsnKind::Alu,
                        InsnKind::Load { addr },
                        InsnKind::Store { addr },
                    ]);
                    m.raw_insn(InsnRecord {
                        pc: 0x0001_0000 + addr,
                        kind,
                    });
                }
                6 => {
                    let head = m.here();
                    m.alu();
                    m.loop_back(head, rng.chance(1, 2));
                }
                7 | 8 => {
                    let phase = *rng.pick(&PHASES);
                    r.borrow_mut().phase = phase;
                    m.set_phase(phase);
                }
                9 => {
                    let cmd = *rng.pick(cmds);
                    r.borrow_mut().begin_command(cmd);
                    m.begin_command(cmd);
                }
                10 => {
                    r.borrow_mut().end_command();
                    m.end_command();
                }
                11 if depth < 4 => {
                    let phase = *rng.pick(&PHASES);
                    {
                        let mut r = r.borrow_mut();
                        let outer = r.phase;
                        r.phase_stack.push(outer);
                        r.phase = phase;
                    }
                    let inner = rng.index(0, 12);
                    m.phase(phase, |m| {
                        drive(m, r, rng, cmds, routines, depth + 1, inner)
                    });
                    let mut r = r.borrow_mut();
                    r.phase = r.phase_stack.pop().expect("mirrored phase stack");
                }
                12 if depth < 4 => {
                    {
                        let mut r = r.borrow_mut();
                        if r.mem_model_depth == 0 {
                            r.stats.count_mem_model_access();
                        }
                        r.mem_model_depth += 1;
                    }
                    let inner = rng.index(0, 12);
                    m.mem_model(|m| drive(m, r, rng, cmds, routines, depth + 1, inner));
                    r.borrow_mut().mem_model_depth -= 1;
                }
                13 if depth < 4 => {
                    let routine = *rng.pick(routines);
                    let inner = rng.index(0, 12);
                    m.routine(routine, |m| {
                        drive(m, r, rng, cmds, routines, depth + 1, inner);
                    });
                }
                14 => assert_matches(m, r, &format!("mid-stream, depth {depth} step {step}")),
                _ => m.alu(),
            }
        }
    }

    #[test]
    fn deferred_attribution_matches_per_instruction_reference() {
        for seed in 0..64 {
            let mut rng = Rng64::new(0xa77_0000 + seed);
            let reference = Rc::new(RefCell::new(Reference::new()));
            let mut m = Machine::new(ReferenceSink(Rc::clone(&reference)));
            let mut names = CommandSet::new("oracle");
            let cmds: Vec<CmdId> = (0..rng.range(1, 12))
                .map(|i| names.intern(&format!("c{i}")))
                .collect();
            let routines: Vec<RoutineId> = (0..3)
                .map(|i| m.routine_decl(&format!("r{i}"), 64 << i))
                .collect();
            drive(&mut m, &reference, &mut rng, &cmds, &routines, 0, 300);
            assert_matches(&mut m, &reference, &format!("seed {seed}, end"));
            let (stats, _) = m.into_parts();
            assert_eq!(
                encoded(&stats),
                encoded(&reference.borrow().stats),
                "seed {seed}: into_parts"
            );
        }
    }

    #[test]
    fn unlimited_machine_never_trips() {
        let mut m = Machine::new(NullSink);
        m.alu_n(10_000);
        assert!(m.guard_check().is_ok());
        assert!(m.guard_fault().is_none());
    }
}
