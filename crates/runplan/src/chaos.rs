//! Chaos execution: run a whole plan under seeded fault injection aimed
//! at *both* layers — the interpreters (guest corruption through the
//! guarded runner) and the pool itself (worker stalls, artifact drops,
//! worker panics) — and prove the suite still completes with
//! deterministic degradation markers.
//!
//! Every injection decision is a pure function of `(seed, request,
//! attempt)`, never of the worker that picked the run up, so a chaos run
//! at `--jobs 1` and `--jobs 8` degrades the same slots with the same
//! markers. That property is what `repro chaos --seeds N` asserts.

use crate::journal::{
    self, JournalConfig, JournalDefectKind, JournalError, JournalErrorKind, ResumeReport,
    JOURNAL_FILE,
};
use crate::lock::{CLAIMS_DIR, LOCK_FILE, WRITERS_DIR};
use crate::plan::Plan;
use crate::pool::{self, supervise_with, ExecutedPlan};
use crate::supervise::{FailureKind, RunFailure, SuperviseConfig};
use interp_core::{
    DispatchFault, DispatchStrategy, Language, NullSink, RunArtifact, RunRequest, RunStats,
    Scale, WorkloadId, WorkloadKind,
};
use interp_guard::{FaultPlan, Limits, Rng64, RunOutcome};
use interp_workloads::{run_guarded, try_run_source_dispatch};
use std::collections::BTreeMap;
use std::path::Path;

/// Stream-splitting constant so chaos lane rolls are decorrelated from
/// the guest-corruption streams derived from the same seed.
const CHAOS_STREAM: u64 = 0xC4A0_5F00_1157_EED5;

/// Stream-splitting constant for journal-corruption rolls.
const JOURNAL_STREAM: u64 = 0x10AD_BEEF_0C0F_FEE5;

/// Fuel a stalled worker is allowed to burn: far below any real
/// workload's cost, so the stall deterministically trips the fuel
/// deadline instead of finishing.
const STALL_FUEL: u64 = 1_000;

/// Which injection a chaos run applies to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosLane {
    /// No injection — the run executes normally.
    Clean,
    /// Guest corruption on attempt 0 only; the retry runs clean and
    /// recovers. Exercises the transient-retry path end to end.
    FlakyGuestFault,
    /// Guest corruption on every attempt; retries burn out and the slot
    /// degrades to `DEGRADED(faulted)`.
    PersistentGuestFault,
    /// Attempt 0 runs under starvation fuel so the cooperative deadline
    /// trips mid-run (`DEGRADED(deadline)` if retries are exhausted,
    /// recovery otherwise).
    WorkerStall,
    /// Attempt 0 completes but its artifact is dropped before landing in
    /// the slot — a transient fault the retry clears.
    ArtifactDrop,
    /// The worker panics outright; the pool's `catch_unwind` quarantines
    /// the slot immediately (`DEGRADED(panicked)`, no retries).
    WorkerPanic,
}

/// The chaos lane for `request` under `seed` — a pure function of both.
/// Guest-corruption lanes require the guarded runner, which only accepts
/// macro workloads; micro requests roll those lanes onto pool-level
/// injections instead, so every request kind can degrade.
pub fn lane(seed: u64, request: &RunRequest) -> ChaosLane {
    let mut rng = Rng64::new(seed ^ CHAOS_STREAM ^ fnv1a(&request.to_string()));
    let micro = request.workload.kind == WorkloadKind::Micro;
    match rng.range(0, 16) {
        0 if micro => ChaosLane::WorkerStall,
        0 => ChaosLane::FlakyGuestFault,
        1 if micro => ChaosLane::ArtifactDrop,
        1 => ChaosLane::PersistentGuestFault,
        2 => ChaosLane::WorkerStall,
        3 => ChaosLane::ArtifactDrop,
        4 => ChaosLane::WorkerPanic,
        _ => ChaosLane::Clean,
    }
}

/// Execute `plan` under seed-`seed` chaos on `jobs` workers. The
/// supervisor's retry/deadline policy comes from `config`; injections
/// come from [`lane`].
pub fn chaos_execute(
    plan: &Plan,
    jobs: usize,
    seed: u64,
    config: &SuperviseConfig,
) -> ExecutedPlan {
    let config = *config;
    supervise_with(plan, jobs, &config, move |request, attempt| {
        run_chaotic(seed, request, attempt, &config)
    })
}

/// One chaotic attempt: apply the request's lane, or fall through to a
/// clean supervised run.
fn run_chaotic(
    seed: u64,
    request: &RunRequest,
    attempt: u32,
    config: &SuperviseConfig,
) -> Result<RunArtifact, RunFailure> {
    match lane(seed, request) {
        ChaosLane::WorkerPanic => inject_panic(seed, request),
        ChaosLane::WorkerStall if attempt == 0 => {
            // A wedged worker burns fuel without finishing; the
            // cooperative fuel deadline is what stops it.
            crate::exec::try_run_request(
                request,
                Limits::unlimited().with_max_host_steps(STALL_FUEL),
            )
            .map_err(|e| pool::classify_guard_failure(e, attempt, true))
        }
        ChaosLane::ArtifactDrop if attempt == 0 => Err(RunFailure::faulted(
            attempt,
            "injected artifact drop: result lost before landing in its slot",
        )),
        ChaosLane::FlakyGuestFault if attempt == 0 => {
            guest_fault(seed, request, attempt, config)
        }
        ChaosLane::PersistentGuestFault => guest_fault(seed, request, attempt, config),
        _ => clean_run(request, attempt, config),
    }
}

/// A clean supervised attempt under `config`'s fuel deadline.
fn clean_run(
    request: &RunRequest,
    attempt: u32,
    config: &SuperviseConfig,
) -> Result<RunArtifact, RunFailure> {
    crate::exec::try_run_request(request, pool::deadline_limits(config.timeout_fuel))
        .map_err(|e| pool::classify_guard_failure(e, attempt, config.timeout_fuel.is_some()))
}

/// Corrupt the request's guest with a seed-derived [`FaultPlan`] and run
/// it guarded. A corruption harmless enough to complete falls back to a
/// clean run (guarded runs count but do not time, and a degraded cell
/// needs a real failure behind it); anything else becomes a typed
/// failure for the supervisor to retry or quarantine.
fn guest_fault(
    seed: u64,
    request: &RunRequest,
    attempt: u32,
    config: &SuperviseConfig,
) -> Result<RunArtifact, RunFailure> {
    let plan = guest_plan(seed, request);
    let guarded = run_guarded(request.workload, Limits::guarded(), &plan);
    match guarded.outcome {
        RunOutcome::Completed { .. } => clean_run(request, attempt, config),
        RunOutcome::Panicked(msg) => Err(RunFailure::panicked(
            attempt,
            format!("injected guest fault escaped as a panic: {msg}"),
        )),
        ref outcome => Err(RunFailure::faulted(
            attempt,
            format!("injected guest fault: {outcome}"),
        )),
    }
}

/// The guest-corruption recipe for `request` under `seed`: bit-flip
/// lanes for binary guests, truncation/garbage lanes for textual ones,
/// decorrelated per request.
fn guest_plan(seed: u64, request: &RunRequest) -> FaultPlan {
    let derived = seed ^ fnv1a(&request.to_string());
    match request.workload.language {
        Language::C | Language::Mipsi | Language::Javelin => FaultPlan::image_sweep(derived),
        Language::Perlite | Language::Tclite => FaultPlan::source_sweep(derived),
    }
}

// The whole point of this lane is a real unwind through the pool's
// `catch_unwind` boundary — a typed error would test the wrong path.
#[allow(clippy::panic)]
fn inject_panic(seed: u64, request: &RunRequest) -> ! {
    panic!("chaos: injected worker panic (seed {seed}, {request})")
}

/// Run `f` with chaos-injected panic output suppressed: the pool catches
/// those panics by design, and the default hook's stderr spam would
/// drown the failure report. Panics whose message does not carry the
/// `chaos:` marker still print.
pub fn with_quiet_injected_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("chaos:") {
            eprintln!("{info}");
        }
    }));
    let result = f();
    drop(std::panic::take_hook());
    std::panic::set_hook(prev);
    result
}

/// One deterministic chaos summary: the seed, per-kind degradation
/// counts, and one `DEGRADED` marker line per degraded slot in store
/// order. Byte-identical across job counts — `repro chaos` compares
/// exactly this text.
pub fn render_chaos_summary(seed: u64, executed: &ExecutedPlan) -> String {
    use std::fmt::Write as _;
    let (mut panicked, mut deadline, mut faulted) = (0usize, 0usize, 0usize);
    for (_, failure) in executed.store.failures() {
        match failure.kind {
            FailureKind::Panicked => panicked += 1,
            FailureKind::DeadlineExceeded => deadline += 1,
            FailureKind::Faulted => faulted += 1,
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos seed {seed}: {} run(s), {} degraded ({panicked} panicked, {deadline} deadline, {faulted} faulted)",
        executed.store.len(),
        panicked + deadline + faulted,
    );
    for (request, failure) in executed.store.failures() {
        let _ = writeln!(out, "  {request}: {}", failure.cell());
    }
    out
}

/// Which corruption a journal-chaos round injects into a pristine
/// journal image before resuming from it. Each lane targets one entry of
/// the loader's defect taxonomy; `repro journal-chaos --seeds N` asserts
/// every lane is detected, classified, and healed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalChaosLane {
    /// Truncate the file inside the *final* record — the canonical
    /// crash-mid-write shape. Expect one `TornTail`, one requeue.
    TornFinalRecord,
    /// Flip one bit inside a record's artifact payload. Expect one
    /// `BadChecksum`, one requeue; neighbors untouched.
    PayloadBitFlip,
    /// Truncate the file inside an interior record. Expect one
    /// `TornTail`; the torn record and everything after it requeue.
    MidTruncation,
    /// Append a byte-identical copy of an existing record. Expect one
    /// `DuplicateKey` and zero requeues — the first record wins.
    DuplicateRecord,
    /// Rewrite one record's epoch field (resealing its checksum so the
    /// epoch is the only lie). Expect one `StaleEpoch`, one requeue.
    StaleEpoch,
    /// Rewrite one record's version field (resealed). Expect one
    /// `BadVersion`, one requeue.
    BadVersion,
    /// Multi-writer lane: seeded concurrent campaigns cooperatively fill
    /// one cold cache. Expect exactly-once execution across the writers
    /// and a complete, clean journal.
    InterleavedWriters,
    /// Multi-writer lane: a writer died holding the lock, its session
    /// registered and a claim on file. Expect the next campaign to take
    /// the lock over, sweep the stale state, and complete alone.
    StaleLockTakeover,
    /// Multi-writer lane: `compact` races a live appender. Expect no
    /// appended record to be lost and the final journal to be clean.
    CompactionRace,
    /// Serve lane: a client crashed mid-write, leaving a torn request
    /// file in the daemon's inbox. Expect a typed `torn` rejection
    /// response — never a daemon crash.
    TornServeRequest,
    /// Serve lane: a daemon died between claiming a request and
    /// committing its response (journal truncated to a prefix, dead
    /// fleet member lease, claimed request orphaned in its work dir).
    /// Expect the next daemon to retire the lease, adopt the orphan,
    /// reuse the prefix, and respond byte-identically to a cold run.
    ServeCrashRecovery,
    /// Serve lane: N concurrent clients race one daemon while a batch
    /// campaign shares the cache. Expect every response ok and
    /// byte-identical, with exactly-once execution across the daemon
    /// and the batch writer combined.
    ServeClientRace,
    /// Tiered-execution lane: a seeded spurious guard trip fires inside
    /// a running Javelin trace. Expect the engine to abort the trace,
    /// blacklist its anchor (it is never re-recorded), fall back to the
    /// interpreter at the exact bytecode, and finish with console output
    /// and virtual-command counts byte-identical to a never-tiered run.
    TieredGuardTrip,
    /// Fleet lane: one of two daemons is killed mid-burst — a wedged
    /// member with a live pid, a prehistoric heartbeat, and a claimed
    /// request in its work dir. Expect the survivor to detect the death
    /// by heartbeat age, adopt the claim, and answer the whole burst
    /// byte-identically to a serial cold run.
    FleetMemberKill,
    /// Fleet lane: a dead member (corpse pid) left claimed work behind
    /// while two live daemons race a mixed-priority burst on the same
    /// cache. Expect the orphan re-adopted exactly-once between the
    /// racers, every response ok and byte-identical, and a clean
    /// stop-drain of both members.
    FleetOrphanAdoption,
    /// Fleet lane: a deadline storm — every submitted request's
    /// deadline is already past. Expect one typed `deadline-expired`
    /// rejection per request, zero executions, and no journal created.
    DeadlineStorm,
}

impl JournalChaosLane {
    /// Every lane, in rotation order. The original six corruption lanes
    /// keep their seed positions; multi-writer lanes extend the tail,
    /// serve lanes extend it again, the tiered guard-trip lane is the
    /// 13th, and the fleet lanes are 14–16 — historical seeds 0–12
    /// still map to the same lanes they always did.
    pub const ALL: [JournalChaosLane; 16] = [
        JournalChaosLane::TornFinalRecord,
        JournalChaosLane::PayloadBitFlip,
        JournalChaosLane::MidTruncation,
        JournalChaosLane::DuplicateRecord,
        JournalChaosLane::StaleEpoch,
        JournalChaosLane::BadVersion,
        JournalChaosLane::InterleavedWriters,
        JournalChaosLane::StaleLockTakeover,
        JournalChaosLane::CompactionRace,
        JournalChaosLane::TornServeRequest,
        JournalChaosLane::ServeCrashRecovery,
        JournalChaosLane::ServeClientRace,
        JournalChaosLane::TieredGuardTrip,
        JournalChaosLane::FleetMemberKill,
        JournalChaosLane::FleetOrphanAdoption,
        JournalChaosLane::DeadlineStorm,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            JournalChaosLane::TornFinalRecord => "torn-final-record",
            JournalChaosLane::PayloadBitFlip => "payload-bit-flip",
            JournalChaosLane::MidTruncation => "mid-truncation",
            JournalChaosLane::DuplicateRecord => "duplicate-record",
            JournalChaosLane::StaleEpoch => "stale-epoch",
            JournalChaosLane::BadVersion => "bad-version",
            JournalChaosLane::InterleavedWriters => "interleaved-writers",
            JournalChaosLane::StaleLockTakeover => "stale-lock-takeover",
            JournalChaosLane::CompactionRace => "compaction-race",
            JournalChaosLane::TornServeRequest => "torn-serve-request",
            JournalChaosLane::ServeCrashRecovery => "serve-crash-recovery",
            JournalChaosLane::ServeClientRace => "serve-client-race",
            JournalChaosLane::TieredGuardTrip => "tiered-guard-trip",
            JournalChaosLane::FleetMemberKill => "fleet-member-kill",
            JournalChaosLane::FleetOrphanAdoption => "fleet-orphan-adoption",
            JournalChaosLane::DeadlineStorm => "deadline-storm",
        }
    }

    /// True for lanes that exercise multi-process coordination instead
    /// of byte-level corruption.
    pub fn is_multi_writer(self) -> bool {
        matches!(
            self,
            JournalChaosLane::InterleavedWriters
                | JournalChaosLane::StaleLockTakeover
                | JournalChaosLane::CompactionRace
        )
    }

    /// True for lanes that exercise the serve daemon's robustness
    /// (torn clients, daemon crash recovery, client races, fleet
    /// failover, deadline storms).
    pub fn is_serve(self) -> bool {
        matches!(
            self,
            JournalChaosLane::TornServeRequest
                | JournalChaosLane::ServeCrashRecovery
                | JournalChaosLane::ServeClientRace
                | JournalChaosLane::FleetMemberKill
                | JournalChaosLane::FleetOrphanAdoption
                | JournalChaosLane::DeadlineStorm
        )
    }

    /// True for the lane that exercises the tiered engine's guard-trip
    /// fallback instead of the cache machinery.
    pub fn is_tiered(self) -> bool {
        self == JournalChaosLane::TieredGuardTrip
    }
}

/// The journal-corruption lane for `seed`: seeds rotate through
/// [`JournalChaosLane::ALL`], so any sixteen consecutive seeds cover
/// the whole lane taxonomy (where in the file the corruption lands is
/// still rolled from the seed).
pub fn journal_lane(seed: u64) -> JournalChaosLane {
    JournalChaosLane::ALL[(seed % JournalChaosLane::ALL.len() as u64) as usize]
}

/// What a [`corrupt_journal`] call did and what the loader must now
/// observe: the defect kind it must classify, and how many runs the
/// resumed execution must requeue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCorruption {
    /// The lane that was applied.
    pub lane: JournalChaosLane,
    /// The defect kind the loader must report.
    pub expected_kind: JournalDefectKind,
    /// Runs the resumed execution must re-execute.
    pub expected_requeued: usize,
}

/// Apply `lane`'s corruption to a pristine journal image in place, with
/// the corruption site rolled from `seed`. Returns the oracle the
/// resumed run is checked against. The image must hold at least two
/// well-formed records (so interior-targeting lanes have a target).
pub fn corrupt_journal(
    bytes: &mut Vec<u8>,
    lane: JournalChaosLane,
    seed: u64,
) -> JournalCorruption {
    let spans = journal::record_spans(bytes);
    let n = spans.len();
    debug_assert!(n >= 2, "journal chaos needs at least two records");
    let mut rng = Rng64::new(seed ^ JOURNAL_STREAM);
    let (expected_kind, expected_requeued) = match lane {
        JournalChaosLane::TornFinalRecord => {
            let span = spans[n - 1];
            // Cut strictly inside the record: after its length prefix
            // begins, before its checksum ends.
            let cut = span.start + rng.index(1, span.end - span.start);
            bytes.truncate(cut);
            (JournalDefectKind::TornTail, 1)
        }
        JournalChaosLane::PayloadBitFlip => {
            let span = spans[rng.index(0, n)];
            let at = rng.index(span.payload_start, span.payload_end);
            bytes[at] ^= 1 << rng.index(0, 8);
            (JournalDefectKind::BadChecksum, 1)
        }
        JournalChaosLane::MidTruncation => {
            // Tear an interior record: it and every record after it are
            // lost.
            let victim = rng.index(0, n - 1);
            let span = spans[victim];
            let cut = span.start + rng.index(1, span.end - span.start);
            bytes.truncate(cut);
            (JournalDefectKind::TornTail, n - victim)
        }
        JournalChaosLane::DuplicateRecord => {
            let span = spans[rng.index(0, n)];
            let copy = bytes[span.start..span.end].to_vec();
            bytes.extend_from_slice(&copy);
            (JournalDefectKind::DuplicateKey, 0)
        }
        JournalChaosLane::StaleEpoch => {
            let span = spans[rng.index(0, n)];
            // Epoch sits after the 2-byte version field.
            let at = span.body_start + 2;
            let epoch = u64::from_le_bytes([
                bytes[at],
                bytes[at + 1],
                bytes[at + 2],
                bytes[at + 3],
                bytes[at + 4],
                bytes[at + 5],
                bytes[at + 6],
                bytes[at + 7],
            ]);
            bytes[at..at + 8].copy_from_slice(&epoch.wrapping_add(1).to_le_bytes());
            journal::reseal_record(bytes, &span);
            (JournalDefectKind::StaleEpoch, 1)
        }
        JournalChaosLane::BadVersion => {
            let span = spans[rng.index(0, n)];
            let at = span.body_start;
            let version = u16::from_le_bytes([bytes[at], bytes[at + 1]]);
            bytes[at..at + 2].copy_from_slice(&version.wrapping_add(1).to_le_bytes());
            journal::reseal_record(bytes, &span);
            (JournalDefectKind::BadVersion, 1)
        }
        JournalChaosLane::InterleavedWriters
        | JournalChaosLane::StaleLockTakeover
        | JournalChaosLane::CompactionRace
        | JournalChaosLane::TornServeRequest
        | JournalChaosLane::ServeCrashRecovery
        | JournalChaosLane::ServeClientRace
        | JournalChaosLane::TieredGuardTrip
        | JournalChaosLane::FleetMemberKill
        | JournalChaosLane::FleetOrphanAdoption
        | JournalChaosLane::DeadlineStorm => {
            // Multi-writer, serve, and tiered lanes inject no byte
            // corruption — they are dispatched to their own harnesses
            // before this function is reached. Reaching here is a
            // harness bug; the impossible requeue oracle makes the round
            // fail loudly instead of silently passing.
            (JournalDefectKind::TornTail, usize::MAX)
        }
    };
    JournalCorruption { lane, expected_kind, expected_requeued }
}

/// The fixed plan `repro journal-chaos` exercises: a handful of fast
/// test-scale runs whose artifacts cover every payload shape (counters
/// only, cycle summaries, a sweep grid) across binary and textual
/// interpreters.
pub fn journal_chaos_plan() -> Plan {
    Plan::build([
        RunRequest::pipeline(WorkloadId::macro_bench(Language::Mipsi, "des", Scale::Test)),
        RunRequest::counting(WorkloadId::macro_bench(Language::Tclite, "des", Scale::Test)),
        RunRequest::new(
            WorkloadId::macro_bench(Language::Javelin, "des", Scale::Test),
            interp_core::SinkKind::ICacheSweep,
        ),
        RunRequest::pipeline(WorkloadId::micro(Language::C, "a=b+c", Scale::Test)),
    ])
}

/// One journal-chaos verdict: what was injected, what the loader saw,
/// and whether recovery restored the exact cold-run results.
#[derive(Debug, Clone)]
pub struct JournalChaosOutcome {
    /// The chaos seed.
    pub seed: u64,
    /// What [`corrupt_journal`] injected and predicted.
    pub corruption: JournalCorruption,
    /// The loader reported at least one defect of the expected kind.
    pub detected: bool,
    /// No defect of any *other* kind was reported (classification, not
    /// just detection).
    pub classified: bool,
    /// Runs the resumed execution actually re-executed.
    pub requeued: usize,
    /// Every planned artifact in the resumed store is content-identical
    /// to the cold baseline.
    pub store_intact: bool,
    /// The post-resume journal file parses with zero defects and holds
    /// every planned record.
    pub journal_healed: bool,
}

impl JournalChaosOutcome {
    /// True iff the defect was detected, correctly classified, the
    /// requeue count matched the oracle, and both the store and the
    /// journal recovered fully.
    pub fn passed(&self) -> bool {
        self.detected
            && self.classified
            && self.requeued == self.corruption.expected_requeued
            && self.store_intact
            && self.journal_healed
    }
}

/// Run a cold journaled execution of `plan` into `dir` and return the
/// pristine journal image plus the baseline content hash of every
/// planned artifact — the oracle [`journal_chaos_seed`] checks against.
pub fn journal_chaos_baseline(
    plan: &Plan,
    jobs: usize,
    config: &SuperviseConfig,
    dir: &Path,
) -> Result<(Vec<u8>, BTreeMap<RunRequest, u64>), JournalError> {
    let jconfig = JournalConfig::new(dir);
    let (executed, _report) = journal::execute_journaled(plan, jobs, config, &jconfig)?;
    let baseline = content_hashes(plan, &executed);
    let path = dir.join(JOURNAL_FILE);
    let bytes = std::fs::read(&path).map_err(|e| JournalError {
        kind: JournalErrorKind::Io,
        path: path.clone(),
        op: "read",
        detail: e.to_string(),
    })?;
    Ok((bytes, baseline))
}

/// One multi-writer chaos verdict: what the coordination scenario was
/// asked to survive and what actually happened.
#[derive(Debug, Clone)]
pub struct MultiWriterOutcome {
    /// The chaos seed.
    pub seed: u64,
    /// Which multi-writer lane ran.
    pub lane: JournalChaosLane,
    /// Concurrent campaigns launched (1 for the takeover lane, where
    /// the "other writer" is a planted corpse).
    pub writers: usize,
    /// Requests in the plan — the exactly-once denominator.
    pub planned: usize,
    /// Executions summed across every campaign. Exactly-once means this
    /// equals `planned`: no request ran twice, none was skipped.
    pub executed_total: usize,
    /// Every campaign's store resolved every planned artifact to the
    /// cold-baseline content.
    pub store_intact: bool,
    /// The final journal holds a record for every planned request.
    pub journal_complete: bool,
    /// The final journal parses with zero defects.
    pub journal_clean: bool,
}

impl MultiWriterOutcome {
    /// True iff execution was exactly-once and nothing was lost or
    /// corrupted.
    pub fn passed(&self) -> bool {
        self.executed_total == self.planned
            && self.store_intact
            && self.journal_complete
            && self.journal_clean
    }
}

/// The verdict of one journal-chaos round — corruption lanes grade
/// detect/classify/heal, multi-writer lanes grade exactly-once
/// coordination, serve lanes grade daemon robustness, and the tiered
/// lane grades the trace engine's guard-trip fallback.
#[derive(Debug, Clone)]
pub enum JournalChaosVerdict {
    /// A byte-corruption lane's verdict.
    Corruption(JournalChaosOutcome),
    /// A multi-writer coordination lane's verdict.
    MultiWriter(MultiWriterOutcome),
    /// A serve-daemon robustness lane's verdict.
    Serve(ServeChaosOutcome),
    /// The tiered guard-trip lane's verdict.
    Tiered(TieredChaosOutcome),
}

impl JournalChaosVerdict {
    /// Whether the round met its lane's oracle.
    pub fn passed(&self) -> bool {
        match self {
            JournalChaosVerdict::Corruption(o) => o.passed(),
            JournalChaosVerdict::MultiWriter(o) => o.passed(),
            JournalChaosVerdict::Serve(o) => o.passed(),
            JournalChaosVerdict::Tiered(o) => o.passed(),
        }
    }

    /// The one-line report for this round.
    pub fn render(&self) -> String {
        match self {
            JournalChaosVerdict::Corruption(o) => render_journal_chaos(o),
            JournalChaosVerdict::MultiWriter(o) => render_multi_writer(o),
            JournalChaosVerdict::Serve(o) => render_serve_chaos(o),
            JournalChaosVerdict::Tiered(o) => render_tiered_chaos(o),
        }
    }
}

/// One journal-chaos round. Corruption lanes plant a `seed`-corrupted
/// copy of the pristine image in `dir`, resume the plan from it, and
/// grade detection, classification, requeue accounting, store fidelity,
/// and healing. Multi-writer lanes instead clear the cache and run a
/// coordination scenario — interleaved campaigns, stale-lock takeover,
/// or compaction racing an appender — grading exactly-once execution
/// and zero loss.
pub fn journal_chaos_seed(
    plan: &Plan,
    jobs: usize,
    seed: u64,
    config: &SuperviseConfig,
    dir: &Path,
    pristine: &[u8],
    baseline: &BTreeMap<RunRequest, u64>,
) -> Result<JournalChaosVerdict, JournalError> {
    let lane = journal_lane(seed);
    if lane.is_multi_writer() {
        return multi_writer_seed(plan, jobs, seed, lane, config, dir, baseline)
            .map(JournalChaosVerdict::MultiWriter);
    }
    if lane.is_serve() {
        return serve_chaos_seed(plan, jobs, seed, lane, config, dir, pristine, baseline)
            .map(JournalChaosVerdict::Serve);
    }
    if lane.is_tiered() {
        return Ok(JournalChaosVerdict::Tiered(tiered_chaos_seed(seed, lane)));
    }
    let mut corrupted = pristine.to_vec();
    let corruption = corrupt_journal(&mut corrupted, lane, seed);
    let path = dir.join(JOURNAL_FILE);
    std::fs::write(&path, &corrupted).map_err(|e| JournalError {
        kind: JournalErrorKind::Io,
        path: path.clone(),
        op: "write",
        detail: e.to_string(),
    })?;

    let jconfig = JournalConfig::new(dir).with_resume(true);
    let (executed, report) = journal::execute_journaled(plan, jobs, config, &jconfig)?;
    Ok(JournalChaosVerdict::Corruption(grade_outcome(
        plan, seed, corruption, &executed, &report, &path, baseline,
    )))
}

/// A PID no live process on a sane Linux can hold (`pid_max` caps far
/// below it) — the corpse identity multi-writer lanes plant.
const DEAD_PID: u32 = 4_000_000_000;

/// Run one multi-writer coordination scenario against a cold cache.
fn multi_writer_seed(
    plan: &Plan,
    jobs: usize,
    seed: u64,
    lane: JournalChaosLane,
    config: &SuperviseConfig,
    dir: &Path,
    baseline: &BTreeMap<RunRequest, u64>,
) -> Result<MultiWriterOutcome, JournalError> {
    // Start cold: drop the journal and any coordination state left by a
    // previous round (sessions from finished campaigns are deregistered,
    // but corruption rounds leave a journal behind).
    let _ = std::fs::remove_file(dir.join(JOURNAL_FILE));
    let _ = std::fs::remove_file(dir.join(LOCK_FILE));

    let campaign = |resume: bool| {
        let jconfig = JournalConfig::new(dir).with_resume(resume);
        journal::execute_journaled(plan, jobs, config, &jconfig)
    };

    let (writers, campaigns): (usize, Vec<(ExecutedPlan, ResumeReport)>) = match lane {
        JournalChaosLane::InterleavedWriters => {
            // Two seeded campaigns race a cold cache; claims partition
            // the plan between them. The seed staggers the second start
            // to vary interleavings. The second campaign opens with
            // `resume` so the round grades exactly-once arithmetic even
            // when the first campaign wins the race outright — the
            // truncate-vs-join decision itself is pinned by unit and
            // real-binary tests, not by this timing-dependent lane.
            let stagger = std::time::Duration::from_millis(seed % 7);
            let second = &campaign;
            let results = std::thread::scope(|scope| {
                let a = scope.spawn(|| campaign(false));
                let b = scope.spawn(move || {
                    std::thread::sleep(stagger);
                    second(true)
                });
                [a.join(), b.join()]
            });
            let mut campaigns = Vec::new();
            for joined in results {
                match joined {
                    Ok(result) => campaigns.push(result?),
                    Err(_) => {
                        return Ok(failed_multi_writer(seed, lane, 2, plan.len()));
                    }
                }
            }
            (2, campaigns)
        }
        JournalChaosLane::StaleLockTakeover => {
            // A writer died holding the lock: corpse lock file, corpse
            // session registration, corpse claim on one planned
            // fingerprint. The next campaign must take all of it over.
            std::fs::write(
                dir.join(LOCK_FILE),
                format!("pid {DEAD_PID}\ntoken corpse\nepoch 0\n"),
            )
            .map_err(|e| journal_io(dir, e))?;
            for sub in [WRITERS_DIR, CLAIMS_DIR] {
                std::fs::create_dir_all(dir.join(sub)).map_err(|e| journal_io(dir, e))?;
            }
            std::fs::write(dir.join(WRITERS_DIR).join("corpse"), format!("pid {DEAD_PID}\n"))
                .map_err(|e| journal_io(dir, e))?;
            let victim = plan.requests()[(seed as usize) % plan.len()];
            std::fs::write(
                dir.join(CLAIMS_DIR).join(format!("{:016x}", victim.fingerprint())),
                format!("pid {DEAD_PID}\ntoken corpse\n"),
            )
            .map_err(|e| journal_io(dir, e))?;
            (1, vec![campaign(false)?])
        }
        JournalChaosLane::CompactionRace => {
            // Compaction hammers the lock while a live campaign appends;
            // neither side may lose a record.
            let epoch = crate::fingerprint::current_epoch();
            let result = std::thread::scope(|scope| {
                let appender = scope.spawn(|| campaign(false));
                let mut compactions = Ok(());
                for _ in 0..4 {
                    std::thread::sleep(std::time::Duration::from_millis(1 + seed % 5));
                    if let Err(e) =
                        crate::compact::compact(dir, epoch, std::time::Duration::from_secs(30))
                    {
                        compactions = Err(e);
                        break;
                    }
                }
                (appender.join(), compactions)
            });
            let (joined, compactions) = result;
            compactions?;
            match joined {
                Ok(result) => (1, vec![result?]),
                Err(_) => return Ok(failed_multi_writer(seed, lane, 1, plan.len())),
            }
        }
        _ => return Ok(failed_multi_writer(seed, lane, 0, plan.len())),
    };

    let executed_total = campaigns.iter().map(|(_, report)| report.executed).sum();
    let store_intact = campaigns
        .iter()
        .all(|(executed, _)| content_hashes(plan, executed) == *baseline);
    let (journal_complete, journal_clean) = match std::fs::read(dir.join(JOURNAL_FILE)) {
        Ok(bytes) => {
            let reloaded = journal::load_bytes(&bytes, crate::fingerprint::current_epoch());
            (
                plan.requests()
                    .iter()
                    .all(|r| reloaded.records.contains_key(&r.fingerprint())),
                reloaded.defects.is_empty(),
            )
        }
        Err(_) => (false, false),
    };
    Ok(MultiWriterOutcome {
        seed,
        lane,
        writers,
        planned: plan.len(),
        executed_total,
        store_intact,
        journal_complete,
        journal_clean,
    })
}

/// The all-false outcome for a scenario that could not even run (a
/// campaign thread panicked, or an impossible lane reached the
/// dispatcher) — it renders as FAIL rather than crashing the sweep.
fn failed_multi_writer(
    seed: u64,
    lane: JournalChaosLane,
    writers: usize,
    planned: usize,
) -> MultiWriterOutcome {
    MultiWriterOutcome {
        seed,
        lane,
        writers,
        planned,
        executed_total: 0,
        store_intact: false,
        journal_complete: false,
        journal_clean: false,
    }
}

fn journal_io(dir: &Path, e: std::io::Error) -> JournalError {
    JournalError {
        kind: JournalErrorKind::Io,
        path: dir.to_path_buf(),
        op: "write",
        detail: e.to_string(),
    }
}

/// One line per multi-writer round, shape-stable with the corruption
/// render: the seed, the lane, the oracle, and the verdict.
pub fn render_multi_writer(outcome: &MultiWriterOutcome) -> String {
    format!(
        "journal-chaos seed {}: lane {} -> {} writer(s) over {} run(s): executed={} store-intact={} complete={} clean={} [{}]",
        outcome.seed,
        outcome.lane.label(),
        outcome.writers,
        outcome.planned,
        outcome.executed_total,
        outcome.store_intact,
        outcome.journal_complete,
        outcome.journal_clean,
        if outcome.passed() { "ok" } else { "FAIL" },
    )
}

/// Stream-splitting constant for serve-lane rolls (torn-cut positions,
/// crash prefixes), decorrelated from the corruption streams.
const SERVE_STREAM: u64 = 0x5E27_E001_CAFE_D00D;

/// One serve-daemon chaos verdict: what the lane injected, what the
/// daemon answered, and whether execution stayed exactly-once with
/// responses byte-identical to the cold baseline.
#[derive(Debug, Clone)]
pub struct ServeChaosOutcome {
    /// The chaos seed.
    pub seed: u64,
    /// Which serve lane ran.
    pub lane: JournalChaosLane,
    /// Requests in the plan — the exactly-once denominator.
    pub planned: usize,
    /// Ok responses the oracle demands.
    pub expected_ok: usize,
    /// Typed rejections the oracle demands.
    pub expected_rejected: usize,
    /// Ok responses actually published.
    pub ok: usize,
    /// Typed rejections actually published (of the expected kind).
    pub rejected: usize,
    /// Executions summed across every campaign (daemon requests plus
    /// any racing batch writer).
    pub executed_total: usize,
    /// Every response's accounting satisfied
    /// `reused + executed + reused_live == planned`, and the combined
    /// execution count matched the lane's oracle.
    pub exactly_once: bool,
    /// Every ok response body was byte-identical to the cold baseline
    /// rendering.
    pub body_identical: bool,
    /// The daemons exited cleanly and retired their member leases.
    pub clean_exit: bool,
}

impl ServeChaosOutcome {
    /// True iff every oracle held.
    pub fn passed(&self) -> bool {
        self.ok == self.expected_ok
            && self.rejected == self.expected_rejected
            && self.exactly_once
            && self.body_identical
            && self.clean_exit
    }
}

/// One line per serve round, shape-stable with the other renders.
pub fn render_serve_chaos(outcome: &ServeChaosOutcome) -> String {
    format!(
        "journal-chaos seed {}: lane {} -> expect {} ok / {} rejected over {} run(s): ok={} rejected={} executed={} exactly-once={} body-identical={} clean-exit={} [{}]",
        outcome.seed,
        outcome.lane.label(),
        outcome.expected_ok,
        outcome.expected_rejected,
        outcome.planned,
        outcome.ok,
        outcome.rejected,
        outcome.executed_total,
        outcome.exactly_once,
        outcome.body_identical,
        outcome.clean_exit,
        if outcome.passed() { "ok" } else { "FAIL" },
    )
}

/// The tiny [`crate::serve::PlanService`] the serve lanes run: one known
/// target (`chaos-plan`) mapping to the fixed journal-chaos plan,
/// rendered as one `{request} {content_hash:016x}` line per planned run
/// — so the expected response body is a pure function of the cold
/// baseline hash map.
struct ChaosServeService {
    plan: Plan,
}

impl crate::serve::PlanService for ChaosServeService {
    fn plan(
        &self,
        request: &crate::serve::ServeRequest,
    ) -> Result<Plan, crate::serve::Reject> {
        if request.targets == ["chaos-plan"] {
            Ok(Plan::build(self.plan.requests().iter().copied()))
        } else {
            Err(crate::serve::Reject::new(
                crate::serve::RejectKind::UnknownTarget,
                format!("unknown target `{}`", request.targets.join(",")),
            ))
        }
    }

    fn render(
        &self,
        _request: &crate::serve::ServeRequest,
        executed: &ExecutedPlan,
    ) -> String {
        render_hash_body(&self.plan, &content_hashes(&self.plan, executed))
    }
}

/// The `{request} {hash:016x}` response body for `plan` under a hash
/// map (the serve lanes' baseline-comparable rendering).
fn render_hash_body(plan: &Plan, hashes: &BTreeMap<RunRequest, u64>) -> String {
    plan.requests()
        .iter()
        .map(|r| format!("{r} {:016x}\n", hashes.get(r).copied().unwrap_or(0)))
        .collect()
}

/// The all-false outcome for a serve scenario that could not even run.
fn failed_serve(seed: u64, lane: JournalChaosLane, planned: usize) -> ServeChaosOutcome {
    ServeChaosOutcome {
        seed,
        lane,
        planned,
        expected_ok: 0,
        expected_rejected: 0,
        ok: 0,
        rejected: 0,
        executed_total: 0,
        exactly_once: false,
        body_identical: false,
        clean_exit: false,
    }
}

/// Run one serve-daemon robustness scenario against a cold cache.
#[allow(clippy::too_many_arguments)]
fn serve_chaos_seed(
    plan: &Plan,
    jobs: usize,
    seed: u64,
    lane: JournalChaosLane,
    config: &SuperviseConfig,
    dir: &Path,
    pristine: &[u8],
    baseline: &BTreeMap<RunRequest, u64>,
) -> Result<ServeChaosOutcome, JournalError> {
    use crate::serve::{
        self, ServeConfig, ServeError, ServeOutcome, ServeRequest, WaitOutcome, INBOX_DIR,
        SERVE_DIR, WORK_DIR,
    };

    // Start cold: no journal, no lock, no serve state from prior rounds
    // (crash-recovery plants its own journal prefix below).
    let _ = std::fs::remove_file(dir.join(JOURNAL_FILE));
    let _ = std::fs::remove_file(dir.join(LOCK_FILE));
    let _ = std::fs::remove_dir_all(dir.join(SERVE_DIR));

    let planned = plan.len();
    let expected_body = render_hash_body(plan, baseline);
    let mut rng = Rng64::new(seed ^ SERVE_STREAM);
    let service = ChaosServeService {
        plan: Plan::build(plan.requests().iter().copied()),
    };
    let mut serve_config = ServeConfig::new(dir);
    serve_config.jobs = jobs;
    serve_config.supervise = *config;
    serve_config.poll = std::time::Duration::from_millis(1);
    let patience = std::time::Duration::from_secs(120);
    let poll = std::time::Duration::from_millis(2);
    let chaos_request =
        |id: &str| ServeRequest::new(id, &["chaos-plan"], interp_core::Scale::Test);

    match lane {
        JournalChaosLane::TornServeRequest => {
            // A client crashed mid-write: the request file has an intact
            // version line but is cut strictly before its `end` trailer,
            // so the daemon must classify it as torn — a typed response,
            // never a crash.
            let full = serve::encode_request(&chaos_request("torn"));
            let version_end = full.find('\n').map_or(0, |p| p + 1);
            let end_start = full.len() - "end\n".len();
            let cut = rng.index(version_end, end_start);
            let inbox = dir.join(INBOX_DIR);
            std::fs::create_dir_all(&inbox).map_err(|e| journal_io(dir, e))?;
            std::fs::write(inbox.join("torn.req"), &full.as_bytes()[..cut])
                .map_err(|e| journal_io(dir, e))?;
            serve_config.max_requests = Some(1);
            let report = match serve::serve(&serve_config, &service) {
                Ok(report) => report,
                Err(ServeError::AlreadyRunning { .. }) => {
                    return Ok(failed_serve(seed, lane, planned))
                }
                Err(ServeError::Journal(e)) => return Err(e),
            };
            let torn_rejected = matches!(
                serve::wait(dir, "torn", patience, poll)?,
                WaitOutcome::Response(serve::ServeResponse {
                    outcome: ServeOutcome::Rejected(ref reject),
                    ..
                }) if reject.kind == serve::RejectKind::Torn
            );
            Ok(ServeChaosOutcome {
                seed,
                lane,
                planned,
                expected_ok: 0,
                expected_rejected: 1,
                ok: report.served,
                rejected: usize::from(torn_rejected),
                executed_total: 0,
                exactly_once: true,
                body_identical: true,
                clean_exit: crate::fleet::fleet_members(dir).is_empty(),
            })
        }
        JournalChaosLane::ServeCrashRecovery => {
            // A daemon died between claiming a request and committing its
            // response: the journal holds only a prefix of the plan, its
            // fleet member lease names a corpse, and the claimed request
            // sits orphaned in the corpse's work dir. The fresh daemon
            // must retire the corpse, adopt the orphan, reuse the prefix,
            // execute the residue, and answer byte-identically to a cold
            // run.
            let spans = journal::record_spans(pristine);
            let n = spans.len();
            if n < 2 {
                return Ok(failed_serve(seed, lane, planned));
            }
            let prefix = 1 + rng.index(0, n - 1);
            std::fs::write(dir.join(JOURNAL_FILE), &pristine[..spans[prefix - 1].end])
                .map_err(|e| journal_io(dir, e))?;
            let fleet_dir = dir.join(crate::fleet::FLEET_DIR);
            std::fs::create_dir_all(&fleet_dir).map_err(|e| journal_io(dir, e))?;
            std::fs::write(
                fleet_dir.join("corpse"),
                format!("pid {DEAD_PID}\ntoken corpse\n"),
            )
            .map_err(|e| journal_io(dir, e))?;
            let work = dir.join(WORK_DIR).join("corpse");
            std::fs::create_dir_all(&work).map_err(|e| journal_io(dir, e))?;
            std::fs::write(
                work.join("crashed.req"),
                serve::encode_request(&chaos_request("crashed")),
            )
            .map_err(|e| journal_io(dir, e))?;
            serve_config.max_requests = Some(1);
            let report = match serve::serve(&serve_config, &service) {
                Ok(report) => report,
                Err(ServeError::AlreadyRunning { .. }) => {
                    return Ok(failed_serve(seed, lane, planned))
                }
                Err(ServeError::Journal(e)) => return Err(e),
            };
            let (ok, executed_total, exactly_once, body_identical) =
                match serve::wait(dir, "crashed", patience, poll)? {
                    WaitOutcome::Response(response) => match response.outcome {
                        ServeOutcome::Ok { accounting, body, .. } => (
                            1,
                            accounting.executed,
                            accounting.exactly_once()
                                && accounting.reused == prefix
                                && accounting.executed == planned - prefix,
                            body == expected_body.as_bytes(),
                        ),
                        ServeOutcome::Rejected(_) => (0, 0, false, false),
                    },
                    WaitOutcome::TimedOut => (0, 0, false, false),
                };
            Ok(ServeChaosOutcome {
                seed,
                lane,
                planned,
                expected_ok: 1,
                expected_rejected: 0,
                ok,
                rejected: report.rejected,
                executed_total,
                exactly_once,
                body_identical,
                clean_exit: crate::fleet::fleet_members(dir).is_empty()
                    && !work.join("crashed.req").exists(),
            })
        }
        JournalChaosLane::ServeClientRace => {
            // N clients race one daemon while a batch campaign shares the
            // cache: every response must be ok and byte-identical to the
            // cold baseline, and the daemon plus the batch writer must
            // execute each planned run exactly once between them.
            let clients = 2 + (seed as usize % 2);
            serve_config.max_requests = Some(clients as u64);
            let stagger = std::time::Duration::from_millis(seed % 5);
            let (daemon_result, batch_result, responses) = std::thread::scope(|scope| {
                let daemon = {
                    let serve_config = serve_config.clone();
                    let service = &service;
                    scope.spawn(move || serve::serve(&serve_config, service))
                };
                let batch = scope.spawn(|| {
                    std::thread::sleep(stagger);
                    let jconfig = JournalConfig::new(dir).with_resume(true);
                    journal::execute_journaled(plan, jobs, config, &jconfig)
                });
                let client_handles: Vec<_> = (0..clients)
                    .map(|i| {
                        let request = chaos_request(&format!("race-{i}"));
                        scope.spawn(move || {
                            serve::submit(dir, &request)?;
                            serve::wait(dir, &request.id, patience, poll)
                        })
                    })
                    .collect();
                let responses: Vec<_> = client_handles
                    .into_iter()
                    .map(|h| h.join())
                    .collect();
                (daemon.join(), batch.join(), responses)
            });
            let Ok(daemon_result) = daemon_result else {
                return Ok(failed_serve(seed, lane, planned));
            };
            let report = match daemon_result {
                Ok(report) => report,
                Err(ServeError::AlreadyRunning { .. }) => {
                    return Ok(failed_serve(seed, lane, planned))
                }
                Err(ServeError::Journal(e)) => return Err(e),
            };
            let Ok(batch_result) = batch_result else {
                return Ok(failed_serve(seed, lane, planned));
            };
            let (batch_executed, batch_report) = batch_result?;
            let batch_intact = content_hashes(plan, &batch_executed) == *baseline;
            let mut ok = 0usize;
            let mut executed_total = batch_report.executed;
            let mut exactly_once = batch_report.planned == planned;
            let mut body_identical = batch_intact;
            for joined in responses {
                let Ok(waited) = joined else {
                    return Ok(failed_serve(seed, lane, planned));
                };
                match waited? {
                    WaitOutcome::Response(response) => match response.outcome {
                        ServeOutcome::Ok { accounting, body, .. } => {
                            ok += 1;
                            executed_total += accounting.executed;
                            exactly_once &= accounting.exactly_once()
                                && accounting.planned == planned;
                            body_identical &= body == expected_body.as_bytes();
                        }
                        ServeOutcome::Rejected(_) => {}
                    },
                    WaitOutcome::TimedOut => {}
                }
            }
            exactly_once &= executed_total == planned;
            Ok(ServeChaosOutcome {
                seed,
                lane,
                planned,
                expected_ok: clients,
                expected_rejected: 0,
                ok,
                rejected: report.rejected,
                executed_total,
                exactly_once,
                body_identical,
                clean_exit: report.served + report.rejected == clients
                    && crate::fleet::fleet_members(dir).is_empty(),
            })
        }
        JournalChaosLane::FleetMemberKill => {
            // One of two daemons was killed mid-burst: a wedged member
            // with a *live* pid, a prehistoric heartbeat, and a claimed
            // request in its work dir — the heartbeat-age detection
            // path, the one `/proc` can't catch. The survivor must
            // sweep it, re-adopt the claim, and serve the whole
            // mixed-priority burst byte-identically to serial cold.
            let fleet_dir = dir.join(crate::fleet::FLEET_DIR);
            std::fs::create_dir_all(&fleet_dir).map_err(|e| journal_io(dir, e))?;
            std::fs::write(
                fleet_dir.join("wedged"),
                format!("pid {}\ntoken wedged\n", std::process::id()),
            )
            .map_err(|e| journal_io(dir, e))?;
            std::fs::write(
                fleet_dir.join("wedged.hb"),
                format!(
                    "pid {}\ntick 1\nunix_ms 1\nserved 0\nin-flight 1\n",
                    std::process::id()
                ),
            )
            .map_err(|e| journal_io(dir, e))?;
            let wedged_work = dir.join(WORK_DIR).join("wedged");
            std::fs::create_dir_all(&wedged_work).map_err(|e| journal_io(dir, e))?;
            let mut killed = chaos_request("killed");
            killed.priority = i64::from(rng.range(0, 4) as u32);
            std::fs::write(wedged_work.join("killed.req"), serve::encode_request(&killed))
                .map_err(|e| journal_io(dir, e))?;
            let mut urgent = chaos_request("urgent");
            urgent.priority = 7;
            serve::submit(dir, &urgent)?;
            serve_config.max_requests = Some(2);
            serve_config.serve_jobs = 2;
            let report = match serve::serve(&serve_config, &service) {
                Ok(report) => report,
                Err(ServeError::AlreadyRunning { .. }) => {
                    return Ok(failed_serve(seed, lane, planned))
                }
                Err(ServeError::Journal(e)) => return Err(e),
            };
            let mut ok = 0usize;
            let mut executed_total = 0usize;
            let mut exactly_once = report.adopted == 1;
            let mut body_identical = true;
            for id in ["killed", "urgent"] {
                match serve::wait(dir, id, patience, poll)? {
                    WaitOutcome::Response(response) => match response.outcome {
                        ServeOutcome::Ok { accounting, body, .. } => {
                            ok += 1;
                            executed_total += accounting.executed;
                            exactly_once &= accounting.exactly_once()
                                && accounting.planned == planned;
                            body_identical &= body == expected_body.as_bytes();
                        }
                        ServeOutcome::Rejected(_) => {}
                    },
                    WaitOutcome::TimedOut => {}
                }
            }
            exactly_once &= executed_total == planned;
            Ok(ServeChaosOutcome {
                seed,
                lane,
                planned,
                expected_ok: 2,
                expected_rejected: 0,
                ok,
                rejected: report.rejected,
                executed_total,
                exactly_once,
                body_identical,
                clean_exit: crate::fleet::fleet_members(dir).is_empty()
                    && !wedged_work.exists(),
            })
        }
        JournalChaosLane::FleetOrphanAdoption => {
            // A dead member (corpse pid) left a claimed request behind
            // while *two* live daemons race a mixed-priority burst on
            // the same cache. The orphan must be re-adopted exactly-once
            // between the racers, every response must be ok and
            // byte-identical, and a stop request must drain both
            // members cleanly, consuming the marker.
            let fleet_dir = dir.join(crate::fleet::FLEET_DIR);
            std::fs::create_dir_all(&fleet_dir).map_err(|e| journal_io(dir, e))?;
            std::fs::write(
                fleet_dir.join("corpse"),
                format!("pid {DEAD_PID}\ntoken corpse\n"),
            )
            .map_err(|e| journal_io(dir, e))?;
            let corpse_work = dir.join(WORK_DIR).join("corpse");
            std::fs::create_dir_all(&corpse_work).map_err(|e| journal_io(dir, e))?;
            std::fs::write(
                corpse_work.join("lost.req"),
                serve::encode_request(&chaos_request("lost")),
            )
            .map_err(|e| journal_io(dir, e))?;
            let burst = 2 + (seed as usize % 2);
            let mut ids = vec!["lost".to_string()];
            for i in 0..burst {
                let mut request = chaos_request(&format!("fleet-{i}"));
                request.priority = (i as i64 % 3) - 1;
                request.deadline_unix_ms =
                    Some(crate::lease::unix_ms() as u64 + 600_000);
                serve::submit(dir, &request)?;
                ids.push(request.id);
            }
            let (first, second) = std::thread::scope(|scope| {
                let spawn_daemon = || {
                    let serve_config = serve_config.clone();
                    let service = &service;
                    scope.spawn(move || serve::serve(&serve_config, service))
                };
                let a = spawn_daemon();
                let b = spawn_daemon();
                // Every response must arrive while both daemons run;
                // only then drain the fleet.
                for id in &ids {
                    let _ = serve::wait(dir, id, patience, poll);
                }
                let _ = serve::request_stop(dir);
                (a.join(), b.join())
            });
            let (Ok(first), Ok(second)) = (first, second) else {
                return Ok(failed_serve(seed, lane, planned));
            };
            let reports = match (first, second) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(ServeError::Journal(e)), _) | (_, Err(ServeError::Journal(e))) => {
                    return Err(e)
                }
                _ => return Ok(failed_serve(seed, lane, planned)),
            };
            let mut ok = 0usize;
            let mut executed_total = 0usize;
            let mut exactly_once = reports.0.adopted + reports.1.adopted == 1;
            let mut body_identical = true;
            for id in &ids {
                match serve::wait(dir, id, patience, poll)? {
                    WaitOutcome::Response(response) => match response.outcome {
                        ServeOutcome::Ok { accounting, body, .. } => {
                            ok += 1;
                            executed_total += accounting.executed;
                            exactly_once &= accounting.exactly_once()
                                && accounting.planned == planned;
                            body_identical &= body == expected_body.as_bytes();
                        }
                        ServeOutcome::Rejected(_) => {}
                    },
                    WaitOutcome::TimedOut => {}
                }
            }
            exactly_once &= executed_total == planned;
            Ok(ServeChaosOutcome {
                seed,
                lane,
                planned,
                expected_ok: burst + 1,
                expected_rejected: 0,
                ok,
                rejected: reports.0.rejected + reports.1.rejected,
                executed_total,
                exactly_once,
                body_identical,
                clean_exit: reports.0.drained
                    && reports.1.drained
                    && crate::fleet::fleet_members(dir).is_empty()
                    && !dir.join(serve::STOP_FILE).exists()
                    && !corpse_work.exists(),
            })
        }
        JournalChaosLane::DeadlineStorm => {
            // Every request in the burst is already expired. Each must
            // be answered with a typed deadline-expired rejection —
            // zero executions, no journal ever created.
            let storm = 3 + (seed as usize % 3);
            for i in 0..storm {
                let mut request = chaos_request(&format!("storm-{i}"));
                request.deadline_unix_ms = Some(1 + rng.range(0, 1000));
                request.priority = (i as i64) - 1;
                serve::submit(dir, &request)?;
            }
            serve_config.max_requests = Some(storm as u64);
            let report = match serve::serve(&serve_config, &service) {
                Ok(report) => report,
                Err(ServeError::AlreadyRunning { .. }) => {
                    return Ok(failed_serve(seed, lane, planned))
                }
                Err(ServeError::Journal(e)) => return Err(e),
            };
            let mut rejected = 0usize;
            for i in 0..storm {
                let expired = matches!(
                    serve::wait(dir, &format!("storm-{i}"), patience, poll)?,
                    WaitOutcome::Response(serve::ServeResponse {
                        outcome: ServeOutcome::Rejected(ref reject),
                        ..
                    }) if reject.kind == serve::RejectKind::DeadlineExpired
                );
                rejected += usize::from(expired);
            }
            Ok(ServeChaosOutcome {
                seed,
                lane,
                planned,
                expected_ok: 0,
                expected_rejected: storm,
                ok: report.served,
                rejected,
                executed_total: 0,
                exactly_once: !dir.join(JOURNAL_FILE).exists(),
                body_identical: true,
                clean_exit: crate::fleet::fleet_members(dir).is_empty(),
            })
        }
        _ => Ok(failed_serve(seed, lane, planned)),
    }
}

/// Stream-splitting constant for tiered-lane rolls (guard-trip
/// ordinals), decorrelated from every other chaos stream.
const TIERED_STREAM: u64 = 0x71E2_ED00_6A2D_7219;

/// The hot-loop Javelin program the tiered lane drives: one loop head
/// that heats past the recording threshold within the first few
/// backedges and then runs a few hundred on-trace iterations — so a
/// guard-trip ordinal rolled in [1, 64] always lands mid-trace.
const TIERED_CHAOS_PROGRAM: &str =
    "void main() { int s = 0; for (int i = 0; i < 300; i++) { s += i; } Native.printInt(s); }";

/// One tiered guard-trip verdict: where the spurious trip fired and
/// whether the engine aborted, blacklisted, and fell back without any
/// observable change.
#[derive(Debug, Clone)]
pub struct TieredChaosOutcome {
    /// The chaos seed.
    pub seed: u64,
    /// The lane (always [`JournalChaosLane::TieredGuardTrip`]).
    pub lane: JournalChaosLane,
    /// The 1-based in-trace guard ordinal the trip fired at.
    pub guard_trip_after: u32,
    /// The faulted run recorded exactly one abort — the trip was taken.
    pub trace_aborted: bool,
    /// The aborted anchor stayed blacklisted: the trace was recorded
    /// once and never re-recorded after the abort.
    pub blacklisted: bool,
    /// Console output of the faulted tiered run is byte-identical to
    /// the never-tiered (naive) run.
    pub output_identical: bool,
    /// Virtual-command counts agree with the never-tiered run.
    pub commands_identical: bool,
}

impl TieredChaosOutcome {
    /// True iff the trip was taken, the anchor stayed dead, and nothing
    /// observable changed.
    pub fn passed(&self) -> bool {
        self.trace_aborted
            && self.blacklisted
            && self.output_identical
            && self.commands_identical
    }
}

/// One tiered run of the lane's fixed program; `None` if the engine
/// errored (which the oracle grades as failure).
fn tiered_probe(
    strategy: DispatchStrategy,
    fault: DispatchFault,
) -> Option<(String, RunStats)> {
    try_run_source_dispatch(
        Language::Javelin,
        TIERED_CHAOS_PROGRAM,
        Limits::guarded(),
        strategy,
        fault,
        NullSink,
    )
    .ok()
    .map(|r| (r.console, r.stats))
}

/// Run one tiered guard-trip round: a never-tiered baseline, then the
/// same program tiered with a seed-rolled spurious guard trip, graded
/// for abort + blacklist + byte-identical fallback.
fn tiered_chaos_seed(seed: u64, lane: JournalChaosLane) -> TieredChaosOutcome {
    let mut rng = Rng64::new(seed ^ TIERED_STREAM);
    let after = rng.range(1, 64) as u32;
    let failed = TieredChaosOutcome {
        seed,
        lane,
        guard_trip_after: after,
        trace_aborted: false,
        blacklisted: false,
        output_identical: false,
        commands_identical: false,
    };
    let Some((naive_out, naive_stats)) =
        tiered_probe(DispatchStrategy::Naive, DispatchFault::None)
    else {
        return failed;
    };
    let Some((tiered_out, tiered_stats)) = tiered_probe(
        DispatchStrategy::Tiered,
        DispatchFault::TraceGuardTrip { after },
    ) else {
        return failed;
    };
    TieredChaosOutcome {
        seed,
        lane,
        guard_trip_after: after,
        trace_aborted: tiered_stats.trace_aborts >= 1,
        blacklisted: tiered_stats.traces_recorded == 1,
        output_identical: tiered_out == naive_out,
        commands_identical: tiered_stats.commands == naive_stats.commands,
    }
}

/// One line per tiered round, shape-stable with the other renders.
pub fn render_tiered_chaos(outcome: &TieredChaosOutcome) -> String {
    format!(
        "journal-chaos seed {}: lane {} -> trip guard #{}: aborted={} blacklisted={} output-identical={} commands-identical={} [{}]",
        outcome.seed,
        outcome.lane.label(),
        outcome.guard_trip_after,
        outcome.trace_aborted,
        outcome.blacklisted,
        outcome.output_identical,
        outcome.commands_identical,
        if outcome.passed() { "ok" } else { "FAIL" },
    )
}

/// Grade one resumed run against the corruption oracle.
fn grade_outcome(
    plan: &Plan,
    seed: u64,
    corruption: JournalCorruption,
    executed: &ExecutedPlan,
    report: &ResumeReport,
    path: &Path,
    baseline: &BTreeMap<RunRequest, u64>,
) -> JournalChaosOutcome {
    let detected = report
        .defects
        .iter()
        .any(|d| d.kind == corruption.expected_kind);
    let classified = report
        .defects
        .iter()
        .all(|d| d.kind == corruption.expected_kind);
    let resumed = content_hashes(plan, executed);
    let store_intact = resumed == *baseline;
    let journal_healed = match std::fs::read(path) {
        Ok(bytes) => {
            let reloaded = journal::load_bytes(&bytes, crate::fingerprint::current_epoch());
            reloaded.defects.is_empty()
                && plan
                    .requests()
                    .iter()
                    .all(|r| reloaded.records.contains_key(&r.fingerprint()))
        }
        Err(_) => false,
    };
    JournalChaosOutcome {
        seed,
        corruption,
        detected,
        classified,
        requeued: report.executed,
        store_intact,
        journal_healed,
    }
}

/// Content hash of every planned artifact (0 marks a degraded slot, so
/// a degraded resume can never masquerade as a match).
fn content_hashes(plan: &Plan, executed: &ExecutedPlan) -> BTreeMap<RunRequest, u64> {
    plan.requests()
        .iter()
        .map(|request| {
            let hash = match executed.store.resolve(request) {
                Ok(artifact) => artifact.content_hash(),
                Err(_) => 0,
            };
            (*request, hash)
        })
        .collect()
}

/// One line per journal-chaos round, stable across job counts:
/// the seed, the lane, the oracle, and the verdict.
pub fn render_journal_chaos(outcome: &JournalChaosOutcome) -> String {
    format!(
        "journal-chaos seed {}: lane {} -> expect {} ({} requeued): detected={} classified={} requeued={} store-intact={} healed={} [{}]",
        outcome.seed,
        outcome.corruption.lane.label(),
        outcome.corruption.expected_kind.label(),
        outcome.corruption.expected_requeued,
        outcome.detected,
        outcome.classified,
        outcome.requeued,
        outcome.store_intact,
        outcome.journal_healed,
        if outcome.passed() { "ok" } else { "FAIL" },
    )
}

fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in s.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp_core::{Scale, WorkloadId};

    fn small_plan() -> Plan {
        // Two fast macros plus two micros: covers guest-fault lanes
        // (macro-only) and the micro remapping, while staying quick.
        Plan::build([
            RunRequest::counting(WorkloadId::macro_bench(Language::Mipsi, "des", Scale::Test)),
            RunRequest::counting(WorkloadId::macro_bench(Language::Tclite, "des", Scale::Test)),
            RunRequest::counting(WorkloadId::micro(Language::C, "a=b+c", Scale::Test)),
            RunRequest::counting(WorkloadId::micro(Language::Perlite, "call", Scale::Test)),
        ])
    }

    #[test]
    fn lanes_are_deterministic_and_micros_never_guest_fault() {
        let plan = small_plan();
        for seed in 0..64 {
            for request in plan.requests() {
                let first = lane(seed, request);
                assert_eq!(first, lane(seed, request), "seed {seed} {request}");
                if request.workload.kind == WorkloadKind::Micro {
                    assert!(
                        !matches!(
                            first,
                            ChaosLane::FlakyGuestFault | ChaosLane::PersistentGuestFault
                        ),
                        "seed {seed} {request}: micro rolled a guest-fault lane"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_space_is_covered_across_seeds() {
        let plan = small_plan();
        let mut seen = Vec::new();
        for seed in 0..256 {
            for request in plan.requests() {
                let l = lane(seed, request);
                if !seen.contains(&l) {
                    seen.push(l);
                }
            }
        }
        for expected in [
            ChaosLane::Clean,
            ChaosLane::FlakyGuestFault,
            ChaosLane::PersistentGuestFault,
            ChaosLane::WorkerStall,
            ChaosLane::ArtifactDrop,
            ChaosLane::WorkerPanic,
        ] {
            assert!(seen.contains(&expected), "lane {expected:?} never rolled");
        }
    }

    #[test]
    fn tiered_guard_trip_lane_aborts_blacklists_and_stays_byte_identical() {
        // Several seeds → several trip ordinals; every round must take
        // the trip, hold the blacklist, and change nothing observable.
        // Rounds are pure functions of the seed, so the rendered line is
        // stable across invocations (and job counts, trivially: the lane
        // runs in-process).
        for seed in [12u64, 28, 44] {
            assert_eq!(journal_lane(seed), JournalChaosLane::TieredGuardTrip);
            let outcome = tiered_chaos_seed(seed, JournalChaosLane::TieredGuardTrip);
            assert!(
                outcome.passed(),
                "seed {seed}: {}",
                render_tiered_chaos(&outcome)
            );
            let again = tiered_chaos_seed(seed, JournalChaosLane::TieredGuardTrip);
            assert_eq!(
                render_tiered_chaos(&outcome),
                render_tiered_chaos(&again),
                "seed {seed}: tiered round not deterministic"
            );
        }
    }

    #[test]
    fn fleet_lanes_hold_their_oracles() {
        // Seeds 13–15 land on the three fleet lanes: member kill
        // (heartbeat-age failover), orphan adoption under two racing
        // daemons, and the deadline storm. Each must meet its oracle
        // end to end — failover with byte-identical responses,
        // exactly-once adoption, typed rejections with no journal.
        let plan = journal_chaos_plan();
        let config = SuperviseConfig::new();
        let dir = std::env::temp_dir().join(format!(
            "interp-fleet-chaos-{}-{}",
            std::process::id(),
            crate::lease::fresh_token()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let (pristine, baseline) =
            journal_chaos_baseline(&plan, 2, &config, &dir).expect("baseline");
        for seed in [13u64, 14, 15] {
            let lane = journal_lane(seed);
            assert!(lane.is_serve(), "seed {seed} must land on a fleet lane");
            let verdict =
                journal_chaos_seed(&plan, 2, seed, &config, &dir, &pristine, &baseline)
                    .expect("round");
            assert!(
                verdict.passed(),
                "seed {seed} ({}): {}",
                lane.label(),
                verdict.render()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_execution_is_complete_and_job_count_invariant() {
        let plan = small_plan();
        let config = SuperviseConfig::new().with_retries(1);
        // Seeds chosen to exercise several lanes; every planned request
        // must resolve (Ok or Degraded — never missing), and the summary
        // must be byte-identical across job counts.
        for seed in [0u64, 3, 7] {
            let serial = with_quiet_injected_panics(|| chaos_execute(&plan, 1, seed, &config));
            let parallel =
                with_quiet_injected_panics(|| chaos_execute(&plan, 4, seed, &config));
            for request in plan.requests() {
                assert!(
                    !matches!(
                        serial.store.resolve(request),
                        Err(crate::ResolveError::Unplanned(_))
                    ),
                    "seed {seed}: {request} went missing"
                );
            }
            assert_eq!(
                render_chaos_summary(seed, &serial),
                render_chaos_summary(seed, &parallel),
                "seed {seed}: chaos summary depends on job count"
            );
        }
    }
}
