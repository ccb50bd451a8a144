//! `interp-count`: every distinct (workload, dispatch tier) pair of the
//! paper suite plus seeded conformance programs on all five engines,
//! all under the counting sink (`NullSink`) on the run-plan pool.
//!
//! `archsim` does no work here, so engine and `host` changes show and
//! sink changes must not. Each pair's counters are checked against the
//! paper-cold artifact of the same workload and tier (a timing-sink
//! run, computed once per invocation before measuring); each
//! conformance run is checked against the reference evaluator.

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;

use interp_conformance::{eval, generate, lower, LowerOptions};
use interp_core::{
    ByteWriter, ConsoleDigest, DispatchFault, DispatchStrategy, Language, NullSink, Phase,
    RunArtifact, RunRequest, SinkKind,
};
use interp_guard::Limits;
use interp_harness::experiments::all_requests;
use interp_harness::Scale;
use interp_runplan::{
    execute_supervised, run_concurrently, supervise_with, try_run_request, ArtifactStore,
    ExecutedPlan, Plan, SuperviseConfig,
};
use interp_workloads::{macro_suite, try_run_source_dispatch};

use crate::measure::Unit;
use crate::paper_cold::{engine_name, engine_span};
use crate::trace::Tracer;
use crate::JOBS;

/// Lowered source, in bytes summed over the five engines, that the
/// seeded conformance programs of a pass add up to: programs are
/// generated until their sources reach it (about 16 programs).
/// Lowering is most of the set-up, so a budget rather than a count
/// keeps the set-up's work about the same for every seed.
const SOURCE_BUDGET: usize = 120_000;

/// Most conformance programs a pass takes, whatever their size.
const MAX_PROGRAMS: u64 = 64;

/// One conformance engine run: a lowered program on one engine tier.
pub struct Case {
    language: Language,
    strategy: DispatchStrategy,
    source: String,
    expected: ConsoleDigest,
}

/// What a pass needs before it starts.
pub struct Setup {
    /// Counting requests, one per distinct (workload, tier) pair.
    pub plan: Plan,
    /// Seeded conformance engine runs.
    pub cases: Vec<Case>,
}

/// The counting pairs: every distinct (workload, tier) of the paper
/// plan.
fn pairs() -> Vec<RunRequest> {
    let set: BTreeSet<RunRequest> = Plan::build(all_requests(Scale::Test))
        .requests()
        .iter()
        .map(|r| RunRequest::counting(r.workload).with_dispatch(r.dispatch))
        .collect();
    set.into_iter().collect()
}

/// Generate the seeded programs and the pair plan.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let mut cases = Vec::new();
    let mut bytes = 0;
    for i in 0..MAX_PROGRAMS {
        if bytes >= SOURCE_BUDGET {
            break;
        }
        let program = generate(seed.wrapping_mul(1_000_003).wrapping_add(i));
        let expected = eval(&program).map_err(|e| format!("generated program rejected: {e}"))?;
        let expected = ConsoleDigest::of(&expected);
        for language in Language::ALL {
            let source = lower(&program, language, &LowerOptions::default());
            bytes += source.len();
            for &strategy in DispatchStrategy::supported_by(language) {
                cases.push(Case {
                    language,
                    strategy,
                    source: source.clone(),
                    expected,
                });
            }
        }
    }
    Ok(Setup {
        plan: Plan::build(pairs()),
        cases,
    })
}

/// For each pair, the paper plan's run of that workload and tier on the
/// cheapest timing sink.
fn paper_runs() -> Vec<RunRequest> {
    let paper = Plan::build(all_requests(Scale::Test));
    let cost = |sink: SinkKind| match sink {
        SinkKind::Counting | SinkKind::Pipeline => 0,
        SinkKind::PipelineWideItlb => 1,
        SinkKind::ICacheSweep => 2,
    };
    pairs()
        .into_iter()
        .filter_map(|pair| {
            paper
                .requests()
                .iter()
                .filter(|r| r.workload == pair.workload && r.dispatch == pair.dispatch)
                .min_by_key(|r| cost(r.sink))
                .copied()
        })
        .collect()
}

/// The paper-cold artifacts the pairs are checked against, keyed by
/// pair, taken from a store holding the paper plan's runs.
pub fn reference_from(paper: &ArtifactStore) -> ArtifactStore {
    let mut store = ArtifactStore::new();
    for request in paper_runs() {
        if let Some(artifact) = paper.get(&request) {
            let pair = RunRequest::counting(request.workload).with_dispatch(request.dispatch);
            store.insert(pair, artifact.clone());
        }
    }
    store
}

/// Execute the paper runs the pairs are checked against.
pub fn reference() -> ArtifactStore {
    let plan = Plan::build(paper_runs());
    reference_from(&execute_supervised(&plan, JOBS, &SuperviseConfig::new()).store)
}

fn stats_bytes(artifact: &RunArtifact) -> Vec<u8> {
    let mut w = ByteWriter::new();
    artifact.stats.encode_into(&mut w);
    w.into_bytes()
}

/// One engine call as the traced run saw it.
#[derive(Debug, Clone)]
pub struct EngineSample {
    /// Engine crate name.
    pub engine: &'static str,
    /// Seconds in the engine.
    pub secs: f64,
    /// Simulated instructions retired.
    pub insns: u64,
    /// The paper request, or `None` for a conformance program.
    pub request: Option<RunRequest>,
}

/// Run the pairs and the conformance cases once, checking every output.
pub fn pass(
    setup: &Setup,
    reference: &ArtifactStore,
    tracer: Option<&Tracer>,
) -> (Unit, Vec<EngineSample>, ExecutedPlan) {
    let started = Instant::now();
    let root = tracer.map_or(0, Tracer::id);
    let log = Mutex::new(Vec::new());
    let pool_start = Instant::now();
    let executed = match tracer {
        None => execute_supervised(&setup.plan, JOBS, &SuperviseConfig::new()),
        Some(t) => {
            let pool_id = t.id();
            let executed = supervise_with(
                &setup.plan,
                JOBS,
                &SuperviseConfig::new(),
                |request, attempt| {
                    let start = Instant::now();
                    let result = try_run_request(request, Limits::unlimited());
                    let end = Instant::now();
                    t.record(
                        pool_id,
                        engine_span(request),
                        request.fingerprint(),
                        start,
                        end,
                    );
                    if let Ok(artifact) = &result {
                        log.lock().expect("engine log poisoned").push(EngineSample {
                            engine: engine_name(request.workload.language),
                            secs: (end - start).as_secs_f64(),
                            insns: artifact.stats.instructions,
                            request: Some(*request),
                        });
                    }
                    result.map_err(|e| {
                        interp_runplan::pool::classify_guard_failure(e, attempt, false)
                    })
                },
            );
            t.record_as(pool_id, root, "runplan.pool", 0, pool_start, Instant::now());
            executed
        }
    };
    let conform_start = Instant::now();
    let conform_id = tracer.map_or(0, Tracer::id);
    let outcomes = run_concurrently(&setup.cases, JOBS, |case| {
        let start = Instant::now();
        let result = try_run_source_dispatch(
            case.language,
            &case.source,
            Limits::guarded(),
            case.strategy,
            DispatchFault::None,
            NullSink,
        );
        let end = Instant::now();
        if let Some(t) = tracer {
            let name = format!("engine.{}", engine_name(case.language));
            t.record(conform_id, name, 0, start, end);
        }
        let secs = (end - start).as_secs_f64();
        result
            .map(|r| (secs, r.stats.instructions, ConsoleDigest::of(&r.console)))
            .map_err(|e| e.to_string())
    });
    let wall = started.elapsed();
    if let Some(t) = tracer {
        t.record_as(
            conform_id,
            root,
            "conformance.pool",
            0,
            conform_start,
            Instant::now(),
        );
        t.record_as(root, 0, "interp-count.pass", 0, started, Instant::now());
    }

    // Latencies are the paper pairs' runs only: the seeded programs
    // change with the seed, and the latency distribution should not.
    let mut unit = Unit {
        wall,
        latencies: executed
            .timings
            .iter()
            .map(|t| t.duration.as_secs_f64())
            .collect(),
        ..Unit::default()
    };
    let mut samples = log.into_inner().expect("engine log poisoned");
    for request in setup.plan.requests() {
        unit.attempted += 1;
        let (Ok(got), Ok(want)) = (executed.store.resolve(request), reference.resolve(request))
        else {
            unit.failed += 1;
            unit.problems.push(format!(
                "run {request} degraded or has no paper-cold artifact"
            ));
            continue;
        };
        unit.sim_insns += got.stats.instructions;
        if stats_bytes(got) != stats_bytes(want) || got.console != want.console {
            unit.failed += 1;
            unit.problems
                .push(format!("run {request} counters differ from paper-cold"));
        }
    }
    for (case, outcome) in setup.cases.iter().zip(outcomes) {
        unit.attempted += 1;
        match outcome {
            Some(Ok((secs, insns, digest))) if digest == case.expected => {
                unit.sim_insns += insns;
                samples.push(EngineSample {
                    engine: engine_name(case.language),
                    secs,
                    insns,
                    request: None,
                });
            }
            other => {
                unit.failed += 1;
                let why = match other {
                    Some(Err(e)) => e,
                    None => "panicked".to_string(),
                    Some(Ok(_)) => "console differs from the reference evaluator".to_string(),
                };
                unit.problems.push(format!(
                    "conformance {}+{}: {why}",
                    case.language.tag(),
                    case.strategy.label()
                ));
            }
        }
    }
    (unit, samples, executed)
}

/// Suite insns/cmd of one engine under one tier: steady-state native
/// instructions, fetch/decode instructions, and commands summed over
/// the engine's macro suite.
pub fn suite_counts(
    store: &ArtifactStore,
    language: Language,
    strategy: DispatchStrategy,
) -> Option<(u64, u64, u64)> {
    let mut totals = (0u64, 0u64, 0u64);
    for w in macro_suite(Scale::Test)
        .into_iter()
        .filter(|w| w.language == language)
    {
        let artifact = store
            .resolve(&RunRequest::counting(w).with_dispatch(strategy))
            .ok()?;
        totals.0 += artifact.stats.steady_state_instructions();
        totals.1 += artifact.stats.phase_instructions(Phase::FetchDecode);
        totals.2 += artifact.stats.commands;
    }
    Some(totals)
}

/// `(engine, tier, insns/cmd)` for every supported tier of every
/// interpreter, in dispatch-table order.
pub fn dispatch_rows(store: &ArtifactStore) -> Vec<(&'static str, &'static str, f64)> {
    let mut rows = Vec::new();
    for language in Language::ALL.into_iter().filter(|l| *l != Language::C) {
        for &strategy in DispatchStrategy::supported_by(language) {
            if let Some((steady, _, commands)) = suite_counts(store, language, strategy) {
                rows.push((
                    engine_name(language),
                    strategy.label(),
                    steady as f64 / commands.max(1) as f64,
                ));
            }
        }
    }
    rows
}
