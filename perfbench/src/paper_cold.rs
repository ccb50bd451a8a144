//! `paper-cold`: the full `repro all` plan at test scale, executed into
//! an in-memory store on the benchmark's worker count, every render
//! byte-compared against the committed goldens.
//!
//! The inputs are the paper's fixed suite, so this workload ignores
//! the seed.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use interp_archsim::{CacheSweep, PipelineReport, PipelineSim, SimConfig, StallCause};
use interp_core::{
    CycleSummary, RunArtifact, RunRequest, SinkKind, StallShare, SweepPointSummary, TraceSink,
};
use interp_guard::{GuardError, Limits};
use interp_harness::experiments::{all_requests, render_target, TARGETS};
use interp_harness::Scale;
use interp_runplan::pool::classify_guard_failure;
use interp_runplan::{execute_supervised, supervise_with, ExecutedPlan, Plan, SuperviseConfig};
use interp_workloads::{RunResult, Runner};

use crate::measure::Unit;
use crate::sink::{Flush, Timed};
use crate::trace::{SpanId, Tracer};
use crate::JOBS;

/// Each golden file and the targets whose renders it concatenates, in
/// `repro all` order (`table3` renders constants and has no golden).
const GOLDENS: [(&str, &[&str]); 8] = [
    ("table1", &["table1"]),
    ("table2", &["table2"]),
    ("figures", &["fig1", "fig2"]),
    ("memmodel", &["memmodel"]),
    ("arch", &["fig3", "fig4"]),
    ("dispatch", &["dispatch"]),
    ("tiered", &["tiered"]),
    ("ablations", &["ablations"]),
];

/// What one batch needs before it starts.
pub struct Setup {
    /// Raw requests the experiments contribute (before dedup).
    pub requests: usize,
    /// The deduplicated plan.
    pub plan: Plan,
    /// Seconds `Plan::build` took.
    pub build_s: f64,
    /// Golden name and expected bytes.
    pub goldens: Vec<(&'static str, String)>,
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../crates/harness/goldens")
        .join(format!("{name}.golden.txt"))
}

/// Read the goldens and build the plan.
pub fn setup() -> Result<Setup, String> {
    let mut goldens = Vec::new();
    for (name, _) in GOLDENS {
        let path = golden_path(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
        goldens.push((name, text));
    }
    let requests = all_requests(Scale::Test);
    let count = requests.len();
    let started = Instant::now();
    let plan = Plan::build(requests);
    Ok(Setup {
        requests: count,
        plan,
        build_s: started.elapsed().as_secs_f64(),
        goldens,
    })
}

/// How a traced batch spent its time, beyond the spans.
#[derive(Debug, Default)]
pub struct BatchTrace {
    /// Every executed run: request, engine span bounds, sink replays.
    pub runs: Vec<RunTrace>,
    /// Per target render time (seconds).
    pub renders: Vec<(&'static str, f64)>,
    /// Pool call bounds.
    pub pool: Option<(Instant, Instant)>,
}

/// One traced run.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// The executed request.
    pub request: RunRequest,
    /// Call into the engine: start and end.
    pub start: Instant,
    /// End of the engine call.
    pub end: Instant,
    /// Seconds spent replaying records into the `archsim` sink.
    pub sink_s: f64,
    /// Records the sink consumed.
    pub sink_records: u64,
}

/// Execute the plan and check every render. With a tracer, runs go
/// through [`traced_request`] and the returned [`BatchTrace`] carries
/// the layer timings.
pub fn batch(setup: &Setup, tracer: Option<&Tracer>) -> (Unit, BatchTrace, ExecutedPlan) {
    let mut trace = BatchTrace::default();
    let started = Instant::now();
    let root = tracer.map_or(0, Tracer::id);
    let executed = match tracer {
        None => execute_supervised(&setup.plan, JOBS, &SuperviseConfig::new()),
        Some(t) => {
            let pool_id = t.id();
            let log = Mutex::new(Vec::new());
            let pool_start = Instant::now();
            let executed = supervise_with(
                &setup.plan,
                JOBS,
                &SuperviseConfig::new(),
                |request, attempt| {
                    traced_request(request, t, pool_id, &log)
                        .map_err(|e| classify_guard_failure(e, attempt, false))
                },
            );
            let pool_end = Instant::now();
            t.record_as(pool_id, root, "runplan.pool", 0, pool_start, pool_end);
            trace.pool = Some((pool_start, pool_end));
            trace.runs = log.into_inner().expect("run log poisoned");
            executed
        }
    };
    let mut unit = Unit {
        attempted: executed.timings.len() as u64,
        ..Unit::default()
    };
    for (request, failure) in executed.store.failures() {
        unit.failed += 1;
        unit.problems
            .push(format!("run {request} degraded: {failure}"));
    }
    unit.latencies = executed
        .timings
        .iter()
        .map(|t| t.duration.as_secs_f64())
        .collect();
    unit.sim_insns = setup
        .plan
        .requests()
        .iter()
        .filter_map(|r| executed.store.resolve(r).ok())
        .map(|a| a.stats.instructions)
        .sum();

    let mut rendered: Vec<(&'static str, String)> = Vec::new();
    for (target, _) in TARGETS {
        let begun = Instant::now();
        let text = render_target(target, &executed.store, Scale::Test);
        let end = Instant::now();
        if let Some(t) = tracer {
            t.record(root, format!("harness.render.{target}"), 0, begun, end);
            trace.renders.push((target, (end - begun).as_secs_f64()));
        }
        rendered.push((target, text));
    }
    unit.wall = started.elapsed();
    for ((name, targets), (_, expected)) in GOLDENS.iter().zip(&setup.goldens) {
        let actual: String = targets
            .iter()
            .filter_map(|t| rendered.iter().find(|(n, _)| n == t))
            .map(|(_, text)| text.as_str())
            .collect();
        unit.attempted += 1;
        if actual != *expected {
            unit.failed += 1;
            unit.problems
                .push(format!("render of golden `{name}` differs"));
        }
    }
    if let Some(t) = tracer {
        t.record_as(root, 0, "paper-cold.batch", 0, started, Instant::now());
    }
    (unit, trace, executed)
}

/// [`interp_runplan::try_run_request`] with every `archsim` sink
/// wrapped in the batching timer: the same runner, the same sinks and
/// the same artifact folding, plus an `engine.<lang>` span for the call
/// and one `archsim.<sink>` child span per timed replay.
///
/// This and its helpers are a deliberate copy of the executor's sink
/// dispatch and artifact folding: `runplan` has no public entry point
/// generic over the sink. The golden comparison of every traced batch
/// catches drift; a sink-generic `try_run_request_with` in `runplan`
/// would let this copy go.
pub fn traced_request(
    request: &RunRequest,
    tracer: &Tracer,
    parent: SpanId,
    log: &Mutex<Vec<RunTrace>>,
) -> Result<RunArtifact, GuardError> {
    let id = tracer.id();
    let fp = request.fingerprint();
    let start = Instant::now();
    let folded: Result<(RunArtifact, Vec<Flush>), GuardError> = match request.sink {
        SinkKind::Counting => run_plain(request, interp_core::NullSink),
        SinkKind::Pipeline => {
            try_run(request, Timed::new(PipelineSim::alpha_21064())).map(pipeline)
        }
        SinkKind::PipelineWideItlb => {
            let sim = PipelineSim::new(SimConfig::default().with_itlb_entries(32));
            try_run(request, Timed::new(sim)).map(pipeline)
        }
        SinkKind::ICacheSweep => {
            try_run(request, Timed::new(CacheSweep::figure4())).map(|result| {
                let mut artifact = result.base_artifact();
                let (sweep, flushes) = result.sink.finish();
                artifact.sweep = Some(
                    sweep
                        .points()
                        .into_iter()
                        .map(|p| SweepPointSummary {
                            size_bytes: p.size_bytes,
                            assoc: p.assoc,
                            miss_per_100: p.miss_per_100,
                        })
                        .collect(),
                );
                (artifact, flushes)
            })
        }
    };
    let end = Instant::now();
    let (artifact, flushes) = folded?;
    let sink_name = format!("archsim.{}", sink_layer(request.sink));
    for f in &flushes {
        tracer.record(id, sink_name.as_str(), fp, f.start, f.end);
    }
    tracer.record_as(id, parent, engine_span(request), fp, start, end);
    log.lock().expect("run log poisoned").push(RunTrace {
        request: *request,
        start,
        end,
        sink_s: flushes
            .iter()
            .map(|f| (f.end - f.start).as_secs_f64())
            .sum(),
        sink_records: flushes.iter().map(|f| f.records as u64).sum(),
    });
    Ok(artifact)
}

fn try_run<S: TraceSink>(request: &RunRequest, sink: S) -> Result<RunResult<S>, GuardError> {
    Runner::try_run_dispatch(
        request.workload,
        Limits::unlimited(),
        request.dispatch,
        sink,
    )
}

fn run_plain<S: TraceSink>(
    request: &RunRequest,
    sink: S,
) -> Result<(RunArtifact, Vec<Flush>), GuardError> {
    try_run(request, sink).map(|r| (r.base_artifact(), Vec::new()))
}

fn pipeline(result: RunResult<Timed<PipelineSim>>) -> (RunArtifact, Vec<Flush>) {
    let mut artifact = result.base_artifact();
    let (sim, flushes) = result.sink.finish();
    artifact.cycles = Some(cycle_summary(&sim.report()));
    (artifact, flushes)
}

/// The span name of the engine call a request makes.
pub fn engine_span(request: &RunRequest) -> String {
    format!("engine.{}", engine_name(request.workload.language))
}

/// The engine crate that runs a language.
pub fn engine_name(language: interp_core::Language) -> &'static str {
    match language {
        interp_core::Language::C => "nativeref",
        other => other.tag(),
    }
}

/// The `archsim` layer name of a sink kind.
pub fn sink_layer(sink: SinkKind) -> &'static str {
    match sink {
        SinkKind::Counting => "null",
        SinkKind::Pipeline => "pipeline",
        SinkKind::PipelineWideItlb => "pipeline_itlb32",
        SinkKind::ICacheSweep => "sweep",
    }
}

/// Fold a pipeline report into the sink-independent summary, as the
/// run-plan executor does.
fn cycle_summary(report: &PipelineReport) -> CycleSummary {
    CycleSummary {
        cycles: report.cycles,
        instructions: report.instructions,
        busy_fraction: report.busy_fraction(),
        stalls: StallCause::ALL
            .iter()
            .map(|&cause| StallShare {
                label: cause.label(),
                fraction: report.stall_fraction(cause),
            })
            .collect(),
    }
}
