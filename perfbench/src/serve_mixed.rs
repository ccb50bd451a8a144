//! `serve-mixed`: one in-process `repro serve` daemon and one
//! closed-loop client over a warm cache. Not a workload of
//! `BENCHMARK.json`; the traced run uses its rounds to measure the
//! journal, serve and render layers.
//!
//! The warm journal is built once per invocation from a seeded share of
//! the served targets' runs; each round copies it into a fresh cache
//! directory and starts a daemon there (the round's set-up). The client
//! then sends the round's requests one at a time, each waiting for the
//! previous response. Hits exercise journal, lock, serve and render
//! costs; the first request of a target with cold runs executes them
//! and appends to the journal, which puts the write path in the tail.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use interp_core::{RunRequest, SinkKind};
use interp_guard::Rng64;
use interp_harness::experiments::{render_target, requests_for, ExperimentService};
use interp_harness::Scale;
use interp_runplan::serve::{PlanService, Reject, ServeRequest};
use interp_runplan::{
    execute_journaled_with, execute_supervised, live_member, request_stop, serve, submit, wait,
    ExecutedPlan, JournalConfig, Plan, RunFailure, ServeConfig, ServeOutcome, ServeReport,
    SuperviseConfig, WaitOutcome,
};

use crate::measure::Unit;
use crate::trace::Tracer;
use crate::JOBS;

/// Targets the client asks for, with how many requests each gets per
/// round. Every request names one target.
const ROUND_MIX: [(&str, usize); 5] = [
    ("table1", 3),
    ("table3", 2),
    ("fig1", 2),
    ("fig2", 2),
    ("memmodel", 3),
];

/// One run in each group of this many (of similar simulated length)
/// starts cold.
const COLD_GROUP: usize = 2;

/// How long the client waits for one response before counting it
/// failed.
const WAIT_TIMEOUT: Duration = Duration::from_secs(60);

/// Daemon inbox poll, and the client's outbox poll.
const POLL: Duration = Duration::from_millis(1);

/// Wait for the response to `id` by repeating `wait` with a one-poll
/// timeout. A single long `wait` backs off exponentially, so a response
/// would be seen up to twice as late as it landed; repeating short waits
/// keeps the client's view of the daemon's latency within one poll.
fn wait_closely(dir: &Path, id: &str) -> Result<WaitOutcome, String> {
    let deadline = Instant::now() + WAIT_TIMEOUT;
    loop {
        match wait(dir, id, POLL, POLL).map_err(|e| e.to_string())? {
            WaitOutcome::TimedOut if Instant::now() < deadline => {}
            outcome => return Ok(outcome),
        }
    }
}

/// The invocation's warm cache and the expected response bodies.
pub struct Setup {
    /// Directory the rounds' caches live under.
    pub root: PathBuf,
    /// The warm journal every round starts from.
    pub template: PathBuf,
    /// Batch render of each served target.
    pub expected: BTreeMap<&'static str, String>,
}

fn served_plan() -> Plan {
    Plan::build(
        ROUND_MIX
            .iter()
            .flat_map(|(t, _)| requests_for(t, Scale::Test)),
    )
}

/// Execute the served targets once, render the expected bodies, pick
/// the cold runs from `seed` and journal the rest into the template.
pub fn setup(seed: u64, root: &Path) -> Result<Setup, String> {
    let plan = served_plan();
    let executed = execute_supervised(&plan, JOBS, &SuperviseConfig::new());
    if executed.is_degraded() {
        return Err(interp_runplan::render_failures(&executed));
    }
    let expected = ROUND_MIX
        .iter()
        .map(|(t, _)| (*t, render_target(t, &executed.store, Scale::Test)))
        .collect();

    // Cold runs: only the figure family's counting runs, so every cold
    // run falls to the first fig1/fig2/memmodel request of a round.
    // Sorted by simulated length, the longer half stays warm and one
    // run of each consecutive pair of the shorter half starts cold, so
    // every seed's cold share costs about the same.
    let mut rng = Rng64::new(seed ^ 0x5e57_e11a_u64);
    let mut runs: Vec<(u64, RunRequest)> = plan
        .requests()
        .iter()
        .filter(|r| r.sink == SinkKind::Counting)
        .filter_map(|r| executed.store.get(r).map(|a| (a.stats.instructions, *r)))
        .collect();
    runs.sort();
    runs.truncate(runs.len() / 2);
    let cold: BTreeSet<RunRequest> = runs
        .chunks(COLD_GROUP)
        .map(|group| group[rng.index(0, group.len())].1)
        .collect();

    let template_dir = root.join("template");
    std::fs::create_dir_all(&template_dir)
        .map_err(|e| format!("{}: {e}", template_dir.display()))?;
    let warm = Plan::build(
        plan.requests()
            .iter()
            .copied()
            .filter(|r| !cold.contains(r)),
    );
    let store = &executed.store;
    execute_journaled_with(
        &warm,
        1,
        &SuperviseConfig::new(),
        &JournalConfig::new(&template_dir),
        |request, attempt| {
            store
                .get(request)
                .cloned()
                .ok_or_else(|| RunFailure::faulted(attempt, "missing from the reference store"))
        },
    )
    .map_err(|e| e.to_string())?;
    Ok(Setup {
        root: root.to_path_buf(),
        template: template_dir.join(interp_runplan::journal::JOURNAL_FILE),
        expected,
    })
}

/// One `PlanService` call pair as the timing wrapper saw it.
#[derive(Debug, Clone)]
pub struct ServiceEvent {
    /// Request id.
    pub id: String,
    /// `plan` call bounds.
    pub plan: (Instant, Instant),
    /// `render` call bounds.
    pub render: (Instant, Instant),
    /// Executed plan wall time minus its summed run durations (s).
    pub journal_overhead_s: f64,
    /// Runs executed (journal misses).
    pub executed: usize,
    /// Runs in the plan.
    pub planned: usize,
    /// Simulated instructions the executed runs retired.
    pub insns: u64,
}

/// [`ExperimentService`] with its two calls timed.
struct TimedService {
    plans: Mutex<BTreeMap<String, (Instant, Instant)>>,
    events: Mutex<Vec<ServiceEvent>>,
}

impl PlanService for TimedService {
    fn plan(&self, request: &ServeRequest) -> Result<Plan, Reject> {
        let start = Instant::now();
        let plan = ExperimentService.plan(request);
        let span = (start, Instant::now());
        self.plans
            .lock()
            .expect("plan log poisoned")
            .insert(request.id.clone(), span);
        plan
    }

    fn render(&self, request: &ServeRequest, executed: &ExecutedPlan) -> String {
        let start = Instant::now();
        let body = ExperimentService.render(request, executed);
        let end = Instant::now();
        let ran: Vec<_> = executed.timings.iter().filter(|t| t.attempts > 0).collect();
        let insns = ran
            .iter()
            .filter_map(|t| executed.store.get(&t.request))
            .map(|a| a.stats.instructions)
            .sum();
        let plan = self
            .plans
            .lock()
            .expect("plan log poisoned")
            .remove(&request.id)
            .unwrap_or((start, start));
        self.events
            .lock()
            .expect("event log poisoned")
            .push(ServiceEvent {
                id: request.id.clone(),
                plan,
                render: (start, end),
                journal_overhead_s: (executed.wall.as_secs_f64()
                    - executed.cpu_time().as_secs_f64())
                .max(0.0),
                executed: ran.len(),
                planned: executed.timings.len(),
                insns,
            });
        body
    }
}

/// The trace's request id of a serve request.
fn request_id(id: &str) -> u64 {
    interp_core::serial::fnv1a(id.as_bytes())
}

/// One client request as the client saw it.
#[derive(Debug, Clone)]
pub struct ClientEvent {
    /// Request id.
    pub id: String,
    /// `submit` call start.
    pub submitted: Instant,
    /// `wait` return.
    pub answered: Instant,
    /// The request's span (0 untraced).
    pub span: u64,
}

/// What a traced round adds to its [`Unit`].
#[derive(Debug, Default)]
pub struct RoundTrace {
    /// Client-side view of each request.
    pub client: Vec<ClientEvent>,
    /// Daemon-side view of each served request.
    pub service: Vec<ServiceEvent>,
    /// The daemon's own report.
    pub report: ServeReport,
}

/// The round's request stream: the fixed mix in seeded order.
fn stream(rng: &mut Rng64) -> Vec<&'static str> {
    let mut targets: Vec<&'static str> = ROUND_MIX
        .iter()
        .flat_map(|&(t, n)| std::iter::repeat_n(t, n))
        .collect();
    for i in (1..targets.len()).rev() {
        targets.swap(i, rng.index(0, i + 1));
    }
    targets
}

/// Serve one round on a fresh copy of the warm cache. Returns the
/// measured unit and what the trace needs.
pub fn round(
    setup: &Setup,
    index: usize,
    rng: &mut Rng64,
    tracer: Option<&Tracer>,
) -> (Unit, RoundTrace) {
    let mut unit = Unit::default();
    let mut trace = RoundTrace::default();
    let targets = stream(rng);
    let dir = setup.root.join(format!("round-{index}"));
    let service = TimedService {
        plans: Mutex::new(BTreeMap::new()),
        events: Mutex::new(Vec::new()),
    };
    let setup_start = Instant::now();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::copy(
            &setup.template,
            dir.join(interp_runplan::journal::JOURNAL_FILE),
        )
    }) {
        let unit = Unit::failure(format!("cannot copy the warm cache: {e}"));
        return (unit, trace);
    }
    let mut config = ServeConfig::new(&dir);
    config.jobs = 1;
    config.serve_jobs = 1;
    config.poll = POLL;
    config.max_requests = Some(targets.len() as u64);
    let root_id = tracer.map_or(0, Tracer::id);

    let report = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| serve(&config, &service));
        while live_member(&dir).is_none() && !daemon.is_finished() {
            std::thread::sleep(Duration::from_micros(20));
        }
        if let Some(t) = tracer {
            t.record(root_id, "serve.setup", 0, setup_start, Instant::now());
        }
        let started = Instant::now();
        for (i, &target) in targets.iter().enumerate() {
            unit.attempted += 1;
            let id = format!("r{index}-{i}-{target}");
            let request = ServeRequest::new(id.clone(), &[target], Scale::Test);
            let submitted = Instant::now();
            let answer = submit(&dir, &request)
                .map_err(|e| e.to_string())
                .and_then(|_| wait_closely(&dir, &id));
            let answered = Instant::now();
            let problem = match answer {
                Ok(WaitOutcome::Response(response)) => match response.outcome {
                    ServeOutcome::Ok {
                        degraded: false,
                        body,
                        ..
                    } if setup.expected.get(target).map(String::as_bytes) == Some(&body[..]) => {
                        None
                    }
                    ServeOutcome::Ok { degraded: true, .. } => Some("degraded".to_string()),
                    ServeOutcome::Ok { .. } => {
                        Some("body differs from the batch render".to_string())
                    }
                    ServeOutcome::Rejected(reject) => Some(format!("rejected: {reject}")),
                },
                Ok(WaitOutcome::TimedOut) => Some("timed out".to_string()),
                Err(e) => Some(e),
            };
            match problem {
                None => unit.latencies.push((answered - submitted).as_secs_f64()),
                Some(why) => {
                    unit.failed += 1;
                    unit.problems.push(format!("request {id}: {why}"));
                }
            }
            let span = tracer.map_or(0, |t| {
                t.record(
                    root_id,
                    "serve.request",
                    request_id(&id),
                    submitted,
                    answered,
                )
            });
            trace.client.push(ClientEvent {
                id,
                submitted,
                answered,
                span,
            });
        }
        unit.wall = started.elapsed();
        // The daemon stops by itself after the last response; the stop
        // marker only matters if a request went unanswered.
        let _ = request_stop(&dir);
        daemon.join()
    });
    match report {
        Ok(Ok(report)) => trace.report = report,
        Ok(Err(e)) => {
            unit.failed += 1;
            unit.problems.push(format!("daemon failed: {e}"));
        }
        Err(_) => {
            unit.failed += 1;
            unit.problems.push("daemon panicked".to_string());
        }
    }
    trace.service = service.events.into_inner().expect("event log poisoned");
    unit.sim_insns = trace.service.iter().map(|e| e.insns).sum();
    if let Some(t) = tracer {
        for e in &trace.service {
            let parent = trace
                .client
                .iter()
                .find(|c| c.id == e.id)
                .map_or(root_id, |c| c.span);
            let fp = request_id(&e.id);
            t.record(parent, "runplan.serve.plan", fp, e.plan.0, e.plan.1);
            t.record(parent, "runplan.journal.execute", fp, e.plan.1, e.render.0);
            t.record(parent, "harness.render", fp, e.render.0, e.render.1);
        }
        t.record_as(
            root_id,
            0,
            "serve-mixed.round",
            0,
            setup_start,
            Instant::now(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    (unit, trace)
}
