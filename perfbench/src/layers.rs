//! The traced run: one unit of each workload untraced, then traced,
//! and the per-layer metrics the spans and the wrappers measure.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use interp_core::{Language, RunRequest, SinkKind};
use interp_guard::Rng64;
use interp_runplan::{current_epoch, load_file};

use crate::interp_count::{self, suite_counts, EngineSample};
use crate::measure::{peak_rss_mb, Unit};
use crate::paper_cold::{self, engine_name, sink_layer, RunTrace};
use crate::serve_mixed::{self, RoundTrace};
use crate::stats::median;
use crate::trace::{chrome_json, render_self_times, self_times, Tracer};
use crate::{Report, JOBS};

/// Serve rounds per mode in the traced run.
const SERVE_ROUNDS: usize = 3;

/// Accumulates metrics in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

fn absorb(total: &mut Unit, unit: Unit) {
    total.attempted += unit.attempted;
    total.failed += unit.failed;
    total.problems.extend(unit.problems);
}

/// Run the traced pass over every workload and report every per-layer
/// metric. Spans go to `<out>/trace-<seed>.json`.
pub fn traced(seed: u64, out: &Path, work: &Path) -> Result<Report, String> {
    let tracer = Tracer::new();
    let mut checks = Unit::default();
    let mut m = Metrics::default();
    let mut lines = Vec::new();
    let mut overhead = Vec::new();

    // paper-cold: sinks, pool, plan, renders.
    let builds: Vec<f64> = (0..3)
        .map(|_| paper_cold::setup().map(|s| s.build_s))
        .collect::<Result<_, _>>()?;
    let setup = paper_cold::setup()?;
    let (plain, _, _) = paper_cold::batch(&setup, None);
    let plain_wall = plain.wall.as_secs_f64();
    absorb(&mut checks, plain);
    let (unit, batch, executed) = paper_cold::batch(&setup, Some(&tracer));
    overhead.push(("paper-cold", unit.wall.as_secs_f64() / plain_wall));
    absorb(&mut checks, unit);

    // interp-count: engines under NullSink, checked against the traced
    // paper-cold store.
    let reference = interp_count::reference_from(&executed.store);
    let count_setup = interp_count::setup(seed)?;
    let (plain, _, _) = interp_count::pass(&count_setup, &reference, None);
    let count_plain = plain.wall.as_secs_f64();
    absorb(&mut checks, plain);
    let (unit, samples, counted) = interp_count::pass(&count_setup, &reference, Some(&tracer));
    overhead.push(("interp-count", unit.wall.as_secs_f64() / count_plain));
    absorb(&mut checks, unit);

    // serve-mixed: journal, serve, render.
    let serve_setup = serve_mixed::setup(seed, work)?;
    let mut rng = Rng64::new(seed);
    let mut plain_walls = Vec::new();
    for i in 0..SERVE_ROUNDS {
        let (unit, _) = serve_mixed::round(&serve_setup, i, &mut rng, None);
        plain_walls.push(unit.wall.as_secs_f64());
        absorb(&mut checks, unit);
    }
    let mut traced_walls = Vec::new();
    let mut rounds: Vec<RoundTrace> = Vec::new();
    for i in 0..SERVE_ROUNDS {
        let (unit, round) =
            serve_mixed::round(&serve_setup, SERVE_ROUNDS + i, &mut rng, Some(&tracer));
        traced_walls.push(unit.wall.as_secs_f64());
        rounds.push(round);
        absorb(&mut checks, unit);
    }
    overhead.push(("serve-mixed", median(&traced_walls) / median(&plain_walls)));

    engine_metrics(&mut m, &samples);
    dispatch_metrics(&mut m, &counted.store);
    archsim_metrics(&mut m, &batch.runs, &samples);
    let requests = setup.requests as f64;
    m.put("runplan.plan.build_ms", median(&builds) * 1e3, "ms");
    m.put("runplan.plan.requests", requests, "count");
    m.put("runplan.plan.runs", setup.plan.len() as f64, "count");
    m.put(
        "runplan.plan.reuse_ratio",
        1.0 - setup.plan.len() as f64 / requests,
        "ratio",
    );
    pool_metrics(&mut m, &batch, &executed);
    journal_metrics(&mut m, &serve_setup, &rounds)?;
    serve_metrics(&mut m, &rounds);
    for (target, s) in &batch.renders {
        m.put(format!("harness.render.{target}_ms"), s * 1e3, "ms");
    }
    for (workload, ratio) in &overhead {
        m.put(format!("trace.overhead.{workload}"), *ratio, "ratio");
        lines.push(format!(
            "tracing overhead {workload}: traced/untraced wall = {ratio:.4}"
        ));
    }
    m.put("trace.peak_rss_mb", peak_rss_mb(), "MB");

    let spans = tracer.spans();
    let table = self_times(&spans);
    lines.extend(render_self_times(&table).lines().map(str::to_string));
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("trace-{seed}.json"));
    std::fs::write(&path, chrome_json(&spans)).map_err(|e| format!("{}: {e}", path.display()))?;
    lines.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    for (name, value, unit) in &m.0 {
        lines.push(format!("{name} = {value:.6} {unit}"));
    }
    Ok(Report {
        lines,
        attempted: checks.attempted,
        failed: checks.failed,
        problems: checks.problems,
        metrics: m.0,
    })
}

/// `<engine>.busy_s` and `<engine>.minsns_per_s` under `NullSink`.
fn engine_metrics(m: &mut Metrics, samples: &[EngineSample]) {
    for language in Language::ALL {
        let engine = engine_name(language);
        let (busy, insns) = samples
            .iter()
            .filter(|s| s.engine == engine)
            .fold((0.0, 0u64), |(b, i), s| (b + s.secs, i + s.insns));
        m.put(format!("{engine}.busy_s"), busy, "s");
        m.put(
            format!("{engine}.minsns_per_s"),
            insns as f64 / busy.max(1e-9) / 1e6,
            "M/s",
        );
    }
}

/// Exact simulated counts per engine and tier from the counting store.
fn dispatch_metrics(m: &mut Metrics, store: &interp_runplan::ArtifactStore) {
    let rows = interp_count::dispatch_rows(store);
    for (engine, tier, ipc) in &rows {
        m.put(format!("{engine}.{tier}.insns_per_cmd"), *ipc, "insns/cmd");
    }
    for language in Language::ALL.into_iter().filter(|l| *l != Language::C) {
        let engine = engine_name(language);
        if let Some((steady, fetch, commands)) =
            suite_counts(store, language, interp_core::DispatchStrategy::Naive)
        {
            let commands = commands.max(1) as f64;
            m.put(
                format!("{engine}.fetch_decode_per_cmd"),
                fetch as f64 / commands,
                "insns/cmd",
            );
            m.put(
                format!("{engine}.execute_per_cmd"),
                (steady - fetch) as f64 / commands,
                "insns/cmd",
            );
        }
        let best = rows
            .iter()
            .filter(|(e, _, _)| *e == engine)
            .map(|(_, _, ipc)| *ipc)
            .fold(f64::INFINITY, f64::min);
        m.put(format!("sim_insns_per_cmd.{engine}"), best, "insns/cmd");
    }
}

/// Sink self time from the batching timer, against the same runs'
/// `NullSink` time from interp-count.
fn archsim_metrics(m: &mut Metrics, runs: &[RunTrace], samples: &[EngineSample]) {
    let null: BTreeMap<RunRequest, f64> = samples
        .iter()
        .filter_map(|s| s.request.map(|r| (r, s.secs)))
        .collect();
    for sink in [SinkKind::Pipeline, SinkKind::ICacheSweep] {
        let layer = sink_layer(sink);
        let mine: Vec<&RunTrace> = runs.iter().filter(|r| r.request.sink == sink).collect();
        let busy: f64 = mine.iter().map(|r| r.sink_s).sum();
        let records: u64 = mine.iter().map(|r| r.sink_records).sum();
        let (with, without) = mine.iter().fold((0.0, 0.0), |(w, n), r| {
            let pair = RunRequest::counting(r.request.workload).with_dispatch(r.request.dispatch);
            match null.get(&pair) {
                Some(s) => (w + secs(r.start, r.end), n + s),
                None => (w, n),
            }
        });
        m.put(format!("archsim.{layer}.busy_s"), busy, "s");
        m.put(
            format!("archsim.{layer}.ns_per_insn"),
            busy * 1e9 / records.max(1) as f64,
            "ns",
        );
        m.put(
            format!("archsim.{layer}.slowdown_vs_null"),
            with / f64::max(without, 1e-9),
            "ratio",
        );
        for language in Language::ALL {
            let (s, n) = mine
                .iter()
                .filter(|r| r.request.workload.language == language)
                .fold((0.0, 0u64), |(s, n), r| (s + r.sink_s, n + r.sink_records));
            if n > 0 {
                let engine = engine_name(language);
                m.put(
                    format!("archsim.{layer}.{engine}.minsns_per_s"),
                    n as f64 / s / 1e6,
                    "M/s",
                );
            }
        }
    }
    let itlb: f64 = runs
        .iter()
        .filter(|r| r.request.sink == SinkKind::PipelineWideItlb)
        .map(|r| r.sink_s)
        .sum();
    m.put("archsim.pipeline_itlb32.busy_s", itlb, "s");
}

/// Pool busy time, utilization, straggler tail and queue wait of the
/// traced paper-cold batch.
fn pool_metrics(
    m: &mut Metrics,
    batch: &paper_cold::BatchTrace,
    executed: &interp_runplan::ExecutedPlan,
) {
    let busy = executed.cpu_time().as_secs_f64();
    let (start, end) = batch.pool.unwrap_or((Instant::now(), Instant::now()));
    let wall = secs(start, end);
    let last_start = batch.runs.iter().map(|r| r.start).max().unwrap_or(start);
    let waits: Vec<f64> = batch.runs.iter().map(|r| secs(start, r.start)).collect();
    // Engine-call spans time the same closure as the pool's own
    // `RunTiming`, so their ratio is about 1 by construction: 1 − ratio
    // is the pool's overhead inside a run's timing but outside the
    // engine call, not a check that engine plus sink time accounts for
    // the pool's busy time.
    let engine_and_sink: f64 = batch.runs.iter().map(|r| secs(r.start, r.end)).sum();
    m.put("runplan.pool.busy_s", busy, "s");
    m.put(
        "runplan.pool.utilization",
        busy / (wall * JOBS as f64).max(1e-9),
        "ratio",
    );
    m.put("runplan.pool.tail_s", secs(last_start, end), "s");
    m.put(
        "runplan.pool.queue_wait_s",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
        "s",
    );
    m.put(
        "runplan.pool.attempts",
        executed.timings.iter().map(|t| f64::from(t.attempts)).sum(),
        "count",
    );
    m.put(
        "runplan.pool.failed",
        executed.failure_count() as f64,
        "count",
    );
    m.put(
        "runplan.pool.accounted_ratio",
        engine_and_sink / busy.max(1e-9),
        "ratio",
    );
}

/// Journal size, load time, appends, hit ratio and per-request journal
/// overhead of the traced serve rounds.
fn journal_metrics(
    m: &mut Metrics,
    setup: &serve_mixed::Setup,
    rounds: &[RoundTrace],
) -> Result<(), String> {
    let epoch = current_epoch();
    let loads: Vec<(f64, usize)> = (0..5)
        .map(|_| {
            let started = Instant::now();
            load_file(&setup.template, epoch)
                .map(|j| (started.elapsed().as_secs_f64(), j.records.len()))
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&setup.template)
        .map_err(|e| e.to_string())?
        .len();
    let events: Vec<_> = rounds.iter().flat_map(|r| r.service.iter()).collect();
    let executed: usize = events.iter().map(|e| e.executed).sum();
    let planned: usize = events.iter().map(|e| e.planned).sum();
    let overheads: Vec<f64> = events.iter().map(|e| e.journal_overhead_s).collect();
    let loads_s: Vec<f64> = loads.iter().map(|l| l.0).collect();
    m.put("runplan.journal.load_ms", median(&loads_s) * 1e3, "ms");
    m.put("runplan.journal.bytes", bytes as f64, "B");
    m.put(
        "runplan.journal.records",
        loads.first().map_or(0, |l| l.1) as f64,
        "count",
    );
    m.put("runplan.journal.appends", executed as f64, "count");
    m.put(
        "runplan.journal.hit_ratio",
        1.0 - executed as f64 / planned.max(1) as f64,
        "ratio",
    );
    let p50 = if overheads.is_empty() {
        f64::NAN
    } else {
        median(&overheads)
    };
    m.put("runplan.journal.overhead_p50_ms", p50 * 1e3, "ms");
    m.put(
        "runplan.journal.overhead_max_ms",
        overheads.iter().copied().fold(0.0, f64::max) * 1e3,
        "ms",
    );
    Ok(())
}

/// Admission, execution and response legs of each served request.
fn serve_metrics(m: &mut Metrics, rounds: &[RoundTrace]) {
    let mut admit = Vec::new();
    let mut exec = Vec::new();
    let mut respond = Vec::new();
    for round in rounds {
        for e in &round.service {
            if let Some(c) = round.client.iter().find(|c| c.id == e.id) {
                admit.push(secs(c.submitted, e.plan.0));
                exec.push(secs(e.plan.1, e.render.0));
                respond.push(secs(e.render.0, c.answered));
            }
        }
    }
    let med = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            median(v) * 1e3
        }
    };
    m.put("runplan.serve.admit_ms", med(&admit), "ms");
    m.put("runplan.serve.exec_ms", med(&exec), "ms");
    m.put("runplan.serve.respond_ms", med(&respond), "ms");
    let sum = |f: fn(&RoundTrace) -> usize| rounds.iter().map(f).sum::<usize>() as f64;
    m.put(
        "runplan.serve.rejected",
        sum(|r| r.report.rejected),
        "count",
    );
    m.put(
        "runplan.serve.requeued",
        sum(|r| r.report.requeued),
        "count",
    );
}
