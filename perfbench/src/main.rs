//! The reproduction's benchmark of record: host cost end to end on
//! two workloads, plus a traced run that splits it by layer.
//!
//! ```text
//! perfbench --workload paper-cold|interp-count \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced (`--trace 0`), the named workload is measured for `S`
//! seconds and its end-to-end metrics are printed. Traced
//! (`--trace 1`), one unit of both workloads and of the serve rounds
//! (see [`serve_mixed`]) runs untraced and then traced, and the per-layer metrics, the self-time table and each
//! workload's tracing overhead are printed; the spans are written as
//! Chrome trace-event JSON under `.perfbench/`. Either way every output
//! is checked, the last stdout line is one JSON object, and the exit
//! status is nonzero if any check failed.

mod affinity;
mod calibrate;
mod interp_count;
mod layers;
mod measure;
mod paper_cold;
mod serve_mixed;
mod sink;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{timed, Run, Unit};

/// Worker threads: the benchmark machine's core count.
pub const JOBS: usize = 2;

/// Set-up samples taken before each measured unit, after which the
/// unit sets up once more and runs. Spreading the samples over the run
/// keeps `setup_s` from reflecting one moment of the machine.
const SETUP_SAMPLES: usize = 4;

/// Least time a set-up sample spends on each CPU. A set-up (0.1 ms for
/// paper-cold, 2 ms for interp-count) is far shorter than the machine's
/// noise, so it is repeated until this much time has passed.
///
/// A sample pins the thread to each of the first [`JOBS`] CPUs in turn
/// and records the mean of their times per set-up. On the baseline VM
/// one vCPU is often 1.5× slower than the other: unpinned, a sample
/// lands on either and `setup_s` follows the luck of the draw, while
/// the units, which keep every worker busy, see both.
const SETUP_SAMPLE_MIN: Duration = Duration::from_millis(15);

/// The workloads of `BENCHMARK.json`.
const WORKLOADS: [&str; 2] = ["paper-cold", "interp-count"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run prints: human-readable lines, then the JSON object.
pub struct Report {
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Take [`SETUP_SAMPLES`] set-up samples, recording the mean set-up
/// time of each in `setups`, then set up once more for the unit.
fn set_up<S>(setups: &mut Vec<f64>, build: impl Fn() -> Result<S, String>) -> Result<S, String> {
    let per_setup = || {
        let started = Instant::now();
        let mut count = 0u32;
        while count == 0 || started.elapsed() < SETUP_SAMPLE_MIN {
            drop(build());
            count += 1;
        }
        started.elapsed().as_secs_f64() / f64::from(count)
    };
    let home = affinity::Mask::current();
    let cpus: Vec<usize> = home
        .as_ref()
        .map_or_else(Vec::new, |m| m.cpus().into_iter().take(JOBS).collect());
    for _ in 0..SETUP_SAMPLES {
        let pinned: Vec<f64> = cpus
            .iter()
            .filter(|&&cpu| affinity::Mask::only(cpu).apply())
            .map(|_| per_setup())
            .collect();
        if let Some(home) = &home {
            home.apply();
        }
        setups.push(if pinned.is_empty() {
            per_setup()
        } else {
            pinned.iter().sum::<f64>() / pinned.len() as f64
        });
    }
    build()
}

fn untraced(args: &Args) -> Result<Report, String> {
    let mut run = Run::default();
    let mut lines = Vec::new();
    match args.workload {
        "paper-cold" => {
            let first = paper_cold::setup()?;
            lines.push(format!(
                "plan: {} requests -> {} runs on {JOBS} workers",
                first.requests,
                first.plan.len()
            ));
            let mut setups = Vec::new();
            run.measure(args.seconds, |_| {
                match set_up(&mut setups, paper_cold::setup) {
                    Ok(setup) => paper_cold::batch(&setup, None).0,
                    Err(e) => Unit::failure(e),
                }
            });
            run.setups = setups;
        }
        _ => {
            interp_count::setup(args.seed)?;
            let (reference, secs) = timed(interp_count::reference);
            lines.push(format!(
                "paper-cold reference runs: {secs:.3} s (not measured)"
            ));
            let mut setups = Vec::new();
            let mut last = None;
            run.measure(args.seconds, |_| {
                match set_up(&mut setups, || interp_count::setup(args.seed)) {
                    Ok(setup) => {
                        let (unit, _, executed) = interp_count::pass(&setup, &reference, None);
                        last = Some(executed);
                        unit
                    }
                    Err(e) => Unit::failure(e),
                }
            });
            run.setups = setups;
            if let Some(executed) = last {
                for (engine, tier, ipc) in interp_count::dispatch_rows(&executed.store) {
                    lines.push(format!("insns/cmd {engine}+{tier}: {ipc:.3}"));
                }
            }
        }
    }
    lines.push(format!(
        "units measured: {} (walls {:?})",
        run.units.len(),
        run.units
            .iter()
            .map(|u| (u.wall.as_secs_f64() * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    lines.push(format!(
        "calibration: {} samples, median {:.4} s, reference {} s; unit slowdowns {:?}",
        run.calibrations.len(),
        run.slowdown() * calibrate::REFERENCE_S,
        calibrate::REFERENCE_S,
        run.slowdowns
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    if let Some(t) = run.tail() {
        lines.push(format!(
            "req_tail_ms is p{} of {} requests ({} beyond)",
            t.percentile, t.n, t.beyond
        ));
    }
    let metrics: Vec<(String, f64, &'static str)> = run
        .metrics()
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u))
        .collect();
    for (name, value, unit) in &metrics {
        lines.push(format!("{name} = {value:.6} {unit}"));
    }
    Ok(Report {
        lines,
        attempted: run.attempted(),
        failed: run.failed(),
        problems: run.problems().cloned().collect(),
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        let out = PathBuf::from(".perfbench");
        let work = out.join(format!("work-{}", std::process::id()));
        let result = layers::traced(args.seed, &out, &work);
        let _ = std::fs::remove_dir_all(&work);
        result
    } else {
        untraced(&args)
    };
    match result {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            for problem in &report.problems {
                eprintln!("FAILED: {problem}");
            }
            println!("{}", report.json());
            if report.failed == 0 && report.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
