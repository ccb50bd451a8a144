//! What one untraced run collects, and the end-to-end metrics it
//! reports.

use std::time::{Duration, Instant};

use crate::calibrate;
use crate::stats::{median, tail, Tail};

/// Units every run measures, however long they take: a median needs
/// more than one.
pub const MIN_UNITS: usize = 2;

/// Share of the previous unit's wall time spent calibrating before the
/// next unit, in whole samples and at least one: one sample before an
/// `interp-count` pass, about five before a `paper-cold` batch.
const CALIBRATION_SHARE: f64 = 0.05;

/// One measured unit of a workload: a batch, a pass or a serve round.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Wall time of the unit.
    pub wall: Duration,
    /// Simulated native instructions the unit retired.
    pub sim_insns: u64,
    /// Latency of every request the unit completed (seconds).
    pub latencies: Vec<f64>,
    /// Operations attempted: runs, output comparisons, requests.
    pub attempted: u64,
    /// Operations that failed, degraded, were rejected or mismatched.
    pub failed: u64,
    /// One line per failed operation.
    pub problems: Vec<String>,
}

impl Unit {
    /// A unit that could not run: one operation attempted and failed.
    pub fn failure(problem: String) -> Unit {
        Unit {
            attempted: 1,
            failed: 1,
            problems: vec![problem],
            ..Unit::default()
        }
    }
}

/// Every unit of one run plus its set-up times.
#[derive(Debug, Default)]
pub struct Run {
    /// Measured units, in order.
    pub units: Vec<Unit>,
    /// Set-up times (seconds), one per set-up sample.
    pub setups: Vec<f64>,
    /// Calibration times (seconds), one per [`calibrate::sample`].
    pub calibrations: Vec<f64>,
    /// Each unit's slowdown: the median of the calibrations taken just
    /// before it over [`calibrate::REFERENCE_S`].
    pub slowdowns: Vec<f64>,
    /// Peak RSS (MB) when the first unit ended: the process through its
    /// set-up and one whole unit. Later units repeat the same work, but
    /// the run's own peak depends on a race: the run-plan pool's scoped
    /// threads release their malloc arenas only as they exit, after the
    /// scope has returned, so a thread the next scope starts meanwhile
    /// may get a new arena, and the extra arenas keep about 4 MB more
    /// resident. On the baseline VM an `interp-count` run peaked at
    /// 16.9 or at 21.0 MB, in about half the 45-second runs each.
    pub peak_rss_mb: f64,
}

impl Run {
    /// Measure units with `unit(index)` for about `seconds`, and at
    /// least [`MIN_UNITS`] of them, calibrating before each. A unit
    /// starts only if, taking as long as the previous one, it would end
    /// less than half its length past `seconds`, so a run ends within
    /// about half a unit of `seconds` (a `paper-cold` batch is 8–12 s).
    pub fn measure(&mut self, seconds: u64, mut unit: impl FnMut(usize) -> Unit) {
        let budget = Duration::from_secs(seconds);
        let started = Instant::now();
        let mut last = Duration::ZERO;
        while self.units.len() < MIN_UNITS || started.elapsed() + last / 2 < budget {
            let calibrating = Instant::now();
            let first = self.calibrations.len();
            loop {
                self.calibrations.push(calibrate::sample());
                if calibrating.elapsed().as_secs_f64() >= CALIBRATION_SHARE * last.as_secs_f64() {
                    break;
                }
            }
            self.slowdowns
                .push(median(&self.calibrations[first..]) / calibrate::REFERENCE_S);
            let index = self.units.len();
            let unit_start = Instant::now();
            self.units.push(unit(index));
            last = unit_start.elapsed();
            if index == 0 {
                self.peak_rss_mb = peak_rss_mb();
            }
        }
    }

    /// How much slower the machine ran than the reference one over the
    /// whole run: the median calibration time over
    /// [`calibrate::REFERENCE_S`]. Set-up times, sampled throughout the
    /// run, are divided by it; each unit's times are divided by its own
    /// slowdown and its rates multiplied by it.
    pub fn slowdown(&self) -> f64 {
        median(&self.calibrations) / calibrate::REFERENCE_S
    }

    /// Operations attempted across the run.
    pub fn attempted(&self) -> u64 {
        self.units.iter().map(|u| u.attempted).sum()
    }

    /// Operations failed across the run.
    pub fn failed(&self) -> u64 {
        self.units.iter().map(|u| u.failed).sum()
    }

    /// Every recorded problem.
    pub fn problems(&self) -> impl Iterator<Item = &String> {
        self.units.iter().flat_map(|u| u.problems.iter())
    }

    /// Every request latency of the run, divided by its unit's
    /// slowdown.
    pub fn latencies(&self) -> Vec<f64> {
        self.units
            .iter()
            .zip(&self.slowdowns)
            .flat_map(|(u, &slowdown)| u.latencies.iter().map(move |l| l / slowdown))
            .collect()
    }

    /// The request tail over the whole run.
    pub fn tail(&self) -> Option<Tail> {
        tail(&self.latencies())
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order, as
    /// `(name, value, unit)`, times and rates scaled to the reference
    /// machine (see [`calibrate`]).
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let units = || self.units.iter().zip(&self.slowdowns);
        let walls: Vec<f64> = units().map(|(u, s)| u.wall.as_secs_f64() / s).collect();
        let per_wall = |f: &dyn Fn(&Unit) -> f64| -> f64 {
            let rates: Vec<f64> = units()
                .map(|(u, s)| f(u) * s / u.wall.as_secs_f64().max(1e-9))
                .collect();
            median(&rates)
        };
        let latencies = self.latencies();
        let tail_s = self.tail().map_or_else(
            || latencies.iter().copied().fold(0.0, f64::max),
            |t| t.value,
        );
        let attempted = self.attempted().max(1);
        vec![
            ("wall_s", median(&walls), "s"),
            (
                "sim_minsns_per_s",
                per_wall(&|u| u.sim_insns as f64 / 1e6),
                "M/s",
            ),
            ("req_p50_ms", median(&latencies) * 1e3, "ms"),
            ("req_tail_ms", tail_s * 1e3, "ms"),
            ("req_per_s", per_wall(&|u| u.latencies.len() as f64), "1/s"),
            ("setup_s", median(&self.setups) / self.slowdown(), "s"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
            (
                "ok_ratio",
                (attempted - self.failed().min(attempted)) as f64 / attempted as f64,
                "ratio",
            ),
        ]
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Time `f` and return its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}
