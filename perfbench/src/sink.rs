//! The batching timer around an `archsim` trace sink.
//!
//! Reading the clock on every retired instruction would cost more than
//! the sink itself, and the time between two `insn` calls belongs to
//! the engine, not the sink. So the wrapper buffers records and replays
//! each full buffer into the wrapped sink under one pair of clock
//! reads: the replay is pure sink work, in the original order, so the
//! wrapped sink ends in the same state as an unwrapped one.

use std::time::Instant;

use interp_core::{InsnRecord, TraceSink};

/// Records buffered between two timed replays (2 MB of records at most).
const BATCH: usize = 1 << 16;

/// One timed replay: when it started and ended, and how many records
/// it fed the sink.
#[derive(Debug, Clone, Copy)]
pub struct Flush {
    /// Replay start.
    pub start: Instant,
    /// Replay end.
    pub end: Instant,
    /// Records replayed.
    pub records: usize,
}

/// A [`TraceSink`] that feeds `inner` in timed batches.
pub struct Timed<S> {
    inner: S,
    buffer: Vec<InsnRecord>,
    flushes: Vec<Flush>,
}

impl<S: TraceSink> Timed<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        Timed {
            inner,
            buffer: Vec::with_capacity(BATCH),
            flushes: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let records = self.buffer.len();
        let start = Instant::now();
        for rec in self.buffer.drain(..) {
            self.inner.insn(rec);
        }
        self.flushes.push(Flush {
            start,
            end: Instant::now(),
            records,
        });
    }

    /// Replay what is still buffered and return the wrapped sink with
    /// every timed replay.
    pub fn finish(mut self) -> (S, Vec<Flush>) {
        self.flush();
        (self.inner, self.flushes)
    }
}

impl<S: TraceSink> TraceSink for Timed<S> {
    #[inline]
    fn insn(&mut self, rec: InsnRecord) {
        self.buffer.push(rec);
        if self.buffer.len() == BATCH {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp_archsim::{CacheSweep, PipelineSim};
    use interp_core::{Language, Scale, WorkloadId};
    use interp_workloads::Runner;

    /// One small macro workload per engine.
    fn one_per_engine() -> [WorkloadId; 5] {
        [
            WorkloadId::macro_bench(Language::C, "des", Scale::Test),
            WorkloadId::macro_bench(Language::Mipsi, "des", Scale::Test),
            WorkloadId::macro_bench(Language::Javelin, "hanoi", Scale::Test),
            WorkloadId::macro_bench(Language::Perlite, "txt2html", Scale::Test),
            WorkloadId::macro_bench(Language::Tclite, "tcltags", Scale::Test),
        ]
    }

    #[test]
    fn timed_pipeline_reports_exactly_what_the_bare_sink_reports() {
        for w in one_per_engine() {
            let bare = Runner::run(w, PipelineSim::alpha_21064()).sink.report();
            let (sink, flushes) = Runner::run(w, Timed::new(PipelineSim::alpha_21064()))
                .sink
                .finish();
            assert_eq!(bare, sink.report(), "{w}");
            assert!(!flushes.is_empty(), "{w}");
        }
    }

    #[test]
    fn timed_sweep_gives_exactly_the_bare_sweep_points() {
        for w in one_per_engine() {
            let bare = Runner::run(w, CacheSweep::figure4()).sink.points();
            let (sink, _) = Runner::run(w, Timed::new(CacheSweep::figure4()))
                .sink
                .finish();
            assert_eq!(bare, sink.points(), "{w}");
        }
    }

    #[test]
    fn flushes_cover_every_record_in_order() {
        let w = WorkloadId::macro_bench(Language::Mipsi, "des", Scale::Test);
        let result = Runner::run(w, Timed::new(interp_core::CountingSink::default()));
        let (sink, flushes) = result.sink.finish();
        let replayed: usize = flushes.iter().map(|f| f.records).sum();
        assert_eq!(replayed as u64, sink.instructions);
        assert!(flushes.windows(2).all(|p| p[0].end <= p[1].start));
    }
}
