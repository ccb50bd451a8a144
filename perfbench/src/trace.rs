//! In-memory spans for the traced run, written once as Chrome
//! trace-event JSON, plus the per-layer self-time table.
//!
//! A span is recorded at each layer boundary the benchmark itself
//! calls into: name, start, end, the span that caused it, and the id of
//! the request it serves. A layer's self time is its spans' duration
//! minus the part of each interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span id; 0 is "no parent".
pub type SpanId = u64;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span's id (never 0).
    pub id: SpanId,
    /// The span that caused it, or 0 for a root.
    pub parent: SpanId,
    /// Layer-qualified name, e.g. `runplan.pool.run`.
    pub name: String,
    /// Request id shared by every span of one request (0 for none).
    pub request: u64,
    /// Start, in microseconds since the tracer was created.
    pub start_us: f64,
    /// End, in microseconds since the tracer was created.
    pub end_us: f64,
    /// Recording thread, numbered in order of first appearance.
    pub tid: u64,
}

impl Span {
    fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The span store: append-only, shared by every thread of the run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    threads: Mutex<Vec<std::thread::ThreadId>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, for a span whose children are recorded before
    /// it ends.
    pub fn id(&self) -> SpanId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    fn tid(&self) -> u64 {
        let me = std::thread::current().id();
        let mut threads = self.threads.lock().expect("tracer thread list poisoned");
        let index = threads.iter().position(|t| *t == me).unwrap_or_else(|| {
            threads.push(me);
            threads.len() - 1
        });
        index as u64
    }

    /// Record a finished span under a pre-allocated `id`.
    pub fn record_as(
        &self,
        id: SpanId,
        parent: SpanId,
        name: impl Into<String>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name: name.into(),
            request,
            start_us: self.us(start),
            end_us: self.us(end),
            tid: self.tid(),
        };
        self.spans
            .lock()
            .expect("tracer span list poisoned")
            .push(span);
    }

    /// Record a finished span and return its id.
    pub fn record(
        &self,
        parent: SpanId,
        name: impl Into<String>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.id();
        self.record_as(id, parent, name, request, start, end);
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("tracer span list poisoned")
            .clone()
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) for `spans`:
/// one complete (`"ph":"X"`) event per span.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}{sep}",
            escape(&s.name),
            escape(s.name.split('.').next().unwrap_or("")),
            s.start_us,
            s.dur_us(),
            s.tid,
            s.id,
            s.parent,
            s.request,
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Per span name: total duration and total self time (duration minus
/// the part its children cover), in seconds, and the span count.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (f64, f64, usize)> {
    let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    let mut table: BTreeMap<String, (f64, f64, usize)> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        let own = s.dur_us() - covered(kids, s.start_us, s.end_us);
        let row = table.entry(s.name.clone()).or_default();
        row.0 += s.dur_us() / 1e6;
        row.1 += own / 1e6;
        row.2 += 1;
    }
    table
}

/// The self-time table as text, largest self time first.
pub fn render_self_times(table: &BTreeMap<String, (f64, f64, usize)>) -> String {
    let mut rows: Vec<_> = table.iter().collect();
    rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1).then(a.0.cmp(b.0)));
    let mut out = String::from("layer self time (traced run)\n");
    let _ = writeln!(
        out,
        "  {:<34} {:>10} {:>10} {:>8}",
        "span", "total_s", "self_s", "count"
    );
    for (name, (total, own, count)) in rows {
        let _ = writeln!(out, "  {name:<34} {total:>10.4} {own:>10.4} {count:>8}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.id();
        // Two overlapping children on [10, 40] and [20, 50] cover 40 ms
        // of the 100 ms root.
        t.record(root, "child", 7, at(10), at(40));
        t.record(root, "child", 7, at(20), at(50));
        t.record_as(root, 0, "root", 7, at(0), at(100));
        let table = self_times(&t.spans());
        let (total, own, count) = table["root"];
        assert!((total - 0.100).abs() < 1e-9);
        assert!((own - 0.060).abs() < 1e-9);
        assert_eq!(count, 1);
        assert!((table["child"].1 - 0.060).abs() < 1e-9);
    }

    #[test]
    fn chrome_json_has_one_event_per_span() {
        let t = Tracer::new();
        let now = Instant::now();
        t.record(0, "a.\"quoted\"", 1, now, now);
        t.record(0, "b", 2, now, now);
        let json = chrome_json(&t.spans());
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("a.\\\"quoted\\\""));
    }
}
