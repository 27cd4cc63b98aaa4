//! Spans, counts and latency statistics, all recorded from outside the
//! program: the benchmark wraps each public call it makes in [`span`].
//!
//! Spans live in a thread-local buffer on the thread that drives the
//! pipeline (the commit hook runs on that thread too, so a flip span nests
//! under its window span). With tracing off, [`span`] still times the call
//! — the end-to-end metrics need the wall time — but records nothing.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Which repetition of the workload phase the span belongs to.
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A count recorded at the boundary of the span it is attached to.
#[derive(Clone, Debug)]
pub struct Count {
    pub span: Option<usize>,
    pub name: &'static str,
    pub value: f64,
}

struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    counts: Vec<Count>,
    stack: Vec<usize>,
    last_closed: Option<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        origin: Instant::now(),
        run: 0,
        spans: Vec::new(),
        counts: Vec::new(),
        stack: Vec::new(),
        last_closed: None,
    });
}

/// Turns span recording on or off for the current thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

/// Starts a new run: spans recorded from now on share a fresh run id, so
/// each repetition of a workload phase can be told apart.
pub fn new_run() {
    TRACER.with(|t| t.borrow_mut().run += 1);
}

/// Times `f`, recording it as a span named `name` when tracing is on.
/// Returns the value and the wall time of the call.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let open = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let idx = t.spans.len();
        let parent = t.stack.last().copied();
        let run = t.run;
        t.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, run });
        t.stack.push(idx);
        Some(idx)
    });
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    if let Some(idx) = open {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let origin = t.origin;
            let s = &mut t.spans[idx];
            s.start_ns = start.duration_since(origin).as_nanos() as u64;
            s.end_ns = end.duration_since(origin).as_nanos() as u64;
            t.stack.pop();
            t.last_closed = Some(idx);
        });
    }
    (value, end - start)
}

/// Attaches a count to the span that closed last (the boundary the count
/// was taken at). A no-op with tracing off.
pub fn count(name: &'static str, value: f64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.enabled {
            let span = t.last_closed;
            t.counts.push(Count { span, name, value });
        }
    });
}

/// Takes every recorded span and count out of the current thread's buffer.
pub fn drain() -> (Vec<Span>, Vec<Count>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        t.last_closed = None;
        (std::mem::take(&mut t.spans), std::mem::take(&mut t.counts))
    })
}

/// Per-span-name totals: calls, wall time, and self time (wall minus the
/// part covered by child spans).
pub struct SpanSummary {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn summarize(spans: &[Span]) -> Vec<SpanSummary> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: Vec<SpanSummary> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let self_ns = s.dur_ns().saturating_sub(child_ns[i]);
        match out.iter_mut().find(|o| o.name == s.name) {
            Some(o) => {
                o.calls += 1;
                o.total_ns += s.dur_ns();
                o.self_ns += self_ns;
            }
            None => out.push(SpanSummary { name: s.name, calls: 1, total_ns: s.dur_ns(), self_ns }),
        }
    }
    out
}

/// Self time summed per layer (the span-name prefix before the first dot).
pub fn layer_self_s(summary: &[SpanSummary], layer: &str) -> f64 {
    summary
        .iter()
        .filter(|s| s.name.split('.').next() == Some(layer))
        .fold(0.0, |acc, s| acc + s.self_ns as f64 * 1e-9)
}

/// Spans and counts as JSON lines, one object per line.
pub fn to_jsonl(spans: &[Span], counts: &[Count]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
            s.name, s.start_ns, s.end_ns, s.run
        );
    }
    for c in counts {
        let span = c.span.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(out, "{{\"count\":\"{}\",\"span\":{span},\"value\":{}}}", c.name, c.value);
    }
    out
}

/// Median cost of one `Instant::now()` read, in nanoseconds.
pub fn timer_overhead_ns() -> f64 {
    const READS: u32 = 10_000;
    let per_read: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&per_read)
}

/// Median cost of recording one span with tracing on, over the same call
/// with tracing off, in nanoseconds. Batches alternate on a scratch thread
/// so the caller's buffer is untouched.
pub fn span_cost_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let batch = |on: bool| {
        set_enabled(on);
        let t0 = Instant::now();
        for _ in 0..SPANS {
            std::hint::black_box(span("bench.probe", || ()));
        }
        let ns = t0.elapsed().as_nanos() as f64 / f64::from(SPANS);
        drain();
        ns
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            let (on, off): (Vec<f64>, Vec<f64>) =
                (0..7).map(|_| (batch(true), batch(false))).unzip();
            (median(&on) - median(&off)).max(0.0)
        })
        .join()
        .expect("span probe thread panicked")
    })
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of the usual percentiles that leaves at least ten samples
/// above it, for `n` samples; `None` when there are too few samples.
pub fn tail_percentile(n: u64) -> Option<f64> {
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
}

/// Log-linear latency histogram: 32 sub-buckets per power of two, so a
/// recorded value is off by at most 1/32 of itself.
#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
}

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

impl Hist {
    pub fn new() -> Hist {
        Hist { buckets: vec![0; (64 - SUB_BITS as usize + 1) * SUB as usize], count: 0 }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros();
        let sub = (v >> (octave - SUB_BITS)) & (SUB - 1);
        ((octave - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Midpoint of bucket `i`'s value range.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let octave = (i / SUB) as u32 + SUB_BITS - 1;
        let sub = i % SUB;
        let lo = (SUB + sub) << (octave - SUB_BITS);
        let width = 1u64 << (octave - SUB_BITS);
        lo as f64 + (width as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank quantile (bucket midpoint); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_resolves_within_one_thirty_second() {
        for v in [0u64, 1, 31, 32, 33, 100, 1000, 4097, 123_456, 9_876_543_210] {
            let mut h = Hist::new();
            h.record(v);
            let got = h.quantile(0.5);
            assert!((got - v as f64).abs() <= v as f64 / 32.0 + 0.5, "{v} read back as {got}");
        }
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(300), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(5_000_000), Some(99.99));
    }

    #[test]
    fn self_time_subtracts_children() {
        set_enabled(true);
        span("a.outer", || {
            span("b.inner", || std::thread::sleep(Duration::from_millis(5)));
        });
        let (spans, _) = drain();
        set_enabled(false);
        let summary = summarize(&spans);
        let outer = summary.iter().find(|s| s.name == "a.outer").expect("outer span");
        let inner = summary.iter().find(|s| s.name == "b.inner").expect("inner span");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.self_ns >= 5_000_000);
    }
}
