//! Spans recorded from outside the program: one per call into a layer's
//! public functions, kept in memory and written out when the run ends.
//!
//! Calls made hundreds of thousands of times per run (`EventReader::next`,
//! `StreamMiner::push`, `PdnsStore::observe`) are recorded as one
//! aggregate span per parent: first start, last end, summed busy time and
//! call count. A span's self time is its busy time minus the busy time of
//! its children; an aggregate collected on `lanes` threads at once covers
//! `busy / lanes` of its parent's wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The benchmark's one clock read. Timings feed only the benchmark's
/// report, never the program's output.
#[inline]
pub fn now() -> Instant {
    // lint:allow(wall-clock): benchmark timing only, never part of program output
    Instant::now()
}

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    run: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Summed duration of the calls the span stands for.
    busy_ns: u64,
    calls: u64,
    /// Threads the calls ran on concurrently.
    lanes: u64,
}

impl Span {
    /// The share of its parent's wall time the span covers.
    fn wall_ns(&self) -> f64 {
        self.busy_ns as f64 / self.lanes.max(1) as f64
    }
}

/// Accumulates many short calls into one aggregate span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    first: Option<Instant>,
    last: Option<Instant>,
    busy: Duration,
    calls: u64,
}

impl Agg {
    /// Runs `f`, adding its duration to the aggregate.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = now();
        let out = f();
        let end = now();
        self.record(start, end);
        out
    }

    /// Adds one call that ran from `start` to `end`.
    #[inline]
    pub fn record(&mut self, start: Instant, end: Instant) {
        self.first.get_or_insert(start);
        self.last = Some(end);
        self.busy += end - start;
        self.calls += 1;
    }

    /// Folds another thread's aggregate into this one.
    pub fn merge(&mut self, other: &Agg) {
        self.first = match (self.first, other.first) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last = match (self.last, other.last) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.busy += other.busy;
        self.calls += other.calls;
    }
}

/// The span recorder. A disabled tracer reads no clock and records
/// nothing, so untraced runs pay only a branch per layer call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

/// Index returned by [`Tracer::open`] for a disabled tracer.
const NO_SPAN: usize = usize::MAX;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: now(), run: 0, spans: Vec::new(), open: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new run id; spans recorded from here on carry it.
    pub fn next_run(&mut self) -> u64 {
        self.run += 1;
        self.run
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        let now = now();
        let parent = self.open.last().map(|&(i, _)| i);
        let start_ns = self.ns(now);
        self.spans.push(Span {
            name,
            run: self.run,
            parent,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
            lanes: 1,
        });
        let idx = self.spans.len() - 1;
        self.open.push((idx, now));
        idx
    }

    /// Closes the span `idx`, which must be the innermost open one.
    pub fn close(&mut self, idx: usize) {
        if !self.on {
            return;
        }
        let now = now();
        let (top, started) = self.open.pop().expect("close without a matching open");
        assert_eq!(top, idx, "spans must close innermost first");
        let end_ns = self.ns(now);
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.busy_ns = u64::try_from((now - started).as_nanos()).unwrap_or(u64::MAX);
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// Records an aggregate under the innermost open span.
    pub fn add_agg(&mut self, name: &'static str, agg: &Agg, lanes: u64) {
        if !self.on || agg.calls == 0 {
            return;
        }
        let parent = self.open.last().map(|&(i, _)| i);
        let start_ns = agg.first.map_or(0, |t| self.ns(t));
        let end_ns = agg.last.map_or(0, |t| self.ns(t));
        self.spans.push(Span {
            name,
            run: self.run,
            parent,
            start_ns,
            end_ns,
            busy_ns: u64::try_from(agg.busy.as_nanos()).unwrap_or(u64::MAX),
            calls: agg.calls,
            lanes,
        });
    }

    /// Records a span of known duration under `parent`, for a layer call
    /// timed separately (the ingest scan probe).
    pub fn add_measured(&mut self, name: &'static str, parent: usize, busy: Duration) {
        if !self.on {
            return;
        }
        let start_ns = self.spans[parent].start_ns;
        let busy_ns = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            run: self.run,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + busy_ns,
            busy_ns,
            calls: 1,
            lanes: 1,
        });
    }

    /// Self time in milliseconds per layer span name, over the spans of
    /// `run`. Root spans are not layers and get no row: what the layers
    /// leave of the measured wall time is `other_ms`. A span whose
    /// children cover more than its own duration is an error.
    pub fn self_times(&self, run: u64) -> Result<BTreeMap<&'static str, f64>, String> {
        let mut child_ns = vec![0.0f64; self.spans.len()];
        for span in self.spans.iter().filter(|s| s.run == run) {
            if let Some(p) = span.parent {
                child_ns[p] += span.wall_ns();
            }
        }
        let mut rows = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let self_ns = span.wall_ns() - child_ns[i];
            if span.run != run {
                continue;
            }
            if self_ns < 0.0 {
                return Err(format!("span {} has negative self time ({self_ns} ns)", span.name));
            }
            if span.parent.is_some() {
                *rows.entry(span.name).or_insert(0.0) += self_ns / 1e6;
            }
        }
        Ok(rows)
    }

    /// Every recorded span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"run\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \"calls\": {}, \"lanes\": {}}}",
                s.run, s.name, s.start_ns, s.end_ns, s.busy_ns, s.calls, s.lanes
            );
        }
        out
    }
}
