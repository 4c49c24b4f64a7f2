//! In-memory span recorder for the traced run.
//!
//! A span covers one call from the benchmark into a layer of the program
//! (or a benchmark-side grouping of such calls, which then becomes the
//! parent of the calls it encloses). Spans are only kept in memory while
//! the workload runs and are written out once, at the end. With tracing
//! off, [`Tracer::span`] only calls its closure.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `engine.query`.
    pub name: &'static str,
    /// Request the span belongs to (a root, a query, a sweep run); 0 for
    /// set-up and probes.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    paused: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            paused: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Stop or resume recording inside a traced run: the traced run
    /// alternates its requests between the two states to measure what
    /// tracing itself costs.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled || self.paused {
            return f();
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f();
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Open a span that the caller closes with [`Tracer::end`]; for
    /// groupings whose body borrows the tracer itself.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Option<usize> {
        if !self.enabled || self.paused {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.open.retain(|&i| i != idx);
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Record an interval measured elsewhere (for example a query's
    /// due-to-completion latency, which no single call covers).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled || self.paused {
            return;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            request,
            parent: None,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Every span, one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.name, s.request, s.start_ns, s.end_ns
            ));
        }
        out
    }
}
