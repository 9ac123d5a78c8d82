//! Benchmark-side tracing: spans recorded around the calls into each
//! layer, kept in memory and written out when the run ends, plus a
//! [`SimObserver`] that splits one engine replay into its three phases
//! with two clock reads.

use std::fmt::Write as _;
use std::time::Instant;

use npu_sim::SimObserver;

use crate::alloc;

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric prefix, e.g. `sim.prepare`.
    pub name: &'static str,
    /// Index of the trace being served when the span was recorded.
    pub trace: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Allocation calls made inside the span.
    pub allocs: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The span recorder. When disabled, [`Spans::time`] only calls its
/// closure: the untraced pipeline runs the same code without clock reads.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    trace: usize,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans {
            enabled: false,
            origin: Instant::now(),
            trace: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Spans { enabled: true, ..Spans::off() }
    }

    /// Sets the trace index later spans are tagged with.
    pub fn set_trace(&mut self, trace: usize) {
        self.trace = trace;
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; later spans nest under it until [`Spans::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        let index = self.record(name, now, now, 0);
        self.open.push((index, alloc::count()));
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.ns(Instant::now());
        let (index, allocs_at_start) = self.open.pop().expect("end() pairs with begin()");
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.allocs = alloc::count() - allocs_at_start;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Records a finished span under the innermost open span and returns
    /// its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        allocs: u64,
    ) -> usize {
        let parent = self.open.last().map(|&(index, _)| index);
        self.record_under(name, parent, start, end, allocs)
    }

    /// Records a finished span under an explicit parent. Returns 0 and
    /// records nothing when disabled.
    pub fn record_under(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        allocs: u64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let span = Span {
            name,
            trace: self.trace,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            allocs,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The spans as a JSON array of `{name, trace, parent, start_ns,
    /// end_ns, allocs}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (index, s) in self.spans.iter().enumerate() {
            let sep = if index == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}  {{\"id\": {index}, \"name\": \"{}\", \"trace\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}}}",
                s.name, s.trace, s.start_ns, s.end_ns, s.allocs
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Timestamps the first popped event and the retirement of the last
/// anchor, which split a replay into release mapping and queue seeding,
/// the event loop, and result materialization.
#[derive(Debug)]
pub struct PhaseClock {
    anchors: usize,
    retired: usize,
    /// Clock and allocation count at the first event pop.
    pub first_pop: Option<(Instant, u64)>,
    /// Clock and allocation count when the last anchor retired.
    pub last_retire: Option<(Instant, u64)>,
}

impl PhaseClock {
    /// A clock for a replay of `anchors` engine operators.
    pub fn new(anchors: usize) -> Self {
        PhaseClock { anchors, retired: 0, first_pop: None, last_retire: None }
    }
}

impl SimObserver for PhaseClock {
    fn event_popped(&mut self, _at: u64, _pending: usize) {
        if self.first_pop.is_none() {
            self.first_pop = Some((Instant::now(), alloc::count()));
        }
    }

    fn op_retired(&mut self, _op: usize, _at: u64) {
        self.retired += 1;
        if self.retired == self.anchors {
            self.last_retire = Some((Instant::now(), alloc::count()));
        }
    }
}
