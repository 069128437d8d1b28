//! In-memory spans around the benchmark's calls into each layer, their
//! self times, and Chrome-trace (Perfetto) export.
//!
//! A [`Tracer`] belongs to one thread; threads that generate load each keep
//! their own and are merged with [`Tracer::absorb`] when they finish. When
//! tracing is off, [`Tracer::begin`] and [`Tracer::end`] read no clock and
//! record nothing, so the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.function`, e.g. `core.Simulator::run`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The cell or request this span worked for.
    pub id: u64,
    /// Thread lane (0 = the benchmark's main thread).
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Spans one tracer records of its own. The closed loops open one span per request,
/// hundreds of thousands per run; past this many the rest are only
/// counted, which keeps memory and the written trace small.
pub const MAX_SPANS: usize = 25_000;

/// A per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Spans this tracer opened itself (absorbed ones do not count
    /// against its cap).
    opened: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer on lane `tid`; `enabled == false` makes every call free.
    /// Tracers that will be merged must share one `epoch`.
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
            opened: 0,
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The shared epoch, for tracers on other threads.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span named `name` for cell or request `id`, nested in the
    /// innermost span still open on this tracer.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.opened >= MAX_SPANS {
            self.dropped += 1;
            return Open(None);
        }
        self.opened += 1;
        let at = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
            tid: self.tid,
        });
        self.stack.push(at);
        Open(Some(at))
    }

    /// Closes a span opened by [`begin`](Tracer::begin).
    pub fn end(&mut self, open: Open) {
        if let Some(at) = open.0 {
            let now = self.now_ns();
            self.spans[at].end_ns = now;
            debug_assert_eq!(self.stack.last(), Some(&at), "spans close in order");
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Moves another thread's spans into this tracer, re-indexing parents.
    pub fn absorb(&mut self, other: Tracer) {
        self.dropped += other.dropped;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not recorded because [`MAX_SPANS`] was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus the part of its
    /// interval covered by its child spans.
    pub self_ns: u64,
}

/// Totals and self times per span name. Children may overlap (spans merged
/// from several threads never share a parent, but a defensive union keeps
/// the arithmetic right regardless), so covered time is the union of the
/// children's intervals clipped to the parent.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let (mut covered, mut cursor) = (0u64, s.start_ns);
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(cursor), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Chrome trace-event JSON (`"ph":"X"` complete events, microseconds),
/// loadable in Perfetto and `chrome://tracing`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_covered_part_of_child_spans() {
        let spans = vec![
            span("sweep.pass", 0, 100, None),
            span("core.run", 10, 40, Some(0)),
            span("core.run", 50, 70, Some(0)),
            // A grandchild counts against its own parent only.
            span("mem.probe", 55, 60, Some(2)),
            // Overlapping siblings are covered once.
            span("trace.decode", 30, 45, Some(0)),
        ];
        let t = totals(&spans);
        // 100 minus the union [10,45) ∪ [50,70) = 100 - 35 - 20.
        assert_eq!(t["sweep.pass"].self_ns, 45);
        assert_eq!(t["core.run"].count, 2);
        assert_eq!(t["core.run"].total_ns, 50);
        assert_eq!(t["core.run"].self_ns, 45);
        assert_eq!(t["mem.probe"].self_ns, 5);
    }

    #[test]
    fn nested_begin_end_records_parents_and_absorb_reindexes() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 0);
        let outer = a.begin("sweep.pass", 1);
        let inner = a.begin("core.run", 2);
        a.end(inner);
        a.end(outer);
        let mut b = Tracer::new(true, epoch, 1);
        b.span("serve.request", 3, || ());
        let x = b.begin("serve.request", 4);
        let y = b.begin("serve.json_parse", 4);
        b.end(y);
        b.end(x);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[4].parent, Some(3), "absorbed parents point past the base");
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false, epoch, 0);
        let o = off.begin("core.run", 0);
        off.end(o);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses_with_the_service_json_reader() {
        let spans = vec![
            span("core.Simulator::run", 1_000, 4_500, None),
            span("mem.x", 2_000, 3_000, Some(0)),
        ];
        let text = chrome_trace(&spans);
        let v = subwarp_serve::json::parse(&text).expect("trace is valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].str_field("ph"), Some("X"));
        assert_eq!(events[1].str_field("cat"), Some("mem"));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_i64()),
            Some(0)
        );
        let empty = subwarp_serve::json::parse(&chrome_trace(&[])).unwrap();
        assert_eq!(
            empty
                .get("traceEvents")
                .and_then(|e| e.as_arr())
                .unwrap()
                .len(),
            0
        );
    }
}
