//! Spans around the benchmark's calls into each layer, kept in a
//! preallocated buffer and written once, at exit, as Chrome `trace_event`
//! JSON (loadable in Perfetto or `chrome://tracing`).
//!
//! Spans are recorded from the benchmark's own code only: the program
//! carries no instrumentation. A span that would overflow the buffer is
//! dropped and counted, never reallocated, so recording cost stays flat.

use std::io::Write as _;
use std::time::{Duration, Instant};

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer the called function belongs to (the trace's category).
    pub cat: &'static str,
    /// The call, e.g. `ParTable::find_batch`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the buffer.
    pub parent: Option<usize>,
    /// Service request id, for spans that belong to one request.
    pub req: Option<u64>,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off or
/// the span was dropped.
#[must_use = "a begun span must be ended"]
pub struct Token(Option<usize>);

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

impl Tracer {
    pub fn off() -> Self {
        Self {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    /// A recording tracer with room for `capacity` spans.
    pub fn on(capacity: usize) -> Self {
        Self {
            on: true,
            spans: Vec::with_capacity(capacity),
            ..Self::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on && self.spans.capacity() > 0;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, cat: &'static str, name: &'static str) -> Token {
        if !self.on {
            return Token(None);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Token(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            cat,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req: None,
        });
        self.open.push(idx);
        Token(Some(idx))
    }

    /// Run `f` — one call into layer `cat` — inside a span, and time it.
    pub fn timed<R>(
        &mut self,
        cat: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let span = self.begin(cat, name);
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        self.end(span);
        (r, dt)
    }

    /// Attach a request id learned while the span was open.
    pub fn set_req(&mut self, token: &Token, req: u64) {
        if let Some(idx) = token.0 {
            self.spans[idx].req = Some(req);
        }
    }

    pub fn end(&mut self, token: Token) {
        if let Some(idx) = token.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must end innermost first");
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that still fit in the buffer.
    pub fn room(&self) -> usize {
        self.spans.capacity() - self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write every recorded span as Chrome `trace_event` JSON ("complete"
    /// events; timestamps in microseconds), with the span id, parent id,
    /// request id and self time as arguments.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.render_chrome(&mut w)?;
        w.flush()
    }

    fn render_chrome(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        let selfs = self_ns(&self.spans);
        w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        for (i, (s, self_t)) in self.spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                w.write_all(b",\n")?;
            }
            write!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"self_us\":{:.3}",
                s.name,
                s.cat,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                *self_t as f64 / 1e3,
            )?;
            if let Some(p) = s.parent {
                write!(w, ",\"parent\":{p}")?;
            }
            if let Some(r) = s.req {
                write!(w, ",\"req\":{r}")?;
            }
            w.write_all(b"}}")?;
        }
        w.write_all(b"\n]}\n")
    }
}

/// Of the spans named `name`, the share of their time not covered by
/// child spans, and how many there were. For the generator's own spans
/// this is the benchmark's overhead, checks included.
pub fn self_share(spans: &[Span], name: &str) -> (f64, u64) {
    let (mut own, mut total, mut n) = (0u64, 0u64, 0u64);
    for (s, own_ns) in spans.iter().zip(self_ns(spans)) {
        if s.name == name {
            own += own_ns;
            total += s.end_ns - s.start_ns;
            n += 1;
        }
    }
    (own as f64 / total.max(1) as f64, n)
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            cat: "t",
            name: "s",
            start_ns,
            end_ns,
            parent,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = [
            span(0, 100, None),     // 0: root
            span(10, 30, Some(0)),  // 1
            span(20, 40, Some(0)),  // 2: overlaps 1 by 10
            span(50, 60, Some(0)),  // 3
            span(52, 55, Some(3)),  // 4: grandchild, counts only for 3
            span(90, 120, Some(0)), // 5: clipped to the parent's end
        ];
        assert_eq!(
            self_ns(&spans),
            vec![100 - 20 - 10 - 10 - 10, 20, 20, 7, 3, 30]
        );
    }

    #[test]
    fn nested_begin_end_records_parents_and_drops_past_capacity() {
        let mut t = Tracer::on(2);
        let outer = t.begin("a", "outer");
        let inner = t.begin("b", "inner");
        t.set_req(&inner, 7);
        let dropped = t.begin("c", "dropped");
        t.end(dropped);
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, Some(7));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut off = Tracer::off();
        let tok = off.begin("a", "x");
        off.end(tok);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_output_is_valid_json() {
        let mut t = Tracer::on(4);
        let a = t.begin("kv_service", "KvService::tick");
        let b = t.begin("kv_service", "KvService::submit");
        t.set_req(&b, 3);
        t.end(b);
        t.end(a);
        let mut buf = Vec::new();
        t.render_chrome(&mut buf).unwrap();
        let v = crate::json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(args.get("req").and_then(|p| p.as_f64()), Some(3.0));
    }
}
