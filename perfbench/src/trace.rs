//! Benchmark-side spans: recorded in memory around each request and each
//! in-process layer call, and written once at exit as Chrome-trace JSON
//! (the `{"traceEvents":[…]}` shape `/v1/debug/spans` emits, loadable in
//! Perfetto). A layer's self time is its span minus its children.

use std::fmt::Write as _;
use std::time::Instant;

/// One complete span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub cat: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A bounded in-memory span log. Spans past the cap are counted, not kept,
/// so a long traced run cannot grow without bound.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    tid: u64,
    cap: usize,
    next: u64,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanLog {
    pub fn new(epoch: Instant, tid: u64, cap: usize) -> Self {
        SpanLog {
            epoch,
            tid,
            cap,
            next: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent span itself is closed.
    pub fn open(&mut self) -> u64 {
        self.next += 1;
        (self.tid << 40) | self.next
    }

    /// Records a span that ran from `start` until now; returns its
    /// duration in seconds.
    pub fn close(
        &mut self,
        id: u64,
        parent: u64,
        cat: &'static str,
        name: &str,
        start: Instant,
    ) -> f64 {
        let end = Instant::now();
        let dur = end.duration_since(start);
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                id,
                parent,
                name: name.to_string(),
                cat,
                tid: self.tid,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
        } else {
            self.dropped += 1;
        }
        dur.as_secs_f64()
    }

    /// Times `f` as one span under `parent`; returns its value and seconds.
    pub fn time<T>(
        &mut self,
        parent: u64,
        cat: &'static str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open();
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let secs = self.close(id, parent, cat, name, start);
        (value, secs)
    }

    /// Moves `other`'s spans in, up to this log's cap.
    pub fn absorb(&mut self, other: SpanLog) {
        let room = self.cap.saturating_sub(self.spans.len());
        self.dropped += other.dropped + other.spans.len().saturating_sub(room) as u64;
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// Self time of every span (its duration minus the union of its
    /// children's intervals, which never overlap one another here: each
    /// parent's children run on its own thread, in turn).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = std::collections::HashMap::<u64, u64>::new();
        for span in &self.spans {
            if span.parent != 0 {
                *child_ns.entry(span.parent).or_default() += span.dur_ns;
            }
        }
        self.spans
            .iter()
            .map(|s| {
                s.dur_ns
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
            })
            .collect()
    }

    /// The Chrome-trace document; `other` is a ready JSON object body
    /// (without braces) merged into `otherData`.
    pub fn to_chrome_trace(&self, other: &str) -> String {
        let self_ns = self.self_ns();
        let mut out = String::with_capacity(self.spans.len() * 160 + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                json_string(&span.name),
                span.cat,
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
                span.tid,
                span.id,
                span.parent,
                self_ns[i] as f64 / 1e3,
            );
        }
        let _ = write!(
            out,
            "],\"otherData\":{{\"total\":{},\"dropped\":{}{}{}}}}}",
            self.spans.len() as u64 + self.dropped,
            self.dropped,
            if other.is_empty() { "" } else { "," },
            other
        );
        out
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
