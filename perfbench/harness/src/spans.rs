//! Benchmark-owned spans, kept in memory and written out as Chrome
//! trace-event JSON (loads in `chrome://tracing` or Perfetto).
//!
//! Spans wrap the benchmark's own calls into the program's public
//! functions; nothing inside the program is instrumented. A disabled
//! recorder runs the wrapped call and records nothing.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: &'static str,
    tid: u32,
    /// Shared by every span of one epoch (0 outside the replay).
    id: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// One thread's span buffer.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    /// Time spent recording spans, by the name of the recorded span.
    overhead_ns: Vec<(&'static str, u64)>,
}

impl Spans {
    pub fn new(enabled: bool, origin: Instant, tid: u32) -> Self {
        Self {
            enabled,
            origin,
            tid,
            spans: Vec::new(),
            overhead_ns: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span named `name`, child of `parent`, and returns
    /// its result with its wall time in seconds (timed whether or not
    /// spans are recorded).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let begin = Instant::now();
        let out = f();
        let dur = begin.elapsed();
        if self.enabled {
            let record = Instant::now();
            self.spans.push(Span {
                name,
                parent,
                tid: self.tid,
                id,
                start_ns: begin.duration_since(self.origin).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
            self.add_overhead(name, record.elapsed().as_nanos() as u64);
        }
        (out, dur.as_secs_f64())
    }

    fn add_overhead(&mut self, name: &'static str, ns: u64) {
        match self.overhead_ns.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += ns,
            None => self.overhead_ns.push((name, ns)),
        }
    }

    /// Recording time charged to spans named `name`.
    pub fn overhead_of(&self, name: &str) -> u64 {
        self.overhead_ns
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, ns)| *ns)
    }

    /// Moves another thread's spans into this buffer.
    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
        for (name, ns) in other.overhead_ns {
            self.add_overhead(name, ns);
        }
    }

    /// Renders the spans as a Chrome trace-event JSON document.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":\"{}\"}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}");
        out
    }
}
