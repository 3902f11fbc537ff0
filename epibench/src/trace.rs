//! Spans recorded around the benchmark's calls into each layer's public
//! functions.
//!
//! Every worker thread owns a [`Tracer`]; spans stay in memory until the
//! run ends, when they are merged, summarized (each layer's self time)
//! and written out as JSON lines. With tracing off, [`Tracer::span`]
//! only calls its closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The operation this span serves: the index of the request in its
    /// thread's stream, or of the write in a shadow replay.
    pub request: u64,
    /// Recorded while replaying the write stream off the serving path.
    pub replay: bool,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u64,
    next: u64,
    stack: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            next: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Time `f` as span `name` of `request`, nested under the innermost
    /// open span of this tracer.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        replay: bool,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        self.next += 1;
        let id = (self.thread << 40) | self.next;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            replay,
            start,
            end,
        });
        out
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    pub fn mean_ms(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64 / 1e6
    }
}

/// Self time per span name: a span's duration minus the part of it its
/// children cover. Children of one span run on the parent's thread, one
/// after another, so their durations do not overlap.
pub fn layer_times(spans: &[Span], replay: Option<bool>) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| replay.is_none_or(|r| s.replay == r))
    {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Durations in milliseconds of the spans named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"replay\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.request, s.replay, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        t.span("outer", 7, false, |t| {
            t.span("inner", 7, false, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let times = layer_times(&t.spans, None);
        let (outer, inner) = (&times["outer"], &times["inner"]);
        assert_eq!(outer.calls, 1);
        assert!(inner.total_ns >= 5_000_000);
        assert!(outer.self_ns < outer.total_ns - inner.total_ns + 1);
        let inner_span = t.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer_span = t.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner_span.parent, outer_span.id);
        assert_eq!(inner_span.request, 7);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        assert_eq!(t.span("x", 0, false, |_| 3), 3);
        assert!(t.spans.is_empty());
    }
}
