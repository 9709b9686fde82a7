//! In-memory spans around every call the harness makes into a layer's
//! public function. Recorded only while tracing is switched on, written
//! out once at exit, and folded into per-name self times (a span's
//! duration minus what its child spans cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The tick this call belonged to: spans of one tick share it.
    pub tick: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
pub type SpanId = Option<u32>;

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    on: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            on: false,
        }
    }

    /// Nanoseconds since the tracer was created; the harness's one clock.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Switches recording on or off. Must be called with no span open.
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside a span");
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str, tick: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            tick,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: name, start, end, parent, tick.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"tick\":{}}}",
                s.name, s.start_ns, s.end_ns, s.tick
            )?;
        }
        out.flush()
    }
}

/// Folds spans into per-name counts, total time and self time.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            tick: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("tick", 0, 100, None),
            span("client.stage", 10, 30, Some(0)),
            span("client.commit_wait", 30, 90, Some(0)),
            span("tick", 100, 150, None),
            span("client.commit_wait", 110, 150, Some(3)),
        ];
        let by = totals_by_name(&spans);
        assert_eq!(
            by["tick"],
            NameTotals {
                count: 2,
                total_ns: 150,
                self_ns: 20 + 10
            }
        );
        assert_eq!(by["client.stage"].self_ns, 20);
        assert_eq!(by["client.commit_wait"].total_ns, 100);
        assert_eq!(by["client.commit_wait"].self_ns, 100);
    }

    #[test]
    fn tracer_records_nesting_only_while_on() {
        let mut t = Tracer::new();
        let off = t.begin("tick", 1);
        assert_eq!(off, None);
        t.end(off);
        assert!(t.spans().is_empty());

        t.set_recording(true);
        let outer = t.begin("tick", 7);
        let inner = t.begin("ctrl.tick", 7);
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].tick, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
