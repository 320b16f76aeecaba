//! In-memory spans around every call the benchmark makes into the program,
//! written to `benchmark/out/trace-<workload>.json` when a traced run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = Option<usize>;

struct Span {
    name: String,
    start_s: f64,
    end_s: f64,
    parent: SpanId,
}

/// Off (the end-to-end runs), `begin` and `end` do nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &str, parent: SpanId) -> SpanId {
        let now = self.epoch.elapsed().as_secs_f64();
        self.add(name, now, now, parent)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_s = self.epoch.elapsed().as_secs_f64();
        }
    }

    /// A span whose interval is known already, such as a round read from
    /// the event log, `start_s` and `end_s` on this tracer's clock.
    pub fn add(&mut self, name: &str, start_s: f64, end_s: f64, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Start of span `id` on this tracer's clock.
    pub fn start_of(&self, id: SpanId) -> f64 {
        id.map_or(0.0, |i| self.spans[i].start_s)
    }

    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::from("{\"workload\":\"");
        out.push_str(workload);
        out.push_str("\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                s.name, s.start_s, s.end_s
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}
