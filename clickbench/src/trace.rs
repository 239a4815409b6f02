//! Spans around the bench's calls into the engine, kept in memory and
//! written out when the run ends.
//!
//! Two kinds of span share one record shape. *Path* spans time the call
//! that actually answered the query (`click` → `query` → the engine
//! calls beneath it). *Probe* spans (`probe.*`) time the same analyzed
//! query replayed through one inner layer on bench-owned mirror shards —
//! measured beside, not inside, the real call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `click` / `query` value of a span that belongs to none.
pub const NONE: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; [`NONE`] for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub click: u64,
    /// Shared by every span of one query.
    pub query: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a new span hangs: its parent and the click / query it serves.
#[derive(Debug, Clone, Copy)]
pub struct At {
    pub parent: u64,
    pub click: u64,
    pub query: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; the returned id is also what its children name as
    /// parent. Close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, at: At) -> u64 {
        let id = self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: at.parent,
            name,
            start_ns,
            end_ns: start_ns,
            click: at.click,
            query: at.query,
        });
        id
    }

    /// Close span `id` and return its duration in nanoseconds.
    pub fn close(&mut self, id: u64) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Time `f` as one span; returns its result and duration (ns).
    pub fn time<T>(&mut self, name: &'static str, at: At, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(name, at);
        let out = f();
        (out, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"workload\":\"{workload}\",\"click\":{},\"query\":{}}}",
                s.id,
                json_id(s.parent),
                s.name,
                s.start_ns,
                s.end_ns,
                json_id(s.click),
                json_id(s.query),
            )?;
        }
        out.flush()
    }
}

fn json_id(id: u64) -> String {
    if id == NONE {
        "null".to_owned()
    } else {
        id.to_string()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice,
/// and a child is clipped to its parent's interval).
pub fn self_time_ns(spans: &[Span], id: u64) -> u64 {
    let span = &spans[id as usize];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut frontier = span.start_ns;
    for (lo, hi) in children {
        let lo = lo.max(frontier);
        if hi > lo {
            covered += hi - lo;
            frontier = hi;
        }
    }
    span.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t", start_ns, end_ns, click: NONE, query: NONE }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![span(0, NONE, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 90)];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 40);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_the_parent() {
        let spans = vec![
            span(0, NONE, 100, 200),
            span(1, 0, 110, 150),
            span(2, 0, 140, 160), // overlaps span 1 by 10
            span(3, 0, 190, 250), // runs past the parent's end
            span(4, 1, 120, 130), // a grandchild is its parent's business
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
        assert_eq!(self_time_ns(&spans, 1), 40 - 10);
    }

    #[test]
    fn tracer_links_children_and_serializes() {
        let mut t = Tracer::new();
        let click = t.open("click", At { parent: NONE, click: 3, query: NONE });
        let (v, ns) = t.time("query", At { parent: click, click: 3, query: 60 }, || 7);
        t.close(click);
        assert_eq!(v, 7);
        assert_eq!(t.spans()[1].parent, click);
        assert_eq!(t.spans()[1].duration_ns(), ns);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.durations("query"), vec![ns as f64]);

        let dir = crate::hygiene::out_dir().join(format!("test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path, "w").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"parent\":null,\"name\":\"click\""));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"query\":60"));
        assert!(lines[1].contains("\"workload\":\"w\""));
    }
}
