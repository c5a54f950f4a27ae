//! Spans recorded around the benchmark's own calls into the program, kept
//! in memory and written out when the run ends.
//!
//! A span has a name (`layer.what`), a start, an end, and a parent: every
//! span of one request has the request's `request` root as its parent, and
//! spans of one request share its id. A layer's self time is the time its
//! spans cover minus the part their children cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Name of the per-request root span.
pub const ROOT: &str = "request";

/// One recorded span; times are ns since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request (or measurement) id the span belongs to.
    pub req: u64,
    /// `layer.what`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next_req: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            next_req: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves `n` consecutive request ids and returns the first.
    pub fn reserve(&self, n: u64) -> u64 {
        self.next_req.fetch_add(n, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a child span of request `req`.
    pub fn span(&self, req: u64, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            req,
            name,
            start: self.ns(start),
            end: self.ns(end).max(self.ns(start)),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Records the root span of request `req`.
    pub fn root(&self, req: u64, name: &'static str, start: Instant, end: Instant) {
        debug_assert_eq!(name, ROOT);
        self.span(req, name, start, end);
    }

    /// Times `f` as a root span of its own (a measurement, not a request).
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let req = self.reserve(1);
        let start = Instant::now();
        let out = f();
        self.span(req, name, start, Instant::now());
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time per layer over `spans`, in ns. Within a request, the `request`
/// root's children are every other span of that request; other spans have
/// no children. A root's self time is the part of it no child covers.
pub fn self_time_by_layer(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut by_req: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_req.entry(s.req).or_default().push(s);
    }
    let mut out: HashMap<&'static str, u64> = HashMap::new();
    for group in by_req.values() {
        for s in group {
            let own = s.end - s.start;
            let self_ns = if s.name == ROOT {
                let children: Vec<(u64, u64)> = group
                    .iter()
                    .filter(|c| c.name != ROOT)
                    .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                    .filter(|(a, b)| a < b)
                    .collect();
                own - covered(children)
            } else {
                own
            };
            *out.entry(s.layer()).or_insert(0) += self_ns;
        }
    }
    out
}

/// Length of the union of intervals.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Writes the spans as JSON lines: `id`, `parent` (0 for a root), `req`,
/// `name`, `start_ns`, `end_ns`.
pub fn dump(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut roots: HashMap<u64, usize> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == ROOT {
            roots.insert(s.req, i + 1);
        }
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = match roots.get(&s.req) {
            Some(&root) if root != i + 1 => root,
            _ => 0,
        };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            i + 1,
            parent,
            s.req,
            s.name,
            s.start,
            s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            req,
            name,
            start,
            end,
        }
    }

    #[test]
    fn root_self_time_excludes_children() {
        let spans = vec![
            span(1, ROOT, 0, 100),
            span(1, "loadgen.wait", 0, 10),
            span(1, "wire.rtt_server", 20, 80),
            span(1, "codec.decode_check", 75, 90),
            span(2, "crypto.aes_block", 0, 50),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["request"], 100 - 10 - 70);
        assert_eq!(by_layer["loadgen"], 10);
        assert_eq!(by_layer["wire"], 60);
        assert_eq!(by_layer["codec"], 15);
        assert_eq!(by_layer["crypto"], 50);
    }

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(covered(vec![]), 0);
    }

    #[test]
    fn dump_links_children_to_their_root() {
        let tracer = Tracer::new();
        let t = Instant::now();
        tracer.span(7, "wire.rtt_server", t, t);
        tracer.root(7, ROOT, t, t);
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        dump(&tracer.spans(), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"id\":1,\"parent\":2"));
        assert!(lines[1].contains("\"id\":2,\"parent\":0"));
    }
}
