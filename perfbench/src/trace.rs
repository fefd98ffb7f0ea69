//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each public library call the benchmark makes
//! (name, start, end, parent span, and a group id shared by every span of one
//! detection or one batch). Spans stay in memory and are written out once,
//! when the run ends. A layer's self time is a span's duration minus the
//! durations of its child spans; the layer is the span name up to its first
//! `.` (`qhd.solve` belongs to `qhd`).

use crate::report::{json_number, Metric};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), group: 0 }
    }

    /// Sets the group id given to spans opened from now on.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            group: self.group,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end = Instant::now();
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Adds a span timed elsewhere (for example on another thread).
    pub fn record(&mut self, name: &'static str, group: u64, start: Instant, end: Instant) {
        self.spans.push(Span { name, group, parent: None, start, end });
    }

    /// Direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Total duration of the direct children of `id` named `name`, in ms.
    pub fn child_ms(&self, id: usize, name: &str) -> f64 {
        self.children(id).filter(|s| s.name == name).map(Span::ms).sum()
    }

    /// Self time of every layer under the root spans named `root`, summed
    /// over all of them, in ms.
    pub fn layer_self_ms(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut in_tree = vec![false; self.spans.len()];
        let mut out = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            // Parents precede children, so one forward pass marks each tree.
            in_tree[id] = span.name == root || span.parent.is_some_and(|p| in_tree[p]);
            if in_tree[id] {
                let children: f64 = self.children(id).map(Span::ms).sum();
                *out.entry(span.layer()).or_insert(0.0) += span.ms() - children;
            }
        }
        out
    }

    /// Writes the spans and the run's layer metrics as one JSON document.
    pub fn write(
        &self,
        path: &Path,
        header: &[(&str, String)],
        metrics: &[Metric],
    ) -> std::io::Result<()> {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos();
        let mut s = String::from("{\n");
        for (key, value) in header {
            let _ = writeln!(s, "  \"{key}\": {value},");
        }
        s.push_str("  \"metrics\": {\n");
        let rows: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  },\n  \"spans\": [\n");
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, sp)| {
                let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "    {{\"id\": {id}, \"name\": \"{}\", \"group\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                    sp.name,
                    sp.group,
                    ns(sp.start),
                    ns(sp.end)
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin("multilevel.detect");
        t.time("coarsen", || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.end(root);
        let layers = t.layer_self_ms("multilevel.detect");
        let total = t.spans[root].ms();
        assert!((layers["multilevel"] + layers["coarsen"] - total).abs() < 1e-9);
        assert!(layers["coarsen"] >= 5.0);
        assert_eq!(t.children(root).count(), 1);
    }
}
