//! The traced run's span ledger: spans kept in memory, per-layer self
//! time, and the span dump written when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `cluster.msg.encode`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch (0 while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id of the batch the span belongs to.
    pub req: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Closes span `index`.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let index = self.open(name, parent, req);
        let out = f();
        self.close(index);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines: index, name, start, end,
    /// parent (`-` for a root), request id.
    pub fn write_to(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.req
            )?;
        }
        Ok(())
    }

    /// Writes the span dump to `path`.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut file)?;
        file.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (start, end) = (s.start.max(parent.start), s.end.min(parent.end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.end.saturating_sub(s.start) - covered
        })
        .collect()
}

/// The layer a span name belongs to: everything before its last dot.
pub fn layer(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Summed self time per layer, in nanoseconds, over the spans whose root
/// is named `root`.
pub fn self_time_by_layer(spans: &[Span], root: &str) -> BTreeMap<String, u64> {
    let selfs = self_times(spans);
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut by_layer = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of(i)].name == root {
            *by_layer.entry(layer(s.name).to_string()).or_insert(0) += selfs[i];
        }
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("inline.batch", 0, 100, None),
            span("cluster.msg.encode", 10, 20, Some(0)),
            span("cluster.worker.handle", 20, 70, Some(0)),
            // Overlaps its sibling: the covered union is 20..80.
            span("cluster.worker.handle", 60, 80, Some(0)),
            span("cluster.msg.decode", 30, 40, Some(2)),
            // Sticks out past its parent: only 95..100 is covered.
            span("cluster.msg.decode", 95, 130, Some(0)),
            span("e2e.batch", 200, 450, None),
        ];
        assert_eq!(self_times(&spans), vec![25, 10, 40, 20, 10, 35, 250]);
        let by_layer = self_time_by_layer(&spans, "inline.batch");
        assert_eq!(by_layer["inline"], 25);
        assert_eq!(by_layer["cluster.msg"], 55);
        assert_eq!(by_layer["cluster.worker"], 60);
        assert!(!by_layer.contains_key("e2e"));
    }

    #[test]
    fn the_dump_has_one_line_per_span() {
        let mut tracer = Tracer::default();
        let root = tracer.open("inline.batch", None, 3);
        tracer.span("cluster.msg.encode", Some(root), 3, || ());
        tracer.close(root);
        let mut out = Vec::new();
        tracer.write_to(&mut out).expect("write to memory");
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .nth(2)
            .expect("child")
            .contains("cluster.msg.encode\t"));
    }
}
