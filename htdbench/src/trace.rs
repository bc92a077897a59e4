//! In-memory spans for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer's public
//! functions (the library itself is not instrumented).  Every span names the
//! operation it belongs to and the span that caused it; a layer's *self time*
//! is its span's duration minus the part of that interval its child spans
//! cover.  Spans stay in memory and are written out once, after the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::clock::now_ns;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The operation (flow or served job) the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Opens a span starting now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = now_ns();
        self.record(name, op, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = now_ns();
    }

    /// Records a span from timestamps taken elsewhere (observer callbacks,
    /// frame arrivals).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let child = &self.spans[c];
                    (
                        child.start_ns.clamp(span.start_ns, span.end_ns),
                        child.end_ns.clamp(span.start_ns, span.end_ns),
                    )
                })
                .collect();
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            *totals.entry(span.name).or_default() += span.end_ns - span.start_ns - union;
        }
        totals
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one tab-separated line:
    /// `id op parent name start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        for line in header.lines() {
            let _ = writeln!(out, "# {line}");
        }
        out.push_str("id\top\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::default();
        let root = t.record("root", 0, None, 0, 100);
        t.record("a", 0, Some(root), 10, 40);
        // Overlaps `a`: only 40..60 is new coverage.
        t.record("b", 0, Some(root), 30, 60);
        let inner = t.record("c", 0, Some(root), 80, 90);
        t.record("d", 0, Some(inner), 82, 85);
        let self_ns = t.self_ns();
        assert_eq!(self_ns["root"], 100 - 50 - 10);
        assert_eq!(self_ns["a"], 30);
        assert_eq!(self_ns["c"], 7);
        assert_eq!(self_ns["d"], 3);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut a = Trace::default();
        a.record("x", 0, None, 0, 10);
        let mut b = Trace::default();
        let root = b.record("root", 1, None, 0, 10);
        b.record("child", 1, Some(root), 2, 4);
        a.absorb(b);
        assert_eq!(a.self_ns()["root"], 8);
    }
}
