//! In-memory spans recorded by the benchmark around its calls into
//! each layer, and the ledger built from them.
//!
//! Spans are kept in memory while the run measures and written out
//! when it ends. A span's self time is its duration minus the part of
//! its interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `parser.parse`.
    pub name: &'static str,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The script or request this span belongs to.
    pub id: u64,
}

/// A span recorder for one thread of benchmark code.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name` for script/request `id`.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Records a span timed elsewhere (for example by another thread),
    /// under the currently open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, id: u64) {
        let at = |i: Instant| i.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            id,
        });
    }

    /// Every recorded span, in the order they were opened or recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start) - covered
            })
            .collect()
    }

    /// The ledger over the root spans named `root`.
    pub fn ledger(&self, root: &str) -> Ledger {
        let selfs = self.self_times();
        let mut ledger = Ledger::default();
        for (i, s) in self.spans.iter().enumerate() {
            let mut top = i;
            while let Some(p) = self.spans[top].parent {
                top = p;
            }
            if self.spans[top].name != root {
                continue;
            }
            if i == top {
                ledger.wall += s.end - s.start;
                ledger.residual += selfs[i];
            } else {
                *ledger.parts.entry(s.name).or_default() += selfs[i];
            }
        }
        ledger
    }

    /// Writes the spans as a JSON array of objects.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent},\"id\":{}}}{comma}",
                s.name, s.start, s.end, s.id
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Where the wall time of the root spans went: self time per layer
/// span name, plus the root spans' own self time (the residual the
/// layer spans do not account for).
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Total duration of the root spans, seconds.
    pub wall: f64,
    /// Self time per span name below the roots, seconds.
    pub parts: BTreeMap<&'static str, f64>,
    /// Wall time outside every layer span, seconds.
    pub residual: f64,
}

impl Ledger {
    /// Sum of the parts (without the residual).
    pub fn accounted(&self) -> f64 {
        self.parts.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("root", 0, |t| {
            spin(2);
            t.span("a", 0, |t| {
                spin(3);
                t.span("b", 0, |_| spin(3));
            });
        });
        let selfs = t.self_times();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let dur = |i: usize| spans[i].end - spans[i].start;
        assert!((selfs[0] + selfs[1] + selfs[2] - dur(0)).abs() < 1e-9);
        assert!(selfs[1] < dur(1));
    }

    #[test]
    fn ledger_parts_plus_residual_equal_wall() {
        let mut t = Tracer::default();
        for id in 0..3 {
            t.span("script", id, |t| {
                t.span("compile", id, |t| t.span("parser.parse", id, |_| spin(1)));
                t.span("exec.region", id, |_| spin(2));
                spin(1);
            });
        }
        t.span("other", 9, |_| spin(1));
        let l = t.ledger("script");
        assert!((l.accounted() + l.residual - l.wall).abs() < 1e-9);
        assert!(l.parts.contains_key("parser.parse"));
        assert!(!l.parts.contains_key("other"));
        assert!(l.residual > 0.002);
    }
}
