//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is (id, parent, name, start, end, count): `count` is how many
//! work items the span covered, so a stage timed once per 32-query batch
//! still yields a per-query cost. Spans stay in a pre-sized `Vec` until
//! the run ends and are then written as JSON lines. A layer's self time
//! is its span's duration minus what its direct children cover.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub spans: u64,
    pub count: u64,
    pub self_ns: u64,
}

impl LayerTotal {
    /// Self time per covered work item, in ns.
    pub fn ns_per_item(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }

    pub fn ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Span recorder. Disabled, every call is a branch and nothing else, so
/// the untraced run pays nothing for the instrumentation points.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool, capacity: usize) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            capacity,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; close it with [`Tracer::end`]. Returns [`NO_PARENT`]
    /// when disabled or full (a full tracer counts what it dropped and
    /// never reallocates inside a timed region).
    pub fn begin(&mut self, parent: u32, name: &'static str) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            count: 0,
        });
        id
    }

    /// Close span `id` as having covered `count` work items.
    pub fn end(&mut self, id: u32, count: u64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = self.epoch.elapsed().as_nanos() as u64;
            span.count = count;
        }
    }

    /// Time `f` under a span.
    pub fn span<T>(
        &mut self,
        parent: u32,
        name: &'static str,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(parent, name);
        let out = f();
        self.end(id, count);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children, floored at zero. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let child = s.end_ns.saturating_sub(s.start_ns);
            if let Some(p) = own.get_mut(s.parent as usize) {
                *p = p.saturating_sub(child);
            }
        }
    }
    own
}

/// Self time, span count and item count summed per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let own = self_times(spans);
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = totals.entry(s.name).or_default();
        t.spans += 1;
        t.count += s.count;
        t.self_ns += self_ns;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64, count: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            count,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // block [0,1000) ─┬─ call  [100,600) ─┬─ serve [150,350)
        //                 │                   └─ serve [400,500)
        //                 └─ replay [600,900)
        let spans = vec![
            span(0, NO_PARENT, "block", 0, 1000, 1),
            span(1, 0, "call", 100, 600, 64),
            span(2, 1, "serve", 150, 350, 32),
            span(3, 1, "serve", 400, 500, 32),
            span(4, 0, "replay", 600, 900, 64),
        ];
        assert_eq!(self_times(&spans), vec![200, 200, 200, 100, 300]);
        let totals = layer_totals(&spans);
        assert_eq!(
            totals["serve"],
            LayerTotal {
                spans: 2,
                count: 64,
                self_ns: 300
            }
        );
        assert_eq!(totals["serve"].ns_per_item(), 300.0 / 64.0);
        assert_eq!(totals["call"].self_ns, 200);
        // Self times partition the root: nothing is counted twice.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 1000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 16);
        let got = t.span(NO_PARENT, "x", 1, || 7);
        assert_eq!(got, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn full_tracer_drops_instead_of_growing() {
        let mut t = Tracer::new(true, 2);
        let a = t.begin(NO_PARENT, "a");
        let b = t.begin(a, "b");
        let c = t.begin(a, "c");
        assert_eq!(c, NO_PARENT);
        t.end(c, 1);
        t.end(b, 3);
        t.end(a, 1);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.spans()[1].count, 3);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
