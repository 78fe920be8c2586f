//! Spans recorded by the harness around its calls into each layer. They
//! stay in memory during the run and are written out once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one request share `op`; `parent` names the span
/// of the enclosing layer for the same request.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counter deltas taken at the same boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The counter `key` attached to this span (0 when it has none).
    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        op: u64,
        start: Instant,
        end: Instant,
        counts: Vec<(&'static str, u64)>,
    ) {
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            counts,
        });
    }

    /// A span with no counters attached.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        self.record(name, Some(parent), op, start, end, Vec::new());
    }

    /// The spans called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Counter `key` summed over the spans called `name`.
    pub fn sum(&self, name: &str, key: &str) -> u64 {
        self.named(name).map(|s| s.count(key)).sum()
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}",
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.op,
                s.start_ns,
                s.end_ns
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Per span name: how many spans, their total duration, and their total
/// self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time is its duration minus the durations of the spans of
/// the same request that name it as parent, never below zero (the levels
/// of one request are timed in separate calls, so a child can come out a
/// little longer than its parent).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<(u64, &'static str), u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *children.entry((s.op, parent)).or_default() += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let below = children.get(&(s.op, s.name)).copied().unwrap_or(0);
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(below);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, op: u64, dur: u64) -> Span {
        Span {
            name,
            parent,
            op,
            start_ns: 1000,
            end_ns: 1000 + dur,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_of_the_same_request() {
        let spans = vec![
            span("wire", None, 1, 100),
            span("service", Some("wire"), 1, 70),
            span("parse", Some("service"), 1, 10),
            span("exec", Some("service"), 1, 40),
            span("wire", None, 2, 50),
            span("service", Some("wire"), 2, 45),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t["wire"],
            LayerTime {
                spans: 2,
                total_ns: 150,
                self_ns: 35
            }
        );
        assert_eq!(
            t["service"],
            LayerTime {
                spans: 2,
                total_ns: 115,
                self_ns: 65
            }
        );
        assert_eq!(
            t["exec"],
            LayerTime {
                spans: 1,
                total_ns: 40,
                self_ns: 40
            }
        );
        let self_sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 150, "self times add up to the root spans");
    }

    #[test]
    fn a_child_longer_than_its_parent_leaves_zero_not_a_wrap() {
        let spans = vec![
            span("wire", None, 1, 100),
            span("service", Some("wire"), 1, 130),
        ];
        assert_eq!(layer_times(&spans)["wire"].self_ns, 0);
    }
}
