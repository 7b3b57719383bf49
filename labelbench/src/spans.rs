//! Spans recorded around the calls into each layer, kept in memory and
//! written out when the run ends.
//!
//! A span's self time is its duration minus the part of its interval that
//! its children cover; children may overlap (parallel work), so the covered
//! part is the union of their intervals clipped to the parent.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The benchmark operation the span belongs to.
    pub request: u64,
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start: u64,
    pub end: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end: start,
        });
        id
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span (indexed like `spans`), in nanoseconds.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start.max(p.start), span.end.min(p.end));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = span.start;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            (span.end - span.start) - union
        })
        .collect()
}

/// Writes one JSON object per span, with its self time.
pub fn dump(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
            span.id, span.request, span.name, span.start, span.end
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 7,
            name,
            start,
            end,
        }
    }

    /// request [0, 100] with two overlapping parallel children [10, 40] and
    /// [30, 60], and a third [90, 120] that outlives it; the first child has
    /// a child [15, 25] of its own.
    fn tree() -> Vec<Span> {
        vec![
            span(0, None, "request", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(0), "b", 30, 60),
            span(3, Some(0), "c", 90, 120),
            span(4, Some(1), "a.inner", 15, 25),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Covered by children of the request: [10, 60] ∪ [90, 100] = 60.
        assert_eq!(self_times(&tree()), vec![40, 20, 30, 30, 10]);
    }

    #[test]
    fn nested_children_do_not_count_against_the_grandparent() {
        let mut spans = tree();
        spans.truncate(2);
        spans.push(span(2, Some(1), "a.inner", 15, 25));
        // The request loses only its direct child's 30; "a" loses 10.
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn dump_writes_one_parseable_object_per_span() {
        let mut out = Vec::new();
        dump(&tree(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        let root: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert!(root["parent"].is_null());
        assert_eq!(root["name"].as_str(), Some("request"));
        assert_eq!(root["self_ns"].as_u64(), Some(40));
        let inner: serde_json::Value = serde_json::from_str(lines[4]).unwrap();
        assert_eq!(inner["parent"].as_u64(), Some(1));
        assert_eq!(inner["request"].as_u64(), Some(7));
        assert_eq!(inner["end_ns"].as_u64(), Some(25));
    }

    #[test]
    fn recorder_nests_spans_in_call_order() {
        let mut recorder = Recorder::new();
        let outer = recorder.begin("outer", 1, None);
        let value = recorder.time("inner", 1, Some(outer), || 42);
        recorder.end(outer);
        assert_eq!(value, 42);
        let spans = recorder.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
