//! In-memory spans around the calls into each layer.
//!
//! The harness records a span (name, start, end, parent, request id) at
//! every layer boundary it crosses, keeps them in memory, and writes them
//! out once at exit. A span's *self time* is its duration minus the part
//! of that interval its child spans cover; a layer's self time is the sum
//! over the spans whose name starts with `<layer>.`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in microseconds since the trace began.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// A single-threaded span recorder. Spans nest by call order: a span
/// entered while another is open becomes its child.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Trace::exit`].
    pub fn enter(&mut self, name: &str, request: u64) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds. Spans close
    /// innermost first; closing out of order is a harness bug.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_us = self.now_us();
        (self.spans[id].end_us - self.spans[id].start_us) / 1e6
    }

    /// Times `f` as a span and returns its result with the duration in
    /// seconds.
    pub fn time<T>(&mut self, name: &str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name, request);
        let out = f();
        (out, self.exit(id))
    }

    /// Records a child of the closed span `parent` from a duration the
    /// callee measured itself (e.g. executor time out of
    /// `GroundingStats`), placed at the parent's start and clipped to it.
    pub fn attribute(&mut self, parent: usize, name: &str, seconds: f64) {
        let p = &self.spans[parent];
        let span = Span {
            name: name.to_string(),
            start_us: p.start_us,
            end_us: (p.start_us + seconds * 1e6).min(p.end_us),
            parent: Some(parent),
            request: p.request,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"request\":{}}}",
                    s.name,
                    s.start_us,
                    s.end_us,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Self time of every span, in seconds: duration minus the union of its
/// children's intervals (clipped to the span, so overlapping or
/// overrunning children are never subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_us - s.start_us - covered) / 1e6
        })
        .collect()
}

/// Self seconds summed per span name, over the subtree rooted at `root`.
pub fn self_by_name(spans: &[Span], root: usize) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut at = Some(i);
        while let Some(j) = at {
            if j == root {
                *out.entry(s.name.clone()).or_insert(0.0) += selfs[i];
                break;
            }
            at = spans[j].parent;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_us: start,
            end_us: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("root", 0.0, 100e6, None),
            span("a.x", 10e6, 40e6, Some(0)),
            span("a.y", 15e6, 25e6, Some(1)), // nested in a.x
            span("b.z", 50e6, 70e6, Some(0)), // sibling of a.x
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![50.0, 20.0, 10.0, 20.0]);
        // Self times partition the root's wall exactly.
        assert_eq!(selfs.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn overlapping_and_overrunning_children_are_not_subtracted_twice() {
        let spans = vec![
            span("root", 0.0, 10e6, None),
            span("c.one", 2e6, 6e6, Some(0)),
            span("c.two", 4e6, 8e6, Some(0)),   // overlaps c.one
            span("c.late", 9e6, 15e6, Some(0)), // overruns the parent
        ];
        // Union covered = [2, 8] + [9, 10] = 7 of 10.
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn attributed_child_is_clipped_to_its_parent() {
        let mut t = Trace::new();
        let id = t.enter("grounder.ground", 1);
        t.exit(id);
        t.spans[id].start_us = 0.0;
        t.spans[id].end_us = 2e6;
        t.attribute(id, "rdbms.exec", 5.0);
        let selfs = self_times(t.spans());
        assert_eq!(selfs[id], 0.0);
        assert_eq!(selfs[1], 2.0);
    }

    #[test]
    fn self_by_name_covers_only_the_rooted_subtree() {
        let spans = vec![
            span("cold", 0.0, 10e6, None),
            span("mln.parse", 0.0, 4e6, Some(0)),
            span("mln.parse", 5e6, 6e6, Some(0)),
            span("probe.other", 20e6, 30e6, None),
        ];
        let by = self_by_name(&spans, 0);
        assert_eq!(by["mln.parse"], 5.0);
        assert_eq!(by["cold"], 5.0);
        assert!(!by.contains_key("probe.other"));
    }
}
