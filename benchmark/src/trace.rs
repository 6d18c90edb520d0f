//! In-memory span recorder for the traced run.
//!
//! A span is `{name, start, end, parent, tx_id}`; spans of one transaction
//! share its `tx_id`. Spans are kept in memory and written out once, when
//! the run ends. A span's *self time* is its duration minus the part of
//! that interval its child spans cover, so the self times of a tree sum to
//! the duration of its root exactly.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub tx_id: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, tx_id: u64) -> SpanId {
        let start = self.now();
        self.record(name, parent, tx_id, start, start)
    }

    /// End a span now; returns its end time.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now();
        self.spans[id.0].end = end;
        end
    }

    pub fn start_of(&self, id: SpanId) -> u64 {
        self.spans[id.0].start
    }

    /// Add a span whose interval is already known (a duration the program
    /// published, laid out inside its parent).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        tx_id: u64,
        start: u64,
        end: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: parent.map(|p| p.0),
            tx_id,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// part of its interval that its children cover. Children are clipped
    /// to the parent and overlapping children are counted once.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: the self time of that layer in each transaction
    /// (`tx_id`), in microseconds. A transaction with several spans of one
    /// name (one per DML statement, say) contributes their sum.
    pub fn self_us_by_layer(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let selfs = self.self_times();
        let mut per: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(&selfs) {
            *per.entry((s.name, s.tx_id)).or_default() += ns;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per {
            out.entry(name).or_default().push(ns as f64 / 1e3);
        }
        out
    }

    /// The first `limit` spans as a JSON array (`benchmark/out/trace.json`).
    pub fn to_json(&self, limit: usize) -> String {
        let spans = &self.spans[..self.spans.len().min(limit)];
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"tx_id\":{}}}{}\n",
                s.name,
                s.start,
                s.end,
                s.tx_id,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let root = t.record("tx", None, 1, 0, 100);
        let a = t.record("a", Some(root), 1, 10, 40);
        t.record("a.inner", Some(a), 1, 15, 25);
        t.record("b", Some(root), 1, 50, 90);
        assert_eq!(t.self_times(), vec![30, 20, 10, 40]);
        // The self times of a tree sum to its root's duration.
        assert_eq!(t.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let mut t = Tracer::new();
        let root = t.record("tx", None, 1, 0, 100);
        t.record("a", Some(root), 1, 10, 60);
        t.record("b", Some(root), 1, 40, 120); // overlaps a, overhangs root
        assert_eq!(t.self_times()[0], 10);
    }

    #[test]
    fn layers_sum_per_transaction() {
        let mut t = Tracer::new();
        for tx in 1..=2 {
            let root = t.record("tx", None, tx, 0, 1000 * tx);
            t.record("dml", Some(root), tx, 0, 100);
            t.record("dml", Some(root), tx, 100, 300);
        }
        let by = t.self_us_by_layer();
        assert_eq!(by["dml"], vec![0.3, 0.3]);
        assert_eq!(by["tx"], vec![0.7, 1.7]);
    }
}
