//! Spans around the benchmark's calls into the program.
//!
//! A span is `{name, workload, start_ns, end_ns, parent}`, taken on the
//! benchmark's side of a public call, kept in memory, and written out
//! when the run ends. A span's self time is its duration minus the part
//! its children cover. [`Probe`] lets the shared set-up path run with
//! spans (`layers`) or without (`e2e`, where the metrics are measured).

use crate::json::{obj, Json};
use std::time::Instant;

/// Where the shared set-up and execute paths report each call.
pub trait Probe {
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T;
}

/// Tracing off: every span is just the call.
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn span<T>(&mut self, _name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub workload: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
}

/// Records spans in memory; nesting follows the call stack.
pub struct Tracer {
    epoch: Instant,
    workload: String,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            workload: String::new(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Name the workload that the following spans belong to.
    pub fn set_workload(&mut self, name: &str) {
        self.workload = name.to_string();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// [`Probe::span`], also returning the span's duration in
    /// milliseconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let id = self.spans.len();
        let out = self.span(name, f);
        let s = &self.spans[id];
        (out, (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Duration in milliseconds of every finished span named `name`
    /// for the current workload, in the order they ran.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.workload == self.workload && s.end_ns > 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The span file: every span with its self time, plus per-name
    /// totals for each workload.
    pub fn to_json(&self) -> Json {
        let self_ns = self_times(&self.spans);
        let spans: Vec<Json> = self
            .spans
            .iter()
            .zip(&self_ns)
            .map(|(s, own)| {
                obj([
                    ("name", Json::from(s.name.as_str())),
                    ("workload", Json::from(s.workload.as_str())),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", Json::from(s.parent)),
                    ("self_ns", Json::from(*own)),
                ])
            })
            .collect();
        struct Total<'a> {
            workload: &'a str,
            name: &'a str,
            count: u64,
            total_ns: u64,
            self_ns: u64,
        }
        // One total per (workload, name), in first-seen order.
        let mut totals: Vec<Total> = Vec::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let slot = totals
                .iter()
                .position(|t| t.workload == s.workload && t.name == s.name)
                .unwrap_or_else(|| {
                    totals.push(Total {
                        workload: &s.workload,
                        name: &s.name,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    totals.len() - 1
                });
            let t = &mut totals[slot];
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += own;
        }
        let summary: Vec<Json> = totals
            .iter()
            .map(|t| {
                obj([
                    ("workload", Json::from(t.workload)),
                    ("name", Json::from(t.name)),
                    ("count", Json::from(t.count)),
                    ("total_ms", Json::from(t.total_ns as f64 / 1e6)),
                    ("self_ms", Json::from(t.self_ns as f64 / 1e6)),
                ])
            })
            .collect();
        obj([("summary", Json::Arr(summary)), ("spans", Json::Arr(spans))])
    }
}

impl Probe for Tracer {
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            workload: self.workload.clone(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        // The clock is read last on the way in and first on the way
        // out, so the bookkeeping above lands in the parent's self time.
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }
}

/// Self time of each span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            workload: "w".into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("setup", 0, 100, None),
            span("tensor.load_coo", 5, 65, Some(0)),
            span("cost.plan", 70, 90, Some(0)),
            span("inner", 72, 80, Some(2)),
            span("execute", 100, 130, None),
        ];
        assert_eq!(self_times(&spans), [20, 60, 12, 8, 30]);
    }

    #[test]
    fn nesting_follows_the_call_stack() {
        let mut t = Tracer::default();
        t.set_workload("w");
        let v = t.span("setup", |t| {
            t.span("ir.parse", |_| 1) + t.span("cost.plan", |t| t.span("inner", |_| 2))
        });
        t.span("execute", |_| ());
        assert_eq!(v, 3);
        let parents: Vec<(&str, Option<usize>)> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            parents,
            [
                ("setup", None),
                ("ir.parse", Some(0)),
                ("cost.plan", Some(0)),
                ("inner", Some(2)),
                ("execute", None)
            ]
        );
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.durations_ms("execute").len(), 1);
        let own = self_times(t.spans());
        let setup = &t.spans()[0];
        assert!(own[0] <= setup.end_ns - setup.start_ns);
        let doc = t.to_json();
        assert_eq!(
            doc.get("summary")
                .map(|s| matches!(s, Json::Arr(a) if a.len() == 5)),
            Some(true)
        );
    }
}
