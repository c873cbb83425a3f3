//! In-memory spans around the calls the driver makes into each layer.
//!
//! A span is `(name, start, end, parent, bin)`. Spans are recorded from
//! the benchmark's side of the API only, kept in memory for the whole
//! rep and written out once at exit. A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover.
//!
//! Two kinds of span do not come from the driver's own clock around a
//! real call and are flagged so: `reported` spans are durations the
//! system returned (`RefitReport.fit_ms`, `RoundTrace.ms`), placed at the
//! end of the call that returned them; `shadow` spans time a probe that
//! re-runs one layer's public function on the same input and therefore
//! never count toward busy time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How a span's interval was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Timed by the driver around a real call.
    Real,
    /// A duration the system reported about itself.
    Reported,
    /// A shadow probe on the same inputs; excluded from busy time.
    Shadow,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub bin: usize,
    pub kind: Kind,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
    /// Median self time of one span — what a typical call costs, immune
    /// to the odd call that a noisy host stretched.
    pub median_self_s: f64,
}

/// The span store of one traced rep.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span that started at `start` and lasted `dur`.
    /// Returns its id so reported children can name it as parent.
    pub fn record(
        &mut self,
        name: &'static str,
        kind: Kind,
        bin: usize,
        start: Instant,
        dur: Duration,
    ) -> usize {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent: None,
            bin,
            kind,
        });
        self.spans.len() - 1
    }

    /// Records a duration the system reported, as a child ending `before_end_ns`
    /// nanoseconds before its parent ends (clipped to the parent).
    pub fn record_reported(
        &mut self,
        name: &'static str,
        parent: usize,
        dur_ms: f64,
        before_end_ns: u64,
    ) -> usize {
        let (p_start, p_end, bin) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.bin)
        };
        let end_ns = p_end.saturating_sub(before_end_ns).max(p_start);
        let start_ns = end_ns.saturating_sub((dur_ms * 1e6) as u64).max(p_start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            bin,
            kind: Kind::Reported,
        });
        self.spans.len() - 1
    }

    /// Totals per span name, restricted to spans starting at or after `since`.
    pub fn totals(&self, since: Instant) -> BTreeMap<&'static str, NameTotals> {
        totals_of(&self.spans, self.ns(since))
    }

    /// The whole span list as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let kind = match s.kind {
                Kind::Real => "real",
                Kind::Reported => "reported",
                Kind::Shadow => "shadow",
            };
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"bin\":{},\"kind\":\"{kind}\"}}",
                s.name, s.start_ns, s.end_ns, s.bin
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span itself).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

fn totals_of(spans: &[Span], since_ns: u64) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let mut each: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.start_ns < since_ns {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.dur_ns() as f64 * 1e-9;
        t.self_s += self_ns as f64 * 1e-9;
        each.entry(s.name).or_default().push(self_ns as f64 * 1e-9);
    }
    for (name, t) in &mut out {
        t.median_self_s = crate::stats::median(&each[name]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            bin: 0,
            kind: Kind::Real,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        let spans = [
            span("observe", 0, 100, None),
            span("refit", 10, 40, Some(0)),
            span("refit", 40, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 30]);
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // round is inside refit is inside observe: observe loses only
        // refit's interval, refit loses only round's.
        let spans = [
            span("observe", 0, 100, None),
            span("refit", 20, 90, Some(0)),
            span("round", 30, 60, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = [
            span("observe", 10, 50, None),
            span("a", 0, 30, Some(0)),
            span("b", 20, 60, Some(0)),
        ];
        // Children cover [10, 50) entirely once clipped and merged.
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn reported_child_sits_at_the_end_of_its_parent() {
        let mut t = Tracer::new();
        let start = t.origin;
        let parent = t.record("observe", Kind::Real, 7, start, Duration::from_millis(10));
        let refit = t.record_reported("refit", parent, 4.0, 0);
        let round = t.record_reported("round", refit, 1.0, 0);
        assert_eq!(t.spans[refit].start_ns, 6_000_000);
        assert_eq!(t.spans[refit].end_ns, 10_000_000);
        assert_eq!(t.spans[round].bin, 7);
        // A report longer than the parent is clipped to it.
        let huge = t.record_reported("refit", parent, 50.0, 0);
        assert_eq!(t.spans[huge].start_ns, 0);
        let totals = t.totals(start);
        assert_eq!(totals["observe"].count, 1);
        assert!(totals["observe"].self_s.abs() < 1e-12);
        assert!((totals["round"].total_s - 0.001).abs() < 1e-12);
    }

    #[test]
    fn totals_skip_spans_before_the_cut() {
        let spans = [span("offer", 0, 10, None), span("offer", 20, 50, None)];
        let t = totals_of(&spans, 15);
        assert_eq!(t["offer"].count, 1);
        assert!((t["offer"].total_s - 30e-9).abs() < 1e-15);
        let all = totals_of(&spans, 0);
        assert!((all["offer"].median_self_s - 20e-9).abs() < 1e-15);
    }
}
