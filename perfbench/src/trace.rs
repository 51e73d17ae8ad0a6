//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span holds its name, start, end, parent and iteration id. Spans
//! are kept in a vector while the benchmark runs and are summarised at
//! the end: a span's *self time* is its duration minus the part of its
//! interval that its child spans cover. A disabled tracer records
//! nothing, so the untraced iterations pay one branch per span.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub iteration: u32,
}

/// Records spans while enabled; every method is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    iteration: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when the tracer is disabled.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            iteration: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Tag spans opened from now on with iteration `id`.
    pub fn set_iteration(&mut self, id: u32) {
        self.iteration = id;
    }

    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end = self.now();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Record an already-measured interval as a closed child of the
    /// innermost open span (the phase timings a layer reports itself).
    pub fn record(&mut self, name: &'static str, start: f64, end: f64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
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
            let mut run: Option<(f64, f64)> = None;
            for &(lo, hi) in kids.iter() {
                run = match run {
                    Some((a, b)) if lo <= b => Some((a, b.max(hi))),
                    Some((a, b)) => {
                        covered += b - a;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((a, b)) = run {
                covered += b - a;
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Per-name sums within each iteration: `iteration -> name -> total`.
/// `value` picks the figure summed (duration or self time).
pub fn per_iteration(
    spans: &[Span],
    value: impl Fn(usize) -> f64,
) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
    let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(s.iteration)
            .or_default()
            .entry(s.name)
            .or_insert(0.0) += value(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9]
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a1", 2.0, 3.0, Some(1)),
            span("b", 5.0, 9.0, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![3.0, 2.0, 1.0, 4.0]);
        // Self times partition the root's interval.
        assert_eq!(st.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            span("c", 9.0, 12.0, Some(0)),
        ];
        // Covered: [1,6] ∪ [9,10] = 6.
        assert_eq!(self_times(&spans)[0], 4.0);
    }

    #[test]
    fn tracer_nests_records_and_sums_per_iteration() {
        let mut t = Tracer::new();
        let _ = t.begin("ignored while disabled");
        t.set_enabled(true);
        t.set_iteration(7);
        let root = t.begin("root");
        t.record("phase", t.now(), t.now());
        t.span("leaf", || ());
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.iteration == 7 && s.end >= s.start));
        let st = self_times(spans);
        let sums = per_iteration(spans, |i| st[i]);
        assert_eq!(sums[&7].len(), 3);
    }
}
