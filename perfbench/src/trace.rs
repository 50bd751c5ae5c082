//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! module's public entry points; nothing inside the program is
//! instrumented. A span's *self time* is its duration minus the part of
//! its interval that its children cover, so the self times of one span
//! tree add up to the root's wall time exactly when the tree is well
//! formed (children inside their parent, siblings disjoint). The
//! reconciliation check tests that property on every request tree.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Sentinel id returned while tracing is off.
pub const NO_SPAN: usize = usize::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Span store shared by every client thread of a run.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn push(
        &self,
        name: &'static str,
        request: u64,
        parent: usize,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: (parent != NO_SPAN).then_some(parent),
            request,
        });
        spans.len() - 1
    }

    /// Open a span whose end is set by [`Tracer::end`].
    pub fn begin(&self, name: &'static str, request: u64, parent: usize) -> usize {
        let now = self.now_ns();
        self.push(name, request, parent, now, now)
    }

    pub fn end(&self, id: usize) {
        if id == NO_SPAN {
            return;
        }
        let now = self.now_ns();
        self.spans.lock().expect("span store poisoned")[id].end_ns = now;
    }

    /// Run `f` inside a span named `name`; `f` gets the span id so it can
    /// parent further spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: usize,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let out = f(id);
        self.end(id);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Length of the union of `[s, e)` intervals, each clipped to `[lo, hi)`.
fn covered(mut iv: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur_s, mut cur_e) = (0, 0, 0);
    for (s, e) in iv {
        let (s, e) = (s.clamp(lo, hi), e.clamp(lo, hi));
        if s >= cur_e {
            total += cur_e - cur_s;
            (cur_s, cur_e) = (s, e);
        } else {
            cur_e = cur_e.max(e);
        }
    }
    total + (cur_e - cur_s)
}

/// Self time of every span, ns (index-aligned with `spans`).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, ch)| (s.end_ns - s.start_ns) - covered(ch, s.start_ns, s.end_ns))
        .collect()
}

/// The traced run's ledger: per-layer self time and the reconciliation of
/// every root span against the self times of its tree.
pub struct LayerLedger {
    /// Span name → (summed self time ms, span count).
    pub self_ms: BTreeMap<&'static str, (f64, u64)>,
    /// Summed wall time of the root spans, ms.
    pub root_wall_ms: f64,
    /// Summed self time of the root spans themselves (the benchmark's own
    /// glue between layer calls), ms.
    pub root_self_ms: f64,
    /// Largest |Σ self − root wall| / root wall over all roots.
    pub worst_rel_err: f64,
    pub roots: usize,
}

/// Largest relative reconciliation error the check accepts.
pub const RECONCILE_TOLERANCE: f64 = 0.01;

pub fn ledger(spans: &[Span]) -> LayerLedger {
    let selfs = self_times(spans);
    // Walk each span to its root to add its self time to that root's sum.
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut tree_sum: BTreeMap<usize, u64> = BTreeMap::new();
    let mut out = LayerLedger {
        self_ms: BTreeMap::new(),
        root_wall_ms: 0.0,
        root_self_ms: 0.0,
        worst_rel_err: 0.0,
        roots: 0,
    };
    for (i, s) in spans.iter().enumerate() {
        *tree_sum.entry(root_of(i)).or_default() += selfs[i];
        let e = out.self_ms.entry(s.name).or_default();
        e.0 += selfs[i] as f64 / 1e6;
        e.1 += 1;
    }
    for (root, sum) in tree_sum {
        let wall = spans[root].end_ns - spans[root].start_ns;
        out.roots += 1;
        out.root_wall_ms += wall as f64 / 1e6;
        out.root_self_ms += selfs[root] as f64 / 1e6;
        if wall > 0 {
            let err = (sum as f64 - wall as f64).abs() / wall as f64;
            out.worst_rel_err = out.worst_rel_err.max(err);
        }
    }
    out
}

/// Spans as JSON lines (name, start, end, parent, request), for the trace
/// file written at exit.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_reconcile_on_a_nested_tree() {
        let t = Tracer::new(true);
        let root = t.push("request", 1, NO_SPAN, 0, 100);
        let a = t.push("a", 1, root, 10, 40);
        t.push("a.child", 1, a, 20, 30);
        t.push("b", 1, root, 50, 90);
        let spans = t.take();
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let l = ledger(&spans);
        assert_eq!(l.roots, 1);
        assert!(l.worst_rel_err < 1e-12);
        assert!((l.root_self_ms - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)], 0, 25), 20);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let t = Tracer::new(false);
        let id = t.span("x", 0, NO_SPAN, |id| id);
        assert_eq!(id, NO_SPAN);
        assert!(t.take().is_empty());
    }
}
