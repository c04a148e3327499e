//! In-memory span recording and the per-layer ledger built from it.
//!
//! A traced run wraps every public call the benchmark makes into raceline
//! in a span: name, start, end, parent span, operation id. Spans stay in
//! memory until the run ends. A span's *self time* is its duration minus
//! the part of its interval that its child spans cover, so the self times
//! of an operation's span tree add up to the operation's latency.
//!
//! One call can hide several layers (a VM run delivers events through the
//! filter into a detector). Those are split by *tool-stack subtraction*:
//! reference runs of the same program and schedule with progressively
//! fuller tool stacks, measured back to back in the same operation, give
//! cumulative times; each layer is the difference to the stack below it.
//! A difference that comes out negative is kept (so the sum still equals
//! the span) and flagged, never clamped away.

use std::collections::BTreeMap;
use std::time::Instant;

/// Operation id of spans recorded during set-up.
pub const SETUP_OP: u64 = u64::MAX;

/// Layer that receives the root span's own self time: benchmark glue and
/// answer-key checks between the spanned calls.
pub const GLUE: &str = "bench.other_ms";

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread. Tracers on several threads share one
/// `epoch`, so their spans merge onto one time axis.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new(), open: Vec::new(), op: SETUP_OP }
    }

    /// Operation id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn op(&self) -> u64 {
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Like [`Tracer::time`], also returning the span's duration in ms.
    pub fn measure<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        (r, self.duration_ms(id))
    }

    /// Drop every span from index `mark` on (an operation that panicked
    /// part-way), closing whatever it left open.
    pub fn abandon(&mut self, mark: usize) {
        self.spans.truncate(mark);
        self.open.retain(|&id| id < mark);
    }

    pub fn duration_ms(&self, id: usize) -> f64 {
        ns_to_ms(self.spans[id].duration_ns())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Append `more` (one tracer's spans) to `all`, rebasing parent indices.
pub fn append_spans(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }));
}

/// One span as a JSON line.
pub fn span_json(s: &Span) -> String {
    let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
    let op = if s.op == SETUP_OP { "\"setup\"".to_string() } else { s.op.to_string() };
    format!(
        "{{\"name\":{:?},\"op\":{op},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
        s.name, s.start_ns, s.end_ns
    )
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span). Children may overlap each
/// other — spans from parallel work — and the overlap is counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| (spans[c].start_ns.max(s.start_ns), spans[c].end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// A layer time that came out negative under subtraction.
#[derive(Clone, Debug, PartialEq)]
pub struct Negative {
    pub layer: &'static str,
    pub ms: f64,
}

/// Split `total_ms` across a tool stack. `refs` are cumulative reference
/// times in stack order (each includes every layer before it); `top` is
/// the layer above the last reference. Returns per-layer times, which sum
/// to `total_ms` exactly, and the layers whose time is negative.
pub fn stack_split(
    total_ms: f64,
    refs: &[(&'static str, f64)],
    top: &'static str,
) -> (Vec<(&'static str, f64)>, Vec<Negative>) {
    let mut layers = Vec::with_capacity(refs.len() + 1);
    let mut below = 0.0;
    for &(layer, cumulative) in refs {
        layers.push((layer, cumulative - below));
        below = cumulative;
    }
    layers.push((top, total_ms - below));
    let negative = layers
        .iter()
        .filter(|(_, ms)| *ms < 0.0)
        .map(|&(layer, ms)| Negative { layer, ms })
        .collect();
    (layers, negative)
}

/// How one span's self time is divided: by tool-stack subtraction.
pub struct Split {
    pub span: usize,
    pub refs: Vec<(&'static str, f64)>,
    pub top: &'static str,
}

/// Per-layer time totals over a set of operations.
#[derive(Default)]
pub struct Ledger {
    /// Layer → summed self time (ms). A key is present once any span of
    /// that layer was seen, even with zero time.
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Operations folded in.
    pub ops: u64,
    /// Summed root-span (traced operation) latency, ms.
    pub latency_ms: f64,
    /// Negative layer times found by subtraction, in fold order.
    pub negatives: Vec<Negative>,
}

impl Ledger {
    /// Fold the span tree under `root` into the ledger: each span's self
    /// time goes to the layer it is named after, except spans with a
    /// [`Split`], whose self time is divided across the split's layers,
    /// and the root, whose self time is [`GLUE`]. Returns the layer times
    /// of this operation (which sum to the root's duration).
    pub fn fold(
        &mut self,
        spans: &[Span],
        root: usize,
        splits: &[Split],
    ) -> Vec<(&'static str, f64)> {
        // Only spans recorded from the root on can belong to its tree
        // (parents precede children), so the walk is per operation, not
        // per run.
        let local: Vec<Span> = spans[root..]
            .iter()
            .map(|s| Span { parent: s.parent.and_then(|p| p.checked_sub(root)), ..s.clone() })
            .collect();
        let selfs = self_times(&local);
        let mut in_tree = vec![false; local.len()];
        in_tree[0] = true;
        for i in 1..local.len() {
            if let Some(p) = local[i].parent {
                in_tree[i] = in_tree[p];
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for i in (0..local.len()).filter(|&i| in_tree[i]) {
            let ms = ns_to_ms(selfs[i]);
            if let Some(split) = splits.iter().find(|s| s.span == root + i) {
                let (layers, negative) = stack_split(ms, &split.refs, split.top);
                out.extend(layers);
                self.negatives.extend(negative);
            } else {
                out.push((if i == 0 { GLUE } else { local[i].name }, ms));
            }
        }
        for &(layer, ms) in &out {
            *self.layer_ms.entry(layer).or_insert(0.0) += ms;
        }
        self.ops += 1;
        self.latency_ms += ns_to_ms(spans[root].duration_ns());
        out
    }
}

impl Ledger {
    /// Add another ledger's operations (a second client thread's).
    pub fn merge(&mut self, other: &Ledger) {
        for (&layer, &ms) in &other.layer_ms {
            *self.layer_ms.entry(layer).or_insert(0.0) += ms;
        }
        self.ops += other.ops;
        self.latency_ms += other.latency_ms;
        self.negatives.extend(other.negatives.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two children from parallel work overlap on [20, 30); a third is
        // nested inside the first. Covered: [10, 40) ∪ [60, 70) = 40 ns.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 40),
            span("c", Some(0), 60, 70),
            span("a.inner", Some(1), 12, 18),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 60);
        assert_eq!(selfs[1], 14);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("root", None, 10, 50), span("late", Some(0), 40, 80)];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn stack_split_telescopes_to_the_total() {
        let (layers, negative) = stack_split(10.0, &[("dispatch", 4.0), ("filter", 6.5)], "engine");
        assert_eq!(layers, vec![("dispatch", 4.0), ("filter", 2.5), ("engine", 3.5)]);
        assert!(negative.is_empty());
        assert_eq!(layers.iter().map(|l| l.1).sum::<f64>(), 10.0);
    }

    #[test]
    fn stack_split_flags_a_negative_layer_instead_of_hiding_it() {
        // The filtered reference ran faster than the bare one (host noise):
        // the filter layer is negative and must stay so, and be reported.
        let (layers, negative) = stack_split(10.0, &[("dispatch", 5.0), ("filter", 4.0)], "engine");
        assert_eq!(layers, vec![("dispatch", 5.0), ("filter", -1.0), ("engine", 6.0)]);
        assert_eq!(negative, vec![Negative { layer: "filter", ms: -1.0 }]);
        assert_eq!(layers.iter().map(|l| l.1).sum::<f64>(), 10.0);
    }

    #[test]
    fn ledger_layers_add_up_to_the_operation_latency() {
        let spans = vec![
            span("ref", None, 0, 5_000_000),
            span("op", None, 5_000_000, 15_000_000),
            span("lower", Some(1), 5_500_000, 6_000_000),
            span("run", Some(1), 6_000_000, 14_000_000),
        ];
        let mut ledger = Ledger::default();
        let splits =
            [Split { span: 3, refs: vec![("dispatch", 5.0), ("filter", 6.0)], top: "engine" }];
        let layers = ledger.fold(&spans, 1, &splits);
        let sum: f64 = layers.iter().map(|l| l.1).sum();
        assert!((sum - 10.0).abs() < 1e-9, "{layers:?}");
        assert_eq!(ledger.layer_ms[GLUE], 1.5);
        assert_eq!(ledger.layer_ms["engine"], 2.0);
        assert!(!ledger.layer_ms.contains_key("ref"), "spans outside the root are not folded");
        assert_eq!(ledger.latency_ms, 10.0);
    }

    #[test]
    fn tracer_nests_and_times_spans() {
        let mut tr = Tracer::new(Instant::now());
        tr.set_op(3);
        let outer = tr.begin("outer");
        let v = tr.time("inner", || 41 + 1);
        tr.end(outer);
        assert_eq!(v, 42);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
