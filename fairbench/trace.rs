//! Spans recorded in memory around the benchmark's calls into each
//! layer, and the distance wrapper that counts the hot per-pair calls.
//!
//! A span is one timed call: name, start, end, the span that caused it,
//! and the op it belongs to. Per-pair distance calls are far too many to
//! record one by one (a balanced audit makes about 10⁵), so they become
//! one aggregate record per op: calls and busy time summed across
//! threads. Aggregates are not intervals and are never subtracted from
//! a span's wall time.

use crate::json;
use fairjob_hist::{DistanceBounds, DistanceError, Histogram, HistogramDistance, SolveScratch};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    name: &'static str,
    detail: String,
    op: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Calls {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    calls: u64,
    busy_ns: u64,
}

/// The spans and call aggregates of one thread of a run. A disabled
/// trace records nothing and hands out no span ids, so untraced runs
/// pay one branch per call site.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    calls: Vec<Calls>,
}

impl Trace {
    /// A trace whose timestamps count from `origin` (shared by every
    /// thread of a run, so their spans line up).
    pub fn new(on: bool, origin: Instant) -> Self {
        Trace {
            on,
            origin,
            spans: Vec::new(),
            calls: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// An empty trace for another thread of the same run.
    pub fn fork(&self) -> Trace {
        Trace::new(self.on, self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> Option<SpanId> {
        self.begin_detail(name, String::new(), op, parent)
    }

    /// Open a span carrying a detail, such as the algorithm name.
    pub fn begin_detail(
        &mut self,
        name: &'static str,
        detail: String,
        op: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            detail,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Trace::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Drain `counter` into one aggregate record under `parent`.
    pub fn take_calls(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        counter: &CallCounter,
    ) {
        let (calls, busy_ns) = counter.take();
        if self.on {
            self.calls.push(Calls {
                name,
                op,
                parent,
                calls,
                busy_ns,
            });
        }
    }

    /// Append another thread's records, keeping its parent links.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        let shift = |parent: Option<SpanId>| parent.map(|p| p + offset);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: shift(s.parent),
            ..s
        }));
        self.calls.extend(other.calls.into_iter().map(|c| Calls {
            parent: shift(c.parent),
            ..c
        }));
    }

    /// Wall time in ms spent in spans called `name` (and, when given,
    /// carrying `detail`), summed per op, for every op that has one.
    pub fn per_op_ms(&self, name: &str, detail: Option<&str>) -> Vec<f64> {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.name == name && detail.is_none_or(|d| s.detail == d) {
                *per_op.entry(s.op).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
            }
        }
        per_op.into_values().collect()
    }

    /// Total `(calls, busy ms)` of the aggregates called `name`.
    pub fn calls_total(&self, name: &str) -> (u64, f64) {
        self.calls
            .iter()
            .filter(|c| c.name == name)
            .fold((0, 0.0), |(calls, ms), c| {
                (calls + c.calls, ms + c.busy_ns as f64 / 1e6)
            })
    }

    /// Self time of every span, in record order.
    fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| self_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Write every record as one JSON line (format in README.md).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let parent = |p: Option<SpanId>| p.map_or("null".to_string(), |p| p.to_string());
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{id},\"parent\":{},\"op\":{},\"name\":{},\"detail\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                parent(s.parent),
                s.op,
                json::string(s.name),
                json::string(&s.detail),
                s.start_ns,
                s.end_ns,
            )?;
        }
        for c in &self.calls {
            writeln!(
                out,
                "{{\"kind\":\"calls\",\"parent\":{},\"op\":{},\"name\":{},\"calls\":{},\"busy_ns\":{}}}",
                parent(c.parent),
                c.op,
                json::string(c.name),
                c.calls,
                c.busy_ns,
            )?;
        }
        out.flush()
    }
}

/// Self time of a span over `[start, end]`: its duration minus the part
/// of that interval its children cover. Overlapping children (parallel
/// work) count once, and parts of a child outside the parent are
/// ignored.
pub fn self_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Counter slots per [`CallCounter`]; threads beyond this many share.
const SLOTS: usize = 8;

/// One thread's share of a counter, on a cache line of its own so that
/// worker threads counting hot calls do not contend.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Slot {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
}

/// Calls and busy nanoseconds of one family of trait methods, summed
/// across threads. Relaxed atomics: the totals publish no other data
/// and are read after the audit's worker tasks have joined.
#[derive(Debug, Default)]
pub struct CallCounter {
    slots: [Slot; SLOTS],
}

impl CallCounter {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as u64;
        let slot = &self.slots[THREAD_SLOT.with(|s| *s)];
        slot.calls.fetch_add(1, Ordering::Relaxed);
        slot.busy_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    /// Read and reset `(calls, busy ns)`.
    pub fn take(&self) -> (u64, u64) {
        self.slots.iter().fold((0, 0), |(calls, ns), slot| {
            (
                calls + slot.calls.swap(0, Ordering::Relaxed),
                ns + slot.busy_ns.swap(0, Ordering::Relaxed),
            )
        })
    }
}

/// A [`HistogramDistance`] that delegates every method to `inner` and
/// times it: `bounds` is the `hist` layer's bound screen; `distance`,
/// `distance_with` and `prime` are the `emd` layer's solves.
pub struct TimedDistance {
    inner: Arc<dyn HistogramDistance>,
    pub bounds: CallCounter,
    pub solve: CallCounter,
}

impl TimedDistance {
    pub fn new(inner: Arc<dyn HistogramDistance>) -> Self {
        TimedDistance {
            inner,
            bounds: CallCounter::default(),
            solve: CallCounter::default(),
        }
    }
}

impl HistogramDistance for TimedDistance {
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        self.solve.time(|| self.inner.distance(a, b))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bounds(&self, a: &Histogram, b: &Histogram) -> Option<DistanceBounds> {
        self.bounds.time(|| self.inner.bounds(a, b))
    }

    fn distance_with(
        &self,
        a: &Histogram,
        b: &Histogram,
        scratch: &mut SolveScratch,
    ) -> Result<f64, DistanceError> {
        self.solve.time(|| self.inner.distance_with(a, b, scratch))
    }

    fn prime(&self, h: &Histogram) -> Result<(), DistanceError> {
        self.solve.time(|| self.inner.prime(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent [0, 100]; children [10, 40] and [30, 60] overlap on
        // [30, 40], so together they cover [10, 60] = 50.
        assert_eq!(self_ns(0, 100, &mut [(30, 60), (10, 40)]), 50);
        // A child nested inside another covers nothing new.
        assert_eq!(self_ns(0, 100, &mut [(10, 90), (20, 30)]), 20);
        // Disjoint children add up; parts outside the parent are ignored.
        assert_eq!(self_ns(10, 100, &mut [(0, 20), (50, 60), (95, 120)]), 65);
        // A fully covered span has no self time; a leaf has all of it.
        assert_eq!(self_ns(0, 10, &mut [(0, 10), (0, 10)]), 0);
        assert_eq!(self_ns(5, 9, &mut []), 4);
    }

    #[test]
    fn trace_links_spans_across_threads_and_computes_self_time() {
        let origin = Instant::now();
        let mut main = Trace::new(true, origin);
        let root = main.begin("op", 1, None);
        let child = main.begin("child", 1, root);
        main.end(child);
        main.end(root);
        let mut other = Trace::new(true, origin);
        let theirs = other.begin("op", 2, None);
        let nested = other.begin_detail("child", "x".to_string(), 2, theirs);
        other.end(nested);
        other.end(theirs);
        main.absorb(other);
        assert_eq!(main.spans[3].parent, Some(2));
        assert_eq!(main.per_op_ms("child", Some("x")).len(), 1);
        assert_eq!(main.per_op_ms("child", None).len(), 2);
        assert!(main.per_op_ms("absent", None).is_empty());
        let selfs = main.self_times_ns();
        let dur = |i: usize| main.spans[i].end_ns - main.spans[i].start_ns;
        assert_eq!(selfs[0], dur(0) - dur(1));
        assert_eq!(selfs[1], dur(1));

        let off = Trace::new(false, origin);
        assert!(!off.is_on());
        let mut off = off;
        assert_eq!(off.begin("op", 1, None), None);
        assert!(off.spans.is_empty());
    }
}
