//! In-memory span recorder, self-time analysis and the Chrome trace-event
//! writer.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions: nothing inside the program is probed. A
//! span knows its parent through a per-thread stack; work the program fans
//! out to its own worker threads finds its parent through
//! [`Tracer::fan_out`], which names the span that caused it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use solarml::trace::JsonObject;

/// One timed call: `[start_ns, end_ns)` on the tracer's clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique, never 0.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `day_sim` or `store.require`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Small integer naming the recording thread.
    pub thread: u32,
    /// Request the span served: a node index or a candidate index.
    pub req: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread that records into it.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Parent for spans opened on a thread with no open span of its own.
    ambient: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            ambient: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, req: Option<u64>) -> Guard<'_> {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open
                .last()
                .copied()
                .unwrap_or_else(|| self.ambient.load(Ordering::SeqCst));
            open.push(id);
            parent
        });
        Guard {
            tracer: self,
            id,
            parent,
            name,
            req,
            start_ns: self.now_ns(),
        }
    }

    /// Makes `cause` the parent of spans that other threads open with no
    /// span of their own open, until the returned guard drops.
    pub fn fan_out(&self, cause: &Guard<'_>) -> FanOut<'_> {
        let previous = self.ambient.swap(cause.id, Ordering::SeqCst);
        FanOut {
            tracer: self,
            previous,
        }
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// An open span; records itself when dropped.
#[derive(Debug)]
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    req: Option<u64>,
    start_ns: u64,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            thread: THREAD.with(|t| *t),
            req: self.req,
        };
        // Never panic in drop: a poisoned buffer only loses this span.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Restores the previous fan-out parent when dropped.
#[derive(Debug)]
pub struct FanOut<'a> {
    tracer: &'a Tracer,
    previous: u64,
}

impl Drop for FanOut<'_> {
    fn drop(&mut self) {
        self.tracer.ambient.store(self.previous, Ordering::SeqCst);
    }
}

/// Opens a span on `tracer` when there is one: the same code then runs
/// traced and untraced.
pub fn span<'a>(
    tracer: Option<&'a Tracer>,
    name: &'static str,
    req: Option<u64>,
) -> Option<Guard<'a>> {
    tracer.map(|t| t.span(name, req))
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the union of its children's intervals, clipped to its own. Children on
/// other threads count, so a span waiting on its workers has little self
/// time, and two overlapping children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&p) = index.get(&span.parent) {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.dur_ns() - covered
        })
        .collect()
}

/// The name of each span's root ancestor, index-aligned with `spans`.
pub fn roots(spans: &[Span]) -> Vec<&'static str> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    spans
        .iter()
        .map(|span| {
            let mut at = span;
            // Parents always open before their children, so the walk ends.
            while let Some(&p) = index.get(&at.parent) {
                at = &spans[p];
            }
            at.name
        })
        .collect()
}

/// Renders spans as Chrome trace-event JSON (complete `X` events, times in
/// microseconds), loadable in `chrome://tracing` or Perfetto.
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            let mut args = JsonObject::new();
            args.raw("id", s.id.to_string())
                .raw("parent", s.parent.to_string());
            if let Some(req) = s.req {
                args.raw("req", req.to_string());
            }
            let mut event = JsonObject::new();
            event
                .string("name", s.name)
                .string("cat", s.name.split('.').next().unwrap_or(s.name))
                .string("ph", "X")
                .number("ts", s.start_ns as f64 / 1e3)
                .number("dur", s.dur_ns() as f64 / 1e3)
                .count("pid", 1)
                .count("tid", s.thread as usize)
                .object("args", args);
            event.render()
        })
        .collect();
    let mut doc = JsonObject::new();
    doc.raw("traceEvents", format!("[{}]", events.join(",\n")))
        .string("displayTimeUnit", "ms");
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64, thread: u32) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            thread,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span(1, 0, 0, 100, 0),
            span(2, 1, 10, 30, 0),
            span(3, 2, 12, 20, 0),
            span(4, 1, 50, 60, 0),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 8, 10]);
    }

    #[test]
    fn self_time_takes_the_union_of_cross_thread_children() {
        // A campaign span on thread 0 whose node spans run on two workers,
        // overlapping each other and spilling past the parent's end.
        let spans = [
            span(1, 0, 0, 100, 0),
            span(2, 1, 10, 60, 1),
            span(3, 1, 40, 90, 2),
            span(4, 1, 95, 120, 1),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 80 - 5);
    }

    #[test]
    fn fan_out_parents_worker_spans_and_restores() {
        let tracer = Tracer::new();
        {
            let campaign = tracer.span("campaign", None);
            let _fan = tracer.fan_out(&campaign);
            std::thread::scope(|scope| {
                for node in 0..2u64 {
                    let tracer = &tracer;
                    scope.spawn(move || {
                        let _node = tracer.span("node", Some(node));
                        let _inner = tracer.span("day_sim", Some(node));
                    });
                }
            });
        }
        let after = tracer.span("later", None);
        drop(after);
        let spans = tracer.spans();
        let id_of = |name: &'static str| spans.iter().filter(move |s| s.name == name);
        let campaign = id_of("campaign").next().expect("campaign span").id;
        assert!(id_of("node").all(|s| s.parent == campaign));
        for inner in id_of("day_sim") {
            let node = id_of("node")
                .find(|n| n.req == inner.req)
                .expect("matching node");
            assert_eq!(inner.parent, node.id);
            assert_eq!(inner.thread, node.thread);
        }
        assert_eq!(id_of("later").next().expect("later span").parent, 0);
        let roots = roots(&spans);
        assert!(roots.iter().zip(&spans).all(|(root, s)| *root
            == if s.name == "later" {
                "later"
            } else {
                "campaign"
            }));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let spans = [span(1, 0, 0, 1500, 0), span(2, 1, 500, 1000, 3)];
        let doc = crate::json::parse(&chrome_json(&spans)).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("tid").and_then(|t| t.as_f64()), Some(3.0));
        assert_eq!(events[0].get("dur").and_then(|t| t.as_f64()), Some(1.5));
    }
}
