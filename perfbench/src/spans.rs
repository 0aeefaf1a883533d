//! Host-time spans recorded by the benchmark around its calls into each
//! layer's public API.
//!
//! Recording is off unless [`start`] was called on this thread; [`span`]
//! then costs one thread-local check. Spans are kept in memory and written
//! out once, at the end, as JSON lines. A span's parent is the span open on
//! the same thread when it began, so its self time is its duration minus the
//! durations of its direct children (children never overlap: the benchmark
//! drives every layer from one thread).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the recording (1-based).
    pub id: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u64,
    /// Pass the span belongs to: spans of one pass share this id.
    pub trace: u64,
    /// Layer-qualified call name, e.g. `workflow.build`.
    pub name: &'static str,
    /// Start, host ns since recording began.
    pub start_ns: u64,
    /// End, host ns since recording began.
    pub end_ns: u64,
}

struct Recorder {
    origin: Instant,
    trace: u64,
    open: Vec<(u64, &'static str, u64)>,
    done: Vec<Span>,
    next_id: u64,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Begin recording on this thread.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            trace: 0,
            open: Vec::new(),
            done: Vec::new(),
            next_id: 1,
        })
    });
}

/// Stop recording and return every closed span, in closing order.
pub fn finish() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take().map(|rec| rec.done).unwrap_or_default())
}

/// Set the trace id stamped on spans opened from now on.
pub fn set_trace(trace: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.trace = trace;
        }
    });
}

/// Run `f` inside a span called `name` (a no-op wrapper when not recording).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.next_id;
        rec.next_id += 1;
        let t = rec.origin.elapsed().as_nanos() as u64;
        rec.open.push((id, name, t));
        Some(id)
    });
    let out = f();
    if let Some(id) = opened {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("recorder outlives its open spans");
            let end_ns = rec.origin.elapsed().as_nanos() as u64;
            // Pop down to this span: a child that unwound out of its closure
            // (a caught panic) never closed and is dropped here.
            while let Some((top, name, start_ns)) = rec.open.pop() {
                if top == id {
                    let parent = rec.open.last().map_or(0, |s| s.0);
                    rec.done.push(Span { id, parent, trace: rec.trace, name, start_ns, end_ns });
                    break;
                }
            }
        });
    }
    out
}

/// Spans as JSON lines, one object per span, in id order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| s.id);
    let mut out = String::new();
    for s in sorted {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

/// Per-name totals: calls, summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub calls: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus direct children), seconds.
    pub self_s: f64,
}

/// Self time per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_s += dur as f64 / 1e9;
        e.self_s += own as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        start();
        span("outer", || {
            span("inner", || std::hint::black_box(1 + 1));
            span("inner", || std::hint::black_box(2 + 2));
        });
        let spans = finish();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, 0);
        assert!(spans.iter().filter(|s| s.name == "inner").all(|s| s.parent == outer.id));
        let st = self_times(&spans);
        assert_eq!(st["inner"].calls, 2);
        assert!(st["outer"].self_s <= st["outer"].total_s);
        assert_eq!(to_jsonl(&spans).lines().count(), 3);
    }

    #[test]
    fn off_by_default() {
        assert_eq!(span("x", || 5), 5);
        assert!(finish().is_empty());
    }
}
