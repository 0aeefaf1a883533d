//! Property tests for the span lifecycle invariants the analyzer relies on:
//! under any interleaving of begins, ends, and instants produced through the
//! public API, every opened span closes exactly once, every close lands at
//! or after its open, and the exported trace survives a JSONL round trip.

use obs::{arg, RecordKind, TraceCtx, Tracer};
use proptest::prelude::*;

/// Drive the tracer with an arbitrary op tape. Each byte either closes the
/// innermost open span, opens a child (or a root when nothing is open), or
/// records an instant; whatever is left open at the end is closed LIFO —
/// the discipline instrumented actors follow (abort-on-failure included).
fn drive(tracer: &Tracer, tape: &[u8]) {
    let tracks = [tracer.track("a"), tracer.track("b")];
    let mut stack: Vec<(TraceCtx, obs::TrackId)> = Vec::new();
    let mut t = 0u64;
    let mut seq = 0u64;
    for &b in tape {
        // Timestamps are non-decreasing and may repeat (b % 2 == 0 repeats).
        t += (b % 2) as u64 * 1000;
        seq += 1;
        let track = tracks[(b / 16) as usize % 2];
        let parent = stack.last().map(|&(c, _)| c).unwrap_or(TraceCtx::NONE);
        match b % 3 {
            0 if !stack.is_empty() => {
                let (ctx, tk) = stack.pop().unwrap();
                tracer.end(ctx, tk, t, seq, vec![]);
            }
            1 => tracer.instant(parent, track, "i", t, seq, vec![arg("b", b)]),
            _ => {
                let ctx = tracer.begin(parent, track, "s", t, seq, vec![]);
                stack.push((ctx, track));
            }
        }
    }
    while let Some((ctx, tk)) = stack.pop() {
        seq += 1;
        tracer.end(ctx, tk, t, seq, vec![]);
    }
}

/// The trace `tape` records into an unbounded tracer.
fn full(tape: &[u8]) -> obs::Trace {
    let tracer = Tracer::full();
    drive(&tracer, tape);
    tracer.finish()
}

proptest! {
    #[test]
    fn every_span_closes_exactly_once_at_or_after_open(tape in proptest::collection::vec(any::<u8>(), 0..200)) {
        let trace = full(&tape);
        for r in trace.records.iter().filter(|r| r.k == RecordKind::Begin) {
            let ends: Vec<_> = trace
                .records
                .iter()
                .filter(|e| e.k == RecordKind::End && e.sp == r.sp)
                .collect();
            prop_assert_eq!(ends.len(), 1, "span {} must close exactly once", r.sp);
            prop_assert!(ends[0].t >= r.t, "close at {} before open at {}", ends[0].t, r.t);
            prop_assert!(
                (ends[0].t, ends[0].seq) >= (r.t, r.seq),
                "close must not precede open in the total order"
            );
        }
        // The analyzer agrees.
        obs::analyze::validate(&trace).expect("validate");
    }

    #[test]
    fn exports_round_trip_and_are_deterministic(tape in proptest::collection::vec(any::<u8>(), 0..120)) {
        let a = full(&tape);
        let b = full(&tape);
        prop_assert_eq!(a.to_jsonl(), b.to_jsonl());
        prop_assert_eq!(a.to_perfetto(), b.to_perfetto());
        let back = obs::Trace::from_jsonl(&a.to_jsonl()).expect("parse");
        prop_assert_eq!(back, a);
    }

    #[test]
    fn flight_keeps_the_tail_of_the_full_trace(
        tape in proptest::collection::vec(any::<u8>(), 0..200),
        pick in any::<usize>(),
    ) {
        let all = full(&tape);
        let n = all.records.len();
        let cap = 1 + pick % (n + 2);
        let flight = Tracer::flight(cap);
        drive(&flight, &tape);
        let dump = flight.dump();
        let kept = cap.min(n);
        prop_assert_eq!(&dump.tracks, &all.tracks);
        prop_assert_eq!(&dump.records[..], &all.records[n - kept..]);
        prop_assert_eq!(dump.dropped, (n - kept) as u64);
        prop_assert_eq!(dump, flight.finish(), "dump is a non-destructive finish");
    }
}
