//! Cross-thread request timeline stitching.
//!
//! Lifecycle events ([`record_event`](crate::record_event)) land on
//! whichever thread's ring happens to run the request at that moment:
//! the client thread records `serve.enqueued`, a worker records
//! `serve.dequeued` through `serve.responded`, and a request parked
//! behind a crash is scored by the *respawned* worker on another lane.
//! [`stitch`] reassembles them into
//! per-request timelines by trace id, ordered by the global `SeqCst`
//! sequence (a total order even when clock stamps tie across lanes), and
//! [`segments`] decomposes a served request's wall time into the
//! queue-wait / coalesce-wait / score / respond partition that
//! `latency_audit` asserts sums to the server-reported end-to-end
//! latency exactly (dv-serve stamps the enqueue and respond events with
//! the readings its latency is computed from).
//!
//! The event vocabulary is fixed here (the [`lifecycle`] constants) so
//! the emitter (dv-serve), the exporters, and consumers agree on names
//! without a dependency cycle.

use std::collections::BTreeMap;

use crate::span::TraceSnapshot;

/// The lifecycle event names dv-serve emits, in rough causal order.
/// Call sites pass the literal string (dv-lint R11 requires literal
/// dotted-lowercase names); these constants are the consumer-side
/// contract.
pub mod lifecycle {
    /// Request accepted by `try_submit`, recorded on the client thread.
    pub const ENQUEUED: &str = "serve.enqueued";
    /// Request popped off the bounded queue by a worker.
    pub const DEQUEUED: &str = "serve.dequeued";
    /// Scoring started; `arg` = the `ServedVia` code.
    pub const SCORE_BEGIN: &str = "serve.score_begin";
    /// Scoring finished.
    pub const SCORE_END: &str = "serve.score_end";
    /// Request served below the full-joint rung; `arg` = `ServedVia` code.
    pub const DEGRADED: &str = "serve.degraded";
    /// The worker panicked while scoring this request (terminal).
    pub const CRASHED: &str = "serve.crashed";
    /// Response fulfilled.
    pub const RESPONDED: &str = "serve.responded";
    /// Drift breaker opened; the trace id is the observation that
    /// tripped it.
    pub const BREAKER_OPEN: &str = "serve.breaker_open";
    /// Drift breaker closed; the trace id is the clearing observation.
    pub const BREAKER_CLOSE: &str = "serve.breaker_close";
}

/// One lifecycle event on a stitched timeline.
#[derive(Debug, Clone, Copy)]
pub struct TimelineEvent {
    /// Event name (one of the [`lifecycle`] constants for dv-serve).
    pub name: &'static str,
    /// Lane (thread) the event was recorded on.
    pub lane: usize,
    /// Global sequence number (the stitch order).
    pub seq: u64,
    /// Timestamp, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Event payload (the `ServedVia` code, ...).
    pub arg: u64,
    /// Causal parent event ref (0 = chain root).
    pub parent: u64,
}

/// Every lifecycle event of one request, across all threads, in global
/// sequence order.
#[derive(Debug, Clone)]
pub struct RequestTimeline {
    /// The request's trace id (sequence number + 1).
    pub trace: u64,
    /// Events in global `SeqCst` order.
    pub events: Vec<TimelineEvent>,
}

impl RequestTimeline {
    /// First event with `name`, in stitch order.
    #[must_use]
    pub fn first(&self, name: &str) -> Option<&TimelineEvent> {
        self.events.iter().find(|e| e.name == name)
    }

    /// Last event with `name`, in stitch order.
    #[must_use]
    pub fn last(&self, name: &str) -> Option<&TimelineEvent> {
        self.events.iter().rev().find(|e| e.name == name)
    }
}

/// Reassembles per-request timelines from a [`TraceSnapshot`]: instant
/// events carrying a trace id are grouped by trace and ordered by the
/// global sequence number, so one request's path is readable even when
/// it crossed the client thread, a worker, and a respawned worker.
/// Timelines come back sorted by trace id (= submission order).
#[must_use]
pub fn stitch(snap: &TraceSnapshot) -> Vec<RequestTimeline> {
    let mut by_trace: BTreeMap<u64, Vec<TimelineEvent>> = BTreeMap::new();
    for lane in &snap.lanes {
        for s in &lane.spans {
            if s.is_event && s.trace != 0 {
                by_trace.entry(s.trace).or_default().push(TimelineEvent {
                    name: s.name,
                    lane: lane.lane,
                    seq: s.seq,
                    ts_ns: s.start_ns,
                    arg: s.arg,
                    parent: s.parent,
                });
            }
        }
    }
    by_trace
        .into_iter()
        .map(|(trace, mut events)| {
            events.sort_by_key(|e| e.seq);
            RequestTimeline { trace, events }
        })
        .collect()
}

/// A served request's wall time, decomposed along its timeline. The
/// four segments telescope: they sum *exactly* to `total_ns`, because
/// each boundary timestamp is shared by the segments on either side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segments {
    /// Enqueue to first dequeue.
    pub queue_wait_ns: u64,
    /// First dequeue to the (last) score start: triage, parking, and the
    /// wait behind earlier requests of the same drain (or, behind a
    /// crash, for the respawned worker).
    pub coalesce_wait_ns: u64,
    /// Last score start to last score end.
    pub score_ns: u64,
    /// Last score end to the response.
    pub respond_ns: u64,
    /// Enqueue to response (the segments' telescoped sum).
    pub total_ns: u64,
}

/// Decomposes a timeline into [`Segments`]. `None` when the request
/// never completed the enqueue → dequeue → score → respond path (it
/// expired, crashed terminally, or was shed), or when its anchor
/// timestamps are not monotone (a torn mid-flight snapshot).
#[must_use]
pub fn segments(tl: &RequestTimeline) -> Option<Segments> {
    let enq = tl.first(lifecycle::ENQUEUED)?.ts_ns;
    let deq = tl.first(lifecycle::DEQUEUED)?.ts_ns;
    // Last, not first: should a request ever be scored twice, the
    // response comes from the final attempt.
    let begin = tl.last(lifecycle::SCORE_BEGIN)?.ts_ns;
    let end = tl.last(lifecycle::SCORE_END)?.ts_ns;
    let resp = tl.last(lifecycle::RESPONDED)?.ts_ns;
    if !(enq <= deq && deq <= begin && begin <= end && end <= resp) {
        return None;
    }
    Some(Segments {
        queue_wait_ns: deq - enq,
        coalesce_wait_ns: begin - deq,
        score_ns: end - begin,
        respond_ns: resp - end,
        total_ns: resp - enq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{LaneSnapshot, SpanRecord};

    fn ev(name: &'static str, seq: u64, ts_ns: u64, trace: u64, parent: u64) -> SpanRecord {
        SpanRecord {
            name,
            seq,
            depth: 0,
            start_ns: ts_ns,
            dur_ns: 0,
            trace,
            parent,
            arg: 0,
            is_event: true,
        }
    }

    fn snap(lanes: Vec<(usize, Vec<SpanRecord>)>) -> TraceSnapshot {
        TraceSnapshot {
            lanes: lanes
                .into_iter()
                .map(|(lane, spans)| LaneSnapshot {
                    lane,
                    thread_name: format!("lane-{lane}"),
                    spans,
                })
                .collect(),
            dropped: 0,
        }
    }

    #[test]
    fn stitch_groups_by_trace_across_lanes_in_seq_order() {
        // Trace 1 crosses lanes 0 and 2; trace 2 lives on lane 2 only;
        // a plain span and a trace-less event must be ignored.
        let mut span = ev("nn.forward", 10, 50, 0, 0);
        span.is_event = false;
        span.dur_ns = 5;
        let s = snap(vec![
            (0, vec![ev(lifecycle::ENQUEUED, 1, 100, 1, 0), span]),
            (
                2,
                vec![
                    ev(lifecycle::RESPONDED, 5, 400, 1, 3),
                    ev(lifecycle::DEQUEUED, 3, 200, 1, 2),
                    ev(lifecycle::ENQUEUED, 4, 300, 2, 0),
                ],
            ),
        ]);
        let timelines = stitch(&s);
        assert_eq!(timelines.len(), 2);
        assert_eq!(timelines[0].trace, 1);
        let names: Vec<_> = timelines[0].events.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                lifecycle::ENQUEUED,
                lifecycle::DEQUEUED,
                lifecycle::RESPONDED
            ],
            "events come back in global sequence order"
        );
        assert_eq!(timelines[0].events[0].lane, 0);
        assert_eq!(timelines[0].events[1].lane, 2);
        assert_eq!(timelines[1].trace, 2);
        assert_eq!(timelines[1].events.len(), 1);
    }

    #[test]
    fn segments_telescope_to_the_total() {
        let s = snap(vec![(
            0,
            vec![
                ev(lifecycle::ENQUEUED, 1, 1_000, 9, 0),
                ev(lifecycle::DEQUEUED, 2, 1_500, 9, 2),
                ev(lifecycle::SCORE_BEGIN, 3, 1_900, 9, 3),
                ev(lifecycle::SCORE_END, 4, 4_000, 9, 4),
                ev(lifecycle::RESPONDED, 5, 4_100, 9, 5),
            ],
        )]);
        let timelines = stitch(&s);
        let seg = segments(&timelines[0]).expect("complete timeline");
        assert_eq!(seg.queue_wait_ns, 500);
        assert_eq!(seg.coalesce_wait_ns, 400);
        assert_eq!(seg.score_ns, 2_100);
        assert_eq!(seg.respond_ns, 100);
        assert_eq!(seg.total_ns, 3_100);
        assert_eq!(
            seg.queue_wait_ns + seg.coalesce_wait_ns + seg.score_ns + seg.respond_ns,
            seg.total_ns,
            "the partition telescopes exactly"
        );
    }

    #[test]
    fn crash_retry_uses_the_final_attempt_for_scoring() {
        // First attempt's score_begin (seq 3) is aborted by a crash, and
        // a second attempt scores on another lane. Segments must anchor
        // on the *last* score pair, folding the crash gap into coalesce.
        let s = snap(vec![
            (
                1,
                vec![
                    ev(lifecycle::DEQUEUED, 2, 200, 4, 1),
                    ev(lifecycle::SCORE_BEGIN, 3, 300, 4, 2),
                    ev(lifecycle::CRASHED, 4, 350, 4, 3),
                ],
            ),
            (
                3,
                vec![
                    ev(lifecycle::SCORE_BEGIN, 6, 950, 4, 4),
                    ev(lifecycle::SCORE_END, 7, 1_200, 4, 6),
                    ev(lifecycle::RESPONDED, 8, 1_250, 4, 7),
                ],
            ),
            (0, vec![ev(lifecycle::ENQUEUED, 1, 100, 4, 0)]),
        ]);
        let timelines = stitch(&s);
        let seg = segments(&timelines[0]).expect("the second attempt completes");
        assert_eq!(seg.queue_wait_ns, 100);
        assert_eq!(seg.coalesce_wait_ns, 750, "crash gap folds into coalesce");
        assert_eq!(seg.score_ns, 250);
        assert_eq!(seg.respond_ns, 50);
        assert_eq!(seg.total_ns, 1_150);
    }

    #[test]
    fn incomplete_timelines_yield_no_segments() {
        let s = snap(vec![(
            0,
            vec![
                ev(lifecycle::ENQUEUED, 1, 100, 7, 0),
                ev(lifecycle::DEQUEUED, 2, 200, 7, 1),
                ev(lifecycle::CRASHED, 3, 300, 7, 2),
            ],
        )]);
        let timelines = stitch(&s);
        assert!(
            segments(&timelines[0]).is_none(),
            "no score/respond anchors"
        );
    }
}
