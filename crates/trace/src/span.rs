//! Scoped spans recorded into fixed-size per-thread ring buffers.
//!
//! A [`TraceGuard`] stamps the monotonic clock on construction and on
//! drop, then appends one entry to the calling thread's ring. Each
//! thread owns exactly one lane: a leaked, fixed-capacity array of
//! all-atomic entries, registered in a global lane table so exporters
//! can walk every lane without locks. A single writer (the owning
//! thread) mutates a lane; readers only load atomics, so mid-flight
//! snapshots are racy-but-sound, and quiescent snapshots are exact.
//!
//! Entries carry a global `SeqCst` sequence number, so the merged trace
//! has a total order even when two lanes' clock stamps tie.
//!
//! With the `trace` cargo feature off (the default), `TraceGuard` is a
//! zero-sized type with empty drop glue and every function here is an
//! inlineable no-op: the serving path carries no clock reads, no atomics
//! and no allocations. The zero-cost claim is enforced by
//! `crates/core/tests/zero_alloc.rs` and the plan-equivalence suites,
//! which CI runs with the feature both off and on.

/// Spans retained per thread lane (older entries are overwritten and
/// counted as dropped).
pub const RING_CAP: usize = 1 << 13;

/// Maximum thread lanes; threads beyond this record nothing (counted as
/// dropped lanes in [`TraceSnapshot::dropped`]). Sized for the
/// fault-injection soak: every respawned worker incarnation claims a
/// fresh lane, and a 4000-request run sees ~90 crashes.
pub const MAX_LANES: usize = 128;

/// A request-scoped trace identity: follows one request across every
/// thread it touches (client submit, worker, respawned worker). 0 is
/// reserved for "no trace"; [`TraceId::from_seq`] derives the id
/// deterministically from the request sequence number, so the same
/// request stream yields the same trace ids at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The "not request-scoped" sentinel.
    pub const NONE: TraceId = TraceId(0);

    /// The trace id of the request with sequence number `seq`
    /// (`seq + 1`, so sequence 0 is distinguishable from NONE).
    #[must_use]
    pub const fn from_seq(seq: u64) -> Self {
        TraceId(seq + 1)
    }

    /// Whether this is the NONE sentinel.
    #[must_use]
    pub const fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// A reference to a previously recorded lifecycle event, used as the
/// *causal parent* of the next event on the same request: chaining them
/// reconstructs the request's cross-thread path even when wall-clock
/// stamps tie. 0 ([`EventRef::NONE`]) means "no parent" — the chain
/// root, or an event that was compiled out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRef(pub u64);

impl EventRef {
    /// The "no parent" sentinel.
    pub const NONE: EventRef = EventRef(0);
}

/// Is span recording compiled in?
#[must_use]
pub const fn tracing_enabled() -> bool {
    cfg!(feature = "trace")
}

/// A scoped timer: stamps the clock on construction, records a span on
/// drop. Construct via [`TraceGuard::enter`] or the [`span!`](crate::span!)
/// macro. Zero-sized and drop-free when the `trace` feature is off.
#[must_use = "a span measures the scope its guard lives in; bind it with `let`"]
pub struct TraceGuard {
    #[cfg(feature = "trace")]
    name: &'static str,
    #[cfg(feature = "trace")]
    start_ns: u64,
    #[cfg(feature = "trace")]
    depth: u32,
}

impl TraceGuard {
    /// Opens a span named `name` covering the guard's lifetime.
    #[inline]
    pub fn enter(name: &'static str) -> Self {
        #[cfg(feature = "trace")]
        {
            Self {
                name,
                start_ns: crate::time::now_ns(),
                depth: imp::push_depth(),
            }
        }
        #[cfg(not(feature = "trace"))]
        {
            let _ = name;
            Self {}
        }
    }
}

impl Drop for TraceGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "trace")]
        {
            let end_ns = crate::time::now_ns();
            imp::pop_depth();
            imp::record(self.name, self.start_ns, end_ns, self.depth, 0, 0, 0, false);
        }
    }
}

/// Opens a span covering the rest of the enclosing scope.
///
/// ```
/// fn hot_path() {
///     dv_trace::span!("stage.example");
///     // ... timed work ...
/// }
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _dv_span_guard = $crate::TraceGuard::enter($name);
    };
}

/// Records a span from explicit clock stamps (taken with
/// [`now_ns`](crate::now_ns)) onto the *calling* thread's lane. For
/// intervals that straddle threads — e.g. queue wait measured at
/// dequeue — where a scoped guard cannot live.
#[inline]
pub fn record_raw(name: &'static str, start_ns: u64, end_ns: u64) {
    #[cfg(feature = "trace")]
    {
        imp::record(name, start_ns, end_ns, imp::current_depth(), 0, 0, 0, false);
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = (name, start_ns, end_ns);
    }
}

/// Records an instant lifecycle event for request `trace`, stamped
/// `at_ns` (a [`now_ns`](crate::now_ns) reading the caller already
/// holds), on the *calling* thread's lane, causally chained to `parent`
/// (the [`EventRef`] returned by the request's previous event, or
/// [`EventRef::NONE`] at the chain root). `arg` carries a small event
/// payload — the `ServedVia` code for `score_begin` and `degraded` —
/// and the returned ref becomes the next event's parent.
///
/// Taking the stamp instead of reading the clock lets a caller put the
/// very reading its own latency arithmetic uses on the timeline, so the
/// two agree to the nanosecond.
///
/// Allocation-free (the ring and intern table are pre-sized), and
/// compiles to a no-op returning NONE — no atomics — when the `trace`
/// feature is off.
#[inline]
pub fn record_event(
    name: &'static str,
    at_ns: u64,
    trace: TraceId,
    parent: EventRef,
    arg: u64,
) -> EventRef {
    #[cfg(feature = "trace")]
    {
        EventRef(imp::record(
            name,
            at_ns,
            at_ns,
            imp::current_depth(),
            trace.0,
            parent.0,
            arg,
            true,
        ))
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = (name, at_ns, trace, parent, arg);
        EventRef::NONE
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Span name (the string passed to [`TraceGuard::enter`]).
    pub name: &'static str,
    /// Global sequence number (total order across lanes).
    pub seq: u64,
    /// Nesting depth on the recording thread at entry.
    pub depth: u32,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Request trace id ([`TraceId`]), 0 for plain spans.
    pub trace: u64,
    /// Causal parent ([`EventRef`], = the parent's `seq + 1`), 0 = root.
    pub parent: u64,
    /// Small event payload (batch width, `ServedVia` code, ...).
    pub arg: u64,
    /// True for instant lifecycle events (zero duration, carry a trace
    /// id), false for scoped duration spans.
    pub is_event: bool,
}

impl SpanRecord {
    /// This record's [`EventRef`] (valid as another record's `parent`).
    #[must_use]
    pub const fn event_ref(&self) -> u64 {
        self.seq + 1
    }
}

/// All spans recorded on one thread lane.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    /// Lane index (stable for the thread's lifetime).
    pub lane: usize,
    /// OS thread name at lane creation (chrome-trace thread label).
    pub thread_name: String,
    /// Spans sorted by start time (ties: longer span first, then
    /// shallower depth), so parents precede their children.
    pub spans: Vec<SpanRecord>,
}

/// A point-in-time copy of every lane.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Per-thread lanes, in lane order.
    pub lanes: Vec<LaneSnapshot>,
    /// Spans lost to ring wrap, name-table overflow, or lane exhaustion.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Total spans across all lanes.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.lanes.iter().map(|l| l.spans.len()).sum()
    }
}

/// Copies every lane's recorded spans. Exact when recording threads are
/// quiescent; racy-but-sound (atomic loads only) otherwise.
#[must_use]
pub fn snapshot() -> TraceSnapshot {
    #[cfg(feature = "trace")]
    {
        imp::snapshot()
    }
    #[cfg(not(feature = "trace"))]
    {
        TraceSnapshot {
            lanes: Vec::new(),
            dropped: 0,
        }
    }
}

/// Clears every lane and the global sequence counter. Only meaningful at
/// quiescent points (between bench phases); concurrent recorders may
/// interleave with the clear.
pub fn reset() {
    #[cfg(feature = "trace")]
    {
        imp::reset();
    }
}

#[cfg(feature = "trace")]
mod imp {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
    use std::sync::OnceLock;

    use super::{LaneSnapshot, SpanRecord, TraceSnapshot, MAX_LANES, RING_CAP};

    /// Distinct span names per process (names beyond this drop spans).
    const NAME_SLOTS: usize = 512;

    struct Entry {
        name_id: AtomicU32,
        depth: AtomicU32,
        seq: AtomicU64,
        start_ns: AtomicU64,
        dur_ns: AtomicU64,
        trace: AtomicU64,
        parent: AtomicU64,
        arg: AtomicU64,
        /// 0 = duration span, 1 = instant lifecycle event.
        kind: AtomicU32,
    }

    impl Entry {
        const fn new() -> Self {
            Self {
                name_id: AtomicU32::new(0),
                depth: AtomicU32::new(0),
                seq: AtomicU64::new(0),
                start_ns: AtomicU64::new(0),
                dur_ns: AtomicU64::new(0),
                trace: AtomicU64::new(0),
                parent: AtomicU64::new(0),
                arg: AtomicU64::new(0),
                kind: AtomicU32::new(0),
            }
        }
    }

    struct ThreadRing {
        lane: usize,
        thread_name: String,
        /// Total spans ever written; `head % RING_CAP` is the next slot.
        head: AtomicU64,
        entries: Vec<Entry>,
    }

    impl ThreadRing {
        fn new(lane: usize) -> Self {
            let thread_name = std::thread::current()
                .name()
                .map(String::from)
                .unwrap_or_else(|| format!("thread-{lane}"));
            Self {
                lane,
                thread_name,
                head: AtomicU64::new(0),
                entries: (0..RING_CAP).map(|_| Entry::new()).collect(),
            }
        }
    }

    /// Global lane table: set-once pointers to leaked rings (one leak
    /// per recording thread, bounded by MAX_LANES).
    static LANES: [OnceLock<&'static ThreadRing>; MAX_LANES] =
        [const { OnceLock::new() }; MAX_LANES];
    static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);
    /// Spans dropped for want of a lane or a name slot.
    static DROPPED: AtomicU64 = AtomicU64::new(0);
    /// Global span sequence: totally orders spans across lanes.
    static GLOBAL_SEQ: AtomicU64 = AtomicU64::new(0);
    /// Span-name intern table: index = the `name_id` entries store.
    static NAMES: [OnceLock<&'static str>; NAME_SLOTS] = [const { OnceLock::new() }; NAME_SLOTS];

    #[derive(Clone, Copy)]
    enum RingState {
        Unset,
        Exhausted,
        Ready(&'static ThreadRing),
    }

    thread_local! {
        static RING: Cell<RingState> = const { Cell::new(RingState::Unset) };
        static DEPTH: Cell<u32> = const { Cell::new(0) };
    }

    pub(super) fn push_depth() -> u32 {
        DEPTH.with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        })
    }

    pub(super) fn pop_depth() {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }

    pub(super) fn current_depth() -> u32 {
        DEPTH.with(Cell::get)
    }

    fn current_ring() -> Option<&'static ThreadRing> {
        RING.with(|r| match r.get() {
            RingState::Ready(ring) => Some(ring),
            RingState::Exhausted => None,
            RingState::Unset => {
                let lane = NEXT_LANE.fetch_add(1, Ordering::SeqCst);
                if lane >= MAX_LANES {
                    DROPPED.fetch_add(1, Ordering::SeqCst);
                    r.set(RingState::Exhausted);
                    return None;
                }
                let ring: &'static ThreadRing = Box::leak(Box::new(ThreadRing::new(lane)));
                LANES[lane]
                    .set(ring)
                    .ok()
                    .expect("lane index is claimed by exactly one thread");
                r.set(RingState::Ready(ring));
                Some(ring)
            }
        })
    }

    /// Interns `name` by pointer identity (duplicate literals in other
    /// codegen units get their own id; exporters aggregate by text).
    fn intern(name: &'static str) -> Option<u32> {
        let mut idx =
            (name.as_ptr() as usize).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48 & (NAME_SLOTS - 1);
        for _ in 0..NAME_SLOTS {
            let got = NAMES[idx].get_or_init(|| name);
            if got.as_ptr() == name.as_ptr() && got.len() == name.len() {
                return Some(idx as u32);
            }
            idx = (idx + 1) % NAME_SLOTS;
        }
        None
    }

    /// Stamps one ring slot. Returns the record's event ref (`seq + 1`)
    /// for causal chaining, or 0 when the record was dropped.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn record(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        depth: u32,
        trace: u64,
        parent: u64,
        arg: u64,
        is_event: bool,
    ) -> u64 {
        let Some(ring) = current_ring() else {
            return 0;
        };
        let Some(name_id) = intern(name) else {
            DROPPED.fetch_add(1, Ordering::SeqCst);
            return 0;
        };
        let seq = GLOBAL_SEQ.fetch_add(1, Ordering::SeqCst);
        let head = ring.head.load(Ordering::SeqCst);
        let entry = &ring.entries[(head % RING_CAP as u64) as usize];
        entry.name_id.store(name_id, Ordering::SeqCst);
        entry.depth.store(depth, Ordering::SeqCst);
        entry.seq.store(seq, Ordering::SeqCst);
        entry.start_ns.store(start_ns, Ordering::SeqCst);
        entry
            .dur_ns
            .store(end_ns.saturating_sub(start_ns), Ordering::SeqCst);
        entry.trace.store(trace, Ordering::SeqCst);
        entry.parent.store(parent, Ordering::SeqCst);
        entry.arg.store(arg, Ordering::SeqCst);
        entry.kind.store(u32::from(is_event), Ordering::SeqCst);
        // Published last: a racy reader sees the slot only once whole.
        ring.head.store(head + 1, Ordering::SeqCst);
        seq + 1
    }

    fn lanes() -> impl Iterator<Item = &'static ThreadRing> {
        LANES.iter().filter_map(|l| l.get().copied())
    }

    pub(super) fn snapshot() -> TraceSnapshot {
        let mut out = TraceSnapshot {
            lanes: Vec::new(),
            dropped: DROPPED.load(Ordering::SeqCst),
        };
        for ring in lanes() {
            let head = ring.head.load(Ordering::SeqCst);
            let kept = head.min(RING_CAP as u64);
            out.dropped += head - kept;
            let mut spans = Vec::with_capacity(kept as usize);
            for i in head - kept..head {
                let entry = &ring.entries[(i % RING_CAP as u64) as usize];
                let name_id = entry.name_id.load(Ordering::SeqCst) as usize;
                let name = NAMES
                    .get(name_id)
                    .and_then(|slot| slot.get())
                    .copied()
                    .unwrap_or("<unknown>");
                spans.push(SpanRecord {
                    name,
                    seq: entry.seq.load(Ordering::SeqCst),
                    depth: entry.depth.load(Ordering::SeqCst),
                    start_ns: entry.start_ns.load(Ordering::SeqCst),
                    dur_ns: entry.dur_ns.load(Ordering::SeqCst),
                    trace: entry.trace.load(Ordering::SeqCst),
                    parent: entry.parent.load(Ordering::SeqCst),
                    arg: entry.arg.load(Ordering::SeqCst),
                    is_event: entry.kind.load(Ordering::SeqCst) == 1,
                });
            }
            // Parents before children: earlier start first; on ties the
            // longer (enclosing) span, then the shallower one.
            spans.sort_by(|a, b| {
                a.start_ns
                    .cmp(&b.start_ns)
                    .then(b.dur_ns.cmp(&a.dur_ns))
                    .then(a.depth.cmp(&b.depth))
            });
            out.lanes.push(LaneSnapshot {
                lane: ring.lane,
                thread_name: ring.thread_name.clone(),
                spans,
            });
        }
        out.lanes.sort_by_key(|l| l.lane);
        out
    }

    pub(super) fn reset() {
        for ring in lanes() {
            ring.head.store(0, Ordering::SeqCst);
        }
        DROPPED.store(0, Ordering::SeqCst);
        GLOBAL_SEQ.store(0, Ordering::SeqCst);
    }
}

#[cfg(all(test, not(feature = "trace")))]
mod off_tests {
    use super::*;

    #[test]
    fn guard_is_zero_sized_and_snapshot_empty() {
        assert_eq!(std::mem::size_of::<TraceGuard>(), 0);
        {
            span!("off.should_not_record");
            record_raw("off.raw", 0, 10);
        }
        let snap = snapshot();
        assert!(snap.lanes.is_empty());
        assert_eq!(snap.dropped, 0);
        assert!(!tracing_enabled());
    }

    /// The event API must be a true no-op when tracing is compiled out:
    /// no clock read, no ring write, and the returned ref is NONE so
    /// causal chains stay inert.
    #[test]
    fn record_event_is_a_none_returning_noop() {
        let parent = record_event("off.enqueued", 10, TraceId::from_seq(7), EventRef::NONE, 3);
        assert_eq!(parent, EventRef::NONE);
        let child = record_event("off.dequeued", 20, TraceId::from_seq(7), parent, 0);
        assert_eq!(child, EventRef::NONE);
        assert!(snapshot().lanes.is_empty());
        assert_eq!(snapshot().dropped, 0);
        // Trace ids themselves are always live (they ride on responses
        // and histogram exemplars even without span recording).
        assert_eq!(TraceId::from_seq(0), TraceId(1));
        assert!(TraceId::NONE.is_none());
    }
}

#[cfg(all(test, feature = "trace"))]
mod on_tests {
    use super::*;
    use std::sync::Mutex;

    /// Span tests share process-global lanes; serialise them.
    static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn my_lane_spans(name_filter: &str) -> Vec<SpanRecord> {
        snapshot()
            .lanes
            .into_iter()
            .flat_map(|l| l.spans)
            .filter(|s| s.name.starts_with(name_filter))
            .collect()
    }

    #[test]
    fn nested_spans_record_with_depths_and_order() {
        let _g = locked();
        reset();
        {
            span!("t.outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                span!("t.inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let spans = my_lane_spans("t.");
        assert_eq!(spans.len(), 2, "{spans:?}");
        // Snapshot sorts parents first.
        assert_eq!(spans[0].name, "t.outer");
        assert_eq!(spans[1].name, "t.inner");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 1);
        // The child drops first, so it takes the earlier sequence slot.
        assert!(spans[1].seq < spans[0].seq);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        let outer_end = spans[0].start_ns + spans[0].dur_ns;
        let inner_end = spans[1].start_ns + spans[1].dur_ns;
        assert!(inner_end <= outer_end, "child must be contained");
        assert!(tracing_enabled());
    }

    #[test]
    fn ring_wrap_keeps_latest_and_counts_dropped() {
        let _g = locked();
        reset();
        let n = RING_CAP + 100;
        for _ in 0..n {
            span!("t.wrap");
        }
        let snap = snapshot();
        let mine: Vec<_> = snap
            .lanes
            .iter()
            .filter(|l| l.spans.iter().any(|s| s.name == "t.wrap"))
            .collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].spans.len(), RING_CAP);
        assert!(snap.dropped >= 100, "dropped {}", snap.dropped);
    }

    #[test]
    fn record_raw_and_reset_round_trip() {
        let _g = locked();
        reset();
        record_raw("t.raw", 100, 400);
        let spans = my_lane_spans("t.raw");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_ns, 100);
        assert_eq!(spans[0].dur_ns, 300);
        reset();
        assert!(my_lane_spans("t.raw").is_empty());
    }

    #[test]
    fn events_chain_causally() {
        let _g = locked();
        reset();
        let trace = TraceId::from_seq(41);
        let root = record_event("t.ev_enqueued", 100, trace, EventRef::NONE, 0);
        assert_ne!(root, EventRef::NONE);
        let next = record_event("t.ev_dequeued", 250, trace, root, 4);
        assert_ne!(next, EventRef::NONE);
        let events: Vec<_> = snapshot()
            .lanes
            .into_iter()
            .flat_map(|l| l.spans)
            .filter(|s| s.name.starts_with("t.ev_"))
            .collect();
        assert_eq!(events.len(), 2, "{events:?}");
        let enq = events
            .iter()
            .find(|e| e.name == "t.ev_enqueued")
            .expect("enqueued recorded");
        let deq = events
            .iter()
            .find(|e| e.name == "t.ev_dequeued")
            .expect("dequeued recorded");
        assert!(enq.is_event && deq.is_event);
        assert_eq!(enq.trace, trace.0);
        assert_eq!(deq.trace, trace.0);
        assert_eq!(enq.parent, 0, "chain root has no parent");
        assert_eq!(deq.parent, enq.event_ref(), "child points at the root");
        assert_eq!(deq.arg, 4);
        assert_eq!(enq.dur_ns, 0, "instant events have no duration");
        assert_eq!(
            (enq.start_ns, deq.start_ns),
            (100, 250),
            "events carry the caller's stamps"
        );
    }

    #[test]
    fn plain_spans_carry_no_trace_identity() {
        let _g = locked();
        reset();
        span!("t.plain");
        record_raw("t.plain_raw", 5, 9);
        for s in my_lane_spans("t.plain") {
            assert!(!s.is_event);
            assert_eq!(s.trace, 0);
            assert_eq!(s.parent, 0);
            assert_eq!(s.arg, 0);
        }
    }

    #[test]
    fn spans_from_other_threads_get_their_own_lane() {
        let _g = locked();
        reset();
        std::thread::Builder::new()
            .name("t-worker-lane".to_string())
            .spawn(|| {
                span!("t.other_thread");
            })
            .expect("spawn must succeed")
            .join()
            .expect("worker must not panic");
        let snap = snapshot();
        let lane = snap
            .lanes
            .iter()
            .find(|l| l.spans.iter().any(|s| s.name == "t.other_thread"))
            .expect("worker lane must exist");
        assert_eq!(lane.thread_name, "t-worker-lane");
    }
}
