//! dv-trace: structured tracing and metrics for the Deep Validation
//! workspace.
//!
//! Deep Validation watches a network's internals; this crate watches the
//! pipeline's. It is dependency-free, lock-free on every hot path, and
//! split into an always-on half and a feature-gated half:
//!
//! - **Always on** — [`MetricsRegistry`]: named atomic [`Counter`]s,
//!   [`Gauge`]s, and [`LogLinearHistogram`]s (promoted from dv-serve,
//!   quantile-identical), instantiable per subsystem or process-wide via
//!   [`global()`]; [`Stopwatch`] + [`now_ns`], the workspace's only
//!   sanctioned wall-clock (dv-lint R8 bans raw `std::time::Instant`
//!   elsewhere); [`metrics_json`], a flat JSON snapshot of a registry;
//!   [`Welford`], streaming mean/variance for dv-drift's calibration.
//! - **Behind the `trace` feature** — [`span!`]/[`TraceGuard`] scoped
//!   timers recording into fixed-size per-thread ring buffers,
//!   sequence-numbered across threads; request-scoped lifecycle events
//!   ([`record_event`] with a [`TraceId`] + causal [`EventRef`] parent)
//!   stitched into cross-thread timelines by [`stitch`]/[`segments`];
//!   [`chrome_trace_json`] (chrome://tracing / Perfetto JSON, one lane
//!   per Crew worker, flow arrows following each request across lanes)
//!   and [`stage_totals`] (per-stage self-time breakdown). With the
//!   feature off — the default — every probe is a true no-op:
//!   [`TraceGuard`] is zero-sized, nothing reads a clock, and the
//!   zero-alloc and bit-identity suites hold in both modes.
//!
//! # Determinism contract
//!
//! Tracing observes, never steers: no scored value, branch, or
//! iteration order may depend on a clock read or a metric value.
//! Recording is per-thread single-writer (no cross-thread contention a
//! scheduler could amplify), and exports are racy-but-sound atomic
//! reads that are exact at quiescent points. Scores are bit-identical
//! with tracing compiled in, compiled out, recording, or wrapped.
//!
//! ```
//! use dv_trace as trace;
//!
//! // Counters/histograms are always live:
//! let reg = trace::global();
//! reg.counter("demo.images").inc();
//! reg.histogram("demo.score_us").record(184);
//!
//! // Spans cost nothing unless built with `--features trace`:
//! {
//!     trace::span!("demo.batch");
//!     // ... scored work ...
//! }
//! let report = trace::stage_totals(&trace::snapshot());
//! assert!(trace::tracing_enabled() || report.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod causal;
mod export;
mod hist;
mod metric;
mod span;
mod time;
mod welford;

pub use causal::{lifecycle, segments, stitch, RequestTimeline, Segments, TimelineEvent};
pub use export::{chrome_trace_json, metrics_json, stage_totals, StageTotal};
pub use hist::{bucket_floor, bucket_index, HistogramSnapshot, LogLinearHistogram, BUCKETS};
pub use metric::{global, Counter, Gauge, MetricEntry, MetricValue, MetricsRegistry};
pub use span::{
    record_event, record_raw, reset, snapshot, tracing_enabled, EventRef, LaneSnapshot, SpanRecord,
    TraceGuard, TraceId, TraceSnapshot, MAX_LANES, RING_CAP,
};
pub use time::{now_ns, Stopwatch};
pub use welford::Welford;
