//! Serving metrics, backed by the dv-trace registry.
//!
//! Each server owns a private [`MetricsRegistry`] (concurrent servers in
//! one process must not share counters), with the latency histogram
//! provided by `dv_trace::LogLinearHistogram` — the same log-linear
//! histogram this crate used to implement privately, promoted upstream
//! with bit-identical bucket and quantile math. The public
//! [`MetricsSnapshot`] API is unchanged from the pre-registry
//! implementation, and a registry-level JSON dump is available through
//! [`Server::metrics_json`](crate::Server::metrics_json).

use dv_trace::MetricsRegistry;

/// Registry names for every serving metric, in one place so the snapshot,
/// the JSON export, and the hot-path increments cannot drift apart.
pub(crate) mod names {
    /// Requests accepted into the queue.
    pub(crate) const SUBMITTED: &str = "serve.submitted";
    /// Submissions rejected under backpressure.
    pub(crate) const REJECTED_QUEUE_FULL: &str = "serve.rejected_queue_full";
    /// Submissions rejected during shutdown.
    pub(crate) const REJECTED_SHUTDOWN: &str = "serve.rejected_shutdown";
    /// Responses served through the full-joint rung.
    pub(crate) const SERVED_FULL: &str = "serve.served_full";
    /// Responses served through the reduced (masked-tap) rung.
    pub(crate) const SERVED_REDUCED: &str = "serve.served_reduced";
    /// Responses served through the confidence-only rung.
    pub(crate) const SERVED_CONFIDENCE: &str = "serve.served_confidence";
    /// Responses served degraded because the drift breaker was open.
    pub(crate) const SERVED_DRIFT_DEGRADED: &str = "serve.served_drift_degraded";
    /// Times the drift breaker opened (alert latched).
    pub(crate) const BREAKER_OPENED: &str = "serve.breaker_opened";
    /// Times the drift breaker closed (alert cleared).
    pub(crate) const BREAKER_CLOSED: &str = "serve.breaker_closed";
    /// Joint-discrepancy observations dropped on the worker→monitor
    /// queue (overflow; never blocks scoring).
    pub(crate) const DRIFT_OBS_DROPPED: &str = "serve.drift_obs_dropped";
    /// Requests whose deadline passed before scoring began.
    pub(crate) const EXPIRED: &str = "serve.expired";
    /// Requests rejected by input validation.
    pub(crate) const BAD_INPUT: &str = "serve.bad_input";
    /// Worker panics observed (crash *events*).
    pub(crate) const WORKER_CRASHES: &str = "serve.worker_crashes";
    /// Requests that terminally failed with `WorkerCrashed`: the one
    /// scoring when its worker panicked. This — not [`WORKER_CRASHES`]
    /// — is the per-request terminal outcome.
    pub(crate) const REQUESTS_CRASHED: &str = "serve.requests_crashed";
    /// Requests shed during shutdown.
    pub(crate) const SHED_SHUTDOWN: &str = "serve.shed_shutdown";
    /// Responses served after their deadline passed.
    pub(crate) const DEADLINE_MISSED: &str = "serve.deadline_missed";
    /// Crash-to-recovered intervals observed.
    pub(crate) const RECOVERY_COUNT: &str = "serve.recovery_count";
    /// Summed crash-to-recovered time (µs).
    pub(crate) const RECOVERY_TOTAL_US: &str = "serve.recovery_total_us";
    /// Worst crash-to-recovered interval (µs).
    pub(crate) const RECOVERY_MAX_US: &str = "serve.recovery_max_us";
    /// Submission-to-response latency of served requests (µs).
    pub(crate) const LATENCY_US: &str = "serve.latency_us";
    /// Sampled submission-queue depth, set from the depth the queue
    /// itself reports on every push and drain (no extra atomics beyond
    /// the queue's own accounting).
    pub(crate) const QUEUE_DEPTH: &str = "serve.queue_depth";
}

/// All counter names, for eager registration.
const COUNTERS: &[&str] = &[
    names::SUBMITTED,
    names::REJECTED_QUEUE_FULL,
    names::REJECTED_SHUTDOWN,
    names::SERVED_FULL,
    names::SERVED_REDUCED,
    names::SERVED_CONFIDENCE,
    names::SERVED_DRIFT_DEGRADED,
    names::BREAKER_OPENED,
    names::BREAKER_CLOSED,
    names::DRIFT_OBS_DROPPED,
    names::EXPIRED,
    names::BAD_INPUT,
    names::WORKER_CRASHES,
    names::REQUESTS_CRASHED,
    names::SHED_SHUTDOWN,
    names::DEADLINE_MISSED,
    names::RECOVERY_COUNT,
    names::RECOVERY_TOTAL_US,
    names::RECOVERY_MAX_US,
];

/// Per-server metrics: a private registry plus snapshot logic.
pub(crate) struct Metrics {
    reg: MetricsRegistry,
}

impl Metrics {
    /// A zeroed metrics block with every name eagerly registered, so an
    /// export taken before any traffic still lists the full schema.
    pub(crate) fn new() -> Self {
        let reg = MetricsRegistry::new();
        for name in COUNTERS {
            let _ = reg.counter(name);
        }
        let _ = reg.histogram(names::LATENCY_US);
        let _ = reg.gauge(names::QUEUE_DEPTH);
        Self { reg }
    }

    /// The backing registry (for JSON export).
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.reg
    }

    /// Increments the counter registered under `name`.
    pub(crate) fn inc(&self, name: &'static str) {
        self.reg.counter(name).inc();
    }

    /// Records one served-request latency, tagging the landing bucket
    /// with the request's trace id so tail quantiles come back with a
    /// replayable exemplar.
    pub(crate) fn record_latency_us(&self, us: u64, trace: u64) {
        self.reg
            .histogram(names::LATENCY_US)
            .record_with_exemplar(us, trace);
    }

    /// The trace id exemplifying the latency bucket that holds the
    /// `q`-quantile (0 when nothing landed there yet).
    pub(crate) fn latency_exemplar(&self, q: f64) -> u64 {
        self.reg.histogram(names::LATENCY_US).quantile_exemplar(q)
    }

    /// Publishes a sampled submission-queue depth.
    pub(crate) fn set_queue_depth(&self, depth: u64) {
        self.reg.gauge(names::QUEUE_DEPTH).set(depth);
    }

    /// Records a crash-to-recovered interval (worker respawned, warmed,
    /// and back on the queue).
    pub(crate) fn record_recovery(&self, us: u64) {
        self.reg.counter(names::RECOVERY_COUNT).inc();
        self.reg.counter(names::RECOVERY_TOTAL_US).add(us);
        self.reg.counter(names::RECOVERY_MAX_US).raise_to(us);
    }

    pub(crate) fn snapshot(&self, worker_respawns: u64) -> MetricsSnapshot {
        let get = |name: &'static str| self.reg.counter(name).get();
        let latency = self.reg.histogram(names::LATENCY_US);
        let recovery_count = get(names::RECOVERY_COUNT);
        let recovery_total = get(names::RECOVERY_TOTAL_US);
        MetricsSnapshot {
            submitted: get(names::SUBMITTED),
            rejected_queue_full: get(names::REJECTED_QUEUE_FULL),
            rejected_shutdown: get(names::REJECTED_SHUTDOWN),
            served_full: get(names::SERVED_FULL),
            served_reduced: get(names::SERVED_REDUCED),
            served_confidence: get(names::SERVED_CONFIDENCE),
            served_drift_degraded: get(names::SERVED_DRIFT_DEGRADED),
            breaker_opened: get(names::BREAKER_OPENED),
            breaker_closed: get(names::BREAKER_CLOSED),
            drift_obs_dropped: get(names::DRIFT_OBS_DROPPED),
            expired: get(names::EXPIRED),
            bad_input: get(names::BAD_INPUT),
            worker_crashes: get(names::WORKER_CRASHES),
            requests_crashed: get(names::REQUESTS_CRASHED),
            worker_respawns,
            shed_shutdown: get(names::SHED_SHUTDOWN),
            deadline_missed: get(names::DEADLINE_MISSED),
            recovery_count,
            recovery_mean_us: if recovery_count == 0 {
                0.0
            } else {
                recovery_total as f64 / recovery_count as f64
            },
            recovery_max_us: get(names::RECOVERY_MAX_US),
            latency_p50_us: latency.quantile(0.50),
            latency_p95_us: latency.quantile(0.95),
            latency_p99_us: latency.quantile(0.99),
        }
    }
}

/// A point-in-time copy of the server's counters and latency quantiles.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Submissions rejected with [`Rejected::QueueFull`](crate::Rejected::QueueFull).
    pub rejected_queue_full: u64,
    /// Submissions rejected because the server was shutting down.
    pub rejected_shutdown: u64,
    /// Responses served through the full-joint rung.
    pub served_full: u64,
    /// Responses served through the reduced (masked-tap) rung.
    pub served_reduced: u64,
    /// Responses served through the confidence-only rung.
    pub served_confidence: u64,
    /// Responses served degraded because the drift breaker was open.
    pub served_drift_degraded: u64,
    /// Times the drift breaker opened (drift alert latched).
    pub breaker_opened: u64,
    /// Times the drift breaker closed (drift alert cleared).
    pub breaker_closed: u64,
    /// Drift observations dropped on the worker→monitor queue.
    pub drift_obs_dropped: u64,
    /// Requests whose deadline had passed when a worker drained them.
    pub expired: u64,
    /// Requests rejected by input validation (shape / non-finite).
    pub bad_input: u64,
    /// Worker panics observed (crash *events*). A panic while a request
    /// scores fails that request alone, so this equals
    /// [`requests_crashed`](MetricsSnapshot::requests_crashed) unless a
    /// worker panicked outside scoring.
    pub worker_crashes: u64,
    /// Requests that terminally failed with `WorkerCrashed` — the
    /// per-request crash outcome used by
    /// [`terminal_outcomes`](MetricsSnapshot::terminal_outcomes).
    pub requests_crashed: u64,
    /// Workers respawned by the supervisor.
    pub worker_respawns: u64,
    /// Requests shed during shutdown.
    pub shed_shutdown: u64,
    /// Responses served after their deadline had already passed.
    pub deadline_missed: u64,
    /// Crash-to-recovered intervals observed.
    pub recovery_count: u64,
    /// Mean crash-to-recovered interval (µs).
    pub recovery_mean_us: f64,
    /// Worst crash-to-recovered interval (µs).
    pub recovery_max_us: u64,
    /// Median submission-to-response latency of served requests (µs).
    pub latency_p50_us: u64,
    /// 95th percentile served latency (µs).
    pub latency_p95_us: u64,
    /// 99th percentile served latency (µs).
    pub latency_p99_us: u64,
}

impl MetricsSnapshot {
    /// Total responses served through any rung (including the breaker's
    /// drift-degraded rung).
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served_full + self.served_reduced + self.served_confidence + self.served_drift_degraded
    }

    /// Every terminal outcome accounted for: served, expired, bad-input,
    /// crashed, or shed. Equals `submitted` exactly when no request was
    /// lost or left hanging.
    #[must_use]
    pub fn terminal_outcomes(&self) -> u64 {
        self.served() + self.expired + self.bad_input + self.requests_crashed + self.shed_shutdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_the_promoted_histogram() {
        // The histogram moved to dv-trace; the serve-visible quantiles
        // must stay inside the log-linear bucket holding the target
        // rank (now linearly interpolated within it).
        let m = Metrics::new();
        for v in 1..=1000u64 {
            m.record_latency_us(v, v);
        }
        let s = m.snapshot(0);
        assert!(
            (400..=650).contains(&s.latency_p50_us),
            "{}",
            s.latency_p50_us
        );
        assert!(
            (850..=1200).contains(&s.latency_p99_us),
            "{}",
            s.latency_p99_us
        );
    }

    #[test]
    fn empty_metrics_report_zero_quantiles() {
        let m = Metrics::new();
        let s = m.snapshot(0);
        assert_eq!(s.latency_p50_us, 0);
        assert_eq!(s.latency_p99_us, 0);
    }

    #[test]
    fn terminal_outcome_accounting_adds_up() {
        let m = Metrics::new();
        for _ in 0..10 {
            m.inc(names::SUBMITTED);
        }
        for _ in 0..5 {
            m.inc(names::SERVED_FULL);
        }
        m.inc(names::SERVED_CONFIDENCE);
        m.inc(names::SERVED_CONFIDENCE);
        m.inc(names::EXPIRED);
        // Two crash events, but only one request terminally crashed (the
        // other panic struck outside scoring): accounting follows the
        // per-request counter.
        m.inc(names::WORKER_CRASHES);
        m.inc(names::WORKER_CRASHES);
        m.inc(names::REQUESTS_CRASHED);
        m.inc(names::SHED_SHUTDOWN);
        let s = m.snapshot(3);
        assert_eq!(s.served(), 7);
        assert_eq!(s.terminal_outcomes(), 10);
        assert_eq!(s.worker_crashes, 2);
        assert_eq!(s.requests_crashed, 1);
        assert_eq!(s.worker_respawns, 3);
    }

    #[test]
    fn recovery_statistics_are_exact() {
        let m = Metrics::new();
        m.record_recovery(100);
        m.record_recovery(300);
        let s = m.snapshot(0);
        assert_eq!(s.recovery_count, 2);
        assert!((s.recovery_mean_us - 200.0).abs() < 1e-9);
        assert_eq!(s.recovery_max_us, 300);
    }

    #[test]
    fn registry_export_lists_every_metric() {
        let m = Metrics::new();
        let json = dv_trace::metrics_json(m.registry());
        for name in COUNTERS {
            assert!(json.contains(name), "missing {name} in\n{json}");
        }
        assert!(json.contains(names::LATENCY_US));
        assert!(json.contains(names::QUEUE_DEPTH));
    }

    #[test]
    fn latency_exemplar_points_at_the_tail_bucket() {
        let m = Metrics::new();
        // 99 fast requests, one slow one with trace id 1000.
        for seq in 0..99u64 {
            m.record_latency_us(50, seq + 1);
        }
        m.record_latency_us(90_000, 1000);
        assert_eq!(
            m.latency_exemplar(0.999),
            1000,
            "p999 bucket's exemplar is the slow request's trace id"
        );
    }
}
